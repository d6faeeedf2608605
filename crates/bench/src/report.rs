//! Shared plumbing for the bench binaries: a small JSON document
//! builder (the workspace has no serde), a pass/fail verdict collector,
//! and the command-line reader ([`cli::Flags`]).
//!
//! Every `BENCH_*.json` / trace binary used to hand-roll its JSON with
//! `format!`, track failures with ad-hoc booleans and parse its own
//! `std::env::args`; this module is the single copy of each. Rendering
//! is deterministic: objects keep insertion order, arrays of scalars
//! render inline, arrays holding objects render one element per line.

use massbft_telemetry::json::escape;
use std::fmt::Write as _;

/// A JSON value under construction.
#[derive(Debug, Clone)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float, shortest round-trip formatting (non-finite renders as 0).
    F64(f64),
    /// Float with a fixed number of decimals, e.g. `{:.2}`.
    Fixed(f64, usize),
    /// String (escaped on render).
    Str(String),
    /// Pre-rendered JSON fragment, emitted verbatim.
    Raw(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Obj),
}

/// An insertion-ordered JSON object.
#[derive(Debug, Clone, Default)]
pub struct Obj(Vec<(String, Json)>);

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj(Vec::new())
    }

    /// Adds (or appends — duplicate keys are the caller's bug) a field.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.0.push((key.to_string(), value.into()));
        self
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::U64(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::I64(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl From<Obj> for Json {
    fn from(v: Obj) -> Self {
        Json::Obj(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Arr(v)
    }
}

fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v}");
    // Rust renders whole floats as "4" — keep them valid but typed.
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

impl Json {
    /// Fixed-decimal float shorthand.
    pub fn fixed(v: f64, decimals: usize) -> Json {
        Json::Fixed(v, decimals)
    }

    fn is_obj(&self) -> bool {
        matches!(self, Json::Obj(_))
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => out.push_str(&fmt_f64(*v)),
            Json::Fixed(v, d) => {
                if v.is_finite() {
                    let _ = write!(out, "{v:.d$}", d = d);
                } else {
                    out.push('0');
                }
            }
            Json::Str(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
            Json::Raw(s) => out.push_str(s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                } else if items.iter().any(Json::is_obj) {
                    out.push_str("[\n");
                    let pad = "  ".repeat(indent + 1);
                    for (i, item) in items.iter().enumerate() {
                        out.push_str(&pad);
                        item.render_into(out, indent + 1);
                        out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                    }
                    out.push_str(&"  ".repeat(indent));
                    out.push(']');
                } else {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        item.render_into(out, indent);
                    }
                    out.push(']');
                }
            }
            Json::Obj(Obj(fields)) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                let pad = "  ".repeat(indent + 1);
                for (i, (k, v)) in fields.iter().enumerate() {
                    let _ = write!(out, "{pad}\"{}\": ", escape(k));
                    v.render_into(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }

    /// Renders as a full document: the value plus a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }
}

/// Renders `json` to `path` and prints the conventional `wrote <path>`
/// line every bench binary emits.
pub fn write_json(path: &str, json: &Json) {
    std::fs::write(path, json.render()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// Accumulates named pass/fail checks; [`Verdict::finish`] exits
/// non-zero when any failed — the shared ending of every gate binary.
#[derive(Debug, Default)]
pub struct Verdict {
    checks: u64,
    failures: Vec<String>,
}

impl Verdict {
    /// An empty verdict.
    pub fn new() -> Self {
        Verdict::default()
    }

    /// Records one named check; returns `ok` for chaining.
    pub fn check(&mut self, name: &str, ok: bool) -> bool {
        self.checks += 1;
        if !ok {
            self.failures.push(name.to_string());
        }
        ok
    }

    /// True when no recorded check failed.
    pub fn pass(&self) -> bool {
        self.failures.is_empty()
    }

    /// Prints any failures under `context` and exits 1; prints nothing
    /// and returns when everything passed.
    pub fn finish(self, context: &str) {
        if self.pass() {
            return;
        }
        eprintln!("error: {context}: {} check(s) failed", self.failures.len());
        for f in &self.failures {
            eprintln!("  FAIL {f}");
        }
        std::process::exit(1);
    }
}

/// The command line of every bench binary: one declarative flag reader
/// plus the enum vocabularies (`--protocol`, `--workload`, `--region`)
/// the binaries share, so neither parsing nor spelling can drift between
/// them. This is the only place the crate reads `std::env::args`.
pub mod cli {
    use massbft_core::cluster::Region;
    use massbft_core::protocol::Protocol;
    use massbft_workloads::WorkloadKind;
    use std::fmt::Display;
    use std::str::FromStr;

    fn protocol(s: &str) -> Option<Protocol> {
        Some(match s.to_lowercase().as_str() {
            "massbft" => Protocol::MassBft,
            "baseline" => Protocol::Baseline,
            "geobft" => Protocol::GeoBft,
            "steward" => Protocol::Steward,
            "iss" => Protocol::Iss,
            "br" => Protocol::BijectiveOnly,
            "ebr" => Protocol::EncodedBijective,
            _ => return None,
        })
    }

    fn workload(s: &str) -> Option<WorkloadKind> {
        Some(match s.to_lowercase().as_str() {
            "ycsb-a" | "ycsba" => WorkloadKind::YcsbA,
            "ycsb-b" | "ycsbb" => WorkloadKind::YcsbB,
            "smallbank" => WorkloadKind::SmallBank,
            "tpcc" | "tpc-c" => WorkloadKind::TpcC,
            _ => return None,
        })
    }

    fn region(s: &str) -> Option<Region> {
        [Region::Nationwide, Region::Worldwide]
            .into_iter()
            .find(|r| r.name() == s.to_lowercase())
    }

    /// A program's arguments, consumed one declaration at a time: each
    /// `value` / `opt` / `list` / `switch` call takes its flag out of the
    /// argument list and adds a line to the usage text. Whatever is left
    /// when [`Flags::finish`] runs was not declared and is an error, as
    /// is a flag without its value or a value that does not parse. A
    /// flag given twice keeps its last value.
    #[derive(Debug)]
    pub struct Flags {
        bin: &'static str,
        rest: Vec<String>,
        usage: Vec<String>,
        error: Option<String>,
    }

    impl Flags {
        /// The arguments this process was started with.
        pub fn from_env(bin: &'static str) -> Self {
            Self::new(bin, std::env::args().skip(1))
        }

        /// An explicit argument list (tests).
        pub fn new(bin: &'static str, args: impl IntoIterator<Item = String>) -> Self {
            Flags {
                bin,
                rest: args.into_iter().collect(),
                usage: Vec::new(),
                error: None,
            }
        }

        /// Records a reason to refuse the command line; the first one
        /// recorded is the one reported.
        pub fn fail(&mut self, why: impl Into<String>) {
            self.error.get_or_insert(why.into());
        }

        /// Takes every `flag VALUE` pair out of the arguments.
        fn take(&mut self, flag: &str) -> Option<String> {
            let mut found = None;
            while let Some(i) = self.rest.iter().position(|a| a == flag) {
                self.rest.remove(i);
                if i < self.rest.len() {
                    found = Some(self.rest.remove(i));
                } else {
                    self.fail(format!("{flag} needs a value"));
                }
            }
            found
        }

        /// `flag VALUE`, read by `parse`; `None` when absent.
        pub fn opt_with<T>(
            &mut self,
            flag: &str,
            meta: &str,
            parse: impl Fn(&str) -> Option<T>,
        ) -> Option<T> {
            self.usage.push(format!("{flag} {meta}"));
            let raw = self.take(flag)?;
            let value = parse(&raw);
            if value.is_none() {
                self.fail(format!("{flag}: cannot read {raw:?} as {meta}"));
            }
            value
        }

        /// `flag VALUE` of any `FromStr` type; `None` when absent.
        pub fn opt<T: FromStr>(&mut self, flag: &str, meta: &str) -> Option<T> {
            self.opt_with(flag, meta, |s| s.parse().ok())
        }

        fn note_default(&mut self, default: impl Display) {
            if let Some(line) = self.usage.last_mut() {
                line.push_str(&format!(" (default {default})"));
            }
        }

        /// `flag VALUE` with a default.
        pub fn value<T: FromStr + Display>(&mut self, flag: &str, meta: &str, default: T) -> T {
            let given = self.opt(flag, meta);
            self.note_default(&default);
            given.unwrap_or(default)
        }

        /// `flag A,B,C` with a default (an empty default reads as "none").
        pub fn list<T: FromStr + Display>(
            &mut self,
            flag: &str,
            meta: &str,
            default: Vec<T>,
        ) -> Vec<T> {
            let given = self.opt_with(flag, meta, |s| {
                s.split(',').map(|part| part.trim().parse().ok()).collect()
            });
            if !default.is_empty() {
                let shown: Vec<String> = default.iter().map(T::to_string).collect();
                self.note_default(shown.join(","));
            }
            given.unwrap_or(default)
        }

        /// A flag without a value: present or not.
        pub fn switch(&mut self, flag: &str) -> bool {
            self.usage.push(flag.to_string());
            let before = self.rest.len();
            self.rest.retain(|a| a != flag);
            self.rest.len() < before
        }

        /// Every remaining argument that is not a `--flag`.
        pub fn positionals(&mut self, meta: &str) -> Vec<String> {
            self.usage.push(meta.to_string());
            let (flags, names) = std::mem::take(&mut self.rest)
                .into_iter()
                .partition(|a| a.starts_with("--"));
            self.rest = flags;
            names
        }

        /// `--protocol`, MassBFT unless given.
        pub fn protocol(&mut self) -> Protocol {
            let meta = "massbft|baseline|geobft|steward|iss|br|ebr";
            self.opt_with("--protocol", meta, protocol)
                .unwrap_or(Protocol::MassBft)
        }

        /// `--workload`, YCSB-A unless given.
        pub fn workload(&mut self) -> WorkloadKind {
            let meta = "ycsb-a|ycsb-b|smallbank|tpcc";
            self.opt_with("--workload", meta, workload)
                .unwrap_or(WorkloadKind::YcsbA)
        }

        /// `--region`, nationwide unless given.
        pub fn region(&mut self) -> Region {
            self.opt_with("--region", "nationwide|worldwide", region)
                .unwrap_or(Region::Nationwide)
        }

        /// `--groups`, three groups of four unless given.
        pub fn groups(&mut self) -> Vec<usize> {
            self.list("--groups", "N,N,...", vec![4, 4, 4])
        }

        /// The usage text generated from the declarations so far.
        fn usage(&self) -> String {
            let mut text = format!("usage: {} [flags]", self.bin);
            for line in &self.usage {
                text.push_str("\n  ");
                text.push_str(line);
            }
            text
        }

        /// Ends parsing: `Err` carries the reason and the usage text when
        /// anything was refused or left undeclared.
        pub fn finish(mut self) -> Result<(), String> {
            if let Some(stray) = self.rest.first().cloned() {
                self.fail(format!("unknown argument {stray}"));
            }
            match &self.error {
                None => Ok(()),
                Some(why) => Err(format!("error: {why}\n{}", self.usage())),
            }
        }

        /// [`Flags::finish`] for a `main`: prints the refusal and exits 2.
        pub fn done(self) {
            if let Err(refusal) = self.finish() {
                eprintln!("{refusal}");
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use massbft_core::cluster::Region;
    use massbft_core::protocol::Protocol;
    use massbft_workloads::WorkloadKind;

    #[test]
    fn renders_nested_document() {
        let doc = Json::from(
            Obj::new()
                .set("bench", "demo")
                .set("n", 3u64)
                .set("ratio", Json::fixed(1.0 / 3.0, 2))
                .set("ok", true)
                .set("timeline", vec![Json::Arr(vec![1u64.into(), 2u64.into()])])
                .set(
                    "rows",
                    vec![Json::from(Obj::new().set("name", "a\"b").set("v", 1u64))],
                ),
        );
        let s = doc.render();
        assert!(s.contains("\"bench\": \"demo\""));
        assert!(s.contains("\"ratio\": 0.33"));
        assert!(s.contains("\"timeline\": [[1, 2]]"), "{s}");
        assert!(s.contains("\"name\": \"a\\\"b\""));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn floats_stay_valid_json() {
        assert_eq!(fmt_f64(4.0), "4.0");
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert_eq!(fmt_f64(0.5), "0.5");
    }

    #[test]
    fn verdict_tracks_failures() {
        let mut v = Verdict::new();
        assert!(v.check("a", true));
        assert!(v.pass());
        assert!(!v.check("b", false));
        assert!(!v.pass());
    }

    fn flags(args: &[&str]) -> cli::Flags {
        cli::Flags::new("demo", args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn flags_fall_back_to_their_defaults() {
        let mut f = flags(&[]);
        assert_eq!(f.value("--secs", "N", 5u64), 5);
        assert_eq!(f.opt::<String>("--only", "SUBSTRING"), None);
        assert_eq!(f.groups(), vec![4, 4, 4]);
        assert!(!f.switch("--smoke"));
        assert_eq!(f.protocol(), Protocol::MassBft);
        assert_eq!(f.workload(), WorkloadKind::YcsbA);
        assert_eq!(f.region(), Region::Nationwide);
        assert!(f.positionals("[NAME...]").is_empty());
        assert_eq!(f.finish(), Ok(()));
    }

    #[test]
    fn flags_read_typed_values_switches_lists_and_names() {
        let mut f = flags(&[
            "fig11",
            "--arrival-tps",
            "2500.5",
            "--smoke",
            "--groups",
            "4, 4,8",
            "--protocol",
            "GeoBFT",
            "--workload",
            "tpc-c",
            "--region",
            "worldwide",
            "fig15",
        ]);
        assert_eq!(f.value("--arrival-tps", "N", 1.0), 2500.5);
        assert!(f.switch("--smoke"));
        assert_eq!(f.groups(), vec![4, 4, 8]);
        assert_eq!(f.protocol(), Protocol::GeoBft);
        assert_eq!(f.workload(), WorkloadKind::TpcC);
        assert_eq!(f.region(), Region::Worldwide);
        assert_eq!(f.positionals("[NAME...]"), ["fig11", "fig15"]);
        assert_eq!(f.finish(), Ok(()));
    }

    #[test]
    fn a_repeated_flag_keeps_its_last_value() {
        let mut f = flags(&["--seed", "1", "--seed", "9"]);
        assert_eq!(f.value("--seed", "N", 0u64), 9);
        assert_eq!(f.finish(), Ok(()));
    }

    #[test]
    fn refusals_carry_the_reason_and_the_generated_usage() {
        // Each command line is refused; the bins turn `Err` into exit 2.
        let refusal = |args: &[&str]| {
            let mut f = flags(args);
            f.value("--secs", "N", 5u64);
            f.groups();
            f.switch("--smoke");
            f.finish().expect_err("refused")
        };
        let unknown = refusal(&["--secs", "3", "--typo"]);
        assert!(unknown.starts_with("error: unknown argument --typo\n"));
        assert!(unknown.contains("usage: demo [flags]\n  --secs N (default 5)\n"));
        assert!(unknown.contains("\n  --groups N,N,... (default 4,4,4)\n  --smoke"));
        assert!(refusal(&["--smoke", "--secs"]).contains("--secs needs a value"));
        assert!(refusal(&["--secs", "soon"]).contains("--secs: cannot read \"soon\" as N"));
        assert!(refusal(&["--groups", "4,x"]).contains("--groups: cannot read"));
        assert!(refusal(&["stray"]).contains("unknown argument stray"));

        // A caller's own validation is reported the same way, first
        // reason first.
        let mut f = flags(&["--typo"]);
        f.fail("--secs must be at least 6");
        let refused = f.finish().expect_err("refused");
        assert!(refused.starts_with("error: --secs must be at least 6\n"));
    }
}
