//! Prometheus text exposition (version 0.0.4) rendering and parsing,
//! dependency-free (ISSUE 9).
//!
//! [`render`] turns a [`Registry`] into the text format any Prometheus
//! scraper understands: `# HELP` / `# TYPE` headers per family,
//! counters and gauges as plain samples, histograms as cumulative
//! `_bucket{le="..."}` series plus `_sum` / `_count`. [`parse`] is the
//! inverse used by the `obs` scraper and the CI smoke gate to validate
//! an exposition without pulling in a real Prometheus.
//!
//! Registry names are dotted (`core.entry.commit_latency_us`); the
//! renderer mangles them to the Prometheus charset (dots and any other
//! illegal character become `_`). A registry key may carry an optional
//! `{key="value",...}` label suffix (e.g. the per-node view gauges the
//! ops server refreshes: `consensus.pbft.view{group="0",node="1"}`);
//! the label block is passed through verbatim and families sharing a
//! base name share one HELP/TYPE header.

use crate::registry::{Metric, Registry};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Splits a registry key into `(base_name, label_block)` where the
/// label block excludes the braces and may be empty.
fn split_key(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(i) => (
            &key[..i],
            key[i..].trim_start_matches('{').trim_end_matches('}'),
        ),
        None => (key, ""),
    }
}

/// Mangles a dotted registry name into the Prometheus metric-name
/// charset `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn mangle(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Escapes a HELP text (`\` and newline, per the exposition format).
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value (`\`, `"`, and newline).
pub fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// HELP strings for the series the observability plane relies on; any
/// other name gets a generic line.
fn help_for(base: &str) -> &'static str {
    match base {
        "core.entry.commit_latency_us" => {
            "End-to-end commit latency per executed entry, microseconds."
        }
        "core.entry.executed_txns" => {
            "Transactions committed by the execution pipeline, all nodes in this process."
        }
        "consensus.pbft.view" => "Current PBFT view, refreshed from node state at scrape time.",
        "consensus.pbft.seq" => "Highest self-proposed PBFT sequence, refreshed at scrape time.",
        "core.exec.watermark" => "Entries executed (commit watermark), refreshed at scrape time.",
        "ops.writer.queue_bytes" => "Bytes queued across this node's outbound writer connections.",
        "telemetry.ring_dropped" => {
            "Telemetry ring events lost to wraparound before they could be drained."
        }
        _ => "massbft registry metric.",
    }
}

fn metric_type(m: &Metric) -> &'static str {
    match m {
        Metric::Counter(_) => "counter",
        Metric::Gauge(_) => "gauge",
        Metric::Histogram(_) => "histogram",
    }
}

fn sample_line(out: &mut String, name: &str, labels: &str, value: u64) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {value}");
    }
}

/// Renders every metric in `reg` as Prometheus text exposition.
pub fn render(reg: &Registry) -> String {
    let mut out = String::new();
    let mut seen_headers: BTreeSet<String> = BTreeSet::new();
    for (key, metric) in reg.metrics() {
        let (base, labels) = split_key(&key);
        let name = mangle(base);
        if seen_headers.insert(name.clone()) {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(help_for(base)));
            let _ = writeln!(out, "# TYPE {name} {}", metric_type(&metric));
        }
        match metric {
            Metric::Counter(c) => sample_line(&mut out, &name, labels, c.get()),
            Metric::Gauge(g) => sample_line(&mut out, &name, labels, g.get()),
            Metric::Histogram(h) => {
                // Read buckets first, then count/sum: a sample recorded
                // in between can only push count past the cumulative
                // bucket total, and `+Inf` is clamped up to count so the
                // exposition stays internally monotone.
                let buckets = h.nonzero_buckets();
                let count = h.count();
                let sum = h.sum();
                let bucket_name = format!("{name}_bucket");
                let mut cum = 0u64;
                for (edge, n) in &buckets {
                    cum += n;
                    let le = if labels.is_empty() {
                        format!("le=\"{edge}\"")
                    } else {
                        format!("{labels},le=\"{edge}\"")
                    };
                    sample_line(&mut out, &bucket_name, &le, cum);
                }
                let inf = if labels.is_empty() {
                    "le=\"+Inf\"".to_string()
                } else {
                    format!("{labels},le=\"+Inf\"")
                };
                sample_line(&mut out, &bucket_name, &inf, cum.max(count));
                sample_line(&mut out, &format!("{name}_sum"), labels, sum);
                sample_line(&mut out, &format!("{name}_count"), labels, cum.max(count));
            }
        }
    }
    out
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Mangled metric name (including `_bucket`/`_sum`/`_count`).
    pub name: String,
    /// Labels in source order, unescaped.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed exposition: samples plus the TYPE declarations seen.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    /// All sample lines in order.
    pub samples: Vec<Sample>,
    /// `(name, type)` pairs from `# TYPE` lines.
    pub types: Vec<(String, String)>,
}

impl Exposition {
    /// Samples whose metric name equals `name`.
    pub fn series(&self, name: &str) -> Vec<&Sample> {
        self.samples.iter().filter(|s| s.name == name).collect()
    }

    /// First sample value for `name` (label-less metrics).
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
    }

    /// The declared TYPE of family `name`, if any.
    pub fn type_of(&self, name: &str) -> Option<&str> {
        self.types
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.as_str())
    }
}

fn unescape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn parse_labels(block: &str, line_no: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = block;
    loop {
        rest = rest.trim_start_matches(',').trim_start();
        if rest.is_empty() {
            return Ok(labels);
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {line_no}: label without '='"))?;
        let key = rest[..eq].trim().to_string();
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("line {line_no}: unquoted label value"));
        }
        rest = &rest[1..];
        // Find the closing quote, honouring backslash escapes.
        let mut end = None;
        let mut escaped = false;
        for (i, c) in rest.char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            }
        }
        let end = end.ok_or_else(|| format!("line {line_no}: unterminated label value"))?;
        labels.push((key, unescape_label(&rest[..end])));
        rest = &rest[end + 1..];
    }
}

/// Parses Prometheus text exposition. Returns an error on any malformed
/// line — the CI gate treats an unparsable `/metrics` body as a failure.
pub fn parse(text: &str) -> Result<Exposition, String> {
    let mut exp = Exposition::default();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(ty) = rest.strip_prefix("TYPE ") {
                let mut parts = ty.split_whitespace();
                let name = parts
                    .next()
                    .ok_or_else(|| format!("line {line_no}: TYPE without name"))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| format!("line {line_no}: TYPE without kind"))?;
                exp.types.push((name.to_string(), kind.to_string()));
            }
            continue; // HELP and other comments carry no samples
        }
        let (name_part, labels, value_part) = match line.find('{') {
            Some(open) => {
                let close = line
                    .rfind('}')
                    .ok_or_else(|| format!("line {line_no}: unterminated label block"))?;
                (
                    &line[..open],
                    parse_labels(&line[open + 1..close], line_no)?,
                    line[close + 1..].trim(),
                )
            }
            None => {
                let sp = line
                    .find(char::is_whitespace)
                    .ok_or_else(|| format!("line {line_no}: sample without value"))?;
                (&line[..sp], Vec::new(), line[sp..].trim())
            }
        };
        let name = name_part.trim().to_string();
        if name.is_empty() {
            return Err(format!("line {line_no}: empty metric name"));
        }
        // Value may be followed by an optional timestamp; take field 0.
        let value_str = value_part
            .split_whitespace()
            .next()
            .ok_or_else(|| format!("line {line_no}: sample without value"))?;
        let value = match value_str {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            s => s
                .parse::<f64>()
                .map_err(|e| format!("line {line_no}: bad value {s:?}: {e}"))?,
        };
        exp.samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    Ok(exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_exposition_format() {
        let r = Registry::default();
        r.counter("net.tcp_bytes_in").add(512);
        r.gauge("consensus.pbft.view{group=\"0\",node=\"1\"}")
            .set(3);
        let h = r.histogram("core.entry.commit_latency_us");
        h.record(3);
        h.record(3);
        h.record(40); // falls in a log bucket with upper edge 40
        let text = render(&r);
        let expected = "\
# HELP consensus_pbft_view Current PBFT view, refreshed from node state at scrape time.
# TYPE consensus_pbft_view gauge
consensus_pbft_view{group=\"0\",node=\"1\"} 3
# HELP core_entry_commit_latency_us End-to-end commit latency per executed entry, microseconds.
# TYPE core_entry_commit_latency_us histogram
core_entry_commit_latency_us_bucket{le=\"3\"} 2
core_entry_commit_latency_us_bucket{le=\"40\"} 3
core_entry_commit_latency_us_bucket{le=\"+Inf\"} 3
core_entry_commit_latency_us_sum 46
core_entry_commit_latency_us_count 3
# HELP net_tcp_bytes_in massbft registry metric.
# TYPE net_tcp_bytes_in counter
net_tcp_bytes_in 512
";
        assert_eq!(text, expected);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_capped_by_inf() {
        let r = Registry::default();
        let h = r.histogram("t.h");
        for v in [1u64, 1, 2, 100, 100_000] {
            h.record(v);
        }
        let exp = parse(&render(&r)).unwrap();
        let buckets = exp.series("t_h_bucket");
        let mut last = 0.0;
        for b in &buckets {
            assert!(b.value >= last, "bucket counts must be cumulative");
            last = b.value;
        }
        let inf = buckets.last().unwrap();
        assert_eq!(inf.label("le"), Some("+Inf"));
        assert_eq!(inf.value, 5.0);
        assert_eq!(exp.value("t_h_count"), Some(5.0));
        assert_eq!(exp.value("t_h_sum"), Some(100_104.0));
        assert_eq!(exp.type_of("t_h"), Some("histogram"));
    }

    #[test]
    fn name_mangling_and_label_escaping() {
        assert_eq!(
            mangle("core.entry.commit_latency_us"),
            "core_entry_commit_latency_us"
        );
        assert_eq!(mangle("net.queue.g0n0-g0n1"), "net_queue_g0n0_g0n1");
        assert_eq!(mangle("9lives"), "_9lives");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let r = Registry::default();
        r.gauge(&format!("weird.g{{path=\"{}\"}}", escape_label("a\"b\\c")))
            .set(7);
        let exp = parse(&render(&r)).unwrap();
        let s = exp.series("weird_g");
        assert_eq!(s[0].label("path"), Some("a\"b\\c"));
        assert_eq!(s[0].value, 7.0);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse("metric_without_value").is_err());
        assert!(parse("m{unterminated=\"x} 1").is_err());
        assert!(parse("m{k=unquoted} 1").is_err());
        assert!(parse("m 12parsecs").is_err());
        // Timestamps are tolerated per the exposition format.
        let exp = parse("m 3 1700000000").unwrap();
        assert_eq!(exp.value("m"), Some(3.0));
    }

    #[test]
    fn concurrent_scrape_while_writing_stays_parsable() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let r = Arc::new(Registry::default());
        let stop = Arc::new(AtomicBool::new(false));
        let mut writers = Vec::new();
        for t in 0..3u64 {
            let r = Arc::clone(&r);
            let stop = Arc::clone(&stop);
            writers.push(std::thread::spawn(move || {
                let c = r.counter("cc.hits");
                let h = r.histogram("cc.lat");
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    c.inc();
                    h.record(t * 1000 + (i % 977));
                    i += 1;
                }
                i
            }));
        }
        let mut last_count = 0.0;
        for _ in 0..50 {
            let exp = parse(&render(&r)).expect("mid-write scrape must parse");
            if let Some(count) = exp.value("cc_hits") {
                assert!(count >= last_count, "scraped counters must be monotone");
                last_count = count;
            }
            // Cumulativity must hold on every mid-write scrape.
            let mut last = 0.0;
            for b in exp.series("cc_lat_bucket") {
                assert!(b.value >= last);
                last = b.value;
            }
        }
        stop.store(true, Ordering::Relaxed);
        let written: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        let exp = parse(&render(&r)).unwrap();
        assert_eq!(exp.value("cc_hits"), Some(written as f64));
        assert_eq!(exp.value("cc_lat_count"), Some(written as f64));
    }
}
