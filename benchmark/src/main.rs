//! The repo's benchmark. Two ways in (see `README.md`):
//!
//! - `--workload W --seed N --seconds S --trace 0|1` runs one workload once
//!   in this process and prints one JSON object as the last line of
//!   standard output — the form `BENCHMARK.json`'s command is run in;
//! - without `--trace` it runs the set: every workload (or `--workload`)
//!   in a process of its own — the telemetry registry and the execution
//!   counters are process-global — with `--traced`, `--repeat K` and
//!   `--smoke` on top.
//!
//! It claims no gain; it is the ruler.

mod api;
mod counts;
mod host;
mod metrics;
mod probes;
mod run;
mod set;
mod spec;
mod stats;
mod trace;

use crate::api::{json_escape, telemetry_drain, validate_chrome_trace};
use crate::host::Provenance;
use crate::metrics::{MetricDef, TraceFacts, END_TO_END, PER_LAYER};
use crate::run::{run_rep, Rep};
use crate::spec::{Driver, Spec};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How long one run measures when `--seconds` is not given; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 20.0;
/// How long the probes walk entries in a traced run.
const PROBE_BUDGET: Duration = Duration::from_secs(3);
const PROBE_MIN_WALKS: usize = 5;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: Option<bool>,
    pub traced: bool,
    pub repeat: usize,
    pub smoke: bool,
    pub out_dir: PathBuf,
    pub manifest: Option<PathBuf>,
    pub build_s: Option<f64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh [--workload NAME] [--seed N] [--traced] [--repeat K] [--smoke]
       run.sh --workload NAME --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: None,
        trace: None,
        traced: false,
        repeat: 1,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
        manifest: None,
        build_s: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(val()),
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = Some(val().parse().unwrap_or_else(|_| usage())),
            "--trace" => {
                args.trace = Some(match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--traced" => args.traced = true,
            "--repeat" => args.repeat = val().parse().unwrap_or_else(|_| usage()),
            "--smoke" => args.smoke = true,
            "--out-dir" => args.out_dir = PathBuf::from(val()),
            "--manifest" => args.manifest = Some(PathBuf::from(val())),
            "--build-s" => args.build_s = val().parse().ok(),
            _ => usage(),
        }
    }
    if args.seconds.is_some_and(|s| !(s > 0.0 && s <= 60.0)) || args.repeat == 0 {
        usage();
    }
    args
}

fn main() {
    let started = Instant::now();
    let args = parse_args();
    let ok = match args.trace {
        Some(traced) => single_run(&args, traced, started),
        None => set::run(&args),
    };
    std::process::exit(if ok { 0 } else { 1 });
}

fn metrics_json(defs: &[MetricDef], values: &[f64]) -> String {
    let fields: Vec<String> = defs
        .iter()
        .zip(values)
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                json_escape(d.name),
                d.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn print_metrics(defs: &[MetricDef], values: &[f64]) {
    for (d, v) in defs.iter().zip(values) {
        println!("  {:<42} {:>16.4} {}", d.name, v, d.unit);
    }
}

/// Simulator reps of one seed must agree bit for bit on everything
/// measured in virtual time.
fn check_determinism(spec: &Spec, reps: &[Rep], violations: &mut Vec<String>) {
    if spec.driver != Driver::Sim {
        return;
    }
    let key = |r: &Rep| {
        (
            r.ledger_head.clone(),
            r.ledger_height,
            r.committed,
            r.wan_bytes,
        )
    };
    if reps.iter().any(|r| key(r) != key(&reps[0])) {
        violations.push(
            "simulator reps of one seed differ (ledger head, height, txns or WAN bytes)".into(),
        );
    }
}

/// One workload, once, in this process.
fn single_run(args: &Args, traced: bool, started: Instant) -> bool {
    let Some(spec) = args.workload.as_deref().and_then(spec::find) else {
        eprintln!(
            "--trace needs --workload, one of: {}",
            spec::WORKLOADS.map(|w| w.name).join(", ")
        );
        return false;
    };
    let seconds = args.seconds.unwrap_or(RUN_SECONDS);
    let prov = Provenance::read();
    println!(
        "== {} seed {} seconds {} trace {} ==\n{}",
        spec.name, args.seed, seconds, traced as u8, spec.why
    );
    println!(
        "host: {} x {} | load {:.2} | commit {} | build_s {}",
        prov.nproc,
        prov.cpu_model,
        prov.load1,
        prov.commit,
        args.build_s.map_or("n/a".into(), |b| format!("{b:.1}"))
    );
    if prov.busy() {
        println!(
            "WARNING: load average {:.2} is above half of {} cores; CPU and wall-clock metrics are skewed",
            prov.load1, prov.nproc
        );
    }

    // Untraced reps give the end-to-end metrics. A traced run is an
    // untraced, a traced and another untraced rep on the same seed, then
    // the probes: the traced rep is compared with the mean of the untraced
    // reps on either side of it, which cancels a steady drift of the host.
    let untraced_reps = if traced { 1 } else { spec.reps };
    let mut reps: Vec<Rep> = Vec::new();
    for i in 0..untraced_reps {
        let rep_started = if i == 0 { started } else { Instant::now() };
        reps.push(run_rep(spec, args.seed, seconds, false, rep_started));
    }
    let mut violations: Vec<String> = Vec::new();
    let (defs, values): (&[MetricDef], Vec<f64>) = if traced {
        let _ = telemetry_drain();
        let rep = run_rep(spec, args.seed, seconds, true, Instant::now());
        let drained = telemetry_drain();
        let facts = TraceFacts {
            telemetry_events: drained.events.len() as u64 + drained.dropped,
            ring_dropped: drained.dropped,
        };
        let untraced = run_rep(spec, args.seed, seconds, false, Instant::now());
        let exec = &rep.counts.exec;
        let shape = probes::Shape {
            kind: spec.kind,
            seed: args.seed,
            txns_per_entry: (exec.txns as f64 / exec.batches.max(1) as f64).round() as usize,
            n: spec.size,
            ng: spec.groups,
            exec_fallback: spec.exec_fallback,
        };
        let mut tracer = trace::Tracer::new();
        let budget = PROBE_BUDGET.mul_f64((seconds / RUN_SECONDS).min(1.0));
        let costs = probes::run(shape, budget, PROBE_MIN_WALKS, &mut tracer);
        println!(
            "probes: {} entry walks, {} spans; telemetry: {} events, {} lost to ring wrap",
            costs.walks,
            tracer.spans.len(),
            facts.telemetry_events,
            facts.ring_dropped
        );
        let doc = tracer.to_chrome_trace(spec.name);
        if let Err(e) = validate_chrome_trace(&doc) {
            violations.push(format!("probe trace is not a valid Chrome trace: {e}"));
        }
        let path = args.out_dir.join(format!("TRACE_{}.json", spec.name));
        match std::fs::create_dir_all(&args.out_dir).and_then(|_| std::fs::write(&path, doc)) {
            Ok(()) => println!("trace: {}", path.display()),
            Err(e) => violations.push(format!("cannot write {}: {e}", path.display())),
        }
        let values = metrics::per_layer(spec, [&reps[0], &untraced], &rep, &facts, &costs);
        reps.push(rep);
        reps.push(untraced);
        (&PER_LAYER, values)
    } else {
        let values = metrics::end_to_end(&reps, host::peak_rss_mb());
        (&END_TO_END, values)
    };
    assert_eq!(
        defs.len(),
        values.len(),
        "metric catalogue and values out of step"
    );

    check_determinism(spec, &reps, &mut violations);
    for (i, r) in reps.iter().enumerate() {
        violations.extend(r.violations.iter().map(|v| format!("rep {i}: {v}")));
    }

    let offered: f64 = reps.iter().map(|r| r.offered).sum();
    let committed: u64 = reps.iter().map(|r| r.committed).sum();
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let latency_samples: u64 = reps.iter().map(|r| r.latency.count()).sum();
    println!(
        "reps {} | offered {:.0} | committed {} | attempted {} | failed {} | latency samples {}",
        reps.len(),
        offered,
        committed,
        attempted,
        failed,
        latency_samples
    );
    for (i, r) in reps.iter().enumerate() {
        println!(
            "  rep {i}: setup {:.3} s | window {:.3} s on the driver's clock (nominal {:.3}), {:.3} s wall | {} txns in {} entries, {} latency samples | cpu {:.3} s, floor {:.2} us/txn | {} threads | {} view changes | ledger {} @ {}",
            r.setup_s,
            r.window_s,
            spec.window_us(seconds) as f64 / 1e6,
            r.wall_window_s,
            r.committed,
            r.entries,
            r.latency.count(),
            r.cpu_s,
            r.cpu_us_per_txn_floor,
            r.threads,
            r.counts.get("consensus.pbft.view_changes"),
            &r.ledger_head[..16],
            r.ledger_height
        );
        // The program keeps no count of shed arrivals; on the wall clock a
        // stall of the host or of a group shows only as a short rep, which
        // the medians then leave out.
        if spec.driver == Driver::Tcp && (r.committed as f64) < 0.95 * r.offered {
            println!(
                "  WARNING: rep {i} committed {} of {:.0} offered: the pending pools shed the rest",
                r.committed, r.offered
            );
        }
    }
    print_metrics(defs, &values);
    for v in &violations {
        println!("VIOLATION: {v}");
    }
    let correct = violations.is_empty();

    // The full record, overwritten every run; the parent set reads it.
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {seconds}, \"trace\": {}, \"reps\": {}, \
         \"nproc\": {}, \"cpu_model\": \"{}\", \"load1\": {}, \"commit\": \"{}\", \
         \"ledger_head\": \"{}\", \"ledger_height\": {}, \"latency_samples\": {}, \
         \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}\n",
        spec.name,
        args.seed,
        traced as u8,
        reps.len(),
        prov.nproc,
        json_escape(&prov.cpu_model),
        prov.load1,
        json_escape(&prov.commit),
        reps[0].ledger_head,
        reps[0].ledger_height,
        latency_samples,
        metrics_json(defs, &values)
    );
    let path = args.out_dir.join(format!(
        "RESULT_{}{}.json",
        spec.name,
        if traced { "_traced" } else { "" }
    ));
    if let Err(e) =
        std::fs::create_dir_all(&args.out_dir).and_then(|_| std::fs::write(&path, record))
    {
        eprintln!("cannot write {}: {e}", path.display());
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(defs, &values)
    );
    correct
}
