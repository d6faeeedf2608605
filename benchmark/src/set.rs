//! The set: every workload in a process of its own, optionally traced,
//! repeated and compared against the bounds in `BENCHMARK.json`.

use crate::api::{json_parse, JsonValue};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::spec::{Driver, Spec, WORKLOADS};
use crate::{Args, RUN_SECONDS};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// End-to-end metrics measured on the simulator's virtual clock: two runs
/// of one seed must agree on them exactly.
const VIRTUAL_TIME: [&str; 5] = [
    "committed_tps",
    "commit_p50_ms",
    "commit_p95_ms",
    "wan_bytes_per_txn",
    "committed_txn_share",
];

/// What one child process reported.
struct Outcome {
    correct: bool,
    values: BTreeMap<String, (f64, String)>,
    ledger_head: String,
}

/// Runs one workload once in a child process, echoing what it prints, and
/// parses the JSON object on its last line.
fn run_child(args: &Args, spec: &Spec, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stdout(Stdio::piped());
    if let Some(b) = args.build_s {
        cmd.args(["--build-s", &b.to_string()]);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().ok_or("child printed nothing")?;
    for l in &lines {
        println!("{l}");
    }
    let doc = json_parse(last).map_err(|e| format!("last line is not JSON: {e}"))?;
    check_schema(&doc, if traced { &PER_LAYER } else { &END_TO_END })?;
    let mut values = BTreeMap::new();
    if let Some(JsonValue::Obj(metrics)) = doc.get("metrics") {
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
            values.insert(name.clone(), (v, unit.to_string()));
        }
    }
    let correct = matches!(doc.get("correct"), Some(JsonValue::Bool(true)));
    if !out.status.success() && correct {
        return Err(format!("child exited with {}", out.status));
    }
    // The full record the child wrote carries what the last line may not.
    let record = args.out_dir.join(format!(
        "RESULT_{}{}.json",
        spec.name,
        if traced { "_traced" } else { "" }
    ));
    let ledger_head = std::fs::read_to_string(record)
        .ok()
        .and_then(|t| json_parse(&t).ok())
        .and_then(|d| {
            d.get("ledger_head")
                .and_then(JsonValue::as_str)
                .map(String::from)
        })
        .unwrap_or_default();
    Ok(Outcome {
        correct,
        values,
        ledger_head,
    })
}

/// The output contract: exactly four keys, whole-number counts, and every
/// metric of the catalogue with its unit and a finite value.
fn check_schema(doc: &JsonValue, defs: &[MetricDef]) -> Result<(), String> {
    let JsonValue::Obj(top) = doc else {
        return Err("last line is not a JSON object".into());
    };
    let mut keys: Vec<&str> = top.keys().map(String::as_str).collect();
    keys.sort_unstable();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("unexpected keys {keys:?}"));
    }
    if doc
        .get("attempted")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0)
        < 1
        || doc.get("failed").and_then(JsonValue::as_u64).is_none()
    {
        return Err("attempted / failed are not whole numbers".into());
    }
    let Some(JsonValue::Obj(metrics)) = doc.get("metrics") else {
        return Err("metrics is not an object".into());
    };
    if metrics.len() != defs.len() {
        return Err(format!(
            "{} metrics, expected {}",
            metrics.len(),
            defs.len()
        ));
    }
    for d in defs {
        let m = doc.get("metrics").and_then(|m| m.get(d.name));
        let value = m.and_then(|m| m.get("value")).and_then(JsonValue::as_f64);
        let unit = m.and_then(|m| m.get("unit")).and_then(JsonValue::as_str);
        if !value.is_some_and(f64::is_finite) || unit != Some(d.unit) {
            return Err(format!(
                "metric {} missing, not finite, or wrong unit",
                d.name
            ));
        }
    }
    Ok(())
}

/// Bounds by end-to-end metric name, and a check that `BENCHMARK.json`
/// lists exactly the catalogue's metrics and workloads.
fn read_manifest(args: &Args) -> Result<BTreeMap<String, f64>, String> {
    let path = args.manifest.as_ref().ok_or("no --manifest given")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json_parse(&text)?;
    // Every listed item must be the benchmark's own, field for field.
    let listed = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .into_iter()
            .flatten()
            .map(|item| {
                fields
                    .iter()
                    .map(|f| {
                        item.get(f)
                            .and_then(JsonValue::as_str)
                            .unwrap_or("")
                            .to_string()
                    })
                    .collect()
            })
            .collect()
    };
    let metric_rows = |defs: &[MetricDef]| -> Vec<Vec<String>> {
        defs.iter()
            .map(|d| vec![d.name.into(), d.unit.into(), d.better.into()])
            .collect()
    };
    let workload_rows: Vec<Vec<String>> = WORKLOADS
        .iter()
        .map(|w| vec![w.name.into(), w.why.into()])
        .collect();
    for (key, have, want) in [
        (
            "workloads",
            listed("workloads", &["name", "why"]),
            workload_rows,
        ),
        (
            "end_to_end",
            listed("end_to_end", &["name", "unit", "better"]),
            metric_rows(&END_TO_END),
        ),
        (
            "per_layer",
            listed("per_layer", &["name", "unit", "better"]),
            metric_rows(&PER_LAYER),
        ),
    ] {
        if have != want {
            return Err(format!(
                "BENCHMARK.json `{key}` does not match the benchmark's own list"
            ));
        }
    }
    let nominal = doc.get("run_seconds").and_then(JsonValue::as_f64);
    if nominal != Some(RUN_SECONDS) {
        return Err(format!("BENCHMARK.json run_seconds is not {RUN_SECONDS}"));
    }
    Ok(doc
        .get("end_to_end")
        .and_then(JsonValue::as_arr)
        .into_iter()
        .flatten()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

pub fn run(args: &Args) -> bool {
    let selected: Vec<&Spec> = match &args.workload {
        Some(name) => match crate::spec::find(name) {
            Some(s) => vec![s],
            None => {
                eprintln!("unknown workload {name}");
                return false;
            }
        },
        None => WORKLOADS.iter().collect(),
    };
    // Smoke: one tenth length, correctness and output schema only.
    let seconds = args.seconds.unwrap_or(if args.smoke {
        RUN_SECONDS / 10.0
    } else {
        RUN_SECONDS
    });
    let mut failures: Vec<String> = Vec::new();
    let bounds = match read_manifest(args) {
        Ok(b) => b,
        Err(e) => {
            failures.push(e);
            BTreeMap::new()
        }
    };

    // sets[k][workload] = the untraced outcome of the k-th pass.
    let mut sets: Vec<BTreeMap<&str, Outcome>> = Vec::new();
    for pass in 0..args.repeat {
        let mut outcomes = BTreeMap::new();
        for spec in &selected {
            for traced in [false, true] {
                if traced && !args.traced {
                    continue;
                }
                match run_child(args, spec, seconds, traced) {
                    Ok(o) => {
                        if !o.correct {
                            failures
                                .push(format!("{} (pass {pass}): correctness violated", spec.name));
                        }
                        if !traced {
                            outcomes.insert(spec.name, o);
                        }
                    }
                    Err(e) => failures.push(format!("{} (pass {pass}): {e}", spec.name)),
                }
            }
        }
        sets.push(outcomes);
    }

    println!("\n== end-to-end, pass 0 ==");
    for spec in &selected {
        if let Some(o) = sets[0].get(spec.name) {
            println!("{}", spec.name);
            for d in &END_TO_END {
                if let Some((v, unit)) = o.values.get(d.name) {
                    println!("  {:<24} {:>16.4} {unit}", d.name, v);
                }
            }
        }
    }

    // Passes of the same code must agree within the benchmark's own
    // bounds; on the simulator, virtual-time metrics must agree exactly.
    for pass in 1..if args.smoke { 0 } else { sets.len() } {
        println!("\n== pass 0 against pass {pass} ==");
        println!(
            "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7}",
            "workload", "metric", "pass 0", "this pass", "diff", "bound"
        );
        for spec in &selected {
            let (Some(a), Some(b)) = (sets[0].get(spec.name), sets[pass].get(spec.name)) else {
                continue;
            };
            for d in &END_TO_END {
                let (Some((x, _)), Some((y, _))) = (a.values.get(d.name), b.values.get(d.name))
                else {
                    continue;
                };
                let diff = if x == y {
                    0.0
                } else {
                    (y - x).abs() / x.abs().max(f64::MIN_POSITIVE)
                };
                let bound = bounds.get(d.name).copied().unwrap_or(0.0);
                println!(
                    "{:<16} {:<20} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%",
                    spec.name,
                    d.name,
                    x,
                    y,
                    diff * 100.0,
                    bound * 100.0
                );
                if diff > bound {
                    failures.push(format!(
                        "{} {}: pass {pass} differs from pass 0 by {:.2}%, bound {:.0}%",
                        spec.name,
                        d.name,
                        diff * 100.0,
                        bound * 100.0
                    ));
                }
                if spec.driver == Driver::Sim && VIRTUAL_TIME.contains(&d.name) && x != y {
                    failures.push(format!(
                        "{} {}: virtual-time metric differs between passes",
                        spec.name, d.name
                    ));
                }
            }
            if spec.driver == Driver::Sim && a.ledger_head != b.ledger_head {
                failures.push(format!("{}: ledger head differs between passes", spec.name));
            }
        }
    }

    for f in &failures {
        println!("FAIL: {f}");
    }
    println!(
        "{}",
        if failures.is_empty() {
            "benchmark set: ok"
        } else {
            "benchmark set: FAILED"
        }
    );
    failures.is_empty()
}
