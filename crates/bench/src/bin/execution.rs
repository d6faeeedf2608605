//! Emits `BENCH_execution.json`: serial vs multi-worker Aria execution
//! throughput over the paper's transaction mixes.
//!
//! ```text
//! cargo run -p massbft-bench --release --bin execution
//! cargo run -p massbft-bench --release --bin execution -- --quick
//! ```
//!
//! Three batch workloads, each executed through the full Aria pipeline
//! (snapshot execution → reservations → commit checks → sharded apply):
//!
//! - `ycsb_uniform` — 1M-row YCSB, uniform keys, 50/50 read/write: the
//!   embarrassingly parallel case (near-zero conflicts) that measures raw
//!   pipeline scaling.
//! - `ycsb_zipf` — the paper's Zipf(0.99) hotspot mix: scaling under
//!   skew, where reservation merging actually has collisions.
//! - `smallbank` — SmallBank over 1M accounts: RMW transactions with
//!   logic aborts.
//!
//! The serial baseline is `AriaExecutor::new()` — the exact pre-PR code
//! path — and every parallel run is checked for bit-identical committed
//! counts and store fingerprints against it before any number is
//! reported (determinism is the acceptance constraint, speed second).
//! Worker sweeps cover 1/2/4/8 lanes; `host_cores` is recorded because
//! speedup on a single-core container is physically capped at 1x — the
//! ≥2.5x acceptance target applies to multi-core hosts.
//!
//! Every sweep is repeated with the deterministic abort fallback on
//! (widths up to 16), checked against a serial-with-fallback reference,
//! and reported with `fallback_commit_rate` / `effective_abort_rate` so
//! the zipf hotspot's abort tax is visible before and after rescue.
//!
//! ```text
//! cargo run -p massbft-bench --release --bin execution -- --gate
//! ```
//!
//! re-measures the reserve+commit phase share (ycsb_uniform, 4 workers,
//! quick profile, best of 9) and exits non-zero when it exceeds the
//! `gate_baseline` recorded in `BENCH_execution.json` by more than 15% —
//! a *phase-time* regression gate that stays meaningful on noisy or
//! single-core hosts where wall-clock speedup is not.

use massbft_bench::report::{self, cli::Flags, Json, Obj, Verdict};
use massbft_core::stats::{exec_stats, ExecStats};
use massbft_db::{AriaExecutor, KvStore};
use massbft_telemetry::json as tjson;
use massbft_workloads::{zipf::Zipfian, Request};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::time::Instant;

/// YCSB/SmallBank domain (paper §VI: 1M rows / accounts).
const ROWS: u64 = 1_000_000;

fn gen_ycsb_uniform(rng: &mut SmallRng) -> Request {
    let key = rng.gen_range(0..ROWS);
    let field = rng.gen_range(0..10u8);
    if rng.gen_bool(0.5) {
        Request::YcsbWrite {
            key,
            field,
            value_seed: rng.gen(),
        }
    } else {
        Request::YcsbRead { key, field }
    }
}

fn gen_smallbank(rng: &mut SmallRng) -> Request {
    let acct = rng.gen_range(0..ROWS);
    match rng.gen_range(0..5u8) {
        0 => Request::SbBalance { acct },
        1 => Request::SbDepositChecking {
            acct,
            amount: rng.gen_range(1..100),
        },
        2 => Request::SbTransactSavings {
            acct,
            amount: rng.gen_range(-50..100),
        },
        3 => Request::SbWriteCheck {
            acct,
            amount: rng.gen_range(1..100),
        },
        _ => Request::SbSendPayment {
            src: acct,
            dst: rng.gen_range(0..ROWS),
            amount: rng.gen_range(1..50),
        },
    }
}

/// Pre-builds the batch stream for one workload so every executor config
/// chews through identical transactions.
fn build_batches(name: &str, batch: usize, batches: usize, seed: u64) -> Vec<Vec<Request>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let zipf = Zipfian::new(ROWS, 0.99);
    (0..batches)
        .map(|_| {
            (0..batch)
                .map(|_| match name {
                    "ycsb_uniform" => gen_ycsb_uniform(&mut rng),
                    "ycsb_zipf" => {
                        // Hotspot mix: scrambled-Zipf keys, 50/50 r/w.
                        let key = zipf.sample_scrambled(&mut rng);
                        let field = rng.gen_range(0..10u8);
                        if rng.gen_bool(0.5) {
                            Request::YcsbWrite {
                                key,
                                field,
                                value_seed: rng.gen(),
                            }
                        } else {
                            Request::YcsbRead { key, field }
                        }
                    }
                    _ => gen_smallbank(&mut rng),
                })
                .collect()
        })
        .collect()
}

struct RunResult {
    workers: usize,
    ktps: f64,
    committed: u64,
    fingerprint: u64,
    stats: ExecStats,
}

/// Runs all batches through one executor config on a fresh store.
fn run(exec: &AriaExecutor, workers: usize, batches: &[Vec<Request>]) -> RunResult {
    let before = exec_stats();
    let mut store = KvStore::new();
    let mut committed = 0u64;
    let t0 = Instant::now();
    for b in batches {
        committed += exec.execute_batch(&mut store, b).committed as u64;
    }
    let secs = t0.elapsed().as_secs_f64();
    let txns: usize = batches.iter().map(Vec::len).sum();
    RunResult {
        workers,
        ktps: txns as f64 / secs / 1e3,
        committed,
        fingerprint: store.content_hash(),
        stats: exec_stats().since(&before),
    }
}

/// Fraction of total phase time spent in reserve + commit — the gated
/// quantity. A share is robust where raw ns are not: it cancels host
/// speed, so a recorded full-profile baseline stays comparable to a
/// quick-profile gate run.
fn reserve_commit_share(s: &ExecStats) -> f64 {
    let total = (s.execute_ns + s.reserve_ns + s.commit_ns + s.fallback_ns).max(1) as f64;
    (s.reserve_ns + s.commit_ns) as f64 / total
}

/// The gate measurement: quick-profile uniform YCSB at 4 workers, best
/// (lowest) share of 9 repetitions so scheduler noise inflates nothing.
/// Nine, not three: on a single-core host the 4 worker threads
/// timeslice one CPU and individual reps swing ±15%, which put the old
/// best-of-3 over the limit on a healthy tree about half the time; a
/// real regression shifts every rep, so a deeper min stays sensitive.
fn measure_gate_share() -> f64 {
    let stream = build_batches("ycsb_uniform", 4096, 4, 0xB0B);
    let exec = AriaExecutor::parallel(4);
    (0..9)
        .map(|_| reserve_commit_share(&run(&exec, 4, &stream).stats))
        .fold(f64::INFINITY, f64::min)
}

/// `--gate`: compare the current reserve+commit share against the
/// recorded baseline; exit non-zero on a >15% regression.
fn run_gate() {
    let raw = match std::fs::read_to_string("BENCH_execution.json") {
        Ok(s) => s,
        Err(e) => {
            println!("gate: no BENCH_execution.json ({e}); run the full bench first — skipping");
            return;
        }
    };
    let doc = tjson::parse(&raw).expect("BENCH_execution.json parses");
    let baseline = doc
        .get("gate_baseline")
        .and_then(|g| g.get("reserve_commit_share"))
        .and_then(|v| v.as_f64());
    let Some(baseline) = baseline else {
        println!("gate: recorded report predates the gate_baseline field — skipping");
        return;
    };
    // The share cancels host *speed*, not host *shape*: how four worker
    // threads timeslice the cores moves it (0.51 recorded on one core
    // reads 0.59 on two), so a baseline only binds the core count that
    // recorded it.
    let recorded_cores = doc.get("host_cores").and_then(|v| v.as_u64());
    let host_cores = massbft_accel::host_cores() as u64;
    if recorded_cores != Some(host_cores) {
        println!(
            "gate: baseline recorded on {recorded_cores:?} cores, this host has {host_cores}; \
             re-record BENCH_execution.json here to arm the gate — skipping"
        );
        return;
    }
    let measured = measure_gate_share();
    // 15% tolerance, not 10%: repeated best-of-N runs of an *unchanged*
    // tree (including the commit that recorded the baseline) measure
    // 0.50–0.58 against a 0.510 baseline on the 1-core container —
    // scheduler composition moves the share by up to ~13% with no code
    // change. A real reserve/commit regression (the thing PR 7 guards)
    // shifts the whole distribution, not just the tail.
    let limit = baseline * 1.15;
    println!(
        "gate: reserve+commit share {measured:.3} vs baseline {baseline:.3} (limit {limit:.3})"
    );
    let mut v = Verdict::new();
    v.check(
        "reserve+commit phase share within 15% of recorded baseline",
        measured <= limit,
    );
    v.finish("execution --gate");
}

fn main() {
    let mut f = Flags::from_env("execution");
    let gate = f.switch("--gate");
    let quick = f.switch("--quick");
    f.done();
    if gate {
        run_gate();
        return;
    }
    let (batch, batches) = if quick { (4096, 4) } else { (8192, 12) };
    let host_cores = massbft_accel::host_cores();
    let worker_sweep = [1usize, 2, 4, 8];

    println!(
        "execution pipeline bench: {batches} batches x {batch} txns, host cores = {host_cores}"
    );

    let row_json = |r: &RunResult, baseline_ktps: f64| -> Json {
        let s = &r.stats;
        let phase_total = (s.execute_ns + s.reserve_ns + s.commit_ns + s.fallback_ns).max(1) as f64;
        // fallback_commit_rate: fraction of conflict aborts the fallback
        // rescued (1.0 = the whole abort set committed).
        let rescue = if s.conflict_aborted == 0 {
            0.0
        } else {
            s.fallback_committed as f64 / s.conflict_aborted as f64
        };
        Obj::new()
            .set("workers", r.workers)
            .set("ktps", Json::fixed(r.ktps, 1))
            .set("speedup", Json::fixed(r.ktps / baseline_ktps, 2))
            .set("matches_serial", true)
            .set("worker_utilization", Json::fixed(s.worker_utilization(), 3))
            .set("abort_rate", Json::fixed(s.abort_rate(), 4))
            .set(
                "effective_abort_rate",
                Json::fixed(s.effective_abort_rate(), 4),
            )
            .set("fallback_commit_rate", Json::fixed(rescue, 4))
            .set(
                "phase_ns",
                Obj::new()
                    .set("execute", s.execute_ns)
                    .set("reserve", s.reserve_ns)
                    .set("commit", s.commit_ns)
                    .set("fallback", s.fallback_ns),
            )
            .set(
                "phase_share",
                Obj::new()
                    .set("execute", Json::fixed(s.execute_ns as f64 / phase_total, 3))
                    .set("reserve", Json::fixed(s.reserve_ns as f64 / phase_total, 3))
                    .set("commit", Json::fixed(s.commit_ns as f64 / phase_total, 3))
                    .set(
                        "fallback",
                        Json::fixed(s.fallback_ns as f64 / phase_total, 3),
                    ),
            )
            .into()
    };

    let mut workload_rows: Vec<Json> = Vec::new();
    let mut uniform_speedup_at_4 = 0.0f64;
    let mut zipf_abort_delta: Option<(f64, f64)> = None;
    let workloads = ["ycsb_uniform", "ycsb_zipf", "smallbank"];
    for (wi, name) in workloads.iter().enumerate() {
        let stream = build_batches(name, batch, batches, 0xB0B + wi as u64);

        // Serial baseline: the pre-PR executor, exact code path.
        let baseline = run(&AriaExecutor::new(), 1, &stream);
        println!(
            "{name:>14}  serial baseline {:>8.1} ktps  abort_rate {:.4}",
            baseline.ktps,
            baseline.stats.abort_rate()
        );

        let mut rows = Vec::new();
        for &w in &worker_sweep {
            let r = run(&AriaExecutor::parallel(w), w, &stream);
            // Determinism gate: a wrong parallel result invalidates the
            // bench outright.
            assert_eq!(
                (r.committed, r.fingerprint),
                (baseline.committed, baseline.fingerprint),
                "parallel run (workers={w}) diverged from serial on {name}"
            );
            let speedup = r.ktps / baseline.ktps;
            if *name == "ycsb_uniform" && w == 4 {
                uniform_speedup_at_4 = speedup;
            }
            println!(
                "{name:>14}  workers={w}  {:>8.1} ktps  speedup {speedup:>5.2}x  util {:.2}",
                r.ktps,
                r.stats.worker_utilization()
            );
            rows.push(r);
        }

        // Fallback sweep: same stream, deterministic same-batch rescue
        // on, widths up to 16, parity-checked against a serial run that
        // also has the fallback on (rescue changes the committed set, so
        // the plain serial fingerprint no longer applies).
        let fb_baseline = run(&AriaExecutor::new().with_fallback(true), 1, &stream);
        let mut fb_rows = vec![fb_baseline];
        for &w in &[2usize, 4, 8, 16] {
            let r = run(&AriaExecutor::parallel(w).with_fallback(true), w, &stream);
            assert_eq!(
                (r.committed, r.fingerprint),
                (fb_rows[0].committed, fb_rows[0].fingerprint),
                "fallback run (workers={w}) diverged from serial on {name}"
            );
            fb_rows.push(r);
        }
        let fb = &fb_rows[0].stats;
        println!(
            "{name:>14}  fallback: abort_rate {:.4} -> effective {:.4}  \
             ({} of {} conflicts rescued)",
            fb.abort_rate(),
            fb.effective_abort_rate(),
            fb.fallback_committed,
            fb.conflict_aborted,
        );
        if *name == "ycsb_zipf" {
            zipf_abort_delta = Some((fb.abort_rate(), fb.effective_abort_rate()));
        }

        let parallel: Vec<Json> = rows.iter().map(|r| row_json(r, baseline.ktps)).collect();
        let fallback: Vec<Json> = fb_rows.iter().map(|r| row_json(r, baseline.ktps)).collect();
        workload_rows.push(
            Obj::new()
                .set("name", *name)
                .set(
                    "serial_baseline",
                    Obj::new()
                        .set("ktps", Json::fixed(baseline.ktps, 1))
                        .set("committed", baseline.committed)
                        .set("abort_rate", Json::fixed(baseline.stats.abort_rate(), 4))
                        .set("fingerprint", format!("{:016x}", baseline.fingerprint)),
                )
                .set("parallel", parallel)
                .set("fallback", fallback)
                .into(),
        );
    }

    // Acceptance: >= 2.5x at 4 workers on uniform YCSB — only physically
    // measurable when the host has >= 4 cores; a 1-core container caps
    // every speedup at ~1x no matter how good the pipeline is.
    let multi_core = host_cores >= 4;
    let pass: Json = if multi_core {
        (uniform_speedup_at_4 >= 2.5).into()
    } else {
        "not evaluable on single-core host (speedup physically capped at 1x); \
         parity checked instead"
            .into()
    };
    // Record the phase-share baseline the `--gate` mode compares against,
    // measured with the gate's own quick profile so the comparison is
    // apples-to-apples regardless of which profile produced this report.
    let gate_share = measure_gate_share();
    println!("gate baseline: reserve+commit share {gate_share:.3} (ycsb_uniform, 4 workers)");

    let (zipf_raw, zipf_eff) = zipf_abort_delta.expect("zipf workload ran");
    let doc = Json::from(
        Obj::new()
            .set("bench", "execution_pipeline")
            .set("batch_txns", batch)
            .set("batches", batches)
            .set("host_cores", host_cores)
            .set("quick", quick)
            .set("workloads", workload_rows)
            .set(
                "gate_baseline",
                Obj::new()
                    .set("workload", "ycsb_uniform")
                    .set("workers", 4u64)
                    .set("profile", "quick, best of 9")
                    .set("reserve_commit_share", Json::fixed(gate_share, 3)),
            )
            .set(
                "acceptance",
                Obj::new()
                    .set("workload", "ycsb_uniform")
                    .set("workers", 4u64)
                    .set("speedup", Json::fixed(uniform_speedup_at_4, 2))
                    .set("target", Json::fixed(2.5, 1))
                    .set("multi_core_host", multi_core)
                    .set("pass", pass)
                    .set("zipf_abort_rate", Json::fixed(zipf_raw, 4))
                    .set("zipf_effective_abort_rate", Json::fixed(zipf_eff, 4))
                    .set("zipf_effective_under_5pct", zipf_eff < 0.05),
            ),
    );
    report::write_json("BENCH_execution.json", &doc);
    println!(
        "acceptance: uniform-YCSB speedup at 4 workers = {uniform_speedup_at_4:.2}x \
         (target 2.5x on multi-core; host has {host_cores}); \
         zipf abort tax {zipf_raw:.4} -> {zipf_eff:.4} effective with fallback"
    );
}
