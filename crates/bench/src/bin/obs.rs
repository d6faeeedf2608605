//! Cluster-wide observability scraper and trace stitcher (ISSUE 9).
//!
//! Scrapes every node's live introspection endpoints (single- or
//! multi-process clusters via the deterministic `--ops-base` address
//! scheme), prints a refreshing cluster table — per-group tps, p50/p99
//! commit latency, views, queue depths — and writes `BENCH_obs.json`.
//! At the end of a run it pulls each process's `/trace` window, stitches
//! the per-node streams into cross-node distributed spans
//! (`massbft_telemetry::stitch`), and optionally writes the merged
//! Perfetto trace.
//!
//! ```text
//! # against a live multi-process TCP sweep point:
//! cargo run --release -p massbft-bench --bin sweep -- --driver tcp \
//!     --mode process --only nationwide-3x4 --ops-base 47700 --secs 10 &
//! cargo run --release -p massbft-bench --bin obs -- \
//!     --ops-base 47700 --procs 3 --duration-secs 8
//!
//! # CI self-test: spins an in-process cluster, scrapes it, stitches,
//! # exercises the flight recorder, and gates on all of it:
//! cargo run --release -p massbft-bench --bin obs -- --selftest
//! ```

use massbft_bench::report::{self, cli::Flags, Json, Obj, Verdict};
use massbft_core::cluster::ClusterConfig;
use massbft_core::protocol::Protocol;
use massbft_runtime::{http_get, Cluster, OpsConfig};
use massbft_sim_net::SECOND;
use massbft_telemetry::{self as telemetry, export, json, prom, stitch};
use massbft_workloads::WorkloadKind;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const HTTP_TIMEOUT: Duration = Duration::from_secs(5);

struct Args {
    targets: Vec<SocketAddr>,
    interval_ms: u64,
    duration_secs: u64,
    out: String,
    trace_out: Option<String>,
    selftest: bool,
}

fn parse_args() -> Args {
    let mut f = Flags::from_env("obs");
    let mut args = Args {
        targets: f.list("--targets", "HOST:PORT,...", Vec::new()),
        interval_ms: f.value("--interval-ms", "N", 500),
        duration_secs: f.value("--duration-secs", "N", 10),
        out: f.value("--out", "FILE", "BENCH_obs.json".to_string()),
        trace_out: f.opt("--trace-out", "FILE"),
        selftest: f.switch("--selftest"),
    };
    let ops_base: u16 = f.value("--ops-base", "PORT", 0);
    let procs: u16 = f.value("--procs", "N", 0);
    if args.targets.is_empty() && ops_base != 0 {
        // The `sweep --driver tcp --mode process` convention: parent at
        // ops_base, child group g at ops_base + g.
        args.targets = (0..procs)
            .map(|i| SocketAddr::from(([127, 0, 0, 1], ops_base + i)))
            .collect();
    }
    if args.targets.is_empty() && !args.selftest {
        f.fail("nothing to scrape: give --targets, or --ops-base and --procs, or --selftest");
    }
    f.done();
    args
}

/// One node's row in a `/status` document.
struct NodeRow {
    pbft_view: u64,
    exec_watermark: u64,
    executed_txns: u64,
    executed_by_group: Vec<u64>,
    exec_queue: u64,
    writer_queue_frames: u64,
}

fn parse_status(body: &str) -> Option<Vec<NodeRow>> {
    let doc = json::parse(body).ok()?;
    let nodes = doc.get("nodes")?.as_arr()?;
    let get = |v: &json::Value, k: &str| v.get(k).and_then(|x| x.as_u64());
    Some(
        nodes
            .iter()
            .filter_map(|n| {
                Some(NodeRow {
                    pbft_view: get(n, "pbft_view")?,
                    exec_watermark: get(n, "exec_watermark")?,
                    executed_txns: get(n, "executed_txns")?,
                    executed_by_group: n
                        .get("executed_by_group")
                        .and_then(|a| a.as_arr())
                        .map(|a| a.iter().filter_map(|v| v.as_u64()).collect())
                        .unwrap_or_default(),
                    exec_queue: get(n, "exec_queue")?,
                    writer_queue_frames: get(n, "writer_queue_frames")?,
                })
            })
            .collect(),
    )
}

/// The `q`-th percentile (0–100) of a scraped cumulative histogram, or
/// 0 when the series is absent or empty.
fn hist_quantile(exp: &prom::Exposition, base: &str, q: f64) -> f64 {
    let total = exp.value(&format!("{base}_count")).unwrap_or(0.0);
    if total <= 0.0 {
        return 0.0;
    }
    let mut buckets: Vec<(f64, f64)> = exp
        .samples
        .iter()
        .filter(|s| s.name == format!("{base}_bucket"))
        .filter_map(|s| {
            let le = s.label("le")?;
            let edge = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((edge, s.value))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("le edges are ordered"));
    let target = q / 100.0 * total;
    for (edge, cum) in &buckets {
        if *cum >= target {
            return if edge.is_finite() { *edge } else { 0.0 };
        }
    }
    0.0
}

/// One scrape round across every target.
struct Round {
    t_secs: f64,
    executed: u64,
    per_group: Vec<u64>,
    p50_ms: f64,
    p99_ms: f64,
    views: Vec<u64>,
    max_view: u64,
    /// Lowest commit watermark across every scraped node: the cluster's
    /// slowest replica, the number a stall-watcher cares about.
    min_watermark: u64,
    exec_queue: u64,
    writer_queue_frames: u64,
    ring_dropped: u64,
    nodes_seen: usize,
    targets_up: usize,
}

fn scrape_round(targets: &[SocketAddr], t_secs: f64) -> Round {
    let mut r = Round {
        t_secs,
        executed: 0,
        per_group: Vec::new(),
        p50_ms: 0.0,
        p99_ms: 0.0,
        views: Vec::new(),
        max_view: 0,
        min_watermark: u64::MAX,
        exec_queue: 0,
        writer_queue_frames: 0,
        ring_dropped: 0,
        nodes_seen: 0,
        targets_up: 0,
    };
    for (i, &addr) in targets.iter().enumerate() {
        let Ok((200, _, status_body)) = http_get(addr, "/status", HTTP_TIMEOUT) else {
            continue;
        };
        let Some(rows) = parse_status(&status_body) else {
            continue;
        };
        r.targets_up += 1;
        r.nodes_seen += rows.len();
        if let Ok(doc) = json::parse(&status_body) {
            r.ring_dropped += doc
                .get("ring_dropped")
                .and_then(|v| v.as_u64())
                .unwrap_or(0);
        }
        for row in &rows {
            r.views.push(row.pbft_view);
            r.max_view = r.max_view.max(row.pbft_view);
            r.min_watermark = r.min_watermark.min(row.exec_watermark);
            r.exec_queue += row.exec_queue;
            r.writer_queue_frames += row.writer_queue_frames;
        }
        // Commitment truth comes from the first target's first node
        // (execution is totally ordered; every node converges to the
        // same counts, and summing across nodes would multi-count).
        if i == 0 {
            if let Some(first) = rows.first() {
                r.executed = first.executed_txns;
                r.per_group = first.executed_by_group.clone();
            }
            if let Ok((200, _, metrics_body)) = http_get(addr, "/metrics", HTTP_TIMEOUT) {
                if let Ok(exp) = prom::parse(&metrics_body) {
                    let base = "core_entry_commit_latency_us";
                    r.p50_ms = hist_quantile(&exp, base, 50.0) / 1e3;
                    r.p99_ms = hist_quantile(&exp, base, 99.0) / 1e3;
                }
            }
        }
    }
    r
}

fn print_round(r: &Round, prev: Option<&Round>) {
    let dt = prev.map(|p| r.t_secs - p.t_secs).unwrap_or(0.0);
    let ktps = prev
        .filter(|_| dt > 0.0)
        .map(|p| (r.executed.saturating_sub(p.executed)) as f64 / dt / 1e3)
        .unwrap_or(0.0);
    let group_tps: Vec<String> = match prev {
        Some(p) if dt > 0.0 => r
            .per_group
            .iter()
            .zip(p.per_group.iter().chain(std::iter::repeat(&0)))
            .map(|(a, b)| format!("{:.0}", a.saturating_sub(*b) as f64 / dt))
            .collect(),
        _ => r.per_group.iter().map(|_| "-".to_string()).collect(),
    };
    println!(
        "{:>6.1}s {:>7.2} {:>8.1} {:>8.1} {:>6} {:>6} {:>6} {:>5}  [{}]",
        r.t_secs,
        ktps,
        r.p50_ms,
        r.p99_ms,
        r.max_view,
        r.exec_queue,
        r.writer_queue_frames,
        r.ring_dropped,
        group_tps.join(" ")
    );
}

fn round_json(r: &Round, prev: Option<&Round>) -> Json {
    let dt = prev.map(|p| r.t_secs - p.t_secs).unwrap_or(0.0);
    let ktps = prev
        .filter(|_| dt > 0.0)
        .map(|p| (r.executed.saturating_sub(p.executed)) as f64 / dt / 1e3)
        .unwrap_or(0.0);
    Obj::new()
        .set("t_secs", Json::fixed(r.t_secs, 2))
        .set("ktps", Json::fixed(ktps, 2))
        .set("p50_latency_ms", Json::fixed(r.p50_ms, 2))
        .set("p99_latency_ms", Json::fixed(r.p99_ms, 2))
        .set("executed_txns", r.executed)
        .set("max_view", r.max_view)
        .set(
            "min_watermark",
            if r.min_watermark == u64::MAX {
                0
            } else {
                r.min_watermark
            },
        )
        .set("exec_queue", r.exec_queue)
        .set("writer_queue_frames", r.writer_queue_frames)
        .set("ring_dropped", r.ring_dropped)
        .set("nodes_seen", r.nodes_seen)
        .set("targets_up", r.targets_up)
        .into()
}

/// Pulls one target's `/trace` window as a stitchable stream. Ring loss
/// comes from the `X-Ring-Dropped` header — reported, never silently
/// absorbed.
fn fetch_stream(addr: SocketAddr) -> Option<stitch::NodeStream> {
    let (code, headers, body) = http_get(addr, "/trace?window=65536", HTTP_TIMEOUT).ok()?;
    if code != 200 {
        return None;
    }
    let dropped = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("x-ring-dropped"))
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    let events = export::parse_jsonl(&body).unwrap_or_default();
    Some(stitch::NodeStream {
        source: addr.to_string(),
        events,
        dropped,
    })
}

/// Pulls `/trace` from every target and stitches the streams into
/// cross-node spans.
fn stitch_targets(targets: &[SocketAddr]) -> stitch::Stitched {
    let streams: Vec<_> = targets.iter().filter_map(|&a| fetch_stream(a)).collect();
    stitch::stitch(&streams)
}

fn stitch_json(st: &stitch::Stitched) -> Json {
    let committed = st.committed().count();
    Obj::new()
        .set("sources", st.sources)
        .set("entries", st.entries.len())
        .set("committed_entries", committed)
        .set("cross_node_hops", st.total_hops())
        .set("hops_ordered", st.hops_ordered())
        .set("ring_dropped", st.dropped)
        .set("loose_events", st.loose.len())
        .into()
}

fn header() {
    println!(
        "{:>7} {:>7} {:>8} {:>8} {:>6} {:>6} {:>6} {:>5}  [group tps]",
        "t", "ktps", "p50 ms", "p99 ms", "view", "execq", "wq", "drop"
    );
}

/// Scrape a live cluster (started elsewhere) until the duration ends or
/// every target goes away.
fn run_scraper(args: &Args) {
    let mut verdict = Verdict::new();
    println!(
        "scraping {} target(s) every {} ms for {} s",
        args.targets.len(),
        args.interval_ms,
        args.duration_secs
    );
    header();
    let t0 = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut samples: Vec<Json> = Vec::new();
    // Last successful /trace pull per target, refreshed every round so
    // the final stitch survives targets that die mid-run (or a cluster
    // that finishes before the scrape window does) — black-box style.
    let mut latest: Vec<Option<stitch::NodeStream>> = vec![None; args.targets.len()];
    let mut last_trace_pull: Option<Instant> = None;
    while t0.elapsed().as_secs() < args.duration_secs {
        let r = scrape_round(&args.targets, t0.elapsed().as_secs_f64());
        if r.targets_up == 0 && !rounds.is_empty() {
            println!("all targets gone; stopping");
            break;
        }
        // Trace windows are MB-sized; refreshing every couple of
        // seconds keeps the status cadence intact while still bounding
        // how much history a dead target can take with it.
        if last_trace_pull.is_none_or(|t| t.elapsed() >= Duration::from_secs(2)) {
            last_trace_pull = Some(Instant::now());
            for (i, &addr) in args.targets.iter().enumerate() {
                if let Some(s) = fetch_stream(addr) {
                    latest[i] = Some(s);
                }
            }
        }
        print_round(&r, rounds.last());
        samples.push(round_json(&r, rounds.last()));
        rounds.push(r);
        std::thread::sleep(Duration::from_millis(args.interval_ms));
    }
    let streams: Vec<_> = latest.into_iter().flatten().collect();
    let st = stitch::stitch(&streams);
    if let Some(path) = &args.trace_out {
        std::fs::write(path, stitch::to_chrome_trace(&st)).expect("write stitched trace");
        println!("stitched trace: {path}");
    }
    let up_rounds = rounds.iter().filter(|r| r.targets_up > 0).count();
    verdict.check("scraped at least one live round", up_rounds > 0);
    verdict.check(
        "observed committed transactions",
        rounds.iter().any(|r| r.executed > 0),
    );
    let doc = Json::from(
        Obj::new()
            .set("bench", "obs")
            .set(
                "config",
                Obj::new()
                    .set(
                        "targets",
                        args.targets
                            .iter()
                            .map(|a| Json::from(a.to_string()))
                            .collect::<Vec<_>>(),
                    )
                    .set("interval_ms", args.interval_ms)
                    .set("duration_secs", args.duration_secs),
            )
            .set("samples", samples)
            .set("stitch", stitch_json(&st)),
    );
    report::write_json(&args.out, &doc);
    verdict.finish("obs scraper");
}

/// CI self-test: an in-process 3×4 cluster scraped through its real
/// HTTP endpoints, a forced flight-recorder dump, and a stitched trace
/// validated end to end.
fn run_selftest(args: &Args) {
    let mut verdict = Verdict::new();
    telemetry::set_enabled(true);
    let flight_dir =
        std::env::temp_dir().join(format!("massbft-obs-flight-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&flight_dir);

    let cfg = ClusterConfig::nationwide(&[4, 4, 4], Protocol::MassBft)
        .workload(WorkloadKind::YcsbA)
        .seed(7)
        .arrival_tps(800.0)
        .max_batch(50);
    let mut cluster = Cluster::new(cfg);
    let addr = cluster
        .start_ops(OpsConfig {
            flight_dir: Some(flight_dir.clone()),
            ..OpsConfig::default()
        })
        .expect("start ops");
    println!("selftest ops endpoint: http://{addr}/status");

    // Interleave real time with scrape rounds: the cluster runs free
    // between run_until calls; the scrapes hit the live HTTP server.
    header();
    let mut rounds: Vec<Round> = Vec::new();
    let mut samples: Vec<Json> = Vec::new();
    for i in 1..=6u64 {
        cluster.run_until(i * SECOND / 2);
        let r = scrape_round(&[addr], i as f64 * 0.5);
        print_round(&r, rounds.last());
        samples.push(round_json(&r, rounds.last()));
        rounds.push(r);
    }
    verdict.check(
        "status served every node each round",
        rounds.iter().all(|r| r.nodes_seen == 12),
    );
    verdict.check(
        "committed transactions observed live",
        rounds.last().is_some_and(|r| r.executed > 0),
    );
    verdict.check(
        "commit-latency percentiles scraped",
        rounds.last().is_some_and(|r| r.p99_ms > 0.0),
    );
    verdict.check(
        "slowest-replica watermark advanced across rounds",
        rounds
            .first()
            .zip(rounds.last())
            .is_some_and(|(a, b)| b.min_watermark != u64::MAX && b.min_watermark > a.min_watermark),
    );

    // /metrics golden checks through the real socket.
    let (code, _, metrics) = http_get(addr, "/metrics", HTTP_TIMEOUT).expect("GET /metrics");
    verdict.check("metrics endpoint returns 200", code == 200);
    let exp = prom::parse(&metrics);
    verdict.check("metrics parse as prometheus text", exp.is_ok());
    if let Ok(exp) = exp {
        verdict.check(
            "commit latency histogram series present",
            exp.type_of("core_entry_commit_latency_us") == Some("histogram"),
        );
        verdict.check(
            "executed txns counter present",
            exp.type_of("core_entry_executed_txns") == Some("counter"),
        );
        verdict.check(
            "per-node view gauges labeled",
            exp.series("consensus_pbft_view")
                .iter()
                .any(|s| s.label("group").is_some() && s.label("node").is_some()),
        );
        verdict.check(
            "ring-loss counter exported",
            exp.value("telemetry_ring_dropped").is_some(),
        );
    }

    // Cross-node stitching from the live /trace endpoint.
    let st = stitch_targets(&[addr]);
    let committed = st.committed().count();
    verdict.check("stitched at least one committed entry", committed > 0);
    verdict.check("cross-node hops paired", st.total_hops() > 0);
    let trace = stitch::to_chrome_trace(&st);
    let summary = export::validate_chrome_trace(&trace);
    verdict.check("stitched chrome trace validates", summary.is_ok());
    if let Ok(s) = &summary {
        verdict.check(
            "one distributed span per entry",
            s.spans == st.entries.len(),
        );
        verdict.check("wan flow events present", s.flows > 0);
    }
    if let Some(path) = &args.trace_out {
        std::fs::write(path, &trace).expect("write stitched trace");
        println!("stitched trace: {path}");
    }

    // Flight recorder: force a dump through the public trigger and wait
    // for the monitor to write it.
    cluster.ops().expect("ops running").trigger("selftest");
    // Dumps appear atomically (written as .tmp, then renamed), so any
    // .json the poll sees is complete.
    let list_dumps = || -> Vec<std::path::PathBuf> {
        std::fs::read_dir(&flight_dir)
            .map(|d| {
                d.flatten()
                    .map(|f| f.path())
                    .filter(|p| p.extension().is_some_and(|e| e == "json"))
                    .collect()
            })
            .unwrap_or_default()
    };
    let dump_deadline = Instant::now() + Duration::from_secs(5);
    let mut dumps = Vec::new();
    while Instant::now() < dump_deadline {
        dumps = list_dumps();
        if !dumps.is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let dumped = dumps.len();
    verdict.check("flight recorder wrote a dump", dumped > 0);
    let mut dump_valid = false;
    for f in &dumps {
        if let Ok(text) = std::fs::read_to_string(f) {
            if let Ok(doc) = json::parse(&text) {
                dump_valid = doc.get("reason").is_some()
                    && doc
                        .get("nodes")
                        .and_then(|n| n.as_arr())
                        .is_some_and(|a| a.len() == 12)
                    && doc.get("events").and_then(|e| e.as_arr()).is_some()
                    && doc.get("registry").is_some();
            }
        }
    }
    verdict.check(
        "flight dump is valid json with nodes+events+registry",
        dump_valid,
    );

    drop(cluster);
    let _ = std::fs::remove_dir_all(&flight_dir);

    let doc = Json::from(
        Obj::new()
            .set("bench", "obs_selftest")
            .set("samples", samples)
            .set("stitch", stitch_json(&st))
            .set("flight_dumps", dumped as u64),
    );
    report::write_json(&args.out, &doc);
    verdict.finish("obs selftest");
}

fn main() {
    let args = parse_args();
    if args.selftest {
        run_selftest(&args);
    } else {
        run_scraper(&args);
    }
}
