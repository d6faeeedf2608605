//! Capture an entry-lifecycle trace of a geo-distributed run.
//!
//! Runs a deterministic cluster simulation with telemetry spans enabled,
//! then stitches the drained event stream (`massbft_telemetry::stitch`,
//! the path `obs` takes for a TCP `/trace` scrape) and exports:
//!
//! - `TRACE_geo.json` — Chrome `trace_event` JSON, loadable in Perfetto
//!   (ui.perfetto.dev) or `chrome://tracing`: one track per node with an
//!   instant event per lifecycle phase and per message on an entry's data
//!   path, one async span per entry on the cluster track, and a flow
//!   arrow per paired hop.
//! - `TRACE_geo.jsonl` — one raw event per line, for ad-hoc analysis
//!   (`--debug` adds a line for every message and timer).
//!
//! It also prints the Fig. 11 per-phase latency breakdown derived from
//! the trace, and cross-checks it against the protocol layer's own
//! `phase_breakdown()` accounting (they must agree within 1%).
//!
//! ```text
//! cargo run --release -p massbft-bench --bin trace -- \
//!     --protocol massbft --groups 4,4,4 --secs 2 --seed 1 [--debug]
//! ```

use massbft_bench::report::cli::Flags;
use massbft_bench::run;
use massbft_core::cluster::{Cluster, ClusterConfig};
use massbft_sim_net::{NodeId, SECOND};
use massbft_telemetry::{self as telemetry, export, stitch};

/// `|a - b|` within 1% of the larger magnitude (or within 1 µs for
/// near-zero phases).
fn within_one_percent(a: f64, b: f64) -> bool {
    let tol = (a.abs().max(b.abs()) * 0.01).max(0.001);
    (a - b).abs() <= tol
}

fn main() {
    let mut f = Flags::from_env("trace");
    let protocol = f.protocol();
    let groups = f.groups();
    let workload = f.workload();
    let region = f.region();
    let secs: u64 = f.value("--secs", "N", 2);
    let seed: u64 = f.value("--seed", "N", 1);
    let arrival_tps: f64 = f.value("--arrival-tps", "N", 10_000.0);
    let max_batch: usize = f.value("--max-batch", "N", 200);
    let out: String = f.value("--out", "PREFIX", "TRACE_geo".to_string());
    let debug = f.switch("--debug");
    f.done();

    // Size the ring generously: a few seconds of spans across every node
    // fits comfortably in 2^20 slots, and a drop would make the printed
    // breakdown partial (we check and warn below).
    telemetry::configure_ring(1 << 20);
    telemetry::set_verbosity(if debug {
        telemetry::Verbosity::Debug
    } else {
        telemetry::Verbosity::Spans
    });

    let cfg = ClusterConfig::in_region(region, &groups, protocol)
        .workload(workload)
        .seed(seed)
        .arrival_tps(arrival_tps)
        .max_batch(max_batch);

    eprintln!(
        "tracing {} on {:?} groups ({:?}, {:?}), {}s measured ...",
        protocol.name(),
        groups,
        region,
        workload,
        secs
    );
    let mut cluster = Cluster::new(cfg);
    let report = run::measure(&mut cluster, SECOND, secs * SECOND).report;

    let drained = telemetry::drain();
    let stream = stitch::NodeStream {
        source: "simulation".into(),
        events: drained.events,
        dropped: drained.dropped,
    };
    if stream.dropped > 0 {
        eprintln!(
            "warning: ring wrapped, {} events lost — raise the ring capacity \
             or shorten the run; the breakdown below is partial",
            stream.dropped
        );
    }

    // Export both formats.
    let jsonl_path = format!("{out}.jsonl");
    let json_path = format!("{out}.json");
    let jsonl = export::to_jsonl(&stream.events);
    std::fs::write(&jsonl_path, &jsonl).expect("write jsonl");
    let stitched = stitch::stitch(std::slice::from_ref(&stream));
    let chrome = stitch::to_chrome_trace(&stitched);
    std::fs::write(&json_path, &chrome).expect("write chrome trace");

    // Round-trip / structural validation of what we just wrote.
    let reparsed = export::parse_jsonl(&jsonl).expect("jsonl round-trip");
    assert_eq!(reparsed.len(), stream.events.len(), "jsonl round-trip");
    let summary = match export::validate_chrome_trace(&chrome) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: emitted Chrome trace is invalid: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "captured {} events ({} entry spans across {} tracks, {} hops paired, {} orphaned)",
        stream.events.len(),
        summary.spans,
        summary.tracks,
        stitched.total_hops(),
        stitched
            .entries
            .values()
            .map(|e| e.orphan_hops)
            .sum::<usize>()
    );
    println!("  {json_path}   (load in ui.perfetto.dev or chrome://tracing)");
    println!("  {jsonl_path}  (one event per line)");
    let mut kinds: Vec<(&String, &u64)> = summary.kind_counts.iter().collect();
    kinds.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    let listed: Vec<String> = kinds.iter().map(|(k, n)| format!("{k}={n}")).collect();
    println!("  events by kind: {}", listed.join(" "));

    println!(
        "\nrun: {:.1} ktps, mean latency {:.1} ms, consistent={}",
        report.throughput.ktps(),
        report.mean_latency_ms,
        report.all_nodes_consistent
    );

    // Fig. 11 table from the trace, across every group's own entries.
    let Some(bd) = export::breakdown(&stream.events) else {
        eprintln!("error: no complete entry lifecycle in the trace");
        std::process::exit(1);
    };
    println!("\nlatency breakdown from trace ({} entries):", bd.entries);
    println!("  {:<22} {:>9}", "phase", "mean ms");
    println!("  {:<22} {:>9.3}", "local consensus", bd.local_consensus_ms);
    println!(
        "  {:<22} {:>9.3}",
        "global replication", bd.global_replication_ms
    );
    println!("  {:<22} {:>9.3}", "ordering", bd.ordering_ms);
    println!("  {:<22} {:>9.3}", "execution", bd.execution_ms);
    println!("  {:<22} {:>9.3}", "total", bd.total_ms());

    // Cross-check against the protocol layer's own accounting at group
    // 0's representative (PBFT view 0 puts it at node 0), over that
    // group's entries only — the population `phase_breakdown()` measures.
    let rep = NodeId::new(0, 0);
    let Some(node_bd) = cluster.node(rep).phase_breakdown() else {
        eprintln!("error: representative recorded no phase breakdown");
        std::process::exit(1);
    };
    let g0_events: Vec<telemetry::Event> = stream
        .events
        .iter()
        .filter(|e| e.entry.0 == rep.group)
        .copied()
        .collect();
    let Some(trace_bd) = export::breakdown(&g0_events) else {
        eprintln!("error: no group-0 entries in the trace");
        std::process::exit(1);
    };
    let pairs = [
        (
            "local consensus",
            trace_bd.local_consensus_ms,
            node_bd.local_consensus_ms,
        ),
        (
            "global replication",
            trace_bd.global_replication_ms,
            node_bd.global_replication_ms,
        ),
        ("ordering", trace_bd.ordering_ms, node_bd.ordering_ms),
        ("execution", trace_bd.execution_ms, node_bd.execution_ms),
    ];
    println!("\ncross-check vs node accounting (group 0 rep):");
    let mut ok = true;
    for (name, t, n) in pairs {
        let agree = within_one_percent(t, n);
        ok &= agree;
        println!(
            "  {:<22} trace {:>9.3}  node {:>9.3}  {}",
            name,
            t,
            n,
            if agree { "ok" } else { "MISMATCH" }
        );
    }
    if !ok && stream.dropped == 0 {
        eprintln!("error: trace-derived breakdown disagrees with node accounting");
        std::process::exit(1);
    }
}
