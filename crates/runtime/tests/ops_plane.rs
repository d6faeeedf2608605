//! Live ops plane over a real in-process TCP cluster: the HTTP
//! introspection endpoints, cross-node trace stitching from `/trace`,
//! and the anomaly-triggered flight recorder (ISSUE 9).
//!
//! One test, one cluster: the telemetry ring and metric registry are
//! process-global, so interleaving two live clusters in one test binary
//! would cross-contaminate the streams this test asserts on.

use massbft_core::cluster::ClusterConfig;
use massbft_core::protocol::Protocol;
use massbft_runtime::{http_get, Cluster, OpsConfig};
use massbft_sim_net::SECOND;
use massbft_telemetry::{self as telemetry, export, json, prom, stitch};
use massbft_workloads::WorkloadKind;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(5);

#[test]
fn ops_plane_serves_metrics_traces_and_flight_dumps() {
    telemetry::set_enabled(true);
    let flight_dir = std::env::temp_dir().join(format!("massbft-ops-plane-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&flight_dir);

    let cfg = ClusterConfig::nationwide(&[3, 3], Protocol::MassBft)
        .workload(WorkloadKind::YcsbA)
        .seed(11)
        .arrival_tps(600.0)
        .max_batch(40);
    let mut c = Cluster::new(cfg);
    let addr = c
        .start_ops(OpsConfig {
            flight_dir: Some(flight_dir.clone()),
            ..OpsConfig::default()
        })
        .expect("start ops");
    // Idempotent: a second call returns the same listener.
    assert_eq!(
        c.start_ops(OpsConfig::default()).expect("restart ops"),
        addr
    );

    c.run_until(2 * SECOND);

    // Liveness and routing.
    let (code, _, body) = http_get(addr, "/health", TIMEOUT).expect("GET /health");
    assert_eq!((code, body.as_str()), (200, "ok\n"));
    let (code, _, _) = http_get(addr, "/nope", TIMEOUT).expect("GET /nope");
    assert_eq!(code, 404);

    // /status: every hosted node, with live consensus/exec state.
    let (code, _, body) = http_get(addr, "/status", TIMEOUT).expect("GET /status");
    assert_eq!(code, 200);
    let doc = json::parse(&body).expect("status json");
    let nodes = doc.get("nodes").and_then(|n| n.as_arr()).expect("nodes");
    assert_eq!(nodes.len(), 6, "one status row per hosted node");
    assert!(
        nodes.iter().all(|n| n
            .get("exec_watermark")
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
            > 0),
        "every replica's commit watermark is moving"
    );
    // Executed content is archived where repair is served — the
    // representatives, node 0 — and nowhere else.
    for n in nodes {
        let field = |k: &str| n.get(k).and_then(|v| v.as_u64()).expect(k);
        let (id, kept) = ((field("group"), field("node")), field("archive_bytes"));
        assert_eq!(kept > 0, id.1 == 0, "{id:?} archives {kept} bytes");
    }

    // /metrics: Prometheus text with per-node labeled gauges and the
    // ring-loss counter.
    let (code, _, body) = http_get(addr, "/metrics", TIMEOUT).expect("GET /metrics");
    assert_eq!(code, 200);
    let exp = prom::parse(&body).expect("prometheus text parses");
    assert_eq!(
        exp.type_of("core_entry_commit_latency_us"),
        Some("histogram")
    );
    assert!(exp.value("telemetry_ring_dropped").is_some());
    for progressed in [
        "core_entry_executed_txns",
        "core_entry_commit_latency_us_count",
    ] {
        assert!(exp.value(progressed) > Some(0.0), "{progressed} is zero");
    }
    // Pull repair is visible whether or not anything was missing: every
    // node's repair tick registers both counters.
    for repair in ["core_repair_requested", "core_repair_served"] {
        assert_eq!(exp.type_of(repair), Some("counter"), "{repair}");
        assert!(exp.value(repair).is_some(), "{repair} is not served");
    }
    let views = exp.series("consensus_pbft_view");
    assert_eq!(views.len(), 6, "one view gauge per node");
    assert!(views
        .iter()
        .any(|s| s.label("group") == Some("1") && s.label("node") == Some("2")));
    let archived = exp.series("core_store_archive_bytes");
    assert_eq!(archived.len(), 6, "one archive gauge per node");
    for s in archived {
        let rep = s.label("node") == Some("0");
        assert_eq!(s.value > 0.0, rep, "{:?} archives {}", s.labels, s.value);
    }

    // /trace: recent ring events as JSONL, stitched into distributed
    // spans. In-process all events share one clock, so every committed
    // entry must stitch into one span with time-ordered hops.
    let (code, headers, body) = http_get(addr, "/trace?window=65536", TIMEOUT).expect("GET /trace");
    assert_eq!(code, 200);
    assert!(
        headers
            .iter()
            .any(|(k, _)| k.eq_ignore_ascii_case("x-ring-dropped")),
        "ring loss must be reported, never silent"
    );
    let events = export::parse_jsonl(&body).expect("trace jsonl parses");
    assert!(!events.is_empty(), "trace window empty");
    let st = stitch::stitch(&[stitch::NodeStream {
        source: addr.to_string(),
        events,
        dropped: 0,
    }]);
    let committed = st.committed().count();
    assert!(committed > 0, "no committed entries in the trace window");
    assert!(st.total_hops() > 0, "no cross-node hops paired");
    assert!(st.hops_ordered(), "single-clock hops out of order");
    let spanned = st
        .committed()
        .filter(|e| e.nodes.len() > 1 && !e.hops.is_empty())
        .count();
    assert!(
        spanned > 0,
        "no committed entry shows a multi-node lifecycle"
    );
    // Hop numbers and origins are derived, as for a simulator trace
    // (`tests/stitched_trace.rs`): a re-share inside a receiving group
    // continues the chain a node of the entry's own group started.
    let relayed = st.committed().any(|e| {
        let gid = e.entry.0;
        e.hops
            .iter()
            .any(|h| h.hop > 0 && h.from.0 != gid && h.origin.0 == gid)
    });
    assert!(relayed, "no relayed re-share continues its origin's chain");
    let summary =
        export::validate_chrome_trace(&stitch::to_chrome_trace(&st)).expect("chrome trace");
    assert_eq!(summary.spans, st.entries.len(), "one span per entry");
    assert!(summary.flows > 0, "no WAN flow events in the trace");

    // Flight recorder: an externally signaled anomaly dumps the black
    // box (ring tail + statuses + registry) within a monitor period.
    c.ops().expect("ops running").trigger("test-anomaly");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut dump = None;
    while std::time::Instant::now() < deadline && dump.is_none() {
        dump = std::fs::read_dir(&flight_dir).ok().and_then(|d| {
            d.flatten()
                .map(|f| f.path())
                .find(|p| p.extension().is_some_and(|e| e == "json"))
        });
        std::thread::sleep(Duration::from_millis(100));
    }
    let dump = dump.expect("flight recorder wrote no dump");
    let text = std::fs::read_to_string(&dump).expect("read dump");
    let doc = json::parse(&text).expect("dump is valid json");
    assert_eq!(
        doc.get("reason").and_then(|r| r.as_str()),
        Some("test-anomaly")
    );
    assert_eq!(
        doc.get("nodes").and_then(|n| n.as_arr()).map(|a| a.len()),
        Some(6)
    );
    assert!(doc.get("events").and_then(|e| e.as_arr()).is_some());
    let registry = doc.get("registry").expect("registry");
    for repair in ["core.repair.requested", "core.repair.served"] {
        assert!(
            registry.get(repair).is_some(),
            "{repair} missing from the dump"
        );
    }
    assert_eq!(c.ops().expect("ops running").dumps(), 1);

    drop(c);
    let _ = std::fs::remove_dir_all(&flight_dir);
}
