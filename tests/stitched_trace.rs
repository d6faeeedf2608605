//! The stitched picture of a simulator run: the send and deliver probes
//! at the routing seam, paired and numbered by `telemetry::stitch`, on
//! the assertions `crates/runtime/tests/ops_plane.rs` makes of a TCP
//! `/trace` scrape.
//!
//! One test, one file: the telemetry ring is process-global, so a second
//! cluster running in this test binary while recording is on would write
//! into the stream this test asserts on.

use massbft::core::cluster::{Cluster, ClusterConfig};
use massbft::core::protocol::Protocol;
use massbft::workloads::WorkloadKind;
use massbft_telemetry::{self as telemetry, export, stitch, EventKind};

#[test]
fn simulator_hops_pair_number_and_draw_without_perturbing_the_run() {
    let run = || {
        let cfg = ClusterConfig::nationwide(&[4, 4, 4], Protocol::MassBft)
            .workload(WorkloadKind::YcsbA)
            .seed(5)
            .arrival_tps(2000.0)
            .max_batch(80);
        let mut c = Cluster::new(cfg);
        let report = c.run_secs(2);
        assert!(report.all_nodes_consistent);
        let ledger = c.node(c.observer()).ledger();
        (ledger.height(), ledger.head_hash().0)
    };
    let untraced = run();
    telemetry::configure_ring(1 << 20);
    telemetry::set_enabled(true);
    let traced = run();
    telemetry::set_enabled(false);
    assert!(traced.0 > 0, "nothing committed");
    assert_eq!(traced, untraced, "recording perturbed the simulation");

    let drained = telemetry::drain();
    assert_eq!(drained.dropped, 0, "ring sized for the whole run");
    let st = stitch::stitch(&[stitch::NodeStream {
        source: "simulation".into(),
        events: drained.events,
        dropped: drained.dropped,
    }]);
    assert!(st.total_hops() > 0, "no cross-node hops paired");
    assert!(st.hops_ordered(), "orphans or backwards hops on one clock");

    // An entry every node executed reached every group: at least one
    // paired WAN hop carries it from its own group into each other one.
    let everywhere = |e: &&stitch::StitchedEntry| {
        let executed = e.events.iter().filter(|ev| ev.kind == EventKind::Executed);
        executed.count() == 12
    };
    let mut checked = 0;
    let mut relays = 0;
    for e in st.committed().filter(everywhere) {
        let gid = e.entry.0;
        for other in (0..3).filter(|&g| g != gid) {
            assert!(
                e.hops.iter().any(|h| h.from.0 == gid && h.to.0 == other),
                "entry {:?} has no WAN hop into group {other}",
                e.entry
            );
        }
        // The LAN re-share inside a receiving group continues the chain
        // a node of the entry's own group started.
        for h in e.hops.iter().filter(|h| h.from.0 == h.to.0 && h.hop > 0) {
            assert_ne!(h.from.0, gid, "a re-share inside the origin group");
            assert_eq!(h.origin.0, gid, "entry {:?}: {h:?}", e.entry);
            relays += 1;
        }
        checked += 1;
    }
    assert!(checked > 0, "no entry was executed everywhere");
    assert!(relays > 0, "no relayed LAN re-share seen");

    let trace = stitch::to_chrome_trace(&st);
    let summary = export::validate_chrome_trace(&trace).expect("chrome trace");
    assert_eq!(summary.spans, st.entries.len(), "one span per entry");
    assert_eq!(summary.flows, st.total_hops(), "one arrow per hop");
}
