//! End-to-end integration tests across the whole workspace, through the
//! `massbft` facade: every workload through the full MassBFT stack, on
//! both latency presets, with replica-consistency checks.

use massbft::core::cluster::{Cluster, ClusterConfig};
use massbft::core::protocol::Protocol;
use massbft::sim_net::NodeId;
use massbft::workloads::WorkloadKind;

fn run(cfg: ClusterConfig, secs: u64) -> (Cluster, massbft::core::cluster::Report) {
    let mut c = Cluster::new(cfg);
    let r = c.run_secs(secs);
    (c, r)
}

#[test]
fn every_workload_commits_and_agrees() {
    for w in [
        WorkloadKind::YcsbA,
        WorkloadKind::YcsbB,
        WorkloadKind::SmallBank,
        WorkloadKind::TpcC,
    ] {
        let cfg = ClusterConfig::nationwide(&[4, 4, 4], Protocol::MassBft)
            .workload(w)
            .seed(5)
            .arrival_tps(4000.0)
            .max_batch(80);
        let (_, r) = run(cfg, 3);
        assert!(
            r.throughput.tps() > 500.0,
            "{}: {:.0} tps",
            w.name(),
            r.throughput.tps()
        );
        assert!(r.all_nodes_consistent, "{}: replicas diverged", w.name());
    }
}

#[test]
fn worldwide_latency_exceeds_nationwide() {
    let lat = |worldwide: bool| {
        let groups = [4, 4, 4];
        let cfg = if worldwide {
            ClusterConfig::worldwide(&groups, Protocol::MassBft)
        } else {
            ClusterConfig::nationwide(&groups, Protocol::MassBft)
        }
        .workload(WorkloadKind::YcsbA)
        .seed(5)
        .arrival_tps(800.0)
        .max_batch(64);
        run(cfg, 3).1.mean_latency_ms
    };
    let nat = lat(false);
    let world = lat(true);
    // Worldwide RTTs are ~5x nationwide; the protocol path is RTT-bound.
    assert!(
        world > nat * 2.0,
        "worldwide {world:.0} ms should clearly exceed nationwide {nat:.0} ms"
    );
}

#[test]
fn tpcc_aborts_more_than_smallbank() {
    // The paper's Fig. 8d observation: TPC-C's hotspot rows (district
    // next_o_id, warehouse YTD) raise the conflict-abort rate with large
    // batches, reducing committed throughput relative to executed load.
    let ratio = |w: WorkloadKind| {
        let cfg = ClusterConfig::nationwide(&[4, 4, 4], Protocol::MassBft)
            .workload(w)
            .seed(5);
        let (c, r) = run(cfg, 3);
        let obs = c.observer();
        let entries = c.node(obs).executed_entries().max(1);
        // committed txns per entry — lower means more aborts per batch.
        r.throughput.txns as f64 / entries as f64
    };
    let sb = ratio(WorkloadKind::SmallBank);
    let tpcc = ratio(WorkloadKind::TpcC);
    assert!(
        tpcc < sb * 0.8,
        "TPC-C commits/batch ({tpcc:.0}) should trail SmallBank ({sb:.0})"
    );
}

#[test]
fn observer_state_matches_every_honest_node() {
    let cfg = ClusterConfig::nationwide(&[4, 4, 4], Protocol::MassBft)
        .workload(WorkloadKind::SmallBank)
        .seed(9)
        .arrival_tps(3000.0)
        .max_batch(60);
    let (c, r) = run(cfg, 3);
    assert!(r.all_nodes_consistent);
    // Nodes at the same execution prefix have identical state hashes.
    let mut by_len: std::collections::HashMap<u64, u64> = Default::default();
    for g in 0..3u32 {
        for i in 0..4u32 {
            let n = c.node(NodeId::new(g, i));
            let len = n.ledger().height();
            let h = n.state_hash();
            if let Some(&existing) = by_len.get(&len) {
                assert_eq!(existing, h, "state divergence at {} entries", len);
            } else {
                by_len.insert(len, h);
            }
        }
    }
}

#[test]
fn per_group_throughput_sums_to_total() {
    let cfg = ClusterConfig::nationwide(&[4, 4, 4], Protocol::MassBft)
        .workload(WorkloadKind::YcsbA)
        .seed(5)
        .arrival_tps(3000.0)
        .max_batch(60);
    let (_, r) = run(cfg, 3);
    let sum: f64 = r.per_group_tps.iter().sum();
    // per_group counters cover all executed txns since start; throughput
    // covers the window only — the sum must be at least the window rate.
    assert!(
        sum >= r.throughput.tps() * 0.9,
        "sum {sum:.0} vs {:.0}",
        r.throughput.tps()
    );
}

#[test]
fn facade_reexports_compose() {
    // The facade's substrate re-exports interoperate with the core types.
    use massbft::codec::chunker::EntryCodec;
    use massbft::crypto::Digest;

    let codec = EntryCodec::new(3, 7).expect("codec");
    let entry = massbft::core::entry::encode_batch(
        massbft::core::entry::EntryId::new(0, 1),
        &[b"tx".to_vec()],
    );
    let chunks = codec.encode(&entry).expect("encode");
    assert_eq!(chunks.len(), 7);
    assert_ne!(Digest::of(&entry), Digest::ZERO);
}

#[test]
fn ledgers_chain_and_agree_across_nodes() {
    let cfg = ClusterConfig::nationwide(&[4, 4, 4], Protocol::MassBft)
        .workload(WorkloadKind::YcsbA)
        .seed(31)
        .arrival_tps(3000.0)
        .max_batch(60);
    let mut c = Cluster::new(cfg);
    let r = c.run_secs(3);
    assert!(r.all_nodes_consistent);
    let reference = c.node(NodeId::new(0, 0)).ledger();
    assert!(
        reference.height() > 10,
        "ledger too short: {}",
        reference.height()
    );
    assert!(reference.verify_chain());
    for g in 0..3u32 {
        for i in 0..4u32 {
            let l = c.node(NodeId::new(g, i)).ledger();
            assert!(l.verify_chain(), "N{g},{i} chain broken");
            assert!(
                reference.prefix_consistent(l),
                "N{g},{i} ledger forked from reference"
            );
        }
    }
    // Nodes at equal heights share the head hash.
    let h0 = c.node(NodeId::new(0, 0)).ledger().height();
    for g in 0..3u32 {
        for i in 0..4u32 {
            let l = c.node(NodeId::new(g, i)).ledger();
            if l.height() == h0 {
                assert_eq!(l.head_hash(), reference.head_hash());
            }
        }
    }
}
