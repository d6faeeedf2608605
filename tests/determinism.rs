//! Determinism guarantees: identical seeds produce identical runs for
//! every protocol; different seeds genuinely differ; fault injection is
//! reproducible. Deterministic simulation is what makes every figure in
//! EXPERIMENTS.md re-derivable bit-for-bit.

use massbft::core::adversary::{AdversarySpec, FaultEvent, Strategy};
use massbft::core::cluster::{Cluster, ClusterConfig};
use massbft::core::protocol::Protocol;
use massbft::sim_net::{NodeId, Time, MILLISECOND, SECOND};
use massbft::workloads::WorkloadKind;

fn fingerprint(protocol: Protocol, seed: u64) -> (u64, u64, u64, u64) {
    let cfg = ClusterConfig::nationwide(&[4, 4, 4], protocol)
        .workload(WorkloadKind::SmallBank)
        .seed(seed)
        .arrival_tps(3000.0)
        .max_batch(60);
    let mut c = Cluster::new(cfg);
    let r = c.run_secs(2);
    let obs = c.observer();
    (
        r.throughput.txns,
        r.wan_bytes,
        c.node(obs).executed_entries(),
        c.node(obs).state_hash(),
    )
}

#[test]
fn all_protocols_reproduce_exactly() {
    for p in [
        Protocol::MassBft,
        Protocol::Baseline,
        Protocol::GeoBft,
        Protocol::Steward,
        Protocol::Iss,
        Protocol::BijectiveOnly,
        Protocol::EncodedBijective,
    ] {
        assert_eq!(fingerprint(p, 17), fingerprint(p, 17), "{}", p.name());
    }
}

#[test]
fn different_seeds_change_the_run() {
    let a = fingerprint(Protocol::MassBft, 1);
    let b = fingerprint(Protocol::MassBft, 2);
    assert_ne!(a.3, b.3, "different seeds must produce different histories");
}

#[test]
fn fault_schedules_are_reproducible() {
    let run = || {
        let cfg = ClusterConfig::nationwide(&[4, 4, 4], Protocol::MassBft)
            .workload(WorkloadKind::YcsbA)
            .seed(23)
            .arrival_tps(3000.0)
            .max_batch(60);
        let mut c = Cluster::new(cfg);
        c.run_until(2 * SECOND);
        c.crash_group(1);
        c.run_until(6 * SECOND);
        let obs = c.observer();
        (c.node(obs).executed_txns(), c.node(obs).state_hash())
    };
    assert_eq!(run(), run());
}

/// Runs a MassBFT cluster with `workers` Aria lanes, `retry` conflict
/// retries, and the deterministic abort `fallback` set explicitly,
/// capturing every node's full ledger view (height, head hash, per-block
/// state fingerprints via the head chain hash) plus state.
fn parallel_run(workers: usize, retry: bool, fallback: bool) -> Vec<(u64, [u8; 32], u64)> {
    let cfg = ClusterConfig::nationwide(&[4, 4, 4], Protocol::MassBft)
        .workload(WorkloadKind::SmallBank)
        .seed(41)
        .arrival_tps(3000.0)
        .max_batch(60)
        .exec_workers(workers)
        .retry_aborts(retry)
        .exec_fallback(fallback);
    let mut c = Cluster::new(cfg);
    c.run_secs(2);
    let mut out = Vec::new();
    for g in 0..3u32 {
        for i in 0..4u32 {
            let n = c.node(NodeId::new(g, i));
            // head_hash chains every block hash, and each block hash
            // covers its state fingerprint — so equal (height, head)
            // pins the entire per-entry execution history, byte for
            // byte.
            out.push((
                n.ledger().height(),
                n.ledger().head_hash().0,
                n.state_hash(),
            ));
        }
    }
    out
}

#[test]
fn parallel_execution_is_byte_identical_to_serial() {
    // The tentpole property: worker count is invisible in the results.
    // Ledger root hashes cover per-entry state fingerprints, so equality
    // here means byte-identical execution histories on every replica.
    let serial = parallel_run(1, false, false);
    assert_eq!(parallel_run(4, false, false), serial, "4 workers diverged");
    assert_eq!(parallel_run(8, false, false), serial, "8 workers diverged");
}

#[test]
fn parallel_replicas_agree_on_ledger_roots() {
    let nodes = parallel_run(4, false, false);
    let max_height = nodes.iter().map(|n| n.0).max().unwrap();
    assert!(max_height > 10, "run too short: {max_height}");
    let reference = nodes.iter().find(|n| n.0 == max_height).unwrap();
    for (i, n) in nodes.iter().enumerate() {
        if n.0 == max_height {
            assert_eq!(n.1, reference.1, "node {i} ledger root differs");
            assert_eq!(n.2, reference.2, "node {i} state differs");
        }
    }
}

#[test]
fn conflict_retry_is_deterministic_across_worker_counts() {
    // Retry re-queues conflict aborts at the front of the next entry's
    // batch; the queue must be a pure function of the entry sequence,
    // so worker width cannot show through even with retries on.
    let serial = parallel_run(1, true, false);
    assert_eq!(parallel_run(8, true, false), serial);
    // And retries genuinely change the history vs drop-on-conflict.
    assert_ne!(parallel_run(1, false, false), serial);
}

#[test]
fn deterministic_fallback_is_byte_identical_across_worker_counts() {
    // Aria's same-batch abort fallback re-runs the conflict set serially
    // against the evolving store — the most order-sensitive path in the
    // executor. Worker width must still be invisible end to end.
    let serial = parallel_run(1, false, true);
    assert_eq!(parallel_run(4, false, true), serial, "4 workers diverged");
    assert_eq!(parallel_run(8, false, true), serial, "8 workers diverged");
    // And rescuing aborts genuinely changes the committed history vs
    // drop-on-conflict — the fallback is doing real work here.
    assert_ne!(parallel_run(1, false, false), serial);
}

/// The scale-sweep regression point: the 8-group × 8-node worldwide
/// topology (the `scale` bench's headline configuration) run twice with
/// the same seed must agree on every replica's ledger root and on the
/// final virtual clock. This pins the simulator's event ordering — heap
/// tie-breaks, route FIFO state, payload sharing — at bench scale, not
/// just on the small nationwide fixtures above. (Arrival rate and run
/// length are scaled down from the bench so the test stays cheap in
/// debug builds; the topology is what the bench sweeps.)
#[test]
fn scale_sweep_point_8x8_reproduces_exactly() {
    let run = || {
        let sizes = vec![8usize; 8];
        let cfg = ClusterConfig::worldwide(&sizes, Protocol::MassBft)
            .workload(WorkloadKind::YcsbA)
            .seed(7)
            .arrival_tps(800.0)
            .max_batch(100);
        let mut c = Cluster::new(cfg);
        c.run_until(SECOND);
        let final_vtime = c.sim_mut().now();
        let mut roots = Vec::new();
        for g in 0..8u32 {
            for i in 0..8u32 {
                let n = c.node(NodeId::new(g, i));
                roots.push((n.ledger().height(), n.ledger().head_hash().0));
            }
        }
        (final_vtime, roots)
    };
    let (vtime_a, roots_a) = run();
    let (vtime_b, roots_b) = run();
    assert_eq!(vtime_a, vtime_b, "final virtual time diverged");
    assert_eq!(roots_a, roots_b, "ledger roots diverged between runs");
    assert!(
        roots_a.iter().any(|(h, _)| *h > 0),
        "run committed nothing — the point is too short to pin anything"
    );
}

#[test]
fn virtual_time_decouples_from_wall_clock() {
    // Two identical configurations must agree even when the host machine
    // is under different load — trivially true for virtual time, but this
    // guards against anyone sneaking wall-clock reads into protocol code.
    let t0 = std::time::Instant::now();
    let a = fingerprint(Protocol::MassBft, 99);
    let first_duration = t0.elapsed();
    // Burn some wall time to de-correlate.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let b = fingerprint(Protocol::MassBft, 99);
    assert_eq!(a, b);
    let _ = first_duration;
}

/// Held Raft appends used to sit in a `RandomState` map that every replay
/// drained, so per-process hash order reached the simulator's message
/// sequence numbers. Two clusters built in one process get different
/// `RandomState`s; while several appends are held at once at one
/// representative, both must still produce the same ledgers at the same
/// virtual instant.
#[test]
fn held_append_replay_order_is_not_hash_order() {
    let run = || {
        let cfg = ClusterConfig::nationwide(&[4; 6], Protocol::MassBft)
            .workload(WorkloadKind::YcsbA)
            .seed(7)
            .arrival_tps(2_000.0)
            .max_batch(100);
        let mut c = Cluster::new(cfg);
        let mut peak_held = 0;
        for step in 1..=80 {
            c.run_until(step * 10 * MILLISECOND);
            for g in 0..6u32 {
                peak_held = peak_held.max(c.node(NodeId::new(g, 0)).status().held_appends);
            }
        }
        let final_vtime = c.sim_mut().now();
        let heads: Vec<(u64, [u8; 32])> = (0..6u32)
            .flat_map(|g| (0..4u32).map(move |i| NodeId::new(g, i)))
            .map(|id| {
                (
                    c.node(id).ledger().height(),
                    c.node(id).ledger().head_hash().0,
                )
            })
            .collect();
        (peak_held, final_vtime, heads)
    };
    let (held_a, vtime_a, heads_a) = run();
    let (held_b, vtime_b, heads_b) = run();
    assert!(
        held_a >= 3,
        "only {held_a} appends held at once: nothing to order"
    );
    assert_eq!(held_a, held_b);
    assert_eq!(vtime_a, vtime_b, "final virtual time diverged");
    assert_eq!(heads_a, heads_b, "ledger heads diverged");
    assert!(heads_a.iter().all(|(h, _)| *h > 50), "run too short");
}

/// Runs one benchmark shape (seed 7) for `until` of virtual time and
/// compares the observer's ledger head (first eight bytes, hex), ledger
/// height and committed transactions with what 4e9a4ab — the parent of
/// ISSUE 15 — produced.
fn assert_recorded(label: &str, cfg: ClusterConfig, until: Time, recorded: (&str, u64, u64)) {
    let mut c = Cluster::new(cfg.seed(7));
    c.run_until(until);
    let n = c.node(c.observer());
    let head: String = n.ledger().head_hash().0[..8]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(
        (head.as_str(), n.ledger().height(), n.executed_txns()),
        recorded,
        "{label}"
    );
}

/// The three protocol shapes `BENCHMARK.json` runs on the simulator, cut
/// short. A host-CPU optimisation must leave every one of them where it
/// was.
#[test]
fn benchmark_shapes_match_recorded_ledger_heads() {
    let peak = ClusterConfig::nationwide(&[7, 7, 7], Protocol::MassBft)
        .workload(WorkloadKind::YcsbA)
        .arrival_tps(100_000.0)
        .max_batch(500);
    assert_recorded(
        "3x7 YCSB-A zipf",
        peak,
        SECOND,
        ("f392c7e36e8de3c5", 31, 14458),
    );
    let scale = ClusterConfig::nationwide(&[4; 12], Protocol::MassBft)
        .workload(WorkloadKind::YcsbA)
        .arrival_tps(2_000.0)
        .max_batch(100);
    assert_recorded(
        "12x4 YCSB-A",
        scale,
        500 * MILLISECOND,
        ("95784b6e2d57dd31", 236, 9473),
    );
    let victim = NodeId::new(1, 0);
    let faults = ClusterConfig::nationwide(&[4, 4, 4], Protocol::MassBft)
        .workload(WorkloadKind::SmallBank)
        .arrival_tps(3_000.0)
        .max_batch(60)
        .fault_at(600 * MILLISECOND, FaultEvent::Crash(victim))
        .fault_at(1_400 * MILLISECOND, FaultEvent::Recover(victim))
        .fault_at(1_700 * MILLISECOND, FaultEvent::PartitionGroups(0, 2))
        .fault_at(2_100 * MILLISECOND, FaultEvent::HealGroups(0, 2));
    // Re-pinned once, deliberately, for the catch-up path: appends the
    // leader had committed pass the content gate, and every entry missing
    // at two repair ticks running is pulled, one server per ask. The two
    // fault-free shapes above did not move.
    assert_recorded(
        "3x4 SmallBank, crash + partition",
        faults,
        2_600 * MILLISECOND,
        ("0c818fb9f1d6d33b", 190, 11396),
    );
}

/// The file's 3×4 SmallBank shape under `protocol`.
fn small_bank(protocol: Protocol) -> ClusterConfig {
    ClusterConfig::nationwide(&[4, 4, 4], protocol)
        .workload(WorkloadKind::SmallBank)
        .arrival_tps(3_000.0)
        .max_batch(60)
}

/// Every branch of the node that is not on MassBFT's fault-free path — the
/// six other presets, the four node-level adversary strategies, cross-group
/// takeover after a group crash, serial VTS assignment — as produced by
/// 832f9a8, the parent of ISSUE 19, which cut the node into parts.
#[test]
fn every_preset_and_fault_branch_matches_recorded_ledger_heads() {
    // At the default 20 Mbps the 20 ms batch timer paces every preset; at
    // 3 Mbps uplinks the replication strategy does.
    for (protocol, paced, starved) in [
        (
            Protocol::EncodedBijective,
            ("115117421875da37", 138, 8278),
            ("80d93d4bc360b9bc", 135, 8098),
        ),
        (
            Protocol::BijectiveOnly,
            ("115117421875da37", 138, 8278),
            ("2210c5dcccb17012", 54, 3239),
        ),
        (
            Protocol::Baseline,
            ("115117421875da37", 138, 8278),
            ("b71f248bd7133670", 24, 1440),
        ),
        (
            Protocol::GeoBft,
            ("416a6fb0ea332aab", 144, 8638),
            ("5abdd526970781b6", 39, 2339),
        ),
        (
            Protocol::Iss,
            ("4d8475b08ec60ddc", 84, 5039),
            ("b71f248bd7133670", 24, 1440),
        ),
        (
            Protocol::Steward,
            ("6bf8eddbe5b07126", 75, 4499),
            ("ef38fe2df32f985c", 15, 900),
        ),
    ] {
        let name = protocol.name();
        assert_recorded(name, small_bank(protocol), SECOND, paced);
        let label = format!("{name}, 3 Mbps uplinks");
        assert_recorded(&label, small_bank(protocol).wan_mbps(3), SECOND, starved);
    }

    // Tampering, withholding and serial stamping are absorbed (parity
    // chunks, the accept tally): the observer's ledger is the fault-free one.
    let mass = || small_bank(Protocol::MassBft);
    let tamperers: Vec<NodeId> = (0..3).map(|g| NodeId::new(g, 3)).collect();
    assert_recorded(
        "TamperChunks, one sender per group",
        mass().byzantine(&tamperers, 200 * MILLISECOND),
        SECOND,
        ("e5ac62c40e162fbe", 138, 8278),
    );
    // The two primary attacks run past the view change that evicts the
    // primary and installs an acting representative.
    let primary = NodeId::new(1, 0);
    for (strategy, recorded) in [
        (Strategy::SilentPrimary, ("b4f5a7a6edda7b12", 327, 19612)),
        (
            Strategy::EquivocatingPrimary,
            ("c542b8dccda72f39", 359, 19612),
        ),
    ] {
        let spec = AdversarySpec::new(primary, strategy).from_us(300 * MILLISECOND);
        assert_recorded(
            &format!("{strategy:?}"),
            mass().adversary(spec),
            2_500 * MILLISECOND,
            recorded,
        );
    }
    let withholders = [NodeId::new(0, 2), NodeId::new(1, 0)];
    let withhold = withholders.iter().fold(mass(), |cfg, &n| {
        cfg.adversary(AdversarySpec::new(n, Strategy::WithholdChunks))
    });
    assert_recorded(
        "WithholdChunks",
        withhold,
        SECOND,
        ("e5ac62c40e162fbe", 138, 8278),
    );

    // Long enough for the survivors to win group 2's entry instance and
    // stamp stream: frozen clocks, the orphan feed, foreign re-proposals.
    assert_recorded(
        "group crash and takeover",
        mass().fault_at(500 * MILLISECOND, FaultEvent::CrashGroup(2)),
        4 * SECOND,
        ("e6bddfdd4a5ee180", 415, 24888),
    );

    let mut serial = mass();
    serial.params.overlap_vts = false;
    assert_recorded(
        "serial VTS assignment",
        serial,
        SECOND,
        ("e5ac62c40e162fbe", 138, 8278),
    );
}
