//! Fault-tolerance integration tests: the §VI-E scenarios plus cases the
//! paper argues but does not plot — partitions healing, simultaneous
//! Byzantine + crash faults, recovery of a crashed group.

use massbft::core::adversary::FaultEvent;
use massbft::core::cluster::{Cluster, ClusterConfig};
use massbft::core::entry::entry_digest;
use massbft::core::protocol::{Msg, Protocol};
use massbft::sim_net::{Actor, Command, Ctx, NodeId, SECOND};
use massbft::workloads::WorkloadKind;

fn small(protocol: Protocol) -> ClusterConfig {
    ClusterConfig::nationwide(&[4, 4, 4], protocol)
        .workload(WorkloadKind::YcsbA)
        .seed(13)
        .arrival_tps(3000.0)
        .max_batch(60)
}

#[test]
fn byzantine_senders_cannot_corrupt_state() {
    // One Byzantine node per group (f = 1 for n = 4) tampering from the
    // start: throughput survives, consistency holds, and the tampered
    // batches never execute (state equals an honest replica's).
    let byz: Vec<NodeId> = (0..3).map(|g| NodeId::new(g, 3)).collect();
    let mut faulty = Cluster::new(small(Protocol::MassBft).byzantine(&byz, 0));
    let r = faulty.run_secs(3);
    assert!(
        r.throughput.tps() > 500.0,
        "tampering throttled the cluster"
    );
    assert!(r.all_nodes_consistent);
}

#[test]
fn group_crash_throughput_dips_then_recovers() {
    let mut c = Cluster::new(small(Protocol::MassBft));
    c.run_until(3 * SECOND);
    let obs = c.observer();
    let before = c.node(obs).executed_txns();
    c.crash_group(2);
    // Takeover window: the Raft election timeout plus stagger.
    c.run_until(6 * SECOND);
    let mid = c.node(obs).executed_txns();
    c.run_until(10 * SECOND);
    let after = c.node(obs).executed_txns();
    assert!(mid > before, "no commits during takeover window");
    // Post-recovery rate: two surviving groups keep proposing.
    let recovered_rate = (after - mid) as f64 / 4.0;
    assert!(
        recovered_rate > 500.0,
        "post-crash rate too low: {recovered_rate:.0} tps"
    );
    assert!(c.check_consistency());
}

#[test]
fn crashed_group_recovery_restores_proposals() {
    let mut c = Cluster::new(small(Protocol::MassBft));
    c.run_until(2 * SECOND);
    c.crash_group(1);
    c.run_until(5 * SECOND);
    // Recover every node of group 1; its Raft instance leadership can
    // transfer back and its clients resume.
    for i in 0..4u32 {
        c.apply_fault(FaultEvent::Recover(NodeId::new(1, i)));
    }
    let obs = c.observer();
    let at_recovery = c.node(obs).executed_txns();
    c.run_until(10 * SECOND);
    let after = c.node(obs).executed_txns();
    assert!(after > at_recovery, "no progress after recovery");
    assert!(c.check_consistency());
}

#[test]
fn partition_heals_without_divergence() {
    let mut c = Cluster::new(small(Protocol::MassBft));
    c.run_until(2 * SECOND);
    // Sever groups 0–2 and 1–2: group 2 is isolated (its WAN is gone),
    // but 0–1 still form a Raft majority.
    c.apply_fault(FaultEvent::PartitionGroups(0, 2));
    c.apply_fault(FaultEvent::PartitionGroups(1, 2));
    c.run_until(5 * SECOND);
    let obs = c.observer();
    let during = c.node(obs).executed_txns();
    assert!(during > 0, "majority side must keep committing");
    c.apply_fault(FaultEvent::HealGroups(0, 2));
    c.apply_fault(FaultEvent::HealGroups(1, 2));
    c.run_until(9 * SECOND);
    let after = c.node(obs).executed_txns();
    assert!(after > during);
    assert!(c.check_consistency(), "healing must not fork history");
}

#[test]
fn baseline_round_ordering_stalls_on_group_crash() {
    // The foil: round-based ordering cannot outlive a dead group — every
    // round needs one entry from each group (the paper's motivation for
    // asynchronous ordering, §II-A / Fig. 2).
    let mut c = Cluster::new(small(Protocol::Baseline));
    c.run_until(3 * SECOND);
    let obs = c.observer();
    c.crash_group(2);
    c.run_until(5 * SECOND);
    let at5 = c.node(obs).executed_txns();
    c.run_until(9 * SECOND);
    let at9 = c.node(obs).executed_txns();
    // A short drain after the crash is fine; sustained progress is not
    // possible for Baseline, while MassBFT (test above) keeps going.
    assert!(
        at9 - at5 < 1000,
        "Baseline should stall after a group crash: {} extra txns",
        at9 - at5
    );
}

#[test]
fn single_node_crashes_within_f_are_transparent() {
    let mut c = Cluster::new(small(Protocol::MassBft));
    c.run_until(2 * SECOND);
    // Crash one follower per group (f = 1 for n = 4): PBFT quorums (3 of
    // 4) and chunk parity both absorb it.
    for g in 0..3u32 {
        c.apply_fault(FaultEvent::Crash(NodeId::new(g, 2)));
    }
    let obs = c.observer();
    let before = c.node(obs).executed_txns();
    c.run_until(6 * SECOND);
    let after = c.node(obs).executed_txns();
    assert!(
        (after - before) as f64 / 4.0 > 500.0,
        "follower crashes within f must not halt progress"
    );
    assert!(c.check_consistency());
}

#[test]
fn byzantine_plus_crash_combined() {
    // §VI-E runs both faults in one experiment; so do we.
    let byz: Vec<NodeId> = (0..3).map(|g| NodeId::new(g, 3)).collect();
    let mut c = Cluster::new(small(Protocol::MassBft).byzantine(&byz, SECOND));
    c.run_until(3 * SECOND);
    c.crash_group(2);
    c.run_until(8 * SECOND);
    let obs = c.observer();
    assert!(c.node(obs).executed_txns() > 0);
    assert!(c.check_consistency());
    // And the cluster still commits at the end of the run.
    let before = c.node(obs).executed_txns();
    c.run_until(11 * SECOND);
    assert!(c.node(obs).executed_txns() > before);
}

#[test]
fn crashed_primary_group_resumes_via_view_change() {
    // Crash group 2's PBFT primary (which is also its acting Raft
    // representative). The surviving backups must detect the stall,
    // run a view change, and the new primary must take over as acting
    // representative so group 2 resumes *new* proposals — not merely
    // drain entries that were in flight at crash time.
    use massbft::core::adversary::FaultEvent;

    let mut c = Cluster::new(
        small(Protocol::MassBft).fault_at(2 * SECOND, FaultEvent::Crash(NodeId::new(2, 0))),
    );
    c.run_until(8 * SECOND);
    let obs = c.observer();
    let mid = c.node(obs).executed_by_group()[2];
    c.run_until(14 * SECOND);
    let end = c.node(obs).executed_by_group()[2];

    // A surviving backup moved past view 0.
    assert!(
        c.node(NodeId::new(2, 1)).pbft_view() > 0,
        "view change never happened in group 2"
    );
    // Group-2 transactions keep executing well after any pre-crash
    // in-flight entries have drained (the pipeline window is 32 entries,
    // gone within a couple of seconds of the crash).
    assert!(
        end - mid > 500,
        "group 2 stopped proposing after its primary crashed: {mid} -> {end}"
    );
    assert!(c.check_consistency());
}

#[test]
fn equivocating_primary_cannot_fork_the_ledger() {
    // Group 1's primary sends conflicting pre-prepares to disjoint
    // halves of the group. Neither branch can reach a 2f+1 quorum, so
    // the group stalls until the view change evicts the equivocator and
    // the new primary re-proposes exactly one branch. Safety: no two
    // replicas ever commit conflicting entries.
    use massbft::core::adversary::{AdversarySpec, Strategy};

    let mut c = Cluster::new(small(Protocol::MassBft).adversary(
        AdversarySpec::new(NodeId::new(1, 0), Strategy::EquivocatingPrimary).from_us(SECOND),
    ));
    c.run_until(8 * SECOND);
    let obs = c.observer();
    let mid = c.node(obs).executed_by_group()[1];
    c.run_until(14 * SECOND);
    let end = c.node(obs).executed_by_group()[1];

    // Liveness: the view change restored group-1 progress.
    assert!(
        c.node(NodeId::new(1, 1)).pbft_view() > 0,
        "equivocation never triggered a view change"
    );
    assert!(
        end - mid > 500,
        "group 1 did not recover from the equivocating primary: {mid} -> {end}"
    );
    // Safety: group-1 ledgers agree pairwise (one is a prefix of the
    // other), so no conflicting entries were committed anywhere.
    for i in 0..4u32 {
        for j in (i + 1)..4u32 {
            let a = c.node(NodeId::new(1, i)).ledger();
            let b = c.node(NodeId::new(1, j)).ledger();
            assert!(
                a.prefix_consistent(b),
                "ledgers of (1,{i}) and (1,{j}) diverged"
            );
        }
    }
    assert!(c.check_consistency());
}

/// ROADMAP item 10: every per-entry structure has an owner and a death. A
/// node's record of an entry goes when the entry executes, so after a
/// group crash and the takeover of its instances the survivors hold
/// records for what is in flight — the pipeline windows — and not for what
/// has executed, whether the run is 5 s long or 15 s.
#[test]
fn per_entry_state_is_flat_in_run_length() {
    let cfg = small(Protocol::MassBft).workload(WorkloadKind::SmallBank);
    let in_flight = 3 * cfg.params.pipeline_window;
    let mut c = Cluster::new(cfg);
    c.run_until(SECOND / 2);
    c.crash_group(2);
    let survivors: Vec<NodeId> = (0..2)
        .flat_map(|g| (0..4).map(move |i| NodeId::new(g, i)))
        .collect();
    let records_at = |c: &mut Cluster, secs: u64| -> Vec<usize> {
        c.run_until(secs * SECOND);
        let nodes = survivors.iter().map(|&id| c.node(id));
        nodes.map(|n| n.entry_records()).collect()
    };
    let short = records_at(&mut c, 5);
    let executed_short = c.node(c.observer()).executed_entries();
    let long = records_at(&mut c, 15);
    let executed = c.node(c.observer()).executed_entries();
    assert!(
        executed > 2 * executed_short && executed > 10 * in_flight as u64,
        "the survivors stopped executing: {executed_short} then {executed} entries"
    );
    for (id, (short, long)) in survivors.iter().zip(short.iter().zip(&long)) {
        assert!(
            *long <= in_flight && *short <= in_flight,
            "{id:?} keeps {short} records at 5 s and {long} at 15 s with {executed} entries \
             executed: more than the {in_flight} three pipeline windows hold"
        );
    }
    assert!(c.check_consistency());
}

/// Executed content stays where repair is served (Lemma V.1's pull asks
/// only representatives): after 3 s no other node keeps an executed
/// entry's bytes, every representative does, and one still answers a pull
/// for an entry it executed.
#[test]
fn only_representatives_keep_executed_content_and_they_serve_it() {
    let mut c = Cluster::new(small(Protocol::MassBft));
    c.run_until(3 * SECOND);
    for id in (0..3).flat_map(|g| (0..4).map(move |i| NodeId::new(g, i))) {
        let kept = c.node(id).status().archive_bytes;
        if id.node == 0 {
            assert!(kept > 0, "representative {id:?} keeps no executed content");
        } else {
            assert_eq!(kept, 0, "{id:?} serves no repair but keeps content");
        }
    }
    let (rep, asker) = (NodeId::new(1, 0), NodeId::new(2, 3));
    let block = c.node(rep).ledger().block(1).expect("executed").clone();
    let now = c.now();
    let mut ctx = Ctx::new_driver(now, rep);
    let request = Msg::EntryRequest { id: block.entry };
    c.sim_mut()
        .actor_mut(rep)
        .on_message(&mut ctx, asker, request);
    match &ctx.take_commands()[..] {
        [Command::Send {
            dst,
            msg: Msg::Entry { id, bytes, .. },
        }] => {
            assert_eq!((*dst, *id), (asker, block.entry));
            assert_eq!(entry_digest(bytes), block.entry_digest);
        }
        other => panic!("no single reply to the pull: {other:?}"),
    }
}

/// The benchmark's fault shape (`sim_3x4_faults`) cut short: 3×4
/// SmallBank, representative (1,0) crashes and recovers, then groups 0 and
/// 2 are partitioned and healed. What the faults cost this node or that —
/// appends from entries committed while (1,0) was down, chunks lost on the
/// severed link — is pulled in (Lemma V.1): within 1.5 s of the heal every
/// live node executes again and stands within a few entries of the
/// observer. The recovered representative is left out: it does not rejoin
/// yet, its timers having died with the crash.
#[test]
fn the_cluster_catches_up_within_a_second_and_a_half_of_a_heal() {
    let victim = NodeId::new(1, 0);
    let heal = 5 * SECOND;
    let cfg = small(Protocol::MassBft)
        .workload(WorkloadKind::SmallBank)
        .fault_at(SECOND, FaultEvent::Crash(victim))
        .fault_at(3 * SECOND, FaultEvent::Recover(victim))
        .fault_at(4 * SECOND, FaultEvent::PartitionGroups(0, 2))
        .fault_at(heal, FaultEvent::HealGroups(0, 2));
    let mut c = Cluster::new(cfg);
    let live: Vec<NodeId> = (0..3)
        .flat_map(|g| (0..4).map(move |i| NodeId::new(g, i)))
        .filter(|&id| id != victim)
        .collect();
    c.run_until(heal);
    let at_heal: Vec<u64> = live
        .iter()
        .map(|&id| c.node(id).executed_entries())
        .collect();
    c.run_until(heal + 3 * SECOND / 2);
    let observer = c.node(c.observer()).executed_entries();
    for (&id, &before) in live.iter().zip(&at_heal) {
        let now = c.node(id).executed_entries();
        assert!(now > before, "{id:?} executed nothing since the heal");
        assert!(
            now.abs_diff(observer) <= 8,
            "{id:?} executed {now} entries, the observer {observer}"
        );
    }
    assert!(c.check_consistency());
}
