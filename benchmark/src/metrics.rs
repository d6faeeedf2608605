//! The metric catalogue (names are fixed: later issues cite them) and how
//! each value is computed from reps, counter deltas and probe costs.

use crate::probes::Costs;
use crate::run::Rep;
use crate::spec::Spec;
use crate::stats::median;

#[derive(Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees. Printed by `--trace 0`.
pub const END_TO_END: [MetricDef; 8] = [
    def("committed_tps", "txn/s", "higher"),
    def("commit_p50_ms", "ms", "lower"),
    def("commit_p95_ms", "ms", "lower"),
    def("wan_bytes_per_txn", "B", "lower"),
    def("cpu_us_per_txn", "us", "lower"),
    def("committed_txn_share", "ratio", "higher"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MB", "lower"),
];

/// Single layers, from probes (the benchmark calling the layer's public
/// functions) and counts (deltas of the program's public counters over the
/// traced rep, per committed transaction). Printed by `--trace 1`.
pub const PER_LAYER: [MetricDef; 74] = [
    def("unavailable_ms", "ms", "lower"),
    def("rejoin_ms", "ms", "lower"),
    def("workloads.gen_ns_per_txn", "ns", "lower"),
    def("core.entry.batch_codec_ns_per_txn", "ns", "lower"),
    def("core.entry.digest_ns_per_kb", "ns/KB", "lower"),
    def("codec.encode_ns_per_kb", "ns/KB", "lower"),
    def("codec.decode_ns_per_kb", "ns/KB", "lower"),
    def("codec.decode_cache_hit_ratio", "ratio", "higher"),
    def("crypto.sha256_ns_per_kb", "ns/KB", "lower"),
    def("crypto.merkle_build_ns_per_entry", "ns", "lower"),
    def("crypto.merkle_verify_ns_per_chunk", "ns", "lower"),
    def("crypto.sign_ns", "ns", "lower"),
    def("crypto.cert_validate_ns", "ns", "lower"),
    def("core.plan.generate_ns", "ns", "lower"),
    def("core.replication.send_ns_per_entry", "ns", "lower"),
    def("core.replication.rebuild_ns_per_entry", "ns", "lower"),
    def("core.replication.chunks_per_txn", "count", "lower"),
    def("core.replication.chunk_reject_ratio", "ratio", "lower"),
    def("core.replication.cert_memo_hit_ratio", "ratio", "higher"),
    def("core.replication.wan_amplification", "ratio", "lower"),
    def("consensus.pbft.commit_ns_per_instance", "ns", "lower"),
    def("consensus.pbft.msgs_per_instance", "count", "lower"),
    def("consensus.pbft.view_change_ns", "ns", "lower"),
    def("consensus.pbft.view_changes", "count", "lower"),
    def("consensus.pbft.instances_per_txn", "count", "lower"),
    def("consensus.raft.commit_ns_per_entry", "ns", "lower"),
    def("consensus.raft.msgs_per_entry", "count", "lower"),
    def("consensus.raft.elections", "count", "lower"),
    def("consensus.raft.proposals_per_txn", "count", "lower"),
    def("core.ordering.order_ns_per_entry", "ns", "lower"),
    def("core.ordering.wait_ms", "ms", "lower"),
    def("core.protocol.local_consensus_ms", "ms", "lower"),
    def("core.protocol.global_replication_ms", "ms", "lower"),
    def("core.protocol.execution_ms", "ms", "lower"),
    def("core.exec.execute_ns_per_txn", "ns", "lower"),
    def("db.aria.execute_ns_per_txn", "ns", "lower"),
    def("db.aria.reserve_ns_per_txn", "ns", "lower"),
    def("db.aria.commit_ns_per_txn", "ns", "lower"),
    def("db.aria.fallback_ns_per_txn", "ns", "lower"),
    def("db.aria.conflict_abort_ratio", "ratio", "lower"),
    def("db.aria.worker_utilization", "ratio", "higher"),
    def("db.store.put_ns", "ns", "lower"),
    def("db.store.get_ns", "ns", "lower"),
    def("core.ledger.append_ns_per_block", "ns", "lower"),
    def("sim-net.events_per_txn", "count", "lower"),
    def("sim-net.wan_msgs_per_txn", "count", "lower"),
    def("sim-net.lan_bytes_per_txn", "B", "lower"),
    def("sim-net.dropped_msgs", "count", "lower"),
    def("sim-net.dispatch_ns_per_event", "ns", "lower"),
    def("runtime.frame.encode_ns_per_kb", "ns/KB", "lower"),
    def("runtime.frame.decode_ns_per_kb", "ns/KB", "lower"),
    def("runtime.wheel.timer_ns", "ns", "lower"),
    def("runtime.net.tcp_bytes_per_txn", "B", "lower"),
    def("runtime.net.syscalls_per_txn", "count", "lower"),
    def("runtime.net.frames_per_txn", "count", "lower"),
    def("runtime.net.coalesce_ratio", "ratio", "higher"),
    def("runtime.threads", "count", "lower"),
    def("telemetry.emit_ns", "ns", "lower"),
    def("telemetry.ring_dropped", "count", "lower"),
    def("telemetry.overhead_share", "ratio", "lower"),
    def("budget.attributed_share", "ratio", "higher"),
    def("budget.workloads_share", "ratio", "lower"),
    def("budget.core.entry_share", "ratio", "lower"),
    def("budget.codec_share", "ratio", "lower"),
    def("budget.crypto_share", "ratio", "lower"),
    def("budget.core.plan_share", "ratio", "lower"),
    def("budget.core.replication_share", "ratio", "lower"),
    def("budget.consensus.pbft_share", "ratio", "lower"),
    def("budget.consensus.raft_share", "ratio", "lower"),
    def("budget.core.ordering_share", "ratio", "lower"),
    def("budget.core.exec_db_share", "ratio", "lower"),
    def("budget.core.ledger_share", "ratio", "lower"),
    def("budget.sim-net_share", "ratio", "lower"),
    def("budget.runtime_share", "ratio", "lower"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn med(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Process CPU per transaction committed at the observer: the whole
/// cluster's host compute per committed transaction.
pub fn cpu_us_per_txn(rep: &Rep) -> f64 {
    ratio(rep.cpu_s * 1e6, rep.committed as f64)
}

/// End-to-end values, in [`END_TO_END`] order: medians over the untraced
/// reps, so one disturbed rep does not set the result. CPU time is the
/// exception: whatever else the host is doing only ever adds to it (60 reps
/// of one seed ranged from 2.86 s to 4.43 s with the median at 3.10 s), so
/// the least disturbed stretch of the least disturbed rep, the minimum, is
/// the steadier estimate.
pub fn end_to_end(reps: &[Rep], peak_rss_mb: f64) -> Vec<f64> {
    vec![
        med(reps, |r| ratio(r.committed as f64, r.window_s)),
        med(reps, |r| r.latency.percentile(50.0) / 1e3),
        med(reps, |r| r.latency.percentile(95.0) / 1e3),
        med(reps, |r| ratio(r.wan_bytes as f64, r.committed as f64)),
        reps.iter()
            .map(|r| r.cpu_us_per_txn_floor)
            .fold(f64::INFINITY, f64::min),
        med(reps, |r| ratio(r.committed as f64, r.offered)),
        med(reps, |r| r.setup_s),
        peak_rss_mb,
    ]
}

/// What the traced rep contributes beyond its counters.
pub struct TraceFacts {
    /// Events the program's telemetry recorded during the traced rep.
    pub telemetry_events: u64,
    /// Of those, lost to ring wrap-around.
    pub ring_dropped: u64,
}

/// The layers of the budget, in the order `per_layer` computes them; each
/// is reported as `budget.<layer>_share`.
const BUDGET_LAYERS: [&str; 13] = [
    "budget.workloads_share",
    "budget.core.entry_share",
    "budget.codec_share",
    "budget.crypto_share",
    "budget.core.plan_share",
    "budget.core.replication_share",
    "budget.consensus.pbft_share",
    "budget.consensus.raft_share",
    "budget.core.ordering_share",
    "budget.core.exec_db_share",
    "budget.core.ledger_share",
    "budget.sim-net_share",
    "budget.runtime_share",
];

/// Per-layer values, in [`PER_LAYER`] order. The `untraced` reps ran the
/// same seed right before and right after `traced`; counts come from
/// `traced`, probe costs from `costs`, and the budget multiplies one by the
/// other. A metric not computed here is the probe cost of the same name.
pub fn per_layer(
    spec: &Spec,
    untraced: [&Rep; 2],
    traced: &Rep,
    facts: &TraceFacts,
    costs: &Costs,
) -> Vec<f64> {
    let c = |name: &str| traced.counts.get(name);
    let k = |name: &str| costs.get(name);
    let exec = &traced.counts.exec;
    let txns = traced.committed as f64;
    let exec_txns = exec.txns as f64;
    let batches = exec.batches as f64;
    let rebuilds = c("core.replication.rebuilds");
    let accepted = c("core.replication.chunks_accepted");
    let deliveries = accepted + rebuilds + c("core.replication.chunk_rejects");
    let memo_hits = c("core.replication.cert_memo_hits");
    let proposals = c("consensus.pbft.proposals");
    // One count per replica that committed an instance locally.
    let node_commits = c("consensus.pbft.committed");
    let (n, ng) = (spec.size as f64, spec.groups as f64);
    let payload_bytes = traced.entries as f64 * k("entry_bytes");
    let tcp_bytes = c("net.tcp_bytes_in") + c("net.tcp_bytes_out");
    let cache_hits = c("codec.decode_cache_hits");

    // The budget: probe cost × how often the traced rep did that
    // operation, cluster-wide, in nanoseconds per layer, in
    // [`BUDGET_LAYERS`] order.
    let rebuild_self = (k("core.replication.rebuild_ns_per_entry")
        - k("codec_decode_ns")
        - k("plan_n_data") * k("crypto.merkle_verify_ns_per_chunk")
        - k("crypto.cert_validate_ns")
        - k("digest_ns"))
    .max(0.0);
    let budget_ns = [
        proposals * k("txns_per_entry") * k("workloads.gen_ns_per_txn"),
        proposals * k("batch_encode_ns")
            + batches * k("batch_decode_ns")
            + (batches + rebuilds) * k("digest_ns"),
        node_commits * k("codec_encode_ns") + rebuilds * k("codec_decode_ns"),
        node_commits * k("crypto.merkle_build_ns_per_entry")
            + (accepted + rebuilds) * k("crypto.merkle_verify_ns_per_chunk")
            + (rebuilds - memo_hits) * k("crypto.cert_validate_ns"),
        node_commits * (ng - 1.0) * k("core.plan.generate_ns"),
        node_commits * k("send_self_ns") + rebuilds * rebuild_self,
        node_commits / n * k("consensus.pbft.commit_ns_per_instance")
            + c("consensus.pbft.view_changes") / n * k("consensus.pbft.view_change_ns"),
        c("consensus.raft.committed_entries") * k("consensus.raft.commit_ns_per_entry"),
        c("core.ordering.entries_ordered") * k("core.ordering.order_ns_per_entry"),
        exec_txns * k("core.exec.execute_ns_per_txn"),
        batches * k("core.ledger.append_ns_per_block"),
        traced.sim.events as f64 * k("sim-net.dispatch_ns_per_event"),
        c("net.tcp_bytes_out") / 1024.0 * k("runtime.frame.encode_ns_per_kb")
            + c("net.tcp_bytes_in") / 1024.0 * k("runtime.frame.decode_ns_per_kb"),
    ];
    let telemetry_ns = facts.telemetry_events as f64 * k("telemetry.emit_ns");
    let cpu_ns = traced.cpu_s * 1e9;
    let untraced_cpu = (cpu_us_per_txn(untraced[0]) + cpu_us_per_txn(untraced[1])) / 2.0;

    let mut computed: Vec<(&str, f64)> = vec![
        ("unavailable_ms", untraced[0].unavailable_ms),
        ("rejoin_ms", untraced[0].rejoin_ms),
        (
            "codec.decode_cache_hit_ratio",
            ratio(cache_hits, cache_hits + c("codec.decode_cache_misses")),
        ),
        ("core.replication.chunks_per_txn", ratio(deliveries, txns)),
        (
            "core.replication.chunk_reject_ratio",
            ratio(c("core.replication.chunk_rejects"), deliveries),
        ),
        (
            "core.replication.cert_memo_hit_ratio",
            ratio(memo_hits, rebuilds),
        ),
        (
            "core.replication.wan_amplification",
            ratio(traced.wan_bytes as f64, payload_bytes * (ng - 1.0)),
        ),
        (
            "consensus.pbft.view_changes",
            c("consensus.pbft.view_changes"),
        ),
        ("consensus.pbft.instances_per_txn", ratio(proposals, txns)),
        ("consensus.raft.elections", c("consensus.raft.elections")),
        (
            "consensus.raft.proposals_per_txn",
            ratio(c("consensus.raft.proposals"), txns),
        ),
        ("core.protocol.local_consensus_ms", traced.phases[0]),
        ("core.protocol.global_replication_ms", traced.phases[1]),
        ("core.ordering.wait_ms", traced.phases[2]),
        ("core.protocol.execution_ms", traced.phases[3]),
        (
            "db.aria.execute_ns_per_txn",
            ratio(exec.execute_ns as f64, exec_txns),
        ),
        (
            "db.aria.reserve_ns_per_txn",
            ratio(exec.reserve_ns as f64, exec_txns),
        ),
        (
            "db.aria.commit_ns_per_txn",
            ratio(exec.commit_ns as f64, exec_txns),
        ),
        (
            "db.aria.fallback_ns_per_txn",
            ratio(exec.fallback_ns as f64, exec_txns),
        ),
        ("db.aria.conflict_abort_ratio", exec.abort_rate()),
        ("db.aria.worker_utilization", exec.worker_utilization()),
        (
            "sim-net.events_per_txn",
            ratio(traced.sim.events as f64, txns),
        ),
        (
            "sim-net.wan_msgs_per_txn",
            ratio(traced.sim.wan_msgs as f64, txns),
        ),
        (
            "sim-net.lan_bytes_per_txn",
            ratio(traced.sim.lan_bytes as f64, txns),
        ),
        ("sim-net.dropped_msgs", traced.sim.dropped_msgs as f64),
        ("runtime.net.tcp_bytes_per_txn", ratio(tcp_bytes, txns)),
        (
            "runtime.net.syscalls_per_txn",
            ratio(c("net.syscalls_read") + c("net.syscalls_write"), txns),
        ),
        (
            "runtime.net.frames_per_txn",
            ratio(c("net.frames_out"), txns),
        ),
        (
            "runtime.net.coalesce_ratio",
            ratio(c("net.coalesced_writes"), c("net.frames_out")),
        ),
        ("runtime.threads", traced.threads as f64),
        ("telemetry.ring_dropped", facts.ring_dropped as f64),
        (
            "telemetry.overhead_share",
            ratio(cpu_us_per_txn(traced), untraced_cpu) - 1.0,
        ),
        (
            "budget.attributed_share",
            ratio(budget_ns.iter().sum::<f64>() + telemetry_ns, cpu_ns),
        ),
    ];
    computed.extend(
        BUDGET_LAYERS
            .iter()
            .zip(budget_ns)
            .map(|(name, ns)| (*name, ratio(ns, cpu_ns))),
    );
    for (name, _) in &computed {
        assert!(
            PER_LAYER.iter().any(|d| d.name == *name),
            "{name} is not in the catalogue"
        );
    }
    PER_LAYER
        .iter()
        .map(|d| {
            computed
                .iter()
                .find(|(name, _)| *name == d.name)
                .map(|&(_, v)| v)
                .or_else(|| costs.probed(d.name))
                .unwrap_or_else(|| panic!("no value for {}", d.name))
        })
        .collect()
}
