//! One rep of one workload: build the cluster, warm up, measure a window,
//! check correctness. The load is generated inside each group
//! representative by the program's own arrival accrual; the benchmark adds
//! no client threads or connections, and the seed reaches the program only
//! through `ClusterConfig::seed`.

use crate::api::{
    histogram, telemetry_set_enabled, ClusterConfig, FaultEvent, Ledger, Node, NodeId, Protocol,
    Report, SimCluster, TcpCluster, Time, MILLISECOND, SECOND,
};
use crate::counts::{Counters, SimCounts};
use crate::host;
use crate::spec::{fault_jitter, Driver, Spec, FAULT_JITTER, FAULT_SCHEDULE};
use crate::stats::{bucket_snapshot, LatencyWindow};
use std::time::{Duration, Instant};

/// The representative that crashes and later recovers in `sim_3x4_faults`.
const VICTIM: NodeId = NodeId { group: 1, node: 0 };
/// The two groups partitioned from each other in `sim_3x4_faults`.
const PARTITION: (u32, u32) = (0, 2);
/// Availability sampling period.
const SAMPLE_US: Time = 50 * MILLISECOND;
/// A recovered node has rejoined once it trails the observer by at most
/// this many executed entries.
const REJOIN_LAG_ENTRIES: u64 = 50;

/// Steady simulator windows are measured in this many slices, so that CPU
/// time has more chances at a stretch the rest of the host left alone.
const CPU_SLICES: u64 = 4;
/// A slice counts only if it used this much CPU: `/proc` reports 10 ms ticks.
const MIN_SLICE_CPU_S: f64 = 0.5;

/// What one rep measured.
pub struct Rep {
    /// Wall seconds from the rep's start (process start for the first) to
    /// window open: keys, topology, nodes, sockets, warm-up.
    pub setup_s: f64,
    /// Window length on the driver's clock (virtual for sim, wall for tcp).
    pub window_s: f64,
    /// Wall seconds the window took on the host.
    pub wall_window_s: f64,
    /// Transactions executed at the observer inside the window.
    pub committed: u64,
    /// Entries executed at the observer inside the window.
    pub entries: u64,
    /// `arrival_tps × groups × window`.
    pub offered: f64,
    /// Transactions that were to commit in the window, and those that did
    /// not. Simulator: `offered` and `offered − committed`, so load the pool
    /// shed and transactions Aria aborted both count, exactly per seed. TCP:
    /// what the executors ran and what they ran without committing, per
    /// node — the program counts no shed arrivals, and on a wall clock
    /// `offered − committed` is mostly the batches in flight at the window's
    /// two edges; shed load shows in `committed_txn_share` there.
    pub attempted: u64,
    pub failed: u64,
    pub wan_bytes: u64,
    /// Entry commit latency (batch creation → executed at the origin
    /// representative) of the entries that completed inside the window, µs.
    pub latency: LatencyWindow,
    /// Process CPU (user + system) between window open and close.
    pub cpu_s: f64,
    /// The cheapest stretch of the window, CPU µs per committed transaction:
    /// the least of the window's [`CPU_SLICES`] on the steady simulator
    /// workloads, the whole window otherwise.
    pub cpu_us_per_txn_floor: f64,
    pub unavailable_ms: f64,
    pub rejoin_ms: f64,
    pub ledger_head: String,
    pub ledger_height: u64,
    pub violations: Vec<String>,
    pub counts: Counters,
    pub sim: SimCounts,
    /// Mean over live representatives of `phase_breakdown()`:
    /// local consensus, global replication, ordering wait, execution, ms.
    pub phases: [f64; 4],
    /// Threads the driver held at window close, beyond those alive before
    /// the cluster was built.
    pub threads: u64,
}

fn config(spec: &Spec, seed: u64) -> ClusterConfig {
    ClusterConfig::nationwide(&vec![spec.size; spec.groups], Protocol::MassBft)
        .workload(spec.kind)
        .seed(seed)
        .arrival_tps(spec.tps_per_group)
        .max_batch(spec.max_batch)
        .exec_fallback(spec.exec_fallback)
}

fn node_ids(spec: &Spec) -> Vec<NodeId> {
    (0..spec.groups as u32)
        .flat_map(|g| (0..spec.size as u32).map(move |n| NodeId::new(g, n)))
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// What the correctness checks need from each live node.
struct NodeView {
    id: NodeId,
    ledger: Ledger,
    state_hash: u64,
    executed_entries: u64,
    phases: Option<[f64; 4]>,
}

fn view(id: NodeId, n: &Node) -> NodeView {
    NodeView {
        id,
        ledger: n.ledger().clone(),
        state_hash: n.state_hash(),
        executed_entries: n.executed_entries(),
        phases: n.phase_breakdown().map(|p| {
            [
                p.local_consensus_ms,
                p.global_replication_ms,
                p.ordering_ms,
                p.execution_ms,
            ]
        }),
    }
}

/// Every live node's hash chain verifies, every pair of ledgers agrees on
/// the common prefix (entry, digest and state fingerprint per block), and
/// nodes at equal height hold equal state.
fn check_ledgers(live: &[NodeView], violations: &mut Vec<String>) {
    let Some(longest) = live.iter().max_by_key(|v| v.ledger.height()) else {
        violations.push("no live node".into());
        return;
    };
    for v in live {
        if !v.ledger.verify_chain() {
            violations.push(format!("{}: ledger hash chain broken", v.id));
        }
        if !v.ledger.prefix_consistent(&longest.ledger) {
            violations.push(format!("{}: ledger diverges from {}", v.id, longest.id));
        }
        if v.ledger.height() == longest.ledger.height() && v.state_hash != longest.state_hash {
            violations.push(format!("{}: state hash differs at equal height", v.id));
        }
    }
}

fn mean_phases(live: &[NodeView]) -> [f64; 4] {
    let reps: Vec<[f64; 4]> = live.iter().filter_map(|v| v.phases).collect();
    let mut out = [0.0; 4];
    for p in &reps {
        for (o, v) in out.iter_mut().zip(p) {
            *o += v / reps.len() as f64;
        }
    }
    out
}

/// Runs one rep. `started` is when its set-up began.
pub fn run_rep(spec: &Spec, seed: u64, seconds: f64, traced: bool, started: Instant) -> Rep {
    let window_us = spec.window_us(seconds);
    let threads_before = host::threads();
    telemetry_set_enabled(traced);
    let rep = match spec.driver {
        Driver::Sim => sim_rep(spec, seed, window_us, started),
        Driver::Tcp => tcp_rep(spec, seed, window_us, started, threads_before),
    };
    telemetry_set_enabled(false);
    // The TCP cluster joins its reactors on drop; its reader and writer
    // threads exit on their own a moment later. Wait for them, so the next
    // rep starts on a quiet process.
    let dropped = Instant::now();
    while host::threads() > threads_before && dropped.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(10));
    }
    rep
}

/// Window bookkeeping shared by both drivers: counter, CPU, latency and
/// wall-clock snapshots taken at window open, and the observer's entry
/// watermark.
struct Open {
    counters: Counters,
    buckets: std::collections::BTreeMap<u64, u64>,
    cpu_s: f64,
    wall: Instant,
    setup_s: f64,
    entries: u64,
}

/// What the snapshots read when the window ended.
struct Stopped {
    cpu_s: f64,
    wall_window_s: f64,
    counts: Counters,
    latency: LatencyWindow,
}

impl Open {
    fn now(started: Instant, observer_entries: u64) -> Self {
        Open {
            setup_s: started.elapsed().as_secs_f64(),
            counters: Counters::read(),
            buckets: bucket_snapshot(&histogram("core.entry.commit_latency_us")),
            cpu_s: host::cpu_seconds(),
            wall: Instant::now(),
            entries: observer_entries,
        }
    }

    /// Differences every snapshot. Called the moment the window ends,
    /// before the cluster is asked for its report: on TCP that locks every
    /// node for the consistency check, which is not part of the measured
    /// work.
    fn stop(&self) -> Stopped {
        Stopped {
            cpu_s: host::cpu_seconds() - self.cpu_s,
            wall_window_s: self.wall.elapsed().as_secs_f64(),
            counts: Counters::read().since(&self.counters),
            latency: LatencyWindow::between(
                &self.buckets,
                &bucket_snapshot(&histogram("core.entry.commit_latency_us")),
            ),
        }
    }

    /// Runs the correctness checks over the live nodes and fills in
    /// everything both drivers measure the same way.
    fn close(
        &self,
        spec: &Spec,
        stopped: Stopped,
        report: &Report,
        live: &[NodeView],
        observer: NodeId,
    ) -> Rep {
        let mut violations = Vec::new();
        if !report.all_nodes_consistent {
            violations.push("execution logs are not prefix-consistent".into());
        }
        check_ledgers(live, &mut violations);
        if report.throughput.txns == 0 {
            violations.push("nothing committed in the window".into());
        }
        let obs = live
            .iter()
            .find(|v| v.id == observer)
            .expect("the observer is never crashed");
        let window_s = report.throughput.window_us as f64 / SECOND as f64;
        let offered = spec.tps_per_group * spec.groups as f64 * window_s;
        let attempted = (offered.round() as u64).max(1);
        Rep {
            setup_s: self.setup_s,
            window_s,
            wall_window_s: stopped.wall_window_s,
            committed: report.throughput.txns,
            entries: obs.executed_entries - self.entries,
            offered,
            attempted,
            failed: attempted.saturating_sub(report.throughput.txns),
            wan_bytes: report.wan_bytes,
            latency: stopped.latency,
            cpu_s: stopped.cpu_s,
            cpu_us_per_txn_floor: stopped.cpu_s * 1e6 / report.throughput.txns.max(1) as f64,
            unavailable_ms: 0.0,
            rejoin_ms: 0.0,
            ledger_head: hex(obs.ledger.head_hash().as_bytes()),
            ledger_height: obs.ledger.height(),
            violations,
            counts: stopped.counts,
            sim: SimCounts::default(),
            phases: mean_phases(live),
            threads: 0,
        }
    }
}

fn sim_rep(spec: &Spec, seed: u64, window_us: Time, started: Instant) -> Rep {
    let open_at = spec.warmup_us;
    let close_at = open_at + window_us;
    // Crash, recover, partition, heal: absolute virtual instants.
    let fault_at: Vec<Time> = (0..FAULT_SCHEDULE.len())
        .map(|i| {
            // The two faults are jittered; the two repairs stay on schedule.
            let jitter = if i % 2 == 0 {
                FAULT_JITTER * fault_jitter(seed, i as u64)
            } else {
                0.0
            };
            let fraction = FAULT_SCHEDULE[i] + jitter;
            open_at + (window_us as f64 * fraction) as Time
        })
        .collect();
    let (crash_at, recover_at) = (fault_at[0], fault_at[1]);
    let mut cfg = config(spec, seed);
    if spec.faults {
        cfg = cfg
            .fault_at(crash_at, FaultEvent::Crash(VICTIM))
            .fault_at(recover_at, FaultEvent::Recover(VICTIM))
            .fault_at(
                fault_at[2],
                FaultEvent::PartitionGroups(PARTITION.0, PARTITION.1),
            )
            .fault_at(
                fault_at[3],
                FaultEvent::HealGroups(PARTITION.0, PARTITION.1),
            );
    }
    let ids = node_ids(spec);
    let mut cluster = SimCluster::new(cfg);
    cluster.run_until(open_at);
    cluster.open_window();
    let observer = cluster.observer();
    let events_open = cluster.sim_mut().metrics().events_processed;
    let open = Open::now(started, cluster.node(observer).executed_entries());

    let (mut unavailable_ms, mut rejoin_ms) = (0.0, 0.0);
    let mut slice_floor = f64::INFINITY;
    if spec.faults {
        // A node is served in a sample when it executed at least a tenth
        // of what the whole cluster was offered in that sample.
        let served_txns =
            (0.1 * spec.tps_per_group * spec.groups as f64 * SAMPLE_US as f64 / 1e6) as u64;
        let watched: Vec<NodeId> = ids.iter().copied().filter(|&id| id != VICTIM).collect();
        let mut last: Vec<u64> = watched
            .iter()
            .map(|&id| cluster.node(id).executed_txns())
            .collect();
        let mut unserved_us = vec![0u64; watched.len()];
        let mut rejoined_at = None;
        let mut t = open_at;
        while t < close_at {
            let next = (t + SAMPLE_US).min(close_at);
            cluster.run_until(next);
            for (i, &id) in watched.iter().enumerate() {
                let now = cluster.node(id).executed_txns();
                if next > crash_at && now - last[i] < served_txns {
                    unserved_us[i] += next - t;
                }
                last[i] = now;
            }
            if next >= recover_at && rejoined_at.is_none() {
                let lead = cluster.node(observer).status().exec_watermark;
                let mine = cluster.node(VICTIM).status().exec_watermark;
                if mine + REJOIN_LAG_ENTRIES >= lead {
                    rejoined_at = Some(next);
                }
            }
            t = next;
        }
        unavailable_ms =
            unserved_us.iter().sum::<u64>() as f64 / watched.len() as f64 / MILLISECOND as f64;
        // Censored at the end of the run when the node never caught up.
        rejoin_ms = (rejoined_at.unwrap_or(close_at) - recover_at) as f64 / MILLISECOND as f64;
    } else {
        // The load is steady, so CPU per transaction is comparable from
        // slice to slice.
        let mut last = (open.cpu_s, cluster.node(observer).executed_txns());
        for i in 1..=CPU_SLICES {
            cluster.run_until(open_at + window_us * i / CPU_SLICES);
            let now = (host::cpu_seconds(), cluster.node(observer).executed_txns());
            if now.0 - last.0 >= MIN_SLICE_CPU_S && now.1 > last.1 {
                slice_floor = slice_floor.min((now.0 - last.0) * 1e6 / (now.1 - last.1) as f64);
            }
            last = now;
        }
    }

    let stopped = open.stop();
    let report = cluster.close_window();
    let mut live: Vec<NodeView> = Vec::new();
    for &id in &ids {
        if !cluster.sim_mut().is_crashed(id) {
            live.push(view(id, cluster.node(id)));
        }
    }
    let metrics = cluster.sim_mut().metrics();
    let whole = open.close(spec, stopped, &report, &live, observer);
    Rep {
        cpu_us_per_txn_floor: slice_floor.min(whole.cpu_us_per_txn_floor),
        unavailable_ms,
        rejoin_ms,
        sim: SimCounts {
            events: metrics.events_processed - events_open,
            wan_msgs: metrics.wan_messages,
            lan_bytes: report.lan_bytes,
            dropped_msgs: metrics.dropped_messages,
        },
        ..whole
    }
}

fn tcp_rep(spec: &Spec, seed: u64, window_us: Time, started: Instant, threads_before: u64) -> Rep {
    let mut cluster = TcpCluster::new(config(spec, seed));
    cluster.run_until(spec.warmup_us);
    cluster.open_window();
    let observer = cluster.observer();
    let open = Open::now(
        started,
        cluster.with_node(observer, |n| n.executed_entries()),
    );

    cluster.run_until(cluster.now() + window_us);

    let stopped = open.stop();
    let threads = host::threads().saturating_sub(threads_before);
    let report = cluster.close_window();
    let live: Vec<NodeView> = node_ids(spec)
        .into_iter()
        .map(|id| cluster.with_node(id, |n| view(id, n)))
        .collect();
    let rep = open.close(spec, stopped, &report, &live, observer);
    // Every node executes every entry, so the process-wide executor counters
    // hold each transaction once per node.
    let exec = &rep.counts.exec;
    let failed = ((exec.txns - exec.committed) as f64 / live.len() as f64).round() as u64;
    Rep {
        threads,
        attempted: rep.committed + failed,
        failed,
        ..rep
    }
}
