//! From committed entries to an executed ledger: the preset's ordering
//! rule (Algorithm 2 vector timestamps, rounds, or the single Raft log),
//! the queue of ordered entries waiting for their content, the Aria
//! pipeline, the hash-chained ledger, and what the harness measures —
//! executed counts, commit latency and the Fig. 11 phase breakdown.
//!
//! The ledger doubles as the log of what executed: the node retires
//! [`Sequencer::executed_since`] a height at the end of every handler.

use super::{span, store::EntryStore, FeedEvent, Msg, PhaseBreakdown, Protocol, ProtocolParams};
use crate::{
    entry::{decode_batch, EntryId, EntryRecord},
    exec::{EntryResult, ExecutionPipeline, PreparedEntry},
    ledger::Ledger,
    ordering::OrderingEngine,
    round::RoundOrdering,
    stats::LatencyStats,
};
use massbft_db::hash::FastMap;
use massbft_sim_net::{Ctx, NodeId, Time, MILLISECOND};
use massbft_telemetry as telemetry;
use massbft_workloads::Request;
use std::collections::{BTreeMap, VecDeque};
use std::sync::OnceLock;

/// Per-transaction execution CPU, virtual microseconds.
const EXEC_US: Time = 2;
/// Period of the pull-repair scan for stalled executions (Lemma V.1).
pub(super) const REPAIR_INTERVAL_US: Time = 500 * MILLISECOND;

/// Process-wide commit-latency histogram (`core.entry.commit_latency_us`):
/// submitted → executed at the originating group's representative. Windowed
/// reads (the scale bench) use `Histogram::window` + `percentile_since`.
fn commit_latency_histogram() -> &'static telemetry::registry::Histogram {
    static H: OnceLock<telemetry::registry::Histogram> = OnceLock::new();
    H.get_or_init(|| telemetry::registry::histogram("core.entry.commit_latency_us"))
}

/// Process-wide executed-transaction counter (`core.entry.executed_txns`),
/// summed across every node hosted in this process. The ops plane's tps
/// series: scrapers difference it between scrapes.
fn executed_txns_counter() -> &'static telemetry::registry::Counter {
    static C: OnceLock<telemetry::registry::Counter> = OnceLock::new();
    C.get_or_init(|| telemetry::registry::counter("core.entry.executed_txns"))
}

/// How ordering is decided.
enum Ordering {
    Vts(OrderingEngine),
    Round(RoundOrdering),
    /// Steward: Raft log order (entries queue as they commit).
    Log(VecDeque<EntryId>),
}

/// When one of this group's entries passed each stage (Fig. 11).
#[derive(Debug, Default)]
pub(super) struct Marks {
    /// Batched by this node.
    pub(super) created: Option<Time>,
    /// Certified by local PBFT.
    pub(super) certified: Option<Time>,
    /// Committed by the global layer.
    pub(super) committed: Option<Time>,
    ordered: Option<Time>,
}

/// Ordering, execution and measurement at one node.
pub(super) struct Sequencer {
    me: NodeId,
    ordering: Ordering,
    /// Entries in execution order, waiting for content at the front.
    exec_queue: VecDeque<EntryId>,
    pipeline: ExecutionPipeline,
    /// The entries the last repair tick found missing, with the number of
    /// ticks running each has been: one seen again is pulled.
    sighted: BTreeMap<EntryId, u32>,
    /// The most entries one repair tick looks for: every group's pipeline
    /// window.
    repair_bound: usize,
    /// Stage marks of own-group entries in flight, kept only on a
    /// representative (original or acting).
    marks: Option<FastMap<EntryId, Marks>>,
    // What the harness reads through the node's accessors.
    pub(super) executed_txns: u64,
    pub(super) executed_entries: u64,
    pub(super) latency: LatencyStats,
    /// Per-origin-group executed txns (Fig. 12 per-group throughput).
    pub(super) executed_by_group: Vec<u64>,
    /// The node's hash-chained ledger over executed entries (§VI: "a
    /// single, globally ordered, ledger").
    pub(super) ledger: Ledger,
    /// Phase-time accumulators over own executed entries (microseconds):
    /// local consensus, global replication, ordering wait, execution wait.
    phase_sums: [u64; 4],
    phase_count: u64,
}

impl Sequencer {
    pub(super) fn new(me: NodeId, params: &ProtocolParams) -> Self {
        let ng = params.ng();
        Sequencer {
            me,
            ordering: match params.protocol {
                Protocol::MassBft => Ordering::Vts(OrderingEngine::new(ng)),
                Protocol::Steward => Ordering::Log(VecDeque::new()),
                _ => Ordering::Round(RoundOrdering::new(ng)),
            },
            exec_queue: VecDeque::new(),
            pipeline: ExecutionPipeline::new(
                params.exec_workers,
                params.retry_aborts,
                params.exec_fallback,
            ),
            sighted: BTreeMap::new(),
            repair_bound: params.pipeline_window * ng,
            marks: None,
            executed_txns: 0,
            executed_entries: 0,
            latency: LatencyStats::new(),
            executed_by_group: vec![0; ng],
            ledger: Ledger::new(),
            phase_sums: [0; 4],
            phase_count: 0,
        }
    }

    /// This node batches from now on: keep stage marks of its group's
    /// entries.
    pub(super) fn keep_marks(&mut self) {
        self.marks.get_or_insert_with(FastMap::default);
    }

    /// The marks of own-group entry `id`; `None` on a node that keeps none.
    pub(super) fn marks(&mut self, id: EntryId) -> Option<&mut Marks> {
        Some(self.marks.as_mut()?.entry(id).or_default())
    }

    /// Entries ordered but not yet executed.
    pub(super) fn queued(&self) -> usize {
        self.exec_queue.len()
    }

    pub(super) fn state_hash(&self) -> u64 {
        self.pipeline.store().content_hash()
    }

    /// Mean stage times over this representative's own executed entries.
    pub(super) fn phase_breakdown(&self) -> Option<PhaseBreakdown> {
        if self.phase_count == 0 {
            return None;
        }
        let c = self.phase_count as f64 * 1000.0;
        Some(PhaseBreakdown {
            local_consensus_ms: self.phase_sums[0] as f64 / c,
            global_replication_ms: self.phase_sums[1] as f64 / c,
            ordering_ms: self.phase_sums[2] as f64 / c,
            execution_ms: self.phase_sums[3] as f64 / c,
        })
    }

    /// Entries executed since the ledger stood at `height`, in order.
    pub(super) fn executed_since(&self, height: u64) -> impl Iterator<Item = EntryId> + '_ {
        self.ledger.blocks()[height as usize..]
            .iter()
            .map(|b| b.entry)
    }

    // --- ordering -----------------------------------------------------------

    /// The entry is committed (global consensus, the accept tally, or for
    /// GeoBFT its mere arrival): tell the ordering rule, once.
    pub(super) fn on_committed(&mut self, store: &mut EntryStore, id: EntryId) {
        if !store.commit(id) {
            return;
        }
        match &mut self.ordering {
            Ordering::Vts(eng) => eng.on_entry_committed(id),
            Ordering::Round(_) => {} // fed when content is also present
            Ordering::Log(q) => q.push_back(id),
        }
        self.on_content(store, id);
    }

    /// Content or commit arrived: round ordering takes an entry that now
    /// has both.
    pub(super) fn on_content(&mut self, store: &mut EntryStore, id: EntryId) {
        if let Ordering::Round(r) = &mut self.ordering {
            if store.round_ready(id) {
                r.on_entry(id);
            }
        }
    }

    /// Applies a run of ordering events; [`Sequencer::advance`] acts on
    /// them.
    pub(super) fn ingest(&mut self, store: &mut EntryStore, events: Vec<FeedEvent>) {
        for ev in events {
            match ev {
                FeedEvent::Committed(id) => self.on_committed(store, id),
                FeedEvent::Stamp {
                    stamper,
                    target,
                    ts,
                } => {
                    if let Ordering::Vts(eng) = &mut self.ordering {
                        eng.on_timestamp(stamper, target, ts);
                    }
                }
            }
        }
    }

    /// Moves every entry whose order is decided onto the exec queue, then
    /// executes the queue's ready prefix.
    pub(super) fn advance(&mut self, ctx: &mut Ctx<Msg>, store: &mut EntryStore) {
        let (me, now) = (self.me, ctx.now());
        loop {
            let next = match &mut self.ordering {
                Ordering::Vts(eng) => eng.pop_ready(),
                Ordering::Round(r) => r.pop_ready(),
                Ordering::Log(q) => q.pop_front(),
            };
            let Some(id) = next else { break };
            if id.gid == me.group {
                if let Some(m) = self.marks(id).filter(|m| m.ordered.is_none()) {
                    m.ordered = Some(now);
                    span(me, now, telemetry::EventKind::Ordered, id, 0);
                }
            }
            self.exec_queue.push_back(id);
        }
        self.execute_ready_prefix(ctx, store);
    }

    // --- execution ----------------------------------------------------------

    /// Drains every execution-ready entry off the queue front in one
    /// pass (pop-and-take, no rescans) and hands the whole run to the
    /// pipeline in a single batched call. The drain stops at the first
    /// entry whose content hasn't arrived — order must be preserved.
    fn execute_ready_prefix(&mut self, ctx: &mut Ctx<Msg>, store: &mut EntryStore) {
        let mut prepared: Vec<PreparedEntry> = Vec::new();
        let mut contents: Vec<EntryRecord> = Vec::new();
        while let Some(&id) = self.exec_queue.front() {
            let Some(rec) = store.take_runnable(id) else {
                // Already-executed duplicates are dropped; missing content
                // stalls the queue.
                if store.is_executed(id) {
                    self.exec_queue.pop_front();
                    continue;
                }
                break;
            };
            self.exec_queue.pop_front();
            // The one decode of the batch: requests are parsed straight
            // out of the entry's buffer.
            let Some((decoded, requests)) = decode_batch(rec.bytes()) else {
                continue;
            };
            debug_assert_eq!(decoded, rec.id());
            let txns: Vec<Request> = requests
                .iter()
                .filter_map(|r| Request::decode(r).ok())
                .collect();
            prepared.push(PreparedEntry { id, txns });
            contents.push(rec);
        }
        if prepared.is_empty() {
            return;
        }
        let results = self.pipeline.execute_entries(prepared);
        for (result, rec) in results.into_iter().zip(contents) {
            self.record_executed(ctx, store, rec, result);
        }
    }

    /// Per-entry bookkeeping after the pipeline has run an entry's batch.
    fn record_executed(
        &mut self,
        ctx: &mut Ctx<Msg>,
        store: &mut EntryStore,
        rec: EntryRecord,
        result: EntryResult,
    ) {
        let (id, now) = (rec.id(), ctx.now());
        ctx.spend_cpu(result.executed as Time * EXEC_US);
        self.executed_txns += result.committed as u64;
        self.executed_entries += 1;
        executed_txns_counter().add(result.committed as u64);
        self.executed_by_group[id.gid as usize] += result.committed as u64;
        self.ledger
            .append(id, rec.digest(), result.state_fingerprint);
        span(
            self.me,
            now,
            telemetry::EventKind::Executed,
            id,
            result.committed as u64,
        );
        store.finish(rec);

        if id.gid != self.me.group {
            return;
        }
        let Some(m) = self.marks.as_mut().and_then(|marks| marks.remove(&id)) else {
            return;
        };
        let Some(created) = m.created else { return };
        let latency = now.saturating_sub(created);
        self.latency.record(latency);
        commit_latency_histogram().record(latency);
        if let Some(certified) = m.certified {
            let committed = m.committed.unwrap_or(certified);
            let ordered = m.ordered.unwrap_or(committed).max(committed);
            let phases = [
                certified.saturating_sub(created),
                committed.saturating_sub(certified),
                ordered.saturating_sub(committed),
                now.saturating_sub(ordered),
            ];
            for (acc, v) in self.phase_sums.iter_mut().zip(phases) {
                *acc += v;
            }
            self.phase_count += 1;
        }
    }

    // --- repair -------------------------------------------------------------

    /// Repair tick: the entries to pull from peers (Lemma V.1), each with
    /// the number of times it was pulled before. An entry is missing when
    /// it is ordered without content, or when one of the appends `held` at
    /// a representative waits on it; the queue's are looked at first, at
    /// most `repair_bound` in all. One missing at the previous tick too is
    /// pulled, and pulled again at every tick it still is.
    pub(super) fn repair_tick(
        &mut self,
        store: &EntryStore,
        held: Vec<EntryId>,
    ) -> Vec<(EntryId, u32)> {
        let queued = self.exec_queue.iter().copied();
        let missing = queued.chain(held).filter(|&id| !store.has(id));
        let mut sighted = BTreeMap::new();
        let mut wanted = Vec::new();
        for id in missing {
            if sighted.len() == self.repair_bound {
                break;
            }
            let ticks = self.sighted.get(&id).map_or(1, |n| n + 1);
            if sighted.insert(id, ticks).is_none() && ticks > 1 {
                wanted.push((id, ticks - 2));
            }
        }
        self.sighted = sighted;
        wanted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::encode_batch;
    use massbft_sim_net::Command;
    use massbft_workloads::{WorkloadGen, WorkloadKind};

    const ME: NodeId = NodeId { group: 0, node: 0 };

    fn sequencer(protocol: Protocol, groups: &[usize]) -> (Sequencer, EntryStore, Ctx<Msg>) {
        let params = ProtocolParams::new(protocol, groups);
        let sequencer = Sequencer::new(ME, &params);
        (
            sequencer,
            EntryStore::new(groups.len(), true),
            Ctx::new_driver(0, ME),
        )
    }

    /// An entry of `txns` YCSB transactions.
    fn record(id: EntryId, txns: usize) -> EntryRecord {
        let mut gen = WorkloadGen::new(WorkloadKind::YcsbA, id.seq);
        let requests: Vec<Vec<u8>> = (0..txns).map(|_| gen.next_request().encode()).collect();
        EntryRecord::hash(encode_batch(id, &requests).into()).expect("entry")
    }

    #[test]
    fn round_ordering_needs_commit_and_content_of_the_whole_round() {
        let (mut seq, mut store, mut ctx) = sequencer(Protocol::Baseline, &[4, 4]);
        let (a, b) = (EntryId::new(0, 1), EntryId::new(1, 1));
        // Committed, no content: not even queued.
        seq.ingest(
            &mut store,
            vec![FeedEvent::Committed(a), FeedEvent::Committed(b)],
        );
        seq.advance(&mut ctx, &mut store);
        assert_eq!((seq.queued(), seq.executed_entries), (0, 0));
        // Content without the other group's: the round is incomplete.
        store.hold(record(a, 3), None);
        seq.on_content(&mut store, a);
        seq.advance(&mut ctx, &mut store);
        assert_eq!((seq.queued(), seq.executed_entries), (0, 0));
        // Content first, commit second works the same way round.
        let mut late = sequencer(Protocol::Baseline, &[4, 4]);
        late.1.hold(record(a, 3), None);
        late.0.on_content(&mut late.1, a);
        late.0.on_committed(&mut late.1, a);
        assert!(
            late.1.is_committed(a) && !late.1.round_ready(a),
            "fed on commit"
        );
        // The whole round executes at once, in group order.
        store.hold(record(b, 2), None);
        seq.on_content(&mut store, b);
        seq.advance(&mut ctx, &mut store);
        assert_eq!(seq.executed_since(0).collect::<Vec<_>>(), [a, b]);
        assert_eq!(
            (seq.executed_txns, &seq.executed_by_group[..]),
            (5, &[3, 2][..])
        );
        // Execution CPU is charged per transaction run.
        let cpu: Vec<Time> = (ctx.take_commands().into_iter())
            .filter_map(|c| match c {
                Command::SpendCpu(t) => Some(t),
                _ => None,
            })
            .collect();
        assert_eq!(cpu, [3 * EXEC_US, 2 * EXEC_US]);
    }

    #[test]
    fn the_phase_marks_of_an_own_entry_sum_to_its_latency() {
        let (mut seq, mut store, mut ctx) = sequencer(Protocol::Steward, &[1]);
        let (own, foreign) = (EntryId::new(0, 1), EntryId::new(0, 2));
        assert!(
            seq.marks(own).is_none(),
            "only a representative keeps marks"
        );
        seq.keep_marks();
        let m = seq.marks(own).expect("kept");
        (m.created, m.certified, m.committed) = (Some(1_000), Some(1_250), Some(1_750));
        for id in [own, foreign] {
            store.hold(record(id, 1), None);
        }
        // Ordered at 3 000 while the content is there: executed at once.
        ctx.set_now(3_000);
        seq.ingest(&mut store, vec![FeedEvent::Committed(own)]);
        seq.advance(&mut ctx, &mut store);
        assert_eq!((seq.latency.count(), seq.latency.mean_us()), (1, 2_000.0));
        let p = seq.phase_breakdown().expect("one own entry");
        let phases = [
            p.local_consensus_ms,
            p.global_replication_ms,
            p.ordering_ms,
            p.execution_ms,
        ];
        assert_eq!(phases, [0.25, 0.5, 1.25, 0.0]);
        assert_eq!(phases.iter().sum::<f64>(), 2.0);
        // An entry this node did not batch has no creation mark: it
        // executes, and measures nothing.
        seq.ingest(&mut store, vec![FeedEvent::Committed(foreign)]);
        seq.advance(&mut ctx, &mut store);
        assert_eq!((seq.executed_entries, seq.latency.count()), (2, 1));
        assert!(seq.marks.as_ref().expect("kept").is_empty());
    }

    #[test]
    fn every_entry_missing_at_two_ticks_running_is_pulled_and_pulled_again() {
        let (mut seq, mut store, mut ctx) = sequencer(Protocol::Steward, &[4, 4]);
        let queued = [1, 2, 3].map(|s| EntryId::new(1, s));
        let held = EntryId::new(0, 9);
        assert!(seq.repair_tick(&store, vec![]).is_empty());
        let events = queued.iter().map(|&id| FeedEvent::Committed(id)).collect();
        seq.ingest(&mut store, events);
        seq.advance(&mut ctx, &mut store);
        store.hold(record(queued[1], 1), None);
        assert_eq!(seq.queued(), 3, "stalled on the first");
        // Nothing on the first sighting; every queued entry without content,
        // then the held append's blocker, on the second, and again after.
        assert!(
            seq.repair_tick(&store, vec![held]).is_empty(),
            "first sighting"
        );
        let pulled = [(queued[0], 0), (queued[2], 0), (held, 0)];
        assert_eq!(seq.repair_tick(&store, vec![held]), pulled);
        let again = pulled.map(|(id, asked)| (id, asked + 1));
        assert_eq!(
            seq.repair_tick(&store, vec![held]),
            again,
            "until it arrives"
        );
        // What arrived, or is no longer waited on, is dropped; what comes
        // back later starts over.
        store.hold(record(queued[0], 1), None);
        assert_eq!(seq.repair_tick(&store, vec![]), [(queued[2], 2)]);
        let pulled = seq.repair_tick(&store, vec![held]);
        assert_eq!(pulled, [(queued[2], 3)], "the blocker starts over");
        // At most every group's pipeline window at once.
        let bound = seq.repair_bound;
        let many: Vec<EntryId> = (1..=2 * bound as u64).map(|s| EntryId::new(0, s)).collect();
        seq.repair_tick(&store, many.clone());
        assert_eq!(seq.repair_tick(&store, many).len(), bound);
    }
}
