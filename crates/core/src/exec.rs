//! Batched ordering→execution handoff.
//!
//! [`ExecutionPipeline`] sits between the protocol layer's globally
//! ordered entry stream and the Aria executor. Per tick the protocol
//! drains *every* execution-ready entry (in `(vts, seq, gid)` order) and
//! hands the whole run to [`ExecutionPipeline::execute_entries`] in one
//! call, instead of crossing the ordering/execution boundary once per
//! entry.
//!
//! ## Why batch boundaries stay at entry granularity
//!
//! Which entries are drained *together* depends on message arrival
//! timing, which differs per replica. The ledger commits a state
//! fingerprint after every entry ([`crate::ledger::Block`]), so anything
//! that lets one entry's conflict set bleed into another's — e.g. a true
//! cross-entry Aria mega-batch — would make commits depend on drain
//! timing and diverge replicas. The pipeline therefore runs one Aria
//! batch per entry, in order; the parallelism lives *inside* each batch
//! (multi-core phases, see `massbft_db::aria`). Transaction ids are the
//! position within the entry's batch, and entries are totally ordered,
//! so the (entry, index) id assignment is identical on every replica.
//!
//! ## Conflict-abort retry
//!
//! With `retry_aborts` enabled, conflict-aborted transactions are
//! re-queued at the *front* of the next entry's batch, in their original
//! id order. The retry queue's content is a pure function of the entry
//! sequence prefix — timing cannot touch it — so replicas still agree.
//! It defaults off to preserve the paper's drop-on-conflict accounting
//! (Fig. 8d abort-rate comparisons).

use crate::entry::EntryId;
use massbft_db::{AriaExecutor, KvStore, TxnOutcome};
use massbft_workloads::Request;
use std::collections::VecDeque;
use std::sync::OnceLock;

/// Distribution of per-entry batch sizes handed to Aria
/// (`core.exec.entry_txns` histogram in the telemetry registry).
fn entry_txns_histogram() -> &'static massbft_telemetry::registry::Histogram {
    static H: OnceLock<massbft_telemetry::registry::Histogram> = OnceLock::new();
    H.get_or_init(|| massbft_telemetry::registry::histogram("core.exec.entry_txns"))
}

/// A decoded, execution-ready entry.
#[derive(Debug, Clone)]
pub struct PreparedEntry {
    /// Global entry id.
    pub id: EntryId,
    /// Decoded transactions, entry order.
    pub txns: Vec<Request>,
}

/// Per-entry execution result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryResult {
    /// Which entry.
    pub id: EntryId,
    /// Transactions fed to the executor (entry txns + injected retries).
    pub executed: usize,
    /// Committed transactions.
    pub committed: usize,
    /// Conflict (WAW/RAW) aborts left unresolved after the batch (with the
    /// deterministic fallback on, rescued txns move to `fallback_committed`
    /// and this stays 0).
    pub conflict_aborted: usize,
    /// Logic-level aborts.
    pub logic_aborted: usize,
    /// Conflict-aborted transactions committed by the serial fallback
    /// re-run within the same batch.
    pub fallback_committed: usize,
    /// `store.content_hash()` after this entry's batch — what the ledger
    /// block records.
    pub state_fingerprint: u64,
}

/// Owns the execution-side state: the (sharded) store, the Aria
/// executor, and the deterministic conflict-retry queue.
#[derive(Debug)]
pub struct ExecutionPipeline {
    store: KvStore,
    executor: AriaExecutor,
    retry: VecDeque<Request>,
    retry_aborts: bool,
}

impl ExecutionPipeline {
    /// A pipeline with `workers` Aria lanes (1 = serial), the given
    /// cross-entry retry policy, and (when `fallback` is on) Aria's
    /// deterministic same-batch abort fallback.
    ///
    /// The two abort policies compose: the fallback rescues conflict
    /// aborts *inside* the batch (leaving none for the retry queue), so
    /// with fallback on the retry queue naturally stays empty.
    pub fn new(workers: usize, retry_aborts: bool, fallback: bool) -> Self {
        ExecutionPipeline {
            store: KvStore::new(),
            executor: AriaExecutor::parallel(workers).with_fallback(fallback),
            retry: VecDeque::new(),
            retry_aborts,
        }
    }

    /// The execution state.
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// Configured Aria worker lanes.
    pub fn workers(&self) -> usize {
        self.executor.workers()
    }

    /// Conflict-aborted transactions waiting for the next entry.
    pub fn pending_retries(&self) -> usize {
        self.retry.len()
    }

    /// Executes a drained run of ready entries, in order, one Aria batch
    /// per entry. Returns one result per input entry.
    pub fn execute_entries(&mut self, entries: Vec<PreparedEntry>) -> Vec<EntryResult> {
        entries
            .into_iter()
            .map(|entry| {
                let id = entry.id;
                let batch: Vec<Request> = if self.retry.is_empty() {
                    entry.txns
                } else {
                    let mut b: Vec<Request> =
                        Vec::with_capacity(self.retry.len() + entry.txns.len());
                    b.extend(self.retry.drain(..));
                    b.extend(entry.txns);
                    b
                };
                entry_txns_histogram().record(batch.len() as u64);
                let out = self.executor.execute_batch(&mut self.store, &batch);
                if self.retry_aborts {
                    for &i in &out.conflict_aborted {
                        self.retry.push_back(batch[i].clone());
                    }
                }
                let logic_aborted = out
                    .outcomes
                    .iter()
                    .filter(|o| **o == TxnOutcome::LogicAborted)
                    .count();
                EntryResult {
                    id,
                    executed: batch.len(),
                    committed: out.committed,
                    conflict_aborted: out.conflict_aborted.len(),
                    logic_aborted,
                    fallback_committed: out.fallback_committed,
                    state_fingerprint: self.store.content_hash(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(gid: u32, seq: u64, reqs: Vec<Request>) -> PreparedEntry {
        PreparedEntry {
            id: EntryId::new(gid, seq),
            txns: reqs,
        }
    }

    fn payment(src: u64, dst: u64, amount: u32) -> Request {
        Request::SbSendPayment { src, dst, amount }
    }

    fn deposit(acct: u64, amount: u32) -> Request {
        Request::SbDepositChecking { acct, amount }
    }

    #[test]
    fn one_fingerprint_per_entry_matches_sequential_execution() {
        let run_batched = || {
            let mut p = ExecutionPipeline::new(1, false, false);
            let entries = vec![
                entry(0, 0, vec![deposit(1, 100), deposit(2, 100)]),
                entry(1, 0, vec![payment(1, 2, 30)]),
            ];
            p.execute_entries(entries)
        };
        let run_single = || {
            let mut p = ExecutionPipeline::new(1, false, false);
            let a = p.execute_entries(vec![entry(0, 0, vec![deposit(1, 100), deposit(2, 100)])]);
            let b = p.execute_entries(vec![entry(1, 0, vec![payment(1, 2, 30)])]);
            [a, b].concat()
        };
        // Draining 2 entries in one call vs two calls is invisible in the
        // results — the property replica agreement rests on.
        assert_eq!(run_batched(), run_single());
    }

    #[test]
    fn conflict_aborts_requeue_at_front_when_enabled() {
        let mut p = ExecutionPipeline::new(1, true, false);
        // Both payments drain account 1: the second conflict-aborts.
        let r = p.execute_entries(vec![entry(
            0,
            0,
            vec![deposit(1, 100), payment(1, 2, 10), payment(1, 3, 10)],
        )]);
        assert_eq!(r[0].conflict_aborted, 2);
        assert_eq!(p.pending_retries(), 2);
        // Next entry: retries run first (ids 0..2), then the new txn.
        let r2 = p.execute_entries(vec![entry(0, 1, vec![deposit(4, 1)])]);
        assert_eq!(r2[0].executed, 3);
        // One retry commits, the other conflicts again and re-queues.
        assert_eq!(p.pending_retries(), 1);
        let r3 = p.execute_entries(vec![entry(0, 2, vec![])]);
        assert_eq!(r3[0].executed, 1);
        assert_eq!(r3[0].committed, 1);
        assert_eq!(p.pending_retries(), 0);
    }

    #[test]
    fn retries_drop_silently_when_disabled() {
        let mut p = ExecutionPipeline::new(1, false, false);
        let r = p.execute_entries(vec![entry(
            0,
            0,
            vec![deposit(1, 100), payment(1, 2, 10), payment(1, 3, 10)],
        )]);
        assert_eq!(r[0].conflict_aborted, 2);
        assert_eq!(p.pending_retries(), 0);
    }

    #[test]
    fn fallback_rescues_conflicts_and_leaves_no_residue() {
        let conflicting = |seq: u64| {
            entry(
                0,
                seq,
                vec![deposit(1, 100), payment(1, 2, 10), payment(1, 3, 10)],
            )
        };
        // Without the fallback, two payments conflict-abort.
        let mut plain = ExecutionPipeline::new(1, false, false);
        let r = plain.execute_entries(vec![conflicting(0)]);
        assert_eq!(r[0].conflict_aborted, 2);
        assert_eq!(r[0].fallback_committed, 0);
        // With it, the same entry commits everything in one batch and the
        // retry queue has nothing to pick up even with retries enabled.
        let run = |workers: usize| {
            let mut p = ExecutionPipeline::new(workers, true, true);
            let r = p.execute_entries(vec![conflicting(0), conflicting(1)]);
            assert_eq!(p.pending_retries(), 0);
            r
        };
        let serial = run(1);
        for res in &serial {
            assert_eq!(res.conflict_aborted, 0);
            assert_eq!(res.committed, 3);
            assert_eq!(res.fallback_committed, 2);
        }
        for workers in [2, 4, 8] {
            assert_eq!(run(workers), serial, "workers={workers}");
        }
    }

    #[test]
    fn retry_pipeline_is_deterministic_across_worker_counts() {
        let run = |workers: usize| {
            let mut p = ExecutionPipeline::new(workers, true, false);
            let mk = |seq: u64| {
                entry(
                    0,
                    seq,
                    (0..40u64)
                        .map(|i| payment(i % 5, (i + 1) % 5, 1))
                        .chain((0..40u64).map(|i| deposit(i % 7, 10)))
                        .collect(),
                )
            };
            let results = p.execute_entries(vec![mk(0), mk(1), mk(2)]);
            (results, p.store().content_hash(), p.pending_retries())
        };
        let serial = run(1);
        for workers in [2, 4, 8] {
            assert_eq!(run(workers), serial, "workers={workers}");
        }
    }
}
