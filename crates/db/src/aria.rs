//! Aria-style deterministic batch execution, optionally multi-core.
//!
//! Aria (Lu, Yu, Cao, Madden — VLDB'20) executes a batch of transactions
//! in three deterministic phases:
//!
//! 1. **Execution** — every transaction runs against the *same* snapshot
//!    (the state left by the previous batch), buffering its writes and
//!    recording its read set. No locks, perfectly parallelizable.
//! 2. **Reservation** — each key written in the batch is reserved by the
//!    *lowest* transaction id that writes it; likewise for reads.
//! 3. **Commit** — transaction `i` commits unless it has
//!    - a **WAW** conflict: it writes a key whose write reservation belongs
//!      to a smaller id, or
//!    - a **RAW** conflict: it read a key whose write reservation belongs
//!      to a smaller id (its snapshot read is stale).
//!
//! Aborted transactions are reported so the caller can retry them in a
//! later batch — or, with the **deterministic fallback** enabled, rescued
//! inside the same batch (below).
//!
//! Because all three phases depend only on the batch contents and the
//! snapshot, every replica that executes the same ordered batch commits
//! exactly the same subset — the determinism MassBFT's global ordering
//! relies on. The paper's TPC-C observation (Fig. 8d: bigger batches ⇒
//! more conflicts on hotspot rows ⇒ higher abort rate) falls straight out
//! of this design and is covered by tests below.
//!
//! ## Parallel mode
//!
//! [`AriaExecutor::parallel`] runs every phase across a [`WorkerPool`]
//! with *bit-identical* results to the serial executor, at any worker
//! count:
//!
//! - **Execution** partitions the batch into contiguous chunks; each
//!   worker runs its chunk against the shared immutable snapshot.
//! - **Reservation** uses a table sharded by key hash ([`RSV_SHARDS`]
//!   stripes). Each worker owns a contiguous shard range and scans the
//!   whole batch in id order, inserting only the keys that hash into its
//!   range — first insert wins, which *is* lowest-id-wins. Every shard's
//!   content is a pure function of the batch, so the table is identical
//!   at any lane count and there is no serial merge step (the previous
//!   design built per-chunk maps and paid an O(keys) single-threaded
//!   merge — serial-equivalent work that capped the phase).
//! - **Commit checks and the apply bucketing are fused**: each worker
//!   checks its chunk against the reservation table *and* buckets its
//!   committed writes by store shard in the same pass. The per-lane
//!   buckets go straight to the store's shard-parallel apply
//!   (`KvStore::apply_sharded`), eliminating the serial collect +
//!   re-bucket scan between check and apply. The WAW rule guarantees one
//!   committed writer per key, so per-shard order is irrelevant (see
//!   [`KvStore`]'s striping docs).
//!
//! Small batches skip the fork-join entirely and take the exact serial
//! path, so a parallel executor never pays thread overhead for work that
//! doesn't amortize it.
//!
//! ## Deterministic fallback
//!
//! Aria's fallback pass (enabled with [`AriaExecutor::with_fallback`]):
//! after the batch's committed writes apply, the conflict-aborted
//! transactions re-execute **serially, in ascending
//! transaction id**, each against the store as left by everything before
//! it (the batch's committed writes plus earlier rescued transactions).
//! The re-run order is a pure function of the batch, so replicas still
//! byte-agree at every worker width, and a hotspot batch commits in one
//! round instead of bleeding a 24% abort tax into retry batches. Rescued
//! transactions report [`TxnOutcome::FallbackCommitted`]; a re-run whose
//! own logic aborts (e.g. funds consumed by an earlier rescue) becomes
//! [`TxnOutcome::LogicAborted`]. With the fallback on, a batch leaves no
//! conflict-aborted residue for the caller to retry.

use crate::hash::{key_hash, FastMap};
use crate::pool::WorkerPool;
use crate::stats::{record_batch, BatchSample};
use crate::store::{self, KvStore};
use crate::{DetTransaction, Key, Value};
use std::time::Instant;

/// Stripes in the write-reservation table. Wider than the store's shard
/// count so reservation lanes stay balanced at 16 workers.
const RSV_SHARDS: usize = 64;

/// Reservation-table stripe for a key: bits 40.. of the shared key hash,
/// so striping is not correlated with the store's shard selection (bits
/// 32..37 of the same hash).
#[inline]
fn rsv_shard_of(key: &[u8]) -> usize {
    ((key_hash(key) >> 40) as usize) & (RSV_SHARDS - 1)
}

/// Write-reservation map: key → lowest transaction id writing it.
type ReserveMap<'e> = FastMap<&'e [u8], usize>;
/// One worker-lane task producing the reservation maps for its contiguous
/// shard range.
type ReserveTask<'e, 's> = Box<dyn FnOnce() -> Vec<ReserveMap<'e>> + Send + 's>;
/// One worker-lane task running the fused commit-check + bucketing pass
/// over its chunk.
type CommitTask<'e, 's> = Box<dyn FnOnce() -> CommitLane<'e> + Send + 's>;

/// The sharded write-reservation table (phase 2 output).
struct ReservationTable<'e> {
    shards: Vec<ReserveMap<'e>>,
}

impl ReservationTable<'_> {
    /// The lowest transaction id that reserved `key`, if any.
    #[inline]
    fn owner(&self, key: &[u8]) -> Option<usize> {
        self.shards[rsv_shard_of(key)].get(key).copied()
    }
}

/// What one commit-phase lane produced over its contiguous chunk.
struct CommitLane<'e> {
    outcomes: Vec<TxnOutcome>,
    conflicted: Vec<usize>,
    committed: usize,
    logic_aborted: usize,
    /// Committed writes bucketed by store shard, chunk order.
    buckets: Vec<Vec<(&'e Key, &'e Value)>>,
}

/// What a transaction did during the execution phase.
#[derive(Debug, Clone, Default)]
pub struct TxnEffects {
    /// Keys read from the snapshot.
    pub reads: Vec<Key>,
    /// Buffered writes (applied only on commit).
    pub writes: Vec<(Key, Value)>,
    /// Logic-level abort (e.g. SmallBank insufficient funds). Distinct
    /// from a concurrency abort: it consumes the transaction (no retry).
    pub abort: bool,
}

impl TxnEffects {
    /// Records a read.
    pub fn read(&mut self, key: impl Into<Key>) {
        self.reads.push(key.into());
    }

    /// Buffers a write.
    pub fn write(&mut self, key: impl Into<Key>, value: impl Into<Value>) {
        self.writes.push((key.into(), value.into()));
    }
}

/// Per-transaction outcome of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Writes applied.
    Committed,
    /// Concurrency abort (WAW/RAW); retry in a later batch.
    ConflictAborted,
    /// The transaction's own logic aborted; do not retry.
    LogicAborted,
    /// Conflict-aborted in the parallel round, then committed by the
    /// deterministic fallback re-run.
    FallbackCommitted,
}

/// Batch-level result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Outcome per transaction, batch order.
    pub outcomes: Vec<TxnOutcome>,
    /// Count of committed transactions (including fallback rescues).
    pub committed: usize,
    /// Indices of transactions still conflict-aborted after the batch
    /// (candidates for retry). Empty when the fallback is enabled.
    pub conflict_aborted: Vec<usize>,
    /// Count of transactions committed by the fallback re-run.
    pub fallback_committed: usize,
}

impl BatchOutcome {
    /// Residual abort rate of the batch: transactions still
    /// conflict-aborted after any fallback, over batch size.
    pub fn abort_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.conflict_aborted.len() as f64 / self.outcomes.len() as f64
        }
    }
}

/// The deterministic batch executor.
#[derive(Debug, Clone, Default)]
pub struct AriaExecutor {
    pool: WorkerPool,
    fallback: bool,
}

impl AriaExecutor {
    /// Creates a serial executor (one lane, no thread overhead).
    pub fn new() -> Self {
        AriaExecutor {
            pool: WorkerPool::new(1),
            fallback: false,
        }
    }

    /// Creates an executor that fans each phase out over `workers` lanes.
    /// `parallel(1)` is exactly [`AriaExecutor::new`].
    pub fn parallel(workers: usize) -> Self {
        AriaExecutor {
            pool: WorkerPool::new(workers),
            fallback: false,
        }
    }

    /// Enables or disables the deterministic abort fallback (see the
    /// module docs). Off by default to preserve the paper's
    /// drop-on-conflict abort accounting.
    pub fn with_fallback(mut self, on: bool) -> Self {
        self.fallback = on;
        self
    }

    /// Configured worker lanes.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Executes one ordered batch against `store`, applying the writes of
    /// committed transactions and bumping the store's batch version.
    pub fn execute_batch<T: DetTransaction + Sync>(
        &self,
        store: &mut KvStore,
        batch: &[T],
    ) -> BatchOutcome {
        let lanes = self.pool.effective_workers(batch.len());
        let t0 = Instant::now();

        // Phase 1: execution against the shared snapshot.
        let view: &KvStore = store;
        let effects: Vec<TxnEffects> = self.pool.map_chunks(batch, &|_, t: &T| t.execute(view));
        let t1 = Instant::now();

        // Phase 2: write reservations — lowest writer id per key. Logic
        // aborts don't reserve (their writes will never apply).
        let rsv = self.reserve(&effects, lanes);
        let t2 = Instant::now();

        // Phase 3: fused commit checks + shard bucketing + apply.
        let mut outcomes: Vec<TxnOutcome>;
        let mut conflict_aborted: Vec<usize> = Vec::new();
        let mut committed = 0usize;
        let mut logic_aborted = 0usize;
        if lanes <= 1 {
            outcomes = Vec::with_capacity(effects.len());
            let mut writes: Vec<(&Key, &Value)> = Vec::new();
            for (i, eff) in effects.iter().enumerate() {
                let o = commit_check(i, eff, &rsv);
                match o {
                    TxnOutcome::Committed => {
                        committed += 1;
                        writes.extend(eff.writes.iter().map(|(k, v)| (k, v)));
                    }
                    TxnOutcome::ConflictAborted => conflict_aborted.push(i),
                    TxnOutcome::LogicAborted => logic_aborted += 1,
                    TxnOutcome::FallbackCommitted => unreachable!("fallback runs after checks"),
                }
                outcomes.push(o);
            }
            store.apply_writes(&writes);
        } else {
            let chunk = effects.len().div_ceil(lanes);
            let rsv_ref = &rsv;
            let tasks: Vec<CommitTask<'_, '_>> = effects
                .chunks(chunk)
                .enumerate()
                .map(|(ci, slice)| {
                    let base = ci * chunk;
                    Box::new(move || {
                        let mut lane = CommitLane {
                            outcomes: Vec::with_capacity(slice.len()),
                            conflicted: Vec::new(),
                            committed: 0,
                            logic_aborted: 0,
                            buckets: vec![Vec::new(); store::SHARDS],
                        };
                        for (off, eff) in slice.iter().enumerate() {
                            let i = base + off;
                            let o = commit_check(i, eff, rsv_ref);
                            match o {
                                TxnOutcome::Committed => {
                                    lane.committed += 1;
                                    for (k, v) in &eff.writes {
                                        lane.buckets[store::shard_of(k)].push((k, v));
                                    }
                                }
                                TxnOutcome::ConflictAborted => lane.conflicted.push(i),
                                TxnOutcome::LogicAborted => lane.logic_aborted += 1,
                                TxnOutcome::FallbackCommitted => {
                                    unreachable!("fallback runs after checks")
                                }
                            }
                            lane.outcomes.push(o);
                        }
                        lane
                    }) as CommitTask<'_, '_>
                })
                .collect();
            let lane_results = self.pool.run_tasks(tasks);
            outcomes = Vec::with_capacity(effects.len());
            let mut lane_buckets = Vec::with_capacity(lane_results.len());
            for lane in lane_results {
                outcomes.extend(lane.outcomes);
                conflict_aborted.extend(lane.conflicted);
                committed += lane.committed;
                logic_aborted += lane.logic_aborted;
                lane_buckets.push(lane.buckets);
            }
            store.apply_sharded(&self.pool, &lane_buckets);
        }
        let t3 = Instant::now();

        // Phase 4 (optional): deterministic fallback. Re-run the abort set
        // serially in ascending id order against the evolving store; the
        // order is a pure function of the batch, so replicas agree.
        let pre_fallback_conflicts = conflict_aborted.len();
        let mut fallback_committed = 0usize;
        if self.fallback && !conflict_aborted.is_empty() {
            for &i in &conflict_aborted {
                let eff = batch[i].execute(store);
                if eff.abort {
                    outcomes[i] = TxnOutcome::LogicAborted;
                    logic_aborted += 1;
                } else {
                    for (k, v) in eff.writes {
                        store.put(k, v);
                    }
                    outcomes[i] = TxnOutcome::FallbackCommitted;
                    committed += 1;
                    fallback_committed += 1;
                }
            }
            conflict_aborted.clear();
        }
        store.bump_version();
        let t4 = Instant::now();

        record_batch(BatchSample {
            txns: batch.len() as u64,
            committed: committed as u64,
            conflict_aborted: pre_fallback_conflicts as u64,
            logic_aborted: logic_aborted as u64,
            execute_ns: (t1 - t0).as_nanos() as u64,
            reserve_ns: (t2 - t1).as_nanos() as u64,
            commit_ns: (t3 - t2).as_nanos() as u64,
            fallback_ns: (t4 - t3).as_nanos() as u64,
            fallback_committed: fallback_committed as u64,
            workers: lanes as u64,
        });

        BatchOutcome {
            outcomes,
            committed,
            conflict_aborted,
            fallback_committed,
        }
    }

    /// Phase 2: the sharded write-reservation table. Each lane owns a
    /// contiguous shard range and scans the whole batch in id order,
    /// keeping only the keys that hash into its range; the first insert
    /// per key is therefore the lowest id, and each shard's content is
    /// independent of the lane count. The redundant per-lane key hashing
    /// is cheap; what it buys is the removal of the old serial
    /// lowest-id-wins merge over every reserved key.
    fn reserve<'e>(&self, effects: &'e [TxnEffects], lanes: usize) -> ReservationTable<'e> {
        if lanes <= 1 {
            let mut shards: Vec<ReserveMap> = vec![FastMap::default(); RSV_SHARDS];
            for (i, eff) in effects.iter().enumerate() {
                if eff.abort {
                    continue;
                }
                for (k, _) in &eff.writes {
                    shards[rsv_shard_of(k)].entry(k.as_slice()).or_insert(i);
                }
            }
            return ReservationTable { shards };
        }
        let lanes = lanes.min(RSV_SHARDS);
        let group = RSV_SHARDS.div_ceil(lanes);
        let tasks: Vec<ReserveTask<'e, '_>> = (0..RSV_SHARDS.div_ceil(group))
            .map(|gi| {
                let lo = gi * group;
                let hi = (lo + group).min(RSV_SHARDS);
                Box::new(move || {
                    let mut maps: Vec<ReserveMap> = vec![FastMap::default(); hi - lo];
                    for (i, eff) in effects.iter().enumerate() {
                        if eff.abort {
                            continue;
                        }
                        for (k, _) in &eff.writes {
                            let s = rsv_shard_of(k);
                            if (lo..hi).contains(&s) {
                                maps[s - lo].entry(k.as_slice()).or_insert(i);
                            }
                        }
                    }
                    maps
                }) as ReserveTask<'e, '_>
            })
            .collect();
        let shards: Vec<ReserveMap> = self.pool.run_tasks(tasks).into_iter().flatten().collect();
        debug_assert_eq!(shards.len(), RSV_SHARDS);
        ReservationTable { shards }
    }
}

/// The commit decision for transaction `i`: a pure function of its
/// effects and the reservation table.
#[inline]
fn commit_check(i: usize, eff: &TxnEffects, rsv: &ReservationTable) -> TxnOutcome {
    if eff.abort {
        return TxnOutcome::LogicAborted;
    }
    let waw = eff
        .writes
        .iter()
        .any(|(k, _)| rsv.owner(k).is_some_and(|o| o < i));
    let raw = eff
        .reads
        .iter()
        .any(|k| rsv.owner(k).is_some_and(|o| o < i));
    if waw || raw {
        TxnOutcome::ConflictAborted
    } else {
        TxnOutcome::Committed
    }
}

impl DetTransaction for Box<dyn DetTransaction> {
    fn execute(&self, view: &KvStore) -> TxnEffects {
        (**self).execute(view)
    }
}

impl DetTransaction for Box<dyn DetTransaction + Send + Sync> {
    fn execute(&self, view: &KvStore) -> TxnEffects {
        (**self).execute(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Transfer `amount` from `src` to `dst` if funds suffice.
    fn transfer(src: &'static [u8], dst: &'static [u8], amount: u64) -> impl DetTransaction + Sync {
        move |view: &KvStore| {
            let mut eff = TxnEffects::default();
            eff.read(src);
            eff.read(dst);
            let s = balance(view, src);
            let d = balance(view, dst);
            if s < amount {
                eff.abort = true;
                return eff;
            }
            eff.write(src, (s - amount).to_le_bytes().to_vec());
            eff.write(dst, (d + amount).to_le_bytes().to_vec());
            eff
        }
    }

    fn balance(view: &KvStore, k: &[u8]) -> u64 {
        view.get(k)
            .map(|v| u64::from_le_bytes(v.as_slice().try_into().unwrap()))
            .unwrap_or(0)
    }

    fn bank(accounts: &[(&[u8], u64)]) -> KvStore {
        let mut s = KvStore::new();
        for (k, v) in accounts {
            s.put(k.to_vec(), v.to_le_bytes().to_vec());
        }
        s
    }

    #[test]
    fn independent_txns_all_commit() {
        let mut store = bank(&[(b"a", 100), (b"b", 100), (b"c", 100), (b"d", 100)]);
        let batch = vec![transfer(b"a", b"b", 10), transfer(b"c", b"d", 20)];
        let out = AriaExecutor::new().execute_batch(&mut store, &batch);
        assert_eq!(out.committed, 2);
        assert_eq!(balance(&store, b"a"), 90);
        assert_eq!(balance(&store, b"b"), 110);
        assert_eq!(balance(&store, b"c"), 80);
        assert_eq!(balance(&store, b"d"), 120);
        assert_eq!(store.version(), 1);
    }

    #[test]
    fn waw_conflict_aborts_later_txn() {
        let mut store = bank(&[(b"a", 100), (b"b", 0), (b"c", 0)]);
        // Both write `a`; the second must conflict-abort.
        let batch = vec![transfer(b"a", b"b", 10), transfer(b"a", b"c", 10)];
        let out = AriaExecutor::new().execute_batch(&mut store, &batch);
        assert_eq!(
            out.outcomes,
            vec![TxnOutcome::Committed, TxnOutcome::ConflictAborted]
        );
        assert_eq!(out.conflict_aborted, vec![1]);
        assert_eq!(balance(&store, b"a"), 90);
        assert_eq!(balance(&store, b"c"), 0);
    }

    #[test]
    fn raw_conflict_aborts_stale_reader() {
        let mut store = bank(&[(b"a", 100), (b"b", 0), (b"x", 100), (b"y", 0)]);
        // Txn 0 writes `a`; txn 1 reads `a` (balance check) but writes
        // disjoint keys — still a RAW conflict under Aria.
        let t1 = move |view: &KvStore| {
            let mut eff = TxnEffects::default();
            eff.read(b"a".as_slice());
            let _ = balance(view, b"a");
            eff.write(b"y".as_slice(), 1u64.to_le_bytes().to_vec());
            eff
        };
        let batch: Vec<Box<dyn DetTransaction + Send + Sync>> =
            vec![Box::new(transfer(b"a", b"b", 10)), Box::new(t1)];
        let out = AriaExecutor::new().execute_batch(&mut store, &batch);
        assert_eq!(
            out.outcomes,
            vec![TxnOutcome::Committed, TxnOutcome::ConflictAborted]
        );
    }

    #[test]
    fn logic_abort_neither_reserves_nor_retries() {
        let mut store = bank(&[(b"a", 5), (b"b", 0), (b"c", 100)]);
        // Txn 0 has insufficient funds (logic abort); txn 1 writes the same
        // key `a` and must NOT be blocked by the aborted reservation.
        let batch = vec![transfer(b"a", b"b", 50), transfer(b"c", b"a", 10)];
        let out = AriaExecutor::new().execute_batch(&mut store, &batch);
        assert_eq!(
            out.outcomes,
            vec![TxnOutcome::LogicAborted, TxnOutcome::Committed]
        );
        assert!(out.conflict_aborted.is_empty());
        assert_eq!(balance(&store, b"a"), 15);
    }

    #[test]
    fn all_reads_of_snapshot_not_of_peers() {
        // Txn 1 must see the *snapshot* value of `a`, not txn 0's write.
        let mut store = bank(&[(b"a", 100), (b"b", 0), (b"c", 0)]);
        let snoop = move |view: &KvStore| {
            let mut eff = TxnEffects::default();
            // Deliberately not declaring the read to dodge the RAW check:
            // this tests snapshot isolation, not conflict detection.
            let a = balance(view, b"a");
            eff.write(b"c".as_slice(), a.to_le_bytes().to_vec());
            eff
        };
        let batch: Vec<Box<dyn DetTransaction + Send + Sync>> =
            vec![Box::new(transfer(b"a", b"b", 40)), Box::new(snoop)];
        let out = AriaExecutor::new().execute_batch(&mut store, &batch);
        assert_eq!(out.committed, 2);
        // Snoop saw the pre-batch value 100, not 60.
        assert_eq!(balance(&store, b"c"), 100);
    }

    #[test]
    fn determinism_across_replicas() {
        let run = || {
            let mut store = bank(&[(b"a", 100), (b"b", 50), (b"c", 25), (b"d", 0)]);
            let batch = vec![
                transfer(b"a", b"b", 10),
                transfer(b"b", b"c", 60),
                transfer(b"a", b"d", 5),
                transfer(b"c", b"d", 1),
                transfer(b"d", b"a", 100),
            ];
            let out = AriaExecutor::new().execute_batch(&mut store, &batch);
            (out.outcomes.clone(), store.content_hash())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn hotspot_batch_has_high_abort_rate() {
        // The Fig. 8d effect: many transactions touching one hot key in a
        // single batch ⇒ only the first commits.
        let mut store = bank(&[(b"hot", 1_000_000)]);
        let batch: Vec<_> = (0..64).map(|_| transfer(b"hot", b"sink", 1)).collect();
        let out = AriaExecutor::new().execute_batch(&mut store, &batch);
        assert_eq!(out.committed, 1);
        assert!(out.abort_rate() > 0.95);
    }

    #[test]
    fn parallel_hotspot_matches_serial_exactly() {
        // Same Fig. 8d batch, every worker width: outcome vector, store
        // hash, and version must be bit-identical to the serial run.
        let batch: Vec<_> = (0..64).map(|_| transfer(b"hot", b"sink", 1)).collect();
        let mut serial_store = bank(&[(b"hot", 1_000_000)]);
        let serial = AriaExecutor::new().execute_batch(&mut serial_store, &batch);
        for workers in [2, 3, 4, 8] {
            let mut store = bank(&[(b"hot", 1_000_000)]);
            let out = AriaExecutor::parallel(workers).execute_batch(&mut store, &batch);
            assert_eq!(out, serial, "workers={workers}");
            assert_eq!(store.content_hash(), serial_store.content_hash());
            assert_eq!(store.version(), serial_store.version());
        }
    }

    #[test]
    fn parallel_wide_disjoint_batch_commits_everything() {
        let keys: Vec<Vec<u8>> = (0..512u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let mut store = KvStore::new();
        for k in &keys {
            store.put(k.clone(), 100u64.to_le_bytes().to_vec());
        }
        let batch: Vec<_> = keys
            .iter()
            .map(|k| {
                let k = k.clone();
                move |view: &KvStore| {
                    let mut eff = TxnEffects::default();
                    eff.read(k.clone());
                    let v = balance(view, &k);
                    eff.write(k.clone(), (v + 1).to_le_bytes().to_vec());
                    eff
                }
            })
            .collect();
        let out = AriaExecutor::parallel(8).execute_batch(&mut store, &batch);
        assert_eq!(out.committed, 512);
        assert!(out.conflict_aborted.is_empty());
        assert_eq!(balance(&store, &keys[77]), 101);
    }

    #[test]
    fn retry_of_conflict_aborted_txn_succeeds_next_batch() {
        let mut store = bank(&[(b"a", 100), (b"b", 0), (b"c", 0)]);
        let batch = vec![transfer(b"a", b"b", 10), transfer(b"a", b"c", 10)];
        let out = AriaExecutor::new().execute_batch(&mut store, &batch);
        assert_eq!(out.conflict_aborted, vec![1]);
        // Retry the aborted transfer alone.
        let retry = vec![transfer(b"a", b"c", 10)];
        let out2 = AriaExecutor::new().execute_batch(&mut store, &retry);
        assert_eq!(out2.committed, 1);
        assert_eq!(balance(&store, b"a"), 80);
        assert_eq!(balance(&store, b"c"), 10);
        assert_eq!(store.version(), 2);
    }

    #[test]
    fn empty_batch_is_a_noop_with_version_bump() {
        let mut store = KvStore::new();
        let out = AriaExecutor::new().execute_batch(
            &mut store,
            &Vec::<Box<dyn DetTransaction + Send + Sync>>::new(),
        );
        assert_eq!(out.committed, 0);
        assert_eq!(out.abort_rate(), 0.0);
        assert_eq!(store.version(), 1);
    }

    #[test]
    fn fallback_commits_entire_abort_set_in_id_order() {
        // 64 order-sensitive RMWs on one hot key: txn i folds
        // `hot = hot * 31 + (i + 1)`. Only txn 0 survives the parallel
        // round; the fallback must rescue ids 1..64 serially in ascending
        // order — the final value is the unique left-fold, so any other
        // order (or a dropped id) changes the bytes.
        let mk = |i: u64| {
            move |view: &KvStore| {
                let mut eff = TxnEffects::default();
                eff.read(b"hot".as_slice());
                let v = balance(view, b"hot");
                eff.write(
                    b"hot".as_slice(),
                    (v.wrapping_mul(31).wrapping_add(i + 1))
                        .to_le_bytes()
                        .to_vec(),
                );
                eff
            }
        };
        let batch: Vec<_> = (0..64u64).map(mk).collect();
        let expect = (0..64u64).fold(7u64, |v, i| v.wrapping_mul(31).wrapping_add(i + 1));
        for workers in [1usize, 2, 4, 8, 16] {
            let mut store = bank(&[(b"hot", 7)]);
            let exec = AriaExecutor::parallel(workers).with_fallback(true);
            let out = exec.execute_batch(&mut store, &batch);
            assert_eq!(out.committed, 64, "workers={workers}");
            assert_eq!(out.fallback_committed, 63);
            assert!(out.conflict_aborted.is_empty());
            assert_eq!(out.outcomes[0], TxnOutcome::Committed);
            assert!(out.outcomes[1..]
                .iter()
                .all(|o| *o == TxnOutcome::FallbackCommitted));
            assert_eq!(balance(&store, b"hot"), expect, "workers={workers}");
        }
    }

    #[test]
    fn fallback_rerun_can_logic_abort() {
        // Txn 1 conflicts with txn 0; by the time the fallback re-runs it,
        // txn 0 has drained the account, so the re-run's own logic aborts.
        let mut store = bank(&[(b"a", 15), (b"b", 0), (b"c", 0)]);
        let batch = vec![transfer(b"a", b"b", 10), transfer(b"a", b"c", 10)];
        let exec = AriaExecutor::new().with_fallback(true);
        let out = exec.execute_batch(&mut store, &batch);
        assert_eq!(
            out.outcomes,
            vec![TxnOutcome::Committed, TxnOutcome::LogicAborted]
        );
        assert_eq!(out.committed, 1);
        assert_eq!(out.fallback_committed, 0);
        assert!(out.conflict_aborted.is_empty());
        assert_eq!(balance(&store, b"a"), 5);
        assert_eq!(balance(&store, b"c"), 0);
    }
}
