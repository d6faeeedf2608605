//! In-memory key-value store with batch versioning, striped into shards.
//!
//! The table is split into [`SHARDS`] independent hash maps; a key's shard
//! and its slot inside the shard both come from [`crate::hash`]'s one cheap
//! function. Reads and single-key writes behave exactly as
//! a flat map would; the striping exists so the Aria commit phase can
//! apply a batch's write set with one worker per shard group — the WAW
//! rule guarantees at most one committed writer per key per batch, so
//! per-shard apply order cannot affect the result.

use crate::hash::{key_hash, FastMap};
use crate::pool::WorkerPool;
use crate::{Key, Value};

/// Number of stripes. A power of two well above any realistic worker
/// count, so shard groups stay balanced.
pub const SHARDS: usize = 32;

/// An in-memory hash-table store, the paper's execution-state backend.
///
/// The store tracks a monotonically increasing *batch version*: the Aria
/// executor bumps it once per applied batch, which gives tests and the
/// ledger layer a cheap way to assert replica convergence (same version +
/// same content hash ⇒ same state).
#[derive(Debug, Clone)]
pub struct KvStore {
    shards: Vec<FastMap<Key, Value>>,
    version: u64,
    /// Incrementally maintained XOR of per-pair hashes; see
    /// [`KvStore::content_hash`]. XOR is self-inverting, so every mutation
    /// can fold the old pair out and the new pair in, keeping the
    /// fingerprint O(1) to read instead of O(keys) — the executor reads it
    /// once per entry, which made the full scan the simulator's hot spot.
    content_acc: u64,
}

impl Default for KvStore {
    fn default() -> Self {
        KvStore {
            shards: vec![FastMap::default(); SHARDS],
            version: 0,
            content_acc: 0,
        }
    }
}

/// Hash of one (key, value) pair as folded into the content fingerprint.
/// `Vec<u8>` hashes identically to its `[u8]` slice, so callers may pass
/// either form for the same bytes.
#[inline]
fn pair_hash(k: &[u8], v: &[u8]) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    k.hash(&mut h);
    v.hash(&mut h);
    h.finish()
}

/// Shard index for a key: bits 32.. of [`key_hash`], which the shard's own
/// table (low bits for the slot, top seven for the tag) never reads. The
/// executor's reservation stripes take bits 40.. of the same hash.
#[inline]
pub(crate) fn shard_of(key: &[u8]) -> usize {
    ((key_hash(key) >> 32) as usize) & (SHARDS - 1)
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a key.
    pub fn get(&self, key: &[u8]) -> Option<&Value> {
        self.shards[shard_of(key)].get(key)
    }

    /// Writes a key (used for loading initial state; transactional writes
    /// go through the executor).
    pub fn put(&mut self, key: Key, value: Value) {
        use std::collections::hash_map::Entry;
        let shard = &mut self.shards[shard_of(&key)];
        let delta = match shard.entry(key) {
            Entry::Occupied(mut e) => {
                let d = pair_hash(e.key(), e.get()) ^ pair_hash(e.key(), &value);
                e.insert(value);
                d
            }
            Entry::Vacant(e) => {
                let d = pair_hash(e.key(), &value);
                e.insert(value);
                d
            }
        };
        self.content_acc ^= delta;
    }

    /// Deletes a key. Returns the previous value.
    pub fn delete(&mut self, key: &[u8]) -> Option<Value> {
        let old = self.shards[shard_of(key)].remove(key);
        if let Some(v) = &old {
            self.content_acc ^= pair_hash(key, v);
        }
        old
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.shards.iter().map(FastMap::len).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(FastMap::is_empty)
    }

    /// The number of batches applied so far.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Bumps the batch version (executor use).
    pub(crate) fn bump_version(&mut self) {
        self.version += 1;
    }

    /// Applies a batch's committed writes in slice order — the serial
    /// executor's apply. Within one transaction writes arrive in program
    /// order, so repeated writes of one key keep last-write-wins semantics.
    pub(crate) fn apply_writes(&mut self, writes: &[(&Key, &Value)]) {
        for &(k, v) in writes {
            self.put(k.clone(), v.clone());
        }
    }

    /// Applies a batch's committed writes from per-lane, per-shard buckets
    /// (`lane_buckets[lane][shard]`) as produced by the executor's fused
    /// commit pass, fanning shard groups out over `pool` (serial puts for
    /// small write sets or a serial pool). Each lane folds its fingerprint
    /// delta into its own slot; XOR is commutative, so combining the slots
    /// afterwards matches what serial puts would have produced. Within one
    /// shard, lanes apply in lane order; lane order is ascending
    /// transaction id and each lane's bucket preserves program order, so
    /// repeated writes of one key keep last-write-wins semantics. Across
    /// transactions the WAW rule has already made committed key sets
    /// disjoint.
    pub(crate) fn apply_sharded(
        &mut self,
        pool: &WorkerPool,
        lane_buckets: &[Vec<Vec<(&Key, &Value)>>],
    ) {
        let total: usize = lane_buckets
            .iter()
            .flat_map(|lane| lane.iter().map(Vec::len))
            .sum();
        if pool.is_serial() || total < crate::pool::MIN_CHUNK * 2 {
            for shard in 0..SHARDS {
                for lane in lane_buckets {
                    for &(k, v) in &lane[shard] {
                        self.put(k.clone(), v.clone());
                    }
                }
            }
            return;
        }
        let lanes = pool.workers().min(SHARDS);
        let group = SHARDS.div_ceil(lanes);
        let mut deltas = vec![0u64; SHARDS.div_ceil(group)];
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = self
            .shards
            .chunks_mut(group)
            .enumerate()
            .zip(deltas.iter_mut())
            .map(|((gi, shard_group), delta)| {
                Box::new(move || {
                    let mut d = 0u64;
                    for (si, shard) in shard_group.iter_mut().enumerate() {
                        let s = gi * group + si;
                        for lane in lane_buckets {
                            for &(k, v) in &lane[s] {
                                d ^= pair_hash(k, v);
                                if let Some(old) = shard.insert(k.clone(), v.clone()) {
                                    d ^= pair_hash(k, &old);
                                }
                            }
                        }
                    }
                    *delta = d;
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_tasks(tasks);
        self.content_acc ^= deltas.into_iter().fold(0, |a, d| a ^ d);
    }

    /// Order-independent content fingerprint: XOR of per-pair hashes.
    /// Two replicas that applied the same batches agree on this, and the
    /// shard layout cannot affect it.
    ///
    /// The value is maintained incrementally by [`put`](KvStore::put),
    /// [`delete`](KvStore::delete), and the batch apply path, so reading
    /// it is O(1). The executor stamps it into every entry's
    /// `state_fingerprint`; recomputing the XOR over a growing table on
    /// each executed entry was the single largest per-event cost in
    /// paper-scale simulations.
    pub fn content_hash(&self) -> u64 {
        debug_assert_eq!(self.content_acc, self.recompute_content_hash());
        self.content_acc
    }

    /// From-scratch recomputation of the fingerprint — the reference
    /// implementation the incremental accumulator must agree with.
    fn recompute_content_hash(&self) -> u64 {
        let mut acc = 0u64;
        for shard in &self.shards {
            for (k, v) in shard {
                acc ^= pair_hash(k, v);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_crud() {
        let mut s = KvStore::new();
        assert!(s.is_empty());
        s.put(b"a".to_vec(), b"1".to_vec());
        assert_eq!(s.get(b"a"), Some(&b"1".to_vec()));
        assert_eq!(s.len(), 1);
        s.put(b"a".to_vec(), b"2".to_vec());
        assert_eq!(s.get(b"a"), Some(&b"2".to_vec()));
        assert_eq!(s.delete(b"a"), Some(b"2".to_vec()));
        assert_eq!(s.get(b"a"), None);
    }

    #[test]
    fn content_hash_is_order_independent() {
        let mut a = KvStore::new();
        let mut b = KvStore::new();
        a.put(b"x".to_vec(), b"1".to_vec());
        a.put(b"y".to_vec(), b"2".to_vec());
        b.put(b"y".to_vec(), b"2".to_vec());
        b.put(b"x".to_vec(), b"1".to_vec());
        assert_eq!(a.content_hash(), b.content_hash());
        b.put(b"z".to_vec(), b"3".to_vec());
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn incremental_hash_matches_recomputation() {
        // Inserts, overwrites, deletes of absent and present keys, and the
        // parallel batch-apply path must all keep the O(1) accumulator in
        // lock-step with a from-scratch scan.
        let mut s = KvStore::new();
        assert_eq!(s.content_hash(), s.recompute_content_hash());
        for i in 0..64u32 {
            s.put(i.to_le_bytes().to_vec(), vec![i as u8; 16]);
        }
        s.put(3u32.to_le_bytes().to_vec(), b"overwritten".to_vec());
        s.put(3u32.to_le_bytes().to_vec(), b"overwritten again".to_vec());
        assert_eq!(s.delete(&9u32.to_le_bytes()), Some(vec![9u8; 16]));
        assert_eq!(s.delete(b"never inserted"), None);
        assert_eq!(s.content_hash(), s.recompute_content_hash());

        let keys: Vec<Key> = (32..200u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let vals: Vec<Value> = (32..200u32).map(|i| vec![!i as u8; 8]).collect();
        let writes: Vec<(&Key, &Value)> = keys.iter().zip(vals.iter()).collect();
        s.apply_writes(&writes[..100]);
        s.apply_sharded(&WorkerPool::new(4), &bucketed(&writes[100..], 2));
        assert_eq!(s.content_hash(), s.recompute_content_hash());

        // An empty store built by deleting everything matches a fresh one.
        let mut t = KvStore::new();
        t.put(b"k".to_vec(), b"v".to_vec());
        t.delete(b"k");
        assert_eq!(t.content_hash(), KvStore::new().content_hash());
    }

    #[test]
    fn version_starts_at_zero() {
        let s = KvStore::new();
        assert_eq!(s.version(), 0);
    }

    #[test]
    fn keys_spread_over_shards() {
        let hit: std::collections::HashSet<usize> =
            (0..1000u32).map(|i| shard_of(&i.to_le_bytes())).collect();
        assert!(hit.len() > SHARDS / 2, "only {} shards hit", hit.len());
    }

    /// `writes` dealt out in runs to `lanes` commit lanes, each bucketed by
    /// shard — what the executor's fused commit pass hands over.
    fn bucketed<'a>(
        writes: &[(&'a Key, &'a Value)],
        lanes: usize,
    ) -> Vec<Vec<Vec<(&'a Key, &'a Value)>>> {
        let mut lane_buckets = vec![vec![Vec::new(); SHARDS]; lanes];
        for (run, lane) in writes
            .chunks(writes.len().div_ceil(lanes))
            .zip(&mut lane_buckets)
        {
            for &(k, v) in run {
                lane[shard_of(k)].push((k, v));
            }
        }
        lane_buckets
    }

    #[test]
    fn parallel_apply_matches_serial_puts() {
        let keys: Vec<Key> = (0..500u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let vals: Vec<Value> = (0..500u32).map(|i| vec![i as u8; 8]).collect();
        let writes: Vec<(&Key, &Value)> = keys.iter().zip(vals.iter()).collect();

        let mut serial = KvStore::new();
        for &(k, v) in &writes {
            serial.put(k.clone(), v.clone());
        }
        let mut parallel = KvStore::new();
        parallel.apply_sharded(&WorkerPool::new(4), &bucketed(&writes, 4));

        assert_eq!(serial.len(), parallel.len());
        assert_eq!(serial.content_hash(), parallel.content_hash());
    }

    #[test]
    fn apply_sharded_matches_serial_puts() {
        // Pre-bucketed lanes (as the fused commit pass produces) must land
        // exactly where a serial put-loop in lane order would, on both the
        // small-batch serial path and the pool path.
        let keys: Vec<Key> = (0..300u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let vals: Vec<Value> = (0..300u32).map(|i| vec![i as u8; 8]).collect();
        let mut serial = KvStore::new();
        for (k, v) in keys.iter().zip(vals.iter()) {
            serial.put(k.clone(), v.clone());
        }
        for (lanes, pool_width) in [(2usize, 1usize), (3, 4)] {
            let mut lane_buckets: Vec<Vec<Vec<(&Key, &Value)>>> =
                vec![vec![Vec::new(); SHARDS]; lanes];
            for (i, (k, v)) in keys.iter().zip(vals.iter()).enumerate() {
                lane_buckets[i % lanes][shard_of(k)].push((k, v));
            }
            let mut s = KvStore::new();
            s.apply_sharded(&WorkerPool::new(pool_width), &lane_buckets);
            assert_eq!(s.len(), serial.len());
            assert_eq!(s.content_hash(), serial.content_hash());
            assert_eq!(s.content_hash(), s.recompute_content_hash());
        }
    }

    #[test]
    fn parallel_apply_keeps_last_write_wins_within_txn_order() {
        // Same key written twice — within one lane (as one txn's program
        // order would produce) and across two (lane order is txn order):
        // the later value must win, even on the pool path.
        let key: Key = b"dup".to_vec();
        let v1: Value = b"first".to_vec();
        let v2: Value = b"second".to_vec();
        let filler_keys: Vec<Key> = (0..100u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let filler_val: Value = b"x".to_vec();
        let mut writes: Vec<(&Key, &Value)> = vec![(&key, &v1)];
        writes.extend(filler_keys.iter().map(|k| (k, &filler_val)));
        writes.push((&key, &v2));
        for lanes in [1, 2] {
            let mut s = KvStore::new();
            s.apply_sharded(&WorkerPool::new(8), &bucketed(&writes, lanes));
            assert_eq!(s.get(b"dup"), Some(&v2));
        }
    }
}
