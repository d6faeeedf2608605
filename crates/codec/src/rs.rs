//! Systematic Reed-Solomon encoder/decoder over GF(2^8).
//!
//! The code is *systematic*: the first `n_data` output shards are the input
//! data verbatim, and the remaining `n_parity` shards are Cauchy-coded
//! redundancy. Any `n_data` of the `n_total` shards reconstruct the data
//! (paper §IV-B: "any n_data out of n_total chunks can be used to rebuild
//! the original message").
//!
//! # Fast path
//!
//! Three things make the hot loops cheap:
//!
//! - Every parity coefficient's 256-entry product table is precomputed when
//!   the instance is built, so encoding is one table lookup per byte with no
//!   per-shard setup.
//! - Decode matrices (the inverted row selections) are cached per erasure
//!   pattern in a small LRU shared across clones of the instance. Steady
//!   state — the same nodes alive round after round — hits the cache and
//!   skips the Gauss-Jordan inversion and table builds entirely. Hit/miss
//!   counters are exposed via [`ReedSolomon::cache_stats`] and the
//!   process-wide [`global_cache_stats`].
//! - Above [`PARALLEL_MIN_BYTES`] of output, the coefficient matrix is
//!   applied by scoped worker threads, one contiguous band of rows each.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::{matrix::Matrix, CodecError};

/// Number of erasure patterns the decode-plan LRU retains.
///
/// Steady state needs exactly one pattern; a flapping node adds a handful.
/// 32 covers pathological churn while keeping the linear-scan LRU trivial.
const DECODE_CACHE_CAP: usize = 32;

/// Minimum number of output bytes (`rows × shard_len`) before matrix
/// application fans out across scoped threads. Below this, thread spawn
/// overhead dominates; above it (≳256 KiB) the speedup is near-linear.
pub const PARALLEL_MIN_BYTES: usize = 256 * 1024;

#[cfg(test)]
thread_local!(static CORE_LOOKUPS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) });

/// [`massbft_accel::host_cores`], counted per thread under test.
fn host_cores() -> usize {
    #[cfg(test)]
    CORE_LOOKUPS.with(|c| c.set(c.get() + 1));
    massbft_accel::host_cores()
}

static GLOBAL_HITS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_MISSES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of decode-plan cache effectiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Decodes that reused a cached inverted matrix.
    pub hits: u64,
    /// Decodes that had to invert and tabulate a fresh matrix.
    pub misses: u64,
}

/// Process-wide decode-plan cache counters, summed over every
/// [`ReedSolomon`] instance. The replication layer surfaces these through
/// `massbft-core`'s stats.
pub fn global_cache_stats() -> CacheStats {
    CacheStats {
        hits: GLOBAL_HITS.load(Ordering::Relaxed),
        misses: GLOBAL_MISSES.load(Ordering::Relaxed),
    }
}

/// An inverted decode matrix plus its per-coefficient product tables,
/// specific to one set of surviving shard indices.
#[derive(Debug)]
struct DecodePlan {
    /// The `n_data` shard indices this plan consumes, ascending.
    picked: Vec<usize>,
    /// Inverse of the generator rows at `picked`: `n_data × n_data`.
    coeffs: Matrix,
    /// Product table per coefficient, row-major.
    tables: Vec<[u8; 256]>,
}

/// Tiny move-to-front LRU keyed by the picked shard indices.
#[derive(Debug, Default)]
struct DecodeCache {
    /// Most recently used first.
    entries: Vec<(Box<[u8]>, Arc<DecodePlan>)>,
}

impl DecodeCache {
    fn get(&mut self, key: &[u8]) -> Option<Arc<DecodePlan>> {
        let pos = self.entries.iter().position(|(k, _)| &**k == key)?;
        let hit = self.entries.remove(pos);
        let plan = hit.1.clone();
        self.entries.insert(0, hit);
        Some(plan)
    }

    fn insert(&mut self, key: Box<[u8]>, plan: Arc<DecodePlan>) {
        // A racing decode may have inserted the same pattern already; the
        // duplicate would only waste a slot, so drop it.
        if self.entries.iter().any(|(k, _)| *k == key) {
            return;
        }
        self.entries.truncate(DECODE_CACHE_CAP.saturating_sub(1));
        self.entries.insert(0, (key, plan));
    }
}

/// A systematic Reed-Solomon code with fixed shard counts.
#[derive(Clone)]
pub struct ReedSolomon {
    n_data: usize,
    n_total: usize,
    /// Rows `n_data..n_total` of the generator matrix (the parity rows).
    parity_rows: Matrix,
    /// Full generator matrix, kept for decode-time row selection.
    generator: Matrix,
    /// Product table for every parity coefficient, row-major
    /// (`n_parity × n_data`), built once at construction.
    parity_tables: Vec<[u8; 256]>,
    /// Decode plans per erasure pattern, shared across clones.
    cache: Arc<Mutex<DecodeCache>>,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
}

impl std::fmt::Debug for ReedSolomon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReedSolomon")
            .field("n_data", &self.n_data)
            .field("n_total", &self.n_total)
            .field("cache_stats", &self.cache_stats())
            .finish_non_exhaustive()
    }
}

impl ReedSolomon {
    /// Creates a code producing `n_total` shards of which `n_data` carry
    /// data.
    pub fn new(n_data: usize, n_total: usize) -> Result<Self, CodecError> {
        let generator = Matrix::systematic_cauchy(n_total, n_data)?;
        let parity_rows = generator.select_rows(&(n_data..n_total).collect::<Vec<_>>());
        let parity_tables = tabulate(&parity_rows, n_total - n_data, n_data);
        Ok(ReedSolomon {
            n_data,
            n_total,
            parity_rows,
            generator,
            parity_tables,
            cache: Arc::new(Mutex::new(DecodeCache::default())),
            hits: Arc::new(AtomicU64::new(0)),
            misses: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Number of data shards.
    pub fn n_data(&self) -> usize {
        self.n_data
    }

    /// Total number of shards.
    pub fn n_total(&self) -> usize {
        self.n_total
    }

    /// Number of parity shards.
    pub fn n_parity(&self) -> usize {
        self.n_total - self.n_data
    }

    /// Decode-plan cache counters for this instance (clones share them).
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Encodes `n_data` equal-length data shards into `n_total` shards.
    ///
    /// The returned vector starts with the data shards (copies of the
    /// input) followed by the computed parity shards. Accepts anything
    /// byte-slice-like, so callers can pass borrowed sub-slices of a single
    /// framed buffer without first materialising owned shards.
    pub fn encode<T: AsRef<[u8]>>(&self, data: &[T]) -> Result<Vec<Vec<u8>>, CodecError> {
        if data.len() != self.n_data {
            return Err(CodecError::InvalidShardCounts {
                n_data: data.len(),
                n_total: self.n_total,
            });
        }
        let inputs: Vec<&[u8]> = data.iter().map(AsRef::as_ref).collect();
        let shard_len = inputs[0].len();
        if inputs.iter().any(|d| d.len() != shard_len) {
            return Err(CodecError::InconsistentChunkSize);
        }
        let mut out = Vec::with_capacity(self.n_total);
        out.extend(inputs.iter().map(|d| d.to_vec()));
        out.extend(apply_matrix(
            &self.parity_rows,
            &self.parity_tables,
            self.n_parity(),
            &inputs,
            shard_len,
        ));
        Ok(out)
    }

    /// Reconstructs the `n_data` data shards from any `n_data` surviving
    /// shards. `shards[i]` is `Some` if shard `i` was received.
    ///
    /// On success the returned vector holds the data shards in order.
    /// Missing *data* shards are recomputed; surviving ones are moved out of
    /// the input untouched.
    pub fn reconstruct_data(
        &self,
        shards: &mut [Option<Vec<u8>>],
    ) -> Result<Vec<Vec<u8>>, CodecError> {
        self.check_received(shards.len(), shards.iter().filter(|s| s.is_some()).count())?;
        // Fast path: all data shards survived — move them out, no math.
        if shards[..self.n_data].iter().all(|s| s.is_some()) {
            let lens: Vec<usize> = shards.iter().flatten().map(|s| s.len()).collect();
            if lens.windows(2).any(|w| w[0] != w[1]) {
                return Err(CodecError::InconsistentChunkSize);
            }
            return Ok(shards[..self.n_data]
                .iter_mut()
                .map(|s| s.take().expect("checked above"))
                .collect());
        }
        self.reconstruct_data_from(&*shards)
    }

    /// Borrow-based reconstruction: rebuilds the `n_data` data shards from
    /// any `n_data` surviving shards without taking ownership of the input.
    ///
    /// This is the zero-copy entry point used by the replication engine:
    /// received chunks stay in their network buffers and are only read.
    pub fn reconstruct_data_from<T: AsRef<[u8]>>(
        &self,
        shards: &[Option<T>],
    ) -> Result<Vec<Vec<u8>>, CodecError> {
        let have = shards.iter().filter(|s| s.is_some()).count();
        self.check_received(shards.len(), have)?;

        let received: Vec<Option<&[u8]>> = shards
            .iter()
            .map(|s| s.as_ref().map(AsRef::as_ref))
            .collect();
        let shard_len = received.iter().flatten().map(|s| s.len()).next().ok_or(
            CodecError::NotEnoughChunks {
                have: 0,
                need: self.n_data,
            },
        )?;
        if received.iter().flatten().any(|s| s.len() != shard_len) {
            return Err(CodecError::InconsistentChunkSize);
        }

        // Fast path: all data shards survived.
        if received[..self.n_data].iter().all(|s| s.is_some()) {
            return Ok(received[..self.n_data]
                .iter()
                .map(|s| s.expect("checked above").to_vec())
                .collect());
        }

        // Pick the first n_data available shard indices; fetch (or build)
        // the inverted generator rows; multiply to recover the data.
        let picked: Vec<usize> = (0..self.n_total)
            .filter(|&i| received[i].is_some())
            .take(self.n_data)
            .collect();
        let plan = self.decode_plan(picked)?;
        let inputs: Vec<&[u8]> = plan
            .picked
            .iter()
            .map(|&i| received[i].expect("picked only Some"))
            .collect();
        Ok(apply_matrix(
            &plan.coeffs,
            &plan.tables,
            self.n_data,
            &inputs,
            shard_len,
        ))
    }

    /// Looks up the decode plan for `picked` in the LRU, building and
    /// inserting it on a miss.
    fn decode_plan(&self, picked: Vec<usize>) -> Result<Arc<DecodePlan>, CodecError> {
        let key: Box<[u8]> = picked.iter().map(|&i| i as u8).collect();
        if let Some(plan) = self.cache.lock().expect("decode cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            GLOBAL_HITS.fetch_add(1, Ordering::Relaxed);
            return Ok(plan);
        }
        // Invert and tabulate outside the lock: inversion is O(n_data^3)
        // and concurrent decodes of *different* patterns shouldn't serialise.
        self.misses.fetch_add(1, Ordering::Relaxed);
        GLOBAL_MISSES.fetch_add(1, Ordering::Relaxed);
        let coeffs = self.generator.select_rows(&picked).inverse()?;
        let tables = tabulate(&coeffs, self.n_data, self.n_data);
        let plan = Arc::new(DecodePlan {
            picked,
            coeffs,
            tables,
        });
        self.cache
            .lock()
            .expect("decode cache poisoned")
            .insert(key, plan.clone());
        Ok(plan)
    }

    fn check_received(&self, total: usize, have: usize) -> Result<(), CodecError> {
        if total != self.n_total {
            return Err(CodecError::InvalidShardCounts {
                n_data: self.n_data,
                n_total: total,
            });
        }
        if have < self.n_data {
            return Err(CodecError::NotEnoughChunks {
                have,
                need: self.n_data,
            });
        }
        Ok(())
    }

    /// Verifies that a full shard set is consistent with this code: parity
    /// shards must equal the re-encoding of the data shards. Used by tests
    /// and by debug assertions in the replication engine.
    pub fn verify(&self, shards: &[Vec<u8>]) -> Result<bool, CodecError> {
        if shards.len() != self.n_total {
            return Err(CodecError::InvalidShardCounts {
                n_data: self.n_data,
                n_total: shards.len(),
            });
        }
        let reenc = self.encode(&shards[..self.n_data])?;
        Ok(reenc == shards)
    }
}

/// Builds the product table for every coefficient of an `n_rows × n_cols`
/// matrix, row-major.
fn tabulate(m: &Matrix, n_rows: usize, n_cols: usize) -> Vec<[u8; 256]> {
    let mut tables = Vec::with_capacity(n_rows * n_cols);
    for r in 0..n_rows {
        for c in 0..n_cols {
            tables.push(crate::gf256::product_table(m.get(r, c)));
        }
    }
    tables
}

/// Computes `out[r] = Σ_k m[r][k] · inputs[k]` for `r in 0..n_rows`,
/// fanning rows out across scoped threads once the output volume justifies
/// the spawn cost.
fn apply_matrix(
    m: &Matrix,
    tables: &[[u8; 256]],
    n_rows: usize,
    inputs: &[&[u8]],
    shard_len: usize,
) -> Vec<Vec<u8>> {
    let n_cols = inputs.len();
    let one_row = |r: usize| {
        let mut out = vec![0u8; shard_len];
        for (k, src) in inputs.iter().enumerate() {
            crate::gf256::mul_acc_slice_with(&mut out, src, m.get(r, k), &tables[r * n_cols + k]);
        }
        out
    };

    // Size first: entries below the threshold never ask for the core count.
    let workers = if n_rows * shard_len < PARALLEL_MIN_BYTES {
        1
    } else {
        host_cores().min(n_rows)
    };
    if workers < 2 {
        return (0..n_rows).map(one_row).collect();
    }

    let band = n_rows.div_ceil(workers);
    let one_row = &one_row;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (lo, hi) = (w * band, ((w + 1) * band).min(n_rows));
                s.spawn(move || (lo..hi).map(one_row).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("matrix worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_shards(rng: &mut StdRng, n: usize, len: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|_| (0..len).map(|_| rng.gen()).collect())
            .collect()
    }

    #[test]
    fn encode_is_systematic() {
        let rs = ReedSolomon::new(4, 7).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let data = random_shards(&mut rng, 4, 64);
        let shards = rs.encode(&data).unwrap();
        assert_eq!(&shards[..4], &data[..]);
        assert_eq!(shards.len(), 7);
        assert!(rs.verify(&shards).unwrap());
    }

    #[test]
    fn encode_accepts_borrowed_slices() {
        let rs = ReedSolomon::new(2, 4).unwrap();
        let buf: Vec<u8> = (0..32).collect();
        let borrowed: Vec<&[u8]> = buf.chunks(16).collect();
        let owned: Vec<Vec<u8>> = buf.chunks(16).map(<[u8]>::to_vec).collect();
        assert_eq!(rs.encode(&borrowed).unwrap(), rs.encode(&owned).unwrap());
    }

    #[test]
    fn reconstruct_from_every_erasure_pattern() {
        // Exhaustively drop every possible set of n_parity shards for a
        // small code and check recovery.
        let rs = ReedSolomon::new(3, 6).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let data = random_shards(&mut rng, 3, 32);
        let shards = rs.encode(&data).unwrap();

        for mask in 0u32..(1 << 6) {
            if mask.count_ones() != 3 {
                continue; // keep exactly n_data shards
            }
            let mut received: Vec<Option<Vec<u8>>> = shards
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    if mask & (1 << i) != 0 {
                        Some(s.clone())
                    } else {
                        None
                    }
                })
                .collect();
            let rebuilt = rs.reconstruct_data(&mut received).unwrap();
            assert_eq!(rebuilt, data, "mask {mask:b}");
        }
    }

    #[test]
    fn decode_cache_hits_on_repeated_pattern() {
        let rs = ReedSolomon::new(3, 6).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let data = random_shards(&mut rng, 3, 16);
        let shards = rs.encode(&data).unwrap();
        assert_eq!(rs.cache_stats(), CacheStats { hits: 0, misses: 0 });

        let received: Vec<Option<Vec<u8>>> = shards
            .iter()
            .enumerate()
            .map(|(i, s)| if i == 0 { None } else { Some(s.clone()) })
            .collect();
        for round in 1..=3 {
            assert_eq!(rs.reconstruct_data_from(&received).unwrap(), data);
            assert_eq!(
                rs.cache_stats(),
                CacheStats {
                    hits: round - 1,
                    misses: 1
                },
                "round {round}"
            );
        }

        // A different erasure pattern is a fresh miss; clones share the
        // cache and the counters.
        let clone = rs.clone();
        let mut other = received.clone();
        other[0] = Some(shards[0].clone());
        other[1] = None;
        assert_eq!(clone.reconstruct_data_from(&other).unwrap(), data);
        assert_eq!(clone.cache_stats(), CacheStats { hits: 2, misses: 2 });
        assert_eq!(rs.cache_stats(), clone.cache_stats());
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let mut cache = DecodeCache::default();
        let dummy = || {
            Arc::new(DecodePlan {
                picked: vec![],
                coeffs: Matrix::identity(1),
                tables: vec![],
            })
        };
        for i in 0..=DECODE_CACHE_CAP as u8 {
            cache.insert(Box::new([i]), dummy());
        }
        assert_eq!(cache.entries.len(), DECODE_CACHE_CAP);
        assert!(cache.get(&[0]).is_none(), "oldest entry evicted");
        assert!(cache.get(&[DECODE_CACHE_CAP as u8]).is_some());
        // Touching an old entry protects it from the next eviction.
        assert!(cache.get(&[1]).is_some());
        cache.insert(Box::new([99]), dummy());
        assert!(cache.get(&[1]).is_some());
        assert!(cache.get(&[2]).is_none());
    }

    #[test]
    fn not_enough_shards_is_an_error() {
        let rs = ReedSolomon::new(4, 7).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; 7];
        shards[0] = Some(vec![1; 8]);
        shards[1] = Some(vec![2; 8]);
        shards[6] = Some(vec![3; 8]);
        assert_eq!(
            rs.reconstruct_data(&mut shards).unwrap_err(),
            CodecError::NotEnoughChunks { have: 3, need: 4 }
        );
    }

    #[test]
    fn inconsistent_sizes_rejected() {
        let rs = ReedSolomon::new(2, 4).unwrap();
        assert_eq!(
            rs.encode(&[vec![1, 2], vec![3]]).unwrap_err(),
            CodecError::InconsistentChunkSize
        );
        let mut shards = vec![Some(vec![1, 2]), Some(vec![3]), None, None];
        assert_eq!(
            rs.reconstruct_data(&mut shards).unwrap_err(),
            CodecError::InconsistentChunkSize
        );
        // The parity-using path checks too.
        let shards = vec![None, Some(vec![1, 2]), Some(vec![3]), None];
        assert_eq!(
            rs.reconstruct_data_from(&shards).unwrap_err(),
            CodecError::InconsistentChunkSize
        );
    }

    #[test]
    fn corrupted_shard_rebuilds_wrong_data() {
        // The paper's §IV-C relies on this: RS cannot detect corruption,
        // only the PBFT certificate check can. A flipped byte in a used
        // shard must produce a *different* (wrong) reconstruction.
        let rs = ReedSolomon::new(4, 8).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let data = random_shards(&mut rng, 4, 16);
        let shards = rs.encode(&data).unwrap();

        let mut received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        received[0] = None; // force the decode path to use parity
        received[4].as_mut().unwrap()[0] ^= 0xff; // corrupt a parity shard
        received[5] = None;
        received[6] = None;
        received[7] = None;
        let rebuilt = rs.reconstruct_data(&mut received).unwrap();
        assert_ne!(rebuilt, data);
    }

    #[test]
    fn paper_case_study_dimensions() {
        // Fig. 5b: n_total = lcm(4,7) = 28, parity = 1*7 + 2*4 = 15,
        // data = 13 → ~2.15 entry copies of WAN traffic.
        let rs = ReedSolomon::new(13, 28).unwrap();
        assert_eq!(rs.n_parity(), 15);
        let mut rng = StdRng::seed_from_u64(4);
        let data = random_shards(&mut rng, 13, 100);
        let shards = rs.encode(&data).unwrap();

        // Worst case: lose the 15 chunks touched by faulty nodes.
        let mut received: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        for lost in [21, 22, 23, 24, 25, 26, 27, 0, 1, 2, 3, 8, 9, 10, 11] {
            received[lost] = None;
        }
        assert_eq!(rs.reconstruct_data(&mut received).unwrap(), data);
    }

    #[test]
    fn no_data_loss_uses_fast_path() {
        let rs = ReedSolomon::new(4, 7).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let data = random_shards(&mut rng, 4, 10);
        let shards = rs.encode(&data).unwrap();
        let mut received: Vec<Option<Vec<u8>>> = shards
            .iter()
            .take(4)
            .cloned()
            .map(Some)
            .chain([None, None, None])
            .collect();
        assert_eq!(rs.reconstruct_data(&mut received).unwrap(), data);
        // Fast path takes the shards out of the input.
        assert!(received[..4].iter().all(|s| s.is_none()));
        // And it never touches the decode-plan cache.
        assert_eq!(rs.cache_stats(), CacheStats::default());
    }

    #[test]
    fn parallel_threshold_shards_match_sequential() {
        // Shards big enough to cross PARALLEL_MIN_BYTES must produce the
        // same bytes as the sequential path (exercised by tiny shards).
        let rs = ReedSolomon::new(4, 8).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let shard_len = PARALLEL_MIN_BYTES / 2; // 4 parity rows → 2× threshold
        let data = random_shards(&mut rng, 4, shard_len);
        let big = rs.encode(&data).unwrap();
        // Reference: compute each parity byte column-wise with scalar ops.
        for p in 0..4 {
            for i in (0..shard_len).step_by(shard_len / 13) {
                let mut want = 0u8;
                for (j, d) in data.iter().enumerate() {
                    want ^= crate::gf256::mul(rs.parity_rows.get(p, j), d[i]);
                }
                assert_eq!(big[4 + p][i], want, "parity {p} byte {i}");
            }
        }
        // Parallel reconstruction agrees as well.
        let mut received: Vec<Option<Vec<u8>>> = big.into_iter().map(Some).collect();
        received[0] = None;
        received[2] = None;
        assert_eq!(rs.reconstruct_data(&mut received).unwrap(), data);
    }

    #[test]
    fn below_threshold_never_resolves_the_core_count() {
        // A 9.5 KB and a 100 KB entry over the 4-of-7-node geometry: both
        // stay under PARALLEL_MIN_BYTES on encode and on reconstruction.
        let rs = ReedSolomon::new(13, 28).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let before = CORE_LOOKUPS.with(|c| c.get());
        for shard_len in [9_500 / 13, 100_000 / 13] {
            let data = random_shards(&mut rng, 13, shard_len);
            let shards = rs.encode(&data).unwrap();
            let received: Vec<Option<&[u8]>> = shards
                .iter()
                .enumerate()
                .map(|(i, s)| (i >= 2).then_some(s.as_slice()))
                .collect();
            assert_eq!(rs.reconstruct_data_from(&received).unwrap(), data);
        }
        assert_eq!(CORE_LOOKUPS.with(|c| c.get()), before);
        // Above it the count is asked for, once per matrix application.
        let data = random_shards(&mut rng, 13, PARALLEL_MIN_BYTES / 13);
        rs.encode(&data).unwrap();
        assert_eq!(CORE_LOOKUPS.with(|c| c.get()), before + 1);
    }

    #[test]
    fn single_shard_code_is_degenerate_copy() {
        let rs = ReedSolomon::new(1, 1).unwrap();
        let shards = rs.encode(&[vec![9, 9]]).unwrap();
        assert_eq!(shards, vec![vec![9, 9]]);
    }
}
