//! Parallel/serial execution parity.
//!
//! The hard constraint of the multi-core executor: at ANY worker count,
//! `AriaExecutor::parallel(n)` must produce the exact `BatchOutcome` and
//! post-batch store state of the serial executor — otherwise replicas
//! configured with different core counts would diverge. Exercised both
//! with a deterministic hotspot workload and a proptest over arbitrary
//! batches that mix WAW conflicts, RAW conflicts, duplicate in-txn
//! writes, read-only txns, blind writes, and data-dependent logic
//! aborts. Every width and both fallback settings are explicit inputs
//! here; nothing reads the environment.

use massbft_db::{AriaExecutor, DetTransaction, KvStore, TxnEffects};

/// Small hot keyspace so arbitrary batches conflict constantly.
const KEYS: u8 = 13;

fn key(id: u8) -> Vec<u8> {
    vec![b'k', id % KEYS]
}

fn val_u64(v: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    let n = v.len().min(8);
    b[..n].copy_from_slice(&v[..n]);
    u64::from_le_bytes(b)
}

/// A synthetic read-modify-write transaction whose writes depend on its
/// snapshot reads, so stale execution would change the database bytes,
/// not just the outcome vector.
#[derive(Debug, Clone)]
struct TestTxn {
    reads: Vec<u8>,
    writes: Vec<(u8, u8)>,
    abort_if_odd: bool,
}

impl DetTransaction for TestTxn {
    fn execute(&self, view: &KvStore) -> TxnEffects {
        let mut eff = TxnEffects::default();
        let mut acc: u64 = 0;
        for &r in &self.reads {
            let k = key(r);
            acc = acc.wrapping_add(view.get(&k).map(|v| val_u64(v)).unwrap_or(0));
            eff.read(k);
        }
        if self.abort_if_odd && acc % 2 == 1 {
            eff.abort = true;
            return eff;
        }
        for &(w, d) in &self.writes {
            let k = key(w);
            let old = view.get(&k).map(|v| val_u64(v)).unwrap_or(0);
            let new = old
                .wrapping_mul(31)
                .wrapping_add(acc)
                .wrapping_add(d as u64);
            eff.write(k, new.to_le_bytes().to_vec());
        }
        eff
    }
}

/// Decodes raw fuzz bytes into transactions, 6 bytes each:
/// `[kind, r1, r2, w1, w2, delta]`.
fn decode_txns(raw: &[u8]) -> Vec<TestTxn> {
    raw.chunks_exact(6)
        .map(|c| match c[0] & 3 {
            // Classic RMW pair; may write the same key twice in one txn.
            0 => TestTxn {
                reads: vec![c[1], c[2]],
                writes: vec![(c[3], c[5]), (c[4], c[5].wrapping_add(7))],
                abort_if_odd: false,
            },
            // Read-only.
            1 => TestTxn {
                reads: vec![c[1], c[2]],
                writes: vec![],
                abort_if_odd: false,
            },
            // Blind write (no declared reads, no RAW exposure).
            2 => TestTxn {
                reads: vec![],
                writes: vec![(c[3], c[5])],
                abort_if_odd: false,
            },
            // Data-dependent logic abort.
            _ => TestTxn {
                reads: vec![c[1]],
                writes: vec![(c[3], c[5])],
                abort_if_odd: true,
            },
        })
        .collect()
}

fn seeded_store(seed: u64) -> KvStore {
    let mut s = KvStore::new();
    for id in 0..KEYS {
        let v = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(id as u64);
        s.put(key(id), v.to_le_bytes().to_vec());
    }
    s
}

/// Runs `batches` sequentially against a fresh seeded store, returning
/// the per-batch outcomes and the final store fingerprint.
fn run(
    exec: &AriaExecutor,
    seed: u64,
    batches: &[Vec<TestTxn>],
) -> (Vec<massbft_db::BatchOutcome>, u64, u64, usize) {
    let mut store = seeded_store(seed);
    let outs = batches
        .iter()
        .map(|b| exec.execute_batch(&mut store, b))
        .collect();
    (outs, store.content_hash(), store.version(), store.len())
}

/// Tiny LCG so the deterministic tests need no RNG dependency.
fn lcg_bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u8
        })
        .collect()
}

/// Chained hot batches, as `(stream seed, txns, batch size, store seed)`:
/// several batches each, so later ones run on parallel-applied state.
const HOT_INPUTS: [(u64, usize, usize, u64); 2] = [(42, 1024, 400, 9), (1234, 2000, 500, 11)];

fn hot_batches(stream_seed: u64, txns: usize, batch: usize) -> Vec<Vec<TestTxn>> {
    let txns = decode_txns(&lcg_bytes(stream_seed, 6 * txns));
    txns.chunks(batch).map(|c| c.to_vec()).collect()
}

#[test]
fn hot_batch_parity_at_many_widths() {
    for (stream_seed, txns, batch, store_seed) in HOT_INPUTS {
        let batches = hot_batches(stream_seed, txns, batch);
        let serial = run(&AriaExecutor::new(), store_seed, &batches);
        for workers in [2, 3, 4, 5, 8, 16] {
            let par = run(&AriaExecutor::parallel(workers), store_seed, &batches);
            assert_eq!(par, serial, "divergence at workers={workers} batch={batch}");
        }
    }
}

#[test]
fn conflict_heavy_small_batches_parity() {
    // Batches just over the fan-out threshold, all hammering KEYS keys.
    for batch_len in [16usize, 33, 64, 130] {
        let raw = lcg_bytes(batch_len as u64, 6 * batch_len * 4);
        let txns = decode_txns(&raw);
        let batches: Vec<Vec<TestTxn>> = txns.chunks(batch_len).map(|c| c.to_vec()).collect();
        let serial = run(&AriaExecutor::new(), 7, &batches);
        for workers in [2, 8] {
            let par = run(&AriaExecutor::parallel(workers), 7, &batches);
            assert_eq!(par, serial, "batch_len={batch_len} workers={workers}");
        }
    }
}

#[test]
fn fallback_parity_at_many_widths() {
    // The deterministic fallback re-runs the abort set against the
    // evolving store, so stale or reordered rescues would change the
    // database bytes — the strictest parity target in the suite.
    for (stream_seed, txns, batch, store_seed) in HOT_INPUTS {
        let batches = hot_batches(stream_seed, txns, batch);
        let serial = run(
            &AriaExecutor::new().with_fallback(true),
            store_seed,
            &batches,
        );
        for workers in [2, 3, 4, 5, 8, 16] {
            let par = run(
                &AriaExecutor::parallel(workers).with_fallback(true),
                store_seed,
                &batches,
            );
            assert_eq!(
                par, serial,
                "fallback divergence at workers={workers} batch={batch}"
            );
        }
        // With the fallback on, no batch leaves conflict residue behind.
        assert!(serial.0.iter().all(|o| o.conflict_aborted.is_empty()));
    }
}

mod prop {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_any_batch_any_width_matches_serial(
            raw in vec(any::<u8>(), 0..900),
            seed in any::<u64>(),
            split in 1usize..5,
        ) {
            let txns = decode_txns(&raw);
            let per = (txns.len() / split).max(1);
            let batches: Vec<Vec<TestTxn>> =
                txns.chunks(per).map(|c| c.to_vec()).collect();
            let serial = run(&AriaExecutor::new(), seed, &batches);
            let serial_fb = run(&AriaExecutor::new().with_fallback(true), seed, &batches);
            for workers in [2usize, 3, 8] {
                let par = run(&AriaExecutor::parallel(workers), seed, &batches);
                prop_assert_eq!(&par, &serial);
                let par_fb = run(
                    &AriaExecutor::parallel(workers).with_fallback(true),
                    seed,
                    &batches,
                );
                prop_assert_eq!(&par_fb, &serial_fb);
            }
        }
    }
}
