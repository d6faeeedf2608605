//! Length-framed entry chunking.
//!
//! A log entry is an arbitrary byte string, but Reed-Solomon wants
//! `n_data` shards of identical length. [`EntryCodec`] frames the entry
//! with its length, pads it to a multiple of `n_data`, splits it, encodes,
//! and performs the inverse on rebuild. The frame also acts as a cheap
//! sanity check: a rebuilt payload whose length prefix disagrees with the
//! shard geometry is reported as [`CodecError::CorruptFrame`] (the PBFT
//! certificate remains the authoritative integrity check, per paper §IV-C).
//!
//! Because every [`crate::rs::ReedSolomon`] carries precomputed coefficient
//! tables and a decode-plan cache, constructing codecs per call throws that
//! state away. [`EntryCodec::shared`] hands out one process-wide instance
//! per `(n_data, n_total)` geometry instead; the replication engine uses it
//! for every transfer.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use bytes::Bytes;

use crate::{
    rs::{CacheStats, ReedSolomon},
    CodecError,
};

/// Frame header: payload length as a little-endian u64.
const FRAME_HEADER: usize = 8;

/// Process-wide codec registry, keyed by `(n_data, n_total)`.
type CodecRegistry = Mutex<HashMap<(usize, usize), Arc<EntryCodec>>>;
static REGISTRY: OnceLock<CodecRegistry> = OnceLock::new();

/// Splits entries into Reed-Solomon chunks and rebuilds them.
#[derive(Debug, Clone)]
pub struct EntryCodec {
    rs: ReedSolomon,
}

impl EntryCodec {
    /// Creates a codec with `n_data` data chunks out of `n_total` total.
    pub fn new(n_data: usize, n_total: usize) -> Result<Self, CodecError> {
        Ok(EntryCodec {
            rs: ReedSolomon::new(n_data, n_total)?,
        })
    }

    /// Returns the process-wide shared codec for this geometry, creating it
    /// on first use.
    ///
    /// All callers of the same `(n_data, n_total)` pair share one instance
    /// — and therefore one set of coefficient tables and one decode-plan
    /// cache — instead of re-deriving the generator matrix per transfer.
    pub fn shared(n_data: usize, n_total: usize) -> Result<Arc<EntryCodec>, CodecError> {
        let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = registry.lock().expect("codec registry poisoned");
        if let Some(codec) = map.get(&(n_data, n_total)) {
            return Ok(codec.clone());
        }
        let codec = Arc::new(EntryCodec::new(n_data, n_total)?);
        map.insert((n_data, n_total), codec.clone());
        Ok(codec)
    }

    /// Number of data chunks.
    pub fn n_data(&self) -> usize {
        self.rs.n_data()
    }

    /// Total number of chunks.
    pub fn n_total(&self) -> usize {
        self.rs.n_total()
    }

    /// Decode-plan cache counters of the underlying code (see
    /// [`ReedSolomon::cache_stats`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.rs.cache_stats()
    }

    /// The per-chunk size for an entry of `entry_len` bytes.
    pub fn chunk_size(&self, entry_len: usize) -> usize {
        let framed = entry_len + FRAME_HEADER;
        framed.div_ceil(self.rs.n_data())
    }

    /// The WAN amplification factor of this code: total bytes transmitted
    /// divided by entry bytes, i.e. `n_total / n_data` (paper: ≈2.15 for
    /// the 4→7 case study).
    pub fn amplification(&self) -> f64 {
        self.rs.n_total() as f64 / self.rs.n_data() as f64
    }

    /// Encodes `entry` into `n_total` equal-size chunks.
    pub fn encode(&self, entry: &[u8]) -> Result<Vec<Vec<u8>>, CodecError> {
        if entry.is_empty() {
            return Err(CodecError::EmptyEntry);
        }
        let n_data = self.rs.n_data();
        let chunk = self.chunk_size(entry.len());
        let mut framed = Vec::with_capacity(chunk * n_data);
        framed.extend_from_slice(&(entry.len() as u64).to_le_bytes());
        framed.extend_from_slice(entry);
        framed.resize(chunk * n_data, 0);

        // Borrowed sub-slices of the framed buffer go straight into the
        // encoder; the data shards are materialised once, in the output.
        let data: Vec<&[u8]> = framed.chunks(chunk).collect();
        self.rs.encode(&data)
    }

    /// Rebuilds the entry from any `n_data` received chunks.
    ///
    /// `chunks[i] = Some(bytes)` if chunk `i` arrived. The input is only
    /// read; use [`EntryCodec::decode_from`] directly when the chunks are
    /// borrowed from network buffers.
    pub fn decode(&self, chunks: &mut [Option<Vec<u8>>]) -> Result<Bytes, CodecError> {
        self.decode_from(chunks)
    }

    /// Borrow-based rebuild: accepts anything byte-slice-like so received
    /// chunks can stay in their network buffers (e.g. `Option<Bytes>`)
    /// while the entry is reassembled. The entry comes back as a window
    /// into the one buffer the shards were reassembled in — the frame
    /// header and padding are stepped over, not copied away.
    pub fn decode_from<T: AsRef<[u8]>>(&self, chunks: &[Option<T>]) -> Result<Bytes, CodecError> {
        let data = self.rs.reconstruct_data_from(chunks)?;
        let mut framed: Vec<u8> = Vec::with_capacity(data.len() * data[0].len());
        for shard in &data {
            framed.extend_from_slice(shard);
        }
        if framed.len() < FRAME_HEADER {
            return Err(CodecError::CorruptFrame);
        }
        let len = u64::from_le_bytes(framed[..FRAME_HEADER].try_into().expect("8 bytes")) as usize;
        if len == 0 || FRAME_HEADER + len > framed.len() {
            return Err(CodecError::CorruptFrame);
        }
        // Padding must be zero; tampered shards frequently violate this,
        // letting us reject cheaply before the certificate check.
        if framed[FRAME_HEADER + len..].iter().any(|&b| b != 0) {
            return Err(CodecError::CorruptFrame);
        }
        Ok(Bytes::from(framed).slice(FRAME_HEADER..FRAME_HEADER + len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_simple() {
        let codec = EntryCodec::new(4, 7).unwrap();
        let entry = b"hello world".to_vec();
        let chunks = codec.encode(&entry).unwrap();
        assert_eq!(chunks.len(), 7);
        let mut received: Vec<Option<Vec<u8>>> = chunks.into_iter().map(Some).collect();
        assert_eq!(codec.decode(&mut received).unwrap(), entry);
    }

    #[test]
    fn roundtrip_with_max_erasures() {
        let codec = EntryCodec::new(4, 7).unwrap();
        let entry: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let chunks = codec.encode(&entry).unwrap();
        let mut received: Vec<Option<Vec<u8>>> = chunks.into_iter().map(Some).collect();
        received[0] = None;
        received[2] = None;
        received[5] = None;
        assert_eq!(codec.decode(&mut received).unwrap(), entry);
    }

    #[test]
    fn shared_returns_one_instance_per_geometry() {
        let a = EntryCodec::shared(6, 11).unwrap();
        let b = EntryCodec::shared(6, 11).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let c = EntryCodec::shared(6, 12).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        // Invalid geometries don't pollute the registry.
        assert!(EntryCodec::shared(0, 4).is_err());
        assert!(EntryCodec::shared(4, 300).is_err());
    }

    #[test]
    fn decode_from_borrowed_chunks() {
        let codec = EntryCodec::new(3, 5).unwrap();
        let entry = vec![0xabu8; 333];
        let chunks = codec.encode(&entry).unwrap();
        let borrowed: Vec<Option<&[u8]>> = chunks
            .iter()
            .enumerate()
            .map(|(i, c)| if i == 1 { None } else { Some(c.as_slice()) })
            .collect();
        assert_eq!(codec.decode_from(&borrowed).unwrap(), entry);
    }

    #[test]
    fn empty_entry_rejected() {
        let codec = EntryCodec::new(2, 4).unwrap();
        assert_eq!(codec.encode(&[]).unwrap_err(), CodecError::EmptyEntry);
    }

    #[test]
    fn entry_smaller_than_n_data_still_works() {
        let codec = EntryCodec::new(13, 28).unwrap();
        let entry = vec![42u8];
        let chunks = codec.encode(&entry).unwrap();
        let mut received: Vec<Option<Vec<u8>>> = chunks.into_iter().map(Some).collect();
        assert_eq!(codec.decode(&mut received).unwrap(), entry);
    }

    #[test]
    fn amplification_matches_paper_case_study() {
        let codec = EntryCodec::new(13, 28).unwrap();
        let a = codec.amplification();
        assert!((a - 28.0 / 13.0).abs() < 1e-12);
        assert!(a > 2.15 && a < 2.16);
    }

    #[test]
    fn tampered_length_prefix_detected() {
        let codec = EntryCodec::new(2, 4).unwrap();
        let entry = vec![7u8; 50];
        let mut chunks = codec.encode(&entry).unwrap();
        // Chunk 0 starts with the length frame; blow it up.
        chunks[0][0] = 0xff;
        chunks[0][4] = 0xff;
        let mut received: Vec<Option<Vec<u8>>> = chunks.into_iter().map(Some).collect();
        assert_eq!(
            codec.decode(&mut received).unwrap_err(),
            CodecError::CorruptFrame
        );
    }

    #[test]
    fn chunk_size_is_minimal_cover() {
        let codec = EntryCodec::new(4, 7).unwrap();
        // framed = len + 8, divided among 4 chunks, rounded up.
        assert_eq!(codec.chunk_size(8), 4);
        assert_eq!(codec.chunk_size(9), 5);
        assert_eq!(codec.chunk_size(100), 27);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_any_entry_any_erasures(
            entry in proptest::collection::vec(any::<u8>(), 1..2048),
            n_data in 1usize..20,
            extra_parity in 0usize..12,
            seed in any::<u64>(),
        ) {
            let n_total = n_data + extra_parity;
            let codec = EntryCodec::new(n_data, n_total).unwrap();
            let chunks = codec.encode(&entry).unwrap();
            prop_assert_eq!(chunks.len(), n_total);

            // Drop a pseudo-random set of `extra_parity` chunks.
            use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut order: Vec<usize> = (0..n_total).collect();
            order.shuffle(&mut rng);
            let mut received: Vec<Option<Vec<u8>>> = chunks.into_iter().map(Some).collect();
            for &drop in order.iter().take(extra_parity) {
                received[drop] = None;
            }
            let rebuilt = codec.decode(&mut received).unwrap();
            prop_assert_eq!(rebuilt, entry);
        }

        #[test]
        fn prop_all_chunks_same_size(
            entry in proptest::collection::vec(any::<u8>(), 1..512),
            n_data in 1usize..16,
            parity in 0usize..8,
        ) {
            let codec = EntryCodec::new(n_data, n_data + parity).unwrap();
            let chunks = codec.encode(&entry).unwrap();
            let size = chunks[0].len();
            prop_assert!(chunks.iter().all(|c| c.len() == size));
            prop_assert_eq!(size, codec.chunk_size(entry.len()));
        }

        #[test]
        fn prop_decode_cache_hit_and_miss_agree(
            entry in proptest::collection::vec(any::<u8>(), 1..1024),
            seed in any::<u64>(),
        ) {
            // A fresh codec decodes a random erasure pattern twice: the
            // first pass misses the decode-plan cache, the second hits it,
            // and both must return the identical entry.
            let codec = EntryCodec::new(5, 9).unwrap();
            let chunks = codec.encode(&entry).unwrap();

            use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut order: Vec<usize> = (0..9).collect();
            order.shuffle(&mut rng);
            let mut received: Vec<Option<Vec<u8>>> = chunks.into_iter().map(Some).collect();
            for &drop in order.iter().take(4) {
                received[drop] = None;
            }
            // Guarantee the matrix path: at least one data chunk must be
            // missing, else the all-data fast path skips the cache.
            if received[..5].iter().all(|c| c.is_some()) {
                let parity_alive = (5..9).find(|&i| received[i].is_some());
                prop_assume!(parity_alive.is_some());
                received[0] = None;
            }

            let before = codec.cache_stats();
            prop_assert_eq!(before.hits, 0);
            let first = codec.decode_from(&received).unwrap();
            let mid = codec.cache_stats();
            prop_assert_eq!(mid.misses, before.misses + 1, "first decode misses");
            let second = codec.decode_from(&received).unwrap();
            let after = codec.cache_stats();
            prop_assert_eq!(after.hits, mid.hits + 1, "second decode hits");
            prop_assert_eq!(after.misses, mid.misses, "second decode builds nothing");
            prop_assert_eq!(&first, &entry);
            prop_assert_eq!(&second, &entry);
        }
    }
}
