//! One cheap, keyed hash for the node's in-memory tables.
//!
//! The store used to hash every key three ways: FNV for the shard, SipHash
//! for the shard's table, SipHash again for the fingerprint. The last is
//! part of every ledger head and stays; the other two are this function —
//! a folded 64×64→128-bit multiply (one `mul` on x86-64) per input word and
//! a keyed finish. [`key_hash`] runs it under a fixed key, for shard
//! selection, which must agree across stores and lanes; [`KeyHash`] runs it
//! under a key drawn per map from `RandomState`, so table layout cannot be
//! predicted from outside the process. A [`FastMap`]'s iteration order is
//! as unspecified as a default `HashMap`'s: sort, or do not iterate.

use std::collections::hash_map::{HashMap, RandomState};
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` hashed by [`KeyHash`].
pub type FastMap<K, V> = HashMap<K, V, KeyHash>;

const MULTIPLE: u64 = 0x9e37_79b9_7f4a_7c15;

#[inline]
fn folded_mul(a: u64, b: u64) -> u64 {
    let wide = (a as u128) * (b as u128);
    (wide as u64) ^ ((wide >> 64) as u64)
}

/// Per-map key; builds [`KeyHasher`]s.
#[derive(Debug, Clone, Copy)]
pub struct KeyHash(u64);

impl Default for KeyHash {
    fn default() -> Self {
        KeyHash(RandomState::new().build_hasher().finish())
    }
}

impl BuildHasher for KeyHash {
    type Hasher = KeyHasher;

    #[inline]
    fn build_hasher(&self) -> KeyHasher {
        KeyHasher(self.0, self.0.rotate_left(32) | 1)
    }
}

/// Running state and the finishing pad.
pub struct KeyHasher(u64, u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Whole words while more than two remain, then the last 1..=16
        // bytes as two possibly overlapping reads: no byte-wise tail.
        let word = |s: &[u8]| u64::from_le_bytes(s[..8].try_into().expect("8 bytes"));
        let half = |s: &[u8]| u32::from_le_bytes(s[..4].try_into().expect("4 bytes")) as u64;
        let mut rest = bytes;
        while rest.len() > 16 {
            self.write_u64(word(rest));
            rest = &rest[8..];
        }
        let n = rest.len();
        let (a, b) = match n {
            8.. => (word(rest), word(&rest[n - 8..])),
            4.. => (half(rest), half(&rest[n - 4..])),
            1.. => (
                rest[0] as u64,
                (rest[n / 2] as u64) << 8 | rest[n - 1] as u64,
            ),
            0 => (0, 0),
        };
        self.write_u64(a.wrapping_add(bytes.len() as u64));
        self.write_u64(b);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = folded_mul(self.0 ^ v, MULTIPLE);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        folded_mul(self.0, self.1).rotate_left((self.0 & 63) as u32)
    }
}

/// `key` hashed under a fixed key: the store takes its shard index and the
/// executor its reservation stripe from disjoint bits of it.
#[inline]
pub(crate) fn key_hash(key: &[u8]) -> u64 {
    let mut h = KeyHash(MULTIPLE).build_hasher();
    h.write(key);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_hash_equal_and_maps_work() {
        let mut m: FastMap<Vec<u8>, u32> = FastMap::default();
        for i in 0..1000u32 {
            m.insert(format!("y:{i}:3").into_bytes(), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(b"y:417:3".as_slice()), Some(&417));
        assert_eq!(m.get(b"y:417:4".as_slice()), None);
        assert_eq!(key_hash(b"abc"), key_hash(b"abc"));
    }

    #[test]
    fn every_output_bit_range_spreads() {
        // Sequential keys — the worst realistic input — must fill the low
        // bits (table index), the top seven (hashbrown's tag) and the
        // middle ranges the shard and stripe selectors read.
        for shift in [0u32, 32, 40, 57] {
            let mut seen = [0u32; 32];
            for i in 0..4096u64 {
                let h = key_hash(format!("y:{i}:0").as_bytes());
                seen[((h >> shift) & 31) as usize] += 1;
            }
            assert!(
                seen.iter().all(|&c| (64..=192).contains(&c)),
                "bits {shift}..: {seen:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_and_length_matter() {
        assert_ne!(key_hash(b"12345678"), key_hash(b"12345678\0"));
        assert_ne!(key_hash(b"a"), key_hash(b"a\0"));
        assert_ne!(key_hash(b"123456789"), key_hash(b"12345678"));
    }

    #[test]
    fn maps_are_keyed_apart() {
        let (a, b) = (KeyHash::default(), KeyHash::default());
        assert_ne!(a.hash_one(7u64), b.hash_one(7u64));
    }
}
