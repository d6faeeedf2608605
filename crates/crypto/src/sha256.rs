//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Streaming [`Sha256`] hasher plus a one-shot [`sha256`] convenience.
//! Whole-block input is compressed by `massbft-accel`'s SHA-NI kernel when
//! the CPU has it; otherwise a scalar multi-block path keeps the hash
//! state in locals across blocks instead of round-tripping through the
//! struct per block. This crate itself stays `forbid(unsafe_code)` — the
//! hardware dispatch lives behind the accel crate's safe API.

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`.
    ///
    /// Whole 64-byte blocks are compressed straight from `data` in a single
    /// multi-block pass that keeps the hash state in locals; only a partial
    /// trailing block is staged through the internal buffer.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        let whole = rest.len() - rest.len() % 64;
        if whole > 0 {
            compress_blocks(&mut self.state, &rest[..whole]);
            rest = &rest[whole..];
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finishes and returns the 32-byte digest.
    ///
    /// The padding — `0x80`, zeros, the 64-bit big-endian bit length — is
    /// written once after the buffered tail into a local two-block array,
    /// which is compressed as one block, or as two when fewer than the
    /// length's 8 bytes fit after the `0x80`.
    pub fn finalize(self) -> [u8; 32] {
        let mut tail = [0u8; 128];
        let n = self.buf_len;
        tail[..n].copy_from_slice(&self.buf[..n]);
        tail[n] = 0x80;
        let len = if n < 56 { 64 } else { 128 };
        tail[len - 8..len].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        let mut state = self.state;
        compress_blocks(&mut state, &tail[..len]);

        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        compress_blocks(&mut self.state, block);
    }
}

/// Compresses a run of whole 64-byte blocks into `state`.
///
/// Dispatches to the SHA-NI kernel when the CPU supports it; the scalar
/// path keeps the working variables in locals for the entire run, so a
/// long `update` pays the state load/store once instead of once per block.
///
/// # Panics
/// Debug-asserts that `data` is a multiple of 64 bytes.
fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % 64, 0, "whole blocks only");
    if massbft_accel::sha256_compress_blocks(state, data) {
        return;
    }
    let [mut h0, mut h1, mut h2, mut h3, mut h4, mut h5, mut h6, mut h7] = *state;
    for block in data.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let (mut a, mut b, mut c, mut d) = (h0, h1, h2, h3);
        let (mut e, mut f, mut g, mut h) = (h4, h5, h6, h7);
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        h0 = h0.wrapping_add(a);
        h1 = h1.wrapping_add(b);
        h2 = h2.wrapping_add(c);
        h3 = h3.wrapping_add(d);
        h4 = h4.wrapping_add(e);
        h5 = h5.wrapping_add(f);
        h6 = h6.wrapping_add(g);
        h7 = h7.wrapping_add(h);
    }
    *state = [h0, h1, h2, h3, h4, h5, h6, h7];
}

/// Compresses many independent SHA-256 lanes: lane `i`'s state absorbs
/// `blocks_per_lane` whole blocks from
/// `blocks[i * blocks_per_lane * 64 ..][.. blocks_per_lane * 64]`.
///
/// One accel dispatch (single feature check + kernel entry) covers the
/// whole batch; on hosts without SHA-NI each lane runs the scalar
/// multi-block path. The batched HMAC verifier feeds every signature of a
/// quorum certificate through here as one pass per HMAC stage.
pub(crate) fn compress_lanes(states: &mut [[u32; 8]], blocks: &[u8], blocks_per_lane: usize) {
    debug_assert_eq!(
        blocks.len(),
        states.len() * blocks_per_lane * 64,
        "whole lanes only"
    );
    if massbft_accel::sha256_compress_lanes(states, blocks, blocks_per_lane) {
        return;
    }
    let run = blocks_per_lane * 64;
    for (state, lane_blocks) in states.iter_mut().zip(blocks.chunks_exact(run.max(64))) {
        compress_blocks(state, lane_blocks);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // NIST / well-known test vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// Every length across the padding's one- and two-block cases, fed in
    /// one piece, byte by byte, split at every block boundary, in 13-byte
    /// pieces and as a Merkle inner node's 1 + 32 + rest, against FIPS
    /// 180-4's padded message built out longhand and compressed without
    /// `finalize`. The last two top up a part-full buffer, compress it and
    /// keep a leftover within one `update`.
    #[test]
    fn every_length_to_300_pads_like_the_standard() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        for n in 0..=300 {
            let msg = &data[..n];
            let mut padded = msg.to_vec();
            padded.push(0x80);
            while padded.len() % 64 != 56 {
                padded.push(0);
            }
            padded.extend_from_slice(&(n as u64 * 8).to_be_bytes());
            let mut state = H0;
            compress_blocks(&mut state, &padded);
            let standard: Vec<u8> = state.iter().flat_map(|w| w.to_be_bytes()).collect();

            let mut bytewise = Sha256::new();
            msg.iter()
                .for_each(|b| bytewise.update(std::slice::from_ref(b)));
            let mut blockwise = Sha256::new();
            msg.chunks(64).for_each(|block| blockwise.update(block));
            let mut thirteens = Sha256::new();
            msg.chunks(13).for_each(|piece| thirteens.update(piece));
            let mut node = Sha256::new();
            let (tag, rest) = msg.split_at(n.min(1));
            let (left, right) = rest.split_at(rest.len().min(32));
            [tag, left, right].iter().for_each(|part| node.update(part));
            for (how, digest) in [
                ("one-shot", sha256(msg)),
                ("byte-at-a-time", bytewise.finalize()),
                ("block-split", blockwise.finalize()),
                ("13-byte pieces", thirteens.finalize()),
                ("1 + 32 + rest", node.finalize()),
            ] {
                assert_eq!(digest[..], standard[..], "{how}, {n} bytes");
            }
        }
    }

    #[test]
    fn compress_lanes_matches_per_lane_compress() {
        for (lanes, bpl) in [(1usize, 1usize), (3, 1), (4, 2), (7, 3)] {
            let blocks: Vec<u8> = (0..lanes * bpl * 64)
                .map(|i| (i as u32).wrapping_mul(167).wrapping_add(11) as u8)
                .collect();
            let mut batched = vec![H0; lanes];
            compress_lanes(&mut batched, &blocks, bpl);
            for (l, lane_blocks) in blocks.chunks_exact(bpl * 64).enumerate() {
                let mut solo = H0;
                compress_blocks(&mut solo, lane_blocks);
                assert_eq!(batched[l], solo, "lanes={lanes} bpl={bpl} lane={l}");
            }
        }
    }
}
