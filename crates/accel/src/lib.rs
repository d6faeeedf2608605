//! Hardware-accelerated kernels for the MassBFT data plane, and the one
//! readiness wait the TCP runtime needs that `std` does not wrap.
//!
//! The rest of the workspace is `#![forbid(unsafe_code)]` (`scripts/
//! check.sh` fails on `unsafe` anywhere else); this crate is the one
//! deliberate exception, with two modules that each carry their safety
//! argument in their docs: [`poll`] (a safe [`Poller`] over `epoll`, the
//! only FFI: `epoll_create1`, `epoll_ctl` and `epoll_pwait2`, which need
//! Linux 5.11 and glibc 2.35 or later) and `x86`, which quarantines the
//! `unsafe` needed to call x86-64 SIMD intrinsics behind runtime CPU feature
//! detection, so `massbft-crypto` and `massbft-codec` can stay fully safe
//! while the replication hot path uses the hardware the evaluation
//! machines actually have:
//!
//! - **SHA-256**: the SHA-NI extension (`sha256rnds2`/`sha256msg1`/
//!   `sha256msg2`) compresses blocks ~5–8x faster than any scalar
//!   implementation — the single biggest cost in Merkle tree
//!   construction over erasure-coded chunks.
//! - **GF(256) multiply-accumulate**: the SSSE3/AVX2 `pshufb` nibble-table
//!   technique (two 16-entry lookup tables applied to the low and high
//!   nibble of each byte) processes 16/32 bytes per shuffle instead of one
//!   byte per table load — the inner loop of Reed-Solomon encode/decode.
//!
//! Every kernel function returns `bool`: `true` means the kernel ran and
//! the output is complete, `false` means the CPU lacks the feature (or the
//! build targets a non-x86 architecture) and the caller must run its
//! scalar fallback. Detection goes through
//! `std::arch::is_x86_feature_detected!`, which caches per process, so the
//! check costs an atomic load per call.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(target_os = "linux")]
pub mod poll;
#[cfg(target_arch = "x86_64")]
mod x86;

#[cfg(target_os = "linux")]
pub use poll::{Events, Interest, Poller};

/// Cores this process may run on, resolved once per process.
///
/// `std::thread::available_parallelism` re-reads the cgroup quota files on
/// every call inside a container (~17 µs); the answer cannot change while
/// the process runs, so every size-gated parallel path in the workspace
/// asks here instead — and only after its size test passed.
pub fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Compresses a run of whole 64-byte SHA-256 blocks into `state` using the
/// SHA-NI instructions.
///
/// Returns `false` (leaving `state` untouched) when SHA-NI is unavailable.
///
/// # Panics
/// Debug-asserts that `blocks` is a multiple of 64 bytes.
pub fn sha256_compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    #[cfg(target_arch = "x86_64")]
    {
        x86::sha256_compress_blocks(state, blocks)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (state, blocks);
        false
    }
}

/// Compresses many independent SHA-256 lanes in one kernel entry: lane
/// `i`'s `states[i]` absorbs `blocks_per_lane` whole 64-byte blocks taken
/// contiguously from `blocks` (lane `i` owns
/// `blocks[i * blocks_per_lane * 64 ..][.. blocks_per_lane * 64]`).
///
/// One runtime feature check and one `#[target_feature]` call cover the
/// entire batch — the quorum-certificate verifier lays every signature's
/// HMAC blocks back to back and validates a whole `2f+1` certificate per
/// pass, instead of paying the detection branch and kernel entry once per
/// signature.
///
/// Returns `false` (leaving every state untouched) when SHA-NI is
/// unavailable; `true` with no work for an empty batch.
///
/// # Panics
/// Debug-asserts that `blocks` is exactly `states.len() * blocks_per_lane`
/// blocks long.
pub fn sha256_compress_lanes(
    states: &mut [[u32; 8]],
    blocks: &[u8],
    blocks_per_lane: usize,
) -> bool {
    debug_assert_eq!(
        blocks.len(),
        states.len() * blocks_per_lane * 64,
        "whole lanes only"
    );
    if states.is_empty() || blocks_per_lane == 0 {
        return true;
    }
    #[cfg(target_arch = "x86_64")]
    {
        x86::sha256_compress_lanes(states, blocks, blocks_per_lane)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (states, blocks, blocks_per_lane);
        false
    }
}

/// Computes `dst[i] ^= table[src[i]]` over the common prefix of `dst` and
/// `src`, where `table` is the 256-entry GF(256) product table of one
/// coefficient (`table[x] == mul(c, x)`), using `pshufb` nibble lookups.
///
/// Returns `false` (leaving `dst` untouched) when SSSE3 is unavailable.
pub fn gf256_mul_acc(dst: &mut [u8], src: &[u8], table: &[u8; 256]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        x86::gf256_mul_acc(dst, src, table)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (dst, src, table);
        false
    }
}
