//! Run statistics: throughput windows, latency distributions,
//! data-plane counters (decode-cache effectiveness, residual byte
//! copies), and execution-pipeline counters (per-phase Aria timings,
//! worker utilization, abort rates — re-exported from `massbft-db`,
//! which records them at the executor hot path).
//!
//! Since the telemetry PR this module is a thin facade over the
//! process-wide [`massbft_telemetry::registry`]: the counters live there
//! (named under `core.*`), and the functions here keep their original
//! signatures. Query the registry directly for a unified snapshot.

use massbft_sim_net::Time;
use massbft_telemetry::registry::{self, Counter, Gauge};
use std::sync::OnceLock;

pub use massbft_db::stats::{exec_stats, BatchSample, ExecStats};

/// Bytes the replication data plane still copies after the zero-copy work
/// (entry framing on encode, framed reassembly + retained copy on rebuild).
/// Lives in the telemetry registry as `core.data_plane.bytes_copied`.
fn bytes_copied_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| registry::counter("core.data_plane.bytes_copied"))
}

/// Counts `n` bytes that were memcpy'd on the chunk encode/rebuild path.
/// Called by the replication layer; monotonic for the process lifetime.
pub fn record_copied_bytes(n: usize) {
    bytes_copied_counter().add(n as u64);
}

/// Process-wide data-plane counters.
///
/// Hits and misses come from the codec's decode-plan cache (one inverted
/// matrix per erasure pattern); `bytes_copied` counts the residual copies
/// the chunk path performs. All three are monotonic, so callers measure
/// deltas across a window of interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DataPlaneStats {
    /// Entry rebuilds that reused a cached decode matrix.
    pub decode_cache_hits: u64,
    /// Entry rebuilds that inverted a fresh decode matrix.
    pub decode_cache_misses: u64,
    /// Bytes memcpy'd by the encode/rebuild path.
    pub bytes_copied: u64,
}

/// Snapshot of the process-wide data-plane counters. Also mirrors the
/// codec decode-cache numbers into the registry (`core.data_plane.*`
/// gauges) so a single registry snapshot carries the whole data plane.
pub fn data_plane_stats() -> DataPlaneStats {
    static HITS: OnceLock<Gauge> = OnceLock::new();
    static MISSES: OnceLock<Gauge> = OnceLock::new();
    let cache = massbft_codec::rs::global_cache_stats();
    HITS.get_or_init(|| registry::gauge("core.data_plane.decode_cache_hits"))
        .set(cache.hits);
    MISSES
        .get_or_init(|| registry::gauge("core.data_plane.decode_cache_misses"))
        .set(cache.misses);
    DataPlaneStats {
        decode_cache_hits: cache.hits,
        decode_cache_misses: cache.misses,
        bytes_copied: bytes_copied_counter().get(),
    }
}

/// Online latency accumulator with exact percentiles (latencies are few
/// per run — one per entry — so storing them is fine).
///
/// Samples are kept in insertion order: [`LatencyStats::mean_from`]
/// windows stay valid no matter how the accumulator is queried.
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    /// Insertion-ordered samples — never reordered.
    samples: Vec<Time>,
}

impl LatencyStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample (microseconds).
    pub fn record(&mut self, latency: Time) {
        self.samples.push(latency);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
    }

    /// Mean latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.mean_us() / 1000.0
    }

    /// Mean of samples recorded at index `from` onward — windowed means
    /// for timeline plots (Fig. 15). Indices are insertion order, which
    /// percentile queries do not disturb.
    pub fn mean_from(&self, from: usize) -> f64 {
        if from >= self.samples.len() {
            return 0.0;
        }
        let slice = &self.samples[from..];
        slice.iter().sum::<u64>() as f64 / slice.len() as f64
    }

    /// The `p`-th percentile (0–100), microseconds. Sorts a copy, so the
    /// insertion-order timeline is preserved.
    pub fn percentile_us(&self, p: f64) -> Time {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }
}

/// Throughput over a measurement window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Throughput {
    /// Committed (executed) transactions in the window.
    pub txns: u64,
    /// Window length in microseconds.
    pub window_us: Time,
}

impl Throughput {
    /// Transactions per second.
    pub fn tps(&self) -> f64 {
        if self.window_us == 0 {
            return 0.0;
        }
        self.txns as f64 * 1_000_000.0 / self.window_us as f64
    }

    /// Kilotransactions per second (the paper's unit).
    pub fn ktps(&self) -> f64 {
        self.tps() / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_basics() {
        let mut s = LatencyStats::new();
        assert_eq!(s.mean_us(), 0.0);
        assert_eq!(s.percentile_us(50.0), 0);
        for v in [10, 20, 30, 40, 50] {
            s.record(v);
        }
        assert_eq!(s.count(), 5);
        assert!((s.mean_us() - 30.0).abs() < 1e-9);
        assert_eq!(s.percentile_us(0.0), 10);
        assert_eq!(s.percentile_us(50.0), 30);
        assert_eq!(s.percentile_us(100.0), 50);
        assert_eq!(s.mean_ms(), 0.03);
    }

    #[test]
    fn mean_from_windows() {
        let mut s = LatencyStats::new();
        for v in [10, 20, 90, 110] {
            s.record(v);
        }
        assert!((s.mean_from(0) - 57.5).abs() < 1e-9);
        assert!((s.mean_from(2) - 100.0).abs() < 1e-9);
        assert_eq!(s.mean_from(4), 0.0);
    }

    #[test]
    fn percentile_after_more_records_resorts() {
        let mut s = LatencyStats::new();
        s.record(100);
        assert_eq!(s.percentile_us(50.0), 100);
        s.record(1);
        assert_eq!(s.percentile_us(0.0), 1);
    }

    // Regression: percentile queries must not corrupt timeline windows.
    // The old implementation sorted `samples` in place, so a percentile
    // query silently reordered the insertion-order indices that
    // mean_from depends on.
    #[test]
    fn percentile_then_mean_from_keeps_insertion_order() {
        let mut s = LatencyStats::new();
        // Deliberately decreasing: sorting would move the big samples
        // into the tail window.
        for v in [110, 90, 20, 10] {
            s.record(v);
        }
        assert_eq!(s.percentile_us(50.0), 90); // sorted [10,20,90,110], rank 2
        assert!((s.mean_from(2) - 15.0).abs() < 1e-9);
        assert_eq!(s.percentile_us(100.0), 110);
        assert!(
            (s.mean_from(2) - 15.0).abs() < 1e-9,
            "window corrupted by percentile"
        );
        assert!((s.mean_from(0) - 57.5).abs() < 1e-9);
    }

    #[test]
    fn bytes_copied_delegates_to_registry() {
        let before = data_plane_stats().bytes_copied;
        record_copied_bytes(123);
        let after = data_plane_stats().bytes_copied;
        assert_eq!(after - before, 123);
        let reg = massbft_telemetry::registry::counter("core.data_plane.bytes_copied");
        assert_eq!(reg.get(), after);
    }

    #[test]
    fn throughput_math() {
        let t = Throughput {
            txns: 50_000,
            window_us: 1_000_000,
        };
        assert!((t.tps() - 50_000.0).abs() < 1e-9);
        assert!((t.ktps() - 50.0).abs() < 1e-9);
        let zero = Throughput::default();
        assert_eq!(zero.tps(), 0.0);
    }
}
