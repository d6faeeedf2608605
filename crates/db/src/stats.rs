//! Process-wide execution-pipeline counters.
//!
//! Since the telemetry PR these counters live in the
//! [`massbft_telemetry::registry`] under `db.exec.*`; this module is the
//! facade that keeps the original `record_batch` / `exec_stats` API. The
//! executor records one sample per batch ([`record_batch`]); the worker
//! pool feeds per-task busy time ([`record_busy_ns`]) so utilization can
//! be computed as `busy / (wall × workers)` over every batch: serial
//! batches count their single inline lane as fully busy (one lane, one
//! wall of work), so workers=1 honestly reports ~1.0 instead of 0.

use massbft_telemetry::registry::{counter, Counter};
use std::sync::OnceLock;

/// The registry handles, resolved once per process.
struct Counters {
    batches: Counter,
    parallel_batches: Counter,
    txns: Counter,
    committed: Counter,
    conflict_aborted: Counter,
    logic_aborted: Counter,
    execute_ns: Counter,
    reserve_ns: Counter,
    commit_ns: Counter,
    fallback_ns: Counter,
    fallback_committed: Counter,
    busy_ns: Counter,
    capacity_ns: Counter,
}

fn counters() -> &'static Counters {
    static C: OnceLock<Counters> = OnceLock::new();
    C.get_or_init(|| Counters {
        batches: counter("db.exec.batches"),
        parallel_batches: counter("db.exec.parallel_batches"),
        txns: counter("db.exec.txns"),
        committed: counter("db.exec.committed"),
        conflict_aborted: counter("db.exec.conflict_aborted"),
        logic_aborted: counter("db.exec.logic_aborted"),
        execute_ns: counter("db.exec.execute_ns"),
        reserve_ns: counter("db.exec.reserve_ns"),
        commit_ns: counter("db.exec.commit_ns"),
        fallback_ns: counter("db.exec.fallback_ns"),
        fallback_committed: counter("db.exec.fallback_committed"),
        busy_ns: counter("db.exec.busy_ns"),
        capacity_ns: counter("db.exec.capacity_ns"),
    })
}

/// One executed batch, as recorded by the Aria executor.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchSample {
    /// Transactions in the batch.
    pub txns: u64,
    /// Committed transactions.
    pub committed: u64,
    /// Conflict (WAW/RAW) aborts.
    pub conflict_aborted: u64,
    /// Logic-level aborts.
    pub logic_aborted: u64,
    /// Wall time of the snapshot-execution phase.
    pub execute_ns: u64,
    /// Wall time of the reservation phase.
    pub reserve_ns: u64,
    /// Wall time of the commit-check + apply phase.
    pub commit_ns: u64,
    /// Wall time of the deterministic abort-fallback phase (0 when the
    /// fallback is disabled or nothing aborted).
    pub fallback_ns: u64,
    /// Conflict-aborted transactions rescued by the fallback re-run.
    pub fallback_committed: u64,
    /// Worker lanes actually used (1 = serial path).
    pub workers: u64,
}

/// Records one batch's timings and outcome counts.
pub fn record_batch(s: BatchSample) {
    let c = counters();
    c.batches.inc();
    c.txns.add(s.txns);
    c.committed.add(s.committed);
    c.conflict_aborted.add(s.conflict_aborted);
    c.logic_aborted.add(s.logic_aborted);
    c.execute_ns.add(s.execute_ns);
    c.reserve_ns.add(s.reserve_ns);
    c.commit_ns.add(s.commit_ns);
    c.fallback_ns.add(s.fallback_ns);
    c.fallback_committed.add(s.fallback_committed);
    // Capacity accrues for every batch so utilization is honest at any
    // width. The fallback re-run is inherently single-lane, so it
    // contributes one lane of capacity and one lane of busy time; on the
    // serial path the inline lane is likewise busy for the whole wall
    // (the pool's busy counters only see spawned tasks).
    let wall = s.execute_ns + s.reserve_ns + s.commit_ns;
    if s.workers > 1 {
        c.parallel_batches.inc();
        c.capacity_ns
            .add(wall.saturating_mul(s.workers).saturating_add(s.fallback_ns));
        c.busy_ns.add(s.fallback_ns);
    } else {
        c.capacity_ns.add(wall + s.fallback_ns);
        c.busy_ns.add(wall + s.fallback_ns);
    }
}

/// Adds per-task busy time measured inside the worker pool.
pub fn record_busy_ns(ns: u64) {
    counters().busy_ns.add(ns);
}

/// Snapshot of the execution counters since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// Batches executed.
    pub batches: u64,
    /// Batches that took the parallel path (effective workers > 1).
    pub parallel_batches: u64,
    /// Transactions executed (including aborted ones).
    pub txns: u64,
    /// Committed transactions.
    pub committed: u64,
    /// Conflict (WAW/RAW) aborts.
    pub conflict_aborted: u64,
    /// Logic-level aborts.
    pub logic_aborted: u64,
    /// Cumulative snapshot-execution phase wall time.
    pub execute_ns: u64,
    /// Cumulative reservation phase wall time.
    pub reserve_ns: u64,
    /// Cumulative commit-check + apply phase wall time.
    pub commit_ns: u64,
    /// Cumulative abort-fallback phase wall time.
    pub fallback_ns: u64,
    /// Conflict aborts rescued (committed) by the fallback re-run.
    pub fallback_committed: u64,
    /// Cumulative per-worker busy time (pool tasks, plus the inline lane
    /// of serial batches and the fallback re-run).
    pub busy_ns: u64,
    /// Cumulative `wall × workers` over all batches (serial batches count
    /// one lane).
    pub capacity_ns: u64,
}

impl ExecStats {
    /// Conflict-abort rate over all executed transactions, *before* the
    /// deterministic fallback rescues any of them — the raw contention
    /// signal of the workload.
    pub fn abort_rate(&self) -> f64 {
        if self.txns == 0 {
            0.0
        } else {
            self.conflict_aborted as f64 / self.txns as f64
        }
    }

    /// Conflict-abort rate after the fallback re-run: aborts that stayed
    /// aborted. With the fallback enabled this is what callers actually
    /// pay in retries.
    pub fn effective_abort_rate(&self) -> f64 {
        if self.txns == 0 {
            0.0
        } else {
            (self.conflict_aborted - self.fallback_committed) as f64 / self.txns as f64
        }
    }

    /// Fraction of worker capacity spent busy (0..=1) across all batches;
    /// 0 only before any batch has run.
    pub fn worker_utilization(&self) -> f64 {
        if self.capacity_ns == 0 {
            0.0
        } else {
            (self.busy_ns as f64 / self.capacity_ns as f64).min(1.0)
        }
    }

    /// Counter deltas since an earlier snapshot (for per-run reporting).
    pub fn since(&self, earlier: &ExecStats) -> ExecStats {
        ExecStats {
            batches: self.batches - earlier.batches,
            parallel_batches: self.parallel_batches - earlier.parallel_batches,
            txns: self.txns - earlier.txns,
            committed: self.committed - earlier.committed,
            conflict_aborted: self.conflict_aborted - earlier.conflict_aborted,
            logic_aborted: self.logic_aborted - earlier.logic_aborted,
            execute_ns: self.execute_ns - earlier.execute_ns,
            reserve_ns: self.reserve_ns - earlier.reserve_ns,
            commit_ns: self.commit_ns - earlier.commit_ns,
            fallback_ns: self.fallback_ns - earlier.fallback_ns,
            fallback_committed: self.fallback_committed - earlier.fallback_committed,
            busy_ns: self.busy_ns - earlier.busy_ns,
            capacity_ns: self.capacity_ns - earlier.capacity_ns,
        }
    }
}

/// Reads the current counter values.
pub fn exec_stats() -> ExecStats {
    let c = counters();
    ExecStats {
        batches: c.batches.get(),
        parallel_batches: c.parallel_batches.get(),
        txns: c.txns.get(),
        committed: c.committed.get(),
        conflict_aborted: c.conflict_aborted.get(),
        logic_aborted: c.logic_aborted.get(),
        execute_ns: c.execute_ns.get(),
        reserve_ns: c.reserve_ns.get(),
        commit_ns: c.commit_ns.get(),
        fallback_ns: c.fallback_ns.get(),
        fallback_committed: c.fallback_committed.get(),
        busy_ns: c.busy_ns.get(),
        capacity_ns: c.capacity_ns.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_sample_accumulates() {
        let before = exec_stats();
        record_batch(BatchSample {
            txns: 10,
            committed: 7,
            conflict_aborted: 2,
            logic_aborted: 1,
            execute_ns: 100,
            reserve_ns: 20,
            commit_ns: 30,
            fallback_ns: 0,
            fallback_committed: 0,
            workers: 4,
        });
        let d = exec_stats().since(&before);
        assert_eq!(d.batches, 1);
        assert_eq!(d.parallel_batches, 1);
        assert_eq!(d.txns, 10);
        assert_eq!(d.committed, 7);
        assert_eq!(d.conflict_aborted, 2);
        assert_eq!(d.logic_aborted, 1);
        assert_eq!(d.capacity_ns, 150 * 4);
        assert!((d.abort_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn serial_batches_report_full_utilization() {
        // A one-lane batch is by definition 100% busy for its wall time;
        // utilization must not read 0 just because the pool never spawned.
        let before = exec_stats();
        record_batch(BatchSample {
            txns: 5,
            committed: 5,
            execute_ns: 50,
            workers: 1,
            ..Default::default()
        });
        let d = exec_stats().since(&before);
        assert_eq!(d.parallel_batches, 0);
        assert_eq!(d.capacity_ns, 50);
        assert_eq!(d.busy_ns, 50);
        assert_eq!(d.worker_utilization(), 1.0);
    }

    #[test]
    fn fallback_time_counts_as_one_busy_lane() {
        let before = exec_stats();
        record_batch(BatchSample {
            txns: 8,
            committed: 8,
            conflict_aborted: 3,
            fallback_committed: 3,
            execute_ns: 60,
            reserve_ns: 20,
            commit_ns: 20,
            fallback_ns: 40,
            workers: 4,
            ..Default::default()
        });
        let d = exec_stats().since(&before);
        // 100 ns of fan-out wall × 4 lanes + 40 ns of single-lane fallback.
        assert_eq!(d.capacity_ns, 100 * 4 + 40);
        assert_eq!(d.busy_ns, 40); // pool busy time is recorded separately
        assert_eq!(d.fallback_committed, 3);
        assert!((d.abort_rate() - 3.0 / 8.0).abs() < 1e-12);
        assert_eq!(d.effective_abort_rate(), 0.0);
    }

    // The facade and the registry must read the same counter.
    #[test]
    fn counters_live_in_the_registry() {
        let before = exec_stats();
        record_busy_ns(17);
        assert_eq!(exec_stats().since(&before).busy_ns, 17);
        let reg = massbft_telemetry::registry::counter("db.exec.busy_ns");
        assert_eq!(reg.get(), exec_stats().busy_ns);
    }
}
