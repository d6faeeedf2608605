//! The one experiment shape every bench program runs: warm a cluster up,
//! measure a window, optionally sampling inside it — written once over
//! [`Harness<D>`], so the simulator and the TCP runtime are measured by
//! the same calls.
//!
//! This is the only place in the crate that opens or closes a
//! measurement window; the bins say *what* to run and print the result.

use massbft_core::cluster::{Driver, Harness, Report};
use massbft_sim_net::Time;
use massbft_telemetry::registry;
use std::time::Instant;

/// What one measured window produced.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The harness's own window report.
    pub report: Report,
    /// Median commit latency over the window, ms.
    pub p50_ms: f64,
    /// 99th-percentile commit latency over the window, ms.
    pub p99_ms: f64,
    /// The observer's ledger height when the window closed.
    pub ledger_height: u64,
    /// The observer's ledger head when the window closed, hex.
    pub ledger_head: String,
    /// Host seconds spent on warm-up plus window.
    pub wall_secs: f64,
}

/// Lower-case hex of `bytes`.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Runs `h` to `warm_up`, opens a window, lets `body` drive the cluster
/// through it, and closes the window. Commit-latency percentiles are
/// windowed reads of the process-wide `core.entry.commit_latency_us`
/// histogram, so back-to-back measurements in one process don't
/// contaminate each other.
pub fn measure_with<D: Driver, T>(
    h: &mut Harness<D>,
    warm_up: Time,
    body: impl FnOnce(&mut Harness<D>) -> T,
) -> (Measured, T) {
    let commit_lat = registry::histogram("core.entry.commit_latency_us");
    let t0 = Instant::now();
    h.run_until(warm_up);
    h.open_window();
    let lat_base = commit_lat.window();
    let out = body(h);
    let report = h.close_window();
    let wall_secs = t0.elapsed().as_secs_f64();
    let (ledger_height, ledger_head) = h.with_node(h.observer(), |n| {
        let l = n.ledger();
        (l.height(), hex(l.head_hash().as_bytes()))
    });
    let measured = Measured {
        report,
        p50_ms: commit_lat.percentile_since(&lat_base, 50.0) as f64 / 1e3,
        p99_ms: commit_lat.percentile_since(&lat_base, 99.0) as f64 / 1e3,
        ledger_height,
        ledger_head,
        wall_secs,
    };
    (measured, out)
}

/// `warm_up` of unmeasured running, then one measured window of length
/// `window` (both on the driver's clock).
pub fn measure<D: Driver>(h: &mut Harness<D>, warm_up: Time, window: Time) -> Measured {
    measure_with(h, warm_up, |h| h.run_until(h.now() + window)).0
}

/// Advances `h` in `step`-long strides from now to `until`, calling
/// `probe` after each: one `(instant, reading)` per stride, the last at
/// `until` when the span is a whole number of strides.
pub fn sample<D: Driver, P>(
    h: &mut Harness<D>,
    step: Time,
    until: Time,
    mut probe: impl FnMut(&Harness<D>) -> P,
) -> Vec<(Time, P)> {
    let mut points = Vec::new();
    let mut t = h.now() + step;
    while t <= until {
        h.run_until(t);
        points.push((t, probe(h)));
        t += step;
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use massbft_core::cluster::{Cluster, ClusterConfig};
    use massbft_core::protocol::Protocol;
    use massbft_sim_net::{MILLISECOND, SECOND};
    use massbft_workloads::WorkloadKind;

    /// Two groups of four, light load: commits within tens of virtual ms.
    fn tiny() -> Cluster {
        Cluster::new(
            ClusterConfig::nationwide(&[4, 4], Protocol::MassBft)
                .workload(WorkloadKind::YcsbA)
                .seed(3)
                .arrival_tps(1_000.0)
                .max_batch(50),
        )
    }

    #[test]
    fn the_window_excludes_warm_up() {
        let mut c = tiny();
        let m = measure(&mut c, SECOND / 2, SECOND / 2);
        assert_eq!(c.now(), SECOND);
        assert_eq!(m.report.throughput.window_us, SECOND / 2);
        // The observer executed during warm-up too; the report counts
        // only what the window added.
        let total = c.node(c.observer()).executed_txns();
        assert!(m.report.throughput.txns > 0);
        assert!(m.report.throughput.txns < total);
        assert!(m.report.all_nodes_consistent);
        assert!(m.p50_ms > 0.0 && m.p50_ms <= m.p99_ms);
        assert_eq!(m.ledger_height, c.node(c.observer()).ledger().height());
        assert_eq!(m.ledger_head.len(), 64);
    }

    #[test]
    fn the_same_seed_measures_the_same_ledger() {
        let a = measure(&mut tiny(), SECOND / 2, SECOND / 2);
        let b = measure(&mut tiny(), SECOND / 2, SECOND / 2);
        assert!(a.ledger_height > 0);
        assert_eq!(
            (a.ledger_height, &a.ledger_head),
            (b.ledger_height, &b.ledger_head)
        );
        assert_eq!(a.report.throughput.txns, b.report.throughput.txns);
    }

    #[test]
    fn sample_reads_once_per_step_and_ends_at_until() {
        let mut c = tiny();
        let step = 250 * MILLISECOND;
        let obs = c.observer();
        let points = sample(&mut c, step, SECOND, |c| c.node(obs).executed_txns());
        let instants: Vec<Time> = points.iter().map(|&(t, _)| t).collect();
        assert_eq!(instants, [step, 2 * step, 3 * step, SECOND]);
        assert_eq!(c.now(), SECOND);
        assert!(points.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(points[3].1 > 0);

        // Sampling inside a window leaves the window's report intact.
        let (m, inner) = measure_with(&mut c, SECOND, |c| sample(c, step, 2 * SECOND, |_| ()));
        assert_eq!(inner.len(), 4);
        assert_eq!(m.report.throughput.window_us, SECOND);
    }
}
