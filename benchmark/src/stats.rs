//! Small statistics: medians over reps and windowed, interpolated
//! percentiles over the program's log-bucketed latency histogram.

use crate::api::Histogram;
use std::collections::BTreeMap;

/// Median of `values` (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Samples recorded into a process-wide histogram between two instants.
/// Keys are bucket upper edges.
pub struct LatencyWindow {
    buckets: BTreeMap<u64, u64>,
}

/// The histogram's bucket contents right now (cumulative since start).
pub fn bucket_snapshot(h: &Histogram) -> BTreeMap<u64, u64> {
    h.nonzero_buckets().into_iter().collect()
}

impl LatencyWindow {
    /// The samples recorded between the snapshots `open` and `close`.
    pub fn between(open: &BTreeMap<u64, u64>, close: &BTreeMap<u64, u64>) -> Self {
        LatencyWindow {
            buckets: close
                .iter()
                .map(|(&edge, &n)| (edge, n - open.get(&edge).copied().unwrap_or(0)))
                .filter(|&(_, n)| n > 0)
                .collect(),
        }
    }

    pub fn count(&self) -> u64 {
        self.buckets.values().sum()
    }

    /// The `p`-th percentile (0–100), interpolated linearly inside the
    /// bucket that holds it, so a sample drifting across a bucket edge
    /// moves the result smoothly and not by a whole 3.1 % bucket.
    pub fn percentile(&self, p: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = p / 100.0 * n as f64;
        let mut seen = 0.0;
        for (&edge, &c) in &self.buckets {
            if seen + c as f64 >= rank {
                // Buckets below 32 hold one value; above, a bucket with
                // upper edge `edge` spans 2^(floor(log2 edge) - 5) values.
                let width = if edge < 32 {
                    1
                } else {
                    1u64 << (63 - edge.leading_zeros() - 5)
                };
                let lower = (edge + 1 - width) as f64;
                return lower + width as f64 * ((rank - seen) / c as f64);
            }
            seen += c as f64;
        }
        *self.buckets.keys().next_back().expect("non-empty") as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates_inside_a_bucket() {
        // One bucket [1024, 1055] holding 10 samples.
        let w = LatencyWindow::between(&BTreeMap::new(), &BTreeMap::from([(1055, 10)]));
        assert_eq!(w.count(), 10);
        assert!((w.percentile(50.0) - 1040.0).abs() < 1e-9);
        assert!((w.percentile(100.0) - 1056.0).abs() < 1e-9);
    }
}
