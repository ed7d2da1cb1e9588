//! Summary statistics for the benchmark's metrics. Percentiles are the
//! workspace's nearest-rank definition (`soma_obs::percentile_nearest_rank`).

use soma_obs::percentile_nearest_rank;

/// A tail percentile is only reported where at least this many samples
/// lie beyond it; with fewer, a lower percentile is reported instead.
pub const TAIL_MARGIN: usize = 10;

/// One reported metric value, with the sample count behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
    /// Which statistic `value` is ("median", "p95", "geomean", ...).
    pub stat: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, n: usize, stat: &str) -> Self {
        Self { name, value, unit, n, stat: stat.to_string() }
    }

    /// A single measured value (a count, a ratio, one timing).
    pub fn one(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self::new(name, value, unit, 1, "value")
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (nearest rank); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile_nearest_rank(&sorted(samples), 50.0)
}

/// The percentile actually reportable for `want` over `n` samples: the
/// highest one at or below `want` with [`TAIL_MARGIN`] samples beyond
/// it, never below the median.
pub fn reportable_percentile(want: f64, n: usize) -> f64 {
    if n <= TAIL_MARGIN {
        return 50.0;
    }
    let cap = 100.0 * (n - TAIL_MARGIN) as f64 / n as f64;
    want.min(cap.floor()).max(50.0)
}

/// `(value, percentile used)` of the tail percentile `want`.
pub fn tail(samples: &[f64], want: f64) -> (f64, f64) {
    let p = reportable_percentile(want, samples.len());
    (percentile_nearest_rank(&sorted(samples), p), p)
}

/// A median metric over `samples`.
pub fn median_metric(name: &'static str, samples: &[f64], unit: &'static str) -> Metric {
    Metric::new(name, median(samples), unit, samples.len(), "median")
}

/// A tail-percentile metric over `samples` (see [`reportable_percentile`]).
pub fn tail_metric(name: &'static str, samples: &[f64], want: f64, unit: &'static str) -> Metric {
    let (value, p) = tail(samples, want);
    Metric::new(name, value, unit, samples.len(), &format!("p{p}"))
}

/// Geometric mean of positive values; 0 when empty or any value is not
/// positive (a cost of zero means a broken result, never a real one).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| !(v > 0.0 && v.is_finite())) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `sched_cost_geomean` and `sched_latency_cycles_geomean` over the best
/// schemes' costs and latencies.
pub fn sched_metrics(costs: &[f64], latency_cycles: &[f64]) -> [Metric; 2] {
    let n = costs.len();
    [
        Metric::new("sched_cost_geomean", geomean(costs), "J.s", n, "geomean"),
        Metric::new(
            "sched_latency_cycles_geomean",
            geomean(latency_cycles),
            "cycles",
            n,
            "geomean",
        ),
    ]
}

/// Median traced wall over median untraced wall, minus one (0 without
/// samples).
pub fn overhead_ratio(traced: &[f64], untraced: &[f64]) -> f64 {
    let u = median(untraced);
    if u > 0.0 && !traced.is_empty() {
        median(traced) / u - 1.0
    } else {
        0.0
    }
}

/// Failed over attempted operations (0 when nothing was attempted).
pub fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// The length of the union of `[start, end)` intervals.
pub fn union_len(intervals: &[(f64, f64)]) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_use_nearest_rank() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(median(&samples), 500.0);
        assert_eq!(tail(&samples, 99.0), (990.0, 99.0));
        assert_eq!(percentile_nearest_rank(&sorted(&samples), 99.0), 990.0);
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_samples_beyond() {
        // 200 samples: p99 has only 2 beyond it, p95 has exactly 10.
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let (value, p) = tail(&samples, 99.0);
        assert_eq!(p, 95.0);
        assert_eq!(value, 190.0);
        assert!(samples.iter().filter(|&&s| s > value).count() >= TAIL_MARGIN);
        // Too few samples for any tail: report the median.
        assert_eq!(reportable_percentile(99.0, 12), 50.0);
        assert_eq!(reportable_percentile(99.0, 5), 50.0);
        assert_eq!(reportable_percentile(99.0, 5000), 99.0);
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
        assert_eq!(geomean(&[1.0, f64::NAN]), 0.0);
    }

    #[test]
    fn failed_ratio_counts_against_attempts() {
        assert_eq!(failed_ratio(0, 10), 0.0);
        assert_eq!(failed_ratio(3, 12), 0.25);
        assert_eq!(failed_ratio(0, 0), 0.0);
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(&[(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0);
        assert_eq!(union_len(&[(5.0, 6.0), (0.0, 1.0), (0.5, 0.7)]), 2.0);
        assert_eq!(union_len(&[]), 0.0);
    }
}
