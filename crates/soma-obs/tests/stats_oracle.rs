//! Property tests pinning the streaming stats engine to a sort-based
//! oracle: whatever the constant-space aggregators report must match
//! exactly what a full sort of the same sample says.
//!
//! Samples are seed-driven through the vendored proptest + StdRng, so
//! failures reproduce deterministically.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use soma_obs::{percentile_nearest_rank, Sample, StreamingStats};

/// The oracle: sort a copy, take nearest-rank directly.
fn oracle_percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

fn sample_values(seed: u64, len: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            // Uniform in [-1e6, 1e6): 53 random mantissa bits scaled.
            let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            (unit - 0.5) * 2.0e6
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// StreamingStats min/max/mean/sum agree with a fold over the raw
    /// sample.
    #[test]
    fn streaming_stats_match_the_oracle(seed in 0u64..1_000_000, len in 1usize..300) {
        let values = sample_values(seed, len);
        let mut s = StreamingStats::new();
        for &x in &values {
            s.observe(x);
        }
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let sum: f64 = values.iter().sum();
        prop_assert_eq!(s.count(), len as u64);
        prop_assert_eq!(s.min(), min);
        prop_assert_eq!(s.max(), max);
        prop_assert!((s.mean() - sum / len as f64).abs() <= 1e-9 * sum.abs().max(1.0));
    }

    /// Splitting a stream at any point and merging the two aggregators
    /// reproduces the whole-stream aggregator exactly.
    #[test]
    fn merge_is_stream_concatenation(seed in 0u64..1_000_000, len in 2usize..300, cut_pm in 0u32..1000) {
        let values = sample_values(seed, len);
        let cut = (len * cut_pm as usize) / 1000;
        let (mut whole, mut left, mut right) =
            (StreamingStats::new(), StreamingStats::new(), StreamingStats::new());
        for &x in &values {
            whole.observe(x);
        }
        for &x in &values[..cut] {
            left.observe(x);
        }
        for &x in &values[cut..] {
            right.observe(x);
        }
        left.merge(&right);
        // min/max/count are exact; the sum may differ by float
        // re-association (merge adds the two partial sums).
        prop_assert_eq!(left.count(), whole.count());
        prop_assert_eq!(left.min(), whole.min());
        prop_assert_eq!(left.max(), whole.max());
        prop_assert!((left.sum() - whole.sum()).abs() <= 1e-9 * whole.sum().abs().max(1.0));
    }

    /// Exact-sample percentiles equal the sort-based oracle for every
    /// requested percentile, including the edges.
    #[test]
    fn sample_percentiles_match_the_oracle(seed in 0u64..1_000_000, len in 1usize..300) {
        let values = sample_values(seed, len);
        let mut sample = Sample::new();
        for &x in &values {
            sample.push(x);
        }
        for p in [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            prop_assert_eq!(sample.percentile(p), oracle_percentile(&values, p));
        }
    }

    /// The free function agrees with Sample on pre-sorted data (it is
    /// the same implementation loadgen's already-sorted latency vector
    /// goes through).
    #[test]
    fn free_function_matches_sample(seed in 0u64..1_000_000, len in 1usize..200) {
        let mut values = sample_values(seed, len);
        values.sort_by(f64::total_cmp);
        let mut sample = Sample::new();
        for &x in &values {
            sample.push(x);
        }
        for p in [50.0, 90.0, 99.0] {
            prop_assert_eq!(percentile_nearest_rank(&values, p), sample.percentile(p));
        }
    }
}
