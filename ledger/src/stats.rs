//! Order statistics over raw samples kept in memory.
//!
//! The repo's telemetry histograms use log2 buckets, which report a p99
//! as a bucket edge. The ledger keeps every sample and sorts, so a
//! percentile is a value that was actually measured, and it refuses a
//! percentile the sample cannot support.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (nearest rank) of `sorted`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it: a tail read off a handful of
/// samples is one outlier, not a percentile.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted samples");
    debug_assert!((0.0..1.0).contains(&q));
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    (rank + MIN_BEYOND <= sorted.len()).then(|| sorted[rank - 1])
}

/// The median of `values` (mean of the middle two for an even count); 0
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_a_known_distribution() {
        // 1..=1000: the q-quantile by nearest rank is exactly 1000·q.
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.50), Some(500));
        assert_eq!(percentile(&sorted, 0.90), Some(900));
        assert_eq!(percentile(&sorted, 0.99), Some(990));
        // p999 has one sample beyond it, not ten.
        assert_eq!(percentile(&sorted, 0.999), None);
    }

    #[test]
    fn refuses_a_tail_the_sample_cannot_support() {
        // p50 needs rank + 10 ≤ n: 19 samples are one short, 20 are not.
        let nineteen: Vec<u64> = (1..=19).collect();
        assert_eq!(percentile(&nineteen, 0.50), None);
        let twenty: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&twenty, 0.50), Some(10));
        // p99 over 999 samples has nine beyond it.
        let short: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&short, 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_is_a_measured_value_not_a_bucket_edge() {
        let mut sorted = vec![8_388u64; 50];
        sorted.extend([9_001; 50]);
        sorted.sort_unstable();
        assert_eq!(percentile(&sorted, 0.5), Some(8_388));
        assert_eq!(percentile(&sorted, 0.75), Some(9_001));
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
