//! Nearest-rank percentile estimation over latency samples.
//!
//! The drivers collect one latency per query, so scenario summaries
//! need order statistics over tens of thousands of `f64`s. A full sort
//! is O(n log n) per percentile; quickselect via
//! [`slice::select_nth_unstable_by`] gives the same nearest-rank answer
//! in O(n), and the property tests pin it against the naive sorted
//! reference.

/// The nearest-rank `p`th percentile of `samples`: the smallest sample
/// such that at least `p`% of the set is ≤ it (rank `⌈p/100 · n⌉`,
/// clamped to the sample range so `p = 0` yields the minimum).
///
/// # Panics
///
/// Panics when `samples` is empty or `p` is outside `[0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    assert!((0.0..=100.0).contains(&p), "percentile {p} outside [0, 100]");
    let n = samples.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let mut scratch = samples.to_vec();
    let (_, kth, _) = scratch.select_nth_unstable_by(rank - 1, f64::total_cmp);
    *kth
}

/// The three latency percentiles every scenario reports, in the same
/// unit as the samples (the drivers use milliseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LatencyPercentiles {
    /// Median latency.
    pub p50: f64,
    /// 90th-percentile latency (the SingleStream SLO percentile).
    pub p90: f64,
    /// 99th-percentile latency (the Server SLO percentile).
    pub p99: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The reference implementation: full sort, same nearest-rank rule.
    fn naive_percentile(samples: &[f64], p: f64) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn known_values() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&samples, 50.0), 3.0);
        assert_eq!(percentile(&samples, 90.0), 5.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 100.0), 5.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for p in [0.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(percentile(&[7.25], p), 7.25);
        }
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn empty_sample_set_panics() {
        percentile(&[], 50.0);
    }

    proptest! {
        #[test]
        fn quickselect_matches_sorted_reference(
            samples in vec(0.0f64..10_000.0, 1..128),
            p in 0.0f64..100.0,
        ) {
            prop_assert_eq!(percentile(&samples, p), naive_percentile(&samples, p));
        }

    }
}
