//! The statistics every number in the benchmark goes through: medians
//! and quartiles (the same rule the acceptance check applies),
//! percentiles that refuse to be read past their sample count, the
//! paper's drop-min/max aggregate for repeated probes, and the seeded
//! generator behind every synthetic input and arrival schedule.

use mlperf_core::aggregate::olympic_mean;

/// SplitMix64: the benchmark's only randomness source, so a `--seed`
/// reproduces every generated input and schedule bit for bit without
/// depending on the program under test for its random numbers.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole stream is a function of `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1): never 0, so `ln` is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; the mean of the two middle values for an even count.
///
/// # Panics
///
/// On an empty slice: every caller measures at least one sample, so an
/// empty input is a bug in the benchmark, not a condition to report.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), because that is the rule the acceptance check applies to
/// ten runs of each workload. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let v = sorted(values);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The spread the acceptance check bounds: the distance between the
/// first and third quartile as a share of the median.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The nearest-rank `q`-quantile, or `None` when fewer than ten
/// samples lie beyond it — a p99 read off 200 samples is two numbers,
/// not a percentile.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&q), "quantile {q} outside [0, 1)");
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    (n >= rank + 10).then(|| sorted(values)[rank - 1])
}

/// The highest of p99.9 / p99 / p95 / p90 the sample supports, with the
/// quantile it is; the maximum (quantile 1.0) when not even a p90 has
/// ten samples beyond it, so a handful of repetitions still reports its
/// worst case instead of nothing.
pub fn tail(values: &[f64]) -> (f64, f64) {
    for q in [0.999, 0.99, 0.95, 0.9] {
        if let Some(v) = percentile(values, q) {
            return (q, v);
        }
    }
    (1.0, sorted(values).last().copied().expect("tail of no samples"))
}

/// Aggregates repeated timings of one probe by the paper's rule (drop
/// the fastest and the slowest, mean of the rest — §3.2.2), falling
/// back to the median when there are too few repetitions to drop two.
pub fn olympic(values: &[f64]) -> f64 {
    if values.len() >= 3 {
        olympic_mean(values)
    } else {
        median(values)
    }
}

/// Due times, in seconds from the phase start, of a Poisson arrival
/// process at `rate` per second over `duration` seconds.
pub fn poisson_schedule(rate: f64, duration: f64, rng: &mut Rng) -> Vec<f64> {
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.unit().ln() / rate;
        if t >= duration {
            return due;
        }
        due.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3.0, 1.0, 2.0], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([10.0, 20.0], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(relative_iqr(&v), Some(1.0));
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_refuses_without_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // p99 of 1000 has exactly ten samples beyond it; of 999, nine.
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v[..500], 0.99), None, "5 samples beyond is not a p99");
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_quantile() {
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(tail(&v), (0.9, 135.0));
        assert_eq!(tail(&v[..8]), (1.0, 8.0));
        let big: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(tail(&big).0, 0.999);
    }

    #[test]
    fn olympic_drops_both_extremes() {
        assert_eq!(olympic(&[100.0, 2.0, 1.0, 3.0, 0.0]), 2.0);
        assert_eq!(olympic(&[4.0, 2.0]), 3.0);
    }

    #[test]
    fn poisson_schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(200.0, 5.0, &mut Rng::new(7));
        let b = poisson_schedule(200.0, 5.0, &mut Rng::new(7));
        let c = poisson_schedule(200.0, 5.0, &mut Rng::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "due times ascend");
        assert!(a.iter().all(|&t| (0.0..5.0).contains(&t)));
        // 1000 expected arrivals; a Poisson count is within 5 sigma.
        assert!((a.len() as f64 - 1000.0).abs() < 160.0, "{} arrivals", a.len());
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(3).shuffle(&mut a);
        Rng::new(3).shuffle(&mut b);
        assert_eq!(a, b);
        let mut back = a.clone();
        back.sort_unstable();
        assert_eq!(back, (0..50).collect::<Vec<_>>());
        assert_ne!(a, back);
    }
}
