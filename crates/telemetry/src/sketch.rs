//! A mergeable quantile sketch with bounded memory and a documented
//! relative-error guarantee.
//!
//! [`QuantileSketch`] keeps log-spaced buckets (the DDSketch family —
//! chosen over P² and CKMS because bucket-wise merging of per-worker
//! shards is exact, not heuristic): a value `v > 0` lands in bucket
//! `ceil(ln(v)/ln(γ))` with `γ = (1+α)/(1−α)`, so every value in a
//! bucket is within relative error `α` of the bucket's midpoint
//! estimate. The quantile rank rule is the same nearest-rank rule as
//! the exact `percentile()` oracle in `mlperf-loadgen`
//! (`rank = ceil(q·n)` clamped to `[1, n]`), which gives the bound the
//! differential tests pin down:
//!
//! > for any `q`, `|quantile(q) − exact_percentile(q)| ≤ α ·
//! > exact_percentile(q)` while the sketch has not collapsed buckets.
//!
//! Memory is bounded by `max_buckets` entries (default 1024 — at the
//! default `α = 0.01` that spans a value range of about `e^20 ≈ 5·10^8`
//! to one, far wider than any latency distribution the suite records).
//! If a stream is wider still, the *lowest* buckets are collapsed
//! together — the tail quantiles the suite cares about stay within the
//! bound, and only the bottom of the distribution becomes approximate.
//!
//! The registry-facing [`Sketch`] handle wraps one shared sketch behind
//! a mutex.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Default relative-error bound (1%).
pub const DEFAULT_SKETCH_ALPHA: f64 = 0.01;

/// Default cap on live buckets (see module docs for the range this
/// buys at the default `α`).
pub(crate) const DEFAULT_SKETCH_MAX_BUCKETS: usize = 1024;

/// Values at or below this magnitude are tracked in a dedicated zero
/// bucket instead of a log bucket.
const ZERO_THRESHOLD: f64 = 1e-9;

/// A fixed-memory, mergeable quantile sketch (see module docs for the
/// error bound and memory bound).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    alpha: f64,
    /// `ln(γ)` where `γ = (1+α)/(1−α)`; bucket index of `v` is
    /// `ceil(ln(v)/gamma_ln)`.
    gamma_ln: f64,
    max_buckets: usize,
    /// Log bucket index → observation count. A `BTreeMap` keeps
    /// iteration in value order, which makes quantile walks and
    /// renderings deterministic across runs and platforms.
    buckets: BTreeMap<i32, u64>,
    /// Observations with `value <= ZERO_THRESHOLD` (incl. negatives,
    /// which a latency stream should never contain but a robust sketch
    /// must not lose).
    zero_count: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    collapsed: bool,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new(DEFAULT_SKETCH_ALPHA)
    }
}

impl QuantileSketch {
    /// A sketch guaranteeing relative error `alpha` (`0 < alpha < 1`)
    /// with the default bucket cap.
    pub fn new(alpha: f64) -> Self {
        QuantileSketch::with_max_buckets(alpha, DEFAULT_SKETCH_MAX_BUCKETS)
    }

    /// [`QuantileSketch::new`] with an explicit bucket cap (at least 2).
    pub(crate) fn with_max_buckets(alpha: f64, max_buckets: usize) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "sketch alpha must be in (0, 1)");
        assert!(max_buckets >= 2, "sketch needs at least two buckets");
        QuantileSketch {
            alpha,
            gamma_ln: ((1.0 + alpha) / (1.0 - alpha)).ln(),
            max_buckets,
            buckets: BTreeMap::new(),
            zero_count: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            collapsed: false,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        self.observe_n(value, 1);
    }

    /// Records `n` identical observations (how the offline loadgen
    /// scenario accounts a whole completed batch at once).
    pub fn observe_n(&mut self, value: f64, n: u64) {
        if n == 0 || !value.is_finite() {
            return;
        }
        self.count += n;
        self.sum += value * n as f64;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value <= ZERO_THRESHOLD {
            self.zero_count += n;
            return;
        }
        let key = (value.ln() / self.gamma_ln).ceil() as i32;
        *self.buckets.entry(key).or_insert(0) += n;
        self.collapse_to_cap();
    }

    /// Enforces the bucket cap by folding the lowest bucket into its
    /// neighbour above until the map fits: the tail (high quantiles)
    /// keeps its guarantee, the far bottom of the distribution becomes
    /// approximate.
    fn collapse_to_cap(&mut self) {
        while self.buckets.len() > self.max_buckets {
            let (lowest, c) = self.buckets.pop_first().expect("bucket map cannot be empty here");
            let (_, next) = self
                .buckets
                .range_mut(lowest..)
                .next()
                .expect("max_buckets >= 2 leaves a neighbour");
            *next += c;
            self.collapsed = true;
        }
    }

    /// Folds `other` into `self`. Exact: the merged sketch is
    /// identical to one that observed both streams, provided both
    /// sketches were built with the same `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if the sketches disagree on `alpha` (their buckets would
    /// not line up).
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            self.alpha == other.alpha,
            "cannot merge sketches with different alpha ({} vs {})",
            self.alpha,
            other.alpha
        );
        self.count += other.count;
        self.sum += other.sum;
        self.zero_count += other.zero_count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.collapsed |= other.collapsed;
        for (key, c) in &other.buckets {
            *self.buckets.entry(*key).or_insert(0) += c;
        }
        self.collapse_to_cap();
    }

    /// The estimated `q`-quantile (`q` in `[0, 1]`), `None` when the
    /// sketch is empty. Uses the nearest-rank rule
    /// `rank = ceil(q·count)` clamped to `[1, count]`, matching the
    /// exact-percentile oracle, and clamps the estimate into the
    /// observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank <= self.zero_count {
            return Some(self.min.min(ZERO_THRESHOLD));
        }
        let mut cum = self.zero_count;
        for (key, c) in &self.buckets {
            cum += c;
            if cum >= rank {
                // Midpoint (harmonic) estimate of bucket
                // (γ^(k−1), γ^k]: 2γ^k/(γ+1), within α of any value
                // in the bucket.
                let gamma = self.gamma_ln.exp();
                let upper = (*key as f64 * self.gamma_ln).exp();
                let estimate = 2.0 * upper / (gamma + 1.0);
                return Some(estimate.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The relative-error bound this sketch was built with.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of live log buckets (bounded by the construction cap).
    #[cfg(test)]
    fn bucket_len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether the bucket cap ever forced low buckets to collapse
    /// (tail quantiles keep the `α` bound; bottom quantiles may not).
    pub fn is_collapsed(&self) -> bool {
        self.collapsed
    }
}

/// Shared storage behind a registered [`Sketch`] handle: one sketch at
/// the default error bound ([`DEFAULT_SKETCH_ALPHA`]).
#[derive(Debug, Default)]
pub(crate) struct SketchCore {
    pub(crate) sketch: Mutex<QuantileSketch>,
}

/// A registry-backed quantile sketch handle (clones share storage).
/// `observe` takes a short uncontended mutex.
#[derive(Debug, Clone)]
pub struct Sketch(pub(crate) Option<Arc<SketchCore>>);

impl Sketch {
    /// A no-op sketch (what a disabled registry hands out).
    pub fn disabled() -> Self {
        Sketch(None)
    }

    /// Records one observation; no-op when disabled.
    pub fn observe(&self, value: f64) {
        if let Some(core) = &self.0 {
            core.sketch.lock().expect("sketch poisoned").observe(value);
        }
    }

    /// Records `n` identical observations; no-op when disabled.
    pub fn observe_n(&self, value: f64, n: u64) {
        if let Some(core) = &self.0 {
            core.sketch.lock().expect("sketch poisoned").observe_n(value, n);
        }
    }
}

/// A sketch's state at snapshot time: summary statistics plus the full
/// sketch, so reports can ask for arbitrary quantiles.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchSnapshot {
    /// Registered name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// The sketch itself (bounded memory, so cloning it is cheap).
    pub sketch: QuantileSketch,
}

impl SketchSnapshot {
    /// The estimated `q`-quantile (`q` in `[0, 1]`).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.sketch.quantile(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_exact_values_within_alpha() {
        let mut sketch = QuantileSketch::new(0.01);
        for i in 1..=10_000u64 {
            sketch.observe(i as f64 / 10.0); // 0.1 .. 1000.0
        }
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * 10_000.0_f64).ceil() as u64).clamp(1, 10_000);
            let exact = rank as f64 / 10.0;
            let est = sketch.quantile(q).unwrap();
            assert!(
                (est - exact).abs() <= 0.01 * exact + 1e-12,
                "q={q}: est {est} vs exact {exact}"
            );
        }
        assert!(!sketch.is_collapsed());
        assert_eq!(sketch.count(), 10_000);
        assert_eq!(sketch.min(), Some(0.1));
        assert_eq!(sketch.max(), Some(1000.0));
    }

    #[test]
    fn merge_matches_observing_both_streams() {
        let mut all = QuantileSketch::new(0.02);
        let mut left = QuantileSketch::new(0.02);
        let mut right = QuantileSketch::new(0.02);
        for i in 0..1000u64 {
            let v = (i as f64 + 0.5) * 0.37;
            all.observe(v);
            if i % 2 == 0 {
                left.observe(v);
            } else {
                right.observe(v);
            }
        }
        left.merge(&right);
        assert_eq!(left, all, "bucket-wise merge is exact");
    }

    #[test]
    fn zero_and_negative_values_are_not_lost() {
        let mut sketch = QuantileSketch::default();
        sketch.observe(0.0);
        sketch.observe(-3.0);
        sketch.observe(5.0);
        assert_eq!(sketch.count(), 3);
        assert_eq!(sketch.quantile(0.0).unwrap(), -3.0, "zero-bucket ranks report the min");
        assert!((sketch.quantile(1.0).unwrap() - 5.0).abs() <= 0.05);
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let sketch = QuantileSketch::default();
        assert_eq!(sketch.quantile(0.5), None);
        assert_eq!(sketch.min(), None);
        assert_eq!(sketch.max(), None);
    }

    #[test]
    fn bucket_cap_collapses_the_bottom_not_the_tail() {
        let mut sketch = QuantileSketch::with_max_buckets(0.01, 16);
        // A huge dynamic range forces collapsing.
        for e in 0..24 {
            sketch.observe(2f64.powi(e));
        }
        assert!(sketch.is_collapsed());
        assert!(sketch.bucket_len() <= 16);
        let p99 = sketch.quantile(1.0).unwrap();
        let exact = 2f64.powi(23);
        assert!((p99 - exact).abs() <= 0.01 * exact, "tail survives collapse");
    }

    #[test]
    fn observe_n_matches_repeated_observe() {
        let mut bulk = QuantileSketch::default();
        bulk.observe_n(42.0, 100);
        let mut loop_ = QuantileSketch::default();
        for _ in 0..100 {
            loop_.observe(42.0);
        }
        assert_eq!(bulk, loop_);
    }

    #[test]
    fn disabled_sketch_is_inert() {
        let sketch = Sketch::disabled();
        sketch.observe(1.0);
        assert!(sketch.0.is_none());
    }

    #[test]
    #[should_panic(expected = "different alpha")]
    fn merging_incompatible_sketches_panics() {
        let mut a = QuantileSketch::new(0.01);
        let b = QuantileSketch::new(0.02);
        a.merge(&b);
    }
}
