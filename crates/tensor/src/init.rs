//! Seeded random tensor initialization.
//!
//! Every stochastic component of the reproduction draws from an explicit
//! seed so that run-to-run variance (paper §2.2.3) is controlled
//! entirely by seed choice — identical seeds give identical runs.

use crate::backend::BackendKind;
use crate::tensor::Tensor;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A seeded random number source that mints tensors.
///
/// Wraps a [`StdRng`] so workload generators, weight initialization and
/// data traversal can share one reproducible stream.
///
/// The stream also carries a [`BackendKind`]: every tensor it mints is
/// tagged with it, so constructing a model's weights from a
/// [`TensorRng::with_backend`] stream moves the whole model (and, by
/// tag inheritance, the whole training step) onto that backend. The
/// backend never influences the drawn values.
#[derive(Debug)]
pub struct TensorRng {
    rng: StdRng,
    backend: BackendKind,
}

impl TensorRng {
    /// Creates a generator from a 64-bit seed, minting tensors on
    /// [`BackendKind::default`].
    pub fn new(seed: u64) -> Self {
        TensorRng { rng: StdRng::seed_from_u64(seed), backend: BackendKind::default() }
    }

    /// Retags the stream so minted tensors land on `kind` (builder
    /// style). The random sequence is unaffected.
    #[must_use]
    pub fn with_backend(mut self, kind: BackendKind) -> TensorRng {
        self.backend = kind;
        self
    }

    /// The backend minted tensors are tagged with.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Splits off an independent generator (seeded from this stream),
    /// inheriting this stream's backend tag.
    pub fn split(&mut self) -> TensorRng {
        TensorRng::new(self.rng.next_u64()).with_backend(self.backend)
    }

    /// Tensor of i.i.d. uniform values in `[lo, hi)`.
    pub fn uniform(&mut self, shape: &[usize], lo: f32, hi: f32) -> Tensor {
        let dist = Uniform::new(lo, hi);
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| dist.sample(&mut self.rng)).collect();
        Tensor::from_vec(data, shape).on(self.backend)
    }

    /// Tensor of i.i.d. normal values (Box–Muller).
    pub fn normal(&mut self, shape: &[usize], mean: f32, std: f32) -> Tensor {
        let n: usize = shape.iter().product();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = self.rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = self.rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(mean + std * r * theta.cos());
            if data.len() < n {
                data.push(mean + std * r * theta.sin());
            }
        }
        Tensor::from_vec(data, shape).on(self.backend)
    }

    /// Kaiming-He uniform initialization for a weight tensor whose
    /// fan-in is the product of all dimensions after the first.
    ///
    /// # Panics
    ///
    /// Panics if the shape has fewer than 2 dimensions.
    pub fn kaiming_uniform(&mut self, shape: &[usize]) -> Tensor {
        assert!(shape.len() >= 2, "kaiming init needs >= 2 dims, got {shape:?}");
        let fan_in: usize = shape[1..].iter().product();
        let bound = (6.0 / fan_in as f32).sqrt();
        self.uniform(shape, -bound, bound)
    }

    /// Xavier-Glorot uniform initialization (fan-in + fan-out scaled).
    ///
    /// # Panics
    ///
    /// Panics if the shape has fewer than 2 dimensions.
    pub fn xavier_uniform(&mut self, shape: &[usize]) -> Tensor {
        assert!(shape.len() >= 2, "xavier init needs >= 2 dims, got {shape:?}");
        let fan_in: usize = shape[1..].iter().product();
        let fan_out = shape[0];
        let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
        self.uniform(shape, -bound, bound)
    }

    /// A uniformly random index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.rng.gen_range(0..n)
    }

    /// A uniformly random f32 in `[0, 1)`.
    pub fn unit(&mut self) -> f32 {
        self.rng.gen_range(0.0..1.0)
    }

    /// A uniform f64 in `[0, 1)` (for simulator noise models that need
    /// double precision).
    pub fn unit_f64(&mut self) -> f64 {
        self.rng.gen_range(0.0..1.0)
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = TensorRng::new(42);
        let mut b = TensorRng::new(42);
        assert_eq!(a.normal(&[16], 0.0, 1.0), b.normal(&[16], 0.0, 1.0));
        assert_eq!(a.index(1000), b.index(1000));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = TensorRng::new(1);
        let mut b = TensorRng::new(2);
        assert_ne!(a.uniform(&[32], 0.0, 1.0), b.uniform(&[32], 0.0, 1.0));
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = TensorRng::new(3);
        let t = rng.uniform(&[1000], -0.5, 0.5);
        assert!(t.data().iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn normal_moments_roughly_match() {
        let mut rng = TensorRng::new(4);
        let t = rng.normal(&[10000], 2.0, 3.0);
        let mean = t.mean();
        let var = t.map(|x| (x - mean) * (x - mean)).mean();
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.15, "std {}", var.sqrt());
    }

    #[test]
    fn kaiming_bound_scales_with_fan_in() {
        let mut rng = TensorRng::new(5);
        let w = rng.kaiming_uniform(&[8, 600]);
        let bound = (6.0f32 / 600.0).sqrt();
        assert!(w.data().iter().all(|&x| x.abs() <= bound));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = TensorRng::new(6);
        let mut v: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left order unchanged");
    }

    #[test]
    fn split_decorrelates() {
        let mut a = TensorRng::new(9);
        let mut c1 = a.split();
        let mut c2 = a.split();
        assert_ne!(c1.uniform(&[8], 0.0, 1.0), c2.uniform(&[8], 0.0, 1.0));
    }

    #[test]
    fn backend_tag_flows_through_rng_and_splits() {
        let mut rng = TensorRng::new(12).with_backend(BackendKind::Blocked);
        assert_eq!(rng.backend(), BackendKind::Blocked);
        assert_eq!(rng.normal(&[4], 0.0, 1.0).backend(), BackendKind::Blocked);
        let mut child = rng.split();
        assert_eq!(child.uniform(&[4], 0.0, 1.0).backend(), BackendKind::Blocked);
        // The tag never changes the drawn values.
        let mut a = TensorRng::new(77);
        let mut b = TensorRng::new(77).with_backend(BackendKind::Blocked);
        assert_eq!(a.normal(&[16], 0.0, 1.0), b.normal(&[16], 0.0, 1.0));
    }
}
