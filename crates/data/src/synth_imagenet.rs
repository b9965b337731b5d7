//! A procedurally generated stand-in for the ILSVRC-2012 classification
//! dataset.
//!
//! Each class is defined by a smooth random prototype image; samples are
//! the prototype under random geometric jitter plus pixel noise. The
//! noise level and class count are tuned so that a small residual
//! network needs multiple epochs to reach the benchmark's accuracy
//! threshold — preserving the multi-epoch, seed-sensitive convergence
//! behaviour that the paper's timing rules are designed around.

use mlperf_tensor::{Tensor, TensorRng};

/// Geometry and difficulty of a synthetic classification dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageNetConfig {
    /// Number of classes.
    pub classes: usize,
    /// Training images per class.
    pub train_per_class: usize,
    /// Validation images per class.
    pub val_per_class: usize,
    /// Square image extent.
    pub image_size: usize,
    /// Channels (3 for the RGB-like default).
    pub channels: usize,
    /// Standard deviation of the additive pixel noise.
    pub noise: f32,
    /// Maximum shift (pixels) applied when rendering a sample.
    pub max_shift: usize,
}

impl Default for ImageNetConfig {
    fn default() -> Self {
        ImageNetConfig {
            classes: 10,
            train_per_class: 64,
            val_per_class: 16,
            image_size: 12,
            channels: 3,
            noise: 0.55,
            max_shift: 2,
        }
    }
}

impl ImageNetConfig {
    /// A smaller configuration for fast unit tests.
    pub fn tiny() -> Self {
        ImageNetConfig {
            classes: 4,
            train_per_class: 16,
            val_per_class: 8,
            image_size: 8,
            channels: 1,
            noise: 0.3,
            max_shift: 1,
        }
    }
}

/// A labelled set of images stored as one `[n, c, h, w]` tensor.
#[derive(Debug, Clone)]
pub struct ImageSet {
    images: Tensor,
    labels: Vec<usize>,
    channels: usize,
    image_size: usize,
}

impl ImageSet {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The full image tensor `[n, c, h, w]`.
    pub fn images(&self) -> &Tensor {
        &self.images
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Gathers a minibatch: `([k, c, h, w], labels)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let px = self.channels * self.image_size * self.image_size;
        let flat = self.images.reshape(&[self.len(), px]);
        let picked = flat.gather_rows(indices);
        let images =
            picked.reshape(&[indices.len(), self.channels, self.image_size, self.image_size]);
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        (images, labels)
    }
}

/// The train/validation split of a synthetic classification dataset.
#[derive(Debug, Clone)]
pub struct SyntheticImageNet {
    /// Training images.
    pub train: ImageSet,
    /// Held-out validation images.
    pub val: ImageSet,
    config: ImageNetConfig,
}

impl SyntheticImageNet {
    /// Generates the dataset from a seed. The same seed always produces
    /// the same dataset; different seeds produce different datasets
    /// drawn from the same distribution.
    pub fn generate(config: ImageNetConfig, seed: u64) -> Self {
        let mut rng = TensorRng::new(seed);
        let prototypes: Vec<Tensor> =
            (0..config.classes).map(|_| smooth_prototype(&config, &mut rng)).collect();
        let train = render_set(&config, &prototypes, config.train_per_class, &mut rng);
        let val = render_set(&config, &prototypes, config.val_per_class, &mut rng);
        SyntheticImageNet { train, val, config }
    }

    /// The generating configuration.
    pub fn config(&self) -> ImageNetConfig {
        self.config
    }
}

/// A smooth class prototype: low-frequency sinusoid mixture per channel.
fn smooth_prototype(cfg: &ImageNetConfig, rng: &mut TensorRng) -> Tensor {
    let s = cfg.image_size;
    let mut data = Vec::with_capacity(cfg.channels * s * s);
    for _ in 0..cfg.channels {
        // Two random low-frequency components per channel; generous
        // amplitude so classes stay separable under sample noise.
        let fx = 1.0 + 2.0 * rng.unit();
        let fy = 1.0 + 2.0 * rng.unit();
        let fd = 0.5 + 1.5 * rng.unit();
        let px = rng.unit() * std::f32::consts::TAU;
        let py = rng.unit() * std::f32::consts::TAU;
        let pd = rng.unit() * std::f32::consts::TAU;
        let amp = 1.2 + 0.6 * rng.unit();
        for y in 0..s {
            for x in 0..s {
                let u = x as f32 / s as f32;
                let v = y as f32 / s as f32;
                let val = amp
                    * ((std::f32::consts::TAU * fx * u + px).sin()
                        + (std::f32::consts::TAU * fy * v + py).cos()
                        + (std::f32::consts::TAU * fd * (u + v) + pd).sin())
                    / 3.0;
                data.push(val);
            }
        }
    }
    Tensor::from_vec(data, &[cfg.channels, s, s])
}

fn render_set(
    cfg: &ImageNetConfig,
    prototypes: &[Tensor],
    per_class: usize,
    rng: &mut TensorRng,
) -> ImageSet {
    let s = cfg.image_size;
    let n = cfg.classes * per_class;
    let mut all = Vec::with_capacity(n * cfg.channels * s * s);
    let mut labels = Vec::with_capacity(n);
    for (k, proto) in prototypes.iter().enumerate() {
        for _ in 0..per_class {
            let dx = rng.index(2 * cfg.max_shift + 1) as isize - cfg.max_shift as isize;
            let dy = rng.index(2 * cfg.max_shift + 1) as isize - cfg.max_shift as isize;
            let noise = rng.normal(&[cfg.channels, s, s], 0.0, cfg.noise);
            let (proto, noise) = (proto.data(), noise.data());
            for c in 0..cfg.channels {
                for y in 0..s {
                    for x in 0..s {
                        let sx = x as isize + dx;
                        let sy = y as isize + dy;
                        let base = if sx >= 0 && sy >= 0 && (sx as usize) < s && (sy as usize) < s {
                            proto[(c * s + sy as usize) * s + sx as usize]
                        } else {
                            0.0
                        };
                        all.push(base + noise[(c * s + y) * s + x]);
                    }
                }
            }
            labels.push(k);
        }
    }
    ImageSet {
        images: Tensor::from_vec(all, &[n, cfg.channels, s, s]),
        labels,
        channels: cfg.channels,
        image_size: s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_seed_deterministic() {
        let a = SyntheticImageNet::generate(ImageNetConfig::tiny(), 1);
        let b = SyntheticImageNet::generate(ImageNetConfig::tiny(), 1);
        assert_eq!(a.train.images(), b.train.images());
        let c = SyntheticImageNet::generate(ImageNetConfig::tiny(), 2);
        assert_ne!(a.train.images(), c.train.images());
    }

    #[test]
    fn sizes_match_config() {
        let cfg = ImageNetConfig::tiny();
        let d = SyntheticImageNet::generate(cfg, 0);
        assert_eq!(d.train.len(), cfg.classes * cfg.train_per_class);
        assert_eq!(d.val.len(), cfg.classes * cfg.val_per_class);
        assert_eq!(
            d.train.images().shape(),
            &[d.train.len(), cfg.channels, cfg.image_size, cfg.image_size]
        );
    }

    #[test]
    fn labels_are_balanced() {
        let cfg = ImageNetConfig::tiny();
        let d = SyntheticImageNet::generate(cfg, 3);
        for k in 0..cfg.classes {
            let count = d.train.labels().iter().filter(|&&l| l == k).count();
            assert_eq!(count, cfg.train_per_class);
        }
    }

    #[test]
    fn batch_gathers_right_samples() {
        let d = SyntheticImageNet::generate(ImageNetConfig::tiny(), 4);
        let (imgs, labels) = d.train.batch(&[0, 5, 17]);
        assert_eq!(imgs.shape()[0], 3);
        assert_eq!(labels.len(), 3);
        assert_eq!(labels[0], d.train.labels()[0]);
        assert_eq!(labels[2], d.train.labels()[17]);
    }

    #[test]
    fn classes_are_separable_in_pixel_space() {
        // Nearest-prototype classification on clean means should beat
        // chance by a wide margin — guarantees the task is learnable.
        let cfg = ImageNetConfig::tiny();
        let d = SyntheticImageNet::generate(cfg, 5);
        let px = cfg.channels * cfg.image_size * cfg.image_size;
        // Class means from train.
        let flat = d.train.images().reshape(&[d.train.len(), px]);
        let mut means = vec![vec![0.0f32; px]; cfg.classes];
        let mut counts = vec![0usize; cfg.classes];
        for (i, &l) in d.train.labels().iter().enumerate() {
            for (j, v) in means[l].iter_mut().enumerate() {
                *v += flat.data()[i * px + j];
            }
            counts[l] += 1;
        }
        for (m, &c) in means.iter_mut().zip(counts.iter()) {
            for v in m.iter_mut() {
                *v /= c as f32;
            }
        }
        // Nearest-mean on validation.
        let vflat = d.val.images().reshape(&[d.val.len(), px]);
        let mut correct = 0;
        for (i, &l) in d.val.labels().iter().enumerate() {
            let row = &vflat.data()[i * px..(i + 1) * px];
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for (k, m) in means.iter().enumerate() {
                let dist: f32 = row.iter().zip(m.iter()).map(|(a, b)| (a - b) * (a - b)).sum();
                if dist < best_d {
                    best_d = dist;
                    best = k;
                }
            }
            if best == l {
                correct += 1;
            }
        }
        let acc = correct as f32 / d.val.len() as f32;
        assert!(acc > 0.6, "nearest-mean accuracy only {acc}");
    }
}
