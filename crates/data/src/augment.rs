//! Training-time image augmentation.
//!
//! The paper's timing rules (§3.2.1) allow one-time reformatting outside
//! the timed region but explicitly require augmentation to stay *inside*
//! it ("different crops of each image cannot be created and saved
//! outside of the timed portion of training"). These transforms are
//! therefore applied per-batch at training time, driven by the run's
//! seed.

use mlperf_tensor::{Tensor, TensorRng};

/// A stochastic image-to-image transform over a `[c, h, w]` tensor.
pub trait Augmentation {
    /// Applies the transform using randomness from `rng`.
    fn apply(&self, image: &Tensor, rng: &mut TensorRng) -> Tensor;
}

/// Mirrors the image horizontally with probability 1/2.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomFlip;

impl Augmentation for RandomFlip {
    fn apply(&self, image: &Tensor, rng: &mut TensorRng) -> Tensor {
        if rng.unit() < 0.5 {
            return image.clone();
        }
        let s = image.shape().to_vec();
        let (c, h, w) = (s[0], s[1], s[2]);
        let mut out = image.clone();
        let (dst, src) = (out.data_mut(), image.data());
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    dst[(ci * h + y) * w + x] = src[(ci * h + y) * w + (w - 1 - x)];
                }
            }
        }
        out
    }
}

/// Zero-pads by `pad` on each side, then crops back to the original
/// extent at a random offset (the standard small-image crop recipe).
#[derive(Debug, Clone, Copy)]
pub struct RandomCrop {
    /// Padding (and maximum shift) in pixels.
    pub pad: usize,
}

impl Augmentation for RandomCrop {
    fn apply(&self, image: &Tensor, rng: &mut TensorRng) -> Tensor {
        if self.pad == 0 {
            return image.clone();
        }
        let s = image.shape().to_vec();
        let (c, h, w) = (s[0], s[1], s[2]);
        let dy = rng.index(2 * self.pad + 1) as isize - self.pad as isize;
        let dx = rng.index(2 * self.pad + 1) as isize - self.pad as isize;
        let mut out = Tensor::zeros(&s);
        let (dst, src) = (out.data_mut(), image.data());
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    let sy = y as isize + dy;
                    let sx = x as isize + dx;
                    if sy >= 0 && sx >= 0 && (sy as usize) < h && (sx as usize) < w {
                        dst[(ci * h + y) * w + x] = src[(ci * h + sy as usize) * w + sx as usize];
                    }
                }
            }
        }
        out
    }
}

/// Adds a uniform brightness offset in `[-delta, delta]`.
#[derive(Debug, Clone, Copy)]
pub struct BrightnessJitter {
    /// Maximum absolute offset.
    pub delta: f32,
}

impl Augmentation for BrightnessJitter {
    fn apply(&self, image: &Tensor, rng: &mut TensorRng) -> Tensor {
        let shift = (rng.unit() * 2.0 - 1.0) * self.delta;
        image.add_scalar(shift)
    }
}

/// Applies a sequence of augmentations in order.
pub struct Compose {
    stages: Vec<Box<dyn Augmentation>>,
}

impl Compose {
    /// Builds a pipeline from boxed stages.
    pub fn new(stages: Vec<Box<dyn Augmentation>>) -> Self {
        Compose { stages }
    }

    /// The standard pipeline used by the vision benchmarks: crop, flip,
    /// brightness.
    pub fn standard(pad: usize, brightness: f32) -> Self {
        Compose::new(vec![
            Box::new(RandomCrop { pad }),
            Box::new(RandomFlip),
            Box::new(BrightnessJitter { delta: brightness }),
        ])
    }

    /// Augments a whole `[n, c, h, w]` batch, one sample at a time.
    pub fn apply_batch(&self, batch: &Tensor, rng: &mut TensorRng) -> Tensor {
        let s = batch.shape().to_vec();
        let n = s[0];
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let img = batch.narrow(0, i, 1).reshape(&[s[1], s[2], s[3]]);
            let aug = self.apply(&img, rng);
            out.push(aug.reshape(&[1, s[1], s[2], s[3]]));
        }
        let views: Vec<&Tensor> = out.iter().collect();
        Tensor::concat(&views, 0)
    }
}

impl Augmentation for Compose {
    fn apply(&self, image: &Tensor, rng: &mut TensorRng) -> Tensor {
        let mut current = image.clone();
        for stage in &self.stages {
            current = stage.apply(&current, rng);
        }
        current
    }
}

impl std::fmt::Debug for Compose {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Compose").field("stages", &self.stages.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_image() -> Tensor {
        Tensor::arange(2 * 4 * 4, 0.0, 1.0).reshape(&[2, 4, 4])
    }

    #[test]
    fn flip_is_involutive() {
        // Force a flip by trying seeds until one flips, then flip again
        // manually via data comparison.
        let img = test_image();
        let flip = RandomFlip;
        let mut flipped = None;
        for seed in 0..20 {
            let mut rng = TensorRng::new(seed);
            let out = flip.apply(&img, &mut rng);
            if out != img {
                flipped = Some(out);
                break;
            }
        }
        let f = flipped.expect("no seed produced a flip in 20 tries");
        // Row content reversed: first row of channel 0 becomes 3,2,1,0.
        assert_eq!(&f.data()[..4], &[3.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn crop_preserves_shape() {
        let img = test_image();
        let mut rng = TensorRng::new(3);
        let out = RandomCrop { pad: 2 }.apply(&img, &mut rng);
        assert_eq!(out.shape(), img.shape());
    }

    #[test]
    fn zero_pad_crop_is_identity() {
        let img = test_image();
        let mut rng = TensorRng::new(1);
        assert_eq!(RandomCrop { pad: 0 }.apply(&img, &mut rng), img);
    }

    #[test]
    fn brightness_shifts_all_pixels_equally() {
        let img = test_image();
        let mut rng = TensorRng::new(4);
        let out = BrightnessJitter { delta: 0.5 }.apply(&img, &mut rng);
        let d0 = out.data()[0] - img.data()[0];
        for i in 0..img.len() {
            assert!((out.data()[i] - img.data()[i] - d0).abs() < 1e-6);
        }
        assert!(d0.abs() <= 0.5);
    }

    #[test]
    fn compose_applies_in_sequence_deterministically() {
        let img = test_image();
        let pipe = Compose::standard(1, 0.2);
        let mut r1 = TensorRng::new(11);
        let mut r2 = TensorRng::new(11);
        assert_eq!(pipe.apply(&img, &mut r1), pipe.apply(&img, &mut r2));
    }

    #[test]
    fn apply_batch_augments_independently() {
        let batch = Tensor::ones(&[3, 1, 4, 4]);
        let pipe = Compose::standard(1, 0.3);
        let mut rng = TensorRng::new(5);
        let out = pipe.apply_batch(&batch, &mut rng);
        assert_eq!(out.shape(), batch.shape());
        // With a seeded stream the three samples almost surely differ.
        let a = out.narrow(0, 0, 1);
        let b = out.narrow(0, 1, 1);
        assert_ne!(a.data(), b.data());
    }
}
