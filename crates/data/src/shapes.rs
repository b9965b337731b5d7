//! A procedurally generated stand-in for COCO 2017: images of geometric
//! objects with ground-truth bounding boxes, class labels and pixel
//! masks. Exercises the detection- and segmentation-specific code paths
//! the paper calls out (anchors, IoU, NMS, per-ROI mask heads, mAP
//! evaluation).

use mlperf_tensor::{Tensor, TensorRng};

/// Object categories present in the synthetic detection dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShapeClass {
    /// Axis-aligned filled square.
    Square,
    /// Filled disc.
    Disc,
    /// Plus-shaped cross.
    Cross,
}

impl ShapeClass {
    /// All classes, indexable by [`ShapeClass::index`].
    pub const ALL: [ShapeClass; 3] = [ShapeClass::Square, ShapeClass::Disc, ShapeClass::Cross];

    /// Stable class index (0-based).
    pub fn index(self) -> usize {
        match self {
            ShapeClass::Square => 0,
            ShapeClass::Disc => 1,
            ShapeClass::Cross => 2,
        }
    }

    /// Inverse of [`ShapeClass::index`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= 3`.
    pub(crate) fn from_index(i: usize) -> ShapeClass {
        ShapeClass::ALL[i]
    }
}

/// A ground-truth object: normalized box, class, and its mask.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxLabel {
    /// Center x in `[0, 1]`.
    pub cx: f32,
    /// Center y in `[0, 1]`.
    pub cy: f32,
    /// Width in `[0, 1]`.
    pub w: f32,
    /// Height in `[0, 1]`.
    pub h: f32,
    /// Object class.
    pub class: ShapeClass,
}

impl BoxLabel {
    /// Corner form `(x0, y0, x1, y1)` in normalized coordinates.
    pub fn corners(&self) -> (f32, f32, f32, f32) {
        (
            self.cx - self.w / 2.0,
            self.cy - self.h / 2.0,
            self.cx + self.w / 2.0,
            self.cy + self.h / 2.0,
        )
    }

    /// Intersection-over-union with another box.
    pub fn iou(&self, other: &BoxLabel) -> f32 {
        iou_corners(self.corners(), other.corners())
    }
}

/// Intersection-over-union of two corner-form `(x0, y0, x1, y1)`
/// boxes; 0 when their union has no area.
pub fn iou_corners(a: (f32, f32, f32, f32), b: (f32, f32, f32, f32)) -> f32 {
    let ix = (a.2.min(b.2) - a.0.max(b.0)).max(0.0);
    let iy = (a.3.min(b.3) - a.1.max(b.1)).max(0.0);
    let inter = ix * iy;
    let area_a = (a.2 - a.0).max(0.0) * (a.3 - a.1).max(0.0);
    let area_b = (b.2 - b.0).max(0.0) * (b.3 - b.1).max(0.0);
    let union = area_a + area_b - inter;
    if union <= 0.0 {
        0.0
    } else {
        inter / union
    }
}

/// One image with its ground truth.
#[derive(Debug, Clone)]
pub struct DetectionSample {
    /// Image `[1, size, size]` (single channel).
    pub image: Tensor,
    /// Ground-truth objects.
    pub objects: Vec<BoxLabel>,
    /// Binary instance mask per object, `[size, size]`.
    pub masks: Vec<Tensor>,
}

/// Dataset geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapesConfig {
    /// Square image extent.
    pub image_size: usize,
    /// Training images.
    pub train_images: usize,
    /// Validation images.
    pub val_images: usize,
    /// Maximum objects per image (at least 1 is always placed).
    pub max_objects: usize,
    /// Additive noise std.
    pub noise: f32,
}

impl Default for ShapesConfig {
    fn default() -> Self {
        ShapesConfig {
            image_size: 24,
            train_images: 192,
            val_images: 48,
            max_objects: 2,
            noise: 0.12,
        }
    }
}

impl ShapesConfig {
    /// A smaller configuration for fast unit tests.
    pub fn tiny() -> Self {
        ShapesConfig {
            image_size: 16,
            train_images: 24,
            val_images: 8,
            max_objects: 1,
            noise: 0.05,
        }
    }
}

/// The synthetic detection/segmentation dataset.
#[derive(Debug, Clone)]
pub struct SyntheticShapes {
    /// Training samples.
    pub train: Vec<DetectionSample>,
    /// Validation samples.
    pub val: Vec<DetectionSample>,
    config: ShapesConfig,
}

impl SyntheticShapes {
    /// Generates the dataset from a seed.
    pub fn generate(config: ShapesConfig, seed: u64) -> Self {
        let mut rng = TensorRng::new(seed);
        let train = (0..config.train_images).map(|_| render_sample(&config, &mut rng)).collect();
        let val = (0..config.val_images).map(|_| render_sample(&config, &mut rng)).collect();
        SyntheticShapes { train, val, config }
    }

    /// The generating configuration.
    pub fn config(&self) -> ShapesConfig {
        self.config
    }

    /// Stacks samples into a batch image tensor `[k, 1, s, s]`.
    pub fn batch_images(samples: &[&DetectionSample]) -> Tensor {
        let refs: Vec<Tensor> = samples
            .iter()
            .map(|s| {
                let sh = s.image.shape().to_vec();
                s.image.reshape(&[1, sh[0], sh[1], sh[2]])
            })
            .collect();
        let views: Vec<&Tensor> = refs.iter().collect();
        Tensor::concat(&views, 0)
    }
}

fn render_sample(cfg: &ShapesConfig, rng: &mut TensorRng) -> DetectionSample {
    let s = cfg.image_size;
    let mut image = rng.normal(&[1, s, s], 0.0, cfg.noise);
    let count = 1 + rng.index(cfg.max_objects);
    let mut objects = Vec::with_capacity(count);
    let mut masks = Vec::with_capacity(count);
    for _ in 0..count {
        let class = ShapeClass::from_index(rng.index(3));
        // Size 4..=s/2 pixels, placed fully inside the image.
        let half = 2 + rng.index(s / 4 - 1);
        let cx_px = half + rng.index(s - 2 * half);
        let cy_px = half + rng.index(s - 2 * half);
        let mut mask = Tensor::zeros(&[s, s]);
        let (image_px, mask_px) = (image.data_mut(), mask.data_mut());
        for y in 0..s {
            for x in 0..s {
                let dx = x as isize - cx_px as isize;
                let dy = y as isize - cy_px as isize;
                let inside = match class {
                    ShapeClass::Square => dx.abs() <= half as isize && dy.abs() <= half as isize,
                    ShapeClass::Disc => dx * dx + dy * dy <= (half * half) as isize,
                    ShapeClass::Cross => {
                        (dx.abs() <= (half / 2).max(1) as isize && dy.abs() <= half as isize)
                            || (dy.abs() <= (half / 2).max(1) as isize && dx.abs() <= half as isize)
                    }
                };
                if inside {
                    image_px[y * s + x] = 1.0;
                    mask_px[y * s + x] = 1.0;
                }
            }
        }
        objects.push(BoxLabel {
            cx: cx_px as f32 / s as f32,
            cy: cy_px as f32 / s as f32,
            w: (2 * half + 1) as f32 / s as f32,
            h: (2 * half + 1) as f32 / s as f32,
            class,
        });
        masks.push(mask);
    }
    DetectionSample { image, objects, masks }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_image_has_objects_and_masks() {
        let d = SyntheticShapes::generate(ShapesConfig::tiny(), 1);
        for sample in d.train.iter().chain(d.val.iter()) {
            assert!(!sample.objects.is_empty());
            assert_eq!(sample.objects.len(), sample.masks.len());
            for (obj, mask) in sample.objects.iter().zip(sample.masks.iter()) {
                assert!(mask.sum() > 0.0, "empty mask");
                assert!(obj.w > 0.0 && obj.h > 0.0);
                let (x0, y0, x1, y1) = obj.corners();
                assert!(x0 >= -0.05 && y0 >= -0.05 && x1 <= 1.05 && y1 <= 1.05);
            }
        }
    }

    #[test]
    fn mask_lies_inside_box() {
        let d = SyntheticShapes::generate(ShapesConfig::tiny(), 2);
        let s = d.config().image_size;
        for sample in &d.train {
            for (obj, mask) in sample.objects.iter().zip(sample.masks.iter()) {
                let (x0, y0, x1, y1) = obj.corners();
                for y in 0..s {
                    for x in 0..s {
                        if mask.data()[y * s + x] > 0.0 {
                            let (u, v) = (x as f32 / s as f32, y as f32 / s as f32);
                            assert!(
                                u >= x0 - 0.08
                                    && u <= x1 + 0.08
                                    && v >= y0 - 0.08
                                    && v <= y1 + 0.08,
                                "mask pixel ({u},{v}) outside box"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn iou_identity_and_disjoint() {
        let b = BoxLabel { cx: 0.5, cy: 0.5, w: 0.2, h: 0.2, class: ShapeClass::Square };
        assert!((b.iou(&b) - 1.0).abs() < 1e-6);
        let far = BoxLabel { cx: 0.1, cy: 0.1, w: 0.1, h: 0.1, class: ShapeClass::Disc };
        assert_eq!(b.iou(&far), 0.0);
    }

    #[test]
    fn iou_half_overlap() {
        let a = BoxLabel { cx: 0.25, cy: 0.5, w: 0.5, h: 1.0, class: ShapeClass::Square };
        let b = BoxLabel { cx: 0.5, cy: 0.5, w: 0.5, h: 1.0, class: ShapeClass::Square };
        // Intersection 0.25, union 0.75.
        assert!((a.iou(&b) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn deterministic_generation() {
        let a = SyntheticShapes::generate(ShapesConfig::tiny(), 9);
        let b = SyntheticShapes::generate(ShapesConfig::tiny(), 9);
        assert_eq!(a.train[0].image, b.train[0].image);
        assert_eq!(a.train[0].objects, b.train[0].objects);
    }

    #[test]
    fn batch_images_stacks() {
        let d = SyntheticShapes::generate(ShapesConfig::tiny(), 3);
        let refs: Vec<&DetectionSample> = d.train.iter().take(4).collect();
        let batch = SyntheticShapes::batch_images(&refs);
        assert_eq!(batch.shape(), &[4, 1, 16, 16]);
    }
}
