//! Mask R-CNN, miniaturized: a genuine two-stage detector with a
//! proposal stage and per-ROI box/class/mask heads (§3.1.2 — the
//! suite's heavy-weight detection and instance-segmentation
//! representative).
//!
//! Stage 1 proposes regions from an objectness grid; stage 2 gathers ROI
//! features and predicts a class, a refined box and a fixed-resolution
//! instance mask per proposal — structurally the same pipeline as the
//! reference model, at toy scale.

use crate::common::{nms, Detection};
use mlperf_autograd::Var;
use mlperf_data::DetectionSample;
use mlperf_nn::{Conv2d, Linear, Module};
use mlperf_tensor::{Conv2dSpec, Tensor, TensorRng};

/// Fixed mask-head resolution (masks are predicted on an 8×8 grid
/// within each ROI, like the reference's 28×28).
const MASK_RES: usize = 8;

/// Network geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskRcnnConfig {
    /// Input channels.
    pub in_channels: usize,
    /// Square input extent (divisible by 4).
    pub input_size: usize,
    /// Object classes (background added internally).
    pub classes: usize,
    /// Backbone width.
    pub width: usize,
    /// Proposals kept per image at inference.
    pub proposals: usize,
}

impl Default for MaskRcnnConfig {
    fn default() -> Self {
        MaskRcnnConfig { in_channels: 1, input_size: 24, classes: 3, width: 8, proposals: 4 }
    }
}

/// Inference output for one image.
#[derive(Debug, Clone)]
pub struct MaskRcnnOutput {
    /// Detected boxes with classes and scores.
    pub detections: Vec<Detection>,
    /// One `MASK_RES × MASK_RES` sigmoid mask per detection, defined
    /// within the detection's box.
    pub masks: Vec<Tensor>,
}

/// The two-stage detector/segmenter.
#[derive(Debug)]
pub struct MaskRcnnMini {
    // Shared backbone.
    conv1: Conv2d,
    conv2: Conv2d,
    conv3: Conv2d,
    // Stage 1 (proposal network).
    objectness: Conv2d,
    rpn_box: Conv2d,
    // Stage 2 (per-ROI heads).
    roi_fc: Linear,
    class_head: Linear,
    box_head: Linear,
    mask_head: Linear,
    config: MaskRcnnConfig,
    grid: usize,
}

impl MaskRcnnMini {
    /// Builds the network.
    ///
    /// # Panics
    ///
    /// Panics if `input_size` is not divisible by 4.
    pub fn new(config: MaskRcnnConfig, rng: &mut TensorRng) -> Self {
        assert_eq!(config.input_size % 4, 0, "input size must be divisible by 4");
        let w = config.width;
        let feat = 2 * w;
        MaskRcnnMini {
            conv1: Conv2d::new(config.in_channels, w, Conv2dSpec::new(3, 1, 1), true, rng),
            conv2: Conv2d::new(w, w, Conv2dSpec::new(3, 2, 1), true, rng),
            conv3: Conv2d::new(w, feat, Conv2dSpec::new(3, 2, 1), true, rng),
            objectness: Conv2d::new(feat, 1, Conv2dSpec::new(1, 1, 0), true, rng),
            rpn_box: Conv2d::new(feat, 4, Conv2dSpec::new(1, 1, 0), true, rng),
            roi_fc: Linear::new(feat, 2 * feat, true, rng),
            class_head: Linear::new(2 * feat, config.classes + 1, true, rng),
            box_head: Linear::new(2 * feat, 4, true, rng),
            mask_head: Linear::new(2 * feat, MASK_RES * MASK_RES, true, rng),
            grid: config.input_size / 4,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> MaskRcnnConfig {
        self.config
    }

    /// Runs the shared backbone: `[n, c, s, s] -> [n, 2w, g, g]`.
    fn backbone(&self, x: &Var) -> Var {
        let h = self.conv1.forward(x).relu();
        let h = self.conv2.forward(&h).relu();
        self.conv3.forward(&h).relu()
    }

    /// Gathers the ROI feature vector for image `i`, cell `(cy, cx)`,
    /// keeping gradients flowing into the backbone.
    fn roi_feature(&self, features: &Var, i: usize, cy: usize, cx: usize) -> Var {
        let c = features.shape()[1];
        features.narrow(0, i, 1).narrow(2, cy, 1).narrow(3, cx, 1).reshape(&[1, c])
    }

    /// The combined two-stage training loss over a batch of samples.
    ///
    /// Stage 2 trains on ground-truth cells (the standard
    /// sampled-proposal simplification): class CE, box smooth-L1, and
    /// per-pixel mask BCE.
    pub fn loss(&self, samples: &[&DetectionSample]) -> Var {
        let images = mlperf_data::SyntheticShapes::batch_images(samples);
        let features = self.backbone(&Var::constant(images));
        let g = self.grid;
        let n = samples.len();
        // --- Stage 1: objectness + coarse boxes ---
        let obj_logits = self.objectness.forward(&features).reshape(&[n * g * g]);
        let mut obj_targets = Tensor::zeros(&[n * g * g]);
        let rpn_boxes =
            self.rpn_box.forward(&features).permute(&[0, 2, 3, 1]).reshape(&[n * g * g, 4]);
        let mut box_targets = Tensor::zeros(&[n * g * g, 4]);
        let (obj_cells, box_rows) = (obj_targets.data_mut(), box_targets.data_mut());
        let mut positives: Vec<(usize, usize, usize, usize)> = Vec::new(); // (cell, image, cy, cx)
        for (i, s) in samples.iter().enumerate() {
            for obj in &s.objects {
                let cx = ((obj.cx * g as f32) as usize).min(g - 1);
                let cy = ((obj.cy * g as f32) as usize).min(g - 1);
                let cell = i * g * g + cy * g + cx;
                obj_cells[cell] = 1.0;
                box_rows[cell * 4..cell * 4 + 4].copy_from_slice(&[
                    obj.cx * g as f32 - cx as f32 - 0.5,
                    obj.cy * g as f32 - cy as f32 - 0.5,
                    (obj.w * g as f32).ln(),
                    (obj.h * g as f32).ln(),
                ]);
                positives.push((cell, i, cy, cx));
            }
        }
        let rpn_cls_loss = obj_logits.bce_with_logits(&obj_targets);
        let mut total = rpn_cls_loss;
        if positives.is_empty() {
            return total;
        }
        let pos_cells: Vec<usize> = positives.iter().map(|p| p.0).collect();
        let rpn_box_loss =
            rpn_boxes.gather_rows(&pos_cells).smooth_l1(&box_targets.gather_rows(&pos_cells));
        total = total.add(&rpn_box_loss);
        // --- Stage 2: ROI heads on ground-truth cells ---
        let mut roi_feats = Vec::new();
        let mut cls_labels = Vec::new();
        let mut refine_targets = Vec::new();
        let mut mask_targets = Vec::new();
        for (k, &(_, i, cy, cx)) in positives.iter().enumerate() {
            roi_feats.push(self.roi_feature(&features, i, cy, cx));
            let obj =
                object_for_cell(samples[i], g, cy, cx).expect("positive cell must have an object");
            cls_labels.push(obj.class.index());
            refine_targets.push([
                obj.cx * g as f32 - cx as f32 - 0.5,
                obj.cy * g as f32 - cy as f32 - 0.5,
                (obj.w * g as f32).ln(),
                (obj.h * g as f32).ln(),
            ]);
            // Which object index within the sample?
            let obj_idx = samples[i]
                .objects
                .iter()
                .position(|o| std::ptr::eq(o, obj))
                .expect("object belongs to sample");
            mask_targets.push(crop_mask_to_roi(
                &samples[i].masks[obj_idx],
                obj,
                self.config.input_size,
            ));
            let _ = k;
        }
        let roi_refs: Vec<&Var> = roi_feats.iter().collect();
        let rois = Var::concat(&roi_refs, 0); // [k, feat]
        let hidden = self.roi_fc.forward(&rois).relu();
        let cls_loss = self.class_head.forward(&hidden).cross_entropy_logits(&cls_labels);
        let refine_flat: Vec<f32> = refine_targets.iter().flatten().copied().collect();
        let refine_t = Tensor::from_vec(refine_flat, &[positives.len(), 4]);
        let refine_loss = self.box_head.forward(&hidden).smooth_l1(&refine_t);
        let mask_flat: Vec<f32> =
            mask_targets.iter().flat_map(|m| m.data().iter().copied()).collect();
        let mask_t = Tensor::from_vec(mask_flat, &[positives.len(), MASK_RES * MASK_RES]);
        let mask_loss = self.mask_head.forward(&hidden).bce_with_logits(&mask_t);
        total.add(&cls_loss).add(&refine_loss).add(&mask_loss)
    }

    /// Two-stage inference: propose, classify, refine, and predict
    /// masks.
    pub fn detect(&self, images: &Tensor, score_threshold: f32) -> Vec<MaskRcnnOutput> {
        let n = images.shape()[0];
        let g = self.grid;
        let features = self.backbone(&Var::constant(images.clone()));
        let obj = self.objectness.forward(&features).value().reshape(&[n, g * g]).sigmoid();
        let rpn_boxes =
            self.rpn_box.forward(&features).value().permute(&[0, 2, 3, 1]).reshape(&[n, g * g, 4]);
        let nc = self.config.classes + 1;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            // Top-k proposals by objectness.
            let scores = &obj.data()[i * g * g..(i + 1) * g * g];
            let mut order: Vec<usize> = (0..g * g).collect();
            order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
            let top: Vec<usize> = order.into_iter().take(self.config.proposals).collect();
            let mut dets = Vec::new();
            let mut masks = Vec::new();
            for &cell in &top {
                let (cy, cx) = (cell / g, cell % g);
                let roi = self.roi_feature(&features, i, cy, cx);
                let hidden = self.roi_fc.forward(&roi).relu();
                let cls = self.class_head.forward(&hidden).value().softmax_last_axis();
                let (best, score) = cls.data()[..nc - 1]
                    .iter()
                    .enumerate()
                    .fold((0, 0.0f32), |acc, (k, &p)| if p > acc.1 { (k, p) } else { acc });
                let score = score * scores[cell];
                if score < score_threshold {
                    continue;
                }
                let refine = self.box_head.forward(&hidden).value_clone();
                // Combine RPN box decode with the refinement head's
                // offsets (the refinement dominates; RPN seeds it).
                let rb = &rpn_boxes.data()[(i * g * g + cell) * 4..(i * g * g + cell) * 4 + 4];
                let r = refine.data();
                let dx = 0.5 * (rb[0] + r[0]);
                let dy = 0.5 * (rb[1] + r[1]);
                let tw = 0.5 * (rb[2] + r[2]);
                let th = 0.5 * (rb[3] + r[3]);
                let det = Detection {
                    cx: (cx as f32 + 0.5 + dx) / g as f32,
                    cy: (cy as f32 + 0.5 + dy) / g as f32,
                    w: tw.exp() / g as f32,
                    h: th.exp() / g as f32,
                    class: best,
                    score,
                };
                let mask = self
                    .mask_head
                    .forward(&hidden)
                    .value()
                    .sigmoid()
                    .reshape(&[MASK_RES, MASK_RES]);
                dets.push(det);
                masks.push(mask);
            }
            // NMS while keeping masks aligned with their detections.
            let kept = nms(dets.clone(), 0.45);
            let mut kept_masks = Vec::with_capacity(kept.len());
            for k in &kept {
                let idx = dets.iter().position(|d| d == k).expect("kept detection came from dets");
                kept_masks.push(masks[idx].clone());
            }
            out.push(MaskRcnnOutput { detections: kept, masks: kept_masks });
        }
        out
    }
}

/// The ground-truth object whose center falls in grid cell `(cy, cx)`.
fn object_for_cell(
    sample: &DetectionSample,
    g: usize,
    cy: usize,
    cx: usize,
) -> Option<&mlperf_data::BoxLabel> {
    sample.objects.iter().find(|o| {
        ((o.cx * g as f32) as usize).min(g - 1) == cx
            && ((o.cy * g as f32) as usize).min(g - 1) == cy
    })
}

/// Crops a full-image binary mask to an object's box and resamples it to
/// `MASK_RES × MASK_RES` by nearest neighbor.
fn crop_mask_to_roi(mask: &Tensor, obj: &mlperf_data::BoxLabel, image_size: usize) -> Tensor {
    let (x0, y0, x1, y1) = obj.corners();
    let s = image_size as f32;
    let mut out = Tensor::zeros(&[MASK_RES, MASK_RES]);
    let (dst, src) = (out.data_mut(), mask.data());
    for my in 0..MASK_RES {
        for mx in 0..MASK_RES {
            let u = x0 + (x1 - x0) * (mx as f32 + 0.5) / MASK_RES as f32;
            let v = y0 + (y1 - y0) * (my as f32 + 0.5) / MASK_RES as f32;
            let px = ((u * s) as isize).clamp(0, image_size as isize - 1) as usize;
            let py = ((v * s) as isize).clamp(0, image_size as isize - 1) as usize;
            dst[my * MASK_RES + mx] = src[py * image_size + px];
        }
    }
    out
}

impl Module for MaskRcnnMini {
    fn params(&self) -> Vec<Var> {
        [
            &self.conv1 as &dyn Module,
            &self.conv2,
            &self.conv3,
            &self.objectness,
            &self.rpn_box,
            &self.roi_fc,
            &self.class_head,
            &self.box_head,
            &self.mask_head,
        ]
        .iter()
        .flat_map(|m| m.params())
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_data::{ShapesConfig, SyntheticShapes};
    use mlperf_optim::{Adam, Optimizer};

    fn tiny(seed: u64) -> (MaskRcnnMini, SyntheticShapes) {
        let mut rng = TensorRng::new(seed);
        let cfg = MaskRcnnConfig { input_size: 16, width: 4, proposals: 2, ..Default::default() };
        (MaskRcnnMini::new(cfg, &mut rng), SyntheticShapes::generate(ShapesConfig::tiny(), seed))
    }

    #[test]
    fn loss_is_finite_and_positive() {
        let (net, data) = tiny(0);
        let refs: Vec<&DetectionSample> = data.train.iter().take(4).collect();
        let l = net.loss(&refs).value().item();
        assert!(l.is_finite() && l > 0.0);
    }

    #[test]
    fn gradients_reach_all_heads() {
        let (net, data) = tiny(1);
        let refs: Vec<&DetectionSample> = data.train.iter().take(2).collect();
        net.loss(&refs).backward();
        for (i, p) in net.params().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i} missing grad");
        }
    }

    #[test]
    fn loss_decreases_with_training() {
        let (net, data) = tiny(2);
        let refs: Vec<&DetectionSample> = data.train.iter().take(8).collect();
        let mut opt = Adam::with_defaults(net.params());
        let initial = net.loss(&refs).value().item();
        for _ in 0..20 {
            opt.zero_grad();
            net.loss(&refs).backward();
            opt.step(0.01);
        }
        let final_loss = net.loss(&refs).value().item();
        assert!(final_loss < initial, "loss {initial} -> {final_loss}");
    }

    #[test]
    fn detect_emits_masks_per_detection() {
        let (net, data) = tiny(3);
        let refs: Vec<&DetectionSample> = data.val.iter().take(2).collect();
        let images = SyntheticShapes::batch_images(&refs);
        let outputs = net.detect(&images, 0.0);
        assert_eq!(outputs.len(), 2);
        for o in &outputs {
            assert_eq!(o.detections.len(), o.masks.len());
            assert!(o.detections.len() <= net.config().proposals);
            for m in &o.masks {
                assert_eq!(m.shape(), &[MASK_RES, MASK_RES]);
                assert!(m.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
            }
        }
    }

    #[test]
    fn mask_crop_covers_object() {
        let (_, data) = tiny(4);
        let s = &data.train[0];
        let crop = crop_mask_to_roi(&s.masks[0], &s.objects[0], 16);
        // The object's own box crop should be mostly foreground.
        let coverage = crop.sum() / (MASK_RES * MASK_RES) as f32;
        assert!(coverage > 0.4, "coverage {coverage}");
    }
}
