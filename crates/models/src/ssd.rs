//! SSD, miniaturized: a single-shot grid detector with one anchor per
//! cell, standing in for SSD-ResNet-34 (§3.1.2 — the suite's
//! low-latency, single-stage detection representative).

use crate::common::{nms, Detection};
use mlperf_autograd::Var;
use mlperf_data::DetectionSample;
use mlperf_nn::{Conv2d, Module};
use mlperf_tensor::{Conv2dSpec, Tensor, TensorRng};

/// Network geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsdConfig {
    /// Input channels.
    pub in_channels: usize,
    /// Square input extent (must be divisible by 4).
    pub input_size: usize,
    /// Object classes (background is added internally).
    pub classes: usize,
    /// Backbone width.
    pub width: usize,
}

impl Default for SsdConfig {
    fn default() -> Self {
        SsdConfig { in_channels: 1, input_size: 24, classes: 3, width: 8 }
    }
}

/// The single-shot detector.
#[derive(Debug)]
pub struct SsdMini {
    conv1: Conv2d,
    conv2: Conv2d,
    conv3: Conv2d,
    class_head: Conv2d,
    box_head: Conv2d,
    config: SsdConfig,
    grid: usize,
}

impl SsdMini {
    /// Builds the detector.
    ///
    /// # Panics
    ///
    /// Panics if `input_size` is not divisible by 4.
    pub fn new(config: SsdConfig, rng: &mut TensorRng) -> Self {
        assert_eq!(config.input_size % 4, 0, "input size must be divisible by 4");
        let w = config.width;
        SsdMini {
            conv1: Conv2d::new(config.in_channels, w, Conv2dSpec::new(3, 1, 1), true, rng),
            conv2: Conv2d::new(w, w, Conv2dSpec::new(3, 2, 1), true, rng),
            conv3: Conv2d::new(w, 2 * w, Conv2dSpec::new(3, 2, 1), true, rng),
            class_head: Conv2d::new(2 * w, config.classes + 1, Conv2dSpec::new(1, 1, 0), true, rng),
            box_head: Conv2d::new(2 * w, 4, Conv2dSpec::new(1, 1, 0), true, rng),
            grid: config.input_size / 4,
            config,
        }
    }

    /// Grid extent of the prediction head.
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// The configuration.
    pub fn config(&self) -> SsdConfig {
        self.config
    }

    /// Runs the backbone + heads.
    ///
    /// Returns `(class_logits [n, classes+1, g, g], boxes [n, 4, g, g])`.
    pub fn forward(&self, x: &Var) -> (Var, Var) {
        let h = self.conv1.forward(x).relu();
        let h = self.conv2.forward(&h).relu();
        let h = self.conv3.forward(&h).relu();
        (self.class_head.forward(&h), self.box_head.forward(&h))
    }

    /// Per-cell supervision targets for a batch of samples: class per
    /// cell (background = `classes`) and box-offset targets with a
    /// positive mask.
    fn assign_targets(&self, samples: &[&DetectionSample]) -> (Vec<usize>, Tensor, Vec<usize>) {
        let g = self.grid;
        let bg = self.config.classes;
        let mut cls = vec![bg; samples.len() * g * g];
        let mut boxes = Tensor::zeros(&[samples.len() * g * g, 4]);
        let box_rows = boxes.data_mut();
        let mut positives = Vec::new();
        for (i, s) in samples.iter().enumerate() {
            for obj in &s.objects {
                let cell_x = ((obj.cx * g as f32) as usize).min(g - 1);
                let cell_y = ((obj.cy * g as f32) as usize).min(g - 1);
                let cell = i * g * g + cell_y * g + cell_x;
                cls[cell] = obj.class.index();
                // Offsets of the center within the cell plus log-scale
                // extents relative to the cell size.
                let dx = obj.cx * g as f32 - cell_x as f32 - 0.5;
                let dy = obj.cy * g as f32 - cell_y as f32 - 0.5;
                let tw = (obj.w * g as f32).ln();
                let th = (obj.h * g as f32).ln();
                box_rows[cell * 4..cell * 4 + 4].copy_from_slice(&[dx, dy, tw, th]);
                positives.push(cell);
            }
        }
        positives.sort_unstable();
        positives.dedup();
        (cls, boxes, positives)
    }

    /// The multibox training loss: cross-entropy over positive cells
    /// plus the hardest mined negatives (3 : 1 negative : positive
    /// ratio, the standard SSD recipe that keeps the overwhelming
    /// background population from washing out the object signal), plus
    /// smooth-L1 box regression on positive cells.
    pub fn loss(&self, samples: &[&DetectionSample]) -> Var {
        let images = mlperf_data::SyntheticShapes::batch_images(samples);
        let (cls_logits, box_pred) = self.forward(&Var::constant(images));
        let g = self.grid;
        let n = samples.len();
        let nc = self.config.classes + 1;
        let bg = self.config.classes;
        let (cls_targets, box_targets, positives) = self.assign_targets(samples);
        // [n, nc, g, g] -> [n*g*g, nc]
        let flat_logits = cls_logits.permute(&[0, 2, 3, 1]).reshape(&[n * g * g, nc]);
        if positives.is_empty() {
            return flat_logits.cross_entropy_logits(&cls_targets);
        }
        // Hard-negative mining: rank background cells by how little
        // background probability the model currently assigns them.
        let probs = flat_logits.value().softmax_last_axis();
        let mut negatives: Vec<(usize, f32)> = (0..n * g * g)
            .filter(|cell| cls_targets[*cell] == bg)
            .map(|cell| (cell, probs.data()[cell * nc + bg]))
            .collect();
        negatives.sort_by(|a, b| a.1.total_cmp(&b.1));
        let keep = (3 * positives.len()).min(negatives.len());
        let mut rows: Vec<usize> = positives.clone();
        rows.extend(negatives[..keep].iter().map(|&(c, _)| c));
        let labels: Vec<usize> = rows.iter().map(|&c| cls_targets[c]).collect();
        let class_loss = flat_logits.gather_rows(&rows).cross_entropy_logits(&labels);
        let flat_boxes = box_pred.permute(&[0, 2, 3, 1]).reshape(&[n * g * g, 4]);
        let pos_pred = flat_boxes.gather_rows(&positives);
        let pos_target = box_targets.gather_rows(&positives);
        let box_loss = pos_pred.smooth_l1(&pos_target);
        class_loss.add(&box_loss)
    }

    /// Decodes detections for a batch of images, with per-class NMS.
    pub fn detect(&self, images: &Tensor, score_threshold: f32) -> Vec<Vec<Detection>> {
        let (cls_logits, box_pred) = self.forward(&Var::constant(images.clone()));
        let g = self.grid;
        let n = images.shape()[0];
        let nc = self.config.classes + 1;
        let probs =
            cls_logits.value().permute(&[0, 2, 3, 1]).reshape(&[n * g * g, nc]).softmax_last_axis();
        let boxes = box_pred.value().permute(&[0, 2, 3, 1]).reshape(&[n * g * g, 4]);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let mut dets = Vec::new();
            for cy in 0..g {
                for cx in 0..g {
                    let cell = i * g * g + cy * g + cx;
                    let row = &probs.data()[cell * nc..(cell + 1) * nc];
                    // Best non-background class.
                    let (best, score) = row[..self.config.classes]
                        .iter()
                        .enumerate()
                        .fold((0, 0.0f32), |acc, (k, &p)| if p > acc.1 { (k, p) } else { acc });
                    if score < score_threshold {
                        continue;
                    }
                    let b = &boxes.data()[cell * 4..(cell + 1) * 4];
                    let cxn = (cx as f32 + 0.5 + b[0]) / g as f32;
                    let cyn = (cy as f32 + 0.5 + b[1]) / g as f32;
                    let w = b[2].exp() / g as f32;
                    let h = b[3].exp() / g as f32;
                    dets.push(Detection { cx: cxn, cy: cyn, w, h, class: best, score });
                }
            }
            out.push(nms(dets, 0.45));
        }
        out
    }
}

impl Module for SsdMini {
    fn params(&self) -> Vec<Var> {
        [&self.conv1 as &dyn Module, &self.conv2, &self.conv3, &self.class_head, &self.box_head]
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

    fn tiny_net(seed: u64) -> (SsdMini, SyntheticShapes) {
        let mut rng = TensorRng::new(seed);
        let cfg = SsdConfig { input_size: 16, width: 4, ..Default::default() };
        let net = SsdMini::new(cfg, &mut rng);
        let data = SyntheticShapes::generate(ShapesConfig::tiny(), seed);
        (net, data)
    }

    #[test]
    fn head_shapes() {
        let (net, data) = tiny_net(0);
        let refs: Vec<&DetectionSample> = data.train.iter().take(2).collect();
        let images = SyntheticShapes::batch_images(&refs);
        let (cls, boxes) = net.forward(&Var::constant(images));
        assert_eq!(cls.shape(), vec![2, 4, 4, 4]);
        assert_eq!(boxes.shape(), vec![2, 4, 4, 4]);
    }

    #[test]
    fn targets_mark_object_cells() {
        let (net, data) = tiny_net(1);
        let refs: Vec<&DetectionSample> = data.train.iter().take(3).collect();
        let (cls, _boxes, positives) = net.assign_targets(&refs);
        assert!(!positives.is_empty());
        for &p in &positives {
            assert_ne!(cls[p], net.config().classes, "positive cell marked background");
        }
        let bg_count = cls.iter().filter(|&&c| c == net.config().classes).count();
        assert!(bg_count > positives.len(), "background should dominate");
    }

    #[test]
    fn loss_decreases_with_training() {
        let (net, data) = tiny_net(2);
        let refs: Vec<&DetectionSample> = data.train.iter().collect();
        let mut opt = Adam::with_defaults(net.params());
        let initial = net.loss(&refs).value().item();
        for _ in 0..25 {
            opt.zero_grad();
            net.loss(&refs).backward();
            opt.step(0.01);
        }
        let final_loss = net.loss(&refs).value().item();
        assert!(final_loss < initial * 0.8, "loss did not decrease: {initial} -> {final_loss}");
    }

    #[test]
    fn detect_returns_normalized_boxes() {
        let (net, data) = tiny_net(3);
        let refs: Vec<&DetectionSample> = data.val.iter().take(2).collect();
        let images = SyntheticShapes::batch_images(&refs);
        let dets = net.detect(&images, 0.0);
        assert_eq!(dets.len(), 2);
        for img_dets in &dets {
            for d in img_dets {
                assert!(d.score >= 0.0 && d.score <= 1.0);
                assert!(d.w > 0.0 && d.h > 0.0);
                assert!(d.class < net.config().classes);
            }
        }
    }
}
