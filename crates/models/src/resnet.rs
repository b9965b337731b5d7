//! ResNet v1.5, miniaturized.
//!
//! The paper (§3.1.1) motivates pinning down an exact ResNet variant:
//! "there are a number of slightly different implementations of
//! ResNet-50 … which lead to earlier system performance claims not being
//! comparable due to model differences". MLPerf's v1.5 choices, which
//! this model reproduces structurally:
//!
//! - residual addition happens *after* the second batch norm,
//!   activation after the addition;
//! - downsampling is performed by the 3×3 convolution (stride 2), not
//!   the 1×1 projection;
//! - the first residual block of the network carries no projection on
//!   its skip connection.

use mlperf_autograd::Var;
use mlperf_nn::{BatchNorm2d, Conv2d, Linear, Module};
use mlperf_tensor::{Conv2dSpec, Tensor, TensorRng};

/// Network geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResNetConfig {
    /// Input channels.
    pub in_channels: usize,
    /// Square input extent.
    pub input_size: usize,
    /// Output classes.
    pub classes: usize,
    /// Channel width of the stem / first stage.
    pub base_width: usize,
    /// Residual blocks per stage (two stages; the second downsamples).
    pub blocks_per_stage: usize,
}

impl Default for ResNetConfig {
    fn default() -> Self {
        ResNetConfig {
            in_channels: 3,
            input_size: 12,
            classes: 10,
            base_width: 8,
            blocks_per_stage: 1,
        }
    }
}

/// A v1.5-style basic residual block.
#[derive(Debug)]
struct BasicBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    /// 1×1 projection for the skip when shape changes (stride-2 block).
    projection: Option<Conv2d>,
}

impl BasicBlock {
    fn new(in_ch: usize, out_ch: usize, stride: usize, rng: &mut TensorRng) -> Self {
        // v1.5: the 3x3 convolution carries the stride.
        let conv1 = Conv2d::new(in_ch, out_ch, Conv2dSpec::new(3, stride, 1), false, rng);
        let conv2 = Conv2d::new(out_ch, out_ch, Conv2dSpec::new(3, 1, 1), false, rng);
        let projection = if stride != 1 || in_ch != out_ch {
            Some(Conv2d::new(in_ch, out_ch, Conv2dSpec::new(1, stride, 0), false, rng))
        } else {
            None
        };
        BasicBlock {
            conv1,
            bn1: BatchNorm2d::new(out_ch),
            conv2,
            bn2: BatchNorm2d::new(out_ch),
            projection,
        }
    }

    fn forward(&self, x: &Var, training: bool) -> Var {
        let h = self.bn1.forward(&self.conv1.forward(x), training).relu();
        let h = self.bn2.forward(&self.conv2.forward(&h), training);
        let skip = match &self.projection {
            Some(p) => p.forward(x),
            None => x.clone(),
        };
        // Addition after batch norm, activation after addition (v1.5).
        h.add(&skip).relu()
    }
}

impl Module for BasicBlock {
    fn params(&self) -> Vec<Var> {
        let mut ps = self.conv1.params();
        ps.extend(self.bn1.params());
        ps.extend(self.conv2.params());
        ps.extend(self.bn2.params());
        if let Some(p) = &self.projection {
            ps.extend(p.params());
        }
        ps
    }
}

/// The miniaturized ResNet v1.5 classifier.
#[derive(Debug)]
pub struct ResNetMini {
    stem: Conv2d,
    stem_bn: BatchNorm2d,
    stage1: Vec<BasicBlock>,
    stage2: Vec<BasicBlock>,
    head: Linear,
    config: ResNetConfig,
}

impl ResNetMini {
    /// Builds the network.
    pub fn new(config: ResNetConfig, rng: &mut TensorRng) -> Self {
        let w = config.base_width;
        let stem = Conv2d::new(config.in_channels, w, Conv2dSpec::new(3, 1, 1), false, rng);
        let stem_bn = BatchNorm2d::new(w);
        // Stage 1: identity-skip blocks at base width (the first block
        // has no projection — the v1.5 rule).
        let stage1 = (0..config.blocks_per_stage).map(|_| BasicBlock::new(w, w, 1, rng)).collect();
        // Stage 2: first block downsamples (stride 2 in its 3x3) and
        // doubles width.
        let stage2 = (0..config.blocks_per_stage)
            .map(|i| {
                if i == 0 {
                    BasicBlock::new(w, 2 * w, 2, rng)
                } else {
                    BasicBlock::new(2 * w, 2 * w, 1, rng)
                }
            })
            .collect();
        let head = Linear::new(2 * w, config.classes, true, rng);
        ResNetMini { stem, stem_bn, stage1, stage2, head, config }
    }

    /// The configuration used to build the network.
    pub fn config(&self) -> ResNetConfig {
        self.config
    }

    /// Computes class logits for `[n, in_channels, s, s]`.
    pub fn forward(&self, x: &Var, training: bool) -> Var {
        let mut h = self.stem_bn.forward(&self.stem.forward(x), training).relu();
        for b in &self.stage1 {
            h = b.forward(&h, training);
        }
        for b in &self.stage2 {
            h = b.forward(&h, training);
        }
        self.head.forward(&h.global_avg_pool())
    }

    /// Mean cross-entropy training loss.
    pub fn loss(&self, images: &Tensor, labels: &[usize]) -> Var {
        self.forward(&Var::constant(images.clone()), true).cross_entropy_logits(labels)
    }

    /// Top-1 accuracy in evaluation mode (running batch-norm
    /// statistics).
    pub fn accuracy(&self, images: &Tensor, labels: &[usize]) -> f32 {
        let logits = self.forward(&Var::constant(images.clone()), false);
        let preds = logits.value().argmax_last_axis();
        preds.iter().zip(labels.iter()).filter(|(p, l)| p == l).count() as f32 / labels.len() as f32
    }
}

impl Module for ResNetMini {
    fn params(&self) -> Vec<Var> {
        let mut ps = self.stem.params();
        ps.extend(self.stem_bn.params());
        for b in self.stage1.iter().chain(self.stage2.iter()) {
            ps.extend(b.params());
        }
        ps.extend(self.head.params());
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_optim::{Optimizer, SgdTorch};

    #[test]
    fn forward_shapes() {
        let mut rng = TensorRng::new(0);
        let cfg = ResNetConfig { input_size: 8, in_channels: 1, classes: 4, ..Default::default() };
        let net = ResNetMini::new(cfg, &mut rng);
        let x = Var::constant(rng.normal(&[2, 1, 8, 8], 0.0, 1.0));
        assert_eq!(net.forward(&x, true).shape(), vec![2, 4]);
        assert_eq!(net.forward(&x, false).shape(), vec![2, 4]);
    }

    #[test]
    fn first_stage_blocks_have_no_projection() {
        let mut rng = TensorRng::new(1);
        let net = ResNetMini::new(ResNetConfig::default(), &mut rng);
        assert!(net.stage1.iter().all(|b| b.projection.is_none()));
        assert!(net.stage2[0].projection.is_some());
    }

    #[test]
    fn downsampling_in_3x3_conv() {
        let mut rng = TensorRng::new(2);
        let net = ResNetMini::new(ResNetConfig::default(), &mut rng);
        // v1.5: the 3x3 conv of the stride-2 block carries stride 2 …
        assert_eq!(net.stage2[0].conv1.spec().stride, 2);
        assert_eq!(net.stage2[0].conv1.spec().kernel, 3);
        // … and its projection is a strided 1x1.
        let proj = net.stage2[0].projection.as_ref().unwrap();
        assert_eq!(proj.spec().kernel, 1);
        assert_eq!(proj.spec().stride, 2);
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let mut rng = TensorRng::new(3);
        let cfg = ResNetConfig { input_size: 8, in_channels: 1, classes: 3, ..Default::default() };
        let net = ResNetMini::new(cfg, &mut rng);
        let x = rng.normal(&[2, 1, 8, 8], 0.0, 1.0);
        net.loss(&x, &[0, 2]).backward();
        for (i, p) in net.params().iter().enumerate() {
            assert!(p.grad().is_some(), "parameter {i} missing gradient");
        }
    }

    #[test]
    fn learns_separable_classes() {
        let mut rng = TensorRng::new(4);
        let cfg = ResNetConfig {
            input_size: 8,
            in_channels: 1,
            classes: 2,
            base_width: 4,
            blocks_per_stage: 1,
        };
        let net = ResNetMini::new(cfg, &mut rng);
        // Vertical vs horizontal stripes.
        let mut images = Tensor::zeros(&[8, 1, 8, 8]);
        let pixels = images.data_mut();
        let mut labels = Vec::new();
        for i in 0..8 {
            for y in 0..8 {
                for x in 0..8 {
                    let stripe = if i % 2 == 0 { x % 2 } else { y % 2 };
                    pixels[i * 64 + y * 8 + x] = stripe as f32;
                }
            }
            labels.push(i % 2);
        }
        let mut opt = SgdTorch::new(net.params(), 0.9, 0.0);
        for _ in 0..30 {
            opt.zero_grad();
            net.loss(&images, &labels).backward();
            opt.step(0.05);
        }
        assert!(
            net.accuracy(&images, &labels) > 0.9,
            "failed to learn stripes: {}",
            net.accuracy(&images, &labels)
        );
    }
}
