//! **§2.2.4** — the two SGD-with-momentum formulations:
//!
//! - Eq. 1 (Caffe):        `m ← α·m + lr·g`,  `w ← w − m`
//! - Eq. 2 (PyTorch/TF):   `m ← α·m + g`,     `w ← w − lr·m`
//!
//! "The two approaches are not mathematically identical if the learning
//! rate changes during training … it can affect training convergence at
//! higher minibatch sizes."
//!
//! This harness trains identical networks from identical seeds with
//! both optimizers, under (a) a constant learning rate — trajectories
//! differ by rounding only — and (b) a step-decay schedule at small and
//! large batch — trajectories diverge, more at large batch (where the
//! learning rate, and hence the variant gap, is larger under linear
//! scaling).

use crate::{resnet_mini, Claim, Context, Report};
use mlperf_data::{epoch_batches, ImageNetConfig, SyntheticImageNet};
use mlperf_nn::Module;
use mlperf_optim::{linear_scaled_lr, LrSchedule, MultiStepDecay, Optimizer, SgdCaffe, SgdTorch};
use mlperf_tensor::TensorRng;
use serde_json::{json, Value};

fn train(
    caffe: bool,
    batch: usize,
    schedule: &MultiStepDecay,
    data: &SyntheticImageNet,
) -> (Vec<f64>, Vec<f32>) {
    let mut rng = TensorRng::new(99);
    let model = resnet_mini(data, &mut rng);
    let mut opt: Box<dyn Optimizer> = if caffe {
        Box::new(SgdCaffe::new(model.params(), 0.9, 0.0))
    } else {
        Box::new(SgdTorch::new(model.params(), 0.9, 0.0))
    };
    let mut data_rng = rng.split();
    let mut acc = Vec::new();
    for epoch in 0..8 {
        let lr = schedule.lr(epoch);
        for idx in epoch_batches(data.train.len(), batch, &mut data_rng).iter() {
            let (images, labels) = data.train.batch(idx);
            opt.zero_grad();
            model.loss(&images, &labels).backward();
            opt.step(lr);
        }
        acc.push(model.accuracy(data.val.images(), data.val.labels()) as f64);
    }
    let weights = model.params().iter().flat_map(|p| p.value().data().to_vec()).collect();
    (acc, weights)
}

/// One scenario as JSON, and its maximum weight divergence.
fn run_scenario(
    name: &str,
    batch: usize,
    decay: bool,
    data: &SyntheticImageNet,
    text: &mut String,
) -> (Value, f32) {
    let base = linear_scaled_lr(0.05, batch, 32);
    let schedule = if decay {
        MultiStepDecay { base, gamma: 0.1, milestones: vec![3, 6] }
    } else {
        MultiStepDecay { base, gamma: 1.0, milestones: vec![] }
    };
    let (caffe_acc, caffe_w) = train(true, batch, &schedule, data);
    let (torch_acc, torch_w) = train(false, batch, &schedule, data);
    let max_div = caffe_w.iter().zip(&torch_w).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
    out!(
        text,
        "{name:<28} batch {batch:>4}  final acc caffe {:.3} / torch {:.3}  max |w_caffe - w_torch| = {max_div:.2e}",
        caffe_acc[7],
        torch_acc[7],
    );
    let result = json!({
        "name": name,
        "batch": batch,
        "schedule": if decay { "step-decay" } else { "constant" },
        "caffe_accuracy": caffe_acc,
        "torch_accuracy": torch_acc,
        "max_weight_divergence": max_div,
    });
    (result, max_div)
}

/// Maximum weight divergence under constant LR at batch 32, and under
/// step decay at batch 32 (`small`) and 128 (`large`).
pub(crate) fn claims(constant: f32, small: f32, large: f32) -> Vec<Claim> {
    vec![
        Claim::new(
            "step-decay divergence > constant-LR divergence at batch 32 and at batch 128",
            small > constant && large > constant,
        ),
        Claim::new("step-decay divergence at batch 128 > at batch 32", large > small),
    ]
}

/// Trains both variants under the three scenarios.
pub fn run(_ctx: &Context) -> Report {
    let mut text = String::from("Momentum-variant study (paper §2.2.4, Eq. 1 vs Eq. 2)\n\n");
    let data = SyntheticImageNet::generate(ImageNetConfig::default(), 0x3344);
    let scenarios = [
        run_scenario("constant lr (identical)", 32, false, &data, &mut text),
        run_scenario("step decay, small batch", 32, true, &data, &mut text),
        run_scenario("step decay, large batch", 128, true, &data, &mut text),
    ];
    let [constant, small, large] = [0, 1, 2].map(|i| scenarios[i].1);
    out!(
        text,
        "\nconstant-lr divergence {constant:.2e} (floating-point rounding only — the two \
         formulations are mathematically identical at constant lr)"
    );
    let (small_x, large_x) = (small / constant, large / constant);
    out!(
        text,
        "decay divergence: small batch {small:.2e} ({small_x:.0}x constant), large batch {large:.2e} ({large_x:.0}x constant)"
    );
    Report::new(&scenarios.map(|(result, _)| result), text, claims(constant, small, large))
}
