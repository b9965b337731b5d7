//! **Figure 1** — validation error over epochs under different weight
//! representations (the AlexNet/ImageNet precision study of Zhu et al.,
//! 2016, reprinted by the paper to show that precision effects are only
//! visible late in training).
//!
//! Trains the same AlexNet-style network from the same seed under each
//! simulated precision (weights rounded to the format's grid after
//! every optimizer step) and prints the validation-error series. The
//! expected shape: the ≥16-bit formats end together, and the coarsest
//! formats never reach the fp32 error.

use crate::{render_series, spread, Claim, Context, Report};
use mlperf_data::{epoch_batches, ImageNetConfig, SyntheticImageNet};
use mlperf_models::AlexNetMini;
use mlperf_nn::Module;
use mlperf_optim::{Optimizer, SgdTorch};
use mlperf_tensor::{Precision, TensorRng};
use serde_json::json;

/// Final validation errors in `Precision::ALL` order: fp32, bf16, fp16,
/// fp8, ternary.
pub(crate) fn claims(finals: &[f64]) -> Vec<Claim> {
    vec![
        Claim::new(
            "fp32, bf16 and fp16 final errors lie within 0.05 of each other",
            spread(&finals[..3]) <= 0.05,
        ),
        Claim::new("fp8 final error > fp32 final error", finals[3] > finals[0]),
        Claim::new("ternary final error > 0.5", finals[4] > 0.5),
    ]
}

/// Trains one network per precision for `count` epochs (default 40).
pub fn run(ctx: &Context) -> Report {
    let (epochs, seed) = (ctx.count(40).max(2), 2024u64);
    let data = SyntheticImageNet::generate(ImageNetConfig::default(), 0xF16);
    let mut text = format!(
        "Figure 1: validation error vs epoch under simulated weight precision\n\
         (AlexNetMini on synthetic ImageNet, identical seed {seed}, {epochs} epochs)\n\n"
    );
    let (mut all, mut curves) = (Vec::new(), Vec::new());
    for precision in Precision::ALL {
        let mut rng = TensorRng::new(seed);
        let cfg = data.config();
        let net = AlexNetMini::new(cfg.channels, cfg.image_size, cfg.classes, &mut rng);
        let mut opt = SgdTorch::new(net.params(), 0.9, 0.0);
        let mut data_rng = rng.split();
        let mut errors = Vec::with_capacity(epochs);
        for _epoch in 0..epochs {
            for batch in epoch_batches(data.train.len(), 32, &mut data_rng).iter() {
                let (images, labels) = data.train.batch(batch);
                opt.zero_grad();
                net.loss(&images, &labels).backward();
                opt.step(0.03);
                // The precision simulation: weights live on the
                // format's grid.
                net.quantize_weights(precision);
            }
            let acc = net.accuracy(data.val.images(), data.val.labels());
            errors.push(1.0 - acc as f64);
        }
        out!(text, "{}", render_series(&precision.to_string(), &errors, 3));
        all.push(json!({
            "precision": precision.to_string(),
            "bits": precision.bits(),
            "final_error": errors[epochs - 1],
            "val_error": errors,
        }));
        curves.push(errors);
    }
    let at = |epoch: usize| -> Vec<f64> { curves.iter().map(|errors| errors[epoch]).collect() };
    let finals = at(epochs - 1);
    out!(
        text,
        "\nspread across formats at epoch 2: {:.3}; at epoch {epochs}: {:.3}",
        spread(&at(1)),
        spread(&finals)
    );
    out!(text, "fp32 final error {:.3}; ternary final error {:.3}", finals[0], finals[4]);
    Report::new(&all, text, claims(&finals))
}
