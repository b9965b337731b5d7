//! Data-parallel gradient aggregation with controllable reduction
//! order.
//!
//! §2.2.3 of the paper lists "non-commutativity of floating point
//! additions" and "large distributed training can involve asynchronous
//! updates leading to different gradient accumulation orders" among the
//! sources of run-to-run variation — the variation that persists *even
//! with a fixed seed* (Figure 2b's MiniGo groupings). This module
//! makes that mechanism explicit: per-shard gradients are summed in a
//! caller-chosen order, so a benchmark can run bitwise-deterministically
//! (sequential order) or emulate the nondeterministic accumulation of a
//! real cluster (permuted order).

use crate::Optimizer;
use mlperf_autograd::Var;
use mlperf_tensor::Tensor;

/// The order in which shard contributions are reduced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReductionOrder {
    /// Shards are summed 0, 1, 2, … — bitwise deterministic.
    Sequential,
    /// Shards are summed in the given permutation — emulates the
    /// accumulation-order nondeterminism of asynchronous all-reduce.
    Permuted(Vec<usize>),
}

impl ReductionOrder {
    fn indices(&self, shards: usize) -> Vec<usize> {
        match self {
            ReductionOrder::Sequential => (0..shards).collect(),
            ReductionOrder::Permuted(p) => {
                assert_eq!(p.len(), shards, "permutation length must equal shard count");
                let mut seen = vec![false; shards];
                for &i in p {
                    assert!(i < shards && !seen[i], "invalid permutation {p:?}");
                    seen[i] = true;
                }
                p.clone()
            }
        }
    }
}

/// Sums shard tensors in the given order.
///
/// Mathematically order-independent; in `f32` the result differs at the
/// last-ulp level between orders, which chaotic training amplifies.
///
/// # Panics
///
/// Panics if `shards` is empty, shapes differ, or the order is not a
/// permutation of the shard indices.
pub(crate) fn reduce_shards(shards: &[Tensor], order: &ReductionOrder) -> Tensor {
    assert!(!shards.is_empty(), "reduce of zero shards");
    let idx = order.indices(shards.len());
    let mut acc = Tensor::zeros(shards[0].shape());
    for &i in &idx {
        acc.axpy(1.0, &shards[i]);
    }
    acc
}

/// Installs `grad` as `param`'s accumulated gradient, replacing any
/// existing one (used after an explicit aggregation step).
pub(crate) fn install_gradient(param: &Var, grad: Tensor) {
    param.zero_grad();
    let g = Var::constant(grad);
    param.mul(&g).sum().backward();
}

/// One data-parallel training step: computes a loss per shard via
/// `shard_loss`, averages the gradients in the given reduction order,
/// installs them, and steps the optimizer.
///
/// `shard_loss(shard_index)` must build the loss for that shard's
/// minibatch portion over the shared parameters.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn data_parallel_step(
    params: &[Var],
    shards: usize,
    order: &ReductionOrder,
    optimizer: &mut dyn Optimizer,
    lr: f32,
    mut shard_loss: impl FnMut(usize) -> Var,
) {
    assert!(shards > 0, "need at least one shard");
    // Per-shard gradients, computed independently (as each worker
    // would).
    let mut per_param: Vec<Vec<Tensor>> = vec![Vec::with_capacity(shards); params.len()];
    for shard in 0..shards {
        for p in params {
            p.zero_grad();
        }
        shard_loss(shard).backward();
        for (slot, p) in per_param.iter_mut().zip(params.iter()) {
            slot.push(p.grad().unwrap_or_else(|| Tensor::zeros(&p.shape())));
        }
    }
    // All-reduce: order-controlled sum, then average.
    for (p, grads) in params.iter().zip(per_param.iter()) {
        let summed = reduce_shards(grads, order);
        install_gradient(p, summed.scale(1.0 / shards as f32));
    }
    optimizer.step(lr);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SgdTorch;
    use mlperf_tensor::TensorRng;

    #[test]
    fn reduction_orders_agree_up_to_rounding() {
        let mut rng = TensorRng::new(0);
        let shards: Vec<Tensor> = (0..6).map(|_| rng.normal(&[64], 0.0, 1.0)).collect();
        let seq = reduce_shards(&shards, &ReductionOrder::Sequential);
        let perm = reduce_shards(&shards, &ReductionOrder::Permuted(vec![5, 3, 1, 0, 2, 4]));
        for (a, b) in seq.data().iter().zip(perm.data().iter()) {
            assert!((a - b).abs() <= 1e-5 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn reduction_order_changes_bits() {
        // With mixed magnitudes, at least one element differs at the
        // ulp level between orders.
        let shards = vec![
            Tensor::from_slice(&[1e8, 1.0]),
            Tensor::from_slice(&[1.0, 1e8]),
            Tensor::from_slice(&[-1e8, -1e8]),
            Tensor::from_slice(&[0.25, 0.25]),
        ];
        let seq = reduce_shards(&shards, &ReductionOrder::Sequential);
        let perm = reduce_shards(&shards, &ReductionOrder::Permuted(vec![3, 2, 1, 0]));
        assert_ne!(seq.data(), perm.data(), "orders produced identical bits");
    }

    #[test]
    #[should_panic(expected = "invalid permutation")]
    fn bad_permutation_panics() {
        let shards = vec![Tensor::zeros(&[2]); 3];
        reduce_shards(&shards, &ReductionOrder::Permuted(vec![0, 0, 1]));
    }

    #[test]
    fn install_gradient_replaces() {
        let p = Var::param(Tensor::from_slice(&[1.0, 2.0]));
        p.square().sum().backward(); // grad [2, 4]
        install_gradient(&p, Tensor::from_slice(&[7.0, 8.0]));
        assert_eq!(p.grad().unwrap().data(), &[7.0, 8.0]);
    }

    #[test]
    fn data_parallel_matches_single_worker() {
        // Sum of shard losses == full-batch loss: the data-parallel
        // average gradient equals the average of shard gradients.
        let mut rng = TensorRng::new(1);
        let data = rng.normal(&[8, 4], 0.0, 1.0);
        let make = || Var::param(Tensor::ones(&[4, 1]));

        // Single worker: mean loss over all 8 rows.
        let w_single = make();
        let mut opt_single = SgdTorch::new(vec![w_single.clone()], 0.0, 0.0);
        let x = Var::constant(data.clone());
        x.matmul(&w_single).square().mean().backward();
        opt_single.step(0.1);

        // Two shards of 4 rows each, averaged.
        let w_dp = make();
        let mut opt_dp = SgdTorch::new(vec![w_dp.clone()], 0.0, 0.0);
        data_parallel_step(
            std::slice::from_ref(&w_dp),
            2,
            &ReductionOrder::Sequential,
            &mut opt_dp,
            0.1,
            |shard| {
                let part = data.narrow(0, shard * 4, 4);
                Var::constant(part).matmul(&w_dp).square().mean()
            },
        );
        for (a, b) in w_single.value().data().iter().zip(w_dp.value().data().iter()) {
            assert!((a - b).abs() < 1e-5, "dp {b} vs single {a}");
        }
    }
}
