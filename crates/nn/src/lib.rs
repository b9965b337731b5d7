//! Neural-network layers for the MLPerf Training reproduction.
//!
//! Every layer owns its parameters as [`mlperf_autograd::Var`] leaves and
//! exposes them through the [`Module`] trait so optimizers can iterate
//! over them uniformly. Layers are deliberately close to their framework
//! counterparts (PyTorch naming, Kaiming/Xavier initialization) because
//! the paper's Closed division requires submissions to be mathematically
//! equivalent to reference implementations — this crate *is* the
//! reference implementation layer zoo.
//!
//! ```
//! use mlperf_nn::{Linear, Module};
//! use mlperf_autograd::Var;
//! use mlperf_tensor::{Tensor, TensorRng};
//!
//! let mut rng = TensorRng::new(0);
//! let layer = Linear::new(4, 2, true, &mut rng);
//! let x = Var::constant(Tensor::ones(&[3, 4]));
//! let y = layer.forward(&x);
//! assert_eq!(y.shape(), vec![3, 2]);
//! assert_eq!(layer.params().len(), 2);
//! ```

#![warn(missing_docs)]

mod attention;
mod conv;
mod ctc;
mod embedding;
mod embedding_bag;
mod linear;
mod mlm;
mod norm;
mod rnn;

pub use attention::{causal_mask, MultiHeadAttention};
pub use conv::Conv2d;
pub use ctc::{ctc_alignment_loss, greedy_ctc_decode, label_error_rate};
pub use embedding::Embedding;
pub use embedding_bag::{BagMode, EmbeddingBag};
pub use linear::Linear;
pub use mlm::MaskedLmHead;
pub use norm::{BatchNorm2d, LayerNorm};
pub use rnn::{LstmCell, LstmState};

use mlperf_autograd::Var;

/// A collection of trainable parameters.
///
/// Implemented by every layer and by every model in `mlperf-models`;
/// optimizers consume the parameter list this trait exposes.
pub trait Module {
    /// The trainable parameter leaves, in a stable order.
    fn params(&self) -> Vec<Var>;

    /// Clears accumulated gradients on every parameter.
    fn zero_grad(&self) {
        for p in self.params() {
            p.zero_grad();
        }
    }

    /// Total number of scalar parameters.
    fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.value().len()).sum()
    }
}

impl<M: Module + ?Sized> Module for &M {
    fn params(&self) -> Vec<Var> {
        (**self).params()
    }
}

/// Concatenates the parameter lists of several modules (helper for
/// composite models).
pub(crate) fn collect_params(modules: &[&dyn Module]) -> Vec<Var> {
    modules.iter().flat_map(|m| m.params()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlperf_tensor::TensorRng;

    #[test]
    fn collect_params_concatenates() {
        let mut rng = TensorRng::new(1);
        let a = Linear::new(2, 2, true, &mut rng);
        let b = Linear::new(2, 2, false, &mut rng);
        let ps = collect_params(&[&a, &b]);
        assert_eq!(ps.len(), 3);
    }

    #[test]
    fn num_params_counts_scalars() {
        let mut rng = TensorRng::new(2);
        let l = Linear::new(3, 5, true, &mut rng);
        assert_eq!(l.num_params(), 3 * 5 + 5);
    }
}
