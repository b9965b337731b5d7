//! Pooled embedding lookup — DLRM's sparse-feature motif.

use crate::Module;
use mlperf_autograd::Var;
use mlperf_tensor::{Tensor, TensorRng};

/// How an [`EmbeddingBag`] pools the vectors of one bag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BagMode {
    /// Sum the bag's embedding vectors.
    Sum,
    /// Average the bag's embedding vectors.
    Mean,
}

/// An embedding table read through variable-length *bags* of ids, each
/// bag pooled to one vector — the lookup DLRM performs for its
/// multi-valued categorical features (PyTorch's `EmbeddingBag`).
#[derive(Debug)]
pub struct EmbeddingBag {
    table: Var,
    vocab: usize,
    dim: usize,
    mode: BagMode,
}

impl EmbeddingBag {
    /// Creates a `[vocab, dim]` table with the same N(0, √dim⁻¹)
    /// initialization as [`Embedding`](crate::Embedding).
    pub fn new(vocab: usize, dim: usize, mode: BagMode, rng: &mut TensorRng) -> Self {
        let std = 1.0 / (dim as f32).sqrt();
        EmbeddingBag { table: Var::param(rng.normal(&[vocab, dim], 0.0, std)), vocab, dim, mode }
    }

    /// Pools each bag of ids to one vector, returning
    /// `[bags.len(), dim]`.
    ///
    /// The pooling is expressed as one selection matmul over the
    /// gathered rows, so gradients flow back to every looked-up table
    /// row (with repeats accumulating, like `Embedding`).
    ///
    /// # Panics
    ///
    /// Panics on an empty batch, an empty bag, or an out-of-vocabulary
    /// id.
    pub fn forward(&self, bags: &[Vec<usize>]) -> Var {
        assert!(!bags.is_empty(), "empty batch");
        let flat: Vec<usize> = bags
            .iter()
            .flat_map(|bag| {
                assert!(!bag.is_empty(), "empty bag");
                bag.iter().copied()
            })
            .collect();
        for &id in &flat {
            assert!(id < self.vocab, "id {id} out of vocabulary {}", self.vocab);
        }
        let gathered = self.table.gather_rows(&flat);
        // [bags, total] selection matrix: 1 (or 1/len for Mean) where
        // the flattened row belongs to the bag.
        let mut sel = vec![0.0f32; bags.len() * flat.len()];
        let mut offset = 0;
        for (b, bag) in bags.iter().enumerate() {
            let w = match self.mode {
                BagMode::Sum => 1.0,
                BagMode::Mean => 1.0 / bag.len() as f32,
            };
            for i in 0..bag.len() {
                sel[b * flat.len() + offset + i] = w;
            }
            offset += bag.len();
        }
        Var::constant(Tensor::from_vec(sel, &[bags.len(), flat.len()])).matmul(&gathered)
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The table parameter.
    pub fn table(&self) -> &Var {
        &self.table
    }
}

impl Module for EmbeddingBag {
    fn params(&self) -> Vec<Var> {
        vec![self.table.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_shapes() {
        let mut rng = TensorRng::new(0);
        let e = EmbeddingBag::new(10, 4, BagMode::Sum, &mut rng);
        let out = e.forward(&[vec![1], vec![2, 3, 4]]);
        assert_eq!(out.shape(), vec![2, 4]);
    }

    #[test]
    fn sum_mode_adds_bag_vectors() {
        let mut rng = TensorRng::new(1);
        let e = EmbeddingBag::new(6, 3, BagMode::Sum, &mut rng);
        let single = e.forward(&[vec![2], vec![5]]);
        let pooled = e.forward(&[vec![2, 5]]);
        let expect: Vec<f32> =
            (0..3).map(|i| single.value().data()[i] + single.value().data()[3 + i]).collect();
        for (a, b) in pooled.value().data().iter().zip(&expect) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn mean_mode_divides_by_bag_length() {
        let mut rng = TensorRng::new(2);
        let e = EmbeddingBag::new(6, 2, BagMode::Mean, &mut rng);
        let sum = {
            let mut rng2 = TensorRng::new(2);
            EmbeddingBag::new(6, 2, BagMode::Sum, &mut rng2).forward(&[vec![1, 3]])
        };
        let mean = e.forward(&[vec![1, 3]]);
        for (m, s) in mean.value().data().iter().zip(sum.value().data()) {
            assert!((m - s / 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn gradients_accumulate_per_bag_member() {
        let mut rng = TensorRng::new(3);
        let e = EmbeddingBag::new(5, 2, BagMode::Sum, &mut rng);
        e.forward(&[vec![4, 4], vec![0]]).sum().backward();
        let g = e.table().grad().unwrap();
        assert_eq!(g.data()[4 * 2], 2.0);
        assert_eq!(g.data()[0], 1.0);
        assert_eq!(g.data()[2], 0.0, "row 1 was in no bag");
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn oov_panics() {
        let mut rng = TensorRng::new(4);
        EmbeddingBag::new(5, 2, BagMode::Sum, &mut rng).forward(&[vec![5]]);
    }
}
