//! Multi-head scaled dot-product attention (the Transformer benchmark's
//! core operator).

use crate::{Linear, Module};
use mlperf_autograd::Var;
use mlperf_tensor::{Tensor, TensorRng};

/// Multi-head attention with separate query/key/value/output
/// projections, after Vaswani et al. (2017).
#[derive(Debug)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    model_dim: usize,
    heads: usize,
    head_dim: usize,
}

impl MultiHeadAttention {
    /// Creates an attention block.
    ///
    /// # Panics
    ///
    /// Panics if `model_dim` is not divisible by `heads`.
    pub fn new(model_dim: usize, heads: usize, rng: &mut TensorRng) -> Self {
        assert_eq!(model_dim % heads, 0, "model dim {model_dim} not divisible by {heads} heads");
        MultiHeadAttention {
            wq: Linear::new(model_dim, model_dim, false, rng),
            wk: Linear::new(model_dim, model_dim, false, rng),
            wv: Linear::new(model_dim, model_dim, false, rng),
            wo: Linear::new(model_dim, model_dim, false, rng),
            model_dim,
            heads,
            head_dim: model_dim / heads,
        }
    }

    /// Attends `query` over `key`/`value`: one composition of `Var` ops
    /// on every backend (`tests/layer_backend_parity.rs` holds it to
    /// bit equality across them).
    ///
    /// `query` is `[batch, t_q, model_dim]`, `key` and `value` are both
    /// `[batch, t_k, model_dim]`; `mask`, if present, is `[t_q, t_k]`
    /// with 0 for visible and `-inf`-like large negatives for hidden
    /// positions (use [`causal_mask`]).
    ///
    /// # Panics
    ///
    /// Panics if the query's trailing dim is not `model_dim`, if `key`
    /// is not `[batch, t_k, model_dim]`, if `value`'s shape differs
    /// from `key`'s, or if the mask is not `[t_q, t_k]`.
    pub fn forward(&self, query: &Var, key: &Var, value: &Var, mask: Option<&Tensor>) -> Var {
        let (b, tq, d) = dims3(query);
        let (_, tk, _) = dims3(key);
        assert_eq!(d, self.model_dim, "attention model-dim mismatch");
        assert_eq!(key.shape(), [b, tk, d], "attention key shape");
        assert_eq!(value.shape(), [b, tk, d], "attention value shape");
        let q = self.split_heads(&self.wq.forward(query), b, tq);
        let k = self.split_heads(&self.wk.forward(key), b, tk);
        let v = self.split_heads(&self.wv.forward(value), b, tk);
        // [b*h, tq, dh] x [b*h, dh, tk] -> [b*h, tq, tk]
        let mut scores = q.bmm(&k.permute(&[0, 2, 1])).scale(1.0 / (self.head_dim as f32).sqrt());
        if let Some(m) = mask {
            assert_eq!(m.shape(), &[tq, tk], "mask must be [t_q, t_k]");
            scores = scores.add(&Var::constant(m.clone()));
        }
        let attn = scores.softmax_last_axis();
        let ctx = attn.bmm(&v); // [b*h, tq, dh]
        let merged = ctx
            .reshape(&[b, self.heads, tq, self.head_dim])
            .permute(&[0, 2, 1, 3])
            .reshape(&[b, tq, self.model_dim]);
        self.wo.forward(&merged)
    }

    /// Self-attention convenience: query = key = value.
    pub fn self_attention(&self, x: &Var, mask: Option<&Tensor>) -> Var {
        self.forward(x, x, x, mask)
    }

    fn split_heads(&self, x: &Var, b: usize, t: usize) -> Var {
        x.reshape(&[b, t, self.heads, self.head_dim]).permute(&[0, 2, 1, 3]).reshape(&[
            b * self.heads,
            t,
            self.head_dim,
        ])
    }

    /// Number of heads.
    pub fn heads(&self) -> usize {
        self.heads
    }
}

impl Module for MultiHeadAttention {
    fn params(&self) -> Vec<Var> {
        [&self.wq, &self.wk, &self.wv, &self.wo].iter().flat_map(|l| l.params()).collect()
    }
}

/// Builds a `[t, t]` causal mask: 0 on and below the diagonal, a large
/// negative value above (so softmax assigns ~0 weight to the future).
pub fn causal_mask(t: usize) -> Tensor {
    let mut m = vec![0.0; t * t];
    for i in 0..t {
        m[i * t + i + 1..(i + 1) * t].fill(-1e9);
    }
    Tensor::from_vec(m, &[t, t])
}

fn dims3(v: &Var) -> (usize, usize, usize) {
    let s = v.shape();
    assert_eq!(s.len(), 3, "attention expects [batch, time, dim], got {s:?}");
    (s[0], s[1], s[2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_shape_matches_query() {
        let mut rng = TensorRng::new(0);
        let mha = MultiHeadAttention::new(8, 2, &mut rng);
        let q = Var::constant(rng.normal(&[2, 5, 8], 0.0, 1.0));
        let kv = Var::constant(rng.normal(&[2, 7, 8], 0.0, 1.0));
        let y = mha.forward(&q, &kv, &kv, None);
        assert_eq!(y.shape(), vec![2, 5, 8]);
    }

    #[test]
    fn causal_mask_blocks_future() {
        let mut rng = TensorRng::new(1);
        let mha = MultiHeadAttention::new(4, 1, &mut rng);
        // Two inputs identical except at the final timestep must produce
        // identical outputs at position 0 under a causal mask.
        let mut a = rng.normal(&[1, 3, 4], 0.0, 1.0);
        let mut b = a.clone();
        for i in 8..12 {
            b.data_mut()[i] += 10.0; // perturb last timestep only
        }
        let mask = causal_mask(3);
        let ya = mha.self_attention(&Var::constant(a.clone()), Some(&mask));
        let yb = mha.self_attention(&Var::constant(b.clone()), Some(&mask));
        let first_a = ya.value().narrow(1, 0, 1).into_vec();
        let first_b = yb.value().narrow(1, 0, 1).into_vec();
        mlperf_tensor::assert_close(&first_a, &first_b, 1e-5);
        // Without the mask the outputs at position 0 must differ.
        let ya2 = mha.self_attention(&Var::constant(a.clone()), None);
        let yb2 = mha.self_attention(&Var::constant(b.clone()), None);
        let d: f32 = ya2
            .value()
            .narrow(1, 0, 1)
            .into_vec()
            .iter()
            .zip(yb2.value().narrow(1, 0, 1).into_vec().iter())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(d > 1e-4, "unmasked attention ignored the future");
        // Silence unused warnings for the perturbed buffers.
        let _ = (a.data_mut(), b.data_mut());
    }

    #[test]
    fn gradients_reach_all_projections() {
        let mut rng = TensorRng::new(2);
        let mha = MultiHeadAttention::new(8, 4, &mut rng);
        let x = Var::constant(rng.normal(&[1, 3, 8], 0.0, 1.0));
        mha.self_attention(&x, None).square().sum().backward();
        assert_eq!(mha.params().len(), 4);
        assert!(mha.params().iter().all(|p| p.grad().is_some()));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_heads_panics() {
        let mut rng = TensorRng::new(3);
        MultiHeadAttention::new(6, 4, &mut rng);
    }

    #[test]
    #[should_panic(expected = "attention key shape")]
    fn mismatched_key_batch_panics_naming_the_key() {
        let mut rng = TensorRng::new(5);
        let mha = MultiHeadAttention::new(8, 2, &mut rng);
        let q = Var::constant(rng.normal(&[2, 5, 8], 0.0, 1.0));
        let kv = Var::constant(rng.normal(&[3, 7, 8], 0.0, 1.0));
        mha.forward(&q, &kv, &kv, None);
    }

    #[test]
    #[should_panic(expected = "attention value shape")]
    fn mismatched_value_length_panics_naming_the_value() {
        let mut rng = TensorRng::new(6);
        let mha = MultiHeadAttention::new(8, 2, &mut rng);
        let q = Var::constant(rng.normal(&[2, 5, 8], 0.0, 1.0));
        let k = Var::constant(rng.normal(&[2, 7, 8], 0.0, 1.0));
        let v = Var::constant(rng.normal(&[2, 6, 8], 0.0, 1.0));
        mha.forward(&q, &k, &v, None);
    }

    #[test]
    fn attention_weights_are_permutation_sensitive() {
        // Attention over a permuted key sequence permutes nothing in the
        // output (it is a weighted sum) — verify outputs are equal when
        // keys and values are permuted together.
        let mut rng = TensorRng::new(4);
        let mha = MultiHeadAttention::new(4, 1, &mut rng);
        let q = Var::constant(rng.normal(&[1, 2, 4], 0.0, 1.0));
        let kv = rng.normal(&[1, 3, 4], 0.0, 1.0);
        let swapped = {
            let a = kv.narrow(1, 0, 1);
            let b = kv.narrow(1, 1, 1);
            let c = kv.narrow(1, 2, 1);
            Tensor::concat(&[&c, &b, &a], 1)
        };
        let y1 = mha.forward(&q, &Var::constant(kv.clone()), &Var::constant(kv), None);
        let y2 = mha.forward(&q, &Var::constant(swapped.clone()), &Var::constant(swapped), None);
        mlperf_tensor::assert_close(y1.value().data(), y2.value().data(), 1e-5);
    }
}
