//! Layer-level backend parity: the composition is bit-identical
//! across backends.
//!
//! `LayerNorm` and `MultiHeadAttention` are each one composition of
//! primitive `Var` ops on every backend, so the only thing that can
//! differ between a `Reference` and a `Blocked` run of a layer is the
//! kernels underneath. The harness asserts that training trajectories
//! match across backends, so that difference must be nil — in the
//! forward value AND in every gradient. These tests run the same layer
//! on both backends and compare raw `f32` bits, no tolerance.

use mlperf_suite::autograd::Var;
use mlperf_suite::nn::{causal_mask, LayerNorm, Module, MultiHeadAttention};
use mlperf_suite::tensor::{BackendKind, Tensor, TensorRng};

fn assert_bits_equal(label: &str, reference: &Tensor, blocked: &Tensor) {
    assert_eq!(reference.shape(), blocked.shape(), "{label}: shape mismatch");
    for (i, (r, b)) in reference.data().iter().zip(blocked.data()).enumerate() {
        assert_eq!(r.to_bits(), b.to_bits(), "{label}: element {i} diverged: {r} vs {b}");
    }
}

/// Runs `f` on both backends with identical weights and input, and
/// asserts bitwise equality of output, input gradient, and every
/// parameter gradient.
fn assert_layer_parity(
    shape: &[usize],
    seed: u64,
    f: impl Fn(&mut TensorRng, &Var) -> (Var, Vec<Var>),
) {
    let mut outputs = Vec::new();
    for kind in BackendKind::ALL {
        let mut rng = TensorRng::new(seed).with_backend(kind);
        let x = Var::param(rng.normal(shape, 0.0, 1.0));
        let (y, params) = f(&mut rng, &x);
        y.sum().backward();
        let grads: Vec<Tensor> = std::iter::once(&x)
            .chain(params.iter())
            .map(|p| p.grad().expect("gradient missing"))
            .collect();
        outputs.push((y.value_clone(), grads));
    }
    let (ref_out, ref_grads) = &outputs[0];
    let (blk_out, blk_grads) = &outputs[1];
    assert_bits_equal("forward", ref_out, blk_out);
    assert_eq!(ref_grads.len(), blk_grads.len());
    for (i, (r, b)) in ref_grads.iter().zip(blk_grads).enumerate() {
        assert_bits_equal(&format!("grad {i}"), r, b);
    }
}

#[test]
fn layernorm_matches_across_backends() {
    for shape in [&[16usize, 12, 16][..], &[5, 16][..], &[3, 7, 9][..], &[2, 3, 4, 8][..]] {
        assert_layer_parity(shape, 11, |_, x| {
            let ln = LayerNorm::new(*shape.last().unwrap());
            (ln.forward(x), ln.params())
        });
    }
}

#[test]
fn attention_matches_across_backends() {
    for (b, t, d, h) in [(16usize, 12usize, 16usize, 2usize), (2, 5, 8, 4), (1, 3, 6, 1)] {
        assert_layer_parity(&[b, t, d], 13, |rng, x| {
            let mha = MultiHeadAttention::new(d, h, rng);
            (mha.self_attention(x, None), mha.params())
        });
    }
}

#[test]
fn masked_attention_matches_across_backends() {
    assert_layer_parity(&[3, 6, 8], 17, |rng, x| {
        let mha = MultiHeadAttention::new(8, 2, rng);
        (mha.self_attention(x, Some(&causal_mask(6))), mha.params())
    });
}

#[test]
fn cross_attention_matches_across_backends() {
    // Distinct query and key/value lengths exercise the tq != tk paths.
    for kind in BackendKind::ALL {
        let mut rng = TensorRng::new(19).with_backend(kind);
        let q = Var::param(rng.normal(&[2, 4, 8], 0.0, 1.0));
        let kv = Var::param(rng.normal(&[2, 7, 8], 0.0, 1.0));
        let mha = MultiHeadAttention::new(8, 2, &mut rng);
        mha.forward(&q, &kv, &kv, None).sum().backward();
        // Compare against a freshly seeded reference run.
        if kind == BackendKind::Blocked {
            let mut rng2 = TensorRng::new(19).with_backend(BackendKind::Reference);
            let q2 = Var::param(rng2.normal(&[2, 4, 8], 0.0, 1.0));
            let kv2 = Var::param(rng2.normal(&[2, 7, 8], 0.0, 1.0));
            let mha2 = MultiHeadAttention::new(8, 2, &mut rng2);
            mha2.forward(&q2, &kv2, &kv2, None).sum().backward();
            assert_bits_equal("cross q grad", &q2.grad().unwrap(), &q.grad().unwrap());
            assert_bits_equal("cross kv grad", &kv2.grad().unwrap(), &kv.grad().unwrap());
        }
    }
}
