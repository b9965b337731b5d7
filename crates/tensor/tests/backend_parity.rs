//! Differential property tests: wherever two kernels exist, the
//! `Blocked` backend agrees with `Reference`, across randomized shapes.
//!
//! A backend is a serial GEMM kernel and a fan-out rule, so the cases
//! here are the ops with a GEMM inside — `matmul` and its transposed
//! and bias forms, `bmm*`, conv2d and its backward. The Blocked kernels
//! accumulate each output element over the same ascending-k order as
//! the reference loop, and a fan-out only hands disjoint row bands or
//! samples to different workers, so for the finite inputs generated
//! here agreement is *bitwise* — `to_bits()` on the raw f32 data, no
//! tolerance — on every path: the reference row kernel (`n < 16`), the
//! direct register-tile GEMM, the packed-panel GEMM (`k·n` above the L1
//! threshold), and each of them on either side of the fan-out
//! threshold (`2·m·k·n = 2¹⁸` for a GEMM's row bands, the whole batch's
//! multiply-adds for a convolution's samples). A tolerance would only
//! be needed if a kernel reordered summation; this suite is what keeps
//! that contract honest.
//!
//! What is *not* here: softmax, log-softmax and `sum_axis` had a
//! `reductions_agree` case while each backend carried its own copy of
//! them. Both tags now run one function in `src/reduce.rs`, so there
//! are no two things left to compare; the oracle proptest beside that
//! function (`reductions_match_the_parent_reference`) holds it to the
//! loops `Reference` used to run. Broadcasting likewise runs one walk
//! whatever the tag — its oracle tests live beside it in `src/ops.rs` —
//! and the broadcast case here only checks that the tag changes nothing
//! but the tag.
//!
//! The umbrella package compiles this same file as
//! `tests/kernel_backend_parity.rs`, so the Tier-1 `cargo test -q` runs
//! it too.

use mlperf_tensor::{conv2d_backward, BackendKind, Conv2dSpec, Tensor, TensorRng};
use proptest::prelude::*;

/// A deterministic tensor with a sprinkling of exact zeros, so the
/// reference GEMM's zero-skip fast path is exercised too.
fn tensor(rng: &mut TensorRng, shape: &[usize], kind: BackendKind) -> Tensor {
    let mut t = rng.uniform(shape, -2.0, 2.0);
    let data = t.data_mut();
    for i in (0..data.len()).step_by(7) {
        data[i] = 0.0;
    }
    t.on(kind)
}

/// Asserts two tensors carry bit-identical data (and the same shape).
fn assert_bits_equal(label: &str, reference: &Tensor, blocked: &Tensor) {
    assert_eq!(reference.shape(), blocked.shape(), "{label}: shape mismatch");
    for (i, (r, b)) in reference.data().iter().zip(blocked.data()).enumerate() {
        assert_eq!(r.to_bits(), b.to_bits(), "{label}: element {i} diverged: {r} vs {b}");
    }
}

/// Forward (with and without bias) and all three gradients of one
/// convolution, `Reference` against `Blocked`, to the bit.
fn assert_conv_parity(input_shape: [usize; 4], cout: usize, spec: Conv2dSpec, seed: u64) {
    let mut rng = TensorRng::new(seed);
    let input = tensor(&mut rng, &input_shape, BackendKind::Reference);
    let weight =
        tensor(&mut rng, &[cout, input_shape[1], spec.kernel, spec.kernel], BackendKind::Reference);
    let bias = tensor(&mut rng, &[cout], BackendKind::Reference);
    let on_blocked = input.clone().on(BackendKind::Blocked);

    let reference = input.conv2d(&weight, Some(&bias), spec);
    assert_bits_equal("conv2d", &reference, &on_blocked.conv2d(&weight, Some(&bias), spec));
    assert_bits_equal(
        "conv2d (no bias)",
        &input.conv2d(&weight, None, spec),
        &on_blocked.conv2d(&weight, None, spec),
    );

    let grad_out = tensor(&mut rng, reference.shape(), BackendKind::Reference);
    let (ri, rw, rb) = conv2d_backward(&input, &weight, &grad_out, spec);
    let (bi, bw, bb) = conv2d_backward(&on_blocked, &weight, &grad_out, spec);
    assert_bits_equal("conv2d_backward grad_input", &ri, &bi);
    assert_bits_equal("conv2d_backward grad_weight", &rw, &bw);
    assert_bits_equal("conv2d_backward grad_bias", &rb, &bb);
}

/// `(m, k, n)`: small and ragged (every serial kernel, `k·n` crossing
/// the packed-panel threshold), or drawn around `2·m·k·n = 2¹⁸` so some
/// land on each side of the fan-out threshold.
fn gemm_shapes() -> impl Strategy<Value = (usize, usize, usize)> {
    prop_oneof![(1usize..24, 1usize..96, 1usize..96), (30usize..36, 60usize..68, 60usize..68)]
}

proptest! {
    #[test]
    fn matmul_agrees((m, k, n) in gemm_shapes(), seed in 0u64..1 << 32) {
        let mut rng = TensorRng::new(seed);
        let a = tensor(&mut rng, &[m, k], BackendKind::Reference);
        let b = tensor(&mut rng, &[k, n], BackendKind::Reference);
        let reference = a.matmul(&b);
        let blocked = a.clone().on(BackendKind::Blocked).matmul(&b.clone().on(BackendKind::Blocked));
        assert_bits_equal("matmul", &reference, &blocked);
    }

    #[test]
    fn transposed_matmuls_agree(m in 1usize..16, k in 1usize..32, n in 1usize..32, seed in 0u64..1 << 32) {
        let mut rng = TensorRng::new(seed);
        let a = tensor(&mut rng, &[m, k], BackendKind::Reference);
        let bt = tensor(&mut rng, &[n, k], BackendKind::Reference);
        assert_bits_equal(
            "matmul_abt",
            &a.matmul_abt(&bt),
            &a.clone().on(BackendKind::Blocked).matmul_abt(&bt),
        );
        let at = tensor(&mut rng, &[k, m], BackendKind::Reference);
        let b = tensor(&mut rng, &[k, n], BackendKind::Reference);
        assert_bits_equal(
            "matmul_atb",
            &at.matmul_atb(&b),
            &at.clone().on(BackendKind::Blocked).matmul_atb(&b),
        );
    }

    #[test]
    fn matmul_bias_agrees(m in 1usize..16, k in 1usize..24, n in 1usize..24, seed in 0u64..1 << 32) {
        let mut rng = TensorRng::new(seed);
        let a = tensor(&mut rng, &[m, k], BackendKind::Reference);
        let b = tensor(&mut rng, &[k, n], BackendKind::Reference);
        let bias = tensor(&mut rng, &[n], BackendKind::Reference);
        assert_bits_equal(
            "matmul_bias",
            &a.matmul_bias(&b, &bias),
            &a.clone().on(BackendKind::Blocked).matmul_bias(&b, &bias),
        );
    }

    #[test]
    fn bmm_agrees(b in 1usize..5, (m, k, n) in gemm_shapes(), seed in 0u64..1 << 32) {
        // Each batch entry is one GEMM under the one rule, so the
        // entries around the threshold fan out by row bands.
        let mut rng = TensorRng::new(seed);
        let lhs = tensor(&mut rng, &[b, m, k], BackendKind::Reference);
        let rhs = tensor(&mut rng, &[b, k, n], BackendKind::Reference);
        assert_bits_equal("bmm", &lhs.bmm(&rhs), &lhs.clone().on(BackendKind::Blocked).bmm(&rhs));
        let rhs_t = tensor(&mut rng, &[b, n, k], BackendKind::Reference);
        assert_bits_equal(
            "bmm_abt",
            &lhs.bmm_abt(&rhs_t),
            &lhs.clone().on(BackendKind::Blocked).bmm_abt(&rhs_t),
        );
        let lhs_t = tensor(&mut rng, &[b, k, m], BackendKind::Reference);
        assert_bits_equal(
            "bmm_atb",
            &lhs_t.bmm_atb(&rhs),
            &lhs_t.clone().on(BackendKind::Blocked).bmm_atb(&rhs),
        );
    }

    #[test]
    fn conv2d_and_backward_agree(
        (n, cin, cout) in (1usize..3, 1usize..4, 1usize..4),
        (kernel, stride, padding) in (1usize..6, 1usize..4, 0usize..4),
        (extra_h, extra_w) in (0usize..9, 0usize..9),
        seed in 0u64..1 << 32,
    ) {
        // `h` and `w` apart, from the least extent the kernel fits (so
        // an `oh` or `ow` of 1 is common); padding reaches past the
        // kernel, where whole taps only ever see the border.
        let least = kernel.saturating_sub(2 * padding).max(1);
        assert_conv_parity(
            [n, cin, least + extra_h, least + extra_w],
            cout,
            Conv2dSpec::new(kernel, stride, padding),
            seed,
        );
    }

    #[test]
    fn conv2d_agrees_on_each_side_of_the_fan_out_threshold(
        (n, extent) in (2usize..5, 6usize..13),
        seed in 0u64..1 << 32,
    ) {
        // 8 → 16 channels, 3×3 "same": the batch's `2·n·oc·ckk·oh·ow`
        // multiply-adds run from 0.17 M to 1.3 M around the 2¹⁸
        // threshold, so on more than one core `Blocked` loops over the
        // smaller batches and hands the samples of the larger ones to
        // the pool. (The random geometries above all stay below it.)
        assert_conv_parity([n, 8, extent, extent], 16, Conv2dSpec::new(3, 1, 1), seed);
    }

    #[test]
    fn pointwise_conv2d_and_backward_agree(
        (n, cin, cout) in (1usize..4, 1usize..6, 1usize..6),
        (h, w) in (1usize..9, 1usize..9),
        seed in 0u64..1 << 32,
    ) {
        // 1×1, stride 1, no padding: the driver multiplies the input
        // planes themselves, no lowering in between.
        assert_conv_parity([n, cin, h, w], cout, Conv2dSpec::new(1, 1, 0), seed);
    }

    #[test]
    fn broadcast_elementwise_agrees(b in 1usize..4, m in 1usize..12, n in 1usize..12, seed in 0u64..1 << 32) {
        let mut rng = TensorRng::new(seed);
        // Representative broadcast patterns: full-shape, row vector,
        // column vector, and leading-batch broadcast.
        let lhs = tensor(&mut rng, &[b, m, n], BackendKind::Reference);
        for rhs_shape in [vec![b, m, n], vec![n], vec![m, 1], vec![1, m, n]] {
            let rhs = tensor(&mut rng, &rhs_shape, BackendKind::Reference);
            let on_blocked = lhs.clone().on(BackendKind::Blocked);
            assert_bits_equal("broadcast add", &(&lhs + &rhs), &(&on_blocked + &rhs));
            assert_bits_equal("broadcast mul", &(&lhs * &rhs), &(&on_blocked * &rhs));
            assert_bits_equal(
                "broadcast zip",
                &lhs.zip_broadcast(&rhs, |a, b| a * 2.0 - b),
                &on_blocked.zip_broadcast(&rhs, |a, b| a * 2.0 - b),
            );
        }
    }
}
