//! Simulated reduced-precision numerics.
//!
//! The paper's Figure 1 (after Zhu et al., 2016) shows that the effect of
//! training with reduced weight precision is only visible late in a full
//! training session: validation-error curves for different numeric
//! representations separate after tens of epochs, and some never reach
//! the full-precision error. Since this reproduction has no tensor-core
//! hardware, precision is *simulated*: weights (and optionally
//! gradients) are rounded to the representable grid of the chosen format
//! after every optimizer step, while arithmetic itself stays f32 — the
//! standard "fake quantization" methodology used in quantization
//! research.

use crate::tensor::Tensor;
use std::fmt;

/// A numeric representation to simulate during training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// IEEE-754 single precision: the unquantized baseline.
    Fp32,
    /// bfloat16: 8 exponent bits, 7 mantissa bits.
    Bf16,
    /// IEEE half precision: 5 exponent bits, 10 mantissa bits.
    Fp16,
    /// FP8 E4M3 (as used by recent accelerators): 4 exponent bits,
    /// 3 mantissa bits, max normal 448.
    Fp8E4M3,
    /// Ternary weights {-s, 0, +s} with a per-tensor scale, after
    /// trained ternary quantization (Zhu et al., 2016).
    Ternary,
}

impl Precision {
    /// All supported precisions, in decreasing fidelity order (the order
    /// the Figure 1 harness sweeps).
    pub const ALL: [Precision; 5] =
        [Precision::Fp32, Precision::Bf16, Precision::Fp16, Precision::Fp8E4M3, Precision::Ternary];

    /// Bits of storage per value under this format.
    pub fn bits(self) -> u32 {
        match self {
            Precision::Fp32 => 32,
            Precision::Bf16 | Precision::Fp16 => 16,
            Precision::Fp8E4M3 => 8,
            Precision::Ternary => 2,
        }
    }

    /// Rounds a single value to this format's representable grid.
    ///
    /// [`Precision::Ternary`] is a per-tensor scheme; at the scalar
    /// level it degrades to the sign function with unit scale. Use
    /// [`Tensor::quantize`] for the faithful tensor-level behaviour.
    pub(crate) fn quantize_scalar(self, x: f32) -> f32 {
        match self {
            Precision::Fp32 => x,
            Precision::Bf16 => quantize_float(x, 7, -126, 3.389_531_4e38),
            Precision::Fp16 => quantize_float(x, 10, -14, 65504.0),
            Precision::Fp8E4M3 => quantize_float(x, 3, -6, 448.0),
            Precision::Ternary => {
                if x > 0.0 {
                    1.0
                } else if x < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Precision::Fp32 => "fp32",
            Precision::Bf16 => "bf16",
            Precision::Fp16 => "fp16",
            Precision::Fp8E4M3 => "fp8-e4m3",
            Precision::Ternary => "ternary",
        };
        f.write_str(name)
    }
}

/// Rounds `x` to a float grid with `mant_bits` mantissa bits, minimum
/// normal exponent `emin`, saturating at `max_val`. Values below the
/// subnormal grid flush toward zero on the subnormal lattice.
fn quantize_float(x: f32, mant_bits: i32, emin: i32, max_val: f32) -> f32 {
    if x == 0.0 || x.is_nan() {
        return x;
    }
    let sign = x.signum();
    let a = x.abs().min(max_val);
    let e = (a.log2().floor() as i32).max(emin);
    let scale = 2f32.powi(e - mant_bits);
    let q = (a / scale).round() * scale;
    sign * q.min(max_val)
}

impl Tensor {
    /// Rounds every element to the representable grid of `precision`.
    ///
    /// For [`Precision::Ternary`] this applies trained-ternary-style
    /// per-tensor quantization: elements with magnitude below
    /// `0.7 * mean(|x|)` become 0; the rest become `±s` where `s` is the
    /// mean magnitude of the surviving elements.
    pub fn quantize(&self, precision: Precision) -> Tensor {
        match precision {
            Precision::Fp32 => self.clone(),
            Precision::Ternary => {
                if self.is_empty() {
                    return self.clone();
                }
                let mean_abs = self.abs().mean();
                let threshold = 0.7 * mean_abs;
                let mut scale_sum = 0.0;
                let mut scale_n = 0usize;
                for &v in self.data() {
                    if v.abs() >= threshold {
                        scale_sum += v.abs();
                        scale_n += 1;
                    }
                }
                let scale = if scale_n == 0 { 0.0 } else { scale_sum / scale_n as f32 };
                self.map(|v| if v.abs() < threshold { 0.0 } else { scale * v.signum() })
            }
            p => self.map(|v| p.quantize_scalar(v)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp32_is_identity() {
        for x in [0.1f32, -7.25, 1e-30, 3.4e38] {
            assert_eq!(Precision::Fp32.quantize_scalar(x), x);
        }
    }

    #[test]
    fn fp16_known_values() {
        // 1.0 and 0.5 are exactly representable.
        assert_eq!(Precision::Fp16.quantize_scalar(1.0), 1.0);
        assert_eq!(Precision::Fp16.quantize_scalar(0.5), 0.5);
        // fp16 resolution near 1.0 is 2^-10; 1 + 2^-12 rounds back to 1.
        let x = 1.0 + 2f32.powi(-12);
        assert_eq!(Precision::Fp16.quantize_scalar(x), 1.0);
        // Saturation at 65504.
        assert_eq!(Precision::Fp16.quantize_scalar(1e6), 65504.0);
        assert_eq!(Precision::Fp16.quantize_scalar(-1e6), -65504.0);
    }

    #[test]
    fn bf16_coarser_than_fp16_near_one() {
        let x = 1.0 + 2f32.powi(-9);
        // Representable in fp16 (10 mantissa bits)…
        assert_eq!(Precision::Fp16.quantize_scalar(x), x);
        // …but not in bf16 (7 mantissa bits).
        assert_ne!(Precision::Bf16.quantize_scalar(x), x);
    }

    #[test]
    fn fp8_saturates_at_448() {
        assert_eq!(Precision::Fp8E4M3.quantize_scalar(1000.0), 448.0);
        assert_eq!(Precision::Fp8E4M3.quantize_scalar(1.0), 1.0);
        // Resolution near 1.0 is 2^-3.
        assert_eq!(Precision::Fp8E4M3.quantize_scalar(1.05), 1.0);
        assert_eq!(Precision::Fp8E4M3.quantize_scalar(1.07), 1.125);
    }

    #[test]
    fn quantization_error_ordering() {
        // Coarser formats must have no smaller max error on a value grid.
        let values: Vec<f32> = (1..200).map(|i| i as f32 * 0.017 - 1.7).collect();
        let err = |p: Precision| {
            values.iter().map(|&v| (p.quantize_scalar(v) - v).abs()).fold(0.0f32, f32::max)
        };
        assert!(err(Precision::Bf16) >= err(Precision::Fp16));
        assert!(err(Precision::Fp8E4M3) >= err(Precision::Bf16));
    }

    #[test]
    fn zero_and_sign_preserved() {
        for p in Precision::ALL {
            assert_eq!(p.quantize_scalar(0.0), 0.0);
            assert!(p.quantize_scalar(-0.3) <= 0.0, "{p} flipped sign");
            assert!(p.quantize_scalar(0.3) >= 0.0, "{p} flipped sign");
        }
    }

    #[test]
    fn ternary_tensor_has_three_levels() {
        let t = Tensor::from_slice(&[0.9, -0.8, 0.01, -0.02, 0.7, 0.85]);
        let q = t.quantize(Precision::Ternary);
        let mut levels: Vec<f32> = q.data().to_vec();
        levels.sort_by(f32::total_cmp);
        levels.dedup();
        assert!(levels.len() <= 3, "ternary produced {levels:?}");
        assert!(levels.contains(&0.0));
    }

    #[test]
    fn ternary_zeros_small_magnitudes() {
        let t = Tensor::from_slice(&[1.0, 1.0, 1.0, 0.001]);
        let q = t.quantize(Precision::Ternary);
        assert_eq!(q.data()[3], 0.0);
        assert!(q.data()[0] > 0.0);
    }

    #[test]
    fn tensor_quantize_fp32_identity() {
        let t = Tensor::from_slice(&[0.1, 0.2, 0.3]);
        assert_eq!(t.quantize(Precision::Fp32), t);
    }

    #[test]
    fn idempotent_quantization() {
        let t = Tensor::from_slice(&[0.137, -2.9, 31.4, 1e-3]);
        for p in [Precision::Bf16, Precision::Fp16, Precision::Fp8E4M3] {
            let once = t.quantize(p);
            let twice = once.quantize(p);
            assert_eq!(once, twice, "{p} not idempotent");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Precision::Fp8E4M3.to_string(), "fp8-e4m3");
        assert_eq!(Precision::Bf16.to_string(), "bf16");
    }
}
