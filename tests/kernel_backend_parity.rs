//! Kernel-level backend parity in the Tier-1 command: `cargo test -q`
//! at the root runs `mlperf-tensor`'s differential suite — GEMM family,
//! conv2d and its backward, reductions, `Blocked` against `Reference`
//! to the bit. One source, compiled into both packages, so the two
//! cannot drift apart.

#[path = "../crates/tensor/tests/backend_parity.rs"]
mod backend_parity;
