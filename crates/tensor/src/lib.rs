//! Dense `f32` tensors for the MLPerf Training reproduction.
//!
//! This crate is the numerical substrate for the rest of the workspace: a
//! small, row-major, contiguous n-dimensional array type with the
//! operations deep-learning training needs — broadcasting elementwise
//! arithmetic, matrix multiplication, 2-D convolution and pooling,
//! reductions, softmax, seeded random initialization, and simulated
//! reduced-precision numerics (used to reproduce Figure 1 of the paper).
//!
//! # Example
//!
//! ```
//! use mlperf_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::full(&[2, 2], 0.5);
//! let c = a.matmul(&b);
//! assert_eq!(c.shape(), &[2, 2]);
//! assert_eq!(c.data()[0], 1.5);
//! ```
//!
//! Shape errors panic with descriptive messages (the convention followed
//! by `ndarray` and most array libraries); every panicking method
//! documents its conditions under `# Panics`.

#![warn(missing_docs)]

mod backend;
mod conv;
mod init;
mod matmul;
mod ops;
mod precision;
mod reduce;
mod shape;
mod tensor;

pub use backend::{
    enable_kernel_stats, kernel_stats, reset_kernel_stats, BackendKind, KernelStats,
};
pub use conv::{
    avg_pool2d, avg_pool2d_backward, conv2d_backward_input, conv2d_backward_weight, max_pool2d,
    max_pool2d_backward, Conv2dSpec,
};
pub use init::TensorRng;
pub use precision::Precision;
pub use shape::{broadcast_shapes, Shape};
pub use tensor::Tensor;

/// Asserts that two `f32` slices are elementwise equal within `tol`.
///
/// Intended for tests throughout the workspace.
///
/// # Panics
///
/// Panics if lengths differ or any element pair differs by more than
/// `tol`.
pub fn assert_close(actual: &[f32], expected: &[f32], tol: f32) {
    assert_eq!(
        actual.len(),
        expected.len(),
        "length mismatch: {} vs {}",
        actual.len(),
        expected.len()
    );
    for (i, (a, e)) in actual.iter().zip(expected.iter()).enumerate() {
        assert!((a - e).abs() <= tol, "element {i}: {a} differs from {e} by more than {tol}");
    }
}
