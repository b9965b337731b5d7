//! Reverse-mode automatic differentiation over [`mlperf_tensor`].
//!
//! The central type is [`Var`]: a node in a dynamically built computation
//! graph. Operations on `Var`s evaluate eagerly and record a backward
//! closure; calling [`Var::backward`] on a scalar loss walks the graph in
//! reverse topological order and accumulates gradients into every
//! parameter (a `Var` created with [`Var::param`]).
//!
//! # Example
//!
//! ```
//! use mlperf_autograd::Var;
//! use mlperf_tensor::Tensor;
//!
//! let w = Var::param(Tensor::from_slice(&[2.0]));
//! let x = Var::constant(Tensor::from_slice(&[3.0]));
//! let loss = w.mul(&x).square().mean(); // (w*x)^2 = 36, d/dw = 2*w*x^2 = 36
//! loss.backward();
//! assert_eq!(loss.value().item(), 36.0);
//! assert_eq!(w.grad().unwrap().data(), &[36.0]);
//! ```
//!
//! Design notes:
//!
//! - Nodes are reference-counted ([`std::rc::Rc`]); graphs are per-thread
//!   (the benchmark harness runs each training run on its own thread and
//!   builds an independent graph there).
//! - Node ids increase monotonically at creation, and an operation's
//!   parents always exist before it, so *descending id order is a valid
//!   reverse topological order* — `backward` exploits this instead of an
//!   explicit sort.
//! - Operations whose parents are all constants skip recording a
//!   backward closure entirely, so evaluation-only forward passes build
//!   no tape; a recorded closure computes a gradient only for the
//!   parents that need one (the image of a first convolution, the zero
//!   state of a first LSTM step get none).
//! - Every gradient that ends in a parameter is off a backward pass's
//!   critical path, so it is computed and summed on a second thread:
//!   each training thread gets one gradient worker, which folds those
//!   gradients in the tape's order while the calling thread walks the
//!   chain of activation gradients. The order of every addition is the
//!   serial walk's, so no result bit depends on the worker; a backward
//!   pass that defers no work never touches it.
//! - Every op here is one implementation for every tensor backend: the
//!   crate never reads a tensor's backend tag, so no graph node exists
//!   on one backend only. A layer is the same composition of these ops
//!   wherever it runs, and a backend can differ only in the kernels the
//!   ops dispatch to (DESIGN.md, "No backend-gated graph nodes", has
//!   the measurement behind that choice).

#![warn(missing_docs)]

mod check;
mod nnops;
mod ops;
mod var;
mod worker;

pub use check::check_gradients;
pub use var::Var;
