//! The [`Var`] graph node and the backward pass.
//!
//! A backward pass walks the tape once, in descending node id — a valid
//! reverse topological order, because a node's parents exist before it
//! — on the calling thread. Each node's closure hands its parents their
//! gradients through [`Grads`]: an activation's gradient is summed into
//! the walk's map on the spot, and every gradient whose destination is
//! a trainable leaf goes to the thread's gradient worker
//! (`worker.rs`) as one ordered stream, either computed or as a job on
//! owned tensors. The worker folds the stream per leaf in the tape's
//! order, and the join at the end of the pass moves each sum into its
//! leaf. Which thread computes a term does not matter: the order of
//! every addition is the serial walk's, so no result bit depends on
//! the worker. That serial walk survives as the `#[cfg(test)]` oracle
//! `backward_serial`, and the tests hold the tape to it to the bit.

use crate::worker::LeafStream;
use mlperf_tensor::Tensor;
use std::cell::{Ref, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// The backward closure of an operation: given the gradient flowing
/// into the node, it hands each parent that needs a gradient its
/// gradient through [`Grads`], in parent order.
pub(crate) type BackwardFn = Box<dyn Fn(&Tensor, &mut Grads<'_>)>;

pub(crate) struct Recorded {
    pub parents: Vec<Var>,
    pub backward: BackwardFn,
}

pub(crate) struct VarInner {
    id: u64,
    value: RefCell<Tensor>,
    grad: RefCell<Option<Tensor>>,
    /// True for trainable leaves and for any node derived from one.
    requires_grad: bool,
    op: Option<Recorded>,
}

/// A node in the autograd graph: an eagerly computed tensor plus,
/// when gradient tracking is active, the recipe to backpropagate
/// through the operation that produced it.
///
/// Cloning a `Var` is cheap (reference count bump) and refers to the
/// *same* node.
#[derive(Clone)]
pub struct Var {
    pub(crate) inner: Rc<VarInner>,
}

impl Var {
    fn make(value: Tensor, requires_grad: bool, op: Option<Recorded>) -> Var {
        Var {
            inner: Rc::new(VarInner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                value: RefCell::new(value),
                grad: RefCell::new(None),
                requires_grad,
                op,
            }),
        }
    }

    /// Creates a trainable leaf. Gradients accumulate into it across
    /// backward passes until [`Var::zero_grad`].
    pub fn param(value: Tensor) -> Var {
        Var::make(value, true, None)
    }

    /// Creates a non-trainable leaf (input data, targets, masks).
    pub fn constant(value: Tensor) -> Var {
        Var::make(value, false, None)
    }

    /// Records the result of an operation over `parents`.
    ///
    /// If no parent requires gradients the tape entry is elided and the
    /// result is a plain constant.
    pub(crate) fn from_op(
        value: Tensor,
        parents: Vec<Var>,
        backward: impl Fn(&Tensor, &mut Grads<'_>) + 'static,
    ) -> Var {
        let requires = parents.iter().any(|p| p.inner.requires_grad);
        if requires {
            Var::make(value, true, Some(Recorded { parents, backward: Box::new(backward) }))
        } else {
            Var::make(value, false, None)
        }
    }

    /// A trainable leaf (a [`Var::param`]): gradient sums end here.
    fn is_leaf(&self) -> bool {
        self.inner.requires_grad && self.inner.op.is_none()
    }

    /// Adds one backward pass's gradient sum into the leaf's slot.
    fn accumulate(&self, sum: Tensor) {
        let mut slot = self.inner.grad.borrow_mut();
        match slot.as_mut() {
            Some(existing) => existing.axpy(1.0, &sum),
            None => *slot = Some(sum),
        }
    }

    /// Unique id of this node (monotonically increasing with creation).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Borrows the node's value.
    ///
    /// # Panics
    ///
    /// Panics if the value is currently mutably borrowed (only possible
    /// during [`Var::update_value`]).
    pub fn value(&self) -> Ref<'_, Tensor> {
        self.inner.value.borrow()
    }

    /// Clones the node's value out.
    pub fn value_clone(&self) -> Tensor {
        self.inner.value.borrow().clone()
    }

    /// The shape of the node's value.
    pub fn shape(&self) -> Vec<usize> {
        self.inner.value.borrow().shape().to_vec()
    }

    /// Replaces the value of a leaf in place (used by optimizers).
    ///
    /// # Panics
    ///
    /// Panics if called on a non-leaf node (that would silently
    /// invalidate recorded backward closures) or if the new shape
    /// differs.
    pub fn update_value(&self, f: impl FnOnce(&mut Tensor)) {
        assert!(self.inner.op.is_none(), "update_value is only valid on leaf nodes");
        let mut v = self.inner.value.borrow_mut();
        let shape_before = v.shape().to_vec();
        f(&mut v);
        assert_eq!(v.shape(), &shape_before[..], "update_value must preserve shape");
    }

    /// The accumulated gradient, if any.
    pub fn grad(&self) -> Option<Tensor> {
        self.inner.grad.borrow().clone()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.inner.grad.borrow_mut() = None;
    }

    /// Detaches the value from the graph as a fresh constant.
    pub fn detach(&self) -> Var {
        Var::constant(self.value_clone())
    }

    /// Runs backpropagation from this node, accumulating gradients into
    /// every reachable leaf created with [`Var::param`].
    ///
    /// # Panics
    ///
    /// Panics if the node is not scalar (one element).
    pub fn backward(&self) {
        let n = self.value().len();
        assert_eq!(n, 1, "backward() requires a scalar loss, got {n} elements");
        let seed = Tensor::ones(&self.shape());
        self.backward_with(seed);
    }

    /// Runs backpropagation seeding this node's gradient with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `seed`'s shape differs from the node's value shape, and
    /// with the original payload if a gradient computation panics — on
    /// this thread or on the gradient worker.
    pub(crate) fn backward_with(&self, seed: Tensor) {
        let mut leaves = Leaves::default();
        self.walk(seed, Some(&mut leaves));
        leaves.finish();
    }

    /// The serial walk the tape is held to: every gradient computed on
    /// the calling thread, a leaf's contributions summed in the walk's
    /// map like an activation's and added into its slot when the walk
    /// reaches it.
    #[cfg(test)]
    pub(crate) fn backward_serial(&self, seed: Tensor) {
        self.walk(seed, None);
    }

    /// One pass over the tape. With `leaves`, gradients bound for a
    /// trainable leaf go to its stream; without, they stay in the map.
    fn walk(&self, seed: Tensor, mut leaves: Option<&mut Leaves>) {
        assert_eq!(seed.shape(), &self.shape()[..], "backward seed shape mismatch");
        if !self.inner.requires_grad {
            return;
        }
        // Gather all reachable grad-requiring nodes. Descending id order
        // is a valid reverse topological order (parents precede
        // children at creation time).
        let mut reachable: HashMap<u64, Var> = HashMap::new();
        let mut stack = vec![self.clone()];
        while let Some(v) = stack.pop() {
            if !v.inner.requires_grad || reachable.contains_key(&v.inner.id) {
                continue;
            }
            if let Some(op) = &v.inner.op {
                for p in &op.parents {
                    stack.push(p.clone());
                }
            }
            reachable.insert(v.inner.id, v);
        }
        let mut order: Vec<u64> = reachable.keys().copied().collect();
        order.sort_unstable_by(|a, b| b.cmp(a));

        let mut acts: HashMap<u64, Tensor> = HashMap::new();
        acts.insert(self.inner.id, seed);
        for id in order {
            let node = &reachable[&id];
            let Some(grad) = acts.remove(&id) else {
                continue;
            };
            match &node.inner.op {
                // A leaf is in the map only as the root, or in the
                // serial walk.
                None => match leaves.as_deref_mut() {
                    Some(leaves) => leaves.ready(node, grad),
                    None => node.accumulate(grad),
                },
                Some(op) => (op.backward)(
                    &grad,
                    &mut Grads {
                        parents: &op.parents,
                        acts: &mut acts,
                        leaves: leaves.as_deref_mut(),
                    },
                ),
            }
        }
    }
}

/// A backward closure's view of its node's parents: which need a
/// gradient, and where each gradient goes.
pub(crate) struct Grads<'a> {
    parents: &'a [Var],
    /// The walk's activation gradients, by node id.
    acts: &'a mut HashMap<u64, Tensor>,
    leaves: Option<&'a mut Leaves>,
}

impl Grads<'_> {
    /// Whether parent `i` needs a gradient (constants do not).
    fn wants(&self, i: usize) -> bool {
        self.parents[i].inner.requires_grad
    }

    /// Gives parent `i` the gradient `grad` computes now, if it needs
    /// one.
    pub(crate) fn put(&mut self, i: usize, grad: impl FnOnce() -> Tensor) {
        if self.wants(i) {
            let grad = grad();
            self.route(i, grad);
        }
    }

    /// Gives each of `parents` that needs one its gradient, the
    /// matching tensor of what `job` returns. When every such parent is
    /// a trainable leaf, `job` runs on the gradient worker while the
    /// walk goes on; otherwise it runs now.
    pub(crate) fn put_later(
        &mut self,
        parents: &[usize],
        job: impl FnOnce() -> Vec<Tensor> + Send + 'static,
    ) {
        let wanted: Vec<usize> = parents.iter().copied().filter(|&i| self.wants(i)).collect();
        if wanted.is_empty() {
            return;
        }
        if let Some(leaves) = self.leaves.as_deref_mut() {
            if wanted.iter().all(|&i| self.parents[i].is_leaf()) {
                let slots = parents
                    .iter()
                    .map(|&i| wanted.contains(&i).then(|| leaves.slot(&self.parents[i])))
                    .collect();
                leaves.stream.defer(slots, Box::new(job));
                return;
            }
        }
        for (&i, grad) in parents.iter().zip(job()) {
            if self.wants(i) {
                self.route(i, grad);
            }
        }
    }

    fn route(&mut self, i: usize, grad: Tensor) {
        let parent = &self.parents[i];
        debug_assert_eq!(
            grad.shape(),
            &parent.shape()[..],
            "gradient shape mismatch for parent {}",
            parent.inner.id
        );
        match self.leaves.as_deref_mut() {
            Some(leaves) if parent.is_leaf() => leaves.ready(parent, grad),
            _ => {
                self.acts
                    .entry(parent.inner.id)
                    .and_modify(|acc| acc.axpy(1.0, &grad))
                    .or_insert(grad);
            }
        }
    }
}

/// The trainable leaves one backward pass reaches: one accumulator slot
/// each, in order of first contribution, and the stream that fills
/// them.
#[derive(Default)]
struct Leaves {
    slots: HashMap<u64, usize>,
    vars: Vec<Var>,
    stream: LeafStream,
}

impl Leaves {
    fn slot(&mut self, leaf: &Var) -> usize {
        let vars = &mut self.vars;
        *self.slots.entry(leaf.inner.id).or_insert_with(|| {
            vars.push(leaf.clone());
            vars.len() - 1
        })
    }

    fn ready(&mut self, leaf: &Var, grad: Tensor) {
        let slot = self.slot(leaf);
        self.stream.ready(slot, grad);
    }

    /// Joins the stream and adds each leaf's sum into its slot.
    fn finish(self) {
        let sums = self.stream.finish();
        for (leaf, sum) in self.vars.iter().zip(sums) {
            if let Some(sum) = sum {
                leaf.accumulate(sum);
            }
        }
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Var")
            .field("id", &self.inner.id)
            .field("requires_grad", &self.inner.requires_grad)
            .field("value", &*self.value())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_accumulates_across_backwards() {
        let w = Var::param(Tensor::from_slice(&[1.0, 2.0]));
        let loss = w.sum();
        loss.backward();
        loss.backward();
        assert_eq!(w.grad().unwrap().data(), &[2.0, 2.0]);
        w.zero_grad();
        assert!(w.grad().is_none());
    }

    #[test]
    fn constants_build_no_tape() {
        let a = Var::constant(Tensor::from_slice(&[1.0]));
        let b = Var::constant(Tensor::from_slice(&[2.0]));
        let c = a.add(&b);
        assert!(!c.inner.requires_grad);
        assert!(c.inner.op.is_none());
    }

    #[test]
    fn diamond_graph_accumulates_both_paths() {
        // loss = w + w ; dloss/dw = 2
        let w = Var::param(Tensor::scalar(3.0));
        let loss = w.add(&w);
        loss.backward();
        assert_eq!(w.grad().unwrap().item(), 2.0);
    }

    #[test]
    fn shared_subexpression() {
        // y = w*w; loss = y + y = 2w^2; d/dw = 4w = 12
        let w = Var::param(Tensor::scalar(3.0));
        let y = w.mul(&w);
        let loss = y.add(&y);
        loss.backward();
        assert_eq!(w.grad().unwrap().item(), 12.0);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_on_vector_panics() {
        let w = Var::param(Tensor::from_slice(&[1.0, 2.0]));
        w.backward();
    }

    #[test]
    fn update_value_preserves_graph_leaves() {
        let w = Var::param(Tensor::from_slice(&[1.0]));
        w.update_value(|t| t.data_mut()[0] = 5.0);
        assert_eq!(w.value().data(), &[5.0]);
    }

    #[test]
    #[should_panic(expected = "leaf nodes")]
    fn update_value_on_derived_panics() {
        let w = Var::param(Tensor::scalar(1.0));
        let y = w.add(&w);
        y.update_value(|_| {});
    }

    #[test]
    fn detach_stops_gradient() {
        let w = Var::param(Tensor::scalar(2.0));
        let y = w.mul(&w).detach();
        let loss = y.mul(&w).sum();
        loss.backward();
        // d/dw (4 * w) = 4, not 3w^2 = 12.
        assert_eq!(w.grad().unwrap().item(), 4.0);
    }

    #[test]
    fn backward_with_seed() {
        let w = Var::param(Tensor::from_slice(&[1.0, 2.0]));
        let y = w.scale(3.0);
        y.backward_with(Tensor::from_slice(&[1.0, 10.0]));
        assert_eq!(w.grad().unwrap().data(), &[3.0, 30.0]);
    }
}
