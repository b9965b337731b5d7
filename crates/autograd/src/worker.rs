//! The gradient worker: the one place a thread enters training.
//!
//! Every gradient whose destination is a trainable leaf is off the
//! critical path of a backward pass: nothing in the step reads it
//! before the pass ends. So the tape hands each one to a helper thread,
//! as one ordered stream of [`Work`], and keeps walking the chain of
//! activation gradients meanwhile. A contribution is either a tensor
//! the calling thread already computed or a [`Job`] on owned tensors
//! (the weight GEMM of a `matmul`, the weight half of a `conv2d`).
//!
//! The worker folds the stream into one accumulator per leaf exactly as
//! the serial walk summed it ([`Fold`]): the first contribution moved
//! in, every later one added with `axpy(1.0, ·)`, in stream order —
//! which is the tape's order, descending node id then parent order. So
//! the thread that computes a term changes, and the order of every
//! addition does not: no result bit moves.
//!
//! One worker serves one training thread. It is spawned the first time
//! a backward pass defers a job, is parked between passes, and exits
//! with its thread. The join at the end of a pass never waits for a
//! parked worker: the calling thread takes every item the worker has
//! not started and runs it itself, in order, so a small backward pays
//! no wake-up. A job that panics on the worker surfaces from the
//! calling thread's join with its original payload, and the thread gets
//! a fresh worker at its next pass.

use mlperf_tensor::Tensor;
use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// Gradients still to compute, one per slot of its [`Work::Job`].
pub(crate) type Job = Box<dyn FnOnce() -> Vec<Tensor> + Send>;

/// One item of the stream, addressed to accumulator slots.
pub(crate) enum Work {
    /// A gradient the calling thread already computed, for one slot.
    Ready(usize, Tensor),
    /// A job whose `i`-th gradient goes to `slots[i]` (`None`: no
    /// parent needs it).
    Job(Vec<Option<usize>>, Job),
}

impl Work {
    fn run(self, fold: &mut Fold) {
        match self {
            Work::Ready(slot, grad) => fold.add(slot, grad),
            Work::Job(slots, job) => {
                let grads = job();
                assert_eq!(grads.len(), slots.len(), "gradient job returned wrong arity");
                for (slot, grad) in slots.into_iter().zip(grads) {
                    if let Some(slot) = slot {
                        fold.add(slot, grad);
                    }
                }
            }
        }
    }
}

/// One accumulator per leaf slot, summed as the serial walk sums: the
/// first contribution moved in, each later one added with
/// `axpy(1.0, ·)`.
#[derive(Default)]
struct Fold(Vec<Option<Tensor>>);

impl Fold {
    fn add(&mut self, slot: usize, grad: Tensor) {
        if self.0.len() <= slot {
            self.0.resize_with(slot + 1, || None);
        }
        match &mut self.0[slot] {
            Some(acc) => acc.axpy(1.0, &grad),
            empty => *empty = Some(grad),
        }
    }
}

/// The calling thread's end of one backward pass's stream.
#[derive(Default)]
pub(crate) struct LeafStream {
    /// Until the pass defers its first job, the calling thread folds
    /// here itself, so a pass that defers nothing never touches the
    /// worker; the first job takes these sums along.
    fold: Fold,
    /// Items after the first job not yet handed to the worker: ready
    /// tensors wait here for the next job or the join.
    batch: Vec<Work>,
    worker: Option<Worker>,
}

impl LeafStream {
    /// Queues a gradient the calling thread computed.
    pub(crate) fn ready(&mut self, slot: usize, grad: Tensor) {
        match self.worker {
            None => self.fold.add(slot, grad),
            Some(_) => self.batch.push(Work::Ready(slot, grad)),
        }
    }

    /// Hands `job`, and every item queued before it, to the worker.
    pub(crate) fn defer(&mut self, slots: Vec<Option<usize>>, job: Job) {
        self.batch.push(Work::Job(slots, job));
        let fold = &mut self.fold;
        let worker = self.worker.get_or_insert_with(|| Worker::take_or_spawn(mem::take(fold)));
        worker.send(&mut self.batch);
    }

    /// Ends the pass: every item folded, in stream order. Returns the
    /// sums, indexed by slot.
    ///
    /// # Panics
    ///
    /// Resumes the panic of a job that panicked, on either thread.
    pub(crate) fn finish(self) -> Vec<Option<Tensor>> {
        match self.worker {
            Some(worker) => worker.join(self.batch).0,
            None => self.fold.0,
        }
    }
}

thread_local! {
    /// This thread's worker between backward passes. A pass takes it
    /// out and puts it back only when it ends without a panic, so a
    /// pass that unwinds drops it (joining its thread) and the next one
    /// starts a fresh worker.
    static WORKER: RefCell<Option<Worker>> = const { RefCell::new(None) };
}

/// Whether this thread has a gradient worker parked between passes.
#[cfg(test)]
pub(crate) fn spawned_on_this_thread() -> bool {
    WORKER.with(|w| w.borrow().is_some())
}

/// A gradient worker thread and the state it shares with its caller.
pub(crate) struct Worker {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

struct Shared {
    state: Mutex<State>,
    /// Wakes a parked worker.
    work: Condvar,
}

#[derive(Default)]
struct State {
    queue: VecDeque<Work>,
    /// The accumulators, whenever the worker is not folding into them.
    fold: Fold,
    /// The worker is running an item (and holds the accumulators).
    running: bool,
    /// The worker waits on `work` and needs a notify to see new items.
    parked: bool,
    /// The payload of a job that panicked on the worker.
    panic: Option<Box<dyn Any + Send>>,
    /// The worker has exited, or is to exit after its running item.
    closed: bool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // Every update under the lock leaves `State` valid and nothing
        // panics while holding it, so a poisoned lock is recovered
        // rather than turning a job's panic into a second one.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Worker {
    /// This thread's worker, its accumulators starting from `fold`.
    fn take_or_spawn(fold: Fold) -> Worker {
        let worker = WORKER.with(|w| w.borrow_mut().take()).unwrap_or_else(Worker::spawn);
        worker.shared.lock().fold = fold;
        worker
    }

    fn spawn() -> Worker {
        let shared = Arc::new(Shared { state: Mutex::new(State::default()), work: Condvar::new() });
        let for_thread = Arc::clone(&shared);
        let thread = thread::Builder::new()
            .name("grad-worker".into())
            .spawn(move || work_loop(&for_thread))
            .expect("spawn the gradient worker thread");
        Worker { shared, thread: Some(thread) }
    }

    fn send(&self, batch: &mut Vec<Work>) {
        let mut st = self.shared.lock();
        st.queue.extend(batch.drain(..));
        let wake = mem::replace(&mut st.parked, false);
        drop(st);
        if wake {
            self.shared.work.notify_one();
        }
    }

    /// Takes every item the worker has not started, appends `batch`, and
    /// runs them all on the calling thread once the worker's running
    /// item (if any) is folded.
    fn join(self, batch: Vec<Work>) -> Fold {
        let mut st = self.shared.lock();
        let mut pending = mem::take(&mut st.queue);
        pending.extend(batch);
        while st.running {
            // The item is being computed, not parked: yield instead of
            // sleeping, so the join goes on the moment it is folded.
            drop(st);
            thread::yield_now();
            st = self.shared.lock();
        }
        if let Some(payload) = st.panic.take() {
            drop(st);
            drop(self);
            panic::resume_unwind(payload);
        }
        let mut fold = mem::take(&mut st.fold);
        drop(st);
        for work in pending {
            work.run(&mut fold);
        }
        WORKER.with(|w| *w.borrow_mut() = Some(self));
        fold
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.closed = true;
        st.queue.clear();
        drop(st);
        self.shared.work.notify_one();
        if let Some(thread) = self.thread.take() {
            // The thread catches every job's panic, so it cannot fail.
            let _ = thread.join();
        }
    }
}

/// The worker thread: run items in queue order, folding each into the
/// accumulators, until closed or a job panics.
fn work_loop(shared: &Shared) {
    let mut st = shared.lock();
    while !st.closed {
        let Some(work) = st.queue.pop_front() else {
            st.parked = true;
            st = shared.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        st.running = true;
        let mut fold = mem::take(&mut st.fold);
        drop(st);
        let result = panic::catch_unwind(AssertUnwindSafe(|| work.run(&mut fold)));
        st = shared.lock();
        st.fold = fold;
        st.running = false;
        if let Err(payload) = result {
            st.panic = Some(payload);
            st.closed = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;
    use mlperf_tensor::{Conv2dSpec, TensorRng};
    use proptest::prelude::*;
    use std::sync::mpsc::{self, Receiver, Sender};
    use std::time::Duration;

    /// Two channels of 3×3: a row of the graph's `[3, 18]` activations is
    /// one conv sample.
    const C: usize = 2;
    const S: usize = 3;
    const D: usize = C * S * S;
    const N: usize = 3;

    /// A one-way signal between the calling thread and the worker, so a
    /// test forces an interleaving — and fails, rather than hangs, when
    /// the code under test breaks it.
    #[derive(Clone)]
    struct Signal(Sender<()>, Arc<Mutex<Receiver<()>>>);

    impl Signal {
        fn new() -> Signal {
            let (give, take) = mpsc::channel();
            Signal(give, Arc::new(Mutex::new(take)))
        }

        fn give(&self) {
            self.0.send(()).expect("the signal outlives both sides");
        }

        fn take(&self) {
            let take = self.1.lock().expect("no side panics holding the signal");
            take.recv_timeout(Duration::from_secs(10)).expect("the other side gives the signal");
        }
    }

    /// Identity on `x`, whose backward first gives each of `gives` and
    /// then takes each of `takes`: on the worker, in a deferred job, when
    /// `deferred`; else on the calling thread. With no signals it is the
    /// same arithmetic, unforced.
    fn gated(x: &Var, deferred: bool, gives: Vec<Signal>, takes: Vec<Signal>) -> Var {
        Var::from_op(x.value_clone(), vec![x.clone()], move |g, grads| {
            let (gives, takes) = (gives.clone(), takes.clone());
            let wait = move || {
                gives.iter().for_each(Signal::give);
                takes.iter().for_each(Signal::take);
            };
            if deferred {
                let g = g.clone();
                grads.put_later(&[0], move || {
                    wait();
                    vec![g]
                });
            } else {
                wait();
                grads.put(0, || g.clone());
            }
        })
    }

    /// The trainable leaves of a [`random_graph`]: `w` feeds matmul,
    /// matmul_bias, gather_rows and elementwise nodes, and — reshaped —
    /// a conv weight; `k` is a conv weight itself.
    struct Params {
        w: Var,
        b: Var,
        k: Var,
        kb: Var,
    }

    impl Params {
        fn new(seed: u64) -> Params {
            let mut rng = TensorRng::new(seed);
            Params {
                w: Var::param(rng.normal(&[D, D], 0.0, 0.3)),
                b: Var::param(rng.normal(&[D], 0.0, 0.3)),
                k: Var::param(rng.normal(&[C, C, 3, 3], 0.0, 0.3)),
                kb: Var::param(rng.normal(&[C], 0.0, 0.3)),
            }
        }

        fn grad_bits(&self) -> Vec<Vec<u32>> {
            [&self.w, &self.b, &self.k, &self.kb]
                .iter()
                .map(|p| {
                    p.grad().map_or(vec![], |g| g.data().iter().map(|x| x.to_bits()).collect())
                })
                .collect()
        }
    }

    /// A loss over `ops`: each op extends a chain of `[N, D]`
    /// activations through nodes that read `p`'s leaves and constants —
    /// constants on either side of a matmul and as a conv image — and
    /// adds a term to the loss.
    ///
    /// With `forced`, two signals make the worker, not the join, fold
    /// the stream: the pass's first job holds the worker until the walk
    /// has queued everything else, and the walk's last node then waits
    /// for the worker to reach the job queued just before it.
    fn random_graph(p: &Params, ops: &[u8], seed: u64, forced: bool) -> Var {
        let (go, reached) = (Signal::new(), Signal::new());
        let only_if_forced = |signal: &Signal| if forced { vec![signal.clone()] } else { vec![] };
        let mut rng = TensorRng::new(seed ^ 0x5eed);
        let constant =
            |rng: &mut TensorRng, shape: &[usize]| Var::constant(rng.normal(shape, 0.0, 0.5));
        let spec = Conv2dSpec::new(3, 1, 1);
        let last = gated(&p.b, false, only_if_forced(&go), only_if_forced(&reached));
        let before_last = gated(&p.b, true, only_if_forced(&reached), vec![]);
        let mut h = constant(&mut rng, &[N, D]).add(&last).add(&before_last);
        let mut loss = h.sum();
        for &op in ops {
            h = match op % 8 {
                0 => h.matmul(&p.w),
                1 => h.matmul_bias(&p.w, &p.b),
                2 => h
                    .matmul(&constant(&mut rng, &[D, D]))
                    .add(&constant(&mut rng, &[N, D]).matmul(&p.w)),
                3 => h.add(&p.w.gather_rows(&[op as usize % D, 0, D - 1])),
                4 => h.mul(&p.w.narrow(0, op as usize % D, 1)).add(&p.b),
                5 => h.reshape(&[N, C, S, S]).conv2d(&p.k, Some(&p.kb), spec).reshape(&[N, D]),
                6 => {
                    let image = constant(&mut rng, &[N, C, S, S]).conv2d(&p.k, None, spec);
                    let derived = p.w.narrow(0, 0, C).reshape(&[C, C, 3, 3]);
                    h.reshape(&[N, C, S, S])
                        .conv2d(&derived, None, spec)
                        .add(&image)
                        .reshape(&[N, D])
                }
                _ => h.mul(&constant(&mut rng, &[N, D])).sub(&p.w.narrow(0, 1, N)),
            }
            .tanh();
            loss = loss.add(&h.square().mean());
        }
        loss.add(&gated(&p.w, true, vec![], only_if_forced(&go)).sum())
    }

    proptest! {
        #[test]
        fn tape_sums_every_gradient_as_the_serial_walk(
            ops in proptest::collection::vec(0u8..64, 1..12),
            seed in 0u64..1 << 32,
        ) {
            let (tape, serial) = (Params::new(seed), Params::new(seed));
            let loss = random_graph(&tape, &ops, seed, true);
            loss.backward();
            loss.backward();
            let loss = random_graph(&serial, &ops, seed, false);
            loss.backward_serial(Tensor::scalar(1.0));
            loss.backward_serial(Tensor::scalar(1.0));
            prop_assert_eq!(tape.grad_bits(), serial.grad_bits());
        }
    }

    #[test]
    fn job_panic_surfaces_from_backward_and_the_next_pass_gets_a_fresh_worker() {
        let w = Var::param(Tensor::from_slice(&[1.0, 2.0]));
        let v = Var::param(Tensor::from_slice(&[3.0, 4.0]));
        // The walk waits, at the node created first, until the worker has
        // started the job of the node created after it.
        let started = Signal::new();
        let waits = gated(&v, false, vec![], vec![started.clone()]);
        let failing = Var::from_op(w.value_clone(), vec![w.clone()], move |_, grads| {
            let started = started.clone();
            grads.put_later(&[0], move || {
                started.give();
                panic!("weight gradient failed on purpose")
            })
        });
        let loss = waits.add(&failing).sum();
        let err = panic::catch_unwind(AssertUnwindSafe(|| loss.backward())).unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"weight gradient failed on purpose"));
        assert!(!spawned_on_this_thread(), "the failed worker is dropped");

        let x = Var::constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let w = Var::param(Tensor::eye(2));
        x.matmul(&w).sum().backward();
        assert_eq!(w.grad().unwrap().data(), &[4.0, 4.0, 6.0, 6.0]);
        assert!(spawned_on_this_thread(), "a fresh worker ran the job");
    }

    #[test]
    fn a_pass_that_defers_nothing_spawns_no_worker() {
        let w = Var::param(Tensor::from_slice(&[1.0, 2.0]));
        w.mul(&w).sum().backward();
        assert_eq!(w.grad().unwrap().data(), &[2.0, 4.0]);
        assert!(!spawned_on_this_thread());
    }
}
