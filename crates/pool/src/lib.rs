//! A scoped worker pool with an atomic work cursor.
//!
//! This is the one pool idiom the whole workspace shares: `N` scoped
//! threads (one per available core, capped at the item count) pull work
//! items off a shared [`AtomicUsize`] cursor, so cheap items never wait
//! behind an unlucky static partition. It serves the submission
//! pipeline (`mlperf-submission`): bundle review on ingest and the
//! per-bundle writes of an archived round. It sits at the bottom of the
//! dependency graph with no dependencies of its own.
//!
//! It is not the outer loop of any tensor kernel: every
//! `mlperf-tensor` op runs on the calling thread. Each call spawns and
//! joins scoped threads, tens of microseconds on a two-core host, which
//! only pays back at the grain of a whole training step, not a kernel.
//!
//! [`parallel_map`] / [`parallel_map_workers`] apply a function to every
//! item of a slice and return the results in item order. The `_workers`
//! variant threads explicit per-worker state through (created on the
//! worker, torn down with the worker's claimed-item count), which is how
//! the ingest pipeline hangs telemetry scopes and sketches off the pool
//! without this crate knowing what telemetry is.
//!
//! On a single-core host (or for a single item) both degrade to an
//! inline serial loop on the calling thread: no threads are spawned, so
//! using the pool never costs anything when there is no parallelism to
//! be had.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// Number of pool workers for `items` work items: one per available
/// core, capped at the item count, and at least one.
///
/// The core count is read once per process:
/// `std::thread::available_parallelism` re-reads the affinity mask and
/// the cgroup quota on every call (15–30 µs on a two-core container —
/// more than a small review), and every pool entry point asks this.
pub fn workers_for(items: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| {
        thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
    });
    cores.min(items).max(1)
}

// Process-global pool statistics. This crate sits at the bottom of the
// dependency graph and cannot know what telemetry is, so it exposes
// plain atomics that `mlperf-telemetry`'s `Reporter` samples through
// closure sources. Every entry point — including the inline serial
// degradations — updates them, so a single-core CI host still records
// a busy-worker peak of at least one.
static WORKERS_BUSY: AtomicU64 = AtomicU64::new(0);
static WORKERS_BUSY_PEAK: AtomicU64 = AtomicU64::new(0);
static QUEUE_DEPTH: AtomicU64 = AtomicU64::new(0);
static ACTIVE_POOLS: AtomicU64 = AtomicU64::new(0);
static ITEMS_COMPLETED: AtomicU64 = AtomicU64::new(0);
static FANOUTS: AtomicU64 = AtomicU64::new(0);
static FANOUT_WIDTH_PEAK: AtomicU64 = AtomicU64::new(0);

/// A point-in-time reading of the process-global pool statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Workers currently inside a work loop (serial degradations count
    /// as one busy worker).
    pub workers_busy: u64,
    /// High-water mark of `workers_busy` since process start.
    pub workers_busy_peak: u64,
    /// Items claimed by no worker yet.
    pub queue_depth: u64,
    /// Pool invocations currently in flight.
    pub active_pools: u64,
    /// Items completed since process start.
    pub items_completed: u64,
    /// Pool invocations since process start.
    pub fanouts: u64,
    /// Widest fan-out (worker count of one invocation) since process
    /// start.
    pub fanout_width_peak: u64,
}

/// Reads the process-global pool statistics (monotone fields keep
/// growing for the life of the process; gauges are instantaneous).
pub fn pool_stats() -> PoolSnapshot {
    PoolSnapshot {
        workers_busy: WORKERS_BUSY.load(Ordering::Relaxed),
        workers_busy_peak: WORKERS_BUSY_PEAK.load(Ordering::Relaxed),
        queue_depth: QUEUE_DEPTH.load(Ordering::Relaxed),
        active_pools: ACTIVE_POOLS.load(Ordering::Relaxed),
        items_completed: ITEMS_COMPLETED.load(Ordering::Relaxed),
        fanouts: FANOUTS.load(Ordering::Relaxed),
        fanout_width_peak: FANOUT_WIDTH_PEAK.load(Ordering::Relaxed),
    }
}

/// Scope guard for one pool invocation: enqueues the work on entry,
/// drops the pool-active count (and any unconsumed queue) on exit,
/// even on panic unwind. Workers report completions through it, so it
/// is shared by reference across the scoped threads.
struct PoolScope {
    queued: AtomicU64,
}

impl PoolScope {
    fn enter(width: usize, queued: usize) -> PoolScope {
        ACTIVE_POOLS.fetch_add(1, Ordering::Relaxed);
        FANOUTS.fetch_add(1, Ordering::Relaxed);
        FANOUT_WIDTH_PEAK.fetch_max(width as u64, Ordering::Relaxed);
        QUEUE_DEPTH.fetch_add(queued as u64, Ordering::Relaxed);
        PoolScope { queued: AtomicU64::new(queued as u64) }
    }

    /// Marks `n` items complete: off the queue, onto the completed
    /// total.
    fn items_done(&self, n: u64) {
        self.queued.fetch_sub(n, Ordering::Relaxed);
        QUEUE_DEPTH.fetch_sub(n, Ordering::Relaxed);
        ITEMS_COMPLETED.fetch_add(n, Ordering::Relaxed);
    }
}

impl Drop for PoolScope {
    fn drop(&mut self) {
        ACTIVE_POOLS.fetch_sub(1, Ordering::Relaxed);
        // Anything still queued did not complete (panic unwind);
        // release it so the gauge does not leak upward forever.
        QUEUE_DEPTH.fetch_sub(self.queued.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Scope guard for one busy worker (serial loops count as one).
struct BusyWorker;

impl BusyWorker {
    fn enter() -> BusyWorker {
        let busy = WORKERS_BUSY.fetch_add(1, Ordering::Relaxed) + 1;
        WORKERS_BUSY_PEAK.fetch_max(busy, Ordering::Relaxed);
        BusyWorker
    }
}

impl Drop for BusyWorker {
    fn drop(&mut self) {
        WORKERS_BUSY.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Applies `f` to every item on the pool and returns the results in
/// item order.
///
/// The uninstrumented convenience over [`parallel_map_workers`]: no
/// per-worker state, the body sees only the item.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_workers(items, || (), |(), _, item| f(item), |(), _| ())
}

/// The fully general pool map: applies `f` to every item and returns
/// the results in item order, threading explicit per-worker state
/// through.
///
/// Each worker calls `init` once when it starts, passes the state to
/// every `f(state, index, item)` call for the items it claims, and
/// finally calls `done(state, claimed)` with how many items it claimed
/// — the hook instrumented callers use for per-worker distributions.
///
/// With one worker (single core, or a single item) everything runs
/// inline on the calling thread.
///
/// # Panics
///
/// A panic in `f` on a worker thread propagates to the caller once the
/// scope joins; callers that must survive faulty items should catch
/// panics inside `f` (as the submission ingest pipeline does).
pub fn parallel_map_workers<T, R, S, I, F, D>(items: &[T], init: I, f: F, done: D) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
    D: Fn(S, u64) + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = workers_for(items.len());
    let pool = PoolScope::enter(workers, items.len());
    if workers == 1 {
        let _busy = BusyWorker::enter();
        let mut state = init();
        let out = items.iter().enumerate().map(|(i, item)| f(&mut state, i, item)).collect();
        done(state, items.len() as u64);
        pool.items_done(items.len() as u64);
        return out;
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, init, f, done) = (&next, &init, &f, &done);
                let pool = &pool;
                scope.spawn(move || {
                    let _busy = BusyWorker::enter();
                    let mut state = init();
                    let mut out = Vec::new();
                    let mut claimed = 0u64;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        claimed += 1;
                        out.push((i, f(&mut state, i, &items[i])));
                        pool.items_done(1);
                    }
                    done(state, claimed);
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("pool worker panicked")).collect()
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let doubled = parallel_map(&items, |i| i * 2);
        assert_eq!(doubled, items.iter().map(|i| i * 2).collect::<Vec<_>>());
        assert!(parallel_map::<usize, usize, _>(&[], |i| *i).is_empty());
    }

    #[test]
    fn workers_state_counts_every_item() {
        let items: Vec<u64> = (0..100).collect();
        let total_claimed = AtomicU64::new(0);
        let inits = AtomicU64::new(0);
        let sums: Vec<u64> = parallel_map_workers(
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |state, i, item| {
                *state += 1;
                item + i as u64
            },
            |_, claimed| {
                total_claimed.fetch_add(claimed, Ordering::Relaxed);
            },
        );
        assert_eq!(sums, (0..100).map(|i| 2 * i).collect::<Vec<u64>>());
        assert_eq!(total_claimed.load(Ordering::Relaxed), 100);
        let inits = inits.load(Ordering::Relaxed);
        assert!(inits >= 1 && inits <= workers_for(100) as u64);
    }

    #[test]
    fn workers_for_bounds() {
        assert_eq!(workers_for(0), 1);
        assert_eq!(workers_for(1), 1);
        assert!(workers_for(1_000_000) >= 1);
    }

    // The stats are process-global and other tests run concurrently,
    // so these assert monotone deltas and invariants, never absolute
    // values.

    #[test]
    fn stats_count_completed_items_and_fanouts() {
        let before = pool_stats();
        let items: Vec<usize> = (0..321).collect();
        parallel_map(&items, |i| i + 1);
        let after = pool_stats();
        assert!(after.items_completed >= before.items_completed + 321);
        assert!(after.fanouts > before.fanouts);
        assert!(after.workers_busy_peak >= 1, "even a serial loop counts as one busy worker");
        assert!(after.fanout_width_peak >= 1);
    }

    #[test]
    fn stats_gauges_return_to_idle() {
        let items: Vec<usize> = (0..64).collect();
        parallel_map(&items, |i| *i);
        // Our own work is done; other tests may still be running, so
        // the gauges are bounded, not zero.
        let stats = pool_stats();
        assert!(stats.queue_depth < 1_000_000, "no leaked queue depth");
        assert!(stats.active_pools < 1_000, "no leaked active pools");
        assert!(stats.workers_busy <= stats.workers_busy_peak);
    }

    #[test]
    fn stats_observe_busy_workers_mid_flight() {
        let before = pool_stats();
        let items: Vec<usize> = (0..workers_for(usize::MAX).max(2) * 4).collect();
        parallel_map(&items, |i| {
            let seen = pool_stats();
            assert!(seen.workers_busy >= 1, "the observing worker itself is busy");
            assert!(seen.active_pools >= 1);
            *i
        });
        assert!(pool_stats().workers_busy_peak >= before.workers_busy_peak.max(1));
    }
}
