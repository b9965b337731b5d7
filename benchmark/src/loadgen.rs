//! Closed- and open-loop load generation over a fixed set of worker
//! slots (connections). In the open loop every operation is timed
//! *from the moment it was due*, so a stall in the system shows up as
//! latency on every operation queued behind it, and the generator's own
//! lateness — how long after its due time an operation actually
//! started — is recorded beside it.
//!
//! A worker waits for its next due time in a `yield_now` loop. Were it
//! to sleep, the two-core sandbox would go idle between arrivals and
//! its virtual CPUs halt; what waking a halted one costs there flips
//! between ~40 us and ~150 us with the hypervisor's mood, and a 2.5 ms
//! submit crosses threads often enough to inherit it: the median live
//! submit of sixteen alternated runs spread 14 % with a sleeping
//! generator (2.39-3.13 ms) and 4.9 % with a yielding one (2.06-2.23
//! ms), which also started a third fewer operations late.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// One completed operation. Times are seconds since the phase began.
#[derive(Debug, Clone, PartialEq)]
pub struct OpRecord<R> {
    /// Position in the phase's operation sequence.
    pub index: usize,
    /// When the operation was due (closed loop: when it started).
    pub due: f64,
    /// When a worker actually started it.
    pub start: f64,
    /// When its reply was complete.
    pub end: f64,
    /// Operations already due but not yet started when this one
    /// started (itself excluded).
    pub backlog: usize,
    /// Whatever the operation returned.
    pub result: R,
}

impl<R> OpRecord<R> {
    /// Latency as the submitter experiences it: reply time minus due
    /// time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.due) * 1e3
    }

    /// How late the generator started the operation, in milliseconds.
    pub fn lateness_ms(&self) -> f64 {
        (self.start - self.due) * 1e3
    }
}

/// Open loop: operation `i` is due at `due[i]` seconds (ascending)
/// whatever the system is doing. Each worker slot claims the next
/// unstarted operation, waits for its due time if that is still ahead,
/// and runs `op(slot, i)`. Returns the records in operation order and
/// hands the worker slots back.
pub fn run_open_loop<W, R, F>(due: &[f64], workers: Vec<W>, op: F) -> (Vec<OpRecord<R>>, Vec<W>)
where
    W: Send,
    R: Send,
    F: Fn(&mut W, usize) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let origin = Instant::now();
    run_workers(workers, |slot| {
        let mut records = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::SeqCst);
            let Some(&due_at) = due.get(index) else { return records };
            // Waits by yielding, not by sleeping: see the module docs.
            while origin.elapsed().as_secs_f64() < due_at {
                std::thread::yield_now();
            }
            let start = origin.elapsed().as_secs_f64();
            let backlog = due.partition_point(|&d| d <= start).saturating_sub(index + 1);
            let result = op(slot, index);
            let end = origin.elapsed().as_secs_f64();
            records.push(OpRecord { index, due: due_at, start, end, backlog, result });
        }
    })
}

/// Closed loop: every worker slot starts its next operation as soon as
/// its previous one completes, until `seconds` have passed or `max_ops`
/// operations have been started.
pub fn run_closed_loop<W, R, F>(
    seconds: f64,
    max_ops: usize,
    workers: Vec<W>,
    op: F,
) -> (Vec<OpRecord<R>>, Vec<W>)
where
    W: Send,
    R: Send,
    F: Fn(&mut W, usize) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let origin = Instant::now();
    run_workers(workers, |slot| {
        let mut records = Vec::new();
        loop {
            let start = origin.elapsed().as_secs_f64();
            if start >= seconds {
                return records;
            }
            let index = next.fetch_add(1, Ordering::SeqCst);
            if index >= max_ops {
                return records;
            }
            let result = op(slot, index);
            let end = origin.elapsed().as_secs_f64();
            records.push(OpRecord { index, due: start, start, end, backlog: 0, result });
        }
    })
}

/// Runs `body` once per worker slot, each on its own thread, and merges
/// the records in operation order.
fn run_workers<W, R, B>(mut workers: Vec<W>, body: B) -> (Vec<OpRecord<R>>, Vec<W>)
where
    W: Send,
    R: Send,
    B: Fn(&mut W) -> Vec<OpRecord<R>> + Sync,
{
    let mut records: Vec<OpRecord<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|slot| {
                let body = &body;
                scope.spawn(move || body(slot))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    records.sort_by_key(|r| r.index);
    (records, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A fake server that stalls on one request: 60 ms for operation 2,
    /// 1 ms for every other.
    fn stalling_server(_slot: &mut (), index: usize) -> usize {
        std::thread::sleep(Duration::from_millis(if index == 2 { 60 } else { 1 }));
        index
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_operation_queued_behind_it() {
        // One connection, one operation due every 10 ms.
        let due: Vec<f64> = (0..8).map(|i| i as f64 * 0.010).collect();
        let (records, _) = run_open_loop(&due, vec![()], stalling_server);
        assert_eq!(
            records.iter().map(|r| r.result).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );

        // Before the stall: started on time, latency is service time.
        assert!(records[1].lateness_ms() < 5.0, "{:?}", records[1]);
        assert!(records[1].latency_ms() < 8.0, "{:?}", records[1]);
        // The stalled operation itself.
        assert!(records[2].latency_ms() >= 60.0);
        // Operation 3 was due at 30 ms but could not start before the
        // stall ended at ~80 ms: its own service took 1 ms, yet its
        // submitter waited ~50 ms. Service-time-only timing hides that.
        let service_ms = (records[3].end - records[3].start) * 1e3;
        assert!(service_ms < 10.0, "service time {service_ms}");
        assert!(records[3].lateness_ms() >= 45.0, "{:?}", records[3]);
        assert!(records[3].latency_ms() >= 46.0, "{:?}", records[3]);
        assert!(records[3].backlog >= 3, "operations 4-7 came due during the stall");
        // The queue drains at 1 ms per operation, so the wait shrinks.
        assert!(records[7].latency_ms() < records[3].latency_ms());
        // Latency is always lateness plus service time.
        for r in &records {
            assert!((r.latency_ms() - r.lateness_ms() - (r.end - r.start) * 1e3).abs() < 1e-6);
        }
    }

    #[test]
    fn a_second_connection_absorbs_the_stall() {
        let due: Vec<f64> = (0..8).map(|i| i as f64 * 0.010).collect();
        let (records, _) = run_open_loop(&due, vec![(), ()], stalling_server);
        assert_eq!(records.len(), 8);
        assert!(records[3].lateness_ms() < 8.0, "the free connection takes it: {:?}", records[3]);
    }

    #[test]
    fn closed_loop_stops_at_the_deadline_or_the_operation_budget() {
        let (records, slots) = run_closed_loop(0.05, 1_000_000, vec![0usize, 0], |count, i| {
            *count += 1;
            std::thread::sleep(Duration::from_millis(2));
            i
        });
        assert!(records.len() >= 10 && records.len() <= 60, "{} operations", records.len());
        assert_eq!(slots.iter().sum::<usize>(), records.len());
        assert!(records.iter().all(|r| r.lateness_ms() == 0.0 && r.start < 0.05));

        let (records, _) = run_closed_loop(10.0, 5, vec![(), ()], |_, i| i);
        assert_eq!(records.len(), 5, "stops when the operations run out");
    }
}
