//! Benchmark-side spans: one record per call into a layer's public
//! function — name, start, end, the span that caused it, and the
//! operation it belongs to — kept in memory and written out only when
//! the run ends. The program under test is not instrumented; every
//! span here brackets a call the benchmark itself makes.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer row this span is charged to.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (0 while still open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (job) this span belongs to; spans of one job
    /// share it.
    pub op: u64,
}

/// Handle returned by [`Tracer::enter`], consumed by [`Tracer::exit`].
#[derive(Debug)]
pub struct Open(Option<usize>);

/// The span recorder. A disabled tracer records nothing and costs one
/// branch per call, so the same workload code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recording tracer when `enabled`, otherwise a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start_ns: self.now_ns(), end_ns: 0, parent, op });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`Tracer::enter`].
    ///
    /// # Panics
    ///
    /// When spans are closed out of order — a bug in the benchmark.
    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        assert_eq!(self.stack.pop(), Some(index), "spans must close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, op);
        let out = f();
        self.exit(open);
        out
    }

    /// Records a span that ran elsewhere (a load generator thread),
    /// from times measured there: nanoseconds since `origin`, which
    /// must not precede this tracer's creation.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        origin: Instant,
        start_s: f64,
        end_s: f64,
    ) {
        if !self.enabled {
            return;
        }
        let shift = origin.saturating_duration_since(self.origin).as_nanos() as u64;
        let at = |seconds: f64| shift + (seconds * 1e9) as u64;
        self.spans.push(Span { name, start_ns: at(start_s), end_ns: at(end_s), parent: None, op });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Where the time under the spans named `root` went: each name's
    /// self time as a percentage of the roots' total duration, counting
    /// only spans inside a root. The entry for `root` itself is the time
    /// no child span covers — the unattributed row — so the values sum
    /// to 100.
    pub fn shares_under(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let inside: Vec<bool> = (0..self.spans.len())
            .map(|mut i| loop {
                if self.spans[i].name == root {
                    break true;
                }
                match self.spans[i].parent {
                    Some(parent) => i = parent,
                    None => break false,
                }
            })
            .collect();
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        let mut total = 0u64;
        for (i, span) in self.spans.iter().enumerate() {
            if !inside[i] {
                continue;
            }
            match span.parent {
                Some(parent) if inside[parent] => own[parent] -= span.end_ns - span.start_ns,
                _ => total += span.end_ns - span.start_ns,
            }
        }
        let mut out = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if inside[i] && total > 0 {
                *out.entry(span.name).or_insert(0.0) += own[i] as f64 / total as f64 * 100.0;
            }
        }
        out
    }

    /// The spans as a JSON array, for `--spans-out`.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    json!({
                        "name": s.name,
                        "start_ns": s.start_ns,
                        "end_ns": s.end_ns,
                        "parent": s.parent,
                        "op": s.op,
                    })
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_to_the_root() {
        let mut t = Tracer::new(true);
        let root = t.enter("job", 1);
        t.span("read", 1, || std::thread::sleep(std::time::Duration::from_millis(3)));
        let review = t.enter("review", 1);
        t.span("parse", 1, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.exit(review);
        t.exit(root);

        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2), "parse is caused by review");
        assert!(spans.iter().all(|s| s.op == 1 && s.end_ns >= s.start_ns));

        let shares = t.shares_under("job");
        assert!((shares.values().sum::<f64>() - 100.0).abs() < 1e-9, "self times sum to the root");
        assert!(shares["read"] > shares["parse"], "3 ms against 2 ms");
        assert!(shares["review"] < shares["parse"], "review's own time excludes parse");
    }

    #[test]
    fn shares_under_a_root_sum_to_one_hundred_and_ignore_outsiders() {
        let mut t = Tracer::new(true);
        t.span("setup", 0, || std::thread::sleep(std::time::Duration::from_millis(2)));
        for op in 1..=2 {
            let root = t.enter("job", op);
            t.span("read", op, || std::thread::sleep(std::time::Duration::from_millis(2)));
            t.span("review", op, || std::thread::sleep(std::time::Duration::from_millis(1)));
            t.exit(root);
        }
        let shares = t.shares_under("job");
        assert!(!shares.contains_key("setup"), "spans outside every root are not counted");
        assert!((shares.values().sum::<f64>() - 100.0).abs() < 1e-9);
        assert!(shares["read"] > shares["review"]);
        assert!(shares["job"] < 20.0, "the root's own share is what no child covers");
        assert!(t.shares_under("absent").is_empty());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 41 + 1), 42);
        assert!(t.spans().is_empty());
        assert!(t.shares_under("x").is_empty());
    }
}
