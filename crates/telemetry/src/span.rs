//! Hierarchical spans: named, timestamped intervals forming a tree.
//!
//! Spans are emitted through a [`SpanScope`] — a per-thread cursor over
//! an explicit [`Clock`] that maintains the open-span stack (children
//! nest under the innermost open span) and buffers completed
//! [`SpanRecord`]s and [`EventRecord`]s locally. The buffer reaches the
//! shared sink in one lock whenever the stack empties (the outermost
//! open span ends, or an event is emitted with no span open) and when
//! the scope is dropped, so a recorded span costs no lock of its own.
//! Scopes on different threads emit concurrently; each gets its own
//! `track` (the trace viewer's thread lane), and the sink aligns every
//! scope's clock onto one timeline so spans from different clocks stay
//! comparable.

use crate::clock::Clock;
use crate::Telemetry;
use serde_json::{Map, Value};

/// Identifies one emitted span, for explicit cross-scope parent links.
/// `0` is the null id a disabled scope hands out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// Whether this id names a real recorded span.
    pub fn is_recorded(&self) -> bool {
        self.0 != 0
    }
}

/// One completed span, as the sink stores it and the exporters read it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id within the sink (1-based; ids are allocated at start
    /// order, so a parent's id is always smaller than its children's).
    pub id: u64,
    /// The enclosing span's id, `None` for a root.
    pub parent: Option<u64>,
    /// The emitting scope's lane — one per scope, so concurrent workers
    /// never interleave on one lane.
    pub track: u64,
    /// Which instrumented layer emitted this (`harness`, `ingest`,
    /// `store`, …) — the Chrome trace category.
    pub layer: &'static str,
    /// Span name (`epoch`, `parse_log`, `write_round`, …).
    pub name: &'static str,
    /// Start timestamp on the sink timeline, microseconds.
    pub start_us: u64,
    /// End timestamp on the sink timeline, microseconds.
    pub end_us: u64,
    /// Structured key/value annotations.
    pub args: Map,
}

impl SpanRecord {
    /// The span's duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// One instant event: a point on the timeline rather than an interval.
/// Used for decisions and state changes with no meaningful duration —
/// e.g. review quarantining a bundle — which Chrome traces render as a
/// vertical tick on the emitting track.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Unique id within the sink (shares the span id space).
    pub id: u64,
    /// The open span the event happened inside, `None` at top level.
    pub parent: Option<u64>,
    /// The emitting scope's lane.
    pub track: u64,
    /// Which instrumented layer emitted this — the trace category.
    pub layer: &'static str,
    /// Event name (`quarantine`, `storage_fault`, …).
    pub name: &'static str,
    /// Timestamp on the sink timeline, microseconds.
    pub ts_us: u64,
    /// Structured key/value annotations.
    pub args: Map,
}

/// A span opened by [`SpanScope::start`] and not yet ended.
#[derive(Debug)]
struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    layer: &'static str,
    name: &'static str,
    start_us: u64,
    args: Map,
}

/// A handle to an open span: pass it back to [`SpanScope::end`]. Ends
/// are stack-disciplined — ending a span also ends any still-open
/// descendants it encloses.
#[derive(Debug, Clone, Copy)]
#[must_use = "a started span should be ended; dropping the scope ends it implicitly"]
pub struct SpanHandle {
    /// The started span's id (null when the scope is disabled).
    pub id: SpanId,
    /// Stack depth of the span (its index + 1); `end` pops to here.
    depth: usize,
}

/// The live state of an enabled scope.
pub(crate) struct ScopeState<'a> {
    pub(crate) telemetry: &'a Telemetry,
    pub(crate) clock: &'a dyn Clock,
    /// Added to this scope's clock readings to land them on the sink
    /// timeline (sink elapsed minus clock reading, sampled once at
    /// scope creation).
    pub(crate) offset_us: i64,
    pub(crate) track: u64,
    pub(crate) parent: Option<u64>,
    stack: Vec<OpenSpan>,
    /// Completed spans not yet handed to the sink.
    spans: Vec<SpanRecord>,
    /// Instant events not yet handed to the sink.
    events: Vec<EventRecord>,
}

impl ScopeState<'_> {
    /// Hands the buffered records to the sink once no span is open, so
    /// a snapshot never sees half of an enclosing span's subtree.
    fn flush_if_idle(&mut self) {
        if self.stack.is_empty() {
            self.telemetry.record(&mut self.spans, &mut self.events);
        }
    }
}

/// A per-thread span emitter over an explicit [`Clock`].
///
/// Created by [`Telemetry::scope`] (caller's clock, aligned onto the
/// sink timeline) or [`Telemetry::timeline_scope`] (the sink's own
/// monotonic clock). A scope created from a disabled [`Telemetry`] is
/// a no-op: `start`/`end` never read the clock and never allocate.
///
/// Completed spans and events become visible to
/// [`Telemetry::snapshot`] when the scope's stack empties. Dropping a
/// scope ends any spans still open in it and hands them over too.
pub struct SpanScope<'a> {
    pub(crate) state: Option<ScopeState<'a>>,
}

impl<'a> SpanScope<'a> {
    pub(crate) fn new(
        telemetry: &'a Telemetry,
        clock: &'a dyn Clock,
        offset_us: i64,
        track: u64,
        parent: Option<SpanId>,
    ) -> Self {
        SpanScope {
            state: Some(ScopeState {
                telemetry,
                clock,
                offset_us,
                track,
                parent: parent.filter(SpanId::is_recorded).map(|p| p.0),
                stack: Vec::new(),
                spans: Vec::new(),
                events: Vec::new(),
            }),
        }
    }

    pub(crate) fn disabled() -> Self {
        SpanScope { state: None }
    }

    /// Whether this scope records anything.
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// The innermost open span, if any — the parent a sibling scope
    /// (e.g. a worker thread) should nest under.
    pub fn current(&self) -> Option<SpanId> {
        let state = self.state.as_ref()?;
        state.stack.last().map(|s| SpanId(s.id)).or(state.parent.map(SpanId))
    }

    /// Opens a span nested under the innermost open span (or the
    /// scope's parent). Returns a handle for [`SpanScope::end`].
    pub fn start(&mut self, layer: &'static str, name: &'static str) -> SpanHandle {
        self.start_with(layer, name, Map::new)
    }

    /// Like [`SpanScope::start`], with annotations. `args` is a closure
    /// so a disabled scope never evaluates (or allocates) them.
    pub fn start_with(
        &mut self,
        layer: &'static str,
        name: &'static str,
        args: impl FnOnce() -> Map,
    ) -> SpanHandle {
        let Some(state) = self.state.as_mut() else {
            return SpanHandle { id: SpanId(0), depth: 0 };
        };
        let now_us = scope_now_us(state.clock, state.offset_us);
        let id = state.telemetry.allocate_span_id();
        let parent = state.stack.last().map(|s| s.id).or(state.parent);
        state.stack.push(OpenSpan { id, parent, layer, name, start_us: now_us, args: args() });
        SpanHandle { id: SpanId(id), depth: state.stack.len() }
    }

    /// Ends the span behind `handle` (and any still-open spans nested
    /// inside it, innermost first), recording it into the scope's
    /// buffer.
    pub fn end(&mut self, handle: SpanHandle) {
        self.end_with(handle, Map::new)
    }

    /// Like [`SpanScope::end`], merging extra annotations into the
    /// ended span. `args` is a closure so a disabled scope never
    /// evaluates them.
    pub fn end_with(&mut self, handle: SpanHandle, args: impl FnOnce() -> Map) {
        let Some(state) = self.state.as_mut() else {
            return;
        };
        if handle.depth == 0 || state.stack.len() < handle.depth {
            return; // handle from another scope generation; ignore
        }
        let now_us = scope_now_us(state.clock, state.offset_us);
        let mut extra = Some(args());
        while state.stack.len() >= handle.depth {
            let open = state.stack.pop().expect("stack length checked");
            let mut record_args = open.args;
            if state.stack.len() + 1 == handle.depth {
                // This is the span the handle names; merge its args.
                record_args.extend(extra.take().expect("extra args taken once"));
            }
            state.spans.push(SpanRecord {
                id: open.id,
                parent: open.parent,
                track: state.track,
                layer: open.layer,
                name: open.name,
                start_us: open.start_us,
                end_us: now_us.max(open.start_us),
                args: record_args,
            });
        }
        state.flush_if_idle();
    }

    /// Records an instant event under the innermost open span (or the
    /// scope's parent) — a point on the timeline, not an interval.
    pub fn event(&mut self, layer: &'static str, name: &'static str) {
        self.event_with(layer, name, Map::new)
    }

    /// Like [`SpanScope::event`], with annotations. `args` is a closure
    /// so a disabled scope never evaluates (or allocates) them.
    pub fn event_with(
        &mut self,
        layer: &'static str,
        name: &'static str,
        args: impl FnOnce() -> Map,
    ) {
        let Some(state) = self.state.as_mut() else {
            return;
        };
        let ts_us = scope_now_us(state.clock, state.offset_us);
        let id = state.telemetry.allocate_span_id();
        let parent = state.stack.last().map(|s| s.id).or(state.parent);
        state.events.push(EventRecord {
            id,
            parent,
            track: state.track,
            layer,
            name,
            ts_us,
            args: args(),
        });
        state.flush_if_idle();
    }

    /// Convenience: times `f` inside a span.
    pub fn record<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let handle = self.start(layer, name);
        let out = f();
        self.end(handle);
        out
    }
}

impl Drop for SpanScope<'_> {
    fn drop(&mut self) {
        let open = self.state.as_ref().is_some_and(|s| !s.stack.is_empty());
        if open {
            self.end(SpanHandle { id: SpanId(0), depth: 1 });
        }
    }
}

/// The current time on the sink timeline for a scope's clock.
fn scope_now_us(clock: &dyn Clock, offset_us: i64) -> u64 {
    (clock.now().as_micros() as i64 + offset_us).max(0) as u64
}

/// One `(key, value)` entry for a span args [`Map`] — sugar for
/// `Map::from([arg("epoch", json!(3))])` at instrumentation sites.
pub fn arg(key: &str, value: Value) -> (String, Value) {
    (key.to_string(), value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;
    use serde_json::json;
    use std::cell::Cell;
    use std::time::Duration;

    /// A scriptable clock for deterministic span tests.
    struct TestClock(Cell<u64>);
    impl TestClock {
        fn new() -> Self {
            TestClock(Cell::new(0))
        }
        fn advance_us(&self, us: u64) {
            self.0.set(self.0.get() + us);
        }
    }
    impl Clock for TestClock {
        fn now(&self) -> Duration {
            Duration::from_micros(self.0.get())
        }
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let telemetry = Telemetry::recording();
        let clock = TestClock::new();
        let mut scope = telemetry.scope(&clock);
        let outer = scope.start("test", "outer");
        clock.advance_us(10);
        let inner = scope.start("test", "inner");
        clock.advance_us(5);
        scope.end(inner);
        clock.advance_us(10);
        scope.end(outer);

        let spans = telemetry.snapshot().spans;
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.duration_us(), 5);
        assert_eq!(outer.duration_us(), 25);
        assert!(outer.start_us <= inner.start_us && inner.end_us <= outer.end_us);
    }

    #[test]
    fn ending_a_span_closes_forgotten_children() {
        let telemetry = Telemetry::recording();
        let clock = TestClock::new();
        let mut scope = telemetry.scope(&clock);
        let outer = scope.start("test", "outer");
        let _forgotten = scope.start("test", "forgotten");
        clock.advance_us(7);
        scope.end(outer);
        let spans = telemetry.snapshot().spans;
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.end_us - s.start_us == 7));
    }

    #[test]
    fn dropping_a_scope_closes_open_spans() {
        let telemetry = Telemetry::recording();
        let clock = TestClock::new();
        {
            let mut scope = telemetry.scope(&clock);
            let _open = scope.start("test", "open");
            clock.advance_us(3);
        }
        let spans = telemetry.snapshot().spans;
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].duration_us(), 3);
    }

    #[test]
    fn spans_reach_the_sink_when_the_stack_empties_or_the_scope_drops() {
        let telemetry = Telemetry::recording();
        let clock = TestClock::new();
        let mut scope = telemetry.scope(&clock);
        let outer = scope.start("test", "outer");
        let inner = scope.start("test", "inner");
        scope.end(inner);
        scope.event("test", "inside");
        let buffered = telemetry.snapshot();
        assert!(buffered.spans.is_empty() && buffered.events.is_empty(), "outer span still open");
        scope.end(outer);
        let flushed = telemetry.snapshot();
        assert_eq!(flushed.spans.len(), 2, "the outermost end hands the subtree over");
        assert_eq!(flushed.events.len(), 1);

        let open = scope.start("test", "open_at_drop");
        let nested = scope.start("test", "nested_at_drop");
        assert_eq!(telemetry.snapshot().spans.len(), 2);
        drop(scope);
        let spans = telemetry.snapshot().spans;
        assert_eq!(spans.len(), 4, "dropping the scope ends and hands over open spans");
        assert!(spans.iter().any(|s| s.id == open.id.0 && s.name == "open_at_drop"));
        assert!(spans.iter().any(|s| s.id == nested.id.0 && s.parent == Some(open.id.0)));
    }

    #[test]
    fn explicit_parent_links_scopes_across_threads() {
        let telemetry = Telemetry::recording();
        let clock = TestClock::new();
        let mut scope = telemetry.scope(&clock);
        let root = scope.start("test", "root");
        let parent = scope.current();
        assert_eq!(parent, Some(root.id));

        let mut worker = telemetry.timeline_scope_under(parent);
        let item = worker.start("test", "item");
        worker.end(item);
        drop(worker);
        scope.end(root);

        let spans = telemetry.snapshot().spans;
        let item = spans.iter().find(|s| s.name == "item").unwrap();
        assert_eq!(item.parent, Some(root.id.0));
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        assert_ne!(item.track, root.track, "each scope gets its own track");
    }

    #[test]
    fn start_and_end_args_are_merged() {
        let telemetry = Telemetry::recording();
        let clock = TestClock::new();
        let mut scope = telemetry.scope(&clock);
        let h = scope.start_with("test", "annotated", || {
            Map::from([arg("epoch", json!(3)), arg("phase", json!("train"))])
        });
        scope.end_with(h, || Map::from([arg("quality", json!(0.75))]));
        let spans = telemetry.snapshot().spans;
        assert_eq!(spans[0].args.get("epoch"), Some(&json!(3)));
        assert_eq!(spans[0].args.get("quality"), Some(&json!(0.75)));
    }

    #[test]
    fn disabled_scope_records_nothing_and_never_reads_the_clock() {
        /// A clock that panics when read: proves the disabled path
        /// never samples time.
        struct PanicClock;
        impl Clock for PanicClock {
            fn now(&self) -> Duration {
                panic!("disabled telemetry must not read the clock")
            }
        }
        let telemetry = Telemetry::disabled();
        let mut scope = telemetry.scope(&PanicClock);
        assert!(!scope.is_enabled());
        let h = scope.start_with("test", "nothing", || panic!("args must not be evaluated"));
        assert!(!h.id.is_recorded());
        scope.end_with(h, || panic!("args must not be evaluated"));
        scope.event_with("test", "nothing", || panic!("args must not be evaluated"));
        assert!(telemetry.snapshot().spans.is_empty());
        assert!(telemetry.snapshot().events.is_empty());
    }

    #[test]
    fn events_record_a_point_under_the_open_span() {
        let telemetry = Telemetry::recording();
        let clock = TestClock::new();
        let mut scope = telemetry.scope(&clock);
        let outer = scope.start("test", "review");
        clock.advance_us(4);
        scope.event_with("test", "quarantine", || Map::from([arg("org", json!("Borealis"))]));
        clock.advance_us(4);
        scope.end(outer);

        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.events.len(), 1);
        let event = &snapshot.events[0];
        let span = &snapshot.spans[0];
        assert_eq!(event.name, "quarantine");
        assert_eq!(event.parent, Some(span.id), "event nests under the open span");
        assert!(span.start_us <= event.ts_us && event.ts_us <= span.end_us);
        assert_eq!(event.args.get("org"), Some(&json!("Borealis")));
    }

    #[test]
    fn top_level_events_have_no_parent() {
        let telemetry = Telemetry::recording();
        let clock = TestClock::new();
        let mut scope = telemetry.scope(&clock);
        scope.event("test", "lone");
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.events.len(), 1);
        assert_eq!(snapshot.events[0].parent, None);
    }

    #[test]
    fn sink_aligns_scopes_with_different_clock_origins() {
        let telemetry = Telemetry::recording();
        let early = TestClock::new();
        let late = TestClock::new();
        late.advance_us(1_000_000); // origin skewed by a full second
        let mut a = telemetry.scope(&early);
        let mut b = telemetry.scope(&late);
        let ha = a.start("test", "a");
        let hb = b.start("test", "b");
        a.end(ha);
        b.end(hb);
        let spans = telemetry.snapshot().spans;
        let (sa, sb) = (&spans[0], &spans[1]);
        // Both scopes were created at (nearly) the same sink instant,
        // so despite the 1s clock skew the aligned timestamps agree to
        // well under that.
        let diff = sa.start_us.abs_diff(sb.start_us);
        assert!(diff < 100_000, "alignment failed: {diff}µs apart");
    }
}
