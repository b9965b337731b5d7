//! Instrumentation for the benchmark suite: hierarchical spans, a
//! metrics registry, and trace export.
//!
//! One [`Telemetry`] handle is threaded through the layers under
//! measurement — the training harness, the submission-round ingest
//! pipeline, and the round archive. The handle is either *recording*
//! (an `Arc`-shared sink: span store, metric registry, and a monotonic
//! reference clock) or *disabled* (no sink at all). Disabled is the
//! default everywhere and costs nothing: no allocation, no clock reads,
//! no atomics — every instrumentation site branches on an `Option`
//! and moves on, which is what keeps the uninstrumented ingest path at
//! its BENCH.md baseline.
//!
//! Timestamps are explicit: spans are emitted through a [`SpanScope`]
//! built over a caller-supplied [`Clock`], so the harness can drive
//! spans from the same simulated clock its tests already use. Scopes
//! with different clock origins are aligned onto the sink's own
//! timeline at scope creation, so a trace mixing per-worker clocks
//! still reads as one coherent run.
//!
//! Exporters: [`trace::write_trace`] emits Chrome `trace_event`
//! JSON-lines (loadable in `chrome://tracing` / Perfetto),
//! [`prometheus::render_prometheus`] renders the registry — counters,
//! gauges, sketch quantiles, and time-series rates — in
//! Prometheus text exposition format, [`flame::write_collapsed`] folds
//! completed span trees into a collapsed-stack profile (the format
//! `inferno` / `flamegraph.pl` consume), and `mlperf-core`'s
//! `report::render_telemetry_report` renders the same snapshot as a
//! plain-text summary.
//!
//! Beyond point-in-time snapshots, the sink can carry an installed
//! [`Reporter`] that samples counters and gauges into windowed
//! time-series rings ([`TimeSeriesSnapshot`]) — instrumented loops call
//! [`Telemetry::pulse`] per item and the reporter turns that into
//! interval-spaced rate windows and optional live progress lines (see
//! the `series` module docs). Tail latencies aggregate into mergeable
//! [`QuantileSketch`]es with fixed memory instead of retained sample
//! vectors (see the `sketch` module docs for the error bound).

mod clock;
pub mod flame;
mod metrics;
pub(crate) mod prometheus;
mod series;
mod sketch;
mod snapshot;
mod span;
pub mod trace;

pub use clock::{Clock, RealClock};
pub use flame::write_collapsed;
pub use metrics::{Counter, CounterSnapshot, Gauge, GaugeSnapshot};
pub use prometheus::{render_prometheus, write_prometheus};
pub use series::{Reporter, SeriesKind, SeriesSample, TimeSeriesSnapshot, Window};
pub use sketch::{QuantileSketch, Sketch, SketchSnapshot, DEFAULT_SKETCH_ALPHA};
pub use snapshot::TelemetrySnapshot;
pub use span::{arg, EventRecord, SpanHandle, SpanId, SpanRecord, SpanScope};
pub use trace::{write_trace, TraceWriteError};

use metrics::Registry;
use series::TimeSeries;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Spans, and separately events, a recording sink keeps (the newest
/// win): a 10 000-bundle round (~91 000 spans) fits whole.
const RECORD_CAPACITY: usize = 1 << 17;

/// The sink's span and event rings, and how many records they evicted.
#[derive(Debug, Default)]
struct Records {
    spans: VecDeque<SpanRecord>,
    events: VecDeque<EventRecord>,
    evicted: u64,
}

/// Appends `batch` to `ring`, evicting the oldest records beyond
/// [`RECORD_CAPACITY`]; returns how many it evicted.
fn push_bounded<T>(ring: &mut VecDeque<T>, batch: &mut Vec<T>) -> u64 {
    let overflow = (ring.len() + batch.len()).saturating_sub(RECORD_CAPACITY);
    let from_ring = overflow.min(ring.len());
    ring.drain(..from_ring);
    ring.extend(batch.drain(..).skip(overflow - from_ring));
    overflow as u64
}

/// The shared sink behind a recording handle.
#[derive(Debug)]
struct Inner {
    /// The reference timeline every scope is aligned onto.
    clock: RealClock,
    records: Mutex<Records>,
    /// Next span id (1-based; 0 is the null id).
    next_span: AtomicU64,
    /// Next scope track (trace viewer lane).
    next_track: AtomicU64,
    metrics: Registry,
    /// The installed reporter, ticked by [`Telemetry::pulse`].
    reporter: Mutex<Option<Reporter>>,
}

/// A cloneable instrumentation handle: either a shared recording sink
/// or a no-op. Clones share the sink, so one handle can be passed down
/// through the harness, the ingest worker pool, and the archive and
/// everything lands in one snapshot.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// A recording handle with a fresh, empty sink. The sink's
    /// reference clock starts now.
    pub fn recording() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                clock: RealClock::new(),
                records: Mutex::new(Records::default()),
                next_span: AtomicU64::new(1),
                next_track: AtomicU64::new(1),
                metrics: Registry::default(),
                reporter: Mutex::new(None),
            })),
        }
    }

    /// The no-op handle (also [`Telemetry::default`]). Scopes and
    /// metric handles minted from it record nothing and never allocate.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A root span scope over the caller's clock, on a fresh track.
    /// The clock's origin is aligned onto the sink timeline here, once.
    pub fn scope<'a>(&'a self, clock: &'a dyn Clock) -> SpanScope<'a> {
        let Some(inner) = &self.inner else {
            return SpanScope::disabled();
        };
        let offset_us = inner.clock.now().as_micros() as i64 - clock.now().as_micros() as i64;
        let track = inner.next_track.fetch_add(1, Ordering::Relaxed);
        SpanScope::new(self, clock, offset_us, track, None)
    }

    /// A span scope over the sink's own reference clock (no alignment
    /// needed) — for call sites with no clock of their own.
    pub fn timeline_scope(&self) -> SpanScope<'_> {
        self.timeline_scope_under(None)
    }

    /// [`Telemetry::timeline_scope`] with every root span in the new
    /// scope parented under `parent` — how a worker thread nests its
    /// spans under the coordinating span of another scope.
    pub fn timeline_scope_under(&self, parent: Option<SpanId>) -> SpanScope<'_> {
        let Some(inner) = &self.inner else {
            return SpanScope::disabled();
        };
        let track = inner.next_track.fetch_add(1, Ordering::Relaxed);
        SpanScope::new(self, &inner.clock, 0, track, parent)
    }

    /// The named counter (registered on first use). A disabled handle
    /// returns an inert counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.as_ref().map_or_else(Counter::disabled, |inner| inner.metrics.counter(name))
    }

    /// The named gauge (registered on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner.as_ref().map_or_else(Gauge::disabled, |inner| inner.metrics.gauge(name))
    }

    /// The named quantile sketch at the default relative-error bound
    /// ([`DEFAULT_SKETCH_ALPHA`]). A disabled handle returns an inert
    /// sketch.
    pub fn sketch(&self, name: &str) -> Sketch {
        self.inner.as_ref().map_or_else(Sketch::disabled, |inner| inner.metrics.sketch(name))
    }

    /// The named time-series, a ring of [`DEFAULT_SERIES_CAPACITY`]
    /// samples. The first registration fixes the kind.
    pub(crate) fn time_series(&self, name: &str, kind: SeriesKind) -> TimeSeries {
        self.inner
            .as_ref()
            .map_or_else(TimeSeries::disabled, |inner| inner.metrics.time_series(name, kind))
    }

    /// Installs `reporter` into the sink; subsequent
    /// [`Telemetry::pulse`] calls (from any clone, any thread) tick it
    /// on the sink's monotonic clock. Replaces any previous reporter.
    /// No-op on a disabled handle.
    pub fn install_reporter(&self, reporter: Reporter) {
        if let Some(inner) = &self.inner {
            *inner.reporter.lock().expect("reporter slot poisoned") = Some(reporter);
        }
    }

    /// Gives the installed reporter a chance to sample, at the sink
    /// clock's current time. Cheap when no reporter is installed or
    /// the interval has not elapsed; instrumented loops call this once
    /// per processed item.
    pub fn pulse(&self) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut slot = inner.reporter.lock().expect("reporter slot poisoned");
        if let Some(reporter) = slot.as_mut() {
            reporter.maybe_tick(inner.clock.now());
        }
    }

    /// Forces the installed reporter to take a final sample now, so
    /// even a run shorter than the sampling interval closes at least
    /// one window before a snapshot is taken.
    pub fn flush_reporter(&self) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut slot = inner.reporter.lock().expect("reporter slot poisoned");
        if let Some(reporter) = slot.as_mut() {
            reporter.tick(inner.clock.now());
        }
    }

    /// A copy of everything recorded so far. Spans come back sorted by
    /// `(start_us, id)` regardless of completion order; a scope's spans
    /// are included once its stack has emptied or it was dropped.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut snapshot = self.metrics_snapshot();
        if let Some(inner) = &self.inner {
            let records = inner.records.lock().expect("span sink poisoned");
            snapshot.spans = records.spans.iter().cloned().collect();
            snapshot.events = records.events.iter().cloned().collect();
            snapshot.evicted = records.evicted;
            drop(records);
            snapshot.spans.sort_by_key(|s| (s.start_us, s.id));
            snapshot.events.sort_by_key(|e| (e.ts_us, e.id));
        }
        snapshot
    }

    /// [`Telemetry::snapshot`] without spans and events (the registry
    /// alone), at a cost that does not grow with the spans recorded.
    pub fn metrics_snapshot(&self) -> TelemetrySnapshot {
        let Some(inner) = &self.inner else {
            return TelemetrySnapshot::default();
        };
        TelemetrySnapshot {
            counters: inner.metrics.counter_snapshots(),
            gauges: inner.metrics.gauge_snapshots(),
            sketches: inner.metrics.sketch_snapshots(),
            series: inner.metrics.series_snapshots(),
            ..TelemetrySnapshot::default()
        }
    }

    /// Allocates the next span id. Only called by enabled scopes.
    pub(crate) fn allocate_span_id(&self) -> u64 {
        let inner = self.inner.as_ref().expect("span id requested from disabled telemetry");
        inner.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Moves one scope's completed spans and events into the sink, in
    /// one lock. Only called by enabled scopes.
    pub(crate) fn record(&self, spans: &mut Vec<SpanRecord>, events: &mut Vec<EventRecord>) {
        let inner = self.inner.as_ref().expect("spans recorded into disabled telemetry");
        let mut records = inner.records.lock().expect("span sink poisoned");
        let evicted =
            push_bounded(&mut records.spans, spans) + push_bounded(&mut records.events, events);
        records.evicted += evicted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_handle_is_disabled() {
        let telemetry = Telemetry::default();
        assert!(!telemetry.is_enabled());
        assert!(telemetry.snapshot().is_empty());
    }

    #[test]
    fn a_full_sink_keeps_the_newest_spans_and_counts_evictions() {
        let k = 3;
        // One span per flush: the ring pushes out its oldest entries.
        let telemetry = Telemetry::recording();
        let mut scope = telemetry.timeline_scope();
        for _ in 0..RECORD_CAPACITY + k {
            scope.record("test", "span", || ());
        }
        scope.event("test", "event");
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.spans.len(), RECORD_CAPACITY);
        assert_eq!(snapshot.evicted, k as u64);
        let ids = snapshot.spans.iter().map(|s| s.id);
        assert_eq!(
            (ids.clone().min(), ids.max()),
            (Some(k as u64 + 1), Some((RECORD_CAPACITY + k) as u64))
        );
        assert_eq!(snapshot.events.len(), 1, "events have a ring of their own");

        // One flush larger than the ring keeps its newest completions.
        let telemetry = Telemetry::recording();
        let mut scope = telemetry.timeline_scope();
        let outer = scope.start("test", "outer");
        for _ in 0..RECORD_CAPACITY + k {
            scope.record("test", "inner", || ());
        }
        scope.end(outer);
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.spans.len(), RECORD_CAPACITY);
        assert_eq!(snapshot.evicted, k as u64 + 1);
        assert!(snapshot.spans.iter().any(|s| s.name == "outer"), "the last to end is kept");
    }

    #[test]
    fn clones_share_one_sink() {
        let telemetry = Telemetry::recording();
        let clone = telemetry.clone();
        clone.counter("shared").add(2);
        telemetry.counter("shared").incr();
        assert_eq!(telemetry.snapshot().counters[0].value, 3);

        let mut scope = clone.timeline_scope();
        scope.record("test", "from_clone", || ());
        assert_eq!(telemetry.snapshot().spans.len(), 1);
    }

    #[test]
    fn snapshot_sorts_spans_by_start_time() {
        let telemetry = Telemetry::recording();
        let mut scope = telemetry.timeline_scope();
        let outer = scope.start("test", "first");
        let inner = scope.start("test", "second");
        scope.end(inner);
        scope.end(outer);
        // "second" completes first but starts later; the snapshot
        // orders by start.
        let spans = telemetry.snapshot().spans;
        assert_eq!(spans[0].name, "first");
        assert_eq!(spans[1].name, "second");
        assert!(spans[0].id < spans[1].id);
    }

    #[test]
    fn snapshot_filters_spans_by_layer() {
        let telemetry = Telemetry::recording();
        let mut scope = telemetry.timeline_scope();
        scope.record("harness", "run", || ());
        scope.record("ingest", "parse", || ());
        scope.record("harness", "run", || ());
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.spans_in("harness").count(), 2);
    }

    #[test]
    fn installed_reporter_samples_through_pulse_and_flush() {
        let telemetry = Telemetry::recording();
        let counter = telemetry.counter("items");
        let mut reporter = Reporter::new(std::time::Duration::ZERO);
        reporter.track_counter(&telemetry, "items", counter.clone());
        telemetry.install_reporter(reporter);
        telemetry.pulse(); // baseline sample
        counter.add(7);
        telemetry.flush_reporter();
        let snapshot = telemetry.snapshot();
        let series = snapshot.series.iter().find(|s| s.name == "items").unwrap();
        assert!(series.samples.len() >= 2);
        assert_eq!(series.last().unwrap().value, 7.0);
        let deltas: f64 = series.windows().iter().map(|w| w.delta).sum();
        assert_eq!(deltas as u64, counter.value());
    }

    #[test]
    fn disabled_handles_mint_inert_sketches_and_series() {
        let telemetry = Telemetry::disabled();
        telemetry.sketch("s").observe(1.0);
        telemetry.time_series("t", SeriesKind::Counter).push(std::time::Duration::ZERO, 1.0);
        telemetry.install_reporter(Reporter::new(std::time::Duration::ZERO));
        telemetry.pulse();
        telemetry.flush_reporter();
        assert!(telemetry.snapshot().is_empty());
    }

    #[test]
    fn sketches_and_series_land_in_the_snapshot() {
        let telemetry = Telemetry::recording();
        let sketch = telemetry.sketch("latency");
        for i in 1..=100 {
            sketch.observe(i as f64);
        }
        telemetry
            .time_series("depth", SeriesKind::Gauge)
            .push(std::time::Duration::from_secs(1), 3.0);
        let snapshot = telemetry.snapshot();
        assert!(!snapshot.is_empty());
        assert_eq!(snapshot.sketches.len(), 1);
        assert_eq!(snapshot.sketches[0].count, 100);
        let p50 = snapshot.sketches[0].quantile(0.5).unwrap();
        assert!((p50 - 50.0).abs() <= 0.5 + 1e-9, "p50 within 1%: {p50}");
        assert_eq!(snapshot.series.len(), 1);
        assert_eq!(snapshot.series[0].last().unwrap().value, 3.0);
    }

    #[test]
    fn scopes_get_distinct_tracks() {
        let telemetry = Telemetry::recording();
        let mut a = telemetry.timeline_scope();
        let mut b = telemetry.timeline_scope();
        a.record("test", "a", || ());
        b.record("test", "b", || ());
        let spans = telemetry.snapshot().spans;
        assert_ne!(spans[0].track, spans[1].track);
    }
}
