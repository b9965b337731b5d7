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
//! [`TimeSeries`] rings — instrumented loops call
//! [`Telemetry::pulse`] per item and the reporter turns that into
//! interval-spaced rate windows and optional live progress lines (see
//! the `series` module docs). Tail latencies aggregate into mergeable
//! [`QuantileSketch`]es with fixed memory instead of retained sample
//! vectors (see the `sketch` module docs for the error bound).

mod clock;
pub mod flame;
mod metrics;
pub mod prometheus;
mod series;
mod sketch;
mod snapshot;
mod span;
pub mod trace;

pub use clock::{Clock, MonotonicClock};
pub use flame::{render_collapsed, write_collapsed};
pub use metrics::{Counter, CounterSnapshot, Gauge, GaugeSnapshot};
pub use prometheus::{render_prometheus, write_prometheus};
pub use series::{
    Reporter, SeriesKind, SeriesSample, TimeSeries, TimeSeriesSnapshot, Window,
    DEFAULT_SERIES_CAPACITY,
};
pub use sketch::{
    QuantileSketch, Sketch, SketchShard, SketchSnapshot, DEFAULT_SKETCH_ALPHA,
    DEFAULT_SKETCH_MAX_BUCKETS,
};
pub use snapshot::TelemetrySnapshot;
pub use span::{arg, EventRecord, SpanHandle, SpanId, SpanRecord, SpanScope};
pub use trace::{render_trace, trace_events, write_trace, TraceWriteError};

use metrics::Registry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The shared sink behind a recording handle.
#[derive(Debug)]
struct Inner {
    /// The reference timeline every scope is aligned onto.
    clock: MonotonicClock,
    spans: Mutex<Vec<SpanRecord>>,
    events: Mutex<Vec<EventRecord>>,
    /// Next span id (1-based; 0 is the null id).
    next_span: AtomicU64,
    /// Next scope track (trace viewer lane).
    next_track: AtomicU64,
    metrics: Registry,
    /// The installed reporter, ticked by [`Telemetry::pulse`].
    reporter: Mutex<Option<Reporter>>,
}

/// 1-in-N per-item span sampling for very large workloads. Metrics
/// (counters, gauges, sketches) are never sampled — only the
/// per-item span volume is thinned, so tracing a many-thousand-bundle
/// round stays cheap while the aggregates stay exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSampling {
    /// Sampling kicks in only when a stage has at least this many
    /// items; smaller stages keep full per-item span detail.
    pub threshold: u64,
    /// Record every Nth per-item span once over the threshold
    /// (`1` = record all).
    pub every: u64,
}

/// A cloneable instrumentation handle: either a shared recording sink
/// or a no-op. Clones share the sink, so one handle can be passed down
/// through the harness, the ingest worker pool, and the archive and
/// everything lands in one snapshot.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
    /// Per-item span sampling; rides on the handle (not the sink) so a
    /// caller can thin one pipeline's spans while other holders of the
    /// same sink keep recording everything.
    sampling: Option<SpanSampling>,
}

impl Telemetry {
    /// A recording handle with a fresh, empty sink. The sink's
    /// reference clock starts now.
    pub fn recording() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                clock: MonotonicClock::new(),
                spans: Mutex::new(Vec::new()),
                events: Mutex::new(Vec::new()),
                next_span: AtomicU64::new(1),
                next_track: AtomicU64::new(1),
                metrics: Registry::default(),
                reporter: Mutex::new(None),
            })),
            sampling: None,
        }
    }

    /// The no-op handle (also [`Telemetry::default`]). Scopes and
    /// metric handles minted from it record nothing and never allocate.
    pub fn disabled() -> Self {
        Telemetry { inner: None, sampling: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Returns this handle with 1-in-N per-item span sampling armed.
    /// Instrumented loops consult [`Telemetry::span_stride`] with their
    /// item count; stages below `sampling.threshold` are unaffected.
    pub fn with_span_sampling(mut self, sampling: SpanSampling) -> Self {
        self.sampling = Some(sampling);
        self
    }

    /// The sampling configuration, if armed.
    pub fn span_sampling(&self) -> Option<SpanSampling> {
        self.sampling
    }

    /// The per-item span stride for a stage of `items` items: `every`
    /// when sampling is armed and the stage meets the threshold,
    /// otherwise 1 (record every span).
    pub fn span_stride(&self, items: u64) -> u64 {
        match self.sampling {
            Some(s) if self.is_enabled() && items >= s.threshold => s.every.max(1),
            _ => 1,
        }
    }

    /// A root span scope over the caller's clock, on a fresh track.
    /// The clock's origin is aligned onto the sink timeline here, once.
    pub fn scope<'a>(&'a self, clock: &'a dyn Clock) -> SpanScope<'a> {
        self.scope_under(clock, None)
    }

    /// Like [`Telemetry::scope`], with every root span in the new scope
    /// parented under `parent` — how a worker thread nests its spans
    /// under the coordinating span of another scope.
    pub fn scope_under<'a>(
        &'a self,
        clock: &'a dyn Clock,
        parent: Option<SpanId>,
    ) -> SpanScope<'a> {
        let Some(inner) = &self.inner else {
            return SpanScope::disabled();
        };
        let offset_us = inner.clock.now().as_micros() as i64 - clock.now().as_micros() as i64;
        let track = inner.next_track.fetch_add(1, Ordering::Relaxed);
        SpanScope::new(self, clock, offset_us, track, parent)
    }

    /// A span scope over the sink's own reference clock (no alignment
    /// needed) — for call sites with no clock of their own.
    pub fn timeline_scope(&self) -> SpanScope<'_> {
        self.timeline_scope_under(None)
    }

    /// [`Telemetry::timeline_scope`] with an explicit parent span.
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
    pub fn time_series(&self, name: &str, kind: SeriesKind) -> TimeSeries {
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
    /// `(start_us, id)` regardless of completion order.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let Some(inner) = &self.inner else {
            return TelemetrySnapshot::default();
        };
        let mut spans = inner.spans.lock().expect("span sink poisoned").clone();
        spans.sort_by_key(|s| (s.start_us, s.id));
        let mut events = inner.events.lock().expect("event sink poisoned").clone();
        events.sort_by_key(|e| (e.ts_us, e.id));
        TelemetrySnapshot {
            spans,
            events,
            counters: inner.metrics.counter_snapshots(),
            gauges: inner.metrics.gauge_snapshots(),
            sketches: inner.metrics.sketch_snapshots(),
            series: inner.metrics.series_snapshots(),
        }
    }

    /// Allocates the next span id. Only called by enabled scopes.
    pub(crate) fn allocate_span_id(&self) -> u64 {
        let inner = self.inner.as_ref().expect("span id requested from disabled telemetry");
        inner.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores one completed span. Only called by enabled scopes.
    pub(crate) fn record_span(&self, record: SpanRecord) {
        let inner = self.inner.as_ref().expect("span recorded into disabled telemetry");
        inner.spans.lock().expect("span sink poisoned").push(record);
    }

    /// Stores one instant event. Only called by enabled scopes.
    pub(crate) fn record_event(&self, record: EventRecord) {
        let inner = self.inner.as_ref().expect("event recorded into disabled telemetry");
        inner.events.lock().expect("event sink poisoned").push(record);
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
    fn span_stride_respects_threshold_and_handle_state() {
        let plain = Telemetry::recording();
        assert_eq!(plain.span_stride(1_000_000), 1, "no sampling unless armed");

        let sampled =
            Telemetry::recording().with_span_sampling(SpanSampling { threshold: 100, every: 8 });
        assert_eq!(sampled.span_stride(99), 1, "below threshold records everything");
        assert_eq!(sampled.span_stride(100), 8);
        assert_eq!(sampled.span_stride(100_000), 8);
        assert_eq!(sampled.span_sampling(), Some(SpanSampling { threshold: 100, every: 8 }));

        // Sampling rides on the handle, not the sink: a plain clone of
        // the same sink still records everything.
        let clone = Telemetry { inner: sampled.inner.clone(), sampling: None };
        assert_eq!(clone.span_stride(100_000), 1);

        let disabled =
            Telemetry::disabled().with_span_sampling(SpanSampling { threshold: 0, every: 4 });
        assert_eq!(disabled.span_stride(1_000), 1, "disabled handles have no spans to thin");

        let degenerate =
            Telemetry::recording().with_span_sampling(SpanSampling { threshold: 0, every: 0 });
        assert_eq!(degenerate.span_stride(10), 1, "every=0 clamps to recording all");
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
    fn snapshot_reports_layers_in_first_seen_order() {
        let telemetry = Telemetry::recording();
        let mut scope = telemetry.timeline_scope();
        scope.record("harness", "run", || ());
        scope.record("ingest", "parse", || ());
        scope.record("harness", "run", || ());
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.layers(), vec!["harness", "ingest"]);
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
