//! A point-in-time copy of everything a [`crate::Telemetry`] sink has
//! recorded, decoupled from the live atomics so exporters and report
//! renderers work on stable data.

use crate::metrics::{CounterSnapshot, GaugeSnapshot};
use crate::series::TimeSeriesSnapshot;
use crate::sketch::SketchSnapshot;
use crate::span::{EventRecord, SpanRecord};

/// Everything recorded so far: completed spans (sorted by start time,
/// then id), instant events (sorted by timestamp, then id), how many
/// of either the sink's bounded rings pushed out, and the metric
/// registry's current readings.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySnapshot {
    /// Completed spans, sorted by `(start_us, id)`.
    pub spans: Vec<SpanRecord>,
    /// Instant events, sorted by `(ts_us, id)`.
    pub events: Vec<EventRecord>,
    /// Spans and events evicted, oldest first, because the sink's ring
    /// was full.
    pub evicted: u64,
    /// Counters in registration order.
    pub counters: Vec<CounterSnapshot>,
    /// Gauges in registration order.
    pub gauges: Vec<GaugeSnapshot>,
    /// Quantile sketches in registration order.
    pub sketches: Vec<SketchSnapshot>,
    /// Time-series in registration order.
    pub series: Vec<TimeSeriesSnapshot>,
}

impl TelemetrySnapshot {
    /// Whether nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.events.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.sketches.is_empty()
            && self.series.is_empty()
    }

    /// The instant events emitted by one instrumented layer.
    pub fn events_in<'a>(&'a self, layer: &'a str) -> impl Iterator<Item = &'a EventRecord> {
        self.events.iter().filter(move |e| e.layer == layer)
    }

    /// The spans emitted by one instrumented layer (trace category).
    pub fn spans_in<'a>(&'a self, layer: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.spans.iter().filter(move |s| s.layer == layer)
    }
}
