//! The metrics registry: monotonic counters and last-value gauges
//! (plus the name maps for the sketches and time-series defined in
//! their own modules).
//!
//! Registration (looking a metric up by name) takes a mutex on the
//! registry map — a cold path instrumentation sites hit once. The hot
//! path — `add`/`set` — is lock-free: every handle is an
//! `Arc` around an atomic, so the scoped worker pool can hammer one
//! counter from every core without serializing. Handles from a
//! disabled [`crate::Telemetry`] carry no storage at all; their hot
//! path is a no-op branch.

use crate::series::{
    SeriesKind, TimeSeries, TimeSeriesCore, TimeSeriesSnapshot, DEFAULT_SERIES_CAPACITY,
};
use crate::sketch::{Sketch, SketchCore, SketchSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// A no-op counter (what a disabled registry hands out).
    pub fn disabled() -> Self {
        Counter(None)
    }

    /// Adds `n` to the counter. Lock-free; no-op when disabled.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value (0 when disabled).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A last-value gauge (e.g. worker-pool size, items claimed).
#[derive(Debug, Clone)]
pub struct Gauge(pub(crate) Option<Arc<AtomicU64>>);

impl Gauge {
    /// A no-op gauge.
    pub fn disabled() -> Self {
        Gauge(None)
    }

    /// Sets the gauge. Lock-free; no-op when disabled.
    pub fn set(&self, value: u64) {
        if let Some(cell) = &self.0 {
            cell.store(value, Ordering::Relaxed);
        }
    }

    /// The current value (0 when disabled).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// The name → handle maps behind a recording [`crate::Telemetry`].
#[derive(Debug, Default)]
pub(crate) struct Registry {
    counters: Mutex<Vec<(String, Arc<AtomicU64>)>>,
    gauges: Mutex<Vec<(String, Arc<AtomicU64>)>>,
    sketches: Mutex<Vec<(String, Arc<SketchCore>)>>,
    series: Mutex<Vec<(String, Arc<TimeSeriesCore>)>>,
}

fn intern<T>(slots: &Mutex<Vec<(String, Arc<T>)>>, name: &str, make: impl FnOnce() -> T) -> Arc<T> {
    let mut slots = slots.lock().expect("metrics registry poisoned");
    if let Some((_, existing)) = slots.iter().find(|(n, _)| n == name) {
        return Arc::clone(existing);
    }
    let created = Arc::new(make());
    slots.push((name.to_string(), Arc::clone(&created)));
    created
}

impl Registry {
    pub(crate) fn counter(&self, name: &str) -> Counter {
        Counter(Some(intern(&self.counters, name, || AtomicU64::new(0))))
    }

    pub(crate) fn gauge(&self, name: &str) -> Gauge {
        Gauge(Some(intern(&self.gauges, name, || AtomicU64::new(0))))
    }

    pub(crate) fn sketch(&self, name: &str) -> Sketch {
        Sketch(Some(intern(&self.sketches, name, SketchCore::default)))
    }

    /// Registers (or re-fetches) a time-series. The first registration
    /// fixes the kind.
    pub(crate) fn time_series(&self, name: &str, kind: SeriesKind) -> TimeSeries {
        TimeSeries(Some(intern(&self.series, name, || {
            TimeSeriesCore::new(kind, DEFAULT_SERIES_CAPACITY)
        })))
    }

    pub(crate) fn counter_snapshots(&self) -> Vec<CounterSnapshot> {
        let slots = self.counters.lock().expect("metrics registry poisoned");
        slots
            .iter()
            .map(|(name, cell)| CounterSnapshot {
                name: name.clone(),
                value: cell.load(Ordering::Relaxed),
            })
            .collect()
    }

    pub(crate) fn gauge_snapshots(&self) -> Vec<GaugeSnapshot> {
        let slots = self.gauges.lock().expect("metrics registry poisoned");
        slots
            .iter()
            .map(|(name, cell)| GaugeSnapshot {
                name: name.clone(),
                value: cell.load(Ordering::Relaxed),
            })
            .collect()
    }

    pub(crate) fn sketch_snapshots(&self) -> Vec<SketchSnapshot> {
        let slots = self.sketches.lock().expect("metrics registry poisoned");
        slots
            .iter()
            .map(|(name, core)| {
                let sketch = core.sketch.lock().expect("sketch poisoned").clone();
                SketchSnapshot {
                    name: name.clone(),
                    count: sketch.count(),
                    sum: sketch.sum(),
                    sketch,
                }
            })
            .collect()
    }

    pub(crate) fn series_snapshots(&self) -> Vec<TimeSeriesSnapshot> {
        let slots = self.series.lock().expect("metrics registry poisoned");
        slots.iter().map(|(name, core)| core.snapshot(name)).collect()
    }
}

/// A counter's name and value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// A gauge's name and value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnapshot {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reread() {
        let registry = Registry::default();
        let a = registry.counter("ingest.logs");
        let again = registry.counter("ingest.logs");
        a.add(3);
        again.incr();
        assert_eq!(a.value(), 4, "both handles share storage");
        assert_eq!(
            registry.counter_snapshots(),
            vec![CounterSnapshot { name: "ingest.logs".into(), value: 4 }]
        );
    }

    #[test]
    fn gauges_keep_the_last_value_and_high_water_mark() {
        let registry = Registry::default();
        let g = registry.gauge("pool.workers");
        g.set(8);
        g.set(4);
        assert_eq!(g.value(), 4);
    }

    #[test]
    fn concurrent_increments_never_lose_updates() {
        let registry = Registry::default();
        let c = registry.counter("hot.count");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
    }

    #[test]
    fn disabled_handles_are_inert() {
        let c = Counter::disabled();
        c.add(5);
        assert_eq!(c.value(), 0);
        let g = Gauge::disabled();
        g.set(5);
        assert_eq!(g.value(), 0);
    }
}
