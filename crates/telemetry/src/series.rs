//! Windowed time-series: ring buffers of `(timestamp, value)` samples
//! that turn cumulative counters into rates over time.
//!
//! A [`TimeSeries`] is registered by name like any other metric and
//! holds a fixed-capacity ring of [`SeriesSample`]s — memory is bounded
//! by construction (`capacity` samples; the oldest fall off and are
//! counted in `dropped`). Series of [`SeriesKind::Counter`] store the
//! *cumulative* counter reading at each sample, so the deltas of
//! consecutive samples telescope: however increments interleave with
//! sampling, the window deltas always sum to `last − first` with
//! nothing lost or double-counted. [`SeriesKind::Gauge`] series store
//! instantaneous readings (worker-pool occupancy, queue depth).
//!
//! A [`Reporter`] owns the sampling cadence: it is configured with
//! sources (counter handles, gauge handles, or plain closures for
//! stats that live outside the registry, like `mlperf-pool`'s global
//! worker gauges), creates one series per source, and samples them all
//! on each tick. Ticks are clock-driven and explicit —
//! [`Reporter::maybe_tick`] from any clock (tests drive it from a
//! simulated clock), or [`crate::Telemetry::pulse`] which ticks the
//! reporter installed in the sink from the sink's own monotonic clock.
//! Instrumented loops call `pulse()` once per item; the reporter turns
//! that into interval-spaced samples and (optionally) a live progress
//! line on stderr.

use crate::metrics::Counter;
use crate::Telemetry;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Ring capacity of every registered series.
pub(crate) const DEFAULT_SERIES_CAPACITY: usize = 512;

/// What a series' samples mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Samples are cumulative counter readings; consumers look at
    /// window deltas and rates.
    Counter,
    /// Samples are instantaneous readings; consumers look at last and
    /// peak values.
    Gauge,
}

/// One `(timestamp, value)` sample on the sink timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesSample {
    /// Microseconds since the sink's clock origin.
    pub t_us: u64,
    /// Cumulative or instantaneous reading, per [`SeriesKind`].
    pub value: f64,
}

#[derive(Debug)]
struct SeriesState {
    samples: VecDeque<SeriesSample>,
    dropped: u64,
}

/// Shared storage behind a registered [`TimeSeries`] handle.
#[derive(Debug)]
pub(crate) struct TimeSeriesCore {
    pub(crate) kind: SeriesKind,
    capacity: usize,
    state: Mutex<SeriesState>,
}

impl TimeSeriesCore {
    pub(crate) fn new(kind: SeriesKind, capacity: usize) -> Self {
        TimeSeriesCore {
            kind,
            capacity: capacity.max(2),
            state: Mutex::new(SeriesState { samples: VecDeque::new(), dropped: 0 }),
        }
    }

    pub(crate) fn snapshot(&self, name: &str) -> TimeSeriesSnapshot {
        let state = self.state.lock().expect("series poisoned");
        TimeSeriesSnapshot {
            name: name.to_string(),
            kind: self.kind,
            samples: state.samples.iter().copied().collect(),
            dropped: state.dropped,
        }
    }
}

/// A registry-backed time-series handle (clones share the ring).
#[derive(Debug, Clone)]
pub(crate) struct TimeSeries(pub(crate) Option<Arc<TimeSeriesCore>>);

impl TimeSeries {
    /// A no-op series (what a disabled registry hands out).
    pub fn disabled() -> Self {
        TimeSeries(None)
    }

    /// Appends a sample at `t` on the sink timeline, evicting the
    /// oldest sample when the ring is full. No-op when disabled.
    pub fn push(&self, t: Duration, value: f64) {
        let Some(core) = &self.0 else {
            return;
        };
        let mut state = core.state.lock().expect("series poisoned");
        if state.samples.len() == core.capacity {
            state.samples.pop_front();
            state.dropped += 1;
        }
        state.samples.push_back(SeriesSample { t_us: t.as_micros() as u64, value });
    }
}

/// One closed sampling window: the interval between two consecutive
/// samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Window start, microseconds on the sink timeline.
    pub start_us: u64,
    /// Window end, microseconds on the sink timeline.
    pub end_us: u64,
    /// `value(end) − value(start)`.
    pub delta: f64,
    /// `delta` per second of window (counter series); gauges carry the
    /// end-of-window reading change like any other delta.
    pub rate_per_sec: f64,
}

/// A series' retained samples at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesSnapshot {
    /// Registered name.
    pub name: String,
    /// What the samples mean.
    pub kind: SeriesKind,
    /// Retained samples, oldest first.
    pub samples: Vec<SeriesSample>,
    /// Samples evicted because the ring was full.
    pub dropped: u64,
}

impl TimeSeriesSnapshot {
    /// The closed windows between consecutive retained samples.
    pub fn windows(&self) -> Vec<Window> {
        self.samples
            .windows(2)
            .map(|pair| {
                let delta = pair[1].value - pair[0].value;
                let dt_us = pair[1].t_us.saturating_sub(pair[0].t_us).max(1);
                Window {
                    start_us: pair[0].t_us,
                    end_us: pair[1].t_us,
                    delta,
                    rate_per_sec: delta * 1e6 / dt_us as f64,
                }
            })
            .collect()
    }

    /// The newest sample.
    pub fn last(&self) -> Option<SeriesSample> {
        self.samples.last().copied()
    }

    /// Largest retained sample value (how `pool.workers_busy` peaks
    /// survive to the end of a run).
    pub fn peak(&self) -> Option<f64> {
        self.samples.iter().map(|s| s.value).reduce(f64::max)
    }

    /// Mean rate across all retained samples: `(last − first) /
    /// elapsed`. For counter series this is the overall throughput of
    /// the retained window; `None` with fewer than two samples.
    pub fn mean_rate_per_sec(&self) -> Option<f64> {
        if self.samples.len() < 2 {
            return None;
        }
        let (first, last) = (self.samples.first()?, self.samples.last()?);
        let dt_us = last.t_us.saturating_sub(first.t_us).max(1);
        Some((last.value - first.value) * 1e6 / dt_us as f64)
    }
}

/// How a [`Reporter`] reads one source on each tick.
enum Reading {
    Counter(Counter),
    Fn(Box<dyn Fn() -> f64 + Send>),
}

impl std::fmt::Debug for Reading {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reading::Counter(_) => f.write_str("Counter"),
            Reading::Fn(_) => f.write_str("Fn"),
        }
    }
}

#[derive(Debug)]
struct Source {
    name: String,
    kind: SeriesKind,
    series: TimeSeries,
    read: Reading,
    /// Reading at the previous tick (for progress-line rates).
    last_value: f64,
}

struct Progress {
    label: String,
    emit: Box<dyn Fn(&str) + Send>,
}

impl std::fmt::Debug for Progress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Progress").field("label", &self.label).finish_non_exhaustive()
    }
}

/// Samples a set of sources into time-series on a fixed interval (see
/// module docs). Drive it directly with [`Reporter::maybe_tick`] /
/// [`Reporter::tick`], or install it into a recording
/// [`crate::Telemetry`] and let instrumented loops drive it through
/// [`crate::Telemetry::pulse`].
#[derive(Debug)]
pub struct Reporter {
    interval: Duration,
    next_due: Option<Duration>,
    last_tick: Option<Duration>,
    sources: Vec<Source>,
    progress: Option<Progress>,
}

impl Reporter {
    /// A reporter sampling every `interval` (the first
    /// `maybe_tick`/`tick` always samples, establishing the baseline).
    pub fn new(interval: Duration) -> Self {
        Reporter { interval, next_due: None, last_tick: None, sources: Vec::new(), progress: None }
    }

    /// Emit a progress line (stderr by default) on every interval
    /// tick: `[label] +12.3s name 1234 (96.1/s) ...`.
    pub fn with_progress(mut self, label: &str) -> Self {
        self.progress =
            Some(Progress { label: label.to_string(), emit: Box::new(|line| eprintln!("{line}")) });
        self
    }

    /// Replaces the progress emitter (tests capture lines with this).
    #[cfg(test)]
    fn with_progress_emitter(mut self, emit: impl Fn(&str) + Send + 'static) -> Self {
        if let Some(progress) = &mut self.progress {
            progress.emit = Box::new(emit);
        }
        self
    }

    /// Samples `counter` into a counter-kind series named `name`.
    pub fn track_counter(&mut self, telemetry: &Telemetry, name: &str, counter: Counter) {
        self.track(telemetry, name, SeriesKind::Counter, Reading::Counter(counter));
    }

    /// Samples `read()` into a counter-kind series — the bridge for
    /// cumulative stats living outside the registry (e.g.
    /// `mlperf-pool`'s completed-item count). `read` must not call
    /// back into telemetry.
    pub fn track_counter_fn(
        &mut self,
        telemetry: &Telemetry,
        name: &str,
        read: impl Fn() -> f64 + Send + 'static,
    ) {
        self.track(telemetry, name, SeriesKind::Counter, Reading::Fn(Box::new(read)));
    }

    /// Samples `read()` into a gauge-kind series (worker occupancy,
    /// queue depth). `read` must not call back into telemetry.
    pub fn track_gauge_fn(
        &mut self,
        telemetry: &Telemetry,
        name: &str,
        read: impl Fn() -> f64 + Send + 'static,
    ) {
        self.track(telemetry, name, SeriesKind::Gauge, Reading::Fn(Box::new(read)));
    }

    fn track(&mut self, telemetry: &Telemetry, name: &str, kind: SeriesKind, read: Reading) {
        let series = telemetry.time_series(name, kind);
        self.sources.push(Source { name: name.to_string(), kind, series, read, last_value: 0.0 });
    }

    /// Samples every source if the interval has elapsed since the last
    /// tick (the very first call always samples). Returns whether a
    /// sample was taken.
    pub fn maybe_tick(&mut self, now: Duration) -> bool {
        match self.next_due {
            Some(due) if now < due => false,
            _ => {
                self.tick(now);
                true
            }
        }
    }

    /// Samples every source unconditionally — the final flush before a
    /// snapshot takes one of these so even a sub-interval run closes a
    /// window.
    pub fn tick(&mut self, now: Duration) {
        let dt = self.last_tick.map(|last| now.saturating_sub(last));
        let mut line = String::new();
        for source in &mut self.sources {
            let value = match &source.read {
                Reading::Counter(counter) => counter.value() as f64,
                Reading::Fn(read) => read(),
            };
            source.series.push(now, value);
            if self.progress.is_some() {
                match source.kind {
                    SeriesKind::Counter => {
                        let rate = match dt {
                            Some(dt) if !dt.is_zero() => {
                                (value - source.last_value) / dt.as_secs_f64()
                            }
                            _ => 0.0,
                        };
                        let _ = write!(line, "  {} {value:.0} ({rate:.1}/s)", source.name);
                    }
                    SeriesKind::Gauge => {
                        let _ = write!(line, "  {} {value:.0}", source.name);
                    }
                }
            }
            source.last_value = value;
        }
        if let Some(progress) = &self.progress {
            // The baseline tick (no previous tick) stays silent: every
            // reading is zero and the line would only be noise.
            if self.last_tick.is_some() {
                (progress.emit)(&format!("[{}] +{:.1}s{line}", progress.label, now.as_secs_f64()));
            }
        }
        self.last_tick = Some(now);
        self.next_due = Some(now + self.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let core = Arc::new(TimeSeriesCore::new(SeriesKind::Gauge, 3));
        let series = TimeSeries(Some(Arc::clone(&core)));
        for i in 0..5u64 {
            series.push(Duration::from_micros(i * 10), i as f64);
        }
        let snap = core.snapshot("g");
        assert_eq!(snap.dropped, 2);
        assert_eq!(
            snap.samples,
            vec![
                SeriesSample { t_us: 20, value: 2.0 },
                SeriesSample { t_us: 30, value: 3.0 },
                SeriesSample { t_us: 40, value: 4.0 },
            ]
        );
        assert_eq!(snap.peak(), Some(4.0));
        assert_eq!(snap.last(), Some(SeriesSample { t_us: 40, value: 4.0 }));
    }

    #[test]
    fn windows_carry_deltas_and_rates() {
        let core = Arc::new(TimeSeriesCore::new(SeriesKind::Counter, 8));
        let series = TimeSeries(Some(Arc::clone(&core)));
        series.push(Duration::from_secs(0), 0.0);
        series.push(Duration::from_secs(1), 100.0);
        series.push(Duration::from_secs(3), 150.0);
        let snap = core.snapshot("c");
        let windows = snap.windows();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].delta, 100.0);
        assert!((windows[0].rate_per_sec - 100.0).abs() < 1e-9);
        assert_eq!(windows[1].delta, 50.0);
        assert!((windows[1].rate_per_sec - 25.0).abs() < 1e-9);
        assert!((snap.mean_rate_per_sec().unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn reporter_respects_the_interval() {
        let telemetry = Telemetry::recording();
        let counter = telemetry.counter("work");
        let mut reporter = Reporter::new(Duration::from_millis(100));
        reporter.track_counter(&telemetry, "work", counter.clone());
        assert!(reporter.maybe_tick(Duration::from_millis(0)), "first tick is the baseline");
        counter.add(10);
        assert!(!reporter.maybe_tick(Duration::from_millis(50)), "not due yet");
        assert!(reporter.maybe_tick(Duration::from_millis(100)));
        counter.add(5);
        reporter.tick(Duration::from_millis(120)); // unconditional flush
        let snap = telemetry.snapshot();
        let series = snap.series.iter().find(|s| s.name == "work").unwrap();
        let values: Vec<f64> = series.samples.iter().map(|s| s.value).collect();
        assert_eq!(values, vec![0.0, 10.0, 15.0]);
        let deltas: f64 = series.windows().iter().map(|w| w.delta).sum();
        assert_eq!(deltas as u64, counter.value());
    }

    #[test]
    fn progress_lines_report_rates_after_the_baseline() {
        let telemetry = Telemetry::recording();
        let counter = telemetry.counter("ingest.bundles");
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&lines);
        let mut reporter = Reporter::new(Duration::from_secs(1))
            .with_progress("ingest")
            .with_progress_emitter(move |line| sink.lock().unwrap().push(line.to_string()));
        reporter.track_counter(&telemetry, "ingest.bundles", counter.clone());
        reporter.tick(Duration::from_secs(0));
        counter.add(250);
        reporter.tick(Duration::from_secs(2));
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 1, "baseline tick is silent");
        assert!(lines[0].starts_with("[ingest] +2.0s"), "line: {}", lines[0]);
        assert!(lines[0].contains("ingest.bundles 250 (125.0/s)"), "line: {}", lines[0]);
    }

    #[test]
    fn disabled_series_is_inert() {
        let series = TimeSeries::disabled();
        series.push(Duration::from_secs(1), 1.0);
        assert!(series.0.is_none());
    }
}
