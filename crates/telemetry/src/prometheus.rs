//! Prometheus text exposition of the metrics registry.
//!
//! [`render_prometheus`] turns a [`TelemetrySnapshot`] into the
//! `text/plain; version=0.0.4` exposition format a Prometheus server
//! scrapes: counters as `<name>_total`, gauges as-is, quantile sketches
//! as summaries with `quantile` labels plus `_sum`/`_count` (the one
//! distribution type the registry has), and time-series as derived
//! gauges — counter-kind series export their mean throughput over the
//! retained window as `<name>_per_sec`, gauge-kind series export the
//! last reading plus a `<name>_peak` high-water mark. Metric names are
//! sanitized (dots become underscores) but the registry's original
//! name is preserved in the `# HELP` line.
//!
//! The suite has no HTTP endpoint to scrape yet — `round_pipeline
//! --metrics FILE` writes one exposition at exit, which is exactly the
//! file the node-exporter "textfile collector" pattern picks up.

use crate::snapshot::TelemetrySnapshot;
use crate::trace::TraceWriteError;
use std::fmt::Write as _;
use std::path::Path;

/// A metric name restricted to the Prometheus charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: every other character becomes `_`, and
/// a leading digit is prefixed with `_`.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// A sample value in canonical form: integral floats print without
/// the trailing `.0` (`250`, not `250.0`).
fn number(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn header(out: &mut String, name: &str, kind: &str, original: &str) {
    let _ = writeln!(out, "# HELP {name} mlperf {kind} `{original}`.");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Renders the snapshot's full registry in Prometheus text exposition
/// format (see module docs for the mapping). Spans and events are not
/// exported here — they belong to the trace and flamegraph exporters.
pub fn render_prometheus(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for counter in &snapshot.counters {
        let name = format!("{}_total", sanitize(&counter.name));
        header(&mut out, &name, "counter", &counter.name);
        let _ = writeln!(out, "{name} {}", counter.value);
    }
    for gauge in &snapshot.gauges {
        let name = sanitize(&gauge.name);
        header(&mut out, &name, "gauge", &gauge.name);
        let _ = writeln!(out, "{name} {}", gauge.value);
    }
    for sketch in &snapshot.sketches {
        let name = sanitize(&sketch.name);
        header(&mut out, &name, "summary", &sketch.name);
        for q in [0.5, 0.9, 0.99] {
            if let Some(value) = sketch.quantile(q) {
                let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {}", number(value));
            }
        }
        let _ = writeln!(out, "{name}_sum {}", number(sketch.sum));
        let _ = writeln!(out, "{name}_count {}", sketch.count);
    }
    for series in &snapshot.series {
        match series.kind {
            crate::series::SeriesKind::Counter => {
                let name = format!("{}_per_sec", sanitize(&series.name));
                let rate = series.mean_rate_per_sec().unwrap_or(0.0);
                header(&mut out, &name, "gauge", &series.name);
                let _ = writeln!(out, "{name} {}", number(rate));
            }
            crate::series::SeriesKind::Gauge => {
                let name = sanitize(&series.name);
                header(&mut out, &name, "gauge", &series.name);
                let _ = writeln!(out, "{name} {}", number(series.last().map_or(0.0, |s| s.value)));
                let peak = format!("{name}_peak");
                header(&mut out, &peak, "gauge", &series.name);
                let _ = writeln!(out, "{peak} {}", number(series.peak().unwrap_or(0.0)));
            }
        }
    }
    out
}

/// Writes the exposition to `path` atomically (sibling tmp file, then
/// rename) — the discipline every exporter in this crate shares, and
/// what makes the file safe for a textfile-collector scrape loop.
///
/// # Errors
///
/// [`TraceWriteError`] when the tmp file cannot be written or renamed.
pub fn write_prometheus(snapshot: &TelemetrySnapshot, path: &Path) -> Result<(), TraceWriteError> {
    let contents = render_prometheus(snapshot);
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "metrics".to_string());
    let tmp = path.with_file_name(format!(".{file_name}.tmp"));
    let err = |p: &Path, e: &std::io::Error| TraceWriteError {
        path: p.to_path_buf(),
        error: e.to_string(),
    };
    std::fs::write(&tmp, &contents).map_err(|e| err(&tmp, &e))?;
    std::fs::rename(&tmp, path).map_err(|e| err(path, &e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SeriesKind;
    use crate::{Reporter, Telemetry};
    use std::time::Duration;

    #[test]
    fn the_registry_alone_renders_the_same_exposition() {
        let telemetry = Telemetry::recording();
        telemetry.counter("service.bundles_submitted").add(3);
        telemetry.gauge("pool.workers_busy").set(2);
        telemetry.sketch("latency_ms").observe(4.0);
        let mut scope = telemetry.timeline_scope();
        scope.record("ingest", "review_bundle", || ());
        scope.event("ingest", "quarantine");
        drop(scope);
        let full = telemetry.snapshot();
        assert!(!full.spans.is_empty() && !full.events.is_empty());
        assert_eq!(render_prometheus(&telemetry.metrics_snapshot()), render_prometheus(&full));
    }

    #[test]
    fn sanitize_restricts_the_charset() {
        assert_eq!(sanitize("ingest.bundles_reviewed"), "ingest_bundles_reviewed");
        assert_eq!(sanitize("loadgen latency-ms"), "loadgen_latency_ms");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize(""), "_");
    }

    #[test]
    fn counters_and_gauges_render_canonically() {
        let telemetry = Telemetry::recording();
        telemetry.counter("ingest.bundles_reviewed").add(42);
        telemetry.gauge("pool.workers").set(8);
        let text = render_prometheus(&telemetry.snapshot());
        assert!(text.contains("# TYPE ingest_bundles_reviewed_total counter\n"));
        assert!(text.contains("ingest_bundles_reviewed_total 42\n"));
        assert!(text.contains(
            "# HELP ingest_bundles_reviewed_total mlperf counter `ingest.bundles_reviewed`.\n"
        ));
        assert!(text.contains("# TYPE pool_workers gauge\n"));
        assert!(text.contains("pool_workers 8\n"));
    }

    #[test]
    fn sketches_render_as_summaries() {
        let telemetry = Telemetry::recording();
        let sketch = telemetry.sketch("loadgen.latency_ms");
        for i in 1..=100 {
            sketch.observe(i as f64);
        }
        let text = render_prometheus(&telemetry.snapshot());
        assert!(text.contains("# TYPE loadgen_latency_ms summary\n"));
        assert!(text.contains("loadgen_latency_ms{quantile=\"0.5\"}"));
        assert!(text.contains("loadgen_latency_ms{quantile=\"0.99\"}"));
        assert!(text.contains("loadgen_latency_ms_count 100\n"));
    }

    #[test]
    fn counter_series_export_their_mean_rate() {
        let telemetry = Telemetry::recording();
        let counter = telemetry.counter("ingest.bundles");
        let mut reporter = Reporter::new(Duration::from_secs(1));
        reporter.track_counter(&telemetry, "ingest.bundles", counter.clone());
        reporter.tick(Duration::from_secs(0));
        counter.add(500);
        reporter.tick(Duration::from_secs(2));
        let text = render_prometheus(&telemetry.snapshot());
        assert!(text.contains("# TYPE ingest_bundles_per_sec gauge\n"));
        assert!(text.contains("ingest_bundles_per_sec 250\n"), "text: {text}");
    }

    #[test]
    fn gauge_series_export_last_and_peak() {
        let telemetry = Telemetry::recording();
        let series = telemetry.time_series("pool.workers_busy", SeriesKind::Gauge);
        series.push(Duration::from_secs(1), 6.0);
        series.push(Duration::from_secs(2), 2.0);
        let text = render_prometheus(&telemetry.snapshot());
        assert!(text.contains("pool_workers_busy 2\n"));
        assert!(text.contains("pool_workers_busy_peak 6\n"));
    }

    #[test]
    fn empty_snapshot_renders_empty_exposition() {
        assert_eq!(render_prometheus(&Telemetry::disabled().snapshot()), "");
    }

    #[test]
    fn write_prometheus_lands_atomically() {
        let dir =
            std::env::temp_dir().join(format!("mlperf-telemetry-prom-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.prom");
        let telemetry = Telemetry::recording();
        telemetry.counter("c").incr();
        let snapshot = telemetry.snapshot();
        write_prometheus(&snapshot, &path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), render_prometheus(&snapshot));
        assert!(!dir.join(".metrics.prom.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
