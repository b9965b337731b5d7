//! Chrome `trace_event` export: one JSON object per line.
//!
//! Every span becomes a complete (`"ph": "X"`) event and every counter
//! and gauge a counter (`"ph": "C"`) event, so the file loads directly in
//! `chrome://tracing` / Perfetto (both accept concatenated JSON
//! events) while staying trivially greppable and parseable line by
//! line. The file is written atomically — tmp file then rename — the
//! same discipline the round archive uses for its manifests, so a
//! crashed writer never leaves a truncated trace next to the archive.

use crate::snapshot::TelemetrySnapshot;
use serde_json::{json, Value};
use std::fmt;
use std::path::{Path, PathBuf};

/// Why a trace file could not be written.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceWriteError {
    /// The path being written.
    pub path: PathBuf,
    /// The OS error text.
    pub error: String,
}

impl fmt::Display for TraceWriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.error)
    }
}

impl std::error::Error for TraceWriteError {}

/// The Chrome `trace_event` objects for a snapshot: metadata
/// (`"ph": "M"`) events naming the process and every span track, then
/// one complete-span event per span (chronological), one instant
/// (`"ph": "i"`) event per recorded [`crate::EventRecord`], then one
/// counter event per counter and gauge. The metadata makes `chrome://tracing` /
/// Perfetto label lanes with the emitting layer instead of bare track
/// ids.
pub fn trace_events(snapshot: &TelemetrySnapshot) -> Vec<Value> {
    let mut events = Vec::new();
    if !snapshot.is_empty() {
        events.push(json!({
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "ts": 0,
            "args": {"name": "mlperf-suite"},
        }));
        // One thread_name per track, labeled with the first layer seen
        // there (snapshot order = start order, so "first" is stable).
        let mut tracks: std::collections::BTreeMap<u64, &str> = std::collections::BTreeMap::new();
        for span in &snapshot.spans {
            tracks.entry(span.track).or_insert(span.layer);
        }
        for event in &snapshot.events {
            tracks.entry(event.track).or_insert(event.layer);
        }
        let has_metrics = !snapshot.counters.is_empty() || !snapshot.gauges.is_empty();
        if has_metrics {
            tracks.entry(0).or_insert("metrics");
        }
        for (track, layer) in tracks {
            let label =
                if track == 0 { layer.to_string() } else { format!("{layer} (track {track})") };
            events.push(json!({
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": track,
                "ts": 0,
                "args": {"name": label},
            }));
        }
    }
    let last_ts = snapshot
        .spans
        .iter()
        .map(|s| s.end_us)
        .chain(snapshot.events.iter().map(|e| e.ts_us))
        .max()
        .unwrap_or(0);
    for span in &snapshot.spans {
        let mut args = span.args.clone();
        args.insert("span_id".to_string(), json!(span.id));
        if let Some(parent) = span.parent {
            args.insert("parent_id".to_string(), json!(parent));
        }
        events.push(json!({
            "name": span.name,
            "cat": span.layer,
            "ph": "X",
            "pid": 1,
            "tid": span.track,
            "ts": span.start_us,
            "dur": span.duration_us(),
            "args": Value::Object(args),
        }));
    }
    for instant in &snapshot.events {
        let mut args = instant.args.clone();
        args.insert("event_id".to_string(), json!(instant.id));
        if let Some(parent) = instant.parent {
            args.insert("parent_id".to_string(), json!(parent));
        }
        events.push(json!({
            "name": instant.name,
            "cat": instant.layer,
            "ph": "i",
            // Thread scope: the tick renders on the emitting track only.
            "s": "t",
            "pid": 1,
            "tid": instant.track,
            "ts": instant.ts_us,
            "args": Value::Object(args),
        }));
    }
    for counter in &snapshot.counters {
        events.push(json!({
            "name": counter.name,
            "cat": "metric",
            "ph": "C",
            "pid": 1,
            "tid": 0,
            "ts": last_ts,
            "args": {"value": counter.value},
        }));
    }
    for gauge in &snapshot.gauges {
        events.push(json!({
            "name": gauge.name,
            "cat": "metric",
            "ph": "C",
            "pid": 1,
            "tid": 0,
            "ts": last_ts,
            "args": {"value": gauge.value},
        }));
    }
    events
}

/// Renders a snapshot as JSON-lines trace text (one event per line,
/// trailing newline when non-empty).
pub fn render_trace(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for event in trace_events(snapshot) {
        out.push_str(&serde_json::to_string(&event).expect("trace events serialize"));
        out.push('\n');
    }
    out
}

/// Writes the snapshot's trace to `path` atomically (sibling tmp file,
/// then rename), so readers never observe a half-written trace.
///
/// # Errors
///
/// [`TraceWriteError`] when the tmp file cannot be written or renamed.
pub fn write_trace(snapshot: &TelemetrySnapshot, path: &Path) -> Result<(), TraceWriteError> {
    let contents = render_trace(snapshot);
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "trace".to_string());
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
    use crate::clock::MonotonicClock;
    use crate::Telemetry;

    fn sample_snapshot() -> TelemetrySnapshot {
        let telemetry = Telemetry::recording();
        let clock = MonotonicClock::new();
        let mut scope = telemetry.scope(&clock);
        let outer = scope.start("test", "outer");
        let inner = scope.start("test", "inner");
        scope.end(inner);
        scope.end(outer);
        telemetry.counter("events").add(2);
        telemetry.gauge("workers").set(4);
        telemetry.snapshot()
    }

    #[test]
    fn events_carry_chrome_trace_fields() {
        let events = trace_events(&sample_snapshot());
        // process_name + span-track thread_name + metrics thread_name,
        // then two spans and two metrics.
        assert_eq!(events.len(), 3 + 2 + 2);
        for event in &events {
            assert!(event.get("name").is_some());
            assert!(event.get("ph").is_some());
            assert!(event.get("ts").is_some());
            assert_eq!(event["pid"], json!(1));
        }
        let span = events.iter().find(|e| e["ph"] == json!("X")).unwrap();
        assert!(span.get("dur").is_some());
        let counter = events.iter().find(|e| e["name"] == json!("events")).unwrap();
        assert_eq!(counter["ph"], json!("C"));
        assert_eq!(counter["args"]["value"], json!(2));
    }

    #[test]
    fn metadata_events_label_process_and_tracks() {
        let events = trace_events(&sample_snapshot());
        assert_eq!(events[0]["name"], json!("process_name"));
        assert_eq!(events[0]["ph"], json!("M"));
        assert_eq!(events[0]["args"]["name"], json!("mlperf-suite"));
        let span = events.iter().find(|e| e["ph"] == json!("X")).unwrap();
        let lane = events
            .iter()
            .find(|e| e["name"] == json!("thread_name") && e["tid"] == span["tid"])
            .expect("the span's track is labeled");
        assert_eq!(lane["ph"], json!("M"));
        let label = lane["args"]["name"].as_str().unwrap();
        assert!(label.starts_with("test"), "lane named after the layer: {label}");
        let metrics_lane = events
            .iter()
            .find(|e| e["name"] == json!("thread_name") && e["tid"] == json!(0))
            .expect("the metrics lane is labeled");
        assert_eq!(metrics_lane["args"]["name"], json!("metrics"));
    }

    #[test]
    fn child_events_name_their_parent() {
        let events = trace_events(&sample_snapshot());
        let inner = events.iter().find(|e| e["name"] == json!("inner")).unwrap();
        let outer = events.iter().find(|e| e["name"] == json!("outer")).unwrap();
        assert_eq!(inner["args"]["parent_id"], outer["args"]["span_id"]);
        assert!(outer["args"].get("parent_id").is_none());
    }

    #[test]
    fn rendered_trace_is_valid_json_lines() {
        let text = render_trace(&sample_snapshot());
        assert!(text.ends_with('\n'));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7, "3 metadata + 2 spans + 2 metrics");
        for line in lines {
            let value: Value = serde_json::from_str(line).expect("every line parses alone");
            assert!(value.as_object().is_some());
        }
    }

    #[test]
    fn write_trace_lands_atomically() {
        let dir =
            std::env::temp_dir().join(format!("mlperf-telemetry-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.trace");
        let snapshot = sample_snapshot();
        write_trace(&snapshot, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, render_trace(&snapshot));
        assert!(!dir.join(".out.trace.tmp").exists(), "tmp file renamed away");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn instant_events_render_as_chrome_instants() {
        use crate::arg;
        use serde_json::Map;
        let telemetry = Telemetry::recording();
        let clock = MonotonicClock::new();
        let mut scope = telemetry.scope(&clock);
        let review = scope.start("ingest", "review");
        scope.event_with("ingest", "quarantine", || Map::from([arg("org", json!("Borealis"))]));
        scope.end(review);

        let events = trace_events(&telemetry.snapshot());
        let instant = events.iter().find(|e| e["ph"] == json!("i")).unwrap();
        assert_eq!(instant["name"], json!("quarantine"));
        assert_eq!(instant["cat"], json!("ingest"));
        assert_eq!(instant["s"], json!("t"), "instants are thread-scoped ticks");
        assert_eq!(instant["args"]["org"], json!("Borealis"));
        let span = events.iter().find(|e| e["name"] == json!("review")).unwrap();
        assert_eq!(instant["args"]["parent_id"], span["args"]["span_id"]);
        assert_eq!(instant["tid"], span["tid"], "the tick lands on the emitting track");
    }

    #[test]
    fn empty_snapshot_renders_empty_trace() {
        assert_eq!(render_trace(&Telemetry::disabled().snapshot()), "");
    }
}
