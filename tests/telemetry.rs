//! Integration tests for the telemetry layer at the umbrella level:
//! concurrent span emission still yields a valid tree, a disabled
//! handle records nothing, the Chrome `trace_event` file round-trips
//! through `serde_json`, and a clock-driven reporter sampling counters
//! fed by real pool workers yields time-series whose window deltas
//! telescope to the counter.

use mlperf_suite::pool::parallel_map;
use mlperf_suite::telemetry::{arg, write_trace, Reporter, Telemetry};
use serde_json::{json, Map};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

fn temp_trace(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mlperf-telemetry-it-{tag}-{}.jsonl", std::process::id()))
}

/// Four worker threads each emit spans under one shared root: the
/// snapshot must form a single tree — unique ids, every parent
/// resolvable, every child's interval inside its parent's — with each
/// worker on its own track.
#[test]
fn concurrent_span_emission_reconstructs_a_valid_tree() {
    let telemetry = Telemetry::recording();
    let mut root_scope = telemetry.timeline_scope();
    let root = root_scope.start("test", "root");
    let parent = root_scope.current();
    std::thread::scope(|s| {
        for worker in 0..4 {
            let telemetry = &telemetry;
            s.spawn(move || {
                let mut scope = telemetry.timeline_scope_under(parent);
                for i in 0..8 {
                    let span = scope.start_with("test", "work", || {
                        Map::from([arg("worker", json!(worker)), arg("item", json!(i))])
                    });
                    scope.end(span);
                }
            });
        }
    });
    root_scope.end(root);

    let snapshot = telemetry.snapshot();
    assert_eq!(snapshot.spans.len(), 1 + 4 * 8);

    let by_id: HashMap<u64, _> = snapshot.spans.iter().map(|s| (s.id, s)).collect();
    assert_eq!(by_id.len(), snapshot.spans.len(), "span ids are unique");

    let roots: Vec<_> = snapshot.spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1);
    let root_span = roots[0];
    assert_eq!(root_span.name, "root");

    let mut worker_tracks = HashSet::new();
    for span in snapshot.spans.iter().filter(|s| s.parent.is_some()) {
        let parent = by_id[&span.parent.unwrap()];
        assert_eq!(parent.id, root_span.id, "all work spans hang off the root");
        assert!(span.start_us <= span.end_us);
        assert!(
            parent.start_us <= span.start_us && span.end_us <= parent.end_us,
            "child [{}, {}] escapes parent [{}, {}]",
            span.start_us,
            span.end_us,
            parent.start_us,
            parent.end_us
        );
        worker_tracks.insert(span.track);
    }
    assert_eq!(worker_tracks.len(), 4, "one track per worker thread");
    assert!(!worker_tracks.contains(&root_span.track));
}

/// The disabled handle is inert end to end: spans, counters, gauges,
/// and sketches all record nothing and the snapshot stays empty.
#[test]
fn disabled_handle_emits_nothing() {
    let telemetry = Telemetry::disabled();
    assert!(!telemetry.is_enabled());
    let mut scope = telemetry.timeline_scope();
    let span = scope.start_with("test", "never", || panic!("args evaluated on disabled path"));
    scope.end(span);
    telemetry.counter("c").add(5);
    telemetry.gauge("g").set(5);
    telemetry.sketch("s").observe(5.0);

    let snapshot = telemetry.snapshot();
    assert!(snapshot.is_empty());
    assert!(snapshot.spans.is_empty());
    assert!(snapshot.counters.is_empty());
    assert!(snapshot.gauges.is_empty());
    assert!(snapshot.sketches.is_empty());
}

/// The trace file is JSON-lines Chrome `trace_event` data: every line
/// re-parses through `serde_json`, span lines carry the complete-event
/// fields, and counter lines carry the metric value.
#[test]
fn trace_file_round_trips_through_serde_json() {
    let telemetry = Telemetry::recording();
    let mut scope = telemetry.timeline_scope();
    let outer = scope.start_with("layer_a", "outer", || Map::from([arg("k", json!("v"))]));
    let inner = scope.start("layer_b", "inner");
    scope.end(inner);
    scope.end(outer);
    telemetry.counter("events.total").add(42);

    let path = temp_trace("roundtrip");
    write_trace(&telemetry.snapshot(), &path).unwrap();
    let text = fs::read_to_string(&path).unwrap();
    assert!(text.ends_with('\n'), "trailing newline");

    let lines: Vec<serde_json::Value> = text
        .lines()
        .map(|line| serde_json::from_str(line).expect("every line is standalone JSON"))
        .collect();
    assert_eq!(
        lines.len(),
        6,
        "process_name + thread_name for the span track and the metrics lane, \
         two spans, one counter"
    );

    let metadata: Vec<_> =
        lines.iter().filter(|v| v.get("ph").and_then(|p| p.as_str()) == Some("M")).collect();
    assert_eq!(metadata.len(), 3);
    assert!(metadata
        .iter()
        .any(|v| v.get("name").and_then(|n| n.as_str()) == Some("process_name")));
    assert_eq!(
        metadata
            .iter()
            .filter(|v| v.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
            .count(),
        2,
        "one label per track: the span track and the tid-0 metrics lane"
    );

    let spans: Vec<_> =
        lines.iter().filter(|v| v.get("ph").and_then(|p| p.as_str()) == Some("X")).collect();
    assert_eq!(spans.len(), 2);
    for span in &spans {
        assert!(span.get("name").and_then(|v| v.as_str()).is_some());
        assert!(span.get("cat").and_then(|v| v.as_str()).is_some());
        assert!(span.get("ts").and_then(|v| v.as_u64()).is_some());
        assert!(span.get("dur").and_then(|v| v.as_u64()).is_some());
        assert!(span.get("args").and_then(|v| v.as_object()).is_some());
    }
    let cats: HashSet<_> =
        spans.iter().filter_map(|v| v.get("cat").and_then(|c| c.as_str())).collect();
    assert_eq!(cats, HashSet::from(["layer_a", "layer_b"]));

    let counters: Vec<_> =
        lines.iter().filter(|v| v.get("ph").and_then(|p| p.as_str()) == Some("C")).collect();
    assert_eq!(counters.len(), 1);
    let args = counters[0].get("args").and_then(|v| v.as_object()).unwrap();
    assert_eq!(args.get("value").and_then(|v| v.as_u64()), Some(42));
    fs::remove_file(&path).unwrap();
}

/// A reporter ticking on synthetic timestamps while real pool workers
/// bump the tracked counter: because counter series store cumulative
/// readings, the per-window deltas must telescope to exactly the final
/// counter value — no work is lost between windows, whatever the
/// thread interleaving.
#[test]
fn reporter_windows_telescope_to_pool_counter_totals() {
    let telemetry = Telemetry::recording();
    let mut reporter = Reporter::new(Duration::from_millis(10));
    reporter.track_counter(&telemetry, "work.items", telemetry.counter("work.items"));
    // Baseline sample before any work, so the first window opens at 0.
    assert!(reporter.maybe_tick(Duration::ZERO));

    let items: Vec<u64> = (0..64).collect();
    let rounds = 5u64;
    for round in 1..=rounds {
        // Fan the batch out across the worker pool; each worker bumps
        // the shared counter once per item, racing the next tick.
        let results = parallel_map(&items, |&i| {
            telemetry.counter("work.items").incr();
            i + 1
        });
        assert_eq!(results.len(), items.len());
        // The driving thread owns the reporter; workers only touch the
        // counter. One tick per completed batch closes one window.
        reporter.tick(Duration::from_millis(10 * round));
    }

    let snapshot = telemetry.snapshot();
    let series = snapshot
        .series
        .iter()
        .find(|s| s.name == "work.items")
        .expect("tracked counter has a time-series");
    assert_eq!(series.dropped, 0, "nothing fell out of the ring");
    assert_eq!(series.samples.first().map(|s| s.value), Some(0.0), "baseline sampled before work");

    let total: f64 = series.windows().iter().map(|w| w.delta).sum();
    let expected = (rounds * items.len() as u64) as f64;
    assert_eq!(total, expected, "window deltas telescope to the counter total");
    let counter = snapshot.counters.iter().find(|c| c.name == "work.items").unwrap();
    assert_eq!(counter.value as f64, total);
}
