//! Collapsed-stack flamegraph export folded from completed span trees.
//!
//! [`write_collapsed`] walks every recorded span, reconstructs its
//! ancestry through the `parent` links, and emits one line per unique
//! stack in the "folded"/"collapsed" format `flamegraph.pl` and
//! `inferno-flamegraph` consume:
//!
//! ```text
//! harness:run;tensor:gemm 1523
//! ```
//!
//! Frames are `layer:name` joined with `;`, and the trailing count is
//! the stack's **self time** in microseconds — each span's duration
//! minus the duration of its children, clamped at zero (concurrent
//! children recorded under one parent can overlap it). Identical
//! stacks aggregate, and stacks are emitted in lexicographic order so
//! the output is deterministic for a given snapshot.

use crate::snapshot::TelemetrySnapshot;
use crate::span::SpanRecord;
use crate::trace::TraceWriteError;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;

/// A frame label safe for the folded format: `;` separates frames and
/// the last space separates the count, so both (and control
/// characters) are replaced with `_`.
fn frame(span: &SpanRecord) -> String {
    let raw = format!("{}:{}", span.layer, span.name);
    raw.chars().map(|c| if c == ';' || c == ' ' || c.is_control() { '_' } else { c }).collect()
}

/// Folds the snapshot's spans into collapsed-stack lines (see module
/// docs). Spans with zero self time contribute no line of their own —
/// their time is entirely attributed to their children — so the output
/// always parses as `stack;frames count` with positive counts.
pub(crate) fn render_collapsed(snapshot: &TelemetrySnapshot) -> String {
    let by_id: HashMap<u64, &SpanRecord> = snapshot.spans.iter().map(|s| (s.id, s)).collect();
    let mut child_time: HashMap<u64, u64> = HashMap::new();
    for span in &snapshot.spans {
        if let Some(parent) = span.parent {
            *child_time.entry(parent).or_insert(0) += span.duration_us();
        }
    }
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for span in &snapshot.spans {
        let self_us =
            span.duration_us().saturating_sub(child_time.get(&span.id).copied().unwrap_or(0));
        if self_us == 0 {
            continue;
        }
        let mut frames = vec![frame(span)];
        let mut current = span;
        // Parent ids are always allocated before their children's, so a
        // well-formed snapshot can't cycle; the depth cap contains a
        // corrupted one.
        for _ in 0..128 {
            let Some(parent) = current.parent.and_then(|id| by_id.get(&id)) else {
                break;
            };
            frames.push(frame(parent));
            current = parent;
        }
        frames.reverse();
        *stacks.entry(frames.join(";")).or_insert(0) += self_us;
    }
    let mut out = String::new();
    for (stack, count) in stacks {
        let _ = writeln!(out, "{stack} {count}");
    }
    out
}

/// Writes the collapsed-stack profile to `path` atomically (sibling
/// tmp file, then rename).
///
/// # Errors
///
/// [`TraceWriteError`] when the tmp file cannot be written or renamed.
pub fn write_collapsed(snapshot: &TelemetrySnapshot, path: &Path) -> Result<(), TraceWriteError> {
    let contents = render_collapsed(snapshot);
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "flame".to_string());
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
    use crate::clock::Clock;
    use crate::Telemetry;
    use std::cell::Cell;
    use std::time::Duration;

    /// A hand-cranked test clock so span durations are exact.
    #[derive(Debug)]
    struct StepClock(Cell<u64>);

    impl Clock for StepClock {
        fn now(&self) -> Duration {
            Duration::from_micros(self.0.get())
        }
    }

    fn at(clock: &StepClock, us: u64) {
        clock.0.set(us);
    }

    #[test]
    fn self_time_excludes_children_and_stacks_aggregate() {
        let telemetry = Telemetry::recording();
        let clock = StepClock(Cell::new(0));
        let mut scope = telemetry.scope(&clock);
        let run = scope.start("harness", "run");
        at(&clock, 100);
        let gemm = scope.start("tensor", "gemm");
        at(&clock, 400);
        scope.end(gemm);
        let gemm = scope.start("tensor", "gemm");
        at(&clock, 600);
        scope.end(gemm);
        at(&clock, 1000);
        scope.end(run);

        let text = render_collapsed(&telemetry.snapshot());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "harness:run 500",             // 1000 total − 500 in children
                "harness:run;tensor:gemm 500", // 300 + 200, aggregated
            ]
        );
    }

    #[test]
    fn lines_parse_as_stack_and_positive_count() {
        let telemetry = Telemetry::recording();
        let clock = StepClock(Cell::new(0));
        let mut scope = telemetry.scope(&clock);
        let outer = scope.start("a", "outer name"); // space gets sanitized
        at(&clock, 10);
        let inner = scope.start("b", "in;ner");
        at(&clock, 30);
        scope.end(inner);
        scope.end(outer);
        let text = render_collapsed(&telemetry.snapshot());
        for line in text.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("space separates the count");
            assert!(!stack.is_empty());
            assert!(count.parse::<u64>().expect("count is an integer") > 0);
            for f in stack.split(';') {
                assert!(!f.is_empty());
                assert!(!f.contains(' '), "frames carry no spaces: {f}");
            }
        }
        assert!(text.contains("a:outer_name;b:in_ner 20\n"));
    }

    #[test]
    fn zero_self_time_spans_are_folded_into_children() {
        let telemetry = Telemetry::recording();
        let clock = StepClock(Cell::new(0));
        let mut scope = telemetry.scope(&clock);
        let outer = scope.start("x", "wrapper");
        let inner = scope.start("x", "work");
        at(&clock, 50);
        scope.end(inner);
        scope.end(outer); // wrapper's entire duration is inside `work`
        let text = render_collapsed(&telemetry.snapshot());
        assert_eq!(text, "x:wrapper;x:work 50\n");
    }

    #[test]
    fn empty_snapshot_renders_empty_profile() {
        assert_eq!(render_collapsed(&Telemetry::disabled().snapshot()), "");
    }

    #[test]
    fn write_collapsed_lands_atomically() {
        let dir =
            std::env::temp_dir().join(format!("mlperf-telemetry-flame-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.folded");
        let telemetry = Telemetry::recording();
        let clock = StepClock(Cell::new(0));
        let mut scope = telemetry.scope(&clock);
        let span = scope.start("t", "s");
        at(&clock, 5);
        scope.end(span);
        let snapshot = telemetry.snapshot();
        write_collapsed(&snapshot, &path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), render_collapsed(&snapshot));
        assert!(!dir.join(".profile.folded.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
