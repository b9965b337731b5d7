//! `bench sweep`: runs every workload over ten seeds, one child process
//! per run exactly as the acceptance driver does, and appends the
//! results to a file as one run set — the input `bench compare` takes,
//! and the format of `results/BENCH_<pr>.json`.

use crate::{schema, Workload};
use serde_json::{json, Value};
use std::path::Path;
use std::process::{Command, Stdio};

/// What a sweep runs. Not a command-line choice: two sets are only
/// comparable when they were measured alike, so `bench sweep` always
/// runs [`Plan::ACCEPTANCE`]; the smoke test runs a smaller one.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Untraced runs per workload, seeds `1..=seeds`.
    pub seeds: u64,
    /// Traced runs per workload, seeds from 1 again.
    pub traced: u64,
    /// `--seconds` of every run.
    pub seconds: u64,
    /// `--size` of every run.
    pub size: &'static str,
}

impl Plan {
    /// Ten seeds, as the acceptance check takes its quartiles over ten
    /// runs; three traced runs, so that the layer rows an end-to-end
    /// candidate was demoted to (`trace.alt_job_ms`, `trace.job_tail_ms`)
    /// show how far they move between processes.
    pub const ACCEPTANCE: Plan =
        Plan { seeds: 10, traced: 3, seconds: schema::RUN_SECONDS, size: "full" };
}

/// Runs one child and returns its fingerprint and its record: the
/// child's final JSON line with the workload, seed and trace flag added.
fn run_child(
    plan: &Plan,
    exe: &Path,
    workload: Workload,
    seed: u64,
    trace: u64,
) -> Result<(Value, Value), String> {
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .args(["--size", plan.size])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let fingerprint = stdout
        .lines()
        .find_map(|line| line.strip_prefix("fingerprint "))
        .ok_or("the run printed no fingerprint")?;
    let fingerprint = serde_json::from_str(fingerprint).map_err(|e| format!("fingerprint: {e}"))?;
    let last = stdout.lines().last().ok_or("the run printed nothing")?;
    let mut record: Value = serde_json::from_str(last).map_err(|e| format!("last line: {e}"))?;
    let Value::Object(map) = &mut record else { return Err("last line is not an object".into()) };
    map.insert("workload".into(), json!(workload.name()));
    map.insert("seed".into(), json!(seed));
    map.insert("trace".into(), json!(trace));
    map.insert("exit_code".into(), json!(output.status.code()));
    Ok((fingerprint, record))
}

/// Runs `plan` with the bench binary `exe` and appends its set, named
/// `label`, to `out` (created if absent). The set's fingerprint is the
/// first run's.
///
/// # Errors
///
/// When a child cannot be started, prints no result, or `out` cannot be
/// read or written.
pub fn sweep(plan: &Plan, exe: &Path, label: &str, out: &Path) -> Result<(), String> {
    let mut runs = Vec::new();
    let mut fingerprint = Value::Null;
    for workload in Workload::ALL {
        for (trace, count) in [(0, plan.seeds), (1, plan.traced)] {
            for seed in 1..=count {
                eprintln!("sweep: {} seed {seed} trace {trace}", workload.name());
                let (of_run, record) = run_child(plan, exe, workload, seed, trace)?;
                if runs.is_empty() {
                    fingerprint = of_run;
                }
                runs.push(record);
            }
        }
    }
    let mut sets: Vec<Value> = match std::fs::read_to_string(out) {
        Ok(text) => {
            let file: Value =
                serde_json::from_str(&text).map_err(|e| format!("{}: {e}", out.display()))?;
            let sets = file["sets"].as_array().cloned();
            sets.ok_or_else(|| format!("{} holds no `sets` array", out.display()))?
        }
        Err(_) => Vec::new(),
    };
    sets.push(json!({
        "label": label,
        "seconds": plan.seconds,
        "fingerprint": fingerprint,
        "runs": runs,
    }));
    std::fs::write(out, render(&sets)).map_err(|e| format!("{}: {e}", out.display()))
}

/// The result file as text: one line per run, so that a set of some
/// fifty runs stays readable and diffs run by run.
fn render(sets: &[Value]) -> String {
    let mut text = String::from("{\"sets\": [\n");
    for (i, set) in sets.iter().enumerate() {
        text.push_str(&format!(
            "{{\"label\": {}, \"seconds\": {}, \"fingerprint\": {}, \"runs\": [\n",
            set["label"], set["seconds"], set["fingerprint"]
        ));
        let runs = set["runs"].as_array().map_or(&[][..], Vec::as_slice);
        let lines: Vec<String> = runs.iter().map(Value::to_string).collect();
        text.push_str(&lines.join(",\n"));
        text.push_str(if i + 1 < sets.len() { "\n]},\n" } else { "\n]}\n" });
    }
    text.push_str("]}\n");
    text
}
