//! `bench compare <a.json> <b.json>`: the choosing-metrics rule applied
//! to two run sets, one row per (end-to-end metric, workload).
//!
//! `a` is the parent, `b` the change (or a second set of the same
//! commit, for the self-agreement check). Verdicts:
//!
//! - `unresolved` — the spread of either side is wider than the bound,
//!   unless every run of one side beats every run of the other;
//! - `regressed` — otherwise, when `b`'s median is worse than `a`'s by
//!   more than the metric's bound;
//! - `improved` — otherwise, when `b` wins at least nine tenths of the
//!   seed-matched pairs *and* the medians differ by more than `a`'s own
//!   quartile distance. Beating every run of `a` is not enough: two
//!   sets of one commit do that to each other when the host drifts;
//! - `within-bound` — everything else.
//!
//! Two sets are only compared when they were measured alike: same run
//! length, same scratch filesystem, same allocator settings, same core
//! count ([`incomparable`]).
//!
//! Exact-count layer rows (`count` and `B` units) are compared for
//! identity: a count that moves between two sets of one commit is not
//! exact and may not carry a claim.

use crate::schema::{self, Better, MetricDef};
use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;

/// One (metric, workload) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The workload.
    pub workload: String,
    /// The metric.
    pub metric: String,
    /// Medians of `a` and `b`.
    pub medians: (f64, f64),
    /// Quartile distance over median, of `a` and `b`.
    pub spreads: (f64, f64),
    /// Runs on each side.
    pub runs: (usize, usize),
    /// How much worse `b`'s median is than `a`'s, as a share of `a`'s
    /// (negative: better).
    pub worse_by: f64,
    /// The verdict.
    pub verdict: &'static str,
}

/// Loads one run set: `path` or `path#index` into a file's `sets`.
///
/// # Errors
///
/// When the file cannot be read or holds no such set.
pub fn load_set(spec: &str) -> Result<Value, String> {
    let (path, index) = match spec.rsplit_once('#') {
        Some((path, index)) => {
            (path, index.parse::<usize>().map_err(|_| format!("bad set index in {spec}"))?)
        }
        None => (spec, 0),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let sets = file["sets"].as_array();
    sets.and_then(|s| s.get(index))
        .cloned()
        .ok_or_else(|| format!("{path} holds no run set {index}"))
}

/// `workload → metric → (seed, value) in seed order`, over the set's
/// runs with the given trace flag.
type Values = BTreeMap<String, BTreeMap<String, Vec<(u64, f64)>>>;

fn values_of(set: &Value, trace: u64) -> Values {
    let mut runs: Vec<&Value> = set["runs"]
        .as_array()
        .map(|runs| runs.iter().filter(|r| r["trace"].as_u64() == Some(trace)).collect())
        .unwrap_or_default();
    runs.sort_by_key(|r| r["seed"].as_u64());
    let mut out = Values::new();
    for run in runs {
        let (Some(workload), Some(seed)) = (run["workload"].as_str(), run["seed"].as_u64()) else {
            continue;
        };
        let Some(metrics) = run["metrics"].as_object() else { continue };
        for (name, metric) in metrics {
            if let Some(value) = metric["value"].as_f64() {
                out.entry(workload.into())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push((seed, value));
            }
        }
    }
    out
}

fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Row {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let (ma, mb) = (stats::median(a), stats::median(b));
    // Oriented so that larger is worse.
    let sign = if def.better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = sign * (mb - ma) / ma.abs();
    let spread = |v: &[f64]| stats::relative_iqr(v).unwrap_or(0.0);
    let (sa, sb) = (spread(a), spread(b));
    let worst = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
    let best = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
    let b_always_better = worst(b) < best(a);
    let b_always_worse = best(b) > worst(a);
    let wins = a.iter().zip(b).filter(|(x, y)| sign * **y < sign * **x).count();
    let ties = a.iter().zip(b).filter(|(x, y)| x == y).count();
    let pairs = a.len().min(b.len()) - ties;
    let iqr_a = stats::quartiles(a).map_or(0.0, |[q1, _, q3]| q3 - q1);
    let clearly_better = pairs > 0 && wins * 10 >= pairs * 9 && sign * (ma - mb) > iqr_a;
    let verdict = if sa.max(sb) > bound && !b_always_better && !b_always_worse {
        "unresolved"
    } else if worse_by > bound {
        "regressed"
    } else if clearly_better {
        "improved"
    } else {
        "within-bound"
    };
    Row {
        workload: String::new(),
        metric: def.name.clone(),
        medians: (ma, mb),
        spreads: (sa, sb),
        runs: (a.len(), b.len()),
        worse_by,
        verdict,
    }
}

/// What keeps two run sets from being compared, one line per setting
/// that differs: the run length and the fingerprint fields the timings
/// depend on (on ext4 scratch the store reads 5-20 times slower than on
/// tmpfs). Empty when the sets are comparable.
pub fn incomparable(a: &Value, b: &Value) -> Vec<String> {
    let settings = |set: &Value| {
        let fingerprint = &set["fingerprint"];
        [
            ("seconds", set["seconds"].clone()),
            ("scratch_fs", fingerprint["scratch_fs"].clone()),
            ("allocator_pinned", fingerprint["allocator_pinned"].clone()),
            ("nproc", fingerprint["nproc"].clone()),
        ]
    };
    settings(a)
        .into_iter()
        .zip(settings(b))
        .filter(|((_, x), (_, y))| x != y)
        .map(|((name, x), (_, y))| format!("{name}: {x} against {y}"))
        .collect()
}

/// Compares two run sets on every (end-to-end metric, workload) pair
/// both hold.
pub fn compare_sets(a: &Value, b: &Value) -> Vec<Row> {
    let (va, vb) = (values_of(a, 0), values_of(b, 0));
    let mut rows = Vec::new();
    for (workload, _) in schema::WORKLOADS {
        for def in schema::end_to_end() {
            let side = |v: &Values| -> Option<Vec<f64>> {
                let values = v.get(workload)?.get(&def.name)?;
                Some(values.iter().map(|(_, value)| *value).collect())
            };
            if let (Some(xa), Some(xb)) = (side(&va), side(&vb)) {
                rows.push(Row { workload: workload.to_string(), ..judge(&def, &xa, &xb) });
            }
        }
    }
    rows
}

/// Exact-count layer rows that read differently in two traced runs of
/// one seed, within or between the two sets, as `workload metric:
/// a's (seed, value) pairs vs b's`. Inputs are generated from the seed,
/// so only runs of the same seed must count the same.
pub fn inexact_counts(a: &Value, b: &Value) -> Vec<String> {
    let (va, vb) = (values_of(a, 1), values_of(b, 1));
    let mut out = Vec::new();
    for def in schema::per_layer().iter().filter(|d| matches!(d.unit, "count" | "B")) {
        // Counts of whatever happened to be in flight are not exact by
        // design; they are reported, not held equal.
        if matches!(def.name.as_str(), "trace.spans" | "service.backlog_peak" | "pool.busy_peak")
            || def.name.starts_with("service.")
            || def.name.ends_with("_per_bundle")
        {
            continue;
        }
        for (workload, _) in schema::WORKLOADS {
            let side = |v: &Values| {
                v.get(workload).and_then(|m| m.get(&def.name)).cloned().unwrap_or_default()
            };
            let (xa, xb) = (side(&va), side(&vb));
            let mut by_seed: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
            for (seed, value) in xa.iter().chain(&xb) {
                by_seed.entry(*seed).or_default().push(*value);
            }
            if by_seed.values().any(|values| values.iter().any(|v| *v != values[0])) {
                out.push(format!("{workload} {}: {xa:?} vs {xb:?}", def.name));
            }
        }
    }
    out
}

/// Renders the comparison table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<15} {:<18} {:>12} {:>12} {:>8} {:>7} {:>7} {:>5}  {}\n",
        "workload", "metric", "median a", "median b", "worse", "iqr a", "iqr b", "runs", "verdict"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<15} {:<18} {:>12.4} {:>12.4} {:>+7.1}% {:>6.1}% {:>6.1}% {:>2}/{:<2}  {}\n",
            r.workload,
            r.metric,
            r.medians.0,
            r.medians.1,
            r.worse_by * 100.0,
            r.spreads.0 * 100.0,
            r.spreads.1 * 100.0,
            r.runs.0,
            r.runs.1,
            r.verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricDef {
        MetricDef { name: "t".into(), unit: "ms", better: Better::Lower, bound: Some(bound) }
    }

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| center + step * (f64::from(i) - 4.5)).collect()
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let def = lower(0.10);
        let base = around(100.0, 0.5);
        assert_eq!(judge(&def, &base, &around(100.5, 0.5)).verdict, "within-bound");
        assert_eq!(judge(&def, &base, &around(115.0, 0.5)).verdict, "regressed");
        assert_eq!(judge(&def, &base, &around(80.0, 0.5)).verdict, "improved");
        // Wide spread: a 5% shift cannot be resolved...
        let noisy = around(100.0, 6.0);
        assert_eq!(judge(&def, &noisy, &around(105.0, 6.0)).verdict, "unresolved");
        // ...unless every run of one side beats every run of the other.
        assert_eq!(judge(&def, &noisy, &around(20.0, 1.0)).verdict, "improved");
        assert_eq!(judge(&def, &noisy, &around(300.0, 1.0)).verdict, "regressed");
        // A better median that loses too many pairs is not a gain.
        let mixed: Vec<f64> =
            base.iter().enumerate().map(|(i, v)| v + if i % 3 == 0 { 1.0 } else { -3.0 }).collect();
        assert_eq!(judge(&def, &base, &mixed).verdict, "within-bound");
        // Nor is beating every run of a drifting parent by less than the
        // parent's own quartile distance: that is what a second set of
        // the same commit looks like on a host that had a slow spell.
        let drifting: Vec<f64> = (0..10).map(|i| 100.0 + 2.0 * f64::from(i)).collect();
        let calm = around(99.0, 0.2);
        assert_eq!(judge(&def, &drifting, &calm).verdict, "within-bound");
        assert_eq!(judge(&lower(0.05), &drifting, &calm).verdict, "within-bound");
    }

    #[test]
    fn exact_counts_are_held_equal_per_seed() {
        let set = |counts: [f64; 2]| {
            let run = |seed: u64, count: f64| {
                serde_json::json!({
                    "workload": "round_reingest", "seed": seed, "trace": 1,
                    "metrics": {"store.files_read": {"value": count, "unit": "count"}},
                })
            };
            serde_json::json!({"runs": [run(1, counts[0]), run(2, counts[1])]})
        };
        // Another seed is another input and may count differently...
        assert!(inexact_counts(&set([5.0, 7.0]), &set([5.0, 7.0])).is_empty());
        // ...the same seed may not.
        let differing = inexact_counts(&set([5.0, 7.0]), &set([5.0, 8.0]));
        assert_eq!(differing.len(), 1, "{differing:?}");
        assert!(differing[0].starts_with("round_reingest store.files_read"));
    }

    #[test]
    fn sets_measured_differently_are_not_comparable() {
        let set = |fs: &str, seconds: u64| {
            serde_json::json!({
                "seconds": seconds,
                "fingerprint": {"scratch_fs": fs, "allocator_pinned": true, "nproc": 2, "commit": fs},
            })
        };
        assert!(incomparable(&set("tmpfs", 20), &set("tmpfs", 20)).is_empty());
        assert_eq!(
            incomparable(&set("tmpfs", 20), &set("ext4", 30)),
            ["seconds: 20 against 30", "scratch_fs: \"tmpfs\" against \"ext4\""]
        );
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let def = MetricDef { better: Better::Higher, ..lower(0.10) };
        let base = around(1000.0, 2.0);
        let r = judge(&def, &base, &around(800.0, 2.0));
        assert_eq!(r.verdict, "regressed");
        assert!((r.worse_by - 0.2).abs() < 1e-9);
        assert_eq!(judge(&def, &base, &around(1300.0, 2.0)).verdict, "improved");
    }
}
