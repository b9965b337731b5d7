//! The benchmark's contract in one place: the four workloads, every
//! end-to-end metric with its unit, direction and bound, and every
//! layer-table row. `BENCHMARK.json` at the repository root is this
//! module rendered (`bench schema`), and a test holds the two equal.

use serde_json::{json, Map, Value};

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// The latency limit on a live submit (highest supported percentile,
/// from due time) behind `service.slo_rate_per_s` and the
/// `*_over_limit` rows.
pub const SUBMIT_LIMIT_MS: f64 = 20.0;

/// The four workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "train_seq",
        "gnmt, transformer, bert, rnnt, ncf trained to target: thousands of tiny nodes, so autograd per-node cost, fused nodes and small-GEMM dispatch do the work and conv none",
    ),
    (
        "train_conv",
        "resnet, ssd, maskrcnn trained to target: im2col/conv2d and large GEMM do the work and per-node overhead little; a tape rewrite should barely move it",
    ),
    (
        "round_reingest",
        "re-publish a 3-round, 11k-bundle archive from disk: line scanners, store walk and pool fan-out do the work, bulk reads, no HTTP and no locking",
    ),
    (
        "service_live",
        "real TCP submits and board reads, closed loop then Poisson arrivals at 100/200/400 per s: per-bundle review, small writes under a lock, serde on the wire",
    ),
];

/// The two tensor backends, in label form.
pub const BACKENDS: [&str; 2] = ["blocked", "reference"];

/// Every trainable benchmark either training workload runs.
pub const TRAIN_SLUGS: [&str; 8] =
    ["gnmt", "transformer", "bert", "rnnt", "ncf", "resnet", "ssd", "maskrcnn"];

/// Whether a smaller or a larger value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name: `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// For end-to-end metrics, the share of the parent's median by
    /// which the metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name: name.into(), unit, better, bound: None }
}

/// The end-to-end metrics. Every workload reports every one of them;
/// what a *job* is differs per workload and is stated in the README:
/// a training pass over the workload's model list, one re-publish of
/// the archive, one live submit. `job_p50_ms` times the program's
/// default path alone (Reference kernels, batch `replay`, canonical log
/// lines). `jobs_per_s` is throughput over every path an untraced run
/// takes: batch and streaming re-publishes alike, and the live mix with
/// its serde-fallback submits and its board and status reads, so a
/// change that costs only those still shows end to end. Training is
/// the exception: Blocked kernels cannot be timed repeatably on a
/// two-core host (README), so untraced runs train on Reference only.
/// The alternative path's own job time is a layer row,
/// `trace.alt_job_ms`.
pub fn end_to_end() -> Vec<MetricDef> {
    let e2e = |name: &str, unit, better, bound| MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    };
    vec![
        e2e("job_p50_ms", "ms", Better::Lower, 0.25),
        e2e("jobs_per_s", "1/s", Better::Higher, 0.25),
        e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
        e2e("setup_s", "s", Better::Lower, 0.25),
    ]
}

/// The layer table. Rows in a time unit are probes every traced run
/// measures, whatever the workload; rows in `%`, `ratio`, `count`, `B`,
/// `MB` and `1/s` describe the traced workload itself and read zero on
/// a workload that never enters that layer.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut rows = vec![
        // The traced job against the same job untraced, in one process.
        def("trace.job_ms", "ms", Lower),
        def("trace.untraced_job_ms", "ms", Lower),
        def("trace.alt_job_ms", "ms", Lower),
        def("trace.job_tail_ms", "ms", Lower),
        def("trace.overhead_pct", "%", Lower),
        def("trace.unattributed_pct", "%", Lower),
        def("trace.spans", "count", Lower),
    ];
    // Shares of the traced jobs of both paths; with
    // `trace.unattributed_pct` they sum to 100.
    for name in [
        "share.harness.train_epoch",
        "share.harness.evaluate",
        "share.store.stream_review",
        "share.store.read_round",
        "share.round.run_round",
        "share.store.write_outcome",
        "share.leaderboard.build",
        "share.report.render",
        "share.tables.render",
        "share.wire.deserialize",
        "share.review.bundle",
        "share.store.write_bundle",
        "share.round.push_reviewed",
        "share.service.http",
    ] {
        rows.push(def(name, "%", Lower));
    }
    // core::harness, by model: each model's share of its backend's pass.
    for slug in TRAIN_SLUGS {
        for backend in BACKENDS {
            rows.push(def(format!("harness.ttt_share.{slug}.{backend}"), "%", Lower));
        }
    }
    for slug in TRAIN_SLUGS {
        rows.push(def(format!("harness.epochs.{slug}"), "count", Lower));
    }
    // tensor: exact dispatch counts over one Blocked pass.
    for name in [
        "tensor.gemm_reference_calls",
        "tensor.gemm_direct_calls",
        "tensor.gemm_packed_calls",
        "tensor.gemm_fanouts",
    ] {
        rows.push(def(name, "count", Lower));
    }
    rows.push(def("tensor.packed_bytes", "B", Lower));
    // submission::store and review, exact over one re-publish.
    for name in ["store.files_read", "store.files_written"] {
        rows.push(def(name, "count", Lower));
    }
    for name in ["store.bytes_read", "store.bytes_written"] {
        rows.push(def(name, "B", Lower));
    }
    rows.push(def("reingest.accepted", "count", Higher));
    rows.push(def("reingest.quarantined", "count", Lower));
    rows.push(def("pool.busy_peak", "count", Higher));
    // service, from the live phases.
    for name in ["service.connections_opened", "service.non2xx", "service.backlog_peak"] {
        rows.push(def(name, "count", Lower));
    }
    rows.push(def("store.files_written_per_bundle", "count", Lower));
    rows.push(def("store.bytes_written_per_bundle", "B", Lower));
    for rate in ["r100", "r200", "r400"] {
        rows.push(def(format!("service.p99_over_limit.{rate}"), "ratio", Lower));
    }
    rows.push(def("service.board_p90_over_limit", "ratio", Lower));
    rows.push(def("service.slo_rate_per_s", "1/s", Higher));
    rows.push(def("gen.late_ops_pct", "%", Lower));

    // Probes: one layer's public functions, timed from outside.
    for name in ["tensor.matmul_small_us", "tensor.matmul_large_us", "tensor.conv2d_us"] {
        for backend in BACKENDS {
            rows.push(def(format!("{name}.{backend}"), "us", Lower));
        }
    }
    rows.push(def("pool.fanout_us", "us", Lower));
    for backend in BACKENDS {
        rows.push(def(format!("autograd.node_ns.{backend}"), "ns", Lower));
    }
    for name in ["nn.layernorm_us", "nn.attention_us"] {
        for backend in BACKENDS {
            rows.push(def(format!("{name}.{backend}"), "us", Lower));
        }
    }
    rows.push(def("optim.adam_step_us", "us", Lower));
    rows.push(def("optim.sgd_step_us", "us", Lower));
    for phase in ["forward", "backward", "optimizer"] {
        for list in ["seq", "conv"] {
            for backend in BACKENDS {
                rows.push(def(format!("step.{phase}_us.{list}.{backend}"), "us", Lower));
            }
        }
    }
    for (name, unit) in [
        ("harness.prepare_ms", "ms"),
        ("harness.create_model_ms", "ms"),
        ("mllog.render_us_per_log", "us"),
        ("mllog.validate_ns_per_line", "ns"),
        ("mllog.parse_ns_per_line", "ns"),
        ("mllog.parse_serde_ns_per_line", "ns"),
        ("manifest.parse_us", "us"),
        ("manifest.parse_serde_us", "us"),
        ("store.read_round_ms", "ms"),
        ("store.stream_round_ms", "ms"),
        ("store.write_round_ms", "ms"),
        ("store.write_outcome_ms", "ms"),
        ("store.write_bundle_us", "us"),
        ("review.bundle_us", "us"),
        ("round.run_round_ms", "ms"),
        ("round.stream_review_ms", "ms"),
        ("round.push_reviewed_us", "us"),
        ("leaderboard.build_ms", "ms"),
        ("report.render_ms", "ms"),
        ("tables.render_ms", "ms"),
        ("wire.deserialize_us", "us"),
        ("service.submit_core_us", "us"),
        ("service.http_submit_us", "us"),
        ("service.connect_us", "us"),
        ("service.leaderboard_cold_us", "us"),
        ("service.leaderboard_cached_us", "us"),
        ("service.status_us", "us"),
        ("service.close_round_ms", "ms"),
    ] {
        rows.push(def(name, unit, Lower));
    }
    rows.push(def("telemetry.recording_overhead_pct", "%", Lower));
    rows
}

/// Whether a unit measures time: such rows must be measured, never
/// defaulted, in every run that reports them.
pub fn is_time_unit(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns")
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let metric = |m: &MetricDef| {
        let mut row = Map::new();
        row.insert("name".to_string(), json!(m.name));
        row.insert("unit".to_string(), json!(m.unit));
        row.insert("better".to_string(), json!(m.better.label()));
        if let Some(bound) = m.bound {
            row.insert("bound".to_string(), json!(bound));
        }
        Value::Object(row)
    };
    let value = json!({
        "command": [
            "cargo", "run", "--release", "--offline", "--quiet",
            "--manifest-path", "benchmark/Cargo.toml", "--",
        ],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS
            .iter()
            .map(|(name, why)| json!({"name": name, "why": why}))
            .collect::<Vec<Value>>(),
        "end_to_end": end_to_end().iter().map(metric).collect::<Vec<Value>>(),
        "per_layer": per_layer().iter().map(metric).collect::<Vec<Value>>(),
    });
    let mut text = serde_json::to_string_pretty(&value).expect("the schema serializes");
    text.push('\n');
    text
}

/// Whether `name` fits the contract's charset and length.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` fits the contract's charset and length.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn declared_metrics_fit_the_contract() {
        let e2e = end_to_end();
        let layer = per_layer();
        assert!((1..=16).contains(&e2e.len()), "{} end-to-end metrics", e2e.len());
        assert!((1..=128).contains(&layer.len()), "{} layer metrics", layer.len());
        let mut seen = BTreeSet::new();
        for m in e2e.iter().chain(&layer) {
            assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(seen.insert(m.name.clone()), "{} declared twice", m.name);
        }
        for m in &e2e {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(e2e.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(layer.iter().all(|m| m.bound.is_none()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        for (name, why) in WORKLOADS {
            assert!(valid_name(name));
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why is {} chars", why.len());
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn the_committed_benchmark_json_is_this_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json(), "regenerate with `bench schema > BENCHMARK.json`");
        assert!(committed.len() <= 64 * 1024);
    }
}
