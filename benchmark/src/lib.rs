//! The repository's benchmark.
//!
//! Four workloads ([`schema::WORKLOADS`]) each report every end-to-end
//! metric from an untraced run and the whole layer table from a traced
//! run of the same workload. Everything here drives the program under
//! test through its public functions only; spans are recorded by the
//! benchmark around those calls ([`trace`]), never inside the program.
//!
//! See `README.md` beside this crate for what each number means, who
//! it is for, and how the metrics are expected to move together.

#![warn(missing_docs)]

pub mod compare;
pub mod env;
pub mod httpc;
pub mod loadgen;
pub mod probes;
pub mod reingest;
pub mod schema;
pub mod service;
pub mod stats;
pub mod sweep;
pub mod trace;
pub mod train;

use schema::MetricDef;
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// One of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequence and recommendation models to target on both backends.
    TrainSeq,
    /// Convolutional models to target on both backends.
    TrainConv,
    /// Re-publishing an archive by streaming and by batch ingest.
    RoundReingest,
    /// The live service over real TCP.
    ServiceLive,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::TrainSeq, Workload::TrainConv, Workload::RoundReingest, Workload::ServiceLive];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        schema::WORKLOADS[self as usize].0
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. Runs are lengthened or shortened by `--seconds`, never
/// by changing these; the tiny set exists so the smoke test can drive
/// every workload end to end in seconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Size {
    /// `train_seq`'s model list.
    pub train_seq: &'static [&'static str],
    /// `train_conv`'s model list.
    pub train_conv: &'static [&'static str],
    /// Stress bundles in the archive's v0.6 round.
    pub reingest_v06: usize,
    /// Stress bundles in the archive's v0.7 round.
    pub reingest_v07: usize,
    /// Stress bundles generated for the live round.
    pub live_bundles: usize,
    /// Stress bundles in the probe suite's round.
    pub probe_bundles: usize,
    /// How many times set-up is repeated for `setup_s`'s median
    /// (training, whose set-up takes milliseconds: 17 times as often).
    pub setup_repeats: usize,
}

impl Size {
    /// The sizes every reported number is measured at.
    pub fn full() -> Size {
        Size {
            train_seq: &["gnmt", "transformer", "bert", "rnnt", "ncf"],
            train_conv: &["resnet", "ssd", "maskrcnn"],
            reingest_v06: 10_000,
            reingest_v07: 1_000,
            live_bundles: 12_000,
            probe_bundles: 1_000,
            setup_repeats: 3,
        }
    }

    /// The smoke test's sizes.
    pub fn tiny() -> Size {
        Size {
            train_seq: &["rnnt", "ncf"],
            train_conv: &["ssd"],
            reingest_v06: 60,
            reingest_v07: 20,
            live_bundles: 400,
            probe_bundles: 40,
            setup_repeats: 2,
        }
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed: every generated input and schedule is a
    /// function of it.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Untraced (end-to-end metrics) or traced (layer table).
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
}

/// What a workload hands back: the values it measured, how many
/// operations it attempted, and one line per operation or output check
/// that failed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric name → value.
    pub values: BTreeMap<String, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Why, one line each; only the first twenty are kept.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records a measured value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Records one failed operation or output check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }
}

/// The finished run, ready to print.
#[derive(Debug)]
pub struct Report {
    /// Every declared metric of the run's mode with its value, in
    /// declaration order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Operations attempted (at least 1).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Why, one line each.
    pub failures: Vec<String>,
    /// The recorded spans as a JSON array (empty when untraced).
    pub spans: Value,
}

impl Report {
    /// Whether every operation succeeded and every output check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The one-line JSON object the run ends with.
    pub fn json_line(&self) -> String {
        let mut metrics = Map::new();
        for (def, value) in &self.metrics {
            metrics.insert(def.name.clone(), json!({"value": *value, "unit": def.unit}));
        }
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
        .to_string()
    }

    /// Every metric by name with its unit, one per line.
    pub fn table(&self) -> String {
        let width = self.metrics.iter().map(|(d, _)| d.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (def, value) in &self.metrics {
            out.push_str(&format!("{:<width$}  {value:>16.6} {}\n", def.name, def.unit));
        }
        out
    }
}

/// Runs one workload once. `scratch` is an existing, empty directory
/// the run may fill; the caller removes it.
pub fn run(options: &RunOptions, scratch: &Path) -> Report {
    let mut tracer = trace::Tracer::new(options.trace);
    let mut outcome = match options.workload {
        Workload::TrainSeq => train::run(options, options.size.train_seq, &mut tracer),
        Workload::TrainConv => train::run(options, options.size.train_conv, &mut tracer),
        Workload::RoundReingest => reingest::run(options, scratch, &mut tracer),
        Workload::ServiceLive => service::run(options, scratch, &mut tracer),
    };
    let defs = if options.trace {
        outcome.set("trace.spans", tracer.spans().len() as f64);
        outcome.set("pool.busy_peak", mlperf_pool::pool_stats().workers_busy_peak as f64);
        probes::run(&options.size, options.seed, &scratch.join("probes"), &mut outcome);
        schema::per_layer()
    } else {
        outcome.values.entry("peak_rss_mb".into()).or_insert_with(env::peak_rss_mb);
        schema::end_to_end()
    };

    let mut metrics = Vec::with_capacity(defs.len());
    for def in defs {
        let value = outcome.values.get(&def.name).copied();
        // A timing, and every end-to-end metric, must have been
        // measured; the other layer rows read zero where the workload
        // never enters the layer.
        let must_measure = !options.trace || schema::is_time_unit(def.unit);
        match value {
            Some(v) if v.is_finite() && (v != 0.0 || !must_measure) => metrics.push((def, v)),
            None if !must_measure => metrics.push((def, 0.0)),
            other => {
                outcome.failures.push(format!("metric {} was not measured ({other:?})", def.name));
                metrics.push((def, other.filter(|v| v.is_finite()).unwrap_or(0.0)));
            }
        }
    }
    Report {
        metrics,
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        failures: outcome.failures,
        spans: tracer.to_json(),
    }
}

/// A directory under this package's `target/` for a unit test to fill.
#[cfg(test)]
pub(crate) fn test_dir(tag: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target/test-scratch")
        .join(format!("{tag}-{}", std::process::id()))
}
