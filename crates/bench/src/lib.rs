//! The reproduction's experiments: one module per table and figure of
//! the paper, each a function from a small [`Context`] to a [`Report`]
//! carrying the machine-readable result, the table it prints and its
//! shape claims as named predicates. `src/bin/experiments.rs` is the
//! one entry point that runs, checks and renders them; EXPERIMENTS.md's
//! measured blocks are exactly what these functions print.

#![warn(missing_docs)]

use mlperf_data::SyntheticImageNet;
use mlperf_models::{ResNetConfig, ResNetMini};
use mlperf_telemetry::Telemetry;
use mlperf_tensor::TensorRng;
use serde::Serialize;
use serde_json::{json, Value};
use std::path::PathBuf;

/// `writeln!` into a `String`, which cannot fail.
macro_rules! out {
    ($text:expr, $($fmt:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($text, $($fmt)*);
    }};
}

pub mod aggregation_ablation;
pub mod batch_scaling;
pub mod calibrate;
pub mod fig1_precision;
pub mod fig2_variance;
pub mod fig3_accuracy_curves;
pub mod fig4_speedup;
pub mod fig5_scale;
pub mod fixed_seed_nondeterminism;
pub mod hparam_table;
pub mod microbench;
pub mod momentum_variants;
pub mod profile_backend;
pub mod round_targets;
pub mod table1;
pub mod timing_samples;

/// What an experiment is run with: the command line after its name.
#[derive(Debug, Clone, Copy)]
pub struct Context<'a> {
    /// Positional arguments (for most experiments, one count).
    pub args: &'a [String],
    /// `--full`: the §3.2.2-required number of runs (Table 1).
    pub full: bool,
    /// Recording under `--trace` / `--flame`, disabled otherwise.
    pub telemetry: &'a Telemetry,
}

impl Context<'_> {
    /// The first positional argument as a count, or `default`.
    pub fn count(&self, default: usize) -> usize {
        self.args.first().and_then(|s| s.parse().ok()).unwrap_or(default)
    }
}

/// One sentence EXPERIMENTS.md asserts about a result, as a predicate.
#[derive(Debug, Clone, Serialize)]
pub struct Claim {
    /// The predicate, written out.
    pub name: &'static str,
    /// Whether it holds on this result.
    pub holds: bool,
}

impl Claim {
    /// A claim with its verdict.
    pub fn new(name: &'static str, holds: bool) -> Claim {
        Claim { name, holds }
    }
}

/// What an experiment returns.
#[derive(Debug)]
pub struct Report {
    /// The machine-readable result.
    pub result: Value,
    /// The printed table, as far as the seeds determine it.
    pub text: String,
    /// The rest of it: what derives from wall-clock time on this host.
    pub host_text: String,
    /// The shape claims, decided.
    pub claims: Vec<Claim>,
}

impl Report {
    /// A report whose every printed digit the seeds determine.
    pub fn new(result: &impl Serialize, text: String, claims: Vec<Claim>) -> Report {
        Report { result: serde_json::to_value(result), text, host_text: String::new(), claims }
    }

    /// The report as printed: both texts, then one line per claim.
    pub fn printed(&self) -> String {
        let mut out = format!("{}\n{}", self.text, self.host_text);
        for claim in &self.claims {
            out!(out, "claim {}: {}", if claim.holds { "holds" } else { "FALSE" }, claim.name);
        }
        out
    }

    /// Writes the report to `target/experiments/<name>.json`, the file
    /// [`render`] reads, and returns the path.
    pub fn save(&self, name: &str) -> PathBuf {
        let saved = json!({
            "experiment": name,
            "result": self.result,
            "text": self.text,
            "host_text": self.host_text,
            "claims": self.claims,
        });
        write_json(name, &saved)
    }
}

/// An experiment's entry point.
pub type Run = fn(&Context) -> Report;

/// Every subcommand, in EXPERIMENTS.md's order: the paper's tables and
/// figures — the first [`CLAIMING`], each with at least one claim, what
/// `experiments check` runs when no name is given — then `microbench`
/// and the two tools that have no block there.
pub const EXPERIMENTS: [(&str, Run); 16] = [
    ("table1", table1::run),
    ("fig1_precision", fig1_precision::run),
    ("fig2_variance", fig2_variance::run),
    ("fig3_accuracy_curves", fig3_accuracy_curves::run),
    ("fig4_speedup", fig4_speedup::run),
    ("fig5_scale", fig5_scale::run),
    ("batch_scaling", batch_scaling::run),
    ("momentum_variants", momentum_variants::run),
    ("timing_samples", timing_samples::run),
    ("fixed_seed_nondeterminism", fixed_seed_nondeterminism::run),
    ("hparam_table", hparam_table::run),
    ("aggregation_ablation", aggregation_ablation::run),
    ("round_targets", round_targets::run),
    ("microbench", microbench::run),
    ("calibrate", calibrate::run),
    ("profile_backend", profile_backend::run),
];

/// How many of [`EXPERIMENTS`] are the paper's.
pub const CLAIMING: usize = 13;

/// Rewrites blocks of `document` (EXPERIMENTS.md) from the saved
/// reports `load` finds. Block `NAME` is that experiment's
/// seed-determined text and its claims, between `<!-- measured:NAME -->`
/// markers; `NAME.host` its wall-clock text between `<!--
/// host-dependent:NAME -->` markers; no names mean every block with a
/// saved report. Errors on a named block without one and on a report
/// whose markers the document lacks.
pub fn render(
    document: &str,
    blocks: &[String],
    load: impl Fn(&str) -> Option<Value>,
) -> Result<String, String> {
    // The paper's experiments and `microbench`, which follows them.
    let all: Vec<String> = EXPERIMENTS[..=CLAIMING]
        .iter()
        .flat_map(|(name, _)| [name.to_string(), format!("{name}.host")])
        .collect();
    let mut document = document.to_string();
    for block in if blocks.is_empty() { &all[..] } else { blocks } {
        let (name, kind, key) = match block.strip_suffix(".host") {
            Some(name) => (name, "host-dependent", "host_text"),
            None => (block.as_str(), "measured", "text"),
        };
        let saved = match load(name) {
            Some(saved) => saved,
            None if blocks.is_empty() => continue,
            None => return Err(format!("no saved report: run `experiments {name}` first")),
        };
        let text = saved[key].as_str().unwrap_or_default();
        if text.is_empty() {
            continue;
        }
        let mut body = format!("```text\n{text}```\n");
        if key == "text" {
            out!(body, "\nHeld to these predicates by `experiments check`:\n");
            for claim in saved["claims"].as_array().into_iter().flatten() {
                let verdict =
                    if claim["holds"] == true { "" } else { " — **FALSE in this run**" };
                out!(body, "- `{}`{verdict}", claim["name"].as_str().unwrap_or_default());
            }
        }
        let (open, close) =
            (format!("<!-- {kind}:{name} -->\n"), format!("<!-- /{kind}:{name} -->"));
        let start =
            document.find(&open).ok_or(format!("no `{}` marker", open.trim()))? + open.len();
        let end = document[start..].find(&close).ok_or(format!("no `{close}` marker"))? + start;
        document.replace_range(start..end, &body);
    }
    Ok(document)
}

/// Directory where harnesses drop machine-readable results.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// Writes a serializable result as pretty JSON under
/// `target/experiments/<name>.json` and returns the path.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let path = experiments_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("results serialize");
    std::fs::write(&path, json).expect("write experiment results");
    path
}

/// Renders a labelled numeric series as one line: `label: v v v …`.
pub fn render_series(label: &str, values: &[f64], precision: usize) -> String {
    let values: String = values.iter().map(|v| format!(" {v:.precision$}")).collect();
    format!("{label:>10}:{values}")
}

/// Renders an ASCII histogram of integer-valued observations (Figure 2's).
pub fn render_histogram(values: &[usize]) -> String {
    if values.is_empty() {
        return String::from("(no data)");
    }
    let lo = *values.iter().min().expect("non-empty");
    let hi = *values.iter().max().expect("non-empty");
    let mut out = String::new();
    for bucket in lo..=hi {
        let count = values.iter().filter(|&&v| v == bucket).count();
        out!(out, "{bucket:>4} | {}", "#".repeat(count));
    }
    out
}

/// Mean of a slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Sample standard deviation.
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64).sqrt()
}

/// The ResNetMini the optimizer studies (§2.2.3, §2.2.4) train on `data`.
pub(crate) fn resnet_mini(data: &SyntheticImageNet, rng: &mut TensorRng) -> ResNetMini {
    let cfg = data.config();
    let config = ResNetConfig {
        in_channels: cfg.channels,
        input_size: cfg.image_size,
        classes: cfg.classes,
        base_width: 8,
        blocks_per_stage: 1,
    };
    ResNetMini::new(config, rng)
}

/// Largest minus smallest value.
pub fn spread(values: &[f64]) -> f64 {
    values.iter().cloned().fold(f64::MIN, f64::max)
        - values.iter().cloned().fold(f64::MAX, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every predicate on canned results: each claim is seen holding and
    /// seen failing, and a violation fails that claim alone.
    #[test]
    fn claims_hold_on_passing_results_and_fail_on_violating_ones() {
        use crate::{
            aggregation_ablation as ablation, batch_scaling as batch, fig1_precision as fig1,
            fig2_variance as fig2, fig3_accuracy_curves as fig3, fig4_speedup as fig4,
            fig5_scale as fig5, fixed_seed_nondeterminism as fixed, momentum_variants as momentum,
            round_targets as targets, timing_samples as timing,
        };
        use mlperf_core::recommend::{recommendation_table, Recommendation, RecommendedOptimizer};
        let hparams = |damage: fn(&mut Vec<Recommendation>)| {
            let mut table = recommendation_table(&[1, 4, 16, 64, 256]);
            damage(&mut table);
            hparam_table::claims(&table)
        };
        let cases: Vec<(Vec<Claim>, &[bool])> = vec![
            // Table 1: maskrcnn misses at the pinned seed; a vision row asks for 10 runs.
            (table1::claims(&[("Vision", 5, false), ("Speech", 10, true)]), &[false, true]),
            (table1::claims(&[("Vision", 10, true)]), &[true, false]),
            // Fig. 1: bf16 ends apart; fp8 ends as low as fp32; ternary trains.
            (fig1::claims(&[0.02, 0.09, 0.01, 0.06, 0.85]), &[false, true, true]),
            (fig1::claims(&[0.02, 0.03, 0.01, 0.01, 0.85]), &[true, false, true]),
            (fig1::claims(&[0.02, 0.03, 0.01, 0.06, 0.30]), &[true, true, false]),
            // Fig. 2: as measured; NCF and MiniGo swapped.
            (fig2::claims(0.21, 0.25), &[true]),
            (fig2::claims(0.25, 0.21), &[false]),
            // Fig. 3: the late phase is the noisier one; one seed never crosses.
            (fig3::claims(0.06, 0.09, &[0.8, 0.9], 0.749), &[false, true]),
            (fig3::claims(0.09, 0.06, &[0.8, 0.74], 0.749), &[true, false]),
            // Fig. 4: one benchmark slows down; the mean is too low.
            (fig4::claims(&[0.9, 2.1]), &[false, true]),
            (fig4::claims(&[1.0, 1.1]), &[true, false]),
            // Fig. 5: one entry keeps its chip count; one gets slower.
            (fig5::claims(&[4.0, 1.0], &[0.5, 0.4]), &[false, true]),
            (fig5::claims(&[4.0, 2.0], &[0.5, 1.2]), &[true, false]),
            // §2.2.2: the model is off at 4K; off at 16K; the sweep dips.
            (batch::claims(60.0, 78.0, &[3.0, 3.0, 14.0]), &[false, true, true]),
            (batch::claims(64.0, 70.0, &[3.0, 3.0, 14.0]), &[true, false, true]),
            (batch::claims(64.0, 83.2, &[3.0, 2.7, 14.0]), &[true, true, false]),
            // §2.2.4: constant-LR and step-decay rows swapped; the two batches swapped.
            (momentum::claims(0.08, 0.016, 0.22), &[false, true]),
            (momentum::claims(0.016, 0.22, 0.08), &[true, false]),
            // §3.2.2: as measured; ResNet loosens from 3 to 5 runs; NCF stops tightening.
            (timing::claims(&[0.29, 0.20, 0.13], &[0.32, 0.15, 0.11]), &[true]),
            (timing::claims(&[0.20, 0.29, 0.13], &[0.32, 0.15, 0.11]), &[false]),
            (timing::claims(&[0.29, 0.20, 0.13], &[0.32, 0.15, 0.15]), &[false]),
            // Fig. 2b: apart from the first epoch; never apart; identical weights.
            (fixed::claims(&[0.1, 0.2], 6.5), &[false, true, true]),
            (fixed::claims(&[0.0, 0.0], 6.5), &[true, false, true]),
            (fixed::claims(&[0.0, 0.1], 0.0), &[true, true, false]),
            // §6 table (rows 0–4 are ResNet at 1x–256x, row 6 is SSD at 4x): as
            // built; LR doubled; warmup dropped; SGD kept at 256x; LARS for SSD.
            (hparams(|_| ()), &[true, true, true]),
            (hparams(|t| t[4].learning_rate *= 2.0), &[false, true, true]),
            (hparams(|t| t[4].warmup_epochs = 0.0), &[true, false, true]),
            (hparams(|t| t[4].optimizer = RecommendedOptimizer::SgdMomentum), &[true, true, false]),
            (hparams(|t| t[6].optimizer = RecommendedOptimizer::Lars), &[true, true, false]),
            // Ablation: as measured; the two estimators swapped.
            (ablation::claims(0.15, 1.82), &[true]),
            (ablation::claims(1.82, 0.15), &[false]),
            // §6 targets: as measured; same mean, but one seed got cheaper.
            (targets::claims(&[(&[4, 4], &[4, 4]), (&[17, 16], &[17, 19])]), &[true]),
            (targets::claims(&[(&[17, 16], &[19, 15])]), &[false]),
        ];
        for (claims, expected) in cases {
            let verdicts: Vec<bool> = claims.iter().map(|c| c.holds).collect();
            assert_eq!(verdicts, expected, "{claims:?}");
        }
    }

    #[test]
    fn text_and_stat_helpers() {
        let h = render_histogram(&[3, 3, 4, 6]);
        assert!(h.contains("   3 | ##") && h.contains("   4 | #") && h.contains("   6 | #"), "{h}");
        assert!(render_series("acc", &[0.5, 0.75], 2).ends_with("0.50 0.75"));
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!((std_dev(&[1.0, 3.0]) - std::f64::consts::SQRT_2).abs() < 1e-9);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert_eq!(spread(&[0.25, 1.0, 0.5]), 0.75);
    }

    #[test]
    fn render_rewrites_the_named_blocks_and_refuses_what_it_cannot_place() {
        let document = "intro\n<!-- measured:fig4_speedup -->\nstale\n<!-- /measured:fig4_speedup -->\n\
                        <!-- host-dependent:fig4_speedup -->\nold\n<!-- /host-dependent:fig4_speedup -->\n";
        let saved = json!({"text": "table\n", "host_text": "2.5 s\n", "claims": [
            {"name": "a < b", "holds": true}, {"name": "c < d", "holds": false}]});
        // Two experiments have a saved report; the document has one's markers.
        let load = |name: &str| name.starts_with("fig4").then(|| saved.clone());
        let named = |block: &str| {
            render(document, &[block.to_string()], |name| {
                name.starts_with("fig").then(|| saved.clone())
            })
        };
        let seed_only = named("fig4_speedup").expect("renders");
        assert!(seed_only.contains("```text\ntable\n```\n\nHeld to these"), "{seed_only}");
        assert!(seed_only.contains("- `a < b`\n- `c < d` — **FALSE in this run**\n<!-- /measured"));
        assert!(seed_only.contains("-->\nold\n<!--"), "host block must be left alone: {seed_only}");
        let everything = render(document, &[], load).expect("renders");
        assert!(everything.contains("```text\n2.5 s\n```\n<!-- /host-dependent"), "{everything}");
        assert_eq!(render(&everything, &[], load).as_ref(), Ok(&everything), "idempotent");
        assert!(named("table1").is_err(), "no saved report");
        assert!(named("fig2_variance").is_err(), "no marker in the document");
    }
}
