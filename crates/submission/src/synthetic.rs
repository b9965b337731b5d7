//! Synthetic round generation: turns the `mlperf-distsim` vendor fleet
//! into full submission bundles with rendered `:::MLLOG` logs, so the
//! round pipeline can be exercised end to end without real submitters.
//! Optional injected faults reproduce the failure modes review must
//! quarantine.

use crate::bundle::{BenchmarkReference, RunSet, SubmissionBundle};
use crate::round::RoundSubmissions;
use mlperf_core::equivalence::reference_signature;
use mlperf_core::mllog::{keys, MlLogger};
use mlperf_core::report::SystemDescription;
use mlperf_core::rules::{Category, Division, SystemType};
use mlperf_core::suite::{BenchmarkId, SuiteVersion};
use mlperf_distsim::{simulate_run_set, Round, SimBenchmark, SimResult, Vendor};
use serde_json::json;
use std::collections::BTreeMap;

/// A fault to inject into a generated round, addressed by organization.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Drop the `run_stop` line from one of the org's logs (compliance
    /// violation).
    MissingRunStop {
        /// Organization whose bundle gets the fault.
        org: String,
    },
    /// Splice a non-`:::MLLOG` line into one of the org's logs (parse
    /// failure).
    GarbageLine {
        /// Organization whose bundle gets the fault.
        org: String,
    },
    /// Change a restricted hyperparameter in the org's first run set
    /// (Closed-division rule violation).
    IllegalHyperparameter {
        /// Organization whose bundle gets the fault.
        org: String,
        /// The restricted hyperparameter to tamper with.
        name: String,
    },
    /// Lower the quality target logged by the org's first run — chasing
    /// an easier target than the round's reference, which §4.2.2
    /// forbids in *both* divisions.
    WrongQualityTarget {
        /// Organization whose bundle gets the fault.
        org: String,
    },
    /// Swap the org's first run set onto a foreign model signature — a
    /// Closed submission whose architecture no longer matches the
    /// reference (equivalence rejection).
    ForeignModel {
        /// Organization whose bundle gets the fault.
        org: String,
    },
}

/// Parameters of a synthetic round.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticRoundSpec {
    /// Which round to generate.
    pub round: Round,
    /// The fixed system size every vendor also enters (the paper's
    /// Figure 4 compares rounds at 16 chips).
    pub reference_chips: usize,
    /// Base seed for run-to-run convergence variance.
    pub seed: u64,
    /// Faults to inject after generation.
    pub faults: Vec<Fault>,
}

impl SyntheticRoundSpec {
    /// A fault-free spec at the paper's 16-chip comparison point.
    pub fn new(round: Round, seed: u64) -> Self {
        SyntheticRoundSpec { round, reference_chips: 16, seed, faults: Vec::new() }
    }

    /// Adds an injected fault.
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }
}

/// The suite version whose quality targets a round enforces.
pub(crate) fn suite_version(round: Round) -> SuiteVersion {
    match round {
        Round::V05 => SuiteVersion::V05,
        Round::V06 => SuiteVersion::V06,
        Round::V07 => SuiteVersion::V07,
    }
}

fn sim_identity(b: &SimBenchmark) -> BenchmarkId {
    match b.name.as_str() {
        "ResNet-50 v1.5" => BenchmarkId::ImageClassification,
        "SSD-ResNet-34" => BenchmarkId::ObjectDetection,
        "Mask R-CNN" => BenchmarkId::InstanceSegmentation,
        "GNMT" => BenchmarkId::TranslationRecurrent,
        "Transformer" => BenchmarkId::TranslationNonRecurrent,
        "BERT" => BenchmarkId::LanguageModeling,
        "DLRM" => BenchmarkId::RecommendationDlrm,
        "RNN-T" => BenchmarkId::SpeechRecognition,
        other => unreachable!("unknown sim benchmark {other}"),
    }
}

/// Every benchmark contested in a round, paired with its suite
/// identity: the comparison set plus, from v0.7, the added workloads.
pub(crate) fn round_benchmarks(round: Round) -> Vec<(BenchmarkId, SimBenchmark)> {
    SimBenchmark::benchmarks_for_round(round).into_iter().map(|b| (sim_identity(&b), b)).collect()
}

/// Reference hyperparameters every Closed submission is validated
/// against: batch/LR are tuned per system (modifiable), the rest must
/// match these values.
fn reference_hyperparameters() -> BTreeMap<String, f64> {
    BTreeMap::from([
        ("batch_size".to_string(), 256.0),
        ("learning_rate".to_string(), 0.1),
        ("momentum".to_string(), 0.9),
        ("weight_decay".to_string(), 1e-4),
    ])
}

/// A round's review references, one per comparison benchmark, carrying
/// the round's quality targets and datasets.
pub fn round_references(round: Round) -> Vec<BenchmarkReference> {
    let version = suite_version(round);
    round_benchmarks(round)
        .into_iter()
        .map(|(id, _)| BenchmarkReference {
            benchmark: id,
            dataset: id.spec().dataset.to_string(),
            quality_target: id
                .quality_for(version)
                .expect("round benchmarks exist in their round")
                .value,
            hyperparameters: reference_hyperparameters(),
            signature: reference_signature(id),
        })
        .collect()
}

/// Renders one timed run as a compliant `:::MLLOG` log.
fn render_run_log(
    org: &str,
    id: BenchmarkId,
    round: Round,
    seed: u64,
    result: &SimResult,
) -> String {
    let target =
        id.quality_for(suite_version(round)).expect("round benchmarks exist in their round");
    let duration_ms = (result.minutes * 60_000.0).max(1.0) as u64;
    // Cap the rendered epoch count so large-scale entries do not blow
    // up log sizes; timing comes from `minutes`, not the epoch lines.
    let epochs = (result.epochs.ceil() as usize).clamp(1, 48);

    let mut logger = MlLogger::new();
    logger.log(keys::SUBMISSION_BENCHMARK, json!(id.slug()));
    logger.log(keys::SUBMISSION_ORG, json!(org));
    logger.log(keys::SUBMISSION_DIVISION, json!("closed"));
    logger.log(keys::SEED, json!(seed));
    logger.log(keys::QUALITY_TARGET, json!(target.value));
    logger.log(keys::INIT_START, json!(null));
    logger.set_time_ms(500);
    logger.log(keys::INIT_STOP, json!(null));
    logger.set_time_ms(1_000);
    logger.log(keys::RUN_START, json!(null));
    for epoch in 0..epochs {
        let t0 = 1_000 + duration_ms * epoch as u64 / epochs as u64;
        let t1 = 1_000 + duration_ms * (epoch as u64 + 1) / epochs as u64;
        logger.set_time_ms(t0);
        logger.log(keys::EPOCH_START, json!(epoch));
        logger.set_time_ms(t1);
        logger.log(keys::EPOCH_STOP, json!(epoch));
        // Quality climbs toward (and finally past) the target.
        let frac = (epoch + 1) as f64 / epochs as f64;
        logger.log(keys::EVAL_ACCURACY, json!(target.value * (0.55 + 0.47 * frac)));
    }
    logger.set_time_ms(1_000 + duration_ms);
    logger.log(keys::RUN_STOP, json!({"status": "success"}));
    logger.render()
}

/// Builds one bundle: a vendor's entry at a fixed system size, one run
/// set per comparison benchmark the system can run.
fn vendor_bundle(vendor: &Vendor, round: Round, chips: usize, base_seed: u64) -> SubmissionBundle {
    let mut run_sets = Vec::new();
    for (bench_idx, (id, bench)) in round_benchmarks(round).into_iter().enumerate() {
        let seed = base_seed.wrapping_add(101 * bench_idx as u64);
        let runs = id.runs_required();
        let Some(results) = simulate_run_set(vendor, round, &bench, chips, seed, runs) else {
            continue; // system cannot run this workload — a legal omission
        };
        let mut hyperparameters = reference_hyperparameters();
        let batch = results[0].batch as f64;
        hyperparameters.insert("batch_size".to_string(), batch);
        hyperparameters.insert("learning_rate".to_string(), 0.1 * batch / 256.0);
        let logs = results
            .iter()
            .enumerate()
            .map(|(r, res)| render_run_log(&vendor.name, id, round, seed + r as u64, res))
            .collect();
        run_sets.push(RunSet {
            benchmark: id,
            dataset: id.spec().dataset.to_string(),
            hyperparameters,
            signature: reference_signature(id),
            logs,
        });
    }
    SubmissionBundle {
        org: vendor.name.clone(),
        system: SystemDescription {
            submitter: vendor.name.clone(),
            system_name: format!("{}x{}", vendor.chip.name, chips),
            accelerators: chips,
            accelerator_model: vendor.chip.name.clone(),
            host_processors: (chips / 8).max(1),
            software: format!("{} stack {}", vendor.name, round),
        },
        division: Division::Closed,
        category: Category::Available,
        system_type: SystemType::OnPremise,
        run_sets,
    }
}

fn apply_fault(bundles: &mut [SubmissionBundle], fault: &Fault) {
    let org = match fault {
        Fault::MissingRunStop { org }
        | Fault::GarbageLine { org }
        | Fault::IllegalHyperparameter { org, .. }
        | Fault::WrongQualityTarget { org }
        | Fault::ForeignModel { org } => org,
    };
    let Some(bundle) = bundles.iter_mut().find(|b| b.org == *org) else {
        return;
    };
    let Some(run_set) = bundle.run_sets.first_mut() else {
        return;
    };
    match fault {
        Fault::MissingRunStop { .. } => {
            run_set.logs[0] = run_set.logs[0]
                .lines()
                .filter(|l| !l.contains(&format!("\"{}\"", keys::RUN_STOP)))
                .collect::<Vec<_>>()
                .join("\n");
        }
        Fault::GarbageLine { .. } => {
            run_set.logs[0].push_str("telemetry: watchdog fired, dumping registers\n");
        }
        Fault::IllegalHyperparameter { name, .. } => {
            let tampered = run_set.hyperparameters.get(name).copied().unwrap_or(0.9) * 1.1;
            run_set.hyperparameters.insert(name.clone(), tampered);
        }
        Fault::WrongQualityTarget { .. } => {
            // Re-log the run with a 10%-easier quality target: parse,
            // rewrite the `quality_target` entry, re-render.
            let entries = MlLogger::parse(&run_set.logs[0]).expect("generated logs parse");
            let mut out = String::new();
            for mut e in entries {
                if e.key == keys::QUALITY_TARGET {
                    let eased = e.value.as_f64().unwrap_or(1.0) * 0.9;
                    e.value = json!(eased);
                }
                let line = serde_json::to_string(&e).expect("log entries serialize");
                out.push_str(&format!(":::MLLOG {line}\n"));
            }
            run_set.logs[0] = out;
        }
        Fault::ForeignModel { .. } => {
            run_set.signature =
                mlperf_core::equivalence::ModelSignature::from_shapes(vec![vec![404, 404]]);
        }
    }
}

/// Generates a stress round of `bundles` deliberately small bundles —
/// one run set each, a handful of rendered epochs per log — so
/// many-thousand-bundle rounds are cheap to write, archive, and ingest
/// in scale tests of the streaming reader. Every bundle has a unique
/// organization and system name; benchmarks rotate through the round's
/// contested set so every leaderboard shard sees traffic. Generation
/// is deterministic in `seed`.
pub fn synthetic_stress_round(round: Round, bundles: usize, seed: u64) -> RoundSubmissions {
    let benches = round_benchmarks(round);
    let mut out = Vec::with_capacity(bundles);
    for i in 0..bundles {
        let id = benches[i % benches.len()].0;
        let org = format!("Org-{i:04}");
        let chips = 8 + (i % 8) * 8;
        let base = seed.wrapping_add(31 * i as u64);
        let logs = (0..id.runs_required())
            .map(|r| {
                // Cheap deterministic jitter so run sets are not flat
                // and leaderboard ties stay rare.
                let jitter =
                    (base.wrapping_add(r as u64).wrapping_mul(2_654_435_761) % 997) as f64 / 997.0;
                let result = SimResult {
                    vendor: org.clone(),
                    chips,
                    batch: 256,
                    epochs: 3.0,
                    minutes: 5.0 + (i % 211) as f64 * 0.1 + jitter,
                };
                render_run_log(&org, id, round, base.wrapping_add(r as u64), &result)
            })
            .collect();
        let run_set = RunSet {
            benchmark: id,
            dataset: id.spec().dataset.to_string(),
            hyperparameters: reference_hyperparameters(),
            signature: reference_signature(id),
            logs,
        };
        out.push(SubmissionBundle {
            org: org.clone(),
            system: SystemDescription {
                submitter: org.clone(),
                system_name: format!("StressNode-{i:04}"),
                accelerators: chips,
                accelerator_model: "StressChip".to_string(),
                host_processors: (chips / 8).max(1),
                software: format!("stress stack {round}"),
            },
            division: Division::Closed,
            category: Category::Available,
            system_type: SystemType::OnPremise,
            run_sets: vec![run_set],
        });
    }
    RoundSubmissions { round, references: round_references(round), bundles: out }
}

/// Generates a full multi-vendor round: every fleet vendor submits two
/// bundles — one at the spec's reference system size, one at the
/// largest system it can field this round — then injects the spec's
/// faults.
pub fn synthetic_round(spec: &SyntheticRoundSpec) -> RoundSubmissions {
    let mut bundles = Vec::new();
    for (vendor_idx, vendor) in Vendor::fleet().iter().enumerate() {
        let base = spec.seed.wrapping_add(7_919 * vendor_idx as u64);
        bundles.push(vendor_bundle(vendor, spec.round, spec.reference_chips, base));
        let at_scale = vendor.max_chips(spec.round);
        if at_scale != spec.reference_chips {
            bundles.push(vendor_bundle(vendor, spec.round, at_scale, base.wrapping_add(1)));
        }
    }
    for fault in &spec.faults {
        apply_fault(&mut bundles, fault);
    }
    RoundSubmissions { round: spec.round, references: round_references(spec.round), bundles }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::review::Diagnostic;
    use crate::round::run_round;
    use mlperf_core::compliance::check_log;

    #[test]
    fn generated_logs_are_compliant() {
        let subs = synthetic_round(&SyntheticRoundSpec::new(Round::V05, 1));
        let bundle = &subs.bundles[0];
        assert!(!bundle.run_sets.is_empty());
        for rs in &bundle.run_sets {
            assert_eq!(rs.logs.len(), rs.benchmark.runs_required());
            for log in &rs.logs {
                let entries = MlLogger::parse(log).expect("generated logs parse");
                assert!(check_log(&entries).is_empty(), "{:?}", check_log(&entries));
            }
        }
    }

    #[test]
    fn fleet_round_has_two_bundles_per_vendor() {
        let subs = synthetic_round(&SyntheticRoundSpec::new(Round::V06, 2));
        assert_eq!(subs.bundles.len(), 2 * Vendor::fleet().len());
        assert_eq!(subs.references.len(), 5);
    }

    #[test]
    fn v07_round_contests_the_added_workloads() {
        let subs = synthetic_round(&SyntheticRoundSpec::new(Round::V07, 4));
        assert_eq!(subs.references.len(), 8);
        for id in [
            BenchmarkId::LanguageModeling,
            BenchmarkId::RecommendationDlrm,
            BenchmarkId::SpeechRecognition,
        ] {
            assert!(BenchmarkReference::find(&subs.references, id).is_some(), "{id}");
            // At least one bundle actually ran the new workload.
            assert!(
                subs.bundles.iter().any(|b| b.run_sets.iter().any(|rs| rs.benchmark == id)),
                "{id}: no bundle ran it"
            );
        }
        // Earlier rounds never mention the additions.
        let v06 = synthetic_round(&SyntheticRoundSpec::new(Round::V06, 4));
        assert!(v06
            .bundles
            .iter()
            .all(|b| b.run_sets.iter().all(|rs| rs.benchmark != BenchmarkId::LanguageModeling)));
    }

    #[test]
    fn references_carry_round_quality_targets() {
        let v05 = round_references(Round::V05);
        let v06 = round_references(Round::V06);
        let resnet = |refs: &[BenchmarkReference]| {
            BenchmarkReference::find(refs, BenchmarkId::ImageClassification).unwrap().quality_target
        };
        assert_eq!(resnet(&v05), 0.749);
        assert_eq!(resnet(&v06), 0.759);
        for r in &v05 {
            assert!(!r.dataset.is_empty());
        }
    }

    #[test]
    fn every_round_generates_a_full_fleet() {
        for round in Round::ALL {
            let subs = synthetic_round(&SyntheticRoundSpec::new(round, 6));
            assert_eq!(subs.bundles.len(), 2 * Vendor::fleet().len(), "{round}");
            assert!(subs.bundles.iter().all(|b| !b.run_sets.is_empty()), "{round}");
        }
    }

    #[test]
    fn faults_land_on_the_named_org() {
        let spec = SyntheticRoundSpec::new(Round::V05, 3)
            .with_fault(Fault::MissingRunStop { org: "Aurora".into() });
        let subs = synthetic_round(&spec);
        let aurora = subs.bundles.iter().find(|b| b.org == "Aurora").unwrap();
        assert!(!aurora.run_sets[0].logs[0].contains("run_stop"));
    }

    #[test]
    fn wrong_quality_target_fault_is_caught_by_review() {
        let spec = SyntheticRoundSpec::new(Round::V06, 5)
            .with_fault(Fault::WrongQualityTarget { org: "Cumulus".into() });
        let outcome = run_round(&synthetic_round(&spec));
        let report = outcome.quarantined.iter().find(|r| r.org == "Cumulus").unwrap();
        assert!(report
            .diagnostics()
            .any(|(_, d)| matches!(d, Diagnostic::WrongQualityTarget { run: 0, .. })));
    }

    #[test]
    fn foreign_model_fault_is_caught_by_equivalence_review() {
        let spec = SyntheticRoundSpec::new(Round::V06, 7)
            .with_fault(Fault::ForeignModel { org: "Aurora".into() });
        let outcome = run_round(&synthetic_round(&spec));
        let report = outcome.quarantined.iter().find(|r| r.org == "Aurora").unwrap();
        assert!(report.diagnostics().any(|(_, d)| matches!(d, Diagnostic::Equivalence(_))));
    }

    #[test]
    fn stress_round_bundles_are_lean_and_accepted() {
        let subs = synthetic_stress_round(Round::V07, 40, 11);
        assert_eq!(subs.bundles.len(), 40);
        // Unique identities, one small run set each.
        let orgs: std::collections::BTreeSet<_> =
            subs.bundles.iter().map(|b| b.org.as_str()).collect();
        assert_eq!(orgs.len(), 40);
        for bundle in &subs.bundles {
            assert_eq!(bundle.run_sets.len(), 1);
            for log in &bundle.run_sets[0].logs {
                assert!(log.len() < 4_096, "stress logs stay small ({} bytes)", log.len());
            }
        }
        // Every bundle survives review.
        let outcome = run_round(&subs);
        assert_eq!(outcome.accepted.len(), 40);
        assert!(outcome.quarantined.is_empty());
        // Deterministic in the seed.
        assert_eq!(synthetic_stress_round(Round::V07, 40, 11).bundles, subs.bundles);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = synthetic_round(&SyntheticRoundSpec::new(Round::V05, 9));
        let b = synthetic_round(&SyntheticRoundSpec::new(Round::V05, 9));
        assert_eq!(a.bundles, b.bundles);
    }
}
