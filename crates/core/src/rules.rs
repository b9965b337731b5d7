//! Submission rules: divisions, system categories, system types, and
//! the hyperparameter restrictions with review-period borrowing
//! (§3.4, §4.2).

use crate::suite::BenchmarkId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Submission division (§4.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Division {
    /// Direct system comparison: must be equivalent to the reference
    /// (model, initialization, optimizer, schedule, data processing and
    /// traversal), restricted hyperparameters.
    Closed,
    /// Innovative solutions: model architectures, optimization
    /// procedures and augmentations may differ from the reference.
    Open,
}

impl fmt::Display for Division {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Division::Closed => "closed",
            Division::Open => "open",
        })
    }
}

/// System category (§4.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Rentable or purchasable hardware with versioned, supported
    /// software.
    Available,
    /// Will meet Available criteria within 60 days or by the next
    /// submission cycle.
    Preview,
    /// Prototypes and over-scale systems not intended for production.
    Research,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Category::Available => "available",
            Category::Preview => "preview",
            Category::Research => "research",
        })
    }
}

/// On-premise or cloud system (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemType {
    /// Hardware purchasable for on-premise deployment.
    OnPremise,
    /// Hardware rentable from a cloud provider.
    Cloud,
}

/// A named hyperparameter value in a submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Hyperparameter {
    /// Parameter name (e.g. `"learning_rate"`).
    pub name: String,
    /// Its value.
    pub value: f64,
}

/// The Closed-division hyperparameter policy for one benchmark: the
/// set of names submissions may modify. Everything else must match the
/// reference.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperparameterRules {
    benchmark: BenchmarkId,
    modifiable: Vec<String>,
}

impl HyperparameterRules {
    /// The v0.5-style modifiable list for a benchmark. Minibatch size
    /// is always adjustable (to accommodate system scale — §3.4), and
    /// the learning-rate family follows it.
    pub fn closed_division(benchmark: BenchmarkId) -> Self {
        let mut modifiable =
            vec!["batch_size".to_string(), "learning_rate".to_string(), "warmup_steps".to_string()];
        match benchmark {
            BenchmarkId::ImageClassification => {
                modifiable.push("lars_epsilon".into());
                modifiable.push("lr_decay_boundaries".into());
            }
            BenchmarkId::TranslationNonRecurrent => {
                modifiable.push("adam_beta2".into());
            }
            BenchmarkId::Recommendation => {
                modifiable.push("negative_samples".into());
            }
            // v0.7 additions: BERT submissions may tune the optimizer's
            // second-moment decay (the LAMB/Adam beta family); DLRM and
            // RNN-T are covered by the always-modifiable trio.
            BenchmarkId::LanguageModeling => {
                modifiable.push("adam_beta2".into());
            }
            _ => {}
        }
        HyperparameterRules { benchmark, modifiable }
    }

    /// The benchmark these rules govern.
    pub fn benchmark(&self) -> BenchmarkId {
        self.benchmark
    }

    /// Whether a parameter may be modified in the Closed division.
    pub(crate) fn is_modifiable(&self, name: &str) -> bool {
        self.modifiable.iter().any(|m| m == name)
    }

    /// Validates a submission's hyperparameter deltas against the
    /// reference. Returns the names of illegal modifications.
    ///
    /// `reference` and `submitted` map name → value; a parameter is a
    /// modification when its value differs from (or is absent in) the
    /// reference.
    pub fn violations(
        &self,
        reference: &BTreeMap<String, f64>,
        submitted: &BTreeMap<String, f64>,
    ) -> Vec<String> {
        let mut bad = Vec::new();
        for (name, value) in submitted {
            let differs = reference.get(name).is_none_or(|r| r != value);
            if differs && !self.is_modifiable(name) {
                bad.push(name.clone());
            }
        }
        bad
    }
}

/// An inference-style load scenario (MLPerf Inference, Reddi et al.):
/// the traffic pattern the loadgen drives a trained model under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// One query at a time, back to back; judged on p90 latency.
    SingleStream,
    /// Poisson query arrivals against a p99 latency SLO; judged on the
    /// maximum sustainable arrival rate (QPS).
    Server,
    /// The whole query pool issued at once and processed in batch;
    /// judged on throughput, with no latency bound.
    Offline,
}

impl Scenario {
    /// Every scenario, in reporting order.
    pub const ALL: [Scenario; 3] = [Scenario::SingleStream, Scenario::Server, Scenario::Offline];

    /// The scenario's log/CLI slug.
    pub fn slug(self) -> &'static str {
        match self {
            Scenario::SingleStream => "single_stream",
            Scenario::Server => "server",
            Scenario::Offline => "offline",
        }
    }

    /// Parses a slug back into a scenario.
    pub fn from_slug(slug: &str) -> Option<Scenario> {
        Scenario::ALL.into_iter().find(|s| s.slug() == slug)
    }

    /// The compliance bounds a run of this scenario must satisfy.
    pub fn rules(self) -> ScenarioRules {
        match self {
            Scenario::SingleStream => ScenarioRules {
                scenario: self,
                min_query_count: 64,
                min_duration_ms: 500,
                latency_percentile: Some(90.0),
            },
            Scenario::Server => ScenarioRules {
                scenario: self,
                min_query_count: 128,
                min_duration_ms: 1000,
                latency_percentile: Some(99.0),
            },
            Scenario::Offline => ScenarioRules {
                scenario: self,
                min_query_count: 64,
                min_duration_ms: 500,
                latency_percentile: None,
            },
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// The scenario compliance bounds (the loadgen analogue of §3.2.2's
/// run-count rules): a scenario run shorter than these is not a valid
/// measurement and is quarantined during review.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioRules {
    /// The scenario these bounds govern.
    pub scenario: Scenario,
    /// Minimum number of issued queries.
    pub min_query_count: u64,
    /// Minimum measured duration in milliseconds.
    pub min_duration_ms: u64,
    /// The latency percentile the scenario's SLO binds, when it has
    /// one (`None` for Offline, which is throughput-only).
    pub latency_percentile: Option<f64>,
}

/// Review-period hyperparameter borrowing (§4.1): "if a submission uses
/// hyperparameters that would also benefit other submissions, we want
/// to ensure that those systems have an opportunity to adopt those
/// hyperparameters." Copies every *modifiable* parameter from `donor`
/// into `recipient`, returning the adopted names.
pub fn borrow_hyperparameters(
    rules: &HyperparameterRules,
    donor: &BTreeMap<String, f64>,
    recipient: &mut BTreeMap<String, f64>,
) -> Vec<String> {
    let mut adopted = Vec::new();
    for (name, value) in donor {
        if rules.is_modifiable(name) && recipient.get(name) != Some(value) {
            recipient.insert(name.clone(), *value);
            adopted.push(name.clone());
        }
    }
    adopted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn batch_and_lr_always_modifiable() {
        for id in BenchmarkId::ALL {
            let rules = HyperparameterRules::closed_division(id);
            assert!(rules.is_modifiable("batch_size"), "{id}");
            assert!(rules.is_modifiable("learning_rate"), "{id}");
        }
    }

    #[test]
    fn lars_only_for_resnet() {
        assert!(HyperparameterRules::closed_division(BenchmarkId::ImageClassification)
            .is_modifiable("lars_epsilon"));
        assert!(!HyperparameterRules::closed_division(BenchmarkId::Recommendation)
            .is_modifiable("lars_epsilon"));
    }

    #[test]
    fn violations_flag_restricted_changes() {
        let rules = HyperparameterRules::closed_division(BenchmarkId::ImageClassification);
        let reference = params(&[("learning_rate", 0.1), ("momentum", 0.9), ("batch_size", 256.0)]);
        // Changing lr/batch is fine; changing momentum is not.
        let submitted =
            params(&[("learning_rate", 1.6), ("momentum", 0.95), ("batch_size", 4096.0)]);
        assert_eq!(rules.violations(&reference, &submitted), vec!["momentum"]);
    }

    #[test]
    fn matching_reference_has_no_violations() {
        let rules = HyperparameterRules::closed_division(BenchmarkId::ObjectDetection);
        let reference = params(&[("momentum", 0.9)]);
        assert!(rules.violations(&reference, &reference).is_empty());
    }

    #[test]
    fn novel_restricted_parameter_is_a_violation() {
        let rules = HyperparameterRules::closed_division(BenchmarkId::ObjectDetection);
        let reference = params(&[]);
        let submitted = params(&[("label_smoothing", 0.1)]);
        assert_eq!(rules.violations(&reference, &submitted), vec!["label_smoothing"]);
    }

    #[test]
    fn borrowing_copies_only_modifiable() {
        let rules = HyperparameterRules::closed_division(BenchmarkId::ImageClassification);
        let donor = params(&[("learning_rate", 1.6), ("momentum", 0.95)]);
        let mut recipient = params(&[("learning_rate", 0.1), ("momentum", 0.9)]);
        let adopted = borrow_hyperparameters(&rules, &donor, &mut recipient);
        assert_eq!(adopted, vec!["learning_rate"]);
        assert_eq!(recipient["learning_rate"], 1.6);
        assert_eq!(recipient["momentum"], 0.9, "restricted param must not be borrowed");
    }

    #[test]
    fn display_names() {
        assert_eq!(Division::Closed.to_string(), "closed");
        assert_eq!(Category::Research.to_string(), "research");
    }

    #[test]
    fn scenario_slugs_round_trip() {
        for scenario in Scenario::ALL {
            assert_eq!(Scenario::from_slug(scenario.slug()), Some(scenario));
            assert_eq!(scenario.to_string(), scenario.slug());
        }
        assert_eq!(Scenario::from_slug("multi_stream"), None);
    }

    #[test]
    fn scenario_rules_are_sane() {
        for scenario in Scenario::ALL {
            let rules = scenario.rules();
            assert_eq!(rules.scenario, scenario);
            assert!(rules.min_query_count > 0, "{scenario}");
            assert!(rules.min_duration_ms > 0, "{scenario}");
        }
        assert_eq!(Scenario::SingleStream.rules().latency_percentile, Some(90.0));
        assert_eq!(Scenario::Server.rules().latency_percentile, Some(99.0));
        assert_eq!(Scenario::Offline.rules().latency_percentile, None);
    }
}
