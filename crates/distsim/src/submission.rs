//! Vendor submission simulation across benchmark rounds.
//!
//! §5 of the paper compares rounds v0.5 and v0.6, six months apart on
//! unchanged hardware: the fastest 16-chip entries sped up ~1.3× on
//! average (despite raised quality targets), and the chip count of the
//! fastest entries grew ~5.5× on average. The drivers named by the
//! paper — better benchmark implementations, maturing software stacks,
//! and rule changes such as allowing LARS for large-batch ResNet — are
//! modelled here as per-round software efficiency, communication
//! overlap, and critical-batch-size factors.

use crate::chips::{step_time, ChipSpec, Interconnect, SystemConfig};
use crate::convergence::ConvergenceModel;
use serde::{Deserialize, Serialize};

/// A benchmark submission round. Variant order is chronological, so
/// the derived ordering sorts histories oldest-first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Round {
    /// December 2018 round.
    V05,
    /// June 2019 round (raised targets, LARS allowed, matured stacks).
    V06,
    /// July 2020 round (further stack maturation and larger systems).
    V07,
}

impl Round {
    /// All rounds in chronological order.
    pub const ALL: [Round; 3] = [Round::V05, Round::V06, Round::V07];

    /// The round's published label, also used as its archive directory
    /// name.
    pub fn label(self) -> &'static str {
        match self {
            Round::V05 => "v0.5",
            Round::V06 => "v0.6",
            Round::V07 => "v0.7",
        }
    }
}

impl std::fmt::Display for Round {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Round {
    type Err = String;

    fn from_str(s: &str) -> Result<Round, String> {
        Round::ALL
            .into_iter()
            .find(|r| r.label() == s)
            .ok_or_else(|| format!("unknown round `{s}` (expected one of v0.5, v0.6, v0.7)"))
    }
}

/// Workload parameters of one benchmark for the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct SimBenchmark {
    /// Display name.
    pub name: String,
    /// Training FLOPs per sample (forward + backward + update).
    pub flops_per_sample: f64,
    /// Gradient bytes all-reduced per step.
    pub param_bytes: f64,
    /// Activation-memory footprint per sample (bounds per-chip batch).
    pub activation_bytes: f64,
    /// Samples per epoch.
    pub dataset_size: f64,
    /// Convergence behaviour at the v0.5 quality target.
    pub convergence: ConvergenceModel,
    /// Epoch inflation from the raised v0.6 target.
    pub v06_target_factor: f64,
    /// Critical-batch growth unlocked in v0.6 (LARS et al.).
    pub v06_batch_factor: f64,
    /// Epoch inflation added on top of v0.6 by the v0.7 targets.
    pub v07_target_factor: f64,
    /// Further critical-batch growth unlocked in v0.7.
    pub v07_batch_factor: f64,
}

impl SimBenchmark {
    /// The five benchmarks the paper compares across rounds (those
    /// "either unmodified or modified in limited ways").
    pub fn round_comparison_suite() -> Vec<SimBenchmark> {
        vec![
            SimBenchmark {
                name: "ResNet-50 v1.5".into(),
                flops_per_sample: 12.3e9,
                param_bytes: 25.6e6 * 4.0,
                activation_bytes: 60e6,
                dataset_size: 1.28e6,
                convergence: ConvergenceModel::resnet_paper(),
                v06_target_factor: 1.04, // 74.9% -> 75.9% top-1
                v06_batch_factor: 4.0,   // LARS allowed
                v07_target_factor: 1.0,
                v07_batch_factor: 2.0,
            },
            SimBenchmark {
                name: "SSD-ResNet-34".into(),
                flops_per_sample: 90e9,
                param_bytes: 36e6 * 4.0,
                activation_bytes: 120e6,
                dataset_size: 118e3,
                convergence: ConvergenceModel {
                    min_epochs: 49.0,
                    critical_batch: 8_192.0,
                    target_factor: 1.0,
                    noise: 0.05,
                },
                v06_target_factor: 1.05,
                v06_batch_factor: 3.0,
                v07_target_factor: 1.0,
                v07_batch_factor: 2.0,
            },
            SimBenchmark {
                name: "Mask R-CNN".into(),
                flops_per_sample: 820e9,
                param_bytes: 44e6 * 4.0,
                activation_bytes: 900e6,
                dataset_size: 118e3,
                convergence: ConvergenceModel {
                    min_epochs: 12.0,
                    critical_batch: 1_024.0,
                    target_factor: 1.0,
                    noise: 0.08,
                },
                v06_target_factor: 1.0,
                v06_batch_factor: 2.0,
                v07_target_factor: 1.0,
                v07_batch_factor: 2.0,
            },
            SimBenchmark {
                name: "GNMT".into(),
                flops_per_sample: 20e9,
                param_bytes: 160e6 * 4.0,
                activation_bytes: 250e6,
                dataset_size: 4.5e6,
                convergence: ConvergenceModel {
                    min_epochs: 2.2,
                    critical_batch: 2_048.0,
                    target_factor: 1.0,
                    noise: 0.07,
                },
                v06_target_factor: 1.08, // improved model raised BLEU target
                v06_batch_factor: 3.0,
                v07_target_factor: 1.0,
                v07_batch_factor: 1.5,
            },
            SimBenchmark {
                name: "Transformer".into(),
                flops_per_sample: 15e9,
                param_bytes: 210e6 * 4.0,
                activation_bytes: 300e6,
                dataset_size: 4.5e6,
                convergence: ConvergenceModel {
                    min_epochs: 2.5,
                    critical_batch: 8_192.0,
                    target_factor: 1.0,
                    noise: 0.06,
                },
                v06_target_factor: 1.0,
                v06_batch_factor: 3.0,
                v07_target_factor: 1.0,
                v07_batch_factor: 2.0,
            },
        ]
    }

    /// The three workloads the v0.7 round added: BERT, DLRM and RNN-T.
    /// They have no earlier-round history, so their round factors are
    /// all 1 — the convergence model *is* the v0.7 baseline.
    pub(crate) fn v07_additions() -> Vec<SimBenchmark> {
        vec![
            SimBenchmark {
                name: "BERT".into(),
                flops_per_sample: 0.5e12,
                param_bytes: 340e6 * 4.0,
                activation_bytes: 400e6,
                dataset_size: 3.0e6,
                convergence: ConvergenceModel {
                    min_epochs: 1.5,
                    critical_batch: 8_192.0,
                    target_factor: 1.0,
                    noise: 0.06,
                },
                v06_target_factor: 1.0,
                v06_batch_factor: 1.0,
                v07_target_factor: 1.0,
                v07_batch_factor: 1.0,
            },
            SimBenchmark {
                name: "DLRM".into(),
                flops_per_sample: 3e9,
                param_bytes: 60e6 * 4.0, // dense part only; embeddings stay sharded
                activation_bytes: 2e6,
                dataset_size: 3.3e8,
                convergence: ConvergenceModel {
                    min_epochs: 1.0,
                    critical_batch: 65_536.0,
                    target_factor: 1.0,
                    noise: 0.04,
                },
                v06_target_factor: 1.0,
                v06_batch_factor: 1.0,
                v07_target_factor: 1.0,
                v07_batch_factor: 1.0,
            },
            SimBenchmark {
                name: "RNN-T".into(),
                flops_per_sample: 80e9,
                param_bytes: 120e6 * 4.0,
                activation_bytes: 300e6,
                dataset_size: 288e3,
                convergence: ConvergenceModel {
                    min_epochs: 60.0,
                    critical_batch: 2_048.0,
                    target_factor: 1.0,
                    noise: 0.05,
                },
                v06_target_factor: 1.0,
                v06_batch_factor: 1.0,
                v07_target_factor: 1.0,
                v07_batch_factor: 1.0,
            },
        ]
    }

    /// Every workload contested in a round: the cross-round comparison
    /// suite, plus the v0.7 additions once they exist.
    pub fn benchmarks_for_round(round: Round) -> Vec<SimBenchmark> {
        let mut suite = SimBenchmark::round_comparison_suite();
        if round >= Round::V07 {
            suite.extend(SimBenchmark::v07_additions());
        }
        suite
    }

    /// The convergence model in effect for a round.
    pub(crate) fn convergence_for(&self, round: Round) -> ConvergenceModel {
        match round {
            Round::V05 => self.convergence,
            Round::V06 => self
                .convergence
                .with_critical_batch_scaled(self.v06_batch_factor)
                .with_target_factor(self.v06_target_factor),
            Round::V07 => self
                .convergence
                .with_critical_batch_scaled(self.v06_batch_factor * self.v07_batch_factor)
                .with_target_factor(self.v06_target_factor * self.v07_target_factor),
        }
    }
}

/// A simulated submitter: hardware plus a per-round software profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Vendor {
    /// Submitter name.
    pub name: String,
    /// The accelerator this vendor fields.
    pub chip: ChipSpec,
    /// The fabric this vendor fields.
    pub interconnect: Interconnect,
    /// Fraction of tuned peak achieved in v0.5 software.
    pub efficiency_v05: f64,
    /// Fraction achieved in v0.6 software (stack maturation).
    pub efficiency_v06: f64,
    /// Fraction achieved in v0.7 software.
    pub efficiency_v07: f64,
    /// Compute/communication overlap in v0.5.
    pub overlap_v05: f64,
    /// Overlap in v0.6.
    pub overlap_v06: f64,
    /// Overlap in v0.7.
    pub overlap_v07: f64,
    /// Largest system the vendor could field in v0.5.
    pub max_chips_v05: usize,
    /// Largest system in v0.6.
    pub max_chips_v06: usize,
    /// Largest system in v0.7.
    pub max_chips_v07: usize,
}

impl Vendor {
    /// The three simulated submitters used by the round-comparison
    /// experiments. Values are fictional but produce round-over-round
    /// dynamics of the paper's magnitude.
    pub fn fleet() -> Vec<Vendor> {
        vec![
            Vendor {
                name: "Aurora".into(),
                chip: ChipSpec {
                    name: "A900".into(),
                    tflops: 125.0,
                    memory_gib: 32.0,
                    utilization: 0.45,
                },
                interconnect: Interconnect { bandwidth_gbs: 100.0, latency_us: 3.0 },
                efficiency_v05: 0.52,
                efficiency_v06: 0.74,
                efficiency_v07: 0.82,
                overlap_v05: 0.35,
                overlap_v06: 0.70,
                overlap_v07: 0.80,
                max_chips_v05: 512,
                max_chips_v06: 2048,
                max_chips_v07: 4096,
            },
            Vendor {
                name: "Borealis".into(),
                chip: ChipSpec {
                    name: "B12".into(),
                    tflops: 105.0,
                    memory_gib: 24.0,
                    utilization: 0.50,
                },
                interconnect: Interconnect { bandwidth_gbs: 60.0, latency_us: 4.0 },
                efficiency_v05: 0.48,
                efficiency_v06: 0.71,
                efficiency_v07: 0.79,
                overlap_v05: 0.30,
                overlap_v06: 0.65,
                overlap_v07: 0.76,
                max_chips_v05: 256,
                max_chips_v06: 1024,
                max_chips_v07: 2048,
            },
            Vendor {
                name: "Cumulus".into(),
                chip: ChipSpec {
                    name: "C7".into(),
                    tflops: 140.0,
                    memory_gib: 16.0,
                    utilization: 0.42,
                },
                interconnect: Interconnect { bandwidth_gbs: 150.0, latency_us: 2.0 },
                efficiency_v05: 0.50,
                efficiency_v06: 0.70,
                efficiency_v07: 0.78,
                overlap_v05: 0.40,
                overlap_v06: 0.75,
                overlap_v07: 0.82,
                max_chips_v05: 1024,
                max_chips_v06: 4096,
                max_chips_v07: 8192,
            },
        ]
    }

    fn efficiency(&self, round: Round) -> f64 {
        match round {
            Round::V05 => self.efficiency_v05,
            Round::V06 => self.efficiency_v06,
            Round::V07 => self.efficiency_v07,
        }
    }

    fn overlap(&self, round: Round) -> f64 {
        match round {
            Round::V05 => self.overlap_v05,
            Round::V06 => self.overlap_v06,
            Round::V07 => self.overlap_v07,
        }
    }

    /// The largest system the vendor can field in a round.
    pub fn max_chips(&self, round: Round) -> usize {
        match round {
            Round::V05 => self.max_chips_v05,
            Round::V06 => self.max_chips_v06,
            Round::V07 => self.max_chips_v07,
        }
    }
}

/// A simulated submission result.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Vendor name.
    pub vendor: String,
    /// Chips used.
    pub chips: usize,
    /// Global minibatch chosen.
    pub batch: usize,
    /// Epochs needed at that batch.
    pub epochs: f64,
    /// End-to-end time to train, in minutes.
    pub minutes: f64,
}

/// Simulates one vendor's submission at a fixed system size: the vendor
/// tunes the per-chip batch (powers of two up to the memory bound) to
/// minimize time-to-train under the round's convergence model.
///
/// Returns `None` when the system cannot run the workload (no feasible
/// batch).
pub fn simulate_submission(
    vendor: &Vendor,
    round: Round,
    bench: &SimBenchmark,
    chips: usize,
    seed: u64,
) -> Option<SimResult> {
    let max_per_chip = vendor.chip.max_batch(bench.activation_bytes);
    if max_per_chip == 0 || chips == 0 {
        return None;
    }
    let system =
        SystemConfig { chip: vendor.chip.clone(), chips, interconnect: vendor.interconnect };
    let conv = bench.convergence_for(round);
    let mut best: Option<SimResult> = None;
    let mut per_chip = 1usize;
    while per_chip <= max_per_chip {
        let batch = per_chip * chips;
        let epochs = conv.epochs_with_seed(batch, seed ^ (batch as u64)).max(1.0);
        let steps = (bench.dataset_size / batch as f64).ceil() * epochs;
        let t = step_time(
            &system,
            batch,
            bench.flops_per_sample,
            bench.param_bytes,
            vendor.efficiency(round),
            vendor.overlap(round),
        );
        let minutes = steps * t / 60.0;
        if best.as_ref().is_none_or(|b| minutes < b.minutes) {
            best = Some(SimResult { vendor: vendor.name.clone(), chips, batch, epochs, minutes });
        }
        per_chip *= 2;
    }
    best
}

/// Simulates a full run set for one vendor/benchmark/system: `runs`
/// timed runs with per-run seeds derived from `base_seed`, as the
/// submission rules require (§3.2.2). Returns `None` when the system
/// cannot run the workload at all.
pub fn simulate_run_set(
    vendor: &Vendor,
    round: Round,
    bench: &SimBenchmark,
    chips: usize,
    base_seed: u64,
    runs: usize,
) -> Option<Vec<SimResult>> {
    (0..runs as u64)
        .map(|r| {
            simulate_submission(
                vendor,
                round,
                bench,
                chips,
                base_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(r),
            )
        })
        .collect()
}

/// The fastest submission across a vendor fleet at one fixed system
/// size (Figure 4's "fastest 16-chip entry").
pub fn best_time_at_scale(
    vendors: &[Vendor],
    round: Round,
    bench: &SimBenchmark,
    chips: usize,
    seed: u64,
) -> Option<SimResult> {
    vendors
        .iter()
        .filter_map(|v| simulate_submission(v, round, bench, chips, seed))
        .min_by(|a, b| a.minutes.total_cmp(&b.minutes))
}

/// The fastest submission over all vendors and all power-of-two system
/// sizes each vendor can field (Figure 5's "fastest overall score").
pub fn best_overall(
    vendors: &[Vendor],
    round: Round,
    bench: &SimBenchmark,
    seed: u64,
) -> Option<SimResult> {
    let mut best: Option<SimResult> = None;
    for v in vendors {
        let mut chips = 1usize;
        while chips <= v.max_chips(round) {
            if let Some(r) = simulate_submission(v, round, bench, chips, seed) {
                if best.as_ref().is_none_or(|b| r.minutes < b.minutes) {
                    best = Some(r);
                }
            }
            chips *= 2;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_chip_entries_speed_up_about_1_3x() {
        // Figure 4's headline: average speedup ~1.3x at fixed 16 chips.
        let vendors = Vendor::fleet();
        let mut speedups = Vec::new();
        for bench in SimBenchmark::round_comparison_suite() {
            let t05 = best_time_at_scale(&vendors, Round::V05, &bench, 16, 1).unwrap();
            let t06 = best_time_at_scale(&vendors, Round::V06, &bench, 16, 1).unwrap();
            let s = t05.minutes / t06.minutes;
            assert!(s > 1.0, "{}: v0.6 slower than v0.5 at 16 chips ({s})", bench.name);
            speedups.push(s);
        }
        let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
        assert!(
            (1.1..=1.7).contains(&avg),
            "average 16-chip speedup {avg} outside the paper's ballpark"
        );
    }

    #[test]
    fn fastest_systems_grow_several_fold() {
        // Figure 5's headline: chips of the fastest entry grow ~5.5x on
        // average between rounds.
        let vendors = Vendor::fleet();
        let mut growth = Vec::new();
        for bench in SimBenchmark::round_comparison_suite() {
            let b05 = best_overall(&vendors, Round::V05, &bench, 2).unwrap();
            let b06 = best_overall(&vendors, Round::V06, &bench, 2).unwrap();
            assert!(b06.minutes < b05.minutes, "{}: best time regressed", bench.name);
            growth.push(b06.chips as f64 / b05.chips as f64);
        }
        let avg = growth.iter().sum::<f64>() / growth.len() as f64;
        assert!(
            (2.0..=12.0).contains(&avg),
            "average scale growth {avg} outside the paper's ballpark"
        );
    }

    #[test]
    fn more_chips_not_always_faster_in_v05() {
        // Without LARS, epoch inflation caps useful scale: the best
        // overall v0.5 ResNet entry uses fewer chips than the largest
        // system available.
        let vendors = Vendor::fleet();
        let bench = &SimBenchmark::round_comparison_suite()[0];
        let best = best_overall(&vendors, Round::V05, bench, 3).unwrap();
        let largest = vendors.iter().map(|v| v.max_chips(Round::V05)).max().unwrap();
        assert!(best.chips <= largest);
        // And running at the largest scale is slower than the optimum.
        let vendor = vendors.iter().find(|v| v.max_chips_v05 == largest).unwrap();
        let at_max = simulate_submission(vendor, Round::V05, bench, largest, 3).unwrap();
        assert!(at_max.minutes >= best.minutes);
    }

    #[test]
    fn seed_changes_results_slightly() {
        let vendors = Vendor::fleet();
        let bench = &SimBenchmark::round_comparison_suite()[0];
        let a = best_time_at_scale(&vendors, Round::V05, bench, 16, 1).unwrap();
        let b = best_time_at_scale(&vendors, Round::V05, bench, 16, 99).unwrap();
        let rel = (a.minutes - b.minutes).abs() / a.minutes;
        assert!(rel < 0.25, "seed noise too large: {rel}");
    }

    #[test]
    fn run_sets_vary_per_run_but_stay_close() {
        let vendors = Vendor::fleet();
        let bench = &SimBenchmark::round_comparison_suite()[0];
        let runs = simulate_run_set(&vendors[0], Round::V05, bench, 16, 7, 5).unwrap();
        assert_eq!(runs.len(), 5);
        let minutes: Vec<f64> = runs.iter().map(|r| r.minutes).collect();
        let lo = minutes.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = minutes.iter().cloned().fold(0.0, f64::max);
        assert!(hi > lo, "per-run seeds should produce run-to-run variance");
        assert!(hi / lo < 1.5, "variance implausibly large: {minutes:?}");
        // Deterministic for a base seed.
        let again = simulate_run_set(&vendors[0], Round::V05, bench, 16, 7, 5).unwrap();
        assert_eq!(runs, again);
    }

    #[test]
    fn round_labels_round_trip() {
        for round in Round::ALL {
            assert_eq!(round.label().parse::<Round>().unwrap(), round);
        }
        assert!("v9.9".parse::<Round>().is_err());
        assert!(Round::V05 < Round::V06 && Round::V06 < Round::V07);
    }

    #[test]
    fn v07_keeps_improving_on_v06() {
        let vendors = Vendor::fleet();
        for bench in SimBenchmark::round_comparison_suite() {
            let b06 = best_overall(&vendors, Round::V06, &bench, 2).unwrap();
            let b07 = best_overall(&vendors, Round::V07, &bench, 2).unwrap();
            assert!(b07.minutes < b06.minutes, "{}: v0.7 best time regressed", bench.name);
        }
    }

    #[test]
    fn v07_round_contests_the_added_workloads() {
        let v06 = SimBenchmark::benchmarks_for_round(Round::V06);
        assert_eq!(v06.len(), SimBenchmark::round_comparison_suite().len());
        let v07 = SimBenchmark::benchmarks_for_round(Round::V07);
        assert_eq!(v07.len(), v06.len() + 3);
        let vendors = Vendor::fleet();
        for bench in SimBenchmark::v07_additions() {
            assert!(!v06.iter().any(|b| b.name == bench.name), "{} leaked early", bench.name);
            // Every addition must be runnable at the 16-chip comparison
            // point by at least one vendor.
            let best = best_time_at_scale(&vendors, Round::V07, &bench, 16, 1);
            assert!(best.is_some(), "{} infeasible at 16 chips", bench.name);
        }
    }

    #[test]
    fn infeasible_system_returns_none() {
        let mut vendor = Vendor::fleet().remove(0);
        vendor.chip.memory_gib = 0.0001; // cannot fit one sample
        let bench = &SimBenchmark::round_comparison_suite()[0];
        assert!(simulate_submission(&vendor, Round::V05, bench, 8, 0).is_none());
    }

    #[test]
    fn batch_respects_memory_bound() {
        let vendors = Vendor::fleet();
        let bench = &SimBenchmark::round_comparison_suite()[2]; // Mask R-CNN, heavy
        let r = simulate_submission(&vendors[0], Round::V05, bench, 16, 0).unwrap();
        let per_chip = r.batch / 16;
        assert!(per_chip <= vendors[0].chip.max_batch(bench.activation_bytes));
    }
}
