//! **§6 (future work)** — "Producing a table that maps system scale and
//! precision to recommended hyperparameters for each benchmark."
//!
//! Prints that table for the reproduction's suite: per benchmark and
//! scale-up factor, the recommended global batch, peak learning rate
//! (linear scaling for SGD workloads, √-scaling for Adam workloads),
//! warmup length, and optimizer — including the SGD→LARS switch at
//! large batch that the v0.6 rules enabled.

use crate::{Claim, Context, Report};
use mlperf_core::recommend::{recommendation_table, Recommendation, RecommendedOptimizer};

const SCALES: [usize; 5] = [1, 4, 16, 64, 256];

/// `table` holds `SCALES.len()` rows per benchmark, in `SCALES` order.
pub(crate) fn claims(table: &[Recommendation]) -> Vec<Claim> {
    let per_benchmark = || table.chunks(SCALES.len());
    // The exponent of the learning rate's growth over the 256x span.
    let exponent =
        |rows: &[Recommendation]| (rows[4].learning_rate / rows[0].learning_rate).log(256.0);
    let adam = |rows: &[Recommendation]| rows[0].optimizer == RecommendedOptimizer::Adam;
    vec![
        Claim::new(
            "peak LR scales linearly with batch for SGD workloads and by its square root for Adam workloads",
            per_benchmark().all(|r| (exponent(r) - if adam(r) { 0.5 } else { 1.0 }).abs() < 1e-3),
        ),
        Claim::new(
            "warmup never shortens as scale grows",
            per_benchmark().all(|r| r.windows(2).all(|w| w[0].warmup_epochs <= w[1].warmup_epochs)),
        ),
        Claim::new(
            "LARS is recommended exactly for SGD workloads at >= 32x the reference batch",
            per_benchmark().all(|r| {
                r.iter().zip(SCALES).all(|(row, scale)| {
                    (row.optimizer == RecommendedOptimizer::Lars) == (!adam(r) && scale >= 32)
                })
            }),
        ),
    ]
}

/// Builds the table at 1x to 256x each benchmark's reference batch.
pub fn run(_ctx: &Context) -> Report {
    let table = recommendation_table(&SCALES);
    let mut text =
        String::from("Recommended hyperparameters by system scale (paper §6 future work)\n\n");
    out!(text, "benchmark        batch        peak lr    warmup (ep)      optimizer");
    let mut last = None;
    for row in &table {
        if last != Some(row.benchmark) {
            out!(text, "{}", "-".repeat(68));
            last = Some(row.benchmark);
        }
        let (slug, optimizer) = (row.benchmark.slug(), row.optimizer.to_string());
        let (batch, lr, warmup) = (row.batch, row.learning_rate, row.warmup_epochs);
        out!(text, "{slug:<12} {batch:>9} {lr:>14.5} {warmup:>14.1} {optimizer:>14}");
    }
    Report::new(&table, text, claims(&table))
}
