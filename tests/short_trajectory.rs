//! Short trajectories for the two rows `golden_trajectory` does not
//! train to target (DLRM and MiniGo): the quality bits after each of
//! the first epochs at run seed 1001, on both backends — and proof that
//! a second `create_model` on the same object starts a run from
//! scratch, so nothing of the first run (optimizer moments, data order,
//! a replay pool) leaks into the next.
//!
//! Like the golden pins, a pin here may only be edited by a change that
//! says it alters numerics and why.

use mlperf_suite::core::benchmarks::build_on;
use mlperf_suite::core::harness::Benchmark;
use mlperf_suite::core::suite::BenchmarkId;
use mlperf_suite::tensor::BackendKind;

/// The benchmark's fixed run seed (`benchmark/src/train.rs`).
const RUN_SEED: u64 = 1001;
/// The seed of the second run on the same object.
const REUSE_SEED: u64 = 1002;

/// A run's quality bits after each of its first `epochs` epochs.
fn trajectory(bench: &mut dyn Benchmark, seed: u64, epochs: usize) -> Vec<String> {
    bench.create_model(seed);
    (0..epochs)
        .map(|epoch| {
            bench.train_epoch(epoch);
            format!("{:#018x}", bench.evaluate().to_bits())
        })
        .collect()
}

/// Pins the first epochs at [`RUN_SEED`]; then re-creates the model at
/// [`REUSE_SEED`] on the same object, trains `reuse_epochs` epochs, and
/// checks them against a fresh object's and the last against `reused`.
fn assert_short(id: BenchmarkId, pinned: &[&str], reuse_epochs: usize, reused: &str) {
    for backend in BackendKind::ALL {
        let mut bench = build_on(id, backend);
        bench.prepare();
        let first = trajectory(bench.as_mut(), RUN_SEED, pinned.len());
        assert_eq!(first, pinned, "{id} on {backend}: trajectory moved");

        let again = trajectory(bench.as_mut(), REUSE_SEED, reuse_epochs);
        let mut fresh = build_on(id, backend);
        fresh.prepare();
        let fresh = trajectory(fresh.as_mut(), REUSE_SEED, reuse_epochs);
        assert_eq!(
            again, fresh,
            "{id} on {backend}: a reused object's run differs from a fresh one"
        );
        assert_eq!(
            again.last().map(String::as_str),
            Some(reused),
            "{id} on {backend}: reuse pin moved"
        );
    }
}

#[test]
fn dlrm() {
    assert_short(
        BenchmarkId::RecommendationDlrm,
        &["0x3fe2afccabf32afd", "0x3fe46e7b281baacf", "0x3fe64031132b7cfd"],
        1,
        "0x3fdcff53bcb5b6fb",
    );
}

#[test]
fn minigo() {
    // Quality sits at 0x3f8e4f04e0000000 for epochs 1–2 and moves from
    // epoch 3 on; the reuse run is long enough to move too, so a replay
    // pool carried over from the first run would show.
    assert_short(
        BenchmarkId::ReinforcementLearning,
        &[
            "0x3f85a62800000000",
            "0x3f8e4f04e0000000",
            "0x3f8e4f04e0000000",
            "0x3f95a62800000000",
            "0x3fb1dc4780000000",
            "0x3fc10c72c0000000",
        ],
        5,
        "0x3f99fa9680000000",
    );
}
