//! Golden trajectories: every timed model, trained to its target at run
//! seed 1001, must reach it after exactly the pinned number of epochs
//! with exactly the pinned quality bits — on both backends.
//!
//! "Blocked ≡ Reference" compares two things a kernel change can move
//! at once. These absolute pins are what make "no floating-point
//! operation or its order changed" checkable: a change to index walks,
//! storage or dispatch leaves every pin alone; a change that reorders
//! one addition anywhere in forward, backward, optimizer or evaluation
//! moves at least one. A pin may only be edited by a change that says
//! it alters numerics and why.

use mlperf_suite::core::benchmarks::build_on;
use mlperf_suite::core::harness::run_benchmark;
use mlperf_suite::core::suite::BenchmarkId;
use mlperf_suite::core::timing::RealClock;
use mlperf_suite::tensor::BackendKind;

/// The benchmark's fixed run seed (`benchmark/src/train.rs`).
const RUN_SEED: u64 = 1001;

fn assert_pinned(slug: &str, epochs: usize, quality_bits: u64) {
    let id = BenchmarkId::from_slug(slug).unwrap_or_else(|| panic!("no benchmark named {slug}"));
    for backend in BackendKind::ALL {
        let mut bench = build_on(id, backend);
        let result = run_benchmark(bench.as_mut(), RUN_SEED, &RealClock::new());
        assert!(result.reached_target, "{slug} on {backend}: missed its target");
        assert_eq!(
            (result.epochs, result.quality.to_bits()),
            (epochs, quality_bits),
            "{slug} on {backend}: trajectory moved (quality {} = {:#018x})",
            result.quality,
            result.quality.to_bits()
        );
    }
}

#[test]
fn gnmt() {
    assert_pinned("gnmt", 16, 0x403633502817fd90);
}

#[test]
fn transformer() {
    assert_pinned("transformer", 19, 0x403c40d5f0de4122);
}

#[test]
fn bert() {
    assert_pinned("bert", 12, 0x3fe9800000000000);
}

#[test]
fn rnnt() {
    assert_pinned("rnnt", 5, 0x3fee888888888889);
}

#[test]
fn ncf() {
    assert_pinned("ncf", 4, 0x3fe7555560000000);
}

#[test]
fn resnet() {
    assert_pinned("resnet", 4, 0x3fecccccc0000000);
}

#[test]
fn ssd() {
    assert_pinned("ssd", 17, 0x3fcbaa381a8a7435);
}

#[test]
fn maskrcnn() {
    assert_pinned("maskrcnn", 22, 0x3fda54b05e82617f);
}
