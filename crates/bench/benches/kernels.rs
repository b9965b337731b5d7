//! Criterion benchmarks for the numerical kernels underlying every
//! benchmark in the suite.

use criterion::{criterion_group, criterion_main, BenchmarkId as CriterionId, Criterion};
use mlperf_distsim::{allreduce_time, Interconnect};
use mlperf_gomini::{Board, Player, RandomPlayer};
use mlperf_tensor::{Conv2dSpec, TensorRng};
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = TensorRng::new(0);
    for n in [16usize, 32, 64] {
        let a = rng.normal(&[n, n], 0.0, 1.0);
        let b = rng.normal(&[n, n], 0.0, 1.0);
        group.bench_with_input(CriterionId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| black_box(&a).matmul(black_box(&b)))
        });
    }
    group.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d");
    let mut rng = TensorRng::new(1);
    let x = rng.normal(&[4, 8, 12, 12], 0.0, 1.0);
    let w = rng.normal(&[16, 8, 3, 3], 0.0, 0.5);
    let spec = Conv2dSpec::new(3, 1, 1);
    group.bench_function("im2col", |b| b.iter(|| black_box(&x).conv2d(black_box(&w), None, spec)));
    group.finish();
}

fn bench_softmax_and_reductions(c: &mut Criterion) {
    let mut rng = TensorRng::new(2);
    let logits = rng.normal(&[256, 64], 0.0, 2.0);
    c.bench_function("softmax_256x64", |b| b.iter(|| black_box(&logits).softmax_last_axis()));
    let t = rng.normal(&[64, 64, 8], 0.0, 1.0);
    c.bench_function("sum_axis_mid", |b| b.iter(|| black_box(&t).sum_axis(1, false)));
}

/// The layout kernels, at the shapes the sequence models run them on
/// every step (`model_dim` 16): a bias row and a per-row statistic
/// broadcast over `[tokens, dim]`, and the attention head split/merge
/// permutations. No arithmetic to speak of, so what these time is the
/// index walk.
fn bench_broadcast(c: &mut Criterion) {
    let mut group = c.benchmark_group("broadcast");
    let mut rng = TensorRng::new(4);
    let x = rng.normal(&[192, 16], 0.0, 1.0);
    let row = rng.normal(&[16], 0.0, 1.0);
    let column = rng.normal(&[192, 1], 0.0, 1.0);
    group.bench_function("row", |b| b.iter(|| black_box(&x) + black_box(&row)));
    group.bench_function("column", |b| b.iter(|| black_box(&x) - black_box(&column)));
    let heads = rng.normal(&[8, 4, 24, 24], 0.0, 1.0);
    let mask = rng.normal(&[24, 24], 0.0, 1.0);
    group.bench_function("rank4", |b| b.iter(|| black_box(&heads) + black_box(&mask)));
    group.bench_function("broadcast_to_column", |b| {
        b.iter(|| black_box(&column).broadcast_to(&[192, 16]))
    });
    group.finish();
}

fn bench_permute(c: &mut Criterion) {
    let mut group = c.benchmark_group("permute");
    let mut rng = TensorRng::new(5);
    let heads = rng.normal(&[8, 24, 4, 4], 0.0, 1.0);
    // [batch, time, heads, head_dim] -> [batch, heads, time, head_dim]:
    // the innermost dimension stays put, so rows are copied whole.
    group.bench_function("head_split", |b| b.iter(|| black_box(&heads).permute(&[0, 2, 1, 3])));
    // Keys transposed for QKᵀ: the innermost dimension moves.
    group.bench_function("last2_swap", |b| b.iter(|| black_box(&heads).permute(&[0, 1, 3, 2])));
    let images = rng.normal(&[8, 16, 8, 8], 0.0, 1.0);
    group.bench_function("nchw_to_nhwc", |b| b.iter(|| black_box(&images).permute(&[0, 2, 3, 1])));
    group.finish();
}

fn bench_quantization(c: &mut Criterion) {
    let mut rng = TensorRng::new(3);
    let w = rng.normal(&[4096], 0.0, 1.0);
    let mut group = c.benchmark_group("quantize");
    for p in mlperf_tensor::Precision::ALL {
        group.bench_with_input(CriterionId::from_parameter(p), &p, |b, &p| {
            b.iter(|| black_box(&w).quantize(p))
        });
    }
    group.finish();
}

fn bench_allreduce_model(c: &mut Criterion) {
    let fabric = Interconnect { bandwidth_gbs: 100.0, latency_us: 3.0 };
    c.bench_function("allreduce_model_eval", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for n in [2usize, 8, 64, 512, 4096] {
                acc += allreduce_time(black_box(1e8), n, fabric);
            }
            acc
        })
    });
}

fn bench_go_engine(c: &mut Criterion) {
    let mut board = Board::new(9);
    // Mid-game position.
    let mut player = RandomPlayer::new(5);
    for _ in 0..30 {
        let mv = player.select_move(&board);
        board.play(mv).expect("engine move legal");
    }
    c.bench_function("go_legal_moves_midgame", |b| b.iter(|| black_box(&board).legal_moves()));
    c.bench_function("go_score_midgame", |b| b.iter(|| black_box(&board).score(7.5)));
}

criterion_group!(
    benches,
    bench_matmul,
    bench_conv,
    bench_softmax_and_reductions,
    bench_broadcast,
    bench_permute,
    bench_quantization,
    bench_allreduce_model,
    bench_go_engine
);
criterion_main!(benches);
