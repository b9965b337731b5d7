//! Kernel and step microbenchmarks that have no twin among the
//! benchmark's layer probes (`benchmark/src/probes.rs` owns matmul,
//! conv2d, layer, step, mllog, manifest, ingest and service rows, each
//! a layer of an end-to-end number). One table, timed by the repo's own
//! rule: repeat, drop the fastest and the slowest, mean the rest
//! (`core::aggregate::olympic_mean`).

use crate::{Context, Report};
use mlperf_core::aggregate::olympic_mean;
use mlperf_core::benchmarks::BertBenchmark;
use mlperf_core::harness::Benchmark;
use mlperf_gomini::{Board, Player, RandomPlayer};
use mlperf_tensor::{BackendKind, TensorRng};
use serde_json::json;
use std::hint::black_box;
use std::time::Instant;

const REPEATS: usize = 7;

/// Microseconds per call of `f`: enough calls per repeat to fill 10 ms
/// (finding that count is the warm-up), olympic mean over the repeats.
fn time(f: &mut dyn FnMut()) -> f64 {
    let mut batch = |calls: u32| {
        let start = Instant::now();
        (0..calls).for_each(|_| f());
        start.elapsed().as_secs_f64()
    };
    let mut calls = 1u32;
    while batch(calls) < 0.01 {
        calls *= 2;
    }
    let per_call: Vec<f64> = (0..REPEATS).map(|_| batch(calls) * 1e6 / calls as f64).collect();
    olympic_mean(&per_call)
}

/// Times every row.
pub fn run(_ctx: &Context) -> Report {
    let mut rng = TensorRng::new(4);
    let x = rng.normal(&[192, 16], 0.0, 1.0);
    let bias = rng.normal(&[16], 0.0, 1.0);
    let heads = rng.normal(&[8, 24, 4, 4], 0.0, 1.0);
    let logits = rng.normal(&[256, 64], 0.0, 2.0);
    let mut board = Board::new(9);
    let mut player = RandomPlayer::new(5);
    for _ in 0..30 {
        let mv = player.select_move(&board);
        board.play(mv).expect("engine move legal");
    }
    let mut host_text = format!("olympic mean of {REPEATS} repeats, microseconds per call\n\n");
    let mut result = Vec::new();
    let mut row = |name: &str, what: &str, call: &mut dyn FnMut()| {
        let micros = time(call);
        out!(host_text, "{name:<36} {micros:>12.2}  {what}");
        result.push(json!({"name": name, "what": what, "micros": micros}));
    };
    row("broadcast/row", "[192,16] + [16]", &mut || drop(black_box(&x) + black_box(&bias)));
    let split = &mut || drop(black_box(&heads).permute(&[0, 2, 1, 3]));
    row("permute/head_split", "[8,24,4,4] by (0,2,1,3)", split);
    let softmax = &mut || drop(black_box(&logits).softmax_last_axis());
    row("softmax_256x64", "last axis of [256,64]", softmax);
    let legal_moves = &mut || drop(black_box(&board).legal_moves());
    row("go_legal_moves_midgame", "9x9 board after 30 moves", legal_moves);
    for kind in BackendKind::ALL {
        let mut bench = BertBenchmark::new().with_backend(kind);
        bench.prepare();
        bench.create_model(21);
        let name = format!("backend/bert_mini_epoch/{}", kind.label());
        row(&name, "every batch: forward, backward, Adam", &mut || bench.train_epoch(0));
    }
    Report { host_text, ..Report::new(&result, String::new(), Vec::new()) }
}
