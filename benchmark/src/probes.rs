//! The probe suite: every layer's public functions, called directly
//! and timed from outside. Every traced run of every workload runs all
//! of it, so each layer row is measured beside each workload's own
//! breakdown and the table is complete whichever workload was traced.
//!
//! Repeated timings are aggregated by the paper's own rule — drop the
//! fastest and slowest, mean of the rest (`stats::olympic`).

use crate::service::{decompose, Server};
use crate::stats;
use crate::train::RUN_SEED;
use crate::{env, httpc, Outcome, Size};
use mlperf_autograd::Var;
use mlperf_core::benchmarks::build_on;
use mlperf_core::mllog::{parse_mllog_line_serde, MlLogger};
use mlperf_core::report::render_leaderboard;
use mlperf_core::suite::BenchmarkId;
use mlperf_data::{
    ImageNetConfig, MaskedLmConfig, MaskedSentence, ShapesConfig, SyntheticImageNet,
    SyntheticMaskedLm, SyntheticShapes, SyntheticTranslation, TranslationConfig,
};
use mlperf_distsim::Round;
use mlperf_models::{
    BertConfig, BertMini, GnmtConfig, GnmtMini, MaskRcnnConfig, MaskRcnnMini, ResNetConfig,
    ResNetMini, SsdConfig, SsdMini, TransformerConfig, TransformerMini,
};
use mlperf_nn::{LayerNorm, Module, MultiHeadAttention};
use mlperf_optim::{Adam, Optimizer, SgdTorch};
use mlperf_submission::manifest::BundleManifest;
use mlperf_submission::{
    leaderboards, run_round, run_round_with, synthetic_stress_round, RoundArchive, RoundHistory,
};
use mlperf_telemetry::Telemetry;
use mlperf_tensor::{BackendKind, Conv2dSpec, Tensor, TensorRng};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const REPS: usize = 5;
const BACKENDS: [BackendKind; 2] = BackendKind::ALL;

/// Seconds per call: one warm-up, then the olympic mean over [`REPS`]
/// timings of `inner` calls each.
fn per_call(inner: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..inner {
                f();
            }
            start.elapsed().as_secs_f64() / inner as f64
        })
        .collect();
    stats::olympic(&samples)
}

/// Runs every probe and records every probe row.
pub fn run(size: &Size, seed: u64, dir: &Path, out: &mut Outcome) {
    tensor_and_pool(out);
    autograd_nn_optim(out);
    training_steps(seed, out);
    harness_set_up(out);
    if let Err(e) = submission_and_service(size, seed, dir, out) {
        out.fail(format!("probe suite: {e}"));
    }
}

fn tensor_and_pool(out: &mut Outcome) {
    for backend in BACKENDS {
        let mut rng = TensorRng::new(17).with_backend(backend);
        let label = backend.label();
        let (a, w) = (rng.normal(&[192, 16], 0.0, 1.0), rng.normal(&[16, 16], 0.0, 1.0));
        let small = per_call(400, || drop(black_box(black_box(&a).matmul(black_box(&w)))));
        out.set(format!("tensor.matmul_small_us.{label}"), small * 1e6);
        let (a, w) = (rng.normal(&[256, 256], 0.0, 1.0), rng.normal(&[256, 256], 0.0, 1.0));
        let large = per_call(2, || drop(black_box(black_box(&a).matmul(black_box(&w)))));
        out.set(format!("tensor.matmul_large_us.{label}"), large * 1e6);
        let (x, k) = (rng.normal(&[4, 8, 12, 12], 0.0, 1.0), rng.normal(&[16, 8, 3, 3], 0.0, 1.0));
        let spec = Conv2dSpec { kernel: 3, stride: 1, padding: 1 };
        let conv =
            per_call(40, || drop(black_box(black_box(&x).conv2d(black_box(&k), None, spec))));
        out.set(format!("tensor.conv2d_us.{label}"), conv * 1e6);
    }
    let items = vec![0u8; std::thread::available_parallelism().map_or(1, |n| n.get())];
    let fanout = per_call(100, || drop(black_box(mlperf_pool::parallel_map(&items, |x| *x))));
    out.set("pool.fanout_us", fanout * 1e6);
}

fn autograd_nn_optim(out: &mut Outcome) {
    for backend in BACKENDS {
        let mut rng = TensorRng::new(23).with_backend(backend);
        let label = backend.label();
        // 1000 elementwise nodes over 16 floats: all per-node overhead.
        let x = Var::param(rng.uniform(&[16], 0.1, 0.9));
        let chain = per_call(5, || {
            x.zero_grad();
            let mut y = x.clone();
            for _ in 0..500 {
                y = y.mul(&x).add_scalar(0.1);
            }
            y.sum().backward();
        });
        out.set(format!("autograd.node_ns.{label}"), chain / 1000.0 * 1e9);

        // Forward and backward at BertMini's shapes: [16, 12, 16], 2 heads.
        let input = Var::param(rng.normal(&[16, 12, 16], 0.0, 1.0));
        let norm = LayerNorm::new(16);
        let ln = per_call(50, || {
            input.zero_grad();
            norm.zero_grad();
            norm.forward(&input).sum().backward();
        });
        out.set(format!("nn.layernorm_us.{label}"), ln * 1e6);
        let attention = MultiHeadAttention::new(16, 2, &mut rng);
        let att = per_call(20, || {
            input.zero_grad();
            attention.zero_grad();
            attention.self_attention(&input, None).sum().backward();
        });
        out.set(format!("nn.attention_us.{label}"), att * 1e6);
    }

    // Optimizer updates over 32 parameters of 16x16, gradients in place.
    let mut rng = TensorRng::new(29);
    let params: Vec<Var> = (0..32).map(|_| Var::param(rng.normal(&[16, 16], 0.0, 1.0))).collect();
    params
        .iter()
        .map(Var::square)
        .fold(Var::constant(Tensor::scalar(0.0)), |a, p| a.add(&p.sum()))
        .backward();
    let mut adam = Adam::with_defaults(params.clone());
    out.set("optim.adam_step_us", per_call(50, || adam.step(1e-4)) * 1e6);
    let mut sgd = SgdTorch::new(params, 0.9, 0.0);
    out.set("optim.sgd_step_us", per_call(50, || sgd.step(1e-4)) * 1e6);
}

/// One model's fixed-batch training step, split in three.
struct StepCase {
    loss: Box<dyn Fn() -> Var>,
    optimizer: Box<dyn Optimizer>,
    lr: f32,
}

fn step_cases(list: &str, backend: BackendKind, seed: u64) -> Vec<StepCase> {
    let mut rng = TensorRng::new(RUN_SEED).with_backend(backend);
    let case = |loss: Box<dyn Fn() -> Var>, optimizer: Box<dyn Optimizer>, lr| StepCase {
        loss,
        optimizer,
        lr,
    };
    match list {
        "seq" => {
            let cfg = TranslationConfig::default();
            let data = SyntheticTranslation::generate(cfg, seed);
            let pairs: Vec<_> = data.train.iter().take(32).collect();
            let batch = Arc::new(SyntheticTranslation::pad_batch(&pairs, cfg.max_len));
            let gnmt = GnmtMini::new(
                GnmtConfig {
                    vocab: cfg.vocab,
                    max_len: cfg.max_len + 2,
                    embed_dim: 24,
                    hidden: 48,
                },
                &mut rng,
            );
            let transformer = TransformerMini::new(
                TransformerConfig {
                    vocab: cfg.vocab,
                    max_len: cfg.max_len + 2,
                    ..Default::default()
                },
                &mut rng,
            );
            let lm_cfg = MaskedLmConfig::default();
            let lm = SyntheticMaskedLm::generate(lm_cfg, seed);
            let sentences: Vec<MaskedSentence> = lm.train.iter().take(16).cloned().collect();
            let bert = BertMini::new(
                BertConfig {
                    vocab: lm_cfg.vocab,
                    max_len: lm_cfg.sentence_len(),
                    ..Default::default()
                },
                &mut rng,
            );
            let (gnmt_opt, transformer_opt, bert_opt) = (
                Adam::with_defaults(gnmt.params()),
                Adam::with_defaults(transformer.params()),
                Adam::with_defaults(bert.params()),
            );
            let (b1, b2) = (Arc::clone(&batch), batch);
            vec![
                case(Box::new(move || gnmt.loss(&b1)), Box::new(gnmt_opt), 0.012),
                case(Box::new(move || transformer.loss(&b2)), Box::new(transformer_opt), 0.01),
                case(
                    Box::new(move || bert.loss(&sentences.iter().collect::<Vec<_>>())),
                    Box::new(bert_opt),
                    0.01,
                ),
            ]
        }
        _ => {
            let image_cfg = ImageNetConfig::default();
            let images = SyntheticImageNet::generate(image_cfg, seed);
            let (pixels, labels) = images.train.batch(&(0..32).collect::<Vec<_>>());
            let resnet = ResNetMini::new(
                ResNetConfig {
                    in_channels: image_cfg.channels,
                    input_size: image_cfg.image_size,
                    classes: image_cfg.classes,
                    base_width: 8,
                    blocks_per_stage: 1,
                },
                &mut rng,
            );
            let shapes_cfg = ShapesConfig::default();
            let shapes = SyntheticShapes::generate(shapes_cfg, seed);
            let for_ssd: Vec<_> = shapes.train.iter().take(16).cloned().collect();
            let for_mask: Vec<_> = shapes.train.iter().take(8).cloned().collect();
            let ssd = SsdMini::new(
                SsdConfig {
                    in_channels: 1,
                    input_size: shapes_cfg.image_size,
                    classes: 3,
                    width: 8,
                },
                &mut rng,
            );
            let maskrcnn = MaskRcnnMini::new(
                MaskRcnnConfig {
                    in_channels: 1,
                    input_size: shapes_cfg.image_size,
                    classes: 3,
                    width: 8,
                    proposals: 3,
                },
                &mut rng,
            );
            let (resnet_opt, ssd_opt, mask_opt) = (
                SgdTorch::new(resnet.params(), 0.9, 1e-4),
                Adam::with_defaults(ssd.params()),
                Adam::with_defaults(maskrcnn.params()),
            );
            vec![
                case(Box::new(move || resnet.loss(&pixels, &labels)), Box::new(resnet_opt), 0.08),
                case(
                    Box::new(move || ssd.loss(&for_ssd.iter().collect::<Vec<_>>())),
                    Box::new(ssd_opt),
                    0.004,
                ),
                case(
                    Box::new(move || maskrcnn.loss(&for_mask.iter().collect::<Vec<_>>())),
                    Box::new(mask_opt),
                    0.004,
                ),
            ]
        }
    }
}

/// `step.{forward,backward,optimizer}_us.<list>.<backend>`: one
/// fixed-batch step of gnmt, transformer and bert (`seq`) or resnet,
/// ssd and maskrcnn (`conv`), summed over the models.
fn training_steps(seed: u64, out: &mut Outcome) {
    for list in ["seq", "conv"] {
        for backend in BACKENDS {
            let mut sums = [0.0f64; 3];
            for mut case in step_cases(list, backend, seed) {
                let mut samples: [Vec<f64>; 3] = Default::default();
                for rep in 0..=REPS {
                    case.optimizer.zero_grad();
                    let t0 = Instant::now();
                    let loss = (case.loss)();
                    let t1 = Instant::now();
                    loss.backward();
                    let t2 = Instant::now();
                    case.optimizer.step(case.lr);
                    let t3 = Instant::now();
                    if rep > 0 {
                        samples[0].push((t1 - t0).as_secs_f64());
                        samples[1].push((t2 - t1).as_secs_f64());
                        samples[2].push((t3 - t2).as_secs_f64());
                    }
                }
                for (sum, phase) in sums.iter_mut().zip(&samples) {
                    *sum += stats::olympic(phase);
                }
            }
            let label = backend.label();
            for (phase, sum) in ["forward", "backward", "optimizer"].iter().zip(sums) {
                out.set(format!("step.{phase}_us.{list}.{label}"), sum * 1e6);
            }
        }
    }
}

/// `harness.prepare_ms` and `harness.create_model_ms`, summed over the
/// eight trained benchmarks.
fn harness_set_up(out: &mut Outcome) {
    let (mut prepare, mut create) = (0.0, 0.0);
    for slug in crate::schema::TRAIN_SLUGS {
        let id = BenchmarkId::from_slug(slug).expect("a suite benchmark");
        let mut bench = build_on(id, BackendKind::Blocked);
        let start = Instant::now();
        bench.prepare();
        prepare += start.elapsed().as_secs_f64();
        let start = Instant::now();
        bench.create_model(RUN_SEED);
        create += start.elapsed().as_secs_f64();
    }
    out.set("harness.prepare_ms", prepare * 1e3);
    out.set("harness.create_model_ms", create * 1e3);
}

fn submission_and_service(
    size: &Size,
    seed: u64,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let err = |e: mlperf_submission::StoreError| e.to_string();
    let round = Round::V06;
    // Canonical bundles only: the fast paths are what the probes time.
    let subs = synthetic_stress_round(round, size.probe_bundles, seed);

    // core::mllog, on the round's own logs.
    let logs: Vec<&str> = subs
        .bundles
        .iter()
        .flat_map(|b| &b.run_sets)
        .flat_map(|rs| &rs.logs)
        .map(String::as_str)
        .collect();
    let lines: usize = logs.iter().map(|l| l.lines().count()).sum();
    let per_line = |seconds: f64| seconds / lines as f64 * 1e9;
    let validate = per_call(1, || logs.iter().for_each(|l| drop(black_box(MlLogger::validate(l)))));
    out.set("mllog.validate_ns_per_line", per_line(validate));
    let parse = per_call(1, || logs.iter().for_each(|l| drop(black_box(MlLogger::parse(l)))));
    out.set("mllog.parse_ns_per_line", per_line(parse));
    let serde = per_call(1, || {
        for line in logs.iter().flat_map(|l| l.lines()) {
            drop(black_box(parse_mllog_line_serde(line)));
        }
    });
    out.set("mllog.parse_serde_ns_per_line", per_line(serde));
    let mut logger = MlLogger::new();
    for entry in MlLogger::parse(logs[0]).map_err(|e| e.to_string())? {
        logger.set_time_ms(entry.time_ms);
        logger.log(entry.key.as_str(), entry.value);
    }
    out.set("mllog.render_us_per_log", per_call(200, || drop(black_box(logger.render()))) * 1e6);

    // submission::store, on an archive of that round.
    let mut writes = Vec::new();
    for rep in 0..3 {
        let archive = RoundArchive::create(dir.join(format!("write-{rep}"))).map_err(err)?;
        let start = Instant::now();
        archive.write_round(&subs).map_err(err)?;
        writes.push(start.elapsed().as_secs_f64());
    }
    out.set("store.write_round_ms", stats::olympic(&writes) * 1e3);
    let archive = RoundArchive::open(dir.join("write-0")).map_err(err)?;
    let read = per_call(1, || drop(black_box(archive.read_round(round))));
    out.set("store.read_round_ms", read * 1e3);
    let stream = per_call(1, || {
        if let Ok(mut stream) = archive.stream_round(round) {
            while let Some(bundle) = stream.next_bundle() {
                black_box(bundle);
            }
        }
    });
    out.set("store.stream_round_ms", stream * 1e3);
    let stream_review = per_call(1, || drop(black_box(archive.review_round_streaming(round))));
    out.set("round.stream_review_ms", stream_review * 1e3);

    // submission::manifest, on one of that archive's bundle manifests.
    let mut manifest = None;
    env::for_each_file(archive.root(), &mut |path, _| {
        if manifest.is_none() && path.file_name().is_some_and(|name| name == "bundle.json") {
            manifest = Some(path.to_path_buf());
        }
    });
    let manifest = manifest.ok_or("the archive holds no bundle.json")?;
    let manifest = std::fs::read_to_string(manifest).map_err(|e| e.to_string())?;
    let fast = per_call(2000, || drop(black_box(BundleManifest::parse(black_box(&manifest)))));
    out.set("manifest.parse_us", fast * 1e6);
    let slow = per_call(500, || drop(black_box(BundleManifest::parse_serde(black_box(&manifest)))));
    out.set("manifest.parse_serde_us", slow * 1e6);

    // review, leaderboards, report and tables, in memory.
    let outcome = run_round(&subs);
    out.set("round.run_round_ms", per_call(1, || drop(black_box(run_round(&subs)))) * 1e3);
    let write_outcome = per_call(3, || drop(black_box(archive.write_outcome(&outcome))));
    out.set("store.write_outcome_ms", write_outcome * 1e3);
    out.set("leaderboard.build_ms", per_call(3, || drop(black_box(leaderboards(&outcome)))) * 1e3);
    let boards = leaderboards(&outcome);
    let render = per_call(3, || {
        for board in &boards {
            let title = format!("{} ({} division)", board.benchmark, board.division);
            black_box(render_leaderboard(&title, &board.rows()));
        }
    });
    out.set("report.render_ms", render * 1e3);
    let history = RoundHistory::from_outcomes(vec![outcome]);
    let tables = per_call(3, || {
        black_box(history.speedup_table_at_common_scale().render());
        black_box(history.scale_table().render());
    });
    out.set("tables.render_ms", tables * 1e3);

    // telemetry: the same review with a recording handle against a
    // disabled one, alternating.
    let (mut recording, mut disabled) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let start = Instant::now();
        black_box(run_round_with(&subs, &Telemetry::recording()));
        recording.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(run_round_with(&subs, &Telemetry::disabled()));
        disabled.push(start.elapsed().as_secs_f64());
    }
    let overhead = stats::olympic(&recording) / stats::olympic(&disabled) - 1.0;
    out.set("telemetry.recording_overhead_pct", overhead * 100.0);

    // One submit, piece by piece.
    let bodies: Vec<String> = subs
        .bundles
        .iter()
        .take(200)
        .map(|b| serde_json::to_string(b).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let body_bytes: Vec<&[u8]> = bodies.iter().map(String::as_bytes).collect();
    let pieces = decompose(&body_bytes, &dir.join("pieces"))?;
    out.set("wire.deserialize_us", pieces.deserialize_us);
    out.set("review.bundle_us", pieces.review_us);
    out.set("store.write_bundle_us", pieces.write_bundle_us);
    out.set("round.push_reviewed_us", pieces.push_reviewed_us);
    out.set("service.submit_core_us", pieces.submit_core_us);
    out.set("service.http_submit_us", pieces.http_submit_us);

    // The service's read side over a round that is filling up.
    let server = Server::start(&dir.join("service"))?;
    let addr = server.addr();
    let mut client = httpc::Client::new(addr);
    let board_path = format!("/rounds/{}/leaderboard", round.label());
    let status_path = format!("/rounds/{}/status", round.label());
    let submit_path = format!("/rounds/{}/bundles", round.label());
    let (mut connect, mut cold, mut cached, mut status) = (vec![], vec![], vec![], vec![]);
    let timed_get = |client: &mut httpc::Client, path: &str| -> Result<f64, String> {
        let start = Instant::now();
        let reply = client.get(path).map_err(|e| e.to_string())?;
        let us = start.elapsed().as_secs_f64() * 1e6;
        if reply.status == 200 {
            Ok(us)
        } else {
            Err(format!("GET {path} answered {}", reply.status))
        }
    };
    for body in &body_bytes {
        // A submit invalidates the cached board, so the next read
        // renders it afresh and the one after is served from the cache.
        let request = httpc::render_request(addr, "POST", &submit_path, body);
        client.send(&request).map_err(|e| e.to_string())?;
        cold.push(timed_get(&mut client, &board_path)?);
        cached.push(timed_get(&mut client, &board_path)?);
        status.push(timed_get(&mut client, &status_path)?);
        connect.push(timed_get(&mut client, "/healthz")?);
    }
    out.set("service.connect_us", stats::median(&connect));
    out.set("service.leaderboard_cold_us", stats::median(&cold));
    out.set("service.leaderboard_cached_us", stats::median(&cached));
    out.set("service.status_us", stats::median(&status));
    let start = Instant::now();
    server.core.close_round(round).map_err(|e| e.to_string())?;
    out.set("service.close_round_ms", start.elapsed().as_secs_f64() * 1e3);
    Ok(())
}
