//! Scratch profiler: phase breakdown of a BertMini training epoch per
//! backend and each backend's kernel dispatch counters. (Per-layer
//! forward/backward times are the benchmark's `nn.*` and `step.*`
//! probes.)
//!
//! Under `--flame FILE` (or `--trace FILE`) the run is also recorded as
//! telemetry spans: `--flame` writes them as a collapsed-stack
//! flamegraph (`stack;frames count`, one line per unique stack,
//! self-time in microseconds — feed to inferno or speedscope).

use crate::{Context, Report};
use mlperf_data::{epoch_batches, MaskedLmConfig, MaskedSentence, SyntheticMaskedLm};
use mlperf_models::{BertConfig, BertMini};
use mlperf_nn::Module;
use mlperf_optim::{Adam, Optimizer};
use mlperf_tensor::{
    enable_kernel_stats, kernel_stats, reset_kernel_stats, BackendKind, TensorRng,
};
use serde_json::Value;
use std::time::{Duration, Instant};

/// Trains BertMini for five epochs on each backend, timing the phases.
pub fn run(ctx: &Context) -> Report {
    enable_kernel_stats();
    let data_config = MaskedLmConfig::default();
    let data = SyntheticMaskedLm::generate(data_config, 0x7be2_91a4);
    let mut host_text = String::new();
    for kind in BackendKind::ALL {
        reset_kernel_stats();
        let mut scope = ctx.telemetry.timeline_scope();
        let backend_span = scope.start("profile", &format!("backend {kind}"));
        let mut rng = TensorRng::new(21).with_backend(kind);
        let model = BertMini::new(
            BertConfig {
                vocab: data_config.vocab,
                max_len: data_config.sentence_len(),
                ..Default::default()
            },
            &mut rng,
        );
        let mut opt = Adam::with_defaults(model.params());
        let mut data_rng = rng.split();
        let (mut t_batch, mut t_fwd, mut t_bwd, mut t_opt) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let mut steps = 0u32;
        for epoch in 0..5 {
            let epoch_span = scope.start("profile", &format!("epoch {epoch}"));
            for batch in epoch_batches(data.train.len(), 16, &mut data_rng).iter() {
                steps += 1;
                let t0 = Instant::now();
                let chunk: Vec<&MaskedSentence> = scope
                    .record("profile", "batch", || batch.iter().map(|&i| &data.train[i]).collect());
                let t1 = Instant::now();
                opt.zero_grad();
                let loss = scope.record("profile", "forward", || model.loss(&chunk));
                let t2 = Instant::now();
                scope.record("profile", "backward", || loss.backward());
                let t3 = Instant::now();
                scope.record("profile", "optimizer", || opt.step(0.01));
                let t4 = Instant::now();
                t_batch += t1 - t0;
                t_fwd += t2 - t1;
                t_bwd += t3 - t2;
                t_opt += t4 - t3;
            }
            scope.end(epoch_span);
        }
        let per = |d: Duration| d.as_secs_f64() * 1e6 / steps as f64;
        let [batch, fwd, bwd, opt, total] =
            [t_batch, t_fwd, t_bwd, t_opt, t_batch + t_fwd + t_bwd + t_opt].map(per);
        out!(
            host_text,
            "{kind:>10}: batch {batch:7.1}us  fwd {fwd:7.1}us  bwd {bwd:7.1}us  opt {opt:7.1}us  \
             total {total:7.1}us/step ({steps} steps)"
        );
        let k = kernel_stats();
        let (reference, direct, packed) = (k.gemm_reference, k.gemm_direct, k.gemm_packed);
        let kib = k.packed_bytes / 1024;
        out!(
            host_text,
            "  kernels on {kind}: gemm ref {reference} / direct {direct} / packed {packed} \
             (packed {kib} KiB)"
        );
        scope.end(backend_span);
    }
    Report { host_text, ..Report::new(&Value::Null, String::new(), Vec::new()) }
}
