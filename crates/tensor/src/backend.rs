//! Execution backends: which serial GEMM kernel runs.
//!
//! [`Tensor`](crate::Tensor) methods validate shapes and allocate
//! outputs, then hand the inner loops to the backend both operands
//! resolve to — the split between op definition and kernel of
//! autograph's `Device`-parameterized tensors and dfdx's op
//! registration.
//!
//! # A backend is one serial GEMM
//!
//! A backend is one decision and nothing else: which kernel computes
//! `out += a · b` (`BackendKind::gemm`, whose only branch is a `match`
//! on the kind).
//!
//! - [`BackendKind::Reference`] runs the original scalar `ikj` loop of
//!   this crate, verbatim: every floating-point operation and the order
//!   it happens in. It is the semantic baseline — every convergence
//!   result in the workspace is defined by it, and it must never change
//!   numerically (`tests/golden_trajectory.rs` pins what that means, to
//!   the bit).
//! - [`BackendKind::Blocked`] picks per call between that row kernel
//!   (outputs narrower than a register tile), a register-tiled direct
//!   kernel and a cache-blocked packed-panel kernel.
//!
//! Kernels run serially on one thread — whichever thread calls them, on
//! both backends. This crate spawns no thread and does not depend on
//! the worker pool: a pool call spawns and joins threads, which at these
//! shapes costs more than the GEMM it would split. Parallelism enters a
//! training step above the kernels: `mlperf-autograd`'s gradient worker
//! runs the parameter-gradient kernels of a backward pass on a second
//! thread, which is why a [`Tensor`](crate::Tensor) is `Send + Sync`.
//!
//! Everything else is written once on top of the GEMM, for every
//! backend: the transposed forms `gemm_abt` / `gemm_atb` (transpose,
//! then the serial kernel — a strided no-copy tile kernel was tried and
//! lost on every training shape, because reading `b` with stride `k`
//! defeats vectorization while the transpose costs one linear pass) and
//! the convolution driver here, whose backward comes in two halves (the
//! input gradient, and the weight and bias gradients) so the tape can
//! run them on different threads; the batch loop of `bmm*` and the bias
//! rows of `matmul_bias` in `matmul.rs`; softmax, log-softmax and the
//! axis sum in `reduce.rs`, which are plain serial loops that never see
//! a backend at all.
//!
//! # Numerical contract
//!
//! `Blocked` preserves the *per-output-element summation order* of
//! `Reference` in every kernel: each output element accumulates its
//! `k` products in ascending-`k` order into an accumulator that starts
//! at `+0.0`, exactly like the reference `ikj` loop. Tiling changes
//! which elements are computed near each other in time, never the
//! order of additions within one element, so for finite inputs the two
//! backends are **bit-identical**. The only divergence is non-finite
//! propagation: the reference GEMM skips `a` values that equal zero (so
//! `0 × ∞` never happens), while the blocked kernels multiply through
//! (yielding `NaN`); this is unobservable for finite data.
//!
//! # What a backend does not own
//!
//! Work that computes nothing is shared by both backends and is free to
//! get faster: the index walk behind broadcasting and
//! [`Tensor::permute`](crate::Tensor::permute) (one odometer,
//! `shape::RowOffsets`), tensor storage (shared copy-on-write, so a
//! clone or a reshape copies nothing), and the convolution lowering
//! (`conv::im2col_into`, `conv::col2im_one`: whole row runs moved per
//! kernel tap, none at all for a 1×1 stride-1 convolution, whose
//! columns are the input planes). None of them reads the backend tag,
//! and none can touch a result bit.
//!
//! Nor does a backend own anything above this crate: it is not a second
//! implementation of a layer. `mlperf-autograd`, `mlperf-nn` and
//! `mlperf-models` build one graph of ops whatever the tag and never
//! read it (CI greps that they do not name [`BackendKind`]), so the only
//! place the two backends can disagree is the one `match` in
//! `BackendKind::gemm` — and CI greps that no per-backend batch loop,
//! bias, softmax or axis-sum body comes back beside it.
//!
//! # Selection
//!
//! Every tensor carries a [`BackendKind`] tag. Freshly constructed
//! tensors take [`BackendKind::default`] (`Reference`); there is no
//! process-global switch. A tensor moves with [`Tensor::on`], and a
//! [`crate::TensorRng::with_backend`] stream mints its tensors on one
//! backend. Binary operations resolve to [`BackendKind::join`] of their
//! operands, so a model whose weights were initialized on `Blocked`
//! pulls the whole training step onto `Blocked` without any
//! per-callsite changes — activations, gradients and optimizer state
//! inherit the tag through the ops that produce them.

use crate::conv::{col2im_one, im2col_into, nchw, Conv2dSpec};
use crate::tensor::Tensor;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Which execution backend a tensor's kernels run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The original scalar arithmetic, verbatim — the numerical
    /// baseline, and the tag every new tensor starts with.
    #[default]
    Reference,
    /// Register-tiled, cache-blocked kernels that are bit-identical to
    /// [`BackendKind::Reference`] on finite inputs.
    Blocked,
}

impl BackendKind {
    /// Every backend, for parity sweeps.
    pub const ALL: [BackendKind; 2] = [BackendKind::Reference, BackendKind::Blocked];

    /// Stable lower-case label (`"reference"` / `"blocked"`).
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Reference => "reference",
            BackendKind::Blocked => "blocked",
        }
    }

    /// Backend a binary op resolves to: `Blocked` wins, so a single
    /// `Blocked` operand (typically the model weights) is infectious.
    pub fn join(self, other: BackendKind) -> BackendKind {
        if self == BackendKind::Blocked || other == BackendKind::Blocked {
            BackendKind::Blocked
        } else {
            BackendKind::Reference
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The kernels, each serial on the thread that calls it. All
/// GEMM-family methods assume `out` is zero-filled (callers allocate
/// with `vec![0.0; ..]`) and may either accumulate into it or overwrite
/// it — the two are indistinguishable under that contract.
impl BackendKind {
    /// `out += a[m,k] · b[k,n]`, `out` pre-zeroed: the one place the two
    /// backends differ.
    pub(crate) fn gemm(self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        match self {
            BackendKind::Reference => reference_gemm(a, b, out, m, k, n),
            BackendKind::Blocked => blocked_gemm_serial(a, b, out, m, k, n),
        }
    }

    /// `out = a[m,k] · b[n,k]ᵀ` (`b` row-major `[n, k]`), `out`
    /// pre-zeroed: the backward-pass form `grad · Bᵀ`, i.e.
    /// `a.matmul(&b.transpose())` with the copy kept off the tensor API,
    /// accumulation still ascending-`k`.
    pub(crate) fn gemm_abt(
        self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        self.gemm(a, &transpose(b, n, k), out, m, k, n);
    }

    /// `out = a[k,m]ᵀ · b[k,n]` (`a` row-major `[k, m]`), `out`
    /// pre-zeroed: the backward-pass form `Aᵀ · grad`, like
    /// [`BackendKind::gemm_abt`].
    pub(crate) fn gemm_atb(
        self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        self.gemm(&transpose(a, k, m), b, out, m, k, n);
    }

    /// Full conv2d forward (`input` NCHW, `weight` `[oc, c, k, k]`):
    /// shape checks up front, then per sample lower it, multiply the
    /// weight matrix straight into that sample's output slice and add
    /// the bias, with one lowering scratch reused across samples.
    pub(crate) fn conv2d(
        self,
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv2dSpec,
    ) -> Tensor {
        let g = ConvGeometry::new(input, weight, spec);
        if let Some(b) = bias {
            assert_eq!(b.shape(), &[g.oc], "conv2d bias must be [{}]", g.oc);
        }
        let per_sample = g.oc * g.ohow;
        let mut out = vec![0.0f32; g.n * per_sample];
        let mut cols = Vec::new();
        for ni in 0..g.n {
            let chunk = &mut out[ni * per_sample..(ni + 1) * per_sample];
            self.gemm(weight.data(), g.lower(input, ni, &mut cols), chunk, g.oc, g.ckk, g.ohow);
            if let Some(b) = bias {
                for (plane, &bv) in chunk.chunks_exact_mut(g.ohow).zip(b.data()) {
                    for v in plane {
                        *v += bv;
                    }
                }
            }
        }
        Tensor::from_vec(out, &[g.n, g.oc, g.oh, g.ow])
    }

    /// The input half of conv2d backward: `grad_input`, per sample
    /// `gemm_atb(weight, go)` scattered back by `col2im`. It never lowers
    /// the input, and it transposes the weight once for every sample —
    /// the same transpose `gemm_atb` would redo per sample, so the same
    /// arithmetic.
    pub(crate) fn conv2d_backward_input(
        self,
        input: &Tensor,
        weight: &Tensor,
        grad_out: &Tensor,
        spec: Conv2dSpec,
    ) -> Tensor {
        let g = ConvGeometry::backward(input, weight, grad_out, spec);
        let (chw, ckk, ohow) = (g.dims.iter().product::<usize>(), g.ckk, g.ohow);
        let mut grad_in = vec![0.0f32; g.n * chw];
        let weight_t = transpose(weight.data(), g.oc, ckk);
        let mut dcols = vec![0.0f32; ckk * ohow];
        for ni in 0..g.n {
            dcols.fill(0.0);
            self.gemm(&weight_t, g.grad_out(grad_out, ni), &mut dcols, ckk, g.oc, ohow);
            col2im_one(&dcols, &mut grad_in[ni * chw..(ni + 1) * chw], g.dims, spec);
        }
        Tensor::from_vec(grad_in, input.shape())
    }

    /// The weight half of conv2d backward: `(grad_weight, grad_bias)`.
    /// Serial over samples — the per-sample `grad_w` accumulation order
    /// is part of the numerical contract — with one `cols` and `gw`
    /// scratch reused across all of them.
    pub(crate) fn conv2d_backward_weight(
        self,
        input: &Tensor,
        weight: &Tensor,
        grad_out: &Tensor,
        spec: Conv2dSpec,
    ) -> (Tensor, Tensor) {
        let g = ConvGeometry::backward(input, weight, grad_out, spec);
        let (ckk, ohow) = (g.ckk, g.ohow);
        let mut grad_w = vec![0.0f32; g.oc * ckk];
        let mut grad_b = vec![0.0f32; g.oc];
        let mut cols = Vec::new();
        let mut gw = vec![0.0f32; g.oc * ckk];
        for ni in 0..g.n {
            let go = g.grad_out(grad_out, ni);
            gw.fill(0.0);
            self.gemm_abt(go, g.lower(input, ni, &mut cols), &mut gw, g.oc, ohow, ckk);
            for (acc, &v) in grad_w.iter_mut().zip(gw.iter()) {
                *acc += v;
            }
            for (acc, plane) in grad_b.iter_mut().zip(go.chunks_exact(ohow)) {
                *acc += plane.iter().sum::<f32>();
            }
        }
        (Tensor::from_vec(grad_w, weight.shape()), Tensor::from_vec(grad_b, &[g.oc]))
    }
}

/// `src` (`[rows, cols]` row-major) copied into `[cols, rows]` — what
/// the transposed GEMM forms feed the serial kernel.
pub(crate) fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; rows * cols];
    for i in 0..rows {
        for (j, &v) in src[i * cols..(i + 1) * cols].iter().enumerate() {
            out[j * rows + i] = v;
        }
    }
    out
}

/// The geometry of one convolution, checked once up front so neither
/// direction can index a malformed weight or mis-size its scratch.
struct ConvGeometry {
    n: usize,
    /// One input sample: `[c, h, w]`.
    dims: [usize; 3],
    oc: usize,
    oh: usize,
    ow: usize,
    /// Rows of the column form, `c * k * k`.
    ckk: usize,
    /// Columns of the column form, `oh * ow`.
    ohow: usize,
    spec: Conv2dSpec,
}

impl ConvGeometry {
    fn new(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Self {
        let (n, c, h, w) = nchw(input);
        let ws = weight.shape();
        assert_eq!(ws.len(), 4, "conv2d weight must be 4-D, got {:?}", ws);
        let (oc, wc, kh, kw) = (ws[0], ws[1], ws[2], ws[3]);
        assert_eq!(wc, c, "conv2d channel mismatch: input {c}, weight {wc}");
        assert_eq!(kh, spec.kernel, "weight kernel height disagrees with spec");
        assert_eq!(kw, spec.kernel, "weight kernel width disagrees with spec");
        let (oh, ow) = (spec.out_extent(h), spec.out_extent(w));
        ConvGeometry { n, dims: [c, h, w], oc, oh, ow, ckk: c * kh * kw, ohow: oh * ow, spec }
    }

    /// The geometry of a backward half, with `grad_out` checked against
    /// the forward output shape.
    fn backward(input: &Tensor, weight: &Tensor, grad_out: &Tensor, spec: Conv2dSpec) -> Self {
        let g = ConvGeometry::new(input, weight, spec);
        assert_eq!(
            grad_out.shape(),
            &[g.n, g.oc, g.oh, g.ow],
            "grad_out shape mismatch in conv2d backward"
        );
        g
    }

    /// Sample `ni` of `grad_out` as a `[oc, ohow]` matrix.
    fn grad_out<'a>(&self, grad_out: &'a Tensor, ni: usize) -> &'a [f32] {
        let per_sample = self.oc * self.ohow;
        &grad_out.data()[ni * per_sample..(ni + 1) * per_sample]
    }

    /// Sample `ni` in column form `[ckk, ohow]`. The columns of a 1×1,
    /// stride-1, unpadded convolution *are* the input planes, so that
    /// case borrows them; every other lowers into `cols`.
    fn lower<'a>(&self, input: &'a Tensor, ni: usize, cols: &'a mut Vec<f32>) -> &'a [f32] {
        let chw = self.dims.iter().product::<usize>();
        let sample = &input.data()[ni * chw..(ni + 1) * chw];
        if self.spec == Conv2dSpec::new(1, 1, 0) {
            return sample;
        }
        cols.resize(self.ckk * self.ohow, 0.0);
        im2col_into(sample, self.dims, self.spec, cols);
        cols
    }
}

// ---------------------------------------------------------------------
// Reference backend: the original scalar arithmetic, verbatim.
// ---------------------------------------------------------------------

/// The reference accumulating GEMM kernel, exactly as it was before
/// backends existed: i-k-j loop order with a zero-skip on `a`.
pub(crate) fn reference_gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            if av == 0.0 {
                continue;
            }
            let brow = &b[kk * n..kk * n + n];
            let orow = &mut out[i * n..i * n + n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Blocked backend: register-tiled, cache-blocked.
// ---------------------------------------------------------------------

/// Microkernel tile height (rows of `a` held in registers).
const MR: usize = 4;
/// Microkernel tile width (columns of `b` held in registers).
const NR: usize = 16;
/// Use the direct (unpacked) kernel while `b` fits in L1; above this,
/// pack `b` into `k × NR` panels first.
const PACK_B_ABOVE: usize = 8 * 1024;
/// Rows of `a` below which packing cannot amortize: each packed panel
/// is streamed only `m / MR` times before being rebuilt.
const PACK_MIN_M: usize = 32;

// ---------------------------------------------------------------------
// Optional kernel dispatch counters.
//
// Process-global and off by default: the GEMM hot path pays exactly one
// relaxed bool load until `enable_kernel_stats()` flips them on (the
// profiler and `round_pipeline --metrics` do). They answer the tuning
// questions the dispatch constants above raise — which path did real
// workloads actually take, and how much packing did they pay for.
// ---------------------------------------------------------------------

static KERNEL_STATS_ON: AtomicBool = AtomicBool::new(false);
static GEMM_REFERENCE: AtomicU64 = AtomicU64::new(0);
static GEMM_DIRECT: AtomicU64 = AtomicU64::new(0);
static GEMM_PACKED: AtomicU64 = AtomicU64::new(0);
static PACKED_BYTES: AtomicU64 = AtomicU64::new(0);

/// A point-in-time reading of the `Blocked` backend's dispatch
/// counters (all zero until [`enable_kernel_stats`] is called).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// Serial GEMM calls that took the reference row kernel
    /// (`n < NR`).
    pub gemm_reference: u64,
    /// Serial GEMM calls that took the direct register-tile kernel.
    pub gemm_direct: u64,
    /// Serial GEMM calls that took the packed-panel kernel.
    pub gemm_packed: u64,
    /// Bytes copied into packed `b` panels.
    pub packed_bytes: u64,
    /// Always 0: no kernel fans out to a worker pool any more. Kept
    /// only because the benchmark (`benchmark/src/train.rs`) still
    /// reports it as `tensor.gemm_fanouts`; it goes with that row
    /// (ROADMAP item 1(d)).
    pub gemm_fanouts: u64,
}

/// Turns the kernel dispatch counters on (they stay on for the life of
/// the process).
pub fn enable_kernel_stats() {
    KERNEL_STATS_ON.store(true, Ordering::Relaxed);
}

/// Reads the kernel dispatch counters.
pub fn kernel_stats() -> KernelStats {
    KernelStats {
        gemm_reference: GEMM_REFERENCE.load(Ordering::Relaxed),
        gemm_direct: GEMM_DIRECT.load(Ordering::Relaxed),
        gemm_packed: GEMM_PACKED.load(Ordering::Relaxed),
        packed_bytes: PACKED_BYTES.load(Ordering::Relaxed),
        gemm_fanouts: 0,
    }
}

/// Zeroes the kernel dispatch counters (the profiler resets between
/// backends to attribute counts per run).
pub fn reset_kernel_stats() {
    for cell in [&GEMM_REFERENCE, &GEMM_DIRECT, &GEMM_PACKED, &PACKED_BYTES] {
        cell.store(0, Ordering::Relaxed);
    }
}

#[inline]
fn bump(cell: &AtomicU64, n: u64) {
    if KERNEL_STATS_ON.load(Ordering::Relaxed) {
        cell.fetch_add(n, Ordering::Relaxed);
    }
}

/// Serial blocked GEMM: register-tiled microkernel, packing `b` into
/// L1-resident panels when it is large. Per output element the `k`
/// products accumulate in ascending order from `+0.0`, matching the
/// reference kernel bit-for-bit on finite inputs.
///
/// Outputs narrower than one `NR` tile never fill a register tile, so
/// they dispatch to the reference row kernel instead — bit-identical
/// (the reference zero-skip can never flip an accumulator bit on
/// finite inputs, because an accumulator seeded at `+0.0` can never
/// become `-0.0`), and faster than the tile remainder path.
fn blocked_gemm_serial(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if n < NR {
        bump(&GEMM_REFERENCE, 1);
        reference_gemm(a, b, out, m, k, n);
    } else if k * n <= PACK_B_ABOVE || m < PACK_MIN_M {
        bump(&GEMM_DIRECT, 1);
        blocked_gemm_direct(a, b, out, m, k, n);
    } else {
        bump(&GEMM_PACKED, 1);
        blocked_gemm_packed(a, b, out, m, k, n);
    }
}

/// Direct microkernel: `MR × NR` register tiles over the full `k`
/// extent, reading `b` rows in place.
fn blocked_gemm_direct(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let mut i = 0;
    while i + MR <= m {
        let mut j = 0;
        while j + NR <= n {
            let mut acc = [[0.0f32; NR]; MR];
            for kk in 0..k {
                let brow = &b[kk * n + j..kk * n + j + NR];
                for r in 0..MR {
                    let av = a[(i + r) * k + kk];
                    let accr = &mut acc[r];
                    for c in 0..NR {
                        accr[c] += av * brow[c];
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                out[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(accr);
            }
            j += NR;
        }
        if j < n {
            let w = n - j;
            let mut acc = [[0.0f32; NR]; MR];
            for kk in 0..k {
                let brow = &b[kk * n + j..kk * n + j + w];
                for r in 0..MR {
                    let av = a[(i + r) * k + kk];
                    for (c, &bv) in brow.iter().enumerate() {
                        acc[r][c] += av * bv;
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                out[(i + r) * n + j..(i + r) * n + n].copy_from_slice(&accr[..w]);
            }
        }
        i += MR;
    }
    for r in i..m {
        blocked_row_times_matrix(&a[r * k..(r + 1) * k], b, &mut out[r * n..(r + 1) * n], n);
    }
}

/// One output row: `orow = arow · b`, `NR`-tiled.
fn blocked_row_times_matrix(arow: &[f32], b: &[f32], orow: &mut [f32], n: usize) {
    let mut j = 0;
    while j < n {
        let w = NR.min(n - j);
        let mut acc = [0.0f32; NR];
        for (kk, &av) in arow.iter().enumerate() {
            let brow = &b[kk * n + j..kk * n + j + w];
            for (c, &bv) in brow.iter().enumerate() {
                acc[c] += av * bv;
            }
        }
        orow[j..j + w].copy_from_slice(&acc[..w]);
        j += NR;
    }
}

/// Packed-panel GEMM for large `b`: each `k × NR` column panel of `b`
/// is copied contiguous once, then streamed through the register
/// microkernel for every row block — turning the strided `b` accesses
/// of the direct kernel into sequential L1 reads.
fn blocked_gemm_packed(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let mut panel = vec![0.0f32; k * NR];
    // All of `b` is copied into panels exactly once.
    bump(&PACKED_BYTES, (k * n * std::mem::size_of::<f32>()) as u64);
    let mut j = 0;
    while j < n {
        let w = NR.min(n - j);
        for kk in 0..k {
            panel[kk * NR..kk * NR + w].copy_from_slice(&b[kk * n + j..kk * n + j + w]);
            panel[kk * NR + w..(kk + 1) * NR].fill(0.0);
        }
        let mut i = 0;
        while i + MR <= m {
            let mut acc = [[0.0f32; NR]; MR];
            for kk in 0..k {
                let bv = &panel[kk * NR..(kk + 1) * NR];
                for r in 0..MR {
                    let av = a[(i + r) * k + kk];
                    let accr = &mut acc[r];
                    for c in 0..NR {
                        accr[c] += av * bv[c];
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                out[(i + r) * n + j..(i + r) * n + j + w].copy_from_slice(&accr[..w]);
            }
            i += MR;
        }
        for r in i..m {
            let mut acc = [0.0f32; NR];
            for kk in 0..k {
                let av = a[r * k + kk];
                let bv = &panel[kk * NR..(kk + 1) * NR];
                for c in 0..NR {
                    acc[c] += av * bv[c];
                }
            }
            out[r * n + j..r * n + j + w].copy_from_slice(&acc[..w]);
        }
        j += NR;
    }
}

/// The index-form 2-D transpose loop both `Reference` GEMM forms ran
/// before [`transpose`] (as in `Tensor::transpose`), kept verbatim: the
/// parent oracles here, in `matmul.rs` and in `conv.rs` are built on it.
#[cfg(test)]
pub(crate) fn reference_transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; rows * cols];
    for i in 0..rows {
        for j in 0..cols {
            out[j * rows + i] = src[i * cols + j];
        }
    }
    out
}

/// `(m, k, n)` on both sides of every dispatch edge of the `Blocked`
/// GEMM: the first arm crosses `MR`, `NR` and `PACK_MIN_M` with `b`
/// small, the second has `k·n` around `PACK_B_ABOVE` with `m` around
/// `PACK_MIN_M`, so it lands on the direct and the packed kernel.
#[cfg(test)]
pub(crate) fn gemm_shapes() -> impl proptest::strategy::Strategy<Value = (usize, usize, usize)> {
    proptest::prop_oneof![
        (1usize..40, 1usize..24, 1usize..40),
        (28usize..40, 90usize..140, 60usize..100),
    ]
}

/// Deterministic pseudo-random buffer (negatives, magnitude spread, and
/// exact zeros sprinkled in so the reference zero-skip runs).
#[cfg(test)]
pub(crate) fn buf(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = crate::init::TensorRng::new(seed);
    let mut v: Vec<f32> = rng.uniform(&[len.max(1)], -1.5, 1.5).into_vec();
    for i in (0..len).step_by(7) {
        v[i] = 0.0;
    }
    v.truncate(len);
    v
}

#[cfg(test)]
pub(crate) fn assert_bits_equal(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} differs: {x} vs {y}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Gemm = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

    /// `Reference::gemm_abt` as it stood before the provided body, verbatim.
    fn reference_parent_gemm_abt(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        // Verbatim composition of the pre-backend call sites:
        // `a.matmul(&b.transpose())`.
        let bt = reference_transpose(b, n, k); // [n,k] -> [k,n]
        reference_gemm(a, &bt, out, m, k, n);
    }

    /// `Reference::gemm_atb` likewise.
    fn reference_parent_gemm_atb(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        // Verbatim composition of `a.transpose().matmul(b)`.
        let at = reference_transpose(a, k, m); // [k,m] -> [m,k]
        reference_gemm(&at, b, out, m, k, n);
    }

    /// `blocked_gemm_abt` (what `Blocked::gemm_abt` called) as it stood
    /// before the provided body, verbatim.
    fn blocked_parent_gemm_abt(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let mut bt = vec![0.0f32; k * n];
        for j in 0..n {
            for (kk, &v) in b[j * k..(j + 1) * k].iter().enumerate() {
                bt[kk * n + j] = v;
            }
        }
        blocked_gemm_serial(a, &bt, out, m, k, n);
    }

    /// `blocked_gemm_atb` likewise.
    fn blocked_parent_gemm_atb(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let mut at = vec![0.0f32; m * k];
        for kk in 0..k {
            for (i, &v) in a[kk * m..(kk + 1) * m].iter().enumerate() {
                at[i * k + kk] = v;
            }
        }
        blocked_gemm_serial(&at, b, out, m, k, n);
    }

    proptest! {
        /// The one provided `gemm_abt` / `gemm_atb` against the body each
        /// backend had of its own, to the bit.
        #[test]
        fn transposed_forms_match_each_backends_parent((m, k, n) in gemm_shapes(), seed in 0u64..1 << 32) {
            let (a, bt) = (buf(m * k, seed), buf(n * k, seed + 1));
            let (at, b) = (buf(k * m, seed + 2), buf(k * n, seed + 3));
            let parents: [(BackendKind, Gemm, Gemm); 2] = [
                (BackendKind::Reference, reference_parent_gemm_abt, reference_parent_gemm_atb),
                (BackendKind::Blocked, blocked_parent_gemm_abt, blocked_parent_gemm_atb),
            ];
            for (kind, parent_abt, parent_atb) in parents {
                let (mut got, mut want) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
                kind.gemm_abt(&a, &bt, &mut got, m, k, n);
                parent_abt(&a, &bt, &mut want, m, k, n);
                assert_bits_equal(&got, &want, &format!("{kind} gemm_abt {m}x{k}x{n}"));

                let (mut got, mut want) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
                kind.gemm_atb(&at, &b, &mut got, m, k, n);
                parent_atb(&at, &b, &mut want, m, k, n);
                assert_bits_equal(&got, &want, &format!("{kind} gemm_atb {m}x{k}x{n}"));
            }
        }
    }

    #[test]
    fn kernel_stats_count_dispatch_paths() {
        // The counters are process-global and sticky-on, and other
        // tests exercise GEMMs concurrently, so only bound the deltas below.
        enable_kernel_stats();
        let before = kernel_stats();

        // n < NR: reference row kernel.
        let (a, b) = (buf(4 * 8, 3), buf(8 * 4, 5));
        let mut out = vec![0.0f32; 4 * 4];
        blocked_gemm_serial(&a, &b, &mut out, 4, 8, 4);

        // Small k*n, n >= NR: direct kernel.
        let (a, b) = (buf(8 * 8, 7), buf(8 * 16, 11));
        let mut out = vec![0.0f32; 8 * 16];
        blocked_gemm_serial(&a, &b, &mut out, 8, 8, 16);

        // k*n > PACK_B_ABOVE and m >= PACK_MIN_M: packed kernel.
        let (m, k, n) = (33, 200, 65);
        let (a, b) = (buf(m * k, 13), buf(k * n, 17));
        let mut out = vec![0.0f32; m * n];
        blocked_gemm_serial(&a, &b, &mut out, m, k, n);

        let after = kernel_stats();
        assert!(after.gemm_reference > before.gemm_reference);
        assert!(after.gemm_direct > before.gemm_direct);
        assert!(after.gemm_packed > before.gemm_packed);
        let pack = (k * n * std::mem::size_of::<f32>()) as u64;
        assert!(after.packed_bytes >= before.packed_bytes + pack, "all of b is packed once");
    }

    #[test]
    fn blocked_gemm_bit_identical_across_shapes() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 16, 16),
            (5, 3, 17),
            (13, 1, 33),
            (192, 16, 16),
            (64, 48, 96),
            (33, 200, 65), // k*n > PACK_B_ABOVE: packed path
        ] {
            let a = buf(m * k, 11);
            let b = buf(k * n, 23);
            let mut r = vec![0.0f32; m * n];
            let mut bl = vec![0.0f32; m * n];
            BackendKind::Reference.gemm(&a, &b, &mut r, m, k, n);
            BackendKind::Blocked.gemm(&a, &b, &mut bl, m, k, n);
            assert_bits_equal(&r, &bl, &format!("gemm {m}x{k}x{n}"));
        }
    }

    #[test]
    fn blocked_transposed_gemms_bit_identical() {
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (3, 5, 7), (16, 12, 20), (37, 9, 5)] {
            let a = buf(m * k, 31);
            let b = buf(n * k, 41);
            let mut r = vec![0.0f32; m * n];
            let mut bl = vec![0.0f32; m * n];
            BackendKind::Reference.gemm_abt(&a, &b, &mut r, m, k, n);
            BackendKind::Blocked.gemm_abt(&a, &b, &mut bl, m, k, n);
            assert_bits_equal(&r, &bl, &format!("gemm_abt {m}x{k}x{n}"));

            let a = buf(k * m, 51);
            let b = buf(k * n, 61);
            let mut r = vec![0.0f32; m * n];
            let mut bl = vec![0.0f32; m * n];
            BackendKind::Reference.gemm_atb(&a, &b, &mut r, m, k, n);
            BackendKind::Blocked.gemm_atb(&a, &b, &mut bl, m, k, n);
            assert_bits_equal(&r, &bl, &format!("gemm_atb {m}x{k}x{n}"));
        }
    }

    #[test]
    fn join_prefers_blocked() {
        let (r, b) = (BackendKind::Reference, BackendKind::Blocked);
        assert_eq!(r.join(r), r);
        assert_eq!(r.join(b), b);
        assert_eq!(b.join(r), b);
        assert_eq!(b.join(b), b);
    }
}
