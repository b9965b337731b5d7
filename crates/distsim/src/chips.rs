//! Chip and interconnect models, the ring all-reduce cost, and the
//! data-parallel step-time model.

/// An accelerator chip model.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSpec {
    /// Marketing name.
    pub name: String,
    /// Peak training throughput in TFLOP/s (mixed precision).
    pub tflops: f64,
    /// Device memory in GiB — bounds the per-chip batch.
    pub memory_gib: f64,
    /// Achievable fraction of peak on real layers (0–1).
    pub utilization: f64,
}

impl ChipSpec {
    /// Sustained throughput in FLOP/s.
    pub(crate) fn sustained_flops(&self) -> f64 {
        self.tflops * 1e12 * self.utilization
    }

    /// Maximum per-chip batch for a model with `bytes_per_sample`
    /// activation footprint.
    pub(crate) fn max_batch(&self, bytes_per_sample: f64) -> usize {
        ((self.memory_gib * 0.6 * (1 << 30) as f64) / bytes_per_sample).floor() as usize
    }
}

/// A cluster interconnect model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interconnect {
    /// Per-link bandwidth in GB/s.
    pub bandwidth_gbs: f64,
    /// Per-hop latency in microseconds.
    pub latency_us: f64,
}

/// A complete system: chips plus fabric.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SystemConfig {
    /// The accelerator model used.
    pub chip: ChipSpec,
    /// Number of accelerator chips.
    pub chips: usize,
    /// The fabric connecting them.
    pub interconnect: Interconnect,
}

/// Time (seconds) for a ring all-reduce of `bytes` over `n` chips:
/// `2·(n−1)/n · bytes / bandwidth + 2·(n−1) · latency`.
///
/// With one chip the cost is zero.
pub(crate) fn allreduce_time(bytes: f64, n: usize, fabric: Interconnect) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let nf = n as f64;
    let bw = fabric.bandwidth_gbs * 1e9;
    2.0 * (nf - 1.0) / nf * bytes / bw + 2.0 * (nf - 1.0) * fabric.latency_us * 1e-6
}

/// Time (seconds) for one data-parallel training step: per-chip compute
/// on `batch / chips` samples, then a gradient all-reduce of the model
/// parameters, discounted by `overlap` (0 = fully serialized, 1 = fully
/// hidden behind compute).
///
/// # Panics
///
/// Panics if `system.chips` is zero or the batch does not fill every
/// chip with at least one sample.
pub(crate) fn step_time(
    system: &SystemConfig,
    global_batch: usize,
    flops_per_sample: f64,
    param_bytes: f64,
    software_efficiency: f64,
    overlap: f64,
) -> f64 {
    assert!(system.chips > 0, "system must have chips");
    assert!(
        global_batch >= system.chips,
        "batch {global_batch} smaller than chip count {}",
        system.chips
    );
    let per_chip = (global_batch as f64 / system.chips as f64).ceil();
    let compute =
        per_chip * flops_per_sample / (system.chip.sustained_flops() * software_efficiency);
    let comm = allreduce_time(param_bytes, system.chips, system.interconnect);
    compute + comm * (1.0 - overlap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> ChipSpec {
        ChipSpec { name: "sim-v100".into(), tflops: 125.0, memory_gib: 16.0, utilization: 0.4 }
    }

    fn fabric() -> Interconnect {
        Interconnect { bandwidth_gbs: 25.0, latency_us: 5.0 }
    }

    #[test]
    fn allreduce_zero_for_single_chip() {
        assert_eq!(allreduce_time(1e9, 1, fabric()), 0.0);
    }

    #[test]
    fn allreduce_bandwidth_term_saturates() {
        // The 2(n-1)/n factor approaches 2, so doubling n at large n
        // barely changes the bandwidth term while latency keeps growing.
        let t64 = allreduce_time(1e9, 64, fabric());
        let t128 = allreduce_time(1e9, 128, fabric());
        assert!(t128 > t64);
        let bw64 = 2.0 * 63.0 / 64.0 * 1e9 / 25e9;
        assert!((t64 - bw64 - 2.0 * 63.0 * 5e-6).abs() < 1e-9);
    }

    #[test]
    fn allreduce_scales_with_bytes() {
        let a = allreduce_time(1e9, 8, fabric());
        let b = allreduce_time(2e9, 8, fabric());
        assert!(b > a * 1.5 && b < a * 2.5);
    }

    #[test]
    fn step_time_weak_scaling() {
        // Fixed per-chip batch: step time grows only by communication
        // (fast fabric so the all-reduce stays below compute).
        let fabric = Interconnect { bandwidth_gbs: 150.0, latency_us: 2.0 };
        let mk = |n| SystemConfig { chip: chip(), chips: n, interconnect: fabric };
        let t1 = step_time(&mk(1), 32, 1e10, 1e8, 1.0, 0.0);
        let t16 = step_time(&mk(16), 32 * 16, 1e10, 1e8, 1.0, 0.0);
        assert!(t16 > t1, "communication must add cost");
        assert!(t16 < t1 * 2.0, "weak scaling overhead too large");
    }

    #[test]
    fn step_time_strong_scaling_reduces_compute() {
        let fabric = Interconnect { bandwidth_gbs: 300.0, latency_us: 1.0 };
        let mk = |n| SystemConfig { chip: chip(), chips: n, interconnect: fabric };
        // Fixed global batch: more chips -> less compute per chip.
        let t1 = step_time(&mk(1), 256, 1e10, 1e8, 1.0, 0.5);
        let t8 = step_time(&mk(8), 256, 1e10, 1e8, 1.0, 0.5);
        assert!(t8 < t1, "strong scaling failed: {t1} -> {t8}");
    }

    #[test]
    fn software_efficiency_speeds_compute() {
        let sys = SystemConfig { chip: chip(), chips: 4, interconnect: fabric() };
        let slow = step_time(&sys, 64, 1e10, 1e8, 1.0, 0.0);
        let fast = step_time(&sys, 64, 1e10, 1e8, 1.3, 0.0);
        assert!(fast < slow);
    }

    #[test]
    fn max_batch_scales_with_memory() {
        let small = chip();
        let mut big = chip();
        big.memory_gib = 32.0;
        assert!(big.max_batch(1e6) >= small.max_batch(1e6) * 2 - 1);
    }

    #[test]
    #[should_panic(expected = "smaller than chip count")]
    fn underfilled_system_panics() {
        let sys = SystemConfig { chip: chip(), chips: 64, interconnect: fabric() };
        step_time(&sys, 32, 1e10, 1e8, 1.0, 0.0);
    }
}
