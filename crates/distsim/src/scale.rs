//! The cloud scale metric (§4.2.3).
//!
//! The paper: "for cloud systems, a cloud scale metric was derived
//! from: 1) number of host processors, 2) amount of host memory, and
//! 3) number and type of accelerators. We empirically verified that
//! cloud scale correlates closely with cost across three major cloud
//! providers."

/// A cloud system description, as submitted alongside results.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudSystemDescription {
    /// Host vCPU count.
    pub host_processors: usize,
    /// Host memory in GiB.
    pub host_memory_gib: f64,
    /// Number of accelerator chips.
    pub accelerators: usize,
    /// Relative cost weight of the accelerator type (1.0 = the
    /// reference accelerator generation).
    pub accelerator_weight: f64,
}

/// Computes the cloud scale metric: a cost-proxy combining host
/// processors, host memory and weighted accelerator count. Calibrated
/// so one reference accelerator with a typical host slice scores 1.0.
pub fn cloud_scale(desc: &CloudSystemDescription) -> f64 {
    const PROC_WEIGHT: f64 = 0.01;
    const MEM_WEIGHT: f64 = 0.0008;
    const ACCEL_SHARE: f64 = 0.87;
    ACCEL_SHARE * desc.accelerators as f64 * desc.accelerator_weight
        + PROC_WEIGHT * desc.host_processors as f64
        + MEM_WEIGHT * desc.host_memory_gib
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_accel_slice() -> CloudSystemDescription {
        CloudSystemDescription {
            host_processors: 8,
            host_memory_gib: 61.0,
            accelerators: 1,
            accelerator_weight: 1.0,
        }
    }

    #[test]
    fn reference_slice_scores_about_one() {
        let s = cloud_scale(&one_accel_slice());
        assert!((s - 1.0).abs() < 0.01, "reference scale {s}");
    }

    #[test]
    fn scale_is_monotone_in_every_component() {
        let base = one_accel_slice();
        let s0 = cloud_scale(&base);
        let mut more_accel = base.clone();
        more_accel.accelerators = 8;
        assert!(cloud_scale(&more_accel) > s0);
        let mut more_cpu = base.clone();
        more_cpu.host_processors = 96;
        assert!(cloud_scale(&more_cpu) > s0);
        let mut more_mem = base.clone();
        more_mem.host_memory_gib = 488.0;
        assert!(cloud_scale(&more_mem) > s0);
    }

    #[test]
    fn eight_accel_node_costs_about_eight_slices() {
        // Linear-cost sanity: an 8-accelerator node with 8x the host
        // resources scores ~8x the single slice.
        let node = CloudSystemDescription {
            host_processors: 64,
            host_memory_gib: 488.0,
            accelerators: 8,
            accelerator_weight: 1.0,
        };
        let ratio = cloud_scale(&node) / cloud_scale(&one_accel_slice());
        assert!((ratio - 8.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn newer_accelerators_weigh_more() {
        let mut newer = one_accel_slice();
        newer.accelerator_weight = 2.5;
        assert!(cloud_scale(&newer) > 2.0 * cloud_scale(&one_accel_slice()));
    }
}
