//! Calibrated A64FX / Fugaku machine constants and kernel time model.
//!
//! Operating points taken from the paper:
//!
//! * A64FX node: 48 compute cores in four CMGs, 32 GB HBM2, ~3.072 Tflop/s
//!   FP64 peak; the paper sustains **65% of peak** with SSL's sector-cache
//!   optimizations disabled (§VI).
//! * FP32 runs at 2x FP64. FP16: Fugaku's pure HGEMM is unusable for MLE
//!   (needs FP32 accumulation), and BLIS's SHGEMM is slower than SGEMM, so
//!   the paper "falls back to SGEMM for performance, without trading off
//!   accuracy" — i.e. FP16 *storage* with FP32-rate *compute* (§VII-C).
//! * TofuD interconnect: ~6.8 GB/s injection per node (one of six links).
//! * The Fig. 5 crossover: FP64 TLR GEMM beats dense GEMM below rank ~200
//!   at tile size 2700, accuracy 1e-8 — which pins the TLR memory-bound
//!   penalty factor to ~9x per flop.

use xgs_kernels::Precision;
use xgs_runtime::MachineSpec;
use xgs_tile::KernelTimeModel;

/// Full-system Fugaku node count (the paper's largest run uses 48,384 of
/// the 158,976 installed; we keep the paper's figure as the reference max).
pub const FUGAKU_FULL_NODES: usize = 48_384;

/// One A64FX node.
#[derive(Clone, Copy, Debug)]
pub struct A64fxNode {
    pub cores: usize,
    /// FP64 peak per node, flop/s.
    pub peak_f64: f64,
    /// Sustained fraction of peak (0.65 per the paper).
    pub sustained: f64,
    /// HBM2 bandwidth per node, bytes/s.
    pub mem_bandwidth: f64,
    /// Memory capacity per node, bytes.
    pub mem_capacity: f64,
    /// TofuD injection bandwidth, bytes/s.
    pub net_bandwidth: f64,
    /// Network latency, seconds.
    pub net_latency: f64,
}

impl A64fxNode {
    /// A Fugaku node at the paper's operating point.
    pub const FUGAKU: A64fxNode = A64fxNode {
        cores: 48,
        peak_f64: 3.072e12,
        sustained: 0.65,
        mem_bandwidth: 1.024e12,
        mem_capacity: 32.0e9,
        net_bandwidth: 6.8e9,
        net_latency: 0.7e-6,
    };

    /// Effective FP64 rate of one core, flop/s.
    pub const fn core_rate_f64(&self) -> f64 {
        self.peak_f64 * self.sustained / self.cores as f64
    }

    /// [`MachineSpec`] for the distributed simulator with `nodes` nodes.
    pub fn machine(&self, nodes: usize) -> MachineSpec {
        MachineSpec {
            nodes,
            cores_per_node: self.cores,
            net_bandwidth: self.net_bandwidth,
            net_latency: self.net_latency,
        }
    }
}

/// Kernel time model calibrated to the A64FX operating points.
#[derive(Clone, Copy, Debug)]
pub struct A64fxKernelModel;

impl A64fxKernelModel {
    /// Effective per-core FP64 flop rate for compute-bound dense kernels:
    /// the sustained rate of one [`A64fxNode::FUGAKU`] core.
    const DENSE_RATE: f64 = A64fxNode::FUGAKU.core_rate_f64();
    /// Per-flop penalty of memory-bound TLR kernels (calibrated to the
    /// Fig. 5 crossover: rank ~200 at tile 2700).
    const MEM_FACTOR: f64 = 9.0;
    /// FP16 compute speedup vs FP64: the paper's SGEMM fallback, FP16
    /// storage computed at the FP32 rate.
    const FP16_SPEEDUP: f64 = 2.0;

    fn speedup(p: Precision) -> f64 {
        match p {
            Precision::F64 => 1.0,
            Precision::F32 => 2.0,
            Precision::F16 => Self::FP16_SPEEDUP,
        }
    }
}

impl KernelTimeModel for A64fxKernelModel {
    fn dense_gemm_time(&self, nb: usize, precision: Precision) -> f64 {
        let flops = 2.0 * (nb as f64).powi(3);
        flops / (Self::DENSE_RATE * Self::speedup(precision))
    }

    fn tlr_gemm_time(&self, nb: usize, rank: usize, precision: Precision) -> f64 {
        let nb = nb as f64;
        let k = (rank.max(1)) as f64;
        // LR product + QR/SVD rounding of the 2k-wide stacked factors.
        let flops = 36.0 * nb * k * k + 36.0 * k * k * k;
        flops * Self::MEM_FACTOR / (Self::DENSE_RATE * Self::speedup(precision.low_rank()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sustained_core_rate_matches_paper_operating_point() {
        let node = A64fxNode::FUGAKU;
        // 3.072 Tflop/s * 0.65 / 48 cores ~ 41.6 Gflop/s per core.
        let r = node.core_rate_f64();
        assert!((r - 41.6e9).abs() < 0.5e9, "core rate {r:.3e}");
    }

    #[test]
    fn fig5_crossover_is_near_rank_200_at_tile_2700() {
        let m = A64fxKernelModel;
        let nb = 2700;
        let dense = m.dense_gemm_time(nb, Precision::F64);
        // Find the rank where TLR GEMM time crosses dense GEMM time.
        let mut crossover = nb;
        for k in 1..nb {
            if m.tlr_gemm_time(nb, k, Precision::F64) >= dense {
                crossover = k;
                break;
            }
        }
        assert!(
            (150..=260).contains(&crossover),
            "crossover {crossover}, paper reports ~200"
        );
    }

    #[test]
    fn ratio_curve_decays_with_rank_like_fig5() {
        // Fig. 5's right axis: dense/TLR time ratio falls monotonically
        // with rank, >>1 at small ranks.
        let m = A64fxKernelModel;
        let nb = 2700;
        let dense = m.dense_gemm_time(nb, Precision::F64);
        let ratio = |k: usize| dense / m.tlr_gemm_time(nb, k, Precision::F64);
        assert!(ratio(20) > 5.0);
        assert!(ratio(20) > ratio(100));
        assert!(ratio(100) > ratio(300));
        assert!(ratio(400) < 1.0);
    }

    #[test]
    fn fp16_fallback_matches_fp32_rate() {
        let m = A64fxKernelModel;
        assert_eq!(
            m.dense_gemm_time(512, Precision::F16),
            m.dense_gemm_time(512, Precision::F32)
        );
    }

    #[test]
    fn machine_spec_export() {
        let spec = A64fxNode::FUGAKU.machine(1024);
        assert_eq!(spec.nodes, 1024);
        assert_eq!(spec.cores_per_node, 48);
    }
}
