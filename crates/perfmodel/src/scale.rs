//! Paper-scale projection of the three Cholesky variants.
//!
//! Two engines share the same tile-format metadata and kernel model:
//!
//! * **event** — builds the real tile-Cholesky DAG (`xgs-cholesky::dag`)
//!   and replays it in the discrete-event simulator; exact scheduling
//!   behaviour, O(NT^3) tasks, used up to `event_sim_max_nt`.
//! * **analytic** — closed-form total work (O(NT^2) summation over
//!   sub-diagonal multiplicities) and the diagonal-chain critical path;
//!   `makespan ≈ max(work / (nodes · cores), critical_path) · overhead`,
//!   with the overhead factor calibrated against the event engine (they
//!   are cross-checked in tests).

use crate::a64fx::{A64fxKernelModel, A64fxNode};
use crate::profiles::{Correlation, TileFormatProfile};
use xgs_cholesky::dag::{cholesky_dag, DagOptions, TileMetaSource};
use xgs_kernels::Precision;
use xgs_runtime::{simulate, simulate_with_metrics, JsonValue, MetricsReport};
use xgs_tile::KernelTimeModel;

/// Which solver variant to project (mirrors `xgs_tile::Variant` but owned
/// here so the projector has no dependency on generated matrices).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverVariant {
    DenseF64,
    /// Pure FP32 dense (a Fig. 7 baseline).
    DenseF32,
    MpDense,
    MpDenseTlr,
}

impl SolverVariant {
    pub fn name(self) -> &'static str {
        match self {
            SolverVariant::DenseF64 => "dense-fp64",
            SolverVariant::DenseF32 => "dense-fp32",
            SolverVariant::MpDense => "mp-dense",
            SolverVariant::MpDenseTlr => "mp-dense-tlr",
        }
    }
}

/// Scale experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct ScaleConfig {
    /// Matrix dimension (number of locations).
    pub n: usize,
    /// Tile size (the paper uses 2700 at scale, 800 for Fig. 7).
    pub nb: usize,
    pub nodes: usize,
    pub correlation: Correlation,
    pub variant: SolverVariant,
    pub node: A64fxNode,
    pub model: A64fxKernelModel,
    /// Largest NT routed to the event simulator (above: analytic).
    pub event_sim_max_nt: usize,
}

impl ScaleConfig {
    pub fn new(
        n: usize,
        nb: usize,
        nodes: usize,
        correlation: Correlation,
        variant: SolverVariant,
    ) -> ScaleConfig {
        ScaleConfig {
            n,
            nb,
            nodes,
            correlation,
            variant,
            node: A64fxNode::default(),
            model: A64fxKernelModel::default(),
            event_sim_max_nt: 160,
        }
    }

    fn profile(&self) -> TileFormatProfile {
        let nt = self.n.div_ceil(self.nb);
        match self.variant {
            SolverVariant::DenseF64 => {
                let mut p = TileFormatProfile::new(self.correlation, nt, self.nb, false);
                p.u_f64 = 2.0; // everything FP64
                p.u_f32 = 3.0;
                p
            }
            SolverVariant::DenseF32 => {
                let mut p = TileFormatProfile::new(self.correlation, nt, self.nb, false);
                p.u_f64 = 0.0;
                p.u_f32 = 2.0; // everything FP32 (diagonal stays FP64)
                p
            }
            SolverVariant::MpDense => TileFormatProfile::new(self.correlation, nt, self.nb, false),
            SolverVariant::MpDenseTlr => {
                TileFormatProfile::new(self.correlation, nt, self.nb, true)
            }
        }
    }
}

/// Projection outcome (serializable for downstream plotting via
/// [`Projection::to_json_value`]).
#[derive(Clone, Copy, Debug)]
pub struct Projection {
    pub nt: usize,
    /// Simulated time-to-solution of one Cholesky, seconds.
    pub makespan: f64,
    /// Nominal throughput: `(n^3/3) / makespan`, flop/s (the paper reports
    /// dense-equivalent flops even for the memory-bound TLR variant).
    pub flops: f64,
    /// Matrix storage under the variant's formats, bytes.
    pub footprint_bytes: f64,
    /// Whether the footprint fits the aggregate node memory.
    pub fits_in_memory: bool,
    /// `true` when the event engine produced the number.
    pub event_simulated: bool,
    /// Parallel efficiency: compute work / (makespan * total cores).
    pub efficiency: f64,
}

impl Projection {
    /// One JSON object; the benches embed this in their machine-readable
    /// result dumps.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::object([
            ("nt", self.nt.into()),
            ("makespan", self.makespan.into()),
            ("flops", self.flops.into()),
            ("footprint_bytes", self.footprint_bytes.into()),
            ("fits_in_memory", self.fits_in_memory.into()),
            ("event_simulated", self.event_simulated.into()),
            ("efficiency", self.efficiency.into()),
        ])
    }
}

/// Storage footprint of the profile's format assignment (closed form over
/// sub-diagonals).
pub fn footprint_bytes(meta: &TileFormatProfile) -> f64 {
    let nt = meta.nt;
    let nb = meta.nb;
    let mut total = 0.0f64;
    for d in 0..nt {
        let count = (nt - d) as f64;
        // Representative tile on this sub-diagonal.
        let (i, j) = (d, 0);
        let bytes = if meta.is_dense(i, j) {
            (nb * nb * meta.precision(i, j).bytes()) as f64
        } else {
            (meta.rank(i, j) * 2 * nb * meta.precision(i, j).bytes()) as f64
        };
        total += count * bytes;
    }
    total
}

/// Project one configuration.
pub fn project(cfg: &ScaleConfig) -> Projection {
    let nt = cfg.n.div_ceil(cfg.nb);
    let profile = cfg.profile();
    let fp = footprint_bytes(&profile);
    let fits = fp <= cfg.node.mem_capacity * cfg.nodes as f64;
    let nominal = {
        let n = cfg.n as f64;
        n * n * n / 3.0
    };

    let (makespan, efficiency) = if nt <= cfg.event_sim_max_nt {
        event_makespan(cfg, &profile, nt)
    } else {
        analytic_makespan(cfg, &profile, nt)
    };

    Projection {
        nt,
        makespan,
        flops: nominal / makespan,
        footprint_bytes: fp,
        fits_in_memory: fits,
        event_simulated: nt <= cfg.event_sim_max_nt,
        efficiency,
    }
}

/// [`project`], additionally returning the per-kernel census of the event
/// replay as a [`MetricsReport`] (the same JSON schema the shared-memory
/// executor and the prediction server export, so `metrics_diff` can compare
/// a projection against a measured run). `None` when the configuration is
/// routed to the analytic engine, which has no task-level breakdown.
pub fn project_with_metrics(cfg: &ScaleConfig) -> (Projection, Option<MetricsReport>) {
    let nt = cfg.n.div_ceil(cfg.nb);
    if nt > cfg.event_sim_max_nt {
        return (project(cfg), None);
    }
    let profile = cfg.profile();
    let (p, q) = process_grid(cfg.nodes);
    let opts = DagOptions {
        nt,
        nb: cfg.nb,
        grid_p: p,
        grid_q: q,
        model: &cfg.model,
    };
    let (tasks, _stats) = cholesky_dag(&profile, &opts);
    let machine = cfg.node.machine(p * q);
    let (r, mut metrics) = simulate_with_metrics(&tasks, &machine);
    // Closed-form frame census of the sharded protocol under this
    // profile's formats: a real sharded run of the same grid must measure
    // exactly these TILE frames/bytes when formats are static
    // (`metrics_diff --assert-wire-equal tile`).
    metrics.wire = xgs_cholesky::project_wire_census(&profile, cfg.n, cfg.nb, cfg.nodes);
    let fp = footprint_bytes(&profile);
    let nominal = {
        let n = cfg.n as f64;
        n * n * n / 3.0
    };
    let projection = Projection {
        nt,
        makespan: r.makespan,
        flops: nominal / r.makespan,
        footprint_bytes: fp,
        fits_in_memory: fp <= cfg.node.mem_capacity * cfg.nodes as f64,
        event_simulated: true,
        efficiency: r.efficiency,
    };
    (projection, Some(metrics))
}

fn process_grid(nodes: usize) -> (usize, usize) {
    let mut p = (nodes as f64).sqrt() as usize;
    while p > 1 && !nodes.is_multiple_of(p) {
        p -= 1;
    }
    (p.max(1), nodes / p.max(1))
}

fn event_makespan(cfg: &ScaleConfig, profile: &TileFormatProfile, nt: usize) -> (f64, f64) {
    let (p, q) = process_grid(cfg.nodes);
    let opts = DagOptions {
        nt,
        nb: cfg.nb,
        grid_p: p,
        grid_q: q,
        model: &cfg.model,
    };
    let (tasks, _stats) = cholesky_dag(profile, &opts);
    let machine = cfg.node.machine(p * q);
    let r = simulate(&tasks, &machine);
    (r.makespan, r.efficiency)
}

/// Overhead factor of the analytic estimate over the ideal
/// `max(work/cores, critical path)` bound; calibrated against the event
/// simulator (tests keep the two engines within ~25% of each other at the
/// handoff size).
const ANALYTIC_OVERHEAD: f64 = 1.12;

fn analytic_makespan(cfg: &ScaleConfig, meta: &TileFormatProfile, nt: usize) -> (f64, f64) {
    let model = &cfg.model;
    let nb = cfg.nb;
    let lrp = |p: Precision| {
        if p == Precision::F16 {
            Precision::F32
        } else {
            p
        }
    };

    // Representative per-sub-diagonal kernel costs.
    let trsm_cost = |d: usize| -> f64 {
        let (i, j) = (d, 0);
        if meta.is_dense(i, j) {
            model.dense_trsm_time(nb, meta.precision(i, j))
        } else {
            model.tlr_trsm_time(nb, meta.rank(i, j), lrp(meta.precision(i, j)))
        }
    };
    let syrk_cost = |d: usize| -> f64 {
        let (i, j) = (d, 0);
        if meta.is_dense(i, j) {
            0.5 * model.dense_gemm_time(nb, Precision::F64)
        } else {
            0.5 * model.tlr_gemm_time(nb, meta.rank(i, j), Precision::F64)
        }
    };
    // GEMM(i,j,k): C at distance b = i-j, A at a = i-k, B at a-b = j-k.
    let gemm_cost = |b: usize, a: usize| -> f64 {
        let c_dense = meta.is_dense(b, 0);
        if c_dense {
            model.dense_gemm_time(nb, meta.precision(b, 0))
        } else {
            let ra = if meta.is_dense(a, 0) {
                nb
            } else {
                meta.rank(a, 0)
            };
            let rb = if meta.is_dense(a - b, 0) {
                nb
            } else {
                meta.rank(a - b, 0)
            };
            let r_prod = ra.min(rb);
            if r_prod >= nb {
                2.0 * model.dense_gemm_time(nb, Precision::F64)
            } else {
                let r = r_prod.max(meta.rank(b, 0)).min(nb);
                model.tlr_gemm_time(nb, r, lrp(meta.precision(b, 0)))
            }
        }
    };

    let c_potrf = model.dense_gemm_time(nb, Precision::F64) / 6.0;
    let mut work = nt as f64 * c_potrf;
    for d in 1..nt {
        let count = (nt - d) as f64;
        work += count * (trsm_cost(d) + syrk_cost(d));
    }
    for a in 2..nt {
        let count = (nt - a) as f64;
        for b in 1..a {
            work += count * gemm_cost(b, a);
        }
    }

    // Critical path: the diagonal chain potrf -> trsm(d=1) -> syrk(d=1).
    let cp = nt as f64 * (c_potrf + trsm_cost(1.min(nt - 1)) + syrk_cost(1.min(nt - 1)));

    let cores = (cfg.nodes * cfg.node.cores) as f64;
    let makespan = (work / cores).max(cp) * ANALYTIC_OVERHEAD;
    (makespan, work / (makespan * cores))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tile 800 (the paper's Fig. 7 tile size): at extreme scale the
    // diagonal-chain critical path must stay short enough to "expose more
    // tasks" (paper §VII-E), which the smaller tile provides.
    fn cfg(n: usize, nodes: usize, c: Correlation, v: SolverVariant) -> ScaleConfig {
        ScaleConfig::new(n, 800, nodes, c, v)
    }

    #[test]
    fn process_grid_factors_exactly() {
        for nodes in [1, 2, 16, 1024, 2048, 48384] {
            let (p, q) = process_grid(nodes);
            assert_eq!(p * q, nodes, "grid for {nodes}");
            assert!(p <= q);
        }
    }

    #[test]
    fn footprint_matches_paper_fig9_scale() {
        // 1M matrix, tile 2700: dense FP64 lower half = 4 TB-ish (paper
        // reports 4356 GB for the full square; our lower-half accounting
        // should land at roughly half that +- tile granularity... the paper
        // stores the symmetric matrix's lower half too, so compare against
        // ~4356 GB with both-halves accounting).
        let nt = 1_000_000usize.div_ceil(2700);
        let mut p = TileFormatProfile::new(Correlation::Weak, nt, 2700, false);
        p.u_f64 = 2.0;
        p.u_f32 = 3.0;
        // The paper's MF accounting exploits symmetry (abstract: ~4 TB for
        // a 1M-location matrix), so the stored lower half is the comparable
        // quantity.
        let gb = footprint_bytes(&p) / 1e9;
        assert!(
            (3500.0..5000.0).contains(&gb),
            "dense footprint {gb:.0} GB vs paper 4356 GB"
        );

        // MP dense (weak correlation): paper reports 1607 GB (63% cut).
        let mp = TileFormatProfile::new(Correlation::Weak, nt, 2700, false);
        let mp_gb = footprint_bytes(&mp) / 1e9;
        assert!(
            mp_gb < 0.5 * gb,
            "MP footprint {mp_gb:.0} GB should be well under half of {gb:.0} GB"
        );

        // MP+TLR (weak): paper reports 915 GB (79% cut).
        let tlr = TileFormatProfile::new(Correlation::Weak, nt, 2700, true);
        let tlr_gb = footprint_bytes(&tlr) / 1e9;
        assert!(
            tlr_gb < mp_gb,
            "TLR footprint {tlr_gb:.0} GB should beat MP {mp_gb:.0} GB"
        );
        assert!(
            tlr_gb > 50.0,
            "TLR footprint suspiciously small: {tlr_gb:.0} GB"
        );
    }

    #[test]
    fn variants_order_correctly_at_weak_correlation() {
        // The paper's headline: MP+TLR up to ~12x over dense FP64 at weak
        // correlation on 16K nodes (9M matrix). We check ordering and a
        // sizeable gap at a smaller-but-analytic scale.
        let n = 2_000_000;
        let t64 = project(&cfg(n, 4096, Correlation::Weak, SolverVariant::DenseF64)).makespan;
        let tmp = project(&cfg(n, 4096, Correlation::Weak, SolverVariant::MpDense)).makespan;
        let ttlr = project(&cfg(n, 4096, Correlation::Weak, SolverVariant::MpDenseTlr)).makespan;
        assert!(tmp < t64, "MP {tmp} !< dense {t64}");
        assert!(ttlr < tmp, "TLR {ttlr} !< MP {tmp}");
        let speedup = t64 / ttlr;
        assert!(
            (4.0..30.0).contains(&speedup),
            "TLR speedup {speedup:.1} out of plausible range"
        );
    }

    #[test]
    fn strong_correlation_shrinks_the_gain() {
        let n = 2_000_000;
        let weak = project(&cfg(n, 4096, Correlation::Weak, SolverVariant::DenseF64)).makespan
            / project(&cfg(n, 4096, Correlation::Weak, SolverVariant::MpDenseTlr)).makespan;
        let strong = project(&cfg(n, 4096, Correlation::Strong, SolverVariant::DenseF64)).makespan
            / project(&cfg(
                n,
                4096,
                Correlation::Strong,
                SolverVariant::MpDenseTlr,
            ))
            .makespan;
        assert!(
            weak > strong,
            "weak gain {weak:.1}x must exceed strong gain {strong:.1}x"
        );
    }

    #[test]
    fn event_and_analytic_engines_agree_at_handoff() {
        // Same configuration through both engines near the handoff NT.
        let mut c = cfg(150 * 800, 256, Correlation::Medium, SolverVariant::DenseF64);
        c.event_sim_max_nt = 160; // event
        let ev = project(&c);
        assert!(ev.event_simulated);
        c.event_sim_max_nt = 10; // force analytic
        let an = project(&c);
        assert!(!an.event_simulated);
        let ratio = ev.makespan / an.makespan;
        assert!(
            (0.7..1.4).contains(&ratio),
            "engines disagree: event {} vs analytic {}",
            ev.makespan,
            an.makespan
        );
    }

    #[test]
    fn event_projection_exports_kernel_census() {
        let c = cfg(40 * 800, 16, Correlation::Medium, SolverVariant::MpDense);
        let (proj, metrics) = project_with_metrics(&c);
        assert!(proj.event_simulated);
        let m = metrics.expect("event engine produces metrics");
        assert_eq!(m.wall_seconds, proj.makespan);
        let kinds: Vec<&str> = m.kernels.iter().map(|k| k.kind).collect();
        for k in ["potrf", "trsm", "syrk", "gemm"] {
            assert!(kinds.contains(&k), "missing kernel {k} in {kinds:?}");
        }
        assert_eq!(
            m.kernels.iter().map(|k| k.count).sum::<u64>() as usize,
            m.tasks
        );
        // Matches plain project() bit-for-bit (same DAG, same replay).
        let p2 = project(&c);
        assert_eq!(proj.makespan, p2.makespan);

        // Analytic route yields no census.
        let mut big = c;
        big.event_sim_max_nt = 10;
        let (pa, ma) = project_with_metrics(&big);
        assert!(!pa.event_simulated);
        assert!(ma.is_none());
    }

    #[test]
    fn event_projection_exports_wire_census() {
        let tile = |v: SolverVariant| {
            let c = cfg(4000, 4, Correlation::Weak, v);
            let (_, metrics) = project_with_metrics(&c);
            let m = metrics.expect("event engine produces metrics");
            let kinds: Vec<&str> = m.wire.iter().map(|w| w.kind).collect();
            // Exactly the kinds a run moves; the end-of-run census is a
            // HEARTBEAT exchange.
            assert_eq!(kinds, ["hello", "tile", "task", "done", "heartbeat"]);
            let t = m.wire.iter().find(|w| w.kind == "tile").unwrap();
            assert!(t.frames > 0 && t.bytes > 0);
            (t.frames, t.bytes)
        };
        let (dense_frames, dense_bytes) = tile(SolverVariant::DenseF64);
        let (mp_frames, mp_bytes) = tile(SolverVariant::MpDense);
        // Same protocol, same frame count — only the payload widths shrink.
        assert_eq!(dense_frames, mp_frames);
        assert!(
            mp_bytes < dense_bytes,
            "MP TILE bytes {mp_bytes} should be below dense-f64 {dense_bytes}"
        );
    }

    #[test]
    fn memory_gate_matches_paper_motivation() {
        // A 10M dense FP64 matrix needs ~400 TB; 1024 nodes x 32 GB = 32 TB
        // cannot host it, while MP+TLR's footprint fits far smaller systems
        // — the paper's "allowing to handle larger problem sizes for the
        // same allocated resources".
        let dense = project(&cfg(
            10_000_000,
            1024,
            Correlation::Weak,
            SolverVariant::DenseF64,
        ));
        assert!(!dense.fits_in_memory);
        let tlr = project(&cfg(
            10_000_000,
            16384,
            Correlation::Weak,
            SolverVariant::MpDenseTlr,
        ));
        assert!(tlr.fits_in_memory);
    }

    #[test]
    fn strong_scaling_reduces_time_with_diminishing_returns() {
        let n = 2_000_000;
        let t2048 = project(&cfg(
            n,
            2048,
            Correlation::Medium,
            SolverVariant::MpDenseTlr,
        ))
        .makespan;
        let t4096 = project(&cfg(
            n,
            4096,
            Correlation::Medium,
            SolverVariant::MpDenseTlr,
        ))
        .makespan;
        let t16384 = project(&cfg(
            n,
            16384,
            Correlation::Medium,
            SolverVariant::MpDenseTlr,
        ))
        .makespan;
        assert!(t4096 < t2048);
        assert!(t16384 <= t4096);
        // Efficiency decays: 8x nodes from 2048 -> 16384 gains < 8x.
        assert!(t2048 / t16384 < 8.0, "superlinear scaling is implausible");
    }
}
