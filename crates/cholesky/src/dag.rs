//! Structural DAG export of the tile Cholesky for distributed simulation.
//!
//! Builds the exact task graph the factorization executes — POTRF, TRSM,
//! SYRK, GEMM over `NT` tiles — as cost/communication skeletons, without
//! touching numerical data. `xgs-perfmodel` replays these against the
//! A64FX machine model to regenerate the paper's Fugaku-scale figures
//! (7, 10, 11): tiles are mapped 2D-block-cyclically, each task runs on the
//! owner of its written tile, and remote reads ship the stored tile payload
//! (at its stored precision — the conversion happens at the receiver).

use crate::task::{tasks, Kernel, Task};
use std::collections::HashMap;
use xgs_kernels::Precision;
use xgs_runtime::{block_cyclic_owner, SimTask};
use xgs_tile::KernelTimeModel;

/// Per-tile format metadata the DAG builder consumes. Implemented by real
/// generated matrices (small scale) and by synthetic profiles
/// (paper-scale).
pub trait TileMetaSource {
    /// Dense or low-rank?
    fn is_dense(&self, i: usize, j: usize) -> bool;
    /// Rank of a low-rank tile (unused when dense).
    fn rank(&self, i: usize, j: usize) -> usize;
    /// Stored precision.
    fn precision(&self, i: usize, j: usize) -> Precision;
}

/// Options for DAG construction.
pub struct DagOptions<'a> {
    pub nt: usize,
    pub nb: usize,
    /// Process grid (p * q = nodes).
    pub grid_p: usize,
    pub grid_q: usize,
    pub model: &'a dyn KernelTimeModel,
}

/// Aggregate statistics of a built DAG.
#[derive(Clone, Copy, Debug, Default)]
pub struct DagStats {
    pub tasks: usize,
    /// Sum of modeled task times, seconds (single-core work).
    pub total_cost: f64,
    /// Modeled FP64-equivalent flops of the dense-FP64 factorization of the
    /// same size (`n^3/3`), for Tflop/s reporting.
    pub nominal_flops: f64,
}

/// Bytes one remote read of tile `(i, j)` moves, in wire-frame units
/// ([`crate::shard::tile_wire_frame_bytes`]): header, coordinates, and
/// the per-precision `xgs_tile::wire` payload. Using the real frame size
/// keeps the simulator's `comm_bytes` directly comparable to a sharded
/// run's measured TILE census.
fn tile_bytes(meta: &dyn TileMetaSource, nb: usize, i: usize, j: usize) -> f64 {
    crate::shard::tile_wire_frame_bytes(meta, nb, nb, i, j) as f64
}

/// Modeled single-core time of task `t` on `nb x nb` tiles in `meta`'s
/// formats: the one price of a task, for the event replay of
/// [`cholesky_dag`] and for `xgs-perfmodel`'s closed-form engine alike.
pub fn task_cost(
    meta: &dyn TileMetaSource,
    model: &dyn KernelTimeModel,
    nb: usize,
    t: Task,
) -> f64 {
    let (k, i, j) = (t.k as usize, t.i as usize, t.j as usize);
    match t.kind {
        // POTRF on the FP64 diagonal: nb^3/3 flops = 1/6 of a dense GEMM.
        Kernel::Potrf => model.dense_gemm_time(nb, Precision::F64) / 6.0,
        Kernel::Trsm if meta.is_dense(i, k) => model.dense_trsm_time(nb, meta.precision(i, k)),
        Kernel::Trsm => model.tlr_trsm_time(nb, meta.rank(i, k), meta.precision(i, k).low_rank()),
        // SYRK into the FP64 diagonal.
        Kernel::Syrk if meta.is_dense(i, k) => 0.5 * model.dense_gemm_time(nb, Precision::F64),
        Kernel::Syrk => 0.5 * model.tlr_gemm_time(nb, meta.rank(i, k), Precision::F64),
        // GEMM led by C_ij's format.
        Kernel::Gemm if meta.is_dense(i, j) => model.dense_gemm_time(nb, meta.precision(i, j)),
        Kernel::Gemm => {
            // Product rank is bounded by the smaller LR operand (dense x
            // LR stays at the LR operand's rank); the rounded addition
            // works at max(product, C) rank.
            let operand_rank = |r: usize| {
                if meta.is_dense(r, k) {
                    nb
                } else {
                    meta.rank(r, k)
                }
            };
            let r_prod = operand_rank(i).min(operand_rank(j));
            if r_prod >= nb {
                // Dense x dense into a low-rank tile: full GEMM plus a
                // compression of comparable cost.
                2.0 * model.dense_gemm_time(nb, Precision::F64)
            } else {
                let r = r_prod.max(meta.rank(i, j)).min(nb);
                model.tlr_gemm_time(nb, r, meta.precision(i, j).low_rank())
            }
        }
    }
}

/// Build the simulation DAG. Returns tasks in topological order plus
/// stats.
pub fn cholesky_dag(meta: &dyn TileMetaSource, opts: &DagOptions) -> (Vec<SimTask>, DagStats) {
    let (nt, nb) = (opts.nt, opts.nb);
    let owner =
        |(i, j): (u32, u32)| block_cyclic_owner(i as usize, j as usize, opts.grid_p, opts.grid_q);

    let mut sim: Vec<SimTask> = Vec::with_capacity(nt * (nt + 1) * (nt + 2) / 6);
    let mut last_writer: HashMap<(u32, u32), usize> = HashMap::new();
    let mut total_cost = 0.0f64;

    for t in tasks(nt) {
        let write = t.written();
        let own = owner(write);
        // The tile's previous writer (same owner by construction), then
        // the producer of each tile read — a POTRF or TRSM of this step,
        // so it always exists; a remote read ships the tile.
        let mut preds: Vec<(usize, f64)> = Vec::with_capacity(3);
        preds.extend(last_writer.get(&write).map(|&w| (w, 0.0)));
        preds.extend(t.reads().map(|read| {
            let bytes = if owner(read) == own {
                0.0
            } else {
                tile_bytes(meta, nb, read.0 as usize, read.1 as usize)
            };
            (last_writer[&read], bytes)
        }));
        let cost = task_cost(meta, opts.model, nb, t);
        last_writer.insert(write, sim.len());
        sim.push(SimTask {
            kind: t.kind.name(),
            cost,
            owner: own,
            preds,
        });
        total_cost += cost;
    }

    let n = (nt * nb) as f64;
    let stats = DagStats {
        tasks: sim.len(),
        total_cost,
        nominal_flops: n * n * n / 3.0,
    };
    (sim, stats)
}

/// Uniform metadata: everything dense at one precision (the dense-FP64 and
/// band-structured MP baselines).
pub struct UniformMeta {
    pub precision_of: fn(i: usize, j: usize) -> Precision,
}

impl TileMetaSource for UniformMeta {
    fn is_dense(&self, _i: usize, _j: usize) -> bool {
        true
    }
    fn rank(&self, _i: usize, _j: usize) -> usize {
        0
    }
    fn precision(&self, i: usize, j: usize) -> Precision {
        (self.precision_of)(i, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgs_runtime::{simulate, MachineSpec};
    use xgs_tile::FlopKernelModel;

    fn machine(nodes: usize) -> MachineSpec {
        MachineSpec {
            nodes,
            cores_per_node: 4,
            net_bandwidth: 6.8e9,
            net_latency: 1e-6,
        }
    }

    struct BandMeta {
        band: usize,
        rank: usize,
    }

    impl TileMetaSource for BandMeta {
        fn is_dense(&self, i: usize, j: usize) -> bool {
            i.abs_diff(j) < self.band
        }
        fn rank(&self, _i: usize, _j: usize) -> usize {
            self.rank
        }
        fn precision(&self, i: usize, j: usize) -> Precision {
            if i.abs_diff(j) < self.band {
                Precision::F64
            } else {
                Precision::F32
            }
        }
    }

    #[test]
    fn task_count_matches_closed_form() {
        let meta = UniformMeta {
            precision_of: |_, _| Precision::F64,
        };
        let model = FlopKernelModel::default();
        let nt = 12;
        let (tasks, stats) = cholesky_dag(
            &meta,
            &DagOptions {
                nt,
                nb: 256,
                grid_p: 2,
                grid_q: 2,
                model: &model,
            },
        );
        let expect = nt + nt * (nt - 1) / 2 + (nt * nt * nt - nt) / 6;
        assert_eq!(tasks.len(), expect);
        assert_eq!(stats.tasks, expect);
        assert!(stats.total_cost > 0.0);
    }

    #[test]
    fn tasks_are_topologically_ordered() {
        let meta = UniformMeta {
            precision_of: |_, _| Precision::F64,
        };
        let model = FlopKernelModel::default();
        let (tasks, _) = cholesky_dag(
            &meta,
            &DagOptions {
                nt: 10,
                nb: 128,
                grid_p: 2,
                grid_q: 1,
                model: &model,
            },
        );
        for (idx, t) in tasks.iter().enumerate() {
            for &(p, _) in &t.preds {
                assert!(p < idx);
            }
        }
    }

    #[test]
    fn tlr_dag_costs_less_than_dense() {
        let model = FlopKernelModel::default();
        let dense = UniformMeta {
            precision_of: |_, _| Precision::F64,
        };
        let tlr = BandMeta { band: 2, rank: 20 };
        let opts = DagOptions {
            nt: 16,
            nb: 1024,
            grid_p: 2,
            grid_q: 2,
            model: &model,
        };
        let (_, sd) = cholesky_dag(&dense, &opts);
        let (_, st) = cholesky_dag(&tlr, &opts);
        assert!(
            st.total_cost < 0.5 * sd.total_cost,
            "TLR {:.3e} vs dense {:.3e}",
            st.total_cost,
            sd.total_cost
        );
    }

    #[test]
    fn more_nodes_shrink_simulated_makespan() {
        let model = FlopKernelModel::default();
        let meta = UniformMeta {
            precision_of: |_, _| Precision::F64,
        };
        let opts1 = DagOptions {
            nt: 20,
            nb: 512,
            grid_p: 1,
            grid_q: 1,
            model: &model,
        };
        let (t1, _) = cholesky_dag(&meta, &opts1);
        let opts4 = DagOptions {
            nt: 20,
            nb: 512,
            grid_p: 2,
            grid_q: 2,
            model: &model,
        };
        let (t4, _) = cholesky_dag(&meta, &opts4);
        let r1 = simulate(&t1, &machine(1));
        let r4 = simulate(&t4, &machine(4));
        assert!(
            r4.makespan < r1.makespan,
            "{} vs {}",
            r4.makespan,
            r1.makespan
        );
        assert!(r4.comm_bytes > 0.0);
        assert_eq!(r1.comm_bytes, 0.0);
    }

    #[test]
    fn mixed_precision_dag_is_faster_than_fp64() {
        let model = FlopKernelModel::default();
        let fp64 = UniformMeta {
            precision_of: |_, _| Precision::F64,
        };
        // Band-of-3 precision layout like Fig. 2(c).
        let mp = UniformMeta {
            precision_of: |i, j| {
                let d = i.abs_diff(j);
                if d < 3 {
                    Precision::F64
                } else if d < 6 {
                    Precision::F32
                } else {
                    Precision::F16
                }
            },
        };
        let opts = DagOptions {
            nt: 24,
            nb: 800,
            grid_p: 2,
            grid_q: 2,
            model: &model,
        };
        let (t64, _) = cholesky_dag(&fp64, &opts);
        let (tmp, _) = cholesky_dag(&mp, &opts);
        let r64 = simulate(&t64, &machine(4));
        let rmp = simulate(&tmp, &machine(4));
        assert!(rmp.makespan < r64.makespan);
    }
}
