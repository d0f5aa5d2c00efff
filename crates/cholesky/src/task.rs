//! The right-looking tile Cholesky (Algorithm 1), written once: which
//! tasks there are and in what order ([`tasks`], [`panel_tasks`]), which
//! tiles each one touches ([`Task::written`], [`Task::reads`]), how urgent
//! it is ([`Task::priority`]) and which kernel it runs on which operands
//! ([`Task::run`]). The sequential reference, the task-graph engine, the
//! shard plan, the shard worker and the simulator DAG all read this
//! module; none of them carries a loop nest or a kernel dispatch of its
//! own, so the order below *is* the per-tile kernel order every bitwise
//! suite pins.
//!
//! A model op's graph ([`op_tasks`]) puts the generation in front: one
//! `GEN(i, j)` per stored tile and, for the variants that decide formats,
//! one `DECIDE` join, then the factorization's tasks.

use crate::kernels::{gemm_update, potrf_diag, syrk_diag, trsm_panel};
use xgs_kernels::PotrfError;
use xgs_tile::Tile;

/// The four tile kernels. The discriminant is the kind byte of the shard
/// protocol's `TASK` and `DONE` frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    Potrf = 0,
    Trsm = 1,
    Syrk = 2,
    Gemm = 3,
}

impl Kernel {
    pub const ALL: [Kernel; 4] = [Kernel::Potrf, Kernel::Trsm, Kernel::Syrk, Kernel::Gemm];

    /// The kernel a wire kind byte names, if any.
    pub fn from_wire(kind: u8) -> Option<Kernel> {
        Kernel::ALL.get(kind as usize).copied()
    }

    /// Kernel name, the key of the metrics rows and of `xgs-analysis`.
    pub fn name(self) -> &'static str {
        ["potrf", "trsm", "syrk", "gemm"][self as usize]
    }
}

/// One task of the right-looking DAG: step `k`, tile coordinates as the
/// `TASK` frame carries them (`POTRF`: `i = j = k`; `TRSM`: `j = k`;
/// `SYRK`: `j = i`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Task {
    pub kind: Kernel,
    pub k: u32,
    pub i: u32,
    pub j: u32,
}

impl Task {
    /// The tile the task updates in place.
    pub fn written(&self) -> (u32, u32) {
        match self.kind {
            Kernel::Potrf => (self.k, self.k),
            Kernel::Trsm => (self.i, self.k),
            Kernel::Syrk => (self.i, self.i),
            Kernel::Gemm => (self.i, self.j),
        }
    }

    /// The tiles the task reads, in kernel-argument order.
    pub fn reads(&self) -> impl Iterator<Item = (u32, u32)> {
        let (a, b) = match self.kind {
            Kernel::Potrf => (None, None),
            Kernel::Trsm => (Some((self.k, self.k)), None),
            Kernel::Syrk => (Some((self.i, self.k)), None),
            Kernel::Gemm => (Some((self.i, self.k)), Some((self.j, self.k))),
        };
        a.into_iter().chain(b)
    }

    /// Scheduling priority on an `nt x nt` grid: earlier steps first, and
    /// within a step the critical path (POTRF, then TRSM, SYRK, GEMM).
    pub fn priority(&self, nt: usize) -> i64 {
        (((nt - self.k as usize) as i64) << 8) + 3 - self.kind as i64
    }

    /// Run the task's kernel on `target` (the [`written`](Task::written)
    /// tile) with `operands` (the [`reads`](Task::reads) tiles, in that
    /// order); `tol` is the written tile's low-rank rounding tolerance,
    /// which only GEMM consults. `Err` is POTRF losing positive
    /// definiteness at a tile-local pivot.
    pub fn run(&self, target: &mut Tile, operands: &[&Tile], tol: f64) -> Result<(), PotrfError> {
        match (self.kind, operands) {
            (Kernel::Potrf, []) => return potrf_diag(target),
            (Kernel::Trsm, [l_kk]) => trsm_panel(l_kk, target),
            (Kernel::Syrk, [a]) => syrk_diag(a, target),
            (Kernel::Gemm, [a, b]) => gemm_update(a, b, target, tol),
            (kind, _) => panic!("{} takes its reads() as operands", kind.name()),
        }
        Ok(())
    }
}

/// Step `k` of the factorization of an `nt x nt` tile grid: the POTRF,
/// the panel TRSMs, then the trailing update row by row.
pub fn panel_tasks(nt: usize, k: usize) -> impl Iterator<Item = Task> {
    let at = move |kind, i: usize, j: usize| Task {
        kind,
        k: k as u32,
        i: i as u32,
        j: j as u32,
    };
    let potrf = std::iter::once(at(Kernel::Potrf, k, k));
    let panel = (k + 1..nt).map(move |i| at(Kernel::Trsm, i, k));
    let update = (k + 1..nt).flat_map(move |i| {
        (k + 1..=i).map(move |j| at(if i == j { Kernel::Syrk } else { Kernel::Gemm }, i, j))
    });
    potrf.chain(panel).chain(update)
}

/// Every task of the factorization, in the numerically-correct insertion
/// order of Algorithm 1 (task id = position).
pub fn tasks(nt: usize) -> impl Iterator<Item = Task> {
    (0..nt).flat_map(move |k| panel_tasks(nt, k))
}

/// One task of a model op's graph ([`op_tasks`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpTask {
    /// Form stored tile `(i, j)` from the kernel (`TileGen::tile`).
    Gen { i: u32, j: u32 },
    /// Join every `GEN` and decide each tile's format (`TileGen::decide`).
    Decide,
    /// A task of the factorization.
    Factor(Task),
}

impl OpTask {
    /// Kind name: the metrics row and the `xgs-analysis` census key.
    pub fn name(&self) -> &'static str {
        match self {
            OpTask::Gen { .. } => "gen",
            OpTask::Decide => "decide",
            OpTask::Factor(t) => t.kind.name(),
        }
    }

    /// The tile the task writes, which traces carry; `DECIDE` writes every
    /// tile and names none.
    pub fn coords(&self) -> Option<(u32, u32)> {
        match self {
            OpTask::Gen { i, j } => Some((*i, *j)),
            OpTask::Decide => None,
            OpTask::Factor(t) => Some(t.written()),
        }
    }

    /// Scheduling priority on an `nt x nt` grid. `GEN(i, j)` ranks just
    /// above step `i`'s POTRF: row `i` of the lower triangle is what
    /// POTRF(i) needs, so generation runs one row ahead of the factor and
    /// the factor's ready tasks of earlier steps go first. `DECIDE` is the
    /// only task ready when it is.
    pub fn priority(&self, nt: usize) -> i64 {
        match self {
            OpTask::Gen { i, .. } => (((nt - *i as usize) as i64) << 8) + 4,
            OpTask::Decide => i64::MAX,
            OpTask::Factor(t) => t.priority(nt),
        }
    }
}

/// Every task of one model op on an `nt x nt` grid, in insertion order:
/// each `GEN` in stored-index order (column by column), the `DECIDE` join
/// when the variant `decides` formats, then the factorization ([`tasks`]).
pub fn op_tasks(nt: usize, decides: bool) -> impl Iterator<Item = OpTask> {
    let gens = (0..nt).flat_map(move |j| {
        (j..nt).map(move |i| OpTask::Gen {
            i: i as u32,
            j: j as u32,
        })
    });
    gens.chain(decides.then_some(OpTask::Decide))
        .chain(tasks(nt).map(OpTask::Factor))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The loop nest written out independently, kept as the oracle.
    fn oracle(nt: usize) -> Vec<(Kernel, usize, usize, usize)> {
        let mut out = Vec::new();
        for k in 0..nt {
            out.push((Kernel::Potrf, k, k, k));
            for i in k + 1..nt {
                out.push((Kernel::Trsm, k, i, k));
            }
            for i in k + 1..nt {
                for j in k + 1..=i {
                    let kind = if i == j { Kernel::Syrk } else { Kernel::Gemm };
                    out.push((kind, k, i, j));
                }
            }
        }
        out
    }

    #[test]
    fn the_walk_is_the_loop_nest() {
        for nt in 1..=7 {
            let walk: Vec<Task> = tasks(nt).collect();
            let flat: Vec<_> = walk
                .iter()
                .map(|t| (t.kind, t.k as usize, t.i as usize, t.j as usize))
                .collect();
            assert_eq!(flat, oracle(nt), "nt={nt}");
            xgs_analysis::check_cholesky_census(walk.iter().map(|t| t.kind.name()), nt)
                .unwrap_or_else(|e| panic!("nt={nt}: {e}"));
            let by_panel: Vec<Task> = (0..nt).flat_map(|k| panel_tasks(nt, k)).collect();
            assert_eq!(walk, by_panel, "nt={nt}");
            for t in &walk {
                assert!(t.reads().all(|r| r != t.written()), "{t:?}");
                let prio_base = ((nt - t.k as usize) as i64) << 8;
                let rank = match t.kind {
                    Kernel::Potrf => 3,
                    Kernel::Trsm => 2,
                    Kernel::Syrk => 1,
                    Kernel::Gemm => 0,
                };
                assert_eq!(t.priority(nt), prio_base + rank, "{t:?}");
            }
        }
    }

    #[test]
    fn a_model_op_is_its_gens_its_decide_and_the_factor() {
        for nt in 1..=6 {
            for decides in [false, true] {
                let op: Vec<OpTask> = op_tasks(nt, decides).collect();
                let gens = nt * (nt + 1) / 2;
                for (idx, t) in op[..gens].iter().enumerate() {
                    let OpTask::Gen { i, j } = *t else {
                        panic!("nt={nt}: task {idx} is {t:?}")
                    };
                    let layout = xgs_tile::TileLayout::new(nt, 1);
                    assert_eq!(layout.stored_index(i as usize, j as usize), idx);
                    // One row ahead: above step i's POTRF, below every
                    // task of step i - 1.
                    let potrf = Task {
                        kind: Kernel::Potrf,
                        k: i,
                        i,
                        j: i,
                    };
                    assert!(t.priority(nt) > potrf.priority(nt));
                    let step_before = ((nt + 1 - i as usize) as i64) << 8;
                    assert!(i == 0 || t.priority(nt) < step_before);
                }
                let rest = &op[gens..];
                let factor = match (decides, rest.first()) {
                    (true, Some(OpTask::Decide)) => &rest[1..],
                    (false, _) => rest,
                    (true, first) => panic!("nt={nt}: {first:?} where DECIDE belongs"),
                };
                let want: Vec<OpTask> = tasks(nt).map(OpTask::Factor).collect();
                assert_eq!(factor, &want[..], "nt={nt}");
                xgs_analysis::check_model_op_census(op.iter().map(|t| t.name()), nt, decides)
                    .unwrap_or_else(|e| panic!("nt={nt}: {e}"));
            }
        }
    }
}
