//! The right-looking tile Cholesky (Algorithm 1), written once: which
//! tasks there are and in what order ([`tasks`], [`panel_tasks`]), which
//! tiles each one touches ([`Task::written`], [`Task::reads`]), how urgent
//! it is ([`Task::priority`]) and which kernel it runs on which operands
//! ([`Task::run`]). The sequential reference, the task-graph engine, the
//! shard plan, the shard worker and the simulator DAG all read this
//! module; none of them carries a loop nest or a kernel dispatch of its
//! own, so the order below *is* the per-tile kernel order every bitwise
//! suite pins.

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
}
