//! The tiled factorization object and its two execution engines.

use crate::task::{tasks, Task};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use xgs_runtime::{execute_opts, Access, DataId, ExecOptions, MetricsReport, TaskGraph};
use xgs_tile::{SymTileMatrix, Tile, TileLayout};

/// Factorization failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FactorError {
    /// The matrix lost positive definiteness at the given global pivot
    /// index (0-based). With aggressive approximation settings this is how
    /// "tolerance too loose" manifests — the paper's strong-correlation
    /// discussions hit exactly this regime.
    NotPositiveDefinite { pivot: usize },
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix not positive definite at pivot {pivot}")
            }
        }
    }
}

impl std::error::Error for FactorError {}

/// A tiled Cholesky factor in progress / completed.
///
/// Each tile sits behind its own reader–writer lock: readers share; the
/// DAG keeps writers alone. Tasks that only read the same panel tile (the
/// GEMMs of one step reading `L_jk`) run at the same time, as they do under
/// PaRSEC, and concurrent solves against a finished factor never queue
/// behind each other. The task graph orders every write after the reads
/// and writes before it, so no guard waits inside a factorization.
pub struct TiledFactor {
    pub(crate) layout: TileLayout,
    pub(crate) tiles: Vec<RwLock<Tile>>,
    /// Absolute low-rank rounding tolerance per stored tile, frozen at
    /// generation (`tlr_tolerance * ||A_ij||_F`).
    pub(crate) tols: Vec<f64>,
    pub band_size_dense: usize,
}

impl TiledFactor {
    /// Take ownership of a generated matrix, preparing it for
    /// factorization.
    pub fn from_matrix(m: SymTileMatrix) -> TiledFactor {
        let layout = m.layout();
        let tol_rel = m.config.tlr_tolerance;
        let band = m.band_size_dense;
        let floor = tol_rel * m.global_norm / layout.nt() as f64;
        let (tiles, tols): (Vec<_>, Vec<_>) = m
            .tiles
            .into_iter()
            .map(|t| {
                let tol = (tol_rel * t.norm_fro())
                    .max(floor * 1e-6)
                    .max(f64::MIN_POSITIVE);
                (RwLock::new(t), tol)
            })
            .unzip();
        TiledFactor {
            layout,
            tiles,
            tols,
            band_size_dense: band,
        }
    }

    #[inline]
    pub fn layout(&self) -> TileLayout {
        self.layout
    }

    #[inline]
    pub fn nt(&self) -> usize {
        self.layout.nt()
    }

    #[inline]
    pub fn n(&self) -> usize {
        self.layout.n()
    }

    /// Clone stored tile `(i, j)` (i >= j).
    pub fn tile_clone(&self, i: usize, j: usize) -> Tile {
        self.tiles[self.layout.stored_index(i, j)].read().clone()
    }

    /// Run a closure against stored tile `(i, j)`.
    pub fn with_tile<R>(&self, i: usize, j: usize, f: impl FnOnce(&Tile) -> R) -> R {
        f(&self.tiles[self.layout.stored_index(i, j)].read())
    }

    /// Reconstruct the full factor `L` as a dense matrix (tests/small
    /// problems; upper triangle zero).
    pub fn to_dense_lower(&self) -> xgs_linalg::Matrix {
        let n = self.n();
        let nt = self.nt();
        let mut full = xgs_linalg::Matrix::zeros(n, n);
        for j in 0..nt {
            for i in j..nt {
                let block = self.tile_clone(i, j).to_dense();
                let ri = self.layout.tile_range(i);
                let rj = self.layout.tile_range(j);
                for (bj, gj) in rj.clone().enumerate() {
                    for (bi, gi) in ri.clone().enumerate() {
                        if gi >= gj {
                            full[(gi, gj)] = block[(bi, bj)];
                        }
                    }
                }
            }
        }
        full
    }

    /// Per-task access list over the stored tiles: the reads in
    /// kernel-argument order, then the write. What the task graph orders
    /// by and the hazard validator re-derives edges from.
    pub(crate) fn accesses(&self, t: Task) -> Vec<Access> {
        let data =
            |(i, j): (u32, u32)| DataId(self.layout.stored_index(i as usize, j as usize) as u64);
        let mut acc: Vec<Access> = t.reads().map(|r| Access::read(data(r))).collect();
        acc.push(Access::write(data(t.written())));
        acc
    }

    /// Run one task against the stored tiles: take shared guards on what it
    /// reads and an exclusive guard on what it writes, then [`Task::run`].
    /// A POTRF failure comes back as the global pivot index.
    pub(crate) fn run(&self, t: Task) -> Result<(), FactorError> {
        let stored = |(i, j): (u32, u32)| self.layout.stored_index(i as usize, j as usize);
        let reads: Vec<_> = t.reads().map(|r| self.tiles[stored(r)].read()).collect();
        let operands: Vec<&Tile> = reads.iter().map(|guard| &**guard).collect();
        let written = stored(t.written());
        // xgs-lint: allow(lock-cycle): shared read guards never wait on each other, and the caller's order (sequential loop or DAG) puts every write to a tile after the tasks that read it before, so no other task holds the written tile; stored_index is injective and written() is never among reads(), so this exclusive guard is on a tile this task does not already hold
        let mut target = self.tiles[written].write();
        t.run(&mut target, &operands, self.tols[written])
            .map_err(|e| FactorError::NotPositiveDefinite {
                pivot: self.layout.tile_range(t.k as usize).start + e.pivot,
            })
    }

    /// Sequential right-looking tile Cholesky (the numerically-correct
    /// insertion order of Algorithm 1).
    pub fn factorize_seq(&mut self) -> Result<(), FactorError> {
        tasks(self.nt()).try_for_each(|t| self.run(t))
    }

    /// Task-parallel factorization on the dynamic runtime.
    ///
    /// Builds the dataflow DAG (same dependence structure PaRSEC derives
    /// from its PTG) and executes it with `workers` worker loops on the
    /// shared pool (`xgs_runtime::execute_opts`). Returns the run's
    /// metrics alongside the factorization result.
    pub fn factorize_parallel(
        self: &Arc<Self>,
        workers: usize,
    ) -> (Result<(), FactorError>, MetricsReport) {
        // Default options: schedule validation on under `cfg(debug_assertions)`
        // (so every test factorization is checked).
        self.factorize_parallel_opts(workers, ExecOptions::default())
    }

    /// [`factorize_parallel`](TiledFactor::factorize_parallel) with explicit
    /// runtime options (tracing, schedule validation, precheck).
    pub fn factorize_parallel_opts(
        self: &Arc<Self>,
        workers: usize,
        opts: ExecOptions,
    ) -> (Result<(), FactorError>, MetricsReport) {
        let nt = self.nt();
        let mut g = TaskGraph::new();
        // Earliest failed pivot (global index); `usize::MAX` while none.
        let failed = Arc::new(AtomicUsize::new(usize::MAX));

        for t in tasks(nt) {
            let me = Arc::clone(self);
            let failed = Arc::clone(&failed);
            g.insert_at(
                t.kind.name(),
                t.written(),
                self.accesses(t),
                t.priority(nt),
                move || {
                    if failed.load(Ordering::Acquire) != usize::MAX {
                        return;
                    }
                    if let Err(FactorError::NotPositiveDefinite { pivot }) = me.run(t) {
                        // Keep the earliest pivot for determinism.
                        failed.fetch_min(pivot, Ordering::AcqRel);
                    }
                },
            );
        }

        // Static gate ahead of thread spawn: the built DAG's per-kernel
        // counts must match the closed form for `nt` (the executor's own
        // precheck then covers acyclicity and hazard edges).
        if opts.precheck {
            if let Err(e) = xgs_analysis::check_cholesky_census(g.task_kinds(), nt) {
                panic!("cholesky DAG precheck: {e}");
            }
        }

        let report = execute_opts(g, workers, opts);
        let res = match failed.load(Ordering::Acquire) {
            usize::MAX => Ok(()),
            pivot => Err(FactorError::NotPositiveDefinite { pivot }),
        };
        (res, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xgs_covariance::{jittered_grid, morton_order, Matern, MaternParams};
    use xgs_tile::{FlopKernelModel, TlrConfig, Variant};

    fn build(
        n: usize,
        nb: usize,
        variant: Variant,
        range: f64,
    ) -> (SymTileMatrix, xgs_linalg::Matrix) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut locs = jittered_grid(n, &mut rng);
        morton_order(&mut locs);
        let kernel = Matern::new(MaternParams::new(1.0, range, 0.5));
        let exact = xgs_covariance::covariance_matrix(&kernel, &locs);
        let model = FlopKernelModel {
            dense_rate: 45.0e9,
            mem_factor: 1.0,
        };
        let m = SymTileMatrix::generate(&kernel, &locs, TlrConfig::new(variant, nb), &model);
        (m, exact)
    }

    fn factor_residual(l: &xgs_linalg::Matrix, a: &xgs_linalg::Matrix) -> f64 {
        let rec = l.matmul_t(l);
        let mut num = 0.0f64;
        let n = a.rows();
        for j in 0..n {
            for i in j..n {
                let d = rec[(i, j)] - a[(i, j)];
                num += 2.0 * d * d;
            }
        }
        num.sqrt() / a.norm_fro()
    }

    #[test]
    fn dense_f64_sequential_matches_reference() {
        let (m, exact) = build(200, 64, Variant::DenseF64, 0.1);
        let mut f = TiledFactor::from_matrix(m);
        f.factorize_seq().unwrap();
        let l = f.to_dense_lower();
        // Oracle: LAPACK-style dense factorization.
        let mut lref = exact.clone();
        xgs_linalg::cholesky_in_place(&mut lref).unwrap();
        let err = l.add_scaled(-1.0, &lref).norm_fro() / lref.norm_fro();
        assert!(err < 1e-12, "factor mismatch {err}");
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let (m1, _) = build(300, 50, Variant::MpDense, 0.05);
        let (m2, _) = build(300, 50, Variant::MpDense, 0.05);
        let mut seq = TiledFactor::from_matrix(m1);
        seq.factorize_seq().unwrap();
        let par = Arc::new(TiledFactor::from_matrix(m2));
        let (res, report) = par.factorize_parallel(4);
        res.unwrap();
        assert_eq!(report.tasks, {
            let nt = seq.nt();
            // potrf + trsm + syrk/gemm counts
            nt + nt * (nt - 1) / 2 + nt * (nt * nt - 1) / 6
        });
        let a = seq.to_dense_lower();
        let b = par.to_dense_lower();
        assert_eq!(a.as_slice(), b.as_slice(), "parallel must be bitwise equal");
    }

    #[test]
    fn mp_dense_factor_close_to_reference() {
        let (m, exact) = build(400, 40, Variant::MpDense, 0.02);
        let mut f = TiledFactor::from_matrix(m);
        f.factorize_seq().unwrap();
        let l = f.to_dense_lower();
        let res = factor_residual(&l, &exact);
        assert!(res < 1e-5, "MP residual too large: {res}");
    }

    #[test]
    fn mp_tlr_factor_close_to_reference() {
        let (m, exact) = build(512, 32, Variant::MpDenseTlr, 0.01);
        let mut f = TiledFactor::from_matrix(m);
        f.factorize_seq().unwrap();
        let l = f.to_dense_lower();
        let res = factor_residual(&l, &exact);
        assert!(res < 1e-5, "TLR residual too large: {res}");
    }

    #[test]
    fn indefinite_matrix_fails_cleanly_in_both_engines() {
        // Build a valid matrix then poison a diagonal entry.
        let (m, _) = build(150, 50, Variant::DenseF64, 0.1);
        let mut f = TiledFactor::from_matrix(m);
        {
            let idx = f.layout.stored_index(1, 1);
            let mut t = f.tiles[idx].write();
            if let xgs_tile::TileStorage::Dense(d) = &mut t.storage {
                d[(5, 5)] = -100.0;
            }
        }
        let err = f.factorize_seq().unwrap_err();
        match err {
            FactorError::NotPositiveDefinite { pivot } => {
                assert!(pivot >= 50, "pivot {pivot} should be inside tile 1");
            }
        }
    }

    #[test]
    fn parallel_indefinite_fails_cleanly() {
        let (m, _) = build(150, 50, Variant::DenseF64, 0.1);
        let f = TiledFactor::from_matrix(m);
        {
            let idx = f.layout.stored_index(0, 0);
            let mut t = f.tiles[idx].write();
            if let xgs_tile::TileStorage::Dense(d) = &mut t.storage {
                d[(0, 0)] = -1.0;
            }
        }
        let f = Arc::new(f);
        let (res, _) = f.factorize_parallel(4);
        assert_eq!(
            res.unwrap_err(),
            FactorError::NotPositiveDefinite { pivot: 0 }
        );
    }

    /// Hold a shared guard on stored tile `(i, j)` on another thread, run
    /// `probe` on this one, and report whether it finished within 5 s. The
    /// holder is released either way, so a blocked probe fails the test
    /// instead of hanging it.
    fn finishes_beside_a_reader(
        f: &Arc<TiledFactor>,
        (i, j): (usize, usize),
        probe: impl FnOnce(&TiledFactor) + Send + 'static,
    ) -> bool {
        use std::sync::mpsc;
        use std::time::Duration;
        let (held_tx, held_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let holder = {
            let f = Arc::clone(f);
            std::thread::spawn(move || {
                f.with_tile(i, j, |_| {
                    held_tx.send(()).unwrap();
                    let _ = release_rx.recv();
                })
            })
        };
        held_rx.recv().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let prober = {
            let f = Arc::clone(f);
            std::thread::spawn(move || {
                probe(&f);
                done_tx.send(()).unwrap();
            })
        };
        let finished = done_rx.recv_timeout(Duration::from_secs(5)).is_ok();
        release_tx.send(()).unwrap();
        holder.join().unwrap();
        prober.join().unwrap();
        finished
    }

    #[test]
    fn readers_of_one_tile_do_not_wait_on_each_other() {
        let (m, _) = build(150, 50, Variant::DenseF64, 0.1);
        let f = Arc::new(TiledFactor::from_matrix(m));
        let finished = finishes_beside_a_reader(&f, (1, 0), |f| {
            f.with_tile(1, 0, |t| t.norm_fro());
        });
        assert!(finished, "a second with_tile on a read tile blocked");
    }

    #[test]
    fn a_gemm_runs_while_its_operand_is_read_elsewhere() {
        let (m, _) = build(150, 50, Variant::DenseF64, 0.1);
        let f = Arc::new(TiledFactor::from_matrix(m));
        // GEMM(2, 1, 0) writes (2, 1) and reads (2, 0) and (1, 0): the
        // panel tile L_10 that its sibling GEMMs of step 0 read too.
        let gemm = Task {
            kind: crate::task::Kernel::Gemm,
            k: 0,
            i: 2,
            j: 1,
        };
        assert!(gemm.reads().any(|r| r == (1, 0)));
        let finished = finishes_beside_a_reader(&f, (1, 0), move |f| f.run(gemm).unwrap());
        assert!(
            finished,
            "a GEMM blocked on an operand another thread reads"
        );
    }

    #[test]
    fn parallel_run_is_validated_and_metered() {
        let (m, _) = build(300, 50, Variant::MpDense, 0.05);
        let f = Arc::new(TiledFactor::from_matrix(m));
        let (res, report) = f.factorize_parallel_opts(
            4,
            xgs_runtime::ExecOptions {
                validate: true,
                trace: true,
                ..Default::default()
            },
        );
        res.unwrap();
        let v = report.validation.expect("validator was requested");
        // 6x6 tiles. Right-looking tile Cholesky carries RAW (kernel reads
        // the panel/diagonal) and WAW (updates then factor) hazards; WAR
        // never occurs because each tile's last write precedes all reads.
        assert!(v.raw_edges > 0 && v.waw_edges > 0, "{v:?}");
        assert_eq!(v.war_edges, 0, "{v:?}");
        let kinds: Vec<&str> = report.kernels.iter().map(|k| k.kind).collect();
        for kind in ["potrf", "trsm", "syrk", "gemm"] {
            assert!(kinds.contains(&kind), "missing kernel stats for {kind}");
        }
        assert_eq!(
            report.kernels.iter().map(|k| k.count).sum::<u64>() as usize,
            report.tasks
        );
        // Tile coordinates flow into the trace: the first potrf is (0,0)
        // and every gemm sits strictly below its diagonal.
        let potrf = report.trace.iter().find(|e| e.kind == "potrf").unwrap();
        assert_eq!(potrf.coords, Some((0, 0)));
        assert!(report
            .trace
            .iter()
            .filter(|e| e.kind == "gemm")
            .all(|e| matches!(e.coords, Some((i, j)) if i > j)));
    }
}
