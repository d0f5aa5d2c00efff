//! The tiled factorization object and its two execution engines, and the
//! threaded engine's model op: generation and factorization as one task
//! graph ([`TiledFactor::generate_and_factorize`]).

use crate::task::{op_tasks, tasks, OpTask, Task};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use xgs_kernels::Precision;
use xgs_linalg::Matrix;
use xgs_runtime::{execute_opts, Access, DataId, ExecOptions, MetricsReport, TaskGraph};
use xgs_tile::{Generated, SymTileMatrix, Tile, TileGen, TileLayout};

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

/// The tolerance a dense tile carries: no kernel reads it.
pub(crate) const DENSE_TOL: f64 = 0.0;

/// Each stored tile's absolute low-rank rounding tolerance:
/// `tol_rel ||A_ij||_F`, floored at `1e-6 tol_rel ||A||_F / NT` and at the
/// smallest normal number, for a low-rank tile; [`DENSE_TOL`] for a dense
/// one, whose norm is never taken.
pub(crate) fn low_rank_tolerances(
    tiles: &[Tile],
    tol_rel: f64,
    global_norm: f64,
    nt: usize,
) -> Vec<f64> {
    let floor = tol_rel * global_norm / nt as f64;
    tiles
        .iter()
        .map(|t| match t.is_dense() {
            true => DENSE_TOL,
            false => (tol_rel * t.norm_fro())
                .max(floor * 1e-6)
                .max(f64::MIN_POSITIVE),
        })
        .collect()
}

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
    /// generation (`tlr_tolerance * ||A_ij||_F`, see [`low_rank_tolerances`]).
    /// Only `gemm_update`'s low-rank arm and the shard plan's `TASK` frames
    /// read it; a dense tile carries [`DENSE_TOL`].
    pub(crate) tols: Vec<f64>,
    pub band_size_dense: usize,
}

impl TiledFactor {
    /// Take ownership of a generated matrix, preparing it for
    /// factorization.
    pub fn from_matrix(m: SymTileMatrix) -> TiledFactor {
        let layout = m.layout();
        let tols =
            low_rank_tolerances(&m.tiles, m.config.tlr_tolerance, m.global_norm, layout.nt());
        TiledFactor {
            layout,
            tiles: m.tiles.into_iter().map(RwLock::new).collect(),
            tols,
            band_size_dense: m.band_size_dense,
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

    /// Stored index of tile `(i, j)` as tasks name it.
    fn stored(&self, (i, j): (u32, u32)) -> usize {
        self.layout.stored_index(i as usize, j as usize)
    }

    /// Per-task access list over the stored tiles: the reads in
    /// kernel-argument order, then the write. What the task graph orders
    /// by and the hazard validator re-derives edges from.
    pub(crate) fn accesses(&self, t: Task) -> Vec<Access> {
        let data = |at| DataId(self.stored(at) as u64);
        let mut acc: Vec<Access> = t.reads().map(|r| Access::read(data(r))).collect();
        acc.push(Access::write(data(t.written())));
        acc
    }

    /// The accesses of one task of a model op's graph: a `GEN` writes its
    /// tile, `DECIDE` writes every tile, and a factor task as
    /// [`accesses`](TiledFactor::accesses).
    fn op_accesses(&self, t: OpTask) -> Vec<Access> {
        match t {
            OpTask::Gen { i, j } => vec![Access::write(DataId(self.stored((i, j)) as u64))],
            OpTask::Decide => (0..self.tiles.len() as u64)
                .map(|idx| Access::write(DataId(idx)))
                .collect(),
            OpTask::Factor(t) => self.accesses(t),
        }
    }

    /// Run one task against the stored tiles: take shared guards on what it
    /// reads and an exclusive guard on what it writes, then [`Task::run`]
    /// with the written tile's frozen tolerance. A POTRF failure comes back
    /// as the global pivot index.
    pub(crate) fn run(&self, t: Task) -> Result<(), FactorError> {
        self.run_at(t, self.tols[self.stored(t.written())])
    }

    /// [`run`](TiledFactor::run) with the written tile's tolerance `tol`.
    fn run_at(&self, t: Task, tol: f64) -> Result<(), FactorError> {
        let reads: Vec<_> = t
            .reads()
            .map(|r| self.tiles[self.stored(r)].read())
            .collect();
        let operands: Vec<&Tile> = reads.iter().map(|guard| &**guard).collect();
        let written = self.stored(t.written());
        // xgs-lint: allow(lock-cycle): shared read guards never wait on each other, and the caller's order (sequential loop or DAG) puts every write to a tile after the tasks that read it before, so no other task holds the written tile; stored_index is injective and written() is never among reads(), so this exclusive guard is on a tile this task does not already hold
        let mut target = self.tiles[written].write();
        t.run(&mut target, &operands, tol)
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
    pub fn factorize_parallel(&self, workers: usize) -> (Result<(), FactorError>, MetricsReport) {
        // Default options: schedule validation on under `cfg(debug_assertions)`
        // (so every test factorization is checked).
        self.factorize_parallel_opts(workers, ExecOptions::default())
    }

    /// [`factorize_parallel`](TiledFactor::factorize_parallel) with explicit
    /// runtime options (tracing, schedule validation, precheck).
    pub fn factorize_parallel_opts(
        &self,
        workers: usize,
        opts: ExecOptions,
    ) -> (Result<(), FactorError>, MetricsReport) {
        let state = OpState::new(self, None);
        let report = state.execute(tasks(self.nt()).map(OpTask::Factor), workers, opts);
        (state.finish().0, report)
    }

    /// One model op on the runtime: generate Σ with `gen` and factor it as
    /// one task graph ([`op_tasks`]). Each `GEN` is a task beside the
    /// factor's, so the Cholesky starts on the first tiles generated: under
    /// dense FP64 POTRF(0) waits on `GEN(0, 0)` alone, and under MP and
    /// MP+TLR every factor task waits on the one `DECIDE` join. The factor
    /// is bitwise [`from_matrix`](TiledFactor::from_matrix) of
    /// [`SymTileMatrix::generate`] factorized by any engine.
    pub fn generate_and_factorize(
        gen: &TileGen<'_>,
        workers: usize,
        opts: ExecOptions,
    ) -> OpFactor {
        let layout = gen.layout();
        let stored = layout.stored_tiles();
        let empty = || RwLock::new(Tile::dense(Matrix::zeros(0, 0), Precision::F64));
        let mut factor = TiledFactor {
            layout,
            tiles: (0..stored).map(|_| empty()).collect(),
            tols: vec![DENSE_TOL; stored],
            band_size_dense: gen.config().band_size_dense.unwrap_or(1),
        };
        let state = OpState::new(&factor, Some(gen));
        let metrics = state.execute(op_tasks(layout.nt(), gen.decides()), workers, opts);
        let (result, decided) = state.finish();
        let dense_footprint_bytes = layout.dense_f64_bytes();
        let footprint_bytes = match decided {
            Some(d) => {
                factor.tols = d.tols;
                factor.band_size_dense = d.band_size_dense;
                d.footprint_bytes
            }
            None => dense_footprint_bytes,
        };
        OpFactor {
            factor,
            result,
            metrics,
            footprint_bytes,
            dense_footprint_bytes,
        }
    }
}

/// One model op's factor, as [`TiledFactor::generate_and_factorize`]
/// leaves it.
pub struct OpFactor {
    pub factor: TiledFactor,
    /// `Err` when a POTRF lost positive definiteness.
    pub result: Result<(), FactorError>,
    /// The run of the whole graph, generation included.
    pub metrics: MetricsReport,
    /// The generated matrix's footprint under its formats
    /// (`SymTileMatrix::footprint_bytes`).
    pub footprint_bytes: usize,
    /// The same matrix fully dense in FP64.
    pub dense_footprint_bytes: usize,
}

/// What `DECIDE` settles for the factor besides its tiles.
struct Decided {
    tols: Vec<f64>,
    band_size_dense: usize,
    footprint_bytes: usize,
}

/// The state the tasks of one graph share; each task borrows it.
struct OpState<'a> {
    factor: &'a TiledFactor,
    /// What the `GEN` and `DECIDE` tasks run; `None` in a factor-only graph.
    gen: Option<&'a TileGen<'a>>,
    /// Each `GEN`'s tile and norm, waiting on `DECIDE` (MP and MP+TLR).
    staged: Vec<Mutex<Option<Generated>>>,
    decided: OnceLock<Decided>,
    /// Earliest failed pivot (global index); `usize::MAX` while none.
    failed: AtomicUsize,
}

impl<'a> OpState<'a> {
    fn new(factor: &'a TiledFactor, gen: Option<&'a TileGen<'a>>) -> OpState<'a> {
        let staged = match gen {
            Some(gen) if gen.decides() => {
                (0..factor.tiles.len()).map(|_| Mutex::new(None)).collect()
            }
            _ => Vec::new(),
        };
        OpState {
            factor,
            gen,
            staged,
            decided: OnceLock::new(),
            failed: AtomicUsize::new(usize::MAX),
        }
    }

    /// Build the graph of `ops` over the factor's tiles and execute it.
    fn execute(
        &self,
        ops: impl Iterator<Item = OpTask>,
        workers: usize,
        opts: ExecOptions,
    ) -> MetricsReport {
        let nt = self.factor.nt();
        let mut g = TaskGraph::new();
        for t in ops {
            let (kind, accesses, priority) = (t.name(), self.factor.op_accesses(t), t.priority(nt));
            let run = move || self.run(t);
            match t.coords() {
                Some(at) => g.insert_at(kind, at, accesses, priority, run),
                None => g.insert(kind, accesses, priority, 0.0, run),
            };
        }
        // Static gate ahead of execution: the built DAG's per-kind counts
        // must match the closed form for `nt` (the executor's own precheck
        // then covers acyclicity and hazard edges).
        if opts.precheck {
            let census = match self.gen {
                None => xgs_analysis::check_cholesky_census(g.task_kinds(), nt),
                Some(gen) => xgs_analysis::check_model_op_census(g.task_kinds(), nt, gen.decides()),
            };
            if let Err(e) = census {
                panic!("cholesky DAG precheck: {e}");
            }
        }
        execute_opts(g, workers, opts)
    }

    /// One task's body. Every task after a failed POTRF returns at once; a
    /// POTRF runs only after `DECIDE`, so `DECIDE` finds every `GEN`'s tile.
    fn run(&self, t: OpTask) {
        if self.failed.load(Ordering::Acquire) != usize::MAX {
            return;
        }
        let f = self.factor;
        let gen = || self.gen.expect("generation tasks need their TileGen");
        match t {
            OpTask::Gen { i, j } => {
                let idx = f.stored((i, j));
                let (i, j) = (i as usize, j as usize);
                match gen().decides() {
                    true => *self.staged[idx].lock() = Some(gen().tile(i, j)),
                    false => *f.tiles[idx].write() = gen().dense_f64_tile(i, j),
                }
            }
            OpTask::Decide => {
                let gens = self.staged.iter().map(|slot| slot.lock().take());
                let gens = gens.map(|g| g.expect("DECIDE follows every GEN"));
                let m = gen().decide(gens.collect());
                let tol_rel = m.config.tlr_tolerance;
                let decided = Decided {
                    tols: low_rank_tolerances(&m.tiles, tol_rel, m.global_norm, m.nt()),
                    band_size_dense: m.band_size_dense,
                    footprint_bytes: m.footprint_bytes(),
                };
                for (slot, tile) in f.tiles.iter().zip(m.tiles) {
                    *slot.write() = tile;
                }
                // The one DECIDE of the graph sets it.
                let _ = self.decided.set(decided);
            }
            OpTask::Factor(t) => {
                let written = f.stored(t.written());
                let tol = match self.decided.get() {
                    Some(d) => d.tols[written],
                    None => f.tols[written],
                };
                if let Err(FactorError::NotPositiveDefinite { pivot }) = f.run_at(t, tol) {
                    // Keep the earliest pivot for determinism.
                    self.failed.fetch_min(pivot, Ordering::AcqRel);
                }
            }
        }
    }

    /// The factorization's outcome and what `DECIDE` settled.
    fn finish(self) -> (Result<(), FactorError>, Option<Decided>) {
        let result = match self.failed.into_inner() {
            usize::MAX => Ok(()),
            pivot => Err(FactorError::NotPositiveDefinite { pivot }),
        };
        (result, self.decided.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use xgs_covariance::{jittered_grid, morton_order, Matern, MaternParams};
    use xgs_tile::{FlopKernelModel, TileGen, TlrConfig, Variant};

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

    // ---- One model op as one graph: GEN, DECIDE and the factor.

    use crate::task::{op_tasks, Kernel, OpTask};
    use std::collections::BTreeSet;
    use xgs_covariance::{CovarianceKernel, Location};

    fn sites(n: usize) -> Vec<Location> {
        let mut rng = StdRng::seed_from_u64(11);
        let mut locs = jittered_grid(n, &mut rng);
        morton_order(&mut locs);
        locs
    }

    fn tlr_friendly() -> FlopKernelModel {
        FlopKernelModel {
            dense_rate: 45.0e9,
            mem_factor: 1.0,
        }
    }

    #[test]
    fn generation_joins_the_factor_graph_where_its_data_does() {
        let locs = sites(300);
        let (kernel, model) = (
            Matern::new(MaternParams::new(1.0, 0.03, 0.5)),
            tlr_friendly(),
        );
        for variant in Variant::ALL {
            let cfg = TlrConfig::new(variant, 50);
            let gen = TileGen::new(&kernel, &locs, cfg, &model);
            let f = TiledFactor::from_matrix(SymTileMatrix::generate(&kernel, &locs, cfg, &model));
            let nt = f.nt();
            let ops: Vec<OpTask> = op_tasks(nt, gen.decides()).collect();
            let accesses: Vec<Vec<Access>> = ops.iter().map(|&t| f.op_accesses(t)).collect();
            let mut preds = vec![BTreeSet::new(); ops.len()];
            let mut succs = vec![Vec::new(); ops.len()];
            for (p, s, _, _) in xgs_runtime::derived_edges(&accesses) {
                preds[s.0].insert(p.0);
                succs[p.0].push(s.0);
            }
            let at = |t: OpTask| ops.iter().position(|&o| o == t).unwrap();
            let potrf0 = at(OpTask::Factor(Task {
                kind: Kernel::Potrf,
                k: 0,
                i: 0,
                j: 0,
            }));
            let gen00 = at(OpTask::Gen { i: 0, j: 0 });
            let gens: BTreeSet<usize> = (0..ops.len())
                .filter(|&t| matches!(ops[t], OpTask::Gen { .. }))
                .collect();
            assert!(gens.iter().all(|&t| preds[t].is_empty()), "{variant:?}");
            if !gen.decides() {
                assert_eq!(variant, Variant::DenseF64);
                assert!(!ops.contains(&OpTask::Decide));
                assert_eq!(preds[potrf0], BTreeSet::from([gen00]));
                continue;
            }
            let decide = at(OpTask::Decide);
            assert_eq!(preds[decide], gens, "{variant:?}: DECIDE follows every GEN");
            // Everything reachable from DECIDE (edges run forward in
            // insertion order).
            let mut after = vec![false; ops.len()];
            after[decide] = true;
            for t in decide..ops.len() {
                if after[t] {
                    for &s in &succs[t] {
                        after[s] = true;
                    }
                }
            }
            for (t, op) in ops.iter().enumerate() {
                let OpTask::Factor(task) = op else { continue };
                let off_diagonal = task.reads().chain([task.written()]).any(|(i, j)| i != j);
                if off_diagonal {
                    assert!(after[t], "{variant:?}: {task:?} does not follow DECIDE");
                }
            }
        }
    }

    #[test]
    fn a_traced_model_op_shows_generation_by_tile() {
        let locs = sites(200);
        let kernel = Matern::new(MaternParams::new(1.0, 0.05, 0.5));
        let (cfg, model) = (TlrConfig::new(Variant::MpDenseTlr, 50), tlr_friendly());
        let gen = TileGen::new(&kernel, &locs, cfg, &model);
        let opts = ExecOptions {
            trace: true,
            ..Default::default()
        };
        let op = TiledFactor::generate_and_factorize(&gen, 2, opts);
        op.result.unwrap();
        let count = |kind| {
            let row = op.metrics.kernels.iter().find(|k| k.kind == kind);
            row.map_or(0, |k| k.count)
        };
        assert_eq!((count("gen"), count("decide"), count("potrf")), (10, 1, 4));
        assert_eq!(op.metrics.tasks, 10 + 1 + 20);
        let json = xgs_runtime::chrome_trace_json(&op.metrics.trace);
        let events = match xgs_runtime::parse_json(&json).unwrap() {
            xgs_runtime::JsonValue::Array(events) => events,
            other => panic!("not an array: {other:?}"),
        };
        let tiles: BTreeSet<(u64, u64)> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("gen"))
            .map(|e| {
                let tile = e
                    .get("args")
                    .and_then(|a| a.get("tile"))
                    .expect("GEN names its tile");
                let at = |k: usize| tile.as_array().and_then(|t| t[k].as_u64()).unwrap();
                (at(0), at(1))
            })
            .collect();
        let want: BTreeSet<(u64, u64)> = (0..4).flat_map(|j| (j..4).map(move |i| (i, j))).collect();
        assert_eq!(tiles, want);
        let decide: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("decide"))
            .collect();
        assert_eq!(decide.len(), 1);
        assert!(decide[0].get("args").unwrap().get("tile").is_none());
    }

    /// A kernel that counts the single entries `cov` evaluates: generation
    /// reads entries that way only to check a low-rank tile against its
    /// exact block.
    struct Counting<K> {
        base: K,
        exact: AtomicUsize,
    }

    impl<K: CovarianceKernel> CovarianceKernel for Counting<K> {
        fn cov(&self, a: &Location, b: &Location) -> f64 {
            self.exact.fetch_add(1, Ordering::Relaxed);
            self.base.cov(a, b)
        }
        fn cov_column(&self, rows: &[Location], col: &Location, out: &mut [f64]) {
            self.base.cov_column(rows, col, out);
        }
        fn variance(&self) -> f64 {
            self.base.variance()
        }
        fn n_params(&self) -> usize {
            self.base.n_params()
        }
    }

    #[test]
    fn the_graph_checks_every_low_rank_tile_as_generate_does() {
        let locs = sites(400);
        let kernel = Counting {
            base: Matern::new(MaternParams::new(1.0, 0.01, 0.5)),
            exact: AtomicUsize::new(0),
        };
        let (cfg, model) = (TlrConfig::new(Variant::MpDenseTlr, 50), tlr_friendly());
        let phased = SymTileMatrix::generate(&kernel, &locs, cfg, &model);
        let checked = kernel.exact.swap(0, Ordering::Relaxed);
        let gen = TileGen::new(&kernel, &locs, cfg, &model);
        let op = TiledFactor::generate_and_factorize(&gen, 2, ExecOptions::default());
        op.result.unwrap();
        assert_eq!(kernel.exact.load(Ordering::Relaxed), checked);
        let low_rank = phased.tiles.iter().filter(|t| !t.is_dense()).count();
        assert!(low_rank > 0, "no low-rank tile to check");
        if cfg!(debug_assertions) {
            // At least every tile still low-rank, read whole.
            let entries: usize = (phased.tiles.iter())
                .filter(|t| !t.is_dense())
                .map(|t| t.rows() * t.cols())
                .sum();
            assert!(
                checked >= entries,
                "{checked} exact reads, {entries} low-rank entries"
            );
        } else {
            assert_eq!(checked, 0, "the exact check is a debug-build check");
        }
    }
}
