//! Tile Cholesky factorization in the paper's three variants, plus the
//! tiled triangular solves and log-determinant the MLE pipeline needs.
//!
//! * **dense FP64** — the reference (Algorithm 1 with all tiles FP64);
//! * **MP dense** — per-tile FP64/FP32/FP16 with on-demand operand
//!   conversion (Algorithm 1's `+`/`*` operands);
//! * **MP + dense/TLR** — the paper's contribution: a dense FP64 band,
//!   mixed-precision dense tiles where norms allow, and low-rank tiles
//!   elsewhere, with HiCMA-style low-rank kernels (TRSM touches only the
//!   `V` factor; GEMM products stay low-rank and are *rounded* back to the
//!   target accuracy after each update).
//!
//! The algorithm is written once, in [`task`]: the loop nest
//! ([`task::tasks`]), each task's tiles and priority, and the one dispatch
//! onto [`kernels`] ([`task::Task::run`]). Everything else reads it — the
//! sequential reference ([`TiledFactor::factorize_seq`]), the task-graph
//! engine on `xgs-runtime` ([`TiledFactor::factorize_parallel`]), the
//! multi-process [`shard`] plan and worker, and the simulator skeleton
//! ([`cholesky_dag`]) — so all of them apply the same kernels to each
//! tile in the same order and produce bitwise-identical factors.

pub mod dag;
pub mod factor;
pub mod kernels;
pub mod shard;
pub mod solve;
pub mod task;

pub use dag::{cholesky_dag, DagOptions, DagStats};
pub use factor::{FactorError, TiledFactor};
pub use shard::{
    admit_worker, grid_shape, project_wire_census, tile_wire_frame_bytes, worker_loop_with,
    ChaosSpec, JoinInfo, NoReplacement, ReplacementOrigin, ReplacementSource, ReplacementWorker,
    ShardBackend, ShardError, ShardOptions, ShardReport, WorkerOptions,
};
pub use solve::{logdet, solve_lower, solve_lower_transpose};
