//! Multi-process sharded tile Cholesky over a 2D block-cyclic distribution.
//!
//! This is the distributed-memory execution the paper runs through PaRSEC,
//! scaled down to one machine: a **coordinator** (the process holding the
//! [`TiledFactor`]) partitions the tile grid over `p x q` worker processes
//! with [`block_cyclic_owner`](xgs_runtime::block_cyclic_owner) — the same
//! owner function the discrete-event simulator uses — and drives the
//! right-looking Cholesky DAG. Workers execute the POTRF/TRSM/SYRK/GEMM
//! tasks they own; tiles cross ownership boundaries as length-prefixed
//! binary frames over loopback TCP ([`xgs_runtime::shard`]), bitwise
//! ([`xgs_tile::wire`]).
//!
//! Topology is hub-and-spoke: workers connect only to the coordinator,
//! which relays tiles between owners. Commands to one worker form a FIFO
//! stream, and the coordinator only sends a task after (a) every operand
//! the worker does not own has been forwarded earlier on the same stream,
//! and (b) the DONE of every cross-worker predecessor has been processed.
//! Together with per-tile write-ownership (every writer of a stored tile
//! is owned by that tile's owner) this makes the coordinator's
//! DONE-processing order a linearization of the DAG — which is exactly
//! what we hand to the same hazard-edge validator that checks the
//! shared-memory executor.
//!
//! The tasks and their kernels are [`crate::task`]'s — the plan takes
//! [`panel_tasks`](crate::task::panel_tasks), opens each panel one step
//! early (a one-panel lookahead: the next POTRF and, where no forward
//! stands in between, its TRSMs go ahead of the bulk of the trailing
//! update), numbers the tasks in that order and adds what only the wire
//! needs (seeds, forwards, publish flags, and a barrier only where
//! forwards follow it). A `TASK` frame carries a
//! [`Task`](crate::task::Task), and the worker executes it with
//! [`Task::run`](crate::task::Task::run). Every tile still sees its
//! writes in step order, so per-tile kernel invocation order is identical
//! to [`TiledFactor::factorize_seq`] and the sharded factor is
//! **bitwise** equal to the single-process one (asserted by
//! `tests/shard_equivalence`).
//!
//! Frames travel in batches: the coordinator queues each worker's frames
//! and writes them with one `write_all` once 64 KiB are queued and before
//! every wait; a worker queues its replies and writes them after a
//! publishing task, after a `HEARTBEAT` echo and before any read that
//! would block. Both ends read through one buffered
//! [`FrameReader`](xgs_runtime::FrameReader). One reader thread per
//! worker serves a run, and it ends at that worker's census echo — the
//! last frame a run reads — or at the connection's loss; a failed run
//! shuts its sockets down, which ends them all.
//!
//! There is one way to run a sharded factorization: a fleet of registered
//! workers that stays warm between runs. The `xgs-fleet` supervisor
//! starts, admits and owns the workers and is the one [`ShardBackend`]; a
//! one-shot run is a supervisor with no standbys dropped at scope exit.
//!
//! Frame kinds (payloads little-endian, protocol version 3; one encoder
//! and one decoder per layout in `proto.rs`):
//!
//! | kind | # | dir | payload |
//! |------|---|-----|---------|
//! | `HELLO`     | 1 | c→w | `version, worker_id, p, q, nt, nb, n` |
//! | `TILE`      | 2 | both | `i, j, tile bytes` ([`xgs_tile::wire`]) |
//! | `TASK`      | 3 | c→w | `kind, task_id, k, i, j, tol, publish` |
//! | `DONE`      | 4 | w→c | `task_id, kind, ok, pivot, elapsed` |
//! | reserved    | 5, 6 | — | version 2's `SHUTDOWN`/`BYE` teardown |
//! | `JOIN`      | 7 | w→c | `version, cores, precision_mask` |
//! | `HEARTBEAT` | 8 | both | c→w `nonce`; w→c `nonce, tasks_executed` |
//! | `ASSIGN`    | 9 | c→w | `version, member_id, role` |
//!
//! `JOIN`/`ASSIGN` form the registration handshake a worker performs once
//! per connection, before any `HELLO` ([`admit_worker`]); `HEARTBEAT` is
//! the liveness probe and the end-of-run census carrier: its echo reports
//! the tasks executed since the last `HELLO`, and the connection stays
//! open for the next factorization. A worker exits when its coordinator
//! closes the connection. Variable-length payload decoding is
//! forward-compatible: a decoder accepts any payload at least as long as
//! the fields it knows and ignores trailing bytes, so the protocol can
//! grow fields; the leading version byte on `HELLO`/`JOIN`/`ASSIGN` is
//! what rejects genuinely incompatible peers with a clear error.
//!
//! Elasticity: [`TiledFactor::factorize_elastic`] accepts a
//! [`ReplacementSource`]. When a worker dies mid-run the coordinator does
//! not fail the factorization — it takes a replacement connection,
//! rebuilds the lost shard's state by replaying that worker's logged
//! step prefix (seeding finally-published tiles from the coordinator's
//! published-tile map instead of re-running their producers), and
//! re-dispatches only the tasks whose written tiles were not yet final.
//! Every recovery plan is validated by `xgs-analysis` (`check_shard_plan`
//! on the base plan plus `check_recovery_plan` on the replay) before any
//! frame is sent. Workers are deterministic functions of their FIFO input
//! stream, so the recovered factor stays bitwise-equal to sequential.
//!
//! Layout: `proto` (frame vocabulary and codecs), `plan` (the one step
//! sequence — `crate::task`'s tasks in lookahead order plus the wire's
//! seeds, forwards and barriers — and everything derived from it), `worker` (handshake and
//! worker loop), `coordinator` (drive loop), `recover` (replay).

mod coordinator;
mod plan;
mod proto;
mod recover;
#[cfg(test)]
mod tests;
mod worker;

pub use plan::{grid_shape, project_wire_census};
pub use proto::{
    tile_wire_frame_bytes, JoinInfo, K_ASSIGN, K_DONE, K_HEARTBEAT, K_HELLO, K_JOIN, K_TASK,
    K_TILE, PROTO_VERSION, TILE_COORD_BYTES,
};
pub use recover::{NoReplacement, ReplacementOrigin, ReplacementSource, ReplacementWorker};
pub use worker::{admit_worker, worker_loop_with, ChaosSpec, ChaosTrigger, WorkerOptions};

use crate::factor::{FactorError, TiledFactor};
use std::time::Duration;
use xgs_runtime::{precheck_env_default, MetricsReport};

/// Failure of a sharded factorization.
#[derive(Debug)]
pub enum ShardError {
    /// Numerical failure, identical semantics to the in-process engines.
    Factor(FactorError),
    /// A worker process died or its connection broke mid-run.
    WorkerLost { worker: usize, detail: String },
    /// The run exceeded [`ShardOptions::deadline`].
    Timeout { phase: &'static str },
    /// The peer violated the protocol (bad frame, missing operand, wrong
    /// task census ...).
    Protocol(String),
    /// Worker processes could not be spawned or connected.
    Spawn(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Factor(e) => write!(f, "{e}"),
            ShardError::WorkerLost { worker, detail } => {
                write!(f, "shard worker {worker} lost: {detail}")
            }
            ShardError::Timeout { phase } => write!(f, "sharded run timed out during {phase}"),
            ShardError::Protocol(what) => write!(f, "shard protocol violation: {what}"),
            ShardError::Spawn(what) => write!(f, "failed to launch shard workers: {what}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<FactorError> for ShardError {
    fn from(e: FactorError) -> ShardError {
        ShardError::Factor(e)
    }
}

/// How a sharded factorization is driven. The process grid is not an
/// option: it is always [`grid_shape`] of the worker count.
#[derive(Clone, Copy, Debug)]
pub struct ShardOptions {
    /// Wall-clock budget for the whole factorization, including the
    /// end-of-run census. On expiry the coordinator aborts with
    /// [`ShardError::Timeout`] rather than hanging on a wedged worker.
    pub deadline: Duration,
    /// Run the completion order through the hazard-edge validator
    /// (default: on in debug builds, like the shared-memory executor).
    pub validate: bool,
    /// Statically check the sharded plan before any frame is sent: the
    /// `xgs-analysis` checker replays the coordinator's exact emission
    /// order over the block-cyclic owner map and proves every remote
    /// operand has a matching TILE transfer, nothing is sent to its own
    /// shard, no tile is used stale, and the per-kernel census matches the
    /// closed form; the static hazard-edge derivation is also
    /// cross-checked against the validator's, and the measured TILE frame
    /// census is held to the plan's after the run. Default: on in debug
    /// builds, opt-in in release via `XGS_PRECHECK=1` (see
    /// [`xgs_runtime::precheck_env_default`]).
    pub precheck: bool,
}

impl Default for ShardOptions {
    /// A generous deadline; validation and precheck default as in the
    /// shared-memory executor.
    fn default() -> ShardOptions {
        ShardOptions {
            deadline: Duration::from_secs(120),
            validate: cfg!(debug_assertions),
            precheck: precheck_env_default(),
        }
    }
}

/// What one sharded factorization observed.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Same schema as the in-process executor's metrics: per-kernel stats
    /// from worker-reported task timings, per-worker busy/task counters
    /// (every surviving worker's end-of-run `HEARTBEAT` echo was verified
    /// against the TASK frames the coordinator sent it).
    pub metrics: MetricsReport,
}

/// Anything that can run a sharded factorization for the higher layers
/// (`FactorEngine::Sharded`, the prediction server). The `xgs-fleet`
/// supervisor is the one production implementation; the trait is the
/// seam that keeps this crate free of process management and lets tests
/// substitute a failing backend.
pub trait ShardBackend: Send + Sync + std::fmt::Debug {
    fn factorize(&self, f: &mut TiledFactor) -> Result<ShardReport, ShardError>;

    /// Human-readable strategy tag for logs and `serve` banners.
    fn describe(&self) -> String;
}
