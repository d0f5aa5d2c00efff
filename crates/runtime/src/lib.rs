//! A PaRSEC-style dynamic task-based runtime.
//!
//! The paper relies on PaRSEC to (a) schedule the heterogeneous tasks of the
//! MP+dense/TLR Cholesky asynchronously, (b) convert operand precisions
//! on demand as data flows between tasks of different formats, and (c)
//! absorb the load imbalance the adaptive tile formats create. This crate
//! reproduces those roles:
//!
//! * [`graph::TaskGraph`] — tasks declare read/write accesses on abstract
//!   data handles; dependencies (RAW/WAR/WAW) are inferred in insertion
//!   order, exactly like a superscalar/dataflow runtime unrolling a DAG.
//! * [`exec`] — the DAG executor: a critical-path priority heap drained by
//!   worker loops that run on the shared `rayon` pool (no threads of its
//!   own), reporting each run as one [`MetricsReport`] (per-kernel and
//!   per-loop busy time, task counts, imbalance, and the per-task trace
//!   when asked for).
//! * [`convert`] — global counters for the on-demand precision conversions
//!   ("PaRSEC will move and convert on-the-fly the operands ... to match
//!   the precision at the receiver side").
//! * [`distsim`] — a distributed-memory discrete-event simulator: the same
//!   DAG, mapped 2D-block-cyclically over `P` nodes with a machine model,
//!   yields the simulated makespans behind the Fugaku-scale figures.

pub mod convert;
pub mod distsim;
pub mod exec;
pub mod graph;
pub mod metrics;
pub mod race;
pub mod shard;
pub mod stats;
pub mod validate;

pub use convert::{conversion_counts, count_conversion, reset_conversion_counts, ConversionCounts};
pub use distsim::{
    block_cyclic_owner, simulate, simulate_with_metrics, MachineSpec, SimResult, SimTask,
};
pub use exec::{execute, execute_opts, precheck_env_default, ExecOptions};
pub use graph::{Access, AccessMode, DataId, TaskGraph, TaskId};
pub use metrics::{
    KernelStats, MetricsReport, PoolCounters, QueueDepthStats, TimeHistogram, WireStats,
    WorkerStats,
};
pub use race::{race_count, take_races, Race};
pub use shard::{
    read_frame, task_census, write_frame, FrameError, FrameReader, Outbox, WireReader, WireWriter,
    FRAME_HEADER_BYTES, MAX_FRAME_BYTES,
};
pub use stats::{chrome_trace_json, TraceEvent};
pub use validate::{
    check_schedule, crosscheck_static_edges, derived_edges, Hazard, TaskOrder, ValidationSummary,
    Violation,
};
pub use xgs_json as json;
pub use xgs_json::{parse_json, JsonError, JsonValue};

/// The one shared logical-core probe.
///
/// Every layer that sizes itself by the machine — the executor's default
/// worker count, the shard workers' JOIN core advertisement, the bench
/// defaults, and (via the same `num_cpus` vendor shim) the `rayon` pool —
/// must go through this helper so they all advertise the same number.
/// Probing `available_parallelism` or `num_cpus::get()` directly anywhere
/// else is flagged by the `no-raw-parallelism-probe` lint.
pub fn logical_cores() -> usize {
    // xgs-lint: allow(no-raw-parallelism-probe): this is the shared helper itself
    num_cpus::get()
}
