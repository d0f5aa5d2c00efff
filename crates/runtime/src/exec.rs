//! Shared-memory executor: asynchronous task execution on the shared pool.
//!
//! This module owns *order*, not threads. Ready tasks sit in one
//! critical-path priority heap; `workers` worker loops pull the
//! highest-priority ready task, run it, and release its dependents. The
//! loops are one batch on the process's work-stealing pool (`rayon`), the
//! same threads tile generation, covariance assembly and PSO use, so an
//! execution creates no thread and an execution nested inside a pool task
//! shares the pool instead of multiplying threads. With correct hazard
//! edges from the graph this is observationally equivalent to the
//! sequential insertion order while exploiting all available concurrency —
//! the runtime contract the paper's solver is built on.
//!
//! That contract is *checked*, not assumed: every run records per-task
//! start/end sequence numbers, and [`crate::validate`] re-derives the
//! hazard edges from the declared accesses and asserts the schedule
//! respected each one. Validation is on by default in debug builds (so
//! every `cargo test` execution is validated) and opt-in in release via
//! [`ExecOptions::validate`]. Runs also aggregate a [`MetricsReport`]
//! (per-kernel timings, queue depth, worker balance, conversion traffic).

use crate::convert::conversion_counts;
use crate::graph::{Access, TaskGraph, TaskId};
use crate::metrics::{KernelStats, MetricsReport, QueueDepthStats, WorkerStats};
use crate::stats::TraceEvent;
use crate::validate::{check_schedule, describe_violations, TaskOrder, UNRECORDED};
use parking_lot::{Condvar, Mutex};
use rayon::prelude::*;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Outcome of a graph execution.
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// Wall-clock seconds for the whole graph.
    pub wall_seconds: f64,
    /// Number of tasks executed.
    pub tasks: usize,
    /// Worker count used.
    pub workers: usize,
    /// Per-worker busy seconds.
    pub busy_seconds: Vec<f64>,
    /// Execution trace (one event per task) when tracing was requested.
    pub trace: Vec<TraceEvent>,
    /// Aggregated execution metrics (when [`ExecOptions::metrics`] was on,
    /// the default).
    pub metrics: Option<MetricsReport>,
}

impl ExecReport {
    /// Load imbalance: `max(busy) / mean(busy)` (1.0 = perfectly
    /// balanced).
    ///
    /// NaN-free by construction: when no busy time was recorded (empty
    /// graph, or all tasks were too fast to measure) the ratio is
    /// undefined and the *balanced* sentinel `1.0` is returned.
    pub fn imbalance(&self) -> f64 {
        let max = self.busy_seconds.iter().cloned().fold(0.0f64, f64::max);
        let mean = self.busy_seconds.iter().sum::<f64>() / self.busy_seconds.len().max(1) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }

    /// Parallel efficiency: total busy time / (wall * workers).
    ///
    /// NaN-free by construction: if the denominator is zero (a graph so
    /// small the wall clock did not advance) there was no opportunity to
    /// waste worker time and the ideal sentinel `1.0` is returned; a
    /// positive wall with zero busy time yields `0.0` naturally.
    pub fn efficiency(&self) -> f64 {
        let busy: f64 = self.busy_seconds.iter().sum();
        let denom = self.wall_seconds * self.workers as f64;
        if denom > 0.0 {
            busy / denom
        } else {
            1.0
        }
    }
}

/// Execution knobs for [`execute_opts`].
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions {
    /// Record per-task start/end times into [`ExecReport::trace`].
    pub trace: bool,
    /// Run the post-hoc schedule validator ([`crate::validate`]) and panic
    /// on any violated hazard edge. Defaults to on in debug builds (every
    /// test execution is checked) and off in release; set explicitly to
    /// force either way.
    pub validate: bool,
    /// Sampling stride for the validator's sequence recording: only every
    /// `k`-th task (by insertion index) draws and stores its start/end
    /// ticks; hazard edges with an unsampled endpoint are skipped and
    /// censused in [`crate::validate::ValidationSummary::edges_skipped`].
    /// `1` (the default) records everything; larger strides trade coverage
    /// for less contention on the global tick counter in release-mode
    /// validated runs. `0` is treated as `1`.
    pub validate_every: usize,
    /// Aggregate a [`MetricsReport`] onto the report (cheap; default on).
    pub metrics: bool,
    /// Run the pre-execution graph checker (`xgs-analysis`) before any
    /// worker starts: cycle detection over the dependency lists, and a
    /// cross-check that the statically derived hazard-edge set is
    /// element-wise identical to the schedule validator's independently
    /// derived edges. A failure is a graph-construction bug and panics
    /// with the checker's diagnostic. Defaults to on in debug builds and
    /// off in release; `XGS_PRECHECK=1` in the environment opts in
    /// everywhere (see [`precheck_env_default`]).
    pub precheck: bool,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            trace: false,
            validate: cfg!(debug_assertions),
            validate_every: 1,
            metrics: true,
            precheck: precheck_env_default(),
        }
    }
}

/// The default for the pre-execution checks ([`ExecOptions::precheck`],
/// `ShardOptions::precheck` in `xgs-cholesky`): on under
/// `debug_assertions`, and opt-in in release builds by setting
/// `XGS_PRECHECK=1` (any value other than `0`/empty counts). Read once
/// and cached for the process lifetime.
pub fn precheck_env_default() -> bool {
    static FLAG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FLAG.get_or_init(|| {
        cfg!(debug_assertions)
            || std::env::var("XGS_PRECHECK")
                .map(|v| !v.is_empty() && v != "0")
                .unwrap_or(false)
    })
}

/// The pre-execution check behind [`ExecOptions::precheck`]: acyclicity
/// over the unpacked dependency lists, then element-wise agreement between
/// the statically derived hazard edges (`xgs-analysis`, an independent
/// implementation) and the schedule validator's own derivation. Panics
/// with a task-labelled diagnostic on failure — both conditions are
/// graph-construction bugs, never user errors.
fn precheck_graph(
    dependents: &[Vec<TaskId>],
    accesses: &[Vec<Access>],
    kinds: &[&'static str],
    coords: &[Option<(u32, u32)>],
) {
    let label = |t: usize| -> String {
        let kind = kinds.get(t).copied().unwrap_or("?");
        match coords.get(t).copied().flatten() {
            Some((i, j)) => format!("{kind}({i},{j})#{t}"),
            None => format!("{kind}#{t}"),
        }
    };
    if let Err(e) =
        xgs_analysis::check_acyclic(dependents.len(), |t| dependents[t].iter().map(|d| d.0))
    {
        if let xgs_analysis::GraphError::Cycle(path) = &e {
            let named: Vec<String> = path.iter().map(|&t| label(t)).collect();
            panic!(
                "pre-execution graph check failed: {e} [{}]",
                named.join(" -> ")
            );
        }
        panic!("pre-execution graph check failed: {e}");
    }
    match crate::validate::crosscheck_static_edges(accesses) {
        Ok(_) => {}
        Err(msg) => panic!(
            "pre-execution graph check failed: static hazard edges diverge \
             from the schedule validator's derivation: {msg}"
        ),
    }
}

#[derive(PartialEq, Eq)]
struct ReadyTask {
    priority: i64,
    id: TaskId,
}

impl Ord for ReadyTask {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap by priority; FIFO-ish by id for ties (earlier first).
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for ReadyTask {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Ready queue plus its depth census, updated under the same lock.
struct QueueState {
    heap: BinaryHeap<ReadyTask>,
    depth: QueueDepthStats,
    /// Set by the first task that panics; every loop returns on seeing it.
    aborted: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    available: Condvar,
    remaining: AtomicUsize,
    /// Global event counter behind the validator's total order; every task
    /// start and end draws one tick.
    seq: AtomicU64,
}

/// Per-loop accumulation, merged after the batch returns.
struct WorkerScratch {
    busy: f64,
    tasks: u64,
    parks: u64,
    kernels: HashMap<&'static str, KernelStats>,
    trace: Vec<TraceEvent>,
}

/// Execute a task graph with `workers` worker loops (0 = one per logical
/// CPU) in critical-path priority order; [`execute_opts`] documents what
/// `workers` means on the shared pool.
///
/// `trace` records per-task start/end times (adds a little overhead).
pub fn execute(graph: TaskGraph, workers: usize, trace: bool) -> ExecReport {
    execute_opts(
        graph,
        workers,
        ExecOptions {
            trace,
            ..ExecOptions::default()
        },
    )
}

/// Execute a task graph with full control over tracing, schedule
/// validation, and metrics collection.
///
/// `workers` is the number of worker *loops*, not of threads: the loops
/// run as one batch on the current `rayon` pool, so at most pool + 1 of
/// them (the pool's workers and the calling thread) run at once and the
/// rest find the graph finished when they are claimed. No thread is
/// created here, and an `execute` called from inside a pool task (a PSO
/// particle, say) shares the pool's threads with its siblings.
///
/// # Panics
///
/// When a task panics: the run is aborted, every loop returns, and the
/// first payload is re-raised on the calling thread; the pool stays
/// usable. Also when [`ExecOptions::validate`] is set and the realized
/// schedule violated a hazard edge — that is a runtime bug, never a user
/// error, so it is fatal by design.
#[allow(clippy::needless_range_loop)]
pub fn execute_opts(graph: TaskGraph, workers: usize, opts: ExecOptions) -> ExecReport {
    let workers = if workers == 0 {
        crate::logical_cores()
    } else {
        workers
    };
    let n = graph.len();
    let conversions_before = conversion_counts();
    // Dynamic race checking (vector clocks over the declared dependency
    // edges): on in debug builds / under XGS_RACE=1. Each run namespaces
    // its per-datum edges and cells under a fresh scope id, retired after
    // the loops return.
    let race_scope = crate::race::enabled().then(crate::race::new_scope);

    // Unpack the graph into shared, lock-free-readable structures.
    let mut closures: Vec<Option<Box<dyn FnOnce() + Send>>> = Vec::with_capacity(n);
    let mut dependents: Vec<Vec<TaskId>> = Vec::with_capacity(n);
    let mut kinds: Vec<&'static str> = Vec::with_capacity(n);
    let mut coords: Vec<Option<(u32, u32)>> = Vec::with_capacity(n);
    let mut priorities: Vec<i64> = Vec::with_capacity(n);
    let mut dep_counts: Vec<AtomicUsize> = Vec::with_capacity(n);
    let keep_accesses = opts.validate || opts.precheck || race_scope.is_some();
    let mut accesses = Vec::with_capacity(if keep_accesses { n } else { 0 });
    let mut initial_ready: Vec<ReadyTask> = Vec::new();
    for (idx, mut t) in graph.tasks.into_iter().enumerate() {
        closures.push(t.closure.take());
        dependents.push(std::mem::take(&mut t.dependents));
        kinds.push(t.kind);
        coords.push(t.coords);
        priorities.push(t.priority);
        dep_counts.push(AtomicUsize::new(t.n_deps));
        if keep_accesses {
            accesses.push(std::mem::take(&mut t.accesses));
        }
        if t.n_deps == 0 {
            initial_ready.push(ReadyTask {
                priority: t.priority,
                id: TaskId(idx),
            });
        }
    }

    // Pre-execution graph check: prove the graph acyclic (a cycle would
    // hang the pool — the post-run validator can never see it because a
    // cyclic graph never completes) and prove the static hazard-edge
    // derivation agrees with the validator's, before any loop starts.
    if opts.precheck {
        precheck_graph(&dependents, &accesses, &kinds, &coords);
    }
    // Closures must be callable from any worker; wrap in per-task Mutex-free
    // Option slots guarded by the DAG's exclusivity (each task runs once).
    #[allow(clippy::type_complexity)]
    let closures: Vec<Mutex<Option<Box<dyn FnOnce() + Send>>>> =
        closures.into_iter().map(Mutex::new).collect();

    let shared = Shared {
        queue: Mutex::new(QueueState {
            heap: initial_ready.into_iter().collect(),
            depth: QueueDepthStats::default(),
            aborted: false,
        }),
        available: Condvar::new(),
        remaining: AtomicUsize::new(n),
        seq: AtomicU64::new(0),
    };
    // Per-task (start_seq, end_seq) slots; every task runs exactly once so
    // each slot is written once. Relaxed suffices: both draws sit inside
    // the happens-before chain the dependency release already establishes,
    // and a single atomic's modification order is consistent with it.
    // Slots start at the UNRECORDED sentinel: a task the sampling stride
    // passes over simply never writes, and the validator skips its edges.
    let validate_every = opts.validate_every.max(1);
    let order: Vec<(AtomicU64, AtomicU64)> = if opts.validate {
        (0..n)
            .map(|_| (AtomicU64::new(UNRECORDED), AtomicU64::new(UNRECORDED)))
            .collect()
    } else {
        Vec::new()
    };

    let start = Instant::now();
    // One batch on the current pool. The calling thread claims loops
    // itself and a loop returns as soon as `remaining` is zero, so
    // completion never waits for a free pool worker; past 8 loops per pool
    // thread the shim puts several loops in one chunk, where they simply
    // run back to back.
    let loops: Vec<usize> = (0..workers).collect();
    let mut scratches: Vec<WorkerScratch> = loops
        .par_iter()
        .map(|&w| {
            let mut scratch = WorkerScratch {
                busy: 0.0,
                tasks: 0,
                parks: 0,
                kernels: HashMap::new(),
                trace: Vec::new(),
            };
            'run: loop {
                // Grab the best ready task or wait for one.
                let task = {
                    let mut q = shared.queue.lock();
                    loop {
                        if q.aborted || shared.remaining.load(Ordering::Acquire) == 0 {
                            break 'run;
                        }
                        if let Some(t) = q.heap.pop() {
                            let depth = q.heap.len();
                            q.depth.sample(depth);
                            break t;
                        }
                        scratch.parks += 1;
                        shared.available.wait(&mut q);
                    }
                };
                // Sampled recording: unsampled tasks skip both tick
                // draws entirely (their slots keep the UNRECORDED
                // sentinel), so the counter costs nothing for them.
                let sampled = task.id.0 % validate_every == 0;
                let start_seq = if sampled {
                    shared.seq.fetch_add(1, Ordering::Relaxed)
                } else {
                    UNRECORDED
                };
                // Race model: inherit the per-datum edges this task's
                // predecessors released, then declare the accesses.
                // Acquires must precede the access checks — the edge
                // is what orders this task after its predecessors.
                if let Some(rs) = race_scope {
                    use crate::graph::AccessMode;
                    for a in &accesses[task.id.0] {
                        crate::race::acquire(crate::race::SPACE_EXEC, rs, a.data.0);
                    }
                    for a in &accesses[task.id.0] {
                        match a.mode {
                            AccessMode::Read => {
                                crate::race::read(crate::race::SPACE_EXEC, rs, a.data.0)
                            }
                            AccessMode::Write => {
                                crate::race::write(crate::race::SPACE_EXEC, rs, a.data.0)
                            }
                        }
                    }
                }
                let t0 = start.elapsed().as_secs_f64();
                let f = closures[task.id.0].lock().take();
                if let Some(Err(payload)) = f.map(|f| catch_unwind(AssertUnwindSafe(f))) {
                    // `remaining` can no longer reach zero. Abort under the
                    // queue lock (the `finished` notify's no-lost-wakeup
                    // argument) so every parked loop returns; the batch
                    // re-raises the payload on the calling thread.
                    shared.queue.lock().aborted = true;
                    shared.available.notify_all();
                    resume_unwind(payload);
                }
                let t1 = start.elapsed().as_secs_f64();
                // Publish this task's effects on its data *before* any
                // dependent can be released below — a successor that
                // starts without this edge in its clock is exactly the
                // race the checker exists to catch.
                if let Some(rs) = race_scope {
                    for a in &accesses[task.id.0] {
                        crate::race::release(crate::race::SPACE_EXEC, rs, a.data.0);
                    }
                }
                // The end tick must be drawn before dependents are
                // released, or a successor could legitimately start
                // "before" its predecessor finished.
                if sampled {
                    let end_seq = shared.seq.fetch_add(1, Ordering::Relaxed);
                    if let Some((s, e)) = order.get(task.id.0) {
                        s.store(start_seq, Ordering::Relaxed);
                        e.store(end_seq, Ordering::Relaxed);
                    }
                }
                scratch.busy += t1 - t0;
                scratch.tasks += 1;
                let kind = kinds[task.id.0];
                if opts.metrics {
                    scratch
                        .kernels
                        .entry(kind)
                        .or_insert_with(|| KernelStats::new(kind))
                        .record(t1 - t0);
                }
                if opts.trace {
                    scratch.trace.push(TraceEvent {
                        task: task.id,
                        kind,
                        coords: coords[task.id.0],
                        worker: w,
                        start: t0,
                        end: t1,
                    });
                }

                // Release dependents.
                let mut newly_ready = Vec::new();
                for &dep in &dependents[task.id.0] {
                    if dep_counts[dep.0].fetch_sub(1, Ordering::AcqRel) == 1 {
                        newly_ready.push(ReadyTask {
                            priority: priorities[dep.0],
                            id: dep,
                        });
                    }
                }
                let finished = shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1;
                if !newly_ready.is_empty() {
                    let mut q = shared.queue.lock();
                    for r in newly_ready {
                        q.heap.push(r);
                    }
                    let depth = q.heap.len();
                    q.depth.sample(depth);
                    drop(q);
                    shared.available.notify_all();
                }
                if finished {
                    // Take the queue lock before notifying: a waiter is
                    // then either before its remaining-check (and will
                    // observe 0) or already parked (and gets the
                    // notification) — no lost wakeup.
                    drop(shared.queue.lock());
                    shared.available.notify_all();
                    break 'run;
                }
            }
            scratch
        })
        .collect();

    let wall = start.elapsed().as_secs_f64();

    if let Some(rs) = race_scope {
        crate::race::retire(crate::race::SPACE_EXEC, rs);
    }

    let validation = if opts.validate {
        let order: Vec<TaskOrder> = order
            .iter()
            .map(|(s, e)| TaskOrder {
                start_seq: s.load(Ordering::Relaxed),
                end_seq: e.load(Ordering::Relaxed),
            })
            .collect();
        match check_schedule(&accesses, &order) {
            Ok(summary) => Some(summary),
            Err(violations) => {
                let labels: Vec<String> = kinds
                    .iter()
                    .zip(&coords)
                    .map(|(k, c)| match c {
                        Some((i, j)) => format!("{k}[{i},{j}]"),
                        None => (*k).to_string(),
                    })
                    .collect();
                panic!(
                    "executor bug with {} worker loop(s): {}",
                    workers,
                    describe_violations(&violations, &labels)
                );
            }
        }
    } else {
        None
    };

    let busy_seconds: Vec<f64> = scratches.iter().map(|s| s.busy).collect();
    let mut trace_events: Vec<TraceEvent> = Vec::new();
    if opts.trace {
        for s in &mut scratches {
            trace_events.append(&mut s.trace);
        }
        trace_events.sort_by(|a, b| a.start.total_cmp(&b.start));
    }

    let metrics = opts.metrics.then(|| {
        let mut kernels: HashMap<&'static str, KernelStats> = HashMap::new();
        for s in &scratches {
            for (kind, ks) in &s.kernels {
                kernels
                    .entry(kind)
                    .or_insert_with(|| KernelStats::new(kind))
                    .merge(ks);
            }
        }
        let mut kernels: Vec<KernelStats> = kernels.into_values().collect();
        kernels.sort_by(|a, b| b.total_seconds.total_cmp(&a.total_seconds));
        MetricsReport {
            wall_seconds: wall,
            tasks: n,
            workers,
            kernels,
            queue_depth: shared.queue.into_inner().depth,
            worker_stats: scratches
                .iter()
                .map(|s| WorkerStats {
                    busy_seconds: s.busy,
                    tasks: s.tasks,
                    parks: s.parks,
                })
                .collect(),
            conversions: conversion_counts().since(&conversions_before),
            wire: Vec::new(),
            validation,
            pool: None,
        }
    });

    ExecReport {
        wall_seconds: wall,
        tasks: n,
        workers,
        busy_seconds,
        trace: trace_events,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Access, DataId};
    use std::sync::atomic::{AtomicU64, Ordering as AOrd};
    use std::sync::Arc;

    #[test]
    fn executes_every_task_exactly_once() {
        let counter = Arc::new(AtomicU64::new(0));
        let mut g = TaskGraph::new();
        for i in 0..500 {
            let c = counter.clone();
            g.insert(
                "inc",
                vec![Access::write(DataId(i % 7))],
                0,
                0.0,
                move || {
                    c.fetch_add(1, AOrd::Relaxed);
                },
            );
        }
        let report = execute(g, 4, false);
        assert_eq!(counter.load(AOrd::Relaxed), 500);
        assert_eq!(report.tasks, 500);
    }

    #[test]
    fn dependency_order_respected_under_parallelism() {
        // A chain through one datum must observe strictly increasing values.
        let value = Arc::new(AtomicU64::new(0));
        let ok = Arc::new(AtomicU64::new(1));
        let mut g = TaskGraph::new();
        let d = DataId(0);
        for i in 0..200u64 {
            let v = value.clone();
            let ok = ok.clone();
            g.insert("step", vec![Access::write(d)], 0, 0.0, move || {
                let prev = v.swap(i + 1, AOrd::SeqCst);
                if prev != i {
                    ok.store(0, AOrd::SeqCst);
                }
            });
        }
        execute(g, 8, false);
        assert_eq!(ok.load(AOrd::SeqCst), 1, "chain ran out of order");
    }

    #[test]
    fn parallel_matches_sequential_result() {
        // Random DAG over 16 data cells doing deterministic arithmetic:
        // result must equal the 1-worker execution.
        fn build(values: Arc<Vec<AtomicU64>>) -> TaskGraph {
            let mut g = TaskGraph::new();
            let mut seed = 12345u64;
            for _ in 0..400 {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let a = (seed >> 10) as usize % 16;
                let b = (seed >> 20) as usize % 16;
                let v = values.clone();
                g.insert(
                    "mix",
                    vec![
                        Access::read(DataId(a as u64)),
                        Access::write(DataId(b as u64)),
                    ],
                    0,
                    0.0,
                    move || {
                        let x = v[a].load(AOrd::SeqCst);
                        let y = v[b].load(AOrd::SeqCst);
                        v[b].store(y.wrapping_mul(31).wrapping_add(x ^ 0x9E37), AOrd::SeqCst);
                    },
                );
            }
            g
        }
        let seq: Arc<Vec<AtomicU64>> = Arc::new((0..16).map(AtomicU64::new).collect());
        execute(build(seq.clone()), 1, false);
        let par: Arc<Vec<AtomicU64>> = Arc::new((0..16).map(AtomicU64::new).collect());
        execute(build(par.clone()), 8, false);
        for i in 0..16 {
            assert_eq!(
                seq[i].load(AOrd::SeqCst),
                par[i].load(AOrd::SeqCst),
                "cell {i}"
            );
        }
    }

    #[test]
    fn priorities_order_ready_tasks_on_single_worker() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut g = TaskGraph::new();
        for (i, prio) in [(0u64, 1i64), (1, 5), (2, 3)] {
            let o = order.clone();
            g.insert("p", vec![Access::write(DataId(i))], prio, 0.0, move || {
                o.lock().push(prio);
            });
        }
        execute(g, 1, false);
        assert_eq!(*order.lock(), vec![5, 3, 1]);
    }

    #[test]
    fn trace_covers_all_tasks() {
        let mut g = TaskGraph::new();
        for i in 0..50 {
            g.insert("t", vec![Access::write(DataId(i))], 0, 0.0, || {
                std::hint::black_box(0u64);
            });
        }
        let r = execute(g, 3, true);
        assert_eq!(r.trace.len(), 50);
        assert!(r.trace.iter().all(|e| e.end >= e.start));
        assert!(r.efficiency() <= 1.0 + 1e-9);
        assert!(r.imbalance() >= 1.0 - 1e-9);
    }

    #[test]
    fn empty_graph_returns_clean_report() {
        let r = execute(TaskGraph::new(), 2, true);
        assert_eq!(r.tasks, 0);
        assert!(r.trace.is_empty());
        // Sentinel contract: no NaNs out of the degenerate report.
        assert_eq!(r.imbalance(), 1.0);
        let e = r.efficiency();
        assert!(e.is_finite() && (0.0..=1.0).contains(&e), "efficiency {e}");
    }

    #[test]
    fn zero_busy_report_has_sentinel_ratios() {
        // Hand-built report: positive wall, no recorded busy time.
        let r = ExecReport {
            wall_seconds: 1.0,
            tasks: 0,
            workers: 4,
            busy_seconds: vec![0.0; 4],
            trace: Vec::new(),
            metrics: None,
        };
        assert_eq!(r.imbalance(), 1.0);
        assert_eq!(r.efficiency(), 0.0);
        // And the fully degenerate case: zero wall, zero workers.
        let z = ExecReport {
            wall_seconds: 0.0,
            tasks: 0,
            workers: 0,
            busy_seconds: Vec::new(),
            trace: Vec::new(),
            metrics: None,
        };
        assert_eq!(z.imbalance(), 1.0);
        assert_eq!(z.efficiency(), 1.0);
    }

    #[test]
    fn single_worker_report_is_balanced() {
        let mut g = TaskGraph::new();
        for i in 0..20 {
            g.insert("t", vec![Access::write(DataId(i))], 0, 0.0, || {
                std::hint::black_box((0..100u64).sum::<u64>());
            });
        }
        let r = execute(g, 1, false);
        assert_eq!(r.workers, 1);
        // One worker: max == mean, imbalance exactly 1.0 (or the zero-busy
        // sentinel, also 1.0).
        assert_eq!(r.imbalance(), 1.0);
        assert!(r.efficiency().is_finite());
    }

    #[test]
    fn wide_fan_uses_multiple_workers() {
        // 64 independent 2ms sleeps on 8 workers: multiple workers must
        // participate and the wall time must beat the 128ms serial time
        // with margin. (Sleeps overlap even on one CPU; the generous bound
        // keeps the test stable when the host is otherwise loaded.) The
        // loops run on a pool of their own so the other tests of this
        // binary, which share the global pool, cannot occupy its threads.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(8)
            .build()
            .unwrap();
        let mut g = TaskGraph::new();
        for i in 0..64 {
            g.insert("sleep", vec![Access::write(DataId(i))], 0, 0.0, || {
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        }
        let r = pool.install(|| execute(g, 8, true));
        let distinct: std::collections::HashSet<usize> = r.trace.iter().map(|e| e.worker).collect();
        assert!(
            distinct.len() >= 2,
            "only {} worker(s) ran tasks",
            distinct.len()
        );
        assert!(
            r.wall_seconds < 0.100,
            "no parallelism observed: {}s for 128ms of serial sleeps",
            r.wall_seconds
        );
    }

    #[test]
    fn metrics_cover_kernels_workers_and_queue() {
        let mut g = TaskGraph::new();
        let d = DataId(0);
        for i in 0..40u64 {
            let kind = if i % 2 == 0 { "even" } else { "odd" };
            g.insert(
                kind,
                vec![Access::write(DataId(i % 5)), Access::read(d)],
                0,
                0.0,
                || {
                    std::hint::black_box((0..500u64).sum::<u64>());
                },
            );
        }
        let r = execute_opts(
            g,
            3,
            ExecOptions {
                validate: true,
                ..ExecOptions::default()
            },
        );
        let m = r.metrics.expect("metrics on by default");
        assert_eq!(m.tasks, 40);
        assert_eq!(m.workers, 3);
        assert_eq!(m.worker_stats.len(), 3);
        assert_eq!(m.kernels.iter().map(|k| k.count).sum::<u64>(), 40);
        let kinds: Vec<&str> = m.kernels.iter().map(|k| k.kind).collect();
        assert!(kinds.contains(&"even") && kinds.contains(&"odd"));
        assert_eq!(m.worker_stats.iter().map(|w| w.tasks).sum::<u64>(), 40);
        assert!(m.queue_depth.samples > 0);
        let v = m.validation.expect("validator requested");
        assert!(v.edges_checked > 0, "shared read datum must create edges");
        // The JSON export round-trips the structure without NaNs.
        let json = m.to_json();
        assert!(json.contains("\"tasks\":40"));
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn metrics_opt_out_leaves_report_lean() {
        let mut g = TaskGraph::new();
        g.insert("t", vec![Access::write(DataId(0))], 0, 0.0, || {});
        let r = execute_opts(
            g,
            1,
            ExecOptions {
                metrics: false,
                validate: false,
                ..ExecOptions::default()
            },
        );
        assert!(r.metrics.is_none());
    }

    #[test]
    fn sampled_validation_skips_edges_but_passes() {
        // A write chain over one datum: 99 consecutive WAW edges. With a
        // stride of 3, consecutive tasks are never both sampled, so every
        // edge lands in edges_skipped; the run must still pass cleanly.
        let mut g = TaskGraph::new();
        for _ in 0..100u64 {
            g.insert("w", vec![Access::write(DataId(0))], 0, 0.0, || {});
        }
        let r = execute_opts(
            g,
            4,
            ExecOptions {
                validate: true,
                validate_every: 3,
                ..ExecOptions::default()
            },
        );
        let v = r.metrics.unwrap().validation.unwrap();
        assert_eq!(v.edges_checked, 0);
        assert_eq!(v.edges_skipped, 99);

        // Stride 1 through the same machinery checks everything.
        let mut g = TaskGraph::new();
        for _ in 0..100u64 {
            g.insert("w", vec![Access::write(DataId(0))], 0, 0.0, || {});
        }
        let r = execute_opts(
            g,
            4,
            ExecOptions {
                validate: true,
                validate_every: 1,
                ..ExecOptions::default()
            },
        );
        let v = r.metrics.unwrap().validation.unwrap();
        assert_eq!(v.edges_checked, 99);
        assert_eq!(v.edges_skipped, 0);
    }

    #[test]
    fn validate_every_zero_is_treated_as_one() {
        let mut g = TaskGraph::new();
        for i in 0..10u64 {
            g.insert("t", vec![Access::write(DataId(i % 2))], 0, 0.0, || {});
        }
        let r = execute_opts(
            g,
            2,
            ExecOptions {
                validate: true,
                validate_every: 0,
                ..ExecOptions::default()
            },
        );
        let v = r.metrics.unwrap().validation.unwrap();
        assert_eq!(v.edges_skipped, 0);
        assert_eq!(v.edges_checked, 8);
    }

    #[test]
    fn validator_runs_at_every_worker_count() {
        for workers in [1, 2, 4, 8] {
            let mut g = TaskGraph::new();
            let d = DataId(9);
            for i in 0..100u64 {
                g.insert(
                    "t",
                    vec![Access::write(DataId(i % 11)), Access::read(d)],
                    (i % 3) as i64,
                    0.0,
                    || {},
                );
                if i % 10 == 0 {
                    g.insert("w", vec![Access::write(d)], 0, 0.0, || {});
                }
            }
            let r = execute_opts(
                g,
                workers,
                ExecOptions {
                    validate: true,
                    ..ExecOptions::default()
                },
            );
            let v = r.metrics.unwrap().validation.unwrap();
            assert!(v.edges_checked > 0, "{workers} workers: no edges checked");
        }
    }

    #[test]
    fn coords_flow_into_the_trace() {
        let mut g = TaskGraph::new();
        g.insert_at("potrf", (2, 2), vec![Access::write(DataId(0))], 0, || {});
        g.insert("aux", vec![Access::write(DataId(1))], 0, 0.0, || {});
        let r = execute(g, 1, true);
        let potrf = r.trace.iter().find(|e| e.kind == "potrf").unwrap();
        assert_eq!(potrf.coords, Some((2, 2)));
        let aux = r.trace.iter().find(|e| e.kind == "aux").unwrap();
        assert_eq!(aux.coords, None);
    }
}
