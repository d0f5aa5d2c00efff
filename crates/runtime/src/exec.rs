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
//! That contract is *checked*, not assumed: a validated run records
//! per-task start/end sequence numbers, and [`crate::validate`] re-derives
//! the hazard edges from the declared accesses and asserts the schedule
//! respected each one. Validation is on by default in debug builds (so
//! every `cargo test` execution is validated) and opt-in in release via
//! [`ExecOptions::validate`]. Every run returns a [`MetricsReport`]
//! (per-kernel timings, queue depth, worker balance, conversion traffic,
//! and the per-task trace when asked for).

use crate::convert::thread_conversion_counts;
use crate::graph::{Access, TaskGraph, TaskId};
use crate::metrics::{KernelStats, MetricsReport, QueueDepthStats, WorkerStats};
use crate::stats::TraceEvent;
use crate::validate::{check_schedule, describe_violations, TaskOrder};
use parking_lot::{Condvar, Mutex};
use rayon::prelude::*;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Execution knobs for [`execute_opts`].
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions {
    /// Record per-task start/end times into [`MetricsReport::trace`].
    pub trace: bool,
    /// Run the post-hoc schedule validator ([`crate::validate`]) and panic
    /// on any violated hazard edge. Defaults to on in debug builds (every
    /// test execution is checked) and off in release; set explicitly to
    /// force either way.
    pub validate: bool,
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
    /// Global event counter behind the validator's total order; in a
    /// validated run every task start and end draws one tick.
    seq: AtomicU64,
}

/// Per-loop accumulation, merged after the batch returns.
struct WorkerScratch {
    busy: f64,
    tasks: u64,
    parks: u64,
    kernels: HashMap<&'static str, KernelStats>,
    trace: Vec<TraceEvent>,
    /// Elements its tasks converted, in `ConversionCounts` field order.
    conversions: [u64; 6],
}

/// Execute a task graph with `workers` worker loops (0 = one per logical
/// CPU) in critical-path priority order; [`execute_opts`] documents what
/// `workers` means on the shared pool.
///
/// `trace` records per-task start/end times (adds a little overhead).
pub fn execute(graph: TaskGraph<'_>, workers: usize, trace: bool) -> MetricsReport {
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
/// validation and the pre-execution graph check.
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
pub fn execute_opts(graph: TaskGraph<'_>, workers: usize, opts: ExecOptions) -> MetricsReport {
    let workers = if workers == 0 {
        crate::logical_cores()
    } else {
        workers
    };
    let n = graph.len();
    // Dynamic race checking (vector clocks over the declared dependency
    // edges): on in debug builds / under XGS_RACE=1. Each run namespaces
    // its per-datum edges and cells under a fresh scope id, retired after
    // the loops return.
    let race_scope = crate::race::enabled().then(crate::race::new_scope);

    // Unpack the graph into shared, lock-free-readable structures.
    let mut closures: Vec<Option<Box<dyn FnOnce() + Send + '_>>> = Vec::with_capacity(n);
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
    let closures: Vec<Mutex<Option<Box<dyn FnOnce() + Send + '_>>>> =
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
    // Per-task (start_seq, end_seq) slots, only for a validated run; every
    // task runs exactly once so each slot is written once. Relaxed
    // suffices: both draws sit inside the happens-before chain the
    // dependency release already establishes, and a single atomic's
    // modification order is consistent with it.
    let order: Vec<(AtomicU64, AtomicU64)> = if opts.validate {
        (0..n)
            .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
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
                conversions: [0; 6],
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
                // Only a validated run draws ticks: the counter costs an
                // unvalidated run nothing.
                let start_seq = opts
                    .validate
                    .then(|| shared.seq.fetch_add(1, Ordering::Relaxed));
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
                let converted_before = thread_conversion_counts();
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
                // A task converts on this thread only: tile kernels do not
                // fork onto the pool, and the one task that does (a model
                // op's DECIDE, forming tiles) converts nothing.
                let converted = thread_conversion_counts();
                for ((sum, after), before) in scratch
                    .conversions
                    .iter_mut()
                    .zip(converted)
                    .zip(converted_before)
                {
                    *sum += after - before;
                }
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
                if let Some(start_seq) = start_seq {
                    let end_seq = shared.seq.fetch_add(1, Ordering::Relaxed);
                    let (s, e) = &order[task.id.0];
                    s.store(start_seq, Ordering::Relaxed);
                    e.store(end_seq, Ordering::Relaxed);
                }
                scratch.busy += t1 - t0;
                scratch.tasks += 1;
                let kind = kinds[task.id.0];
                scratch
                    .kernels
                    .entry(kind)
                    .or_insert_with(|| KernelStats::new(kind))
                    .record(t1 - t0);
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

    let mut trace: Vec<TraceEvent> = Vec::new();
    if opts.trace {
        for s in &mut scratches {
            trace.append(&mut s.trace);
        }
        trace.sort_by(|a, b| a.start.total_cmp(&b.start));
    }

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
    let mut conversions = [0; 6];
    for s in &scratches {
        for (sum, c) in conversions.iter_mut().zip(s.conversions) {
            *sum += c;
        }
    }
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
        conversions: conversions.into(),
        wire: Vec::new(),
        validation,
        pool: None,
        trace,
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

    /// Two executions held inside their tasks at the same time by a
    /// barrier each report only what their own task converted.
    #[test]
    fn overlapping_executions_count_only_their_own_conversions() {
        use std::sync::Barrier;
        use xgs_kernels::Precision;
        let _counters = crate::convert::tests::COUNTERS
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let started = Arc::new(Barrier::new(2));
        let counted = Arc::new(Barrier::new(2));
        let run = |elements: u64| {
            let (started, counted) = (started.clone(), counted.clone());
            std::thread::spawn(move || {
                let mut g = TaskGraph::new();
                g.insert(
                    "convert",
                    vec![Access::write(DataId(0))],
                    0,
                    0.0,
                    move || {
                        // Both executions have begun before either converts,
                        // and both have converted before either ends.
                        started.wait();
                        crate::count_conversion(Precision::F64, Precision::F32, elements);
                        counted.wait();
                    },
                );
                execute(g, 1, false).conversions
            })
        };
        let (a, b) = (run(100), run(7));
        let (a, b) = (a.join().unwrap(), b.join().unwrap());
        assert_eq!((a.f64_to_f32, a.total()), (100, 100));
        assert_eq!((b.f64_to_f32, b.total()), (7, 7));
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
    fn tasks_borrow_the_callers_data() {
        // No `Arc`: the tasks borrow locals that outlive the execution.
        let cells: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        let step = 5u64;
        let mut g = TaskGraph::new();
        for (i, cell) in cells.iter().enumerate() {
            let step = &step;
            g.insert(
                "add",
                vec![Access::write(DataId(i as u64))],
                0,
                0.0,
                move || {
                    cell.fetch_add(*step, AOrd::SeqCst);
                },
            );
        }
        assert_eq!(execute(g, 2, false).tasks, 4);
        assert!(cells.iter().all(|c| c.load(AOrd::SeqCst) == 5));
    }

    #[test]
    fn parallel_matches_sequential_result() {
        // Random DAG over 16 data cells doing deterministic arithmetic:
        // result must equal the 1-worker execution.
        fn build(values: Arc<Vec<AtomicU64>>) -> TaskGraph<'static> {
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
        let m = execute_opts(
            g,
            3,
            ExecOptions {
                validate: true,
                ..ExecOptions::default()
            },
        );
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
    fn validation_checks_every_edge() {
        // A write chain over one datum: 99 consecutive WAW edges, every
        // one checked.
        let mut g = TaskGraph::new();
        for _ in 0..100u64 {
            g.insert("w", vec![Access::write(DataId(0))], 0, 0.0, || {});
        }
        let r = execute_opts(
            g,
            4,
            ExecOptions {
                validate: true,
                ..ExecOptions::default()
            },
        );
        let v = r.validation.unwrap();
        assert_eq!((v.edges_checked, v.waw_edges), (99, 99));
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
            let v = r.validation.unwrap();
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
