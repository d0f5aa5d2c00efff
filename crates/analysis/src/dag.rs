//! Pre-execution graph checking.
//!
//! Everything here is an *independent* implementation of invariants the
//! runtime also enforces dynamically: [`hazard_edges`] re-derives the
//! superscalar RAW/WAR/WAW edges from access lists, [`check_acyclic`]
//! catches the deadlock the post-run validator can never see (a cyclic
//! graph never completes, so there is no schedule to validate),
//! [`check_cholesky_census`] pins the DAG against the closed-form
//! per-kernel counts, and [`check_shard_plan`] proves frame-protocol
//! safety of a sharded factorization plan over the block-cyclic owner map
//! before any worker process is spawned.
//!
//! This crate deliberately depends on nothing: `xgs-runtime` and
//! `xgs-cholesky` depend on *it* and convert their graphs into the plain
//! types below, so agreement between this module and the runtime is a
//! real cross-check, not one implementation quoted twice.

use std::collections::HashMap;
use std::fmt;

/// One data access of a task: which datum, and whether it writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessSpec {
    pub data: u64,
    pub write: bool,
}

impl AccessSpec {
    pub fn read(data: u64) -> AccessSpec {
        AccessSpec { data, write: false }
    }
    pub fn write(data: u64) -> AccessSpec {
        AccessSpec { data, write: true }
    }
}

/// Dependency hazard classes, superscalar-style.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HazardKind {
    Raw,
    War,
    Waw,
}

impl fmt::Display for HazardKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HazardKind::Raw => "RAW",
            HazardKind::War => "WAR",
            HazardKind::Waw => "WAW",
        })
    }
}

/// A hazard edge: `pred` must fully precede `succ` because of `data`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    pub pred: usize,
    pub succ: usize,
    pub data: u64,
    pub kind: HazardKind,
}

/// Derive every hazard edge implied by per-task access lists, walking
/// tasks in submission order exactly like a superscalar issue window:
/// a read depends on the last writer (RAW); a write depends on the last
/// writer (WAW) and on every reader since (WAR), then becomes the last
/// writer and clears the reader set.
///
/// Each task is processed in two phases — every edge is derived against
/// the *pre-task* state before any of the task's own accesses update it —
/// matching the runtime validator's semantics, so the executor can demand
/// element-wise equality between the two independently derived lists.
pub fn hazard_edges(accesses: &[Vec<AccessSpec>]) -> Vec<Edge> {
    let mut last_writer: HashMap<u64, usize> = HashMap::new();
    let mut readers: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut edges = Vec::new();
    for (succ, list) in accesses.iter().enumerate() {
        for a in list {
            if a.write {
                if let Some(&w) = last_writer.get(&a.data) {
                    edges.push(Edge {
                        pred: w,
                        succ,
                        data: a.data,
                        kind: HazardKind::Waw,
                    });
                }
                for &r in readers.get(&a.data).map(Vec::as_slice).unwrap_or(&[]) {
                    if r != succ {
                        edges.push(Edge {
                            pred: r,
                            succ,
                            data: a.data,
                            kind: HazardKind::War,
                        });
                    }
                }
            } else if let Some(&w) = last_writer.get(&a.data) {
                if w != succ {
                    edges.push(Edge {
                        pred: w,
                        succ,
                        data: a.data,
                        kind: HazardKind::Raw,
                    });
                }
            }
        }
        for a in list {
            if a.write {
                last_writer.insert(a.data, succ);
                readers.insert(a.data, Vec::new());
            } else {
                readers.entry(a.data).or_default().push(succ);
            }
        }
    }
    edges
}

/// Why a graph fails the pre-execution check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// The dependency graph contains this cycle (task ids, in order; the
    /// first id is repeated conceptually — the last task points back at
    /// the first).
    Cycle(Vec<usize>),
    /// A task names a successor outside the graph.
    BadSuccessor { task: usize, succ: usize, n: usize },
    /// Kernel census doesn't match the closed form for this tile count.
    Census {
        kind: &'static str,
        got: u64,
        want: u64,
        nt: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Cycle(path) => {
                write!(f, "dependency cycle: ")?;
                for (i, t) in path.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "task {t}")?;
                }
                if let Some(first) = path.first() {
                    write!(f, " -> task {first}")?;
                }
                Ok(())
            }
            GraphError::BadSuccessor { task, succ, n } => write!(
                f,
                "task {task} lists successor {succ}, but the graph has only {n} tasks"
            ),
            GraphError::Census {
                kind,
                got,
                want,
                nt,
            } => write!(
                f,
                "kernel census mismatch for nt={nt}: {got} {kind} tasks, closed form wants {want}"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// Check that the graph with `n` tasks and the given successor lists is
/// acyclic. On failure the error carries one concrete cycle, in order.
///
/// Iterative three-color DFS (no recursion: graphs reach hundreds of
/// thousands of tasks and a recursive walk would overflow the stack
/// before the cycle is ever reported).
pub fn check_acyclic<F, I>(n: usize, successors: F) -> Result<(), GraphError>
where
    F: Fn(usize) -> I,
    I: IntoIterator<Item = usize>,
{
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; n];
    let mut parent = vec![usize::MAX; n];
    for root in 0..n {
        if color[root] != WHITE {
            continue;
        }
        // Stack of (node, successor list, resume index).
        let mut stack: Vec<(usize, Vec<usize>, usize)> = Vec::new();
        let succs: Vec<usize> = successors(root).into_iter().collect();
        color[root] = GRAY;
        stack.push((root, succs, 0));
        loop {
            let (node, step) = match stack.last_mut() {
                None => break,
                Some((node, succs, next)) => {
                    let s = succs.get(*next).copied();
                    if s.is_some() {
                        *next += 1;
                    }
                    (*node, s)
                }
            };
            let Some(s) = step else {
                color[node] = BLACK;
                stack.pop();
                continue;
            };
            if s >= n {
                return Err(GraphError::BadSuccessor {
                    task: node,
                    succ: s,
                    n,
                });
            }
            match color[s] {
                WHITE => {
                    parent[s] = node;
                    color[s] = GRAY;
                    let nsuccs: Vec<usize> = successors(s).into_iter().collect();
                    stack.push((s, nsuccs, 0));
                }
                GRAY => {
                    // Found a back edge: walk parents from `node` back to
                    // `s` to report the cycle in order.
                    let mut path = vec![node];
                    let mut cur = node;
                    while cur != s {
                        cur = parent[cur];
                        path.push(cur);
                    }
                    path.reverse();
                    return Err(GraphError::Cycle(path));
                }
                _ => {}
            }
        }
    }
    Ok(())
}

/// Closed-form kernel counts of the right-looking tile Cholesky DAG on an
/// `nt × nt` tile grid, and of the generation in front of it in a model
/// op's graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelCensus {
    pub potrf: u64,
    pub trsm: u64,
    pub syrk: u64,
    pub gemm: u64,
    /// `GEN` tasks: one per stored tile in a model op, none in a factor.
    pub gen: u64,
    /// `DECIDE` joins: one in a model op whose variant decides formats.
    pub decide: u64,
}

impl KernelCensus {
    /// The factorization alone: `nt` POTRFs, `nt(nt-1)/2` TRSMs and SYRKs,
    /// `nt(nt-1)(nt-2)/6` GEMMs — total `nt + nt(nt-1)/2 + nt(nt²-1)/6`.
    pub fn expected(nt: usize) -> KernelCensus {
        let nt = nt as u64;
        KernelCensus {
            potrf: nt,
            trsm: nt * nt.saturating_sub(1) / 2,
            syrk: nt * nt.saturating_sub(1) / 2,
            gemm: nt * nt.saturating_sub(1) * nt.saturating_sub(2) / 6,
            gen: 0,
            decide: 0,
        }
    }

    /// One model op: the factorization's counts, `nt(nt+1)/2` GENs, and
    /// one DECIDE when the variant `decides` formats (none for dense FP64).
    pub fn model_op(nt: usize, decides: bool) -> KernelCensus {
        let n = nt as u64;
        KernelCensus {
            gen: n * (n + 1) / 2,
            decide: decides as u64,
            ..KernelCensus::expected(nt)
        }
    }

    pub fn total(&self) -> u64 {
        self.potrf + self.trsm + self.syrk + self.gemm + self.gen + self.decide
    }

    /// Every count with its kind name, in the order checks report them.
    fn rows(&self) -> [(&'static str, u64); 6] {
        [
            ("potrf", self.potrf),
            ("trsm", self.trsm),
            ("syrk", self.syrk),
            ("gemm", self.gemm),
            ("gen", self.gen),
            ("decide", self.decide),
        ]
    }
}

/// Count kernel kinds (`"potrf"`, `"trsm"`, `"syrk"`, `"gemm"`) and
/// compare against [`KernelCensus::expected`] for `nt`.
pub fn check_cholesky_census<'a>(
    kinds: impl IntoIterator<Item = &'a str>,
    nt: usize,
) -> Result<KernelCensus, GraphError> {
    check_census(kinds, KernelCensus::expected(nt), nt)
}

/// Count the kinds of a model op's graph (the factor's four, `"gen"` and
/// `"decide"`) and compare against [`KernelCensus::model_op`].
pub fn check_model_op_census<'a>(
    kinds: impl IntoIterator<Item = &'a str>,
    nt: usize,
    decides: bool,
) -> Result<KernelCensus, GraphError> {
    check_census(kinds, KernelCensus::model_op(nt, decides), nt)
}

fn check_census<'a>(
    kinds: impl IntoIterator<Item = &'a str>,
    want: KernelCensus,
    nt: usize,
) -> Result<KernelCensus, GraphError> {
    let mut got = KernelCensus {
        potrf: 0,
        trsm: 0,
        syrk: 0,
        gemm: 0,
        gen: 0,
        decide: 0,
    };
    let mut other = 0u64;
    for k in kinds {
        match k {
            "potrf" => got.potrf += 1,
            "trsm" => got.trsm += 1,
            "syrk" => got.syrk += 1,
            "gemm" => got.gemm += 1,
            "gen" => got.gen += 1,
            "decide" => got.decide += 1,
            _ => other += 1,
        }
    }
    let rows = got.rows().into_iter().zip(want.rows());
    let rows = rows.map(|((kind, g), (_, w))| (kind, g, w));
    for (kind, g, w) in rows.chain([("unknown-kind", other, 0)]) {
        if g != w {
            return Err(GraphError::Census {
                kind,
                got: g,
                want: w,
                nt,
            });
        }
    }
    Ok(got)
}

// ------------------------------------------------------------- shard plans

/// The block-cyclic owner map, restated here independently of
/// `xgs_runtime::distsim::block_cyclic_owner` so the plan checker
/// cross-checks the distribution instead of assuming it.
pub fn block_cyclic_owner(i: usize, j: usize, p: usize, q: usize) -> usize {
    (i % p) * q + (j % q)
}

/// One task of a sharded factorization plan.
#[derive(Clone, Debug)]
pub struct PlanTask {
    /// `"potrf" | "trsm" | "syrk" | "gemm"`.
    pub kind: &'static str,
    /// Worker that executes the task (must own the written tile).
    pub owner: usize,
    /// Tiles read (tile coordinates, row >= col).
    pub reads: Vec<(usize, usize)>,
    /// Tile written in place.
    pub write: (usize, usize),
    /// Whether the worker sends the written tile back (its value is final
    /// and other shards / the coordinator will need it).
    pub publish: bool,
    /// Wire bytes of the publish TILE frame (0 when `publish` is false).
    /// Computed by the caller from the tile's declared format — this crate
    /// stays dependency-free, so byte accounting is plain numbers here.
    pub publish_bytes: u64,
}

/// One coordinator-side event, in emission order. FIFO per-stream
/// ordering is what turns this sequence into a proof: a transfer emitted
/// before a task on the same worker's stream is processed first.
#[derive(Clone, Debug)]
pub enum PlanEvent {
    /// A TILE frame to `to`. `initial` transfers seed the distribution
    /// from the coordinator's storage (version 0); later transfers
    /// forward a published tile produced on its owning shard.
    Transfer {
        tile: (usize, usize),
        to: usize,
        initial: bool,
        /// Wire bytes of this TILE frame, caller-computed from the tile's
        /// declared precision and structure.
        bytes: u64,
    },
    /// Dispatch of `tasks[index]` to its owner.
    Task(usize),
}

/// A complete sharded plan: grid, tasks, and the event sequence the
/// coordinator will emit.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    pub nt: usize,
    pub p: usize,
    pub q: usize,
    pub workers: usize,
    pub tasks: Vec<PlanTask>,
    pub events: Vec<PlanEvent>,
}

/// Why a sharded plan is unsafe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// Grid shape doesn't tile the worker fleet.
    Grid { p: usize, q: usize, workers: usize },
    /// A task is placed on a worker that doesn't own its written tile.
    WrongOwner {
        task: usize,
        kind: &'static str,
        tile: (usize, usize),
        placed: usize,
        owner: usize,
    },
    /// A task reads a tile its shard never received (or received stale):
    /// the frame protocol would deadlock or compute garbage.
    MissingOperand {
        task: usize,
        kind: &'static str,
        tile: (usize, usize),
        worker: usize,
        have: Option<u64>,
        want: u64,
    },
    /// A published tile is forwarded before its producing task ran.
    ForwardBeforeProduce { tile: (usize, usize), to: usize },
    /// A tile is forwarded to the shard that already owns it.
    SendToSelf { tile: (usize, usize), owner: usize },
    /// The same tile version is transferred twice to one worker.
    DuplicateTransfer {
        tile: (usize, usize),
        to: usize,
        version: u64,
    },
    /// An initial transfer is mis-routed off the owner map.
    MisroutedSeed {
        tile: (usize, usize),
        to: usize,
        owner: usize,
    },
    /// Per-kernel census over the plan doesn't match the closed form.
    Census(GraphError),
    /// Event references a task id outside `tasks`.
    BadEvent { index: usize },
    /// A recovery replay seeds a tile wrongly (ownership, finality, dup).
    RecoveryBadSeed {
        tile: (usize, usize),
        why: &'static str,
    },
    /// A recovery replay forwards a tile it must not.
    RecoveryBadForward {
        tile: (usize, usize),
        why: &'static str,
    },
    /// A recovery replay re-dispatches a task it must not.
    RecoveryBadReplay { task: usize, why: &'static str },
    /// A replayed task would read an operand at the wrong version.
    RecoveryStaleOperand {
        task: usize,
        tile: (usize, usize),
        have: Option<u64>,
        want: u64,
    },
    /// The replay ends short of the lost shard's dispatched state.
    RecoveryIncomplete { why: String },
    /// The recovery plan's completed/dispatched bookkeeping contradicts
    /// itself (or the base plan).
    RecoveryInconsistent { why: String },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Grid { p, q, workers } => {
                write!(f, "grid {p}x{q} does not tile {workers} workers")
            }
            PlanError::WrongOwner {
                task,
                kind,
                tile,
                placed,
                owner,
            } => write!(
                f,
                "task {task} ({kind} on tile ({},{})) placed on worker {placed}, but the \
                 block-cyclic map owns it to worker {owner}",
                tile.0, tile.1
            ),
            PlanError::MissingOperand {
                task,
                kind,
                tile,
                worker,
                have,
                want,
            } => write!(
                f,
                "task {task} ({kind}) on worker {worker} reads tile ({},{}) at version {want}, \
                 but the plan delivers {} — no matching TILE transfer precedes the task",
                tile.0,
                tile.1,
                match have {
                    Some(v) => format!("version {v}"),
                    None => "nothing".to_string(),
                }
            ),
            PlanError::ForwardBeforeProduce { tile, to } => write!(
                f,
                "tile ({},{}) forwarded to worker {to} before its producing task published it",
                tile.0, tile.1
            ),
            PlanError::SendToSelf { tile, owner } => write!(
                f,
                "tile ({},{}) forwarded to worker {owner}, which already owns it",
                tile.0, tile.1
            ),
            PlanError::DuplicateTransfer { tile, to, version } => write!(
                f,
                "tile ({},{}) version {version} transferred to worker {to} twice",
                tile.0, tile.1
            ),
            PlanError::MisroutedSeed { tile, to, owner } => write!(
                f,
                "initial transfer routes tile ({},{}) to worker {to}; owner map says {owner}",
                tile.0, tile.1
            ),
            PlanError::Census(e) => write!(f, "{e}"),
            PlanError::BadEvent { index } => {
                write!(f, "plan event references task {index} out of range")
            }
            PlanError::RecoveryBadSeed { tile, why } => {
                write!(f, "recovery seed of tile ({},{}): {why}", tile.0, tile.1)
            }
            PlanError::RecoveryBadForward { tile, why } => {
                write!(f, "recovery forward of tile ({},{}): {why}", tile.0, tile.1)
            }
            PlanError::RecoveryBadReplay { task, why } => {
                write!(f, "recovery replay of task {task}: {why}")
            }
            PlanError::RecoveryStaleOperand {
                task,
                tile,
                have,
                want,
            } => write!(
                f,
                "replayed task {task} reads tile ({},{}) at version {want}, replay delivers {}",
                tile.0,
                tile.1,
                match have {
                    Some(v) => format!("version {v}"),
                    None => "nothing".to_string(),
                }
            ),
            PlanError::RecoveryIncomplete { why } => write!(f, "recovery incomplete: {why}"),
            PlanError::RecoveryInconsistent { why } => {
                write!(f, "recovery bookkeeping inconsistent: {why}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// What a verified plan looks like, for logging.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanSummary {
    pub tasks: u64,
    pub transfers: u64,
    pub forwards: u64,
    /// TILE frames the plan moves: seeds + forwards + publishes.
    pub tile_frames: u64,
    /// Total wire bytes of those TILE frames, from the caller-supplied
    /// per-event byte counts. The coordinator asserts its measured TILE
    /// census equals this when tile formats are static (dense storage).
    pub tile_bytes: u64,
    /// Tasks per worker under the owner map.
    pub per_worker: Vec<u64>,
}

/// Statically verify a sharded plan: owner placement, seed routing, and —
/// by replaying the event sequence with tile versions — that every task's
/// read sees the *current* version of each operand on its shard, that no
/// tile is forwarded before its producer published it, that nothing is
/// sent to its own shard, and that the per-kernel census matches the
/// closed form for `nt`.
pub fn check_shard_plan(plan: &ShardPlan) -> Result<PlanSummary, PlanError> {
    let (p, q, workers) = (plan.p, plan.q, plan.workers);
    if p == 0 || q == 0 || p * q != workers {
        return Err(PlanError::Grid { p, q, workers });
    }
    // Independent owner check for every task.
    for (t, task) in plan.tasks.iter().enumerate() {
        let owner = block_cyclic_owner(task.write.0, task.write.1, p, q);
        if task.owner != owner {
            return Err(PlanError::WrongOwner {
                task: t,
                kind: task.kind,
                tile: task.write,
                placed: task.owner,
                owner,
            });
        }
    }
    // Census against the closed form.
    check_cholesky_census(plan.tasks.iter().map(|t| t.kind), plan.nt).map_err(PlanError::Census)?;

    // Replay: per-worker tile versions, global current version, and the
    // set of published (coordinator-held) versions.
    let mut version: HashMap<(usize, usize), u64> = HashMap::new();
    let mut held: Vec<HashMap<(usize, usize), u64>> = vec![HashMap::new(); workers];
    let mut published: HashMap<(usize, usize), u64> = HashMap::new();
    let mut transfers = 0u64;
    let mut forwards = 0u64;
    let mut tile_frames = 0u64;
    let mut tile_bytes = 0u64;
    let mut per_worker = vec![0u64; workers];
    for ev in &plan.events {
        match ev {
            PlanEvent::Transfer {
                tile,
                to,
                initial,
                bytes,
            } => {
                let cur = version.get(tile).copied().unwrap_or(0);
                let owner = block_cyclic_owner(tile.0, tile.1, p, q);
                if *initial {
                    if *to != owner {
                        return Err(PlanError::MisroutedSeed {
                            tile: *tile,
                            to: *to,
                            owner,
                        });
                    }
                } else {
                    if published.get(tile) != Some(&cur) || cur == 0 {
                        return Err(PlanError::ForwardBeforeProduce {
                            tile: *tile,
                            to: *to,
                        });
                    }
                    if *to == owner {
                        return Err(PlanError::SendToSelf { tile: *tile, owner });
                    }
                    forwards += 1;
                }
                let slot = held.get_mut(*to).ok_or(PlanError::Grid { p, q, workers })?;
                if slot.insert(*tile, cur) == Some(cur) {
                    return Err(PlanError::DuplicateTransfer {
                        tile: *tile,
                        to: *to,
                        version: cur,
                    });
                }
                transfers += 1;
                tile_frames += 1;
                tile_bytes += bytes;
            }
            PlanEvent::Task(t) => {
                let task = plan
                    .tasks
                    .get(*t)
                    .ok_or(PlanError::BadEvent { index: *t })?;
                for need in task.reads.iter().chain(std::iter::once(&task.write)) {
                    let want = version.get(need).copied().unwrap_or(0);
                    let have = held[task.owner].get(need).copied();
                    if have != Some(want) {
                        return Err(PlanError::MissingOperand {
                            task: *t,
                            kind: task.kind,
                            tile: *need,
                            worker: task.owner,
                            have,
                            want,
                        });
                    }
                }
                let v = version.entry(task.write).or_insert(0);
                *v += 1;
                held[task.owner].insert(task.write, *v);
                if task.publish {
                    published.insert(task.write, *v);
                    tile_frames += 1;
                    tile_bytes += task.publish_bytes;
                }
                per_worker[task.owner] += 1;
            }
        }
    }
    Ok(PlanSummary {
        tasks: plan.tasks.len() as u64,
        transfers,
        forwards,
        tile_frames,
        tile_bytes,
        per_worker,
    })
}

// --------------------------------------------------------- recovery plans

/// One frame of a worker-replacement replay, in the order the coordinator
/// will emit them onto the replacement's FIFO stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// Seed a tile the lost shard owned from the coordinator's *original*
    /// storage — its final value was not yet published, so the replayed
    /// writers rebuild it from scratch.
    SeedOriginal { tile: (usize, usize) },
    /// Seed an owned tile from its *published* (final) bytes: its last
    /// writer completed before the death, so nothing needs re-running.
    SeedPublished { tile: (usize, usize) },
    /// Re-forward a published tile another shard produced (an operand the
    /// lost shard had received).
    Forward { tile: (usize, usize) },
    /// Re-dispatch base-plan task `task` to the replacement.
    Replay { task: usize },
}

/// A replacement replay to be validated against the [`ShardPlan`] it
/// recovers: which worker died, which tasks had completed (`DONE`
/// processed) and which had been dispatched, and the frame sequence the
/// coordinator intends to send.
#[derive(Clone, Debug)]
pub struct RecoveryPlan {
    /// Grid slot of the dead worker.
    pub lost: usize,
    /// Per base-plan task: completion at the moment of death.
    pub completed: Vec<bool>,
    /// Per base-plan task: dispatched (sent) at the moment of death.
    pub dispatched: Vec<bool>,
    pub events: Vec<RecoveryEvent>,
}

/// What a verified recovery replay looks like, for logging.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoverySummary {
    pub seeds: u64,
    /// Of those, seeds shipped from published (final) bytes — work the
    /// replay did *not* redo.
    pub published_seeds: u64,
    pub forwards: u64,
    pub replays: u64,
}

/// Statically verify a worker-replacement replay against its base plan.
///
/// The contract: after the replacement processes the event sequence, its
/// shard state must be *bitwise* the state the lost worker would have had
/// after processing every frame it had been sent — because workers are
/// deterministic functions of their FIFO input. Concretely:
///
/// * seeds cover exactly the lost shard's owned tiles, from published
///   bytes iff the tile's final writer completed;
/// * forwards re-deliver only published-final tiles the shard doesn't own;
/// * every replayed task was dispatched, is owned by the lost worker,
///   writes a not-yet-final tile, and — replayed in original dispatch
///   order — sees each operand at exactly the version the original
///   execution saw (completed predecessors count, replayed ones rebuild);
/// * every dispatched task of the lost worker whose written tile is not
///   final is replayed (otherwise the run would hang or finish wrong),
///   and every owned tile ends at the version the dispatched prefix
///   produces.
pub fn check_recovery_plan(
    base: &ShardPlan,
    rec: &RecoveryPlan,
) -> Result<RecoverySummary, PlanError> {
    let (p, q, workers) = (base.p, base.q, base.workers);
    let n = base.tasks.len();
    if rec.lost >= workers {
        return Err(PlanError::Grid { p, q, workers });
    }
    if rec.completed.len() != n || rec.dispatched.len() != n {
        return Err(PlanError::RecoveryInconsistent {
            why: format!(
                "completed/dispatched vectors ({}/{}) do not match {n} plan tasks",
                rec.completed.len(),
                rec.dispatched.len()
            ),
        });
    }
    for (t, (&c, &d)) in rec.completed.iter().zip(rec.dispatched.iter()).enumerate() {
        if c && !d {
            return Err(PlanError::RecoveryInconsistent {
                why: format!("task {t} completed but never dispatched"),
            });
        }
    }

    // Writers of each tile in id order. Completed writers must form a
    // prefix (same-worker FIFO guarantees it in any real trace); the
    // death-time version of a tile is that prefix's length.
    let mut writers: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
    for (t, task) in base.tasks.iter().enumerate() {
        writers.entry(task.write).or_default().push(t);
    }
    let mut death_version: HashMap<(usize, usize), u64> = HashMap::new();
    let mut final_tiles: HashMap<(usize, usize), bool> = HashMap::new();
    for (tile, ws) in &writers {
        let done = ws.iter().take_while(|&&w| rec.completed[w]).count();
        if ws.iter().skip(done).any(|&w| rec.completed[w]) {
            return Err(PlanError::RecoveryInconsistent {
                why: format!(
                    "completed writers of tile ({},{}) are not a prefix of its write order",
                    tile.0, tile.1
                ),
            });
        }
        death_version.insert(*tile, done as u64);
        let last = *ws.last().unwrap_or(&0);
        final_tiles.insert(
            *tile,
            done == ws.len() && base.tasks[last].publish && rec.completed[last],
        );
    }
    let is_final = |tile: &(usize, usize)| final_tiles.get(tile).copied().unwrap_or(false);
    // Version task `t`'s original execution saw for tile `r`: the number
    // of `r`-writers dispatched before it.
    let seen_version = |r: &(usize, usize), t: usize| -> u64 {
        writers
            .get(r)
            .map_or(0, |ws| ws.iter().take_while(|&&w| w < t).count() as u64)
    };

    let mut local: HashMap<(usize, usize), u64> = HashMap::new();
    let mut last_replay: Option<usize> = None;
    let mut summary = RecoverySummary {
        seeds: 0,
        published_seeds: 0,
        forwards: 0,
        replays: 0,
    };
    let mut replayed = vec![false; n];
    for ev in &rec.events {
        match *ev {
            RecoveryEvent::SeedOriginal { tile } | RecoveryEvent::SeedPublished { tile } => {
                let published = matches!(ev, RecoveryEvent::SeedPublished { .. });
                if block_cyclic_owner(tile.0, tile.1, p, q) != rec.lost {
                    return Err(PlanError::RecoveryBadSeed {
                        tile,
                        why: "seeds a tile the lost worker does not own",
                    });
                }
                if published != is_final(&tile) {
                    return Err(PlanError::RecoveryBadSeed {
                        tile,
                        why: if published {
                            "published-bytes seed of a tile whose final writer has not completed"
                        } else {
                            "original-bytes seed of an already-final tile (its writers must \
                             not re-run)"
                        },
                    });
                }
                let v = if published {
                    death_version.get(&tile).copied().unwrap_or(0)
                } else {
                    0
                };
                if local.insert(tile, v).is_some() {
                    return Err(PlanError::RecoveryBadSeed {
                        tile,
                        why: "tile seeded twice",
                    });
                }
                summary.seeds += 1;
                summary.published_seeds += published as u64;
            }
            RecoveryEvent::Forward { tile } => {
                if block_cyclic_owner(tile.0, tile.1, p, q) == rec.lost {
                    return Err(PlanError::RecoveryBadForward {
                        tile,
                        why: "forwards a tile the lost worker owns (must be seeded instead)",
                    });
                }
                if !is_final(&tile) {
                    return Err(PlanError::RecoveryBadForward {
                        tile,
                        why: "forwards a tile that is not published-final",
                    });
                }
                local.insert(tile, death_version.get(&tile).copied().unwrap_or(0));
                summary.forwards += 1;
            }
            RecoveryEvent::Replay { task } => {
                let Some(meta) = base.tasks.get(task) else {
                    return Err(PlanError::BadEvent { index: task });
                };
                if meta.owner != rec.lost {
                    return Err(PlanError::RecoveryBadReplay {
                        task,
                        why: "replays a task the lost worker does not own",
                    });
                }
                if !rec.dispatched[task] {
                    return Err(PlanError::RecoveryBadReplay {
                        task,
                        why: "replays a task that was never dispatched",
                    });
                }
                if is_final(&meta.write) {
                    return Err(PlanError::RecoveryBadReplay {
                        task,
                        why: "re-runs a writer of an already-final tile (would double-apply)",
                    });
                }
                if last_replay.is_some_and(|prev| prev >= task) {
                    return Err(PlanError::RecoveryBadReplay {
                        task,
                        why: "replays out of original dispatch order",
                    });
                }
                last_replay = Some(task);
                for need in meta.reads.iter().chain(std::iter::once(&meta.write)) {
                    let want = seen_version(need, task);
                    let have = local.get(need).copied();
                    if have != Some(want) {
                        return Err(PlanError::RecoveryStaleOperand {
                            task,
                            tile: *need,
                            have,
                            want,
                        });
                    }
                }
                *local.entry(meta.write).or_insert(0) += 1;
                replayed[task] = true;
                summary.replays += 1;
            }
        }
    }

    // Completeness: every dispatched lost-worker task writing a non-final
    // tile is replayed, and every owned tile ends at its dispatched-prefix
    // version.
    for (t, task) in base.tasks.iter().enumerate() {
        if task.owner == rec.lost && rec.dispatched[t] && !is_final(&task.write) && !replayed[t] {
            return Err(PlanError::RecoveryIncomplete {
                why: format!(
                    "dispatched task {t} writes non-final tile ({},{}) but is not replayed",
                    task.write.0, task.write.1
                ),
            });
        }
    }
    for (tile, ws) in &writers {
        if block_cyclic_owner(tile.0, tile.1, p, q) != rec.lost {
            continue;
        }
        let want = ws.iter().take_while(|&&w| rec.dispatched[w]).count() as u64;
        let have = local.get(tile).copied();
        if have != Some(want) {
            return Err(PlanError::RecoveryIncomplete {
                why: format!(
                    "owned tile ({},{}) ends at version {have:?}, dispatched prefix needs {want}",
                    tile.0, tile.1
                ),
            });
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hazard_edges_textbook() {
        // t0 writes A; t1 reads A writes B; t2 reads A,B.
        let acc = vec![
            vec![AccessSpec::write(0)],
            vec![AccessSpec::read(0), AccessSpec::write(1)],
            vec![AccessSpec::read(0), AccessSpec::read(1)],
        ];
        let edges = hazard_edges(&acc);
        assert!(edges.contains(&Edge {
            pred: 0,
            succ: 1,
            data: 0,
            kind: HazardKind::Raw
        }));
        assert!(edges.contains(&Edge {
            pred: 1,
            succ: 2,
            data: 1,
            kind: HazardKind::Raw
        }));
        // t3 rewrites A: WAW on t0, WAR on t1 and t2.
        let mut acc = acc;
        acc.push(vec![AccessSpec::write(0)]);
        let edges = hazard_edges(&acc);
        assert!(edges.contains(&Edge {
            pred: 0,
            succ: 3,
            data: 0,
            kind: HazardKind::Waw
        }));
        assert!(edges.contains(&Edge {
            pred: 1,
            succ: 3,
            data: 0,
            kind: HazardKind::War
        }));
        assert!(edges.contains(&Edge {
            pred: 2,
            succ: 3,
            data: 0,
            kind: HazardKind::War
        }));
    }

    #[test]
    fn acyclic_accepts_chain_rejects_cycle() {
        let chain: [Vec<usize>; 3] = [vec![1], vec![2], vec![]];
        assert!(check_acyclic(3, |t| chain[t].clone()).is_ok());
        let cyc = [vec![1], vec![2], vec![0]];
        match check_acyclic(3, |t| cyc[t].clone()) {
            Err(GraphError::Cycle(path)) => assert_eq!(path, vec![0, 1, 2]),
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn census_closed_form() {
        let want = KernelCensus::expected(5);
        assert_eq!(
            (want.potrf, want.trsm, want.syrk, want.gemm),
            (5, 10, 10, 10)
        );
        assert_eq!(want.total(), 35); // nt + nt(nt-1)/2 + nt(nt^2-1)/6
        let mut kinds: Vec<&str> = Vec::new();
        for (k, count) in [("potrf", 5), ("trsm", 10), ("syrk", 10), ("gemm", 10)] {
            kinds.extend(vec![k; count]);
        }
        assert!(check_cholesky_census(kinds.iter().copied(), 5).is_ok());
        let short: Vec<&str> = kinds[1..].to_vec();
        assert!(matches!(
            check_cholesky_census(short.iter().copied(), 5),
            Err(GraphError::Census { kind: "potrf", .. })
        ));
        // A GEN is foreign to a factor-only graph.
        let with_gen: Vec<&str> = kinds.iter().copied().chain(["gen"]).collect();
        assert!(matches!(
            check_cholesky_census(with_gen.iter().copied(), 5),
            Err(GraphError::Census { kind: "gen", .. })
        ));
    }

    #[test]
    fn model_op_census_pins_gen_and_decide() {
        let nt = 5;
        let factor: Vec<&str> = [("potrf", 5), ("trsm", 10), ("syrk", 10), ("gemm", 10)]
            .iter()
            .flat_map(|&(k, count)| vec![k; count])
            .collect();
        let op = |gens: usize, decides: usize| -> Vec<&str> {
            let mut kinds = vec!["gen"; gens];
            kinds.extend(vec!["decide"; decides]);
            kinds.extend(&factor);
            kinds
        };
        let want = KernelCensus::model_op(nt, true);
        assert_eq!((want.gen, want.decide, want.total()), (15, 1, 51));
        assert_eq!(check_model_op_census(op(15, 1), nt, true), Ok(want));
        assert!(check_model_op_census(op(15, 0), nt, false).is_ok());
        // One GEN missing, on either kind of variant.
        for decides in [false, true] {
            assert_eq!(
                check_model_op_census(op(14, decides as usize), nt, decides),
                Err(GraphError::Census {
                    kind: "gen",
                    got: 14,
                    want: 15,
                    nt
                })
            );
        }
        // A DECIDE on dense FP64, or none where formats are decided.
        for (decides, count) in [(false, 1), (true, 0)] {
            assert!(matches!(
                check_model_op_census(op(15, count), nt, decides),
                Err(GraphError::Census { kind: "decide", .. })
            ));
        }
    }

    #[test]
    fn plan_summary_accumulates_tile_bytes() {
        // Smallest real plan: nt = 1, one worker, one POTRF. One seed in,
        // one publish out; the summary must add both frames and byte counts.
        let plan = ShardPlan {
            nt: 1,
            p: 1,
            q: 1,
            workers: 1,
            tasks: vec![PlanTask {
                kind: "potrf",
                owner: 0,
                reads: Vec::new(),
                write: (0, 0),
                publish: true,
                publish_bytes: 77,
            }],
            events: vec![
                PlanEvent::Transfer {
                    tile: (0, 0),
                    to: 0,
                    initial: true,
                    bytes: 123,
                },
                PlanEvent::Task(0),
            ],
        };
        let s = check_shard_plan(&plan).unwrap();
        assert_eq!(s.tile_frames, 2);
        assert_eq!(s.tile_bytes, 200);
        assert_eq!(s.transfers, 1);
        assert_eq!(s.forwards, 0);
    }
}
