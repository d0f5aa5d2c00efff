//! The one walk of a sharded factorization. [`steps`] yields the
//! coordinator's emission sequence for a tile grid on a process grid, and
//! everything that needs that sequence consumes it: the drive loop sends
//! it, the per-worker replay logs store it, [`build_shard_plan`] hands it
//! to the `xgs-analysis` checker, [`project_wire_census`] folds it into
//! byte counts, and [`canonical_tasks`] reads the task list off it — so
//! the checked plan, the executed plan and the projected plan are the
//! same sequence by construction.

use super::proto::{
    tile_wire_frame_bytes, WireCensus, DONE_PAYLOAD_BYTES, HEARTBEAT_ECHO_BYTES,
    HEARTBEAT_PING_BYTES, HELLO_PAYLOAD_BYTES, K_DONE, K_HEARTBEAT, K_HELLO, K_TASK, K_TILE,
    TASK_PAYLOAD_BYTES, TILE_COORD_BYTES,
};
use crate::dag::TileMetaSource;
use crate::factor::TiledFactor;
use crate::task::{panel_tasks, Kernel, Task};
use std::collections::HashMap;
use xgs_runtime::shard::FRAME_HEADER_BYTES;
use xgs_runtime::{block_cyclic_owner, Access, WireStats};
use xgs_tile::wire::encoded_len;
use xgs_tile::TileLayout;

/// Largest near-square factorization of `workers` (`p <= sqrt(w)`). It is
/// also `xgs-perfmodel`'s process grid, so a sharded run and a
/// `scale --nodes` projection of the same worker count land on the same
/// `p x q` grid (that equality is what lets `exageostat metrics-diff`
/// compare their per-worker task counts).
pub fn grid_shape(workers: usize) -> (usize, usize) {
    let w = workers.max(1);
    let mut p = (w as f64).sqrt() as usize;
    while p > 1 && !w.is_multiple_of(p) {
        p -= 1;
    }
    let p = p.max(1);
    (p, w / p)
}

/// One item of the coordinator's emission sequence. `Seed`, `Forward` and
/// `Task` are frames to one worker (and what that worker's replay log
/// stores); `Barrier` is the coordinator waiting on its own event queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Step {
    /// Ship stored tile `(i, j)` from the coordinator to its owner `to`,
    /// before any task can reference it.
    Seed { i: u32, j: u32, to: usize },
    /// Relay the published tile `(i, j)` to `to`, a worker that reads it
    /// this step without owning it.
    Forward { i: u32, j: u32, to: usize },
    /// Dispatch task `id` (canonical order) to the owner of the tile it
    /// writes; `publish` asks the worker to send that tile back — the
    /// write is the tile's final one.
    Task { id: usize, at: Task, publish: bool },
    /// Process events until tasks `from..to` are done (or a pivot failed):
    /// what follows forwards tiles those tasks publish.
    Barrier {
        phase: &'static str,
        from: usize,
        to: usize,
    },
}

/// The emission sequence of a right-looking tile Cholesky over an
/// `nt x nt` tile grid on a `p x q` block-cyclic process grid: the
/// initial distribution, panel 0, then per step `k` its trailing update
/// with panel `k + 1` opened one step early (a one-panel lookahead):
///
/// 1. step `k`'s updates of column `k + 1`, the tiles panel `k + 1`
///    factors;
/// 2. `POTRF(k + 1)`;
/// 3. when `L(k+1, k+1)` has no forward targets (its owner runs every
///    TRSM of the panel, as on any `1 x q` grid), the panel's TRSMs and
///    then the rest of step `k`'s update; otherwise the rest of the
///    update first, then the POTRF barrier, the `L(k+1, k+1)` forwards and
///    the TRSMs;
/// 4. the TRSM barrier and the panel forwards, when there are any.
///
/// So the next panel is queued ahead of the bulk of the trailing update
/// on its owner's FIFO stream, and a [`Step::Barrier`] is emitted only
/// where forwards follow it. Each tile still sees its writes in ascending
/// step order, which is [`TiledFactor::factorize_seq`]'s per-tile kernel
/// order; task ids count up in emission order.
pub(super) fn steps(nt: usize, p: usize, q: usize) -> impl Iterator<Item = Step> {
    let seeds = (0..nt).flat_map(move |j| {
        (j..nt).map(move |i| Step::Seed {
            i: i as u32,
            j: j as u32,
            to: block_cyclic_owner(i, j, p, q),
        })
    });
    let walk = (0..nt)
        .scan(0usize, move |next_id, k| {
            let mut w = Walk {
                out: Vec::new(),
                next_id,
            };
            if k == 0 {
                w.panel(0, nt, p, q, Vec::new());
            }
            if k + 1 < nt {
                let (column, rest): (Vec<Task>, Vec<Task>) = panel_tasks(nt, k)
                    .filter(|t| matches!(t.kind, Kernel::Syrk | Kernel::Gemm))
                    .partition(|t| t.j as usize == k + 1);
                w.tasks(column);
                w.panel(k + 1, nt, p, q, rest);
            }
            Some(w.out)
        })
        .flatten();
    seeds.chain(walk)
}

/// [`steps`] under construction: the items emitted so far and the next
/// task id.
struct Walk<'a> {
    out: Vec<Step>,
    next_id: &'a mut usize,
}

impl Walk<'_> {
    /// Emit `tasks` in order, numbered from the next id. POTRF and TRSM
    /// publish: their write is the tile's final one (and the step's
    /// operand); the trailing update's is not.
    fn tasks(&mut self, tasks: impl IntoIterator<Item = Task>) -> std::ops::Range<usize> {
        let from = *self.next_id;
        for at in tasks {
            let publish = matches!(at.kind, Kernel::Potrf | Kernel::Trsm);
            self.out.push(Step::Task {
                id: *self.next_id,
                at,
                publish,
            });
            *self.next_id += 1;
        }
        from..*self.next_id
    }

    fn forward(&mut self, (i, j): (usize, usize), targets: Vec<usize>) {
        let (i, j) = (i as u32, j as u32);
        self.out
            .extend(targets.into_iter().map(|to| Step::Forward { i, j, to }));
    }

    /// Panel `k` (items 2–4 of [`steps`]), with `rest`, the previous
    /// step's update outside column `k`, placed behind the TRSMs or ahead
    /// of the POTRF barrier.
    fn panel(&mut self, k: usize, nt: usize, p: usize, q: usize, rest: Vec<Task>) {
        let mut panel = panel_tasks(nt, k);
        let potrf = self.tasks(panel.by_ref().take(1));
        let trsms: Vec<Task> = panel.take(nt - k - 1).collect();
        let kk_targets = kk_forward_targets(k, nt, p, q);
        let trsm_ids = if kk_targets.is_empty() {
            let ids = self.tasks(trsms);
            self.tasks(rest);
            ids
        } else {
            self.tasks(rest);
            self.out.push(Step::Barrier {
                phase: "potrf",
                from: potrf.start,
                to: potrf.end,
            });
            self.forward((k, k), kk_targets);
            self.tasks(trsms)
        };
        let forwards: Vec<_> = (k + 1..nt)
            .map(|r| (r, panel_forward_targets(k, r, nt, p, q)))
            .filter(|(_, targets)| !targets.is_empty())
            .collect();
        if !forwards.is_empty() {
            self.out.push(Step::Barrier {
                phase: "trsm",
                from: trsm_ids.start,
                to: trsm_ids.end,
            });
        }
        for (r, targets) in forwards {
            self.forward((r, k), targets);
        }
    }
}

/// `owners` in first-occurrence order, without `home` and duplicates.
fn first_consumers(home: usize, owners: impl Iterator<Item = usize>, workers: usize) -> Vec<usize> {
    let mut sent = vec![false; workers];
    sent[home] = true;
    owners
        .filter(|&o| !std::mem::replace(&mut sent[o], true))
        .collect()
}

/// Workers, other than `(k, k)`'s owner, that run a TRSM in panel `k` and
/// therefore need `L_kk` forwarded. First-consumer order, deduplicated.
fn kk_forward_targets(k: usize, nt: usize, p: usize, q: usize) -> Vec<usize> {
    let trsm_owners = (k + 1..nt).map(|i| block_cyclic_owner(i, k, p, q));
    first_consumers(block_cyclic_owner(k, k, p, q), trsm_owners, p * q)
}

/// Workers, other than `(r, k)`'s owner, that consume the finished panel
/// tile `(r, k)` in step `k`'s trailing update: SYRK `(r, r)`, GEMM
/// `(r, j)` as the A operand, GEMM `(i, r)` as the B operand.
/// First-consumer order, deduplicated.
fn panel_forward_targets(k: usize, r: usize, nt: usize, p: usize, q: usize) -> Vec<usize> {
    let consumers = std::iter::once(block_cyclic_owner(r, r, p, q))
        .chain((k + 1..r).map(|j| block_cyclic_owner(r, j, p, q)))
        .chain((r + 1..nt).map(|i| block_cyclic_owner(i, r, p, q)));
    first_consumers(block_cyclic_owner(r, k, p, q), consumers, p * q)
}

/// One task of the canonical right-looking DAG, in insertion order.
pub(super) struct TaskMeta {
    pub at: Task,
    pub owner: usize,
    pub tol: f64,
}

/// The canonical task list of `f`'s tile grid on a `p x q` process grid,
/// read off [`steps`]: insertion order is task id, owners follow
/// [`block_cyclic_owner`] of the written tile.
pub(super) struct CanonicalTasks {
    pub meta: Vec<TaskMeta>,
    /// Per-task access lists the hazard validator (and the static
    /// cross-check) re-derives edges from.
    pub accesses: Vec<Vec<Access>>,
    /// Tile `(i, j)` → id of its publishing task (`POTRF` for the
    /// diagonal, the step-`j` `TRSM` for panel tiles): a tile is *final*
    /// exactly when that task has completed.
    pub publisher: HashMap<(u32, u32), usize>,
}

pub(super) fn canonical_tasks(f: &TiledFactor, p: usize, q: usize) -> CanonicalTasks {
    let layout = f.layout;
    let stored = |(i, j): (u32, u32)| layout.stored_index(i as usize, j as usize);
    let mut out = CanonicalTasks {
        meta: Vec::new(),
        accesses: Vec::new(),
        publisher: HashMap::new(),
    };
    for step in steps(layout.nt(), p, q) {
        let Step::Task { id, at, publish } = step else {
            continue;
        };
        let written = at.written();
        out.meta.push(TaskMeta {
            at,
            owner: block_cyclic_owner(written.0 as usize, written.1 as usize, p, q),
            tol: match at.kind {
                Kernel::Gemm => f.tols[stored(written)],
                Kernel::Potrf | Kernel::Trsm | Kernel::Syrk => 0.0,
            },
        });
        out.accesses.push(f.accesses(at));
        if publish {
            out.publisher.insert(written, id);
        }
    }
    out
}

/// Closed-form projection of a sharded run's whole wire traffic, per
/// frame kind: folds the frame sequence the coordinator emits (`steps`:
/// tile seeding, per step the POTRF publish, `L_kk` forwards, TRSM
/// publishes and panel forwards, one TASK/DONE pair per task) plus the
/// per-worker HELLO and the end-of-run HEARTBEAT ping/echo census over
/// the block-cyclic owner map, with TILE frame sizes from `meta`'s
/// per-tile formats ([`tile_wire_frame_bytes`]). For static formats this
/// equals the measured census byte-for-byte — `exageostat metrics-diff
/// --assert-wire-equal tile` holds a real run to it in CI; with TLR
/// storage the ranks drift during the trailing update and the TILE
/// *bytes* are an estimate (the frame counts stay exact).
pub fn project_wire_census(
    meta: &dyn TileMetaSource,
    n: usize,
    nb: usize,
    workers: usize,
) -> Vec<WireStats> {
    let layout = TileLayout::new(n, nb);
    let (p, q) = grid_shape(workers);
    let mut census = WireCensus::default();
    let tile = |census: &mut WireCensus, (i, j): (u32, u32)| {
        let (i, j) = (i as usize, j as usize);
        let frame = tile_wire_frame_bytes(meta, layout.tile_dim(i), layout.tile_dim(j), i, j);
        census.record(K_TILE, frame as usize - FRAME_HEADER_BYTES);
    };
    census.record_many(K_HELLO, workers as u64, HELLO_PAYLOAD_BYTES);
    for step in steps(layout.nt(), p, q) {
        match step {
            Step::Seed { i, j, .. } | Step::Forward { i, j, .. } => tile(&mut census, (i, j)),
            Step::Task { at, publish, .. } => {
                census.record(K_TASK, TASK_PAYLOAD_BYTES);
                census.record(K_DONE, DONE_PAYLOAD_BYTES);
                if publish {
                    tile(&mut census, at.written());
                }
            }
            Step::Barrier { .. } => {}
        }
    }
    census.record_many(K_HEARTBEAT, workers as u64, HEARTBEAT_PING_BYTES);
    census.record_many(K_HEARTBEAT, workers as u64, HEARTBEAT_ECHO_BYTES);
    census.to_stats()
}

/// [`steps`] as the pure data structure
/// [`xgs_analysis::check_shard_plan`] replays before any worker is
/// contacted. Tasks are `meta` in canonical order; every transfer and
/// publish carries its wire frame size, computed from the tile as `f`
/// holds it now — exact for static formats, an estimate once TLR ranks
/// drift.
pub(super) fn build_shard_plan(
    f: &TiledFactor,
    meta: &[TaskMeta],
    p: usize,
    q: usize,
) -> xgs_analysis::ShardPlan {
    use xgs_analysis::{PlanEvent, PlanTask};
    let at = |(i, j): (u32, u32)| (i as usize, j as usize);
    let frame = |(i, j): (usize, usize)| -> u64 {
        (FRAME_HEADER_BYTES + TILE_COORD_BYTES + f.with_tile(i, j, encoded_len)) as u64
    };
    let mut tasks = Vec::with_capacity(meta.len());
    let mut events = Vec::new();
    for step in steps(f.nt(), p, q) {
        match step {
            Step::Seed { i, j, to } | Step::Forward { i, j, to } => {
                events.push(PlanEvent::Transfer {
                    tile: at((i, j)),
                    to,
                    initial: matches!(step, Step::Seed { .. }),
                    bytes: frame(at((i, j))),
                });
            }
            Step::Task { id, publish, .. } => {
                let m = &meta[id];
                let write = at(m.at.written());
                tasks.push(PlanTask {
                    kind: m.at.kind.name(),
                    owner: m.owner,
                    reads: m.at.reads().map(at).collect(),
                    write,
                    publish,
                    publish_bytes: if publish { frame(write) } else { 0 },
                });
                events.push(PlanEvent::Task(id));
            }
            Step::Barrier { .. } => {}
        }
    }
    debug_assert_eq!(tasks.len(), meta.len());
    xgs_analysis::ShardPlan {
        nt: f.nt(),
        p,
        q,
        workers: p * q,
        tasks,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::tests::build;
    use xgs_tile::Variant;

    fn key(t: &Task) -> (u32, u8, u32, u32) {
        (t.k, t.kind as u8, t.i, t.j)
    }

    /// The lookahead walk on every grid shape the suites use: each task of
    /// the loop nest exactly once, numbered in emission order, each tile's
    /// writes in ascending step order, a barrier only where forwards
    /// follow (so none for POTRF on a `1 x q` grid), and a plan the
    /// checker accepts.
    #[test]
    fn the_lookahead_walk_keeps_per_tile_order_and_passes_the_checker() {
        for (p, q) in [(1, 1), (1, 2), (2, 2), (2, 3)] {
            for nt in 1..=7 {
                let walk: Vec<Step> = steps(nt, p, q).collect();
                let mut emitted = Vec::new();
                let mut last_step: HashMap<(u32, u32), u32> = HashMap::new();
                for (pos, step) in walk.iter().enumerate() {
                    match *step {
                        Step::Task { id, at, .. } => {
                            assert_eq!(id, emitted.len(), "{p}x{q} nt={nt}: ids count up");
                            emitted.push(at);
                            if let Some(prev) = last_step.insert(at.written(), at.k) {
                                assert!(prev < at.k, "{p}x{q} nt={nt}: {at:?} after step {prev}");
                            }
                        }
                        Step::Barrier { phase, .. } => {
                            assert!(
                                matches!(walk.get(pos + 1), Some(Step::Forward { .. })),
                                "{p}x{q} nt={nt}: {phase} barrier guards no forward"
                            );
                            assert!(p > 1 || phase != "potrf", "{p}x{q} nt={nt}");
                        }
                        Step::Seed { .. } | Step::Forward { .. } => {}
                    }
                }
                let mut want: Vec<Task> = crate::task::tasks(nt).collect();
                want.sort_by_key(key);
                emitted.sort_by_key(key);
                assert_eq!(emitted, want, "{p}x{q} nt={nt}");

                let f = build(nt * 8, 8, Variant::DenseF64);
                let canon = canonical_tasks(&f, p, q);
                xgs_analysis::check_shard_plan(&build_shard_plan(&f, &canon.meta, p, q))
                    .unwrap_or_else(|e| panic!("{p}x{q} nt={nt}: {e}"));
            }
        }
    }
}
