//! Elastic recovery: where replacement workers come from and how a lost
//! shard is rebuilt by replaying its logged [`Step`]s.

use super::coordinator::{
    reader_thread, seed_payload, task_payload, Coordinator, Drive, Event, EV_PANEL_REPLAY,
    EV_STANDBY_PROMOTE, EV_WORKER_DEATH,
};
use super::plan::{build_shard_plan, Step, TaskMeta};
use super::proto::{encode_hello, K_HELLO};
use super::ShardError;
use crate::factor::TiledFactor;
use std::collections::{HashMap, HashSet};
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;
use xgs_analysis::RecoveryEvent;

/// Where a replacement worker came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplacementOrigin {
    /// A standby admitted earlier, promoted into the grid slot.
    Standby,
    /// A worker spawned (or dialed in) after the death.
    Respawn,
}

/// A replacement connection handed to the coordinator mid-run.
#[derive(Debug)]
pub struct ReplacementWorker {
    /// Registered connection (the `JOIN`/`ASSIGN` handshake already ran).
    pub stream: TcpStream,
    pub origin: ReplacementOrigin,
}

/// Supplies replacement workers during [`TiledFactor::factorize_elastic`].
/// Returning `None` declines: the run fails with the original
/// [`ShardError::WorkerLost`].
pub trait ReplacementSource {
    fn replace(&mut self, worker: usize) -> Option<ReplacementWorker>;
}

/// No replacements: any mid-run death fails the run.
pub struct NoReplacement;

impl ReplacementSource for NoReplacement {
    fn replace(&mut self, _worker: usize) -> Option<ReplacementWorker> {
        None
    }
}

/// Everything [`recover`] needs besides the coordinator/drive pair.
pub(super) struct RecoveryCtx<'s> {
    pub source: &'s mut dyn ReplacementSource,
    pub readers: &'s mut Vec<std::thread::JoinHandle<()>>,
    pub tx: Sender<Event>,
    pub stop: Arc<AtomicBool>,
    /// [`CanonicalTasks::publisher`](super::plan::CanonicalTasks).
    pub publisher: HashMap<(u32, u32), usize>,
    /// `(p, q)`.
    pub grid: (usize, usize),
}

/// Recover from the death of `lost`'s current incarnation.
///
/// If every task has already completed, the factor is fully published and
/// the worker is only marked departed (the gather needs nothing further
/// from it). Otherwise a replacement is taken from the source and the lost
/// shard's state is rebuilt by replaying the worker's logged step prefix:
/// tiles whose final value was already published are seeded from the
/// coordinator's published bytes ("replay from the last published tile
/// versions"), everything else re-runs. Workers are deterministic
/// functions of their FIFO input stream, so the rebuilt state — and the
/// finished factor — is bitwise identical to an undisturbed run.
///
/// The replay is validated before a single frame is sent:
/// `check_shard_plan` re-proves the base plan and
/// [`xgs_analysis::check_recovery_plan`] replays the recovery events
/// against it (seed/forward legality, operand versions, re-dispatch
/// completeness).
pub(super) fn recover(
    f: &TiledFactor,
    co: &mut Coordinator,
    drive: &mut Drive,
    rec: &mut RecoveryCtx,
    meta: &[TaskMeta],
    lost: usize,
    detail: String,
) -> Result<(), ShardError> {
    let t_rec = Instant::now();
    if drive.departed[lost] {
        return Ok(());
    }
    co.dead[lost] = true;
    if drive.done_count == meta.len() {
        // Death during gather/census: every task is done and every final
        // tile is already published — record the death, skip the worker
        // in the census, and let the run finish without it.
        drive.departed[lost] = true;
        drive.events[EV_WORKER_DEATH].record(0.0);
        return Ok(());
    }
    let Some(repl) = rec.source.replace(lost) else {
        return Err(ShardError::WorkerLost {
            worker: lost,
            detail,
        });
    };
    drive.events[EV_WORKER_DEATH].record(0.0);
    let (p, q) = rec.grid;

    // Tiles whose final publishing task has completed. Stable across the
    // resets below: only non-final-writing tasks are reset, and they are
    // never a tile's final publisher.
    let final_tiles: HashSet<(u32, u32)> = rec
        .publisher
        .iter()
        .filter(|&(_, &id)| drive.done[id])
        .map(|(&t, _)| t)
        .collect();

    // The replay: the lost worker's log in its original order, minus the
    // tasks whose written tile is already final.
    let replay: Vec<Step> = std::mem::take(&mut co.sent_log[lost])
        .into_iter()
        .filter(|step| match step {
            Step::Task { at, .. } => !final_tiles.contains(&at.written()),
            Step::Seed { .. } | Step::Forward { .. } | Step::Barrier { .. } => true,
        })
        .collect();

    // Validate it against the re-proven base plan before any frame is
    // sent.
    let tile = |i: u32, j: u32| (i as usize, j as usize);
    let events = replay
        .iter()
        .filter_map(|step| match *step {
            Step::Seed { i, j, .. } if final_tiles.contains(&(i, j)) => {
                Some(RecoveryEvent::SeedPublished { tile: tile(i, j) })
            }
            Step::Seed { i, j, .. } => Some(RecoveryEvent::SeedOriginal { tile: tile(i, j) }),
            Step::Forward { i, j, .. } => Some(RecoveryEvent::Forward { tile: tile(i, j) }),
            Step::Task { id, .. } => Some(RecoveryEvent::Replay { task: id }),
            Step::Barrier { .. } => None,
        })
        .collect();
    let base = build_shard_plan(f, meta, p, q);
    xgs_analysis::check_shard_plan(&base)
        .map_err(|e| ShardError::Protocol(format!("recovery base plan rejected: {e}")))?;
    let rplan = xgs_analysis::RecoveryPlan {
        lost,
        completed: drive.done.clone(),
        dispatched: co.dispatched.clone(),
        events,
    };
    xgs_analysis::check_recovery_plan(&base, &rplan)
        .map_err(|e| ShardError::Protocol(format!("recovery plan rejected: {e}")))?;

    // Reset completed tasks the replacement will re-run, so their fresh
    // DONEs are accepted (their original order stamps stay — consumers
    // read the originally published values).
    for step in &replay {
        if let Step::Task { id, .. } = *step {
            if std::mem::replace(&mut drive.done[id], false) {
                drive.done_count -= 1;
            }
        }
    }

    // Swap in the replacement and give it a reader.
    co.streams[lost] = repl.stream;
    co.dead[lost] = false;
    co.sent_tasks[lost] = 0;
    let _ = co.streams[lost].set_nodelay(true);
    let (tx, stop) = (rec.tx.clone(), Arc::clone(&rec.stop));
    rec.readers.push(match co.streams[lost].try_clone() {
        Ok(clone) => std::thread::spawn(move || reader_thread(lost, clone, tx, stop)),
        // Treat an uncloneable replacement as instantly dead: the
        // synthetic Lost re-enters recovery for another replacement.
        Err(e) => std::thread::spawn(move || {
            let _ = tx.send(Event::Lost {
                from: lost,
                detail: format!("replacement stream clone failed: {e}"),
            });
        }),
    });

    // Replay the validated plan: HELLO resets the worker, then the logged
    // prefix with final tiles seeded from their published bytes.
    co.send(lost, K_HELLO, &encode_hello(lost, &f.layout, p, q));
    let mut panels: HashSet<u32> = HashSet::new();
    for step in replay {
        match step {
            Step::Seed { i, j, .. } if !final_tiles.contains(&(i, j)) => {
                co.send_step(lost, &seed_payload(f, i, j), step)
            }
            Step::Seed { i, j, .. } | Step::Forward { i, j, .. } => {
                co.send_step(lost, drive.published(i, j)?, step)
            }
            Step::Task { id, at, publish } => {
                co.send_step(lost, &task_payload(id, &meta[id], publish), step);
                panels.insert(at.k);
            }
            Step::Barrier { .. } => {}
        }
    }
    // One panel_replay event per affected step, stamped with the recovery
    // wall time so the report shows what the death cost.
    let dt = t_rec.elapsed().as_secs_f64();
    for _k in &panels {
        drive.events[EV_PANEL_REPLAY].record(dt);
    }
    if repl.origin == ReplacementOrigin::Standby {
        drive.events[EV_STANDBY_PROMOTE].record(0.0);
    }
    drive.recoveries += 1;
    Ok(())
}
