//! Coordinator side: reader threads, the bookkeeping of a run in flight,
//! and the drive loop that walks [`steps`](super::plan::steps).

use super::plan::{build_shard_plan, canonical_tasks, grid_shape, Step, TaskMeta};
use super::proto::{
    count_wire_conversion, decode_done, decode_heartbeat, decode_tile_header, encode_heartbeat,
    encode_hello, encode_task, encode_tile_frame, DoneFrame, TaskFrame, WireCensus,
    DONE_PAYLOAD_BYTES, HEARTBEAT_ECHO_BYTES, K_DONE, K_HEARTBEAT, K_HELLO, K_TASK, K_TILE,
};
use super::recover::{recover, RecoveryCtx, ReplacementSource};
use super::{ShardError, ShardOptions, ShardReport};
use crate::factor::{FactorError, TiledFactor};
use crate::task::Kernel;
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Instant;
use xgs_runtime::shard::{read_frame, write_frame, FrameError};
use xgs_runtime::{
    check_schedule, conversion_counts, crosscheck_static_edges, task_census, KernelStats,
    MetricsReport, TaskOrder, WorkerStats,
};
use xgs_tile::wire::{decode_tile, encode_tile};
use xgs_tile::TileLayout;

pub(super) enum Event {
    Tile {
        payload: Vec<u8>,
    },
    Done {
        from: usize,
        frame: DoneFrame,
    },
    /// The executed-task count a `HEARTBEAT` echo carries.
    Heartbeat {
        from: usize,
        tasks: u64,
    },
    Lost {
        from: usize,
        detail: String,
    },
}

/// Reader thread: drain one worker's frames into the event channel. Exits
/// on stop or on connection loss (reported as `Lost`). Each thread sends
/// at most one `Lost`, always as its final event — the coordinator relies
/// on that to run at most one recovery per worker incarnation, with every
/// pre-death frame already processed.
pub(super) fn reader_thread(
    worker: usize,
    mut stream: TcpStream,
    tx: Sender<Event>,
    stop: Arc<AtomicBool>,
) {
    let bad = |what: &str, e: FrameError| Event::Lost {
        from: worker,
        detail: format!("bad {what} frame: {e}"),
    };
    loop {
        let ev = match read_frame(&mut stream, None, Some(&stop)) {
            Ok((K_TILE, payload)) => Event::Tile { payload },
            Ok((K_HEARTBEAT, payload)) => match decode_heartbeat(&payload) {
                Ok((_nonce, Some(tasks))) => Event::Heartbeat {
                    from: worker,
                    tasks,
                },
                Ok((_nonce, None)) => bad(
                    "HEARTBEAT",
                    FrameError::Malformed("echo carries no task count"),
                ),
                Err(e) => bad("HEARTBEAT", e),
            },
            Ok((K_DONE, payload)) => match decode_done(&payload) {
                Ok(frame) => Event::Done {
                    from: worker,
                    frame,
                },
                Err(e) => bad("DONE", e),
            },
            Ok((other, _)) => Event::Lost {
                from: worker,
                detail: format!("unexpected frame kind {other} from worker"),
            },
            Err(FrameError::Stopped) => return,
            Err(e) => Event::Lost {
                from: worker,
                detail: e.to_string(),
            },
        };
        let last = matches!(ev, Event::Lost { .. });
        if tx.send(ev).is_err() || last {
            return;
        }
    }
}

/// Indices into [`Drive::events`], the fleet lifecycle counters the
/// metrics report carries alongside the kernel stats.
pub(super) const EV_WORKER_DEATH: usize = 0;
pub(super) const EV_PANEL_REPLAY: usize = 1;
pub(super) const EV_STANDBY_PROMOTE: usize = 2;

/// Coordinator bookkeeping while a sharded run is in flight.
pub(super) struct Drive {
    /// Published tiles, keyed `(i, j)`, still in wire encoding so relaying
    /// to other owners is a plain byte copy (decoded once at gather).
    tiles: HashMap<(u32, u32), Vec<u8>>,
    /// Completion order in DONE-processing sequence (validator input).
    order: Vec<TaskOrder>,
    pub done: Vec<bool>,
    /// Whether a task has *ever* completed: replayed tasks keep their
    /// original [`TaskOrder`] stamp, because consumers already read the
    /// originally published value — re-stamping would fabricate RAW
    /// violations in the post-run validator.
    completed_once: Vec<bool>,
    pub done_count: usize,
    seq: u64,
    /// Per-kernel timings, indexed by [`Kernel`].
    kernels: [KernelStats; 4],
    /// Fleet lifecycle events, indexed by the `EV_*` constants.
    pub events: [KernelStats; 3],
    workers: Vec<WorkerStats>,
    /// End-of-run executed-task census, from each worker's `HEARTBEAT`
    /// echo.
    executed: Vec<Option<u64>>,
    /// Workers that died after every task completed: the factor is fully
    /// published, so they are recorded as deaths but not replaced.
    pub departed: Vec<bool>,
    /// How many worker recoveries ran (0 on the happy path).
    pub recoveries: u32,
    /// Earliest global pivot failure, if any.
    failed: Option<usize>,
    /// Frames/bytes received from workers (TILE publishes, DONE,
    /// HEARTBEAT echoes).
    census: WireCensus,
}

impl Drive {
    fn new(tasks: usize, workers: usize) -> Drive {
        Drive {
            tiles: HashMap::new(),
            order: vec![TaskOrder::default(); tasks],
            done: vec![false; tasks],
            completed_once: vec![false; tasks],
            done_count: 0,
            seq: 0,
            kernels: Kernel::ALL.map(|k| KernelStats::new(k.name())),
            events: [
                KernelStats::new("worker_death"),
                KernelStats::new("panel_replay"),
                KernelStats::new("standby_promote"),
            ],
            workers: vec![WorkerStats::default(); workers],
            executed: vec![None; workers],
            departed: vec![false; workers],
            recoveries: 0,
            failed: None,
            census: WireCensus::default(),
        }
    }

    /// Wire bytes of the published tile `(i, j)`.
    pub(super) fn published(&self, i: u32, j: u32) -> Result<&[u8], ShardError> {
        self.tiles.get(&(i, j)).map(Vec::as_slice).ok_or_else(|| {
            ShardError::Protocol(format!(
                "tile ({i},{j}) needed on the wire before its producer published it"
            ))
        })
    }

    fn handle(
        &mut self,
        ev: Event,
        meta: &[TaskMeta],
        layout: &TileLayout,
    ) -> Result<(), ShardError> {
        match ev {
            Event::Tile { payload } => {
                self.census.record(K_TILE, payload.len());
                let (at, _body) = decode_tile_header(&payload)
                    .map_err(|e| ShardError::Protocol(e.to_string()))?;
                self.tiles.insert(at, payload);
                Ok(())
            }
            Event::Done { from, frame } => {
                self.census.record(K_DONE, DONE_PAYLOAD_BYTES);
                let task_id = frame.task_id;
                let idx = task_id as usize;
                let m = meta.get(idx).ok_or_else(|| {
                    ShardError::Protocol(format!("unexpected DONE for task {task_id}"))
                })?;
                if m.at.kind != frame.kind || m.owner != from || self.done[idx] {
                    return Err(ShardError::Protocol(format!(
                        "mismatched or duplicate DONE for task {task_id}"
                    )));
                }
                self.done[idx] = true;
                self.done_count += 1;
                if !self.completed_once[idx] {
                    self.completed_once[idx] = true;
                    self.order[idx] = TaskOrder {
                        start_seq: 2 * self.seq,
                        end_seq: 2 * self.seq + 1,
                    };
                    self.seq += 1;
                }
                self.kernels[frame.kind as usize].record(frame.elapsed);
                self.workers[from].busy_seconds += frame.elapsed;
                self.workers[from].tasks += 1;
                if !frame.ok {
                    let global = layout.tile_range(m.at.k as usize).start + frame.pivot as usize;
                    self.failed = Some(self.failed.map_or(global, |p| p.min(global)));
                }
                Ok(())
            }
            Event::Heartbeat { from, tasks } => {
                self.census.record(K_HEARTBEAT, HEARTBEAT_ECHO_BYTES);
                self.executed[from] = Some(tasks);
                Ok(())
            }
            Event::Lost { from, detail } => Err(ShardError::WorkerLost {
                worker: from,
                detail,
            }),
        }
    }
}

pub(super) struct Coordinator<'a> {
    pub streams: &'a mut [TcpStream],
    rx: Receiver<Event>,
    deadline: Instant,
    /// Frames/bytes sent to workers (HELLO, TILE seeds/forwards, TASK,
    /// HEARTBEAT pings).
    census: WireCensus,
    /// Per-worker emission log (current incarnation), the replay source
    /// on recovery: the `Seed`/`Forward`/`Task` steps sent to it, in
    /// order. Everything needed to rebuild the frames is re-derivable —
    /// seeds re-encode from the (untouched until gather) factor or, when
    /// the tile has since been finally published, from the published-tile
    /// map; forwards re-send published bytes; tasks re-encode from `meta`,
    /// skipping those whose written tile is already final.
    pub sent_log: Vec<Vec<Step>>,
    /// TASK frames sent to each worker's current incarnation — what its
    /// end-of-run census must report back.
    pub sent_tasks: Vec<u64>,
    /// Tasks dispatched so far, globally (recovery-plan input).
    pub dispatched: Vec<bool>,
    /// Workers whose socket failed a write: subsequent writes are
    /// swallowed (but still logged) until the reader surfaces the death
    /// as a `Lost` event and recovery swaps the stream. The frames are in
    /// the log, so the replay covers them.
    pub dead: Vec<bool>,
}

impl Coordinator<'_> {
    /// A failed write does not fail the run here: the worker's reader
    /// thread delivers the authoritative `Lost` event (after any frames
    /// the worker got out before dying), and recovery — or the
    /// no-replacement error path — runs from `wait_until`. Until then the
    /// stream is write-dead and frames land only in the log.
    pub(super) fn send(&mut self, worker: usize, kind: u8, payload: &[u8]) {
        self.census.record(kind, payload.len());
        if !self.dead[worker] && write_frame(&mut self.streams[worker], kind, payload).is_err() {
            self.dead[worker] = true;
        }
    }

    /// [`Coordinator::send`] the frame of a `Seed`/`Forward`/`Task` step
    /// and append the step to `worker`'s replay log.
    pub(super) fn send_step(&mut self, worker: usize, payload: &[u8], step: Step) {
        if let Step::Task { .. } = step {
            self.send(worker, K_TASK, payload);
            self.sent_tasks[worker] += 1;
        } else {
            self.send(worker, K_TILE, payload);
        }
        self.sent_log[worker].push(step);
    }
}

/// Pump events until `pred` holds (checked after each event). A `Lost`
/// event routes through [`recover`] instead of failing the run.
fn wait_until(
    f: &TiledFactor,
    co: &mut Coordinator,
    drive: &mut Drive,
    rec: &mut RecoveryCtx,
    meta: &[TaskMeta],
    phase: &'static str,
    mut pred: impl FnMut(&Drive) -> bool,
) -> Result<(), ShardError> {
    while !pred(drive) {
        let remaining = co.deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(ShardError::Timeout { phase });
        }
        match co.rx.recv_timeout(remaining) {
            Ok(Event::Lost { from, detail }) => recover(f, co, drive, rec, meta, from, detail)?,
            Ok(ev) => drive.handle(ev, meta, &f.layout)?,
            Err(RecvTimeoutError::Timeout) => return Err(ShardError::Timeout { phase }),
            Err(RecvTimeoutError::Disconnected) => {
                return Err(ShardError::Protocol(
                    "all worker connections closed unexpectedly".into(),
                ))
            }
        }
    }
    Ok(())
}

/// Encode the coordinator's stored tile `(i, j)` as a seeding TILE frame.
pub(super) fn seed_payload(f: &TiledFactor, i: u32, j: u32) -> Vec<u8> {
    encode_tile_frame(i, j, |buf| {
        f.with_tile(i as usize, j as usize, |t| {
            encode_tile(t, buf);
            count_wire_conversion(t, true);
        })
    })
}

pub(super) fn task_payload(id: usize, m: &TaskMeta, publish: bool) -> Vec<u8> {
    encode_task(&TaskFrame {
        id: id as u64,
        at: m.at,
        tol: m.tol,
        publish,
    })
}

impl TiledFactor {
    /// Factorize by fanning the DAG out over the registered workers
    /// connected on `streams` (one per grid slot; the `xgs-fleet`
    /// supervisor is what starts, admits and owns them). Tile `(i, j)`
    /// tasks run on worker `block_cyclic_owner(i, j, p, q)`; per-tile
    /// kernel order matches [`TiledFactor::factorize_seq`], so the result
    /// is bitwise identical to the single-process factor.
    ///
    /// Recovery is elastic: when a worker dies mid-run, `source` supplies
    /// a replacement (a promoted standby or a fresh respawn) and the
    /// coordinator replays the lost shard's frame prefix from the last
    /// published tile versions instead of failing — see `recover.rs`. The
    /// workers stay warm afterwards: sockets stay open, and the
    /// executed-task census rides a `HEARTBEAT` exchange, so the same
    /// streams serve the next factorization after a state-resetting
    /// `HELLO`.
    ///
    /// On error the sockets are shut down before returning, so a failed
    /// run can never leave a worker half-driven.
    pub fn factorize_elastic(
        &mut self,
        streams: &mut Vec<TcpStream>,
        opts: &ShardOptions,
        source: &mut dyn ReplacementSource,
    ) -> Result<ShardReport, ShardError> {
        let workers = streams.len();
        if workers == 0 {
            return Err(ShardError::Protocol(
                "a sharded factorization needs at least one worker".into(),
            ));
        }
        let (p, q) = grid_shape(workers);
        let t0 = Instant::now();
        let conv0 = conversion_counts();

        // Canonical DAG in insertion order: task_id == index. Also the
        // access lists the validator re-derives hazard edges from.
        let canon = canonical_tasks(self, p, q);
        let (meta, accesses) = (canon.meta, canon.accesses);
        let total = meta.len();
        let census = task_census(meta.iter().map(|m| m.owner), workers);

        // Static safety gate before any worker sees a frame: replay the
        // exact emission plan (owner placement, census, operand versions,
        // forward/publish protocol, TILE frame bytes) and cross-check the
        // statically derived hazard edges against the post-run validator's
        // derivation.
        let mut planned_tiles: Option<(u64, Option<u64>)> = None;
        if opts.precheck {
            let plan = build_shard_plan(self, &meta, p, q);
            let summary = xgs_analysis::check_shard_plan(&plan)
                .map_err(|e| ShardError::Protocol(format!("shard plan precheck: {e}")))?;
            if summary.per_worker != census {
                return Err(ShardError::Protocol(format!(
                    "shard plan precheck: plan places {:?} tasks per worker, census says \
                     {census:?}",
                    summary.per_worker
                )));
            }
            crosscheck_static_edges(&accesses)
                .map_err(|e| ShardError::Protocol(format!("shard plan precheck: {e}")))?;
            // The TILE frame count depends only on the grid, so the
            // measured census must hit it whatever the storage. With
            // static formats (every stored tile dense) the byte budget is
            // exact too; TLR ranks drift during the trailing update, so
            // there the bytes are only an estimate and stay unchecked.
            let dense = self.tiles.iter().all(|t| t.lock().is_dense());
            planned_tiles = Some((summary.tile_frames, dense.then_some(summary.tile_bytes)));
        }

        // Spin up reader threads over cloned handles; writes stay on the
        // original streams in this thread.
        let stop = Arc::new(AtomicBool::new(false));
        // Reader threads must never block sending into the coordinator,
        // which may itself be blocked writing to a worker — a bounded
        // fan-in channel here can deadlock the whole run. Depth is bounded
        // in practice by frames in flight (one publish + one DONE per task).
        // xgs-lint: allow(no-unbounded-channel-send): bounding would deadlock; see above
        let (tx, rx) = channel();
        let mut readers = Vec::with_capacity(workers);
        for (w, s) in streams.iter().enumerate() {
            let _ = s.set_nodelay(true);
            let clone = s
                .try_clone()
                .map_err(|e| ShardError::Spawn(e.to_string()))?;
            let tx = tx.clone();
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                reader_thread(w, clone, tx, stop)
            }));
        }

        let mut drive = Drive::new(total, workers);
        let mut co = Coordinator {
            streams,
            rx,
            deadline: t0 + opts.deadline,
            census: WireCensus::default(),
            sent_log: vec![Vec::new(); workers],
            sent_tasks: vec![0; workers],
            dispatched: vec![false; total],
            dead: vec![false; workers],
        };
        let mut rec = RecoveryCtx {
            source,
            readers: &mut readers,
            tx,
            stop: Arc::clone(&stop),
            publisher: canon.publisher,
            grid: (p, q),
        };

        let result = run_steps(self, &mut co, &mut drive, &mut rec, &meta, p, q);
        drop(rec);

        // Reader threads never outlive the run: the stop flag unblocks
        // them while the sockets stay open for the next factorization.
        // Sockets are torn down only when this run failed.
        stop.store(true, Ordering::Release);
        if result.is_err() {
            for s in co.streams.iter() {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
        let sent_tasks = std::mem::take(&mut co.sent_tasks);
        drop(co);
        for r in readers {
            let _ = r.join();
        }
        let mut report = result?;

        // Census: each surviving incarnation must report back exactly the
        // TASK frames the coordinator sent it. Workers that departed after
        // the last DONE have nothing left to prove. Without recoveries the
        // sent counts are the block-cyclic census itself.
        for (w, &want) in sent_tasks.iter().enumerate() {
            if drive.departed[w] {
                continue;
            }
            let got = drive.executed[w];
            if got != Some(want) {
                return Err(ShardError::Protocol(format!(
                    "worker {w} executed {got:?} tasks, coordinator sent {want}"
                )));
            }
        }
        if drive.recoveries == 0 {
            debug_assert_eq!(sent_tasks, census);
        }
        report.metrics.conversions = conversion_counts().since(&conv0);

        // The frames the plan budgeted are the frames the wire carried —
        // and, for static formats, the bytes too: a byte mismatch means
        // the encoder and the static model disagree about the format of
        // some tile, which is exactly the bug class the f64-everywhere
        // regression was. Replays legitimately resend TILE frames, so the
        // check only binds undisturbed runs.
        if let (Some((frames, bytes)), 0) = (planned_tiles, drive.recoveries) {
            let (got_frames, got_bytes) = report
                .metrics
                .wire
                .iter()
                .find(|w| w.kind == "tile")
                .map_or((0, 0), |w| (w.frames, w.bytes));
            if got_frames != frames {
                return Err(ShardError::Protocol(format!(
                    "wire census mismatch: plan budgeted {frames} TILE frames, coordinator \
                     observed {got_frames} (the count depends only on the grid, so it binds \
                     TLR storage too)"
                )));
            }
            if let Some(bytes) = bytes.filter(|&b| b != got_bytes) {
                return Err(ShardError::Protocol(format!(
                    "wire census mismatch: plan budgeted {bytes} TILE bytes over {frames} \
                     frames, coordinator observed {got_bytes} (byte equality is armed for \
                     all-dense storage only)"
                )));
            }
        }

        if opts.validate {
            let summary = check_schedule(&accesses, &drive.order).map_err(|v| {
                ShardError::Protocol(format!(
                    "sharded completion order violates {} hazard edges",
                    v.len()
                ))
            })?;
            report.metrics.validation = Some(summary);
        }
        report.metrics.wall_seconds = t0.elapsed().as_secs_f64();
        Ok(report)
    }
}

/// The drive loop, separated so `factorize_elastic` can run the teardown
/// on every exit path: HELLO, the [`steps`](super::plan::steps) walk,
/// drain, gather, and the end-of-run census.
fn run_steps(
    f: &mut TiledFactor,
    co: &mut Coordinator,
    drive: &mut Drive,
    rec: &mut RecoveryCtx,
    meta: &[TaskMeta],
    p: usize,
    q: usize,
) -> Result<ShardReport, ShardError> {
    let layout = f.layout;
    let (nt, workers, total) = (layout.nt(), p * q, meta.len());

    // HELLO is not logged — a replacement's replay opens with its own.
    for w in 0..workers {
        co.send(w, K_HELLO, &encode_hello(w, &layout, p, q));
    }
    for step in super::plan::steps(nt, p, q) {
        match step {
            Step::Seed { i, j, to } => co.send_step(to, &seed_payload(f, i, j), step),
            Step::Forward { i, j, to } => co.send_step(to, drive.published(i, j)?, step),
            Step::Task { id, publish, .. } => {
                co.dispatched[id] = true;
                let m = &meta[id];
                co.send_step(m.owner, &task_payload(id, m, publish), step);
            }
            Step::Barrier { phase, from, to } => {
                wait_until(f, co, drive, rec, meta, phase, |d| {
                    d.failed.is_some() || d.done[from..to].iter().all(|&done| done)
                })?;
                if let Some(pivot) = drive.failed {
                    return Err(ShardError::Factor(FactorError::NotPositiveDefinite {
                        pivot,
                    }));
                }
            }
        }
    }
    wait_until(f, co, drive, rec, meta, "drain", |d| d.done_count == total)?;

    // Gather: every stored tile's final write is a published POTRF (diag)
    // or TRSM (panel) output, so the tile map now holds the whole factor.
    for j in 0..nt {
        for i in j..nt {
            let (_, body) = decode_tile_header(drive.published(i as u32, j as u32)?)
                .map_err(|e| ShardError::Protocol(e.to_string()))?;
            let tile = decode_tile(body).map_err(|e| ShardError::Protocol(e.to_string()))?;
            count_wire_conversion(&tile, false);
            *f.tiles[layout.stored_index(i, j)].lock() = tile;
        }
    }

    // End-of-run census: ping each live worker once with a HEARTBEAT whose
    // echo carries its executed-task count, leaving the connection warm
    // for the next factorization. Workers that departed after the final
    // DONE have nothing to report.
    for w in 0..workers {
        if !drive.departed[w] {
            co.send(w, K_HEARTBEAT, &encode_heartbeat(w as u64, None));
        }
    }
    wait_until(f, co, drive, rec, meta, "census", |d| {
        d.executed
            .iter()
            .zip(d.departed.iter())
            .all(|(e, &dep)| dep || e.is_some())
    })?;

    let mut kernels: Vec<KernelStats> = drive
        .kernels
        .iter()
        .filter(|k| k.count > 0)
        .copied()
        .collect();
    kernels.sort_by(|a, b| b.total_seconds.total_cmp(&a.total_seconds));
    // Fleet lifecycle events ride the same kernel-stats schema (count +
    // seconds), trailing the compute kernels, so `metrics_diff
    // --assert-counts worker_death,panel_replay` can hold a chaos run to
    // an exact recovery profile.
    kernels.extend(drive.events.iter().filter(|e| e.count > 0).copied());
    // One census for both directions: coordinator-side sends plus the
    // worker frames the reader threads drained.
    let mut wire = co.census;
    wire.merge(&drive.census);
    Ok(ShardReport {
        metrics: MetricsReport {
            wall_seconds: 0.0, // stamped by the caller
            tasks: total,
            workers,
            kernels,
            worker_stats: drive.workers.clone(),
            wire: wire.to_stats(),
            ..MetricsReport::default()
        },
    })
}
