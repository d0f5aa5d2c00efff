//! Elastic shard fleet: the supervisor that runs every sharded
//! factorization.
//!
//! `xgs-cholesky`'s coordinator drives workers over connections it is
//! handed; the [`Supervisor`] here is what starts, admits and owns those
//! workers — the one [`ShardBackend`], and `FleetState::launch` the one
//! place a worker comes into existence. It is a *registration* model over
//! the shard frame protocol:
//!
//! * Workers dial the supervisor's listener (`worker --connect <addr>`)
//!   and register with a `JOIN` frame advertising capabilities (cores,
//!   supported precisions, protocol version); the supervisor answers
//!   with `ASSIGN` carrying a fleet member id and the active/standby
//!   role. Admission is [`xgs_cholesky::admit_worker`] for launched and
//!   dialed-in workers alike, so the protocol cannot drift.
//! * The first `p * q` members form the factorization grid; members
//!   beyond it are **standbys**, registered and warm but idle.
//! * Liveness: during a run the coordinator's deadline'd reads detect
//!   death; between runs a monitor thread exchanges `HEARTBEAT`
//!   ping/echo with every idle member and culls the ones that stopped
//!   answering, refilling to target strength.
//! * On worker death mid-factorization the supervisor — acting as the
//!   run's [`ReplacementSource`] — promotes a standby (or launches a
//!   fresh worker) and the coordinator replays the lost shard's frames
//!   from the last published tile versions. The recovery plan is
//!   validated by `xgs-analysis` before a single frame is sent, and the
//!   recovered factor stays bitwise-equal to the sequential one.
//! * The fleet stays **warm** between runs: a run ends with a
//!   `HEARTBEAT` census instead of a teardown, sockets stay open, and
//!   the same members serve the next factorization after a
//!   state-resetting `HELLO`. A one-shot run is a supervisor with zero
//!   standbys dropped at scope exit: dropping it closes every socket and
//!   reaps every child.
//!
//! Fleet lifecycle lands in the shared metrics schema: the engine
//! already records `worker_death` / `panel_replay` / `standby_promote`
//! events, and the supervisor adds a `worker_join` row counting
//! admissions (initial spawns, dial-ins, mid-run replacements) since the
//! previous report, so `metrics_diff` can assert on recovery behavior.

use std::collections::VecDeque;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use xgs_cholesky::shard::K_HEARTBEAT;
use xgs_cholesky::{
    admit_worker, worker_loop_with, JoinInfo, ReplacementOrigin, ReplacementSource,
    ReplacementWorker, ShardBackend, ShardError, ShardOptions, ShardReport, TiledFactor,
    WorkerOptions,
};
use xgs_runtime::{read_frame, write_frame, KernelStats, WireWriter};

/// How the supervisor brings new workers into existence when it has to
/// launch them itself (initial fill, respawn after a death). Externally
/// dialed workers are admitted regardless of this setting.
#[derive(Clone, Debug)]
pub enum Launch {
    /// `<exe> worker --connect <addr>` child processes — the production
    /// configuration, where `<exe>` is the `exageostat` binary itself.
    Process(PathBuf),
    /// In-process threads running the worker loop — tests and benches,
    /// where spawning real processes would dominate the runtime. The
    /// [`WorkerOptions`] seed every launched thread (chaos injection).
    Threads(WorkerOptions),
}

/// Supervisor configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// How locally launched workers come up.
    pub launch: Launch,
    /// Grid strength: the factorization runs on this many workers
    /// (`grid_shape(workers)` picks the `p x q` layout).
    pub workers: usize,
    /// Warm spares beyond the grid, promoted on death.
    pub standbys: usize,
    /// Wall-clock budget per factorization (recovery included).
    pub deadline: Duration,
    /// Budget for one worker to connect and complete the `JOIN`/`ASSIGN`
    /// handshake.
    pub spawn_deadline: Duration,
    /// Monitor cadence for idle-member heartbeats and dial-in admission.
    pub heartbeat_every: Duration,
    /// How long an idle member may sit on a heartbeat echo before the
    /// monitor declares it dead.
    pub heartbeat_timeout: Duration,
    /// Launch replacements when standbys run out (mid-run) and refill
    /// culled members between runs. Off = the fleet only shrinks.
    pub respawn: bool,
    /// Extra environment for launched worker processes (chaos tests).
    pub env: Vec<(String, String)>,
}

impl FleetConfig {
    /// Production defaults over `exe worker --connect`.
    pub fn process(exe: PathBuf, workers: usize) -> FleetConfig {
        FleetConfig::with_launch(Launch::Process(exe), workers)
    }

    /// In-process thread workers (tests).
    pub fn threads(workers: usize) -> FleetConfig {
        FleetConfig::with_launch(Launch::Threads(WorkerOptions::default()), workers)
    }

    fn with_launch(launch: Launch, workers: usize) -> FleetConfig {
        FleetConfig {
            launch,
            workers: workers.max(1),
            standbys: 0,
            deadline: Duration::from_secs(120),
            spawn_deadline: Duration::from_secs(30),
            heartbeat_every: Duration::from_secs(5),
            heartbeat_timeout: Duration::from_secs(2),
            respawn: true,
            env: Vec::new(),
        }
    }
}

/// One registered worker: its connection, its launch handle (when the
/// supervisor launched it), and what its `JOIN` advertised. Dropping a
/// member closes the socket and reaps the child — a culled or replaced
/// worker can never linger as an orphan.
#[derive(Debug)]
struct Member {
    id: u32,
    stream: TcpStream,
    child: Option<Child>,
    info: JoinInfo,
}

impl Drop for Member {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(c) = &mut self.child {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Mutable fleet state, all under the one `pool` lock: the grid members,
/// the standby queue, and the admission counters. A factorization holds
/// the lock for its whole run, which is what keeps the monitor thread
/// off the sockets while the coordinator is driving them.
#[derive(Debug, Default)]
struct FleetState {
    active: Vec<Member>,
    standbys: VecDeque<Member>,
    next_id: u32,
    /// Admissions since the last report (drained into `worker_join`).
    joins: u64,
    /// Idle members the monitor culled for missing heartbeats.
    idle_culled: u64,
}

/// Point-in-time fleet summary (tests, `serve` banner).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetStatus {
    pub active: usize,
    pub standbys: usize,
    /// Sum of the cores every registered member advertised in its `JOIN`.
    pub cores: u32,
    /// Admissions not yet drained into a report's `worker_join` row.
    pub pending_joins: u64,
    pub idle_culled: u64,
}

#[derive(Debug)]
struct Inner {
    cfg: FleetConfig,
    listener: TcpListener,
    addr: SocketAddr,
    pool: Mutex<FleetState>,
}

/// The elastic fleet supervisor. Owns the registration listener, the
/// member pool, and a monitor thread; implements [`ShardBackend`], which
/// is how `FactorEngine::Sharded` and the prediction server reach it.
#[derive(Debug)]
pub struct Supervisor {
    inner: Arc<Inner>,
    stop: Arc<AtomicBool>,
    monitor: Option<JoinHandle<()>>,
}

impl Supervisor {
    /// Bind the registration listener, bring the fleet up to target
    /// strength (`workers` grid members + `standbys` spares), and start
    /// the liveness monitor.
    pub fn start(cfg: FleetConfig) -> Result<Supervisor, ShardError> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(spawn_err)?;
        let addr = listener.local_addr().map_err(spawn_err)?;
        listener.set_nonblocking(true).map_err(spawn_err)?;
        let inner = Arc::new(Inner {
            cfg,
            listener,
            addr,
            pool: Mutex::new(FleetState::default()),
        });
        inner.pool.lock().fill(&inner)?;

        let stop = Arc::new(AtomicBool::new(false));
        let monitor = {
            let weak = Arc::downgrade(&inner);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("fleet-monitor".into())
                .spawn(move || monitor_loop(weak, &stop))
                .map_err(spawn_err)?
        };
        Ok(Supervisor {
            inner,
            stop,
            monitor: Some(monitor),
        })
    }

    /// Where workers dial in (`worker --connect <addr>`).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Current strength and counters.
    pub fn status(&self) -> FleetStatus {
        let pool = self.inner.pool.lock();
        FleetStatus {
            active: pool.active.len(),
            standbys: pool.standbys.len(),
            cores: pool
                .active
                .iter()
                .chain(pool.standbys.iter())
                .map(|m| m.info.cores)
                .sum(),
            pending_joins: pool.joins,
            idle_culled: pool.idle_culled,
        }
    }

    /// Kill an idle member by id (fault-injection tests): `SIGKILL` for
    /// process workers, a socket shutdown for thread workers. Returns
    /// whether a member with that id was found. Blocks while a
    /// factorization holds the pool, so it only ever hits idle members —
    /// mid-run chaos goes through `XGS_CHAOS_ABORT` instead.
    pub fn kill_member(&self, id: u32) -> bool {
        let mut pool = self.inner.pool.lock();
        let FleetState {
            active, standbys, ..
        } = &mut *pool;
        for m in active.iter_mut().chain(standbys.iter_mut()) {
            if m.id != id {
                continue;
            }
            match &mut m.child {
                Some(c) => {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                None => {
                    let _ = m.stream.shutdown(Shutdown::Both);
                }
            }
            return true;
        }
        false
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
        // `inner` drops with us (the monitor held only a Weak), taking
        // every Member with it: sockets shut, children killed and reaped.
    }
}

impl ShardBackend for Supervisor {
    /// One factorization on the warm fleet. Holds the pool for the whole
    /// run; on success the grid members stay registered and warm for the
    /// next call, on error they are discarded (the coordinator shut the
    /// sockets down) and the next call rebuilds the fleet.
    fn factorize(&self, f: &mut TiledFactor) -> Result<ShardReport, ShardError> {
        let inner = &self.inner;
        let mut pool = inner.pool.lock();
        pool.admit_dialins(inner);
        pool.fill(inner)?;

        let mut members = std::mem::take(&mut pool.active);
        let mut streams = Vec::with_capacity(members.len());
        for m in &members {
            streams.push(m.stream.try_clone().map_err(spawn_err)?);
        }

        let opts = ShardOptions {
            deadline: inner.cfg.deadline,
            ..ShardOptions::default()
        };
        let mut source = FleetSource {
            inner,
            pool: &mut pool,
            members: &mut members,
        };
        let result = f.factorize_elastic(&mut streams, &opts, &mut source);
        drop(streams); // members keep their own handles to the sockets

        match result {
            Ok(mut report) => {
                pool.active = members;
                let joined = std::mem::take(&mut pool.joins);
                if joined > 0 {
                    let mut ev = KernelStats::new("worker_join");
                    for _ in 0..joined {
                        ev.record(0.0);
                    }
                    report.metrics.kernels.push(ev);
                }
                Ok(report)
            }
            Err(e) => {
                // The coordinator shut the sockets down on its way out;
                // dropping the members reaps the processes. Next call
                // starts from an empty pool.
                members.clear();
                Err(e)
            }
        }
    }

    fn describe(&self) -> String {
        let cfg = &self.inner.cfg;
        format!(
            "warm fleet x{} (+{} standby, registration {})",
            cfg.workers, cfg.standbys, self.inner.addr
        )
    }
}

/// The supervisor acting as a run's [`ReplacementSource`]: standbys
/// first, then (if configured) a fresh launch. Replaced members are
/// dropped on the spot, which reaps the dead process.
struct FleetSource<'a> {
    inner: &'a Inner,
    pool: &'a mut FleetState,
    members: &'a mut Vec<Member>,
}

impl ReplacementSource for FleetSource<'_> {
    fn replace(&mut self, worker: usize) -> Option<ReplacementWorker> {
        let (member, origin) = match self.pool.standbys.pop_front() {
            Some(m) => (m, ReplacementOrigin::Standby),
            None if self.inner.cfg.respawn => {
                let m = self.pool.launch(self.inner, false).ok()?;
                (m, ReplacementOrigin::Respawn)
            }
            None => return None,
        };
        let stream = member.stream.try_clone().ok()?;
        // Dropping the dead member shuts its socket and reaps its child.
        self.members[worker] = member;
        Some(ReplacementWorker { stream, origin })
    }
}

impl FleetState {
    /// Bring the fleet to target strength: promote standbys into empty
    /// grid slots, launch what is still missing, then refill the standby
    /// queue.
    fn fill(&mut self, inner: &Inner) -> Result<(), ShardError> {
        while self.active.len() < inner.cfg.workers {
            let m = match self.standbys.pop_front() {
                Some(m) => m,
                None => self.launch(inner, false)?,
            };
            self.active.push(m);
        }
        while self.standbys.len() < inner.cfg.standbys {
            let m = self.launch(inner, true)?;
            self.standbys.push_back(m);
        }
        Ok(())
    }

    /// Launch one worker (per [`Launch`]) and admit it. The one place a
    /// worker is started: initial fill, refill, and mid-run respawn.
    fn launch(&mut self, inner: &Inner, standby: bool) -> Result<Member, ShardError> {
        let cfg = &inner.cfg;
        let mut child = match &cfg.launch {
            Launch::Process(exe) => {
                let mut cmd = Command::new(exe);
                cmd.arg("worker")
                    .arg("--connect")
                    .arg(inner.addr.to_string())
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::null());
                for (k, v) in &cfg.env {
                    cmd.env(k, v);
                }
                Some(
                    cmd.spawn()
                        .map_err(|e| ShardError::Spawn(format!("{}: {e}", exe.display())))?,
                )
            }
            Launch::Threads(opts) => {
                let addr = inner.addr;
                let opts = *opts;
                std::thread::Builder::new()
                    .name("fleet-worker".into())
                    .spawn(move || {
                        if let Ok(s) = TcpStream::connect(addr) {
                            let _ = worker_loop_with(s, opts);
                        }
                    })
                    .map_err(spawn_err)?;
                None
            }
        };
        let stream = accept_within(inner, cfg.spawn_deadline, child.as_mut())?;
        self.admit(stream, child, standby, cfg.spawn_deadline)
    }

    /// Register the worker on `stream` under the next member id: the
    /// shared `JOIN`/`ASSIGN` handshake, for launched and dialed-in
    /// workers alike.
    fn admit(
        &mut self,
        mut stream: TcpStream,
        child: Option<Child>,
        standby: bool,
        deadline: Duration,
    ) -> Result<Member, ShardError> {
        let id = self.next_id;
        self.next_id += 1;
        let info = admit_worker(&mut stream, id, standby, deadline)?;
        self.joins += 1;
        Ok(Member {
            id,
            stream,
            child,
            info,
        })
    }

    /// Admit workers that dialed in on their own since the last look at
    /// the listener. They join as standbys — the grid is assigned by
    /// [`FleetState::fill`], not by connection order.
    fn admit_dialins(&mut self, inner: &Inner) {
        loop {
            match inner.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    // A stranger that never completes the handshake (or
                    // speaks an old protocol) is turned away; the
                    // connection drops on the Err path here.
                    if let Ok(m) = self.admit(stream, None, true, inner.cfg.heartbeat_timeout) {
                        self.standbys.push_back(m);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    /// Heartbeat every idle member; cull the ones that stopped answering.
    fn sweep(&mut self, inner: &Inner) {
        let timeout = inner.cfg.heartbeat_timeout;
        let alive = |m: &mut Member| probe(m, timeout);
        let before = self.active.len() + self.standbys.len();
        self.active.retain_mut(alive);
        self.standbys.retain_mut(alive);
        self.idle_culled += (before - self.active.len() - self.standbys.len()) as u64;
    }
}

/// One `HEARTBEAT` ping/echo round-trip on an idle member's socket.
fn probe(m: &mut Member, timeout: Duration) -> bool {
    let mut w = WireWriter::new();
    w.put_u64(u64::from(m.id));
    if write_frame(&mut m.stream, K_HEARTBEAT, &w.buf).is_err() {
        return false;
    }
    matches!(
        read_frame(&mut m.stream, Some(timeout), None),
        Ok((kind, echo)) if kind == K_HEARTBEAT && echo.len() >= 8
    )
}

/// Accept one connection on the (nonblocking) registration listener,
/// bounded by `deadline`. While polling, a launched child that exited
/// before connecting is reported instead of waiting out the clock.
fn accept_within(
    inner: &Inner,
    deadline: Duration,
    mut child: Option<&mut Child>,
) -> Result<TcpStream, ShardError> {
    let until = Instant::now() + deadline;
    loop {
        match inner.listener.accept() {
            Ok((s, _)) => {
                let _ = s.set_nonblocking(false);
                return Ok(s);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if let Some(c) = child.as_deref_mut() {
                    if let Ok(Some(status)) = c.try_wait() {
                        return Err(ShardError::Spawn(format!(
                            "worker exited before connecting: {status}"
                        )));
                    }
                }
                if Instant::now() >= until {
                    return Err(ShardError::Spawn(format!(
                        "no worker connected within {deadline:?}"
                    )));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(spawn_err(e)),
        }
    }
}

/// Between runs: admit dial-ins, heartbeat idle members, refill. Skips
/// the tick entirely when a factorization holds the pool — the monitor
/// must never touch sockets the coordinator is driving.
fn monitor_loop(inner: Weak<Inner>, stop: &AtomicBool) {
    let mut last = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(25));
        let Some(strong) = inner.upgrade() else {
            return;
        };
        if last.elapsed() < strong.cfg.heartbeat_every {
            continue;
        }
        let tick = strong.pool.try_lock();
        if let Some(mut pool) = tick {
            last = Instant::now();
            pool.admit_dialins(&strong);
            pool.sweep(&strong);
            if strong.cfg.respawn {
                // Best effort: a launch failure here surfaces on the
                // next factorization's fill instead.
                let _ = pool.fill(&strong);
            }
        }
    }
}

fn spawn_err(e: io::Error) -> ShardError {
    ShardError::Spawn(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use xgs_cholesky::shard::{ChaosSpec, ChaosTrigger};
    use xgs_covariance::{jittered_grid, morton_order, Matern, MaternParams};
    use xgs_tile::{FlopKernelModel, SymTileMatrix, TlrConfig, Variant};

    fn build(n: usize, nb: usize) -> TiledFactor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut locs = jittered_grid(n, &mut rng);
        morton_order(&mut locs);
        let kernel = Matern::new(MaternParams::new(1.0, 0.05, 0.5));
        let model = FlopKernelModel {
            dense_rate: 45.0e9,
            mem_factor: 1.0,
        };
        TiledFactor::from_matrix(SymTileMatrix::generate(
            &kernel,
            &locs,
            TlrConfig::new(Variant::DenseF64, nb),
            &model,
        ))
    }

    fn event_count(r: &ShardReport, kind: &str) -> u64 {
        r.metrics
            .kernels
            .iter()
            .find(|k| k.kind == kind)
            .map_or(0, |k| k.count)
    }

    #[test]
    fn warm_fleet_runs_back_to_back_and_reports_joins_once() {
        let fleet = Supervisor::start(FleetConfig::threads(4)).unwrap();

        let mut seq = build(200, 64);
        seq.factorize_seq().unwrap();

        let mut a = build(200, 64);
        let ra = fleet.factorize(&mut a).unwrap();
        assert_eq!(
            seq.to_dense_lower().as_slice(),
            a.to_dense_lower().as_slice()
        );
        // The initial fill is the first report's worker_join row...
        assert_eq!(event_count(&ra, "worker_join"), 4);

        // ...and a second run on the warm fleet admits nobody new.
        let mut b = build(200, 64);
        let rb = fleet.factorize(&mut b).unwrap();
        assert_eq!(
            seq.to_dense_lower().as_slice(),
            b.to_dense_lower().as_slice()
        );
        assert_eq!(event_count(&rb, "worker_join"), 0);
        assert_eq!(event_count(&rb, "worker_death"), 0);

        let st = fleet.status();
        assert_eq!((st.active, st.standbys), (4, 0));
    }

    #[test]
    fn standby_is_promoted_on_mid_run_death() {
        let chaos = ChaosSpec {
            member: 3,
            trigger: ChaosTrigger::TaskStart(3),
            disconnect: true,
        };
        let mut cfg = FleetConfig::threads(4);
        cfg.launch = Launch::Threads(WorkerOptions {
            idle_timeout: None,
            chaos: Some(chaos),
            ..WorkerOptions::default()
        });
        cfg.standbys = 1;
        let fleet = Supervisor::start(FleetConfig { ..cfg }).unwrap();

        let mut seq = build(200, 64);
        seq.factorize_seq().unwrap();

        let mut f = build(200, 64);
        let r = fleet.factorize(&mut f).unwrap();
        assert_eq!(
            seq.to_dense_lower().as_slice(),
            f.to_dense_lower().as_slice(),
            "recovered factor must stay bitwise equal"
        );
        assert_eq!(event_count(&r, "worker_death"), 1);
        assert!(event_count(&r, "panel_replay") >= 1);
        assert_eq!(event_count(&r, "standby_promote"), 1);
        // 4 grid + 1 standby admissions in the first report.
        assert_eq!(event_count(&r, "worker_join"), 5);

        // The standby moved into the grid; refill is the monitor's job,
        // so right after the run the queue is empty.
        let st = fleet.status();
        assert_eq!(st.active, 4);

        // The warm (post-recovery) fleet still factorizes correctly —
        // the replacement's fresh member id never re-triggers chaos.
        let mut g = build(200, 64);
        let rg = fleet.factorize(&mut g).unwrap();
        assert_eq!(
            seq.to_dense_lower().as_slice(),
            g.to_dense_lower().as_slice()
        );
        assert_eq!(event_count(&rg, "worker_death"), 0);
    }

    #[test]
    fn respawn_covers_death_when_no_standby_is_registered() {
        let chaos = ChaosSpec {
            member: 3,
            trigger: ChaosTrigger::TaskStart(3),
            disconnect: true,
        };
        let mut cfg = FleetConfig::threads(4);
        cfg.launch = Launch::Threads(WorkerOptions {
            idle_timeout: None,
            chaos: Some(chaos),
            ..WorkerOptions::default()
        });
        let fleet = Supervisor::start(cfg).unwrap();

        let mut seq = build(200, 64);
        seq.factorize_seq().unwrap();

        let mut f = build(200, 64);
        let r = fleet.factorize(&mut f).unwrap();
        assert_eq!(
            seq.to_dense_lower().as_slice(),
            f.to_dense_lower().as_slice()
        );
        assert_eq!(event_count(&r, "worker_death"), 1);
        assert!(event_count(&r, "panel_replay") >= 1);
        assert_eq!(event_count(&r, "standby_promote"), 0);
        // 4 grid admissions + the mid-run respawn.
        assert_eq!(event_count(&r, "worker_join"), 5);
    }

    #[test]
    fn monitor_culls_a_killed_idle_member_and_refills() {
        let mut cfg = FleetConfig::threads(2);
        cfg.standbys = 1;
        cfg.heartbeat_every = Duration::from_millis(50);
        cfg.heartbeat_timeout = Duration::from_millis(500);
        let fleet = Supervisor::start(cfg).unwrap();
        assert!(fleet.kill_member(2), "standby member 2 must exist");

        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let st = fleet.status();
            if st.idle_culled == 1 && st.active == 2 && st.standbys == 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "monitor never culled/refilled: {st:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }

        // The repaired fleet still factorizes.
        let mut seq = build(150, 50);
        seq.factorize_seq().unwrap();
        let mut f = build(150, 50);
        fleet.factorize(&mut f).unwrap();
        assert_eq!(
            seq.to_dense_lower().as_slice(),
            f.to_dense_lower().as_slice()
        );
    }

    #[test]
    fn dialed_in_worker_registers_as_standby() {
        let mut cfg = FleetConfig::threads(2);
        cfg.heartbeat_every = Duration::from_millis(50);
        cfg.respawn = false;
        let fleet = Supervisor::start(cfg).unwrap();
        let addr = fleet.addr();

        // An external worker dials the registration address on its own.
        let h = std::thread::spawn(move || {
            let s = TcpStream::connect(addr)?;
            worker_loop_with(
                s,
                WorkerOptions {
                    idle_timeout: None,
                    ..WorkerOptions::default()
                },
            )
        });

        let deadline = Instant::now() + Duration::from_secs(10);
        while fleet.status().standbys != 1 {
            assert!(
                Instant::now() < deadline,
                "dial-in was never admitted: {:?}",
                fleet.status()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(fleet.status().active, 2);
        drop(fleet); // shuts every socket; the dialed worker's loop ends
        let _ = h.join();
    }

    #[test]
    fn describe_names_the_strategy() {
        let fleet = Supervisor::start(FleetConfig::threads(2)).unwrap();
        let d = fleet.describe();
        assert!(d.contains("warm fleet x2"), "{d}");
    }
}
