//! The TCP prediction server.
//!
//! One frontend sits in front of one solver pool:
//!
//! * **event loop** ([`crate::reactor`]) — one thread owns the listener
//!   and every connection socket. It reads newline-delimited JSON
//!   requests, length-capped ([`MAX_LINE_BYTES`]): a client streaming
//!   bytes without a newline gets one error response and a closed
//!   connection instead of an unbounded buffer. Each line goes through
//!   `handle_request`: `predict` submits a `batch::Job` to
//!   the batch queue *without blocking*, `load` factorizes on its own
//!   thread (at most [`MAX_LOADS_IN_FLIGHT`] at a time), everything else
//!   is answered on the spot.
//! * **solvers** — pop coalesced batches off the shared queue, answer jobs
//!   whose `deadline_ms` already expired with a timeout error, and run one
//!   multi-RHS query per batch against the cached factor.
//!
//! Every response returns to the loop through the completion hub and is
//! written in completion order, so one slow `predict` never
//! head-of-line-blocks a `ping` or `metrics` on the same connection.
//! Clients that pipeline requests tag them with `"id"`s to correlate the
//! out-of-order responses.
//!
//! Overload protection: the batch queue carries a points budget
//! ([`ServerConfig::max_queued_points`]); once the backlog reaches it,
//! `predict` is answered immediately with
//! `{"ok":false,…,"retry_after_ms":…}` instead of queueing unboundedly,
//! and a `load` past the in-flight cap is refused the same way.
//!
//! Graceful shutdown (`{"op":"shutdown"}` or [`ServerHandle::shutdown`])
//! drains: the loop stops accepting and reading, keeps every connection
//! until the responses it is owed are flushed, and exits; only then is
//! the queue closed so solvers exit after the last batch. No request that
//! was acknowledged into the queue is dropped.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use xgs_core::FactorEngine;
use xgs_runtime::{KernelStats, MetricsReport, QueueDepthStats, WorkerStats};

use crate::batch::{solve_batch, BatchQueue, Job, PushError, Responder};
use crate::protocol::{
    error_response, load_response, models_response, parse_request, shed_response, Request,
};
use crate::reactor::{CompletionHub, Reactor};
use crate::registry::{build_plan_from_request, ModelRegistry};

/// Hard cap on one request line. Newline-delimited JSON with coordinates
/// comfortably fits; a client that streams more without a newline is
/// answered with one error and disconnected (OOM guard).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Most tiles per side a `load` may ask for with an explicit `"tile"`.
/// The factorization builds a task per tile triple — `nt³/6`, 45,760 at
/// this limit — so a `"tile":1` beside a few thousand points (a line far
/// below [`MAX_LINE_BYTES`]) would ask for hundreds of millions of task
/// closures; it is answered `ok:false` at parse time instead (OOM guard).
/// An omitted `"tile"` picks [`xgs_tile::TlrConfig::default_tile_size`]
/// (`n/10` clamped to 32..=512), ten tiles per side for any n up to 5,120.
pub const MAX_TILES_PER_SIDE: usize = 64;

/// Most `load` factorizations running at once. Each runs on its own
/// thread (the event loop must not block for seconds) and fans out on the
/// shared compute pool, so more of them in flight add memory and threads,
/// not speed; a `load` past the cap is refused with a `retry_after_ms`
/// hint like an over-budget `predict`.
pub const MAX_LOADS_IN_FLIGHT: usize = 4;

/// Tuning knobs of [`serve`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Batch-solver threads.
    pub solvers: usize,
    /// Coalescing stops adding requests once a batch reaches this many
    /// points (the multi-RHS solve is O(n² · points), so this bounds
    /// per-batch latency).
    pub max_batch_points: usize,
    /// Backpressure budget: once this many points sit in the batch queue,
    /// further `predict`s are shed with a `retry_after_ms` hint instead of
    /// queued.
    pub max_queued_points: usize,
    /// What factorizes a `load` request's Σ(θ): by default the task
    /// runtime on the shared pool. The CLI passes the engine it built the
    /// first model with — with `--shards`, the `xgs-fleet` supervisor: one
    /// persistent warm fleet across every `load`, instead of paying a
    /// fresh fleet spawn per factorization.
    pub engine: FactorEngine,
    /// Per-connection outbound queue cap in bytes. A client that stops
    /// reading while responses accumulate past this budget has its socket
    /// closed instead of the server buffering for it without bound.
    pub max_conn_outbound: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            solvers: 2,
            max_batch_points: 4096,
            max_queued_points: 1 << 16,
            engine: FactorEngine::Threads(0),
            max_conn_outbound: 8 << 20,
        }
    }
}

/// Server-side counters, exported as the shared [`MetricsReport`] JSON
/// schema so `metrics_diff` can compare service runs with factorization
/// runs. Kernel kinds: `request` (end-to-end request latency), `solve`
/// (per-batch multi-RHS query time), `batch_size` (batch size recorded as
/// `points · 1e-6` "seconds", i.e. the log₂-µs histogram buckets read as
/// log₂-points), `load` (model factorization+cache time), `shed` (overload
/// refusals, the "duration" being the advertised retry_after), `deadline`
/// (requests expired at dequeue, the "duration" being how late they were),
/// `evict` (registry evictions, count only).
///
/// The event loop additionally exports count-only kinds: `ready_event`
/// (epoll readiness events processed), `wakeup` (eventfd notifies from
/// solver completions), `partial_write` (flushes that hit `EAGAIN` with
/// bytes still queued), `open_conns_hwm` (high-water mark of concurrently
/// open connections). A kind whose count is zero is omitted from the
/// report.
pub(crate) struct ServerMetrics {
    started: Instant,
    request: KernelStats,
    solve: KernelStats,
    batch_size: KernelStats,
    queue_wait: KernelStats,
    load: KernelStats,
    shed: KernelStats,
    deadline: KernelStats,
    queue_depth: QueueDepthStats,
    solver_stats: Vec<WorkerStats>,
    errors: u64,
    pub(crate) reactor: ReactorCounters,
}

/// Event-loop health counters (see [`ServerMetrics`] docs).
#[derive(Default)]
pub(crate) struct ReactorCounters {
    pub ready_events: u64,
    pub wakeups: u64,
    pub partial_writes: u64,
    pub conns_hwm: u64,
}

impl ServerMetrics {
    fn new(solvers: usize) -> ServerMetrics {
        ServerMetrics {
            started: Instant::now(),
            request: KernelStats::new("request"),
            solve: KernelStats::new("solve"),
            batch_size: KernelStats::new("batch_size"),
            queue_wait: KernelStats::new("queue_wait"),
            load: KernelStats::new("load"),
            shed: KernelStats::new("shed"),
            deadline: KernelStats::new("deadline"),
            queue_depth: QueueDepthStats::default(),
            solver_stats: vec![WorkerStats::default(); solvers],
            errors: 0,
            reactor: ReactorCounters::default(),
        }
    }

    /// Record one finished response: end-to-end latency plus the error
    /// census. Called by the event loop's completion drain, the one place
    /// every reply funnels through.
    pub(crate) fn record_reply(&mut self, seconds: f64, err: bool) {
        self.request.record(seconds);
        if err {
            self.errors += 1;
        }
    }

    fn report(&self, evictions: u64) -> MetricsReport {
        let count_only = |kind: &'static str, n: u64| {
            let mut k = KernelStats::new(kind);
            k.count = n;
            k.min_seconds = 0.0;
            k
        };
        let kernels: Vec<KernelStats> = [
            self.request,
            self.solve,
            self.batch_size,
            self.queue_wait,
            self.load,
            self.shed,
            self.deadline,
            count_only("evict", evictions),
            count_only("ready_event", self.reactor.ready_events),
            count_only("wakeup", self.reactor.wakeups),
            count_only("partial_write", self.reactor.partial_writes),
            count_only("open_conns_hwm", self.reactor.conns_hwm),
        ]
        .into_iter()
        .filter(|k| k.count > 0)
        .collect();
        MetricsReport {
            wall_seconds: self.started.elapsed().as_secs_f64(),
            tasks: self.request.count as usize,
            workers: self.solver_stats.len(),
            kernels,
            queue_depth: self.queue_depth,
            worker_stats: self.solver_stats.clone(),
            ..MetricsReport::default()
        }
    }
}

pub(crate) struct Shared {
    registry: Arc<ModelRegistry>,
    queue: BatchQueue,
    pub(crate) shutdown: AtomicBool,
    /// Where every reply goes, and what wakes the event loop.
    pub(crate) hub: Arc<CompletionHub>,
    pub(crate) metrics: Mutex<ServerMetrics>,
    max_batch_points: usize,
    /// Engine for `load`-request factorizations ([`ServerConfig::engine`]).
    load_engine: FactorEngine,
    /// `load` factorizations running now (≤ [`MAX_LOADS_IN_FLIGHT`]).
    loads_in_flight: AtomicUsize,
}

impl Shared {
    fn report(&self) -> MetricsReport {
        self.metrics.lock().report(self.registry.evictions())
    }
}

/// Running server. Dropping the handle does NOT stop the server; call
/// [`ServerHandle::shutdown`] (or send `{"op":"shutdown"}`) and then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event_loop: JoinHandle<()>,
    solvers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// Actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raise the shutdown flag (idempotent, non-blocking). In-flight
    /// requests still complete; use [`ServerHandle::join`] to wait.
    pub fn shutdown(&self) {
        request_shutdown(&self.shared);
    }

    /// Wait for the full drain: every connection closed, queue empty,
    /// solvers exited. Returns the final metrics report.
    pub fn join(self) -> MetricsReport {
        // The loop exits once the flag is up and the last connection has
        // been flushed everything it is owed; enqueued jobs must stay
        // servable until then, so the queue closes only afterwards.
        let _ = self.event_loop.join();
        self.shared.queue.close();
        for s in self.solvers {
            let _ = s.join();
        }
        self.shared.report()
    }
}

fn request_shutdown(shared: &Shared) {
    if !shared.shutdown.swap(true, Ordering::SeqCst) {
        shared.hub.wake();
    }
}

/// Bind and start the service. Returns once the listener is live.
pub fn serve(config: &ServerConfig, registry: Arc<ModelRegistry>) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let solvers = config.solvers.max(1);
    let shared = Arc::new(Shared {
        registry,
        queue: BatchQueue::new(config.max_queued_points),
        shutdown: AtomicBool::new(false),
        hub: CompletionHub::new()?,
        metrics: Mutex::new(ServerMetrics::new(solvers)),
        max_batch_points: config.max_batch_points.max(1),
        load_engine: config.engine.clone(),
        loads_in_flight: AtomicUsize::new(0),
    });

    // Everything fallible happens before the first thread starts.
    let reactor = Reactor::bind(shared.clone(), listener, config)?;
    let solver_handles = (0..solvers)
        .map(|id| {
            let shared = shared.clone();
            std::thread::spawn(move || solver_loop(&shared, id))
        })
        .collect();
    let event_loop = std::thread::spawn(move || reactor.run());

    Ok(ServerHandle {
        addr,
        shared,
        event_loop,
        solvers: solver_handles,
    })
}

fn solver_loop(shared: &Shared, id: usize) {
    while let Some((batch, depth)) = shared.queue.pop_batch(shared.max_batch_points) {
        // Deadline enforcement at dequeue: expired jobs are answered with
        // a timeout error — never solved, never silently dropped.
        let now = Instant::now();
        let (live, expired): (Vec<Job>, Vec<Job>) = batch
            .into_iter()
            .partition(|j| j.deadline.is_none_or(|d| d > now));
        if !expired.is_empty() {
            let mut m = shared.metrics.lock();
            for job in &expired {
                let late = job
                    .deadline
                    .map_or(0.0, |d| now.duration_since(d).as_secs_f64());
                m.deadline.record(late);
            }
        }
        for job in expired {
            job.resp
                .send(error_response("deadline_ms exceeded before solve"), true);
        }
        if live.is_empty() {
            shared.metrics.lock().queue_depth.sample(depth);
            continue;
        }
        let requests = live.len() as u64;
        let (points, solve_seconds, max_wait) = solve_batch(live);
        let mut m = shared.metrics.lock();
        m.queue_depth.sample(depth);
        m.solve.record(solve_seconds);
        m.queue_wait.record(max_wait);
        // Batch size goes through the same log₂ histogram as durations by
        // recording `points · 1e-6 s` (bucket i ⇔ 2^(i-1) ≤ points < 2^i).
        m.batch_size.record(points as f64 * 1e-6);
        m.solver_stats[id].busy_seconds += solve_seconds;
        m.solver_stats[id].tasks += requests;
    }
}

/// Estimate how long until the backlog has drained, from the observed
/// solve throughput (falls back to 0.5 ms/point before any history).
fn retry_after_ms(m: &ServerMetrics, queued_points: usize) -> u64 {
    // batch_size records points·1e-6 "seconds" per batch, so its total
    // recovers the solved-point census.
    let solved_points = m.batch_size.total_seconds * 1e6;
    let per_point_seconds = if solved_points >= 1.0 && m.solve.total_seconds > 0.0 {
        m.solve.total_seconds / solved_points
    } else {
        5e-4
    };
    ((queued_points as f64 * per_point_seconds * 1e3).ceil() as u64).clamp(1, 10_000)
}

/// What a refused `load` is told to wait: the mean factorization time seen
/// so far (1 s before any history).
fn load_retry_after_ms(m: &ServerMetrics) -> u64 {
    let seconds = if m.load.count > 0 {
        m.load.mean_seconds()
    } else {
        1.0
    };
    ((seconds * 1e3).ceil() as u64).clamp(1, 10_000)
}

/// Refuse a request before it costs anything: one `shed` row, one response
/// carrying the retry hint.
fn shed(shared: &Shared, resp: Responder, retry_after: impl FnOnce(&ServerMetrics) -> u64) {
    let retry = {
        let mut m = shared.metrics.lock();
        let retry = retry_after(&m);
        m.shed.record(retry as f64 * 1e-3);
        retry
    };
    resp.send(shed_response(retry), true);
}

/// Parse and dispatch one request line that arrived on connection `conn`
/// at `t0`. Called from the event loop, so nothing here blocks: exactly
/// one response goes to the completion hub, now or — for an accepted
/// `predict` or `load` — when a solver or the load's thread finishes. The
/// loop keeps the connection's pending count raised until then, so the
/// drain invariant holds across the thread hop.
pub(crate) fn handle_request(shared: &Arc<Shared>, line: &str, t0: Instant, conn: usize) {
    let responder = |id: Option<String>| Responder {
        id,
        hub: shared.hub.clone(),
        conn,
        t0,
    };
    let envelope = match parse_request(line) {
        Ok(e) => e,
        Err(f) => return responder(f.id).send(error_response(&f.error), true),
    };
    let resp = responder(envelope.id);
    match envelope.req {
        Request::Ping => {
            let up = shared.metrics.lock().started.elapsed().as_secs_f64();
            resp.send(format!("{{\"ok\":true,\"uptime_seconds\":{up}}}"), false);
        }
        Request::Models => resp.send(models_response(&shared.registry.list()), false),
        Request::Metrics => resp.send(
            format!("{{\"ok\":true,\"metrics\":{}}}", shared.report().to_json()),
            false,
        ),
        Request::Shutdown => {
            request_shutdown(shared);
            resp.send("{\"ok\":true,\"draining\":true}".to_string(), false);
        }
        Request::Load(load) => {
            if shared.loads_in_flight.fetch_add(1, Ordering::Relaxed) >= MAX_LOADS_IN_FLIGHT {
                shared.loads_in_flight.fetch_sub(1, Ordering::Relaxed);
                return shed(shared, resp, load_retry_after_ms);
            }
            let shared = shared.clone();
            std::thread::spawn(move || {
                let t_load = Instant::now();
                let built = build_plan_from_request(&load, &shared.load_engine);
                shared.loads_in_flight.fetch_sub(1, Ordering::Relaxed);
                match built {
                    Ok((plan, llh)) => {
                        let n = plan.n_train();
                        shared.registry.insert(&load.name, plan);
                        shared
                            .metrics
                            .lock()
                            .load
                            .record(t_load.elapsed().as_secs_f64());
                        resp.send(load_response(&load.name, n, llh), false);
                    }
                    Err(e) => resp.send(error_response(&e), true),
                }
            });
        }
        Request::Predict(p) => {
            let Some(plan) = shared.registry.get(&p.model) else {
                let msg = format!("unknown model '{}'", p.model);
                return resp.send(error_response(&msg), true);
            };
            let deadline = p.deadline_ms.map(|ms| t0 + Duration::from_millis(ms));
            let job = Job {
                model: p.model,
                plan,
                points: p.points,
                uncertainty: p.uncertainty,
                enqueued: Instant::now(),
                deadline,
                resp,
            };
            // Accepted jobs are answered by a solver; refused jobs are
            // answered right here. Either way exactly one response goes
            // out.
            match shared.queue.push(job) {
                Ok(()) => {}
                Err((job, PushError::Overloaded { queued_points })) => {
                    shed(shared, job.resp, |m| retry_after_ms(m, queued_points));
                }
                Err((job, PushError::Closed)) => {
                    job.resp
                        .send(error_response("server is shutting down"), true);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xgs_core::{simulate_field, ModelFamily};
    use xgs_covariance::jittered_grid;
    use xgs_runtime::parse_json;
    use xgs_tile::Variant;

    fn started_server() -> (ServerHandle, Vec<xgs_covariance::Location>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(33);
        let locs = jittered_grid(150, &mut rng);
        let kernel = ModelFamily::MaternSpace.kernel(&[1.0, 0.1, 0.5]);
        let z = simulate_field(kernel.as_ref(), &locs, 34);
        let (plan, _) = crate::registry::build_plan(
            ModelFamily::MaternSpace,
            &[1.0, 0.1, 0.5],
            Variant::MpDense,
            48,
            locs.clone(),
            &z,
            1,
        )
        .unwrap();
        let registry = Arc::new(ModelRegistry::new());
        registry.insert("default", plan);
        let handle = serve(&ServerConfig::default(), registry).unwrap();
        (handle, locs, z)
    }

    fn roundtrip(stream: &mut TcpStream, request: &str) -> xgs_runtime::JsonValue {
        stream.write_all(request.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        parse_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"))
    }

    #[test]
    fn full_session_over_tcp() {
        let (handle, locs, z) = started_server();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();

        let pong = roundtrip(&mut conn, "{\"op\":\"ping\"}");
        assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));

        // Ids are echoed on every op.
        let pong = roundtrip(&mut conn, "{\"op\":\"ping\",\"id\":\"p1\"}");
        assert_eq!(pong.get("id").unwrap().as_str(), Some("p1"));

        let models = roundtrip(&mut conn, "{\"op\":\"models\"}");
        let list = models.get("models").unwrap().as_array().unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].get("n_train").unwrap().as_usize(), Some(150));

        // Self-prediction over the wire reproduces the training data.
        let pts: String = locs[..5]
            .iter()
            .map(|l| format!("[{},{}]", l.x, l.y))
            .collect::<Vec<_>>()
            .join(",");
        let pred = roundtrip(
            &mut conn,
            &format!("{{\"op\":\"predict\",\"points\":[{pts}],\"uncertainty\":true}}"),
        );
        assert_eq!(pred.get("ok").unwrap().as_bool(), Some(true));
        let mean = pred.get("mean").unwrap().as_array().unwrap();
        for (m, t) in mean.iter().zip(&z[..5]) {
            assert!((m.as_f64().unwrap() - t).abs() < 1e-5);
        }
        let unc = pred.get("uncertainty").unwrap().as_array().unwrap();
        assert_eq!(unc.len(), 5);

        // Errors come back as ok:false without killing the connection.
        let err = roundtrip(
            &mut conn,
            "{\"op\":\"predict\",\"model\":\"nope\",\"points\":[[0.5,0.5]]}",
        );
        assert_eq!(err.get("ok").unwrap().as_bool(), Some(false));
        assert!(err.get("error").unwrap().as_str().unwrap().contains("nope"));

        let m = roundtrip(&mut conn, "{\"op\":\"metrics\"}");
        let report = MetricsReport::from_json(&m.get("metrics").unwrap().to_json_string())
            .expect("metrics parse back");
        assert!(report.tasks >= 5);

        let bye = roundtrip(&mut conn, "{\"op\":\"shutdown\"}");
        assert_eq!(bye.get("draining").unwrap().as_bool(), Some(true));
        drop(conn);
        let report = handle.join();
        assert!(report.kernels.iter().any(|k| k.kind == "request"));
    }

    #[test]
    fn concurrent_clients_get_bitwise_identical_answers() {
        let (handle, _locs, _z) = started_server();
        let addr = handle.addr();
        let points = "[[0.21,0.34],[0.55,0.62],[0.81,0.17]]";
        let request = format!("{{\"op\":\"predict\",\"points\":{points}}}");

        let mut joins = Vec::new();
        for _ in 0..6 {
            let request = request.clone();
            joins.push(std::thread::spawn(move || {
                let mut conn = TcpStream::connect(addr).unwrap();
                let mut out = Vec::new();
                for _ in 0..5 {
                    let v = roundtrip(&mut conn, &request);
                    let mean: Vec<u64> = v
                        .get("mean")
                        .unwrap()
                        .as_array()
                        .unwrap()
                        .iter()
                        .map(|x| x.as_f64().unwrap().to_bits())
                        .collect();
                    out.push(mean);
                }
                out
            }));
        }
        let all: Vec<Vec<Vec<u64>>> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        let first = &all[0][0];
        for per_client in &all {
            for mean in per_client {
                assert_eq!(mean, first, "batching changed the numbers");
            }
        }
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn load_over_the_wire_then_predict() {
        let registry = Arc::new(ModelRegistry::new());
        let handle = serve(&ServerConfig::default(), registry).unwrap();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();

        let mut rng = StdRng::seed_from_u64(77);
        let locs = jittered_grid(80, &mut rng);
        let kernel = ModelFamily::MaternSpace.kernel(&[1.0, 0.1, 0.5]);
        let z = simulate_field(kernel.as_ref(), &locs, 78);
        let locs_json: String = locs
            .iter()
            .map(|l| format!("[{},{}]", l.x, l.y))
            .collect::<Vec<_>>()
            .join(",");
        let z_json: String = z.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
        let loaded = roundtrip(
            &mut conn,
            &format!(
                "{{\"op\":\"load\",\"name\":\"wire\",\"theta\":[1.0,0.1,0.5],\
                 \"variant\":\"dense\",\"tile\":32,\"locs\":[{locs_json}],\"z\":[{z_json}]}}"
            ),
        );
        assert_eq!(
            loaded.get("ok").unwrap().as_bool(),
            Some(true),
            "{loaded:?}"
        );
        assert_eq!(loaded.get("n_train").unwrap().as_usize(), Some(80));

        let pred = roundtrip(
            &mut conn,
            &format!(
                "{{\"op\":\"predict\",\"model\":\"wire\",\"points\":[[{},{}]]}}",
                locs[3].x, locs[3].y
            ),
        );
        let m = pred.get("mean").unwrap().as_array().unwrap()[0]
            .as_f64()
            .unwrap();
        assert!((m - z[3]).abs() < 1e-5, "{m} vs {}", z[3]);

        handle.shutdown();
        handle.join();
    }

    #[test]
    fn retry_hint_scales_with_backlog_and_history() {
        let mut m = ServerMetrics::new(1);
        // No history: 0.5 ms/point fallback.
        assert_eq!(retry_after_ms(&m, 100), 50);
        assert_eq!(retry_after_ms(&m, 0), 1, "clamped to at least 1 ms");
        // History: 200 points solved in 0.1 s → 0.5 ms/point measured
        // (ceil may round the float arithmetic up by one).
        m.solve.record(0.1);
        m.batch_size.record(200.0 * 1e-6);
        let hint = retry_after_ms(&m, 1000);
        assert!((500..=501).contains(&hint), "{hint}");
        assert_eq!(retry_after_ms(&m, usize::MAX / 2), 10_000, "upper clamp");
        // A refused `load` waits one mean factorization (1 s unseen).
        assert_eq!(load_retry_after_ms(&m), 1000);
        m.load.record(0.25);
        assert_eq!(load_retry_after_ms(&m), 250);
    }
}
