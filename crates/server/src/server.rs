//! The TCP prediction server.
//!
//! Two interchangeable connection frontends sit in front of one solver
//! pool ([`Frontend`]): the thread-per-connection layout below, and the
//! single-threaded epoll event loop in [`crate::reactor`]. Both speak the
//! same protocol, share [`handle_request`] dispatch, and uphold the same
//! invariants (every accepted request answered, bounded lines, deadlines,
//! shedding) — proven by running the adversarial suite against both.
//!
//! Both stay because each wins a measured workload (EXPERIMENTS.md,
//! "Serving frontends"): threaded by 32 % on the benchmark's
//! two-connection `serve` workload, the reactor at 10,000 connections,
//! where threaded runs out of threads. Threaded is the default; see
//! [`Frontend`] for why a user-set flag still makes the choice.
//!
//! Threaded frontend layout:
//!
//! * **acceptor** — owns the listener, spawns one handler thread per
//!   connection, exits when the shutdown flag rises (a self-connection
//!   unblocks `accept`).
//! * **connection handlers** — read newline-delimited JSON requests with a
//!   short read timeout so they observe shutdown between requests. Request
//!   lines are length-capped ([`MAX_LINE_BYTES`]): a client streaming bytes
//!   without a newline gets one error response and a closed connection
//!   instead of an unbounded buffer. `predict` submits a
//!   [`Job`](crate::batch::Job) to the batch queue *without blocking*;
//!   everything else is answered inline.
//! * **per-connection writers** — each connection owns a writer thread fed
//!   by a channel; responses are written in completion order, so one slow
//!   `predict` never head-of-line-blocks a `ping` or `metrics` on the same
//!   connection. Clients that pipeline requests tag them with `"id"`s to
//!   correlate the out-of-order responses.
//! * **solvers** — pop coalesced batches off the shared queue, answer jobs
//!   whose `deadline_ms` already expired with a timeout error, and run one
//!   multi-RHS query per batch against the cached factor.
//!
//! Overload protection: the batch queue carries a points budget
//! ([`ServerConfig::max_queued_points`]); once the backlog reaches it,
//! `predict` is answered immediately with
//! `{"ok":false,…,"retry_after_ms":…}` instead of queueing unboundedly.
//!
//! Graceful shutdown (`{"op":"shutdown"}` or [`ServerHandle::shutdown`])
//! drains: the acceptor stops first, handlers finish their in-flight
//! request and join their writer (which flushes every response the
//! connection is still owed), and only then is the queue closed so solvers
//! exit after the last batch. No request that was acknowledged into the
//! queue is dropped.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use xgs_cholesky::ShardBackend;
use xgs_core::FactorEngine;
use xgs_runtime::{KernelStats, MetricsReport, QueueDepthStats, WorkerStats};

use crate::batch::{solve_batch, BatchQueue, Job, PushError, Reply, ReplySink, Responder};
use crate::protocol::{
    error_response, load_response, models_response, parse_request, shed_response, with_id, Request,
};
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
/// An omitted `"tile"` picks `n/10` clamped to 32..=512, ten tiles per
/// side for any n up to 5,120.
pub const MAX_TILES_PER_SIDE: usize = 64;

/// Which connection-handling frontend [`serve`] boots. Both speak the
/// identical wire protocol and answer bitwise-identically
/// (`tests/frontend_equivalence.rs`); they differ in what they cost, and
/// each wins one side (EXPERIMENTS.md, "Serving frontends"). The server
/// cannot see at boot how many connections will come, so the caller
/// picks — a wart, to be removed by making the reactor as fast as
/// threaded on a few connections and deleting the latter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Frontend {
    /// One handler + one writer thread per connection. The default: on
    /// the benchmark's `serve` workload (2 connections) it sustains ~110k
    /// light requests/s against the reactor's ~75k. Two threads per
    /// client is also its limit: a 10,000-connection soak exhausts the
    /// process's threads.
    #[default]
    Threaded,
    /// A single epoll event loop multiplexing every connection on
    /// nonblocking sockets ([`crate::reactor`]); solver threads hand
    /// completions back through an eventfd-woken hub. Holds 10,000
    /// connections with every request answered, and peaks ~15 MB lower
    /// than threaded on the `serve` workload; but every reply crosses
    /// the one loop thread, which is what holds it to ~75k requests/s
    /// when only two connections carry the load.
    Reactor,
}

impl std::str::FromStr for Frontend {
    type Err = String;

    fn from_str(s: &str) -> Result<Frontend, String> {
        match s {
            "threaded" => Ok(Frontend::Threaded),
            "reactor" => Ok(Frontend::Reactor),
            other => Err(format!(
                "unknown frontend '{other}' (expected 'threaded' or 'reactor')"
            )),
        }
    }
}

/// Tuning knobs of [`serve`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Connection frontend. Default [`Frontend::Threaded`], the faster
    /// one at the connection counts the benchmark and the CLI examples
    /// use; set [`Frontend::Reactor`] when thousands of clients connect
    /// (see [`Frontend`] for the measurements behind both statements).
    pub frontend: Frontend,
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
    /// When set, `load` requests factorize on this multi-process backend
    /// instead of in-process threads. The CLI passes the `xgs-fleet`
    /// supervisor here: one persistent warm fleet across every `load`,
    /// instead of paying a fresh fleet spawn per factorization.
    pub shard: Option<Arc<dyn ShardBackend>>,
    /// Reactor only: per-connection outbound queue cap in bytes. A client
    /// that stops reading while responses accumulate past this budget has
    /// its socket closed (the threaded frontend's `WRITE_TIMEOUT`
    /// equivalent — there a blocked writer thread absorbs the backpressure,
    /// here the buffer is explicit and must be bounded).
    pub max_conn_outbound: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            frontend: Frontend::Threaded,
            solvers: 2,
            max_batch_points: 4096,
            max_queued_points: 1 << 16,
            shard: None,
            max_conn_outbound: 8 << 20,
        }
    }
}

/// How long connection handlers block on a read before re-checking the
/// shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// Writer-side guard against clients that stop reading (slow loris on the
/// response path): a blocked write fails after this long and the writer
/// switches to draining without the socket.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

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
/// Reactor-frontend runs additionally export count-only kinds:
/// `ready_event` (epoll readiness events processed), `wakeup` (eventfd
/// notifies from solver completions), `partial_write` (flushes that hit
/// `EAGAIN` with bytes still queued), `open_conns_hwm` (high-water mark of
/// concurrently open connections). All four stay zero — and are therefore
/// omitted from the report — under the threaded frontend.
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
    /// census. Called by the threaded writer loop and the reactor's
    /// completion drain — the two places replies funnel through.
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
    pub(crate) open_conns: AtomicUsize,
    pub(crate) metrics: Mutex<ServerMetrics>,
    max_batch_points: usize,
    /// Engine for `load`-request factorizations (sharded when configured).
    load_engine: FactorEngine,
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
    acceptor: Option<JoinHandle<()>>,
    solvers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// Actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the server metrics as the shared JSON schema.
    pub fn metrics_json(&self) -> String {
        self.shared.report().to_json()
    }

    /// Raise the shutdown flag (idempotent, non-blocking). In-flight
    /// requests still complete; use [`ServerHandle::join`] to wait.
    pub fn shutdown(&self) {
        request_shutdown(&self.shared, self.addr);
    }

    /// Wait for the full drain: acceptor gone, every connection closed,
    /// queue empty, solvers exited. Returns the final metrics report.
    pub fn join(mut self) -> MetricsReport {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // Handlers finish their in-flight request and exit within one
        // read-poll interval of the flag rising; their enqueued jobs must
        // stay servable until then (a handler only counts as closed after
        // its writer flushed every owed response), so the queue closes
        // only after the last connection is gone.
        while self.shared.open_conns.load(Ordering::Acquire) > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.shared.queue.close();
        for s in self.solvers.drain(..) {
            let _ = s.join();
        }
        self.shared.report()
    }
}

pub(crate) fn request_shutdown(shared: &Shared, addr: SocketAddr) {
    if !shared.shutdown.swap(true, Ordering::SeqCst) {
        // Unblock the acceptor's blocking accept().
        let _ = TcpStream::connect(addr);
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
        open_conns: AtomicUsize::new(0),
        metrics: Mutex::new(ServerMetrics::new(solvers)),
        max_batch_points: config.max_batch_points.max(1),
        load_engine: match &config.shard {
            Some(backend) => FactorEngine::Sharded(backend.clone()),
            None => FactorEngine::from_workers(0),
        },
    });

    let mut solver_handles = Vec::with_capacity(solvers);
    for id in 0..solvers {
        let shared = shared.clone();
        solver_handles.push(std::thread::spawn(move || solver_loop(&shared, id)));
    }

    // Both frontends park their I/O thread in the `acceptor` slot; `join`
    // does not care which one it is (reactor exit implies every connection
    // drained, same as the acceptor + open_conns handshake).
    let acceptor = match config.frontend {
        Frontend::Threaded => {
            let shared = shared.clone();
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let shared = shared.clone();
                    shared.open_conns.fetch_add(1, Ordering::AcqRel);
                    std::thread::spawn(move || {
                        handle_connection(&shared, stream, addr);
                        shared.open_conns.fetch_sub(1, Ordering::AcqRel);
                    });
                }
            })
        }
        Frontend::Reactor => {
            let reactor = crate::reactor::Reactor::bind(shared.clone(), listener, addr, config)?;
            std::thread::spawn(move || reactor.run())
        }
    };

    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
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

/// Outcome of one bounded line read.
enum LineRead {
    /// A complete line is in the buffer (newline stripped).
    Line,
    /// Clean end of stream, or shutdown/socket error — close silently.
    Closed,
    /// The line exceeded [`MAX_LINE_BYTES`] before a newline arrived.
    TooLong,
}

/// Read one newline-terminated line into `buf` without ever holding more
/// than [`MAX_LINE_BYTES`] + one `BufReader` block. Spins on the read
/// timeout so shutdown is observed mid-line too.
fn read_bounded_line(
    shared: &Shared,
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
) -> LineRead {
    loop {
        enum Step {
            Consumed(usize),
            Done(usize, LineRead),
        }
        let step = match reader.fill_buf() {
            Ok([]) => return LineRead::Closed,
            Ok(available) => match available.iter().position(|&b| b == b'\n') {
                Some(pos) if buf.len() + pos > MAX_LINE_BYTES => {
                    Step::Done(pos + 1, LineRead::TooLong)
                }
                Some(pos) => {
                    buf.extend_from_slice(&available[..pos]);
                    Step::Done(pos + 1, LineRead::Line)
                }
                None if buf.len() + available.len() > MAX_LINE_BYTES => {
                    Step::Done(available.len(), LineRead::TooLong)
                }
                None => {
                    buf.extend_from_slice(available);
                    Step::Consumed(available.len())
                }
            },
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Timed out mid-line: bytes read so far stay in `buf`.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return LineRead::Closed;
                }
                continue;
            }
            Err(_) => return LineRead::Closed,
        };
        match step {
            Step::Consumed(n) => reader.consume(n),
            Step::Done(n, result) => {
                reader.consume(n);
                return result;
            }
        }
    }
}

/// Consume and drop input until the current line ends, the peer hangs up,
/// or a patience budget runs out. Used before closing on an oversized
/// line; never buffers what it reads.
fn discard_rest_of_line(reader: &mut BufReader<TcpStream>) {
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(5) {
        match reader.fill_buf() {
            Ok([]) => return,
            Ok(available) => {
                let newline = available.iter().position(|&b| b == b'\n');
                let n = newline.map_or(available.len(), |p| p + 1);
                reader.consume(n);
                if newline.is_some() {
                    return;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => return,
        }
    }
}

/// Drain the response channel onto the socket, recording each response's
/// end-to-end latency. Runs until every sender (the handler plus any
/// still-queued jobs) is gone, so joining the writer proves the connection
/// is owed nothing.
fn writer_loop(shared: &Shared, mut stream: TcpStream, rx: mpsc::Receiver<Reply>) {
    let mut socket_dead = false;
    for reply in rx {
        shared
            .metrics
            .lock()
            .record_reply(reply.t0.elapsed().as_secs_f64(), reply.err);
        if !socket_dead
            && stream
                .write_all(reply.line.as_bytes())
                .and_then(|_| stream.write_all(b"\n"))
                .is_err()
        {
            // Client hung up (or stopped reading past the write timeout):
            // keep draining so queued jobs are still accounted for and
            // their responders never block.
            socket_dead = true;
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream, addr: SocketAddr) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<Reply>();
    let writer_thread = {
        let shared = shared.clone();
        std::thread::spawn(move || writer_loop(&shared, writer, rx))
    };
    let sink = ReplySink::Thread(tx.clone());
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        match read_bounded_line(shared, &mut reader, &mut buf) {
            LineRead::Closed => break,
            LineRead::TooLong => {
                // One error, then hang up: the line has no parseable
                // request (and possibly no end).
                let _ = tx.send(Reply {
                    line: error_response(&format!("request line exceeds {MAX_LINE_BYTES} bytes")),
                    t0: Instant::now(),
                    err: true,
                });
                // Closing with unread bytes in the receive queue would turn
                // the close into a reset that can destroy the error response
                // in flight. Discard the rest of the line (O(1) memory,
                // bounded time) so the close is a clean FIN.
                discard_rest_of_line(&mut reader);
                break;
            }
            LineRead::Line => {}
        }
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        // Invalid UTF-8 (binary garbage) turns into replacement characters
        // that fail JSON parsing — answered as a bad request, not a crash.
        let line = String::from_utf8_lossy(&buf);
        if line.trim().is_empty() {
            continue;
        }
        handle_request(shared, &line, addr, Instant::now(), &sink);
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
    // Joining the writer keeps the connection "open" (for the drain
    // accounting) until every response it is owed has been flushed. Both
    // sender handles must drop first — the writer drains until the last
    // one (here or inside a still-queued job's responder) is gone.
    drop(sink);
    drop(tx);
    let _ = writer_thread.join();
}

fn send_reply(sink: &ReplySink, id: Option<&str>, body: String, t0: Instant, err: bool) {
    sink.send(Reply {
        line: with_id(id, body),
        t0,
        err,
    });
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

/// Parse and dispatch one request line, routing the response (or the
/// eventual solver response) through `sink`. Frontend-agnostic: the
/// threaded frontend calls this from the connection's handler thread, the
/// reactor from the event loop. The one asymmetry is `load` — a
/// factorization blocks for seconds, which a handler thread can afford but
/// the event loop cannot, so under a reactor sink it runs on a spawned
/// thread that answers through its own sink clone.
pub(crate) fn handle_request(
    shared: &Arc<Shared>,
    line: &str,
    addr: SocketAddr,
    t0: Instant,
    sink: &ReplySink,
) {
    let envelope = match parse_request(line) {
        Ok(e) => e,
        Err(f) => {
            send_reply(sink, f.id.as_deref(), error_response(&f.error), t0, true);
            return;
        }
    };
    let id = envelope.id;
    match envelope.req {
        Request::Ping => {
            let up = shared.metrics.lock().started.elapsed().as_secs_f64();
            send_reply(
                sink,
                id.as_deref(),
                format!("{{\"ok\":true,\"uptime_seconds\":{up}}}"),
                t0,
                false,
            );
        }
        Request::Models => send_reply(
            sink,
            id.as_deref(),
            models_response(&shared.registry.list()),
            t0,
            false,
        ),
        Request::Metrics => send_reply(
            sink,
            id.as_deref(),
            format!("{{\"ok\":true,\"metrics\":{}}}", shared.report().to_json()),
            t0,
            false,
        ),
        Request::Shutdown => {
            request_shutdown(shared, addr);
            send_reply(
                sink,
                id.as_deref(),
                "{\"ok\":true,\"draining\":true}".to_string(),
                t0,
                false,
            );
        }
        Request::Load(load) => {
            let shared = shared.clone();
            // A factorization blocks for seconds; the event loop must not.
            // The reactor sink keeps the connection's pending count raised
            // until the spawned load answers, so the drain invariant is
            // unaffected by the thread hop.
            let spawn = matches!(sink, ReplySink::Reactor { .. });
            let sink = sink.clone();
            let run_load = move || {
                let t_load = Instant::now();
                match build_plan_from_request(&load, &shared.load_engine) {
                    Ok((plan, llh)) => {
                        let n = plan.n_train();
                        shared.registry.insert(&load.name, plan);
                        shared
                            .metrics
                            .lock()
                            .load
                            .record(t_load.elapsed().as_secs_f64());
                        send_reply(
                            &sink,
                            id.as_deref(),
                            load_response(&load.name, n, llh),
                            t0,
                            false,
                        );
                    }
                    Err(e) => send_reply(&sink, id.as_deref(), error_response(&e), t0, true),
                }
            };
            if spawn {
                std::thread::spawn(run_load);
            } else {
                run_load();
            }
        }
        Request::Predict(p) => {
            let Some(plan) = shared.registry.get(&p.model) else {
                let msg = format!("unknown model '{}'", p.model);
                send_reply(sink, id.as_deref(), error_response(&msg), t0, true);
                return;
            };
            let deadline = p.deadline_ms.map(|ms| t0 + Duration::from_millis(ms));
            let job = Job {
                model: p.model,
                plan,
                points: p.points,
                uncertainty: p.uncertainty,
                enqueued: Instant::now(),
                deadline,
                resp: Responder {
                    id,
                    tx: sink.clone(),
                    t0,
                },
            };
            // Accepted jobs are answered by a solver through the writer
            // channel; refused jobs are answered right here. Either way
            // exactly one response goes out.
            match shared.queue.push(job) {
                Ok(()) => {}
                Err((job, PushError::Overloaded { queued_points })) => {
                    let retry = {
                        let mut m = shared.metrics.lock();
                        let retry = retry_after_ms(&m, queued_points);
                        m.shed.record(retry as f64 * 1e-3);
                        retry
                    };
                    job.resp.send(shed_response(retry), true);
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
    }
}
