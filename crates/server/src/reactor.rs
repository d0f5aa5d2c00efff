//! The server's one frontend: every connection multiplexed from one epoll
//! event loop.
//!
//! One thread owns the listener and all connection sockets (nonblocking),
//! parked in `epoll_wait` via the `polling` shim. Readiness events drive
//! bounded line-buffered reads, request dispatch through
//! `handle_request`, and per-connection outbound queues drained on
//! writability. Solver and `load` threads never touch a socket: a finished
//! `Reply` goes to the `CompletionHub`, which wakes the loop through
//! the poller's eventfd; the loop drains the hub, records latency, queues
//! the bytes on the owning connections, and flushes each connection it
//! touched once — a pipelining client's replies leave in one `write`, not
//! one per reply.
//!
//! The service's invariants, as event bookkeeping:
//!
//! * **Every accepted request is answered** — each dispatched line bumps
//!   the connection's `pending` count; every hub reply decrements it; a
//!   connection is reaped only at `pending == 0` with its outbound queue
//!   flushed (or its socket dead — then replies are still drained and
//!   recorded). The loop returns only when the shutdown flag is up and no
//!   connection is left, so its thread's exit *is* the drain.
//! * **Bounded buffers** — inbound partial lines are capped at
//!   [`MAX_LINE_BYTES`]; the outbound queue is capped at
//!   [`ServerConfig::max_conn_outbound`], past which the socket of a
//!   client that stopped reading is closed instead of buffering forever.
//! * **Clean close after an oversized line** — one error response, then
//!   inbound bytes are discarded until the newline (with bounded
//!   patience) so the close is a FIN, not a RST that could destroy the
//!   error response in flight.
//!
//! Health counters (`ready_event`, `wakeup`, `partial_write`,
//! `open_conns_hwm`) are flushed into
//! `server::ServerMetrics` once per loop
//! iteration; see the metrics docs in `server.rs`.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use polling::{Event, Events, Poller};

use crate::batch::{Reply, Responder};
use crate::protocol::Response;
use crate::server::{handle_request, ServerConfig, Shared, MAX_LINE_BYTES};

/// Poll key of the listening socket; connections get keys from 1 up.
const LISTENER_KEY: usize = 0;

/// Upper bound on one `epoll_wait` nap, so `reap` meets its discard
/// deadlines without a socket event. Completions and shutdown do not wait
/// for it: both wake the loop through the hub.
const WAIT_TIMEOUT: Duration = Duration::from_millis(50);

/// Read syscall granularity. Level-triggered polling re-reports leftover
/// bytes, so this bounds per-call work, not throughput.
const READ_CHUNK: usize = 64 * 1024;

/// Fairness bound: how much one connection may consume per readiness
/// event before the loop moves on. A pipelined firehose (a client
/// writing faster than its replies drain) would otherwise pin the loop
/// inside its read burst, starving completion draining — and with it the
/// outbound-cap check that protects the server from clients that never
/// read. Level-triggered polling re-reports the leftover immediately.
const READ_BUDGET: usize = 4 * READ_CHUNK;

/// How long a connection may dribble out an oversized line before the
/// reactor stops waiting for the newline and closes anyway.
const DISCARD_PATIENCE: Duration = Duration::from_secs(5);

/// Where solver threads (and spawned `load` threads) hand finished
/// replies back to the event loop, each under its connection's poll key.
/// `push` and `wake` are called from any thread; `drain` only from the
/// reactor (and unit tests standing in for it).
pub(crate) struct CompletionHub {
    done: Mutex<Vec<(usize, Reply)>>,
    poller: Poller,
    /// eventfd notifies issued (the `wakeup` metric). Only the
    /// empty→nonempty transition notifies, so a burst of completions
    /// between two loop iterations costs one wakeup.
    notifies: AtomicU64,
    /// Key of this hub's edge in the runtime race checker: a push is a
    /// release, a drain an acquire, so everything a solver thread did
    /// before handing a reply over happens-before the reactor using it.
    race_key: u64,
}

impl CompletionHub {
    pub(crate) fn new() -> std::io::Result<Arc<CompletionHub>> {
        Ok(Arc::new(CompletionHub {
            done: Mutex::new(Vec::new()),
            poller: Poller::new()?,
            notifies: AtomicU64::new(0),
            race_key: xgs_runtime::race::new_scope(),
        }))
    }

    /// Interrupt the loop's `epoll_wait` with nothing to drain (the
    /// shutdown flag rose).
    pub(crate) fn wake(&self) {
        let _ = self.poller.notify();
    }

    pub(crate) fn push(&self, conn: usize, reply: Reply) {
        let was_empty = {
            let mut q = self.done.lock();
            let was_empty = q.is_empty();
            q.push((conn, reply));
            was_empty
        };
        xgs_runtime::race::release(xgs_runtime::race::SPACE_HUB, self.race_key, 0);
        if was_empty {
            self.notifies.fetch_add(1, Ordering::Relaxed);
            self.wake();
        }
    }

    pub(crate) fn drain(&self) -> Vec<(usize, Reply)> {
        xgs_runtime::race::acquire(xgs_runtime::race::SPACE_HUB, self.race_key, 0);
        std::mem::take(&mut *self.done.lock())
    }
}

/// Per-connection state. The socket stays registered for readability
/// while the connection accepts input; write interest is raised only
/// while the outbound queue holds bytes.
struct Conn {
    stream: TcpStream,
    /// Bytes of the current (incomplete) inbound line.
    inbuf: Vec<u8>,
    /// Outbound bytes not yet written; `out_head` marks the flushed
    /// prefix (drained in place, compacted when empty).
    out: Vec<u8>,
    out_head: usize,
    /// Requests dispatched but not yet answered through the hub.
    pending: usize,
    /// Dropping inbound bytes until end-of-line (after an oversized
    /// line), with the deadline after which patience runs out.
    discarding: Option<Instant>,
    /// No more input will be processed; close once `pending` and `out`
    /// drain (oversized line handled, or server shutting down).
    draining: bool,
    /// Peer sent FIN. Responses may still be owed (half-close).
    peer_eof: bool,
    /// Socket unusable (I/O error or outbound cap breach): no reads, no
    /// writes, but the entry survives until `pending` drains so every
    /// accepted request is still recorded.
    dead: bool,
    /// Interest currently registered with the poller, to skip redundant
    /// `epoll_ctl` calls.
    interest: (bool, bool),
}

impl Conn {
    fn unsent(&self) -> usize {
        self.out.len() - self.out_head
    }
}

/// The event loop. Built on the `serve` thread (so register errors
/// surface from [`crate::serve`]), then moved into its own thread.
pub(crate) struct Reactor {
    shared: Arc<Shared>,
    listener: TcpListener,
    hub: Arc<CompletionHub>,
    max_conn_outbound: usize,
    conns: HashMap<usize, Conn>,
    next_key: usize,
    accepting: bool,
    /// Local counter deltas, flushed to `ServerMetrics` once per iteration.
    ready_events: u64,
    partial_writes: u64,
    conns_hwm: u64,
    /// High-water mark already published to the metrics.
    hwm_published: u64,
}

impl Reactor {
    pub(crate) fn bind(
        shared: Arc<Shared>,
        listener: TcpListener,
        config: &ServerConfig,
    ) -> std::io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let hub = shared.hub.clone();
        hub.poller.add(&listener, Event::readable(LISTENER_KEY))?;
        Ok(Reactor {
            shared,
            listener,
            hub,
            max_conn_outbound: config.max_conn_outbound.max(1),
            conns: HashMap::new(),
            next_key: LISTENER_KEY + 1,
            accepting: true,
            ready_events: 0,
            partial_writes: 0,
            conns_hwm: 0,
            hwm_published: 0,
        })
    }

    /// The event loop. Returns after shutdown once every connection has
    /// drained, which is what [`crate::ServerHandle::join`] waits for.
    pub(crate) fn run(mut self) {
        let mut events = Events::new();
        let mut chunk = vec![0u8; READ_CHUNK];
        loop {
            match self.hub.poller.wait(&mut events, Some(WAIT_TIMEOUT)) {
                Ok(_) => {}
                Err(_) => {
                    // epoll itself failing is unrecoverable; drain what we
                    // can and exit rather than spin.
                    self.shared.shutdown.store(true, Ordering::SeqCst);
                }
            }
            self.ready_events += events.len() as u64;
            let shutting_down = self.shared.shutdown.load(Ordering::SeqCst);
            if shutting_down && self.accepting {
                self.accepting = false;
                let _ = self.hub.poller.delete(&self.listener);
            }

            for ev in events.iter() {
                if ev.key == LISTENER_KEY {
                    if self.accepting {
                        self.accept_ready();
                    }
                    continue;
                }
                if ev.readable {
                    self.read_ready(ev.key, &mut chunk);
                }
                if ev.writable {
                    self.write_ready(ev.key);
                }
            }

            self.drain_completions();

            if shutting_down {
                for conn in self.conns.values_mut() {
                    conn.draining = true;
                    conn.inbuf.clear();
                }
            }
            self.reap();
            self.flush_counters();
            if shutting_down && self.conns.is_empty() {
                return;
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let key = self.next_key;
                    self.next_key += 1;
                    if self.hub.poller.add(&stream, Event::readable(key)).is_err() {
                        continue;
                    }
                    self.conns.insert(
                        key,
                        Conn {
                            stream,
                            inbuf: Vec::new(),
                            out: Vec::new(),
                            out_head: 0,
                            pending: 0,
                            discarding: None,
                            draining: false,
                            peer_eof: false,
                            dead: false,
                            interest: (true, false),
                        },
                    );
                    self.conns_hwm = self.conns_hwm.max(self.conns.len() as u64);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // EMFILE/ENFILE or a connection that died in the backlog:
                // skip it; the listener stays registered, so later
                // connects still get their chance. The short sleep keeps a
                // persistently-failing accept (fd exhaustion) from turning
                // the level-triggered listener event into a busy spin.
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(1));
                    return;
                }
            }
        }
    }

    fn read_ready(&mut self, key: usize, chunk: &mut [u8]) {
        let mut consumed = 0usize;
        while consumed < READ_BUDGET {
            let result = {
                let Some(conn) = self.conns.get_mut(&key) else {
                    return;
                };
                if conn.dead || conn.draining || conn.peer_eof {
                    return;
                }
                conn.stream.read(chunk)
            };
            match result {
                Ok(0) => {
                    if let Some(conn) = self.conns.get_mut(&key) {
                        conn.peer_eof = true;
                        // A partial line at FIN has no newline and never
                        // will: dropped.
                        conn.inbuf.clear();
                        self.update_interest(key);
                    }
                    return;
                }
                Ok(n) => {
                    consumed += n;
                    if !self.ingest(key, n, chunk) {
                        self.update_interest(key);
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.kill(key);
                    return;
                }
            }
        }
    }

    /// Split `chunk[..n]` into lines, honoring discard mode and the line
    /// cap, and dispatch each complete line. Returns whether the caller
    /// should keep reading this socket.
    fn ingest(&mut self, key: usize, n: usize, chunk: &[u8]) -> bool {
        let mut start = 0;
        while start < n {
            let Some(conn) = self.conns.get_mut(&key) else {
                return false;
            };
            if conn.draining || conn.dead {
                return false;
            }
            let rel = chunk[start..n].iter().position(|&b| b == b'\n');
            if conn.discarding.is_some() {
                match rel {
                    Some(_) => {
                        // Oversized line fully consumed: now the close is
                        // a clean FIN.
                        conn.discarding = None;
                        conn.draining = true;
                        return false;
                    }
                    None => return true,
                }
            }
            match rel {
                Some(p) => {
                    if conn.inbuf.len() + p > MAX_LINE_BYTES {
                        self.reject_oversized(key);
                        // The newline is already here; no discard phase.
                        if let Some(c) = self.conns.get_mut(&key) {
                            c.discarding = None;
                            c.draining = true;
                        }
                        return false;
                    }
                    let mut line = std::mem::take(&mut conn.inbuf);
                    line.extend_from_slice(&chunk[start..start + p]);
                    start += p + 1;
                    self.dispatch_line(key, &line);
                }
                None => {
                    let tail = &chunk[start..n];
                    if conn.inbuf.len() + tail.len() > MAX_LINE_BYTES {
                        self.reject_oversized(key);
                        return true;
                    }
                    conn.inbuf.extend_from_slice(tail);
                    return true;
                }
            }
        }
        true
    }

    /// One error response, then discard-to-EOL mode (bounded patience).
    fn reject_oversized(&mut self, key: usize) {
        if let Some(conn) = self.conns.get_mut(&key) {
            conn.pending += 1;
            conn.inbuf = Vec::new();
            conn.discarding = Some(Instant::now() + DISCARD_PATIENCE);
        }
        let responder = Responder {
            id: None,
            hub: self.hub.clone(),
            conn: key,
            t0: Instant::now(),
        };
        responder.send(Response::Error(&format!(
            "request line exceeds {MAX_LINE_BYTES} bytes"
        )));
    }

    fn dispatch_line(&mut self, key: usize, raw: &[u8]) {
        let mut raw = raw;
        if raw.last() == Some(&b'\r') {
            raw = &raw[..raw.len() - 1];
        }
        // Invalid UTF-8 (binary garbage) becomes replacement characters
        // that fail JSON parsing — a bad request, not a crash.
        let line = String::from_utf8_lossy(raw);
        if line.trim().is_empty() {
            return;
        }
        if let Some(conn) = self.conns.get_mut(&key) {
            conn.pending += 1;
        }
        handle_request(&self.shared, &line, Instant::now(), key);
    }

    /// Move hub completions onto their connections' outbound queues,
    /// recording latency and the error census for every reply — including
    /// replies whose connection died — then flush each connection that
    /// got bytes, once.
    fn drain_completions(&mut self) {
        let replies = self.hub.drain();
        if replies.is_empty() {
            return;
        }
        {
            let mut m = self.shared.metrics.lock();
            for (_, reply) in &replies {
                m.record_reply(reply.t0.elapsed().as_secs_f64(), reply.err);
            }
        }
        let mut touched: Vec<usize> = Vec::new();
        for (key, reply) in replies {
            let Some(conn) = self.conns.get_mut(&key) else {
                continue;
            };
            conn.pending = conn.pending.saturating_sub(1);
            if conn.dead {
                continue;
            }
            conn.out.reserve(reply.line.len() + 1);
            conn.out.extend_from_slice(reply.line.as_bytes());
            conn.out.push(b'\n');
            if conn.unsent() <= self.max_conn_outbound {
                touched.push(key);
                continue;
            }
            // Over the cap: the socket has its say before the verdict, so
            // the cap measures what the client left unread, not how many
            // replies one drain happened to carry.
            self.write_ready(key);
            if self
                .conns
                .get(&key)
                .is_some_and(|c| !c.dead && c.unsent() > self.max_conn_outbound)
            {
                // The client stopped reading; responses are piling up.
                // Cut the socket instead of buffering unboundedly.
                self.kill(key);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for key in touched {
            self.write_ready(key);
        }
    }

    /// Flush as much of the outbound queue as the socket accepts, then
    /// set write interest iff bytes remain.
    fn write_ready(&mut self, key: usize) {
        let mut died = false;
        let mut partial = false;
        {
            let Some(conn) = self.conns.get_mut(&key) else {
                return;
            };
            if conn.dead {
                return;
            }
            while conn.out_head < conn.out.len() {
                match conn.stream.write(&conn.out[conn.out_head..]) {
                    Ok(0) => {
                        died = true;
                        break;
                    }
                    Ok(n) => conn.out_head += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        partial = true;
                        break;
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        died = true;
                        break;
                    }
                }
            }
            if conn.out_head == conn.out.len() {
                conn.out.clear();
                conn.out_head = 0;
            }
        }
        if partial {
            self.partial_writes += 1;
        }
        if died {
            self.kill(key);
            return;
        }
        self.update_interest(key);
    }

    /// Reconcile the poller registration with what the connection can
    /// still do: read while input is accepted, write while bytes wait.
    fn update_interest(&mut self, key: usize) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        if conn.dead {
            return;
        }
        let want = (!(conn.peer_eof || conn.draining), conn.unsent() > 0);
        if want == conn.interest {
            return;
        }
        let ev = Event {
            key,
            readable: want.0,
            writable: want.1,
        };
        if self.hub.poller.modify(&conn.stream, ev).is_ok() {
            conn.interest = want;
        }
    }

    /// Tear the socket down now (error or outbound-cap breach) but keep
    /// the entry for reply accounting until `pending` drains.
    fn kill(&mut self, key: usize) {
        if let Some(conn) = self.conns.get_mut(&key) {
            if !conn.dead {
                conn.dead = true;
                let _ = self.hub.poller.delete(&conn.stream);
                let _ = conn.stream.shutdown(Shutdown::Both);
                conn.out.clear();
                conn.out_head = 0;
                conn.inbuf.clear();
            }
        }
    }

    /// Close every connection that is owed nothing: responses flushed,
    /// no pending requests, and either the peer is gone, the connection
    /// is draining, or the socket already died.
    fn reap(&mut self) {
        let now = Instant::now();
        let mut closing: Vec<usize> = Vec::new();
        for (&key, conn) in &mut self.conns {
            if let Some(deadline) = conn.discarding {
                if now >= deadline {
                    // Peer never finished its oversized line; stop waiting.
                    conn.discarding = None;
                    conn.draining = true;
                }
            }
            let flushed = conn.unsent() == 0;
            if conn.pending == 0 && (conn.dead || ((conn.peer_eof || conn.draining) && flushed)) {
                closing.push(key);
            }
        }
        for key in closing {
            if let Some(conn) = self.conns.remove(&key) {
                if !conn.dead {
                    let _ = self.hub.poller.delete(&conn.stream);
                }
            }
        }
        // Draining-but-not-closable conns may still need interest updates
        // (e.g. shutdown raised `draining` outside the read path).
        let keys: Vec<usize> = self.conns.keys().copied().collect();
        for key in keys {
            self.update_interest(key);
        }
    }

    /// Publish counter deltas into the shared metrics (once per loop
    /// iteration, and only when something changed).
    fn flush_counters(&mut self) {
        let wakeups = self.hub.notifies.swap(0, Ordering::Relaxed);
        if self.ready_events == 0
            && wakeups == 0
            && self.partial_writes == 0
            && self.conns_hwm <= self.hwm_published
        {
            return;
        }
        let mut m = self.shared.metrics.lock();
        m.reactor.ready_events += self.ready_events;
        m.reactor.wakeups += wakeups;
        m.reactor.partial_writes += self.partial_writes;
        m.reactor.conns_hwm = m.reactor.conns_hwm.max(self.conns_hwm);
        self.ready_events = 0;
        self.partial_writes = 0;
        self.hwm_published = self.conns_hwm;
    }
}
