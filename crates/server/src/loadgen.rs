//! Synthetic query-stream load generator for the prediction service.
//!
//! Replays a deterministic stream of predict requests against a running
//! server from `conns` connections, optionally throttled to a target
//! aggregate rate, and reports throughput plus latency percentiles. Every
//! request carries an `"id"` and each connection keeps up to
//! `concurrency_per_conn` requests in flight, correlating the server's
//! out-of-order responses by id — so the generator doubles as an exerciser
//! of the server's connection multiplexing.
//!
//! One thread drives every connection: nonblocking sockets multiplexed
//! through the same epoll shim the server's event loop uses, connected in
//! ramped batches. Connect failures (`EMFILE`, `ECONNREFUSED` from a full
//! backlog or a server still binding, timeouts) are counted and retried
//! until `connect_timeout` runs out, after which the slot's requests are
//! written off as errors — a run against 10k+ connections, or against no
//! server at all, reports instead of aborting.
//!
//! Every successful response's mean vector is folded into an
//! order-independent checksum (per-request FNV hashes combined with XOR),
//! so two runs with the same seed and `conns` against the same model must
//! produce the same checksum whatever the pipelining depth — the smoke
//! tests use this to prove that neither batching nor out-of-order
//! completion ever changes results.
//!
//! The generator never panics on server misbehaviour: refused (shed),
//! expired (deadline) and failed requests are counted separately and
//! `exageostat loadgen` turns unexpected ones into a nonzero exit. A reply that cannot
//! be attributed, or a reply line longer than four times the server's
//! [`MAX_LINE_BYTES`], fails its connection's remaining requests.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use polling::{Event, Events, Poller};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xgs_runtime::json::Writer;
use xgs_runtime::{parse_json, JsonValue};

use crate::server::MAX_LINE_BYTES;

/// Load-generation parameters.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:4741`.
    pub addr: String,
    /// Model name to query.
    pub model: String,
    /// Total predict requests across all connections.
    pub requests: usize,
    /// Concurrent connections, all held open until the run ends. Requests
    /// are split evenly; connections beyond the request count sit idle but
    /// open — the concurrency soak the server is gated on.
    pub conns: usize,
    /// Points per predict request.
    pub points: usize,
    /// Aggregate target rate, requests/second (0 = unthrottled). Request
    /// `i` of the stream is due `(i + 1) / rate` seconds after the start,
    /// so each connection sends `conns / rate` apart.
    pub rate: f64,
    /// Ask for kriging variance too.
    pub uncertainty: bool,
    /// Seed of the synthetic query stream.
    pub seed: u64,
    /// Query locations are uniform in `[0, domain]²`.
    pub domain: f64,
    /// How long to retry connecting (covers server startup).
    pub connect_timeout: Duration,
    /// Send `{"op":"shutdown"}` after the run (for scripted smoke tests).
    pub shutdown: bool,
    /// In-flight requests per connection (pipelining window, ≥ 1). Above 1
    /// the server may answer out of order; responses are matched by id.
    pub concurrency_per_conn: usize,
    /// Attach `"deadline_ms"` to every predict (0 = none).
    pub deadline_ms: u64,
    /// Overload drill: shed responses (`retry_after_ms`) are expected and
    /// do not fail the run.
    pub overload: bool,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            addr: "127.0.0.1:4741".to_string(),
            model: "default".to_string(),
            requests: 100,
            conns: 4,
            points: 8,
            rate: 0.0,
            uncertainty: false,
            seed: 1,
            domain: 1.0,
            connect_timeout: Duration::from_secs(10),
            shutdown: false,
            concurrency_per_conn: 1,
            deadline_ms: 0,
            overload: false,
        }
    }
}

/// Outcome of one load-generation run.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Requests answered `ok:true`.
    pub sent: usize,
    /// Hard failures: transport errors, disconnects, malformed or
    /// unclassifiable error responses, connections never established.
    pub errors: usize,
    /// Requests refused with a `retry_after_ms` hint (overload shedding).
    pub shed: usize,
    /// Requests answered with a deadline-exceeded error.
    pub expired: usize,
    /// Wall time of the request phase, seconds.
    pub elapsed: f64,
    /// Successful requests per second.
    pub throughput: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
    /// Order-independent checksum over all response means (and variances).
    pub checksum: u64,
    /// Failed connect attempts (each retried until the connect budget ran
    /// out).
    pub connect_failures: usize,
    /// Most connections simultaneously established.
    pub peak_conns: usize,
    /// The server's metrics document, fetched after the request phase.
    pub server_metrics: Option<JsonValue>,
}

impl LoadgenReport {
    /// Human-oriented multi-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{} requests in {:.2}s: {:.0} req/s | latency p50 {:.2} ms, p95 {:.2} ms, \
             p99 {:.2} ms, max {:.2} ms | {} errors, {} shed, {} expired | checksum {:016x} \
             | {} peak conns, {} connect retries",
            self.sent,
            self.elapsed,
            self.throughput,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.max_ms,
            self.errors,
            self.shed,
            self.expired,
            self.checksum,
            self.peak_conns,
            self.connect_failures
        )
    }

    /// Machine-readable dump; when the server metrics were fetched they are
    /// embedded verbatim under `"server"` (same schema as every other
    /// `--metrics` export, so `exageostat metrics-diff` can digest it).
    pub fn to_json(&self) -> String {
        let loadgen = JsonValue::object([
            ("sent", self.sent.into()),
            ("errors", self.errors.into()),
            ("shed", self.shed.into()),
            ("expired", self.expired.into()),
            ("elapsed_seconds", self.elapsed.into()),
            ("throughput_rps", self.throughput.into()),
            ("p50_ms", self.p50_ms.into()),
            ("p95_ms", self.p95_ms.into()),
            ("p99_ms", self.p99_ms.into()),
            ("max_ms", self.max_ms.into()),
            ("connect_failures", self.connect_failures.into()),
            ("peak_conns", self.peak_conns.into()),
            (
                "checksum",
                JsonValue::String(format!("{:016x}", self.checksum)),
            ),
        ]);
        match &self.server_metrics {
            Some(m) => JsonValue::object([("loadgen", loadgen), ("server", m.clone())]),
            None => JsonValue::object([("loadgen", loadgen)]),
        }
        .to_json_string()
    }
}

/// Connect, retrying until the server accepts (it may still be binding).
pub fn connect_with_retry(addr: &str, timeout: Duration) -> Result<TcpStream, String> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("could not connect to {addr}: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Longest reply line the generator buffers: four times the longest
/// request line the server accepts, ample for any predict reply (whose
/// bytes per point are about a request's) or metrics document. A longer
/// line fails its connection instead of growing a buffer without bound.
const MAX_REPLY_BYTES: usize = 4 * MAX_LINE_BYTES;

/// Connect attempts per ramp tick. Matched to typical listener backlogs so
/// a tick cannot by itself overflow the accept queue it is also racing the
/// server to drain.
const RAMP_BATCH: usize = 128;

/// Longest `epoll_wait` nap; it paces connect retries.
const MAX_WAIT: Duration = Duration::from_millis(20);

/// FNV-1a over the IEEE bits of a float sequence.
fn hash_bits(acc: u64, x: f64) -> u64 {
    (acc ^ x.to_bits()).wrapping_mul(0x100000001b3)
}

/// Request `seq` of a connection's stream, newline included.
fn build_request(cfg: &LoadgenConfig, rng: &mut StdRng, seq: usize) -> String {
    let mut w = Writer::new();
    w.begin_object();
    w.key("op").string("predict");
    w.key("id").u64(seq as u64);
    w.key("model").string(&cfg.model);
    w.key("points").begin_array();
    for _ in 0..cfg.points {
        let x = rng.random_range(0.0..cfg.domain);
        let y = rng.random_range(0.0..cfg.domain);
        w.begin_array().f64(x).f64(y).end_array();
    }
    w.end_array();
    w.key("uncertainty").bool(cfg.uncertainty);
    if cfg.deadline_ms > 0 {
        w.key("deadline_ms").u64(cfg.deadline_ms);
    }
    w.end_object();
    w.finish() + "\n"
}

/// A request line that carries only its op.
fn op_line(op: &str) -> String {
    let mut w = Writer::new();
    w.begin_object().key("op").string(op).end_object();
    w.finish() + "\n"
}

/// The run's census, folded over every connection.
#[derive(Default)]
struct Tally {
    latencies_ms: Vec<f64>,
    errors: usize,
    shed: usize,
    expired: usize,
    checksum: u64,
}

impl Tally {
    /// Requests accounted for: every attributed response lands in exactly
    /// one bucket, and so does every request written off.
    fn settled(&self) -> usize {
        self.latencies_ms.len() + self.errors + self.shed + self.expired
    }

    /// Classify one attributed response (its send time already looked up)
    /// into the ok/shed/expired/error census, folding successful results
    /// into the latency list and checksum.
    fn record(&mut self, v: &JsonValue, t_send: Instant) {
        if v.get("ok").and_then(|o| o.as_bool()) == Some(true) {
            let mut h = 0xcbf29ce484222325u64;
            let mut numeric = true;
            for field in ["mean", "uncertainty"] {
                if let Some(values) = v.get(field).and_then(|m| m.as_array()) {
                    for x in values {
                        match x.as_f64() {
                            Some(f) => h = hash_bits(h, f),
                            None => numeric = false,
                        }
                    }
                }
            }
            if numeric {
                self.latencies_ms.push(t_send.elapsed().as_secs_f64() * 1e3);
                self.checksum ^= h;
            } else {
                self.errors += 1;
            }
        } else if v.get("retry_after_ms").is_some() {
            self.shed += 1;
        } else if v
            .get("error")
            .and_then(|e| e.as_str())
            .is_some_and(|e| e.contains("deadline"))
        {
            self.expired += 1;
        } else {
            self.errors += 1;
        }
    }
}

/// One reply line from a blocking stream, read through a
/// [`MAX_REPLY_BYTES`] cap; `None` on EOF, error, an over-long line or one
/// that is not JSON.
fn read_reply(reader: &mut impl BufRead) -> Option<JsonValue> {
    let mut line = Vec::new();
    reader
        .take(MAX_REPLY_BYTES as u64 + 1)
        .read_until(b'\n', &mut line)
        .ok()?;
    if line.pop() != Some(b'\n') {
        return None;
    }
    parse_json(std::str::from_utf8(&line).ok()?).ok()
}

/// Post-run control traffic on a fresh connection: fetch the server's
/// metrics export and, when configured, ask it to drain.
fn fetch_metrics_and_shutdown(cfg: &LoadgenConfig) -> Option<JsonValue> {
    let ctl = connect_with_retry(&cfg.addr, Duration::from_secs(2)).ok()?;
    let mut reader = BufReader::new(&ctl);
    let server_metrics = (&ctl)
        .write_all(op_line("metrics").as_bytes())
        .ok()
        .and_then(|()| read_reply(&mut reader))
        .and_then(|v| v.get("metrics").cloned());
    if cfg.shutdown {
        let _ = (&ctl).write_all(op_line("shutdown").as_bytes());
        let _ = read_reply(&mut reader);
    }
    server_metrics
}

/// Latency percentiles + report assembly.
fn build_report(
    cfg: &LoadgenConfig,
    mut tally: Tally,
    elapsed: f64,
    connect_failures: usize,
    peak_conns: usize,
) -> LoadgenReport {
    tally.latencies_ms.sort_by(f64::total_cmp);
    let latencies = &tally.latencies_ms;
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        latencies[((latencies.len() - 1) as f64 * p).round() as usize]
    };
    let server_metrics = fetch_metrics_and_shutdown(cfg);
    let sent = latencies.len();
    LoadgenReport {
        sent,
        errors: tally.errors,
        shed: tally.shed,
        expired: tally.expired,
        elapsed,
        throughput: if elapsed > 0.0 {
            sent as f64 / elapsed
        } else {
            0.0
        },
        p50_ms: pct(0.50),
        p95_ms: pct(0.95),
        p99_ms: pct(0.99),
        max_ms: latencies.last().copied().unwrap_or(0.0),
        checksum: tally.checksum,
        connect_failures,
        peak_conns,
        server_metrics,
    }
}

/// One connection: its slot's request stream, the request bytes not yet
/// written, and the send times of the requests in flight, keyed by id.
struct Conn {
    stream: TcpStream,
    /// Connection index: seeds the request stream and places it in the
    /// aggregate schedule.
    slot: usize,
    rng: StdRng,
    /// Requests this connection owes the run, built so far, and answered.
    share: usize,
    built: usize,
    answered: usize,
    /// Built request bytes; `out_head` marks the written prefix.
    out: Vec<u8>,
    out_head: usize,
    /// Bytes of the current (incomplete) reply line.
    rbuf: Vec<u8>,
    pending: HashMap<usize, Instant>,
    /// Write interest registered with the poller, so `epoll_ctl` runs
    /// only when it changes.
    writing: bool,
    /// A wake-up for the next due time sits in the timer heap.
    timed: bool,
}

impl Conn {
    /// Build every request the window and the clock allow now and write
    /// what the socket takes. Returns false when the socket died.
    fn pump(
        &mut self,
        cfg: &LoadgenConfig,
        t0: Instant,
        poller: &Poller,
        timers: &mut BinaryHeap<Reverse<(Instant, usize)>>,
    ) -> bool {
        let now = Instant::now();
        while self.built < self.share && self.pending.len() < cfg.concurrency_per_conn.max(1) {
            if cfg.rate > 0.0 {
                let i = self.built * cfg.conns.max(1) + self.slot;
                let due = t0 + Duration::from_secs_f64((i + 1) as f64 / cfg.rate);
                if due > now {
                    if !self.timed {
                        self.timed = true;
                        timers.push(Reverse((due, self.slot)));
                    }
                    break;
                }
            }
            let line = build_request(cfg, &mut self.rng, self.built);
            self.out.extend_from_slice(line.as_bytes());
            self.pending.insert(self.built, now);
            self.built += 1;
        }
        while self.out_head < self.out.len() {
            match self.stream.write(&self.out[self.out_head..]) {
                Ok(0) => return false,
                Ok(n) => self.out_head += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.out_head == self.out.len() {
            self.out.clear();
            self.out_head = 0;
        }
        let want = !self.out.is_empty();
        if want != self.writing {
            let ev = Event {
                key: self.slot,
                readable: true,
                writable: want,
            };
            if poller.modify(&self.stream, ev).is_err() {
                return false;
            }
            self.writing = want;
        }
        true
    }

    /// Read until the socket would block, recording every complete reply.
    /// Returns false when the connection failed: EOF, a socket error, a
    /// reply that is not JSON or names no request in flight, or a line
    /// past [`MAX_REPLY_BYTES`].
    fn receive(&mut self, chunk: &mut [u8], tally: &mut Tally) -> bool {
        loop {
            let n = match self.stream.read(chunk) {
                Ok(0) => return false,
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            };
            for piece in chunk[..n].split_inclusive(|&b| b == b'\n') {
                self.rbuf.extend_from_slice(piece);
                if self.rbuf.len() > MAX_REPLY_BYTES {
                    return false;
                }
                if self.rbuf.last() != Some(&b'\n') {
                    continue;
                }
                let reply = std::str::from_utf8(&self.rbuf[..self.rbuf.len() - 1])
                    .ok()
                    .and_then(|line| parse_json(line).ok());
                let sent_at = reply.as_ref().and_then(|v| {
                    let seq = v.get("id")?.as_usize()?;
                    self.pending.remove(&seq)
                });
                // A reply we cannot attribute means the stream is out of
                // sync: abandon the connection rather than guess.
                let (Some(v), Some(t_send)) = (reply, sent_at) else {
                    return false;
                };
                tally.record(&v, t_send);
                self.answered += 1;
                self.rbuf.clear();
            }
        }
    }
}

/// Run the full load-generation session: every connection multiplexed
/// from this thread through the `polling` epoll shim, mirroring the
/// server's event loop. `Err` only for an unresolvable address or an epoll
/// setup failure; an unreachable server is a report full of errors.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    let n_conns = cfg.conns.max(1);
    let addr: SocketAddr = cfg
        .addr
        .to_socket_addrs()
        .map_err(|e| format!("bad address {}: {e}", cfg.addr))?
        .next()
        .ok_or_else(|| format!("address {} resolved to nothing", cfg.addr))?;
    let poller = Poller::new().map_err(|e| format!("epoll setup failed: {e}"))?;
    let mut events = Events::new();
    let mut tally = Tally::default();
    let mut connect_failures = 0usize;
    let mut peak_conns = 0usize;

    // Slots still to connect and established connections, keyed by slot
    // (the poll key). The first `requests % conns` slots take one extra
    // request.
    let mut to_connect: VecDeque<usize> = (0..n_conns).collect();
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let share = |slot: usize| cfg.requests / n_conns + usize::from(slot < cfg.requests % n_conns);
    // Throttled connections waiting for their next due time.
    let mut timers: BinaryHeap<Reverse<(Instant, usize)>> = BinaryHeap::new();
    let mut ready: Vec<usize> = Vec::new();
    let mut dead: Vec<usize> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];

    let t0 = Instant::now();
    let connect_deadline = t0 + cfg.connect_timeout;
    while tally.settled() < cfg.requests || !to_connect.is_empty() {
        // Ramp: a bounded batch of connect attempts per iteration, each
        // failure counted and the slot requeued until the budget is spent;
        // then the slot's share is written off — report, don't abort.
        for _ in 0..RAMP_BATCH.min(to_connect.len()) {
            let Some(slot) = to_connect.pop_front() else {
                break;
            };
            let opened = TcpStream::connect_timeout(&addr, Duration::from_millis(250))
                .ok()
                .filter(|s| s.set_nonblocking(true).is_ok())
                .filter(|s| poller.add(s, Event::readable(slot)).is_ok());
            let Some(stream) = opened else {
                connect_failures += 1;
                if Instant::now() >= connect_deadline {
                    tally.errors += share(slot);
                } else {
                    to_connect.push_back(slot);
                }
                continue;
            };
            let _ = stream.set_nodelay(true);
            let conn = Conn {
                stream,
                slot,
                rng: StdRng::seed_from_u64(cfg.seed.wrapping_add(7919 * slot as u64)),
                share: share(slot),
                built: 0,
                answered: 0,
                out: Vec::new(),
                out_head: 0,
                rbuf: Vec::new(),
                pending: HashMap::new(),
                writing: false,
                timed: false,
            };
            conns.insert(slot, conn);
            peak_conns = peak_conns.max(conns.len());
            ready.push(slot);
        }
        let now = Instant::now();
        while let Some(&Reverse((due, slot))) = timers.peek() {
            if due > now {
                break;
            }
            timers.pop();
            if let Some(conn) = conns.get_mut(&slot) {
                conn.timed = false;
                ready.push(slot);
            }
        }
        for slot in ready.drain(..) {
            if conns
                .get_mut(&slot)
                .is_some_and(|c| !c.pump(cfg, t0, &poller, &mut timers))
            {
                dead.push(slot);
            }
        }

        let wait = timers.peek().map_or(MAX_WAIT, |Reverse((due, _))| {
            due.saturating_duration_since(Instant::now()).min(MAX_WAIT)
        });
        let _ = poller.wait(&mut events, Some(wait));
        for ev in events.iter() {
            let Some(conn) = conns.get_mut(&ev.key) else {
                continue;
            };
            let alive = (!ev.readable || conn.receive(&mut chunk, &mut tally))
                && conn.pump(cfg, t0, &poller, &mut timers);
            if !alive {
                dead.push(ev.key);
            }
        }
        for slot in dead.drain(..) {
            if let Some(conn) = conns.remove(&slot) {
                let _ = poller.delete(&conn.stream);
                // Everything this connection still owed is an error.
                tally.errors += conn.share - conn.answered;
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    // Connections close here, en masse — the drain the reactor smoke
    // implicitly exercises.
    drop(conns);
    Ok(build_report(
        cfg,
        tally,
        elapsed,
        connect_failures,
        peak_conns,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_parseable() {
        let r = LoadgenReport {
            sent: 10,
            errors: 0,
            shed: 2,
            expired: 1,
            elapsed: 0.5,
            throughput: 20.0,
            p50_ms: 1.0,
            p95_ms: 2.0,
            p99_ms: 3.0,
            max_ms: 4.0,
            checksum: 0xdeadbeef,
            connect_failures: 3,
            peak_conns: 7,
            server_metrics: Some(parse_json("{\"tasks\":10}").unwrap()),
        };
        let v = parse_json(&r.to_json()).unwrap();
        assert_eq!(
            v.get("loadgen").unwrap().get("sent").unwrap().as_usize(),
            Some(10)
        );
        assert_eq!(
            v.get("loadgen").unwrap().get("shed").unwrap().as_usize(),
            Some(2)
        );
        assert_eq!(
            v.get("server").unwrap().get("tasks").unwrap().as_usize(),
            Some(10)
        );
        assert_eq!(
            v.get("loadgen")
                .unwrap()
                .get("connect_failures")
                .unwrap()
                .as_usize(),
            Some(3)
        );
        assert!(r.summary().contains("10 requests"));
        assert!(r.summary().contains("2 shed"));
        assert!(r.summary().contains("7 peak conns"));
    }

    #[test]
    fn report_json_keeps_its_bytes() {
        let r = LoadgenReport {
            sent: 10,
            errors: 1,
            shed: 2,
            expired: 1,
            elapsed: 0.5,
            throughput: 20.0,
            p50_ms: 1.25,
            p95_ms: 2.0,
            p99_ms: 3.0,
            max_ms: 4.0,
            checksum: 0xdeadbeef,
            connect_failures: 3,
            peak_conns: 7,
            server_metrics: Some(parse_json("{\"tasks\":10,\"w\":[1.5,null]}").unwrap()),
        };
        assert_eq!(
            r.to_json(),
            "{\"loadgen\":{\"checksum\":\"00000000deadbeef\",\"connect_failures\":3,\
             \"elapsed_seconds\":0.5,\"errors\":1,\"expired\":1,\"max_ms\":4,\"p50_ms\":1.25,\
             \"p95_ms\":2,\"p99_ms\":3,\"peak_conns\":7,\"sent\":10,\"shed\":2,\
             \"throughput_rps\":20},\"server\":{\"tasks\":10,\"w\":[1.5,null]}}"
        );
    }

    #[test]
    fn open_loop_counts_connect_failures_without_aborting() {
        // Nothing listens on port 1: every connect attempt fails. The run
        // must still return a report — failures counted, the whole request
        // budget written off as errors — rather than an Err or a panic.
        let cfg = LoadgenConfig {
            addr: "127.0.0.1:1".to_string(),
            requests: 6,
            conns: 3,
            connect_timeout: Duration::from_millis(150),
            ..LoadgenConfig::default()
        };
        let report = run(&cfg).expect("open loop reports instead of aborting");
        assert_eq!(report.sent, 0);
        assert_eq!(report.errors, 6);
        assert!(report.connect_failures >= 3, "{}", report.connect_failures);
        assert_eq!(report.peak_conns, 0);
    }

    #[test]
    fn reply_without_newline_fails_the_connection() {
        // A server that answers every connection with one endless line:
        // past MAX_REPLY_BYTES the connection's requests are written off
        // instead of buffered without bound, and the control connection's
        // capped read gives up the same way.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let spammer = std::thread::spawn(move || {
            // The request connection, then the metrics fetch.
            for stream in listener.incoming().take(2) {
                let mut stream = stream.unwrap();
                let junk = vec![b'x'; 64 * 1024];
                while stream.write_all(&junk).is_ok() {}
            }
        });
        let report = run(&LoadgenConfig {
            addr,
            requests: 3,
            conns: 1,
            connect_timeout: Duration::from_secs(5),
            ..LoadgenConfig::default()
        })
        .expect("a misbehaving server is reported, not an Err");
        assert_eq!((report.sent, report.errors), (0, 3), "{}", report.summary());
        assert!(report.server_metrics.is_none());
        spammer.join().unwrap();
    }

    #[test]
    fn window_holds_on_every_connection() {
        // A fake server that answers a connection only once it has gone
        // quiet for 20 ms: the largest burst it reads is what the client
        // keeps in flight. Connections are served one after the other;
        // the second one's window waits in its socket buffer meanwhile.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let mut widest = 0;
            for stream in listener.incoming().take(2) {
                let stream = stream.unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_millis(20)))
                    .unwrap();
                let mut reader = BufReader::new(&stream);
                let (mut answered, mut line) = (0, String::new());
                while answered < 6 {
                    let mut ids = Vec::new();
                    while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                        ids.push(parse_json(&line).unwrap().get("id").unwrap().as_usize());
                        line.clear();
                    }
                    widest = ids.len().max(widest);
                    for id in ids {
                        let reply = format!("{{\"ok\":true,\"id\":{},\"mean\":[]}}\n", id.unwrap());
                        (&stream).write_all(reply.as_bytes()).unwrap();
                        answered += 1;
                    }
                }
            }
            widest
        });
        let report = run(&LoadgenConfig {
            addr,
            requests: 12,
            conns: 2,
            concurrency_per_conn: 3,
            connect_timeout: Duration::from_secs(5),
            ..LoadgenConfig::default()
        })
        .unwrap();
        assert_eq!(
            (report.sent, report.errors),
            (12, 0),
            "{}",
            report.summary()
        );
        assert!(
            server.join().unwrap() <= 3,
            "more than the window in flight"
        );
    }

    #[test]
    fn checksum_is_order_independent() {
        // XOR-combined per-request hashes: any interleaving of the same
        // request set yields the same fold.
        let hs = [
            hash_bits(0xcbf29ce484222325, 1.5),
            hash_bits(0xcbf29ce484222325, -2.5),
            hash_bits(0xcbf29ce484222325, 0.25),
        ];
        let a = hs[0] ^ hs[1] ^ hs[2];
        let b = hs[2] ^ hs[0] ^ hs[1];
        assert_eq!(a, b);
    }

    #[test]
    fn request_stream_is_deterministic_and_tagged() {
        let cfg = LoadgenConfig {
            deadline_ms: 250,
            ..LoadgenConfig::default()
        };
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let a = build_request(&cfg, &mut rng_a, 3);
        let b = build_request(&cfg, &mut rng_b, 3);
        assert_eq!(a, b);
        assert!(a.contains("\"id\":3"));
        assert!(a.contains("\"deadline_ms\":250"));
        let no_deadline =
            build_request(&LoadgenConfig::default(), &mut StdRng::seed_from_u64(9), 0);
        assert!(!no_deadline.contains("deadline_ms"));
    }

    #[test]
    fn request_lines_keep_their_bytes() {
        // The bytes of seed 7's lines when they were assembled by hand.
        let cfg = LoadgenConfig {
            points: 2,
            uncertainty: true,
            deadline_ms: 250,
            ..LoadgenConfig::default()
        };
        assert_eq!(
            build_request(&cfg, &mut StdRng::seed_from_u64(7), 7),
            "{\"op\":\"predict\",\"id\":7,\"model\":\"default\",\"points\":\
             [[0.05536043647833311,0.17211585444811772],[0.7175761283586594,0.42720981929150526]],\
             \"uncertainty\":true,\"deadline_ms\":250}\n"
        );
        let cfg = LoadgenConfig {
            points: 1,
            ..LoadgenConfig::default()
        };
        assert_eq!(
            build_request(&cfg, &mut StdRng::seed_from_u64(7), 0),
            "{\"op\":\"predict\",\"id\":0,\"model\":\"default\",\"points\":\
             [[0.05536043647833311,0.17211585444811772]],\"uncertainty\":false}\n"
        );
        assert_eq!(op_line("metrics"), "{\"op\":\"metrics\"}\n");
    }

    #[test]
    fn model_names_are_escaped() {
        let cfg = LoadgenConfig {
            model: "a\"b\\c".to_string(),
            ..LoadgenConfig::default()
        };
        let line = build_request(&cfg, &mut StdRng::seed_from_u64(7), 0);
        let v = parse_json(line.trim_end()).unwrap();
        assert_eq!(v.get("model").unwrap().as_str(), Some("a\"b\\c"));
    }

    #[test]
    fn connect_retry_times_out_cleanly() {
        // Port 1 on localhost is essentially never listening.
        let err = connect_with_retry("127.0.0.1:1", Duration::from_millis(120)).unwrap_err();
        assert!(err.contains("could not connect"), "{err}");
    }
}
