//! Synthetic query-stream load generator for the prediction service.
//!
//! Replays a deterministic stream of predict requests against a running
//! server from `conns` parallel connections, optionally throttled to a
//! target aggregate rate, and reports throughput plus latency percentiles.
//! Every request carries an `"id"` and each connection keeps up to
//! `concurrency_per_conn` requests in flight, correlating the server's
//! out-of-order responses by id — so the generator doubles as an exerciser
//! of the server's connection multiplexing.
//!
//! Every successful response's mean vector is folded into an
//! order-independent checksum (per-request FNV hashes combined with XOR),
//! so two runs with the same seed against the same model must produce the
//! same checksum — the smoke tests use this to prove that neither batching
//! nor out-of-order completion ever changes results.
//!
//! The generator never panics on server misbehaviour: refused (shed),
//! expired (deadline) and failed requests are counted separately and the
//! binary turns unexpected ones into a nonzero exit.
//!
//! Two drive modes:
//!
//! * **Closed loop** (default): `conns` worker threads, each a pipelined
//!   blocking connection with up to `concurrency_per_conn` in flight.
//! * **Open loop** (`connections > 0`): one thread multiplexes that many
//!   nonblocking sockets through the same epoll shim the server's event
//!   loop uses, connecting in ramped batches. Connect failures (`EMFILE`,
//!   `ECONNREFUSED` from a full backlog, timeouts) are counted and
//!   retried until the connect budget runs out — a high-concurrency run
//!   reports instead of aborting. This is the mode that proves the
//!   server holds 10k+ concurrent connections.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use polling::{Event, Events, Poller};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xgs_runtime::{parse_json, JsonValue};

/// Load-generation parameters.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:4741`.
    pub addr: String,
    /// Model name to query.
    pub model: String,
    /// Total predict requests across all connections.
    pub requests: usize,
    /// Parallel connections.
    pub conns: usize,
    /// Points per predict request.
    pub points: usize,
    /// Aggregate target rate, requests/second (0 = unthrottled).
    pub rate: f64,
    /// Ask for kriging variance too.
    pub uncertainty: bool,
    /// Seed of the synthetic query stream.
    pub seed: u64,
    /// Query locations are uniform in `[0, domain]²`.
    pub domain: f64,
    /// How long to retry the initial connection (covers server startup).
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
    /// Open-loop mode: when > 0, hold this many concurrent connections
    /// from a single epoll-driven thread (ignoring `conns` and
    /// `concurrency_per_conn`), spreading `requests` across them. Extra
    /// connections beyond the request count sit idle but open — the
    /// concurrency soak the server is gated on.
    pub connections: usize,
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
            connections: 0,
        }
    }
}

/// Outcome of one load-generation run.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Requests answered `ok:true`.
    pub sent: usize,
    /// Hard failures: transport errors, disconnects, malformed or
    /// unclassifiable error responses.
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
    /// Failed connect attempts that were retried (open-loop mode; always 0
    /// in closed-loop mode, whose per-worker retry loop has no counter).
    pub connect_failures: usize,
    /// Most connections simultaneously established (open-loop mode).
    pub peak_conns: usize,
    /// The server's metrics document, fetched after the request phase.
    pub server_metrics: Option<JsonValue>,
}

impl LoadgenReport {
    /// Human-oriented multi-line summary.
    pub fn summary(&self) -> String {
        let open_loop = if self.peak_conns > 0 {
            format!(
                " | {} peak conns, {} connect retries",
                self.peak_conns, self.connect_failures
            )
        } else {
            String::new()
        };
        format!(
            "{} requests in {:.2}s: {:.0} req/s | latency p50 {:.2} ms, p95 {:.2} ms, \
             p99 {:.2} ms, max {:.2} ms | {} errors, {} shed, {} expired | checksum {:016x}{}",
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
            open_loop
        )
    }

    /// Machine-readable dump; when the server metrics were fetched they are
    /// embedded verbatim under `"server"` (same schema as every other
    /// `--metrics` export, so `metrics_diff` can digest it).
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

/// FNV-1a over the IEEE bits of a float sequence.
fn hash_bits(acc: u64, x: f64) -> u64 {
    (acc ^ x.to_bits()).wrapping_mul(0x100000001b3)
}

fn build_request(cfg: &LoadgenConfig, rng: &mut StdRng, seq: usize) -> String {
    let pts: String = (0..cfg.points)
        .map(|_| {
            format!(
                "[{},{}]",
                rng.random_range(0.0..cfg.domain),
                rng.random_range(0.0..cfg.domain)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let deadline = if cfg.deadline_ms > 0 {
        format!(",\"deadline_ms\":{}", cfg.deadline_ms)
    } else {
        String::new()
    };
    format!(
        "{{\"op\":\"predict\",\"id\":{seq},\"model\":\"{}\",\"points\":[{pts}],\
         \"uncertainty\":{}{deadline}}}\n",
        cfg.model, cfg.uncertainty
    )
}

/// Per-connection tally, merged across workers after the join.
#[derive(Default)]
struct Tally {
    latencies_ms: Vec<f64>,
    errors: usize,
    shed: usize,
    expired: usize,
    checksum: u64,
}

impl Tally {
    /// Classify one attributed response (its send time already looked up)
    /// into the ok/shed/expired/error census, folding successful results
    /// into the latency list and checksum. Shared by both drive modes.
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

/// One pipelined connection: keep up to `window` requests in flight,
/// correlate out-of-order responses by id. Any transport failure fails the
/// connection's remaining requests — never the process.
fn run_conn(cfg: &LoadgenConfig, conn_id: usize, share: usize, interval: Duration) -> Tally {
    let mut tally = Tally {
        latencies_ms: Vec::with_capacity(share),
        ..Tally::default()
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(7919 * conn_id as u64));
    let window = cfg.concurrency_per_conn.max(1);

    let Ok(mut stream) = connect_with_retry(&cfg.addr, cfg.connect_timeout) else {
        tally.errors += share;
        return tally;
    };
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => {
            tally.errors += share;
            return tally;
        }
    };

    let mut pending: HashMap<usize, Instant> = HashMap::new();
    let mut sent = 0usize;
    let mut done = 0usize;
    let mut next_send = Instant::now();
    while done < share {
        let due = interval.is_zero() || Instant::now() >= next_send;
        if sent < share && pending.len() < window && due {
            let request = build_request(cfg, &mut rng, sent);
            if stream.write_all(request.as_bytes()).is_err() {
                tally.errors += share - done;
                return tally;
            }
            pending.insert(sent, Instant::now());
            sent += 1;
            if !interval.is_zero() {
                next_send += interval;
            }
            continue;
        }
        if pending.is_empty() {
            // Throttled with nothing in flight: wait out the interval.
            let now = Instant::now();
            if now < next_send {
                std::thread::sleep(next_send - now);
            }
            continue;
        }
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            _ => {
                // Disconnect or socket error: everything outstanding fails.
                tally.errors += share - done;
                return tally;
            }
        }
        let Ok(v) = parse_json(&line) else {
            tally.errors += share - done;
            return tally;
        };
        let Some(t_send) = v
            .get("id")
            .and_then(|i| i.as_usize())
            .and_then(|seq| pending.remove(&seq))
        else {
            // A response we cannot attribute means the stream is out of
            // sync; abandon the connection rather than guess.
            tally.errors += share - done;
            return tally;
        };
        done += 1;
        tally.record(&v, t_send);
    }
    tally
}

/// Post-run control traffic on a fresh connection: fetch the server's
/// metrics export and, when configured, ask it to drain.
fn fetch_metrics_and_shutdown(cfg: &LoadgenConfig) -> Option<JsonValue> {
    let mut server_metrics = None;
    if let Ok(mut ctl) = connect_with_retry(&cfg.addr, Duration::from_secs(2)) {
        if let Ok(clone) = ctl.try_clone() {
            let mut reader = BufReader::new(clone);
            if ctl.write_all(b"{\"op\":\"metrics\"}\n").is_ok() {
                let mut line = String::new();
                if reader.read_line(&mut line).is_ok() {
                    if let Ok(v) = parse_json(&line) {
                        server_metrics = v.get("metrics").cloned();
                    }
                }
            }
            if cfg.shutdown {
                let _ = ctl.write_all(b"{\"op\":\"shutdown\"}\n");
                let mut line = String::new();
                let _ = reader.read_line(&mut line);
            }
        }
    }
    server_metrics
}

/// Latency percentiles + report assembly shared by both drive modes.
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

/// Run the full load-generation session.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    if cfg.connections > 0 {
        return run_open_loop(cfg);
    }
    let conns = cfg.conns.max(1);
    // Fail fast (and wait for a booting server) before spawning workers.
    drop(connect_with_retry(&cfg.addr, cfg.connect_timeout)?);

    let per_conn_interval = if cfg.rate > 0.0 {
        Duration::from_secs_f64(conns as f64 / cfg.rate)
    } else {
        Duration::ZERO
    };

    let t0 = Instant::now();
    let mut workers = Vec::new();
    for conn_id in 0..conns {
        let cfg = cfg.clone();
        // Requests are split evenly; the first `requests % conns`
        // connections take one extra.
        let share = cfg.requests / conns + usize::from(conn_id < cfg.requests % conns);
        let worker = std::thread::spawn(move || run_conn(&cfg, conn_id, share, per_conn_interval));
        workers.push((share, worker));
    }

    let mut total = Tally::default();
    for (share, w) in workers {
        match w.join() {
            Ok(t) => {
                total.latencies_ms.extend(t.latencies_ms);
                total.errors += t.errors;
                total.shed += t.shed;
                total.expired += t.expired;
                total.checksum ^= t.checksum;
            }
            // A panicked worker answered nothing: its whole share failed.
            Err(_) => total.errors += share,
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    Ok(build_report(cfg, total, elapsed, 0, 0))
}

/// Connect attempts per ramp tick in open-loop mode. Matched to typical
/// listener backlogs so a tick cannot by itself overflow the accept queue
/// it is also racing the server to drain.
const RAMP_BATCH: usize = 128;

/// One open-loop connection: nonblocking socket, queue of unsent request
/// lines, in-flight send times keyed by id.
struct OpenConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// Request lines not yet (fully) written; the front one is written
    /// from offset `woff`.
    unsent: VecDeque<(usize, Vec<u8>)>,
    woff: usize,
    pending: HashMap<usize, Instant>,
    /// Requests this connection still owes the tally (unsent + pending).
    outstanding: usize,
}

impl OpenConn {
    /// Flush queued request lines. Returns false when the socket died.
    fn flush(&mut self) -> bool {
        while let Some((id, bytes)) = self.unsent.front() {
            match self.stream.write(&bytes[self.woff..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.woff += n;
                    if self.woff == bytes.len() {
                        self.pending.insert(*id, Instant::now());
                        self.unsent.pop_front();
                        self.woff = 0;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }
}

/// The open-loop engine: every connection multiplexed from this thread
/// through the `polling` epoll shim, mirroring the server's reactor.
fn run_open_loop(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    let n_conns = cfg.connections;
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

    // Slots still to connect (their index decides the request share) and
    // established connections, keyed by slot for poller events.
    let mut to_connect: VecDeque<usize> = (0..n_conns).collect();
    let mut conns: HashMap<usize, OpenConn> = HashMap::new();
    let share = |slot: usize| cfg.requests / n_conns + usize::from(slot < cfg.requests % n_conns);
    let connect_deadline = Instant::now() + cfg.connect_timeout;
    let mut answered = 0usize; // responses attributed or written off
    let total_requests = cfg.requests;

    let t0 = Instant::now();
    let mut chunk = vec![0u8; 64 * 1024];
    while answered < total_requests || !to_connect.is_empty() {
        // Ramp: a bounded batch of connect attempts per iteration, each
        // failure counted and the slot requeued until the budget is spent.
        let mut attempts = RAMP_BATCH.min(to_connect.len());
        while attempts > 0 {
            attempts -= 1;
            let Some(slot) = to_connect.pop_front() else {
                break;
            };
            match TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
                Ok(stream) => {
                    if stream.set_nonblocking(true).is_err()
                        || poller.add(&stream, Event::all(slot)).is_err()
                    {
                        connect_failures += 1;
                        to_connect.push_back(slot);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(7919 * slot as u64));
                    let unsent: VecDeque<(usize, Vec<u8>)> = (0..share(slot))
                        .map(|seq| (seq, build_request(cfg, &mut rng, seq).into_bytes()))
                        .collect();
                    let outstanding = unsent.len();
                    conns.insert(
                        slot,
                        OpenConn {
                            stream,
                            rbuf: Vec::new(),
                            unsent,
                            woff: 0,
                            pending: HashMap::new(),
                            outstanding,
                        },
                    );
                    peak_conns = peak_conns.max(conns.len());
                }
                // EMFILE, ECONNREFUSED (full backlog), timeout: count,
                // retry until the connect budget runs out, then write the
                // slot's share off as errors — report, don't abort.
                Err(_) => {
                    connect_failures += 1;
                    if Instant::now() >= connect_deadline {
                        tally.errors += share(slot);
                        answered += share(slot);
                    } else {
                        to_connect.push_back(slot);
                    }
                }
            }
        }
        if answered >= total_requests && to_connect.is_empty() {
            break;
        }
        if conns.is_empty() && to_connect.is_empty() {
            break;
        }

        let _ = poller.wait(&mut events, Some(Duration::from_millis(20)));
        let mut dead: Vec<usize> = Vec::new();
        for ev in events.iter() {
            let Some(conn) = conns.get_mut(&ev.key) else {
                continue;
            };
            if ev.writable && !conn.flush() {
                dead.push(ev.key);
                continue;
            }
            if ev.readable {
                let mut conn_dead = false;
                loop {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            conn_dead = true;
                            break;
                        }
                        Ok(n) => {
                            conn.rbuf.extend_from_slice(&chunk[..n]);
                            while let Some(p) = conn.rbuf.iter().position(|&b| b == b'\n') {
                                let line: Vec<u8> = conn.rbuf.drain(..=p).collect();
                                let Ok(v) =
                                    parse_json(&String::from_utf8_lossy(&line[..line.len() - 1]))
                                else {
                                    tally.errors += 1;
                                    answered += 1;
                                    conn.outstanding = conn.outstanding.saturating_sub(1);
                                    continue;
                                };
                                let Some(t_send) = v
                                    .get("id")
                                    .and_then(|i| i.as_usize())
                                    .and_then(|seq| conn.pending.remove(&seq))
                                else {
                                    tally.errors += 1;
                                    answered += 1;
                                    conn.outstanding = conn.outstanding.saturating_sub(1);
                                    continue;
                                };
                                tally.record(&v, t_send);
                                answered += 1;
                                conn.outstanding -= 1;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            conn_dead = true;
                            break;
                        }
                    }
                }
                if conn_dead {
                    dead.push(ev.key);
                }
            }
        }
        for key in dead {
            if let Some(conn) = conns.remove(&key) {
                let _ = poller.delete(&conn.stream);
                // Everything unanswered on a dead socket is an error.
                tally.errors += conn.outstanding;
                answered += conn.outstanding;
            }
        }
        // Drop write interest on fully-sent connections so idle sockets
        // stop reporting writability (which would busy-spin the loop).
        let fully_sent: Vec<usize> = conns
            .iter()
            .filter(|(_, c)| c.unsent.is_empty())
            .map(|(k, _)| *k)
            .collect();
        for key in fully_sent {
            if let Some(conn) = conns.get(&key) {
                let _ = poller.modify(&conn.stream, Event::readable(key));
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
    fn open_loop_counts_connect_failures_without_aborting() {
        // Nothing listens on port 1: every connect attempt fails. The run
        // must still return a report — failures counted, the whole request
        // budget written off as errors — rather than an Err or a panic.
        let cfg = LoadgenConfig {
            addr: "127.0.0.1:1".to_string(),
            requests: 6,
            connections: 3,
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
    fn connect_retry_times_out_cleanly() {
        // Port 1 on localhost is essentially never listening.
        let err = connect_with_retry("127.0.0.1:1", Duration::from_millis(120)).unwrap_err();
        assert!(err.contains("could not connect"), "{err}");
    }
}
