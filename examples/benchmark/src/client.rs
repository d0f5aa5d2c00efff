//! The benchmark's own newline-JSON client for the prediction service.
//!
//! Deliberately not `xgs_server::loadgen`: that is program code a later
//! change may alter, and the measuring side must stay fixed. Every socket
//! carries read and write timeouts, so a hung server fails the op instead
//! of stalling the run.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::data::{Dataset, Request};

const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// A `load` factorizes a model before it answers.
const LOAD_TIMEOUT: Duration = Duration::from_secs(30);
/// How long readers wait for stragglers once the sender is done.
const DRAIN_GRACE: Duration = Duration::from_secs(3);

fn points_json(points: &[xgs_covariance::Location]) -> String {
    let items: Vec<String> = points
        .iter()
        .map(|p| format!("[{},{}]", p.x, p.y))
        .collect();
    format!("[{}]", items.join(","))
}

/// A `predict` request without its `{"id":N,` head ([`with_id`] adds it).
pub fn predict_body(req: &Request) -> String {
    format!(
        "\"op\":\"predict\",\"model\":\"{}\",\"points\":{},\"uncertainty\":{}}}",
        req.model,
        points_json(&req.points),
        req.heavy
    )
}

/// A `load` request of `ds` at `theta` without its id head. `{}` prints
/// the shortest text that reads back to the same `f64`.
pub fn load_body(name: &str, ds: &Dataset, theta: [f64; 3], variant: &str) -> String {
    let z: Vec<String> = ds.z.iter().map(f64::to_string).collect();
    format!(
        "\"op\":\"load\",\"name\":\"{name}\",\"kernel\":\"matern\",\"variant\":\"{variant}\",\
         \"theta\":[{},{},{}],\"tile\":{},\"locs\":{},\"z\":[{}]}}",
        theta[0],
        theta[1],
        theta[2],
        ds.tile,
        points_json(&ds.locs),
        z.join(",")
    )
}

pub fn with_id(id: u64, body: &str) -> String {
    format!("{{\"id\":{id},{body}\n")
}

/// The text after `"key":` up to the end of that value (arrays whole).
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = if rest.starts_with('[') {
        rest.find(']')? + 1
    } else {
        rest.find([',', '}'])?
    };
    Some(&rest[..end])
}

fn f64_list(raw: &str) -> Option<Vec<f64>> {
    let inner = raw.strip_prefix('[')?.strip_suffix(']')?;
    inner.split(',').map(|x| x.trim().parse().ok()).collect()
}

/// What the benchmark reads out of one response line.
#[derive(Debug, Default)]
pub struct Reply {
    pub id: Option<u64>,
    pub ok: bool,
    pub shed: bool,
    pub mean: Option<Vec<f64>>,
    pub uncertainty: Option<Vec<f64>>,
    pub llh: Option<f64>,
}

pub fn parse_reply(line: &str) -> Reply {
    Reply {
        id: raw_field(line, "id").and_then(|s| s.parse().ok()),
        ok: raw_field(line, "ok") == Some("true"),
        shed: line.contains("\"retry_after_ms\""),
        mean: raw_field(line, "mean").and_then(f64_list),
        uncertainty: raw_field(line, "uncertainty").and_then(f64_list),
        llh: raw_field(line, "llh").and_then(|s| s.parse().ok()),
    }
}

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// A connection whose reads wait as long as a `load` may take.
    pub fn connect_for_loads(addr: SocketAddr) -> std::io::Result<Conn> {
        let conn = Conn::connect(addr)?;
        conn.writer.set_read_timeout(Some(LOAD_TIMEOUT))?;
        Ok(conn)
    }

    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())
    }

    /// One response line; a timeout or a closed socket is an error.
    pub fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        Ok(line)
    }

    /// Send one request and wait for its reply.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}

/// One answered request: which pool entry it was, and when.
pub struct Answer {
    pub pool_idx: usize,
    pub sent: Instant,
    pub recv: Instant,
    pub line: String,
}

/// Closed loop on one connection: keep `window` requests in flight, send
/// the next one only when a reply comes back, stop sending at `until` and
/// drain. `bodies` are `(pool index, request body)` cycled in order.
/// Returns the answers and how many requests never got one.
pub fn closed_loop(
    addr: SocketAddr,
    bodies: &[(usize, String)],
    window: usize,
    until: Instant,
) -> std::io::Result<(Vec<Answer>, usize)> {
    let mut conn = Conn::connect(addr)?;
    let mut sent: Vec<(usize, Instant)> = Vec::new();
    let mut answers = Vec::new();
    let send_next = |conn: &mut Conn, sent: &mut Vec<(usize, Instant)>| {
        let (pool_idx, body) = &bodies[sent.len() % bodies.len()];
        let line = with_id(sent.len() as u64, body);
        sent.push((*pool_idx, Instant::now()));
        conn.send(&line)
    };
    for _ in 0..window {
        send_next(&mut conn, &mut sent)?;
    }
    while answers.len() < sent.len() {
        let Ok(line) = conn.recv() else { break };
        let recv = Instant::now();
        // A reply whose id cannot be read is not matched to any request,
        // so that request is counted as unanswered below.
        if let Some(&(pool_idx, at)) = parse_reply(&line).id.and_then(|id| sent.get(id as usize)) {
            answers.push(Answer {
                pool_idx,
                sent: at,
                recv,
                line,
            });
        }
        if recv < until {
            send_next(&mut conn, &mut sent)?;
        }
    }
    let unanswered = sent.len() - answers.len();
    Ok((answers, unanswered))
}

/// One request of an open-loop run. `recv` stays `None` when no reply
/// came: the request still counts as sent, and as a miss.
pub struct Sent {
    pub pool_idx: usize,
    pub due: Instant,
    pub sent: Instant,
    pub recv: Option<(Instant, String)>,
}

/// Open loop: request `i` is due at `start + i / rate` whatever the server
/// does; the caller's thread sends round-robin over `conns` connections
/// and one reader thread per connection collects replies. `pool_bodies[i %
/// len]` is the body of request `i`. `before_wait(i, room)` runs on the
/// sending thread before it waits for request `i`, `room` ahead of its due
/// time.
pub fn open_loop(
    addr: SocketAddr,
    pool_bodies: &[String],
    rate: f64,
    duration: Duration,
    conns: usize,
    before_wait: &mut dyn FnMut(usize, Duration),
) -> std::io::Result<Vec<Sent>> {
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..conns {
        let c = Conn::connect(addr)?;
        c.reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_millis(100)))?;
        writers.push(c.writer);
        readers.push(c.reader);
    }
    let done = AtomicBool::new(false);
    let sent_on: Vec<AtomicUsize> = (0..conns).map(|_| AtomicUsize::new(0)).collect();
    let mut log: Vec<Sent> = Vec::new();

    let replies: Vec<Vec<(u64, Instant, String)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = readers
            .into_iter()
            .zip(&sent_on)
            .map(|(mut reader, sent_here)| {
                let done = &done;
                scope.spawn(move || {
                    let mut got = Vec::new();
                    let mut buf = String::new();
                    let mut done_at: Option<Instant> = None;
                    loop {
                        match reader.read_line(&mut buf) {
                            Ok(0) => break,
                            Ok(_) if buf.ends_with('\n') => {
                                let at = Instant::now();
                                let line = std::mem::take(&mut buf);
                                if let Some(id) = parse_reply(&line).id {
                                    got.push((id, at, line));
                                }
                            }
                            // A timed-out read keeps its partial line in
                            // `buf`; the next read appends to it.
                            Ok(_) => {}
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    ErrorKind::WouldBlock | ErrorKind::TimedOut
                                ) => {}
                            Err(_) => break,
                        }
                        if done.load(Ordering::Acquire) {
                            let since = *done_at.get_or_insert_with(Instant::now);
                            if got.len() >= sent_here.load(Ordering::Acquire)
                                || since.elapsed() > DRAIN_GRACE
                            {
                                break;
                            }
                        }
                    }
                    got
                })
            })
            .collect();

        let start = Instant::now();
        let mut send_error = None;
        for i in 0.. {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            if due.duration_since(start) >= duration {
                break;
            }
            before_wait(i, due.saturating_duration_since(Instant::now()));
            let wait = due.saturating_duration_since(Instant::now());
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
            let c = i % conns;
            let line = with_id(i as u64, &pool_bodies[i % pool_bodies.len()]);
            let sent = Instant::now();
            if let Err(e) = writers[c].write_all(line.as_bytes()) {
                send_error = Some(e);
                break;
            }
            sent_on[c].fetch_add(1, Ordering::Release);
            log.push(Sent {
                pool_idx: i % pool_bodies.len(),
                due,
                sent,
                recv: None,
            });
        }
        done.store(true, Ordering::Release);
        let replies = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        match send_error {
            Some(e) => Err(e),
            None => Ok(replies),
        }
    })?;
    for (id, at, line) in replies.into_iter().flatten() {
        if let Some(s) = log.get_mut(id as usize) {
            s.recv = Some((at, line));
        }
    }
    Ok(log)
}

/// One `load` round trip.
pub struct Loaded {
    pub theta_idx: usize,
    pub sent: Instant,
    /// `Err` when the socket timed out or closed.
    pub reply: Result<(Instant, String), String>,
}

/// Until `stop` is raised, send `bodies[k % len]` (a `load`) every
/// `every`, each on its own round trip on one connection.
pub fn load_loop(
    addr: SocketAddr,
    bodies: &[String],
    every: Duration,
    stop: &AtomicBool,
) -> std::io::Result<Vec<Loaded>> {
    let mut conn = Conn::connect_for_loads(addr)?;
    let mut out = Vec::new();
    let start = Instant::now();
    for k in 0.. {
        let due = start + every.mul_f64(k as f64 + 0.5);
        while Instant::now() < due && !stop.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(5));
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        let line = with_id(k as u64, &bodies[k % bodies.len()]);
        let sent = Instant::now();
        let reply = conn
            .call(&line)
            .map(|l| (Instant::now(), l))
            .map_err(|e| e.to_string());
        let broken = reply.is_err();
        out.push(Loaded {
            theta_idx: k % bodies.len(),
            sent,
            reply,
        });
        if broken {
            break;
        }
    }
    Ok(out)
}
