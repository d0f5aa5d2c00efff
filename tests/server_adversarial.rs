//! Fault-injection and robustness tests for the prediction service: the
//! hostile-client corpus (oversized lines, nesting bombs, non-finite
//! payloads, binary garbage, half-written requests), the connection
//! multiplexing guarantees (a `ping` is never head-of-line-blocked by
//! queued `predict`s), per-request deadlines, and overload shedding.
//!
//! The last three tests aim at the event loop's own bookkeeping: abuses
//! that only exist because one thread owns every socket — outbound
//! backpressure from a client that never reads, half-close mid-line
//! during a pipelined burst, and a mass of idle connections that must not
//! degrade service on the active one.
//!
//! The common thread: **the server stays up and every accepted request is
//! answered** — misbehaving clients get one error (or a closed socket),
//! never a wedged or crashed service.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use exageostat_rs::prelude::*;
use exageostat_rs::server::build_plan;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xgs_runtime::{parse_json, JsonValue};

/// 150-site Matérn model under a server with the given knobs.
fn started_server(cfg: ServerConfig) -> exageostat_rs::server::ServerHandle {
    started_server_seeded(303, cfg)
}

/// [`started_server`] on the field drawn from `seed` (sites) and
/// `seed + 1` (values).
fn started_server_seeded(seed: u64, cfg: ServerConfig) -> exageostat_rs::server::ServerHandle {
    let mut rng = StdRng::seed_from_u64(seed);
    let locs = jittered_grid(150, &mut rng);
    let kernel = ModelFamily::MaternSpace.kernel(&[1.0, 0.1, 0.5]);
    let z = simulate_field(kernel.as_ref(), &locs, seed + 1);
    let (plan, _) = build_plan(
        ModelFamily::MaternSpace,
        &[1.0, 0.1, 0.5],
        Variant::MpDense,
        48,
        locs,
        &z,
        1,
    )
    .unwrap();
    let registry = Arc::new(ModelRegistry::new());
    registry.insert("default", plan);
    serve(&cfg, registry).expect("bind loopback")
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn roundtrip(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &str,
) -> JsonValue {
    stream.write_all(request.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    parse_json(&line).unwrap_or_else(|e| panic!("unparseable response {line:?}: {e}"))
}

/// The server answers a fresh well-formed request — the liveness probe run
/// after every abuse below.
fn assert_alive(addr: std::net::SocketAddr) {
    let (mut s, mut r) = connect(addr);
    let pong = roundtrip(&mut s, &mut r, "{\"op\":\"ping\"}");
    assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));
}

/// Hostile clients get errors, not a dead server.
#[test]
fn hostile_clients_reactor() {
    let handle = started_server(ServerConfig::default());
    let addr = handle.addr();

    // (a) Oversized request line: one error response, then disconnect —
    // the server must not buffer the line unboundedly.
    {
        let (mut s, mut r) = connect(addr);
        let blob = vec![b'a'; exageostat_rs::server::MAX_LINE_BYTES + (64 << 10)];
        // The server stops reading after the cap, so push the payload in
        // chunks and tolerate the connection dying under us.
        for chunk in blob.chunks(64 << 10) {
            if s.write_all(chunk).is_err() {
                break;
            }
        }
        let mut line = String::new();
        let n = r.read_line(&mut line).unwrap_or(0);
        assert!(n > 0, "expected an error response before the close");
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert!(
            v.get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("exceeds"),
            "{line}"
        );
        // Ending the over-long line releases the server's discard loop;
        // the connection then closes — it is not left half-alive.
        let _ = s.write_all(b"\n");
        let mut rest = String::new();
        assert_eq!(r.read_line(&mut rest).unwrap_or(0), 0);
    }
    assert_alive(addr);

    // (b) Nesting bomb: deep but short — must be a parse error, not a
    // parser stack overflow, and the connection survives.
    {
        let (mut s, mut r) = connect(addr);
        let bomb = "[".repeat(200_000);
        let v = roundtrip(&mut s, &mut r, &bomb);
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert!(
            v.get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("nesting"),
            "{v:?}"
        );
        let pong = roundtrip(&mut s, &mut r, "{\"op\":\"ping\"}");
        assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));
    }

    // (c) Non-finite coordinates (1e999 overflows to +inf in any float
    // grammar) are refused before they can poison a solve; the id still
    // comes back on the error.
    {
        let (mut s, mut r) = connect(addr);
        let v = roundtrip(
            &mut s,
            &mut r,
            "{\"op\":\"predict\",\"id\":\"nan1\",\"points\":[[1e999,0.5]]}",
        );
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert!(
            v.get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("non-finite"),
            "{v:?}"
        );
        assert_eq!(v.get("id").unwrap().as_str(), Some("nan1"));
        // Finite coordinates whose distances overflow are accepted, and
        // the NaN answer goes out as JSON `null` for the mean *and* the
        // variance — never a variance of 0 claiming certainty.
        let v = roundtrip(
            &mut s,
            &mut r,
            "{\"op\":\"predict\",\"points\":[[1e200,1e200],[0.5,0.5]],\"uncertainty\":true}",
        );
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{v:?}");
        let (mean, var) = (v.get("mean").unwrap(), v.get("uncertainty").unwrap());
        assert!(mean.as_array().unwrap()[0].is_null(), "{v:?}");
        assert!(var.as_array().unwrap()[0].is_null(), "{v:?}");
        assert!(var.as_array().unwrap()[1].as_f64().unwrap() > 0.0, "{v:?}");
    }

    // (d) Binary garbage (invalid UTF-8): a parse error, not a panic.
    {
        let (mut s, mut r) = connect(addr);
        s.write_all(&[0xff, 0xfe, 0x80, 0x9f, b'\n']).unwrap();
        let mut line = String::new();
        assert!(r.read_line(&mut line).unwrap() > 0);
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        let pong = roundtrip(&mut s, &mut r, "{\"op\":\"ping\"}");
        assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));
    }

    // (e) Half-written request, then hang up (slow-loris cousin): the
    // handler reaps the connection on EOF without an answer and without
    // damage.
    {
        let (mut s, _r) = connect(addr);
        s.write_all(b"{\"op\":\"predict\",\"poin").unwrap();
        drop(s);
    }
    // (f) Connect and say nothing, then hang up.
    {
        let (s, _r) = connect(addr);
        drop(s);
    }
    std::thread::sleep(Duration::from_millis(50));
    assert_alive(addr);

    // (g) `load` lines the factorization cannot take: θ outside the
    // kernel's domain (a panic inside the load thread would strand the
    // connection and the drain) and a tile size asking for 1,500 tiles
    // per side (5.6e8 tasks). Each is one `ok:false` naming the culprit,
    // on a connection that keeps answering.
    {
        let (mut s, mut r) = connect(addr);
        s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let matern = |theta: &str| {
            format!(
                "{{\"op\":\"load\",\"name\":\"bad\",\"theta\":{theta},\
                 \"locs\":[[0.1,0.2],[0.3,0.4]],\"z\":[0.1,0.2]}}"
            )
        };
        let gneiting = "{\"op\":\"load\",\"name\":\"bad\",\"kernel\":\"gneiting\",\
             \"theta\":[1,0.5,1,0.3,0.9,1.5],\"locs\":[[0.1,0.2,0],[0.3,0.4,1]],\"z\":[0.1,0.2]}"
            .to_string();
        let locs: Vec<String> = (0..1500)
            .map(|i| {
                format!(
                    "[{:.4},{:.4}]",
                    (i % 40) as f64 / 40.0,
                    (i / 40) as f64 / 40.0
                )
            })
            .collect();
        let tile_one = format!(
            "{{\"op\":\"load\",\"name\":\"bad\",\"theta\":[1,0.1,0.5],\"tile\":1,\
             \"locs\":[{}],\"z\":[{}]}}",
            locs.join(","),
            vec!["0.1"; 1500].join(",")
        );
        for (line, culprit) in [
            (matern("[-1,0.1,0.5]"), "variance"),
            (matern("[1,0,0.5]"), "range"),
            (gneiting, "nonsep-param"),
            (tile_one, "tiles per side"),
        ] {
            let v = roundtrip(&mut s, &mut r, &line);
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(false), "{v:?}");
            let error = v.get("error").unwrap().as_str().unwrap();
            assert!(error.contains(culprit), "{error}");
            let pong = roundtrip(&mut s, &mut r, "{\"op\":\"ping\"}");
            assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));
        }
    }

    // The whole corpus is visible in the error census, and a clean drain
    // still works afterwards — bounded, so a stranded connection fails
    // the test instead of hanging it.
    let (mut s, mut r) = connect(addr);
    let m = roundtrip(&mut s, &mut r, "{\"op\":\"metrics\"}");
    assert!(m.get("metrics").is_some());
    handle.shutdown();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(handle.join());
    });
    let report = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server did not drain after the hostile corpus");
    assert!(report.tasks >= 8, "census too small: {}", report.tasks);
}

/// A `ping` is not blocked behind queued `predict`s.
#[test]
fn ping_overtakes_predicts_reactor() {
    // One solver and small batches: the predict backlog stays queued long
    // enough for the ping to overtake it.
    let handle = started_server(ServerConfig {
        solvers: 1,
        max_batch_points: 64,
        ..ServerConfig::default()
    });
    let (mut s, mut r) = connect(handle.addr());

    // Pipeline 30 expensive predicts on ONE connection…
    let n_predicts = 30;
    let pts: String = (0..64)
        .map(|i| format!("[{:.4},{:.4}]", 0.015 * (i % 60) as f64, 0.4))
        .collect::<Vec<_>>()
        .join(",");
    for seq in 0..n_predicts {
        let req = format!(
            "{{\"op\":\"predict\",\"id\":{seq},\"points\":[{pts}],\"uncertainty\":true}}\n"
        );
        s.write_all(req.as_bytes()).unwrap();
    }
    // …then a ping on the same connection.
    s.write_all(b"{\"op\":\"ping\",\"id\":\"p\"}\n").unwrap();

    // Collect all 31 responses, in whatever order the server answers.
    let mut order = Vec::new();
    let mut predict_ids = Vec::new();
    for _ in 0..=n_predicts {
        let mut line = String::new();
        assert!(r.read_line(&mut line).unwrap() > 0, "server hung up");
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{line}");
        match v.get("id").unwrap().as_str() {
            Some("p") => order.push("ping".to_string()),
            _ => {
                let id = v.get("id").unwrap().as_usize().unwrap();
                predict_ids.push(id);
                order.push(format!("predict-{id}"));
            }
        }
    }
    // Every accepted request was answered, ids correlate exactly…
    let mut sorted = predict_ids.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..n_predicts).collect::<Vec<_>>());
    // …and the ping overtook the predict backlog. A head-of-line-blocking
    // server would answer it dead last.
    let ping_pos = order.iter().position(|o| o == "ping").unwrap();
    assert!(
        ping_pos < n_predicts,
        "ping was answered last — head-of-line blocked: {order:?}"
    );

    handle.shutdown();
    handle.join();
}

/// Expired deadlines are answered, not dropped.
#[test]
fn expired_deadlines_reactor() {
    let handle = started_server(ServerConfig::default());
    let (mut s, mut r) = connect(handle.addr());

    // deadline_ms:0 is already expired by the time a solver dequeues it —
    // the response must still arrive (a timeout error, not silence).
    let v = roundtrip(
        &mut s,
        &mut r,
        "{\"op\":\"predict\",\"id\":7,\"points\":[[0.4,0.6]],\"deadline_ms\":0}",
    );
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
    assert!(
        v.get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("deadline"),
        "{v:?}"
    );
    assert_eq!(v.get("id").unwrap().as_usize(), Some(7));

    // A generous deadline is not triggered by a healthy server.
    let v = roundtrip(
        &mut s,
        &mut r,
        "{\"op\":\"predict\",\"points\":[[0.4,0.6]],\"deadline_ms\":30000}",
    );
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{v:?}");

    // The expiry shows up in the metrics census.
    let m = roundtrip(&mut s, &mut r, "{\"op\":\"metrics\"}");
    let kernels = m
        .get("metrics")
        .unwrap()
        .get("kernels")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|k| k.get("kind").and_then(|s| s.as_str().map(str::to_string)))
        .collect::<Vec<_>>();
    assert!(kernels.iter().any(|k| k == "deadline"), "{kernels:?}");

    handle.shutdown();
    handle.join();
}

/// Overload sheds with a retry hint and still answers everything.
#[test]
fn overload_sheds_reactor() {
    // A one-point budget: the moment anything is queued, further predicts
    // are shed.
    let handle = started_server(ServerConfig {
        solvers: 1,
        max_queued_points: 1,
        ..ServerConfig::default()
    });
    let (mut s, mut r) = connect(handle.addr());

    let n = 200;
    for seq in 0..n {
        let req = format!("{{\"op\":\"predict\",\"id\":{seq},\"points\":[[0.3,0.7],[0.6,0.2]]}}\n");
        s.write_all(req.as_bytes()).unwrap();
    }
    let (mut ok, mut shed) = (0usize, 0usize);
    let mut seen = vec![false; n];
    for _ in 0..n {
        let mut line = String::new();
        assert!(r.read_line(&mut line).unwrap() > 0, "server hung up");
        let v = parse_json(&line).unwrap();
        let id = v.get("id").unwrap().as_usize().unwrap();
        assert!(!seen[id], "duplicate response for id {id}");
        seen[id] = true;
        if v.get("ok").unwrap().as_bool() == Some(true) {
            ok += 1;
        } else {
            let hint = v
                .get("retry_after_ms")
                .and_then(|h| h.as_usize())
                .unwrap_or_else(|| panic!("shed response without retry hint: {line}"));
            assert!((1..=10_000).contains(&hint));
            shed += 1;
        }
    }
    // Exactly one response per request; under a 1-point budget a 200-deep
    // burst must shed some and still serve some (the empty-queue push
    // always succeeds).
    assert_eq!(ok + shed, n);
    assert!(ok >= 1, "nothing served");
    assert!(shed >= 1, "nothing shed under a 1-point budget");

    let m = roundtrip(&mut s, &mut r, "{\"op\":\"metrics\"}");
    let metrics = m.get("metrics").unwrap().to_json_string();
    assert!(metrics.contains("\"shed\""), "{metrics}");

    handle.shutdown();
    handle.join();
}

/// A slow-loris writer cannot stall other clients.
#[test]
fn slow_loris_reactor() {
    let handle = started_server(ServerConfig::default());
    let addr = handle.addr();

    // A client dribbling one byte at a time holds its own connection open…
    let mut loris = TcpStream::connect(addr).unwrap();
    let partial = b"{\"op\":\"pre";
    for b in partial {
        loris.write_all(&[*b]).unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }

    // …while everyone else is served normally.
    for _ in 0..3 {
        assert_alive(addr);
    }

    // The loris finishing its line still gets a proper answer.
    loris
        .write_all(b"dict\",\"points\":[[0.5,0.5]]}\n")
        .unwrap();
    let mut r = BufReader::new(loris.try_clone().unwrap());
    let mut line = String::new();
    assert!(r.read_line(&mut line).unwrap() > 0);
    let v = parse_json(&line).unwrap();
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{line}");
    drop(loris);

    handle.shutdown();
    handle.join();
}

/// `loadgen` survives a mid-run shutdown.
#[test]
fn loadgen_mid_run_shutdown_reactor() {
    // Kill the server while the generator is mid-stream: loadgen must
    // report failures, not panic (exercised through the public API the
    // binary wraps).
    let handle = started_server(ServerConfig::default());
    let addr = handle.addr().to_string();

    let gen = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            exageostat_rs::server::loadgen::run(&LoadgenConfig {
                addr,
                requests: 20_000,
                conns: 3,
                points: 4,
                // Throttled so the stream is guaranteed to still be in
                // flight when the server goes away.
                rate: 2000.0,
                concurrency_per_conn: 4,
                connect_timeout: Duration::from_secs(5),
                ..LoadgenConfig::default()
            })
        })
    };
    std::thread::sleep(Duration::from_millis(150));
    handle.shutdown();
    handle.join();

    let report = gen.join().expect("loadgen must not panic").expect("run");
    assert!(
        report.errors > 0,
        "a mid-run shutdown must surface as failures: {}",
        report.summary()
    );
    // Every request is accounted for exactly once, success or failure.
    assert_eq!(
        report.sent + report.errors + report.shed + report.expired,
        20_000
    );
}

fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .expect("Threads: row");
    line["Threads:".len()..].trim().parse().expect("a count")
}

/// One connection pipelining `load`s gets a bounded number of
/// factorizing threads, not one each: the rest are refused with a retry
/// hint, every id is answered once, and other clients are served
/// meanwhile.
#[test]
#[cfg(target_os = "linux")]
fn pipelined_loads_are_bounded_reactor() {
    let handle = started_server(ServerConfig::default());
    let addr = handle.addr();

    // 500 sites at an explicit tile of 32: slow enough (tens of ms) that
    // the burst below is all in the server before the first one finishes.
    let mut rng = StdRng::seed_from_u64(606);
    let locs = jittered_grid(500, &mut rng);
    let locs_json: Vec<String> = locs.iter().map(|l| format!("[{},{}]", l.x, l.y)).collect();
    let z_json: Vec<String> = locs
        .iter()
        .map(|l| format!("{}", (7.0 * l.x).sin() + (5.0 * l.y).cos()))
        .collect();
    let n_loads = 64;
    let burst: String = (0..n_loads)
        .map(|id| {
            format!(
                "{{\"op\":\"load\",\"id\":{id},\"name\":\"burst\",\"theta\":[1.0,0.1,0.5],\
                 \"variant\":\"dense\",\"tile\":32,\"locs\":[{}],\"z\":[{}]}}\n",
                locs_json.join(","),
                z_json.join(",")
            )
        })
        .collect();

    // The process's thread count, sampled for as long as the loads run.
    // Other tests of this binary start threads too (servers of three,
    // loadgen's connections), hence a bound well above the cap — and well
    // below the 64 a thread per `load` would add.
    let before = os_threads();
    let peak = Arc::new(AtomicUsize::new(before));
    let done = Arc::new(AtomicBool::new(false));
    let sampler = {
        let (peak, done) = (peak.clone(), done.clone());
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                peak.fetch_max(os_threads(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    let (mut s, mut r) = connect(addr);
    s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    s.write_all(burst.as_bytes()).unwrap();

    // A second connection is served while the loads are in flight.
    assert_alive(addr);

    let (mut ok, mut shed) = (0usize, 0usize);
    let mut seen = vec![false; n_loads];
    for _ in 0..n_loads {
        let mut line = String::new();
        assert!(r.read_line(&mut line).unwrap() > 0, "server hung up");
        let v = parse_json(&line).unwrap();
        let id = v.get("id").unwrap().as_usize().unwrap();
        assert!(!seen[id], "duplicate response for id {id}");
        seen[id] = true;
        if v.get("ok").unwrap().as_bool() == Some(true) {
            assert_eq!(v.get("n_train").unwrap().as_usize(), Some(500));
            ok += 1;
        } else {
            let hint = v
                .get("retry_after_ms")
                .and_then(|h| h.as_usize())
                .unwrap_or_else(|| panic!("refused load without retry hint: {line}"));
            assert!((1..=10_000).contains(&hint));
            shed += 1;
        }
    }
    done.store(true, Ordering::Relaxed);
    sampler.join().unwrap();
    assert_eq!(ok + shed, n_loads);
    assert!(ok >= 1, "no load served");
    assert!(shed >= 1, "64 pipelined loads and none refused");
    let grew = peak.load(Ordering::Relaxed).saturating_sub(before);
    assert!(grew < 40, "{grew} threads appeared under a burst of loads");

    let m = roundtrip(&mut s, &mut r, "{\"op\":\"metrics\"}");
    let metrics = m.get("metrics").unwrap().to_json_string();
    assert!(metrics.contains("\"shed\""), "{metrics}");

    handle.shutdown();
    handle.join();
}

#[test]
fn client_that_never_reads_is_disconnected_not_buffered() {
    // A tiny outbound cap so the breach happens after the kernel's socket
    // buffers fill, without needing gigabytes of replies.
    let handle = started_server_seeded(
        404,
        ServerConfig {
            max_conn_outbound: 1024,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    // Pings with a fat echoed id (just under MAX_ID_LEN, so it IS echoed)
    // make each reply ~0.3 KiB; ~100k of them is ~30 MiB of replies —
    // far beyond what loopback kernel buffers can absorb, so the
    // server-side outbound queue must grow past the 1 KiB cap. The
    // client NEVER reads; the server must cut the socket rather than
    // queue replies forever.
    let mut hog = TcpStream::connect(addr).unwrap();
    hog.set_write_timeout(Some(Duration::from_secs(2))).unwrap();
    let fat_id = "x".repeat(240);
    let req = format!("{{\"op\":\"ping\",\"id\":\"{fat_id}\"}}\n");
    let burst: Vec<u8> = req.as_bytes().repeat(16);
    let mut write_failed = false;
    for _ in 0..(100_000 / 16) {
        if hog.write_all(&burst).is_err() {
            // EPIPE/RST: the server already cut us off mid-burst.
            write_failed = true;
            break;
        }
    }
    // Keep NOT reading for a beat: the reply backlog must land in the
    // server's outbound queue (kernel buffers are already full) and trip
    // the cap no matter how reads and dispatches interleaved above.
    std::thread::sleep(Duration::from_secs(2));

    // Whether or not the write side noticed, the read side must reach
    // EOF/reset in bounded time — the server does not keep the hog alive.
    hog.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut sink = vec![0u8; 64 * 1024];
    let mut drained = 0usize;
    let cut = loop {
        match hog.read(&mut sink) {
            Ok(0) => break true,
            Ok(n) => {
                // Replies buffered before the cut still arrive; they are
                // bounded by kernel buffers + the cap, not by the burst.
                drained += n;
                if drained > 64 << 20 {
                    break false;
                }
            }
            Err(e) if e.kind() == ErrorKind::ConnectionReset => break true,
            // Timeout or other read error without EOF: not a clean cut.
            Err(_) => break false,
        }
    };
    assert!(
        cut || write_failed,
        "server never disconnected a client that stopped reading (drained {drained} bytes)"
    );

    // Everyone else is unaffected.
    assert_alive(addr);
    handle.shutdown();
    handle.join();
}

#[test]
fn fin_mid_line_still_answers_the_complete_requests() {
    let handle = started_server_seeded(404, ServerConfig::default());
    let addr = handle.addr();

    // Three complete pipelined predicts, then a request cut mid-line,
    // then FIN (half-close: our read side stays open).
    let mut s = TcpStream::connect(addr).unwrap();
    let mut r = BufReader::new(s.try_clone().unwrap());
    for seq in 0..3 {
        let req = format!("{{\"op\":\"predict\",\"id\":{seq},\"points\":[[0.4,0.6]]}}\n");
        s.write_all(req.as_bytes()).unwrap();
    }
    s.write_all(b"{\"op\":\"predict\",\"id\":99,\"poin")
        .unwrap();
    s.shutdown(Shutdown::Write).unwrap();

    // The three complete requests are answered across the half-close; the
    // partial one is dropped silently; then the server closes cleanly.
    let mut ids = Vec::new();
    loop {
        let mut line = String::new();
        let n = r.read_line(&mut line).unwrap();
        if n == 0 {
            break;
        }
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{line}");
        ids.push(v.get("id").unwrap().as_usize().unwrap());
    }
    ids.sort_unstable();
    assert_eq!(
        ids,
        vec![0, 1, 2],
        "every complete request answered, the torn one dropped"
    );

    assert_alive(addr);
    handle.shutdown();
    handle.join();
}

#[test]
fn a_thousand_idle_connections_do_not_starve_the_active_one() {
    let handle = started_server_seeded(404, ServerConfig::default());
    let addr = handle.addr();

    // 1000 connections that say nothing, held open for the whole test.
    let mut idle = Vec::with_capacity(1000);
    for _ in 0..1000 {
        match TcpStream::connect(addr) {
            Ok(s) => idle.push(s),
            // Backlog pressure: give the reactor a beat to drain accepts.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    assert!(
        idle.len() >= 900,
        "could not raise the idle herd: {}",
        idle.len()
    );

    // An active connection must still see prompt round-trips. The bound
    // is generous (CI machines are slow) but finite — a reactor that
    // scans or re-polls all idle sockets per request would blow it.
    let active = TcpStream::connect(addr).unwrap();
    let mut r = BufReader::new(active.try_clone().unwrap());
    let mut w = active;
    let t0 = Instant::now();
    for seq in 0..20 {
        let req = format!("{{\"op\":\"predict\",\"id\":{seq},\"points\":[[0.5,0.5]]}}\n");
        w.write_all(req.as_bytes()).unwrap();
        let mut line = String::new();
        assert!(r.read_line(&mut line).unwrap() > 0, "server hung up");
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{line}");
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "20 round-trips took {elapsed:?} with 1000 idle connections"
    );

    // The high-water mark shows up in the metrics census.
    w.write_all(b"{\"op\":\"metrics\"}\n").unwrap();
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    let m = parse_json(&line).unwrap();
    let kinds: Vec<String> = m
        .get("metrics")
        .unwrap()
        .get("kernels")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|k| k.get("kind").and_then(|s| s.as_str().map(str::to_string)))
        .collect();
    assert!(
        kinds.iter().any(|k| k == "open_conns_hwm"),
        "reactor counters missing from metrics: {kinds:?}"
    );
    assert!(kinds.iter().any(|k| k == "ready_event"), "{kinds:?}");

    drop(idle);
    handle.shutdown();
    handle.join();
}
