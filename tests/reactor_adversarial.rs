//! Adversarial scenarios aimed at the event loop's own bookkeeping: abuses
//! that only exist because one thread owns every socket — outbound
//! backpressure from a client that never reads, half-close mid-line
//! during a pipelined burst, and a mass of idle connections that must not
//! degrade service on the active one.
//!
//! The hostile-client corpus lives in `server_adversarial.rs`.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use exageostat_rs::prelude::*;
use exageostat_rs::server::build_plan;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xgs_runtime::parse_json;

/// 150-site Matérn model under a server with the given knobs.
fn started_reactor(cfg: ServerConfig) -> exageostat_rs::server::ServerHandle {
    let mut rng = StdRng::seed_from_u64(404);
    let locs = jittered_grid(150, &mut rng);
    let kernel = ModelFamily::MaternSpace.kernel(&[1.0, 0.1, 0.5]);
    let z = simulate_field(kernel.as_ref(), &locs, 405);
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

fn assert_alive(addr: std::net::SocketAddr) {
    let probe = TcpStream::connect(addr).unwrap();
    let mut r = BufReader::new(probe.try_clone().unwrap());
    let mut w = probe;
    w.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    let v = parse_json(&line).unwrap();
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
}

#[test]
fn client_that_never_reads_is_disconnected_not_buffered() {
    // A tiny outbound cap so the breach happens after the kernel's socket
    // buffers fill, without needing gigabytes of replies.
    let handle = started_reactor(ServerConfig {
        max_conn_outbound: 1024,
        ..ServerConfig::default()
    });
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
    let handle = started_reactor(ServerConfig::default());
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
    let handle = started_reactor(ServerConfig::default());
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
