//! Cross-process equivalence suite for the sharded tile Cholesky.
//!
//! These tests spawn *real* worker processes of the `exageostat` binary
//! (via `CARGO_BIN_EXE`) and prove the paper-level claim behind the
//! multi-process backend: the 2D block-cyclic distribution changes where
//! tile kernels run, never what they compute. The factor must be bitwise
//! identical to the single-process sequential reference, predictions
//! served through a `--shards` server must be checksum-identical to an
//! unsharded server, and a lost or wedged worker must surface as a clean
//! error within the deadline — never a hang, never a poisoned registry.
//! Every fleet here is an `xgs-fleet` `Supervisor`: scoped to one
//! factorization it is the spawn-per-run configuration, kept across
//! several it is the warm one.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use exageostat_rs::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xgs_cholesky::{
    NoReplacement, ShardBackend, ShardError, ShardOptions, ShardReport, TiledFactor,
};
use xgs_fleet::{FleetConfig, Supervisor};
use xgs_server::{loadgen, LoadgenConfig, ModelRegistry, ServerConfig};

const EXE: &str = env!("CARGO_BIN_EXE_exageostat");

fn matrix(n: usize, nb: usize, seed: u64, variant: Variant) -> SymTileMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut locs = jittered_grid(n, &mut rng);
    morton_order(&mut locs);
    let kernel = Matern::new(MaternParams::new(1.0, 0.1, 0.5));
    SymTileMatrix::generate(
        &kernel,
        &locs,
        TlrConfig::new(variant, nb),
        &FlopKernelModel::default(),
    )
}

fn assert_bitwise_equal(a: &Matrix, b: &Matrix, context: &str) {
    assert_eq!(a.rows(), b.rows(), "{context}");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{context}: element {i} diverged ({x} vs {y})"
        );
    }
}

/// The tentpole guarantee: for several problem sizes, tile grids and
/// process grids — a single worker, square, rectangular, and more workers
/// than tiles — a factorization fanned out over worker *processes*
/// reproduces the sequential single-process factor bit for bit, and
/// executes exactly the full DAG's task census. Each fleet has no
/// standbys and is dropped at scope exit — spawn-per-run — and must leave
/// no worker process behind.
#[test]
fn sharded_factor_is_bitwise_equal_across_process_grids() {
    let shapes: &[(usize, usize, usize, Variant)] = &[
        (200, 50, 1, Variant::DenseF64), // 4x4 tiles on a 1x1 grid: no forwards at all
        (200, 64, 2, Variant::MpDense),  // mixed precision on a 1x2 grid
        (300, 50, 4, Variant::DenseF64), // 6x6 tiles on a 2x2 grid
        (260, 64, 3, Variant::MpDense),  // mixed precision on a 1x3 grid
        (150, 40, 6, Variant::DenseF64), // 4x4 tiles on a 2x3 grid
        (130, 70, 4, Variant::MpDense),  // 2x2 tiles on a 2x2 grid: some workers idle
    ];
    for &(n, nb, shards, variant) in shapes {
        let context = format!("n={n} nb={nb} shards={shards} {variant:?}");
        let mut reference = TiledFactor::from_matrix(matrix(n, nb, 11, variant));
        reference.factorize_seq().unwrap();

        let mut sharded = TiledFactor::from_matrix(matrix(n, nb, 11, variant));
        let fleet = Supervisor::start(FleetConfig::process(EXE.into(), shards))
            .unwrap_or_else(|e| panic!("{context}: spawn failed: {e}"));
        let addr = fleet.addr().to_string();
        let rep = fleet
            .factorize(&mut sharded)
            .unwrap_or_else(|e| panic!("{context}: sharded factorization failed: {e}"));
        assert_eq!(procs_mentioning(&addr), shards, "{context}: fleet size");
        drop(fleet);
        assert_eq!(procs_mentioning(&addr), 0, "{context}: orphan workers");

        assert_bitwise_equal(
            &reference.to_dense_lower(),
            &sharded.to_dense_lower(),
            &context,
        );
        let nt = n.div_ceil(nb);
        let dag_tasks = nt + nt * (nt - 1) / 2 + nt * (nt * nt - 1) / 6;
        assert_eq!(rep.metrics.tasks, dag_tasks, "{context}");
        assert_eq!(
            rep.worker_tasks.iter().sum::<u64>() as usize,
            dag_tasks,
            "{context}: per-worker census must sum to the DAG"
        );
    }
}

fn run_cli(args: &[&str]) -> String {
    let out = std::process::Command::new(EXE).args(args).output().unwrap();
    assert!(
        out.status.success(),
        "exageostat {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// `predict --shards 4` through the CLI: same log-likelihood line and
/// byte-identical prediction CSV as the single-process run, and stable
/// across five repetitions (the determinism sweep).
#[test]
fn cli_predict_with_shards_matches_single_process_five_times() {
    let dir = std::env::temp_dir().join(format!("xgs-shardeq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.csv");
    let data_s = data.to_str().unwrap();
    run_cli(&[
        "simulate",
        "--n",
        "300",
        "--params",
        "1.0,0.1,0.5",
        "--seed",
        "21",
        "--out",
        data_s,
    ]);

    let base_out = dir.join("pred-base.csv");
    let base_stdout = run_cli(&[
        "predict",
        "--data",
        data_s,
        "--targets",
        data_s,
        "--theta",
        "1.0,0.1,0.5",
        "--tile",
        "64",
        "--uncertainty",
        "--out",
        base_out.to_str().unwrap(),
    ]);
    let base_csv = std::fs::read(&base_out).unwrap();
    let base_llh = base_stdout.lines().next().unwrap().to_string();

    for round in 0..5 {
        let out = dir.join(format!("pred-shard-{round}.csv"));
        let stdout = run_cli(&[
            "predict",
            "--data",
            data_s,
            "--targets",
            data_s,
            "--theta",
            "1.0,0.1,0.5",
            "--tile",
            "64",
            "--shards",
            "4",
            "--uncertainty",
            "--out",
            out.to_str().unwrap(),
        ]);
        assert_eq!(
            stdout.lines().next().unwrap(),
            base_llh,
            "round {round}: llh line diverged"
        );
        assert_eq!(
            std::fs::read(&out).unwrap(),
            base_csv,
            "round {round}: prediction CSV diverged"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn roundtrip(conn: &mut TcpStream, line: &str) -> String {
    conn.write_all(line.as_bytes()).unwrap();
    conn.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    resp
}

/// `load` + `predict` through a server whose factorizations fan out to
/// real worker processes: every response checksum must match the
/// unsharded server's answer on the same request stream.
#[test]
fn sharded_server_predictions_are_checksum_identical_to_unsharded() {
    let mut rng = StdRng::seed_from_u64(91);
    let locs = jittered_grid(150, &mut rng);
    let kernel = ModelFamily::MaternSpace.kernel(&[1.0, 0.1, 0.5]);
    let z = simulate_field(kernel.as_ref(), &locs, 92);
    let locs_json: String = locs
        .iter()
        .map(|l| format!("[{},{}]", l.x, l.y))
        .collect::<Vec<_>>()
        .join(",");
    let z_json: String = z.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
    let load_line = format!(
        "{{\"op\":\"load\",\"name\":\"m\",\"theta\":[1.0,0.1,0.5],\
         \"variant\":\"dense\",\"tile\":48,\"locs\":[{locs_json}],\"z\":[{z_json}]}}"
    );

    let run_one = |shard: Option<Arc<dyn ShardBackend>>| -> u64 {
        let cfg = ServerConfig {
            shard,
            ..Default::default()
        };
        let handle = xgs_server::serve(&cfg, Arc::new(ModelRegistry::new())).unwrap();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        let resp = roundtrip(&mut conn, &load_line);
        assert!(resp.contains("\"ok\":true"), "load failed: {resp}");
        let report = loadgen::run(&LoadgenConfig {
            addr: handle.addr().to_string(),
            model: "m".to_string(),
            requests: 30,
            conns: 3,
            points: 4,
            seed: 7,
            uncertainty: true,
            shutdown: true,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(report.errors, 0, "{}", report.summary());
        handle.join();
        report.checksum
    };

    let unsharded = run_one(None);
    let fleet = Supervisor::start(FleetConfig::process(EXE.into(), 2)).unwrap();
    let sharded = run_one(Some(Arc::new(fleet)));
    assert_eq!(
        unsharded, sharded,
        "sharded factorization changed served predictions"
    );
}

/// Fault injection with no replacement available (no standbys, respawn
/// off): a worker SIGKILLed before the first frame, then one that
/// SIGKILLs itself mid-flight, must each fail the run with a clean error
/// well within the deadline — and the *same* supervisor must then refill
/// its grid and factorize bitwise-equal (one factorization's crash cannot
/// poison the next).
#[test]
fn death_with_no_replacement_fails_within_deadline_and_the_fleet_recovers() {
    let deadline = Duration::from_secs(30);
    let mut cfg = FleetConfig::process(EXE.into(), 4);
    cfg.respawn = false;
    cfg.deadline = deadline;
    cfg.heartbeat_every = Duration::from_secs(3600); // the kill beats the monitor
                                                     // Members 0..3 are the first grid, 4..7 the second, 8..11 the third.
    cfg.env = vec![(
        "XGS_CHAOS_ABORT".to_string(),
        "member=5,tasks=3".to_string(),
    )];
    let fleet = Supervisor::start(cfg).unwrap();
    let addr = fleet.addr().to_string();
    let expect_clean_failure = |what: &str| {
        let mut f = TiledFactor::from_matrix(matrix(300, 50, 13, Variant::DenseF64));
        let t0 = Instant::now();
        let err = fleet
            .factorize(&mut f)
            .expect_err("a dead worker cannot produce a factor");
        assert!(
            matches!(
                err,
                ShardError::WorkerLost { .. } | ShardError::Timeout { .. }
            ),
            "{what}: unexpected error class: {err}"
        );
        assert!(
            t0.elapsed() < deadline,
            "{what}: took {:?}, deadline {deadline:?}",
            t0.elapsed()
        );
    };

    // Killed before the first frame: the coordinator must detect the lost
    // worker during the run, not block until the deadline.
    assert!(fleet.kill_member(2), "grid member 2 must exist");
    expect_clean_failure("idle kill");
    // The refilled grid's member 5 dies on its fourth TASK, mid-panel.
    expect_clean_failure("mid-flight kill");

    // Recovery: the third grid on the same supervisor matches sequential.
    let mut reference = TiledFactor::from_matrix(matrix(200, 50, 14, Variant::DenseF64));
    reference.factorize_seq().unwrap();
    let mut again = TiledFactor::from_matrix(matrix(200, 50, 14, Variant::DenseF64));
    let rep = fleet
        .factorize(&mut again)
        .expect("refilled fleet after two crashes");
    assert_bitwise_equal(
        &reference.to_dense_lower(),
        &again.to_dense_lower(),
        "recovery",
    );
    assert_eq!(event_count(&rep, "worker_death"), 0, "recovery");
    drop(fleet);
    assert_eq!(procs_mentioning(&addr), 0, "orphan workers");
}

/// Count live processes whose command line mentions `needle` — the
/// supervisor's registration address is unique per test, so this is the
/// orphan check: after the fleet drops, no worker of that fleet may
/// survive.
fn procs_mentioning(needle: &str) -> usize {
    let mut n = 0;
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return 0;
    };
    for entry in dir.flatten() {
        let cmdline = entry.path().join("cmdline");
        if let Ok(bytes) = std::fs::read(&cmdline) {
            let line = String::from_utf8_lossy(&bytes).replace('\0', " ");
            if line.contains(needle) && line.contains("worker") {
                n += 1;
            }
        }
    }
    n
}

fn event_count(rep: &ShardReport, kind: &str) -> u64 {
    rep.metrics
        .kernels
        .iter()
        .find(|k| k.kind == kind)
        .map_or(0, |k| k.count)
}

/// The fault matrix over *real* worker processes: SIGKILL one worker at
/// each phase of a warm-fleet factorization — while the coordinator is
/// still seeding, mid-panel, and during the end-of-run gather — and
/// assert the recovered factor is bitwise-equal to sequential, the run
/// finishes within deadline, the lifecycle events are in the metrics,
/// and no orphan worker process survives the fleet.
#[test]
fn warm_fleet_survives_sigkill_at_every_phase() {
    let deadline = Duration::from_secs(60);
    let mut reference = TiledFactor::from_matrix(matrix(300, 50, 13, Variant::DenseF64));
    reference.factorize_seq().unwrap();

    // Phase 1 — seeding: the worker is already dead when the coordinator
    // starts sending HELLO/seed frames (killed while idle in the pool;
    // members 0..3 are the grid, member 4 the standby).
    {
        let mut cfg = FleetConfig::process(EXE.into(), 4);
        cfg.standbys = 1;
        cfg.deadline = deadline;
        cfg.heartbeat_every = Duration::from_secs(3600); // kill beats the monitor
        let fleet = Supervisor::start(cfg).unwrap();
        let addr = fleet.addr().to_string();
        assert!(fleet.kill_member(1), "grid member 1 must exist");
        let t0 = Instant::now();
        let mut f = TiledFactor::from_matrix(matrix(300, 50, 13, Variant::DenseF64));
        let rep = fleet.factorize(&mut f).expect("seeding-phase death");
        assert!(t0.elapsed() < deadline, "took {:?}", t0.elapsed());
        assert_bitwise_equal(&reference.to_dense_lower(), &f.to_dense_lower(), "seeding");
        assert_eq!(event_count(&rep, "worker_death"), 1, "seeding");
        assert_eq!(event_count(&rep, "standby_promote"), 1, "seeding");
        drop(fleet);
        assert_eq!(procs_mentioning(&addr), 0, "seeding: orphan workers");
    }

    // Phase 2 — mid-panel: member 3 SIGKILLs itself on receipt of its
    // fourth TASK (a trailing-update/panel boundary), forcing a replay of
    // the affected panel's tasks from the last published tile versions.
    {
        let mut cfg = FleetConfig::process(EXE.into(), 4);
        cfg.deadline = deadline;
        cfg.env = vec![(
            "XGS_CHAOS_ABORT".to_string(),
            "member=3,tasks=3".to_string(),
        )];
        let fleet = Supervisor::start(cfg).unwrap();
        let addr = fleet.addr().to_string();
        let t0 = Instant::now();
        let mut f = TiledFactor::from_matrix(matrix(300, 50, 13, Variant::DenseF64));
        let rep = fleet.factorize(&mut f).expect("mid-panel death");
        assert!(t0.elapsed() < deadline, "took {:?}", t0.elapsed());
        assert_bitwise_equal(
            &reference.to_dense_lower(),
            &f.to_dense_lower(),
            "mid-panel",
        );
        assert_eq!(event_count(&rep, "worker_death"), 1, "mid-panel");
        assert!(event_count(&rep, "panel_replay") >= 1, "mid-panel");
        // No standby registered: recovery respawned locally.
        assert_eq!(event_count(&rep, "standby_promote"), 0, "mid-panel");
        drop(fleet);
        assert_eq!(procs_mentioning(&addr), 0, "mid-panel: orphan workers");
    }

    // Phase 3 — gather: member 2 dies on the drain heartbeat, after its
    // last task. The departed-worker path: no replacement, no replay, the
    // factor is already complete and exact.
    {
        let mut cfg = FleetConfig::process(EXE.into(), 4);
        cfg.deadline = deadline;
        cfg.heartbeat_every = Duration::from_secs(3600); // only the drain pings
        cfg.env = vec![(
            "XGS_CHAOS_ABORT".to_string(),
            "member=2,on=drain".to_string(),
        )];
        let fleet = Supervisor::start(cfg).unwrap();
        let addr = fleet.addr().to_string();
        let t0 = Instant::now();
        let mut f = TiledFactor::from_matrix(matrix(300, 50, 13, Variant::DenseF64));
        let rep = fleet.factorize(&mut f).expect("gather-phase death");
        assert!(t0.elapsed() < deadline, "took {:?}", t0.elapsed());
        assert_bitwise_equal(&reference.to_dense_lower(), &f.to_dense_lower(), "gather");
        assert_eq!(event_count(&rep, "worker_death"), 1, "gather");
        assert_eq!(event_count(&rep, "panel_replay"), 0, "gather");
        drop(fleet);
        assert_eq!(procs_mentioning(&addr), 0, "gather: orphan workers");
    }
}

/// Satellite regression: a `worker --connect` whose supervisor never
/// acknowledges the JOIN must exit nonzero with a diagnostic within its
/// handshake budget — never block forever on the fresh socket.
#[test]
fn worker_without_join_ack_exits_nonzero_with_diagnostic() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // Accept and go silent: no ASSIGN ever comes.
    let silent = std::thread::spawn(move || listener.accept().map(|(s, _)| s));

    let t0 = Instant::now();
    let out = std::process::Command::new(EXE)
        .args(["worker", "--connect", &addr, "--handshake-timeout", "1"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "worker must fail when the JOIN is never acknowledged"
    );
    assert!(
        stderr.contains("no JOIN acknowledgement"),
        "diagnostic missing: {stderr}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "worker blocked {:?} past its handshake budget",
        t0.elapsed()
    );
    drop(silent.join());
}

/// Fault injection: a worker that answers with a *half-written* tile frame
/// and then stalls forever. The coordinator must expire its deadline and
/// return `Timeout` instead of blocking on the truncated frame.
#[test]
fn half_written_tile_frame_times_out_instead_of_hanging() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let conn = TcpStream::connect(addr).unwrap();
    let (srv, _) = listener.accept().unwrap();

    // Fake worker: consume frames until the first TASK (kind 3), then
    // emit a TILE frame header (kind 2) promising 64 payload bytes, send
    // only 10, and wedge.
    let _fake = std::thread::spawn(move || {
        let mut s = srv;
        loop {
            let Ok((kind, _payload)) =
                xgs_runtime::read_frame(&mut s, Some(Duration::from_secs(60)), None)
            else {
                return;
            };
            if kind == 3 {
                let mut partial = Vec::new();
                partial.extend_from_slice(&64u32.to_le_bytes());
                partial.push(2);
                partial.extend_from_slice(&[0u8; 10]);
                if s.write_all(&partial).is_ok() {
                    let _ = s.flush();
                }
                std::thread::sleep(Duration::from_secs(600));
                return;
            }
        }
    });

    let mut f = TiledFactor::from_matrix(matrix(120, 40, 17, Variant::DenseF64));
    let opts = ShardOptions {
        grid_p: 1,
        grid_q: 1,
        deadline: Duration::from_secs(2),
        validate: false,
        precheck: true,
    };
    let t0 = Instant::now();
    let err = f
        .factorize_elastic(&mut vec![conn], &opts, &mut NoReplacement)
        .expect_err("a truncated frame cannot complete a factorization");
    assert!(
        matches!(
            err,
            ShardError::Timeout { .. } | ShardError::WorkerLost { .. }
        ),
        "unexpected error class: {err}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(15),
        "coordinator hung {:?} on a half-written frame",
        t0.elapsed()
    );
}

/// A backend whose every factorization fails the way a fleet with a
/// broken worker executable does.
#[derive(Debug)]
struct BrokenBackend;

impl ShardBackend for BrokenBackend {
    fn factorize(&self, _f: &mut TiledFactor) -> Result<ShardReport, ShardError> {
        Err(ShardError::Spawn(
            "/nonexistent/xgs-worker: not found".into(),
        ))
    }

    fn describe(&self) -> String {
        "broken".into()
    }
}

/// A worker executable that cannot start fails the fleet launch with
/// `Spawn`, before any server could be handed the backend; and a server
/// whose backend fails answers `load` with `ok:false` and keeps serving:
/// the registry is never poisoned by a failed factorization.
#[test]
fn sharded_server_survives_a_broken_worker_executable() {
    let err = Supervisor::start(FleetConfig::process("/nonexistent/xgs-worker".into(), 2))
        .expect_err("a missing worker executable cannot form a fleet");
    assert!(matches!(err, ShardError::Spawn(_)), "got {err}");

    let cfg = ServerConfig {
        shard: Some(Arc::new(BrokenBackend)),
        ..Default::default()
    };
    let handle = xgs_server::serve(&cfg, Arc::new(ModelRegistry::new())).unwrap();
    let mut conn = TcpStream::connect(handle.addr()).unwrap();

    let mut rng = StdRng::seed_from_u64(5);
    let locs = jittered_grid(60, &mut rng);
    let kernel = ModelFamily::MaternSpace.kernel(&[1.0, 0.1, 0.5]);
    let z = simulate_field(kernel.as_ref(), &locs, 6);
    let locs_json: String = locs
        .iter()
        .map(|l| format!("[{},{}]", l.x, l.y))
        .collect::<Vec<_>>()
        .join(",");
    let z_json: String = z.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
    let resp = roundtrip(
        &mut conn,
        &format!(
            "{{\"op\":\"load\",\"name\":\"doomed\",\"theta\":[1.0,0.1,0.5],\
             \"variant\":\"dense\",\"tile\":32,\"locs\":[{locs_json}],\"z\":[{z_json}]}}"
        ),
    );
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(resp.contains("factorization failed"), "{resp}");

    // The failed load left nothing behind and the server still answers.
    let models = roundtrip(&mut conn, "{\"op\":\"models\"}");
    assert!(models.contains("\"models\":[]"), "{models}");
    let pong = roundtrip(&mut conn, "{\"op\":\"ping\"}");
    assert!(pong.contains("\"ok\":true"), "{pong}");

    handle.shutdown();
    handle.join();
}
