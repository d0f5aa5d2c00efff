//! Run-level tests of the shard stack over in-process worker threads and
//! real loopback sockets. Fleet-level behaviour (process launch, standby
//! promotion, monitor) is tested in `xgs-fleet` and `tests/shard_equivalence`.

use super::coordinator::{reader_thread, Event};
use super::plan::{build_shard_plan, canonical_tasks, steps, Step};
use super::proto::{K_ASSIGN, K_HEARTBEAT, K_HELLO, K_JOIN};
use super::*;
use crate::dag::UniformMeta;
use crate::task::Kernel;
use rand::SeedableRng;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::thread::JoinHandle;
use xgs_covariance::{jittered_grid, morton_order, Matern, MaternParams};
use xgs_kernels::Precision;
use xgs_runtime::shard::{read_frame, write_frame, WireWriter};
use xgs_runtime::{block_cyclic_owner, task_census, WireStats};
use xgs_tile::{FlopKernelModel, PrecisionRule, SymTileMatrix, TlrConfig, Variant};

fn build(n: usize, nb: usize, variant: Variant) -> TiledFactor {
    build_with_config(n, TlrConfig::new(variant, nb))
}

fn build_with_config(n: usize, cfg: TlrConfig) -> TiledFactor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mut locs = jittered_grid(n, &mut rng);
    morton_order(&mut locs);
    let kernel = Matern::new(MaternParams::new(1.0, 0.05, 0.5));
    let model = FlopKernelModel {
        dense_rate: 45.0e9,
        mem_factor: 1.0,
    };
    TiledFactor::from_matrix(SymTileMatrix::generate(&kernel, &locs, cfg, &model))
}

type WorkerHandle = JoinHandle<io::Result<u64>>;

/// Connect-and-admit: one in-process worker thread behind a registered
/// loopback connection, what `xgs-fleet`'s `launch` does for real fleets.
/// Tests that need raw streams (custom [`ReplacementSource`]s, forced
/// options) build their grids from this.
fn admit_local(member: u32, chaos: Option<ChaosSpec>) -> (TcpStream, WorkerHandle) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut conn = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (server_end, _) = listener.accept().unwrap();
    let opts = WorkerOptions {
        idle_timeout: None,
        chaos,
        ..WorkerOptions::default()
    };
    let handle = std::thread::spawn(move || worker_loop_with(server_end, opts));
    admit_worker(&mut conn, member, false, Duration::from_secs(10)).unwrap();
    (conn, handle)
}

fn local_grid(shards: usize, chaos: Option<ChaosSpec>) -> (Vec<TcpStream>, Vec<WorkerHandle>) {
    (0..shards as u32).map(|w| admit_local(w, chaos)).unzip()
}

/// Closing the connections retires the workers; none may have errored.
fn retire(streams: Vec<TcpStream>, handles: impl IntoIterator<Item = WorkerHandle>) {
    drop(streams);
    for h in handles {
        h.join().unwrap().unwrap();
    }
}

/// Factorize `f` over `streams` with no replacements, asserting hazard
/// edges and the frame plan even in release.
fn run(f: &mut TiledFactor, streams: &mut Vec<TcpStream>) -> Result<ShardReport, ShardError> {
    f.factorize_elastic(streams, &forced(), &mut NoReplacement)
}

fn forced() -> ShardOptions {
    ShardOptions {
        validate: true,
        precheck: true,
        ..ShardOptions::default()
    }
}

fn event_count(report: &ShardReport, kind: &str) -> u64 {
    report
        .metrics
        .kernels
        .iter()
        .find(|k| k.kind == kind)
        .map_or(0, |k| k.count)
}

fn wire_row(wire: &[WireStats], kind: &str) -> (u64, u64) {
    wire.iter()
        .find(|s| s.kind == kind)
        .map_or((0, 0), |s| (s.frames, s.bytes))
}

#[test]
fn grid_shape_matches_perfmodel_process_grid() {
    assert_eq!(grid_shape(1), (1, 1));
    assert_eq!(grid_shape(2), (1, 2));
    assert_eq!(grid_shape(3), (1, 3));
    assert_eq!(grid_shape(4), (2, 2));
    assert_eq!(grid_shape(5), (1, 5));
    assert_eq!(grid_shape(6), (2, 3));
    assert_eq!(grid_shape(12), (3, 4));
    assert_eq!(grid_shape(0), (1, 1));
}

#[test]
fn sharded_matches_sequential_bitwise_in_process() {
    for (n, nb, shards, variant) in [
        (200, 64, 4usize, Variant::DenseF64),
        (200, 64, 3, Variant::MpDense),
        // TLR: the planned == measured TILE frame count still binds.
        (200, 64, 4, Variant::MpDenseTlr),
        // NT = 2 (3 stored tiles) on 6 workers: most idle.
        (100, 60, 6, Variant::DenseF64),
    ] {
        let mut seq = build(n, nb, variant);
        seq.factorize_seq().unwrap();

        let mut shd = build(n, nb, variant);
        let (mut streams, handles) = local_grid(shards, None);
        let report = run(&mut shd, &mut streams).unwrap();
        retire(streams, handles);

        assert_eq!(
            seq.to_dense_lower().as_slice(),
            shd.to_dense_lower().as_slice(),
            "sharded factor must be bitwise equal ({shards} shards, {variant:?})"
        );
        let nt = seq.nt();
        let total = nt + nt * (nt - 1) / 2 + nt * (nt * nt - 1) / 6;
        assert_eq!(report.metrics.tasks, total);
        let per_worker: Vec<u64> = report
            .metrics
            .worker_stats
            .iter()
            .map(|w| w.tasks)
            .collect();
        assert_eq!(per_worker.iter().sum::<u64>() as usize, total);
        let idle = per_worker.contains(&0);
        assert_eq!(idle, shards > nt * (nt + 1) / 2, "idle workers");
        let v = report.metrics.validation.expect("validation forced on");
        assert_eq!(v.war_edges, 0);
        assert!(v.raw_edges > 0);
    }
}

#[test]
fn sharded_indefinite_fails_with_global_pivot() {
    let mut f = build(150, 50, Variant::DenseF64);
    {
        let idx = f.layout.stored_index(1, 1);
        let mut t = f.tiles[idx].lock();
        if let xgs_tile::TileStorage::Dense(d) = &mut t.storage {
            d[(5, 5)] = -100.0;
        }
    }
    let (mut streams, handles) = local_grid(2, None);
    match run(&mut f, &mut streams).unwrap_err() {
        ShardError::Factor(FactorError::NotPositiveDefinite { pivot }) => {
            assert!(pivot >= 50, "pivot {pivot} should be inside tile 1");
        }
        other => panic!("expected factor error, got {other}"),
    }
    // The failed run shut the sockets: workers are torn down, not left
    // hanging.
    for h in handles {
        let _ = h.join().unwrap();
    }
}

/// The acceptance test of the one walk: for every grid the equivalence
/// tests use plus a ragged one, the step iterator's per-kind item counts
/// are the `check_shard_plan` summary and the executed run's frame census.
#[test]
fn step_iterator_is_the_checked_and_the_executed_plan() {
    for workers in [1usize, 2, 3, 4, 6] {
        let (p, q) = grid_shape(workers);
        let mut f = build(200, 64, Variant::DenseF64);
        let (mut seeds, mut forwards, mut tasks, mut publishes) = (0u64, 0u64, 0u64, 0u64);
        for step in steps(f.nt(), p, q) {
            match step {
                Step::Seed { .. } => seeds += 1,
                Step::Forward { .. } => forwards += 1,
                Step::Task { publish, .. } => {
                    tasks += 1;
                    publishes += u64::from(publish);
                }
                Step::Barrier { .. } => {}
            }
        }
        let tiles = seeds + forwards + publishes;

        let canon = canonical_tasks(&f, p, q);
        let plan = build_shard_plan(&f, &canon.meta, p, q);
        let summary = xgs_analysis::check_shard_plan(&plan)
            .unwrap_or_else(|e| panic!("{workers} workers: {e}"));
        assert_eq!((summary.tasks, summary.forwards), (tasks, forwards));
        assert_eq!(summary.transfers, seeds + forwards, "{p}x{q}");
        assert_eq!(summary.tile_frames, tiles, "{p}x{q}");
        let census = task_census(canon.meta.iter().map(|m| m.owner), workers);
        assert_eq!(summary.per_worker, census);
        xgs_runtime::crosscheck_static_edges(&canon.accesses).unwrap();

        let (mut streams, handles) = local_grid(workers, None);
        let report = run(&mut f, &mut streams).unwrap();
        retire(streams, handles);
        let frames = |kind| wire_row(&report.metrics.wire, kind).0;
        assert_eq!((frames("task"), frames("done")), (tasks, tasks), "{p}x{q}");
        assert_eq!(frames("tile"), tiles, "{p}x{q}");
        assert_eq!(frames("hello"), workers as u64);
        assert_eq!(frames("heartbeat"), 2 * workers as u64);
    }
}

fn plan_2x2() -> (
    TiledFactor,
    super::plan::CanonicalTasks,
    xgs_analysis::ShardPlan,
) {
    let f = build(200, 64, Variant::DenseF64);
    let canon = canonical_tasks(&f, 2, 2);
    let plan = build_shard_plan(&f, &canon.meta, 2, 2);
    (f, canon, plan)
}

#[test]
fn shard_plan_missing_tile_rejected_with_diagnostic() {
    let (_f, _canon, mut plan) = plan_2x2();
    // Drop the initial TILE transfer seeding tile (1, 0) to its owner:
    // the first TRSM that writes it must be rejected, and the message
    // must say which task, which tile, and which worker.
    let victim = plan
        .events
        .iter()
        .position(|e| {
            matches!(
                e,
                xgs_analysis::PlanEvent::Transfer {
                    tile: (1, 0),
                    initial: true,
                    ..
                }
            )
        })
        .expect("plan seeds every stored tile");
    plan.events.remove(victim);
    let err = xgs_analysis::check_shard_plan(&plan).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("trsm") && msg.contains("(1,0)"),
        "diagnostic should name the kernel and tile: {msg}"
    );
}

#[test]
fn shard_plan_forward_before_publish_rejected() {
    let (_f, _canon, mut plan) = plan_2x2();
    // Move the first non-initial forward ahead of every task: the tile
    // it ships hasn't been produced yet.
    let fwd = plan
        .events
        .iter()
        .position(|e| matches!(e, xgs_analysis::PlanEvent::Transfer { initial: false, .. }))
        .expect("multi-worker plans forward tiles");
    let ev = plan.events.remove(fwd);
    plan.events.insert(0, ev);
    let err = xgs_analysis::check_shard_plan(&plan).unwrap_err();
    assert!(
        matches!(err, xgs_analysis::PlanError::ForwardBeforeProduce { .. }),
        "got {err}"
    );
}

#[test]
fn shard_plan_misplaced_task_rejected() {
    let (f, mut canon, _plan) = plan_2x2();
    // Place the first TRSM on the wrong worker.
    let t = canon
        .meta
        .iter()
        .position(|m| m.at.kind == Kernel::Trsm)
        .expect("nt > 1 has TRSMs");
    canon.meta[t].owner = (canon.meta[t].owner + 1) % 4;
    let plan = build_shard_plan(&f, &canon.meta, 2, 2);
    let err = xgs_analysis::check_shard_plan(&plan).unwrap_err();
    assert!(
        matches!(err, xgs_analysis::PlanError::WrongOwner { .. }),
        "got {err}"
    );
}

/// Both static-format variants, two runs each on the same warm streams:
/// the measured census equals the closed-form projection of the *declared*
/// formats, run after run, and the factor stays bitwise.
#[test]
fn measured_wire_census_matches_projection_on_warm_streams() {
    let f64_everywhere = UniformMeta {
        precision_of: |_, _| Precision::F64,
    };
    // The data-independent band rule (diagonal f64, everything else f16)
    // pins the formats, so the projection is exact and the narrow-payload
    // savings are guaranteed — the same setup CI's measured-vs-projected
    // comparison runs.
    let mut band = TlrConfig::new(Variant::MpDense, 64);
    band.precision_rule = PrecisionRule::Band {
        f64_band: 1,
        f32_band: 1,
    };
    let f16_off_diagonal = UniformMeta {
        precision_of: |i, j| {
            if i == j {
                Precision::F64
            } else {
                Precision::F16
            }
        },
    };
    let dense = TlrConfig::new(Variant::DenseF64, 64);
    for (cfg, meta) in [(dense, &f64_everywhere), (band, &f16_off_diagonal)] {
        let mut seq = build_with_config(200, cfg);
        seq.factorize_seq().unwrap();
        let projected = project_wire_census(meta, 200, 64, 4);
        let (mut streams, handles) = local_grid(4, None);
        for _run in 0..2 {
            let mut shd = build_with_config(200, cfg);
            let report = run(&mut shd, &mut streams).unwrap();
            assert_eq!(
                seq.to_dense_lower().as_slice(),
                shd.to_dense_lower().as_slice(),
                "warm-fleet factorization must stay bitwise ({:?})",
                cfg.variant
            );
            // The census rides HEARTBEAT and the connections stay open.
            assert_eq!(report.metrics.wire, projected, "{:?}", cfg.variant);
            if cfg.variant == Variant::MpDense {
                // Narrow tiles really shrink the wire: strictly below the
                // dense-f64 projection of the same grid, and the report's
                // conversion ledger shows the demotions/promotions.
                let (_, bytes) = wire_row(&projected, "tile");
                let dense = project_wire_census(&f64_everywhere, 200, 64, 4);
                assert!(bytes > 0 && bytes < wire_row(&dense, "tile").1);
                let c = &report.metrics.conversions;
                assert!(
                    c.f64_to_f16 > 0 && c.f16_to_f64 > 0,
                    "wire crossings must be ledgered: {c:?}"
                );
            }
        }
        // Dropping the connections retires the still-warm workers.
        retire(streams, handles);
    }
}

/// In-process [`ReplacementSource`]: a fresh [`admit_local`] worker per
/// death, optionally chaos-injected itself.
struct LocalRespawn {
    handles: Vec<WorkerHandle>,
    next_member: u32,
    origin: ReplacementOrigin,
    chaos: Option<ChaosSpec>,
}

impl LocalRespawn {
    fn new(origin: ReplacementOrigin) -> LocalRespawn {
        LocalRespawn {
            handles: Vec::new(),
            next_member: 100,
            origin,
            chaos: None,
        }
    }
}

impl ReplacementSource for LocalRespawn {
    fn replace(&mut self, _worker: usize) -> Option<ReplacementWorker> {
        let (stream, handle) = admit_local(self.next_member, self.chaos);
        self.handles.push(handle);
        self.next_member += 1;
        Some(ReplacementWorker {
            stream,
            origin: self.origin,
        })
    }
}

/// Member 3 owns tiles (1,1), (3,1) and (3,3) on the 2x2 grid; dying on
/// receipt of its fourth TASK — the step-1 POTRF — leaves
/// completed-but-unpublished trailing work to replay while the
/// coordinator is blocked on that very panel.
const MID_PANEL: ChaosSpec = ChaosSpec {
    member: 3,
    trigger: ChaosTrigger::TaskStart(3),
    disconnect: true,
};

#[test]
fn elastic_recovery_mid_panel_stays_bitwise() {
    for origin in [ReplacementOrigin::Respawn, ReplacementOrigin::Standby] {
        let mut seq = build(200, 64, Variant::DenseF64);
        seq.factorize_seq().unwrap();

        let mut shd = build(200, 64, Variant::DenseF64);
        let (mut streams, handles) = local_grid(4, Some(MID_PANEL));
        let mut source = LocalRespawn::new(origin);
        let report = shd
            .factorize_elastic(&mut streams, &forced(), &mut source)
            .unwrap();
        retire(streams, handles.into_iter().chain(source.handles));

        assert_eq!(
            seq.to_dense_lower().as_slice(),
            shd.to_dense_lower().as_slice(),
            "recovered factor must stay bitwise equal to sequential ({origin:?})"
        );
        assert_eq!(event_count(&report, "worker_death"), 1);
        assert!(event_count(&report, "panel_replay") >= 1);
        let promoted = u64::from(origin == ReplacementOrigin::Standby);
        assert_eq!(event_count(&report, "standby_promote"), promoted);
        // Replay re-runs tasks, so the hazard validator must still see
        // a clean linearization (original order stamps).
        let v = report.metrics.validation.expect("validation forced on");
        assert_eq!(v.war_edges, 0);
    }
}

#[test]
fn repeated_deaths_still_recover() {
    // The same member id is never reassigned, but a respawned member
    // can die again: target the second incarnation too by killing
    // member 100 (the first respawn) after two tasks.
    let mut seq = build(200, 64, Variant::DenseF64);
    seq.factorize_seq().unwrap();
    let mut shd = build(200, 64, Variant::DenseF64);
    let (mut streams, handles) = local_grid(4, Some(MID_PANEL));
    let mut source = LocalRespawn::new(ReplacementOrigin::Respawn);
    source.chaos = Some(ChaosSpec {
        member: 100,
        trigger: ChaosTrigger::TaskStart(2),
        disconnect: true,
    });
    let report = shd
        .factorize_elastic(&mut streams, &ShardOptions::default(), &mut source)
        .unwrap();
    retire(streams, handles.into_iter().chain(source.handles));
    assert_eq!(
        seq.to_dense_lower().as_slice(),
        shd.to_dense_lower().as_slice()
    );
    assert_eq!(event_count(&report, "worker_death"), 2);
}

#[test]
fn drain_death_departs_without_replacement() {
    // Dying on the census HEARTBEAT means every task is done and the
    // factor is fully published: even with no replacement source the
    // run must succeed, recording the death but no replay.
    let mut seq = build(200, 64, Variant::DenseF64);
    seq.factorize_seq().unwrap();
    let mut shd = build(200, 64, Variant::DenseF64);
    let chaos = ChaosSpec {
        member: 2,
        trigger: ChaosTrigger::Drain,
        disconnect: true,
    };
    let (mut streams, handles) = local_grid(4, Some(chaos));
    let report = run(&mut shd, &mut streams).unwrap();
    retire(streams, handles);
    assert_eq!(
        seq.to_dense_lower().as_slice(),
        shd.to_dense_lower().as_slice()
    );
    assert_eq!(event_count(&report, "worker_death"), 1);
    assert_eq!(event_count(&report, "panel_replay"), 0);
    assert_eq!(event_count(&report, "standby_promote"), 0);
}

#[test]
fn death_without_replacement_still_fails() {
    let mut shd = build(200, 64, Variant::DenseF64);
    let (mut streams, handles) = local_grid(4, Some(MID_PANEL));
    let err = run(&mut shd, &mut streams).unwrap_err();
    assert!(
        matches!(err, ShardError::WorkerLost { worker: 3, .. }),
        "got {err}"
    );
    for h in handles {
        let _ = h.join().unwrap();
    }
}

/// Satellite regression: a truncated `HEARTBEAT` echo used to decode as
/// "0 tasks executed" and surface later as a misleading census mismatch.
/// It is a bad frame, like a bad `DONE`: `Lost`, and the reader's last
/// event.
#[test]
fn short_heartbeat_echo_is_a_bad_frame_not_a_zero_census() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut worker_side = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (coordinator_side, _) = listener.accept().unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let stop = Arc::new(AtomicBool::new(false));
    let reader = std::thread::spawn(move || reader_thread(5, coordinator_side, tx, stop));
    write_frame(&mut worker_side, K_HEARTBEAT, &[1, 2, 3, 4]).unwrap();
    match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
        Event::Lost { from: 5, detail } => {
            assert!(detail.contains("bad HEARTBEAT frame"), "{detail}")
        }
        _other => panic!("a 4-byte echo must be reported as Lost"),
    }
    reader.join().unwrap();
    assert!(rx.try_recv().is_err(), "Lost is the reader's final event");
}

#[test]
fn worker_without_join_ack_times_out_with_diagnostic() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let conn = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (server_end, _) = listener.accept().unwrap();
    // Supervisor side (conn) never answers the JOIN.
    let err = worker_loop_with(
        server_end,
        WorkerOptions {
            handshake_timeout: Duration::from_millis(200),
            idle_timeout: None,
            chaos: None,
        },
    )
    .unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    assert!(
        err.to_string().contains("JOIN acknowledgement"),
        "diagnostic should say what was missing: {err}"
    );
    drop(conn);
}

fn join_payload(version: u8) -> WireWriter {
    let mut w = WireWriter::new();
    w.put_u8(version);
    w.put_u32(8);
    w.put_u8(0b111);
    w
}

#[test]
fn join_decoding_is_forward_compatible_and_version_gated() {
    // Trailing bytes after the known JOIN fields are future protocol
    // growth, not an error.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut worker_side = TcpStream::connect(addr).unwrap();
    let (mut sup_side, _) = listener.accept().unwrap();
    let mut w = join_payload(PROTO_VERSION);
    w.put_u64(0xDEAD_BEEF); // a field from the future
    write_frame(&mut worker_side, K_JOIN, &w.buf).unwrap();
    let info = admit_worker(&mut sup_side, 7, true, Duration::from_secs(5)).unwrap();
    assert_eq!((info.cores, info.precisions), (8, 0b111));
    let (kind, _) = read_frame(&mut worker_side, Some(Duration::from_secs(5)), None).unwrap();
    assert_eq!(kind, K_ASSIGN);

    // An old worker — version 2, which still drained over SHUTDOWN/BYE —
    // is named and rejected at JOIN.
    let mut old_worker = TcpStream::connect(addr).unwrap();
    let (mut sup_side, _) = listener.accept().unwrap();
    write_frame(&mut old_worker, K_JOIN, &join_payload(2).buf).unwrap();
    let err = admit_worker(&mut sup_side, 8, false, Duration::from_secs(5)).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("protocol version 2") && msg.contains("upgrade"),
        "got: {msg}"
    );
}

fn hello_payload(version: u8) -> WireWriter {
    let mut h = WireWriter::new();
    h.put_u8(version);
    for _ in 0..4 {
        h.put_u32(1);
    }
    h.put_u32(64);
    h.put_u64(64);
    h
}

#[test]
fn hello_accepts_trailing_bytes_and_rejects_old_version() {
    // Drive a real worker loop by hand: JOIN/ASSIGN, then a HELLO padded
    // with future fields, then a HEARTBEAT — it must still be answering —
    // and a clean exit when the connection closes.
    let (mut sup, handle) = admit_local(0, None);
    let mut h = hello_payload(PROTO_VERSION);
    h.put_u64(0xFEED); // future field
    write_frame(&mut sup, K_HELLO, &h.buf).unwrap();
    write_frame(&mut sup, K_HEARTBEAT, &7u64.to_le_bytes()).unwrap();
    let (kind, echo) = read_frame(&mut sup, Some(Duration::from_secs(5)), None).unwrap();
    assert_eq!((kind, echo.len()), (K_HEARTBEAT, 16));
    retire(vec![sup], [handle]);

    // Same dance with an old-version HELLO: the worker must refuse with
    // an error naming the versions, not mis-decode.
    let (mut sup, handle) = admit_local(0, None);
    write_frame(&mut sup, K_HELLO, &hello_payload(PROTO_VERSION - 1).buf).unwrap();
    let err = handle.join().unwrap().unwrap_err();
    assert!(err.to_string().contains("protocol version"), "got: {err}");
}

#[test]
fn chaos_spec_parses_both_trigger_forms() {
    assert_eq!(
        ChaosSpec::parse("member=1,tasks=5"),
        Some(ChaosSpec {
            member: 1,
            trigger: ChaosTrigger::TaskStart(5),
            disconnect: false,
        })
    );
    assert_eq!(
        ChaosSpec::parse("member=3,on=drain"),
        Some(ChaosSpec {
            member: 3,
            trigger: ChaosTrigger::Drain,
            disconnect: false,
        })
    );
    assert_eq!(ChaosSpec::parse("member=1"), None);
    assert_eq!(ChaosSpec::parse("tasks=2"), None);
    assert_eq!(ChaosSpec::parse("member=x,tasks=2"), None);
    assert_eq!(ChaosSpec::parse("member=1,on=fire"), None);
}

#[test]
fn recovery_plan_validator_rejects_bad_replays() {
    use xgs_analysis::{RecoveryEvent, RecoveryPlan};
    let (f, canon, base) = plan_2x2();
    let meta = &canon.meta;
    let n = meta.len();

    // A legal "death before anything ran" plan: worker 1 lost with
    // nothing dispatched — replay is just its seeds from originals.
    let seeds = |lost: usize| -> Vec<RecoveryEvent> {
        let mut ev = Vec::new();
        for j in 0..f.nt() {
            for i in j..f.nt() {
                if block_cyclic_owner(i, j, 2, 2) == lost {
                    ev.push(RecoveryEvent::SeedOriginal { tile: (i, j) });
                }
            }
        }
        ev
    };
    let ok = RecoveryPlan {
        lost: 1,
        completed: vec![false; n],
        dispatched: vec![false; n],
        events: seeds(1),
    };
    xgs_analysis::check_recovery_plan(&base, &ok).unwrap();

    // Claiming published bytes for a tile that is not final: rejected.
    let mut bad = ok.clone();
    if let Some(RecoveryEvent::SeedOriginal { tile }) = bad.events.first().copied() {
        bad.events[0] = RecoveryEvent::SeedPublished { tile };
    }
    let err = xgs_analysis::check_recovery_plan(&base, &bad).unwrap_err();
    assert!(
        matches!(err, xgs_analysis::PlanError::RecoveryBadSeed { .. }),
        "got {err}"
    );

    // A dispatched, uncompleted task that is never replayed: rejected
    // as incomplete.
    let victim = meta.iter().position(|m| m.owner == 1).unwrap();
    let mut dispatched = vec![false; n];
    dispatched[victim] = true;
    let missing = RecoveryPlan {
        lost: 1,
        completed: vec![false; n],
        dispatched,
        events: seeds(1),
    };
    let err = xgs_analysis::check_recovery_plan(&base, &missing).unwrap_err();
    assert!(
        matches!(err, xgs_analysis::PlanError::RecoveryIncomplete { .. }),
        "got {err}"
    );

    // Replaying another worker's task: rejected.
    let foreign = meta.iter().position(|m| m.owner == 0).unwrap();
    let mut stolen = ok.clone();
    stolen.dispatched[foreign] = true;
    stolen.events.push(RecoveryEvent::Replay { task: foreign });
    let err = xgs_analysis::check_recovery_plan(&base, &stolen).unwrap_err();
    assert!(
        matches!(err, xgs_analysis::PlanError::RecoveryBadReplay { .. }),
        "got {err}"
    );
}
