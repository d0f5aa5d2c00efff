//! Per-layer metrics of the traced run: one probe per crate, each a timed
//! call of that crate's public functions on the run's seeded inputs.
//!
//! Every traced run reports every per-layer metric, whatever its
//! workload. Probes that depend on a solver variant use the workload's.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xgs_cholesky::{logdet, solve_lower, ShardBackend, TiledFactor};
use xgs_core::{solve_weights, FactorEngine, ModelFamily};
use xgs_covariance::{bessel_k, cov_block};
use xgs_fleet::{FleetConfig, Supervisor};
use xgs_kernels::{
    gemm, gemm_flops, potrf, potrf_flops, shgemm, syrk_flops, syrk_lower_notrans, trsm_flops,
    trsm_right_lower_trans, Half, Precision, Trans,
};
use xgs_linalg::{rsvd_adaptive, LowRank, Matrix};
use xgs_runtime::{conversion_counts, execute, parse_json, Access, DataId, TaskGraph};
use xgs_server::{parse_request, serve, ModelRegistry, ServerConfig};
use xgs_tile::{
    decode_tile, encode_tile, encoded_len, SymTileMatrix, Tile, TileLayout, TlrConfig, Variant,
};

use crate::client;
use crate::data::{matern, CHUNK, SMALL_THETA, TRUTH};
use crate::speed::Gauge;
use crate::stats::{median, Metrics};
use crate::workload::{cli_model, model_op, variant_wire_name, Config, Stage, Tally};

/// How long a repeated micro-probe runs.
const SPIN: Duration = Duration::from_millis(150);
const DISPATCH_TASKS: usize = 20_000;
const PINGS: usize = 2000;

/// Seconds `f` took, at the machine speed measured around it.
fn secs(g: &mut Gauge, f: impl FnOnce()) -> f64 {
    g.mark();
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * g.mark()
}

/// Call `f` until `SPIN` has passed; seconds per call and the call count.
fn per_call(g: &mut Gauge, mut f: impl FnMut()) -> (f64, usize) {
    let mut calls = 0usize;
    let total = secs(g, || {
        let start = Instant::now();
        while calls < 3 || start.elapsed() < SPIN {
            f();
            calls += 1;
        }
    });
    (total / calls as f64, calls)
}

pub fn run(
    cfg: &Config,
    stage: &Stage,
    g: &mut Gauge,
    out: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    covariance(cfg, stage, g, out);
    let blocks = tile_and_linalg(cfg, stage, g, out);
    kernels(&blocks[0], g, out);
    cholesky(cfg, stage, g, out)?;
    runtime(cfg, stage, g, out)?;
    core(cfg, stage, g, out)?;
    server(cfg, stage, g, out)?;
    fleet(cfg, stage, g, out, tally)
}

fn covariance(cfg: &Config, stage: &Stage, g: &mut Gauge, out: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xbe55e1);
    let xs: Vec<f64> = (0..1_000_000)
        .map(|_| rng.random_range(0.01..20.0))
        .collect();
    let t = secs(g, || {
        black_box(xs.iter().map(|&x| bessel_k(TRUTH[2], x)).sum::<f64>());
    });
    out.push(
        "covariance.bessel_k_ns",
        t * 1e9 / xs.len() as f64,
        "ns",
        xs.len(),
    );

    let field = &stage.inputs.field;
    let kernel = matern(TRUTH);
    let layout = TileLayout::new(field.locs.len(), field.tile);
    let mut entries = 0usize;
    let t = secs(g, || {
        for j in 0..layout.nt() {
            for i in j..layout.nt() {
                let b = cov_block(
                    &kernel,
                    &field.locs[layout.tile_range(i)],
                    &field.locs[layout.tile_range(j)],
                );
                entries += b.rows() * b.cols();
                black_box(b);
            }
        }
    });
    out.push(
        "covariance.cov_block_entries_per_s",
        entries as f64 / t,
        "1/s",
        layout.stored_tiles(),
    );

    let targets = &stage.inputs.targets[..CHUNK];
    let t = secs(g, || {
        black_box(cov_block(&kernel, &field.locs, targets));
    });
    out.push(
        "covariance.cross_cov_entries_per_s",
        (field.locs.len() * CHUNK) as f64 / t,
        "1/s",
        1,
    );
}

/// Tile generation, the wire codec, and both compressors over the
/// off-diagonal `field` tiles. Returns those tiles' dense blocks.
fn tile_and_linalg(cfg: &Config, stage: &Stage, g: &mut Gauge, out: &mut Metrics) -> Vec<Matrix> {
    let field = &stage.inputs.field;
    let kernel = matern(TRUTH);
    let tcfg = TlrConfig::new(cfg.spec.variant, field.tile);
    let mut matrix = None;
    let mut gen = Vec::new();
    for _ in 0..3 {
        gen.push(secs(g, || {
            matrix = Some(SymTileMatrix::generate(
                &kernel,
                &field.locs,
                tcfg,
                &cli_model(),
            ))
        }));
    }
    let matrix = matrix.expect("generated above");
    out.push("tile.generate_s", median(&gen), "s", gen.len());
    out.push(
        "tile.footprint_bytes",
        matrix.footprint_bytes() as f64,
        "bytes",
        1,
    );
    let c = matrix.census();
    for (name, count) in [
        ("dense_f64", c.dense_f64),
        ("dense_f32", c.dense_f32),
        ("dense_f16", c.dense_f16),
        ("lr_f64", c.lr_f64),
        ("lr_f32", c.lr_f32),
    ] {
        out.push(
            &format!("tile.census.{name}"),
            count as f64,
            "count",
            c.total(),
        );
    }
    out.push(
        "tile.band_size_dense",
        matrix.band_size_dense as f64,
        "count",
        1,
    );

    let layout = matrix.layout();
    let blocks: Vec<Matrix> = (0..layout.nt())
        .flat_map(|j| (j + 1..layout.nt()).map(move |i| (i, j)))
        .map(|(i, j)| {
            cov_block(
                &kernel,
                &field.locs[layout.tile_range(i)],
                &field.locs[layout.tile_range(j)],
            )
        })
        .collect();

    // Compressors at the paper's 1e-8, relative to each tile's norm.
    let tol = |b: &Matrix| 1e-8 * b.norm_fro().max(f64::MIN_POSITIVE);
    let mut rank = 0usize;
    let t = secs(g, || {
        for b in &blocks {
            rank += LowRank::compress_aca(b, tol(b)).rank();
        }
    });
    out.push("linalg.aca_compress_s", t, "s", blocks.len());
    out.push(
        "linalg.aca_mean_rank",
        rank as f64 / blocks.len() as f64,
        "rank",
        blocks.len(),
    );
    let mut rank = 0usize;
    let t = secs(g, || {
        for (s, b) in blocks.iter().enumerate() {
            rank += rsvd_adaptive(b, tol(b), s as u64).2;
        }
    });
    out.push("linalg.rsvd_compress_s", t, "s", blocks.len());
    out.push(
        "linalg.rsvd_mean_rank",
        rank as f64 / blocks.len() as f64,
        "rank",
        blocks.len(),
    );

    // Wire codec over one tile of each storage kind: the first
    // off-diagonal block, which neighbours the diagonal and is not small.
    let near = &blocks[0];
    let tiles = [
        ("f64", Tile::dense(near.clone(), Precision::F64)),
        ("f32", Tile::dense(near.clone(), Precision::F32)),
        ("f16", Tile::dense(near.clone(), Precision::F16)),
        (
            "lr",
            Tile::low_rank(LowRank::compress_aca(near, tol(near)), Precision::F64),
        ),
    ];
    let mut bufs: Vec<Vec<u8>> = Vec::new();
    let total: usize = tiles.iter().map(|(_, t)| encoded_len(t)).sum();
    let (enc, calls) = per_call(g, || {
        bufs.clear();
        for (_, t) in &tiles {
            let mut buf = Vec::with_capacity(encoded_len(t));
            encode_tile(t, &mut buf);
            bufs.push(buf);
        }
    });
    out.push(
        "tile.wire_encode_mb_per_s",
        total as f64 / enc / 1e6,
        "MB/s",
        calls,
    );
    let (dec, calls) = per_call(g, || {
        for buf in &bufs {
            black_box(decode_tile(buf).expect("decodes what encode_tile wrote"));
        }
    });
    out.push(
        "tile.wire_decode_mb_per_s",
        total as f64 / dec / 1e6,
        "MB/s",
        calls,
    );
    for (name, t) in &tiles {
        out.push(
            &format!("tile.wire_bytes.{name}"),
            encoded_len(t) as f64,
            "bytes",
            1,
        );
    }
    blocks
}

/// The four tile kernels at the `field` tile size, on real covariance
/// data. Rates use the crate's own operation counts; the bytes are
/// computed from the operand sizes, not measured.
fn kernels(block: &Matrix, g: &mut Gauge, out: &mut Metrics) {
    let b = block.rows();
    let a64 = block.as_slice().to_vec();
    let a32: Vec<f32> = a64.iter().map(|&x| x as f32).collect();
    let a16: Vec<Half> = a64.iter().map(|&x| Half::from_f64(x)).collect();
    let mut c64 = vec![0.0f64; b * b];
    let mut c32 = vec![0.0f32; b * b];
    let flops = gemm_flops(b, b, b);
    let mut rate = |name: &str, flops: f64, bytes: usize, t: (f64, usize)| {
        out.push(
            &format!("kernels.{name}"),
            flops / t.0 / 1e9,
            "Gflop/s",
            t.1,
        );
        println!(
            "note kernels.{name}: {flops:.0} flop, {bytes} computed bytes, {:.2} flop/byte",
            flops / bytes as f64
        );
    };
    // C <- C - A B^T, the trailing update of the tile Cholesky.
    let t = per_call(g, || {
        gemm(
            Trans::No,
            Trans::Yes,
            b,
            b,
            b,
            -1.0,
            &a64,
            b,
            &a64,
            b,
            1.0,
            &mut c64,
            b,
        )
    });
    rate("gemm_gflops.f64", flops, 4 * b * b * 8, t);
    let t = per_call(g, || {
        gemm(
            Trans::No,
            Trans::Yes,
            b,
            b,
            b,
            -1.0f32,
            &a32,
            b,
            &a32,
            b,
            1.0,
            &mut c32,
            b,
        )
    });
    rate("gemm_gflops.f32", flops, 4 * b * b * 4, t);
    let t = per_call(g, || {
        shgemm(
            Trans::No,
            Trans::Yes,
            b,
            b,
            b,
            -1.0,
            &a16,
            b,
            &a16,
            b,
            1.0,
            &mut c32,
            b,
        )
    });
    rate("gemm_gflops.f16", flops, 2 * b * b * 2 + 2 * b * b * 4, t);

    // A well-conditioned SPD tile: A A^T + b I.
    let mut spd = vec![0.0f64; b * b];
    gemm(
        Trans::No,
        Trans::Yes,
        b,
        b,
        b,
        1.0,
        &a64,
        b,
        &a64,
        b,
        0.0,
        &mut spd,
        b,
    );
    for i in 0..b {
        spd[i * b + i] += b as f64;
    }
    let mut l = spd.clone();
    let t = per_call(g, || {
        l.copy_from_slice(&spd);
        potrf(b, &mut l, b).expect("SPD by construction");
    });
    rate("potrf_gflops.f64", potrf_flops(b), b * b * 8, t);
    let mut x = a64.clone();
    let t = per_call(g, || {
        x.copy_from_slice(&a64);
        trsm_right_lower_trans(b, b, 1.0, &l, b, &mut x, b);
    });
    rate("trsm_gflops.f64", trsm_flops(b, b), 2 * b * b * 8, t);
    let t = per_call(g, || {
        syrk_lower_notrans(b, b, -1.0, &a64, b, 1.0, &mut c64, b)
    });
    rate("syrk_gflops.f64", syrk_flops(b, b), 2 * b * b * 8, t);
}

fn cholesky(cfg: &Config, stage: &Stage, g: &mut Gauge, out: &mut Metrics) -> Result<(), String> {
    let field = &stage.inputs.field;
    let kernel = matern(TRUTH);
    let tcfg = TlrConfig::new(cfg.spec.variant, field.tile);
    let generate = || SymTileMatrix::generate(&kernel, &field.locs, tcfg, &cli_model());

    // The plain single-thread loop is the baseline the task runtime is
    // held against.
    let mut seq = TiledFactor::from_matrix(generate());
    let mut res = Ok(());
    let seq_s = secs(g, || res = seq.factorize_seq());
    res.map_err(|e| format!("sequential factorization: {e}"))?;
    let par = Arc::new(TiledFactor::from_matrix(generate()));
    let mut outcome = None;
    let par_s = secs(g, || outcome = Some(par.factorize_parallel(cfg.threads)));
    let (res, report) = outcome.expect("set above");
    res.map_err(|e| format!("parallel factorization: {e}"))?;
    out.push("cholesky.factor_seq_s", seq_s, "s", 1);
    out.push("cholesky.factor_par_s", par_s, "s", 1);
    out.push("cholesky.par_speedup", seq_s / par_s, "x", 1);
    out.push(
        "cholesky.factor_gflops",
        potrf_flops(field.locs.len()) / par_s / 1e9,
        "Gflop/s",
        1,
    );
    out.push(
        "runtime.exec_efficiency",
        report.efficiency(),
        "frac",
        report.tasks,
    );
    out.push(
        "runtime.exec_imbalance",
        report.imbalance(),
        "x",
        report.tasks,
    );

    let factor = stage.field.factor();
    let n = field.locs.len();
    let mut one = field.z.clone();
    let t = per_call(g, || {
        one.copy_from_slice(&field.z);
        solve_lower(factor, &mut one, 1);
    });
    out.push("cholesky.solve_lower_s.rhs1", t.0, "s", t.1);
    let rhs = cov_block(&kernel, &field.locs, &stage.inputs.targets[..CHUNK]).into_vec();
    let mut many = rhs.clone();
    let t = secs(g, || solve_lower(factor, &mut many, CHUNK));
    debug_assert_eq!(many.len(), n * CHUNK);
    out.push("cholesky.solve_lower_s.rhs500", t, "s", 1);
    let t = per_call(g, || {
        black_box(logdet(factor));
    });
    out.push("cholesky.logdet_s", t.0, "s", t.1);
    Ok(())
}

fn runtime(cfg: &Config, stage: &Stage, g: &mut Gauge, out: &mut Metrics) -> Result<(), String> {
    // Scheduler cost in isolation: empty tasks, either all independent
    // (each writes its own datum) or one serial chain (all write datum 0).
    for (name, chained) in [("independent", false), ("chain", true)] {
        let mut graph = TaskGraph::new();
        for i in 0..DISPATCH_TASKS {
            let datum = DataId(if chained { 0 } else { i as u64 });
            graph.insert("empty", vec![Access::write(datum)], 0, 0.0, || {});
        }
        let t = secs(g, || {
            black_box(execute(graph, cfg.threads, false));
        });
        out.push(
            &format!("runtime.dispatch_ns_per_task.{name}"),
            t * 1e9 / DISPATCH_TASKS as f64,
            "ns",
            DISPATCH_TASKS,
        );
    }

    let before = conversion_counts();
    model_op(
        &stage.inputs.field,
        TRUTH,
        cfg.spec.variant,
        &FactorEngine::Threads(cfg.threads),
    )?;
    let delta = conversion_counts().since(&before);
    out.push("runtime.conversions", delta.total() as f64, "count", 1);

    let lines = request_lines(cfg, stage);
    let bytes: usize = lines.iter().map(|(_, l)| l.len()).sum();
    let t = per_call(g, || {
        for (_, l) in &lines {
            black_box(parse_json(l).expect("the benchmark's own lines are JSON"));
        }
    });
    out.push(
        "runtime.parse_json_mb_per_s",
        bytes as f64 / t.0 / 1e6,
        "MB/s",
        t.1,
    );
    Ok(())
}

/// One light, one heavy and one `load` line as they go over the wire.
fn request_lines(cfg: &Config, stage: &Stage) -> [(&'static str, String); 3] {
    let pool = &stage.inputs.pool;
    let first = |heavy: bool| {
        pool.iter()
            .find(|r| r.heavy == heavy)
            .expect("pool has both classes")
    };
    let variant = variant_wire_name(cfg.spec.variant);
    [
        (
            "light",
            client::with_id(1, &client::predict_body(first(false))),
        ),
        (
            "heavy",
            client::with_id(2, &client::predict_body(first(true))),
        ),
        (
            "load",
            client::with_id(
                3,
                &client::load_body("reload", &stage.inputs.reload, TRUTH, variant),
            ),
        ),
    ]
}

fn core(cfg: &Config, stage: &Stage, g: &mut Gauge, out: &mut Metrics) -> Result<(), String> {
    for (name, ds, theta) in [
        ("small", &stage.inputs.small, SMALL_THETA),
        ("field", &stage.inputs.field, TRUTH),
    ] {
        let mut res = None;
        let t = secs(g, || {
            res = Some(xgs_server::build_plan(
                ModelFamily::MaternSpace,
                &theta,
                cfg.spec.variant,
                ds.tile,
                ds.locs.clone(),
                &ds.z,
                cfg.threads,
            ))
        });
        res.expect("set above")?;
        out.push(&format!("core.plan_build_s.{name}"), t, "s", 1);
    }
    let t = per_call(g, || {
        black_box(solve_weights(stage.field.factor(), &stage.inputs.field.z));
    });
    out.push("core.solve_weights_s", t.0, "s", t.1);
    Ok(())
}

fn server(cfg: &Config, stage: &Stage, g: &mut Gauge, out: &mut Metrics) -> Result<(), String> {
    for (name, line) in &request_lines(cfg, stage) {
        let t = per_call(g, || {
            black_box(parse_request(line.trim_end()).expect("the benchmark's own requests parse"));
        });
        out.push(
            &format!("server.parse_request_us.{name}"),
            t.0 * 1e6,
            "us",
            t.1,
        );
    }

    // Pure frontend round trip: closed-loop `ping` on one connection,
    // against the workload's server or one started just for this.
    let own = match &stage.server {
        Some(_) => None,
        None => {
            let registry = Arc::new(ModelRegistry::new());
            registry.insert("small", stage.small.clone());
            Some(
                serve(&ServerConfig::default(), registry)
                    .map_err(|e| format!("ping probe server: {e}"))?,
            )
        }
    };
    let addr = own
        .as_ref()
        .or(stage.server.as_ref())
        .expect("one of the two")
        .addr();
    g.mark();
    let rtts = (|| -> std::io::Result<Vec<f64>> {
        let mut conn = client::Conn::connect(addr)?;
        let line = client::with_id(0, "\"op\":\"ping\"}");
        (0..PINGS)
            .map(|_| {
                let t = Instant::now();
                conn.call(&line)?;
                Ok(t.elapsed().as_secs_f64() * 1e6)
            })
            .collect()
    })();
    let scale = g.mark();
    if let Some(handle) = own {
        handle.shutdown();
        handle.join();
    }
    let rtts = rtts.map_err(|e| format!("ping probe: {e}"))?;
    out.push(
        "server.ping_rtt_us",
        median(&rtts) * scale,
        "us",
        rtts.len(),
    );
    Ok(())
}

/// A fleet of its own, started cold: start-up, first and warm
/// factorization of dense Σ(θ_truth), and what went over the wire.
fn fleet(
    cfg: &Config,
    stage: &Stage,
    g: &mut Gauge,
    out: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let field = &stage.inputs.field;
    let kernel = matern(TRUTH);
    let tcfg = TlrConfig::new(Variant::DenseF64, field.tile);
    let fresh = || {
        TiledFactor::from_matrix(SymTileMatrix::generate(
            &kernel,
            &field.locs,
            tcfg,
            &cli_model(),
        ))
    };

    let mut started = None;
    let start_s = secs(g, || {
        started = Some(Supervisor::start(FleetConfig::process(
            cfg.worker_exe.clone(),
            2,
        )))
    });
    let fleet = started
        .expect("set above")
        .map_err(|e| format!("fleet probe: {e}"))?;
    out.push("fleet.start_s", start_s, "s", 1);
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let mut f = fresh();
        let mut report = None;
        times.push(secs(g, || report = Some(fleet.factorize(&mut f))));
        let report = report
            .expect("set above")
            .map_err(|e| format!("fleet probe: {e}"))?;
        last = Some((f, report));
    }
    drop(fleet);
    let (sharded, report) = last.expect("three factorizations ran");
    out.push("fleet.first_factor_s", times[0], "s", 1);
    let warm = median(&times[1..]);
    out.push("fleet.warm_factor_s", warm, "s", times.len() - 1);

    let local = Arc::new(fresh());
    let mut res = Ok(());
    let local_s = secs(g, || res = local.factorize_parallel(cfg.threads).0);
    res.map_err(|e| format!("fleet probe: {e}"))?;
    out.push("cholesky.shard_overhead_ratio", warm / local_s, "x", 1);
    let same = sharded.to_dense_lower().as_slice() == local.to_dense_lower().as_slice();
    tally.check(same, || {
        "fleet probe: sharded factor differs from the in-process factor".to_string()
    });

    let tile = report.metrics.wire.iter().find(|w| w.kind == "tile");
    out.push(
        "cholesky.shard_tile_bytes",
        tile.map_or(0, |w| w.bytes) as f64,
        "bytes",
        1,
    );
    out.push(
        "cholesky.shard_frames",
        tile.map_or(0, |w| w.frames) as f64,
        "count",
        1,
    );
    Ok(())
}
