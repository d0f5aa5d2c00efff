//! CLI subcommand implementations.
//!
//! Each command is a thin orchestration over the library crates and returns
//! its report as a `String` (so the logic is unit-testable without touching
//! stdout).

use crate::cli::args::{ArgError, Args};
use crate::cli::io;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use xgs_cholesky::{worker_loop_with, ChaosSpec, ShardBackend, WorkerOptions};
use xgs_core::mle::{FitOptimizer, FitOptions};
use xgs_core::{
    krige, log_likelihood_engine, mspe, simulate_field, FactorEngine, ModelFamily,
    NelderMeadOptions, PsoOptions,
};
use xgs_covariance::{jittered_grid, morton_order, spacetime_grid, CovarianceKernel};
use xgs_fleet::{FleetConfig, Supervisor};
use xgs_perfmodel::{project_with_metrics, Correlation, ScaleConfig, SolverVariant};
use xgs_tile::{
    decision_heatmap, FlopKernelModel, PrecisionRule, SymTileMatrix, TlrConfig, Variant,
};

/// Top-level command error.
#[derive(Debug)]
pub enum CmdError {
    Arg(ArgError),
    Io(io::IoError),
    Run(String),
}

impl std::fmt::Display for CmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CmdError::Arg(e) => write!(f, "{e}"),
            CmdError::Io(e) => write!(f, "{e}"),
            CmdError::Run(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CmdError {}

impl From<ArgError> for CmdError {
    fn from(e: ArgError) -> Self {
        CmdError::Arg(e)
    }
}

impl From<io::IoError> for CmdError {
    fn from(e: io::IoError) -> Self {
        CmdError::Io(e)
    }
}

pub const USAGE: &str = "\
exageostat — geostatistical modeling & prediction with the MP+TLR tile Cholesky

USAGE: exageostat <command> [--flag value ...]

COMMANDS:
  simulate  generate a synthetic dataset
            --n <sites> --params <θ,..> [--kernel matern|gneiting]
            [--slots <t>] [--domain <d>] [--seed <s>] --out <csv>
  fit       maximum-likelihood estimation
            --data <csv> [--kernel matern|gneiting] [--variant dense|mp|mp-tlr]
            [--tile <nb>] [--start <θ,..>] [--max-evals <k>]
            [--optimizer nm|pso] [--workers <w>] [--precision-rule adaptive|band]
            [--shards <k>]  (factorize on a warm fleet of k workers, see README)
            [--standbys <k>]  (warm spare workers promoted on death)
            [--se]  (append observed-information standard errors)
            [--metrics <json>]  (write merged runtime metrics, see README)
  predict   kriging at target sites
            --data <csv> --targets <csv> --theta <θ,..> [--kernel ...]
            [--variant ...] [--tile <nb>] [--uncertainty] [--out <csv>]
            [--shards <k>] [--standbys <k>]  (warm worker fleet)
            [--metrics <json>]  (write the factorization's runtime metrics)
  maps      per-tile format decision map (Fig. 9 style)
            --data <csv> --theta <θ,..> [--kernel ...] [--variant ...] [--tile <nb>]
  scale     simulated Fugaku-scale run (Figs. 7/10/11 style)
            --n <size> --nodes <p> [--nb <tile>] [--corr weak|medium|strong|st-strong]
            [--variant dense|fp32|mp|mp-tlr]
            [--metrics <json>]  (write the event replay's kernel census)
  serve     long-lived prediction service with a cached factor
            --data <csv> --theta <θ,..> [--kernel ...] [--variant ...] [--tile <nb>]
            [--name <model>] [--addr <host:port>] [--solvers <k>] [--max-batch <points>]
            [--queue-points <budget>]  (shed predicts past this backlog)
            [--max-models <k>] [--model-ttl <seconds>]  (registry LRU/TTL eviction)
            [--shards <k>] [--standbys <k>]  (persistent warm worker fleet)
            [--metrics <json>]  (write the server metrics after shutdown)
            protocol: newline-delimited JSON over TCP, see README;
            stop with {\"op\":\"shutdown\"} (drains in-flight batches)
  worker    one shard of a --shards factorization (started automatically;
            external machines may dial a fleet's registration address)
            --connect <host:port>  (supervisor registration address)
            [--handshake-timeout <s>] [--idle-timeout <s>]  (liveness budgets)
  bayes     posterior sampling over the covariance parameters (MCMC)
            --data <csv> --start <θ,..> [--kernel ...] [--variant ...]
            [--iterations <k>] [--burn-in <k>] [--seed <s>]

ENVIRONMENT:
  XGS_PRECHECK=1  run the pre-execution DAG/shard-plan safety checks
                  (xgs-analysis) in release builds too; always on in
                  debug builds. See README \"Static analysis\".
  XGS_CHAOS_ABORT=member=M,tasks=N | member=M,on=drain
                  fault injection: the fleet member with ASSIGNed id M
                  SIGKILLs itself at the named point (chaos tests only).
";

fn parse_family(args: &Args) -> Result<ModelFamily, CmdError> {
    match args.str_or("kernel", "matern").as_str() {
        "matern" => Ok(ModelFamily::MaternSpace),
        "gneiting" => Ok(ModelFamily::GneitingSpaceTime),
        other => Err(CmdError::Arg(ArgError(format!(
            "unknown kernel '{other}' (matern|gneiting)"
        )))),
    }
}

/// Validate a user-supplied parameter vector against the family's arity
/// and parameter domain.
fn check_theta(family: ModelFamily, theta: &[f64], flag: &str) -> Result<(), CmdError> {
    family
        .check_domain(theta)
        .map_err(|e| CmdError::Arg(ArgError(format!("--{flag} {e}"))))
}

fn parse_variant(args: &Args) -> Result<Variant, CmdError> {
    match args.str_or("variant", "mp-tlr").as_str() {
        "dense" => Ok(Variant::DenseF64),
        "mp" => Ok(Variant::MpDense),
        "mp-tlr" => Ok(Variant::MpDenseTlr),
        other => Err(CmdError::Arg(ArgError(format!(
            "unknown variant '{other}' (dense|mp|mp-tlr)"
        )))),
    }
}

fn tile_config(args: &Args, variant: Variant, n: usize) -> Result<TlrConfig, CmdError> {
    let nb = args.usize_or("tile", (n / 10).clamp(32, 512))?;
    let mut cfg = TlrConfig::new(variant, nb);
    match args.str_or("precision-rule", "adaptive").as_str() {
        "adaptive" => {}
        "band" => {
            cfg.precision_rule = PrecisionRule::Band {
                f64_band: args.usize_or("f64-band", 3)?,
                f32_band: args.usize_or("f32-band", 8)?,
            };
        }
        other => {
            return Err(CmdError::Arg(ArgError(format!(
                "unknown precision rule '{other}' (adaptive|band)"
            ))))
        }
    }
    Ok(cfg)
}

/// `--metrics <path>`: dump a runtime metrics report as JSON, or note why
/// there is none (the sequential engine collects nothing).
fn write_metrics(
    args: &Args,
    metrics: Option<&xgs_runtime::MetricsReport>,
    out: &mut String,
) -> Result<(), CmdError> {
    let Some(path) = args.get("metrics") else {
        return Ok(());
    };
    match metrics {
        Some(m) => {
            std::fs::write(path, m.to_json())
                .map_err(|e| CmdError::Run(format!("could not write metrics to {path}: {e}")))?;
            out.push_str(&format!("wrote runtime metrics to {path}\n"));
        }
        None => out.push_str(
            "no runtime metrics to write: the sequential engine ran (use --workers != 1)\n",
        ),
    }
    Ok(())
}

/// `--shards N`: a persistent warm fleet (`xgs-fleet`) of N worker
/// processes of this same executable, reused across every factorization
/// the command makes, with standby promotion / local respawn when a
/// worker dies mid-run (0 / absent = in-process engines). `--standbys K`
/// registers K warm spares beyond the grid.
fn shard_backend(args: &Args) -> Result<Option<Arc<dyn ShardBackend>>, CmdError> {
    match args.usize_or("shards", 0)? {
        0 => Ok(None),
        n => {
            let exe = std::env::current_exe()
                .map_err(|e| CmdError::Run(format!("cannot locate the worker executable: {e}")))?;
            let mut cfg = FleetConfig::process(exe, n);
            cfg.standbys = args.usize_or("standbys", 0)?;
            let fleet = Supervisor::start(cfg)
                .map_err(|e| CmdError::Run(format!("cannot start the worker fleet: {e}")))?;
            Ok(Some(Arc::new(fleet) as Arc<dyn ShardBackend>))
        }
    }
}

/// Engine selection shared by `predict` and `serve`: sharded when
/// `--shards` is set, otherwise the `--workers` convention.
fn factor_engine(args: &Args) -> Result<FactorEngine, CmdError> {
    Ok(match shard_backend(args)? {
        Some(backend) => FactorEngine::Sharded(backend),
        None => FactorEngine::from_workers(args.usize_or("workers", 0)?),
    })
}

/// The kernel-time model used by the CLI: TLR-friendly at small tiles,
/// calibrated behaviour at paper-scale tiles (the penalty only matters for
/// the structure decision, see DESIGN.md).
fn cli_model(nb: usize) -> FlopKernelModel {
    if nb >= 512 {
        FlopKernelModel::default()
    } else {
        FlopKernelModel {
            dense_rate: 45.0e9,
            mem_factor: 1.0,
        }
    }
}

/// `simulate` — synthesize a dataset and write it to CSV.
pub fn cmd_simulate(args: &Args) -> Result<String, CmdError> {
    let family = parse_family(args)?;
    let n = args.usize_or("n", 1000)?;
    let slots = args.usize_or("slots", 1)?;
    let domain = args.f64_or("domain", 1.0)?;
    let seed = args.usize_or("seed", 0)? as u64;
    let theta = args
        .f64_list("params")?
        .ok_or_else(|| ArgError("missing required flag --params".to_string()))?;
    check_theta(family, &theta, "params")?;
    let out = args.require("out")?;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut locs = match family {
        ModelFamily::MaternSpace => jittered_grid(n, &mut rng),
        ModelFamily::GneitingSpaceTime => {
            let spatial = jittered_grid(n.div_ceil(slots.max(1)), &mut rng);
            let mut st = spacetime_grid(&spatial, slots.max(1));
            st.truncate(n);
            st
        }
    };
    for l in &mut locs {
        l.x *= domain;
        l.y *= domain;
    }
    morton_order(&mut locs);
    let kernel = family.kernel(&theta);
    let z = simulate_field(kernel.as_ref(), &locs, seed + 1);
    io::save(
        out,
        &locs,
        &[("z", &z)],
        family == ModelFamily::GneitingSpaceTime,
    )?;
    Ok(format!(
        "wrote {n} sites to {out} (kernel {:?}, θ = {theta:?}, seed {seed})",
        family
    ))
}

/// `fit` — MLE on a CSV dataset.
pub fn cmd_fit(args: &Args) -> Result<String, CmdError> {
    let family = parse_family(args)?;
    let variant = parse_variant(args)?;
    let ds = io::load(args.require("data")?)?;
    let z =
        ds.z.as_ref()
            .ok_or_else(|| CmdError::Run("dataset has no 'z' column to fit".into()))?;
    let cfg = tile_config(args, variant, ds.locs.len())?;
    let model = cli_model(cfg.tile_size);

    let max_evals = args.usize_or("max-evals", 200)?;
    let workers = args.usize_or("workers", 0)?;
    let optimizer = match args.str_or("optimizer", "nm").as_str() {
        "nm" => FitOptimizer::NelderMead(NelderMeadOptions {
            max_evals,
            f_tol: 1e-6,
            initial_step: 0.35,
        }),
        "pso" => FitOptimizer::ParticleSwarm(PsoOptions {
            particles: args.usize_or("particles", 12)?,
            iterations: (max_evals / 12).max(1),
            ..Default::default()
        }),
        other => {
            return Err(CmdError::Arg(ArgError(format!(
                "unknown optimizer '{other}' (nm|pso)"
            ))))
        }
    };
    let start = args.f64_list("start")?;
    if let Some(st) = &start {
        check_theta(family, st, "start")?;
    }
    let opts = FitOptions {
        optimizer,
        start,
        workers,
        shard: shard_backend(args)?,
    };

    let (r, secs) = {
        let t = std::time::Instant::now();
        let r = xgs_core::fit(family, &ds.locs, z, &cfg, &model, &opts);
        (r, t.elapsed().as_secs_f64())
    };
    let names = family.param_names();
    let mut out = format!(
        "fitted {} ({} sites, variant {}, tile {}):\n",
        match family {
            ModelFamily::MaternSpace => "Matérn space model",
            ModelFamily::GneitingSpaceTime => "Gneiting space-time model",
        },
        ds.locs.len(),
        variant.name(),
        cfg.tile_size
    );
    for (name, v) in names.iter().zip(&r.theta) {
        out.push_str(&format!("  {name:<18} = {v:.6}\n"));
    }
    out.push_str(&format!(
        "  log-likelihood     = {:.4}\n  evaluations        = {}\n  wall seconds       = {:.2}\n",
        r.llh, r.evals, secs
    ));
    if let Some(m) = &r.metrics {
        out.push_str(&format!(
            "  runtime            = {} factorizations, {} tasks on {} workers{}\n",
            r.factorizations,
            m.tasks,
            m.workers,
            match &m.validation {
                Some(v) => format!(", {} hazard edges validated", v.edges_checked),
                None => String::new(),
            }
        ));
    }
    if let Some(c) = r.metrics.as_ref().map(|m| m.conversions) {
        out.push_str(&format!(
            "  conversions        = {} elements ({} demoted, {} promoted), {} bytes\n",
            c.total(),
            c.demotions(),
            c.promotions(),
            c.total_bytes()
        ));
    }
    out.push_str(&format!(
        "  lost PD            = {} evaluations retried at FP64, {} not positive definite there either\n",
        r.pd_retries, r.pd_failures
    ));
    write_metrics(args, r.metrics.as_ref(), &mut out)?;
    if args.bool("se") {
        match xgs_core::fisher_information(
            family, &ds.locs, z, &cfg, &model, &r.theta, 5e-3, workers,
        ) {
            Ok(fi) => {
                out.push_str("observed-information standard errors (95% Wald CI):\n");
                for ((name, se), (lo, hi)) in names.iter().zip(&fi.std_errors).zip(&fi.ci95) {
                    out.push_str(&format!("  {name:<18} se {se:.4}   [{lo:.4}, {hi:.4}]\n"));
                }
            }
            Err(e) => out.push_str(&format!("standard errors unavailable: {e}\n")),
        }
    }
    Ok(out)
}

/// `predict` — kriging with optional uncertainty, written to CSV.
pub fn cmd_predict(args: &Args) -> Result<String, CmdError> {
    let family = parse_family(args)?;
    let variant = parse_variant(args)?;
    let train = io::load(args.require("data")?)?;
    let z = train
        .z
        .as_ref()
        .ok_or_else(|| CmdError::Run("training data has no 'z' column".into()))?;
    let targets = io::load(args.require("targets")?)?;
    let theta = args
        .f64_list("theta")?
        .ok_or_else(|| ArgError("missing required flag --theta".to_string()))?;
    check_theta(family, &theta, "theta")?;
    let cfg = tile_config(args, variant, train.locs.len())?;
    let model = cli_model(cfg.tile_size);
    let kernel = family.kernel(&theta);

    let engine = factor_engine(args)?;
    let rep = log_likelihood_engine(kernel.as_ref(), &train.locs, z, &cfg, &model, &engine)
        .map_err(|e| CmdError::Run(format!("factorization failed: {e}")))?;
    let pred = krige(
        kernel.as_ref(),
        &train.locs,
        z,
        &rep.factor,
        &targets.locs,
        args.bool("uncertainty"),
    );

    let mut summary = format!(
        "predicted {} targets from {} observations (llh at θ: {:.4})\n",
        targets.locs.len(),
        train.locs.len(),
        rep.llh
    );
    if let Some(truth) = &targets.z {
        summary.push_str(&format!(
            "MSPE vs target file's z column: {:.6}\n",
            mspe(&pred.mean, truth)
        ));
    }
    write_metrics(
        args,
        rep.exec.as_ref().and_then(|e| e.metrics.as_ref()),
        &mut summary,
    )?;
    if let Some(out) = args.get("out") {
        let mut cols: Vec<(&str, &[f64])> = vec![("pred", &pred.mean)];
        if let Some(u) = &pred.uncertainty {
            cols.push(("variance", u));
        }
        io::save(out, &targets.locs, &cols, targets.has_time)?;
        summary.push_str(&format!("wrote predictions to {out}\n"));
    }
    Ok(summary)
}

/// `maps` — render the decision heat-map for a dataset at given θ.
pub fn cmd_maps(args: &Args) -> Result<String, CmdError> {
    let family = parse_family(args)?;
    let variant = parse_variant(args)?;
    let ds = io::load(args.require("data")?)?;
    let theta = args
        .f64_list("theta")?
        .ok_or_else(|| ArgError("missing required flag --theta".to_string()))?;
    check_theta(family, &theta, "theta")?;
    let cfg = tile_config(args, variant, ds.locs.len())?;
    let model = cli_model(cfg.tile_size);
    let kernel: Box<dyn CovarianceKernel> = family.kernel(&theta);
    let m = SymTileMatrix::generate(kernel.as_ref(), &ds.locs, cfg, &model);
    let map = decision_heatmap(&m);
    Ok(format!(
        "variant {}, tile {}, band_size_dense {}\n{}",
        variant.name(),
        cfg.tile_size,
        m.band_size_dense,
        map.render()
    ))
}

/// `scale` — paper-scale projection.
pub fn cmd_scale(args: &Args) -> Result<String, CmdError> {
    let n = args.usize_or("n", 1_000_000)?;
    let nodes = args.usize_or("nodes", 2048)?;
    let nb = args.usize_or("nb", 800)?;
    let corr = match args.str_or("corr", "weak").as_str() {
        "weak" => Correlation::Weak,
        "medium" => Correlation::Medium,
        "strong" => Correlation::Strong,
        "st-strong" => Correlation::SpaceTimeStrong,
        other => {
            return Err(CmdError::Arg(ArgError(format!(
                "unknown correlation '{other}' (weak|medium|strong|st-strong)"
            ))))
        }
    };
    let variant = match args.str_or("variant", "mp-tlr").as_str() {
        "dense" => SolverVariant::DenseF64,
        "fp32" => SolverVariant::DenseF32,
        "mp" => SolverVariant::MpDense,
        "mp-tlr" => SolverVariant::MpDenseTlr,
        other => {
            return Err(CmdError::Arg(ArgError(format!(
                "unknown variant '{other}' (dense|fp32|mp|mp-tlr)"
            ))))
        }
    };
    let (p, metrics) = project_with_metrics(&ScaleConfig::new(n, nb, nodes, corr, variant));
    let mut out = format!(
        "n = {n}, {nodes} modeled A64FX nodes, tile {nb}, {} correlation, {}:\n\
         time-to-solution {:.1}s | {:.1} Tflop/s (dense-equivalent) | footprint {:.0} GB | \
         efficiency {:.0}% | engine: {}{}",
        corr.name(),
        variant.name(),
        p.makespan,
        p.flops / 1e12,
        p.footprint_bytes / 1e9,
        p.efficiency * 100.0,
        if p.event_simulated {
            "event"
        } else {
            "analytic"
        },
        if p.fits_in_memory {
            ""
        } else {
            " | EXCEEDS aggregate node memory"
        }
    );
    if let Some(path) = args.get("metrics") {
        match &metrics {
            Some(m) => {
                std::fs::write(path, m.to_json()).map_err(|e| {
                    CmdError::Run(format!("could not write metrics to {path}: {e}"))
                })?;
                out.push_str(&format!("\nwrote simulated kernel census to {path}"));
            }
            None => out.push_str(
                "\nno metrics to write: the analytic engine has no task-level breakdown \
                 (reduce --n or --nb so NT fits the event window)",
            ),
        }
    }
    Ok(out)
}

/// `serve` — load a dataset, factorize once, and serve predictions until a
/// client sends `{"op":"shutdown"}`.
pub fn cmd_serve(args: &Args) -> Result<String, CmdError> {
    let family = parse_family(args)?;
    let variant = parse_variant(args)?;
    let ds = io::load(args.require("data")?)?;
    let z =
        ds.z.as_ref()
            .ok_or_else(|| CmdError::Run("training data has no 'z' column".into()))?;
    let theta = args
        .f64_list("theta")?
        .ok_or_else(|| ArgError("missing required flag --theta".to_string()))?;
    check_theta(family, &theta, "theta")?;
    let cfg = tile_config(args, variant, ds.locs.len())?;
    let name = args.str_or("name", "default");
    let n = ds.locs.len();

    let shard = shard_backend(args)?;
    let engine = match &shard {
        Some(backend) => FactorEngine::Sharded(Arc::clone(backend)),
        None => FactorEngine::from_workers(args.usize_or("workers", 0)?),
    };
    let (plan, llh) =
        xgs_server::build_plan_engine(family, &theta, variant, cfg.tile_size, ds.locs, z, &engine)
            .map_err(CmdError::Run)?;
    let ttl = match args.f64_or("model-ttl", 0.0)? {
        t if t > 0.0 => Some(std::time::Duration::from_secs_f64(t)),
        _ => None,
    };
    let registry = Arc::new(xgs_server::ModelRegistry::with_limits(
        args.usize_or("max-models", usize::MAX)?,
        ttl,
    ));
    registry.insert(&name, plan);

    let server_cfg = xgs_server::ServerConfig {
        addr: args.str_or("addr", "127.0.0.1:4741"),
        solvers: args.usize_or("solvers", 2)?,
        max_batch_points: args.usize_or("max-batch", 4096)?,
        max_queued_points: args.usize_or("queue-points", 1 << 16)?,
        shard,
        ..xgs_server::ServerConfig::default()
    };
    let handle = xgs_server::serve(&server_cfg, registry)
        .map_err(|e| CmdError::Run(format!("could not bind {}: {e}", server_cfg.addr)))?;
    // Announce readiness on stderr immediately — the command's return
    // value only prints after shutdown.
    eprintln!(
        "serving model '{name}' ({n} sites, llh {llh:.4}, variant {}, tile {}) on {} — \
         stop with {{\"op\":\"shutdown\"}}",
        variant.name(),
        cfg.tile_size,
        handle.addr()
    );
    let report = handle.join();
    let mut out = format!(
        "server drained after {:.1}s: {} requests",
        report.wall_seconds, report.tasks
    );
    if let Some(solve) = report.kernels.iter().find(|k| k.kind == "solve") {
        out.push_str(&format!(
            " in {} batches (mean solve {:.3} ms)",
            solve.count,
            solve.mean_seconds() * 1e3
        ));
    }
    out.push('\n');
    write_metrics(args, Some(&report), &mut out)?;
    Ok(out)
}

/// `bayes` — MCMC posterior over the model parameters (paper §VIII
/// extension).
pub fn cmd_bayes(args: &Args) -> Result<String, CmdError> {
    use xgs_core::bayes::{posterior_sample, McmcOptions};
    let family = parse_family(args)?;
    let variant = parse_variant(args)?;
    let ds = io::load(args.require("data")?)?;
    let z =
        ds.z.as_ref()
            .ok_or_else(|| CmdError::Run("dataset has no 'z' column".into()))?;
    let start = args
        .f64_list("start")?
        .ok_or_else(|| ArgError("missing required flag --start".to_string()))?;
    check_theta(family, &start, "start")?;
    let cfg = tile_config(args, variant, ds.locs.len())?;
    let model = cli_model(cfg.tile_size);
    let opts = McmcOptions {
        iterations: args.usize_or("iterations", 500)?,
        burn_in: args.usize_or("burn-in", 100)?,
        seed: args.usize_or("seed", 0xBA7E5)? as u64,
        workers: args.usize_or("workers", 0)?,
        ..Default::default()
    };
    let r = posterior_sample(family, &ds.locs, z, &cfg, &model, &start, &opts)
        .map_err(CmdError::Run)?;
    let mut out = format!(
        "posterior from {} draws (acceptance {:.0}%):
",
        r.samples.len(),
        r.acceptance * 100.0
    );
    for (i, name) in family.param_names().iter().enumerate() {
        let (lo, hi) = r.ci90[i];
        out.push_str(&format!(
            "  {name:<18} mean {:.4}   90% CI [{lo:.4}, {hi:.4}]
",
            r.mean[i]
        ));
    }
    Ok(out)
}

/// `worker` — one shard of a multi-process factorization. Registers with
/// the supervisor (the process that was started with `--shards`, or an
/// `xgs-fleet` registration address) via `JOIN`/`ASSIGN` and executes the
/// tile tasks it owns under the 2D block-cyclic distribution until told
/// to shut down. A supervisor that never acknowledges the `JOIN` (or
/// goes silent past the idle budget) is a nonzero exit with a
/// diagnostic, never an indefinite block on a fresh socket. Not meant to
/// be started by hand.
pub fn cmd_worker(args: &Args) -> Result<String, CmdError> {
    let addr = args.require("connect")?;
    let stream = std::net::TcpStream::connect(addr)
        .map_err(|e| CmdError::Run(format!("cannot reach coordinator at {addr}: {e}")))?;
    let mut opts = WorkerOptions::default();
    match args.f64_or("handshake-timeout", 0.0)? {
        t if t > 0.0 => opts.handshake_timeout = std::time::Duration::from_secs_f64(t),
        _ => {}
    }
    match args.f64_or("idle-timeout", 0.0)? {
        t if t > 0.0 => opts.idle_timeout = Some(std::time::Duration::from_secs_f64(t)),
        _ => {}
    }
    // Fault injection for the chaos tests: inherited by every fleet
    // member, but the spec names one member id, so exactly one worker
    // dies and its respawned replacement (fresh id) never re-triggers.
    opts.chaos = std::env::var("XGS_CHAOS_ABORT")
        .ok()
        .as_deref()
        .and_then(ChaosSpec::parse);
    let executed =
        worker_loop_with(stream, opts).map_err(|e| CmdError::Run(format!("worker failed: {e}")))?;
    Ok(format!("worker drained after {executed} tasks\n"))
}

/// Dispatch.
pub fn run(args: &Args) -> Result<String, CmdError> {
    match args.command.as_str() {
        "simulate" => cmd_simulate(args),
        "fit" => cmd_fit(args),
        "predict" => cmd_predict(args),
        "maps" => cmd_maps(args),
        "scale" => cmd_scale(args),
        "serve" => cmd_serve(args),
        "worker" => cmd_worker(args),
        "bayes" => cmd_bayes(args),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CmdError::Arg(ArgError(format!(
            "unknown command '{other}'\n\n{USAGE}"
        )))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Args {
        Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn scale_command_runs_without_files() {
        let out = run(&argv(
            "scale --n 1000000 --nodes 2048 --corr weak --variant mp-tlr",
        ))
        .unwrap();
        assert!(out.contains("time-to-solution"));
        assert!(out.contains("weak"));
    }

    #[test]
    fn scale_metrics_export_follows_the_engine() {
        let dir = std::env::temp_dir().join(format!("xgs-scale-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("census.json");
        let path_s = path.to_str().unwrap();

        // Small enough for the event engine: census written and parseable.
        let out = run(&argv(&format!(
            "scale --n 40000 --nodes 16 --nb 800 --corr medium --variant mp --metrics {path_s}"
        )))
        .unwrap();
        assert!(out.contains("engine: event"), "{out}");
        assert!(out.contains("wrote simulated kernel census"), "{out}");
        let m = xgs_runtime::MetricsReport::from_json(&std::fs::read_to_string(&path).unwrap())
            .unwrap();
        assert!(m.kernels.iter().any(|k| k.kind == "gemm"));

        // Analytic route: no file, explanatory note instead.
        std::fs::remove_file(&path).unwrap();
        let out = run(&argv(&format!(
            "scale --n 2000000 --nodes 2048 --corr weak --variant mp --metrics {path_s}"
        )))
        .unwrap();
        assert!(out.contains("analytic engine has no task-level"), "{out}");
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_command_round_trips_over_tcp() {
        let dir = std::env::temp_dir().join(format!("xgs-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let data_s = data.to_str().unwrap().to_string();
        run(&argv(&format!(
            "simulate --n 200 --params 1.0,0.1,0.5 --seed 17 --out {data_s}"
        )))
        .unwrap();

        let port = 41000 + (std::process::id() % 20000) as u16;
        let metrics = dir.join("server-metrics.json");
        let metrics_s = metrics.to_str().unwrap().to_string();
        let server = std::thread::spawn(move || {
            run(&argv(&format!(
                "serve --data {data_s} --theta 1.0,0.1,0.5 --tile 50 --variant mp \
                 --addr 127.0.0.1:{port} --solvers 2 --metrics {metrics_s}"
            )))
        });

        let report = xgs_server::loadgen::run(&xgs_server::LoadgenConfig {
            addr: format!("127.0.0.1:{port}"),
            requests: 40,
            conns: 3,
            points: 4,
            shutdown: true,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(report.errors, 0, "{}", report.summary());
        assert_eq!(report.sent, 40);

        let out = server.join().unwrap().unwrap();
        assert!(out.contains("server drained"), "{out}");
        assert!(out.contains("wrote runtime metrics"), "{out}");
        let m = xgs_runtime::MetricsReport::from_json(&std::fs::read_to_string(&metrics).unwrap())
            .unwrap();
        // 40 predicts + loadgen's metrics fetch + shutdown op.
        assert!(m.tasks >= 42, "served {} requests", m.tasks);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_fit_predict_pipeline_via_tempfiles() {
        let dir = std::env::temp_dir().join(format!("xgs-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let data_s = data.to_str().unwrap();

        let out = run(&argv(&format!(
            "simulate --n 300 --params 1.0,0.1,0.5 --seed 3 --out {data_s}"
        )))
        .unwrap();
        assert!(out.contains("wrote 300 sites"));

        let metrics = dir.join("metrics.json");
        let metrics_s = metrics.to_str().unwrap();
        let fit_out = run(&argv(&format!(
            "fit --data {data_s} --variant mp --tile 60 --max-evals 30 --start 1.0,0.1,0.5 \
             --workers 2 --metrics {metrics_s}"
        )))
        .unwrap();
        assert!(fit_out.contains("log-likelihood"), "{fit_out}");
        assert!(fit_out.contains("factorizations"), "{fit_out}");
        assert!(fit_out.contains("wrote runtime metrics"), "{fit_out}");
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.contains("\"kernels\":["), "{json}");
        assert!(json.contains("\"tasks\":"), "{json}");
        if cfg!(debug_assertions) {
            assert!(json.contains("\"validation\":{"), "{json}");
        }

        let pred_csv = dir.join("pred.csv");
        let pred_out = run(&argv(&format!(
            "predict --data {data_s} --targets {data_s} --theta 1.0,0.1,0.5 --tile 60 \
             --uncertainty --out {}",
            pred_csv.to_str().unwrap()
        )))
        .unwrap();
        assert!(pred_out.contains("MSPE"), "{pred_out}");
        // Predicting the training set itself: MSPE ~ 0 (exact interpolation).
        let ms: f64 = pred_out
            .lines()
            .find(|l| l.contains("MSPE"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert!(ms < 1e-6, "self-prediction MSPE {ms}");

        let maps_out = run(&argv(&format!(
            "maps --data {data_s} --theta 1.0,0.1,0.5 --tile 60"
        )))
        .unwrap();
        assert!(maps_out.contains("legend"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bayes_command_runs_end_to_end() {
        let dir = std::env::temp_dir().join(format!("xgs-bayes-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.csv");
        let data_s = data.to_str().unwrap();
        run(&argv(&format!(
            "simulate --n 150 --params 1.0,0.1,0.5 --seed 8 --out {data_s}"
        )))
        .unwrap();
        let out = run(&argv(&format!(
            "bayes --data {data_s} --start 1.0,0.1,0.5 --iterations 30 --burn-in 10 --tile 50 --variant dense"
        )))
        .unwrap();
        assert!(out.contains("90% CI"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn helpful_errors() {
        assert!(run(&argv("frobnicate")).is_err());
        assert!(run(&argv("fit")).is_err()); // missing --data
        assert!(run(&argv("simulate --n 10 --params 1.0 --out /tmp/x.csv")).is_err()); // wrong θ len
                                                                                       // Wrong arity must be a clean error everywhere, not a panic.
        let dir = std::env::temp_dir().join(format!("xgs-arity-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d = dir.join("d.csv");
        let ds = d.to_str().unwrap();
        run(&argv(&format!(
            "simulate --n 60 --params 1.0,0.1,0.5 --out {ds}"
        )))
        .unwrap();
        for cmd in [
            format!("predict --data {ds} --targets {ds} --theta 1.0,0.1"),
            format!("maps --data {ds} --theta 1.0"),
            format!("fit --data {ds} --start 1.0,0.1 --max-evals 5"),
            format!("bayes --data {ds} --start 1.0 --iterations 5 --burn-in 1"),
        ] {
            let args =
                Args::parse(&cmd.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap();
            match run(&args) {
                Err(CmdError::Arg(e)) => assert!(e.0.contains("values"), "{e}"),
                other => panic!("expected arity error for '{cmd}', got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        let help = run(&argv("help")).unwrap();
        assert!(help.contains("USAGE"));
    }
}
