//! CLI subcommand implementations.
//!
//! Each command is a thin orchestration over the library crates and returns
//! its report as a `String` (so the logic is unit-testable without touching
//! stdout).

use crate::cli::args::{ArgError, Args};
use crate::cli::{io, metrics_diff, paper};
use std::sync::Arc;
use xgs_cholesky::{worker_loop_with, ChaosSpec, ShardBackend, WorkerOptions};
use xgs_core::mle::{FitOptimizer, FitOptions};
use xgs_core::{
    krige, log_likelihood_engine, mspe, simulate_field, synthetic, FactorEngine, ModelFamily,
    NelderMeadOptions, PsoOptions,
};
use xgs_covariance::Location;
use xgs_fleet::{FleetConfig, Supervisor};
use xgs_perfmodel::{project_with_metrics, Correlation, ScaleConfig, SolverVariant};
use xgs_tile::{
    decision_heatmap, FlopKernelModel, PrecisionRule, SymTileMatrix, TlrConfig, Variant,
};

/// Top-level command error. A usage error ([`CmdError::Arg`]) exits 2,
/// every other variant 1.
#[derive(Debug)]
pub enum CmdError {
    Arg(ArgError),
    Io(io::IoError),
    Run(String),
    /// The command ran and has its report, which fails a check (a failed
    /// request, an unmet assertion): the report prints as on success.
    Failed {
        report: String,
        why: String,
    },
}

impl std::fmt::Display for CmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CmdError::Arg(e) => write!(f, "{e}"),
            CmdError::Io(e) => write!(f, "{e}"),
            CmdError::Run(m) | CmdError::Failed { why: m, .. } => f.write_str(m),
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

/// The commands and their flags; [`usage`] appends the paper jobs and the
/// environment.
const USAGE: &str = "\
exageostat — geostatistical modeling & prediction with the MP+TLR tile Cholesky

USAGE: exageostat <command> [--flag value ...]

COMMANDS:
  simulate  generate a synthetic dataset
            --n <sites> --params <θ,..> [--kernel matern|gneiting]
            [--slots <t>] [--domain <d>] [--seed <s>] --out <csv>
  fit       maximum-likelihood estimation
            --data <csv> [--kernel matern|gneiting] [--variant dense|mp|mp-tlr]
            [--tile <nb>] [--start <θ,..>] [--max-evals <k>]
            [--optimizer nm|pso] [--particles <k>] [--workers <w>]
            [--precision-rule adaptive|band] [--f64-band <k>] [--f32-band <k>]
            [--shards <k>]  (factorize on a warm fleet of k workers, see README)
            [--standbys <k>]  (warm spare workers promoted on death)
            [--se]  (append observed-information standard errors)
            [--metrics <json>]  (write merged runtime metrics, see README)
  predict   kriging at target sites
            --data <csv> --targets <csv> --theta <θ,..> [--kernel ...]
            [--variant ...] [--tile <nb>] [--uncertainty] [--out <csv>]
            [--precision-rule ...] [--f64-band <k>] [--f32-band <k>] [--workers <w>]
            [--shards <k>] [--standbys <k>]  (warm worker fleet)
            [--metrics <json>]  (write the factorization's runtime metrics)
  maps      per-tile format decision map (Fig. 9 style)
            --data <csv> --theta <θ,..> [--kernel ...] [--variant ...] [--tile <nb>]
            [--precision-rule ...] [--f64-band <k>] [--f32-band <k>]
  scale     simulated Fugaku-scale run (Figs. 7/10/11 style)
            --n <size> --nodes <p> [--nb <tile>] [--corr weak|medium|strong|st-strong]
            [--variant dense|fp32|mp|mp-tlr]
            [--metrics <json>]  (write the event replay's kernel census)
  serve     long-lived prediction service with a cached factor
            --data <csv> --theta <θ,..> [--kernel ...] [--variant ...] [--tile <nb>]
            [--precision-rule ...] [--f64-band <k>] [--f32-band <k>]
            [--name <model>] [--addr <host:port>] [--solvers <k>] [--max-batch <points>]
            [--queue-points <budget>]  (shed predicts past this backlog)
            [--max-models <k>] [--model-ttl <seconds>]  (registry LRU/TTL eviction)
            [--workers <w>] [--shards <k>] [--standbys <k>]  (persistent warm worker fleet)
            [--metrics <json>]  (write the server metrics after shutdown)
            protocol: newline-delimited JSON over TCP, see README;
            stop with {\"op\":\"shutdown\"} (drains in-flight batches)
  worker    one shard of a sharded factorization (started automatically;
            external machines may dial a fleet's registration address)
            --connect <host:port>  (supervisor registration address)
            [--handshake-timeout <s>] [--idle-timeout <s>]  (liveness budgets)
  bayes     posterior sampling over the covariance parameters (MCMC)
            --data <csv> --start <θ,..> [--kernel ...] [--variant ...] [--tile <nb>]
            [--precision-rule ...] [--f64-band <k>] [--f32-band <k>]
            [--iterations <k>] [--burn-in <k>] [--seed <s>]
            [--workers <w>] [--shards <k>] [--standbys <k>]
  loadgen   replay a seeded query stream against a running serve
            [--addr <host:port>] [--model <name>] [--requests <k>] [--conns <k>]
            [--points <k>] [--uncertainty] [--seed <s>] [--domain <d>] [--rate <req/s>]
            [--concurrency-per-conn <k>] [--deadline-ms <ms>] [--connect-timeout <s>]
            [--overload]  (shed replies expected)  [--shutdown]  (drain the server after)
            [--metrics <json>]  (write the client and server metrics)
            exits 1 on a failed request, or a shed or expired one not expected
  metrics-diff  compare two runtime metrics reports kernel by kernel
            --baseline <json> --candidate <json>
            [--assert-counts <kind,..>] [--assert-wire-equal <kind,..>]
            [--assert-wire-below <kind,..>] [--expect-count <kind=N,..>]
            [--expect-min <kind=N,..>] [--assert-checksum-equal]
            exits 1 on a failed assertion
  paper     regenerate one table or figure of the paper at the size its
            results/<name>.txt records: paper <name>, where <name> is
";

/// After the paper jobs.
const USAGE_TAIL: &str = "
  --precision-rule band stores tile (i,j) in FP64 when |i-j| < --f64-band,
  else in FP32 when |i-j| < --f32-band, else in FP16 (defaults 3 and 8).
  Every command rejects a flag it does not list, and a flag given twice.
  A usage error exits 2; a failed run, request or assertion exits 1.

ENVIRONMENT:
  XGS_PRECHECK=1  run the pre-execution DAG/shard-plan safety checks
                  (xgs-analysis) in release builds too; always on in
                  debug builds. See README \"Static analysis\".
  XGS_CHAOS_ABORT=member=M,tasks=N | member=M,on=drain
                  fault injection: the fleet member with ASSIGNed id M
                  SIGKILLs itself at the named point (chaos tests only).
";

/// `exageostat help`: every command with its flags, the paper jobs listed
/// from the paper job table.
pub fn usage() -> String {
    let mut out = String::from(USAGE);
    for (name, summary, _) in paper::JOBS {
        out.push_str(&format!("              {name:<19} {summary}\n"));
    }
    out + USAGE_TAIL
}

/// A name flag (`--kernel`, `--variant`) read by its type's parser; the
/// type's default when it is not given.
fn named<T: Default>(
    args: &Args,
    flag: &str,
    parse: fn(&str) -> Result<T, String>,
) -> Result<T, CmdError> {
    let value = args.get(flag).map_or(Ok(T::default()), parse);
    Ok(value.map_err(ArgError)?)
}

/// The θ flag `--{flag}`, checked against the family's arity and
/// parameter domain; `None` when it is not given.
fn theta(args: &Args, family: ModelFamily, flag: &str) -> Result<Option<Vec<f64>>, CmdError> {
    let Some(theta) = args.f64_list(flag)? else {
        return Ok(None);
    };
    family
        .check_domain(&theta)
        .map_err(|e| ArgError(format!("--{flag} {e}")))?;
    Ok(Some(theta))
}

/// [`theta`] for a flag the command requires.
fn required_theta(args: &Args, family: ModelFamily, flag: &str) -> Result<Vec<f64>, CmdError> {
    theta(args, family, flag)?
        .ok_or_else(|| ArgError(format!("missing required flag --{flag}")).into())
}

/// A count flag, which must be at least `min`.
fn at_least(args: &Args, key: &str, default: usize, min: usize) -> Result<usize, CmdError> {
    match args.usize_or(key, default)? {
        v if v < min => Err(CmdError::Arg(ArgError(format!(
            "--{key} must be at least {min}"
        )))),
        v => Ok(v),
    }
}

/// The tile config for `n` sites: `--tile`, or the default tile when it is
/// not given, and the precision rule.
fn tile_config(args: &Args, variant: Variant, n: usize) -> Result<TlrConfig, CmdError> {
    let tile = match args.get("tile") {
        None => 0,
        Some(_) => at_least(args, "tile", 0, 1)?,
    };
    let mut cfg = TlrConfig::for_sites(variant, tile, n);
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

/// What `fit`, `predict`, `maps`, `serve` and `bayes` read alike.
struct ModelInputs {
    family: ModelFamily,
    variant: Variant,
    locs: Vec<Location>,
    /// The data's `z` column; empty for a command that reads none.
    z: Vec<f64>,
    /// The command's required θ flag; empty for a command that has none.
    theta: Vec<f64>,
    cfg: TlrConfig,
    model: FlopKernelModel,
}

/// Read `--kernel` and `--variant`, the `--data` sites with their `z`
/// column when `z` is set, the required θ flag `--{theta}` when one is
/// named, and the tile config with its kernel-time model.
fn model_inputs(args: &Args, z: bool, theta: Option<&str>) -> Result<ModelInputs, CmdError> {
    let family = named(args, "kernel", ModelFamily::parse)?;
    let variant = named(args, "variant", Variant::parse)?;
    let data = io::load(args.require("data")?)?;
    let z = match (z, data.z) {
        (false, _) => Vec::new(),
        (true, Some(z)) => z,
        (true, None) => return Err(CmdError::Run("dataset has no 'z' column".into())),
    };
    let theta = match theta {
        Some(flag) => required_theta(args, family, flag)?,
        None => Vec::new(),
    };
    let cfg = tile_config(args, variant, data.locs.len())?;
    Ok(ModelInputs {
        family,
        variant,
        locs: data.locs,
        z,
        theta,
        cfg,
        model: FlopKernelModel::for_tile(cfg.tile_size),
    })
}

/// The `--metrics <path>` file, created before the command does any work
/// so that an unwritable path fails at once instead of after the run. A
/// run that fails leaves it empty.
pub(crate) struct MetricsFile {
    path: String,
    file: std::fs::File,
}

fn metrics_error(path: &str, e: std::io::Error) -> CmdError {
    CmdError::Run(format!("could not write metrics to {path}: {e}"))
}

/// Create the `--metrics` file, when the flag is given, for
/// [`write_metrics`].
pub(crate) fn open_metrics(args: &Args) -> Result<Option<MetricsFile>, CmdError> {
    let Some(path) = args.get("metrics") else {
        return Ok(None);
    };
    let file = std::fs::File::create(path).map_err(|e| metrics_error(path, e))?;
    Ok(Some(MetricsFile {
        path: path.to_string(),
        file,
    }))
}

/// A run's `--metrics` report: what it is and its JSON, or the note that
/// says why the run has none.
pub(crate) type MetricsJson = Result<(&'static str, String), &'static str>;

/// Write the run's report into the `--metrics` file opened before the run
/// and say so on a line of its own in `out`. A run without a report
/// removes the file again and adds the note instead. `report` is only
/// built when the file was asked for.
pub(crate) fn write_metrics(
    file: Option<MetricsFile>,
    report: impl FnOnce() -> MetricsJson,
    out: &mut String,
) -> Result<(), CmdError> {
    use std::io::Write;
    let Some(MetricsFile { path, mut file }) = file else {
        return Ok(());
    };
    if !out.is_empty() && !out.ends_with('\n') {
        out.push('\n');
    }
    match report() {
        Ok((what, json)) => {
            file.write_all(json.as_bytes())
                .map_err(|e| metrics_error(&path, e))?;
            out.push_str(&format!("wrote {what} to {path}\n"));
        }
        Err(note) => {
            drop(file);
            std::fs::remove_file(&path).map_err(|e| metrics_error(&path, e))?;
            out.push_str(note);
            out.push('\n');
        }
    }
    Ok(())
}

/// The report of a run on the task runtime; the sequential engine
/// collects none.
pub(crate) fn runtime_metrics(metrics: Option<&xgs_runtime::MetricsReport>) -> MetricsJson {
    metrics
        .map(|m| ("runtime metrics", m.to_json()))
        .ok_or("no runtime metrics to write: the sequential engine ran (use --workers != 1)")
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

/// Engine selection shared by `fit`, `predict`, `serve` and `bayes`:
/// sharded when `--shards` is set, otherwise the `--workers` convention.
fn factor_engine(args: &Args) -> Result<FactorEngine, CmdError> {
    Ok(match shard_backend(args)? {
        Some(backend) => FactorEngine::Sharded(backend),
        None => FactorEngine::from_workers(args.usize_or("workers", 0)?),
    })
}

/// `simulate` — synthesize a dataset and write it to CSV.
pub fn cmd_simulate(args: &Args) -> Result<String, CmdError> {
    let family = named(args, "kernel", ModelFamily::parse)?;
    let n = at_least(args, "n", 1000, 1)?;
    let slots = args.usize_or("slots", 1)?;
    let domain = args.f64_or("domain", 1.0)?;
    let seed = args.usize_or("seed", 0)? as u64;
    let theta = required_theta(args, family, "params")?;
    let out = args.require("out")?;

    let locs = synthetic::sites(family, n, slots, domain, seed);
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
    let m = model_inputs(args, true, None)?;
    let max_evals = args.usize_or("max-evals", 200)?;
    let optimizer = match args.str_or("optimizer", "nm").as_str() {
        "nm" => FitOptimizer::NelderMead(NelderMeadOptions {
            max_evals,
            f_tol: 1e-6,
            initial_step: 0.35,
        }),
        "pso" => FitOptimizer::ParticleSwarm(PsoOptions {
            particles: at_least(args, "particles", 12, 2)?,
            iterations: (max_evals / 12).max(1),
            ..Default::default()
        }),
        other => {
            return Err(CmdError::Arg(ArgError(format!(
                "unknown optimizer '{other}' (nm|pso)"
            ))))
        }
    };
    let opts = FitOptions {
        optimizer,
        start: theta(args, m.family, "start")?,
        engine: factor_engine(args)?,
    };

    let metrics = open_metrics(args)?;
    let (r, secs) = {
        let t = std::time::Instant::now();
        let r = xgs_core::fit(m.family, &m.locs, &m.z, &m.cfg, &m.model, &opts);
        (r, t.elapsed().as_secs_f64())
    };
    let names = m.family.param_names();
    let mut out = format!(
        "fitted {} ({} sites, variant {}, tile {}):\n",
        match m.family {
            ModelFamily::MaternSpace => "Matérn space model",
            ModelFamily::GneitingSpaceTime => "Gneiting space-time model",
        },
        m.locs.len(),
        m.variant.name(),
        m.cfg.tile_size
    );
    for (name, v) in names.iter().zip(&r.theta) {
        out.push_str(&format!("  {name:<18} = {v:.6}\n"));
    }
    out.push_str(&format!(
        "  log-likelihood     = {:.4}\n  evaluations        = {}\n  converged          = {}\n  \
         wall seconds       = {:.2}\n",
        r.llh,
        r.evals,
        if r.converged { "yes" } else { "no" },
        secs
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
    write_metrics(metrics, || runtime_metrics(r.metrics.as_ref()), &mut out)?;
    if args.bool("se") {
        match xgs_core::fisher_information(
            m.family,
            &m.locs,
            &m.z,
            &m.cfg,
            &m.model,
            &r.theta,
            5e-3,
            &opts.engine,
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
    let m = model_inputs(args, true, Some("theta"))?;
    let targets = io::load(args.require("targets")?)?;
    let kernel = m.family.kernel(&m.theta);

    let engine = factor_engine(args)?;
    let metrics = open_metrics(args)?;
    let rep = log_likelihood_engine(kernel.as_ref(), &m.locs, &m.z, &m.cfg, &m.model, &engine)
        .map_err(|e| CmdError::Run(format!("factorization failed: {e}")))?;
    let pred = krige(
        kernel.as_ref(),
        &m.locs,
        &m.z,
        &rep.factor,
        &targets.locs,
        args.bool("uncertainty"),
    );

    let mut summary = format!(
        "predicted {} targets from {} observations (llh at θ: {:.4})\n",
        targets.locs.len(),
        m.locs.len(),
        rep.llh
    );
    if let Some(truth) = &targets.z {
        summary.push_str(&format!(
            "MSPE vs target file's z column: {:.6}\n",
            mspe(&pred.mean, truth)
        ));
    }
    write_metrics(
        metrics,
        || runtime_metrics(rep.metrics.as_ref()),
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
    let m = model_inputs(args, false, Some("theta"))?;
    let kernel = m.family.kernel(&m.theta);
    let matrix = SymTileMatrix::generate(kernel.as_ref(), &m.locs, m.cfg, &m.model);
    let map = decision_heatmap(&matrix);
    Ok(format!(
        "variant {}, tile {}, band_size_dense {}\n{}",
        m.variant.name(),
        m.cfg.tile_size,
        matrix.band_size_dense,
        map.render()
    ))
}

/// `scale` — paper-scale projection.
pub fn cmd_scale(args: &Args) -> Result<String, CmdError> {
    let n = at_least(args, "n", 1_000_000, 1)?;
    let nodes = at_least(args, "nodes", 2048, 1)?;
    let nb = at_least(args, "nb", 800, 1)?;
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
    let metrics_file = open_metrics(args)?;
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
    write_metrics(
        metrics_file,
        || {
            metrics
                .map(|m| ("simulated kernel census", m.to_json()))
                .ok_or(
                    "no metrics to write: the analytic engine has no task-level breakdown \
                 (reduce --n or --nb so NT fits the event window)",
                )
        },
        &mut out,
    )?;
    Ok(out)
}

/// `serve` — load a dataset, factorize once, and serve predictions until a
/// client sends `{"op":"shutdown"}`.
pub fn cmd_serve(args: &Args) -> Result<String, CmdError> {
    let m = model_inputs(args, true, Some("theta"))?;
    let name = args.str_or("name", "default");
    let n = m.locs.len();

    let engine = factor_engine(args)?;
    let metrics = open_metrics(args)?;
    let (plan, llh) =
        xgs_server::build_plan_engine(m.family, &m.theta, &m.cfg, m.locs, &m.z, &engine)
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

    let d = xgs_server::ServerConfig::default();
    let server_cfg = xgs_server::ServerConfig {
        addr: args.str_or("addr", "127.0.0.1:4741"),
        solvers: args.usize_or("solvers", d.solvers)?,
        max_batch_points: args.usize_or("max-batch", d.max_batch_points)?,
        max_queued_points: args.usize_or("queue-points", d.max_queued_points)?,
        engine,
        ..d
    };
    let handle = xgs_server::serve(&server_cfg, registry)
        .map_err(|e| CmdError::Run(format!("could not bind {}: {e}", server_cfg.addr)))?;
    // Announce readiness on stderr immediately — the command's return
    // value only prints after shutdown.
    eprintln!(
        "serving model '{name}' ({n} sites, llh {llh:.4}, variant {}, tile {}) on {} — \
         stop with {{\"op\":\"shutdown\"}}",
        m.variant.name(),
        m.cfg.tile_size,
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
    write_metrics(metrics, || runtime_metrics(Some(&report)), &mut out)?;
    Ok(out)
}

/// `bayes` — MCMC posterior over the model parameters (paper §VIII
/// extension).
pub fn cmd_bayes(args: &Args) -> Result<String, CmdError> {
    use xgs_core::bayes::{posterior_sample, McmcOptions};
    let m = model_inputs(args, true, Some("start"))?;
    let burn_in = args.usize_or("burn-in", 100)?;
    let opts = McmcOptions {
        iterations: at_least(args, "iterations", 500, burn_in.saturating_add(1))?,
        burn_in,
        seed: args.usize_or("seed", 0xBA7E5)? as u64,
        engine: factor_engine(args)?,
        ..Default::default()
    };
    let r = posterior_sample(m.family, &m.locs, &m.z, &m.cfg, &m.model, &m.theta, &opts)
        .map_err(CmdError::Run)?;
    let mut out = format!(
        "posterior from {} draws (acceptance {:.0}%):
",
        r.samples.len(),
        r.acceptance * 100.0
    );
    for (i, name) in m.family.param_names().iter().enumerate() {
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

/// `loadgen` — replay a seeded query stream against a running `serve` and
/// report throughput and latency. A failed request, or a shed or expired
/// one the flags do not expect (`--overload`, `--deadline-ms`), fails the
/// run; an unresolvable address is a usage error.
pub fn cmd_loadgen(args: &Args) -> Result<String, CmdError> {
    let d = xgs_server::LoadgenConfig::default();
    let connect_timeout = args.f64_or("connect-timeout", d.connect_timeout.as_secs_f64())?;
    let cfg = xgs_server::LoadgenConfig {
        addr: args.str_or("addr", &d.addr),
        model: args.str_or("model", &d.model),
        requests: args.usize_or("requests", d.requests)?,
        conns: args.usize_or("conns", d.conns)?,
        points: args.usize_or("points", d.points)?,
        rate: args.f64_or("rate", d.rate)?,
        uncertainty: args.bool("uncertainty"),
        seed: args.usize_or("seed", d.seed as usize)? as u64,
        domain: args.f64_or("domain", d.domain)?,
        connect_timeout: std::time::Duration::try_from_secs_f64(connect_timeout).map_err(|_| {
            ArgError(format!(
                "--connect-timeout must be a duration in seconds, got {connect_timeout}"
            ))
        })?,
        shutdown: args.bool("shutdown"),
        concurrency_per_conn: args.usize_or("concurrency-per-conn", d.concurrency_per_conn)?,
        deadline_ms: args.usize_or("deadline-ms", d.deadline_ms as usize)? as u64,
        overload: args.bool("overload"),
    };
    let metrics = open_metrics(args)?;
    let report = xgs_server::loadgen::run(&cfg).map_err(|e| CmdError::Arg(ArgError(e)))?;
    let mut out = report.summary();
    write_metrics(metrics, || Ok(("metrics", report.to_json())), &mut out)?;
    let shed = if cfg.overload { 0 } else { report.shed };
    let expired = if cfg.deadline_ms > 0 {
        0
    } else {
        report.expired
    };
    if report.errors + shed + expired > 0 {
        return Err(CmdError::Failed {
            report: out,
            why: format!(
                "{} failed, {shed} shed and {expired} expired requests",
                report.errors
            ),
        });
    }
    Ok(out)
}

/// A command path's job: its report, printed by `main` unless empty.
pub type Command = fn(&Args) -> Result<String, CmdError>;

/// Every top-level command with the flags it reads (those of
/// [`model_inputs`] and [`factor_engine`] included); [`run`] rejects any
/// other. A switch, a flag given without a value, ends in `!`.
const COMMANDS: [(&str, Command, &str); 10] = [
    (
        "simulate",
        cmd_simulate,
        "kernel n slots domain seed params out",
    ),
    (
        "fit",
        cmd_fit,
        "kernel variant data max-evals optimizer particles start metrics se! \
         tile precision-rule f64-band f32-band workers shards standbys",
    ),
    (
        "predict",
        cmd_predict,
        "kernel variant data targets theta uncertainty! metrics out \
         tile precision-rule f64-band f32-band workers shards standbys",
    ),
    (
        "maps",
        cmd_maps,
        "kernel variant data theta tile precision-rule f64-band f32-band",
    ),
    ("scale", cmd_scale, "n nodes nb corr variant metrics"),
    (
        "serve",
        cmd_serve,
        "kernel variant data theta name model-ttl max-models addr solvers max-batch \
         queue-points metrics tile precision-rule f64-band f32-band workers shards standbys",
    ),
    (
        "worker",
        cmd_worker,
        "connect handshake-timeout idle-timeout",
    ),
    (
        "bayes",
        cmd_bayes,
        "kernel variant data start iterations burn-in seed \
         tile precision-rule f64-band f32-band workers shards standbys",
    ),
    (
        "loadgen",
        cmd_loadgen,
        "addr model requests conns points uncertainty! seed domain rate \
         concurrency-per-conn deadline-ms connect-timeout overload! shutdown! metrics",
    ),
    (
        "metrics-diff",
        metrics_diff::cmd_metrics_diff,
        "baseline candidate assert-counts assert-wire-equal assert-wire-below \
         expect-count expect-min assert-checksum-equal!",
    ),
];

/// Every command path with its job and the flags it reads: the top-level
/// [`COMMANDS`], then `paper <name>` for each of [`paper::JOBS`].
fn paths() -> impl Iterator<Item = (String, Command, &'static str)> {
    let top = COMMANDS.map(|(path, job, flags)| (path.to_string(), job, flags));
    let paper = paper::JOBS.map(|(name, summary, job)| {
        let takes_metrics = summary.ends_with(paper::METRICS_OPTION);
        (
            format!("paper {name}"),
            job,
            if takes_metrics { "metrics" } else { "" },
        )
    });
    top.into_iter().chain(paper)
}

/// Whether `word` is the first word of two-word command paths.
pub(crate) fn nests(word: &str) -> bool {
    paths().any(|(path, ..)| path.split_once(' ').is_some_and(|(head, _)| head == word))
}

/// The job of the command path `args` names, once every flag given is
/// one it reads.
fn command(args: &Args) -> Result<Command, CmdError> {
    let Some((name, command, flags)) = paths().find(|c| c.0 == args.command) else {
        let what = if nests(&args.command) {
            format!("'{}' needs a second word", args.command)
        } else {
            format!("unknown command '{}'", args.command)
        };
        return Err(CmdError::Arg(ArgError(format!("{what}\n\n{}", usage()))));
    };
    for (flag, value) in args.flags() {
        let spec = flags
            .split_whitespace()
            .find(|r| r.trim_end_matches('!') == flag);
        let problem = match (spec.map(|r| r.ends_with('!')), value) {
            (None, _) => format!("{name} takes no --{flag}"),
            (Some(true), Some(v)) => format!("--{flag} is a switch and takes no value, got '{v}'"),
            (Some(false), None) => format!("--{flag} needs a value"),
            _ => continue,
        };
        return Err(CmdError::Arg(ArgError(format!(
            "{problem} (see `exageostat help`)"
        ))));
    }
    Ok(command)
}

/// Dispatch.
pub fn run(args: &Args) -> Result<String, CmdError> {
    if matches!(args.command.as_str(), "help" | "--help" | "-h") {
        return Ok(usage());
    }
    command(args)?(args)
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

    /// One request line to a `serve` on `addr`, retried until the server
    /// has factored its first model and accepts; the reply as JSON.
    fn request(addr: &str, line: &str) -> xgs_runtime::JsonValue {
        use std::io::{BufRead, BufReader, Write};
        use std::time::{Duration, Instant};
        let deadline = Instant::now() + Duration::from_secs(120);
        let mut stream = loop {
            match std::net::TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                Err(e) => panic!("serve never accepted on {addr}: {e}"),
            }
        };
        writeln!(stream, "{line}").unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).unwrap();
        let v = xgs_runtime::parse_json(&reply).unwrap();
        assert_eq!(v.get("ok").and_then(|o| o.as_bool()), Some(true), "{reply}");
        v
    }

    fn floats(v: &xgs_runtime::JsonValue, key: &str) -> Vec<f64> {
        let items = v.get(key).and_then(|a| a.as_array()).unwrap();
        items.iter().map(|x| x.as_f64().unwrap()).collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// `predict` and `serve` factor Σ(θ) the same way — one tile rule, one
    /// kernel-time model, the caller's precision rule — so a served
    /// prediction is bitwise the one `predict` writes, and a `load` of the
    /// same data reports `predict`'s likelihood. CSV and the wire both
    /// print shortest round-trip floats, so bits compare.
    #[test]
    fn serve_and_predict_factor_the_same_model() {
        let dir = std::env::temp_dir().join(format!("xgs-parity-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (data, targets, out) = (path("data.csv"), path("targets.csv"), path("pred.csv"));
        for (n, seed, file) in [(600, 21, &data), (40, 22, &targets)] {
            run(&argv(&format!(
                "simulate --n {n} --domain 8 --params 1.0,0.1,0.5 --seed {seed} --out {file}"
            )))
            .unwrap();
        }
        let train = io::load(&data).unwrap();
        let coords = |locs: &[xgs_covariance::Location]| {
            let pts: Vec<String> = locs.iter().map(|l| format!("[{},{}]", l.x, l.y)).collect();
            pts.join(",")
        };
        let points = coords(&io::load(&targets).unwrap().locs);
        let z: Vec<String> = train.z.unwrap().iter().map(f64::to_string).collect();
        let reload = format!(
            "{{\"op\":\"load\",\"name\":\"again\",\"variant\":\"mp-tlr\",\
             \"theta\":[1.0,0.1,0.5],\"locs\":[{}],\"z\":[{}]}}",
            coords(&train.locs),
            z.join(",")
        );

        for (row, flags) in [
            "--variant mp-tlr",
            "--variant mp --precision-rule band --f64-band 1 --f32-band 1",
        ]
        .into_iter()
        .enumerate()
        {
            let printed = run(&argv(&format!(
                "predict --data {data} --targets {targets} --theta 1.0,0.1,0.5 {flags} \
                 --uncertainty --out {out}"
            )))
            .unwrap();
            let llh = printed.split("llh at θ: ").nth(1).unwrap();
            let llh = llh.split(')').next().unwrap().to_string();
            let csv: Vec<Vec<f64>> = std::fs::read_to_string(&out)
                .unwrap()
                .lines()
                .skip(1)
                .map(|l| l.split(',').map(|v| v.parse().unwrap()).collect())
                .collect();
            let want_mean: Vec<f64> = csv.iter().map(|r| r[2]).collect();
            let want_var: Vec<f64> = csv.iter().map(|r| r[3]).collect();

            let port = 21000 + 2 * (std::process::id() % 5000) as usize + row;
            let addr = format!("127.0.0.1:{port}");
            let server = {
                let cmd = format!(
                    "serve --data {data} --theta 1.0,0.1,0.5 {flags} --addr {addr} --solvers 1"
                );
                std::thread::spawn(move || run(&argv(&cmd)))
            };
            let predict = |model: &str| {
                let reply = request(
                    &addr,
                    &format!(
                        "{{\"op\":\"predict\",\"model\":\"{model}\",\"points\":[{points}],\
                         \"uncertainty\":true}}"
                    ),
                );
                (floats(&reply, "mean"), floats(&reply, "uncertainty"))
            };
            let (mean, var) = predict("default");
            assert_eq!(bits(&mean), bits(&want_mean), "{flags}: means");
            assert_eq!(bits(&var), bits(&want_var), "{flags}: variances");
            if row == 0 {
                // The same data as a `load` with the tile left to the server.
                let loaded = request(&addr, &reload);
                let loaded_llh = loaded.get("llh").and_then(|l| l.as_f64()).unwrap();
                assert_eq!(format!("{loaded_llh:.4}"), llh, "{flags}: load llh");
                let (mean, var) = predict("again");
                assert_eq!(bits(&mean), bits(&want_mean), "{flags}: loaded means");
                assert_eq!(bits(&var), bits(&want_var), "{flags}: loaded variances");
            }
            request(&addr, "{\"op\":\"shutdown\"}");
            let drained = server.join().unwrap().unwrap();
            assert!(drained.contains("server drained"), "{drained}");
        }
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
    fn unknown_flags_are_rejected() {
        let err = |cmd: &str| match run(&argv(cmd)) {
            Err(CmdError::Arg(e)) => e.0,
            other => panic!("expected a usage error for '{cmd}', got {other:?}"),
        };
        let e = err("simulate --n 50 --params 1.0,0.1,0.5 --out s.csv --sead 9 --bogus");
        assert!(e.contains("--bogus") || e.contains("--sead"), "{e}");
        assert_eq!(e.lines().count(), 1, "{e}");
        // A flag another command reads is still foreign here.
        assert!(err("scale --n 1000 --tile 50").contains("--tile"));
        for (name, ..) in paths() {
            assert!(err(&format!("{name} --frobnicate 1")).contains("--frobnicate"));
        }
        // A switch takes no value and any other flag needs one.
        assert!(err("fit --se yes").contains("--se"));
        assert!(err("paper table1 --metrics").contains("--metrics"));
    }

    /// `--kernel`/`--variant` and the `load` op's `"kernel"`/`"variant"`
    /// go through one parser each, so a bad name fails with one text.
    #[test]
    fn the_cli_and_the_load_op_reject_a_bad_name_alike() {
        for key in ["kernel", "variant"] {
            let cli = match run(&argv(&format!("fit --data absent.csv --{key} frob"))) {
                Err(CmdError::Arg(e)) => e.0,
                other => panic!("expected a usage error for --{key}, got {other:?}"),
            };
            let load = format!(
                "{{\"op\":\"load\",\"{key}\":\"frob\",\"theta\":[1.0,0.1,0.5],\
                 \"locs\":[[0.5,0.5]],\"z\":[1.0]}}"
            );
            let wire = match xgs_server::parse_request(&load) {
                Err(failure) => failure.error,
                Ok(_) => panic!("a load with {key} 'frob' parsed"),
            };
            assert_eq!(cli, wire);
            assert!(
                wire.starts_with(&format!("unknown {key} 'frob' (")),
                "{wire}"
            );
        }
    }

    /// The `--flag`s the usage entry of a command path names, a switch
    /// (written `[--switch]`) with the table's `!`: the command's lines,
    /// or for `paper <name>` the job's line.
    fn usage_flags(path: &str) -> Vec<String> {
        let (head, job) = match path.split_once(' ') {
            Some((head, job)) => (head, Some(job)),
            None => (path, None),
        };
        let text = usage();
        let mut lines = text
            .lines()
            .skip_while(|l| !l.starts_with(&format!("  {head} ")));
        let first = lines.next().unwrap();
        let entry = std::iter::once(first)
            .chain(lines.take_while(|l| l.starts_with("    ")))
            .filter(|l| job.is_none() || l.split_whitespace().next() == job);
        let mut flags: Vec<String> = entry
            .flat_map(|l| l.split("--").skip(1))
            .map(|w| {
                let end = w.find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
                let (name, rest) = w.split_at(end.unwrap_or(w.len()));
                let switch = if rest.starts_with(']') { "!" } else { "" };
                format!("{name}{switch}")
            })
            .collect();
        flags.sort_unstable();
        flags.dedup();
        flags
    }

    #[test]
    fn usage_names_exactly_the_flags_each_command_reads() {
        for (path, _, flags) in paths() {
            let mut reads: Vec<&str> = flags.split_whitespace().collect();
            reads.sort_unstable();
            assert_eq!(usage_flags(&path), reads, "usage entry of {path}");
        }
    }

    #[test]
    fn an_unknown_or_missing_paper_job_is_a_usage_error() {
        for cmd in ["paper table3", "paper"] {
            match run(&argv(cmd)) {
                Err(CmdError::Arg(e)) => assert!(e.0.contains(cmd), "{e}"),
                other => panic!("expected a usage error for '{cmd}', got {other:?}"),
            }
        }
    }

    #[test]
    fn only_table1_takes_metrics_and_it_needs_a_path() {
        for bad in [
            "paper table1 --metrics",
            "paper table1 --metrics --verbose",
            "paper table1 --verbose",
            "paper table2 --metrics m.json",
            "paper fig9 --quick",
        ] {
            let parsed = Args::parse(&bad.split_whitespace().map(String::from).collect::<Vec<_>>());
            assert!(
                parsed.map_or(true, |a| command(&a).is_err()),
                "{bad} parsed"
            );
        }
        let a = argv("paper table1 --metrics m.json");
        assert!(command(&a).is_ok());
        assert_eq!(a.get("metrics"), Some("m.json"));
    }

    #[test]
    fn every_paper_job_is_unique_and_listed_in_usage() {
        let text = usage();
        for (i, (name, ..)) in paper::JOBS.iter().enumerate() {
            assert!(
                paper::JOBS[i + 1..].iter().all(|j| j.0 != *name),
                "{name} listed twice"
            );
            assert!(
                text.lines()
                    .any(|l| l.split_whitespace().next() == Some(name)),
                "{name} missing from usage"
            );
            assert!(command(&argv(&format!("paper {name}"))).is_ok());
        }
        assert_eq!(paper::JOBS.len(), 13);
    }

    #[test]
    fn ci_and_fleet_invocations_pass_the_flag_check() {
        let ci = include_str!("../../.github/workflows/ci.yml");
        let mut lines = ci.lines();
        let mut checked = 0;
        while let Some(line) = lines.next() {
            let Some((_, rest)) = line.split_once("target/release/exageostat ") else {
                continue;
            };
            let mut call = rest.to_string();
            while call.ends_with('\\') {
                call.pop();
                call.push_str(lines.next().unwrap());
            }
            let words: Vec<String> = call
                .split_whitespace()
                .take_while(|w| !matches!(*w, "&" | ">"))
                .map(|w| w.trim_matches('"').to_string())
                .collect();
            let args = Args::parse(&words).unwrap();
            assert!(command(&args).is_ok(), "CI runs `exageostat {call}`");
            checked += 1;
        }
        assert!(checked >= 31, "only {checked} invocations found in CI");
        // The argv `xgs-fleet` starts each worker with.
        assert!(command(&argv("worker --connect 127.0.0.1:4741")).is_ok());
    }

    /// `cmd` fails with a usage error naming `flag`, not a panic.
    fn assert_usage_error(cmd: &str, flag: &str) {
        match run(&argv(cmd)) {
            Err(CmdError::Arg(e)) => assert!(e.0.contains(flag), "{cmd}: {e}"),
            other => panic!("expected a usage error for '{cmd}', got {other:?}"),
        }
    }

    #[test]
    fn zero_tile_is_a_usage_error() {
        let dir = std::env::temp_dir().join(format!("xgs-zero-tile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d = dir.join("d.csv");
        let ds = d.to_str().unwrap();
        run(&argv(&format!(
            "simulate --n 40 --params 1.0,0.1,0.5 --out {ds}"
        )))
        .unwrap();
        let theta = "--theta 1.0,0.1,0.5 --tile 0";
        for cmd in [
            format!("fit --data {ds} --tile 0"),
            format!("predict --data {ds} --targets {ds} {theta}"),
            format!("maps --data {ds} {theta}"),
            format!("serve --data {ds} {theta} --addr 127.0.0.1:0"),
            format!("bayes --data {ds} --start 1.0,0.1,0.5 --tile 0"),
        ] {
            assert_usage_error(&cmd, "--tile");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_nb_is_a_usage_error() {
        assert_usage_error("scale --n 1000 --nodes 4 --nb 0", "--nb");
    }

    #[test]
    fn zero_n_is_a_usage_error() {
        assert_usage_error("scale --n 0 --nodes 4", "--n");
        assert_usage_error("simulate --n 0 --params 1.0,0.1,0.5 --out x.csv", "--n");
    }

    #[test]
    fn zero_nodes_is_a_usage_error() {
        assert_usage_error("scale --n 1000 --nodes 0", "--nodes");
    }

    #[test]
    fn too_few_particles_or_kept_draws_is_a_usage_error() {
        let dir = std::env::temp_dir().join(format!("xgs-few-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d = dir.join("d.csv");
        let ds = d.to_str().unwrap();
        run(&argv(&format!(
            "simulate --n 40 --params 1.0,0.1,0.5 --out {ds}"
        )))
        .unwrap();
        assert_usage_error(
            &format!("fit --data {ds} --optimizer pso --particles 1"),
            "--particles",
        );
        assert_usage_error(
            &format!("bayes --data {ds} --start 1.0,0.1,0.5 --iterations 10 --burn-in 10"),
            "--iterations",
        );
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
