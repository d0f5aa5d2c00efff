//! The five workloads: set-up, the timed phases, and the output checks.
//!
//! Every workload runs the same three kinds of op, which is what lets
//! every end-to-end metric be reported on every workload:
//!
//! * a **model op** — make the factorized model for one θ of the
//!   trajectory (a likelihood evaluation in-process or on the fleet, or a
//!   `load` sent to the server);
//! * **bulk prediction** — throughput with and without uncertainty;
//! * an **interactive stream** — small requests arriving on a schedule,
//!   timed from when each was due.
//!
//! The workloads differ in the solver variant, in where the factorization
//! runs, and in whether predictions go through a direct call or the
//! server's socket — see `SPECS`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xgs_cholesky::{logdet, solve_lower, ShardBackend, TiledFactor};
use xgs_core::{
    krige, log_likelihood_engine, FactorEngine, ModelFamily, PredictionPlan, PredictionResult,
};
use xgs_covariance::{CovarianceKernel, Location};
use xgs_fleet::{FleetConfig, Supervisor};
use xgs_server::{serve, ModelRegistry, ServerConfig, ServerHandle};
use xgs_tile::{FlopKernelModel, SymTileMatrix, TlrConfig, Variant};

use crate::client::{self, parse_reply};
use crate::data::{matern, Dataset, Inputs, Request, CHUNK, HEAVY_POINTS, SMALL_THETA, TRUTH};
use crate::speed::Gauge;
use crate::stats::{median, percentile, Metrics};
use crate::trace::Tracer;

/// What distinguishes one workload from another.
pub struct Spec {
    pub name: &'static str,
    pub variant: Variant,
    /// Factorize on a warm fleet of two worker processes.
    pub sharded: bool,
    /// Predict and load through the server's socket.
    pub tcp: bool,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "fit-dense",
        variant: Variant::DenseF64,
        sharded: false,
        tcp: false,
    },
    Spec {
        name: "fit-mp",
        variant: Variant::MpDense,
        sharded: false,
        tcp: false,
    },
    Spec {
        name: "fit-tlr",
        variant: Variant::MpDenseTlr,
        sharded: false,
        tcp: false,
    },
    Spec {
        name: "predict-sharded",
        variant: Variant::DenseF64,
        sharded: true,
        tcp: false,
    },
    Spec {
        name: "serve",
        variant: Variant::MpDense,
        sharded: false,
        tcp: true,
    },
];

pub struct Config {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    /// `min(nproc, 4)`, used wherever a worker count is asked for.
    pub threads: usize,
    pub worker_exe: PathBuf,
    /// Corrupt the reference likelihood, to show that the check fails.
    pub force_fail: bool,
}

/// The model and bulk phases run in this many rounds of model ops, then
/// uncertainty chunks, then mean chunks, so that each metric's samples are
/// spread over the run and not taken in one stretch: the machine's speed
/// shifts between stretches of ten seconds or so.
const ROUNDS: usize = 3;
/// Shares of `--seconds` each phase gets.
const MODEL_SHARE: f64 = 0.42;
const BULK_SHARE: f64 = 0.15;
const STREAM_SHARE: f64 = 0.28;
/// Interactive stream: fixed open-loop rate and the latency limit.
pub const RATE: f64 = 300.0;
pub const SLO_MS: f64 = 50.0;
/// Latency booked for a stream request that got no (right) answer.
const MISS_MS: f64 = 5000.0;
/// Closed-loop capacity phases of `serve`: requests in flight per
/// connection. Deep enough that the batch queue, not thread wake-up
/// latency (which on a shared VM varies by the minute), sets the rate.
const WINDOW: usize = 32;
/// `serve` sends a `load` this often beside the stream.
const LOAD_EVERY: Duration = Duration::from_millis(750);
/// Likelihood of the approximate variants against dense FP64.
const LLH_REL_TOL: f64 = 1e-8;
const JOIN_TIMEOUT: Duration = Duration::from_secs(15);
/// Points of each bulk chunk whose answer is checked.
const CHECK_HEAD: usize = 16;
/// The stream takes a machine-speed sample before every so-many-th
/// request, when the next one is at least this far off.
const GAUGE_EVERY: usize = 32;
const GAUGE_ROOM: Duration = Duration::from_millis(2);
/// While client threads drive a closed loop, sample this often.
const GAUGE_PAUSE: Duration = Duration::from_millis(100);

/// The CLI's kernel-time model for tiles under 512.
pub fn cli_model() -> FlopKernelModel {
    FlopKernelModel {
        dense_rate: 45.0e9,
        mem_factor: 1.0,
    }
}

/// The variant as the `load` request names it.
pub fn variant_wire_name(v: Variant) -> &'static str {
    match v {
        Variant::DenseF64 => "dense",
        Variant::MpDense => "mp",
        Variant::MpDenseTlr => "mp-tlr",
    }
}

/// Ops attempted and failed, with one line per failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }
}

/// Everything a workload needs before its first timed op.
pub struct Stage {
    pub inputs: Inputs,
    pub engine: FactorEngine,
    fleet: Option<Arc<Supervisor>>,
    pub small: Arc<PredictionPlan>,
    pub field: Arc<PredictionPlan>,
    pub server: Option<ServerHandle>,
}

fn direct_plan(
    ds: &Dataset,
    theta: [f64; 3],
    variant: Variant,
    engine: &FactorEngine,
) -> Result<Arc<PredictionPlan>, String> {
    let kernel: Arc<dyn CovarianceKernel> = Arc::new(matern(theta));
    let cfg = TlrConfig::new(variant, ds.tile);
    let rep = log_likelihood_engine(kernel.as_ref(), &ds.locs, &ds.z, &cfg, &cli_model(), engine)
        .map_err(|e| format!("plan factorization failed: {e}"))?;
    Ok(Arc::new(PredictionPlan::new(
        kernel,
        Arc::from(ds.locs.clone()),
        &ds.z,
        rep.factor,
    )))
}

impl Stage {
    /// Data generation, fleet or server start, and the warm-up op (the
    /// `field` plan is one model op on the workload's own engine).
    pub fn setup(cfg: &Config) -> Result<Stage, String> {
        let spec = cfg.spec;
        let inputs = Inputs::generate(cfg.seed, spec.tcp);
        let threads = FactorEngine::Threads(cfg.threads);
        let (fleet, engine) = if spec.sharded {
            let fleet = Arc::new(
                Supervisor::start(FleetConfig::process(cfg.worker_exe.clone(), 2))
                    .map_err(|e| format!("cannot start the worker fleet: {e}"))?,
            );
            let backend: Arc<dyn ShardBackend> = fleet.clone();
            (Some(fleet), FactorEngine::Sharded(backend))
        } else {
            (None, threads.clone())
        };
        let (small, field, server) = if spec.tcp {
            // The shape of `exageostat serve`: plans from the server's own
            // builder, default configuration apart from the address.
            let build = |ds: &Dataset, theta: [f64; 3]| {
                xgs_server::build_plan(
                    ModelFamily::MaternSpace,
                    &theta,
                    spec.variant,
                    ds.tile,
                    ds.locs.clone(),
                    &ds.z,
                    cfg.threads,
                )
                .map(|(plan, _llh)| plan)
            };
            let small = build(&inputs.small, SMALL_THETA)?;
            let field = build(&inputs.field, TRUTH)?;
            let registry = Arc::new(ModelRegistry::new());
            registry.insert("small", small.clone());
            registry.insert("field", field.clone());
            let handle = serve(
                &ServerConfig {
                    addr: "127.0.0.1:0".to_string(),
                    ..ServerConfig::default()
                },
                registry,
            )
            .map_err(|e| format!("cannot start the server: {e}"))?;
            let pong = client::Conn::connect(handle.addr())
                .and_then(|mut c| c.call(&client::with_id(0, "\"op\":\"ping\"}")))
                .map_err(|e| format!("server does not answer ping: {e}"))?;
            if !parse_reply(&pong).ok {
                return Err(format!("server refused ping: {pong}"));
            }
            (small, field, Some(handle))
        } else {
            (
                direct_plan(&inputs.small, SMALL_THETA, spec.variant, &threads)?,
                direct_plan(&inputs.field, TRUTH, spec.variant, &engine)?,
                None,
            )
        };
        Ok(Stage {
            inputs,
            engine,
            fleet,
            small,
            field,
            server,
        })
    }

    /// The plan and training data a request is answered from.
    pub fn target(&self, req: &Request) -> (&PredictionPlan, &Dataset, [f64; 3]) {
        if req.model == "field" {
            (&self.field, &self.inputs.field, TRUTH)
        } else {
            (&self.small, &self.inputs.small, SMALL_THETA)
        }
    }

    /// The fleet as the backend the traced re-performance calls directly.
    pub fn fleet(&self) -> Option<&Supervisor> {
        self.fleet.as_deref()
    }

    /// Drain the server and shut the fleet down. Runs on every exit path
    /// that got as far as a finished set-up.
    pub fn teardown(self) -> Result<(), String> {
        let Stage {
            engine,
            fleet,
            server,
            ..
        } = self;
        if let Some(handle) = server {
            handle.shutdown();
            // `join` waits for every connection to close; bound the wait.
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                handle.join();
                let _ = tx.send(());
            });
            rx.recv_timeout(JOIN_TIMEOUT)
                .map_err(|_| "server did not drain within its timeout".to_string())?;
        }
        drop(engine);
        if let Some(fleet) = fleet {
            // Dropping the supervisor kills and reaps its workers.
            Arc::try_unwrap(fleet).map_err(|_| "fleet still shared at teardown".to_string())?;
        }
        Ok(())
    }
}

/// What one model op produced.
pub struct ModelOut {
    pub llh: f64,
    pub factor: Arc<TiledFactor>,
}

/// The model op as the program does it.
pub fn model_op(
    ds: &Dataset,
    theta: [f64; 3],
    variant: Variant,
    engine: &FactorEngine,
) -> Result<ModelOut, String> {
    let cfg = TlrConfig::new(variant, ds.tile);
    log_likelihood_engine(&matern(theta), &ds.locs, &ds.z, &cfg, &cli_model(), engine)
        .map(|r| ModelOut {
            llh: r.llh,
            factor: r.factor,
        })
        .map_err(|e| e.to_string())
}

/// The same evaluation re-performed from the layers' public calls, each
/// under a span. Must give `model_op`'s likelihood bit for bit.
pub fn model_op_traced(
    tr: &mut Tracer,
    op_id: u64,
    ds: &Dataset,
    theta: [f64; 3],
    variant: Variant,
    threads: usize,
    fleet: Option<&Supervisor>,
) -> Result<ModelOut, String> {
    let kernel = matern(theta);
    let cfg = TlrConfig::new(variant, ds.tile);
    tr.span("model_op", op_id, |tr| {
        let matrix = tr.span("tile.generate", op_id, |_| {
            SymTileMatrix::generate(&kernel, &ds.locs, cfg, &cli_model())
        });
        let mut factor = tr.span("cholesky.from_matrix", op_id, |_| {
            TiledFactor::from_matrix(matrix)
        });
        let factor = match fleet {
            Some(fleet) => {
                tr.span("cholesky.factor_sharded", op_id, |_| {
                    fleet.factorize(&mut factor)
                })
                .map_err(|e| e.to_string())?;
                Arc::new(factor)
            }
            None => {
                let factor = Arc::new(factor);
                tr.span("cholesky.factor_parallel", op_id, |_| {
                    factor.factorize_parallel(threads).0
                })
                .map_err(|e| e.to_string())?;
                factor
            }
        };
        let ld = tr.span("cholesky.logdet", op_id, |_| logdet(&factor));
        let quad = tr.span("cholesky.solve_lower", op_id, |_| {
            let mut w = ds.z.clone();
            solve_lower(&factor, &mut w, 1);
            w.iter().map(|x| x * x).sum::<f64>()
        });
        let n = ds.locs.len() as f64;
        let llh = -0.5 * n * (2.0 * std::f64::consts::PI).ln() - 0.5 * ld - 0.5 * quad;
        Ok(ModelOut { llh, factor })
    })
}

/// One model op: which θ of the trajectory, how long, and its ℓ.
pub struct ModelSample {
    pub theta_idx: usize,
    pub secs: f64,
    pub llh: f64,
}

/// One request of the interactive stream as the caller saw it.
pub struct StreamSample {
    pub heavy: bool,
    /// Milliseconds from due time to the right answer; `MISS_MS` when no
    /// answer, a refusal or a wrong answer came.
    pub ms: f64,
    /// How late after its due time the generator issued it, ms.
    pub late_ms: f64,
}

fn span_name(heavy: bool) -> &'static str {
    if heavy {
        "request.heavy"
    } else {
        "request.light"
    }
}

/// What the timed phases measured.
#[derive(Default)]
pub struct Timed {
    /// The untraced model ops.
    pub model: Vec<ModelSample>,
    /// Re-performed ops (traced run only).
    pub model_traced: Vec<ModelSample>,
    /// `serve`'s `load`s sent while the stream runs.
    pub model_beside: Vec<ModelSample>,
    /// Points per second of each bulk op (a `krige` chunk, or one
    /// closed-loop round over all connections).
    pub bulk_unc: Vec<f64>,
    pub bulk_mean: Vec<f64>,
    pub stream: Vec<StreamSample>,
    pub shed: u64,
    pub errors: u64,
}

impl Timed {
    /// Stream latencies in ms, of one class or of all requests.
    fn stream_ms(&self, heavy: Option<bool>) -> Vec<f64> {
        self.stream
            .iter()
            .filter(|s| heavy.is_none_or(|h| s.heavy == h))
            .map(|s| s.ms)
            .collect()
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_result(got: &PredictionResult, want: &PredictionResult) -> bool {
    same_bits(&got.mean, &want.mean)
        && match (&got.uncertainty, &want.uncertainty) {
            (Some(a), Some(b)) => same_bits(a, b),
            (None, None) => true,
            _ => false,
        }
}

/// The first `n` points of a result.
fn head(r: &PredictionResult, n: usize) -> PredictionResult {
    PredictionResult {
        mean: r.mean[..n].to_vec(),
        uncertainty: r.uncertainty.as_ref().map(|u| u[..n].to_vec()),
    }
}

/// One round's part of a model or bulk phase.
fn share(cfg: &Config, s: f64) -> Duration {
    Duration::from_secs_f64(cfg.seconds * s / ROUNDS as f64)
}

/// Spin until `due`. The caller is the only busy thread between direct
/// requests, and a sleeping core answers its next request several times
/// slower, which would be measured as the library's latency.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// `fit-*` and `predict-sharded`: every op is a direct library call.
pub fn run_direct(
    cfg: &Config,
    stage: &Stage,
    tr: &mut Tracer,
    gauge: &mut Gauge,
    tally: &mut Tally,
) -> Timed {
    let spec = cfg.spec;
    let inputs = &stage.inputs;
    let mut timed = Timed::default();

    let kernel = matern(TRUTH);
    let chunks: Vec<&[Location]> = inputs.targets.chunks(CHUNK).collect();
    let (mut op, mut chunk_no) = (0u64, [0usize; 2]);
    for _ in 0..ROUNDS {
        // Model ops over the θ-trajectory. In a traced run plain and
        // re-performed evaluations alternate, so one process yields the
        // traced-vs-untraced pair at every θ.
        let until = Instant::now() + share(cfg, MODEL_SHARE);
        let first = op;
        gauge.mark();
        while Instant::now() < until || op == first {
            let k = (op as usize / if tr.enabled { 2 } else { 1 }) % inputs.thetas.len();
            let traced = tr.enabled && op % 2 == 1;
            let t = Instant::now();
            let out = if traced {
                model_op_traced(
                    tr,
                    op,
                    &inputs.field,
                    inputs.thetas[k],
                    spec.variant,
                    cfg.threads,
                    stage.fleet(),
                )
            } else {
                tr.span("model_op.plain", op, |_| {
                    model_op(&inputs.field, inputs.thetas[k], spec.variant, &stage.engine)
                })
            };
            let secs = t.elapsed().as_secs_f64() * gauge.mark();
            op += 1;
            match out {
                Ok(out) => {
                    let list = if traced {
                        &mut timed.model_traced
                    } else {
                        &mut timed.model
                    };
                    list.push(ModelSample {
                        theta_idx: k,
                        secs,
                        llh: out.llh,
                    });
                }
                Err(e) => tally.check(false, || format!("model op at θ[{k}] failed: {e}")),
            }
        }

        // Bulk prediction against the set-up's `field` plan: chunks of 500
        // targets, first with uncertainty, then mean only.
        for (unc, name) in [(true, "core.krige.unc"), (false, "core.krige.mean")] {
            let until = Instant::now() + share(cfg, BULK_SHARE);
            let i = &mut chunk_no[unc as usize];
            let first = *i;
            let rates = if unc {
                &mut timed.bulk_unc
            } else {
                &mut timed.bulk_mean
            };
            gauge.mark();
            while Instant::now() < until || *i == first {
                let chunk = chunks[*i % chunks.len()];
                let t = Instant::now();
                let got = tr.span(name, *i as u64, |_| {
                    krige(
                        &kernel,
                        &inputs.field.locs,
                        &inputs.field.z,
                        stage.field.factor(),
                        chunk,
                        unc,
                    )
                });
                rates.push(chunk.len() as f64 / (t.elapsed().as_secs_f64() * gauge.mark()));
                // One-shot kriging must equal the cached plan's query. A
                // point's answer does not depend on its batch, so the head
                // of the chunk is checked at a small part of the op's cost.
                let n = CHECK_HEAD.min(chunk.len());
                let want = stage.field.query(&chunk[..n], unc);
                let same = got.mean.len() == chunk.len() && same_result(&head(&got, n), &want);
                tally.check(same, || {
                    format!("krige chunk {i} (uncertainty={unc}) differs from the plan's query")
                });
                *i += 1;
            }
        }
    }

    // Interactive stream, open loop, one caller thread: request i is due
    // at start + i / RATE and is timed from then.
    let length = Duration::from_secs_f64(cfg.seconds * STREAM_SHARE);
    gauge.mark();
    let start = Instant::now();
    let mut results: Vec<(usize, PredictionResult)> = Vec::new();
    for i in 0.. {
        let due = start + Duration::from_secs_f64(i as f64 / RATE);
        if due.duration_since(start) >= length {
            break;
        }
        if i % GAUGE_EVERY == 0 && due.saturating_duration_since(Instant::now()) > GAUGE_ROOM {
            gauge.sample();
        }
        wait_until(due);
        let idx = i % inputs.pool.len();
        let req = &inputs.pool[idx];
        let issued = Instant::now();
        let got = tr.span(span_name(req.heavy), i as u64, |_| {
            stage.target(req).0.query(&req.points, req.heavy)
        });
        timed.stream.push(StreamSample {
            heavy: req.heavy,
            ms: due.elapsed().as_secs_f64() * 1e3,
            late_ms: issued.duration_since(due).as_secs_f64() * 1e3,
        });
        results.push((idx, got));
    }
    let scale = gauge.mark();
    for s in &mut timed.stream {
        s.ms *= scale;
    }
    // Checked after the clock stops: the plan's answer must equal one-shot
    // kriging of the same points against the same factor.
    let expected: Vec<PredictionResult> = inputs
        .pool
        .iter()
        .map(|req| {
            let (plan, ds, theta) = stage.target(req);
            krige(
                &matern(theta),
                &ds.locs,
                &ds.z,
                plan.factor(),
                &req.points,
                req.heavy,
            )
        })
        .collect();
    for (i, (idx, got)) in results.iter().enumerate() {
        tally.check(same_result(got, &expected[*idx]), || {
            format!("request {i} (pool {idx}) differs from one-shot kriging")
        });
    }
    timed
}

/// Does a `predict` reply carry exactly `want`?
fn reply_matches(line: &str, want: &PredictionResult) -> bool {
    let r = parse_reply(line);
    match r.mean {
        Some(mean) if r.ok => same_result(
            &PredictionResult {
                mean,
                uncertainty: r.uncertainty,
            },
            want,
        ),
        _ => false,
    }
}

/// `serve`: every op crosses the server's socket.
pub fn run_serve(
    cfg: &Config,
    stage: &Stage,
    tr: &mut Tracer,
    gauge: &mut Gauge,
    tally: &mut Tally,
) -> Result<Timed, String> {
    let inputs = &stage.inputs;
    let addr = stage.server.as_ref().expect("serve has a server").addr();
    let conns = client_conns();
    let mut timed = Timed::default();
    let bodies: Vec<String> = inputs.pool.iter().map(client::predict_body).collect();
    // What a direct query of the same plan gives, per pool entry.
    let expected: Vec<PredictionResult> = inputs
        .pool
        .iter()
        .map(|req| stage.target(req).0.query(&req.points, req.heavy))
        .collect();

    let loads: Vec<String> = inputs
        .thetas
        .iter()
        .map(|&t| {
            client::load_body(
                "reload",
                &inputs.reload,
                t,
                variant_wire_name(cfg.spec.variant),
            )
        })
        .collect();
    let mut load_conn =
        client::Conn::connect_for_loads(addr).map_err(|e| format!("load connection: {e}"))?;
    let mut op = 0usize;
    for _ in 0..ROUNDS {
        // Model ops: `load`s of `reload` at the trajectory's θ, one after
        // the other on an otherwise idle server.
        let until = Instant::now() + share(cfg, MODEL_SHARE);
        let first = op;
        gauge.mark();
        while Instant::now() < until || op == first {
            let k = op % loads.len();
            let sent = Instant::now();
            let reply = load_conn.call(&client::with_id(op as u64, &loads[k]));
            let recv = Instant::now();
            let secs = recv.duration_since(sent).as_secs_f64() * gauge.mark();
            let line = reply.map_err(|e| format!("load {op}: {e}"))?;
            tr.add("load", op as u64, 0, tr.at(sent), tr.at(recv));
            match parse_reply(&line) {
                client::Reply {
                    ok: true,
                    llh: Some(llh),
                    ..
                } => timed.model.push(ModelSample {
                    theta_idx: k,
                    secs,
                    llh,
                }),
                _ => tally.check(false, || format!("load {op} refused: {}", line.trim_end())),
            }
            op += 1;
        }

        // Bulk: closed loop at capacity, heavy requests only, then light
        // only. Any error or shed reply here is a failed op.
        for heavy in [true, false] {
            let class: Vec<(usize, String)> = (0..inputs.pool.len())
                .filter(|&i| inputs.pool[i].heavy == heavy)
                .map(|i| (i, bodies[i].clone()))
                .collect();
            let until = Instant::now() + share(cfg, BULK_SHARE);
            gauge.mark();
            let started = Instant::now();
            let per_conn: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..conns)
                    .map(|c| {
                        let class = &class;
                        scope.spawn(move || {
                            // Each connection starts at its own place in the class.
                            let mut mine = class.clone();
                            mine.rotate_left(c * class.len() / conns);
                            client::closed_loop(addr, &mine, WINDOW, until)
                        })
                    })
                    .collect();
                // This thread has nothing to send: it watches the machine.
                while Instant::now() < until {
                    std::thread::sleep(GAUGE_PAUSE);
                    gauge.sample();
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            let elapsed = started.elapsed().as_secs_f64() * gauge.mark();
            let name = span_name(heavy);
            let mut answered = 0usize;
            for (lane, res) in per_conn.into_iter().enumerate() {
                let (answers, unanswered) = res.map_err(|e| format!("closed loop: {e}"))?;
                for _ in 0..unanswered {
                    tally.check(false, || "closed-loop request got no reply".to_string());
                }
                answered += answers.len();
                for (i, a) in answers.iter().enumerate() {
                    tr.add(
                        name,
                        i as u64,
                        lane as u32 + 1,
                        tr.at(a.sent),
                        tr.at(a.recv),
                    );
                    tally.check(reply_matches(&a.line, &expected[a.pool_idx]), || {
                        format!(
                            "closed-loop reply differs from a direct query: {}",
                            a.line.trim_end()
                        )
                    });
                }
            }
            let points = if heavy { HEAVY_POINTS } else { 1 };
            let rates = if heavy {
                &mut timed.bulk_unc
            } else {
                &mut timed.bulk_mean
            };
            rates.push((answered * points) as f64 / elapsed);
        }
    }
    drop(load_conn);

    // The stream: the open-loop mix on `conns` connections while a further
    // connection keeps reloading `reload` — writes beside reads.
    let stop = AtomicBool::new(false);
    let length = Duration::from_secs_f64(cfg.seconds * STREAM_SHARE);
    let (sent, loaded) = std::thread::scope(|scope| {
        let loader = scope.spawn(|| client::load_loop(addr, &loads, LOAD_EVERY, &stop));
        gauge.mark();
        let sent = client::open_loop(addr, &bodies, RATE, length, conns, &mut |i, room| {
            if i % GAUGE_EVERY == 0 && room > GAUGE_ROOM {
                gauge.sample();
            }
        });
        stop.store(true, Ordering::Release);
        (sent, loader.join().expect("load thread panicked"))
    });
    // One scale for the whole phase: stream latencies and its `load`s.
    let scale = gauge.mark();
    let sent = sent.map_err(|e| format!("open loop: {e}"))?;
    let loaded = loaded.map_err(|e| format!("load loop: {e}"))?;

    for (i, s) in sent.iter().enumerate() {
        let req = &inputs.pool[s.pool_idx];
        let mut ms = MISS_MS;
        match &s.recv {
            Some((at, line)) => {
                let lane = (i % conns) as u32 + 1;
                tr.add(
                    span_name(req.heavy),
                    i as u64,
                    lane,
                    tr.at(s.sent),
                    tr.at(*at),
                );
                let r = parse_reply(line);
                if r.shed {
                    timed.shed += 1;
                } else if !r.ok {
                    timed.errors += 1;
                }
                let good = reply_matches(line, &expected[s.pool_idx]);
                tally.check(good, || {
                    format!("stream reply {i} wrong or refused: {}", line.trim_end())
                });
                if good {
                    ms = at.duration_since(s.due).as_secs_f64() * 1e3 * scale;
                }
            }
            None => tally.check(false, || format!("stream request {i} got no reply")),
        }
        timed.stream.push(StreamSample {
            heavy: req.heavy,
            ms,
            late_ms: s.sent.duration_since(s.due).as_secs_f64() * 1e3,
        });
    }
    for (i, l) in loaded.iter().enumerate() {
        match &l.reply {
            Ok((at, line)) => {
                tr.add(
                    "load.beside_stream",
                    i as u64,
                    conns as u32 + 1,
                    tr.at(l.sent),
                    tr.at(*at),
                );
                let r = parse_reply(line);
                match (r.ok, r.llh) {
                    (true, Some(llh)) => timed.model_beside.push(ModelSample {
                        theta_idx: l.theta_idx,
                        secs: at.duration_since(l.sent).as_secs_f64() * scale,
                        llh,
                    }),
                    _ => tally.check(false, || {
                        format!("load {i} beside the stream refused: {}", line.trim_end())
                    }),
                }
            }
            Err(e) => tally.check(false, || format!("load {i} beside the stream failed: {e}")),
        }
    }
    Ok(timed)
}

/// Client connections: at most one per core, at most two.
fn client_conns() -> usize {
    xgs_runtime::logical_cores().clamp(1, 2)
}

/// Check every model op's likelihood against the sequential dense-FP64
/// reference at the same θ: bitwise for the dense variant, within
/// `LLH_REL_TOL` for the approximate ones. Returns the largest relative
/// error seen.
pub fn check_likelihoods(
    cfg: &Config,
    stage: &Stage,
    timed: &Timed,
    tally: &mut Tally,
) -> Result<f64, String> {
    let spec = cfg.spec;
    // `serve` loads `reload` with the server's default kernel-time model;
    // the reference is then the same variant run sequentially in-process
    // (every engine must give identical factors), not dense FP64.
    let ds = if spec.tcp {
        &stage.inputs.reload
    } else {
        &stage.inputs.field
    };
    let mut worst = 0.0f64;
    for (k, &theta) in stage.inputs.thetas.iter().enumerate() {
        let ops: Vec<&ModelSample> = timed
            .model
            .iter()
            .chain(&timed.model_traced)
            .chain(&timed.model_beside)
            .filter(|m| m.theta_idx == k)
            .collect();
        if ops.is_empty() {
            continue;
        }
        let mut reference = if spec.tcp {
            let cfg_t = TlrConfig::new(spec.variant, ds.tile);
            log_likelihood_engine(
                &matern(theta),
                &ds.locs,
                &ds.z,
                &cfg_t,
                &FlopKernelModel::default(),
                &FactorEngine::Sequential,
            )
            .map_err(|e| format!("reference evaluation failed: {e}"))?
            .llh
        } else {
            model_op(ds, theta, Variant::DenseF64, &FactorEngine::Sequential)
                .map_err(|e| format!("reference evaluation failed: {e}"))?
                .llh
        };
        if cfg.force_fail {
            reference = f64::from_bits(reference.to_bits() ^ (1 << 30));
        }
        let exact = spec.tcp || spec.variant == Variant::DenseF64;
        for llh in ops.iter().map(|m| m.llh) {
            let rel = ((llh - reference) / reference).abs();
            worst = worst.max(rel);
            let ok = if exact {
                llh.to_bits() == reference.to_bits()
            } else {
                rel <= LLH_REL_TOL
            };
            tally.check(ok, || {
                format!("ℓ(θ[{k}]) = {llh:?} but the reference gives {reference:?} (rel {rel:.3e})")
            });
        }
    }
    // Re-performed evaluations must reproduce the program's bit for bit.
    for t in &timed.model_traced {
        if let Some(p) = timed.model.iter().find(|p| p.theta_idx == t.theta_idx) {
            tally.check(p.llh.to_bits() == t.llh.to_bits(), || {
                format!(
                    "re-performed ℓ(θ[{}]) = {:?} differs from the program's {:?}",
                    t.theta_idx, t.llh, p.llh
                )
            });
        }
    }
    Ok(worst)
}

/// `predict-sharded` only: the fleet's factor of Σ(θ_truth) must equal the
/// in-process one bit for bit.
pub fn check_sharded_factor(cfg: &Config, stage: &Stage, tally: &mut Tally) -> Result<(), String> {
    let local = model_op(
        &stage.inputs.field,
        TRUTH,
        cfg.spec.variant,
        &FactorEngine::Threads(cfg.threads),
    )?;
    let same = same_bits(
        stage.field.factor().to_dense_lower().as_slice(),
        local.factor.to_dense_lower().as_slice(),
    );
    tally.check(same, || {
        "sharded factor differs from the in-process factor".to_string()
    });
    Ok(())
}

/// The end-to-end metrics of one untraced run (all but `setup_s` and
/// `peak_rss_mb`, which `main` adds).
pub fn end_to_end(timed: &Timed, out: &mut Metrics) {
    let model: Vec<f64> = timed.model.iter().map(|m| m.secs).collect();
    out.push("model_s", median(&model), "s", model.len());
    let (unc, mean) = (&timed.bulk_unc, &timed.bulk_mean);
    out.push("predict_pts_per_s", median(unc), "points/s", unc.len());
    out.push(
        "predict_mean_pts_per_s",
        median(mean),
        "points/s",
        mean.len(),
    );
    let (all, heavy) = (timed.stream_ms(None), timed.stream_ms(Some(true)));
    out.push("request_p50_ms", percentile(&all, 0.50), "ms", all.len());
    out.push(
        "request_heavy_p50_ms",
        percentile(&heavy, 0.50),
        "ms",
        heavy.len(),
    );
}

/// The stream broken down by request class, for the traced run.
pub fn stream_layer_metrics(timed: &Timed, out: &mut Metrics) {
    let (all, light, heavy) = (
        timed.stream_ms(None),
        timed.stream_ms(Some(false)),
        timed.stream_ms(Some(true)),
    );
    out.push(
        "server.light_p50_ms",
        percentile(&light, 0.50),
        "ms",
        light.len(),
    );
    out.push(
        "server.heavy_p50_ms",
        percentile(&heavy, 0.50),
        "ms",
        heavy.len(),
    );
    out.push(
        "server.heavy_p99_ms",
        percentile(&heavy, 0.99),
        "ms",
        heavy.len(),
    );
    out.push(
        "server.request_p99_ms",
        percentile(&all, 0.99),
        "ms",
        all.len(),
    );
    let within = all.iter().filter(|&&ms| ms <= SLO_MS).count();
    out.push(
        "server.slo_frac",
        within as f64 / all.len() as f64,
        "frac",
        all.len(),
    );
    out.push("server.shed_count", timed.shed as f64, "count", all.len());
    out.push(
        "server.error_count",
        timed.errors as f64,
        "count",
        all.len(),
    );
    // `serve` only; 0 where there is no server to load beside the stream.
    let beside: Vec<f64> = timed.model_beside.iter().map(|m| m.secs).collect();
    let beside_s = if beside.is_empty() {
        0.0
    } else {
        median(&beside)
    };
    out.push("server.load_beside_stream_s", beside_s, "s", beside.len());
    let late: Vec<f64> = timed.stream.iter().map(|s| s.late_ms).collect();
    out.push(
        "server.gen_late_p99_ms",
        percentile(&late, 0.99),
        "ms",
        late.len(),
    );
}
