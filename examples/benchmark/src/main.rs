//! The repo benchmark: one workload per invocation.
//!
//! ```text
//! xgs-benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//!               --worker-exe <exageostat> [--out-dir <dir>] [--force-fail]
//! ```
//!
//! `run.sh` beside this package builds the `exageostat` binary and this
//! program and passes `--worker-exe`/`--out-dir`. Inputs come from
//! `--seed`; the workload is driven through the crates' public functions
//! only; outputs are checked; every metric is printed by name with its
//! unit and sample count; and the last line of standard output is the
//! result object `BENCHMARK.json` describes. `--trace 0` measures the
//! end-to-end metrics with no span recorded; `--trace 1` repeats the
//! workload under spans and adds the per-layer probes.

mod client;
mod data;
mod probes;
mod speed;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use speed::Gauge;
use stats::{median, Metrics};
use trace::Tracer;
use workload::{Config, Stage, Tally, Timed, SPECS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The driver allows a run 180 s; a hang must fail before that.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    cfg: Config,
    trace: bool,
    out_dir: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: xgs-benchmark --workload <{}> --seed <u64> --seconds <s> --trace <0|1> \
         --worker-exe <path to exageostat> [--out-dir <dir>] [--force-fail]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut worker_exe = None;
    let mut out_dir = None;
    let mut force_fail = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--force-fail" {
            force_fail = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            "--worker-exe" => worker_exe = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    let missing = |what: &str| format!("missing {what}\n{}", usage());
    let workload = workload.ok_or_else(|| missing("--workload"))?;
    let spec = SPECS
        .iter()
        .find(|s| s.name == workload)
        .ok_or_else(|| format!("unknown workload '{workload}'\n{}", usage()))?;
    let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let worker_exe = worker_exe.ok_or_else(|| missing("--worker-exe"))?;
    if !worker_exe.is_file() {
        return Err(format!(
            "worker executable {} is missing: build it with `cargo build --release --bin exageostat`",
            worker_exe.display()
        ));
    }
    Ok(Args {
        cfg: Config {
            spec,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds,
            threads: xgs_runtime::logical_cores().min(4),
            worker_exe,
            force_fail,
        },
        trace: trace.ok_or_else(|| missing("--trace"))?,
        out_dir,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What two result files must share to be comparable.
fn environment(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cfg = &args.cfg;
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"threads\":{},\
         \"rayon_pool\":{},\"cpu\":\"{}\",\"rustc\":\"{}\",\"rustflags\":\"{}\",\"git\":\"{}\",\
         \"field_n\":{},\"field_tile\":{},\"rate_per_s\":{},\"slo_ms\":{}}}",
        cfg.spec.name,
        cfg.seed,
        cfg.seconds,
        args.trace,
        xgs_runtime::logical_cores(),
        cfg.threads,
        rayon::current_num_threads(),
        cpu,
        command_line("rustc", &["-V"]),
        std::env::var("RUSTFLAGS").unwrap_or_default(),
        command_line("git", &["rev-parse", "HEAD"]),
        data::FIELD_N,
        data::FIELD_TILE,
        workload::RATE,
        workload::SLO_MS,
    )
}

fn status_kb(pid: u32, key: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Direct children of this process: `(pid, command line)`.
fn children() -> Vec<(u32, String)> {
    let me = std::process::id();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| status_kb(pid, "PPid:") == Some(me as f64))
        .map(|pid| {
            let cmd = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
            (pid, String::from_utf8_lossy(&cmd).replace('\0', " "))
        })
        .collect()
}

/// High-water resident set of this process plus its fleet children, MB.
fn peak_rss_mb() -> f64 {
    let mine = status_kb(std::process::id(), "VmHWM:").unwrap_or(0.0);
    let theirs: f64 = children()
        .iter()
        .filter_map(|(pid, _)| status_kb(*pid, "VmHWM:"))
        .sum();
    (mine + theirs) / 1024.0
}

struct RunOutput {
    metrics: Metrics,
    tally: Tally,
}

fn run(args: &Args) -> Result<RunOutput, String> {
    let cfg = &args.cfg;
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();

    // Set up several times and keep the last, so `setup_s` is a median.
    let mut gauge = Gauge::start(cfg.threads);
    let mut setup_secs = Vec::new();
    let mut stage: Option<Stage> = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        if let Some(old) = stage.take() {
            old.teardown()?;
        }
        gauge.mark();
        let t = Instant::now();
        stage = Some(Stage::setup(cfg)?);
        setup_secs.push(t.elapsed().as_secs_f64() * gauge.mark());
    }
    let stage = stage.expect("set up at least once");

    let mut tracer = Tracer::new(args.trace);
    let measured = measure(
        args,
        &stage,
        &mut tracer,
        &mut gauge,
        &mut tally,
        &mut metrics,
    );
    // The fleet is shut down and the server drained on every path.
    let torn = stage.teardown();
    measured?;
    torn?;
    let survivors: Vec<String> = children()
        .into_iter()
        .filter(|(_, cmd)| cmd.contains("worker"))
        .map(|(pid, cmd)| format!("{pid}: {cmd}"))
        .collect();
    tally.check(survivors.is_empty(), || {
        format!("worker processes outlived the run: {survivors:?}")
    });

    if !args.trace {
        metrics.push("setup_s", median(&setup_secs), "s", setup_secs.len());
    }
    Ok(RunOutput { metrics, tally })
}

/// The timed phases, the checks, and (traced) the probes and trace file.
fn measure(
    args: &Args,
    stage: &Stage,
    tracer: &mut Tracer,
    gauge: &mut Gauge,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let cfg = &args.cfg;
    let timed: Timed = if cfg.spec.tcp {
        workload::run_serve(cfg, stage, tracer, gauge, tally)?
    } else {
        workload::run_direct(cfg, stage, tracer, gauge, tally)
    };
    let rss = peak_rss_mb();
    println!(
        "machine speed while timing: scale median {:.3}, min {:.3}, max {:.3} over {} intervals \
         (1 = the calibration loop at its nominal {} s, nothing stolen)",
        median(&gauge.scales),
        gauge.scales.iter().cloned().fold(f64::INFINITY, f64::min),
        gauge.scales.iter().cloned().fold(0.0, f64::max),
        gauge.scales.len(),
        speed::NOMINAL_S
    );
    let llh_rel_err = workload::check_likelihoods(cfg, stage, &timed, tally)?;
    if cfg.spec.sharded {
        workload::check_sharded_factor(cfg, stage, tally)?;
    }

    if !args.trace {
        workload::end_to_end(&timed, metrics);
        metrics.push("peak_rss_mb", rss, "MB", 1);
        return Ok(());
    }

    probes::run(cfg, stage, gauge, metrics, tally)?;
    metrics.push(
        "core.llh_rel_err",
        llh_rel_err,
        "rel",
        timed.model.len() + timed.model_traced.len(),
    );
    workload::stream_layer_metrics(&timed, metrics);
    let plain: Vec<f64> = timed.model.iter().map(|m| m.secs).collect();
    let traced: Vec<f64> = timed.model_traced.iter().map(|m| m.secs).collect();
    // `serve` has no re-performed op: its model op is across a socket.
    let overhead = if traced.is_empty() {
        0.0
    } else {
        median(&traced) / median(&plain) - 1.0
    };
    metrics.push("trace.overhead_frac", overhead, "frac", traced.len());
    metrics.push(
        "trace.coverage",
        tracer.coverage("model_op"),
        "frac",
        traced.len(),
    );
    let summary = tracer.summary();
    let other = summary
        .iter()
        .find(|r| r.0 == "model_op")
        .map_or(0.0, |r| r.3 / r.1 as f64);
    metrics.push("core.eval_other_s", other, "s", traced.len());
    metrics.push(
        "trace.spans",
        tracer.spans.len() as f64,
        "count",
        tracer.spans.len(),
    );
    println!("spans: name, count, total s, self s");
    for (name, count, total, own) in &summary {
        println!("span {name}: {count}, {total:.6}, {own:.6}");
    }
    if let Some(dir) = &args.out_dir {
        write_file(
            dir,
            &format!("{}.trace.json", cfg.spec.name),
            &tracer.chrome_json(),
        )?;
    }
    Ok(())
}

fn write_file(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("error: this is a debug build; the benchmark measures release builds only (cargo build --release)");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("error: the run did not finish within {WATCHDOG:?}");
        std::process::exit(3);
    });

    let env = environment(&args);
    println!("env {env}");
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    for m in &out.metrics.0 {
        println!(
            "metric {} = {:?} {} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for note in &out.tally.notes {
        println!("FAILED {note}");
    }
    let correct = out.tally.failed == 0;
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        correct,
        out.tally.attempted,
        out.tally.failed,
        out.metrics.to_json()
    );
    if let Some(dir) = &args.out_dir {
        let name = format!(
            "{}.trace{}.report.json",
            args.cfg.spec.name, args.trace as u8
        );
        let report = format!("{{\"env\":{env},\"result\":{result}}}\n");
        if let Err(e) = write_file(dir, &name, &report) {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
