//! Replay a synthetic query stream against a running `exageostat serve`
//! instance and report throughput + latency percentiles.
//!
//! ```text
//! cargo run -p xgs-server --release --bin loadgen -- \
//!     --addr 127.0.0.1:4741 --requests 1000 --conns 8 --points 16 \
//!     [--rate 500] [--uncertainty] [--model default] [--seed 1] \
//!     [--concurrency-per-conn 8] [--deadline-ms 250] [--overload] \
//!     [--metrics out.json] [--shutdown]
//! ```
//!
//! One epoll-driven thread holds all `--conns` connections (10,000 is the
//! server's concurrency soak), ramping connects in batches and counting
//! and retrying failures. `--concurrency-per-conn` pipelines that many
//! requests per connection (responses are correlated by id, so
//! out-of-order completion is fine); `--rate` spreads the stream over
//! time; `--deadline-ms` attaches a per-request deadline; `--overload`
//! runs an overload drill in which shed responses (`retry_after_ms`) are
//! expected.
//!
//! Exit status: 0 when every request succeeded (shed responses count as
//! failures unless `--overload`, deadline expiries unless `--deadline-ms`),
//! 1 otherwise — including a server that never accepted a connection — and
//! 2 for a usage error or an unresolvable address. CI smoke tests rely on
//! this. `--shutdown` sends `{"op":"shutdown"}` at the end so a scripted
//! server drains and exits cleanly.

use std::process::ExitCode;
use std::time::Duration;
use xgs_server::loadgen;

fn parse_args(argv: &[String]) -> Result<(loadgen::LoadgenConfig, Option<String>), String> {
    let mut cfg = loadgen::LoadgenConfig::default();
    let mut metrics_path = None;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            argv.get(i)
                .cloned()
                .ok_or(format!("--{name} needs a value"))
        };
        match flag {
            "--addr" => cfg.addr = value("addr")?,
            "--model" => cfg.model = value("model")?,
            "--requests" => {
                cfg.requests = value("requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?
            }
            "--conns" => {
                cfg.conns = value("conns")?
                    .parse()
                    .map_err(|e| format!("--conns: {e}"))?
            }
            "--points" => {
                cfg.points = value("points")?
                    .parse()
                    .map_err(|e| format!("--points: {e}"))?
            }
            "--rate" => cfg.rate = value("rate")?.parse().map_err(|e| format!("--rate: {e}"))?,
            "--seed" => cfg.seed = value("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--domain" => {
                cfg.domain = value("domain")?
                    .parse()
                    .map_err(|e| format!("--domain: {e}"))?
            }
            "--connect-timeout" => {
                cfg.connect_timeout = Duration::from_secs_f64(
                    value("connect-timeout")?
                        .parse()
                        .map_err(|e| format!("--connect-timeout: {e}"))?,
                )
            }
            "--concurrency-per-conn" => {
                cfg.concurrency_per_conn = value("concurrency-per-conn")?
                    .parse()
                    .map_err(|e| format!("--concurrency-per-conn: {e}"))?
            }
            "--deadline-ms" => {
                cfg.deadline_ms = value("deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?
            }
            "--uncertainty" => cfg.uncertainty = true,
            "--overload" => cfg.overload = true,
            "--shutdown" => cfg.shutdown = true,
            "--metrics" => metrics_path = Some(value("metrics")?),
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    Ok((cfg, metrics_path))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, metrics_path) = match parse_args(&argv) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::from(2);
        }
    };
    match loadgen::run(&cfg) {
        Ok(report) => {
            println!("{}", report.summary());
            if let Some(path) = metrics_path {
                match std::fs::write(&path, report.to_json()) {
                    Ok(()) => println!("wrote metrics to {path}"),
                    Err(e) => {
                        eprintln!("loadgen: could not write {path}: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            let unexpected_shed = !cfg.overload && report.shed > 0;
            let unexpected_expiry = cfg.deadline_ms == 0 && report.expired > 0;
            if report.errors > 0 || unexpected_shed || unexpected_expiry {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::from(2)
        }
    }
}
