//! Validator recording overhead at large NT (closes the ROADMAP item
//! "measure recording overhead at large NT in release profiles").
//!
//! Sweeps the parallel factorization with the schedule validator off,
//! sampled (`validate_every` ∈ {64, 8}), and exhaustive (`1`), plus one
//! run with the pre-execution graph checker (`XGS_PRECHECK`-style) forced
//! on and one with the dynamic vector-clock race checker
//! (`xgs_runtime::race`, normally debug-only / `XGS_RACE=1`) forced on,
//! all over the same generated matrix. The validator's cost is per
//! task-*endpoint* recording (two atomic ticks) plus a post-run edge walk;
//! the race checker's is a global-mutex clock join per declared access —
//! so overhead is expected to be flat in stride until the edge walk
//! dominates — that expectation is what this binary measures.
//!
//! ```text
//! cargo run -p xgs-bench --release --bin validator_overhead
//! XGS_N=4000 XGS_REPS=5 cargo run -p xgs-bench --release --bin validator_overhead
//! ```

use xgs_bench::{env_usize, quartiles, sites, timed};
use xgs_cholesky::TiledFactor;
use xgs_covariance::{Matern, MaternParams};
use xgs_runtime::ExecOptions;
use xgs_tile::{FlopKernelModel, SymTileMatrix, TlrConfig, Variant};

fn main() {
    let n = env_usize("XGS_N", 3000);
    let nb = env_usize("XGS_NB", 64);
    let reps = env_usize("XGS_REPS", 3);
    let workers = env_usize("XGS_WORKERS", xgs_runtime::logical_cores());
    let nt = n.div_ceil(nb);
    let tasks = nt + nt * (nt - 1) / 2 + nt * (nt * nt - 1) / 6;
    println!(
        "-- validator overhead sweep: n = {n}, nb = {nb} (NT = {nt}, {tasks} tasks), \
         {workers} workers, {reps} reps --"
    );

    let locs = sites(n, 14.0, 3);
    let kernel = Matern::new(MaternParams::new(0.67, 0.17, 0.44));
    let model = FlopKernelModel::for_tile(nb);
    let base = ExecOptions {
        validate: false,
        precheck: false,
        ..ExecOptions::default()
    };
    let configs: [(&str, ExecOptions, bool); 6] = [
        ("validate off", base, false),
        (
            "validate every 64",
            ExecOptions {
                validate: true,
                validate_every: 64,
                ..base
            },
            false,
        ),
        (
            "validate every 8",
            ExecOptions {
                validate: true,
                validate_every: 8,
                ..base
            },
            false,
        ),
        (
            "validate every 1",
            ExecOptions {
                validate: true,
                validate_every: 1,
                ..base
            },
            false,
        ),
        (
            "precheck only",
            ExecOptions {
                precheck: true,
                ..base
            },
            false,
        ),
        ("race check on", base, true),
    ];

    println!(
        "{:>18} | {:>10} {:>12} {:>12} {:>10}",
        "config", "median s", "edges chk", "edges skip", "vs off"
    );
    let mut baseline = 0.0f64;
    for (label, opts, race_on) in configs {
        // Pin the race checker per config so the release-build default
        // (off) cannot leak an `XGS_RACE` environment setting into the
        // baseline rows.
        xgs_runtime::race::set_enabled(Some(race_on));
        let mut secs = Vec::with_capacity(reps);
        let mut checked = 0u64;
        let mut skipped = 0u64;
        for _ in 0..reps {
            let f = std::sync::Arc::new(TiledFactor::from_matrix(SymTileMatrix::generate(
                &kernel,
                &locs,
                TlrConfig::new(Variant::DenseF64, nb),
                &model,
            )));
            let ((res, report), s) = timed(|| f.factorize_parallel_opts(workers, opts));
            res.expect("benchmark matrix is SPD");
            secs.push(s);
            if let Some(v) = report.metrics.and_then(|m| m.validation) {
                checked = v.edges_checked;
                skipped = v.edges_skipped;
            }
        }
        let (_, median, _) = quartiles(&mut secs);
        if label == "validate off" {
            baseline = median;
        }
        let delta = if baseline > 0.0 {
            format!("{:+.1}%", (median / baseline - 1.0) * 100.0)
        } else {
            "-".to_string()
        };
        println!("{label:>18} | {median:>10.3} {checked:>12} {skipped:>12} {delta:>10}");
    }
    xgs_runtime::race::set_enabled(None);
    let races = xgs_runtime::race::race_count();
    println!(
        "\nrecording = two relaxed-ordering ticks per sampled task; the edge walk\n\
         runs once post-factorization on the coordinator thread. The race-check\n\
         row pays a global-mutex vector-clock join per declared task access\n\
         ({races} race(s) detected — expected 0).\n"
    );
}
