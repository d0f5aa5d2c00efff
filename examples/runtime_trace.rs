//! Inspecting the dynamic runtime: the execution trace and load balance of
//! a real MP+TLR factorization.
//!
//! Writes the run's Chrome-Tracing JSON (`target/cholesky_trace.json`,
//! loadable in `chrome://tracing` or Perfetto) and prints its per-kernel
//! time budget — the observability PaRSEC gives the paper's §VII
//! discussions of load imbalance.
//!
//! ```text
//! cargo run --release --example runtime_trace
//! ```

use exageostat_rs::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use xgs_cholesky::TiledFactor;
use xgs_runtime::{chrome_trace_json, kind_summary, ExecOptions};

fn build_matrix() -> SymTileMatrix {
    let mut rng = StdRng::seed_from_u64(12);
    let mut locs = jittered_grid(1024, &mut rng);
    for l in &mut locs {
        l.x *= 10.0;
        l.y *= 10.0;
    }
    morton_order(&mut locs);
    let kernel = Matern::new(MaternParams::new(1.0, 0.17, 0.5));
    let cfg = TlrConfig::new(Variant::MpDenseTlr, 64);
    SymTileMatrix::generate(
        &kernel,
        &locs,
        cfg,
        &FlopKernelModel::for_tile(cfg.tile_size),
    )
}

fn main() {
    let f = Arc::new(TiledFactor::from_matrix(build_matrix()));
    let nt = f.nt();
    let (res, report) = f.factorize_parallel_opts(
        0,
        ExecOptions {
            trace: true,
            ..Default::default()
        },
    );
    res.unwrap();
    println!(
        "factorized NT = {nt} tiles: {} tasks on {} workers in {:.3}s \
         (efficiency {:.0}%, imbalance {:.2})",
        report.tasks,
        report.workers,
        report.wall_seconds,
        report.efficiency() * 100.0,
        report.imbalance()
    );

    println!("\nper-kernel budget:");
    for (kind, count, total) in kind_summary(&report.trace) {
        println!("  {kind:<6} x{count:<5} {total:>8.3}s total");
    }
    let path = "target/cholesky_trace.json";
    std::fs::write(path, chrome_trace_json(&report.trace)).expect("write trace");
    println!(
        "wrote Chrome trace to {path} ({} events)",
        report.trace.len()
    );
}
