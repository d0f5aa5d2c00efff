//! Inspecting the dynamic runtime: the execution trace and load balance of
//! one MP+TLR model op, whose tiles are generated as tasks of the
//! factorization's own graph.
//!
//! Writes the run's Chrome-Tracing JSON (`target/cholesky_trace.json`,
//! loadable in `chrome://tracing` or Perfetto) and prints its per-kernel
//! time budget — generation (`gen`, `decide`) beside the factor's kernels,
//! the observability PaRSEC gives the paper's §VII discussions of load
//! imbalance.
//!
//! ```text
//! cargo run --release --example runtime_trace
//! ```

use exageostat_rs::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xgs_cholesky::TiledFactor;
use xgs_runtime::{chrome_trace_json, ExecOptions};
use xgs_tile::TileGen;

fn main() {
    let mut rng = StdRng::seed_from_u64(12);
    let mut locs = jittered_grid(1024, &mut rng);
    for l in &mut locs {
        l.x *= 10.0;
        l.y *= 10.0;
    }
    morton_order(&mut locs);
    let kernel = Matern::new(MaternParams::new(1.0, 0.17, 0.5));
    let cfg = TlrConfig::new(Variant::MpDenseTlr, 64);
    let model = FlopKernelModel::for_tile(cfg.tile_size);
    let gen = TileGen::new(&kernel, &locs, cfg, &model);
    let op = TiledFactor::generate_and_factorize(
        &gen,
        0,
        ExecOptions {
            trace: true,
            ..Default::default()
        },
    );
    op.result.unwrap();
    let report = op.metrics;
    println!(
        "generated and factorized NT = {} tiles: {} tasks on {} workers in {:.3}s \
         (efficiency {:.0}%, imbalance {:.2})",
        op.factor.nt(),
        report.tasks,
        report.workers,
        report.wall_seconds,
        report.efficiency() * 100.0,
        report.imbalance()
    );

    println!("\nper-kernel budget:");
    for k in &report.kernels {
        println!(
            "  {:<6} x{:<5} {:>8.3}s total",
            k.kind, k.count, k.total_seconds
        );
    }
    let path = "target/cholesky_trace.json";
    std::fs::write(path, chrome_trace_json(&report.trace)).expect("write trace");
    println!(
        "wrote Chrome trace to {path} ({} events)",
        report.trace.len()
    );
}
