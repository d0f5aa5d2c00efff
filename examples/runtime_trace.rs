//! Inspecting the dynamic runtime: execution traces and load balance on a
//! real MP+TLR factorization DAG.
//!
//! Writes a Chrome-Tracing JSON (`target/cholesky_trace.json`, loadable in
//! `chrome://tracing` or Perfetto) and prints the per-kernel time budget —
//! the observability PaRSEC gives the paper's §VII discussions of load
//! imbalance.
//!
//! ```text
//! cargo run --release --example runtime_trace
//! ```

use exageostat_rs::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use xgs_cholesky::TiledFactor;
use xgs_runtime::{chrome_trace_json, execute, kind_summary};

fn build_matrix() -> SymTileMatrix {
    let mut rng = StdRng::seed_from_u64(12);
    let mut locs = jittered_grid(1024, &mut rng);
    for l in &mut locs {
        l.x *= 10.0;
        l.y *= 10.0;
    }
    morton_order(&mut locs);
    let kernel = Matern::new(MaternParams::new(1.0, 0.17, 0.5));
    let model = FlopKernelModel {
        dense_rate: 45.0e9,
        mem_factor: 1.0,
    };
    SymTileMatrix::generate(
        &kernel,
        &locs,
        TlrConfig::new(Variant::MpDenseTlr, 64),
        &model,
    )
}

fn main() {
    // --- traced run --------------------------------------------------------
    let f = Arc::new(TiledFactor::from_matrix(build_matrix()));
    let nt = f.nt();
    let (res, report) = f.factorize_parallel(0);
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

    // Kernel-kind budget from a traced standalone DAG of the same shape
    // (factorize_parallel runs untraced; the graph-level API exposes
    // tracing directly).
    let mut graph = TaskGraph::new();
    for k in 0..nt {
        let d = |i: usize, j: usize| DataId((i * nt + j) as u64);
        graph.insert("potrf", vec![Access::write(d(k, k))], 3, 0.0, || {
            std::hint::black_box(busy_work(40_000));
        });
        for i in k + 1..nt {
            graph.insert(
                "trsm",
                vec![Access::read(d(k, k)), Access::write(d(i, k))],
                2,
                0.0,
                || {
                    std::hint::black_box(busy_work(60_000));
                },
            );
        }
        for i in k + 1..nt {
            for j in k + 1..=i {
                let kind = if i == j { "syrk" } else { "gemm" };
                graph.insert(
                    kind,
                    vec![
                        Access::read(d(i, k)),
                        Access::read(d(j, k)),
                        Access::write(d(i, j)),
                    ],
                    1,
                    0.0,
                    || {
                        std::hint::black_box(busy_work(80_000));
                    },
                );
            }
        }
    }
    let traced = execute(graph, 0, true);
    println!("\nper-kernel budget (synthetic costs):");
    for (kind, count, total) in kind_summary(&traced.trace) {
        println!("  {kind:<6} x{count:<5} {total:>8.3}s total");
    }
    let json = chrome_trace_json(&traced.trace);
    let path = "target/cholesky_trace.json";
    std::fs::write(path, json).expect("write trace");
    println!(
        "wrote Chrome trace to {path} ({} events)",
        traced.trace.len()
    );
}

/// Deterministic spin work (stands in for a kernel of known cost).
fn busy_work(iters: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..iters {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    acc
}
