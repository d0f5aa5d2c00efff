//! Weak scaling of the training through particle-swarm optimization
//! (paper §VI-D).
//!
//! PSO "requires launching a set of independent executions for the
//! log-likelihood function", i.e. each particle is a full Cholesky that can
//! run on its own node group; iterations synchronize loosely. Two panels:
//!
//! 1. **measured** — wall time per PSO iteration as particles grow with
//!    worker budget on this machine (each objective evaluation is a real
//!    factorization);
//! 2. **modeled** — weak-scaling efficiency of `P` node groups each solving
//!    one log-likelihood of the paper-scale matrix: the groups are
//!    independent, so the only loss is the end-of-iteration reduction —
//!    effectively flat, which is why the paper reaches "effectively full
//!    Fugaku scale" this way.
//!
//! ```text
//! cargo run -p xgs-bench --release --bin weak_scaling_pso
//! ```

use xgs_bench::{env_usize, sites, timed};
use xgs_core::mle::{FitOptimizer, FitOptions};
use xgs_core::{fit, FactorEngine, ModelFamily, PsoOptions};
use xgs_covariance::{Matern, MaternParams};
use xgs_perfmodel::{project, Correlation, ScaleConfig, SolverVariant};
use xgs_tile::{FlopKernelModel, TlrConfig, Variant};

fn main() {
    let n = env_usize("XGS_N", 400);
    let locs = sites(n, 4.0, 21);
    let truth = MaternParams::new(1.0, 0.4, 0.5);
    let z = xgs_core::simulate_field(&Matern::new(truth), &locs, 3);
    let cfg = TlrConfig::new(Variant::MpDenseTlr, (n / 6).max(32));
    let model = FlopKernelModel::for_tile(cfg.tile_size);

    println!("-- measured: PSO training on this machine (n = {n}) --");
    println!(
        "{:>10} {:>12} {:>14}",
        "particles", "iterations", "wall (s)"
    );
    for particles in [4usize, 8, 16] {
        let opts = FitOptions {
            optimizer: FitOptimizer::ParticleSwarm(PsoOptions {
                particles,
                iterations: 4,
                parallel: true,
                ..Default::default()
            }),
            start: Some(vec![1.0, 0.4, 0.5]),
            engine: FactorEngine::Sequential,
        };
        let (r, secs) = timed(|| fit(ModelFamily::MaternSpace, &locs, &z, &cfg, &model, &opts));
        println!(
            "{particles:>10} {:>12} {:>14.2}   (llh {:.2})",
            4, secs, r.llh
        );
    }

    println!("\n-- modeled: independent node groups at paper scale --");
    println!(
        "one PSO iteration = one MLE Cholesky per group; groups of 2048 nodes, 1M matrix, weak corr."
    );
    println!(
        "{:>8} {:>12} {:>18} {:>12}",
        "groups", "nodes", "iter time (s)", "efficiency"
    );
    let per_group = project(&ScaleConfig::new(
        1_000_000,
        800,
        2048,
        Correlation::Weak,
        SolverVariant::MpDenseTlr,
    ));
    for groups in [1usize, 2, 4, 8, 16, 23] {
        // Weak scaling: each group works independently; the loose
        // synchronization is one small all-reduce of 3-6 scalars (lat +
        // log2(P) hops), negligible next to the factorization.
        let sync = 2e-6 * (groups as f64).log2().max(1.0);
        let iter_time = per_group.makespan + sync;
        println!(
            "{groups:>8} {:>12} {:>18.1} {:>11.1}%",
            groups * 2048,
            iter_time,
            100.0 * per_group.makespan / iter_time
        );
    }
    println!(
        "\n23 groups x 2048 nodes = 47104 nodes ~ the paper's full-Fugaku-scale\n\
         claim: weak scaling through PSO is embarrassingly parallel."
    );
}
