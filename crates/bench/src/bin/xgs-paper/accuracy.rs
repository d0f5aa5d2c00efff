//! The accuracy studies: Tables I and II (one modeling → prediction
//! pipeline each), the Fig. 6 estimate boxplots and PSO weak scaling.

use xgs_bench::{quartiles, sites, timed, write_metrics};
use xgs_core::mle::FitOptimizer;
use xgs_core::{
    fit, run_pipeline, FactorEngine, FitOptions, ModelFamily, NelderMeadOptions, PipelineConfig,
    PsoOptions,
};
use xgs_covariance::{Matern, MaternParams};
use xgs_perfmodel::{project, Correlation, ScaleConfig, SolverVariant};
use xgs_tile::{FlopKernelModel, TlrConfig, Variant};

/// Tables I and II are one job: simulate a field from the paper's
/// estimates, fit it with the three variants, krige the held-out sites.
/// The pass criterion is the paper's: near-identical estimates,
/// log-likelihood and MSPE across variants. Only these constants differ.
pub struct Table {
    heading: &'static str,
    family: ModelFamily,
    truth: &'static [f64],
    start: &'static [f64],
    n_train: usize,
    time_slots: usize,
    domain_size: f64,
    tile_size: usize,
    max_evals: usize,
    initial_step: f64,
    seed: u64,
    paper: &'static str,
}

/// Table I: the Mississippi-basin soil-moisture data (1M training / 100K
/// test sites) is not redistributable, so a field is simulated with the
/// paper's estimates — medium correlation, rough field (DESIGN.md §2).
pub const TABLE_I: Table = Table {
    heading: "Table I reproduction (synthetic stand-in, 1000 train / 100 test; paper: 1M / 100K)\n\
              truth θ = (0.67, 0.17, 0.44) — the paper's soil-moisture estimates\n",
    family: ModelFamily::MaternSpace,
    truth: &[0.67, 0.17, 0.44],
    start: &[1.0, 0.5, 0.5],
    n_train: 1000,
    time_slots: 1,
    domain_size: 14.0,
    tile_size: 100,
    max_evals: 80,
    initial_step: 0.3,
    seed: 20040101,
    paper: "paper Table I (for reference):\n  \
            Dense FP64    0.6720 0.1730 0.4358  llh -52185.7336  MSPE 0.0330\n  \
            MP+dense      0.6751 0.1740 0.4357  llh -52185.7643  MSPE 0.0330\n  \
            MP+dense/TLR  0.6621 0.1882 0.3921  llh -52188.2341  MSPE 0.0332\n",
};

/// Table II: the NASA GES DISC evapotranspiration residuals (~83K sites x
/// 12 months) become a synthetic Gneiting field with the paper's estimates
/// — strong spatial correlation, medium space–time interaction β ≈ 0.186.
pub const TABLE_II: Table = Table {
    heading: "Table II reproduction (synthetic stand-in, 720 train / 72 test over 12 slots; \
              paper: ~1M / 100K over 12 months)\n\
              truth θ = [1.0087, 0.38, 0.3164, 0.5, 0.9, 0.186]\n",
    family: ModelFamily::GneitingSpaceTime,
    truth: &[1.0087, 0.38, 0.3164, 0.5, 0.9, 0.186],
    start: &[1.0087, 0.38, 0.3164, 0.5, 0.9, 0.186],
    n_train: 720,
    time_slots: 12,
    domain_size: 4.0,
    tile_size: 90,
    max_evals: 90,
    initial_step: 0.25,
    seed: 2021,
    paper: "paper Table II (for reference):\n  \
            Dense FP64    1.0087 3.7904 0.3164 0.0101 3.4941 0.1860  llh -136675.1  MSPE 0.9345\n  \
            MP+dense      0.9428 3.8795 0.3072 0.0102 3.5858 0.1857  llh -136529.0  MSPE 0.9348\n  \
            MP+dense/TLR  0.9247 3.7736 0.3068 0.0102 3.5858 0.1857  llh -136541.8  MSPE 0.9428\n\
            \nnote: the paper's strong spatial correlation regime means fewer\n\
            low-precision/low-rank opportunities — visible here as a footprint\n\
            closer to dense than in the Table I scenario.\n",
};

/// Table I or II; `--metrics` writes the runtime metrics merged over every
/// factorization of every variant's fit.
pub fn table(t: &Table, metrics: Option<&str>) {
    let cfg = PipelineConfig {
        family: t.family,
        true_params: t.truth.to_vec(),
        n_train: t.n_train,
        n_test: t.n_train / 10,
        time_slots: t.time_slots,
        domain_size: t.domain_size,
        tile_size: t.tile_size,
        variants: vec![Variant::DenseF64, Variant::MpDense, Variant::MpDenseTlr],
        fit: FitOptions {
            optimizer: FitOptimizer::NelderMead(NelderMeadOptions {
                max_evals: t.max_evals,
                f_tol: 1e-5,
                initial_step: t.initial_step,
            }),
            start: Some(t.start.to_vec()),
            engine: FactorEngine::Threads(0),
        },
        seed: t.seed,
    };
    println!("{}", t.heading);
    // The CLI's kernel-time model at this tile size: at demo-size tiles it
    // drops the memory-bound TLR penalty so the structure decision engages.
    let report = run_pipeline(&cfg, &FlopKernelModel::for_tile(cfg.tile_size));
    println!("{}", report.render(t.family));
    print!("{}", t.paper);

    println!();
    let base = &report.rows[0];
    for row in &report.rows[1..] {
        println!(
            "{:<14} Δllh = {:.3}, ΔMSPE = {:.2}%, footprint {:.1}% of dense",
            row.variant.name(),
            (row.fit.llh - base.fit.llh).abs(),
            100.0 * (row.mspe - base.mspe).abs() / base.mspe,
            100.0 * row.footprint_bytes as f64 / base.footprint_bytes as f64
        );
    }
    // The paper's third Table II observation: β > 0 (non-separability).
    if t.family == ModelFamily::GneitingSpaceTime {
        for row in &report.rows {
            println!(
                "{:<14} estimated space-time interaction β = {:.3} (truth {:.3})",
                row.variant.name(),
                row.fit.theta[5],
                t.truth[5]
            );
        }
    }

    if let Some(path) = metrics {
        let mut merged: Option<xgs_runtime::MetricsReport> = None;
        for m in report.rows.iter().filter_map(|r| r.fit.metrics.as_ref()) {
            match merged.as_mut() {
                Some(total) => total.merge(m),
                None => merged = Some(m.clone()),
            }
        }
        match merged {
            Some(m) => write_metrics(path, &m),
            None => eprintln!("--metrics: no runtime metrics collected (sequential engine)"),
        }
    }
}

/// Fig. 6: quartiles of the Matérn estimates over replicated synthetic
/// space datasets at weak / medium / strong correlation for the three
/// variants — the textual equivalent of the boxplots. The paper uses 100
/// replicates of 50K locations; these are sized for one node.
pub fn fig6() {
    let (reps, n) = (25, 400);
    // Domain widened so the adaptive decisions engage at reduced n (see
    // DESIGN.md §2 and the pipeline's domain_size note).
    let domain = 4.0;
    let nb = (n / 6).max(32);
    let model = FlopKernelModel::for_tile(nb);
    let variants = [Variant::DenseF64, Variant::MpDense, Variant::MpDenseTlr];

    println!("Fig. 6 reproduction: {reps} synthetic datasets x {n} locations (paper: 100 x 50K)\n");

    for (label, range) in [("weak", 0.03), ("medium", 0.1), ("strong", 0.3)] {
        // The paper's per-panel truths: sigma^2 = 1, nu = 0.5, range varies.
        let truth = MaternParams::new(1.0, range * domain, 0.5);
        println!(
            "== {label} correlation: truth (variance, range, smoothness) = ({}, {}, {}) ==",
            truth.sigma2, truth.range, truth.smoothness
        );
        println!(
            "{:>14} {:>12} | {:>8} {:>8} {:>8}",
            "variant", "parameter", "q1", "median", "q3"
        );
        for variant in variants {
            let cfg = TlrConfig::new(variant, nb);
            let mut est: Vec<Vec<f64>> = vec![Vec::new(); 3];
            for rep in 0..reps {
                let locs = sites(n, domain, 1000 + rep as u64);
                let z = xgs_core::simulate_field(&Matern::new(truth), &locs, 5000 + rep as u64);
                let opts = FitOptions {
                    optimizer: FitOptimizer::NelderMead(NelderMeadOptions {
                        max_evals: 70,
                        f_tol: 1e-4,
                        initial_step: 0.35,
                    }),
                    start: Some(vec![truth.sigma2, truth.range, truth.smoothness]),
                    engine: FactorEngine::Threads(0),
                };
                let r = fit(ModelFamily::MaternSpace, &locs, &z, &cfg, &model, &opts);
                for (k, v) in r.theta.iter().enumerate() {
                    est[k].push(*v);
                }
            }
            for (k, name) in ["variance", "range", "smoothness"].iter().enumerate() {
                let (q1, q2, q3) = quartiles(&mut est[k]);
                println!(
                    "{:>14} {:>12} | {:>8.3} {:>8.3} {:>8.3}",
                    variant.name(),
                    name,
                    q1,
                    q2,
                    q3
                );
            }
        }
        println!();
    }
}

/// §VI-D: PSO "requires launching a set of independent executions for the
/// log-likelihood function", each particle a full Cholesky on its own node
/// group. Measured: wall time as particles grow on this machine. Modeled:
/// weak-scaling efficiency of independent node groups at paper scale,
/// whose only loss is the end-of-iteration reduction.
pub fn pso() {
    let n = 400;
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
