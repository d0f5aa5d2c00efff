//! Krige a full field surface (the kind of map in the paper's Fig. 1)
//! with conditional-simulation ensembles for exceedance probabilities.
//!
//! Fits the model on scattered observations, predicts onto a regular grid,
//! and writes `target/field_surface.csv` with the kriged mean, prediction
//! standard deviation, and the ensemble probability that the field exceeds
//! one standard deviation — the risk-map products environmental users
//! derive from geostatistical models.
//!
//! ```text
//! cargo run --release --example field_surface
//! ```

use exageostat_rs::core::conditional_simulation;
use exageostat_rs::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Scattered "observations".
    let mut rng = StdRng::seed_from_u64(42);
    let mut obs = jittered_grid(600, &mut rng);
    morton_order(&mut obs);
    let truth = MaternParams::new(1.0, 0.15, 1.5);
    let kernel = Matern::new(truth);
    let z = simulate_field(&kernel, &obs, 17);

    // Factor the training covariance once with the adaptive solver.
    let cfg = TlrConfig::new(Variant::MpDense, 100);
    let model = FlopKernelModel::for_tile(cfg.tile_size);
    let rep =
        log_likelihood_engine(&kernel, &obs, &z, &cfg, &model, &FactorEngine::Threads(0)).unwrap();

    // Regular 40x40 prediction grid.
    let g = 40usize;
    let grid: Vec<Location> = (0..g * g)
        .map(|i| {
            Location::new(
                (i % g) as f64 / (g - 1) as f64,
                (i / g) as f64 / (g - 1) as f64,
            )
        })
        .collect();

    let pred = krige(&kernel, &obs, &z, &rep.factor, &grid, true);
    let sd: Vec<f64> = pred
        .uncertainty
        .as_ref()
        .unwrap()
        .iter()
        .map(|u| u.sqrt())
        .collect();

    // Exceedance probability P(Z > 1) from a conditional ensemble.
    let n_draws = 30;
    let draws = conditional_simulation(&kernel, &obs, &z, &rep.factor, &grid, n_draws, 99);
    let exceed: Vec<f64> = (0..grid.len())
        .map(|j| draws.iter().filter(|d| d[j] > 1.0).count() as f64 / n_draws as f64)
        .collect();

    // Write the surface.
    let mut csv = String::from("x,y,mean,sd,p_exceed_1\n");
    for (j, l) in grid.iter().enumerate() {
        csv.push_str(&format!(
            "{:.4},{:.4},{:.4},{:.4},{:.3}\n",
            l.x, l.y, pred.mean[j], sd[j], exceed[j]
        ));
    }
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/field_surface.csv", &csv).unwrap();

    // Console summary.
    let mean_sd = sd.iter().sum::<f64>() / sd.len() as f64;
    let frac_hot = exceed.iter().filter(|&&p| p > 0.5).count() as f64 / exceed.len() as f64;
    println!(
        "kriged a {g}x{g} surface from {} observations:\n\
         average prediction sd {mean_sd:.3} (marginal sd 1.0)\n\
         {:.1}% of cells have P(Z > 1) > 0.5\n\
         wrote target/field_surface.csv (x, y, mean, sd, p_exceed_1)",
        obs.len(),
        frac_hot * 100.0
    );
}
