//! Per-tile precision/structure decision heat-maps (paper Fig. 9).
//!
//! Generates real covariance matrices at weak and strong correlation,
//! applies both runtime decisions, and renders the resulting tile-format
//! maps with their memory-footprint reductions.
//!
//! ```text
//! cargo run --release --example decision_maps
//! ```

use exageostat_rs::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 4096;
    let nb = 64;
    let mut rng = StdRng::seed_from_u64(9);
    let mut locs = jittered_grid(n, &mut rng);
    morton_order(&mut locs);
    // Demo tiles are 64 wide (the paper uses 2700, where the calibrated
    // A64FX model yields the Fig. 5 crossover at rank ~200 = nb/13.5). At
    // nb = 64 that crossover is rank ~5, which no real covariance tile
    // beats, so the model for this tile size drops the TLR memory-bound
    // penalty; paper-scale maps use the calibrated model (see the fig9 bench).
    let model = FlopKernelModel::for_tile(nb);

    for (label, range) in [("weak (a=0.01)", 0.01), ("strong (a=0.3)", 0.3)] {
        let kernel = Matern::new(MaternParams::new(1.0, range, 0.5));
        for variant in [Variant::MpDense, Variant::MpDenseTlr] {
            let m = SymTileMatrix::generate(&kernel, &locs, TlrConfig::new(variant, nb), &model);
            let map = decision_heatmap(&m);
            println!(
                "== {label} correlation, {} (band_size_dense = {}) ==",
                variant.name(),
                m.band_size_dense
            );
            println!("{}", map.render());
        }
    }
}
