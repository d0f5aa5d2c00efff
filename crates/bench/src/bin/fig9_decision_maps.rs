//! Paper Fig. 9: adaptive decision maps for Matérn 2D space on a 1M
//! matrix with tile 2700, weak vs strong correlation, and the associated
//! memory footprints.
//!
//! Two panels:
//!
//! 1. **paper-scale (profile)** — the calibrated tile-format profiles at
//!    NT = 371 (1M / 2700), whose footprints are checked against the
//!    paper's annotations (dense 4356 GB; WC: MP 1607 GB / TLR 915 GB;
//!    SC: MP 3877 GB / TLR 1830 GB);
//! 2. **measured (small scale)** — real generated covariance matrices with
//!    both runtime decisions applied, rendered as glyph maps.
//!
//! ```text
//! cargo run -p xgs-bench --release --bin fig9_decision_maps
//! ```

use xgs_bench::{env_usize, sites};
use xgs_covariance::{Matern, MaternParams};
use xgs_perfmodel::{footprint_bytes, Correlation, TileFormatProfile};
use xgs_tile::{decision_heatmap, FlopKernelModel, SymTileMatrix, TlrConfig, Variant};

fn paper_scale_panel() {
    let nt = 1_000_000usize.div_ceil(2700);
    let nb = 2700;
    println!("-- paper-scale profiles: 1M matrix, tile {nb}, NT {nt} --");
    println!(
        "{:>12} {:>14} | {:>12} {:>12} {:>10}",
        "correlation", "variant", "GB (ours)", "GB (paper)", "cut"
    );
    let dense = {
        let mut p = TileFormatProfile::new(Correlation::Weak, nt, nb, false);
        p.u_f64 = 2.0;
        p.u_f32 = 3.0;
        footprint_bytes(&p)
    };
    let rows: [(&str, Correlation, bool, f64); 5] = [
        ("any", Correlation::Weak, false, 4356.0), // dense fp64 reference row
        ("weak", Correlation::Weak, false, 1607.0),
        ("weak", Correlation::Weak, true, 915.0),
        ("strong", Correlation::Strong, false, 3877.0),
        ("strong", Correlation::Strong, true, 1830.0),
    ];
    for (i, (label, corr, tlr, paper_gb)) in rows.into_iter().enumerate() {
        let gb = if i == 0 {
            dense / 1e9
        } else {
            footprint_bytes(&TileFormatProfile::new(corr, nt, nb, tlr)) / 1e9
        };
        let variant = match (i, tlr) {
            (0, _) => "dense-fp64",
            (_, false) => "mp-dense",
            (_, true) => "mp-dense-tlr",
        };
        println!(
            "{:>12} {:>14} | {:>12.0} {:>12.0} {:>9.0}%",
            label,
            variant,
            gb,
            paper_gb,
            100.0 * (1.0 - gb * 1e9 / dense)
        );
    }
    println!();
}

fn measured_panel() {
    let n = env_usize("XGS_N", 2048);
    let nb = 64;
    let locs = sites(n, 1.0, 9);
    // The model for demo-size tiles drops the TLR memory-bound penalty;
    // see the decision_maps example for why (crossover scales with nb).
    let model = FlopKernelModel::for_tile(nb);
    println!(
        "-- measured maps: n = {n}, tile {nb} (glyphs: D/s/h dense 64/32/16, L/l low-rank) --"
    );
    for (label, range) in [("weak", 0.01), ("strong", 0.3)] {
        let kernel = Matern::new(MaternParams::new(1.0, range, 0.5));
        for variant in [Variant::MpDense, Variant::MpDenseTlr] {
            let m = SymTileMatrix::generate(&kernel, &locs, TlrConfig::new(variant, nb), &model);
            let map = decision_heatmap(&m);
            let (d64, d32, d16, l64, l32) = map.fractions();
            println!(
                "{label:>8} {:<14} band={} tiles: D {:.0}% s {:.0}% h {:.0}% L {:.0}% l {:.0}% | footprint cut {:.1}%",
                variant.name(),
                m.band_size_dense,
                d64 * 100.0,
                d32 * 100.0,
                d16 * 100.0,
                l64 * 100.0,
                l32 * 100.0,
                100.0 * (1.0 - map.footprint_bytes as f64 / map.dense_f64_footprint_bytes as f64)
            );
        }
    }
    println!("\n(per-tile CSV maps: set XGS_CSV=1 to dump to stdout)");
    if env_usize("XGS_CSV", 0) == 1 {
        let kernel = Matern::new(MaternParams::new(1.0, 0.01, 0.5));
        let m = SymTileMatrix::generate(
            &kernel,
            &locs,
            TlrConfig::new(Variant::MpDenseTlr, nb),
            &model,
        );
        println!("{}", decision_heatmap(&m).to_csv());
    }
}

fn main() {
    paper_scale_panel();
    measured_panel();
}
