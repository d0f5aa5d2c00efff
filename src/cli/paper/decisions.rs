//! The runtime decisions: the Fig. 9 decision maps, the ablations of the
//! design choices DESIGN.md calls out, and what the schedule validator
//! and race checker cost the factorization.

use super::{quartiles, timed};
use xgs_cholesky::TiledFactor;
use xgs_core::synthetic::sites;
use xgs_core::ModelFamily;
use xgs_covariance::{covariance_matrix, Matern, MaternParams};
use xgs_perfmodel::{footprint_bytes, Correlation, TileFormatProfile};
use xgs_runtime::ExecOptions;
use xgs_tile::{
    decision_heatmap, FlopKernelModel, PrecisionRule, SymTileMatrix, TlrConfig, Variant,
};

/// Fig. 9: adaptive decision maps for Matérn 2D space on a 1M matrix with
/// tile 2700, weak vs strong correlation, and their memory footprints.
/// First the calibrated tile-format profiles at NT = 371, against the
/// paper's annotations (dense 4356 GB; WC: MP 1607 GB / TLR 915 GB; SC: MP
/// 3877 GB / TLR 1830 GB); then real covariance matrices generated at
/// small scale with both runtime decisions applied.
pub fn fig9() {
    paper_scale_panel();
    measured_panel();
}

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
    let n = 2048;
    let nb = 64;
    let locs = sites(ModelFamily::MaternSpace, n, 1, 1.0, 9);
    // The paper's tiles are 2700 wide, where the calibrated A64FX model puts
    // the Fig. 5 crossover at rank ~200 = nb/13.5. At nb = 64 that crossover
    // is rank ~5, which no real covariance tile beats, so the model for
    // this tile size drops the TLR memory-bound penalty.
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
}

/// Ablations of three design choices: (1) the paper's adaptive
/// tile-centric norm rule (Fig. 2d) vs the earlier band scheme (Fig. 2c)
/// — the adaptive rule finds low-precision tiles *without* breaking the
/// global error bound, while a band scheme wastes precision or accuracy;
/// (2) the TLR tolerance, 1e-4 … 1e-12 (the paper fixes 1e-8); (3) the
/// tile size (the paper uses 800–2700 depending on experiment).
pub fn ablations() {
    let n = 1024;
    precision_rule_panel(n);
    tolerance_panel(n);
    tile_size_panel(n);
}

fn precision_rule_panel(n: usize) {
    println!("-- ablation 1: adaptive norm rule vs band rule (n = {n}, tile 64) --");
    let locs = sites(ModelFamily::MaternSpace, n, 1, 14.0, 3);
    let kernel = Matern::new(MaternParams::new(0.67, 0.17, 0.44));
    let exact = covariance_matrix(&kernel, &locs);
    let model = FlopKernelModel::for_tile(64);
    println!(
        "{:>24} | {:>12} {:>14} {:>12}",
        "rule", "footprint", "storage err", "factor ok"
    );
    let mut cfgs: Vec<(String, TlrConfig)> = Vec::new();
    let base = TlrConfig::new(Variant::MpDense, 64);
    cfgs.push(("adaptive-norm".into(), base));
    for (f64_band, f32_band) in [(2usize, 6usize), (4, 10), (8, 16)] {
        let mut c = base;
        c.precision_rule = PrecisionRule::Band { f64_band, f32_band };
        cfgs.push((format!("band({f64_band},{f32_band})"), c));
    }
    for (label, cfg) in cfgs {
        let m = SymTileMatrix::generate(&kernel, &locs, cfg, &model);
        let fp = m.footprint_bytes();
        let err = m.to_dense().add_scaled(-1.0, &exact).norm_fro() / exact.norm_fro();
        let mut f = TiledFactor::from_matrix(m);
        let ok = f.factorize_seq().is_ok();
        println!(
            "{label:>24} | {:>10.1} MB {:>14.2e} {:>12}",
            fp as f64 / 1e6,
            err,
            if ok { "yes" } else { "NOT SPD" }
        );
    }
    println!(
        "\nthe adaptive rule keeps the relative storage error at the FP64 level\n\
         (~1e-16) by construction; band schemes trade accuracy for footprint\n\
         blindly — aggressive bands can lose positive definiteness outright.\n"
    );
}

fn tolerance_panel(n: usize) {
    println!("-- ablation 2: TLR tolerance sweep (n = {n}, tile 64, paper uses 1e-8) --");
    let locs = sites(ModelFamily::MaternSpace, n, 1, 14.0, 5);
    let kernel = Matern::new(MaternParams::new(0.67, 0.17, 0.44));
    let exact = covariance_matrix(&kernel, &locs);
    let model = FlopKernelModel::for_tile(64);
    println!(
        "{:>10} | {:>12} {:>14} {:>10}",
        "tol", "footprint", "matrix err", "max rank"
    );
    for tol in [1e-4, 1e-6, 1e-8, 1e-10, 1e-12] {
        let mut cfg = TlrConfig::new(Variant::MpDenseTlr, 64);
        cfg.tlr_tolerance = tol;
        cfg.allow_fp16 = false; // isolate the TLR error from precision error
        let m = SymTileMatrix::generate(&kernel, &locs, cfg, &model);
        let err = m.to_dense().add_scaled(-1.0, &exact).norm_fro() / exact.norm_fro();
        let max_rank = m.tiles.iter().filter_map(|t| t.rank()).max().unwrap_or(0);
        println!(
            "{tol:>10.0e} | {:>10.1} MB {:>14.2e} {:>10}",
            m.footprint_bytes() as f64 / 1e6,
            err,
            max_rank
        );
    }
    println!();
}

fn tile_size_panel(n: usize) {
    println!("-- ablation 3: tile size sweep (n = {n}, MP+dense/TLR) --");
    let locs = sites(ModelFamily::MaternSpace, n, 1, 14.0, 7);
    let kernel = Matern::new(MaternParams::new(0.67, 0.17, 0.44));
    println!(
        "{:>6} {:>5} | {:>12} {:>12} {:>12}",
        "nb", "NT", "generate (s)", "factor (s)", "footprint"
    );
    for nb in [32usize, 48, 64, 96, 128] {
        let cfg = TlrConfig::new(Variant::MpDenseTlr, nb);
        let model = FlopKernelModel::for_tile(nb);
        let (m, gen_s) = timed(|| SymTileMatrix::generate(&kernel, &locs, cfg, &model));
        let fp = m.footprint_bytes();
        let nt = m.nt();
        let mut f = TiledFactor::from_matrix(m);
        let (res, fac_s) = timed(|| f.factorize_seq());
        res.unwrap();
        println!(
            "{nb:>6} {nt:>5} | {gen_s:>12.2} {fac_s:>12.2} {:>10.1} MB",
            fp as f64 / 1e6
        );
    }
    println!("\nsmall tiles expose more tasks (shorter critical path) but raise");
    println!("per-tile overheads; the paper picks 800 (Fig. 7) to 2700 (Fig. 9).");
}

/// The parallel factorization with the schedule validator off and on, with
/// the pre-execution graph checker forced on, and with the dynamic
/// vector-clock race checker (`xgs_runtime::race`, normally debug-only)
/// forced on, all over the same matrix. The validator pays one atomic tick
/// per task endpoint plus a post-run edge walk; the race checker a
/// global-mutex clock join per declared access.
///
/// One untimed warm-up factorization first, then the four configurations
/// round-robin, so drift on the host lands on every row alike; each row
/// reports its median and interquartile range over the rounds.
pub fn validator_overhead() {
    let (n, nb, rounds): (usize, usize, usize) = (3000, 64, 9);
    let workers = xgs_runtime::logical_cores();
    let nt = n.div_ceil(nb);
    let tasks = nt + nt * (nt - 1) / 2 + nt * (nt * nt - 1) / 6;
    println!(
        "-- validator overhead sweep: n = {n}, nb = {nb} (NT = {nt}, {tasks} tasks), \
         {workers} workers, 1 warm-up + {rounds} round-robin rounds --"
    );

    let locs = sites(ModelFamily::MaternSpace, n, 1, 14.0, 3);
    let kernel = Matern::new(MaternParams::new(0.67, 0.17, 0.44));
    let model = FlopKernelModel::for_tile(nb);
    let base = ExecOptions {
        validate: false,
        precheck: false,
        ..ExecOptions::default()
    };
    let configs: [(&str, ExecOptions, bool); 4] = [
        ("validate off", base, false),
        (
            "validate on",
            ExecOptions {
                validate: true,
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
    // One factorization under `opts`, the race checker pinned so the
    // release-build default (off) cannot leak an `XGS_RACE` environment
    // setting into the baseline rows: (seconds, edges checked).
    let factor = |opts: ExecOptions, race_on: bool| {
        xgs_runtime::race::set_enabled(Some(race_on));
        let f = std::sync::Arc::new(TiledFactor::from_matrix(SymTileMatrix::generate(
            &kernel,
            &locs,
            TlrConfig::new(Variant::DenseF64, nb),
            &model,
        )));
        let ((res, report), s) = timed(|| f.factorize_parallel_opts(workers, opts));
        res.expect("benchmark matrix is SPD");
        (s, report.validation.map_or(0, |v| v.edges_checked))
    };

    factor(base, false);
    let mut secs = vec![Vec::with_capacity(rounds); configs.len()];
    let mut checked = vec![0u64; configs.len()];
    for _ in 0..rounds {
        for (c, &(_, opts, race_on)) in configs.iter().enumerate() {
            let (s, edges) = factor(opts, race_on);
            secs[c].push(s);
            checked[c] = edges;
        }
    }
    xgs_runtime::race::set_enabled(None);

    println!(
        "{:>18} | {:>10} {:>10} {:>12} {:>10}",
        "config", "median s", "IQR s", "edges chk", "vs off"
    );
    let mut baseline = 0.0f64;
    for (c, (label, ..)) in configs.iter().enumerate() {
        let (q1, median, q3) = quartiles(&mut secs[c]);
        if c == 0 {
            baseline = median;
        }
        println!(
            "{label:>18} | {median:>10.3} {:>10.3} {:>12} {:>+9.1}%",
            q3 - q1,
            checked[c],
            (median / baseline - 1.0) * 100.0
        );
    }
    let races = xgs_runtime::race::race_count();
    println!(
        "\nrecording = two relaxed-ordering ticks per task; the edge walk\n\
         runs once post-factorization on the coordinator thread. The race-check\n\
         row pays a global-mutex vector-clock join per declared task access\n\
         ({races} race(s) detected — expected 0). A row resolves when its\n\
         distance from the off row exceeds both rows' IQR.\n"
    );
}
