//! The model-only figures: the §II attributes table and the Fugaku-scale
//! projections of Figs. 7, 10 and 11. No timing and no randomness, so
//! their `results/` files are reproduced byte for byte.

use xgs_perfmodel::{project, Correlation, Projection, ScaleConfig, SolverVariant};
use xgs_runtime::json::Writer;
use xgs_runtime::JsonValue;

/// The paper's Fig. 7 and Fig. 10/11 tile size.
const NB: usize = 800;

/// §II "Performance Attributes" table.
pub fn attributes() {
    print!("{}", xgs_perfmodel::performance_attributes());
}

/// Fig. 7: mixed-precision dense Cholesky on 1024 nodes, tile 800, versus
/// matrix size. The paper reports sustained Tflop/s (dense-equivalent flops
/// / time) and 94 % FP64 scaling efficiency at 1024 nodes; the same DAGs
/// replay through the simulator on the calibrated A64FX model.
pub fn fig7() {
    let nodes = 1024;
    println!("Fig. 7 reproduction: Cholesky on {nodes} modeled A64FX nodes, tile {NB}\n");
    println!(
        "{:>10} | {:>12} {:>12} {:>12} | {:>9} {:>9}",
        "n", "fp64 (s)", "fp32 (s)", "mp (s)", "fp64 Tf/s", "mp Tf/s"
    );
    // Weak correlation = the most low-precision-friendly panel.
    let weak = |n, v| project(&ScaleConfig::new(n, NB, nodes, Correlation::Weak, v));
    for n in [200_000usize, 400_000, 800_000, 1_200_000, 1_600_000] {
        let [d, s, m] = [
            SolverVariant::DenseF64,
            SolverVariant::DenseF32,
            SolverVariant::MpDense,
        ]
        .map(|v| weak(n, v));
        println!(
            "{:>10} | {:>12.2} {:>12.2} {:>12.2} | {:>9.1} {:>9.1}",
            n,
            d.makespan,
            s.makespan,
            m.makespan,
            d.flops / 1e12,
            m.flops / 1e12
        );
    }
    let n = 1_600_000;
    let full = weak(n, SolverVariant::DenseF64);
    println!(
        "\nmodeled parallel efficiency at {nodes} nodes (n = {n}): {:.0}% (paper reports 94%)",
        full.efficiency * 100.0
    );
}

/// Figs. 10 and 11 are one job: project each (n, nodes) case of each
/// correlation panel for each solver variant on modeled Fugaku nodes.
#[derive(Clone, Copy)]
pub enum Figure {
    /// Fig. 10: Matérn 2D space on 2048–16384 nodes, weak / medium /
    /// strong correlation. Paper headline: MP+dense/TLR up to 12x over
    /// dense FP64 at 16K nodes, weak correlation (9M matrix, dense hosted
    /// hypothetically), the gain shrinking as correlation strengthens.
    Space,
    /// Fig. 11: space–time, strong correlation, on 4096 and 48384 nodes.
    /// "Slightly less than an order of magnitude" on 4096 nodes, shrinking
    /// further at 48384 (strong scaling runs out of tasks) while the
    /// memory-footprint gain persists.
    SpaceTime,
}

type Cases = &'static [(usize, usize)];

impl Figure {
    fn constants(self) -> (&'static [Correlation], Cases, &'static [SolverVariant]) {
        use SolverVariant::*;
        match self {
            Figure::Space => (
                &[Correlation::Weak, Correlation::Medium, Correlation::Strong],
                &[
                    (1_000_000, 2048),
                    (2_000_000, 4096),
                    (4_000_000, 8192),
                    (9_000_000, 16384),
                ],
                &[DenseF64, MpDense, MpDenseTlr],
            ),
            Figure::SpaceTime => (
                &[Correlation::SpaceTimeStrong],
                &[(4_000_000, 4096), (4_000_000, 48_384), (10_000_000, 48_384)],
                &[DenseF64, MpDenseTlr],
            ),
        }
    }
}

/// Column header of one variant's time-to-solution.
fn time_column(v: SolverVariant) -> &'static str {
    match v {
        SolverVariant::DenseF64 => "fp64 (s)",
        SolverVariant::DenseF32 => "fp32 (s)",
        SolverVariant::MpDense => "mp (s)",
        SolverVariant::MpDenseTlr => "mp+tlr (s)",
    }
}

/// Fig. 10 or Fig. 11. Fig. 10 also writes every projection to
/// `results/fig10.json` for plotting.
pub fn scale(fig: Figure) {
    let (panels, cases, variants) = fig.constants();
    let mut json = Writer::new();
    json.begin_array_lines();
    let mut speedups = Vec::new();
    if let Figure::SpaceTime = fig {
        println!("space-time (strong correlation) Cholesky on modeled Fugaku nodes, tile {NB}\n");
    }
    for &corr in panels {
        if let Figure::Space = fig {
            println!(
                "== {} correlation (Matérn range {}) ==",
                corr.name(),
                corr.range()
            );
        }
        let mut header = format!("{:>10} {:>7} |", "n", "nodes");
        for &v in variants {
            header += &format!(" {:>11}", time_column(v));
        }
        header += &format!(" | {:>8}", "speedup");
        header += &match fig {
            Figure::Space => format!(" {:>16}", "tlr footprint"),
            Figure::SpaceTime => format!(" {:>11} {:>12}", "efficiency", "mem cut"),
        };
        println!("{header}");
        for &(n, nodes) in cases {
            let p: Vec<Projection> = variants
                .iter()
                .map(|&v| project(&ScaleConfig::new(n, NB, nodes, corr, v)))
                .collect();
            let (d, t) = (p[0], p[p.len() - 1]);
            let speedup = d.makespan / t.makespan;
            speedups.push(speedup);
            let mut row = format!("{n:>10} {nodes:>7} |");
            for (&v, q) in variants.iter().zip(&p) {
                row += &format!(" {:>11.1}", q.makespan);
                json.value(&JsonValue::object([
                    ("correlation", corr.name().into()),
                    ("n", n.into()),
                    ("nodes", nodes.into()),
                    ("variant", v.name().into()),
                    ("projection", q.to_json_value()),
                ]));
            }
            row += &format!(" | {speedup:>7.1}x");
            row += &match fig {
                Figure::Space => format!(
                    " {:>13.0} GB{}",
                    t.footprint_bytes / 1e9,
                    if d.fits_in_memory {
                        ""
                    } else {
                        "   [fp64 hypothetical: exceeds memory]"
                    }
                ),
                Figure::SpaceTime => format!(
                    " {:>10.0}% {:>11.0}%",
                    100.0 * t.efficiency,
                    100.0 * (1.0 - t.footprint_bytes / d.footprint_bytes)
                ),
            };
            println!("{row}");
        }
        println!();
    }
    match fig {
        Figure::Space => {
            println!("paper headline: up to 12x for MP+dense/TLR at 16K nodes, weak correlation;");
            println!(
                "gain shrinks with stronger correlation (higher ranks, fewer low-precision tiles)."
            );
            json.end_array();
            let path = "results/fig10.json";
            let body = json.finish() + "\n";
            if std::fs::create_dir_all("results").is_ok() && std::fs::write(path, body).is_ok() {
                eprintln!("(wrote {path})");
            }
        }
        Figure::SpaceTime => println!(
            "speedup at 4096 nodes: {:.1}x (paper: slightly under 10x); at 48384 nodes the\n\
             same matrix gives {:.1}x — reduced, as the paper observes, because strong scaling\n\
             runs out of tasks; the memory-footprint gain remains.",
            speedups[0], speedups[1]
        ),
    }
}
