//! Paper Fig. 10: time-to-solution of the three Cholesky variants for
//! Matérn 2D space on 2048 / 4096 / 8192 / 16384 modeled Fugaku nodes,
//! under weak / medium / strong correlation.
//!
//! The paper's headline: MP+dense/TLR reaches up to **12x** over dense
//! FP64 at 16K nodes with weak correlation (9M matrix, dense hosted
//! hypothetically — it exceeds node memory), with the gain shrinking as
//! correlation strengthens.
//!
//! ```text
//! cargo run -p xgs-bench --release --bin fig10_variants_scale
//! ```

use xgs_perfmodel::{project, Correlation, Projection, ScaleConfig, SolverVariant};
use xgs_runtime::JsonValue;

struct Row {
    correlation: &'static str,
    n: usize,
    nodes: usize,
    variant: &'static str,
    projection: Projection,
}

impl Row {
    fn to_json(&self) -> String {
        JsonValue::object([
            ("correlation", self.correlation.into()),
            ("n", self.n.into()),
            ("nodes", self.nodes.into()),
            ("variant", self.variant.into()),
            ("projection", self.projection.to_json_value()),
        ])
        .to_json_string()
    }
}

fn main() {
    let mut json_rows: Vec<Row> = Vec::new();
    let nb = 800;
    let cases: [(usize, usize); 4] = [
        (1_000_000, 2048),
        (2_000_000, 4096),
        (4_000_000, 8192),
        (9_000_000, 16384),
    ];

    for corr in [Correlation::Weak, Correlation::Medium, Correlation::Strong] {
        println!(
            "== {} correlation (Matérn range {}) ==",
            corr.name(),
            corr.range()
        );
        println!(
            "{:>10} {:>7} | {:>11} {:>11} {:>11} | {:>8} {:>16}",
            "n", "nodes", "fp64 (s)", "mp (s)", "mp+tlr (s)", "speedup", "tlr footprint"
        );
        for (n, nodes) in cases {
            let d = project(&ScaleConfig::new(
                n,
                nb,
                nodes,
                corr,
                SolverVariant::DenseF64,
            ));
            let m = project(&ScaleConfig::new(
                n,
                nb,
                nodes,
                corr,
                SolverVariant::MpDense,
            ));
            let t = project(&ScaleConfig::new(
                n,
                nb,
                nodes,
                corr,
                SolverVariant::MpDenseTlr,
            ));
            for (variant, p) in [("dense-fp64", d), ("mp-dense", m), ("mp-dense-tlr", t)] {
                json_rows.push(Row {
                    correlation: corr.name(),
                    n,
                    nodes,
                    variant,
                    projection: p,
                });
            }
            println!(
                "{:>10} {:>7} | {:>11.1} {:>11.1} {:>11.1} | {:>7.1}x {:>13.0} GB{}",
                n,
                nodes,
                d.makespan,
                m.makespan,
                t.makespan,
                d.makespan / t.makespan,
                t.footprint_bytes / 1e9,
                if d.fits_in_memory {
                    ""
                } else {
                    "   [fp64 hypothetical: exceeds memory]"
                }
            );
        }
        println!();
    }
    println!("paper headline: up to 12x for MP+dense/TLR at 16K nodes, weak correlation;");
    println!("gain shrinks with stronger correlation (higher ranks, fewer low-precision tiles).");

    // Machine-readable dump for plotting.
    let json = format!(
        "[\n  {}\n]\n",
        json_rows
            .iter()
            .map(Row::to_json)
            .collect::<Vec<_>>()
            .join(",\n  ")
    );
    let path = "results/fig10.json";
    if std::fs::create_dir_all("results").is_ok() && std::fs::write(path, json).is_ok() {
        println!("\n(wrote {path})");
    }
}
