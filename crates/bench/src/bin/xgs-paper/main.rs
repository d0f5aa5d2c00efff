//! `xgs-paper`: regenerates the paper's evaluation — the §II attributes
//! table, Figs. 5–11, Tables I–II, the design ablations, PSO weak scaling
//! and the schedule-validator overhead — one subcommand each.
//!
//! ```text
//! cargo run -p xgs-bench --release --bin xgs-paper -- help
//! cargo run -p xgs-bench --release --bin xgs-paper -- fig9
//! cargo run -p xgs-bench --release --bin xgs-paper -- table1 --metrics m.json
//! ```
//!
//! Every subcommand runs at the size its `results/` file records and
//! takes no option; `table1 --metrics <path>` is the one exception. Speed
//! is measured by the repo benchmark (`examples/benchmark/`), not here.

mod accuracy;
mod decisions;
mod kernels;
mod scale;

use std::process::ExitCode;

/// `(name, summary, job)`. A subcommand takes `--metrics <path>`, the path
/// its job receives, when its summary says so, so `help` lists exactly
/// what the parser accepts.
type Subcommand = (&'static str, &'static str, fn(Option<&str>));

const METRICS_OPTION: &str = "[--metrics <path>]";

/// The one table behind both dispatch and `help`.
const SUBCOMMANDS: &[Subcommand] = &[
    ("attributes", "§II performance-attributes table", |_| {
        scale::attributes()
    }),
    ("fig5", "dense vs TLR GEMM by rank; Algorithm 2", |_| {
        kernels::fig5()
    }),
    ("fig6", "parameter-estimate boxplots", |_| accuracy::fig6()),
    ("fig7", "MP Cholesky on 1024 modeled nodes", |_| {
        scale::fig7()
    }),
    ("fig8", "SHGEMM vs SGEMM vs DGEMM", |_| kernels::fig8()),
    ("fig9", "decision maps and footprints", |_| {
        decisions::fig9()
    }),
    ("fig10", "space Cholesky on Fugaku nodes", |_| {
        scale::scale(scale::Figure::Space)
    }),
    ("fig11", "space-time Cholesky on Fugaku nodes", |_| {
        scale::scale(scale::Figure::SpaceTime)
    }),
    ("table1", "soil-moisture MLE [--metrics <path>]", |o| {
        accuracy::table(&accuracy::TABLE_I, o)
    }),
    ("table2", "space-time ET MLE", |_| {
        accuracy::table(&accuracy::TABLE_II, None)
    }),
    (
        "ablations",
        "precision rule, TLR tolerance, tile size",
        |_| decisions::ablations(),
    ),
    ("pso", "PSO training weak scaling (§VI-D)", |_| {
        accuracy::pso()
    }),
    (
        "validator-overhead",
        "schedule validator and race checker cost",
        |_| decisions::validator_overhead(),
    ),
];

/// A parsed command line.
#[derive(Debug)]
enum Command {
    Help,
    Run(&'static Subcommand, Option<String>),
}

fn parse(argv: &[String]) -> Result<Command, String> {
    let Some((name, rest)) = argv.split_first() else {
        return Err("missing subcommand".into());
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let sub = SUBCOMMANDS
        .iter()
        .find(|s| s.0 == name)
        .ok_or_else(|| format!("unknown subcommand '{name}'"))?;
    let mut metrics = None;
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--metrics" if sub.1.ends_with(METRICS_OPTION) => {
                let path = args.next().filter(|p| !p.starts_with("--"));
                metrics = Some(path.ok_or("--metrics needs a path")?.clone());
            }
            _ => return Err(format!("{name}: unexpected argument '{arg}'")),
        }
    }
    Ok(Command::Run(sub, metrics))
}

fn usage() -> String {
    let mut out = String::from(
        "usage: xgs-paper <subcommand>\n\n\
         Regenerates one table or figure of the paper; results/<name>.txt\n\
         records each at the size it runs.\n\nsubcommands:\n",
    );
    for (name, summary) in SUBCOMMANDS.iter().map(|s| (s.0, s.1)) {
        out.push_str(&format!("  {name:<19} {summary}\n"));
    }
    out + "  help                this list\n"
}

/// Parse and run; the exit status: 0, or 2 on a usage error.
fn dispatch(argv: &[String]) -> u8 {
    match parse(argv) {
        Ok(Command::Help) => print!("{}", usage()),
        Ok(Command::Run((_, _, job), metrics)) => job(metrics.as_deref()),
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return 2;
        }
    }
    0
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(dispatch(&argv))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn unknown_or_missing_subcommand_is_a_usage_error() {
        assert_eq!(dispatch(&argv(&["fig12"])), 2);
        assert_eq!(dispatch(&argv(&[])), 2);
        let err = parse(&argv(&["table3"])).unwrap_err();
        assert!(err.contains("unknown subcommand 'table3'"), "{err}");
    }

    #[test]
    fn metrics_needs_a_path_and_only_table1_takes_it() {
        for bad in [
            &["table1", "--metrics"][..],
            &["table1", "--metrics", "--verbose"],
            &["table1", "--verbose"],
            &["table1", "m.json"],
            &["table2", "--metrics", "m.json"],
            &["fig9", "--quick"],
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?} parsed");
            assert_eq!(dispatch(&argv(bad)), 2, "{bad:?}");
        }
        match parse(&argv(&["table1", "--metrics", "m.json"])).unwrap() {
            Command::Run(sub, metrics) => {
                assert_eq!(sub.0, "table1");
                assert_eq!(metrics.as_deref(), Some("m.json"));
            }
            Command::Help => panic!("table1 parsed as help"),
        }
    }

    #[test]
    fn every_subcommand_is_unique_and_listed_in_help() {
        let help = usage();
        for (i, (name, ..)) in SUBCOMMANDS.iter().enumerate() {
            assert!(
                SUBCOMMANDS[i + 1..].iter().all(|s| s.0 != *name),
                "{name} listed twice"
            );
            assert!(
                help.lines()
                    .any(|l| l.split_whitespace().next() == Some(name)),
                "{name} missing from help"
            );
            assert!(matches!(
                parse(&argv(&[name])),
                Ok(Command::Run(s, _)) if s.0 == *name
            ));
        }
        assert_eq!(SUBCOMMANDS.len(), 13);
        assert!(matches!(parse(&argv(&["help"])), Ok(Command::Help)));
    }
}
