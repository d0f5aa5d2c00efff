//! `exageostat` — command-line front-end for the mixed-precision + TLR
//! geostatistics stack. Run `exageostat help` for usage.

use exageostat_rs::cli::args::Args;
use exageostat_rs::cli::commands::{self, CmdError};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        print!("{}", commands::usage());
        std::process::exit(2);
    }
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", commands::usage());
            std::process::exit(2);
        }
    };
    match commands::run(&args) {
        // A job that prints as it goes (`paper`) has nothing left to say.
        Ok(report) if report.is_empty() => {}
        Ok(report) => println!("{report}"),
        Err(e) => {
            if let CmdError::Failed { report, .. } = &e {
                println!("{report}");
            }
            eprintln!("error: {e}");
            // A usage error exits 2 wherever it is found, like a parse
            // error above; a run that failed exits 1.
            std::process::exit(match e {
                CmdError::Arg(_) => 2,
                CmdError::Io(_) | CmdError::Run(_) | CmdError::Failed { .. } => 1,
            });
        }
    }
}
