//! Command-line interface of the `exageostat` binary — the high-level
//! front-end role the paper's framework exposes through the R package.
//! Every user-facing command is a path in one table (`commands.rs`), parsed
//! by one parser (`args.rs`).

pub mod args;
pub mod commands;
pub mod io;
pub mod metrics_diff;
pub mod paper;
