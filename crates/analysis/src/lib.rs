//! In-tree static analysis for the workspace.
//!
//! Two layers, both wired into CI as hard gates:
//!
//! * **`xgs-lint`** ([`lexer`] + [`rules`] + [`lockgraph`], driven by the
//!   `xgs-lint` binary): a hand-rolled Rust lexer and a token-stream rule
//!   engine that enforce the project's written invariants — NaN-safe float
//!   comparisons, panic-free network paths, bounded stream reads,
//!   justified and SAFETY-commented `unsafe` confined to audited modules,
//!   checked raw-syscall results, exhaustive wire-kind dispatch — as
//!   named, individually-suppressible rules, plus a whole-workspace
//!   lock-acquisition graph whose cycles (and inversions of the declared
//!   server order) are findings with full witness paths.
//! * **Pre-execution DAG checking** ([`dag`]): independent
//!   re-derivations of the runtime's correctness invariants (hazard
//!   edges, acyclicity, the Cholesky kernel census, and sharded-plan
//!   frame-protocol safety) that run *before* a graph executes, so a
//!   cyclic graph or an unsatisfiable tile transfer is a diagnostic at
//!   submission time rather than a hang at 3 a.m.
//!
//! The crate's one dependency is `xgs-json` (zero dependencies itself),
//! which writes the lint reports. `xgs-runtime` and `xgs-cholesky` depend
//! on this crate, not the reverse, which keeps the checks an independent
//! implementation (a genuine cross-check) and lets the lint build even
//! when the rest of the workspace doesn't.

pub mod dag;
pub mod lexer;
pub mod lockgraph;
pub mod rules;

pub use dag::{
    block_cyclic_owner, check_acyclic, check_cholesky_census, check_recovery_plan,
    check_shard_plan, hazard_edges, AccessSpec, Edge, GraphError, HazardKind, KernelCensus,
    PlanError, PlanEvent, PlanSummary, PlanTask, RecoveryEvent, RecoveryPlan, RecoverySummary,
    ShardPlan,
};
pub use lockgraph::{analyze_files, Analysis, Cycle, Site};
pub use rules::{
    lint_file, lint_files, lint_source, report_json, report_sarif, FileLint, Finding, RULES,
};
