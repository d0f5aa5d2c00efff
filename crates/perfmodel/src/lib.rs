//! Performance model of the paper's hardware context and the simulated
//! Fugaku-scale experiment driver.
//!
//! The paper benchmarks on Fugaku (A64FX, 48 cores/node, TofuD) with SSL
//! BLAS running at 65% of peak (sector-cache optimizations disabled for
//! task-model compatibility, §VI). We cannot run on Fugaku; instead this
//! crate calibrates an analytic machine model to the paper's reported
//! operating points and drives the *same tile-Cholesky DAG* through the
//! discrete-event simulator of `xgs-runtime` (exact at moderate tile
//! counts) or a closed-form work/critical-path model (at full paper
//! scale), regenerating the shapes of Figs. 5, 7, 10 and 11. DESIGN.md §2
//! documents this substitution.

pub mod a64fx;
pub mod attributes;
pub mod profiles;
pub mod scale;

pub use a64fx::{A64fxKernelModel, A64fxNode, FUGAKU_FULL_NODES};
pub use attributes::performance_attributes;
pub use profiles::{Correlation, TileFormatProfile};
pub use scale::{
    footprint_bytes, project, project_with_metrics, Projection, ScaleConfig, SolverVariant,
};
