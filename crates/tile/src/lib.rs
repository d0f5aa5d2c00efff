//! Tile matrix framework with the paper's two runtime decisions.
//!
//! A covariance matrix is partitioned into `NT x NT` tiles; only the lower
//! triangle is stored (the matrix is symmetric). Each tile independently
//! carries:
//!
//! * a **structure**: dense, or tile-low-rank (`U V^T` compressed to the
//!   application accuracy, 1e-8 in the paper), decided by the
//!   *structure-aware* rule — a tile reverts to dense when its rank is high
//!   enough that TLR arithmetic would be slower (paper Fig. 5's crossover,
//!   automated by Algorithm 2's `band_size_dense` tuning);
//! * a **precision**: FP64 / FP32 / FP16, decided by the *precision-aware*
//!   rule — tile `A_ij` may be stored in a precision with unit roundoff
//!   `u_low` when `||A_ij||_F < u_high * ||A||_F / (NT * u_low)` (§VI-C),
//!   which guarantees `||Â - A||_F <= u_high ||A||_F`.
//!
//! Precision is *emulated*: buffers remain `f64` but are rounded through
//! the assigned format after generation and after every kernel that writes
//! them, reproducing the paper's storage error exactly; the reported memory
//! footprint is computed from the assigned formats (2/4/8 bytes per
//! element), matching how the paper's Fig. 9 footprints are accounted.

pub mod band;
pub mod decisions;
pub mod heatmap;
pub mod layout;
pub mod matrix;
pub mod tile;
pub mod wire;

pub use band::auto_tune_band_size;
pub use decisions::{
    precision_for_tile, precision_for_tile_with_rule, FlopKernelModel, KernelTimeModel,
    PrecisionRule,
};
pub use heatmap::{decision_heatmap, DecisionMap};
pub use layout::TileLayout;
pub use matrix::{SymTileMatrix, TileCensus, TlrConfig, Variant};
pub use tile::{Tile, TileStorage};
pub use wire::{
    decode_tile, dense_payload_len, encode_tile, encoded_len, low_rank_payload_len, wire_elements,
    WireTileError,
};
