//! `xgs-server` — a long-lived kriging-prediction service.
//!
//! The paper's workflow ends at batch prediction: fit θ once, factorize
//! Σ(θ) once, then krige. Operationally that factor is worth serving: it
//! is the expensive O(n³) artifact, while each prediction against it is
//! only O(n²)-ish solves and dot products. This crate keeps fitted models
//! resident — tile-Cholesky factor, solved kriging weights, kernel and
//! training locations ([`xgs_core::PredictionPlan`]) — behind a TCP
//! newline-delimited-JSON protocol, and coalesces concurrent requests
//! into multi-RHS solves ([`batch`]) for throughput.
//!
//! Requests may carry a client-assigned `"id"` (echoed in the response)
//! and a `"deadline_ms"`; responses complete out of order, so a slow
//! `predict` never blocks a `ping` on the same connection. One epoll
//! event loop ([`reactor`]) owns every socket; solver threads hand
//! finished replies back to it and never touch one. The batch queue
//! carries a points budget: past it, `predict` is shed with a
//! `retry_after_ms` hint instead of queueing unboundedly, and request
//! lines / JSON nesting are hard-capped so hostile clients cannot exhaust
//! memory or the stack.
//!
//! Everything is `std::net`, threads and the in-tree `polling` shim; JSON
//! goes through the workspace's one reader and streaming writer
//! (`xgs-json`, re-exported as [`xgs_runtime::json`]). See the
//! repository README ("Prediction service protocol") for the wire grammar
//! and `exageostat loadgen` (over [`loadgen`]) for a replay client.
//!
//! # Lock order
//!
//! The server holds three long-lived mutexes. Whenever more than one is
//! held at a time, they must be acquired in this order (and a single
//! rank must never be re-acquired while held):
//!
//! 1. `batch::BatchQueue` `inner` — queue state, shortest hold times;
//! 2. [`registry::ModelRegistry`] `models` — the model table, held
//!    across factor lookups;
//! 3. `server::Shared` `metrics` — the counters, innermost because every
//!    path increments something on the way out.
//!
//! The order is machine-checked as a consequence of the workspace lock
//! graph: `xgs-lint` builds one call-graph-propagated lock-acquisition
//! graph over every crate (`crates/analysis/src/lockgraph.rs`), so an
//! acquisition of a lower rank while a higher rank is held — even
//! indirectly, through a helper the direct caller never sees — is a
//! `lock-order` finding, and any cycle anywhere in the graph is a
//! `lock-cycle` finding with its full witness path.

pub mod batch;
pub mod loadgen;
pub mod protocol;
pub mod reactor;
pub mod registry;
pub mod server;

pub use loadgen::{connect_with_retry, LoadgenConfig, LoadgenReport};
pub use protocol::{parse_request, Envelope, LoadRequest, ParseFailure, PredictRequest, Request};
pub use registry::{build_plan, build_plan_engine, ModelRegistry};
pub use server::{serve, ServerConfig, ServerHandle, MAX_LINE_BYTES, MAX_TILES_PER_SIDE};
