//! `cirstag-serve`: a resident analysis daemon for the CirSTAG pipeline.
//!
//! The daemon (`cirstag serve`) keeps trained designs, the stage-graph
//! artifact cache, and a worker pool resident in one process, and answers
//! newline-delimited JSON requests over TCP. The robustness posture:
//!
//! * **Bounded admission** — a fixed-capacity queue sheds excess load with
//!   a typed `503` instead of queueing without bound ([`AdmissionQueue`]).
//! * **Deadlines** — per-request wall-clock deadlines become a
//!   [`cirstag::CancelToken`] plus a stage-budget cap, so expiry cancels
//!   cleanly at the next stage boundary (`504`).
//! * **Panic isolation** — each worker runs jobs under `catch_unwind`; a
//!   panic yields a structured `500` for that request, the worker is
//!   respawned by its supervisor, and the process stays up.
//! * **Graceful degradation** — sustained backlog engages a hysteresis
//!   gate ([`OverloadGate`]) that forces the BestEffort failure policy
//!   until the queue drains.
//! * **Shared caching** — all tenants share one crash-safe
//!   [`cirstag::ArtifactCache`] (single-flight per fingerprint) and one
//!   [`DesignStore`] memoizing netlist → trained-GNN preparation.
//!
//! The wire protocol lives in [`protocol`]; [`load`] provides the matching
//! client and load generator used by the CLI, the bench harness, and CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod design;
mod error;
pub mod load;
pub mod protocol;
mod server;

pub use admission::{AdmissionQueue, Admit, OverloadGate, ServerStats};
pub use design::{analysis_config, train_timing_gnn, DesignStore, PreparedDesign, TrainedGnn};
pub use error::ServeError;
pub use load::{run_load, shutdown_daemon, LoadConfig, LoadReport};
pub use protocol::{
    Request, Response, Verb, CODE_BAD_REQUEST, CODE_DEADLINE, CODE_INTERNAL, CODE_OK, CODE_SHED,
};
pub use server::{ServeConfig, Server};
