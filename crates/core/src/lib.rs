//! CirSTAG: circuit stability analysis on graph-based manifolds.
//!
//! This crate implements the paper's contribution end-to-end (Algorithm 1):
//!
//! 1. **Phase 1** — a weighted spectral embedding of the input circuit graph
//!    (Eq. 4), optionally augmented with node features so feature
//!    perturbations (pin capacitances) are visible on the input manifold;
//!    the GNN's node embeddings serve as the output-side data.
//! 2. **Phase 2** — low-dimensional input/output *manifold graphs* learned
//!    as probabilistic graphical models: dense kNN graphs pruned by the
//!    spectral-distortion criterion `η_pq = w_pq·R^eff_pq` (Eq. 8).
//! 3. **Phase 3** — distance-mapping-distortion (DMD) scores from the
//!    largest eigenpairs of `L_Y⁺ L_X`: the weighted eigensubspace
//!    `V_s = [v₁√ζ₁, …, v_s√ζ_s]` gives the edge stability `‖V_sᵀe_pq‖²`
//!    and the node score of Eq. (9) — a surrogate for the GNN's local
//!    Lipschitz constant at each circuit node.
//!
//! Ablation switches reproduce the paper's Fig. 4 (skip dimensionality
//! reduction) plus a manifold-sparsification ablation.
//!
//! # Example
//!
//! ```
//! use cirstag::{CirStag, CirStagConfig};
//! use cirstag_graph::Graph;
//! use cirstag_linalg::DenseMatrix;
//!
//! # fn main() -> Result<(), cirstag::CirStagError> {
//! // A ring circuit graph and a fake GNN embedding that distorts one region.
//! let n = 24;
//! let g = Graph::from_edges(n, &(0..n).map(|i| (i, (i + 1) % n, 1.0)).collect::<Vec<_>>())?;
//! let emb = DenseMatrix::from_rows(
//!     &(0..n)
//!         .map(|i| {
//!             let t = i as f64 / n as f64 * std::f64::consts::TAU;
//!             let stretch = if i < 4 { 8.0 } else { 1.0 }; // distorted region
//!             vec![stretch * t.cos(), stretch * t.sin()]
//!         })
//!         .collect::<Vec<_>>(),
//! )?;
//! let config = CirStagConfig { embedding_dim: 4, knn_k: 4, num_eigenpairs: 3, ..Default::default() };
//! let report = CirStag::new(config).analyze(&g, None, &emb)?;
//! assert_eq!(report.node_scores.len(), n);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod engine;
mod error;
mod export;
mod pipeline;
mod resilience;
mod selection;

pub use engine::eco::{
    analyze_partitioned, EcoReportExport, PartitionExport, PartitionPlan, PartitionRecord,
    PartitionView, PartitionedReport,
};
pub use engine::{ArtifactCache, Fingerprint, Fingerprinter};
pub use error::CirStagError;
pub use export::ReportExport;
pub use pipeline::{CirStag, CirStagConfig, PhaseTimings, StabilityReport};
pub use resilience::{
    ApproxKnnRecord, CancelToken, FailurePolicy, FallbackEvent, RunDiagnostics, StageCacheRecord,
};
pub use selection::{bottom_fraction, rank_descending, top_fraction};

/// Deterministic failpoint injection (re-exported from the linalg layer).
///
/// The registry is a no-op unless the `failpoints` cargo feature is enabled;
/// see the module docs for the `<stage>/<site>` naming scheme used across
/// the pipeline.
pub use cirstag_linalg::fail as failpoint;
