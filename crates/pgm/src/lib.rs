//! Phase-2 machinery: graph-based manifold learning via PGMs.
//!
//! Implements the paper's scalable probabilistic-graphical-model construction
//! (Section IV-B): starting from the dense kNN graph of Phase 1, edges are
//! pruned by the *spectral distortion* criterion of Eq. (8),
//! `η_pq = w_pq · R^eff_pq` (the edge's leverage score), which greedily
//! maximizes the PGM maximum-likelihood objective of Eq. (6). A low-stretch
//! spanning-tree backbone guarantees connectivity, and a practical
//! low-resistance-diameter (LRD) rule keeps the off-tree edges that close
//! electrically long cycles — the ones a tree approximates worst.
//!
//! # Example
//!
//! ```
//! use cirstag_embed::{knn_graph, KnnConfig};
//! use cirstag_linalg::DenseMatrix;
//! use cirstag_pgm::{learn_manifold, PgmConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 40 points on a noisy circle.
//! let rows: Vec<Vec<f64>> = (0..40)
//!     .map(|i| {
//!         let t = i as f64 / 40.0 * std::f64::consts::TAU;
//!         vec![t.cos(), t.sin()]
//!     })
//!     .collect();
//! let points = DenseMatrix::from_rows(&rows)?;
//! let dense = knn_graph(&points, 6, &KnnConfig::default())?;
//! let manifold = learn_manifold(&dense, &PgmConfig::default())?;
//! assert!(manifold.graph.is_connected());
//! assert!(manifold.graph.num_edges() <= dense.num_edges());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod sparsify;

pub use error::PgmError;
pub use sparsify::{learn_manifold, random_prune, PgmConfig, PgmResult, PgmStats};
