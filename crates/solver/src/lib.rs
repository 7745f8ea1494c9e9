//! Iterative solvers and eigensolvers for the CirSTAG stack.
//!
//! Provides the numerical core used by every phase of the pipeline:
//!
//! - [`conjugate_gradient`] / [`Preconditioner`] — (preconditioned) CG for
//!   sparse SPD systems.
//! - [`LaplacianSolver`] — solves `L x = b` for connected-graph Laplacians by
//!   deflating the all-ones nullspace.
//! - [`lanczos_largest`] / [`smallest_normalized_laplacian_eigs`] — Lanczos
//!   with full reorthogonalization; the latter implements the Phase-1
//!   spectral embedding eigenproblem via the spectrum flip `2I − L_norm`.
//! - [`generalized_lanczos`] — largest eigenpairs of the pencil
//!   `L_X v = ζ L_Y v` (equivalently of `L_Y⁺ L_X`), the Phase-3 operator.
//! - [`ResistanceEstimator`] — effective resistances, exact (one solve per
//!   query) or sketched (Spielman–Srivastava style Johnson–Lindenstrauss
//!   projection, `O(log n)` solves total).
//!
//! # Example
//!
//! ```
//! use cirstag_graph::Graph;
//! use cirstag_solver::LaplacianSolver;
//!
//! # fn main() -> Result<(), cirstag_solver::SolverError> {
//! let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)])?;
//! let solver = LaplacianSolver::new(&g)?;
//! // Current injection: +1 at node 0, −1 at node 2.
//! let x = solver.solve(&[1.0, 0.0, -1.0])?;
//! // Potential difference equals the effective resistance (2 Ω here).
//! assert!((x[0] - x[2] - 2.0).abs() < 1e-8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cg;
mod error;
mod geig;
mod lanczos;
mod laplacian;
mod operators;
mod resistance;
mod tree_precond;
mod workspace;

pub use cg::{
    conjugate_gradient, conjugate_gradient_block_into, conjugate_gradient_into, CgOptions,
    CgResult, CgStats, IdentityPreconditioner, JacobiPreconditioner, Preconditioner,
};
pub use error::SolverError;
pub use geig::{
    generalized_eigen_dense, generalized_lanczos, generalized_lanczos_ws, GeneralizedEigen,
};
pub use lanczos::{
    lanczos_largest, lanczos_largest_ws, smallest_normalized_laplacian_eigs,
    smallest_normalized_laplacian_eigs_ws, LanczosResult,
};
pub use laplacian::LaplacianSolver;
pub use operators::{CsrOperator, LinearOperator, PanelOperator, ScaledShiftedOperator};
pub use resistance::ResistanceEstimator;
pub use tree_precond::TreePreconditioner;
pub use workspace::SolverWorkspace;
