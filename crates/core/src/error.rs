use std::error::Error;
use std::fmt;

/// Error type for the CirSTAG pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CirStagError {
    /// Embedding / kNN stage failed.
    Embed(cirstag_embed::EmbedError),
    /// PGM manifold learning failed.
    Pgm(cirstag_pgm::PgmError),
    /// Eigen/solver stage failed.
    Solver(cirstag_solver::SolverError),
    /// Graph construction failed.
    Graph(cirstag_graph::GraphError),
    /// Linear algebra failed.
    Linalg(cirstag_linalg::LinalgError),
    /// An argument was invalid.
    InvalidArgument {
        /// Description of the violated requirement.
        reason: String,
    },
    /// A pipeline stage produced NaN or infinite values.
    NonFiniteStage {
        /// Stage whose output failed the finiteness guardrail
        /// (e.g. `"phase1"`).
        stage: &'static str,
    },
    /// The run's [`crate::CancelToken`] fired — an explicit cancel or an
    /// expired deadline — and the pipeline stopped at a stage boundary.
    Cancelled {
        /// Stage at whose boundary the cancellation was observed.
        stage: &'static str,
    },
    /// A phase-boundary invariant audit (`crate::audit`, run in every
    /// build) failed: malformed CSR storage, an asymmetric or indefinite
    /// Laplacian, or non-finite manifold edge weights.
    InvariantViolation {
        /// Phase boundary where the audit fired (e.g. `"phase2/audit"`).
        stage: &'static str,
        /// Every violation the audit found, newline-joined.
        detail: String,
    },
}

impl fmt::Display for CirStagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CirStagError::Embed(e) => write!(f, "embedding stage failed: {e}"),
            CirStagError::Pgm(e) => write!(f, "manifold learning failed: {e}"),
            CirStagError::Solver(e) => write!(f, "eigensolver stage failed: {e}"),
            CirStagError::Graph(e) => write!(f, "graph error: {e}"),
            CirStagError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            CirStagError::InvalidArgument { reason } => write!(f, "invalid argument: {reason}"),
            CirStagError::Cancelled { stage } => {
                write!(f, "analysis cancelled at stage boundary {stage}")
            }
            CirStagError::NonFiniteStage { stage } => {
                write!(f, "stage {stage} produced non-finite values")
            }
            CirStagError::InvariantViolation { stage, detail } => {
                write!(f, "invariant audit failed at {stage}: {detail}")
            }
        }
    }
}

impl Error for CirStagError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CirStagError::Embed(e) => Some(e),
            CirStagError::Pgm(e) => Some(e),
            CirStagError::Solver(e) => Some(e),
            CirStagError::Graph(e) => Some(e),
            CirStagError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cirstag_embed::EmbedError> for CirStagError {
    fn from(e: cirstag_embed::EmbedError) -> Self {
        CirStagError::Embed(e)
    }
}
impl From<cirstag_pgm::PgmError> for CirStagError {
    fn from(e: cirstag_pgm::PgmError) -> Self {
        CirStagError::Pgm(e)
    }
}
impl From<cirstag_solver::SolverError> for CirStagError {
    fn from(e: cirstag_solver::SolverError) -> Self {
        CirStagError::Solver(e)
    }
}
impl From<cirstag_graph::GraphError> for CirStagError {
    fn from(e: cirstag_graph::GraphError) -> Self {
        CirStagError::Graph(e)
    }
}
impl From<cirstag_linalg::LinalgError> for CirStagError {
    fn from(e: cirstag_linalg::LinalgError) -> Self {
        CirStagError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_sources() {
        let e: CirStagError = cirstag_graph::GraphError::Disconnected.into();
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CirStagError>();
    }
}
