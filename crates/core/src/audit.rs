//! Phase-boundary invariant audits.
//!
//! Each pipeline phase hands a structured object to the next one: Phase 1
//! produces the spectral embedding `U`, Phase 2 the manifold graphs
//! `G_X`/`G_Y`, Phase 3 consumes their Laplacians. The phase-boundary audits
//! re-check, at those hand-off points, the invariants the downstream math
//! assumes but never re-verifies on its hot paths:
//!
//! - manifold edges carry finite positive weights with in-bounds endpoints
//!   and no self-loops (the `w_pq` of Eq. 8 must be usable as conductances);
//! - the Laplacian `L = Σ w_pq e_pq e_pqᵀ` of Eq. 5 is well-formed CSR,
//!   symmetric, and positive semidefinite (spot-checked);
//! - the embedding matrix is finite and row-matched to the graph.
//!
//! The Laplacian check lives in [`cirstag_linalg::audit`], next to the CSR
//! type it inspects; this module holds the graph and embedding checks and the
//! policy enforcement. The engine's stages run every audit in every build,
//! debug and release alike. Enforcement follows the
//! [`crate::FailurePolicy`] of the run: `Strict` turns violations into
//! [`crate::CirStagError::InvariantViolation`], `BestEffort` records an
//! `invariant-audit` [`crate::FallbackEvent`] plus a warning and lets the
//! run continue.

use crate::{CirStagError, FailurePolicy, FallbackEvent, RunDiagnostics};
use cirstag_graph::Graph;
use cirstag_linalg::DenseMatrix;

/// Audits one manifold graph: every edge weight finite and positive,
/// endpoints in bounds and distinct. Returns all violations found.
///
/// Symmetry needs no separate check — [`Graph`] stores undirected edges, so
/// the kNN union-symmetrization of Phase 2 cannot produce an asymmetric
/// adjacency; what can break is the *weights*, which is what this audits.
pub fn manifold_violations(g: &Graph, context: &str) -> Vec<String> {
    let n = g.num_nodes();
    let mut out = Vec::new();
    for (eid, e) in g.edges().iter().enumerate() {
        if e.u >= n || e.v >= n {
            out.push(format!(
                "{context}: edge {eid} endpoints ({}, {}) out of bounds for {n} nodes",
                e.u, e.v
            ));
        } else if e.u == e.v {
            out.push(format!(
                "{context}: edge {eid} is a self-loop on node {}",
                e.u
            ));
        }
        if !e.weight.is_finite() || e.weight <= 0.0 {
            out.push(format!(
                "{context}: edge {eid} ({}, {}) has non-positive or non-finite weight {}",
                e.u, e.v, e.weight
            ));
        }
        if out.len() >= 8 {
            out.push(format!("{context}: further violations suppressed"));
            break;
        }
    }
    out
}

/// Audits the Phase-1 embedding hand-off: finite entries, rows matching the
/// graph's node count.
pub fn embedding_violations(u: &DenseMatrix, n: usize, context: &str) -> Vec<String> {
    let mut out = Vec::new();
    if u.nrows() != n {
        out.push(format!(
            "{context}: embedding has {} rows but the graph has {n} nodes",
            u.nrows()
        ));
    }
    if !u.all_finite() {
        out.push(format!("{context}: embedding contains non-finite values"));
    }
    out
}

/// Applies the run's [`FailurePolicy`] to a batch of audit violations.
///
/// No violations: no-op. Under `Strict` the first audit failure aborts the
/// run with [`CirStagError::InvariantViolation`]; under `BestEffort` the
/// violations are recorded as one `invariant-audit` fallback event plus a
/// warning, and the run continues (the stage outputs are used as-is — the
/// audits detect, they do not repair).
///
/// # Errors
///
/// Returns [`CirStagError::InvariantViolation`] under
/// [`FailurePolicy::Strict`] when `violations` is non-empty.
pub fn enforce(
    stage: &'static str,
    violations: Vec<String>,
    policy: FailurePolicy,
    diag: &mut RunDiagnostics,
    elapsed_ms: u64,
) -> Result<(), CirStagError> {
    if violations.is_empty() {
        return Ok(());
    }
    let detail = violations.join("\n");
    if policy == FailurePolicy::Strict {
        return Err(CirStagError::InvariantViolation { stage, detail });
    }
    diag.events.push(FallbackEvent {
        stage: stage.to_string(),
        rung: "invariant-audit".to_string(),
        cause: detail,
        residual: None,
        elapsed_ms,
    });
    diag.warnings.push(format!(
        "{stage}: invariant audit found {} violation{}; continuing best-effort",
        violations.len(),
        if violations.len() == 1 { "" } else { "s" }
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirstag_linalg::audit::laplacian_violations;
    use cirstag_linalg::{CooMatrix, CsrMatrix};

    fn corrupt_laplacian() -> CsrMatrix {
        // A structurally valid PSD Laplacian, then NaN-corrupted — the same
        // class of damage the `phase3/nan` failpoint models.
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..3 {
            coo.push(i, i, 1.0).unwrap();
            coo.push(i + 1, i + 1, 1.0).unwrap();
            coo.push(i, i + 1, -1.0).unwrap();
            coo.push(i + 1, i, -1.0).unwrap();
        }
        let mut l = coo.to_csr();
        l.scale(f64::NAN);
        l
    }

    #[test]
    fn corrupted_csr_is_caught_through_run_diagnostics() {
        let violations = laplacian_violations(&corrupt_laplacian(), "phase3");
        assert!(!violations.is_empty());
        let mut diag = RunDiagnostics::default();
        enforce(
            "phase3/audit",
            violations,
            FailurePolicy::BestEffort,
            &mut diag,
            7,
        )
        .expect("best-effort audits never error");
        assert_eq!(diag.events.len(), 1);
        assert_eq!(diag.events[0].rung, "invariant-audit");
        assert_eq!(diag.events[0].stage, "phase3/audit");
        assert!(diag.events[0].cause.contains("CSR malformed"));
        assert_eq!(diag.warnings.len(), 1);
    }

    #[test]
    fn corrupted_csr_is_a_typed_error_under_strict() {
        let violations = laplacian_violations(&corrupt_laplacian(), "phase3");
        let mut diag = RunDiagnostics::default();
        let err = enforce(
            "phase3/audit",
            violations,
            FailurePolicy::Strict,
            &mut diag,
            0,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CirStagError::InvariantViolation {
                stage: "phase3/audit",
                ..
            }
        ));
        assert!(diag.events.is_empty(), "strict must not record events");
    }

    #[test]
    fn clean_inputs_pass_silently() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5)]).unwrap();
        assert!(manifold_violations(&g, "phase2").is_empty());
        let l = g.laplacian();
        assert!(laplacian_violations(&l, "phase3").is_empty());
        let mut diag = RunDiagnostics::default();
        enforce(
            "phase2/audit",
            Vec::new(),
            FailurePolicy::Strict,
            &mut diag,
            0,
        )
        .unwrap();
        assert!(diag.is_empty());
    }

    #[test]
    fn embedding_row_mismatch_flagged() {
        let u = DenseMatrix::zeros(3, 2);
        let v = embedding_violations(&u, 5, "phase1");
        assert!(v.iter().any(|m| m.contains("3 rows")), "{v:?}");
    }
}
