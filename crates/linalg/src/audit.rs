//! Runtime invariant audits for the pipeline's phase boundaries.
//!
//! These checks are deliberately *spot checks*: cheap enough to run at every
//! phase boundary of every build, release included (a handful of sparse
//! matrix–vector products), strong enough to catch the corruption classes
//! the paper's math cannot survive — asymmetric or indefinite Laplacians
//! (Eq. 5 requires `L = Σ w_pq e_pq e_pqᵀ ⪰ 0`), malformed CSR storage, and
//! non-finite weights. The Phase-3 stage of `cirstag` calls
//! [`laplacian_violations`] on both pencil Laplacians before its eigensolve.

use crate::CsrMatrix;

/// Number of deterministic probe vectors used by [`psd_spot_check`].
const PSD_PROBES: usize = 4;

/// Relative tolerance for the symmetry and PSD spot checks.
pub const AUDIT_TOL: f64 = 1e-8;

/// Deterministic xorshift probe generator — audits must never perturb the
/// pipeline's seeded randomness or depend on ambient entropy.
fn probe_vector(n: usize, probe: usize) -> Vec<f64> {
    // cirstag-lint: allow(cast-truncation) -- probe index: lossless usize -> u64 on 64-bit hosts, and any wrap only reseeds the mix
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ ((probe as u64 + 1) << 17);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Map to [-1, 1); exact powers of two keep this bit-reproducible.
            (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
        .collect()
}

/// Audits a graph Laplacian at a phase boundary: CSR well-formedness,
/// squareness, symmetry, and positive semidefiniteness (spot-checked with
/// `PSD_PROBES` deterministic probe vectors).
///
/// Returns every violation found, empty when the matrix passes. Violations
/// are ordered structural-first so the most fundamental failure leads.
pub fn laplacian_violations(l: &CsrMatrix, context: &str) -> Vec<String> {
    let mut out = Vec::new();
    if let Err(e) = l.well_formed() {
        out.push(format!("{context}: CSR malformed: {e}"));
        // Structural corruption makes the numeric checks meaningless (and
        // potentially panicky) — stop here.
        return out;
    }
    let (nr, nc) = l.shape();
    if nr != nc {
        out.push(format!("{context}: Laplacian is {nr}x{nc}, not square"));
        return out;
    }
    // Scale-aware tolerance: |L|_max spans ~1/epsilon for manifold weights.
    let scale = l
        .iter()
        .map(|(_, _, v)| v.abs())
        .fold(1.0f64, |a, b| a.max(b));
    if !l.is_symmetric(AUDIT_TOL * scale) {
        out.push(format!(
            "{context}: Laplacian is not symmetric (tol {:.1e})",
            AUDIT_TOL * scale
        ));
    }
    if let Err(e) = psd_spot_check(l, scale) {
        out.push(format!("{context}: {e}"));
    }
    out
}

/// Spot-checks positive semidefiniteness: `xᵀLx ≥ -tol·scale·n` for a fixed
/// set of deterministic probe vectors. A true PSD matrix passes for every
/// `x`; a clearly indefinite one fails with high probability per probe.
///
/// # Errors
///
/// Returns a description of the first probe whose quadratic form is
/// negative beyond tolerance.
pub fn psd_spot_check(l: &CsrMatrix, scale: f64) -> Result<(), String> {
    let n = l.nrows();
    if n == 0 {
        return Ok(());
    }
    let floor = -AUDIT_TOL * scale * n as f64;
    for probe in 0..PSD_PROBES {
        let x = probe_vector(n, probe);
        let q = l.quadratic_form(&x);
        // `is_nan` is checked explicitly: values are already known finite
        // from `well_formed`, but a probe product could still overflow.
        if q.is_nan() || q < floor {
            return Err(format!(
                "quadratic form xᵀLx = {q:.3e} below the PSD floor {floor:.3e} \
                 on probe {probe} (matrix is not positive semidefinite)"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    /// Path-graph Laplacian on n nodes: tridiagonal, symmetric, PSD.
    fn path_laplacian(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n - 1 {
            coo.push(i, i, 1.0).unwrap();
            coo.push(i + 1, i + 1, 1.0).unwrap();
            coo.push(i, i + 1, -1.0).unwrap();
            coo.push(i + 1, i, -1.0).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn clean_laplacian_passes() {
        assert!(laplacian_violations(&path_laplacian(12), "test").is_empty());
    }

    #[test]
    fn nan_values_fail_structural_check() {
        let mut l = path_laplacian(6);
        l.scale(f64::NAN);
        let v = laplacian_violations(&l, "test");
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("CSR malformed"), "{v:?}");
    }

    #[test]
    fn asymmetric_matrix_flagged() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 5.0).unwrap();
        coo.push(1, 0, -5.0).unwrap();
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        coo.push(2, 2, 1.0).unwrap();
        let v = laplacian_violations(&coo.to_csr(), "test");
        assert!(v.iter().any(|m| m.contains("not symmetric")), "{v:?}");
    }

    #[test]
    fn negative_definite_matrix_flagged() {
        let l = CsrMatrix::from_diagonal(&[-1.0, -2.0, -3.0, -4.0]);
        let v = laplacian_violations(&l, "test");
        assert!(v.iter().any(|m| m.contains("PSD floor")), "{v:?}");
    }

    #[test]
    fn non_square_flagged() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0).unwrap();
        let v = laplacian_violations(&coo.to_csr(), "test");
        assert!(v.iter().any(|m| m.contains("not square")), "{v:?}");
    }

    #[test]
    fn probes_are_deterministic() {
        assert_eq!(probe_vector(8, 0), probe_vector(8, 0));
        assert_ne!(probe_vector(8, 0), probe_vector(8, 1));
    }
}
