//! Generalized Lanczos for the pencil `L_X v = ζ L_Y v`.
//!
//! Phase 3 of CirSTAG needs the largest eigenpairs of `L_Y⁺ L_X`, where
//! `L_X` / `L_Y` are the input/output manifold Laplacians. On the subspace
//! orthogonal to the all-ones vector, `L_Y` is positive definite, so
//! `A = L_Y⁻¹ L_X` is self-adjoint with respect to the `L_Y` inner product
//! `⟨u, v⟩_B = uᵀ L_Y v`. We run a B-orthogonal Lanczos iteration: each step
//! costs one sparse product with `L_X` plus one Laplacian solve with `L_Y`.

use crate::lanczos::XorShift;
use crate::{LaplacianSolver, SolverError, SolverWorkspace};
use cirstag_linalg::{tridiag_eigen, vecops, CsrMatrix, DenseMatrix};

/// Largest generalized eigenpairs of `L_X v = ζ L_Y v`.
#[derive(Debug, Clone)]
pub struct GeneralizedEigen {
    /// Generalized eigenvalues, sorted descending (`ζ_1 ≥ ζ_2 ≥ …`).
    pub eigenvalues: Vec<f64>,
    /// Eigenvectors, `B`-orthonormal (`v_iᵀ L_Y v_j = δ_ij`); column `j`
    /// pairs with `eigenvalues[j]`.
    pub eigenvectors: DenseMatrix,
    /// Lanczos steps performed.
    pub iterations: usize,
}

/// Computes the `s` largest eigenpairs of the symmetric PSD pencil
/// `(L_X, L_Y)` via B-orthogonal Lanczos with full reorthogonalization.
///
/// `lx` must be the Laplacian of a connected graph over the same node set as
/// the graph behind `ly_solver`; both have the all-ones nullspace, which the
/// iteration avoids by keeping every basis vector mean-zero.
///
/// # Errors
///
/// - [`SolverError::DimensionMismatch`] when `lx` and the solver disagree on
///   the dimension.
/// - [`SolverError::InvalidArgument`] when `s` is zero or too large.
/// - Propagates Laplacian solve failures.
pub fn generalized_lanczos(
    lx: &CsrMatrix,
    ly_solver: &LaplacianSolver,
    s: usize,
    max_iter: usize,
    seed: u64,
) -> Result<GeneralizedEigen, SolverError> {
    let mut ws = SolverWorkspace::new();
    generalized_lanczos_ws(lx, ly_solver, s, max_iter, seed, &mut ws)
}

/// [`generalized_lanczos`] with caller-provided scratch: start vectors, the
/// per-step products and every Krylov basis/B-image vector come from `ws`
/// and return to it on exit, so repeated pencils against a warm workspace
/// allocate nothing in the iteration loop. Bit-identical to
/// [`generalized_lanczos`].
///
/// # Errors
///
/// Same as [`generalized_lanczos`].
pub fn generalized_lanczos_ws(
    lx: &CsrMatrix,
    ly_solver: &LaplacianSolver,
    s: usize,
    max_iter: usize,
    seed: u64,
    ws: &mut SolverWorkspace,
) -> Result<GeneralizedEigen, SolverError> {
    let n = ly_solver.dim();
    if lx.nrows() != n || lx.ncols() != n {
        return Err(SolverError::DimensionMismatch {
            expected: n,
            actual: lx.nrows(),
        });
    }
    // The complement of span{1} has dimension n - 1.
    if s == 0 || s + 1 > n {
        return Err(SolverError::InvalidArgument {
            reason: format!("requested {s} generalized eigenpairs of a dimension-{n} pencil"),
        });
    }
    // Failpoint: force the typed no-convergence failure so tests can drive
    // the Phase-3 retry / dense-fallback ladder.
    if cirstag_linalg::fail::trigger("solver/geig").is_some() {
        return Err(SolverError::NoConvergence {
            algorithm: "generalized lanczos (failpoint)",
            iterations: 0,
            residual: f64::INFINITY,
        });
    }
    let mut basis: Vec<Vec<f64>> = Vec::new();
    let mut bimages: Vec<Vec<f64>> = Vec::new();
    let mut z = ws.take(n);
    let mut w = ws.take(n);
    let mut lw = ws.take(n);
    let result = geig_core(
        lx,
        ly_solver,
        s,
        max_iter,
        seed,
        &mut basis,
        &mut bimages,
        &mut z,
        &mut w,
        &mut lw,
        ws,
    );
    ws.put(lw);
    ws.put(w);
    ws.put(z);
    for b in bimages.drain(..) {
        ws.put(b);
    }
    for b in basis.drain(..) {
        ws.put(b);
    }
    result
}

/// Iteration loop of [`generalized_lanczos_ws`]; the wrapper owns draining
/// the basis and B-image vectors back into the workspace on every exit path.
#[allow(clippy::too_many_arguments)]
fn geig_core(
    lx: &CsrMatrix,
    ly_solver: &LaplacianSolver,
    s: usize,
    max_iter: usize,
    seed: u64,
    basis: &mut Vec<Vec<f64>>,
    bimages: &mut Vec<Vec<f64>>,
    z: &mut [f64],
    w: &mut [f64],
    lw: &mut [f64],
    ws: &mut SolverWorkspace,
) -> Result<GeneralizedEigen, SolverError> {
    let n = ly_solver.dim();
    let ly = ly_solver.laplacian();
    let max_iter = max_iter.min(n.saturating_sub(1)).max(s);

    let mut rng = XorShift::new(seed);
    // B-normalized, mean-zero start vector.
    let mut q = ws.take(n);
    for x in q.iter_mut() {
        *x = rng.next_f64();
    }
    vecops::center(&mut q);
    let mut p = ws.take(n);
    ly.try_mul_vec_into(&q, &mut p)?; // p = L_Y q
    let bnorm = vecops::dot(&q, &p).max(0.0).sqrt();
    // cirstag-lint: allow(float-discipline) -- exact-zero norm detects a start vector annihilated by L_Y
    if bnorm == 0.0 {
        ws.put(p);
        ws.put(q);
        return Err(SolverError::InvalidArgument {
            reason: "start vector degenerate under the L_Y inner product".to_string(),
        });
    }
    vecops::scale(1.0 / bnorm, &mut q);
    vecops::scale(1.0 / bnorm, &mut p);

    // basis[j] = q_j, bimages[j] = L_Y q_j.
    basis.push(q);
    bimages.push(p);
    let mut alphas: Vec<f64> = Vec::new();
    let mut betas: Vec<f64> = Vec::new();

    loop {
        let j = alphas.len();
        // z = L_X q_j (mean-zero since 1 is in L_X's nullspace).
        lx.try_mul_vec_into(&basis[j], z)?;
        // w = L_Y⁺ z = A q_j.
        ly_solver.solve_into(z, w)?;
        // alpha_j = ⟨A q_j, q_j⟩_B = zᵀ q_j.
        let alpha = vecops::dot(z, &basis[j]);
        alphas.push(alpha);
        vecops::axpy(-alpha, &basis[j], w);
        if j > 0 {
            let beta_prev = betas[j - 1];
            vecops::axpy(-beta_prev, &basis[j - 1], w);
        }
        // Full B-reorthogonalization: ⟨w, q_i⟩_B = wᵀ (L_Y q_i).
        for _ in 0..2 {
            for (b, bi) in basis.iter().zip(bimages.iter()) {
                let c = vecops::dot(w, bi);
                vecops::axpy(-c, b, w);
            }
        }
        vecops::center(w);
        ly.try_mul_vec_into(w, lw)?;
        let beta = vecops::dot(w, lw).max(0.0).sqrt();
        let m = alphas.len();
        let breakdown = beta < 1e-12;
        let done_budget = m >= max_iter;

        if m >= s && (done_budget || breakdown || m.is_multiple_of(5)) {
            let tri = tridiag_eigen(&alphas, &betas)?;
            let mut order: Vec<usize> = (0..m).collect();
            order.sort_by(|&a, &b| tri.eigenvalues[b].total_cmp(&tri.eigenvalues[a]));
            let top = &order[..s];
            let scale = tri
                .eigenvalues
                .iter()
                .fold(0.0_f64, |acc, v| acc.max(v.abs()))
                .max(1.0);
            let tol = 1e-8;
            let converged = breakdown
                || top
                    .iter()
                    .all(|&jj| beta * tri.eigenvectors.get(m - 1, jj).abs() <= tol * scale);
            if converged || done_budget {
                let mut vectors = DenseMatrix::zeros(n, s);
                let mut eigenvalues = Vec::with_capacity(s);
                for (out_col, &jj) in top.iter().enumerate() {
                    eigenvalues.push(tri.eigenvalues[jj]);
                    for (b_idx, b) in basis.iter().take(m).enumerate() {
                        let y = tri.eigenvectors.get(b_idx, jj);
                        // cirstag-lint: allow(float-discipline) -- exact-zero skip of zero Ritz coefficients; a sparsity test, not a tolerance
                        if y != 0.0 {
                            for i in 0..n {
                                let cur = vectors.get(i, out_col);
                                vectors.set(i, out_col, cur + y * b[i]);
                            }
                        }
                    }
                }
                return Ok(GeneralizedEigen {
                    eigenvalues,
                    eigenvectors: vectors,
                    iterations: m,
                });
            }
        }
        if breakdown {
            // Restart with a fresh B-orthogonal direction.
            let mut fresh = ws.take(n);
            for x in fresh.iter_mut() {
                *x = rng.next_f64();
            }
            vecops::center(&mut fresh);
            for (b, bi) in basis.iter().zip(bimages.iter()) {
                let c = vecops::dot(&fresh, bi);
                vecops::axpy(-c, b, &mut fresh);
            }
            vecops::center(&mut fresh);
            let mut lf = ws.take(n);
            ly.try_mul_vec_into(&fresh, &mut lf)?;
            let fb = vecops::dot(&fresh, &lf).max(0.0).sqrt();
            if fb < 1e-12 {
                ws.put(lf);
                ws.put(fresh);
                return Err(SolverError::NoConvergence {
                    algorithm: "generalized lanczos (krylov exhausted)",
                    iterations: alphas.len(),
                    residual: beta,
                });
            }
            vecops::scale(1.0 / fb, &mut fresh);
            vecops::scale(1.0 / fb, &mut lf);
            betas.push(0.0);
            basis.push(fresh);
            bimages.push(lf);
        } else {
            betas.push(beta);
            // Historically `w`/`lw` were moved into the basis; copying into
            // pooled buffers leaves the scratch reusable and scales the same
            // bits.
            let mut nq = ws.take(n);
            nq.copy_from_slice(w);
            let mut np = ws.take(n);
            np.copy_from_slice(lw);
            vecops::scale(1.0 / beta, &mut nq);
            vecops::scale(1.0 / beta, &mut np);
            basis.push(nq);
            bimages.push(np);
        }
    }
}

/// Dense fallback for the generalized eigenproblem `L_X v = ζ L_Y v`.
///
/// Assembles `M = L_Y^{+1/2} L_X L_Y^{+1/2}` (pseudo-inverse square root via
/// a full Jacobi eigendecomposition of `L_Y`) and diagonalizes it densely.
/// This is `O(n³)` in time and `O(n²)` in memory — the last rung of the
/// Phase-3 fallback ladder, not a replacement for [`generalized_lanczos`].
/// Eigenvectors are mapped back through `v = L_Y^{+1/2} u` and B-normalized
/// so the result matches the iterative solver's conventions.
///
/// # Errors
///
/// - [`SolverError::DimensionMismatch`] when `lx` and `ly` disagree on shape.
/// - [`SolverError::InvalidArgument`] when `s` is zero or exceeds `n − 1`.
/// - Propagates dense eigensolver failures.
pub fn generalized_eigen_dense(
    lx: &CsrMatrix,
    ly: &CsrMatrix,
    s: usize,
) -> Result<GeneralizedEigen, SolverError> {
    let n = ly.nrows();
    if lx.nrows() != n || lx.ncols() != n || ly.ncols() != n {
        return Err(SolverError::DimensionMismatch {
            expected: n,
            actual: lx.nrows().max(ly.ncols()),
        });
    }
    if s == 0 || s + 1 > n {
        return Err(SolverError::InvalidArgument {
            reason: format!("requested {s} generalized eigenpairs of a dimension-{n} pencil"),
        });
    }
    // Failpoint: fail even the terminal dense rung so tests can observe the
    // BestEffort "zero scores" end state.
    if cirstag_linalg::fail::trigger("solver/dense-geig").is_some() {
        return Err(SolverError::NoConvergence {
            algorithm: "dense generalized eigensolver (failpoint)",
            iterations: 0,
            residual: f64::INFINITY,
        });
    }
    let lyd = ly.to_dense();
    let (vals, vecs) = cirstag_linalg::jacobi_eigen(&lyd)?;
    // L_Y^{+1/2} = V diag(1/sqrt(lam)) Vᵀ over nonzero eigenvalues.
    let scale = vals
        .iter()
        .fold(0.0_f64, |acc, v| acc.max(v.abs()))
        .max(1.0);
    let threshold = 1e-9 * scale;
    let mut half = DenseMatrix::zeros(n, n);
    for k in 0..n {
        if vals[k] > threshold {
            let inv = 1.0 / vals[k].sqrt();
            for i in 0..n {
                for j in 0..n {
                    let cur = half.get(i, j);
                    half.set(i, j, cur + inv * vecs.get(i, k) * vecs.get(j, k));
                }
            }
        }
    }
    let m = half.matmul(&lx.to_dense())?.matmul(&half)?;
    // Symmetrize round-off before Jacobi.
    let mt = m.transpose();
    let msym = m.add(&mt)?.scaled(0.5);
    let (mv, mu) = cirstag_linalg::jacobi_eigen(&msym)?;
    // Top-s pairs, descending; map u back to pencil coordinates v = half·u.
    let mut eigenvalues = Vec::with_capacity(s);
    let mut vectors = DenseMatrix::zeros(n, s);
    for out_col in 0..s {
        let k = n - 1 - out_col;
        eigenvalues.push(mv[k]);
        let mut v = vec![0.0; n];
        for i in 0..n {
            let mut acc = 0.0;
            for j in 0..n {
                acc += half.get(i, j) * mu.get(j, k);
            }
            v[i] = acc;
        }
        vecops::center(&mut v);
        // B-normalize: vᵀ L_Y v = 1, matching the iterative solver.
        let lv = ly.mul_vec(&v);
        let bnorm = vecops::dot(&v, &lv).max(0.0).sqrt();
        if bnorm > 1e-300 {
            vecops::scale(1.0 / bnorm, &mut v);
        }
        for i in 0..n {
            vectors.set(i, out_col, v[i]);
        }
    }
    Ok(GeneralizedEigen {
        eigenvalues,
        eigenvectors: vectors,
        iterations: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CgOptions;
    use cirstag_graph::Graph;

    /// Dense reference eigenvalues via the public dense fallback solver.
    fn dense_reference(gx: &Graph, gy: &Graph, s: usize) -> Vec<f64> {
        generalized_eigen_dense(&gx.laplacian(), &gy.laplacian(), s)
            .unwrap()
            .eigenvalues
    }

    fn cycle_graph(n: usize, w: f64) -> Graph {
        let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n, w)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn identical_graphs_give_unit_eigenvalues() {
        let g = cycle_graph(8, 1.0);
        let solver = LaplacianSolver::new(&g).unwrap();
        let lx = g.laplacian();
        let r = generalized_lanczos(&lx, &solver, 3, 40, 1.0 as u64).unwrap();
        for &v in &r.eigenvalues {
            assert!((v - 1.0).abs() < 1e-6, "eigenvalue {v}");
        }
    }

    #[test]
    fn workspace_form_is_bit_identical_and_reuses_buffers() {
        let gx = cycle_graph(12, 2.0);
        let gy = cycle_graph(12, 1.0);
        let lx = gx.laplacian();
        // The default solver, and one with Phase 3's options; both CGs apply
        // the tree sweep one column at a time.
        let phase3_options = CgOptions {
            tol: 1e-6,
            max_iter: 10_000,
        };
        for solver in [
            LaplacianSolver::new(&gy).unwrap(),
            LaplacianSolver::with_tree_preconditioner(&gy, phase3_options).unwrap(),
        ] {
            let plain = generalized_lanczos(&lx, &solver, 3, 40, 9).unwrap();

            let mut ws = SolverWorkspace::new();
            let pooled = generalized_lanczos_ws(&lx, &solver, 3, 40, 9, &mut ws).unwrap();

            assert_eq!(plain.eigenvalues.len(), pooled.eigenvalues.len());
            for (a, b) in plain.eigenvalues.iter().zip(&pooled.eigenvalues) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "eigenvalues must be bitwise equal"
                );
            }
            for (a, b) in plain
                .eigenvectors
                .as_slice()
                .iter()
                .zip(pooled.eigenvectors.as_slice())
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "eigenvectors must be bitwise equal"
                );
            }

            // A warmed workspace must not allocate on a repeat run.
            let misses = ws.misses();
            let again = generalized_lanczos_ws(&lx, &solver, 3, 40, 9, &mut ws).unwrap();
            assert_eq!(ws.misses(), misses, "warm rerun must not allocate");
            for (a, b) in pooled.eigenvalues.iter().zip(&again.eigenvalues) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn scaled_graph_scales_eigenvalues() {
        // L_X = 3 L_Y  =>  all generalized eigenvalues are 3.
        let gy = cycle_graph(10, 1.0);
        let gx = cycle_graph(10, 3.0);
        let solver = LaplacianSolver::new(&gy).unwrap();
        let r = generalized_lanczos(&gx.laplacian(), &solver, 2, 40, 2).unwrap();
        for &v in &r.eigenvalues {
            assert!((v - 3.0).abs() < 1e-6, "eigenvalue {v}");
        }
    }

    #[test]
    fn matches_dense_reference_on_distinct_graphs() {
        let gx = Graph::from_edges(
            6,
            &[
                (0, 1, 2.0),
                (1, 2, 1.0),
                (2, 3, 4.0),
                (3, 4, 1.0),
                (4, 5, 2.0),
                (5, 0, 1.0),
                (0, 3, 0.5),
            ],
        )
        .unwrap();
        let gy = Graph::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 1.0),
                (3, 4, 2.0),
                (4, 5, 1.0),
                (5, 0, 2.0),
                (1, 4, 1.0),
            ],
        )
        .unwrap();
        let expect = dense_reference(&gx, &gy, 3);
        let solver = LaplacianSolver::new(&gy).unwrap();
        let r = generalized_lanczos(&gx.laplacian(), &solver, 3, 60, 4).unwrap();
        for (a, b) in r.eigenvalues.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn eigenvectors_satisfy_pencil_equation() {
        let gx = Graph::from_edges(
            5,
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 1.0),
                (3, 4, 3.0),
                (4, 0, 1.0),
            ],
        )
        .unwrap();
        let gy = cycle_graph(5, 1.0);
        let solver = LaplacianSolver::new(&gy).unwrap();
        let lx = gx.laplacian();
        let ly = gy.laplacian();
        let r = generalized_lanczos(&lx, &solver, 2, 40, 6).unwrap();
        for j in 0..2 {
            let v = r.eigenvectors.column(j);
            let lxv = lx.mul_vec(&v);
            let lyv = ly.mul_vec(&v);
            let z = r.eigenvalues[j];
            let res: f64 = lxv
                .iter()
                .zip(&lyv)
                .map(|(a, b)| (a - z * b) * (a - z * b))
                .sum::<f64>()
                .sqrt();
            let scale = vecops::norm2(&lxv).max(1e-12);
            assert!(res / scale < 1e-5, "pencil residual {res}");
        }
    }

    #[test]
    fn eigenvectors_are_b_orthonormal_and_mean_zero() {
        let gx = cycle_graph(7, 2.0);
        let gy = cycle_graph(7, 1.0);
        let solver = LaplacianSolver::new(&gy).unwrap();
        let ly = gy.laplacian();
        let r = generalized_lanczos(&gx.laplacian(), &solver, 3, 40, 8).unwrap();
        for a in 0..3 {
            let va = r.eigenvectors.column(a);
            assert!(vecops::mean(&va).abs() < 1e-8);
            for b in 0..3 {
                let vb = r.eigenvectors.column(b);
                let lyb = ly.mul_vec(&vb);
                let ip = vecops::dot(&va, &lyb);
                let expect = if a == b { 1.0 } else { 0.0 };
                assert!((ip - expect).abs() < 1e-5, "B-inner ({a},{b}) = {ip}");
            }
        }
    }

    #[test]
    fn argument_validation() {
        let g = cycle_graph(4, 1.0);
        let solver = LaplacianSolver::new(&g).unwrap();
        let lx = g.laplacian();
        assert!(generalized_lanczos(&lx, &solver, 0, 10, 0).is_err());
        assert!(generalized_lanczos(&lx, &solver, 4, 10, 0).is_err()); // > n-1
        let small = cycle_graph(3, 1.0).laplacian();
        assert!(generalized_lanczos(&small, &solver, 1, 10, 0).is_err());
        let ly = g.laplacian();
        assert!(generalized_eigen_dense(&lx, &ly, 0).is_err());
        assert!(generalized_eigen_dense(&lx, &ly, 4).is_err());
        assert!(generalized_eigen_dense(&small, &ly, 1).is_err());
    }

    #[test]
    fn dense_eigenvectors_satisfy_pencil_equation() {
        let gx = Graph::from_edges(
            5,
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 1.0),
                (3, 4, 3.0),
                (4, 0, 1.0),
            ],
        )
        .unwrap();
        let gy = cycle_graph(5, 1.0);
        let lx = gx.laplacian();
        let ly = gy.laplacian();
        let r = generalized_eigen_dense(&lx, &ly, 2).unwrap();
        for j in 0..2 {
            let v = r.eigenvectors.column(j);
            // B-normalized: vᵀ L_Y v = 1.
            let lyv = ly.mul_vec(&v);
            assert!((vecops::dot(&v, &lyv) - 1.0).abs() < 1e-8);
            let lxv = lx.mul_vec(&v);
            let z = r.eigenvalues[j];
            let res: f64 = lxv
                .iter()
                .zip(&lyv)
                .map(|(a, b)| (a - z * b) * (a - z * b))
                .sum::<f64>()
                .sqrt();
            let scale = vecops::norm2(&lxv).max(1e-12);
            assert!(res / scale < 1e-8, "pencil residual {res}");
        }
    }

    #[test]
    fn dense_agrees_with_iterative_eigenvalues() {
        let gx = cycle_graph(8, 2.5);
        let gy = cycle_graph(8, 1.0);
        let solver = LaplacianSolver::new(&gy).unwrap();
        let iter = generalized_lanczos(&gx.laplacian(), &solver, 3, 60, 11).unwrap();
        let dense = generalized_eigen_dense(&gx.laplacian(), &gy.laplacian(), 3).unwrap();
        for (a, b) in iter.eigenvalues.iter().zip(&dense.eigenvalues) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }
}
