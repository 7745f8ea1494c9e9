//! Deflated solver for connected-graph Laplacian systems.

use std::sync::{Mutex, PoisonError};

use crate::{
    conjugate_gradient_block_into, conjugate_gradient_into, CgOptions, CsrOperator, SolverError,
    SolverWorkspace, TreePreconditioner,
};
use cirstag_graph::{Graph, GraphError};
use cirstag_linalg::vecops;
use cirstag_linalg::{CsrMatrix, DenseMatrix};

/// Solves `L x = b` for the Laplacian of a *connected* graph.
///
/// The Laplacian of a connected graph has a one-dimensional nullspace spanned
/// by the all-ones vector. This solver restricts the system to the orthogonal
/// complement: the right-hand side is centered (projected to mean zero) and a
/// low-stretch-tree preconditioned CG iteration ([`TreePreconditioner`]) runs
/// entirely inside the range of `L`, returning the mean-zero (minimum-norm)
/// solution. This realizes the pseudoinverse application `x = L⁺ b` used
/// throughout Phases 2–3.
///
/// The solver fails fast: a solve that exhausts its CG budget returns
/// [`SolverError::NoConvergence`]. Recovery belongs to the caller's stage
/// ladder (Phase 3's `phase3/geig` falls back to a dense pencil solve).
///
/// # Example
///
/// ```
/// use cirstag_graph::Graph;
/// use cirstag_solver::LaplacianSolver;
///
/// # fn main() -> Result<(), cirstag_solver::SolverError> {
/// // Two resistors of 1 Ω in series: R_eff(0, 2) = 2 Ω.
/// let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)])?;
/// let solver = LaplacianSolver::new(&g)?;
/// let r = solver.effective_resistance(0, 2)?;
/// assert!((r - 2.0).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct LaplacianSolver {
    laplacian: CsrMatrix,
    tree: TreePreconditioner,
    options: CgOptions,
    workspace: Mutex<SolverWorkspace>,
}

impl LaplacianSolver {
    /// Builds a tree-preconditioned solver for the Laplacian of `g` with
    /// default CG options.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::Graph`] wrapping
    /// [`GraphError::Disconnected`] when `g` is not connected (the nullspace
    /// deflation below assumes a single component).
    pub fn new(g: &Graph) -> Result<Self, SolverError> {
        Self::with_tree_preconditioner(g, CgOptions::default())
    }

    /// Builds a solver preconditioned by a low-stretch spanning tree
    /// ([`TreePreconditioner`]) — robust on graphs whose edge weights span
    /// many orders of magnitude, such as the kNN manifolds of Phase 2.
    ///
    /// # Errors
    ///
    /// Same as [`LaplacianSolver::new`].
    pub fn with_tree_preconditioner(g: &Graph, options: CgOptions) -> Result<Self, SolverError> {
        if !g.is_connected() {
            return Err(GraphError::Disconnected.into());
        }
        Ok(LaplacianSolver {
            laplacian: g.laplacian(),
            tree: TreePreconditioner::new(g, 0x7e3)?,
            options,
            workspace: Mutex::new(SolverWorkspace::new()),
        })
    }

    /// Checks the shared scratch workspace out of its mutex so a solve can
    /// run without holding the lock; pair with [`Self::return_workspace`].
    fn take_workspace(&self) -> SolverWorkspace {
        std::mem::take(
            &mut *self
                .workspace
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    fn return_workspace(&self, ws: SolverWorkspace) {
        self.workspace
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .absorb(ws);
    }

    /// Dimension of the system (number of graph nodes).
    #[inline]
    pub fn dim(&self) -> usize {
        self.laplacian.nrows()
    }

    /// Borrows the assembled Laplacian.
    #[inline]
    pub fn laplacian(&self) -> &CsrMatrix {
        &self.laplacian
    }

    /// Solves `L x = b`, returning the mean-zero solution.
    ///
    /// `b` is centered internally, so right-hand sides with a nonzero mean
    /// are interpreted as their projection onto the range of `L`.
    ///
    /// # Errors
    ///
    /// - [`SolverError::DimensionMismatch`] when `b.len() != self.dim()`.
    /// - [`SolverError::NoConvergence`] when CG exhausts its budget.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolverError> {
        let mut x = vec![0.0; self.dim()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `L x = b` into a caller-provided vector — the allocation-free
    /// form of [`LaplacianSolver::solve`] (steady-state solves reuse pooled
    /// scratch buffers once the internal workspace is warm).
    ///
    /// # Errors
    ///
    /// Same as [`LaplacianSolver::solve`], plus
    /// [`SolverError::DimensionMismatch`] when `x.len() != self.dim()`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), SolverError> {
        if b.len() != self.dim() {
            return Err(SolverError::DimensionMismatch {
                expected: self.dim(),
                actual: b.len(),
            });
        }
        if x.len() != self.dim() {
            return Err(SolverError::DimensionMismatch {
                expected: self.dim(),
                actual: x.len(),
            });
        }
        let mut ws = self.take_workspace();
        let mut rhs = ws.take(b.len());
        rhs.copy_from_slice(b);
        vecops::center(&mut rhs);
        let op = CsrOperator::new(&self.laplacian);
        let outcome = conjugate_gradient_into(&op, &rhs, &self.tree, self.options, x, &mut ws);
        ws.put(rhs);
        self.return_workspace(ws);
        let stats = outcome?;
        if !stats.converged {
            return Err(SolverError::NoConvergence {
                algorithm: "laplacian pcg",
                iterations: stats.iterations,
                residual: stats.residual_norm,
            });
        }
        // Round-off can leak a small component along the nullspace; remove
        // it so the result is exactly the pseudoinverse image.
        vecops::center(x);
        Ok(())
    }

    /// Solves `L X = B` for every column of `B` in lockstep through the
    /// block CG kernel, sharing one CSR traversal per iteration across all
    /// right-hand sides.
    ///
    /// Column `j` of the result is bit-identical to
    /// [`LaplacianSolver::solve`] on column `j` of `B`: every column is
    /// centered through the same contiguous `vecops::center`, and the block
    /// iteration advances each column with exactly the scalar update
    /// sequence.
    ///
    /// # Errors
    ///
    /// - [`SolverError::DimensionMismatch`] when `b.nrows() != self.dim()`.
    /// - [`SolverError::NoConvergence`] when any column exhausts its CG
    ///   budget; it reports the worst unconverged column's iterations and
    ///   residual.
    pub fn solve_block(&self, b: &DenseMatrix) -> Result<DenseMatrix, SolverError> {
        if b.nrows() != self.dim() {
            return Err(SolverError::DimensionMismatch {
                expected: self.dim(),
                actual: b.nrows(),
            });
        }
        let mut x = DenseMatrix::zeros(b.nrows(), b.ncols());
        if b.ncols() == 0 {
            return Ok(x);
        }
        let mut ws = self.take_workspace();
        let mut col = ws.take(b.nrows());
        let outcome = self.block_pcg_into(b, &mut x, &mut col, &mut ws);
        ws.put(col);
        self.return_workspace(ws);
        outcome.map(|()| x)
    }

    /// The body of [`LaplacianSolver::solve_block`] on checked-out scratch;
    /// `col` is one column long.
    fn block_pcg_into(
        &self,
        b: &DenseMatrix,
        x: &mut DenseMatrix,
        col: &mut [f64],
        ws: &mut SolverWorkspace,
    ) -> Result<(), SolverError> {
        let mut rhs = b.clone();
        center_columns(&mut rhs, col);
        let mut stats = Vec::with_capacity(b.ncols());
        let op = CsrOperator::new(&self.laplacian);
        conjugate_gradient_block_into(&op, &rhs, &self.tree, self.options, x, &mut stats, ws)?;
        if stats.iter().any(|st| !st.converged) {
            let (iterations, residual) = stats
                .iter()
                .filter(|st| !st.converged)
                .fold((0, 0.0_f64), |(it, res), st| {
                    (it.max(st.iterations), res.max(st.residual_norm))
                });
            return Err(SolverError::NoConvergence {
                algorithm: "laplacian block pcg",
                iterations,
                residual,
            });
        }
        center_columns(x, col);
        Ok(())
    }

    /// Effective resistance between nodes `p` and `q`:
    /// `R_eff(p, q) = (e_p − e_q)ᵀ L⁺ (e_p − e_q)`.
    ///
    /// # Errors
    ///
    /// - [`SolverError::InvalidArgument`] when `p` or `q` is out of bounds.
    /// - Propagates solve failures.
    pub fn effective_resistance(&self, p: usize, q: usize) -> Result<f64, SolverError> {
        let n = self.dim();
        if p >= n || q >= n {
            return Err(SolverError::InvalidArgument {
                reason: format!("node pair ({p}, {q}) out of bounds for {n} nodes"),
            });
        }
        if p == q {
            return Ok(0.0);
        }
        let mut b = vec![0.0; n];
        b[p] = 1.0;
        b[q] = -1.0;
        let x = self.solve(&b)?;
        Ok(x[p] - x[q])
    }
}

/// Centers every column of `m` through the contiguous-slice
/// `vecops::center` the scalar path uses, so each column rounds exactly as
/// [`LaplacianSolver::solve`] does. `col` is `m.nrows()` long scratch.
fn center_columns(m: &mut DenseMatrix, col: &mut [f64]) {
    for j in 0..m.ncols() {
        for (i, v) in col.iter_mut().enumerate() {
            *v = m.get(i, j);
        }
        vecops::center(col);
        for (i, v) in col.iter().enumerate() {
            m.set(i, j, *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_satisfies_system() {
        let g =
            Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (0, 3, 3.0)]).unwrap();
        let s = LaplacianSolver::new(&g).unwrap();
        let mut b = vec![1.0, -0.5, 2.0, -2.5];
        vecops::center(&mut b);
        let x = s.solve(&b).unwrap();
        let lx = s.laplacian().mul_vec(&x);
        for (a, c) in lx.iter().zip(&b) {
            assert!((a - c).abs() < 1e-7, "residual entry {}", (a - c).abs());
        }
        assert!(vecops::mean(&x).abs() < 1e-12);
    }

    #[test]
    fn series_resistors() {
        let g = Graph::from_edges(3, &[(0, 1, 2.0), (1, 2, 4.0)]).unwrap();
        let s = LaplacianSolver::new(&g).unwrap();
        // R = 1/2 + 1/4.
        assert!((s.effective_resistance(0, 2).unwrap() - 0.75).abs() < 1e-8);
    }

    #[test]
    fn parallel_resistors_via_cycle() {
        // Triangle of unit resistors: R_eff across one edge = 2/3.
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]).unwrap();
        let s = LaplacianSolver::new(&g).unwrap();
        assert!((s.effective_resistance(0, 1).unwrap() - 2.0 / 3.0).abs() < 1e-8);
    }

    #[test]
    fn resistance_is_symmetric_and_zero_on_diagonal() {
        let g =
            Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (3, 0, 1.5)]).unwrap();
        let s = LaplacianSolver::new(&g).unwrap();
        let r01 = s.effective_resistance(0, 1).unwrap();
        let r10 = s.effective_resistance(1, 0).unwrap();
        assert!((r01 - r10).abs() < 1e-9);
        assert_eq!(s.effective_resistance(2, 2).unwrap(), 0.0);
    }

    #[test]
    fn resistance_bounded_by_direct_edge() {
        // With an edge (p, q) present, R_eff ≤ 1/w.
        let g =
            Graph::from_edges(4, &[(0, 1, 2.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]).unwrap();
        let s = LaplacianSolver::new(&g).unwrap();
        assert!(s.effective_resistance(0, 1).unwrap() <= 0.5 + 1e-9);
    }

    #[test]
    fn disconnected_rejected() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        assert!(LaplacianSolver::new(&g).is_err());
        assert!(LaplacianSolver::with_tree_preconditioner(&g, CgOptions::default()).is_err());
    }

    #[test]
    fn bounds_checked() {
        let g = Graph::from_edges(2, &[(0, 1, 1.0)]).unwrap();
        let s = LaplacianSolver::new(&g).unwrap();
        assert!(s.effective_resistance(0, 5).is_err());
        assert!(s.solve(&[1.0]).is_err());
    }

    #[test]
    fn uncentered_rhs_is_projected() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let s = LaplacianSolver::new(&g).unwrap();
        // b with nonzero mean: solver should treat it as centered.
        let x = s.solve(&[2.0, 1.0, 1.0]).unwrap();
        let lx = s.laplacian().mul_vec(&x);
        let centered = [2.0 - 4.0 / 3.0, 1.0 - 4.0 / 3.0, 1.0 - 4.0 / 3.0];
        for (a, c) in lx.iter().zip(&centered) {
            assert!((a - c).abs() < 1e-8);
        }
    }

    #[test]
    fn non_escalating_solver_fails_fast() {
        // `max_iter: 0` leaves CG no budget, so the solve must return a
        // typed NoConvergence naming its kernel.
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]).unwrap();
        let opts = CgOptions {
            tol: 1e-10,
            max_iter: 0,
        };
        let s = LaplacianSolver::with_tree_preconditioner(&g, opts).unwrap();
        assert!(matches!(
            s.solve(&[1.0, -1.0, 0.0]),
            Err(SolverError::NoConvergence {
                algorithm: "laplacian pcg",
                ..
            })
        ));
    }

    #[test]
    fn solve_block_escalates_like_scalar_solves() {
        // The solver no longer escalates on its own: a failed CG solve is
        // handed to the pipeline's fallback ladder. The block path must
        // therefore fail exactly where the scalar path fails, and answer
        // every column where the scalar path succeeds.
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]).unwrap();
        let b = DenseMatrix::from_columns(&[vec![1.0, -1.0, 0.0], vec![0.5, 0.0, -0.5]]).unwrap();
        let starved = CgOptions {
            tol: 1e-10,
            max_iter: 0,
        };
        let s = LaplacianSolver::with_tree_preconditioner(&g, starved).unwrap();
        for j in 0..2 {
            let col: Vec<f64> = (0..3).map(|i| b.get(i, j)).collect();
            assert!(matches!(
                s.solve(&col),
                Err(SolverError::NoConvergence { .. })
            ));
        }
        assert!(matches!(
            s.solve_block(&b),
            Err(SolverError::NoConvergence {
                algorithm: "laplacian block pcg",
                ..
            })
        ));

        let s = LaplacianSolver::new(&g).unwrap();
        let x = s.solve_block(&b).unwrap();
        for j in 0..2 {
            let col: Vec<f64> = (0..3).map(|i| b.get(i, j)).collect();
            let lx = s
                .laplacian()
                .mul_vec(&(0..3).map(|i| x.get(i, j)).collect::<Vec<_>>());
            for (a, c) in lx.iter().zip(&col) {
                assert!((a - c).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn solve_into_matches_solve_bitwise() {
        let g =
            Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (0, 3, 3.0)]).unwrap();
        let s = LaplacianSolver::new(&g).unwrap();
        let b = [1.0, -0.5, 2.0, -2.5];
        let reference = s.solve(&b).unwrap();
        let mut x = vec![f64::NAN; 4];
        s.solve_into(&b, &mut x).unwrap();
        for (a, c) in x.iter().zip(&reference) {
            assert_eq!(a.to_bits(), c.to_bits());
        }
        let mut short = vec![0.0; 3];
        assert!(matches!(
            s.solve_into(&b, &mut short),
            Err(SolverError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn solve_block_columns_match_scalar_solves_bitwise() {
        let g = Graph::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 1.0),
                (3, 4, 0.5),
                (4, 5, 1.0),
                (5, 0, 3.0),
                (1, 4, 0.25),
            ],
        )
        .unwrap();
        // The default solver, and one with Phase 3's ranking-grade options.
        let pipeline_options = CgOptions {
            tol: 1e-6,
            max_iter: 10_000,
        };
        for build in [
            LaplacianSolver::new(&g).unwrap(),
            LaplacianSolver::with_tree_preconditioner(&g, pipeline_options).unwrap(),
        ] {
            let cols: Vec<Vec<f64>> = (0..3)
                .map(|j| (0..6).map(|i| ((i * 5 + j * 3) % 7) as f64 - 3.0).collect())
                .collect();
            let b = DenseMatrix::from_columns(&cols).unwrap();
            let block = build.solve_block(&b).unwrap();
            for (j, col) in cols.iter().enumerate() {
                let scalar = build.solve(col).unwrap();
                for i in 0..6 {
                    assert_eq!(
                        block.get(i, j).to_bits(),
                        scalar[i].to_bits(),
                        "col {j}, row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn solve_block_checks_shape_and_handles_empty_panel() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let s = LaplacianSolver::new(&g).unwrap();
        assert!(matches!(
            s.solve_block(&DenseMatrix::zeros(2, 1)),
            Err(SolverError::DimensionMismatch { .. })
        ));
        let empty = s.solve_block(&DenseMatrix::zeros(3, 0)).unwrap();
        assert_eq!(empty.shape(), (3, 0));
    }
}
