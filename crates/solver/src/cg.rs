//! (Preconditioned) conjugate gradient for sparse SPD systems, in scalar and
//! blocked multi-right-hand-side form.

use crate::workspace::SolverWorkspace;
use crate::{LinearOperator, PanelOperator, SolverError};
use cirstag_linalg::vecops;
use cirstag_linalg::{CsrMatrix, DenseMatrix};

/// A preconditioner: applies `z = M⁻¹ r` for some SPD approximation `M ≈ A`.
pub trait Preconditioner {
    /// Computes `z ← M⁻¹ r`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] when `r` or `z` does not
    /// match the preconditioner's dimension.
    fn apply(&self, r: &[f64], z: &mut [f64]) -> Result<(), SolverError>;

    /// Computes `z ← M⁻¹ r` column-wise over row-major `ncols`-wide panels
    /// (`r[i * ncols + j]` is entry `(i, j)`).
    ///
    /// Column `j` of the result must be bit-identical to `apply` on column
    /// `j` alone — the block solver's equivalence to per-vector CG rests on
    /// that contract.
    ///
    /// The scalar CG loop applies its preconditioner through this method
    /// with `ncols == 1` on every iteration, so that case must run a scalar
    /// kernel (`apply`, or an allocation-free equivalent drawing its scratch
    /// from `ws`), never the panel kernel. A `k`-wide sweep over one-element
    /// rows pays its per-row slicing and scratch set-up on every entry: on a
    /// 3,828-node Laplacian the tree preconditioner's panel sweep at `k = 1`
    /// took about four times as long as its scalar sweep, which made
    /// tree-preconditioned CG iterations nearly twice as slow.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] when the panel lengths
    /// disagree or are not multiples of `ncols`, and any error of
    /// [`Preconditioner::apply`].
    fn apply_panel(
        &self,
        r: &[f64],
        z: &mut [f64],
        ncols: usize,
        ws: &mut SolverWorkspace,
    ) -> Result<(), SolverError>;
}

/// The identity preconditioner (plain CG).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPreconditioner;

impl Preconditioner for IdentityPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) -> Result<(), SolverError> {
        if r.len() != z.len() {
            return Err(SolverError::DimensionMismatch {
                expected: z.len(),
                actual: r.len(),
            });
        }
        z.copy_from_slice(r);
        Ok(())
    }

    fn apply_panel(
        &self,
        r: &[f64],
        z: &mut [f64],
        _ncols: usize,
        _ws: &mut SolverWorkspace,
    ) -> Result<(), SolverError> {
        self.apply(r, z)
    }
}

/// Diagonal (Jacobi) preconditioner `M = diag(A)`.
///
/// Cheap and effective for diagonally dominant systems such as graph
/// Laplacians with a diagonal shift.
#[derive(Debug, Clone)]
pub struct JacobiPreconditioner {
    inv_diag: Vec<f64>,
    clamped: usize,
}

impl JacobiPreconditioner {
    /// Builds the preconditioner from a matrix's diagonal. Zero (or negative)
    /// diagonal entries are clamped to `1.0` so the preconditioner stays SPD;
    /// the number of clamped entries is reported by
    /// [`JacobiPreconditioner::clamped_entries`] so callers can surface the
    /// ill-conditioning instead of masking it.
    pub fn from_matrix(a: &CsrMatrix) -> Self {
        Self::from_diagonal(&a.diagonal())
    }

    /// Builds the preconditioner from an explicit diagonal. Non-positive (or
    /// non-finite) entries are clamped to `1.0` and counted.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let mut clamped = 0usize;
        let inv_diag = diag
            .iter()
            .map(|&d| {
                if d > 0.0 && d.is_finite() {
                    1.0 / d
                } else {
                    clamped += 1;
                    1.0
                }
            })
            .collect();
        JacobiPreconditioner { inv_diag, clamped }
    }

    /// How many diagonal entries were non-positive (or non-finite) and had
    /// to be clamped to `1.0` at construction. A nonzero count signals an
    /// ill-conditioned or non-SPD system that Jacobi can only partially
    /// precondition.
    #[inline]
    pub fn clamped_entries(&self) -> usize {
        self.clamped
    }
}

impl Preconditioner for JacobiPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) -> Result<(), SolverError> {
        if r.len() != self.inv_diag.len() || z.len() != self.inv_diag.len() {
            return Err(SolverError::DimensionMismatch {
                expected: self.inv_diag.len(),
                actual: r.len().max(z.len()),
            });
        }
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
        Ok(())
    }

    fn apply_panel(
        &self,
        r: &[f64],
        z: &mut [f64],
        ncols: usize,
        _ws: &mut SolverWorkspace,
    ) -> Result<(), SolverError> {
        if ncols == 1 {
            return self.apply(r, z);
        }
        let n = self.inv_diag.len();
        if r.len() != n * ncols || z.len() != n * ncols {
            return Err(SolverError::DimensionMismatch {
                expected: n * ncols,
                actual: r.len().max(z.len()),
            });
        }
        if ncols == 0 {
            return Ok(());
        }
        for ((zr, rr), di) in z
            .chunks_exact_mut(ncols)
            .zip(r.chunks_exact(ncols))
            .zip(&self.inv_diag)
        {
            for (zi, &ri) in zr.iter_mut().zip(rr) {
                *zi = ri * di;
            }
        }
        Ok(())
    }
}

/// Options controlling a conjugate-gradient run.
#[derive(Debug, Clone, Copy)]
pub struct CgOptions {
    /// Relative residual tolerance: stop when `‖r‖ ≤ tol · ‖b‖`.
    pub tol: f64,
    /// Maximum number of iterations.
    pub max_iter: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            tol: 1e-10,
            max_iter: 2000,
        }
    }
}

/// Outcome of a conjugate-gradient run.
#[derive(Debug, Clone)]
pub struct CgResult {
    /// The (approximate) solution.
    pub x: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final residual norm `‖b − A x‖`.
    pub residual_norm: f64,
    /// Whether the tolerance was reached.
    pub converged: bool,
}

/// Per-system outcome of a CG run, without the solution vector.
///
/// The `_into` solver entry points write the solution into caller-provided
/// storage and report this summary; for a block solve there is one per
/// right-hand-side column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgStats {
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final residual norm `‖b − A x‖`.
    pub residual_norm: f64,
    /// Whether the tolerance was reached.
    pub converged: bool,
}

/// Solves `A x = b` for a symmetric positive (semi)definite operator with
/// preconditioned conjugate gradient.
///
/// For *singular consistent* systems (graph Laplacians with `b ⊥ 1`), CG
/// converges to the minimum-norm solution provided the initial guess and
/// right-hand side lie in the range; [`crate::LaplacianSolver`] handles that
/// projection.
///
/// The returned result reports `converged = false` instead of erroring when
/// the budget is exhausted, exposing the best iterate found
/// (C-INTERMEDIATE); callers that require convergence should check the flag.
///
/// # Errors
///
/// - [`SolverError::DimensionMismatch`] when `b.len() != a.dim()`.
/// - [`SolverError::InvalidArgument`] when `b` contains non-finite values or
///   options are out of range.
pub fn conjugate_gradient<A, M>(
    a: &A,
    b: &[f64],
    preconditioner: &M,
    options: CgOptions,
) -> Result<CgResult, SolverError>
where
    A: LinearOperator + ?Sized,
    M: Preconditioner + ?Sized,
{
    let mut ws = SolverWorkspace::new();
    let mut x = vec![0.0; a.dim()];
    let stats = conjugate_gradient_into(a, b, preconditioner, options, &mut x, &mut ws)?;
    Ok(CgResult {
        x,
        iterations: stats.iterations,
        residual_norm: stats.residual_norm,
        converged: stats.converged,
    })
}

/// Workspace-backed form of [`conjugate_gradient`]: writes the solution into
/// `x` and draws every scratch vector from `ws`, so a warmed workspace makes
/// repeated solves (and every iteration within one) allocation-free.
///
/// Produces bit-identical results to [`conjugate_gradient`] — the allocating
/// form is a thin wrapper over this one.
///
/// # Errors
///
/// Same as [`conjugate_gradient`], plus
/// [`SolverError::DimensionMismatch`] when `x.len() != a.dim()`.
pub fn conjugate_gradient_into<A, M>(
    a: &A,
    b: &[f64],
    preconditioner: &M,
    options: CgOptions,
    x: &mut [f64],
    ws: &mut SolverWorkspace,
) -> Result<CgStats, SolverError>
where
    A: LinearOperator + ?Sized,
    M: Preconditioner + ?Sized,
{
    let n = a.dim();
    if b.len() != n {
        return Err(SolverError::DimensionMismatch {
            expected: n,
            actual: b.len(),
        });
    }
    if x.len() != n {
        return Err(SolverError::DimensionMismatch {
            expected: n,
            actual: x.len(),
        });
    }
    if !vecops::all_finite(b) {
        return Err(SolverError::InvalidArgument {
            reason: "right-hand side contains non-finite values".to_string(),
        });
    }
    if !(options.tol > 0.0 && options.tol.is_finite()) {
        return Err(SolverError::InvalidArgument {
            reason: format!("tolerance {} must be positive and finite", options.tol),
        });
    }
    let b_norm = vecops::norm2(b);
    // Failpoint: force "CG exhausted its budget" so tests can drive the
    // Phase-2 and Phase-3 stage ladders above this solver deterministically.
    if cirstag_linalg::fail::trigger("solver/cg").is_some() {
        x.fill(0.0);
        return Ok(CgStats {
            iterations: 0,
            residual_norm: b_norm,
            converged: false,
        });
    }
    // cirstag-lint: allow(float-discipline) -- exact-zero RHS short-circuit: any nonzero norm proceeds to iterate
    if b_norm == 0.0 {
        x.fill(0.0);
        return Ok(CgStats {
            iterations: 0,
            residual_norm: 0.0,
            converged: true,
        });
    }
    let threshold = options.tol * b_norm;

    x.fill(0.0);
    let mut r = ws.take(n);
    r.copy_from_slice(b);
    let mut z = ws.take(n);
    let mut p = ws.take(n);
    let mut ap = ws.take(n);
    let out = scalar_cg_core(
        a,
        preconditioner,
        options,
        threshold,
        x,
        &mut r,
        &mut z,
        &mut p,
        &mut ap,
        ws,
    );
    ws.put(ap);
    ws.put(p);
    ws.put(z);
    ws.put(r);
    out
}

/// The scalar PCG loop, split out so the caller can return scratch buffers
/// to the workspace on every exit path. Must mirror the historical
/// `conjugate_gradient` loop operation-for-operation: the block solver's
/// bit-identity tests compare against it.
#[allow(clippy::too_many_arguments)]
fn scalar_cg_core<A, M>(
    a: &A,
    preconditioner: &M,
    options: CgOptions,
    threshold: f64,
    x: &mut [f64],
    r: &mut [f64],
    z: &mut [f64],
    p: &mut [f64],
    ap: &mut [f64],
    ws: &mut SolverWorkspace,
) -> Result<CgStats, SolverError>
where
    A: LinearOperator + ?Sized,
    M: Preconditioner + ?Sized,
{
    preconditioner.apply_panel(r, z, 1, ws)?;
    p.copy_from_slice(z);
    let mut rz = vecops::dot(r, z);

    let mut iterations = 0;
    let mut residual_norm = vecops::norm2(r);
    while iterations < options.max_iter && residual_norm > threshold {
        a.apply(p, ap)?;
        let pap = vecops::dot(p, ap);
        if pap <= 0.0 || !pap.is_finite() {
            // Breakdown: the operator is not SPD on this subspace. Return the
            // best iterate with converged = false.
            break;
        }
        let alpha = rz / pap;
        vecops::axpy(alpha, p, x);
        vecops::axpy(-alpha, ap, r);
        residual_norm = vecops::norm2(r);
        iterations += 1;
        if residual_norm <= threshold {
            break;
        }
        preconditioner.apply_panel(r, z, 1, ws)?;
        let rz_new = vecops::dot(r, z);
        let beta = rz_new / rz;
        rz = rz_new;
        for (pi, zi) in p.iter_mut().zip(z.iter()) {
            *pi = zi + beta * *pi;
        }
    }

    Ok(CgStats {
        converged: residual_norm <= threshold,
        iterations,
        residual_norm,
    })
}

/// Scratch owned by one block-CG run: four `n × k` panels plus the
/// per-column control state, all checked out of (and returned to) the
/// workspace so steady-state rounds never allocate.
struct BlockBuffers {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    b_norm: Vec<f64>,
    threshold: Vec<f64>,
    rz: Vec<f64>,
    rz_new: Vec<f64>,
    pap: Vec<f64>,
    alpha: Vec<f64>,
    beta: Vec<f64>,
    resid: Vec<f64>,
    iters: Vec<usize>,
    active: Vec<usize>,
}

impl BlockBuffers {
    fn take(ws: &mut SolverWorkspace, n: usize, k: usize) -> Self {
        BlockBuffers {
            r: ws.take(n * k),
            z: ws.take(n * k),
            p: ws.take(n * k),
            ap: ws.take(n * k),
            b_norm: ws.take(k),
            threshold: ws.take(k),
            rz: ws.take(k),
            rz_new: ws.take(k),
            pap: ws.take(k),
            alpha: ws.take(k),
            beta: ws.take(k),
            resid: ws.take(k),
            iters: ws.take_indices(k),
            active: ws.take_indices(k),
        }
    }

    fn put(self, ws: &mut SolverWorkspace) {
        ws.put_indices(self.active);
        ws.put_indices(self.iters);
        ws.put(self.resid);
        ws.put(self.beta);
        ws.put(self.alpha);
        ws.put(self.pap);
        ws.put(self.rz_new);
        ws.put(self.rz);
        ws.put(self.threshold);
        ws.put(self.b_norm);
        ws.put(self.ap);
        ws.put(self.p);
        ws.put(self.z);
        ws.put(self.r);
    }
}

/// Per-column sum of squares of a row-major `k`-wide panel.
fn col_sumsq(panel: &[f64], k: usize, out: &mut [f64]) {
    out.fill(0.0);
    for row in panel.chunks_exact(k) {
        for (o, &v) in out.iter_mut().zip(row) {
            *o += v * v;
        }
    }
}

/// Per-column dot products of two row-major `k`-wide panels.
///
/// Accumulates over rows in ascending order, exactly like [`vecops::dot`]
/// over a single gathered column — the bit-identity anchor for the block
/// solver's reductions at any panel width.
fn col_dots(a: &[f64], b: &[f64], k: usize, out: &mut [f64]) {
    out.fill(0.0);
    for (ra, rb) in a.chunks_exact(k).zip(b.chunks_exact(k)) {
        for ((o, &x), &y) in out.iter_mut().zip(ra).zip(rb) {
            *o += x * y;
        }
    }
}

/// `y[·,j] += alpha[j] * x[·,j]` for the columns with `active[j] == 1`.
///
/// Frozen columns are skipped rather than multiplied by zero: `v + 0.0 * w`
/// is *not* a bitwise no-op (it rewrites `-0.0` and propagates non-finite
/// `w`), and converged columns must come back bit-identical to a scalar
/// solve that stopped at the same iteration.
fn panel_axpy_masked(alpha: &[f64], active: &[usize], x: &[f64], y: &mut [f64], k: usize) {
    if active.iter().all(|&a| a == 1) {
        // All columns live (the common early rounds): drop the per-element
        // mask test so the loop vectorizes. Arithmetic is unchanged.
        for (xr, yr) in x.chunks_exact(k).zip(y.chunks_exact_mut(k)) {
            for ((yj, &xj), &aj) in yr.iter_mut().zip(xr).zip(alpha) {
                *yj += aj * xj;
            }
        }
        return;
    }
    for (xr, yr) in x.chunks_exact(k).zip(y.chunks_exact_mut(k)) {
        for j in 0..k {
            if active[j] == 1 {
                yr[j] += alpha[j] * xr[j];
            }
        }
    }
}

/// `y[·,j] -= alpha[j] * x[·,j]` for active columns (see
/// [`panel_axpy_masked`] for why frozen columns are skipped). Matches the
/// scalar `axpy(-alpha, ..)` bitwise: negating the multiplier and negating
/// the product round identically.
fn panel_axmy_masked(alpha: &[f64], active: &[usize], x: &[f64], y: &mut [f64], k: usize) {
    if active.iter().all(|&a| a == 1) {
        for (xr, yr) in x.chunks_exact(k).zip(y.chunks_exact_mut(k)) {
            for ((yj, &xj), &aj) in yr.iter_mut().zip(xr).zip(alpha) {
                *yj -= aj * xj;
            }
        }
        return;
    }
    for (xr, yr) in x.chunks_exact(k).zip(y.chunks_exact_mut(k)) {
        for j in 0..k {
            if active[j] == 1 {
                yr[j] -= alpha[j] * xr[j];
            }
        }
    }
}

/// `p[·,j] = z[·,j] + beta[j] * p[·,j]` for active columns.
fn panel_direction_update(beta: &[f64], active: &[usize], z: &[f64], p: &mut [f64], k: usize) {
    if active.iter().all(|&a| a == 1) {
        for (zr, pr) in z.chunks_exact(k).zip(p.chunks_exact_mut(k)) {
            for ((pj, &zj), &bj) in pr.iter_mut().zip(zr).zip(beta) {
                *pj = zj + bj * *pj;
            }
        }
        return;
    }
    for (zr, pr) in z.chunks_exact(k).zip(p.chunks_exact_mut(k)) {
        for j in 0..k {
            if active[j] == 1 {
                pr[j] = zr[j] + beta[j] * pr[j];
            }
        }
    }
}

/// Block conjugate gradient: solves `A X = B` for all columns of `B` in
/// lockstep, advancing every right-hand side off a single operator panel
/// application per round.
///
/// Column `j` of the result is bit-identical to
/// [`conjugate_gradient_into`] on column `j` alone: the per-column
/// reductions accumulate in the same order as [`vecops::dot`], converged or
/// broken-down columns are frozen (skipped, not zero-multiplied), and the
/// residual recomputation for frozen columns reproduces the same bits. That
/// invariance also makes the result independent of how right-hand sides are
/// partitioned into panels and of the thread count.
///
/// `stats` is cleared and refilled with one [`CgStats`] per column. A column
/// that breaks down or exhausts the budget reports `converged = false`
/// without disturbing the other columns.
///
/// # Errors
///
/// Same as [`conjugate_gradient`], plus
/// [`SolverError::DimensionMismatch`] when `b` is not `a.dim()` rows or `x`
/// is not the same shape as `b`.
pub fn conjugate_gradient_block_into<A, M>(
    a: &A,
    b: &DenseMatrix,
    preconditioner: &M,
    options: CgOptions,
    x: &mut DenseMatrix,
    stats: &mut Vec<CgStats>,
    ws: &mut SolverWorkspace,
) -> Result<(), SolverError>
where
    A: PanelOperator + ?Sized,
    M: Preconditioner + ?Sized,
{
    let n = a.dim();
    if b.nrows() != n {
        return Err(SolverError::DimensionMismatch {
            expected: n,
            actual: b.nrows(),
        });
    }
    if x.shape() != b.shape() {
        return Err(SolverError::DimensionMismatch {
            expected: n * b.ncols(),
            actual: x.nrows() * x.ncols(),
        });
    }
    if !vecops::all_finite(b.as_slice()) {
        return Err(SolverError::InvalidArgument {
            reason: "right-hand side contains non-finite values".to_string(),
        });
    }
    if !(options.tol > 0.0 && options.tol.is_finite()) {
        return Err(SolverError::InvalidArgument {
            reason: format!("tolerance {} must be positive and finite", options.tol),
        });
    }
    stats.clear();
    let k = b.ncols();
    if k == 0 {
        return Ok(());
    }
    let mut bufs = BlockBuffers::take(ws, n, k);
    let out = block_cg_core(a, b, preconditioner, options, x, stats, &mut bufs, ws);
    bufs.put(ws);
    out
}

#[allow(clippy::too_many_arguments)]
fn block_cg_core<A, M>(
    a: &A,
    b: &DenseMatrix,
    preconditioner: &M,
    options: CgOptions,
    x: &mut DenseMatrix,
    stats: &mut Vec<CgStats>,
    bufs: &mut BlockBuffers,
    ws: &mut SolverWorkspace,
) -> Result<(), SolverError>
where
    A: PanelOperator + ?Sized,
    M: Preconditioner + ?Sized,
{
    let k = b.ncols();
    x.as_mut_slice().fill(0.0);
    col_sumsq(b.as_slice(), k, &mut bufs.pap);
    for (bn, &sq) in bufs.b_norm.iter_mut().zip(bufs.pap.iter()) {
        *bn = sq.sqrt();
    }
    for (th, &bn) in bufs.threshold.iter_mut().zip(bufs.b_norm.iter()) {
        *th = options.tol * bn;
    }
    // Failpoint parity with the scalar path: every column reports an
    // exhausted budget.
    if cirstag_linalg::fail::trigger("solver/cg").is_some() {
        for j in 0..k {
            stats.push(CgStats {
                iterations: 0,
                residual_norm: bufs.b_norm[j],
                converged: false,
            });
        }
        return Ok(());
    }
    let mut active_count = 0usize;
    for j in 0..k {
        bufs.resid[j] = bufs.b_norm[j];
        bufs.iters[j] = 0;
        // A column starts active exactly when the scalar loop would enter
        // its first iteration (nonzero rhs above tolerance, budget > 0).
        bufs.active[j] = if bufs.resid[j] > bufs.threshold[j] && options.max_iter > 0 {
            1
        } else {
            0
        };
        active_count += bufs.active[j];
    }

    bufs.r.copy_from_slice(b.as_slice());
    preconditioner.apply_panel(&bufs.r, &mut bufs.z, k, ws)?;
    bufs.p.copy_from_slice(&bufs.z);
    col_dots(&bufs.r, &bufs.z, k, &mut bufs.rz);

    while active_count > 0 {
        a.apply_panel(&bufs.p, &mut bufs.ap, k)?;
        col_dots(&bufs.p, &bufs.ap, k, &mut bufs.pap);
        for j in 0..k {
            if bufs.active[j] == 1 && (bufs.pap[j] <= 0.0 || !bufs.pap[j].is_finite()) {
                // Breakdown on this column only: freeze it at the current
                // (best) iterate, exactly where the scalar loop would break.
                bufs.active[j] = 0;
                active_count -= 1;
            }
            bufs.alpha[j] = if bufs.active[j] == 1 {
                bufs.rz[j] / bufs.pap[j]
            } else {
                0.0
            };
        }
        panel_axpy_masked(&bufs.alpha, &bufs.active, &bufs.p, x.as_mut_slice(), k);
        panel_axmy_masked(&bufs.alpha, &bufs.active, &bufs.ap, &mut bufs.r, k);
        // Residuals are recomputed for every column; frozen columns have an
        // unchanged `r`, so they reproduce the same bits round after round.
        col_sumsq(&bufs.r, k, &mut bufs.rz_new);
        for (res, &sq) in bufs.resid.iter_mut().zip(bufs.rz_new.iter()) {
            *res = sq.sqrt();
        }
        for j in 0..k {
            if bufs.active[j] == 1 {
                bufs.iters[j] += 1;
                if bufs.resid[j] <= bufs.threshold[j] || bufs.iters[j] >= options.max_iter {
                    bufs.active[j] = 0;
                    active_count -= 1;
                }
            }
        }
        if active_count == 0 {
            break;
        }
        preconditioner.apply_panel(&bufs.r, &mut bufs.z, k, ws)?;
        col_dots(&bufs.r, &bufs.z, k, &mut bufs.rz_new);
        for j in 0..k {
            if bufs.active[j] == 1 {
                bufs.beta[j] = bufs.rz_new[j] / bufs.rz[j];
                bufs.rz[j] = bufs.rz_new[j];
            }
        }
        panel_direction_update(&bufs.beta, &bufs.active, &bufs.z, &mut bufs.p, k);
    }

    for j in 0..k {
        stats.push(CgStats {
            iterations: bufs.iters[j],
            residual_norm: bufs.resid[j],
            converged: bufs.resid[j] <= bufs.threshold[j],
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrOperator;

    fn spd_matrix() -> CsrMatrix {
        // Diagonally dominant symmetric matrix.
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 4.0),
                (1, 1, 5.0),
                (2, 2, 6.0),
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, 2.0),
                (2, 1, 2.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn solves_spd_system() {
        let m = spd_matrix();
        let op = CsrOperator::new(&m);
        let x_true = [1.0, -2.0, 3.0];
        let b = m.mul_vec(&x_true);
        let res =
            conjugate_gradient(&op, &b, &IdentityPreconditioner, CgOptions::default()).unwrap();
        assert!(res.converged);
        for (xi, ti) in res.x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-8);
        }
    }

    #[test]
    fn jacobi_reduces_iterations_on_ill_scaled_system() {
        // Badly scaled diagonal system: Jacobi solves it essentially exactly.
        let diag: Vec<f64> = (1..=50).map(|i| (i * i) as f64).collect();
        let m = CsrMatrix::from_diagonal(&diag);
        let op = CsrOperator::new(&m);
        let b = vec![1.0; 50];
        let plain =
            conjugate_gradient(&op, &b, &IdentityPreconditioner, CgOptions::default()).unwrap();
        let pre = JacobiPreconditioner::from_matrix(&m);
        let jac = conjugate_gradient(&op, &b, &pre, CgOptions::default()).unwrap();
        assert!(jac.converged);
        assert!(jac.iterations <= plain.iterations);
        assert!(jac.iterations <= 2);
    }

    #[test]
    fn jacobi_counts_clamped_entries() {
        let pre = JacobiPreconditioner::from_diagonal(&[2.0, 0.0, -1.0, f64::NAN, 4.0]);
        assert_eq!(pre.clamped_entries(), 3);
        let ok = JacobiPreconditioner::from_diagonal(&[1.0, 2.0]);
        assert_eq!(ok.clamped_entries(), 0);
    }

    #[test]
    fn preconditioner_dimension_mismatch_is_error() {
        let pre = JacobiPreconditioner::from_diagonal(&[1.0, 2.0]);
        let mut z = vec![0.0; 3];
        assert!(pre.apply(&[1.0, 2.0, 3.0], &mut z).is_err());
        let mut z2 = vec![0.0; 2];
        assert!(pre.apply(&[1.0, 2.0], &mut z2).is_ok());
        assert!(IdentityPreconditioner.apply(&[1.0], &mut z).is_err());
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let m = spd_matrix();
        let op = CsrOperator::new(&m);
        let res = conjugate_gradient(
            &op,
            &[0.0; 3],
            &IdentityPreconditioner,
            CgOptions::default(),
        )
        .unwrap();
        assert!(res.converged);
        assert_eq!(res.x, vec![0.0; 3]);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let m = spd_matrix();
        let op = CsrOperator::new(&m);
        assert!(matches!(
            conjugate_gradient(
                &op,
                &[1.0; 5],
                &IdentityPreconditioner,
                CgOptions::default()
            ),
            Err(SolverError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn non_finite_rhs_rejected() {
        let m = spd_matrix();
        let op = CsrOperator::new(&m);
        assert!(conjugate_gradient(
            &op,
            &[1.0, f64::NAN, 0.0],
            &IdentityPreconditioner,
            CgOptions::default()
        )
        .is_err());
    }

    #[test]
    fn budget_exhaustion_reports_not_converged() {
        let m = spd_matrix();
        let op = CsrOperator::new(&m);
        let res = conjugate_gradient(
            &op,
            &[1.0, 2.0, 3.0],
            &IdentityPreconditioner,
            CgOptions {
                tol: 1e-30,
                max_iter: 1,
            },
        )
        .unwrap();
        assert!(!res.converged);
        assert_eq!(res.iterations, 1);
        assert!(res.residual_norm.is_finite());
    }

    #[test]
    fn cg_into_matches_allocating_form_bitwise() {
        let m = spd_matrix();
        let op = CsrOperator::new(&m);
        let b = [1.0, -2.0, 3.0];
        let reference =
            conjugate_gradient(&op, &b, &IdentityPreconditioner, CgOptions::default()).unwrap();
        let mut ws = SolverWorkspace::new();
        let mut x = vec![0.0; 3];
        let stats = conjugate_gradient_into(
            &op,
            &b,
            &IdentityPreconditioner,
            CgOptions::default(),
            &mut x,
            &mut ws,
        )
        .unwrap();
        assert_eq!(stats.iterations, reference.iterations);
        assert_eq!(stats.converged, reference.converged);
        assert_eq!(
            stats.residual_norm.to_bits(),
            reference.residual_norm.to_bits()
        );
        for (a, b) in x.iter().zip(&reference.x) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Second solve with the warmed workspace: no new pool misses.
        let misses = ws.misses();
        conjugate_gradient_into(
            &op,
            &b,
            &IdentityPreconditioner,
            CgOptions::default(),
            &mut x,
            &mut ws,
        )
        .unwrap();
        assert_eq!(ws.misses(), misses);
    }

    fn laplacian_like() -> CsrMatrix {
        // SPD system large enough for CG to take several iterations.
        let n = 24;
        let mut trips = Vec::new();
        for i in 0..n {
            trips.push((i, i, 4.0 + (i % 3) as f64));
            if i + 1 < n {
                trips.push((i, i + 1, -1.0));
                trips.push((i + 1, i, -1.0));
            }
            if i + 5 < n {
                trips.push((i, i + 5, -0.5));
                trips.push((i + 5, i, -0.5));
            }
        }
        CsrMatrix::from_triplets(n, n, &trips).unwrap()
    }

    /// Block CG into freshly allocated storage: the solution panel and the
    /// per-column stats.
    fn solve_block<M: Preconditioner + ?Sized>(
        op: &CsrOperator<'_>,
        b: &DenseMatrix,
        pre: &M,
        options: CgOptions,
        ws: &mut SolverWorkspace,
    ) -> Result<(DenseMatrix, Vec<CgStats>), SolverError> {
        let mut x = DenseMatrix::zeros(b.nrows(), b.ncols());
        let mut stats = Vec::new();
        conjugate_gradient_block_into(op, b, pre, options, &mut x, &mut stats, ws)?;
        Ok((x, stats))
    }

    #[test]
    fn block_cg_columns_are_bit_identical_to_scalar_cg() {
        let m = laplacian_like();
        let n = m.nrows();
        let op = CsrOperator::new(&m);
        let pre = JacobiPreconditioner::from_matrix(&m);
        let k = 5;
        let mut cols = Vec::new();
        for j in 0..k {
            cols.push(
                (0..n)
                    .map(|i| ((i * 7 + j * 13) % 11) as f64 - 5.0)
                    .collect::<Vec<f64>>(),
            );
        }
        // Include a zero column and a trivially-converged column.
        cols[3].iter_mut().for_each(|v| *v = 0.0);
        let b = DenseMatrix::from_columns(&cols).unwrap();
        let opts = CgOptions {
            tol: 1e-10,
            max_iter: 200,
        };
        let mut ws = SolverWorkspace::new();
        let (x, columns) = solve_block(&op, &b, &pre, opts, &mut ws).unwrap();
        assert_eq!(columns.len(), k);
        for (j, col) in cols.iter().enumerate() {
            let scalar = conjugate_gradient(&op, col, &pre, opts).unwrap();
            assert_eq!(columns[j].iterations, scalar.iterations, "col {j}");
            assert_eq!(columns[j].converged, scalar.converged, "col {j}");
            assert_eq!(
                columns[j].residual_norm.to_bits(),
                scalar.residual_norm.to_bits(),
                "col {j}"
            );
            for i in 0..n {
                assert_eq!(
                    x.get(i, j).to_bits(),
                    scalar.x[i].to_bits(),
                    "col {j}, row {i}"
                );
            }
        }
        // Partitioning invariance: solving a sub-panel gives the same columns.
        let sub = DenseMatrix::from_columns(&cols[1..3]).unwrap();
        let (sub_x, _) = solve_block(&op, &sub, &pre, opts, &mut ws).unwrap();
        for (jj, j) in (1..3).enumerate() {
            for i in 0..n {
                assert_eq!(sub_x.get(i, jj).to_bits(), x.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn block_cg_budget_masking_freezes_columns_independently() {
        let m = laplacian_like();
        let n = m.nrows();
        let op = CsrOperator::new(&m);
        let pre = JacobiPreconditioner::from_matrix(&m);
        // An easy column next to a budget-starved tolerance: with a tiny
        // max_iter the hard tolerance columns stop unconverged while the
        // zero column converges instantly.
        let hard: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let zero = vec![0.0; n];
        let b = DenseMatrix::from_columns(&[hard.clone(), zero]).unwrap();
        let opts = CgOptions {
            tol: 1e-14,
            max_iter: 2,
        };
        let (x, columns) = solve_block(&op, &b, &pre, opts, &mut SolverWorkspace::new()).unwrap();
        assert!(!columns[0].converged);
        assert_eq!(columns[0].iterations, 2);
        assert!(columns[1].converged);
        assert_eq!(columns[1].iterations, 0);
        // The starved column still matches its scalar twin bitwise.
        let scalar = conjugate_gradient(&op, &hard, &pre, opts).unwrap();
        for i in 0..n {
            assert_eq!(x.get(i, 0).to_bits(), scalar.x[i].to_bits());
        }
    }

    #[test]
    fn block_cg_rejects_bad_shapes() {
        let m = spd_matrix();
        let op = CsrOperator::new(&m);
        let b = DenseMatrix::zeros(4, 2);
        let opts = CgOptions::default();
        let mut ws = SolverWorkspace::new();
        assert!(matches!(
            solve_block(&op, &b, &IdentityPreconditioner, opts, &mut ws),
            Err(SolverError::DimensionMismatch { .. })
        ));
        let good_b = DenseMatrix::zeros(3, 2);
        let mut bad_x = DenseMatrix::zeros(3, 1);
        let mut stats = Vec::new();
        assert!(matches!(
            conjugate_gradient_block_into(
                &op,
                &good_b,
                &IdentityPreconditioner,
                opts,
                &mut bad_x,
                &mut stats,
                &mut ws
            ),
            Err(SolverError::DimensionMismatch { .. })
        ));
        // Empty panel is a no-op.
        let empty = DenseMatrix::zeros(3, 0);
        let (_, columns) =
            solve_block(&op, &empty, &IdentityPreconditioner, opts, &mut ws).unwrap();
        assert!(columns.is_empty());
    }

    #[test]
    fn exact_in_n_iterations() {
        // CG converges in at most n steps in exact arithmetic.
        let m = spd_matrix();
        let op = CsrOperator::new(&m);
        let res = conjugate_gradient(
            &op,
            &[1.0, 1.0, 1.0],
            &IdentityPreconditioner,
            CgOptions {
                tol: 1e-12,
                max_iter: 3,
            },
        )
        .unwrap();
        assert!(res.converged, "residual {}", res.residual_norm);
    }
}
