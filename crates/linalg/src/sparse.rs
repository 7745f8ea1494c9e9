use crate::{par, DenseMatrix, LinalgError};

/// Minimum multiply–add count before the panel spmm fans row blocks out
/// across the thread pool; mirrors the dense-matmul threshold.
const PANEL_PAR_FLOP_THRESHOLD: usize = 64 * 1024;

/// Rows per parallel chunk in the panel spmm. Each chunk is produced by
/// exactly one thread with the serial row kernel, so chunking never changes
/// results.
const PANEL_ROW_CHUNK: usize = 32;

/// Minimum nonzero count before the spmv fans row blocks out across the
/// thread pool. A matrix–vector product does one multiply–add per nonzero,
/// so below this the dispatch overhead dominates any speedup.
const SPMV_PAR_NNZ_THRESHOLD: usize = 16 * 1024;

/// Rows per parallel chunk in the spmv. As with the panel product, each
/// chunk is produced by one thread with the serial row kernel, so results
/// are bit-identical at every thread count.
const SPMV_ROW_CHUNK: usize = 256;

/// `dst[j] += v * src[j]`: the panel kernel's per-nonzero strip update.
fn strip_axpy(v: f64, src: &[f64], dst: &mut [f64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += v * s;
    }
}

/// A sparse matrix in coordinate (triplet) format, used for assembly.
///
/// Duplicate entries are allowed and are summed when converting to CSR,
/// which makes `CooMatrix` a convenient accumulator for Laplacian assembly.
///
/// # Example
///
/// ```
/// use cirstag_linalg::CooMatrix;
///
/// # fn main() -> Result<(), cirstag_linalg::LinalgError> {
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 1.0)?;
/// coo.push(0, 0, 2.0)?; // duplicates are summed
/// let csr = coo.to_csr();
/// assert_eq!(csr.get(0, 0), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// Creates an empty `nrows × ncols` COO matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates an empty matrix with reserved capacity for `nnz` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, nnz: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::with_capacity(nnz),
            cols: Vec::with_capacity(nnz),
            vals: Vec::with_capacity(nnz),
        }
    }

    /// Appends the entry `(i, j) += v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IndexOutOfBounds`] when `(i, j)` is outside the
    /// matrix shape.
    pub fn push(&mut self, i: usize, j: usize, v: f64) -> Result<(), LinalgError> {
        if i >= self.nrows || j >= self.ncols {
            return Err(LinalgError::IndexOutOfBounds {
                index: (i, j),
                shape: (self.nrows, self.ncols),
            });
        }
        self.rows.push(i);
        self.cols.push(j);
        self.vals.push(v);
        Ok(())
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored triplets (before duplicate merging).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Converts to CSR, summing duplicate entries and dropping explicit zeros.
    pub fn to_csr(&self) -> CsrMatrix {
        // Count entries per row.
        let mut counts = vec![0usize; self.nrows];
        for &r in &self.rows {
            counts[r] += 1;
        }
        let mut row_ptr = vec![0usize; self.nrows + 1];
        for i in 0..self.nrows {
            row_ptr[i + 1] = row_ptr[i] + counts[i];
        }
        // Scatter into per-row buckets.
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        let mut next = row_ptr.clone();
        for k in 0..self.nnz() {
            let r = self.rows[k];
            let slot = next[r];
            col_idx[slot] = self.cols[k];
            values[slot] = self.vals[k];
            next[r] += 1;
        }
        // Sort each row by column and merge duplicates / drop zeros.
        let mut out_ptr = Vec::with_capacity(self.nrows + 1);
        let mut out_cols = Vec::with_capacity(self.nnz());
        let mut out_vals = Vec::with_capacity(self.nnz());
        out_ptr.push(0usize);
        for r in 0..self.nrows {
            let lo = row_ptr[r];
            let hi = row_ptr[r + 1];
            let mut entries: Vec<(usize, f64)> = col_idx[lo..hi]
                .iter()
                .copied()
                .zip(values[lo..hi].iter().copied())
                .collect();
            entries.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < entries.len() {
                let c = entries[i].0;
                let mut v = 0.0;
                while i < entries.len() && entries[i].0 == c {
                    v += entries[i].1;
                    i += 1;
                }
                // cirstag-lint: allow(float-discipline) -- exact-zero drop keeps the CSR canonical: explicit zeros are never stored
                if v != 0.0 {
                    out_cols.push(c);
                    out_vals.push(v);
                }
            }
            out_ptr.push(out_cols.len());
        }
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: out_ptr,
            col_idx: out_cols,
            values: out_vals,
        }
    }
}

/// A sparse matrix in compressed sparse row (CSR) format.
///
/// CSR is the operational format: sparse matrix–vector products (`spmv`) and
/// sparse–dense products (`spmm`) run directly on it. Construct via
/// [`CooMatrix::to_csr`] or [`CsrMatrix::from_triplets`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix directly from `(row, col, value)` triplets.
    ///
    /// Duplicates are summed; explicit zeros are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IndexOutOfBounds`] for any triplet outside the
    /// given shape.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, LinalgError> {
        let mut coo = CooMatrix::with_capacity(nrows, ncols, triplets.len());
        for &(i, j, v) in triplets {
            coo.push(i, j, v)?;
        }
        Ok(coo.to_csr())
    }

    /// Creates an `n × n` identity in CSR form.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Creates a diagonal matrix from the given entries.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: diag.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns the stored value at `(i, j)`, or `0.0` when absent.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.nrows && j < self.ncols, "index out of bounds");
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Borrows the column indices and values of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        assert!(i < self.nrows, "row index out of bounds");
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Iterates over all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals).map(move |(&j, &v)| (i, j, v))
        })
    }

    /// Sparse matrix–vector product `self * x`.
    ///
    /// Infallible convenience form of [`CsrMatrix::try_mul_vec`] for call
    /// sites whose dimensions are correct by construction.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.ncols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "mul_vec: dimension mismatch");
        let mut y = vec![0.0; self.nrows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Checked sparse matrix–vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != self.ncols`.
    pub fn try_mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut y = vec![0.0; self.nrows];
        self.try_mul_vec_into(x, &mut y)?;
        Ok(y)
    }

    /// Sparse matrix–vector product into a caller-provided buffer
    /// (`y ← self * x`), avoiding allocation in inner loops.
    ///
    /// Infallible convenience form of [`CsrMatrix::try_mul_vec_into`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.ncols` or `y.len() != self.nrows`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "mul_vec_into: x dimension mismatch"); // cirstag-lint: allow(error-hygiene) -- documented panic contract of the infallible convenience form; try_mul_vec_into is the checked API
        assert_eq!(y.len(), self.nrows, "mul_vec_into: y dimension mismatch"); // cirstag-lint: allow(error-hygiene) -- documented panic contract of the infallible convenience form; try_mul_vec_into is the checked API
        self.mul_vec_kernel(x, y);
    }

    /// Checked in-place sparse matrix–vector product `y ← self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != self.ncols`
    /// or `y.len() != self.nrows`.
    pub fn try_mul_vec_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), LinalgError> {
        if x.len() != self.ncols {
            return Err(LinalgError::ShapeMismatch {
                op: "mul_vec (input)",
                left: self.shape(),
                right: (x.len(), 1),
            });
        }
        if y.len() != self.nrows {
            return Err(LinalgError::ShapeMismatch {
                op: "mul_vec (output)",
                left: self.shape(),
                right: (y.len(), 1),
            });
        }
        self.mul_vec_kernel(x, y);
        Ok(())
    }

    /// Computes output row `i` of the matrix–vector product. Shared by the
    /// serial and parallel spmv paths so they agree bit-for-bit; the
    /// per-nonzero accumulation order matches the historical serial loop.
    fn mul_vec_row(&self, i: usize, x: &[f64]) -> f64 {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        let mut acc = 0.0;
        for (&c, &v) in self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
            acc += v * x[c];
        }
        acc
    }

    /// Computes output rows `base..base + out.len()` of the product.
    /// Shared by the serial and parallel spmv paths.
    fn mul_vec_rows(&self, base: usize, x: &[f64], out: &mut [f64]) {
        for (off, slot) in out.iter_mut().enumerate() {
            *slot = self.mul_vec_row(base + off, x);
        }
    }

    fn mul_vec_kernel(&self, x: &[f64], y: &mut [f64]) {
        if self.nrows == 0 {
            return;
        }
        // cirstag-lint: allow(nondeterminism) -- threshold picks between serial and parallel paths that are bit-identical by construction
        if self.nnz() < SPMV_PAR_NNZ_THRESHOLD || par::current_num_threads() <= 1 {
            self.mul_vec_rows(0, x, y);
            return;
        }
        par::chunks_mut(y, SPMV_ROW_CHUNK, |ci, chunk| {
            self.mul_vec_rows(ci * SPMV_ROW_CHUNK, x, chunk);
        });
    }

    /// Sparse–dense product `self * m`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `self.ncols != m.nrows()`.
    pub fn mul_dense(&self, m: &DenseMatrix) -> Result<DenseMatrix, LinalgError> {
        let mut out = DenseMatrix::zeros(self.nrows, m.ncols());
        self.mul_dense_into(m, &mut out)?;
        Ok(out)
    }

    /// Sparse–dense product into a caller-provided matrix (`out ← self * m`),
    /// avoiding allocation in inner loops.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `self.ncols != m.nrows()`
    /// or `out` is not `self.nrows × m.ncols()`.
    pub fn mul_dense_into(
        &self,
        m: &DenseMatrix,
        out: &mut DenseMatrix,
    ) -> Result<(), LinalgError> {
        if self.ncols != m.nrows() {
            return Err(LinalgError::ShapeMismatch {
                op: "spmm",
                left: self.shape(),
                right: m.shape(),
            });
        }
        if out.shape() != (self.nrows, m.ncols()) {
            return Err(LinalgError::ShapeMismatch {
                op: "spmm (output)",
                left: (self.nrows, m.ncols()),
                right: out.shape(),
            });
        }
        let ncols = m.ncols();
        self.panel_kernel(m.as_slice(), out.as_mut_slice(), ncols);
        Ok(())
    }

    /// Blocked spmm: multiplies this matrix by a row-major `ncols`-wide dense
    /// panel (`x[i * ncols + j]` holds entry `(i, j)`), writing the product
    /// into `y` with the same layout.
    ///
    /// One CSR traversal advances all `ncols` columns in lockstep: each
    /// nonzero is read once and applied to a contiguous `ncols`-wide strip,
    /// which is what makes the block solvers amortize memory traffic across
    /// right-hand sides. Per output row the accumulation order equals
    /// [`CsrMatrix::mul_dense`] exactly, and large products are row-blocked
    /// across the thread pool with one thread per block, so results are
    /// bit-identical at every thread count.
    ///
    /// Infallible convenience form of [`CsrMatrix::try_mul_panel_into`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.ncols * ncols` or
    /// `y.len() != self.nrows * ncols`.
    pub fn mul_panel_into(&self, x: &[f64], y: &mut [f64], ncols: usize) {
        // cirstag-lint: allow(error-hygiene) -- documented panic contract of the infallible convenience form; try_mul_panel_into is the checked API
        assert_eq!(
            x.len(),
            self.ncols * ncols,
            "mul_panel_into: x dimension mismatch"
        );
        // cirstag-lint: allow(error-hygiene) -- documented panic contract of the infallible convenience form; try_mul_panel_into is the checked API
        assert_eq!(
            y.len(),
            self.nrows * ncols,
            "mul_panel_into: y dimension mismatch"
        );
        self.panel_kernel(x, y, ncols);
    }

    /// Checked blocked spmm `y ← self * x` over row-major `ncols`-wide
    /// panels. See [`CsrMatrix::mul_panel_into`] for layout and determinism
    /// guarantees.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when
    /// `x.len() != self.ncols * ncols` or `y.len() != self.nrows * ncols`.
    pub fn try_mul_panel_into(
        &self,
        x: &[f64],
        y: &mut [f64],
        ncols: usize,
    ) -> Result<(), LinalgError> {
        if x.len() != self.ncols * ncols {
            return Err(LinalgError::ShapeMismatch {
                op: "spmm (input)",
                left: (self.ncols, ncols),
                right: (x.len(), 1),
            });
        }
        if y.len() != self.nrows * ncols {
            return Err(LinalgError::ShapeMismatch {
                op: "spmm (output)",
                left: (self.nrows, ncols),
                right: (y.len(), 1),
            });
        }
        self.panel_kernel(x, y, ncols);
        Ok(())
    }

    /// Accumulates output row `i` of the panel product into `out_row`
    /// (`out_row.len() == k`). Shared by the serial and parallel paths so
    /// they agree bit-for-bit; the per-nonzero order matches the historical
    /// `mul_dense` loop.
    fn panel_row_kernel(&self, i: usize, x: &[f64], out_row: &mut [f64], k: usize) {
        out_row.fill(0.0);
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        for (&c, &v) in self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
            strip_axpy(v, &x[c * k..c * k + k], out_row);
        }
    }

    fn panel_kernel(&self, x: &[f64], y: &mut [f64], k: usize) {
        if k == 0 || self.nrows == 0 {
            return;
        }
        let flops = self.nnz() * k;
        // cirstag-lint: allow(nondeterminism) -- threshold picks between serial and parallel paths that are bit-identical by construction
        if flops < PANEL_PAR_FLOP_THRESHOLD || par::current_num_threads() <= 1 {
            for (i, out_row) in y.chunks_mut(k).enumerate() {
                self.panel_row_kernel(i, x, out_row, k);
            }
            return;
        }
        par::chunks_mut(y, PANEL_ROW_CHUNK * k, |ci, chunk| {
            let base = ci * PANEL_ROW_CHUNK;
            for (off, out_row) in chunk.chunks_mut(k).enumerate() {
                self.panel_row_kernel(base + off, x, out_row, k);
            }
        });
    }

    /// Returns the transpose in CSR form.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols];
        for &c in &self.col_idx {
            counts[c] += 1;
        }
        let mut row_ptr = vec![0usize; self.ncols + 1];
        for i in 0..self.ncols {
            row_ptr[i + 1] = row_ptr[i] + counts[i];
        }
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = row_ptr.clone();
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let slot = next[j];
                col_idx[slot] = i;
                values[slot] = v;
                next[j] += 1;
            }
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Extracts the main diagonal.
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Returns `true` when the matrix equals its transpose up to `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        if t.row_ptr != self.row_ptr || t.col_idx != self.col_idx {
            // Sparsity patterns differ; fall back to a value-wise comparison.
            return self.iter().all(|(i, j, v)| (v - t.get(i, j)).abs() <= tol)
                && t.iter().all(|(i, j, v)| (v - self.get(i, j)).abs() <= tol);
        }
        self.values
            .iter()
            .zip(&t.values)
            .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Computes the quadratic form `xᵀ self x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the (square) matrix dimension.
    pub fn quadratic_form(&self, x: &[f64]) -> f64 {
        let y = self.mul_vec(x);
        crate::vecops::dot(x, &y)
    }

    /// Scales every stored value by `alpha` in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.values {
            *v *= alpha;
        }
    }

    /// Returns `self + alpha * I`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] when the matrix is not square.
    pub fn add_scaled_identity(&self, alpha: f64) -> Result<CsrMatrix, LinalgError> {
        if self.nrows != self.ncols {
            return Err(LinalgError::InvalidArgument {
                reason: "add_scaled_identity requires a square matrix".to_string(),
            });
        }
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz() + self.nrows);
        for (i, j, v) in self.iter() {
            coo.push(i, j, v)?;
        }
        for i in 0..self.nrows {
            coo.push(i, i, alpha)?;
        }
        Ok(coo.to_csr())
    }

    /// Converts to a dense matrix (for small problems and tests).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(self.nrows, self.ncols);
        for (i, j, v) in self.iter() {
            m.set(i, j, v);
        }
        m
    }

    /// Checks the CSR structural invariants every kernel in this crate
    /// assumes: `row_ptr` has `nrows + 1` monotone entries ending at `nnz`,
    /// every column index is in bounds, columns are strictly increasing
    /// within each row (sorted, no duplicates), and all stored values are
    /// finite.
    ///
    /// This is the audit entry point of the `validate` feature cascade — the
    /// kernels themselves never re-check these invariants on hot paths.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn well_formed(&self) -> Result<(), String> {
        if self.row_ptr.len() != self.nrows + 1 {
            return Err(format!(
                "row_ptr has {} entries, expected nrows + 1 = {}",
                self.row_ptr.len(),
                self.nrows + 1
            ));
        }
        if self.row_ptr.first().copied() != Some(0) {
            return Err("row_ptr does not start at 0".to_string());
        }
        if self.row_ptr.last().copied() != Some(self.values.len()) {
            return Err(format!(
                "row_ptr ends at {:?} but nnz = {}",
                self.row_ptr.last(),
                self.values.len()
            ));
        }
        if self.col_idx.len() != self.values.len() {
            return Err(format!(
                "col_idx has {} entries but values has {}",
                self.col_idx.len(),
                self.values.len()
            ));
        }
        for i in 0..self.nrows {
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            if lo > hi {
                return Err(format!("row_ptr decreases at row {i} ({lo} > {hi})"));
            }
            let mut prev: Option<usize> = None;
            for k in lo..hi {
                let j = self.col_idx[k];
                if j >= self.ncols {
                    return Err(format!(
                        "row {i} stores column {j}, out of bounds for ncols = {}",
                        self.ncols
                    ));
                }
                if prev.is_some_and(|p| p >= j) {
                    return Err(format!(
                        "row {i} columns are not strictly increasing at entry {k} \
                         ({:?} then {j})",
                        prev
                    ));
                }
                if !self.values[k].is_finite() {
                    return Err(format!(
                        "row {i}, column {j} stores a non-finite value {}",
                        self.values[k]
                    ));
                }
                prev = Some(j);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn coo_push_bounds_checked() {
        let mut coo = CooMatrix::new(2, 2);
        assert!(coo.push(2, 0, 1.0).is_err());
        assert!(coo.push(0, 2, 1.0).is_err());
        assert!(coo.push(1, 1, 1.0).is_ok());
    }

    #[test]
    fn duplicates_summed_zeros_dropped() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 0, 2.0).unwrap();
        coo.push(1, 1, 5.0).unwrap();
        coo.push(1, 1, -5.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 0), 3.0);
        assert_eq!(csr.nnz(), 1); // the cancelled entry is dropped
    }

    #[test]
    fn spmv_known() {
        let m = sample();
        let y = m.mul_vec(&[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![3.0, 3.0, 9.0]);
    }

    #[test]
    fn spmv_into_matches_alloc() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        m.mul_vec_into(&x, &mut y);
        assert_eq!(y, m.mul_vec(&x));
    }

    #[test]
    fn checked_spmv_matches_and_rejects_mismatch() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(m.try_mul_vec(&x).unwrap(), m.mul_vec(&x));
        assert!(matches!(
            m.try_mul_vec(&[1.0, 2.0]),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        let mut short = vec![0.0; 2];
        assert!(matches!(
            m.try_mul_vec_into(&x, &mut short),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn spmm_matches_dense() {
        let m = sample();
        let d = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let out = m.mul_dense(&d).unwrap();
        let dense_out = m.to_dense().matmul(&d).unwrap();
        assert!(out.max_abs_diff(&dense_out).unwrap() < 1e-14);
    }

    #[test]
    fn get_binary_search_pins_sorted_duplicate_free_rows() {
        // CSR construction sorts each row and merges duplicates, so `get`
        // may binary-search the column slice. Pin that contract: on a matrix
        // whose rows are sorted and duplicate-free by construction, `get`
        // returns every stored value and exact zero for every absent slot.
        let m = CsrMatrix::from_triplets(
            4,
            6,
            &[
                (0, 5, 1.5),
                (0, 0, -2.0),
                (0, 3, 4.0),
                (1, 2, 7.0),
                (3, 1, -1.0),
                (3, 4, 9.0),
            ],
        )
        .unwrap();
        // Rows are strictly increasing in column index (the invariant that
        // licenses binary search).
        assert!(m.well_formed().is_ok());
        let dense = m.to_dense();
        for i in 0..4 {
            for j in 0..6 {
                assert_eq!(m.get(i, j), dense.get(i, j), "mismatch at ({i}, {j})");
            }
        }
        // Row 2 is empty: every probe hits the Err arm of the search.
        for j in 0..6 {
            assert_eq!(m.get(2, j), 0.0);
        }
    }

    #[test]
    fn panel_spmm_matches_mul_dense_bitwise() {
        // Deterministic pseudo-random 9x9 matrix with ~40% fill.
        let mut trips = Vec::new();
        let mut state = 0x1234_5678_u64;
        for i in 0..9 {
            for j in 0..9 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if state >> 62 != 0 {
                    trips.push((i, j, ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5));
                }
            }
        }
        let m = CsrMatrix::from_triplets(9, 9, &trips).unwrap();
        for k in [1usize, 3, 7] {
            let mut panel = vec![0.0; 9 * k];
            for (idx, v) in panel.iter_mut().enumerate() {
                *v = (idx as f64).sin();
            }
            let d = DenseMatrix::from_vec(9, k, panel.clone()).unwrap();
            let reference = m.mul_dense(&d).unwrap();
            let mut y = vec![1.0; 9 * k]; // nonzero garbage: kernel must overwrite
            m.mul_panel_into(&panel, &mut y, k);
            assert_eq!(y.as_slice(), reference.as_slice(), "k = {k}");
            let mut y2 = vec![0.0; 9 * k];
            m.try_mul_panel_into(&panel, &mut y2, k).unwrap();
            assert_eq!(y2.as_slice(), reference.as_slice());
        }
    }

    #[test]
    fn panel_spmm_rejects_bad_shapes() {
        let m = sample();
        let x = vec![0.0; 6];
        let mut y = vec![0.0; 5];
        assert!(matches!(
            m.try_mul_panel_into(&x, &mut y, 2),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        let mut y_short = vec![0.0; 6];
        assert!(matches!(
            m.try_mul_panel_into(&x[..4], &mut y_short, 2),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        // Zero-width panels are a no-op, not an error.
        assert!(m.try_mul_panel_into(&[], &mut [], 0).is_ok());
    }

    #[test]
    fn mul_dense_into_matches_and_rejects_bad_output() {
        let m = sample();
        let d = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let reference = m.mul_dense(&d).unwrap();
        let mut out = DenseMatrix::zeros(3, 2);
        m.mul_dense_into(&d, &mut out).unwrap();
        assert_eq!(out, reference);
        let mut bad = DenseMatrix::zeros(2, 2);
        assert!(matches!(
            m.mul_dense_into(&d, &mut bad),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
        assert_eq!(m.transpose().get(0, 2), 4.0);
    }

    #[test]
    fn diagonal_extraction() {
        assert_eq!(sample().diagonal(), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn symmetry_detection() {
        let sym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 2.0), (1, 0, 2.0), (0, 0, 1.0)]).unwrap();
        assert!(sym.is_symmetric(1e-12));
        assert!(!sample().is_symmetric(1e-12));
    }

    #[test]
    fn quadratic_form_known() {
        let m = CsrMatrix::from_diagonal(&[1.0, 2.0, 3.0]);
        assert_eq!(m.quadratic_form(&[1.0, 1.0, 1.0]), 6.0);
    }

    #[test]
    fn identity_and_diagonal_constructors() {
        let i = CsrMatrix::identity(3);
        assert_eq!(i.mul_vec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
        let d = CsrMatrix::from_diagonal(&[2.0, 4.0]);
        assert_eq!(d.mul_vec(&[1.0, 1.0]), vec![2.0, 4.0]);
    }

    #[test]
    fn add_scaled_identity_shifts_diagonal() {
        let m = sample();
        let shifted = m.add_scaled_identity(10.0).unwrap();
        assert_eq!(shifted.get(0, 0), 11.0);
        assert_eq!(shifted.get(1, 1), 13.0);
        assert_eq!(shifted.get(0, 2), 2.0);
    }

    #[test]
    fn iter_yields_all_entries() {
        let m = sample();
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(entries.len(), 5);
        assert!(entries.contains(&(2, 0, 4.0)));
    }

    #[test]
    fn empty_matrix_is_usable() {
        let m = CooMatrix::new(0, 0).to_csr();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.mul_vec(&[]), Vec::<f64>::new());
    }

    #[test]
    fn well_formed_accepts_valid_matrices() {
        assert!(sample().well_formed().is_ok());
        assert!(CsrMatrix::identity(4).well_formed().is_ok());
        assert!(CooMatrix::new(0, 0).to_csr().well_formed().is_ok());
    }

    #[test]
    fn well_formed_rejects_non_finite_values() {
        let mut m = sample();
        m.scale(f64::NAN);
        let err = m.well_formed().unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
    }

    #[test]
    fn well_formed_rejects_structural_corruption() {
        // Direct construction (same module, private fields) lets the test
        // produce states `from_triplets` can never emit.
        let out_of_bounds = CsrMatrix {
            nrows: 2,
            ncols: 2,
            row_ptr: vec![0, 1, 2],
            col_idx: vec![0, 5],
            values: vec![1.0, 2.0],
        };
        assert!(out_of_bounds
            .well_formed()
            .unwrap_err()
            .contains("out of bounds"));

        let duplicate_cols = CsrMatrix {
            nrows: 1,
            ncols: 3,
            row_ptr: vec![0, 2],
            col_idx: vec![1, 1],
            values: vec![1.0, 2.0],
        };
        assert!(duplicate_cols
            .well_formed()
            .unwrap_err()
            .contains("strictly increasing"));

        let bad_ptr = CsrMatrix {
            nrows: 2,
            ncols: 2,
            row_ptr: vec![0, 2, 1],
            col_idx: vec![0, 1],
            values: vec![1.0, 2.0],
        };
        assert!(bad_ptr.well_formed().is_err());

        let truncated_ptr = CsrMatrix {
            nrows: 2,
            ncols: 2,
            row_ptr: vec![0, 1],
            col_idx: vec![0],
            values: vec![1.0],
        };
        assert!(truncated_ptr.well_formed().unwrap_err().contains("row_ptr"));
    }
}
