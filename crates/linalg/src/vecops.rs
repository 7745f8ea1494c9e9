//! Free-function kernels over `&[f64]` slices.
//!
//! These are the hot inner loops shared by the solvers and embeddings; they
//! operate on plain slices so callers can use `Vec<f64>`, matrix rows, or any
//! other contiguous storage without conversion.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (ℓ2) norm of a slice.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// ℓ1 norm of a slice.
#[inline]
pub fn norm1(a: &[f64]) -> f64 {
    a.iter().map(|x| x.abs()).sum()
}

/// ℓ∞ norm (maximum absolute entry) of a slice; `0.0` for an empty slice.
#[inline]
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
}

/// `y ← y + alpha * x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch"); // cirstag-lint: allow(error-hygiene) -- documented panic contract of the hot-path axpy kernel
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x ← alpha * x`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dist2_sq(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dist2_sq: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Squared Euclidean distances from `a` to four candidate rows at once —
/// the kNN distance inner loop. Bit-identical to four [`dist2_sq`] calls.
///
/// # Panics
///
/// Panics if any candidate's length differs from `a`'s.
#[inline]
pub fn dist2_sq4(a: &[f64], b: [&[f64]; 4]) -> [f64; 4] {
    let [b0, b1, b2, b3] = b;
    [
        dist2_sq(a, b0),
        dist2_sq(a, b1),
        dist2_sq(a, b2),
        dist2_sq(a, b3),
    ]
}

/// Euclidean distance between two equal-length slices.
#[inline]
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    dist2_sq(a, b).sqrt()
}

/// Arithmetic mean of a slice; `0.0` for an empty slice.
#[inline]
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Subtracts the mean from every entry, making the slice orthogonal to the
/// all-ones vector. Used to project onto the range of a connected-graph
/// Laplacian.
#[inline]
pub fn center(a: &mut [f64]) {
    let m = mean(a);
    for x in a.iter_mut() {
        *x -= m;
    }
}

/// Normalizes the slice to unit ℓ2 norm, returning the original norm.
///
/// Leaves the slice untouched (and returns `0.0`) when the norm is zero or
/// non-finite, so callers can detect breakdown.
#[inline]
pub fn normalize(a: &mut [f64]) -> f64 {
    let n = norm2(a);
    if n > 0.0 && n.is_finite() {
        scale(1.0 / n, a);
        n
    } else {
        0.0
    }
}

/// Cosine similarity between two vectors; `0.0` when either is all-zero.
#[inline]
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    let na = norm2(a);
    let nb = norm2(b);
    // cirstag-lint: allow(float-discipline) -- exact-zero norm sentinel: only an all-zero vector has norm exactly 0.0
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot(a, b) / (na * nb)
    }
}

/// Returns `true` when every entry is finite.
#[inline]
pub fn all_finite(a: &[f64]) -> bool {
    a.iter().all(|x| x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let a = [3.0, 4.0];
        assert_eq!(dot(&a, &a), 25.0);
        assert_eq!(norm2(&a), 5.0);
        assert_eq!(norm1(&a), 7.0);
        assert_eq!(norm_inf(&a), 4.0);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = [1.0, -2.0];
        scale(-3.0, &mut x);
        assert_eq!(x, [-3.0, 6.0]);
    }

    #[test]
    fn distances() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(dist2_sq(&a, &b), 25.0);
        assert_eq!(dist2(&a, &b), 5.0);
    }

    #[test]
    fn center_makes_mean_zero() {
        let mut a = [1.0, 2.0, 3.0, 6.0];
        center(&mut a);
        assert!(mean(&a).abs() < 1e-15);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut a = [3.0, 4.0];
        let n = normalize(&mut a);
        assert_eq!(n, 5.0);
        assert!((norm2(&a) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut a = [0.0, 0.0];
        assert_eq!(normalize(&mut a), 0.0);
        assert_eq!(a, [0.0, 0.0]);
    }

    #[test]
    fn cosine_similarity_bounds() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        assert_eq!(cosine_similarity(&a, &a), 1.0);
        assert_eq!(cosine_similarity(&a, &b), 0.0);
        let c = [-1.0, 0.0];
        assert_eq!(cosine_similarity(&a, &c), -1.0);
    }

    #[test]
    fn all_finite_detects_nan() {
        assert!(all_finite(&[1.0, 2.0]));
        assert!(!all_finite(&[1.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }
}
