//! Dense and sparse linear-algebra primitives for the CirSTAG stack.
//!
//! This crate is deliberately dependency-free: everything the higher layers
//! need — dense row-major matrices, CSR/COO sparse matrices, vector kernels,
//! a symmetric tridiagonal eigensolver (used by the Lanczos iteration in
//! `cirstag-solver`), and a small dense symmetric eigensolver (Jacobi
//! rotations) — is implemented here from scratch.
//!
//! # Example
//!
//! ```
//! use cirstag_linalg::{CooMatrix, DenseMatrix};
//!
//! # fn main() -> Result<(), cirstag_linalg::LinalgError> {
//! let mut coo = CooMatrix::new(3, 3);
//! coo.push(0, 0, 2.0)?;
//! coo.push(1, 1, 3.0)?;
//! coo.push(2, 2, 4.0)?;
//! let csr = coo.to_csr();
//! let y = csr.mul_vec(&[1.0, 1.0, 1.0]);
//! assert_eq!(y, vec![2.0, 3.0, 4.0]);
//! let eye = DenseMatrix::identity(3);
//! assert_eq!(eye.get(1, 1), 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
mod dense;
mod error;
pub mod fail;
pub mod par;
mod qr;
mod sparse;
mod symeig;
mod tridiag;
pub mod vecops;

pub use dense::DenseMatrix;
pub use error::LinalgError;
pub use qr::{least_squares, qr_decompose, QrDecomposition};
pub use sparse::{CooMatrix, CsrMatrix};
pub use symeig::jacobi_eigen;
pub use tridiag::{tridiag_eigen, TridiagEigen};
