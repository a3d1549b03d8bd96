//! Sparse-matrix substrate for the cluster-wise SpGEMM reproduction.
//!
//! This crate provides everything the upper layers need from a sparse-matrix
//! library:
//!
//! * [`CooMatrix`] — coordinate (triplet) format used as a construction
//!   intermediary and by the Matrix Market reader.
//! * [`CsrMatrix`] — Compressed Sparse Row, the de-facto standard storage
//!   format (paper §2.1) and the input/output format of every kernel in the
//!   workspace.
//! * [`CscMatrix`] — Compressed Sparse Column, used where column access is
//!   needed (hypergraph column nets, transpose-free column scans).
//! * [`Permutation`] — row/column permutations with composition, inversion,
//!   and symmetric application `P·A·Pᵀ` (how reorderings are applied for the
//!   `A²` workload).
//! * [`io`] — Matrix Market (`.mtx`) reading and writing so real SuiteSparse
//!   inputs can be used when available.
//! * [`gen`] — seeded synthetic generators standing in for the SuiteSparse
//!   corpus (stencil meshes, triangulations, R-MAT power-law graphs,
//!   road-like networks, block-diagonal and KKT-structured matrices).
//! * [`stats`] — structural statistics (bandwidth, profile, nnz/row,
//!   consecutive-row Jaccard) used by the evaluation harness.
//! * [`jaccard`] — set-similarity primitives shared by the clustering
//!   algorithms (paper Alg. 2/3).
//! * [`mod@fingerprint`] — `O(samples)` matrix fingerprints keying the engine's
//!   plan cache (`cw-engine`), so repeated traffic on the same operand can
//!   skip preprocessing.
//!
//! All generators and algorithms are deterministic given a seed; no global
//! state is used anywhere.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coo;
pub mod csc;
pub mod csr;
pub mod fingerprint;
pub mod gen;
pub mod io;
pub mod jaccard;
pub mod perm;
pub mod spmv;
pub mod stats;

pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use fingerprint::{checksum, fingerprint, MatrixFingerprint};
pub use perm::Permutation;

/// Column-index type used across the workspace.
///
/// `u32` halves index bandwidth relative to `usize` (a real effect for
/// memory-bound kernels such as SpGEMM) while still addressing the 4-billion
/// column range, far beyond the evaluation sizes.
pub type ColIdx = u32;

/// Scalar type for matrix values.
pub type Value = f64;

/// Errors produced when validating or constructing sparse matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// An entry's row index was out of bounds.
    RowOutOfBounds {
        /// offending row index
        row: usize,
        /// number of rows in the matrix
        nrows: usize,
    },
    /// An entry's column index was out of bounds.
    ColOutOfBounds {
        /// offending column index
        col: usize,
        /// number of columns in the matrix
        ncols: usize,
    },
    /// The row-pointer array is malformed (wrong length, non-monotone, or
    /// inconsistent with the index array length).
    MalformedRowPtr(String),
    /// Column indices inside a row are not strictly increasing.
    UnsortedRow(usize),
    /// Array lengths are inconsistent (e.g. `col_idx.len() != vals.len()`).
    LengthMismatch(String),
    /// An I/O or parse failure, with a human-readable description.
    Parse(String),
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::RowOutOfBounds { row, nrows } => {
                write!(f, "row index {row} out of bounds for {nrows} rows")
            }
            SparseError::ColOutOfBounds { col, ncols } => {
                write!(f, "column index {col} out of bounds for {ncols} columns")
            }
            SparseError::MalformedRowPtr(msg) => write!(f, "malformed row_ptr: {msg}"),
            SparseError::UnsortedRow(r) => write!(f, "row {r} has unsorted/duplicate columns"),
            SparseError::LengthMismatch(msg) => write!(f, "length mismatch: {msg}"),
            SparseError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for SparseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = SparseError::RowOutOfBounds { row: 7, nrows: 3 };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains('3'));
        let e = SparseError::UnsortedRow(4);
        assert!(e.to_string().contains('4'));
    }
}
