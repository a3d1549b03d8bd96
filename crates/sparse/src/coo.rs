//! Coordinate (triplet) sparse matrix format.
//!
//! COO is the natural construction format: entries arrive in arbitrary order
//! (from a generator, a file, or an algorithm) and are sorted/deduplicated
//! once when converting to [`CsrMatrix`](crate::CsrMatrix).

use crate::{ColIdx, SparseError, Value};

/// A sparse matrix in coordinate (triplet) form.
///
/// Entries may be unsorted and may contain duplicates; duplicates are summed
/// when converting to CSR (the Matrix Market convention).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CooMatrix {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Row index of each entry.
    pub rows: Vec<u32>,
    /// Column index of each entry.
    pub cols: Vec<ColIdx>,
    /// Value of each entry.
    pub vals: Vec<Value>,
}

impl CooMatrix {
    /// Creates an empty COO matrix with the given dimensions.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix { nrows, ncols, rows: Vec::new(), cols: Vec::new(), vals: Vec::new() }
    }

    /// Creates an empty COO matrix with room for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Number of stored entries (including not-yet-summed duplicates).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// Appends one entry. Debug-asserts bounds; release builds defer bounds
    /// checking to [`CooMatrix::validate`] / CSR conversion.
    #[inline]
    pub fn push(&mut self, row: usize, col: usize, val: Value) {
        debug_assert!(row < self.nrows, "row {row} out of bounds ({})", self.nrows);
        debug_assert!(col < self.ncols, "col {col} out of bounds ({})", self.ncols);
        self.rows.push(row as u32);
        self.cols.push(col as ColIdx);
        self.vals.push(val);
    }

    /// Appends the symmetric pair `(row, col)` and `(col, row)`.
    ///
    /// Used by graph-like generators that produce undirected structures.
    /// The diagonal is pushed only once.
    #[inline]
    pub fn push_sym(&mut self, row: usize, col: usize, val: Value) {
        self.push(row, col, val);
        if row != col {
            self.push(col, row, val);
        }
    }

    /// Checks every entry is in bounds.
    pub fn validate(&self) -> Result<(), SparseError> {
        for &r in &self.rows {
            if r as usize >= self.nrows {
                return Err(SparseError::RowOutOfBounds { row: r as usize, nrows: self.nrows });
            }
        }
        for &c in &self.cols {
            if c as usize >= self.ncols {
                return Err(SparseError::ColOutOfBounds { col: c as usize, ncols: self.ncols });
            }
        }
        Ok(())
    }

    /// Converts to CSR, sorting entries and summing duplicates.
    ///
    /// Entries whose summed value is exactly zero are *kept*: explicit zeros
    /// are legal in Matrix Market.
    pub fn to_csr(&self) -> crate::CsrMatrix {
        crate::CsrMatrix::from_coo(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_nnz() {
        let mut m = CooMatrix::new(3, 3);
        assert_eq!(m.nnz(), 0);
        m.push(0, 1, 2.0);
        m.push(2, 2, -1.0);
        assert_eq!(m.nnz(), 2);
        m.validate().unwrap();
    }

    #[test]
    fn push_sym_skips_diagonal_duplicate() {
        let mut m = CooMatrix::new(3, 3);
        m.push_sym(1, 1, 5.0);
        assert_eq!(m.nnz(), 1);
        m.push_sym(0, 2, 1.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn with_capacity_reserves() {
        let m = CooMatrix::with_capacity(4, 4, 100);
        assert!(m.rows.capacity() >= 100);
        assert_eq!(m.nnz(), 0);
    }
}
