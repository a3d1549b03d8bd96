//! FLOP counting (paper §4.3).
//!
//! `flops(A·B) = 2 · Σ_{a_ik ≠ 0} nnz(B[k,:])` is the standard work measure
//! for SpGEMM; the kernels balance their chunks by it and bound each output
//! row with it.

use crate::rowwise::CsrRows;
use cw_sparse::CsrMatrix;
use rayon::prelude::*;

/// Multiply-add count per row of the product `A·B` (not doubled).
pub fn flops_per_row(a: &CsrMatrix, b: &CsrMatrix) -> Vec<u64> {
    flops_per_row_on(a.into(), b.into(), true)
}

/// [`flops_per_row`] computed on the pool, or (`pool == false`) on the
/// calling thread alone — a serial multiply must not wake the pool for it.
pub(crate) fn flops_per_row_on(a: CsrRows<'_>, b: CsrRows<'_>, pool: bool) -> Vec<u64> {
    assert_eq!(a.ncols, b.nrows);
    let row = |i: usize| a.row(i).0.iter().map(|&k| b.row_nnz(k as usize) as u64).sum();
    if pool {
        (0..a.nrows).into_par_iter().map(row).collect()
    } else {
        (0..a.nrows).map(row).collect()
    }
}

/// Total multiply-adds of `A·B` (the conventional `flops/2`).
pub fn multiply_adds(a: &CsrMatrix, b: &CsrMatrix) -> u64 {
    flops_per_row(a, b).iter().sum()
}

/// Conventional FLOP count (`2 ×` multiply-adds).
pub fn flops(a: &CsrMatrix, b: &CsrMatrix) -> u64 {
    2 * multiply_adds(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_flops() {
        let i = CsrMatrix::identity(6);
        assert_eq!(multiply_adds(&i, &i), 6);
        assert_eq!(flops(&i, &i), 12);
    }

    #[test]
    fn flops_per_row_counts_b_rows() {
        // A row with entries in columns k pulls nnz(B[k,:]) each.
        let a = CsrMatrix::from_row_lists(3, vec![vec![(0, 1.0), (2, 1.0)]]);
        let b = CsrMatrix::from_row_lists(
            4,
            vec![vec![(0, 1.0), (1, 1.0)], vec![(2, 1.0)], vec![(0, 1.0), (1, 1.0), (3, 1.0)]],
        );
        assert_eq!(flops_per_row(&a, &b), vec![5]);
    }
}
