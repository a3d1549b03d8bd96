//! FLOP counting and the compression ratio (paper §4.3).
//!
//! `flops(A·B) = 2 · Σ_{a_ik ≠ 0} nnz(B[k,:])` is the standard work measure
//! for SpGEMM. The *compression ratio* `flops/2 / nnz(C)` measures how much
//! accumulation collapses intermediate products; Nagasaka et al. \[40\] show
//! throughput correlates with it, and the paper's §4.3 observes reordering
//! helps *even when the compression ratio is unchanged* — an observation our
//! `cw-cachesim` experiments can reproduce deterministically.

use cw_sparse::CsrMatrix;
use rayon::prelude::*;

/// Multiply-add count per row of the product `A·B` (not doubled).
pub fn flops_per_row(a: &CsrMatrix, b: &CsrMatrix) -> Vec<u64> {
    flops_per_row_on(a, b, true)
}

/// [`flops_per_row`] computed on the pool, or (`pool == false`) on the
/// calling thread alone — a serial multiply must not wake the pool for it.
pub(crate) fn flops_per_row_on(a: &CsrMatrix, b: &CsrMatrix, pool: bool) -> Vec<u64> {
    assert_eq!(a.ncols, b.nrows);
    let row = |i: usize| a.row_cols(i).iter().map(|&k| b.row_nnz(k as usize) as u64).sum();
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

/// Compression ratio `multiply_adds / nnz(C)`.
///
/// `1.0` means no accumulation at all; large values mean many intermediate
/// products collapse into each output nonzero.
pub fn compression_ratio(a: &CsrMatrix, b: &CsrMatrix, c: &CsrMatrix) -> f64 {
    let ma = multiply_adds(a, b);
    if c.nnz() == 0 {
        return 0.0;
    }
    ma as f64 / c.nnz() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowwise::spgemm;

    #[test]
    fn identity_flops() {
        let i = CsrMatrix::identity(6);
        assert_eq!(multiply_adds(&i, &i), 6);
        assert_eq!(flops(&i, &i), 12);
        let c = spgemm(&i, &i);
        assert_eq!(compression_ratio(&i, &i, &c), 1.0);
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

    #[test]
    fn compression_ratio_on_overlapping_products() {
        // Both columns of A's row hit B rows with the same output column.
        let a = CsrMatrix::from_row_lists(2, vec![vec![(0, 1.0), (1, 1.0)]]);
        let b = CsrMatrix::from_row_lists(1, vec![vec![(0, 2.0)], vec![(0, 3.0)]]);
        let c = spgemm(&a, &b);
        assert_eq!(multiply_adds(&a, &b), 2);
        assert_eq!(c.nnz(), 1);
        assert_eq!(compression_ratio(&a, &b, &c), 2.0);
    }

    #[test]
    fn empty_product_ratio_is_zero() {
        let z = CsrMatrix::zeros(3, 3);
        let c = spgemm(&z, &z);
        assert_eq!(compression_ratio(&z, &z, &c), 0.0);
    }
}
