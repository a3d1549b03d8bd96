//! Column-wise Gustavson SpGEMM — the mirror-image baseline.
//!
//! Gustavson's 1978 paper gives both orientations: the row-wise form used
//! throughout the paper, and the column-wise form `C(:,j) = Σ_k B_kj ·
//! A(:,k)` over CSC operands. The study focuses on the row-wise kernel
//! (reordering/clustering the *rows* of `A`); this module provides the
//! column-wise form so the choice is testable rather than assumed, and to
//! cross-validate the row-wise kernel through an independent code path.

use crate::accumulator::{Accumulator, HashAccumulator};
use crate::single_pass::OwnLines;
use cw_sparse::{ColIdx, CscMatrix, CsrMatrix, Value};
use rayon::prelude::*;

/// `C = A · B` computed column-wise over CSC operands; returns CSC.
fn colwise_kernel<A: Accumulator>(a: &CscMatrix, b: &CscMatrix) -> CscMatrix {
    // One output column per B column; independent, so parallel per column.
    let columns: Vec<(Vec<ColIdx>, Vec<Value>)> = (0..b.ncols)
        .into_par_iter()
        .map_init(
            || OwnLines(A::with_ncols(a.nrows)),
            |OwnLines(acc), j| {
                let (b_rows, b_vals) = (b.col_rows(j), b.col_vals(j));
                for (&k, &bv) in b_rows.iter().zip(b_vals) {
                    let (a_rows, a_vals) = (a.col_rows(k as usize), a.col_vals(k as usize));
                    for (&i, &av) in a_rows.iter().zip(a_vals) {
                        acc.add(i, av * bv);
                    }
                }
                let (mut rows, mut vals) = (vec![0; acc.len()], vec![0.0; acc.len()]);
                acc.extract_into(&mut rows, &mut vals);
                (rows, vals)
            },
        )
        .collect();
    let mut col_ptr = Vec::with_capacity(b.ncols + 1);
    col_ptr.push(0usize);
    let mut row_idx = Vec::new();
    let mut vals = Vec::new();
    for (r, v) in columns {
        row_idx.extend_from_slice(&r);
        vals.extend_from_slice(&v);
        col_ptr.push(row_idx.len());
    }
    CscMatrix { nrows: a.nrows, ncols: b.ncols, col_ptr, row_idx, vals }
}

/// `C = A · B`, CSR in and CSR out, computed column-wise internally (hash
/// accumulator).
pub fn spgemm_colwise(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!(
        a.ncols, b.nrows,
        "dimension mismatch: A is {}x{}, B is {}x{}",
        a.nrows, a.ncols, b.nrows, b.ncols
    );
    let ac = CscMatrix::from_csr(a);
    let bc = CscMatrix::from_csr(b);
    colwise_kernel::<HashAccumulator>(&ac, &bc).to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulator::DenseAccumulator;
    use crate::rowwise::{dense_reference, spgemm_serial};
    use cw_sparse::gen::er::{erdos_renyi, erdos_renyi_rect};
    use cw_sparse::gen::grid::poisson2d;

    #[test]
    fn colwise_matches_rowwise_on_square() {
        let a = poisson2d(9, 8);
        let row = spgemm_serial(&a, &a);
        let col = spgemm_colwise(&a, &a);
        assert!(col.approx_eq(&row, 1e-10));
    }

    #[test]
    fn colwise_matches_dense_on_rectangular() {
        let a = erdos_renyi(30, 5, 1);
        let b = erdos_renyi_rect(30, 7, 3, 2);
        let c = spgemm_colwise(&a, &b);
        assert!(c.numerically_eq(&dense_reference(&a, &b), 1e-9));
    }

    #[test]
    fn all_accumulators_agree_colwise() {
        let a = erdos_renyi(40, 4, 9);
        let ac = CscMatrix::from_csr(&a);
        let reference = colwise_kernel::<HashAccumulator>(&ac, &ac).to_csr();
        let c = colwise_kernel::<DenseAccumulator>(&ac, &ac).to_csr();
        assert!(c.approx_eq(&reference, 1e-10));
    }

    #[test]
    fn empty_matrices() {
        let z = CsrMatrix::zeros(4, 4);
        assert_eq!(spgemm_colwise(&z, &z).nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = CsrMatrix::zeros(3, 4);
        let b = CsrMatrix::zeros(3, 3);
        let _ = spgemm_colwise(&a, &b);
    }
}
