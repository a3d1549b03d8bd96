//! Sparse matrix–(dense) vector products.
//!
//! SpMV is the kernel most prior reordering work targets (paper §1); it is
//! provided here both for completeness and as an independent oracle: SpGEMM
//! against a dense-ified operand must match column-by-column SpMV, which
//! the integration tests exploit.

use crate::{CsrMatrix, Value};

/// `y = A · x` for a dense vector `x` (`x.len() == ncols`).
pub fn spmv(a: &CsrMatrix, x: &[Value]) -> Vec<Value> {
    assert_eq!(x.len(), a.ncols, "dimension mismatch: A has {} cols, x has {}", a.ncols, x.len());
    let mut y = vec![0.0; a.nrows];
    for (i, yi) in y.iter_mut().enumerate() {
        let (cols, vals) = a.row(i);
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            acc += v * x[c as usize];
        }
        *yi = acc;
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er::erdos_renyi;
    use crate::gen::grid::poisson2d;

    #[test]
    fn spmv_identity() {
        let i = CsrMatrix::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(spmv(&i, &x), x);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = erdos_renyi(20, 4, 1);
        let x: Vec<f64> = (0..20).map(|i| (i as f64).sin()).collect();
        let d = a.to_dense();
        let mut expect = vec![0.0; 20];
        for i in 0..20 {
            for j in 0..20 {
                expect[i] += d[i * 20 + j] * x[j];
            }
        }
        let got = spmv(&a, &x);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-12);
        }
    }

    #[test]
    fn laplacian_kills_constants() {
        // Interior rows of the Poisson matrix sum to zero: A·1 has zeros
        // away from the boundary.
        let a = poisson2d(5, 5);
        let y = spmv(&a, &[1.0; 25]);
        assert_eq!(y[12], 0.0); // center vertex
        assert!(y[0] > 0.0); // corner keeps boundary excess
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn spmv_bad_len_panics() {
        let a = CsrMatrix::identity(3);
        let _ = spmv(&a, &[1.0, 2.0]);
    }
}
