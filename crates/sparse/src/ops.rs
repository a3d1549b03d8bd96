//! Element-wise sparse matrix algebra: addition and scaling, used by the
//! AMG example, test oracles, and downstream users who need more than
//! multiplication.

use crate::{ColIdx, CsrMatrix, Value};

/// `C = alpha·A + beta·B` (same shape; patterns merged, values summed).
pub fn add_scaled(a: &CsrMatrix, alpha: Value, b: &CsrMatrix, beta: Value) -> CsrMatrix {
    assert_eq!((a.nrows, a.ncols), (b.nrows, b.ncols), "shape mismatch");
    let mut row_ptr = Vec::with_capacity(a.nrows + 1);
    row_ptr.push(0usize);
    let mut col_idx: Vec<ColIdx> = Vec::with_capacity(a.nnz() + b.nnz());
    let mut vals: Vec<Value> = Vec::with_capacity(a.nnz() + b.nnz());
    for i in 0..a.nrows {
        let (ca, va) = a.row(i);
        let (cb, vb) = b.row(i);
        let (mut p, mut q) = (0usize, 0usize);
        while p < ca.len() || q < cb.len() {
            match (ca.get(p), cb.get(q)) {
                (Some(&x), Some(&y)) if x == y => {
                    col_idx.push(x);
                    vals.push(alpha * va[p] + beta * vb[q]);
                    p += 1;
                    q += 1;
                }
                (Some(&x), Some(&y)) if x < y => {
                    col_idx.push(x);
                    vals.push(alpha * va[p]);
                    p += 1;
                }
                (Some(_), Some(&y)) => {
                    col_idx.push(y);
                    vals.push(beta * vb[q]);
                    q += 1;
                }
                (Some(&x), None) => {
                    col_idx.push(x);
                    vals.push(alpha * va[p]);
                    p += 1;
                }
                (None, Some(&y)) => {
                    col_idx.push(y);
                    vals.push(beta * vb[q]);
                    q += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix { nrows: a.nrows, ncols: a.ncols, row_ptr, col_idx, vals }
}

/// `A + B`.
pub fn add(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    add_scaled(a, 1.0, b, 1.0)
}

/// `A − B`.
pub fn sub(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    add_scaled(a, 1.0, b, -1.0)
}

/// `alpha · A` (returns a scaled copy; pattern unchanged).
pub fn scale(a: &CsrMatrix, alpha: Value) -> CsrMatrix {
    let mut out = a.clone();
    for v in &mut out.vals {
        *v *= alpha;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er::erdos_renyi;

    #[test]
    fn add_merges_patterns() {
        let a = CsrMatrix::from_row_lists(3, vec![vec![(0, 1.0), (2, 2.0)]]);
        let b = CsrMatrix::from_row_lists(3, vec![vec![(1, 5.0), (2, -2.0)]]);
        let c = add(&a, &b);
        assert_eq!(c.get(0, 0), Some(1.0));
        assert_eq!(c.get(0, 1), Some(5.0));
        assert_eq!(c.get(0, 2), Some(0.0)); // cancelled but kept
        c.validate().unwrap();
    }

    #[test]
    fn sub_self_is_zero() {
        let a = erdos_renyi(20, 4, 3);
        let z = sub(&a, &a);
        assert!(z.vals.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn add_scaled_matches_dense() {
        let a = erdos_renyi(12, 3, 1);
        let b = erdos_renyi(12, 3, 2);
        let c = add_scaled(&a, 2.0, &b, -0.5);
        let da = a.to_dense();
        let db = b.to_dense();
        let dc = c.to_dense();
        for k in 0..da.len() {
            assert!((dc[k] - (2.0 * da[k] - 0.5 * db[k])).abs() < 1e-12);
        }
    }

    #[test]
    fn scale_preserves_pattern() {
        let a = erdos_renyi(10, 3, 9);
        let s = scale(&a, -3.0);
        assert_eq!(s.col_idx, a.col_idx);
        for (x, y) in s.vals.iter().zip(&a.vals) {
            assert_eq!(*x, -3.0 * y);
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_rejects_shape_mismatch() {
        let a = CsrMatrix::zeros(2, 3);
        let b = CsrMatrix::zeros(3, 2);
        let _ = add(&a, &b);
    }
}
