//! Structural statistics used by the evaluation and by reordering heuristics.

use crate::{jaccard::jaccard, CsrMatrix};

/// Summary of a matrix's sparsity structure.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixStats {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Number of stored nonzeros.
    pub nnz: usize,
    /// Maximum distance of any nonzero from the diagonal.
    pub bandwidth: usize,
    /// Sum over rows of (row bandwidth) — the matrix "profile".
    pub profile: u64,
    /// Minimum nonzeros in a row.
    pub min_row_nnz: usize,
    /// Maximum nonzeros in a row.
    pub max_row_nnz: usize,
    /// Mean nonzeros per row.
    pub avg_row_nnz: f64,
    /// Mean Jaccard similarity between consecutive rows — the structural
    /// quantity cluster-wise SpGEMM exploits.
    pub avg_consecutive_jaccard: f64,
}

/// Bandwidth of a square or rectangular matrix: `max |i - j|` over nonzeros.
pub fn bandwidth(a: &CsrMatrix) -> usize {
    let mut bw = 0usize;
    for i in 0..a.nrows {
        for &c in a.row_cols(i) {
            let d = (c as isize - i as isize).unsigned_abs();
            bw = bw.max(d);
        }
    }
    bw
}

/// Matrix profile: `Σ_i max(0, i - min_col(i))` over non-empty rows, the
/// quantity RCM-style orderings reduce.
pub fn profile(a: &CsrMatrix) -> u64 {
    let mut p = 0u64;
    for i in 0..a.nrows {
        if let Some(&first) = a.row_cols(i).first() {
            p += (i as i64 - first as i64).max(0) as u64;
        }
    }
    p
}

/// Mean Jaccard similarity of consecutive row pairs `(i, i+1)`.
///
/// Reordering schemes that group similar rows increase this; it predicts how
/// well variable-length clustering will do on a given ordering.
pub fn avg_consecutive_jaccard(a: &CsrMatrix) -> f64 {
    if a.nrows < 2 {
        return 1.0;
    }
    let mut total = 0.0;
    for i in 0..a.nrows - 1 {
        total += jaccard(a.row_cols(i), a.row_cols(i + 1));
    }
    total / (a.nrows - 1) as f64
}

/// Computes the full statistics bundle.
pub fn stats(a: &CsrMatrix) -> MatrixStats {
    let mut min_r = usize::MAX;
    let mut max_r = 0usize;
    for i in 0..a.nrows {
        let n = a.row_nnz(i);
        min_r = min_r.min(n);
        max_r = max_r.max(n);
    }
    if a.nrows == 0 {
        min_r = 0;
    }
    MatrixStats {
        nrows: a.nrows,
        ncols: a.ncols,
        nnz: a.nnz(),
        bandwidth: bandwidth(a),
        profile: profile(a),
        min_row_nnz: min_r,
        max_row_nnz: max_r,
        avg_row_nnz: if a.nrows == 0 { 0.0 } else { a.nnz() as f64 / a.nrows as f64 },
        avg_consecutive_jaccard: avg_consecutive_jaccard(a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri() -> CsrMatrix {
        // Tridiagonal 5x5
        let mut rows = Vec::new();
        for i in 0..5usize {
            let mut r = vec![(i, 2.0)];
            if i > 0 {
                r.push((i - 1, -1.0));
            }
            if i < 4 {
                r.push((i + 1, -1.0));
            }
            rows.push(r);
        }
        CsrMatrix::from_row_lists(5, rows)
    }

    #[test]
    fn tridiagonal_bandwidth_is_one() {
        assert_eq!(bandwidth(&tri()), 1);
    }

    #[test]
    fn identity_stats() {
        let i = CsrMatrix::identity(4);
        let s = stats(&i);
        assert_eq!(s.bandwidth, 0);
        assert_eq!(s.profile, 0);
        assert_eq!(s.min_row_nnz, 1);
        assert_eq!(s.max_row_nnz, 1);
        assert_eq!(s.avg_row_nnz, 1.0);
        // Consecutive identity rows are disjoint singletons.
        assert_eq!(s.avg_consecutive_jaccard, 0.0);
    }

    #[test]
    fn profile_counts_leftward_extent() {
        // Row 2 reaching back to column 0 contributes 2.
        let a =
            CsrMatrix::from_row_lists(3, vec![vec![(0, 1.0)], vec![], vec![(0, 1.0), (2, 1.0)]]);
        assert_eq!(profile(&a), 2);
    }

    #[test]
    fn consecutive_jaccard_of_equal_rows_is_one() {
        let a = CsrMatrix::from_row_lists(
            4,
            vec![vec![(0, 1.0), (1, 1.0)], vec![(0, 2.0), (1, 2.0)], vec![(0, 3.0), (1, 3.0)]],
        );
        assert_eq!(avg_consecutive_jaccard(&a), 1.0);
    }

    #[test]
    fn empty_matrix_stats() {
        let a = CsrMatrix::zeros(0, 0);
        let s = stats(&a);
        assert_eq!(s.nnz, 0);
        assert_eq!(s.avg_row_nnz, 0.0);
        assert_eq!(s.avg_consecutive_jaccard, 1.0);
    }
}
