//! B-row access traces.
//!
//! Row-wise Gustavson touches row `k` of `B` once for every nonzero `a_ik`,
//! in row-major order of `A`. The *sequence* of those accesses is exactly
//! what determines temporal locality in `B` — the quantity reordering and
//! clustering optimize. `cw-cachesim` replays these traces through a cache
//! model to measure locality deterministically (our stand-in for the paper's
//! hardware measurements).

use cw_sparse::CsrMatrix;

/// The sequence of `B`-row indices accessed by row-wise Gustavson on `A·B`.
///
/// This is simply `A.col_idx` in row order — one access per nonzero of `A`.
pub fn rowwise_b_access_trace(a: &CsrMatrix) -> Vec<u32> {
    a.col_idx.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_col_idx_in_row_order() {
        let a = CsrMatrix::from_row_lists(4, vec![vec![(2, 1.0), (3, 1.0)], vec![(0, 1.0)]]);
        assert_eq!(rowwise_b_access_trace(&a), vec![2, 3, 0]);
    }

    #[test]
    fn empty_matrix_trace() {
        let a = CsrMatrix::zeros(3, 3);
        assert!(rowwise_b_access_trace(&a).is_empty());
    }
}
