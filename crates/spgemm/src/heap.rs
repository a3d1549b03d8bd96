//! Heap-merge row-wise SpGEMM — the accumulator-free alternative.
//!
//! Instead of scattering partial products into an accumulator, each output
//! row is formed by a k-way merge of the (already sorted) `B` rows selected
//! by the `A` row, driven by a binary min-heap of cursors. This is the
//! "heap SpGEMM" of the literature (e.g. CombBLAS): `O(f log k)` work per
//! row but perfectly streaming access — a structurally different
//! implementation kept as an independent oracle
//! (`tests/kernel_cross_validation.rs`).

use cw_sparse::{ColIdx, CsrMatrix, Value};
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One cursor into a scaled B row: `(current column, stream id)`.
type Cursor = Reverse<(ColIdx, u32)>;

/// `C = A · B` via per-row k-way heap merge (parallel over rows).
pub fn spgemm_heap(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!(a.ncols, b.nrows, "dimension mismatch");
    let rows: Vec<(Vec<ColIdx>, Vec<Value>)> =
        (0..a.nrows).into_par_iter().map(|i| merge_row(a, b, i)).collect();
    let mut row_ptr = Vec::with_capacity(a.nrows + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    for (c, v) in rows {
        col_idx.extend_from_slice(&c);
        vals.extend_from_slice(&v);
        row_ptr.push(col_idx.len());
    }
    CsrMatrix { nrows: a.nrows, ncols: b.ncols, row_ptr, col_idx, vals }
}

fn merge_row(a: &CsrMatrix, b: &CsrMatrix, i: usize) -> (Vec<ColIdx>, Vec<Value>) {
    let (a_cols, a_vals) = a.row(i);
    let k = a_cols.len();
    // Per-stream state: the B row slice and the A scale factor.
    let mut positions = vec![0usize; k];
    let mut heap: BinaryHeap<Cursor> = BinaryHeap::with_capacity(k);
    for (s, &bk) in a_cols.iter().enumerate() {
        let cols = b.row_cols(bk as usize);
        if !cols.is_empty() {
            heap.push(Reverse((cols[0], s as u32)));
        }
    }
    let mut out_c: Vec<ColIdx> = Vec::new();
    let mut out_v: Vec<Value> = Vec::new();
    while let Some(Reverse((col, s))) = heap.pop() {
        let s = s as usize;
        let bk = a_cols[s] as usize;
        let (b_cols, b_vals) = b.row(bk);
        let contrib = a_vals[s] * b_vals[positions[s]];
        match out_c.last() {
            Some(&last) if last == col => *out_v.last_mut().unwrap() += contrib,
            _ => {
                out_c.push(col);
                out_v.push(contrib);
            }
        }
        positions[s] += 1;
        if positions[s] < b_cols.len() {
            heap.push(Reverse((b_cols[positions[s]], s as u32)));
        }
    }
    (out_c, out_v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowwise::{dense_reference, spgemm_serial};
    use cw_sparse::gen::banded::block_diagonal;
    use cw_sparse::gen::er::erdos_renyi;
    use cw_sparse::gen::grid::poisson2d;

    #[test]
    fn heap_matches_hash_kernel() {
        let a = poisson2d(10, 9);
        let expect = spgemm_serial(&a, &a);
        let got = spgemm_heap(&a, &a);
        assert!(got.approx_eq(&expect, 1e-10));
    }

    #[test]
    fn heap_matches_dense_on_random() {
        let a = erdos_renyi(35, 5, 4);
        assert!(spgemm_heap(&a, &a).numerically_eq(&dense_reference(&a, &a), 1e-9));
    }

    #[test]
    fn heap_handles_duplicate_heavy_rows() {
        // Dense blocks maximize equal column ids meeting in the merge.
        let a = block_diagonal(48, (6, 6), 0.0, 2);
        assert!(spgemm_heap(&a, &a).approx_eq(&spgemm_serial(&a, &a), 1e-10));
    }

    #[test]
    fn heap_output_is_sorted_and_valid() {
        let a = erdos_renyi(25, 6, 8);
        spgemm_heap(&a, &a).validate().unwrap();
    }

    #[test]
    fn heap_empty_rows() {
        let a = CsrMatrix::from_row_lists(3, vec![vec![], vec![(0, 2.0)], vec![]]);
        let b = CsrMatrix::identity(3);
        let c = spgemm_heap(&a, &b);
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(1, 0), Some(2.0));
    }
}
