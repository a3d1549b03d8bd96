//! Output-shape postprocess kernels: masked and per-row top-k truncation.
//!
//! SpGEMM consumers rarely want the full product: similarity search keeps
//! only the `k` strongest entries per row, and masked SpGEMM (the
//! GraphBLAS `C⟨M⟩ = A·B` idiom) keeps only positions named by a mask
//! pattern. Both are **row-local** transforms — each output row depends
//! only on the same row of the input — so they commute with row
//! permutation: a plan may compute its rows in any (reordered) order, and
//! the shaped product stays bit-identical to the serial reference with the
//! same transform applied, wherever in the pipeline the rows are put back
//! (the engine's kernels do it as they pack their output, so these
//! functions see rows and masks in the caller's order).
//!
//! These functions *define* the shapes. They are what runs where no kernel
//! fuses the shape (top-k, and masks over cluster-wise or sort-accumulator
//! products), and the oracle for the one that does:
//! [`crate::spgemm_masked_with`] equals `apply_mask` of the product without
//! building the entries `apply_mask` would drop.
//!
//! Both kernels are deterministic: [`apply_mask`] preserves the input's
//! column order, and [`row_topk`] breaks magnitude ties toward the
//! smaller column index, so two runs producing bit-identical full
//! products (parallel and serial) produce bit-identical shaped products.

use cw_sparse::{ColIdx, CsrMatrix, Value};

/// Keeps only the entries of `c` whose positions appear in `mask`'s
/// sparsity pattern (values come from `c`; `mask`'s values are ignored).
///
/// This is the GraphBLAS-style structural mask: `out[i][j] = c[i][j]` iff
/// `mask` has an entry at `(i, j)` — including explicit zeros, which count
/// as present. Rows of `mask` that are empty erase the whole output row.
///
/// # Panics
///
/// Panics if `mask` is not the same shape as `c` (`nrows × ncols`).
///
/// # Examples
///
/// ```
/// use cw_sparse::CsrMatrix;
/// use cw_spgemm::apply_mask;
///
/// let c = CsrMatrix {
///     nrows: 2,
///     ncols: 3,
///     row_ptr: vec![0, 3, 4],
///     col_idx: vec![0, 1, 2, 1],
///     vals: vec![1.0, 2.0, 3.0, 4.0],
/// };
/// // Keep only column 1 of row 0; row 1's mask row is empty.
/// let mask = CsrMatrix {
///     nrows: 2,
///     ncols: 3,
///     row_ptr: vec![0, 1, 1],
///     col_idx: vec![1],
///     vals: vec![1.0],
/// };
/// let shaped = apply_mask(&c, &mask);
/// assert_eq!(shaped.row(0), (&[1u32][..], &[2.0][..]));
/// assert_eq!(shaped.row(1), (&[][..], &[][..]));
/// ```
pub fn apply_mask(c: &CsrMatrix, mask: &CsrMatrix) -> CsrMatrix {
    assert_eq!((mask.nrows, mask.ncols), (c.nrows, c.ncols), "mask must match the product's shape");
    let mut row_ptr = Vec::with_capacity(c.nrows + 1);
    row_ptr.push(0usize);
    let mut col_idx: Vec<ColIdx> = Vec::new();
    let mut vals: Vec<Value> = Vec::new();
    for i in 0..c.nrows {
        let (c_cols, c_vals) = c.row(i);
        let (m_cols, _) = mask.row(i);
        // Sorted-list intersection: both sides are strictly increasing.
        let (mut p, mut q) = (0usize, 0usize);
        while p < c_cols.len() && q < m_cols.len() {
            match c_cols[p].cmp(&m_cols[q]) {
                std::cmp::Ordering::Less => p += 1,
                std::cmp::Ordering::Greater => q += 1,
                std::cmp::Ordering::Equal => {
                    col_idx.push(c_cols[p]);
                    vals.push(c_vals[p]);
                    p += 1;
                    q += 1;
                }
            }
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix { nrows: c.nrows, ncols: c.ncols, row_ptr, col_idx, vals }
}

/// Keeps the `k` largest-magnitude entries of each row of `c`.
///
/// Rows with at most `k` entries are kept whole; `k == 0` empties every
/// row. Ties in `|value|` are broken toward the **smaller column index**,
/// and the surviving entries are emitted in ascending column order, so
/// the result is deterministic for any input. NaN magnitudes rank above
/// all finite magnitudes (IEEE-754 `total_cmp` order), so a NaN entry is
/// always kept while room remains.
///
/// # Examples
///
/// ```
/// use cw_sparse::CsrMatrix;
/// use cw_spgemm::row_topk;
///
/// let c = CsrMatrix {
///     nrows: 1,
///     ncols: 4,
///     row_ptr: vec![0, 4],
///     col_idx: vec![0, 1, 2, 3],
///     vals: vec![0.5, -3.0, 2.0, 1.0],
/// };
/// let top2 = row_topk(&c, 2);
/// // The two largest magnitudes are -3.0 (col 1) and 2.0 (col 2),
/// // emitted back in column order.
/// assert_eq!(top2.row(0), (&[1u32, 2][..], &[-3.0, 2.0][..]));
///
/// // k at least the row's nnz keeps the row bit-identical.
/// assert_eq!(row_topk(&c, 10), c);
/// ```
pub fn row_topk(c: &CsrMatrix, k: usize) -> CsrMatrix {
    let mut row_ptr = Vec::with_capacity(c.nrows + 1);
    row_ptr.push(0usize);
    let mut col_idx: Vec<ColIdx> = Vec::new();
    let mut vals: Vec<Value> = Vec::new();
    let mut order: Vec<usize> = Vec::new();
    for i in 0..c.nrows {
        let (cols, row_vals) = c.row(i);
        if cols.len() <= k {
            col_idx.extend_from_slice(cols);
            vals.extend_from_slice(row_vals);
        } else if k > 0 {
            order.clear();
            order.extend(0..cols.len());
            // Largest magnitude first; ties toward the smaller column.
            order.sort_by(|&a, &b| {
                row_vals[b].abs().total_cmp(&row_vals[a].abs()).then_with(|| cols[a].cmp(&cols[b]))
            });
            order.truncate(k);
            order.sort_unstable(); // back to ascending column order
            for &p in &order {
                col_idx.push(cols[p]);
                vals.push(row_vals[p]);
            }
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix { nrows: c.nrows, ncols: c.ncols, row_ptr, col_idx, vals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::CooMatrix;

    fn sample() -> CsrMatrix {
        let mut coo = CooMatrix::new(4, 5);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, -5.0);
        coo.push(0, 4, 5.0); // magnitude tie with col 2
        coo.push(1, 1, 0.0); // explicit zero
        coo.push(2, 0, 2.0);
        coo.push(2, 1, 3.0);
        coo.push(2, 3, -1.0);
        coo.to_csr()
    }

    #[test]
    fn mask_keeps_only_named_positions() {
        let c = sample();
        let mut m = CooMatrix::new(4, 5);
        m.push(0, 2, 9.0); // present in c
        m.push(0, 3, 9.0); // absent in c
        m.push(2, 1, 0.0); // explicit-zero mask entry still counts
        let masked = apply_mask(&c, &m.to_csr());
        assert_eq!(masked.row(0), (&[2u32][..], &[-5.0][..]));
        assert_eq!(masked.row(1).0.len(), 0);
        assert_eq!(masked.row(2), (&[1u32][..], &[3.0][..]));
        assert_eq!(masked.row(3).0.len(), 0);
    }

    #[test]
    fn empty_mask_empties_everything() {
        let c = sample();
        let masked = apply_mask(&c, &CsrMatrix::zeros(4, 5));
        assert_eq!(masked.nnz(), 0);
        assert_eq!(masked.nrows, 4);
        assert_eq!(masked.ncols, 5);
    }

    #[test]
    #[should_panic(expected = "mask must match")]
    fn mask_shape_mismatch_panics() {
        apply_mask(&sample(), &CsrMatrix::zeros(4, 4));
    }

    #[test]
    fn topk_ties_break_toward_smaller_column() {
        let c = sample();
        // Row 0 has |-5.0| at col 2 and |5.0| at col 4: k=1 keeps col 2.
        let top1 = row_topk(&c, 1);
        assert_eq!(top1.row(0), (&[2u32][..], &[-5.0][..]));
        // Rows at or under k are bit-identical.
        assert_eq!(top1.row(1), c.row(1));
    }

    #[test]
    fn topk_extremes() {
        let c = sample();
        assert_eq!(row_topk(&c, 0).nnz(), 0);
        assert_eq!(row_topk(&c, usize::MAX), c);
    }

    #[test]
    fn topk_output_stays_column_sorted() {
        let c = sample();
        let t = row_topk(&c, 2);
        for i in 0..t.nrows {
            let (cols, _) = t.row(i);
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {i} not sorted: {cols:?}");
        }
    }
}
