//! Masked row-wise SpGEMM, `C⟨M⟩ = A · B`, with the mask fused into the
//! accumulator.
//!
//! Computing `A · B` and then [`crate::apply_mask`]-ing it accumulates,
//! sorts, stages and copies every entry of the product to keep the few the
//! mask names — on a triangle-counting product `(A·A) ∩ A` that is tens of
//! entries built per entry kept. Here the mask row goes in *first*: each
//! output row seeds its accumulator with the mask row's columns, `add` drops
//! a product whose column was not admitted before it costs a slot, and
//! extraction walks the mask row — which is already in ascending column
//! order — emitting the columns that received a product. Nothing is sorted,
//! no list of touched columns is kept, and a row's output is bounded by
//! `min(nnz(mask row), flops(row))`, so the staging slab is at most
//! `nnz(mask)` entries instead of `Σ min(flops, ncols)`.
//!
//! Every multiply still runs, in the same ascending-`k` order as every other
//! kernel (`rowwise::accumulate_row`), so a surviving entry is the
//! same sum of the same terms: the result is bit-identical to
//! `apply_mask(&spgemm_serial(a, b), mask)`. Chunks are balanced by the same
//! per-row FLOP counts as the unmasked kernel for the same reason.
//!
//! The mask must satisfy the CSR invariant (`CsrMatrix::validate`: strictly
//! ascending, in-range columns per row), like `A` and `B`; its values are
//! ignored.

use crate::accumulator::{dense_fits, hash32, AccumulatorKind, EMPTY};
use crate::flops::flops_per_row_on;
use crate::rowwise::{accumulate_row, CsrRows, SpGemmOptions};
use crate::single_pass::{chunk_target, plan_chunks, single_pass};
use cw_sparse::{ColIdx, CsrMatrix, Permutation, Value};

/// A per-row accumulator that holds only the columns a mask row admits.
pub(crate) trait MaskAccumulator: Send {
    /// A fresh accumulator for output rows `ncols` columns wide.
    fn with_ncols(ncols: usize) -> Self;
    /// Admits exactly `admitted` (strictly ascending) for the next row.
    fn seed(&mut self, admitted: &[ColIdx]);
    /// Adds `val` at `col` if the column was admitted; drops it otherwise.
    fn add(&mut self, col: ColIdx, val: Value);
    /// Writes the admitted columns that received a product — in the order
    /// of `admitted`, which must be the slice the row was seeded with — to
    /// the front of `cols`/`vals`, forgets the row, and returns how many
    /// entries were written.
    fn extract_into(
        &mut self,
        admitted: &[ColIdx],
        cols: &mut [ColIdx],
        vals: &mut [Value],
    ) -> usize;
}

/// Slots per admitted column in a [`SeededHash`] row. Most products fall
/// on a column the mask does not admit, so the common `add` is an
/// unsuccessful lookup: at 1/16 load, 15 in 16 of them end at the first
/// slot they probe, on a branch that predicts. (At the usual 1/2 load the
/// same kernel ran 3× slower.)
const SLOTS_PER_COLUMN: usize = 16;

/// Open-addressing table seeded with the mask row: `add` only ever probes,
/// so it never grows and never claims a slot.
///
/// Between rows every key is `EMPTY`. A row probes only the first
/// `mask + 1` slots, sized to that row, so short rows stay in a few cache
/// lines whatever the longest row needed.
#[derive(Debug)]
pub(crate) struct SeededHash {
    keys: Vec<u32>,
    vals: Vec<Value>,
    /// Whether the slot's column has received a product in this row.
    hit: Vec<bool>,
    /// Slot of each admitted column, in mask-row order.
    slots: Vec<u32>,
    mask: usize,
    /// Largest table a row may use: twice the row width, so a dense mask
    /// row costs what a dense accumulator would, not 16× that.
    max_cap: usize,
}

impl MaskAccumulator for SeededHash {
    fn with_ncols(ncols: usize) -> Self {
        SeededHash {
            keys: Vec::new(),
            vals: Vec::new(),
            hit: Vec::new(),
            slots: Vec::new(),
            mask: 0,
            max_cap: (2 * ncols).next_power_of_two().max(8),
        }
    }

    fn seed(&mut self, admitted: &[ColIdx]) {
        let cap = (admitted.len() * SLOTS_PER_COLUMN).next_power_of_two().clamp(8, self.max_cap);
        // Every probe loop ends at a free slot. A valid mask row (no longer
        // than the matrix is wide) leaves at least half of them free.
        assert!(admitted.len() < cap, "mask row has more entries than the product has columns");
        if cap > self.keys.len() {
            self.keys.resize(cap, EMPTY);
            self.vals.resize(cap, 0.0);
            self.hit.resize(cap, false);
        }
        self.mask = cap - 1;
        self.slots.clear();
        for &col in admitted {
            debug_assert_ne!(col, EMPTY);
            let mut h = hash32(col, self.mask);
            while self.keys[h] != EMPTY && self.keys[h] != col {
                h = (h + 1) & self.mask;
            }
            self.keys[h] = col;
            self.slots.push(h as u32);
        }
    }

    #[inline]
    fn add(&mut self, col: ColIdx, val: Value) {
        let mut h = hash32(col, self.mask);
        loop {
            let k = self.keys[h];
            if k == col {
                if self.hit[h] {
                    self.vals[h] += val;
                } else {
                    self.hit[h] = true;
                    self.vals[h] = val;
                }
                return;
            }
            if k == EMPTY {
                return;
            }
            h = (h + 1) & self.mask;
        }
    }

    fn extract_into(
        &mut self,
        admitted: &[ColIdx],
        cols: &mut [ColIdx],
        vals: &mut [Value],
    ) -> usize {
        let mut n = 0;
        for (&col, &slot) in admitted.iter().zip(&self.slots) {
            let slot = slot as usize;
            if self.hit[slot] {
                self.hit[slot] = false;
                cols[n] = col;
                vals[n] = self.vals[slot];
                n += 1;
            }
            self.keys[slot] = EMPTY;
        }
        n
    }
}

/// Dense accumulator with two generations of stamp per row: `admitted`
/// marks a column the mask row names, `admitted + 1` one that has also
/// received a product. Any other stamp is a column of some earlier row, so
/// reset is `O(1)`.
#[derive(Debug)]
pub(crate) struct StampedDense {
    vals: Vec<Value>,
    stamp: Vec<u32>,
    admitted: u32,
}

impl MaskAccumulator for StampedDense {
    fn with_ncols(ncols: usize) -> Self {
        StampedDense { vals: vec![0.0; ncols], stamp: vec![0; ncols], admitted: 1 }
    }

    fn seed(&mut self, admitted: &[ColIdx]) {
        for &col in admitted {
            self.stamp[col as usize] = self.admitted;
        }
    }

    #[inline]
    fn add(&mut self, col: ColIdx, val: Value) {
        let c = col as usize;
        debug_assert!(c < self.vals.len());
        let stamp = self.stamp[c];
        if stamp == self.admitted + 1 {
            self.vals[c] += val;
        } else if stamp == self.admitted {
            self.stamp[c] = self.admitted + 1;
            self.vals[c] = val;
        }
    }

    fn extract_into(
        &mut self,
        admitted: &[ColIdx],
        cols: &mut [ColIdx],
        vals: &mut [Value],
    ) -> usize {
        let mut n = 0;
        for &col in admitted {
            if self.stamp[col as usize] == self.admitted + 1 {
                cols[n] = col;
                vals[n] = self.vals[col as usize];
                n += 1;
            }
        }
        if self.admitted >= u32::MAX - 2 {
            // Stamp wrap-around: invalidate everything once per 2^31 rows.
            self.stamp.fill(0);
            self.admitted = 1;
        } else {
            self.admitted += 2;
        }
        n
    }
}

/// `C⟨mask⟩ = A · B`: the entries of `A · B` at positions present in
/// `mask`'s sparsity pattern (explicit zeros count as present; `mask`'s
/// values are ignored), bit-identical to
/// `apply_mask(&spgemm_with(a, b, opts), mask)`.
///
/// The mask is fused into the kernel for either accumulator (see the module
/// docs).
///
/// # Panics
///
/// Panics if `A`'s columns do not match `B`'s rows, or if `mask` is not the
/// product's shape (`a.nrows × b.ncols`).
///
/// # Examples
///
/// ```
/// use cw_sparse::CsrMatrix;
/// use cw_spgemm::{spgemm_masked_with, SpGemmOptions};
///
/// // A path 0 – 1 – 2: A·A has the two-step walks, none of which is an edge.
/// let a = CsrMatrix::from_row_lists(
///     3,
///     vec![vec![(1, 1.0)], vec![(0, 1.0), (2, 1.0)], vec![(1, 1.0)]],
/// );
/// assert_eq!(spgemm_masked_with(&a, &a, &a, &SpGemmOptions::default()).nnz(), 0);
/// // Masked by the diagonal it keeps each vertex's degree.
/// let c = spgemm_masked_with(&a, &a, &CsrMatrix::identity(3), &SpGemmOptions::default());
/// assert_eq!(c.vals, vec![1.0, 2.0, 1.0]);
/// ```
pub fn spgemm_masked_with(
    a: &CsrMatrix,
    b: &CsrMatrix,
    mask: &CsrMatrix,
    opts: &SpGemmOptions,
) -> CsrMatrix {
    spgemm_masked_mapped(a, b, mask, opts, None)
}

/// [`spgemm_masked_with`] with the product's rows stored where `row_map`
/// says (see [`crate::rowwise::spgemm_mapped`]). `mask` is in the *result's*
/// row order: row `i` of `A · B` is filtered by, and stored as, row
/// `row_map.old_of(i)`.
///
/// # Panics
///
/// As [`spgemm_masked_with`], or if `row_map` does not have one entry per
/// row of `A`.
pub fn spgemm_masked_mapped(
    a: &CsrMatrix,
    b: &CsrMatrix,
    mask: &CsrMatrix,
    opts: &SpGemmOptions,
    row_map: Option<&Permutation>,
) -> CsrMatrix {
    assert_eq!(
        a.ncols, b.nrows,
        "dimension mismatch: A is {}x{}, B is {}x{}",
        a.nrows, a.ncols, b.nrows, b.ncols
    );
    assert_eq!((mask.nrows, mask.ncols), (a.nrows, b.ncols), "mask must match the product's shape");
    debug_assert!(mask.validate().is_ok(), "mask violates the CSR invariant");
    match opts.acc {
        AccumulatorKind::Dense if dense_fits(b.ncols, 1) => {
            masked_kernel::<StampedDense>(a, b, mask, opts, row_map)
        }
        _ => masked_kernel::<SeededHash>(a, b, mask, opts, row_map),
    }
}

fn masked_kernel<M: MaskAccumulator>(
    a: &CsrMatrix,
    b: &CsrMatrix,
    mask: &CsrMatrix,
    opts: &SpGemmOptions,
    row_map: Option<&Permutation>,
) -> CsrMatrix {
    // The mask row that admits row `i` of `A · B`.
    let mask_row = |i: usize| row_map.map_or(i, |map| map.old_of(i));
    let target = chunk_target(opts.parallel, opts.chunks_per_thread);
    let (a, b) = (CsrRows::from(a), CsrRows::from(b));
    let flops = flops_per_row_on(a, b, target > 1);
    let out_bound = |i: usize| flops[i].min(mask.row_nnz(mask_row(i)) as u64) as usize;
    let chunks = plan_chunks(&flops, target, |i| i, out_bound);
    single_pass(
        a.nrows,
        b.ncols,
        &chunks,
        row_map,
        || M::with_ncols(b.ncols),
        |acc, rows, sink| {
            for i in rows {
                let admitted = mask.row_cols(mask_row(i));
                acc.seed(admitted);
                accumulate_row(a, b, i, |col, val| acc.add(col, val));
                sink.push_masked_row(acc, admitted);
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowwise::spgemm_serial;
    use crate::shape::apply_mask;
    use cw_sparse::gen::{er::erdos_renyi, rmat::rmat, rmat::RmatParams};

    /// Seeds, adds and extracts one row.
    fn row<M: MaskAccumulator>(
        acc: &mut M,
        admitted: &[ColIdx],
        products: &[(ColIdx, Value)],
    ) -> (Vec<ColIdx>, Vec<Value>) {
        acc.seed(admitted);
        for &(col, val) in products {
            acc.add(col, val);
        }
        let (mut cols, mut vals) = (vec![0; admitted.len()], vec![0.0; admitted.len()]);
        let n = acc.extract_into(admitted, &mut cols, &mut vals);
        cols.truncate(n);
        vals.truncate(n);
        (cols, vals)
    }

    fn exercise<M: MaskAccumulator>(mut acc: M) {
        // Column 3 is not admitted; 7 is admitted and never touched; the two
        // products at 9 cancel to a stored zero.
        let got =
            row(&mut acc, &[2, 5, 7, 9], &[(5, 1.0), (3, 8.0), (9, 1.5), (5, 3.0), (9, -1.5)]);
        assert_eq!(got, (vec![5, 9], vec![4.0, 0.0]));
        // Nothing of that row is left: 5 is no longer admitted, and 3 starts
        // from its first product.
        assert_eq!(row(&mut acc, &[3, 9], &[(5, 1.0), (3, 2.0)]), (vec![3], vec![2.0]));
        assert_eq!(row(&mut acc, &[], &[(3, 1.0)]), (vec![], vec![]));
        // A first product of -0.0 stays -0.0.
        let (_, vals) = row(&mut acc, &[1], &[(1, -0.0)]);
        assert_eq!(vals[0].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn seeded_hash_basic() {
        exercise(SeededHash::with_ncols(16));
    }

    #[test]
    fn stamped_dense_basic() {
        exercise(StampedDense::with_ncols(16));
    }

    #[test]
    fn seeded_hash_resizes_per_row_and_leaves_no_keys_behind() {
        let mut acc = SeededHash::with_ncols(7000);
        let long: Vec<ColIdx> = (0..1000).map(|c| c * 7).collect();
        let products: Vec<(ColIdx, Value)> = (0..7000).map(|c| (c, 1.0)).collect();
        let (cols, vals) = row(&mut acc, &long, &products);
        assert_eq!(cols, long);
        assert!(vals.iter().all(|&v| v == 1.0));
        assert!(acc.keys.iter().all(|&k| k == EMPTY) && acc.hit.iter().all(|&h| !h));
        // A short row after a long one probes a short prefix of the table.
        assert_eq!(row(&mut acc, &[14], &[(7, 1.0), (14, 2.0)]), (vec![14], vec![2.0]));
        assert_eq!(acc.mask, SLOTS_PER_COLUMN - 1);
        // A dense mask row gets twice the row width, not 16 slots a column.
        let mut narrow = SeededHash::with_ncols(4);
        let all: Vec<(ColIdx, Value)> = (0..4).map(|c| (c, 1.0)).collect();
        assert_eq!(row(&mut narrow, &[0, 1, 2, 3], &all).0, vec![0, 1, 2, 3]);
        assert_eq!(narrow.keys.len(), 8);
    }

    #[test]
    fn stamped_dense_wraparound_is_safe() {
        let mut acc = StampedDense::with_ncols(4);
        acc.admitted = u32::MAX - 2; // the last pair of stamps before the wrap
        assert_eq!(row(&mut acc, &[1, 2], &[(1, 5.0)]), (vec![1], vec![5.0]));
        assert_eq!(acc.admitted, 1);
        // After the wrap a stale stamp must read as neither admitted nor
        // touched: 2 was admitted above, 1 was touched.
        assert_eq!(row(&mut acc, &[3], &[(1, 7.0), (2, 7.0)]), (vec![], vec![]));
        assert_eq!(row(&mut acc, &[1], &[(1, 7.0)]), (vec![1], vec![7.0]));
    }

    #[test]
    fn fused_kernel_equals_the_post_filter() {
        let a = rmat(7, 6, RmatParams::default(), 5);
        let b = erdos_renyi(a.ncols, 4, 9);
        let full = spgemm_serial(&a, &b);
        for mask in [a.clone(), full.clone(), CsrMatrix::zeros(a.nrows, b.ncols)] {
            let expect = apply_mask(&full, &mask);
            for acc in [AccumulatorKind::Hash, AccumulatorKind::Dense] {
                for parallel in [false, true] {
                    let opts = SpGemmOptions { acc, parallel, chunks_per_thread: 4 };
                    let got = spgemm_masked_with(&a, &b, &mask, &opts);
                    assert!(got.bits_eq(&expect), "{acc:?} parallel {parallel}");
                }
            }
        }
    }

    #[test]
    fn a_row_fits_the_smaller_of_its_two_bounds() {
        // Row 0: 3 products under a 1-entry mask row; row 1: 1 product under
        // a 3-entry mask row. Each is staged in a window of one entry.
        let a = CsrMatrix::from_row_lists(2, vec![vec![(0, 1.0)], vec![(1, 1.0)]]);
        let b =
            CsrMatrix::from_row_lists(3, vec![vec![(0, 1.0), (1, 1.0), (2, 1.0)], vec![(1, 2.0)]]);
        let mask =
            CsrMatrix::from_row_lists(3, vec![vec![(2, 0.0)], vec![(0, 0.0), (1, 0.0), (2, 0.0)]]);
        let c = spgemm_masked_with(&a, &b, &mask, &SpGemmOptions::default());
        assert_eq!(c.row(0), (&[2u32][..], &[1.0][..]));
        assert_eq!(c.row(1), (&[1u32][..], &[2.0][..]));
    }

    #[test]
    #[should_panic(expected = "mask must match")]
    fn mask_shape_mismatch_panics() {
        let a = CsrMatrix::identity(3);
        spgemm_masked_with(&a, &a, &CsrMatrix::zeros(3, 4), &SpGemmOptions::default());
    }
}
