//! Masked row-wise SpGEMM, `C⟨M⟩ = A · B`, with the mask fused into the
//! accumulator.
//!
//! Computing `A · B` and then [`crate::apply_mask`]-ing it accumulates,
//! sorts, stages and copies every entry of the product to keep the few the
//! mask names — on a triangle-counting product `(A·A) ∩ A` that is tens of
//! entries built per entry kept. Here the mask row goes in *first*: each
//! output row seeds its accumulator with the mask row's columns, `add` sends
//! a product whose column was not admitted where extraction never looks,
//! and extraction walks the mask row — which is already in ascending column
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

use crate::accumulator::{hash32, AccumulatorKind, EMPTY};
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

/// Sink slots per row: misses spread over 8 do not form one `+=` chain.
const SINKS: usize = 8;

/// Dense column → slot map: a column's position in the current mask row, or
/// `EMPTY`. Sums and hit flags are compact, by position, and followed by
/// [`SINKS`] slots that take the products of columns the row does not admit:
/// on `(A·A) ∩ A` of a shuffled `rmat(12, 6)` 13.8 % of the multiply-adds hit
/// an admitted column, too many for a branch on admission to predict, so
/// `add` selects its slot and always does one `+=` and one flag store.
/// `seed` parks each admitted sum at `-0.0` (a first product leaves it
/// unchanged to the bit) and clears its flag, so no sink's leftovers reach a
/// later row. Per column a worker keeps 4 B, not a value and a stamp (12 B).
#[derive(Debug)]
pub(crate) struct SlotMapped {
    slot: Vec<u32>,
    vals: Vec<Value>,
    hit: Vec<bool>,
    /// The current row's admitted-column count: its first sink slot.
    sink: u32,
}

impl MaskAccumulator for SlotMapped {
    fn with_ncols(ncols: usize) -> Self {
        SlotMapped { slot: vec![EMPTY; ncols], vals: Vec::new(), hit: Vec::new(), sink: 0 }
    }

    fn seed(&mut self, admitted: &[ColIdx]) {
        let len = admitted.len() + SINKS;
        if len > self.vals.len() {
            self.vals.resize(len, 0.0);
            self.hit.resize(len, false);
        }
        for (p, &col) in admitted.iter().enumerate() {
            self.slot[col as usize] = p as u32;
            self.vals[p] = -0.0;
            self.hit[p] = false;
        }
        self.sink = admitted.len() as u32;
    }

    #[inline]
    fn add(&mut self, col: ColIdx, val: Value) {
        let s = self.slot[col as usize];
        let p = if s == EMPTY { self.sink + col % SINKS as u32 } else { s } as usize;
        self.vals[p] += val;
        self.hit[p] = true;
    }

    fn extract_into(
        &mut self,
        admitted: &[ColIdx],
        cols: &mut [ColIdx],
        vals: &mut [Value],
    ) -> usize {
        let mut n = 0;
        for (p, &col) in admitted.iter().enumerate() {
            if self.hit[p] {
                cols[n] = col;
                vals[n] = self.vals[p];
                n += 1;
            }
            self.slot[col as usize] = EMPTY;
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
    match opts.acc.resolve(b.ncols) {
        AccumulatorKind::Dense => masked_kernel::<SlotMapped>(a, b, mask, opts, row_map),
        AccumulatorKind::Hash => masked_kernel::<SeededHash>(a, b, mask, opts, row_map),
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
    let target = chunk_target(opts.parallel);
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
    fn slot_mapped_basic() {
        exercise(SlotMapped::with_ncols(16));
    }

    #[test]
    fn slot_mapped_is_seeded_hash_and_the_filtered_row_on_signed_zeros_and_nans() {
        use crate::accumulator::tests::{bits, odd_terms};
        use crate::accumulator::{Accumulator, HashAccumulator};
        for groups in [1, 4] {
            let seq = odd_terms(groups);
            // Two masks over one more column than the row reaches (so each
            // admits a column that receives nothing), alternated: a column's
            // sum must not leak into the next row that admits it.
            let width = 13 * groups + 1;
            let masks: [Vec<ColIdx>; 2] = [
                (0..width).filter(|c| c % 3 != 1).collect(),
                (0..width).filter(|c| c % 2 == 0).collect(),
            ];
            let mut full = HashAccumulator::new();
            seq.iter().for_each(|&(c, v)| full.add(c, v));
            let (mut cols, mut vals) = (vec![0; full.len()], vec![0.0; full.len()]);
            full.extract_into(&mut cols, &mut vals);
            let mut mapped = SlotMapped::with_ncols(width as usize);
            let mut seeded = SeededHash::with_ncols(width as usize);
            for round in 0..2 {
                for admitted in &masks {
                    let (kept, kept_vals): (Vec<ColIdx>, Vec<Value>) =
                        cols.iter().zip(&vals).filter(|(c, _)| admitted.contains(c)).unzip();
                    let expect = (kept, bits(&kept_vals));
                    for (name, got) in [
                        ("mapped", row(&mut mapped, admitted, &seq)),
                        ("seeded", row(&mut seeded, admitted, &seq)),
                    ] {
                        assert_eq!(
                            (got.0, bits(&got.1)),
                            expect,
                            "{name}, {groups} groups, {round}"
                        );
                    }
                }
            }
        }
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
    fn slot_mapped_sinks_never_reach_a_later_row() {
        let mut acc = SlotMapped::with_ncols(32);
        // Every product misses the one admitted column: they land in the
        // sinks at positions 1..=8.
        let misses: Vec<(ColIdx, Value)> = (1..=SINKS as ColIdx).map(|c| (c, 1.0)).collect();
        assert_eq!(row(&mut acc, &[0], &misses), (vec![], vec![]));
        // A longer row admits those positions; only its own product shows.
        let admitted: Vec<ColIdx> = (10..20).collect();
        assert_eq!(row(&mut acc, &admitted, &[(15, 2.0)]), (vec![15], vec![2.0]));
        assert!(acc.slot.iter().all(|&s| s == EMPTY));
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
                    let opts = SpGemmOptions { acc, parallel };
                    let got = spgemm_masked_with(&a, &b, &mask, &opts);
                    assert!(got.bits_eq(&expect), "{acc:?} parallel {parallel}");
                }
            }
        }
    }

    #[test]
    fn row_wise_and_masked_kernels_keep_signed_zeros_and_nans_to_the_bit() {
        use crate::rowwise::spgemm_with;
        // Stored -0.0 and +0.0 among numbers, two infinities and one NaN:
        // their products include columns whose only terms are -0.0.
        let mut a = erdos_renyi(300, 12, 3);
        for (k, v) in a.vals.iter_mut().enumerate() {
            *v = [-0.0, 1.5, -0.0, 0.0, -2.0, -0.0, 0.75][k % 7];
        }
        (a.vals[17], a.vals[40], a.vals[100]) =
            (f64::INFINITY, f64::NEG_INFINITY, f64::from_bits(0xfff8_0000_0000_0b0b));
        let full = spgemm_serial(&a, &a);
        let has = |f: fn(&f64) -> bool| full.vals.iter().any(f);
        assert!(has(|v| v.to_bits() == (-0.0f64).to_bits()) && has(|v| v.to_bits() == 0));
        assert!(has(|v| v.is_nan()) && has(|v| v.is_infinite()));
        for mask in [a.clone(), full.clone()] {
            let expect = apply_mask(&full, &mask);
            for acc in [AccumulatorKind::Hash, AccumulatorKind::Dense] {
                for parallel in [false, true] {
                    let opts = SpGemmOptions { acc, parallel };
                    assert!(spgemm_with(&a, &a, &opts).bits_eq(&full), "{acc:?} {parallel}");
                    let got = spgemm_masked_with(&a, &a, &mask, &opts);
                    assert!(got.bits_eq(&expect), "masked {acc:?} {parallel}");
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
        for acc in [AccumulatorKind::Hash, AccumulatorKind::Dense] {
            let c = spgemm_masked_with(&a, &b, &mask, &SpGemmOptions { acc, ..Default::default() });
            assert_eq!(c.row(0), (&[2u32][..], &[1.0][..]), "{acc:?}");
            assert_eq!(c.row(1), (&[1u32][..], &[2.0][..]), "{acc:?}");
        }
    }

    #[test]
    #[should_panic(expected = "mask must match")]
    fn mask_shape_mismatch_panics() {
        let a = CsrMatrix::identity(3);
        spgemm_masked_with(&a, &a, &CsrMatrix::zeros(3, 4), &SpGemmOptions::default());
    }
}
