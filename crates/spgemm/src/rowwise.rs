//! Row-wise Gustavson SpGEMM over CSR (paper Fig. 1 / §2.2).
//!
//! The kernel is one-phase: each row's products are accumulated into a
//! sparse accumulator and the finished row is extracted straight into the
//! output, once. Sizing, chunking, the parallel fan-out and the output
//! assembly are [`crate::single_pass`]'s (rows are cut into contiguous
//! FLOP-balanced chunks, each writing into its own window of one staging
//! slab); this module supplies the per-row loop, monomorphised over the
//! accumulator type chosen once per call from [`SpGemmOptions::acc`].

use crate::accumulator::{
    dense_fits, Accumulator, AccumulatorKind, DenseAccumulator, HashAccumulator, LabelMap,
    SameLabels,
};
use crate::flops::flops_per_row_on;
use crate::single_pass::{chunk_target, plan_row_chunks, single_pass, OwnLines};
use cw_sparse::{ColIdx, CsrMatrix, Permutation, Value};
use rayon::prelude::*;

/// Tuning knobs for [`spgemm_with`].
#[derive(Debug, Clone, Copy)]
pub struct SpGemmOptions {
    /// Accumulator implementation. `Dense` runs only where it fits the
    /// output width ([`crate::accumulator::dense_fits`]); past that the
    /// kernel runs `Hash`, which gives the same bits.
    pub acc: AccumulatorKind,
    /// Use the rayon-parallel path.
    pub parallel: bool,
    /// Target number of row chunks per rayon thread (higher = better load
    /// balance, more scheduling overhead).
    pub chunks_per_thread: usize,
}

impl Default for SpGemmOptions {
    fn default() -> Self {
        SpGemmOptions { acc: AccumulatorKind::Hash, parallel: true, chunks_per_thread: 8 }
    }
}

/// The CSR arrays of an operand as the kernels read them: rows of
/// `(id, value)` pairs. Unlike a [`CsrMatrix`] the ids of a row may come in
/// any order — a row's order is the order its partial products are
/// accumulated in, nothing more — so an operand whose ids were relabelled
/// in place (and are no longer ascending) is still a valid input.
#[derive(Debug, Clone, Copy)]
pub struct CsrRows<'a> {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns (every id is below it).
    pub ncols: usize,
    /// Row offsets into `ids` / `vals` (`nrows + 1`).
    pub row_ptr: &'a [usize],
    /// Column ids, row by row.
    pub ids: &'a [ColIdx],
    /// Values, parallel to `ids`.
    pub vals: &'a [Value],
}

impl<'a> From<&'a CsrMatrix> for CsrRows<'a> {
    fn from(m: &'a CsrMatrix) -> Self {
        CsrRows {
            nrows: m.nrows,
            ncols: m.ncols,
            row_ptr: &m.row_ptr,
            ids: &m.col_idx,
            vals: &m.vals,
        }
    }
}

impl<'a> CsrRows<'a> {
    /// `(ids, vals)` of row `i` as parallel slices.
    #[inline]
    pub fn row(&self, i: usize) -> (&'a [ColIdx], &'a [Value]) {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.ids[lo..hi], &self.vals[lo..hi])
    }

    /// Stored entries of row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }
}

/// `C = A · B` with default options (hash accumulator, parallel).
pub fn spgemm(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    spgemm_with(a, b, &SpGemmOptions::default())
}

/// `C = A · B` on a single thread (hash accumulator).
pub fn spgemm_serial(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    spgemm_with(a, b, &SpGemmOptions { parallel: false, ..Default::default() })
}

/// `C = A · B` with explicit options.
pub fn spgemm_with(a: &CsrMatrix, b: &CsrMatrix, opts: &SpGemmOptions) -> CsrMatrix {
    spgemm_mapped(a, b, opts, None)
}

/// [`spgemm_with`] with the product's rows stored where `row_map` says: row
/// `i` of `A · B` becomes row `row_map.old_of(i)` of the result (`None`
/// keeps them in place). With `A = P·A₀` (`p.permute_rows(&a0)`) and
/// `Some(&p)` the result is `A₀ · B`, rows in `A₀`'s order, bit-identical to
/// multiplying `A₀` directly: the kernel reads its rows in the reordered,
/// cache-friendly order and [`crate::single_pass`] places each one at its
/// final offset in the copy every product makes anyway.
///
/// # Panics
///
/// Panics on a dimension mismatch, or if `row_map` does not have one entry
/// per row of `A`.
pub fn spgemm_mapped(
    a: &CsrMatrix,
    b: &CsrMatrix,
    opts: &SpGemmOptions,
    row_map: Option<&Permutation>,
) -> CsrMatrix {
    spgemm_labelled(a.into(), b.into(), opts, row_map, &SameLabels)
}

/// [`spgemm_mapped`] in a label space of the caller's choosing. The inner
/// dimension (`a`'s ids, `b`'s rows) and `b`'s ids may be numbered however
/// the operands agree on; entry `(i, j)` of the product is emitted as
/// `(row_map.old_of(i), labels.label(j))`, each row ascending in its
/// *labels*. Every output entry sums its partial products in the order row
/// `i` of `a` lists them.
///
/// The engine's two-sided plans are this with `a = b =` the rows of `P·A₀`,
/// ids relabelled through `P⁻¹` but left in `A₀`'s ascending order, and
/// `row_map = labels = P`: the kernel walks `B` rows and accumulator keys
/// that are near each other, and the result is `A₀ · A₀` bit for bit.
///
/// # Panics
///
/// Panics on a dimension mismatch, or if `row_map` does not have one entry
/// per row of `a`.
pub fn spgemm_labelled<L: LabelMap>(
    a: CsrRows<'_>,
    b: CsrRows<'_>,
    opts: &SpGemmOptions,
    row_map: Option<&Permutation>,
    labels: &L,
) -> CsrMatrix {
    assert_eq!(
        a.ncols, b.nrows,
        "dimension mismatch: A is {}x{}, B is {}x{}",
        a.nrows, a.ncols, b.nrows, b.ncols
    );
    // One dense accumulator per worker, `b.ncols` wide — or, past
    // `dense_fits`, the hash accumulator and the same bits.
    let kernel = match opts.acc {
        AccumulatorKind::Dense if dense_fits(b.ncols, 1) => rowwise_kernel::<DenseAccumulator, L>,
        _ => rowwise_kernel::<HashAccumulator, L>,
    };
    kernel(a, b, opts, row_map, labels)
}

/// Feeds every partial product `(column, a_ik · b_kj)` of `A[i,:] · B` to
/// `add`.
///
/// Every kernel in the crate funnels through this loop, so partial
/// products for one output entry always arrive in the same (ascending-k)
/// order — the invariant that makes accumulator choice bit-transparent.
#[inline]
pub(crate) fn accumulate_row(
    a: CsrRows<'_>,
    b: CsrRows<'_>,
    i: usize,
    mut add: impl FnMut(ColIdx, Value),
) {
    let (a_cols, a_vals) = a.row(i);
    for (&k, &av) in a_cols.iter().zip(a_vals) {
        let (b_cols, b_vals) = b.row(k as usize);
        for (&j, &bv) in b_cols.iter().zip(b_vals) {
            add(j, av * bv);
        }
    }
}

fn rowwise_kernel<A: Accumulator, L: LabelMap>(
    a: CsrRows<'_>,
    b: CsrRows<'_>,
    opts: &SpGemmOptions,
    row_map: Option<&Permutation>,
    labels: &L,
) -> CsrMatrix {
    let target = chunk_target(opts.parallel, opts.chunks_per_thread);
    let flops = flops_per_row_on(a, b, target > 1);
    let chunks = plan_row_chunks(&flops, b.ncols, target);
    single_pass(
        a.nrows,
        b.ncols,
        &chunks,
        row_map,
        || A::with_ncols(b.ncols),
        |acc, rows, sink| {
            for i in rows {
                accumulate_row(a, b, i, |col, val| acc.add(col, val));
                sink.push_labelled_row(acc, labels);
            }
        },
    )
}

/// Exact `nnz(C[i,:])` for every row, in parallel, without producing `C`.
///
/// An analysis probe (what a two-phase kernel's symbolic stage would cost,
/// exact output sizes for admission estimates) — not a stage of any
/// multiply: the kernels size their output from the FLOP upper bound and
/// never accumulate a row twice.
pub fn symbolic_row_nnz(a: &CsrMatrix, b: &CsrMatrix, kind: AccumulatorKind) -> Vec<usize> {
    match kind {
        AccumulatorKind::Dense if dense_fits(b.ncols, 1) => {
            symbolic_kernel::<DenseAccumulator>(a, b)
        }
        _ => symbolic_kernel::<HashAccumulator>(a, b),
    }
}

fn symbolic_kernel<A: Accumulator>(a: &CsrMatrix, b: &CsrMatrix) -> Vec<usize> {
    let (a, b) = (CsrRows::from(a), CsrRows::from(b));
    (0..a.nrows)
        .into_par_iter()
        .map_init(
            || OwnLines(A::with_ncols(b.ncols)),
            |OwnLines(acc), i| {
                accumulate_row(a, b, i, |col, val| acc.add(col, val));
                let n = acc.len();
                acc.clear();
                n
            },
        )
        .collect()
}

/// Dense reference multiply for testing (`O(n³)`, small inputs only).
pub fn dense_reference(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!(a.ncols, b.nrows);
    let da = a.to_dense();
    let db = b.to_dense();
    let mut dc = vec![0.0; a.nrows * b.ncols];
    for i in 0..a.nrows {
        for k in 0..a.ncols {
            let av = da[i * a.ncols + k];
            if av == 0.0 {
                continue;
            }
            for j in 0..b.ncols {
                dc[i * b.ncols + j] += av * db[k * b.ncols + j];
            }
        }
    }
    CsrMatrix::from_dense(a.nrows, b.ncols, &dc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::gen::{er::erdos_renyi, grid::poisson2d, rmat::rmat, rmat::RmatParams};

    fn all_kinds() -> [AccumulatorKind; 2] {
        [AccumulatorKind::Hash, AccumulatorKind::Dense]
    }

    #[test]
    fn identity_times_identity() {
        let i = CsrMatrix::identity(5);
        let c = spgemm(&i, &i);
        assert!(c.approx_eq(&i, 1e-15));
    }

    #[test]
    fn matches_dense_reference_small() {
        let a = CsrMatrix::from_dense(3, 4, &[1., 0., 2., 0., 0., 3., 0., 1., 4., 0., 0., 5.]);
        let b = CsrMatrix::from_dense(4, 2, &[1., 2., 0., 1., 3., 0., 1., 1.]);
        let expect = dense_reference(&a, &b);
        for kind in all_kinds() {
            for parallel in [false, true] {
                let c = spgemm_with(
                    &a,
                    &b,
                    &SpGemmOptions { acc: kind, parallel, chunks_per_thread: 2 },
                );
                assert!(c.numerically_eq(&expect, 1e-12), "kind {kind:?} parallel {parallel}");
            }
        }
    }

    #[test]
    fn a_squared_poisson_all_accumulators_agree() {
        let a = poisson2d(12, 9);
        let reference = spgemm_serial(&a, &a);
        for kind in all_kinds() {
            for parallel in [false, true] {
                let c = spgemm_with(
                    &a,
                    &a,
                    &SpGemmOptions { acc: kind, parallel, chunks_per_thread: 4 },
                );
                assert!(c.approx_eq(&reference, 1e-10), "kind {kind:?} parallel {parallel}");
            }
        }
    }

    #[test]
    fn a_squared_matches_dense_on_random() {
        let a = erdos_renyi(40, 5, 77);
        let expect = dense_reference(&a, &a);
        let c = spgemm(&a, &a);
        assert!(c.numerically_eq(&expect, 1e-9));
    }

    #[test]
    fn rmat_squared_parallel_equals_serial() {
        let a = rmat(8, 6, RmatParams::default(), 5);
        let s = spgemm_serial(&a, &a);
        let p = spgemm(&a, &a);
        assert!(s.approx_eq(&p, 1e-10));
        s.validate().unwrap();
    }

    #[test]
    fn rectangular_product() {
        let a = erdos_renyi(30, 4, 1);
        let b = cw_sparse::gen::er::erdos_renyi_rect(30, 8, 3, 2);
        let c = spgemm(&a, &b);
        assert_eq!(c.nrows, 30);
        assert_eq!(c.ncols, 8);
        assert!(c.numerically_eq(&dense_reference(&a, &b), 1e-9));
    }

    #[test]
    fn empty_rows_and_matrices() {
        let z = CsrMatrix::zeros(4, 4);
        let c = spgemm(&z, &z);
        assert_eq!(c.nnz(), 0);
        let i = CsrMatrix::identity(4);
        assert_eq!(spgemm(&z, &i).nnz(), 0);
        assert_eq!(spgemm(&i, &z).nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = CsrMatrix::zeros(3, 4);
        let b = CsrMatrix::zeros(3, 4);
        let _ = spgemm(&a, &b);
    }

    #[test]
    fn symbolic_matches_numeric() {
        let a = poisson2d(7, 7);
        let nnz = symbolic_row_nnz(&a, &a, AccumulatorKind::Hash);
        let c = spgemm_serial(&a, &a);
        let actual: Vec<usize> = (0..c.nrows).map(|i| c.row_nnz(i)).collect();
        assert_eq!(nnz, actual);
    }

    #[test]
    fn numeric_cancellation_keeps_explicit_zero() {
        // a row that produces +1 and -1 in the same output column: value 0,
        // but the entry stays — matching C++ SpGEMM behaviour where numeric
        // zeros are not pruned.
        let a = CsrMatrix::from_row_lists(2, vec![vec![(0, 1.0), (1, 1.0)]]);
        let b = CsrMatrix::from_row_lists(1, vec![vec![(0, 1.0)], vec![(0, -1.0)]]);
        let c = spgemm(&a, &b);
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 0), Some(0.0));
    }
}
