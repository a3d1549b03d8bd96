//! Row-adaptive SpGEMM: a per-row kernel zoo.
//!
//! One accumulator does not fit all rows. The upper-bound FLOP count of a
//! row (its intermediate-product count, [`crate::flops::flops_per_row`])
//! is known before any arithmetic happens, and it predicts which
//! accumulator wins:
//!
//! | upper bound                  | kernel         | why                              |
//! |------------------------------|----------------|----------------------------------|
//! | 0                            | skip           | row is empty by construction     |
//! | ≤ `small_flops`              | sorted array   | binary-search insert beats hashing at tiny sizes |
//! | ≥ `dense_fraction · ncols`   | dense SPA      | row saturates; direct indexing, no probing |
//! | otherwise                    | hash table     | the general-purpose middle       |
//!
//! This mirrors the `kernel_flag` 1/2/3 dispatch of per-row adaptive
//! SpGEMM implementations on KNL/GPU (Nagasaka et al.); the thresholds
//! here are CPU-tuned defaults, overridable per call.
//!
//! Selection depends only on the *structure* of `A` and `B`, and every
//! accumulator in the zoo merges duplicate columns in arrival order and
//! extracts in ascending column order — so the adaptive kernel is
//! **bit-identical** to the serial reference no matter where the
//! thresholds fall. Chunking and output assembly are the shared
//! [`crate::single_pass`] driver's; the zoo dispatches once per row onto a
//! row loop monomorphised for the selected accumulator.

use crate::accumulator::{DenseAccumulator, HashAccumulator, SortedArrayAccumulator};
use crate::flops::flops_per_row_on;
use crate::rowwise::multiply_row;
use crate::single_pass::{chunk_target, plan_row_chunks, single_pass};
use cw_sparse::CsrMatrix;

/// Per-row kernel selection thresholds (see the module table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveThresholds {
    /// Rows with at most this many intermediate products use the
    /// sorted-array accumulator.
    pub small_flops: u64,
    /// Rows whose upper bound reaches this fraction of `ncols` use the
    /// dense SPA.
    pub dense_fraction: f64,
}

impl Default for AdaptiveThresholds {
    fn default() -> Self {
        AdaptiveThresholds { small_flops: 32, dense_fraction: 0.25 }
    }
}

/// Tuning knobs for [`spgemm_adaptive_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptiveOptions {
    /// Kernel selection thresholds.
    pub thresholds: AdaptiveThresholds,
    /// Use the pool-parallel path (single-threaded runs fall through to
    /// the serial path automatically).
    pub parallel: bool,
}

/// The kernel chosen for one output row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowKernel {
    /// No intermediate products: the output row is empty.
    Empty,
    /// Tiny row: sorted-array accumulator.
    SortedArray,
    /// Near-dense row: SPA with generation stamps.
    Dense,
    /// Everything else: open-addressing hash table.
    Hash,
}

/// Selects the kernel for a row with the given upper-bound product count
/// in a `ncols`-wide output.
#[inline]
pub fn select_row_kernel(upper_bound: u64, ncols: usize, t: &AdaptiveThresholds) -> RowKernel {
    if upper_bound == 0 {
        RowKernel::Empty
    } else if upper_bound <= t.small_flops {
        RowKernel::SortedArray
    } else if upper_bound as f64 >= t.dense_fraction * ncols as f64 {
        RowKernel::Dense
    } else {
        RowKernel::Hash
    }
}

/// One worker's set of reusable accumulators. The dense SPA costs
/// `O(ncols)` memory, so it is allocated only once a row actually
/// selects it.
struct Workset {
    hash: HashAccumulator,
    sorted: SortedArrayAccumulator,
    dense: Option<DenseAccumulator>,
}

/// Row chunks per pool worker on the parallel path.
const CHUNKS_PER_THREAD: usize = 8;

/// `C = A · B` with per-row kernel selection, default thresholds,
/// parallel.
pub fn spgemm_adaptive(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    spgemm_adaptive_with(a, b, &AdaptiveOptions { parallel: true, ..Default::default() })
}

/// `C = A · B` with explicit adaptive options. Bit-identical to
/// [`crate::rowwise::spgemm_serial`] for any thresholds.
pub fn spgemm_adaptive_with(a: &CsrMatrix, b: &CsrMatrix, opts: &AdaptiveOptions) -> CsrMatrix {
    assert_eq!(
        a.ncols, b.nrows,
        "dimension mismatch: A is {}x{}, B is {}x{}",
        a.nrows, a.ncols, b.nrows, b.ncols
    );
    let target = chunk_target(opts.parallel, CHUNKS_PER_THREAD);
    let ub = flops_per_row_on(a, b, target > 1);
    let t = &opts.thresholds;
    let chunks = plan_row_chunks(&ub, b.ncols, target);
    single_pass(
        a.nrows,
        b.ncols,
        &chunks,
        || Workset {
            hash: HashAccumulator::new(),
            sorted: SortedArrayAccumulator::new(),
            dense: None,
        },
        |ws, rows, sink| {
            for i in rows {
                match select_row_kernel(ub[i], b.ncols, t) {
                    RowKernel::Empty => sink.push_empty_row(),
                    RowKernel::SortedArray => multiply_row(a, b, i, &mut ws.sorted, sink),
                    RowKernel::Hash => multiply_row(a, b, i, &mut ws.hash, sink),
                    RowKernel::Dense => {
                        let dense = ws.dense.get_or_insert_with(|| DenseAccumulator::new(b.ncols));
                        multiply_row(a, b, i, dense, sink)
                    }
                }
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowwise::spgemm_serial;
    use cw_sparse::gen::{er::erdos_renyi, grid::poisson2d, rmat::rmat, rmat::RmatParams};

    fn bits_eq(x: &CsrMatrix, y: &CsrMatrix) -> bool {
        x.row_ptr == y.row_ptr
            && x.col_idx == y.col_idx
            && x.vals.len() == y.vals.len()
            && x.vals.iter().zip(&y.vals).all(|(a, b)| a.to_bits() == b.to_bits())
    }

    #[test]
    fn selection_covers_all_regimes() {
        let t = AdaptiveThresholds::default();
        assert_eq!(select_row_kernel(0, 1000, &t), RowKernel::Empty);
        assert_eq!(select_row_kernel(1, 1000, &t), RowKernel::SortedArray);
        assert_eq!(select_row_kernel(32, 1000, &t), RowKernel::SortedArray);
        assert_eq!(select_row_kernel(33, 1000, &t), RowKernel::Hash);
        assert_eq!(select_row_kernel(250, 1000, &t), RowKernel::Dense);
        // Small matrices: the dense branch can dominate the small branch
        // boundary; dense wins only above the flop floor.
        assert_eq!(select_row_kernel(33, 40, &t), RowKernel::Dense);
    }

    #[test]
    fn adaptive_is_bit_identical_to_serial() {
        for a in [poisson2d(14, 11), erdos_renyi(120, 7, 3), rmat(8, 8, RmatParams::default(), 9)] {
            let expect = spgemm_serial(&a, &a);
            for parallel in [false, true] {
                let opts = AdaptiveOptions { parallel, ..Default::default() };
                let got = spgemm_adaptive_with(&a, &a, &opts);
                assert!(bits_eq(&got, &expect), "parallel={parallel}");
            }
        }
    }

    #[test]
    fn threshold_extremes_stay_bit_identical() {
        // Force everything through each single kernel in turn: the zoo
        // must be bit-transparent wherever the boundaries sit.
        let a = erdos_renyi(90, 6, 11);
        let expect = spgemm_serial(&a, &a);
        let force = [
            AdaptiveThresholds { small_flops: u64::MAX, dense_fraction: f64::INFINITY },
            AdaptiveThresholds { small_flops: 0, dense_fraction: 0.0 },
            AdaptiveThresholds { small_flops: 0, dense_fraction: f64::INFINITY },
        ];
        for t in force {
            let got =
                spgemm_adaptive_with(&a, &a, &AdaptiveOptions { thresholds: t, parallel: false });
            assert!(bits_eq(&got, &expect), "thresholds {t:?}");
        }
    }

    #[test]
    fn empty_and_rectangular() {
        let z = CsrMatrix::zeros(5, 5);
        assert_eq!(spgemm_adaptive(&z, &z).nnz(), 0);
        let a = erdos_renyi(30, 4, 1);
        let b = cw_sparse::gen::er::erdos_renyi_rect(30, 8, 3, 2);
        let got = spgemm_adaptive(&a, &b);
        assert!(bits_eq(&got, &spgemm_serial(&a, &b)));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = CsrMatrix::zeros(3, 4);
        let b = CsrMatrix::zeros(3, 4);
        let _ = spgemm_adaptive(&a, &b);
    }
}
