//! `SpGEMM_TopK` — candidate similar-row pairs via one pattern SpGEMM
//! (paper Alg. 3, line 3).
//!
//! Hierarchical clustering needs, for every row `i`, the rows `j` whose
//! column sets overlap `i`'s the most. The paper's insight is that a single
//! SpGEMM of the 0/1 pattern of `A` with `Aᵀ` computes *all* pairwise
//! overlap counts: `(A·Aᵀ)[i,j] = |cols(i) ∩ cols(j)|`. Keeping the top-K
//! entries per row (by Jaccard score, derived from the overlap count) and
//! filtering by a similarity threshold yields the candidate pairs — faster
//! and more accurate than the LSH pipeline of the prior SpMM work \[32\].
//!
//! The per-row top-k *numeric* truncation this relies on is also available
//! as a standalone output shape — [`crate::row_topk`] — which the engine's
//! `OutputShape::TopK` plan knob applies to any product.
//!
//! # Examples
//!
//! Two identical band rows are each other's best candidate:
//!
//! ```
//! use cw_sparse::CooMatrix;
//! use cw_spgemm::spgemm_topk;
//!
//! let mut coo = CooMatrix::new(3, 4);
//! for j in 0..3 {
//!     coo.push(0, j, 1.0); // rows 0 and 1 share columns {0, 1, 2}
//!     coo.push(1, j, 1.0);
//! }
//! coo.push(2, 3, 1.0); // row 2 overlaps nobody
//! let pairs = spgemm_topk(&coo.to_csr(), 4, 0.5);
//! assert_eq!(pairs.len(), 1);
//! assert_eq!((pairs[0].row_i, pairs[0].row_j), (0, 1));
//! assert_eq!(pairs[0].jaccard, 1.0);
//! ```

use crate::accumulator::{Accumulator, HashAccumulator};
use crate::single_pass::OwnLines;
use cw_sparse::jaccard::jaccard_from_overlap;
use cw_sparse::{ColIdx, CsrMatrix, Value};
use rayon::prelude::*;
use std::cmp::Ordering;

/// A candidate similar-row pair with its exact Jaccard score (`row_i < row_j`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidatePair {
    /// Smaller row index.
    pub row_i: u32,
    /// Larger row index.
    pub row_j: u32,
    /// Jaccard similarity of the two rows' column sets.
    pub jaccard: f64,
}

/// Most similar first; ties by ascending `(row_i, row_j)`. A total order
/// on distinct pairs, so every sort by it is deterministic.
fn by_score_then_rows(x: &CandidatePair, y: &CandidatePair) -> Ordering {
    y.jaccard.total_cmp(&x.jaccard).then(x.row_i.cmp(&y.row_i)).then(x.row_j.cmp(&y.row_j))
}

/// Drops the second copy of a pair that survived from both endpoints and
/// puts the rest in output order.
fn dedup_and_rank(mut all: Vec<CandidatePair>) -> Vec<CandidatePair> {
    all.sort_unstable_by(|x, y| {
        x.row_i.cmp(&y.row_i).then(x.row_j.cmp(&y.row_j)).then(y.jaccard.total_cmp(&x.jaccard))
    });
    all.dedup_by_key(|p| (p.row_i, p.row_j));
    all.sort_unstable_by(by_score_then_rows);
    all
}

/// Per-worker scratch of [`spgemm_topk`], reused across the rows a worker
/// scans so the scan allocates only for rows that have candidates.
struct Scratch {
    acc: HashAccumulator,
    rows: Vec<ColIdx>,
    overlaps: Vec<Value>,
    cands: Vec<CandidatePair>,
}

/// Computes candidate pairs: for each row `i`, the up-to-`topk` most similar
/// other rows with Jaccard ≥ `jacc_th`.
///
/// Pairs are deduplicated to `row_i < row_j` and sorted by descending
/// Jaccard (ties broken by indices, so the output is deterministic).
///
/// The transpose is taken internally on the *pattern* of `a` (values reset
/// to 1, per the paper: "we reset all values in matrix A to 1 so that the
/// output reflects the count of overlapping nonzeros").
pub fn spgemm_topk(a: &CsrMatrix, topk: usize, jacc_th: f64) -> Vec<CandidatePair> {
    let at = a.transpose();

    // Per-row scan: accumulate overlap counts against all other rows via
    // A row i's columns k -> Aᵀ row k lists every row j sharing column k.
    let per_row: Vec<Vec<CandidatePair>> = (0..a.nrows)
        .into_par_iter()
        .map_init(
            || {
                OwnLines(Scratch {
                    acc: HashAccumulator::new(),
                    rows: Vec::new(),
                    overlaps: Vec::new(),
                    cands: Vec::new(),
                })
            },
            |OwnLines(Scratch { acc, rows, overlaps, cands }), i| {
                for &k in a.row_cols(i) {
                    for &j in at.row_cols(k as usize) {
                        if j as usize != i {
                            acc.add(j, 1.0);
                        }
                    }
                }
                if acc.len() > rows.len() {
                    rows.resize(acc.len(), 0);
                    overlaps.resize(acc.len(), 0.0);
                }
                let n = acc.extract_into(rows, overlaps);
                cands.clear();
                for (&j, &overlap) in rows[..n].iter().zip(&overlaps[..n]) {
                    let score =
                        jaccard_from_overlap(overlap as usize, a.row_nnz(i), a.row_nnz(j as usize));
                    if score >= jacc_th {
                        let i = i as u32;
                        let (row_i, row_j) = if i < j { (i, j) } else { (j, i) };
                        cands.push(CandidatePair { row_i, row_j, jaccard: score });
                    }
                }
                // Keep only the top-K most similar per row.
                cands.sort_unstable_by(by_score_then_rows);
                cands.truncate(topk);
                cands.clone()
            },
        )
        .collect();

    // Merge, dedup (each surviving pair may appear from both endpoints).
    dedup_and_rank(per_row.into_iter().flatten().collect())
}

/// Brute-force reference: all pairs with Jaccard ≥ `jacc_th`, truncated to
/// `topk` per row (testing only; `O(n²·nnz/row)`).
pub fn brute_force_pairs(a: &CsrMatrix, topk: usize, jacc_th: f64) -> Vec<CandidatePair> {
    use cw_sparse::jaccard::jaccard;
    let mut per_row: Vec<Vec<CandidatePair>> = vec![Vec::new(); a.nrows];
    for (i, row) in per_row.iter_mut().enumerate() {
        for j in 0..a.nrows {
            if i == j {
                continue;
            }
            let s = jaccard(a.row_cols(i), a.row_cols(j));
            // Rows with zero overlap never appear in A·Aᵀ; skip to match.
            if s >= jacc_th && s > 0.0 {
                let (lo, hi) = if i < j { (i as u32, j as u32) } else { (j as u32, i as u32) };
                row.push(CandidatePair { row_i: lo, row_j: hi, jaccard: s });
            }
        }
        row.sort_unstable_by(by_score_then_rows);
        row.truncate(topk);
    }
    dedup_and_rank(per_row.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::gen::{banded::block_diagonal, er::erdos_renyi};

    #[test]
    fn fig7_example_counts() {
        // Paper Fig. 7(a): reordered matrix whose A·Aᵀ has known values.
        let a = CsrMatrix::from_row_lists(
            6,
            vec![
                vec![(0, 1.0), (1, 1.0), (2, 1.0)],
                vec![(1, 1.0), (2, 1.0), (5, 1.0)],
                vec![(0, 1.0), (2, 1.0), (4, 1.0)],
                vec![(3, 1.0), (4, 1.0)],
                vec![(2, 1.0), (3, 1.0), (4, 1.0)],
                vec![(1, 1.0), (4, 1.0), (5, 1.0)],
            ],
        );
        let pairs = spgemm_topk(&a, 8, 0.0);
        // Overlap(0,1) = |{1,2}| = 2, sizes 3,3 -> jaccard 2/4 = 0.5
        let p01 = pairs.iter().find(|p| p.row_i == 0 && p.row_j == 1).unwrap();
        assert!((p01.jaccard - 0.5).abs() < 1e-12);
        // Overlap(3,4) = |{3,4}| = 2, sizes 2,3 -> jaccard 2/3
        let p34 = pairs.iter().find(|p| p.row_i == 3 && p.row_j == 4).unwrap();
        assert!((p34.jaccard - 2.0 / 3.0).abs() < 1e-12);
        // Rows 0 and 3 share nothing -> no pair.
        assert!(!pairs.iter().any(|p| p.row_i == 0 && p.row_j == 3));
    }

    #[test]
    fn matches_brute_force_unlimited_k() {
        let a = erdos_renyi(30, 4, 9);
        let fast = spgemm_topk(&a, usize::MAX, 0.2);
        let slow = brute_force_pairs(&a, usize::MAX, 0.2);
        assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!((f.row_i, f.row_j), (s.row_i, s.row_j));
            assert!((f.jaccard - s.jaccard).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_brute_force_with_topk() {
        let a = block_diagonal(40, (3, 6), 0.1, 4);
        let fast = spgemm_topk(&a, 3, 0.25);
        let slow = brute_force_pairs(&a, 3, 0.25);
        assert_eq!(fast.len(), slow.len(), "fast {fast:?}\nslow {slow:?}");
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!((f.row_i, f.row_j), (s.row_i, s.row_j));
        }
    }

    #[test]
    fn block_diagonal_pairs_stay_in_blocks() {
        let a = block_diagonal(32, (4, 4), 0.0, 8);
        let pairs = spgemm_topk(&a, 7, 0.3);
        assert!(!pairs.is_empty());
        for p in &pairs {
            assert_eq!(p.row_i / 4, p.row_j / 4, "pair {p:?} crosses blocks");
            assert_eq!(p.jaccard, 1.0); // identical patterns inside blocks
        }
    }

    #[test]
    fn threshold_filters_everything() {
        let a = CsrMatrix::identity(10); // disjoint singleton rows
        assert!(spgemm_topk(&a, 8, 0.1).is_empty());
    }

    #[test]
    fn output_sorted_by_score_then_indices() {
        let a = block_diagonal(24, (2, 5), 0.2, 3);
        let pairs = spgemm_topk(&a, 4, 0.1);
        for w in pairs.windows(2) {
            assert!(
                w[0].jaccard > w[1].jaccard
                    || (w[0].jaccard == w[1].jaccard
                        && (w[0].row_i, w[0].row_j) <= (w[1].row_i, w[1].row_j))
            );
        }
    }
}
