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
//! The counts are integers, so the scan keeps them in a dense `u32` array
//! per worker (4 B per row of `A`, freed when the scan ends) with a list of
//! the rows each scanned row touched — Nagasaka & Azad's dense accumulator,
//! which needs no hashing and no float adds here. The list is never
//! sorted: each row's candidates are cut to the top K by a total order
//! (score, then rows), which fixes the output whatever order they were
//! found in. Only patterns are read ([`Pattern`]), never values, and a
//! caller that already holds the pattern's transpose passes it to
//! [`spgemm_topk_pattern`] (hierarchical clustering does, in its sweep's
//! labels).
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

use crate::single_pass::OwnLines;
use cw_sparse::jaccard::jaccard_from_overlap;
use cw_sparse::{ColIdx, CsrMatrix};
use rayon::prelude::*;
use std::borrow::Cow;
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

/// A 0/1 pattern in CSR layout: row `i` holds the ids
/// `ids[ptr[i]..ptr[i + 1]]`, in any order. Borrowed from a [`CsrMatrix`]
/// ([`Pattern::of`]) or built ([`Pattern::transpose`],
/// [`Pattern::relabelled`]); either way it holds no values.
#[derive(Debug, Clone)]
pub struct Pattern<'a> {
    /// Width: every id is below it.
    ncols: usize,
    /// Row offsets into `ids` (`nrows + 1`).
    ptr: Cow<'a, [usize]>,
    /// Ids, row by row.
    ids: Cow<'a, [ColIdx]>,
}

impl<'a> Pattern<'a> {
    /// The pattern of `a`, borrowed.
    pub fn of(a: &'a CsrMatrix) -> Self {
        Pattern { ncols: a.ncols, ptr: Cow::Borrowed(&a.row_ptr), ids: Cow::Borrowed(&a.col_idx) }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.ptr.len() - 1
    }

    /// The ids of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[ColIdx] {
        &self.ids[self.ptr[i]..self.ptr[i + 1]]
    }

    /// The number of ids in row `i`.
    #[inline]
    pub fn row_len(&self, i: usize) -> usize {
        self.ptr[i + 1] - self.ptr[i]
    }

    /// The pattern of the transpose: row `c` lists, ascending, the rows
    /// that hold id `c`.
    pub fn transpose(&self) -> Pattern<'static> {
        let mut ptr = vec![0usize; self.ncols + 1];
        for &c in self.ids.iter() {
            ptr[c as usize + 1] += 1;
        }
        for c in 0..self.ncols {
            ptr[c + 1] += ptr[c];
        }
        let mut cursor = ptr.clone();
        let mut ids = vec![0 as ColIdx; self.ids.len()];
        for i in 0..self.nrows() {
            for &c in self.row(i) {
                ids[cursor[c as usize]] = i as ColIdx;
                cursor[c as usize] += 1;
            }
        }
        Pattern { ncols: self.nrows(), ptr: ptr.into(), ids: ids.into() }
    }

    /// Rows `order[0], order[1], …` of this pattern, each id `c` written as
    /// `label[c]`; `ncols` bounds the labels.
    pub fn relabelled(&self, order: &[u32], label: &[u32], ncols: usize) -> Pattern<'static> {
        let mut ptr = Vec::with_capacity(order.len() + 1);
        let mut ids = Vec::with_capacity(self.ids.len());
        ptr.push(0);
        for &old in order {
            ids.extend(self.row(old as usize).iter().map(|&c| label[c as usize]));
            ptr.push(ids.len());
        }
        Pattern { ncols, ptr: ptr.into(), ids: ids.into() }
    }
}

/// Per-worker scratch of [`spgemm_topk_pattern`], reused across the rows a
/// worker scans so the scan allocates only for rows that have candidates.
struct Scratch {
    /// Overlap count per row, zero between rows.
    counts: Vec<u32>,
    /// The rows whose count the current row raised, in first-touch order
    /// (its first `used` slots).
    touched: Vec<ColIdx>,
    cands: Vec<CandidatePair>,
}

/// Computes candidate pairs: for each row `i`, the up-to-`topk` most similar
/// other rows with Jaccard ≥ `jacc_th`.
///
/// Pairs are deduplicated to `row_i < row_j` and sorted by descending
/// Jaccard (ties broken by indices, so the output is deterministic).
///
/// The transpose is taken internally on the *pattern* of `a` (per the
/// paper: "we reset all values in matrix A to 1 so that the output reflects
/// the count of overlapping nonzeros"; here the values are never read).
pub fn spgemm_topk(a: &CsrMatrix, topk: usize, jacc_th: f64) -> Vec<CandidatePair> {
    let rows = Pattern::of(a);
    spgemm_topk_pattern(&rows, &rows.transpose(), topk, jacc_th)
}

/// [`spgemm_topk`] on a pattern `rows` whose transpose the caller already
/// holds: `cols` must list, for each id of `rows`, the rows that hold it
/// (in any order). The pairs name rows of `rows`; how the ids are labelled
/// does not change them.
pub fn spgemm_topk_pattern(
    rows: &Pattern,
    cols: &Pattern,
    topk: usize,
    jacc_th: f64,
) -> Vec<CandidatePair> {
    let n = rows.nrows();
    // Per-row scan: count overlaps against all other rows — row i's ids k,
    // then column k of the transpose lists every row j sharing k.
    let per_row: Vec<Vec<CandidatePair>> = (0..n)
        .into_par_iter()
        .map_init(
            || OwnLines(Scratch { counts: vec![0; n], touched: Vec::new(), cands: Vec::new() }),
            |OwnLines(Scratch { counts, touched, cands }), i| {
                // `touched[..used]` lists this row's rows in first-touch
                // order. Every row is written at `used` and kept by bumping
                // it only on a first touch, so the loop has no branch.
                let mut used = 0;
                for &k in rows.row(i) {
                    let js = cols.row(k as usize);
                    if touched.len() < used + js.len() {
                        touched.resize(used + js.len(), 0);
                    }
                    for &j in js {
                        let count = &mut counts[j as usize];
                        touched[used] = j;
                        used += (*count == 0) as usize;
                        *count += 1;
                    }
                }
                cands.clear();
                for &j in &touched[..used] {
                    let overlap = std::mem::take(&mut counts[j as usize]);
                    if j as usize == i {
                        continue;
                    }
                    let score = jaccard_from_overlap(
                        overlap as usize,
                        rows.row_len(i),
                        rows.row_len(j as usize),
                    );
                    if score >= jacc_th {
                        let i = i as u32;
                        let (row_i, row_j) = if i < j { (i, j) } else { (j, i) };
                        cands.push(CandidatePair { row_i, row_j, jaccard: score });
                    }
                }
                // Keep only the top-K most similar per row; the order is
                // total, so the touched list needs no sorting first.
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
    use cw_sparse::jaccard::{intersection_size, jaccard};
    let mut per_row: Vec<Vec<CandidatePair>> = vec![Vec::new(); a.nrows];
    for (i, row) in per_row.iter_mut().enumerate() {
        for j in 0..a.nrows {
            if i == j {
                continue;
            }
            let s = jaccard(a.row_cols(i), a.row_cols(j));
            // Rows with zero overlap never appear in A·Aᵀ; skip to match
            // (two empty rows score 1.0 but share nothing).
            if s >= jacc_th && intersection_size(a.row_cols(i), a.row_cols(j)) > 0 {
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
    use cw_sparse::gen::banded::block_diagonal;
    use cw_sparse::gen::er::{erdos_renyi, erdos_renyi_rect};

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

    /// `spgemm_topk` returns exactly the brute-force pairs, scores to the bit.
    fn assert_matches_brute_force(a: &CsrMatrix, topk: usize, jacc_th: f64) {
        let bits = |pairs: Vec<CandidatePair>| -> Vec<(u32, u32, u64)> {
            pairs.iter().map(|p| (p.row_i, p.row_j, p.jaccard.to_bits())).collect()
        };
        let fast = bits(spgemm_topk(a, topk, jacc_th));
        assert_eq!(
            fast,
            bits(brute_force_pairs(a, topk, jacc_th)),
            "topk {topk}, threshold {jacc_th}"
        );
    }

    #[test]
    fn matches_brute_force_on_rectangular_operands() {
        // Tall (few columns, many overlaps) and wide: the transpose has
        // `ncols` rows, the counts `nrows` slots.
        for (nrows, ncols) in [(60, 12), (12, 60)] {
            let a = erdos_renyi_rect(nrows, ncols, 3, 5);
            assert_matches_brute_force(&a, 3, 0.2);
            assert_matches_brute_force(&a, usize::MAX, 0.0);
        }
    }

    #[test]
    fn empty_rows_pair_with_nothing_and_duplicates_score_one() {
        let pattern = |cols: &[usize]| cols.iter().map(|&c| (c, 1.0)).collect::<Vec<_>>();
        let a = CsrMatrix::from_row_lists(
            8,
            vec![
                pattern(&[]),
                pattern(&[1, 2, 3]),
                pattern(&[]),
                pattern(&[1, 2, 3]),
                pattern(&[2, 3, 4]),
                pattern(&[1, 2, 3]),
                pattern(&[]),
                pattern(&[7]),
            ],
        );
        let pairs = spgemm_topk(&a, usize::MAX, 0.3);
        assert!(pairs
            .iter()
            .all(|p| ![0, 2, 6].contains(&p.row_i) && ![0, 2, 6].contains(&p.row_j)));
        let ones: Vec<(u32, u32)> =
            pairs.iter().filter(|p| p.jaccard == 1.0).map(|p| (p.row_i, p.row_j)).collect();
        assert_eq!(ones, [(1, 3), (1, 5), (3, 5)]);
        assert_matches_brute_force(&a, usize::MAX, 0.3);
        assert_matches_brute_force(&a, 1, 0.0);
    }

    #[test]
    fn topk_one_keeps_each_rows_best_partner() {
        for a in [block_diagonal(40, (3, 6), 0.1, 4), erdos_renyi(30, 4, 9)] {
            assert_matches_brute_force(&a, 1, 0.25);
            assert_matches_brute_force(&a, 1, 0.0);
        }
    }

    #[test]
    fn threshold_zero_keeps_every_overlapping_pair() {
        let a = erdos_renyi(30, 4, 9);
        assert_matches_brute_force(&a, usize::MAX, 0.0);
        let pairs = spgemm_topk(&a, usize::MAX, 0.0);
        assert!(pairs.iter().all(|p| p.jaccard > 0.0));
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
