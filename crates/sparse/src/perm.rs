//! Row/column permutations and their application to sparse matrices.
//!
//! A [`Permutation`] maps *new* positions to *old* indices: `perm[new] = old`.
//! Reordering algorithms produce permutations; the evaluation applies them
//! symmetrically (`P·A·Pᵀ`) for the `A²` workload so the operand stays
//! consistent, and as row permutations of `B` for the tall-skinny workload.

use crate::{ColIdx, CsrMatrix};

/// A permutation of `0..n`, stored as `perm[new_position] = old_index`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    perm: Vec<u32>,
}

impl Permutation {
    /// Identity permutation on `n` elements.
    pub fn identity(n: usize) -> Self {
        Permutation { perm: (0..n as u32).collect() }
    }

    /// Builds from a `new → old` map, validating it is a bijection.
    pub fn from_new_to_old(perm: Vec<u32>) -> Result<Self, String> {
        let n = perm.len();
        let mut seen = vec![false; n];
        for &p in &perm {
            let p = p as usize;
            if p >= n {
                return Err(format!("index {p} out of range for permutation of {n}"));
            }
            if seen[p] {
                return Err(format!("index {p} appears twice"));
            }
            seen[p] = true;
        }
        Ok(Permutation { perm })
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// True for the zero-length permutation.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// The old index placed at `new` position.
    #[inline]
    pub fn old_of(&self, new: usize) -> usize {
        self.perm[new] as usize
    }

    /// Slice view of the `new → old` map.
    #[inline]
    pub fn as_new_to_old(&self) -> &[u32] {
        &self.perm
    }

    /// Computes the inverse map `old → new`.
    pub fn inverse_map(&self) -> Vec<u32> {
        let mut inv = vec![0u32; self.perm.len()];
        for (new, &old) in self.perm.iter().enumerate() {
            inv[old as usize] = new as u32;
        }
        inv
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Permutation {
        Permutation { perm: self.inverse_map() }
    }

    /// Composition: applies `self` first, then `next` (both in new→old form).
    ///
    /// `result.old_of(i) == self.old_of(next.old_of(i))`.
    pub fn then(&self, next: &Permutation) -> Permutation {
        assert_eq!(self.len(), next.len());
        let perm = next.perm.iter().map(|&mid| self.perm[mid as usize]).collect();
        Permutation { perm }
    }

    /// True if this is the identity.
    pub fn is_identity(&self) -> bool {
        self.perm.iter().enumerate().all(|(i, &p)| i as u32 == p)
    }

    /// Permutes only the **rows** of `a`: `(P·A)[new, :] = A[old, :]`.
    pub fn permute_rows(&self, a: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.len(), a.nrows);
        let mut row_ptr = Vec::with_capacity(a.nrows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(a.nnz());
        let mut vals = Vec::with_capacity(a.nnz());
        for new in 0..a.nrows {
            let old = self.old_of(new);
            let (cols, vs) = a.row(old);
            col_idx.extend_from_slice(cols);
            vals.extend_from_slice(vs);
            row_ptr.push(col_idx.len());
        }
        CsrMatrix { nrows: a.nrows, ncols: a.ncols, row_ptr, col_idx, vals }
    }

    /// Permutes only the **columns** of `a`: `(A·Pᵀ)[:, new] = A[:, old]`.
    pub fn permute_cols(&self, a: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.len(), a.ncols);
        let inv = self.inverse_map();
        let mut out = a.clone();
        let mut scratch: Vec<(ColIdx, f64)> = Vec::new();
        for i in 0..a.nrows {
            let lo = a.row_ptr[i];
            let hi = a.row_ptr[i + 1];
            scratch.clear();
            scratch.extend(
                a.col_idx[lo..hi]
                    .iter()
                    .map(|&c| inv[c as usize])
                    .zip(a.vals[lo..hi].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for (k, &(c, v)) in scratch.iter().enumerate() {
                out.col_idx[lo + k] = c;
                out.vals[lo + k] = v;
            }
        }
        out
    }

    /// Symmetric permutation `P·A·Pᵀ` — the standard way to reorder a square
    /// matrix for the `A²` workload (row and column spaces move together).
    pub fn permute_symmetric(&self, a: &CsrMatrix) -> CsrMatrix {
        assert_eq!(a.nrows, a.ncols, "symmetric permutation requires square matrix");
        self.permute_cols(&self.permute_rows(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_identity() {
        let p = Permutation::identity(5);
        assert!(p.is_identity());
        assert_eq!(p.len(), 5);
        let a = CsrMatrix::identity(5);
        assert!(p.permute_symmetric(&a).approx_eq(&a, 0.0));
    }

    #[test]
    fn from_new_to_old_validates() {
        assert!(Permutation::from_new_to_old(vec![1, 0, 2]).is_ok());
        assert!(Permutation::from_new_to_old(vec![1, 1, 2]).is_err());
        assert!(Permutation::from_new_to_old(vec![1, 5, 2]).is_err());
    }

    #[test]
    fn inverse_round_trip() {
        let p = Permutation::from_new_to_old(vec![2, 0, 3, 1]).unwrap();
        let inv = p.inverse();
        assert!(p.then(&inv).is_identity() || inv.then(&p).is_identity());
        // old_of/inverse consistency
        for new in 0..4 {
            assert_eq!(inv.inverse_map()[new], p.as_new_to_old()[new]);
        }
    }

    #[test]
    fn conventions_agree() {
        // perm: new->old [2,0,1] means old0->new1, old1->new2, old2->new0.
        let p = Permutation::from_new_to_old(vec![2, 0, 1]).unwrap();
        assert_eq!(p.inverse_map(), vec![1, 2, 0]);
    }

    #[test]
    fn permute_rows_moves_rows() {
        let a = CsrMatrix::from_row_lists(3, vec![vec![(0, 1.0)], vec![(1, 2.0)], vec![(2, 3.0)]]);
        let p = Permutation::from_new_to_old(vec![2, 0, 1]).unwrap();
        let b = p.permute_rows(&a);
        assert_eq!(b.get(0, 2), Some(3.0)); // new row 0 is old row 2
        assert_eq!(b.get(1, 0), Some(1.0));
        assert_eq!(b.get(2, 1), Some(2.0));
    }

    #[test]
    fn permute_cols_moves_cols_and_sorts() {
        let a = CsrMatrix::from_row_lists(3, vec![vec![(0, 1.0), (2, 3.0)]]);
        let p = Permutation::from_new_to_old(vec![2, 1, 0]).unwrap();
        let b = p.permute_cols(&a);
        b.validate().unwrap();
        assert_eq!(b.get(0, 0), Some(3.0)); // old col 2 -> new col 0
        assert_eq!(b.get(0, 2), Some(1.0));
    }

    #[test]
    fn symmetric_permutation_preserves_diag_multiset() {
        let a = CsrMatrix::from_dense(3, 3, &[1.0, 5.0, 0.0, 0.0, 2.0, 0.0, 7.0, 0.0, 3.0]);
        let p = Permutation::from_new_to_old(vec![1, 2, 0]).unwrap();
        let b = p.permute_symmetric(&a);
        b.validate().unwrap();
        let mut diag_a: Vec<_> = (0..3).filter_map(|i| a.get(i, i)).collect();
        let mut diag_b: Vec<_> = (0..3).filter_map(|i| b.get(i, i)).collect();
        diag_a.sort_by(f64::total_cmp);
        diag_b.sort_by(f64::total_cmp);
        assert_eq!(diag_a, diag_b);
        // Off-diagonal moves with both indices: A[0,1]=5 -> B[new(0),new(1)].
        // old->new: 0->2, 1->0, 2->1
        assert_eq!(b.get(2, 0), Some(5.0));
        assert_eq!(b.get(1, 2), Some(7.0)); // A[2,0]=7
    }
}
