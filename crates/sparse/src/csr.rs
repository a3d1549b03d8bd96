//! Compressed Sparse Row storage (paper §2.1, Fig. 4).
//!
//! CSR stores a matrix with three arrays: `row_ptr` (offsets into the entry
//! arrays per row), `col_idx` (column index per nonzero), and `vals` (value
//! per nonzero). All kernels in the workspace assume and preserve the
//! invariant that column indices are **strictly increasing within each row**.

use crate::{ColIdx, CooMatrix, SparseError, Value};

/// A sparse matrix in CSR form with sorted rows.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Row offsets; `row_ptr.len() == nrows + 1` and `row_ptr[nrows] == nnz`.
    pub row_ptr: Vec<usize>,
    /// Column indices, strictly increasing within each row.
    pub col_idx: Vec<ColIdx>,
    /// Nonzero values, parallel to `col_idx`.
    pub vals: Vec<Value>,
}

impl CsrMatrix {
    /// Creates an empty `nrows × ncols` matrix with no nonzeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as ColIdx).collect(),
            vals: vec![1.0; n],
        }
    }

    /// Builds a CSR matrix from raw parts, validating all invariants.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<ColIdx>,
        vals: Vec<Value>,
    ) -> Result<Self, SparseError> {
        let m = CsrMatrix { nrows, ncols, row_ptr, col_idx, vals };
        m.validate()?;
        Ok(m)
    }

    /// Checks all structural invariants.
    pub fn validate(&self) -> Result<(), SparseError> {
        if self.row_ptr.len() != self.nrows + 1 {
            return Err(SparseError::MalformedRowPtr(format!(
                "len {} != nrows+1 {}",
                self.row_ptr.len(),
                self.nrows + 1
            )));
        }
        if self.row_ptr[0] != 0 {
            return Err(SparseError::MalformedRowPtr("row_ptr[0] != 0".into()));
        }
        if *self.row_ptr.last().unwrap() != self.col_idx.len() {
            return Err(SparseError::MalformedRowPtr(format!(
                "row_ptr[n]={} != nnz={}",
                self.row_ptr.last().unwrap(),
                self.col_idx.len()
            )));
        }
        if self.col_idx.len() != self.vals.len() {
            return Err(SparseError::LengthMismatch(format!(
                "col_idx={} vals={}",
                self.col_idx.len(),
                self.vals.len()
            )));
        }
        for w in self.row_ptr.windows(2) {
            if w[0] > w[1] {
                return Err(SparseError::MalformedRowPtr("non-monotone".into()));
            }
        }
        for i in 0..self.nrows {
            let cols = self.row_cols(i);
            for w in cols.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::UnsortedRow(i));
                }
            }
            if let Some(&c) = cols.last() {
                if c as usize >= self.ncols {
                    return Err(SparseError::ColOutOfBounds { col: c as usize, ncols: self.ncols });
                }
            }
        }
        Ok(())
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Number of nonzeros in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Column indices of row `i`.
    #[inline]
    pub fn row_cols(&self, i: usize) -> &[ColIdx] {
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Values of row `i`.
    #[inline]
    pub fn row_vals(&self, i: usize) -> &[Value] {
        &self.vals[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// `(cols, vals)` of row `i` as parallel slices.
    #[inline]
    pub fn row(&self, i: usize) -> (&[ColIdx], &[Value]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// Iterator over `(row, col, value)` of all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Value)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            self.row_cols(i).iter().zip(self.row_vals(i)).map(move |(&c, &v)| (i, c as usize, v))
        })
    }

    /// Value at `(i, j)`, or `None` if not stored. Binary search; `O(log nnz(row))`.
    pub fn get(&self, i: usize, j: usize) -> Option<Value> {
        let cols = self.row_cols(i);
        cols.binary_search(&(j as ColIdx)).ok().map(|p| self.row_vals(i)[p])
    }

    /// Builds CSR from COO, sorting entries and **summing duplicates**.
    ///
    /// Runs in `O(nnz + nrows)` using a two-pass counting sort on rows
    /// followed by per-row sorts on columns.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let nnz = coo.nnz();
        let mut row_counts = vec![0usize; coo.nrows + 1];
        for &r in &coo.rows {
            row_counts[r as usize + 1] += 1;
        }
        for i in 0..coo.nrows {
            row_counts[i + 1] += row_counts[i];
        }
        let row_ptr_tmp = row_counts.clone();
        let mut col_idx = vec![0 as ColIdx; nnz];
        let mut vals = vec![0.0; nnz];
        {
            let mut cursor = row_ptr_tmp.clone();
            for k in 0..nnz {
                let r = coo.rows[k] as usize;
                let dst = cursor[r];
                cursor[r] += 1;
                col_idx[dst] = coo.cols[k];
                vals[dst] = coo.vals[k];
            }
        }
        // Sort each row by column and merge duplicates in place.
        let mut out_col: Vec<ColIdx> = Vec::with_capacity(nnz);
        let mut out_val: Vec<Value> = Vec::with_capacity(nnz);
        let mut row_ptr = vec![0usize; coo.nrows + 1];
        let mut scratch: Vec<(ColIdx, Value)> = Vec::new();
        for i in 0..coo.nrows {
            let lo = row_ptr_tmp[i];
            let hi = row_ptr_tmp[i + 1];
            scratch.clear();
            scratch.extend(col_idx[lo..hi].iter().copied().zip(vals[lo..hi].iter().copied()));
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut k = 0;
            while k < scratch.len() {
                let c = scratch[k].0;
                let mut v = scratch[k].1;
                k += 1;
                while k < scratch.len() && scratch[k].0 == c {
                    v += scratch[k].1;
                    k += 1;
                }
                out_col.push(c);
                out_val.push(v);
            }
            row_ptr[i + 1] = out_col.len();
        }
        CsrMatrix { nrows: coo.nrows, ncols: coo.ncols, row_ptr, col_idx: out_col, vals: out_val }
    }

    /// Builds CSR from per-row `(col, val)` lists (each list may be unsorted;
    /// duplicates are summed).
    pub fn from_row_lists(ncols: usize, rows: Vec<Vec<(usize, Value)>>) -> Self {
        let nrows = rows.len();
        let mut coo = CooMatrix::with_capacity(nrows, ncols, rows.iter().map(Vec::len).sum());
        for (i, row) in rows.iter().enumerate() {
            for &(c, v) in row {
                coo.push(i, c, v);
            }
        }
        Self::from_coo(&coo)
    }

    /// Builds CSR from a dense row-major array (test helper). Zeros are skipped.
    pub fn from_dense(nrows: usize, ncols: usize, data: &[Value]) -> Self {
        assert_eq!(data.len(), nrows * ncols);
        let mut coo = CooMatrix::new(nrows, ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                let v = data[i * ncols + j];
                if v != 0.0 {
                    coo.push(i, j, v);
                }
            }
        }
        Self::from_coo(&coo)
    }

    /// Converts to a dense row-major vector (test helper; `O(nrows·ncols)`).
    pub fn to_dense(&self) -> Vec<Value> {
        let mut d = vec![0.0; self.nrows * self.ncols];
        for (i, j, v) in self.iter() {
            d[i * self.ncols + j] = v;
        }
        d
    }

    /// Converts to COO triplets.
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        for (i, j, v) in self.iter() {
            coo.push(i, j, v);
        }
        coo
    }

    /// Transpose via counting sort: `O(nnz + ncols)`, rows of the result are
    /// sorted by construction.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for j in 0..self.ncols {
            counts[j + 1] += counts[j];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0 as ColIdx; self.nnz()];
        let mut vals = vec![0.0; self.nnz()];
        let mut cursor = counts;
        for i in 0..self.nrows {
            let (cols, vs) = self.row(i);
            for (&c, &v) in cols.iter().zip(vs) {
                let dst = cursor[c as usize];
                cursor[c as usize] += 1;
                col_idx[dst] = i as ColIdx;
                vals[dst] = v;
            }
        }
        CsrMatrix { nrows: self.ncols, ncols: self.nrows, row_ptr, col_idx, vals }
    }

    /// Returns a copy with every stored value replaced by `1.0`, so that in
    /// a product of two patterns each output value counts the overlapping
    /// nonzeros behind it.
    pub fn to_pattern(&self) -> CsrMatrix {
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            vals: vec![1.0; self.nnz()],
        }
    }

    /// Pattern symmetrization `A ∨ Aᵀ` with all values `1.0` and an empty
    /// diagonal — the adjacency structure used by graph-based reorderings
    /// (RCM, ND, GP, Rabbit, SlashBurn) on possibly unsymmetric inputs.
    pub fn symmetrized_pattern(&self) -> CsrMatrix {
        assert_eq!(self.nrows, self.ncols, "symmetrization requires a square matrix");
        let t = self.transpose();
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        row_ptr.push(0usize);
        let mut col_idx: Vec<ColIdx> = Vec::with_capacity(self.nnz() * 2);
        for i in 0..self.nrows {
            let a = self.row_cols(i);
            let b = t.row_cols(i);
            // Merge two sorted lists, dropping duplicates and the diagonal.
            let (mut p, mut q) = (0, 0);
            while p < a.len() || q < b.len() {
                let c = match (a.get(p), b.get(q)) {
                    (Some(&x), Some(&y)) => {
                        if x < y {
                            p += 1;
                            x
                        } else if y < x {
                            q += 1;
                            y
                        } else {
                            p += 1;
                            q += 1;
                            x
                        }
                    }
                    (Some(&x), None) => {
                        p += 1;
                        x
                    }
                    (None, Some(&y)) => {
                        q += 1;
                        y
                    }
                    (None, None) => unreachable!(),
                };
                if c as usize != i {
                    col_idx.push(c);
                }
            }
            row_ptr.push(col_idx.len());
        }
        let nnz = col_idx.len();
        CsrMatrix { nrows: self.nrows, ncols: self.ncols, row_ptr, col_idx, vals: vec![1.0; nnz] }
    }

    /// True if the sparsity pattern is symmetric (values ignored).
    pub fn is_pattern_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        self.col_idx == t.col_idx && self.row_ptr == t.row_ptr
    }

    /// Approximate equality: same shape and pattern, values within `tol`.
    pub fn approx_eq(&self, other: &CsrMatrix, tol: Value) -> bool {
        if self.nrows != other.nrows
            || self.ncols != other.ncols
            || self.row_ptr != other.row_ptr
            || self.col_idx != other.col_idx
        {
            return false;
        }
        self.vals.iter().zip(&other.vals).all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Bit-identity, the contract between kernels that compute the same
    /// sums in the same order: same shape and pattern, and every value has
    /// the same bits — `-0.0` differs from `0.0`, infinities and subnormals
    /// compare exactly — except that any NaN equals any NaN. The sign and
    /// payload of a NaN produced by arithmetic are unspecified (an optimised
    /// build may commute the addition that made it), so they are not part of
    /// the contract; *where* the NaNs are is.
    pub fn bits_eq(&self, other: &CsrMatrix) -> bool {
        (self.nrows, self.ncols) == (other.nrows, other.ncols)
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
            && self.vals.len() == other.vals.len()
            && self
                .vals
                .iter()
                .zip(&other.vals)
                .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()))
    }

    /// Approximate numeric equality that tolerates pattern differences caused
    /// by explicit zeros: compares `self` and `other` entry-by-entry after
    /// dropping entries smaller than `tol` in magnitude.
    pub fn numerically_eq(&self, other: &CsrMatrix, tol: Value) -> bool {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return false;
        }
        for i in 0..self.nrows {
            let (ca, va) = self.row(i);
            let (cb, vb) = other.row(i);
            let (mut p, mut q) = (0, 0);
            loop {
                // Skip ~zero entries on both sides.
                while p < ca.len() && va[p].abs() <= tol {
                    p += 1;
                }
                while q < cb.len() && vb[q].abs() <= tol {
                    q += 1;
                }
                match (p < ca.len(), q < cb.len()) {
                    (false, false) => break,
                    (true, true) => {
                        if ca[p] != cb[q] || (va[p] - vb[q]).abs() > tol * va[p].abs().max(1.0) {
                            return false;
                        }
                        p += 1;
                        q += 1;
                    }
                    _ => return false,
                }
            }
        }
        true
    }

    /// Total bytes of the CSR representation (the Fig. 11 baseline):
    /// `nnz·(4 + 8)` for indices+values plus the row-pointer array.
    pub fn memory_bytes(&self) -> usize {
        self.col_idx.len() * std::mem::size_of::<ColIdx>()
            + self.vals.len() * std::mem::size_of::<Value>()
            + self.row_ptr.len() * std::mem::size_of::<usize>()
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> Value {
        self.vals.iter().map(|v| v * v).sum::<Value>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_matrix() -> CsrMatrix {
        // The 6x6 matrix of paper Fig. 1 / Fig. 4:
        // row 0: cols 0,1,2 / row 1: 1,2,5 / row 2: 0,1,5
        // row 3: 3,4,5 / row 4: 2,4,5 / row 5: 0,3
        CsrMatrix::from_row_lists(
            6,
            vec![
                vec![(0, 1.0), (1, 1.0), (2, 1.0)],
                vec![(1, 1.0), (2, 1.0), (5, 1.0)],
                vec![(0, 1.0), (1, 1.0), (5, 1.0)],
                vec![(3, 1.0), (4, 1.0), (5, 1.0)],
                vec![(2, 1.0), (4, 1.0), (5, 1.0)],
                vec![(0, 1.0), (3, 1.0)],
            ],
        )
    }

    #[test]
    fn fig4_row_ptrs_match_paper() {
        let a = fig1_matrix();
        // Paper Fig. 4: row-ptrs 0 3 6 9 12 15 17
        assert_eq!(a.row_ptr, vec![0, 3, 6, 9, 12, 15, 17]);
        assert_eq!(a.nnz(), 17);
        a.validate().unwrap();
    }

    #[test]
    fn from_coo_sums_duplicates() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 2.0);
        coo.push(0, 1, 3.0);
        coo.push(1, 0, 1.0);
        let m = coo.to_csr();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 1), Some(5.0));
        assert_eq!(m.get(1, 0), Some(1.0));
        assert_eq!(m.get(1, 1), None);
    }

    #[test]
    fn transpose_round_trip() {
        let a = fig1_matrix();
        let t = a.transpose();
        assert_eq!(t.nrows, 6);
        assert_eq!(t.nnz(), a.nnz());
        let tt = t.transpose();
        assert!(a.approx_eq(&tt, 0.0));
        // Column 0 of A has nonzeros in rows 0, 2, 5.
        assert_eq!(t.row_cols(0), &[0, 2, 5]);
        t.validate().unwrap();
    }

    #[test]
    fn identity_and_zeros() {
        let i = CsrMatrix::identity(4);
        assert_eq!(i.nnz(), 4);
        assert_eq!(i.get(2, 2), Some(1.0));
        i.validate().unwrap();
        let z = CsrMatrix::zeros(3, 5);
        assert_eq!(z.nnz(), 0);
        z.validate().unwrap();
    }

    #[test]
    fn dense_round_trip() {
        let d = vec![1.0, 0.0, 2.0, 0.0, 0.0, 3.0];
        let m = CsrMatrix::from_dense(2, 3, &d);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.to_dense(), d);
    }

    #[test]
    fn pattern_sets_ones() {
        let a = fig1_matrix();
        let p = a.to_pattern();
        assert!(p.vals.iter().all(|&v| v == 1.0));
        assert_eq!(p.col_idx, a.col_idx);
    }

    #[test]
    fn symmetrized_pattern_is_symmetric_no_diagonal() {
        let a = fig1_matrix();
        let s = a.symmetrized_pattern();
        assert!(s.is_pattern_symmetric());
        for i in 0..s.nrows {
            assert!(!s.row_cols(i).contains(&(i as ColIdx)), "diagonal present in row {i}");
        }
        s.validate().unwrap();
    }

    #[test]
    fn validate_catches_unsorted() {
        let m = CsrMatrix {
            nrows: 1,
            ncols: 4,
            row_ptr: vec![0, 2],
            col_idx: vec![3, 1],
            vals: vec![1.0, 1.0],
        };
        assert!(matches!(m.validate(), Err(SparseError::UnsortedRow(0))));
    }

    #[test]
    fn validate_catches_bad_row_ptr() {
        let m = CsrMatrix {
            nrows: 2,
            ncols: 2,
            row_ptr: vec![0, 1],
            col_idx: vec![0],
            vals: vec![1.0],
        };
        assert!(matches!(m.validate(), Err(SparseError::MalformedRowPtr(_))));
    }

    #[test]
    fn numerically_eq_ignores_explicit_zeros() {
        let a = CsrMatrix::from_row_lists(3, vec![vec![(0, 1.0), (2, 0.0)], vec![(1, 2.0)]]);
        let b = CsrMatrix::from_row_lists(3, vec![vec![(0, 1.0)], vec![(1, 2.0)]]);
        assert!(a.numerically_eq(&b, 1e-12));
        assert!(!a.approx_eq(&b, 1e-12));
    }

    #[test]
    fn bits_eq_is_to_bits_except_between_nans() {
        let m = |vals: [f64; 3]| CsrMatrix::from_row_lists(3, vec![(0..3).zip(vals).collect()]);
        let odd = m([-0.0, f64::NEG_INFINITY, 1e-310]);
        assert!(odd.bits_eq(&odd.clone()));
        assert!(!odd.bits_eq(&m([0.0, f64::NEG_INFINITY, 1e-310])), "signed zeros differ");
        assert!(m([0.0, 0.0, 0.0]).approx_eq(&m([-0.0, 0.0, 0.0]), 0.0), "approx_eq cannot tell");
        // Any NaN equals any NaN, and only a NaN.
        let nan = |bits: u64| m([1.0, f64::from_bits(bits), 2.0]);
        assert!(nan(0x7FF8_0000_0000_0000).bits_eq(&nan(0xFFF8_0000_0000_0001)));
        assert!(!nan(0x7FF8_0000_0000_0000).bits_eq(&m([1.0, f64::INFINITY, 2.0])));
        // Structure first: same values in another column are another matrix.
        let moved = CsrMatrix::from_row_lists(3, vec![vec![(0, 1.0), (2, 2.0)]]);
        assert!(!moved.bits_eq(&CsrMatrix::from_row_lists(3, vec![vec![(0, 1.0), (1, 2.0)]])));
    }

    #[test]
    fn memory_bytes_counts_all_arrays() {
        let a = fig1_matrix();
        assert_eq!(a.memory_bytes(), 17 * 4 + 17 * 8 + 7 * 8);
    }

    #[test]
    fn get_binary_search() {
        let a = fig1_matrix();
        assert_eq!(a.get(1, 5), Some(1.0));
        assert_eq!(a.get(1, 4), None);
        assert_eq!(a.get(5, 0), Some(1.0));
    }

    #[test]
    fn iter_yields_all_entries_in_order() {
        let a = fig1_matrix();
        let entries: Vec<_> = a.iter().collect();
        assert_eq!(entries.len(), 17);
        assert_eq!(entries[0], (0, 0, 1.0));
        assert_eq!(entries[16], (5, 3, 1.0));
    }
}
