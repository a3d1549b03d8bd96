//! The `CSR_Cluster` storage format (paper §3.1, Fig. 6).
//!
//! A [`Clustering`] splits the row range into consecutive clusters. For each
//! cluster, `CSR_Cluster` stores:
//!
//! * the **union** of the member rows' column indices, once, sorted
//!   (`col_ids`, delimited by `cluster_ptr`) — this is where the format
//!   saves memory relative to CSR when rows share structure;
//! * a per-union-column **bitmask** of which member rows are present
//!   (`masks`, bit `r` = member row `r`) — the kernel uses it to skip
//!   padding without touching value slots;
//! * the **values**, column-major within the cluster: slot
//!   `val_ptr[c] + p·K + r` holds member row `r`'s value at union position
//!   `p` (0.0 padding where the mask bit is clear) — the "empty
//!   (placeholder) positions" of the paper.
//!
//! Variable-length clusters keep their sizes in [`Clustering::sizes`]
//! (the paper's `cluster-sz` array); `val_ptr` is the paper's "additional
//! array of pointers … to enable efficient access to the value array".

use cw_sparse::{ColIdx, CsrMatrix, Value};

/// Maximum rows per cluster supported by the `u8` member bitmask.
pub const MAX_CLUSTER_LEN: usize = 8;

/// Walks the union of `a`'s rows `rows` (at most [`MAX_CLUSTER_LEN`]) in
/// ascending column order — a merge of the sorted rows, with no sort and
/// nothing as wide as the matrix — calling `f(col, mask, at)` once per
/// union column: bit `r` of `mask` says the `r`-th row holds `col`, stored
/// at entry `at[r]` of `a`.
pub(crate) fn merge_rows(
    a: &CsrMatrix,
    rows: std::ops::Range<usize>,
    f: impl FnMut(ColIdx, u8, &[usize; MAX_CLUSTER_LEN]),
) {
    // Monomorphised on the row count, so the loops over rows unroll.
    match rows.len() {
        0 => {}
        1 => merge_k::<1>(a, rows.start, f),
        2 => merge_k::<2>(a, rows.start, f),
        3 => merge_k::<3>(a, rows.start, f),
        4 => merge_k::<4>(a, rows.start, f),
        5 => merge_k::<5>(a, rows.start, f),
        6 => merge_k::<6>(a, rows.start, f),
        7 => merge_k::<7>(a, rows.start, f),
        8 => merge_k::<8>(a, rows.start, f),
        k => panic!("{k} rows exceed the {MAX_CLUSTER_LEN}-bit mask"),
    }
}

#[inline(always)]
fn merge_k<const K: usize>(
    a: &CsrMatrix,
    first: usize,
    mut f: impl FnMut(ColIdx, u8, &[usize; MAX_CLUSTER_LEN]),
) {
    // The column at each row's cursor; `ColIdx::MAX` (never a column) once
    // the row is done, so the loops below have no branches.
    let (mut at, mut end) = ([0usize; MAX_CLUSTER_LEN], [0usize; K]);
    let mut head = [ColIdx::MAX; K];
    let next = |p: usize, end: usize| if p < end { a.col_idx[p] } else { ColIdx::MAX };
    for r in 0..K {
        (at[r], end[r]) = (a.row_ptr[first + r], a.row_ptr[first + r + 1]);
        head[r] = next(at[r], end[r]);
    }
    loop {
        let col = head.iter().fold(ColIdx::MAX, |m, &h| m.min(h));
        if col == ColIdx::MAX {
            return;
        }
        let mut mask = 0u8;
        for (r, &h) in head.iter().enumerate() {
            mask |= ((h == col) as u8) << r;
        }
        f(col, mask, &at);
        for r in 0..K {
            if mask >> r & 1 != 0 {
                at[r] += 1;
                head[r] = next(at[r], end[r]);
            }
        }
    }
}

/// A partition of `0..nrows` into consecutive clusters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    /// Cluster sizes in row order; sums to the matrix row count.
    pub sizes: Vec<u32>,
}

impl Clustering {
    /// Total rows covered.
    pub fn nrows(&self) -> usize {
        self.sizes.iter().map(|&s| s as usize).sum()
    }

    /// Number of clusters.
    pub fn nclusters(&self) -> usize {
        self.sizes.len()
    }

    /// First row of each cluster plus a final sentinel (`len = nclusters+1`).
    pub fn row_starts(&self) -> Vec<u32> {
        let mut starts = Vec::with_capacity(self.sizes.len() + 1);
        let mut acc = 0u32;
        starts.push(0);
        for &s in &self.sizes {
            acc += s;
            starts.push(acc);
        }
        starts
    }

    /// Checks sizes are nonzero, within [`MAX_CLUSTER_LEN`], and cover
    /// exactly `nrows`.
    pub fn validate(&self, nrows: usize) -> Result<(), String> {
        let mut total = 0usize;
        for (i, &s) in self.sizes.iter().enumerate() {
            if s == 0 {
                return Err(format!("cluster {i} is empty"));
            }
            if s as usize > MAX_CLUSTER_LEN {
                return Err(format!("cluster {i} has {s} rows > {MAX_CLUSTER_LEN}"));
            }
            total += s as usize;
        }
        if total != nrows {
            return Err(format!("clusters cover {total} rows, matrix has {nrows}"));
        }
        Ok(())
    }
}

/// Sparse matrix in `CSR_Cluster` form (see module docs for the layout).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrCluster {
    /// Number of (original) matrix rows.
    pub nrows: usize,
    /// Number of matrix columns.
    pub ncols: usize,
    /// Offsets into `col_ids`/`masks` per cluster (`nclusters + 1`).
    pub cluster_ptr: Vec<usize>,
    /// Sorted union column indices per cluster.
    pub col_ids: Vec<ColIdx>,
    /// Member-presence bitmask per union column.
    pub masks: Vec<u8>,
    /// Offsets into `vals` per cluster (`nclusters + 1`).
    pub val_ptr: Vec<usize>,
    /// Column-major (within cluster) value slots, padded with `0.0`.
    pub vals: Vec<Value>,
    /// First row id per cluster plus sentinel (`nclusters + 1`).
    pub row_start: Vec<u32>,
}

impl CsrCluster {
    /// Number of clusters.
    #[inline]
    pub fn nclusters(&self) -> usize {
        self.cluster_ptr.len() - 1
    }

    /// Rows in cluster `c`.
    #[inline]
    pub fn cluster_size(&self, c: usize) -> usize {
        (self.row_start[c + 1] - self.row_start[c]) as usize
    }

    /// Union column ids of cluster `c`.
    #[inline]
    pub fn cluster_cols(&self, c: usize) -> &[ColIdx] {
        &self.col_ids[self.cluster_ptr[c]..self.cluster_ptr[c + 1]]
    }

    /// Member bitmasks of cluster `c` (parallel to [`CsrCluster::cluster_cols`]).
    #[inline]
    pub fn cluster_masks(&self, c: usize) -> &[u8] {
        &self.masks[self.cluster_ptr[c]..self.cluster_ptr[c + 1]]
    }

    /// Value slots of cluster `c` (length `union · K`).
    #[inline]
    pub fn cluster_vals(&self, c: usize) -> &[Value] {
        &self.vals[self.val_ptr[c]..self.val_ptr[c + 1]]
    }

    /// Builds `CSR_Cluster` from a CSR matrix and a clustering of its
    /// consecutive rows.
    pub fn from_csr(a: &CsrMatrix, clustering: &Clustering) -> CsrCluster {
        clustering.validate(a.nrows).unwrap_or_else(|e| panic!("invalid clustering: {e}"));
        let row_start = clustering.row_starts();
        let rows = |c: usize| row_start[c] as usize..row_start[c + 1] as usize;
        // Pass 1 counts each cluster's union (a merge of its sorted rows),
        // so every array is allocated once, at its size.
        let (mut cluster_ptr, mut val_ptr) = (vec![0usize], vec![0usize]);
        for (c, &k) in clustering.sizes.iter().enumerate() {
            let mut union = 0;
            merge_rows(a, rows(c), |_, _, _| union += 1);
            cluster_ptr.push(cluster_ptr[c] + union);
            val_ptr.push(val_ptr[c] + union * k as usize);
        }
        let union = cluster_ptr[clustering.nclusters()];
        let (mut col_ids, mut masks) = (vec![0; union], vec![0; union]);
        let mut vals = vec![0.0; val_ptr[clustering.nclusters()]];
        // Pass 2 fills them: value slots column-major, padding left at 0.0.
        for (c, &k) in clustering.sizes.iter().enumerate() {
            let (mut p, mut slot, k) = (cluster_ptr[c], val_ptr[c], k as usize);
            merge_rows(a, rows(c), |col, mask, at| {
                (col_ids[p], masks[p]) = (col, mask);
                for (r, &e) in at.iter().enumerate().take(k) {
                    if mask >> r & 1 != 0 {
                        vals[slot + r] = a.vals[e];
                    }
                }
                p += 1;
                slot += k;
            });
        }
        CsrCluster {
            nrows: a.nrows,
            ncols: a.ncols,
            cluster_ptr,
            col_ids,
            masks,
            val_ptr,
            vals,
            row_start,
        }
    }

    /// Reconstructs the CSR matrix (round-trip inverse of
    /// [`CsrCluster::from_csr`]).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut rows: Vec<Vec<(usize, Value)>> = vec![Vec::new(); self.nrows];
        for c in 0..self.nclusters() {
            let base = self.row_start[c] as usize;
            let k = self.cluster_size(c);
            let cols = self.cluster_cols(c);
            let masks = self.cluster_masks(c);
            let vals = self.cluster_vals(c);
            for (p, (&col, &mask)) in cols.iter().zip(masks).enumerate() {
                for r in 0..k {
                    if mask & (1 << r) != 0 {
                        rows[base + r].push((col as usize, vals[p * k + r]));
                    }
                }
            }
        }
        let ncols = self.ncols;
        CsrMatrix::from_row_lists(ncols, rows)
    }

    /// Number of stored (non-padding) entries — equals `nnz` of the source.
    pub fn nnz(&self) -> usize {
        self.masks.iter().map(|&m| m.count_ones() as usize).sum()
    }

    /// Number of padding (placeholder) value slots.
    pub fn padding_slots(&self) -> usize {
        self.vals.len() - self.nnz()
    }

    /// Total bytes of this representation — the Fig. 11 numerator:
    /// union column ids + masks + padded value slots + pointer arrays.
    pub fn memory_bytes(&self) -> usize {
        self.col_ids.len() * std::mem::size_of::<ColIdx>()
            + self.masks.len()
            + self.vals.len() * std::mem::size_of::<Value>()
            + self.cluster_ptr.len() * std::mem::size_of::<usize>()
            + self.val_ptr.len() * std::mem::size_of::<usize>()
            + self.row_start.len() * std::mem::size_of::<u32>()
    }

    /// Structural self-check (test / debug aid).
    pub fn validate(&self) -> Result<(), String> {
        let nc = self.nclusters();
        if self.val_ptr.len() != nc + 1 || self.row_start.len() != nc + 1 {
            return Err("pointer array length mismatch".into());
        }
        for c in 0..nc {
            let k = self.cluster_size(c);
            if k == 0 || k > MAX_CLUSTER_LEN {
                return Err(format!("cluster {c} size {k} out of range"));
            }
            let union = self.cluster_ptr[c + 1] - self.cluster_ptr[c];
            if self.val_ptr[c + 1] - self.val_ptr[c] != union * k {
                return Err(format!("cluster {c} value-slot count mismatch"));
            }
            let cols = self.cluster_cols(c);
            if !cols.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("cluster {c} union columns unsorted"));
            }
            for (p, &mask) in self.cluster_masks(c).iter().enumerate() {
                if mask == 0 {
                    return Err(format!("cluster {c} position {p} has empty mask"));
                }
                if (mask as usize) >> k != 0 {
                    return Err(format!("cluster {c} position {p} mask exceeds size"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 6×6 matrix of paper Fig. 1 / Fig. 5.
    fn fig1_matrix() -> CsrMatrix {
        CsrMatrix::from_row_lists(
            6,
            vec![
                vec![(0, 1.0), (1, 2.0), (2, 3.0)],
                vec![(1, 4.0), (2, 5.0), (5, 6.0)],
                vec![(0, 7.0), (1, 8.0), (5, 9.0)],
                vec![(3, 10.0), (4, 11.0), (5, 12.0)],
                vec![(2, 13.0), (4, 14.0), (5, 15.0)],
                vec![(0, 16.0), (3, 17.0)],
            ],
        )
    }

    #[test]
    fn fig6a_fixed_length_layout() {
        // Paper Fig. 6(a): two fixed clusters of three rows.
        let a = fig1_matrix();
        let clustering = Clustering { sizes: vec![3, 3] };
        let cc = CsrCluster::from_csr(&a, &clustering);
        cc.validate().unwrap();
        // Cluster 0 union = {0,1,2,5}; cluster 1 union = {0,2,3,4,5}.
        assert_eq!(cc.cluster_cols(0), &[0, 1, 2, 5]);
        assert_eq!(cc.cluster_cols(1), &[0, 2, 3, 4, 5]);
        assert_eq!(cc.cluster_ptr, vec![0, 4, 9]);
        // 17 real entries, 4*3 + 5*3 = 27 slots -> 10 placeholders.
        assert_eq!(cc.nnz(), 17);
        assert_eq!(cc.vals.len(), 27);
        assert_eq!(cc.padding_slots(), 10);
        // Column 5 of cluster 0 has rows 1,2 (bits 1,2) but not row 0 —
        // the "empty (placeholder) position" of the paper's walk-through.
        assert_eq!(cc.cluster_masks(0)[3], 0b110);
        // Value slots of cluster 0, union position 0 (column 0): rows 0,2.
        assert_eq!(&cc.cluster_vals(0)[0..3], &[1.0, 0.0, 7.0]);
    }

    #[test]
    fn fig6b_variable_length_layout() {
        // Paper Fig. 6(b): variable clusters {0,1,2}, {3,4}, {5}.
        let a = fig1_matrix();
        let clustering = Clustering { sizes: vec![3, 2, 1] };
        let cc = CsrCluster::from_csr(&a, &clustering);
        cc.validate().unwrap();
        assert_eq!(cc.cluster_cols(0), &[0, 1, 2, 5]);
        assert_eq!(cc.cluster_cols(1), &[2, 3, 4, 5]);
        assert_eq!(cc.cluster_cols(2), &[0, 3]);
        // Paper's cluster-ptrs: 0 4 8 10.
        assert_eq!(cc.cluster_ptr, vec![0, 4, 8, 10]);
        assert_eq!(cc.nnz(), 17);
    }

    #[test]
    fn round_trip_reconstruction() {
        let a = fig1_matrix();
        for sizes in [vec![3u32, 3], vec![3, 2, 1], vec![1, 1, 1, 1, 1, 1], vec![6]] {
            let cc = CsrCluster::from_csr(&a, &Clustering { sizes });
            let back = cc.to_csr();
            assert!(a.approx_eq(&back, 0.0));
        }
    }

    #[test]
    fn singleton_clusters_match_csr_exactly() {
        let a = fig1_matrix();
        let cc = CsrCluster::from_csr(&a, &Clustering { sizes: vec![1; 6] });
        // With K=1 there is no padding and unions are the rows themselves.
        assert_eq!(cc.padding_slots(), 0);
        assert_eq!(cc.col_ids, a.col_idx);
    }

    #[test]
    fn identical_rows_compress_column_ids() {
        // 4 identical rows of 5 entries: CSR stores 20 col ids,
        // CSR_Cluster stores 5.
        let row: Vec<(usize, Value)> = (0..5).map(|c| (c * 2, 1.0)).collect();
        let a = CsrMatrix::from_row_lists(10, vec![row.clone(), row.clone(), row.clone(), row]);
        let cc = CsrCluster::from_csr(&a, &Clustering { sizes: vec![4] });
        assert_eq!(cc.col_ids.len(), 5);
        assert_eq!(cc.padding_slots(), 0);
        assert!(cc.memory_bytes() < a.memory_bytes());
    }

    #[test]
    fn validate_rejects_bad_clusterings() {
        let a = fig1_matrix();
        assert!(Clustering { sizes: vec![3, 2] }.validate(6).is_err()); // covers 5
        assert!(Clustering { sizes: vec![0, 6] }.validate(6).is_err()); // empty
        assert!(Clustering { sizes: vec![9] }.validate(9).is_err()); // > max
        assert!(Clustering { sizes: vec![3, 3] }.validate(a.nrows).is_ok());
    }

    #[test]
    fn empty_rows_inside_clusters() {
        let a = CsrMatrix::from_row_lists(4, vec![vec![(0, 1.0)], vec![], vec![(3, 2.0)]]);
        let cc = CsrCluster::from_csr(&a, &Clustering { sizes: vec![3] });
        cc.validate().unwrap();
        assert_eq!(cc.nnz(), 2);
        assert!(a.approx_eq(&cc.to_csr(), 0.0));
    }

    #[test]
    fn row_starts_align() {
        let c = Clustering { sizes: vec![2, 3, 1] };
        assert_eq!(c.row_starts(), vec![0, 2, 5, 6]);
        assert_eq!(c.nclusters(), 3);
        assert_eq!(c.nrows(), 6);
    }
}
