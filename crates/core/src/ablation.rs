//! Kernel ablation: cluster-wise *storage* without the cluster-wise
//! *access pattern*.
//!
//! The paper's prior-work critique (§1) is that reordering alone "leaves
//! performance on the table by storing the clustered matrix in row-major
//! order": grouping similar rows helps only if the kernel also changes its
//! traversal. This module isolates that claim. [`clusterwise_row_major`]
//! reads the exact same `CSR_Cluster` structure but processes member rows
//! one at a time (re-streaming every `B` row per member, like row-wise
//! Gustavson). Comparing it against
//! [`crate::kernel::clusterwise_spgemm`] in the cache simulator (`paper
//! ablation`) separates the format's compression benefit from the access
//! pattern's reuse benefit.

use crate::format::CsrCluster;
use cw_sparse::{ColIdx, CsrMatrix, Value};
use cw_spgemm::accumulator::{Accumulator, HashAccumulator};

/// Cluster-stored, row-major-processed SpGEMM (the ablation kernel;
/// serial — it exists for analysis, not production).
pub fn clusterwise_row_major(ac: &CsrCluster, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!(ac.ncols, b.nrows, "dimension mismatch");
    let mut acc = HashAccumulator::new();
    let mut row_ptr = Vec::with_capacity(ac.nrows + 1);
    row_ptr.push(0usize);
    let mut col_idx: Vec<ColIdx> = Vec::new();
    let mut vals: Vec<Value> = Vec::new();
    for c in 0..ac.nclusters() {
        let k = ac.cluster_size(c);
        let cols = ac.cluster_cols(c);
        let masks = ac.cluster_masks(c);
        let cvals = ac.cluster_vals(c);
        // Member rows processed one at a time: every member re-reads its
        // B rows, exactly like row-wise Gustavson would.
        for r in 0..k {
            for (p, (&col, &mask)) in cols.iter().zip(masks).enumerate() {
                if mask & (1 << r) == 0 {
                    continue;
                }
                let av = cvals[p * k + r];
                let (b_cols, b_vals) = b.row(col as usize);
                for (&j, &bv) in b_cols.iter().zip(b_vals) {
                    acc.add(j, av * bv);
                }
            }
            let (at, end) = (col_idx.len(), col_idx.len() + acc.len());
            col_idx.resize(end, 0);
            vals.resize(end, 0.0);
            acc.extract_into(&mut col_idx[at..], &mut vals[at..]);
            row_ptr.push(end);
        }
    }
    CsrMatrix { nrows: ac.nrows, ncols: b.ncols, row_ptr, col_idx, vals }
}

/// B-row access trace of the row-major ablation kernel: one access per
/// (member row, union column) pair it actually reads — identical to the
/// row-wise trace of the reconstructed matrix.
pub fn row_major_b_access_trace(ac: &CsrCluster) -> Vec<u32> {
    let mut trace = Vec::with_capacity(ac.nnz());
    for c in 0..ac.nclusters() {
        let k = ac.cluster_size(c);
        let cols = ac.cluster_cols(c);
        let masks = ac.cluster_masks(c);
        for r in 0..k {
            for (&col, &mask) in cols.iter().zip(masks) {
                if mask & (1 << r) != 0 {
                    trace.push(col);
                }
            }
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Clustering;
    use crate::{fixed_clustering, variable_clustering, ClusterConfig};
    use cw_sparse::gen::banded::{block_diagonal, grouped_rows};
    use cw_spgemm::rowwise::spgemm_serial;

    #[test]
    fn row_major_kernel_is_numerically_identical() {
        let a = block_diagonal(60, (3, 7), 0.1, 4);
        let reference = spgemm_serial(&a, &a);
        for clustering in
            [fixed_clustering(&a, 4), variable_clustering(&a, &ClusterConfig::default())]
        {
            let cc = CsrCluster::from_csr(&a, &clustering);
            let got = clusterwise_row_major(&cc, &a);
            assert!(got.approx_eq(&reference, 1e-10));
        }
    }

    #[test]
    fn row_major_trace_matches_rowwise_trace() {
        // The ablation kernel's B accesses equal row-wise Gustavson's —
        // that is the point: same storage, no reuse improvement.
        let a = grouped_rows(48, 4, 6, 2);
        let cc = CsrCluster::from_csr(&a, &fixed_clustering(&a, 4));
        assert_eq!(row_major_b_access_trace(&cc), cw_spgemm::trace::rowwise_b_access_trace(&a));
    }

    #[test]
    fn column_major_trace_is_strictly_shorter_on_groups() {
        let a = grouped_rows(48, 4, 6, 2);
        let cc = CsrCluster::from_csr(&a, &fixed_clustering(&a, 4));
        let row_major = row_major_b_access_trace(&cc).len();
        let col_major = crate::trace::clusterwise_b_access_trace(&cc).len();
        assert!(col_major < row_major, "{col_major} vs {row_major}");
    }

    #[test]
    fn singleton_clusters_trace_equivalence() {
        let a = block_diagonal(20, (2, 4), 0.0, 1);
        let cc = CsrCluster::from_csr(&a, &Clustering { sizes: vec![1; 20] });
        assert_eq!(row_major_b_access_trace(&cc), crate::trace::clusterwise_b_access_trace(&cc));
    }
}
