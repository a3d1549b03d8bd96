//! Clustering quality statistics — the quantities that predict whether
//! cluster-wise SpGEMM will pay off (§3.4's trade-off discussion, made
//! measurable).

use crate::format::CsrCluster;

/// Quality summary of a clustering / clustered format.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStats {
    /// Number of clusters.
    pub nclusters: usize,
    /// Mean rows per cluster.
    pub avg_cluster_size: f64,
    /// Largest cluster.
    pub max_cluster_size: usize,
    /// Fraction of rows living in clusters of ≥ 2 rows.
    pub clustered_row_fraction: f64,
    /// Mean *sharing factor*: nnz / union-columns — how many member rows
    /// use each stored column id on average (1.0 = no sharing; higher is
    /// better for both memory and B-row reuse).
    pub sharing_factor: f64,
    /// Padding slots as a fraction of value slots (0 = no padding; the
    /// memory price of imperfect similarity).
    pub padding_fraction: f64,
}

/// Computes statistics for a built `CSR_Cluster`.
pub fn cluster_stats(cc: &CsrCluster) -> ClusterStats {
    let nclusters = cc.nclusters();
    let mut clustered_rows = 0usize;
    let mut max_size = 0usize;
    for c in 0..nclusters {
        let k = cc.cluster_size(c);
        max_size = max_size.max(k);
        if k >= 2 {
            clustered_rows += k;
        }
    }
    let nnz = cc.nnz();
    let slots = cc.vals.len();
    ClusterStats {
        nclusters,
        avg_cluster_size: if nclusters == 0 { 0.0 } else { cc.nrows as f64 / nclusters as f64 },
        max_cluster_size: max_size,
        clustered_row_fraction: if cc.nrows == 0 {
            0.0
        } else {
            clustered_rows as f64 / cc.nrows as f64
        },
        sharing_factor: if cc.col_ids.is_empty() {
            1.0
        } else {
            nnz as f64 / cc.col_ids.len() as f64
        },
        padding_fraction: if slots == 0 { 0.0 } else { (slots - nnz) as f64 / slots as f64 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        fixed_clustering, hierarchical_clustering, variable_clustering, ClusterConfig, Clustering,
    };
    use cw_sparse::gen::banded::block_diagonal;
    use cw_sparse::gen::er::erdos_renyi;
    use cw_sparse::CsrMatrix;

    #[test]
    fn perfect_blocks_share_fully() {
        let a = block_diagonal(64, (8, 8), 0.0, 1);
        let cc = CsrCluster::from_csr(&a, &fixed_clustering(&a, 8));
        let s = cluster_stats(&cc);
        assert_eq!(s.max_cluster_size, 8);
        assert_eq!(s.clustered_row_fraction, 1.0);
        assert!((s.sharing_factor - 8.0).abs() < 1e-12);
        assert_eq!(s.padding_fraction, 0.0);
    }

    #[test]
    fn random_rows_share_nothing() {
        let a = erdos_renyi(64, 6, 2);
        let cc = CsrCluster::from_csr(&a, &variable_clustering(&a, &ClusterConfig::default()));
        let s = cluster_stats(&cc);
        // Variable clustering declines to merge dissimilar rows.
        assert!(s.clustered_row_fraction < 0.3, "{s:?}");
        assert!(s.sharing_factor < 1.3, "{s:?}");
    }

    #[test]
    fn hierarchical_stats_on_scattered_blocks() {
        let blocks = block_diagonal(128, (4, 4), 0.0, 5);
        let shuffle =
            cw_sparse::Permutation::from_new_to_old((0..128u32).map(|i| (i * 37) % 128).collect())
                .unwrap();
        let a = shuffle.permute_symmetric(&blocks);
        let h = hierarchical_clustering(&a, &ClusterConfig::default());
        let (cc, _) = h.build_symmetric(&a);
        let s = cluster_stats(&cc);
        assert!(s.clustered_row_fraction > 0.9, "{s:?}");
        assert!(s.sharing_factor > 2.0, "{s:?}");
    }

    #[test]
    fn empty_matrix_stats() {
        let a = CsrMatrix::zeros(0, 0);
        let cc = CsrCluster::from_csr(&a, &Clustering { sizes: vec![] });
        let s = cluster_stats(&cc);
        assert_eq!(s.nclusters, 0);
        assert_eq!(s.padding_fraction, 0.0);
    }
}
