//! The paper's primary contribution: **cluster-wise SpGEMM** (§3).
//!
//! * [`CsrCluster`] — the `CSR_Cluster` storage format (paper Fig. 6):
//!   consecutive rows grouped into clusters, each cluster storing the
//!   *union* of its rows' column indices once, with values laid out
//!   column-major inside the cluster (padding slots for absent entries) and
//!   a per-column member bitmask.
//! * [`Clustering`] — a partition of the row range into consecutive
//!   clusters, built by one of three strategies:
//!   [`fixed_clustering`] (equal-size groups, paper §3.2),
//!   [`variable_clustering`] (Jaccard-threshold growing, paper Alg. 2), and
//!   [`hierarchical_clustering`] (similar-row discovery via `SpGEMM(A·Aᵀ)`
//!   + union-find merging, paper Alg. 3 — this one also *reorders*).
//! * [`clusterwise_spgemm`] — the cluster-wise kernel (paper Alg. 1):
//!   iterate clusters of `A`; for each column in the cluster's union
//!   pattern, stream the `B` row once and apply it to every member row,
//!   into one accumulator per cluster whose entries are *lanes* of member
//!   values (bit-identical to row-wise Gustavson).
//! * [`memory`] — the Fig. 11 space accounting (`CSR_Cluster` vs CSR).
//! * [`trace`] — B-row access traces of the cluster-wise kernel for the
//!   cache-simulator experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod cluster_stats;
pub mod config;
pub mod format;
pub mod hierarchical;
pub mod kernel;
pub mod memory;
pub mod trace;
pub mod unionfind;
pub mod variable;

pub use config::ClusterConfig;
pub use format::{Clustering, CsrCluster};
pub use hierarchical::{hierarchical_clustering, HierarchicalClustering};
pub use kernel::{
    clusterwise_spgemm, clusterwise_spgemm_labelled, clusterwise_spgemm_with, ClusterRows,
};
pub use variable::variable_clustering;

use cw_sparse::CsrMatrix;

/// Fixed-length clustering (paper §3.2): groups every `k` consecutive rows;
/// the final cluster holds the remainder.
pub fn fixed_clustering(a: &CsrMatrix, k: usize) -> Clustering {
    assert!(k >= 1, "cluster length must be at least 1");
    let mut sizes = Vec::with_capacity(a.nrows / k + 1);
    let mut remaining = a.nrows;
    while remaining > 0 {
        let s = remaining.min(k);
        sizes.push(s as u32);
        remaining -= s;
    }
    Clustering { sizes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_clustering_shapes() {
        let a = CsrMatrix::identity(10);
        let c = fixed_clustering(&a, 3);
        assert_eq!(c.sizes, vec![3, 3, 3, 1]);
        assert_eq!(c.nrows(), 10);
        let c1 = fixed_clustering(&a, 1);
        assert_eq!(c1.sizes.len(), 10);
        let cbig = fixed_clustering(&a, 100);
        assert_eq!(cbig.sizes, vec![10]);
    }

    #[test]
    fn fixed_clustering_empty_matrix() {
        let a = CsrMatrix::zeros(0, 0);
        assert!(fixed_clustering(&a, 4).sizes.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn fixed_zero_length_panics() {
        let a = CsrMatrix::identity(4);
        let _ = fixed_clustering(&a, 0);
    }
}
