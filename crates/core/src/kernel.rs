//! Cluster-wise SpGEMM (paper Algorithm 1).
//!
//! The loop structure — and the whole point of the format — differs from
//! row-wise Gustavson in *when* a `B` row is visited: once per **cluster**
//! that references its column, not once per row. While the `B` row is hot,
//! the kernel applies it to every member row of the cluster (the blue lines
//! of Alg. 1):
//!
//! ```text
//! for each cluster a_i∗ of A            (parallel)
//!   for each union column k of the cluster
//!     for each b_kj in row b_k∗         (B row streamed once)
//!       for each member row l with a_lk ≠ 0
//!         c_lj += a_lk · b_kj
//! ```
//!
//! Like the row-wise baseline, the kernel is one-phase and leaves sizing,
//! FLOP-balanced chunking (of *clusters*), the parallel fan-out and output
//! assembly to `cw_spgemm::single_pass`: a cluster's member rows are
//! extracted straight into the output once, and nothing is accumulated
//! twice to learn a size. The loops are monomorphised over the accumulator
//! type, chosen once per call from `SpGemmOptions::acc` — Dense only where
//! `MAX_CLUSTER_LEN` of them fit (`cw_spgemm::accumulator::dense_fits`).

use crate::format::{CsrCluster, MAX_CLUSTER_LEN};
use cw_sparse::{ColIdx, CsrMatrix, Permutation};
use cw_spgemm::accumulator::{
    dense_fits, Accumulator, AccumulatorKind, DenseAccumulator, HashAccumulator, LabelMap,
    SameLabels,
};
use cw_spgemm::rowwise::{CsrRows, SpGemmOptions};
use cw_spgemm::single_pass::{chunk_target, plan_chunks, single_pass};
use rayon::prelude::*;

/// `C = A · B` where `A` is stored in `CSR_Cluster` form. Default options
/// (hash accumulator, parallel).
pub fn clusterwise_spgemm(ac: &CsrCluster, b: &CsrMatrix) -> CsrMatrix {
    clusterwise_spgemm_with(ac, b, &SpGemmOptions::default())
}

/// [`clusterwise_spgemm`] with explicit accumulator/parallelism options.
pub fn clusterwise_spgemm_with(ac: &CsrCluster, b: &CsrMatrix, opts: &SpGemmOptions) -> CsrMatrix {
    clusterwise_spgemm_mapped(ac, b, opts, None)
}

/// [`clusterwise_spgemm_with`] with the product's rows stored where
/// `row_map` says: row `i` becomes row `row_map.old_of(i)` of the result, as
/// in [`cw_spgemm::spgemm_mapped`]. Passing the permutation the clustered
/// operand was built under returns the rows in the original order.
///
/// # Panics
///
/// Panics on a dimension mismatch, or if `row_map` does not have one entry
/// per row of `ac`.
pub fn clusterwise_spgemm_mapped(
    ac: &CsrCluster,
    b: &CsrMatrix,
    opts: &SpGemmOptions,
    row_map: Option<&Permutation>,
) -> CsrMatrix {
    clusterwise_spgemm_labelled(ac, &ac.col_ids, b.into(), opts, row_map, &SameLabels)
}

/// [`clusterwise_spgemm_mapped`] in a label space of the caller's choosing,
/// as [`cw_spgemm::spgemm_labelled`] is for the row-wise kernel. `union_ids`
/// stands in for `ac.col_ids` (same length, position for position; `ac`'s
/// masks and values are read as they are) and names the rows of `b` in
/// whatever numbering `b` is stored under; it need not be ascending inside a
/// cluster, and the order it does have is the order every member row's
/// partial products are summed in. Entry `(i, j)` of the product is emitted
/// as `(row_map.old_of(i), labels.label(j))`, rows ascending in their labels.
///
/// # Panics
///
/// Panics on a dimension mismatch, if `union_ids` does not have one entry
/// per union column of `ac`, or if `row_map` does not have one entry per row.
pub fn clusterwise_spgemm_labelled<L: LabelMap>(
    ac: &CsrCluster,
    union_ids: &[ColIdx],
    b: CsrRows<'_>,
    opts: &SpGemmOptions,
    row_map: Option<&Permutation>,
    labels: &L,
) -> CsrMatrix {
    assert_eq!(
        ac.ncols, b.nrows,
        "dimension mismatch: clustered A is {}x{}, B is {}x{}",
        ac.nrows, ac.ncols, b.nrows, b.ncols
    );
    assert_eq!(union_ids.len(), ac.col_ids.len(), "one id per union column");
    // One accumulator per member row of a cluster, `b.ncols` wide each.
    let kernel = match opts.acc {
        AccumulatorKind::Dense if dense_fits(b.ncols, MAX_CLUSTER_LEN) => {
            clusterwise_kernel::<DenseAccumulator, L>
        }
        _ => clusterwise_kernel::<HashAccumulator, L>,
    };
    kernel(ac, union_ids, b, opts, row_map, labels)
}

/// Union ids of cluster `c` out of a stand-in for `ac.col_ids`.
#[inline]
fn union_of<'i>(ac: &CsrCluster, union_ids: &'i [ColIdx], c: usize) -> &'i [ColIdx] {
    &union_ids[ac.cluster_ptr[c]..ac.cluster_ptr[c + 1]]
}

/// Runs Alg. 1's inner loops for cluster `c`, scattering into one
/// accumulator per member row.
#[inline]
fn accumulate_cluster<A: Accumulator>(
    ac: &CsrCluster,
    union_ids: &[ColIdx],
    b: CsrRows<'_>,
    c: usize,
    accs: &mut [A],
) {
    let k = ac.cluster_size(c);
    let cols = union_of(ac, union_ids, c);
    let masks = ac.cluster_masks(c);
    let vals = ac.cluster_vals(c);
    for (p, (&col, &mask)) in cols.iter().zip(masks).enumerate() {
        // Member values at this union column (incl. padding slots).
        let av = &vals[p * k..(p + 1) * k];
        let (b_cols, b_vals) = b.row(col as usize);
        // Paper Alg. 1 lines 4–7: B entry outer, member rows inner — b_kj
        // stays in a register while it is applied to every member row.
        for (&j, &bv) in b_cols.iter().zip(b_vals) {
            let mut m = mask;
            while m != 0 {
                let r = m.trailing_zeros() as usize;
                m &= m - 1;
                accs[r].add(j, av[r] * bv);
            }
        }
    }
}

/// Per cluster: its multiply-add count (for chunk balancing) and the upper
/// bound on its output entries, `Σ_member rows min(flops(row), ncols(B))`.
/// Computed on the pool, or (`pool == false`) on the calling thread alone —
/// a serial multiply must not wake the pool for it.
fn cluster_work(
    ac: &CsrCluster,
    union_ids: &[ColIdx],
    b: CsrRows<'_>,
    pool: bool,
) -> (Vec<u64>, Vec<usize>) {
    let work = |c: usize| {
        let mut row_flops = [0u64; MAX_CLUSTER_LEN];
        for (&col, &mask) in union_of(ac, union_ids, c).iter().zip(ac.cluster_masks(c)) {
            let n = b.row_nnz(col as usize) as u64;
            let mut m = mask;
            while m != 0 {
                row_flops[m.trailing_zeros() as usize] += n;
                m &= m - 1;
            }
        }
        let row_flops = &row_flops[..ac.cluster_size(c)];
        let bound: usize = row_flops.iter().map(|&f| f.min(b.ncols as u64) as usize).sum();
        (row_flops.iter().sum::<u64>(), bound)
    };
    let per_cluster: Vec<(u64, usize)> = if pool {
        (0..ac.nclusters()).into_par_iter().map(work).collect()
    } else {
        (0..ac.nclusters()).map(work).collect()
    };
    per_cluster.into_iter().unzip()
}

fn clusterwise_kernel<A: Accumulator, L: LabelMap>(
    ac: &CsrCluster,
    union_ids: &[ColIdx],
    b: CsrRows<'_>,
    opts: &SpGemmOptions,
    row_map: Option<&Permutation>,
    labels: &L,
) -> CsrMatrix {
    let target = chunk_target(opts.parallel, opts.chunks_per_thread);
    let (flops, bounds) = cluster_work(ac, union_ids, b, target > 1);
    let chunks = plan_chunks(&flops, target, |c| ac.row_start[c] as usize, |c| bounds[c]);
    single_pass(
        ac.nrows,
        b.ncols,
        &chunks,
        row_map,
        || (0..MAX_CLUSTER_LEN).map(|_| A::with_ncols(b.ncols)).collect::<Vec<A>>(),
        |accs, clusters, sink| {
            for c in clusters {
                accumulate_cluster(ac, union_ids, b, c, accs);
                for acc in accs.iter_mut().take(ac.cluster_size(c)) {
                    sink.push_labelled_row(acc, labels);
                }
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::format::Clustering;
    use crate::{fixed_clustering, hierarchical_clustering, variable_clustering};
    use cw_sparse::gen::banded::{block_diagonal, grouped_rows};
    use cw_sparse::gen::er::{erdos_renyi, erdos_renyi_rect};
    use cw_sparse::gen::grid::poisson2d;
    use cw_spgemm::rowwise::{spgemm_serial, SpGemmOptions};
    use cw_spgemm::AccumulatorKind;

    fn assert_matches_rowwise(a: &CsrMatrix, clustering: &Clustering) {
        let cc = CsrCluster::from_csr(a, clustering);
        cc.validate().unwrap();
        let expect = spgemm_serial(a, a);
        for parallel in [false, true] {
            for acc in [AccumulatorKind::Hash, AccumulatorKind::Dense] {
                let got = clusterwise_spgemm_with(
                    &cc,
                    a,
                    &SpGemmOptions { acc, parallel, chunks_per_thread: 3 },
                );
                assert!(got.approx_eq(&expect, 1e-10), "mismatch acc={acc:?} parallel={parallel}");
            }
        }
    }

    #[test]
    fn fig1_matrix_fixed_clusters_match_rowwise() {
        let a = CsrMatrix::from_row_lists(
            6,
            vec![
                vec![(0, 1.0), (1, 2.0), (2, 3.0)],
                vec![(1, 4.0), (2, 5.0), (5, 6.0)],
                vec![(0, 7.0), (1, 8.0), (5, 9.0)],
                vec![(3, 10.0), (4, 11.0), (5, 12.0)],
                vec![(2, 13.0), (4, 14.0), (5, 15.0)],
                vec![(0, 16.0), (3, 17.0)],
            ],
        );
        assert_matches_rowwise(&a, &Clustering { sizes: vec![3, 3] });
        assert_matches_rowwise(&a, &Clustering { sizes: vec![3, 2, 1] });
        assert_matches_rowwise(&a, &Clustering { sizes: vec![1; 6] });
        assert_matches_rowwise(&a, &Clustering { sizes: vec![6] });
    }

    #[test]
    fn poisson_squared_all_cluster_lengths() {
        let a = poisson2d(9, 7);
        for k in [1usize, 2, 4, 8] {
            assert_matches_rowwise(&a, &fixed_clustering(&a, k));
        }
    }

    #[test]
    fn variable_clustering_correctness() {
        let a = grouped_rows(80, 5, 7, 2);
        let c = variable_clustering(&a, &ClusterConfig::default());
        assert_matches_rowwise(&a, &c);
    }

    #[test]
    fn hierarchical_pipeline_correctness_a_squared() {
        let a = block_diagonal(60, (3, 7), 0.15, 5);
        let h = hierarchical_clustering(&a, &ClusterConfig::default());
        let (cc, pa) = h.build_symmetric(&a);
        let got = clusterwise_spgemm(&cc, &pa);
        // Reference: row-wise SpGEMM on the permuted matrix.
        let expect = spgemm_serial(&pa, &pa);
        assert!(got.approx_eq(&expect, 1e-10));
        // And the permuted product equals the permutation of the product.
        let c_orig = spgemm_serial(&a, &a);
        let expect2 = h.perm.permute_symmetric(&c_orig);
        assert!(got.numerically_eq(&expect2, 1e-9));
    }

    #[test]
    fn rectangular_tall_skinny_b() {
        let a = erdos_renyi(50, 6, 3);
        let b = erdos_renyi_rect(50, 12, 2, 4);
        let cc = CsrCluster::from_csr(&a, &fixed_clustering(&a, 4));
        let got = clusterwise_spgemm(&cc, &b);
        let expect = spgemm_serial(&a, &b);
        assert!(got.approx_eq(&expect, 1e-10));
        assert_eq!(got.ncols, 12);
    }

    #[test]
    fn empty_matrix() {
        let a = CsrMatrix::zeros(5, 5);
        let cc = CsrCluster::from_csr(&a, &fixed_clustering(&a, 2));
        let got = clusterwise_spgemm(&cc, &a);
        assert_eq!(got.nnz(), 0);
        assert_eq!(got.nrows, 5);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = CsrMatrix::zeros(4, 4);
        let b = CsrMatrix::zeros(5, 4);
        let cc = CsrCluster::from_csr(&a, &fixed_clustering(&a, 2));
        let _ = clusterwise_spgemm(&cc, &b);
    }

    #[test]
    fn cluster_work_counts_real_entries_only() {
        // Padding slots must not contribute flops.
        let a = CsrMatrix::from_row_lists(3, vec![vec![(0, 1.0)], vec![(1, 1.0)], vec![(2, 1.0)]]);
        let cc = CsrCluster::from_csr(&a, &Clustering { sizes: vec![3] });
        let b = CsrMatrix::identity(3);
        assert_eq!(cluster_work(&cc, &cc.col_ids, (&b).into(), false), (vec![3], vec![3]));
    }

    #[test]
    fn cluster_work_caps_each_member_row_at_ncols() {
        // Row 0 collects 2 + 2 products into a 2-column output; row 1 has one.
        let a = CsrMatrix::from_row_lists(2, vec![vec![(0, 1.0), (1, 1.0)], vec![(1, 1.0)]]);
        let b = CsrMatrix::from_row_lists(2, vec![vec![(0, 1.0), (1, 1.0)]; 2]);
        let cc = CsrCluster::from_csr(&a, &Clustering { sizes: vec![2] });
        assert_eq!(cluster_work(&cc, &cc.col_ids, (&b).into(), true), (vec![6], vec![2 + 2]));
    }
}
