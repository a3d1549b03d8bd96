//! Property tests for the partitioning and reordering substrates: every
//! partition is complete and bounded, every reordering is a bijection that
//! preserves matrix structure up to relabeling.

use clusterwise_spgemm::partition::{
    edge_cut, imbalance, partition_graph, partition_hypergraph, Graph, Hypergraph,
};
use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::sparse::CooMatrix;
use proptest::prelude::*;

/// Random connected-ish symmetric matrix: a cycle backbone plus random
/// chords, guaranteeing no isolated vertices.
fn random_symmetric(max_n: usize) -> impl Strategy<Value = CsrMatrix> {
    (4usize..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..3 * n).prop_map(move |chords| {
            let mut coo = CooMatrix::new(n, n);
            for v in 0..n {
                coo.push_sym(v, (v + 1) % n, 1.0);
            }
            for (u, v) in chords {
                if u != v {
                    coo.push_sym(u, v, 1.0);
                }
            }
            coo.to_csr()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn graph_partition_is_complete_and_balanced(
        a in random_symmetric(64),
        k in 2usize..6,
        seed in 0u64..50,
    ) {
        prop_assume!(k * 2 <= a.nrows); // parts need room to be non-empty
        let g = Graph::from_matrix(&a);
        let parts = partition_graph(&g, k, seed);
        prop_assert_eq!(parts.len(), g.nvtx());
        prop_assert!(parts.iter().all(|&p| (p as usize) < k));
        // Every part non-empty and imbalance bounded (loose: 2x ideal).
        let mut counts = vec![0usize; k];
        for &p in &parts {
            counts[p as usize] += 1;
        }
        prop_assert!(counts.iter().all(|&c| c > 0), "empty part: {:?}", counts);
        prop_assert!(imbalance(&g, &parts, k) <= 2.0, "imbalance {}", imbalance(&g, &parts, k));
        // Cut is at most the total edge weight.
        prop_assert!(edge_cut(&g, &parts) <= g.adjwgt.iter().sum::<u64>() / 2);
    }

    #[test]
    fn hypergraph_partition_is_complete(
        a in random_symmetric(48),
        seed in 0u64..50,
    ) {
        let hg = Hypergraph::column_net_model(&a);
        let parts = partition_hypergraph(&hg, 2, seed);
        prop_assert_eq!(parts.len(), hg.nvtx());
        // Cut-net is bounded by the number of nets.
        prop_assert!(hg.cut_net(&parts) <= hg.nnets() as u64);
    }

    #[test]
    fn every_reordering_is_structure_preserving(
        a in random_symmetric(40),
        seed in 0u64..20,
    ) {
        for algo in Reordering::all_ten() {
            let p = algo.compute(&a, seed);
            prop_assert_eq!(p.len(), a.nrows, "{}", algo.name());
            let b = p.permute_symmetric(&a);
            // Structure preserved: nnz, degree multiset, value multiset.
            prop_assert_eq!(b.nnz(), a.nnz(), "{}", algo.name());
            let mut da: Vec<usize> = (0..a.nrows).map(|i| a.row_nnz(i)).collect();
            let mut db: Vec<usize> = (0..b.nrows).map(|i| b.row_nnz(i)).collect();
            da.sort_unstable();
            db.sort_unstable();
            prop_assert_eq!(da, db, "{}", algo.name());
        }
    }

    // Up to 160 vertices, so most graphs are dissected past ND's 64-vertex
    // leaf.
    #[test]
    fn nested_dissection_is_permutation(a in random_symmetric(160), seed in 0u64..20) {
        let g = Graph::from_matrix(&a);
        let ord = clusterwise_spgemm::partition::nested_dissection_order(&g, seed);
        prop_assert!(Permutation::from_new_to_old(ord).is_ok());
    }

    #[test]
    fn reuse_histogram_accounting_is_exact(
        trace in proptest::collection::vec(0u32..24, 0..300),
    ) {
        use cw_cachesim::reuse_distance_histogram;
        let h = reuse_distance_histogram(&trace, 24, 32);
        // cold + finite reuses == trace length.
        prop_assert_eq!(h.cold + h.reuses(), trace.len() as u64);
        // cold == number of distinct items.
        let mut distinct = trace.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(h.cold, distinct.len() as u64);
    }
}
