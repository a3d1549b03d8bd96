//! End-to-end integration tests spanning the whole workspace: generators →
//! reorderings → clusterings → kernels, verified against each other.

use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::sparse::gen;

/// Generators covering every structural family in the corpus.
fn test_matrices() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("poisson2d", gen::grid::poisson2d(14, 11)),
        ("stencil9", gen::grid::stencil9(10, 10)),
        ("poisson3d", gen::grid::poisson3d(5, 5, 5)),
        ("grid4d", gen::grid::grid4d(3)),
        ("tri_mesh", gen::mesh::tri_mesh(12, 12, true, 3)),
        ("patched_mesh", gen::mesh::patched_mesh(6, 6, 3, 1)),
        ("rmat", gen::rmat::rmat(7, 6, gen::rmat::RmatParams::default(), 5)),
        ("road", gen::road::road(11, 12, 0.9, 5, 9)),
        ("banded", gen::banded::banded(120, 5, 0.5, 2)),
        ("block_diagonal", gen::banded::block_diagonal(96, (3, 7), 0.05, 4)),
        ("grouped_rows", gen::banded::grouped_rows(90, 4, 6, 6)),
        ("kkt", gen::kkt::kkt(90, 30, 2, 3, 8)),
        ("erdos_renyi", gen::er::erdos_renyi(100, 6, 7)),
    ]
}

#[test]
fn every_generator_produces_valid_square_matrices() {
    for (name, a) in test_matrices() {
        a.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(a.nrows, a.ncols, "{name}");
        assert!(a.nnz() > 0, "{name}");
    }
}

#[test]
fn clusterwise_equals_rowwise_across_generators_and_schemes() {
    let cfg = ClusterConfig::default();
    for (name, a) in test_matrices() {
        let reference = spgemm_serial(&a, &a);
        // Fixed and variable clustering on the original order.
        for clustering in
            [fixed_clustering(&a, 8), fixed_clustering(&a, 3), variable_clustering(&a, &cfg)]
        {
            let cc = CsrCluster::from_csr(&a, &clustering);
            let got = clusterwise_spgemm(&cc, &a);
            assert!(got.approx_eq(&reference, 1e-9), "{name}");
        }
        // Hierarchical (its own permutation).
        let h = hierarchical_clustering(&a, &cfg);
        let (cc, pa) = h.build_symmetric(&a);
        let got = clusterwise_spgemm(&cc, &pa);
        let expected = h.perm.permute_symmetric(&reference);
        assert!(got.numerically_eq(&expected, 1e-8), "{name} hierarchical");
    }
}

#[test]
fn reordering_commutes_with_squaring() {
    // (P·A·Pᵀ)² must equal P·A²·Pᵀ for every reordering algorithm.
    let a = gen::mesh::tri_mesh(10, 10, true, 2);
    let a2 = spgemm_serial(&a, &a);
    for algo in Reordering::all_ten() {
        let p = algo.compute(&a, 11);
        let pa = p.permute_symmetric(&a);
        let lhs = spgemm_serial(&pa, &pa);
        let rhs = p.permute_symmetric(&a2);
        assert!(lhs.numerically_eq(&rhs, 1e-8), "{}", algo.name());
    }
}

#[test]
fn reordering_then_clustering_preserves_products() {
    // The full Fig. 3 pipeline: reorder, cluster, multiply, unpermute.
    let cfg = ClusterConfig::default();
    let a = gen::banded::block_diagonal(80, (4, 6), 0.1, 3);
    let a2 = spgemm_serial(&a, &a);
    for algo in [Reordering::Rcm, Reordering::Gp(8), Reordering::Hp(8), Reordering::Gray] {
        let p = algo.compute(&a, 5);
        let pa = p.permute_symmetric(&a);
        for clustering in [fixed_clustering(&pa, 8), variable_clustering(&pa, &cfg)] {
            let cc = CsrCluster::from_csr(&pa, &clustering);
            let got = clusterwise_spgemm(&cc, &pa);
            let expected = p.permute_symmetric(&a2);
            assert!(got.numerically_eq(&expected, 1e-8), "{}", algo.name());
        }
    }
}

#[test]
fn tall_skinny_frontier_pipeline() {
    use clusterwise_spgemm::datasets::frontier::bc_frontiers;
    let a = gen::road::road(14, 14, 0.9, 5, 1);
    let frontiers = bc_frontiers(&a, 8, 6, 3);
    assert!(!frontiers.is_empty());
    let h = hierarchical_clustering(&a, &ClusterConfig::default());
    let (cc, _) = h.build_symmetric(&a);
    for f in &frontiers {
        let reference = spgemm_serial(&a, f);
        let pf = h.perm.permute_rows(f);
        let got = clusterwise_spgemm(&cc, &pf);
        let expected = h.perm.permute_rows(&reference);
        assert!(got.approx_eq(&expected, 1e-9));
    }
}

#[test]
fn corpus_datasets_build_and_square() {
    // Exercise a slice of the real corpus end to end (kept small for CI).
    use clusterwise_spgemm::datasets::{corpus, Scale};
    for d in corpus().iter().step_by(23) {
        let a = d.build(Scale::Small);
        let c = spgemm(&a, &a);
        assert!(c.nnz() > 0, "{}", d.name);
        c.validate().unwrap_or_else(|e| panic!("{}: {e}", d.name));
    }
}

#[test]
fn matrix_market_round_trip_through_pipeline() {
    use clusterwise_spgemm::sparse::io::{read_matrix_market, write_matrix_market};
    let a = gen::banded::block_diagonal(40, (3, 5), 0.1, 9);
    let mut buf = Vec::new();
    write_matrix_market(&a, &mut buf).unwrap();
    let b = read_matrix_market(std::io::Cursor::new(buf)).unwrap();
    assert!(a.approx_eq(&b, 0.0));
    // The reloaded matrix goes through the clustered kernel identically.
    let cc = CsrCluster::from_csr(&b, &variable_clustering(&b, &ClusterConfig::default()));
    let got = clusterwise_spgemm(&cc, &b);
    assert!(got.approx_eq(&spgemm_serial(&a, &a), 1e-9));
}

#[test]
fn accumulators_agree_on_every_generator() {
    for (name, a) in test_matrices() {
        let reference =
            spgemm_with(&a, &a, &SpGemmOptions { acc: AccumulatorKind::Dense, parallel: false });
        let hash = SpGemmOptions { acc: AccumulatorKind::Hash, parallel: true };
        assert!(spgemm_with(&a, &a, &hash).approx_eq(&reference, 1e-9), "{name}");
    }
}
