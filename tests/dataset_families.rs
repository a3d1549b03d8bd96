//! Structural contracts of the dataset corpus: each family must actually
//! exhibit the signature property the paper's corresponding SuiteSparse
//! group has — otherwise the evaluation would be sweeping over mislabeled
//! inputs.

use clusterwise_spgemm::datasets::{corpus, representative, Category, Scale};
use clusterwise_spgemm::sparse::stats::{avg_consecutive_jaccard, bandwidth, stats};

#[test]
fn powerlaw_family_has_heavy_tails() {
    for d in corpus().iter().filter(|d| d.category == Category::PowerLaw) {
        let a = d.build(Scale::Small);
        let s = stats(&a);
        let skew = s.max_row_nnz as f64 / s.avg_row_nnz.max(1e-9);
        assert!(skew > 3.0, "{}: degree skew {skew:.1} too uniform for PowerLaw", d.name);
    }
}

#[test]
fn road_family_has_bounded_degree() {
    for d in corpus().iter().filter(|d| d.category == Category::Road) {
        let a = d.build(Scale::Small);
        let s = stats(&a);
        assert!(s.max_row_nnz <= 12, "{}: max degree {} too high for Road", d.name, s.max_row_nnz);
    }
}

#[test]
fn mesh_family_is_scattered_and_symmetric() {
    for d in
        corpus().iter().filter(|d| d.category == Category::Mesh2d && d.name.starts_with("mesh2d"))
    {
        let a = d.build(Scale::Small);
        assert!(a.is_pattern_symmetric(), "{}", d.name);
        // Scrambled ids: bandwidth near n, the state reordering repairs.
        assert!(
            bandwidth(&a) > a.nrows / 4,
            "{}: bandwidth {} suggests natural ordering",
            d.name,
            bandwidth(&a)
        );
    }
}

#[test]
fn block_and_grouped_families_have_similar_consecutive_rows() {
    for d in corpus()
        .iter()
        .filter(|d| matches!(d.category, Category::BlockDiag | Category::GroupedRows))
    {
        let a = d.build(Scale::Small);
        let j = avg_consecutive_jaccard(&a);
        assert!(j > 0.4, "{}: consecutive Jaccard {j:.2} too low for its family", d.name);
    }
}

#[test]
fn banded_family_is_banded() {
    for d in
        corpus().iter().filter(|d| d.category == Category::Banded && d.name.starts_with("banded"))
    {
        let a = d.build(Scale::Small);
        assert!(bandwidth(&a) <= 32, "{}: bandwidth {}", d.name, bandwidth(&a));
    }
}

#[test]
fn kkt_family_has_empty_22_block() {
    for d in corpus().iter().filter(|d| d.category == Category::Kkt) {
        let a = d.build(Scale::Small);
        // The trailing rows (constraints) must not couple to each other
        // beyond their own diagonal regularization.
        let nc = a.nrows / 5; // corpus recipes keep nc ≈ n/5 or smaller
        let start = a.nrows - nc / 2;
        for i in start..a.nrows {
            for &j in a.row_cols(i) {
                let j = j as usize;
                assert!(
                    j < start || j == i,
                    "{}: constraint row {i} couples to constraint column {j}",
                    d.name
                );
            }
        }
    }
}

#[test]
fn representative_names_match_paper_analogues() {
    let names: Vec<&str> = representative().iter().map(|d| d.name).collect();
    for expected in [
        "cage12-like",
        "poi3D-like",
        "conf5-like",
        "pdb1-like",
        "rma10-like",
        "wb-like",
        "AS365-like",
        "huget-like",
        "M6-like",
        "NLR-like",
    ] {
        assert!(names.contains(&expected), "missing {expected}");
    }
}

#[test]
fn all_110_build_without_panicking_and_stay_square() {
    // The one test that touches every dataset (cheap: build only).
    for d in corpus() {
        let a = d.build(Scale::Small);
        assert_eq!(a.nrows, a.ncols, "{}", d.name);
        assert!(a.nnz() >= 500, "{}: only {} nnz", d.name, a.nnz());
    }
}
