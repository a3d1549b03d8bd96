//! The ten sparse-matrix row-reordering algorithms of paper Table 1, and
//! hierarchical clustering's row order.
//!
//! Every algorithm produces a [`Permutation`] (`new → old`). For the `A²`
//! workload the evaluation applies it symmetrically (`P·A·Pᵀ`); for the
//! tall-skinny workload it permutes rows of `A` and correspondingly rows of
//! `B`.
//!
//! | variant | paper row | algorithm |
//! |---|---|---|
//! | [`Reordering::Original`] | Original | identity |
//! | [`Reordering::Random`] | Random/Shuffled | seeded Fisher–Yates |
//! | [`Reordering::Rcm`] | RCM | reverse Cuthill–McKee with George–Liu pseudo-peripheral roots |
//! | [`Reordering::Amd`] | AMD | minimum-degree on the quotient graph with element absorption |
//! | [`Reordering::Nd`] | ND | nested dissection (multilevel bisection + separators) |
//! | [`Reordering::Gp`] | GP | multilevel k-way graph partitioning, rows grouped by part |
//! | [`Reordering::Hp`] | HP | multilevel k-way hypergraph partitioning (column-net, cut-net) |
//! | [`Reordering::Gray`] | Gray | Gray-code ordering over column-block signatures with dense-row split |
//! | [`Reordering::Rabbit`] | Rabbit | community aggregation by modularity gain + dendrogram DFS |
//! | [`Reordering::Degree`] | Degree | descending degree |
//! | [`Reordering::SlashBurn`] | SlashBurn | iterative hub removal, hubs front / spokes back |
//! | [`Reordering::Hierarchical`] | — (not one of the ten) | hierarchical clustering's sweep (paper Alg. 3), cluster members consecutive |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod amd;
pub mod gray;
pub mod rabbit;
pub mod rcm;
pub mod slashburn;

use cw_core::{hierarchical_clustering, ClusterConfig};
use cw_partition::{
    nested_dissection_order, partition_graph, partition_hypergraph, Graph, Hypergraph,
};
use cw_sparse::{CsrMatrix, Permutation};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// A row-reordering algorithm (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reordering {
    /// Keep the input order.
    Original,
    /// Random shuffle — the adversarial baseline.
    Random,
    /// Reverse Cuthill–McKee (bandwidth reduction).
    Rcm,
    /// Approximate minimum degree (fill reduction).
    Amd,
    /// Nested dissection (fill reduction / parallelism).
    Nd,
    /// Graph partitioning into `k` parts (METIS-style, edge-cut objective).
    Gp(usize),
    /// Hypergraph partitioning into `k` parts (PaToH-style, cut-net metric).
    Hp(usize),
    /// Gray-code ordering of row sparsity signatures.
    Gray,
    /// Rabbit order (community-based hierarchical reordering).
    Rabbit,
    /// Descending degree order.
    Degree,
    /// SlashBurn hub/spoke ordering.
    SlashBurn,
    /// Hierarchical clustering's row order (paper Alg. 3, default
    /// [`ClusterConfig`]): similar rows consecutive, clusters in sweep
    /// order. Not one of the ten; the only order that also applies to a
    /// rectangular matrix.
    Hierarchical,
}

impl Reordering {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Reordering::Original => "Original",
            Reordering::Random => "Shuffled",
            Reordering::Rcm => "RCM",
            Reordering::Amd => "AMD",
            Reordering::Nd => "ND",
            Reordering::Gp(_) => "GP",
            Reordering::Hp(_) => "HP",
            Reordering::Gray => "Gray",
            Reordering::Rabbit => "Rabbit",
            Reordering::Degree => "Degree",
            Reordering::SlashBurn => "SlashBurn",
            Reordering::Hierarchical => "Hierarchical",
        }
    }

    /// The ten studied algorithms (paper Table 1 order), with default
    /// partition counts for GP/HP.
    pub fn all_ten() -> Vec<Reordering> {
        vec![
            Reordering::Random,
            Reordering::Rabbit,
            Reordering::Amd,
            Reordering::Rcm,
            Reordering::Nd,
            Reordering::Gp(16),
            Reordering::Hp(16),
            Reordering::Gray,
            Reordering::Degree,
            Reordering::SlashBurn,
        ]
    }

    /// Computes the row permutation for `a`. `seed` feeds every randomized
    /// step; results are deterministic per `(algorithm, matrix, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square, except under
    /// [`Reordering::Hierarchical`].
    pub fn compute(&self, a: &CsrMatrix, seed: u64) -> Permutation {
        if *self != Reordering::Hierarchical {
            assert_eq!(a.nrows, a.ncols, "reordering studies square matrices");
        }
        let n = a.nrows;
        match self {
            Reordering::Original => Permutation::identity(n),
            Reordering::Random => random_permutation(n, seed),
            Reordering::Rcm => rcm::rcm_order(a),
            Reordering::Amd => amd::amd_order(a),
            Reordering::Nd => {
                let g = Graph::from_matrix(a);
                let order = nested_dissection_order(&g, seed);
                Permutation::from_new_to_old(order).expect("ND produced a non-permutation")
            }
            Reordering::Gp(k) => {
                let g = Graph::from_matrix(a);
                let parts = partition_graph(&g, effective_k(*k, n), seed);
                order_by_parts(&parts)
            }
            Reordering::Hp(k) => {
                let hg = Hypergraph::column_net_model(a);
                let parts = partition_hypergraph(&hg, effective_k(*k, n), seed);
                order_by_parts(&parts)
            }
            Reordering::Gray => gray::gray_order(a),
            Reordering::Rabbit => rabbit::rabbit_order(a),
            Reordering::Degree => degree_order(a),
            Reordering::SlashBurn => slashburn::slashburn_order(a, slashburn::default_k(n)),
            Reordering::Hierarchical => hierarchical_clustering(a, &ClusterConfig::default()).perm,
        }
    }
}

/// Caps the requested part count so parts keep a sensible minimum size.
fn effective_k(k: usize, n: usize) -> usize {
    k.clamp(1, (n / 16).max(1))
}

/// Result of [`compute_timed`]: the permutation plus preprocessing seconds
/// (the quantity Fig. 10 amortizes against SpGEMM runs).
#[derive(Debug, Clone)]
pub struct TimedReordering {
    /// The computed permutation.
    pub perm: Permutation,
    /// Wall-clock preprocessing time in seconds.
    pub seconds: f64,
}

/// Computes a reordering and measures its preprocessing time.
pub fn compute_timed(algo: Reordering, a: &CsrMatrix, seed: u64) -> TimedReordering {
    let t0 = Instant::now();
    let perm = algo.compute(a, seed);
    TimedReordering { perm, seconds: t0.elapsed().as_secs_f64() }
}

/// Seeded Fisher–Yates shuffle.
pub fn random_permutation(n: usize, seed: u64) -> Permutation {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    Permutation::from_new_to_old(perm).unwrap()
}

/// Descending-degree ordering (stable: ties keep original order), packing
/// high-degree rows together to share cache lines (paper §2.3).
pub fn degree_order(a: &CsrMatrix) -> Permutation {
    let mut order: Vec<u32> = (0..a.nrows as u32).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(a.row_nnz(v as usize)), v));
    Permutation::from_new_to_old(order).unwrap()
}

/// Orders vertices by `(part id, original index)` — how GP/HP partitions
/// become row orders.
pub fn order_by_parts(parts: &[u32]) -> Permutation {
    let mut order: Vec<u32> = (0..parts.len() as u32).collect();
    order.sort_by_key(|&v| (parts[v as usize], v));
    Permutation::from_new_to_old(order).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::gen::grid::poisson2d;
    use cw_sparse::gen::mesh::tri_mesh;
    use cw_sparse::stats::bandwidth;

    #[test]
    fn every_algorithm_yields_valid_permutation() {
        let a = tri_mesh(8, 8, true, 3);
        for algo in Reordering::all_ten() {
            let p = algo.compute(&a, 7);
            assert_eq!(p.len(), a.nrows, "{}", algo.name());
            // Permutation::from_new_to_old already validated bijectivity;
            // additionally check symmetric application preserves nnz.
            let b = p.permute_symmetric(&a);
            assert_eq!(b.nnz(), a.nnz(), "{}", algo.name());
        }
    }

    #[test]
    fn original_is_identity() {
        let a = poisson2d(5, 5);
        assert!(Reordering::Original.compute(&a, 0).is_identity());
    }

    #[test]
    fn random_depends_on_seed_only() {
        let a = poisson2d(6, 6);
        let p1 = Reordering::Random.compute(&a, 1);
        let p2 = Reordering::Random.compute(&a, 1);
        let p3 = Reordering::Random.compute(&a, 2);
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
        assert!(!p1.is_identity());
    }

    #[test]
    fn degree_order_is_descending() {
        let a = tri_mesh(6, 6, true, 1);
        let p = degree_order(&a);
        let b = p.permute_rows(&a);
        for i in 0..b.nrows - 1 {
            assert!(b.row_nnz(i) >= b.row_nnz(i + 1));
        }
    }

    #[test]
    fn gp_reduces_scrambled_mesh_bandwidth_vs_random() {
        let a = tri_mesh(12, 12, true, 5);
        let gp = Reordering::Gp(8).compute(&a, 1);
        let reordered = gp.permute_symmetric(&a);
        // Partition grouping should bring most neighbors nearby: strictly
        // better profile than the scrambled input in aggregate.
        let before = cw_sparse::stats::profile(&a);
        let after = cw_sparse::stats::profile(&reordered);
        assert!(after < before, "profile {before} -> {after}");
    }

    #[test]
    fn effective_k_clamps() {
        assert_eq!(effective_k(16, 64), 4);
        assert_eq!(effective_k(16, 10_000), 16);
        assert_eq!(effective_k(0, 100), 1);
    }

    #[test]
    fn rcm_beats_random_on_bandwidth() {
        let a = tri_mesh(10, 10, true, 9);
        let rcm = Reordering::Rcm.compute(&a, 0);
        let rand = Reordering::Random.compute(&a, 0);
        let bw_rcm = bandwidth(&rcm.permute_symmetric(&a));
        let bw_rand = bandwidth(&rand.permute_symmetric(&a));
        assert!(bw_rcm * 2 < bw_rand, "rcm {bw_rcm} vs random {bw_rand}");
    }

    #[test]
    fn timed_reordering_reports_positive_time() {
        let a = poisson2d(10, 10);
        let t = compute_timed(Reordering::Rcm, &a, 0);
        assert!(t.seconds >= 0.0);
        assert_eq!(t.perm.len(), 100);
    }

    #[test]
    fn hierarchical_is_deterministic_and_is_cw_cores_permutation() {
        let a = cw_sparse::gen::banded::block_diagonal(96, (4, 8), 0.1, 2);
        let shuffled = random_permutation(a.nrows, 3).permute_symmetric(&a);
        let p = Reordering::Hierarchical.compute(&shuffled, 1);
        assert_eq!(p, Reordering::Hierarchical.compute(&shuffled, 2), "the seed is unused");
        assert_eq!(p, hierarchical_clustering(&shuffled, &ClusterConfig::default()).perm);
        assert!(!p.is_identity());
        // Rows of a rectangular matrix are ordered too.
        let rect = cw_sparse::gen::er::erdos_renyi_rect(50, 12, 3, 4);
        assert_eq!(Reordering::Hierarchical.compute(&rect, 0).len(), 50);
    }

    #[test]
    fn order_by_parts_groups_labels() {
        let parts = vec![2u32, 0, 1, 0, 2, 1];
        let p = order_by_parts(&parts);
        let labels: Vec<u32> = (0..6).map(|new| parts[p.old_of(new)]).collect();
        assert_eq!(labels, vec![0, 0, 1, 1, 2, 2]);
    }
}
