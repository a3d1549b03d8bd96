//! Locality integration tests: the cache simulator, reuse-distance
//! analysis, and access traces must all tell the same story the paper
//! tells with hardware measurements.

use clusterwise_spgemm::core::trace::{accesses_saved, clusterwise_b_access_trace};
use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::spgemm::trace::rowwise_b_access_trace;
use cw_cachesim::{replay_b_row_trace, reuse_distance_histogram, Cache, CacheConfig};

#[test]
fn reuse_histogram_matches_fully_associative_cache() {
    // Cross-validation: hits_at_capacity(C) from the reuse histogram must
    // equal the hits of a fully-associative LRU cache with C one-item lines.
    let trace: Vec<u32> = (0..600u32).map(|i| (i.wrapping_mul(2654435761)) % 50).collect();
    let hist = reuse_distance_histogram(&trace, 50, 64);
    for capacity in [4usize, 8, 16, 32] {
        let mut cache = Cache::new(CacheConfig {
            size_bytes: capacity * 64,
            line_bytes: 64,
            ways: capacity, // one set, `capacity` ways = fully associative
        });
        let mut hits = 0u64;
        for &item in &trace {
            if cache.access(item as u64 * 64) {
                hits += 1;
            }
        }
        assert_eq!(hits, hist.hits_at_capacity(capacity), "capacity {capacity}");
    }
}

#[test]
fn clustering_reduces_b_row_accesses_when_rows_overlap() {
    let a = clusterwise_spgemm::sparse::gen::banded::block_diagonal(256, (4, 8), 0.0, 3);
    let cc = CsrCluster::from_csr(&a, &variable_clustering(&a, &ClusterConfig::default()));
    let saved = accesses_saved(&cc);
    assert!(saved > a.nnz() / 2, "only {saved} of {} accesses saved", a.nnz());
    // The union trace is never longer than the row-wise trace.
    assert!(clusterwise_b_access_trace(&cc).len() <= rowwise_b_access_trace(&a).len());
}

#[test]
fn hierarchical_clustering_reduces_cache_misses_on_scattered_blocks() {
    // The quantitative version of the paper's Fig. 3 argument.
    let blocks = clusterwise_spgemm::sparse::gen::banded::block_diagonal(2048, (4, 8), 0.02, 5);
    let shuffle = clusterwise_spgemm::reorder::random_permutation(blocks.nrows, 7);
    let a = shuffle.permute_symmetric(&blocks);

    let cfg = CacheConfig { size_bytes: 16 * 1024, line_bytes: 64, ways: 8 };
    let base = replay_b_row_trace(&a, &rowwise_b_access_trace(&a), cfg);

    let h = hierarchical_clustering(&a, &ClusterConfig::default());
    let (cc, pa) = h.build_symmetric(&a);
    let clustered = replay_b_row_trace(&pa, &clusterwise_b_access_trace(&cc), cfg);

    assert!(
        clustered.cache.misses * 2 < base.cache.misses,
        "expected >2x miss reduction: {} vs {}",
        clustered.cache.misses,
        base.cache.misses
    );
}

#[test]
fn rcm_reduces_misses_on_scrambled_mesh() {
    // Reordering alone (paper Fig. 2 mechanism): RCM turns scattered mesh
    // accesses into banded ones.
    let a = clusterwise_spgemm::sparse::gen::mesh::tri_mesh(40, 40, true, 9);
    let cfg = CacheConfig { size_bytes: 8 * 1024, line_bytes: 64, ways: 8 };
    let base = replay_b_row_trace(&a, &rowwise_b_access_trace(&a), cfg);

    let p = Reordering::Rcm.compute(&a, 0);
    let pa = p.permute_symmetric(&a);
    let reordered = replay_b_row_trace(&pa, &rowwise_b_access_trace(&pa), cfg);

    assert!(
        reordered.cache.misses < base.cache.misses,
        "RCM should reduce misses: {} vs {}",
        reordered.cache.misses,
        base.cache.misses
    );
}

#[test]
fn shuffling_increases_misses_on_natural_mesh() {
    // The inverse experiment: destroying a good order hurts (paper's
    // Shuffled row, GM < 1).
    let a = clusterwise_spgemm::sparse::gen::grid::poisson2d(48, 48);
    let cfg = CacheConfig { size_bytes: 8 * 1024, line_bytes: 64, ways: 8 };
    let base = replay_b_row_trace(&a, &rowwise_b_access_trace(&a), cfg);

    let p = clusterwise_spgemm::reorder::random_permutation(a.nrows, 3);
    let pa = p.permute_symmetric(&a);
    let shuffled = replay_b_row_trace(&pa, &rowwise_b_access_trace(&pa), cfg);

    assert!(
        shuffled.cache.misses > base.cache.misses,
        "shuffle should increase misses: {} vs {}",
        shuffled.cache.misses,
        base.cache.misses
    );
}

#[test]
fn fixed_clustering_on_wide_groups_beats_rowwise_misses() {
    // The paper's §3 motivation, made extreme: groups of 8 rows share a
    // wide column set whose B footprint exceeds the cache. Row-wise evicts
    // every B row before the next member row re-requests it; cluster-wise
    // streams each B row once per cluster.
    let a = clusterwise_spgemm::sparse::gen::banded::grouped_rows(1024, 8, 64, 11);
    let cfg = CacheConfig { size_bytes: 4 * 1024, line_bytes: 64, ways: 4 };
    let base = replay_b_row_trace(&a, &rowwise_b_access_trace(&a), cfg);
    let cc = CsrCluster::from_csr(&a, &fixed_clustering(&a, 8));
    let clustered = replay_b_row_trace(&a, &clusterwise_b_access_trace(&cc), cfg);
    assert!(
        clustered.cache.misses * 4 < base.cache.misses,
        "expected >4x miss reduction: {} vs {}",
        clustered.cache.misses,
        base.cache.misses
    );
    // Identical column sets inside each group: the format eliminates
    // (group - 1) of every `group` accesses.
    assert_eq!(clusterwise_b_access_trace(&cc).len() * 8, rowwise_b_access_trace(&a).len());
}

#[test]
fn hierarchical_order_is_local_even_when_nothing_merges() {
    // A shuffled mesh without a diagonal: adjacent rows share 2 of 10
    // columns, under `jacc_th`, so hierarchical clustering merges (almost)
    // nothing and the only thing it can contribute is its row order. Rows
    // only are moved — B stays as it arrived, which is all an engine plan
    // can do against a `B` that is not the prepared operand (the next test
    // is the case where it is) — and the row-wise B-row access stream is
    // replayed through an L1-sized cache.
    let natural = clusterwise_spgemm::sparse::gen::mesh::tri_mesh(120, 120, false, 1);
    let a = clusterwise_spgemm::reorder::random_permutation(natural.nrows, 5)
        .permute_symmetric(&natural);
    let cfg = CacheConfig { size_bytes: 32 * 1024, line_bytes: 64, ways: 8 };
    let misses = |order: &Permutation| {
        let trace = rowwise_b_access_trace(&order.permute_rows(&a));
        replay_b_row_trace(&a, &trace, cfg).cache.misses
    };

    let shuffled = misses(&Permutation::identity(a.nrows));
    let rcm = misses(&Reordering::Rcm.compute(&a, 0));
    let h = hierarchical_clustering(&a, &ClusterConfig::default());
    assert!(h.clustering.sizes.len() * 10 > a.nrows * 9, "the mesh is not supposed to cluster");
    let hierarchical = misses(&h.perm);

    assert!(
        hierarchical * 2 <= shuffled,
        "hierarchical order should halve the misses of the order it was given: \
         {hierarchical} vs {shuffled}"
    );
    assert!(
        hierarchical * 10 <= rcm * 11,
        "hierarchical order should be within 1.1x of RCM's misses: {hierarchical} vs {rcm}"
    );
}

#[test]
fn two_sided_execution_streams_b_rows_at_the_compulsory_floor() {
    // The mesh of the test above under the same hierarchical order, which
    // moved `A`'s rows and — one-sided — nothing else: consecutive rows read
    // the same few `B` rows, but those sit wherever the shuffle left them.
    // Two-sided, `B` is `P·A·Pᵀ`: its rows are laid out in the order `A`
    // reads them, and the stream is `P·A`'s ids relabelled in place (the
    // caller's within-row order, which is what the engine's kernel walks).
    // Through an L1-sized cache that is within 5 % of touching every line of
    // `B` exactly once.
    let natural = clusterwise_spgemm::sparse::gen::mesh::tri_mesh(120, 120, false, 1);
    let a = clusterwise_spgemm::reorder::random_permutation(natural.nrows, 5)
        .permute_symmetric(&natural);
    let h = hierarchical_clustering(&a, &ClusterConfig::default());
    let pa = h.perm.permute_rows(&a);
    let l1 = CacheConfig { size_bytes: 32 * 1024, line_bytes: 64, ways: 8 };
    let rows_only = replay_b_row_trace(&a, &rowwise_b_access_trace(&pa), l1).cache.misses;

    let inv = h.perm.inverse_map();
    let relabelled: Vec<u32> = pa.col_idx.iter().map(|&c| inv[c as usize]).collect();
    let b = h.perm.permute_symmetric(&a);
    let two_sided = replay_b_row_trace(&b, &relabelled, l1).cache.misses;
    // A cache that holds all of `B` misses once per distinct line.
    let holds_b = CacheConfig { size_bytes: 64 << 20, line_bytes: 64, ways: 16 };
    let floor = replay_b_row_trace(&b, &relabelled, holds_b).cache.misses;

    assert!(
        two_sided * 2 <= rows_only,
        "two-sided should halve the one-sided misses: {two_sided} vs {rows_only}"
    );
    assert!(
        two_sided * 100 <= floor * 105,
        "two-sided should sit on the compulsory floor: {two_sided} vs {floor}"
    );
}
