//! Locality lab: make the paper's cache argument *visible* without a
//! hardware counter in sight. Exports the B-row access traces of row-wise
//! and cluster-wise SpGEMM, replays them through a simulated cache, and
//! prints reuse-distance profiles.
//!
//! ```text
//! cargo run --release --example locality_lab
//! ```

use clusterwise_spgemm::core::trace::{accesses_saved, clusterwise_b_access_trace};
use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::sparse::gen::banded::block_diagonal;
use clusterwise_spgemm::spgemm::trace::rowwise_b_access_trace;
use cw_cachesim::{replay_b_row_trace, reuse_distance_histogram, CacheConfig};

fn main() {
    // A block matrix whose similar rows have been scattered: the worst case
    // for row-wise locality, the best case for hierarchical clustering.
    let a = block_diagonal(4096, (4, 8), 0.02, 3);
    let shuffle = clusterwise_spgemm::reorder::random_permutation(a.nrows, 99);
    let scrambled = shuffle.permute_symmetric(&a);
    println!(
        "matrix: {} rows, {} nnz (block-diagonal, rows scattered)\n",
        scrambled.nrows,
        scrambled.nnz()
    );

    // --- traces ------------------------------------------------------------
    let row_trace = rowwise_b_access_trace(&scrambled);
    let h = hierarchical_clustering(&scrambled, &ClusterConfig::default());
    let (cc, pa) = h.build_symmetric(&scrambled);
    let cluster_trace = clusterwise_b_access_trace(&cc);
    println!("row-wise B-row accesses:     {}", row_trace.len());
    println!(
        "cluster-wise B-row accesses: {}  ({} accesses eliminated by the format)",
        cluster_trace.len(),
        accesses_saved(&cc)
    );

    // --- cache replay --------------------------------------------------------
    println!("\ncache replay (B laid out as CSR, cold start):");
    println!("{:<28} {:>12} {:>12} {:>10}", "config", "row-wise", "cluster-wise", "reduction");
    for (name, cfg) in [
        ("32 KiB L1 (8-way)", CacheConfig { size_bytes: 32 * 1024, line_bytes: 64, ways: 8 }),
        ("512 KiB L2 (8-way)", CacheConfig::default()),
    ] {
        let r1 = replay_b_row_trace(&scrambled, &row_trace, cfg);
        let r2 = replay_b_row_trace(&pa, &cluster_trace, cfg);
        println!(
            "{:<28} {:>9} miss {:>9} miss {:>9.2}x",
            name,
            r1.cache.misses,
            r2.cache.misses,
            r1.cache.misses as f64 / r2.cache.misses.max(1) as f64
        );
    }

    // --- reuse distances -----------------------------------------------------
    let cap = 512;
    let h_row = reuse_distance_histogram(&row_trace, scrambled.ncols, cap);
    let h_cluster = reuse_distance_histogram(&cluster_trace, pa.ncols, cap);
    println!("\nreuse-distance profile (B-row granularity):");
    println!("{:<26} {:>14} {:>14}", "would-hit at capacity", "row-wise", "cluster-wise");
    for c in [8usize, 32, 128, 512] {
        println!(
            "{:<26} {:>13.1}% {:>13.1}%",
            format!("{c} rows"),
            100.0 * h_row.hits_at_capacity(c) as f64 / row_trace.len() as f64,
            100.0 * h_cluster.hits_at_capacity(c) as f64 / cluster_trace.len() as f64,
        );
    }
    println!(
        "\nmean finite reuse distance: row-wise {:.1}, cluster-wise {:.1}",
        h_row.mean_distance().unwrap_or(f64::NAN),
        h_cluster.mean_distance().unwrap_or(f64::NAN)
    );
    println!("(smaller = better temporal locality — the mechanism behind Fig. 3)");
}
