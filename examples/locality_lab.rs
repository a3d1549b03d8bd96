//! Locality lab: make the paper's cache argument *visible* without a
//! hardware counter in sight. Exports the B-row access traces of row-wise
//! and cluster-wise SpGEMM, replays them through a simulated cache, and
//! prints reuse-distance profiles. A second part sizes what a reordering
//! buys move by move — `A`'s rows, the inner dimension, `C`'s column labels —
//! in simulated misses (deterministic) and in wall clock (printed, not
//! asserted): the decomposition behind the engine's two-sided plans.
//!
//! ```text
//! cargo run --release --example locality_lab
//! ```

use clusterwise_spgemm::core::trace::{accesses_saved, clusterwise_b_access_trace};
use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::reorder::random_permutation;
use clusterwise_spgemm::sparse::gen::banded::block_diagonal;
use clusterwise_spgemm::sparse::gen::mesh::tri_mesh;
use clusterwise_spgemm::spgemm::trace::rowwise_b_access_trace;
use clusterwise_spgemm::spgemm::{spgemm_labelled, spgemm_mapped, CsrRows, SameLabels};
use cw_cachesim::{replay_b_row_trace, reuse_distance_histogram, Cache, CacheConfig};
use std::time::Instant;

fn main() {
    // A block matrix whose similar rows have been scattered: the worst case
    // for row-wise locality, the best case for hierarchical clustering.
    let a = block_diagonal(4096, (4, 8), 0.02, 3);
    let shuffle = random_permutation(a.nrows, 99);
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

    // --- the three moves of a reordering ------------------------------------
    // The operands of the `cluster-mesh` and `wire-large` benchmark workloads,
    // each under the order its served plan computes.
    let mesh = random_permutation(240 * 240, 1).permute_symmetric(&tri_mesh(240, 240, false, 1));
    let sweep = hierarchical_clustering(&mesh, &ClusterConfig::default()).perm;
    three_moves("shuffled tri_mesh(240,240), hierarchical sweep order", &mesh, &sweep);
    let blocks = block_diagonal(40_000, (6, 10), 0.02, 1);
    let blocks = random_permutation(blocks.nrows, 1).permute_symmetric(&blocks);
    let rcm = Reordering::Rcm.compute(&blocks, 0);
    three_moves("shuffled block_diagonal(40000,(6,10),0.02), RCM", &blocks, &rcm);
}

/// Splits what the order `p` buys `a · a` into its three moves: (a) `A`'s
/// rows, which is all a plan can do against an arbitrary `B`; (b) the inner
/// dimension — `B`'s rows laid out in the same order; (c) `C`'s column
/// labels, i.e. the accumulator's keys. (a) + (b) + (c) is `P·A·Pᵀ`, what the
/// engine runs when `B` is the prepared operand.
fn three_moves(name: &str, a: &CsrMatrix, p: &Permutation) {
    println!("\n=== {name}: {} rows, {} nnz ===", a.nrows, a.nnz());
    let pa = p.permute_rows(a);
    let inv = p.inverse_map();
    // `P·A`'s ids in the permuted label space, left in the caller's order
    // inside each row: with `pa`'s other arrays, both two-sided operands.
    let relabelled: Vec<u32> = pa.col_idx.iter().map(|&c| inv[c as usize]).collect();
    let rows = CsrRows { ids: &relabelled, ..CsrRows::from(&pa) };
    let sym = p.permute_symmetric(a);

    // Simulated misses, cold start. Moves (a) and (b) decide the B-row
    // stream; (c) only changes which accumulator slot each multiply-add hits.
    let l2 = CacheConfig { size_bytes: 2 << 20, line_bytes: 64, ways: 16 };
    let holds_b = CacheConfig { size_bytes: 256 << 20, line_bytes: 64, ways: 16 };
    let b_rows = |b: &CsrMatrix, trace: &[u32], cfg| replay_b_row_trace(b, trace, cfg).cache.misses;
    println!("simulated misses (B rows: 2 MiB / 16-way; accumulator slots: 32 KiB / 8-way)");
    println!("{:<44} {:>10} {:>12}", "", "B rows", "accumulator");
    for (moves, b_misses, acc_misses) in [
        (
            "as it arrived",
            b_rows(a, &a.col_idx, l2),
            accumulator_misses(&a.col_idx, &a.row_ptr, &a.col_idx),
        ),
        (
            "(a) A's rows",
            b_rows(a, &pa.col_idx, l2),
            accumulator_misses(&pa.col_idx, &a.row_ptr, &a.col_idx),
        ),
        (
            "(a) + (b) the inner dimension",
            b_rows(&sym, &relabelled, l2),
            accumulator_misses(&relabelled, &pa.row_ptr, &pa.col_idx),
        ),
        (
            "(a) + (b) + (c) C's column labels",
            b_rows(&sym, &relabelled, l2),
            accumulator_misses(&relabelled, &pa.row_ptr, &relabelled),
        ),
    ] {
        println!("{moves:<44} {b_misses:>10} {acc_misses:>12}");
    }
    println!(
        "{:<44} {:>10}",
        "every line of B once (the floor)",
        b_rows(&sym, &relabelled, holds_b)
    );

    // Wall clock: printed, never asserted. Only the first two rows compute
    // `a · a` as the caller wrote it; the other two say what mapping labels
    // and rows back, and keeping the caller's within-row order, cost.
    let oracle = spgemm_serial(a, a);
    type Product<'f> = &'f dyn Fn(&SpGemmOptions) -> CsrMatrix;
    let products: [(&str, Product, bool); 4] = [
        ("rows only: P·A · A (one-sided)", &|o| spgemm_mapped(&pa, a, o, Some(p)), true),
        (
            "two-sided, handed back in the caller's",
            &|o| spgemm_labelled(rows, rows, o, Some(p), p),
            true,
        ),
        (
            "  ... labels and rows not mapped back",
            &|o| spgemm_labelled(rows, rows, o, None, &SameLabels),
            false,
        ),
        ("symmetric ceiling: P·A·Pᵀ, sorted rows", &|o| spgemm_with(&sym, &sym, o), false),
    ];
    println!("wall clock, hash accumulator, median of 9 (ms)");
    println!("{:<44} {:>10} {:>12}", "", "serial", "parallel");
    for (label, run, exact) in products {
        let ms = [false, true].map(|parallel| {
            let opts = SpGemmOptions { parallel, ..SpGemmOptions::default() };
            assert!(!exact || run(&opts).bits_eq(&oracle), "{label}: not the serial product");
            let mut samples: Vec<f64> = (0..9)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(run(&opts));
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            samples.sort_by(f64::total_cmp);
            samples[samples.len() / 2]
        });
        println!("{label:<44} {:>10.1} {:>12.1}", ms[0], ms[1]);
    }
    println!("✓ one-sided and two-sided are bit-identical to spgemm_serial(a, a)");
}

/// Misses of a dense accumulator's value slots over one row-wise product:
/// `a_ids` names the `B` rows in the order they are streamed, and
/// `(b_ptr, b_ids)` holds the keys those rows add to.
fn accumulator_misses(a_ids: &[u32], b_ptr: &[usize], b_ids: &[u32]) -> u64 {
    let mut slots = Cache::new(CacheConfig { size_bytes: 32 << 10, line_bytes: 64, ways: 8 });
    for &k in a_ids {
        for &j in &b_ids[b_ptr[k as usize]..b_ptr[k as usize + 1]] {
            slots.access(j as u64 * 8);
        }
    }
    slots.stats().misses
}
