//! Lane lab: the table behind `docs/REPRODUCTION.md`. For each operand it
//! shuffles rows and columns, orders them by RCM, scans them with Alg. 2
//! (the variable-length clustering every engine preparation runs) and times
//! the two kernels the engine can run on the result, exactly as it runs
//! them — two-sided, `b` = the prepared operand, rows and labels mapped back
//! through the order:
//!
//! * row-wise Gustavson on the relabelled rows (`spgemm_labelled`), and
//! * the cluster-wise lane kernel on their clusters
//!   (`clusterwise_spgemm_labelled`).
//!
//! Its deterministic half asserts that both return `A · A` to the bit and
//! that the engine keeps the clusters exactly on the operands whose sharing
//! factor clears its threshold. Its wall-clock half prints, per operand, the
//! median of per-rep ratios lane ÷ row-wise with their interquartile range,
//! serial and on the pool; each rep times both kernels back to back, so a
//! machine that drifts between reps moves both sides.
//!
//! ```text
//! cargo run --release --example lane_lab            # small operands, 5 reps
//! cargo run --release --example lane_lab -- --full  # the six documented ones, 15 reps
//! ```

use clusterwise_spgemm::core::{clusterwise_spgemm_labelled, ClusterRows};
use clusterwise_spgemm::engine::{Plan, PreparedMatrix, MIN_SHARING_FACTOR};
use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::reorder::random_permutation;
use clusterwise_spgemm::sparse::gen::{banded, grid, kron::kron, mesh, rmat};
use clusterwise_spgemm::spgemm::accumulator::dense_fits;
use clusterwise_spgemm::spgemm::{spgemm_labelled, CsrRows};
use std::time::Instant;

/// The all-ones `k × k` block: `kron(A, J_k)` gives every row `k - 1`
/// duplicates (several unknowns per mesh node).
fn ones(k: usize) -> CsrMatrix {
    CsrMatrix::from_dense(k, k, &vec![1.0; k * k])
}

/// Quartile `q` of `v` (sorted in place).
fn quartile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[((v.len() - 1) as f64 * q).round() as usize]
}

fn main() {
    let full = std::env::args().any(|arg| arg == "--full");
    let (reps, s) = if full { (15, 1) } else { (5, 4) };
    let operands: Vec<(String, CsrMatrix)> = vec![
        (
            format!("kron(tri_mesh({0}, {0}), J3)", 100 / s),
            kron(&mesh::tri_mesh(100 / s, 100 / s, false, 1), &ones(3)),
        ),
        (
            format!("block_diagonal({}, (6, 10), 0.02)", 40_000 / s),
            banded::block_diagonal(40_000 / s, (6, 10), 0.02, 1),
        ),
        (
            format!("kron(poisson3d({0}, {0}, {0}), J3)", 30 / s),
            kron(&grid::poisson3d(30 / s, 30 / s, 30 / s), &ones(3)),
        ),
        (format!("tri_mesh({0}, {0})", 240 / s), mesh::tri_mesh(240 / s, 240 / s, false, 1)),
        (format!("poisson3d({0}, {0}, {0})", 48 / s), grid::poisson3d(48 / s, 48 / s, 48 / s)),
        (
            format!("rmat({}, 4)", 14 - s / 2),
            rmat::rmat(14 - s as u32 / 2, 4, rmat::RmatParams::default(), 1),
        ),
    ];
    println!("| operand | n | nnz | sharing | kept | acc | lane ÷ row-wise, serial (IQR) | pool of {} (IQR) |", rayon::current_num_threads());
    println!("|---|---|---|---|---|---|---|---|");
    for (name, natural) in operands {
        let a = random_permutation(natural.nrows, 7).permute_symmetric(&natural);
        let p = Reordering::Rcm.compute(&a, 7);
        let pa = p.permute_rows(&a);
        let inv = p.inverse_map();
        let ids: Vec<u32> = pa.col_idx.iter().map(|&c| inv[c as usize]).collect();
        let rows = CsrRows { ids: &ids, ..CsrRows::from(&pa) };
        let cc = CsrCluster::from_csr(&pa, &variable_clustering(&pa, &ClusterConfig::default()));
        let union: Vec<u32> = cc.col_ids.iter().map(|&c| inv[c as usize]).collect();
        let clusters = ClusterRows { ids: &union, ..ClusterRows::from(&cc) };
        let sharing = pa.nnz() as f64 / cc.col_ids.len() as f64;

        // The engine's own decision on the same operand and order.
        let plan = Plan { reorder: Reordering::Rcm, ..Plan::baseline() };
        let prepared = PreparedMatrix::prepare(&a, plan, 7, &ClusterConfig::default());
        let kept = prepared.sharing_factor();
        assert_eq!(kept.is_some(), sharing >= MIN_SHARING_FACTOR, "{name}: {sharing:.2}");

        let oracle = spgemm_serial(&a, &a);
        let mut cells = Vec::new();
        for parallel in [false, true] {
            let opts = SpGemmOptions { acc: AccumulatorKind::Dense, parallel };
            let mut ratios = Vec::with_capacity(reps);
            for _ in 0..reps {
                let t = Instant::now();
                let rowwise = spgemm_labelled(rows, rows, &opts, Some(&p), &p);
                let t_row = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let lanes = clusterwise_spgemm_labelled(clusters, rows, &opts, Some(&p), &p);
                let t_lane = t.elapsed().as_secs_f64();
                assert!(rowwise.bits_eq(&oracle) && lanes.bits_eq(&oracle), "{name}: bits");
                ratios.push(t_lane / t_row);
            }
            let (lo, mid, hi) = (
                quartile(&mut ratios, 0.25),
                quartile(&mut ratios, 0.5),
                quartile(&mut ratios, 0.75),
            );
            cells.push(format!("×{mid:.2} ({:.2})", hi - lo));
        }
        let acc = if dense_fits(a.ncols) { "Dense" } else { "Hash" };
        println!(
            "| {name} | {} | {} | {sharing:.2} | {} | {acc} | {} | {} |",
            a.nrows,
            a.nnz(),
            if kept.is_some() { "yes" } else { "no" },
            cells[0],
            cells[1]
        );
    }
    println!(
        "\n✓ every product bit-identical to spgemm_serial; the engine kept clusters exactly \
         where sharing ≥ {MIN_SHARING_FACTOR}"
    );
}
