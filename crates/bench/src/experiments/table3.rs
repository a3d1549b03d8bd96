//! Table 3: row-wise SpGEMM speedup after reordering on the tall-skinny
//! (BC frontier) workload, relative to the original matrix order.
//!
//! `A` is reordered once (symmetric permutation); each frontier matrix has
//! its rows permuted to match `A`'s column space; the reported speedup is
//! the mean over the frontier iterations.

use crate::report::{f2, Report, Table};
use crate::runner::{time_rowwise, RunConfig};
use cw_datasets::frontier::bc_frontiers;
use cw_reorder::Reordering;
use cw_sparse::CsrMatrix;

/// Frontier-workload parameters (paper: first 10 forward frontiers; we use
/// 32 BFS sources so the tall-skinny B has meaningful width).
pub const SOURCES: usize = 32;
/// Number of frontier iterations evaluated.
pub const ITERS: usize = 10;

/// Mean speedup over frontiers for one (matrix, permutation) pair.
pub fn mean_frontier_speedup(
    a: &CsrMatrix,
    pa: &CsrMatrix,
    perm: &cw_sparse::Permutation,
    frontiers: &[CsrMatrix],
    reps: usize,
) -> f64 {
    let mut total = 0.0;
    for f in frontiers {
        let base = time_rowwise(a, f, reps);
        let pf = perm.permute_rows(f);
        let opt = time_rowwise(pa, &pf, reps);
        total += base / opt;
    }
    total / frontiers.len() as f64
}

/// Runs the Table 3 experiment.
pub fn run(cfg: &RunConfig) -> Report {
    let datasets = cw_datasets::tall_skinny_suite();
    let algos = Reordering::all_ten();

    let mut rep = Report::new(
        "table3",
        "Row-wise SpGEMM speedup after reordering, tall-skinny (BC frontier) workload",
    );
    rep.note(format!("{SOURCES} BFS sources, first {ITERS} forward frontiers; speedups are means over the frontier iterations."));
    rep.note("Paper shape: gains track the A² results per dataset (locality lives in A's row grouping, not in B) — meshes gain most under RCM/ND/GP/HP.");

    let mut headers = vec!["Dataset".to_string()];
    headers.extend(algos.iter().map(|a| a.name().to_string()));
    headers.push("Best Reorder".to_string());
    let mut t = Table::new(headers);

    for d in &datasets {
        let a = d.build(cfg.scale);
        let frontiers = bc_frontiers(&a, SOURCES, ITERS, cfg.seed ^ 0xF0);
        if frontiers.is_empty() {
            continue;
        }
        let mut row = vec![d.name.to_string()];
        let mut best = f64::MIN;
        for &algo in &algos {
            let perm = algo.compute(&a, cfg.seed);
            let pa = perm.permute_symmetric(&a);
            let s = mean_frontier_speedup(&a, &pa, &perm, &frontiers, cfg.reps);
            best = best.max(s);
            row.push(f2(s));
        }
        row.push(f2(best));
        t.push_row(row);
    }
    rep.add_table("mean speedup per dataset × reordering", t);
    rep
}
