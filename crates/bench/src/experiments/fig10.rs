//! Figure 10: performance profile of reordering overhead — for each point
//! `(x, y)`, the reordering cost is amortized after `x` SpGEMM iterations
//! for a fraction `y` of the input problems (positive cases only).
//!
//! Matching the paper, HP is excluded (its overhead dwarfs the x-range) and
//! Hierarchical is included (its preprocessing is the clustering itself).

use crate::experiments::sweep::{cluster_sweep, rowwise_sweep};
use crate::report::{Report, Table};
use crate::runner::{ClusterScheme, RunConfig};
use crate::stats::{performance_profile, unique_stable};
use cw_reorder::Reordering;

/// Amortization iterations: preprocessing seconds divided by per-run
/// savings. Only meaningful for speedups > 1.
pub fn amortization_runs(preprocess: f64, base: f64, optimized: f64) -> Option<f64> {
    let saving = base - optimized;
    if saving <= 0.0 {
        return None;
    }
    Some(preprocess / saving)
}

/// Runs the Fig. 10 experiment.
pub fn run(cfg: &RunConfig) -> Report {
    let datasets = cfg.select(cw_datasets::corpus());
    // Row-wise reorderings, minus HP (as the paper does).
    let algos: Vec<Reordering> =
        Reordering::all_ten().into_iter().filter(|a| !matches!(a, Reordering::Hp(_))).collect();
    let rw = rowwise_sweep(&datasets, &algos, cfg);
    let hier =
        cluster_sweep(&datasets, &[(ClusterScheme::Hierarchical, Reordering::Original)], cfg);

    let thresholds: Vec<f64> = (0..=20).map(|x| x as f64).collect();
    let mut rep = Report::new("fig10", "Performance profile of reordering/clustering overhead");
    rep.note("For each point (x, y): preprocessing is amortized within x SpGEMM runs on fraction y of the problems that improved.");
    rep.note("Paper shape: cheap orderings (Shuffled/Degree/Rabbit) amortize within ~5 runs; RCM/GP need many more; Hierarchical amortizes ≤20 runs on ~90% of its positive cases.");

    let mut t = Table::new(vec!["Algorithm", "positive cases"]);
    for &x in &thresholds {
        t.headers.push(format!("x={x:.0}"));
    }
    // Re-create the table with full headers (Table requires fixed arity).
    let mut t = Table::new(t.headers.clone());

    let algo_names = unique_stable(rw.iter().map(|r| r.algo));
    for algo in algo_names {
        let runs: Vec<f64> = rw
            .iter()
            .filter(|r| r.algo == algo)
            .filter_map(|r| {
                amortization_runs(r.preprocess_seconds, r.base_seconds, r.kernel_seconds)
            })
            .collect();
        let prof = performance_profile(&runs, &thresholds);
        let mut row = vec![algo.to_string(), runs.len().to_string()];
        row.extend(prof.iter().map(|&(_, y)| format!("{y:.2}")));
        t.push_row(row);
    }
    // Hierarchical clustering's profile.
    let hruns: Vec<f64> = hier
        .iter()
        .filter_map(|r| amortization_runs(r.preprocess_seconds, r.base_seconds, r.kernel_seconds))
        .collect();
    let prof = performance_profile(&hruns, &thresholds);
    let mut row = vec!["Hierarchical".to_string(), hruns.len().to_string()];
    row.extend(prof.iter().map(|&(_, y)| format!("{y:.2}")));
    t.push_row(row);

    rep.add_table("fraction of positive problems amortized within x runs", t);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amortization_math() {
        // 10s preprocessing, saves 2s per run -> 5 runs.
        assert_eq!(amortization_runs(10.0, 5.0, 3.0), Some(5.0));
        // No saving -> None.
        assert_eq!(amortization_runs(10.0, 3.0, 3.0), None);
        assert_eq!(amortization_runs(10.0, 3.0, 4.0), None);
    }
}
