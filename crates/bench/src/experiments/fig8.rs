//! Figure 8: the three cluster-wise schemes on the ten representative
//! datasets, relative to row-wise SpGEMM on the original order.

use crate::experiments::sweep::cluster_sweep;
use crate::report::{f2, Report, Table};
use crate::runner::{ClusterScheme, RunConfig};
use cw_reorder::Reordering;

/// Runs the Fig. 8 experiment.
pub fn run(cfg: &RunConfig) -> Report {
    let datasets = cw_datasets::representative();
    let combos = [
        (ClusterScheme::Fixed, Reordering::Original),
        (ClusterScheme::Variable, Reordering::Original),
        (ClusterScheme::Hierarchical, Reordering::Original),
    ];
    let records = cluster_sweep(&datasets, &combos, cfg);

    let mut rep = Report::new("fig8", "Cluster-wise SpGEMM on the representative datasets (A²)");
    rep.note("Paper shape: fixed/variable help the block/banded and mesh matrices (up to ~1.6×), hierarchical is the most consistent winner.");
    let mut t = Table::new(vec!["Dataset", "Fixed-length", "Variable-length", "Hierarchical"]);
    for d in &datasets {
        let get = |scheme: &str| -> String {
            records
                .iter()
                .find(|r| r.dataset == d.name && r.scheme == scheme)
                .map(|r| f2(r.speedup))
                .unwrap_or_else(|| "-".into())
        };
        t.push_row(vec![
            d.name.to_string(),
            get("Fixed-length"),
            get("Variable-length"),
            get("Hierarchical"),
        ]);
    }
    rep.add_table("speedup vs row-wise original", t);

    let mut pre = Table::new(vec!["Dataset", "Scheme", "preprocess_s", "kernel_s", "base_s"]);
    for r in &records {
        pre.push_row(vec![
            r.dataset.to_string(),
            r.scheme.to_string(),
            format!("{:.6}", r.preprocess_seconds),
            format!("{:.6}", r.kernel_seconds),
            format!("{:.6}", r.base_seconds),
        ]);
    }
    rep.add_table("timings", pre);
    rep
}
