//! Figure 3: cluster-wise SpGEMM (fixed-length and variable-length, with
//! and without upstream reordering, plus hierarchical) relative to row-wise
//! SpGEMM on the original order.

use crate::experiments::sweep::{cluster_sweep, ClusterRecord};
use crate::report::{f2, Report, Table};
use crate::runner::{ClusterScheme, RunConfig};
use crate::stats::{quantiles, summarize_speedups, unique_stable};
use cw_reorder::Reordering;

/// The (scheme, reordering) grid of Fig. 3: fixed and variable under
/// Original + the ten reorderings, and hierarchical standalone.
pub fn combos() -> Vec<(ClusterScheme, Reordering)> {
    let mut v = Vec::new();
    for scheme in [ClusterScheme::Fixed, ClusterScheme::Variable] {
        v.push((scheme, Reordering::Original));
        for algo in Reordering::all_ten() {
            v.push((scheme, algo));
        }
    }
    v.push((ClusterScheme::Hierarchical, Reordering::Original));
    v
}

/// Runs the Fig. 3 experiment.
pub fn run(cfg: &RunConfig) -> Report {
    let datasets = cfg.select(cw_datasets::corpus());
    let records = cluster_sweep(&datasets, &combos(), cfg);
    render(&records, datasets.len())
}

/// Renders the report from sweep records.
pub fn render(records: &[ClusterRecord], ndatasets: usize) -> Report {
    let mut rep = Report::new(
        "fig3",
        "Cluster-wise SpGEMM with reordering, relative to row-wise on original order",
    );
    rep.note(format!(
        "{ndatasets} datasets; every box = one (scheme, upstream reordering) pair; hierarchical reorders internally."
    ));
    rep.note("Paper shape: Hierarchical geomean ≈ 1.4 and the best Original-order box; HP/GP/RCM lift fixed/variable above 1; Shuffled sinks them.");

    let mut summary =
        Table::new(vec!["Scheme", "Reordering", "min", "q1", "median", "q3", "max", "GM", "Pos.%"]);
    let keys = unique_stable(records.iter().map(|r| (r.scheme, r.reorder)));
    for (scheme, reorder) in keys {
        let speeds: Vec<f64> = records
            .iter()
            .filter(|r| r.scheme == scheme && r.reorder == reorder)
            .map(|r| r.speedup)
            .collect();
        if speeds.is_empty() {
            continue;
        }
        let q = quantiles(&speeds).unwrap();
        let s = summarize_speedups(&speeds);
        summary.push_row(vec![
            scheme.to_string(),
            reorder.to_string(),
            f2(q.min),
            f2(q.q1),
            f2(q.median),
            f2(q.q3),
            f2(q.max),
            f2(s.gm),
            f2(s.pos_pct),
        ]);
    }
    rep.add_table("box-quantiles per (scheme, reordering)", summary);

    let mut raw =
        Table::new(vec!["dataset", "scheme", "reordering", "speedup", "preprocess_s", "base_s"]);
    for r in records {
        raw.push_row(vec![
            r.dataset.to_string(),
            r.scheme.to_string(),
            r.reorder.to_string(),
            format!("{:.4}", r.speedup),
            format!("{:.6}", r.preprocess_seconds),
            format!("{:.6}", r.base_seconds),
        ]);
    }
    rep.add_table("raw records", raw);
    rep
}
