//! Figure 2: speedup of row-wise SpGEMM (`A²`) after each of the 10
//! reorderings, relative to the original order, across the corpus.
//!
//! The paper renders this as box plots; we emit the box quantiles per
//! algorithm plus the raw per-(dataset, algorithm) records.

use crate::experiments::sweep::{rowwise_sweep, RowwiseRecord};
use crate::report::{f2, Report, Table};
use crate::runner::RunConfig;
use crate::stats::{quantiles, summarize_speedups, unique_stable};
use cw_reorder::Reordering;

/// Runs the Fig. 2 experiment.
pub fn run(cfg: &RunConfig) -> Report {
    let datasets = cfg.select(cw_datasets::corpus());
    let algos = Reordering::all_ten();
    let records = rowwise_sweep(&datasets, &algos, cfg);
    render(&records, datasets.len())
}

/// Renders the report from sweep records (separated for testing).
pub fn render(records: &[RowwiseRecord], ndatasets: usize) -> Report {
    let mut rep = Report::new("fig2", "Row-wise SpGEMM speedup after reordering (box plots)");
    rep.note(format!(
        "{ndatasets} datasets; speedup = t(original order) / t(reordered), A² workload."
    ));
    rep.note("Paper shape: HP/GP/RCM medians above 1; Shuffled median well below 1; wide whiskers on mesh-heavy algorithms.");

    let mut summary =
        Table::new(vec!["Algorithm", "min", "q1", "median", "q3", "max", "GM", "Pos.%"]);
    let algo_names = unique_stable(records.iter().map(|r| r.algo));
    for algo in algo_names {
        let speeds: Vec<f64> =
            records.iter().filter(|r| r.algo == algo).map(|r| r.speedup).collect();
        if speeds.is_empty() {
            continue;
        }
        let q = quantiles(&speeds).unwrap();
        let s = summarize_speedups(&speeds);
        summary.push_row(vec![
            algo.to_string(),
            f2(q.min),
            f2(q.q1),
            f2(q.median),
            f2(q.q3),
            f2(q.max),
            f2(s.gm),
            f2(s.pos_pct),
        ]);
    }
    rep.add_table("box-quantiles per algorithm", summary);

    let mut raw = Table::new(vec!["dataset", "algorithm", "speedup", "preprocess_s", "base_s"]);
    for r in records {
        raw.push_row(vec![
            r.dataset.to_string(),
            r.algo.to_string(),
            format!("{:.4}", r.speedup),
            format!("{:.6}", r.preprocess_seconds),
            format!("{:.6}", r.base_seconds),
        ]);
    }
    rep.add_table("raw records", raw);
    rep
}
