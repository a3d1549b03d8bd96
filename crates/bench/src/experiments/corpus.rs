//! Corpus inventory: the 110 datasets with their structural statistics —
//! the reproduction's analogue of the paper's dataset table (§4.1).

use crate::report::{Report, Table};
use crate::runner::RunConfig;
use cw_sparse::stats::stats;

/// Builds the inventory report (builds every matrix; no kernel timing).
pub fn run(cfg: &RunConfig) -> Report {
    let datasets = cfg.select(cw_datasets::corpus());
    let mut rep = Report::new("corpus", "Dataset inventory with structural statistics");
    rep.note(format!(
        "{} synthetic datasets at scale {:?}; categories mirror the paper's SuiteSparse families.",
        datasets.len(),
        cfg.scale
    ));
    let mut t = Table::new(vec![
        "dataset",
        "category",
        "n",
        "nnz",
        "avg nnz/row",
        "max nnz/row",
        "bandwidth",
        "consecutive Jaccard",
    ]);
    for d in &datasets {
        let a = d.build(cfg.scale);
        let s = stats(&a);
        t.push_row(vec![
            d.name.to_string(),
            format!("{:?}", d.category),
            s.nrows.to_string(),
            s.nnz.to_string(),
            format!("{:.1}", s.avg_row_nnz),
            s.max_row_nnz.to_string(),
            s.bandwidth.to_string(),
            format!("{:.3}", s.avg_consecutive_jaccard),
        ]);
    }
    rep.add_table("inventory", t);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_datasets::Scale;

    #[test]
    fn corpus_report_lists_subset() {
        let cfg = RunConfig { subset: Some(5), scale: Scale::Small, ..Default::default() };
        let rep = run(&cfg);
        assert_eq!(rep.tables[0].1.rows.len(), 5);
    }
}
