//! Figure 9: row-wise SpGEMM speedup of AMD / RCM / GP / HP on the ten
//! representative datasets.

use crate::experiments::sweep::rowwise_sweep;
use crate::report::{f2, Report, Table};
use crate::runner::RunConfig;
use cw_reorder::Reordering;

/// Runs the Fig. 9 experiment.
pub fn run(cfg: &RunConfig) -> Report {
    let datasets = cw_datasets::representative();
    let algos = [Reordering::Amd, Reordering::Rcm, Reordering::Gp(16), Reordering::Hp(16)];
    let records = rowwise_sweep(&datasets, &algos, cfg);

    let mut rep = Report::new(
        "fig9",
        "Row-wise SpGEMM speedup of AMD/RCM/GP/HP on the representative datasets",
    );
    rep.note("Paper shape: limited effect on the first six (already-ordered or unstructured) datasets; large wins (up to ~11×) on the scrambled meshes AS365/huget/M6/NLR from RCM/GP/HP.");
    let mut t = Table::new(vec!["Dataset", "AMD", "RCM", "GP", "HP"]);
    for d in &datasets {
        let get = |algo: &str| -> String {
            records
                .iter()
                .find(|r| r.dataset == d.name && r.algo == algo)
                .map(|r| f2(r.speedup))
                .unwrap_or_else(|| "-".into())
        };
        t.push_row(vec![d.name.to_string(), get("AMD"), get("RCM"), get("GP"), get("HP")]);
    }
    rep.add_table("speedup vs original order", t);
    rep
}
