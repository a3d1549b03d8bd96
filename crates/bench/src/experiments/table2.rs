//! Table 2: GM / Pos.% / +GM of every reordering across the three SpGEMM
//! variants (row-wise, fixed-length cluster, variable-length cluster),
//! plus the "Best Reord." oracle row.

use crate::experiments::sweep::{cluster_sweep, rowwise_sweep, ClusterRecord, RowwiseRecord};
use crate::report::{f2, Report, Table};
use crate::runner::{ClusterScheme, RunConfig};
use crate::stats::{summarize_speedups, unique_stable};
use cw_reorder::Reordering;
use std::collections::HashMap;

/// Per-(variant, algorithm) speedup populations collected for the table.
pub struct Table2Data {
    /// Row-wise sweep records.
    pub rowwise: Vec<RowwiseRecord>,
    /// Fixed/variable cluster sweep records (reordering upstream).
    pub cluster: Vec<ClusterRecord>,
}

/// Collects the measurements.
pub fn collect(cfg: &RunConfig) -> Table2Data {
    let datasets = cfg.select(cw_datasets::corpus());
    let algos = Reordering::all_ten();
    let rowwise = rowwise_sweep(&datasets, &algos, cfg);
    let mut combos = Vec::new();
    for scheme in [ClusterScheme::Fixed, ClusterScheme::Variable] {
        for &algo in &algos {
            combos.push((scheme, algo));
        }
    }
    let cluster = cluster_sweep(&datasets, &combos, cfg);
    Table2Data { rowwise, cluster }
}

/// Renders Table 2 from collected data.
pub fn render(data: &Table2Data) -> Report {
    let mut rep =
        Report::new("table2", "Reordering speedups across SpGEMM variants (GM / Pos.% / +GM)");
    rep.note("Speedups relative to the same variant on the ORIGINAL matrix order (row-wise baseline for all columns, matching the paper).");
    rep.note("Paper shape: HP/GP/RCM lead every variant; Shuffled ≈ 0.4 GM; 'Best Reord.' GM ≈ 2-3 with ≥90% positive.");

    let mut t = Table::new(vec![
        "Algorithm",
        "Row GM",
        "Row Pos.%",
        "Row +GM",
        "Fixed GM",
        "Fixed Pos.%",
        "Fixed +GM",
        "Var GM",
        "Var Pos.%",
        "Var +GM",
    ]);

    let algo_order: Vec<&str> = unique_stable(data.rowwise.iter().map(|r| r.algo));

    // Speedup maps keyed by (dataset, algo).
    let row_map: HashMap<(&str, &str), f64> =
        data.rowwise.iter().map(|r| ((r.dataset, r.algo), r.speedup)).collect();
    let fix_map: HashMap<(&str, &str), f64> = data
        .cluster
        .iter()
        .filter(|r| r.scheme == "Fixed-length")
        .map(|r| ((r.dataset, r.reorder), r.speedup))
        .collect();
    let var_map: HashMap<(&str, &str), f64> = data
        .cluster
        .iter()
        .filter(|r| r.scheme == "Variable-length")
        .map(|r| ((r.dataset, r.reorder), r.speedup))
        .collect();

    let summarize = |map: &HashMap<(&str, &str), f64>, algo: &str| -> (String, String, String) {
        let vals: Vec<f64> = map.iter().filter(|((_, a), _)| *a == algo).map(|(_, &s)| s).collect();
        let s = summarize_speedups(&vals);
        (f2(s.gm), f2(s.pos_pct), f2(s.pos_gm))
    };

    for algo in &algo_order {
        let (rg, rp, rpg) = summarize(&row_map, algo);
        let (fg, fp, fpg) = summarize(&fix_map, algo);
        let (vg, vp, vpg) = summarize(&var_map, algo);
        t.push_row(vec![algo.to_string(), rg, rp, rpg, fg, fp, fpg, vg, vp, vpg]);
    }

    // "Best Reord." row: per dataset, the max speedup over all algorithms.
    let best_of = |map: &HashMap<(&str, &str), f64>| -> Vec<f64> {
        let mut per_ds: HashMap<&str, f64> = HashMap::new();
        for ((ds, _), &s) in map {
            let e = per_ds.entry(ds).or_insert(f64::MIN);
            if s > *e {
                *e = s;
            }
        }
        per_ds.into_values().collect()
    };
    let rb = summarize_speedups(&best_of(&row_map));
    let fb = summarize_speedups(&best_of(&fix_map));
    let vb = summarize_speedups(&best_of(&var_map));
    t.push_row(vec![
        "Best Reord.".to_string(),
        f2(rb.gm),
        f2(rb.pos_pct),
        f2(rb.pos_gm),
        f2(fb.gm),
        f2(fb.pos_pct),
        f2(fb.pos_gm),
        f2(vb.gm),
        f2(vb.pos_pct),
        f2(vb.pos_gm),
    ]);

    rep.add_table("summary", t);
    rep
}

/// Runs the Table 2 experiment end to end.
pub fn run(cfg: &RunConfig) -> Report {
    render(&collect(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_datasets::Scale;

    #[test]
    fn table2_renders_on_tiny_subset() {
        let cfg = RunConfig { subset: Some(2), reps: 1, scale: Scale::Small, ..Default::default() };
        let rep = run(&cfg);
        let md = rep.to_markdown();
        assert!(md.contains("Best Reord."));
        assert!(md.contains("Shuffled"));
        assert!(md.contains("HP"));
    }
}
