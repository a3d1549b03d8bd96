//! Table 4: hierarchical cluster-wise SpGEMM vs row-wise SpGEMM per BC
//! frontier iteration (`i1..i10`) on the tall-skinny suite.
//!
//! The matrix is hierarchically clustered **once**; the clustered operand
//! is reused across every frontier iteration — the paper's argument for
//! amortizing preprocessing over repeated multiplications.

use crate::experiments::table3::{ITERS, SOURCES};
use crate::report::{f2, Report, Table};
use crate::runner::{time_clusterwise, time_rowwise, RunConfig};
use cw_core::{hierarchical_clustering, ClusterConfig};
use cw_datasets::frontier::bc_frontiers;

/// Runs the Table 4 experiment.
pub fn run(cfg: &RunConfig) -> Report {
    let datasets = cw_datasets::tall_skinny_suite();

    let mut rep = Report::new(
        "table4",
        "Hierarchical cluster-wise vs row-wise SpGEMM per BC frontier iteration",
    );
    rep.note("One hierarchical clustering of A serves all frontier iterations.");
    rep.note("Paper shape: datasets that benefit on A² (meshes, road) also benefit here, often most in early iterations where frontiers are densest.");

    let mut headers = vec!["Dataset".to_string()];
    headers.extend((1..=ITERS).map(|i| format!("i{i}")));
    headers.push("Mean".to_string());
    let mut t = Table::new(headers);

    for d in &datasets {
        let a = d.build(cfg.scale);
        let frontiers = bc_frontiers(&a, SOURCES, ITERS, cfg.seed ^ 0xF0);
        let h = hierarchical_clustering(&a, &ClusterConfig::default());
        let (cc, _pa) = h.build_symmetric(&a);
        let mut row = vec![d.name.to_string()];
        let mut total = 0.0;
        let mut counted = 0usize;
        for i in 0..ITERS {
            if let Some(f) = frontiers.get(i) {
                let base = time_rowwise(&a, f, cfg.reps);
                let pf = h.perm.permute_rows(f);
                let opt = time_clusterwise(&cc, &pf, cfg.reps);
                let s = base / opt;
                total += s;
                counted += 1;
                row.push(f2(s));
            } else {
                row.push("-".to_string());
            }
        }
        row.push(if counted > 0 { f2(total / counted as f64) } else { "-".to_string() });
        t.push_row(row);
    }
    rep.add_table("speedup per frontier iteration", t);
    rep
}
