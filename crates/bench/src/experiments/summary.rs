//! Headline-claims check — the paper's §1 "Evaluation summary" bullets,
//! measured on this machine and judged directionally (shape, not absolute
//! numbers):
//!
//! 1. hierarchical clustering speeds up SpGEMM on a substantial fraction of
//!    inputs with geomean ≥ cheapest alternatives;
//! 2. GP/HP/RCM-family reorderings give the best row-wise geomeans but cost
//!    the most preprocessing;
//! 3. fixed/variable clustering help a meaningful minority of inputs
//!    without reordering;
//! 4. hierarchical preprocessing amortizes within ≤ 20 SpGEMMs for most of
//!    its positive cases.

use crate::experiments::fig10::amortization_runs;
use crate::experiments::sweep::{cluster_sweep, rowwise_sweep};
use crate::report::{f2, Report, Table};
use crate::runner::{ClusterScheme, RunConfig};
use crate::stats::summarize_speedups;
use cw_reorder::Reordering;

/// Runs the headline summary (uses a corpus subset by default for speed;
/// honor `cfg.subset` if set, else 40 datasets).
pub fn run(cfg: &RunConfig) -> Report {
    let mut sub_cfg = *cfg;
    if sub_cfg.subset.is_none() {
        sub_cfg.subset = Some(40);
    }
    let datasets = sub_cfg.select(cw_datasets::corpus());

    let combos = [
        (ClusterScheme::Fixed, Reordering::Original),
        (ClusterScheme::Variable, Reordering::Original),
        (ClusterScheme::Hierarchical, Reordering::Original),
    ];
    let cl = cluster_sweep(&datasets, &combos, &sub_cfg);
    let rw = rowwise_sweep(
        &datasets,
        &[Reordering::Random, Reordering::Rcm, Reordering::Gp(16), Reordering::Hp(16)],
        &sub_cfg,
    );

    let mut rep = Report::new("summary", "Headline claims (paper §1 evaluation summary), measured");
    rep.note(format!("{} datasets, scale {:?}.", datasets.len(), sub_cfg.scale));

    let mut t = Table::new(vec!["claim", "paper", "measured", "direction holds?"]);

    // Claim 1: hierarchical clustering improves a substantial fraction.
    let hier: Vec<f64> =
        cl.iter().filter(|r| r.scheme == "Hierarchical").map(|r| r.speedup).collect();
    let sh = summarize_speedups(&hier);
    t.push_row(vec![
        "hierarchical GM / Pos.%".to_string(),
        "1.39x / ~70%".to_string(),
        format!("{}x / {}%", f2(sh.gm), f2(sh.pos_pct)),
        yesno(sh.pos_pct >= 40.0),
    ]);

    // Claim 2: partitioning/RCM reorderings beat Shuffled decisively.
    let best_reorder = ["RCM", "GP", "HP"]
        .iter()
        .map(|name| {
            let v: Vec<f64> = rw.iter().filter(|r| r.algo == *name).map(|r| r.speedup).collect();
            summarize_speedups(&v).gm
        })
        .fold(0.0f64, f64::max);
    let shuffled = summarize_speedups(
        &rw.iter().filter(|r| r.algo == "Shuffled").map(|r| r.speedup).collect::<Vec<_>>(),
    );
    t.push_row(vec![
        "best of RCM/GP/HP GM vs Shuffled GM".to_string(),
        "1.77 vs 0.43".to_string(),
        format!("{} vs {}", f2(best_reorder), f2(shuffled.gm)),
        yesno(best_reorder > shuffled.gm),
    ]);

    // Claim 3: fixed/variable clustering help a meaningful minority.
    for scheme in ["Fixed-length", "Variable-length"] {
        let v: Vec<f64> = cl.iter().filter(|r| r.scheme == scheme).map(|r| r.speedup).collect();
        let s = summarize_speedups(&v);
        t.push_row(vec![
            format!("{scheme} Pos.% (no reordering)"),
            if scheme == "Fixed-length" { "~45%" } else { "~40%" }.to_string(),
            format!("{}%", f2(s.pos_pct)),
            yesno(s.pos_pct >= 20.0),
        ]);
    }

    // Claim 4: hierarchical amortization ≤ 20 runs for most positive cases.
    let runs: Vec<f64> = cl
        .iter()
        .filter(|r| r.scheme == "Hierarchical")
        .filter_map(|r| amortization_runs(r.preprocess_seconds, r.base_seconds, r.kernel_seconds))
        .collect();
    let within20 = if runs.is_empty() {
        0.0
    } else {
        100.0 * runs.iter().filter(|&&x| x <= 20.0).count() as f64 / runs.len() as f64
    };
    t.push_row(vec![
        "hierarchical amortized ≤ 20 SpGEMMs (of positive cases)".to_string(),
        "~90%".to_string(),
        format!("{}%", f2(within20)),
        yesno(within20 >= 50.0),
    ]);

    rep.add_table("headline claims", t);
    rep
}

fn yesno(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "NO".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_datasets::Scale;

    #[test]
    fn summary_renders_on_tiny_subset() {
        let cfg = RunConfig { subset: Some(3), reps: 1, scale: Scale::Small, ..Default::default() };
        let rep = run(&cfg);
        let md = rep.to_markdown();
        assert!(md.contains("headline claims"));
        assert!(md.contains("hierarchical GM"));
    }
}
