//! Figure 11: memory requirement of cluster-wise SpGEMM relative to the
//! row-wise (CSR) baseline — a CDF over the corpus per clustering scheme.

use crate::report::{f2, Report, Table};
use crate::runner::{build_clustered, ClusterScheme, RunConfig};
use crate::stats::{performance_profile, quantiles};
use cw_core::memory::memory_report;

/// Computes the per-dataset memory ratios for one scheme.
pub fn ratios_for_scheme(cfg: &RunConfig, scheme: ClusterScheme) -> Vec<(&'static str, f64)> {
    let datasets = cfg.select(cw_datasets::corpus());
    datasets
        .iter()
        .map(|d| {
            let a = d.build(cfg.scale);
            let (cc, _, square) = build_clustered(&a, scheme);
            // For hierarchical the baseline is the (permuted) CSR — same
            // bytes as the original, but keep the comparison honest.
            let r = memory_report(&cc, &square);
            (d.name, r.ratio)
        })
        .collect()
}

/// Runs the Fig. 11 experiment.
pub fn run(cfg: &RunConfig) -> Report {
    let mut rep =
        Report::new("fig11", "Memory of CSR_Cluster relative to CSR (CDF across the corpus)");
    rep.note("Ratio < 1 means the clustered format is smaller than CSR (shared union column ids beat padding).");
    rep.note("Paper shape: variable-length lowest overhead, fixed-length highest (padding), hierarchical in between; many cases below 1×.");

    let schemes = [ClusterScheme::Fixed, ClusterScheme::Variable, ClusterScheme::Hierarchical];
    let thresholds: Vec<f64> = [0.5, 0.75, 0.9, 1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 5.0].to_vec();

    let mut cdf_table = Table::new({
        let mut h = vec!["Scheme".to_string()];
        h.extend(thresholds.iter().map(|t| format!("≤{t}x")));
        h
    });
    let mut quant_table = Table::new(vec!["Scheme", "min", "q1", "median", "q3", "max"]);
    let mut raw = Table::new(vec!["dataset", "scheme", "ratio"]);

    for scheme in schemes {
        let ratios = ratios_for_scheme(cfg, scheme);
        let values: Vec<f64> = ratios.iter().map(|&(_, r)| r).collect();
        let prof = performance_profile(&values, &thresholds);
        let mut row = vec![scheme.name().to_string()];
        row.extend(prof.iter().map(|&(_, y)| format!("{y:.2}")));
        cdf_table.push_row(row);
        let q = quantiles(&values).unwrap();
        quant_table.push_row(vec![
            scheme.name().to_string(),
            f2(q.min),
            f2(q.q1),
            f2(q.median),
            f2(q.q3),
            f2(q.max),
        ]);
        for (name, r) in ratios {
            raw.push_row(vec![name.to_string(), scheme.name().to_string(), format!("{r:.4}")]);
        }
    }
    rep.add_table("fraction of matrices with memory ratio ≤ x", cdf_table);
    rep.add_table("ratio quantiles", quant_table);
    rep.add_table("raw ratios", raw);
    rep
}
