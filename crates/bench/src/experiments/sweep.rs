//! Shared measurement sweeps reused by several figures/tables.

use crate::runner::{
    measure_clusterwise_a2, measure_reordered_rowwise, time_rowwise_a2, ClusterScheme, RunConfig,
};
use cw_datasets::Dataset;
use cw_reorder::Reordering;

/// One row-wise measurement: `A'²` after a reordering vs `A²` original.
#[derive(Debug, Clone)]
pub struct RowwiseRecord {
    /// Dataset name.
    pub dataset: &'static str,
    /// Reordering display name.
    pub algo: &'static str,
    /// `t(original) / t(reordered)`.
    pub speedup: f64,
    /// Reordering preprocessing seconds.
    pub preprocess_seconds: f64,
    /// Original-order kernel seconds (the baseline).
    pub base_seconds: f64,
    /// Reordered kernel seconds.
    pub kernel_seconds: f64,
}

/// Runs the row-wise reordering sweep: every dataset × every algorithm.
/// The baseline (`A²` in original order) is measured once per dataset.
pub fn rowwise_sweep(
    datasets: &[Dataset],
    algos: &[Reordering],
    cfg: &RunConfig,
) -> Vec<RowwiseRecord> {
    let mut out = Vec::with_capacity(datasets.len() * algos.len());
    for d in datasets {
        let a = d.build(cfg.scale);
        let base = time_rowwise_a2(&a, cfg.reps);
        for &algo in algos {
            let (m, _) = measure_reordered_rowwise(&a, algo, cfg);
            out.push(RowwiseRecord {
                dataset: d.name,
                algo: algo.name(),
                speedup: base / m.kernel_seconds,
                preprocess_seconds: m.preprocess_seconds,
                base_seconds: base,
                kernel_seconds: m.kernel_seconds,
            });
        }
    }
    out
}

/// One cluster-wise measurement: scheme (+ optional upstream reordering)
/// vs the row-wise original baseline.
#[derive(Debug, Clone)]
pub struct ClusterRecord {
    /// Dataset name.
    pub dataset: &'static str,
    /// Clustering scheme name.
    pub scheme: &'static str,
    /// Upstream reordering name (`Original` = none).
    pub reorder: &'static str,
    /// `t(row-wise original) / t(cluster-wise)`.
    pub speedup: f64,
    /// Total preprocessing seconds (reorder + cluster build).
    pub preprocess_seconds: f64,
    /// Baseline seconds.
    pub base_seconds: f64,
    /// Cluster-wise kernel seconds.
    pub kernel_seconds: f64,
}

/// Runs the cluster-wise sweep: every dataset × scheme × upstream
/// reordering (hierarchical takes no upstream reordering — it reorders
/// itself — so pass it with [`Reordering::Original`] only).
pub fn cluster_sweep(
    datasets: &[Dataset],
    combos: &[(ClusterScheme, Reordering)],
    cfg: &RunConfig,
) -> Vec<ClusterRecord> {
    let mut out = Vec::with_capacity(datasets.len() * combos.len());
    for d in datasets {
        let a = d.build(cfg.scale);
        let base = time_rowwise_a2(&a, cfg.reps);
        for &(scheme, reorder) in combos {
            let m = measure_clusterwise_a2(&a, reorder, scheme, cfg);
            out.push(ClusterRecord {
                dataset: d.name,
                scheme: scheme.name(),
                reorder: reorder.name(),
                speedup: base / m.kernel_seconds,
                preprocess_seconds: m.preprocess_seconds,
                base_seconds: base,
                kernel_seconds: m.kernel_seconds,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_datasets::Scale;

    fn quick_cfg() -> RunConfig {
        RunConfig { reps: 1, scale: Scale::Small, ..Default::default() }
    }

    #[test]
    fn rowwise_sweep_produces_record_per_combo() {
        let ds = cw_datasets::representative()[..2].to_vec();
        let algos = [Reordering::Random, Reordering::Rcm];
        let recs = rowwise_sweep(&ds, &algos, &quick_cfg());
        assert_eq!(recs.len(), 4);
        for r in &recs {
            assert!(r.speedup > 0.0);
            assert!(r.base_seconds > 0.0);
        }
    }

    #[test]
    fn cluster_sweep_produces_record_per_combo() {
        let ds = cw_datasets::representative()[3..4].to_vec();
        let combos = [
            (ClusterScheme::Fixed, Reordering::Original),
            (ClusterScheme::Hierarchical, Reordering::Original),
        ];
        let recs = cluster_sweep(&ds, &combos, &quick_cfg());
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().all(|r| r.speedup > 0.0));
    }
}
