//! Timing harness and the shared per-dataset measurement pipeline.

use cw_core::{
    clusterwise_spgemm, fixed_clustering, hierarchical_clustering, variable_clustering,
    ClusterConfig, CsrCluster,
};
use cw_datasets::{Dataset, Scale};
use cw_reorder::Reordering;
use cw_sparse::{CsrMatrix, Permutation};
use cw_spgemm::spgemm;
use std::hint::black_box;
use std::time::Instant;

/// Global experiment options.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Dataset scale.
    pub scale: Scale,
    /// Timing repetitions (median is reported).
    pub reps: usize,
    /// Base RNG seed for randomized algorithms.
    pub seed: u64,
    /// Optional cap on the number of corpus datasets (for quick runs).
    pub subset: Option<usize>,
}

/// Fixed-length cluster size: the paper's `max_cluster_th`.
const FIXED_LEN: usize = 8;

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig { scale: Scale::Small, reps: 3, seed: 0xC0FFEE, subset: None }
    }
}

impl RunConfig {
    /// Applies the subset cap to a dataset list.
    pub fn select(&self, mut datasets: Vec<Dataset>) -> Vec<Dataset> {
        if let Some(n) = self.subset {
            datasets.truncate(n);
        }
        datasets
    }
}

/// Median wall-clock seconds of `f` over `reps` runs (after one warmup).
pub fn time_median<T, F: FnMut() -> T>(reps: usize, mut f: F) -> f64 {
    black_box(f());
    let reps = reps.max(1);
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// One timed measurement with preprocessing cost attached.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Median kernel seconds.
    pub kernel_seconds: f64,
    /// Preprocessing seconds (reorder + cluster construction as relevant).
    pub preprocess_seconds: f64,
}

/// Times row-wise `A²` on the given matrix.
pub fn time_rowwise_a2(a: &CsrMatrix, reps: usize) -> f64 {
    time_median(reps, || spgemm(a, a))
}

/// Times row-wise `A·B`.
pub fn time_rowwise(a: &CsrMatrix, b: &CsrMatrix, reps: usize) -> f64 {
    time_median(reps, || spgemm(a, b))
}

/// Times cluster-wise `A·B` given a prebuilt clustered operand.
pub fn time_clusterwise(ac: &CsrCluster, b: &CsrMatrix, reps: usize) -> f64 {
    time_median(reps, || clusterwise_spgemm(ac, b))
}

/// Reorders `a` symmetrically with `algo` and times row-wise `A'²`.
pub fn measure_reordered_rowwise(
    a: &CsrMatrix,
    algo: Reordering,
    cfg: &RunConfig,
) -> (Measured, Permutation) {
    let t0 = Instant::now();
    let perm = algo.compute(a, cfg.seed);
    let preprocess = t0.elapsed().as_secs_f64();
    let pa = perm.permute_symmetric(a);
    let kernel = time_rowwise_a2(&pa, cfg.reps);
    (Measured { kernel_seconds: kernel, preprocess_seconds: preprocess }, perm)
}

/// Which cluster-wise scheme to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterScheme {
    /// Fixed-length clusters (paper §3.2).
    Fixed,
    /// Variable-length clusters (paper Alg. 2).
    Variable,
    /// Hierarchical clustering (paper Alg. 3; includes its own reordering).
    Hierarchical,
}

impl ClusterScheme {
    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            ClusterScheme::Fixed => "Fixed-length",
            ClusterScheme::Variable => "Variable-length",
            ClusterScheme::Hierarchical => "Hierarchical",
        }
    }
}

/// Builds the clustered operand for `scheme` over (already reordered) `a`
/// at the paper's settings (`ClusterConfig::default()`, fixed length 8),
/// returning the format and the build time. For `Hierarchical` the matrix
/// is additionally permuted internally; the effective square operand used
/// as `B` is returned as the third element.
pub fn build_clustered(a: &CsrMatrix, scheme: ClusterScheme) -> (CsrCluster, f64, CsrMatrix) {
    let t0 = Instant::now();
    match scheme {
        ClusterScheme::Fixed => {
            let c = fixed_clustering(a, FIXED_LEN);
            let cc = CsrCluster::from_csr(a, &c);
            (cc, t0.elapsed().as_secs_f64(), a.clone())
        }
        ClusterScheme::Variable => {
            let c = variable_clustering(a, &ClusterConfig::default());
            let cc = CsrCluster::from_csr(a, &c);
            (cc, t0.elapsed().as_secs_f64(), a.clone())
        }
        ClusterScheme::Hierarchical => {
            let h = hierarchical_clustering(a, &ClusterConfig::default());
            let (cc, pa) = h.build_symmetric(a);
            (cc, t0.elapsed().as_secs_f64(), pa)
        }
    }
}

/// Measures cluster-wise `A'²` for a scheme applied after `reorder`
/// (use [`Reordering::Original`] for "no reordering"). Returns kernel +
/// total preprocessing (reorder + cluster build) seconds.
pub fn measure_clusterwise_a2(
    a: &CsrMatrix,
    reorder: Reordering,
    scheme: ClusterScheme,
    cfg: &RunConfig,
) -> Measured {
    let t0 = Instant::now();
    let perm = reorder.compute(a, cfg.seed);
    let pa = perm.permute_symmetric(a);
    let reorder_secs = t0.elapsed().as_secs_f64();
    let (cc, build_secs, square) = build_clustered(&pa, scheme);
    let kernel = time_clusterwise(&cc, &square, cfg.reps);
    Measured { kernel_seconds: kernel, preprocess_seconds: reorder_secs + build_secs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::gen::grid::poisson2d;

    #[test]
    fn time_median_is_positive_and_ordered() {
        let t = time_median(3, || {
            let mut s = 0u64;
            for i in 0..10_000u64 {
                s = s.wrapping_add(i * i);
            }
            s
        });
        assert!(t > 0.0);
    }

    #[test]
    fn rowwise_and_clusterwise_measurements_run() {
        let a = poisson2d(12, 12);
        let cfg = RunConfig { reps: 1, ..Default::default() };
        let t_base = time_rowwise_a2(&a, 1);
        assert!(t_base > 0.0);
        for scheme in [ClusterScheme::Fixed, ClusterScheme::Variable, ClusterScheme::Hierarchical] {
            let m = measure_clusterwise_a2(&a, Reordering::Original, scheme, &cfg);
            assert!(m.kernel_seconds > 0.0, "{scheme:?}");
            assert!(m.preprocess_seconds >= 0.0);
        }
    }

    #[test]
    fn measure_reordered_runs_for_cheap_algorithms() {
        let a = poisson2d(10, 10);
        let cfg = RunConfig { reps: 1, ..Default::default() };
        let (m, perm) = measure_reordered_rowwise(&a, Reordering::Rcm, &cfg);
        assert!(m.kernel_seconds > 0.0);
        assert_eq!(perm.len(), 100);
    }

    #[test]
    fn subset_selection() {
        let cfg = RunConfig { subset: Some(3), ..Default::default() };
        let ds = cfg.select(cw_datasets::corpus());
        assert_eq!(ds.len(), 3);
    }
}
