//! Ablation experiments beyond the paper's figures — the design choices
//! DESIGN.md calls out:
//!
//! 1. **`jacc_th` sweep** — the paper fixes 0.3; how sensitive are cluster
//!    counts and speedups to it?
//! 2. **`max_cluster_th` sweep** — the paper fixes 8 (also the bitmask
//!    width); what do 2/4/8 buy?
//! 3. **Fixed cluster length sweep** — 2/4/8 rows per cluster.
//! 4. **Access-pattern ablation** — cluster-wise *storage* with row-major
//!    *processing* (`cw_core::ablation`) vs the real column-major kernel,
//!    measured in simulated cache misses: isolates the paper's claim that
//!    the format alone is not enough (§1, drawback 3 of prior work).

use crate::report::{f2, Report, Table};
use crate::runner::{time_clusterwise, time_rowwise_a2, RunConfig};
use cw_cachesim::{replay_b_row_trace, CacheConfig};
use cw_core::ablation::{clusterwise_row_major, row_major_b_access_trace};
use cw_core::trace::clusterwise_b_access_trace;
use cw_core::{
    fixed_clustering, hierarchical_clustering, variable_clustering, ClusterConfig, CsrCluster,
};

/// Runs the parameter-sweep ablations on the representative datasets.
pub fn run(cfg: &RunConfig) -> Report {
    let mut rep =
        Report::new("ablation", "Design-choice ablations (clustering parameters, access pattern)");
    rep.note("Extensions beyond the paper's figures; all speedups vs row-wise original order, A² workload.");

    let datasets = cw_datasets::representative();

    // --- 1. jacc_th sweep (variable-length + hierarchical) ---
    let mut t1 = Table::new(vec![
        "Dataset",
        "th=0.1 spd",
        "th=0.3 spd",
        "th=0.5 spd",
        "th=0.1 #cl",
        "th=0.3 #cl",
        "th=0.5 #cl",
    ]);
    for d in datasets.iter().take(6) {
        let a = d.build(cfg.scale);
        let base = time_rowwise_a2(&a, cfg.reps);
        let mut speeds = Vec::new();
        let mut counts = Vec::new();
        for th in [0.1, 0.3, 0.5] {
            let c = ClusterConfig { jacc_th: th, max_cluster: 8 };
            let h = hierarchical_clustering(&a, &c);
            let (cc, pa) = h.build_symmetric(&a);
            let t = time_clusterwise(&cc, &pa, cfg.reps);
            speeds.push(f2(base / t));
            counts.push(h.clustering.nclusters().to_string());
        }
        t1.push_row(vec![
            d.name.to_string(),
            speeds[0].clone(),
            speeds[1].clone(),
            speeds[2].clone(),
            counts[0].clone(),
            counts[1].clone(),
            counts[2].clone(),
        ]);
    }
    rep.add_table("hierarchical clustering: Jaccard threshold sweep", t1);

    // --- 2. max_cluster sweep ---
    let mut t2 = Table::new(vec!["Dataset", "max=2", "max=4", "max=8"]);
    for d in datasets.iter().take(6) {
        let a = d.build(cfg.scale);
        let base = time_rowwise_a2(&a, cfg.reps);
        let mut row = vec![d.name.to_string()];
        for max in [2usize, 4, 8] {
            let c = ClusterConfig { jacc_th: 0.3, max_cluster: max };
            let h = hierarchical_clustering(&a, &c);
            let (cc, pa) = h.build_symmetric(&a);
            row.push(f2(base / time_clusterwise(&cc, &pa, cfg.reps)));
        }
        t2.push_row(row);
    }
    rep.add_table("hierarchical clustering: max cluster size sweep (speedup)", t2);

    // --- 3. fixed length sweep ---
    let mut t3 = Table::new(vec!["Dataset", "K=2", "K=4", "K=8"]);
    for d in datasets.iter().take(6) {
        let a = d.build(cfg.scale);
        let base = time_rowwise_a2(&a, cfg.reps);
        let mut row = vec![d.name.to_string()];
        for k in [2usize, 4, 8] {
            let cc = CsrCluster::from_csr(&a, &fixed_clustering(&a, k));
            row.push(f2(base / time_clusterwise(&cc, &a, cfg.reps)));
        }
        t3.push_row(row);
    }
    rep.add_table("fixed-length clustering: cluster size sweep (speedup)", t3);

    // --- 4. access-pattern ablation in simulated cache misses ---
    // Run on matrices where clustering genuinely engages (shared-column
    // groups / scattered blocks); on singleton-heavy inputs both traversals
    // are trivially identical, which is itself a finding reported by the
    // `singleton_clusters_trace_equivalence` unit test.
    let mut t4 = Table::new(vec![
        "Matrix",
        "clustering",
        "row-major misses",
        "column-major misses",
        "reduction",
    ]);
    let cache = CacheConfig { size_bytes: 32 * 1024, line_bytes: 64, ways: 8 };
    let f = cfg.scale.factor();
    let cases: Vec<(&str, cw_sparse::CsrMatrix)> = vec![
        ("grouped-wide", cw_sparse::gen::banded::grouped_rows(4096 * f, 8, 48, 11)),
        ("blocks-8", cw_sparse::gen::banded::block_diagonal(4096 * f, (8, 8), 0.01, 3)),
        ("scattered-blocks", {
            let b = cw_sparse::gen::banded::block_diagonal(4096 * f, (4, 8), 0.02, 5);
            cw_reorder::random_permutation(b.nrows, 9).permute_symmetric(&b)
        }),
    ];
    for (name, a) in cases {
        for (label, cc) in [
            (
                "variable",
                CsrCluster::from_csr(&a, &variable_clustering(&a, &ClusterConfig::default())),
            ),
            (
                "hierarchical",
                hierarchical_clustering(&a, &ClusterConfig::default()).build_symmetric(&a).0,
            ),
        ] {
            // Correctness guard: both kernels produce the same product.
            let back = cc.to_csr();
            debug_assert!(clusterwise_row_major(&cc, &back)
                .approx_eq(&cw_core::clusterwise_spgemm(&cc, &back), 1e-9));
            let rm = replay_b_row_trace(&back, &row_major_b_access_trace(&cc), cache);
            let cm = replay_b_row_trace(&back, &clusterwise_b_access_trace(&cc), cache);
            t4.push_row(vec![
                name.to_string(),
                label.to_string(),
                rm.cache.misses.to_string(),
                cm.cache.misses.to_string(),
                f2(rm.cache.misses as f64 / cm.cache.misses.max(1) as f64),
            ]);
        }
    }
    rep.add_table("same CSR_Cluster storage, different traversal (simulated misses)", t4);

    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_datasets::Scale;

    #[test]
    fn ablation_report_renders() {
        let cfg = RunConfig { reps: 1, scale: Scale::Small, ..Default::default() };
        let rep = run(&cfg);
        let md = rep.to_markdown();
        assert!(md.contains("Jaccard threshold sweep"));
        assert!(md.contains("different traversal"));
        assert_eq!(rep.tables.len(), 4);
    }
}
