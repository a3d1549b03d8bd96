//! Execution: *how* a prepared plan runs.
//!
//! A [`Plan`] says *what* to compute (reordering × clustering ×
//! accumulator × output shape); its [`BackendId`] says how the kernel is
//! scheduled. There are two, and they share everything but one flag:
//!
//! * [`BackendId::ParallelCpu`] — the rayon path, the default of every
//!   plan and the only backend the planner proposes.
//! * [`BackendId::SerialReference`] — the same kernels forced onto one
//!   thread: the oracle every cross-validation suite compares against.
//!   Because each kernel accumulates an output entry in ascending-`k`
//!   order and extracts sorted columns wherever it runs, the two are
//!   bit-identical under otherwise equal plans.
//!
//! Both materialize the same `CpuOperand` (`materialize`) and run
//! through the one `execute` function, which is also where the output
//! shape is applied. There is no trait or registry: a backend earns a
//! variant here (and a `match` arm in `execute`) by winning a
//! measurement, and the id is a [`Plan`] field so cache entries and
//! feedback candidates remain keyed by it.

use crate::plan::{ClusteringStrategy, OutputShape, Plan};
use crate::report::StageTimings;
use cw_core::{
    fixed_clustering, hierarchical_clustering, variable_clustering, ClusterConfig, CsrCluster,
};
use cw_reorder::Reordering;
use cw_sparse::{CsrMatrix, Permutation};
use cw_spgemm::rowwise::{spgemm_mapped, SpGemmOptions};
use std::time::Instant;

/// Identity of one execution backend: what travels inside [`Plan`]s (and
/// therefore cache keys and feedback state), reports and the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BackendId {
    /// The rayon CPU path (the default).
    #[default]
    ParallelCpu,
    /// Single-threaded deterministic oracle for cross-validation.
    SerialReference,
}

impl BackendId {
    /// Every backend id, in [`BackendId::index`] order.
    pub const ALL: [BackendId; 2] = [BackendId::ParallelCpu, BackendId::SerialReference];

    /// Short human-readable name (stable across releases; used in reports).
    pub fn name(&self) -> &'static str {
        match self {
            BackendId::ParallelCpu => "parallel-cpu",
            BackendId::SerialReference => "serial-reference",
        }
    }

    /// Stable small integer for this id: the `WireReport` backend byte
    /// (`docs/PROTOCOL.md`) and the per-backend stats slot. Values are
    /// never reused: `2` and `3` belonged to backends that were retired.
    pub fn index(self) -> usize {
        match self {
            BackendId::ParallelCpu => 0,
            BackendId::SerialReference => 1,
        }
    }

    /// Inverse of [`BackendId::index`]; `None` for any other value
    /// (including the retired `2` and `3`).
    pub fn from_index(index: usize) -> Option<BackendId> {
        match index {
            0 => Some(BackendId::ParallelCpu),
            1 => Some(BackendId::SerialReference),
            _ => None,
        }
    }

    /// Whether execution uses the rayon pool when [`Plan::parallel`] asks
    /// for it (`false`: the kernel runs on the calling thread whatever the
    /// plan says, and the cost model never applies the parallel speedup).
    pub fn is_parallel(self) -> bool {
        match self {
            BackendId::ParallelCpu => true,
            BackendId::SerialReference => false,
        }
    }
}

/// The materialized left operand, which decides the kernel: plain CSR for
/// row-wise plans and for clustered plans whose clustering came out too
/// fine to pay (see [`materialize`]), `CSR_Cluster` for the rest.
#[derive(Debug, Clone)]
pub(crate) enum CpuOperand {
    /// Row-wise kernels run over plain (possibly permuted) CSR.
    RowWise(CsrMatrix),
    /// Cluster-wise kernels run over the paper's `CSR_Cluster`.
    ClusterWise(CsrCluster),
}

impl CpuOperand {
    /// Approximate resident heap footprint in bytes.
    pub(crate) fn approx_bytes(&self) -> usize {
        match self {
            CpuOperand::RowWise(m) => m.memory_bytes(),
            CpuOperand::ClusterWise(cc) => cc.memory_bytes(),
        }
    }
}

/// Below this many rows per cluster a clustered layout has found too little
/// to share: `CSR_Cluster` over (almost) singletons costs a union list, a
/// bitmask and a per-member scatter loop for every row and saves no `B`-row
/// reads, so the operand is kept as plain CSR on the same row order.
const MIN_ROWS_PER_CLUSTER: f64 = 1.5;

/// Materializes the operand for `plan`: computes and applies the row
/// permutation, builds the clustered format when the plan asks for one and
/// the clustering found something to cluster, and records the
/// `reorder`/`cluster` stage seconds (the other [`StageTimings`] fields
/// stay zero).
///
/// The operand is [`CpuOperand::ClusterWise`] only when the plan's
/// clustering averages at least [`MIN_ROWS_PER_CLUSTER`] rows per cluster;
/// otherwise it is the same reordered (for `Hierarchical`: swept and
/// grouped) rows as [`CpuOperand::RowWise`], still under `plan` — its cache
/// key and feedback identity do not change, only the kernel that runs.
///
/// The returned permutation is the total applied reordering (`new → old`:
/// kernel row `r` is original row `old_of(r)`), which is exactly the row
/// map [`execute`] needs to hand rows back in the caller's order; `None`
/// when the rows did not move.
pub(crate) fn materialize(
    a: &CsrMatrix,
    plan: &Plan,
    seed: u64,
    cluster: &ClusterConfig,
) -> (CpuOperand, Option<Permutation>, StageTimings) {
    let mut timings = StageTimings::default();

    // Stage 1: explicit reordering (paper Table 1 algorithms).
    let (base, mut perm_total) = if plan.reorder == Reordering::Original {
        (a.clone(), None)
    } else {
        let t0 = Instant::now();
        let p = plan.reorder.compute(a, seed);
        let pa = p.permute_rows(a);
        timings.reorder_seconds = t0.elapsed().as_secs_f64();
        (pa, Some(p))
    };

    // Stage 2: clustering (paper §3.2 / Algs. 2–3). Hierarchical
    // clustering brings its own permutation, composed onto any explicit
    // reordering.
    let t0 = Instant::now();
    let (grouped, clustering) = match plan.clustering {
        ClusteringStrategy::None => {
            return (CpuOperand::RowWise(base), identity_to_none(perm_total), timings)
        }
        ClusteringStrategy::Fixed(k) => {
            let clustering = fixed_clustering(&base, k.max(1));
            (base, clustering)
        }
        ClusteringStrategy::Variable => {
            let clustering = variable_clustering(&base, cluster);
            (base, clustering)
        }
        ClusteringStrategy::Hierarchical => {
            let h = hierarchical_clustering(&base, cluster);
            let grouped = h.perm.permute_rows(&base);
            // Compose: the explicit reorder ran first, then `h.perm`.
            perm_total = Some(match perm_total.take() {
                None => h.perm,
                Some(first) => first.then(&h.perm),
            });
            (grouped, h.clustering)
        }
    };
    let clusters = clustering.sizes.len() as f64;
    let operand = if (grouped.nrows as f64) < MIN_ROWS_PER_CLUSTER * clusters {
        CpuOperand::RowWise(grouped)
    } else {
        CpuOperand::ClusterWise(CsrCluster::from_csr(&grouped, &clustering))
    };
    timings.cluster_seconds = t0.elapsed().as_secs_f64();
    (operand, identity_to_none(perm_total), timings)
}

/// A permutation that moves nothing needs no row map.
fn identity_to_none(perm: Option<Permutation>) -> Option<Permutation> {
    perm.filter(|p| !p.is_identity())
}

/// `shape(A · b)` on the plan's backend, where `operand` is `A` with its
/// rows reordered by `row_map` (what [`materialize`] returned). Rows come
/// back in `A`'s order — the caller's: every kernel hands `row_map` to
/// [`cw_spgemm::single_pass`], whose pack step writes each row at its final
/// offset, so no separate un-permutation pass exists.
///
/// `mask` must be `Some` exactly when the plan's shape is
/// [`OutputShape::Masked`], and is in the caller's row order like the
/// result.
///
/// A masked row-wise plan runs [`cw_spgemm::spgemm_masked_mapped`], which
/// admits only the mask's columns into the accumulator and never builds
/// the rest of the product. Every other shaped arm computes the full
/// product and then applies the row-local shape transform
/// ([`cw_spgemm::row_topk`] / [`cw_spgemm::apply_mask`]) to it: it is the
/// only path on cluster-wise operands and top-k, and the oracle a fused arm
/// must stay bit-identical to.
///
/// # Panics
///
/// Panics if the shape is `Masked` and `mask` is `None`, or if the mask's
/// dimensions do not match the product's.
pub(crate) fn execute(
    operand: &CpuOperand,
    row_map: Option<&Permutation>,
    plan: &Plan,
    b: &CsrMatrix,
    mask: Option<&CsrMatrix>,
) -> CsrMatrix {
    let opts = SpGemmOptions {
        parallel: plan.parallel && plan.backend.is_parallel(),
        ..plan.spgemm_options()
    };
    let full = || match operand {
        CpuOperand::RowWise(pa) => spgemm_mapped(pa, b, &opts, row_map),
        CpuOperand::ClusterWise(cc) => cw_core::clusterwise_spgemm_mapped(cc, b, &opts, row_map),
    };
    let mask = || mask.expect("masked plan executed without a mask operand");
    match (operand, plan.shape) {
        (CpuOperand::RowWise(pa), OutputShape::Masked) => {
            cw_spgemm::spgemm_masked_mapped(pa, b, mask(), &opts, row_map)
        }
        (_, OutputShape::Masked) => cw_spgemm::apply_mask(&full(), mask()),
        (_, OutputShape::TopK(k)) => cw_spgemm::row_topk(&full(), k),
        (_, OutputShape::Full) => full(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::gen;
    use cw_spgemm::spgemm_serial;

    fn product(a: &CsrMatrix, plan: Plan) -> CsrMatrix {
        let (operand, row_map, _) = materialize(a, &plan, 7, &ClusterConfig::default());
        execute(&operand, row_map.as_ref(), &plan, a, None)
    }

    fn assert_parallel_matches_oracle(a: &CsrMatrix, plan: Plan) {
        let oracle = product(a, plan.on_backend(BackendId::SerialReference));
        assert!(oracle.numerically_eq(&spgemm_serial(a, a), 1e-9));
        let got = product(a, plan.on_backend(BackendId::ParallelCpu));
        assert!(got.approx_eq(&oracle, 0.0), "parallel-cpu diverges from the serial oracle");
    }

    #[test]
    fn all_backends_agree_bit_identically_on_rowwise_plans() {
        let a = gen::mesh::tri_mesh(12, 12, true, 3);
        assert_parallel_matches_oracle(&a, Plan { reorder: Reordering::Rcm, ..Plan::baseline() });
    }

    #[test]
    fn all_backends_agree_bit_identically_on_clusterwise_plans() {
        let a = gen::banded::block_diagonal(96, (4, 8), 0.1, 2);
        assert_parallel_matches_oracle(
            &a,
            Plan { clustering: ClusteringStrategy::Variable, ..Plan::baseline() },
        );
    }

    #[test]
    fn backend_ids_name_and_order() {
        assert_eq!(BackendId::default(), BackendId::ParallelCpu);
        let names: Vec<_> = BackendId::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names, ["parallel-cpu", "serial-reference"]);
        for (i, id) in BackendId::ALL.into_iter().enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(BackendId::from_index(i), Some(id));
        }
        // Retired and unknown values decode to nothing, never to a default.
        for retired in [2, 3, 255] {
            assert_eq!(BackendId::from_index(retired), None);
        }
        assert!(BackendId::ParallelCpu.is_parallel());
        assert!(!BackendId::SerialReference.is_parallel());
    }
}
