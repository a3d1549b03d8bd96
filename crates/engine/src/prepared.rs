//! Prepared operands: a [`Plan`] materialized once, reusable across many
//! multiplies.
//!
//! Preparation is the expensive part of the paper's pipeline — computing a
//! row order, a reordering's or hierarchical clustering's — and
//! only pays off amortized over repeated multiplications (§4.5, Fig. 10).
//! [`PreparedMatrix`] does that work exactly once and records how long each
//! stage took; [`PreparedMatrix::multiply_shaped`] then runs only the
//! kernel, which reads the reordered rows and writes each result row where
//! the *original* order wants it, so callers never observe the internal
//! reordering and no un-permutation pass follows the kernel. That holds for
//! columns too: when the right-hand side is the very matrix the preparation
//! was built from, the kernel also runs in the reordering's *column* labels
//! and translates each row back as it extracts it — same bits, the caller's
//! labels. Where the reordered rows share their columns, the preparation
//! also keeps them clustered and the multiply runs the paper's cluster-wise
//! kernel on them ([`PreparedMatrix::sharing_factor`]).

use crate::backend::{self, CpuOperand};
use crate::cache::OperandKey;
use crate::plan::{OutputShape, Plan};
use crate::report::StageTimings;
use cw_core::ClusterConfig;
use cw_sparse::{CsrMatrix, Permutation};
use cw_spgemm::AccumulatorKind;
use std::time::Instant;

/// An `A` operand with its plan fully materialized.
#[derive(Debug, Clone)]
pub struct PreparedMatrix {
    /// The plan this preparation realizes (its `parallel` field says
    /// whether every multiply runs on the pool).
    pub plan: Plan,
    /// Identity of the *original* (pre-permutation) operand — the plan
    /// cache's and the feedback store's key; its fingerprint carries the
    /// operand's dimensions and `nnz`.
    pub operand: OperandKey,
    /// What preparation cost: the row order in `cluster_seconds` under a
    /// [`cw_reorder::Reordering::Hierarchical`] plan, in `reorder_seconds`
    /// under any other, plus the cluster scan in `cluster_seconds`; every
    /// other stage is zero.
    pub timings: StageTimings,
    /// The row permutation `format` was built under (`None` when
    /// the rows did not move): kernel row `r` is original row `old_of(r)`,
    /// which is where the kernel's pack step stores it.
    row_map: Option<Permutation>,
    /// The reordered CSR operand the kernel runs over.
    format: CpuOperand,
}

impl PreparedMatrix {
    /// Materializes `plan` for `a`: computes and applies its row order and
    /// records what that cost.
    ///
    /// `seed` feeds randomized reorderings. `_cluster` is unused: a
    /// Hierarchical plan always clusters under [`ClusterConfig::default`],
    /// so equal plans prepare equal operands. The parameter stays only
    /// until the repo benchmark, which calls this, stops passing it.
    pub fn prepare(a: &CsrMatrix, plan: Plan, seed: u64, _cluster: &ClusterConfig) -> Self {
        PreparedMatrix::prepare_keyed(a, OperandKey::of(a), plan, seed)
    }

    /// [`PreparedMatrix::prepare`] for an `a` whose identity the caller has
    /// already computed.
    pub(crate) fn prepare_keyed(a: &CsrMatrix, operand: OperandKey, plan: Plan, seed: u64) -> Self {
        let (format, row_map, timings) = backend::materialize(a, &plan, seed);
        PreparedMatrix { plan, operand, timings, row_map, format }
    }

    /// Whether the preparation carries its ids in the reordering's label
    /// space too: the operand is square, its rows moved, and the order left
    /// each row's ids within a tenth of the matrix of the row itself on
    /// average (a scattered order has no locality for a relabelling to
    /// reach), and never under a masked plan. A multiply whose right-hand
    /// side is the source matrix then runs two-sided
    /// ([`crate::ExecutionReport::two_sided`]).
    pub fn is_relabelled(&self) -> bool {
        self.format.is_relabelled()
    }

    /// The sharing factor of the operand's clusters (stored entries per
    /// union column) when the preparation kept them and every multiply runs
    /// the cluster-wise lane kernel; `None` when it runs row-wise. Decided at
    /// preparation: Alg. 2 scans the reordered rows of every plan but the
    /// baseline and masked ones, and the clusters are kept where they share
    /// enough to pay.
    pub fn sharing_factor(&self) -> Option<f64> {
        self.format.sharing_factor()
    }

    /// Approximate resident heap footprint in bytes: the materialized
    /// operand — relabelled ids and clusters included — plus the row map
    /// (which doubles as the label map). [`crate::PlanCache::bytes`] sums
    /// it over the resident entries.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let row_map = self.row_map.as_ref().map_or(0, |p| p.len() * size_of::<u32>());
        size_of::<Self>() + self.format.approx_bytes() + row_map
    }

    /// `C = shape(A · b)`; rows of `C` come back in the original
    /// (pre-reordering) order. `mask` names the output positions to keep
    /// and must be `Some` exactly when the plan's shape is
    /// [`OutputShape::Masked`] (the mask is request data, not part of the
    /// preparation), matching the product's dimensions.
    ///
    /// Whether `b` is the matrix this preparation was built from is decided
    /// here, tried only when [`PreparedMatrix::is_relabelled`]: dimensions
    /// and `nnz`, then the sampled fingerprint, then the full-content
    /// checksum — the two halves of the plan cache's key; a fingerprint
    /// match alone is never trusted.
    pub fn multiply_shaped(&self, b: &CsrMatrix, mask: Option<&CsrMatrix>) -> CsrMatrix {
        self.run(b, false, mask).0
    }

    /// The multiply behind every door: the shaped product, the kernel
    /// stage's seconds, whether it ran two-sided, and the accumulator it ran.
    /// `b_is_source` is a proof the caller already holds that `b` is the
    /// prepared matrix (the same reference as an `a` whose identity just
    /// keyed the lookup); without one the content test runs here, inside the
    /// timed region.
    pub(crate) fn run(
        &self,
        b: &CsrMatrix,
        b_is_source: bool,
        mask: Option<&CsrMatrix>,
    ) -> (CsrMatrix, f64, bool, AccumulatorKind) {
        assert_eq!(
            matches!(self.plan.shape, OutputShape::Masked),
            mask.is_some(),
            "a mask operand must be supplied exactly when the plan's shape is Masked (plan: {})",
            self.plan.describe()
        );
        let t0 = Instant::now();
        let b_is_source = self.is_relabelled() && (b_is_source || self.operand.identifies(b));
        let (c, two_sided, acc) =
            backend::execute(&self.format, self.row_map.as_ref(), &self.plan, b, b_is_source, mask);
        (c, t0.elapsed().as_secs_f64(), two_sided, acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Plan;
    use cw_reorder::advisor::Suggestion;
    use cw_reorder::Reordering;
    use cw_sparse::gen;
    use cw_spgemm::spgemm_serial;

    fn check_plan(a: &CsrMatrix, plan: Plan) {
        let prepared = PreparedMatrix::prepare(a, plan, 7, &ClusterConfig::default());
        let got = prepared.multiply_shaped(a, None);
        let expect = spgemm_serial(a, a);
        assert!(got.bits_eq(&expect), "plan {} output mismatch", plan.describe());
    }

    #[test]
    fn rowwise_plain_matches_baseline() {
        let a = gen::grid::poisson2d(9, 9);
        check_plan(&a, Plan::baseline());
    }

    #[test]
    fn reordered_rowwise_unpermutes_back() {
        let a = gen::mesh::tri_mesh(10, 10, true, 4);
        for r in [Reordering::Rcm, Reordering::Degree, Reordering::Random] {
            check_plan(&a, Plan { reorder: r, ..Plan::baseline() });
        }
    }

    #[test]
    fn clustered_plans_match_baseline() {
        let hierarchical = Plan { reorder: Reordering::Hierarchical, ..Plan::baseline() };
        check_plan(&gen::banded::block_diagonal(72, (4, 8), 0.1, 2), hierarchical);
        check_plan(&gen::mesh::tri_mesh(9, 9, true, 1), hierarchical);
    }

    #[test]
    fn a_hierarchical_plan_is_hierarchical_clusterings_row_order() {
        // What the pinned `Plan::from_suggestion(Suggestion::Hierarchical)`
        // prepares on a shuffled mesh: the clustering's sweep order under
        // the default configuration, run row-wise and two-sided.
        use cw_core::hierarchical_clustering;
        let natural = gen::mesh::tri_mesh(48, 48, false, 1);
        let a = cw_reorder::random_permutation(natural.nrows, 5).permute_symmetric(&natural);
        let plan = Plan::from_suggestion(Suggestion::Hierarchical);
        let prepared = PreparedMatrix::prepare(&a, plan, 7, &ClusterConfig::default());
        let row_map = hierarchical_clustering(&a, &ClusterConfig::default()).perm;
        assert_eq!(prepared.row_map.as_ref(), Some(&row_map));
        assert!(prepared.is_relabelled());
        assert!(prepared.timings.cluster_seconds > 0.0);
        assert_eq!(prepared.timings.reorder_seconds, 0.0);
        assert!(prepared.multiply_shaped(&a, None).bits_eq(&spgemm_serial(&a, &a)));
    }

    #[test]
    fn a_rectangular_operand_takes_hierarchical_rows() {
        // The one order that applies to a rectangular `a`: its rows move,
        // no relabelling applies, and the product keeps the serial bits.
        let a = gen::er::erdos_renyi_rect(90, 30, 4, 3);
        let b = gen::er::erdos_renyi_rect(30, 20, 3, 5);
        for parallel in [false, true] {
            let plan = Plan { reorder: Reordering::Hierarchical, parallel, ..Plan::baseline() };
            let prepared = PreparedMatrix::prepare(&a, plan, 7, &ClusterConfig::default());
            assert!(prepared.row_map.is_some() && !prepared.is_relabelled());
            assert!(prepared.multiply_shaped(&b, None).bits_eq(&spgemm_serial(&a, &b)));
        }
    }

    #[test]
    fn every_builtin_backend_prepares_and_multiplies() {
        let a = gen::mesh::tri_mesh(10, 10, true, 2);
        let expect = spgemm_serial(&a, &a);
        for parallel in [true, false] {
            let plan = Plan { parallel, ..Plan::baseline() };
            let prepared = PreparedMatrix::prepare(&a, plan, 7, &ClusterConfig::default());
            assert_eq!(prepared.plan, plan);
            let got = prepared.multiply_shaped(&a, None);
            assert!(got.numerically_eq(&expect, 1e-9), "parallel {parallel} diverges");
        }
    }

    #[test]
    fn approx_bytes_tracks_operand_size() {
        let small = gen::grid::poisson2d(6, 6);
        let large = gen::grid::poisson2d(24, 24);
        let cfg = ClusterConfig::default();
        let ps = PreparedMatrix::prepare(&small, Plan::baseline(), 7, &cfg);
        let pl = PreparedMatrix::prepare(&large, Plan::baseline(), 7, &cfg);
        assert!(ps.approx_bytes() > 0);
        assert!(pl.approx_bytes() > ps.approx_bytes());
        // A reordered preparation carries its row map too.
        let plan = Plan { reorder: Reordering::Hierarchical, ..Plan::baseline() };
        let pc = PreparedMatrix::prepare(&large, plan, 7, &cfg);
        assert!(pc.approx_bytes() > pl.approx_bytes());
    }

    #[test]
    fn approx_bytes_counts_what_two_sided_execution_retains() {
        use std::mem::size_of;
        let a = gen::mesh::tri_mesh(48, 48, true, 2);
        let cfg = ClusterConfig::default();
        let rcm = Plan { reorder: Reordering::Rcm, ..Plan::baseline() };
        // `P·A` has `A`'s size; the row map is one u32 per row.
        let one_sided = size_of::<PreparedMatrix>() + a.memory_bytes() + a.nrows * size_of::<u32>();

        let rowwise = PreparedMatrix::prepare(&a, rcm, 7, &cfg);
        assert!(rowwise.is_relabelled());
        assert_eq!(rowwise.approx_bytes(), one_sided + a.nnz() * size_of::<u32>());

        // A masked plan builds no relabelling and is charged none.
        let masked = PreparedMatrix::prepare(&a, rcm.with_shape(OutputShape::Masked), 7, &cfg);
        assert!(!masked.is_relabelled());
        assert_eq!(masked.approx_bytes(), one_sided);

        // The benchmark's `wire-large` operand, clustered and relabelled:
        // its clusters with relabelled union ids, and `P·A·Pᵀ`'s rows, which
        // cost what `A` costs. `P·A`'s own ids are not kept — no arm reads
        // them beside the clusters — so this is `nnz × 4` bytes below a
        // preparation that also kept `P·A` whole.
        use cw_core::{variable_clustering, CsrCluster};
        let natural = gen::banded::block_diagonal(40_000, (6, 10), 0.02, 1);
        let a = cw_reorder::random_permutation(natural.nrows, 2).permute_symmetric(&natural);
        let clustered = PreparedMatrix::prepare(&a, rcm, 7, &cfg);
        assert!(clustered.is_relabelled() && clustered.sharing_factor().is_some());
        let pa = clustered.row_map.as_ref().unwrap().permute_rows(&a);
        let cc = CsrCluster::from_csr(&pa, &variable_clustering(&pa, &cfg));
        let clusters = cc.memory_bytes() + cc.col_ids.len() * size_of::<u32>();
        let rows = a.memory_bytes() + a.nrows * size_of::<u32>();
        assert_eq!(clustered.approx_bytes(), size_of::<PreparedMatrix>() + clusters + rows);
    }

    #[test]
    fn rectangular_b_supported() {
        let a = gen::er::erdos_renyi(60, 5, 3);
        let b = gen::er::erdos_renyi_rect(60, 14, 3, 4);
        let plan = Plan { reorder: Reordering::Degree, ..Plan::baseline() };
        let prepared = PreparedMatrix::prepare(&a, plan, 7, &ClusterConfig::default());
        let got = prepared.multiply_shaped(&b, None);
        assert!(got.numerically_eq(&spgemm_serial(&a, &b), 1e-9));
        assert_eq!(got.ncols, 14);
    }

    #[test]
    fn original_reorder_skips_permutation_entirely() {
        let a = gen::grid::poisson2d(6, 6);
        assert_eq!(Plan::baseline().reorder, Reordering::Original);
        let prepared = PreparedMatrix::prepare(&a, Plan::baseline(), 7, &ClusterConfig::default());
        assert!(prepared.row_map.is_none());
        assert_eq!(prepared.timings.total(), 0.0);
    }

    #[test]
    fn timings_are_recorded_for_preprocessing_plans() {
        let a = gen::mesh::tri_mesh(12, 12, true, 2);
        let cfg = ClusterConfig::default();
        let rcm = PreparedMatrix::prepare(
            &a,
            Plan::from_suggestion(Suggestion::Reorder(Reordering::Rcm)),
            7,
            &cfg,
        );
        assert!(rcm.timings.reorder_seconds > 0.0);
        // The order is reorder time; the cluster scan (which keeps no
        // clusters on a mesh) is cluster time.
        assert!(rcm.timings.cluster_seconds > 0.0 && rcm.sharing_factor().is_none());
        assert!(rcm.row_map.is_some());
        let hierarchical =
            PreparedMatrix::prepare(&a, Plan::from_suggestion(Suggestion::Hierarchical), 7, &cfg);
        assert_eq!(hierarchical.timings.reorder_seconds, 0.0);
        assert!(hierarchical.timings.cluster_seconds > 0.0);
        assert!(hierarchical.row_map.is_some());
    }
}
