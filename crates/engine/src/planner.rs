//! The planner: structural profile → cost-ranked, knob-tuned [`Plan`]s.
//!
//! Realizes the paper's §5 future-work item — "predict the best choice of
//! reordering combined with the best clustering scheme" — as a two-layer
//! pipeline: [`cw_reorder::advisor::advise_profiled`] supplies candidate
//! techniques with their structural-evidence `affinity`, and the
//! [`CostModel`] prices each resulting [`Plan`] (predicted preprocessing
//! and kernel seconds) so candidates can be ranked by *amortized* cost
//! under the caller's [`PlanningPolicy`] — expected reuse and an optional
//! preprocessing budget.
//!
//! The accumulator is not a planning choice: a [`Plan`] carries none, and
//! the kernel runs Dense wherever the dense arrays one worker holds fit in
//! 1 MiB at the width of the `B` it is handed, Hash otherwise
//! ([`cw_spgemm::AccumulatorKind::resolve`]). Which pipeline wins is
//! decided on reordering and clustering alone. Matrices too small to
//! amortize fork/join run serially.

use crate::cost::{CostEstimate, CostModel, OperandFeatures, PlanningPolicy};
use crate::plan::{OutputShape, Plan};
use cw_core::ClusterConfig;
use cw_reorder::advisor::{advise_profiled, Suggestion};
use cw_sparse::CsrMatrix;

/// Matrices with fewer rows than this run the serial kernel path: the
/// multiply finishes in microseconds and rayon fork/join would dominate.
pub const PARALLEL_ROW_THRESHOLD: usize = 512;

/// One cost-ranked candidate: the tuned plan, its predicted cost, and the
/// *why* — the advisor affinity that fed the prediction and a one-line
/// rationale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedPlan {
    /// The tuned, executable plan.
    pub plan: Plan,
    /// The cost model's prediction for this plan on this operand.
    pub estimate: CostEstimate,
    /// Advisor structural-evidence feature the estimate was built from
    /// (`0` for the baseline fallback).
    pub affinity: f64,
    /// One-line explanation of where this candidate came from.
    pub rationale: &'static str,
}

/// Turns matrices into executable [`Plan`]s, ranked by modeled cost.
#[derive(Debug, Clone)]
pub struct Planner {
    /// Seed for randomized reorderings (identical seeds ⇒ identical plans
    /// and identical prepared operands).
    pub seed: u64,
    /// Clustering parameters used by Variable/Hierarchical strategies.
    pub cluster: ClusterConfig,
    /// Amortization horizon, preprocessing budget, and feedback knobs.
    pub policy: PlanningPolicy,
    /// The analytic cost model pricing candidate plans.
    pub cost: CostModel,
}

impl Default for Planner {
    fn default() -> Self {
        Planner {
            seed: 0xC0FFEE,
            cluster: ClusterConfig::default(),
            policy: PlanningPolicy::default(),
            cost: CostModel::default(),
        }
    }
}

impl Planner {
    /// Planner with an explicit seed.
    pub fn with_seed(seed: u64) -> Planner {
        Planner { seed, ..Planner::default() }
    }

    /// Planner with an explicit seed and planning policy.
    pub fn with_policy(seed: u64, policy: PlanningPolicy) -> Planner {
        Planner { seed, policy, ..Planner::default() }
    }

    /// The best plan for `a`: the cheapest candidate by modeled amortized
    /// cost that fits the policy's preprocessing budget.
    pub fn plan(&self, a: &CsrMatrix) -> Plan {
        self.plans_costed(a, OutputShape::Full)[0].plan
    }

    /// Every candidate plan for `a` with its cost estimate, cheapest
    /// (amortized under the policy's expected reuse) first. Candidates
    /// whose predicted preprocessing exceeds the policy budget are ranked
    /// after every within-budget candidate — the budget-aware fall-through:
    /// callers trying candidates in order pay at most the budgeted
    /// preprocessing unless nothing fits. Never empty: the zero-prep
    /// baseline plan is always a candidate, so the budget can always be
    /// met. Candidates are deduplicated (advisor suggestions that tune to
    /// identical plans keep the highest-affinity instance).
    ///
    /// `shape` is stamped into every plan, so shaped cache entries and
    /// feedback candidates never collide with full-product ones. The
    /// estimates are the full product's: the cost model prices a shaped
    /// plan like the full one.
    pub fn plans_costed(&self, a: &CsrMatrix, shape: OutputShape) -> Vec<RankedPlan> {
        let advice = advise_profiled(a);
        let features = OperandFeatures::new(a, advice.profile);
        let mut out: Vec<RankedPlan> = Vec::with_capacity(advice.ranked.len() + 1);
        let mut push = |plan: Plan, affinity: f64, rationale: &'static str| {
            let plan = plan.with_shape(shape);
            if out.iter().any(|r| r.plan == plan) {
                return;
            }
            let estimate = self.cost.estimate(&features, &plan, affinity);
            out.push(RankedPlan { plan, estimate, affinity, rationale });
        };
        for r in &advice.ranked {
            let (plan, rationale) = self.candidate(a, r.suggestion);
            push(plan, r.affinity, rationale);
        }
        push(self.tune(a, Plan::baseline()), 0.0, "baseline row-wise Gustavson");

        let reuse = self.policy.expected_reuse;
        let budget = self.policy.prep_budget_seconds.unwrap_or(f64::INFINITY);
        out.sort_by(|x, y| {
            let over = |r: &RankedPlan| r.estimate.prep_seconds > budget;
            over(x)
                .cmp(&over(y))
                .then(x.estimate.amortized(reuse).total_cmp(&y.estimate.amortized(reuse)))
        });
        out
    }

    /// Tuned plan realizing one specific advisor [`Suggestion`] on `a`.
    /// Reordering suggestions degrade to the baseline for non-square
    /// matrices (the reordering study targets square operands).
    pub fn plan_for_suggestion(&self, a: &CsrMatrix, suggestion: Suggestion) -> Plan {
        self.candidate(a, suggestion).0
    }

    /// [`Planner::plan_for_suggestion`] plus the one-line reason the plan is
    /// a candidate ([`RankedPlan::rationale`]).
    fn candidate(&self, a: &CsrMatrix, suggestion: Suggestion) -> (Plan, &'static str) {
        if matches!(suggestion, Suggestion::Reorder(_)) && a.nrows != a.ncols {
            let why = "reordering suggested but operand is rectangular; baseline";
            return (self.tune(a, Plan::baseline()), why);
        }
        let why = match suggestion {
            Suggestion::Reorder(_) => "advisor: reorder rows, then row-wise SpGEMM",
            Suggestion::ClusterInPlace => {
                "advisor: rows already similar in order; cluster in place"
            }
            Suggestion::Hierarchical => "advisor: hierarchical clustering (reorders and clusters)",
            Suggestion::LeaveOriginal => "advisor: no technique predicted to pay off",
        };
        (self.tune(a, Plan::from_suggestion(suggestion)), why)
    }

    /// Sets the parallelism field from `a`'s size.
    fn tune(&self, a: &CsrMatrix, plan: Plan) -> Plan {
        Plan { parallel: a.nrows >= PARALLEL_ROW_THRESHOLD, ..plan }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ClusteringStrategy;
    use cw_reorder::advisor::profile;
    use cw_reorder::Reordering;
    use cw_sparse::gen;

    #[test]
    fn plans_ranked_is_never_empty_and_contains_the_baseline() {
        let a = gen::grid::poisson2d(12, 12);
        let ranked = Planner::default().plans_costed(&a, OutputShape::Full);
        assert!(!ranked.is_empty());
        assert!(
            ranked.iter().any(|r| !r.plan.has_preprocessing()),
            "the zero-prep baseline must always be a fall-through candidate"
        );
    }

    #[test]
    fn plans_costed_is_sorted_by_amortized_cost_within_budget_class() {
        let planner = Planner::default();
        for a in [
            gen::grid::poisson2d(16, 16),
            gen::mesh::tri_mesh(16, 16, true, 3),
            gen::banded::block_diagonal(128, (6, 8), 0.0, 1),
        ] {
            let ranked = planner.plans_costed(&a, OutputShape::Full);
            let reuse = planner.policy.expected_reuse;
            for w in ranked.windows(2) {
                assert!(
                    w[0].estimate.amortized(reuse) <= w[1].estimate.amortized(reuse) + 1e-15,
                    "ranking must ascend in amortized cost"
                );
            }
            // No duplicate pipelines in the candidate set.
            for (i, x) in ranked.iter().enumerate() {
                for y in &ranked[i + 1..] {
                    assert_ne!(x.plan, y.plan);
                }
            }
        }
    }

    #[test]
    fn zero_budget_falls_through_to_a_zero_prep_plan() {
        let mut planner = Planner::default();
        planner.policy.prep_budget_seconds = Some(0.0);
        // A scrambled mesh would otherwise plan a reordering, which has
        // nonzero predicted prep cost.
        let a = gen::mesh::tri_mesh(20, 20, true, 3);
        let plan = planner.plan(&a);
        assert_eq!(
            planner
                .cost
                .estimate(&crate::cost::OperandFeatures::new(&a, profile(&a)), &plan, 0.0)
                .prep_seconds,
            0.0,
            "zero budget must select a plan with zero predicted preprocessing: {}",
            plan.describe()
        );
    }

    #[test]
    fn one_shot_policy_avoids_heavy_preprocessing() {
        let mut planner = Planner { policy: PlanningPolicy::one_shot(), ..Planner::default() };
        let a = gen::mesh::tri_mesh(20, 20, true, 3);
        let one_shot = planner.plan(&a);
        planner.policy.expected_reuse = 1000.0;
        let heavy_reuse_rank = planner.plans_costed(&a, OutputShape::Full);
        // Under massive reuse the top choice amortizes at pure kernel cost,
        // so its kernel estimate can't exceed the one-shot pick's.
        assert!(
            heavy_reuse_rank[0].estimate.kernel_seconds
                <= planner
                    .cost
                    .estimate(&crate::cost::OperandFeatures::new(&a, profile(&a)), &one_shot, 0.0)
                    .kernel_seconds
                    + 1e-15
        );
    }

    #[test]
    fn small_matrices_plan_serial_kernels() {
        let a = gen::grid::poisson2d(8, 8); // 64 rows
        let plan = Planner::default().plan(&a);
        assert!(!plan.parallel);
    }

    #[test]
    fn large_matrices_plan_parallel_kernels() {
        let a = gen::grid::poisson2d(40, 40); // 1600 rows
        let plan = Planner::default().plan(&a);
        assert!(plan.parallel);
    }

    #[test]
    fn rectangular_matrices_never_plan_reordering() {
        let a = gen::er::erdos_renyi_rect(300, 40, 4, 2);
        let planner = Planner::default();
        for s in [Suggestion::Reorder(Reordering::Rcm), Suggestion::Reorder(Reordering::Degree)] {
            let plan = planner.plan_for_suggestion(&a, s);
            assert_eq!(plan.reorder, Reordering::Original);
        }
    }

    #[test]
    fn grouped_rows_plan_cluster_in_place() {
        let a = gen::banded::block_diagonal(128, (6, 8), 0.0, 1);
        let plan = Planner::default().plan(&a);
        assert_eq!(plan.clustering, ClusteringStrategy::Variable);
        assert!(plan.is_clusterwise());
    }

    #[test]
    fn planner_is_deterministic() {
        let a = gen::mesh::tri_mesh(16, 16, true, 3);
        let p1 = Planner::default().plan(&a);
        let p2 = Planner::default().plan(&a);
        assert_eq!(p1, p2);
    }
}
