//! The planner: structural profile → the advisor's candidate [`Plan`]s, in
//! its order, admitted on their preparation price.
//!
//! Realizes the paper's §5 future-work item — "predict the best choice of
//! reordering combined with the best clustering scheme" — as an order plus
//! a measurement: [`cw_reorder::advisor::advise_profiled`] supplies the
//! candidate techniques best first, one per-nonzero price per row-order
//! class (`crate::cost`) prices what each plan adds before its first
//! multiply, and the caller's [`PlanningPolicy`]
//! admits the plans whose preparation the expected reuse can carry. Which
//! admitted plan's kernel is fastest is not predicted: the engine's
//! [`crate::FeedbackStore`] races them.
//!
//! The accumulator is not a planning choice: a [`Plan`] carries none, and
//! the kernel runs Dense wherever the dense arrays one worker holds fit in
//! 1 MiB at the width of the `B` it is handed, Hash otherwise
//! ([`cw_spgemm::AccumulatorKind::resolve`]). Matrices too small to
//! amortize fork/join run serially.

use crate::cost::{op_seconds, prep_seconds, PlanningPolicy};
use crate::plan::{OutputShape, Plan};
use cw_reorder::advisor::{advise_profiled, Suggestion};
use cw_sparse::CsrMatrix;

/// Matrices with fewer rows than this run the serial kernel path: the
/// multiply finishes in microseconds and rayon fork/join would dominate.
pub const PARALLEL_ROW_THRESHOLD: usize = 512;

/// One candidate: the tuned plan, its predicted preparation, and the
/// *why* behind its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedPlan {
    /// The tuned, executable plan.
    pub plan: Plan,
    /// Predicted one-off preparation seconds (its row order) of this plan
    /// on this operand.
    pub prep_seconds: f64,
    /// The advisor rule that ranked it
    /// ([`cw_reorder::advisor::RankedSuggestion::why`]), or the baseline's
    /// own line.
    pub rationale: &'static str,
}

/// Turns matrices into executable [`Plan`]s in the advisor's order.
#[derive(Debug, Clone)]
pub struct Planner {
    /// Seed for randomized reorderings (identical seeds ⇒ identical plans
    /// and identical prepared operands).
    pub seed: u64,
    /// Reuse horizon and whether to race.
    pub policy: PlanningPolicy,
}

impl Default for Planner {
    fn default() -> Self {
        Planner { seed: 0xC0FFEE, policy: PlanningPolicy::default() }
    }
}

impl Planner {
    /// Planner with an explicit seed.
    pub fn with_seed(seed: u64) -> Planner {
        Planner { seed, ..Planner::default() }
    }

    /// Planner with an explicit seed and planning policy.
    pub fn with_policy(seed: u64, policy: PlanningPolicy) -> Planner {
        Planner { seed, policy }
    }

    /// The first plan for `a`: the advisor's best admitted candidate.
    pub fn plan(&self, a: &CsrMatrix) -> Plan {
        self.plans_costed(a, OutputShape::Full)[0].plan
    }

    /// The admitted candidate plans for `a`, in the advisor's order with
    /// the baseline last. A candidate is admitted when its predicted
    /// preparation is at most `expected_reuse × t × ½` for the predicted
    /// multiply `t` ([`PlanningPolicy::admits`]).
    /// Never empty: the baseline prepares nothing, so it is always
    /// admitted. Candidates are deduplicated (advisor suggestions that tune
    /// to identical plans keep the first instance).
    ///
    /// `shape` is stamped into every plan, so shaped cache entries and
    /// races never collide with full-product ones.
    pub fn plans_costed(&self, a: &CsrMatrix, shape: OutputShape) -> Vec<RankedPlan> {
        let (all, op_seconds) = self.candidates(a, shape);
        all.into_iter().filter(|r| self.policy.admits(r.prep_seconds, op_seconds)).collect()
    }

    /// What the engine seeds a race with: rank 0 — the first candidate
    /// [`Planner::plans_costed`] admits — then every other candidate in
    /// order with its predicted preparation. The race admits challengers
    /// again on the measured multiply, which may let in one the predicted
    /// multiply kept out.
    pub(crate) fn race_seed(&self, a: &CsrMatrix, shape: OutputShape) -> Vec<(Plan, f64)> {
        let (all, op_seconds) = self.candidates(a, shape);
        let mut seed: Vec<(Plan, f64)> = all.iter().map(|r| (r.plan, r.prep_seconds)).collect();
        let rank0 = all.iter().position(|r| self.policy.admits(r.prep_seconds, op_seconds));
        seed[..=rank0.expect("the baseline is always admitted")].rotate_right(1);
        seed
    }

    /// Every candidate for `a` in the advisor's order with the baseline
    /// last, and the predicted seconds of one multiply.
    fn candidates(&self, a: &CsrMatrix, shape: OutputShape) -> (Vec<RankedPlan>, f64) {
        let advice = advise_profiled(a);
        let baseline = self.tune(a, Plan::baseline()).with_shape(shape);
        let mut out: Vec<RankedPlan> = Vec::with_capacity(advice.ranked.len() + 1);
        for r in &advice.ranked {
            let plan = self.plan_for_suggestion(a, r.suggestion).with_shape(shape);
            if plan != baseline && out.iter().all(|x| x.plan != plan) {
                let prep_seconds = prep_seconds(&plan, a.nnz());
                out.push(RankedPlan { plan, prep_seconds, rationale: r.why });
            }
        }
        let rationale = "baseline row-wise Gustavson";
        out.push(RankedPlan { plan: baseline, prep_seconds: 0.0, rationale });
        (out, op_seconds(a.nnz(), advice.profile.avg_row_nnz))
    }

    /// Tuned plan realizing one specific advisor [`Suggestion`] on `a`.
    /// Reordering suggestions degrade to the baseline for non-square
    /// matrices (the reordering study targets square operands); a
    /// Hierarchical one orders a rectangular matrix's rows too.
    pub fn plan_for_suggestion(&self, a: &CsrMatrix, suggestion: Suggestion) -> Plan {
        if matches!(suggestion, Suggestion::Reorder(_)) && a.nrows != a.ncols {
            return self.tune(a, Plan::baseline());
        }
        self.tune(a, Plan::from_suggestion(suggestion))
    }

    /// Sets the parallelism field from `a`'s size.
    fn tune(&self, a: &CsrMatrix, plan: Plan) -> Plan {
        Plan { parallel: a.nrows >= PARALLEL_ROW_THRESHOLD, ..plan }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::RACE_SAMPLES;
    use cw_reorder::advisor::advise;
    use cw_reorder::Reordering;
    use cw_sparse::gen;

    fn corpus() -> Vec<CsrMatrix> {
        vec![
            gen::grid::poisson2d(16, 16),
            gen::mesh::tri_mesh(16, 16, true, 3),
            gen::mesh::tri_mesh(40, 40, true, 3),
            gen::banded::block_diagonal(128, (6, 8), 0.0, 1),
            gen::rmat::rmat(8, 6, gen::rmat::RmatParams::default(), 4),
            gen::er::erdos_renyi(300, 6, 2),
        ]
    }

    #[test]
    fn candidates_follow_the_advisor_with_the_baseline_last() {
        let planner = Planner {
            policy: PlanningPolicy { expected_reuse: 1e12, ..PlanningPolicy::default() },
            ..Planner::default()
        };
        for a in corpus() {
            let ranked = planner.plans_costed(&a, OutputShape::Full);
            let baseline = planner.tune(&a, Plan::baseline());
            let mut expect = Vec::new();
            for plan in advise(&a).into_iter().map(|s| planner.plan_for_suggestion(&a, s)) {
                if plan != baseline && !expect.contains(&plan) {
                    expect.push(plan);
                }
            }
            expect.push(baseline);
            assert_eq!(ranked.iter().map(|r| r.plan).collect::<Vec<_>>(), expect);
        }
    }

    #[test]
    fn plans_ranked_is_never_empty_and_contains_the_baseline() {
        let a = gen::grid::poisson2d(12, 12);
        let ranked = Planner::default().plans_costed(&a, OutputShape::Full);
        assert!(!ranked.is_empty());
        assert!(
            ranked.iter().any(|r| !r.plan.has_preprocessing()),
            "the zero-prep baseline must always be admitted"
        );
    }

    #[test]
    fn admission_keeps_what_the_reuse_can_carry() {
        for policy in [
            PlanningPolicy::default(),
            PlanningPolicy { expected_reuse: 1.0, ..PlanningPolicy::default() },
        ] {
            let planner = Planner { policy, ..Planner::default() };
            for a in corpus() {
                let op = op_seconds(a.nnz(), cw_reorder::advisor::profile(&a).avg_row_nnz);
                let ranked = planner.plans_costed(&a, OutputShape::Full);
                assert!(ranked.iter().all(|r| r.prep_seconds <= policy.expected_reuse * op * 0.5));
                assert!(!ranked.last().unwrap().plan.has_preprocessing());
            }
        }
    }

    #[test]
    fn zero_budget_falls_through_to_a_zero_prep_plan() {
        let mut planner = Planner::default();
        planner.policy.expected_reuse = 0.0;
        // A scrambled mesh would otherwise plan a reordering first.
        let a = gen::mesh::tri_mesh(20, 20, true, 3);
        let ranked = planner.plans_costed(&a, OutputShape::Full);
        assert_eq!(ranked.len(), 1);
        assert!(!ranked[0].plan.has_preprocessing(), "{}", ranked[0].plan.describe());
    }

    #[test]
    fn one_shot_policy_avoids_heavy_preprocessing() {
        let a = gen::mesh::tri_mesh(20, 20, true, 3);
        assert_eq!(Planner::default().plan(&a).reorder, Reordering::Rcm);
        let one_shot = Planner {
            policy: PlanningPolicy { expected_reuse: 1.0, ..PlanningPolicy::default() },
            ..Planner::default()
        };
        assert!(!one_shot.plan(&a).has_preprocessing());
    }

    #[test]
    fn the_race_seed_starts_with_rank_zero_and_keeps_every_candidate() {
        let a = gen::mesh::tri_mesh(20, 20, true, 3);
        let planner = Planner {
            policy: PlanningPolicy { expected_reuse: 1.0, ..PlanningPolicy::default() },
            ..Planner::default()
        };
        let seed = planner.race_seed(&a, OutputShape::Full);
        assert_eq!(seed[0].0, planner.plan(&a), "rank 0 runs first");
        let (all, _) = planner.candidates(&a, OutputShape::Full);
        assert_eq!(seed.len(), all.len(), "challengers are admitted again on t₀");
        assert!(all.iter().all(|r| seed.contains(&(r.plan, r.prep_seconds))));
    }

    fn shuffled(natural: CsrMatrix) -> CsrMatrix {
        cw_reorder::random_permutation(natural.nrows, 2).permute_symmetric(&natural)
    }

    #[test]
    fn a_ten_ms_mesh_race_admits_rcm_but_no_gp() {
        // The benchmark's `cluster-mesh` operand (344 k nonzeros), where GP
        // prepares in ≈ 1.2 s: 16 reuses of a 10 ms multiply carry 80 ms.
        // Hierarchical (priced ≈ 55 ms) would fit, but the advisor leaves it
        // out of a scattered mesh's race: RCM and the preparation's cluster
        // scan already find its clusters at a fraction of its price.
        use crate::cache::OperandKey;
        use crate::cost::FeedbackStore;
        let a = shuffled(gen::mesh::tri_mesh(240, 240, false, 1));
        let planner = Planner::default();
        let seed = planner.race_seed(&a, OutputShape::Full);
        assert!(seed.iter().any(|(p, _)| matches!(p.reorder, Reordering::Gp(_))), "{seed:?}");
        assert!(seed.iter().all(|(p, _)| p.reorder != Reordering::Hierarchical), "{seed:?}");
        let key = (OperandKey::of(&a), OutputShape::Full);
        let mut store = FeedbackStore::new();
        store.seed(key, seed);
        let mut ran = Vec::new();
        while !store.state(&key).unwrap().locked {
            let plan = store.chosen_plan(&key).unwrap();
            ran.push(plan.reorder);
            store.record(key, plan, 0.010, &planner.policy);
        }
        assert_eq!(ran[0], Reordering::Rcm);
        assert!(ran.len() > RACE_SAMPLES, "a race ran: {ran:?}");
        assert!(!ran.iter().any(|r| matches!(r, Reordering::Gp(_))), "{ran:?}");
        assert!(!ran.contains(&Reordering::Hierarchical), "{ran:?}");
    }

    #[test]
    fn the_benchmark_meshes_and_blocks_keep_rcm_at_rank_zero() {
        // `service-small`'s operand under the default planner, and
        // `wire-large`'s under the frozen one.
        let mesh = shuffled(gen::mesh::tri_mesh(20, 20, false, 1));
        assert_eq!(Planner::default().plan(&mesh).reorder, Reordering::Rcm);
        let blocks = shuffled(gen::banded::block_diagonal(40_000, (6, 10), 0.02, 1));
        let frozen = Planner::with_policy(0, PlanningPolicy::frozen());
        assert_eq!(frozen.plan(&blocks).reorder, Reordering::Rcm);
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
    fn planner_is_deterministic() {
        let a = gen::mesh::tri_mesh(16, 16, true, 3);
        let p1 = Planner::default().plan(&a);
        let p2 = Planner::default().plan(&a);
        assert_eq!(p1, p2);
    }
}
