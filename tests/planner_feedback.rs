//! Integration tests for the cost-model planner and its execution-feedback
//! loop: a planner given an adversarially *wrong* cost model must mislead
//! the first choice, and the feedback loop must recover by demoting the
//! mispredicted plan and locking onto the fastest candidate; the
//! calibration state must surface end to end (engine reports and service
//! reports).

use clusterwise_spgemm::engine::{OperandKey, PlanningPolicy, DEFAULT_CACHE_CAPACITY};
use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::sparse::gen;
use std::sync::Arc;

#[test]
fn feedback_converges_to_the_best_fixed_plan_on_a_skewed_matrix() {
    // A power-law matrix: heavy hubs, low row overlap — cluster-wise
    // computation has little to share here and the advisor knows it.
    let a = gen::rmat::rmat(9, 8, gen::rmat::RmatParams::default(), 7);

    // Adversarial cost model: cluster construction predicted free and
    // cluster-wise kernels predicted ~10× cheaper than they can be, so the
    // initial choice is cluster-wise — a misprediction the feedback loop
    // must correct from observed timings alone.
    let policy = PlanningPolicy { min_adapt_gain_seconds: 0.0, ..PlanningPolicy::default() };
    let mut planner = Planner::with_policy(3, policy);
    planner.cost.cluster_gain = 6.0;
    planner.cost.cluster_row_overhead = 0.0;
    planner.cost.variable_cluster_per_nnz = 0.0;
    planner.cost.hierarchical_cluster_per_nnz = 0.0;
    planner.cost.fixed_cluster_per_nnz = 0.0;

    // Engine level: the model misleads the first choice, and whatever
    // the loop runs, every round returns the serial oracle's bits.
    let oracle = spgemm_serial(&a, &a);
    let mut engine = Engine::new(planner.clone(), DEFAULT_CACHE_CAPACITY);
    let (c, first) = engine.multiply(&a, &a);
    assert!(
        first.plan.is_clusterwise(),
        "the adversarial model must mislead the initial choice ({})",
        first.plan.describe()
    );
    assert!(c.bits_eq(&oracle));
    for _ in 0..24 {
        let (c, rep) = engine.multiply(&a, &a);
        assert!(c.bits_eq(&oracle), "{}", rep.plan.describe());
    }

    // Convergence, on synthetic kernel seconds so no clock decides it:
    // the store is seeded with this planner's real ranking, the baseline
    // is the planted fastest plan, every other row-wise plan is ×2
    // slower and every cluster-wise plan ×3.
    let key = (OperandKey::of(&a), OutputShape::Full);
    let ranked = planner.plans_costed(&a, OutputShape::Full);
    let mut store = FeedbackStore::new();
    store.seed(key, ranked.iter().map(|r| (r.plan, r.estimate)).collect());
    assert_eq!(store.chosen_plan(&key), Some(first.plan), "the engine seeds the same ranking");
    let fastest = ranked.iter().map(|r| r.plan).find(|p| !p.has_preprocessing()).unwrap();
    let seconds = |plan: Plan| match plan {
        p if p == fastest => 1.0,
        p if p.is_clusterwise() => 3.0,
        _ => 2.0,
    };
    let mut replans = 0;
    for _ in 0..100 {
        let plan = store.chosen_plan(&key).unwrap();
        replans = store.record(key, plan, seconds(plan), &policy).unwrap().replans;
    }
    assert!(replans >= 1, "the misprediction must trigger at least one re-plan");
    assert_eq!(store.chosen_plan(&key), Some(fastest), "the lock lands on the fastest plan");

    // Locked: a hundred more observations of the same timings move nothing.
    for _ in 0..100 {
        let state = store.record(key, fastest, seconds(fastest), &policy).unwrap();
        assert!(!state.switched);
        assert_eq!(state.replans, replans);
    }
}

#[test]
fn execution_reports_surface_calibration_state() {
    let a = gen::grid::poisson2d(12, 12);
    let mut engine = Engine::default();
    let (_, first) = engine.multiply(&a, &a);
    let fb = first.feedback.expect("auto traffic must carry feedback state");
    assert_eq!(fb.executions, 1);
    assert!(fb.predicted_kernel_seconds > 0.0);
    assert!(fb.observed_kernel_seconds > 0.0);
    assert!(fb.candidates >= 2, "baseline plus at least one technique");
    assert!(!fb.switched);

    let (_, second) = engine.multiply(&a, &a);
    let fb2 = second.feedback.unwrap();
    assert_eq!(fb2.executions, 2);
    assert!(fb2.calibration > 0.0);
    assert!(second.summary().contains("fb x2"), "{}", second.summary());

    // The snapshot accessor agrees with the report.
    let key = (OperandKey::of(&a), OutputShape::Full);
    let state = engine.feedback_state(&key).unwrap();
    assert_eq!(state.executions, fb2.executions);
}

#[test]
fn forced_plans_outside_the_candidate_set_carry_no_feedback() {
    let a = gen::grid::poisson2d(10, 10);
    let mut engine = Engine::default();
    // Never seen via auto traffic and forced to an ablation pipeline: no
    // candidate set exists, so there is no calibration state to report.
    let plan = Plan { clustering: ClusteringStrategy::Fixed(3), ..Plan::baseline() };
    let (_, rep) = engine.multiply_planned(&a, &a, plan);
    assert!(rep.feedback.is_none());
    assert!(engine.feedback().is_empty());
}

#[test]
fn service_reports_surface_feedback_and_replan_counters() {
    let a = Arc::new(gen::grid::poisson2d(12, 12));
    // An explicit one-second adaptation noise floor: this tiny operand's
    // kernels are microseconds, so no observable gain can ever clear the
    // floor and the zero-replan assertion below is deterministic even
    // when a machine-load spike stretches one observation. (The default
    // floor expresses the same intent but is sized for production
    // kernels, which debug-mode timing jitter can overshoot.)
    let policy = PlanningPolicy { min_adapt_gain_seconds: 1.0, ..PlanningPolicy::default() };
    let service =
        SpgemmService::new(ServiceConfig { shards: 1, policy, ..ServiceConfig::default() });
    for i in 0..3u64 {
        let t = service.submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))).unwrap();
        let resp = t.wait().unwrap();
        let fb = resp.report.feedback().expect("auto request must carry feedback state");
        assert!(fb.executions > i, "observations accumulate on the shard engine");
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, 3);
    // Noise floor: microsecond kernels never clear a one-second gain bar.
    assert_eq!(stats.total_replans(), 0);
    assert_eq!(stats.shards[0].tracked_operands, 1);
    assert!(stats.summary().contains("replans"), "{}", stats.summary());
}
