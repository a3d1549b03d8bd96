//! Integration tests for the cost-model planner and its execution-feedback
//! loop: an engine given an adversarially *wrong* cost model must recover
//! by demoting the mispredicted plan and converging on the empirically
//! fastest candidate, and the calibration state must surface end to end
//! (engine reports and service reports).

use clusterwise_spgemm::engine::{PlanningPolicy, DEFAULT_CACHE_CAPACITY};
use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::sparse::gen;
use std::sync::Arc;
use std::time::Instant;

/// Warm per-call seconds of `plan` on `a` (median of 3; preparation cached
/// before timing starts).
fn warm_seconds(engine: &mut Engine, a: &CsrMatrix, plan: Plan) -> f64 {
    let _ = engine.multiply_planned(a, a, plan);
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let _ = engine.multiply_planned(a, a, plan);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

#[test]
fn feedback_converges_to_the_best_fixed_plan_on_a_skewed_matrix() {
    // A power-law matrix: heavy hubs, low row overlap — cluster-wise
    // computation has little to share here and the advisor knows it.
    let a = gen::rmat::rmat(9, 8, gen::rmat::RmatParams::default(), 7);

    // Adversarial cost model: cluster construction predicted free and
    // cluster-wise kernels predicted ~10× cheaper than they can be, so the
    // initial choice is hierarchical cluster-wise — a misprediction the
    // feedback loop must correct from observed timings alone.
    let policy = PlanningPolicy { min_adapt_gain_seconds: 0.0, ..PlanningPolicy::default() };
    let mut planner = clusterwise_spgemm::engine::Planner::with_policy(3, policy);
    planner.cost.cluster_gain = 6.0;
    planner.cost.cluster_row_overhead = 0.0;
    planner.cost.variable_cluster_per_nnz = 0.0;
    planner.cost.hierarchical_cluster_per_nnz = 0.0;
    planner.cost.fixed_cluster_per_nnz = 0.0;

    // Convergence is driven by *observed* kernel timings, so on a loaded
    // (or deliberately oversubscribed, e.g. RAYON_NUM_THREADS=2 on one
    // CPU) machine a run can park on a candidate whose in-loop timings
    // beat its fresh re-measurement; best of 3 attempts, like the
    // calibration acceptance tests. The structural invariants — misled
    // first choice, at least one re-plan, numeric equality — must hold on
    // every attempt; a genuinely broken feedback loop also misses the
    // timing bar on all three.
    let mut last_violation = String::new();
    for _attempt in 0..3 {
        let mut engine = Engine::new(planner.clone(), DEFAULT_CACHE_CAPACITY);
        let (_, first) = engine.multiply(&a, &a);
        assert!(
            first.plan.is_clusterwise(),
            "the adversarial model must mislead the initial choice ({})",
            first.plan.describe()
        );

        // Repeated traffic: every round records an observation;
        // mispredicted plans get demoted once they have enough samples.
        let mut last = first;
        for _ in 0..24 {
            let (c, rep) = engine.multiply(&a, &a);
            assert!(c.numerically_eq(&clusterwise_spgemm::spgemm::spgemm_serial(&a, &a), 1e-9));
            last = rep;
        }
        let fb = last.feedback.expect("auto traffic carries feedback state");
        assert!(fb.replans >= 1, "the misprediction must trigger at least one re-plan");

        let key = (clusterwise_spgemm::engine::OperandKey::of(&a), OutputShape::Full);
        let converged = engine.feedback().chosen_plan(&key).expect("operand is tracked");

        // Measure every candidate under identical warm-cache conditions;
        // the converged choice must be competitive with the empirically
        // best fixed plan (the generous factor absorbs timer noise — a
        // wrong convergence would miss by integer multiples).
        let mut meter = Engine::new(
            clusterwise_spgemm::engine::Planner::with_policy(3, PlanningPolicy::frozen()),
            DEFAULT_CACHE_CAPACITY,
        );
        let best_fixed = planner
            .plans_costed(&a, OutputShape::Full)
            .into_iter()
            .map(|r| warm_seconds(&mut meter, &a, r.plan))
            .fold(f64::INFINITY, f64::min);
        let converged_s = warm_seconds(&mut meter, &a, converged);
        if converged_s <= best_fixed * 1.5 {
            return;
        }
        last_violation = format!(
            "converged plan {} runs {converged_s:.6}s vs best fixed {best_fixed:.6}s",
            converged.describe()
        );
    }
    panic!("feedback missed the timing bar on all 3 attempts; last: {last_violation}");
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
    let key = (clusterwise_spgemm::engine::OperandKey::of(&a), OutputShape::Full);
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
