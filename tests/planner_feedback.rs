//! Integration tests for plan selection: the planner's admitted order and
//! the race that replaces its first pick only on measurement. Every race
//! here runs on synthetic kernel seconds fed through
//! `FeedbackStore::{seed, record, chosen_plan}`, so no clock decides an
//! outcome; the engine and service doors are checked for what they
//! surface, under the frozen policy wherever a debug-build kernel could
//! pass the race's 1 ms floor.

use clusterwise_spgemm::engine::{
    OperandKey, PlanningPolicy, Suggestion, DEFAULT_CACHE_CAPACITY, DEFAULT_FEEDBACK_CAPACITY,
    MIN_RACE_SECONDS, RACE_SAMPLES,
};
use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::reorder::advisor::advise;
use clusterwise_spgemm::sparse::gen;
use std::sync::Arc;

fn frozen_engine() -> Engine {
    Engine::new(Planner::with_policy(0, PlanningPolicy::frozen()), DEFAULT_CACHE_CAPACITY)
}

/// Feeds the store `ops` records of whatever plan it chooses, each taking
/// `seconds(plan)`; returns the 1-based record after which it was locked.
fn race(
    store: &mut FeedbackStore,
    key: (OperandKey, OutputShape),
    ops: usize,
    seconds: &dyn Fn(Plan) -> f64,
) -> Option<usize> {
    let policy = PlanningPolicy::default();
    let mut locked_at = None;
    for op in 1..=ops {
        let plan = store.chosen_plan(&key).unwrap();
        let state = store.record(key, plan, seconds(plan), &policy).unwrap();
        if state.locked {
            locked_at = locked_at.or(Some(op));
        }
    }
    locked_at
}

#[test]
fn feedback_converges_to_the_best_fixed_plan_on_a_skewed_matrix() {
    // The advisor's candidates on a power-law matrix, every one admitted
    // (seeded with no preparation price), with a planted fastest plan in
    // each position: the race locks it within R·m records (rank 0's two
    // `t₀` runs count toward its R), then never switches.
    let a = gen::rmat::rmat(9, 8, gen::rmat::RmatParams::default(), 7);
    let planner = Planner::with_seed(0);
    let mut plans: Vec<Plan> = Vec::new();
    for s in advise(&a).into_iter().chain([Suggestion::LeaveOriginal]) {
        let plan = planner.plan_for_suggestion(&a, s);
        if !plans.contains(&plan) {
            plans.push(plan);
        }
    }
    let m = plans.len().min(4);
    assert!(m >= 2, "the operand must give the race something to do");
    let key = (OperandKey::of(&a), OutputShape::Full);
    for fastest in 0..m {
        let winner = plans[fastest];
        let seconds = |p: Plan| if p == winner { 0.004 } else { 0.012 };
        let mut store = FeedbackStore::new();
        store.seed(key, plans.iter().map(|&p| (p, 0.0)).collect());
        let locked_at = race(&mut store, key, RACE_SAMPLES * m, &seconds);
        assert!(locked_at.is_some_and(|op| op <= RACE_SAMPLES * m), "{locked_at:?}");
        assert_eq!(store.chosen_plan(&key), Some(winner), "the lock lands on the fastest");
        let replans = u64::from(fastest != 0);
        assert_eq!(store.total_replans(), replans);
        // Locked: a thousand more records, the lock's timing reversed, move
        // nothing.
        for _ in 0..1000 {
            let plan = store.chosen_plan(&key).unwrap();
            let state = store.record(key, plan, 1.0, &PlanningPolicy::default()).unwrap();
            assert!(!state.switched && state.locked);
            assert_eq!(state.replans, replans);
        }
        assert_eq!(store.chosen_plan(&key), Some(winner));
    }
}

#[test]
fn t0_below_the_floor_locks_rank_zero_at_op_one() {
    let a = gen::mesh::tri_mesh(24, 24, true, 5);
    let key = (OperandKey::of(&a), OutputShape::Full);
    let ranked = Planner::default().plans_costed(&a, OutputShape::Full);
    let mut store = FeedbackStore::new();
    store.seed(key, ranked.iter().map(|r| (r.plan, r.prep_seconds)).collect());
    let t0 = MIN_RACE_SECONDS / 2.0;
    let state = store.record(key, ranked[0].plan, t0, &PlanningPolicy::default()).unwrap();
    assert!(state.locked && !state.switched);
    assert_eq!(store.chosen_plan(&key), Some(ranked[0].plan));
}

#[test]
fn a_slow_first_run_alone_does_not_start_a_race() {
    // A freshly prepared operand's first run reads ×2–3 its warm time (the
    // `engine_pipeline` mesh: 1.8 ms, then 0.6 ms warm). `t₀` is the faster
    // of rank 0's first two runs, so that operand locks rank 0 at op 2
    // without running a challenger.
    let a = gen::mesh::tri_mesh(24, 24, true, 5);
    let key = (OperandKey::of(&a), OutputShape::Full);
    let ranked = Planner::default().plans_costed(&a, OutputShape::Full);
    assert!(ranked.len() >= 2, "the operand must give the race something to do");
    let mut store = FeedbackStore::new();
    store.seed(key, ranked.iter().map(|r| (r.plan, r.prep_seconds)).collect());
    let policy = PlanningPolicy::default();
    let first = store.record(key, ranked[0].plan, 1.8e-3, &policy).unwrap();
    assert!(!first.locked, "a first run past the floor waits for a second");
    assert_eq!(store.chosen_plan(&key), Some(ranked[0].plan), "rank 0 runs again");
    let second = store.record(key, ranked[0].plan, 0.6e-3, &policy).unwrap();
    assert!(second.locked && !second.switched);
    assert_eq!((second.executions, second.candidates), (2, 1));
    assert_eq!(store.chosen_plan(&key), Some(ranked[0].plan));
}

#[test]
fn two_slow_first_runs_start_the_race() {
    let a = gen::mesh::tri_mesh(24, 24, true, 5);
    let key = (OperandKey::of(&a), OutputShape::Full);
    let ranked = Planner::default().plans_costed(&a, OutputShape::Full);
    let mut store = FeedbackStore::new();
    store.seed(key, ranked.iter().map(|r| (r.plan, r.prep_seconds)).collect());
    let policy = PlanningPolicy::default();
    for seconds in [1.8e-3, 1.5e-3] {
        assert!(!store.record(key, ranked[0].plan, seconds, &policy).unwrap().locked);
    }
    let state = store.state(&key).unwrap();
    assert!(state.candidates >= 2, "t₀ = 1.5 ms admits a challenger");
    assert_eq!(store.chosen_plan(&key), Some(ranked[1].plan), "the first challenger runs next");
}

#[test]
fn the_frozen_policy_never_races() {
    let a = gen::mesh::tri_mesh(24, 24, true, 5);
    let key = (OperandKey::of(&a), OutputShape::Full);
    let ranked = Planner::default().plans_costed(&a, OutputShape::Full);
    assert!(ranked.len() >= 2);
    let mut store = FeedbackStore::new();
    store.seed(key, ranked.iter().map(|r| (r.plan, r.prep_seconds)).collect());
    for _ in 0..10 {
        let state = store.record(key, ranked[0].plan, 10.0, &PlanningPolicy::frozen()).unwrap();
        assert!(state.locked && !state.switched);
        assert_eq!(store.chosen_plan(&key), Some(ranked[0].plan));
    }
}

#[test]
fn admission_on_t0_rejects_a_challenger_whose_prep_would_not_pay() {
    let a = gen::grid::poisson2d(12, 12);
    let key = (OperandKey::of(&a), OutputShape::Full);
    let rank0 = Plan::baseline();
    let challenger = Plan { reorder: Reordering::Rcm, ..Plan::baseline() };
    let policy = PlanningPolicy::default();
    let t0 = 0.010;
    // Half of the 16 multiplies a prepared operand is expected to serve.
    let bound = 16.0 * t0 * 0.5;
    for (prep, races) in [(bound * 1.01, false), (bound * 0.99, true)] {
        let mut store = FeedbackStore::new();
        store.seed(key, vec![(rank0, 0.0), (challenger, prep)]);
        let state = store.record(key, rank0, t0, &policy).unwrap();
        assert_eq!(state.locked, !races, "prep {prep} against a bound of {bound}");
        if races {
            // Rank 0's second run makes `t₀`.
            assert_eq!(store.chosen_plan(&key), Some(rank0));
            assert!(!store.record(key, rank0, t0, &policy).unwrap().locked);
        }
        let next = if races { challenger } else { rank0 };
        assert_eq!(store.chosen_plan(&key), Some(next));
    }
}

#[test]
fn forced_plans_outside_the_candidate_set_carry_no_feedback() {
    let a = gen::grid::poisson2d(10, 10);
    let mut engine = Engine::default();
    let plan = Plan { reorder: Reordering::Random, ..Plan::baseline() };
    let (_, rep) = engine.multiply_planned(&a, &a, plan);
    assert!(rep.feedback.is_none());
    // Not even the planner's own first pick, forced, touches the store.
    let first = engine.planner().plan(&a);
    let (_, rep) = engine.multiply_planned(&a, &a, first);
    assert!(rep.feedback.is_none());
    assert!(engine.feedback().is_empty());
}

#[test]
fn capacity_eviction_and_engine_reset_forget_locks() {
    let a = gen::grid::poisson2d(12, 12);
    let key = |m: &CsrMatrix| (OperandKey::of(m), OutputShape::Full);
    // Operands the store only needs keys for: distinct per `i`.
    let fabricated = |i: u64| {
        let fingerprint = clusterwise_spgemm::sparse::MatrixFingerprint {
            nrows: 1,
            ncols: 1,
            nnz: 0,
            structure_hash: i,
        };
        (OperandKey { fingerprint, checksum: i }, OutputShape::Full)
    };

    // A full store: seeding one more operand evicts the stalest one's
    // lock, and that operand's next sighting races again from rank 0.
    let (rank0, other) = (Plan::baseline(), Plan { reorder: Reordering::Rcm, ..Plan::baseline() });
    let mut store = FeedbackStore::new();
    store.seed(key(&a), vec![(rank0, 0.0), (other, 0.0)]);
    race(&mut store, key(&a), 2 * RACE_SAMPLES, &|p| if p == other { 0.002 } else { 0.004 });
    assert_eq!(store.chosen_plan(&key(&a)), Some(other));
    for i in 0..DEFAULT_FEEDBACK_CAPACITY as u64 {
        store.seed(fabricated(i), vec![(rank0, 0.0)]);
    }
    assert_eq!(store.len(), DEFAULT_FEEDBACK_CAPACITY);
    assert!(store.chosen_plan(&key(&a)).is_none(), "evicted with its lock");
    store.seed(key(&a), vec![(rank0, 0.0), (other, 0.0)]);
    assert_eq!(store.chosen_plan(&key(&a)), Some(rank0));

    // Engine::reset forgets a lock; clear_cache keeps it.
    let mut engine = frozen_engine();
    let (_, first) = engine.multiply(&a, &a);
    assert!(first.feedback.is_some_and(|f| f.locked && f.executions == 1));
    engine.clear_cache();
    assert!(engine.feedback().state(&key(&a)).is_some_and(|f| f.locked));
    engine.reset();
    assert!(engine.feedback().state(&key(&a)).is_none() && engine.feedback().is_empty());
    let (_, again) = engine.multiply(&a, &a);
    assert!(again.feedback.is_some_and(|f| f.executions == 1), "a fresh entry");
}

#[test]
fn execution_reports_surface_the_race_state() {
    let a = gen::grid::poisson2d(12, 12);
    let mut engine = frozen_engine();
    let key = (OperandKey::of(&a), OutputShape::Full);
    let (prepared, timings, hit) = engine.prepare_with_shape(&a, None, OutputShape::Full);
    let seeded = engine.feedback().state(&key).expect("the first sighting seeds a race");
    assert!(seeded.candidates >= 2, "baseline plus at least one technique");
    assert!(!seeded.locked && seeded.executions == 0);
    let (_, first) = engine.execute_prepared_shaped(&prepared, &a, None, timings, hit);
    let fb = first.feedback.expect("auto traffic must carry feedback state");
    assert_eq!(fb.executions, 1);
    assert_eq!(fb.candidates, 1, "frozen: t₀ keeps rank 0 alone");
    assert!(fb.locked && !fb.switched);

    let (_, second) = engine.multiply(&a, &a);
    let fb2 = second.feedback.unwrap();
    assert_eq!(fb2.executions, 2);
    assert!(second.summary().contains("fb x2 locked"), "{}", second.summary());

    // The snapshot accessor agrees with the report.
    let state = engine.feedback().state(&key).unwrap();
    assert_eq!(state.executions, fb2.executions);
}

#[test]
fn service_reports_surface_feedback_and_replan_counters() {
    let a = Arc::new(gen::grid::poisson2d(12, 12));
    // Frozen: every operand's first pick is locked at its first run, so
    // zero replans holds whatever the kernel's wall clock reads.
    let policy = PlanningPolicy::frozen();
    let service =
        SpgemmService::new(ServiceConfig { shards: 1, policy, ..ServiceConfig::default() });
    for i in 0..3u64 {
        let t = service.submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))).unwrap();
        let resp = t.wait().unwrap();
        let fb = resp.report.feedback().expect("auto request must carry feedback state");
        assert_eq!(fb.executions, i + 1, "runs accumulate on the shard engine");
        assert!(fb.locked && !resp.report.replanned());
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.total_replans(), 0);
    assert_eq!(stats.shards[0].tracked_operands, 1);
    assert!(stats.summary().contains("replans"), "{}", stats.summary());
}
