//! Cross-validation of the `cw-engine` subsystem against the row-wise
//! baseline: for every advisor suggestion branch — Reorder (all ten
//! algorithms), Hierarchical, LeaveOriginal — over the
//! synthetic generator families, `Engine` output must be numerically
//! identical (per `CsrMatrix::numerically_eq`, same pattern, values within
//! float tolerance) to `spgemm::rowwise`.

use clusterwise_spgemm::engine::{Suggestion, DEFAULT_CACHE_CAPACITY};
use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::sparse::gen;

/// The generator corpus exercising every structural family the advisor's
/// decision surface branches on.
fn corpus() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("scrambled_mesh", gen::mesh::tri_mesh(14, 14, true, 3)),
        ("poisson2d", gen::grid::poisson2d(14, 14)),
        ("block_diagonal", gen::banded::block_diagonal(96, (4, 8), 0.1, 5)),
        ("grouped_rows", gen::banded::grouped_rows(90, 5, 6, 2)),
        ("rmat_powerlaw", gen::rmat::rmat(7, 6, gen::rmat::RmatParams::default(), 4)),
        ("erdos_renyi", gen::er::erdos_renyi(120, 5, 9)),
        ("road", gen::road::road(10, 10, 0.9, 4, 6)),
        ("kkt", gen::kkt::kkt(70, 20, 2, 3, 8)),
    ]
}

fn assert_engine_matches_baseline(name: &str, a: &CsrMatrix, suggestion: Suggestion) {
    let mut engine = Engine::default();
    let plan = engine.planner().plan_for_suggestion(a, suggestion);
    let (got, report) = engine.multiply_planned(a, a, plan);
    let expect = clusterwise_spgemm::spgemm::rowwise::spgemm_serial(a, a);
    assert!(
        got.numerically_eq(&expect, 1e-9),
        "{name}: engine output diverges from row-wise baseline under {suggestion:?} ({})",
        report.plan.describe(),
    );
    assert_eq!(report.output_nnz, expect.nnz(), "{name}: nnz mismatch");
}

#[test]
fn leave_original_branch_matches_rowwise_everywhere() {
    for (name, a) in corpus() {
        assert_engine_matches_baseline(name, &a, Suggestion::LeaveOriginal);
    }
}

#[test]
fn hierarchical_branch_matches_rowwise_everywhere() {
    for (name, a) in corpus() {
        assert_engine_matches_baseline(name, &a, Suggestion::Hierarchical);
    }
}

#[test]
fn reorder_branch_matches_rowwise_for_all_ten_algorithms() {
    // One bounded-degree mesh and one power-law graph cover both regimes
    // the reorderings target; every algorithm must round-trip exactly.
    let mats = vec![
        ("scrambled_mesh", gen::mesh::tri_mesh(10, 10, true, 1)),
        ("rmat_powerlaw", gen::rmat::rmat(6, 5, gen::rmat::RmatParams::default(), 2)),
    ];
    for (name, a) in &mats {
        for algo in Reordering::all_ten() {
            assert_engine_matches_baseline(name, a, Suggestion::Reorder(algo));
        }
    }
}

#[test]
fn planner_natural_choice_matches_rowwise_everywhere() {
    // Whatever the advisor actually picks per family must also be exact.
    for (name, a) in corpus() {
        let mut engine = Engine::default();
        let (got, report) = engine.multiply(&a, &a);
        let expect = clusterwise_spgemm::spgemm::rowwise::spgemm_serial(&a, &a);
        assert!(
            got.numerically_eq(&expect, 1e-9),
            "{name}: natural plan {} diverges",
            report.plan.describe(),
        );
    }
}

#[test]
fn ranked_plans_all_match_rowwise() {
    // Every plan in the advisor's ranked fallback list is executable and
    // exact, so whichever of them admission or the race picks is exact.
    let a = gen::mesh::tri_mesh(12, 12, true, 7);
    let expect = clusterwise_spgemm::spgemm::rowwise::spgemm_serial(&a, &a);
    let mut engine = Engine::default();
    let ranked = engine.planner().plans_costed(&a, OutputShape::Full);
    assert!(!ranked.is_empty());
    for plan in ranked.into_iter().map(|r| r.plan) {
        let (got, _) = engine.multiply_planned(&a, &a, plan);
        assert!(got.numerically_eq(&expect, 1e-9), "plan {} diverges", plan.describe());
    }
}

#[test]
fn repeated_traffic_hits_cache_and_stays_exact() {
    let a = gen::banded::block_diagonal(80, (4, 8), 0.15, 3);
    let expect = clusterwise_spgemm::spgemm::rowwise::spgemm_serial(&a, &a);
    // Frozen policy: the default one may re-plan mid-loop on wall-clock
    // noise, which changes the cache key; this test is about the cache.
    let planner = Planner::with_policy(Planner::default().seed, PlanningPolicy::frozen());
    let mut engine = Engine::new(planner, DEFAULT_CACHE_CAPACITY);
    for round in 0..5 {
        let (got, report) = engine.multiply(&a, &a);
        assert!(got.numerically_eq(&expect, 1e-9), "round {round}");
        assert_eq!(report.cache_hit, round > 0, "round {round}");
        if round > 0 {
            assert_eq!(
                report.timings.preprocessing(),
                0.0,
                "round {round} should skip reorder+cluster preprocessing"
            );
        }
    }
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 4);
}

#[test]
fn batch_right_hand_sides_share_one_preparation() {
    let a = gen::mesh::tri_mesh(10, 10, true, 5);
    let n = a.nrows;
    let bs: Vec<CsrMatrix> = (0..3).map(|s| gen::er::erdos_renyi(n, 4, s)).collect();
    let mut engine = Engine::default();
    // Prepare once, then one kernel per right-hand side: the serving
    // tail `prepare_with_shape` + `execute_prepared_shaped`.
    let (prepared, timings, hit) = engine.prepare_with_shape(&a, None, OutputShape::Full);
    for (i, b) in bs.iter().enumerate() {
        let (c, _) = engine.execute_prepared_shaped(&prepared, b, None, timings, hit);
        let expect = clusterwise_spgemm::spgemm::rowwise::spgemm_serial(&a, b);
        assert!(c.numerically_eq(&expect, 1e-9), "rhs {i}");
    }
    assert_eq!(engine.cache_stats().misses, 1, "one preparation for every rhs");
}

#[test]
fn distinct_matrices_do_not_collide_in_the_cache() {
    let a = gen::grid::poisson2d(12, 12);
    let b = gen::mesh::tri_mesh(12, 12, true, 1);
    let mut engine = Engine::default();
    let (ca, _) = engine.multiply(&a, &a);
    let (cb, _) = engine.multiply(&b, &b);
    assert!(ca.numerically_eq(&clusterwise_spgemm::spgemm::rowwise::spgemm_serial(&a, &a), 1e-9));
    assert!(cb.numerically_eq(&clusterwise_spgemm::spgemm::rowwise::spgemm_serial(&b, &b), 1e-9));
    assert_eq!(engine.cache_stats().misses, 2);
    assert_eq!(engine.cached_operands(), 2);
}

/// A right-hand side as tall as `poisson2d(40, 40)` is wide and `ncols`
/// wide, one entry per row spread over the whole width.
fn wide_rhs(ncols: usize) -> CsrMatrix {
    let stride = ncols / 1600;
    CsrMatrix::from_row_lists(ncols, (0..1600).map(|i| vec![(i * stride + i % 7, 1.5)]).collect())
}

#[test]
fn a_right_hand_side_too_wide_for_dense_runs_hash_with_the_same_bits() {
    // Every plan asks for Dense; the product is as wide as `b`. A dense
    // accumulator that wide would be 48 GB per worker at 4·10⁹ columns
    // (allocation failure, process abort) and 1.2 GB at 10⁸; the kernel runs
    // Hash instead, which is the oracle, and the report says so.
    let a = gen::grid::poisson2d(40, 40);
    for ncols in [100_000_000, 4_000_000_000] {
        let b = wide_rhs(ncols);
        let mut engine = Engine::default();
        let (got, report) = engine.multiply(&a, &b);
        assert_eq!(report.accumulator, AccumulatorKind::Hash, "{}", report.summary());
        assert!(report.summary().contains("[Hash]"), "{}", report.summary());
        assert_eq!((got.nrows, got.ncols), (1600, ncols));
        assert!(got.bits_eq(&spgemm_serial(&a, &b)), "{ncols} columns");
    }
    // The same plan on a `b` as narrow as `a` runs Dense.
    let mut engine = Engine::default();
    let (got, report) = engine.multiply_planned(&a, &a, Plan::baseline());
    assert_eq!(report.accumulator, AccumulatorKind::Dense, "{}", report.summary());
    assert!(got.bits_eq(&spgemm_serial(&a, &a)));
}
