//! Cross-validation of the `cw-service` serving layer against direct
//! `Engine` execution, plus the service's concurrency edge cases:
//!
//! * served results are **bit-identical** to `Engine::multiply` /
//!   `Engine::multiply_planned` for every planner branch (all advisor
//!   suggestions and all ten reordering algorithms);
//! * a 4-shard service under a 64-request mixed-fingerprint load serves
//!   everything, prepares each operand once, and hits shard caches;
//! * graceful shutdown with in-flight requests, dropped tickets, and
//!   tickets redeemed after shutdown.
//!
//! Batch composition is pinned where it is deterministic, in the shard
//! worker's own tests; backpressure in the service's.

use clusterwise_spgemm::engine::Suggestion;
use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::service::{ServiceError, SubmitError};
use clusterwise_spgemm::sparse::gen;
use std::sync::Arc;

/// Structural families covering every branch of the advisor's decision
/// surface (mirrors `tests/engine_integration.rs`).
fn corpus() -> Vec<(&'static str, Arc<CsrMatrix>)> {
    vec![
        ("scrambled_mesh", Arc::new(gen::mesh::tri_mesh(12, 12, true, 3))),
        ("poisson2d", Arc::new(gen::grid::poisson2d(12, 12))),
        ("block_diagonal", Arc::new(gen::banded::block_diagonal(96, (4, 8), 0.1, 5))),
        ("grouped_rows", Arc::new(gen::banded::grouped_rows(90, 5, 6, 2))),
        ("erdos_renyi", Arc::new(gen::er::erdos_renyi(120, 5, 9))),
        ("kkt", Arc::new(gen::kkt::kkt(70, 20, 2, 3, 8))),
    ]
}

/// Serves `lhs · rhs` under `plan` and direct-executes the same plan on a
/// fresh engine; the two products must match bit for bit.
fn assert_served_bit_identical(
    service: &SpgemmService,
    name: &str,
    lhs: &Arc<CsrMatrix>,
    plan: Option<Plan>,
) {
    let mut engine = Engine::default();
    let (direct, _) = match plan {
        None => engine.multiply(lhs, lhs),
        Some(p) => engine.multiply_planned(lhs, lhs, p),
    };
    let mut request = MultiplyRequest::new(Arc::clone(lhs), Arc::clone(lhs));
    if let Some(p) = plan {
        request = request.with_plan(p);
    }
    let served = service.submit(request).unwrap().wait().unwrap();
    assert!(
        served.product.numerically_eq(&direct, 0.0),
        "{name}: served product is not bit-identical to direct engine execution under {}",
        served.report.execution.plan.describe(),
    );
}

#[test]
fn served_results_are_bit_identical_for_every_planner_branch() {
    let service = SpgemmService::new(ServiceConfig::default());
    let planner = Planner::default();
    for (name, a) in corpus() {
        // The planner's natural choice…
        assert_served_bit_identical(&service, name, &a, None);
        // …and every explicit advisor branch.
        for suggestion in [Suggestion::LeaveOriginal, Suggestion::Hierarchical] {
            let plan = planner.plan_for_suggestion(&a, suggestion);
            assert_served_bit_identical(&service, name, &a, Some(plan));
        }
    }
    // The Reorder branch, across all ten algorithms of the paper's study.
    let (name, a) = ("scrambled_mesh", Arc::new(gen::mesh::tri_mesh(10, 10, true, 1)));
    for algo in Reordering::all_ten() {
        let plan = planner.plan_for_suggestion(&a, Suggestion::Reorder(algo));
        assert_served_bit_identical(&service, name, &a, Some(plan));
    }
    service.shutdown();
}

#[test]
fn shaped_requests_serve_bit_identical_and_echo_their_shape() {
    use clusterwise_spgemm::engine::OutputShape;

    let service = SpgemmService::new(ServiceConfig::default());
    for (name, a) in corpus() {
        // Top-k through the queue/batch/shard path must match the direct
        // shaped engine bit for bit, and the report must echo the shape.
        let (direct, _) = Engine::default().multiply_shaped(&a, &a, OutputShape::TopK(4), None);
        let served = service
            .submit(
                MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))
                    .with_shape(RequestShape::TopK(4)),
            )
            .unwrap()
            .wait()
            .unwrap();
        assert!(
            served.product.numerically_eq(&direct, 0.0),
            "{name}: served top-k product diverges from the direct shaped engine"
        );
        assert_eq!(
            served.report.execution.plan.shape,
            OutputShape::TopK(4),
            "{name}: report lost the shape"
        );

        // Masked by the operand's own pattern.
        let (direct, _) = Engine::default().multiply_masked(&a, &a, &a);
        let served = service
            .submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a)).with_mask(Arc::clone(&a)))
            .unwrap()
            .wait()
            .unwrap();
        assert!(
            served.product.numerically_eq(&direct, 0.0),
            "{name}: served masked product diverges from the direct shaped engine"
        );
        assert_eq!(
            served.report.execution.plan.shape,
            OutputShape::Masked,
            "{name}: report lost the shape"
        );
    }

    // A forced plan says how to compute; the request stays authoritative
    // about *what* — its shape is stamped onto the plan before serving.
    let a = Arc::new(gen::grid::poisson2d(12, 12));
    let plan = Planner::default().plan(&a);
    assert_eq!(plan.shape, OutputShape::Full);
    let served = service
        .submit(
            MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))
                .with_plan(plan)
                .with_shape(RequestShape::TopK(2)),
        )
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(served.report.execution.plan.shape, OutputShape::TopK(2));
    assert!((0..served.product.nrows).all(|i| served.product.row_nnz(i) <= 2));

    // A mask that cannot filter the product is refused at the front door.
    let bad_mask = Arc::new(gen::grid::poisson2d(5, 5));
    let err = match service
        .submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a)).with_mask(bad_mask))
    {
        Err(e) => e,
        Ok(_) => panic!("mismatched mask must be rejected at submit"),
    };
    assert!(
        matches!(err, SubmitError::MaskShapeMismatch { .. }),
        "expected MaskShapeMismatch, got {err}"
    );

    service.shutdown();
}

#[test]
fn served_rectangular_rhs_matches_direct_engine() {
    let a = Arc::new(gen::er::erdos_renyi(60, 5, 3));
    let b = Arc::new(gen::er::erdos_renyi_rect(60, 14, 3, 4));
    let mut engine = Engine::default();
    let (direct, _) = engine.multiply(&a, &b);
    let service = SpgemmService::new(ServiceConfig::default());
    let served = service
        .submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&b)))
        .unwrap()
        .wait()
        .unwrap();
    assert!(served.product.numerically_eq(&direct, 0.0));
    assert_eq!(served.product.ncols, 14);
    service.shutdown();
}

#[test]
fn four_shard_mixed_fingerprint_load_coalesces_and_hits_caches() {
    // 8 distinct operands × 8 requests each = 64 in-flight submissions
    // across 4 shards. How long each waits depends on how fast its shard
    // drains; what they compute and how often each operand is prepared
    // does not. (Frozen planning: a feedback re-plan under a loaded
    // machine would legitimately prepare a second plan.)
    let mats: Vec<Arc<CsrMatrix>> =
        (0..8).map(|s| Arc::new(gen::er::erdos_renyi(100, 4, s))).collect();
    let service = SpgemmService::new(ServiceConfig {
        shards: 4,
        queue_capacity: 128,
        policy: PlanningPolicy::frozen(),
        ..ServiceConfig::default()
    });
    let mut tickets = Vec::new();
    for _ in 0..8 {
        for a in &mats {
            tickets
                .push(service.submit(MultiplyRequest::new(Arc::clone(a), Arc::clone(a))).unwrap());
        }
    }
    assert_eq!(tickets.len(), 64);
    let stats = service.shutdown();

    let mut cache_hits_seen = 0usize;
    for (i, ticket) in tickets.into_iter().enumerate() {
        let resp = ticket.wait().unwrap();
        let a = &mats[i % mats.len()];
        let expect = spgemm_serial(a, a);
        assert!(resp.product.numerically_eq(&expect, 1e-9), "request {i} wrong product");
        cache_hits_seen += resp.report.execution.cache_hit as usize;
    }
    assert_eq!(stats.completed, 64, "every request must complete");
    assert_eq!(stats.rejected, 0);
    assert!(cache_hits_seen > 0, "repeated operands must produce cache hits");
    assert!(stats.total_cache().hits > 0);
    // All 64 requests are accounted for across the shards, and 8
    // preparations happened service-wide (one per distinct operand).
    assert_eq!(stats.shards.iter().map(|s| s.requests).sum::<u64>(), 64);
    assert_eq!(stats.total_cache().misses, 8);
    assert_eq!(stats.latency.count, 64);
}

#[test]
fn shutdown_flushes_in_flight_requests_before_joining() {
    let a = Arc::new(gen::grid::poisson2d(10, 10));
    let b = Arc::new(gen::mesh::tri_mesh(10, 10, true, 2));
    let service = SpgemmService::new(ServiceConfig {
        shards: 2,
        policy: PlanningPolicy::frozen(),
        ..ServiceConfig::default()
    });
    let mut tickets = Vec::new();
    for _ in 0..3 {
        tickets.push(service.submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))).unwrap());
        tickets.push(service.submit(MultiplyRequest::new(Arc::clone(&b), Arc::clone(&b))).unwrap());
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, 6, "shutdown must serve in-flight requests, not drop them");
    assert_eq!(service.in_flight(), 0, "every queue slot must be released after the drain");
    for (i, ticket) in tickets.into_iter().enumerate() {
        let resp = ticket.wait().expect("in-flight request must resolve after shutdown");
        let expect = if i % 2 == 0 { spgemm_serial(&a, &a) } else { spgemm_serial(&b, &b) };
        assert!(resp.product.numerically_eq(&expect, 1e-9), "request {i}");
    }
    assert_eq!(stats.total_cache().misses, 2, "one preparation per operand");
    assert_eq!(
        service.submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))).unwrap_err(),
        SubmitError::ShuttingDown,
    );
}

#[test]
fn dropped_ticket_does_not_stall_the_service() {
    let a = Arc::new(gen::grid::poisson2d(8, 8));
    let service = SpgemmService::new(ServiceConfig::default());
    drop(service.submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))).unwrap());
    // The dropped request still executes and releases its queue slot.
    let t = service.submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))).unwrap();
    assert!(t.wait().is_ok());
    let stats = service.shutdown();
    assert_eq!(stats.completed, 2);
    assert_eq!(service.in_flight(), 0);
}

#[test]
fn admitted_requests_resolve_ok_even_when_waited_after_shutdown() {
    // ServiceError::Disconnected is reserved for requests a teardown
    // races; a graceful shutdown drains everything, so a ticket redeemed
    // *after* shutdown still resolves with the product.
    let a = Arc::new(gen::grid::poisson2d(7, 7));
    let service = SpgemmService::new(ServiceConfig::default());
    let ticket = service.submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))).unwrap();
    service.shutdown();
    match ticket.wait() {
        Ok(resp) => assert_eq!(resp.product.nrows, 49),
        Err(ServiceError::Disconnected) => {
            panic!("graceful shutdown must not drop admitted requests")
        }
    }
}

#[test]
fn one_arc_on_both_sides_proves_the_rhs_and_a_distinct_one_proves_by_content() {
    // A request whose rhs is its lhs's very `Arc` hands the engine that
    // proof; an equal matrix in an `Arc` of its own is proven by content.
    // Both run two-sided on the clustered operand, with the same bits. A
    // different matrix in an `Arc` of its own proves nothing and runs
    // one-sided.
    let natural = gen::banded::block_diagonal(3_000, (6, 10), 0.02, 4);
    let a = Arc::new(
        clusterwise_spgemm::reorder::random_permutation(natural.nrows, 3)
            .permute_symmetric(&natural),
    );
    let copy = Arc::new((*a).clone());
    let mut other = (*a).clone();
    other.vals[0] += 1.0;
    let other = Arc::new(other);
    let service = SpgemmService::new(ServiceConfig {
        shards: 1,
        policy: PlanningPolicy::frozen(),
        ..ServiceConfig::default()
    });
    let plan = Plan { reorder: Reordering::Rcm, ..Plan::baseline() };
    for (rhs, is_a) in [(Arc::clone(&a), true), (copy, true), (other, false)] {
        let expect = spgemm_serial(&a, &rhs);
        let request = MultiplyRequest::new(Arc::clone(&a), rhs).with_plan(plan);
        let served = service.submit(request).unwrap().wait().unwrap();
        let execution = &served.report.execution;
        assert!(served.product.bits_eq(&expect), "{}", execution.summary());
        assert_eq!(execution.two_sided, is_a, "{}", execution.summary());
        assert!(execution.clustered.is_some(), "{}", execution.summary());
    }
    service.shutdown();
}
