//! Engine quickstart: profile → plan → cached repeated multiply.
//!
//! ```text
//! cargo run --release --example engine_pipeline
//! ```
//!
//! Walks the full `cw-engine` pipeline on two structurally different
//! matrices: the planner picks a different pipeline for each, the first
//! multiply pays preprocessing, and repeated traffic hits the plan cache
//! and runs kernel-only.

use clusterwise_spgemm::engine::Suggestion;
use clusterwise_spgemm::prelude::*;
use std::time::Instant;

/// The same planned pipeline run serially (the oracle) and on the rayon
/// pool: bit-identical outputs, different timings.
fn serial_vs_parallel_tour(engine: &mut Engine, a: &CsrMatrix) {
    println!("=== one pipeline, serial oracle vs parallel ===");
    let pipeline = engine.planner().plan(a);
    // Parallelism is just a plan field; each side's preparation caches
    // under its own (operand, plan) key.
    let (oracle, rep) = engine.multiply_planned(a, a, Plan { parallel: false, ..pipeline });
    println!("  serial: {}", rep.summary());
    let (c, rep) = engine.multiply_planned(a, a, Plan { parallel: true, ..pipeline });
    println!("parallel: {}", rep.summary());
    assert!(c.bits_eq(&oracle), "the parallel run must be bit-identical to the serial oracle");
    println!("parallel bit-identical to the serial oracle ✓\n");
}

fn main() {
    // Two workloads with opposite structure:
    // a scrambled mesh (reordering recovers locality) and a block-diagonal
    // matrix whose rows are already grouped (clustering in place wins).
    let mesh = clusterwise_spgemm::sparse::gen::mesh::tri_mesh(40, 40, true, 42);
    let blocks = clusterwise_spgemm::sparse::gen::banded::block_diagonal(1600, (5, 8), 0.05, 7);

    let mut engine = Engine::default();

    for (name, a) in [("scrambled tri-mesh", &mesh), ("block-diagonal", &blocks)] {
        println!("=== {name}: {} rows, {} nnz ===", a.nrows, a.nnz());

        // 1. Profile: the cheap structural statistics driving the decision.
        let profile = clusterwise_spgemm::reorder::advisor::profile(a);
        println!(
            "profile: skew {:.1}, rel. bandwidth {:.2}, consecutive jaccard {:.2}",
            profile.degree_skew, profile.relative_bandwidth, profile.consecutive_jaccard
        );

        // 2. Plan: reordering × clustering (which fixes the kernel) ×
        // accumulator; the ranked list says why each candidate is there.
        let best = engine.planner().plans_costed(a, OutputShape::Full)[0];
        println!("plan:    {}  ({})", best.plan.describe(), best.rationale);

        // 3. Execute: first call prepares (and caches), later calls reuse.
        let (c, first) = engine.multiply(a, a);
        println!("first:   {}", first.summary());

        // Repeated traffic hits the plan cache — except right after the
        // feedback loop re-plans (observed timings contradicted the cost
        // model), when the one miss pays for the newly chosen pipeline.
        let t0 = Instant::now();
        let rounds = 5;
        let mut last_feedback = None;
        let mut switched_last_round = false;
        for round in 0..rounds {
            let (c_again, rep) = engine.multiply(a, a);
            assert!(
                rep.cache_hit || switched_last_round,
                "round {round}: only a fresh re-plan may miss the cache"
            );
            assert!(c_again.numerically_eq(&c, 1e-9), "round {round}: result must not change");
            if rep.feedback.is_some_and(|f| f.switched) {
                println!("  feedback re-planned after round {round}: {}", rep.plan.describe());
            }
            switched_last_round = rep.feedback.is_some_and(|f| f.switched);
            last_feedback = rep.feedback;
        }
        println!(
            "{rounds} warm multiplies in {:.1} ms (preprocessing amortized away)",
            t0.elapsed().as_secs_f64() * 1e3
        );

        // 4. Feedback: observed kernel seconds calibrate the cost model.
        if let Some(fb) = last_feedback {
            println!(
                "feedback: {} runs, predicted {:.3} ms vs observed {:.3} ms \
                 (calibration {:.2}, {} replans)",
                fb.executions,
                fb.predicted_kernel_seconds * 1e3,
                fb.observed_kernel_seconds * 1e3,
                fb.calibration,
                fb.replans
            );
        }

        // Cross-validate against the row-wise baseline.
        let baseline = spgemm(a, a);
        assert!(c.numerically_eq(&baseline, 1e-9));
        println!("output matches row-wise baseline ✓\n");
    }

    // A forced plan for comparison: what would the *wrong* pipeline cost?
    let forced = engine.planner().plan_for_suggestion(&mesh, Suggestion::ClusterInPlace);
    let (_, rep) = engine.multiply_planned(&mesh, &mesh, forced);
    println!("forced ClusterInPlace on the mesh: {}", rep.summary());

    // The same pipeline serially and in parallel.
    serial_vs_parallel_tour(&mut engine, &blocks);

    let stats = engine.cache_stats();
    println!(
        "\ncache: {} hits / {} misses / {} evictions ({} operands resident)",
        stats.hits,
        stats.misses,
        stats.evictions,
        engine.cached_operands()
    );
}
