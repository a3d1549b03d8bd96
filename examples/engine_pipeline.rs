//! Engine quickstart: profile → plan → cached repeated multiply.
//!
//! ```text
//! cargo run --release --example engine_pipeline
//! ```
//!
//! Walks the full `cw-engine` pipeline on two structurally different
//! matrices: the planner picks a different pipeline for each, the first
//! multiply pays preprocessing, a race (on kernels of a millisecond or
//! more) locks the fastest admitted pipeline, and repeated traffic hits
//! the plan cache and runs kernel-only.

use clusterwise_spgemm::engine::{OperandKey, Suggestion, MIN_RACE_SECONDS, RACE_SAMPLES};
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
    // matrix whose rows are already grouped (its own order is good).
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

        // 2. Plan: the advisor's candidates in its order, baseline last,
        // admitted on their preparation price; the list says why each is
        // there.
        for (rank, r) in engine.planner().plans_costed(a, OutputShape::Full).iter().enumerate() {
            println!(
                "rank {rank}: {}  (prep {:.3} ms; {})",
                r.plan.describe(),
                r.prep_seconds * 1e3,
                r.rationale
            );
        }

        // 3. Execute: the first call prepares (and caches) rank 0. Unless
        // that run already rules a race out, rank 0 runs once more and t₀ is
        // the faster of the two (a first run reads a freshly prepared
        // operand). Under MIN_RACE_SECONDS rank 0 is locked; otherwise the
        // challengers admitted on t₀ race it, each prepared once, and the
        // lowest median of RACE_SAMPLES is locked.
        let (c, first) = engine.multiply(a, a);
        println!("first:   {}", first.summary());

        // Repeated traffic hits the plan cache. The only misses are a
        // challenger's first run (its one preparation), and once the race
        // locks, nothing else ever runs.
        let key = (OperandKey::of(a), OutputShape::Full);
        let mut samples = vec![(first.plan, first.timings.kernel_seconds)];
        let mut lock = first.feedback.is_some_and(|f| f.locked).then_some(first.plan);
        let t0 = Instant::now();
        let rounds = 5 + RACE_SAMPLES * 4;
        for round in 0..rounds {
            let (c_again, rep) = engine.multiply(a, a);
            let first_run = samples.iter().all(|&(plan, _)| plan != rep.plan);
            assert!(
                rep.cache_hit || (first_run && lock.is_none()),
                "round {round}: only a challenger's first run may miss the cache"
            );
            assert!(lock.is_none_or(|p| p == rep.plan), "round {round}: a locked plan changed");
            assert!(c_again.numerically_eq(&c, 1e-9), "round {round}: result must not change");
            if lock.is_none() {
                samples.push((rep.plan, rep.timings.kernel_seconds));
                if rep.feedback.is_some_and(|f| f.locked) {
                    lock = engine.feedback().chosen_plan(&key);
                }
            }
        }
        println!(
            "{rounds} more multiplies in {:.1} ms (preprocessing amortized away)",
            t0.elapsed().as_secs_f64() * 1e3
        );

        // 4. The race: every kernel sample taken before the lock, and the lock.
        for &(plan, seconds) in &samples {
            println!("  sample {:>8.3} ms  {}", seconds * 1e3, plan.describe());
        }
        let lock = lock.expect("every race locks within R·m multiplies");
        let fb = engine.feedback().state(&key).expect("auto traffic is tracked");
        let mut ran: Vec<Plan> = Vec::new();
        for &(plan, _) in &samples {
            if !ran.contains(&plan) {
                ran.push(plan);
            }
        }
        let why =
            if ran.len() == 1 { " (t₀ under the race floor, or nothing admitted)" } else { "" };
        println!(
            "locked:  {}{why} after {} sample(s); {} of {} candidates ran, {} replans",
            lock.describe(),
            samples.len(),
            ran.len(),
            fb.candidates,
            fb.replans
        );
        let t0 = samples.iter().take(2).map(|&(_, s)| s).fold(f64::INFINITY, f64::min);
        assert!(ran.len() == 1 || t0 >= MIN_RACE_SECONDS, "a race needs t₀ ≥ the floor");

        // Cross-validate against the row-wise baseline.
        let baseline = spgemm(a, a);
        assert!(c.numerically_eq(&baseline, 1e-9));
        println!("output matches row-wise baseline ✓\n");
    }

    // A forced plan for comparison: what would the *wrong* pipeline cost?
    let forced = engine.planner().plan_for_suggestion(&mesh, Suggestion::LeaveOriginal);
    let (_, rep) = engine.multiply_planned(&mesh, &mesh, forced);
    println!("forced baseline on the scrambled mesh: {}", rep.summary());

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
