//! Engine experiment: the adaptive planned pipeline vs fixed pipelines,
//! and the plan-cache amortization curve.
//!
//! Two questions, mirroring the paper's amortization argument (§4.5,
//! Fig. 10) applied to the new `cw-engine` front door:
//!
//! 1. **Planned vs fixed** — on representative corpus matrices, how does
//!    the planner's chosen pipeline compare (kernel seconds) to always
//!    running the row-wise baseline and to a fixed cluster-wise pipeline?
//! 2. **Amortization** — serving `n` repeated multiplies through the
//!    engine, how does cumulative time fall as the plan cache converts
//!    preprocessing into a one-off cost? The cold path pays
//!    profile+plan+reorder+cluster on every call (cache disabled); the
//!    warm path pays it once.

use crate::report::{Report, Table};
use crate::runner::{time_median, RunConfig};
use cw_engine::{ClusteringStrategy, Engine, Plan, Planner};
use std::time::Instant;

/// Repeated-multiply counts for the amortization curve.
const CURVE_POINTS: [usize; 4] = [1, 2, 4, 8];

/// Runs the engine experiment.
pub fn run(cfg: &RunConfig) -> Report {
    let datasets = cfg.select(cw_datasets::representative(cfg.scale));
    let mut rep =
        Report::new("engine", "Adaptive engine vs fixed pipelines, plan-cache amortization");
    rep.note("Planned = planner-chosen pipeline executed via Engine (kernel+postprocess only, prepared operand cached).");
    rep.note("Speedups are vs the row-wise baseline on the unmodified matrix; >1.00 means the planned pipeline is faster.");
    rep.note("Amortization: cumulative seconds serving n identical multiplies; 'cold' re-preprocesses every call, 'cached' prepares once.");

    // --- Table 1: planned vs fixed pipelines ---
    let mut t = Table::new(vec![
        "Dataset",
        "plan",
        "baseline s",
        "fixed-cluster s",
        "planned s",
        "planned speedup",
        "prep s (one-off)",
    ]);
    for d in &datasets {
        let a = d.build(cfg.scale);

        // Fixed pipeline 1: row-wise baseline.
        let base_s = time_median(cfg.reps, || cw_spgemm::spgemm(&a, &a));

        // Fixed pipeline 2: fixed-length cluster-wise, rebuilt per call the
        // first time, then timed on the prepared operand (kernel only).
        let fixed_plan =
            Plan { clustering: ClusteringStrategy::Fixed(cfg.fixed_len), ..Plan::baseline() };
        let mut fixed_engine = engine_with_seed(cfg.seed);
        let _ = fixed_engine.multiply_planned(&a, &a, fixed_plan); // prepare + warm
        let fixed_s = time_median(cfg.reps, || fixed_engine.multiply_planned(&a, &a, fixed_plan));

        // Planned pipeline: let the planner choose; cache warm after the
        // first call, so the timed region is kernel + postprocess.
        let mut engine = engine_with_seed(cfg.seed);
        let (_, first) = engine.multiply(&a, &a);
        let planned_s = time_median(cfg.reps, || engine.multiply(&a, &a));

        t.push_row(vec![
            d.name.to_string(),
            first.plan.describe(),
            format!("{base_s:.5}"),
            format!("{fixed_s:.5}"),
            format!("{planned_s:.5}"),
            format!("{:.2}", base_s / planned_s.max(1e-12)),
            format!("{:.5}", first.timings.preprocessing()),
        ]);
    }
    rep.add_table("planned pipeline vs fixed pipelines (kernel seconds)", t);

    // --- Table 2: plan-cache amortization curve ---
    let mut t = Table::new({
        let mut h = vec!["Dataset".to_string(), "prep s".to_string()];
        for n in CURVE_POINTS {
            h.push(format!("cold n={n}"));
            h.push(format!("cached n={n}"));
        }
        h.push("hit rate".to_string());
        h
    });
    for d in &datasets {
        let a = d.build(cfg.scale);
        let mut row = vec![d.name.to_string()];

        // One preparation to report the one-off cost.
        let mut probe = engine_with_seed(cfg.seed);
        let (_, first) = probe.multiply(&a, &a);
        row.push(format!("{:.5}", first.timings.preprocessing()));

        let mut cached_engine = engine_with_seed(cfg.seed);
        let mut stats_source = None;
        for n in CURVE_POINTS {
            // Cold: cache disabled, the full pipeline runs every call.
            let mut cold_engine = Engine::new(planner_with_seed(cfg.seed), 0);
            let t0 = Instant::now();
            for _ in 0..n {
                let _ = cold_engine.multiply(&a, &a);
            }
            let cold = t0.elapsed().as_secs_f64();

            // Cached: preprocessing amortizes across the n calls.
            cached_engine.clear_cache();
            let t0 = Instant::now();
            for _ in 0..n {
                let _ = cached_engine.multiply(&a, &a);
            }
            let cached = t0.elapsed().as_secs_f64();
            stats_source = Some(cached_engine.cache_stats());

            row.push(format!("{cold:.5}"));
            row.push(format!("{cached:.5}"));
        }
        let stats = stats_source.unwrap();
        row.push(format!("{:.2}", stats.hit_rate()));
        t.push_row(row);
    }
    rep.add_table("cumulative seconds vs repeated multiplies", t);
    rep
}

fn planner_with_seed(seed: u64) -> Planner {
    Planner::with_seed(seed)
}

fn engine_with_seed(seed: u64) -> Engine {
    Engine::new(planner_with_seed(seed), cw_engine::DEFAULT_CACHE_CAPACITY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunConfig;

    #[test]
    fn engine_experiment_produces_both_tables() {
        let cfg = RunConfig { reps: 1, subset: Some(2), ..Default::default() };
        let rep = run(&cfg);
        assert_eq!(rep.id, "engine");
        assert_eq!(rep.tables.len(), 2);
        let (_, planned) = &rep.tables[0];
        assert_eq!(planned.rows.len(), 2);
        // Every row carries a parseable speedup.
        for row in &planned.rows {
            let speedup: f64 = row[5].parse().unwrap();
            assert!(speedup > 0.0);
        }
        let (_, curve) = &rep.tables[1];
        assert_eq!(curve.rows.len(), 2);
        // Cached n=8 must not exceed cold n=8 by more than noise: the cache
        // skips preprocessing entirely on 7 of 8 calls.
        for row in &curve.rows {
            let hit_rate: f64 = row.last().unwrap().parse().unwrap();
            assert!(hit_rate > 0.5, "cache should be hitting: {hit_rate}");
        }
    }
}
