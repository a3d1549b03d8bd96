//! Calibrate experiment: measure the corpus, fit the cost model, and
//! quantify what calibration buys.
//!
//! The planner's hand-tuned [`cw_engine::CostModel`] constants were
//! guessed for *some* machine; this experiment fits them for *this* one
//! (the offline half of the learning loop — the online half is the
//! per-operand `FeedbackStore`):
//!
//! 1. **Sweep** — for every corpus dataset, the planner's top pipelines
//!    are measured as planned and serially: one-off preprocessing
//!    seconds plus warm per-multiply kernel seconds, recorded as
//!    [`CalibrationSample`]s.
//! 2. **Fit** — even-indexed datasets train a [`Calibrator`] least-squares
//!    fit; odd-indexed datasets are held out.
//! 3. **Judge** — held-out median relative kernel-prediction error,
//!    fitted vs hand-tuned; and first-choice plan agreement with the
//!    observed-fastest candidate, for the calibrated model, the
//!    hand-tuned model, and the pre-cost-model static advisor.
//!
//! The full-corpus fit is attached as `calibration_profile.json` (the
//! artifact checked in as `profiles/default.json`); the headline numbers
//! are also kept on the report as [`crate::report::Metric`]s, which the
//! root `tests/calibration.rs` acceptance test reads.

use crate::report::{f2, Report, Table};
use crate::runner::RunConfig;
use cw_engine::calibrate::{median, prediction_errors};
use cw_engine::{
    CalibrationProfile, CalibrationSample, Calibrator, Engine, OperandFeatures, OutputShape, Plan,
    Planner, PlanningPolicy, Suggestion, DEFAULT_CACHE_CAPACITY,
};
use cw_reorder::advisor::{advise, profile};
use cw_sparse::CsrMatrix;

/// Distinct pipelines measured per dataset (each as planned and serially);
/// the planner's cost-ranked head plus the static advisor's choice.
const MAX_PIPELINES: usize = 4;

/// Amortization horizon used when ranking predicted candidate costs
/// (matches [`PlanningPolicy::default`]'s `expected_reuse`).
const RANK_REUSE: f64 = 16.0;

/// A first choice "agrees" with the observed-fastest candidate when its
/// observed warm kernel is within this fraction of the fastest's —
/// aligned with the feedback loop's 25% switch margin: a delta the loop
/// itself would hold as a tie cannot count as a wrong choice here.
/// Sub-margin deltas between near-tied pipelines measure timer noise, not
/// selection quality; a genuinely wrong choice misses by far more.
pub const AGREEMENT_SLACK: f64 = 0.25;

/// The purely rule-based choice: the advisor's top suggestion, knob-tuned,
/// with no cost modeling — the ablation baseline the cost model and the
/// fitted profile are judged against.
fn static_plan(planner: &Planner, a: &CsrMatrix) -> Plan {
    let top = advise(a).into_iter().next().unwrap_or(Suggestion::LeaveOriginal);
    planner.plan_for_suggestion(a, top)
}

/// One measured candidate: a pipeline as planned, with its observed warm
/// kernel seconds.
#[derive(Debug, Clone, Copy)]
struct MeasuredCandidate {
    plan: Plan,
    affinity: f64,
    kernel_seconds: f64,
}

/// Everything measured for one dataset.
#[derive(Debug, Clone)]
struct DatasetSweep {
    name: String,
    features: OperandFeatures,
    static_plan: Plan,
    /// Planner-candidate measurements (serial twins excluded — the
    /// planner offers only its own `parallel`), used for plan-agreement
    /// judging.
    candidates: Vec<MeasuredCandidate>,
    /// All samples (serial twins included) feeding the fit.
    samples: Vec<CalibrationSample>,
}

/// Warm per-multiply kernel seconds of `plan` on `a` (median of `reps`;
/// the preparation is cached before timing starts, and the engine's own
/// per-stage report isolates kernel time from lookup overhead).
fn warm_kernel_median(engine: &mut Engine, a: &CsrMatrix, plan: Plan, reps: usize) -> f64 {
    let _ = engine.multiply_planned(a, a, plan);
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| engine.multiply_planned(a, a, plan).1.timings.kernel_seconds)
        .collect();
    median(&times)
}

/// Measures one dataset: the planner's top pipelines (plus the static
/// advisor's choice), each as planned and serially.
fn sweep_dataset(name: &str, a: &CsrMatrix, cfg: &RunConfig) -> DatasetSweep {
    let planner = Planner::with_policy(cfg.seed, PlanningPolicy::frozen());
    let features = OperandFeatures::with_profile(a, profile(a));
    let ranked = planner.plans_costed(a, OutputShape::Full);

    // Distinct pipelines (the planner deduplicates), best-ranked first.
    let mut pipelines: Vec<(Plan, f64)> =
        ranked.iter().take(MAX_PIPELINES).map(|r| (r.plan, r.affinity)).collect();
    // The static advisor's choice and the zero-prep baseline are always
    // measured: the first anchors the static-agreement comparison, the
    // second anchors the calibrator's scale-free technique-gain ratios.
    let static_choice = static_plan(&planner, a);
    for extra in [static_choice, planner.plan_for_suggestion(a, Suggestion::LeaveOriginal)] {
        if !pipelines.iter().any(|(p, _)| *p == extra) {
            let affinity = ranked.iter().find(|r| r.plan == extra).map_or(0.0, |r| r.affinity);
            pipelines.push((extra, affinity));
        }
    }

    let mut meter = Engine::new(
        Planner::with_policy(cfg.seed, PlanningPolicy::frozen()),
        DEFAULT_CACHE_CAPACITY,
    );
    let mut candidates = Vec::new();
    let mut samples = Vec::new();
    for (pipeline, affinity) in pipelines {
        // One-off preprocessing, measured cold on the pipeline as planned
        // (its serial twin shares the same materialization).
        meter.clear_cache();
        let (_, prep_timings, _) = meter.prepare_with_shape(a, Some(pipeline), OutputShape::Full);
        let prep_seconds = prep_timings.reorder_seconds + prep_timings.cluster_seconds;
        let kernel_seconds = warm_kernel_median(&mut meter, a, pipeline, cfg.reps);
        candidates.push(MeasuredCandidate { plan: pipeline, affinity, kernel_seconds });
        samples.push(CalibrationSample {
            features,
            plan: pipeline,
            affinity,
            prep_seconds,
            kernel_seconds,
        });

        // The serial twin the parallel speedup is fitted against, unless
        // the planner already planned the pipeline serial. Its prep is not
        // attributed again: a duplicate would double-weight it in the fit.
        let serial = Plan { parallel: false, ..pipeline };
        if serial != pipeline {
            let kernel_seconds = warm_kernel_median(&mut meter, a, serial, cfg.reps);
            samples.push(CalibrationSample {
                features,
                plan: serial,
                affinity,
                prep_seconds: 0.0,
                kernel_seconds,
            });
        }
    }
    DatasetSweep {
        name: name.to_string(),
        features,
        static_plan: static_choice,
        candidates,
        samples,
    }
}

/// The observed-fastest candidate of a sweep.
fn observed_fastest(sweep: &DatasetSweep) -> &MeasuredCandidate {
    sweep
        .candidates
        .iter()
        .min_by(|x, y| x.kernel_seconds.total_cmp(&y.kernel_seconds))
        .expect("sweep has candidates")
}

/// The candidate `profile` would choose first (min predicted amortized
/// cost under the default reuse horizon).
fn model_choice<'s>(
    profile: &CalibrationProfile,
    sweep: &'s DatasetSweep,
) -> &'s MeasuredCandidate {
    sweep
        .candidates
        .iter()
        .min_by(|x, y| {
            let cost = |c: &MeasuredCandidate| {
                profile.model.estimate(&sweep.features, &c.plan, c.affinity).amortized(RANK_REUSE)
            };
            cost(x).total_cmp(&cost(y))
        })
        .expect("sweep has candidates")
}

/// The calibrated-vs-static headline numbers (also consumed by the
/// `summary` experiment).
#[derive(Debug, Clone, Copy)]
pub struct PlannerDelta {
    /// Fraction of operands where the calibrated model's first choice
    /// agrees with the observed-fastest measured candidate (observed warm
    /// kernel within [`AGREEMENT_SLACK`] of the fastest's).
    pub agreement_calibrated: f64,
    /// Same fraction for the hand-tuned (uncalibrated) cost model.
    pub agreement_handtuned: f64,
    /// Same fraction for the pre-cost-model static advisor.
    pub agreement_static: f64,
    /// Geometric mean over operands of (static choice's observed kernel
    /// seconds ÷ calibrated choice's observed kernel seconds); > 1 means
    /// the calibrated planner picks faster plans.
    pub speedup_vs_static: f64,
    /// Operands judged.
    pub operands: usize,
}

/// Does `choice` agree with the observed-fastest candidate — i.e. is its
/// observed warm kernel within [`AGREEMENT_SLACK`] of the fastest's?
fn agrees(choice: &MeasuredCandidate, fastest: &MeasuredCandidate) -> bool {
    choice.kernel_seconds <= fastest.kernel_seconds * (1.0 + AGREEMENT_SLACK)
}

/// Judges `profile`'s first choices against the observed-fastest
/// candidates across `sweeps`.
fn judge(profile: &CalibrationProfile, sweeps: &[DatasetSweep]) -> PlannerDelta {
    let handtuned = CalibrationProfile::default();
    let (mut cal, mut hand, mut stat) = (0usize, 0usize, 0usize);
    let mut log_speedups = Vec::new();
    for sweep in sweeps {
        let fastest = observed_fastest(sweep);
        let calibrated = model_choice(profile, sweep);
        if agrees(calibrated, fastest) {
            cal += 1;
        }
        if agrees(model_choice(&handtuned, sweep), fastest) {
            hand += 1;
        }
        let static_pick = sweep
            .candidates
            .iter()
            .find(|c| c.plan == sweep.static_plan)
            .expect("static pipeline is always measured");
        if agrees(static_pick, fastest) {
            stat += 1;
        }
        if calibrated.kernel_seconds > 0.0 {
            log_speedups.push((static_pick.kernel_seconds / calibrated.kernel_seconds).ln());
        }
    }
    let n = sweeps.len().max(1) as f64;
    PlannerDelta {
        agreement_calibrated: cal as f64 / n,
        agreement_handtuned: hand as f64 / n,
        agreement_static: stat as f64 / n,
        speedup_vs_static: if log_speedups.is_empty() {
            1.0
        } else {
            (log_speedups.iter().sum::<f64>() / log_speedups.len() as f64).exp()
        },
        operands: sweeps.len(),
    }
}

/// Sweeps the corpus and returns the per-dataset measurements.
fn sweep_corpus(cfg: &RunConfig) -> Vec<DatasetSweep> {
    cfg.select(cw_datasets::representative(cfg.scale))
        .iter()
        .map(|d| sweep_dataset(d.name, &d.build(cfg.scale), cfg))
        .collect()
}

/// The calibrated-vs-static planner delta on a (small) corpus sweep:
/// fits a full-corpus profile and judges it. The `summary` experiment
/// calls this with a tight subset for its headline row.
pub fn planner_delta(cfg: &RunConfig) -> PlannerDelta {
    let sweeps = sweep_corpus(cfg);
    let mut calibrator = Calibrator::new();
    calibrator.extend(sweeps.iter().flat_map(|s| s.samples.iter().copied()));
    judge(&calibrator.fit(), &sweeps)
}

/// Runs the calibrate experiment.
pub fn run(cfg: &RunConfig) -> Report {
    let sweeps = sweep_corpus(cfg);

    // Train/held-out split by dataset parity (operand-level, so held-out
    // error is measured on matrices the fit never saw).
    let train: Vec<CalibrationSample> = sweeps
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .flat_map(|(_, s)| s.samples.iter().copied())
        .collect();
    let heldout: Vec<CalibrationSample> = sweeps
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 1)
        .flat_map(|(_, s)| s.samples.iter().copied())
        .collect();

    let mut train_cal = Calibrator::new();
    train_cal.extend(train.iter().copied());
    let train_profile = train_cal.fit();

    let mut full_cal = Calibrator::new();
    full_cal.extend(sweeps.iter().flat_map(|s| s.samples.iter().copied()));
    let full_profile = full_cal.fit();

    let handtuned = CalibrationProfile::default();
    let fitted_errs = prediction_errors(&train_profile, &heldout);
    let handtuned_errs = prediction_errors(&handtuned, &heldout);
    let delta = judge(&train_profile, &sweeps);

    let mut rep = Report::new(
        "calibration",
        "Calibrated cost model: fit from bench-corpus runs vs hand-tuned constants",
    );
    rep.note(format!(
        "{} datasets ({} train / {} held out by parity), {} samples total; \
         {MAX_PIPELINES}+ pipelines each, as planned and serially, warm kernel medians of {} \
         reps.",
        sweeps.len(),
        sweeps.len().div_ceil(2),
        sweeps.len() / 2,
        sweeps.iter().map(|s| s.samples.len()).sum::<usize>(),
        cfg.reps
    ));
    rep.note(format!(
        "Held-out error is median |predicted − observed| / observed kernel seconds on datasets \
         the fit never saw. Agreement is the fraction of operands whose first choice (min \
         predicted amortized cost) lands within {:.0}% of the observed-fastest measured \
         candidate's warm kernel (the plan-choice analogue of the feedback switch margin).",
        AGREEMENT_SLACK * 100.0
    ));

    // --- Table 1: constants, hand-tuned vs fitted. ---
    let mut t = Table::new(vec!["constant", "hand-tuned", "fitted (train)", "fitted (full)"]);
    type ConstantRow = (&'static str, fn(&CalibrationProfile) -> f64);
    let rows: [ConstantRow; 7] = [
        ("seconds_per_madd", |p| p.model.seconds_per_madd),
        ("parallel_speedup", |p| p.model.parallel_speedup),
        ("reorder_gain", |p| p.model.reorder_gain),
        ("cluster_gain", |p| p.model.cluster_gain),
        ("cheap_reorder_per_nnz", |p| p.model.cheap_reorder_per_nnz),
        ("variable_cluster_per_nnz", |p| p.model.variable_cluster_per_nnz),
        ("hierarchical_cluster_per_nnz", |p| p.model.hierarchical_cluster_per_nnz),
    ];
    for (name, get) in rows {
        t.push_row(vec![
            name.to_string(),
            format!("{:.3e}", get(&handtuned)),
            format!("{:.3e}", get(&train_profile)),
            format!("{:.3e}", get(&full_profile)),
        ]);
    }
    rep.add_table("fitted cost-model constants", t);

    // --- Table 2: prediction quality + plan choices per dataset. ---
    let mut t = Table::new(vec![
        "Dataset",
        "split",
        "observed fastest",
        "calibrated choice",
        "hand-tuned choice",
        "static choice matches?",
    ]);
    for (i, sweep) in sweeps.iter().enumerate() {
        let fastest = observed_fastest(sweep);
        let calibrated = model_choice(&train_profile, sweep);
        let hand = model_choice(&handtuned, sweep);
        let static_pick = sweep
            .candidates
            .iter()
            .find(|c| c.plan == sweep.static_plan)
            .expect("static pipeline is always measured");
        t.push_row(vec![
            sweep.name.clone(),
            if i % 2 == 0 { "train" } else { "held-out" }.to_string(),
            fastest.plan.describe(),
            calibrated.plan.describe(),
            hand.plan.describe(),
            if agrees(static_pick, fastest) { "yes" } else { "no" }.to_string(),
        ]);
    }
    rep.add_table("first choices vs observed-fastest", t);

    // --- Table 3: headline numbers. ---
    let mut t = Table::new(vec!["quantity", "hand-tuned", "calibrated"]);
    t.push_row(vec![
        "held-out median relative kernel error".to_string(),
        f2(median(&handtuned_errs)),
        f2(median(&fitted_errs)),
    ]);
    t.push_row(vec![
        "first-choice agreement with observed-fastest".to_string(),
        f2(delta.agreement_handtuned),
        f2(delta.agreement_calibrated),
    ]);
    t.push_row(vec![
        "static advisor agreement / calibrated speedup vs static".to_string(),
        f2(delta.agreement_static),
        format!("{}x", f2(delta.speedup_vs_static)),
    ]);
    rep.add_table("calibration quality", t);

    // --- The headline numbers again, by name (tests/calibration.rs). ---
    if !heldout.is_empty() {
        rep.add_metric("heldout_median_rel_err/fitted", median(&fitted_errs));
        rep.add_metric("heldout_median_rel_err/handtuned", median(&handtuned_errs));
    }
    rep.add_metric("plan_agreement/calibrated", delta.agreement_calibrated);
    rep.add_metric("plan_agreement/handtuned", delta.agreement_handtuned);
    rep.add_metric("plan_agreement/static", delta.agreement_static);
    rep.add_metric("speedup_vs_static", delta.speedup_vs_static);

    // The artifact: the full-corpus fit, refreshable into
    // profiles/default.json (see docs/ARCHITECTURE.md).
    rep.attachments.push(("calibration_profile.json".to_string(), full_profile.to_json()));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrate_experiment_fits_and_reports() {
        let cfg = RunConfig { reps: 1, subset: Some(2), ..Default::default() };
        let rep = run(&cfg);
        assert_eq!(rep.id, "calibration");
        assert_eq!(rep.tables.len(), 3);

        // The profile artifact parses and carries a real fit.
        let (name, json) = &rep.attachments[0];
        assert_eq!(name, "calibration_profile.json");
        let profile = CalibrationProfile::from_json(json).unwrap();
        assert!(profile.fitted_from_samples > 0);
        assert!(profile.model.seconds_per_madd > 0.0);

        // The quality metrics the acceptance bar reads are present.
        let metric = |n: &str| rep.metrics.iter().find(|m| m.name == n);
        assert!(metric("plan_agreement/calibrated").is_some());
        assert!(metric("heldout_median_rel_err/fitted").is_some());

        // On a same-machine sweep the fitted model must predict held-out
        // kernels at least as well as the hand-tuned defaults (the debug
        // build alone puts the defaults off by an order of magnitude).
        let fitted = metric("heldout_median_rel_err/fitted").unwrap().value;
        let handtuned = metric("heldout_median_rel_err/handtuned").unwrap().value;
        assert!(
            fitted <= handtuned * 1.05,
            "fitted held-out error {fitted} must not exceed hand-tuned {handtuned}"
        );
    }

    #[test]
    fn planner_delta_judges_measured_candidates() {
        let cfg = RunConfig { reps: 1, subset: Some(2), ..Default::default() };
        let delta = planner_delta(&cfg);
        assert_eq!(delta.operands, 2);
        for a in [delta.agreement_calibrated, delta.agreement_handtuned, delta.agreement_static] {
            assert!((0.0..=1.0).contains(&a), "{a}");
        }
        assert!(delta.speedup_vs_static > 0.0);
    }
}
