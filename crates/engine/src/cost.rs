//! The cost model and the execution-feedback loop behind plan selection.
//!
//! The rule-based advisor ranks *techniques*; this module prices *plans*.
//! [`CostModel::estimate`] turns cheap operand features (dimensions, nnz,
//! the advisor [`Profile`]) plus the advisor's per-suggestion `affinity`
//! into a [`CostEstimate`]: predicted preprocessing seconds and predicted
//! kernel seconds per multiply. [`CostEstimate::amortized`] folds the two
//! together under an expected reuse count — the paper's §4.5 amortization
//! argument made explicit — and [`crate::Planner::plans_costed`] ranks
//! candidates by it.
//!
//! Analytic estimates are rough (the SpMV reordering study, Asudeh et al.,
//! shows rule-of-thumb predictions are frequently wrong), so the
//! [`FeedbackStore`] closes the loop: per operand ([`OperandKey`]) and
//! output shape it keeps an EWMA of *observed* kernel seconds per candidate
//! plan, a clamped
//! calibration ratio (observed ÷ predicted) that rescales the untried
//! candidates' predictions, and the index of the currently chosen plan.
//! After each execution [`FeedbackStore::record`] re-ranks: a chosen plan
//! whose observed timing is worse than an alternative's effective cost by
//! more than [`SWITCH_MARGIN`] gets demoted, and a candidate whose observed
//! timing beats its prediction gets promoted on the same comparison —
//! repeated traffic converges on the empirically fastest plan.
//!
//! Switching is deliberately conservative: it needs
//! [`MIN_OBSERVATIONS_TO_SWITCH`] samples of the incumbent, a
//! [`SWITCH_MARGIN`] improvement, and kernels above the policy's
//! noise floor ([`PlanningPolicy::min_adapt_gain_seconds`]) — at
//! microsecond scales timing noise swamps any real plan difference.

use crate::cache::OperandKey;
use crate::plan::{ClusteringStrategy, OutputShape, Plan};
use cw_reorder::advisor::Profile;
use cw_reorder::Reordering;
use cw_sparse::CsrMatrix;
use std::collections::HashMap;

/// EWMA smoothing factor for observed timings (higher = faster adaptation).
pub const EWMA_ALPHA: f64 = 0.3;

/// Observations of the incumbent plan required before the feedback loop may
/// switch away from it (one noisy sample must not trigger a re-plan).
pub const MIN_OBSERVATIONS_TO_SWITCH: u64 = 3;

/// Relative improvement an alternative's effective cost must show over the
/// incumbent's before the feedback loop switches (hysteresis against
/// oscillation between near-equal plans).
pub const SWITCH_MARGIN: f64 = 0.25;

/// Calibration ratios are clamped to this range so one badly mispredicted
/// plan cannot poison every other candidate's estimate.
pub const CALIBRATION_CLAMP: (f64, f64) = (0.5, 2.0);

/// Caller-supplied planning knobs: how much reuse to amortize preprocessing
/// over, an optional hard preprocessing budget, and whether the feedback
/// loop may re-plan at runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanningPolicy {
    /// Expected multiplies per prepared operand; preprocessing cost is
    /// divided by this when ranking candidates (`1` = one-shot traffic,
    /// where preprocessing almost never pays).
    pub expected_reuse: f64,
    /// Hard cap on predicted preprocessing seconds: candidates estimated
    /// over budget rank behind every within-budget candidate regardless of
    /// their amortized cost. `None` = unbounded.
    pub prep_budget_seconds: Option<f64>,
    /// Allow [`FeedbackStore::record`] to switch the chosen plan when
    /// observed timings contradict the model. `false` = observe-only:
    /// EWMAs and calibration still accumulate, the choice never changes.
    pub adapt: bool,
    /// Feedback noise floor: re-planning requires the alternative to save
    /// at least this many *absolute* seconds per multiply on top of the
    /// [`SWITCH_MARGIN`] relative bar. At microsecond kernel scales,
    /// timing noise (and debug-build distortion) dwarfs any real
    /// difference between plans — sub-floor "improvements" are noise.
    pub min_adapt_gain_seconds: f64,
}

impl Default for PlanningPolicy {
    fn default() -> Self {
        PlanningPolicy {
            expected_reuse: 16.0,
            prep_budget_seconds: None,
            adapt: true,
            min_adapt_gain_seconds: 1e-3,
        }
    }
}

impl PlanningPolicy {
    /// Observe-only policy: cost-model selection, no runtime re-planning.
    pub fn frozen() -> PlanningPolicy {
        PlanningPolicy { adapt: false, ..PlanningPolicy::default() }
    }

    /// Policy for one-shot traffic: preprocessing must pay for itself in a
    /// single multiply, so only near-free plans beat the baseline.
    pub fn one_shot() -> PlanningPolicy {
        PlanningPolicy { expected_reuse: 1.0, ..PlanningPolicy::default() }
    }
}

/// Cheap per-operand features the cost model prices plans from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperandFeatures {
    /// Rows of the operand.
    pub nrows: usize,
    /// Columns of the operand (the output-width proxy for `A²`-shaped
    /// traffic).
    pub ncols: usize,
    /// Stored nonzeros of the operand.
    pub nnz: usize,
    /// The advisor's structural profile.
    pub profile: Profile,
}

impl OperandFeatures {
    /// Features of `a` under an already-computed profile (avoids profiling
    /// twice when the advisor ran first).
    pub fn with_profile(a: &CsrMatrix, profile: Profile) -> OperandFeatures {
        OperandFeatures { nrows: a.nrows, ncols: a.ncols, nnz: a.nnz(), profile }
    }

    /// Estimated multiply-adds of `A·B` for a `B` structurally like `A`:
    /// every nonzero `a_ik` pulls `nnz(B[k,:]) ≈ avg_row_nnz` products —
    /// exact for `A²` when row lengths are uniform, a serviceable proxy
    /// otherwise.
    pub fn estimated_madds(&self) -> f64 {
        self.nnz as f64 * self.profile.avg_row_nnz.max(1.0)
    }
}

/// Predicted cost of one plan on one operand, split the same way
/// [`crate::StageTimings`] splits observed cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostEstimate {
    /// One-off preprocessing seconds (reorder + cluster construction).
    pub prep_seconds: f64,
    /// Per-multiply kernel (+ postprocess) seconds.
    pub kernel_seconds: f64,
}

impl CostEstimate {
    /// Per-multiply cost when preprocessing amortizes over `reuse`
    /// multiplies: `prep / max(reuse, 1) + kernel`. Monotone decreasing in
    /// `reuse`, which is exactly the paper's Fig. 10 break-even argument.
    pub fn amortized(&self, reuse: f64) -> f64 {
        self.prep_seconds / reuse.max(1.0) + self.kernel_seconds
    }
}

/// Analytic per-plan cost model over [`OperandFeatures`].
///
/// All constants are public and deliberately rough: they only need to rank
/// plans sensibly on first sight — the [`FeedbackStore`] corrects them with
/// observed timings. Tests also overwrite them to build adversarially
/// *wrong* models and verify feedback recovers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Seconds per multiply-add for the serial row-wise kernel (the
    /// baseline everything is priced relative to). One rate for either
    /// accumulator: a plan carries none, so none is priced.
    pub seconds_per_madd: f64,
    /// Effective speedup of the rayon-parallel kernel path.
    pub parallel_speedup: f64,
    /// Largest fraction of kernel time a reordering with affinity `1.0`
    /// is predicted to save on the row-wise kernel (locality recovery).
    pub reorder_gain: f64,
    /// Largest fraction of kernel time cluster-wise computation is
    /// predicted to save when clustered rows fully overlap (shared
    /// B-row fetches, paper Alg. 1).
    pub cluster_gain: f64,
    /// Per-row bookkeeping overhead of the cluster-wise kernel, seconds.
    pub cluster_row_overhead: f64,
    /// Preprocessing seconds per nonzero for cheap, BFS/sort-class
    /// reorderings (RCM, Degree, Gray, Random).
    pub cheap_reorder_per_nnz: f64,
    /// Preprocessing seconds per nonzero for heavy reorderings
    /// (partitioners, AMD/ND, Rabbit, SlashBurn).
    pub heavy_reorder_per_nnz: f64,
    /// Cluster-construction seconds per nonzero for fixed-length grouping.
    pub fixed_cluster_per_nnz: f64,
    /// Cluster-construction seconds per nonzero for variable (Jaccard
    /// growing) clustering.
    pub variable_cluster_per_nnz: f64,
    /// Cluster-construction seconds per nonzero for hierarchical
    /// clustering (similarity discovery is itself SpGEMM-shaped).
    pub hierarchical_cluster_per_nnz: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            seconds_per_madd: 1.5e-9,
            parallel_speedup: 4.0,
            reorder_gain: 0.25,
            cluster_gain: 0.6,
            cluster_row_overhead: 5e-9,
            cheap_reorder_per_nnz: 10e-9,
            heavy_reorder_per_nnz: 60e-9,
            fixed_cluster_per_nnz: 4e-9,
            variable_cluster_per_nnz: 25e-9,
            hierarchical_cluster_per_nnz: 120e-9,
        }
    }
}

impl CostModel {
    /// Prices `plan` on an operand with features `f`. `affinity` is the
    /// advisor's structural-evidence feature for the technique the plan
    /// realizes (`0` for the baseline): higher affinity predicts larger
    /// kernel savings from reordering/clustering, never larger prep cost.
    /// The parallel speedup applies only to a plan with
    /// [`Plan::parallel`] set. The plan's [`OutputShape`]
    /// contributes none either: a shaped plan is priced like the full one. That
    /// is what executes for top-k and for cluster-wise masked plans; a
    /// row-wise masked plan runs the fused kernel, which does every
    /// multiply but builds only the mask's entries, so for it the price is
    /// an upper bound until `calibrate` fits the fraction from shaped
    /// samples.
    pub fn estimate(&self, f: &OperandFeatures, plan: &Plan, affinity: f64) -> CostEstimate {
        let affinity = affinity.clamp(0.0, 1.0);
        let madds = f.estimated_madds();
        let nnz = f.nnz as f64;

        // Base kernel: madds × per-madd seconds.
        let mut kernel = madds * self.seconds_per_madd;

        if let Some(overlap) = cluster_overlap(f, plan, affinity) {
            kernel *= 1.0 - self.cluster_gain * overlap;
            kernel += self.cluster_row_overhead * f.nrows as f64;
        } else if plan.reorder != Reordering::Original {
            // Reordering improves locality of B-row accesses in proportion
            // to the advisor's confidence it applies.
            kernel *= 1.0 - self.reorder_gain * affinity;
        }
        if plan.parallel {
            kernel /= self.parallel_speedup.max(1.0);
        }

        // Preprocessing: permutation computation + cluster construction.
        let mut prep = match plan.reorder {
            Reordering::Original => 0.0,
            Reordering::Rcm | Reordering::Degree | Reordering::Gray | Reordering::Random => {
                self.cheap_reorder_per_nnz * nnz
            }
            _ => self.heavy_reorder_per_nnz * nnz,
        };
        prep += match plan.clustering {
            ClusteringStrategy::None => 0.0,
            ClusteringStrategy::Fixed(_) => self.fixed_cluster_per_nnz * nnz,
            ClusteringStrategy::Variable => self.variable_cluster_per_nnz * nnz,
            ClusteringStrategy::Hierarchical => self.hierarchical_cluster_per_nnz * nnz,
        };

        CostEstimate { prep_seconds: prep, kernel_seconds: kernel }
    }
}

/// The row-overlap term the cluster-wise kernel's gain is multiplied by,
/// `None` for a row-wise plan. Cluster-wise computation shares B-row
/// fetches between the rows of a cluster; the fraction shared tracks row
/// overlap. ClusterInPlace-style plans exploit overlap already present in
/// the row order (the measured consecutive Jaccard); Hierarchical
/// re-clusters from scratch — it destroys the existing order and
/// manufactures its own overlap — so its prediction leans on the advisor's
/// affinity alone. `affinity` must already be clamped to `[0, 1]`.
pub(crate) fn cluster_overlap(f: &OperandFeatures, plan: &Plan, affinity: f64) -> Option<f64> {
    let overlap = match plan.clustering {
        ClusteringStrategy::None => return None,
        ClusteringStrategy::Hierarchical => 0.5 * affinity,
        _ => f.profile.consecutive_jaccard.max(affinity * 0.5),
    };
    Some(overlap.min(0.95))
}

/// Exponentially weighted moving average with first-sample
/// initialization. The sample count is the evidence weight behind the
/// smoothed value: it is what gates plan switches.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ewma {
    value: f64,
    samples: u64,
}

impl Ewma {
    /// Empty average (no samples yet).
    pub fn new() -> Ewma {
        Ewma::default()
    }

    /// Folds in one observation (first observation sets the value).
    pub fn observe(&mut self, x: f64) {
        self.value =
            if self.samples == 0 { x } else { EWMA_ALPHA * x + (1.0 - EWMA_ALPHA) * self.value };
        self.samples += 1;
    }

    /// Current smoothed value (`0` before any observation).
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Observations folded in so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// One candidate plan tracked for an operand.
#[derive(Debug, Clone)]
struct Candidate {
    plan: Plan,
    predicted: CostEstimate,
    observed_kernel: Ewma,
}

/// Feedback for one operand: the seeded candidate set, the incumbent
/// choice, and the calibration state.
#[derive(Debug, Clone)]
struct OperandFeedback {
    candidates: Vec<Candidate>,
    chosen: usize,
    calibration: Ewma,
    replans: u64,
    /// Recency tick of the last seed/record touch (eviction order).
    last_used: u64,
}

impl OperandFeedback {
    /// Effective per-multiply cost of candidate `i` for ranking purposes:
    ///
    /// * with [`MIN_OBSERVATIONS_TO_SWITCH`]+ samples — the observed EWMA
    ///   (trusted outright);
    /// * with fewer — the *worse* of the observed EWMA and the calibrated
    ///   prediction, so one anomalously fast sample (a warm-cache forced
    ///   run, a CPU boost window) can never make an alternative look
    ///   better than the model believes it is;
    /// * untried — the calibrated prediction plus a prep surcharge
    ///   (switching to an untried plan pays its preprocessing;
    ///   already-tried plans are likely still cached).
    fn effective(&self, i: usize, policy: &PlanningPolicy) -> f64 {
        let c = &self.candidates[i];
        let calib = if self.calibration.samples() == 0 {
            1.0
        } else {
            self.calibration.value().clamp(CALIBRATION_CLAMP.0, CALIBRATION_CLAMP.1)
        };
        let predicted = c.predicted.kernel_seconds * calib;
        match c.observed_kernel.samples() {
            0 => predicted + c.predicted.prep_seconds / policy.expected_reuse.max(1.0),
            n if n < MIN_OBSERVATIONS_TO_SWITCH => c.observed_kernel.value().max(predicted),
            _ => c.observed_kernel.value(),
        }
    }
}

/// Point-in-time calibration snapshot for one executed plan, surfaced in
/// [`crate::ExecutionReport::feedback`] (and through it in the service's
/// per-request reports).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanFeedbackState {
    /// Times the executed plan has run on this operand.
    pub executions: u64,
    /// The cost model's kernel-seconds prediction for the executed plan.
    pub predicted_kernel_seconds: f64,
    /// EWMA of observed kernel seconds for the executed plan.
    pub observed_kernel_seconds: f64,
    /// Smoothed observed ÷ predicted ratio (clamped when applied to
    /// untried candidates; reported unclamped here).
    pub calibration: f64,
    /// Plan switches the feedback loop has made for this operand.
    pub replans: u64,
    /// Whether *this* observation triggered a switch (the next multiply
    /// will prepare and run a different plan).
    pub switched: bool,
    /// Candidate plans tracked for this operand.
    pub candidates: usize,
}

/// Per-operand execution feedback: observed-timing EWMAs that correct
/// the cost model's ranking after every multiply.
///
/// ```
/// use cw_engine::{CostEstimate, FeedbackStore, OperandKey, OutputShape, Plan, PlanningPolicy};
///
/// let key = (OperandKey::of(&cw_sparse::CsrMatrix::identity(8)), OutputShape::Full);
/// let mut store = FeedbackStore::new();
/// let fast = Plan::baseline();
/// store.seed(
///     key,
///     vec![(fast, CostEstimate { prep_seconds: 0.0, kernel_seconds: 1.0 })],
/// );
/// assert_eq!(store.chosen_plan(&key), Some(fast));
///
/// // Observations accumulate into an EWMA of real kernel seconds.
/// let policy = PlanningPolicy::default();
/// let state = store.record(key, fast, 1.25, &policy).unwrap();
/// assert_eq!(state.executions, 1);
/// assert!((state.observed_kernel_seconds - 1.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct FeedbackStore {
    entries: HashMap<(OperandKey, OutputShape), OperandFeedback>,
    capacity: usize,
    tick: u64,
}

/// Default bound on operands a [`FeedbackStore`] tracks before evicting
/// the least-recently-recorded entry.
pub const DEFAULT_FEEDBACK_CAPACITY: usize = 1024;

impl Default for FeedbackStore {
    fn default() -> Self {
        FeedbackStore::with_capacity(DEFAULT_FEEDBACK_CAPACITY)
    }
}

impl FeedbackStore {
    /// Empty store with the default operand bound
    /// ([`DEFAULT_FEEDBACK_CAPACITY`]).
    pub fn new() -> FeedbackStore {
        FeedbackStore::default()
    }

    /// Empty store tracking at most `capacity` operands. Serving traffic
    /// sees unbounded operand variety, so — like the plan cache — the
    /// store must not grow without bound: seeding a new operand at
    /// capacity evicts the least-recently-recorded entry (`capacity == 0`
    /// disables feedback entirely: nothing seeds, every lookup misses).
    pub fn with_capacity(capacity: usize) -> FeedbackStore {
        FeedbackStore { entries: HashMap::new(), capacity, tick: 0 }
    }

    /// The configured operand bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Operands currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been seeded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total plan switches made across all operands.
    pub fn total_replans(&self) -> u64 {
        self.entries.values().map(|e| e.replans).sum()
    }

    /// Drops every tracked operand: candidate sets, observation EWMAs,
    /// calibration, and replan counters all reset. The next sighting of
    /// any operand re-seeds from the planner as if it were new. This is
    /// what [`crate::Engine::reset`] calls alongside clearing the plan
    /// cache.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The currently chosen plan for `key`, if the operand was seeded.
    /// This is the planner-free fast path: repeated traffic resolves its
    /// plan with one hash lookup instead of re-profiling the operand.
    pub fn chosen_plan(&self, key: &(OperandKey, OutputShape)) -> Option<Plan> {
        self.entries.get(key).map(|e| e.candidates[e.chosen].plan)
    }

    /// Seeds the candidate set for `key` from the planner's cost-ranked
    /// list (best first — index 0 becomes the incumbent). Re-seeding an
    /// existing operand is a no-op so accumulated observations survive.
    /// Seeding a new operand at capacity first evicts the
    /// least-recently-recorded entry.
    pub fn seed(&mut self, key: (OperandKey, OutputShape), ranked: Vec<(Plan, CostEstimate)>) {
        assert!(!ranked.is_empty(), "candidate set must be non-empty");
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            let stalest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("at capacity implies at least one entry");
            self.entries.remove(&stalest);
        }
        let tick = self.tick;
        self.entries.entry(key).or_insert_with(|| OperandFeedback {
            candidates: ranked
                .into_iter()
                .map(|(plan, predicted)| Candidate {
                    plan,
                    predicted,
                    observed_kernel: Ewma::new(),
                })
                .collect(),
            chosen: 0,
            calibration: Ewma::new(),
            replans: 0,
            last_used: tick,
        });
    }

    /// Calibration snapshot for `key` relative to its *chosen* plan,
    /// without recording anything.
    pub fn state(&self, key: &(OperandKey, OutputShape)) -> Option<PlanFeedbackState> {
        let e = self.entries.get(key)?;
        Some(Self::snapshot(e, e.chosen, false))
    }

    fn snapshot(e: &OperandFeedback, executed: usize, switched: bool) -> PlanFeedbackState {
        let c = &e.candidates[executed];
        PlanFeedbackState {
            executions: c.observed_kernel.samples(),
            predicted_kernel_seconds: c.predicted.kernel_seconds,
            observed_kernel_seconds: c.observed_kernel.value(),
            calibration: if e.calibration.samples() == 0 { 1.0 } else { e.calibration.value() },
            replans: e.replans,
            switched,
            candidates: e.candidates.len(),
        }
    }

    /// Records one observed kernel time for `plan` on `key`, updates the
    /// EWMAs and calibration, and — when `policy` allows and the evidence
    /// clears the margin and noise floor — switches the chosen plan. Returns
    /// the post-update snapshot, or `None` for an unseeded operand (e.g.
    /// forced-only traffic).
    ///
    /// Demotion and promotion are the same comparison: every candidate gets
    /// an effective cost (observed EWMA when tried, calibrated prediction
    /// plus amortized prep surcharge when not), and the incumbent is
    /// replaced by the arg-min when it loses by more than [`SWITCH_MARGIN`].
    pub fn record(
        &mut self,
        key: (OperandKey, OutputShape),
        plan: Plan,
        kernel_seconds: f64,
        policy: &PlanningPolicy,
    ) -> Option<PlanFeedbackState> {
        self.tick += 1;
        let tick = self.tick;
        let e = self.entries.get_mut(&key)?;
        e.last_used = tick;
        // Plans outside the seeded candidate set (e.g. caller-forced
        // ablation plans) carry no ranking signal for auto traffic;
        // ignore them rather than corrupt the candidate set.
        let executed = e.candidates.iter().position(|c| c.plan == plan)?;
        e.candidates[executed].observed_kernel.observe(kernel_seconds);
        let predicted = e.candidates[executed].predicted.kernel_seconds;
        if predicted > 0.0 {
            e.calibration.observe(kernel_seconds / predicted);
        }

        let mut switched = false;
        let incumbent_obs = &e.candidates[e.chosen].observed_kernel;
        if policy.adapt
            && executed == e.chosen
            && incumbent_obs.samples() >= MIN_OBSERVATIONS_TO_SWITCH
        {
            let incumbent_cost = e.effective(e.chosen, policy);
            // The policy's preprocessing budget is a hard cap on switch
            // targets too: a re-plan prepares from scratch, so a candidate
            // whose predicted prep exceeds the budget is never eligible
            // no matter how fast it looks.
            let budget = policy.prep_budget_seconds.unwrap_or(f64::INFINITY);
            let best = (0..e.candidates.len())
                .filter(|&i| i == e.chosen || e.candidates[i].predicted.prep_seconds <= budget)
                .min_by(|&i, &j| e.effective(i, policy).total_cmp(&e.effective(j, policy)))
                .expect("candidate set is non-empty");
            let best_cost = e.effective(best, policy);
            if best != e.chosen
                && best_cost < incumbent_cost * (1.0 - SWITCH_MARGIN)
                && incumbent_cost - best_cost >= policy.min_adapt_gain_seconds
            {
                e.chosen = best;
                e.replans += 1;
                switched = true;
            }
        }
        Some(Self::snapshot(e, executed, switched))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::gen;

    fn full_key(a: &CsrMatrix) -> (OperandKey, OutputShape) {
        (OperandKey::of(a), OutputShape::Full)
    }

    fn features(nrows: usize, nnz: usize, jaccard: f64) -> OperandFeatures {
        OperandFeatures {
            nrows,
            ncols: nrows,
            nnz,
            profile: Profile {
                degree_skew: 2.0,
                relative_bandwidth: 0.3,
                consecutive_jaccard: jaccard,
                avg_row_nnz: nnz as f64 / nrows.max(1) as f64,
            },
        }
    }

    #[test]
    fn kernel_cost_is_monotone_in_work() {
        let model = CostModel::default();
        let small = model.estimate(&features(100, 500, 0.2), &Plan::baseline(), 0.0);
        let more_nnz = model.estimate(&features(100, 5000, 0.2), &Plan::baseline(), 0.0);
        let denser_rows = model.estimate(&features(50, 5000, 0.2), &Plan::baseline(), 0.0);
        assert!(more_nnz.kernel_seconds > small.kernel_seconds);
        // Same nnz packed into fewer rows → higher avg_row_nnz → more madds.
        assert!(denser_rows.kernel_seconds > more_nnz.kernel_seconds);
    }

    #[test]
    fn prep_cost_is_monotone_in_nnz_and_zero_for_baseline() {
        let model = CostModel::default();
        let plan = Plan { reorder: Reordering::Rcm, ..Plan::baseline() };
        let small = model.estimate(&features(100, 500, 0.2), &plan, 0.5);
        let large = model.estimate(&features(100, 5000, 0.2), &plan, 0.5);
        assert!(large.prep_seconds > small.prep_seconds);
        assert_eq!(
            model.estimate(&features(100, 500, 0.2), &Plan::baseline(), 0.0).prep_seconds,
            0.0
        );
    }

    #[test]
    fn higher_affinity_predicts_cheaper_kernels_never_cheaper_prep() {
        let model = CostModel::default();
        let f = features(1000, 8000, 0.1);
        let plan = Plan { reorder: Reordering::Rcm, ..Plan::baseline() };
        let low = model.estimate(&f, &plan, 0.1);
        let high = model.estimate(&f, &plan, 0.9);
        assert!(high.kernel_seconds < low.kernel_seconds);
        assert_eq!(high.prep_seconds, low.prep_seconds);
    }

    #[test]
    fn cluster_kernels_get_cheaper_with_row_overlap() {
        let model = CostModel::default();
        let plan = Plan { clustering: ClusteringStrategy::Variable, ..Plan::baseline() };
        let scattered = model.estimate(&features(1000, 8000, 0.05), &plan, 0.0);
        let grouped = model.estimate(&features(1000, 8000, 0.85), &plan, 0.85);
        assert!(grouped.kernel_seconds < scattered.kernel_seconds);
    }

    #[test]
    fn serial_backend_is_priced_without_the_parallel_speedup() {
        let model = CostModel::default();
        let f = features(2000, 16000, 0.2);
        let plan = Plan::baseline(); // parallel = true
        let fast = model.estimate(&f, &plan, 0.0);
        let slow = model.estimate(&f, &Plan { parallel: false, ..plan }, 0.0);
        assert!(
            (slow.kernel_seconds / fast.kernel_seconds - model.parallel_speedup).abs() < 1e-9,
            "a serial plan must not receive the parallel discount"
        );
    }

    #[test]
    fn output_shape_does_not_change_the_price() {
        // Top-k and cluster-wise masked plans execute the full product and
        // filter; the fused row-wise masked kernel does less, by a fraction
        // nobody has fitted. Until `calibrate` fits it the full price is an
        // upper bound for that plan, and no hand-set discount may undercut
        // it for any shape.
        let model = CostModel::default();
        let f = features(2000, 16000, 0.4);
        for plan in [
            Plan::baseline(),
            Plan { reorder: Reordering::Rcm, ..Plan::baseline() },
            Plan { clustering: ClusteringStrategy::Variable, ..Plan::baseline() },
        ] {
            let full = model.estimate(&f, &plan, 0.5);
            for shape in [OutputShape::Masked, OutputShape::TopK(2)] {
                assert_eq!(model.estimate(&f, &plan.with_shape(shape), 0.5), full, "{shape:?}");
            }
        }
    }

    #[test]
    fn amortized_cost_is_monotone_decreasing_in_reuse() {
        let est = CostEstimate { prep_seconds: 8.0, kernel_seconds: 1.0 };
        assert!(est.amortized(1.0) > est.amortized(4.0));
        assert!(est.amortized(4.0) > est.amortized(64.0));
        // reuse below 1 is clamped: prep can never amortize to more than
        // its full cost.
        assert_eq!(est.amortized(0.0), est.amortized(1.0));
    }

    #[test]
    fn heavy_reorderings_cost_more_prep_than_cheap_ones() {
        let model = CostModel::default();
        let f = features(1000, 8000, 0.1);
        let rcm = model.estimate(&f, &Plan { reorder: Reordering::Rcm, ..Plan::baseline() }, 0.5);
        let gp = model.estimate(&f, &Plan { reorder: Reordering::Gp(16), ..Plan::baseline() }, 0.5);
        assert!(gp.prep_seconds > rcm.prep_seconds);
    }

    #[test]
    fn ewma_initializes_and_smooths() {
        let mut e = Ewma::new();
        assert_eq!(e.value(), 0.0);
        e.observe(10.0);
        assert_eq!(e.value(), 10.0);
        e.observe(0.0);
        assert!((e.value() - 7.0).abs() < 1e-12, "{}", e.value());
        assert_eq!(e.samples(), 2);
    }

    fn two_candidate_store(
        key: (OperandKey, OutputShape),
        chosen_pred: f64,
        alt_pred: f64,
    ) -> (FeedbackStore, Plan, Plan) {
        let chosen = Plan::baseline();
        let alt = Plan { clustering: ClusteringStrategy::Fixed(4), ..Plan::baseline() };
        let mut store = FeedbackStore::new();
        store.seed(
            key,
            vec![
                (chosen, CostEstimate { prep_seconds: 0.0, kernel_seconds: chosen_pred }),
                (alt, CostEstimate { prep_seconds: 0.0, kernel_seconds: alt_pred }),
            ],
        );
        (store, chosen, alt)
    }

    #[test]
    fn feedback_demotes_a_plan_observed_worse_than_predicted() {
        let key = full_key(&gen::grid::poisson2d(6, 6));
        // Model says the chosen plan is 2× faster than the alternative...
        let (mut store, chosen, alt) = two_candidate_store(key, 1.0, 2.0);
        let policy = PlanningPolicy { min_adapt_gain_seconds: 0.0, ..PlanningPolicy::default() };
        // ...but it keeps clocking 10× slower than predicted.
        for i in 0..MIN_OBSERVATIONS_TO_SWITCH {
            let state = store.record(key, chosen, 10.0, &policy).unwrap();
            assert_eq!(state.executions, i + 1);
            if i + 1 < MIN_OBSERVATIONS_TO_SWITCH {
                assert!(
                    !state.switched,
                    "must not switch before {MIN_OBSERVATIONS_TO_SWITCH} samples"
                );
            } else {
                assert!(state.switched, "persistent 10× misprediction must demote");
                assert_eq!(state.replans, 1);
            }
        }
        assert_eq!(store.chosen_plan(&key).unwrap(), alt);
        assert_eq!(store.total_replans(), 1);
    }

    #[test]
    fn feedback_keeps_a_plan_that_performs_as_predicted() {
        let key = full_key(&gen::grid::poisson2d(7, 7));
        let (mut store, chosen, _) = two_candidate_store(key, 1.0, 2.0);
        let policy = PlanningPolicy { min_adapt_gain_seconds: 0.0, ..PlanningPolicy::default() };
        for _ in 0..10 {
            let state = store.record(key, chosen, 1.05, &policy).unwrap();
            assert!(!state.switched);
        }
        assert_eq!(store.chosen_plan(&key).unwrap(), chosen);
        assert_eq!(store.total_replans(), 0);
    }

    #[test]
    fn noise_floor_suppresses_microsecond_replanning() {
        let key = full_key(&gen::grid::poisson2d(8, 8));
        let (mut store, chosen, _) = two_candidate_store(key, 1e-6, 2e-6);
        // Default policy: observed 10 µs ≪ the 200 µs floor, never switch.
        let policy = PlanningPolicy::default();
        for _ in 0..10 {
            let state = store.record(key, chosen, 1e-5, &policy).unwrap();
            assert!(!state.switched);
        }
        assert_eq!(store.chosen_plan(&key).unwrap(), chosen);
    }

    #[test]
    fn prep_budget_bars_over_budget_switch_targets() {
        // The alternative looks far faster once the incumbent disappoints,
        // but its predicted preprocessing blows the policy's hard budget —
        // it must never become the chosen plan.
        let key = full_key(&gen::grid::poisson2d(13, 13));
        let chosen = Plan::baseline();
        let heavy = Plan { clustering: ClusteringStrategy::Hierarchical, ..Plan::baseline() };
        let mut store = FeedbackStore::new();
        store.seed(
            key,
            vec![
                (chosen, CostEstimate { prep_seconds: 0.0, kernel_seconds: 1.0 }),
                (heavy, CostEstimate { prep_seconds: 10.0, kernel_seconds: 0.05 }),
            ],
        );
        let policy = PlanningPolicy {
            prep_budget_seconds: Some(0.0),
            min_adapt_gain_seconds: 0.0,
            ..PlanningPolicy::default()
        };
        for _ in 0..8 {
            let state = store.record(key, chosen, 10.0, &policy).unwrap();
            assert!(!state.switched, "over-budget candidate must be ineligible");
        }
        assert_eq!(store.chosen_plan(&key).unwrap(), chosen);

        // Lifting the budget makes the same switch legal.
        let unbounded = PlanningPolicy { prep_budget_seconds: None, ..policy };
        let state = store.record(key, chosen, 10.0, &unbounded).unwrap();
        assert!(state.switched);
        assert_eq!(store.chosen_plan(&key).unwrap(), heavy);
    }

    #[test]
    fn store_capacity_evicts_least_recently_recorded_operand() {
        let keys: Vec<_> = (4..8).map(|n| full_key(&gen::grid::poisson2d(n, n))).collect();
        let mut store = FeedbackStore::with_capacity(2);
        assert_eq!(store.capacity(), 2);
        let seed_one = |store: &mut FeedbackStore, k| {
            store.seed(k, vec![(Plan::baseline(), CostEstimate::default())]);
        };
        seed_one(&mut store, keys[0]);
        seed_one(&mut store, keys[1]);
        // Touch keys[0] so keys[1] becomes the eviction victim.
        let policy = PlanningPolicy::default();
        store.record(keys[0], Plan::baseline(), 1.0, &policy).unwrap();
        seed_one(&mut store, keys[2]);
        assert_eq!(store.len(), 2);
        assert!(store.chosen_plan(&keys[1]).is_none(), "stalest entry evicted");
        assert!(store.chosen_plan(&keys[0]).is_some());
        assert!(store.chosen_plan(&keys[2]).is_some());

        // Zero capacity disables feedback entirely.
        let mut off = FeedbackStore::with_capacity(0);
        seed_one(&mut off, keys[3]);
        assert!(off.is_empty());
        assert!(off.record(keys[3], Plan::baseline(), 1.0, &policy).is_none());
    }

    #[test]
    fn clear_forgets_every_operand() {
        let key = full_key(&gen::grid::poisson2d(12, 12));
        let (mut store, chosen, _) = two_candidate_store(key, 1.0, 2.0);
        let policy = PlanningPolicy::default();
        store.record(key, chosen, 1.0, &policy).unwrap();
        assert!(!store.is_empty());
        store.clear();
        assert!(store.is_empty());
        assert!(store.chosen_plan(&key).is_none());
        assert_eq!(store.total_replans(), 0);
    }

    #[test]
    fn frozen_policy_observes_but_never_switches() {
        let key = full_key(&gen::grid::poisson2d(9, 9));
        let (mut store, chosen, _) = two_candidate_store(key, 1.0, 2.0);
        let policy = PlanningPolicy { min_adapt_gain_seconds: 0.0, ..PlanningPolicy::frozen() };
        for _ in 0..6 {
            let state = store.record(key, chosen, 50.0, &policy).unwrap();
            assert!(!state.switched);
        }
        let state = store.state(&key).unwrap();
        assert_eq!(store.chosen_plan(&key).unwrap(), chosen);
        assert!(state.observed_kernel_seconds > 10.0, "EWMA still accumulates");
        assert!(state.calibration > 10.0, "calibration still accumulates");
    }

    #[test]
    fn reseeding_preserves_observations() {
        let key = full_key(&gen::grid::poisson2d(10, 10));
        let (mut store, chosen, _) = two_candidate_store(key, 1.0, 2.0);
        let policy = PlanningPolicy::default();
        store.record(key, chosen, 5.0, &policy).unwrap();
        store.seed(key, vec![(chosen, CostEstimate::default())]);
        let state = store.state(&key).unwrap();
        assert_eq!(state.executions, 1, "re-seed must not discard history");
        assert_eq!(state.candidates, 2, "re-seed must not replace the candidate set");
    }

    #[test]
    fn unseeded_and_unknown_knobs_are_ignored() {
        let key = full_key(&gen::grid::poisson2d(5, 5));
        let mut store = FeedbackStore::new();
        let policy = PlanningPolicy::default();
        assert!(store.record(key, Plan::baseline(), 1.0, &policy).is_none());
        store.seed(key, vec![(Plan::baseline(), CostEstimate::default())]);
        let alien = Plan { clustering: ClusteringStrategy::Hierarchical, ..Plan::baseline() };
        assert!(store.record(key, alien, 1.0, &policy).is_none());
    }

    #[test]
    fn surprise_promotion_switches_to_a_consistently_observed_faster_plan() {
        // The incumbent performs as predicted, but a forced ablation sweep
        // reveals the alternative is far faster than the model thought:
        // once the alternative has enough samples of its own, incumbent
        // observations trigger promotion.
        let key = full_key(&gen::grid::poisson2d(11, 11));
        let (mut store, chosen, alt) = two_candidate_store(key, 1.0, 2.0);
        let policy = PlanningPolicy { min_adapt_gain_seconds: 0.0, ..PlanningPolicy::default() };
        // One anomalously fast sample is NOT enough: under-sampled
        // candidates are priced at the worse of observation and
        // calibrated prediction, so a single lucky run cannot win.
        store.record(key, alt, 0.2, &policy).unwrap();
        for _ in 0..MIN_OBSERVATIONS_TO_SWITCH {
            assert!(!store.record(key, chosen, 1.0, &policy).unwrap().switched);
        }
        assert_eq!(store.chosen_plan(&key).unwrap(), chosen);

        // Consistent fast observations (a real ablation sweep) do promote.
        for _ in 0..MIN_OBSERVATIONS_TO_SWITCH {
            store.record(key, alt, 0.2, &policy).unwrap();
        }
        let state = store.record(key, chosen, 1.0, &policy).unwrap();
        assert!(state.switched, "consistently observed-faster alternative must be promoted");
        assert_eq!(store.chosen_plan(&key).unwrap(), alt);
    }
}
