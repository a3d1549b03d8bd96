//! Preparation prices, and the race that picks a plan by measuring it.
//!
//! The planner keeps the advisor's order and prices only what a plan adds
//! before its first multiply: `prep_seconds` turns per-nonzero row-order
//! rates (the paper's Fig. 10 costs, one constant per class) into
//! preparation seconds, and [`PlanningPolicy::admits`] lets a plan run
//! when that is at most half of `expected_reuse` multiplies — the predicted
//! multiply before any has run, the measured `t₀` after.
//!
//! Kernel seconds are measured, never predicted: analytic predictions of
//! which order wins are frequently wrong (Asudeh et al.). Per operand and
//! output shape the [`FeedbackStore`] runs rank 0 first. It locks rank 0
//! at its first run when the policy is frozen, that run is under
//! [`MIN_RACE_SECONDS`], or no challenger is admitted on it. Otherwise rank
//! 0 runs once more and `t₀` is the faster of the two — a first run reads a
//! freshly prepared operand and takes ×2–3 its warm time — and the same
//! tests decide again on `t₀`. A race runs up to three challengers admitted
//! on `t₀` round-robin with rank 0, each prepared once, until every one has
//! [`RACE_SAMPLES`] samples, and the lowest median is locked for the life of
//! the store entry.

use crate::cache::OperandKey;
use crate::plan::{OutputShape, Plan};
use cw_reorder::Reordering;
use std::collections::HashMap;

/// Kernel seconds under which rank 0 is locked without a race: at
/// microsecond scales timing noise (and debug-build distortion) dwarfs any
/// real difference between plans.
pub const MIN_RACE_SECONDS: f64 = 1e-3;

/// Samples every raced plan collects before the lock; the median decides.
pub const RACE_SAMPLES: usize = 3;

/// Most challengers a race runs beside rank 0.
const MAX_CHALLENGERS: usize = 3;

/// Rank 0's runs `t₀` is the best of whenever its first run leaves a race
/// possible; both count toward its [`RACE_SAMPLES`].
const T0_SAMPLES: usize = 2;

/// Caller-supplied planning knobs: how much reuse preparation may be
/// charged against, and whether a race may replace the first pick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanningPolicy {
    /// Expected multiplies per prepared operand: a plan is admitted when
    /// its predicted preparation costs at most half of this many multiplies
    /// (`1` = one-shot traffic, where preparation almost never pays).
    pub expected_reuse: f64,
    /// Allow a race. `false` locks rank 0 at its first run.
    pub adapt: bool,
}

impl Default for PlanningPolicy {
    fn default() -> Self {
        PlanningPolicy { expected_reuse: 16.0, adapt: true }
    }
}

impl PlanningPolicy {
    /// No race: the planner's first admitted plan runs for good.
    pub fn frozen() -> PlanningPolicy {
        PlanningPolicy { adapt: false, ..PlanningPolicy::default() }
    }

    /// Whether a plan predicted to prepare in `prep_seconds` may run on an
    /// operand whose multiply takes `op_seconds`: at most
    /// `expected_reuse × op_seconds × ½`. A plan with no preparation is
    /// always admitted.
    pub fn admits(&self, prep_seconds: f64, op_seconds: f64) -> bool {
        prep_seconds <= 0.0 || prep_seconds <= self.expected_reuse * op_seconds * 0.5
    }
}

// Per-nonzero preparation rates, plus the one multiply-add rate that
// predicts a multiply before any has run. They are deliberately rough: they
// only decide which plans may be tried, and the race measures the ones that
// are.

/// Seconds per multiply-add of the row-wise kernel: prices the predicted
/// multiply that admission uses until `t₀` is measured.
const SECONDS_PER_MADD: f64 = 1.5e-9;

/// Preparation seconds per nonzero for cheap, BFS/sort-class reorderings
/// (RCM, Degree, Gray, Random).
const CHEAP_REORDER_PER_NNZ: f64 = 10e-9;

/// Preparation seconds per nonzero for heavy reorderings (partitioners,
/// AMD/ND, Rabbit, SlashBurn), set at or below GP's lowest measured rate: a
/// partitioner priced below its cost is admitted on operands where it costs
/// seconds. Measured in ns per nonzero (`compute` + `permute_rows`, one
/// worker, median of 3, 2-vCPU x86-64) on symmetric-shuffled
/// `tri_mesh(240, 240)`, `block_diagonal(40 000, (6, 10), 0.02)`,
/// `rmat(12, 6)` and `rmat(14, 4)`:
///
/// | Order | Measured | Priced |
/// |---|---|---|
/// | GP(16) | 901–3 832 | 700 (heavy) |
/// | SlashBurn | 48–1 806 | 700 (heavy) |
/// | Rabbit | 150–486 | 700 (heavy) |
/// | Hierarchical | 70–638 | 60 |
/// | RCM | 38–71 | 10 (cheap) |
/// | Degree | 5–11 | 10 (cheap) |
const HEAVY_REORDER_PER_NNZ: f64 = 700e-9;

/// Preparation seconds per nonzero for hierarchical clustering's row order
/// (similarity discovery is itself SpGEMM-shaped), at or below its lowest
/// measured rate: 61 ns for `hierarchical_clustering` on shuffled
/// `tri_mesh(240, 240)` in a traced benchmark run (`core.hierarchical_s` ÷
/// nnz), below the table's 70.
const HIERARCHICAL_PER_NNZ: f64 = 60e-9;

/// Predicted seconds of one `A·B` for a `B` structurally like `A`, with
/// `nnz` stored entries of `avg_row_nnz` per row: every `a_ik` pulls about
/// `avg_row_nnz` products (exact for `A²` when rows are uniform).
pub(crate) fn op_seconds(nnz: usize, avg_row_nnz: f64) -> f64 {
    nnz as f64 * avg_row_nnz.max(1.0) * SECONDS_PER_MADD
}

/// Predicted one-off seconds to prepare `plan` on an operand of `nnz`
/// stored entries: its row order. The baseline costs nothing; parallelism
/// and output shape price nothing.
pub(crate) fn prep_seconds(plan: &Plan, nnz: usize) -> f64 {
    let per_nnz = match plan.reorder {
        Reordering::Original => 0.0,
        Reordering::Rcm | Reordering::Degree | Reordering::Gray | Reordering::Random => {
            CHEAP_REORDER_PER_NNZ
        }
        Reordering::Hierarchical => HIERARCHICAL_PER_NNZ,
        _ => HEAVY_REORDER_PER_NNZ,
    };
    per_nnz * nnz as f64
}

/// One plan an operand may run.
#[derive(Debug, Clone)]
struct Candidate {
    plan: Plan,
    prep_seconds: f64,
    /// Kernel seconds of its first [`RACE_SAMPLES`] raced runs.
    samples: Vec<f64>,
    executions: u64,
}

/// The race for one operand and shape.
#[derive(Debug, Clone)]
struct Race {
    /// Rank 0 first, then the challengers in the planner's order: every
    /// seeded candidate until `t₀`, then only those admitted on it.
    candidates: Vec<Candidate>,
    locked: Option<usize>,
    /// Recency tick of the last seed/record touch (eviction order).
    last_used: u64,
}

impl Race {
    /// Index of the plan the next multiply runs: the lock, else rank 0
    /// until `t₀` is known, then the candidate with the fewest samples —
    /// round-robin.
    fn next(&self) -> usize {
        let samples = |i: &usize| self.candidates[*i].samples.len();
        let fewest = || (0..self.candidates.len()).min_by_key(samples).expect("rank 0 is seeded");
        self.locked.unwrap_or_else(|| if samples(&0) < T0_SAMPLES { 0 } else { fewest() })
    }

    /// Adds a sample of the plan [`Race::next`] names; returns whether the
    /// sample locked a plan other than rank 0.
    fn sample(&mut self, seconds: f64, policy: &PlanningPolicy) -> bool {
        let i = self.next();
        self.candidates[i].samples.push(seconds);
        let rank0_runs = self.candidates[0].samples.len();
        if i == 0 && rank0_runs <= T0_SAMPLES {
            // `t₀`: rank 0's best run so far. Keep rank 0 and the challengers
            // admitted on it, if any — after a second run when the first
            // admits one, since the first runs on a freshly prepared operand.
            let t0 = self.candidates[0].samples.iter().copied().fold(f64::INFINITY, f64::min);
            let race = policy.adapt && t0 >= MIN_RACE_SECONDS;
            let admitted = |c: &Candidate| race && policy.admits(c.prep_seconds, t0);
            if rank0_runs < T0_SAMPLES && self.candidates[1..].iter().any(admitted) {
                return false;
            }
            let mut seeded = std::mem::take(&mut self.candidates).into_iter();
            let rank0 = seeded.next().expect("a race has a rank 0");
            let admitted = seeded.filter(admitted).take(MAX_CHALLENGERS);
            self.candidates = std::iter::once(rank0).chain(admitted).collect();
        }
        let unfinished = |c: &Candidate| c.samples.len() < RACE_SAMPLES;
        if self.candidates.len() > 1 && self.candidates.iter().any(unfinished) {
            return false;
        }
        let median = |i: &usize| {
            let mut s = self.candidates[*i].samples.clone();
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        };
        // `min_by` keeps the first of equal medians: ties go to rank order.
        let range = 0..self.candidates.len();
        let winner = range.min_by(|x, y| median(x).total_cmp(&median(y))).expect("rank 0 races");
        self.locked = Some(winner);
        winner != 0
    }

    /// Whether the lock landed on a plan other than rank 0 (0 or 1).
    fn replans(&self) -> u64 {
        u64::from(self.locked.is_some_and(|i| i != 0))
    }
}

/// Point-in-time race state for one executed plan, surfaced in
/// [`crate::ExecutionReport::feedback`] (and through it in the service's
/// per-request reports).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanFeedbackState {
    /// Times the executed plan has run on this operand.
    pub executions: u64,
    /// 1 once the race locked a plan other than rank 0, else 0.
    pub replans: u64,
    /// Whether *this* observation locked a plan other than rank 0 (the
    /// next multiply runs the winner).
    pub switched: bool,
    /// Plans in this operand's race: every seeded candidate until `t₀` is
    /// known, then rank 0 and the challengers admitted on it.
    pub candidates: usize,
    /// Whether the plan is locked: no other plan runs on this operand
    /// again while the entry lives.
    pub locked: bool,
}

/// Per-operand races: which plan each operand and shape runs next, and the
/// lock once it is decided.
///
/// ```
/// use cw_engine::{FeedbackStore, OperandKey, OutputShape, Plan, PlanningPolicy};
///
/// let key = (OperandKey::of(&cw_sparse::CsrMatrix::identity(8)), OutputShape::Full);
/// let mut store = FeedbackStore::new();
/// store.seed(key, vec![(Plan::baseline(), 0.0)]);
/// assert_eq!(store.chosen_plan(&key), Some(Plan::baseline()));
///
/// // One candidate: its first run locks it.
/// let state = store.record(key, Plan::baseline(), 0.25, &PlanningPolicy::default()).unwrap();
/// assert!(state.locked && !state.switched);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FeedbackStore {
    entries: HashMap<(OperandKey, OutputShape), Race>,
    tick: u64,
}

/// Operands a [`FeedbackStore`] tracks. Serving traffic sees unbounded
/// operand variety, so — like the plan cache — the store must not grow
/// without bound: seeding a new operand at this many evicts the
/// least-recently-recorded entry, and with it its lock.
pub const DEFAULT_FEEDBACK_CAPACITY: usize = 1024;

impl FeedbackStore {
    /// Empty store holding at most [`DEFAULT_FEEDBACK_CAPACITY`] operands.
    pub fn new() -> FeedbackStore {
        FeedbackStore::default()
    }

    /// Operands currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been seeded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Locks on a plan other than rank 0, across all operands.
    pub fn total_replans(&self) -> u64 {
        self.entries.values().map(Race::replans).sum()
    }

    /// Drops every tracked operand, locks included: the next sighting of
    /// any operand re-seeds from the planner as if it were new. This is
    /// what [`crate::Engine::reset`] calls alongside clearing the plan
    /// cache.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The plan the next multiply on `key` runs, if the operand was seeded:
    /// rank 0 until `t₀` is known, then each racer in turn, then the lock. This is
    /// the planner-free fast path: repeated traffic resolves its plan with
    /// one hash lookup instead of re-profiling the operand.
    pub fn chosen_plan(&self, key: &(OperandKey, OutputShape)) -> Option<Plan> {
        self.entries.get(key).map(|r| r.candidates[r.next()].plan)
    }

    /// Seeds the race for `key` with `(plan, predicted preparation
    /// seconds)` pairs: index 0 is rank 0 and runs first, the rest are
    /// challengers in order, admitted on `t₀`. Re-seeding an existing
    /// operand is a no-op, so a race in progress (or its lock) survives.
    /// Seeding a new operand at [`DEFAULT_FEEDBACK_CAPACITY`] first evicts
    /// the least-recently-recorded entry.
    pub fn seed(&mut self, key: (OperandKey, OutputShape), ranked: Vec<(Plan, f64)>) {
        assert!(!ranked.is_empty(), "candidate set must be non-empty");
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= DEFAULT_FEEDBACK_CAPACITY {
            let stalest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("at capacity implies at least one entry");
            self.entries.remove(&stalest);
        }
        let tick = self.tick;
        self.entries.entry(key).or_insert_with(|| Race {
            candidates: ranked
                .into_iter()
                .map(|(plan, prep_seconds)| Candidate {
                    plan,
                    prep_seconds,
                    samples: Vec::with_capacity(RACE_SAMPLES),
                    executions: 0,
                })
                .collect(),
            locked: None,
            last_used: tick,
        });
    }

    /// Race snapshot for `key` relative to the plan it runs next, without
    /// recording anything.
    pub fn state(&self, key: &(OperandKey, OutputShape)) -> Option<PlanFeedbackState> {
        let race = self.entries.get(key)?;
        Some(Self::snapshot(race, race.next(), false))
    }

    fn snapshot(race: &Race, executed: usize, switched: bool) -> PlanFeedbackState {
        PlanFeedbackState {
            executions: race.candidates[executed].executions,
            replans: race.replans(),
            switched,
            candidates: race.candidates.len(),
            locked: race.locked.is_some(),
        }
    }

    /// Records one run of `plan` on `key` that took `kernel_seconds`.
    /// Rank 0's first run locks rank 0 when it leaves no race possible under
    /// `policy`; otherwise its second run makes `t₀` the faster of the two,
    /// which locks rank 0 or starts the race. While the race runs, a run of the plan
    /// [`FeedbackStore::chosen_plan`] named is that racer's next sample,
    /// and the last of [`RACE_SAMPLES`] per racer locks the lowest median;
    /// any other run, and every run after the lock, only counts. Returns the
    /// post-update snapshot, or `None` for an unseeded operand or a plan
    /// outside its candidates.
    pub fn record(
        &mut self,
        key: (OperandKey, OutputShape),
        plan: Plan,
        kernel_seconds: f64,
        policy: &PlanningPolicy,
    ) -> Option<PlanFeedbackState> {
        self.tick += 1;
        let tick = self.tick;
        let race = self.entries.get_mut(&key)?;
        race.last_used = tick;
        let executed = race.candidates.iter().position(|c| c.plan == plan)?;
        race.candidates[executed].executions += 1;
        let switched =
            race.locked.is_none() && executed == race.next() && race.sample(kernel_seconds, policy);
        Some(Self::snapshot(race, executed, switched))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::gen;

    fn key(n: usize) -> (OperandKey, OutputShape) {
        (OperandKey::of(&gen::grid::poisson2d(n, n)), OutputShape::Full)
    }

    /// A distinct plan per `k`.
    fn gp(k: usize) -> Plan {
        Plan { reorder: Reordering::Gp(k), ..Plan::baseline() }
    }

    fn seeded(key: (OperandKey, OutputShape), plans: &[Plan]) -> FeedbackStore {
        let mut store = FeedbackStore::new();
        store.seed(key, plans.iter().map(|&p| (p, 0.0)).collect());
        store
    }

    /// Runs whatever the store picks, `seconds(plan)` each, `ops` times;
    /// returns the 1-based record after which the store was locked.
    fn drive(
        store: &mut FeedbackStore,
        key: (OperandKey, OutputShape),
        ops: usize,
        mut seconds: impl FnMut(Plan) -> f64,
    ) -> Option<usize> {
        let policy = PlanningPolicy::default();
        let mut locked_at = None;
        for op in 1..=ops {
            let plan = store.chosen_plan(&key).unwrap();
            if store.record(key, plan, seconds(plan), &policy).unwrap().locked {
                locked_at = locked_at.or(Some(op));
            }
        }
        locked_at
    }

    #[test]
    fn prep_cost_is_monotone_in_nnz_and_zero_for_baseline() {
        let rcm = Plan { reorder: Reordering::Rcm, ..Plan::baseline() };
        assert_eq!(prep_seconds(&Plan::baseline(), 5000), 0.0);
        assert!(prep_seconds(&rcm, 5000) > prep_seconds(&rcm, 500));
        let hierarchical = Plan { reorder: Reordering::Hierarchical, ..Plan::baseline() };
        let expect = HIERARCHICAL_PER_NNZ * 5000.0;
        assert!((prep_seconds(&hierarchical, 5000) - expect).abs() < 1e-18);
    }

    #[test]
    fn heavy_reorderings_cost_more_prep_than_cheap_ones() {
        let rcm = Plan { reorder: Reordering::Rcm, ..Plan::baseline() };
        let gp = Plan { reorder: Reordering::Gp(16), ..Plan::baseline() };
        assert!(prep_seconds(&gp, 8000) > prep_seconds(&rcm, 8000));
    }

    #[test]
    fn output_shape_does_not_change_the_price() {
        let hierarchical = Plan { reorder: Reordering::Hierarchical, ..Plan::baseline() };
        for plan in [Plan { reorder: Reordering::Rcm, ..Plan::baseline() }, hierarchical] {
            for shape in [OutputShape::Masked, OutputShape::TopK(2)] {
                let shaped = prep_seconds(&plan.with_shape(shape), 16000);
                assert_eq!(shaped, prep_seconds(&plan, 16000), "{shape:?}");
            }
        }
    }

    #[test]
    fn serial_backend_is_priced_without_the_parallel_speedup() {
        // Preparation is the same work serial or parallel, and the predicted
        // multiply is one rate for both: no plan field but the row order
        // moves a price.
        let plan = Plan { reorder: Reordering::Hierarchical, ..Plan::baseline() };
        let serial = Plan { parallel: false, ..plan };
        assert_eq!(prep_seconds(&serial, 16000), prep_seconds(&plan, 16000));
    }

    #[test]
    fn kernel_cost_is_monotone_in_work() {
        // The predicted multiply admission uses before `t₀`.
        assert!(op_seconds(5000, 5.0) > op_seconds(500, 5.0));
        assert!(op_seconds(5000, 10.0) > op_seconds(5000, 5.0));
        assert_eq!(op_seconds(100, 0.2), op_seconds(100, 1.0));
    }

    #[test]
    fn admission_is_half_the_reuse_and_within_budget() {
        let policy = PlanningPolicy::default(); // reuse 16: 8 multiplies
        assert!(policy.admits(8.0, 1.0));
        assert!(!policy.admits(8.01, 1.0));
        assert!(policy.admits(0.0, 0.0), "no preparation is always admitted");
        assert!(!PlanningPolicy { expected_reuse: 1.0, ..policy }.admits(0.6, 1.0));
        let negative = PlanningPolicy { expected_reuse: -1.0, ..policy };
        assert!(negative.admits(0.0, 1.0), "not even a negative reuse rejects the baseline");
    }

    #[test]
    fn a_planted_fastest_plan_locks_within_one_plus_r_m_then_never_switches() {
        for m in 2..=4 {
            let plans: Vec<Plan> = (1..=m).map(gp).collect();
            for fastest in 0..m {
                let key = key(4 + m);
                let mut store = seeded(key, &plans);
                let seconds = |p: Plan| if p == plans[fastest] { 0.010 } else { 0.020 };
                let locked_at = drive(&mut store, key, RACE_SAMPLES * m, seconds);
                assert!(locked_at.is_some(), "m = {m}: no lock within R·m records");
                assert_eq!(store.chosen_plan(&key), Some(plans[fastest]), "m = {m}");
                // Locked: a thousand records of any timing move nothing.
                for op in 0..1000 {
                    let plan = store.chosen_plan(&key).unwrap();
                    let state = store.record(key, plan, 1.0 + op as f64, &Default::default());
                    assert!(!state.unwrap().switched);
                }
                assert_eq!(store.chosen_plan(&key), Some(plans[fastest]), "m = {m}");
                assert_eq!(store.total_replans(), u64::from(fastest != 0), "m = {m}");
            }
        }
    }

    #[test]
    fn feedback_demotes_a_plan_observed_worse_than_predicted() {
        // Rank 0 is the planner's prediction; it measures twice as slow as
        // the challenger, so the lock lands on the challenger.
        let key = key(6);
        let (rank0, alt) = (gp(1), gp(2));
        let mut store = seeded(key, &[rank0, alt]);
        let policy = PlanningPolicy::default();
        // Rank 0 twice for `t₀`, then round-robin from the fewest samples.
        let order = [rank0, rank0, alt, alt, rank0, alt];
        assert_eq!(order.len(), 2 * RACE_SAMPLES);
        for (i, &expected) in order.iter().enumerate() {
            let plan = store.chosen_plan(&key).unwrap();
            assert_eq!(plan, expected, "record {i}");
            let state = store.record(key, plan, if plan == rank0 { 0.02 } else { 0.01 }, &policy);
            let state = state.unwrap();
            assert_eq!(state.switched, i + 1 == 2 * RACE_SAMPLES, "record {i}");
            assert_eq!(state.locked, state.switched, "record {i}");
        }
        assert_eq!(store.chosen_plan(&key), Some(alt));
        assert_eq!(store.total_replans(), 1);
    }

    #[test]
    fn feedback_keeps_a_plan_that_performs_as_predicted() {
        let key = key(7);
        let (rank0, alt) = (gp(1), gp(2));
        let mut store = seeded(key, &[rank0, alt]);
        let locked_at = drive(&mut store, key, 20, |p| if p == rank0 { 0.010 } else { 0.011 });
        assert_eq!(locked_at, Some(2 * RACE_SAMPLES));
        assert_eq!(store.chosen_plan(&key), Some(rank0));
        assert_eq!(store.total_replans(), 0);
    }

    #[test]
    fn surprise_promotion_switches_to_a_consistently_observed_faster_plan() {
        // One lucky sample does not win a race; a median does.
        let key = key(11);
        let (rank0, lucky, steady) = (gp(1), gp(2), gp(3));
        let mut store = seeded(key, &[rank0, lucky, steady]);
        let mut runs = std::collections::HashMap::new();
        let locked_at = drive(&mut store, key, 9, |p| {
            let n = *runs.entry(p).and_modify(|n| *n += 1).or_insert(0usize);
            match p {
                p if p == lucky => [0.001, 0.030, 0.030][n],
                p if p == steady => [0.008, 0.050, 0.008][n],
                _ => 0.010,
            }
        });
        assert_eq!(locked_at, Some(3 * RACE_SAMPLES));
        assert_eq!(store.chosen_plan(&key), Some(steady));
    }

    #[test]
    fn noise_floor_suppresses_microsecond_replanning() {
        let key = key(8);
        let mut store = seeded(key, &[gp(1), gp(2)]);
        let t0 = MIN_RACE_SECONDS * 0.99;
        let state = store.record(key, gp(1), t0, &PlanningPolicy::default()).unwrap();
        assert!(state.locked && !state.switched, "t₀ under the floor locks at op 1");
        assert_eq!(store.chosen_plan(&key), Some(gp(1)));
    }

    #[test]
    fn frozen_policy_observes_but_never_switches() {
        let key = key(9);
        let mut store = seeded(key, &[gp(1), gp(2)]);
        let frozen = PlanningPolicy::frozen();
        for i in 0..6 {
            let state = store.record(key, gp(1), 50.0, &frozen).unwrap();
            assert!(state.locked && !state.switched);
            assert_eq!(state.executions, i + 1, "runs still count");
        }
        assert_eq!(store.chosen_plan(&key), Some(gp(1)));
        assert_eq!(store.total_replans(), 0);
    }

    #[test]
    fn admission_on_t0_rejects_a_challenger_that_would_not_pay() {
        // t₀ = 10 ms at reuse 16 admits up to 80 ms of predicted preparation.
        let key = key(12);
        let (rank0, cheap, dear) = (gp(1), gp(2), gp(3));
        let mut store = FeedbackStore::new();
        store.seed(key, vec![(rank0, 0.0), (dear, 0.081), (cheap, 0.079)]);
        let policy = PlanningPolicy::default();
        store.record(key, rank0, 0.010, &policy).unwrap();
        let mut ran = Vec::new();
        while !store.state(&key).unwrap().locked {
            let plan = store.chosen_plan(&key).unwrap();
            ran.push(plan);
            store.record(key, plan, if plan == dear { 0.001 } else { 0.010 }, &policy);
        }
        assert!(ran.contains(&cheap) && !ran.contains(&dear), "{ran:?}");
        assert_eq!(ran.len(), 2 * RACE_SAMPLES - 1, "rank 0 and one challenger");
    }

    #[test]
    fn prep_budget_bars_over_budget_switch_targets() {
        // The budget is `expected_reuse × t₀ × ½`: 5 ms at reuse 0.01 and
        // `t₀` = 1 s.
        let key = key(13);
        let (rank0, heavy) = (gp(1), gp(2));
        let mut store = FeedbackStore::new();
        store.seed(key, vec![(rank0, 0.0), (heavy, 0.01)]);
        let budget = PlanningPolicy { expected_reuse: 0.01, ..Default::default() };
        assert!(store.record(key, rank0, 1.0, &budget).unwrap().locked);
        assert_eq!(store.chosen_plan(&key), Some(rank0));
        // Lifting the budget lets the same challenger race, once rank 0's
        // second run has made `t₀`.
        let mut store = FeedbackStore::new();
        store.seed(key, vec![(rank0, 0.0), (heavy, 0.01)]);
        for _ in 0..2 {
            assert!(!store.record(key, rank0, 1.0, &PlanningPolicy::default()).unwrap().locked);
        }
        assert_eq!(store.chosen_plan(&key), Some(heavy));
    }

    #[test]
    fn at_most_three_challengers_race() {
        let key = key(14);
        let plans: Vec<Plan> = (1..=6).map(gp).collect();
        let mut store = seeded(key, &plans);
        // The fifth and sixth plans would win but never run.
        let seconds = |p: Plan| if p == plans[4] || p == plans[5] { 0.001 } else { 0.010 };
        assert_eq!(drive(&mut store, key, 100, seconds), Some(RACE_SAMPLES * 4));
        assert_eq!(store.chosen_plan(&key), Some(plans[0]), "ties go to rank order");
    }

    /// A key no matrix needs to be built for: distinct per `i`.
    fn fabricated(i: u64) -> (OperandKey, OutputShape) {
        let fingerprint =
            cw_sparse::MatrixFingerprint { nrows: 1, ncols: 1, nnz: 0, structure_hash: i };
        (OperandKey { fingerprint, checksum: i }, OutputShape::Full)
    }

    #[test]
    fn store_capacity_evicts_least_recently_recorded_operand() {
        let keys: Vec<_> = (0..=DEFAULT_FEEDBACK_CAPACITY as u64).map(fabricated).collect();
        let (last, fill) = keys.split_last().unwrap();
        let mut store = FeedbackStore::new();
        for &k in fill {
            store.seed(k, vec![(Plan::baseline(), 0.0)]);
        }
        assert_eq!(store.len(), DEFAULT_FEEDBACK_CAPACITY);
        // Touch keys[0] so keys[1] becomes the eviction victim.
        store.record(keys[0], Plan::baseline(), 1.0, &PlanningPolicy::default()).unwrap();
        store.seed(*last, vec![(Plan::baseline(), 0.0)]);
        assert_eq!(store.len(), DEFAULT_FEEDBACK_CAPACITY);
        assert!(store.chosen_plan(&keys[1]).is_none(), "stalest entry evicted");
        assert!(store.chosen_plan(&keys[0]).is_some());
        assert!(store.chosen_plan(last).is_some());
    }

    #[test]
    fn clear_forgets_every_operand() {
        let a = key(15);
        let plans = [gp(1), gp(2)];
        let mut store = seeded(a, &plans);
        drive(&mut store, a, 10, |p| if p == plans[1] { 0.01 } else { 0.02 });
        assert_eq!((store.chosen_plan(&a), store.total_replans()), (Some(plans[1]), 1));
        // Eviction forgets the lock: the re-seeded entry races again.
        for k in (0..DEFAULT_FEEDBACK_CAPACITY as u64).map(fabricated) {
            store.seed(k, vec![(Plan::baseline(), 0.0)]);
        }
        assert!(store.chosen_plan(&a).is_none(), "evicted with its lock");
        store.seed(a, plans.iter().map(|&p| (p, 0.0)).collect());
        assert_eq!(store.chosen_plan(&a), Some(plans[0]));
        store.clear();
        assert!(store.is_empty() && store.chosen_plan(&a).is_none());
        assert_eq!(store.total_replans(), 0);
    }

    #[test]
    fn reseeding_preserves_observations() {
        let key = key(17);
        let mut store = seeded(key, &[gp(1), gp(2)]);
        for _ in 0..2 {
            store.record(key, gp(1), 0.010, &PlanningPolicy::default()).unwrap();
        }
        store.seed(key, vec![(gp(3), 0.0)]);
        let state = store.state(&key).unwrap();
        assert_eq!(state.candidates, 2, "re-seed must not replace the candidate set");
        assert_eq!(store.chosen_plan(&key), Some(gp(2)), "the race goes on");
    }

    #[test]
    fn unseeded_and_unknown_knobs_are_ignored() {
        let key = key(5);
        let mut store = FeedbackStore::new();
        let policy = PlanningPolicy::default();
        assert!(store.record(key, Plan::baseline(), 1.0, &policy).is_none());
        store.seed(key, vec![(Plan::baseline(), 0.0)]);
        let alien = Plan { reorder: Reordering::Hierarchical, ..Plan::baseline() };
        assert!(store.record(key, alien, 1.0, &policy).is_none());
        // A run of a plan the store did not choose counts, but is no sample:
        // before t₀ it starts nothing, during the race it joins nothing.
        let mut store = seeded(key, &[gp(1), gp(2), gp(3)]);
        let state = store.record(key, gp(2), 1.0, &policy).unwrap();
        assert_eq!((state.executions, state.locked), (1, false));
        assert_eq!(store.chosen_plan(&key), Some(gp(1)));
        store.record(key, gp(1), 1.0, &policy).unwrap();
        store.record(key, gp(1), 1.0, &policy).unwrap();
        store.record(key, gp(3), 1.0, &policy).unwrap();
        assert_eq!(store.chosen_plan(&key), Some(gp(2)), "gp(3) ran out of turn");
    }
}
