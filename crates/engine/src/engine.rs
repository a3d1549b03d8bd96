//! The engine: the front door composing plan → prepare → execute with
//! caching.

use crate::cache::{CacheKey, CacheStats, OperandKey, PlanCache};
use crate::cost::FeedbackStore;
use crate::plan::{OutputShape, Plan};
use crate::planner::Planner;
use crate::prepared::PreparedMatrix;
use crate::report::{ExecutionReport, StageTimings};
use cw_obs::Tracer;
use cw_sparse::CsrMatrix;
use std::sync::Arc;
use std::time::Instant;

/// Default number of prepared operands the engine keeps cached.
pub const DEFAULT_CACHE_CAPACITY: usize = 32;

/// Adaptive SpGEMM engine: profiles operands, admits the advisor's
/// candidate pipelines on their preparation price, caches prepared
/// matrices, executes multiplies under rayon, and races the admitted
/// pipelines on measured kernel seconds until one is locked.
///
/// ```
/// use cw_engine::{Engine, Planner, PlanningPolicy, DEFAULT_CACHE_CAPACITY};
///
/// let a = cw_sparse::gen::grid::poisson2d(12, 12);
/// // Frozen: the first pick is locked at its first run, with no race.
/// let planner = Planner::with_policy(0, PlanningPolicy::frozen());
/// let mut engine = Engine::new(planner, DEFAULT_CACHE_CAPACITY);
///
/// // First multiply: profile → admit → prepare → execute.
/// let (c1, first) = engine.multiply(&a, &a);
/// assert!(!first.cache_hit);
///
/// // Repeated traffic: the feedback store resolves the locked plan with
/// // one hash lookup, the plan cache supplies the prepared operand, and
/// // only the kernel runs.
/// let (c2, second) = engine.multiply(&a, &a);
/// assert!(second.cache_hit);
/// let fb = second.feedback.expect("auto traffic carries feedback state");
/// assert_eq!(fb.executions, 2);
/// assert!(fb.locked);
/// assert!(c1.numerically_eq(&c2, 0.0));
/// ```
#[derive(Debug)]
pub struct Engine {
    planner: Planner,
    cache: PlanCache,
    feedback: FeedbackStore,
    /// Optional span sink: when set (and enabled), every resolution and
    /// execution retroactively records `plan`/`prepare`/`execute`/
    /// `postprocess` spans built from the *same* measured durations the
    /// [`ExecutionReport`] carries, so spans and reports reconcile
    /// exactly. `None` (the default) costs nothing.
    tracer: Option<Arc<Tracer>>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(Planner::default(), DEFAULT_CACHE_CAPACITY)
    }
}

impl Engine {
    /// Engine with an explicit planner and cache capacity.
    pub fn new(planner: Planner, cache_capacity: usize) -> Engine {
        Engine {
            planner,
            cache: PlanCache::new(cache_capacity),
            feedback: FeedbackStore::new(),
            tracer: None,
        }
    }

    /// Attach a span sink: subsequent resolutions and executions record
    /// retroactive `plan`/`prepare`/`execute`/`postprocess` spans into it
    /// (see [`cw_obs::Tracer`]). Spans land in the caller's current
    /// request trace when one is open, or in the tracer's ambient buffer.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        self.tracer = Some(tracer);
    }

    /// The attached span sink, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// The planner in use.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Read-only view of the feedback store (per-operand races and locks).
    pub fn feedback(&self) -> &FeedbackStore {
        &self.feedback
    }

    /// Read-only view of the plan cache (capacity, resident bytes, length).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Cache counters (hits/misses/evictions/insertions).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of prepared operands currently cached.
    pub fn cached_operands(&self) -> usize {
        self.cache.len()
    }

    /// Drops all cached operands (counters are kept). The feedback store
    /// is **not** touched: races and locks survive, so re-prepared
    /// operands keep running their locked plans. Use [`Engine::reset`] to
    /// also forget the locks.
    pub fn clear_cache(&mut self) {
        self.cache.clear()
    }

    /// Returns the engine to its just-constructed state: clears the plan
    /// cache *and* the feedback store (cache counters are kept, matching
    /// [`Engine::clear_cache`]). After a reset, the next sighting of every
    /// operand re-profiles, re-plans, and re-prepares from scratch —
    /// unlike `clear_cache`, which only drops the prepared bytes while the
    /// locks keep steering execution.
    pub fn reset(&mut self) {
        self.cache.clear();
        self.feedback.clear();
    }

    /// `C = A · b` through the adaptive pipeline. Returns the product (rows
    /// in original order) and a report of the plan, cache outcome,
    /// per-stage timings, and race state. The observed kernel time is the
    /// operand's race sample until a plan is locked (see
    /// [`crate::FeedbackStore`]).
    pub fn multiply(&mut self, a: &CsrMatrix, b: &CsrMatrix) -> (CsrMatrix, ExecutionReport) {
        self.multiply_shaped(a, b, OutputShape::Full, None)
    }

    /// `C = shape(A · b)`: [`Engine::multiply`] with an explicit
    /// [`OutputShape`] — the planner's general door, and the one-call way
    /// to ask for top-k. `mask` must be `Some` exactly when `shape` is
    /// [`OutputShape::Masked`] (the mask is request data — it travels with
    /// the call, not with the cached preparation). Shaped requests get
    /// their own plan ranking, cache entries, and feedback state; see
    /// [`Engine::prepare_with_shape`].
    ///
    /// ```
    /// use cw_engine::{Engine, OutputShape};
    ///
    /// let a = cw_sparse::gen::grid::poisson2d(10, 10);
    /// let mut engine = Engine::default();
    /// let (top2, report) = engine.multiply_shaped(&a, &a, OutputShape::TopK(2), None);
    /// assert_eq!(report.plan.shape, OutputShape::TopK(2));
    /// assert!((0..top2.nrows).all(|i| top2.row(i).0.len() <= 2));
    /// ```
    pub fn multiply_shaped(
        &mut self,
        a: &CsrMatrix,
        b: &CsrMatrix,
        shape: OutputShape,
        mask: Option<&CsrMatrix>,
    ) -> (CsrMatrix, ExecutionReport) {
        let (prepared, timings, cache_hit) = self.prepare_with_shape(a, None, shape);
        self.execute_resolved(&prepared, b, std::ptr::eq(a, b), mask, timings, cache_hit, true)
    }

    /// `C = (A · b) ∩ mask` — only product entries at positions present in
    /// `mask`'s sparsity pattern survive (see [`cw_spgemm::apply_mask`]).
    /// Sugar for [`Engine::multiply_shaped`] with [`OutputShape::Masked`].
    pub fn multiply_masked(
        &mut self,
        a: &CsrMatrix,
        b: &CsrMatrix,
        mask: &CsrMatrix,
    ) -> (CsrMatrix, ExecutionReport) {
        self.multiply_shaped(a, b, OutputShape::Masked, Some(mask))
    }

    /// Like [`Engine::multiply`] but with a caller-supplied plan instead of
    /// the planner's choice (cross-validation, ablations, manual tuning).
    /// Forced preparations are cached under their own `(matrix, plan)` key
    /// — repeated calls with the same matrix and plan skip preprocessing,
    /// and a forced plan that differs from the planner's choice never
    /// shadows the auto entry (or vice versa). A forced plan never touches
    /// the feedback store: it neither seeds a race nor samples one, so its
    /// report's `feedback` is `None`.
    pub fn multiply_planned(
        &mut self,
        a: &CsrMatrix,
        b: &CsrMatrix,
        plan: Plan,
    ) -> (CsrMatrix, ExecutionReport) {
        let (prepared, timings, cache_hit) = self.prepare_with_shape(a, Some(plan), plan.shape);
        let b_is_source = std::ptr::eq(a, b);
        self.execute_resolved(&prepared, b, b_is_source, None, timings, cache_hit, false)
    }

    /// Runs a resolved operand against `b`, records the kernel seconds in
    /// the race keyed by the prepared plan's shape, and assembles the
    /// [`ExecutionReport`]: the tail for serving layers that resolve an
    /// operand once via [`Engine::prepare_with_shape`] and run many
    /// right-hand sides. Pass the mask exactly for [`OutputShape::Masked`].
    /// A run is a race sample only when it is of the plan the store chose
    /// next, so a forced plan that is not that plan only counts.
    ///
    /// The recorded seconds are scaled to the lhs-sized workload
    /// (`kernel × nnz(A)/nnz(B)`, clamped to `[0.1, 10]` where fixed
    /// per-call costs dominate), so samples stay like for like across
    /// right-hand sides of different sizes; reported timings stay raw.
    ///
    /// Only `b` is in hand here, so whether it is the matrix `prepared` was
    /// built from — what lets a reordered square operand run two-sided
    /// ([`ExecutionReport::two_sided`]) — is decided by content, inside the
    /// kernel stage's seconds: see [`PreparedMatrix::multiply_shaped`]. The
    /// `multiply*` methods settle it with `std::ptr::eq(a, b)` instead, and a
    /// caller holding a proof of its own passes it to
    /// [`Engine::execute_prepared_proven`].
    pub fn execute_prepared_shaped(
        &mut self,
        prepared: &PreparedMatrix,
        b: &CsrMatrix,
        mask: Option<&CsrMatrix>,
        prep_timings: StageTimings,
        cache_hit: bool,
    ) -> (CsrMatrix, ExecutionReport) {
        self.execute_prepared_proven(prepared, b, false, mask, prep_timings, cache_hit)
    }

    /// [`Engine::execute_prepared_shaped`] with the caller's proof that `b`
    /// is the matrix `prepared` was built from: a serving layer that was
    /// handed one shared operand as both sides passes `Arc::ptr_eq(lhs,
    /// rhs)`. `true` skips the content test (a sampled fingerprint and a
    /// full checksum of `b`); `false` proves nothing, and the content test
    /// still runs.
    pub fn execute_prepared_proven(
        &mut self,
        prepared: &PreparedMatrix,
        b: &CsrMatrix,
        b_is_source: bool,
        mask: Option<&CsrMatrix>,
        prep_timings: StageTimings,
        cache_hit: bool,
    ) -> (CsrMatrix, ExecutionReport) {
        self.execute_resolved(prepared, b, b_is_source, mask, prep_timings, cache_hit, true)
    }

    /// [`Engine::execute_prepared_shaped`] with the caller's proof, if it
    /// has one, that `b` is the matrix `prepared` was built from, and
    /// whether to record the run (a forced door does not).
    #[allow(clippy::too_many_arguments)]
    fn execute_resolved(
        &mut self,
        prepared: &PreparedMatrix,
        b: &CsrMatrix,
        b_is_source: bool,
        mask: Option<&CsrMatrix>,
        prep_timings: StageTimings,
        cache_hit: bool,
        record: bool,
    ) -> (CsrMatrix, ExecutionReport) {
        let (c, kernel_seconds, two_sided, accumulator) = prepared.run(b, b_is_source, mask);
        if let Some(t) = self.tracer.as_deref() {
            // Retroactive spans from the measured stage duration: the
            // kernel ended "now", so span durations equal the report's
            // timings to nanosecond rounding. The kernel writes rows in the
            // caller's order, so `postprocess` is an empty span kept for
            // readers of the span tree.
            if t.enabled() {
                let end = t.now_ns();
                let kernel_start = end.saturating_sub((kernel_seconds * 1e9) as u64);
                t.record_span("execute", kernel_start, end);
                t.record_span("postprocess", end, end);
            }
        }
        let mut timings = prep_timings;
        timings.kernel_seconds = kernel_seconds;
        let a_nnz = prepared.operand.fingerprint.nnz as f64;
        let work_scale = (a_nnz.max(1.0) / b.nnz().max(1) as f64).clamp(0.1, 10.0);
        let observed = kernel_seconds * work_scale;
        // Unseeded operands and plans outside the candidate set are
        // ignored by the store.
        let key = (prepared.operand, prepared.plan.shape);
        let policy = &self.planner.policy;
        let feedback =
            if record { self.feedback.record(key, prepared.plan, observed, policy) } else { None };
        let report = ExecutionReport {
            plan: prepared.plan,
            two_sided,
            accumulator,
            clustered: prepared.sharing_factor(),
            fingerprint: prepared.operand.fingerprint,
            cache_hit,
            timings,
            output_nnz: c.nnz(),
            feedback,
        };
        (c, report)
    }

    /// [`Engine::multiply_shaped`]/[`Engine::multiply_planned`] without the
    /// multiply: the cached-or-fresh prepared operand for `a`, the
    /// preprocessing timings attributable to this call, and the cache-hit
    /// flag. Serving layers resolve an operand once this way and run many
    /// right-hand sides against it through
    /// [`Engine::execute_prepared_shaped`]; it also warms the cache.
    ///
    /// The plan is `forced`, else the feedback store's choice (one hash
    /// lookup), else the planner's rank 0 on first sighting (which seeds
    /// the race). `a`'s [`OperandKey`] — sampled fingerprint and
    /// full-content checksum — is computed once here and keys both stores:
    /// the cache by `(operand, plan)`, so every raced plan's preparation
    /// stays resident for the lock, and the feedback store by
    /// `(operand, shape)`; a miss hands it to the preparation. On a hit
    /// reorder/cluster timings are zero, while `plan_seconds` is any
    /// planning this call performed.
    /// `shape` is stamped into every ranked plan, so shaped traffic never
    /// shares cache entries or feedback with full-product traffic; a forced
    /// plan's own shape wins over `shape`.
    pub fn prepare_with_shape(
        &mut self,
        a: &CsrMatrix,
        forced: Option<Plan>,
        shape: OutputShape,
    ) -> (Arc<PreparedMatrix>, StageTimings, bool) {
        self.prepare_keyed(a, OperandKey::of(a), forced, shape)
    }

    /// [`Engine::prepare_with_shape`] with `a`'s key already in hand, so the
    /// `O(nnz)` checksum is not paid again: a service shard handed the same
    /// `Arc` it keyed before passes that key. `operand` must be
    /// `OperandKey::of(a)` — under another matrix's key this serves that
    /// matrix's preparation — which a debug build checks. Hidden from the
    /// documented surface: a caller that cannot prove the key belongs to
    /// `a` calls [`Engine::prepare_with_shape`].
    #[doc(hidden)]
    pub fn prepare_keyed(
        &mut self,
        a: &CsrMatrix,
        operand: OperandKey,
        forced: Option<Plan>,
        shape: OutputShape,
    ) -> (Arc<PreparedMatrix>, StageTimings, bool) {
        debug_assert_eq!(operand, OperandKey::of(a), "prepare_keyed under another operand's key");
        // A forced plan is a complete pipeline description — its own shape
        // wins. The shape joins the feedback key: full and truncated
        // traffic on the same operand never share a race.
        let feedback_key = (operand, forced.map_or(shape, |p| p.shape));
        let mut plan_seconds = 0.0;
        let plan = match forced {
            Some(p) => p,
            None => match self.feedback.chosen_plan(&feedback_key) {
                Some(p) => p,
                None => {
                    let t0 = Instant::now();
                    let ranked = self.planner.race_seed(a, shape);
                    let selected = ranked[0].0;
                    self.feedback.seed(feedback_key, ranked);
                    plan_seconds = t0.elapsed().as_secs_f64();
                    selected
                }
            },
        };
        let planner = &self.planner;
        let (prepared, hit) = self.cache.get_or_prepare(CacheKey { operand, plan }, || {
            PreparedMatrix::prepare_keyed(a, operand, plan, planner.seed)
        });
        let timings = if hit {
            // Reorder/cluster work was done by whichever call prepared the
            // entry, but planning may still have happened on *this* call
            // (a first sighting — e.g. after feedback-store eviction —
            // whose preparation was already cache-resident).
            StageTimings { plan_seconds, ..StageTimings::default() }
        } else {
            StageTimings { plan_seconds, ..prepared.timings }
        };
        if let Some(t) = self.tracer.as_deref() {
            // Retroactive plan/prepare spans from the timings this call
            // actually paid — zero-length on cache hits, so every traced
            // request still shows the full plan → prepare → execute chain.
            if t.enabled() {
                let end = t.now_ns();
                let prep_ns = ((timings.reorder_seconds + timings.cluster_seconds) * 1e9) as u64;
                let prep_start = end.saturating_sub(prep_ns);
                let plan_start = prep_start.saturating_sub((timings.plan_seconds * 1e9) as u64);
                t.record_span("plan", plan_start, prep_start);
                t.record_span("prepare", prep_start, end);
            }
        }
        (prepared, timings, hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::PlanningPolicy;
    use cw_sparse::gen;
    use cw_spgemm::{spgemm_serial, AccumulatorKind};

    /// An engine that never races: a debug-build kernel can pass the race's
    /// 1 ms floor, and a race runs other plans (cache misses) on purpose.
    fn frozen_planner() -> Planner {
        Planner::with_policy(Planner::default().seed, PlanningPolicy::frozen())
    }

    fn frozen_engine() -> Engine {
        Engine::new(frozen_planner(), DEFAULT_CACHE_CAPACITY)
    }

    #[test]
    fn multiply_matches_baseline_and_reports() {
        let a = gen::mesh::tri_mesh(10, 10, true, 2);
        let mut engine = Engine::default();
        let (c, report) = engine.multiply(&a, &a);
        assert!(c.numerically_eq(&spgemm_serial(&a, &a), 1e-9));
        assert!(!report.cache_hit);
        assert_eq!(report.output_nnz, c.nnz());
        assert!(report.timings.kernel_seconds > 0.0);
    }

    #[test]
    fn second_multiply_hits_cache_and_skips_preprocessing() {
        let a = gen::mesh::tri_mesh(12, 12, true, 3);
        let mut engine = frozen_engine();
        let (_, first) = engine.multiply(&a, &a);
        let (c2, second) = engine.multiply(&a, &a);
        assert!(!first.cache_hit);
        assert!(second.cache_hit);
        assert_eq!(second.timings.preprocessing(), 0.0);
        assert!(c2.numerically_eq(&spgemm_serial(&a, &a), 1e-9));
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn batch_prepares_once() {
        let a = gen::banded::block_diagonal(64, (4, 8), 0.1, 1);
        let bs: Vec<_> = (0..4).map(|s| gen::er::erdos_renyi(64, 3, s)).collect();
        let mut engine = Engine::default();
        let (prepared, timings, hit) = engine.prepare_with_shape(&a, None, OutputShape::Full);
        assert!(!hit);
        for (i, b) in bs.iter().enumerate() {
            let (c, rep) = engine.execute_prepared_shaped(&prepared, b, None, timings, hit);
            assert!(c.numerically_eq(&spgemm_serial(&a, b), 1e-9), "rhs {i}");
            assert_eq!(rep.plan, prepared.plan, "rhs {i}");
        }
        let stats = engine.cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 0), "one lookup serves every rhs");
    }

    #[test]
    fn forced_and_auto_plans_cache_independently() {
        let a = gen::grid::poisson2d(9, 9);
        let mut engine = frozen_engine();
        let (_, auto_first) = engine.multiply(&a, &a);
        assert!(!auto_first.cache_hit);

        // A forced plan never reuses the auto entry: its first call misses.
        let forced = Plan { reorder: cw_reorder::Reordering::Hierarchical, ..Plan::baseline() };
        let (c, rep) = engine.multiply_planned(&a, &a, forced);
        assert!(c.numerically_eq(&spgemm_serial(&a, &a), 1e-9));
        assert!(!rep.cache_hit);

        // The forced preparation is cached under its own key.
        let (_, rep2) = engine.multiply_planned(&a, &a, forced);
        assert!(rep2.cache_hit);

        // And auto traffic still executes the planner's plan, not the
        // forced ablation plan.
        let (_, auto_again) = engine.multiply(&a, &a);
        assert!(auto_again.cache_hit);
        assert_eq!(auto_again.plan, auto_first.plan);
    }

    #[test]
    fn operands_that_share_a_fingerprint_keep_an_entry_each() {
        // `vals[1]` lies between the fingerprint's first two samples (every
        // ~10th of 2 400 entries), so `b` differs from `a` only where the
        // fingerprint does not look: the "same pattern, new values" traffic
        // of AMG. Alternating them must hit, not evict each other.
        let a = gen::er::erdos_renyi(400, 6, 11);
        let mut b = a.clone();
        b.vals[1] += 0.5;
        assert_eq!(cw_sparse::fingerprint(&a), cw_sparse::fingerprint(&b));
        let mut engine = frozen_engine();
        for m in [&a, &b, &a, &b, &a, &b] {
            let (c, _) = engine.multiply(m, m);
            assert!(c.bits_eq(&spgemm_serial(m, m)), "a product of the other operand");
        }
        let stats = engine.cache_stats();
        assert_eq!((stats.misses, stats.hits), (2, 4), "one preparation per operand");
        assert_eq!(engine.feedback().len(), 2, "one feedback state per operand");
    }

    #[test]
    fn prepare_warms_the_cache() {
        let a = gen::grid::poisson2d(10, 10);
        let mut engine = Engine::default();
        let _ = engine.prepare_with_shape(&a, None, OutputShape::Full);
        let (_, rep) = engine.multiply(&a, &a);
        assert!(rep.cache_hit);
    }

    #[test]
    fn the_engine_cache_reports_resident_bytes() {
        let a = gen::grid::poisson2d(12, 12);
        let mut engine = frozen_engine();
        let (_, r1) = engine.multiply(&a, &a);
        let (_, r2) = engine.multiply(&a, &a);
        assert!(!r1.cache_hit && r2.cache_hit);
        let (prepared, _, _) = engine.prepare_with_shape(&a, None, OutputShape::Full);
        assert_eq!(engine.cache().bytes(), prepared.approx_bytes());
    }

    #[test]
    fn reports_carry_the_executing_backend() {
        let a = gen::grid::poisson2d(9, 9);
        let mut engine = Engine::default();
        // 81 rows: the planner runs the kernel serially.
        let (_, auto_rep) = engine.multiply(&a, &a);
        assert!(!auto_rep.plan.parallel);

        let forced = Plan { parallel: true, ..auto_rep.plan };
        let (c, rep) = engine.multiply_planned(&a, &a, forced);
        assert_eq!(rep.plan, forced);
        assert!(c.numerically_eq(&spgemm_serial(&a, &a), 1e-9));
        // Same pipeline, other parallelism: a distinct cache entry.
        assert!(!rep.cache_hit);
        let (_, rep2) = engine.multiply_planned(&a, &a, forced);
        assert!(rep2.cache_hit, "forced preparations are cached under their own key");
    }

    /// A `1024 × ncols` right-hand side, one entry per row: as wide as the
    /// test needs, and cheap to multiply.
    fn wide(ncols: usize) -> CsrMatrix {
        CsrMatrix::from_row_lists(ncols, (0..1024).map(|i| vec![(i * 7, 1.0)]).collect())
    }

    #[test]
    fn rowwise_products_run_dense_up_to_one_mib_per_worker() {
        // 16 B per column: 65 536 columns fit in 1 MiB, 65 537 do not.
        let a = gen::grid::poisson2d(32, 32);
        for (ncols, acc) in [(65_536, AccumulatorKind::Dense), (65_537, AccumulatorKind::Hash)] {
            let b = wide(ncols);
            let (c, report) = Engine::default().multiply_planned(&a, &b, Plan::baseline());
            assert_eq!(report.accumulator, acc, "{ncols} columns: {}", report.summary());
            assert!(c.bits_eq(&spgemm_serial(&a, &b)), "{ncols} columns");
        }
    }

    #[test]
    fn reset_clears_cache_and_feedback_while_clear_cache_keeps_feedback() {
        let a = gen::grid::poisson2d(10, 10);
        let key = (OperandKey::of(&a), OutputShape::Full);
        let mut engine = Engine::default();
        let _ = engine.multiply(&a, &a);
        assert!(engine.feedback().state(&key).is_some());
        assert_eq!(engine.cached_operands(), 1);

        // clear_cache drops the bytes but keeps the learned state: the
        // next multiply re-prepares without re-planning.
        engine.clear_cache();
        assert_eq!(engine.cached_operands(), 0);
        assert!(engine.feedback().state(&key).is_some(), "clear_cache must keep feedback");
        let (_, rep) = engine.multiply(&a, &a);
        assert!(!rep.cache_hit);
        assert_eq!(rep.timings.plan_seconds, 0.0, "plan came from the feedback fast path");

        // reset forgets everything: the next multiply re-plans too.
        engine.reset();
        assert_eq!(engine.cached_operands(), 0);
        assert!(engine.feedback().state(&key).is_none(), "reset must clear feedback");
        assert!(engine.feedback().is_empty());
        let (_, rep) = engine.multiply(&a, &a);
        assert!(!rep.cache_hit);
        assert!(rep.timings.plan_seconds > 0.0, "first sighting after reset re-plans");
    }

    #[test]
    fn tracer_spans_reconcile_with_report_timings() {
        let a = gen::mesh::tri_mesh(10, 10, true, 2);
        let tracer = Arc::new(cw_obs::Tracer::new(8));
        tracer.set_enabled(true);
        let mut engine = frozen_engine();
        engine.set_tracer(Arc::clone(&tracer));
        assert!(engine.tracer().is_some());

        tracer.begin_trace(1);
        let (_, report) = engine.multiply(&a, &a);
        tracer.end_trace(1, "request", 0);

        let traces = tracer.flight_traces();
        let tr = &traces[0];
        assert!(tr.nests_correctly(), "engine spans must nest: {tr:?}");
        for (name, expect) in [
            ("plan", report.timings.plan_seconds),
            ("prepare", report.timings.reorder_seconds + report.timings.cluster_seconds),
            ("execute", report.timings.kernel_seconds),
            ("postprocess", report.timings.postprocess_seconds),
        ] {
            let span = tr.span(name).unwrap_or_else(|| panic!("missing span {name}"));
            let got = span.duration_seconds();
            assert!(
                (got - expect).abs() < 1e-6,
                "span {name} ({got}s) must reconcile with report ({expect}s)"
            );
        }

        // A cache hit still emits the full chain, with plan/prepare
        // (near-)zero-length.
        tracer.begin_trace(2);
        let (_, again) = engine.multiply(&a, &a);
        tracer.end_trace(2, "request", 0);
        assert!(again.cache_hit);
        let tr = &tracer.flight_traces()[1];
        assert!(tr.nests_correctly());
        assert!(tr.span("plan").unwrap().duration_seconds() < 1e-6);
        assert!(tr.span("prepare").unwrap().duration_ns() == 0);
        assert!(tr.span("execute").unwrap().duration_ns() > 0);
    }

    #[test]
    fn disabled_tracer_records_no_engine_spans() {
        let a = gen::grid::poisson2d(8, 8);
        let tracer = Arc::new(cw_obs::Tracer::new(8));
        let mut engine = Engine::default();
        engine.set_tracer(Arc::clone(&tracer));
        let _ = engine.multiply(&a, &a);
        assert!(tracer.ambient_spans().is_empty());
        assert!(tracer.flight_traces().is_empty());
    }

    #[test]
    fn shaped_multiplies_match_postprocessed_oracle() {
        let a = gen::mesh::tri_mesh(10, 10, true, 2);
        let full = spgemm_serial(&a, &a);
        let mut engine = Engine::default();

        let (topk, rep) = engine.multiply_shaped(&a, &a, OutputShape::TopK(3), None);
        assert!(topk.numerically_eq(&cw_spgemm::row_topk(&full, 3), 0.0));
        assert_eq!(rep.plan.shape, OutputShape::TopK(3));

        // Mask: the diagonal — keep only C[i,i].
        let mask = CsrMatrix::identity(a.nrows);
        let (masked, rep) = engine.multiply_masked(&a, &a, &mask);
        assert!(masked.numerically_eq(&cw_spgemm::apply_mask(&full, &mask), 0.0));
        assert_eq!(rep.plan.shape, OutputShape::Masked);
        assert_eq!(rep.output_nnz, masked.nnz());
    }

    #[test]
    fn output_shapes_never_collide_in_cache_or_feedback() {
        let a = gen::grid::poisson2d(10, 10);
        let mut engine = frozen_engine();

        // Three shapes over the same operand: each first call must miss
        // (its own cache entry), each second call must hit its own entry.
        let (full, r_full) = engine.multiply(&a, &a);
        let (top2, r_top) = engine.multiply_shaped(&a, &a, OutputShape::TopK(2), None);
        let mask = CsrMatrix::identity(a.nrows);
        let (_, r_mask) = engine.multiply_masked(&a, &a, &mask);
        assert!(!r_full.cache_hit && !r_top.cache_hit && !r_mask.cache_hit);
        assert_eq!(engine.cached_operands(), 3);

        let (full2, r_full2) = engine.multiply(&a, &a);
        let (top2_again, r_top2) = engine.multiply_shaped(&a, &a, OutputShape::TopK(2), None);
        let (_, r_mask2) = engine.multiply_masked(&a, &a, &mask);
        assert!(r_full2.cache_hit && r_top2.cache_hit && r_mask2.cache_hit);
        assert!(full.numerically_eq(&full2, 0.0));
        assert!(top2.numerically_eq(&top2_again, 0.0));
        // A different k is a different shape: its own entry, not a hit.
        let (_, r_top3) = engine.multiply_shaped(&a, &a, OutputShape::TopK(3), None);
        assert!(!r_top3.cache_hit);

        // Feedback state is shape-keyed too: each shape accumulated only
        // its own executions.
        let operand = OperandKey::of(&a);
        for shape in [OutputShape::Full, OutputShape::TopK(2), OutputShape::Masked] {
            let st = engine
                .feedback()
                .state(&(operand, shape))
                .expect("each shape has its own feedback");
            assert_eq!(st.executions, 2, "shape {shape:?} saw exactly its own traffic");
        }
    }

    #[test]
    fn zero_capacity_engine_still_computes_correctly() {
        let a = gen::grid::poisson2d(8, 8);
        let mut engine = Engine::new(Planner::default(), 0);
        let (c1, r1) = engine.multiply(&a, &a);
        let (c2, r2) = engine.multiply(&a, &a);
        assert!(!r1.cache_hit && !r2.cache_hit);
        assert!(c1.numerically_eq(&c2, 0.0));
    }
}
