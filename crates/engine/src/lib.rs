//! **cw-engine** — the adaptive plan/prepare/execute front door for
//! cluster-wise SpGEMM.
//!
//! The paper's techniques (row reordering, cluster-wise computation over
//! `CSR_Cluster`) only pay off when their preprocessing cost is amortized
//! across repeated multiplications (§4.5, Fig. 10), and its §5 future work
//! asks for an automatic pipeline that "predicts the best choice of
//! reordering combined with the best clustering scheme". This crate is that
//! pipeline, split into five explicit stages (see `docs/ARCHITECTURE.md`
//! at the workspace root for the cross-crate picture):
//!
//! 1. **Plan** — [`Planner`] computes the structural [`Profile`] (via
//!    `cw-reorder`'s advisor), prices every candidate [`Plan`] — four
//!    fields, each said once: reordering × clustering strategy (which
//!    fixes the kernel) × parallel × output shape — with
//!    the analytic [`CostModel`], and ranks them by
//!    cost amortized under the caller's [`PlanningPolicy`] (expected
//!    reuse, optional preprocessing budget). The accumulator is not a plan
//!    field: the kernel runs Dense wherever it fits the product's width,
//!    Hash otherwise ([`cw_spgemm::AccumulatorKind::resolve`]), and
//!    [`ExecutionReport::accumulator`] says which ran. Each [`RankedPlan`] carries
//!    the estimate, affinity and rationale behind its rank;
//!    [`Planner::plans_costed`] is the budget-aware fall-through list.
//! 2. **Prepare** — [`PreparedMatrix::prepare`] materializes the plan once
//!    (permutation computed and applied, `CSR_Cluster` built — unless the
//!    clustering averaged under 1.5 rows per cluster, in which case the
//!    operand stays plain CSR on the clustering's row order and
//!    [`ExecutionReport::clusterwise`] reads `false`), with per-stage
//!    timings recorded. Prepared operands are reusable across any number
//!    of right-hand sides and always return results in the original row
//!    order: the kernel stores each row where that order wants it, so no
//!    pass follows it.
//! 3. **Cache** — [`PlanCache`] maps an operand's [`OperandKey`] (sampled
//!    fingerprint plus full-content checksum, computed once per call) and
//!    the plan to prepared operands under a [`CacheBudget`] —
//!    entry-bounded or byte-bounded LRU — with hit/miss/eviction counters,
//!    so repeated traffic on the same matrix skips preprocessing entirely.
//!    Keying by `(operand, plan)` lets preparations under different plans
//!    coexist, which is what makes feedback re-planning cheap to undo.
//! 4. **Execute** — [`Engine::multiply_shaped`] (or, for many right-hand
//!    sides against one preparation, [`Engine::prepare_with_shape`] once
//!    and [`Engine::execute_prepared_shaped`] per right-hand side) runs
//!    the prepared kernel — on the rayon pool when [`Plan::parallel`] is
//!    set, else on the calling thread, the serial oracle the parallel path
//!    is bit-identical to — and returns an [`ExecutionReport`] with the
//!    executed plan and per-stage wall-clock timings.
//! 5. **Feed back** — the engine's [`FeedbackStore`] keeps per-operand
//!    EWMAs of observed kernel seconds per candidate plan. Observed
//!    timings correct the cost model's estimates after every execution:
//!    plans that underperform their prediction are demoted, observed-fast
//!    plans promoted, so repeated traffic converges on the empirically
//!    fastest plan (`cw-service` threads this loop through every shard).
//!
//! The [`calibrate`] module closes the same loop *offline*: a
//! [`Calibrator`] fits the [`CostModel`]'s constants from measured
//! bench-corpus runs, and the resulting
//! [`CalibrationProfile`] — versioned JSON, `profiles/default.json` at
//! the workspace root — loads at construction via
//! [`Planner::with_profile`] / [`Engine::with_profile`], so first-sight
//! planning starts from this machine's measured constants instead of the
//! hand-tuned defaults.
//!
//! The requested **output shape** — full product, masked by a sparsity
//! pattern, or row-wise top-k ([`OutputShape`]) — is a first-class axis of
//! all five stages: it is a [`Plan`] field, so cache entries and feedback
//! state for truncated traffic never collide with full-product traffic on
//! the same operand. A masked row-wise plan runs a kernel that admits only
//! the mask's columns; top-k and cluster-wise masked plans compute the full
//! product and filter. The [`CostModel`] prices every shaped plan like the
//! full one (an upper bound for the fused kernel, until it is fitted). See
//! [`Engine::multiply_shaped`] (`OutputShape::TopK(k)` for top-k) and its
//! masked shorthand [`Engine::multiply_masked`].
//!
//! ```
//! use cw_engine::Engine;
//!
//! let a = cw_sparse::gen::mesh::tri_mesh(16, 16, true, 42);
//! let mut engine = Engine::default();
//!
//! // First multiply: profile → cost-rank → prepare → execute.
//! let (c1, first) = engine.multiply(&a, &a);
//! assert!(!first.cache_hit);
//!
//! // Repeated traffic: the feedback store resolves the plan, the
//! // operand's key hits the plan cache, preprocessing is skipped, only the
//! // kernel runs — and the observation calibrates the cost model.
//! let (c2, second) = engine.multiply(&a, &a);
//! assert!(second.cache_hit);
//! assert_eq!(second.timings.preprocessing(), 0.0);
//! assert!(second.feedback.is_some());
//! assert!(c1.numerically_eq(&c2, 0.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod cache;
pub mod calibrate;
mod cost;
mod engine;
mod plan;
mod planner;
mod prepared;
mod report;

pub use cache::{CacheBudget, CacheCounters, CacheKey, CacheStats, OperandKey, PlanCache};
pub use calibrate::{
    CalibrationProfile, CalibrationSample, Calibrator, ProfileParseError, PROFILE_SCHEMA_VERSION,
};
pub use cost::{
    CostEstimate, CostModel, Ewma, FeedbackStore, OperandFeatures, PlanFeedbackState,
    PlanningPolicy, CALIBRATION_CLAMP, DEFAULT_FEEDBACK_CAPACITY, EWMA_ALPHA,
    MIN_OBSERVATIONS_TO_SWITCH, SWITCH_MARGIN,
};
pub use engine::{Engine, DEFAULT_CACHE_CAPACITY};
pub use plan::{ClusteringStrategy, OutputShape, Plan};
pub use planner::{Planner, RankedPlan, PARALLEL_ROW_THRESHOLD};
pub use prepared::PreparedMatrix;
pub use report::{ExecutionReport, StageTimings};

// Re-exported so engine callers can name advisor types without depending
// on cw-reorder directly.
pub use cw_reorder::advisor::{Advice, Profile, RankedSuggestion, Suggestion};
