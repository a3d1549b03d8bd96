//! **cw-engine** — the adaptive plan/prepare/execute front door for
//! reordered SpGEMM.
//!
//! The paper's row orders — reorderings and hierarchical clustering's
//! sweep — only pay off when their preprocessing cost is amortized across
//! repeated multiplications (§4.5, Fig. 10), and its §5 future work asks
//! for an automatic pipeline that "predicts the best choice of reordering
//! combined with the best clustering scheme". This crate is that pipeline,
//! split into five explicit stages (see `docs/ARCHITECTURE.md` at the
//! workspace root for the cross-crate picture). A clustering enters a plan
//! only as a row order; the paper's cluster-wise kernel (`cw_core`) runs
//! wherever the prepared rows turn out to share their columns, which the
//! preparation measures (stage 2):
//!
//! 1. **Plan** — [`Planner`] profiles the operand (via `cw-reorder`'s
//!    advisor) and turns the advisor's suggestions, in its order with the
//!    baseline last, into [`Plan`]s — row order (a reordering, or
//!    hierarchical clustering's sweep) × parallel × output shape.
//!    A plan is admitted when its preparation, priced by one fixed
//!    per-nonzero rate per row-order class, is at most half of the 16
//!    multiplies a prepared operand is expected to serve (predicted until
//!    one has run); [`Planner::plans_costed`] is the admitted list, rank 0
//!    first, each [`RankedPlan`] with its price
//!    and the advisor rule that ranked it. The
//!    accumulator is not a plan field: the kernel runs Dense wherever it
//!    fits, Hash otherwise ([`cw_spgemm::AccumulatorKind::resolve`]), and
//!    [`ExecutionReport::accumulator`] says which ran.
//! 2. **Prepare** — [`PreparedMatrix::prepare`] materializes the plan once
//!    (its row order computed and applied, then Alg. 2's scan of the
//!    reordered rows, keeping their clusters where each stored column feeds
//!    enough member rows for the cluster-wise kernel to pay —
//!    [`PreparedMatrix::sharing_factor`], [`ExecutionReport::clustered`]),
//!    with its seconds recorded. Prepared operands are reusable across any number
//!    of right-hand sides and always return results in the original row
//!    order: the kernel stores each row where that order wants it, so no
//!    pass follows it.
//! 3. **Cache** — [`PlanCache`] maps an operand's [`OperandKey`] (sampled
//!    fingerprint plus full-content checksum, computed once per call) and
//!    the plan to prepared operands — an LRU bounded by its entry count,
//!    with hit/miss/eviction counters — so repeated traffic on the same
//!    matrix skips preprocessing entirely.
//!    Keying by `(operand, plan)` lets preparations under different plans
//!    coexist, which is what lets a race prepare each challenger once and
//!    lock the winner without preparing it again.
//! 4. **Execute** — [`Engine::multiply_shaped`] (or, for many right-hand
//!    sides against one preparation, [`Engine::prepare_with_shape`] once
//!    and [`Engine::execute_prepared_shaped`] per right-hand side) runs
//!    the prepared kernel — on the rayon pool when [`Plan::parallel`] is
//!    set, else on the calling thread, the serial oracle the parallel path
//!    is bit-identical to — and returns an [`ExecutionReport`] with the
//!    executed plan and per-stage wall-clock timings.
//! 5. **Race** — the engine's [`FeedbackStore`] measures instead of
//!    predicting: `t₀` is the faster of rank 0's first two kernel runs (the
//!    first alone when it already rules a race out); unless the policy is
//!    frozen or `t₀ <` [`MIN_RACE_SECONDS`], up to three challengers
//!    admitted on `t₀` run round-robin with it for [`RACE_SAMPLES`] samples
//!    each, and the lowest median is locked for good.
//!
//! The requested **output shape** — full product, masked by a sparsity
//! pattern, or row-wise top-k ([`OutputShape`]) — is a first-class axis of
//! all five stages: it is a [`Plan`] field, so cache entries and feedback
//! state for truncated traffic never collide with full-product traffic on
//! the same operand. A masked plan runs a kernel that admits only the
//! mask's columns; a top-k plan computes the full product and filters.
//! Preparation does not depend on the shape, so every shaped plan is
//! priced like the full one. See
//! [`Engine::multiply_shaped`] (`OutputShape::TopK(k)` for top-k) and its
//! masked shorthand [`Engine::multiply_masked`].
//!
//! ```
//! use cw_engine::{Engine, Planner, PlanningPolicy, DEFAULT_CACHE_CAPACITY};
//!
//! let a = cw_sparse::gen::mesh::tri_mesh(16, 16, true, 42);
//! // The default policy races the admitted plans on kernels of a
//! // millisecond or more; frozen locks the first pick at once.
//! let planner = Planner::with_policy(0, PlanningPolicy::frozen());
//! let mut engine = Engine::new(planner, DEFAULT_CACHE_CAPACITY);
//!
//! // First multiply: profile → admit → prepare → execute.
//! let (c1, first) = engine.multiply(&a, &a);
//! assert!(!first.cache_hit);
//!
//! // Repeated traffic: the feedback store resolves the locked plan, the
//! // operand's key hits the plan cache, preprocessing is skipped, and only
//! // the kernel runs.
//! let (c2, second) = engine.multiply(&a, &a);
//! assert!(second.cache_hit);
//! assert_eq!(second.timings.preprocessing(), 0.0);
//! assert!(second.feedback.is_some_and(|f| f.locked));
//! assert!(c1.numerically_eq(&c2, 0.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod cache;
mod cost;
mod engine;
mod plan;
mod planner;
mod prepared;
mod report;

pub use backend::MIN_SHARING_FACTOR;
pub use cache::{CacheCounters, CacheKey, CacheStats, OperandKey, PlanCache};
pub use cost::{
    FeedbackStore, PlanFeedbackState, PlanningPolicy, DEFAULT_FEEDBACK_CAPACITY, MIN_RACE_SECONDS,
    RACE_SAMPLES,
};
pub use engine::{Engine, DEFAULT_CACHE_CAPACITY};
pub use plan::{OutputShape, Plan};
pub use planner::{Planner, RankedPlan, PARALLEL_ROW_THRESHOLD};
pub use prepared::PreparedMatrix;
pub use report::{ExecutionReport, StageTimings};

// Re-exported so engine callers can pin an advisor suggestion
// (`Plan::from_suggestion`) without depending on cw-reorder directly.
pub use cw_reorder::advisor::Suggestion;

/// The workspace's JSON reader under its old path. It lives in
/// [`cw_obs::json`]; the repo benchmark (`benchmark/`, a separate, frozen
/// package) imports it as `cw_engine::calibrate::json`, so this path
/// stays until the benchmark itself changes.
pub mod calibrate {
    pub use cw_obs::json;
}
