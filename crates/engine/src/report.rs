//! Execution reports: what the engine did and where the time went.

use crate::cost::PlanFeedbackState;
use crate::plan::Plan;
use cw_sparse::MatrixFingerprint;
use cw_spgemm::AccumulatorKind;

/// Wall-clock seconds per pipeline stage for one multiply.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Structural profiling + plan selection (zero on cache hits).
    pub plan_seconds: f64,
    /// Reordering permutation computation (zero on cache hits).
    pub reorder_seconds: f64,
    /// Hierarchical clustering's row order (zero on cache hits).
    pub cluster_seconds: f64,
    /// The SpGEMM kernel itself.
    pub kernel_seconds: f64,
    /// Work after the kernel. Always zero: a reordered plan's kernel writes
    /// its rows in the caller's order itself, so nothing follows it. The
    /// field stays because reports on the wire and their readers carry it.
    pub postprocess_seconds: f64,
}

impl StageTimings {
    /// Total seconds across all stages.
    pub fn total(&self) -> f64 {
        self.plan_seconds
            + self.reorder_seconds
            + self.cluster_seconds
            + self.kernel_seconds
            + self.postprocess_seconds
    }

    /// Preprocessing seconds (everything except kernel + postprocess).
    pub fn preprocessing(&self) -> f64 {
        self.plan_seconds + self.reorder_seconds + self.cluster_seconds
    }
}

/// Record of one [`crate::Engine::multiply`] call.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// The plan that executed (`plan.parallel`: whether on the pool).
    pub plan: Plan,
    /// Whether the product ran in the plan's permuted label space on both
    /// sides (`P·A·Pᵀ · P·A·Pᵀ`, labels translated back at extraction). Set
    /// from what execution did: `true` only under a plan that moved the
    /// rows of a square operand *and* a right-hand side proven to be that
    /// operand; any other `b` runs one-sided (`P·A · b`).
    pub two_sided: bool,
    /// The sparse accumulator the kernel ran: Dense wherever it fits the
    /// product's width, else Hash ([`AccumulatorKind::resolve`]).
    pub accumulator: AccumulatorKind,
    /// Fingerprint of the `A` operand.
    pub fingerprint: MatrixFingerprint,
    /// Whether the call was served from an already-prepared operand —
    /// a plan-cache hit, or the caller's reuse of an operand it resolved
    /// earlier with [`crate::Engine::prepare_with_shape`] (no preprocessing
    /// was paid).
    pub cache_hit: bool,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
    /// `nnz(C)` of the produced output.
    pub output_nnz: usize,
    /// Race state after this execution was recorded: how often this plan
    /// has run on this operand, whether the operand's plan is locked, and
    /// whether this observation locked a plan other than the first pick.
    /// `None` for a forced plan and for a plan outside the operand's
    /// candidates.
    pub feedback: Option<PlanFeedbackState>,
}

impl ExecutionReport {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let race = match &self.feedback {
            None => String::new(),
            Some(f) => format!(
                " | fb x{} {}{}",
                f.executions,
                if f.locked { "locked" } else { "racing" },
                if f.switched { " REPLAN" } else { "" }
            ),
        };
        let sides = if self.two_sided { " two-sided" } else { "" };
        format!(
            "{}{sides} [{:?}] | cache {} | prep {:.3}ms kernel {:.3}ms post {:.3}ms | nnz(C) {}{}",
            self.plan.describe(),
            self.accumulator,
            if self.cache_hit { "hit" } else { "miss" },
            self.timings.preprocessing() * 1e3,
            self.timings.kernel_seconds * 1e3,
            self.timings.postprocess_seconds * 1e3,
            self.output_nnz,
            race,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::fingerprint;
    use cw_sparse::CsrMatrix;

    #[test]
    fn totals_add_up() {
        let t = StageTimings {
            plan_seconds: 0.1,
            reorder_seconds: 0.2,
            cluster_seconds: 0.3,
            kernel_seconds: 0.4,
            postprocess_seconds: 0.5,
        };
        assert!((t.total() - 1.5).abs() < 1e-12);
        assert!((t.preprocessing() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn summary_mentions_cache_state_and_plan() {
        let rep = ExecutionReport {
            plan: Plan::baseline(),
            two_sided: false,
            accumulator: AccumulatorKind::Dense,
            fingerprint: fingerprint(&CsrMatrix::identity(4)),
            cache_hit: true,
            timings: StageTimings::default(),
            output_nnz: 42,
            feedback: None,
        };
        let s = rep.summary();
        assert!(s.contains("hit") && s.contains("42"), "{s}");
        assert!(s.contains("@parallel"), "where the kernel ran must be visible: {s}");
        assert!(s.contains("[Dense]"), "which accumulator ran must be visible: {s}");
        let s = ExecutionReport { accumulator: AccumulatorKind::Hash, ..rep }.summary();
        assert!(s.contains("[Hash]") && !s.contains("Dense"), "{s}");
    }

    #[test]
    fn summary_shows_the_race_when_feedback_is_present() {
        let rep = ExecutionReport {
            plan: Plan::baseline(),
            two_sided: false,
            accumulator: AccumulatorKind::Dense,
            fingerprint: fingerprint(&CsrMatrix::identity(4)),
            cache_hit: true,
            timings: StageTimings::default(),
            output_nnz: 1,
            feedback: Some(crate::cost::PlanFeedbackState {
                executions: 7,
                replans: 1,
                switched: true,
                candidates: 3,
                locked: true,
            }),
        };
        let s = rep.summary();
        assert!(s.contains("fb x7 locked REPLAN"), "{s}");
        let racing = crate::cost::PlanFeedbackState {
            locked: false,
            switched: false,
            ..rep.feedback.unwrap()
        };
        let s = ExecutionReport { feedback: Some(racing), ..rep }.summary();
        assert!(s.ends_with("fb x7 racing"), "{s}");
    }
}
