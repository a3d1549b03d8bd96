//! Request/response types crossing the service boundary.

use cw_engine::{ExecutionReport, OutputShape, Plan};
use cw_sparse::CsrMatrix;
use std::fmt;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Two-level request priority for QoS admission.
///
/// [`Priority::High`] (the default) is admitted up to the full queue
/// capacity. [`Priority::Low`] is additionally subject to
/// [`crate::ServiceConfig::low_priority_watermark`]: once the in-flight
/// count reaches the watermark, low-priority requests are shed with
/// [`SubmitError::Full`] while high-priority traffic still has headroom.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Normal traffic; admitted up to the full queue capacity.
    #[default]
    High,
    /// Best-effort traffic; shed first under load.
    Low,
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Priority::High => write!(f, "high"),
            Priority::Low => write!(f, "low"),
        }
    }
}

/// The requested output shape of one multiply, carrying any operand data
/// the shape needs (request-level counterpart of the plan-level
/// [`OutputShape`] field — the mask travels with the request, never with
/// the cached preparation).
#[derive(Debug, Clone, Default)]
pub enum RequestShape {
    /// The complete product `lhs · rhs` (the default; prior behavior,
    /// bit-identical).
    #[default]
    Full,
    /// Keep only product entries at positions present in the mask's
    /// sparsity pattern (explicit zeros in the mask count as present).
    /// The mask must match the product's dimensions
    /// (`lhs.nrows × rhs.ncols`); [`crate::SpgemmService::submit`] rejects
    /// mismatches with [`SubmitError::MaskShapeMismatch`].
    Masked(Arc<CsrMatrix>),
    /// Keep each output row's `k` largest-magnitude entries (ties broken
    /// toward smaller column — see `row_topk` in `cw-spgemm`).
    TopK(usize),
}

impl RequestShape {
    /// The plan-level shape this request shape maps to.
    pub fn output_shape(&self) -> OutputShape {
        match self {
            RequestShape::Full => OutputShape::Full,
            RequestShape::Masked(_) => OutputShape::Masked,
            RequestShape::TopK(k) => OutputShape::TopK(*k),
        }
    }

    /// The mask operand, when this shape carries one.
    pub fn mask(&self) -> Option<&Arc<CsrMatrix>> {
        match self {
            RequestShape::Masked(m) => Some(m),
            _ => None,
        }
    }
}

/// One multiply to serve: `C = shape(lhs · rhs)`, optionally under a
/// forced plan.
///
/// Operands are `Arc`-shared so a request is cheap to move through the
/// queue and many requests can reference the same lhs without copying —
/// that sharing is what batch coalescing exploits.
#[derive(Debug, Clone)]
pub struct MultiplyRequest {
    /// The `A` operand; requests with the same lhs fingerprint coalesce
    /// into one batch and share one prepared operand.
    pub lhs: Arc<CsrMatrix>,
    /// The `B` operand.
    pub rhs: Arc<CsrMatrix>,
    /// `Some` forces this plan instead of the shard planner's choice
    /// (ablations, cross-validation); `None` lets the planner decide.
    pub plan: Option<Plan>,
    /// `Some` bounds the request's useful lifetime: an already-expired
    /// deadline is rejected at [`crate::SpgemmService::submit`] with
    /// [`SubmitError::DeadlineExpired`] (shed cheap, before any queue slot
    /// is taken), and a request whose deadline passes while it waits in
    /// the queue is dropped by the worker instead of executing dead work —
    /// its [`Ticket`] resolves [`ServiceError::Disconnected`] and the drop
    /// is counted in [`crate::ServiceStats::deadline_dropped`]. `None`
    /// (the default) never expires — prior behavior, bit-identical.
    pub deadline: Option<Instant>,
    /// QoS class; see [`Priority`]. Default [`Priority::High`] preserves
    /// prior admission behavior bit-identically.
    pub priority: Priority,
    /// Requested output shape; default [`RequestShape::Full`] computes the
    /// complete product (prior behavior, bit-identical). A non-full shape
    /// becomes part of the executing plan, so truncated traffic
    /// gets its own cache entries and feedback state on the shard.
    pub shape: RequestShape,
}

impl MultiplyRequest {
    /// Planner-chosen multiply request.
    pub fn new(lhs: Arc<CsrMatrix>, rhs: Arc<CsrMatrix>) -> MultiplyRequest {
        MultiplyRequest {
            lhs,
            rhs,
            plan: None,
            deadline: None,
            priority: Priority::default(),
            shape: RequestShape::default(),
        }
    }

    /// Forces `plan` instead of the shard planner's choice.
    pub fn with_plan(mut self, plan: Plan) -> MultiplyRequest {
        self.plan = Some(plan);
        self
    }

    /// Sets an absolute deadline.
    pub fn with_deadline_at(mut self, deadline: Instant) -> MultiplyRequest {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a deadline `budget` from now.
    pub fn with_deadline_in(self, budget: Duration) -> MultiplyRequest {
        self.with_deadline_at(Instant::now() + budget)
    }

    /// Sets the QoS priority class.
    pub fn with_priority(mut self, priority: Priority) -> MultiplyRequest {
        self.priority = priority;
        self
    }

    /// Sets the requested output shape.
    pub fn with_shape(mut self, shape: RequestShape) -> MultiplyRequest {
        self.shape = shape;
        self
    }

    /// Requests the product restricted to `mask`'s sparsity pattern
    /// (sugar for [`MultiplyRequest::with_shape`]).
    pub fn with_mask(self, mask: Arc<CsrMatrix>) -> MultiplyRequest {
        self.with_shape(RequestShape::Masked(mask))
    }
}

/// Per-request serving telemetry attached to every response.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Service-assigned request id (monotonic per service instance).
    pub request_id: u64,
    /// Worker shard that executed the request.
    pub shard: usize,
    /// Number of requests in the coalesced batch this one rode in
    /// (`1` = not coalesced).
    pub batch_size: usize,
    /// Seconds from submission until a worker started executing it:
    /// waiting behind earlier requests on its shard, and behind the earlier
    /// requests of its own batch.
    pub queue_seconds: f64,
    /// Seconds the worker spent executing it (prepare-or-cache-hit +
    /// kernel + postprocess).
    pub execute_seconds: f64,
    /// End-to-end seconds from submission to response.
    pub latency_seconds: f64,
    /// QoS class the request was admitted under.
    pub priority: Priority,
    /// Seconds of deadline budget left when the response was produced
    /// (`None` when the request carried no deadline). Negative means the
    /// deadline passed mid-execution — after the worker's pre-execution
    /// check — so the response was still produced and delivered late.
    pub deadline_slack_seconds: Option<f64>,
    /// The engine's per-stage report for the underlying multiply:
    /// `execution.cache_hit` says whether the prepared lhs came from the
    /// shard's plan cache (or the batch head), `execution.plan.parallel`
    /// whether the kernel ran on the pool (the planner's choice, or the
    /// request's forced plan) and `execution.plan.shape` the output shape
    /// it executed under.
    pub execution: ExecutionReport,
}

impl ServiceReport {
    /// Race state for this request's operand, when the executed plan
    /// carries one (see
    /// [`cw_engine::ExecutionReport::feedback`]).
    pub fn feedback(&self) -> Option<&cw_engine::PlanFeedbackState> {
        self.execution.feedback.as_ref()
    }

    /// Whether this request's observation locked the operand on a plan
    /// other than the planner's first pick (the next request for it runs
    /// the winner).
    pub fn replanned(&self) -> bool {
        self.execution.feedback.is_some_and(|f| f.switched)
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "req {} | shard {} | batch {} | queue {:.3}ms exec {:.3}ms | {}",
            self.request_id,
            self.shard,
            self.batch_size,
            self.queue_seconds * 1e3,
            self.execute_seconds * 1e3,
            self.execution.summary(),
        )
    }
}

/// A served multiply: the product and its [`ServiceReport`].
#[derive(Debug, Clone)]
pub struct MultiplyResponse {
    /// `C = shape(lhs · rhs)`, rows in original order.
    pub product: CsrMatrix,
    /// Serving telemetry for this request.
    pub report: ServiceReport,
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded in-flight queue is at capacity; retry later
    /// (backpressure, not failure).
    Full,
    /// `lhs.ncols != rhs.nrows`: the product is undefined. Rejected at
    /// the front door so a malformed request can never reach (and panic)
    /// a worker shard.
    ShapeMismatch {
        /// Columns of the submitted lhs.
        lhs_ncols: usize,
        /// Rows of the submitted rhs.
        rhs_nrows: usize,
    },
    /// A [`RequestShape::Masked`] request whose mask does not match the
    /// product's dimensions (`lhs.nrows × rhs.ncols`). Rejected at the
    /// front door like [`SubmitError::ShapeMismatch`].
    MaskShapeMismatch {
        /// Rows of the submitted mask.
        mask_nrows: usize,
        /// Columns of the submitted mask.
        mask_ncols: usize,
        /// Rows the product will have (`lhs.nrows`).
        product_nrows: usize,
        /// Columns the product will have (`rhs.ncols`).
        product_ncols: usize,
    },
    /// The request's deadline had already passed at submission: rejected
    /// at the front door before taking a queue slot (shed cheap, not deep).
    DeadlineExpired,
    /// The service has begun shutting down and accepts no new work.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Full => write!(f, "service queue is full"),
            SubmitError::ShapeMismatch { lhs_ncols, rhs_nrows } => write!(
                f,
                "operand shapes do not compose: lhs has {lhs_ncols} cols, rhs has {rhs_nrows} rows"
            ),
            SubmitError::MaskShapeMismatch {
                mask_nrows,
                mask_ncols,
                product_nrows,
                product_ncols,
            } => write!(
                f,
                "mask is {mask_nrows}x{mask_ncols} but the product is \
                 {product_nrows}x{product_ncols}"
            ),
            SubmitError::DeadlineExpired => {
                write!(f, "request deadline expired before admission")
            }
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an accepted request produced no response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The request was abandoned unserved: the service was torn down
    /// before it executed, or its deadline passed while it queued and the
    /// worker dropped it instead of executing dead work (counted in
    /// [`crate::ServiceStats::deadline_dropped`]; a caller that set a
    /// deadline can disambiguate by checking whether it has passed).
    Disconnected,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Disconnected => {
                write!(f, "service dropped the request before completing it")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Claim check for one accepted submission; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    pub(crate) id: u64,
    pub(crate) rx: mpsc::Receiver<Result<MultiplyResponse, ServiceError>>,
}

impl Ticket {
    /// The service-assigned request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response arrives (or the service is torn down).
    pub fn wait(self) -> Result<MultiplyResponse, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::Disconnected))
    }

    /// Non-blocking poll: `None` while the request is still in flight.
    pub fn poll(&self) -> Option<Result<MultiplyResponse, ServiceError>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServiceError::Disconnected)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_engine::Plan;

    #[test]
    fn request_builder_carries_forced_plan() {
        let a = Arc::new(CsrMatrix::identity(4));
        let req = MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a));
        assert!(req.plan.is_none());
        let req = req.with_plan(Plan::baseline());
        assert_eq!(req.plan, Some(Plan::baseline()));
    }

    #[test]
    fn errors_display_and_compare() {
        assert_ne!(SubmitError::Full, SubmitError::ShuttingDown);
        assert!(SubmitError::Full.to_string().contains("full"));
        assert!(ServiceError::Disconnected.to_string().contains("dropped"));
        assert!(SubmitError::DeadlineExpired.to_string().contains("deadline"));
    }

    #[test]
    fn request_defaults_carry_no_qos() {
        let a = Arc::new(CsrMatrix::identity(3));
        let req = MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a));
        assert!(req.deadline.is_none());
        assert_eq!(req.priority, Priority::High);

        let soon = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let req = req.with_deadline_at(soon).with_priority(Priority::Low);
        assert_eq!(req.deadline, Some(soon));
        assert_eq!(req.priority, Priority::Low);
        assert_eq!(Priority::Low.to_string(), "low");

        let budgeted = MultiplyRequest::new(Arc::clone(&a), a)
            .with_deadline_in(std::time::Duration::from_secs(1));
        assert!(budgeted.deadline.unwrap() > std::time::Instant::now());
    }

    #[test]
    fn ticket_poll_reports_disconnect() {
        let (tx, rx) = mpsc::channel();
        let ticket = Ticket { id: 9, rx };
        assert_eq!(ticket.id(), 9);
        assert!(ticket.poll().is_none(), "nothing sent yet");
        drop(tx);
        assert!(matches!(ticket.poll(), Some(Err(ServiceError::Disconnected))));
        assert!(ticket.wait().is_err());
    }
}
