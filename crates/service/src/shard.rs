//! Worker shards: each owns an [`Engine`] (and thus a private plan cache)
//! and serves the submissions routed onto its channel.
//!
//! Because [`crate::SpgemmService::submit`] routes every request for a
//! given lhs fingerprint to the same shard, a shard's cache sees *all*
//! traffic for its matrices and *only* that traffic — no cross-thread cache
//! locking, no duplicate preparations of one operand on two shards.
//!
//! Dispatch is work-conserving: a worker blocks for one submission, drains
//! whatever already queued behind it, groups the drained submissions by
//! fingerprint (in order of first arrival) and serves each group as one
//! batch. Requests coalesce exactly when they had to wait anyway; a lone
//! request never waits. A group that reaches [`MAX_BATCH`] is served at
//! once, and a hang-up serves whatever is still pending.
//!
//! Within a batch, consecutive requests that share the *same* `Arc`'d lhs
//! (pointer identity — a strict identity proof, no hashing needed) and the
//! same plan source reuse the head request's prepared operand directly,
//! skipping even the engine's per-call fingerprint + `O(nnz)` checksum
//! verification. That is the batching payoff: one lookup, many kernels.
//!
//! Shard telemetry lives on the service's [`cw_obs`] substrate: every
//! counter a worker bumps is an `Arc`'d obs cell also bound into the
//! service [`MetricsRegistry`], so [`crate::ServiceStats`] and the metrics
//! snapshot are two views over the same atomics. When tracing is enabled
//! each request becomes a [`cw_obs::RequestTrace`]: retroactive
//! `queue`/`coalesce`/`dispatch` spans (submitted → pulled off the shard
//! channel → group released → execution began), a live `serve` span around
//! the engine call (under which the engine records
//! `plan`/`prepare`/`execute`/`postprocess`), and a `request` root closing
//! the trace into the flight recorder.

use crate::request::{
    MultiplyRequest, MultiplyResponse, RequestShape, ServiceError, ServiceReport, Ticket,
};
use crate::stats::ShardStats;
use cw_engine::{CacheCounters, Engine, OutputShape, Plan, PreparedMatrix, StageTimings};
use cw_obs::{Counter, Gauge, LogHistogram, MetricsRegistry, Tracer};
use cw_sparse::{fingerprint, CsrMatrix, MatrixFingerprint};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// The most requests one batch holds: a same-fingerprint group that
/// reaches it is served without draining the channel any further.
const MAX_BATCH: usize = 32;

/// RAII claim on one queue-capacity slot: decrements `in_flight` exactly
/// once, when dropped. Because every [`Submission`] carries one, a
/// submission dropped *unserved* (a worker died, a teardown raced a
/// submit) still returns its slot — the backpressure bound can never leak
/// shut.
pub(crate) struct SlotGuard(pub(crate) Arc<AtomicUsize>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One accepted request traveling through the service internals.
pub(crate) struct Submission {
    pub(crate) id: u64,
    pub(crate) lhs: Arc<CsrMatrix>,
    pub(crate) rhs: Arc<CsrMatrix>,
    pub(crate) plan: Option<Plan>,
    /// Requested output shape (carries the mask operand for masked
    /// requests; the service front door already validated its dimensions).
    pub(crate) shape: RequestShape,
    /// Expiry instant; a worker reaching an already-expired submission
    /// drops it (its ticket resolves [`ServiceError::Disconnected`])
    /// instead of executing dead work.
    pub(crate) deadline: Option<Instant>,
    pub(crate) priority: crate::Priority,
    pub(crate) fingerprint: MatrixFingerprint,
    pub(crate) submitted: Instant,
    /// When the shard worker pulled it off its channel (until then, equals
    /// `submitted`). The `submitted..received` interval is the queue wait
    /// proper; from here until its group is released it is coalescing.
    pub(crate) received: Instant,
    pub(crate) respond: Sender<Result<MultiplyResponse, ServiceError>>,
    /// Held only for its drop effect (releasing the queue slot).
    pub(crate) _slot: SlotGuard,
}

impl Submission {
    /// Wraps an admitted `request` (holding `slot`) for the shard its lhs
    /// fingerprint routes to, with the [`Ticket`] that redeems it.
    pub(crate) fn new(id: u64, request: MultiplyRequest, slot: SlotGuard) -> (Submission, Ticket) {
        let (respond, rx) = mpsc::channel();
        let now = Instant::now();
        let submission = Submission {
            id,
            fingerprint: fingerprint(&request.lhs),
            lhs: request.lhs,
            rhs: request.rhs,
            // A forced plan inherits the request's shape: the request is
            // authoritative about *what* to compute, the plan about *how*.
            plan: request.plan.map(|p| p.with_shape(request.shape.output_shape())),
            shape: request.shape,
            deadline: request.deadline,
            priority: request.priority,
            submitted: now,
            received: now,
            respond,
            _slot: slot,
        };
        (submission, Ticket { id, rx })
    }
}

/// Per-shard obs cells: the shard's counters/gauges, each also registered
/// under `shard{N}.*` in the service metrics registry. The worker thread
/// owns the only writer; [`ShardObs::snapshot`] reconstructs the public
/// [`ShardStats`] view on demand.
#[derive(Debug, Clone)]
pub(crate) struct ShardObs {
    pub(crate) shard: usize,
    pub(crate) batches: Arc<Counter>,
    pub(crate) coalesced_batches: Arc<Counter>,
    pub(crate) requests: Arc<Counter>,
    /// Within-batch operand reuses (bypass the engine cache entirely);
    /// folded into the shard's cache-hit statistics on snapshot.
    pub(crate) reuse_hits: Arc<Counter>,
    pub(crate) replans: Arc<Counter>,
    pub(crate) max_batch_size: Arc<Gauge>,
    pub(crate) cached_operands: Arc<Gauge>,
    pub(crate) cached_bytes: Arc<Gauge>,
    pub(crate) tracked_operands: Arc<Gauge>,
    /// Live handles on the shard engine's plan-cache counters.
    pub(crate) cache: CacheCounters,
}

impl ShardObs {
    /// The public [`ShardStats`] view over these cells. Hit/miss
    /// semantics: "request served from an already-prepared operand" —
    /// engine cache hits plus within-batch reuses.
    pub(crate) fn snapshot(&self) -> ShardStats {
        let mut cache = self.cache.snapshot();
        cache.hits += self.reuse_hits.get();
        ShardStats {
            shard: self.shard,
            batches: self.batches.get(),
            coalesced_batches: self.coalesced_batches.get(),
            requests: self.requests.get(),
            max_batch_size: self.max_batch_size.get() as usize,
            cache,
            cached_operands: self.cached_operands.get() as usize,
            cached_bytes: self.cached_bytes.get() as usize,
            replans: self.replans.get(),
            tracked_operands: self.tracked_operands.get() as usize,
        }
    }
}

/// Everything a worker thread needs beyond its engine and channel: the
/// shard's obs cells, the service-wide histograms (shared atomics — the
/// registry merges across shards for free), the tracer, and completion
/// bookkeeping.
pub(crate) struct WorkerCtx {
    pub(crate) shard: usize,
    pub(crate) obs: ShardObs,
    pub(crate) completed: Arc<Counter>,
    /// Accepted requests dropped at the worker because their deadline
    /// passed while they queued.
    pub(crate) deadline_dropped: Arc<Counter>,
    pub(crate) tracer: Arc<Tracer>,
    pub(crate) latency_seconds: Arc<LogHistogram>,
    pub(crate) queue_seconds: Arc<LogHistogram>,
    pub(crate) execute_seconds: Arc<LogHistogram>,
    pub(crate) batch_size: Arc<LogHistogram>,
    pub(crate) kernel_seconds: Arc<LogHistogram>,
    pub(crate) queue_depth: Arc<Gauge>,
    pub(crate) in_flight: Arc<AtomicUsize>,
}

impl WorkerCtx {
    /// Shard `shard`'s context: its `shard{N}.*` cells registered in
    /// `metrics` (with `engine`'s cache counters bound beside them), plus
    /// the service-wide cells it shares with the front door, which the
    /// registry hands out by name.
    pub(crate) fn new(
        shard: usize,
        engine: &Engine,
        metrics: &MetricsRegistry,
        tracer: &Arc<Tracer>,
        in_flight: &Arc<AtomicUsize>,
    ) -> WorkerCtx {
        let p = format!("shard{shard}.");
        engine.cache().bind_metrics(metrics, &format!("{p}cache."));
        WorkerCtx {
            shard,
            obs: ShardObs {
                shard,
                batches: metrics.counter(&format!("{p}batches")),
                coalesced_batches: metrics.counter(&format!("{p}coalesced_batches")),
                requests: metrics.counter(&format!("{p}requests")),
                reuse_hits: metrics.counter(&format!("{p}reuse_hits")),
                replans: metrics.counter(&format!("{p}replans")),
                max_batch_size: metrics.gauge(&format!("{p}max_batch_size")),
                cached_operands: metrics.gauge(&format!("{p}cached_operands")),
                cached_bytes: metrics.gauge(&format!("{p}cached_bytes")),
                tracked_operands: metrics.gauge(&format!("{p}tracked_operands")),
                cache: engine.cache().counters().clone(),
            },
            completed: metrics.counter("requests_completed"),
            deadline_dropped: metrics.counter("requests_deadline_dropped"),
            tracer: Arc::clone(tracer),
            latency_seconds: metrics.histogram("latency_seconds"),
            queue_seconds: metrics.histogram("queue_seconds"),
            execute_seconds: metrics.histogram("execute_seconds"),
            batch_size: metrics.histogram("batch_size"),
            kernel_seconds: metrics.histogram("kernel_seconds"),
            queue_depth: metrics.gauge("queue_depth"),
            in_flight: Arc::clone(in_flight),
        }
    }
}

/// The head request's reusable identity within one coalesced batch — the
/// lhs operand, forced plan, output shape, and the preparation they
/// resolved to.
type BatchHead = (Arc<CsrMatrix>, Option<Plan>, OutputShape, Arc<PreparedMatrix>);

/// Serves submissions until the service hangs up: blocks for one, drains
/// what queued behind it, and serves each same-fingerprint group of the
/// drain as one batch. Responses go straight to each request's private
/// channel; counters land in the shard's [`ShardObs`] cells so
/// [`crate::SpgemmService::stats`] and the metrics registry can read them
/// without talking to the thread.
pub(crate) fn worker_loop(rx: Receiver<Submission>, mut engine: Engine, ctx: WorkerCtx) {
    // Same-fingerprint groups of the current drain, in order of first
    // arrival.
    let mut pending: Vec<Vec<Submission>> = Vec::new();
    while let Ok(first) = rx.recv() {
        let mut next = Some(first);
        while let Some(mut sub) = next {
            // Queue wait ends here; coalescing begins.
            sub.received = Instant::now();
            let g = match pending.iter().position(|g| g[0].fingerprint == sub.fingerprint) {
                Some(g) => g,
                None => {
                    pending.push(Vec::new());
                    pending.len() - 1
                }
            };
            pending[g].push(sub);
            if pending[g].len() >= MAX_BATCH {
                serve_batch(&mut engine, &ctx, pending.remove(g));
            }
            // Empty or hung up: either way the drain is over. After a
            // hang-up `recv` fails once the channel is empty, so nothing
            // queued is lost.
            next = rx.try_recv().ok();
        }
        for group in pending.drain(..) {
            serve_batch(&mut engine, &ctx, group);
        }
    }
}

/// Serves one same-fingerprint group, in arrival order, as one batch.
fn serve_batch(engine: &mut Engine, ctx: &WorkerCtx, items: Vec<Submission>) {
    // The group is released: coalescing ends, dispatch (waiting behind the
    // batch's earlier requests) begins.
    let flushed = Instant::now();
    let batch_size = items.len();
    ctx.batch_size.record(batch_size as f64);
    ctx.queue_depth.set(ctx.in_flight.load(Ordering::SeqCst) as i64);
    // Head request's resolved operand, reusable by identical followers.
    // The shape joins the identity because shaped preparations live under
    // their own cache keys; the *mask* does not — preparation is
    // mask-independent, so two masked requests with different masks still
    // share one prepared operand.
    let mut head: Option<BatchHead> = None;
    for sub in items {
        let started = Instant::now();
        // The deadline already gated admission; here it gates execution —
        // a request that died waiting in the queue is dropped before any
        // trace, cache, or kernel work happens. Dropping `sub` hangs up its
        // response channel (the ticket resolves
        // `ServiceError::Disconnected`) and the SlotGuard frees the queue
        // slot.
        if sub.deadline.is_some_and(|d| started >= d) {
            ctx.deadline_dropped.inc();
            continue;
        }
        let queue_seconds = started.saturating_duration_since(sub.submitted).as_secs_f64();
        ctx.tracer.begin_trace(sub.id);
        if ctx.tracer.enabled() {
            // Pre-execution waits, reconstructed from the worker's stamps
            // (monotone-clamped so the spans always tile).
            let submitted_ns = ctx.tracer.ns_of(sub.submitted);
            let received_ns = ctx.tracer.ns_of(sub.received).max(submitted_ns);
            let flushed_ns = ctx.tracer.ns_of(flushed).max(received_ns);
            let started_ns = ctx.tracer.ns_of(started).max(flushed_ns);
            ctx.tracer.record_span_at("queue", submitted_ns, received_ns, 1);
            ctx.tracer.record_span_at("coalesce", received_ns, flushed_ns, 1);
            ctx.tracer.record_span_at("dispatch", flushed_ns, started_ns, 1);
        }
        let serve_span = ctx.tracer.span("serve");
        let shape = sub.shape.output_shape();
        let reused = matches!(
            &head,
            Some((lhs0, plan0, shape0, _))
                if Arc::ptr_eq(lhs0, &sub.lhs) && *plan0 == sub.plan && *shape0 == shape
        );
        let (prepared, prep_timings, cache_hit) = if reused {
            ctx.obs.reuse_hits.inc();
            // A batch-reuse never enters the engine, so stand in for its
            // plan/prepare spans (zero-length: no work was done).
            let now = ctx.tracer.now_ns();
            ctx.tracer.record_span("plan", now, now);
            ctx.tracer.record_span("prepare", now, now);
            let (_, _, _, prep) = head.as_ref().expect("reused implies head");
            (Arc::clone(prep), StageTimings::default(), true)
        } else {
            let (prep, timings, hit) = engine.prepare_with_shape(&sub.lhs, sub.plan, shape);
            head = Some((Arc::clone(&sub.lhs), sub.plan, shape, Arc::clone(&prep)));
            (prep, timings, hit)
        };
        // Execute + record + report through the engine's shared tail: each
        // shard owns its engine, so measured kernels feed its races with no
        // cross-thread locking. A forced plan never seeds a race; it is a
        // race sample only when it is the very plan the race asked for.
        let (product, execution) = engine.execute_prepared_shaped(
            &prepared,
            &sub.rhs,
            sub.shape.mask().map(Arc::as_ref),
            prep_timings,
            cache_hit,
        );
        drop(serve_span);
        if execution.feedback.is_some_and(|f| f.switched) {
            ctx.obs.replans.inc();
        }
        let execute_seconds = started.elapsed().as_secs_f64();
        let latency_seconds = sub.submitted.elapsed().as_secs_f64();
        ctx.queue_seconds.record(queue_seconds);
        ctx.execute_seconds.record(execute_seconds);
        ctx.latency_seconds.record(latency_seconds);
        ctx.kernel_seconds.record(execution.timings.kernel_seconds);
        let report = ServiceReport {
            request_id: sub.id,
            shard: ctx.shard,
            batch_size,
            queue_seconds,
            execute_seconds,
            latency_seconds,
            priority: sub.priority,
            deadline_slack_seconds: sub.deadline.map(|d| {
                let now = Instant::now();
                match d.checked_duration_since(now) {
                    Some(left) => left.as_secs_f64(),
                    None => -now.saturating_duration_since(d).as_secs_f64(),
                }
            }),
            execution,
        };
        // Root span from submission to now: it closes *after* the latency
        // measurement (so root duration ≥ reported latency) but *before*
        // the response is sent, so a caller who has seen the response can
        // already find the trace in the recorder.
        ctx.tracer.end_trace(sub.id, "request", ctx.tracer.ns_of(sub.submitted));
        ctx.completed.inc();
        // A dropped Ticket is fine: the response is simply discarded.
        let _ = sub.respond.send(Ok(MultiplyResponse { product, report }));
        // `sub` (and its SlotGuard) drops here, releasing the queue slot
        // only after the response is delivered.
    }
    ctx.obs.batches.inc();
    if batch_size > 1 {
        ctx.obs.coalesced_batches.inc();
    }
    ctx.obs.requests.add(batch_size as u64);
    ctx.obs.max_batch_size.set_max(batch_size as i64);
    ctx.obs.cached_operands.set(engine.cached_operands() as i64);
    ctx.obs.cached_bytes.set(engine.cache().bytes() as i64);
    ctx.obs.tracked_operands.set(engine.feedback().len() as i64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::gen;
    use cw_spgemm::spgemm_serial;
    use std::time::Duration;

    /// Runs one worker on the test thread over `requests`, all queued (and
    /// the sender hung up) before it starts, so its first drain sees every
    /// request and then the hang-up. Returns the tickets in submission
    /// order, the shard's stats and the registry its cells live in. The
    /// engine is frozen: a debug-build kernel can pass the race's 1 ms
    /// floor, and a race prepares challengers these counts do not expect.
    fn serve_queued(requests: Vec<MultiplyRequest>) -> (Vec<Ticket>, ShardStats, MetricsRegistry) {
        let planner = cw_engine::Planner::with_policy(0, cw_engine::PlanningPolicy::frozen());
        let engine = Engine::new(planner, cw_engine::DEFAULT_CACHE_CAPACITY);
        let metrics = MetricsRegistry::new();
        let in_flight = Arc::new(AtomicUsize::new(requests.len()));
        let ctx = WorkerCtx::new(0, &engine, &metrics, &Arc::new(Tracer::new(4)), &in_flight);
        let obs = ctx.obs.clone();
        let (tx, rx) = mpsc::channel();
        let tickets = requests
            .into_iter()
            .enumerate()
            .map(|(id, request)| {
                let (sub, ticket) =
                    Submission::new(id as u64, request, SlotGuard(Arc::clone(&in_flight)));
                tx.send(sub).unwrap();
                ticket
            })
            .collect();
        drop(tx);
        worker_loop(rx, engine, ctx);
        assert_eq!(in_flight.load(Ordering::SeqCst), 0, "every slot released");
        (tickets, obs.snapshot(), metrics)
    }

    fn square(m: &Arc<CsrMatrix>) -> MultiplyRequest {
        MultiplyRequest::new(Arc::clone(m), Arc::clone(m))
    }

    #[test]
    fn work_conserving_worker_coalesces_what_queued_behind_the_first() {
        let a = Arc::new(gen::grid::poisson2d(9, 9));
        let b = Arc::new(gen::er::erdos_renyi(81, 4, 7));
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let order = [&a, &b, &a, &a, &b];

        let (tickets, stats, _) = serve_queued(order.iter().map(|m| square(m)).collect());
        for (m, ticket) in order.into_iter().zip(tickets) {
            let resp = ticket.wait().unwrap();
            let expected = if Arc::ptr_eq(m, &a) { 3 } else { 2 };
            assert_eq!(resp.report.batch_size, expected, "request {}", resp.report.request_id);
            assert!(resp.product.bits_eq(&spgemm_serial(m, m)));
        }
        assert_eq!((stats.batches, stats.coalesced_batches, stats.requests), (2, 2, 5));
        assert_eq!((stats.cache.misses, stats.cache.hits), (2, 3), "one preparation per operand");
    }

    #[test]
    fn same_lhs_requests_coalesce_into_one_batch() {
        let a = Arc::new(gen::grid::poisson2d(12, 12));
        let (tickets, stats, _) = serve_queued((0..4).map(|_| square(&a)).collect());
        for t in tickets {
            assert_eq!(t.wait().unwrap().report.batch_size, 4, "all four must ride one batch");
        }
        assert_eq!((stats.coalesced_batches, stats.max_batch_size), (1, 4));
        assert_eq!((stats.cache.misses, stats.cache.hits), (1, 3), "one preparation");
    }

    #[test]
    fn operands_that_share_a_fingerprint_share_a_shard_and_keep_an_entry_each() {
        // `b` differs from `a` only at a value the sampled fingerprint skips,
        // so both route to the same shard and coalesce into one batch; the
        // shard's cache must still hold one preparation per operand.
        let a = gen::er::erdos_renyi(400, 6, 11);
        let mut b = a.clone();
        b.vals[1] += 0.5;
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let (a, b) = (Arc::new(a), Arc::new(b));
        let order = [&a, &b, &a, &b, &a, &b];

        let (tickets, stats, _) = serve_queued(order.iter().map(|m| square(m)).collect());
        for (m, t) in order.into_iter().zip(tickets) {
            let resp = t.wait().unwrap();
            assert_eq!(resp.report.batch_size, 6);
            assert!(resp.product.bits_eq(&spgemm_serial(m, m)), "a product of the other operand");
        }
        assert_eq!((stats.cache.misses, stats.cache.hits), (2, 4), "one preparation per operand");
        assert_eq!(stats.tracked_operands, 2, "one feedback state per operand");
    }

    #[test]
    fn max_batch_flushes_a_group_early() {
        let a = Arc::new(gen::grid::poisson2d(8, 8));
        let (tickets, stats, _) = serve_queued((0..=MAX_BATCH).map(|_| square(&a)).collect());
        let sizes: Vec<usize> =
            tickets.into_iter().map(|t| t.wait().unwrap().report.batch_size).collect();
        assert!(sizes[..MAX_BATCH].iter().all(|&n| n == MAX_BATCH), "{sizes:?}");
        assert_eq!(sizes[MAX_BATCH], 1, "the request past the cap rides a batch of its own");
        assert_eq!((stats.batches, stats.max_batch_size), (2, MAX_BATCH));
    }

    #[test]
    fn queued_request_whose_deadline_passes_is_dropped_by_the_worker() {
        let a = Arc::new(gen::grid::poisson2d(8, 8));
        // Past before it is even queued: the worker reaches it dead.
        let dead = Instant::now() - Duration::from_millis(1);
        let (tickets, stats, metrics) =
            serve_queued(vec![square(&a).with_deadline_at(dead), square(&a)]);
        let [doomed, healthy]: [Ticket; 2] = tickets.try_into().ok().unwrap();
        assert_eq!(doomed.wait().unwrap_err(), ServiceError::Disconnected);
        assert!(healthy.wait().is_ok(), "undeadlined companion still serves");
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("requests_deadline_dropped"), Some(1));
        assert_eq!(snap.counter("requests_completed"), Some(1));
        assert_eq!(stats.requests, 2, "the dropped request still rode its batch");
    }
}
