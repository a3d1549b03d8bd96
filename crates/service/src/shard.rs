//! Worker shards: each owns an [`Engine`] (and thus a private plan cache)
//! and serves the submissions routed onto its channel.
//!
//! Because [`crate::SpgemmService::submit`] routes every request for a
//! given lhs fingerprint to the same shard, a shard's cache sees *all*
//! traffic for its matrices and *only* that traffic — no cross-thread cache
//! locking, no duplicate preparations of one operand on two shards.
//!
//! A shard keys each lhs `Arc` once: it remembers the last lhs it keyed as
//! a `Weak` beside its [`OperandKey`], and a request whose lhs is that same
//! allocation reuses the key instead of checksumming the operand again
//! ([`Engine::prepare_keyed`]). The bytes behind a remembered address
//! cannot change: while the `Weak` lives, `Arc::get_mut` fails and
//! `Arc::make_mut` moves the data to a new allocation.
//!
//! A worker serves its channel in arrival order, one submission at a time;
//! a request that finds its shard idle runs at once, and a hang-up still
//! serves everything already queued. Every request resolves its own plan
//! and prepared operand through the shard engine, whose plan cache is what
//! amortizes preprocessing across repeats of one operand.
//!
//! Shard telemetry lives on the service's [`cw_obs`] substrate: every
//! counter a worker bumps is an `Arc`'d obs cell also bound into the
//! service [`MetricsRegistry`], so [`crate::ServiceStats`] and the metrics
//! snapshot are two views over the same atomics. When tracing is enabled
//! each request becomes a [`cw_obs::RequestTrace`]: a retroactive `queue`
//! span (submitted → execution began), a live `serve` span around the
//! engine call (under which the engine records
//! `plan`/`prepare`/`execute`/`postprocess`), and a `request` root closing
//! the trace into the flight recorder.

use crate::request::{
    MultiplyRequest, MultiplyResponse, RequestShape, ServiceError, ServiceReport, Ticket,
};
use crate::stats::ShardStats;
use cw_engine::{CacheCounters, Engine, OperandKey, Plan};
use cw_obs::{Counter, Gauge, LogHistogram, MetricsRegistry, Tracer};
use cw_sparse::{fingerprint, CsrMatrix, MatrixFingerprint};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Weak};
use std::time::Instant;

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
    pub(crate) respond: Sender<Result<MultiplyResponse, ServiceError>>,
    /// Held only for its drop effect (releasing the queue slot).
    pub(crate) _slot: SlotGuard,
}

impl Submission {
    /// Wraps an admitted `request` (holding `slot`) for the shard its lhs
    /// fingerprint routes to, with the [`Ticket`] that redeems it.
    pub(crate) fn new(id: u64, request: MultiplyRequest, slot: SlotGuard) -> (Submission, Ticket) {
        let (respond, rx) = mpsc::channel();
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
            submitted: Instant::now(),
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
    pub(crate) requests: Arc<Counter>,
    pub(crate) replans: Arc<Counter>,
    pub(crate) cached_operands: Arc<Gauge>,
    pub(crate) cached_bytes: Arc<Gauge>,
    pub(crate) tracked_operands: Arc<Gauge>,
    /// Live handles on the shard engine's plan-cache counters.
    pub(crate) cache: CacheCounters,
}

impl ShardObs {
    /// The public [`ShardStats`] view over these cells.
    pub(crate) fn snapshot(&self) -> ShardStats {
        ShardStats {
            shard: self.shard,
            requests: self.requests.get(),
            cache: self.cache.snapshot(),
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
                requests: metrics.counter(&format!("{p}requests")),
                replans: metrics.counter(&format!("{p}replans")),
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
            kernel_seconds: metrics.histogram("kernel_seconds"),
            queue_depth: metrics.gauge("queue_depth"),
            in_flight: Arc::clone(in_flight),
        }
    }
}

/// Serves submissions in arrival order until the service hangs up, then
/// serves whatever is still queued. Responses go straight to each
/// request's private channel; counters land in the shard's [`ShardObs`]
/// cells so [`crate::SpgemmService::stats`] and the metrics registry can
/// read them without talking to the thread.
pub(crate) fn worker_loop(rx: Receiver<Submission>, mut engine: Engine, ctx: WorkerCtx) {
    let mut keys = KeyMemo::default();
    for sub in rx {
        serve(&mut engine, &ctx, &mut keys, sub);
    }
}

/// The last lhs a shard keyed, held weakly, and its key. While the `Weak`
/// lives no other `Arc` can be allocated at its address and the data there
/// cannot be mutated in place, so an lhs at that address is that operand.
#[derive(Default)]
struct KeyMemo(Option<(Weak<CsrMatrix>, OperandKey)>);

impl KeyMemo {
    /// `lhs`'s key: the remembered one when `lhs` is the remembered
    /// allocation, else computed and remembered.
    fn key(&mut self, lhs: &Arc<CsrMatrix>) -> OperandKey {
        match &self.0 {
            Some((seen, key)) if Weak::as_ptr(seen) == Arc::as_ptr(lhs) => *key,
            _ => {
                let key = OperandKey::of(lhs);
                self.0 = Some((Arc::downgrade(lhs), key));
                key
            }
        }
    }
}

/// Serves one submission: every request resolves its own plan and
/// prepared operand through the engine, whose plan cache gives each repeat
/// of an operand the preparation it already paid for.
fn serve(engine: &mut Engine, ctx: &WorkerCtx, keys: &mut KeyMemo, sub: Submission) {
    let started = Instant::now();
    ctx.queue_depth.set(ctx.in_flight.load(Ordering::SeqCst) as i64);
    ctx.obs.requests.inc();
    // The deadline already gated admission; here it gates execution — a
    // request that died waiting in the queue is dropped before any trace,
    // cache, or kernel work happens. Dropping `sub` hangs up its response
    // channel (the ticket resolves `ServiceError::Disconnected`) and the
    // SlotGuard frees the queue slot.
    if sub.deadline.is_some_and(|d| started >= d) {
        ctx.deadline_dropped.inc();
        return;
    }
    let queue_seconds = started.saturating_duration_since(sub.submitted).as_secs_f64();
    ctx.tracer.begin_trace(sub.id);
    if ctx.tracer.enabled() {
        // The queue wait, reconstructed from the worker's stamps
        // (monotone-clamped so the spans always tile).
        let submitted_ns = ctx.tracer.ns_of(sub.submitted);
        let started_ns = ctx.tracer.ns_of(started).max(submitted_ns);
        ctx.tracer.record_span_at("queue", submitted_ns, started_ns, 1);
    }
    let serve_span = ctx.tracer.span("serve");
    let operand = keys.key(&sub.lhs);
    let (prepared, prep_timings, cache_hit) =
        engine.prepare_keyed(&sub.lhs, operand, sub.plan, sub.shape.output_shape());
    // Execute + record + report through the engine's shared tail: each
    // shard owns its engine, so measured kernels feed its races with no
    // cross-thread locking. A forced plan never seeds a race; it is a race
    // sample only when it is the very plan the race asked for. One `Arc` on
    // both sides (an `A²` request, or a wire SUBMIT flagged rhs-is-lhs) is
    // the proof that `rhs` is the prepared operand; anything else is proven
    // by content.
    let (product, execution) = engine.execute_prepared_proven(
        &prepared,
        &sub.rhs,
        Arc::ptr_eq(&sub.lhs, &sub.rhs),
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
    ctx.obs.cached_operands.set(engine.cached_operands() as i64);
    ctx.obs.cached_bytes.set(engine.cache().bytes() as i64);
    ctx.obs.tracked_operands.set(engine.feedback().len() as i64);
    let report = ServiceReport {
        request_id: sub.id,
        shard: ctx.shard,
        batch_size: 1,
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
    // measurement (so root duration ≥ reported latency) but *before* the
    // response is sent, so a caller who has seen the response can already
    // find the trace in the recorder.
    ctx.tracer.end_trace(sub.id, "request", ctx.tracer.ns_of(sub.submitted));
    ctx.completed.inc();
    // A dropped Ticket is fine: the response is simply discarded.
    let _ = sub.respond.send(Ok(MultiplyResponse { product, report }));
    // `sub` (and its SlotGuard) drops here, releasing the queue slot only
    // after the response is delivered.
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::gen;
    use cw_spgemm::spgemm_serial;
    use std::time::Duration;

    /// Runs one worker on the test thread over `requests`, all queued (and
    /// the sender hung up) before it starts, so it serves every queued
    /// request after the hang-up. Returns the tickets in submission order,
    /// the shard's stats, the registry its cells live in and its tracer
    /// (enabled, with room for eight traces). The engine is frozen: a
    /// debug-build kernel can pass the race's 1 ms floor, and a race
    /// prepares challengers these counts do not expect.
    fn serve_queued(
        requests: Vec<MultiplyRequest>,
    ) -> (Vec<Ticket>, ShardStats, MetricsRegistry, Arc<Tracer>) {
        let planner = cw_engine::Planner::with_policy(0, cw_engine::PlanningPolicy::frozen());
        let engine = Engine::new(planner, cw_engine::DEFAULT_CACHE_CAPACITY);
        let metrics = MetricsRegistry::new();
        let in_flight = Arc::new(AtomicUsize::new(requests.len()));
        let tracer = Arc::new(Tracer::new(8));
        tracer.set_enabled(true);
        let ctx = WorkerCtx::new(0, &engine, &metrics, &tracer, &in_flight);
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
        (tickets, obs.snapshot(), metrics, tracer)
    }

    fn square(m: &Arc<CsrMatrix>) -> MultiplyRequest {
        MultiplyRequest::new(Arc::clone(m), Arc::clone(m))
    }

    #[test]
    fn worker_serves_its_channel_in_arrival_order() {
        let a = Arc::new(gen::grid::poisson2d(9, 9));
        let b = Arc::new(gen::er::erdos_renyi(81, 4, 7));
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let order = [&a, &b, &a, &a, &b];

        let (tickets, stats, _, tracer) = serve_queued(order.iter().map(|m| square(m)).collect());
        for (m, ticket) in order.into_iter().zip(tickets) {
            let resp = ticket.wait().unwrap();
            assert_eq!(resp.report.batch_size, 1, "request {}", resp.report.request_id);
            assert!(resp.product.bits_eq(&spgemm_serial(m, m)));
        }
        let served: Vec<u64> = tracer.flight_traces().iter().map(|t| t.trace_id).collect();
        assert_eq!(served, (0..5).collect::<Vec<_>>(), "served in submission order");
        assert_eq!(stats.requests, 5);
        assert_eq!((stats.cache.misses, stats.cache.hits), (2, 3), "one preparation per operand");
    }

    #[test]
    fn operands_that_share_a_fingerprint_share_a_shard_and_keep_an_entry_each() {
        // `b` differs from `a` only at a value the sampled fingerprint skips,
        // so both route to the same shard; the shard's cache must still hold
        // one preparation per operand.
        let a = gen::er::erdos_renyi(400, 6, 11);
        let mut b = a.clone();
        b.vals[1] += 0.5;
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let (a, b) = (Arc::new(a), Arc::new(b));
        let order = [&a, &b, &a, &b, &a, &b];

        let (tickets, stats, _, _) = serve_queued(order.iter().map(|m| square(m)).collect());
        for (m, t) in order.into_iter().zip(tickets) {
            let resp = t.wait().unwrap();
            assert!(resp.product.bits_eq(&spgemm_serial(m, m)), "a product of the other operand");
        }
        assert_eq!((stats.cache.misses, stats.cache.hits), (2, 4), "one preparation per operand");
        assert_eq!(stats.tracked_operands, 2, "one feedback state per operand");
    }

    #[test]
    fn a_same_arc_burst_is_keyed_once() {
        let a = Arc::new(gen::grid::poisson2d(9, 9));
        let mut keys = KeyMemo::default();
        let key = keys.key(&a);
        assert_eq!(key, OperandKey::of(&a));
        // A key planted for the remembered allocation is what every repeat
        // of that `Arc` gets: the memo is read, the matrix is not.
        let planted = OperandKey { checksum: !key.checksum, ..key };
        keys.0 = Some((Arc::downgrade(&a), planted));
        for _ in 0..3 {
            assert_eq!(keys.key(&a), planted);
        }
        // An equal matrix in its own allocation is keyed in full and
        // replaces the memo, so `a` is then keyed in full again.
        let copy = Arc::new((*a).clone());
        assert_eq!(keys.key(&copy), key);
        assert_eq!(keys.key(&a), key);

        // Through a worker, a burst with repeats is served the same bits,
        // one preparation per operand.
        let b = Arc::new(gen::er::erdos_renyi(81, 4, 7));
        let order = [&a, &a, &a, &b, &b, &a, &copy, &copy];
        let (tickets, stats, _, _) = serve_queued(order.iter().map(|m| square(m)).collect());
        for (m, ticket) in order.into_iter().zip(tickets) {
            assert!(ticket.wait().unwrap().product.bits_eq(&spgemm_serial(m, m)));
        }
        assert_eq!((stats.cache.misses, stats.cache.hits), (2, 6), "`copy` is `a`'s operand");
    }

    #[test]
    fn an_operand_edited_through_make_mut_is_served_its_new_product() {
        let planner = cw_engine::Planner::with_policy(0, cw_engine::PlanningPolicy::frozen());
        let mut engine = Engine::new(planner, cw_engine::DEFAULT_CACHE_CAPACITY);
        let (metrics, tracer) = (MetricsRegistry::new(), Arc::new(Tracer::new(8)));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let ctx = WorkerCtx::new(0, &engine, &metrics, &tracer, &in_flight);
        let mut keys = KeyMemo::default();
        let mut serve_one = |engine: &mut Engine, m: &Arc<CsrMatrix>| {
            in_flight.fetch_add(1, Ordering::SeqCst);
            let slot = SlotGuard(Arc::clone(&in_flight));
            let (sub, ticket) = Submission::new(0, square(m), slot);
            serve(engine, &ctx, &mut keys, sub);
            ticket.wait().unwrap().product
        };

        let mut a = Arc::new(gen::grid::poisson2d(9, 9));
        let first = serve_one(&mut engine, &a);
        assert!(first.bits_eq(&spgemm_serial(&a, &a)));
        // The test holds the only strong reference, so `make_mut` edits in
        // place unless the shard's memo holds the allocation.
        let before = Arc::as_ptr(&a);
        Arc::make_mut(&mut a).vals[0] += 1.0;
        assert_ne!(Arc::as_ptr(&a), before, "the edit stayed at the remembered address");
        let second = serve_one(&mut engine, &a);
        assert!(second.bits_eq(&spgemm_serial(&a, &a)), "served the cached preparation");
        assert!(!second.bits_eq(&first));
    }

    #[test]
    fn queued_request_whose_deadline_passes_is_dropped_by_the_worker() {
        let a = Arc::new(gen::grid::poisson2d(8, 8));
        // Past before it is even queued: the worker reaches it dead.
        let dead = Instant::now() - Duration::from_millis(1);
        let (tickets, stats, metrics, _) =
            serve_queued(vec![square(&a).with_deadline_at(dead), square(&a)]);
        let [doomed, healthy]: [Ticket; 2] = tickets.try_into().ok().unwrap();
        assert_eq!(doomed.wait().unwrap_err(), ServiceError::Disconnected);
        assert!(healthy.wait().is_ok(), "undeadlined companion still serves");
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("requests_deadline_dropped"), Some(1));
        assert_eq!(snap.counter("requests_completed"), Some(1));
        assert_eq!(stats.requests, 2, "the dropped request still counts as pulled off the channel");
    }
}
