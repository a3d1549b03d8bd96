//! The service: admission at the front door → fingerprint-routed worker
//! shards.

use crate::request::{MultiplyRequest, SubmitError, Ticket};
use crate::shard::{worker_loop, ShardObs, SlotGuard, Submission, WorkerCtx};
use crate::stats::{LatencySummary, ServiceStats};
use cw_engine::{CacheBudget, Engine, PlanCache, Planner, PlanningPolicy, DEFAULT_CACHE_CAPACITY};
use cw_obs::{export, Counter, FlightRecorder, LogHistogram, MetricsRegistry, Tracer};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Tunables for one [`SpgemmService`] instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker shards, each with a private engine + plan cache. Requests
    /// route to shards by lhs fingerprint, so shard count also bounds how
    /// many distinct operands prepare concurrently.
    pub shards: usize,
    /// Maximum requests in flight (queued + batching + executing); beyond
    /// it [`SpgemmService::submit`] fails fast with [`SubmitError::Full`].
    pub queue_capacity: usize,
    /// Per-shard plan-cache bound.
    pub cache_budget: CacheBudget,
    /// Seed for each shard's planner (identical seeds ⇒ identical plans
    /// and bit-identical results across shards and vs a direct engine).
    pub seed: u64,
    /// Planning policy for each shard's planner: expected reuse, and
    /// whether the shard may race an operand's admitted plans.
    pub policy: PlanningPolicy,
    /// Start with structured span tracing enabled. Off (the default),
    /// every span site in the hot path costs one atomic load; on, each
    /// request becomes a [`cw_obs::RequestTrace`] in the flight recorder.
    /// Toggle at runtime through [`SpgemmService::tracer`].
    pub tracing: bool,
    /// Flight-recorder capacity: how many recent request traces are kept
    /// for [`SpgemmService::dump_flight_recorder`] /
    /// [`SpgemmService::export_jsonl`].
    pub flight_capacity: usize,
    /// QoS admission watermark for [`crate::Priority::Low`] traffic:
    /// `Some(n)` sheds low-priority submissions with [`SubmitError::Full`]
    /// once `n` requests are already in flight, reserving the remaining
    /// `queue_capacity - n` slots for high-priority traffic. `None` (the
    /// default) admits both classes identically — prior behavior.
    pub low_priority_watermark: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 2,
            queue_capacity: 256,
            cache_budget: CacheBudget::entries(DEFAULT_CACHE_CAPACITY),
            seed: Planner::default().seed,
            policy: PlanningPolicy::default(),
            tracing: false,
            flight_capacity: FlightRecorder::DEFAULT_CAPACITY,
            low_priority_watermark: None,
        }
    }
}

/// Lifetime request counters shared between the front door and workers —
/// obs [`Counter`]s, so the same cells back both [`SpgemmService::stats`]
/// and the service metrics registry.
#[derive(Debug)]
struct Counters {
    submitted: Arc<Counter>,
    rejected: Arc<Counter>,
    completed: Arc<Counter>,
    /// Submissions rejected at the front door because their deadline had
    /// already passed (a subset of `rejected`).
    deadline_rejected: Arc<Counter>,
    /// Accepted requests dropped by a worker because their deadline passed
    /// while they queued.
    deadline_dropped: Arc<Counter>,
}

/// A threaded SpGEMM serving layer over [`cw_engine::Engine`].
///
/// See the crate docs for the architecture. The service is `Sync`: share
/// it behind an `Arc` and submit from any number of client threads.
/// Dropping it (or calling [`SpgemmService::shutdown`]) drains in-flight
/// requests gracefully before joining the worker threads.
///
/// ```
/// use cw_service::{MultiplyRequest, ServiceConfig, SpgemmService};
/// use std::sync::Arc;
///
/// let a = Arc::new(cw_sparse::gen::grid::poisson2d(10, 10));
/// let service = SpgemmService::new(ServiceConfig { shards: 1, ..ServiceConfig::default() });
///
/// // Same operand twice: the second request rides the shard's plan cache
/// // (or the same coalesced batch) and skips preprocessing.
/// let t1 = service.submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))).unwrap();
/// let t2 = service.submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))).unwrap();
/// let (r1, r2) = (t1.wait().unwrap(), t2.wait().unwrap());
/// assert!(r1.product.numerically_eq(&r2.product, 0.0));
///
/// let stats = service.shutdown();
/// assert_eq!(stats.completed, 2);
/// assert_eq!(stats.total_cache().hits, 1);
/// ```
#[derive(Debug)]
pub struct SpgemmService {
    config: ServiceConfig,
    /// One channel per shard; `None` once shutdown began.
    shard_txs: RwLock<Option<Vec<Sender<Submission>>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    next_id: AtomicU64,
    in_flight: Arc<AtomicUsize>,
    counters: Counters,
    shard_obs: Vec<ShardObs>,
    queue_depth: Arc<cw_obs::Gauge>,
    // The `latency_seconds` histogram every shard records into; `stats()`
    // summarizes its snapshot.
    latency_seconds: Arc<LogHistogram>,
    metrics: Arc<MetricsRegistry>,
    tracer: Arc<Tracer>,
    started: Instant,
    pool_tasks: Arc<Counter>,
    pool_steals: Arc<Counter>,
    pool_split_depth: Arc<cw_obs::Gauge>,
}

impl SpgemmService {
    /// Spawns `config.shards` worker threads, which run their kernels on
    /// the process's parallel pool (`RAYON_NUM_THREADS` sets its width).
    /// Degenerate knobs are normalized up front (`shards` and
    /// `queue_capacity` floors of 1), so [`SpgemmService::config`]
    /// always reports what actually runs and a zero capacity cannot
    /// produce a service that rejects everything forever.
    pub fn new(mut config: ServiceConfig) -> SpgemmService {
        config.shards = config.shards.max(1);
        config.queue_capacity = config.queue_capacity.max(1);
        let shards = config.shards;
        let in_flight = Arc::new(AtomicUsize::new(0));

        let metrics = Arc::new(MetricsRegistry::new());
        let tracer = Arc::new(Tracer::new(config.flight_capacity));
        tracer.set_enabled(config.tracing);
        let counters = Counters {
            submitted: metrics.counter("requests_submitted"),
            rejected: metrics.counter("requests_rejected"),
            completed: metrics.counter("requests_completed"),
            deadline_rejected: metrics.counter("requests_deadline_rejected"),
            deadline_dropped: metrics.counter("requests_deadline_dropped"),
        };
        let queue_depth = metrics.gauge("queue_depth");
        // Service-wide histograms: shards share the same atomic buckets,
        // which is exactly the registry's merge semantics applied eagerly.
        let latency_seconds = metrics.histogram("latency_seconds");
        // Parallel-pool telemetry (see `rayon::pool_stats`): registered up
        // front so the names are present in every export, synced lazily on
        // the read paths (`stats`/`metrics`/`export_jsonl`).
        let pool_tasks = metrics.counter("pool.tasks");
        let pool_steals = metrics.counter("pool.steals");
        let pool_split_depth = metrics.gauge("pool.split_depth");

        let mut shard_txs = Vec::with_capacity(shards);
        let mut shard_obs = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = mpsc::channel::<Submission>();
            let planner = Planner::with_policy(config.seed, config.policy);
            let mut engine =
                Engine::with_cache(planner, PlanCache::with_budget(config.cache_budget));
            engine.set_tracer(Arc::clone(&tracer));
            // Shard telemetry: obs cells registered under `shard{N}.*`,
            // shared by the worker and the service's stats view.
            let ctx = WorkerCtx::new(shard, &engine, &metrics, &tracer, &in_flight);
            shard_obs.push(ctx.obs.clone());
            workers.push(
                std::thread::Builder::new()
                    .name(format!("cw-service-shard-{shard}"))
                    .spawn(move || worker_loop(rx, engine, ctx))
                    .expect("spawn shard worker"),
            );
            shard_txs.push(tx);
        }

        SpgemmService {
            config,
            shard_txs: RwLock::new(Some(shard_txs)),
            workers: Mutex::new(workers),
            next_id: AtomicU64::new(0),
            in_flight,
            counters,
            shard_obs,
            queue_depth,
            latency_seconds,
            metrics,
            tracer,
            started: Instant::now(),
            pool_tasks,
            pool_steals,
            pool_split_depth,
        }
    }

    /// Folds the process-wide parallel-pool counters
    /// ([`rayon::pool_stats`]) into the registry's stable names:
    /// `pool.tasks` and `pool.steals` (monotone counters, delta-synced so
    /// repeated reads never double-count) and `pool.split_depth` (a
    /// high-water gauge of the deepest recursive split). The pool is
    /// shared by every consumer in the process, so these are process
    /// totals, not per-service attributions.
    fn sync_pool_metrics(&self) {
        let s = rayon::pool_stats();
        self.pool_tasks.add(s.tasks.saturating_sub(self.pool_tasks.get()));
        self.pool_steals.add(s.steals.saturating_sub(self.pool_steals.get()));
        self.pool_split_depth.set_max(s.max_split_depth as i64);
    }

    /// The shard senders (`None` once shutdown began). The only write is
    /// shutdown's single `take`, so a poisoned lock still holds valid data.
    fn shard_txs(&self) -> RwLockReadGuard<'_, Option<Vec<Sender<Submission>>>> {
        self.shard_txs.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configuration this service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Requests currently queued, batching, or executing.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Submits a multiply. Returns a [`Ticket`] redeemable for the
    /// response, [`SubmitError::ShapeMismatch`] when the operands do not
    /// compose, [`SubmitError::DeadlineExpired`] when the request's
    /// deadline already passed, [`SubmitError::Full`] when the in-flight
    /// bound (or the low-priority watermark) is hit (backpressure — retry
    /// later), or [`SubmitError::ShuttingDown`] after
    /// [`SpgemmService::shutdown`] began.
    pub fn submit(&self, request: MultiplyRequest) -> Result<Ticket, SubmitError> {
        // Validate at the front door: a malformed pair must never reach
        // (and panic) a worker shard.
        if request.lhs.ncols != request.rhs.nrows {
            return Err(SubmitError::ShapeMismatch {
                lhs_ncols: request.lhs.ncols,
                rhs_nrows: request.rhs.nrows,
            });
        }
        // A masked request's mask must match the product it will filter.
        if let crate::RequestShape::Masked(mask) = &request.shape {
            if mask.nrows != request.lhs.nrows || mask.ncols != request.rhs.ncols {
                return Err(SubmitError::MaskShapeMismatch {
                    mask_nrows: mask.nrows,
                    mask_ncols: mask.ncols,
                    product_nrows: request.lhs.nrows,
                    product_ncols: request.rhs.ncols,
                });
            }
        }
        // QoS: an already-dead request is shed before it takes a queue
        // slot, costs a fingerprint, or wakes a shard.
        if request.deadline.is_some_and(|d| Instant::now() >= d) {
            self.counters.rejected.inc();
            self.counters.deadline_rejected.inc();
            return Err(SubmitError::DeadlineExpired);
        }

        if self.shard_txs().is_none() {
            return Err(SubmitError::ShuttingDown);
        }

        // Low-priority traffic is capped at the watermark (when set), so
        // the slots above it stay reserved for high-priority requests.
        let cap = match (request.priority, self.config.low_priority_watermark) {
            (crate::Priority::Low, Some(mark)) => mark.min(self.config.queue_capacity),
            _ => self.config.queue_capacity,
        };
        let admitted = self
            .in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| (n < cap).then_some(n + 1));
        let depth = match admitted {
            Ok(n) => n + 1,
            Err(_) => {
                self.counters.rejected.inc();
                return Err(SubmitError::Full);
            }
        };
        self.queue_depth.set(depth as i64);
        // From here the slot is owned by the guard: any path that drops
        // the submission unserved still releases it.
        let slot = SlotGuard(Arc::clone(&self.in_flight));
        // Counted at admission so `submitted >= completed` holds at every
        // instant a reader can observe (workers only see the request after
        // the send below).
        self.counters.submitted.inc();

        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let (submission, ticket) = Submission::new(id, request, slot);
        // Straight onto the shard that owns this lhs fingerprint; the shard
        // coalesces whatever queues behind it while it is busy.
        let shard = submission.fingerprint.shard_index(self.config.shards);
        let sent = match self.shard_txs().as_ref() {
            Some(txs) => txs[shard].send(submission).is_ok(),
            None => false,
        };
        if !sent {
            // Shutdown raced this submit (or the shard's worker is gone):
            // the dropped submission's SlotGuard returned the slot, and the
            // admission count is rolled back.
            self.counters.submitted.sub(1);
            return Err(SubmitError::ShuttingDown);
        }
        Ok(ticket)
    }

    /// Point-in-time service statistics (callable any time, including
    /// after shutdown). A view over the same obs cells the metrics
    /// registry exports — the two can never disagree.
    pub fn stats(&self) -> ServiceStats {
        self.sync_pool_metrics();
        let completed = self.counters.completed.get();
        let elapsed = self.started.elapsed().as_secs_f64();
        let latency = LatencySummary::from_histogram(&self.latency_seconds.snapshot());
        ServiceStats {
            submitted: self.counters.submitted.get(),
            rejected: self.counters.rejected.get(),
            deadline_rejected: self.counters.deadline_rejected.get(),
            deadline_dropped: self.counters.deadline_dropped.get(),
            completed,
            elapsed_seconds: elapsed,
            throughput_rps: completed as f64 / elapsed.max(1e-9),
            latency,
            shards: self.shard_obs.iter().map(ShardObs::snapshot).collect(),
        }
    }

    /// The service's span tracer: toggle recording at runtime
    /// (`tracer().set_enabled(true)`) and read the flight recorder.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The service's metrics registry: counters, gauges, and mergeable
    /// latency/queue/execute/batch-size/kernel histograms, all named (see
    /// the crate docs for the taxonomy).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.sync_pool_metrics();
        &self.metrics
    }

    /// Human-readable dump of the flight recorder and metrics snapshot —
    /// the post-incident view. Also printed to stderr if a shard worker
    /// panics (observed at [`SpgemmService::shutdown`] join).
    pub fn dump_flight_recorder(&self) -> String {
        self.sync_pool_metrics();
        export::render_human(&self.tracer.flight_traces(), &self.metrics.snapshot())
    }

    /// The versioned JSON-lines export of recent request traces plus the
    /// metrics snapshot (see [`cw_obs::export`] for the schema).
    pub fn export_jsonl(&self) -> String {
        self.sync_pool_metrics();
        export::export_jsonl(&self.tracer.flight_traces(), &self.metrics.snapshot())
    }

    /// Graceful shutdown: stops accepting work, serves every queued and
    /// pending request, joins the threads, and returns the final
    /// statistics. Idempotent. A crashed worker dumps the flight recorder
    /// to stderr for post-mortem.
    pub fn shutdown(&self) -> ServiceStats {
        // Dropping the shard senders hangs up on every shard: each sees
        // `Disconnected` once its channel drains, serves what it still
        // holds, and exits.
        drop(self.shard_txs.write().unwrap_or_else(PoisonError::into_inner).take());
        for w in self.workers.lock().unwrap().drain(..) {
            if w.join().is_err() {
                eprintln!(
                    "cw-service: shard worker panicked; flight recorder dump:\n{}",
                    self.dump_flight_recorder()
                );
            }
        }
        self.stats()
    }
}

impl Drop for SpgemmService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::gen;
    use cw_sparse::CsrMatrix;
    use cw_spgemm::spgemm_serial;
    use std::time::Duration;

    fn arc(m: CsrMatrix) -> Arc<CsrMatrix> {
        Arc::new(m)
    }

    #[test]
    fn single_request_round_trips_and_matches_baseline() {
        let a = arc(gen::grid::poisson2d(10, 10));
        let service = SpgemmService::new(ServiceConfig::default());
        let ticket = service.submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))).unwrap();
        let resp = ticket.wait().unwrap();
        assert!(resp.product.numerically_eq(&spgemm_serial(&a, &a), 1e-9));
        assert!(!resp.report.execution.cache_hit, "first request must prepare");
        assert!(resp.report.latency_seconds >= resp.report.execute_seconds);
        let stats = service.shutdown();
        assert_eq!((stats.submitted, stats.completed, stats.rejected), (1, 1, 0));
        assert_eq!(stats.latency.count, 1);
    }

    #[test]
    fn latency_count_is_the_sum_of_per_shard_requests() {
        // Several operands so more than one shard serves traffic; every
        // shard records into the one histogram the summary reads.
        let service = SpgemmService::new(ServiceConfig { shards: 3, ..ServiceConfig::default() });
        let tickets: Vec<_> = (4..16)
            .map(|n| {
                let a = arc(gen::grid::poisson2d(n, n));
                service.submit(MultiplyRequest::new(Arc::clone(&a), a)).unwrap()
            })
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let stats = service.shutdown();
        assert_eq!(stats.latency.count, 12);
        assert_eq!(stats.shards.iter().map(|s| s.requests).sum::<u64>(), stats.latency.count);
        assert!(stats.shards.iter().filter(|s| s.requests > 0).count() > 1);
        assert!(stats.latency.p50_seconds > 0.0);
        assert!(stats.latency.p50_seconds <= stats.latency.p99_seconds);
        assert!(stats.latency.p99_seconds <= stats.latency.max_seconds);
    }

    #[test]
    fn zero_window_dispatches_each_submission_alone() {
        let a = arc(gen::grid::poisson2d(9, 9));
        // Frozen: a debug-build kernel can pass the race's 1 ms floor, and a
        // race's second request runs (and prepares) a challenger.
        let policy = PlanningPolicy::frozen();
        let service =
            SpgemmService::new(ServiceConfig { shards: 1, policy, ..ServiceConfig::default() });
        for _ in 0..3 {
            let t = service.submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))).unwrap();
            let resp = t.wait().unwrap();
            assert_eq!(resp.report.batch_size, 1);
        }
        let stats = service.shutdown();
        assert_eq!(stats.coalesced_batches(), 0);
        // Each request waits for the last, so none queues behind another
        // and none coalesces; the shard cache still amortizes.
        assert_eq!(stats.total_cache().hits, 2);
    }

    #[test]
    fn forced_plan_requests_execute_that_plan() {
        let a = arc(gen::grid::poisson2d(9, 9));
        let plan = cw_engine::Plan::from_suggestion(cw_engine::Suggestion::Hierarchical);
        let service = SpgemmService::new(ServiceConfig::default());
        let t = service
            .submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a)).with_plan(plan))
            .unwrap();
        let resp = t.wait().unwrap();
        assert_eq!(resp.report.execution.plan, plan);
        assert!(resp.product.numerically_eq(&spgemm_serial(&a, &a), 1e-9));
        service.shutdown();
    }

    #[test]
    fn shape_mismatch_is_rejected_at_submit_and_shards_survive() {
        let a = arc(gen::grid::poisson2d(10, 10)); // 100 × 100
        let bad = arc(gen::grid::poisson2d(5, 5)); // 25 × 25
        let service = SpgemmService::new(ServiceConfig::default());
        let err =
            service.submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&bad))).unwrap_err();
        assert_eq!(err, SubmitError::ShapeMismatch { lhs_ncols: 100, rhs_nrows: 25 });
        assert_eq!(service.in_flight(), 0, "rejected request must not hold a queue slot");
        // The shards never saw the malformed pair and keep serving.
        let t = service.submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))).unwrap();
        assert!(t.wait().is_ok());
        let stats = service.shutdown();
        assert_eq!((stats.submitted, stats.completed), (1, 1));
    }

    #[test]
    fn expired_deadline_is_shed_before_taking_a_slot() {
        let a = arc(gen::grid::poisson2d(8, 8));
        let service = SpgemmService::new(ServiceConfig::default());
        let dead = Instant::now() - Duration::from_millis(1);
        let err = service
            .submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a)).with_deadline_at(dead))
            .unwrap_err();
        assert_eq!(err, SubmitError::DeadlineExpired);
        assert_eq!(service.in_flight(), 0, "shed request must not hold a queue slot");
        // A generous deadline sails through and is served normally.
        let t = service
            .submit(
                MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))
                    .with_deadline_in(Duration::from_secs(300)),
            )
            .unwrap();
        let resp = t.wait().unwrap();
        let slack = resp.report.deadline_slack_seconds.expect("deadline was set");
        assert!(slack > 0.0 && slack < 300.0, "slack {slack}");
        let stats = service.shutdown();
        assert_eq!((stats.rejected, stats.deadline_rejected, stats.completed), (1, 1, 1));
        assert_eq!(stats.deadline_dropped, 0);
        let snap = service.metrics().snapshot();
        assert_eq!(snap.counter("requests_deadline_rejected"), Some(1));
    }

    /// Takes one queue slot as an in-flight request would, until dropped.
    fn hold_a_slot(service: &SpgemmService) -> SlotGuard {
        service.in_flight.fetch_add(1, Ordering::SeqCst);
        SlotGuard(Arc::clone(&service.in_flight))
    }

    #[test]
    fn bounded_queue_rejects_overload_with_full() {
        let a = arc(gen::grid::poisson2d(8, 8));
        let service = SpgemmService::new(ServiceConfig {
            shards: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        let held = hold_a_slot(&service);
        let err = service.submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))).unwrap_err();
        assert_eq!(err, SubmitError::Full);
        assert_eq!(service.in_flight(), 1, "a rejected request takes no slot");
        // Backpressure is not failure: once the slot frees, the next
        // request is admitted and completes…
        drop(held);
        let t = service.submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))).unwrap();
        assert!(t.wait().is_ok());
        let stats = service.shutdown();
        // …and the books record one rejection, one completion.
        assert_eq!((stats.submitted, stats.completed, stats.rejected), (1, 1, 1));
    }

    #[test]
    fn low_priority_is_shed_at_the_watermark() {
        let a = arc(gen::grid::poisson2d(8, 8));
        // Capacity 4, watermark 1: with one slot held, low-priority
        // traffic is at its cap while high-priority still has three slots.
        let service = SpgemmService::new(ServiceConfig {
            shards: 1,
            queue_capacity: 4,
            low_priority_watermark: Some(1),
            ..ServiceConfig::default()
        });
        let held = hold_a_slot(&service);
        let err = service
            .submit(
                MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))
                    .with_priority(crate::Priority::Low),
            )
            .unwrap_err();
        assert_eq!(err, SubmitError::Full, "low priority sheds at the watermark");
        let high = service.submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))).unwrap();
        let resp = high.wait().unwrap();
        assert_eq!(resp.report.priority, crate::Priority::High);
        drop(held);
        let stats = service.shutdown();
        assert_eq!((stats.rejected, stats.completed), (1, 1));
        assert_eq!(stats.deadline_rejected, 0, "watermark shed is not a deadline shed");
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let a = arc(gen::grid::poisson2d(6, 6));
        let service = SpgemmService::new(ServiceConfig::default());
        service.shutdown();
        let err = service.submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))).unwrap_err();
        assert_eq!(err, SubmitError::ShuttingDown);
        // Shutdown is idempotent.
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 0);
    }

    #[test]
    fn tracing_disabled_by_default_records_nothing() {
        let a = arc(gen::grid::poisson2d(8, 8));
        let service = SpgemmService::new(ServiceConfig::default());
        let t = service.submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))).unwrap();
        t.wait().unwrap();
        service.shutdown();
        assert!(!service.tracer().enabled());
        assert!(service.tracer().flight_traces().is_empty());
        assert!(service.tracer().ambient_spans().is_empty());
        // Metrics are always on regardless of tracing.
        assert_eq!(service.metrics().snapshot().counter("requests_completed"), Some(1));
    }

    #[test]
    fn traced_requests_nest_and_reconcile_with_reports() {
        let a = arc(gen::grid::poisson2d(10, 10));
        // Frozen, so requests 2 and 3 are cache hits whatever the clock.
        let service = SpgemmService::new(ServiceConfig {
            shards: 1,
            tracing: true,
            policy: PlanningPolicy::frozen(),
            ..ServiceConfig::default()
        });
        let mut reports = Vec::new();
        for _ in 0..3 {
            let t = service.submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))).unwrap();
            reports.push(t.wait().unwrap().report);
        }
        service.shutdown();

        let traces = service.tracer().flight_traces();
        assert_eq!(traces.len(), 3);
        for report in &reports {
            let tr = traces
                .iter()
                .find(|t| t.trace_id == report.request_id)
                .expect("every request leaves a trace");
            assert!(tr.nests_correctly(), "spans must nest: {tr:?}");
            for name in
                ["request", "queue", "coalesce", "dispatch", "serve", "plan", "prepare", "execute"]
            {
                assert!(tr.span(name).is_some(), "missing span {name} in {tr:?}");
            }
            // The pre-execution spans tile the reported queue wait.
            let waits: f64 = ["queue", "coalesce", "dispatch"]
                .iter()
                .map(|n| tr.span(n).unwrap().duration_seconds())
                .sum();
            assert!(
                (waits - report.queue_seconds).abs() < 1e-5,
                "queue+coalesce+dispatch ({waits}s) must reconcile with queue_seconds ({}s)",
                report.queue_seconds
            );
            // The engine's kernel span reconciles with the report, and the
            // serve span covers it.
            let execute = tr.span("execute").unwrap();
            let kernel = report.execution.timings.kernel_seconds;
            assert!((execute.duration_seconds() - kernel).abs() < 1e-5);
            let serve = tr.span("serve").unwrap();
            assert!(serve.start_ns <= execute.start_ns && execute.end_ns <= serve.end_ns);
            // The root closes after the latency measurement.
            let root = tr.root().unwrap();
            assert!(root.duration_seconds() + 1e-6 >= report.latency_seconds);
        }
        // Cache hits (requests 2 and 3) still show the full stage chain,
        // with zero-length plan/prepare.
        let hit = traces.iter().find(|t| t.trace_id == reports[1].request_id).unwrap();
        assert_eq!(hit.span("prepare").unwrap().duration_ns(), 0);
    }

    #[test]
    fn metrics_registry_mirrors_service_stats() {
        let a = arc(gen::grid::poisson2d(12, 12));
        let service = SpgemmService::new(ServiceConfig { shards: 1, ..ServiceConfig::default() });
        let tickets: Vec<_> = (0..4)
            .map(|_| service.submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))).unwrap())
            .collect();
        let stats = service.shutdown();
        for t in tickets {
            t.wait().unwrap();
        }

        let snap = service.metrics().snapshot();
        assert_eq!(snap.counter("requests_submitted"), Some(stats.submitted));
        assert_eq!(snap.counter("requests_completed"), Some(stats.completed));
        assert_eq!(snap.counter("shard0.coalesced_batches"), Some(stats.coalesced_batches()));
        assert_eq!(
            snap.counter("shard0.cache.misses"),
            Some(stats.shards[0].cache.misses),
            "registry and ShardStats are views over the same cells"
        );
        // ShardStats folds within-batch reuses into hits; the registry
        // keeps the raw split.
        assert_eq!(
            snap.counter("shard0.cache.hits").unwrap() + snap.counter("shard0.reuse_hits").unwrap(),
            stats.shards[0].cache.hits
        );
        assert_eq!(snap.gauge("shard0.max_batch_size"), Some(stats.max_batch_size() as i64));
        let latency = snap.histogram("latency_seconds").expect("latency histogram");
        assert_eq!(latency.count, stats.completed);
        assert!(latency.quantile(0.5) > 0.0);
        // Every served request recorded its kernel time.
        let kernels = snap.histogram("kernel_seconds").expect("kernel histogram");
        assert_eq!(kernels.count, stats.completed);
        // The JSON-lines export is non-empty and versioned even without
        // tracing (metrics line only).
        assert!(service.export_jsonl().starts_with("{\"schema_version\":"));
        assert!(service.dump_flight_recorder().contains("latency_seconds"));
        // Parallel-pool telemetry is registered under its stable names and
        // lands in the JSONL export. The cells mirror process-wide pool
        // totals (shared across every test in this binary), so only
        // presence — not magnitude — is pinned here.
        assert!(snap.counter("pool.tasks").is_some());
        assert!(snap.counter("pool.steals").is_some());
        assert!(snap.gauge("pool.split_depth").is_some());
        let jsonl = service.export_jsonl();
        for name in ["pool.tasks", "pool.steals", "pool.split_depth"] {
            assert!(jsonl.contains(name), "JSONL export missing {name}");
        }
    }

    #[test]
    fn service_is_shareable_across_client_threads() {
        let service = Arc::new(SpgemmService::new(ServiceConfig::default()));
        let mats: Vec<Arc<CsrMatrix>> =
            (0..4).map(|s| arc(gen::er::erdos_renyi(80, 4, s))).collect();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let service = Arc::clone(&service);
                let a = Arc::clone(&mats[i]);
                std::thread::spawn(move || {
                    let t = service
                        .submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a)))
                        .unwrap();
                    let resp = t.wait().unwrap();
                    assert!(resp.product.numerically_eq(&spgemm_serial(&a, &a), 1e-9));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = service.shutdown();
        assert_eq!(stats.completed, 4);
    }
}
