//! **cw-service** — a threaded serving layer over [`cw_engine::Engine`]
//! for repeated SpGEMM traffic.
//!
//! The paper's pipeline pays a one-time reordering/clustering cost that
//! only amortizes under repeated multiplications (§4.5, Fig. 10)
//! — exactly the serving scenario. [`SpgemmService`] turns the
//! single-threaded engine into a concurrent front door:
//!
//! * **Submission queue with backpressure** — [`SpgemmService::submit`]
//!   accepts [`MultiplyRequest`]s up to a configurable in-flight bound and
//!   rejects the rest with [`SubmitError::Full`], so overload degrades into
//!   fast failures instead of unbounded memory growth.
//! * **Arrival-order shards** — work-conserving: a request that finds its
//!   shard idle runs at once, and requests that queue behind a busy shard
//!   are served in the order they arrived. Each resolves its prepared
//!   operand through the shard's plan cache, so one preparation serves
//!   every repeat of an operand.
//! * **Sharded plan caches** — [`SpgemmService::submit`] routes each
//!   request by [`cw_sparse::MatrixFingerprint::shard_index`] straight onto
//!   one of a fixed pool of
//!   worker shards, each owning its *own* [`cw_engine::Engine`] and
//!   [`cw_engine::PlanCache`]. All traffic for one matrix lands on one
//!   shard, so caches need no cross-thread locking at all.
//! * **Per-shard plan races** — each shard engine hands measured kernel
//!   seconds to its private [`cw_engine::FeedbackStore`], which races an
//!   operand's admitted plans (on kernels of a millisecond or more) and
//!   locks the fastest, with no cross-thread locking; a lock on a plan
//!   other than the first pick surfaces as [`ServiceReport::replanned`]
//!   and the per-shard `replans` counter.
//! * **Observability** — every response carries a [`ServiceReport`]
//!   (queue wait, the executed plan, cache outcome, race
//!   state, per-stage [`cw_engine::ExecutionReport`] timings), and
//!   [`SpgemmService::stats`] aggregates throughput, p50/p99 latency
//!   (a summary of the `latency_seconds` histogram), and per-shard cache
//!   hit rates. Underneath,
//!   every counter lives on the [`cw_obs`] substrate: the
//!   [`SpgemmService::metrics`] registry exposes the same cells plus
//!   always-on mergeable histograms (`latency_seconds`, `queue_seconds`,
//!   `execute_seconds`, `kernel_seconds`), and
//!   [`ServiceConfig::tracing`] turns each request into a structured
//!   span trace (`request` → `queue`/`serve` →
//!   `plan`/`prepare`/`execute`/`postprocess`) kept in a bounded flight
//!   recorder ([`SpgemmService::dump_flight_recorder`],
//!   [`SpgemmService::export_jsonl`]).
//!
//! Everything is `std::thread` + `std::sync::mpsc` — no async runtime, in
//! keeping with the workspace's offline vendored-dependency discipline.
//!
//! ```
//! use cw_service::{MultiplyRequest, ServiceConfig, SpgemmService};
//! use std::sync::Arc;
//!
//! let a = Arc::new(cw_sparse::gen::grid::poisson2d(12, 12));
//! let service = SpgemmService::new(ServiceConfig::default());
//!
//! let ticket = service.submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))).unwrap();
//! let response = ticket.wait().unwrap();
//! assert_eq!(response.product.nrows, a.nrows);
//!
//! let stats = service.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod request;
mod service;
mod shard;
mod stats;

pub use request::{
    MultiplyRequest, MultiplyResponse, Priority, RequestShape, ServiceError, ServiceReport,
    SubmitError, Ticket,
};
pub use service::{ServiceConfig, SpgemmService};
pub use stats::{LatencySummary, ServiceStats, ShardStats};
