//! **cw-obs** — the observability substrate threaded through
//! plan → prepare → execute → serve.
//!
//! The paper's whole argument is a per-stage accounting exercise
//! (reordering cost vs. cluster-wise kernel savings), and the workspace
//! has repeatedly learned that it can only trust what it measures —
//! timing exposed the vendored parallel path as *slower* than serial, a
//! fact no hand-tuned constant would have surfaced. This crate is the
//! telemetry layer that makes such facts routinely visible, designed for
//! offline builds: **std only, no tokio, no external crates**, and cheap
//! enough to leave compiled into every hot path.
//!
//! Three pieces:
//!
//! * **Structured span tracing** ([`Tracer`], [`Span`]) — explicit RAII
//!   span guards over a thread-local depth stack, with monotonic
//!   nanosecond timestamps from one per-tracer origin. Disabled tracing
//!   costs one `AtomicBool` load per span site and performs **zero
//!   allocation**; enabling it at runtime flips the flag. Spans either
//!   attach to the current request trace (see [`Tracer::begin_trace`]) or
//!   land in a bounded ambient buffer. Retroactive recording
//!   ([`Tracer::record_span`]) lets callers that already measured a stage
//!   (queue waits, engine stage timings) emit spans whose durations
//!   reconcile *exactly* with their reports.
//! * **Mergeable metrics** ([`MetricsRegistry`], [`Counter`], [`Gauge`],
//!   [`LogHistogram`]) — named counters/gauges plus log-bucketed
//!   histograms whose snapshots merge exactly (bucket counts add), so
//!   per-shard histograms compose into service-wide p50/p99/p999 with a
//!   bounded relative quantile error (see [`LogHistogram`]).
//! * **Flight recorder** ([`FlightRecorder`], [`RequestTrace`]) — a
//!   fixed-capacity ring of recent completed request traces, dumpable on
//!   demand and on shard panic/shutdown.
//!
//! The [`export`] module renders everything as a versioned JSON-lines
//! document ([`export::OBS_SCHEMA_VERSION`]) plus a human-readable
//! snapshot; the [`json`] reader parses it back.
//!
//! ```
//! use cw_obs::{MetricsRegistry, Tracer};
//! use std::sync::Arc;
//!
//! let tracer = Arc::new(Tracer::new(16));
//! tracer.set_enabled(true);
//!
//! tracer.begin_trace(7);
//! {
//!     let _serve = tracer.span("serve");
//!     // ... nested work records child spans ...
//! }
//! let queue_start = 0;
//! tracer.record_span_at("queue", queue_start, tracer.now_ns(), 1);
//! tracer.end_trace(7, "request", queue_start);
//!
//! let trace = tracer.flight_traces().pop().unwrap();
//! assert_eq!(trace.trace_id, 7);
//! assert!(trace.span("serve").is_some() && trace.span("request").is_some());
//! assert!(trace.nests_correctly());
//!
//! let registry = MetricsRegistry::new();
//! registry.counter("requests").inc();
//! registry.histogram("latency_s").record(0.004);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counters[0], ("requests".to_string(), 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
mod flight;
pub mod json;
mod metrics;
mod trace;

pub use flight::{FlightRecorder, RequestTrace};
pub use metrics::{
    Counter, Gauge, HistogramSnapshot, LogHistogram, MetricsRegistry, MetricsSnapshot,
    HISTOGRAM_MAX_RELATIVE_ERROR, SUB_BUCKETS_PER_OCTAVE,
};
pub use trace::{Span, SpanRecord, Tracer, AMBIENT_SPAN_CAPACITY};
