//! Structured span tracing with explicit RAII guards and a thread-local
//! depth stack.
//!
//! A [`Tracer`] hands out [`Span`] guards: creating one stamps a
//! monotonic start time and pushes one level of nesting on the current
//! thread; dropping it records a [`SpanRecord`]. Spans emitted between
//! [`Tracer::begin_trace`] and [`Tracer::end_trace`] attach to that
//! request's trace, which lands in the built-in flight recorder;
//! spans emitted outside any request go to a bounded *ambient* buffer.
//!
//! Stages that are already timed elsewhere (queue waits stamped by the
//! dispatcher, the engine's per-stage `StageTimings` measurements)
//! are recorded **retroactively** with [`Tracer::record_span`] /
//! [`Tracer::record_span_at`] from the same measured durations, so span
//! durations reconcile *exactly* with the numbers in
//! `ExecutionReport`/`ServiceReport`.
//!
//! Disabled tracing (the default) costs a single relaxed `AtomicBool`
//! load per call site and performs **zero allocation** — no `Arc` clone,
//! no mutex, no vec push.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use crate::flight::{FlightRecorder, RequestTrace};

/// Maximum spans kept in the ambient (outside-any-request) buffer before
/// new ones are dropped.
pub const AMBIENT_SPAN_CAPACITY: usize = 1024;

thread_local! {
    /// Request trace the current thread is contributing spans to.
    static CURRENT_TRACE: Cell<Option<u64>> = const { Cell::new(None) };
    /// Nesting depth the *next* span created on this thread will get.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// One recorded span: a named `[start, end]` interval at a nesting depth,
/// in nanoseconds since the owning tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name (e.g. `"queue"`, `"plan"`, `"execute"`).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Nesting depth: the root `request` span is 0, its children 1, …
    pub depth: u32,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Span duration in seconds.
    pub fn duration_seconds(&self) -> f64 {
        self.duration_ns() as f64 / 1e9
    }
}

#[derive(Debug)]
struct TracerInner {
    /// Spans collected so far for each in-flight request trace.
    active: HashMap<u64, Vec<SpanRecord>>,
    flight: FlightRecorder,
    ambient: Vec<SpanRecord>,
}

/// The span sink: an enable flag, a monotonic time origin, and the flight
/// recorder of completed request traces.
///
/// Cheap to share (`Arc<Tracer>`); all hot-path entry points early-return
/// on a relaxed atomic load while disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    inner: Mutex<TracerInner>,
}

fn lock(m: &Mutex<TracerInner>) -> MutexGuard<'_, TracerInner> {
    // The flight recorder is dumped from panic paths; recover from poison.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new(FlightRecorder::DEFAULT_CAPACITY)
    }
}

impl Tracer {
    /// A disabled tracer whose flight recorder keeps the most recent
    /// `flight_capacity` completed request traces.
    pub fn new(flight_capacity: usize) -> Self {
        Self {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            inner: Mutex::new(TracerInner {
                active: HashMap::new(),
                flight: FlightRecorder::new(flight_capacity),
                ambient: Vec::new(),
            }),
        }
    }

    /// Whether spans are currently being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off at runtime. Turning it *off* flushes any
    /// in-flight request traces into the flight recorder (marked by their
    /// missing root span) so nothing leaks in the active map.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
        if !on {
            let mut inner = lock(&self.inner);
            let ids: Vec<u64> = inner.active.keys().copied().collect();
            for id in ids {
                if let Some(spans) = inner.active.remove(&id) {
                    inner.flight.push(RequestTrace { trace_id: id, spans });
                }
            }
        }
    }

    /// Nanoseconds elapsed since this tracer's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Convert an externally captured [`Instant`] (e.g. a request's
    /// submission time) to nanoseconds on this tracer's clock.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open an explicit span guard. While the guard lives, spans created
    /// on this thread nest one level deeper; dropping it records the
    /// interval. When tracing is disabled this is a branch and an unarmed
    /// guard — no allocation, no lock, no `Arc` clone.
    #[must_use = "the span is recorded when the guard drops"]
    pub fn span(&self, name: &'static str) -> Span<'_> {
        if !self.enabled() {
            return Span { armed: None };
        }
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        Span { armed: Some(SpanArmed { tracer: self, name, start_ns: self.now_ns(), depth }) }
    }

    /// Start collecting spans for request `trace_id` on this thread.
    /// Spans recorded until [`Tracer::end_trace`] attach to it; nesting
    /// starts at depth 1 so the retroactive root recorded by `end_trace`
    /// is the only depth-0 span.
    pub fn begin_trace(&self, trace_id: u64) {
        if !self.enabled() {
            return;
        }
        CURRENT_TRACE.with(|c| c.set(Some(trace_id)));
        DEPTH.with(|d| d.set(1));
        lock(&self.inner).active.entry(trace_id).or_default();
    }

    /// Finish request `trace_id`: record its depth-0 root span
    /// (`root_name`, spanning `start_ns..now`) and move the completed
    /// trace into the flight recorder. Always clears this thread's trace
    /// context, even when tracing is disabled.
    pub fn end_trace(&self, trace_id: u64, root_name: &'static str, start_ns: u64) {
        CURRENT_TRACE.with(|c| c.set(None));
        DEPTH.with(|d| d.set(0));
        if !self.enabled() {
            return;
        }
        let end_ns = self.now_ns();
        let mut inner = lock(&self.inner);
        let mut spans = inner.active.remove(&trace_id).unwrap_or_default();
        spans.push(SpanRecord { name: root_name, start_ns, end_ns, depth: 0 });
        inner.flight.push(RequestTrace { trace_id, spans });
    }

    /// Retroactively record a span at the current thread's nesting depth,
    /// from timestamps the caller already measured. This is how stages
    /// timed elsewhere (queue waits, engine stage timings) become spans
    /// whose durations reconcile exactly with the reports.
    pub fn record_span(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.enabled() {
            return;
        }
        let depth = DEPTH.with(Cell::get);
        self.record_span_at(name, start_ns, end_ns, depth);
    }

    /// Retroactively record a span at an explicit depth.
    pub fn record_span_at(&self, name: &'static str, start_ns: u64, end_ns: u64, depth: u32) {
        if !self.enabled() {
            return;
        }
        let record = SpanRecord { name, start_ns, end_ns: end_ns.max(start_ns), depth };
        let current = CURRENT_TRACE.with(Cell::get);
        let mut inner = lock(&self.inner);
        if let Some(id) = current {
            if let Some(spans) = inner.active.get_mut(&id) {
                spans.push(record);
                return;
            }
        }
        if inner.ambient.len() < AMBIENT_SPAN_CAPACITY {
            inner.ambient.push(record);
        }
    }

    /// The completed request traces currently held by the flight
    /// recorder, oldest first.
    pub fn flight_traces(&self) -> Vec<RequestTrace> {
        lock(&self.inner).flight.traces()
    }

    /// Number of completed traces the flight recorder has evicted to
    /// stay within capacity.
    pub fn flight_evicted(&self) -> u64 {
        lock(&self.inner).flight.evicted()
    }

    /// Spans recorded outside any request trace (bounded at
    /// [`AMBIENT_SPAN_CAPACITY`]).
    pub fn ambient_spans(&self) -> Vec<SpanRecord> {
        lock(&self.inner).ambient.clone()
    }
}

struct SpanArmed<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    start_ns: u64,
    depth: u32,
}

/// RAII span guard returned by [`Tracer::span`]. Records the interval on
/// drop; unarmed (free) when tracing was disabled at creation.
pub struct Span<'a> {
    armed: Option<SpanArmed<'a>>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.armed.take() {
            DEPTH.with(|d| d.set(s.depth));
            let end_ns = s.tracer.now_ns();
            s.tracer.record_span_at(s.name, s.start_ns, end_ns, s.depth);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(8);
        t.begin_trace(1);
        {
            let _s = t.span("serve");
        }
        t.record_span("queue", 0, 10);
        t.end_trace(1, "request", 0);
        assert!(t.flight_traces().is_empty());
        assert!(t.ambient_spans().is_empty());
    }

    #[test]
    fn guards_nest_and_land_in_the_flight_recorder() {
        let t = Tracer::new(8);
        t.set_enabled(true);
        t.begin_trace(42);
        {
            let _serve = t.span("serve");
            {
                let _plan = t.span("plan");
            }
            {
                let _exec = t.span("execute");
            }
        }
        t.record_span_at("queue", 0, 5, 1);
        t.end_trace(42, "request", 0);

        let traces = t.flight_traces();
        assert_eq!(traces.len(), 1);
        let tr = &traces[0];
        assert_eq!(tr.trace_id, 42);
        assert_eq!(tr.span("request").unwrap().depth, 0);
        assert_eq!(tr.span("serve").unwrap().depth, 1);
        assert_eq!(tr.span("plan").unwrap().depth, 2);
        assert_eq!(tr.span("execute").unwrap().depth, 2);
        assert_eq!(tr.span("queue").unwrap().depth, 1);
        assert!(tr.nests_correctly(), "trace must nest: {tr:?}");
        // sibling guards are ordered
        let plan = tr.span("plan").unwrap();
        let exec = tr.span("execute").unwrap();
        assert!(plan.end_ns <= exec.start_ns);
    }

    #[test]
    fn retroactive_spans_reconcile_exactly() {
        let t = Tracer::new(8);
        t.set_enabled(true);
        t.begin_trace(7);
        t.record_span("kernel", 1_000, 3_500);
        t.end_trace(7, "request", 500);
        let tr = &t.flight_traces()[0];
        let k = tr.span("kernel").unwrap();
        assert_eq!(k.duration_ns(), 2_500);
        assert!((k.duration_seconds() - 2.5e-6).abs() < 1e-15);
    }

    #[test]
    fn spans_outside_requests_go_ambient() {
        let t = Tracer::new(8);
        t.set_enabled(true);
        {
            let _s = t.span("standalone");
        }
        assert!(t.flight_traces().is_empty());
        let ambient = t.ambient_spans();
        assert_eq!(ambient.len(), 1);
        assert_eq!(ambient[0].name, "standalone");
    }

    #[test]
    fn disabling_flushes_in_flight_traces() {
        let t = Tracer::new(8);
        t.set_enabled(true);
        t.begin_trace(9);
        t.record_span("queue", 0, 1);
        t.set_enabled(false);
        let traces = t.flight_traces();
        assert_eq!(traces.len(), 1);
        assert!(traces[0].span("request").is_none()); // partial: no root
        t.end_trace(9, "request", 0); // cleans thread state, records nothing
        assert_eq!(t.flight_traces().len(), 1);
    }

    #[test]
    fn flight_recorder_is_bounded() {
        let t = Tracer::new(2);
        t.set_enabled(true);
        for id in 0..5 {
            t.begin_trace(id);
            t.end_trace(id, "request", 0);
        }
        let traces = t.flight_traces();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].trace_id, 3);
        assert_eq!(traces[1].trace_id, 4);
        assert_eq!(t.flight_evicted(), 3);
    }

    #[test]
    fn traces_are_per_thread_but_share_one_recorder() {
        let t = Arc::new(Tracer::new(8));
        t.set_enabled(true);
        let mut handles = Vec::new();
        for id in 0..4u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                t.begin_trace(id);
                {
                    let _s = t.span("serve");
                }
                t.end_trace(id, "request", 0);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let traces = t.flight_traces();
        assert_eq!(traces.len(), 4);
        for tr in &traces {
            assert!(tr.nests_correctly());
        }
    }

    #[test]
    fn disabled_span_guard_is_cheap() {
        // Overhead guard (satellite): with tracing disabled a span site
        // must be a branch — no allocation, no locking. A generous per-op
        // bound catches accidental Arc clones / mutex grabs without
        // flaking on slow CI machines.
        let t = Tracer::new(8);
        let iters = 1_000_000u32;
        let start = Instant::now();
        for _ in 0..iters {
            let _s = t.span("hot");
        }
        let per_op = start.elapsed().as_nanos() as f64 / f64::from(iters);
        assert!(
            per_op < 200.0,
            "disabled span guard costs {per_op:.1} ns/op — expected branch-only"
        );
        assert!(t.ambient_spans().is_empty());
    }
}
