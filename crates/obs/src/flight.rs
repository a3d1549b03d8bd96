//! The flight recorder: a bounded ring of recent completed request
//! traces, kept cheap enough to leave on in production and dumped on
//! demand or on shard panic/shutdown.

use std::collections::VecDeque;

use crate::trace::SpanRecord;

/// One request's complete trace: every span recorded between
/// `begin_trace` and `end_trace`, including the retroactive depth-0
/// `request` root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// The request id this trace belongs to.
    pub trace_id: u64,
    /// All recorded spans, in recording order (root last).
    pub spans: Vec<SpanRecord>,
}

impl RequestTrace {
    /// The first span named `name`, if any.
    pub fn span(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The depth-0 root span, if the trace completed normally.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.depth == 0)
    }

    /// End-to-end duration in nanoseconds (0 for a partial trace with no
    /// root).
    pub fn duration_ns(&self) -> u64 {
        self.root().map_or(0, SpanRecord::duration_ns)
    }

    /// Structural validity check: exactly one depth-0 root, every span's
    /// interval is well-formed, and every span at depth `d + 1` is
    /// contained within some span at depth `d`.
    pub fn nests_correctly(&self) -> bool {
        let mut roots = 0usize;
        for s in &self.spans {
            if s.end_ns < s.start_ns {
                return false;
            }
            if s.depth == 0 {
                roots += 1;
            }
        }
        if roots != 1 {
            return false;
        }
        self.spans.iter().filter(|s| s.depth > 0).all(|s| {
            self.spans
                .iter()
                .any(|p| p.depth + 1 == s.depth && p.start_ns <= s.start_ns && s.end_ns <= p.end_ns)
        })
    }
}

/// A fixed-capacity ring of recent [`RequestTrace`]s. Pushing past
/// capacity evicts the oldest trace and bumps the eviction counter, so
/// memory stays bounded no matter how long the service runs.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: VecDeque<RequestTrace>,
    evicted: u64,
}

impl FlightRecorder {
    /// Default ring capacity when none is configured.
    pub const DEFAULT_CAPACITY: usize = 128;

    /// A recorder keeping at most `capacity` traces (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            ring: VecDeque::with_capacity(capacity.min(Self::DEFAULT_CAPACITY)),
            evicted: 0,
        }
    }

    /// Append a completed trace, evicting the oldest if full.
    pub fn push(&mut self, trace: RequestTrace) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(trace);
    }

    /// The held traces, oldest first.
    pub fn traces(&self) -> Vec<RequestTrace> {
        self.ring.iter().cloned().collect()
    }

    /// Number of traces currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no traces are held.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of traces evicted to stay within capacity.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, depth: u32) -> SpanRecord {
        SpanRecord { name, start_ns, end_ns, depth }
    }

    #[test]
    fn nesting_check_accepts_a_well_formed_trace() {
        let tr = RequestTrace {
            trace_id: 1,
            spans: vec![
                span("queue", 0, 12, 1),
                span("serve", 12, 40, 1),
                span("plan", 13, 20, 2),
                span("execute", 20, 39, 2),
                span("request", 0, 41, 0),
            ],
        };
        assert!(tr.nests_correctly());
        assert_eq!(tr.duration_ns(), 41);
        assert_eq!(tr.root().unwrap().name, "request");
    }

    #[test]
    fn nesting_check_rejects_escapes_and_missing_roots() {
        // child escapes its parent's interval
        let escaped = RequestTrace {
            trace_id: 2,
            spans: vec![
                span("serve", 10, 20, 1),
                span("execute", 15, 25, 2),
                span("request", 0, 30, 0),
            ],
        };
        assert!(!escaped.nests_correctly());
        // two roots
        let two_roots = RequestTrace {
            trace_id: 3,
            spans: vec![span("request", 0, 10, 0), span("request", 0, 10, 0)],
        };
        assert!(!two_roots.nests_correctly());
        // no root (partial trace flushed by set_enabled(false))
        let partial = RequestTrace { trace_id: 4, spans: vec![span("queue", 0, 10, 1)] };
        assert!(!partial.nests_correctly());
        assert_eq!(partial.duration_ns(), 0);
    }

    #[test]
    fn zero_length_spans_nest() {
        // cache hits emit zero-length plan/prepare spans
        let tr = RequestTrace {
            trace_id: 5,
            spans: vec![
                span("serve", 10, 20, 1),
                span("plan", 12, 12, 2),
                span("request", 0, 25, 0),
            ],
        };
        assert!(tr.nests_correctly());
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut fr = FlightRecorder::new(2);
        for id in 0..4 {
            fr.push(RequestTrace { trace_id: id, spans: Vec::new() });
        }
        assert_eq!(fr.len(), 2);
        assert_eq!(fr.capacity(), 2);
        assert_eq!(fr.evicted(), 2);
        let ids: Vec<u64> = fr.traces().iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, [2, 3]);
        assert!(!fr.is_empty());
    }
}
