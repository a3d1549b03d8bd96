//! In-memory spans recorded by the benchmark itself, around its calls into
//! each layer. Written out as JSON lines when a traced run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent` indexes the span that caused it; spans of one
/// op share `op_id` (0 = not part of an op: a layer probe).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

impl Span {
    /// The same span in a list where its own list starts at index `base`.
    pub fn rebased(self, base: usize) -> Span {
        Span { parent: self.parent.map(|p| p + base), ..self }
    }
}

/// An append-only span buffer with a shared time origin.
#[derive(Debug, Clone)]
pub struct Spans {
    origin: Instant,
    pub rows: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans { origin, rows: Vec::new() }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span and returns its index (a later span's `parent`).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op_id: u64,
    ) -> usize {
        self.rows.push(Span { name, start_ns, end_ns, parent, op_id });
        self.rows.len() - 1
    }

    /// Lays `stages` (name, seconds) out back to back so the last one ends at
    /// `end_ns`, as children of `parent`. Reports carry stage *durations*
    /// only, so durations are exact and positions are reconstructed.
    pub fn push_stages_ending_at(
        &mut self,
        stages: &[(&'static str, f64)],
        end_ns: u64,
        parent: usize,
        op_id: u64,
    ) {
        let mut end = end_ns;
        for &(name, seconds) in stages.iter().rev() {
            let start = end.saturating_sub((seconds * 1e9) as u64);
            self.push(name, start, end, Some(parent), op_id);
            end = start;
        }
    }

    /// Runs `f` inside a span.
    pub fn within<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.push(name, start, end, parent, 0);
        out
    }

    /// Appends spans recorded elsewhere (a window's), re-basing their parents.
    pub fn absorb(&mut self, rows: Vec<Span>) {
        let base = self.rows.len();
        self.rows.extend(rows.into_iter().map(|s| s.rebased(base)));
    }

    /// One JSON object per line: `{name, start_ns, end_ns, parent, op_id}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.rows {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op_id
            );
        }
        out
    }
}
