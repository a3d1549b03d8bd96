//! Exporters: a versioned JSON-lines trace/metrics document plus a
//! human-readable snapshot.
//!
//! The JSON-lines form follows the [`crate::json`] writer conventions —
//! hand-formatted strings, floats in Rust's shortest round-trip (`{:?}`)
//! form, strings escaped by [`escape`] — so [`crate::json::parse`] reads
//! every line back. Layout:
//!
//! ```text
//! {"schema_version":1,"kind":"obs"}                 header, always first
//! {"kind":"trace","trace_id":N,"spans":[...]}       one line per trace
//! {"kind":"metrics","counters":{...},...}           one line, always last
//! ```
//!
//! Each span is `{"name":s,"start_ns":N,"end_ns":N,"depth":N}`; each
//! histogram is exported sparsely as
//! `{"count":N,"sum":x,"min":x,"max":x,"buckets":[[slot,count],...]}`.
//! Bump [`OBS_SCHEMA_VERSION`] on any layout change — the golden-file
//! test pins the current shape.

use std::fmt::Write as _;

use crate::flight::RequestTrace;
use crate::json::escape;
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};

/// Version of the JSON-lines layout documented in this module.
pub const OBS_SCHEMA_VERSION: u32 = 1;

fn write_trace_line(out: &mut String, trace: &RequestTrace) {
    let _ = write!(out, "{{\"kind\":\"trace\",\"trace_id\":{},\"spans\":[", trace.trace_id);
    for (i, s) in trace.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"depth\":{}}}",
            escape(s.name),
            s.start_ns,
            s.end_ns,
            s.depth
        );
    }
    out.push_str("]}\n");
}

fn write_histogram(out: &mut String, h: &HistogramSnapshot) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{:?},\"min\":{:?},\"max\":{:?},\"buckets\":[",
        h.count, h.sum, h.min, h.max
    );
    for (i, (slot, count)) in h.nonzero_buckets().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{slot},{count}]");
    }
    out.push_str("]}");
}

fn write_metrics_line(out: &mut String, metrics: &MetricsSnapshot) {
    out.push_str("{\"kind\":\"metrics\",\"counters\":{");
    for (i, (name, v)) in metrics.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", escape(name), v);
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in metrics.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", escape(name), v);
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in metrics.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":", escape(name));
        write_histogram(out, h);
    }
    out.push_str("}}\n");
}

/// Render traces + metrics as the versioned JSON-lines document described
/// in the module docs. Every line is one standalone JSON object.
pub fn export_jsonl(traces: &[RequestTrace], metrics: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{\"schema_version\":{OBS_SCHEMA_VERSION},\"kind\":\"obs\"}}");
    for trace in traces {
        write_trace_line(&mut out, trace);
    }
    write_metrics_line(&mut out, metrics);
    out
}

/// Render traces + metrics as an indented, human-readable snapshot —
/// what `dump_flight_recorder` prints on shard panic and what the
/// example shows on screen.
pub fn render_human(traces: &[RequestTrace], metrics: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== obs snapshot (schema v{OBS_SCHEMA_VERSION}) ==");
    if !metrics.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, v) in &metrics.counters {
            let _ = writeln!(out, "  {name} = {v}");
        }
    }
    if !metrics.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, v) in &metrics.gauges {
            let _ = writeln!(out, "  {name} = {v}");
        }
    }
    if !metrics.histograms.is_empty() {
        out.push_str("histograms:\n");
        for (name, h) in &metrics.histograms {
            let _ = writeln!(
                out,
                "  {name}: count={} mean={:.3e} p50={:.3e} p99={:.3e} p999={:.3e} min={:.3e} max={:.3e}",
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.quantile(0.999),
                h.min,
                h.max
            );
        }
    }
    let _ = writeln!(out, "flight recorder: {} trace(s)", traces.len());
    for trace in traces {
        let _ = writeln!(
            out,
            "  trace {} ({} ns{})",
            trace.trace_id,
            trace.duration_ns(),
            if trace.root().is_none() { ", partial" } else { "" }
        );
        let mut spans = trace.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.depth));
        for s in &spans {
            let _ = writeln!(
                out,
                "    {:indent$}{:<12} {:>12} ns .. {:>12} ns  ({} ns)",
                "",
                s.name,
                s.start_ns,
                s.end_ns,
                s.duration_ns(),
                indent = 2 * s.depth as usize
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::trace::SpanRecord;

    fn sample_trace() -> RequestTrace {
        RequestTrace {
            trace_id: 4711,
            spans: vec![
                SpanRecord { name: "queue", start_ns: 0, end_ns: 100, depth: 1 },
                SpanRecord { name: "serve", start_ns: 100, end_ns: 900, depth: 1 },
                SpanRecord { name: "request", start_ns: 0, end_ns: 1000, depth: 0 },
            ],
        }
    }

    #[test]
    fn jsonl_layout_is_stable() {
        let registry = MetricsRegistry::new();
        registry.counter("requests").add(3);
        registry.gauge("queue_depth").set(-1);
        let text = export_jsonl(&[sample_trace()], &registry.snapshot());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "{\"schema_version\":1,\"kind\":\"obs\"}");
        assert!(lines[1].starts_with("{\"kind\":\"trace\",\"trace_id\":4711,"));
        assert!(lines[1].contains("\"name\":\"queue\",\"start_ns\":0,\"end_ns\":100,\"depth\":1"));
        assert!(lines[2].starts_with("{\"kind\":\"metrics\","));
        assert!(lines[2].contains("\"requests\":3"));
        assert!(lines[2].contains("\"queue_depth\":-1"));
    }

    #[test]
    fn histogram_export_is_sparse() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("latency_s");
        h.record(0.001);
        h.record(0.001);
        let text = export_jsonl(&[], &registry.snapshot());
        let metrics_line = text.lines().last().unwrap();
        assert!(metrics_line.contains("\"latency_s\":{\"count\":2,"));
        // exactly one occupied bucket with both samples
        let snap = registry.snapshot();
        let hs = snap.histogram("latency_s").unwrap();
        assert_eq!(hs.nonzero_buckets(), vec![(hs.nonzero_buckets()[0].0, 2)]);
        assert!(metrics_line.contains(&format!("[{},2]", hs.nonzero_buckets()[0].0)));
    }

    #[test]
    fn human_render_mentions_everything() {
        let registry = MetricsRegistry::new();
        registry.counter("requests").inc();
        registry.histogram("latency_s").record(0.25);
        let text = render_human(&[sample_trace()], &registry.snapshot());
        for needle in
            ["obs snapshot", "requests = 1", "latency_s:", "trace 4711", "request", "serve"]
        {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
