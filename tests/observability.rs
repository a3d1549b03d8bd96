//! Observability acceptance tests: an end-to-end traced service must emit
//! a parseable, versioned JSON-lines document whose spans nest correctly
//! (queue → serve → plan/prepare/execute) and whose
//! durations reconcile with each request's `ServiceReport`; the metrics
//! registry must mirror the service books; the flight recorder must stay
//! bounded; and the JSON-lines layout itself is pinned by a golden file
//! (`tests/golden/obs_v1.jsonl`) so any schema drift is a deliberate,
//! versioned change.

use clusterwise_spgemm::obs::export::{export_jsonl, OBS_SCHEMA_VERSION};
use clusterwise_spgemm::obs::json::{self, JsonValue};
use clusterwise_spgemm::obs::{MetricsRegistry, RequestTrace, SpanRecord};
use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::service::MultiplyResponse;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

fn golden_path() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/obs_v1.jsonl"))
}

/// A fully deterministic trace + registry: hand-picked nanosecond stamps
/// and histogram samples, so the exporter's output is byte-stable.
fn golden_input() -> (Vec<RequestTrace>, MetricsRegistry) {
    let trace = RequestTrace {
        trace_id: 7,
        spans: vec![
            SpanRecord { name: "queue", start_ns: 0, end_ns: 120, depth: 1 },
            SpanRecord { name: "coalesce", start_ns: 120, end_ns: 180, depth: 1 },
            SpanRecord { name: "dispatch", start_ns: 180, end_ns: 200, depth: 1 },
            SpanRecord { name: "plan", start_ns: 210, end_ns: 300, depth: 2 },
            SpanRecord { name: "prepare", start_ns: 300, end_ns: 700, depth: 2 },
            SpanRecord { name: "execute", start_ns: 700, end_ns: 950, depth: 2 },
            SpanRecord { name: "serve", start_ns: 200, end_ns: 980, depth: 1 },
            SpanRecord { name: "request", start_ns: 0, end_ns: 1000, depth: 0 },
        ],
    };
    let registry = MetricsRegistry::new();
    registry.counter("requests_completed").add(3);
    registry.gauge("queue_depth").set(2);
    // The parallel-pool names the service delta-syncs from
    // `rayon::pool_stats` — part of the stable v1 namespace.
    registry.counter("pool.tasks").add(42);
    registry.counter("pool.steals").add(5);
    registry.gauge("pool.split_depth").set_max(3);
    let h = registry.histogram("latency_seconds");
    for v in [0.001, 0.001, 0.0035, 1.5] {
        h.record(v);
    }
    (vec![trace], registry)
}

/// The golden file is byte-for-byte what `export_jsonl` emits for the
/// deterministic input above: any exporter layout change must come with a
/// regenerated golden (run with `OBS_GOLDEN_REGEN=1`) and, on structural
/// changes, an `OBS_SCHEMA_VERSION` bump.
#[test]
fn jsonl_export_matches_the_golden_schema_pin() {
    assert_eq!(OBS_SCHEMA_VERSION, 1, "schema v1 is pinned; bump deliberately");
    let (traces, registry) = golden_input();
    let rendered = export_jsonl(&traces, &registry.snapshot());
    if std::env::var_os("OBS_GOLDEN_REGEN").is_some() {
        std::fs::write(golden_path(), &rendered).unwrap();
    }
    let golden =
        std::fs::read_to_string(golden_path()).expect("tests/golden/obs_v1.jsonl is checked in");
    assert_eq!(
        rendered, golden,
        "JSON-lines layout drifted from tests/golden/obs_v1.jsonl; if intentional, \
         regenerate with OBS_GOLDEN_REGEN=1 and bump OBS_SCHEMA_VERSION on structural changes"
    );
    // Every golden line stays parseable by the workspace JSON reader.
    for line in golden.lines() {
        json::parse(line).expect("golden line parses");
    }
    assert!(golden.starts_with("{\"schema_version\":1,\"kind\":\"obs\"}\n"));
}

fn span_names(spans: &[JsonValue]) -> Vec<&str> {
    spans.iter().filter_map(|s| s.get("name").and_then(JsonValue::as_str)).collect()
}

fn field_u64(v: &JsonValue, name: &str) -> u64 {
    v.get(name).and_then(JsonValue::as_f64).unwrap_or_else(|| panic!("{name} missing")) as u64
}

#[test]
fn traced_service_jsonl_nests_and_reconciles_with_reports() {
    let mats: Vec<Arc<CsrMatrix>> = vec![
        Arc::new(clusterwise_spgemm::sparse::gen::grid::poisson2d(10, 10)),
        Arc::new(clusterwise_spgemm::sparse::gen::mesh::tri_mesh(9, 9, true, 3)),
    ];
    // Frozen: a debug-build kernel can pass the race's 1 ms floor, and a
    // race's second op runs (and prepares) a challenger.
    let policy = PlanningPolicy::frozen();
    let service = SpgemmService::new(ServiceConfig {
        shards: 1,
        tracing: true,
        policy,
        ..ServiceConfig::default()
    });
    let mut responses: Vec<MultiplyResponse> = Vec::new();
    for round in 0..3 {
        for a in &mats {
            let t = service.submit(MultiplyRequest::new(Arc::clone(a), Arc::clone(a))).unwrap();
            let resp = t.wait().unwrap();
            assert_eq!(resp.report.execution.cache_hit, round > 0, "round {round} cache outcome");
            responses.push(resp);
        }
    }
    let jsonl = service.export_jsonl();
    let stats = service.shutdown();
    assert_eq!(stats.completed, responses.len() as u64);

    let by_id: HashMap<u64, &MultiplyResponse> =
        responses.iter().map(|r| (r.report.request_id, r)).collect();

    let lines: Vec<JsonValue> =
        jsonl.lines().map(|l| json::parse(l).expect("every line is standalone JSON")).collect();
    assert_eq!(lines.len(), 1 + responses.len() + 1, "header + one line per trace + metrics");
    assert_eq!(lines[0].get("schema_version").and_then(JsonValue::as_f64), Some(1.0));
    assert_eq!(lines[0].get("kind").and_then(JsonValue::as_str), Some("obs"));

    for line in &lines[1..=responses.len()] {
        assert_eq!(line.get("kind").and_then(JsonValue::as_str), Some("trace"));
        let trace_id = field_u64(line, "trace_id");
        let report = &by_id.get(&trace_id).expect("trace maps to a served request").report;
        let spans = line.get("spans").and_then(JsonValue::as_array).expect("spans array");
        let names = span_names(spans);
        for want in ["request", "queue", "serve", "plan", "prepare", "execute"] {
            assert!(names.contains(&want), "trace {trace_id} missing {want}: {names:?}");
        }

        // Exactly one depth-0 root, and every deeper span is contained in
        // some span exactly one level up — the nesting the schema promises.
        let roots: Vec<&JsonValue> = spans.iter().filter(|s| field_u64(s, "depth") == 0).collect();
        assert_eq!(roots.len(), 1, "trace {trace_id}");
        assert_eq!(roots[0].get("name").and_then(JsonValue::as_str), Some("request"));
        for s in spans {
            let depth = field_u64(s, "depth");
            if depth == 0 {
                continue;
            }
            let (lo, hi) = (field_u64(s, "start_ns"), field_u64(s, "end_ns"));
            assert!(lo <= hi);
            assert!(
                spans.iter().any(|p| field_u64(p, "depth") == depth - 1
                    && field_u64(p, "start_ns") <= lo
                    && hi <= field_u64(p, "end_ns")),
                "trace {trace_id}: span {:?} at depth {depth} has no parent",
                s.get("name"),
            );
        }

        // Durations reconcile with the request's ServiceReport.
        let dur_s = |name: &str| {
            let s = spans
                .iter()
                .find(|s| s.get("name").and_then(JsonValue::as_str) == Some(name))
                .unwrap();
            (field_u64(s, "end_ns") - field_u64(s, "start_ns")) as f64 * 1e-9
        };
        let queue = dur_s("queue");
        assert!(
            (queue - report.queue_seconds).abs() < 1e-5,
            "trace {trace_id}: queue span {queue} vs report {}",
            report.queue_seconds,
        );
        assert!(
            (dur_s("execute") - report.execution.timings.kernel_seconds).abs() < 1e-5,
            "trace {trace_id}: execute span vs kernel seconds"
        );
        // The root closes after the latency measurement, so it bounds it.
        assert!(dur_s("request") + 1e-6 >= report.latency_seconds, "trace {trace_id}");
        if report.execution.cache_hit {
            assert_eq!(dur_s("prepare"), 0.0, "cache hits must show a zero-length prepare");
        }
    }

    // The closing metrics line mirrors the service books.
    let last = lines.last().unwrap();
    assert_eq!(last.get("kind").and_then(JsonValue::as_str), Some("metrics"));
    let counters = last.get("counters").expect("counters object");
    assert_eq!(
        counters.get("requests_completed").and_then(JsonValue::as_f64),
        Some(responses.len() as f64)
    );
    let latency = last.get("histograms").and_then(|h| h.get("latency_seconds")).unwrap();
    assert_eq!(latency.get("count").and_then(JsonValue::as_f64), Some(responses.len() as f64));
    // The parallel-pool namespace is present in every export (registered
    // at service construction, delta-synced from `rayon::pool_stats` on
    // the read path). The counters mirror process-wide pool totals, so
    // only presence and the gauge's non-negativity are pinned.
    assert!(counters.get("pool.tasks").and_then(JsonValue::as_f64).is_some());
    assert!(counters.get("pool.steals").and_then(JsonValue::as_f64).is_some());
    let split_depth = last
        .get("gauges")
        .and_then(|g| g.get("pool.split_depth"))
        .and_then(JsonValue::as_f64)
        .expect("pool.split_depth gauge exported");
    assert!(split_depth >= 0.0);
}

#[test]
fn flight_recorder_stays_bounded_under_sustained_traffic() {
    let a = Arc::new(clusterwise_spgemm::sparse::gen::grid::poisson2d(8, 8));
    let service = SpgemmService::new(ServiceConfig {
        shards: 1,
        tracing: true,
        flight_capacity: 2,
        ..ServiceConfig::default()
    });
    for _ in 0..6 {
        service
            .submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a)))
            .unwrap()
            .wait()
            .unwrap();
    }
    let traces = service.tracer().flight_traces();
    assert_eq!(traces.len(), 2, "ring must hold exactly its capacity");
    assert_eq!(service.tracer().flight_evicted(), 4, "older traces are evicted, not leaked");
    // The survivors are the most recent requests, still fully formed.
    for t in &traces {
        assert!(t.nests_correctly());
        assert!(t.root().is_some());
    }
    service.shutdown();
}
