//! Tour of the `cw-obs` observability substrate: a traced serving run,
//! the metrics registry behind `ServiceStats`, the bounded flight
//! recorder, and both exporters (human-readable + versioned JSON-lines).
//!
//! ```text
//! cargo run --release --example observability
//! ```

use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::sparse::gen;
use std::sync::Arc;

fn main() {
    // Two operands, repeated traffic: round 1 prepares (plan + reorder +
    // cluster), later rounds hit the shard plan caches — the traces below
    // show exactly that as zero-length `prepare` spans.
    let operands: Vec<(&str, Arc<CsrMatrix>)> = vec![
        ("scrambled_mesh", Arc::new(gen::mesh::tri_mesh(20, 20, true, 42))),
        ("poisson2d", Arc::new(gen::grid::poisson2d(20, 20))),
    ];

    // `tracing: true` is the only switch: every request now leaves a
    // queue → coalesce → dispatch → serve → plan/prepare/execute span
    // chain in a fixed-capacity flight recorder (here: the last 8
    // requests). Disabled tracing costs one atomic load per span site.
    let service = SpgemmService::new(ServiceConfig {
        shards: 2,
        tracing: true,
        flight_capacity: 8,
        ..ServiceConfig::default()
    });

    let mut tickets = Vec::new();
    for _ in 0..4 {
        for (_, a) in &operands {
            tickets.push(
                service
                    .submit(MultiplyRequest::new(Arc::clone(a), Arc::clone(a)))
                    .expect("queue sized for the wave"),
            );
        }
    }
    for ticket in tickets {
        ticket.wait().expect("service is healthy");
    }

    // --- The flight recorder: structured traces of recent requests ---
    let traces = service.tracer().flight_traces();
    println!("== flight recorder: {} trace(s) retained ==", traces.len());
    for trace in &traces {
        assert!(trace.nests_correctly(), "every trace nests under one root");
    }
    if let Some(trace) = traces.last() {
        println!("last request ({} ns end to end; spans nest by depth):", trace.duration_ns());
        for span in &trace.spans {
            println!(
                "  {:indent$}{:<10} {:>9} ns",
                "",
                span.name,
                span.duration_ns(),
                indent = 2 * span.depth as usize
            );
        }
    }

    // --- The metrics registry: the numbers behind ServiceStats ---
    // Counters, gauges, and log-bucketed histograms under stable names;
    // `ServiceStats` is a view over this same substrate.
    let snapshot = service.metrics().snapshot();
    println!("\n== metrics registry (selected) ==");
    for name in ["requests_submitted", "requests_completed", "shard0.cache.misses"] {
        println!("  {name} = {}", snapshot.counter(name).unwrap_or(0));
    }
    if let Some(latency) = snapshot.histogram("latency_seconds") {
        println!(
            "  latency_seconds: count={} p50={:.1}µs p99={:.1}µs",
            latency.count,
            latency.quantile(0.5) * 1e6,
            latency.quantile(0.99) * 1e6,
        );
    }

    // --- Exporters ---
    // Human-readable snapshot (also printed automatically if a shard
    // panics), and the versioned JSON-lines document `cw-serve --obs-out`
    // writes.
    println!("\n== human-readable dump (head) ==");
    let dump = service.dump_flight_recorder();
    for line in dump.lines().take(12) {
        println!("{line}");
    }
    let jsonl = service.export_jsonl();
    println!(
        "\njson-lines export: {} lines, header {}",
        jsonl.lines().count(),
        jsonl.lines().next().unwrap_or_default()
    );

    let stats = service.shutdown();
    println!("\n== service stats (same numbers, report view) ==");
    println!("{}", stats.summary());
}
