//! Tour of the `cw-net` wire-protocol serving layer: two in-process
//! `NetServer`s, a `RoutedClient` sharding traffic across them by operand
//! fingerprint, and QoS deadlines shedding hopeless requests at admission.
//!
//! ```text
//! cargo run --release --example net_roundtrip
//! ```
//!
//! (For a real deployment the servers would be separate `cw-serve`
//! processes; the protocol is identical.)

use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::sparse::gen;
use std::time::Duration;

fn main() {
    // Two endpoints, each its own service + engine shards, bound to
    // ephemeral loopback ports.
    let servers: Vec<NetServer> = (0..2)
        .map(|_| {
            let service = SpgemmService::new(ServiceConfig {
                shards: 2,
                // Low-priority traffic gets none of the queue (watermark
                // 0), so the hopeless Low request below waits at admission
                // until its deadline passes and is shed deterministically
                // instead of racing an idle shard.
                low_priority_watermark: Some(0),
                ..ServiceConfig::default()
            });
            NetServer::bind(service, "127.0.0.1:0", NetServerConfig::default())
                .expect("bind loopback")
        })
        .collect();
    let endpoints: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    println!("serving on {endpoints:?}\n");

    // The routing table consistent-hashes each lhs fingerprint over the
    // endpoints — the same SplitMix64 hash the service uses for its
    // in-process shards, one level up. Every client agrees on placement.
    let mut router =
        RoutedClient::connect(&endpoints, ClientConfig::default()).expect("connect both");

    let operands: Vec<(&str, CsrMatrix)> = vec![
        ("scrambled_mesh", gen::mesh::tri_mesh(16, 16, true, 42)),
        ("poisson2d", gen::grid::poisson2d(16, 16)),
        ("block_diagonal", gen::banded::block_diagonal(128, (4, 8), 0.1, 7)),
        ("erdos_renyi", gen::er::erdos_renyi(200, 6, 11)),
    ];

    println!("== routed wire multiplies ==");
    for (name, a) in &operands {
        let endpoint = router.endpoint_for(a);
        let resp = router.route(a).multiply(a, a).expect("served");
        // The product travels as bit-exact CSRB blobs: the wire answer
        // matches an in-process multiply of the same pipeline.
        assert!(resp.product.numerically_eq(&spgemm(a, a), 1e-9));
        println!(
            "{name:>16} -> endpoint {endpoint} | shard {} | {} | exec {:.3} ms",
            resp.report.shard,
            if resp.report.cache_hit { "cache hit " } else { "cache miss" },
            resp.report.execute_seconds * 1e3,
        );
    }

    // Repeat traffic lands on the same endpoint and now hits its plan
    // cache — placement is deterministic, so caches stay hot.
    println!("\n== second wave (plan caches are hot) ==");
    for (name, a) in &operands {
        let resp = router.route(a).multiply(a, a).expect("served");
        println!(
            "{name:>16} -> endpoint {} | {}",
            router.endpoint_for(a),
            if resp.report.cache_hit { "cache hit" } else { "cache miss" },
        );
    }

    // QoS: a deadline the request cannot possibly meet. A request whose
    // deadline passes before admission is shed there (before taking a queue
    // slot); one that expires while queued is dropped unexecuted by the
    // worker — either way the client sees `DeadlineExpired`, never a stale
    // result.
    println!("\n== QoS: hopeless deadline is shed ==");
    let (name, a) = &operands[0];
    let hopeless = Qos { priority: Priority::Low, deadline: Some(Duration::from_nanos(1)) };
    match router.route(a).multiply_shaped_qos(a, a, &SubmitShape::Full, hopeless) {
        Err(e) if e.is_rejected_with(clusterwise_spgemm::net::RejectCode::DeadlineExpired) => {
            println!("{name:>16}: shed as hoped ({e})")
        }
        other => panic!("expected a deadline rejection, got {other:?}"),
    }

    // The shed shows up in the net.* metrics every endpoint exports.
    println!("\n== per-endpoint net.* metrics (JSONL) ==");
    for (i, jsonl) in router.stats_jsonl_all().expect("stats").iter().enumerate() {
        for line in jsonl.lines().filter(|l| l.contains("net.")) {
            println!("endpoint {i}: {line}");
        }
    }

    // Graceful drain: both servers finish in-flight work, then exit.
    router.shutdown_all().expect("drain");
    for (i, server) in servers.into_iter().enumerate() {
        let stats = server.shutdown();
        println!("\nendpoint {i} final: {}", stats.summary());
    }
}
