//! Tour of the `cw-service` serving layer: a sharded, batching SpGEMM
//! service absorbing a mixed-operand wave of requests.
//!
//! ```text
//! cargo run --release --example spgemm_service
//! ```

use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::sparse::gen;
use std::sync::Arc;

fn main() {
    // Four structurally different operands — each fingerprint routes to a
    // fixed shard, so every operand is prepared exactly once service-wide.
    let operands: Vec<(&str, Arc<CsrMatrix>)> = vec![
        ("scrambled_mesh", Arc::new(gen::mesh::tri_mesh(24, 24, true, 42))),
        ("poisson2d", Arc::new(gen::grid::poisson2d(24, 24))),
        ("block_diagonal", Arc::new(gen::banded::block_diagonal(256, (4, 8), 0.1, 7))),
        ("erdos_renyi", Arc::new(gen::er::erdos_renyi(400, 6, 11))),
    ];

    // Work-conserving: a request that finds its shard idle runs at once,
    // and requests that queue behind a busy shard coalesce into
    // same-operand batches.
    let service = SpgemmService::new(ServiceConfig { shards: 2, ..ServiceConfig::default() });
    println!("service up: {:?}\n", service.config());

    // A wave of repeated traffic: 6 requests per operand, interleaved and
    // submitted back to back, so most queue behind their shard's first.
    let mut tickets = Vec::new();
    for _ in 0..6 {
        for (name, a) in &operands {
            let ticket = service
                .submit(MultiplyRequest::new(Arc::clone(a), Arc::clone(a)))
                .expect("queue sized for the wave");
            tickets.push((*name, ticket));
        }
    }

    println!("== per-request reports (one per operand, first wave) ==");
    let mut shown = std::collections::HashSet::new();
    for (name, ticket) in tickets {
        let response = ticket.wait().expect("service is healthy");
        let report = &response.report;
        if shown.insert(name) {
            println!("{name:>16}: {}", report.summary());
        }
        // Every product matches the serial baseline.
        let (_, a) = operands.iter().find(|(n, _)| *n == name).unwrap();
        assert!(response.product.numerically_eq(&spgemm_serial(a, a), 1e-9));
    }

    let stats = service.shutdown();
    println!("\n== service stats ==");
    println!("{}", stats.summary());
    for shard in &stats.shards {
        println!(
            "shard {}: {} reqs in {} batches (max {}, {} coalesced) | cache hit rate {:.2} | \
             {} operands, {} KiB resident",
            shard.shard,
            shard.requests,
            shard.batches,
            shard.max_batch_size,
            shard.coalesced_batches,
            shard.cache.hit_rate(),
            shard.cached_operands,
            shard.cached_bytes / 1024,
        );
    }
}
