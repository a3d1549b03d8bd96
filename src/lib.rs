//! # clusterwise-spgemm
//!
//! A from-scratch Rust reproduction of *"Improving SpGEMM Performance
//! Through Matrix Reordering and Cluster-wise Computation"* (SC 2025) —
//! shared-memory parallel SpGEMM accelerated by row reordering and a
//! cluster-wise computation scheme over the `CSR_Cluster` format — grown
//! into a servable system with an adaptive planning engine in front.
//!
//! This crate is a facade re-exporting the workspace members (see
//! `docs/ARCHITECTURE.md` for the full crate map, the
//! plan→prepare→execute→serve dataflow diagram, and how admission and the
//! race fit together):
//!
//! * [`service`] — **the serving layer**: a threaded `SpgemmService` over
//!   the engine for concurrent traffic. Bounded admission with
//!   backpressure routes each request by lhs fingerprint straight to a
//!   worker shard (each with a private engine + plan cache + feedback
//!   store — no cross-thread locking); a shard serves the requests that
//!   queued behind it in arrival order, and an idle one serves at once.
//!   Every request is answered with a `ServiceReport` (queue
//!   wait, cache outcome, race state, per-stage timings) plus
//!   service-wide throughput and p50/p99 latency stats.
//! * [`net`] — **the wire-protocol serving layer**: a `CWNP` binary frame
//!   protocol (28-byte versioned header + bit-exact `CSRB` operand blobs),
//!   a `NetServer` TCP front-end over `SpgemmService` with a bounded
//!   thread-per-connection acceptor and graceful drain (`cw-serve`
//!   binary), a blocking `NetClient` with reconnect/backoff, a
//!   `RoutedClient` that consistent-hashes each lhs fingerprint over N
//!   endpoints (the same `shard_index` hash the service uses in-process),
//!   and QoS admission control — per-request deadlines and two-level
//!   priority carried in the frame header, expired requests shed *before*
//!   they take a queue slot, all surfaced as `net.*` metrics through the
//!   service's JSONL exporter.
//! * [`obs`] — **the observability substrate**: dependency-free structured
//!   tracing (thread-local span stacks, RAII guards, a disabled cost of
//!   one atomic load), a mergeable metrics registry (counters, gauges,
//!   log-bucketed latency histograms with p50/p99/p999), a bounded
//!   flight recorder of recent request traces, and versioned JSON-lines /
//!   human-readable exporters. The engine and service emit into it;
//!   `ServiceReport` and `ServiceStats` are views over the same numbers.
//! * [`engine`] — **the front door**: an adaptive
//!   plan/prepare/execute/race pipeline. A `Planner` profiles the
//!   operand, takes the advisor's candidate pipelines (one row order each
//!   — a reordering or hierarchical clustering's) in its order with the
//!   baseline last, and admits those whose preparation, priced by one fixed
//!   per-nonzero rate per row-order class, half of 16 expected multiplies
//!   can carry (a `PlanningPolicy` only says whether to race); every kernel
//!   runs the dense accumulator wherever it fits in 1 MiB per worker;
//!   `PreparedMatrix` materializes the chosen plan once, and keeps the
//!   reordered rows clustered where they share their columns enough for
//!   the cluster-wise kernel to win (row-wise elsewhere); an
//!   (operand, plan)-keyed `PlanCache`, an LRU bounded by its entry count,
//!   lets repeated traffic skip preprocessing entirely;
//!   `Engine::multiply` executes the kernel (on the rayon pool when the
//!   plan's `parallel` is set; `parallel: false` is the serial oracle the
//!   parallel path is bit-identical to), reports per-stage timings, and
//!   hands the measured kernel seconds to a per-operand `FeedbackStore`:
//!   when the faster of the first plan's first two runs takes a millisecond
//!   or more, up to four admitted plans race three samples each and the
//!   lowest median is locked for good.
//! * [`sparse`] — CSR/CSC/COO formats, permutations, Matrix Market I/O,
//!   synthetic matrix generators, structural statistics, and the matrix
//!   fingerprints and checksums keying the engine's plan cache.
//! * [`spgemm`] — row-wise Gustavson SpGEMM (the baseline) with hash and
//!   dense accumulators, FLOP analysis, `SpGEMM_TopK`.
//! * [`partition`] — multilevel graph & hypergraph partitioners and nested
//!   dissection (METIS/PaToH stand-ins).
//! * [`reorder`] — the ten row-reordering algorithms of the paper's study
//!   and hierarchical clustering's row order, plus the structural advisor
//!   driving the engine's planner.
//! * [`core`] — the contribution: `CSR_Cluster`, fixed / variable /
//!   hierarchical clustering, and the cluster-wise SpGEMM kernel, which
//!   the `paper` experiments measure directly and the engine runs on every
//!   prepared operand whose rows share their columns.
//! * [`datasets`] — the 110-matrix synthetic corpus and BC-frontier
//!   workloads.
//!
//! ## Quickstart: one-shot multiply
//!
//! ```
//! use clusterwise_spgemm::prelude::*;
//!
//! // A scrambled triangulated mesh (similar rows are scattered).
//! let a = clusterwise_spgemm::sparse::gen::mesh::tri_mesh(24, 24, true, 42);
//!
//! // Baseline: row-wise Gustavson A².
//! let c_rowwise = spgemm(&a, &a);
//!
//! // Hierarchical clustering: find similar rows via SpGEMM(A·Aᵀ), group
//! // them, and multiply cluster-wise.
//! let h = hierarchical_clustering(&a, &ClusterConfig::default());
//! let (clustered, pa) = h.build_symmetric(&a);
//! let c_clustered = clusterwise_spgemm(&clustered, &pa);
//!
//! // Same product, up to the symmetric permutation.
//! let expected = h.perm.permute_symmetric(&c_rowwise);
//! assert!(c_clustered.numerically_eq(&expected, 1e-9));
//! ```
//!
//! ## Quickstart: the engine (repeated traffic)
//!
//! For serving workloads, let the engine choose the pipeline and amortize
//! preprocessing across calls (see `examples/engine_pipeline.rs` for the
//! full tour):
//!
//! ```
//! use clusterwise_spgemm::prelude::*;
//!
//! let a = clusterwise_spgemm::sparse::gen::banded::block_diagonal(96, (4, 8), 0.1, 7);
//! let mut engine = Engine::default();
//!
//! let (c_first, first) = engine.multiply(&a, &a);   // plans + prepares
//! // A kernel of a millisecond or more races the admitted plans, each
//! // prepared once, and locks one within 3·4 calls.
//! for _ in 0..12 {
//!     engine.multiply(&a, &a);
//! }
//! let (c_again, again) = engine.multiply(&a, &a);   // cache hit: kernel only
//! assert!(!first.cache_hit && again.cache_hit);
//! assert!(c_first.numerically_eq(&c_again, 0.0));
//! assert!(c_first.numerically_eq(&spgemm(&a, &a), 1e-9));
//!
//! // Parallelism is a plan field. 96 rows is too few to pay for the pool,
//! // so the planner ran the kernel serially; the same pipeline on the
//! // pool returns the same bits.
//! assert!(!first.plan.parallel);
//! let parallel_plan = Plan { parallel: true, ..first.plan };
//! let (c_parallel, parallel) = engine.multiply_planned(&a, &a, parallel_plan);
//! assert_eq!(parallel.plan, parallel_plan);
//! assert!(c_parallel.bits_eq(&c_first));
//! ```
//!
//! ## Quickstart: shaped products (masked & top-k)
//!
//! The output *shape* is a first-class request axis: the full product, the
//! product filtered through a sparsity mask, or only each row's k
//! largest-magnitude entries. Shapes ride the same plan/prepare/cache
//! pipeline (cache and feedback are keyed per shape). A masked plan admits
//! only the mask's columns into the accumulator and never builds the rest
//! of the product; a top-k plan computes the full product and filters it. Either way every plan stays bit-identical to the
//! serial oracle computing the same shape:
//!
//! ```
//! use clusterwise_spgemm::prelude::*;
//!
//! let a = clusterwise_spgemm::sparse::gen::grid::poisson2d(12, 12);
//! let mut engine = Engine::default();
//! let (c_full, _) = engine.multiply(&a, &a);
//!
//! // Row-wise top-3: each output row keeps its 3 largest-|value| entries.
//! let (c_topk, report) = engine.multiply_shaped(&a, &a, OutputShape::TopK(3), None);
//! assert_eq!(report.plan.shape, OutputShape::TopK(3));
//! assert!(c_topk.numerically_eq(&row_topk(&c_full, 3), 0.0));
//!
//! // Masked: keep only the entries the mask's pattern admits.
//! let (c_masked, _) = engine.multiply_masked(&a, &a, &a);
//! assert!(c_masked.numerically_eq(&apply_mask(&c_full, &a), 0.0));
//! ```
//!
//! ## Quickstart: the serving layer (concurrent traffic)
//!
//! Under concurrent traffic, put `SpgemmService` in front: it shards
//! requests across worker engines by lhs fingerprint, so every repeat of
//! an operand hits one plan cache, and reports per-request and
//! service-wide telemetry (see
//! `examples/spgemm_service.rs` for the full tour):
//!
//! ```
//! use clusterwise_spgemm::prelude::*;
//! use std::sync::Arc;
//!
//! let a = Arc::new(clusterwise_spgemm::sparse::gen::grid::poisson2d(12, 12));
//! let service = SpgemmService::new(ServiceConfig::default());
//! let ticket = service.submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a))).unwrap();
//! let response = ticket.wait().unwrap();
//! assert!(response.product.numerically_eq(&spgemm(&a, &a), 1e-9));
//! let stats = service.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```
//!
//! ## Quickstart: serving over the wire
//!
//! To serve across processes (or machines), put a `NetServer` in front of
//! the service and talk to it with a `NetClient` — the product travels as
//! bit-exact `CSRB` blobs, so the wire answer is bit-identical to a direct
//! in-process multiply (see `examples/net_roundtrip.rs` for the full tour,
//! including client-side sharding and QoS deadlines):
//!
//! ```
//! use clusterwise_spgemm::prelude::*;
//!
//! let a = clusterwise_spgemm::sparse::gen::grid::poisson2d(10, 10);
//! let service = SpgemmService::new(ServiceConfig::default());
//! let server = NetServer::bind(service, "127.0.0.1:0", NetServerConfig::default()).unwrap();
//!
//! let mut client = NetClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
//! let resp = client.multiply(&a, &a).unwrap();
//! assert!(resp.product.numerically_eq(&spgemm(&a, &a), 1e-9));
//!
//! let stats = server.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```
//!
//! ## Quickstart: observability
//!
//! Flip `ServiceConfig::tracing` on and every request leaves a structured
//! trace (queue → serve → plan/prepare/execute) in a
//! bounded flight recorder, while counters and latency histograms
//! accumulate in a metrics registry — exportable as versioned JSON-lines
//! or a human-readable snapshot (see `examples/observability.rs` for the
//! full tour):
//!
//! ```
//! use clusterwise_spgemm::prelude::*;
//! use std::sync::Arc;
//!
//! let a = Arc::new(clusterwise_spgemm::sparse::gen::grid::poisson2d(10, 10));
//! let service = SpgemmService::new(ServiceConfig {
//!     tracing: true,
//!     ..ServiceConfig::default()
//! });
//! service.submit(MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a)))
//!     .unwrap()
//!     .wait()
//!     .unwrap();
//!
//! // One trace in the flight recorder, nesting correctly under one root.
//! let traces = service.tracer().flight_traces();
//! assert_eq!(traces.len(), 1);
//! assert!(traces[0].nests_correctly());
//! assert!(traces[0].span("execute").is_some());
//!
//! // Metrics mirror the service books; exporters snapshot both.
//! let snapshot = service.metrics().snapshot();
//! assert_eq!(snapshot.counter("requests_completed"), Some(1));
//! let jsonl = service.export_jsonl();
//! assert!(jsonl.starts_with("{\"schema_version\":"));
//! assert!(service.dump_flight_recorder().contains("latency_seconds"));
//! service.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cw_core as core;
pub use cw_datasets as datasets;
pub use cw_engine as engine;
pub use cw_net as net;
pub use cw_obs as obs;
pub use cw_partition as partition;
pub use cw_reorder as reorder;
pub use cw_service as service;
pub use cw_sparse as sparse;
pub use cw_spgemm as spgemm;

/// The most commonly used items in one import.
pub mod prelude {
    pub use cw_core::{
        clusterwise_spgemm, fixed_clustering, hierarchical_clustering, variable_clustering,
        ClusterConfig, Clustering, CsrCluster,
    };
    pub use cw_engine::{
        Engine, ExecutionReport, FeedbackStore, OutputShape, Plan, PlanCache, Planner,
        PlanningPolicy, PreparedMatrix,
    };
    pub use cw_net::{
        ClientConfig, NetClient, NetError, NetServer, NetServerConfig, Qos, RoutedClient,
        SubmitShape, WireResponse,
    };
    pub use cw_obs::{FlightRecorder, LogHistogram, MetricsRegistry, Tracer};
    pub use cw_reorder::Reordering;
    pub use cw_service::{
        MultiplyRequest, Priority, RequestShape, ServiceConfig, ServiceReport, SpgemmService,
    };
    pub use cw_sparse::{fingerprint, CooMatrix, CscMatrix, CsrMatrix, Permutation};
    pub use cw_spgemm::{
        apply_mask, row_topk, spgemm, spgemm_masked_with, spgemm_serial, spgemm_with,
        AccumulatorKind, SpGemmOptions,
    };
}

// Compile and run the README's code blocks as doc-tests, so the first
// code a reader sees can never rot.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exports_work_together() {
        let a = crate::sparse::gen::grid::poisson2d(8, 8);
        let c = spgemm(&a, &a);
        assert_eq!(c.nrows, 64);
        let h = hierarchical_clustering(&a, &ClusterConfig::default());
        let (cc, pa) = h.build_symmetric(&a);
        let c2 = clusterwise_spgemm(&cc, &pa);
        assert_eq!(c2.nnz(), c.nnz());
    }

    #[test]
    fn facade_engine_round_trip() {
        let a = crate::sparse::gen::grid::poisson2d(10, 10);
        let mut engine = Engine::default();
        let (c, report) = engine.multiply(&a, &a);
        assert!(c.numerically_eq(&spgemm(&a, &a), 1e-9));
        assert!(!report.cache_hit);
        assert_eq!(engine.cache_stats().misses, 1);
    }
}
