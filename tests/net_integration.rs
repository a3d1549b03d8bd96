//! Behavioral contract of the `cw-net` wire layer against an in-process
//! loopback server:
//!
//! * wire multiplies (sync and no-wait + poll) are **bit-identical** to a
//!   direct `Engine::multiply` of the same operands;
//! * the `RoutedClient` fans traffic over N endpoints exactly by
//!   `fingerprint(lhs).shard_index(N)`, and each endpoint serves precisely
//!   its share;
//! * malformed, short-read, and oversized frames are rejected without
//!   killing the acceptor (the blast radius is one connection);
//! * deadline QoS sheds hopeless requests (stalled worker, full queue)
//!   and the sheds are counted in the exported `net.*` metrics;
//! * low-priority traffic is capped at the admission watermark;
//! * graceful drain finishes in-flight requests before the server exits.
//!
//! The cross-*process* contract (two live `cw-serve` binaries) lives in
//! `crates/net/tests/two_process.rs`.

use clusterwise_spgemm::net::frame::{self, Frame, OpCode};
use clusterwise_spgemm::net::RejectCode;
use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::sparse::gen;
use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Structural families covering every branch of the advisor's decision
/// surface (mirrors `tests/service_integration.rs`).
fn corpus() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("scrambled_mesh", gen::mesh::tri_mesh(12, 12, true, 3)),
        ("poisson2d", gen::grid::poisson2d(12, 12)),
        ("block_diagonal", gen::banded::block_diagonal(96, (4, 8), 0.1, 5)),
        ("grouped_rows", gen::banded::grouped_rows(90, 5, 6, 2)),
        ("erdos_renyi", gen::er::erdos_renyi(120, 5, 9)),
        ("kkt", gen::kkt::kkt(70, 20, 2, 3, 8)),
    ]
}

fn loopback_server(service_config: ServiceConfig, net_config: NetServerConfig) -> NetServer {
    let service = SpgemmService::new(service_config);
    NetServer::bind(service, "127.0.0.1:0", net_config).expect("bind loopback")
}

#[test]
fn wire_roundtrip_is_bit_identical_to_direct_engine() {
    let config = ServiceConfig::default();
    let shards = config.shards;
    let server = loopback_server(config, NetServerConfig::default());
    let mut client =
        NetClient::connect(server.local_addr(), ClientConfig::default()).expect("connect");

    for (name, a) in corpus() {
        // The service's worker engines and a fresh default engine plan
        // identically on first sight, so the wire answer must match the
        // direct one bit for bit — CSRB carries raw f64 bit patterns.
        let (direct, _) = Engine::default().multiply(&a, &a);
        let resp = client.multiply(&a, &a).expect(name);
        assert!(
            resp.product.numerically_eq(&direct, 0.0),
            "{name}: wire product is not bit-identical to direct engine execution"
        );
        // The report's shard is the same fingerprint hash the router uses.
        assert_eq!(
            resp.report.shard as usize,
            fingerprint(&a).shard_index(shards),
            "{name}: served on the wrong service shard"
        );
    }

    let stats = server.shutdown();
    assert_eq!(stats.completed as usize, corpus().len());
    assert_eq!(stats.rejected, 0);
}

#[test]
fn shaped_wire_requests_are_bit_identical_to_direct_engine() {
    use clusterwise_spgemm::engine::OutputShape;

    let server = loopback_server(ServiceConfig::default(), NetServerConfig::default());
    let mut client =
        NetClient::connect(server.local_addr(), ClientConfig::default()).expect("connect");

    let mut completed = 0u64;
    for (name, a) in corpus() {
        // Top-k over the wire: same bits as the in-process shaped engine,
        // and the report echoes the shape (tag + k survive the frame).
        let (direct, _) = Engine::default().multiply_topk(&a, &a, 3);
        let resp = client.multiply_topk(&a, &a, 3).expect(name);
        assert!(
            resp.product.numerically_eq(&direct, 0.0),
            "{name}: wire top-k product is not bit-identical to the direct shaped engine"
        );
        assert_eq!(resp.report.shape, OutputShape::TopK(3), "{name}: report lost the shape");

        // Masked by the operand's own pattern (dimensions always match
        // the square product).
        let (direct, _) = Engine::default().multiply_masked(&a, &a, &a);
        let resp = client.multiply_masked(&a, &a, &a).expect(name);
        assert!(
            resp.product.numerically_eq(&direct, 0.0),
            "{name}: wire masked product is not bit-identical to the direct shaped engine"
        );
        assert_eq!(resp.report.shape, OutputShape::Masked, "{name}: report lost the shape");
        completed += 2;
    }

    // A mask whose dimensions don't match the product is a typed reject —
    // and the connection survives to serve the corrected request.
    let a = gen::grid::poisson2d(6, 6);
    let bad_mask = gen::grid::poisson2d(5, 5);
    let err = client.multiply_masked(&a, &a, &bad_mask).expect_err("mask dims must mismatch");
    assert!(err.is_rejected_with(RejectCode::ShapeMismatch), "got {err}");
    let resp = client.multiply_topk(&a, &a, 1).expect("serves after the reject");
    assert!(
        (0..resp.product.nrows).all(|i| resp.product.row_nnz(i) <= 1),
        "top-1 rows must have at most one entry"
    );
    completed += 1;

    let stats = server.shutdown();
    assert_eq!(stats.completed, completed);
    // A mask mismatch is a caller error, not an admission shed — it never
    // counts against the service's `rejected` (which tracks backpressure
    // and deadline sheds), exactly like an operand shape mismatch.
    assert_eq!(stats.rejected, 0);
}

#[test]
fn no_wait_submit_polls_to_the_same_bits() {
    let server = loopback_server(ServiceConfig::default(), NetServerConfig::default());
    let mut client =
        NetClient::connect(server.local_addr(), ClientConfig::default()).expect("connect");

    let a = gen::grid::poisson2d(12, 12);
    let (direct, _) = Engine::default().multiply(&a, &a);

    let id = client.submit_no_wait(&a, &a, &SubmitShape::Full, Qos::none()).expect("accepted");
    let resp = loop {
        match client.poll(id).expect("poll") {
            Some(resp) => break resp,
            None => std::thread::sleep(Duration::from_millis(2)),
        }
    };
    assert!(resp.product.numerically_eq(&direct, 0.0));

    // A POLL for an id this connection never submitted is a typed reject.
    let err = client.poll(id + 1000).expect_err("unknown id");
    assert!(err.is_rejected_with(RejectCode::UnknownRequest), "got {err}");

    server.shutdown();
}

#[test]
fn routed_client_places_by_fingerprint_and_each_endpoint_serves_its_share() {
    let servers: Vec<NetServer> = (0..2)
        .map(|_| {
            loopback_server(
                ServiceConfig { shards: 2, ..ServiceConfig::default() },
                NetServerConfig::default(),
            )
        })
        .collect();
    let endpoints: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
    let mut router = RoutedClient::connect(&endpoints, ClientConfig::default()).expect("connect");
    assert_eq!(router.endpoints(), 2);

    let mut expected = [0u64; 2];
    for (name, a) in corpus() {
        let endpoint = router.endpoint_for(&a);
        assert_eq!(
            endpoint,
            fingerprint(&a).shard_index(2),
            "{name}: router disagrees with the fingerprint hash"
        );
        // Repeat traffic: placement is deterministic, so the second hit
        // lands on the same endpoint's now-warm plan cache.
        let first = router.multiply(&a, &a).expect(name);
        let again = router.multiply(&a, &a).expect(name);
        expected[endpoint] += 2;
        assert!(first.product.numerically_eq(&again.product, 0.0), "{name}: unstable product");
        assert!(!first.report.cache_hit, "{name}: first sight cannot be a cache hit");
        assert!(again.report.cache_hit, "{name}: repeat missed the endpoint's plan cache");
    }
    // The corpus must actually exercise the fan-out, not collapse onto
    // one endpoint.
    assert!(expected.iter().all(|&n| n > 0), "corpus fans out to both endpoints: {expected:?}");

    // Each endpoint served exactly the requests the hash routed to it.
    for (i, server) in servers.into_iter().enumerate() {
        let stats = server.shutdown();
        assert_eq!(
            stats.completed, expected[i],
            "endpoint {i} served a different share than the hash assigned"
        );
    }
}

#[test]
fn malformed_frames_are_isolated_to_their_connection() {
    let net_config = NetServerConfig {
        // Short read timeout so the half-frame probe resolves quickly.
        read_timeout: Duration::from_millis(200),
        max_frame_bytes: 4096,
        ..NetServerConfig::default()
    };
    let server = loopback_server(ServiceConfig::default(), net_config);
    let addr = server.local_addr();

    // 1. Garbage magic: the server answers REJECT Malformed and closes
    //    that connection.
    let mut bad = TcpStream::connect(addr).expect("connect raw");
    bad.write_all(&[b'X'; 28]).expect("write garbage header");
    let reply = frame::read_frame(&mut bad, 4096).expect("reject frame");
    assert_eq!(reply.op, OpCode::Reject);
    let (code, _) = frame::decode_reject_payload(&reply.payload).expect("reject payload");
    assert_eq!(code, RejectCode::Malformed);
    drop(bad);

    // 2. Short read: a frame that stops mid-header times out and kills
    //    only that connection.
    let mut half = TcpStream::connect(addr).expect("connect raw");
    half.write_all(&frame::FRAME_MAGIC).expect("write magic only");
    std::thread::sleep(Duration::from_millis(300));
    drop(half);

    // 3. Oversized declaration: payload bigger than the server's cap is
    //    rejected before allocation.
    let mut big = TcpStream::connect(addr).expect("connect raw");
    let oversized = Frame { payload: vec![0u8; 5000], ..Frame::control(OpCode::Submit, 7) };
    big.write_all(&oversized.encode()).expect("write oversized");
    let reply = frame::read_frame(&mut big, 4096).expect("reject frame");
    assert_eq!(reply.op, OpCode::Reject);
    let (code, _) = frame::decode_reject_payload(&reply.payload).expect("reject payload");
    assert_eq!(code, RejectCode::Malformed);
    drop(big);

    // 4. A well-formed frame whose *payload* is not valid CSRB: rejected,
    //    but the connection survives (frame boundaries stayed sound).
    let mut sloppy = TcpStream::connect(addr).expect("connect raw");
    let bad_payload = Frame { payload: vec![0xAB; 64], ..Frame::control(OpCode::Submit, 8) };
    sloppy.write_all(&bad_payload.encode()).expect("write bad payload");
    let reply = frame::read_frame(&mut sloppy, 4096).expect("reject frame");
    let (code, _) = frame::decode_reject_payload(&reply.payload).expect("reject payload");
    assert_eq!(code, RejectCode::Malformed);

    // The acceptor outlived all four abusive peers: a good client served
    // over the same listener still round-trips. (Small operand — this
    // server caps frames at 4 KiB.)
    let a = gen::grid::poisson2d(4, 4);
    let mut client = NetClient::connect(addr, ClientConfig::default()).expect("connect good");
    let resp = client.multiply(&a, &a).expect("served after abuse");
    assert!(resp.product.numerically_eq(&spgemm(&a, &a), 1e-9));

    let stats = server.shutdown();
    assert_eq!(stats.completed, 1);
}

#[test]
fn deadline_expired_requests_are_shed_and_counted() {
    // One queue slot and an hour-long batch window: the first request
    // parks in the dispatcher and pins the slot, stalling admission.
    let service_config = ServiceConfig {
        shards: 1,
        queue_capacity: 1,
        batch_window: Duration::from_secs(3600),
        ..ServiceConfig::default()
    };
    let server = loopback_server(service_config, NetServerConfig::default());
    let mut client =
        NetClient::connect(server.local_addr(), ClientConfig::default()).expect("connect");

    let a = gen::grid::poisson2d(10, 10);
    let parked = client
        .submit_no_wait(&a, &a, &SubmitShape::Full, Qos::none())
        .expect("parks in the window");
    assert!(client.poll(parked).expect("poll").is_none(), "must still be parked");

    // The queue is now full; a deadlined request retries admission until
    // its budget runs out, then is shed *before* enqueue.
    let qos = Qos { priority: Priority::High, deadline: Some(Duration::from_millis(120)) };
    let started = Instant::now();
    let err = client.multiply_qos(&a, &a, qos).expect_err("must be shed");
    assert!(err.is_rejected_with(RejectCode::DeadlineExpired), "got {err}");
    assert!(
        started.elapsed() >= Duration::from_millis(120),
        "shed before the deadline budget was spent"
    );

    // The shed is visible in the wire metrics and the service counters of
    // the JSONL export.
    let jsonl = client.stats_jsonl().expect("stats");
    assert!(jsonl.contains("\"net.deadline_shed\":1"), "missing net shed counter:\n{jsonl}");
    assert!(
        jsonl.contains("\"requests_deadline_rejected\":1"),
        "missing service admission counter:\n{jsonl}"
    );

    drop(client);
    server.shutdown();
}

#[test]
fn low_priority_is_shed_at_the_watermark_over_the_wire() {
    // Watermark 0: low-priority traffic may use none of the queue.
    let service_config = ServiceConfig {
        shards: 1,
        queue_capacity: 4,
        low_priority_watermark: Some(0),
        ..ServiceConfig::default()
    };
    let server = loopback_server(service_config, NetServerConfig::default());
    let mut client =
        NetClient::connect(server.local_addr(), ClientConfig::default()).expect("connect");

    let a = gen::grid::poisson2d(10, 10);
    let low = Qos { priority: Priority::Low, deadline: None };
    let err = client.multiply_qos(&a, &a, low).expect_err("low must be shed");
    assert!(err.is_rejected_with(RejectCode::QueueFull), "got {err}");

    // Interactive traffic is untouched by the watermark.
    let resp = client.multiply(&a, &a).expect("high priority serves");
    assert!(resp.product.numerically_eq(&spgemm(&a, &a), 1e-9));

    let stats = server.shutdown();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.rejected, 1);
}

#[test]
fn graceful_drain_finishes_in_flight_requests() {
    let service_config =
        ServiceConfig { batch_window: Duration::from_millis(300), ..ServiceConfig::default() };
    let server = loopback_server(service_config, NetServerConfig::default());
    let addr = server.local_addr();

    // A request parked in the 300ms batch window while shutdown begins.
    let worker = std::thread::spawn(move || {
        let a = gen::grid::poisson2d(12, 12);
        let mut client = NetClient::connect(addr, ClientConfig::default()).expect("connect");
        let resp = client.multiply(&a, &a).expect("in-flight request survives the drain");
        assert!(resp.product.numerically_eq(&spgemm(&a, &a), 1e-9));
    });

    std::thread::sleep(Duration::from_millis(100));
    let stats = server.shutdown();
    worker.join().expect("client thread");
    assert_eq!(stats.completed, 1, "drain must finish the in-flight request");
    assert_eq!(stats.rejected, 0);
}
