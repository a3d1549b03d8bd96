//! Behavioral contract of the `cw-net` wire layer against an in-process
//! loopback server:
//!
//! * wire multiplies (sync and no-wait + poll) are **bit-identical** to a
//!   direct `Engine::multiply` of the same operands;
//! * the wire report says whether the kernel ran in parallel exactly as the
//!   in-process report does;
//! * the `RoutedClient` fans traffic over N endpoints exactly by
//!   `fingerprint(lhs).shard_index(N)`, and each endpoint serves precisely
//!   its share;
//! * malformed, short-read, and oversized frames are rejected without
//!   killing the acceptor (the blast radius is one connection), and a
//!   payload that does not decode inside a sound frame costs only itself:
//!   the same socket serves the next request;
//! * deadline QoS sheds a request the queue never admits once its budget
//!   is spent, and the shed is counted in the exported `net.*` metrics;
//! * low-priority traffic is capped at the admission watermark;
//! * graceful drain finishes in-flight requests before the server exits,
//!   and refuses a request still waiting for admission as `ShuttingDown`.
//!
//! The cross-*process* contract (two live `cw-serve` binaries) lives in
//! `crates/net/tests/two_process.rs`.

use clusterwise_spgemm::net::frame::{self, Frame, FrameHeader, OpCode};
use clusterwise_spgemm::net::RejectCode;
use clusterwise_spgemm::prelude::*;
use clusterwise_spgemm::sparse::gen;
use clusterwise_spgemm::sparse::io::{encode_csr, encoded_csr_len, CSR_BINARY_HEADER_BYTES};
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
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
            resp.product.bits_eq(&direct),
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
fn a_right_hand_side_wider_than_dense_fits_costs_no_more_than_its_answer() {
    // `a` plans Dense from its own 1 600 columns; `b` makes the product
    // 4·10⁹ columns wide. Sized from `b`, a dense accumulator would be 48 GB
    // per worker and abort the server; the kernel runs Hash instead, and
    // the same connection then serves an ordinary request.
    let server = loopback_server(ServiceConfig::default(), NetServerConfig::default());
    let mut client =
        NetClient::connect(server.local_addr(), ClientConfig::default()).expect("connect");
    let a = gen::grid::poisson2d(40, 40);
    let ncols = 4_000_000_000;
    let b = CsrMatrix::from_row_lists(
        ncols,
        (0..1600).map(|i| vec![(i * (ncols / 1600) + i % 7, 1.5)]).collect(),
    );
    let wide = client.multiply(&a, &b).expect("wide right-hand side");
    assert_eq!((wide.product.nrows, wide.product.ncols), (1600, ncols));
    assert!(wide.product.bits_eq(&spgemm_serial(&a, &b)), "wide product is not the oracle's");

    let normal = client.multiply(&a, &a).expect("the request after it");
    let (direct, _) = Engine::default().multiply(&a, &a);
    assert!(normal.product.bits_eq(&direct), "the next request is not served correctly");

    let stats = server.shutdown();
    assert_eq!((stats.completed, stats.rejected), (2, 0));
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
        let (direct, _) = Engine::default().multiply_shaped(&a, &a, OutputShape::TopK(3), None);
        let resp =
            client.multiply_shaped_qos(&a, &a, &SubmitShape::TopK(3), Qos::none()).expect(name);
        assert!(
            resp.product.bits_eq(&direct),
            "{name}: wire top-k product is not bit-identical to the direct shaped engine"
        );
        assert_eq!(resp.report.shape, OutputShape::TopK(3), "{name}: report lost the shape");

        // Masked by the operand's own pattern (dimensions always match
        // the square product).
        let (direct, _) = Engine::default().multiply_masked(&a, &a, &a);
        let resp = client.multiply_masked(&a, &a, &a).expect(name);
        assert!(
            resp.product.bits_eq(&direct),
            "{name}: wire masked product is not bit-identical to the direct shaped engine"
        );
        assert_eq!(resp.report.shape, OutputShape::Masked, "{name}: report lost the shape");
        completed += 2;
    }

    // A mask whose dimensions don't match the product, or operands that do
    // not compose, is a typed reject whose message is the service's own for
    // the same request — and the connection survives to serve the corrected
    // request.
    let a = gen::grid::poisson2d(6, 6);
    let small = gen::grid::poisson2d(5, 5);
    let in_process = SpgemmService::new(ServiceConfig::default());
    let (a_arc, small_arc) = (Arc::new(a.clone()), Arc::new(small.clone()));
    for (masked, rhs) in [(true, &a_arc), (false, &small_arc)] {
        let mut request = MultiplyRequest::new(Arc::clone(&a_arc), Arc::clone(rhs));
        let err = if masked {
            request = request.with_mask(Arc::clone(&small_arc));
            client.multiply_masked(&a, rhs, &small)
        } else {
            client.multiply(&a, rhs)
        };
        let want = in_process.submit(request).expect_err("shapes must mismatch").to_string();
        let Err(NetError::Rejected { code, message }) = err else { panic!("{err:?}") };
        assert_eq!((code, message), (RejectCode::ShapeMismatch, want));
    }
    in_process.shutdown();
    let resp = client
        .multiply_shaped_qos(&a, &a, &SubmitShape::TopK(1), Qos::none())
        .expect("serves after the reject");
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
fn the_wire_reports_whether_the_kernel_ran_in_parallel() {
    // Byte 33 carries the executed plan's `parallel`. A 400-row operand is
    // below the planner's threshold and runs serially; a 576-row one runs on
    // the pool. Either way the wire says what the in-process report says for
    // the same request.
    let in_process = SpgemmService::new(ServiceConfig::default());
    let server = loopback_server(ServiceConfig::default(), NetServerConfig::default());
    let mut client =
        NetClient::connect(server.local_addr(), ClientConfig::default()).expect("connect");
    for (side, parallel) in [(20, false), (24, true)] {
        let a = Arc::new(gen::grid::poisson2d(side, side));
        let request = MultiplyRequest::new(Arc::clone(&a), Arc::clone(&a));
        let local = in_process.submit(request).unwrap().wait().unwrap();
        assert_eq!(local.report.execution.plan.parallel, parallel, "{} rows", a.nrows);
        let wire = client.multiply(&a, &a).expect("wire multiply");
        assert_eq!(wire.report.parallel, parallel, "{} rows", a.nrows);
        assert!(wire.product.bits_eq(&local.product), "{} rows", a.nrows);
    }
    in_process.shutdown();
    server.shutdown();
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
    assert!(resp.product.bits_eq(&direct));

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
        let first = router.route(&a).multiply(&a, &a).expect(name);
        let again = router.route(&a).multiply(&a, &a).expect(name);
        expected[endpoint] += 2;
        assert!(first.product.bits_eq(&again.product), "{name}: unstable product");
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

    // 2. Short read: a frame that stops mid-header times out (the 200 ms
    //    read timeout), is answered REJECT Malformed, and kills only that
    //    connection.
    let mut half = TcpStream::connect(addr).expect("connect raw");
    half.write_all(&frame::FRAME_MAGIC).expect("write magic only");
    let reply = frame::read_frame(&mut half, 4096).expect("reject frame");
    assert_eq!(reply.op, OpCode::Reject);
    let (code, _) = frame::decode_reject_payload(&reply.payload).expect("reject payload");
    assert_eq!(code, RejectCode::Malformed);
    assert_eq!(half.read(&mut [0u8; 1]).expect("clean close"), 0);
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

    // 4. Well-formed frames whose *payload* does not decode: each is
    //    rejected, and each time the connection survives (the frame
    //    boundary was sound and the server consumed the payload to its
    //    end) — checked by serving a good SUBMIT on the same socket.
    //    (Small operand — this server caps frames at 4 KiB.)
    let a = gen::grid::poisson2d(4, 4);
    let want = spgemm_serial(&a, &a);
    let blob = encode_csr(&a);
    let pair = [&blob[..], &blob[..]].concat();
    // rhs corrupted halfway in: row_ptr[8] = 0 under row_ptr[7] > 0.
    let mut rhs_not_monotone = pair.clone();
    let at = blob.len() + CSR_BINARY_HEADER_BYTES + 8 * 8;
    rhs_not_monotone[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
    // lhs header declares 2^20 entries: far more than the frame holds.
    let mut lhs_overclaims = pair.clone();
    lhs_overclaims[24..32].copy_from_slice(&(1u64 << 20).to_le_bytes());
    let top1_block = [&[frame::SHAPE_TAG_TOPK][..], &1u64.to_le_bytes()].concat();
    let abuse: [(&str, Vec<u8>); 5] = [
        ("64 bytes of 0xAB", vec![0xAB; 64]),
        ("rhs row_ptr not monotone", rhs_not_monotone),
        ("unknown shape tag", [&pair[..], &[99]].concat()),
        ("bytes trailing a complete shape block", [&pair[..], &top1_block, &[0]].concat()),
        ("lhs declares more than the frame holds", lhs_overclaims),
    ];
    let mut sloppy = TcpStream::connect(addr).expect("connect raw");
    let mut id = 8;
    for (what, payload) in abuse {
        let bad = Frame { payload, ..Frame::control(OpCode::Submit, id) };
        sloppy.write_all(&bad.encode()).expect(what);
        let reply = frame::read_frame(&mut sloppy, 4096).expect(what);
        assert_eq!((reply.op, reply.request_id), (OpCode::Reject, id), "{what}");
        let (code, _) = frame::decode_reject_payload(&reply.payload).expect(what);
        assert_eq!(code, RejectCode::Malformed, "{what}");

        let head = FrameHeader::control(OpCode::Submit, id + 1);
        frame::write_submit(&mut sloppy, &head, &a, &a, &SubmitShape::Full).expect(what);
        let reply = FrameHeader::read(&mut sloppy, 4096).expect(what);
        assert_eq!((reply.op, reply.request_id), (OpCode::Result, id + 1), "{what}");
        let (_, product) =
            frame::read_result_payload(&mut sloppy, reply.payload_len as usize).expect(what);
        assert!(product.bits_eq(&want), "{what}: the connection survived but served other bits");
        id += 2;
    }
    drop(sloppy);

    // The acceptor outlived every abusive peer: a good client served over
    // the same listener still round-trips.
    let mut client = NetClient::connect(addr, ClientConfig::default()).expect("connect good");
    let resp = client.multiply(&a, &a).expect("served after abuse");
    assert!(resp.product.bits_eq(&want));

    // Eight refusals were malformed (1–3 cost their connection, the five of
    // 4 did not); only the five with a sound frame were answered by id.
    let jsonl = client.stats_jsonl().expect("stats");
    for counter in ["\"net.decode_errors\":8", "\"net.rejected\":5", "\"net.requests\":11"] {
        assert!(jsonl.contains(counter), "missing {counter}:\n{jsonl}");
    }

    let stats = server.shutdown();
    assert_eq!(stats.completed, 6);
}

#[test]
fn a_half_sent_payload_costs_only_its_connection() {
    let server = loopback_server(ServiceConfig::default(), NetServerConfig::default());
    let addr = server.local_addr();

    // A header promising ≈ 1 MB, half of it sent — valid as far as it
    // goes — then the peer is gone. The server was decoding as the bytes
    // arrived; it must give up on this connection and nothing else.
    let a = gen::grid::poisson2d(85, 85);
    let mut bytes = Vec::new();
    let head = FrameHeader::control(OpCode::Submit, 1);
    frame::write_submit(&mut bytes, &head, &a, &a, &SubmitShape::Full).expect("encode");
    assert_eq!(bytes.len(), frame::FRAME_HEADER_BYTES + 2 * encoded_csr_len(&a));
    assert!(bytes.len() > 900_000);
    let mut quitter = TcpStream::connect(addr).expect("connect raw");
    quitter.write_all(&bytes[..bytes.len() / 2]).expect("write half");
    quitter.shutdown(Shutdown::Write).expect("hang up");
    // Best-effort reject (id 0: the stream is no longer frame-aligned),
    // then the server closes its side too.
    let reply = frame::read_frame(&mut quitter, 4096).expect("reject frame");
    assert_eq!((reply.op, reply.request_id), (OpCode::Reject, 0));
    let (code, _) = frame::decode_reject_payload(&reply.payload).expect("reject payload");
    assert_eq!(code, RejectCode::Malformed);
    assert_eq!(quitter.read(&mut [0u8; 1]).expect("clean close"), 0);

    // It counts as a malformed frame, not as a request or an answered
    // reject; and the next peer is served.
    let mut client = NetClient::connect(addr, ClientConfig::default()).expect("connect good");
    let jsonl = client.stats_jsonl().expect("stats");
    for counter in ["\"net.decode_errors\":1", "\"net.rejected\":0", "\"net.requests\":0"] {
        assert!(jsonl.contains(counter), "missing {counter}:\n{jsonl}");
    }
    let resp = client.multiply(&a, &a).expect("served after the quitter");
    assert!(resp.product.bits_eq(&spgemm_serial(&a, &a)));

    let stats = server.shutdown();
    assert_eq!(stats.completed, 1);
}

/// One shard whose queue never admits low-priority traffic (watermark 0):
/// a deadlined Low request waits out a queue that stays full for it.
fn low_priority_locked_out() -> ServiceConfig {
    ServiceConfig { shards: 1, low_priority_watermark: Some(0), ..ServiceConfig::default() }
}

#[test]
fn deadline_expired_requests_are_shed_and_counted() {
    let server = loopback_server(low_priority_locked_out(), NetServerConfig::default());
    let mut client =
        NetClient::connect(server.local_addr(), ClientConfig::default()).expect("connect");

    // The request retries admission until its budget runs out; the service
    // then sheds it *before* enqueue.
    let a = gen::grid::poisson2d(10, 10);
    let qos = Qos { priority: Priority::Low, deadline: Some(Duration::from_millis(120)) };
    let started = Instant::now();
    let err =
        client.multiply_shaped_qos(&a, &a, &SubmitShape::Full, qos).expect_err("must be shed");
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
fn a_drain_refuses_a_request_waiting_for_admission_as_shutting_down() {
    let server = loopback_server(low_priority_locked_out(), NetServerConfig::default());
    let addr = server.local_addr();
    let waiter = std::thread::spawn(move || {
        let a = gen::grid::poisson2d(10, 10);
        let mut client = NetClient::connect(addr, ClientConfig::default()).expect("connect");
        let qos = Qos { priority: Priority::Low, deadline: Some(Duration::from_secs(10)) };
        client.multiply_shaped_qos(&a, &a, &SubmitShape::Full, qos).expect_err("must be refused")
    });

    // Once the service has refused it once, the request is waiting out the
    // full queue with most of its budget left.
    while server.service().stats().rejected == 0 {
        std::thread::yield_now();
    }
    let stats = server.shutdown();
    let err = waiter.join().expect("client thread");
    assert!(err.is_rejected_with(RejectCode::ShuttingDown), "got {err}");
    assert_eq!((stats.completed, stats.deadline_rejected), (0, 0));
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
    let err =
        client.multiply_shaped_qos(&a, &a, &SubmitShape::Full, low).expect_err("low must be shed");
    assert!(err.is_rejected_with(RejectCode::QueueFull), "got {err}");

    // Interactive traffic is untouched by the watermark.
    let resp = client.multiply(&a, &a).expect("high priority serves");
    assert!(resp.product.bits_eq(&spgemm(&a, &a)));

    let stats = server.shutdown();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.rejected, 1);
}

#[test]
fn graceful_drain_finishes_in_flight_requests() {
    let server = loopback_server(ServiceConfig::default(), NetServerConfig::default());
    let addr = server.local_addr();

    let worker = std::thread::spawn(move || {
        let a = gen::grid::poisson2d(12, 12);
        let mut client = NetClient::connect(addr, ClientConfig::default()).expect("connect");
        let resp = client.multiply(&a, &a).expect("in-flight request survives the drain");
        assert!(resp.product.bits_eq(&spgemm(&a, &a)));
    });

    // Shutdown begins once the server has read the SUBMIT in full.
    while server.service().metrics().snapshot().counter("net.requests") != Some(1) {
        std::thread::yield_now();
    }
    let stats = server.shutdown();
    worker.join().expect("client thread");
    assert_eq!(stats.completed, 1, "drain must finish the in-flight request");
    assert_eq!(stats.rejected, 0);
}
