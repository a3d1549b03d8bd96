//! [`NetServer`]: a bounded thread-per-connection TCP front-end over an
//! owned [`SpgemmService`].
//!
//! Threading model (matching the service's std-only style): one acceptor
//! thread polls a non-blocking listener; each accepted connection gets a
//! handler thread, bounded by [`NetServerConfig::max_connections`] —
//! over-limit connections receive a best-effort `REJECT Busy` and are
//! closed without a thread. Handlers poll the *first byte* of each frame
//! under a short timeout (so shutdown and idle limits stay responsive
//! without ever losing frame alignment) and read the rest under the full
//! [`NetServerConfig::read_timeout`].
//!
//! A request allocates nothing the size of its payloads beyond the matrices
//! themselves: the header is read and validated on its own, the SUBMIT is
//! decoded off the socket into the operands' arrays, and the RESULT is
//! written from the product's ([`crate::frame::read_submit_payload`],
//! [`crate::frame::write_result`]), 64 KiB at a time. A payload that does
//! not decode is read to its declared end and answered `REJECT MALFORMED`
//! on a connection that goes on; a payload that stops arriving costs the
//! connection. Only control frames are buffered as [`Frame`]s. A SUBMIT
//! under [`crate::frame::FLAG_RHS_IS_LHS`] carries one operand blob: it is
//! decoded once, and the request's lhs and rhs are the same `Arc`. A SUBMIT
//! with a flag bit outside [`crate::frame::SUBMIT_FLAGS`] is drained and
//! answered `REJECT MALFORMED`.
//!
//! Each connection keeps one *resident* operand: the lhs `Arc` of its last
//! synchronous SUBMIT that was served inline, under that SUBMIT's request
//! id, announced by [`crate::frame::FLAG_LHS_RESIDENT`] on the RESULT. Only
//! a version 4 or later SUBMIT is kept: an older peer cannot name the
//! operand, so its connection holds nothing between requests. A
//! SUBMIT under that flag names the upload's id instead of carrying the lhs
//! and is served the resident `Arc` itself — so a service shard that saw it
//! before keys it without a checksum, and under `FLAG_RHS_IS_LHS` the one
//! `Arc` still proves `b = a`. Any other id is answered `REJECT
//! UNKNOWN_OPERAND` on a connection that goes on. An inline SUBMIT drops the
//! resident operand before its payload is read, so a connection never holds
//! more than one decoded request's operands; the operand goes with the
//! connection.
//!
//! QoS lives at admission: a SUBMIT whose relative deadline already
//! passed is rejected before the service queue is touched, and a full
//! queue is retried (with backoff) only while the deadline still has
//! budget and no drain has begun — no deadline means `QueueFull` surfaces
//! immediately. All wire activity lands as `net.*` counters/histograms on
//! the *service's* metrics registry, so the existing JSONL exporter picks
//! them up with no extra plumbing.

use crate::frame::{
    encode_reject_payload, read_stamped_header, read_submit_payload, result_payload_len,
    write_result, Frame, FrameHeader, OpCode, RejectCode, WireReport, FLAG_LHS_RESIDENT,
    LHS_RESIDENT_SINCE, SUBMIT_FLAGS,
};
use cw_obs::{Counter, Gauge, LogHistogram};
use cw_service::{MultiplyRequest, SpgemmService, SubmitError, Ticket};
use cw_sparse::io::CsrReadError;
use cw_sparse::CsrMatrix;
use std::collections::HashMap;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sleep between admission retries while a deadlined SUBMIT waits out a
/// full queue (cut short where less of the deadline is left).
const FULL_RETRY_BACKOFF: Duration = Duration::from_micros(500);

/// Tunables for one [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Maximum concurrently served connections; the acceptor answers
    /// over-limit connections with a best-effort `REJECT Busy` and closes
    /// them without spawning a handler.
    pub max_connections: usize,
    /// Per-connection cap on how long reading one frame's body may take
    /// once its first byte arrived.
    pub read_timeout: Duration,
    /// Per-connection cap on writing one reply frame.
    pub write_timeout: Duration,
    /// Largest accepted frame payload; bigger declarations are rejected
    /// before any allocation ([`crate::FrameError::Oversized`]).
    pub max_frame_bytes: usize,
    /// Idle connections (no frame started) are closed after this long.
    pub idle_timeout: Duration,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            max_connections: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            max_frame_bytes: 64 << 20,
            idle_timeout: Duration::from_secs(300),
        }
    }
}

/// `net.*` obs cells, registered on the wrapped service's registry so the
/// existing JSONL exporter and flight-recorder dump carry them.
#[derive(Debug, Clone)]
struct NetMetrics {
    connections: Arc<Counter>,
    connections_active: Arc<Gauge>,
    connections_rejected: Arc<Counter>,
    /// SUBMIT frames read in full (decodable or not).
    requests: Arc<Counter>,
    /// SUBMITs whose lhs was the connection's resident operand.
    by_reference: Arc<Counter>,
    served: Arc<Counter>,
    /// REJECT replies to frames whose boundaries were sound.
    rejected: Arc<Counter>,
    deadline_shed: Arc<Counter>,
    /// Frames refused as malformed: a bad header or a payload that stopped
    /// arriving (either costs the connection), or a payload that does not
    /// decode (also counted in `rejected`; the connection goes on).
    decode_errors: Arc<Counter>,
    /// `net.wire_seconds`: a served request as the server's socket sees it,
    /// from the first byte of the frame being answered (the SUBMIT; for a
    /// no-wait submit, the POLL that redeems it) to the RESULT written and
    /// flushed — both transfers included. Not the deadline's clock: that
    /// starts once the SUBMIT has been read in full.
    wire_seconds: Arc<LogHistogram>,
    request_bytes: Arc<LogHistogram>,
    response_bytes: Arc<LogHistogram>,
}

impl NetMetrics {
    fn register(service: &SpgemmService) -> NetMetrics {
        let m = service.metrics();
        NetMetrics {
            connections: m.counter("net.connections"),
            connections_active: m.gauge("net.connections_active"),
            connections_rejected: m.counter("net.connections_rejected"),
            requests: m.counter("net.requests"),
            by_reference: m.counter("net.by_reference"),
            served: m.counter("net.served"),
            rejected: m.counter("net.rejected"),
            deadline_shed: m.counter("net.deadline_shed"),
            decode_errors: m.counter("net.decode_errors"),
            wire_seconds: m.histogram("net.wire_seconds"),
            request_bytes: m.histogram("net.request_bytes"),
            response_bytes: m.histogram("net.response_bytes"),
        }
    }
}

struct Inner {
    service: SpgemmService,
    config: NetServerConfig,
    shutdown: AtomicBool,
    active: AtomicUsize,
    metrics: NetMetrics,
}

/// A TCP serving front-end owning a [`SpgemmService`].
///
/// Bind with [`NetServer::bind`], talk to it with
/// [`crate::NetClient`], stop it with [`NetServer::shutdown`] (or a
/// client's SHUTDOWN frame + [`NetServer::run`], which is what the
/// `cw-serve` binary does). Dropping the server shuts it down gracefully:
/// in-flight connections finish their current request, then the service
/// drains.
#[derive(Debug)]
pub struct NetServer {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    acceptor: Mutex<Option<JoinHandle<()>>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("config", &self.config)
            .field("shutdown", &self.shutdown)
            .field("active", &self.active)
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port — see
    /// [`NetServer::local_addr`]) and starts the acceptor.
    pub fn bind<A: ToSocketAddrs>(
        service: SpgemmService,
        addr: A,
        config: NetServerConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let metrics = NetMetrics::register(&service);
        let inner = Arc::new(Inner {
            service,
            config,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            metrics,
        });
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let inner = Arc::clone(&inner);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("cw-net-acceptor".to_string())
                .spawn(move || acceptor_loop(listener, inner, handlers))
                .expect("spawn acceptor")
        };
        Ok(NetServer { inner, local_addr, acceptor: Mutex::new(Some(acceptor)), handlers })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The wrapped service (stats, metrics, JSONL export).
    pub fn service(&self) -> &SpgemmService {
        &self.inner.service
    }

    /// Blocks until a SHUTDOWN frame (or a local
    /// [`NetServer::shutdown`] from another thread) stops the server,
    /// then drains and returns the final service stats. The server —
    /// and its service — stay alive for post-drain reads
    /// ([`NetServer::service`], JSONL export). What `cw-serve` runs
    /// after printing its address.
    pub fn run(&self) -> cw_service::ServiceStats {
        while !self.inner.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(10));
        }
        self.shutdown()
    }

    /// Graceful drain: stop accepting, let every in-flight connection
    /// finish its current frame, then shut the service down. Idempotent.
    pub fn shutdown(&self) -> cw_service::ServiceStats {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        if let Some(a) = self.acceptor.lock().unwrap().take() {
            let _ = a.join();
        }
        let drained: Vec<_> = self.handlers.lock().unwrap().drain(..).collect();
        for h in drained {
            let _ = h.join();
        }
        self.inner.service.shutdown()
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn acceptor_loop(
    listener: TcpListener,
    inner: Arc<Inner>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                inner.metrics.connections.inc();
                let active = inner.active.load(Ordering::SeqCst);
                if active >= inner.config.max_connections {
                    inner.metrics.connections_rejected.inc();
                    reject_busy(stream, &inner);
                    continue;
                }
                inner.active.fetch_add(1, Ordering::SeqCst);
                inner.metrics.connections_active.set(inner.active.load(Ordering::SeqCst) as i64);
                let conn_inner = Arc::clone(&inner);
                let handle = std::thread::Builder::new()
                    .name("cw-net-conn".to_string())
                    .spawn(move || {
                        handle_connection(stream, &conn_inner);
                        conn_inner.active.fetch_sub(1, Ordering::SeqCst);
                        conn_inner
                            .metrics
                            .connections_active
                            .set(conn_inner.active.load(Ordering::SeqCst) as i64);
                    })
                    .expect("spawn connection handler");
                let mut guard = handlers.lock().unwrap();
                // Reap finished handlers so the vec stays bounded by the
                // connection limit instead of growing with lifetime count.
                guard.retain(|h| !h.is_finished());
                guard.push(handle);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Best-effort `REJECT Busy` to an over-limit connection, on the acceptor
/// thread (bounded by the write timeout so a slow peer cannot stall
/// accepting).
fn reject_busy(mut stream: TcpStream, inner: &Inner) {
    let _ = stream.set_write_timeout(Some(inner.config.write_timeout));
    let reject = Frame {
        payload: encode_reject_payload(RejectCode::Busy, "connection limit reached"),
        ..Frame::control(OpCode::Reject, 0)
    };
    let _ = reject.write_to(&mut stream);
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Serves one connection until the peer hangs up, a fatal frame error
/// occurs, the idle timeout passes, or shutdown begins.
fn handle_connection(mut stream: TcpStream, inner: &Inner) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(inner.config.write_timeout));
    // Tickets of FLAG_NO_WAIT submits awaiting a POLL, keyed by the
    // client's request id. Connection-scoped: a dropped connection drops
    // its tickets (the service still serves them; responses are discarded).
    let mut pending: HashMap<u64, PendingEntry> = HashMap::new();
    // The resident operand and the request id that uploaded it.
    let mut resident: Option<(u64, Arc<CsrMatrix>)> = None;
    let mut idle_since = Instant::now();
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Poll only the first byte under a short timeout: shutdown and
        // idle checks stay responsive, and a timeout here never splits a
        // frame (nothing was consumed yet).
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        let mut first = [0u8; 1];
        match stream.read(&mut first) {
            Ok(0) => break, // peer closed
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {
                if idle_since.elapsed() >= inner.config.idle_timeout {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }
        // Frame started: read the rest under the full read timeout. A
        // timeout mid-frame is fatal for the connection (the stream can no
        // longer be frame-aligned), but only for this connection.
        let started = Instant::now();
        let _ = stream.set_read_timeout(Some(inner.config.read_timeout));
        let (head, version) =
            match read_stamped_header(first[0], &mut stream, inner.config.max_frame_bytes) {
                Ok(read) => read,
                Err(err) => {
                    reject_unaligned(&mut stream, inner, &err.to_string());
                    break;
                }
            };
        idle_since = Instant::now();
        let keep_going = if head.op == OpCode::Submit {
            serve_submit(&mut stream, inner, (head, version), started, &mut pending, &mut resident)
        } else {
            match head.read_payload(&mut stream) {
                Ok(frame) => serve_control(&mut stream, inner, frame, started, &mut pending),
                Err(err) => {
                    reject_unaligned(&mut stream, inner, &format!("frame i/o: {err}"));
                    false
                }
            }
        };
        if !keep_going {
            break;
        }
    }
}

/// Best-effort `REJECT MALFORMED` for a frame that leaves the stream
/// unaligned (bad header, or a header or payload that stopped arriving);
/// the caller closes the connection.
fn reject_unaligned(stream: &mut TcpStream, inner: &Inner, message: &str) {
    inner.metrics.decode_errors.inc();
    let reject = Frame {
        payload: encode_reject_payload(RejectCode::Malformed, message),
        ..Frame::control(OpCode::Reject, 0)
    };
    let _ = reject.write_to(stream);
}

/// Answers one buffered (non-SUBMIT) frame; returns whether the connection
/// goes on.
fn serve_control(
    stream: &mut TcpStream,
    inner: &Inner,
    frame: Frame,
    started: Instant,
    pending: &mut HashMap<u64, PendingEntry>,
) -> bool {
    match frame.op {
        OpCode::Poll => serve_poll(stream, inner, frame.request_id, started, pending),
        OpCode::Stats => {
            let payload = inner.service.export_jsonl().into_bytes();
            let reply = Frame { payload, ..Frame::control(OpCode::StatsOk, frame.request_id) };
            reply.write_to(stream).is_ok()
        }
        OpCode::Shutdown => {
            let reply = Frame::control(OpCode::ShutdownOk, frame.request_id);
            let _ = reply.write_to(stream);
            inner.shutdown.store(true, Ordering::SeqCst);
            false
        }
        // Reply ops arriving at the server are a protocol violation.
        _ => {
            inner.metrics.decode_errors.inc();
            let reject = Frame {
                payload: encode_reject_payload(
                    RejectCode::Malformed,
                    &format!("unexpected op {:?} on server", frame.op),
                ),
                ..Frame::control(OpCode::Reject, frame.request_id)
            };
            let _ = reject.write_to(stream);
            false
        }
    }
}

struct PendingEntry {
    ticket: Ticket,
    deadline: Option<Instant>,
}

/// Writes a reject frame; returns whether the connection is still usable.
fn write_reject(
    stream: &mut TcpStream,
    inner: &Inner,
    request_id: u64,
    code: RejectCode,
    message: &str,
) -> bool {
    inner.metrics.rejected.inc();
    if code == RejectCode::DeadlineExpired {
        inner.metrics.deadline_shed.inc();
    }
    let reject = Frame {
        payload: encode_reject_payload(code, message),
        ..Frame::control(OpCode::Reject, request_id)
    };
    reject.write_to(stream).is_ok()
}

/// Admission + execution of one SUBMIT frame whose header, stamped
/// `version`, has been read; `started` is when its first byte arrived.
fn serve_submit(
    stream: &mut TcpStream,
    inner: &Inner,
    (head, version): (FrameHeader, u16),
    started: Instant,
    pending: &mut HashMap<u64, PendingEntry>,
    resident: &mut Option<(u64, Arc<CsrMatrix>)>,
) -> bool {
    if !head.lhs_resident() {
        *resident = None;
    }
    let held = resident.as_ref().map(|(upload, lhs)| (*upload, lhs));
    let decoded = read_submit_payload(stream, &head, held);
    if let Err(CsrReadError::Io(e)) = &decoded {
        reject_unaligned(stream, inner, &format!("frame i/o: {e}"));
        return false;
    }
    // The deadline runs from here — the SUBMIT read in full — not from
    // `started`: a slow upload does not eat the caller's budget.
    let received = Instant::now();
    inner.metrics.requests.inc();
    inner.metrics.request_bytes.record(head.payload_len as f64);
    let deadline =
        (head.deadline_ms > 0).then(|| received + Duration::from_millis(head.deadline_ms as u64));
    let (lhs, rhs, shape) = match decoded {
        Ok(Some(ops)) => ops,
        Ok(None) => {
            return write_reject(
                stream,
                inner,
                head.request_id,
                RejectCode::UnknownOperand,
                "no resident operand under that upload id on this connection; resend it inline",
            );
        }
        Err(e) => {
            inner.metrics.decode_errors.inc();
            // Payload decode failures are *not* fatal to the connection:
            // the frame boundary was sound and the payload was consumed to
            // its end, so the stream stays aligned.
            let unknown = head.flags & !SUBMIT_FLAGS;
            let message = match unknown {
                0 => e.to_string(),
                _ => format!("unknown SUBMIT flag bits {unknown:#06x}; payload drained unparsed"),
            };
            return write_reject(stream, inner, head.request_id, RejectCode::Malformed, &message);
        }
    };
    if head.lhs_resident() {
        inner.metrics.by_reference.inc();
    }
    // Under FLAG_RHS_IS_LHS `rhs` is `lhs`'s own Arc: one matrix decoded
    // and held.
    let mut request =
        MultiplyRequest::new(Arc::clone(&lhs), rhs).with_priority(head.priority).with_shape(shape);
    if let Some(d) = deadline {
        request = request.with_deadline_at(d);
    }

    // Admission loop: a full queue is backpressure, so a deadlined request
    // spends its remaining budget retrying, never sleeping past it — once
    // the budget is gone the service itself sheds (and counts) it, before
    // enqueue, the cheap place. A drain ends the wait. Without a deadline,
    // QueueFull surfaces to the client immediately.
    let ticket = loop {
        match inner.service.submit(request.clone()) {
            Ok(t) => break t,
            Err(SubmitError::DeadlineExpired) => {
                return write_reject(
                    stream,
                    inner,
                    head.request_id,
                    RejectCode::DeadlineExpired,
                    "deadline expired before admission",
                );
            }
            Err(SubmitError::Full) => match deadline {
                Some(_) if inner.shutdown.load(Ordering::SeqCst) => {
                    return write_reject(
                        stream,
                        inner,
                        head.request_id,
                        RejectCode::ShuttingDown,
                        "server is draining",
                    );
                }
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    std::thread::sleep(FULL_RETRY_BACKOFF.min(left));
                }
                None => {
                    return write_reject(
                        stream,
                        inner,
                        head.request_id,
                        RejectCode::QueueFull,
                        "service queue is full",
                    );
                }
            },
            // The service's own message: one rejection, one text, in
            // process and over the wire.
            Err(
                e @ (SubmitError::ShapeMismatch { .. } | SubmitError::MaskShapeMismatch { .. }),
            ) => {
                return write_reject(
                    stream,
                    inner,
                    head.request_id,
                    RejectCode::ShapeMismatch,
                    &e.to_string(),
                );
            }
            Err(SubmitError::ShuttingDown) => {
                return write_reject(
                    stream,
                    inner,
                    head.request_id,
                    RejectCode::ShuttingDown,
                    "server is draining",
                );
            }
        }
    };

    if head.no_wait() {
        pending.insert(head.request_id, PendingEntry { ticket, deadline });
        let reply = Frame::control(OpCode::Accepted, head.request_id);
        return reply.write_to(stream).is_ok();
    }

    let outcome = ticket.wait();
    // Served, the lhs stays: a resident one under its upload's id, an
    // inline one from a peer that can name it under this request's.
    let flags = match outcome {
        Ok(_) if head.lhs_resident() => FLAG_LHS_RESIDENT,
        Ok(_) if version >= LHS_RESIDENT_SINCE => {
            *resident = Some((head.request_id, lhs));
            FLAG_LHS_RESIDENT
        }
        _ => 0,
    };
    finish_submit(stream, inner, head.request_id, flags, deadline, started, outcome)
}

/// Turns a ticket outcome into the RESULT (under `flags`) or REJECT reply;
/// `started` is when the first byte of the frame being answered arrived.
fn finish_submit(
    stream: &mut TcpStream,
    inner: &Inner,
    request_id: u64,
    flags: u16,
    deadline: Option<Instant>,
    started: Instant,
    outcome: Result<cw_service::MultiplyResponse, cw_service::ServiceError>,
) -> bool {
    match outcome {
        Ok(resp) => {
            let report = WireReport::from_service(&resp.report);
            inner.metrics.served.inc();
            inner.metrics.response_bytes.record(result_payload_len(&resp.product) as f64);
            let head = FrameHeader {
                priority: resp.report.priority,
                flags,
                ..FrameHeader::control(OpCode::Result, request_id)
            };
            let written = write_result(stream, &head, &report, &resp.product).is_ok();
            if written {
                inner.metrics.wire_seconds.record(started.elapsed().as_secs_f64());
            }
            written
        }
        // The service hung up on the ticket: either a worker dropped an
        // expired request, or the service tore down mid-flight.
        Err(_) => {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                write_reject(
                    stream,
                    inner,
                    request_id,
                    RejectCode::DeadlineExpired,
                    "deadline passed while queued; dropped unexecuted",
                )
            } else if inner.shutdown.load(Ordering::SeqCst) {
                write_reject(
                    stream,
                    inner,
                    request_id,
                    RejectCode::ShuttingDown,
                    "server is draining",
                )
            } else {
                write_reject(
                    stream,
                    inner,
                    request_id,
                    RejectCode::Internal,
                    "request dropped unserved",
                )
            }
        }
    }
}

/// Answers a POLL for an earlier no-wait submit on this connection.
fn serve_poll(
    stream: &mut TcpStream,
    inner: &Inner,
    request_id: u64,
    started: Instant,
    pending: &mut HashMap<u64, PendingEntry>,
) -> bool {
    let Some(entry) = pending.get(&request_id) else {
        return write_reject(
            stream,
            inner,
            request_id,
            RejectCode::UnknownRequest,
            "no pending submit with that id on this connection",
        );
    };
    match entry.ticket.poll() {
        None => {
            let reply = Frame::control(OpCode::Pending, request_id);
            reply.write_to(stream).is_ok()
        }
        Some(outcome) => {
            let entry = pending.remove(&request_id).expect("entry just found");
            finish_submit(stream, inner, request_id, 0, entry.deadline, started, outcome)
        }
    }
}
