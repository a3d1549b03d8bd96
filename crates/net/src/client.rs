//! [`NetClient`]: a blocking wire client for one `cw-net` endpoint.
//!
//! The client keeps one TCP connection and reconnects lazily with
//! exponential backoff when an I/O error breaks it — the next call dials
//! again instead of failing forever. Request ids are assigned
//! monotonically per client and echoed by the server; replies carry them
//! back so a mismatch is detected as a protocol error.
//!
//! A multiply allocates nothing the size of its payloads: the SUBMIT is
//! written from the operands' arrays and the RESULT read into the product's
//! ([`crate::frame::write_submit`], [`crate::frame::read_result_payload`]),
//! 64 KiB at a time. Only control replies (REJECT, STATS_OK, …) are
//! buffered as [`Frame`]s. A multiply whose rhs *is* its lhs (`C = A·A`,
//! the same reference) sends that operand once, under
//! [`crate::frame::FLAG_RHS_IS_LHS`]; two equal matrices in different
//! allocations still travel as two blobs. A mask that is the lhs travels as
//! its tag alone ([`crate::frame::FLAG_MASK_IS_LHS`]).
//!
//! An lhs the server already holds is not sent again. After a RESULT under
//! [`crate::frame::FLAG_LHS_RESIDENT`] the client remembers the request id
//! that uploaded the lhs and the lhs's sampled fingerprint; it checksums an
//! lhs only when its fingerprint is the last upload's, so an lhs that does
//! not repeat costs a fingerprint (microseconds), not an `O(nnz)` pass. An
//! operand uploaded twice in a row is thus known by its full identity —
//! fingerprint and checksum, the engine's [`cw_engine::OperandKey`] — and
//! a later synchronous multiply whose lhs has that identity names the
//! upload instead of carrying the lhs: the third call of a repeated operand
//! is the first by reference. If the server answers `UnknownOperand`, the
//! call resends the lhs inline, once, unseen by its caller. Any inline
//! SUBMIT, and a dropped connection, forget the upload: the server drops
//! its operand then.

use crate::frame::{
    decode_reject_payload, read_result_payload, write_submit_block, Frame, FrameError, FrameHeader,
    OpCode, RejectCode, ShapeBlock, SubmitShape, WireReport, FLAG_LHS_RESIDENT, FLAG_MASK_IS_LHS,
    FLAG_NO_WAIT, FLAG_RHS_IS_LHS,
};
use cw_service::Priority;
use cw_sparse::io::{CsrCodecError, CsrReadError};
use cw_sparse::{checksum, fingerprint, CsrMatrix, MatrixFingerprint};
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Tunables for a [`NetClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// Cap on waiting for one reply frame (covers queueing + execution on
    /// the server; size it to the slowest multiply you expect to wait on).
    pub read_timeout: Duration,
    /// Cap on writing one request frame.
    pub write_timeout: Duration,
    /// Dial attempts per (re)connect before giving up.
    pub connect_attempts: u32,
    /// Backoff after the first failed dial; doubles per attempt.
    pub connect_backoff: Duration,
    /// Largest accepted reply payload.
    pub max_frame_bytes: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(30),
            connect_attempts: 5,
            connect_backoff: Duration::from_millis(50),
            max_frame_bytes: 64 << 20,
        }
    }
}

/// QoS envelope for one request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Qos {
    /// Priority class carried in the frame header.
    pub priority: Priority,
    /// Relative deadline (from server receipt); rounded up to whole
    /// milliseconds on the wire, `None` = never expires.
    pub deadline: Option<Duration>,
}

impl Qos {
    /// High priority, no deadline — the server treats this identically to
    /// pre-QoS traffic.
    pub fn none() -> Qos {
        Qos::default()
    }

    fn deadline_ms(&self) -> u32 {
        match self.deadline {
            // 0 means "no deadline" on the wire, so a sub-millisecond
            // budget rounds *up* — a deadline must never silently vanish.
            Some(d) => (d.as_millis().clamp(1, u32::MAX as u128)) as u32,
            None => 0,
        }
    }
}

/// Errors a client call can produce.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (dial, send, or receive). The connection is
    /// dropped; the next call reconnects.
    Io(io::Error),
    /// A reply frame could not be decoded.
    Frame(FrameError),
    /// A reply payload's CSR blob could not be decoded.
    Codec(CsrCodecError),
    /// The server refused the request.
    Rejected {
        /// Machine-readable cause.
        code: RejectCode,
        /// Server-provided detail.
        message: String,
    },
    /// The server answered with something that violates the protocol
    /// (wrong op, mismatched request id, malformed reject payload).
    Protocol(String),
}

impl NetError {
    /// Whether this is a `Rejected` with the given code.
    pub fn is_rejected_with(&self, want: RejectCode) -> bool {
        matches!(self, NetError::Rejected { code, .. } if *code == want)
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport: {e}"),
            NetError::Frame(e) => write!(f, "frame: {e}"),
            NetError::Codec(e) => write!(f, "payload: {e}"),
            NetError::Rejected { code, message } => write!(f, "rejected ({code}): {message}"),
            NetError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        // Transport-level failures keep their io kind so callers can
        // distinguish timeouts from protocol damage.
        match e {
            FrameError::Io(io) => NetError::Io(io),
            other => NetError::Frame(other),
        }
    }
}

impl From<CsrCodecError> for NetError {
    fn from(e: CsrCodecError) -> Self {
        NetError::Codec(e)
    }
}

impl From<CsrReadError> for NetError {
    fn from(e: CsrReadError) -> Self {
        match e {
            CsrReadError::Io(io) => NetError::Io(io),
            CsrReadError::Codec(codec) => NetError::Codec(codec),
        }
    }
}

/// A successfully served wire multiply.
#[derive(Debug, Clone)]
pub struct WireResponse {
    /// `C = shape(lhs · rhs)`, bit-identical to a direct
    /// [`cw_engine::Engine`] multiply with the same configuration and
    /// shape.
    pub product: CsrMatrix,
    /// The server's serving telemetry.
    pub report: WireReport,
}

/// Blocking client for one endpoint.
#[derive(Debug)]
pub struct NetClient {
    addr: SocketAddr,
    config: ClientConfig,
    stream: Option<TcpStream>,
    next_id: u64,
    /// The lhs the server holds for this connection.
    resident: Option<Resident>,
}

/// What a client knows of the lhs its server holds.
#[derive(Debug, Clone, Copy)]
struct Resident {
    /// The request id that uploaded it.
    upload: u64,
    /// Its sampled fingerprint.
    fingerprint: MatrixFingerprint,
    /// Its checksum, when the upload before it had the same fingerprint.
    checksum: Option<u64>,
}

impl NetClient {
    /// Connects eagerly (with the config's dial retries).
    pub fn connect(addr: SocketAddr, config: ClientConfig) -> Result<NetClient, NetError> {
        let mut client = NetClient { addr, config, stream: None, next_id: 0, resident: None };
        client.ensure_connected()?;
        Ok(client)
    }

    fn ensure_connected(&mut self) -> Result<&mut TcpStream, NetError> {
        if self.stream.is_none() {
            let mut backoff = self.config.connect_backoff;
            let mut last: Option<io::Error> = None;
            for attempt in 0..self.config.connect_attempts.max(1) {
                if attempt > 0 {
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
                match TcpStream::connect_timeout(&self.addr, self.config.connect_timeout) {
                    Ok(s) => {
                        let _ = s.set_nodelay(true);
                        s.set_read_timeout(Some(self.config.read_timeout))?;
                        s.set_write_timeout(Some(self.config.write_timeout))?;
                        self.stream = Some(s);
                        break;
                    }
                    Err(e) => last = Some(e),
                }
            }
            if self.stream.is_none() {
                return Err(NetError::Io(last.unwrap_or_else(|| {
                    io::Error::new(io::ErrorKind::NotConnected, "no connect attempts")
                })));
            }
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// One request/reply exchange: `send` writes the request frame, then
    /// the reply is read — a RESULT straight into its product, anything
    /// else into a buffered [`Frame`]. Any transport error drops the
    /// connection so the next call redials.
    fn exchange(
        &mut self,
        request_id: u64,
        send: impl FnOnce(&mut TcpStream) -> io::Result<()>,
    ) -> Result<Reply, NetError> {
        let max = self.config.max_frame_bytes;
        let result = (|| {
            let stream = self.ensure_connected()?;
            send(stream)?;
            let head = FrameHeader::read(stream, max)?;
            if head.request_id != request_id && head.request_id != 0 {
                return Err(NetError::Protocol(format!(
                    "reply for request {} while waiting on {request_id}",
                    head.request_id
                )));
            }
            if head.op == OpCode::Result {
                // A RESULT that does not decode was still consumed to its
                // end: the connection stays frame-aligned and is kept.
                let (report, product) = read_result_payload(stream, head.payload_len as usize)?;
                let response = WireResponse { product, report };
                return Ok(Reply::Result { response, lhs_resident: head.lhs_resident() });
            }
            Ok(Reply::Control(head.read_payload(stream)?))
        })();
        // Transport gone, or a stray reply whose payload was left unread:
        // the stream's state is unknown either way; start fresh, and the
        // server's resident operand went with the connection.
        if matches!(result, Err(NetError::Io(_) | NetError::Protocol(_))) {
            self.stream = None;
            self.resident = None;
        }
        result
    }

    /// Sends one control frame and reads the reply.
    fn control(&mut self, op: OpCode, request_id: u64) -> Result<Reply, NetError> {
        self.exchange(request_id, |stream| Frame::control(op, request_id).write_to(stream))
    }

    /// The header of this client's next SUBMIT of `shape(lhs · rhs)` (its
    /// length is filled in when the frame is written): `flags`, plus
    /// [`FLAG_RHS_IS_LHS`] when `rhs` is `lhs` itself and
    /// [`FLAG_MASK_IS_LHS`] when the mask is.
    fn submit_head(
        &mut self,
        qos: Qos,
        flags: u16,
        lhs: &CsrMatrix,
        rhs: &CsrMatrix,
        shape: ShapeBlock<'_>,
    ) -> FrameHeader {
        let rhs_is_lhs = if std::ptr::eq(lhs, rhs) { FLAG_RHS_IS_LHS } else { 0 };
        let mask_is_lhs = match shape {
            ShapeBlock::Masked(mask) if std::ptr::eq(lhs, mask) => FLAG_MASK_IS_LHS,
            _ => 0,
        };
        FrameHeader {
            priority: qos.priority,
            flags: flags | rhs_is_lhs | mask_is_lhs,
            deadline_ms: qos.deadline_ms(),
            ..FrameHeader::control(OpCode::Submit, self.next_request_id())
        }
    }

    /// Sends one SUBMIT, streamed from the operands, and reads the reply:
    /// under [`FLAG_LHS_RESIDENT`] with the lhs named by its `upload` id,
    /// else inline, which makes the server drop its resident operand.
    fn submit(
        &mut self,
        head: &FrameHeader,
        lhs: &CsrMatrix,
        rhs: &CsrMatrix,
        shape: ShapeBlock<'_>,
        upload: Option<u64>,
    ) -> Result<Reply, NetError> {
        if upload.is_none() {
            self.resident = None;
        }
        self.exchange(head.request_id, |stream| {
            write_submit_block(stream, head, lhs, rhs, shape, upload)
        })
    }

    /// One synchronous multiply: by reference when the server holds `lhs`
    /// (resent inline, once, if it no longer does), else inline — after
    /// which a RESULT under [`FLAG_LHS_RESIDENT`] makes `lhs` the resident
    /// operand. `lhs` is checksummed only when its sampled fingerprint is
    /// the resident one's.
    fn multiply_block(
        &mut self,
        lhs: &CsrMatrix,
        rhs: &CsrMatrix,
        shape: ShapeBlock<'_>,
        qos: Qos,
    ) -> Result<WireResponse, NetError> {
        let sampled = fingerprint(lhs);
        let held = self.resident.filter(|held| held.fingerprint == sampled);
        let sum = held.map(|_| checksum(lhs));
        if let Some(held) = held.filter(|held| held.checksum.is_some() && held.checksum == sum) {
            let head = self.submit_head(qos, FLAG_LHS_RESIDENT, lhs, rhs, shape);
            match self.submit(&head, lhs, rhs, shape, Some(held.upload))?.into_result() {
                Err(e) if e.is_rejected_with(RejectCode::UnknownOperand) => {}
                served => return served,
            }
        }
        let head = self.submit_head(qos, 0, lhs, rhs, shape);
        let reply = self.submit(&head, lhs, rhs, shape, None)?;
        if let Reply::Result { lhs_resident: true, .. } = reply {
            let upload = head.request_id;
            self.resident = Some(Resident { upload, fingerprint: sampled, checksum: sum });
        }
        reply.into_result()
    }

    fn next_request_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// `C = lhs · rhs` over the wire, high priority, no deadline.
    pub fn multiply(&mut self, lhs: &CsrMatrix, rhs: &CsrMatrix) -> Result<WireResponse, NetError> {
        self.multiply_shaped_qos(lhs, rhs, &SubmitShape::Full, Qos::none())
    }

    /// `C = (lhs · rhs) ∩ mask` over the wire — only product entries on
    /// the mask's sparsity pattern survive. The mask travels in the SUBMIT
    /// payload and must match the product's dimensions
    /// (`lhs.nrows × rhs.ncols`); the server rejects mismatches with
    /// [`RejectCode::ShapeMismatch`].
    pub fn multiply_masked(
        &mut self,
        lhs: &CsrMatrix,
        rhs: &CsrMatrix,
        mask: &CsrMatrix,
    ) -> Result<WireResponse, NetError> {
        self.multiply_block(lhs, rhs, ShapeBlock::Masked(mask), Qos::none())
    }

    /// `C = shape(lhs · rhs)` with an explicit [`SubmitShape`] and QoS
    /// envelope — the general form. [`NetClient::multiply`] is its full,
    /// no-QoS case and [`NetClient::multiply_masked`] its masked one, with
    /// the mask borrowed instead of moved into a [`SubmitShape`]. A top-k
    /// request ([`SubmitShape::TopK`]) is bit-identical to serving the full
    /// product and truncating client-side, but only the surviving entries
    /// travel back. The server sheds a request whose deadline passes before
    /// it can be admitted with [`RejectCode::DeadlineExpired`].
    pub fn multiply_shaped_qos(
        &mut self,
        lhs: &CsrMatrix,
        rhs: &CsrMatrix,
        shape: &SubmitShape,
        qos: Qos,
    ) -> Result<WireResponse, NetError> {
        self.multiply_block(lhs, rhs, shape.block(), qos)
    }

    /// Submits without waiting: the server answers `ACCEPTED` once the
    /// request is admitted; redeem the returned id with
    /// [`NetClient::poll`] **on this same client** (pending results are
    /// connection-scoped — a reconnect abandons them).
    pub fn submit_no_wait(
        &mut self,
        lhs: &CsrMatrix,
        rhs: &CsrMatrix,
        shape: &SubmitShape,
        qos: Qos,
    ) -> Result<u64, NetError> {
        let head = self.submit_head(qos, FLAG_NO_WAIT, lhs, rhs, shape.block());
        match self.submit(&head, lhs, rhs, shape.block(), None)? {
            Reply::Control(reply) if reply.op == OpCode::Accepted => Ok(head.request_id),
            reply => Err(reply.unexpected("ACCEPTED")),
        }
    }

    /// Polls an earlier [`NetClient::submit_no_wait`]: `Ok(None)` while
    /// still in flight, `Ok(Some(_))` once served, `Err(Rejected)` if the
    /// server shed it.
    pub fn poll(&mut self, request_id: u64) -> Result<Option<WireResponse>, NetError> {
        match self.control(OpCode::Poll, request_id)? {
            Reply::Control(reply) if reply.op == OpCode::Pending => Ok(None),
            reply => reply.into_result().map(Some),
        }
    }

    /// Fetches the server's JSONL observability export (the same bytes as
    /// [`cw_service::SpgemmService::export_jsonl`], including the `net.*`
    /// wire metrics).
    pub fn stats_jsonl(&mut self) -> Result<String, NetError> {
        let id = self.next_request_id();
        match self.control(OpCode::Stats, id)? {
            Reply::Control(reply) if reply.op == OpCode::StatsOk => {
                Ok(String::from_utf8_lossy(&reply.payload).into_owned())
            }
            reply => Err(reply.unexpected("STATS_OK")),
        }
    }

    /// Asks the server to drain and exit; returns once acknowledged.
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        let id = self.next_request_id();
        match self.control(OpCode::Shutdown, id)? {
            Reply::Control(reply) if reply.op == OpCode::ShutdownOk => Ok(()),
            reply => Err(reply.unexpected("SHUTDOWN_OK")),
        }
    }
}

/// One reply as the client reads it: a RESULT decoded straight off the
/// socket, or any other frame with its (small) payload buffered.
enum Reply {
    /// A RESULT, and whether it carried [`FLAG_LHS_RESIDENT`].
    Result {
        response: WireResponse,
        lhs_resident: bool,
    },
    Control(Frame),
}

impl Reply {
    /// The served multiply, or why there is none.
    fn into_result(self) -> Result<WireResponse, NetError> {
        match self {
            Reply::Result { response, .. } => Ok(response),
            other => Err(other.unexpected("RESULT")),
        }
    }

    /// The error for a reply that is not the `wanted` one: the server's
    /// REJECT if it is one, a protocol violation otherwise.
    fn unexpected(self, wanted: &str) -> NetError {
        match self {
            Reply::Result { .. } => NetError::Protocol(format!("expected {wanted}, got Result")),
            Reply::Control(reply) if reply.op == OpCode::Reject => {
                match decode_reject_payload(&reply.payload) {
                    Some((code, message)) => NetError::Rejected { code, message },
                    None => NetError::Protocol("undecodable reject payload".into()),
                }
            }
            Reply::Control(reply) => {
                NetError::Protocol(format!("expected {wanted}, got {:?}", reply.op))
            }
        }
    }
}
