//! The `CWNP` wire protocol: versioned, length-prefixed binary frames.
//!
//! Every message on the wire is one frame: a fixed 28-byte little-endian
//! header followed by `payload_len` payload bytes. The header carries the
//! QoS envelope (priority class, relative deadline) so admission control
//! can act *before* touching the payload, and the payload formats reuse
//! the self-delimiting `CSRB` codec from [`cw_sparse::io`] so operand and
//! product bytes are identical to what out-of-core code reads and writes.
//!
//! Header layout (offsets in bytes):
//!
//! | off | size | field | meaning |
//! |-----|------|-------------|--------------------------------------------|
//! | 0   | 4    | magic       | `b"CWNP"` |
//! | 4   | 2    | version     | schema version, currently 2 |
//! | 6   | 1    | op          | [`OpCode`] |
//! | 7   | 1    | priority    | 0 = high, 1 = low |
//! | 8   | 2    | flags       | bit 0 = [`FLAG_NO_WAIT`] |
//! | 10  | 2    | reserved    | must be 0 |
//! | 12  | 8    | request_id  | client-chosen; echoed in every reply |
//! | 20  | 4    | deadline_ms | relative deadline, 0 = none |
//! | 24  | 4    | payload_len | payload bytes following the header |
//!
//! Version 2 adds the optional output-shape block to SUBMIT payloads
//! ([`SubmitShape`]) and the shape fields to [`WireReport`]. A version-1
//! SUBMIT (no shape block) still decodes — it means the full product —
//! so v1 clients keep working against a v2 server. The normative
//! byte-level specification lives in `docs/PROTOCOL.md` at the workspace
//! root; this module is its implementation.

use cw_engine::OutputShape;
use cw_service::{Priority, ServiceReport};
use cw_sparse::io::{decode_csr, encode_csr_into, CsrCodecError};
use cw_sparse::CsrMatrix;
use std::fmt;
use std::io::{self, Read, Write};

/// Magic bytes opening every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"CWNP";

/// Wire schema version emitted by this build; peers reject anything newer.
/// Version 2 added output shapes (the SUBMIT shape block and the
/// [`WireReport`] shape fields); version-1 frames are still accepted.
pub const FRAME_VERSION: u16 = 2;

/// Fixed header size in bytes.
pub const FRAME_HEADER_BYTES: usize = 28;

/// Frame flag: the SUBMIT does not want a synchronous reply body — the
/// server answers [`OpCode::Accepted`] immediately and the client fetches
/// the outcome later with [`OpCode::Poll`] on the same connection.
pub const FLAG_NO_WAIT: u16 = 1;

/// Frame operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// Client → server: execute `C = shape(lhs · rhs)`. Payload: lhs
    /// `CSRB` blob, rhs `CSRB` blob, then an optional [`SubmitShape`]
    /// block (absent = full product, the version-1 payload).
    Submit = 1,
    /// Server → client: a served multiply. Payload: [`WireReport`]
    /// followed by the product `CSRB` blob.
    Result = 2,
    /// Server → client: the request was not served. Payload:
    /// [`RejectCode`] (u16) + message length (u32) + UTF-8 message.
    Reject = 3,
    /// Client → server: request the service's JSONL observability export.
    /// Empty payload.
    Stats = 4,
    /// Server → client: reply to [`OpCode::Stats`]. Payload: the JSONL
    /// bytes ([`cw_obs::export`] schema).
    StatsOk = 5,
    /// Client → server: ask the server to drain and exit. Empty payload.
    Shutdown = 6,
    /// Server → client: shutdown acknowledged; the server drains in-flight
    /// work and stops accepting connections. Empty payload.
    ShutdownOk = 7,
    /// Client → server: fetch the outcome of an earlier
    /// [`FLAG_NO_WAIT`] submit with the same `request_id`. Empty payload.
    Poll = 8,
    /// Server → client: the polled request is still in flight. Empty
    /// payload.
    Pending = 9,
    /// Server → client: a no-wait submit was admitted. Empty payload.
    Accepted = 10,
}

impl OpCode {
    /// Parses a wire byte.
    pub fn from_wire(b: u8) -> Option<OpCode> {
        Some(match b {
            1 => OpCode::Submit,
            2 => OpCode::Result,
            3 => OpCode::Reject,
            4 => OpCode::Stats,
            5 => OpCode::StatsOk,
            6 => OpCode::Shutdown,
            7 => OpCode::ShutdownOk,
            8 => OpCode::Poll,
            9 => OpCode::Pending,
            10 => OpCode::Accepted,
            _ => return None,
        })
    }
}

/// Why the server refused to serve a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum RejectCode {
    /// The service's bounded queue was full (backpressure — retry later).
    QueueFull = 1,
    /// The request's deadline expired before (or while) it could be
    /// admitted — shed at the front door, never enqueued.
    DeadlineExpired = 2,
    /// Operand shapes do not compose.
    ShapeMismatch = 3,
    /// The frame or its payload could not be decoded.
    Malformed = 4,
    /// The server is at its connection limit.
    Busy = 5,
    /// The server is draining for shutdown.
    ShuttingDown = 6,
    /// The request was admitted but the service dropped it unserved.
    Internal = 7,
    /// A POLL named a request id this connection never submitted (or one
    /// already redeemed).
    UnknownRequest = 8,
}

impl RejectCode {
    /// Parses a wire value.
    pub fn from_wire(v: u16) -> Option<RejectCode> {
        Some(match v {
            1 => RejectCode::QueueFull,
            2 => RejectCode::DeadlineExpired,
            3 => RejectCode::ShapeMismatch,
            4 => RejectCode::Malformed,
            5 => RejectCode::Busy,
            6 => RejectCode::ShuttingDown,
            7 => RejectCode::Internal,
            8 => RejectCode::UnknownRequest,
            _ => return None,
        })
    }
}

impl fmt::Display for RejectCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Priority class → wire byte.
pub fn priority_to_wire(p: Priority) -> u8 {
    match p {
        Priority::High => 0,
        Priority::Low => 1,
    }
}

/// Wire byte → priority class (unknown values are treated as high so a
/// newer client's finer-grained classes degrade safely).
pub fn priority_from_wire(b: u8) -> Priority {
    match b {
        1 => Priority::Low,
        _ => Priority::High,
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Operation.
    pub op: OpCode,
    /// QoS priority class (meaningful on SUBMIT; echoed elsewhere).
    pub priority: Priority,
    /// Header flags ([`FLAG_NO_WAIT`]).
    pub flags: u16,
    /// Client-chosen request id, echoed verbatim in replies.
    pub request_id: u64,
    /// Relative deadline in milliseconds from server receipt; 0 = none.
    pub deadline_ms: u32,
    /// Opaque payload (op-specific).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with no QoS envelope and an empty payload.
    pub fn control(op: OpCode, request_id: u64) -> Frame {
        Frame {
            op,
            priority: Priority::High,
            flags: 0,
            request_id,
            deadline_ms: 0,
            payload: Vec::new(),
        }
    }

    /// Whether [`FLAG_NO_WAIT`] is set.
    pub fn no_wait(&self) -> bool {
        self.flags & FLAG_NO_WAIT != 0
    }

    /// Serializes header + payload into one buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + self.payload.len());
        out.extend_from_slice(&FRAME_MAGIC);
        out.extend_from_slice(&FRAME_VERSION.to_le_bytes());
        out.push(self.op as u8);
        out.push(priority_to_wire(self.priority));
        out.extend_from_slice(&self.flags.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&self.request_id.to_le_bytes());
        out.extend_from_slice(&self.deadline_ms.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Writes the frame to `w` and flushes.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.encode())?;
        w.flush()
    }
}

/// Errors while reading or decoding a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (includes short reads mid-frame
    /// and read timeouts).
    Io(io::Error),
    /// The first four bytes were not `b"CWNP"` — the stream is not (or no
    /// longer) frame-aligned and the connection must be dropped.
    BadMagic([u8; 4]),
    /// The peer speaks a newer schema.
    UnsupportedVersion(u16),
    /// Unknown [`OpCode`] byte.
    UnknownOp(u8),
    /// The declared payload length exceeds the reader's configured bound.
    Oversized {
        /// Declared payload bytes.
        len: usize,
        /// The reader's cap.
        max: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            FrameError::UnsupportedVersion(v) => {
                write!(f, "unsupported frame version {v} (max {FRAME_VERSION})")
            }
            FrameError::UnknownOp(b) => write!(f, "unknown op code {b}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds cap {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Reads one frame, blocking until the full header + payload arrive (or
/// the reader's timeout fires, surfacing as [`FrameError::Io`]).
pub fn read_frame<R: Read>(r: &mut R, max_payload: usize) -> Result<Frame, FrameError> {
    let mut first = [0u8; 1];
    r.read_exact(&mut first)?;
    read_frame_after_first_byte(first[0], r, max_payload)
}

/// Completes a frame whose first byte was already consumed — the server's
/// acceptor polls a single byte under a short timeout (so shutdown and
/// idle checks stay responsive without ever losing frame alignment), then
/// hands it here to read the rest under the full read timeout.
pub fn read_frame_after_first_byte<R: Read>(
    first: u8,
    r: &mut R,
    max_payload: usize,
) -> Result<Frame, FrameError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    header[0] = first;
    r.read_exact(&mut header[1..])?;
    if header[0..4] != FRAME_MAGIC {
        return Err(FrameError::BadMagic(header[0..4].try_into().unwrap()));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if version == 0 || version > FRAME_VERSION {
        return Err(FrameError::UnsupportedVersion(version));
    }
    let op = OpCode::from_wire(header[6]).ok_or(FrameError::UnknownOp(header[6]))?;
    let priority = priority_from_wire(header[7]);
    let flags = u16::from_le_bytes(header[8..10].try_into().unwrap());
    let request_id = u64::from_le_bytes(header[12..20].try_into().unwrap());
    let deadline_ms = u32::from_le_bytes(header[20..24].try_into().unwrap());
    let payload_len = u32::from_le_bytes(header[24..28].try_into().unwrap()) as usize;
    if payload_len > max_payload {
        return Err(FrameError::Oversized { len: payload_len, max: max_payload });
    }
    let mut payload = vec![0u8; payload_len];
    r.read_exact(&mut payload)?;
    Ok(Frame { op, priority, flags, request_id, deadline_ms, payload })
}

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

/// Shape-block tag byte: masked output (a mask `CSRB` blob follows).
pub const SHAPE_TAG_MASKED: u8 = 1;

/// Shape-block tag byte: top-k output (a `u64` LE `k` follows).
pub const SHAPE_TAG_TOPK: u8 = 2;

/// Requested output shape of a SUBMIT, carrying the mask operand for
/// masked requests — the wire-side counterpart of
/// [`cw_service::RequestShape`].
///
/// On the wire this is the optional block *after* the two operand blobs:
///
/// * absent → [`SubmitShape::Full`] (exactly the version-1 payload, so
///   full-product submits are byte-identical across versions);
/// * `[SHAPE_TAG_MASKED]` + mask `CSRB` blob → [`SubmitShape::Masked`];
/// * `[SHAPE_TAG_TOPK]` + `k` as `u64` LE → [`SubmitShape::TopK`].
#[derive(Debug, Clone, PartialEq, Default)]
pub enum SubmitShape {
    /// The complete product (encodes as no shape block).
    #[default]
    Full,
    /// Keep only product entries on the mask's sparsity pattern; the mask
    /// must match the product's dimensions (`lhs.nrows × rhs.ncols`).
    Masked(CsrMatrix),
    /// Keep each output row's `k` largest-magnitude entries.
    TopK(u64),
}

impl SubmitShape {
    /// The service-level request shape this decodes to.
    pub fn to_request_shape(&self) -> cw_service::RequestShape {
        match self {
            SubmitShape::Full => cw_service::RequestShape::Full,
            SubmitShape::Masked(m) => {
                cw_service::RequestShape::Masked(std::sync::Arc::new(m.clone()))
            }
            SubmitShape::TopK(k) => cw_service::RequestShape::TopK(*k as usize),
        }
    }
}

/// SUBMIT payload: the two operands as back-to-back `CSRB` blobs, then the
/// output-shape block ([`SubmitShape::Full`] encodes nothing, keeping
/// full-product payloads byte-identical to version 1).
pub fn encode_submit_payload_shaped(
    lhs: &CsrMatrix,
    rhs: &CsrMatrix,
    shape: &SubmitShape,
) -> Vec<u8> {
    let mut out = Vec::new();
    encode_csr_into(&mut out, lhs);
    encode_csr_into(&mut out, rhs);
    match shape {
        SubmitShape::Full => {}
        SubmitShape::Masked(mask) => {
            out.push(SHAPE_TAG_MASKED);
            encode_csr_into(&mut out, mask);
        }
        SubmitShape::TopK(k) => {
            out.push(SHAPE_TAG_TOPK);
            out.extend_from_slice(&k.to_le_bytes());
        }
    }
    out
}

/// Decodes a SUBMIT payload with an optional shape block. An absent block
/// (the version-1 payload) decodes as [`SubmitShape::Full`]; an unknown
/// tag byte or bytes trailing a complete block are framing errors.
pub fn decode_submit_payload_shaped(
    payload: &[u8],
) -> Result<(CsrMatrix, CsrMatrix, SubmitShape), CsrCodecError> {
    let (lhs, used) = decode_csr(payload)?;
    let (rhs, used2) = decode_csr(&payload[used..])?;
    let rest = &payload[used + used2..];
    let shape = match rest.first() {
        None => SubmitShape::Full,
        Some(&SHAPE_TAG_MASKED) => {
            let (mask, used3) = decode_csr(&rest[1..])?;
            if 1 + used3 != rest.len() {
                return Err(CsrCodecError::TrailingBytes(rest.len() - 1 - used3));
            }
            SubmitShape::Masked(mask)
        }
        Some(&SHAPE_TAG_TOPK) => {
            if rest.len() != 9 {
                return Err(if rest.len() < 9 {
                    CsrCodecError::Truncated { needed: 9, have: rest.len() }
                } else {
                    CsrCodecError::TrailingBytes(rest.len() - 9)
                });
            }
            SubmitShape::TopK(u64::from_le_bytes(rest[1..9].try_into().unwrap()))
        }
        // An unrecognized tag is indistinguishable from garbage: surface
        // it as trailing bytes so the server rejects it as Malformed.
        Some(_) => return Err(CsrCodecError::TrailingBytes(rest.len())),
    };
    Ok((lhs, rhs, shape))
}

/// REJECT payload: code + human-readable message.
pub fn encode_reject_payload(code: RejectCode, message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(6 + message.len());
    out.extend_from_slice(&(code as u16).to_le_bytes());
    out.extend_from_slice(&(message.len() as u32).to_le_bytes());
    out.extend_from_slice(message.as_bytes());
    out
}

/// Decodes a REJECT payload. Unknown codes map to [`RejectCode::Internal`]
/// so a newer server's finer-grained rejects degrade safely.
pub fn decode_reject_payload(payload: &[u8]) -> Option<(RejectCode, String)> {
    if payload.len() < 6 {
        return None;
    }
    let code = u16::from_le_bytes(payload[0..2].try_into().unwrap());
    let len = u32::from_le_bytes(payload[2..6].try_into().unwrap()) as usize;
    if payload.len() != 6 + len {
        return None;
    }
    let message = String::from_utf8_lossy(&payload[6..]).into_owned();
    Some((RejectCode::from_wire(code).unwrap_or(RejectCode::Internal), message))
}

/// Serving telemetry carried in a RESULT frame — the wire projection of
/// [`ServiceReport`] (the engine's per-stage [`cw_engine::ExecutionReport`]
/// stays server-side; stats travel via the JSONL export instead).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireReport {
    /// Worker shard that executed the request (on the *serving process*).
    pub shard: u32,
    /// Coalesced-batch size the request rode in.
    pub batch_size: u32,
    /// Queueing + batching-window wait, seconds.
    pub queue_seconds: f64,
    /// Worker execution time, seconds.
    pub execute_seconds: f64,
    /// In-process submit→response latency, seconds (excludes wire time).
    pub latency_seconds: f64,
    /// Whether the prepared lhs came from the shard's plan cache.
    pub cache_hit: bool,
    /// The executing backend's [`cw_engine::BackendId::index`] (`0`
    /// parallel-cpu, `1` serial-reference; `2` and `3` are retired —
    /// never emitted, decoded as no backend).
    pub backend: u8,
    /// Priority class the request was admitted under.
    pub priority: Priority,
    /// Deadline slack when the response was produced (`None` = no
    /// deadline was set).
    pub deadline_slack_seconds: Option<f64>,
    /// Output shape the request executed under (version 2; encoded as a
    /// tag byte — 0 full, [`SHAPE_TAG_MASKED`], [`SHAPE_TAG_TOPK`] —
    /// plus a `u64` LE `k`, zero unless top-k).
    pub shape: OutputShape,
}

/// Encoded size of a [`WireReport`] (44 bytes in version 1, plus the
/// 9-byte shape field added in version 2).
pub const WIRE_REPORT_BYTES: usize = 53;

impl WireReport {
    /// Projects a [`ServiceReport`] onto the wire schema.
    pub fn from_service(report: &ServiceReport) -> WireReport {
        WireReport {
            shard: report.shard as u32,
            batch_size: report.batch_size as u32,
            queue_seconds: report.queue_seconds,
            execute_seconds: report.execute_seconds,
            latency_seconds: report.latency_seconds,
            cache_hit: report.execution.cache_hit,
            backend: report.execution.plan.backend.index() as u8,
            priority: report.priority,
            deadline_slack_seconds: report.deadline_slack_seconds,
            shape: report.execution.plan.shape,
        }
    }

    /// The executing backend, when the wire byte names one this build
    /// knows (`None` for the retired `2`/`3` and anything else).
    pub fn backend_id(&self) -> Option<cw_engine::BackendId> {
        cw_engine::BackendId::from_index(self.backend as usize)
    }

    /// Appends the fixed-size encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.shard.to_le_bytes());
        out.extend_from_slice(&self.batch_size.to_le_bytes());
        out.extend_from_slice(&self.queue_seconds.to_bits().to_le_bytes());
        out.extend_from_slice(&self.execute_seconds.to_bits().to_le_bytes());
        out.extend_from_slice(&self.latency_seconds.to_bits().to_le_bytes());
        out.push(self.cache_hit as u8);
        out.push(self.backend);
        out.push(priority_to_wire(self.priority));
        out.push(self.deadline_slack_seconds.is_some() as u8);
        out.extend_from_slice(&self.deadline_slack_seconds.unwrap_or(0.0).to_bits().to_le_bytes());
        let (tag, k) = match self.shape {
            OutputShape::Full => (0u8, 0u64),
            OutputShape::Masked => (SHAPE_TAG_MASKED, 0),
            OutputShape::TopK(k) => (SHAPE_TAG_TOPK, k as u64),
        };
        out.push(tag);
        out.extend_from_slice(&k.to_le_bytes());
    }

    /// Decodes the fixed-size prefix; returns the report and bytes used.
    pub fn decode(buf: &[u8]) -> Option<(WireReport, usize)> {
        if buf.len() < WIRE_REPORT_BYTES {
            return None;
        }
        let f64_at =
            |at: usize| f64::from_bits(u64::from_le_bytes(buf[at..at + 8].try_into().unwrap()));
        let has_slack = buf[35] != 0;
        let k = u64::from_le_bytes(buf[45..53].try_into().unwrap()) as usize;
        let shape = match buf[44] {
            SHAPE_TAG_MASKED => OutputShape::Masked,
            SHAPE_TAG_TOPK => OutputShape::TopK(k),
            _ => OutputShape::Full,
        };
        Some((
            WireReport {
                shard: u32::from_le_bytes(buf[0..4].try_into().unwrap()),
                batch_size: u32::from_le_bytes(buf[4..8].try_into().unwrap()),
                queue_seconds: f64_at(8),
                execute_seconds: f64_at(16),
                latency_seconds: f64_at(24),
                cache_hit: buf[32] != 0,
                backend: buf[33],
                priority: priority_from_wire(buf[34]),
                deadline_slack_seconds: has_slack.then(|| f64_at(36)),
                shape,
            },
            WIRE_REPORT_BYTES,
        ))
    }
}

/// RESULT payload: [`WireReport`] followed by the product `CSRB` blob.
pub fn encode_result_payload(report: &WireReport, product: &CsrMatrix) -> Vec<u8> {
    let mut out = Vec::new();
    report.encode_into(&mut out);
    encode_csr_into(&mut out, product);
    out
}

/// Decodes a RESULT payload into the report and the product.
pub fn decode_result_payload(payload: &[u8]) -> Result<(WireReport, CsrMatrix), CsrCodecError> {
    let (report, used) = WireReport::decode(payload)
        .ok_or(CsrCodecError::Truncated { needed: WIRE_REPORT_BYTES, have: payload.len() })?;
    let (product, used2) = decode_csr(&payload[used..])?;
    if used + used2 != payload.len() {
        return Err(CsrCodecError::TrailingBytes(payload.len() - used - used2));
    }
    Ok((report, product))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn submit_frame() -> Frame {
        let a = CsrMatrix::identity(5);
        Frame {
            op: OpCode::Submit,
            priority: Priority::Low,
            flags: FLAG_NO_WAIT,
            request_id: 0xDEAD_BEEF_0042,
            deadline_ms: 1500,
            payload: encode_submit_payload_shaped(&a, &a, &SubmitShape::Full),
        }
    }

    #[test]
    fn frame_round_trip() {
        let f = submit_frame();
        let bytes = f.encode();
        assert_eq!(bytes.len(), FRAME_HEADER_BYTES + f.payload.len());
        let back = read_frame(&mut Cursor::new(&bytes), 1 << 20).unwrap();
        assert_eq!(f, back);
        assert!(back.no_wait());
        let (lhs, rhs, shape) = decode_submit_payload_shaped(&back.payload).unwrap();
        assert_eq!(lhs, CsrMatrix::identity(5));
        assert_eq!(rhs, CsrMatrix::identity(5));
        assert_eq!(shape, SubmitShape::Full);
    }

    #[test]
    fn control_frames_are_header_only() {
        let f = Frame::control(OpCode::Stats, 7);
        assert_eq!(f.encode().len(), FRAME_HEADER_BYTES);
        let back = read_frame(&mut Cursor::new(f.encode()), 0).unwrap();
        assert_eq!(back.op, OpCode::Stats);
        assert_eq!(back.request_id, 7);
        assert_eq!(back.deadline_ms, 0);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = submit_frame().encode();
        bytes[0] = b'X';
        assert!(matches!(
            read_frame(&mut Cursor::new(bytes), 1 << 20),
            Err(FrameError::BadMagic(_))
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = submit_frame().encode();
        bytes[4..6].copy_from_slice(&7u16.to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(bytes), 1 << 20),
            Err(FrameError::UnsupportedVersion(7))
        ));
    }

    #[test]
    fn version_one_frames_are_still_accepted() {
        let mut bytes = submit_frame().encode();
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        let back = read_frame(&mut Cursor::new(bytes), 1 << 20).unwrap();
        assert_eq!(back.op, OpCode::Submit);
        assert_eq!(back.request_id, 0xDEAD_BEEF_0042);
    }

    #[test]
    fn unknown_op_is_rejected() {
        let mut bytes = submit_frame().encode();
        bytes[6] = 200;
        assert!(matches!(
            read_frame(&mut Cursor::new(bytes), 1 << 20),
            Err(FrameError::UnknownOp(200))
        ));
    }

    #[test]
    fn oversized_payload_is_rejected_before_allocation() {
        let bytes = submit_frame().encode();
        let cap = 8;
        match read_frame(&mut Cursor::new(bytes), cap) {
            Err(FrameError::Oversized { len, max }) => {
                assert!(len > cap);
                assert_eq!(max, cap);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn short_read_is_an_io_error() {
        let bytes = submit_frame().encode();
        let cut = bytes.len() - 3;
        assert!(matches!(
            read_frame(&mut Cursor::new(&bytes[..cut]), 1 << 20),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn submit_payload_rejects_trailing_bytes() {
        let a = CsrMatrix::identity(3);
        let mut p = encode_submit_payload_shaped(&a, &a, &SubmitShape::Full);
        p.push(0);
        assert!(matches!(decode_submit_payload_shaped(&p), Err(CsrCodecError::TrailingBytes(1))));
    }

    #[test]
    fn shaped_submit_payload_round_trips_every_shape() {
        let a = CsrMatrix::identity(4);
        let mask = CsrMatrix::identity(4);
        for shape in [SubmitShape::Full, SubmitShape::TopK(3), SubmitShape::Masked(mask)] {
            let p = encode_submit_payload_shaped(&a, &a, &shape);
            let (lhs, rhs, back) = decode_submit_payload_shaped(&p).unwrap();
            assert_eq!(lhs, a);
            assert_eq!(rhs, a);
            assert_eq!(back, shape);
        }
    }

    #[test]
    fn full_shaped_payload_is_byte_identical_to_v1() {
        // Version 1 was the two operand blobs back to back, nothing else.
        let a = CsrMatrix::identity(6);
        let mut v1 = Vec::new();
        encode_csr_into(&mut v1, &a);
        encode_csr_into(&mut v1, &a);
        assert_eq!(encode_submit_payload_shaped(&a, &a, &SubmitShape::Full), v1);
        // And a v1 payload decodes as Full.
        let (_, _, shape) = decode_submit_payload_shaped(&v1).unwrap();
        assert_eq!(shape, SubmitShape::Full);
    }

    #[test]
    fn shaped_submit_payload_rejects_malformed_blocks() {
        let a = CsrMatrix::identity(3);
        // Unknown tag.
        let mut p = encode_submit_payload_shaped(&a, &a, &SubmitShape::Full);
        p.push(99);
        assert!(decode_submit_payload_shaped(&p).is_err());
        // Truncated top-k block.
        let mut p = encode_submit_payload_shaped(&a, &a, &SubmitShape::Full);
        p.push(SHAPE_TAG_TOPK);
        p.extend_from_slice(&[0u8; 4]);
        assert!(decode_submit_payload_shaped(&p).is_err());
        // Trailing garbage after a complete top-k block.
        let mut p = encode_submit_payload_shaped(&a, &a, &SubmitShape::TopK(1));
        p.push(0);
        assert!(decode_submit_payload_shaped(&p).is_err());
        // Trailing garbage after a complete mask block.
        let mut p =
            encode_submit_payload_shaped(&a, &a, &SubmitShape::Masked(CsrMatrix::identity(3)));
        p.push(0);
        assert!(decode_submit_payload_shaped(&p).is_err());
    }

    #[test]
    fn submit_shape_maps_to_request_shape() {
        assert!(matches!(SubmitShape::Full.to_request_shape(), cw_service::RequestShape::Full));
        assert!(matches!(
            SubmitShape::TopK(5).to_request_shape(),
            cw_service::RequestShape::TopK(5)
        ));
        let m = CsrMatrix::identity(2);
        match SubmitShape::Masked(m.clone()).to_request_shape() {
            cw_service::RequestShape::Masked(mask) => assert_eq!(*mask, m),
            other => panic!("expected Masked, got {other:?}"),
        }
    }

    #[test]
    fn reject_payload_round_trip() {
        let p = encode_reject_payload(RejectCode::DeadlineExpired, "too late");
        let (code, msg) = decode_reject_payload(&p).unwrap();
        assert_eq!(code, RejectCode::DeadlineExpired);
        assert_eq!(msg, "too late");
        assert!(decode_reject_payload(&p[..3]).is_none());
        // Unknown codes degrade to Internal instead of failing.
        let mut future = encode_reject_payload(RejectCode::Busy, "x");
        future[0..2].copy_from_slice(&999u16.to_le_bytes());
        assert_eq!(decode_reject_payload(&future).unwrap().0, RejectCode::Internal);
    }

    #[test]
    fn wire_report_round_trip() {
        let r = WireReport {
            shard: 3,
            batch_size: 17,
            queue_seconds: 1.5e-3,
            execute_seconds: 2.25e-4,
            latency_seconds: 1.8e-3,
            cache_hit: true,
            backend: 1,
            priority: Priority::Low,
            deadline_slack_seconds: Some(-0.25),
            shape: OutputShape::TopK(12),
        };
        let mut buf = Vec::new();
        r.encode_into(&mut buf);
        assert_eq!(buf.len(), WIRE_REPORT_BYTES);
        let (back, used) = WireReport::decode(&buf).unwrap();
        assert_eq!(used, WIRE_REPORT_BYTES);
        assert_eq!(r, back);

        let none_slack = WireReport { deadline_slack_seconds: None, ..r };
        let mut buf = Vec::new();
        none_slack.encode_into(&mut buf);
        assert_eq!(WireReport::decode(&buf).unwrap().0.deadline_slack_seconds, None);
    }

    /// An uneventful report served on the backend with wire byte `backend`.
    fn plain_report(backend: u8) -> WireReport {
        WireReport {
            shard: 0,
            batch_size: 1,
            queue_seconds: 0.0,
            execute_seconds: 0.0,
            latency_seconds: 0.0,
            cache_hit: false,
            backend,
            priority: Priority::High,
            deadline_slack_seconds: None,
            shape: OutputShape::Full,
        }
    }

    #[test]
    fn wire_report_backend_byte_is_total() {
        use cw_engine::BackendId;
        // Both live ids round-trip, at their pinned wire values.
        for (id, byte) in [(BackendId::ParallelCpu, 0u8), (BackendId::SerialReference, 1)] {
            assert_eq!(id.index(), byte as usize, "the wire value of {id:?} is pinned");
            let mut buf = Vec::new();
            plain_report(id.index() as u8).encode_into(&mut buf);
            assert_eq!(buf.len(), WIRE_REPORT_BYTES);
            assert_eq!(buf[33], byte);
            assert_eq!(WireReport::decode(&buf).unwrap().0.backend_id(), Some(id));
        }
        // Retired (2, 3) and unknown bytes decode without error to "no
        // backend" — never silently to parallel-cpu.
        let mut buf = Vec::new();
        plain_report(0).encode_into(&mut buf);
        for byte in [2u8, 3, 255] {
            buf[33] = byte;
            let (decoded, used) = WireReport::decode(&buf).expect("the report still decodes");
            assert_eq!(used, WIRE_REPORT_BYTES);
            assert_eq!(decoded.backend, byte);
            assert_eq!(decoded.backend_id(), None);
        }
    }

    #[test]
    fn result_payload_round_trip() {
        let product = CsrMatrix::identity(9);
        let report = plain_report(0);
        let p = encode_result_payload(&report, &product);
        let (r2, p2) = decode_result_payload(&p).unwrap();
        assert_eq!(report, r2);
        assert_eq!(product, p2);
        assert_eq!(r2.backend_id(), Some(cw_engine::BackendId::ParallelCpu));
    }
}
