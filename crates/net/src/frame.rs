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
//! | 4   | 2    | version     | schema version, currently 3 |
//! | 6   | 1    | op          | [`OpCode`] |
//! | 7   | 1    | priority    | 0 = high, 1 = low |
//! | 8   | 2    | flags       | bit 0 = [`FLAG_NO_WAIT`], bit 1 = [`FLAG_RHS_IS_LHS`] |
//! | 10  | 2    | reserved    | must be 0 |
//! | 12  | 8    | request_id  | client-chosen; echoed in every reply |
//! | 20  | 4    | deadline_ms | relative deadline, 0 = none |
//! | 24  | 4    | payload_len | payload bytes following the header |
//!
//! Version 2 adds the optional output-shape block to SUBMIT payloads
//! ([`SubmitShape`]) and the shape fields to [`WireReport`]. A version-1
//! SUBMIT (no shape block) still decodes — it means the full product —
//! so v1 clients keep working against a v2 server. Version 3 adds
//! [`FLAG_RHS_IS_LHS`]: a SUBMIT whose rhs is its lhs (`C = A·A`) carries
//! the operand once. With the bit clear a v3 SUBMIT payload is byte-identical
//! to v2, and a v3 server still serves v1 and v2 frames. The normative
//! byte-level specification lives in `docs/PROTOCOL.md` at the workspace
//! root; this module is its implementation.
//!
//! Two ways through the same bytes. The header is a value of its own
//! ([`FrameHeader`]): it is read and validated without touching the
//! payload, and it is written before the payload exists, because a SUBMIT's
//! or RESULT's length follows from its matrices' dimensions
//! ([`submit_payload_len`], [`result_payload_len`]). The two payloads that
//! carry matrices are *streamed* — [`write_submit`] / [`write_result`] write
//! from the matrices' arrays, [`read_submit_payload`] /
//! [`read_result_payload`] read into them, 64 KiB at a time through
//! [`cw_sparse::io::write_csr`] / [`cw_sparse::io::read_csr`] — so the socket
//! and the `CsrMatrix` are the only two places those bytes ever live; this
//! is what [`crate::NetClient`] and [`crate::NetServer`] run. [`Frame`]
//! (header + `Vec<u8>` payload), [`Frame::encode`] and [`read_frame`] carry
//! the small control frames (REJECT, STATS, POLL, …) and serve as test
//! tooling; the `encode_*_payload` / `decode_*_payload` functions are the
//! streamed codec pointed at a `Vec` / a slice, byte- and error-identical.

use cw_engine::OutputShape;
use cw_service::{Priority, ServiceReport};
use cw_sparse::io::{encoded_csr_len, read_csr, write_csr, CsrCodecError, CsrReadError};
use cw_sparse::CsrMatrix;
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Magic bytes opening every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"CWNP";

/// Wire schema version emitted by this build; peers reject anything newer.
/// Version 2 added output shapes (the SUBMIT shape block and the
/// [`WireReport`] shape fields); version 3 added [`FLAG_RHS_IS_LHS`].
/// Version-1 and version-2 frames are still accepted.
pub const FRAME_VERSION: u16 = 3;

/// Fixed header size in bytes.
pub const FRAME_HEADER_BYTES: usize = 28;

/// Frame flag: the SUBMIT does not want a synchronous reply body — the
/// server answers [`OpCode::Accepted`] immediately and the client fetches
/// the outcome later with [`OpCode::Poll`] on the same connection.
pub const FLAG_NO_WAIT: u16 = 1;

/// SUBMIT flag (version 3): the rhs operand is the lhs, so the payload
/// carries one operand blob — `CSRB(lhs)` then the shape block — and the
/// server multiplies that one matrix by itself.
pub const FLAG_RHS_IS_LHS: u16 = 2;

/// Every flag bit a SUBMIT may carry; a SUBMIT with any other bit set is
/// refused as malformed, since an unknown bit may change what its payload
/// means.
pub const SUBMIT_FLAGS: u16 = FLAG_NO_WAIT | FLAG_RHS_IS_LHS;

/// Frame operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// Client → server: execute `C = shape(lhs · rhs)`. Payload: lhs
    /// `CSRB` blob, rhs `CSRB` blob (omitted under [`FLAG_RHS_IS_LHS`]),
    /// then an optional [`SubmitShape`] block (absent = full product, the
    /// version-1 payload).
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

/// The fixed 28-byte frame header as a value: everything a peer needs to
/// decide what to do with a frame — refuse it, buffer it, or stream its
/// payload — before a payload byte is read or written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Operation.
    pub op: OpCode,
    /// QoS priority class (meaningful on SUBMIT; echoed elsewhere).
    pub priority: Priority,
    /// Header flags ([`FLAG_NO_WAIT`], [`FLAG_RHS_IS_LHS`]).
    pub flags: u16,
    /// Client-chosen request id, echoed verbatim in replies.
    pub request_id: u64,
    /// Relative deadline in milliseconds from server receipt; 0 = none.
    pub deadline_ms: u32,
    /// Payload bytes following the header.
    pub payload_len: u32,
}

impl FrameHeader {
    /// A header with no QoS envelope announcing an empty payload.
    pub fn control(op: OpCode, request_id: u64) -> FrameHeader {
        FrameHeader {
            op,
            priority: Priority::High,
            flags: 0,
            request_id,
            deadline_ms: 0,
            payload_len: 0,
        }
    }

    /// Whether [`FLAG_NO_WAIT`] is set.
    pub fn no_wait(&self) -> bool {
        self.flags & FLAG_NO_WAIT != 0
    }

    /// Whether [`FLAG_RHS_IS_LHS`] is set.
    pub fn rhs_is_lhs(&self) -> bool {
        self.flags & FLAG_RHS_IS_LHS != 0
    }

    /// The 28 wire bytes (always stamped [`FRAME_VERSION`]).
    pub fn encode(&self) -> [u8; FRAME_HEADER_BYTES] {
        let mut out = [0u8; FRAME_HEADER_BYTES];
        out[0..4].copy_from_slice(&FRAME_MAGIC);
        out[4..6].copy_from_slice(&FRAME_VERSION.to_le_bytes());
        out[6] = self.op as u8;
        out[7] = priority_to_wire(self.priority);
        out[8..10].copy_from_slice(&self.flags.to_le_bytes());
        out[12..20].copy_from_slice(&self.request_id.to_le_bytes());
        out[20..24].copy_from_slice(&self.deadline_ms.to_le_bytes());
        out[24..28].copy_from_slice(&self.payload_len.to_le_bytes());
        out
    }

    /// Reads and validates one header — magic, version, op, `payload_len ≤
    /// max_payload` — blocking until its 28 bytes arrive (or the reader's
    /// timeout fires, surfacing as [`FrameError::Io`]). The payload is left
    /// unread in `r`.
    pub fn read<R: Read>(r: &mut R, max_payload: usize) -> Result<FrameHeader, FrameError> {
        let mut first = [0u8; 1];
        r.read_exact(&mut first)?;
        FrameHeader::read_after_first_byte(first[0], r, max_payload)
    }

    /// Completes a header whose first byte was already consumed — the
    /// server's handler polls a single byte under a short timeout (so
    /// shutdown and idle checks stay responsive without ever losing frame
    /// alignment), then hands it here to read the rest under the full read
    /// timeout.
    pub fn read_after_first_byte<R: Read>(
        first: u8,
        r: &mut R,
        max_payload: usize,
    ) -> Result<FrameHeader, FrameError> {
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
        let payload_len = u32::from_le_bytes(header[24..28].try_into().unwrap());
        if payload_len as usize > max_payload {
            return Err(FrameError::Oversized { len: payload_len as usize, max: max_payload });
        }
        Ok(FrameHeader {
            op,
            priority: priority_from_wire(header[7]),
            flags: u16::from_le_bytes(header[8..10].try_into().unwrap()),
            request_id: u64::from_le_bytes(header[12..20].try_into().unwrap()),
            deadline_ms: u32::from_le_bytes(header[20..24].try_into().unwrap()),
            payload_len,
        })
    }

    /// Reads this header's payload into a buffer, completing a [`Frame`] —
    /// for the control frames, whose payloads are small or empty.
    pub fn read_payload<R: Read>(self, r: &mut R) -> io::Result<Frame> {
        let mut payload = vec![0u8; self.payload_len as usize];
        r.read_exact(&mut payload)?;
        Ok(Frame {
            op: self.op,
            priority: self.priority,
            flags: self.flags,
            request_id: self.request_id,
            deadline_ms: self.deadline_ms,
            payload,
        })
    }
}

/// One decoded frame with its payload buffered: the form of the control
/// frames, and test tooling for the streamed ones.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Operation.
    pub op: OpCode,
    /// QoS priority class (meaningful on SUBMIT; echoed elsewhere).
    pub priority: Priority,
    /// Header flags ([`FLAG_NO_WAIT`], [`FLAG_RHS_IS_LHS`]).
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
        let header = FrameHeader {
            op: self.op,
            priority: self.priority,
            flags: self.flags,
            request_id: self.request_id,
            deadline_ms: self.deadline_ms,
            payload_len: self.payload.len() as u32,
        };
        let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + self.payload.len());
        out.extend_from_slice(&header.encode());
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

/// Reads one frame into a buffer, blocking until the full header + payload
/// arrive (or the reader's timeout fires, surfacing as [`FrameError::Io`]).
pub fn read_frame<R: Read>(r: &mut R, max_payload: usize) -> Result<Frame, FrameError> {
    Ok(FrameHeader::read(r, max_payload)?.read_payload(r)?)
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
    /// The service-level request shape this decodes to; a mask moves into
    /// the request's `Arc`.
    pub fn into_request_shape(self) -> cw_service::RequestShape {
        match self {
            SubmitShape::Full => cw_service::RequestShape::Full,
            SubmitShape::Masked(m) => cw_service::RequestShape::Masked(Arc::new(m)),
            SubmitShape::TopK(k) => cw_service::RequestShape::TopK(k as usize),
        }
    }

    pub(crate) fn block(&self) -> ShapeBlock<'_> {
        match self {
            SubmitShape::Full => ShapeBlock::Full,
            SubmitShape::Masked(m) => ShapeBlock::Masked(m),
            SubmitShape::TopK(k) => ShapeBlock::TopK(*k),
        }
    }
}

/// A [`SubmitShape`] with its mask borrowed: what the encoder needs, so a
/// caller holding `&CsrMatrix` need not clone it into a `SubmitShape`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ShapeBlock<'a> {
    Full,
    Masked(&'a CsrMatrix),
    TopK(u64),
}

impl ShapeBlock<'_> {
    fn payload_len(&self, lhs: &CsrMatrix, rhs: Option<&CsrMatrix>) -> usize {
        let block = match self {
            ShapeBlock::Full => 0,
            ShapeBlock::Masked(mask) => 1 + encoded_csr_len(mask),
            ShapeBlock::TopK(_) => 9,
        };
        encoded_csr_len(lhs) + rhs.map_or(0, encoded_csr_len) + block
    }
}

/// Exact byte length of the flag-clear SUBMIT payload for these operands
/// and shape — known from their dimensions alone, so the header can be
/// written first. Under [`FLAG_RHS_IS_LHS`] the payload is
/// `encoded_csr_len(rhs)` shorter.
pub fn submit_payload_len(lhs: &CsrMatrix, rhs: &CsrMatrix, shape: &SubmitShape) -> usize {
    shape.block().payload_len(lhs, Some(rhs))
}

/// Exact byte length of the RESULT payload carrying `product`.
pub fn result_payload_len(product: &CsrMatrix) -> usize {
    WIRE_REPORT_BYTES + encoded_csr_len(product)
}

/// `head` announcing `payload_len` payload bytes; the frame format's length
/// field is 32 bits.
fn announcing(head: &FrameHeader, payload_len: usize) -> io::Result<FrameHeader> {
    let payload_len = u32::try_from(payload_len).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("payload of {payload_len} bytes exceeds the frame format's 32-bit length"),
        )
    })?;
    Ok(FrameHeader { payload_len, ..*head })
}

/// The rhs blob a SUBMIT under `head` carries: none under
/// [`FLAG_RHS_IS_LHS`], whose claim must hold — `rhs` is `lhs` itself, not
/// merely equal to it.
fn rhs_blob<'m>(
    head: &FrameHeader,
    lhs: &CsrMatrix,
    rhs: &'m CsrMatrix,
) -> io::Result<Option<&'m CsrMatrix>> {
    match (head.rhs_is_lhs(), std::ptr::eq(lhs, rhs)) {
        (false, _) => Ok(Some(rhs)),
        (true, true) => Ok(None),
        (true, false) => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "FLAG_RHS_IS_LHS set on a SUBMIT whose rhs is not its lhs",
        )),
    }
}

fn write_submit_payload<W: Write>(
    w: &mut W,
    lhs: &CsrMatrix,
    rhs: Option<&CsrMatrix>,
    shape: ShapeBlock<'_>,
) -> io::Result<()> {
    write_csr(w, lhs)?;
    if let Some(rhs) = rhs {
        write_csr(w, rhs)?;
    }
    match shape {
        ShapeBlock::Full => Ok(()),
        ShapeBlock::Masked(mask) => {
            w.write_all(&[SHAPE_TAG_MASKED])?;
            write_csr(w, mask)
        }
        ShapeBlock::TopK(k) => {
            let mut block = [SHAPE_TAG_TOPK; 9];
            block[1..].copy_from_slice(&k.to_le_bytes());
            w.write_all(&block)
        }
    }
}

pub(crate) fn write_submit_block<W: Write>(
    w: &mut W,
    head: &FrameHeader,
    lhs: &CsrMatrix,
    rhs: &CsrMatrix,
    shape: ShapeBlock<'_>,
) -> io::Result<()> {
    let rhs = rhs_blob(head, lhs, rhs)?;
    w.write_all(&announcing(head, shape.payload_len(lhs, rhs))?.encode())?;
    write_submit_payload(w, lhs, rhs, shape)?;
    w.flush()
}

/// Writes one whole SUBMIT frame to `w` straight from the operands' arrays
/// and flushes: `head` with its `payload_len` set, then the payload — the
/// operands as back-to-back `CSRB` blobs, then the output-shape block
/// ([`SubmitShape::Full`] encodes nothing, keeping full-product payloads
/// byte-identical to version 1). The payload is what `head.flags` says:
/// with [`FLAG_RHS_IS_LHS`] clear, both blobs — the bytes of a [`Frame`]
/// carrying [`encode_submit_payload_shaped`]'s payload, [`submit_payload_len`]
/// long; with it set, the rhs blob is left out, and `rhs` must be `lhs`
/// (the same reference) or nothing is written and the error is
/// [`io::ErrorKind::InvalidInput`]. No call hands `w` more than 64 KiB.
pub fn write_submit<W: Write>(
    w: &mut W,
    head: &FrameHeader,
    lhs: &CsrMatrix,
    rhs: &CsrMatrix,
    shape: &SubmitShape,
) -> io::Result<()> {
    write_submit_block(w, head, lhs, rhs, shape.block())
}

/// The flag-clear SUBMIT payload [`write_submit`] streams, built in a
/// buffer: both operand blobs, then the shape block.
pub fn encode_submit_payload_shaped(
    lhs: &CsrMatrix,
    rhs: &CsrMatrix,
    shape: &SubmitShape,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(submit_payload_len(lhs, rhs, shape));
    write_submit_payload(&mut out, lhs, Some(rhs), shape.block())
        .expect("writing to a Vec cannot fail");
    out
}

/// What is left of a frame's payload.
fn left<R: Read>(body: &io::Take<R>) -> usize {
    body.limit() as usize
}

/// Keeps the stream frame-aligned: a payload that failed to *decode* is
/// consumed to its declared end, so the next frame starts where the peer
/// meant it to. (A payload that failed to *arrive* leaves nothing to align.)
fn drained<T, R: Read>(
    decoded: Result<T, CsrReadError>,
    body: &mut io::Take<R>,
) -> Result<T, CsrReadError> {
    if let Err(CsrReadError::Codec(_)) = decoded {
        io::copy(body, &mut io::sink())?;
        if left(body) != 0 {
            return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
        }
    }
    decoded
}

/// A stream decoder's result when the stream was a slice of exactly the
/// declared length, which cannot run dry.
fn from_slice<T>(decoded: Result<T, CsrReadError>) -> Result<T, CsrCodecError> {
    match decoded {
        Ok(v) => Ok(v),
        Err(CsrReadError::Codec(e)) => Err(e),
        Err(CsrReadError::Io(e)) => unreachable!("payload decoders stay inside their length: {e}"),
    }
}

/// Reads the payload of the SUBMIT whose header is `head` from `r` straight
/// into the operands' arrays: `(lhs, rhs, shape)`. Under
/// [`FLAG_RHS_IS_LHS`] one blob is decoded and `rhs` is the same `Arc` as
/// `lhs`. Each blob is handed what is left of the frame as its limit, so no
/// allocation is sized beyond the (already capped) frame. An absent shape
/// block (the version-1 payload) decodes as [`SubmitShape::Full`]; an
/// unknown tag byte, bytes trailing a complete block, or a flag bit outside
/// [`SUBMIT_FLAGS`] are framing errors — an unknown bit may change what the
/// payload means, so the whole payload is drained unparsed and refused as
/// [`CsrCodecError::TrailingBytes`] of its length.
///
/// On [`CsrReadError::Codec`] the rest of the payload has been read and
/// discarded — `r` stands at the next frame and the connection can go on;
/// on [`CsrReadError::Io`] the stream is lost.
pub fn read_submit_payload<R: Read>(
    r: &mut R,
    head: &FrameHeader,
) -> Result<(Arc<CsrMatrix>, Arc<CsrMatrix>, SubmitShape), CsrReadError> {
    let mut body = r.take(head.payload_len as u64);
    let decoded = if head.flags & !SUBMIT_FLAGS == 0 {
        submit_from(&mut body, head.rhs_is_lhs())
    } else {
        Err(CsrCodecError::TrailingBytes(head.payload_len as usize).into())
    };
    let (lhs, rhs, shape) = drained(decoded, &mut body)?;
    let lhs = Arc::new(lhs);
    let rhs = rhs.map_or_else(|| Arc::clone(&lhs), Arc::new);
    Ok((lhs, rhs, shape))
}

/// The payload's operands and shape; `None` for the rhs when it did not
/// travel because it is the lhs.
fn submit_from<R: Read>(
    body: &mut io::Take<R>,
    rhs_is_lhs: bool,
) -> Result<(CsrMatrix, Option<CsrMatrix>, SubmitShape), CsrReadError> {
    let (lhs, _) = read_csr(body, left(body))?;
    let rhs = if rhs_is_lhs { None } else { Some(read_csr(body, left(body))?.0) };
    let rest = left(body);
    if rest == 0 {
        return Ok((lhs, rhs, SubmitShape::Full));
    }
    let mut tag = [0u8; 1];
    body.read_exact(&mut tag)?;
    let shape = match tag[0] {
        SHAPE_TAG_MASKED => {
            let (mask, _) = read_csr(body, left(body))?;
            if left(body) != 0 {
                return Err(CsrCodecError::TrailingBytes(left(body)).into());
            }
            SubmitShape::Masked(mask)
        }
        SHAPE_TAG_TOPK => {
            if rest != 9 {
                return Err(if rest < 9 {
                    CsrCodecError::Truncated { needed: 9, have: rest }.into()
                } else {
                    CsrCodecError::TrailingBytes(rest - 9).into()
                });
            }
            let mut k = [0u8; 8];
            body.read_exact(&mut k)?;
            SubmitShape::TopK(u64::from_le_bytes(k))
        }
        // An unrecognized tag is indistinguishable from garbage: surface
        // it as trailing bytes so the server rejects it as Malformed.
        _ => return Err(CsrCodecError::TrailingBytes(rest).into()),
    };
    Ok((lhs, rhs, shape))
}

/// Decodes a buffered flag-clear SUBMIT payload (both operand blobs, then
/// the shape block) — [`read_submit_payload`]'s decoder over a slice.
pub fn decode_submit_payload_shaped(
    payload: &[u8],
) -> Result<(CsrMatrix, CsrMatrix, SubmitShape), CsrCodecError> {
    let (lhs, rhs, shape) =
        from_slice(submit_from(&mut payload.take(payload.len() as u64), false))?;
    Ok((lhs, rhs.expect("a flag-clear payload carries its rhs"), shape))
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
    /// Always 1 ([`cw_service::ServiceReport::batch_size`]): a fixed field
    /// of the v1–v3 report layout.
    pub batch_size: u32,
    /// Seconds from submission until a worker started executing it
    /// ([`cw_service::ServiceReport::queue_seconds`]).
    pub queue_seconds: f64,
    /// Worker execution time, seconds.
    pub execute_seconds: f64,
    /// In-process submit→response latency, seconds (excludes wire time).
    pub latency_seconds: f64,
    /// Whether the prepared lhs came from the shard's plan cache.
    pub cache_hit: bool,
    /// Whether the kernel ran on the pool (the executed plan's
    /// `parallel`). Byte 33: `0` when parallel, `1` when serial; a decoder
    /// reads any non-zero byte as serial.
    pub parallel: bool,
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
            parallel: report.execution.plan.parallel,
            priority: report.priority,
            deadline_slack_seconds: report.deadline_slack_seconds,
            shape: report.execution.plan.shape,
        }
    }

    /// Appends the fixed-size encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.shard.to_le_bytes());
        out.extend_from_slice(&self.batch_size.to_le_bytes());
        out.extend_from_slice(&self.queue_seconds.to_bits().to_le_bytes());
        out.extend_from_slice(&self.execute_seconds.to_bits().to_le_bytes());
        out.extend_from_slice(&self.latency_seconds.to_bits().to_le_bytes());
        out.push(self.cache_hit as u8);
        out.push(!self.parallel as u8);
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
                parallel: buf[33] == 0,
                priority: priority_from_wire(buf[34]),
                deadline_slack_seconds: has_slack.then(|| f64_at(36)),
                shape,
            },
            WIRE_REPORT_BYTES,
        ))
    }
}

fn write_result_payload<W: Write>(
    w: &mut W,
    report: &WireReport,
    product: &CsrMatrix,
) -> io::Result<()> {
    let mut fixed = Vec::with_capacity(WIRE_REPORT_BYTES);
    report.encode_into(&mut fixed);
    w.write_all(&fixed)?;
    write_csr(w, product)
}

/// Writes one whole RESULT frame to `w` straight from the product's arrays
/// and flushes: `head` with its `payload_len` set to
/// [`result_payload_len`], then the [`WireReport`] and the product `CSRB`
/// blob. The bytes are those of a [`Frame`] carrying
/// [`encode_result_payload`]'s payload; no call hands `w` more than 64 KiB.
pub fn write_result<W: Write>(
    w: &mut W,
    head: &FrameHeader,
    report: &WireReport,
    product: &CsrMatrix,
) -> io::Result<()> {
    w.write_all(&announcing(head, result_payload_len(product))?.encode())?;
    write_result_payload(w, report, product)?;
    w.flush()
}

/// The RESULT payload [`write_result`] streams, built in a buffer.
pub fn encode_result_payload(report: &WireReport, product: &CsrMatrix) -> Vec<u8> {
    let mut out = Vec::with_capacity(result_payload_len(product));
    write_result_payload(&mut out, report, product).expect("writing to a Vec cannot fail");
    out
}

/// Reads a RESULT payload of `payload_len` bytes from `r` straight into
/// the product's arrays; errors leave `r` as [`read_submit_payload`]'s do.
pub fn read_result_payload<R: Read>(
    r: &mut R,
    payload_len: usize,
) -> Result<(WireReport, CsrMatrix), CsrReadError> {
    let mut body = r.take(payload_len as u64);
    let decoded = result_from(&mut body);
    drained(decoded, &mut body)
}

fn result_from<R: Read>(body: &mut io::Take<R>) -> Result<(WireReport, CsrMatrix), CsrReadError> {
    if left(body) < WIRE_REPORT_BYTES {
        let e = CsrCodecError::Truncated { needed: WIRE_REPORT_BYTES, have: left(body) };
        return Err(e.into());
    }
    let mut fixed = [0u8; WIRE_REPORT_BYTES];
    body.read_exact(&mut fixed)?;
    let (report, _) = WireReport::decode(&fixed).expect("a whole report was read");
    let (product, _) = read_csr(body, left(body))?;
    if left(body) != 0 {
        return Err(CsrCodecError::TrailingBytes(left(body)).into());
    }
    Ok((report, product))
}

/// [`read_result_payload`] over a buffered payload.
pub fn decode_result_payload(payload: &[u8]) -> Result<(WireReport, CsrMatrix), CsrCodecError> {
    from_slice(read_result_payload(&mut &payload[..], payload.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cw_sparse::io::encode_csr_into;
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
        assert!(matches!(SubmitShape::Full.into_request_shape(), cw_service::RequestShape::Full));
        assert!(matches!(
            SubmitShape::TopK(5).into_request_shape(),
            cw_service::RequestShape::TopK(5)
        ));
        let m = CsrMatrix::identity(2);
        match SubmitShape::Masked(m.clone()).into_request_shape() {
            cw_service::RequestShape::Masked(mask) => assert_eq!(*mask, m),
            other => panic!("expected Masked, got {other:?}"),
        }
    }

    /// The envelope `submit_frame` uses, as a header.
    fn submit_head() -> FrameHeader {
        FrameHeader {
            priority: Priority::Low,
            flags: FLAG_NO_WAIT,
            deadline_ms: 1500,
            ..FrameHeader::control(OpCode::Submit, 0xDEAD_BEEF_0042)
        }
    }

    fn sample_operands() -> (CsrMatrix, CsrMatrix, CsrMatrix) {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let lhs =
            CsrMatrix::from_row_lists(3, vec![vec![(0, nan), (2, -0.0)], vec![], vec![(1, 7.5)]]);
        (lhs, CsrMatrix::identity(3), CsrMatrix::identity(3))
    }

    #[test]
    fn streamed_submit_is_the_buffered_frame_in_both_directions() {
        let (lhs, rhs, mask) = sample_operands();
        for shape in [SubmitShape::Full, SubmitShape::TopK(3), SubmitShape::Masked(mask)] {
            let payload = encode_submit_payload_shaped(&lhs, &rhs, &shape);
            assert_eq!(payload.len(), submit_payload_len(&lhs, &rhs, &shape));
            let buffered = Frame {
                op: OpCode::Submit,
                priority: Priority::Low,
                flags: FLAG_NO_WAIT,
                request_id: 0xDEAD_BEEF_0042,
                deadline_ms: 1500,
                payload,
            };
            let mut streamed = Vec::new();
            write_submit(&mut streamed, &submit_head(), &lhs, &rhs, &shape).unwrap();
            assert_eq!(streamed, buffered.encode(), "{shape:?}: streamed bytes differ");

            // Streamed bytes through the buffered reader and decoder ...
            let frame = read_frame(&mut Cursor::new(&streamed), 1 << 20).unwrap();
            assert_eq!(frame, buffered);
            let (l, r, back) = decode_submit_payload_shaped(&frame.payload).unwrap();
            assert!(l.bits_eq(&lhs) && r.bits_eq(&rhs));
            assert_eq!(back, shape);

            // ... and buffered bytes through the header and stream decoder,
            // which stops exactly at the frame's end.
            let mut wire = Cursor::new(buffered.encode());
            let head = FrameHeader::read(&mut wire, 1 << 20).unwrap();
            assert_eq!(
                head,
                FrameHeader { payload_len: buffered.payload.len() as u32, ..submit_head() }
            );
            assert_eq!(
                wire.position() as usize,
                FRAME_HEADER_BYTES,
                "the header read touched the payload"
            );
            let (l, r, back) = read_submit_payload(&mut wire, &head).unwrap();
            assert!(l.bits_eq(&lhs) && r.bits_eq(&rhs));
            assert_eq!(back, shape);
            assert_eq!(wire.position() as usize, streamed.len());
        }
    }

    #[test]
    fn a_flagged_submit_is_the_flag_clear_payload_without_its_rhs_blob() {
        let (lhs, _, mask) = sample_operands();
        let head = FrameHeader { flags: FLAG_NO_WAIT | FLAG_RHS_IS_LHS, ..submit_head() };
        for shape in [SubmitShape::Full, SubmitShape::TopK(3), SubmitShape::Masked(mask)] {
            let mut flagged = Vec::new();
            write_submit(&mut flagged, &head, &lhs, &lhs, &shape).unwrap();
            // The flag-clear frame minus the rhs blob, nothing else.
            let mut clear = Vec::new();
            write_submit(&mut clear, &submit_head(), &lhs, &lhs, &shape).unwrap();
            assert_eq!(flagged.len(), clear.len() - encoded_csr_len(&lhs), "{shape:?}");
            let blob = FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + encoded_csr_len(&lhs);
            assert_eq!(flagged[blob.clone()], clear[blob.clone()], "{shape:?}");
            assert_eq!(flagged[blob.end..], clear[blob.end + encoded_csr_len(&lhs)..]);
        }
    }

    #[test]
    fn a_flag_claiming_rhs_is_lhs_for_two_matrices_writes_nothing() {
        let (lhs, _, _) = sample_operands();
        let copy = lhs.clone();
        let head = FrameHeader { flags: FLAG_RHS_IS_LHS, ..submit_head() };
        let mut out = Vec::new();
        let err = write_submit(&mut out, &head, &lhs, &copy, &SubmitShape::Full).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty(), "{} bytes written before the refusal", out.len());
    }

    #[test]
    fn unknown_flag_bits_and_a_stray_rhs_blob_are_refused_and_drained() {
        let a = CsrMatrix::identity(5);
        let good = submit_frame().encode();
        let flagged = |flags: u16| {
            let mut bytes = good.clone();
            bytes[8..10].copy_from_slice(&flags.to_le_bytes());
            bytes
        };
        // Bit 2 is not a SUBMIT flag, and a flagged payload that still
        // carries its rhs blob has that many bytes past the lhs.
        let rhs_len = encoded_csr_len(&a);
        let payload_len = good.len() - FRAME_HEADER_BYTES;
        for (flags, want) in [
            (4, CsrCodecError::TrailingBytes(payload_len)),
            (FLAG_NO_WAIT | 0x8000, CsrCodecError::TrailingBytes(payload_len)),
            (FLAG_RHS_IS_LHS, CsrCodecError::TrailingBytes(rhs_len)),
        ] {
            let mut wire = Cursor::new([&flagged(flags)[..], &good[..]].concat());
            let head = FrameHeader::read(&mut wire, 1 << 20).unwrap();
            match read_submit_payload(&mut wire, &head) {
                Err(CsrReadError::Codec(e)) => assert_eq!(e, want, "flags {flags:#x}"),
                other => panic!("flags {flags:#x}: expected a codec error, got {other:?}"),
            }
            let head = FrameHeader::read(&mut wire, 1 << 20).expect("the next frame starts here");
            let (lhs, rhs, _) = read_submit_payload(&mut wire, &head).unwrap();
            assert_eq!((&*lhs, &*rhs), (&a, &a));
        }
    }

    #[test]
    fn streamed_result_is_the_buffered_frame_in_both_directions() {
        let (product, _, _) = sample_operands();
        let report = WireReport { shape: OutputShape::TopK(2), ..plain_report(false) };
        let payload = encode_result_payload(&report, &product);
        assert_eq!(payload.len(), result_payload_len(&product));
        let buffered =
            Frame { priority: Priority::Low, payload, ..Frame::control(OpCode::Result, 9) };
        let head =
            FrameHeader { priority: Priority::Low, ..FrameHeader::control(OpCode::Result, 9) };
        let mut streamed = Vec::new();
        write_result(&mut streamed, &head, &report, &product).unwrap();
        assert_eq!(streamed, buffered.encode());

        let frame = read_frame(&mut Cursor::new(&streamed), 1 << 20).unwrap();
        let (r, p) = decode_result_payload(&frame.payload).unwrap();
        assert!(r == report && p.bits_eq(&product));

        let mut wire = Cursor::new(buffered.encode());
        let head = FrameHeader::read(&mut wire, 1 << 20).unwrap();
        let (r, p) = read_result_payload(&mut wire, head.payload_len as usize).unwrap();
        assert!(r == report && p.bits_eq(&product));
        assert_eq!(wire.position() as usize, streamed.len());
    }

    #[test]
    fn a_payload_that_does_not_decode_is_drained_to_the_next_frame() {
        let a = CsrMatrix::identity(5); // submit_frame's operand
        let good = submit_frame().encode();
        // Same length, but the rhs blob's magic is gone: the decoder gives
        // up a third of the way in and must still leave the stream aligned.
        let mut bad = good.clone();
        bad[FRAME_HEADER_BYTES + encoded_csr_len(&a)] = b'X';
        let mut wire = Cursor::new([&bad[..], &good[..]].concat());
        let head = FrameHeader::read(&mut wire, 1 << 20).unwrap();
        match read_submit_payload(&mut wire, &head) {
            Err(CsrReadError::Codec(e)) => assert_eq!(e, CsrCodecError::BadMagic),
            other => panic!("expected a codec error, got {other:?}"),
        }
        let head = FrameHeader::read(&mut wire, 1 << 20).expect("the next frame starts here");
        let (lhs, rhs, shape) = read_submit_payload(&mut wire, &head).unwrap();
        assert_eq!((&*lhs, &*rhs, shape), (&a, &a, SubmitShape::Full));

        // A payload that stops arriving is the transport's failure, not the
        // codec's — whether or not what did arrive decodes: the stream
        // cannot be aligned and the connection is lost.
        for cut in [good, bad] {
            let mut wire = Cursor::new(&cut[..cut.len() - 3]);
            let head = FrameHeader::read(&mut wire, 1 << 20).unwrap();
            assert!(matches!(read_submit_payload(&mut wire, &head), Err(CsrReadError::Io(_))));
        }
    }

    #[test]
    fn a_blob_cannot_claim_more_than_its_frame_holds() {
        // The lhs header declares 2^40 entries inside a 100-byte payload:
        // refused against what is left of the frame, before any allocation.
        let mut payload = encode_submit_payload_shaped(
            &CsrMatrix::zeros(1, 1),
            &CsrMatrix::zeros(1, 1),
            &SubmitShape::Full,
        );
        payload[24..32].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let have = payload.len();
        let head =
            FrameHeader { payload_len: have as u32, ..FrameHeader::control(OpCode::Submit, 1) };
        let streamed = read_submit_payload(&mut Cursor::new(&payload), &head);
        match (decode_submit_payload_shaped(&payload), streamed) {
            (Err(slice), Err(CsrReadError::Codec(stream))) => {
                assert_eq!(slice, stream);
                assert!(matches!(slice, CsrCodecError::Truncated { have: h, .. } if h == have));
            }
            other => panic!("expected the same Truncated from both, got {other:?}"),
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
            parallel: false,
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

    /// An uneventful report whose kernel ran on the pool or not.
    fn plain_report(parallel: bool) -> WireReport {
        WireReport {
            shard: 0,
            batch_size: 1,
            queue_seconds: 0.0,
            execute_seconds: 0.0,
            latency_seconds: 0.0,
            cache_hit: false,
            parallel,
            priority: Priority::High,
            deadline_slack_seconds: None,
            shape: OutputShape::Full,
        }
    }

    #[test]
    fn wire_report_backend_byte_is_total() {
        // Both values round-trip, at their pinned wire bytes: `0` parallel
        // (what older peers call parallel-cpu), `1` serial.
        for (parallel, byte) in [(true, 0u8), (false, 1)] {
            let mut buf = Vec::new();
            plain_report(parallel).encode_into(&mut buf);
            assert_eq!(buf.len(), WIRE_REPORT_BYTES);
            assert_eq!(buf[33], byte);
            assert_eq!(WireReport::decode(&buf).unwrap().0.parallel, parallel);
        }
        // Every non-zero byte — the retired 2 and 3 included — decodes
        // without error as "not parallel", never silently as parallel.
        let mut buf = Vec::new();
        plain_report(true).encode_into(&mut buf);
        for byte in [1u8, 2, 3, 255] {
            buf[33] = byte;
            let (decoded, used) = WireReport::decode(&buf).expect("the report still decodes");
            assert_eq!(used, WIRE_REPORT_BYTES);
            assert!(!decoded.parallel, "byte {byte}");
        }
    }

    #[test]
    fn result_payload_round_trip() {
        let product = CsrMatrix::identity(9);
        let report = plain_report(true);
        let p = encode_result_payload(&report, &product);
        let (r2, p2) = decode_result_payload(&p).unwrap();
        assert_eq!(report, r2);
        assert_eq!(product, p2);
    }
}
