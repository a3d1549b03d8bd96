//! The wire decoders against hostile bytes: the frame header
//! ([`FrameHeader::read`]), the REJECT payload ([`decode_reject_payload`]),
//! the RESULT's report prefix ([`WireReport::decode`]) and the SUBMIT
//! payload ([`read_submit_payload`]) — under [`FLAG_RHS_IS_LHS`], by
//! reference under [`FLAG_LHS_RESIDENT`], and its masked and top-k shape
//! blocks. None of them panics on arbitrary or mutated bytes, a header never
//! admits a payload past the reader's cap, a SUBMIT decoder never allocates
//! past its frame nor reads past it, and what the encoders write decodes
//! back to itself. Seeds are fixed (derived from each test's name) and case
//! counts bounded.

use cw_net::frame::{
    decode_reject_payload, decode_submit_payload_shaped, encode_reject_payload,
    encode_submit_payload_shaped, read_submit_payload, write_submit, FLAG_LHS_RESIDENT,
    FLAG_MASK_IS_LHS, FLAG_NO_WAIT, FLAG_RHS_IS_LHS, FRAME_HEADER_BYTES, FRAME_MAGIC,
    SHAPE_TAG_MASKED, SHAPE_TAG_TOPK, WIRE_REPORT_BYTES,
};
use cw_net::{FrameHeader, OpCode, RejectCode, SubmitShape, WireReport};
use cw_service::{Priority, RequestShape};
use cw_sparse::io::{encode_csr, encoded_csr_len, CsrReadError};
use cw_sparse::{CooMatrix, CsrMatrix};
use proptest::collection::vec;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;
use std::sync::Arc;

/// The system allocator, noting the largest single request each thread
/// makes: how a test sees what a decoder allocated.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`; noting a size
// touches only a const-initialised thread-local `Cell`, which neither
// allocates nor registers a destructor.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// What a SUBMIT decoder may allocate beyond its frame's length, whatever
/// the frame: the request's `Arc` and an error's message.
const BOOKKEEPING_BYTES: usize = 1 << 10;

/// A request's operands and shape as the SUBMIT decoder yields them.
type Decoded = (Arc<CsrMatrix>, Arc<CsrMatrix>, RequestShape);

/// Decodes `payload` as the SUBMIT `head` announces, with the next frame's
/// first bytes behind it, against the connection's `resident` operand.
/// Whatever the outcome, no allocation exceeded the frame (plus
/// [`BOOKKEEPING_BYTES`]), and the payload — decoded, refused as a codec
/// error, or naming an operand the connection does not hold — was read
/// exactly to its end and no further. What decoded keeps each flag's
/// promise: the rhs, and under [`FLAG_MASK_IS_LHS`] the mask, are the lhs's
/// own `Arc`, and a by-reference lhs is `resident`'s, named by its id.
/// Returns the request when there is one.
fn decode(
    head: &FrameHeader,
    payload: &[u8],
    resident: Option<(u64, &Arc<CsrMatrix>)>,
) -> Result<Option<Decoded>, TestCaseError> {
    let mut wire = Cursor::new([payload, &FRAME_MAGIC[..]].concat());
    LARGEST.with(|largest| largest.set(0));
    let decoded = read_submit_payload(&mut wire, head, resident);
    let largest = LARGEST.with(Cell::get);
    let bound = payload.len().max(BOOKKEEPING_BYTES);
    prop_assert!(largest <= bound, "allocated {} for a {}-byte frame", largest, payload.len());
    prop_assert_eq!(wire.position() as usize, payload.len(), "read past (or short of) the frame");
    let (lhs, rhs, shape) = match decoded {
        Ok(Some(request)) => request,
        Ok(None) => {
            prop_assert!(head.flags & FLAG_LHS_RESIDENT != 0, "no lhs without the flag");
            return Ok(None);
        }
        Err(CsrReadError::Codec(_)) => return Ok(None),
        Err(CsrReadError::Io(e)) => return Err(TestCaseError::Fail(format!("i/o in frame: {e}"))),
    };
    if head.flags & FLAG_LHS_RESIDENT != 0 {
        let (upload, held) = resident.expect("an lhs by reference needs a resident operand");
        prop_assert!(Arc::ptr_eq(&lhs, held), "the lhs is not the resident Arc");
        prop_assert_eq!(&payload[..8], &upload.to_le_bytes()[..], "served under another id");
    }
    let rhs_is_lhs = head.flags & FLAG_RHS_IS_LHS != 0;
    prop_assert!(!rhs_is_lhs || Arc::ptr_eq(&lhs, &rhs), "two matrices decoded");
    if head.flags & FLAG_MASK_IS_LHS != 0 {
        let mask_is_lhs = matches!(&shape, RequestShape::Masked(m) if Arc::ptr_eq(m, &lhs));
        prop_assert!(mask_is_lhs, "the mask is not the lhs's Arc: {:?}", shape);
    }
    Ok(Some((lhs, rhs, shape)))
}

/// [`decode`] of a payload under [`FLAG_RHS_IS_LHS`] (and `extra`), with no
/// resident operand.
fn decode_flagged(head: &FrameHeader, payload: &[u8]) -> Result<(), TestCaseError> {
    decode(head, payload, None).map(drop)
}

/// A flagged SUBMIT header announcing `payload_len` bytes; `extra` flag
/// bits ride along (known or not).
fn flagged_head(payload_len: usize, extra: u16) -> FrameHeader {
    FrameHeader {
        flags: FLAG_RHS_IS_LHS | extra,
        payload_len: payload_len as u32,
        ..FrameHeader::control(OpCode::Submit, 1)
    }
}

/// A small matrix from its dimensions and `(row, col, value bits)` entries,
/// NaN payloads and `-0.0` included.
fn matrix(nrows: usize, ncols: usize, entries: &[(usize, usize, u64)]) -> CsrMatrix {
    if nrows == 0 || ncols == 0 {
        return CsrMatrix::zeros(nrows, ncols);
    }
    let mut coo = CooMatrix::new(nrows, ncols);
    for &(i, j, _) in entries {
        coo.push(i % nrows, j % ncols, 1.0);
    }
    let mut a = coo.to_csr();
    for (v, &(_, _, bits)) in a.vals.iter_mut().zip(entries) {
        *v = f64::from_bits(bits);
    }
    a
}

/// Shape `pick` of a SUBMIT over `a`: full, masked by `a`'s own pattern,
/// or top-`k`.
fn shape(pick: u8, a: &CsrMatrix, k: u64) -> SubmitShape {
    match pick {
        0 => SubmitShape::Full,
        1 => SubmitShape::Masked(a.clone()),
        _ => SubmitShape::TopK(k),
    }
}

/// The shape block a SUBMIT of `shape` ends with, its mask blob left out
/// when `mask_is_lhs`.
fn block(shape: &SubmitShape, mask_is_lhs: bool) -> Vec<u8> {
    match shape {
        SubmitShape::Full => Vec::new(),
        SubmitShape::Masked(_) if mask_is_lhs => vec![SHAPE_TAG_MASKED],
        SubmitShape::Masked(mask) => [&[SHAPE_TAG_MASKED][..], &encode_csr(mask)].concat(),
        SubmitShape::TopK(k) => [&[SHAPE_TAG_TOPK][..], &k.to_le_bytes()].concat(),
    }
}

/// Whether a decoded request shape is the shape that was sent.
fn same_shape(got: &RequestShape, sent: &SubmitShape) -> bool {
    match (got, sent) {
        (RequestShape::Full, SubmitShape::Full) => true,
        (RequestShape::Masked(got), SubmitShape::Masked(sent)) => got.bits_eq(sent),
        (RequestShape::TopK(got), SubmitShape::TopK(sent)) => *got as u64 == *sent,
        _ => false,
    }
}

/// Reads a header from `bytes` under `max`; an accepted one is within it.
fn read_header(mut bytes: &[u8], max: usize) -> Result<Option<FrameHeader>, TestCaseError> {
    let head = FrameHeader::read(&mut bytes, max).ok();
    prop_assert!(head.is_none_or(|h| h.payload_len as usize <= max), "{:?} past {}", head, max);
    Ok(head)
}

/// XORs each `(position, mask)` edit into `bytes`.
fn mutate(bytes: &mut [u8], edits: &[(usize, u8)]) {
    let n = bytes.len();
    edits.iter().for_each(|&(at, mask)| bytes[at % n] ^= mask);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_header_from_arbitrary_bytes_never_panics_or_exceeds_the_cap(
        bytes in vec(0u8..=255, 0..56),
        magic in 0u8..2,
        max in 0usize..1 << 20,
    ) {
        // Half the cases open with the real magic, so the checks past it
        // (version, op, length) see arbitrary bytes too.
        let mut bytes = bytes;
        if magic == 1 && bytes.len() >= 4 {
            bytes[..4].copy_from_slice(&FRAME_MAGIC);
        }
        read_header(&bytes, max)?;
    }

    #[test]
    fn a_mutated_header_never_panics_or_exceeds_the_cap(
        (op, low, flags) in (1u8..=10, 0u8..2, 0u16..u16::MAX),
        (request_id, deadline_ms, near) in (0u64..u64::MAX, 0u32..u32::MAX, 0u32..64),
        edits in vec((0usize..1 << 16, 0u8..=255), 1..=4),
        (max, cut) in (0usize..1 << 20, 0usize..28),
    ) {
        let priority = if low == 1 { Priority::Low } else { Priority::High };
        let op = OpCode::from_wire(op).unwrap();
        // Lengths within 32 of the cap, on both sides of it.
        let payload_len = (max as u32 + near).saturating_sub(32);
        let head = FrameHeader { op, priority, flags, request_id, deadline_ms, payload_len };
        // Unmutated, a header reads back exactly, or is refused for its length.
        let mut bytes = head.encode();
        match read_header(&bytes, max)? {
            Some(got) => prop_assert_eq!(got, head),
            None => prop_assert!(payload_len as usize > max),
        }
        mutate(&mut bytes, &edits);
        read_header(&bytes, max)?;
        read_header(&bytes[..cut], max)?;
    }

    #[test]
    fn a_reject_payload_of_arbitrary_bytes_never_panics(
        bytes in vec(0u8..=255, 0..64),
        declared in 0u32..80,
    ) {
        // Odd lengths declare one, so the code and message paths are reached.
        let mut bytes = bytes;
        if bytes.len() % 2 == 1 && bytes.len() >= 6 {
            bytes[2..6].copy_from_slice(&declared.to_le_bytes());
        }
        if decode_reject_payload(&bytes).is_some() {
            let len = u32::from_le_bytes(bytes[2..6].try_into().unwrap()) as usize;
            prop_assert_eq!(bytes.len(), 6 + len);
        }
    }

    #[test]
    fn every_reject_code_round_trips_and_its_mutations_never_panic(
        code in 1u16..=9,
        message in vec(0u32..0x11_0000, 0..24),
        edits in vec((0usize..1 << 16, 0u8..=255), 1..=3),
    ) {
        let code = RejectCode::from_wire(code).unwrap();
        let message: String = message.into_iter().filter_map(char::from_u32).collect();
        let mut bytes = encode_reject_payload(code, &message);
        prop_assert_eq!(decode_reject_payload(&bytes), Some((code, message)));
        mutate(&mut bytes, &edits);
        let _ = decode_reject_payload(&bytes);
    }

    #[test]
    fn a_report_from_arbitrary_bytes_never_panics_and_re_encodes_stably(
        bytes in vec(0u8..=255, 0..2 * WIRE_REPORT_BYTES),
        tag in 0u8..4,
    ) {
        // Each shape tag (full, masked, top-k, unknown) at offset 44.
        let mut bytes = bytes;
        if bytes.len() > 44 {
            bytes[44] = tag;
        }
        let Some((report, used)) = WireReport::decode(&bytes) else {
            prop_assert!(bytes.len() < WIRE_REPORT_BYTES);
            return Ok(());
        };
        prop_assert_eq!(used, WIRE_REPORT_BYTES);
        // Re-encoding is a fixed point: nothing decoded is lost on the way back.
        let mut once = Vec::new();
        report.encode_into(&mut once);
        let mut twice = Vec::new();
        WireReport::decode(&once).unwrap().0.encode_into(&mut twice);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn a_flagged_submit_from_arbitrary_bytes_never_panics_or_outgrows_its_frame(
        bytes in vec(0u8..=255, 0..256),
        (csrb, dims) in (0u8..2, vec(0u64..64, 3)),
        extra in 0u16..4,
    ) {
        // Half the cases open with a sound CSRB header declaring small
        // dimensions, so the decoder reaches the arrays and the shape block.
        let mut bytes = bytes;
        if csrb == 1 && bytes.len() >= 32 {
            bytes[..4].copy_from_slice(b"CSRB");
            bytes[4..8].copy_from_slice(&[1, 0, 0, 0]);
            for (at, d) in dims.iter().enumerate() {
                bytes[8 + 8 * at..16 + 8 * at].copy_from_slice(&d.to_le_bytes());
            }
        }
        // `extra` 1 is NO_WAIT (known); 2 and 3 carry a bit no SUBMIT knows.
        let extra = [0, FLAG_NO_WAIT, 0x10, 0x8000][extra as usize];
        decode_flagged(&flagged_head(bytes.len(), extra), &bytes)?;
    }

    #[test]
    fn a_mutated_flagged_submit_never_panics_or_outgrows_its_frame(
        (nrows, ncols, entries) in (0usize..12, 0usize..12, vec((0usize..12, 0usize..12, 0u64..u64::MAX), 0..24)),
        (pick, k) in (0u8..3, 0u64..8),
        edits in vec((0usize..1 << 16, 0u8..=255), 1..=4),
        (claim, at, cut) in (0u64..u64::MAX, 0usize..6, 0usize..64),
    ) {
        let a = matrix(nrows, ncols, &entries);
        let mut frame = Vec::new();
        write_submit(&mut frame, &flagged_head(0, 0), &a, &a, &shape(pick, &a, k)).unwrap();
        let mut payload = frame.split_off(FRAME_HEADER_BYTES);
        // Unmutated, it decodes to `a`, once.
        decode_flagged(&flagged_head(payload.len(), 0), &payload)?;
        // A hostile dimension or nnz in the lhs header (or, past it, in
        // the mask's), then byte flips, then a cut.
        let field = 8 + 8 * (at % 3) + if at >= 3 { encoded_csr_len(&a) + 1 } else { 0 };
        if field + 8 <= payload.len() {
            payload[field..field + 8].copy_from_slice(&claim.to_le_bytes());
        }
        let n = payload.len();
        edits.iter().for_each(|&(at, mask)| payload[at % n] ^= mask);
        decode_flagged(&flagged_head(payload.len(), 0), &payload)?;
        let cut = cut.min(payload.len());
        decode_flagged(&flagged_head(cut, 0), &payload[..cut])?;
    }

    #[test]
    fn a_flagged_write_submit_reads_back_as_one_matrix_equal_to_lhs(
        (nrows, ncols, entries) in (0usize..16, 0usize..16, vec((0usize..16, 0usize..16, 0u64..u64::MAX), 0..40)),
        (pick, k, no_wait) in (0u8..3, 0u64..8, 0u8..2),
    ) {
        let a = matrix(nrows, ncols, &entries);
        let shape = shape(pick, &a, k);
        let extra = if no_wait == 1 { FLAG_NO_WAIT } else { 0 };
        let mut frame = Vec::new();
        write_submit(&mut frame, &flagged_head(0, extra), &a, &a, &shape).unwrap();
        let block = match &shape {
            SubmitShape::Full => 0,
            SubmitShape::Masked(mask) => 1 + encoded_csr_len(mask),
            SubmitShape::TopK(_) => 9,
        };
        prop_assert_eq!(frame.len(), FRAME_HEADER_BYTES + encoded_csr_len(&a) + block);

        let mut wire = Cursor::new(&frame);
        let head = FrameHeader::read(&mut wire, 1 << 20).unwrap();
        prop_assert_eq!(head, flagged_head(frame.len() - FRAME_HEADER_BYTES, extra));
        let (lhs, rhs, back) = read_submit_payload(&mut wire, &head, None).unwrap().unwrap();
        prop_assert!(Arc::ptr_eq(&lhs, &rhs), "the rhs is not the lhs's Arc");
        prop_assert!(lhs.bits_eq(&a), "the lhs did not survive the round trip");
        prop_assert!(same_shape(&back, &shape), "shape {:?} read back as {:?}", shape, back);
        prop_assert_eq!(wire.position() as usize, frame.len());
    }
    #[test]
    fn a_mutated_by_reference_submit_never_panics_or_outgrows_its_frame(
        (nrows, ncols, entries) in (1usize..12, 1usize..12, vec((0usize..12, 0usize..12, 0u64..u64::MAX), 0..24)),
        (pick, k, own_rhs, mask_flag) in (0u8..3, 0u64..8, 0u8..2, 0u8..2),
        (upload, named) in (0u64..u64::MAX, 0u8..2),
        edits in vec((0usize..1 << 16, 0u8..=255), 1..=4),
        cut in 0usize..64,
    ) {
        // `a` is resident under `upload`; the SUBMIT names it (or, half the
        // time, another id) where the lhs blob would be, then carries its
        // rhs (or flags it as the lhs) and a shape block (a mask that is
        // the lhs flagged as such when `mask_flag` is set).
        let a = matrix(nrows, ncols, &entries);
        let resident = Arc::new(a.clone());
        let shape = shape(pick, &a, k);
        let rhs = matrix(ncols, nrows, &entries);
        let mask_is_lhs = mask_flag == 1 && matches!(shape, SubmitShape::Masked(_));
        let mut flags = FLAG_LHS_RESIDENT;
        if own_rhs == 0 {
            flags |= FLAG_RHS_IS_LHS;
        }
        if mask_is_lhs {
            flags |= FLAG_MASK_IS_LHS;
        }
        let id = if named == 1 { upload } else { upload ^ 1 };
        let rhs_blob = if own_rhs == 0 { Vec::new() } else { encode_csr(&rhs) };
        let mut payload = [&id.to_le_bytes()[..], &rhs_blob, &block(&shape, mask_is_lhs)].concat();
        let head = |len: usize| FrameHeader {
            flags,
            payload_len: len as u32,
            ..FrameHeader::control(OpCode::Submit, 2)
        };
        // Unmutated, it is served the resident operand exactly when it
        // names it.
        let held = Some((upload, &resident));
        match decode(&head(payload.len()), &payload, held)? {
            Some((_, got_rhs, got_shape)) => {
                prop_assert_eq!(named, 1, "served under another id");
                prop_assert!(own_rhs == 0 || got_rhs.bits_eq(&rhs), "the rhs did not survive");
                prop_assert!(same_shape(&got_shape, &shape), "{:?} read back as {:?}", shape, got_shape);
            }
            None => prop_assert_eq!(named, 0, "a request naming its upload was refused"),
        }
        // Byte flips (the id included), then a cut.
        let n = payload.len();
        edits.iter().for_each(|&(at, mask)| payload[at % n] ^= mask);
        decode(&head(payload.len()), &payload, held)?;
        let cut = cut.min(payload.len());
        decode(&head(cut), &payload[..cut], held)?;
    }

    #[test]
    fn a_mutated_shape_block_never_panics_or_outgrows_its_frame(
        (nrows, ncols, entries) in (0usize..12, 0usize..12, vec((0usize..12, 0usize..12, 0u64..u64::MAX), 0..24)),
        (masked, k) in (0u8..2, 0u64..u64::MAX),
        edits in vec((0usize..1 << 16, 0u8..=255), 1..=4),
        (claim, at, tail) in (0u64..u64::MAX, 0usize..4, vec(0u8..=255, 0..12)),
    ) {
        // A flag-clear payload (both blobs) whose masked or top-k block is
        // attacked: a hostile mask dimension or nnz, byte flips inside the
        // block, bytes past it, and every cut through it.
        let a = matrix(nrows, ncols, &entries);
        let shape = if masked == 1 { SubmitShape::Masked(a.clone()) } else { SubmitShape::TopK(k) };
        let mut payload = encode_submit_payload_shaped(&a, &a, &shape);
        let start = 2 * encoded_csr_len(&a);
        let head = |len: usize| FrameHeader {
            payload_len: len as u32,
            ..FrameHeader::control(OpCode::Submit, 3)
        };
        let (_, _, back) = decode(&head(payload.len()), &payload, None)?.expect("own payload");
        prop_assert!(same_shape(&back, &shape), "{:?} read back as {:?}", shape, back);
        if masked == 1 && at < 3 {
            let field = start + 1 + 8 + 8 * at;
            payload[field..field + 8].copy_from_slice(&claim.to_le_bytes());
        }
        let len = payload.len() - start;
        edits.iter().for_each(|&(at, mask)| payload[start + at % len] ^= mask);
        payload.extend_from_slice(&tail);
        for end in [payload.len(), start, start + 1, start + 9, (start + 9 + tail.len()).min(payload.len())] {
            let cut = &payload[..end.min(payload.len())];
            let streamed = decode(&head(cut.len()), cut, None)?;
            // The slice decoder agrees with the stream decoder.
            prop_assert_eq!(decode_submit_payload_shaped(cut).is_ok(), streamed.is_some());
        }
    }
}
