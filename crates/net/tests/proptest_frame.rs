//! The three fixed-size wire decoders against hostile bytes: the frame
//! header ([`FrameHeader::read`]), the REJECT payload
//! ([`decode_reject_payload`]) and the RESULT's report prefix
//! ([`WireReport::decode`]). None of them panics on arbitrary or mutated
//! bytes, a header never admits a payload past the reader's cap, and what
//! the encoders write decodes back to itself. Seeds are fixed (derived from
//! each test's name) and case counts bounded.

use cw_net::frame::{decode_reject_payload, encode_reject_payload, FRAME_MAGIC, WIRE_REPORT_BYTES};
use cw_net::{FrameHeader, OpCode, RejectCode, WireReport};
use cw_service::Priority;
use proptest::collection::vec;
use proptest::prelude::*;

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
        code in 1u16..=8,
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
}
