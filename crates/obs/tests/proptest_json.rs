//! The JSON reader ([`json::parse`]) against hostile input: it never
//! panics on arbitrary bytes or on mutated lines of a real JSON-lines
//! export, and what [`json::escape`] writes parses back to the original
//! string. Seeds are fixed (derived from each test's name) and case counts
//! bounded.

use cw_obs::export::export_jsonl;
use cw_obs::json::{self, JsonValue};
use cw_obs::{MetricsRegistry, RequestTrace, SpanRecord};
use proptest::collection::vec;
use proptest::prelude::*;

/// Bytes that steer the reader into its structural branches.
const JSON_BYTES: &[u8] = b"{}[]\":,\\ \n-+.0123456789eEtrufalsn";

/// One byte: half the time from [`JSON_BYTES`], else any byte.
fn byte((kind, b): (u8, u8)) -> u8 {
    if kind == 0 {
        JSON_BYTES[b as usize % JSON_BYTES.len()]
    } else {
        b
    }
}

/// One char: a control character, a character `escape` rewrites, ASCII,
/// or any scalar value (surrogates fold to U+FFFD).
fn char_of((kind, code): (u8, u32)) -> char {
    match kind {
        0 => char::from_u32(code % 0x20).unwrap(),
        1 => ['"', '\\', '/', '\u{7f}'][code as usize % 4],
        2 => char::from_u32(code % 0x80).unwrap(),
        _ => char::from_u32(code).unwrap_or('\u{FFFD}'),
    }
}

/// Every line of a small but complete export: header, one trace (with a
/// span name that needs every kind of escape) and the metrics line with a
/// histogram.
fn export_lines() -> Vec<String> {
    let registry = MetricsRegistry::new();
    registry.counter("requests").add(3);
    registry.gauge("queue_depth").set(-2);
    let latency = registry.histogram("latency_s");
    latency.record(0.004);
    latency.record(1.5e-7);
    let trace = RequestTrace {
        trace_id: 42,
        spans: vec![
            SpanRecord { name: "queue \"q\"\\\u{1}\t\u{1f}", start_ns: 0, end_ns: 10, depth: 1 },
            SpanRecord { name: "request", start_ns: 0, end_ns: 99, depth: 0 },
        ],
    };
    export_jsonl(&[trace], &registry.snapshot()).lines().map(str::to_string).collect()
}

#[test]
fn every_prefix_of_an_export_line_parses_or_errs() {
    for line in export_lines() {
        assert!(json::parse(&line).is_ok(), "{line}");
        for cut in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
            assert!(json::parse(&line[..cut]).is_err(), "{}", &line[..cut]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_never_panics_on_arbitrary_bytes(raw in vec((0u8..2, 0u8..=255), 0..300)) {
        let bytes: Vec<u8> = raw.into_iter().map(byte).collect();
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parse_never_panics_on_mutated_export_lines(
        line in 0usize..3,
        edits in vec((0usize..1 << 16, 0u8..2, 0u8..=255), 0..=6),
        cut in 0usize..1 << 16,
    ) {
        let lines = export_lines();
        let mut bytes = lines[line].clone().into_bytes();
        prop_assert!(json::parse(&lines[line]).is_ok(), "{}", lines[line]);
        let n = bytes.len();
        for (at, kind, b) in edits {
            bytes[at % n] = byte((kind, b));
        }
        // Half the cases also lose their tail.
        if cut % 2 == 0 {
            bytes.truncate(cut % n);
        }
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn escape_then_parse_round_trips_any_string(raw in vec((0u8..4, 0u32..0x11_0000), 0..64)) {
        let s: String = raw.into_iter().map(char_of).collect();
        let doc = format!("{{\"{}\": \"{}\"}}", json::escape(&s), json::escape(&s));
        let parsed = json::parse(&doc);
        prop_assert_eq!(parsed, Ok(JsonValue::Obj(vec![(s.clone(), JsonValue::Str(s))])));
    }
}
