//! A minimal hand-rolled JSON reader shared by the observability export
//! ([`crate::export`]) and the repo benchmark's run files (the workspace
//! builds without serde; its JSON needs are a handful of flat documents,
//! so a ~150-line recursive-descent parser is the whole cost).
//!
//! Writing stays with the callers (string formatting is simpler than a
//! generic emitter; [`escape`] is the one string-escaping table); parsing
//! goes through [`parse`] into a [`JsonValue`] tree with typed accessors.
//! Nesting deeper than [`MAX_NESTING`] is an error, so a hostile document
//! cannot overflow the stack.

use std::fmt::Write as _;

/// Deepest container nesting [`parse`] accepts. Workspace documents nest a
/// handful of levels; the cap bounds the parser's recursion.
pub const MAX_NESTING: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; the workspace writes floats in
    /// Rust's shortest round-trip form, which `f64` parsing recovers
    /// bit-exactly).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order (duplicate keys keep both entries;
    /// [`JsonValue::get`] returns the first).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member `key` of an object (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members in document order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Escapes `s` for embedding in a JSON string literal (the writer-side
/// helper callers use when hand-formatting documents).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Parses one JSON document. Returns the value or a human-readable error
/// with a byte offset. Trailing non-whitespace after the document, and
/// containers nested deeper than [`MAX_NESTING`], are errors.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

/// Parses the value at `pos`, which sits inside `depth` open containers.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of document".into()),
        Some(b'{' | b'[') if depth == MAX_NESTING => {
            Err(format!("nesting too deep at byte {}", *pos))
        }
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_keyword(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_keyword(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_keyword(b, pos, "null", JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_keyword(
    b: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth)?;
        members.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("invalid \\u escape at byte {}", *pos))?;
                        *pos += 4;
                        // Surrogate pairs are not needed by any workspace
                        // document; map unpaired surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    _ => return Err(format!("unknown escape at byte {}", *pos - 1)),
                }
            }
            _ => {
                // Collect the full UTF-8 run starting at c.
                let start = *pos - 1;
                let mut end = *pos;
                while end < b.len() && b[end] != b'"' && b[end] != b'\\' {
                    end += 1;
                }
                let run = std::str::from_utf8(&b[start..end])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "non-ASCII number")?;
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc =
            parse(r#"{"a": 1.5e-9, "b": [1, 2, {"c": "x,\"y\""}], "t": true, "n": null}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_f64(), Some(1.5e-9));
        let arr = doc.get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[2].get("c").unwrap().as_str(), Some("x,\"y\""));
        assert_eq!(doc.get("t"), Some(&JsonValue::Bool(true)));
        assert_eq!(doc.get("n"), Some(&JsonValue::Null));
    }

    #[test]
    fn floats_round_trip_through_debug_format() {
        for x in [1.5e-9, 0.1 + 0.2, f64::MIN_POSITIVE, 123456.789, -4.2e300] {
            let doc = parse(&format!("{{\"x\": {x:?}}}")).unwrap();
            assert_eq!(doc.get("x").unwrap().as_f64(), Some(x), "{x:?}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "{\"a\": 1} extra", "\"unterminated", "nope"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}";
        let doc = parse(&format!("{{\"k\": \"{}\"}}", escape(nasty))).unwrap();
        assert_eq!(doc.get("k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn empty_containers_parse() {
        assert_eq!(parse("{}").unwrap(), JsonValue::Obj(vec![]));
        assert_eq!(parse("[]").unwrap(), JsonValue::Arr(vec![]));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&arrays(MAX_NESTING)).is_ok());
        assert_eq!(
            parse(&arrays(MAX_NESTING + 1)),
            Err(format!("nesting too deep at byte {MAX_NESTING}"))
        );
        for hostile in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let err = parse(&hostile).unwrap_err();
            assert!(err.starts_with("nesting too deep at byte "), "{err}");
        }
    }
}
