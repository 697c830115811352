//! Minimal JSON support: deterministic emission helpers for the exporters
//! and a small recursive-descent parser for validating what they wrote.
//!
//! The workspace builds offline (the `serde` shim carries no data
//! format), so the exporters emit JSON by hand; this module centralises
//! escaping and float formatting, and the parser gives round-trip tests a
//! real check instead of substring matching.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape a string for embedding inside JSON quotes.
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

/// Format an `f64` as a JSON number. Rust's shortest-roundtrip `{}`
/// formatting is deterministic; non-finite values (which no exporter
/// should produce) degrade to `0`.
pub fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        debug_assert!(false, "non-finite metric value {x}");
        "0".to_string()
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. Far deeper than
/// any document the workspace writes; the bound keeps the recursive
/// descent on a fixed stack budget, so hostile input (a spec file, a
/// worker frame, a store chunk) gets an error instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion order discarded; keys sorted).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed).
    /// Nesting beyond [`MAX_DEPTH`] is an error naming the depth and the
    /// byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Member of an object, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", b as char, *pos))
    }
}

/// Parse one value; `depth` counts the arrays/objects enclosing it.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", *pos))
        }
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number {text:?}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or escape. Both stops
                // are ASCII, so the run is whole UTF-8 scalars, and each
                // byte is validated once: linear in the string's length.
                let run = &bytes[*pos..];
                let len = run.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(run.len());
                out.push_str(std::str::from_utf8(&run[..len]).map_err(|e| e.to_string())?);
                *pos += len;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected , or ] got {other:?} at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            other => return Err(format!("expected , or }} got {other:?} at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\"y", "d": null}, "e": true}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\"y"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let err = Json::parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains(&format!("deeper than {MAX_DEPTH} levels")), "{err}");
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        let err = Json::parse(&"{\"k\": ".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("deeper than"), "{err}");
        // Exactly MAX_DEPTH levels still parse; one more does not.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&past).is_err());
    }

    #[test]
    fn escape_round_trips_through_parser() {
        let nasty = "line\none\t\"quoted\" \\ \u{1} done";
        let doc = format!("{{\"k\": \"{}\"}}", escape(nasty));
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn float_formatting_is_json_safe() {
        for x in [0.0, 1.0, -2.5, 1e-12, 123456789.123] {
            let doc = format!("[{}]", fmt_f64(x));
            let v = Json::parse(&doc).unwrap();
            assert_eq!(v.as_arr().unwrap()[0].as_f64(), Some(x));
        }
    }
}
