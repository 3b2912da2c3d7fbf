//! Minimal deterministic JSON: the one escaping/formatting implementation
//! shared by the metrics snapshot exporter ([`crate::snapshot`]) and the
//! `chameleond` wire protocol (`chameleon_server::protocol`).
//!
//! The workspace carries no serialization dependency, so this module is
//! the canonical hand-rolled implementation. Determinism contract:
//!
//! * object keys are emitted in the order the caller supplies them (the
//!   snapshot code iterates `BTreeMap`s, the protocol writes fixed field
//!   orders), never re-sorted here;
//! * numbers use Rust's shortest-round-trip `Display` for `f64` (the same
//!   bits always print the same bytes) and plain decimal for integers;
//! * strings escape the two mandatory JSON escapes (`"` and `\`), the
//!   named control-character short forms, and all other C0 controls as
//!   `\u00XX`. Non-ASCII text is passed through as UTF-8, not
//!   `\u`-escaped, so the output is byte-stable regardless of any locale
//!   or environment.
//!
//! A small recursive-descent parser for the same grammar lives here too:
//! the server's request decoder and the protocol tests use it, keeping
//! encode and decode in one place.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Appends the JSON escaping of `s` (without surrounding quotes).
pub(crate) fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Returns `s` as a quoted JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// Formats an `f64` deterministically: shortest-round-trip `Display`,
/// with non-finite values (which JSON cannot represent) mapped to `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        let mut s = v.to_string();
        // `Display` prints integral floats without a point ("3"); keep
        // them valid JSON numbers as-is (JSON has one number type).
        if s == "-0" {
            s = "0".to_string();
        }
        s
    } else {
        "null".to_string()
    }
}

/// A parsed JSON document. Objects preserve no duplicate keys (last one
/// wins) and iterate in sorted order via the underlying `BTreeMap`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`; integers up to 2⁵³ are
    /// exact, which covers every field the protocol and metrics use).
    Num(f64),
    /// A string (already unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document; trailing non-whitespace is an
    /// error.
    ///
    /// # Errors
    /// Returns a byte-offset-annotated message on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field access (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Renders the value back to canonical JSON (object keys in sorted
    /// order, numbers via [`number`], strings via [`string`]).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => out.push_str(&number(*v)),
            Json::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(out, k);
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected {lit:?} at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
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
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
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
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0C}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        // Surrogate pairs: only BMP escapes are produced by
                        // our encoder; accept pairs from other producers.
                        if (0xD800..0xDC00).contains(&cp) {
                            if bytes.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                                return Err("unpaired surrogate".into());
                            }
                            let hex2 = bytes
                                .get(*pos + 3..*pos + 7)
                                .ok_or("truncated surrogate pair")?;
                            let hex2 = std::str::from_utf8(hex2).map_err(|_| "bad \\u escape")?;
                            let lo = u32::from_str_radix(hex2, 16).map_err(|_| "bad \\u escape")?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("invalid low surrogate".into());
                            }
                            *pos += 6;
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                            out.push(char::from_u32(combined).ok_or("invalid surrogate pair")?);
                        } else {
                            out.push(char::from_u32(cp).ok_or("invalid \\u code point")?);
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(&b) => {
                if b < 0x20 {
                    return Err(format!("raw control character at byte {pos}", pos = *pos));
                }
                // Copy the whole run of plain bytes at once (graph payloads
                // are megabytes; per-char handling would be quadratic).
                let start = *pos;
                while *pos < bytes.len() {
                    let b = bytes[*pos];
                    if b == b'"' || b == b'\\' || b < 0x20 {
                        break;
                    }
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| "invalid UTF-8 in string")?;
                out.push_str(run);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_mandatory_characters() {
        assert_eq!(string(r#"a"b"#), r#""a\"b""#);
        assert_eq!(string(r"a\b"), r#""a\\b""#);
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(string("line1\nline2"), "\"line1\\nline2\"");
        assert_eq!(string("tab\there"), "\"tab\\there\"");
        assert_eq!(string("cr\r"), "\"cr\\r\"");
        assert_eq!(string("\u{08}\u{0C}"), "\"\\b\\f\"");
        // Unnamed C0 controls use \u00XX.
        assert_eq!(string("\u{01}\u{1f}"), "\"\\u0001\\u001f\"");
        assert_eq!(string("\u{00}"), "\"\\u0000\"");
    }

    #[test]
    fn non_ascii_passes_through_as_utf8() {
        assert_eq!(string("héllo wörld"), "\"héllo wörld\"");
        assert_eq!(string("日本語"), "\"日本語\"");
        assert_eq!(string("🦎"), "\"🦎\"");
    }

    #[test]
    fn numbers_are_shortest_roundtrip() {
        assert_eq!(number(0.05), "0.05");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(-0.0), "0");
        assert_eq!(number(1e-9), "0.000000001");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn parse_roundtrips_escapes() {
        for s in [
            "plain",
            "with \"quotes\"",
            "tab\tnl\n",
            "ünïcode 日本語 🦎",
            "\u{01}",
        ] {
            let doc = string(s);
            let parsed = Json::parse(&doc).unwrap();
            assert_eq!(parsed.as_str(), Some(s), "through {doc}");
        }
    }

    #[test]
    fn parse_object_and_access() {
        let doc = r#"{"op": "check", "k": 20, "nested": {"ok": true}, "xs": [1, 2.5]}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("check"));
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(20));
        assert_eq!(
            v.get("nested")
                .and_then(|n| n.get("ok"))
                .and_then(Json::as_bool),
            Some(true)
        );
        match v.get("xs") {
            Some(Json::Arr(xs)) => {
                assert_eq!(xs.len(), 2);
                assert_eq!(xs[1].as_f64(), Some(2.5));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\" 1}",
            "truex",
            "1 2",
            "",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parse_surrogate_pair() {
        let v = Json::parse("\"\\ud83e\\udd8e\"").unwrap();
        assert_eq!(v.as_str(), Some("🦎"));
        assert!(Json::parse("\"\\ud83e\"").is_err());
    }

    #[test]
    fn render_is_canonical_and_stable() {
        let doc = r#"{"b": 1, "a": {"y": [true, null, "s\n"], "x": 0.5}}"#;
        let v = Json::parse(doc).unwrap();
        let rendered = v.render();
        assert_eq!(rendered, r#"{"a":{"x":0.5,"y":[true,null,"s\n"]},"b":1}"#);
        // Fixed point: rendering the re-parse reproduces the bytes.
        assert_eq!(Json::parse(&rendered).unwrap().render(), rendered);
    }
}
