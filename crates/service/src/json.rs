//! A minimal JSON value: parse, navigate, serialize.
//!
//! The build environment has no crates.io access, so serde is unavailable
//! (the same offline discipline as `crates/shims/`). The service's wire
//! bodies are small and flat, so this hand-rolled tree — strict enough to
//! reject the truncated/malformed bodies the API tests throw at it —
//! covers everything the protocol needs: request parsing on the server,
//! response parsing in the client, and re-serialization when the CLI
//! reassembles a remote report into its local `--json` envelope.
//!
//! Every tier runs [`Json::parse`] on bytes it did not produce (request
//! bodies, worker replies, event lines, journal records), so its cost is
//! bounded by the input alone:
//!
//! * **Linear time.** Each byte is looked at a constant number of times;
//!   a string's plain runs are copied whole, never re-validated, so a
//!   1 MiB string decodes in milliseconds.
//! * **Bounded depth.** Arrays and objects nest at most [`MAX_DEPTH`]
//!   levels (the protocol's deepest document nests about five). A deeper
//!   document is a [`JsonError`], not a stack overflow: the recursive
//!   descent goes at most `MAX_DEPTH` containers deep, whatever the input.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`; the protocol's integers
    /// are well within the 2⁵³ exact range).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not significant anywhere in the protocol,
    /// so a sorted map keeps comparisons and re-serialization stable.
    Obj(BTreeMap<String, Json>),
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// Parse failure: byte offset plus what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse one complete JSON document (trailing garbage is an error —
    /// a truncated body must not silently parse as its prefix).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(input, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing characters after the document"));
        }
        Ok(value)
    }

    /// Object field access; `None` for non-objects and missing keys.
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
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

impl fmt::Display for Json {
    /// Compact serialization (no whitespace), the wire format everywhere.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) => {
                if x.fract() == 0.0 && x.abs() <= 2f64.powi(53) {
                    write!(f, "{}", *x as i64)
                } else {
                    write!(f, "{x}")
                }
            }
            Json::Str(s) => write!(f, "\"{}\"", escape(s)),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(map) => {
                write!(f, "{{")?;
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "\"{}\":{value}", escape(key))?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Escape a string for embedding between JSON quotes.
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn err(offset: usize, message: &str) -> JsonError {
    JsonError {
        offset,
        message: message.to_owned(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(err(
            *pos,
            &format!("nesting deeper than {MAX_DEPTH} levels"),
        )),
        Some(b'{') => parse_object(text, pos, depth + 1),
        Some(b'[') => parse_array(text, pos, depth + 1),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(_) => Err(err(*pos, "expected a JSON value")),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected {literal:?}")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    text.parse::<f64>()
        .ok()
        .filter(|x| x.is_finite())
        .map(Json::Num)
        .ok_or_else(|| err(start, "malformed number"))
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, JsonError> {
    let bytes = text.as_bytes();
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run of plain bytes up to the next quote, backslash or
        // control byte in one go. Those are all ASCII, so the run ends on
        // a char boundary of `text` (as it starts on one, just past an
        // ASCII byte) and slicing it needs no UTF-8 re-validation.
        let run = bytes[*pos..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
            .map_or(bytes.len(), |n| *pos + n);
        out.push_str(&text[*pos..run]);
        *pos = run;
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    None => return Err(err(*pos, "unterminated escape")),
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)
                            .ok_or_else(|| err(*pos, "expected four hex digits after \\u"))?;
                        *pos += 4;
                        // Surrogate pair: a high surrogate must be followed
                        // by an escaped low surrogate (DC00..E000). A low
                        // half past that range whose pair would overflow
                        // U+10FFFF keeps its "invalid surrogate pair".
                        let c = if (0xD800..0xDC00).contains(&code) {
                            if bytes.get(*pos + 1) == Some(&b'\\')
                                && bytes.get(*pos + 2) == Some(&b'u')
                            {
                                let low = parse_hex4(bytes, *pos + 3)
                                    .ok_or_else(|| err(*pos, "bad low surrogate"))?;
                                *pos += 6;
                                let combined = 0x10000
                                    + ((code - 0xD800) << 10)
                                    + (low
                                        .checked_sub(0xDC00)
                                        .ok_or_else(|| err(*pos, "bad low surrogate"))?);
                                let c = char::from_u32(combined)
                                    .ok_or_else(|| err(*pos, "invalid surrogate pair"))?;
                                if low >= 0xE000 {
                                    return Err(err(*pos, "bad low surrogate"));
                                }
                                c
                            } else {
                                return Err(err(*pos, "lone high surrogate"));
                            }
                        } else {
                            char::from_u32(code).ok_or_else(|| err(*pos, "invalid codepoint"))?
                        };
                        out.push(c);
                    }
                    Some(_) => return Err(err(*pos, "unknown escape")),
                }
                *pos += 1;
            }
            Some(_) => return Err(err(*pos, "raw control character in string")),
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Option<u32> {
    let chunk = bytes.get(at..at + 4)?;
    let text = std::str::from_utf8(chunk).ok()?;
    u32::from_str_radix(text, 16).ok()
}

fn parse_array(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    debug_assert_eq!(bytes[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(text, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']' in array")),
        }
    }
}

fn parse_object(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    debug_assert_eq!(bytes[*pos], b'{');
    *pos += 1;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected a string key"));
        }
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected ':' after key"));
        }
        *pos += 1;
        let value = parse_value(text, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(err(*pos, "expected ',' or '}' in object")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_the_protocol_shapes() {
        let doc = r#"{"dataset":"[{A},{B,C}]\n[{B},{A,C}]","seed":7,"budget_secs":1.5,"algo":"BestOf(KwikSort,20)","flag":true,"nothing":null,"arr":[1,-2,3.25]}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(
            v.get("dataset").and_then(Json::as_str),
            Some("[{A},{B,C}]\n[{B},{A,C}]")
        );
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("budget_secs").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("flag").and_then(Json::as_bool), Some(true));
        assert!(v.get("nothing").unwrap().is_null());
        assert_eq!(v.get("arr").and_then(Json::as_array).unwrap().len(), 3);
        // Display form reparses to the same tree.
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn rejects_truncated_and_trailing_input() {
        for bad in [
            r#"{"dataset": "abc"#,
            r#"{"a":1"#,
            r#"[1,2"#,
            r#""unterminated"#,
            r#"{"a":1} extra"#,
            r#"{"a":}"#,
            r#"{a:1}"#,
            "",
            "nul",
            "1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn unescapes_and_escapes() {
        let v = Json::parse(r#""a\nb\t\"c\" é 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\nb\t\"c\" é 😀"));
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
