//! A small hand-rolled JSON value type, writer, and parser.
//!
//! The workspace is dependency-free, so machine-readable output cannot
//! lean on serde. This module provides the minimum the observability layer
//! needs: a [`Json`] tree with **order-preserving** objects (serialization
//! is deterministic — required by the byte-identical `RunReport`
//! regression test), a compact writer, and a strict recursive-descent
//! parser for reading metrics files back (`oblivion stats`).

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (serialized without a decimal point).
    U64(u64),
    /// A signed integer (serialized without a decimal point).
    I64(i64),
    /// A float, serialized via Rust's shortest round-trip formatting.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// Appends a key to an object (panics on non-objects).
    pub fn set<S: Into<String>, V: Into<Json>>(&mut self, key: S, value: V) -> &mut Self {
        match self {
            Json::Obj(entries) => entries.push((key.into(), value.into())),
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if numeric and representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(x) => Some(x),
            Json::I64(x) => u64::try_from(x).ok(),
            Json::F64(x) if x >= 0.0 && x.fract() == 0.0 && x < 2f64.powi(53) => Some(x as u64),
            _ => None,
        }
    }

    /// The value as `i64`, if it fits (gauges may be negative).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::U64(x) => i64::try_from(x).ok(),
            Json::I64(x) => Some(x),
            Json::F64(x) if x.fract() == 0.0 && x.abs() < 2f64.powi(53) => Some(x as i64),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(x) => Some(x as f64),
            Json::I64(x) => Some(x as f64),
            Json::F64(x) => Some(x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes into `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(x) => {
                let _ = write!(out, "{x}");
            }
            Json::I64(x) => {
                let _ = write!(out, "{x}");
            }
            Json::F64(x) => {
                if x.is_finite() {
                    // {:?} is the shortest representation that round-trips,
                    // and always contains a '.' or exponent for non-integers;
                    // integral floats print as "1.0", keeping the type
                    // distinction visible.
                    let _ = write!(out, "{x:?}");
                } else {
                    // JSON has no NaN/Inf; degrade to null like serde_json.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }
}

/// Compact (no whitespace), deterministic serialization.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Self {
        Json::U64(x)
    }
}
impl From<u32> for Json {
    fn from(x: u32) -> Self {
        Json::U64(u64::from(x))
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Self {
        Json::U64(x as u64)
    }
}
impl From<i64> for Json {
    fn from(x: i64) -> Self {
        Json::I64(x)
    }
}
/// Exact for every `u64` and `i64`: a non-negative value becomes
/// [`Json::U64`], a negative one [`Json::I64`].
impl From<i128> for Json {
    fn from(x: i128) -> Self {
        u64::try_from(x).map_or(Json::I64(x as i64), Json::U64)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::F64(x)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Self {
        Json::Arr(items)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos:?}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(x) = text.parse::<u64>() {
            return Ok(Json::U64(x));
        }
    }
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(x) = text.parse::<i64>() {
            return Ok(Json::I64(x));
        }
    }
    text.parse::<f64>()
        .map(Json::F64)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is valid UTF-8 by
                // construction: it came from a &str).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut entries = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(entries));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos:?}"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos:?}"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        entries.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos:?}")),
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '['
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
            _ => return Err(format!("expected ',' or ']' at byte {pos:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_deterministically_and_in_order() {
        let mut j = Json::obj();
        j.set("b", 1u64).set("a", 2u64).set("pi", 3.25);
        assert_eq!(j.to_string(), r#"{"b":1,"a":2,"pi":3.25}"#);
        assert_eq!(j.to_string(), j.clone().to_string());
    }

    #[test]
    fn escapes_strings() {
        let j = Json::Str("a\"b\\c\nd\u{1}".into());
        assert_eq!(j.to_string(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn round_trips() {
        let mut j = Json::obj();
        j.set("name", "route/path_selection")
            .set("count", 64u64)
            .set("neg", Json::I64(-3))
            .set("ratio", 1.5)
            .set("flag", true)
            .set("none", Json::Null)
            .set("xs", Json::Arr(vec![Json::U64(1), Json::U64(2)]));
        let text = j.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, j);
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let j = Json::parse(" { \"a\" : [ 1 , { \"b\" : null } ] } ").unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn accessors() {
        let j = Json::parse(r#"{"n":42,"f":2.5,"s":"x","neg":-7}"#).unwrap();
        assert_eq!(j.get("n").unwrap().as_u64(), Some(42));
        assert_eq!(j.get("f").unwrap().as_f64(), Some(2.5));
        assert_eq!(j.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(j.get("neg").unwrap().as_f64(), Some(-7.0));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{}x").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn nan_degrades_to_null() {
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
    }

    #[test]
    fn big_u64_survives() {
        let x = u64::MAX;
        let text = Json::U64(x).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(x));
    }
}
