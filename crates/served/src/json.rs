//! Minimal hand-rolled JSON value, parser, and encoder.
//!
//! The workspace is dependency-free by policy, and the daemon's wire
//! protocol and on-disk journals are line-delimited JSON, so this module
//! provides the one JSON implementation the service layer needs: a
//! recursive-descent parser with an explicit depth cap (adversarial
//! input must exhaust a typed error path, never the stack) and an
//! encoder that round-trips everything the parser accepts.
//!
//! Numbers are `f64` — large 64-bit identifiers (job ids, state
//! digests) are therefore carried as hex *strings* at the protocol
//! layer, never as JSON numbers.

use std::collections::BTreeMap;
use std::fmt;

/// Maximum nesting depth the parser will follow before bailing with
/// [`JsonError::TooDeep`]. The protocol never nests past ~4 levels;
/// anything deeper is garbage or an attack.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
///
/// Objects preserve deterministic (sorted) key order via `BTreeMap`, so
/// encoding is canonical: two structurally equal values encode to
/// byte-identical strings. The content-addressed store relies on this.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

/// Why a parse failed. Every variant names the byte offset so protocol
/// tests can assert errors are detected, not papered over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Input ended in the middle of a value.
    Truncated,
    /// An unexpected byte at `at` (printable form in `found`).
    Unexpected { at: usize, found: String },
    /// A malformed `\` escape inside a string.
    BadEscape { at: usize },
    /// A number that does not parse as a finite `f64`.
    BadNumber { at: usize },
    /// Nesting exceeded [`MAX_DEPTH`].
    TooDeep { max: usize },
    /// A complete value followed by non-whitespace trailing bytes.
    TrailingBytes { at: usize },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Truncated => write!(f, "input truncated mid-value"),
            JsonError::Unexpected { at, found } => {
                write!(f, "unexpected {found} at byte {at}")
            }
            JsonError::BadEscape { at } => write!(f, "bad string escape at byte {at}"),
            JsonError::BadNumber { at } => write!(f, "malformed number at byte {at}"),
            JsonError::TooDeep { max } => write!(f, "nesting deeper than {max} levels"),
            JsonError::TrailingBytes { at } => {
                write!(f, "trailing bytes after value at byte {at}")
            }
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON value from `input`, rejecting trailing
    /// non-whitespace.
    ///
    /// # Errors
    ///
    /// Any [`JsonError`]; never panics, whatever the input.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            at: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.at < p.bytes.len() {
            return Err(JsonError::TrailingBytes { at: p.at });
        }
        Ok(value)
    }

    /// Encodes to a single-line JSON string (no newlines — suitable as
    /// one wire frame or journal line).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.get(key),
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

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer. Rejects
    /// negatives, fractions, and magnitudes past 2^53 (where `f64`
    /// stops being exact).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if (0.0..=9_007_199_254_740_992.0).contains(&n) && n.fract() == 0.0 {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience constructor for object literals.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for numbers from unsigned integers.
    pub fn num(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

fn write_number(n: f64, out: &mut String) {
    use std::fmt::Write as _;
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
    use std::fmt::Write as _;
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

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.at) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.at += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn unexpected(&self) -> JsonError {
        match self.peek() {
            None => JsonError::Truncated,
            Some(b) => JsonError::Unexpected {
                at: self.at,
                found: printable(b),
            },
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::TooDeep { max: MAX_DEPTH });
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.unexpected()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        let end = self.at + word.len();
        if self.bytes.len() < end {
            return Err(JsonError::Truncated);
        }
        if &self.bytes[self.at..end] == word.as_bytes() {
            self.at = end;
            Ok(value)
        } else {
            Err(self.unexpected())
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.at;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E' => self.at += 1,
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| JsonError::BadNumber { at: start })?;
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(JsonError::BadNumber { at: start }),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.at += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.at;
            match self.peek() {
                None => return Err(JsonError::Truncated),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        None => return Err(JsonError::Truncated),
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.at += 1;
                            let c = self.unicode_escape(start)?;
                            out.push(c);
                            continue;
                        }
                        Some(_) => return Err(JsonError::BadEscape { at: start }),
                    }
                    self.at += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(JsonError::Unexpected {
                        at: self.at,
                        found: printable(b),
                    })
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.at..];
                    let s = std::str::from_utf8(rest).expect("parser input is a &str");
                    let c = s.chars().next().expect("peek saw a byte");
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u`, pairing surrogates.
    fn unicode_escape(&mut self, escape_start: usize) -> Result<char, JsonError> {
        let hi = self.hex4(escape_start)?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require a following \uXXXX low surrogate.
            if self.bytes.get(self.at) == Some(&b'\\') && self.bytes.get(self.at + 1) == Some(&b'u')
            {
                self.at += 2;
                let lo = self.hex4(escape_start)?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c).ok_or(JsonError::BadEscape { at: escape_start });
                }
            }
            return Err(JsonError::BadEscape { at: escape_start });
        }
        char::from_u32(hi).ok_or(JsonError::BadEscape { at: escape_start })
    }

    fn hex4(&mut self, escape_start: usize) -> Result<u32, JsonError> {
        if self.bytes.len() < self.at + 4 {
            return Err(JsonError::Truncated);
        }
        let mut value = 0u32;
        for _ in 0..4 {
            let b = self.bytes[self.at];
            let digit = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a' + 10) as u32,
                b'A'..=b'F' => (b - b'A' + 10) as u32,
                _ => return Err(JsonError::BadEscape { at: escape_start }),
            };
            value = value * 16 + digit;
            self.at += 1;
        }
        Ok(value)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.at += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.unexpected()),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.at += 1; // '{'
        let mut fields = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.unexpected());
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.unexpected());
            }
            self.at += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.unexpected()),
            }
        }
    }
}

fn printable(b: u8) -> String {
    if b.is_ascii_graphic() {
        format!("`{}`", b as char)
    } else {
        format!("byte 0x{b:02x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structured_values() {
        let cases = [
            "null",
            "true",
            "false",
            "0",
            "-17",
            "3.5",
            "\"hello\"",
            "\"quote \\\" slash \\\\ tab \\t\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"e\"}}",
        ];
        for case in cases {
            let v = Json::parse(case).unwrap_or_else(|e| panic!("{case}: {e}"));
            let encoded = v.encode();
            assert_eq!(Json::parse(&encoded).unwrap(), v, "re-parse of {case}");
        }
    }

    #[test]
    fn canonical_encoding_sorts_object_keys() {
        let a = Json::parse("{\"z\":1,\"a\":2}").unwrap();
        let b = Json::parse("{\"a\":2,\"z\":1}").unwrap();
        assert_eq!(a.encode(), b.encode());
        assert_eq!(a.encode(), "{\"a\":2,\"z\":1}");
    }

    #[test]
    fn rejects_garbage_with_typed_errors() {
        assert_eq!(Json::parse(""), Err(JsonError::Truncated));
        assert_eq!(Json::parse("{\"a\":"), Err(JsonError::Truncated));
        assert_eq!(Json::parse("\"unterminated"), Err(JsonError::Truncated));
        assert!(matches!(
            Json::parse("nul"),
            Err(JsonError::Truncated | JsonError::Unexpected { .. })
        ));
        assert!(matches!(
            Json::parse("{]"),
            Err(JsonError::Unexpected { .. })
        ));
        assert!(matches!(
            Json::parse("1 2"),
            Err(JsonError::TrailingBytes { .. })
        ));
        assert!(matches!(
            Json::parse("1e999"),
            Err(JsonError::BadNumber { .. })
        ));
        assert!(matches!(
            Json::parse("\"\\q\""),
            Err(JsonError::BadEscape { .. })
        ));
    }

    #[test]
    fn depth_cap_is_a_typed_error_not_a_stack_overflow() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert_eq!(
            Json::parse(&deep),
            Err(JsonError::TooDeep { max: MAX_DEPTH })
        );
    }

    #[test]
    fn unicode_escapes_including_surrogate_pairs() {
        assert_eq!(
            Json::parse("\"\\u0041\\ud83d\\ude00\"").unwrap(),
            Json::Str("A😀".to_string())
        );
        assert!(matches!(
            Json::parse("\"\\ud83d\""),
            Err(JsonError::BadEscape { .. })
        ));
    }

    #[test]
    fn u64_accessor_rejects_lossy_numbers() {
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(0.5).as_u64(), None);
        assert_eq!(Json::Num(1.0e19).as_u64(), None);
    }
}
