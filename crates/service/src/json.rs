//! A small self-contained JSON reader/writer for the wire protocol.
//!
//! The build environment has no serde, and the protocol only needs
//! numbers, strings, booleans, arrays and flat-ish objects, so this
//! module implements just enough of RFC 8259: full escape handling on
//! strings, `f64` numbers, and recursive arrays/objects. Object keys
//! keep insertion order (a `Vec` of pairs — the protocol never has
//! enough keys for a map to win).

use crate::error::{Result, ServiceError};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`; the protocol's integers stay
    /// exact up to 2^53, far beyond any session id or count here).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integral number.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|n| n as usize)
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serializes compact JSON into a caller-owned buffer (appended,
    /// not cleared) — the connection loop reuses one response `String`
    /// across requests instead of allocating a fresh one per reply.
    pub fn write_json(&self, out: &mut String) {
        self.write(out);
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Number(n) => write_number(*n, out),
            Value::String(s) => write_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Number(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Number(n as f64)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::Number(n as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no Infinity/NaN; null is the conventional stand-in.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Maximum container nesting the parser accepts. The protocol needs 3
/// levels; the cap exists because the parser recurses per level, and an
/// unauthenticated peer must not be able to overflow the stack (and
/// abort the process) with a line of repeated `[`.
const MAX_DEPTH: usize = 64;

/// Parses one JSON document, rejecting trailing garbage.
pub fn parse(input: &str) -> Result<Value> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ServiceError {
        ServiceError::Protocol(format!("{msg} (at byte {})", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting deeper than 64 levels"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Fast path: plain integers — the overwhelmingly common case on
        // the ingest hot path, where a submit line is mostly record
        // arrays of small integers — accumulate directly instead of
        // slicing through UTF-8 validation and the general f64 parser.
        let digits_start = self.pos;
        let mut int: u64 = 0;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            // 19+ digits could overflow u64; punt to the slow path.
            if self.pos - digits_start >= 18 {
                break;
            }
            int = int * 10 + u64::from(d - b'0');
            self.pos += 1;
        }
        match self.peek() {
            Some(b'.' | b'e' | b'E' | b'0'..=b'9' | b'+' | b'-') => {}
            _ if self.pos > digits_start => {
                let n = int as f64;
                return Ok(Value::Number(if negative { -n } else { n }));
            }
            _ => return Err(self.err("malformed number")),
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\` at
                    // once. Both delimiters are ASCII, so they never
                    // fall inside a multi-byte UTF-8 sequence and the
                    // run ends on a char boundary of the input.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |run| self.pos + run);
                    out.push_str(&self.text[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char> {
        // self.pos is on the 'u'.
        let hex4 = |p: &Self, at: usize| -> Result<u32> {
            let slice = p
                .bytes
                .get(at..at + 4)
                .ok_or_else(|| p.err("truncated \\u escape"))?;
            let s = std::str::from_utf8(slice).map_err(|_| p.err("invalid \\u escape"))?;
            u32::from_str_radix(s, 16).map_err(|_| p.err("invalid \\u escape"))
        };
        let hi = hex4(self, self.pos + 1)?;
        self.pos += 5;
        if (0xd800..0xdc00).contains(&hi) {
            // Surrogate pair.
            if self.bytes.get(self.pos) == Some(&b'\\')
                && self.bytes.get(self.pos + 1) == Some(&b'u')
            {
                let lo = hex4(self, self.pos + 2)?;
                if !(0xdc00..0xe000).contains(&lo) {
                    return Err(self.err("high surrogate not followed by a low surrogate"));
                }
                self.pos += 6;
                let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                return char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("lone high surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u codepoint"))
    }

    fn array(&mut self) -> Result<Value> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Convenience constructor for object values.
pub fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        parse(&v.to_json()).unwrap()
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" -12.5e2 ").unwrap(), Value::Number(-1250.0));
        assert_eq!(
            parse("\"a\\nb\\u0041\"").unwrap(),
            Value::String("a\nbA".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"op":"submit","records":[[0,1],[2,3]],"ok":true}"#).unwrap();
        assert_eq!(v.get("op").and_then(Value::as_str), Some("submit"));
        let records = v.get("records").and_then(Value::as_array).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].as_array().unwrap()[0].as_u64(), Some(2));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\"1}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn roundtrips_structures() {
        let v = object(vec![
            ("id", 7u64.into()),
            ("name", "γ-diagonal \"quoted\"\n".into()),
            (
                "counts",
                Value::Array(vec![1.5.into(), Value::Null, true.into()]),
            ),
            ("nested", object(vec![("k", Value::Array(vec![]))])),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn integers_serialize_without_fraction() {
        assert_eq!(Value::Number(3.0).to_json(), "3");
        assert_eq!(Value::Number(3.25).to_json(), "3.25");
        assert_eq!(Value::Number(f64::NAN).to_json(), "null");
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::String("😀".into())
        );
    }

    #[test]
    fn string_runs_keep_multibyte_text_escapes_and_surrogates_intact() {
        for (input, want) in [
            ("\"héllo wörld 日本\"", "héllo wörld 日本"),
            ("\"€\\\"😀\\\\ß\\n\"", "€\"😀\\ß\n"),
            ("\"\\u00e9é\\ud83d\\ude00😀x\"", "éé😀😀x"),
            ("\"a\\/b\\tc\\u0041\"", "a/b\tcA"),
            ("\"\"", ""),
        ] {
            assert_eq!(parse(input).unwrap(), Value::String(want.into()), "{input}");
        }
        let doc = parse("{\"ключ\":[\"значение\",\"\\\"日\\\"\"]}").unwrap();
        assert_eq!(
            doc.get("ключ").unwrap().as_array().unwrap()[1].as_str(),
            Some("\"日\"")
        );
        // Errors keep their text and byte offset.
        for (bad, msg) in [
            ("\"héllo", "unterminated string (at byte 7)"),
            ("\"日本\\", "invalid escape (at byte 8)"),
            ("\"é\\q\"", "invalid escape (at byte 4)"),
            ("\"😀\\ud83d\"", "lone high surrogate (at byte 11)"),
            (
                "\"ab\" x",
                "trailing characters after JSON value (at byte 5)",
            ),
        ] {
            let err = parse(bad).unwrap_err().to_string();
            assert!(err.ends_with(msg), "{bad}: {err}");
        }
    }

    #[test]
    fn invalid_surrogate_sequences_error_without_panicking() {
        // High surrogate followed by a non-surrogate escape must be a
        // parse error, not a u32 underflow panic.
        for bad in ["\"\\ud800\\u0041\"", "\"\\ud800x\"", "\"\\ud800\\ud801\""] {
            assert!(parse(bad).is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn nesting_is_depth_limited_instead_of_overflowing_the_stack() {
        // Within the limit: fine.
        let shallow = format!("{}0{}", "[".repeat(60), "]".repeat(60));
        assert!(parse(&shallow).is_ok());
        // A hostile line of brackets must produce an error, not recurse
        // until the thread stack aborts the process.
        let deep = "[".repeat(500_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        let mixed = "{\"k\":".repeat(200).to_string() + "1";
        assert!(parse(&mixed).is_err());
    }

    #[test]
    fn u64_extraction_guards_range_and_fraction() {
        assert_eq!(Value::Number(1.5).as_u64(), None);
        assert_eq!(Value::Number(-1.0).as_u64(), None);
        assert_eq!(Value::Number(42.0).as_u64(), Some(42));
    }
}
