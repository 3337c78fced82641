//! A small self-contained JSON reader/writer for the wire protocol.
//!
//! The build environment has no serde, and the protocol only needs
//! numbers, strings, booleans, arrays and flat-ish objects, so this
//! module implements just enough of RFC 8259, and reads exactly its
//! grammar: full escape handling on strings, `f64` numbers, and
//! recursive arrays/objects. Object keys keep insertion order (a `Vec`
//! of pairs — the protocol never has enough keys for a map to win).
//!
//! One scanner reads every document: the pull reader `Reader`, which
//! lets a caller walk a document token by token. [`parse`] is the tree
//! builder on it; the request decoder (`protocol::read_request`) reads
//! a request's `records` through it straight into a flat batch, with
//! no tree. Both report the same error texts and byte offsets.

use crate::error::{Result, ServiceError};
use std::borrow::Cow;

mod float;

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

    /// The value as a `u64`, if it is a non-negative integral number
    /// below 2^53. Larger numbers are refused, not rounded: 2^53 + 1
    /// parses to the same `f64` as 2^53.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
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

/// 2^53: every integer of smaller magnitude is exact in an `f64`.
const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;

/// `n` as a `u64` when it is a non-negative integer below 2^53, where
/// every integer is exact.
fn exact_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n < EXACT_INTEGERS).then_some(n as u64)
}

/// Appends a number as every response writes it (PROTOCOL.md §2): an
/// integral value of magnitude below 2^53 as an integer, any other
/// finite value as its shortest round-trip plain decimal, and a
/// non-finite one as `null`.
pub(crate) fn write_number(n: f64, out: &mut String) {
    let int = n as i64;
    if !n.is_finite() {
        // JSON has no Infinity/NaN; null is the conventional stand-in.
        out.push_str("null");
    } else if n.abs() < EXACT_INTEGERS && int as f64 == n {
        // -0.0 lands here too, and prints as `0`.
        if int < 0 {
            out.push('-');
        }
        float::write_u64(int.unsigned_abs(), out);
    } else {
        float::write_f64(n, out);
    }
}

/// The number writer before [`write_number`] had its own digit code,
/// kept as the reference its tests compare against.
#[cfg(test)]
pub(crate) fn format_number(n: f64) -> String {
    if !n.is_finite() {
        "null".to_owned()
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Appends `s` as a JSON string literal.
pub(crate) fn write_string(s: &str, out: &mut String) {
    const HEX: &str = "0123456789abcdef";
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                // `\u00XX`, whose high digit is 0 or 1.
                out.push_str(if (c as u32) < 0x10 {
                    "\\u000"
                } else {
                    "\\u001"
                });
                let low = c as usize & 0xf;
                out.push_str(&HEX[low..=low]);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Maximum container nesting the reader accepts. The protocol needs 3
/// levels; the cap exists because the tree builder recurses per level,
/// and an unauthenticated peer must not be able to
/// overflow the stack (and abort the process) with a line of repeated
/// `[`.
const MAX_DEPTH: usize = 64;

/// Parses one JSON document, rejecting trailing garbage.
pub fn parse(input: &str) -> Result<Value> {
    let mut r = Reader::new(input);
    let v = r.value()?;
    r.end()?;
    Ok(v)
}

/// A pull reader over one JSON document: the caller walks the document
/// token by token and builds only what it needs, while every syntax
/// rule, error text and byte offset stays the one [`parse`] (itself a
/// thin tree builder on this reader) reports.
///
/// Containers are read with `begin_object` then `next_key` until it
/// returns `None`, and `begin_array` then `next_item` until it returns
/// `false`; after each key or item the caller reads exactly one value
/// (`value`, `skip` or a nested container). Right after `begin_array`,
/// `small_uints` reads a run of small integers at once. Every read
/// skips leading whitespace.
#[derive(Clone)]
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
    /// A container was just begun: its first `next_*` call expects a
    /// member or the closing bracket, not a separator.
    opened: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub(crate) fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
            opened: false,
        }
    }

    #[inline(always)]
    fn err(&self, msg: &str) -> ServiceError {
        error_at(self.pos, msg)
    }

    #[inline(always)]
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    #[inline]
    fn at(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.at(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace and returns the next byte without consuming it.
    #[inline]
    pub(crate) fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.at()
    }

    /// The end of the document: only whitespace may follow.
    pub(crate) fn end(&mut self) -> Result<()> {
        self.skip_ws();
        if self.pos == self.bytes().len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after JSON value"))
        }
    }

    #[inline]
    fn eat(&mut self, b: u8) -> Result<()> {
        if self.at() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(error_at(self.pos, &format!("expected '{}'", b as char)))
        }
    }

    #[inline(always)]
    fn open(&mut self, bracket: u8) -> Result<()> {
        self.skip_ws();
        if self.depth >= MAX_DEPTH && self.at() == Some(bracket) {
            return Err(self.err("nesting deeper than 64 levels"));
        }
        self.eat(bracket)?;
        self.depth += 1;
        self.opened = true;
        Ok(())
    }

    /// Whether the container has another member: consumes the `,` that
    /// separates it from the last one, or the closing bracket (`false`).
    #[inline(always)]
    fn another(&mut self, close: u8, expected: &str) -> Result<bool> {
        self.skip_ws();
        let pos = self.pos;
        let first = std::mem::take(&mut self.opened);
        match self.bytes().get(pos) {
            Some(&b) if b == close => {
                self.pos = pos + 1;
                self.depth -= 1;
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos = pos + 1;
                Ok(true)
            }
            _ if first => Ok(true),
            _ => Err(error_at(pos, expected)),
        }
    }

    /// Consumes the `{` of an object.
    pub(crate) fn begin_object(&mut self) -> Result<()> {
        self.open(b'{')
    }

    /// The object's next key (with its `:` consumed), or `None` once
    /// its `}` is consumed. Keys without escapes borrow the input.
    pub(crate) fn next_key(&mut self) -> Result<Option<Cow<'a, str>>> {
        if !self.another(b'}', "expected ',' or '}'")? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.eat(b':')?;
        Ok(Some(key))
    }

    /// Consumes the `[` of an array.
    #[inline(always)]
    pub(crate) fn begin_array(&mut self) -> Result<()> {
        self.open(b'[')
    }

    /// Whether the array has another item to read; `false` once its `]`
    /// is consumed.
    #[inline(always)]
    pub(crate) fn next_item(&mut self) -> Result<bool> {
        // The common case: a `,` right after the last item.
        if !self.opened && self.at() == Some(b',') {
            self.pos += 1;
            return Ok(true);
        }
        self.another(b']', "expected ',' or ']'")
    }

    /// Right after [`Self::begin_array`]: reads the array's items for
    /// as long as each is a plain integer of at most nine digits (so
    /// below 2^32) followed directly by `,` or `]`, as every record value
    /// of a compact submit is, and appends them to `out`. Returns whether
    /// that consumed the array's `]`. If not, the reader stops before the
    /// separator after the last item it read, where [`Self::next_item`]
    /// goes on, so that the caller reads any other item the general way.
    #[inline(always)]
    pub(crate) fn small_uints(&mut self, out: &mut Vec<u32>) -> bool {
        let bytes = self.bytes();
        let mut item = self.pos;
        loop {
            let mut end = item;
            let mut n: u32 = 0;
            let follow = loop {
                match bytes.get(end) {
                    Some(&d @ b'0'..=b'9') => {
                        n = n.wrapping_mul(10).wrapping_add(u32::from(d - b'0'));
                        end += 1;
                    }
                    other => break other.copied(),
                }
            };
            let digits = end - item;
            let plain =
                digits == 1 || (digits > 1 && digits <= 9 && bytes.get(item) != Some(&b'0'));
            match follow {
                Some(b',') if plain => {
                    out.push(n);
                    self.pos = end;
                    self.opened = false;
                    item = end + 1;
                }
                Some(b']') if plain => {
                    out.push(n);
                    self.pos = end + 1;
                    self.opened = false;
                    self.depth -= 1;
                    return true;
                }
                _ => return false,
            }
        }
    }

    /// Reads one value into a tree.
    pub(crate) fn value(&mut self) -> Result<Value> {
        Ok(match self.peek() {
            Some(b'{') => {
                self.begin_object()?;
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key()? {
                    let value = self.value()?;
                    pairs.push((key.into_owned(), value));
                }
                Value::Object(pairs)
            }
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Value::Array(items)
            }
            Some(b'"') => Value::String(self.string()?.into_owned()),
            Some(b'-' | b'0'..=b'9') => Value::Number(self.scan_number()?),
            _ => self.scalar()?,
        })
    }

    /// Reads past one value, checking its syntax.
    pub(crate) fn skip(&mut self) -> Result<()> {
        self.value().map(drop)
    }

    /// A literal, or the error for a byte no value starts with.
    fn scalar(&mut self) -> Result<Value> {
        match self.at() {
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    /// The number at `pos`. A plain integer — the common case — is
    /// accumulated as its digits are read; any other number is read as
    /// a run of number bytes for the `f64` parser. A run outside RFC
    /// 8259's grammar (`01`, `1.`, `-.5`, `1e`, `1.2.3`) is malformed,
    /// reported at its end.
    fn scan_number(&mut self) -> Result<f64> {
        let start = self.pos;
        let negative = self.at() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits_start = self.pos;
        let mut int: u64 = 0;
        while let Some(d @ b'0'..=b'9') = self.at() {
            int = int.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            self.pos += 1;
        }
        // RFC 8259 wants an integer part without a leading zero, and a
        // digit after a `.`; `str::parse` checks the rest of the run.
        let digits = self.pos - digits_start;
        let rfc = (digits == 1 || (digits > 1 && self.bytes().get(digits_start) != Some(&b'0')))
            && (self.at() != Some(b'.')
                || matches!(self.bytes().get(self.pos + 1), Some(b'0'..=b'9')));
        if rfc && digits <= 18 && !matches!(self.at(), Some(b'.' | b'e' | b'E' | b'+' | b'-')) {
            // Below 10^18 the integer is exact in a u64.
            let n = int as f64;
            return Ok(if negative { -n } else { n });
        }
        while matches!(
            self.at(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        // The scan stopped on ASCII, so `pos` is a char boundary.
        match rfc {
            true => self.text[start..self.pos]
                .parse::<f64>()
                .map_err(|_| self.err("malformed number")),
            false => Err(self.err("malformed number")),
        }
    }

    /// Reads a string. One without escapes borrows the input.
    fn string(&mut self) -> Result<Cow<'a, str>> {
        let text = self.text;
        self.eat(b'"')?;
        let mut owned = String::new();
        loop {
            // The run up to the next `"`, `\` or control byte. All three
            // are ASCII, so they never fall inside a multi-byte UTF-8
            // sequence and the run ends on a char boundary of the input.
            let start = self.pos;
            self.pos = self.bytes()[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .map_or(self.bytes().len(), |run| start + run);
            let run = &text[start..self.pos];
            match self.at() {
                Some(b'"') => {
                    self.pos += 1;
                    // Every escape pushes a char, so an empty `owned`
                    // means the string had none.
                    if owned.is_empty() {
                        return Ok(Cow::Borrowed(run));
                    }
                    owned.push_str(run);
                    return Ok(Cow::Owned(owned));
                }
                Some(b'\\') => {
                    owned.push_str(run);
                    self.pos += 1;
                    let c = match self.at() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            owned.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    };
                    owned.push(c);
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char> {
        // self.pos is on the 'u'.
        let hex4 = |p: &Self, at: usize| -> Result<u32> {
            let slice = p
                .bytes()
                .get(at..at + 4)
                .ok_or_else(|| p.err("truncated \\u escape"))?;
            // Exactly four hex digits: no sign, as `from_str_radix` takes.
            slice
                .iter()
                .try_fold(0, |cp, &b| Some(cp * 16 + char::from(b).to_digit(16)?))
                .ok_or_else(|| p.err("invalid \\u escape"))
        };
        let hi = hex4(self, self.pos + 1)?;
        self.pos += 5;
        if (0xd800..0xdc00).contains(&hi) {
            // Surrogate pair.
            if self.bytes().get(self.pos) == Some(&b'\\')
                && self.bytes().get(self.pos + 1) == Some(&b'u')
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
}

/// The reader's error for `msg` at byte `pos`. A free function, so that
/// an error path does not take the reader's address, which would keep
/// its position out of registers on the hot paths.
#[cold]
#[inline(never)]
fn error_at(pos: usize, msg: &str) -> ServiceError {
    ServiceError::Protocol(format!("{msg} (at byte {pos})"))
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
            // RFC 8259 has no leading zeros, bare dots or raw control
            // characters: the whole number is read, then refused.
            ("01", "malformed number (at byte 2)"),
            ("[-012]", "malformed number (at byte 5)"),
            ("1.", "malformed number (at byte 2)"),
            ("[1.e5]", "malformed number (at byte 5)"),
            ("-.5", "malformed number (at byte 3)"),
            (".5", "unexpected character (at byte 0)"),
            ("1e", "malformed number (at byte 2)"),
            (
                "\"a\u{1}b\"",
                "unescaped control character in string (at byte 2)",
            ),
            (
                "{\"k\n\":1}",
                "unescaped control character in string (at byte 3)",
            ),
            ("\"\\u+041\"", "invalid \\u escape (at byte 2)"),
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
        // Below 2^53 every integer is exact; from there on, not.
        assert_eq!(
            parse("9007199254740991").unwrap().as_u64(),
            Some((1 << 53) - 1)
        );
        for big in ["9007199254740992", "9007199254740993", "1e300"] {
            assert_eq!(parse(big).unwrap().as_u64(), None, "{big}");
        }
    }

    /// Whether `s` is a number by RFC 8259's grammar:
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn is_rfc_number(s: &[u8]) -> bool {
        let mut i = usize::from(s.first() == Some(&b'-'));
        let digits = |i: &mut usize| {
            let from = *i;
            while s.get(*i).is_some_and(u8::is_ascii_digit) {
                *i += 1;
            }
            *i - from
        };
        let int = digits(&mut i);
        if int == 0 || (int > 1 && s.get(i - int) == Some(&b'0')) {
            return false;
        }
        if s.get(i) == Some(&b'.') {
            i += 1;
            if digits(&mut i) == 0 {
                return false;
            }
        }
        if matches!(s.get(i), Some(b'e' | b'E')) {
            i += 1;
            if matches!(s.get(i), Some(b'+' | b'-')) {
                i += 1;
            }
            if digits(&mut i) == 0 {
                return false;
            }
        }
        i == s.len()
    }

    #[test]
    fn numbers_are_read_by_exactly_the_rfc_grammar() {
        // Every string of up to five number bytes that can start a
        // number: accepted exactly when RFC 8259's grammar says so.
        let alphabet = "019.eE+-";
        let mut level = vec![String::new()];
        let mut checked = 0;
        for _ in 0..5 {
            level = level
                .iter()
                .flat_map(|t| alphabet.chars().map(move |c| format!("{t}{c}")))
                .collect();
            for text in level.iter().filter(|t| t.starts_with(['-', '0', '1', '9'])) {
                assert_eq!(
                    parse(text).is_ok(),
                    is_rfc_number(text.as_bytes()),
                    "{text}"
                );
                checked += 1;
            }
        }
        assert!(checked > 10_000, "{checked}");
    }

    #[test]
    fn numbers_keep_their_values_on_the_strict_grammar() {
        for (text, want) in [
            ("0", 0.0f64),
            ("-0", -0.0),
            ("10", 10.0),
            ("-7", -7.0),
            ("0.5", 0.5),
            ("-0.0e-0", -0.0),
            ("1E+2", 100.0),
            ("123456789012345678901234", 1.2345678901234568e23),
            ("9007199254740993", 9007199254740992.0),
        ] {
            let got = parse(text).unwrap().as_f64().unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{text}");
        }
    }
}
