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
//! a request's `records` through it straight into a flat batch, and
//! `read_counts` a count array (a snapshot shard's, a `counts`
//! answer's) into a vector, with no tree. All report the same syntax
//! error texts and byte offsets.

use crate::error::{Result, ServiceError};
use std::borrow::Cow;
use std::fmt::Write as _;

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
    if n == 0.0 {
        // About half of a clamped answer's estimates: one byte, before
        // any other test (`-0.0` too, which the integer path below would
        // also print as `0`).
        out.push('0');
    } else if !n.is_finite() {
        // JSON has no Infinity/NaN; null is the conventional stand-in.
        out.push_str("null");
    } else if n.abs() < EXACT_INTEGERS && int as f64 == n {
        if int < 0 {
            out.push('-');
        }
        write_u64(int.unsigned_abs(), out);
    } else {
        // std's `Display`: the shortest decimal that parses back to `n`,
        // in plain notation (never an exponent).
        let _ = write!(out, "{n}");
    }
}

/// "00" "01" … "99": integers print two digits per division.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `m` in decimal: the one integer writer. Response numbers
/// ([`write_number`]), the client's request cells
/// (`client::write_submit_fields`) and the snapshot format's integers
/// all print through it.
pub(crate) fn write_u64(m: u64, out: &mut String) {
    let mut text = Text::new();
    text.digits(m);
    out.push_str(text.as_str());
}

/// An integer's digits, built right to left at the end of a stack
/// buffer that only ever holds ASCII: it starts as `0`s and receives
/// only bytes of [`DIGIT_PAIRS`].
struct Text {
    /// Room for `u64::MAX`.
    bytes: [u8; 20],
    /// Where the text starts; it runs to the end of `bytes`.
    start: usize,
}

impl Text {
    fn new() -> Self {
        Text {
            bytes: [b'0'; 20],
            start: 20,
        }
    }

    /// Prepends `m` in decimal.
    fn digits(&mut self, mut m: u64) {
        while m >= 100 {
            self.pair(m % 100);
            m /= 100;
        }
        if m >= 10 {
            self.pair(m);
        } else {
            self.digit(m);
        }
    }

    /// Prepends the two digits of `m < 100`.
    fn pair(&mut self, m: u64) {
        let pair = m as usize * 2;
        self.prepend(&DIGIT_PAIRS[pair..pair + 2]);
    }

    /// Prepends the digit `m < 10`.
    fn digit(&mut self, m: u64) {
        let pair = m as usize * 2;
        self.prepend(&DIGIT_PAIRS[pair + 1..pair + 2]);
    }

    /// Prepends ASCII digits.
    fn prepend(&mut self, bytes: &[u8]) {
        let start = self.start - bytes.len();
        self.bytes[start..self.start].copy_from_slice(bytes);
        self.start = start;
    }

    fn as_str(&self) -> &str {
        // SAFETY: `bytes` is all ASCII: it starts as `0`s and only
        // receives bytes copied from `DIGIT_PAIRS`. (Validating instead
        // about doubles the time per number on a counts answer.)
        unsafe { std::str::from_utf8_unchecked(&self.bytes[self.start..]) }
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

/// An object's members as small [`Value`]s, in document order, as
/// [`Reader::members`] reads them. A key borrows the text unless it has
/// escapes. HTTP appends a request's query parameters.
#[derive(Debug, Default)]
pub(crate) struct Fields<'a>(pub(crate) Vec<(Cow<'a, str>, Value)>);

impl Fields<'_> {
    /// The first member named `key`, as with [`Value::get`].
    pub(crate) fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// An object's members other than its bulk member, and its first bulk
/// member: decoded, or why it is not one.
pub(crate) type Members<'a, B> = (Fields<'a>, Option<Result<B>>);

/// [`Reader::members`] on a whole document, which must end after the
/// value.
pub(crate) fn read_members<'a, B>(
    text: &'a str,
    key: &str,
    bulk: impl FnMut(&mut Reader<'a>) -> Result<Result<B>>,
) -> Result<Members<'a, B>> {
    let mut r = Reader::new(text);
    let members = r.members(key, bulk)?;
    r.end()?;
    Ok(members)
}

/// Reads an array of counts into a vector: each item an integer below
/// 2^53, as [`write_number`] writes a whole count and [`Value::as_u64`]
/// accepts one. The run of plain integers of at most 15 digits (so
/// below 2^53) the writer emits is read at once, and whatever it stops
/// at item by item after it. The outer `Result` is the syntax, checked
/// to the array's end; `None` means the value is not an array or an
/// item is not such an integer. A snapshot shard's `counts` and a
/// `counts` answer are both read here.
pub(crate) fn read_counts(r: &mut Reader<'_>) -> Result<Option<Vec<f64>>> {
    if r.peek() != Some(b'[') {
        r.skip()?;
        return Ok(None);
    }
    r.begin_array()?;
    let (mut counts, mut integers) = (Vec::new(), true);
    if !r.uint_run::<15>(|c| counts.push(c as f64)) {
        while r.next_item()? {
            match r.uint()? {
                Some(c) => counts.push(c as f64),
                None => integers = false,
            }
        }
    }
    Ok(integers.then_some(counts))
}

/// A pull reader over one JSON document: the caller walks the document
/// token by token and builds only what it needs, while every syntax
/// rule, error text and byte offset stays the one [`parse`] (itself a
/// thin tree builder on this reader) reports.
///
/// Containers are read with `begin_object` then `next_key` until it
/// returns `None`, and `begin_array` then `next_item` until it returns
/// `false`; after each key or item the caller reads exactly one value
/// (`value`, `skip`, `uint` for an integer without a tree node, or a
/// nested container). Right after `begin_array`, `small_uints` reads a
/// run of small integers at once, and `digit_grid` a run of records of
/// one-digit cells, a word at a time. Each stops where `next_item` goes
/// on, so that a caller reads the rest the general way. Every read
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
        self.uint_run::<9>(|n| out.push(n as u32))
    }

    /// The run behind [`Self::small_uints`] and [`read_counts`]: items
    /// for as long as each is a plain integer of at most `DIGITS` digits
    /// followed directly by `,` or `]`, each passed to `push`. Returns
    /// and stops as [`Self::small_uints`] does.
    #[inline(always)]
    fn uint_run<const DIGITS: usize>(&mut self, mut push: impl FnMut(u64)) -> bool {
        let bytes = self.bytes();
        let mut item = self.pos;
        loop {
            let mut end = item;
            let mut n: u64 = 0;
            let follow = loop {
                match bytes.get(end) {
                    Some(&d @ b'0'..=b'9') => {
                        n = n.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
                        end += 1;
                    }
                    other => break other.copied(),
                }
            };
            let digits = end - item;
            let plain =
                digits == 1 || (digits > 1 && digits <= DIGITS && bytes.get(item) != Some(&b'0'));
            match follow {
                Some(b',') if plain => {
                    push(n);
                    self.pos = end;
                    self.opened = false;
                    item = end + 1;
                }
                Some(b']') if plain => {
                    push(n);
                    self.pos = end + 1;
                    self.opened = false;
                    self.depth -= 1;
                    return true;
                }
                _ => return false,
            }
        }
    }

    /// Right after [`Self::begin_array`] of an array of records: reads
    /// records for as long as each is `[d,d,…,d]` of one-digit cells,
    /// as many as the first record has, followed directly by `,` or
    /// `]`. That is every record the shipped clients write for a schema
    /// whose attributes have at most 10 values. A record and its
    /// separator are then 2·arity + 2 bytes, checked as little-endian
    /// words against [`GridWords`], built once from the first record;
    /// the last record, and one whose words would run past the text, are
    /// checked byte by byte. Appends each record's cells to `values` and
    /// its end to `offsets`, and returns whether that consumed the
    /// array's `]`. If not, the reader stops at the separator before the
    /// first record it did not take, or where it was if it took none,
    /// and [`Self::next_item`] goes on from there. A first record of more
    /// than [`GRID_MAX_ARITY`] cells is left to the caller too.
    pub(crate) fn digit_grid(&mut self, values: &mut Vec<u32>, offsets: &mut Vec<usize>) -> bool {
        let outcome = self.grid_records(values, offsets);
        #[cfg(test)]
        tests::note_grid(outcome.map(|(_, closed)| closed));
        match outcome {
            None => false,
            Some((end, closed)) => {
                self.opened = false;
                if closed {
                    self.pos = end;
                    self.depth -= 1;
                } else {
                    self.pos = end - 1;
                }
                closed
            }
        }
    }

    /// [`Self::digit_grid`]'s records: where the first record it did
    /// not take starts (or the array's end) and whether it read the
    /// array's `]`, or `None` if it took no record.
    fn grid_records(
        &self,
        values: &mut Vec<u32>,
        offsets: &mut Vec<usize>,
    ) -> Option<(usize, bool)> {
        let (bytes, start) = (self.bytes(), self.pos);
        let arity = grid_arity(bytes, start)?;
        // A record at the depth cap is the general path's error.
        if self.depth >= MAX_DEPTH || grid_record(bytes, start, arity).is_none() {
            return None;
        }
        let records = (bytes.len() - start) / (2 * arity + 2) + 1;
        values.reserve(records * arity);
        offsets.reserve(records);
        Some(match (arity + 1).div_ceil(4) {
            1 => grid_rows::<1>(bytes, start, arity, values, offsets),
            2 => grid_rows::<2>(bytes, start, arity, values, offsets),
            3 => grid_rows::<3>(bytes, start, arity, values, offsets),
            _ => grid_rows::<4>(bytes, start, arity, values, offsets),
        })
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

    /// Reads an object member by member: the first `key` member through
    /// `bulk`, which decodes it in place (the outer `Result` is the
    /// syntax, the inner one the decoded value or why it is not one),
    /// and every other member as a small [`Value`]. A later `key` member
    /// is only checked for syntax, so the first occurrence of each key
    /// counts, as with [`Value::get`]. A value that is not an object has
    /// no members.
    pub(crate) fn members<B>(
        &mut self,
        key: &str,
        mut bulk: impl FnMut(&mut Self) -> Result<Result<B>>,
    ) -> Result<Members<'a, B>> {
        let (mut fields, mut found) = (Fields::default(), None);
        if self.peek() != Some(b'{') {
            self.skip()?;
            return Ok((fields, found));
        }
        self.begin_object()?;
        while let Some(k) = self.next_key()? {
            if k != key {
                let value = self.value()?;
                fields.0.push((k, value));
            } else if found.is_none() {
                found = Some(bulk(self)?);
            } else {
                self.skip()?;
            }
        }
        Ok((fields, found))
    }

    /// Reads one value, and returns it if it is a number that
    /// [`Value::as_u64`] accepts.
    pub(crate) fn uint(&mut self) -> Result<Option<u64>> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => Ok(exact_u64(self.scan_number()?)),
            _ => self.skip().map(|()| None),
        }
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
    /// reported at its end. Always inlined: with `uint` as a second
    /// caller it would otherwise leave `value`, and `parse` slow down.
    #[inline(always)]
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

/// The most cells a record may have for [`Reader::digit_grid`] to read
/// it: 15 one-digit cells and their separators fill four words.
const GRID_MAX_ARITY: usize = 15;

/// The number of cells of the record at `at`, if it is `[d,d,…,d]` of
/// at most [`GRID_MAX_ARITY`] one-digit cells.
fn grid_arity(bytes: &[u8], at: usize) -> Option<usize> {
    let (&open, cells) = bytes.get(at..)?.split_first()?;
    if open != b'[' {
        return None;
    }
    for (i, &[digit, sep]) in cells.as_chunks::<2>().0.iter().enumerate() {
        match (digit.is_ascii_digit(), sep) {
            (true, b',') if i + 1 < GRID_MAX_ARITY => {}
            (true, b']') => return Some(i + 1),
            _ => return None,
        }
    }
    None
}

/// The record at `at` as `(digit, separator)` pairs, and the byte after
/// it, if the record is `arity` one-digit cells and that byte is `,` or
/// `]`: one record of a [`Reader::digit_grid`], checked byte by byte.
fn grid_record(bytes: &[u8], at: usize, arity: usize) -> Option<(&[[u8; 2]], u8)> {
    let (&open, rest) = bytes.get(at..at + 2 * arity + 2)?.split_first()?;
    let (&follow, cells) = rest.split_last()?;
    let cells = cells.as_chunks::<2>().0;
    let last = arity - 1;
    let record = cells.iter().enumerate().all(|(i, &[digit, sep])| {
        digit.is_ascii_digit() && sep == if i == last { b']' } else { b',' }
    });
    (open == b'[' && record && matches!(follow, b',' | b']')).then_some((cells, follow))
}

/// Reads records of `arity` one-digit cells from `at`, `W` words each,
/// as [`Reader::digit_grid`] does: returns where the first record it
/// did not take starts, or the end of the array and `true` once it read
/// the array's `]`.
fn grid_rows<const W: usize>(
    bytes: &[u8],
    mut at: usize,
    arity: usize,
    values: &mut Vec<u32>,
    offsets: &mut Vec<usize>,
) -> (usize, bool) {
    let words = GridWords::<W>::new(arity);
    let stride = 2 * arity + 2;
    loop {
        if let Some(digits) = words.digits(bytes, at) {
            values.extend_from_slice(digits.get(..arity).unwrap_or_default());
        } else if let Some((cells, follow)) = grid_record(bytes, at, arity) {
            values.extend(cells.iter().map(|&[digit, _]| u32::from(digit - b'0')));
            if follow == b']' {
                offsets.push(values.len());
                return (at + stride, true);
            }
        } else {
            return (at, false);
        }
        offsets.push(values.len());
        at += stride;
    }
}

/// The `W` little-endian words that hold one record of one-digit cells
/// and the `,` after it, as a template: byte `i` of the record is byte
/// `i % 8` of word `i / 8`, and every word holds a digit in its odd
/// bytes (lanes 1, 3, 5 and 7) until the record's `]`.
struct GridWords<const W: usize> {
    /// The bits `care` selects: `[`, every `,`, `]`, the trailing `,`,
    /// and the high nibble `3` of every digit. The bytes after the
    /// trailing `,` are the next record's, and not cared about.
    want: [u64; W],
    care: [u64; W],
    /// `0x0f` in every digit lane, whose low nibble must be below 10.
    digit: [u64; W],
}

impl<const W: usize> GridWords<W> {
    fn new(arity: usize) -> Self {
        let mut words = GridWords {
            want: [0; W],
            care: [0; W],
            digit: [0; W],
        };
        let lanes = words
            .want
            .iter_mut()
            .zip(&mut words.care)
            .zip(&mut words.digit);
        for (word, ((want, care), digit)) in lanes.enumerate() {
            for lane in 0..8 {
                let (byte, cared, low) = match 8 * word + lane {
                    0 => (b'[', 0xff, 0),
                    i if i < 2 * arity && i % 2 == 1 => (b'0', 0xf0, 0x0f),
                    i if i < 2 * arity => (b',', 0xff, 0),
                    i if i == 2 * arity => (b']', 0xff, 0),
                    i if i == 2 * arity + 1 => (b',', 0xff, 0),
                    _ => (0, 0, 0),
                };
                *want |= u64::from(byte) << (8 * lane);
                *care |= cared << (8 * lane);
                *digit |= low << (8 * lane);
            }
        }
        words
    }

    /// The cells of the record at `at`, four per word, if its words
    /// match the template: the first `arity` of them are the record's.
    #[inline(always)]
    fn digits(&self, bytes: &[u8], at: usize) -> Option<[u32; 16]> {
        const SIXES: u64 = 0x0606_0606_0606_0606;
        let record = bytes.get(at..at + 8 * W)?.as_chunks::<8>().0;
        let (mut bad, mut digits) = (0, [0u32; 16]);
        let template = self.want.iter().zip(&self.care).zip(&self.digit);
        let out = digits.as_chunks_mut::<4>().0;
        for ((bytes, ((&want, &care), &digit)), out) in record.iter().zip(template).zip(out) {
            let word = u64::from_le_bytes(*bytes);
            // A lane's low nibble plus 6 carries into its high nibble,
            // and never past the lane, exactly when it is 10 or more.
            bad |= (word & care) ^ want | ((word & digit) + (digit & SIXES)) & (digit << 4);
            *out = [8, 24, 40, 56].map(|shift| (word >> shift) as u32 & 0xf);
        }
        (bad == 0).then_some(digits)
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
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// How many [`Reader::digit_grid`] passes on this thread took
        /// no record, stopped inside the array, and read the whole
        /// array.
        pub(crate) static GRID_OUTCOMES: Cell<[usize; 3]> = const { Cell::new([0; 3]) };
    }

    pub(super) fn note_grid(closed: Option<bool>) {
        GRID_OUTCOMES.with(|n| {
            let mut counts = n.get();
            counts[closed.map_or(0, |closed| 1 + usize::from(closed))] += 1;
            n.set(counts);
        });
    }

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

    /// `text` read with [`read_counts`], which must leave the reader at
    /// the document's end.
    fn counts_of(text: &str) -> Option<Vec<f64>> {
        let mut r = Reader::new(text);
        let counts = read_counts(&mut r).unwrap();
        r.end().unwrap();
        counts
    }

    #[test]
    fn a_count_run_stops_where_next_item_goes_on() {
        let max = (1u64 << 53) - 1;
        for (text, want) in [
            ("[]", Some(vec![])),
            ("[0]", Some(vec![0.0])),
            ("[1,2 ,3]", Some(vec![1.0, 2.0, 3.0])),
            ("[ 1,2]", Some(vec![1.0, 2.0])),
            // Past the run's 15 digits, `uint` reads up to 2^53 - 1.
            (
                "[999999999999999,1000000000000000,9007199254740991]",
                Some(vec![999_999_999_999_999.0, 1e15, max as f64]),
            ),
            // Forms `Value::as_u64` accepts: an exponent, `-0`, `.0`.
            ("[7,1e2,-0,2.0]", Some(vec![7.0, 100.0, 0.0, 2.0])),
            // Not integers below 2^53: refused, the array still read.
            ("[1,9007199254740992]", None),
            ("[9007199254740993,1]", None),
            ("[1,0.5]", None),
            ("[-1]", None),
            ("[1,null,\"2\"]", None),
            ("[[1]]", None),
            ("{\"counts\":[1]}", None),
            ("3", None),
        ] {
            assert_eq!(counts_of(text), want, "{text}");
        }
        // A malformed item is the general path's error, at its offset.
        for text in ["[1,01]", "[1,2,]", "[1 2]", "[1,"] {
            let mut r = Reader::new(text);
            let err = read_counts(&mut r).unwrap_err();
            let want = parse(text).unwrap_err();
            assert_eq!(err.to_string(), want.to_string(), "{text}");
        }
    }

    /// The inputs on which `write_number` differs from the `format!`
    /// writer it replaced.
    fn mismatches(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
        let mut out = String::new();
        let mut differs = |x: f64| {
            out.clear();
            write_number(x, &mut out);
            out != format_number(x)
        };
        values.into_iter().filter(|&x| differs(x)).collect()
    }

    fn assert_none(mismatched: Vec<f64>) {
        assert!(
            mismatched.is_empty(),
            "{} mismatches, first {:?}",
            mismatched.len(),
            &mismatched[..mismatched.len().min(8)]
        );
    }

    /// SplitMix64 bit patterns from a fixed seed.
    fn random_bits(seed: u64) -> impl Iterator<Item = u64> {
        let mut state = seed;
        std::iter::repeat_with(move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
    }

    fn with_negatives(values: Vec<f64>) -> Vec<f64> {
        values.iter().flat_map(|&x| [x, -x]).collect()
    }

    /// Significand bits of an `f64`, without the implicit leading one.
    const MANTISSA_BITS: u32 = 52;

    #[test]
    fn random_bit_patterns_print_as_format_does() {
        // Every exponent, NaN and ±inf included (about 1 in 2048).
        assert_none(mismatches(random_bits(1).take(100_000).map(f64::from_bits)));
    }

    #[test]
    fn powers_of_two_and_their_predecessors_print_as_format_does() {
        let mut values = Vec::new();
        for e in -1074..=1023 {
            let bits = if e >= -1022 {
                ((e + 1023) as u64) << MANTISSA_BITS
            } else {
                1 << (e + 1074)
            };
            values.push(f64::from_bits(bits));
            values.push(f64::from_bits(bits - 1));
        }
        assert_eq!(values.len(), 2 * 2098);
        assert_none(mismatches(with_negatives(values)));
    }

    #[test]
    fn subnormals_and_the_integer_boundary_print_as_format_does() {
        let top = 1u64 << MANTISSA_BITS;
        let subnormal_bits = (1..=2000)
            .chain(top - 2000..top)
            .chain(random_bits(3).take(10_000).map(|b| b % top));
        let mut values: Vec<f64> = subnormal_bits.map(f64::from_bits).collect();
        // Ulp-neighbours of 2^53 and 2^52 (the integer path ends at 2^53,
        // and below 2^52 halves exist), every integer up to 1000, and
        // powers of ten and their neighbours.
        for boundary in [EXACT_INTEGERS, EXACT_INTEGERS / 2.0] {
            let bits = boundary.to_bits();
            values.extend((bits - 64..=bits + 64).map(f64::from_bits));
        }
        values.extend((0..=1000).map(f64::from));
        let mut power = 1.0;
        for _ in 0..=22 {
            values.extend([power - 1.0, power, power + 1.0, power + 0.5, 1.0 / power]);
            power *= 10.0;
        }
        assert_none(mismatches(with_negatives(values)));
        // The last integer, the first float-path integer, the smallest
        // subnormal.
        let mut out = String::new();
        for x in [EXACT_INTEGERS - 1.0, -EXACT_INTEGERS, f64::from_bits(1)] {
            write_number(x, &mut out);
            out.push(' ');
        }
        let tiny = format!("0.{}5", "0".repeat(323));
        assert_eq!(out, format!("9007199254740991 -9007199254740992 {tiny} "));
    }

    #[test]
    fn integers_print_as_format_does() {
        // Every digit count, and both sides of each power of ten.
        let mut values: Vec<u64> = vec![0, u64::MAX];
        let mut power = 1u64;
        for _ in 0..20 {
            values.extend([power - 1, power, power + 1, power.wrapping_mul(7) / 3]);
            power = power.wrapping_mul(10);
        }
        values.extend(random_bits(5).take(100_000).map(|b| b >> (b % 64)));
        let mut out = String::new();
        for m in values {
            out.clear();
            write_u64(m, &mut out);
            assert_eq!(out, m.to_string());
        }
    }

    #[test]
    fn exact_ties_round_up_as_format_does() {
        // In [2^50, 2^51) the spacing is 0.25, so k + 0.25 and k + 0.75
        // need 17 digits and sit exactly halfway between two of them;
        // PROTOCOL.md §2 gives this one as its example.
        let mut out = String::new();
        write_number(2181495296738027.0 + 0.25, &mut out);
        assert_eq!(out, "2181495296738027.3");
        let ties = random_bits(4).take(10_000).flat_map(|b| {
            let k = ((1u64 << 50) + b % (1 << 50)) as f64;
            [k + 0.25, k + 0.75]
        });
        assert_none(mismatches(with_negatives(ties.collect())));
    }

    #[test]
    fn zeros_and_non_finite_values() {
        let mut out = String::new();
        for x in [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            write_number(x, &mut out);
            out.push(' ');
        }
        assert_eq!(out, "0 0 null null null ");
        assert_none(mismatches([
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ]));
    }
}
