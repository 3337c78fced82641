//! Per-connection wire framing, as a first-class abstraction.
//!
//! Every transport front-end used to own a private copy of its framing
//! logic: the threaded TCP listener scanned newlines in
//! [`crate::server`], the threaded HTTP listener parsed heads and
//! bodies in [`crate::http`], and the reactor re-implemented both as
//! resumable state machines in [`crate::reactor`]. This module unifies
//! them behind one trait, `FrameCodec`: a codec owns a connection's
//! framing state, consumes raw wire bytes, drives the shared
//! [`crate::dispatch`] core, and appends encoded response bytes — and
//! *both* connection drivers (the blocking thread-per-connection loop
//! here, the reactor's offload jobs) just pump bytes through it.
//!
//! Three framings share the stack:
//!
//! 1. **Line JSON** — one JSON request per `\n`-terminated line (the
//!    default on the raw TCP port).
//! 2. **HTTP/1.1** — heads, `Content-Length`/chunked bodies, keep-alive
//!    (the HTTP port).
//! 3. **Binary** — length-prefixed frames carrying either a compact
//!    binary submit ([`OP_SUBMIT`]) or a JSON-tunnelled request
//!    ([`OP_JSON`]), negotiated per connection with
//!    `{"op":"hello","framing":"binary"}`. The submit payload lands
//!    directly in a flat [`RecordBatch`] without any text parsing —
//!    the wire fast path for fan-in ingest.
//!
//! `docs/PROTOCOL.md` §6 is the normative spec for the binary frame
//! grammar; the opcode/flag constants (declared in [`crate::wire`]) are
//! checked against it by `tests/wire_table.rs`.

use crate::dispatch::{self, ConnState, Outcome};
use crate::error::{Result, ServiceError};
use crate::fault::{FaultAction, FaultSite};
use crate::http::{self, BodyFraming, ChunkDecoder, Head};
use crate::protocol::{placement, write_error_response, RecordBatch, Request, Submit, WireFraming};
use crate::server::{IdleTimer, Shared};
use crate::session::Placement;
use crate::wire::Counter;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

pub use crate::wire::{
    FLAG_DEFERRED, FLAG_FIXED32, FLAG_HAS_SHARD, FLAG_HAS_STAMP, FLAG_PRE_PERTURBED, OP_JSON,
    OP_SUBMIT,
};

/// Every flag bit the submit decoder understands; frames carrying any
/// other bit are refused as malformed rather than half-interpreted.
const KNOWN_FLAGS: u8 =
    FLAG_PRE_PERTURBED | FLAG_DEFERRED | FLAG_HAS_SHARD | FLAG_HAS_STAMP | FLAG_FIXED32;

/// The longest encoding of a `u64` varint (10 × 7 bits ≥ 64 bits).
const MAX_VARINT_BYTES: usize = 10;

/// Appends one LEB128 varint (7 data bits per byte, little-endian, high
/// bit = continuation) to `out`.
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint from the front of `input`. Returns
/// `Ok(Some((value, bytes_consumed)))` on a complete varint,
/// `Ok(None)` when `input` ends mid-varint (read more bytes and retry),
/// and an error on an overlong encoding that would overflow 64 bits.
pub fn read_varint(input: &[u8]) -> Result<Option<(u64, usize)>> {
    let mut value: u64 = 0;
    let mut shift: u32 = 0;
    for (i, &byte) in input.iter().enumerate() {
        let bits = u64::from(byte & 0x7f);
        if shift >= 64 || (shift == 63 && bits > 1) {
            return Err(ServiceError::Protocol("varint overflows 64 bits".into()));
        }
        value |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(Some((value, i + 1)));
        }
        shift += 7;
    }
    Ok(None)
}

/// Appends one [`OP_JSON`] frame carrying `json` (a complete request or
/// response object, no trailing newline) to `out`.
pub fn encode_json_frame(out: &mut Vec<u8>, json: &str) {
    out.push(OP_JSON);
    write_varint(out, json.len() as u64);
    out.extend_from_slice(json.as_bytes());
}

/// One [`OP_JSON`] frame carrying `json`.
pub(crate) fn json_frame(json: &str) -> Vec<u8> {
    let mut frame = Vec::with_capacity(json.len() + 8);
    encode_json_frame(&mut frame, json);
    frame
}

/// Appends one [`OP_SUBMIT`] frame to `out` — the client-side encoder
/// for the binary ingest fast path. All records must have the same
/// arity (the frame layout is rectangular); `fixed32` selects
/// four-byte little-endian cells over varints.
pub fn encode_submit_frame(
    out: &mut Vec<u8>,
    session: u64,
    records: &[Vec<u32>],
    pre_perturbed: bool,
    shard: Option<usize>,
    deferred: bool,
    fixed32: bool,
) {
    encode_submit_payload(
        out,
        session,
        records.iter(),
        pre_perturbed,
        placement(shard),
        deferred,
        fixed32,
    );
}

/// Appends one [`OP_SUBMIT`] frame carrying `records` to `out`: the one
/// encoder of a submit payload, for clients and federation forwarders
/// alike. A [`Placement::Shard`] writes the shard hint and a
/// [`Placement::Replicated`] the `(origin, seq)` stamp — the only place
/// [`FLAG_HAS_STAMP`] is ever set.
pub(crate) fn encode_submit_payload<R: AsRef<[u32]>>(
    out: &mut Vec<u8>,
    session: u64,
    records: impl ExactSizeIterator<Item = R>,
    pre_perturbed: bool,
    placement: Placement,
    deferred: bool,
    fixed32: bool,
) {
    let n_records = records.len();
    let mut records = records.peekable();
    let n_attrs = records.peek().map_or(0, |r| r.as_ref().len());
    // The placement's flag, and the varints it puts after the session.
    let (mut flags, placed) = match placement {
        Placement::RoundRobin => (0, [None, None]),
        Placement::Shard(shard) => (FLAG_HAS_SHARD, [Some(shard as u64), None]),
        Placement::Replicated { origin, seq } => (FLAG_HAS_STAMP, [Some(origin), Some(seq)]),
    };
    if pre_perturbed {
        flags |= FLAG_PRE_PERTURBED;
    }
    if deferred {
        flags |= FLAG_DEFERRED;
    }
    if fixed32 {
        flags |= FLAG_FIXED32;
    }
    let mut payload = Vec::with_capacity(16 + n_records * n_attrs * if fixed32 { 4 } else { 2 });
    payload.push(flags);
    write_varint(&mut payload, session);
    for field in placed.into_iter().flatten() {
        write_varint(&mut payload, field);
    }
    write_varint(&mut payload, n_records as u64);
    write_varint(&mut payload, n_attrs as u64);
    for record in records {
        let record = record.as_ref();
        debug_assert_eq!(record.len(), n_attrs, "submit frames are rectangular");
        for &cell in record {
            if fixed32 {
                payload.extend_from_slice(&cell.to_le_bytes());
            } else {
                write_varint(&mut payload, u64::from(cell));
            }
        }
    }
    out.reserve(payload.len() + MAX_VARINT_BYTES + 1);
    out.push(OP_SUBMIT);
    write_varint(out, payload.len() as u64);
    out.extend_from_slice(&payload);
}

/// A cursor over one complete frame payload. Truncation inside a
/// complete frame is a hard protocol error, never a retry.
struct PayloadReader<'a> {
    buf: &'a [u8],
}

impl<'a> PayloadReader<'a> {
    fn byte(&mut self) -> Result<u8> {
        match self.buf.split_first() {
            Some((&b, rest)) => {
                self.buf = rest;
                Ok(b)
            }
            None => Err(truncated()),
        }
    }

    fn varint(&mut self) -> Result<u64> {
        match read_varint(self.buf)? {
            Some((value, n)) => {
                self.buf = &self.buf[n..];
                Ok(value)
            }
            None => Err(truncated()),
        }
    }
}

fn truncated() -> ServiceError {
    ServiceError::Protocol("truncated field inside a complete submit frame".into())
}

/// The largest `origin` or `seq` a replication stamp may carry. The
/// receiving shard keeps its watermarks, and a snapshot stores them as
/// JSON integers, which load only below 2^53 (PROTOCOL.md §6.3): a
/// larger stamp would be acknowledged and then make the session's
/// snapshot unloadable.
const MAX_STAMP: u64 = (1 << 53) - 1;

/// The placement of a frame stamped `(origin, seq)`, or the protocol
/// error for a stamp past [`MAX_STAMP`].
fn stamp(origin: u64, seq: u64) -> Result<Placement> {
    if origin > MAX_STAMP || seq > MAX_STAMP {
        return Err(ServiceError::Protocol(format!(
            "replication stamp ({origin}, {seq}) is past 2^53 - 1"
        )));
    }
    Ok(Placement::Replicated { origin, seq })
}

/// Decodes one [`OP_SUBMIT`] payload into a [`Request::Submit`], the
/// cells landing directly in a flat [`RecordBatch`]. Every malformed
/// shape — truncated varints, unknown flags, cell counts that cannot
/// fit the payload, trailing garbage — is an error the connection
/// treats as fatal.
pub(crate) fn decode_submit_payload(payload: &[u8]) -> Result<Request> {
    let mut r = PayloadReader { buf: payload };
    let flags = r.byte()?;
    if flags & !KNOWN_FLAGS != 0 {
        return Err(ServiceError::Protocol(format!(
            "submit frame carries unknown flag bits {:#04x}",
            flags & !KNOWN_FLAGS
        )));
    }
    let session = r.varint()?;
    let shard = if flags & FLAG_HAS_SHARD != 0 {
        Some(r.varint()? as usize)
    } else {
        None
    };
    // A stamp wins over a hint: the forwarder's retry must land where
    // its first delivery did.
    let placement = if flags & FLAG_HAS_STAMP != 0 {
        let origin = r.varint()?;
        stamp(origin, r.varint()?)?
    } else {
        placement(shard)
    };
    let n_records = r.varint()? as usize;
    let n_attrs = r.varint()? as usize;
    // A schema has at least one attribute, so a zero-arity record can
    // never be valid — and its cells would not bound `n_records` below.
    if n_records > 0 && n_attrs == 0 {
        return Err(ServiceError::Protocol(format!(
            "submit frame declares {n_records} records of no attributes"
        )));
    }
    let cells = n_records
        .checked_mul(n_attrs)
        .ok_or_else(|| ServiceError::Protocol("submit frame cell count overflows".into()))?;
    let fixed32 = flags & FLAG_FIXED32 != 0;
    // Every remaining payload byte must belong to a cell (≥ 1 byte per
    // varint cell, exactly 4 per fixed32 cell), so an absurd declared
    // count is refused before any allocation happens.
    let remaining = r.buf.len();
    if (fixed32 && cells.checked_mul(4) != Some(remaining)) || (!fixed32 && remaining < cells) {
        return Err(ServiceError::Protocol(format!(
            "submit frame declares {cells} cells but carries {remaining} payload bytes"
        )));
    }
    // One pass over the grid into an exactly sized buffer. The two
    // whole-grid shapes cannot fail once the length check above holds:
    // fixed32 cells fill the payload exactly, and a varint grid of
    // `cells` bytes none of which continues a varint is `cells` one-byte
    // cells. Every other varint grid takes the per-cell loop, which
    // reports the first malformed cell and then any trailing bytes.
    let mut values = Vec::with_capacity(cells);
    let grid = r.buf;
    if fixed32 {
        values.extend(
            grid.as_chunks::<4>()
                .0
                .iter()
                .map(|&c| u32::from_le_bytes(c)),
        );
    } else if remaining == cells && grid.iter().fold(0, |high, &b| high | b) < 0x80 {
        values.extend(grid.iter().map(|&b| u32::from(b)));
    } else {
        for _ in 0..cells {
            let cell = match r.buf.split_first() {
                Some((&b, rest)) if b < 0x80 => {
                    r.buf = rest;
                    u32::from(b)
                }
                _ => {
                    let v = r.varint()?;
                    u32::try_from(v).map_err(|_| {
                        ServiceError::Protocol(format!("cell value {v} exceeds u32"))
                    })?
                }
            };
            values.push(cell);
        }
        if !r.buf.is_empty() {
            return Err(ServiceError::Protocol(format!(
                "{} trailing bytes after the last submit cell",
                r.buf.len()
            )));
        }
    }
    Ok(Request::Submit(Submit {
        session,
        records: RecordBatch::from_grid(values, n_attrs),
        pre_perturbed: flags & FLAG_PRE_PERTURBED != 0,
        placement,
        deferred: flags & FLAG_DEFERRED != 0,
    }))
}

/// What scanning the input buffer for one binary frame yielded.
enum Frame<'a> {
    /// A complete frame: its opcode, its payload, and the total frame
    /// size (header included) to consume.
    Complete {
        opcode: u8,
        payload: &'a [u8],
        frame_len: usize,
    },
    /// The buffer ends mid-header or mid-payload.
    NeedMore,
}

/// Scans the front of `input` for one complete binary frame. Oversized
/// lengths and overlong length varints are errors (the framing can no
/// longer be trusted); a partial frame is [`Frame::NeedMore`].
fn scan_frame(input: &[u8], max_payload: usize) -> Result<Frame<'_>> {
    let Some((&opcode, header)) = input.split_first() else {
        return Ok(Frame::NeedMore);
    };
    match read_varint(header)? {
        None => {
            // A length varint is at most MAX_VARINT_BYTES; a buffer
            // holding more than header-max bytes without terminating
            // one is hostile, not slow.
            if input.len() > 1 + MAX_VARINT_BYTES {
                return Err(ServiceError::Protocol(
                    "unterminated frame-length varint".into(),
                ));
            }
            Ok(Frame::NeedMore)
        }
        Some((len, len_bytes)) => {
            if len > max_payload as u64 {
                return Err(ServiceError::Protocol(format!(
                    "frame payload of {len} bytes exceeds the {max_payload}-byte limit"
                )));
            }
            let frame_len = 1 + len_bytes + len as usize;
            if input.len() < frame_len {
                return Ok(Frame::NeedMore);
            }
            Ok(Frame::Complete {
                opcode,
                payload: &input[1 + len_bytes..frame_len],
                frame_len,
            })
        }
    }
}

/// The verdict of one [`FrameCodec::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// A frame was consumed (and possibly answered); step again — more
    /// frames may already be buffered.
    Progress,
    /// No complete frame is buffered; read more bytes from the peer.
    NeedMore,
    /// The framing can no longer be trusted (oversized frame, invalid
    /// UTF-8 line, malformed binary frame): close the connection
    /// without a response, exactly as both front-ends always have.
    Fatal,
}

/// Connection-lifecycle flags a codec raises while stepping. The driver
/// flushes the output buffer first, then acts on them.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Signals {
    /// Close the connection once the pending output is flushed (HTTP
    /// `Connection: close`, in-band HTTP framing errors).
    pub(crate) close_after_flush: bool,
    /// A `shutdown` op was acknowledged: flush, then stop the server.
    pub(crate) shutdown_after_flush: bool,
}

/// A per-connection framing codec: scans frames out of the raw input
/// bytes, drives the shared dispatch core, and appends encoded response
/// bytes to `out`.
///
/// The contract both drivers rely on:
///
/// - `input[*consumed..]` is the unprocessed wire data; a codec
///   advances `*consumed` past every byte it has fully handled (the
///   caller drains the buffer afterwards). Partial progress is fine —
///   HTTP body bytes are consumed as they arrive, mid-frame.
/// - State is resumable: a codec returning [`Step::NeedMore`] picks up
///   exactly where it left off when more bytes arrive, which is what
///   lets the reactor run it incrementally.
/// - Responses are *appended* to `out` in wire order; the codec never
///   performs I/O itself, so the same implementation serves blocking
///   threads and the nonblocking reactor.
pub(crate) trait FrameCodec: Send {
    /// Processes at most one frame from `input[*consumed..]`.
    fn step(
        &mut self,
        shared: &Shared,
        input: &[u8],
        consumed: &mut usize,
        out: &mut Vec<u8>,
        signals: &mut Signals,
    ) -> Step;
}

/// The index in `buf` of the first `needle` at or after `from`.
/// `buf[..from]` is not read, so a codec that keeps how far a failed
/// search got resumes there when more bytes arrive, and a line that
/// comes in many reads is searched once. Word-at-a-time: a word holds
/// `needle` exactly when XOR-ing it out leaves a zero byte.
fn find_byte(buf: &[u8], from: usize, needle: u8) -> Option<usize> {
    const WORD: usize = std::mem::size_of::<usize>();
    const ONES: usize = usize::MAX / 0xff;
    const HIGHS: usize = ONES << 7;
    let pattern = ONES * usize::from(needle);
    let mut at = from;
    for chunk in buf[from..].chunks_exact(WORD) {
        // Always a whole word; `break` keeps the wire path panic-free.
        let Ok(bytes) = chunk.try_into() else { break };
        let word = usize::from_ne_bytes(bytes) ^ pattern;
        if word.wrapping_sub(ONES) & !word & HIGHS != 0 {
            break;
        }
        at += WORD;
    }
    let found = buf[at..].iter().position(|&b| b == needle).map(|i| at + i);
    #[cfg(test)]
    tests::SEARCHED.with(|n| n.set(n.get() + found.map_or(buf.len(), |i| i + 1) - from));
    found
}

/// The raw-TCP codec: starts in line-JSON framing and switches to the
/// binary framing when a `hello` negotiates it. Owns the connection's
/// deferred-submit watermark.
pub(crate) struct LineFraming {
    state: ConnState,
    mode: WireFraming,
    response: String,
    /// Bytes of the unfinished line already searched for its newline;
    /// zero whenever a line completes.
    scanned: usize,
}

impl LineFraming {
    pub(crate) fn new() -> Self {
        LineFraming {
            state: ConnState::new(),
            mode: WireFraming::Json,
            response: String::new(),
            scanned: 0,
        }
    }

    /// Encodes `self.response` per `outcome` in the *current* framing,
    /// applies any framing switch, and raises lifecycle signals.
    fn emit(
        &mut self,
        shared: &Shared,
        outcome: Outcome,
        out: &mut Vec<u8>,
        signals: &mut Signals,
    ) {
        match outcome {
            Outcome::Quiet => {}
            Outcome::Reply | Outcome::Shutdown | Outcome::SwitchFraming(_) => match self.mode {
                WireFraming::Json => {
                    out.reserve(self.response.len() + 1);
                    out.extend_from_slice(self.response.as_bytes());
                    out.push(b'\n');
                }
                WireFraming::Binary => encode_json_frame(out, &self.response),
            },
        }
        match outcome {
            Outcome::Shutdown => signals.shutdown_after_flush = true,
            Outcome::SwitchFraming(framing) => {
                // The acknowledgement above went out in the old framing;
                // everything after it speaks the new one.
                if framing == WireFraming::Binary && self.mode != WireFraming::Binary {
                    shared.transport.inc(Counter::BinaryConnections);
                }
                self.mode = framing;
            }
            _ => {}
        }
    }

    fn step_json(
        &mut self,
        shared: &Shared,
        input: &[u8],
        consumed: &mut usize,
        out: &mut Vec<u8>,
        signals: &mut Signals,
    ) -> Step {
        let rest = &input[*consumed..];
        let Some(pos) = find_byte(rest, self.scanned, b'\n') else {
            if rest.len() > http::MAX_LINE_BYTES {
                return Step::Fatal;
            }
            self.scanned = rest.len();
            return Step::NeedMore;
        };
        self.scanned = 0;
        if pos > http::MAX_LINE_BYTES {
            return Step::Fatal;
        }
        let Ok(text) = std::str::from_utf8(&rest[..pos]) else {
            return Step::Fatal;
        };
        *consumed += pos + 1;
        let line = text.trim();
        if line.is_empty() {
            return Step::Progress; // blank line: ignored, as always
        }
        shared.transport.inc(Counter::TcpRequests);
        self.response.clear();
        let outcome = dispatch::dispatch_into(
            &shared.registry,
            &shared.config,
            &shared.transport,
            shared.fed.as_deref(),
            Some(&shared.jobs),
            &mut self.state,
            line,
            &mut self.response,
        );
        self.emit(shared, outcome, out, signals);
        Step::Progress
    }

    fn step_binary(
        &mut self,
        shared: &Shared,
        input: &[u8],
        consumed: &mut usize,
        out: &mut Vec<u8>,
        signals: &mut Signals,
    ) -> Step {
        let rest = &input[*consumed..];
        let (opcode, payload, frame_len) = match scan_frame(rest, http::MAX_LINE_BYTES) {
            Err(_) => return Step::Fatal,
            Ok(Frame::NeedMore) => return Step::NeedMore,
            Ok(Frame::Complete {
                opcode,
                payload,
                frame_len,
            }) => (opcode, payload, frame_len),
        };
        shared.transport.inc(Counter::TcpRequests);
        shared.transport.inc(Counter::BinaryRequests);
        self.response.clear();
        let outcome = match opcode {
            OP_SUBMIT => match decode_submit_payload(payload) {
                Ok(req) => dispatch::dispatch_request(
                    &shared.registry,
                    &shared.config,
                    &shared.transport,
                    shared.fed.as_deref(),
                    Some(&shared.jobs),
                    &mut self.state,
                    req,
                    &mut self.response,
                ),
                // A malformed frame poisons the framing itself (the
                // next frame boundary cannot be trusted): fatal.
                Err(_) => return Step::Fatal,
            },
            OP_JSON => {
                let Ok(text) = std::str::from_utf8(payload) else {
                    return Step::Fatal;
                };
                dispatch::dispatch_into(
                    &shared.registry,
                    &shared.config,
                    &shared.transport,
                    shared.fed.as_deref(),
                    Some(&shared.jobs),
                    &mut self.state,
                    text.trim(),
                    &mut self.response,
                )
            }
            _ => return Step::Fatal,
        };
        *consumed += frame_len;
        self.emit(shared, outcome, out, signals);
        Step::Progress
    }
}

impl FrameCodec for LineFraming {
    fn step(
        &mut self,
        shared: &Shared,
        input: &[u8],
        consumed: &mut usize,
        out: &mut Vec<u8>,
        signals: &mut Signals,
    ) -> Step {
        match self.mode {
            WireFraming::Json => self.step_json(shared, input, consumed, out, signals),
            WireFraming::Binary => self.step_binary(shared, input, consumed, out, signals),
        }
    }
}

/// The HTTP/1.1 codec: a resumable head/body state machine over the
/// parsing helpers in [`crate::http`], shared verbatim by the threaded
/// listener and the reactor.
pub(crate) struct HttpFraming {
    state: HttpState,
    response: String,
    /// Bytes of the unfinished head already searched for its blank
    /// line; zero whenever a head completes.
    scanned: usize,
}

enum HttpState {
    /// Scanning for the `\r\n\r\n` that ends the request head.
    Head,
    /// Reading a `Content-Length` body.
    Body {
        head: Head,
        body: Vec<u8>,
        need: usize,
    },
    /// Reading a chunked body.
    Chunked { head: Head, decoder: ChunkDecoder },
}

/// Locates the end of an HTTP request head (the index just past
/// `\r\n\r\n`), if the buffer holds one. The search starts at `from`,
/// where the last failed search stopped: the blank line is found by its
/// final `\n`, so every byte is searched once however the head arrives.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    let mut at = from;
    while let Some(newline) = find_byte(buf, at, b'\n') {
        if newline >= 3 && &buf[newline - 3..newline] == b"\r\n\r" {
            return Some(newline + 1);
        }
        at = newline + 1;
    }
    None
}

impl HttpFraming {
    pub(crate) fn new() -> Self {
        HttpFraming {
            state: HttpState::Head,
            response: String::new(),
            scanned: 0,
        }
    }

    /// Routes and executes one complete request, appending the full
    /// HTTP response to `out`.
    fn dispatch(
        &mut self,
        shared: &Shared,
        head: &Head,
        body: &[u8],
        out: &mut Vec<u8>,
        signals: &mut Signals,
    ) -> Step {
        shared.transport.inc(Counter::HttpRequests);
        self.response.clear();
        let (status, reason, content_type) = http::respond(
            shared,
            &head.method,
            &head.target,
            head.accept_text,
            body,
            &mut self.response,
        );
        let keep = head.keep_alive();
        http::format_http_response(out, status, reason, content_type, &self.response, keep);
        if !keep {
            signals.close_after_flush = true;
        }
        Step::Progress
    }

    /// Answers a framing-level failure in-band and closes after the
    /// flush (the framing itself can no longer be trusted).
    fn respond_error(
        &mut self,
        status: u16,
        reason: &str,
        err: &ServiceError,
        out: &mut Vec<u8>,
        signals: &mut Signals,
    ) -> Step {
        self.response.clear();
        write_error_response(&mut self.response, err);
        http::format_http_response(
            out,
            status,
            reason,
            http::CONTENT_TYPE_JSON,
            &self.response,
            false,
        );
        signals.close_after_flush = true;
        Step::Progress
    }
}

impl FrameCodec for HttpFraming {
    fn step(
        &mut self,
        shared: &Shared,
        input: &[u8],
        consumed: &mut usize,
        out: &mut Vec<u8>,
        signals: &mut Signals,
    ) -> Step {
        let rest = &input[*consumed..];
        match std::mem::replace(&mut self.state, HttpState::Head) {
            HttpState::Head => {
                let Some(end) = find_head_end(rest, self.scanned) else {
                    if rest.len() > http::MAX_HEAD_BYTES {
                        return Step::Fatal;
                    }
                    self.scanned = rest.len();
                    return Step::NeedMore;
                };
                self.scanned = 0;
                let head = match http::parse_head(&rest[..end]) {
                    Ok(h) => h,
                    Err(e) => {
                        *consumed += end;
                        return self.respond_error(400, "Bad Request", &e, out, signals);
                    }
                };
                *consumed += end;
                if let BodyFraming::Length(n) = head.body {
                    if n > http::MAX_LINE_BYTES {
                        let e = ServiceError::Protocol(format!(
                            "request body exceeds {} bytes",
                            http::MAX_LINE_BYTES
                        ));
                        return self.respond_error(413, "Payload Too Large", &e, out, signals);
                    }
                }
                if head.expect_continue && head.expects_body() {
                    // curl waits for this interim response before
                    // sending larger bodies; it precedes any body read,
                    // and the driver flushes `out` before blocking.
                    out.extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
                }
                match head.body {
                    BodyFraming::Length(0) => self.dispatch(shared, &head, &[], out, signals),
                    BodyFraming::Length(n) => {
                        self.state = HttpState::Body {
                            head,
                            // Bounded by MAX_LINE_BYTES (checked above),
                            // but cap the eager reservation anyway.
                            body: Vec::with_capacity(n.min(64 * 1024)),
                            need: n,
                        };
                        Step::Progress
                    }
                    BodyFraming::Chunked => {
                        self.state = HttpState::Chunked {
                            head,
                            decoder: ChunkDecoder::new(http::MAX_LINE_BYTES),
                        };
                        Step::Progress
                    }
                }
            }
            HttpState::Body {
                head,
                mut body,
                need,
            } => {
                let take = rest.len().min(need - body.len());
                body.extend_from_slice(&rest[..take]);
                *consumed += take;
                if body.len() == need {
                    self.dispatch(shared, &head, &body, out, signals)
                } else {
                    self.state = HttpState::Body { head, body, need };
                    Step::NeedMore
                }
            }
            HttpState::Chunked { head, mut decoder } => match decoder.push(rest) {
                Err(e) => {
                    let (status, reason) = e.status();
                    self.respond_error(status, reason, &e.into_service_error(), out, signals)
                }
                Ok(eaten) => {
                    *consumed += eaten;
                    if decoder.is_done() {
                        let mut body = Vec::new();
                        decoder.take_body(&mut body);
                        self.dispatch(shared, &head, &body, out, signals)
                    } else {
                        self.state = HttpState::Chunked { head, decoder };
                        Step::NeedMore
                    }
                }
            },
        }
    }
}

/// The shared blocking connection driver: both threaded front-ends are
/// this loop plus a codec. Reads with a 200 ms timeout (so idle
/// connections notice the shutdown flag and the idle reaper), drives
/// the codec until it needs more bytes, flushes the accumulated
/// responses, and acts on lifecycle signals.
///
/// `faults` enables the injected connection-level faults
/// ([`FaultSite::ConnRead`]/[`FaultSite::ConnWrite`]) — threaded line
/// protocol only, matching the historical behaviour (a `Delay` fault
/// sleeps the worker thread, which only that front-end may do).
pub(crate) fn drive_blocking(
    stream: &TcpStream,
    shared: &Shared,
    codec: &mut dyn FrameCodec,
    faults: bool,
) -> Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let mut input: Vec<u8> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut idle = IdleTimer::new(shared.config.idle_timeout_ms);
    loop {
        let mut signals = Signals::default();
        let mut consumed = 0usize;
        loop {
            match codec.step(shared, &input, &mut consumed, &mut out, &mut signals) {
                Step::Progress => {
                    if signals.close_after_flush || signals.shutdown_after_flush {
                        break;
                    }
                }
                Step::NeedMore => break,
                Step::Fatal => return Ok(()),
            }
        }
        input.drain(..consumed);
        if !out.is_empty() {
            if faults {
                match shared.config.fault_plan.decide(FaultSite::ConnWrite) {
                    Some(FaultAction::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
                    Some(FaultAction::ShortWrite) => {
                        // A torn response: the peer sees a truncated
                        // message and a close, like a server dying
                        // mid-write.
                        let half = out.len() / 2;
                        let _ = (&*stream).write_all(&out[..half]);
                        return Ok(());
                    }
                    Some(_) => return Ok(()),
                    None => {}
                }
            }
            (&*stream).write_all(&out)?;
            (&*stream).flush()?;
            out.clear();
        }
        if signals.shutdown_after_flush {
            shared.shut_down();
            return Ok(());
        }
        if signals.close_after_flush {
            return Ok(());
        }
        loop {
            // Injected connection-read faults live in the threaded
            // front-end only: `Delay` sleeps the worker thread, which
            // the reactor event loop must never do.
            if faults
                && shared
                    .config
                    .fault_plan
                    .inject_io(FaultSite::ConnRead)
                    .is_err()
            {
                return Ok(());
            }
            match (&*stream).read(&mut scratch) {
                Ok(0) => return Ok(()), // peer closed
                Ok(n) => {
                    idle.touch();
                    input.extend_from_slice(&scratch[..n]);
                    break;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                    if idle.expired() {
                        shared.transport.inc(Counter::IdleReaped);
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Bytes [`find_byte`] has searched on this thread: the length
        /// of each range it was given, up to and including the byte it
        /// found.
        pub(super) static SEARCHED: Cell<usize> = const { Cell::new(0) };
    }

    #[test]
    fn varints_round_trip_across_the_value_range() {
        let samples = [
            0u64,
            1,
            127,
            128,
            129,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        for &v in &samples {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert!(buf.len() <= MAX_VARINT_BYTES);
            let (decoded, n) = read_varint(&buf).unwrap().unwrap();
            assert_eq!((decoded, n), (v, buf.len()), "value {v}");
            // A prefix of the encoding is incomplete, not an error.
            for cut in 0..buf.len() - 1 {
                assert!(read_varint(&buf[..cut]).unwrap().is_none());
            }
        }
        // An overlong encoding that overflows 64 bits is refused.
        let overlong = [0xffu8; 11];
        assert!(read_varint(&overlong).is_err());
    }

    #[test]
    fn submit_frames_round_trip_bit_identically() {
        // A deterministic LCG stands in for a property-test generator:
        // arbitrary rectangular batches must encode→decode to the exact
        // same RecordBatch, in both cell encodings.
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..200 {
            let n_records = (next() % 17) as usize;
            let n_attrs = 1 + (next() % 6) as usize;
            let records: Vec<Vec<u32>> = (0..n_records)
                .map(|_| {
                    (0..n_attrs)
                        .map(|_| {
                            // Mix small indices with full-range values
                            // so both the 1-byte and 5-byte varint
                            // paths are exercised.
                            if next() % 4 == 0 {
                                next() as u32
                            } else {
                                (next() % 100) as u32
                            }
                        })
                        .collect()
                })
                .collect();
            let session = next() % 1_000;
            let pre = next() % 2 == 0;
            let deferred = next() % 2 == 0;
            let shard = (next() % 3 == 0).then(|| (next() % 8) as usize);
            let fixed32 = next() % 2 == 0;
            let mut wire = Vec::new();
            encode_submit_frame(&mut wire, session, &records, pre, shard, deferred, fixed32);
            let frame = match scan_frame(&wire, 1 << 20).unwrap() {
                Frame::Complete {
                    opcode,
                    payload,
                    frame_len,
                } => {
                    assert_eq!(opcode, OP_SUBMIT);
                    assert_eq!(frame_len, wire.len(), "no trailing bytes");
                    payload.to_vec()
                }
                Frame::NeedMore => panic!("case {case}: frame must be complete"),
            };
            // One `Submit`, whichever decoder read it: the binary frame
            // and the line the shipped client writes for the same call.
            let expected = Request::Submit(Submit {
                session,
                records: RecordBatch::from_rows(&records),
                pre_perturbed: pre,
                placement: placement(shard),
                deferred,
            });
            assert_eq!(decode_submit_payload(&frame).unwrap(), expected, "{case}");
            let mut line = format!("{{\"op\":\"submit\",\"session\":{session},");
            crate::client::write_submit_fields(&mut line, records.iter(), pre, shard);
            line.push_str(if deferred {
                ",\"ack\":\"deferred\"}"
            } else {
                "}"
            });
            assert_eq!(
                crate::protocol::parse_submit_line_fast(&line),
                Some(expected)
            );
        }
    }

    #[test]
    fn replication_stamps_survive_the_binary_encoding() {
        // One deferred forward of 256 CENSUS records, as a federation
        // forwarder encodes it, decodes to the placement it was built
        // from — in well under half the bytes of the JSON line the link
        // sent for the same batch before forwards were frames.
        let rows = frapp_data::census::census_like_n(256, 11)
            .records()
            .to_vec();
        let stamp = Placement::Replicated { origin: 2, seq: 9 };
        let mut wire = Vec::new();
        encode_submit_payload(&mut wire, 7, rows.iter(), true, stamp, true, false);
        let Frame::Complete { payload, .. } = scan_frame(&wire, 1 << 20).unwrap() else {
            panic!("a stamped frame must be complete");
        };
        assert_eq!(
            decode_submit_payload(payload).unwrap(),
            Request::Submit(Submit {
                session: 7,
                records: RecordBatch::from_rows(&rows),
                pre_perturbed: true,
                placement: stamp,
                deferred: true,
            })
        );
        let mut line = r#"{"op":"submit","session":7,"#.to_owned();
        crate::client::write_submit_fields(&mut line, rows.iter(), true, None);
        line.push_str(",\"ack\":\"deferred\",\"origin\":2,\"seq\":9}\n");
        let per_record = |bytes: usize| bytes as f64 / rows.len() as f64;
        let (line_b, frame_b) = (per_record(line.len()), per_record(wire.len()));
        println!("256 CENSUS records: line {line_b:.2} B/record, frame {frame_b:.2} B/record");
        assert!(frame_b * 2.0 < line_b, "frame {frame_b} vs line {line_b}");
        // The grammar lets a stamp ride beside a shard hint, which no
        // encoder writes: the stamp wins.
        let mut payload = vec![FLAG_PRE_PERTURBED | FLAG_HAS_STAMP | FLAG_HAS_SHARD];
        for field in [7, 1, 2, 9, 1, 2, 3, 1] {
            // session, shard, origin, seq, n_records, n_attrs, cells
            write_varint(&mut payload, field);
        }
        let Request::Submit(submit) = decode_submit_payload(&payload).unwrap() else {
            panic!("OP_SUBMIT decodes to a submit");
        };
        assert_eq!(submit.placement, stamp);
    }

    /// The per-cell `OP_SUBMIT` decoder the served one replaced, kept
    /// as the reference it must agree with: the same `Request` or the
    /// same error text on every payload. Both range-check a stamp with
    /// [`stamp`].
    fn reference_decode(payload: &[u8]) -> Result<Request> {
        fn u32_le(r: &mut PayloadReader) -> Result<u32> {
            let Some((head, rest)) = r.buf.split_first_chunk::<4>() else {
                return Err(truncated());
            };
            r.buf = rest;
            Ok(u32::from_le_bytes(*head))
        }
        let mut r = PayloadReader { buf: payload };
        let flags = r.byte()?;
        if flags & !KNOWN_FLAGS != 0 {
            return Err(ServiceError::Protocol(format!(
                "submit frame carries unknown flag bits {:#04x}",
                flags & !KNOWN_FLAGS
            )));
        }
        let session = r.varint()?;
        let shard = if flags & FLAG_HAS_SHARD != 0 {
            Some(r.varint()? as usize)
        } else {
            None
        };
        let placement = if flags & FLAG_HAS_STAMP != 0 {
            let origin = r.varint()?;
            stamp(origin, r.varint()?)?
        } else {
            placement(shard)
        };
        let n_records = r.varint()? as usize;
        let n_attrs = r.varint()? as usize;
        if n_records > 0 && n_attrs == 0 {
            return Err(ServiceError::Protocol(format!(
                "submit frame declares {n_records} records of no attributes"
            )));
        }
        let cells = n_records
            .checked_mul(n_attrs)
            .ok_or_else(|| ServiceError::Protocol("submit frame cell count overflows".into()))?;
        let fixed32 = flags & FLAG_FIXED32 != 0;
        let remaining = r.buf.len();
        if (fixed32 && cells.checked_mul(4) != Some(remaining)) || (!fixed32 && remaining < cells) {
            return Err(ServiceError::Protocol(format!(
                "submit frame declares {cells} cells but carries {remaining} payload bytes"
            )));
        }
        let mut records = RecordBatch::new();
        for _ in 0..n_records {
            for _ in 0..n_attrs {
                let cell = if fixed32 {
                    u32_le(&mut r)?
                } else {
                    let v = r.varint()?;
                    u32::try_from(v).map_err(|_| {
                        ServiceError::Protocol(format!("cell value {v} exceeds u32"))
                    })?
                };
                records.push_cell(cell);
            }
            records.end_record();
        }
        if !r.buf.is_empty() {
            return Err(ServiceError::Protocol(format!(
                "{} trailing bytes after the last submit cell",
                r.buf.len()
            )));
        }
        Ok(Request::Submit(Submit {
            session,
            records,
            pre_perturbed: flags & FLAG_PRE_PERTURBED != 0,
            placement,
            deferred: flags & FLAG_DEFERRED != 0,
        }))
    }

    /// The grid shapes the corpus draws, one per decoder path and
    /// malformation.
    const GRIDS: usize = 6;

    /// Appends `n` varint cells of grid shape `shape` to `out`:
    /// 0 one-byte, 1 mixed widths up to `u32::MAX`, 2 with overlong but
    /// valid encodings (`0x80 0x00`), 3 with a value past `u32`, 4 with
    /// an encoding past 64 bits, 5 one-byte with one high-bit byte
    /// (so `remaining == cells` still holds).
    fn varint_cells(out: &mut Vec<u8>, n: usize, shape: usize, next: &mut impl FnMut() -> u64) {
        let start = out.len();
        for _ in 0..n {
            let v = match (shape, next() % 4) {
                (0 | 5, _) | (_, 0) => next() % 128,
                (_, 1) => 128 + next() % 16_256,
                _ => next() % (1 << 32),
            };
            let cell = out.len();
            write_varint(out, v);
            match (shape, next() % 8) {
                (2, 0) => {
                    // One or more redundant zero groups.
                    let pad = 1 + (next() % 3) as usize;
                    for _ in 0..pad {
                        *out.last_mut().unwrap() |= 0x80;
                        out.push(0);
                    }
                }
                (3, 0) => {
                    out.truncate(cell);
                    write_varint(out, (1 << 32) + next() % (1 << 40));
                }
                (4, 0) => {
                    out.truncate(cell);
                    out.extend_from_slice(&[0xff; MAX_VARINT_BYTES]);
                    out.push(0x7f);
                }
                _ => {}
            }
        }
        if shape == 5 && out.len() > start {
            let i = start + (next() as usize) % (out.len() - start);
            out[i] |= 0x80;
        }
    }

    /// One corpus payload from `next`: a header of random flags and
    /// placement, a grid of one of the [`GRIDS`] shapes or fixed32, and
    /// then perhaps a lie in the declared counts, a byte flip, a cut or
    /// trailing bytes.
    fn corpus_payload(next: &mut impl FnMut() -> u64) -> Vec<u8> {
        let mut flags = (next() as u8) & KNOWN_FLAGS;
        if next().is_multiple_of(64) {
            flags |= 0x40 << (next() % 2);
        }
        let mut p = vec![flags];
        write_varint(&mut p, next() % 1_000);
        if flags & FLAG_HAS_SHARD != 0 {
            write_varint(&mut p, next() % 8);
        }
        if flags & FLAG_HAS_STAMP != 0 {
            // One seq in sixteen is past MAX_STAMP, and is refused.
            write_varint(&mut p, next() % 4);
            let seq = next();
            write_varint(
                &mut p,
                if seq.is_multiple_of(16) {
                    seq
                } else {
                    seq >> 11
                },
            );
        }
        let n_records = next() % 24;
        let n_attrs = if next().is_multiple_of(32) {
            0
        } else {
            1 + next() % 7
        };
        let (mut declared_records, mut declared_attrs) = (n_records, n_attrs);
        match next() % 16 {
            0 => declared_records = declared_records.wrapping_add(next() % 5).saturating_sub(2),
            1 => declared_attrs = declared_attrs.wrapping_add(next() % 5).saturating_sub(2),
            2 => declared_records = next() >> (next() % 64),
            3 => declared_attrs = next() >> (next() % 64),
            _ => {}
        }
        write_varint(&mut p, declared_records);
        write_varint(&mut p, declared_attrs);
        let cells = (n_records * n_attrs) as usize;
        if flags & FLAG_FIXED32 != 0 {
            for _ in 0..cells {
                let v = if next().is_multiple_of(2) {
                    next() % 128
                } else {
                    next()
                };
                p.extend_from_slice(&(v as u32).to_le_bytes());
            }
        } else {
            let shape = (next() % GRIDS as u64) as usize;
            varint_cells(&mut p, cells, shape, next);
        }
        match next() % 8 {
            0 => {
                let i = (next() as usize) % p.len();
                p[i] ^= 1 << (next() % 8);
            }
            1 => p.truncate((next() as usize) % (p.len() + 1)),
            2 => p.extend((0..1 + next() % 3).map(|_| next() as u8)),
            _ => {}
        }
        p
    }

    /// The cell grid of a payload that decodes: what follows the header.
    fn grid(payload: &[u8]) -> &[u8] {
        let mut r = PayloadReader { buf: payload };
        let flags = r.byte().unwrap();
        let stamp = flags & FLAG_HAS_STAMP != 0;
        let fields = 3 + usize::from(flags & FLAG_HAS_SHARD != 0) + 2 * usize::from(stamp);
        for _ in 0..fields {
            r.varint().unwrap();
        }
        r.buf
    }

    fn xorshift(mut seed: u64) -> impl FnMut() -> u64 {
        move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        }
    }

    /// `count` seeded corpus payloads, the first `truncated` of them also
    /// cut at every byte: each decodes as [`reference_decode`] does.
    /// Returns how many decoded to a submit through each whole-grid
    /// shape and the per-cell loop, and how many were refused.
    fn assert_decoder_matches_reference(count: usize, truncated: usize) -> [usize; 4] {
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        let mut tally = [0; 4];
        for i in 0..count {
            let payload = corpus_payload(&mut next);
            let cuts = if i < truncated { 0 } else { payload.len() };
            for cut in cuts..=payload.len() {
                let p = &payload[..cut];
                let got = decode_submit_payload(p).map_err(|e| e.to_string());
                assert_eq!(
                    got,
                    reference_decode(p).map_err(|e| e.to_string()),
                    "{p:02x?}"
                );
                tally[match &got {
                    Err(_) => 3,
                    Ok(_) if p[0] & FLAG_FIXED32 != 0 => 0,
                    Ok(Request::Submit(s))
                        if grid(p).len() == s.records.iter().flatten().count() =>
                    {
                        1
                    }
                    Ok(_) => 2,
                }] += 1;
            }
        }
        tally
    }

    #[test]
    fn decoder_matches_the_reference_on_a_seeded_corpus() {
        let [whole32, one_byte, per_cell, refused] = assert_decoder_matches_reference(20_000, 500);
        println!("fixed32 {whole32}, one-byte {one_byte}, per-cell {per_cell}, refused {refused}");
        // Every path is exercised, and most malformations are refused.
        assert!(whole32 > 1_000, "{whole32}");
        assert!(one_byte > 1_000, "{one_byte}");
        assert!(per_cell > 1_000, "{per_cell}");
        assert!(refused > 10_000, "{refused}");
    }

    #[test]
    #[ignore = "10^6 corpus frames; run in release"]
    fn a_million_corpus_frames_decode_as_the_reference_does() {
        assert_decoder_matches_reference(1_000_000, 5_000);
    }

    #[test]
    fn malformed_submit_payloads_are_rejected() {
        /// A payload of `flags`, then `fields` as varints, then `grid`.
        fn payload(flags: u8, fields: &[u64], grid: &[u8]) -> Vec<u8> {
            let mut p = vec![flags];
            for &field in fields {
                write_varint(&mut p, field);
            }
            p.extend_from_slice(grid);
            p
        }
        fn refusal(payload: &[u8]) -> String {
            decode_submit_payload(payload).unwrap_err().to_string()
        }
        const TRUNCATED: &str = "protocol error: truncated field inside a complete submit frame";
        let declares = |cells: u64, bytes: usize| {
            format!("protocol error: submit frame declares {cells} cells but carries {bytes} payload bytes")
        };
        // session 1, 2 records × 2 attributes, one-byte cells 1 2 3 4.
        let valid = payload(FLAG_PRE_PERTURBED, &[1, 2, 2], &[1, 2, 3, 4]);
        decode_submit_payload(&valid).unwrap();
        // Any truncation of a complete frame's payload is an error (a
        // cut header field, a missing cell) — never a silent partial
        // batch.
        for cut in 0..valid.len() {
            let want = if cut < 4 {
                TRUNCATED.to_owned()
            } else {
                declares(4, cut - 4)
            };
            assert_eq!(refusal(&valid[..cut]), want, "truncation at {cut}");
        }
        // Unknown flag bits are refused, not ignored.
        let mut unknown_flag = valid.clone();
        unknown_flag[0] |= 0x80;
        assert_eq!(
            refusal(&unknown_flag),
            "protocol error: submit frame carries unknown flag bits 0x80"
        );
        // Trailing bytes after the declared cells are refused.
        let mut trailing = valid.clone();
        trailing.push(0);
        assert_eq!(
            refusal(&trailing),
            "protocol error: 1 trailing bytes after the last submit cell"
        );
        // As many grid bytes as cells, one of them continuing a varint:
        // not a one-byte grid, and the cut-short last cell says so.
        for high in 0..4 {
            let mut grid = [1, 2, 3, 4];
            grid[high] |= 0x80;
            let p = payload(0, &[1, 2, 2], &grid);
            assert_eq!(refusal(&p), TRUNCATED, "high bit on cell {high}");
        }
        // A cell past u32, and a cell varint past 64 bits.
        let mut wide = Vec::new();
        write_varint(&mut wide, 1 << 32);
        assert_eq!(
            refusal(&payload(0, &[1, 1, 1], &wide)),
            "protocol error: cell value 4294967296 exceeds u32"
        );
        let mut overlong = [0xffu8; MAX_VARINT_BYTES + 1];
        overlong[MAX_VARINT_BYTES] = 0x7f;
        assert_eq!(
            refusal(&payload(0, &[1, 1, 1], &overlong)),
            "protocol error: varint overflows 64 bits"
        );
        // A declared cell count the payload cannot hold is refused
        // before any allocation.
        let absurd = payload(0, &[1, u64::MAX / 2, 2], &[]);
        assert_eq!(refusal(&absurd), declares(u64::MAX - 1, 0));
        let overflowing = payload(0, &[1, 1 << 40, 1 << 40], &[]);
        assert_eq!(
            refusal(&overflowing),
            "protocol error: submit frame cell count overflows"
        );
        // Records of no attributes carry no cells to bound their number:
        // seven bytes must not decode into fifty million records.
        let zero_arity = payload(0, &[1, 50_000_000, 0], &[]);
        assert_eq!(zero_arity.len(), 7);
        assert_eq!(
            refusal(&zero_arity),
            "protocol error: submit frame declares 50000000 records of no attributes"
        );
        // A fixed32 cell count whose byte size overflows is refused, not
        // wrapped (release) or panicked on (overflow checks).
        let overflowing = payload(FLAG_FIXED32, &[1, 1 << 62, 1], &[]);
        assert_eq!(refusal(&overflowing), declares(1 << 62, 0));
        // A replication stamp past 2^53 - 1 could not be saved as a
        // loadable watermark, so the frame is refused; 2^53 - 1 decodes.
        let stamped = |origin, seq| payload(FLAG_HAS_STAMP, &[1, origin, seq, 1, 1], &[0]);
        assert_eq!(
            refusal(&stamped(1, (1 << 53) + 1)),
            "protocol error: replication stamp (1, 9007199254740993) is past 2^53 - 1"
        );
        assert_eq!(
            refusal(&stamped((1 << 53) + 1, 1)),
            "protocol error: replication stamp (9007199254740993, 1) is past 2^53 - 1"
        );
        let Request::Submit(top) = decode_submit_payload(&stamped(MAX_STAMP, MAX_STAMP)).unwrap()
        else {
            panic!("OP_SUBMIT decodes to a submit");
        };
        assert_eq!(
            top.placement,
            Placement::Replicated {
                origin: MAX_STAMP,
                seq: MAX_STAMP
            }
        );
        // What stays accepted: no records of no attributes, overlong but
        // valid cell encodings, and fixed32 cells.
        let submit = |p: &[u8]| match decode_submit_payload(p).unwrap() {
            Request::Submit(s) => s.records,
            other => panic!("OP_SUBMIT decodes to a submit, not {other:?}"),
        };
        assert!(submit(&payload(0, &[1, 0, 0], &[])).is_empty());
        assert_eq!(
            submit(&payload(0, &[1, 1, 2], &[0x80, 0x00, 0x85, 0x80, 0x00])),
            RecordBatch::from_rows(&[vec![0, 5]])
        );
        let fixed: Vec<u8> = [7u32, u32::MAX]
            .iter()
            .flat_map(|c| c.to_le_bytes())
            .collect();
        assert_eq!(
            submit(&payload(FLAG_FIXED32, &[1, 2, 1], &fixed)),
            RecordBatch::from_rows(&[vec![7], vec![u32::MAX]])
        );
    }

    /// Ns per record of `f`, which handles `records` records per call,
    /// over nine rounds of about 60 ms after a warm-up.
    pub(crate) fn ns_per_record(records: usize, mut f: impl FnMut()) -> Spread {
        for _ in 0..3 {
            f();
        }
        median_of_rounds(|| round_ns_per_record(records, &mut f))
    }

    /// The ns per record of `f` less that of `g` over nine rounds, timed
    /// back to back in each round so that a drift in the machine's speed
    /// cancels.
    fn ns_per_record_less(records: usize, mut f: impl FnMut(), mut g: impl FnMut()) -> Spread {
        for _ in 0..3 {
            f();
            g();
        }
        median_of_rounds(|| {
            round_ns_per_record(records, &mut f) - round_ns_per_record(records, &mut g)
        })
    }

    /// Ns per record of `f` called for about 60 ms.
    fn round_ns_per_record(records: usize, f: &mut impl FnMut()) -> f64 {
        let start = std::time::Instant::now();
        let mut calls = 0;
        while start.elapsed() < Duration::from_millis(60) {
            f();
            calls += 1;
        }
        start.elapsed().as_nanos() as f64 / (calls * records) as f64
    }

    /// The quartiles of nine timing rounds. A table cell prints its
    /// median and, in brackets, its p25 and p75.
    #[derive(Clone, Copy)]
    pub(crate) struct Spread {
        p25: f64,
        median: f64,
        p75: f64,
    }

    impl Spread {
        /// `self` less `other`: the difference of the medians, between
        /// the widest bounds the two interquartile ranges allow.
        pub(crate) fn less(self, other: Spread) -> Spread {
            Spread {
                p25: self.p25 - other.p75,
                median: self.median - other.median,
                p75: self.p75 - other.p25,
            }
        }

        pub(crate) fn scaled(self, factor: f64) -> Spread {
            Spread {
                p25: self.p25 * factor,
                median: self.median * factor,
                p75: self.p75 * factor,
            }
        }
    }

    impl std::fmt::Display for Spread {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            let Spread { p25, median, p75 } = self;
            f.pad(&format!("{median:.1} [{p25:.1}, {p75:.1}]"))
        }
    }

    fn median_of_rounds(mut round: impl FnMut() -> f64) -> Spread {
        let mut rounds: Vec<f64> = (0..9).map(|_| round()).collect();
        rounds.sort_by(f64::total_cmp);
        Spread {
            p25: rounds[2],
            median: rounds[4],
            p75: rounds[6],
        }
    }

    /// Prints a timing table: the first column left-aligned, every other
    /// right-aligned, each as wide as its widest cell or header.
    pub(crate) fn print_table(header: &[&str], rows: &[Vec<String>]) {
        let widths: Vec<usize> = (0..header.len())
            .map(|c| {
                rows.iter()
                    .map(|row| row[c].chars().count())
                    .chain([header[c].chars().count()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let line = |cells: Vec<&str>| {
            let cells: Vec<String> = cells
                .iter()
                .zip(&widths)
                .enumerate()
                .map(|(c, (cell, &w))| {
                    if c == 0 {
                        format!("{cell:<w$}")
                    } else {
                        format!("{cell:>w$}")
                    }
                })
                .collect();
            println!("{}", cells.join("  "));
        };
        line(header.to_vec());
        for row in rows {
            line(row.iter().map(String::as_str).collect());
        }
    }

    /// The server's per-record cost of a binary `OP_SUBMIT` stream, by
    /// stage: frame scan + decode; the same plus dispatching the
    /// deferred frame into a registry session (validate, perturb,
    /// accumulate); and `CollectionSession::submit_batch` of the same
    /// rows alone. The second minus the third is what the wire costs on
    /// top of the session. The last three columns split the session's
    /// ingest of the decoded batches: `Schema::encode_batch`, the
    /// session's sampler on a shard's generator, and the shard's count.
    /// Three grid shapes: the benchmark's
    /// `stream_binary` frames (256 raw CENSUS records, one-byte varint
    /// cells), the same records as fixed32, and a mixed-width grid
    /// (CENSUS plus a 256-value attribute, so about half the records
    /// carry a two-byte cell).
    #[test]
    #[ignore = "timing table; run in release with --nocapture"]
    fn stream_stage_table() {
        use crate::metrics::TransportMetrics;
        use crate::session::SessionRegistry;
        use std::hint::black_box;

        const FRAMES: usize = 64;
        const BATCH: usize = 256;
        let census = frapp_data::census::census_like_n(FRAMES * BATCH, 1)
            .records()
            .to_vec();
        let mut next = xorshift(7);
        let mixed: Vec<Vec<u32>> = census
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.push((next() % 256) as u32);
                r
            })
            .collect();
        let mut attrs: Vec<(String, u32)> = frapp_data::census::schema()
            .attributes()
            .iter()
            .map(|a| (a.name().to_owned(), a.cardinality()))
            .collect();
        let census_schema = attrs.clone();
        attrs.push(("wide".into(), 256));
        let shapes = [
            ("CENSUS varint", &census, &census_schema, false),
            ("CENSUS fixed32", &census, &census_schema, true),
            ("mixed varint", &mixed, &attrs, false),
        ];

        let config = crate::ServiceConfig::default();
        let registry = SessionRegistry::new();
        let transport = TransportMetrics::new();
        let mut table = Vec::new();
        for (name, rows, schema, fixed32) in shapes {
            let mut state = ConnState::new();
            let mut out = String::new();
            let schema: Vec<String> = schema
                .iter()
                .map(|(n, c)| format!("[\"{n}\",{c}]"))
                .collect();
            let create = format!(
                r#"{{"op":"create_session","schema":[{}],"gamma":19.0}}"#,
                schema.join(",")
            );
            dispatch::dispatch_into(
                &registry, &config, &transport, None, None, &mut state, &create, &mut out,
            );
            let session = crate::json::parse(&out)
                .unwrap()
                .get("session")
                .unwrap()
                .as_u64()
                .unwrap();
            let batches: Vec<&[Vec<u32>]> = rows.chunks(BATCH).collect();
            let frames: Vec<Vec<u8>> = batches
                .iter()
                .map(|batch| {
                    let mut frame = Vec::new();
                    encode_submit_frame(&mut frame, session, batch, false, None, true, fixed32);
                    frame
                })
                .collect();
            let bytes = frames.iter().map(Vec::len).sum::<usize>() as f64 / rows.len() as f64;
            let decode = |frame: &[u8]| {
                let Ok(Frame::Complete { payload, .. }) = scan_frame(frame, 1 << 24) else {
                    panic!("a complete frame");
                };
                decode_submit_payload(payload).unwrap()
            };
            let scan_decode = ns_per_record(rows.len(), || {
                for frame in &frames {
                    black_box(decode(black_box(frame)));
                }
            });
            let dispatched = ns_per_record(rows.len(), || {
                for frame in &frames {
                    let req = decode(black_box(frame));
                    let outcome = dispatch::dispatch_request(
                        &registry, &config, &transport, None, None, &mut state, req, &mut out,
                    );
                    assert_eq!(outcome, Outcome::Quiet);
                }
            });
            let collection = registry.get(session).unwrap();
            let submit = ns_per_record(rows.len(), || {
                for batch in &batches {
                    black_box(collection.submit_batch(black_box(batch), false).unwrap());
                }
            });
            let decoded: Vec<RecordBatch> = frames
                .iter()
                .map(|frame| match decode(frame) {
                    Request::Submit(submit) => submit.records,
                    other => panic!("a submit, got {other:?}"),
                })
                .collect();
            let schema = collection.schema();
            let mut indices: Vec<Vec<usize>> = vec![Vec::with_capacity(BATCH); decoded.len()];
            let encode = ns_per_record(rows.len(), || {
                for (batch, out) in decoded.iter().zip(&mut indices) {
                    out.clear();
                    schema.encode_batch(black_box(batch).iter(), out).unwrap();
                }
            });
            let (perturb, observe) = collection.with_shard(0, |shard, sampler| {
                let perturb = ns_per_record(rows.len(), || {
                    for out in &mut indices {
                        shard.perturb_only(black_box(out), sampler);
                    }
                });
                let observe = ns_per_record(rows.len(), || {
                    for out in &indices {
                        shard.ingest_perturbed_indices(black_box(out));
                    }
                });
                (perturb, observe)
            });
            table.push(vec![
                name.to_owned(),
                format!("{bytes:.2}"),
                scan_decode.to_string(),
                dispatched.to_string(),
                submit.to_string(),
                dispatched.less(submit).to_string(),
                encode.to_string(),
                perturb.to_string(),
                observe.to_string(),
            ]);
        }
        println!("ns/record: median [p25, p75] of nine rounds");
        print_table(
            &[
                "shape",
                "B/record",
                "scan+decode",
                "+dispatch+ingest",
                "submit_batch",
                "wire overhead",
                "encode",
                "perturb",
                "observe",
            ],
            &table,
        );
    }

    /// The cost of one clamped reconstruction, by stage, on both paths.
    /// The estimates path, which `cached_lu` and curl still take: the
    /// counts snapshot, the server's closed-form solve and clamp, its
    /// `write_reconstruction_response`, and a client's tree decode
    /// (`json::parse` and `client::parse_reconstruction`, as a
    /// `cached_lu` read does). The counts path, which the
    /// shipped clients take: the same snapshot, the server's
    /// `write_counts_response`, and the client's
    /// `client::read_counts_answer` and its solve and clamp. Answers of
    /// 2^20-record HEALTH (7500 cells) and 2^18-record CENSUS (2000
    /// cells) sessions, as the benchmark's readers ask for them.
    #[test]
    #[ignore = "timing table; run in release with --nocapture"]
    fn reconstruct_stage_table() {
        use crate::client::{parse_reconstruction, read_counts_answer};
        use crate::protocol::{write_counts_response, write_reconstruction_response};
        use crate::session::{CollectionSession, Mechanism, ReconstructionMethod};
        use std::hint::black_box;

        let us_per_call = |f: &mut dyn FnMut()| ns_per_record(1, f).scaled(1e-3);
        let mut table = Vec::new();
        for (name, schema, dataset) in [
            (
                "HEALTH",
                frapp_data::health::schema(),
                frapp_data::health::health_like_n(1 << 20, 1),
            ),
            (
                "CENSUS",
                frapp_data::census::schema(),
                frapp_data::census::census_like_n(1 << 18, 1),
            ),
        ] {
            let gamma = 19.0;
            let session = CollectionSession::new(
                1,
                schema,
                Mechanism::Deterministic { gamma },
                4,
                7,
                1 << 13,
            )
            .unwrap();
            session.submit_batch(dataset.records(), false).unwrap();
            let method = ReconstructionMethod::ClosedForm;
            let rec = session.reconstruct(method, true).unwrap();
            let mut estimates = String::new();
            write_reconstruction_response(&mut estimates, &rec);
            let counts = session.snapshot();
            let mut counts_text = String::new();
            write_counts_response(&mut counts_text, &counts, gamma, None);
            let (answer, _) = read_counts_answer(&counts_text).unwrap();
            let solved = answer.solve(true);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&solved.estimates), bits(&rec.estimates));

            let snapshot = us_per_call(&mut || {
                black_box(session.snapshot());
            });
            let reconstruct = us_per_call(&mut || {
                black_box(session.reconstruct(method, true).unwrap());
            });
            let mut out = String::new();
            let write = us_per_call(&mut || {
                out.clear();
                write_reconstruction_response(&mut out, black_box(&rec));
            });
            let tree = us_per_call(&mut || {
                let v = crate::json::parse(black_box(&estimates)).unwrap();
                black_box(parse_reconstruction(&v, method).unwrap());
            });
            let counts_write = us_per_call(&mut || {
                out.clear();
                write_counts_response(&mut out, black_box(&counts), gamma, None);
            });
            let counts_read = us_per_call(&mut || {
                black_box(read_counts_answer(black_box(&counts_text)).unwrap());
            });
            let solve = us_per_call(&mut || {
                black_box(black_box(&answer).solve(true));
            });
            let none = || "-".to_owned();
            table.push(vec![
                name.to_owned(),
                "estimates".to_owned(),
                estimates.len().to_string(),
                snapshot.to_string(),
                reconstruct.less(snapshot).to_string(),
                write.to_string(),
                tree.to_string(),
                none(),
            ]);
            table.push(vec![
                name.to_owned(),
                "counts".to_owned(),
                counts_text.len().to_string(),
                snapshot.to_string(),
                none(),
                counts_write.to_string(),
                counts_read.to_string(),
                solve.to_string(),
            ]);
        }
        println!("us per call: median [p25, p75] of nine rounds");
        print_table(
            &[
                "answer",
                "path",
                "bytes",
                "snapshot",
                "server solve+clamp",
                "server write",
                "client read",
                "client solve+clamp",
            ],
            &table,
        );
    }

    /// A fresh `Shared` holding one session over `schema`, id 1.
    fn shared_with_session(schema: &frapp_core::Schema, config: crate::ServiceConfig) -> Shared {
        let shared = Shared::for_tests(config);
        let attributes: Vec<String> = schema
            .attributes()
            .iter()
            .map(|a| format!("[\"{}\",{}]", a.name(), a.cardinality()))
            .collect();
        let create = format!(
            r#"{{"op":"create_session","schema":[{}],"gamma":19.0}}"#,
            attributes.join(",")
        );
        let mut out = String::new();
        dispatch::dispatch_into(
            &shared.registry,
            &shared.config,
            &shared.transport,
            None,
            None,
            &mut ConnState::new(),
            &create,
            &mut out,
        );
        assert!(out.starts_with(r#"{"ok":true,"session":1,"#), "{out}");
        shared
    }

    /// The per-record cost of a line-JSON submit, by stage, on deferred
    /// lines as the line `Client` writes them: the client's encode (the
    /// line's head and `client::write_submit_fields` into a reused
    /// buffer); the codec's newline search and UTF-8 check (a
    /// `LineFraming::step` over a line that dispatch refuses at its
    /// first byte, minus that refusal);
    /// `protocol::read_request` alone; `dispatch_into` (decode, then
    /// validate, encode and accumulate into a session); and
    /// `CollectionSession::submit_batch` of the same rows alone. Four
    /// shapes: `mine_lifecycle`'s 4096-record pre-perturbed HEALTH
    /// lines, `http_read_write`'s 256-record HEALTH bodies as lines,
    /// `sync_json`'s 16-record CENSUS lines, and 256-record lines of
    /// CENSUS plus a 12-value attribute whose first record has a
    /// two-digit cell, which the one-digit grid pass
    /// (`json::Reader::digit_grid`) declines at once.
    #[test]
    #[ignore = "timing table; run in release with --nocapture"]
    fn json_line_stage_table() {
        use std::hint::black_box;

        const RECORDS: usize = 1 << 15;
        let census = frapp_data::census::census_like_n(RECORDS, 1);
        let mixed = {
            let mut specs: Vec<(&str, u32)> = census
                .schema()
                .attributes()
                .iter()
                .map(|a| (a.name(), a.cardinality()))
                .collect();
            specs.push(("month", 12));
            let rows = census.records().iter().enumerate().map(|(i, row)| {
                // 10 on the first record of every 256-record line.
                let month = (i % 256 + 10) % 12;
                row.iter().copied().chain([month as u32]).collect()
            });
            let schema = frapp_core::Schema::new(specs).unwrap();
            frapp_core::Dataset::new(schema, rows.collect()).unwrap()
        };
        let shapes = [
            (
                "HEALTH 4096",
                frapp_data::health::health_like_n(RECORDS, 1),
                4096,
            ),
            (
                "HEALTH 256",
                frapp_data::health::health_like_n(RECORDS, 1),
                256,
            ),
            ("CENSUS 16", census, 16),
            ("CENSUS+12 256", mixed, 256),
        ];
        let mut table = Vec::new();
        for (name, data, batch) in &shapes {
            let shared = shared_with_session(data.schema(), crate::ServiceConfig::default());
            let mut state = ConnState::new();
            let mut out = String::new();
            let dispatch = |state: &mut ConnState, line: &str, out: &mut String| {
                dispatch::dispatch_into(
                    &shared.registry,
                    &shared.config,
                    &shared.transport,
                    shared.fed.as_deref(),
                    Some(&shared.jobs),
                    state,
                    line,
                    out,
                )
            };
            let session = 1;
            let rows = data.records();
            let batches: Vec<&[Vec<u32>]> = rows.chunks(*batch).collect();
            let head = format!(r#"{{"op":"submit","session":{session},"#);
            let encode = |line: &mut String, batch: &[Vec<u32>]| {
                line.clear();
                line.push_str(&head);
                crate::client::write_submit_fields(line, batch.iter(), true, None);
                line.push_str(",\"ack\":\"deferred\"}\n");
            };
            let lines: Vec<String> = batches
                .iter()
                .map(|b| {
                    let mut line = String::new();
                    encode(&mut line, b);
                    line
                })
                .collect();
            let bytes = lines.iter().map(String::len).sum::<usize>() as f64 / rows.len() as f64;

            let mut buf = String::new();
            let encoded = ns_per_record(rows.len(), || {
                for b in &batches {
                    encode(&mut buf, black_box(b));
                    black_box(&buf);
                }
            });
            let read = ns_per_record(rows.len(), || {
                for line in &lines {
                    black_box(crate::protocol::read_request(black_box(line.trim())).unwrap());
                }
            });
            let dispatched = ns_per_record(rows.len(), || {
                for line in &lines {
                    let outcome = dispatch(&mut state, black_box(line.trim()), &mut out);
                    assert_eq!(outcome, Outcome::Quiet);
                }
            });
            // The codec's own stage: the same lines with their first
            // byte broken, so dispatch refuses each at once; its cost is
            // taken off again with the refusals alone.
            let broken: Vec<String> = lines.iter().map(|l| format!("x{}", &l[1..])).collect();
            let mut codec = LineFraming::new();
            let (mut wire_out, mut signals) = (Vec::new(), Signals::default());
            let mut refusals = String::new();
            let codec_stage = ns_per_record_less(
                rows.len(),
                || {
                    for line in &broken {
                        let mut consumed = 0;
                        wire_out.clear();
                        let step = codec.step(
                            &shared,
                            black_box(line.as_bytes()),
                            &mut consumed,
                            &mut wire_out,
                            &mut signals,
                        );
                        assert_eq!((step, consumed), (Step::Progress, line.len()));
                    }
                },
                || {
                    for line in &broken {
                        refusals.clear();
                        black_box(dispatch(&mut state, black_box(line.trim()), &mut refusals));
                    }
                },
            );
            let collection = shared.registry.get(session).unwrap();
            let submit = ns_per_record(rows.len(), || {
                for b in &batches {
                    black_box(collection.submit_batch(black_box(b), true).unwrap());
                }
            });
            table.push(vec![
                (*name).to_owned(),
                format!("{bytes:.2}"),
                encoded.to_string(),
                codec_stage.to_string(),
                read.to_string(),
                dispatched.to_string(),
                submit.to_string(),
            ]);
        }
        println!("ns/record: median [p25, p75] of nine rounds");
        print_table(
            &[
                "shape",
                "B/record",
                "encode",
                "newline+UTF-8",
                "read_request",
                "dispatch_into",
                "submit_batch",
            ],
            &table,
        );
    }

    #[test]
    fn frame_scanner_resumes_across_arbitrary_splits() {
        let mut wire = Vec::new();
        encode_json_frame(&mut wire, r#"{"op":"ping"}"#);
        for cut in 0..wire.len() {
            match scan_frame(&wire[..cut], 1 << 20).unwrap() {
                Frame::NeedMore => {}
                Frame::Complete { .. } => panic!("prefix of {cut} bytes cannot be complete"),
            }
        }
        match scan_frame(&wire, 1 << 20).unwrap() {
            Frame::Complete {
                opcode,
                payload,
                frame_len,
            } => {
                assert_eq!(opcode, OP_JSON);
                assert_eq!(payload, br#"{"op":"ping"}"#);
                assert_eq!(frame_len, wire.len());
            }
            Frame::NeedMore => panic!("complete frame must scan"),
        }
        // An oversized declared length is fatal the moment the header
        // is readable — no buffering gigabytes first.
        let mut oversized = vec![OP_JSON];
        write_varint(&mut oversized, 1 << 30);
        assert!(scan_frame(&oversized, 1 << 20).is_err());
        // An unterminated length varint past its maximum width is
        // hostile, not slow.
        let mut unterminated = vec![OP_JSON];
        unterminated.extend_from_slice(&[0x80u8; MAX_VARINT_BYTES + 1]);
        assert!(scan_frame(&unterminated, 1 << 20).is_err());
    }

    #[test]
    fn find_head_end_locates_the_blank_line() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest", 0), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n", 0), None);
        assert_eq!(find_head_end(b"", 0), None);
        assert_eq!(find_head_end(b"\r\n\r\n", 0), Some(4));
        assert_eq!(find_head_end(b"\n\r\n\r\n", 0), Some(5));
        assert_eq!(find_head_end(b"a\n\nb\r\n\n\r\n\r\n", 0), Some(11));
        // Resumed at any point of a head whose blank line is cut at
        // every byte, the search finds the same end.
        let head = b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n";
        for cut in 0..head.len() {
            assert_eq!(find_head_end(&head[..cut], 0), None, "cut {cut}");
            assert_eq!(find_head_end(head, cut), Some(head.len()), "cut {cut}");
        }
    }

    #[test]
    fn find_byte_matches_a_bytewise_search_from_every_start() {
        let mut next = xorshift(5);
        for len in 0..70 {
            // Few distinct bytes, so matches land at every word offset;
            // 0x80 and 0xff probe the high-bit arithmetic.
            let buf: Vec<u8> = (0..len)
                .map(|_| [b'\n', b'a', 0, 0x80, 0xff, 0x0b][(next() % 6) as usize])
                .collect();
            for from in 0..=len {
                for needle in [b'\n', 0, 0x80, 0xff, b'z'] {
                    let expected = buf[from..].iter().position(|&b| b == needle);
                    assert_eq!(
                        find_byte(&buf, from, needle),
                        expected.map(|i| from + i),
                        "{buf:?} from {from} for {needle}"
                    );
                }
            }
        }
    }

    /// Feeds `pieces` to `codec` the way [`drive_blocking`] does: steps
    /// until the codec needs more bytes, then drains what it consumed.
    /// Returns the response bytes, the stream offset consumed, and
    /// whether the codec failed fatally (it is fed nothing after that).
    fn feed<'a>(
        codec: &mut dyn FrameCodec,
        shared: &Shared,
        pieces: impl IntoIterator<Item = &'a [u8]>,
    ) -> (Vec<u8>, usize, bool) {
        let (mut input, mut out, mut total) = (Vec::new(), Vec::new(), 0);
        let mut signals = Signals::default();
        for piece in pieces {
            input.extend_from_slice(piece);
            let mut consumed = 0;
            let step = loop {
                match codec.step(shared, &input, &mut consumed, &mut out, &mut signals) {
                    Step::Progress => {}
                    other => break other,
                }
            };
            input.drain(..consumed);
            total += consumed;
            if step == Step::Fatal {
                return (out, total, true);
            }
        }
        (out, total, false)
    }

    #[test]
    fn a_line_in_many_reads_is_searched_once() {
        // The longest line the default config accepts, in 1 KB reads:
        // the newline search resumes where the last read ended, so the
        // line's bytes are searched once in all (restarting at the line
        // start on every read searches about 3.4·10¹⁰ bytes).
        let shared = Shared::for_tests(crate::ServiceConfig::default());
        let mut line = br#"{"op":"ping"}"#.to_vec();
        line.resize(http::MAX_LINE_BYTES, b' ');
        line.push(b'\n');
        SEARCHED.with(|n| n.set(0));
        let (out, consumed, fatal) = feed(&mut LineFraming::new(), &shared, line.chunks(1024));
        assert!(!fatal);
        assert_eq!(consumed, line.len());
        assert!(
            out.starts_with(br#"{"ok":true"#),
            "{}",
            String::from_utf8_lossy(&out)
        );
        assert_eq!(SEARCHED.with(Cell::get), line.len());
    }

    #[test]
    fn a_head_in_many_reads_is_searched_once() {
        // A head just under the 16 KB cap, padded with headers, in
        // 64-byte reads: each byte is searched for the blank line once.
        let shared = Shared::for_tests(crate::ServiceConfig::default());
        let mut head = b"GET /ping HTTP/1.1\r\nHost: x\r\n".to_vec();
        while head.len() < http::MAX_HEAD_BYTES - 200 {
            head.extend_from_slice(b"X-Pad: ");
            head.resize(head.len() + 90, b'p');
            head.extend_from_slice(b"\r\n");
        }
        head.extend_from_slice(b"\r\n");
        SEARCHED.with(|n| n.set(0));
        let (out, consumed, fatal) = feed(&mut HttpFraming::new(), &shared, head.chunks(64));
        assert!(!fatal);
        assert_eq!(consumed, head.len());
        assert!(
            out.starts_with(b"HTTP/1.1 200"),
            "{}",
            String::from_utf8_lossy(&out)
        );
        assert_eq!(SEARCHED.with(Cell::get), head.len());
    }

    #[test]
    fn the_line_codec_resumes_at_every_cut() {
        // A synchronous 4096-record HEALTH submit, a blank line, a
        // CRLF-terminated stats and a line over the cap. Whole, or cut
        // in two anywhere, the stream gets the same two answers and
        // fails at the start of the long line.
        let rows = frapp_data::health::health_like_n(4096, 3)
            .records()
            .to_vec();
        let mut wire = br#"{"op":"submit","session":1,"#.to_vec();
        let mut fields = String::new();
        crate::client::write_submit_fields(&mut fields, rows.iter(), true, None);
        wire.extend_from_slice(fields.as_bytes());
        wire.extend_from_slice(b"}\n");
        let submit_end = wire.len();
        wire.extend_from_slice(b"\n{\"op\":\"stats\",\"session\":1}\r\n");
        let long_start = wire.len();
        wire.extend_from_slice(br#"{"op":"ping"}"#);
        wire.resize(long_start + http::MAX_LINE_BYTES + 100, b' ');
        wire.push(b'\n');

        let run = |cut: Option<usize>| {
            let shared = shared_with_session(
                &frapp_data::health::schema(),
                crate::ServiceConfig::default(),
            );
            let mut codec = LineFraming::new();
            match cut {
                None => feed(&mut codec, &shared, [&wire[..]]),
                Some(cut) => feed(&mut codec, &shared, [&wire[..cut], &wire[cut..]]),
            }
        };
        let (out, consumed, fatal) = run(None);
        let answers = String::from_utf8(out.clone()).unwrap();
        assert_eq!(
            answers,
            "{\"ok\":true,\"accepted\":4096,\"shard\":0}\n\
             {\"ok\":true,\"total\":4096,\"per_shard\":[4096,0]}\n",
        );
        assert_eq!((consumed, fatal), (long_start, true));
        // Every cut near the line boundaries, seeded ones inside the
        // submit and the long line.
        let mut cuts: Vec<usize> = (0..64)
            .chain(submit_end - 64..long_start + 64)
            .chain(wire.len() - 64..=wire.len())
            .collect();
        let mut next = xorshift(11);
        for (start, end, count) in [
            (64, submit_end - 64, 32),
            (long_start + 64, wire.len() - 64, 16),
        ] {
            cuts.extend((0..count).map(|_| start + next() as usize % (end - start)));
        }
        for cut in cuts {
            assert_eq!(
                run(Some(cut)),
                (out.clone(), long_start, true),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn a_framing_switch_in_one_read_starts_the_next_line_search_afresh() {
        // `hello` to binary, then in the same read a frame switching
        // back and a line: the line's search starts at its first byte,
        // not where the hello line's search stopped.
        let shared = Shared::for_tests(crate::ServiceConfig::default());
        let mut wire = b"{\"op\":\"hello\",\"framing\":\"binary\"}\n".to_vec();
        let hello_len = wire.len();
        encode_json_frame(&mut wire, r#"{"op":"hello","framing":"line"}"#);
        wire.extend_from_slice(b"{\"op\":\"ping\"}\n");
        let mut expected = b"{\"ok\":true,\"framing\":\"binary\"}\n".to_vec();
        encode_json_frame(&mut expected, r#"{"ok":true,"framing":"line"}"#);
        let (whole, ..) = feed(&mut LineFraming::new(), &shared, [&wire[..]]);
        assert!(
            whole.starts_with(&expected),
            "{}",
            String::from_utf8_lossy(&whole)
        );
        for cut in 0..=wire.len() {
            let fed = feed(
                &mut LineFraming::new(),
                &shared,
                [&wire[..cut], &wire[cut..]],
            );
            assert_eq!(fed, (whole.clone(), wire.len(), false), "cut at {cut}");
        }
        // Cut inside the hello line, the first search stops past the
        // length of the last line; a kept resume point would skip it.
        assert!(hello_len - 1 > b"{\"op\":\"ping\"}".len());
    }
}
