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

    fn u32_le(&mut self) -> Result<u32> {
        let Some((head, rest)) = self.buf.split_first_chunk::<4>() else {
            return Err(truncated());
        };
        self.buf = rest;
        Ok(u32::from_le_bytes(*head))
    }
}

fn truncated() -> ServiceError {
    ServiceError::Protocol("truncated field inside a complete submit frame".into())
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
        let seq = r.varint()?;
        Placement::Replicated { origin, seq }
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
    let mut records = RecordBatch::new();
    for _ in 0..n_records {
        for _ in 0..n_attrs {
            let cell = if fixed32 {
                r.u32_le()?
            } else {
                let v = r.varint()?;
                u32::try_from(v)
                    .map_err(|_| ServiceError::Protocol(format!("cell value {v} exceeds u32")))?
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

/// The raw-TCP codec: starts in line-JSON framing and switches to the
/// binary framing when a `hello` negotiates it. Owns the connection's
/// deferred-submit watermark.
pub(crate) struct LineFraming {
    state: ConnState,
    mode: WireFraming,
    response: String,
}

impl LineFraming {
    pub(crate) fn new() -> Self {
        LineFraming {
            state: ConnState::new(),
            mode: WireFraming::Json,
            response: String::new(),
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
        let Some(pos) = rest.iter().position(|&b| b == b'\n') else {
            if rest.len() > shared.config.max_line_bytes {
                return Step::Fatal;
            }
            return Step::NeedMore;
        };
        if pos > shared.config.max_line_bytes {
            return Step::Fatal;
        }
        let Ok(text) = std::str::from_utf8(&rest[..pos]) else {
            return Step::Fatal;
        };
        // Borrowck: `text` borrows `input`, which `dispatch_into` does
        // not touch — but `self.response` must not alias it, so the
        // line is trimmed before the buffers are reborrowed.
        let start = text.len() - text.trim_start().len();
        let end = start + text.trim().len();
        *consumed += pos + 1;
        if start == end {
            return Step::Progress; // blank line: ignored, as always
        }
        let line = &input[*consumed - pos - 1 + start..*consumed - pos - 1 + end];
        // Safety of the re-slice: `start..end` indexes `text`, a
        // str view of exactly these bytes, so it stays valid UTF-8.
        let line = match std::str::from_utf8(line) {
            Ok(l) => l,
            Err(_) => return Step::Fatal,
        };
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
        let (opcode, payload, frame_len) = match scan_frame(rest, shared.config.max_line_bytes) {
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
                let line = text.trim().to_owned();
                dispatch::dispatch_into(
                    &shared.registry,
                    &shared.config,
                    &shared.transport,
                    shared.fed.as_deref(),
                    Some(&shared.jobs),
                    &mut self.state,
                    &line,
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
/// `\r\n\r\n`), if the buffer holds one.
pub(crate) fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

impl HttpFraming {
    pub(crate) fn new() -> Self {
        HttpFraming {
            state: HttpState::Head,
            response: String::new(),
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
                let Some(end) = find_head_end(rest) else {
                    if rest.len() > http::MAX_HEAD_BYTES {
                        return Step::Fatal;
                    }
                    return Step::NeedMore;
                };
                let head = match http::parse_head(&rest[..end]) {
                    Ok(h) => h,
                    Err(e) => {
                        *consumed += end;
                        return self.respond_error(400, "Bad Request", &e, out, signals);
                    }
                };
                *consumed += end;
                if let BodyFraming::Length(n) = head.body {
                    if n > shared.config.max_line_bytes {
                        let e = ServiceError::Protocol(format!(
                            "request body exceeds {} bytes",
                            shared.config.max_line_bytes
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
                            // Bounded by max_line_bytes (checked above),
                            // but cap the eager reservation anyway.
                            body: Vec::with_capacity(n.min(64 * 1024)),
                            need: n,
                        };
                        Step::Progress
                    }
                    BodyFraming::Chunked => {
                        self.state = HttpState::Chunked {
                            head,
                            decoder: ChunkDecoder::new(shared.config.max_line_bytes),
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
mod tests {
    use super::*;

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

    #[test]
    fn malformed_submit_payloads_are_rejected() {
        let valid = {
            let mut wire = Vec::new();
            encode_submit_frame(
                &mut wire,
                1,
                &[vec![1, 2], vec![3, 4]],
                true,
                None,
                false,
                false,
            );
            match scan_frame(&wire, 1 << 20).unwrap() {
                Frame::Complete { payload, .. } => payload.to_vec(),
                Frame::NeedMore => unreachable!(),
            }
        };
        decode_submit_payload(&valid).unwrap();
        // Any truncation of a complete frame's payload is an error (a
        // cut varint, a missing cell, a cut header field) — never a
        // silent partial batch.
        for cut in 0..valid.len() {
            assert!(
                decode_submit_payload(&valid[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
        // Unknown flag bits are refused, not ignored.
        let mut unknown_flag = valid.clone();
        unknown_flag[0] |= 0x80;
        assert!(decode_submit_payload(&unknown_flag).is_err());
        // Trailing bytes after the declared cells are refused.
        let mut trailing = valid.clone();
        trailing.push(0);
        assert!(decode_submit_payload(&trailing).is_err());
        // A declared cell count the payload cannot hold is refused
        // before any allocation.
        let mut absurd = vec![0u8];
        write_varint(&mut absurd, 1); // session
        write_varint(&mut absurd, u64::MAX / 2); // n_records
        write_varint(&mut absurd, 2); // n_attrs
        assert!(decode_submit_payload(&absurd).is_err());
        // Records of no attributes carry no cells to bound their number:
        // seven bytes must not decode into fifty million records.
        let mut zero_arity = vec![0u8];
        write_varint(&mut zero_arity, 1); // session
        write_varint(&mut zero_arity, 50_000_000); // n_records
        write_varint(&mut zero_arity, 0); // n_attrs
        assert_eq!(zero_arity.len(), 7);
        assert!(decode_submit_payload(&zero_arity).is_err());
        // A fixed32 cell count whose byte size overflows is refused, not
        // wrapped (release) or panicked on (overflow checks).
        let mut overflowing = vec![FLAG_FIXED32];
        write_varint(&mut overflowing, 1); // session
        write_varint(&mut overflowing, 1 << 62); // n_records
        write_varint(&mut overflowing, 1); // n_attrs
        assert!(decode_submit_payload(&overflowing).is_err());
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
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(find_head_end(b""), None);
    }
}
