//! A minimal HTTP/1.1 front-end over the same dispatch core as the
//! line protocol.
//!
//! Hand-rolled request parsing in the spirit of the line protocol — no
//! new dependencies — implementing just enough of HTTP/1.1 for REST
//! clients and `curl`: request line + headers, `Content-Length` and
//! `Transfer-Encoding: chunked` bodies, keep-alive connections, and
//! `Expect: 100-continue`. Every route of [`crate::wire::OPS`] maps onto
//! an existing [`Request`] with the *same JSON bodies* as the line
//! protocol, so a response is byte-identical across transports
//! (`docs/PROTOCOL.md` §4.1 lists the routes; `GET /metrics` with
//! `Accept: text/plain` answers in the Prometheus text exposition).
//!
//! `shutdown` and deferred-ack submits are deliberately not exposed:
//! both are connection-oriented (the latter relies on *not* answering a
//! request), which HTTP's strict request/response pairing cannot
//! express. Errors map onto status codes (`404` unknown session or
//! route, `400` invalid request, `500` server-side failure) with the
//! line protocol's `{"ok":false,"error":...}` body.
//!
//! This module owns the routing/parsing pieces (`parse_head`,
//! `ChunkDecoder`, `respond`, `format_http_response`). The
//! per-connection framing state machine lives in
//! `crate::framing::HttpFraming`, which both the threaded accept loop
//! in [`crate::server`] and the nonblocking reactor drive — so the two
//! front-ends speak the same dialect by construction.
//! `docs/PROTOCOL.md` is the normative spec.

use crate::dispatch;
use crate::error::{Result, ServiceError};
use crate::json::{self, Value};
use crate::protocol::{self, write_error_response, Request};
use crate::server::Shared;
use crate::wire::{OpRow, QueryKind, OPS};

/// Upper bound on the request line + headers. Bodies are separately
/// bounded by `ServiceConfig::max_line_bytes`. Shared with the reactor
/// front-end so both paths enforce the same frame limits.
pub(crate) const MAX_HEAD_BYTES: usize = 16 * 1024;

/// The Content-Type of every JSON response body.
pub(crate) const CONTENT_TYPE_JSON: &str = "application/json";
/// The Content-Type of the Prometheus text exposition format.
const CONTENT_TYPE_PROMETHEUS: &str = "text/plain; version=0.0.4";

/// Routes one request and executes it, writing the response body into
/// `out`; returns `(status, reason, content_type)`. Shared with the
/// reactor front-end, which frames the same call with nonblocking I/O.
///
/// `accept_text` (the request's `Accept` header asking for
/// `text/plain`) selects the Prometheus exposition rendering of
/// `GET /metrics`; every other route — and `/metrics` without the
/// header — answers JSON exactly as before.
pub(crate) fn respond(
    shared: &Shared,
    method: &str,
    target: &str,
    accept_text: bool,
    body: &[u8],
    out: &mut String,
) -> (u16, &'static str, &'static str) {
    let req = match route(method, target, body) {
        Ok(Request::Metrics { session: None }) if accept_text => {
            let peers = shared.fed.as_deref().map(|f| f.peer_reports());
            crate::metrics::write_prometheus_metrics(
                out,
                &shared.transport.report(),
                peers.as_deref(),
            );
            return (200, "OK", CONTENT_TYPE_PROMETHEUS);
        }
        Ok(req) => req,
        Err(RouteError::NotFound(msg)) => {
            write_error_response(out, &ServiceError::InvalidRequest(msg));
            return (404, "Not Found", CONTENT_TYPE_JSON);
        }
        Err(RouteError::Bad(e)) => {
            write_error_response(out, &e);
            let (status, reason) = status_of(&e);
            return (status, reason, CONTENT_TYPE_JSON);
        }
    };
    match dispatch::execute(
        &shared.registry,
        &shared.config,
        &shared.transport,
        shared.fed.as_deref(),
        Some(&shared.jobs),
        req,
        out,
    ) {
        Ok(_) => (200, "OK", CONTENT_TYPE_JSON),
        Err(e) => {
            out.clear();
            write_error_response(out, &e);
            let (status, reason) = status_of(&e);
            (status, reason, CONTENT_TYPE_JSON)
        }
    }
}

/// The status code an in-band error maps to. The JSON body carries the
/// same `error` (and `accepted`, for partial batches) either way.
fn status_of(e: &ServiceError) -> (u16, &'static str) {
    match e {
        ServiceError::UnknownSession(_) | ServiceError::UnknownJob(_) => (404, "Not Found"),
        ServiceError::InvalidRequest(_)
        | ServiceError::Protocol(_)
        | ServiceError::Frapp(_)
        | ServiceError::PartialBatch { .. } => (400, "Bad Request"),
        _ => (500, "Internal Server Error"),
    }
}

#[derive(Debug)]
enum RouteError {
    /// No such path/method: `404` without consulting the registry.
    NotFound(String),
    /// The path matched but the request is malformed.
    Bad(ServiceError),
}

impl From<ServiceError> for RouteError {
    fn from(e: ServiceError) -> Self {
        RouteError::Bad(e)
    }
}

/// Maps `(method, path, query, body)` onto a [`Request`]: the route row
/// names the op and binds the path id, and the body (the line
/// protocol's JSON object minus `op` and the id) plus the query
/// parameters are its fields, parsed by [`protocol::build_request`]
/// like a line.
fn route(method: &str, target: &str, body: &[u8]) -> std::result::Result<Request, RouteError> {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let (row, id) = match_route(method, path)?;
    let mut fields = if body.is_empty() {
        // An absent body reads as an empty object so that ops with
        // all-optional fields (persist) need no payload.
        Vec::new()
    } else {
        let text = std::str::from_utf8(body)
            .map_err(|_| ServiceError::Protocol("request body is not valid UTF-8".into()))?;
        match json::parse(text)? {
            Value::Object(fields) => fields,
            // Like a line that is not an object: every field is missing.
            _ => Vec::new(),
        }
    };
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        let value = match row.query.iter().find(|(k, _)| *k == key) {
            Some((_, QueryKind::Text)) => value.into(),
            Some((_, QueryKind::Bool)) => match value {
                "true" | "1" => true.into(),
                "false" | "0" => false.into(),
                other => {
                    return Err(RouteError::Bad(ServiceError::InvalidRequest(format!(
                        "`{key}` must be true or false, got `{other}`"
                    ))))
                }
            },
            None => {
                return Err(RouteError::Bad(ServiceError::InvalidRequest(format!(
                    "unknown query parameter `{key}`"
                ))))
            }
        };
        fields.push((key.to_owned(), value));
    }
    // Deferred acks are connection-oriented; over HTTP every request is
    // answered, so the parser refuses them here.
    Ok(protocol::build_request(
        row.op,
        id,
        &Value::Object(fields),
        false,
    )?)
}

/// Finds the [`OPS`] route matching `(method, path)` and parses the id
/// segment its pattern binds, if any.
fn match_route(
    method: &str,
    path: &str,
) -> std::result::Result<(&'static OpRow, Option<u64>), RouteError> {
    let segments = |path| str::split(path, '/').filter(|s| !s.is_empty());
    for row in &OPS {
        for &(route_method, pattern) in row.routes {
            let mut id = None;
            let mut rest = segments(path);
            let matched = route_method == method
                && segments(pattern).all(|want| match rest.next() {
                    Some(seg) if want == "{id}" => {
                        id = Some(seg);
                        true
                    }
                    seg => seg == Some(want),
                })
                && rest.next().is_none();
            if !matched {
                continue;
            }
            let id = id
                .map(|seg| {
                    seg.parse::<u64>().map_err(|_| {
                        RouteError::Bad(ServiceError::InvalidRequest(format!(
                            "`{seg}` is not a {} id",
                            row.id.unwrap_or_default()
                        )))
                    })
                })
                .transpose()?;
            return Ok((row, id));
        }
    }
    Err(RouteError::NotFound(format!(
        "no route for {method} {path}"
    )))
}

/// How a request's body bytes are framed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BodyFraming {
    /// A `Content-Length` body of exactly this many bytes (0 when the
    /// header is absent).
    Length(usize),
    /// A `Transfer-Encoding: chunked` body ([`ChunkDecoder`] reads it).
    Chunked,
}

/// A parsed request head: the request line plus the headers this
/// front-end cares about.
#[derive(Debug)]
pub(crate) struct Head {
    pub(crate) method: String,
    pub(crate) target: String,
    pub(crate) version: String,
    pub(crate) body: BodyFraming,
    /// The `Connection` header's verdict (HTTP/1.1 defaults true).
    keep_alive: bool,
    pub(crate) expect_continue: bool,
    /// Whether the `Accept` header asks for a plain-text body
    /// (`text/plain`, or a bare `text/*`) — drives the Prometheus
    /// exposition rendering of `GET /metrics`.
    pub(crate) accept_text: bool,
}

impl Head {
    /// Whether the connection persists after this exchange: only
    /// HTTP/1.1 without an explicit `Connection: close`.
    pub(crate) fn keep_alive(&self) -> bool {
        self.keep_alive && self.version == "HTTP/1.1"
    }

    /// Whether body bytes follow the head (drives `100 Continue`).
    pub(crate) fn expects_body(&self) -> bool {
        !matches!(self.body, BodyFraming::Length(0))
    }
}

/// Parses the request line and the headers this front-end cares about.
pub(crate) fn parse_head(head: &[u8]) -> Result<Head> {
    let text = std::str::from_utf8(head)
        .map_err(|_| ServiceError::Protocol("request head is not valid UTF-8".into()))?;
    let mut lines = text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| ServiceError::Protocol("empty request".into()))?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/") => {
            (m.to_owned(), t.to_owned(), v.to_owned())
        }
        _ => {
            return Err(ServiceError::Protocol(format!(
                "malformed request line `{request_line}`"
            )))
        }
    };
    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    // HTTP/1.1 defaults to persistent connections.
    let mut keep_alive = version == "HTTP/1.1";
    let mut expect_continue = false;
    let mut accept_text = false;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ServiceError::Protocol(format!(
                "malformed header line `{line}`"
            )));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let parsed: usize = value
                .parse()
                .map_err(|_| ServiceError::Protocol(format!("invalid Content-Length `{value}`")))?;
            // Differing duplicate Content-Lengths are the sibling
            // smuggling vector of TE+CL below: a front proxy honouring
            // one and this server the other desyncs the framing. RFC
            // 7230 §3.3.3 says refuse (identical repeats may collapse).
            if content_length.is_some_and(|prev| prev != parsed) {
                return Err(ServiceError::Protocol(
                    "request carries conflicting Content-Length headers".into(),
                ));
            }
            content_length = Some(parsed);
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("expect") && value.eq_ignore_ascii_case("100-continue")
        {
            expect_continue = true;
        } else if name.eq_ignore_ascii_case("accept") {
            // A simplified negotiation: any listed `text/plain` (or
            // `text/*`) media range selects the text rendering where
            // one exists. q-weights are not interpreted.
            accept_text = value
                .split(',')
                .map(|range| range.split(';').next().unwrap_or("").trim())
                .any(|media| media.eq_ignore_ascii_case("text/plain") || media == "text/*");
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            if value.eq_ignore_ascii_case("chunked") {
                chunked = true;
            } else {
                // `gzip, chunked` and friends: refusing beats silently
                // misreading the framing.
                return Err(ServiceError::Protocol(format!(
                    "unsupported Transfer-Encoding `{value}` (only `chunked` is implemented)"
                )));
            }
        }
    }
    // A message carrying both framings is a classic request-smuggling
    // vector; RFC 7230 §3.3.3 says to treat it as an error.
    if chunked && content_length.is_some() {
        return Err(ServiceError::Protocol(
            "request carries both Transfer-Encoding and Content-Length".into(),
        ));
    }
    Ok(Head {
        method,
        target,
        version,
        body: if chunked {
            BodyFraming::Chunked
        } else {
            BodyFraming::Length(content_length.unwrap_or(0))
        },
        keep_alive,
        expect_continue,
        accept_text,
    })
}

/// Why a chunked body could not be decoded.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum ChunkError {
    /// The decoded body would exceed the server's body-size limit.
    TooLarge(usize),
    /// The chunk framing itself is malformed.
    Malformed(String),
}

impl ChunkError {
    /// The HTTP status line this decode failure maps to.
    pub(crate) fn status(&self) -> (u16, &'static str) {
        match self {
            ChunkError::TooLarge(_) => (413, "Payload Too Large"),
            ChunkError::Malformed(_) => (400, "Bad Request"),
        }
    }

    /// The in-band error body for this decode failure.
    pub(crate) fn into_service_error(self) -> ServiceError {
        match self {
            ChunkError::TooLarge(limit) => {
                ServiceError::Protocol(format!("request body exceeds {limit} bytes"))
            }
            ChunkError::Malformed(msg) => {
                ServiceError::Protocol(format!("malformed chunked body: {msg}"))
            }
        }
    }
}

/// Upper bound on one chunk-size or trailer line. Size lines are a hex
/// count plus optional extensions; anything longer is hostile.
const MAX_CHUNK_LINE: usize = 1024;

enum ChunkState {
    /// Reading a `<hex-size>[;ext]\r\n` line.
    Size,
    /// Reading this many remaining data bytes of the current chunk.
    Data(usize),
    /// Reading the `\r\n` that terminates a chunk's data.
    DataEnd,
    /// After the zero-size chunk: reading (and discarding) trailer
    /// lines until the blank line.
    Trailers,
    /// The terminal `\r\n` seen; the body is complete.
    Done,
}

/// An incremental `Transfer-Encoding: chunked` body decoder.
///
/// Feed it raw wire bytes with [`ChunkDecoder::push`]; it consumes as
/// much as it can (possibly stopping mid-chunk) and accumulates the
/// de-chunked body. Both HTTP front-ends share it: the threaded path
/// feeds it straight from a `BufReader`, the reactor from a
/// connection's read buffer — which is exactly why it is a resumable
/// state machine rather than a blocking read loop. Chunk extensions
/// are ignored and trailer headers are discarded, per the grammar in
/// RFC 7230 §4.1.
pub(crate) struct ChunkDecoder {
    state: ChunkState,
    body: Vec<u8>,
    /// Scratch for size/trailer lines that straddle `push` calls.
    line: Vec<u8>,
    max_bytes: usize,
}

impl ChunkDecoder {
    /// A decoder that refuses bodies longer than `max_bytes`.
    pub(crate) fn new(max_bytes: usize) -> Self {
        ChunkDecoder {
            state: ChunkState::Size,
            body: Vec::new(),
            line: Vec::new(),
            max_bytes,
        }
    }

    /// Whether the terminal chunk (and its trailers) have been read.
    pub(crate) fn is_done(&self) -> bool {
        matches!(self.state, ChunkState::Done)
    }

    /// Moves the decoded body into `out` (clearing it first).
    pub(crate) fn take_body(&mut self, out: &mut Vec<u8>) {
        out.clear();
        std::mem::swap(out, &mut self.body);
    }

    /// Consumes as many of `input`'s bytes as the state machine can,
    /// returning how many were eaten. Call again with the remainder
    /// (plus newly read bytes) once more data arrives; when
    /// [`Self::is_done`] turns true the unconsumed tail belongs to the
    /// next request on the connection.
    pub(crate) fn push(&mut self, input: &[u8]) -> std::result::Result<usize, ChunkError> {
        let mut consumed = 0usize;
        while consumed < input.len() {
            let rest = &input[consumed..];
            match self.state {
                ChunkState::Done => break,
                ChunkState::Size => match self.take_line(rest)? {
                    None => consumed = input.len(),
                    Some(eaten) => {
                        consumed += eaten;
                        let line = std::mem::take(&mut self.line);
                        let size = parse_chunk_size(&line)?;
                        if self.body.len() + size > self.max_bytes {
                            return Err(ChunkError::TooLarge(self.max_bytes));
                        }
                        self.state = if size == 0 {
                            ChunkState::Trailers
                        } else {
                            self.body.reserve(size);
                            ChunkState::Data(size)
                        };
                    }
                },
                ChunkState::Data(remaining) => {
                    let take = remaining.min(rest.len());
                    self.body.extend_from_slice(&rest[..take]);
                    consumed += take;
                    self.state = if take == remaining {
                        ChunkState::DataEnd
                    } else {
                        ChunkState::Data(remaining - take)
                    };
                }
                ChunkState::DataEnd => match self.take_line(rest)? {
                    None => consumed = input.len(),
                    Some(eaten) => {
                        consumed += eaten;
                        if !self.line.is_empty() {
                            return Err(ChunkError::Malformed(
                                "chunk data is not terminated by CRLF".into(),
                            ));
                        }
                        self.line.clear();
                        self.state = ChunkState::Size;
                    }
                },
                ChunkState::Trailers => match self.take_line(rest)? {
                    None => consumed = input.len(),
                    Some(eaten) => {
                        consumed += eaten;
                        let blank = self.line.is_empty();
                        self.line.clear();
                        if blank {
                            self.state = ChunkState::Done;
                            break;
                        }
                        // A non-blank trailer line is discarded; keep
                        // reading until the blank terminator.
                    }
                },
            }
        }
        Ok(consumed)
    }

    /// Accumulates bytes of one CRLF-terminated line into `self.line`
    /// (CRLF stripped). Returns how many input bytes were eaten when
    /// the line completed, `None` when more input is needed (everything
    /// was buffered).
    fn take_line(&mut self, input: &[u8]) -> std::result::Result<Option<usize>, ChunkError> {
        match input.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                self.line.extend_from_slice(&input[..pos]);
                if self.line.last() != Some(&b'\r') {
                    return Err(ChunkError::Malformed(
                        "chunk line is not CRLF-terminated".into(),
                    ));
                }
                self.line.pop();
                if self.line.len() > MAX_CHUNK_LINE {
                    return Err(ChunkError::Malformed("chunk line too long".into()));
                }
                Ok(Some(pos + 1))
            }
            None => {
                self.line.extend_from_slice(input);
                if self.line.len() > MAX_CHUNK_LINE {
                    return Err(ChunkError::Malformed("chunk line too long".into()));
                }
                Ok(None)
            }
        }
    }
}

/// Parses a chunk-size line: hex digits, optionally followed by
/// `;extension` (ignored).
fn parse_chunk_size(line: &[u8]) -> std::result::Result<usize, ChunkError> {
    let digits = match line.iter().position(|&b| b == b';') {
        Some(pos) => &line[..pos],
        None => line,
    };
    let text = std::str::from_utf8(digits)
        .map_err(|_| ChunkError::Malformed("chunk size is not ASCII".into()))?
        .trim();
    if text.is_empty() || text.len() > 8 {
        return Err(ChunkError::Malformed(format!(
            "invalid chunk size `{text}`"
        )));
    }
    usize::from_str_radix(text, 16)
        .map_err(|_| ChunkError::Malformed(format!("invalid chunk size `{text}`")))
}

/// Appends one HTTP response (status line, headers, body) to a byte
/// buffer. Shared by the threaded writer below and the reactor's
/// output buffers, so both front-ends emit byte-identical messages.
pub(crate) fn format_http_response(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: {content_type}\r\n\
         Content-Length: {}\r\n\
         Connection: {connection}\r\n\r\n",
        body.len()
    );
    out.reserve(head.len() + body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_head_extracts_request_line_and_headers() {
        let head = b"POST /sessions HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\n\
                     Connection: close\r\nExpect: 100-continue\r\n\r\n";
        let h = parse_head(head).unwrap();
        assert_eq!(h.method, "POST");
        assert_eq!(h.target, "/sessions");
        assert_eq!(h.version, "HTTP/1.1");
        assert_eq!(h.body, BodyFraming::Length(12));
        assert!(!h.keep_alive());
        assert!(h.expect_continue);
        assert!(h.expects_body());
        // Defaults: HTTP/1.1 keeps alive, no body.
        let h = parse_head(b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(h.body, BodyFraming::Length(0));
        assert!(h.keep_alive());
        assert!(!h.expect_continue);
        assert!(!h.expects_body());
        assert!(parse_head(b"GARBAGE\r\n\r\n").is_err());
    }

    #[test]
    fn parse_head_recognises_chunked_framing() {
        let h = parse_head(b"POST /x HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n")
            .unwrap();
        assert_eq!(h.body, BodyFraming::Chunked);
        assert!(h.expects_body());
        // Non-chunked codings stay refused.
        assert!(
            parse_head(b"POST /x HTTP/1.1\r\nTransfer-Encoding: gzip, chunked\r\n\r\n").is_err()
        );
        // Both framings at once is a smuggling vector: refuse.
        assert!(parse_head(
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n"
        )
        .is_err());
        // So are conflicting duplicate Content-Lengths; identical
        // repeats collapse per RFC 7230 §3.3.3.
        assert!(parse_head(
            b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 100\r\n\r\n"
        )
        .is_err());
        let h = parse_head(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\n")
            .unwrap();
        assert_eq!(h.body, BodyFraming::Length(5));
    }

    #[test]
    fn chunk_decoder_reassembles_split_chunks() {
        let wire = b"4\r\nWiki\r\n5\r\npedia\r\nE;ext=1\r\n in\r\n\r\nchunks.\r\n0\r\n\r\n";
        // Feed in every possible split position: the state machine must
        // resume anywhere, including mid-CRLF and mid-size-line.
        for split in 0..wire.len() {
            let mut dec = ChunkDecoder::new(1 << 20);
            let mut fed = 0;
            for part in [&wire[..split], &wire[split..]] {
                let mut rest = part;
                while !rest.is_empty() && !dec.is_done() {
                    let n = dec.push(rest).unwrap();
                    assert!(n > 0, "decoder must make progress");
                    rest = &rest[n..];
                    fed += n;
                }
            }
            assert!(dec.is_done(), "split at {split}");
            assert_eq!(fed, wire.len());
            let mut body = Vec::new();
            dec.take_body(&mut body);
            assert_eq!(body, b"Wikipedia in\r\n\r\nchunks.");
        }
    }

    #[test]
    fn chunk_decoder_stops_at_the_message_end() {
        // Bytes past the terminal chunk belong to the next request.
        let wire = b"3\r\nabc\r\n0\r\n\r\nGET /ping HTTP/1.1\r\n";
        let mut dec = ChunkDecoder::new(1 << 20);
        let consumed = dec.push(wire).unwrap();
        assert!(dec.is_done());
        assert_eq!(&wire[consumed..], b"GET /ping HTTP/1.1\r\n");
        // Trailer headers before the blank line are discarded.
        let wire = b"1\r\nx\r\n0\r\nX-Sum: 1\r\n\r\n";
        let mut dec = ChunkDecoder::new(1 << 20);
        let consumed = dec.push(wire).unwrap();
        assert!(dec.is_done());
        assert_eq!(consumed, wire.len());
        let mut body = Vec::new();
        dec.take_body(&mut body);
        assert_eq!(body, b"x");
    }

    #[test]
    fn chunk_decoder_rejects_malformed_and_oversized_streams() {
        // Garbage size line.
        let mut dec = ChunkDecoder::new(1 << 20);
        assert!(matches!(dec.push(b"zz\r\n"), Err(ChunkError::Malformed(_))));
        // Missing CRLF after chunk data.
        let mut dec = ChunkDecoder::new(1 << 20);
        assert!(matches!(
            dec.push(b"3\r\nabcXY\r\n"),
            Err(ChunkError::Malformed(_))
        ));
        // Bare-LF line endings are refused.
        let mut dec = ChunkDecoder::new(1 << 20);
        assert!(matches!(dec.push(b"3\nabc"), Err(ChunkError::Malformed(_))));
        // A chunk that would blow the body cap fails before buffering.
        let mut dec = ChunkDecoder::new(8);
        let err = dec.push(b"FF\r\n").unwrap_err();
        assert_eq!(err, ChunkError::TooLarge(8));
        assert_eq!(err.status().0, 413);
        assert_eq!(ChunkError::Malformed("x".into()).status().0, 400);
    }

    #[test]
    fn job_routes_map_to_protocol_requests() {
        use crate::jobs::MineAlgo;
        use crate::protocol::AttrRef;
        match route(
            "POST",
            "/sessions/7/mine",
            br#"{"algo":"fpgrowth","min_support":0.1}"#,
        ) {
            Ok(Request::MineRules { session, spec }) => {
                assert_eq!(session, 7);
                assert_eq!(spec.algo, MineAlgo::FpGrowth);
                assert_eq!(spec.min_support, 0.1);
            }
            other => panic!("unexpected route: {other:?}"),
        }
        // An empty body takes every default.
        assert!(matches!(
            route("POST", "/sessions/7/mine", b""),
            Ok(Request::MineRules { session: 7, .. })
        ));
        match route("POST", "/sessions/7/classify", br#"{"target":"class"}"#) {
            Ok(Request::Classify { session, target }) => {
                assert_eq!(session, 7);
                assert_eq!(target, AttrRef::Name("class".into()));
            }
            other => panic!("unexpected route: {other:?}"),
        }
        assert!(matches!(route("GET", "/jobs", b""), Ok(Request::ListJobs)));
        assert!(matches!(
            route("GET", "/jobs/9", b""),
            Ok(Request::JobStatus { job: 9 })
        ));
        assert!(matches!(
            route("GET", "/jobs/9/result", b""),
            Ok(Request::JobResult { job: 9 })
        ));
        assert!(matches!(
            route("DELETE", "/jobs/9", b""),
            Ok(Request::JobCancel { job: 9 })
        ));
        assert!(matches!(
            route("GET", "/jobs/banana", b""),
            Err(RouteError::Bad(_))
        ));
        // Unknown jobs are 404, like unknown sessions.
        assert_eq!(status_of(&ServiceError::UnknownJob(9)).0, 404);
    }

    #[test]
    fn routes_map_to_protocol_requests() {
        assert!(matches!(route("GET", "/ping", b""), Ok(Request::Ping)));
        assert!(matches!(
            route("GET", "/sessions", b""),
            Ok(Request::ListSessions)
        ));
        assert!(matches!(
            route("GET", "/sessions/7", b""),
            Ok(Request::Stats {
                session: 7,
                allow_partial: false
            })
        ));
        assert!(matches!(
            route("GET", "/sessions/7/stats", b""),
            Ok(Request::Stats {
                session: 7,
                allow_partial: false
            })
        ));
        assert!(matches!(
            route("GET", "/sessions/7/stats?allow_partial=true", b""),
            Ok(Request::Stats {
                session: 7,
                allow_partial: true
            })
        ));
        assert!(route("GET", "/sessions/7/stats?allow_partial=maybe", b"").is_err());
        assert!(matches!(
            route("GET", "/metrics", b""),
            Ok(Request::Metrics { session: None })
        ));
        assert!(matches!(
            route("GET", "/sessions/3/metrics", b""),
            Ok(Request::Metrics { session: Some(3) })
        ));
        assert!(matches!(
            route("DELETE", "/sessions/3", b""),
            Ok(Request::CloseSession {
                session: 3,
                local: false
            })
        ));
        assert!(matches!(
            route("GET", "/cluster", b""),
            Ok(Request::ClusterStatus)
        ));
        assert!(matches!(
            route("POST", "/persist", b""),
            Ok(Request::Persist { session: None })
        ));
        assert!(matches!(
            route("POST", "/sessions/9/persist", b""),
            Ok(Request::Persist { session: Some(9) })
        ));
        let req = route(
            "POST",
            "/sessions",
            br#"{"schema":[["a",3]],"gamma":19.0,"seed":7}"#,
        )
        .ok()
        .unwrap();
        assert!(matches!(req, Request::CreateSession { seed: Some(7), .. }));
        let req = route(
            "POST",
            "/sessions/4/records",
            br#"{"records":[[0],[1]],"pre_perturbed":true}"#,
        )
        .ok()
        .unwrap();
        match req {
            Request::Submit(submit) => {
                assert_eq!(submit.session, 4);
                assert_eq!(submit.records.len(), 2);
                assert!(submit.pre_perturbed);
                assert!(!submit.deferred);
            }
            other => panic!("unexpected route result {other:?}"),
        }
    }

    #[test]
    fn reconstruct_route_parses_query_parameters() {
        match route(
            "GET",
            "/sessions/2/reconstruct?method=cached_lu&clamp=false&allow_partial=true",
            b"",
        ) {
            Ok(Request::Reconstruct {
                session,
                method,
                clamp,
                allow_partial,
            }) => {
                assert_eq!(session, 2);
                assert_eq!(method, crate::session::ReconstructionMethod::CachedLu);
                assert!(!clamp);
                assert!(allow_partial);
            }
            _ => panic!("route failed"),
        }
        // Defaults: closed form, clamped, exact.
        match route("GET", "/sessions/2/reconstruct", b"") {
            Ok(Request::Reconstruct {
                method,
                clamp,
                allow_partial,
                ..
            }) => {
                assert_eq!(method, crate::session::ReconstructionMethod::ClosedForm);
                assert!(clamp);
                assert!(!allow_partial);
            }
            _ => panic!("route failed"),
        }
        assert!(route("GET", "/sessions/2/reconstruct?clamp=maybe", b"").is_err());
        assert!(route("GET", "/sessions/2/reconstruct?boost=1", b"").is_err());
    }

    #[test]
    fn unknown_routes_and_bad_ids_are_distinguished() {
        assert!(matches!(
            route("GET", "/nope", b""),
            Err(RouteError::NotFound(_))
        ));
        assert!(matches!(
            route("PATCH", "/sessions/1", b""),
            Err(RouteError::NotFound(_))
        ));
        assert!(matches!(
            route("GET", "/sessions/abc", b""),
            Err(RouteError::Bad(_))
        ));
        // Deferred acks are refused over HTTP.
        assert!(matches!(
            route(
                "POST",
                "/sessions/1/records",
                br#"{"records":[[0]],"ack":"deferred"}"#
            ),
            Err(RouteError::Bad(ServiceError::InvalidRequest(_)))
        ));
    }

    #[test]
    fn error_statuses_follow_the_error_kind() {
        assert_eq!(status_of(&ServiceError::UnknownSession(1)).0, 404);
        assert_eq!(status_of(&ServiceError::InvalidRequest("x".into())).0, 400);
        assert_eq!(
            status_of(&ServiceError::PartialBatch {
                accepted: 1,
                source: Box::new(ServiceError::InvalidRequest("x".into())),
            })
            .0,
            400
        );
        assert_eq!(status_of(&ServiceError::Snapshot("x".into())).0, 500);
    }
}
