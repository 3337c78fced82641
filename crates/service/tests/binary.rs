//! Binary-framing integration tests: three-framing bit parity on both
//! front-ends, the negotiated-upgrade handshake over raw sockets,
//! response byte-equivalence with the line protocol, the
//! negotiated-framing counters, and malformed-frame rejection
//! (truncated varints, oversized lengths, unknown opcodes/flags,
//! mid-frame disconnects) on the threaded and reactor paths alike;
//! replication stamps, which only a binary frame may carry; and a
//! client reading a hostile response length.

#![cfg(unix)]

use frapp_service::client::{Client, HttpClient, SessionSpec};
use frapp_service::framing::{
    encode_json_frame, encode_submit_frame, read_varint, write_varint, FLAG_HAS_SHARD,
    FLAG_HAS_STAMP, FLAG_PRE_PERTURBED, OP_JSON, OP_SUBMIT,
};
use frapp_service::session::{Mechanism, ReconstructionMethod};
use frapp_service::wire::{Counter, Op};
use frapp_service::{Server, ServerHandle, ServiceConfig, ServiceError};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

const GAMMA: f64 = 19.0;

fn spawn_threaded() -> ServerHandle {
    Server::bind(ServiceConfig::default().with_http_addr("127.0.0.1:0"))
        .unwrap()
        .spawn()
        .unwrap()
}

fn spawn_async() -> ServerHandle {
    Server::bind(
        ServiceConfig::default()
            .with_http_addr("127.0.0.1:0")
            .with_reactor(2),
    )
    .unwrap()
    .spawn()
    .unwrap()
}

fn small_spec(seed: u64) -> SessionSpec {
    SessionSpec {
        schema: vec![("a".into(), 4), ("b".into(), 3)],
        mechanism: Mechanism::Deterministic { gamma: GAMMA },
        shards: Some(1),
        seed: Some(seed),
    }
}

/// A deterministic raw workload over the 12-cell `small_spec` domain.
fn workload(n: usize) -> Vec<Vec<u32>> {
    (0..n)
        .map(|i| {
            if i % 10 < 6 {
                vec![1, 2]
            } else {
                vec![(i % 4) as u32, (i % 3) as u32]
            }
        })
        .collect()
}

/// Opens a raw connection and upgrades it to binary framing via the
/// line-protocol `hello`, asserting the ack arrives in the *old*
/// framing. Returns the stream positioned just past the ack.
fn raw_binary_upgrade(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer
        .write_all(b"{\"op\":\"hello\",\"framing\":\"binary\"}\n")
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut ack = String::new();
    assert!(reader.read_line(&mut ack).unwrap() > 0, "no hello ack");
    assert!(ack.contains("\"ok\":true"), "{ack}");
    assert!(ack.contains("\"framing\":\"binary\""), "{ack}");
    assert!(
        reader.buffer().is_empty(),
        "nothing may follow the ack until the client speaks binary"
    );
    stream
}

/// Reads one `[opcode][varint len][payload]` frame off a raw stream.
fn read_frame(stream: &mut TcpStream) -> Option<(u8, Vec<u8>)> {
    let mut opcode = [0u8; 1];
    match stream.read_exact(&mut opcode) {
        Ok(()) => {}
        Err(_) => return None,
    }
    let mut varint = Vec::new();
    loop {
        let mut b = [0u8; 1];
        stream.read_exact(&mut b).unwrap();
        varint.push(b[0]);
        if b[0] & 0x80 == 0 {
            break;
        }
    }
    let (len, _) = read_varint(&varint).unwrap().unwrap();
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload).unwrap();
    Some((opcode[0], payload))
}

/// Reads until EOF, asserting the server closed without sending a
/// single byte — the fatal-frame contract. A stalled server trips the
/// read timeout and fails the test; a reset (close with unread input)
/// counts as a close.
fn assert_silent_close(stream: &mut TcpStream) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = Vec::new();
    match stream.read_to_end(&mut buf) {
        Ok(n) => assert_eq!(
            n,
            0,
            "malformed frames must be dropped silently, got {:?}",
            String::from_utf8_lossy(&buf)
        ),
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {
            assert!(buf.is_empty(), "{:?}", String::from_utf8_lossy(&buf))
        }
        Err(e) => panic!("server must close the connection, not stall: {e}"),
    }
}

#[test]
fn all_three_framings_reconstruct_bit_identically_on_both_front_ends() {
    // The same create/submit/reconstruct script over the line protocol,
    // HTTP, and the negotiated binary framing, against a threaded and a
    // reactor server. Identical seeds + pinned shards mean identical
    // server-side perturbation streams, so every pair of transports
    // must agree bit-for-bit.
    for handle in [spawn_threaded(), spawn_async()] {
        let mut line = Client::connect(handle.addr()).unwrap();
        let mut http = HttpClient::connect(handle.http_addr().unwrap()).unwrap();
        let mut binary = Client::connect(handle.addr()).unwrap();
        binary.negotiate_binary().unwrap();
        assert_eq!(
            binary.framing(),
            frapp_service::protocol::WireFraming::Binary
        );

        let records = workload(5_000);
        let line_session = line.create_session(&small_spec(0xBEEF)).unwrap();
        let http_session = http.create_session(&small_spec(0xBEEF)).unwrap();
        let binary_session = binary.create_session(&small_spec(0xBEEF)).unwrap();

        for batch in records.chunks(500) {
            line.submit_batch_to_shard(line_session, 0, batch, false)
                .unwrap();
            http.submit_batch_to_shard(http_session, 0, batch, false)
                .unwrap();
            binary
                .submit_batch_to_shard(binary_session, 0, batch, false)
                .unwrap();
        }

        let a = line.stats(line_session).unwrap();
        let b = http.stats(http_session).unwrap();
        let c = binary.stats(binary_session).unwrap();
        assert_eq!(a.total, records.len() as u64);
        assert_eq!(a.total, b.total);
        assert_eq!(a.total, c.total);
        assert_eq!(a.per_shard, c.per_shard);

        for (method, clamp) in [
            (ReconstructionMethod::ClosedForm, false),
            (ReconstructionMethod::CachedLu, false),
        ] {
            let via_line = line.reconstruct(line_session, method, clamp).unwrap();
            let via_http = http.reconstruct(http_session, method, clamp).unwrap();
            let via_binary = binary.reconstruct(binary_session, method, clamp).unwrap();
            assert_eq!(via_line.estimates, via_http.estimates, "{method:?}");
            assert_eq!(via_line.estimates, via_binary.estimates, "{method:?}");
        }

        // The negotiated-framing counters saw the upgraded connection
        // and every frame it sent after the hello.
        let report = line.server_metrics().unwrap();
        assert_eq!(report.get(Counter::BinaryConnections), 1, "{report:?}");
        assert!(
            report.get(Counter::BinaryRequests) >= (records.len() / 500) as u64,
            "{report:?}"
        );
        // Binary frames also count toward the shared TCP request
        // counter, so the per-framing split always sums to the total.
        assert!(report.get(Counter::TcpRequests) >= report.get(Counter::BinaryRequests));

        handle.shutdown().unwrap();
    }
}

#[test]
fn binary_pipelined_submits_match_line_pipelining_including_failures() {
    // Deferred binary OP_SUBMIT frames are silent, flush reports the
    // same contiguous watermark the line protocol would, and a partial
    // batch poisons the watermark identically.
    let handle = spawn_threaded();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.negotiate_binary().unwrap();
    let session = client.create_session(&small_spec(7)).unwrap();

    let records = workload(5_000);
    for batch in records.chunks(100) {
        client.submit_nowait(session, batch, false).unwrap();
    }
    let accepted = client.flush().unwrap();
    assert_eq!(accepted, records.len() as u64);
    assert_eq!(client.stats(session).unwrap().total, records.len() as u64);
    assert_eq!(
        client
            .server_metrics()
            .unwrap()
            .get(Counter::DeferredBatches),
        50
    );

    // A mid-batch schema violation: the flush error carries the
    // watermark, exactly like the line protocol's retry contract.
    client
        .submit_nowait(session, &[vec![0, 0], vec![9, 9], vec![1, 1]], true)
        .unwrap();
    let err = client.flush().unwrap_err();
    match err {
        ServiceError::Remote { accepted, message } => {
            assert!(message.contains("counted"), "{message}");
            // The first flush reset the watermark, so only the one
            // record accepted from the failing batch is counted.
            assert_eq!(accepted, Some(1));
        }
        other => panic!("expected Remote, got {other:?}"),
    }

    // The same session stays usable for the retry past the watermark.
    client
        .submit_nowait(session, &[vec![2, 1], vec![1, 1]], true)
        .unwrap();
    assert_eq!(client.flush().unwrap(), 2);
    assert_eq!(
        client.stats(session).unwrap().total,
        records.len() as u64 + 3
    );

    handle.shutdown().unwrap();
}

#[test]
fn binary_responses_are_line_responses_minus_the_newline() {
    // §6.4: an OP_JSON response frame's payload is byte-identical to
    // the line-protocol response for the same request, minus the
    // trailing '\n'. The same script runs over the line protocol on one
    // fresh server and over binary frames on a second fresh server of
    // the same kind — fresh registries, identical seeds, so identical
    // ids and identical bytes. Checked on both front-ends.
    for spawn in [spawn_threaded as fn() -> ServerHandle, spawn_async] {
        let line_server = spawn();
        let bin_server = spawn();
        let script = [
            r#"{"op":"ping"}"#,
            r#"{"op":"create_session","schema":[["a",4],["b",3]],"gamma":19.0,"shards":1,"seed":7}"#,
            r#"{"op":"submit","session":1,"records":[[0,0],[1,2]],"pre_perturbed":false}"#,
            r#"{"op":"stats","session":1}"#,
            r#"{"op":"stats","session":404}"#,
            r#"{"op":"reconstruct","session":1,"method":"closed","clamp":true}"#,
        ];

        let line_stream = TcpStream::connect(line_server.addr()).unwrap();
        let mut line_writer = line_stream.try_clone().unwrap();
        let mut line_reader = BufReader::new(line_stream);
        let mut bin_stream = raw_binary_upgrade(bin_server.addr());
        let mut frame = Vec::new();
        for request in script {
            line_writer.write_all(request.as_bytes()).unwrap();
            line_writer.write_all(b"\n").unwrap();
            line_writer.flush().unwrap();
            let mut line_response = String::new();
            assert!(line_reader.read_line(&mut line_response).unwrap() > 0);

            frame.clear();
            encode_json_frame(&mut frame, request);
            bin_stream.write_all(&frame).unwrap();
            bin_stream.flush().unwrap();
            let (opcode, payload) = read_frame(&mut bin_stream).expect("response frame");
            assert_eq!(opcode, OP_JSON);
            let bin_response = String::from_utf8(payload).unwrap();
            assert_eq!(
                bin_response,
                line_response.trim_end_matches('\n'),
                "request {request}"
            );
        }
        line_server.shutdown().unwrap();
        bin_server.shutdown().unwrap();
    }
}

#[test]
fn binary_submit_frames_land_like_json_submits() {
    // A raw OP_SUBMIT frame (varint cells) and its FIXED32 twin ingest
    // exactly like the tunnelled JSON submit, on both front-ends.
    for handle in [spawn_threaded(), spawn_async()] {
        let mut control = Client::connect(handle.addr()).unwrap();
        let session = control.create_session(&small_spec(3)).unwrap();

        let mut stream = raw_binary_upgrade(handle.addr());
        let records = vec![vec![1u32, 2], vec![3, 1], vec![0, 0]];
        let mut frame = Vec::new();
        encode_submit_frame(&mut frame, session, &records, true, None, false, false);
        stream.write_all(&frame).unwrap();
        let (opcode, payload) = read_frame(&mut stream).expect("submit response");
        assert_eq!(opcode, OP_JSON);
        let response = String::from_utf8(payload).unwrap();
        assert!(response.contains("\"accepted\":3"), "{response}");

        // FIXED32 cells, routed to a pinned shard, deferred (silent).
        frame.clear();
        encode_submit_frame(&mut frame, session, &records, true, Some(0), true, true);
        stream.write_all(&frame).unwrap();
        // Flush via the JSON tunnel to collect the watermark.
        frame.clear();
        encode_json_frame(&mut frame, r#"{"op":"flush"}"#);
        stream.write_all(&frame).unwrap();
        let (opcode, payload) = read_frame(&mut stream).expect("flush response");
        assert_eq!(opcode, OP_JSON);
        let response = String::from_utf8(payload).unwrap();
        assert!(response.contains("\"accepted\":3"), "{response}");

        assert_eq!(control.stats(session).unwrap().total, 6);
        handle.shutdown().unwrap();
    }
}

#[test]
fn malformed_binary_frames_close_the_connection_silently() {
    // Every malformed-frame class from §6 must produce a silent fatal
    // close on the threaded path and the reactor path alike — and the
    // server must keep serving fresh connections afterwards.
    for handle in [spawn_threaded(), spawn_async()] {
        let addr = handle.addr();

        // Unknown opcode.
        let mut s = raw_binary_upgrade(addr);
        s.write_all(&[0x7F, 0x00]).unwrap();
        assert_silent_close(&mut s);

        // Overlong varint length (11 continuation bytes can never be a
        // valid LEB128 u64).
        let mut s = raw_binary_upgrade(addr);
        let mut frame = vec![OP_JSON];
        frame.extend_from_slice(&[0xFF; 11]);
        s.write_all(&frame).unwrap();
        assert_silent_close(&mut s);

        // Oversized declared length: rejected before any payload byte
        // is read (the write of the length alone triggers the close).
        let mut s = raw_binary_upgrade(addr);
        let mut frame = vec![OP_JSON];
        write_varint(&mut frame, u64::MAX / 2);
        s.write_all(&frame).unwrap();
        assert_silent_close(&mut s);

        // Truncated varint then disconnect: the server must just drop
        // the connection, not stall or crash.
        let mut s = raw_binary_upgrade(addr);
        s.write_all(&[OP_SUBMIT, 0x80, 0x80]).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        assert_silent_close(&mut s);

        // Mid-frame disconnect: a frame that declares 100 payload bytes
        // but delivers 10.
        let mut s = raw_binary_upgrade(addr);
        let mut frame = vec![OP_SUBMIT];
        write_varint(&mut frame, 100);
        frame.extend_from_slice(&[0u8; 10]);
        s.write_all(&frame).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        assert_silent_close(&mut s);

        // Unknown flag bit in an otherwise valid OP_SUBMIT.
        let mut control = Client::connect(addr).unwrap();
        let session = control.create_session(&small_spec(1)).unwrap();
        let mut s = raw_binary_upgrade(addr);
        let mut frame = Vec::new();
        encode_submit_frame(&mut frame, session, &[vec![0, 0]], true, None, false, false);
        // The flags byte sits right after the opcode and length varint;
        // for this tiny frame the length is a single byte.
        frame[2] |= 0x80;
        s.write_all(&frame).unwrap();
        assert_silent_close(&mut s);

        // A cell-count lie: n_records * n_attrs larger than the payload
        // can hold must be rejected by pre-validation, not by a giant
        // allocation.
        let mut s = raw_binary_upgrade(addr);
        let mut payload = vec![0u8]; // flags
        write_varint(&mut payload, session);
        write_varint(&mut payload, u64::MAX / 4); // n_records
        write_varint(&mut payload, 2); // n_attrs
        let mut frame = vec![OP_SUBMIT];
        write_varint(&mut frame, payload.len() as u64);
        frame.extend_from_slice(&payload);
        s.write_all(&frame).unwrap();
        assert_silent_close(&mut s);

        // The server survived all of it: fresh connections still work,
        // and no malformed frame ingested anything.
        let mut after = Client::connect(addr).unwrap();
        after.ping().unwrap();
        assert_eq!(control.stats(session).unwrap().total, 0);
        handle.shutdown().unwrap();
    }
}

#[test]
fn binary_negotiation_can_downgrade_back_to_line() {
    // §6.1: a tunnelled hello can switch the connection back to the
    // line framing; the ack arrives as the last binary frame.
    let handle = spawn_threaded();
    let mut stream = raw_binary_upgrade(handle.addr());
    let mut frame = Vec::new();
    encode_json_frame(&mut frame, r#"{"op":"hello","framing":"line"}"#);
    stream.write_all(&frame).unwrap();
    let (opcode, payload) = read_frame(&mut stream).expect("downgrade ack");
    assert_eq!(opcode, OP_JSON);
    assert!(
        String::from_utf8(payload)
            .unwrap()
            .contains("\"framing\":\"line\""),
        "ack must confirm the downgrade"
    );
    // Back on the line protocol: a plain newline-terminated request.
    stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    assert!(reader.read_line(&mut response).unwrap() > 0);
    assert!(response.contains("\"pong\":true"), "{response}");
    handle.shutdown().unwrap();
}

/// A pipelined sequence of requests on one raw binary connection, each
/// answered by one `OP_JSON` frame: the response payloads, in order.
fn binary_answers(stream: &mut TcpStream, frames: &[Vec<u8>]) -> Vec<String> {
    frames
        .iter()
        .map(|frame| {
            stream.write_all(frame).unwrap();
            let (opcode, payload) = read_frame(stream).expect("response frame");
            assert_eq!(opcode, OP_JSON);
            String::from_utf8(payload).unwrap()
        })
        .collect()
}

/// An `OP_SUBMIT` frame of `flags` and varint `fields`, spelled out.
fn submit_frame(flags: u8, fields: &[u64]) -> Vec<u8> {
    let mut payload = vec![flags];
    for &field in fields {
        write_varint(&mut payload, field);
    }
    let mut frame = vec![OP_SUBMIT];
    write_varint(&mut frame, payload.len() as u64);
    frame.extend_from_slice(&payload);
    frame
}

#[test]
fn stamped_submit_frames_answer_what_stamped_lines_did() {
    // The replicated cases that left the JSON submit transcript of
    // `tests/wire_table.rs`: as frames on a binary connection they get
    // the bytes the parent commit answered to the stamped lines.
    let handle = spawn_threaded();
    let mut stream = raw_binary_upgrade(handle.addr());
    let mut create = Vec::new();
    encode_json_frame(
        &mut create,
        r#"{"op":"create_session","schema":[["a",3],["b",2]],"gamma":19,"shards":2,"seed":7}"#,
    );
    let pre_stamped = FLAG_PRE_PERTURBED | FLAG_HAS_STAMP;
    // session, [shard,] origin, seq, n_records, n_attrs, then the cells
    let fresh = submit_frame(pre_stamped, &[1, 3, 5, 2, 2, 1, 0, 1, 1]);
    let beside_a_hint = submit_frame(pre_stamped | FLAG_HAS_SHARD, &[1, 1, 3, 6, 1, 2, 2, 1]);
    let answers = binary_answers(&mut stream, &[create, fresh.clone(), fresh, beside_a_hint]);
    assert!(
        answers[0].starts_with(r#"{"ok":true,"session":1,"#),
        "{}",
        answers[0]
    );
    assert_eq!(
        answers[1..],
        [
            r#"{"ok":true,"accepted":2,"shard":1}"#,
            r#"{"ok":true,"accepted":2,"shard":1,"duplicate":true}"#,
            r#"{"ok":true,"accepted":1,"shard":0}"#,
        ]
    );
    handle.shutdown().unwrap();
}

#[test]
fn json_stamps_are_refused_on_every_framing() {
    // A JSON submit carrying a replication stamp is refused alike over
    // HTTP, on the line protocol and inside `OP_JSON`. Were the HTTP
    // body honoured, its seq 100 would raise the shard's mark, and the
    // peer's real forward at seq 2 would be acked as a duplicate and
    // never counted.
    const REFUSAL: &str = "{\"ok\":false,\"error\":\"invalid request: `origin` and `seq` are \
        not submit fields; replicated batches travel only as stamped binary OP_SUBMIT frames\"}";
    let handle = spawn_threaded();
    let mut control = Client::connect(handle.addr()).unwrap();
    let session = control.create_session(&small_spec(5)).unwrap();
    let fields = r#""records":[[0,0]],"pre_perturbed":true,"origin":3,"seq":100}"#;

    let mut http = TcpStream::connect(handle.http_addr().unwrap()).unwrap();
    let body = format!("{{{fields}");
    write!(
        http,
        "POST /sessions/{session}/records HTTP/1.1\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    http.read_to_string(&mut response).unwrap();
    let mut binary = raw_binary_upgrade(handle.addr());
    let forward = submit_frame(
        FLAG_PRE_PERTURBED | FLAG_HAS_STAMP,
        &[session, 3, 2, 1, 2, 1, 2],
    );
    // The shard's mark did not move: the forward below the refused seq
    // is fresh, and it counts.
    assert_eq!(
        binary_answers(&mut binary, &[forward]),
        [r#"{"ok":true,"accepted":1,"shard":0}"#]
    );
    assert_eq!(control.stats(session).unwrap().total, 1);
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    assert!(
        response.ends_with(&format!("\r\n\r\n{REFUSAL}")),
        "{response}"
    );

    let line = format!(r#"{{"op":"submit","session":{session},{fields}"#);
    let mut plain = TcpStream::connect(handle.addr()).unwrap();
    plain.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut answer = String::new();
    BufReader::new(&plain).read_line(&mut answer).unwrap();
    assert_eq!(answer, format!("{REFUSAL}\n"));
    let mut tunnelled = Vec::new();
    encode_json_frame(&mut tunnelled, &line);
    assert_eq!(binary_answers(&mut binary, &[tunnelled]), [REFUSAL]);
    assert_eq!(control.stats(session).unwrap().total, 1);
    handle.shutdown().unwrap();
}

#[test]
fn a_lying_response_length_fails_the_call_not_the_process() {
    // A server that acks `hello`, then declares a 2^40-byte response
    // frame and closes: the client's memory follows the bytes that
    // arrive, so the call fails instead of the allocation aborting.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let liar = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut hello = String::new();
        reader.read_line(&mut hello).unwrap();
        stream.write_all(b"{\"ok\":true}\n").unwrap();
        // The ping frame: opcode, one length byte, `{"op":"ping"}`.
        let mut ping = [0u8; 15];
        reader.read_exact(&mut ping).unwrap();
        let mut header = vec![OP_JSON];
        write_varint(&mut header, 1 << 40);
        stream.write_all(&header).unwrap();
    });
    let mut client = Client::connect(addr).unwrap();
    client.negotiate_binary().unwrap();
    assert!(client.call(Op::Ping, None, vec![]).is_err());
    liar.join().unwrap();
}

#[test]
fn a_lying_http_content_length_fails_the_call_not_the_process() {
    // The HTTP twin: a response head declaring a 1 TiB body, one body
    // byte, then close. The short body is a closed connection, not an
    // allocation abort.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let liar = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap() > 0 && line != "\r\n" {
            line.clear();
        }
        stream
            .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\n{")
            .unwrap();
    });
    let mut client = HttpClient::connect(addr).unwrap();
    let err = client.request("GET", "/health", None).unwrap_err();
    assert!(matches!(err, ServiceError::ConnectionClosed), "{err}");
    liar.join().unwrap();
}
