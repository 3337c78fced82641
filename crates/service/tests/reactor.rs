//! The async (epoll/kqueue) front-end against the threaded one:
//! raw-byte wire parity over both protocols, chunked request bodies on
//! both paths, reactor metrics, and a concurrent-fan-in soak with
//! pipelined clients.

#![cfg(unix)]

use frapp_service::client::{Client, HttpClient, SessionSpec};
use frapp_service::session::{Mechanism, ReconstructionMethod};
use frapp_service::wire::Counter;
use frapp_service::{Server, ServerHandle, ServiceConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const GAMMA: f64 = 19.0;

fn spawn_threaded() -> ServerHandle {
    Server::bind(ServiceConfig::default().with_http_addr("127.0.0.1:0"))
        .unwrap()
        .spawn()
        .unwrap()
}

fn spawn_async(reactor_threads: usize) -> ServerHandle {
    Server::bind(
        ServiceConfig::default()
            .with_http_addr("127.0.0.1:0")
            .with_reactor(reactor_threads),
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

/// Connects with a short retry loop: under the soak test's fan-in the
/// listener backlog can momentarily overflow.
fn connect_patiently(addr: SocketAddr) -> TcpStream {
    for attempt in 0..50 {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(_) if attempt < 49 => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("connect failed: {e}"),
        }
    }
    unreachable!()
}

/// Sends raw request lines over one connection and returns each raw
/// response line (deferred submits produce none, by design).
fn raw_line_exchange(addr: SocketAddr, lines: &[&str], expected_responses: usize) -> Vec<String> {
    let stream = connect_patiently(addr);
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for line in lines {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
    }
    writer.flush().unwrap();
    let mut responses = Vec::new();
    for _ in 0..expected_responses {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
        responses.push(line);
    }
    responses
}

/// Sends one raw HTTP/1.1 request and returns the full raw response
/// (head + body) as bytes.
fn raw_http_exchange(addr: SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut stream = connect_patiently(addr);
    stream.set_nodelay(true).unwrap();
    stream.write_all(request).unwrap();
    stream.flush().unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    // Head.
    let mut response = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse().unwrap();
        }
        response.extend_from_slice(line.as_bytes());
        if line == "\r\n" {
            break;
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    response.extend_from_slice(&body);
    response
}

#[test]
fn async_line_protocol_is_byte_identical_to_threaded() {
    // The same raw request script against two fresh servers — one
    // threaded, one reactor — must produce byte-identical response
    // lines: same ids (fresh registries), same seeds, same JSON
    // encoding, same error strings, same deferred-watermark splices.
    let threaded = spawn_threaded();
    let reactor = spawn_async(1);

    let script: Vec<String> = vec![
        r#"{"op":"ping"}"#.into(),
        r#"{"op":"create_session","schema":[["a",4],["b",3]],"gamma":19.0,"shards":1,"seed":7}"#
            .into(),
        r#"{"op":"submit","session":1,"records":[[0,0],[1,2]],"pre_perturbed":false}"#.into(),
        // Deferred submits: quiet, then the stats response carries the
        // watermark splice.
        r#"{"op":"submit","session":1,"records":[[3,1]],"pre_perturbed":true,"ack":"deferred"}"#
            .into(),
        r#"{"op":"stats","session":1}"#.into(),
        // Failure paths must agree byte-for-byte too.
        r#"{"op":"submit","session":1,"records":[[9,9]],"pre_perturbed":true}"#.into(),
        r#"{"op":"stats","session":404}"#.into(),
        "not json at all".into(),
        r#"{"op":"reconstruct","session":1,"method":"closed","clamp":true}"#.into(),
        r#"{"op":"flush"}"#.into(),
        r#"{"op":"list_sessions"}"#.into(),
        r#"{"op":"close_session","session":1}"#.into(),
    ];
    let refs: Vec<&str> = script.iter().map(String::as_str).collect();
    // One line produces no response (the deferred submit).
    let expected = refs.len() - 1;
    let via_threaded = raw_line_exchange(threaded.addr(), &refs, expected);
    let via_reactor = raw_line_exchange(reactor.addr(), &refs, expected);
    assert_eq!(via_threaded.len(), via_reactor.len());
    for (i, (a, b)) in via_threaded.iter().zip(&via_reactor).enumerate() {
        assert_eq!(a, b, "response {i} diverged");
    }

    threaded.shutdown().unwrap();
    reactor.shutdown().unwrap();
}

#[test]
fn async_http_is_byte_identical_to_threaded() {
    let threaded = spawn_threaded();
    let reactor = spawn_async(1);

    let requests: Vec<Vec<u8>> = vec![
        b"GET /ping HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n".to_vec(),
        {
            let body = br#"{"schema":[["a",4],["b",3]],"gamma":19.0,"shards":1,"seed":7}"#;
            let mut r = format!(
                "POST /sessions HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                body.len()
            )
            .into_bytes();
            r.extend_from_slice(body);
            r
        },
        {
            let body = br#"{"records":[[0,0],[1,2]],"pre_perturbed":false}"#;
            let mut r = format!(
                "POST /sessions/1/records HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                body.len()
            )
            .into_bytes();
            r.extend_from_slice(body);
            r
        },
        b"GET /sessions/1/reconstruct?method=closed&clamp=true HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            .to_vec(),
        b"GET /sessions/404 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n".to_vec(),
        b"GET /not/a/route HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n".to_vec(),
        b"GET /sessions HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n".to_vec(),
        b"DELETE /sessions/1 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n".to_vec(),
    ];
    for (i, request) in requests.iter().enumerate() {
        let a = raw_http_exchange(threaded.http_addr().unwrap(), request);
        let b = raw_http_exchange(reactor.http_addr().unwrap(), request);
        assert_eq!(
            String::from_utf8_lossy(&a),
            String::from_utf8_lossy(&b),
            "response {i} diverged"
        );
    }

    threaded.shutdown().unwrap();
    reactor.shutdown().unwrap();
}

#[test]
fn async_serves_the_bundled_clients_and_reports_reactor_metrics() {
    // The stock Client/HttpClient work unchanged against --async, and
    // the reactor counters become visible through `{"op":"metrics"}`.
    let handle = spawn_async(2);
    let mut tcp = Client::connect(handle.addr()).unwrap();
    let mut http = HttpClient::connect(handle.http_addr().unwrap()).unwrap();
    tcp.ping().unwrap();
    http.ping().unwrap();

    let session = tcp.create_session(&small_spec(3)).unwrap();
    tcp.submit_batch(session, &[vec![0, 0], vec![1, 1]], true)
        .unwrap();
    http.submit_batch(session, &[vec![2, 2]], true).unwrap();
    assert_eq!(http.stats(session).unwrap().total, 3);
    let rec = tcp
        .reconstruct(session, ReconstructionMethod::ClosedForm, true)
        .unwrap();
    assert_eq!(rec.estimates.len(), 12);

    let report = tcp.server_metrics().unwrap();
    assert!(report.get(Counter::TcpConnections) >= 1, "{report:?}");
    assert!(report.get(Counter::HttpConnections) >= 1, "{report:?}");
    // Two reactors, each registering at least both listeners, plus two
    // live connections somewhere among them.
    assert!(report.get(Counter::ReactorRegisteredFds) >= 4, "{report:?}");
    assert!(report.get(Counter::ReactorWakeups) > 0, "{report:?}");

    handle.shutdown().unwrap();
}

/// One chunked submit via a raw socket; returns the response status
/// line plus parsed body.
fn chunked_submit(addr: SocketAddr, session: u64, chunks: &[&[u8]]) -> (String, String) {
    let mut stream = connect_patiently(addr);
    stream.set_nodelay(true).unwrap();
    let head = format!(
        "POST /sessions/{session}/records HTTP/1.1\r\nHost: x\r\n\
         Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    );
    stream.write_all(head.as_bytes()).unwrap();
    for chunk in chunks {
        stream
            .write_all(format!("{:x}\r\n", chunk.len()).as_bytes())
            .unwrap();
        stream.write_all(chunk).unwrap();
        stream.write_all(b"\r\n").unwrap();
        // Flush each chunk separately so the server's incremental
        // decoder actually sees a split stream.
        stream.flush().unwrap();
    }
    stream.write_all(b"0\r\n\r\n").unwrap();
    stream.flush().unwrap();
    raw_response_of(stream)
}

fn raw_response_of(stream: TcpStream) -> (String, String) {
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status).unwrap();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0);
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse().unwrap();
        }
        if line == "\r\n" {
            break;
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    (status.trim().to_owned(), String::from_utf8(body).unwrap())
}

#[test]
fn chunked_request_bodies_work_on_both_http_paths() {
    let threaded = spawn_threaded();
    let reactor = spawn_async(1);
    for handle in [&threaded, &reactor] {
        let addr = handle.http_addr().unwrap();
        let mut http = HttpClient::connect(addr).unwrap();
        let session = http.create_session(&small_spec(5)).unwrap();

        // A body split awkwardly across three chunks (mid-key, mid-
        // number) must parse exactly like a Content-Length body.
        let (status, body) = chunked_submit(
            addr,
            session,
            &[
                br#"{"records":[[0,"#,
                br#"0],[1,2],[3"#,
                br#",1]],"pre_perturbed":true}"#,
            ],
        );
        assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
        assert!(body.contains(r#""accepted":3"#), "{body}");
        assert_eq!(http.stats(session).unwrap().total, 3);

        // Malformed chunk framing: 400 with an in-band error.
        let mut stream = connect_patiently(addr);
        stream
            .write_all(
                format!(
                    "POST /sessions/{session}/records HTTP/1.1\r\nHost: x\r\n\
                     Transfer-Encoding: chunked\r\n\r\nZZZ\r\n"
                )
                .as_bytes(),
            )
            .unwrap();
        let (status, body) = raw_response_of(stream);
        assert_eq!(status, "HTTP/1.1 400 Bad Request", "{body}");
        assert!(body.contains("chunk"), "{body}");
    }
    threaded.shutdown().unwrap();
    reactor.shutdown().unwrap();
}

#[test]
fn soak_256_pipelined_clients_fan_in_without_sheds() {
    // ≥256 concurrent pipelined line-protocol clients against one
    // --async server (2 reactor threads): every connection below the
    // cap must be admitted (zero sheds), every per-connection flush
    // watermark must be exactly the records that client queued
    // (contiguous, no loss, no double-count), and the reconstruction
    // must be bit-identical to a threaded server fed the same records.
    const CLIENTS: usize = 256;
    const BATCHES: usize = 20;
    const BATCH: usize = 8;

    let config = ServiceConfig {
        max_connections: 1024,
        ..ServiceConfig::default()
    }
    .with_reactor(2);
    let handle = Server::bind(config).unwrap().spawn().unwrap();
    let addr = handle.addr();

    let mut setup = Client::connect(addr).unwrap();
    let spec = SessionSpec {
        schema: vec![("a".into(), 4), ("b".into(), 3)],
        mechanism: Mechanism::Deterministic { gamma: GAMMA },
        shards: Some(4),
        seed: Some(11),
    };
    let session = setup.create_session(&spec).unwrap();

    // Pre-perturbed records make the shared session's counts (and thus
    // the reconstruction) independent of ingest interleaving.
    let record_of = |client: usize, i: usize| vec![((client + i) % 4) as u32, (i % 3) as u32];

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let handles: Vec<_> = (0..BATCHES)
                .map(|b| {
                    (0..BATCH)
                        .map(|r| record_of(c, b * BATCH + r))
                        .collect::<Vec<_>>()
                })
                .collect();
            scope.spawn(move || {
                let mut client = loop {
                    // The listener backlog can overflow under 256
                    // simultaneous connects; retry until admitted.
                    match Client::connect(addr) {
                        Ok(c) => break c,
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                };
                for batch in &handles {
                    client.submit_nowait(session, batch, true).unwrap();
                }
                let accepted = client.flush().unwrap();
                assert_eq!(
                    accepted,
                    (BATCHES * BATCH) as u64,
                    "client {c}: watermark must cover exactly its own stream"
                );
            });
        }
    });

    let total = (CLIENTS * BATCHES * BATCH) as u64;
    assert_eq!(setup.stats(session).unwrap().total, total);
    let report = setup.server_metrics().unwrap();
    assert_eq!(
        report.get(Counter::Sheds),
        0,
        "no connection below the cap may be shed"
    );
    assert!(
        report.get(Counter::TcpConnections) >= CLIENTS as u64,
        "all {CLIENTS} clients must have been admitted: {report:?}"
    );
    assert_eq!(
        report.get(Counter::DeferredBatches),
        (CLIENTS * BATCHES) as u64
    );
    let via_async = setup
        .reconstruct(session, ReconstructionMethod::ClosedForm, false)
        .unwrap();

    // Reference: a threaded server fed the identical records.
    let threaded = spawn_threaded();
    let mut reference = Client::connect(threaded.addr()).unwrap();
    let ref_session = reference.create_session(&spec).unwrap();
    for c in 0..CLIENTS {
        let records: Vec<_> = (0..BATCHES * BATCH).map(|i| record_of(c, i)).collect();
        reference.submit_batch(ref_session, &records, true).unwrap();
    }
    assert_eq!(reference.stats(ref_session).unwrap().total, total);
    let via_threaded = reference
        .reconstruct(ref_session, ReconstructionMethod::ClosedForm, false)
        .unwrap();
    assert_eq!(
        via_async.estimates, via_threaded.estimates,
        "fan-in ingest must reconstruct bit-identically to threaded"
    );

    threaded.shutdown().unwrap();
    handle.shutdown().unwrap();
}

#[test]
fn backpressured_pipelined_requests_resume_after_the_peer_drains() {
    // Two pipelined reconstructs whose responses (~15 MB each, a
    // 1M-cell domain) far exceed the 256 KiB write high-water mark AND
    // the socket buffers: the reactor must park the second request
    // under backpressure while the first response drains, then resume
    // it from the read buffer — driven by writable events alone, since
    // the socket has no more request bytes to deliver. A regression
    // here hangs the second read forever (hence the read timeout).
    let handle = spawn_async(1);
    let mut client = Client::connect(handle.addr()).unwrap();
    let session = client
        .create_session(&SessionSpec {
            schema: vec![("wide".into(), 1_000_000)],
            mechanism: Mechanism::Deterministic { gamma: GAMMA },
            shards: Some(1),
            seed: Some(2),
        })
        .unwrap();
    client
        .submit_batch(session, &[vec![3], vec![7], vec![3]], true)
        .unwrap();

    let stream = connect_patiently(handle.addr());
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let request =
        format!(r#"{{"op":"reconstruct","session":{session},"method":"closed","clamp":false}}"#);
    writer
        .write_all(format!("{request}\n{request}\n").as_bytes())
        .unwrap();
    writer.flush().unwrap();
    // Give the server time to wedge itself against full buffers before
    // we start draining.
    std::thread::sleep(Duration::from_millis(300));
    let mut reader = BufReader::new(stream);
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    assert!(
        first.len() > 1 << 20,
        "response must be large enough to trigger backpressure ({} bytes)",
        first.len()
    );
    let mut second = String::new();
    assert!(
        reader.read_line(&mut second).unwrap() > 0,
        "second pipelined response must arrive after the drain"
    );
    assert_eq!(first, second, "identical requests, identical responses");

    handle.shutdown().unwrap();
}

#[test]
fn async_sheds_past_the_cap_in_band() {
    let config = ServiceConfig {
        max_connections: 2,
        ..ServiceConfig::default()
    }
    .with_reactor(1);
    let handle = Server::bind(config).unwrap().spawn().unwrap();

    let mut c1 = Client::connect(handle.addr()).unwrap();
    c1.ping().unwrap();
    let mut c2 = Client::connect(handle.addr()).unwrap();
    c2.ping().unwrap();
    let mut shed = Client::connect(handle.addr()).unwrap();
    match shed.ping().unwrap_err() {
        frapp_service::ServiceError::Remote { message, .. } => {
            assert!(message.contains("connection capacity"), "{message}")
        }
        frapp_service::ServiceError::Io(_) | frapp_service::ServiceError::ConnectionClosed => {}
        other => panic!("unexpected error {other:?}"),
    }
    assert_eq!(handle.transport_metrics().report().get(Counter::Sheds), 1);

    drop(shed);
    drop(c2);
    // A freed slot admits again.
    let mut retry = None;
    for _ in 0..50 {
        let mut c = Client::connect(handle.addr()).unwrap();
        if c.ping().is_ok() {
            retry = Some(c);
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(retry.is_some());
    drop(retry);
    drop(c1);
    handle.shutdown().unwrap();
}
