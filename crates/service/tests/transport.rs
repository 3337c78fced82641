//! Cross-transport integration tests: the HTTP front-end against the
//! line protocol, pipelined (deferred-ack) submits, the partial-batch
//! retry contract end-to-end over real sockets, and connection-cap
//! shedding.

use frapp_service::client::{Client, Fields, HttpClient, SessionSpec};
use frapp_service::json::{self, Value};
use frapp_service::session::{Mechanism, ReconstructionMethod};
use frapp_service::wire::{Counter, Op, OPS};
use frapp_service::{Server, ServerHandle, ServiceConfig, ServiceError};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const GAMMA: f64 = 19.0;

fn spawn_with_http() -> ServerHandle {
    Server::bind(ServiceConfig::default().with_http_addr("127.0.0.1:0"))
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

fn bits(estimates: &[f64]) -> Vec<u64> {
    estimates.iter().map(|e| e.to_bits()).collect()
}

/// The estimates of a served `reconstruct` answer, read off its tree.
fn served_bits(answer: Value) -> Vec<u64> {
    let estimates = answer.get("estimates").and_then(Value::as_array).unwrap();
    estimates
        .iter()
        .map(|e| e.as_f64().unwrap().to_bits())
        .collect()
}

#[test]
fn http_and_tcp_transports_are_bit_identical() {
    // The same create/submit/reconstruct script, once over the line
    // protocol and once over HTTP, against one server. Identical seeds
    // + pinned shards mean identical server-side perturbation streams,
    // so session counts and estimates must agree bit-for-bit.
    let handle = spawn_with_http();
    let http_addr = handle.http_addr().expect("http enabled");
    let mut tcp = Client::connect(handle.addr()).unwrap();
    let mut http = HttpClient::connect(http_addr).unwrap();
    tcp.ping().unwrap();
    http.ping().unwrap();

    let records = workload(20_000);
    let tcp_session = tcp.create_session(&small_spec(0xBEEF)).unwrap();
    let http_session = http.create_session(&small_spec(0xBEEF)).unwrap();
    assert_ne!(tcp_session, http_session);

    for batch in records.chunks(1_000) {
        tcp.submit_batch_to_shard(tcp_session, 0, batch, false)
            .unwrap();
        http.submit_batch_to_shard(http_session, 0, batch, false)
            .unwrap();
    }

    let tcp_stats = tcp.stats(tcp_session).unwrap();
    let http_stats = http.stats(http_session).unwrap();
    assert_eq!(tcp_stats.total, records.len() as u64);
    assert_eq!(tcp_stats.total, http_stats.total);
    assert_eq!(tcp_stats.per_shard, http_stats.per_shard);

    // A RAN-GD pair too: its served closed form is DET-GD's.
    let ran = SessionSpec {
        mechanism: Mechanism::Randomized {
            gamma: GAMMA,
            alpha_fraction: 0.5,
        },
        ..small_spec(0xFACE)
    };
    let (tcp_ran, http_ran) = (
        tcp.create_session(&ran).unwrap(),
        http.create_session(&ran).unwrap(),
    );
    for batch in records.chunks(1_000) {
        tcp.submit_batch_to_shard(tcp_ran, 0, batch, false).unwrap();
        http.submit_batch_to_shard(http_ran, 0, batch, false)
            .unwrap();
    }

    // Estimates must agree exactly: same perturbation stream, same
    // solver, whether the server solves (`cached_lu`, and the served
    // answer read as a tree) or the client solves the closed form from
    // the counts, and the same integer counts and shortest-roundtrip
    // float encoding both ways.
    for (tcp_session, http_session) in [(tcp_session, http_session), (tcp_ran, http_ran)] {
        for (method, clamp) in [
            (ReconstructionMethod::ClosedForm, false),
            (ReconstructionMethod::ClosedForm, true),
            (ReconstructionMethod::CachedLu, false),
        ] {
            let via_tcp = tcp.reconstruct(tcp_session, method, clamp).unwrap();
            let via_http = http.reconstruct(http_session, method, clamp).unwrap();
            assert_eq!(via_tcp.n, via_http.n);
            assert_eq!(
                via_tcp.estimates, via_http.estimates,
                "estimates diverged for {method:?} clamp={clamp}"
            );
            let fields = || {
                vec![
                    ("method", method.wire_name().into()),
                    ("clamp", clamp.into()),
                ]
            };
            let served = tcp.call(Op::Reconstruct, Some(tcp_session), fields());
            assert_eq!(bits(&via_tcp.estimates), served_bits(served.unwrap()));
            let served = http.call(Op::Reconstruct, Some(http_session), fields());
            assert_eq!(bits(&via_http.estimates), served_bits(served.unwrap()));
        }
    }

    // Cross-transport visibility: both sessions appear in one listing,
    // whichever transport asks.
    let via_tcp = tcp.list_sessions().unwrap();
    let via_http = http.list_sessions().unwrap();
    assert_eq!(via_tcp, via_http);
    assert!(via_tcp.contains(&tcp_session) && via_tcp.contains(&http_session));

    // Metrics agree on the ingest totals.
    let (tcp_report, tcp_total) = tcp.metrics(tcp_session).unwrap();
    let (http_report, http_total) = http.metrics(http_session).unwrap();
    assert_eq!(tcp_total, http_total);
    assert_eq!(tcp_report.records_ingested, http_report.records_ingested);
    assert_eq!(tcp_report.batches, http_report.batches);

    // Per-transport counters saw both sides.
    let transport = tcp.server_metrics().unwrap();
    assert!(transport.get(Counter::TcpRequests) > 0, "{transport:?}");
    assert!(transport.get(Counter::HttpRequests) > 0, "{transport:?}");
    assert!(transport.get(Counter::TcpConnections) >= 1);
    assert!(transport.get(Counter::HttpConnections) >= 1);

    // Close over HTTP, observe over TCP (and vice versa).
    assert!(http.close_session(tcp_session).unwrap());
    assert!(matches!(
        tcp.stats(tcp_session),
        Err(ServiceError::Remote { .. })
    ));
    assert!(tcp.close_session(http_session).unwrap());
    assert!(matches!(
        http.stats(http_session),
        Err(ServiceError::Remote { .. })
    ));

    handle.shutdown().unwrap();
}

/// What a transport's own run of the loop below has created so far.
#[derive(Default)]
struct Made {
    session: u64,
    /// A second session, for `close_session` to close.
    spare: u64,
    job: u64,
}

/// A valid request for `op` against what `made` holds. A new routed op
/// that takes an id or fields fails the loop below until it has an arm
/// here; one that takes neither is compared without.
fn sample(op: Op, made: &Made) -> (Option<u64>, Fields) {
    let value = |text: &str| json::parse(text).unwrap();
    let session = Some(made.session);
    match op {
        Op::CreateSession => (
            None,
            vec![
                ("schema", value(r#"[["a",4],["b",3]]"#)),
                ("gamma", GAMMA.into()),
                ("shards", 1usize.into()),
                ("seed", 7u64.into()),
            ],
        ),
        Op::Submit => (
            session,
            vec![
                ("records", value("[[1,2],[3,0],[0,1]]")),
                ("pre_perturbed", false.into()),
                ("shard", 0usize.into()),
            ],
        ),
        Op::Reconstruct => (
            session,
            vec![("method", "cached_lu".into()), ("clamp", false.into())],
        ),
        Op::Counts | Op::Stats => (session, vec![("allow_partial", true.into())]),
        // Each has a second form, compared after the loop.
        Op::Metrics => (session, Vec::new()),
        Op::Persist => (None, Vec::new()),
        Op::CloseSession => (Some(made.spare), Vec::new()),
        Op::MineRules => (
            session,
            vec![("algo", "fpgrowth".into()), ("min_support", 0.1.into())],
        ),
        Op::Classify => (session, vec![("target", "b".into())]),
        Op::JobStatus | Op::JobResult | Op::JobCancel => (Some(made.job), Vec::new()),
        // `ping`, `list_sessions`, `cluster_status`, `list_jobs`.
        _ => (None, Vec::new()),
    }
}

/// Blanks what legitimately differs between two runs of one request:
/// the ids each run was handed, wall-clock readings, and the two
/// counters that count the requests themselves.
fn masked(v: Value) -> Value {
    const VOLATILE: [&str; 9] = [
        "session",
        "job",
        "uptime_secs",
        "ingest_rate",
        "wall_ms",
        "query_latency",
        "submit_latency",
        "tcp_requests",
        "http_requests",
    ];
    match v {
        Value::Object(pairs) => Value::Object(
            pairs
                .into_iter()
                .map(|(k, v)| {
                    let v = if VOLATILE.contains(&k.as_str()) {
                        Value::Null
                    } else {
                        masked(v)
                    };
                    (k, v)
                })
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.into_iter().map(masked).collect()),
        other => other,
    }
}

/// A scratch directory removed on drop, so a failing run (an assertion
/// unwinding) leaves nothing behind either.
struct TempDir(std::path::PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn every_routed_op_answers_identically_over_both_transports() {
    let dir = TempDir(std::env::temp_dir().join(format!("frapp-parity-{}", std::process::id())));
    let config = ServiceConfig {
        persist_dir: Some(dir.0.clone()),
        ..ServiceConfig::default()
    }
    .with_http_addr("127.0.0.1:0");
    let handle = Server::bind(config).unwrap().spawn().unwrap();
    let mut tcp = Client::connect(handle.addr()).unwrap();
    let mut http = HttpClient::connect(handle.http_addr().unwrap()).unwrap();
    let (mut via_tcp, mut via_http) = (Made::default(), Made::default());
    via_tcp.spare = tcp.create_session(&small_spec(1)).unwrap();
    via_http.spare = http.create_session(&small_spec(1)).unwrap();

    for row in OPS.iter().filter(|row| !row.routes.is_empty()) {
        let (id, fields) = sample(row.op, &via_tcp);
        let a = tcp.call(row.op, id, fields).unwrap();
        let (id, fields) = sample(row.op, &via_http);
        let b = http.call(row.op, id, fields).unwrap();
        for (made, v) in [(&mut via_tcp, &a), (&mut via_http, &b)] {
            let id = |key| v.get(key).and_then(Value::as_u64).expect(key);
            match row.op {
                Op::CreateSession => made.session = id("session"),
                Op::MineRules => made.job = id("job"),
                _ => {}
            }
        }
        // Every job the loop submits (`mine_rules` and `classify`)
        // finishes before the next op: the job ops read a finished
        // job, and `list_jobs` and the `metrics` after the loop see
        // no job still queued or running.
        let job = |v: &Value| v.get("job").and_then(Value::as_u64);
        if let (Some(on_tcp), Some(on_http)) = (job(&a), job(&b)) {
            tcp.wait_job(on_tcp, Duration::from_secs(30)).unwrap();
            http.wait_job(on_http, Duration::from_secs(30)).unwrap();
        }
        assert_eq!(
            masked(a).to_json(),
            masked(b).to_json(),
            "`{}` answers differently over HTTP",
            row.name
        );
    }

    // The server-wide `metrics` and the one-session `persist`.
    let a = tcp.call(Op::Metrics, None, Vec::new()).unwrap();
    let b = http.call(Op::Metrics, None, Vec::new()).unwrap();
    assert_eq!(masked(a).to_json(), masked(b).to_json());
    assert_eq!(
        tcp.persist(Some(via_tcp.session)).unwrap(),
        [via_tcp.session]
    );
    assert_eq!(
        http.persist(Some(via_http.session)).unwrap(),
        [via_http.session]
    );
    // An op without a route fails before anything is sent.
    assert!(matches!(
        http.call(Op::Flush, None, Vec::new()),
        Err(ServiceError::InvalidRequest(_))
    ));
    http.ping().unwrap();

    handle.shutdown().unwrap();
}

#[test]
fn http_errors_map_to_in_band_responses() {
    let handle = spawn_with_http();
    let mut http = HttpClient::connect(handle.http_addr().unwrap()).unwrap();

    // Unknown session: 404 with the usual error body.
    let err = http.stats(404404).unwrap_err();
    assert!(matches!(err, ServiceError::Remote { ref message, .. }
        if message.contains("unknown session")));

    // Unknown route: the connection survives and later requests work.
    let err = http.request("GET", "/not/a/route", None).unwrap_err();
    assert!(matches!(err, ServiceError::Remote { ref message, .. }
        if message.contains("no route")));
    http.ping().unwrap();

    // Deferred acks are a line-protocol feature.
    let session = http.create_session(&small_spec(1)).unwrap();
    let body = frapp_service::json::parse(r#"{"records":[[0,0]],"ack":"deferred"}"#).unwrap();
    let err = http
        .request("POST", &format!("/sessions/{session}/records"), Some(&body))
        .unwrap_err();
    assert!(matches!(err, ServiceError::Remote { ref message, .. }
        if message.contains("deferred acks are not available")));

    // Partial batches carry the accepted prefix over HTTP too.
    let err = http
        .submit_batch(session, &[vec![0, 0], vec![9, 9], vec![1, 1]], true)
        .unwrap_err();
    match err {
        ServiceError::Remote { accepted, .. } => assert_eq!(accepted, Some(1)),
        other => panic!("expected Remote, got {other:?}"),
    }
    assert_eq!(http.stats(session).unwrap().total, 1);

    handle.shutdown().unwrap();
}

#[test]
fn pipelined_submits_ack_at_the_flush_watermark() {
    let handle = spawn_with_http();
    let mut client = Client::connect(handle.addr()).unwrap();
    let session = client.create_session(&small_spec(7)).unwrap();

    // Stream 50 deferred batches without reading a single response,
    // then flush once: the watermark covers every record.
    let records = workload(5_000);
    for batch in records.chunks(100) {
        client.submit_nowait(session, batch, false).unwrap();
    }
    let accepted = client.flush().unwrap();
    assert_eq!(accepted, records.len() as u64);
    assert_eq!(client.stats(session).unwrap().total, records.len() as u64);

    // The deferred batches show up in the transport counters.
    let transport = client.server_metrics().unwrap();
    assert_eq!(transport.get(Counter::DeferredBatches), 50);

    // Pipelined reconstruction equals a synchronous session fed the
    // same stream (bit-identical server-side perturbation).
    let mut sync_client = Client::connect(handle.addr()).unwrap();
    let synchronous = sync_client.create_session(&small_spec(7)).unwrap();
    for batch in records.chunks(100) {
        sync_client
            .submit_batch_to_shard(synchronous, 0, batch, false)
            .unwrap();
    }
    let a = client
        .reconstruct(session, ReconstructionMethod::ClosedForm, false)
        .unwrap();
    let b = sync_client
        .reconstruct(synchronous, ReconstructionMethod::ClosedForm, false)
        .unwrap();
    assert_eq!(a.estimates, b.estimates);

    handle.shutdown().unwrap();
}

#[test]
fn pipelined_failure_reports_a_contiguous_retry_watermark() {
    let handle = spawn_with_http();
    let mut client = Client::connect(handle.addr()).unwrap();
    let session = client.create_session(&small_spec(3)).unwrap();

    // Three deferred batches: the second fails mid-way (1 of its 2
    // records lands), so the third must be dropped un-ingested.
    client
        .submit_nowait(session, &[vec![0, 0], vec![1, 1]], true)
        .unwrap();
    client
        .submit_nowait(session, &[vec![2, 2], vec![9, 9]], true)
        .unwrap();
    client
        .submit_nowait(session, &[vec![3, 1], vec![0, 2]], true)
        .unwrap();
    let err = client.flush().unwrap_err();
    let watermark = match err {
        ServiceError::Remote { accepted, message } => {
            assert!(message.contains("counted"), "{message}");
            accepted.expect("flush errors carry the watermark")
        }
        other => panic!("expected Remote, got {other:?}"),
    };
    assert_eq!(watermark, 3, "2 from batch 1 + 1 accepted from batch 2");
    assert_eq!(client.stats(session).unwrap().total, watermark);

    // Retry contract: resubmit everything past the watermark (with the
    // bad record fixed). Final counts show no double-counting.
    let full: Vec<Vec<u32>> = vec![
        vec![0, 0],
        vec![1, 1],
        vec![2, 2],
        vec![2, 1], // the fixed record
        vec![3, 1],
        vec![0, 2],
    ];
    for batch in full[watermark as usize..].chunks(2) {
        client.submit_nowait(session, batch, true).unwrap();
    }
    assert_eq!(
        client.flush().unwrap(),
        (full.len() - watermark as usize) as u64
    );
    assert_eq!(client.stats(session).unwrap().total, full.len() as u64);

    handle.shutdown().unwrap();
}

#[test]
fn synchronous_retry_contract_end_to_end_no_double_counting() {
    // The PR 2 retry contract over a real socket: a partial-batch
    // failure reports `accepted: Some(k)`, the client resubmits only
    // `records[k..]`, and the final counts (and the reconstruction
    // total) show each valid record exactly once.
    let handle = spawn_with_http();
    let mut client = Client::connect(handle.addr()).unwrap();
    let session = client.create_session(&small_spec(11)).unwrap();

    let mut batch = workload(500);
    batch[137] = vec![99, 99]; // violates the 4x3 schema

    let err = client.submit_batch(session, &batch, false).unwrap_err();
    let accepted = match err {
        ServiceError::Remote { accepted, message } => {
            assert!(message.contains("counted"), "{message}");
            accepted.expect("partial batches carry the retry offset")
        }
        other => panic!("expected Remote, got {other:?}"),
    };
    assert_eq!(accepted, 137);
    assert_eq!(client.stats(session).unwrap().total, accepted);

    // Fix the record, resubmit only the remainder.
    batch[137] = vec![3, 2];
    client
        .submit_batch(session, &batch[accepted as usize..], false)
        .unwrap();
    let stats = client.stats(session).unwrap();
    assert_eq!(stats.total, batch.len() as u64, "no double-counting");

    let rec = client
        .reconstruct(session, ReconstructionMethod::ClosedForm, true)
        .unwrap();
    assert_eq!(rec.n, batch.len() as u64);
    // Clamped estimates rescale to N, so the totals reconcile too.
    assert!((rec.estimates.iter().sum::<f64>() - batch.len() as f64).abs() < 1e-6);

    handle.shutdown().unwrap();
}

#[test]
fn connections_past_the_cap_are_shed_with_an_in_band_error() {
    let config = ServiceConfig {
        max_connections: 2,
        ..ServiceConfig::default()
    };
    let handle = Server::bind(config).unwrap().spawn().unwrap();

    // Fill the cap with two live connections.
    let mut c1 = Client::connect(handle.addr()).unwrap();
    c1.ping().unwrap();
    let mut c2 = Client::connect(handle.addr()).unwrap();
    c2.ping().unwrap();

    // The third connection is refused in-band, not silently dropped.
    let mut shed = Client::connect(handle.addr()).unwrap();
    let err = shed.ping().unwrap_err();
    match err {
        ServiceError::Remote { message, .. } => {
            assert!(message.contains("connection capacity"), "{message}")
        }
        // The server may close before the request write lands; either
        // way the client sees a hard error, never a hang.
        ServiceError::Io(_) | ServiceError::ConnectionClosed => {}
        other => panic!("unexpected error {other:?}"),
    }
    let report = handle.transport_metrics().report();
    assert_eq!(report.get(Counter::Sheds), 1);
    assert_eq!(
        report.get(Counter::TcpConnections),
        2,
        "shed connections are not counted"
    );

    // Freed slots admit new connections again.
    drop(shed);
    drop(c2);
    let mut retry = None;
    for _ in 0..50 {
        let mut c = Client::connect(handle.addr()).unwrap();
        if c.ping().is_ok() {
            retry = Some(c);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(retry.is_some(), "a freed slot must admit a new connection");

    drop(retry);
    drop(c1);
    handle.shutdown().unwrap();
}

#[test]
fn http_connections_past_the_cap_get_503() {
    let config = ServiceConfig {
        max_connections: 1,
        ..ServiceConfig::default()
    }
    .with_http_addr("127.0.0.1:0");
    let handle = Server::bind(config).unwrap().spawn().unwrap();
    let http_addr = handle.http_addr().unwrap();

    // The only slot goes to an HTTP connection; the next HTTP
    // connection must be shed with a 503 + in-band JSON error.
    let mut held = HttpClient::connect(http_addr).unwrap();
    held.ping().unwrap();
    let mut shed = HttpClient::connect(http_addr).unwrap();
    let err = shed.ping().unwrap_err();
    match err {
        ServiceError::Remote { message, .. } => {
            assert!(message.contains("connection capacity"), "{message}")
        }
        ServiceError::Io(_) | ServiceError::ConnectionClosed => {}
        other => panic!("unexpected error {other:?}"),
    }
    assert_eq!(handle.transport_metrics().report().get(Counter::Sheds), 1);

    // Free the slot so the shutdown connection can get in.
    drop(held);
    drop(shed);
    for _ in 0..50 {
        let mut c = Client::connect(handle.addr()).unwrap();
        if c.ping().is_ok() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    handle.shutdown().unwrap();
}

/// What a connection past a one-connection cap received at the parent
/// commit, on the line listener and on the HTTP listener.
const SHED_LINE: &str = "{\"ok\":false,\"error\":\"invalid request: server is at its 1-connection capacity; retry later\"}\n";
const SHED_HTTP: &str = "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nContent-Length: 91\r\nConnection: close\r\n\r\n{\"ok\":false,\"error\":\"invalid request: server is at its 1-connection capacity; retry later\"}";

#[test]
fn both_listeners_shed_the_parents_bytes_and_stop_on_one_shutdown() {
    for async_reactor in [false, cfg!(unix)] {
        let config = ServiceConfig {
            max_connections: 1,
            async_reactor,
            ..ServiceConfig::default()
        }
        .with_http_addr("127.0.0.1:0");
        let handle = Server::bind(config).unwrap().spawn().unwrap();
        let addrs = [handle.addr(), handle.http_addr().unwrap()];
        let mut held = Client::connect(handle.addr()).unwrap();
        held.ping().unwrap();
        for (addr, expected) in addrs.into_iter().zip([SHED_LINE, SHED_HTTP]) {
            let mut refusal = String::new();
            std::net::TcpStream::connect(addr)
                .unwrap()
                .read_to_string(&mut refusal)
                .unwrap();
            assert_eq!(refusal, expected, "async_reactor: {async_reactor}");
        }

        // A line-protocol `shutdown` stops the HTTP listener too, so
        // the handle has only the join left to do.
        held.shutdown().unwrap();
        handle.shutdown().unwrap();
        for addr in addrs {
            assert!(std::net::TcpStream::connect(addr).is_err(), "{addr}");
        }
    }
}

/// Reads one response from a raw connection: a line on the line
/// listener, a `Content-Length` body over HTTP.
fn read_answer(reader: &mut impl BufRead, http: bool) -> std::io::Result<Value> {
    let mut line = String::new();
    let mut body_len = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        if !http {
            break;
        }
        if line == "\r\n" {
            let mut body = vec![0; body_len.unwrap_or(0)];
            reader.read_exact(&mut body)?;
            line = String::from_utf8(body).expect("utf-8 body");
            break;
        }
        if let Some(value) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            body_len = value.trim().parse().ok();
        }
    }
    Ok(json::parse(line.trim_end()).expect("a JSON answer"))
}

/// Opens `n` connections to a bound server before its accept loops
/// run, all from this one thread, each with a 500 ms connect timeout.
/// That is below Linux's 1 s SYN retransmit, so a connect succeeds only
/// if the kernel queued it: the listen backlog must hold all `n`. Then
/// the server starts and every connection submits — deferred, with one
/// `flush`, on the line listener; synchronously over HTTP — and every
/// count must land exactly, with no reset and no shed. The kernel caps
/// the backlog at `net.core.somaxconn` (4 096 by default since Linux
/// 5.4), which must be at least `n`.
fn queued_connections_are_all_served(n: usize, http: bool) {
    const BATCHES: usize = 4;
    let batch = workload(20);
    let sent = (BATCHES * batch.len()) as u64;
    // Room for the control connection and for `handle.shutdown()`'s.
    let config = ServiceConfig {
        max_connections: n + 2,
        ..ServiceConfig::default()
    }
    .with_http_addr("127.0.0.1:0");
    let server = Server::bind(config).unwrap();
    let target = if http {
        server.local_http_addr().unwrap()
    } else {
        server.local_addr().unwrap()
    };
    // Stops at the first connect that was not queued.
    let streams: Vec<TcpStream> = (0..n)
        .map_while(|_| TcpStream::connect_timeout(&target, Duration::from_millis(500)).ok())
        .collect();
    assert_eq!(
        streams.len(),
        n,
        "connects queued before the accept loop ran (http: {http})"
    );

    let handle = server.spawn().unwrap();
    let mut control = Client::connect(handle.addr()).unwrap();
    let session = control.create_session(&small_spec(7)).unwrap();
    // `[[1, 2], ...]`: the debug form of the batch is its JSON.
    let records = format!("{batch:?}");
    let request = if http {
        let body = format!("{{\"records\":{records},\"pre_perturbed\":true}}");
        format!(
            "POST /sessions/{session}/records HTTP/1.1\r\nHost: frapp\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
    } else {
        format!(
            "{{\"op\":\"submit\",\"session\":{session},\"records\":{records},\
             \"pre_perturbed\":true,\"ack\":\"deferred\"}}\n"
        )
    };
    // Over the line listener every stream is written before any is
    // read: deferred submits have no answer, so only the flushes do.
    if !http {
        for mut stream in &streams {
            let script = request.repeat(BATCHES) + "{\"op\":\"flush\"}\n";
            stream.write_all(script.as_bytes()).unwrap();
        }
    }
    let accepted: Vec<std::io::Result<u64>> = streams
        .iter()
        .map(|mut stream| {
            let mut reader = BufReader::new(stream);
            let mut accepted = 0;
            // Over HTTP one answer per submit; on a line, the flush's.
            for _ in 0..if http { BATCHES } else { 1 } {
                if http {
                    stream.write_all(request.as_bytes())?;
                }
                let answer = read_answer(&mut reader, http)?;
                assert_eq!(answer.get("ok"), Some(&Value::Bool(true)), "{answer:?}");
                accepted += answer.get("accepted").and_then(Value::as_u64).unwrap();
            }
            Ok(accepted)
        })
        .collect();
    let failures: Vec<String> = accepted
        .iter()
        .enumerate()
        .filter_map(|(i, a)| match a {
            Ok(count) if *count == sent => None,
            Ok(count) => Some(format!("#{i}: {count} of {sent} accepted")),
            Err(e) => Some(format!("#{i}: {:?}", e.kind())),
        })
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {n} connections fell short (http: {http}): {:?}",
        failures.len(),
        &failures[..failures.len().min(8)]
    );

    assert_eq!(control.stats(session).unwrap().total, n as u64 * sent);
    let report = control.server_metrics().unwrap();
    assert_eq!(report.get(Counter::Sheds), 0);
    let (line, http_conns) = if http { (1, n) } else { (n + 1, 0) };
    assert_eq!(report.get(Counter::TcpConnections), line as u64);
    assert_eq!(report.get(Counter::HttpConnections), http_conns as u64);

    drop(streams);
    drop(control);
    handle.shutdown().unwrap();
}

#[test]
#[cfg(target_os = "linux")]
fn connections_queued_before_the_accept_loop_are_all_served() {
    // One after the other, so at most about 256 client sockets (and as
    // many server-side ones) are open at once.
    queued_connections_are_all_served(256, false);
    queued_connections_are_all_served(256, true);
}

#[test]
#[cfg(target_os = "linux")]
#[ignore = "1 024 connections; CI runs it in release"]
fn a_thousand_and_twenty_four_queued_line_connections_are_all_served() {
    queued_connections_are_all_served(1024, false);
}
