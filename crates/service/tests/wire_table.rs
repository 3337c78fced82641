//! What holds the rest of the system to `frapp_service::wire`:
//!
//! 1. `docs/PROTOCOL.md` names exactly the table's ops, routes, counter
//!    keys and binary framing bytes ([`drift`], both directions, with
//!    seeded mutations of the real document proving each check bites);
//! 2. every typed client method puts on the wire the bytes it put there
//!    before the table existed (recorded at commit `df6d5eb`), and
//!    every submit route answers with the bytes it answered before
//!    `dispatch::apply_submit` existed (recorded at `53f8c3f`);
//! 3. the `metrics` response, both clients' parsed reports and the
//!    Prometheus exposition agree on every counter.

use frapp_service::client::{Client, HttpClient, SessionSpec};
use frapp_service::dispatch::{dispatch_into, ConnState};
use frapp_service::framing::encode_json_frame;
use frapp_service::metrics::{write_prometheus_metrics, PeerHealth, PeerReplCounters};
use frapp_service::protocol::write_transport_metrics_response;
use frapp_service::session::{Mechanism, ReconstructionMethod, SessionRegistry};
use frapp_service::wire::{
    Counter, PeerCounter, COUNTERS, OPS, PEER_COUNTERS, PEER_SECTION, WIRE_CONSTS,
};
use frapp_service::{MineAlgo, MineSpec, Server, ServiceConfig, TransportMetrics, TransportReport};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

// ---- 1. the document ---------------------------------------------------

/// Every backticked span of a line, in order.
fn backticked(line: &str) -> Vec<&str> {
    line.split('`').skip(1).step_by(2).collect()
}

fn ident_shaped(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// `METHOD /a/{}/b`: path parameters lose their names, so the document
/// may call them `{id}` or `{jid}`.
fn canonical_route(method: &str, path: &str) -> String {
    let path = path.split('?').next().unwrap_or(path);
    let segments: Vec<&str> = path
        .split('/')
        .filter(|s| !s.is_empty())
        .map(|s| if s.starts_with('{') { "{}" } else { s })
        .collect();
    format!("{method} /{}", segments.join("/"))
}

/// Op names from `#### `op`` headings.
fn doc_ops(doc: &str) -> BTreeSet<String> {
    doc.lines()
        .filter_map(|line| line.strip_prefix("#### "))
        .filter_map(|rest| backticked(rest).first().copied())
        .filter(|name| ident_shaped(name))
        .map(str::to_owned)
        .collect()
}

/// `METHOD /path -> op` from `| `METHOD /path` | `op` … |` table rows.
fn doc_routes(doc: &str) -> BTreeSet<String> {
    let mut routes = BTreeSet::new();
    for line in doc.lines().filter(|l| l.trim_start().starts_with('|')) {
        let ticks = backticked(line);
        let Some((method, path)) = ticks.first().and_then(|t| t.split_once(' ')) else {
            continue;
        };
        if method.chars().all(|c| c.is_ascii_uppercase()) && path.starts_with('/') {
            let op = ticks.get(1).copied().unwrap_or_default();
            routes.insert(format!("{} -> {op}", canonical_route(method, path)));
        }
    }
    routes
}

/// Every `"key":` inside the fenced example blocks that show the
/// `transport` or `federation` objects of the `metrics` response, minus
/// the request and response envelope (`op`, `ok`).
fn doc_metrics(doc: &str) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    for block in doc.split("```").skip(1).step_by(2) {
        if !block.contains("\"transport\"") && !block.contains("\"federation\"") {
            continue;
        }
        let mut rest = block;
        while let Some((_, after)) = rest.split_once('"') {
            let Some((key, tail)) = after.split_once('"') else {
                break;
            };
            if tail.trim_start().starts_with(':')
                && ident_shaped(key)
                && !["op", "ok"].contains(&key)
            {
                keys.insert(key.to_owned());
            }
            rest = tail;
        }
    }
    keys
}

/// `NAME=0xNN` from table rows whose first backticked span is an
/// `OP_*`/`FLAG_*` name and whose second is its value.
fn doc_wire_consts(doc: &str) -> BTreeSet<String> {
    let mut consts = BTreeSet::new();
    for line in doc.lines().filter(|l| l.trim_start().starts_with('|')) {
        if let [name, value, ..] = backticked(line)[..] {
            let value = value
                .strip_prefix("0x")
                .and_then(|hex| u8::from_str_radix(hex, 16).ok());
            if let (true, Some(value)) =
                (name.starts_with("OP_") || name.starts_with("FLAG_"), value)
            {
                consts.insert(format!("{name}=0x{value:02x}"));
            }
        }
    }
    consts
}

/// Every disagreement between `doc` and the table, either direction.
fn drift(doc: &str) -> Vec<String> {
    let ops: BTreeSet<String> = OPS.iter().map(|row| row.name.to_owned()).collect();
    let routes: BTreeSet<String> = OPS
        .iter()
        .flat_map(|row| {
            row.routes
                .iter()
                .map(|(method, path)| format!("{} -> {}", canonical_route(method, path), row.name))
        })
        .collect();
    let metrics: BTreeSet<String> = COUNTERS
        .iter()
        .flat_map(|row| [row.section, row.key])
        .chain(PEER_COUNTERS.iter().map(|row| row.key))
        // The envelope around the per-peer rows.
        .chain([PEER_SECTION, "peers", "node", "addr"])
        .map(str::to_owned)
        .collect();
    let consts: BTreeSet<String> = WIRE_CONSTS
        .iter()
        .map(|(name, value)| format!("{name}=0x{value:02x}"))
        .collect();
    let mut findings = Vec::new();
    for (what, table, doc) in [
        ("op", ops, doc_ops(doc)),
        ("route", routes, doc_routes(doc)),
        ("metrics key", metrics, doc_metrics(doc)),
        ("wire constant", consts, doc_wire_consts(doc)),
    ] {
        for item in table.difference(&doc) {
            findings.push(format!(
                "{what} `{item}` is in the table but not documented"
            ));
        }
        for item in doc.difference(&table) {
            findings.push(format!(
                "{what} `{item}` is documented but not in the table"
            ));
        }
    }
    findings
}

fn protocol_md() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/PROTOCOL.md");
    std::fs::read_to_string(path).expect("docs/PROTOCOL.md")
}

#[test]
fn protocol_md_matches_the_table() {
    assert_eq!(drift(&protocol_md()), Vec::<String>::new());
}

#[test]
fn every_seeded_doc_mutation_is_the_expected_finding() {
    let doc = protocol_md();
    let without_line = |needle: &str| -> String {
        assert!(doc.contains(needle), "the document has no `{needle}`");
        let lines: Vec<&str> = doc.lines().filter(|l| !l.contains(needle)).collect();
        lines.join("\n")
    };
    let replaced = |from: &str, to: &str| -> String {
        assert!(doc.contains(from), "the document has no `{from}`");
        doc.replacen(from, to, 1)
    };
    let cancel_row = "| `DELETE /jobs/{jid}` | `job_cancel` | — |\n";
    let cases: [(String, &[&str]); 6] = [
        (
            without_line("#### `flush`"),
            &["op `flush` is in the table but not documented"],
        ),
        (
            without_line("| `DELETE /jobs/{jid}`"),
            &["route `DELETE /jobs/{} -> job_cancel` is in the table but not documented"],
        ),
        (
            format!("{doc}\n#### `job_abort`\n"),
            &["op `job_abort` is documented but not in the table"],
        ),
        (
            replaced(
                cancel_row,
                &format!("{cancel_row}| `POST /jobs/{{jid}}/cancel` | `job_cancel` | — |\n"),
            ),
            &["route `POST /jobs/{}/cancel -> job_cancel` is documented but not in the table"],
        ),
        (
            replaced("\"idle_reaped\":0,", ""),
            &["metrics key `idle_reaped` is in the table but not documented"],
        ),
        (
            replaced("| `OP_JSON` | `0x02` |", "| `OP_JSON` | `0x03` |"),
            &[
                "wire constant `OP_JSON=0x02` is in the table but not documented",
                "wire constant `OP_JSON=0x03` is documented but not in the table",
            ],
        ),
    ];
    for (mutated, expected) in cases {
        assert_eq!(drift(&mutated), expected);
    }
}

// ---- 2. request bytes --------------------------------------------------

/// One response every typed method can parse.
const ANSWER: &str = r#"{"ok":true,"session":1,"shard":0,"n":0,"estimates":[],"total":0,"per_shard":[],"sessions":[],"detail":[],"records_ingested":0,"batches":0,"reconstructions":0,"query_latency":{"count":0,"mean_us":0,"max_us":0,"buckets":[]},"transport":{},"persisted":[],"closed":true,"job":1,"status":{"state":"done"},"result":{},"jobs":[],"accepted":0}"#;

fn http_answer(body: &str) -> String {
    format!(
        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Runs `script` against a listener that writes `canned` up front and
/// returns everything the client sent. `canned` must hold exactly the
/// responses the script reads, so that the client closes cleanly.
fn capture(canned: Vec<u8>, script: impl FnOnce(SocketAddr)) -> Vec<u8> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.write_all(&canned).unwrap();
        let mut seen = Vec::new();
        stream.read_to_end(&mut seen).unwrap();
        seen
    });
    script(addr);
    server.join().unwrap()
}

fn spec() -> SessionSpec {
    SessionSpec {
        schema: vec![("a".into(), 4), ("b".into(), 3)],
        mechanism: Mechanism::Randomized {
            gamma: 19.0,
            alpha_fraction: 0.25,
        },
        shards: Some(2),
        seed: Some(7),
    }
}

fn mine_spec() -> MineSpec {
    MineSpec {
        algo: MineAlgo::FpGrowth,
        min_support: 0.05,
        min_confidence: 0.75,
        max_length: 3,
    }
}

fn records() -> Vec<Vec<u32>> {
    vec![vec![1, 2], vec![3, 0]]
}

/// Every typed method both clients have, in the order of the first 24
/// of [`LINES`] and of [`HTTP_REQUESTS`].
macro_rules! shared_script {
    ($c:expr) => {{
        let c = $c;
        c.ping().unwrap();
        c.create_session(&spec()).unwrap();
        c.submit_batch(1, &records(), true).unwrap();
        c.submit_batch_to_shard(1, 1, &records(), false).unwrap();
        c.reconstruct(1, ReconstructionMethod::ClosedForm, true)
            .unwrap();
        c.reconstruct_partial(1, ReconstructionMethod::CachedLu, false)
            .unwrap();
        c.stats(1).unwrap();
        c.stats_partial(1).unwrap();
        c.list_sessions().unwrap();
        c.list_sessions_detail().unwrap();
        c.metrics(1).unwrap();
        c.server_metrics().unwrap();
        c.federation_metrics().unwrap();
        c.cluster_status().unwrap();
        c.persist(None).unwrap();
        c.persist(Some(1)).unwrap();
        c.close_session(1).unwrap();
        c.mine_rules(1, &mine_spec()).unwrap();
        c.classify(1, 2).unwrap();
        c.job_status(1).unwrap();
        c.job_result(1).unwrap();
        c.job_cancel(1).unwrap();
        c.list_jobs().unwrap();
        c.wait_job(1, Duration::from_secs(1)).unwrap();
    }};
}

/// [`shared_script`], then what only the line protocol has.
fn line_script(c: &mut Client) {
    shared_script!(&mut *c);
    c.create_session(&SessionSpec::deterministic(vec![("x".into(), 2)], 19.0))
        .unwrap();
    c.submit_nowait(1, &records(), true).unwrap();
    c.submit_nowait_to_shard(1, 0, &records(), false).unwrap();
    c.flush().unwrap();
    c.shutdown().unwrap();
}

/// What each call of [`line_script`] wrote at the parent commit.
const LINES: [&str; 29] = [
    r#"{"op":"ping"}"#,
    r#"{"op":"create_session","schema":[["a",4],["b",3]],"mechanism":"ran","gamma":19,"alpha_fraction":0.25,"shards":2,"seed":7}"#,
    r#"{"op":"submit","session":1,"records":[[1,2],[3,0]],"pre_perturbed":true}"#,
    r#"{"op":"submit","session":1,"records":[[1,2],[3,0]],"pre_perturbed":false,"shard":1}"#,
    r#"{"op":"reconstruct","session":1,"method":"closed","clamp":true}"#,
    r#"{"op":"reconstruct","session":1,"method":"cached_lu","clamp":false,"allow_partial":true}"#,
    r#"{"op":"stats","session":1}"#,
    r#"{"op":"stats","session":1,"allow_partial":true}"#,
    r#"{"op":"list_sessions"}"#,
    r#"{"op":"list_sessions"}"#,
    r#"{"op":"metrics","session":1}"#,
    r#"{"op":"metrics"}"#,
    r#"{"op":"metrics"}"#,
    r#"{"op":"cluster_status"}"#,
    r#"{"op":"persist"}"#,
    r#"{"op":"persist","session":1}"#,
    r#"{"op":"close_session","session":1}"#,
    r#"{"op":"mine_rules","session":1,"algo":"fpgrowth","min_support":0.05,"min_confidence":0.75,"max_length":3}"#,
    r#"{"op":"classify","session":1,"target":2}"#,
    r#"{"op":"job_status","job":1}"#,
    r#"{"op":"job_result","job":1}"#,
    r#"{"op":"job_cancel","job":1}"#,
    r#"{"op":"list_jobs"}"#,
    r#"{"op":"job_status","job":1}"#,
    r#"{"op":"create_session","schema":[["x",2]],"mechanism":"det","gamma":19}"#,
    r#"{"op":"submit","session":1,"records":[[1,2],[3,0]],"pre_perturbed":true,"ack":"deferred"}"#,
    r#"{"op":"submit","session":1,"records":[[1,2],[3,0]],"pre_perturbed":false,"shard":0,"ack":"deferred"}"#,
    r#"{"op":"flush"}"#,
    r#"{"op":"shutdown"}"#,
];

/// The four submits of [`LINES`], by index, as the `OP_SUBMIT` frames
/// the parent wrote for them after `negotiate_binary`; and the first
/// with fixed-width cells.
const SUBMIT_FRAMES: [(usize, &[u8]); 4] = [
    (2, b"\x01\x08\x01\x01\x02\x02\x01\x02\x03\x00"),
    (3, b"\x01\x09\x04\x01\x01\x02\x02\x01\x02\x03\x00"),
    (25, b"\x01\x08\x03\x01\x02\x02\x01\x02\x03\x00"),
    (26, b"\x01\x09\x06\x01\x00\x02\x02\x01\x02\x03\x00"),
];
const FIXED32_FRAME: &[u8] =
    b"\x01\x14\x11\x01\x02\x02\x01\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00";
const HELLO: &str = "{\"op\":\"hello\",\"framing\":\"binary\"}\n";

/// A line under 128 bytes as an `OP_JSON` frame, spelled out.
fn json_frame(line: &str) -> Vec<u8> {
    assert!(line.len() < 128, "one length byte");
    [&[0x02, line.len() as u8], line.as_bytes()].concat()
}

/// Two of [`LINES`] are deferred submits and draw no response.
const LINE_ANSWERS: usize = LINES.len() - 2;

#[test]
fn client_request_bytes_are_the_parents() {
    let canned = format!("{ANSWER}\n").repeat(LINE_ANSWERS);
    let sent = capture(canned.into_bytes(), |addr| {
        line_script(&mut Client::connect(addr).unwrap())
    });
    let expected: String = LINES.iter().map(|line| format!("{line}\n")).collect();
    assert_eq!(String::from_utf8_lossy(&sent), expected);

    // Binary framing: the hello ack is a line, everything after frames.
    let mut canned = format!("{ANSWER}\n").into_bytes();
    for _ in 0..LINE_ANSWERS {
        encode_json_frame(&mut canned, ANSWER);
    }
    let sent = capture(canned, |addr| {
        let mut client = Client::connect(addr).unwrap();
        client.negotiate_binary().unwrap();
        line_script(&mut client);
    });
    let mut expected = HELLO.as_bytes().to_vec();
    for (i, line) in LINES.iter().enumerate() {
        match SUBMIT_FRAMES.iter().find(|(at, _)| *at == i) {
            Some((_, frame)) => expected.extend_from_slice(frame),
            None => expected.extend(json_frame(line)),
        }
    }
    assert_eq!(sent, expected);

    let mut canned = format!("{ANSWER}\n").into_bytes();
    encode_json_frame(&mut canned, ANSWER);
    let sent = capture(canned, |addr| {
        let mut client = Client::connect(addr).unwrap();
        client.negotiate_binary().unwrap();
        client.set_binary_fixed32(true);
        client.submit_batch(1, &records(), true).unwrap();
    });
    assert_eq!(sent, [HELLO.as_bytes(), FIXED32_FRAME].concat());
}

/// What each call of [`shared_script`] wrote at the parent commit, as
/// `(method and target, body)`. `HttpClient` had no `federation_metrics`
/// or `cluster_status` then; rows 12 and 13 are new with the table.
const HTTP_REQUESTS: [(&str, &str); 24] = [
    ("GET /ping", ""),
    (
        "POST /sessions",
        r#"{"schema":[["a",4],["b",3]],"mechanism":"ran","gamma":19,"alpha_fraction":0.25,"shards":2,"seed":7}"#,
    ),
    (
        "POST /sessions/1/records",
        r#"{"records":[[1,2],[3,0]],"pre_perturbed":true}"#,
    ),
    (
        "POST /sessions/1/records",
        r#"{"records":[[1,2],[3,0]],"pre_perturbed":false,"shard":1}"#,
    ),
    ("GET /sessions/1/reconstruct?method=closed&clamp=true", ""),
    (
        "GET /sessions/1/reconstruct?method=cached_lu&clamp=false&allow_partial=true",
        "",
    ),
    ("GET /sessions/1/stats", ""),
    ("GET /sessions/1/stats?allow_partial=true", ""),
    ("GET /sessions", ""),
    ("GET /sessions", ""),
    ("GET /sessions/1/metrics", ""),
    ("GET /metrics", ""),
    ("GET /metrics", ""),
    ("GET /cluster", ""),
    ("POST /persist", ""),
    ("POST /sessions/1/persist", ""),
    ("DELETE /sessions/1", ""),
    (
        "POST /sessions/1/mine",
        r#"{"algo":"fpgrowth","min_support":0.05,"min_confidence":0.75,"max_length":3}"#,
    ),
    ("POST /sessions/1/classify", r#"{"target":2}"#),
    ("GET /jobs/1", ""),
    ("GET /jobs/1/result", ""),
    ("DELETE /jobs/1", ""),
    ("GET /jobs", ""),
    ("GET /jobs/1", ""),
];

#[test]
fn http_client_request_bytes_are_the_parents() {
    let canned = http_answer(ANSWER).repeat(HTTP_REQUESTS.len());
    let sent = capture(canned.into_bytes(), |addr| {
        shared_script!(&mut HttpClient::connect(addr).unwrap())
    });
    let expected: String = HTTP_REQUESTS
        .iter()
        .map(|(request, body)| {
            format!(
                "{request} HTTP/1.1\r\nHost: frapp\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
        })
        .collect();
    assert_eq!(String::from_utf8_lossy(&sent), expected);
}

// ---- 2b. submit response bytes -------------------------------------------

/// One connection to a single node holding session 1 (`a`:3 × `b`:2,
/// two shards): `>` what it sent, `<` what the parent commit answered.
/// A deferred submit draws no answer.
const SUBMIT_TRANSCRIPT: &str = r#"
round-robin, through the fast decoder and the general parser
> {"op":"submit","session":1,"records":[[0,0],[1,1]],"pre_perturbed":true}
< {"ok":true,"accepted":2,"shard":0}
> {"op": "submit", "session": 1, "records": [[2,0]], "pre_perturbed": true}
< {"ok":true,"accepted":1,"shard":1}
pinned; out of range
> {"op":"submit","session":1,"records":[[0,1]],"pre_perturbed":true,"shard":1}
< {"ok":true,"accepted":1,"shard":1}
> {"op":"submit","session":1,"records":[[0,1]],"pre_perturbed":true,"shard":5}
< {"ok":false,"error":"invalid request: shard 5 out of range (session has 2)"}
a replication stamp, which only a binary frame may carry
> {"op":"submit","session":1,"records":[[2,1]],"origin":3}
< {"ok":false,"error":"invalid request: `origin` and `seq` are not submit fields; replicated batches travel only as stamped binary OP_SUBMIT frames"}
a mid-batch failure; an unknown session
> {"op":"submit","session":1,"records":[[0,0],[9,9],[1,1]],"pre_perturbed":true}
< {"ok":false,"error":"batch rejected after 1 records were counted (retry only the remainder): frapp error: invalid record: attribute 0 (`a`) value 9 out of domain 0..3","accepted":1}
> {"op":"submit","session":404,"records":[[0,0]],"pre_perturbed":true}
< {"ok":false,"error":"unknown session 404"}
three deferred submits of which the second fails, then flush
> {"op":"submit","session":1,"records":[[0,0],[1,1]],"pre_perturbed":true,"ack":"deferred"}
> {"op":"submit","session":1,"records":[[2,0],[9,9]],"pre_perturbed":true,"shard":0,"ack":"deferred"}
> {"op":"submit","session":1,"records":[[2,1]],"pre_perturbed":true,"ack":"deferred"}
> {"op":"flush"}
< {"ok":false,"error":"batch rejected after 1 records were counted (retry only the remainder): frapp error: invalid record: attribute 0 (`a`) value 9 out of domain 0..3","accepted":3,"batches":3}
deferred state riding on later synchronous replies
> {"op":"submit","session":1,"records":[[0,0]],"pre_perturbed":true,"ack":"deferred"}
> {"op":"stats","session":1}
< {"ok":true,"total":9,"per_shard":[5,4],"deferred_accepted":1}
> {"op":"submit","session":1,"records":[[0,0]],"pre_perturbed":true,"shard":9,"ack":"deferred"}
> {"op":"stats","session":1}
< {"ok":true,"total":9,"per_shard":[5,4],"deferred_accepted":0,"deferred_error":"invalid request: shard 9 out of range (session has 2)"}
> {"op":"flush"}
< {"ok":true,"accepted":0,"batches":0}
"#;

#[test]
fn submit_response_bytes_are_the_parents() {
    let registry = SessionRegistry::new();
    let config = ServiceConfig::default();
    let transport = TransportMetrics::new();
    let mut state = ConnState::new();
    let mut send = |line: &str| {
        let mut out = String::new();
        dispatch_into(
            &registry, &config, &transport, None, None, &mut state, line, &mut out,
        );
        out
    };
    send(r#"{"op":"create_session","schema":[["a",3],["b",2]],"gamma":19,"shards":2,"seed":7}"#);
    let mut lines = SUBMIT_TRANSCRIPT.lines().peekable();
    while let Some(line) = lines.next() {
        if let Some(request) = line.strip_prefix("> ") {
            let expected = lines.next_if(|next| next.starts_with("< "));
            let expected = expected.map_or("", |answer| &answer[2..]);
            assert_eq!(send(request), expected, "{request}");
        }
    }
}

/// What node 0 of a two-node cluster (both nodes own every session)
/// answered at the parent commit: a create, three synchronous submits
/// (sequence numbers 1–3), a `flush` after two deferred ones, a `stats`.
/// The ring hashes peer addresses, so which node owns the odd sequence
/// numbers varies with the ports: the parent gave either answer.
const FEDERATED_ANSWERS: [&str; 2] = [
    r#"{"ok":true,"session":2,"shards":2,"gamma":19,"domain_size":6}
{"ok":true,"accepted":2,"peer":1}
{"ok":true,"accepted":2,"shard":0}
{"ok":true,"accepted":2,"peer":1}
{"ok":true,"accepted":2,"batches":2}
{"ok":true,"total":8,"per_shard":[3,5]}
"#,
    r#"{"ok":true,"session":2,"shards":2,"gamma":19,"domain_size":6}
{"ok":true,"accepted":2,"shard":1}
{"ok":true,"accepted":2,"peer":1}
{"ok":true,"accepted":2,"shard":1}
{"ok":true,"accepted":2,"batches":2}
{"ok":true,"total":8,"per_shard":[3,5]}
"#,
];

#[test]
fn federated_submit_response_bytes_are_the_parents() {
    let listeners = [(); 2].map(|_| TcpListener::bind("127.0.0.1:0").unwrap());
    let peers: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect();
    drop(listeners);
    let handles: Vec<_> = (0..2)
        .map(|node| {
            let config =
                ServiceConfig::with_addr(peers[node].clone()).with_peers(peers.clone(), node, 2);
            Server::bind(config).unwrap().spawn().unwrap()
        })
        .collect();
    // One pipelined burst; a connection is answered in order.
    let submit = r#"{"op":"submit","session":2,"records":[[0,0],[1,1]],"pre_perturbed":true}"#;
    let deferred = r#"{"op":"submit","session":2,"records":[[2,0]],"pre_perturbed":true,"shard":1,"ack":"deferred"}"#;
    let burst = format!(
        "{}\n{submit}\n{submit}\n{submit}\n{deferred}\n{deferred}\n{}\n{}\n",
        r#"{"op":"create_session","schema":[["a",3],["b",2]],"gamma":19,"shards":2,"seed":7}"#,
        r#"{"op":"flush"}"#,
        r#"{"op":"stats","session":2}"#,
    );
    let mut node0 = TcpStream::connect(handles[0].addr()).unwrap();
    node0.write_all(burst.as_bytes()).unwrap();
    let answers: String = BufReader::new(&node0)
        .lines()
        .take(6)
        .map(|line| line.unwrap() + "\n")
        .collect();
    assert!(FEDERATED_ANSWERS.contains(&answers.as_str()), "{answers}");
    for handle in handles {
        handle.shutdown().unwrap();
    }
}

// ---- 3. counters ---------------------------------------------------------

/// `family value` samples of a Prometheus exposition, labels included
/// in the family.
fn samples(text: &str) -> Vec<(&str, u64)> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            let (family, value) = line.rsplit_once(' ').expect("a sample line");
            (family, value.parse().expect("an integer sample"))
        })
        .collect()
}

#[test]
fn every_rendering_agrees_on_every_counter() {
    // A report in which every counter reads differently, and one peer
    // likewise, so a crossed row cannot cancel out.
    let mut report = TransportReport::default();
    for (i, row) in COUNTERS.iter().enumerate() {
        report.set(row.id, 100 + i as u64);
    }
    let counters = PeerReplCounters::new();
    for (i, row) in PEER_COUNTERS.iter().enumerate() {
        counters.add(row.id, 200 + i as u64);
    }
    counters.set_health(PeerHealth::Degraded);
    let peers = [counters.report(2, "127.0.0.1:7002")];

    let mut json = String::new();
    write_transport_metrics_response(&mut json, &report, Some(&peers));
    let v = frapp_service::json::parse(&json).unwrap();
    let mut text = String::new();
    write_prometheus_metrics(&mut text, &report, Some(&peers));
    let samples = samples(&text);
    assert_eq!(samples.len(), COUNTERS.len() + PEER_COUNTERS.len());

    // Both clients parse what the server wrote.
    let canned = format!("{json}\n{json}\n").into_bytes();
    let mut parsed = Vec::new();
    capture(canned, |addr| {
        let mut client = Client::connect(addr).unwrap();
        parsed.push((
            client.server_metrics().unwrap(),
            client.federation_metrics().unwrap(),
        ));
    });
    capture(http_answer(&json).repeat(2).into_bytes(), |addr| {
        let mut client = HttpClient::connect(addr).unwrap();
        parsed.push((
            client.server_metrics().unwrap(),
            client.federation_metrics().unwrap(),
        ));
    });
    for (transport, federation) in &parsed {
        assert_eq!(*transport, report);
        assert_eq!(federation[..], peers[..]);
    }

    for row in &COUNTERS {
        let value = report.get(row.id);
        let in_json = v.get(row.section).and_then(|s| s.get(row.key));
        assert_eq!(in_json.and_then(|n| n.as_u64()), Some(value), "{}", row.key);
        assert!(samples.contains(&(row.family, value)), "{}", row.family);
        let kind = format!("# TYPE {} {}\n", row.family, row.kind.as_str());
        assert!(text.contains(&kind), "{kind}");
    }
    let peer = &v.get(PEER_SECTION).and_then(|f| f.get("peers")).unwrap();
    let peer = &peer.as_array().unwrap()[0];
    for row in &PEER_COUNTERS {
        let value = peers[0].get(row.id);
        let labelled = format!("{}{{node=\"2\",peer=\"127.0.0.1:7002\"}}", row.family);
        assert!(samples.contains(&(&labelled, value)), "{labelled}");
        match row.id {
            PeerCounter::Health => {
                assert_eq!(peer.get(row.key).unwrap().as_str(), Some("degraded"))
            }
            _ => assert_eq!(peer.get(row.key).unwrap().as_u64(), Some(value)),
        }
    }
}

#[test]
fn a_scripted_burst_reads_the_same_on_every_rendering() {
    let handle = Server::bind(ServiceConfig::default().with_http_addr("127.0.0.1:0"))
        .unwrap()
        .spawn()
        .unwrap();
    let mut line = Client::connect(handle.addr()).unwrap();
    let session = line.create_session(&spec()).unwrap();
    line.submit_nowait(session, &records(), true).unwrap();
    line.submit_nowait(session, &records(), true).unwrap();
    assert_eq!(line.flush().unwrap(), 4);
    let mut binary = Client::connect(handle.addr()).unwrap();
    binary.negotiate_binary().unwrap();
    binary.submit_batch(session, &records(), true).unwrap();
    let job = line.mine_rules(session, &MineSpec::default()).unwrap();
    line.wait_job(job, Duration::from_secs(30)).unwrap();
    let mut http = HttpClient::connect(handle.http_addr().unwrap()).unwrap();
    http.stats(session).unwrap();

    // All three views over the one HTTP connection: each request moves
    // `http_requests` by one and nothing else moves.
    let json = http
        .call(frapp_service::wire::Op::Metrics, None, Vec::new())
        .unwrap();
    let parsed = http.server_metrics().unwrap();
    let mut raw = TcpStream::connect(handle.http_addr().unwrap()).unwrap();
    raw.write_all(b"GET /metrics HTTP/1.1\r\nAccept: text/plain\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut text = String::new();
    raw.read_to_string(&mut text).unwrap();
    let text = text.split_once("\r\n\r\n").expect("a body").1;
    let samples = samples(text);

    for row in &COUNTERS {
        let in_json = json.get(row.section).and_then(|s| s.get(row.key));
        let in_json = in_json.and_then(|n| n.as_u64()).expect(row.key);
        let (later, latest) = match row.id {
            Counter::HttpRequests => (in_json + 1, in_json + 2),
            // The raw scrape is one more connection.
            Counter::HttpConnections => (in_json, in_json + 1),
            _ => (in_json, in_json),
        };
        assert_eq!(parsed.get(row.id), later, "{}", row.key);
        assert!(samples.contains(&(row.family, latest)), "{}", row.family);
    }
    // The burst itself is what the counters say it was.
    assert_eq!(parsed.get(Counter::TcpConnections), 2);
    assert_eq!(parsed.get(Counter::BinaryConnections), 1);
    assert_eq!(parsed.get(Counter::BinaryRequests), 1);
    assert_eq!(parsed.get(Counter::DeferredBatches), 2);
    assert_eq!(parsed.get(Counter::JobsSubmitted), 1);
    assert_eq!(parsed.get(Counter::JobsCompleted), 1);
    handle.shutdown().unwrap();
}
