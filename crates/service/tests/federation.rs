//! Federation tier end-to-end tests: a real multi-node loopback
//! cluster with consistent-hash routing, pipelined inter-node
//! replication and conflict-free merge.
//!
//! The load-bearing property throughout is *bit-identity*: with
//! pre-perturbed streams the collected counts are pure integer tallies
//! (exact in f64 far below 2^53 and order-independent), so a federated
//! reconstruction — partitions merged across owner nodes, solved once
//! on the coordinator — must equal a single-node run on the same
//! stream down to the last bit, even across a node crash and
//! anti-entropy catch-up.

use frapp_core::perturb::{GammaDiagonal, Perturber};
use frapp_service::client::{Client, SessionSpec};
use frapp_service::framing::{
    read_varint, write_varint, FLAG_HAS_STAMP, FLAG_PRE_PERTURBED, OP_JSON, OP_SUBMIT,
};
use frapp_service::session::{Mechanism, ReconstructionMethod};
use frapp_service::wire::PeerCounter;
use frapp_service::{Server, ServiceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const GAMMA: f64 = 19.0;

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let base = std::env::var_os("FRAPP_PERSIST_TEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let dir = base.join(format!(
        "frapp-federation-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Reserves `n` distinct loopback ports. The listeners are dropped
/// before the servers bind, so a tiny reuse race exists — acceptable
/// in tests, unavoidable when the peer list must be known up front.
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect()
}

/// Opens a raw connection and upgrades it to the binary framing, as a
/// peer link does. The ack is read a byte at a time so that nothing
/// past it is consumed.
fn raw_binary_upgrade(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"{\"op\":\"hello\",\"framing\":\"binary\"}\n")
        .unwrap();
    let mut ack = Vec::new();
    let mut byte = [0u8];
    while byte[0] != b'\n' {
        stream.read_exact(&mut byte).unwrap();
        ack.push(byte[0]);
    }
    assert!(ack.starts_with(b"{\"ok\":true"), "{ack:?}");
    stream
}

/// Reads one `[opcode][varint len][payload]` frame off a raw stream.
fn read_frame(stream: &mut TcpStream) -> (u8, Vec<u8>) {
    let mut byte = [0u8];
    stream.read_exact(&mut byte).unwrap();
    let opcode = byte[0];
    let mut varint = Vec::new();
    loop {
        stream.read_exact(&mut byte).unwrap();
        varint.push(byte[0]);
        if byte[0] & 0x80 == 0 {
            break;
        }
    }
    let (len, _) = read_varint(&varint).unwrap().unwrap();
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload).unwrap();
    (opcode, payload)
}

/// One identical config per node: the same ordered peer list, each
/// node's own index, and (optionally) a per-node persistence dir.
fn cluster_configs(
    ports: &[u16],
    replication: usize,
    persist_base: Option<&PathBuf>,
) -> Vec<ServiceConfig> {
    let peers: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    peers
        .iter()
        .enumerate()
        .map(|(node, addr)| {
            let mut config =
                ServiceConfig::with_addr(addr.clone()).with_peers(peers.clone(), node, replication);
            if let Some(base) = persist_base {
                config.persist_dir = Some(base.join(format!("node{node}")));
            }
            // Loopback: fail fast rather than waiting out WAN-scale
            // timeouts when a test deliberately kills a node.
            config.connect_timeout_ms = 2_000;
            config.read_timeout_ms = 5_000;
            config
        })
        .collect()
}

fn spec(shards: usize, seed: u64) -> SessionSpec {
    SessionSpec {
        schema: vec![("a".into(), 4), ("b".into(), 3), ("c".into(), 2)],
        mechanism: Mechanism::Deterministic { gamma: GAMMA },
        shards: Some(shards),
        seed: Some(seed),
    }
}

/// A deterministic pre-perturbed stream: raw records from a fixed
/// pattern, perturbed client-side with a seeded RNG — the paper's
/// trust model, and the precondition for cross-topology bit-identity.
fn perturbed_stream(n: usize, seed: u64) -> Vec<Vec<u32>> {
    let schema = frapp_core::Schema::new(vec![("a", 4), ("b", 3), ("c", 2)]).unwrap();
    let gd = GammaDiagonal::new(&schema, GAMMA).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let raw = vec![(i % 4) as u32, (i % 3) as u32, (i % 2) as u32];
            gd.perturb_record(&raw, &mut rng).unwrap()
        })
        .collect()
}

/// The single-node ground truth for a stream: same spec, same batches,
/// one plain server.
fn single_node_estimates(stream: &[Vec<u32>], batch: usize) -> Vec<f64> {
    let handle = Server::bind(ServiceConfig::default())
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let session = client.create_session(&spec(2, 0x5EED)).unwrap();
    for chunk in stream.chunks(batch) {
        client.submit_batch(session, chunk, true).unwrap();
    }
    let rec = client
        .reconstruct(session, ReconstructionMethod::ClosedForm, false)
        .unwrap();
    assert_eq!(rec.n as usize, stream.len());
    handle.shutdown().unwrap();
    rec.estimates
}

#[test]
fn federated_reconstruction_is_bit_identical_to_single_node() {
    let stream = perturbed_stream(6_000, 0xFED1);
    let baseline = single_node_estimates(&stream, 250);

    let ports = free_ports(3);
    let configs = cluster_configs(&ports, 2, None);
    let handles: Vec<_> = configs
        .iter()
        .map(|c| Server::bind(c.clone()).unwrap().spawn().unwrap())
        .collect();

    // Coordinate through node 2 regardless of ownership: any node can
    // create, ingest and reconstruct a federated session.
    let mut client = Client::connect(handles[2].addr()).unwrap();
    let session = client.create_session(&spec(2, 0x5EED)).unwrap();

    // Pipelined ingest: deferred batches fan out across the owners
    // with no per-batch round trip; the flush is the barrier.
    for chunk in stream.chunks(250) {
        client.submit_nowait(session, chunk, true).unwrap();
    }
    let accepted = client.flush().unwrap();
    assert_eq!(accepted as usize, stream.len());

    let stats = client.stats(session).unwrap();
    assert_eq!(stats.total as usize, stream.len());
    assert_eq!(stats.per_shard.len(), 2, "one entry per owner node");
    assert!(
        stats.per_shard.iter().all(|&n| n > 0),
        "replication factor 2 must spread ingest across both owners: {:?}",
        stats.per_shard
    );

    let rec = client
        .reconstruct(session, ReconstructionMethod::ClosedForm, false)
        .unwrap();
    assert_eq!(rec.n as usize, stream.len());
    assert_eq!(
        rec.estimates, baseline,
        "federated merge must reproduce the single-node reconstruction bitwise"
    );

    // The same session is queryable through a *different* node.
    let mut other = Client::connect(handles[0].addr()).unwrap();
    let rec_other = other
        .reconstruct(session, ReconstructionMethod::ClosedForm, false)
        .unwrap();
    assert_eq!(rec_other.estimates, baseline);

    // Topology is visible on the wire, with every peer up.
    let status = client.cluster_status().unwrap();
    assert_eq!(
        status.get("federated").and_then(|v| v.as_bool()),
        Some(true)
    );
    let peers = status.get("peers").and_then(|v| v.as_array()).unwrap();
    assert_eq!(peers.len(), 3);
    assert!(peers
        .iter()
        .all(|p| p.get("up").and_then(|v| v.as_bool()) == Some(true)));

    assert!(client.close_session(session).unwrap());
    for handle in handles {
        handle.shutdown().unwrap();
    }
}

#[test]
fn owner_restart_loses_nothing_and_double_counts_nothing() {
    let stream = perturbed_stream(4_800, 0xFED2);
    let baseline = single_node_estimates(&stream, 200);
    let (phase1, phase2) = stream.split_at(stream.len() / 2);

    let base = temp_dir("restart");
    let ports = free_ports(3);
    let configs = cluster_configs(&ports, 2, Some(&base));
    let mut handles: Vec<_> = configs
        .iter()
        .map(|c| Some(Server::bind(c.clone()).unwrap().spawn().unwrap()))
        .collect();

    // Work out the ownership so the test can kill an *owner* while
    // coordinating through the non-owner — both owners remote, the
    // fan-out fully exercised.
    let peers: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let topology = frapp_fed::Topology::new(peers, 0, 2).unwrap();

    // Session ids are assigned from the coordinator's residue class,
    // so create first, then derive the roles from the actual id.
    let mut bootstrap = Client::connect(handles[0].as_ref().unwrap().addr()).unwrap();
    let session = bootstrap.create_session(&spec(2, 0x5EED)).unwrap();
    drop(bootstrap);
    let owners = topology.owners(session);
    let coordinator = (0..3).find(|n| !owners.contains(n)).unwrap();
    let victim = owners[0];

    let mut client = Client::connect(handles[coordinator].as_ref().unwrap().addr()).unwrap();

    // Phase 1: half the stream through the full cluster, barriered.
    for chunk in phase1.chunks(200) {
        client.submit_nowait(session, chunk, true).unwrap();
    }
    assert_eq!(client.flush().unwrap() as usize, phase1.len());

    // Kill the owner mid-ingest. Its partition (plus its replication
    // watermarks) persists via its snapshot directory.
    handles[victim].take().unwrap().shutdown().unwrap();

    // Phase 2: ingest continues while the owner is down — its share of
    // the stream queues on the coordinator's replication link.
    for chunk in phase2.chunks(200) {
        client.submit_nowait(session, chunk, true).unwrap();
    }

    // Restart the owner from its snapshot, then barrier: the link
    // reconnects, asks the owner which sequence numbers it already
    // applied, and resends exactly the gap — the phase-1 batches must
    // not be double-counted, the phase-2 backlog must not be lost.
    handles[victim] = Some(
        Server::bind(configs[victim].clone())
            .unwrap()
            .spawn()
            .unwrap(),
    );
    assert_eq!(client.flush().unwrap() as usize, phase2.len());

    let stats = client.stats(session).unwrap();
    assert_eq!(stats.total as usize, stream.len());

    let rec = client
        .reconstruct(session, ReconstructionMethod::ClosedForm, false)
        .unwrap();
    assert_eq!(
        rec.estimates, baseline,
        "post-restart federated reconstruction must stay bit-identical \
         to the single-node run"
    );

    for handle in handles.into_iter().flatten() {
        handle.shutdown().unwrap();
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn forwarded_duplicates_are_acked_but_not_recounted() {
    // The receiver-side half of exactly-once: the same (origin, seq)
    // batch delivered twice — a retry after an ambiguous failure —
    // claims once and is acked both times.
    // Forwards are stamped binary frames, so the test speaks for a peer
    // link over a raw binary-negotiated socket.
    let handle = Server::bind(ServiceConfig::default())
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let session = client.create_session(&spec(2, 7)).unwrap();

    let mut payload = vec![FLAG_PRE_PERTURBED | FLAG_HAS_STAMP];
    // session, origin, seq, n_records, n_attrs, then the cells
    for field in [session, 4, 9, 3, 3, 0, 0, 0, 1, 1, 1, 2, 2, 0] {
        write_varint(&mut payload, field);
    }
    let mut frame = vec![OP_SUBMIT];
    write_varint(&mut frame, payload.len() as u64);
    frame.extend_from_slice(&payload);
    let mut peer = raw_binary_upgrade(handle.addr());
    let mut deliver = || {
        peer.write_all(&frame).unwrap();
        let (opcode, body) = read_frame(&mut peer);
        assert_eq!(opcode, OP_JSON);
        frapp_service::json::parse(std::str::from_utf8(&body).unwrap()).unwrap()
    };

    let first = deliver();
    assert_eq!(first.get("accepted").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(first.get("duplicate"), None);
    let second = deliver();
    assert_eq!(
        second.get("accepted").and_then(|v| v.as_u64()),
        Some(3),
        "a duplicate retry is acknowledged — its records already count"
    );
    assert_eq!(
        second.get("duplicate").and_then(|v| v.as_bool()),
        Some(true)
    );

    let stats = client.stats(session).unwrap();
    assert_eq!(stats.total, 3, "the duplicate must not be recounted");
    handle.shutdown().unwrap();
}

#[test]
fn replay_history_is_bounded_by_the_peers_durable_watermark() {
    // Regression for unbounded link memory: before durable-watermark
    // truncation, every deferred forward stayed in the link's replay
    // history for the life of the session. Now, once the peer reports
    // a batch persisted (snapshot or delta on disk), the forwarder may
    // forget it — so steady-state history is bounded by the truncation
    // threshold plus one persistence interval, while the forwarded
    // counter keeps growing.
    //
    // Mirrors HISTORY_TRUNCATE_THRESHOLD in fed.rs: the forward path
    // checks the peer's durable marks whenever a session's backlog
    // reaches a multiple of this.
    const THRESHOLD: u64 = 64;

    let stream = perturbed_stream(600, 0xFED4);
    let baseline = single_node_estimates(&stream, 2);

    let base = temp_dir("durable-truncate");
    let ports = free_ports(2);
    let configs = cluster_configs(&ports, 2, Some(&base));
    let mut handles: Vec<_> = configs
        .iter()
        .map(|c| Some(Server::bind(c.clone()).unwrap().spawn().unwrap()))
        .collect();

    // With two nodes at replication 2 both own every session, and the
    // per-session sequence alternates owners — exactly half of the
    // batches are forwarded over the single node0 -> node1 link.
    let mut client = Client::connect(handles[0].as_ref().unwrap().addr()).unwrap();
    let mut peer_admin = Client::connect(handles[1].as_ref().unwrap().addr()).unwrap();
    let session = client.create_session(&spec(2, 0x5EED)).unwrap();

    // Six rounds of pipelined ingest; after every round but the last,
    // the peer persists, advancing the durable watermark the link
    // truncates against. The final round stays memory-only on the peer
    // so the restart below has to be fed from the (truncated) history.
    let rounds: Vec<&[Vec<u32>]> = stream.chunks(100).collect();
    let last = rounds.len() - 1;
    for (round, records) in rounds.iter().enumerate() {
        for chunk in records.chunks(2) {
            client.submit_nowait(session, chunk, true).unwrap();
        }
        assert_eq!(client.flush().unwrap() as usize, records.len());
        if round < last {
            assert_eq!(peer_admin.persist(None).unwrap(), vec![session]);
        }
    }

    // 300 batches, 150 forwarded: well past two truncation rounds.
    let report = client
        .federation_metrics()
        .unwrap()
        .into_iter()
        .find(|p| p.get(PeerCounter::ForwardedBatches) > 0)
        .expect("the link to the co-owner must have forwarded batches");
    assert!(
        report.get(PeerCounter::ForwardedBatches) >= 2 * THRESHOLD,
        "test must drive the link past two truncation checks \
         (forwarded {})",
        report.get(PeerCounter::ForwardedBatches)
    );
    assert!(
        report.get(PeerCounter::HistoryBatches) < report.get(PeerCounter::ForwardedBatches),
        "durable truncation must have dropped persisted batches \
         (history {} vs forwarded {})",
        report.get(PeerCounter::HistoryBatches),
        report.get(PeerCounter::ForwardedBatches)
    );
    assert!(
        report.get(PeerCounter::HistoryBatches) < 2 * THRESHOLD,
        "replay history must stay bounded by the truncation threshold \
         plus one persistence interval, got {}",
        report.get(PeerCounter::HistoryBatches)
    );

    // Truncation must never forget a batch a restart still needs: kill
    // the peer (its memory-only last round vanishes), restart it from
    // its snapshot, and let anti-entropy resend exactly the gap from
    // what remains of the history.
    handles[1].take().unwrap().shutdown().unwrap();
    handles[1] = Some(Server::bind(configs[1].clone()).unwrap().spawn().unwrap());
    client.flush().unwrap();

    let stats = client.stats(session).unwrap();
    assert_eq!(stats.total as usize, stream.len());
    let rec = client
        .reconstruct(session, ReconstructionMethod::ClosedForm, false)
        .unwrap();
    assert_eq!(
        rec.estimates, baseline,
        "reconstruction after truncation and a peer restart must stay \
         bit-identical to the single-node run"
    );

    for handle in handles.into_iter().flatten() {
        handle.shutdown().unwrap();
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn degraded_reads_cover_reachable_partitions_and_heal_bit_identical() {
    // The graceful-degradation contract end to end: with one owner
    // down, a strict read fails, an `allow_partial` read returns the
    // reachable partitions tagged `degraded` with an exact coverage
    // report — and once the owner heals, the answer returns to
    // bit-identity with the single-node run.
    let stream = perturbed_stream(3_000, 0xFED7);
    let baseline = single_node_estimates(&stream, 150);

    let base = temp_dir("degraded");
    let ports = free_ports(3);
    let mut configs = cluster_configs(&ports, 2, Some(&base));
    for config in &mut configs {
        // A short breaker cooldown so the healing phase is not stuck
        // in fail-fast connects for the default full second.
        config.breaker_cooldown_ms = 100;
        config.breaker_threshold = 2;
    }
    let mut handles: Vec<_> = configs
        .iter()
        .map(|c| Some(Server::bind(c.clone()).unwrap().spawn().unwrap()))
        .collect();

    // Derive the roles from the actual session id: coordinate through
    // the non-owner so the outage hits a *remote* partition.
    let peers: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let topology = frapp_fed::Topology::new(peers, 0, 2).unwrap();
    let mut bootstrap = Client::connect(handles[0].as_ref().unwrap().addr()).unwrap();
    let session = bootstrap.create_session(&spec(2, 0x5EED)).unwrap();
    drop(bootstrap);
    let owners = topology.owners(session);
    let coordinator = (0..3).find(|n| !owners.contains(n)).unwrap();
    let victim = owners[0];

    let mut client = Client::connect(handles[coordinator].as_ref().unwrap().addr()).unwrap();
    for chunk in stream.chunks(150) {
        client.submit_nowait(session, chunk, true).unwrap();
    }
    assert_eq!(client.flush().unwrap() as usize, stream.len());

    // Healthy cluster: the partial-capable read is exact — no
    // `degraded` tag, no coverage report, bit-identical estimates.
    let (rec, coverage) = client
        .reconstruct_partial(session, ReconstructionMethod::ClosedForm, false)
        .unwrap();
    assert!(coverage.is_none(), "full coverage must not be degraded");
    assert_eq!(rec.estimates, baseline);

    // Kill one owner. Its partition of the ingest becomes unreachable.
    handles[victim].take().unwrap().shutdown().unwrap();

    // A strict read refuses rather than silently under-counting.
    assert!(client
        .reconstruct(session, ReconstructionMethod::ClosedForm, false)
        .is_err());

    // The partial read answers from the surviving owner and says
    // exactly what is missing.
    let (rec, coverage) = client
        .reconstruct_partial(session, ReconstructionMethod::ClosedForm, false)
        .unwrap();
    let coverage = coverage.expect("an owner outage must surface as partial coverage");
    assert_eq!(coverage.owners_total, 2);
    assert_eq!(coverage.owners_reachable, 1);
    assert_eq!(coverage.missing.len(), 1);
    assert_eq!(coverage.missing[0].0, victim);
    assert!(
        rec.n > 0 && (rec.n as usize) < stream.len(),
        "the degraded estimate must cover some but not all records (n = {})",
        rec.n
    );

    // Stats degrade the same way.
    let (stats, coverage) = client.stats_partial(session).unwrap();
    assert!(coverage.is_some());
    assert!(stats.total > 0 && (stats.total as usize) < stream.len());

    // Heal: restart the owner from its shutdown snapshot, wait out
    // the breaker cooldown (the next connect is the half-open probe),
    // and the exact answer must come back — bit-identical to the
    // single-node run.
    handles[victim] = Some(
        Server::bind(configs[victim].clone())
            .unwrap()
            .spawn()
            .unwrap(),
    );
    let deadline = Instant::now() + Duration::from_secs(20);
    let healed = loop {
        match client.reconstruct(session, ReconstructionMethod::ClosedForm, false) {
            Ok(rec) if rec.n as usize == stream.len() => break rec,
            result => {
                assert!(
                    Instant::now() < deadline,
                    "cluster failed to heal in time: {result:?}"
                );
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    };
    assert_eq!(
        healed.estimates, baseline,
        "post-heal reconstruction must return to single-node bit-identity"
    );
    // And the healed partial read is exact again.
    let (_, coverage) = client
        .reconstruct_partial(session, ReconstructionMethod::ClosedForm, false)
        .unwrap();
    assert!(coverage.is_none());

    for handle in handles.into_iter().flatten() {
        handle.shutdown().unwrap();
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn client_read_timeout_unwedges_a_stalled_server() {
    // Regression: `Client` used to connect with no timeouts at all, so
    // a stalled peer (accepts, never answers) wedged the caller
    // forever — fatal once clients double as federation links.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stall = std::thread::spawn(move || {
        // Accept and hold the connection open without ever writing.
        let conn = listener.accept().map(|(s, _)| s);
        std::thread::sleep(Duration::from_secs(10));
        drop(conn);
    });

    let started = Instant::now();
    let mut client = Client::connect_with_timeouts(
        addr,
        Some(Duration::from_secs(2)),
        Some(Duration::from_millis(300)),
    )
    .unwrap();
    let err = client.ping().unwrap_err();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "a stalled server must fail the call via the read timeout, \
         not hang (took {elapsed:?}: {err})"
    );
    stall.join().unwrap();
}
