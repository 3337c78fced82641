//! `bench_soak` — the robustness soak harness: mixed workloads against
//! real in-process servers, with every run ending in hard invariant
//! checks instead of throughput numbers.
//!
//! ```text
//! bench_soak [--quick] [--duration-secs N] [--seed S] [--out PATH]
//! ```
//!
//! Seven scenarios run per round (one round under `--quick`, repeated
//! rounds until `--duration-secs` elapses otherwise):
//!
//! * **churn** — session create/close cycling far past the
//!   `max_sessions` LRU cap with a persistence spill directory, so
//!   sessions are continuously evicted to disk and resurrected.
//! * **skew_flood** — pipelined deferred-ack floods with an 85%-hot
//!   session against the async reactor, flushing mid-stream.
//! * **reconnect_storm** — threads hammering connect / submit / abrupt
//!   disconnect cycles (no clean close) against one shared session.
//! * **slow_reader** — a raw socket pipelines a burst of large
//!   reconstruct requests and then refuses to read while the reactor's
//!   write buffers back up.
//! * **persist_faults** — snapshots taken under an injected
//!   `persist_write`/`persist_rename`/`persist_sync` fault storm, then
//!   a clean restart that must recover bit-identically.
//! * **mining_churn** — background `mine_rules` jobs racing session
//!   eviction (LRU spill under a small cap) and `close_session`:
//!   every job must reach exactly one terminal state, jobs on closed
//!   sessions must fail cleanly in-band, and the job counters must
//!   balance.
//! * **federated_outage** — a 3-node cluster with injected link delays:
//!   ingest, kill an owner, require a correctly-labelled degraded
//!   partial read, restart the owner and require the cluster to heal
//!   back to bit-identity with a single-node baseline.
//!
//! Invariants checked (any violation fails the process with exit 1):
//! no lost or duplicated acks (every accepted watermark and stats
//! total equals exactly what was submitted), no watermark regressions
//! across flushes, bounded peer-link replay history, degraded reads
//! labelled with accurate coverage, and bit-identical recovery after
//! both fault-storm restarts and owner outages.

use frapp_core::perturb::{GammaDiagonal, Perturber};
use frapp_service::client::{Client, SessionSpec};
use frapp_service::json::Value;
use frapp_service::session::{Mechanism, ReconstructionMethod};
use frapp_service::wire::{Counter, PeerCounter};
use frapp_service::{FaultPlan, MineSpec, Server, ServerHandle, ServiceConfig, ServiceError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const GAMMA: f64 = 19.0;
/// Twice the link history truncation threshold (`fed.rs` truncates at
/// 64): the replay buffer must never grow past this.
const HISTORY_BOUND: u64 = 128;

// ---------------------------------------------------------------- utils

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "frapp-soak-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Reserves `n` distinct loopback ports (needed because a federation
/// peer list must be known before any node binds).
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect()
}

/// Deterministic scenario-level randomness (which session to hit,
/// which to close) — xorshift64*, independent of the `rand` shim.
struct Srng(u64);

impl Srng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn spec(schema: &[(&str, u32)], shards: usize, seed: u64) -> SessionSpec {
    SessionSpec {
        schema: schema.iter().map(|(n, c)| (n.to_string(), *c)).collect(),
        mechanism: Mechanism::Deterministic { gamma: GAMMA },
        shards: Some(shards),
        seed: Some(seed),
    }
}

/// A deterministic pre-perturbed stream over `schema`: raw records
/// from a fixed pattern, perturbed client-side with a seeded RNG (the
/// paper's trust model, and the precondition for bit-identity checks).
fn perturbed_stream(schema: &[(&str, u32)], n: usize, seed: u64) -> Vec<Vec<u32>> {
    let sch = frapp_core::Schema::new(schema.to_vec()).expect("schema");
    let gd = GammaDiagonal::new(&sch, GAMMA).expect("mechanism");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let raw: Vec<u32> = schema.iter().map(|&(_, card)| (i as u32) % card).collect();
            gd.perturb_record(&raw, &mut rng).expect("perturb")
        })
        .collect()
}

const SMALL: &[(&str, u32)] = &[("a", 4), ("b", 3), ("c", 2)];
const WIDE: &[(&str, u32)] = &[("x", 48), ("y", 48)];

/// Ground truth for a stream: the same spec and batches against one
/// plain single-node server.
fn single_node_estimates(schema: &[(&str, u32)], stream: &[Vec<u32>], batch: usize) -> Vec<f64> {
    let handle = Server::bind(ServiceConfig::default())
        .expect("bind baseline")
        .spawn()
        .expect("spawn baseline");
    let mut client = Client::connect(handle.addr()).expect("connect baseline");
    let session = client.create_session(&spec(schema, 2, 0x5EED)).unwrap();
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

// ----------------------------------------------------------- reporting

#[derive(Default)]
struct Soak {
    violations: Vec<String>,
    scenarios: Vec<(String, Vec<(String, String)>)>,
}

impl Soak {
    /// Records an invariant violation (and keeps going: a soak run
    /// should surface every broken invariant, not just the first).
    fn check(&mut self, scenario: &str, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            let m = format!("{scenario}: {}", msg());
            eprintln!("VIOLATION {m}");
            self.violations.push(m);
        }
    }

    fn record(&mut self, name: &str, round: usize, details: Vec<(String, String)>) {
        let mut d = vec![("round".to_string(), round.to_string())];
        d.extend(details);
        self.scenarios.push((name.to_string(), d));
    }
}

fn kv(k: &str, v: impl std::fmt::Display) -> (String, String) {
    (k.to_string(), v.to_string())
}

// ----------------------------------------------------------- scenarios

/// Session churn at the LRU cap: 10 sessions created against a cap of
/// 4, each fully ingested while resident, so every create past the
/// cap spills the least-recently-used session to disk. One resident
/// and one already-spilled session are closed mid-run. A restart with
/// a larger cap must recover every surviving session with exact
/// totals — and must NOT resurrect the closed ones.
fn churn(s: &mut Soak, round: usize, scale: usize, seed: u64) {
    let dir = temp_dir("churn");
    let config = ServiceConfig {
        max_sessions: 4,
        persist_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let handle = Server::bind(config).unwrap().spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let n_sessions = 10;
    let batches = 3 * scale;
    let batch = 48;
    let stream = perturbed_stream(SMALL, batch * batches * n_sessions, seed);
    let mut ids = Vec::with_capacity(n_sessions);
    let mut expected = Vec::with_capacity(n_sessions);
    let mut off = 0;
    for i in 0..n_sessions {
        let id = client
            .create_session(&spec(SMALL, 2, seed + i as u64))
            .unwrap();
        ids.push(id);
        let mut total = 0u64;
        for _ in 0..batches {
            let chunk = &stream[off..off + batch];
            off += batch;
            client.submit_batch(id, chunk, true).unwrap();
            total += batch as u64;
        }
        expected.push(total);
        if i == 8 {
            // Close a session that is still resident.
            let was_closed = client.close_session(ids[8]).unwrap();
            s.check("churn", was_closed, || {
                "closing a resident session reported nothing to close".to_string()
            });
        }
    }
    // Close a session that by now lives only in the spill directory
    // (the cap is 4; session 1 was evicted long ago).
    let was_closed = client.close_session(ids[1]).unwrap();
    s.check("churn", was_closed, || {
        "closing a spilled session reported nothing to close".to_string()
    });
    handle.shutdown().unwrap();

    // Restart with a cap big enough for everything on disk: every
    // session except the two closed ones must come back with its exact
    // total — no ack lost to an eviction, nothing resurrected from a
    // closed session's stale snapshot.
    let config2 = ServiceConfig {
        max_sessions: 16,
        persist_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let handle2 = Server::bind(config2).unwrap().spawn().unwrap();
    let mut client2 = Client::connect(handle2.addr()).unwrap();
    let recovered = client2.list_sessions().unwrap();
    for i in 0..n_sessions {
        let present = recovered.contains(&ids[i]);
        if i == 1 || i == 8 {
            s.check("churn", !present, || {
                format!("closed session {} resurrected after restart", ids[i])
            });
            continue;
        }
        s.check("churn", present, || {
            format!("session {} lost across spill + restart", ids[i])
        });
        if present {
            let st = client2.stats(ids[i]).unwrap();
            s.check("churn", st.total == expected[i], || {
                format!(
                    "session {} total {} != submitted {}",
                    ids[i], st.total, expected[i]
                )
            });
        }
    }
    handle2.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    s.record(
        "churn",
        round,
        vec![
            kv("sessions", n_sessions),
            kv("records", off),
            kv("closed", 2),
            kv("recovered", recovered.len()),
        ],
    );
}

/// Hot-session skew plus pipelined floods against the async reactor:
/// 85% of deferred batches hit one session; flush watermarks must be
/// monotone and land exactly on the submitted count.
fn skew_flood(s: &mut Soak, round: usize, scale: usize, seed: u64) {
    let handle = Server::bind(ServiceConfig::default().with_reactor(2))
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let n_sessions = 4;
    let batch = 64;
    let batches = 60 * scale;
    let stream = perturbed_stream(SMALL, batch * batches, seed);
    let ids: Vec<u64> = (0..n_sessions)
        .map(|i| {
            client
                .create_session(&spec(SMALL, 2, seed + i as u64))
                .unwrap()
        })
        .collect();

    let mut rng = Srng(seed ^ 0xABCD);
    let mut expected = vec![0u64; n_sessions];
    let mut submitted = 0u64;
    // Each flush returns the records accepted since the previous
    // flush; the running sum is the connection's watermark, and it may
    // never overtake what was submitted nor fall short at the end.
    let mut acked = 0u64;
    let mut flushes = 0u64;
    for (b, chunk) in stream.chunks(batch).enumerate() {
        let i = if rng.below(100) < 85 {
            0
        } else {
            1 + rng.below(n_sessions - 1)
        };
        client.submit_nowait(ids[i], chunk, true).unwrap();
        expected[i] += chunk.len() as u64;
        submitted += chunk.len() as u64;
        if b % 16 == 15 {
            acked += client.flush().unwrap();
            s.check("skew_flood", acked <= submitted, || {
                format!("watermark {acked} overtook submissions {submitted}")
            });
            flushes += 1;
        }
    }
    acked += client.flush().unwrap();
    s.check("skew_flood", acked == submitted, || {
        format!("final watermark {acked} != submitted {submitted} (lost or duplicated acks)")
    });
    for i in 0..n_sessions {
        let st = client.stats(ids[i]).unwrap();
        s.check("skew_flood", st.total == expected[i], || {
            format!(
                "session {} total {} != submitted {}",
                ids[i], st.total, expected[i]
            )
        });
    }
    handle.shutdown().unwrap();
    s.record(
        "skew_flood",
        round,
        vec![
            kv("records", submitted),
            kv("flushes", flushes + 1),
            kv(
                "hot_share",
                format!("{:.2}", expected[0] as f64 / submitted as f64),
            ),
        ],
    );
}

/// Reconnect storm: threads cycling connect / submit / abrupt drop (no
/// clean close, no shutdown handshake) against one shared session.
/// Every batch that was acknowledged must be counted exactly once.
fn reconnect_storm(s: &mut Soak, round: usize, scale: usize, seed: u64) {
    let mut config = ServiceConfig::default().with_reactor(2);
    config.max_connections = 512;
    let handle = Server::bind(config).unwrap().spawn().unwrap();
    let mut control = Client::connect(handle.addr()).unwrap();
    let session = control.create_session(&spec(SMALL, 2, seed)).unwrap();

    let threads = 6;
    let iters = 8 * scale;
    let batch = 16;
    let streams: Vec<Vec<Vec<u32>>> = (0..threads)
        .map(|t| perturbed_stream(SMALL, iters * batch, seed + 7 * t as u64))
        .collect();

    let addr = handle.addr();
    let submitted: u64 = std::thread::scope(|scope| {
        let tasks: Vec<_> = streams
            .iter()
            .map(|stream| {
                scope.spawn(move || {
                    let mut sent = 0u64;
                    for (i, chunk) in stream.chunks(batch).enumerate() {
                        let mut c = Client::connect(addr).expect("storm connect");
                        if i % 3 == 2 {
                            // A connection that only pings and hangs up.
                            c.ping().expect("storm ping");
                        } else {
                            c.submit_batch(session, chunk, true).expect("storm submit");
                            sent += chunk.len() as u64;
                        }
                        // Abrupt drop: no close_session, no shutdown op.
                        drop(c);
                    }
                    sent
                })
            })
            .collect();
        tasks.into_iter().map(|t| t.join().unwrap()).sum()
    });

    let st = control.stats(session).unwrap();
    s.check("reconnect_storm", st.total == submitted, || {
        format!(
            "total {} != submitted {} across reconnect cycles",
            st.total, submitted
        )
    });
    let tm = control.server_metrics().unwrap();
    s.check("reconnect_storm", tm.get(Counter::Sheds) == 0, || {
        format!("{} connections shed below the cap", tm.get(Counter::Sheds))
    });
    handle.shutdown().unwrap();
    s.record(
        "reconnect_storm",
        round,
        vec![
            kv("connections", tm.get(Counter::TcpConnections)),
            kv("records", submitted),
            kv("accept_errors", tm.get(Counter::AcceptErrors)),
        ],
    );
}

/// Slow-reader backpressure: a raw socket pipelines a burst of
/// reconstruct requests over a 576-cell domain and sleeps instead of
/// reading. The reactor's output buffers back up (partial writes);
/// every response must still arrive, whole and in order.
fn slow_reader(s: &mut Soak, round: usize, scale: usize, seed: u64) {
    let handle = Server::bind(ServiceConfig::default().with_reactor(1))
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let session = client.create_session(&spec(WIDE, 2, seed)).unwrap();
    let n = 800;
    for chunk in perturbed_stream(WIDE, n, seed).chunks(100) {
        client.submit_batch(session, chunk, true).unwrap();
    }

    let requests = 120 * scale;
    let mut raw = TcpStream::connect(handle.addr()).expect("raw connect");
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let line = format!(
        "{{\"op\":\"reconstruct\",\"session\":{session},\"method\":\"closed\",\"clamp\":false}}\n"
    );
    let burst = line.repeat(requests);
    raw.write_all(burst.as_bytes()).expect("raw burst");
    raw.flush().unwrap();
    // Refuse to read while several MB of 2304-cell responses queue up
    // behind us — far past what the kernel's socket buffers absorb, so
    // the reactor must park the connection on partial writes.
    std::thread::sleep(Duration::from_millis(250));

    let mut reader = BufReader::new(raw);
    let mut buf = String::new();
    let mut got = 0usize;
    let want = format!("\"n\":{n}");
    for i in 0..requests {
        buf.clear();
        match reader.read_line(&mut buf) {
            Ok(len) if len > 0 => {
                s.check(
                    "slow_reader",
                    buf.contains("\"ok\":true") && buf.contains(&want),
                    || {
                        format!(
                            "response {i} malformed under backpressure: {}",
                            &buf[..buf.len().min(120)]
                        )
                    },
                );
                got += 1;
            }
            other => {
                s.check("slow_reader", false, || {
                    format!("response {i} missing ({other:?})")
                });
                break;
            }
        }
    }
    s.check("slow_reader", got == requests, || {
        format!("{got}/{requests} responses arrived")
    });
    let tm = client.server_metrics().unwrap();
    handle.shutdown().unwrap();
    s.record(
        "slow_reader",
        round,
        vec![
            kv("responses", got),
            kv("partial_writes", tm.get(Counter::ReactorPartialWrites)),
        ],
    );
}

/// Persistence under an injected IO-fault storm: snapshots fail with
/// ~58% probability per attempt across the write/rename/sync sites,
/// yet once one persist succeeds a clean restart must recover the
/// session bit-identically.
fn persist_faults(s: &mut Soak, round: usize, scale: usize, seed: u64) {
    let dir = temp_dir("faults");
    let plan = format!(
        "seed={seed},persist_write=io_error:0.35,persist_rename=io_error:0.2,persist_sync=io_error:0.2"
    );
    let config = ServiceConfig {
        persist_dir: Some(dir.clone()),
        fault_plan: FaultPlan::parse(&plan).unwrap(),
        ..ServiceConfig::default()
    };
    let handle = Server::bind(config).unwrap().spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let session = client.create_session(&spec(SMALL, 2, seed)).unwrap();

    let rounds = 6 * scale;
    let batch = 50;
    let stream = perturbed_stream(SMALL, batch * rounds, seed);
    let mut fault_hits = 0u64;
    for chunk in stream.chunks(batch) {
        client.submit_batch(session, chunk, true).unwrap();
        // Snapshot after every batch; injected faults surface as
        // remote errors and must never corrupt what is already on
        // disk.
        if let Err(e) = client.persist(Some(session)) {
            let msg = e.to_string();
            s.check("persist_faults", msg.contains("injected fault"), || {
                format!("unexpected persist error: {msg}")
            });
            fault_hits += 1;
        }
    }
    // Drive one persist through the storm (p(success) ≈ 0.42 per try).
    let mut retries = 0u64;
    loop {
        match client.persist(Some(session)) {
            Ok(_) => break,
            Err(_) if retries < 400 => retries += 1,
            Err(e) => {
                s.check("persist_faults", false, || {
                    format!("persist never succeeded after {retries} retries: {e}")
                });
                break;
            }
        }
    }
    let live = client
        .reconstruct(session, ReconstructionMethod::ClosedForm, false)
        .unwrap();
    let st = client.stats(session).unwrap();
    s.check("persist_faults", st.total as usize == stream.len(), || {
        format!("total {} != submitted {}", st.total, stream.len())
    });
    handle.shutdown().unwrap();

    // Clean restart, no faults: the recovered session must reconstruct
    // bit-identically to what the live server reported.
    let config2 = ServiceConfig {
        persist_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let handle2 = Server::bind(config2).unwrap().spawn().unwrap();
    let mut client2 = Client::connect(handle2.addr()).unwrap();
    let rec = client2.reconstruct(session, ReconstructionMethod::ClosedForm, false);
    match rec {
        Ok(rec) => {
            s.check("persist_faults", rec.n == live.n, || {
                format!("recovered n {} != live n {}", rec.n, live.n)
            });
            s.check("persist_faults", rec.estimates == live.estimates, || {
                "recovered estimates are not bit-identical to the live run".to_string()
            });
        }
        Err(e) => s.check("persist_faults", false, || {
            format!("recovered session unreadable: {e}")
        }),
    }
    handle2.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    s.record(
        "persist_faults",
        round,
        vec![
            kv("records", stream.len()),
            kv("fault_hits", fault_hits),
            kv("final_persist_retries", retries),
        ],
    );
}

/// Mining under churn: background `mine_rules` jobs racing session
/// eviction and close. A small LRU cap plus a spill directory keeps
/// sessions cycling to disk while jobs hold live references to them;
/// an injected `job_exec` delay keeps most jobs in flight long enough
/// for `close_session` and `job_cancel` to genuinely race the workers.
/// Invariants: the server never panics and keeps answering, every
/// accepted job reaches exactly one terminal state, a `failed` state
/// only ever names a closed session, `done` jobs serve their results,
/// and the transport job counters balance (submitted = done + failed
/// + cancelled once drained).
fn mining_churn(s: &mut Soak, round: usize, scale: usize, seed: u64) {
    let dir = temp_dir("mine");
    let config = ServiceConfig {
        max_sessions: 3,
        persist_dir: Some(dir.clone()),
        job_threads: 2,
        job_queue_depth: 64,
        fault_plan: FaultPlan::parse(&format!("seed={seed},job_exec=delay(40):0.7")).unwrap(),
        ..ServiceConfig::default()
    };
    let handle = Server::bind(config).unwrap().spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let n_sessions = 6usize;
    let batch = 40;
    let stream = perturbed_stream(SMALL, batch * n_sessions, seed);
    let ids: Vec<u64> = (0..n_sessions)
        .map(|i| {
            let id = client
                .create_session(&spec(SMALL, 2, seed + i as u64))
                .unwrap();
            client
                .submit_batch(id, &stream[i * batch..(i + 1) * batch], true)
                .unwrap();
            id
        })
        .collect();

    let mut rng = Srng(seed ^ 0x4D49_4E45);
    let mut jobs: Vec<(u64, u64)> = Vec::new(); // (job id, session id)
    let mut closed: Vec<u64> = Vec::new();
    let mut rejected = 0u64;
    let mut shed = 0u64;
    let mut cancels = 0u64;
    for i in 0..48 * scale {
        // Bias toward the most recently created sessions (likely
        // resident) so the scenario exercises completions as well as
        // rejections; the tail still hits spilled and closed sessions.
        let sid = if rng.below(10) < 6 {
            ids[n_sessions - 1 - rng.below(3)]
        } else {
            ids[rng.below(n_sessions)]
        };
        match client.mine_rules(sid, &MineSpec::default()) {
            Ok(job) => jobs.push((job, sid)),
            Err(ServiceError::Remote { message, .. }) if message.contains("queue is full") => {
                shed += 1;
            }
            Err(ServiceError::Remote { message, .. }) if message.contains("unknown session") => {
                // Rejected in-band at dispatch before any job exists:
                // the session was closed, or the LRU spilled it (live
                // access does not resurrect — only a restart does).
                rejected += 1;
            }
            Err(e) => {
                s.check("mining_churn", false, || format!("submit to {sid}: {e}"));
            }
        }
        if i % 9 == 8 && closed.len() < 3 {
            // Close a random session — possibly one with queued or
            // running jobs, possibly one already spilled by the LRU.
            let sid = ids[rng.below(n_sessions)];
            if !closed.contains(&sid) {
                client.close_session(sid).unwrap();
                closed.push(sid);
            }
        }
        if i % 7 == 3 && !jobs.is_empty() {
            // Cancel a random earlier job, whatever state it is in.
            let (job, _) = jobs[rng.below(jobs.len())];
            client.job_cancel(job).unwrap();
            cancels += 1;
        }
    }

    // Drain: every accepted job must reach exactly one terminal state.
    let mut done = 0u64;
    let mut failed = 0u64;
    let mut cancelled = 0u64;
    for &(job, sid) in &jobs {
        let status = match client.wait_job(job, Duration::from_secs(30)) {
            Ok(v) => v,
            Err(e) => {
                s.check("mining_churn", false, || {
                    format!("job {job} never reached a terminal state: {e}")
                });
                continue;
            }
        };
        match status.get("state").and_then(Value::as_str) {
            Some("done") => {
                done += 1;
                let result = client.job_result(job).unwrap();
                s.check("mining_churn", result.get("rules").is_some(), || {
                    format!("done job {job} served a result without rules")
                });
            }
            Some("cancelled") => cancelled += 1,
            Some("failed") => {
                failed += 1;
                let error = status
                    .get("error")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_owned();
                s.check(
                    "mining_churn",
                    closed.contains(&sid) && error.contains("closed"),
                    || format!("job {job} on session {sid} failed for the wrong reason: {error}"),
                );
            }
            other => s.check("mining_churn", false, || {
                format!("job {job} drained into non-terminal state {other:?}")
            }),
        }
    }

    // The server is still healthy and the counters balance.
    client.ping().unwrap();
    let tm = client.server_metrics().unwrap();
    s.check(
        "mining_churn",
        tm.get(Counter::JobsSubmitted) == jobs.len() as u64 && tm.get(Counter::JobsShed) == shed,
        || {
            format!(
                "counters submitted={} shed={} vs observed {}/{shed}",
                tm.get(Counter::JobsSubmitted),
                tm.get(Counter::JobsShed),
                jobs.len()
            )
        },
    );
    s.check(
        "mining_churn",
        tm.get(Counter::JobsCompleted)
            + tm.get(Counter::JobsFailed)
            + tm.get(Counter::JobsCancelled)
            == jobs.len() as u64,
        || {
            format!(
                "terminal counters {}+{}+{} != accepted {}",
                tm.get(Counter::JobsCompleted),
                tm.get(Counter::JobsFailed),
                tm.get(Counter::JobsCancelled),
                jobs.len()
            )
        },
    );
    handle.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    s.record(
        "mining_churn",
        round,
        vec![
            kv("jobs", jobs.len()),
            kv("done", done),
            kv("failed", failed),
            kv("cancelled", cancelled),
            kv("cancel_requests", cancels),
            kv("closed_sessions", closed.len()),
            kv("rejected", rejected),
            kv("shed", shed),
        ],
    );
}

/// The acceptance scenario: a 3-node cluster (replication 2) with
/// injected peer-link delays. Ingest with monotone watermarks, kill an
/// owner, require a degraded partial read with accurate coverage,
/// restart the owner from its shutdown snapshot and require the
/// cluster to heal to bit-identity with a single-node baseline —
/// while every link's replay history stays bounded.
fn federated_outage(s: &mut Soak, round: usize, scale: usize, seed: u64) {
    let schema = SMALL;
    let stream = perturbed_stream(schema, 2_400 * scale, seed);
    let baseline = single_node_estimates(schema, &stream, 150);

    let base = temp_dir("fed");
    let ports = free_ports(3);
    let peers: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let configs: Vec<ServiceConfig> = peers
        .iter()
        .enumerate()
        .map(|(node, addr)| {
            let mut c = ServiceConfig::with_addr(addr.clone()).with_peers(peers.clone(), node, 2);
            c.persist_dir = Some(base.join(format!("node{node}")));
            c.connect_timeout_ms = 2_000;
            c.read_timeout_ms = 5_000;
            // Fast breaker cycles so the heal probe fires within the
            // soak budget, plus small injected link delays so the
            // retry path is continuously exercised.
            c.breaker_threshold = 2;
            c.breaker_cooldown_ms = 100;
            c.fault_plan =
                FaultPlan::parse(&format!("seed={seed},peer_send=delay(1):0.1")).unwrap();
            c
        })
        .collect();
    let mut handles: Vec<Option<ServerHandle>> = configs
        .iter()
        .map(|c| Some(Server::bind(c.clone()).unwrap().spawn().unwrap()))
        .collect();

    // Create through node 0; read through a non-owner coordinator so
    // the outage hits a remote partition, not the local one.
    let mut boot = Client::connect(handles[0].as_ref().unwrap().addr()).unwrap();
    let session = boot.create_session(&spec(schema, 2, 0x5EED)).unwrap();
    let topology = frapp_fed::Topology::new(peers.clone(), 0, 2).unwrap();
    let owners = topology.owners(session);
    let victim = owners[0];
    let coordinator = (0..3).find(|n| !owners.contains(n)).unwrap();
    drop(boot);

    let mut client = Client::connect(handles[coordinator].as_ref().unwrap().addr()).unwrap();
    let mut acked = 0u64;
    let mut submitted = 0u64;
    for (b, chunk) in stream.chunks(150).enumerate() {
        client.submit_nowait(session, chunk, true).unwrap();
        submitted += chunk.len() as u64;
        if b % 4 == 3 {
            acked += client.flush().unwrap();
            s.check("federated_outage", acked <= submitted, || {
                format!("watermark {acked} overtook submissions {submitted}")
            });
        }
    }
    acked += client.flush().unwrap();
    s.check("federated_outage", acked == submitted, || {
        format!("final watermark {acked} != submitted {submitted} (lost or duplicated acks)")
    });

    // Replay history must stay bounded on every node's links.
    let mut max_history = 0u64;
    for h in handles.iter().flatten() {
        let mut c = Client::connect(h.addr()).unwrap();
        for peer in c.federation_metrics().unwrap() {
            max_history = max_history.max(peer.get(PeerCounter::HistoryBatches));
            s.check(
                "federated_outage",
                peer.get(PeerCounter::HistoryBatches) < HISTORY_BOUND,
                || {
                    format!(
                        "link to {} holds {} replay batches (bound {})",
                        peer.addr,
                        peer.get(PeerCounter::HistoryBatches),
                        HISTORY_BOUND
                    )
                },
            );
        }
    }

    // Kill one owner (clean shutdown: it snapshots its partition).
    handles[victim].take().unwrap().shutdown().unwrap();
    let strict = client.reconstruct(session, ReconstructionMethod::ClosedForm, false);
    s.check("federated_outage", strict.is_err(), || {
        "strict read succeeded with an owner down".to_string()
    });
    let (rec, coverage) = client
        .reconstruct_partial(session, ReconstructionMethod::ClosedForm, false)
        .unwrap();
    match coverage {
        Some(cov) => {
            s.check(
                "federated_outage",
                cov.owners_total == 2 && cov.owners_reachable == 1,
                || {
                    format!(
                        "coverage {}/{} after one of two owners died",
                        cov.owners_reachable, cov.owners_total
                    )
                },
            );
            s.check(
                "federated_outage",
                cov.missing.iter().any(|(node, _)| *node == victim),
                || {
                    format!(
                        "coverage blames {:?}, victim was node {victim}",
                        cov.missing
                    )
                },
            );
        }
        None => s.check("federated_outage", false, || {
            "degraded read was not labelled degraded".to_string()
        }),
    }
    s.check(
        "federated_outage",
        rec.n > 0 && (rec.n as usize) < stream.len(),
        || {
            format!(
                "degraded read covered {} of {} records",
                rec.n,
                stream.len()
            )
        },
    );

    // Restart the owner from its shutdown snapshot; the coordinator's
    // breaker half-opens after its cooldown and the cluster heals.
    handles[victim] = Some(
        Server::bind(configs[victim].clone())
            .unwrap()
            .spawn()
            .unwrap(),
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut healed = None;
    while Instant::now() < deadline {
        if let Ok(rec) = client.reconstruct(session, ReconstructionMethod::ClosedForm, false) {
            if rec.n as usize == stream.len() {
                healed = Some(rec);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    match healed {
        Some(rec) => s.check("federated_outage", rec.estimates == baseline, || {
            "healed reconstruction is not bit-identical to the single-node baseline".to_string()
        }),
        None => s.check("federated_outage", false, || {
            "cluster failed to heal within 30s of the owner restarting".to_string()
        }),
    }
    let (_, coverage) = client
        .reconstruct_partial(session, ReconstructionMethod::ClosedForm, false)
        .unwrap();
    s.check("federated_outage", coverage.is_none(), || {
        "healed cluster still reports partial coverage".to_string()
    });

    for h in handles.iter_mut().filter_map(Option::take) {
        let _ = h.shutdown();
    }
    let _ = std::fs::remove_dir_all(&base);
    s.record(
        "federated_outage",
        round,
        vec![
            kv("records", submitted),
            kv("victim", victim),
            kv("coordinator", coordinator),
            kv("max_history_batches", max_history),
        ],
    );
}

// ---------------------------------------------------------------- main

fn write_report(
    soak: &Soak,
    quick: bool,
    seed: u64,
    rounds: usize,
    elapsed: Duration,
    out: Option<&String>,
) {
    use std::fmt::Write as _;
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut json = String::new();
    json.push_str("{\n  \"benchmark\": \"soak\",\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"elapsed_secs\": {:.2},", elapsed.as_secs_f64());
    json.push_str("  \"violations\": [\n");
    for (i, v) in soak.violations.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{}\"{}",
            esc(v),
            if i + 1 < soak.violations.len() {
                ","
            } else {
                ""
            }
        );
    }
    json.push_str("  ],\n  \"scenarios\": [\n");
    for (i, (name, details)) in soak.scenarios.iter().enumerate() {
        let _ = write!(json, "    {{\"name\": \"{name}\"");
        for (k, v) in details {
            // Values are numbers except the odd pre-formatted string.
            if v.parse::<f64>().is_ok() {
                let _ = write!(json, ", \"{k}\": {v}");
            } else {
                let _ = write!(json, ", \"{k}\": \"{}\"", esc(v));
            }
        }
        let _ = writeln!(
            json,
            "}}{}",
            if i + 1 < soak.scenarios.len() {
                ","
            } else {
                ""
            }
        );
    }
    json.push_str("  ]\n}\n");

    match out {
        Some(path) => {
            let mut file = std::fs::File::create(path).expect("create output file");
            std::io::Write::write_all(&mut file, json.as_bytes()).expect("write output file");
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let seed: u64 = flag("--seed").map_or(42, |v| v.parse().expect("--seed"));
    let duration_secs: u64 =
        flag("--duration-secs").map_or(60, |v| v.parse().expect("--duration-secs"));
    let out = flag("--out").cloned();
    let scale = if quick { 1 } else { 2 };

    let start = Instant::now();
    let mut soak = Soak::default();
    let mut rounds = 0usize;
    loop {
        let rseed = seed.wrapping_add(101 * rounds as u64);
        eprintln!("round {rounds} (seed {rseed})");
        eprintln!("  churn: session churn at the LRU cap");
        churn(&mut soak, rounds, scale, rseed);
        eprintln!("  skew_flood: hot-session pipelined flood");
        skew_flood(&mut soak, rounds, scale, rseed);
        eprintln!("  reconnect_storm: connect/submit/drop cycles");
        reconnect_storm(&mut soak, rounds, scale, rseed);
        eprintln!("  slow_reader: write backpressure");
        slow_reader(&mut soak, rounds, scale, rseed);
        eprintln!("  persist_faults: snapshots under injected IO faults");
        persist_faults(&mut soak, rounds, scale, rseed);
        eprintln!("  mining_churn: jobs racing session eviction and close");
        mining_churn(&mut soak, rounds, scale, rseed);
        eprintln!("  federated_outage: owner outage, degraded read, heal");
        federated_outage(&mut soak, rounds, scale, rseed);
        rounds += 1;
        if quick || start.elapsed() >= Duration::from_secs(duration_secs) {
            break;
        }
    }

    let elapsed = start.elapsed();
    write_report(&soak, quick, seed, rounds, elapsed, out.as_ref());
    if soak.violations.is_empty() {
        eprintln!(
            "soak: PASS — {} scenario run(s), 0 violations in {:.1}s",
            soak.scenarios.len(),
            elapsed.as_secs_f64()
        );
    } else {
        eprintln!(
            "soak: FAIL — {} violation(s) in {:.1}s",
            soak.violations.len(),
            elapsed.as_secs_f64()
        );
        std::process::exit(1);
    }
}
