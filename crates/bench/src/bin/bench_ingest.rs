//! In-process wire, fan-in and mining-interference reports, one per
//! mode flag (`--wire`, `--fanin`, `--mining`; add `--quick` for a
//! CI-friendly run, `--out PATH` to move the JSON). They stay until
//! `benchmark/` has a high-fan-in workload; everything else this file
//! used to time is a rung of `benchmark/run.sh --trace`.
//!
//! Usage: `cargo run --release -p frapp-bench --bin bench_ingest -- --wire`.
//!
//! With `--wire`, the benchmark measures *transport* cost
//! against a real loopback server and emits `BENCH_http.json` plus a
//! binary-framing summary in `BENCH_binary.json` (`--out-binary` to
//! move it): synchronous line-protocol submits (one round-trip per
//! batch) vs pipelined deferred-ack submits (one flush per stream) vs
//! the HTTP front-end vs the negotiated binary framing (sync,
//! pipelined, and fixed-width-cell pipelined), across small batch
//! sizes where per-batch latency dominates. This is the
//! latency-vs-throughput story the deferred-ack protocol and the
//! compact binary frames exist for.
//!
//! With `--mining`, it measures *submit-latency interference from
//! background mining* and emits `BENCH_mining.json`: a 1M-record
//! session (2^17 under `--quick`) is loaded, submit p99 is measured
//! idle, then re-measured while miner threads keep `mine_rules` jobs
//! at `min_support 0.001` continuously running on the job pool. The
//! acceptance bound — mining leaves submit p99 within 2x the idle
//! baseline (with a 1 ms absolute floor for few-core boxes where CPU
//! timeslicing, not queueing, dominates microsecond-scale p99s),
//! because jobs never execute on connection-serving threads — is
//! recorded in the JSON (`within_bound`).
//!
//! With `--fanin`, it measures *concurrent-connection fan-in*
//! and emits `BENCH_async.json`: N concurrent clients (64/256/1024)
//! over each framing (pipelined line protocol, pipelined binary,
//! synchronous HTTP) against the thread-per-connection front-end vs
//! the `--async` reactor. The interesting column is connections per
//! service thread: thread-per-connection burns one OS thread (stack,
//! scheduler slot) per client by construction, while the reactor
//! multiplexes every connection onto a fixed pool of event-loop
//! threads at comparable aggregate throughput — that per-thread
//! fan-in ratio is what lets the reactor hold ten thousand mostly-idle
//! collection clients without ten thousand stacks.

use frapp_core::Schema;
use frapp_service::wire::Counter;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

const GAMMA: f64 = 19.0;

fn schema() -> Schema {
    // The 500-cell domain the service benches use.
    Schema::new(vec![("a", 10), ("b", 10), ("c", 5)]).expect("static schema")
}

/// Raw (unperturbed) client records, skewed like a real submission mix.
fn raw_records(n: usize) -> Vec<Vec<u32>> {
    (0..n)
        .map(|i| vec![(i % 3) as u32, (i % 7) as u32, (i % 5) as u32])
        .collect()
}

/// One transport measurement for the `--wire` mode: create a session,
/// stream `records` in `batch`-sized submits, confirm the count landed,
/// close. Returns wall-clock seconds for the ingest portion.
mod wire {
    use super::*;
    use frapp_service::client::{Client, HttpClient, SessionSpec};
    use frapp_service::session::Mechanism;
    use frapp_service::ServerHandle;

    fn spec() -> SessionSpec {
        SessionSpec {
            schema: vec![("a".into(), 10), ("b".into(), 10), ("c".into(), 5)],
            mechanism: Mechanism::Deterministic { gamma: GAMMA },
            shards: Some(1),
            seed: Some(7),
        }
    }

    /// Sync line protocol: one request/response round-trip per batch.
    pub fn tcp_sync(handle: &ServerHandle, records: &[Vec<u32>], batch: usize) -> f64 {
        let mut client = Client::connect(handle.addr()).expect("connect");
        let session = client.create_session(&spec()).expect("create");
        let t0 = Instant::now();
        for b in records.chunks(batch) {
            client.submit_batch(session, b, true).expect("submit");
        }
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(
            client.stats(session).expect("stats").total,
            records.len() as u64
        );
        client.close_session(session).expect("close");
        elapsed
    }

    /// Pipelined line protocol: deferred acks, one flush at the end.
    pub fn tcp_pipelined(handle: &ServerHandle, records: &[Vec<u32>], batch: usize) -> f64 {
        let mut client = Client::connect(handle.addr()).expect("connect");
        let session = client.create_session(&spec()).expect("create");
        let t0 = Instant::now();
        for b in records.chunks(batch) {
            client.submit_nowait(session, b, true).expect("submit");
        }
        let accepted = client.flush().expect("flush");
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(accepted, records.len() as u64);
        client.close_session(session).expect("close");
        elapsed
    }

    /// HTTP front-end: one POST round-trip per batch (keep-alive).
    pub fn http(handle: &ServerHandle, records: &[Vec<u32>], batch: usize) -> f64 {
        let mut client =
            HttpClient::connect(handle.http_addr().expect("http enabled")).expect("connect");
        let session = client.create_session(&spec()).expect("create");
        let t0 = Instant::now();
        for b in records.chunks(batch) {
            client.submit_batch(session, b, true).expect("submit");
        }
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(
            client.stats(session).expect("stats").total,
            records.len() as u64
        );
        client.close_session(session).expect("close");
        elapsed
    }

    /// Binary framing, synchronous: negotiated upgrade, then one
    /// `OP_SUBMIT` frame and one response frame per batch.
    pub fn binary_sync(handle: &ServerHandle, records: &[Vec<u32>], batch: usize) -> f64 {
        let mut client = Client::connect(handle.addr()).expect("connect");
        client.negotiate_binary().expect("negotiate");
        let session = client.create_session(&spec()).expect("create");
        let t0 = Instant::now();
        for b in records.chunks(batch) {
            client.submit_batch(session, b, true).expect("submit");
        }
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(
            client.stats(session).expect("stats").total,
            records.len() as u64
        );
        client.close_session(session).expect("close");
        elapsed
    }

    /// Binary framing, pipelined: deferred `OP_SUBMIT` frames (no
    /// per-batch response), one flush at the end.
    pub fn binary_pipelined(handle: &ServerHandle, records: &[Vec<u32>], batch: usize) -> f64 {
        binary_pipelined_inner(handle, records, batch, false)
    }

    /// Binary framing, pipelined, with `FIXED32` cells: trades frame
    /// size for branch-free cell decoding on the server.
    pub fn binary_pipelined_fixed32(
        handle: &ServerHandle,
        records: &[Vec<u32>],
        batch: usize,
    ) -> f64 {
        binary_pipelined_inner(handle, records, batch, true)
    }

    fn binary_pipelined_inner(
        handle: &ServerHandle,
        records: &[Vec<u32>],
        batch: usize,
        fixed32: bool,
    ) -> f64 {
        let mut client = Client::connect(handle.addr()).expect("connect");
        client.negotiate_binary().expect("negotiate");
        client.set_binary_fixed32(fixed32);
        let session = client.create_session(&spec()).expect("create");
        let t0 = Instant::now();
        for b in records.chunks(batch) {
            client.submit_nowait(session, b, true).expect("submit");
        }
        let accepted = client.flush().expect("flush");
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(accepted, records.len() as u64);
        client.close_session(session).expect("close");
        elapsed
    }
}

/// The `--mining` mode: the job-subsystem acceptance measurement →
/// `BENCH_mining.json`. Submit p99 over a loaded session, idle vs
/// while the job pool continuously runs `mine_rules` at
/// `min_support 0.001` — the dispatch arm only validates and enqueues,
/// so the interference bound is 2x.
fn run_mining(quick: bool, out_path: &str) {
    use frapp_service::client::{Client, SessionSpec};
    use frapp_service::json::Value;
    use frapp_service::session::Mechanism;
    use frapp_service::{MineAlgo, MineSpec, Server, ServiceConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    let n: usize = if quick { 1 << 17 } else { 1 << 20 };
    let probes: usize = if quick { 1_000 } else { 2_000 };
    let batch = 100usize;

    let handle = Server::bind(ServiceConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let session = client
        .create_session(&SessionSpec {
            schema: vec![("a".into(), 10), ("b".into(), 10), ("c".into(), 5)],
            mechanism: Mechanism::Deterministic { gamma: GAMMA },
            shards: Some(4),
            seed: Some(7),
        })
        .expect("create");

    // Load the corpus pipelined; pre-perturbed, because the load is
    // setup, not the measurement.
    let records = raw_records(n);
    for b in records.chunks(4096) {
        client.submit_nowait(session, b, true).expect("load submit");
    }
    assert_eq!(client.flush().expect("flush"), n as u64);

    let p99_us = |client: &mut Client| -> f64 {
        let mut lat: Vec<f64> = (0..probes)
            .map(|i| {
                let b = &records[(i * batch) % (n - batch)..][..batch];
                let t0 = Instant::now();
                client.submit_batch(session, b, true).expect("probe submit");
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        lat.sort_by(f64::total_cmp);
        lat[lat.len() * 99 / 100]
    };

    let idle_p99 = p99_us(&mut client);
    eprintln!("idle submit p99: {idle_p99:.0} µs (batch={batch}, n={n})");

    // Keep the pool saturated for the whole measured window: one miner
    // thread per job worker, resubmitting as soon as a job finishes.
    let stop = AtomicBool::new(false);
    let addr = handle.addr();
    let (mining_p99, jobs_completed) = std::thread::scope(|scope| {
        let miners: Vec<_> = (0..2)
            .map(|m| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut mc = Client::connect(addr).expect("miner connect");
                    let spec = MineSpec {
                        algo: if m == 0 {
                            MineAlgo::Apriori
                        } else {
                            MineAlgo::FpGrowth
                        },
                        min_support: 0.001,
                        min_confidence: 0.5,
                        max_length: 0,
                    };
                    let mut jobs = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let job = mc.mine_rules(session, &spec).expect("mine submit");
                        let status = mc
                            .wait_job(job, Duration::from_secs(60))
                            .expect("mine wait");
                        assert_eq!(
                            status.get("state").and_then(Value::as_str),
                            Some("done"),
                            "mining job did not complete"
                        );
                        jobs += 1;
                    }
                    jobs
                })
            })
            .collect();
        let p99 = p99_us(&mut client);
        stop.store(true, Ordering::Relaxed);
        let jobs: u64 = miners.into_iter().map(|h| h.join().unwrap()).sum();
        (p99, jobs)
    });
    handle.shutdown().expect("shutdown");

    let ratio = mining_p99 / idle_p99;
    // The bound the job architecture is accountable for: a submit is
    // never queued behind a mining pass (which takes seconds), so p99
    // stays within 2x idle — or within an absolute 1 ms floor on boxes
    // where the idle p99 is tens of microseconds and raw CPU
    // timeslicing against the mining workers (not queueing) dominates.
    // On a few-core machine the floor is what binds; on a wide box the
    // 2x ratio does.
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let floor_us = 1_000.0;
    let bound_us = (2.0 * idle_p99).max(floor_us);
    let within_bound = mining_p99 <= bound_us;
    eprintln!(
        "submit p99 under mining: {mining_p99:.0} µs ({ratio:.2}x idle, bound {bound_us:.0} µs, \
         {jobs_completed} jobs completed during the window)"
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"service_mining_interference\",");
    let _ = writeln!(json, "  \"records\": {n},");
    let _ = writeln!(json, "  \"probe_batches\": {probes},");
    let _ = writeln!(json, "  \"batch\": {batch},");
    let _ = writeln!(json, "  \"min_support\": 0.001,");
    let _ = writeln!(json, "  \"cpus\": {cpus},");
    let _ = writeln!(json, "  \"idle_submit_p99_us\": {idle_p99:.1},");
    let _ = writeln!(json, "  \"mining_submit_p99_us\": {mining_p99:.1},");
    let _ = writeln!(json, "  \"p99_ratio\": {ratio:.3},");
    let _ = writeln!(json, "  \"bound_us\": {bound_us:.1},");
    let _ = writeln!(json, "  \"jobs_completed_in_window\": {jobs_completed},");
    let _ = writeln!(
        json,
        "  \"note\": \"bound is max(2x idle, 1ms): on few-core boxes CPU timeslicing \
         against the mining workers, not queueing, sets the microsecond-scale p99\","
    );
    let _ = writeln!(json, "  \"within_bound\": {within_bound}");
    json.push_str("}\n");
    let mut file = std::fs::File::create(out_path).expect("create output file");
    file.write_all(json.as_bytes()).expect("write output file");
    eprintln!("wrote {out_path}");
}

/// The `--fanin` mode: concurrent-connection fan-in, thread-per-
/// connection vs the async reactor → `BENCH_async.json`.
fn run_fanin(quick: bool, out_path: &str) {
    use frapp_service::client::{Client, HttpClient, SessionSpec};
    use frapp_service::session::Mechanism;
    use frapp_service::{Server, ServiceConfig};
    use std::sync::Barrier;

    let levels: &[usize] = if quick { &[16, 64] } else { &[64, 256, 1024] };
    // Fixed record budget per run so every measurement window is long
    // enough to swamp thread wake-up jitter (a per-client constant
    // would make the 64-client runs sub-millisecond); best-of-reps is
    // the same noise filter the other modes use.
    let (total_records, reps) = if quick { (200_000, 2) } else { (2_000_000, 3) };
    let batch = 20usize;
    const REACTOR_THREADS: usize = 2;
    // Pipelined framings stream deferred submits with one flush per
    // rep; HTTP is one round-trip per batch by construction, which is
    // exactly the comparison the framing column exists to show.
    let framings: &[&'static str] = &["line", "binary", "http"];

    struct FaninRun {
        front_end: &'static str,
        framing: &'static str,
        clients: usize,
        records_per_client: usize,
        records_per_sec: f64,
        accepted_connections: u64,
        sheds: u64,
        service_threads: usize,
    }
    let mut runs: Vec<FaninRun> = Vec::new();

    for (front_end, async_mode) in [("threaded", false), ("async", true)] {
        for &framing in framings {
            for &clients in levels {
                let batches = (total_records / clients).div_ceil(batch);
                let per_client = batches * batch;
                // A fresh server per level so the accepted-connection
                // counter is exactly this level's fan-in. The cap is the
                // same for both front-ends and comfortably above every
                // level — including the window where a new rep's
                // connections overlap the previous rep's still-closing
                // workers: the measurement is fan-in capacity, not
                // shedding.
                let mut config = ServiceConfig {
                    max_connections: 4096,
                    ..ServiceConfig::default()
                }
                .with_http_addr("127.0.0.1:0");
                if async_mode {
                    config = config.with_reactor(REACTOR_THREADS);
                }
                let handle = Server::bind(config).expect("bind").spawn().expect("spawn");
                let addr = handle.addr();
                let http_addr = handle.http_addr().expect("http enabled");
                let mut control = Client::connect(addr).expect("connect");
                let session = control
                    .create_session(&SessionSpec {
                        schema: vec![("a".into(), 10), ("b".into(), 10), ("c".into(), 5)],
                        mechanism: Mechanism::Deterministic { gamma: GAMMA },
                        shards: Some(4),
                        seed: Some(7),
                    })
                    .expect("create");

                let mut best_elapsed = f64::MAX;
                for _ in 0..reps {
                    // Connect everyone first, then start the clock
                    // together: the measurement is steady-state fan-in
                    // throughput, not connect-storm handling.
                    let barrier = Barrier::new(clients + 1);
                    let t0 = std::thread::scope(|scope| {
                        for c in 0..clients {
                            let barrier = &barrier;
                            scope.spawn(move || {
                                let records: Vec<Vec<u32>> = (0..batch)
                                    .map(|i| {
                                        vec![((c + i) % 10) as u32, (i % 10) as u32, (i % 5) as u32]
                                    })
                                    .collect();
                                if framing == "http" {
                                    let mut client = loop {
                                        match HttpClient::connect(http_addr) {
                                            Ok(cl) => break cl,
                                            // Backlog overflow under the
                                            // connect storm; retry until
                                            // admitted.
                                            Err(_) => std::thread::sleep(
                                                std::time::Duration::from_millis(5),
                                            ),
                                        }
                                    };
                                    barrier.wait();
                                    for _ in 0..batches {
                                        client
                                            .submit_batch(session, &records, true)
                                            .expect("submit");
                                    }
                                    return;
                                }
                                let mut client = loop {
                                    match Client::connect(addr) {
                                        Ok(cl) => break cl,
                                        // Backlog overflow under the connect
                                        // storm; retry until admitted.
                                        Err(_) => {
                                            std::thread::sleep(std::time::Duration::from_millis(5))
                                        }
                                    }
                                };
                                if framing == "binary" {
                                    client.negotiate_binary().expect("negotiate");
                                }
                                barrier.wait();
                                for _ in 0..batches {
                                    client
                                        .submit_nowait(session, &records, true)
                                        .expect("submit");
                                }
                                let accepted = client.flush().expect("flush");
                                assert_eq!(accepted, (batches * batch) as u64);
                            });
                        }
                        barrier.wait();
                        Instant::now()
                    });
                    best_elapsed = best_elapsed.min(t0.elapsed().as_secs_f64());
                }
                let total = (clients * per_client * reps) as u64;
                assert_eq!(control.stats(session).expect("stats").total, total);
                let report = control.server_metrics().expect("metrics");
                assert_eq!(report.get(Counter::Sheds), 0, "no sheds below the cap");
                let rps = (clients * per_client) as f64 / best_elapsed;
                // Thread-per-connection spends one worker thread per
                // admitted client; the reactor spends its fixed event-loop
                // threads however many clients connect.
                let service_threads = if async_mode { REACTOR_THREADS } else { clients };
                let accepted_connections = if framing == "http" {
                    report.get(Counter::HttpConnections)
                } else {
                    report.get(Counter::TcpConnections)
                };
                eprintln!(
                    "{front_end}/{framing} clients={clients}: {rps:.0} rec/s, \
                     {accepted_connections} conns / {service_threads} service thread(s)",
                );
                runs.push(FaninRun {
                    front_end,
                    framing,
                    clients,
                    records_per_client: per_client,
                    records_per_sec: rps,
                    accepted_connections,
                    sheds: report.get(Counter::Sheds),
                    service_threads,
                });
                handle.shutdown().expect("shutdown");
            }
        }
    }

    let find = |front_end: &str, framing: &str, clients: usize| {
        runs.iter()
            .find(|r| r.front_end == front_end && r.framing == framing && r.clients == clients)
            .expect("run present")
    };
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"service_fanin\",");
    let _ = writeln!(json, "  \"records_per_run\": {total_records},");
    let _ = writeln!(json, "  \"reps_best_of\": {reps},");
    let _ = writeln!(json, "  \"reactor_threads\": {REACTOR_THREADS},");
    let _ = writeln!(json, "  \"max_connections\": 4096,");
    let _ = writeln!(
        json,
        "  \"cpus\": {},",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    // On a 1-CPU box the N client threads ARE the load generator and
    // compete with the server for the same core, so the throughput
    // ratio under-reports the reactor (1 runnable server thread vs N
    // for thread-per-connection under fair scheduling); the structural
    // result is the fan-in column.
    let _ = writeln!(
        json,
        "  \"note\": \"loopback run; clients share the machine — on few-core boxes \
         fair scheduling starves the single reactor thread relative to N connection \
         threads, so throughput_async_vs_threaded is a lower bound\","
    );
    json.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"front_end\": \"{}\", \"framing\": \"{}\", \"clients\": {}, \
             \"records_per_client\": {}, \"records_per_sec\": {:.0}, \
             \"accepted_connections\": {}, \"sheds\": {}, \"service_threads\": {}}}{}",
            r.front_end,
            r.framing,
            r.clients,
            r.records_per_client,
            r.records_per_sec,
            r.accepted_connections,
            r.sheds,
            r.service_threads,
            if i + 1 < runs.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    // Headline 1: concurrent-connection fan-in per service thread —
    // the resource the reactor exists to conserve. Framing-independent
    // (same thread accounting on every framing), so computed from the
    // line-protocol runs. `clients` is the concurrent fan-in each run
    // sustained (the accepted_connections counter is cumulative across
    // reps and includes the control connection).
    json.push_str("  \"fan_in_per_service_thread\": {\n");
    for (i, &clients) in levels.iter().enumerate() {
        let threaded = find("threaded", "line", clients);
        let async_run = find("async", "line", clients);
        let _ = writeln!(
            json,
            "    \"{clients}\": {{\"threaded\": {:.1}, \"async\": {:.1}, \"ratio\": {:.1}}}{}",
            clients as f64 / threaded.service_threads as f64,
            clients as f64 / async_run.service_threads as f64,
            (clients as f64 / async_run.service_threads as f64)
                / (clients as f64 / threaded.service_threads as f64),
            if i + 1 < levels.len() { "," } else { "" }
        );
    }
    json.push_str("  },\n");
    // Headline 2: the fan-in is not bought with throughput — aggregate
    // records/sec at equal client count and connection cap, per
    // framing.
    json.push_str("  \"throughput_async_vs_threaded\": {\n");
    for (fi, &framing) in framings.iter().enumerate() {
        let _ = writeln!(json, "    \"{framing}\": {{");
        for (i, &clients) in levels.iter().enumerate() {
            let _ = writeln!(
                json,
                "      \"{clients}\": {:.2}{}",
                find("async", framing, clients).records_per_sec
                    / find("threaded", framing, clients).records_per_sec,
                if i + 1 < levels.len() { "," } else { "" }
            );
        }
        let _ = writeln!(
            json,
            "    }}{}",
            if fi + 1 < framings.len() { "," } else { "" }
        );
    }
    json.push_str("  }\n}\n");

    let mut file = std::fs::File::create(out_path).expect("create output file");
    file.write_all(json.as_bytes()).expect("write output file");
    eprintln!("wrote {out_path}");
}

/// The `--wire` mode: loopback transport comparison → `BENCH_http.json`
/// plus the binary-framing summary → `BENCH_binary.json`.
fn run_wire(quick: bool, out_path: &str, out_binary_path: &str) {
    use frapp_service::{Server, ServiceConfig};

    let total = if quick { 1 << 14 } else { 1 << 16 };
    let reps = if quick { 3 } else { 5 };
    // Pre-perturbed records: the session-side work is a plain counter
    // increment, so the measurement isolates framing + round-trips.
    let records = raw_records(total);
    let batches = [16usize, 64, 256];

    let handle = Server::bind(ServiceConfig::default().with_http_addr("127.0.0.1:0"))
        .expect("bind")
        .spawn()
        .expect("spawn");

    struct WireRun {
        transport: &'static str,
        batch: usize,
        records_per_sec: f64,
    }
    type WireBench = fn(&frapp_service::ServerHandle, &[Vec<u32>], usize) -> f64;
    let transports: [(&'static str, WireBench); 6] = [
        ("tcp_sync", wire::tcp_sync),
        ("tcp_pipelined", wire::tcp_pipelined),
        ("http", wire::http),
        ("binary_sync", wire::binary_sync),
        ("binary_pipelined", wire::binary_pipelined),
        ("binary_pipelined_fixed32", wire::binary_pipelined_fixed32),
    ];
    let mut runs: Vec<WireRun> = Vec::new();
    for &batch in &batches {
        for (name, bench) in transports {
            let secs = (0..reps)
                .map(|_| bench(&handle, &records, batch))
                .fold(f64::MAX, f64::min);
            let rps = total as f64 / secs;
            eprintln!("batch={batch} {name}: {rps:.0} rec/s");
            runs.push(WireRun {
                transport: name,
                batch,
                records_per_sec: rps,
            });
        }
    }
    handle.shutdown().expect("shutdown");

    let rate = |transport: &str, batch: usize| -> f64 {
        runs.iter()
            .find(|r| r.transport == transport && r.batch == batch)
            .map(|r| r.records_per_sec)
            .unwrap_or(f64::NAN)
    };

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"service_wire\",");
    let _ = writeln!(json, "  \"schema_domain\": {},", schema().domain_size());
    let _ = writeln!(json, "  \"records_per_run\": {total},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"transport\": \"{}\", \"batch\": {}, \"records_per_sec\": {:.0}}}{}",
            r.transport,
            r.batch,
            r.records_per_sec,
            if i + 1 < runs.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"speedup_pipelined_vs_sync\": {\n");
    for (i, &batch) in batches.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{batch}\": {:.2}{}",
            rate("tcp_pipelined", batch) / rate("tcp_sync", batch),
            if i + 1 < batches.len() { "," } else { "" }
        );
    }
    json.push_str("  }\n}\n");

    let mut file = std::fs::File::create(out_path).expect("create output file");
    file.write_all(json.as_bytes()).expect("write output file");
    eprintln!("wrote {out_path}");

    // The binary-framing summary: same measurement pass, but the
    // headline the binary protocol is accountable for — throughput
    // against the best *JSON* path at the same batch size.
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"service_wire_binary\",");
    let _ = writeln!(json, "  \"schema_domain\": {},", schema().domain_size());
    let _ = writeln!(json, "  \"records_per_run\": {total},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"runs\": [\n");
    let binary_runs: Vec<&WireRun> = runs
        .iter()
        .filter(|r| r.transport.starts_with("binary"))
        .collect();
    for (i, r) in binary_runs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"transport\": \"{}\", \"batch\": {}, \"records_per_sec\": {:.0}}}{}",
            r.transport,
            r.batch,
            r.records_per_sec,
            if i + 1 < binary_runs.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"speedup_binary_pipelined_vs_json_pipelined\": {\n");
    for (i, &batch) in batches.iter().enumerate() {
        let best_binary =
            rate("binary_pipelined", batch).max(rate("binary_pipelined_fixed32", batch));
        let _ = writeln!(
            json,
            "    \"{batch}\": {:.2}{}",
            best_binary / rate("tcp_pipelined", batch),
            if i + 1 < batches.len() { "," } else { "" }
        );
    }
    json.push_str("  },\n");
    json.push_str("  \"speedup_binary_sync_vs_http\": {\n");
    for (i, &batch) in batches.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{batch}\": {:.2}{}",
            rate("binary_sync", batch) / rate("http", batch),
            if i + 1 < batches.len() { "," } else { "" }
        );
    }
    json.push_str("  }\n}\n");

    let mut file = std::fs::File::create(out_binary_path).expect("create output file");
    file.write_all(json.as_bytes()).expect("write output file");
    eprintln!("wrote {out_binary_path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let wire_mode = args.iter().any(|a| a == "--wire");
    let fanin_mode = args.iter().any(|a| a == "--fanin");
    let mining_mode = args.iter().any(|a| a == "--mining");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            if mining_mode {
                "BENCH_mining.json".to_owned()
            } else if fanin_mode {
                "BENCH_async.json".to_owned()
            } else {
                "BENCH_http.json".to_owned()
            }
        });
    if mining_mode {
        return run_mining(quick, &out_path);
    }
    if fanin_mode {
        return run_fanin(quick, &out_path);
    }
    if wire_mode {
        let out_binary_path = args
            .iter()
            .position(|a| a == "--out-binary")
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| "BENCH_binary.json".to_owned());
        return run_wire(quick, &out_path, &out_binary_path);
    }

    eprintln!("usage: bench_ingest --wire|--fanin|--mining [--quick] [--out PATH]");
    std::process::exit(2);
}
