//! `frapp-client` — load generator and operations CLI for the FRAPP
//! collection server.
//!
//! ```text
//! frapp-client [load] [--addr 127.0.0.1:7878] [--records 100000]
//!              [--batch 1000] [--threads 4] [--gamma 19] [--seed 11]
//!              [--pre-perturb] [--pipeline] [--http] [--binary]
//! frapp-client list    [--addr HOST:PORT] [--http]
//! frapp-client metrics [--addr HOST:PORT] [--http] --session N
//! frapp-client server-metrics [--addr HOST:PORT] [--http]
//! frapp-client cluster-status [--addr HOST:PORT] [--http]
//! frapp-client persist [--addr HOST:PORT] [--http] [--session N]
//! frapp-client mine    [--addr HOST:PORT] [--http|--binary] --session N
//!                      [--algo apriori|fpgrowth] [--min-support F]
//!                      [--min-confidence F] [--max-length N]
//!                      [--no-wait] [--timeout-secs S]
//! frapp-client jobs    [--addr HOST:PORT] [--http|--binary]
//!                      [--job N [--cancel]]
//! ```
//!
//! The default `load` subcommand generates a synthetic CENSUS-like
//! workload (the paper's Table 1 schema), streams it to the server from
//! `--threads` concurrent connections, then issues a reconstruction
//! query and reports ingest throughput plus the total-variation
//! distance between the reconstructed and the true distribution.
//!
//! With `--pre-perturb` the *client* perturbs each record before
//! submission — the paper's actual trust model, where the server never
//! sees a raw record. Without it, records are submitted raw and the
//! server perturbs on ingest (useful for benchmarking the server-side
//! sampler).
//!
//! With `--pipeline`, submit batches use deferred acknowledgements
//! (`"ack":"deferred"`) and each worker flushes once at the end of its
//! stream: no round-trip per batch, which dominates throughput at
//! small batch sizes over real networks. With `--http`, requests go to
//! the HTTP front-end instead of the line protocol (`--addr` then
//! names the server's `--http-addr`); pipelining is a line-protocol
//! feature, so the two flags are mutually exclusive.
//!
//! With `--binary`, every connection upgrades to the compact binary
//! framing (`docs/PROTOCOL.md` §6) after connecting: submits go out as
//! binary `OP_SUBMIT` frames (no JSON on the ingest path) and every
//! other op tunnels through `OP_JSON` frames. Binary rides the line
//! protocol, so `--binary` and `--http` are mutually exclusive;
//! `--binary --pipeline` combines deferred acks with binary frames —
//! the fastest wire path.
//!
//! `list` prints one summary line per live session; `metrics` prints a
//! session's ingest counters and query-latency histogram;
//! `server-metrics` prints every server-wide counter of
//! `frapp_service::wire::COUNTERS` (transport, jobs, reactor) and — on
//! a federated server — every per-peer replication counter of
//! `PEER_COUNTERS`; `cluster-status` prints the federation topology with
//! per-peer liveness; `persist` asks the server to snapshot one (or
//! all) sessions to its persistence directory.
//!
//! `mine` submits a `mine_rules` background job against a live
//! session, then polls until the job reaches a terminal state and
//! prints the association rules (skip the wait with `--no-wait`; the
//! job keeps running server-side and `jobs` can pick it up later).
//! `jobs` lists every retained job; `jobs --job N` prints one job's
//! status (plus its result when done), and `jobs --job N --cancel`
//! requests cooperative cancellation. All three framings work: plain
//! line-JSON, `--http` REST routes, or `--binary` (job ops tunnel
//! through `OP_JSON` frames).

use frapp_core::perturb::{GammaDiagonal, Perturber};
use frapp_service::client::{job_status_is_terminal, Client, HttpClient, SessionSpec};
use frapp_service::json::Value;
use frapp_service::session::ReconstructionMethod;
use frapp_service::wire::{PeerCounter, COUNTERS, PEER_COUNTERS};
use frapp_service::{MineAlgo, MineSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    records: usize,
    batch: usize,
    threads: usize,
    gamma: f64,
    seed: u64,
    pre_perturb: bool,
    pipeline: bool,
    http: bool,
    binary: bool,
    session: Option<u64>,
    mine_spec: MineSpec,
    job: Option<u64>,
    cancel: bool,
    no_wait: bool,
    timeout_secs: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: frapp-client [load] [--addr HOST:PORT] [--records N] [--batch B] \
         [--threads T] [--gamma G] [--seed S] [--pre-perturb] [--pipeline] [--http] [--binary]\n\
         \x20      frapp-client list    [--addr HOST:PORT] [--http]\n\
         \x20      frapp-client metrics [--addr HOST:PORT] [--http] --session N\n\
         \x20      frapp-client server-metrics [--addr HOST:PORT] [--http]\n\
         \x20      frapp-client cluster-status [--addr HOST:PORT] [--http]\n\
         \x20      frapp-client persist [--addr HOST:PORT] [--http] [--session N]\n\
         \x20      frapp-client mine    [--addr HOST:PORT] [--http|--binary] --session N \
         [--algo apriori|fpgrowth] [--min-support F] [--min-confidence F] \
         [--max-length N] [--no-wait] [--timeout-secs S]\n\
         \x20      frapp-client jobs    [--addr HOST:PORT] [--http|--binary] [--job N [--cancel]]"
    );
    std::process::exit(2);
}

fn parse_args(args: impl Iterator<Item = String>) -> Args {
    let mut parsed = Args {
        addr: "127.0.0.1:7878".into(),
        records: 100_000,
        batch: 1_000,
        threads: 4,
        gamma: 19.0,
        seed: 11,
        pre_perturb: false,
        pipeline: false,
        http: false,
        binary: false,
        session: None,
        mine_spec: MineSpec::default(),
        job: None,
        cancel: false,
        no_wait: false,
        timeout_secs: 300,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => parsed.addr = value("--addr"),
            "--records" => parsed.records = value("--records").parse().unwrap_or_else(|_| usage()),
            "--batch" => parsed.batch = value("--batch").parse().unwrap_or_else(|_| usage()),
            "--threads" => parsed.threads = value("--threads").parse().unwrap_or_else(|_| usage()),
            "--gamma" => parsed.gamma = value("--gamma").parse().unwrap_or_else(|_| usage()),
            "--seed" => parsed.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--session" => {
                parsed.session = Some(value("--session").parse().unwrap_or_else(|_| usage()))
            }
            "--algo" => {
                parsed.mine_spec.algo = MineAlgo::from_wire(&value("--algo")).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--min-support" => {
                parsed.mine_spec.min_support =
                    value("--min-support").parse().unwrap_or_else(|_| usage())
            }
            "--min-confidence" => {
                parsed.mine_spec.min_confidence = value("--min-confidence")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--max-length" => {
                parsed.mine_spec.max_length =
                    value("--max-length").parse().unwrap_or_else(|_| usage())
            }
            "--job" => parsed.job = Some(value("--job").parse().unwrap_or_else(|_| usage())),
            "--timeout-secs" => {
                parsed.timeout_secs = value("--timeout-secs").parse().unwrap_or_else(|_| usage())
            }
            "--cancel" => parsed.cancel = true,
            "--no-wait" => parsed.no_wait = true,
            "--pre-perturb" => parsed.pre_perturb = true,
            "--pipeline" => parsed.pipeline = true,
            "--http" => parsed.http = true,
            "--binary" => parsed.binary = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if parsed.threads == 0 || parsed.batch == 0 || parsed.records == 0 {
        usage();
    }
    if parsed.pipeline && parsed.http {
        eprintln!("--pipeline is a line-protocol feature; drop --http to use it");
        usage();
    }
    if parsed.binary && parsed.http {
        eprintln!("--binary rides the line protocol; drop --http to use it");
        usage();
    }
    parsed
}

/// One connection over whichever transport `--http` selected.
enum AnyClient {
    Tcp(Box<Client>),
    Http(Box<HttpClient>),
}

/// Calls a typed method both clients have on whichever one is
/// connected: `on!(client.stats(session))`.
macro_rules! on {
    ($client:ident . $method:ident ( $($arg:expr),* )) => {
        match &mut $client {
            AnyClient::Tcp(c) => c.$method($($arg),*),
            AnyClient::Http(c) => c.$method($($arg),*),
        }
    };
}

impl AnyClient {
    fn connect(addr: &str, http: bool, binary: bool) -> AnyClient {
        let failed = |e: frapp_service::ServiceError| -> ! {
            eprintln!("frapp-client: cannot connect to {addr}: {e}");
            std::process::exit(1);
        };
        if http {
            match HttpClient::connect(addr) {
                Ok(c) => AnyClient::Http(Box::new(c)),
                Err(e) => failed(e),
            }
        } else {
            match Client::connect(addr) {
                Ok(mut c) => {
                    if binary {
                        if let Err(e) = c.negotiate_binary() {
                            eprintln!("frapp-client: binary negotiation with {addr} failed: {e}");
                            std::process::exit(1);
                        }
                    }
                    AnyClient::Tcp(Box::new(c))
                }
                Err(e) => failed(e),
            }
        }
    }
}

/// Unwraps an ops-subcommand result with a clean one-line error —
/// server-side rejections (unknown session, no persistence directory)
/// are expected user-facing cases, not panics.
fn ok_or_exit<T>(result: frapp_service::Result<T>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("frapp-client: {e}");
        std::process::exit(1);
    })
}

fn run_list(args: Args) {
    let mut client = AnyClient::connect(&args.addr, args.http, args.binary);
    let sessions = ok_or_exit(on!(client.list_sessions_detail()));
    if sessions.is_empty() {
        println!("no live sessions");
        return;
    }
    println!(
        "{:>8}  {:>12}  {:>7}  {:>7}  {:>12}  {:>8}",
        "session", "domain_size", "shards", "gamma", "records", "queries"
    );
    for s in sessions {
        println!(
            "{:>8}  {:>12}  {:>7}  {:>7}  {:>12}  {:>8}",
            s.id, s.domain_size, s.shards, s.gamma, s.total, s.reconstructions
        );
    }
}

fn run_metrics(args: Args) {
    let session = args.session.unwrap_or_else(|| {
        eprintln!("metrics needs --session N");
        usage()
    });
    let mut client = AnyClient::connect(&args.addr, args.http, args.binary);
    let (report, total) = ok_or_exit(on!(client.metrics(session)));
    println!("session {session}");
    println!("  records (all-time):      {total}");
    println!("  records (this process):  {}", report.records_ingested);
    println!("  batches:                 {}", report.batches);
    println!(
        "  ingest rate:             {:.1} records/s over {:.1}s",
        report.ingest_rate, report.uptime_secs
    );
    println!("  reconstructions:         {}", report.reconstructions);
    let batch = &report.ingest_batch_size;
    if batch.count > 0 {
        println!(
            "  ingest batch size:       mean {:.1}, max {} records over {} batches",
            batch.mean_us, batch.max_us, batch.count
        );
    }
    let submit = &report.submit_latency;
    if submit.count > 0 {
        println!(
            "  submit latency:          mean {:.1} µs, max {} µs over {} batches",
            submit.mean_us, submit.max_us, submit.count
        );
    }
    let lat = &report.query_latency;
    if lat.count == 0 {
        println!("  query latency:           (no queries yet)");
        return;
    }
    println!(
        "  query latency:           mean {:.1} µs, max {} µs over {} queries",
        lat.mean_us, lat.max_us, lat.count
    );
    for &(lt_us, count) in &lat.buckets {
        println!("    < {lt_us:>10} µs  {count:>8}");
    }
}

fn run_server_metrics(args: Args) {
    let mut client = AnyClient::connect(&args.addr, args.http, args.binary);
    let report = ok_or_exit(on!(client.server_metrics()));
    // The reactor section is all-zero on a thread-per-connection
    // server; meaningful under `frapp-serve --async`.
    let mut section = "";
    for row in &COUNTERS {
        if row.section != section {
            section = row.section;
            println!("{section}");
        }
        println!("  {:<20}{}", format!("{}:", row.key), report.get(row.id));
    }
    // The federation section only exists on a `--peers` server.
    for (i, p) in ok_or_exit(on!(client.federation_metrics()))
        .iter()
        .enumerate()
    {
        if i == 0 {
            println!("{}", frapp_service::wire::PEER_SECTION);
        }
        let fields: Vec<String> = PEER_COUNTERS
            .iter()
            .map(|row| match row.id {
                PeerCounter::Health => format!("{} {}", row.key, p.health().as_str()),
                id => format!("{} {}", row.key, p.get(id)),
            })
            .collect();
        println!("  peer {} ({}): {}", p.node, p.addr, fields.join(", "));
    }
}

fn run_cluster_status(args: Args) {
    let mut client = AnyClient::connect(&args.addr, args.http, args.binary);
    let v = ok_or_exit(on!(client.cluster_status()));
    let federated = v
        .get("federated")
        .and_then(frapp_service::json::Value::as_bool)
        .unwrap_or(false);
    if !federated {
        println!("not federated (single-node server)");
        return;
    }
    let replication = v
        .get("replication")
        .and_then(frapp_service::json::Value::as_u64)
        .unwrap_or(1);
    let peers = v
        .get("peers")
        .and_then(frapp_service::json::Value::as_array)
        .unwrap_or(&[]);
    println!(
        "federation: {} node(s), replication factor {replication}",
        peers.len()
    );
    for p in peers {
        let get_u64 = |k| p.get(k).and_then(frapp_service::json::Value::as_u64);
        let get_bool = |k| p.get(k).and_then(frapp_service::json::Value::as_bool);
        // The breaker-driven health state refines the probe result:
        // a reachable peer can still be `degraded` (recent failures)
        // or `down` (breaker open, connects failing fast).
        let health = p
            .get("health")
            .and_then(frapp_service::json::Value::as_str)
            .unwrap_or("up");
        let status = if !get_bool("up").unwrap_or(false) {
            "DOWN".to_owned()
        } else if health == "up" {
            "up".to_owned()
        } else {
            format!("up ({health})")
        };
        println!(
            "  node {} {:<21} {status}{}",
            get_u64("node").unwrap_or(0),
            p.get("addr")
                .and_then(frapp_service::json::Value::as_str)
                .unwrap_or("?"),
            if get_bool("self").unwrap_or(false) {
                " (this node)"
            } else {
                ""
            },
        );
    }
}

fn run_persist(args: Args) {
    let mut client = AnyClient::connect(&args.addr, args.http, args.binary);
    let persisted = ok_or_exit(on!(client.persist(args.session)));
    println!(
        "persisted {} session{}: {persisted:?}",
        persisted.len(),
        if persisted.len() == 1 { "" } else { "s" }
    );
}

/// One human-readable status line for a job, shared by `mine` and
/// `jobs` output.
fn print_job_status(status: &Value) {
    let get_u64 = |k| status.get(k).and_then(Value::as_u64).unwrap_or(0);
    let get_str = |k| status.get(k).and_then(Value::as_str).unwrap_or("?");
    print!(
        "job {:>4}  {:<10}  {:<9}  session {:<4}  levels {:<3} pruned {}",
        get_u64("job"),
        get_str("op"),
        get_str("state"),
        get_u64("session"),
        get_u64("levels"),
        get_u64("pruned"),
    );
    if status.get("wall_ms").is_some() {
        print!("  ({} ms)", get_u64("wall_ms"));
    }
    if let Some(err) = status.get("error").and_then(Value::as_str) {
        print!("  error: {err}");
    }
    println!();
}

fn items_str(v: Option<&Value>) -> String {
    let items: Vec<String> = v
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::as_u64)
        .map(|i| i.to_string())
        .collect();
    format!("[{}]", items.join(","))
}

/// Prints the `mine_rules` result payload: the run's parameters, the
/// per-level itemset profile and every rule with its quality measures.
fn print_mine_result(result: &Value) {
    let n = result.get("n").and_then(Value::as_u64).unwrap_or(0);
    println!(
        "mined {} frequent itemsets over {n} records (algo {}, min_support {}, min_confidence {})",
        result
            .get("frequent_itemsets")
            .and_then(Value::as_u64)
            .unwrap_or(0),
        result.get("algo").and_then(Value::as_str).unwrap_or("?"),
        result
            .get("min_support")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
        result
            .get("min_confidence")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
    );
    if let Some(profile) = result.get("level_profile").and_then(Value::as_array) {
        let counts: Vec<String> = profile
            .iter()
            .filter_map(Value::as_u64)
            .map(|c| c.to_string())
            .collect();
        println!("  level profile: {}", counts.join(" / "));
    }
    let rules = result.get("rules").and_then(Value::as_array).unwrap_or(&[]);
    println!("  {} rule(s)", rules.len());
    for r in rules {
        println!(
            "    {} => {}  support {:.4}  confidence {:.3}  lift {:.3}",
            items_str(r.get("antecedent")),
            items_str(r.get("consequent")),
            r.get("support").and_then(Value::as_f64).unwrap_or(0.0),
            r.get("confidence").and_then(Value::as_f64).unwrap_or(0.0),
            r.get("lift").and_then(Value::as_f64).unwrap_or(0.0),
        );
    }
}

fn run_mine(args: Args) {
    let session = args.session.unwrap_or_else(|| {
        eprintln!("mine needs --session N");
        usage()
    });
    let mut client = AnyClient::connect(&args.addr, args.http, args.binary);
    let job = ok_or_exit(on!(client.mine_rules(session, &args.mine_spec)));
    println!(
        "job {job} queued (session {session}, algo {}, min_support {}, min_confidence {})",
        args.mine_spec.algo.wire_name(),
        args.mine_spec.min_support,
        args.mine_spec.min_confidence,
    );
    if args.no_wait {
        println!("not waiting; poll with `frapp-client jobs --job {job}`");
        return;
    }
    let status = ok_or_exit(on!(
        client.wait_job(job, Duration::from_secs(args.timeout_secs))
    ));
    print_job_status(&status);
    if status.get("state").and_then(Value::as_str) == Some("done") {
        let result = ok_or_exit(on!(client.job_result(job)));
        print_mine_result(&result);
    } else {
        std::process::exit(1);
    }
}

fn run_jobs(args: Args) {
    let mut client = AnyClient::connect(&args.addr, args.http, args.binary);
    let Some(job) = args.job else {
        if args.cancel {
            eprintln!("--cancel needs --job N");
            usage();
        }
        let jobs = ok_or_exit(on!(client.list_jobs()));
        if jobs.is_empty() {
            println!("no retained jobs");
            return;
        }
        for status in &jobs {
            print_job_status(status);
        }
        return;
    };
    if args.cancel {
        let status = ok_or_exit(on!(client.job_cancel(job)));
        print_job_status(&status);
        return;
    }
    let status = ok_or_exit(on!(client.job_status(job)));
    print_job_status(&status);
    let is_done = status.get("state").and_then(Value::as_str) == Some("done");
    let mining = status.get("op").and_then(Value::as_str) == Some("mine_rules");
    if is_done && mining {
        let result = ok_or_exit(on!(client.job_result(job)));
        print_mine_result(&result);
    } else if is_done {
        let result = ok_or_exit(on!(client.job_result(job)));
        println!("  result: {}", result.to_json());
    } else if !job_status_is_terminal(&status) {
        println!(
            "  (still {}; re-run to poll)",
            status.get("state").and_then(Value::as_str).unwrap_or("?")
        );
    }
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    let subcommand = match argv.peek().map(String::as_str) {
        Some("list")
        | Some("metrics")
        | Some("server-metrics")
        | Some("cluster-status")
        | Some("persist")
        | Some("mine")
        | Some("jobs")
        | Some("load") => argv.next().expect("peeked"),
        _ => "load".to_owned(),
    };
    let args = parse_args(argv);
    match subcommand.as_str() {
        "list" => return run_list(args),
        "metrics" => return run_metrics(args),
        "server-metrics" => return run_server_metrics(args),
        "cluster-status" => return run_cluster_status(args),
        "persist" => return run_persist(args),
        "mine" => return run_mine(args),
        "jobs" => return run_jobs(args),
        _ => {}
    }
    let schema = frapp_data::census::schema();
    println!(
        "generating {} CENSUS-like records ({} attributes, {}-cell domain)...",
        args.records,
        schema.num_attributes(),
        schema.domain_size()
    );
    let dataset = frapp_data::census::census_like_n(args.records, args.seed);
    let true_counts = dataset.count_vector();

    let spec = SessionSpec {
        schema: schema
            .attributes()
            .iter()
            .map(|a| (a.name().to_owned(), a.cardinality()))
            .collect(),
        mechanism: frapp_service::Mechanism::Deterministic { gamma: args.gamma },
        shards: Some(args.threads),
        seed: Some(args.seed),
    };
    let mut control = AnyClient::connect(&args.addr, args.http, args.binary);
    let session = on!(control.create_session(&spec)).expect("create_session");
    println!(
        "session {session} open (gamma {}, {} shards{}{})",
        args.gamma,
        args.threads,
        if args.pipeline {
            ", pipelined acks"
        } else {
            ""
        },
        if args.http { ", http" } else { "" },
    );
    if args.binary {
        println!("binary framing negotiated on every connection");
    }

    // Optional client-side perturbation, mirroring the paper's trust
    // model: each "client" thread perturbs with its own seeded RNG.
    let gd = GammaDiagonal::new(&schema, args.gamma).expect("gamma > 1");

    let started = Instant::now();
    let records = dataset.records();
    std::thread::scope(|scope| {
        for (t, chunk) in records
            .chunks(records.len().div_ceil(args.threads))
            .enumerate()
        {
            let addr = &args.addr;
            let gd = &gd;
            let args = &args;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(args.seed ^ (t as u64 + 1) << 32);
                let mut client = AnyClient::connect(addr, args.http, args.binary);
                let mut submit = |batch: &[Vec<u32>], pre: bool| {
                    if args.pipeline {
                        let AnyClient::Tcp(tcp) = &mut client else {
                            unreachable!("--pipeline with --http is rejected at parse time");
                        };
                        tcp.submit_nowait(session, batch, pre).expect("submit");
                    } else {
                        on!(client.submit_batch(session, batch, pre)).expect("submit");
                    }
                };
                for batch in chunk.chunks(args.batch) {
                    if args.pre_perturb {
                        let perturbed: Vec<Vec<u32>> = batch
                            .iter()
                            .map(|r| gd.perturb_record(r, &mut rng).expect("valid record"))
                            .collect();
                        submit(&perturbed, true);
                    } else {
                        submit(batch, false);
                    }
                }
                if args.pipeline {
                    let AnyClient::Tcp(tcp) = &mut client else {
                        unreachable!("--pipeline with --http is rejected at parse time");
                    };
                    let accepted = tcp.flush().expect("flush");
                    assert_eq!(
                        accepted as usize,
                        chunk.len(),
                        "pipelined stream must be fully accepted"
                    );
                }
            });
        }
    });
    let ingest_secs = started.elapsed().as_secs_f64();

    let stats = on!(control.stats(session)).expect("stats");
    println!(
        "ingested {} records in {:.2}s ({:.0} records/s) across shards {:?}",
        stats.total,
        ingest_secs,
        stats.total as f64 / ingest_secs,
        stats.per_shard
    );

    let q0 = Instant::now();
    let rec = on!(control.reconstruct(session, ReconstructionMethod::ClosedForm, true))
        .expect("reconstruct");
    let q_secs = q0.elapsed().as_secs_f64();

    // Total-variation distance between reconstructed and true
    // distributions.
    let n = rec.n as f64;
    let tv: f64 = rec
        .estimates
        .iter()
        .zip(&true_counts)
        .map(|(e, t)| (e / n - t / n).abs())
        .sum::<f64>()
        / 2.0;
    println!(
        "reconstruction ({} cells) in {:.3}s; total-variation distance to true distribution: {:.4}",
        rec.estimates.len(),
        q_secs,
        tv
    );
    on!(control.close_session(session)).expect("close_session");
}
