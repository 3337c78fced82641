//! `frapp-serve` — run the FRAPP collection server.
//!
//! ```text
//! frapp-serve [--addr 127.0.0.1:7878] [--http-addr 127.0.0.1:7880]
//!             [--async] [--reactor-threads N] [--offload-threads N]
//!             [--shards N] [--seed S] [--max-sessions N]
//!             [--max-connections N] [--persist-dir PATH]
//!             [--persist-interval SECS]
//!             [--peers HOST:PORT,HOST:PORT,...] [--replication N]
//!             [--node-id K] [--connect-timeout-ms MS]
//!             [--read-timeout-ms MS] [--write-timeout-ms MS]
//!             [--idle-timeout-ms MS] [--breaker-threshold N]
//!             [--breaker-cooldown-ms MS] [--fault-plan SPEC]
//!             [--job-threads N] [--job-queue-depth N]
//!             [--job-ttl-secs SECS]
//! ```
//!
//! The server prints its bound address(es) on stdout (useful with port
//! 0) and runs until a client sends `{"op":"shutdown"}`.
//!
//! With `--http-addr`, an HTTP/1.1 front-end serves the same sessions
//! over REST routes (`POST /sessions`, `POST /sessions/{id}/records`,
//! `GET /sessions/{id}/reconstruct`, ...). `--max-connections` bounds
//! concurrent connections across both transports; connections past the
//! cap are refused with an in-band error and counted as sheds. It also
//! sizes the listen backlog (at least 128, capped by the kernel's
//! `somaxconn`), so a connect burst up to the cap is queued, not dropped.
//!
//! With `--async`, both transports are served by the nonblocking
//! epoll/kqueue reactor instead of one OS thread per connection — same
//! wire behaviour, far higher concurrent-connection fan-in;
//! `--reactor-threads N` shards the event loop across N threads (see
//! `docs/ARCHITECTURE.md`).
//!
//! With `--persist-dir`, session snapshots found there are recovered on
//! startup, every live session is snapshotted on clean shutdown (and
//! every `--persist-interval` seconds when set), and sessions evicted
//! by the `--max-sessions` LRU cap are spilled to disk instead of
//! dropped.
//!
//! With `--peers`, this node joins a federation: every node is started
//! with the *identical* comma-separated peer list (this node's own
//! address included), sessions are replicated cluster-wide with their
//! ingest spread across `--replication` owner nodes by consistent
//! hashing, and reconstruction/stats merge the owners' partitions (see
//! `docs/ARCHITECTURE.md`). `--node-id` names this node's index in the
//! list, required when `--addr` is not a literal match (e.g. binding
//! `0.0.0.0`).
//!
//! `--fault-plan` (or the `FRAPP_FAULT_PLAN` environment variable)
//! arms deterministic fault injection for soak and chaos testing, e.g.
//! `seed=42,peer_send=drop:0.3,persist_sync=io_error:0.05` — see
//! `docs/ARCHITECTURE.md` §8 for the grammar and sites. The breaker
//! knobs (`--breaker-threshold`, `--breaker-cooldown-ms`) govern when
//! a flapping peer link trips to `down` and how long connects fail
//! fast before the next half-open probe; `--idle-timeout-ms` reaps
//! connections idle past the limit on the threaded front-ends.
//!
//! The background-job pool (`mine_rules`/`classify` ops) is sized by
//! `--job-threads`, bounded by `--job-queue-depth` (submissions past
//! the cap are shed with an in-band error), and finished job results
//! are retained for `--job-ttl-secs` before being purged.

use frapp_service::{Server, ServiceConfig};

fn usage() -> ! {
    eprintln!(
        "usage: frapp-serve [--addr HOST:PORT] [--http-addr HOST:PORT] [--async] \
         [--reactor-threads N] [--shards N] [--seed S] [--max-sessions N] \
         [--max-connections N] [--persist-dir PATH] [--persist-interval SECS] \
         [--peers HOST:PORT,...] [--replication N] [--node-id K] \
         [--connect-timeout-ms MS] [--read-timeout-ms MS] \
         [--write-timeout-ms MS] [--idle-timeout-ms MS] \
         [--offload-threads N] [--breaker-threshold N] \
         [--breaker-cooldown-ms MS] [--fault-plan SPEC] \
         [--job-threads N] [--job-queue-depth N] [--job-ttl-secs SECS]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ServiceConfig::with_addr("127.0.0.1:7878");
    // The environment arms the fault plan first; an explicit
    // --fault-plan flag overrides it.
    if let Ok(spec) = std::env::var("FRAPP_FAULT_PLAN") {
        config.fault_plan = frapp_service::FaultPlan::parse(&spec).unwrap_or_else(|e| {
            eprintln!("FRAPP_FAULT_PLAN: {e}");
            std::process::exit(2);
        });
    }
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--http-addr" => config.http_addr = Some(value("--http-addr")),
            "--async" => config.async_reactor = true,
            "--reactor-threads" => {
                config.reactor_threads = value("--reactor-threads")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--max-connections" => {
                config.max_connections = value("--max-connections")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--shards" => {
                config.default_shards = value("--shards").parse().unwrap_or_else(|_| usage())
            }
            "--seed" => config.default_seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--max-sessions" => {
                config.max_sessions = value("--max-sessions").parse().unwrap_or_else(|_| usage())
            }
            "--persist-dir" => config.persist_dir = Some(value("--persist-dir").into()),
            "--persist-interval" => {
                config.persist_interval_secs = value("--persist-interval")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--peers" => {
                config.peers = frapp_fed::Topology::parse_peer_list(&value("--peers"))
                    .unwrap_or_else(|e| {
                        eprintln!("--peers: {e}");
                        usage()
                    })
            }
            "--replication" => {
                config.replication = value("--replication")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--node-id" => {
                config.node_id = Some(value("--node-id").parse().unwrap_or_else(|_| usage()))
            }
            "--connect-timeout-ms" => {
                config.connect_timeout_ms = value("--connect-timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--read-timeout-ms" => {
                config.read_timeout_ms = value("--read-timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--write-timeout-ms" => {
                config.write_timeout_ms = value("--write-timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--idle-timeout-ms" => {
                config.idle_timeout_ms = value("--idle-timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--offload-threads" => {
                config.offload_threads = value("--offload-threads")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--breaker-threshold" => {
                config.breaker_threshold = value("--breaker-threshold")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--breaker-cooldown-ms" => {
                config.breaker_cooldown_ms = value("--breaker-cooldown-ms")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--job-threads" => {
                config.job_threads = value("--job-threads")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--job-queue-depth" => {
                config.job_queue_depth = value("--job-queue-depth")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--job-ttl-secs" => {
                config.job_result_ttl_secs =
                    value("--job-ttl-secs").parse().unwrap_or_else(|_| usage())
            }
            "--fault-plan" => {
                config.fault_plan = frapp_service::FaultPlan::parse(&value("--fault-plan"))
                    .unwrap_or_else(|e| {
                        eprintln!("--fault-plan: {e}");
                        usage()
                    })
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if config.persist_interval_secs > 0 && config.persist_dir.is_none() {
        eprintln!("--persist-interval requires --persist-dir");
        usage();
    }
    if config.reactor_threads > 1 && !config.async_reactor {
        eprintln!("--reactor-threads requires --async");
        usage();
    }
    if (config.replication > 1 || config.node_id.is_some()) && config.peers.is_empty() {
        eprintln!("--replication/--node-id require --peers");
        usage();
    }

    let federation = (!config.peers.is_empty()).then(|| {
        (
            config.peers.len(),
            config.replication.min(config.peers.len()),
        )
    });
    let persist_dir = config.persist_dir.clone();
    let fault_spec = (!config.fault_plan.is_empty()).then(|| config.fault_plan.spec().to_owned());
    let (async_mode, reactor_threads) = (config.async_reactor, config.reactor_threads);
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("frapp-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("frapp-serve listening on {addr}"),
        Err(e) => eprintln!("frapp-serve: {e}"),
    }
    if let Some(addr) = server.local_http_addr() {
        println!("frapp-serve http on {addr}");
    }
    if async_mode {
        println!("front-end: async reactor ({reactor_threads} thread(s))");
    }
    if let Some((nodes, replication)) = federation {
        println!("federation: {nodes} node(s), replication factor {replication}");
    }
    if let Some(spec) = &fault_spec {
        println!("fault injection armed: {spec}");
    }
    if let Some(dir) = &persist_dir {
        let recovered = server.registry().ids();
        println!(
            "persistence: {} ({} session{} recovered)",
            dir.display(),
            recovered.len(),
            if recovered.len() == 1 { "" } else { "s" }
        );
    }
    if let Err(e) = server.run() {
        eprintln!("frapp-serve: {e}");
        std::process::exit(1);
    }
}
