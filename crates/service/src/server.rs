//! The TCP server: the accept loop, connection handling, lifecycle.
//!
//! Concurrency model: one OS thread per connection (ingest is
//! lock-striped across session shards, so connections rarely contend),
//! bounded by [`crate::config::ServiceConfig::max_connections`] across
//! *all* transports; a shared [`SessionRegistry`] behind an `Arc`, and
//! a cooperative shutdown flag. The `shutdown` op sets the flag and
//! wakes every accept loop with a loopback connection, so
//! [`Server::run`] returns cleanly — no thread is ever killed
//! mid-request.
//!
//! Request parsing and execution are transport-agnostic and live in
//! [`crate::dispatch`]; per-connection framing (line-JSON, the
//! negotiated binary format, HTTP/1.1) lives in [`crate::framing`] —
//! this module owns accepting, admission and connection lifecycle for
//! both listeners (the HTTP one is enabled by
//! `ServiceConfig::http_addr`); they run the same loop and differ in
//! the codec a connection gets.

use crate::config::ServiceConfig;
use crate::dispatch::persist_all_sessions;
use crate::error::{Result, ServiceError};
use crate::framing::{drive_blocking, HttpFraming, LineFraming};
use crate::metrics::TransportMetrics;
use crate::persist;
use crate::session::SessionRegistry;
use crate::wire::Counter;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// The dispatch core moved to `crate::dispatch`; re-export its
// entry points here so `frapp_service::server::dispatch` keeps working
// for embedders that predate the transport split.
pub use crate::dispatch::dispatch;

/// State shared by every accept loop and connection worker: the
/// session registry, the config, the shutdown flag, the per-transport
/// counters and the cross-transport live-connection count.
pub(crate) struct Shared {
    pub(crate) registry: Arc<SessionRegistry>,
    pub(crate) config: ServiceConfig,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) transport: Arc<TransportMetrics>,
    /// The federation layer — `Some` when the config names peers.
    /// Shared by every transport so they all route through the same
    /// replication links and sequence counters.
    pub(crate) fed: Option<Arc<crate::fed::FedState>>,
    /// The dispatch offload pool the reactor front-end hands complete
    /// frames to; the threaded front-ends dispatch on the connection's
    /// own thread and start no pool.
    pub(crate) executor: Option<crate::dispatch::OffloadExecutor>,
    /// The background-job pool running `mine_rules` / `classify` off
    /// the transport threads (see [`crate::jobs`]).
    pub(crate) jobs: crate::jobs::JobManager,
    live_connections: Arc<AtomicUsize>,
    /// Every bound listener address: where [`Shared::shut_down`]
    /// connects to wake the accept loops.
    listen_addrs: Vec<SocketAddr>,
}

/// Which dialect a listener's connections speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Transport {
    /// Line-JSON, upgradable to the binary framing by `hello`.
    Line,
    /// HTTP/1.1.
    Http,
}

impl Shared {
    /// Admits one connection against the `max_connections` cap, or
    /// refuses (`None`) when the server is full. The returned guard
    /// releases the slot when the connection's worker finishes, so a
    /// crashed worker can never leak its slot.
    pub(crate) fn try_admit(&self) -> Option<ConnGuard> {
        let prev = self.live_connections.fetch_add(1, Ordering::SeqCst);
        if prev >= self.config.max_connections {
            self.live_connections.fetch_sub(1, Ordering::SeqCst);
            self.transport.inc(Counter::Sheds);
            return None;
        }
        Some(ConnGuard {
            live: Arc::clone(&self.live_connections),
        })
    }

    /// The bytes a connection refused at the cap receives before the
    /// close: the in-band error as one line, or as a `503 Service
    /// Unavailable` body.
    pub(crate) fn shed_response(&self, transport: Transport) -> Vec<u8> {
        let mut body = String::new();
        crate::protocol::write_error_response(
            &mut body,
            &ServiceError::InvalidRequest(format!(
                "server is at its {}-connection capacity; retry later",
                self.config.max_connections
            )),
        );
        let mut message = Vec::new();
        match transport {
            Transport::Line => {
                body.push('\n');
                message.extend_from_slice(body.as_bytes());
            }
            Transport::Http => crate::http::format_http_response(
                &mut message,
                503,
                "Service Unavailable",
                crate::http::CONTENT_TYPE_JSON,
                &body,
                false,
            ),
        }
        message
    }

    /// Sets the shutdown flag and wakes every accept loop — each blocks
    /// in `accept` — with a loopback connection, so [`Server::run`]
    /// observes the flag at once.
    pub(crate) fn shut_down(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for &addr in &self.listen_addrs {
            let _ = TcpStream::connect(wake_addr(addr));
        }
    }
}

/// Releases a connection slot on drop (RAII, panic-safe).
pub(crate) struct ConnGuard {
    live: Arc<AtomicUsize>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Bounded exponential backoff for accept-loop errors.
///
/// A failed `accept` with a *persistent* cause — EMFILE when the
/// process is out of file descriptors is the classic one — used to
/// retry immediately, spinning the accept loop at 100% CPU for as long
/// as the condition lasted. Consecutive errors now back off
/// exponentially from [`Self::BASE`] to [`Self::CAP`]; any successful
/// accept resets the sequence, so one transient hiccup costs a single
/// short sleep.
#[derive(Debug, Default)]
pub(crate) struct AcceptBackoff {
    consecutive: u32,
}

impl AcceptBackoff {
    const BASE: Duration = Duration::from_millis(10);
    const CAP: Duration = Duration::from_secs(1);

    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Called after a successful accept: the next error starts from
    /// `BASE` again.
    pub(crate) fn on_success(&mut self) {
        self.consecutive = 0;
    }

    /// Called after a failed accept; returns how long to sleep before
    /// retrying. The n-th consecutive error sleeps `BASE * 2^(n-1)`,
    /// capped at `CAP`.
    pub(crate) fn on_error(&mut self) -> Duration {
        // 2^7 * 10ms already exceeds the 1s cap; saturating the shift
        // keeps the arithmetic overflow-free however long the outage.
        let delay = Self::BASE.saturating_mul(1u32 << self.consecutive.min(7));
        self.consecutive = self.consecutive.saturating_add(1);
        delay.min(Self::CAP)
    }
}

/// Tracks the time since the last byte arrived on a connection so the
/// threaded front-ends can reap idle (or deliberately slow — slowloris)
/// peers instead of pinning a worker thread forever. A zero
/// `idle_timeout_ms` disables reaping: `expired` never fires and
/// `touch` is a no-op.
#[derive(Debug)]
pub(crate) struct IdleTimer {
    limit: Option<Duration>,
    last_activity: Instant,
}

impl IdleTimer {
    pub(crate) fn new(idle_timeout_ms: u64) -> Self {
        IdleTimer {
            limit: (idle_timeout_ms > 0).then(|| Duration::from_millis(idle_timeout_ms)),
            last_activity: Instant::now(),
        }
    }

    /// Called whenever bytes arrive: resets the idle clock.
    pub(crate) fn touch(&mut self) {
        if self.limit.is_some() {
            self.last_activity = Instant::now();
        }
    }

    /// True when the connection has been quiet past the configured
    /// limit and should be reaped.
    pub(crate) fn expired(&self) -> bool {
        self.limit
            .is_some_and(|l| self.last_activity.elapsed() >= l)
    }
}

/// A bound (but not yet running) collection server.
pub struct Server {
    listener: TcpListener,
    http_listener: Option<TcpListener>,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the address in `config` (and `http_addr`, when set). When
    /// a persistence directory is configured, every session snapshot
    /// found there is recovered into the registry — newest snapshots
    /// take priority when the `max_sessions` cap cannot hold them all —
    /// preserving each session's id, seed and shard layout so
    /// deterministic replay holds across the restart. Corrupt snapshot
    /// files are skipped with a warning rather than failing the bind.
    pub fn bind(config: ServiceConfig) -> Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let http_listener = match &config.http_addr {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let listen_addrs = [Some(&listener), http_listener.as_ref()]
            .into_iter()
            .flatten()
            .map(TcpListener::local_addr)
            .collect::<std::io::Result<Vec<_>>>()?;
        let registry = Arc::new(SessionRegistry::with_max_sessions(config.max_sessions));
        if let Some(dir) = &config.persist_dir {
            std::fs::create_dir_all(dir)?;
            let swept = persist::sweep_temp_files(dir);
            if swept > 0 {
                eprintln!(
                    "frapp-service: swept {swept} orphaned snapshot temp file(s) \
                     from a previous crash"
                );
            }
            let (mut sessions, skipped) =
                persist::load_all(dir, config.max_dense_domain, config.max_session_domain);
            for (path, err) in skipped {
                // Even an unrecovered snapshot reserves its id: a new
                // session reusing it would overwrite this file on its
                // first persist (and close_session would delete it).
                if let Some(id) = path
                    .file_name()
                    .and_then(|n| persist::session_id_from_file_name(&n.to_string_lossy()))
                {
                    registry.reserve_ids_through(id);
                }
                eprintln!(
                    "frapp-service: skipping unreadable snapshot {}: {err}",
                    path.display()
                );
            }
            // `load_all` orders oldest snapshot first. When the cap
            // cannot hold every snapshot, drop the *oldest* (stale
            // eviction spills), not the most recently active sessions;
            // inserting the survivors oldest-first stamps ascending
            // last-touched ticks, so the in-memory LRU order mirrors
            // on-disk recency from the first post-restart eviction.
            if sessions.len() > registry.max_sessions() {
                for stale in sessions.drain(..sessions.len() - registry.max_sessions()) {
                    registry.reserve_ids_through(stale.id());
                    eprintln!(
                        "frapp-service: not recovering session {}: registry at its \
                         {}-session cap (oldest snapshots are skipped first)",
                        stale.id(),
                        registry.max_sessions()
                    );
                }
            }
            for session in sessions {
                let id = session.id();
                if !registry.insert_recovered(session) {
                    eprintln!("frapp-service: not recovering session {id}: id already live");
                }
            }
        }
        let fed = crate::fed::FedState::from_config(&config)?;
        let executor = config
            .async_reactor
            .then(|| crate::dispatch::OffloadExecutor::new(config.offload_threads));
        let transport = Arc::new(TransportMetrics::new());
        let jobs = crate::jobs::JobManager::from_config(&config, Arc::clone(&transport));
        Ok(Server {
            listener,
            http_listener,
            shared: Arc::new(Shared {
                registry,
                config,
                shutdown: Arc::new(AtomicBool::new(false)),
                transport,
                fed,
                executor,
                jobs,
                live_connections: Arc::new(AtomicUsize::new(0)),
                listen_addrs,
            }),
        })
    }

    /// The actually-bound address (resolves port `0`).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// The bound HTTP address, when the HTTP front-end is enabled.
    pub fn local_http_addr(&self) -> Option<SocketAddr> {
        self.http_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// The shared session registry (useful for in-process embedding).
    pub fn registry(&self) -> Arc<SessionRegistry> {
        Arc::clone(&self.shared.registry)
    }

    /// The server's per-transport counters.
    pub fn transport_metrics(&self) -> Arc<TransportMetrics> {
        Arc::clone(&self.shared.transport)
    }

    /// Runs the accept loop on the calling thread until a client sends
    /// `shutdown`. With persistence configured, a background persister
    /// snapshots every live session on the configured interval, and a
    /// final snapshot of all sessions is written after the accept loop
    /// exits — so a clean shutdown never loses counts. With an HTTP
    /// address configured, the same loop runs on a second thread for
    /// the HTTP listener, against the same dispatch core, and stops
    /// with the same flag.
    ///
    /// With [`crate::config::ServiceConfig::async_reactor`] set, both
    /// transports are served by the nonblocking [`crate::reactor`]
    /// event loop instead of thread-per-connection — same wire
    /// behaviour, far higher concurrent-connection fan-in.
    pub fn run(self) -> Result<()> {
        let persister = self.spawn_persister();
        let result = if self.shared.config.async_reactor {
            crate::reactor::run(self.listener, self.http_listener, &self.shared)
        } else {
            let http = self.http_listener.map(|listener| {
                let shared = Arc::clone(&self.shared);
                std::thread::spawn(move || accept_loop(listener, &shared, Transport::Http))
            });
            accept_loop(self.listener, &self.shared, Transport::Line);
            if let Some(h) = http {
                let _ = h.join();
            }
            Ok(())
        };
        // However the front-end exited, the flag must be set so the
        // persister stops too.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(p) = persister {
            let _ = p.join();
        }
        if let Some(dir) = &self.shared.config.persist_dir {
            persist_all_sessions_best_effort(
                dir,
                &self.shared.registry,
                &self.shared.config.fault_plan,
            );
        }
        result
    }

    /// Starts the periodic snapshot thread, when configured. The thread
    /// polls the shutdown flag at a fine grain so it never delays
    /// `run`'s exit by more than ~50 ms.
    fn spawn_persister(&self) -> Option<JoinHandle<()>> {
        let dir = self.shared.config.persist_dir.clone()?;
        let interval = match self.shared.config.persist_interval_secs {
            0 => return None,
            secs => Duration::from_secs(secs),
        };
        let registry = Arc::clone(&self.shared.registry);
        let shutdown = Arc::clone(&self.shared.shutdown);
        let fault = self.shared.config.fault_plan.clone();
        Some(std::thread::spawn(move || {
            let tick = Duration::from_millis(50);
            let mut since_last = Duration::ZERO;
            while !shutdown.load(Ordering::SeqCst) {
                std::thread::sleep(tick);
                since_last += tick;
                if since_last >= interval {
                    persist_all_sessions_incremental_best_effort(&dir, &registry, &fault);
                    since_last = Duration::ZERO;
                }
            }
        }))
    }

    /// Runs the server on a background thread, returning a handle for
    /// the bound addresses and a clean shutdown.
    pub fn spawn(self) -> Result<ServerHandle> {
        let addr = self.local_addr()?;
        let http_addr = self.local_http_addr();
        let registry = self.registry();
        let transport = self.transport_metrics();
        let join = std::thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            http_addr,
            registry,
            transport,
            join,
        })
    }
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    registry: Arc<SessionRegistry>,
    transport: Arc<TransportMetrics>,
    join: JoinHandle<Result<()>>,
}

impl ServerHandle {
    /// The server's bound (line-protocol) address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's bound HTTP address, when the HTTP front-end is
    /// enabled.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// The server's session registry.
    pub fn registry(&self) -> Arc<SessionRegistry> {
        Arc::clone(&self.registry)
    }

    /// The server's per-transport counters.
    pub fn transport_metrics(&self) -> Arc<TransportMetrics> {
        Arc::clone(&self.transport)
    }

    /// Asks the server to stop and waits for the accept loop to exit.
    ///
    /// The shutdown request is an ordinary connection, so a server
    /// sitting at its `max_connections` cap could shed it; retry
    /// briefly until a slot frees up rather than joining a server that
    /// never saw the request. A *refused connect* means the listener is
    /// already gone (some other client shut the server down) — skip
    /// straight to the join instead of retrying against a closed port.
    pub fn shutdown(self) -> Result<()> {
        for attempt in 0..100 {
            match crate::client::Client::connect(self.addr) {
                Ok(mut client) => match client.shutdown() {
                    Ok(()) => break,
                    // Shed at the cap (in-band refusal or torn
                    // connection): a slot should free up shortly.
                    Err(_) if attempt < 99 => std::thread::sleep(Duration::from_millis(50)),
                    Err(e) => return Err(e),
                },
                Err(_) => break,
            }
        }
        self.join
            .join()
            .map_err(|_| ServiceError::Protocol("server thread panicked".into()))?
    }
}

/// Accepts one listener's connections until the shutdown flag is set,
/// each on a worker thread of its own, then joins the workers. Blocks
/// in `accept`; [`Shared::shut_down`] wakes it.
fn accept_loop(listener: TcpListener, shared: &Arc<Shared>, transport: Transport) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    let mut backoff = AcceptBackoff::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let mut stream = match stream {
            Ok(s) => {
                backoff.on_success();
                s
            }
            // A single failed accept (e.g. peer reset between
            // accept and handshake) should not kill the server —
            // but a persistent failure (EMFILE) must not spin the
            // loop hot either: back off, bounded, until an accept
            // succeeds again.
            Err(_) => {
                shared.transport.inc(Counter::AcceptErrors);
                std::thread::sleep(backoff.on_error());
                continue;
            }
        };
        let Some(guard) = shared.try_admit() else {
            // Refused on the accept thread, so the write timeout is
            // short — a peer that will not read its refusal gets
            // dropped rather than stalling accepts.
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            let _ = stream.write_all(&shared.shed_response(transport));
            continue;
        };
        shared.transport.inc(match transport {
            Transport::Line => Counter::TcpConnections,
            Transport::Http => Counter::HttpConnections,
        });
        let shared = Arc::clone(shared);
        workers.push(std::thread::spawn(move || {
            let _guard = guard;
            // Per-connection errors are reported to the peer
            // in-band; a torn connection is simply dropped.
            let _ = handle_connection(stream, &shared, transport);
        }));
        workers.retain(|w| !w.is_finished());
    }
    for w in workers {
        let _ = w.join();
    }
}

/// One connection worker: the transport's codec driven by the shared
/// blocking loop — the same codecs the reactor steps incrementally, so
/// the two front-ends cannot drift.
fn handle_connection(stream: TcpStream, shared: &Shared, transport: Transport) -> Result<()> {
    match transport {
        // Connection-fault injection covers the line listener only.
        Transport::Line => drive_blocking(&stream, shared, &mut LineFraming::new(), true),
        Transport::Http => {
            // Responses are written as one buffer, but disable Nagle
            // anyway: with it on, a head/body pair split across
            // segments stalls ~40 ms against the peer's delayed ACK,
            // capping keep-alive connections at ~25 requests/second.
            stream.set_nodelay(true)?;
            drive_blocking(&stream, shared, &mut HttpFraming::new(), false)
        }
    }
}

/// The address [`Shared::shut_down`] connects to in order to wake an
/// accept loop. A wildcard bind (`0.0.0.0` / `::`) is not a connectable
/// destination on every platform, so route the wake-up via loopback.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    if bound.ip().is_unspecified() {
        let ip: std::net::IpAddr = if bound.is_ipv4() {
            std::net::Ipv4Addr::LOCALHOST.into()
        } else {
            std::net::Ipv6Addr::LOCALHOST.into()
        };
        SocketAddr::new(ip, bound.port())
    } else {
        bound
    }
}

/// The best-effort full-snapshot flavour for the shutdown path:
/// failures are reported on stderr but never take the server down.
fn persist_all_sessions_best_effort(
    dir: &std::path::Path,
    registry: &SessionRegistry,
    fault: &crate::fault::FaultPlan,
) {
    let (_, failed) = persist_all_sessions(dir, registry, fault);
    for (id, e) in failed {
        eprintln!("frapp-service: failed to snapshot session {id}: {e}");
    }
}

/// The periodic persister's flavour: incremental. A session with no
/// full snapshot yet gets one; afterwards only the shards dirtied
/// since the last flush are appended as sparse delta lines, so a
/// steady-state tick costs O(cells touched), not O(domain). Failures
/// are reported on stderr; sessions closed mid-scan correctly refuse
/// and are skipped silently.
fn persist_all_sessions_incremental_best_effort(
    dir: &std::path::Path,
    registry: &SessionRegistry,
    fault: &crate::fault::FaultPlan,
) {
    for session in registry.all() {
        match persist::persist_session_incremental_faulted(dir, &session, fault) {
            Ok(_) => {}
            Err(_) if session.is_closed() => {}
            Err(e) => eprintln!(
                "frapp-service: failed to flush session {}: {e}",
                session.id()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn harness() -> (SessionRegistry, ServiceConfig) {
        (SessionRegistry::new(), ServiceConfig::default())
    }

    fn ok_of(response: &str) -> json::Value {
        let v = json::parse(response).unwrap();
        assert_eq!(
            v.get("ok").and_then(json::Value::as_bool),
            Some(true),
            "expected success, got {response}"
        );
        v
    }

    #[test]
    fn dispatch_full_session_lifecycle_without_sockets() {
        let (reg, cfg) = harness();
        let (resp, stop) = dispatch(
            &reg,
            &cfg,
            r#"{"op":"create_session","schema":[["a",3],["b",2]],"gamma":19.0,"shards":2,"seed":5}"#,
        );
        assert!(!stop);
        let v = ok_of(&resp);
        let sid = v.get("session").and_then(json::Value::as_u64).unwrap();
        assert_eq!(v.get("domain_size").and_then(json::Value::as_u64), Some(6));

        let (resp, _) = dispatch(
            &reg,
            &cfg,
            &format!(
                r#"{{"op":"submit","session":{sid},"records":[[0,0],[1,1],[2,0]],"pre_perturbed":true}}"#
            ),
        );
        let v = ok_of(&resp);
        assert_eq!(v.get("accepted").and_then(json::Value::as_u64), Some(3));

        let (resp, _) = dispatch(&reg, &cfg, &format!(r#"{{"op":"stats","session":{sid}}}"#));
        let v = ok_of(&resp);
        assert_eq!(v.get("total").and_then(json::Value::as_u64), Some(3));

        let (resp, _) = dispatch(
            &reg,
            &cfg,
            &format!(r#"{{"op":"reconstruct","session":{sid},"clamp":false,"method":"closed"}}"#),
        );
        let v = ok_of(&resp);
        let est = v.get("estimates").and_then(json::Value::as_array).unwrap();
        assert_eq!(est.len(), 6);

        let (resp, _) = dispatch(
            &reg,
            &cfg,
            &format!(r#"{{"op":"close_session","session":{sid}}}"#),
        );
        assert_eq!(
            ok_of(&resp).get("closed").and_then(json::Value::as_bool),
            Some(true)
        );
        let (resp, _) = dispatch(&reg, &cfg, &format!(r#"{{"op":"stats","session":{sid}}}"#));
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(false));
    }

    #[test]
    fn dispatch_reports_errors_in_band() {
        let (reg, cfg) = harness();
        let (resp, stop) = dispatch(&reg, &cfg, "garbage");
        assert!(!stop);
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(false));

        let (resp, _) = dispatch(&reg, &cfg, r#"{"op":"stats","session":404}"#);
        let v = json::parse(&resp).unwrap();
        assert!(v
            .get("error")
            .and_then(json::Value::as_str)
            .unwrap()
            .contains("unknown session"));
    }

    #[test]
    fn wake_addr_routes_wildcard_binds_through_loopback() {
        let v4: SocketAddr = "0.0.0.0:7878".parse().unwrap();
        assert_eq!(wake_addr(v4), "127.0.0.1:7878".parse().unwrap());
        let v6: SocketAddr = "[::]:7878".parse().unwrap();
        assert_eq!(wake_addr(v6), "[::1]:7878".parse().unwrap());
        let concrete: SocketAddr = "127.0.0.1:9999".parse().unwrap();
        assert_eq!(wake_addr(concrete), concrete);
    }

    #[test]
    fn accept_backoff_grows_exponentially_caps_and_resets() {
        let mut b = AcceptBackoff::new();
        // Consecutive errors: 10ms, 20ms, 40ms, ... capped at 1s.
        assert_eq!(b.on_error(), Duration::from_millis(10));
        assert_eq!(b.on_error(), Duration::from_millis(20));
        assert_eq!(b.on_error(), Duration::from_millis(40));
        for _ in 0..10 {
            assert!(b.on_error() <= AcceptBackoff::CAP);
        }
        assert_eq!(b.on_error(), AcceptBackoff::CAP, "must saturate at the cap");
        // One successful accept resets the sequence to the base delay.
        b.on_success();
        assert_eq!(b.on_error(), Duration::from_millis(10));
        // The sum of one full escalation is bounded (a persistent
        // EMFILE burns ~1 wakeup/second steady-state, not a hot spin).
        let mut fresh = AcceptBackoff::new();
        let total: Duration = (0..8).map(|_| fresh.on_error()).sum();
        assert!(total < Duration::from_secs(3));
    }

    #[test]
    fn idle_timer_disabled_at_zero_and_expires_past_the_limit() {
        // Zero disables reaping entirely.
        let off = IdleTimer::new(0);
        assert!(!off.expired());
        // A 1ms limit expires once the clock passes it...
        let mut t = IdleTimer::new(1);
        std::thread::sleep(Duration::from_millis(5));
        assert!(t.expired());
        // ...and touch() resets it.
        t.touch();
        assert!(!t.expired());
    }

    #[test]
    fn connection_admission_enforces_the_cap_and_releases_on_drop() {
        let shared = Shared {
            registry: Arc::new(SessionRegistry::new()),
            config: ServiceConfig {
                max_connections: 2,
                ..ServiceConfig::default()
            },
            shutdown: Arc::new(AtomicBool::new(false)),
            transport: Arc::new(TransportMetrics::new()),
            fed: None,
            executor: None,
            jobs: crate::jobs::JobManager::new(
                1,
                1,
                600,
                Arc::new(TransportMetrics::new()),
                crate::fault::FaultPlan::default(),
            ),
            live_connections: Arc::new(AtomicUsize::new(0)),
            listen_addrs: Vec::new(),
        };
        let a = shared.try_admit().expect("first connection fits");
        let _b = shared.try_admit().expect("second connection fits");
        assert!(shared.try_admit().is_none(), "third must be shed");
        assert_eq!(shared.transport.report().get(Counter::Sheds), 1);
        // Dropping a guard frees its slot.
        drop(a);
        assert!(shared.try_admit().is_some());
        let refusal = String::from_utf8(shared.shed_response(Transport::Line)).unwrap();
        assert!(refusal.contains("2-connection"), "{refusal}");
    }

    #[test]
    fn create_session_rejects_non_finite_gamma() {
        let (reg, cfg) = harness();
        // 1e999 overflows f64 parsing to +inf; must be a validation
        // error, not a session serving NaN estimates.
        let (resp, _) = dispatch(
            &reg,
            &cfg,
            r#"{"op":"create_session","schema":[["a",3],["b",2]],"gamma":1e999}"#,
        );
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(false));
        assert!(v
            .get("error")
            .and_then(json::Value::as_str)
            .unwrap()
            .contains("finite"));
        assert!(reg.ids().is_empty());
    }

    #[test]
    fn create_session_refuses_oversized_domains() {
        let (reg, cfg) = harness();
        // 4294967295 * 8 cells would be ~275 GB of shard counters.
        let (resp, _) = dispatch(
            &reg,
            &cfg,
            r#"{"op":"create_session","schema":[["a",4294967295],["b",8]],"gamma":19.0}"#,
        );
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(false));
        assert!(v
            .get("error")
            .and_then(json::Value::as_str)
            .unwrap()
            .contains("exceeds this server's limit"));
        assert!(reg.ids().is_empty(), "no session must have been created");
    }

    #[test]
    fn dispatch_shutdown_signals_stop() {
        let (reg, cfg) = harness();
        let (resp, stop) = dispatch(&reg, &cfg, r#"{"op":"shutdown"}"#);
        assert!(stop);
        ok_of(&resp);
    }

    #[test]
    fn submit_validation_failures_do_not_poison_session() {
        let (reg, cfg) = harness();
        let (resp, _) = dispatch(
            &reg,
            &cfg,
            r#"{"op":"create_session","schema":[["a",3],["b",2]],"gamma":19.0,"shards":1}"#,
        );
        let sid = ok_of(&resp)
            .get("session")
            .and_then(json::Value::as_u64)
            .unwrap();
        // Second record is invalid; the batch errors in-band and the
        // error reports the accepted prefix (1 record) so the client
        // knows not to resubmit it.
        let (resp, _) = dispatch(
            &reg,
            &cfg,
            &format!(
                r#"{{"op":"submit","session":{sid},"records":[[0,0],[9,9]],"pre_perturbed":true}}"#
            ),
        );
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(false));
        assert_eq!(v.get("accepted").and_then(json::Value::as_u64), Some(1));
        // The session still works afterwards, and holds exactly the
        // accepted prefix.
        let (resp, _) = dispatch(
            &reg,
            &cfg,
            &format!(r#"{{"op":"submit","session":{sid},"records":[[1,1]],"pre_perturbed":true}}"#),
        );
        ok_of(&resp);
        let (resp, _) = dispatch(&reg, &cfg, &format!(r#"{{"op":"stats","session":{sid}}}"#));
        assert_eq!(
            ok_of(&resp).get("total").and_then(json::Value::as_u64),
            Some(2)
        );
    }

    #[test]
    fn metrics_op_reports_counters_and_latency() {
        let (reg, cfg) = harness();
        let (resp, _) = dispatch(
            &reg,
            &cfg,
            r#"{"op":"create_session","schema":[["a",3],["b",2]],"gamma":19.0,"shards":1}"#,
        );
        let sid = ok_of(&resp)
            .get("session")
            .and_then(json::Value::as_u64)
            .unwrap();
        let (resp, _) = dispatch(
            &reg,
            &cfg,
            &format!(
                r#"{{"op":"submit","session":{sid},"records":[[0,0],[1,1]],"pre_perturbed":true}}"#
            ),
        );
        ok_of(&resp);
        let (resp, _) = dispatch(
            &reg,
            &cfg,
            &format!(r#"{{"op":"reconstruct","session":{sid},"method":"closed"}}"#),
        );
        ok_of(&resp);

        let (resp, _) = dispatch(
            &reg,
            &cfg,
            &format!(r#"{{"op":"metrics","session":{sid}}}"#),
        );
        let v = ok_of(&resp);
        assert_eq!(
            v.get("records_ingested").and_then(json::Value::as_u64),
            Some(2)
        );
        assert_eq!(v.get("batches").and_then(json::Value::as_u64), Some(1));
        assert_eq!(
            v.get("reconstructions").and_then(json::Value::as_u64),
            Some(1)
        );
        let latency = v.get("query_latency").unwrap();
        assert_eq!(latency.get("count").and_then(json::Value::as_u64), Some(1));
        assert!(!latency
            .get("buckets")
            .and_then(json::Value::as_array)
            .unwrap()
            .is_empty());

        // list_sessions carries the summary detail.
        let (resp, _) = dispatch(&reg, &cfg, r#"{"op":"list_sessions"}"#);
        let v = ok_of(&resp);
        let detail = v.get("detail").and_then(json::Value::as_array).unwrap();
        assert_eq!(detail.len(), 1);
        assert_eq!(
            detail[0].get("total").and_then(json::Value::as_u64),
            Some(2)
        );
    }

    #[test]
    fn failed_eviction_spill_rolls_the_create_back() {
        // Point the persist "directory" at a regular file so every
        // snapshot write fails, then create past the cap: the create
        // must fail in-band, and the would-be victim must stay live and
        // ingesting (no silent data loss).
        let bogus = std::env::temp_dir().join(format!("frapp-bogus-dir-{}", std::process::id()));
        std::fs::write(&bogus, "i am a file, not a directory").unwrap();
        let cfg = ServiceConfig::default().with_persist_dir(&bogus);
        let reg = SessionRegistry::with_max_sessions(1);

        let create =
            r#"{"op":"create_session","schema":[["a",3],["b",2]],"gamma":19.0,"shards":1}"#;
        let (resp, _) = dispatch(&reg, &cfg, create);
        let first = ok_of(&resp)
            .get("session")
            .and_then(json::Value::as_u64)
            .unwrap();
        let (resp, _) = dispatch(
            &reg,
            &cfg,
            &format!(
                r#"{{"op":"submit","session":{first},"records":[[0,0]],"pre_perturbed":true}}"#
            ),
        );
        ok_of(&resp);

        let (resp, _) = dispatch(&reg, &cfg, create);
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(false));
        assert!(v
            .get("error")
            .and_then(json::Value::as_str)
            .unwrap()
            .contains("rolled back"));
        // The victim survived, is still the only session, and ingests.
        assert_eq!(reg.ids(), vec![first]);
        let (resp, _) = dispatch(
            &reg,
            &cfg,
            &format!(
                r#"{{"op":"submit","session":{first},"records":[[1,1]],"pre_perturbed":true}}"#
            ),
        );
        ok_of(&resp);
        std::fs::remove_file(&bogus).ok();
    }

    #[test]
    fn persist_all_reports_write_failures_in_band() {
        // An explicit persist must not claim success when snapshot
        // writes fail (the caller may be about to kill the server).
        let bogus = std::env::temp_dir().join(format!("frapp-bogus-pa-{}", std::process::id()));
        std::fs::write(&bogus, "a file, not a directory").unwrap();
        let cfg = ServiceConfig::default().with_persist_dir(&bogus);
        let reg = SessionRegistry::new();
        let (resp, _) = dispatch(
            &reg,
            &cfg,
            r#"{"op":"create_session","schema":[["a",3],["b",2]],"gamma":19.0,"shards":1}"#,
        );
        ok_of(&resp);
        let (resp, _) = dispatch(&reg, &cfg, r#"{"op":"persist"}"#);
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(false));
        assert!(v
            .get("error")
            .and_then(json::Value::as_str)
            .unwrap()
            .contains("failed"));
        std::fs::remove_file(&bogus).ok();
    }

    #[test]
    fn persist_without_a_directory_is_an_in_band_error() {
        let (reg, cfg) = harness();
        assert!(cfg.persist_dir.is_none());
        let (resp, _) = dispatch(&reg, &cfg, r#"{"op":"persist"}"#);
        let v = json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(false));
        assert!(v
            .get("error")
            .and_then(json::Value::as_str)
            .unwrap()
            .contains("no persistence directory"));
    }

    #[test]
    fn create_past_the_cap_reports_and_spills_the_evicted_session() {
        let dir = std::env::temp_dir().join(format!("frapp-evict-spill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = ServiceConfig::default().with_persist_dir(&dir);
        let reg = SessionRegistry::with_max_sessions(1);

        let create =
            r#"{"op":"create_session","schema":[["a",3],["b",2]],"gamma":19.0,"shards":1}"#;
        let (resp, _) = dispatch(&reg, &cfg, create);
        let first = ok_of(&resp)
            .get("session")
            .and_then(json::Value::as_u64)
            .unwrap();
        let (resp, _) = dispatch(
            &reg,
            &cfg,
            &format!(
                r#"{{"op":"submit","session":{first},"records":[[1,1]],"pre_perturbed":true}}"#
            ),
        );
        ok_of(&resp);

        // The second create evicts the first session and spills it.
        let (resp, _) = dispatch(&reg, &cfg, create);
        let v = ok_of(&resp);
        let evicted = v.get("evicted").and_then(json::Value::as_array).unwrap();
        assert_eq!(evicted[0].as_u64(), Some(first));
        let spilled = crate::persist::session_path(&dir, first);
        assert!(spilled.exists(), "evicted session must be spilled to disk");
        let recovered =
            crate::persist::load_session(&spilled, cfg.max_dense_domain, cfg.max_session_domain)
                .unwrap();
        assert_eq!(recovered.stats().total, 1);

        // Closing the spilled (no longer live) session deletes its
        // snapshot — otherwise its counts would resurrect on restart
        // with no way to ever remove them.
        let (resp, _) = dispatch(
            &reg,
            &cfg,
            &format!(r#"{{"op":"close_session","session":{first}}}"#),
        );
        assert_eq!(
            ok_of(&resp).get("closed").and_then(json::Value::as_bool),
            Some(true)
        );
        assert!(
            !spilled.exists(),
            "closing must delete the spilled snapshot"
        );

        // Closing a session deletes its snapshot.
        let second = v.get("session").and_then(json::Value::as_u64).unwrap();
        let (resp, _) = dispatch(
            &reg,
            &cfg,
            &format!(r#"{{"op":"persist","session":{second}}}"#),
        );
        ok_of(&resp);
        assert!(crate::persist::session_path(&dir, second).exists());
        let (resp, _) = dispatch(
            &reg,
            &cfg,
            &format!(r#"{{"op":"close_session","session":{second}}}"#),
        );
        ok_of(&resp);
        assert!(!crate::persist::session_path(&dir, second).exists());

        std::fs::remove_dir_all(&dir).ok();
    }
}
