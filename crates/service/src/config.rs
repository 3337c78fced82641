//! Server configuration.

use crate::fault::FaultPlan;
use std::path::PathBuf;

/// Configuration for a [`crate::server::Server`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Address to bind, e.g. `127.0.0.1:7878`. Port `0` asks the OS for
    /// an ephemeral port (the default, which suits tests).
    pub addr: String,
    /// Address for the HTTP/1.1 front-end, e.g. `127.0.0.1:7880`.
    /// `None` (the default) disables HTTP entirely; when set, the same
    /// dispatch core serves REST routes alongside the line protocol
    /// (see [`crate::http`]).
    pub http_addr: Option<String>,
    /// Most concurrent connections the server accepts, *across both
    /// transports*. Each connection owns one OS thread, so an unbounded
    /// accept loop would let N clients exhaust the process; connections
    /// past the cap are refused with an in-band error (line protocol)
    /// or `503` (HTTP) and counted as sheds in the transport metrics.
    pub max_connections: usize,
    /// Default number of ingest shards for sessions that do not specify
    /// one.
    pub default_shards: usize,
    /// Default base seed for sessions that do not specify one.
    pub default_seed: u64,
    /// Maximum accepted request-line length in bytes. Lines beyond this
    /// are rejected rather than buffered, bounding per-connection
    /// memory.
    pub max_line_bytes: usize,
    /// Largest domain size for which the server will build a dense LU
    /// factorization on demand; `reconstruct` requests with
    /// `method = "cached_lu"` against bigger sessions are refused
    /// (`closed` stays available at any size).
    pub max_dense_domain: usize,
    /// Largest schema domain a `create_session` request may declare.
    /// Every shard allocates one `f64` counter per domain cell, so an
    /// unbounded schema (`[["a", 4294967295]]`) would let a single
    /// request allocate tens of gigabytes. The default (2^24 cells)
    /// caps a shard's counter vector at 128 MiB.
    pub max_session_domain: usize,
    /// Most sessions the registry keeps live at once; creating a
    /// session past the cap evicts the least-recently-used one (after
    /// spilling it to the persistence directory, when configured).
    /// Bounds a long-lived server's memory.
    pub max_sessions: usize,
    /// Directory for session snapshots. When set, `Server::bind`
    /// recovers every snapshot found there, the `persist` op (and the
    /// periodic persister) write snapshots, LRU-evicted sessions are
    /// spilled before dropping, and a clean shutdown snapshots every
    /// live session. `None` disables persistence entirely.
    pub persist_dir: Option<PathBuf>,
    /// Seconds between automatic snapshots of every live session; `0`
    /// disables the periodic persister (on-demand `persist`, eviction
    /// spill and shutdown snapshots still run when `persist_dir` is
    /// set).
    pub persist_interval_secs: u64,
    /// Serve both transports from the nonblocking epoll/kqueue reactor
    /// ([`crate::reactor`], `frapp-serve --async`) instead of one OS
    /// thread per connection. The wire behaviour is bit-identical —
    /// same dispatch core, same framing — but concurrent-connection
    /// fan-in is no longer bounded by thread count: each reactor
    /// thread multiplexes every connection assigned to it.
    /// `max_connections` still caps admissions across transports.
    pub async_reactor: bool,
    /// Number of reactor event-loop threads when `async_reactor` is
    /// set. Each thread runs an independent epoll/kqueue instance;
    /// all of them poll both listeners, so accepted connections spread
    /// across reactors without a handoff queue. Ignored (and
    /// irrelevant) in thread-per-connection mode. Values below 1 are
    /// treated as 1.
    pub reactor_threads: usize,
    /// The full ordered federation peer list (`host:port` per node,
    /// *including this node*), identical on every node so all of them
    /// build the same consistent-hash ring. Empty (the default) runs a
    /// plain single-node server with no federation layer at all.
    pub peers: Vec<String>,
    /// Federation replication factor: how many owner nodes each
    /// session's ingest is spread across (clamped to the peer count).
    /// Ignored without `peers`.
    pub replication: usize,
    /// This node's index in `peers`. `None` asks `Server::bind` to
    /// locate `addr` in the peer list, which only works when `addr` is
    /// a literal match (tests binding port 0 must set this
    /// explicitly).
    pub node_id: Option<usize>,
    /// TCP connect timeout for outbound client/replication
    /// connections, in milliseconds (`0` = OS default, unbounded).
    pub connect_timeout_ms: u64,
    /// Read timeout for outbound client/replication connections, in
    /// milliseconds (`0` = none). Bounds how long a stalled peer can
    /// wedge a federation link or CLI call mid-response.
    pub read_timeout_ms: u64,
    /// Write timeout for outbound client/replication connections, in
    /// milliseconds (`0` = none). Bounds how long a peer that accepts
    /// the connection but stops draining its socket can wedge a
    /// federation link mid-send.
    pub write_timeout_ms: u64,
    /// Idle timeout for *inbound* connections on the threaded
    /// front-ends, in milliseconds (`0`, the default, disables
    /// reaping). A connection that sends no byte for this long is
    /// closed and counted in
    /// [`crate::wire::Counter::IdleReaped`], so stalled
    /// clients (slowloris) cannot pin `max_connections` slots forever.
    pub idle_timeout_ms: u64,
    /// Consecutive peer-link failures before the per-peer circuit
    /// breaker opens (health `down`): while open, sends fail fast
    /// without touching the socket until `breaker_cooldown_ms` elapses
    /// and a half-open probe is allowed through. The first failure
    /// already marks the peer `degraded`. Values below 1 are treated
    /// as 1.
    pub breaker_threshold: u32,
    /// How long an open circuit breaker back-pressures a peer link
    /// before allowing a half-open probe, in milliseconds.
    pub breaker_cooldown_ms: u64,
    /// Worker threads in the reactor's offload executor — the pool
    /// that runs dispatch (including federated fan-out and persistence
    /// I/O) off the event-loop threads. Ignored in
    /// thread-per-connection mode. Values below 1 are treated as 1.
    pub offload_threads: usize,
    /// Worker threads in the background-job pool ([`crate::jobs`]) that
    /// runs `mine_rules` / `classify` off the transport threads. Values
    /// below 1 are treated as 1.
    pub job_threads: usize,
    /// Most jobs the background-job submission queue holds; submits
    /// past the cap are shed with an in-band error instead of queueing
    /// unboundedly. Values below 1 are treated as 1.
    pub job_queue_depth: usize,
    /// Seconds a finished job (and its result) is retained before the
    /// lazy purge drops it; later `job_status` / `job_result` calls
    /// answer `unknown job`.
    pub job_result_ttl_secs: u64,
    /// The deterministic fault-injection plan (see [`crate::fault`]).
    /// Empty by default: no faults, no overhead. Populated via
    /// `frapp-serve --fault-plan` / `FRAPP_FAULT_PLAN` for soak and
    /// regression testing.
    pub fault_plan: FaultPlan,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            http_addr: None,
            max_connections: 1024,
            default_shards: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            default_seed: 0xF4A9,
            max_line_bytes: 8 << 20,
            max_dense_domain: 4096,
            max_session_domain: 1 << 24,
            max_sessions: 1024,
            persist_dir: None,
            persist_interval_secs: 0,
            async_reactor: false,
            reactor_threads: 1,
            peers: Vec::new(),
            replication: 1,
            node_id: None,
            connect_timeout_ms: 5_000,
            read_timeout_ms: 10_000,
            write_timeout_ms: 10_000,
            idle_timeout_ms: 0,
            breaker_threshold: 3,
            breaker_cooldown_ms: 1_000,
            offload_threads: 2,
            job_threads: 2,
            job_queue_depth: 16,
            job_result_ttl_secs: 600,
            fault_plan: FaultPlan::default(),
        }
    }
}

impl ServiceConfig {
    /// A config bound to a specific address.
    pub fn with_addr(addr: impl Into<String>) -> Self {
        ServiceConfig {
            addr: addr.into(),
            ..ServiceConfig::default()
        }
    }

    /// Enables snapshot persistence under `dir`.
    pub fn with_persist_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.persist_dir = Some(dir.into());
        self
    }

    /// Enables the HTTP front-end on `addr` (port `0` for ephemeral).
    pub fn with_http_addr(mut self, addr: impl Into<String>) -> Self {
        self.http_addr = Some(addr.into());
        self
    }

    /// Selects the epoll/kqueue reactor front-end with `threads`
    /// event-loop threads (clamped to at least 1).
    pub fn with_reactor(mut self, threads: usize) -> Self {
        self.async_reactor = true;
        self.reactor_threads = threads.max(1);
        self
    }

    /// Joins this node into a federation: `peers` is the full ordered
    /// peer list (identical on every node), `node_id` this node's index
    /// in it, and `replication` the owner count per session.
    pub fn with_peers(mut self, peers: Vec<String>, node_id: usize, replication: usize) -> Self {
        self.peers = peers;
        self.node_id = Some(node_id);
        self.replication = replication;
        self
    }

    /// Installs a fault-injection plan (see [`crate::fault`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Enables idle-connection reaping on the threaded front-ends.
    pub fn with_idle_timeout_ms(mut self, ms: u64) -> Self {
        self.idle_timeout_ms = ms;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServiceConfig::default();
        assert!(c.default_shards >= 1);
        assert!(c.max_line_bytes >= 1 << 20);
        assert_eq!(c.addr, "127.0.0.1:0");
        assert!(c.max_sessions >= 1);
        assert!(c.persist_dir.is_none());
        assert_eq!(c.persist_interval_secs, 0);
        assert!(c.http_addr.is_none());
        assert!(c.max_connections >= 64);
        assert!(!c.async_reactor);
        assert_eq!(c.reactor_threads, 1);
        assert!(c.peers.is_empty());
        assert_eq!(c.replication, 1);
        assert!(c.node_id.is_none());
        assert!(c.connect_timeout_ms > 0);
        assert!(c.read_timeout_ms > 0);
        assert!(c.write_timeout_ms > 0);
        assert_eq!(c.idle_timeout_ms, 0, "reaping must be opt-in");
        assert!(c.breaker_threshold >= 1);
        assert!(c.breaker_cooldown_ms > 0);
        assert!(c.offload_threads >= 1);
        assert!(c.job_threads >= 1);
        assert!(c.job_queue_depth >= 1);
        assert!(c.job_result_ttl_secs > 0);
        assert!(c.fault_plan.is_empty(), "no faults by default");
    }

    #[test]
    fn fault_plan_and_idle_timeout_builders() {
        let plan = FaultPlan::parse("seed=1,peer_send=drop:0.5").unwrap();
        let c = ServiceConfig::default()
            .with_fault_plan(plan)
            .with_idle_timeout_ms(250);
        assert!(!c.fault_plan.is_empty());
        assert_eq!(c.idle_timeout_ms, 250);
    }

    #[test]
    fn with_peers_joins_a_federation() {
        let peers = vec!["127.0.0.1:7001".to_owned(), "127.0.0.1:7002".to_owned()];
        let c = ServiceConfig::default().with_peers(peers.clone(), 1, 2);
        assert_eq!(c.peers, peers);
        assert_eq!(c.node_id, Some(1));
        assert_eq!(c.replication, 2);
    }

    #[test]
    fn with_reactor_selects_the_async_front_end() {
        let c = ServiceConfig::default().with_reactor(4);
        assert!(c.async_reactor);
        assert_eq!(c.reactor_threads, 4);
        assert_eq!(ServiceConfig::default().with_reactor(0).reactor_threads, 1);
    }

    #[test]
    fn with_http_addr_enables_the_http_front_end() {
        let c = ServiceConfig::default().with_http_addr("127.0.0.1:0");
        assert_eq!(c.http_addr.as_deref(), Some("127.0.0.1:0"));
    }

    #[test]
    fn with_persist_dir_sets_the_directory() {
        let c = ServiceConfig::default().with_persist_dir("/tmp/frapp-snapshots");
        assert_eq!(
            c.persist_dir.as_deref(),
            Some(std::path::Path::new("/tmp/frapp-snapshots"))
        );
    }
}
