//! The wire surface, declared once.
//!
//! Plain `static` data: every op the server answers ([`OPS`]: its name,
//! its HTTP routes, the id it binds, the query keys it accepts), every
//! server-wide and per-peer counter it exports ([`COUNTERS`],
//! [`PEER_COUNTERS`]: JSON section and key, Prometheus family, kind)
//! and the binary framing's opcode and flag bytes ([`WIRE_CONSTS`]).
//! Every consumer reads these tables instead of keeping a copy: op-name
//! resolution in [`crate::protocol`], `(method, path)` resolution in
//! [`crate::http`], the request encoders behind both clients
//! ([`crate::client`]), counter storage and all four renderings
//! ([`crate::metrics`], the `metrics` response writer and parser, the
//! Prometheus exposition, `frapp-client server-metrics`), and the test
//! that holds `docs/PROTOCOL.md` to them in both directions
//! (`tests/wire_table.rs`).
//!
//! What an op *means* is not here: its [`crate::protocol::Request`]
//! variant and field parser, its `execute` arm in [`crate::dispatch`]
//! and its typed client method are the three places that know.

/// How the HTTP front-end reads a query-string value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Verbatim, as a JSON string.
    Text,
    /// `true`/`1`/`false`/`0`, as a JSON boolean.
    Bool,
}

/// One op of the protocol.
#[derive(Debug, Clone, Copy)]
pub struct OpRow {
    /// The op's position in [`OPS`].
    pub op: Op,
    /// The `"op"` discriminator on the line protocol.
    pub name: &'static str,
    /// The request field carrying the id the op binds (`session` or
    /// `job`); HTTP carries the same id as `{id}` in the path.
    pub id: Option<&'static str>,
    /// HTTP routes as `(method, path pattern)`; none for
    /// connection-oriented and peer-only ops. A client uses the first
    /// whose pattern has an `{id}` exactly when it sends one.
    pub routes: &'static [(&'static str, &'static str)],
    /// Request fields HTTP carries in the query string, not the body.
    pub query: &'static [(&'static str, QueryKind)],
}

/// Index of an op in [`OPS`].
#[repr(usize)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // each variant is its row's `name`, described in docs/PROTOCOL.md
pub enum Op {
    Ping,
    CreateSession,
    Submit,
    Flush,
    Reconstruct,
    Counts,
    Stats,
    Metrics,
    ListSessions,
    Persist,
    CloseSession,
    ClusterStatus,
    ReplStatus,
    Hello,
    MineRules,
    Classify,
    JobStatus,
    JobResult,
    JobCancel,
    ListJobs,
    Shutdown,
}

impl Op {
    /// The op's table row.
    pub const fn row(self) -> &'static OpRow {
        &OPS[self as usize]
    }
}

const fn op(
    op: Op,
    name: &'static str,
    id: Option<&'static str>,
    routes: &'static [(&'static str, &'static str)],
    query: &'static [(&'static str, QueryKind)],
) -> OpRow {
    OpRow {
        op,
        name,
        id,
        routes,
        query,
    }
}

const SESSION: Option<&str> = Some("session");
const JOB: Option<&str> = Some("job");
const PARTIAL: (&str, QueryKind) = ("allow_partial", QueryKind::Bool);

/// Every op, in [`Op`] order.
#[rustfmt::skip]
pub static OPS: [OpRow; 21] = [
    op(Op::Ping,          "ping",           None,    &[("GET", "/ping")], &[]),
    op(Op::CreateSession, "create_session", None,    &[("POST", "/sessions")], &[]),
    op(Op::Submit,        "submit",         SESSION, &[("POST", "/sessions/{id}/records")], &[]),
    op(Op::Flush,         "flush",          None,    &[], &[]),
    op(Op::Reconstruct,   "reconstruct",    SESSION, &[("GET", "/sessions/{id}/reconstruct")],
        &[("method", QueryKind::Text), ("clamp", QueryKind::Bool), PARTIAL]),
    op(Op::Counts,        "counts",         SESSION, &[("GET", "/sessions/{id}/counts")], &[PARTIAL]),
    op(Op::Stats,         "stats",          SESSION,
        &[("GET", "/sessions/{id}/stats"), ("GET", "/sessions/{id}")], &[PARTIAL]),
    op(Op::Metrics,       "metrics",        SESSION,
        &[("GET", "/sessions/{id}/metrics"), ("GET", "/metrics")], &[]),
    op(Op::ListSessions,  "list_sessions",  None,    &[("GET", "/sessions")], &[]),
    op(Op::Persist,       "persist",        SESSION,
        &[("POST", "/sessions/{id}/persist"), ("POST", "/persist")], &[]),
    op(Op::CloseSession,  "close_session",  SESSION, &[("DELETE", "/sessions/{id}")], &[]),
    op(Op::ClusterStatus, "cluster_status", None,    &[("GET", "/cluster")], &[]),
    op(Op::ReplStatus,    "repl_status",    SESSION, &[], &[]),
    op(Op::Hello,         "hello",          None,    &[], &[]),
    op(Op::MineRules,     "mine_rules",     SESSION, &[("POST", "/sessions/{id}/mine")], &[]),
    op(Op::Classify,      "classify",       SESSION, &[("POST", "/sessions/{id}/classify")], &[]),
    op(Op::JobStatus,     "job_status",     JOB,     &[("GET", "/jobs/{id}")], &[]),
    op(Op::JobResult,     "job_result",     JOB,     &[("GET", "/jobs/{id}/result")], &[]),
    op(Op::JobCancel,     "job_cancel",     JOB,     &[("DELETE", "/jobs/{id}")], &[]),
    op(Op::ListJobs,      "list_jobs",      None,    &[("GET", "/jobs")], &[]),
    op(Op::Shutdown,      "shutdown",       None,    &[], &[]),
];

/// Whether a counter only grows or can fall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic.
    Counter,
    /// A current level.
    Gauge,
}

impl Kind {
    /// The Prometheus `# TYPE`.
    pub const fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// One exported counter; `Id` is [`Counter`] or [`PeerCounter`].
#[derive(Debug, Clone, Copy)]
pub struct CounterRow<Id> {
    /// The counter's position in its table.
    pub id: Id,
    /// The object of the `metrics` response that holds it.
    pub section: &'static str,
    /// Its key inside that object.
    pub key: &'static str,
    /// Its Prometheus family name.
    pub family: &'static str,
    /// Counter or gauge.
    pub kind: Kind,
}

/// Index of a server-wide counter in [`COUNTERS`]. The `jobs_*` five
/// track [`crate::jobs`]: a shed submit counts in `JobsShed` only, and
/// every submitted job ends in exactly one of completed, failed,
/// cancelled. The `Reactor*` four stay zero under thread-per-connection.
#[repr(usize)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Line-protocol connections accepted.
    TcpConnections,
    /// HTTP connections accepted.
    HttpConnections,
    /// Connections that negotiated the binary framing (also counted in
    /// `TcpConnections`).
    BinaryConnections,
    /// Line-protocol requests dispatched.
    TcpRequests,
    /// HTTP requests dispatched.
    HttpRequests,
    /// Requests that arrived as binary frames (also counted in
    /// `TcpRequests`).
    BinaryRequests,
    /// Deferred-ack submit batches received.
    DeferredBatches,
    /// Connections refused at the `max_connections` cap.
    Sheds,
    /// Failed `accept` calls across all listeners.
    AcceptErrors,
    /// Idle connections closed by the slowloris guard.
    IdleReaped,
    /// Background jobs accepted into the queue.
    JobsSubmitted,
    /// Jobs that reached `done`.
    JobsCompleted,
    /// Jobs that reached `failed`.
    JobsFailed,
    /// Jobs that reached `cancelled`.
    JobsCancelled,
    /// Job submissions refused at the queue-depth cap.
    JobsShed,
    /// Descriptors registered with the reactor pollers right now
    /// (listeners and connections).
    ReactorRegisteredFds,
    /// Reactor poll returns (event batches and timeouts).
    ReactorWakeups,
    /// Readable events that left an incomplete frame buffered.
    ReactorPartialReads,
    /// Writes that could not flush the whole output buffer.
    ReactorPartialWrites,
}

const fn row<Id>(
    id: Id,
    section: &'static str,
    key: &'static str,
    family: &'static str,
    kind: Kind,
) -> CounterRow<Id> {
    CounterRow {
        id,
        section,
        key,
        family,
        kind,
    }
}

// Column shorthands for the two tables below.
const C: Kind = Kind::Counter;
const G: Kind = Kind::Gauge;

/// Every server-wide counter, in [`Counter`] order, which is the key
/// order of the `metrics` response.
#[rustfmt::skip]
pub static COUNTERS: [CounterRow<Counter>; 19] = [
    row(Counter::TcpConnections,       "transport", "tcp_connections",    "frapp_tcp_connections_total", C),
    row(Counter::HttpConnections,      "transport", "http_connections",   "frapp_http_connections_total", C),
    row(Counter::BinaryConnections,    "transport", "binary_connections", "frapp_binary_connections_total", C),
    row(Counter::TcpRequests,          "transport", "tcp_requests",       "frapp_tcp_requests_total", C),
    row(Counter::HttpRequests,         "transport", "http_requests",      "frapp_http_requests_total", C),
    row(Counter::BinaryRequests,       "transport", "binary_requests",    "frapp_binary_requests_total", C),
    row(Counter::DeferredBatches,      "transport", "deferred_batches",   "frapp_deferred_batches_total", C),
    row(Counter::Sheds,                "transport", "sheds",              "frapp_sheds_total", C),
    row(Counter::AcceptErrors,         "transport", "accept_errors",      "frapp_accept_errors_total", C),
    row(Counter::IdleReaped,           "transport", "idle_reaped",        "frapp_idle_reaped_total", C),
    row(Counter::JobsSubmitted,        "transport", "jobs_submitted",     "frapp_jobs_submitted_total", C),
    row(Counter::JobsCompleted,        "transport", "jobs_completed",     "frapp_jobs_completed_total", C),
    row(Counter::JobsFailed,           "transport", "jobs_failed",        "frapp_jobs_failed_total", C),
    row(Counter::JobsCancelled,        "transport", "jobs_cancelled",     "frapp_jobs_cancelled_total", C),
    row(Counter::JobsShed,             "transport", "jobs_shed",          "frapp_jobs_shed_total", C),
    row(Counter::ReactorRegisteredFds, "reactor",   "registered_fds",     "frapp_reactor_registered_fds", G),
    row(Counter::ReactorWakeups,       "reactor",   "wakeups",            "frapp_reactor_wakeups_total", C),
    row(Counter::ReactorPartialReads,  "reactor",   "partial_reads",      "frapp_reactor_partial_reads_total", C),
    row(Counter::ReactorPartialWrites, "reactor",   "partial_writes",     "frapp_reactor_partial_writes_total", C),
];

/// Index of a per-peer replication counter in [`PEER_COUNTERS`].
#[repr(usize)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerCounter {
    /// Replication batches queued toward the peer.
    ForwardedBatches,
    /// Records inside those batches.
    ForwardedRecords,
    /// Records the peer has acknowledged.
    AckedRecords,
    /// Batches resent during anti-entropy resync.
    Retries,
    /// Observed peer failures (refused connects, dropped links).
    PeerDown,
    /// Replay batches the link holds in memory right now, bounded by
    /// the peer's durable watermarks.
    HistoryBatches,
    /// Times the link's circuit breaker opened.
    BreakerTrips,
    /// The link's [`crate::metrics::PeerHealth`]: 0 up, 1 degraded,
    /// 2 down. The JSON response carries its wire name instead.
    Health,
}

/// The object of the `metrics` response that lists the peers.
pub const PEER_SECTION: &str = "federation";

/// Every per-peer counter, in [`PeerCounter`] order, which is the key
/// order of a `federation.peers` entry after `node` and `addr`.
#[rustfmt::skip]
pub static PEER_COUNTERS: [CounterRow<PeerCounter>; 8] = [
    row(PeerCounter::ForwardedBatches, PEER_SECTION, "forwarded_batches", "frapp_peer_forwarded_batches_total", C),
    row(PeerCounter::ForwardedRecords, PEER_SECTION, "forwarded_records", "frapp_peer_forwarded_records_total", C),
    row(PeerCounter::AckedRecords,     PEER_SECTION, "acked_records",     "frapp_peer_acked_records_total", C),
    row(PeerCounter::Retries,          PEER_SECTION, "retries",           "frapp_peer_retries_total", C),
    row(PeerCounter::PeerDown,         PEER_SECTION, "peer_down",         "frapp_peer_down_total", C),
    row(PeerCounter::HistoryBatches,   PEER_SECTION, "history_batches",   "frapp_peer_history_batches", G),
    row(PeerCounter::BreakerTrips,     PEER_SECTION, "breaker_trips",     "frapp_peer_breaker_trips_total", C),
    row(PeerCounter::Health,           PEER_SECTION, "health",            "frapp_peer_health", G),
];

/// Frame opcode: a compact binary submit (`docs/PROTOCOL.md` §6.3).
pub const OP_SUBMIT: u8 = 0x01;
/// Frame opcode: one JSON request or response object, UTF-8.
pub const OP_JSON: u8 = 0x02;
/// Submit flag: the records were perturbed client-side.
pub const FLAG_PRE_PERTURBED: u8 = 0x01;
/// Submit flag: deferred ack, no response frame.
pub const FLAG_DEFERRED: u8 = 0x02;
/// Submit flag: an explicit target shard follows the session id.
pub const FLAG_HAS_SHARD: u8 = 0x04;
/// Submit flag: a federation replication stamp (`origin`, `seq`)
/// follows.
pub const FLAG_HAS_STAMP: u8 = 0x08;
/// Submit flag: cells are fixed-width `u32` little-endian, not varints.
pub const FLAG_FIXED32: u8 = 0x10;

/// The binary framing's documented bytes, by name.
pub static WIRE_CONSTS: [(&str, u8); 7] = [
    ("OP_SUBMIT", OP_SUBMIT),
    ("OP_JSON", OP_JSON),
    ("FLAG_PRE_PERTURBED", FLAG_PRE_PERTURBED),
    ("FLAG_DEFERRED", FLAG_DEFERRED),
    ("FLAG_HAS_SHARD", FLAG_HAS_SHARD),
    ("FLAG_HAS_STAMP", FLAG_HAS_STAMP),
    ("FLAG_FIXED32", FLAG_FIXED32),
];

// Rows are found by discriminant, so each table must list its rows in
// enum order.
const _: () = {
    let mut i = 0;
    while i < OPS.len() {
        assert!(OPS[i].op as usize == i);
        i += 1;
    }
    let mut i = 0;
    while i < COUNTERS.len() {
        assert!(COUNTERS[i].id as usize == i);
        i += 1;
    }
    let mut i = 0;
    while i < PEER_COUNTERS.len() {
        assert!(PEER_COUNTERS[i].id as usize == i);
        i += 1;
    }
};
