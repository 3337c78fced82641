//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response per line, over a plain TCP
//! stream. Requests are objects with an `"op"` discriminator, e.g.
//! `{"op":"stats","session":1}`; [`crate::wire::OPS`] lists every op
//! and `docs/PROTOCOL.md` specifies each one's fields.
//!
//! ## Federation fields
//!
//! When the server runs federated (`--peers`), peers talk the same
//! protocol with two extra fields. `create_session` accepts an
//! explicit `"session":N` (the coordinator's cluster-unique id, so
//! every node registers the same session under the same id). Forwarded
//! batches are not JSON at all: they travel as binary `OP_SUBMIT`
//! frames stamped with the sending node's index and its per-session
//! sequence number ([`crate::framing`]), and a JSON `submit` carrying
//! `origin` or `seq` is refused. `close_session` accepts
//! `"local":true` to close only on the receiving node (the fan-out
//! form; without it a federated server closes cluster-wide), and
//! `counts` accepts it to answer with the receiving node's own
//! partition (a coordinator's partition read). `repl_status` returns a
//! node's per-shard replication watermarks for an origin;
//! `cluster_status` describes the topology and per-peer link health. Standalone servers reject none of these fields but treat
//! every session as locally owned.
//!
//! Responses always carry `"ok"`: `{"ok":true, ...}` on success,
//! `{"ok":false,"error":"..."}` on failure. The error never tears down
//! the connection — clients may pipeline further requests. A failed
//! `submit` additionally carries `"accepted"`: how many records at the
//! front of the batch were counted before the failure, so a retrying
//! client resubmits only the remainder (see
//! [`crate::client::Client::submit_batch`] for the full retry
//! contract).
//!
//! ## Pipelined submits
//!
//! A `submit` with `"ack":"deferred"` is *not* answered: the server
//! ingests it and remembers the cumulative accepted count on the
//! connection, so a client can stream many batches without paying one
//! round-trip each. `{"op":"flush"}` answers with the watermark:
//! `{"ok":true,"accepted":N,"batches":B}` where `N` counts every record
//! accepted since the last flush. If any deferred batch failed, later
//! deferred batches are *dropped* (not ingested) until the flush, which
//! then reports `{"ok":false,"error":...,"accepted":N,"batches":B}` —
//! `accepted` is still a contiguous prefix of the submitted stream, so
//! the PR 2 retry contract lifts unchanged to pipelining: resubmit
//! everything after the first `N` records. Any synchronous op arriving
//! with deferred state pending carries `"deferred_accepted"` (and
//! `"deferred_error"`, if one is stashed) on its own response, so the
//! watermark is never silently lost. A `metrics` request *without* a
//! session id reports the server's per-transport counters instead of
//! session counters.
//!
//! The same ops are also exposed over HTTP/1.1 by
//! [`crate::http`] (except `shutdown` and deferred acks, which are
//! connection-oriented).

use crate::error::{Result, ServiceError};
use crate::jobs::{MineAlgo, MineSpec};
use crate::json::{self, object, Fields, Value};
use crate::metrics::{LatencySummary, MetricsReport, PeerReplReport, TransportReport};
use crate::session::{
    Mechanism, Placement, Reconstruction, ReconstructionMethod, SessionStats, SessionSummary,
};
use crate::wire::{Op, PeerCounter, COUNTERS, OPS, PEER_COUNTERS, PEER_SECTION};
use frapp_core::CountAccumulator;

/// A batch of records in one flat `u32` buffer.
///
/// The wire layer parses `"records":[[..],[..]]` straight into one
/// values vector plus an offsets vector (`offsets[i]..offsets[i+1]`
/// delimits record `i`), instead of allocating a `Vec<u32>` per record.
/// Records may be ragged — length validation happens against the
/// session schema at ingest, preserving the partial-batch contract.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordBatch {
    values: Vec<u32>,
    /// `len + 1` entries; `offsets[0] == 0`.
    offsets: Vec<usize>,
}

/// Same as [`RecordBatch::new`] — a derived `Default` would produce an
/// empty `offsets`, violating the `len + 1` invariant.
impl Default for RecordBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl RecordBatch {
    /// An empty batch.
    pub fn new() -> Self {
        RecordBatch {
            values: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Builds a batch from per-record rows (test/client convenience).
    pub fn from_rows(rows: &[Vec<u32>]) -> Self {
        let mut batch = RecordBatch::new();
        for row in rows {
            batch.push(row);
        }
        batch
    }

    /// A rectangular batch over a row-major cell grid: record `i` is
    /// `values[i·arity..(i+1)·arity]`, the offsets written
    /// arithmetically. The binary `OP_SUBMIT` decoder builds its batch
    /// here. `arity` must divide `values.len()`, and may be zero only
    /// for an empty grid.
    pub(crate) fn from_grid(values: Vec<u32>, arity: usize) -> Self {
        let n_records = values.len().checked_div(arity).unwrap_or(0);
        assert_eq!(n_records * arity, values.len(), "a grid is rectangular");
        RecordBatch {
            values,
            offsets: (0..=n_records).map(|i| i * arity).collect(),
        }
    }

    /// Appends one record.
    pub fn push(&mut self, record: &[u32]) {
        self.values.extend_from_slice(record);
        self.offsets.push(self.values.len());
    }

    /// Appends one cell to the record currently being built (see
    /// [`Self::end_record`]) — the streaming construction the request
    /// decoder uses.
    pub fn push_cell(&mut self, value: u32) {
        self.values.push(value);
    }

    /// Closes the record currently being built: everything pushed via
    /// [`Self::push_cell`] since the last `end_record` (or since
    /// construction) becomes one record.
    pub fn end_record(&mut self) {
        self.offsets.push(self.values.len());
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record `i` as a slice. Panics if `i >= len()`, like std `Index`.
    pub fn get(&self, i: usize) -> &[u32] {
        // analyze: allow(panic_path): documented std-Index semantics; wire paths use `iter`
        &self.values[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Iterates the records as slices.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u32]> {
        self.offsets
            .iter()
            .zip(self.offsets.iter().skip(1))
            .map(|(&start, &end)| &self.values[start..end])
    }
}

/// A wire framing a connection can speak on the raw-TCP port.
///
/// Connections start in [`WireFraming::Json`] (newline-delimited JSON)
/// and may switch with `{"op":"hello","framing":"binary"}`; the hello
/// acknowledgement is sent in the *old* framing, and every subsequent
/// byte in both directions uses the new one. The binary framing is
/// speced normatively in `docs/PROTOCOL.md` and implemented by
/// [`crate::framing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFraming {
    /// One JSON object per `\n`-terminated line (the default).
    Json,
    /// Length-prefixed binary frames (`opcode`, varint length, payload).
    Binary,
}

impl WireFraming {
    /// The wire-level name used in `hello` negotiation.
    pub fn wire_name(self) -> &'static str {
        match self {
            WireFraming::Json => "line",
            WireFraming::Binary => "binary",
        }
    }

    /// Parses a `hello` framing name.
    pub fn from_wire(name: &str) -> Result<Self> {
        match name {
            "line" | "json" => Ok(WireFraming::Json),
            "binary" => Ok(WireFraming::Binary),
            other => Err(ServiceError::InvalidRequest(format!(
                "unknown framing `{other}` (expected line|binary)"
            ))),
        }
    }
}

/// A decoded `submit`: what the JSON request decoder and the binary
/// `OP_SUBMIT` decoder both build.
#[derive(Debug, Clone, PartialEq)]
pub struct Submit {
    /// Target session id.
    pub session: u64,
    /// The records, as one flat buffer.
    pub records: RecordBatch,
    /// Whether the records were already perturbed client-side.
    pub pre_perturbed: bool,
    /// Where the batch lands: pinned by a `shard` hint, stamped
    /// `origin`/`seq` by a forwarding federation node (binary frames
    /// only), or neither.
    pub placement: Placement,
    /// `"ack":"deferred"` — do not answer this submit; accumulate
    /// its accepted count into the connection's watermark instead
    /// (reported by `flush` or the next synchronous op).
    pub deferred: bool,
}

/// The placement a submit's optional `shard` hint asks for.
pub(crate) fn placement(shard: Option<usize>) -> Placement {
    shard.map_or(Placement::RoundRobin, Placement::Shard)
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Create a collection session.
    CreateSession {
        /// `(name, cardinality)` per attribute.
        schema: Vec<(String, u32)>,
        /// Perturbation mechanism for server-side perturbation and
        /// reconstruction.
        mechanism: Mechanism,
        /// Ingest shard count (server default when `None`).
        shards: Option<usize>,
        /// Base RNG seed (server default when `None`).
        seed: Option<u64>,
        /// Explicit session id (federation: the coordinator allocates a
        /// cluster-unique id and replicates the create under it).
        session: Option<u64>,
    },
    /// Ingest a batch of records.
    Submit(Submit),
    /// Report (and reset) the connection's deferred-submit watermark.
    Flush,
    /// Reconstruct the original distribution estimate.
    Reconstruct {
        /// Target session id.
        session: u64,
        /// Solver choice.
        method: ReconstructionMethod,
        /// Apply non-negativity clamping + rescale to `N`.
        clamp: bool,
        /// Federation: answer from the reachable owner partitions when
        /// some owners are down (the response is then tagged
        /// `"degraded":true` with a coverage report) instead of
        /// erroring. Ignored on single-node servers.
        allow_partial: bool,
    },
    /// The session's perturbed counts with its record total and γ,
    /// from which a client solves the closed form itself.
    Counts {
        /// Target session id.
        session: u64,
        /// Federation: tolerate unreachable owners, as on
        /// [`Request::Reconstruct`].
        allow_partial: bool,
        /// Federation: answer this node's own partition only. Set on
        /// a coordinator's partition read so owners do not fan out in
        /// turn.
        local: bool,
    },
    /// Ingest statistics for a session.
    Stats {
        /// Target session id.
        session: u64,
        /// Federation: tolerate unreachable owners, as on
        /// [`Request::Reconstruct`].
        allow_partial: bool,
    },
    /// Operational metrics for a session (ingest rate, reconstruction
    /// count, query-latency histogram), or — with no session id — the
    /// server's per-transport counters.
    Metrics {
        /// Target session id; `None` asks for server transport metrics.
        session: Option<u64>,
    },
    /// Ids and summaries of all live sessions.
    ListSessions,
    /// Snapshot one session (or all, when `session` is omitted) to the
    /// server's persistence directory.
    Persist {
        /// Target session id; `None` persists every live session.
        session: Option<u64>,
    },
    /// Drop a session and its counts.
    CloseSession {
        /// Target session id.
        session: u64,
        /// Federation: close only on the receiving node. Set on the
        /// fanned-out form so peers do not re-federate the close.
        local: bool,
    },
    /// Federation: topology and per-peer link health.
    ClusterStatus,
    /// Federation: per-shard replication watermarks for an origin node
    /// (what a reconnecting forwarder uses to resend exactly the gap).
    ReplStatus {
        /// Target session id.
        session: u64,
        /// The forwarding node's peer index.
        origin: u64,
    },
    /// Negotiate the connection's wire framing (line protocol only; the
    /// acknowledgement is sent in the old framing before switching).
    Hello {
        /// The framing to switch to.
        framing: WireFraming,
    },
    /// Submit a background association-rule-mining job over the
    /// session's reconstructed distribution; answers immediately with a
    /// job id (see [`crate::jobs`]).
    MineRules {
        /// Target session id.
        session: u64,
        /// Algorithm and thresholds.
        spec: MineSpec,
    },
    /// Submit a background Bayes-classifier job; answers immediately
    /// with a job id.
    Classify {
        /// Target session id.
        session: u64,
        /// The class attribute to predict.
        target: AttrRef,
    },
    /// A job's current state and progress counters.
    JobStatus {
        /// Job id returned by `mine_rules` / `classify`.
        job: u64,
    },
    /// A finished job's result payload.
    JobResult {
        /// Job id.
        job: u64,
    },
    /// Cancel a job: immediately while queued, cooperatively (between
    /// mining levels) while running.
    JobCancel {
        /// Job id.
        job: u64,
    },
    /// Status summaries of every tracked job, ascending by id.
    ListJobs,
    /// Stop the server (used by tests and the load generator).
    Shutdown,
}

/// A reference to a schema attribute: by zero-based position, or by
/// name (resolved against the session's schema at execution time).
#[derive(Debug, Clone, PartialEq)]
pub enum AttrRef {
    /// Zero-based attribute index.
    Index(usize),
    /// Attribute name.
    Name(String),
}

fn require<'v>(v: &'v Fields, key: &str) -> Result<&'v Value> {
    v.get(key)
        .ok_or_else(|| ServiceError::InvalidRequest(format!("missing field `{key}`")))
}

fn field_u64(v: &Fields, key: &str) -> Result<u64> {
    require(v, key)?.as_u64().ok_or_else(|| {
        ServiceError::InvalidRequest(format!("field `{key}` must be a non-negative integer"))
    })
}

fn field_f64(v: &Fields, key: &str) -> Result<f64> {
    require(v, key)?
        .as_f64()
        .ok_or_else(|| ServiceError::InvalidRequest(format!("field `{key}` must be a number")))
}

fn optional_bool(v: &Fields, key: &str, default: bool) -> Result<bool> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(val) => val.as_bool().ok_or_else(|| {
            ServiceError::InvalidRequest(format!("field `{key}` must be a boolean"))
        }),
    }
}

/// A `[[name, cardinality], ...]` schema member, as `create_session`
/// and a session snapshot carry it.
pub(crate) fn parse_schema(v: &Fields) -> Result<Vec<(String, u32)>> {
    let arr = require(v, "schema")?
        .as_array()
        .ok_or_else(|| ServiceError::InvalidRequest("`schema` must be an array".into()))?;
    arr.iter()
        .map(|attr| {
            let pair = attr.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                ServiceError::InvalidRequest(
                    "each schema attribute must be a [name, cardinality] pair".into(),
                )
            })?;
            let name = pair.first().and_then(Value::as_str).ok_or_else(|| {
                ServiceError::InvalidRequest("attribute name must be a string".into())
            })?;
            let card = pair
                .get(1)
                .and_then(Value::as_u64)
                .filter(|&c| c > 0 && c <= u32::MAX as u64)
                .ok_or_else(|| {
                    ServiceError::InvalidRequest(
                        "attribute cardinality must be a positive integer".into(),
                    )
                })?;
            Ok((name.to_owned(), card as u32))
        })
        .collect()
}

fn parse_mechanism(v: &Fields) -> Result<Mechanism> {
    let kind = v.get("mechanism").and_then(Value::as_str).unwrap_or("det");
    let gamma = match v.get("gamma") {
        Some(g) => g
            .as_f64()
            .ok_or_else(|| ServiceError::InvalidRequest("`gamma` must be a number".into()))?,
        None => {
            // Fall back to a (rho1, rho2) amplification requirement.
            let rho1 = field_f64(v, "rho1")?;
            let rho2 = field_f64(v, "rho2")?;
            frapp_core::PrivacyRequirement::new(rho1, rho2)
                .map_err(ServiceError::from)?
                .gamma()
        }
    };
    match kind {
        "det" => Ok(Mechanism::Deterministic { gamma }),
        "ran" => {
            let alpha_fraction = match v.get("alpha_fraction") {
                None | Some(Value::Null) => 0.5,
                Some(a) => a.as_f64().ok_or_else(|| {
                    ServiceError::InvalidRequest("`alpha_fraction` must be a number".into())
                })?,
            };
            Ok(Mechanism::Randomized {
                gamma,
                alpha_fraction,
            })
        }
        other => Err(ServiceError::InvalidRequest(format!(
            "unknown mechanism `{other}` (expected det|ran)"
        ))),
    }
}

/// The tree walk that read `records` before [`read_request`] decoded
/// them in place, kept as the reference its tests compare against.
#[cfg(test)]
pub(crate) fn parse_records(v: &Value) -> Result<RecordBatch> {
    let arr = v
        .get("records")
        .ok_or_else(|| invalid("missing field `records`"))?
        .as_array()
        .ok_or_else(|| ServiceError::InvalidRequest("`records` must be an array".into()))?;
    let mut batch = RecordBatch::new();
    let mut row = Vec::new();
    for rec in arr {
        let cells = rec
            .as_array()
            .ok_or_else(|| ServiceError::InvalidRequest("each record must be an array".into()))?;
        row.clear();
        for cell in cells {
            let c = cell
                .as_u64()
                .filter(|&c| c <= u32::MAX as u64)
                .ok_or_else(|| {
                    ServiceError::InvalidRequest(
                        "record values must be non-negative integers".into(),
                    )
                })?;
            row.push(c as u32);
        }
        batch.push(&row);
    }
    Ok(batch)
}

fn optional_u64(v: &Fields, key: &str) -> Result<Option<u64>> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(s) => s.as_u64().map(Some).ok_or_else(|| {
            ServiceError::InvalidRequest(format!("`{key}` must be a non-negative integer"))
        }),
    }
}

/// Builds a `create_session` request from its JSON fields.
fn parse_create_session(v: &Fields) -> Result<Request> {
    Ok(Request::CreateSession {
        schema: parse_schema(v)?,
        mechanism: parse_mechanism(v)?,
        shards: match v.get("shards") {
            None | Some(Value::Null) => None,
            Some(s) => Some(s.as_usize().filter(|&s| s > 0).ok_or_else(|| {
                ServiceError::InvalidRequest("`shards` must be a positive integer".into())
            })?),
        },
        seed: optional_u64(v, "seed")?,
        session: optional_u64(v, "session")?,
    })
}

/// Builds a `submit` request for `session` from the batch fields and
/// the decoded `records`. `allow_deferred` is false for HTTP, whose
/// request/response pairing cannot leave a request unanswered.
fn parse_submit(
    v: &Fields,
    records: Option<Result<RecordBatch>>,
    session: u64,
    allow_deferred: bool,
) -> Result<Request> {
    let deferred = match v.get("ack").and_then(Value::as_str) {
        None | Some("sync") => false,
        Some("deferred") => true,
        Some(other) => {
            return Err(ServiceError::InvalidRequest(format!(
                "unknown ack mode `{other}` (expected sync|deferred)"
            )))
        }
    };
    if deferred && !allow_deferred {
        return Err(ServiceError::InvalidRequest(
            "deferred acks are not available on this transport; \
             use the line protocol for pipelined submits"
                .into(),
        ));
    }
    // Replication stamps travel only in binary frames; a JSON body that
    // carried one could raise a shard's dedup mark above the real
    // forwards, which would then be acked as duplicates and never count.
    if v.get("origin").is_some() || v.get("seq").is_some() {
        return Err(ServiceError::InvalidRequest(
            "`origin` and `seq` are not submit fields; replicated batches travel \
             only as stamped binary OP_SUBMIT frames"
                .into(),
        ));
    }
    let records = records.unwrap_or_else(|| Err(invalid("missing field `records`")))?;
    let pre_perturbed = optional_bool(v, "pre_perturbed", false)?;
    let shard = match v.get("shard") {
        None | Some(Value::Null) => None,
        Some(s) => Some(s.as_usize().ok_or_else(|| {
            ServiceError::InvalidRequest("`shard` must be a non-negative integer".into())
        })?),
    };
    Ok(Request::Submit(Submit {
        session,
        records,
        pre_perturbed,
        placement: placement(shard),
        deferred,
    }))
}

/// Reads one JSON request document member by member: `records`
/// decodes straight into a [`RecordBatch`], and every other member
/// becomes a small [`Value`] field, in document order. A document that
/// is not an object has no fields. Every JSON request decodes here: a
/// line, an [`OP_JSON`](crate::framing) frame and an HTTP body.
///
/// The first `records` member counts, as with [`Value::get`]; a later
/// one is only checked for syntax. A `records` value that is valid JSON
/// but no batch comes back as its error, for [`build_request`] to
/// report where it checks records. A syntax error anywhere fails the
/// read.
pub(crate) fn read_request(text: &str) -> Result<json::Members<'_, RecordBatch>> {
    json::read_members(text, "records", read_records)
}

/// Reads a `records` value. The outer `Result` is the document's
/// syntax; the inner one is the batch, or why the value is not one.
/// Out of line, so that its loops have the registers to themselves.
#[inline(never)]
fn read_records(reader: &mut json::Reader) -> Result<Result<RecordBatch>> {
    // Read on a copy: after a fault, `reader` reads the value again
    // from its start.
    let mut r = reader.clone();
    let mut batch = RecordBatch::new();
    let fault = 'read: {
        if r.peek() != Some(b'[') {
            break 'read "`records` must be an array";
        }
        r.begin_array()?;
        // A grid of one-digit records is read a word at a time; the
        // loop below reads whatever follows where it stopped.
        if r.digit_grid(&mut batch.values, &mut batch.offsets) {
            *reader = r;
            return Ok(Ok(batch));
        }
        while r.next_item()? {
            if r.peek() != Some(b'[') {
                break 'read "each record must be an array";
            }
            r.begin_array()?;
            // A record of small integers is read in one run; anything
            // else goes on item by item from where the run stopped.
            if !r.small_uints(&mut batch.values) {
                while r.next_item()? {
                    // Lending `r` itself to the out-of-line `value` would
                    // keep it in memory through the whole loop; a copy
                    // lets its position stay in a register.
                    let mut item = r.clone();
                    let cell = item.value()?;
                    r = item;
                    match cell.as_u64() {
                        Some(c) if c <= u64::from(u32::MAX) => batch.push_cell(c as u32),
                        _ => break 'read "record values must be non-negative integers",
                    }
                }
            }
            batch.end_record();
        }
        *reader = r;
        return Ok(Ok(batch));
    };
    // The first fault in document order is the answer, but a syntax
    // error anywhere in the value still wins: it is read through, for
    // its syntax only.
    reader.skip()?;
    Ok(Err(invalid(fault)))
}

fn invalid(msg: &str) -> ServiceError {
    ServiceError::InvalidRequest(msg.into())
}

/// [`parse_request`] for a line that is a valid `submit`, `None` for
/// anything else. One decoder reads every JSON request; this entry
/// point stays only because the benchmark's ladder times it by name,
/// and a benchmark change removes it.
pub fn parse_submit_line_fast(line: &str) -> Option<Request> {
    parse_request(line)
        .ok()
        .filter(|req| matches!(req, Request::Submit(_)))
}

/// Whether a parsed request object is a deferred-ack submit. The
/// dispatcher checks this *before* full field validation so that a
/// semantically invalid deferred submit stays quiet (stashing its error
/// for `flush`) instead of emitting a response line the pipelining
/// client is not reading.
pub(crate) fn is_deferred_submit(v: &Fields) -> bool {
    v.get("op").and_then(Value::as_str) == Some(Op::Submit.row().name)
        && v.get("ack").and_then(Value::as_str) == Some("deferred")
}

/// Builds a request from its fields `v` and its decoded `records`, as
/// [`read_request`] returns them: the one place every framing's JSON
/// requests are parsed. The line protocol passes no `op` and no `id`
/// (the `op` field names the op, and the id it binds is a field of
/// `v`); HTTP passes the op its route names, the id from the path, and
/// its body and query as `v`.
pub(crate) fn build_request(
    op: Option<Op>,
    id: Option<u64>,
    v: &Fields,
    records: Option<Result<RecordBatch>>,
    allow_deferred: bool,
) -> Result<Request> {
    let op = match op {
        Some(op) => op,
        None => {
            let name = v
                .get("op")
                .and_then(Value::as_str)
                .ok_or_else(|| ServiceError::InvalidRequest("missing string field `op`".into()))?;
            let row = OPS
                .iter()
                .find(|row| row.name == name)
                .ok_or_else(|| ServiceError::InvalidRequest(format!("unknown op `{name}`")))?;
            row.op
        }
    };
    let id_key = op.row().id.unwrap_or_default();
    let optional_id = || id.map_or_else(|| optional_u64(v, id_key), |id| Ok(Some(id)));
    let bound_id = || id.map_or_else(|| field_u64(v, id_key), Ok);
    match op {
        Op::Ping => Ok(Request::Ping),
        Op::CreateSession => parse_create_session(v),
        Op::Submit => parse_submit(v, records, bound_id()?, allow_deferred),
        Op::Flush => Ok(Request::Flush),
        Op::Reconstruct => Ok(Request::Reconstruct {
            session: bound_id()?,
            method: match v.get("method") {
                None | Some(Value::Null) => ReconstructionMethod::ClosedForm,
                Some(m) => ReconstructionMethod::from_wire(m.as_str().ok_or_else(|| {
                    ServiceError::InvalidRequest("`method` must be a string".into())
                })?)?,
            },
            clamp: optional_bool(v, "clamp", true)?,
            allow_partial: optional_bool(v, "allow_partial", false)?,
        }),
        Op::Counts => Ok(Request::Counts {
            session: bound_id()?,
            allow_partial: optional_bool(v, "allow_partial", false)?,
            local: optional_bool(v, "local", false)?,
        }),
        Op::Stats => Ok(Request::Stats {
            session: bound_id()?,
            allow_partial: optional_bool(v, "allow_partial", false)?,
        }),
        Op::Metrics => Ok(Request::Metrics {
            session: optional_id()?,
        }),
        Op::ListSessions => Ok(Request::ListSessions),
        Op::Persist => Ok(Request::Persist {
            session: optional_id()?,
        }),
        Op::CloseSession => Ok(Request::CloseSession {
            session: bound_id()?,
            local: optional_bool(v, "local", false)?,
        }),
        Op::ClusterStatus => Ok(Request::ClusterStatus),
        Op::ReplStatus => Ok(Request::ReplStatus {
            session: bound_id()?,
            origin: field_u64(v, "origin")?,
        }),
        Op::Hello => {
            let name = require(v, "framing")?.as_str().ok_or_else(|| {
                ServiceError::InvalidRequest("field `framing` must be a string".into())
            })?;
            Ok(Request::Hello {
                framing: WireFraming::from_wire(name)?,
            })
        }
        Op::MineRules => parse_mine_rules(v, bound_id()?),
        Op::Classify => Ok(Request::Classify {
            session: bound_id()?,
            target: parse_attr_ref(v, "target")?,
        }),
        Op::JobStatus => Ok(Request::JobStatus { job: bound_id()? }),
        Op::JobResult => Ok(Request::JobResult { job: bound_id()? }),
        Op::JobCancel => Ok(Request::JobCancel { job: bound_id()? }),
        Op::ListJobs => Ok(Request::ListJobs),
        Op::Shutdown => Ok(Request::Shutdown),
    }
}

fn optional_f64_or(v: &Fields, key: &str, default: f64) -> Result<f64> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(n) => n
            .as_f64()
            .ok_or_else(|| ServiceError::InvalidRequest(format!("field `{key}` must be a number"))),
    }
}

/// Builds a `mine_rules` request for `session` from a spec object.
fn parse_mine_rules(v: &Fields, session: u64) -> Result<Request> {
    let algo = match v.get("algo") {
        None | Some(Value::Null) => MineAlgo::default(),
        Some(a) => MineAlgo::from_wire(a.as_str().ok_or_else(|| {
            ServiceError::InvalidRequest("field `algo` must be a string".into())
        })?)?,
    };
    let defaults = MineSpec::default();
    Ok(Request::MineRules {
        session,
        spec: MineSpec {
            algo,
            min_support: optional_f64_or(v, "min_support", defaults.min_support)?,
            min_confidence: optional_f64_or(v, "min_confidence", defaults.min_confidence)?,
            max_length: optional_u64(v, "max_length")?.unwrap_or(defaults.max_length as u64)
                as usize,
        },
    })
}

/// Parses a `target` (or similar) field naming a schema attribute by
/// index or name.
fn parse_attr_ref(v: &Fields, key: &str) -> Result<AttrRef> {
    let t = require(v, key)?;
    if let Some(i) = t.as_u64() {
        Ok(AttrRef::Index(i as usize))
    } else if let Some(name) = t.as_str() {
        Ok(AttrRef::Name(name.to_owned()))
    } else {
        Err(ServiceError::InvalidRequest(format!(
            "field `{key}` must be an attribute index or name"
        )))
    }
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request> {
    let (fields, records) = read_request(line)?;
    build_request(None, None, &fields, records, true)
}

/// Writes `{"ok":true}` plus extra fields into a reusable buffer
/// (appended, not cleared).
pub fn write_ok_response(out: &mut String, extra: Vec<(&str, Value)>) {
    let mut pairs = vec![("ok", Value::Bool(true))];
    pairs.extend(extra);
    object(pairs).write_json(out);
}

/// Writes `{"ok":false,"error":...}` for any service error. A
/// [`ServiceError::PartialBatch`] additionally carries `"accepted"` —
/// the number of records at the front of the failed batch that *were*
/// counted — so clients can retry just the remainder instead of
/// double-counting the prefix.
pub fn write_error_response(out: &mut String, err: &ServiceError) {
    let mut pairs = vec![("ok", false.into()), ("error", err.to_string().into())];
    if let ServiceError::PartialBatch { accepted, .. } = err {
        pairs.push(("accepted", (*accepted).into()));
    }
    object(pairs).write_json(out);
}

/// Coverage report attached to a degraded (partial) federated read:
/// which owner partitions the merged answer actually covers. Only
/// present when at least one owner was skipped — a fully covered
/// answer is not "degraded" even if `allow_partial` was set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PartialCoverage {
    /// Owner nodes the session's ingest partitions across.
    pub owners_total: usize,
    /// Owners whose partitions the answer includes.
    pub owners_reachable: usize,
    /// The skipped owners, as `(node index, address)`.
    pub missing: Vec<(usize, String)>,
}

/// The `"degraded":true,"coverage":{...}` tail of a partial response.
fn degraded_pairs(coverage: &PartialCoverage) -> Vec<(&'static str, Value)> {
    vec![
        ("degraded", true.into()),
        (
            "coverage",
            object(vec![
                ("owners_total", coverage.owners_total.into()),
                ("owners_reachable", coverage.owners_reachable.into()),
                (
                    "missing",
                    Value::Array(
                        coverage
                            .missing
                            .iter()
                            .map(|(node, addr)| {
                                object(vec![
                                    ("node", (*node).into()),
                                    ("addr", addr.as_str().into()),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    ]
}

/// Writes the response payload for a successful `reconstruct`.
pub fn write_reconstruction_response(out: &mut String, rec: &Reconstruction) {
    write_reconstruction_response_with(out, rec, None)
}

/// [`write_reconstruction_response`], optionally tagged as a degraded
/// partial answer (federation `allow_partial` with unreachable
/// owners).
pub fn write_reconstruction_response_with(
    out: &mut String,
    rec: &Reconstruction,
    coverage: Option<&PartialCoverage>,
) {
    // Written straight into `out`, in the field order a `Value` object
    // would have: the estimates are nearly all of the response, and a
    // tree would hold one `Value` per cell before writing any of them.
    out.push_str("{\"ok\":true,\"n\":");
    json::write_number(rec.n as f64, out);
    out.push_str(",\"method\":");
    json::write_string(rec.method.wire_name(), out);
    out.push_str(",\"lu_cache_hit\":");
    out.push_str(if rec.lu_cache_hit { "true" } else { "false" });
    out.push_str(",\"estimates\":");
    write_bulk_tail(out, &rec.estimates, coverage);
}

/// Writes the response payload for a successful `counts`: the record
/// total, γ and the perturbed counts, each count written as a snapshot
/// writes it (`json::write_number` over the whole `f64`), optionally
/// tagged as a degraded partial answer.
pub(crate) fn write_counts_response(
    out: &mut String,
    counts: &CountAccumulator,
    gamma: f64,
    coverage: Option<&PartialCoverage>,
) {
    out.push_str("{\"ok\":true,\"n\":");
    json::write_number(counts.n() as f64, out);
    out.push_str(",\"gamma\":");
    json::write_number(gamma, out);
    out.push_str(",\"counts\":");
    write_bulk_tail(out, counts.counts(), coverage);
}

/// Ends a `reconstruct` or `counts` answer: its bulk array, the
/// degraded pairs when `coverage` is given, and the closing brace.
fn write_bulk_tail(out: &mut String, numbers: &[f64], coverage: Option<&PartialCoverage>) {
    out.push('[');
    for (i, &x) in numbers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_number(x, out);
    }
    out.push(']');
    if let Some(c) = coverage {
        for (key, value) in degraded_pairs(c) {
            out.push(',');
            json::write_string(key, out);
            out.push(':');
            value.write_json(out);
        }
    }
    out.push('}');
}

/// Response payload for a successful `reconstruct`.
pub fn reconstruction_response(rec: &Reconstruction) -> String {
    let mut out = String::new();
    write_reconstruction_response(&mut out, rec);
    out
}

/// Writes the response payload for a successful `stats`, optionally
/// tagged as a degraded partial answer (federation `allow_partial`
/// with unreachable owners).
pub fn write_stats_response(
    out: &mut String,
    stats: &SessionStats,
    coverage: Option<&PartialCoverage>,
) {
    let mut pairs = vec![
        ("total", stats.total.into()),
        (
            "per_shard",
            Value::Array(stats.per_shard.iter().map(|&c| c.into()).collect()),
        ),
    ];
    if let Some(c) = coverage {
        pairs.extend(degraded_pairs(c));
    }
    write_ok_response(out, pairs)
}

/// A power-of-two histogram summary as a wire object. The field names
/// say `us` for compatibility; for `ingest_batch_size` the unit is
/// records per batch.
fn histogram_value(summary: &LatencySummary) -> Value {
    object(vec![
        ("count", summary.count.into()),
        ("mean_us", summary.mean_us.into()),
        ("max_us", summary.max_us.into()),
        (
            "buckets",
            Value::Array(
                summary
                    .buckets
                    .iter()
                    .map(|&(le, c)| Value::Array(vec![le.into(), c.into()]))
                    .collect(),
            ),
        ),
    ])
}

/// Writes the response payload for a successful `metrics`. `total` is
/// the all-time record count (across restarts); the report's own
/// counters cover this process's lifetime.
pub fn write_metrics_response(out: &mut String, session: u64, total: u64, report: &MetricsReport) {
    write_ok_response(
        out,
        vec![
            ("session", session.into()),
            ("total", total.into()),
            ("records_ingested", report.records_ingested.into()),
            ("batches", report.batches.into()),
            ("reconstructions", report.reconstructions.into()),
            ("uptime_secs", report.uptime_secs.into()),
            ("ingest_rate", report.ingest_rate.into()),
            ("query_latency", histogram_value(&report.query_latency)),
            (
                "ingest_batch_size",
                histogram_value(&report.ingest_batch_size),
            ),
            ("submit_latency", histogram_value(&report.submit_latency)),
        ],
    )
}

/// Writes the response payload for a `flush`: the cumulative accepted
/// watermark across the connection's deferred submits since the last
/// flush. With a stashed deferred error the response is `ok: false` and
/// carries the error, but `accepted`/`batches` are reported either way
/// — `accepted` is always a contiguous prefix of the submitted stream
/// (ingest stops at the first deferred failure), so it doubles as the
/// retry offset.
pub fn write_flush_response(
    out: &mut String,
    accepted: u64,
    batches: u64,
    error: Option<&ServiceError>,
) {
    let mut pairs = match error {
        None => vec![("ok", true.into())],
        Some(e) => vec![("ok", false.into()), ("error", e.to_string().into())],
    };
    pairs.push(("accepted", accepted.into()));
    pairs.push(("batches", batches.into()));
    object(pairs).write_json(out);
}

/// Writes the response payload for a session-less `metrics` request:
/// the server's per-transport counters, the reactor event-loop
/// counters (all zero when the server runs thread-per-connection),
/// and — on a federated server — the per-peer replication counters.
pub fn write_transport_metrics_response(
    out: &mut String,
    report: &TransportReport,
    federation: Option<&[PeerReplReport]>,
) {
    // Consecutive rows of one section form one object, in table order.
    let mut pairs: Vec<(&str, Value)> = Vec::new();
    for row in &COUNTERS {
        let field = (row.key.to_owned(), Value::from(report.get(row.id)));
        match pairs.last_mut() {
            Some((section, Value::Object(fields))) if *section == row.section => fields.push(field),
            _ => pairs.push((row.section, Value::Object(vec![field]))),
        }
    }
    if let Some(peers) = federation {
        let entry = |p: &PeerReplReport| {
            let mut fields = vec![("node", p.node.into()), ("addr", p.addr.as_str().into())];
            fields.extend(PEER_COUNTERS.iter().map(|row| {
                let value = match row.id {
                    PeerCounter::Health => p.health().as_str().into(),
                    id => p.get(id).into(),
                };
                (row.key, value)
            }));
            object(fields)
        };
        pairs.push((
            PEER_SECTION,
            object(vec![(
                "peers",
                Value::Array(peers.iter().map(entry).collect()),
            )]),
        ));
    }
    write_ok_response(out, pairs)
}

/// Writes the response payload for a successful `list_sessions`: the
/// bare id array plus a `detail` array of per-session summaries.
pub fn write_list_response(out: &mut String, summaries: &[SessionSummary]) {
    write_ok_response(
        out,
        vec![
            (
                "sessions",
                Value::Array(summaries.iter().map(|s| s.id.into()).collect()),
            ),
            (
                "detail",
                Value::Array(
                    summaries
                        .iter()
                        .map(|s| {
                            object(vec![
                                ("session", s.id.into()),
                                ("domain_size", s.domain_size.into()),
                                ("shards", s.shards.into()),
                                ("gamma", s.gamma.into()),
                                ("total", s.total.into()),
                                ("reconstructions", s.reconstructions.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ],
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::wire::Counter;

    /// The decoder before [`read_request`]: the whole document as a
    /// tree, with `records` walked from it by [`parse_records`].
    pub(crate) fn tree_read(text: &str) -> Result<(Fields<'_>, Option<Result<RecordBatch>>)> {
        let v = json::parse(text)?;
        let records = v.get("records").map(|_| parse_records(&v));
        let fields = match v {
            Value::Object(pairs) => pairs.into_iter().map(|(k, v)| (k.into(), v)).collect(),
            _ => Vec::new(),
        };
        Ok((Fields(fields), records))
    }

    fn tree_request(line: &str) -> Result<Request> {
        let (fields, records) = tree_read(line)?;
        build_request(None, None, &fields, records, true)
    }

    /// Every JSON document written as a raw string literal in the
    /// protocol, HTTP, dispatch and wire-table tests (each whole, and
    /// each of its lines, minus a `> ` quote prefix), plus the submit
    /// lines and bodies the shipped clients write for CENSUS and HEALTH
    /// batches.
    pub(crate) fn corpus() -> Vec<String> {
        let mut docs = std::collections::BTreeSet::new();
        for source in [
            include_str!("protocol.rs"),
            include_str!("http.rs"),
            include_str!("dispatch.rs"),
            include_str!("../tests/wire_table.rs"),
        ] {
            for literal in source.split("r#\"").skip(1) {
                let Some((literal, _)) = literal.split_once("\"#") else {
                    continue;
                };
                let lines = literal.lines().map(|l| l.trim().trim_start_matches("> "));
                for doc in std::iter::once(literal).chain(lines) {
                    if doc.starts_with('{') || doc.starts_with('[') {
                        docs.insert(doc.to_owned());
                    }
                }
            }
        }
        let census = frapp_data::census::census_like_n(16, 1);
        let health = frapp_data::health::health_like_n(256, 2);
        for (rows, shard) in [
            (census.records(), None),
            (&health.records()[..16], Some(1)),
            (health.records(), None),
        ] {
            let mut body = String::from("{");
            crate::client::write_submit_fields(&mut body, rows.iter(), true, shard);
            body.push('}');
            let line = format!("{{\"op\":\"submit\",\"session\":1,{}", &body[1..]);
            docs.insert(line.replace('}', ",\"ack\":\"deferred\"}"));
            docs.insert(line);
            docs.insert(body);
        }
        docs.into_iter().collect()
    }

    /// A seeded stream of mutations of `corpus`: each a corpus document
    /// with one to three edits, among them whitespace between tokens,
    /// reordered keys, a duplicate `records` member and a flipped byte.
    pub(crate) fn mutations(corpus: &[String], seed: u64) -> impl Iterator<Item = String> + '_ {
        let mut next = seeded(seed);
        std::iter::repeat_with(move || {
            let mut doc = corpus[next(corpus.len())].clone();
            for _ in 0..=next(3) {
                doc = mutate(doc, &mut next);
            }
            doc
        })
    }

    /// A seeded source of numbers below a bound (SplitMix64).
    pub(crate) fn seeded(seed: u64) -> impl FnMut(usize) -> usize {
        let mut state = seed;
        move |bound: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        }
    }

    fn mutate(doc: String, next: &mut impl FnMut(usize) -> usize) -> String {
        // Edits touch ASCII bytes only, so the result stays UTF-8.
        let ascii: Vec<usize> = (0..doc.len())
            .filter(|&i| doc.as_bytes()[i].is_ascii())
            .collect();
        if ascii.is_empty() {
            return doc;
        }
        let i = ascii[next(ascii.len())];
        match next(5) {
            0 => {
                // Whitespace next to a structural byte, or anywhere.
                let i = match doc[i..].find(|c| "{}[],:".contains(c)) {
                    Some(to) => i + to + next(2),
                    None => i,
                };
                let ws = [" ", "\t", "\n", "\r\n", "   "][next(5)];
                format!("{}{ws}{}", &doc[..i], &doc[i..])
            }
            1 => match json::parse(&doc) {
                Ok(Value::Object(mut pairs)) => {
                    for i in (1..pairs.len()).rev() {
                        pairs.swap(i, next(i + 1));
                    }
                    Value::Object(pairs).to_json()
                }
                _ => doc,
            },
            2 => {
                // A second `records` member, before or after the first.
                let dup = [
                    "[[9,9]]",
                    "[]",
                    "\"x\"",
                    "null",
                    "[[1.5]]",
                    "[[-1]]",
                    "[[4294967296]]",
                    "[7]",
                    "[[1,[2]]]",
                    "[[1]",
                    "{\"a\":[[1]]}",
                ][next(11)];
                match (doc.find('{'), doc.rfind('}')) {
                    (Some(open), _) if next(2) == 0 => {
                        format!("{}\"records\":{dup},{}", &doc[..=open], &doc[open + 1..])
                    }
                    (_, Some(close)) => {
                        format!("{},\"records\":{dup}{}", &doc[..close], &doc[close..])
                    }
                    _ => doc,
                }
            }
            3 => {
                const BYTES: &[u8] = b"{}[],:\" \\0123456789-+.eEtrufalsn\x01x";
                let mut bytes = doc.into_bytes();
                bytes[i] = BYTES[next(BYTES.len())];
                String::from_utf8(bytes).expect("one ASCII byte replaced by another")
            }
            _ => doc[..i].to_owned(),
        }
    }

    /// The corpus truncated at every byte, then `count` seeded
    /// mutations: each decodes as the tree reference does.
    fn assert_decoders_agree(count: usize) {
        let corpus = corpus();
        let truncated = corpus.iter().flat_map(|doc| {
            (0..doc.len())
                .filter(|&i| doc.is_char_boundary(i))
                .map(|i| doc[..i].to_owned())
        });
        for line in corpus
            .iter()
            .cloned()
            .chain(truncated)
            .chain(mutations(&corpus, 7).take(count))
        {
            assert_eq!(
                parse_request(&line).map_err(|e| e.to_string()),
                tree_request(&line).map_err(|e| e.to_string()),
                "{line}"
            );
        }
    }

    #[test]
    fn request_decoder_agrees_with_the_tree_on_mutated_corpus() {
        assert_decoders_agree(20_000);
    }

    #[test]
    #[ignore = "10^6 mutated lines; run in release"]
    fn a_million_mutated_lines_decode_as_the_tree_does() {
        assert_decoders_agree(1_000_000);
    }

    /// `read_records` before the one-digit grid pass
    /// (`json::Reader::digit_grid`), kept verbatim as the reference.
    fn general_read_records(reader: &mut json::Reader) -> Result<Result<RecordBatch>> {
        // Read on a copy: after a fault, `reader` reads the value again
        // from its start.
        let mut r = reader.clone();
        let mut batch = RecordBatch::new();
        let fault = 'read: {
            if r.peek() != Some(b'[') {
                break 'read "`records` must be an array";
            }
            r.begin_array()?;
            while r.next_item()? {
                if r.peek() != Some(b'[') {
                    break 'read "each record must be an array";
                }
                r.begin_array()?;
                // A record of small integers is read in one run; anything
                // else goes on item by item from where the run stopped.
                if !r.small_uints(&mut batch.values) {
                    while r.next_item()? {
                        // Lending `r` itself to the out-of-line `value` would
                        // keep it in memory through the whole loop; a copy
                        // lets its position stay in a register.
                        let mut item = r.clone();
                        let cell = item.value()?;
                        r = item;
                        match cell.as_u64() {
                            Some(c) if c <= u64::from(u32::MAX) => batch.push_cell(c as u32),
                            _ => break 'read "record values must be non-negative integers",
                        }
                    }
                }
                batch.end_record();
            }
            *reader = r;
            return Ok(Ok(batch));
        };
        // The first fault in document order is the answer, but a syntax
        // error anywhere in the value still wins: it is read through, for
        // its syntax only.
        reader.skip()?;
        Ok(Err(invalid(fault)))
    }

    /// A seeded submit line whose `records` is a grid of one-digit
    /// records of arity 1, 6, 7, 15 (the pass's cap), 16 or any up to
    /// 16, whole or with one deviation from the pass's template: a cell
    /// that is `10`, `-1`, `1.0`, `01` or `:` (the byte after `9`) in the
    /// first, a middle or the last record; whitespace after a `[`, `,` or `]`; a ragged or
    /// empty record; an empty array; a missing final `]`; a duplicate
    /// `records` member; trailing garbage; or a record followed by `]`,
    /// `x`, a space or `,,` where a `,` belongs.
    fn grid_line(next: &mut impl FnMut(usize) -> usize) -> String {
        let arity = [1, 6, 7, 15, 16, 1 + next(16)][next(6)];
        let len = 1 + next(40);
        let mut grid: Vec<Vec<String>> = (0..len)
            .map(|_| (0..arity).map(|_| next(10).to_string()).collect())
            .collect();
        let at = [0, len / 2, len - 1][next(3)];
        let edit = next(12);
        match edit {
            1 => grid[at][next(arity)] = ["10", "-1", "1.0", "01", ":"][next(5)].into(),
            2 if next(2) == 0 => drop(grid[at].pop()),
            2 => grid[at].push("3".into()),
            3 => grid[at].clear(),
            4 => grid.clear(),
            _ => {}
        }
        let mut records = String::from("[");
        for (i, row) in grid.iter().enumerate() {
            if i > 0 {
                let misplaced = edit == 11 && i == at.max(1);
                records.push_str(if misplaced {
                    ["]", "x", " ", ",,"][next(4)]
                } else {
                    ","
                });
            }
            records.push_str(&format!("[{}]", row.join(",")));
        }
        records.push(']');
        if let 5..=7 = edit {
            let byte = [b'[', b',', b']'][edit - 5];
            let spots: Vec<usize> = (0..records.len())
                .filter(|&i| records.as_bytes()[i] == byte)
                .collect();
            if !spots.is_empty() {
                let i = spots[next(spots.len())] + 1;
                records.insert_str(i, [" ", "\n", "\t", "\r\n"][next(4)]);
            }
        }
        if edit == 8 {
            records.pop();
        }
        let dup = if edit == 9 {
            r#","records":[[1,2]]"#
        } else {
            ""
        };
        let garbage = if edit == 10 {
            ["x", "]", ",", "}"][next(4)]
        } else {
            ""
        };
        format!(r#"{{"op":"submit","session":1,"records":{records}{dup}}}{garbage}"#)
    }

    /// Seeded grid lines, and a few of them cut at every byte: each
    /// decodes to the same request, or the same error text, as with
    /// [`general_read_records`]. The pass must have read a whole grid,
    /// stopped inside one and declined one at its first record.
    fn assert_grid_pass_agrees(count: usize) {
        let reference = |line: &str| {
            let (fields, records) = json::read_members(line, "records", general_read_records)?;
            build_request(None, None, &fields, records, true)
        };
        let mut next = seeded(38);
        let lines: Vec<String> = (0..count).map(|_| grid_line(&mut next)).collect();
        let cuts = lines
            .iter()
            .take(8)
            .flat_map(|line| (0..line.len()).map(|i| &line[..i]));
        let before = json::tests::GRID_OUTCOMES.with(|n| n.get());
        for line in lines.iter().map(String::as_str).chain(cuts) {
            assert_eq!(
                parse_request(line).map_err(|e| e.to_string()),
                reference(line).map_err(|e| e.to_string()),
                "{line}"
            );
        }
        let after = json::tests::GRID_OUTCOMES.with(|n| n.get());
        let hits: Vec<usize> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        assert!(
            hits.iter().all(|&n| n > 0),
            "declined, stopped, whole: {hits:?}"
        );
    }

    #[test]
    fn the_grid_pass_decodes_as_the_general_loop_does() {
        assert_grid_pass_agrees(20_000);
    }

    #[test]
    #[ignore = "10^6 seeded lines; run in release"]
    fn a_million_grid_lines_decode_as_the_general_loop_does() {
        assert_grid_pass_agrees(1_000_000);
    }

    #[test]
    fn request_decoder_error_texts() {
        // The canonical submit line, and how the decoder reads each
        // deviation from it: the fast path's old fallback cases among
        // them, now answered by the one decoder.
        let line = |tail: &str| format!(r#"{{"op":"submit","session":3,{tail}}}"#);
        let submit = |records: &[Vec<u32>], pre_perturbed, placement, deferred| {
            Request::Submit(Submit {
                session: 3,
                records: RecordBatch::from_rows(records),
                pre_perturbed,
                placement,
                deferred,
            })
        };
        for (tail, want) in [
            (
                r#""records":[[0,1],[2,0]],"pre_perturbed":false"#,
                submit(
                    &[vec![0, 1], vec![2, 0]],
                    false,
                    Placement::RoundRobin,
                    false,
                ),
            ),
            (
                r#""records":[[7]],"pre_perturbed":true,"shard":2,"ack":"deferred""#,
                submit(&[vec![7]], true, Placement::Shard(2), true),
            ),
            (
                r#""records":[[4294967295]],"pre_perturbed":true,"ack":"sync""#,
                submit(&[vec![u32::MAX]], true, Placement::RoundRobin, false),
            ),
            (
                r#" "records" : [ [0] , [ ] ],"extra":1, "pre_perturbed":true"#,
                submit(&[vec![0], vec![]], true, Placement::RoundRobin, false),
            ),
            // Duplicate `records`: the first counts, as with `Value::get`.
            (
                r#""records":[[1]],"records":"x""#,
                submit(&[vec![1]], false, Placement::RoundRobin, false),
            ),
            // Integral numbers in any spelling are integers.
            (
                r#""records":[[1.0,2e0,-0]]"#,
                submit(&[vec![1, 2, 0]], false, Placement::RoundRobin, false),
            ),
        ] {
            assert_eq!(parse_request(&line(tail)).unwrap(), want, "{tail}");
        }
        // Key order does not matter.
        assert_eq!(
            parse_request(r#"{"records":[[5]],"ack":"deferred","session":3,"op":"submit"}"#)
                .unwrap(),
            submit(&[vec![5]], false, Placement::RoundRobin, true)
        );
        let invalid = "invalid request: ";
        for (tail, want) in [
            (
                r#""records":[[1.5]]"#,
                "record values must be non-negative integers",
            ),
            (
                r#""records":[[4294967296]]"#,
                "record values must be non-negative integers",
            ),
            (
                r#""records":[[-1]]"#,
                "record values must be non-negative integers",
            ),
            (r#""records":[[0],7,[1.5]]"#, "each record must be an array"),
            (
                r#""records":"x","records":[[0]]"#,
                "`records` must be an array",
            ),
            (
                r#""records":[[0]],"ack":"maybe""#,
                "unknown ack mode `maybe` (expected sync|deferred)",
            ),
            (r#""pre_perturbed":true"#, "missing field `records`"),
            (
                r#""records":[[0]],"pre_perturbed":true,"origin":0,"seq":1"#,
                "`origin` and `seq` are not submit fields; replicated batches travel \
                 only as stamped binary OP_SUBMIT frames",
            ),
            // A bad batch is reported where records are checked: after
            // the ack mode, before `pre_perturbed`.
            (
                r#""records":[["x"]],"ack":"later""#,
                "unknown ack mode `later` (expected sync|deferred)",
            ),
            (
                r#""records":[["x"]],"pre_perturbed":1"#,
                "record values must be non-negative integers",
            ),
        ] {
            let err = parse_request(&line(tail)).unwrap_err().to_string();
            assert_eq!(err, format!("{invalid}{want}"), "{tail}");
        }
        // A syntax error anywhere wins over a bad batch.
        let err = parse_request(&line(r#""records":[[-1]],"pre_perturbed":tru"#)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "protocol error: expected 'true' (at byte 60)"
        );
    }

    #[test]
    fn integers_from_two_to_the_53rd_are_refused_not_rounded() {
        // Every integer below 2^53 is exact in an f64; 2^53 + 1 parses
        // to 2^53, so both are refused wherever a request names an id.
        assert_eq!(
            parse_request(r#"{"op":"stats","session":9007199254740991}"#).unwrap(),
            Request::Stats {
                session: 9_007_199_254_740_991,
                allow_partial: false
            }
        );
        for line in [
            r#"{"op":"stats","session":9007199254740992}"#,
            r#"{"op":"stats","session":9007199254740993}"#,
            r#"{"op":"submit","session":9007199254740993,"records":[[0]],"pre_perturbed":true}"#,
            r#"{"op":"submit","session":100000000000000000,"records":[[0]],"pre_perturbed":true}"#,
            r#"{"op":"submit","session":1,"records":[[0]],"pre_perturbed":true,"shard":100000000000000000}"#,
            r#"{"op":"job_status","job":1e16}"#,
        ] {
            assert!(
                parse_request(line)
                    .unwrap_err()
                    .to_string()
                    .contains("non-negative integer"),
                "{line}"
            );
            assert_eq!(parse_submit_line_fast(line), None, "{line}");
        }
    }

    #[test]
    fn parses_ping_and_shutdown() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn parses_hello_framing_negotiation() {
        assert_eq!(
            parse_request(r#"{"op":"hello","framing":"binary"}"#).unwrap(),
            Request::Hello {
                framing: WireFraming::Binary
            }
        );
        // "line" and its alias "json" both name the default framing.
        for name in ["line", "json"] {
            assert_eq!(
                parse_request(&format!(r#"{{"op":"hello","framing":"{name}"}}"#)).unwrap(),
                Request::Hello {
                    framing: WireFraming::Json
                }
            );
        }
        assert!(parse_request(r#"{"op":"hello"}"#).is_err());
        assert!(parse_request(r#"{"op":"hello","framing":"carrier-pigeon"}"#).is_err());
        assert_eq!(WireFraming::Binary.wire_name(), "binary");
        assert_eq!(WireFraming::Json.wire_name(), "line");
    }

    #[test]
    fn parses_create_session_with_gamma() {
        let req = parse_request(
            r#"{"op":"create_session","schema":[["age",8],["sex",2]],
               "mechanism":"det","gamma":19.0,"shards":4,"seed":7}"#,
        )
        .unwrap();
        assert_eq!(
            req,
            Request::CreateSession {
                schema: vec![("age".into(), 8), ("sex".into(), 2)],
                mechanism: Mechanism::Deterministic { gamma: 19.0 },
                shards: Some(4),
                seed: Some(7),
                session: None,
            }
        );
        // The federated replica form carries an explicit id.
        let req = parse_request(
            r#"{"op":"create_session","schema":[["a",3]],"gamma":19.0,"session":42}"#,
        )
        .unwrap();
        assert!(matches!(
            req,
            Request::CreateSession {
                session: Some(42),
                ..
            }
        ));
    }

    #[test]
    fn parses_create_session_with_privacy_requirement() {
        let req =
            parse_request(r#"{"op":"create_session","schema":[["a",3]],"rho1":0.05,"rho2":0.5}"#)
                .unwrap();
        match req {
            Request::CreateSession {
                mechanism: Mechanism::Deterministic { gamma },
                ..
            } => assert!((gamma - 19.0).abs() < 1e-9, "gamma {gamma}"),
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parses_randomized_mechanism_with_default_alpha() {
        let req = parse_request(
            r#"{"op":"create_session","schema":[["a",3]],"mechanism":"ran","gamma":19.0}"#,
        )
        .unwrap();
        match req {
            Request::CreateSession {
                mechanism:
                    Mechanism::Randomized {
                        gamma,
                        alpha_fraction,
                    },
                ..
            } => {
                assert_eq!(gamma, 19.0);
                assert_eq!(alpha_fraction, 0.5);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parses_submit_with_defaults() {
        let req = parse_request(r#"{"op":"submit","session":3,"records":[[0,1],[2,0]]}"#).unwrap();
        assert_eq!(
            req,
            Request::Submit(Submit {
                session: 3,
                records: RecordBatch::from_rows(&[vec![0, 1], vec![2, 0]]),
                pre_perturbed: false,
                placement: Placement::RoundRobin,
                deferred: false,
            })
        );
    }

    #[test]
    fn parses_federation_ops_and_refuses_json_stamps() {
        // Stamps are binary-only: a JSON submit carrying either half of
        // one is refused with the one error text, whatever else it says.
        for tail in [
            r#","origin":2,"seq":17"#,
            r#","origin":2"#,
            r#","seq":5"#,
            r#","seq":null"#,
        ] {
            let line = format!(r#"{{"op":"submit","session":3,"records":[[0,1]]{tail}}}"#);
            assert_eq!(
                parse_request(&line).unwrap_err().to_string(),
                "invalid request: `origin` and `seq` are not submit fields; replicated \
                 batches travel only as stamped binary OP_SUBMIT frames",
                "{line}"
            );
        }

        assert_eq!(
            parse_request(r#"{"op":"cluster_status"}"#).unwrap(),
            Request::ClusterStatus
        );
        assert_eq!(
            parse_request(r#"{"op":"counts","session":4,"local":true}"#).unwrap(),
            Request::Counts {
                session: 4,
                allow_partial: false,
                local: true
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"counts","session":4}"#).unwrap(),
            Request::Counts {
                session: 4,
                allow_partial: false,
                local: false
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"repl_status","session":4,"origin":1}"#).unwrap(),
            Request::ReplStatus {
                session: 4,
                origin: 1
            }
        );
        assert!(parse_request(r#"{"op":"repl_status","session":4}"#).is_err());

        assert_eq!(
            parse_request(r#"{"op":"close_session","session":4,"local":true}"#).unwrap(),
            Request::CloseSession {
                session: 4,
                local: true
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"close_session","session":4}"#).unwrap(),
            Request::CloseSession {
                session: 4,
                local: false
            }
        );
    }

    #[test]
    fn job_ops_parse_with_defaults_and_overrides() {
        match parse_request(r#"{"op":"mine_rules","session":3}"#).unwrap() {
            Request::MineRules { session, spec } => {
                assert_eq!(session, 3);
                assert_eq!(spec, MineSpec::default());
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        let full = r#"{"op":"mine_rules","session":3,"algo":"fpgrowth",
                       "min_support":0.1,"min_confidence":0.9,"max_length":2}"#;
        match parse_request(full).unwrap() {
            Request::MineRules { spec, .. } => {
                assert_eq!(spec.algo, MineAlgo::FpGrowth);
                assert_eq!(spec.min_support, 0.1);
                assert_eq!(spec.min_confidence, 0.9);
                assert_eq!(spec.max_length, 2);
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        assert!(parse_request(r#"{"op":"mine_rules","session":3,"algo":"svd"}"#).is_err());
        assert!(parse_request(r#"{"op":"mine_rules"}"#).is_err());

        assert_eq!(
            parse_request(r#"{"op":"classify","session":3,"target":2}"#).unwrap(),
            Request::Classify {
                session: 3,
                target: AttrRef::Index(2)
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"classify","session":3,"target":"income"}"#).unwrap(),
            Request::Classify {
                session: 3,
                target: AttrRef::Name("income".into())
            }
        );
        assert!(parse_request(r#"{"op":"classify","session":3}"#).is_err());
        assert!(parse_request(r#"{"op":"classify","session":3,"target":true}"#).is_err());

        assert_eq!(
            parse_request(r#"{"op":"job_status","job":7}"#).unwrap(),
            Request::JobStatus { job: 7 }
        );
        assert_eq!(
            parse_request(r#"{"op":"job_result","job":7}"#).unwrap(),
            Request::JobResult { job: 7 }
        );
        assert_eq!(
            parse_request(r#"{"op":"job_cancel","job":7}"#).unwrap(),
            Request::JobCancel { job: 7 }
        );
        assert_eq!(
            parse_request(r#"{"op":"list_jobs"}"#).unwrap(),
            Request::ListJobs
        );
        assert!(parse_request(r#"{"op":"job_status"}"#).is_err());
    }

    #[test]
    fn transport_metrics_response_reports_job_counters() {
        let mut report = TransportReport::default();
        report.set(Counter::JobsSubmitted, 4);
        report.set(Counter::JobsCompleted, 2);
        report.set(Counter::JobsCancelled, 1);
        report.set(Counter::JobsShed, 1);
        let mut out = String::new();
        write_transport_metrics_response(&mut out, &report, None);
        assert!(out.contains("\"jobs_submitted\":4"), "{out}");
        assert!(out.contains("\"jobs_completed\":2"), "{out}");
        assert!(out.contains("\"jobs_failed\":0"), "{out}");
        assert!(out.contains("\"jobs_cancelled\":1"), "{out}");
        assert!(out.contains("\"jobs_shed\":1"), "{out}");
    }

    #[test]
    fn parses_deferred_submits_and_flush() {
        let req =
            parse_request(r#"{"op":"submit","session":3,"records":[[0,1]],"ack":"deferred"}"#)
                .unwrap();
        assert!(matches!(
            req,
            Request::Submit(Submit { deferred: true, .. })
        ));
        // "sync" is the explicit spelling of the default.
        let req =
            parse_request(r#"{"op":"submit","session":3,"records":[[0,1]],"ack":"sync"}"#).unwrap();
        assert!(matches!(
            req,
            Request::Submit(Submit {
                deferred: false,
                ..
            })
        ));
        assert!(
            parse_request(r#"{"op":"submit","session":3,"records":[[0,1]],"ack":"maybe"}"#)
                .is_err()
        );
        assert_eq!(parse_request(r#"{"op":"flush"}"#).unwrap(), Request::Flush);
    }

    #[test]
    fn record_batch_streaming_construction_matches_push() {
        let mut streamed = RecordBatch::new();
        streamed.push_cell(1);
        streamed.push_cell(2);
        streamed.end_record();
        streamed.end_record(); // empty record
        streamed.push_cell(7);
        streamed.end_record();
        assert_eq!(
            streamed,
            RecordBatch::from_rows(&[vec![1, 2], vec![], vec![7]])
        );
    }

    #[test]
    fn deferred_submit_detection_sees_through_invalid_bodies() {
        // A deferred submit with a bad record must still be *detected*
        // as deferred (so the dispatcher stays quiet and stashes the
        // error) even though full parsing fails.
        let (v, records) =
            read_request(r#"{"op":"submit","session":1,"records":"x","ack":"deferred"}"#).unwrap();
        assert!(is_deferred_submit(&v));
        assert!(build_request(None, None, &v, records, true).is_err());
        let (v, _) = read_request(r#"{"op":"stats","session":1,"ack":"deferred"}"#).unwrap();
        assert!(!is_deferred_submit(&v));
    }

    #[test]
    fn flush_and_transport_responses_are_parseable() {
        let mut out = String::new();
        write_flush_response(&mut out, 128, 2, None);
        let v = crate::json::parse(&out).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("accepted").and_then(Value::as_u64), Some(128));
        assert_eq!(v.get("batches").and_then(Value::as_u64), Some(2));

        out.clear();
        let err = ServiceError::UnknownSession(9);
        write_flush_response(&mut out, 64, 3, Some(&err));
        let v = crate::json::parse(&out).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("accepted").and_then(Value::as_u64), Some(64));
        assert!(v
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("unknown session"));

        out.clear();
        let mut report = TransportReport::default();
        report.set(Counter::TcpRequests, 5);
        report.set(Counter::Sheds, 1);
        write_transport_metrics_response(&mut out, &report, None);
        let v = crate::json::parse(&out).unwrap();
        let t = v.get("transport").unwrap();
        assert_eq!(t.get("tcp_requests").and_then(Value::as_u64), Some(5));
        assert_eq!(t.get("sheds").and_then(Value::as_u64), Some(1));
        assert_eq!(t.get("http_requests").and_then(Value::as_u64), Some(0));
        // The reactor section rides along (zeros under
        // thread-per-connection).
        let r = v.get("reactor").unwrap();
        assert_eq!(r.get("registered_fds").and_then(Value::as_u64), Some(0));
        assert_eq!(r.get("wakeups").and_then(Value::as_u64), Some(0));
        // Non-federated servers omit the federation section entirely.
        assert!(v.get("federation").is_none());

        out.clear();
        let peer = PeerReplReport {
            node: 1,
            addr: "127.0.0.1:7001".to_owned(),
            // forwarded batches/records, acked, retries, peer_down,
            // history, breaker trips, health (1 = degraded)
            values: [4, 40, 40, 2, 1, 3, 1, 1],
        };
        write_transport_metrics_response(&mut out, &report, Some(std::slice::from_ref(&peer)));
        let v = crate::json::parse(&out).unwrap();
        let peers = v
            .get("federation")
            .and_then(|f| f.get("peers"))
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(peers.len(), 1);
        assert_eq!(peers[0].get("node").and_then(Value::as_u64), Some(1));
        assert_eq!(
            peers[0].get("forwarded_records").and_then(Value::as_u64),
            Some(40)
        );
        assert_eq!(peers[0].get("peer_down").and_then(Value::as_u64), Some(1));
        assert_eq!(
            peers[0].get("history_batches").and_then(Value::as_u64),
            Some(3)
        );
        assert_eq!(
            peers[0].get("breaker_trips").and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            peers[0].get("health").and_then(Value::as_str),
            Some("degraded")
        );
    }

    #[test]
    fn record_batch_flat_buffer_round_trips_rows() {
        let rows = vec![vec![0u32, 1], vec![2, 0, 5], vec![], vec![7]];
        let batch = RecordBatch::from_rows(&rows);
        assert_eq!(batch.len(), 4);
        assert!(!batch.is_empty());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(batch.get(i), row.as_slice());
        }
        let collected: Vec<Vec<u32>> = batch.iter().map(<[u32]>::to_vec).collect();
        assert_eq!(collected, rows);
        assert!(RecordBatch::new().is_empty());
    }

    #[test]
    fn parses_reconstruct_defaults_to_clamped_closed_form() {
        let req = parse_request(r#"{"op":"reconstruct","session":1}"#).unwrap();
        assert_eq!(
            req,
            Request::Reconstruct {
                session: 1,
                method: ReconstructionMethod::ClosedForm,
                clamp: true,
                allow_partial: false,
            }
        );
    }

    #[test]
    fn parses_allow_partial_on_reconstruct_and_stats() {
        let req =
            parse_request(r#"{"op":"reconstruct","session":1,"allow_partial":true}"#).unwrap();
        assert!(matches!(
            req,
            Request::Reconstruct {
                allow_partial: true,
                ..
            }
        ));
        assert_eq!(
            parse_request(r#"{"op":"stats","session":1,"allow_partial":true}"#).unwrap(),
            Request::Stats {
                session: 1,
                allow_partial: true
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"stats","session":1}"#).unwrap(),
            Request::Stats {
                session: 1,
                allow_partial: false
            }
        );
        assert!(parse_request(r#"{"op":"stats","session":1,"allow_partial":3}"#).is_err());
        assert_eq!(
            parse_request(r#"{"op":"counts","session":1,"allow_partial":true}"#).unwrap(),
            Request::Counts {
                session: 1,
                allow_partial: true,
                local: false
            }
        );
        assert!(parse_request(r#"{"op":"counts"}"#).is_err());
    }

    #[test]
    fn degraded_responses_carry_coverage() {
        let coverage = PartialCoverage {
            owners_total: 2,
            owners_reachable: 1,
            missing: vec![(1, "127.0.0.1:7001".to_owned())],
        };
        let stats = SessionStats {
            total: 10,
            per_shard: vec![10],
        };
        let mut out = String::new();
        write_stats_response(&mut out, &stats, Some(&coverage));
        let v = crate::json::parse(&out).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("degraded").and_then(Value::as_bool), Some(true));
        let c = v.get("coverage").unwrap();
        assert_eq!(c.get("owners_total").and_then(Value::as_u64), Some(2));
        assert_eq!(c.get("owners_reachable").and_then(Value::as_u64), Some(1));
        let missing = c.get("missing").and_then(Value::as_array).unwrap();
        assert_eq!(missing[0].get("node").and_then(Value::as_u64), Some(1));
        assert_eq!(
            missing[0].get("addr").and_then(Value::as_str),
            Some("127.0.0.1:7001")
        );
        // A fully covered answer is never tagged.
        out.clear();
        write_stats_response(&mut out, &stats, None);
        let v = crate::json::parse(&out).unwrap();
        assert!(v.get("degraded").is_none());
        assert!(v.get("coverage").is_none());
    }

    /// The clamped (zeros) and unclamped (negatives) reconstructions of
    /// a fixed-seed, server-perturbed CENSUS session: 2000 estimates.
    fn census_reconstructions() -> [Reconstruction; 2] {
        let session = crate::session::CollectionSession::new(
            1,
            frapp_data::census::schema(),
            Mechanism::Deterministic { gamma: 19.0 },
            2,
            11,
            4096,
        )
        .unwrap();
        let dataset = frapp_data::census::census_like_n(4000, 5);
        session.submit_batch(dataset.records(), false).unwrap();
        [true, false].map(|clamp| {
            session
                .reconstruct(ReconstructionMethod::ClosedForm, clamp)
                .unwrap()
        })
    }

    #[test]
    fn reconstruction_response_bytes_are_the_parents() {
        // (FNV-1a-64, length) of each response, recorded at commit
        // `df3a16d`, when the response was a `Value` tree and every
        // number went through `format!`.
        let [clamped, unclamped] = census_reconstructions();
        assert_eq!(clamped.estimates.len(), 2000);
        assert!(clamped.estimates.contains(&0.0));
        assert!(unclamped.estimates.iter().any(|&e| e < 0.0));
        for &e in clamped.estimates.iter().chain(&unclamped.estimates) {
            let mut out = String::new();
            json::write_number(e, &mut out);
            assert_eq!(out, json::format_number(e));
        }
        let coverage = PartialCoverage {
            owners_total: 3,
            owners_reachable: 2,
            missing: vec![(2, "10.0.0.3:7000".to_owned())],
        };
        let got: Vec<(u64, usize)> = [
            (&clamped, None),
            (&unclamped, None),
            (&unclamped, Some(&coverage)),
        ]
        .into_iter()
        .map(|(rec, coverage)| {
            let mut out = String::new();
            write_reconstruction_response_with(&mut out, rec, coverage);
            (crate::fed::fnv1a(out.as_bytes()), out.len())
        })
        .collect();
        assert_eq!(
            got,
            [
                (13775818387793187996, 24115),
                (12612901313889562274, 38063),
                (13162880441513239346, 38176),
            ]
        );
    }

    #[test]
    fn parses_metrics_and_persist() {
        assert_eq!(
            parse_request(r#"{"op":"metrics","session":4}"#).unwrap(),
            Request::Metrics { session: Some(4) }
        );
        // A session-less metrics request asks for transport counters.
        assert_eq!(
            parse_request(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics { session: None }
        );
        assert_eq!(
            parse_request(r#"{"op":"persist"}"#).unwrap(),
            Request::Persist { session: None }
        );
        assert_eq!(
            parse_request(r#"{"op":"persist","session":2}"#).unwrap(),
            Request::Persist { session: Some(2) }
        );
        assert!(parse_request(r#"{"op":"metrics","session":-1}"#).is_err());
        assert!(parse_request(r#"{"op":"persist","session":-1}"#).is_err());
    }

    /// Parses what a `write_*` response writer appends to an empty
    /// buffer.
    fn written(write: impl FnOnce(&mut String)) -> Value {
        let mut out = String::new();
        write(&mut out);
        crate::json::parse(&out).unwrap()
    }

    #[test]
    fn partial_batch_errors_carry_accepted() {
        let err = ServiceError::PartialBatch {
            accepted: 3,
            source: Box::new(ServiceError::InvalidRequest("bad".into())),
        };
        let v = written(|out| write_error_response(out, &err));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("accepted").and_then(Value::as_u64), Some(3));
        // Other errors do not claim an accepted count.
        let v = written(|out| write_error_response(out, &ServiceError::UnknownSession(1)));
        assert!(v.get("accepted").is_none());
    }

    #[test]
    fn metrics_and_list_responses_are_parseable() {
        let report = crate::metrics::SessionMetrics::new().report();
        let v = written(|out| write_metrics_response(out, 7, 42, &report));
        assert_eq!(v.get("session").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("total").and_then(Value::as_u64), Some(42));
        assert!(v.get("query_latency").is_some());

        let summaries = vec![SessionSummary {
            id: 7,
            domain_size: 6,
            shards: 2,
            gamma: 19.0,
            total: 42,
            reconstructions: 1,
        }];
        let v = written(|out| write_list_response(out, &summaries));
        assert_eq!(
            v.get("sessions").and_then(Value::as_array).unwrap()[0].as_u64(),
            Some(7)
        );
        let detail = v.get("detail").and_then(Value::as_array).unwrap();
        assert_eq!(
            detail[0].get("domain_size").and_then(Value::as_u64),
            Some(6)
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "not json",
            r#"{"no_op":1}"#,
            r#"{"op":"warp"}"#,
            r#"{"op":"submit","records":[[0]]}"#,
            r#"{"op":"submit","session":1,"records":[[0,-1]]}"#,
            r#"{"op":"create_session","schema":[["a",0]]}"#,
            r#"{"op":"create_session","schema":[["a",3]],"mechanism":"qr","gamma":2}"#,
            r#"{"op":"create_session","schema":[["a",3]],"gamma":19,"shards":0}"#,
        ] {
            assert!(parse_request(bad).is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn responses_are_parseable_json() {
        let v = written(|out| write_ok_response(out, vec![("session", 5u64.into())]));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("session").and_then(Value::as_u64), Some(5));

        let v = written(|out| write_error_response(out, &ServiceError::UnknownSession(9)));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert!(v
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("unknown session 9"));
    }
}
