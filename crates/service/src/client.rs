//! Blocking clients for both transports: the line-delimited JSON
//! protocol ([`Client`]) and the HTTP/1.1 front-end ([`HttpClient`]).
//!
//! Both speak the same JSON bodies against the same server core, so
//! every typed method is written once (`typed_ops!`) in terms of
//! `call(op, id, fields)`; the clients differ only in how `call` puts
//! that triple on the wire — [`request_line`] or [`http_request`], both
//! rendered from the op's [`crate::wire::OPS`] row — and in that only
//! the line protocol supports *pipelined* submits
//! ([`Client::submit_nowait`] / [`Client::flush`]).
//!
//! A [`Client`] can additionally upgrade its connection to the compact
//! binary framing with [`Client::negotiate_binary`]: submits are then
//! encoded as [`crate::framing`] `OP_SUBMIT` frames (skipping JSON
//! entirely on the ingest hot path) and every other op tunnels through
//! `OP_JSON` frames with unchanged bodies.

use crate::config::ServiceConfig;
use crate::error::{Result, ServiceError};
use crate::framing;
use crate::jobs::MineSpec;
use crate::json::{self, object, Value};
use crate::metrics::{LatencySummary, MetricsReport, PeerHealth, PeerReplReport, TransportReport};
use crate::protocol::{PartialCoverage, WireFraming};
use crate::session::{
    Mechanism, Reconstruction, ReconstructionMethod, SessionStats, SessionSummary,
};
use crate::wire::{Op, PeerCounter, COUNTERS, PEER_COUNTERS, PEER_SECTION};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Default connect timeout for [`Client::connect`] — generous enough
/// for any healthy network, finite so a black-holed address cannot
/// hang a CLI or a federation link forever.
const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Parameters for [`Client::create_session`].
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// `(name, cardinality)` per attribute.
    pub schema: Vec<(String, u32)>,
    /// Perturbation mechanism.
    pub mechanism: Mechanism,
    /// Ingest shard count (server default when `None`).
    pub shards: Option<usize>,
    /// Base RNG seed (server default when `None`).
    pub seed: Option<u64>,
}

impl SessionSpec {
    /// A deterministic gamma-diagonal session over `schema`.
    pub fn deterministic(schema: Vec<(String, u32)>, gamma: f64) -> Self {
        SessionSpec {
            schema,
            mechanism: Mechanism::Deterministic { gamma },
            shards: None,
            seed: None,
        }
    }

    /// The create-session request fields.
    pub(crate) fn fields(&self) -> Fields {
        let schema = Value::Array(
            self.schema
                .iter()
                .map(|(name, card)| Value::Array(vec![name.as_str().into(), (*card).into()]))
                .collect(),
        );
        let mut pairs = vec![("schema", schema)];
        match self.mechanism {
            Mechanism::Deterministic { gamma } => {
                pairs.push(("mechanism", "det".into()));
                pairs.push(("gamma", gamma.into()));
            }
            Mechanism::Randomized {
                gamma,
                alpha_fraction,
            } => {
                pairs.push(("mechanism", "ran".into()));
                pairs.push(("gamma", gamma.into()));
                pairs.push(("alpha_fraction", alpha_fraction.into()));
            }
        }
        if let Some(shards) = self.shards {
            pairs.push(("shards", shards.into()));
        }
        if let Some(seed) = self.seed {
            pairs.push(("seed", seed.into()));
        }
        pairs
    }
}

/// Appends the submit-body fields both transports share —
/// `"records":[[..],..],"pre_perturbed":..(,"shard":..)` — straight
/// into a string buffer. This is the client-side ingest hot path:
/// going through a [`Value`] tree would cost an allocation per record
/// plus a serialize pass, the dominant per-batch client cost once acks
/// are pipelined. One serializer for both transports also keeps the
/// emitted bytes canonical, which the server's fast submit-line decoder
/// relies on.
pub(crate) fn write_submit_fields<R: AsRef<[u32]>>(
    out: &mut String,
    records: impl Iterator<Item = R>,
    pre_perturbed: bool,
    shard: Option<usize>,
) {
    use std::fmt::Write as _;
    out.push_str("\"records\":[");
    for (i, record) in records.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, &v) in record.as_ref().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push(']');
    }
    let _ = write!(out, "],\"pre_perturbed\":{pre_perturbed}");
    if let Some(shard) = shard {
        let _ = write!(out, ",\"shard\":{shard}");
    }
}

/// Validates a response object's `ok` field, mapping `ok: false` to
/// [`ServiceError::Remote`] (carrying the retry offset, when present).
fn check_ok(v: Value) -> Result<Value> {
    match v.get("ok").and_then(Value::as_bool) {
        Some(true) => Ok(v),
        Some(false) => Err(ServiceError::Remote {
            message: v
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("unspecified error")
                .to_owned(),
            accepted: v.get("accepted").and_then(Value::as_u64),
        }),
        None => Err(ServiceError::Protocol(
            "response is missing the `ok` field".into(),
        )),
    }
}

fn parse_submit_shard(v: &Value) -> Result<usize> {
    v.get("shard")
        .and_then(Value::as_usize)
        .ok_or_else(|| ServiceError::Protocol("submit response missing `shard`".into()))
}

fn parse_reconstruction(v: &Value, method: ReconstructionMethod) -> Result<Reconstruction> {
    let estimates = v
        .get("estimates")
        .and_then(Value::as_array)
        .ok_or_else(|| ServiceError::Protocol("reconstruct response missing `estimates`".into()))?
        .iter()
        .map(|e| {
            e.as_f64()
                .ok_or_else(|| ServiceError::Protocol("estimates must be numbers".into()))
        })
        .collect::<Result<Vec<f64>>>()?;
    let n = v.get("n").and_then(Value::as_u64).ok_or_else(|| {
        ServiceError::Protocol("reconstruct response missing an integer `n`".into())
    })?;
    Ok(Reconstruction {
        n,
        estimates,
        method,
        lu_cache_hit: v
            .get("lu_cache_hit")
            .and_then(Value::as_bool)
            .unwrap_or(false),
    })
}

fn parse_stats(v: &Value) -> Result<SessionStats> {
    let per_shard = v
        .get("per_shard")
        .and_then(Value::as_array)
        .ok_or_else(|| ServiceError::Protocol("stats response missing `per_shard`".into()))?
        .iter()
        .map(|c| {
            c.as_u64()
                .ok_or_else(|| ServiceError::Protocol("shard counts must be integers".into()))
        })
        .collect::<Result<Vec<u64>>>()?;
    Ok(SessionStats {
        total: v.get("total").and_then(Value::as_u64).unwrap_or(0),
        per_shard,
    })
}

/// The session-id array under `key` (`sessions`, `persisted`).
fn parse_ids(v: &Value, key: &str) -> Result<Vec<u64>> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| ServiceError::Protocol(format!("response missing `{key}`")))?
        .iter()
        .map(|s| {
            s.as_u64()
                .ok_or_else(|| ServiceError::Protocol("session ids must be integers".into()))
        })
        .collect()
}

fn parse_session_details(v: &Value) -> Result<Vec<SessionSummary>> {
    v.get("detail")
        .and_then(Value::as_array)
        .ok_or_else(|| ServiceError::Protocol("list response missing `detail`".into()))?
        .iter()
        .map(|d| {
            let field = |key: &str| {
                d.get(key).and_then(Value::as_u64).ok_or_else(|| {
                    ServiceError::Protocol(format!("session detail missing `{key}`"))
                })
            };
            Ok(SessionSummary {
                id: field("session")?,
                domain_size: field("domain_size")? as usize,
                shards: field("shards")? as usize,
                gamma: d.get("gamma").and_then(Value::as_f64).unwrap_or(f64::NAN),
                total: field("total")?,
                reconstructions: field("reconstructions")?,
            })
        })
        .collect()
}

/// Parses one power-of-two histogram object from a metrics response.
/// Absent fields (an older server) yield an empty summary rather than
/// an error.
fn parse_histogram(v: &Value, key: &str) -> Result<LatencySummary> {
    let Some(hist) = v.get(key) else {
        return Ok(LatencySummary {
            count: 0,
            mean_us: 0.0,
            max_us: 0,
            buckets: Vec::new(),
        });
    };
    let buckets = hist
        .get("buckets")
        .and_then(Value::as_array)
        .ok_or_else(|| ServiceError::Protocol(format!("`{key}` missing `buckets`")))?
        .iter()
        .map(|pair| {
            let pair = pair.as_array().filter(|p| p.len() == 2).ok_or_else(|| {
                ServiceError::Protocol("histogram buckets must be [bound, count] pairs".into())
            })?;
            match (pair[0].as_u64(), pair[1].as_u64()) {
                (Some(le), Some(c)) => Ok((le, c)),
                _ => Err(ServiceError::Protocol(
                    "histogram bucket entries must be integers".into(),
                )),
            }
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(LatencySummary {
        count: hist.get("count").and_then(Value::as_u64).unwrap_or(0),
        mean_us: hist.get("mean_us").and_then(Value::as_f64).unwrap_or(0.0),
        max_us: hist.get("max_us").and_then(Value::as_u64).unwrap_or(0),
        buckets,
    })
}

fn parse_metrics(v: &Value) -> Result<(MetricsReport, u64)> {
    let u64_field = |key: &str| {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| ServiceError::Protocol(format!("metrics response missing `{key}`")))
    };
    if v.get("query_latency").is_none() {
        return Err(ServiceError::Protocol(
            "metrics response missing `query_latency`".into(),
        ));
    }
    let report = MetricsReport {
        records_ingested: u64_field("records_ingested")?,
        batches: u64_field("batches")?,
        reconstructions: u64_field("reconstructions")?,
        uptime_secs: v.get("uptime_secs").and_then(Value::as_f64).unwrap_or(0.0),
        ingest_rate: v.get("ingest_rate").and_then(Value::as_f64).unwrap_or(0.0),
        query_latency: parse_histogram(v, "query_latency")?,
        ingest_batch_size: parse_histogram(v, "ingest_batch_size")?,
        submit_latency: parse_histogram(v, "submit_latency")?,
    };
    Ok((report, u64_field("total")?))
}

fn parse_transport_report(v: &Value) -> Result<TransportReport> {
    let first = COUNTERS[0].section;
    if v.get(first).is_none() {
        return Err(ServiceError::Protocol(format!(
            "metrics response missing `{first}`"
        )));
    }
    let mut report = TransportReport::default();
    for row in &COUNTERS {
        // A later section is absent on a server that predates it; zero
        // is also what a server that never used it reports.
        let value = v.get(row.section).and_then(|s| s.get(row.key));
        report.set(row.id, value.and_then(Value::as_u64).unwrap_or(0));
    }
    Ok(report)
}

/// Parses the optional `federation.peers` section of a transport
/// metrics response into per-peer replication reports. Absent section
/// (a non-federated server) parses as an empty list.
fn parse_federation_peers(v: &Value) -> Result<Vec<PeerReplReport>> {
    let Some(peers) = v.get(PEER_SECTION).and_then(|f| f.get("peers")) else {
        return Ok(Vec::new());
    };
    peers
        .as_array()
        .ok_or_else(|| ServiceError::Protocol("`federation.peers` must be an array".into()))?
        .iter()
        .map(|p| {
            Ok(PeerReplReport {
                node: p
                    .get("node")
                    .and_then(Value::as_usize)
                    .ok_or_else(|| ServiceError::Protocol("peer entry missing `node`".into()))?,
                addr: p
                    .get("addr")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_owned(),
                values: PEER_COUNTERS.map(|row| match (row.id, p.get(row.key)) {
                    (PeerCounter::Health, name) => {
                        PeerHealth::from_wire(name.and_then(Value::as_str).unwrap_or("up")).as_u64()
                    }
                    (_, n) => n.and_then(Value::as_u64).unwrap_or(0),
                }),
            })
        })
        .collect()
}

/// Extracts the degraded-answer coverage a federated server attaches
/// to a partial `reconstruct`/`stats` response (`"degraded": true`
/// plus a `coverage` object). `None` means the answer is exact.
fn parse_coverage(v: &Value) -> Option<PartialCoverage> {
    if v.get("degraded").and_then(Value::as_bool) != Some(true) {
        return None;
    }
    let c = v.get("coverage")?;
    let missing = c
        .get("missing")
        .and_then(Value::as_array)
        .map(|entries| {
            entries
                .iter()
                .filter_map(|e| {
                    Some((
                        e.get("node").and_then(Value::as_usize)?,
                        e.get("addr")
                            .and_then(Value::as_str)
                            .unwrap_or_default()
                            .to_owned(),
                    ))
                })
                .collect()
        })
        .unwrap_or_default();
    Some(PartialCoverage {
        owners_total: c.get("owners_total").and_then(Value::as_usize).unwrap_or(0),
        owners_reachable: c
            .get("owners_reachable")
            .and_then(Value::as_usize)
            .unwrap_or(0),
        missing,
    })
}

/// The fields of a request beyond its op and the id it binds, in wire
/// order.
pub type Fields = Vec<(&'static str, Value)>;

/// Renders `(op, id, fields)` as one line-protocol request line (no
/// newline): `{"op":name}` with the id under the key its
/// [`crate::wire::OPS`] row binds, then the fields. The federation
/// links build their control lines with it too.
pub fn request_line(op: Op, id: Option<u64>, fields: Fields) -> String {
    let row = op.row();
    let mut pairs = vec![("op", Value::from(row.name))];
    if let (Some(key), Some(id)) = (row.id, id) {
        pairs.push((key, id.into()));
    }
    pairs.extend(fields);
    object(pairs).to_json()
}

/// The method and path of `op`'s HTTP route: the first in its
/// [`crate::wire::OPS`] row whose pattern binds an id exactly when one
/// is given.
fn http_route(op: Op, id: Option<u64>) -> Result<(&'static str, String)> {
    let row = op.row();
    let &(method, pattern) = row
        .routes
        .iter()
        .find(|(_, pattern)| pattern.contains("{id}") == id.is_some())
        .ok_or_else(|| {
            ServiceError::InvalidRequest(format!(
                "`{}` has no HTTP route; use the line protocol",
                row.name
            ))
        })?;
    Ok((
        method,
        match id {
            Some(id) => pattern.replace("{id}", &id.to_string()),
            None => pattern.to_owned(),
        },
    ))
}

/// Renders `(op, id, fields)` as an HTTP request: method, target (path
/// plus the fields the op's row carries in the query string) and JSON
/// body (the remaining fields; empty when there are none).
pub fn http_request(
    op: Op,
    id: Option<u64>,
    fields: Fields,
) -> Result<(&'static str, String, String)> {
    let (method, mut target) = http_route(op, id)?;
    let (query, body): (Fields, Fields) = fields
        .into_iter()
        .partition(|(key, _)| op.row().query.iter().any(|(q, _)| q == key));
    for (i, (key, value)) in query.iter().enumerate() {
        target.push(if i == 0 { '?' } else { '&' });
        target.push_str(key);
        target.push('=');
        match value {
            Value::String(text) => target.push_str(text),
            other => other.write_json(&mut target),
        }
    }
    let body = if body.is_empty() {
        String::new()
    } else {
        object(body).to_json()
    };
    Ok((method, target, body))
}

/// The typed methods both clients share, written once against
/// `self.call(op, id, fields)` and `self.submit_inner(..)`.
macro_rules! typed_ops {
    ($client:ident) => {
        impl $client {
            /// Liveness probe.
            pub fn ping(&mut self) -> Result<()> {
                self.call(Op::Ping, None, Vec::new()).map(|_| ())
            }

            /// Creates a collection session, returning its id.
            pub fn create_session(&mut self, spec: &SessionSpec) -> Result<u64> {
                let v = self.call(Op::CreateSession, None, spec.fields())?;
                v.get("session").and_then(Value::as_u64).ok_or_else(|| {
                    ServiceError::Protocol("create_session response missing `session`".into())
                })
            }

            /// Ingests a batch on a server-chosen shard; returns the
            /// shard used.
            ///
            /// # Retry contract
            ///
            /// Server ingestion is record-at-a-time: a batch that fails
            /// mid-way (e.g. one record violates the schema) has its
            /// prefix *already counted*. The resulting
            /// [`ServiceError::Remote`] carries `accepted: Some(k)` —
            /// the server counted `records[..k]` and rejected
            /// `records[k]`. A client retrying after such an error must
            /// resubmit only `records[k..]` (typically after fixing or
            /// dropping the offending record); resubmitting the whole
            /// batch would double-count the first `k` records. Errors
            /// with `accepted: None` (connection failures, unknown
            /// session, …) mean nothing from the batch is known to have
            /// landed, and the whole batch should be retried once the
            /// cause is resolved — `stats` can be used to reconcile
            /// when a connection died mid-submit.
            pub fn submit_batch(
                &mut self,
                session: u64,
                records: &[Vec<u32>],
                pre_perturbed: bool,
            ) -> Result<usize> {
                self.submit_inner(session, records, pre_perturbed, None)
            }

            /// Ingests a batch on a specific shard. The retry contract
            /// of `submit_batch` applies here too.
            pub fn submit_batch_to_shard(
                &mut self,
                session: u64,
                shard: usize,
                records: &[Vec<u32>],
                pre_perturbed: bool,
            ) -> Result<()> {
                self.submit_inner(session, records, pre_perturbed, Some(shard))
                    .map(|_| ())
            }

            /// Runs a reconstruction query.
            pub fn reconstruct(
                &mut self,
                session: u64,
                method: ReconstructionMethod,
                clamp: bool,
            ) -> Result<Reconstruction> {
                let fields = vec![
                    ("method", method.wire_name().into()),
                    ("clamp", clamp.into()),
                ];
                let v = self.call(Op::Reconstruct, Some(session), fields)?;
                parse_reconstruction(&v, method)
            }

            /// `reconstruct` with `allow_partial` set: on a federated
            /// server with unreachable owners the reply is a *degraded*
            /// estimate over the reachable partitions, and the returned
            /// coverage names the missing owners. `None` coverage means
            /// the answer is exact (every owner contributed) — the only
            /// possible outcome on a single-node server, where the flag
            /// is accepted and ignored.
            pub fn reconstruct_partial(
                &mut self,
                session: u64,
                method: ReconstructionMethod,
                clamp: bool,
            ) -> Result<(Reconstruction, Option<PartialCoverage>)> {
                let fields = vec![
                    ("method", method.wire_name().into()),
                    ("clamp", clamp.into()),
                    ("allow_partial", true.into()),
                ];
                let v = self.call(Op::Reconstruct, Some(session), fields)?;
                Ok((parse_reconstruction(&v, method)?, parse_coverage(&v)))
            }

            /// Fetches ingest statistics.
            pub fn stats(&mut self, session: u64) -> Result<SessionStats> {
                parse_stats(&self.call(Op::Stats, Some(session), Vec::new())?)
            }

            /// `stats` with `allow_partial` set (see
            /// `reconstruct_partial` for the degraded-answer contract).
            pub fn stats_partial(
                &mut self,
                session: u64,
            ) -> Result<(SessionStats, Option<PartialCoverage>)> {
                let fields = vec![("allow_partial", true.into())];
                let v = self.call(Op::Stats, Some(session), fields)?;
                Ok((parse_stats(&v)?, parse_coverage(&v)))
            }

            /// Lists live session ids.
            pub fn list_sessions(&mut self) -> Result<Vec<u64>> {
                parse_ids(&self.call(Op::ListSessions, None, Vec::new())?, "sessions")
            }

            /// Lists live sessions with per-session summaries.
            pub fn list_sessions_detail(&mut self) -> Result<Vec<SessionSummary>> {
                parse_session_details(&self.call(Op::ListSessions, None, Vec::new())?)
            }

            /// Fetches a session's operational metrics. Returns the
            /// report plus the session's all-time record total (which
            /// survives restarts, unlike the report's process-lifetime
            /// counters).
            pub fn metrics(&mut self, session: u64) -> Result<(MetricsReport, u64)> {
                parse_metrics(&self.call(Op::Metrics, Some(session), Vec::new())?)
            }

            /// Fetches the server-wide counters of
            /// [`crate::wire::COUNTERS`].
            pub fn server_metrics(&mut self) -> Result<TransportReport> {
                parse_transport_report(&self.call(Op::Metrics, None, Vec::new())?)
            }

            /// Fetches the server's per-peer federation replication
            /// counters. Empty on a non-federated server (the
            /// `federation` section is simply absent from the metrics
            /// response).
            pub fn federation_metrics(&mut self) -> Result<Vec<PeerReplReport>> {
                parse_federation_peers(&self.call(Op::Metrics, None, Vec::new())?)
            }

            /// Fetches the cluster topology and per-peer liveness as
            /// the raw response object. On a non-federated server the
            /// response carries `"federated": false` and no peer list.
            pub fn cluster_status(&mut self) -> Result<Value> {
                self.call(Op::ClusterStatus, None, Vec::new())
            }

            /// Asks the server to snapshot one session (or all live
            /// sessions, with `None`) to its persistence directory.
            /// Returns the persisted session ids. Fails if the server
            /// has no persistence directory.
            pub fn persist(&mut self, session: Option<u64>) -> Result<Vec<u64>> {
                parse_ids(&self.call(Op::Persist, session, Vec::new())?, "persisted")
            }

            /// Closes a session; returns whether it existed.
            pub fn close_session(&mut self, session: u64) -> Result<bool> {
                let v = self.call(Op::CloseSession, Some(session), Vec::new())?;
                Ok(v.get("closed").and_then(Value::as_bool).unwrap_or(false))
            }

            /// Submits a background association-rule-mining job;
            /// returns the job id immediately. Follow up with
            /// `job_status` / `job_result`.
            pub fn mine_rules(&mut self, session: u64, spec: &MineSpec) -> Result<u64> {
                let fields = vec![
                    ("algo", spec.algo.wire_name().into()),
                    ("min_support", spec.min_support.into()),
                    ("min_confidence", spec.min_confidence.into()),
                    ("max_length", spec.max_length.into()),
                ];
                job_id_of(&self.call(Op::MineRules, Some(session), fields)?)
            }

            /// Submits a background Bayes-classifier job for the class
            /// attribute at `target`; returns the job id immediately.
            pub fn classify(&mut self, session: u64, target: usize) -> Result<u64> {
                let fields = vec![("target", target.into())];
                job_id_of(&self.call(Op::Classify, Some(session), fields)?)
            }

            /// Fetches a job's status object (state, progress counters,
            /// and — once terminal — wall time).
            pub fn job_status(&mut self, job: u64) -> Result<Value> {
                member_of(self.call(Op::JobStatus, Some(job), Vec::new())?, "status")
            }

            /// Fetches a finished job's result payload. Errors in-band
            /// while the job is still queued/running, or if it failed
            /// or was cancelled.
            pub fn job_result(&mut self, job: u64) -> Result<Value> {
                member_of(self.call(Op::JobResult, Some(job), Vec::new())?, "result")
            }

            /// Cancels a job (immediately while queued, cooperatively
            /// while running); returns its status object after the
            /// cancel request.
            pub fn job_cancel(&mut self, job: u64) -> Result<Value> {
                member_of(self.call(Op::JobCancel, Some(job), Vec::new())?, "status")
            }

            /// Lists every tracked job's status object, ascending by
            /// id.
            pub fn list_jobs(&mut self) -> Result<Vec<Value>> {
                match member_of(self.call(Op::ListJobs, None, Vec::new())?, "jobs")? {
                    Value::Array(jobs) => Ok(jobs),
                    _ => Err(ServiceError::Protocol("`jobs` must be an array".into())),
                }
            }

            /// Polls `job_status` until the job reaches a terminal
            /// state (returning it) or `timeout` elapses (in-band
            /// error).
            pub fn wait_job(&mut self, job: u64, timeout: Duration) -> Result<Value> {
                let deadline = std::time::Instant::now() + timeout;
                loop {
                    let status = self.job_status(job)?;
                    if job_status_is_terminal(&status) {
                        return Ok(status);
                    }
                    if std::time::Instant::now() >= deadline {
                        return Err(ServiceError::InvalidRequest(format!(
                            "job {job} did not finish within {timeout:?}"
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    };
}

fn job_id_of(v: &Value) -> Result<u64> {
    v.get("job")
        .and_then(Value::as_u64)
        .ok_or_else(|| ServiceError::Protocol("job response missing `job`".into()))
}

/// Takes the `key` member (`status`, `result`, `jobs`) out of a job
/// response; a mining result is too large to clone.
fn member_of(v: Value, key: &str) -> Result<Value> {
    let Value::Object(pairs) = v else {
        return Err(ServiceError::Protocol("response is not an object".into()));
    };
    let member = pairs.into_iter().find(|(k, _)| k == key);
    member
        .map(|(_, v)| v)
        .ok_or_else(|| ServiceError::Protocol(format!("job response missing `{key}`")))
}

/// Whether a job status object names a terminal state.
pub fn job_status_is_terminal(status: &Value) -> bool {
    matches!(
        status.get("state").and_then(Value::as_str),
        Some("done" | "failed" | "cancelled")
    )
}

/// A connected line-protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    /// Buffered so pipelined submits coalesce into large writes; every
    /// synchronous request flushes before reading.
    writer: BufWriter<TcpStream>,
    /// The framing negotiated on this connection. Connections start in
    /// line-JSON; [`Client::negotiate_binary`] upgrades.
    framing: WireFraming,
    /// Encode binary submit cells as fixed-width `u32` little-endian
    /// instead of varints ([`Client::set_binary_fixed32`]).
    fixed32: bool,
}

typed_ops!(Client);

impl Client {
    /// Connects to a running server with the default connect timeout
    /// and no read timeout (a synchronous request waits as long as the
    /// server computes).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        Self::connect_with_timeouts(addr, Some(DEFAULT_CONNECT_TIMEOUT), None)
    }

    /// Connects with the timeouts a [`ServiceConfig`] specifies
    /// (`connect_timeout_ms` / `read_timeout_ms`, `0` meaning
    /// unbounded) — what the federation links and the bundled CLI use,
    /// so one stalled peer cannot wedge them forever.
    pub fn connect_with_config(addr: impl ToSocketAddrs, config: &ServiceConfig) -> Result<Self> {
        let of_ms = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
        Self::connect_with_timeouts(
            addr,
            of_ms(config.connect_timeout_ms),
            of_ms(config.read_timeout_ms),
        )
    }

    /// Connects with explicit timeouts. `connect_timeout` bounds the
    /// TCP handshake per resolved address; `read_timeout` bounds every
    /// subsequent response wait (a stalled server surfaces as an
    /// [`ServiceError::Io`] with kind `WouldBlock`/`TimedOut` instead
    /// of hanging the caller). `None` means unbounded, the historical
    /// behaviour.
    pub fn connect_with_timeouts(
        addr: impl ToSocketAddrs,
        connect_timeout: Option<Duration>,
        read_timeout: Option<Duration>,
    ) -> Result<Self> {
        Self::connect_with_all_timeouts(addr, connect_timeout, read_timeout, None)
    }

    /// [`Client::connect_with_timeouts`] plus a write timeout: bounds
    /// how long a send can block on a peer that accepted the
    /// connection but stopped draining its socket — the failure mode
    /// a read timeout never sees, because the wedged call is the
    /// *write*. What the federation links use.
    pub fn connect_with_all_timeouts(
        addr: impl ToSocketAddrs,
        connect_timeout: Option<Duration>,
        read_timeout: Option<Duration>,
        write_timeout: Option<Duration>,
    ) -> Result<Self> {
        let stream = match connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(timeout) => {
                let mut last_err: Option<std::io::Error> = None;
                let mut connected = None;
                for resolved in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, timeout) {
                        Ok(stream) => {
                            connected = Some(stream);
                            break;
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                connected.ok_or_else(|| match last_err {
                    Some(e) => ServiceError::Io(e),
                    None => ServiceError::Protocol("address resolved to no endpoints".into()),
                })?
            }
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(read_timeout)?;
        stream.set_write_timeout(write_timeout)?;
        let writer = BufWriter::new(stream.try_clone()?);
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            framing: WireFraming::Json,
            fixed32: false,
        })
    }

    /// Upgrades this connection to the compact binary framing via the
    /// `hello` negotiation op. The acknowledgement arrives in the old
    /// (line) framing; every subsequent byte in both directions uses
    /// binary frames. A no-op on an already-binary connection.
    pub fn negotiate_binary(&mut self) -> Result<()> {
        if self.framing == WireFraming::Binary {
            return Ok(());
        }
        self.call(Op::Hello, None, vec![("framing", "binary".into())])?;
        self.framing = WireFraming::Binary;
        Ok(())
    }

    /// The framing currently negotiated on this connection.
    pub fn framing(&self) -> WireFraming {
        self.framing
    }

    /// Selects fixed-width (`u32` little-endian) cells for binary
    /// submit frames instead of the default varint cells — larger on
    /// the wire for small cardinalities, cheaper to decode. Ignored
    /// until [`Client::negotiate_binary`] has run.
    pub fn set_binary_fixed32(&mut self, fixed32: bool) {
        self.fixed32 = fixed32;
    }

    /// Reads one `[opcode][varint len][payload]` frame off the socket.
    fn read_frame(&mut self) -> Result<(u8, Vec<u8>)> {
        let mut byte = [0u8; 1];
        if let Err(e) = self.reader.read_exact(&mut byte) {
            return Err(if e.kind() == std::io::ErrorKind::UnexpectedEof {
                ServiceError::ConnectionClosed
            } else {
                e.into()
            });
        }
        let opcode = byte[0];
        let mut header = Vec::new();
        let len = loop {
            self.reader.read_exact(&mut byte)?;
            header.push(byte[0]);
            if let Some((len, _)) = framing::read_varint(&header)? {
                break len;
            }
        };
        // The length is the sender's claim: memory grows only with the
        // bytes that actually arrive.
        let mut payload = Vec::new();
        (&mut self.reader).take(len).read_to_end(&mut payload)?;
        if (payload.len() as u64) < len {
            return Err(ServiceError::ConnectionClosed);
        }
        Ok((opcode, payload))
    }

    /// Reads one binary response frame and parses its JSON body (the
    /// server answers every synchronous op with an `OP_JSON` frame).
    fn read_json_frame_response(&mut self) -> Result<Value> {
        let (opcode, payload) = self.read_frame()?;
        if opcode != framing::OP_JSON {
            return Err(ServiceError::Protocol(format!(
                "unexpected response opcode 0x{opcode:02x}"
            )));
        }
        let text = std::str::from_utf8(&payload)
            .map_err(|_| ServiceError::Protocol("response frame is not valid UTF-8".into()))?;
        check_ok(json::parse(text.trim())?)
    }

    /// Queues one complete pre-encoded binary frame without waiting for
    /// (or reading) any response — the pipelining primitive the
    /// federation forwarder sends deferred replication frames with. The
    /// frame is buffered; any synchronous request flushes it in order.
    /// Only meaningful after [`Client::negotiate_binary`].
    pub fn send_frame_nowait(&mut self, frame: &[u8]) -> Result<()> {
        Ok(self.writer.write_all(frame)?)
    }

    /// Sends one complete pre-encoded binary frame and returns the
    /// parsed successful response object, as [`Client::request`] does
    /// for a line.
    pub fn request_frame(&mut self, frame: &[u8]) -> Result<Value> {
        self.send_frame_nowait(frame)?;
        self.read_response()
    }

    /// Sends one raw request line and returns the parsed successful
    /// response object; `ok: false` becomes [`ServiceError::Remote`].
    /// On a binary connection the line tunnels through an `OP_JSON`
    /// frame with the same body.
    pub fn request(&mut self, line: &str) -> Result<Value> {
        if self.framing == WireFraming::Binary {
            let mut frame = Vec::with_capacity(line.len() + 8);
            framing::encode_json_frame(&mut frame, line);
            return self.request_frame(&frame);
        }
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.read_response()
    }

    /// Flushes everything queued and reads one response in the
    /// negotiated framing.
    fn read_response(&mut self) -> Result<Value> {
        self.writer.flush()?;
        if self.framing == WireFraming::Binary {
            return self.read_json_frame_response();
        }
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(ServiceError::ConnectionClosed);
        }
        check_ok(json::parse(response.trim())?)
    }

    /// Sends `(op, id, fields)` as one request line ([`request_line`])
    /// and returns the parsed successful response.
    pub fn call(&mut self, op: Op, id: Option<u64>, fields: Fields) -> Result<Value> {
        self.request(&request_line(op, id, fields))
    }

    /// Builds one submit line straight into a string (see
    /// [`write_submit_fields`] for why this skips the `Value` tree).
    fn submit_line(
        session: u64,
        records: &[Vec<u32>],
        pre_perturbed: bool,
        shard: Option<usize>,
        deferred: bool,
    ) -> String {
        use std::fmt::Write as _;
        let mut line = String::with_capacity(72 + records.len() * 12);
        let _ = write!(line, "{{\"op\":\"submit\",\"session\":{session},");
        write_submit_fields(&mut line, records.iter(), pre_perturbed, shard);
        if deferred {
            line.push_str(",\"ack\":\"deferred\"");
        }
        line.push('}');
        line
    }

    /// Encodes one submit in the negotiated framing — a binary
    /// `OP_SUBMIT` frame or the canonical line — into the write buffer.
    fn write_submit(
        &mut self,
        session: u64,
        records: &[Vec<u32>],
        pre_perturbed: bool,
        shard: Option<usize>,
        deferred: bool,
    ) -> Result<()> {
        if self.framing == WireFraming::Binary {
            let mut frame = Vec::with_capacity(24 + records.len() * 8);
            framing::encode_submit_frame(
                &mut frame,
                session,
                records,
                pre_perturbed,
                shard,
                deferred,
                self.fixed32,
            );
            self.writer.write_all(&frame)?;
        } else {
            let line = Self::submit_line(session, records, pre_perturbed, shard, deferred);
            self.writer.write_all(line.as_bytes())?;
            self.writer.write_all(b"\n")?;
        }
        Ok(())
    }

    fn submit_inner(
        &mut self,
        session: u64,
        records: &[Vec<u32>],
        pre_perturbed: bool,
        shard: Option<usize>,
    ) -> Result<usize> {
        self.write_submit(session, records, pre_perturbed, shard, false)?;
        parse_submit_shard(&self.read_response()?)
    }

    /// Queues a batch with a *deferred* acknowledgement: the request is
    /// buffered (and streamed to the server) without waiting for — or
    /// ever receiving — a per-batch response, so a submission loop pays
    /// no round-trip per batch. Call [`Client::flush`] to learn the
    /// cumulative accepted watermark and surface any ingest failure.
    ///
    /// # Retry contract, pipelined
    ///
    /// The server ingests deferred batches in submission order and
    /// *stops at the first failure* (later deferred batches are
    /// dropped), so the watermark `flush` reports is always a
    /// contiguous prefix of everything queued since the previous
    /// flush. After a failed flush, resubmit every record past the
    /// watermark — exactly the synchronous contract, applied to the
    /// concatenated stream instead of one batch.
    pub fn submit_nowait(
        &mut self,
        session: u64,
        records: &[Vec<u32>],
        pre_perturbed: bool,
    ) -> Result<()> {
        self.write_submit(session, records, pre_perturbed, None, true)
    }

    /// [`Client::submit_nowait`] pinned to a shard (deterministic
    /// server-side perturbation, as with
    /// [`Client::submit_batch_to_shard`]).
    pub fn submit_nowait_to_shard(
        &mut self,
        session: u64,
        shard: usize,
        records: &[Vec<u32>],
        pre_perturbed: bool,
    ) -> Result<()> {
        self.write_submit(session, records, pre_perturbed, Some(shard), true)
    }

    /// Reports (and resets) the deferred-submit watermark: how many
    /// records the server accepted across every [`Client::submit_nowait`]
    /// since the last flush. If any deferred batch failed, the error
    /// arrives here as [`ServiceError::Remote`] with `accepted:
    /// Some(watermark)` — resubmit everything past the watermark.
    pub fn flush(&mut self) -> Result<u64> {
        let v = self.call(Op::Flush, None, Vec::new())?;
        v.get("accepted")
            .and_then(Value::as_u64)
            .ok_or_else(|| ServiceError::Protocol("flush response missing `accepted`".into()))
    }

    /// Asks the server to shut down.
    pub fn shutdown(&mut self) -> Result<()> {
        self.call(Op::Shutdown, None, Vec::new()).map(|_| ())
    }
}

/// A client for the HTTP/1.1 front-end ([`crate::http`]).
///
/// One keep-alive connection, hand-rolled framing, and the same JSON
/// bodies and error mapping as the line protocol (`ok: false` becomes
/// [`ServiceError::Remote`] whatever the status code). Pipelined
/// submits are a line-protocol feature; over HTTP every submit is
/// synchronous.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

typed_ops!(HttpClient);

impl HttpClient {
    /// Connects to a server's HTTP address.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(HttpClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends `(op, id, fields)` over the op's route ([`http_request`])
    /// and returns the parsed successful response. Ops without a route
    /// fail without touching the connection.
    pub fn call(&mut self, op: Op, id: Option<u64>, fields: Fields) -> Result<Value> {
        let (method, target, body) = http_request(op, id, fields)?;
        self.request_raw(method, &target, &body)
    }

    fn submit_inner(
        &mut self,
        session: u64,
        records: &[Vec<u32>],
        pre_perturbed: bool,
        shard: Option<usize>,
    ) -> Result<usize> {
        // Built directly, skipping the `Value` tree (the submit hot
        // path; see [`write_submit_fields`]).
        let mut body = String::with_capacity(48 + records.len() * 12);
        body.push('{');
        write_submit_fields(&mut body, records.iter(), pre_perturbed, shard);
        body.push('}');
        let (method, path) = http_route(Op::Submit, Some(session))?;
        parse_submit_shard(&self.request_raw(method, &path, &body)?)
    }

    /// Sends one request and returns the parsed response body. The
    /// returned status is folded into the `ok` check — the body always
    /// carries `ok`/`error` — so callers only see [`ServiceError`]s.
    pub fn request(&mut self, method: &str, path: &str, body: Option<&Value>) -> Result<Value> {
        let body = body.map(Value::to_json).unwrap_or_default();
        self.request_raw(method, path, &body)
    }

    /// [`Self::request`] with a pre-serialized body.
    fn request_raw(&mut self, method: &str, path: &str, body: &str) -> Result<Value> {
        // One write per request: a head/body split across segments
        // would trip Nagle against the server's delayed ACKs.
        let mut message = format!(
            "{method} {path} HTTP/1.1\r\nHost: frapp\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        message.push_str(body);
        self.writer.write_all(message.as_bytes())?;
        self.writer.flush()?;

        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ServiceError::ConnectionClosed);
        }
        if !line.starts_with("HTTP/1.1 ") && !line.starts_with("HTTP/1.0 ") {
            return Err(ServiceError::Protocol(format!(
                "malformed status line `{}`",
                line.trim()
            )));
        }
        let mut content_length = 0u64;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(ServiceError::Protocol(
                    "connection closed mid-headers".into(),
                ));
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        ServiceError::Protocol(format!("invalid Content-Length `{value}`"))
                    })?;
                }
            }
        }
        // The length is the server's claim: memory grows only with the
        // bytes that actually arrive.
        let mut body = Vec::new();
        (&mut self.reader)
            .take(content_length)
            .read_to_end(&mut body)?;
        if (body.len() as u64) < content_length {
            return Err(ServiceError::ConnectionClosed);
        }
        let text = std::str::from_utf8(&body)
            .map_err(|_| ServiceError::Protocol("response body is not valid UTF-8".into()))?;
        check_ok(json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn a_reconstruct_answer_without_an_integer_n_is_a_protocol_error() {
        for answer in [
            r#"{"ok":true,"method":"closed","estimates":[1.5,0]}"#,
            r#"{"ok":true,"n":-1,"estimates":[1.5,0]}"#,
            r#"{"ok":true,"n":"4","estimates":[]}"#,
        ] {
            // A sink that reads one request line and answers `answer`.
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let sink = std::thread::spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                let mut request = String::new();
                BufReader::new(&stream).read_line(&mut request).unwrap();
                (&stream)
                    .write_all(format!("{answer}\n").as_bytes())
                    .unwrap();
                request
            });
            let mut client = Client::connect(addr).unwrap();
            let err = client
                .reconstruct(1, ReconstructionMethod::ClosedForm, true)
                .unwrap_err();
            assert!(
                matches!(&err, ServiceError::Protocol(m) if m.contains("`n`")),
                "{answer}: {err}"
            );
            assert!(sink.join().unwrap().contains(r#""op":"reconstruct""#));
        }
    }
}
