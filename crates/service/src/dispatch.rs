//! The transport-agnostic dispatch core.
//!
//! Every front-end — the line-JSON TCP listener in [`crate::server`],
//! the HTTP/1.1 listener in [`crate::http`] and the nonblocking
//! reactor in [`crate::reactor`] — parses its framing into the same
//! [`Request`] enum and hands it to the shared `execute` here; the
//! response body is identical JSON either way. What *is*
//! transport-specific lives in [`ConnState`]: the line protocol keeps a
//! per-connection deferred-submit watermark (pipelined acks), which a
//! strict request/response transport like HTTP never populates.

use crate::config::ServiceConfig;
use crate::error::{Result, ServiceError};
use crate::fed::{FedState, Routed};
use crate::jobs::JobManager;
use crate::json::{self, Value};
use crate::metrics::TransportMetrics;
use crate::persist;
use crate::protocol::{
    build_request, is_deferred_submit, read_request, write_error_response, write_flush_response,
    write_list_response, write_metrics_response, write_ok_response, write_reconstruction_response,
    write_reconstruction_response_with, write_stats_response, write_stats_response_with,
    write_transport_metrics_response, AttrRef, Request, Submit, WireFraming,
};
use crate::session::{Placement, SessionRegistry};
use crate::wire::Counter;
use frapp_core::Schema;

/// What the connection loop should do after one dispatched request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A response was written into the output buffer; send it.
    Reply,
    /// Nothing to send (a deferred-ack submit); keep reading.
    Quiet,
    /// A response was written, and the server should shut down after
    /// sending it.
    Shutdown,
    /// A `hello` negotiation succeeded: send the response (written in
    /// the *current* framing), then switch the connection's codec to
    /// the named framing for every subsequent byte.
    SwitchFraming(WireFraming),
}

/// Per-connection dispatch state: the deferred-submit watermark.
///
/// Deferred submits are ingested in arrival order and never answered
/// individually; the connection accumulates how many records were
/// accepted. The first failure freezes the watermark — later deferred
/// batches are dropped, not ingested — so `accepted` always names a
/// contiguous prefix of the stream and the partial-batch retry
/// contract holds across pipelining: after a failed `flush`, resubmit
/// everything past the watermark.
#[derive(Debug, Default)]
pub struct ConnState {
    accepted: u64,
    batches: u64,
    error: Option<ServiceError>,
}

impl ConnState {
    /// Fresh state with an empty watermark.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any deferred submits are pending a report.
    fn pending(&self) -> bool {
        self.batches > 0
    }

    fn record(&mut self, accepted: u64) {
        self.accepted += accepted;
        self.batches += 1;
    }

    /// Counts a deferred batch that failed (or was dropped because an
    /// earlier one failed), stashing the first error.
    fn record_failure(&mut self, accepted: u64, error: ServiceError) {
        self.accepted += accepted;
        self.batches += 1;
        self.error.get_or_insert(error);
    }

    fn reset(&mut self) -> (u64, u64, Option<ServiceError>) {
        (
            std::mem::take(&mut self.accepted),
            std::mem::take(&mut self.batches),
            self.error.take(),
        )
    }
}

/// Parses and executes one request line; returns the response line and
/// whether the server should shut down. A convenience wrapper over
/// [`dispatch_into`] for embedders and tests that do not pipeline
/// (deferred-ack submits are still accepted, but their watermark dies
/// with the throwaway state). It carries no job executor, so the
/// background-job ops answer with an in-band error.
pub fn dispatch(registry: &SessionRegistry, config: &ServiceConfig, line: &str) -> (String, bool) {
    let mut out = String::new();
    let transport = TransportMetrics::new();
    let mut state = ConnState::new();
    let stop = matches!(
        dispatch_into(registry, config, &transport, None, None, &mut state, line, &mut out),
        Outcome::Shutdown
    );
    (out, stop)
}

/// [`dispatch`] writing the response into a caller-owned buffer
/// (appended — the connection loop clears and reuses one buffer per
/// connection), against per-connection pipelining state. `fed` is the
/// node's federation layer when it has peers: client-facing ops route
/// through it, while forwarded ops (stamped binary submits, creates
/// with an explicit session id) always apply locally so replication
/// never cascades.
#[allow(clippy::too_many_arguments)] // the shared server context reads better flat than bundled
pub fn dispatch_into(
    registry: &SessionRegistry,
    config: &ServiceConfig,
    transport: &TransportMetrics,
    fed: Option<&FedState>,
    jobs: Option<&JobManager>,
    state: &mut ConnState,
    line: &str,
    out: &mut String,
) -> Outcome {
    let (fields, records) = match read_request(line) {
        Ok(read) => read,
        Err(e) => {
            // Unparseable framing: there is no way to tell whether the
            // peer meant a deferred submit, so answer in-band like any
            // other protocol error. (The bundled client builds its own
            // lines, so its pipelined stream never hits this arm.)
            write_error_with_watermark(state, out, &e);
            return Outcome::Reply;
        }
    };
    // Checked before the fields are validated, so that a deferred
    // submit with invalid fields stays quiet too: its error is stashed
    // for the flush, because the pipelining client is not reading
    // responses at this point. A valid one is quiet in
    // `dispatch_request`.
    let deferred = is_deferred_submit(&fields);
    match build_request(None, None, &fields, records, true) {
        Ok(req) => dispatch_request(registry, config, transport, fed, jobs, state, req, out),
        Err(e) if deferred => {
            transport.inc(Counter::DeferredBatches);
            state.record_failure(0, e);
            Outcome::Quiet
        }
        Err(e) => {
            write_error_with_watermark(state, out, &e);
            Outcome::Reply
        }
    }
}

/// Executes one already-decoded [`Request`] against the pipelining
/// state, writing the response (if any) into `out`. This is the common
/// back half of [`dispatch_into`] and the entry point for framings —
/// like the binary one — that decode straight to a [`Request`] without
/// ever materialising a JSON line.
#[allow(clippy::too_many_arguments)] // the shared server context reads better flat than bundled
pub(crate) fn dispatch_request(
    registry: &SessionRegistry,
    config: &ServiceConfig,
    transport: &TransportMetrics,
    fed: Option<&FedState>,
    jobs: Option<&JobManager>,
    state: &mut ConnState,
    req: Request,
    out: &mut String,
) -> Outcome {
    if let Request::Submit(submit) = &req {
        if submit.deferred {
            execute_deferred(registry, transport, fed, state, submit);
            return Outcome::Quiet;
        }
    }
    match execute_with_state(registry, config, transport, fed, jobs, state, req, out) {
        Ok(ExecuteOutcome::Respond) => {
            attach_watermark(state, out);
            Outcome::Reply
        }
        Ok(ExecuteOutcome::Flush) => Outcome::Reply,
        Ok(ExecuteOutcome::Switch(framing)) => {
            attach_watermark(state, out);
            Outcome::SwitchFraming(framing)
        }
        Ok(ExecuteOutcome::Shutdown) => {
            attach_watermark(state, out);
            Outcome::Shutdown
        }
        Err(e) => {
            // Every execute arm writes its response only after all
            // fallible work, so nothing has been appended on the error
            // path; truncate defensively anyway.
            out.clear();
            write_error_with_watermark(state, out, &e);
            Outcome::Reply
        }
    }
}

/// What [`apply_submit`] did with a batch.
struct Applied {
    /// Records counted — optimistic for a remote owner until `flush`
    /// barriers the links; a duplicate's records count, they already did.
    accepted: u64,
    /// The local shard or the owner node the batch went to.
    routed: Routed,
    /// A forwarded batch this node had already applied.
    duplicate: bool,
}

/// Applies one submit, synchronous or deferred, and says where it
/// went. A forwarded replication batch always applies locally, so
/// replication never cascades; any other submit on a federated node
/// routes by the session's owners (a `shard` hint is a single-node
/// concept there); the rest land where their placement says.
fn apply_submit(
    registry: &SessionRegistry,
    fed: Option<&FedState>,
    submit: &Submit,
) -> Result<Applied> {
    let (routed, duplicate) = match (fed, submit.placement) {
        (Some(fed), Placement::RoundRobin | Placement::Shard(_)) => {
            let routed = fed.submit(
                registry,
                submit.session,
                &submit.records,
                submit.pre_perturbed,
                submit.deferred,
            )?;
            (routed, false)
        }
        (_, placement) => {
            let ingested = registry.get(submit.session)?.ingest(
                placement,
                submit.records.iter(),
                submit.pre_perturbed,
            )?;
            let shard = ingested.shard;
            (Routed::Local { shard }, !ingested.fresh)
        }
    };
    Ok(Applied {
        accepted: submit.records.len() as u64,
        routed,
        duplicate,
    })
}

/// Ingests one deferred-ack submit into the connection watermark. No
/// response is produced; failures freeze the watermark (later deferred
/// batches are dropped) so `accepted` stays a contiguous prefix.
fn execute_deferred(
    registry: &SessionRegistry,
    transport: &TransportMetrics,
    fed: Option<&FedState>,
    state: &mut ConnState,
    submit: &Submit,
) {
    transport.inc(Counter::DeferredBatches);
    if state.error.is_some() {
        // A batch after the first failure is dropped un-ingested: the
        // watermark must stay a contiguous prefix of the stream, and
        // the client will resubmit everything past it anyway.
        state.batches += 1;
        return;
    }
    match apply_submit(registry, fed, submit) {
        Ok(applied) => state.record(applied.accepted),
        Err(ServiceError::PartialBatch { accepted, source }) => {
            state.record_failure(accepted, ServiceError::PartialBatch { accepted, source })
        }
        Err(e) => state.record_failure(0, e),
    }
}

/// Appends the deferred watermark to a response that is about to be
/// sent while deferred submits are pending: the synchronous op's reply
/// doubles as the flush report, so the watermark is never silently
/// dropped. All responses are single JSON objects, so the fields splice
/// in before the closing brace.
fn attach_watermark(state: &mut ConnState, out: &mut String) {
    if !state.pending() {
        return;
    }
    let (accepted, _batches, error) = state.reset();
    // The pop must NOT live inside a debug_assert!: release builds
    // compile the assertion out, side effects included.
    let closing = out.pop();
    debug_assert_eq!(closing, Some('}'), "responses are JSON objects");
    use std::fmt::Write as _;
    let _ = write!(out, ",\"deferred_accepted\":{accepted}");
    if let Some(e) = error {
        out.push_str(",\"deferred_error\":");
        json::Value::from(e.to_string()).write_json(out);
    }
    out.push('}');
}

fn write_error_with_watermark(state: &mut ConnState, out: &mut String, e: &ServiceError) {
    write_error_response(out, e);
    attach_watermark(state, out);
}

/// How [`execute`] left the output buffer.
pub(crate) enum ExecuteOutcome {
    /// A normal response: the dispatcher may attach a pending deferred
    /// watermark.
    Respond,
    /// A `flush` response: the watermark is the response, already
    /// consumed.
    Flush,
    /// A `hello` acknowledgement: after sending it, the connection
    /// switches to the negotiated framing.
    Switch(WireFraming),
    /// A `shutdown` acknowledgement.
    Shutdown,
}

/// [`execute_with_state`] without pipelining state — the entry point
/// for strict request/response transports (HTTP), where deferred acks
/// are rejected at parse time and `flush` trivially reports zero.
pub(crate) fn execute(
    registry: &SessionRegistry,
    config: &ServiceConfig,
    transport: &TransportMetrics,
    fed: Option<&FedState>,
    jobs: Option<&JobManager>,
    req: Request,
    out: &mut String,
) -> Result<ExecuteOutcome> {
    execute_with_state(
        registry,
        config,
        transport,
        fed,
        jobs,
        &mut ConnState::new(),
        req,
        out,
    )
}

/// Executes one request against the registry, writing the response into
/// `out`. `state` only matters for `flush` (which consumes the
/// watermark); deferred submits never reach here — the dispatcher
/// routes them through [`execute_deferred`].
#[allow(clippy::too_many_arguments)] // the shared server context reads better flat than bundled
fn execute_with_state(
    registry: &SessionRegistry,
    config: &ServiceConfig,
    transport: &TransportMetrics,
    fed: Option<&FedState>,
    jobs: Option<&JobManager>,
    state: &mut ConnState,
    req: Request,
    out: &mut String,
) -> Result<ExecuteOutcome> {
    match req {
        Request::Ping => write_ok_response(out, vec![("pong", true.into())]),
        Request::Hello { framing } => {
            // The acknowledgement goes out in the *current* framing;
            // every byte after it is in the negotiated one. HTTP has no
            // hello route, so only the line-protocol front-ends (and
            // the reactor) can ever reach this arm.
            write_ok_response(out, vec![("framing", framing.wire_name().into())]);
            return Ok(ExecuteOutcome::Switch(framing));
        }
        Request::Flush => {
            // On a federated node the flush is also the replication
            // barrier: every forwarded batch must be confirmed by its
            // owner before the watermark is reported back. A barrier
            // failure (an owner stayed unreachable through resync
            // retries) poisons the watermark like any deferred error —
            // the client retries the flush, and the links resend past
            // the owners' watermarks, so nothing is lost or recounted.
            if let Some(fed) = fed {
                if let Err(e) = fed.barrier_all() {
                    state.error.get_or_insert(e);
                }
            }
            let (accepted, batches, error) = state.reset();
            write_flush_response(out, accepted, batches, error.as_ref());
            return Ok(ExecuteOutcome::Flush);
        }
        Request::CreateSession {
            schema,
            mechanism,
            shards,
            seed,
            session,
        } => {
            let specs: Vec<(&str, u32)> = schema.iter().map(|(n, c)| (n.as_str(), *c)).collect();
            let built = Schema::new(specs)?;
            if built.domain_size() > config.max_session_domain {
                return Err(ServiceError::InvalidRequest(format!(
                    "schema domain size {} exceeds this server's limit of {} cells",
                    built.domain_size(),
                    config.max_session_domain
                )));
            }
            // With persistence, eviction is two-phase: victims stay
            // registered (retired, refusing ingest) until their spill
            // snapshot lands, so a concurrent close_session can still
            // find them — its closed mark makes the in-flight spill
            // refuse under the persist gate, and an acknowledged close
            // can never be resurrected by the spill.
            let deferred_evictions =
                session.is_some() || fed.is_some() || config.persist_dir.is_some();
            let created = if let Some(id) = session {
                // An explicit id: a replicated create from a federation
                // coordinator (never re-federated — that is what keeps
                // replication from cascading), or an embedder pinning
                // ids.
                registry.create_deferred_with_id(
                    id,
                    built,
                    mechanism,
                    shards.unwrap_or(config.default_shards),
                    seed.unwrap_or(config.default_seed),
                    config.max_dense_domain,
                )?
            } else if let Some(fed) = fed {
                fed.create_session(
                    registry,
                    &schema,
                    built,
                    mechanism,
                    shards.unwrap_or(config.default_shards),
                    seed.unwrap_or(config.default_seed),
                    config.max_dense_domain,
                )?
            } else if config.persist_dir.is_some() {
                registry.create_deferred(
                    built,
                    mechanism,
                    shards.unwrap_or(config.default_shards),
                    seed.unwrap_or(config.default_seed),
                    config.max_dense_domain,
                )?
            } else {
                registry.create(
                    built,
                    mechanism,
                    shards.unwrap_or(config.default_shards),
                    seed.unwrap_or(config.default_seed),
                    config.max_dense_domain,
                )?
            };
            // Spill LRU-evicted sessions to disk before they drop, so
            // an eviction is a demotion, not data loss. If a spill
            // fails (full disk, permissions), roll the create back —
            // abort the un-spilled evictions, drop the new session —
            // and fail the request: silently discarding an evicted
            // session's acknowledged records would be worse than
            // refusing a new session. (Victims spilled before the
            // failure are already safe on disk and stay evicted.)
            if let Some(dir) = &config.persist_dir {
                for (i, evicted) in created.evicted.iter().enumerate() {
                    match persist::save_session_faulted(dir, evicted, &config.fault_plan) {
                        // A concurrent close deleted the session's
                        // snapshot and owns its fate; the refused spill
                        // is correct, just settle the eviction.
                        Ok(_) => {
                            registry.commit_eviction(evicted.id());
                        }
                        Err(_) if evicted.is_closed() => {
                            registry.commit_eviction(evicted.id());
                        }
                        Err(e) => {
                            registry.remove(created.session.id());
                            for victim in &created.evicted[i..] {
                                if !victim.is_closed() {
                                    registry.abort_eviction(victim);
                                }
                            }
                            return Err(ServiceError::Snapshot(format!(
                                "refusing to evict session {} without a spill snapshot \
                                 (create rolled back): {e}",
                                evicted.id()
                            )));
                        }
                    }
                }
            } else if deferred_evictions {
                // A deferred-eviction create without persistence has
                // nothing to spill; settle the victims immediately.
                for evicted in &created.evicted {
                    registry.commit_eviction(evicted.id());
                }
            }
            let session = created.session;
            let mut pairs = vec![
                ("session", session.id().into()),
                ("shards", session.num_shards().into()),
                ("gamma", session.mechanism().gamma().into()),
                ("domain_size", session.schema().domain_size().into()),
            ];
            if !created.evicted.is_empty() {
                pairs.push((
                    "evicted",
                    Value::Array(created.evicted.iter().map(|s| s.id().into()).collect()),
                ));
            }
            write_ok_response(out, pairs)
        }
        Request::Submit(submit) => {
            let applied = apply_submit(registry, fed, &submit)?;
            let mut pairs = Vec::with_capacity(3);
            pairs.push(("accepted", applied.accepted.into()));
            pairs.push(match applied.routed {
                Routed::Local { shard } => ("shard", shard.into()),
                Routed::Forwarded { peer } => ("peer", peer.into()),
            });
            // A duplicate retry is acked as accepted — its records are
            // already counted — with the fact surfaced for observability.
            if applied.duplicate {
                pairs.push(("duplicate", true.into()));
            }
            write_ok_response(out, pairs)
        }
        Request::Reconstruct {
            session,
            method,
            clamp,
            allow_partial,
        } => {
            if let Some(fed) = fed {
                let (rec, coverage) =
                    fed.reconstruct(registry, session, method, clamp, allow_partial)?;
                write_reconstruction_response_with(out, &rec, coverage.as_ref())
            } else {
                // Single node: every partition is local, so
                // `allow_partial` is accepted and vacuously satisfied.
                let session = registry.get(session)?;
                let rec = session.reconstruct(method, clamp)?;
                write_reconstruction_response(out, &rec)
            }
        }
        Request::Stats {
            session,
            allow_partial,
        } => {
            if let Some(fed) = fed {
                let (stats, coverage) = fed.stats(registry, session, allow_partial)?;
                write_stats_response_with(out, &stats, coverage.as_ref())
            } else {
                let session = registry.get(session)?;
                write_stats_response(out, &session.stats())
            }
        }
        Request::Metrics { session: None } => {
            let peers = fed.map(|f| f.peer_reports());
            write_transport_metrics_response(out, &transport.report(), peers.as_deref())
        }
        Request::Metrics {
            session: Some(session),
        } => {
            let session = registry.get(session)?;
            write_metrics_response(
                out,
                session.id(),
                session.stats().total,
                &session.metrics_report(),
            )
        }
        Request::ListSessions => {
            let summaries: Vec<_> = registry.all().iter().map(|s| s.summary()).collect();
            write_list_response(out, &summaries)
        }
        Request::Persist { session } => {
            let dir = config.persist_dir.as_deref().ok_or_else(|| {
                ServiceError::InvalidRequest(
                    "this server has no persistence directory configured".into(),
                )
            })?;
            let persisted = match session {
                Some(id) => {
                    let session = registry.get(id)?;
                    persist::save_session_faulted(dir, &session, &config.fault_plan)?;
                    vec![id]
                }
                None => {
                    let (persisted, failed) =
                        persist_all_sessions(dir, registry, &config.fault_plan);
                    // An explicit persist request must not report
                    // success while snapshots silently failed — the
                    // caller may be about to kill the server trusting
                    // everything is on disk.
                    if let Some((id, e)) = failed.first() {
                        return Err(ServiceError::Snapshot(format!(
                            "persisted {:?} but {} session(s) failed, first: session {id}: {e}",
                            persisted,
                            failed.len()
                        )));
                    }
                    persisted
                }
            };
            write_ok_response(
                out,
                vec![
                    (
                        "persisted",
                        Value::Array(persisted.into_iter().map(Value::from).collect()),
                    ),
                    ("dir", dir.display().to_string().into()),
                ],
            )
        }
        Request::CloseSession { session, local } => {
            // `remove` marks the session closed before we delete its
            // snapshot; deletion happens under the session's persist
            // gate, so a periodic save racing this close either
            // finished before (its file is deleted here) or starts
            // after (and refuses, seeing the closed flag). Either way a
            // closed session cannot resurrect on the next restart.
            let removed = registry.remove(session);
            let mut snapshot_deleted = false;
            if let Some(dir) = &config.persist_dir {
                let _gate = removed.as_ref().map(|s| s.persist_gate());
                // Deleting by id (not only via a live Arc) also lets a
                // client close a session that was LRU-evicted to disk —
                // otherwise a spilled session's perturbed counts could
                // never be deleted and would resurrect on restart.
                snapshot_deleted = persist::remove_session_file(dir, session);
            }
            let mut closed = removed.is_some() || snapshot_deleted;
            // A client-facing close fans out to every peer (marked
            // `local` so nobody re-federates it). Best-effort: a down
            // peer keeps its — at worst empty — copy until an operator
            // closes it directly.
            if !local {
                if let Some(fed) = fed {
                    closed |= fed.close_fanout(session);
                }
            }
            write_ok_response(out, vec![("closed", closed.into())])
        }
        Request::ClusterStatus => match fed {
            Some(fed) => write_ok_response(out, fed.cluster_status_pairs()),
            None => write_ok_response(out, vec![("federated", false.into())]),
        },
        Request::SyncSession { session } => {
            // Always strictly local: a federation coordinator calls
            // this on each owner and merges. Counts ship sparse —
            // `[index, count]` pairs for the nonzero cells only.
            let session_ref = registry.get(session)?;
            let snapshot = session_ref.snapshot();
            let counts: Vec<Value> = snapshot
                .counts()
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0.0)
                .map(|(i, &c)| Value::Array(vec![i.into(), c.into()]))
                .collect();
            write_ok_response(
                out,
                vec![
                    ("session", session.into()),
                    ("total", snapshot.n().into()),
                    ("counts", Value::Array(counts)),
                ],
            )
        }
        Request::ReplStatus { session, origin } => {
            // Always strictly local: the per-shard replication
            // watermarks this node has applied from `origin`, the
            // anchor for anti-entropy resends after a reconnect.
            let session_ref = registry.get(session)?;
            let marks = session_ref.repl_status(origin);
            let durable = session_ref.durable_repl_status(origin);
            write_ok_response(
                out,
                vec![
                    ("session", session.into()),
                    ("origin", origin.into()),
                    (
                        "marks",
                        Value::Array(marks.into_iter().map(Value::from).collect()),
                    ),
                    (
                        "durable",
                        Value::Array(durable.into_iter().map(Value::from).collect()),
                    ),
                ],
            )
        }
        Request::MineRules { session, spec } => {
            // The submission itself is cheap (validation + queue
            // insert); the mining run happens on the job pool's own
            // workers, so this arm never blocks a transport or offload
            // thread. The response carries only the job id.
            let jobs = jobs_or_reject(jobs)?;
            let session_ref = registry.get(session)?;
            let rec = jobs.submit_mine_rules(session_ref, spec)?;
            write_ok_response(
                out,
                vec![("job", rec.id().into()), ("state", "queued".into())],
            )
        }
        Request::Classify { session, target } => {
            let jobs = jobs_or_reject(jobs)?;
            let session_ref = registry.get(session)?;
            let target = resolve_attr(session_ref.schema(), &target)?;
            let rec = jobs.submit_classify(session_ref, target)?;
            write_ok_response(
                out,
                vec![("job", rec.id().into()), ("state", "queued".into())],
            )
        }
        Request::JobStatus { job } => {
            write_ok_response(out, jobs_or_reject(jobs)?.status_pairs(job)?)
        }
        Request::JobResult { job } => {
            write_ok_response(out, jobs_or_reject(jobs)?.result_pairs(job)?)
        }
        Request::JobCancel { job } => {
            write_ok_response(out, jobs_or_reject(jobs)?.cancel_pairs(job)?)
        }
        Request::ListJobs => write_ok_response(out, jobs_or_reject(jobs)?.list_pairs()),
        Request::Shutdown => {
            write_ok_response(out, vec![("shutting_down", true.into())]);
            return Ok(ExecuteOutcome::Shutdown);
        }
    }
    Ok(ExecuteOutcome::Respond)
}

/// The background-job ops need a [`JobManager`]; embedders driving the
/// bare [`dispatch`] wrapper do not carry one, and fail in-band.
fn jobs_or_reject(jobs: Option<&JobManager>) -> Result<&JobManager> {
    jobs.ok_or_else(|| ServiceError::InvalidRequest("this server has no job executor".into()))
}

/// Resolves an [`AttrRef`] against a session's schema.
fn resolve_attr(schema: &Schema, target: &AttrRef) -> Result<usize> {
    match target {
        AttrRef::Index(i) => Ok(*i),
        AttrRef::Name(name) => (0..schema.num_attributes())
            .find(|&j| schema.attribute(j).name() == name)
            .ok_or_else(|| ServiceError::InvalidRequest(format!("unknown attribute `{name}`"))),
    }
}

/// Snapshots every live session, returning the ids persisted and the
/// per-session failures. Sessions closed between the registry scan and
/// the write correctly refuse their snapshot and appear in neither
/// list.
pub(crate) fn persist_all_sessions(
    dir: &std::path::Path,
    registry: &SessionRegistry,
    fault: &crate::fault::FaultPlan,
) -> (Vec<u64>, Vec<(u64, ServiceError)>) {
    let mut persisted = Vec::new();
    let mut failed = Vec::new();
    for session in registry.all() {
        match persist::save_session_faulted(dir, &session, fault) {
            Ok(_) => persisted.push(session.id()),
            Err(_) if session.is_closed() => {}
            Err(e) => failed.push((session.id(), e)),
        }
    }
    (persisted, failed)
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

    fn create(reg: &SessionRegistry, cfg: &ServiceConfig) -> u64 {
        let (resp, _) = dispatch(
            reg,
            cfg,
            r#"{"op":"create_session","schema":[["a",3],["b",2]],"gamma":19.0,"shards":1}"#,
        );
        ok_of(&resp)
            .get("session")
            .and_then(json::Value::as_u64)
            .unwrap()
    }

    /// A dispatch harness with one persistent connection state, like a
    /// real connection loop.
    struct Conn {
        transport: TransportMetrics,
        state: ConnState,
    }

    impl Conn {
        fn new() -> Self {
            Conn {
                transport: TransportMetrics::new(),
                state: ConnState::new(),
            }
        }

        fn send(
            &mut self,
            reg: &SessionRegistry,
            cfg: &ServiceConfig,
            line: &str,
        ) -> (String, Outcome) {
            let mut out = String::new();
            let outcome = dispatch_into(
                reg,
                cfg,
                &self.transport,
                None,
                None,
                &mut self.state,
                line,
                &mut out,
            );
            (out, outcome)
        }
    }

    #[test]
    fn deferred_submits_are_quiet_until_flush() {
        let (reg, cfg) = harness();
        let sid = create(&reg, &cfg);
        let mut conn = Conn::new();
        for _ in 0..3 {
            let (out, outcome) = conn.send(
                &reg,
                &cfg,
                &format!(
                    r#"{{"op":"submit","session":{sid},"records":[[0,0],[1,1]],"pre_perturbed":true,"ack":"deferred"}}"#
                ),
            );
            assert_eq!(outcome, Outcome::Quiet);
            assert!(out.is_empty(), "deferred submits must not respond: {out}");
        }
        let (out, outcome) = conn.send(&reg, &cfg, r#"{"op":"flush"}"#);
        assert_eq!(outcome, Outcome::Reply);
        let v = ok_of(&out);
        assert_eq!(v.get("accepted").and_then(json::Value::as_u64), Some(6));
        assert_eq!(v.get("batches").and_then(json::Value::as_u64), Some(3));
        assert_eq!(conn.transport.report().get(Counter::DeferredBatches), 3);

        // The flush reset the watermark; a second flush reports zero.
        let (out, _) = conn.send(&reg, &cfg, r#"{"op":"flush"}"#);
        let v = ok_of(&out);
        assert_eq!(v.get("accepted").and_then(json::Value::as_u64), Some(0));

        // And the records actually landed.
        let (out, _) = conn.send(&reg, &cfg, &format!(r#"{{"op":"stats","session":{sid}}}"#));
        assert_eq!(
            ok_of(&out).get("total").and_then(json::Value::as_u64),
            Some(6)
        );
    }

    #[test]
    fn deferred_failure_freezes_the_watermark_as_a_contiguous_prefix() {
        let (reg, cfg) = harness();
        let sid = create(&reg, &cfg);
        let mut conn = Conn::new();
        let submit = |records: &str| {
            format!(
                r#"{{"op":"submit","session":{sid},"records":{records},"pre_perturbed":true,"ack":"deferred"}}"#
            )
        };
        // Batch 1 lands (2 records), batch 2 fails mid-way (1 of 2
        // counted), batch 3 must be dropped even though it is valid.
        let (_, o) = conn.send(&reg, &cfg, &submit("[[0,0],[1,1]]"));
        assert_eq!(o, Outcome::Quiet);
        let (_, o) = conn.send(&reg, &cfg, &submit("[[2,0],[9,9]]"));
        assert_eq!(o, Outcome::Quiet);
        let (out, o) = conn.send(&reg, &cfg, &submit("[[2,1],[0,1]]"));
        assert_eq!(o, Outcome::Quiet);
        assert!(out.is_empty());

        let (out, _) = conn.send(&reg, &cfg, r#"{"op":"flush"}"#);
        let v = json::parse(&out).unwrap();
        assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(false));
        // Watermark = batch 1 (2) + batch 2's accepted prefix (1): a
        // contiguous prefix of the 6 submitted records.
        assert_eq!(v.get("accepted").and_then(json::Value::as_u64), Some(3));
        assert_eq!(v.get("batches").and_then(json::Value::as_u64), Some(3));
        assert!(v
            .get("error")
            .and_then(json::Value::as_str)
            .unwrap()
            .contains("counted"));

        // The session holds exactly the prefix — batch 3 did not land.
        let (out, _) = conn.send(&reg, &cfg, &format!(r#"{{"op":"stats","session":{sid}}}"#));
        assert_eq!(
            ok_of(&out).get("total").and_then(json::Value::as_u64),
            Some(3)
        );

        // Retry per the contract: resubmit everything past the
        // watermark (the fixed remainder), synchronously or deferred.
        let (out, _) = conn.send(
            &reg,
            &cfg,
            &format!(
                r#"{{"op":"submit","session":{sid},"records":[[2,1],[2,1],[0,1]],"pre_perturbed":true}}"#
            ),
        );
        ok_of(&out);
        let (out, _) = conn.send(&reg, &cfg, &format!(r#"{{"op":"stats","session":{sid}}}"#));
        assert_eq!(
            ok_of(&out).get("total").and_then(json::Value::as_u64),
            Some(6)
        );
    }

    #[test]
    fn sync_op_with_pending_deferred_state_carries_the_watermark() {
        let (reg, cfg) = harness();
        let sid = create(&reg, &cfg);
        let mut conn = Conn::new();
        let (_, o) = conn.send(
            &reg,
            &cfg,
            &format!(
                r#"{{"op":"submit","session":{sid},"records":[[0,0]],"pre_perturbed":true,"ack":"deferred"}}"#
            ),
        );
        assert_eq!(o, Outcome::Quiet);
        // A synchronous stats request doubles as the flush report.
        let (out, _) = conn.send(&reg, &cfg, &format!(r#"{{"op":"stats","session":{sid}}}"#));
        let v = ok_of(&out);
        assert_eq!(
            v.get("deferred_accepted").and_then(json::Value::as_u64),
            Some(1)
        );
        // ...and consumes the watermark.
        let (out, _) = conn.send(&reg, &cfg, r#"{"op":"flush"}"#);
        assert_eq!(
            ok_of(&out).get("accepted").and_then(json::Value::as_u64),
            Some(0)
        );
    }

    #[test]
    fn invalid_deferred_submit_stays_quiet_and_reports_at_flush() {
        let (reg, cfg) = harness();
        let mut conn = Conn::new();
        // Unknown session: a sync submit would answer in-band, but the
        // pipelining client is not reading — the error must wait for
        // the flush.
        let (out, o) = conn.send(
            &reg,
            &cfg,
            r#"{"op":"submit","session":404,"records":[[0,0]],"ack":"deferred"}"#,
        );
        assert_eq!(o, Outcome::Quiet);
        assert!(out.is_empty());
        // So must a submit whose fields do not even validate.
        let (out, o) = conn.send(
            &reg,
            &cfg,
            r#"{"op":"submit","session":404,"records":"nope","ack":"deferred"}"#,
        );
        assert_eq!(o, Outcome::Quiet);
        assert!(out.is_empty());
        let (out, _) = conn.send(&reg, &cfg, r#"{"op":"flush"}"#);
        let v = json::parse(&out).unwrap();
        assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(false));
        assert_eq!(v.get("accepted").and_then(json::Value::as_u64), Some(0));
        assert_eq!(v.get("batches").and_then(json::Value::as_u64), Some(2));
    }

    #[test]
    fn session_less_metrics_reports_transport_counters() {
        let (reg, cfg) = harness();
        let mut conn = Conn::new();
        conn.transport.inc(Counter::TcpRequests);
        conn.transport.inc(Counter::Sheds);
        let (out, _) = conn.send(&reg, &cfg, r#"{"op":"metrics"}"#);
        let v = ok_of(&out);
        let t = v.get("transport").unwrap();
        assert_eq!(t.get("tcp_requests").and_then(json::Value::as_u64), Some(1));
        assert_eq!(t.get("sheds").and_then(json::Value::as_u64), Some(1));
    }
}
