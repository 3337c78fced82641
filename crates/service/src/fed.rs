//! The federated collection tier: consistent-hash routing, inter-node
//! replication links and conflict-free merge of per-owner partitions.
//!
//! # Model
//!
//! A federation is a static list of `frapp-serve` nodes, each started
//! with the identical `--peers` list. Placement is pure — every node
//! derives the same [`frapp_fed::Topology`] from the same list, so
//! there is no membership protocol and no coordination traffic:
//!
//! * **Creates replicate everywhere.** The coordinator allocates a
//!   cluster-unique id from its residue class (node `k` of `n` only
//!   assigns ids `≡ k mod n`), creates locally, and replays the create
//!   (with the id, seed and shard count made explicit) to every peer.
//!   Any node can therefore coordinate any session's later requests
//!   from its local registry alone.
//! * **Ingest partitions across the owners.** A session's `replication`
//!   owner nodes are the first distinct peers clockwise from its hash
//!   point on the ring. The coordinator stamps each batch with a
//!   per-session sequence number and routes it to
//!   `owners[seq % replication]`; non-owner copies of the session stay
//!   empty. A forwarded batch is one binary `OP_SUBMIT` frame stamped
//!   with `origin` (the coordinator's node index) and `seq`, and the
//!   receiving shard claims the pair under the same lock as the
//!   ingest — retries after a dropped link or a peer restart can never
//!   double-count.
//! * **Queries fan out and merge.** `reconstruct`/`counts`/`stats`
//!   barrier the replication links (so every acknowledged record is
//!   visible), pull each owner's own partition (a `local` `counts` read)
//!   and fold them with [`frapp_fed::merge_partitions`] — a commutative,
//!   bitwise order-independent merge, because the partitions are
//!   disjoint integer tallies. `reconstruct` then solves once locally,
//!   and `counts` ships the merged counts.
//!
//! # Anti-entropy
//!
//! Each peer link is a background forwarder thread owning one
//! [`Client`], upgraded to the binary framing on every connect. Stamped
//! `OP_SUBMIT` frames pipeline through it with no round trip; every
//! other peer request is its JSON line tunnelled through `OP_JSON`. A
//! *barrier* flushes the link and confirms the peer's watermark. When
//! a link drops (peer crash/restart), the forwarder reconnects,
//! replays its session creates (`already exists` is fine), asks the
//! peer for its per-shard replication watermarks (`repl_status`) and
//! resends exactly the frames past them — the push-based anti-entropy
//! that, combined with the receiver-side claim, turns at-least-once
//! delivery into exactly-once counting. The forwarder keeps each
//! session's forwarded frames in memory for this purpose, truncated
//! below the peer's *durable* (persisted) watermark: `repl_status`
//! reports both the live marks and the marks last captured by a
//! successful snapshot or delta append, and batches at or below the
//! durable mark can never be needed again — a peer restart recovers
//! them from its own disk. History above the durable mark is retained
//! so a crash between persists stays replayable; link memory is
//! therefore bounded by the peer's persistence cadence, not by total
//! ingest volume.

use crate::client::{
    parse_ok, read_counts_answer, request_line, Client, PerturbedCounts, SessionSpec,
};
use crate::config::ServiceConfig;
use crate::error::{Result, ServiceError};
use crate::fault::{FaultAction, FaultPlan, FaultSite};
use crate::framing::{encode_submit_payload, json_frame};
use crate::json::{object, Value};
use crate::metrics::{PeerHealth, PeerReplCounters, PeerReplReport};
use crate::protocol::{PartialCoverage, RecordBatch};
use crate::session::{
    CollectionSession, Created, Mechanism, Placement, SessionRegistry, SessionStats,
};
use crate::wire::{Op, PeerCounter};
use frapp_core::{CountAccumulator, Schema};
use frapp_fed::{merge_partitions, Topology};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Connect attempts per reconnect cycle (with exponential backoff
/// between them) before a link operation reports the peer down.
const CONNECT_ATTEMPTS: u32 = 6;
/// Barrier attempts (each may reconnect + resync) before giving up.
const BARRIER_ATTEMPTS: u32 = 4;
/// Per-session replay-history size (in batches) that triggers a
/// durable-watermark fetch and truncation on the link worker. Keeps
/// link memory proportional to the peer's persistence cadence instead
/// of total ingest; only multiples of the threshold pay the round
/// trip.
const HISTORY_TRUNCATE_THRESHOLD: usize = 64;

/// How one submit was routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routed {
    /// Applied to this node's own partition, on `shard`.
    Local {
        /// The shard the batch landed on.
        shard: usize,
    },
    /// Forwarded to the owner node `peer`.
    Forwarded {
        /// The owner's index in the peer list.
        peer: usize,
    },
}

/// The per-process federation state: topology, one replication link
/// per peer, per-session forward sequence counters and per-peer
/// replication metrics.
pub struct FedState {
    topology: Topology,
    /// Indexed by peer id; `None` at this node's own slot.
    links: Vec<Option<PeerLink>>,
    counters: Vec<Arc<PeerReplCounters>>,
    /// `session -> last assigned forward seq`. Lazily recovered from
    /// the owners' watermarks after a coordinator restart, so a
    /// restarted coordinator can never reuse a sequence number (which
    /// the owners would silently dedup away).
    seqs: Mutex<HashMap<u64, u64>>,
    /// Floor for cluster-unique session id allocation.
    id_floor: AtomicU64,
}

impl std::fmt::Debug for FedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FedState")
            .field("self_id", &self.topology.self_id())
            .field("peers", &self.topology.peers())
            .field("replication", &self.topology.replication())
            .finish()
    }
}

impl FedState {
    /// Builds the federation state from a config, or `None` when the
    /// config names no peers (a plain single-node server). The node's
    /// own index comes from `config.node_id`, falling back to locating
    /// `config.addr` in the peer list.
    pub fn from_config(config: &ServiceConfig) -> Result<Option<Arc<FedState>>> {
        if config.peers.is_empty() {
            return Ok(None);
        }
        let self_id = match config.node_id {
            Some(id) => id,
            None => config
                .peers
                .iter()
                .position(|p| p == &config.addr)
                .ok_or_else(|| {
                    ServiceError::InvalidRequest(format!(
                        "this node's address {} is not in the peer list; pass --node-id",
                        config.addr
                    ))
                })?,
        };
        let topology = Topology::new(config.peers.clone(), self_id, config.replication)
            .map_err(ServiceError::InvalidRequest)?;
        let counters: Vec<Arc<PeerReplCounters>> = (0..config.peers.len())
            .map(|_| Arc::new(PeerReplCounters::new()))
            .collect();
        let tuning = LinkTuning::from_config(config);
        let links = config
            .peers
            .iter()
            .zip(&counters)
            .enumerate()
            .map(|(node, (addr, counters))| {
                if node == self_id {
                    Ok(None)
                } else {
                    PeerLink::spawn(
                        addr.clone(),
                        self_id as u64,
                        Arc::clone(counters),
                        tuning.clone(),
                    )
                    .map(Some)
                }
            })
            .collect::<Result<Vec<Option<PeerLink>>>>()?;
        Ok(Some(Arc::new(FedState {
            topology,
            links,
            counters,
            seqs: Mutex::new(HashMap::new()),
            id_floor: AtomicU64::new(0),
        })))
    }

    /// The cluster topology this node routes with.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    fn self_id(&self) -> u64 {
        self.topology.self_id() as u64
    }

    /// The per-session forward-sequence counters, with poisoning
    /// recovered (the map stays consistent under panic unwinding — a
    /// torn update is impossible, every mutation is a single insert or
    /// increment) and the acquisition registered with the debug
    /// lock-order checker.
    fn lock_seqs(&self) -> crate::order::Tracked<std::sync::MutexGuard<'_, HashMap<u64, u64>>> {
        crate::order::track(
            crate::order::RANK_FED_SEQS,
            "fed::seqs",
            self.seqs
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// The replication link to `peer`, or an in-band error for an
    /// out-of-range peer or this node's own slot — both indicate a
    /// routing bug upstream, which must not unwind a wire thread.
    fn link(&self, peer: usize) -> Result<&PeerLink> {
        self.links
            .get(peer)
            .and_then(Option::as_ref)
            .ok_or_else(|| ServiceError::Protocol(format!("no replication link to peer {peer}")))
    }

    /// Per-peer replication reports (self excluded), for the
    /// `federation` section of the transport metrics response.
    pub fn peer_reports(&self) -> Vec<PeerReplReport> {
        self.topology
            .peers()
            .iter()
            .zip(&self.counters)
            .enumerate()
            .filter(|(node, _)| *node != self.topology.self_id())
            .map(|(node, (addr, counters))| counters.report(node, addr))
            .collect()
    }

    /// Creates a session cluster-wide: allocates an id from this
    /// node's residue class, creates locally (the caller settles the
    /// evictions, as for any other create) and replays the create — id,
    /// seed and shard count made explicit so every node builds the
    /// identical session — to every peer link in FIFO order ahead of
    /// any forwards.
    #[allow(clippy::too_many_arguments)] // mirrors the create_session wire fields
    pub fn create_session(
        &self,
        registry: &SessionRegistry,
        raw_schema: &[(String, u32)],
        schema: Schema,
        mechanism: Mechanism,
        shards: usize,
        seed: u64,
        max_dense_domain: usize,
    ) -> Result<Created> {
        let mut floor = self.id_floor.load(Ordering::Relaxed);
        let created = loop {
            let id = self.topology.next_local_id(floor);
            self.id_floor.fetch_max(id, Ordering::Relaxed);
            match registry.create(
                Some(id),
                schema.clone(),
                mechanism,
                shards,
                seed,
                max_dense_domain,
            ) {
                Ok(created) => break created,
                // The id is occupied (a recovered pre-restart session):
                // walk the residue class past it.
                Err(ServiceError::InvalidRequest(msg)) if msg.contains("already exists") => {
                    floor = id;
                }
                Err(e) => return Err(e),
            }
        };
        let id = created.session.id();
        let line = create_line(id, raw_schema, mechanism, shards, seed);
        // Kick every link, then wait for each to confirm it attempted
        // delivery: once the create is acknowledged to the client, the
        // session is visible through every *live* peer (read-your-
        // writes across nodes). A down peer confirms vacuously — its
        // copy arrives with the resync replay.
        let confirms: Vec<_> = self
            .links
            .iter()
            .flatten()
            .map(|link| link.register(id, line.clone()))
            .collect();
        for confirm in confirms {
            let _ = recv_link(confirm);
        }
        // Freshly created: the next forward seq starts at 1.
        self.lock_seqs().insert(id, 0);
        Ok(created)
    }

    /// Assigns the next forward sequence number for `session`. On the
    /// first submit after a coordinator restart the counter is
    /// recovered as the maximum watermark any owner has recorded for
    /// this node — reusing a sequence number would make the owners
    /// silently drop brand-new batches as duplicates.
    fn next_seq(&self, registry: &SessionRegistry, session: u64) -> Result<u64> {
        // Fast path: the counter is live — bump it under the lock.
        if let Some(seq) = self.bump_seq(session) {
            return Ok(seq);
        }
        // Recovery path (first submit after a coordinator restart).
        // The owner watermark fetch is a peer round trip, so it MUST
        // run with the counter lock released — holding `seqs` across
        // the network would stall every other session's submits (and
        // deadlock outright if the peer's answer routes back here).
        let mut max_mark = 0u64;
        for &owner in &self.topology.owners(session) {
            let marks = if owner == self.topology.self_id() {
                registry.get(session)?.repl_status(self.self_id())
            } else {
                self.fetch_repl_status(owner, session)?
            };
            max_mark = max_mark.max(marks.into_iter().max().unwrap_or(0));
        }
        // Re-acquire and merge: a concurrent submit may have recovered
        // the counter while the lock was released. Never move the
        // counter backwards — reused sequence numbers are silently
        // deduped by the owners.
        let mut seqs = self.lock_seqs();
        let last = seqs.entry(session).or_insert(max_mark);
        *last = (*last).max(max_mark) + 1;
        Ok(*last)
    }

    /// Increments and returns the live forward-seq counter for
    /// `session`, or `None` when the counter needs recovery first.
    fn bump_seq(&self, session: u64) -> Option<u64> {
        let mut seqs = self.lock_seqs();
        seqs.get_mut(&session).map(|last| {
            *last += 1;
            *last
        })
    }

    fn fetch_repl_status(&self, peer: usize, session: u64) -> Result<Vec<u64>> {
        let line = repl_status_line(session, self.self_id());
        Ok(parse_repl_status(self.link(peer)?.sync(&line))?.applied)
    }

    /// Routes one client submit: stamps it with the next per-session
    /// sequence number and sends it to `owners[seq % replication]` —
    /// applied locally when that owner is this node, forwarded over
    /// the peer link otherwise (pipelined with no round trip when
    /// `deferred`). Returns the route; every record counts as accepted.
    ///
    /// Unlike a single-node submit, the whole batch is validated
    /// before routing and rejected atomically: a partial-batch prefix
    /// landing on a *remote* owner would leave the client's retry
    /// contract spanning two machines.
    pub fn submit(
        &self,
        registry: &SessionRegistry,
        session: u64,
        records: &RecordBatch,
        pre_perturbed: bool,
        deferred: bool,
    ) -> Result<Routed> {
        let sess = registry.get(session)?;
        for record in records.iter() {
            sess.schema().validate_record(record)?;
        }
        let seq = self.next_seq(registry, session)?;
        let owners = self.topology.owners(session);
        let owner = *owners
            .get((seq % owners.len().max(1) as u64) as usize)
            .ok_or_else(|| ServiceError::Protocol("session has no replication owners".into()))?;
        let accepted = records.len() as u64;
        let stamp = Placement::Replicated {
            origin: self.self_id(),
            seq,
        };
        if owner == self.topology.self_id() {
            // Locally applied batches go through the same claim path
            // as forwarded ones, so this node's own partition dedups
            // identically across restarts.
            let shard = sess.ingest(stamp, records.iter(), pre_perturbed)?.shard;
            return Ok(Routed::Local { shard });
        }
        let mut frame = Vec::new();
        encode_submit_payload(
            &mut frame,
            session,
            records.iter(),
            pre_perturbed,
            stamp,
            deferred,
            false,
        );
        let link = self.link(owner)?;
        if deferred {
            link.forward(session, seq, accepted, frame);
        } else {
            let counters = self.counters.get(owner).ok_or_else(|| {
                ServiceError::Protocol(format!("no replication counters for peer {owner}"))
            })?;
            counters.add(PeerCounter::ForwardedBatches, 1);
            counters.add(PeerCounter::ForwardedRecords, accepted);
            link.call(|resp| LinkCmd::Sync { frame, resp })?;
            counters.add(PeerCounter::AckedRecords, accepted);
        }
        Ok(Routed::Forwarded { peer: owner })
    }

    /// Barriers every replication link: all queued deferred forwards
    /// are flushed and acknowledged (reconnecting and resending past
    /// the peers' watermarks as needed) before this returns. The
    /// first unreachable peer aborts with its error.
    pub fn barrier_all(&self) -> Result<()> {
        // Kick every link first so they drain concurrently, then
        // collect — a barrier's cost is the slowest link, not the sum.
        let waits: Vec<_> = self
            .links
            .iter()
            .flatten()
            .map(|link| link.barrier_async())
            .collect();
        for wait in waits {
            recv_link(wait)??;
        }
        Ok(())
    }

    /// A federated counts read, behind both `reconstruct` and
    /// `counts`: barrier the links, pull every owner's partition and
    /// merge them (bitwise order-independent) into the counts a single
    /// node would hold.
    ///
    /// With `allow_partial`, owners that cannot be reached (transport
    /// failure or an open circuit breaker) are *skipped* instead of
    /// failing the query: the reachable partitions merge into the
    /// counts and the returned [`PartialCoverage`] says exactly which
    /// owners are missing. In-band errors a peer computed still
    /// propagate, and a query with *zero* reachable owners still
    /// fails — an estimate from nothing would be a lie. `None`
    /// coverage means every owner answered (the counts are exact).
    pub fn owner_counts(
        &self,
        sess: &CollectionSession,
        allow_partial: bool,
    ) -> Result<(CountAccumulator, Option<PartialCoverage>)> {
        let (partitions, coverage) = self.owner_partitions(sess, allow_partial)?;
        Ok((merge_partitions(sess.schema(), partitions)?, coverage))
    }

    /// Federated ingest statistics: the cluster-wide record total,
    /// with `per_shard` reporting each *owner's* partition total in
    /// ring order (shard-level detail stays a per-node concern).
    ///
    /// `allow_partial` behaves exactly as on
    /// [`FedState::owner_counts`]: unreachable owners are skipped (and
    /// omitted from `per_shard`) rather than failing the query, with
    /// the returned [`PartialCoverage`] naming them.
    pub fn stats(
        &self,
        registry: &SessionRegistry,
        session: u64,
        allow_partial: bool,
    ) -> Result<(SessionStats, Option<PartialCoverage>)> {
        let sess = registry.get(session)?;
        let (partitions, coverage) = self.owner_partitions(&sess, allow_partial)?;
        let per_shard: Vec<u64> = partitions.iter().map(CountAccumulator::n).collect();
        let stats = SessionStats {
            total: per_shard.iter().sum(),
            per_shard,
        };
        Ok((stats, coverage))
    }

    /// The read fan-out behind [`FedState::owner_counts`] and
    /// [`FedState::stats`]: barriers the links, then collects each
    /// owner's count partition in ring order — this node's by
    /// `snapshot`, the others' by a `local` `counts` read, answered by
    /// the receiving node alone, so owners never fan out in turn.
    /// Under `allow_partial`, unreachable owners are skipped and named
    /// in the coverage; zero reachable owners fail the read.
    fn owner_partitions(
        &self,
        sess: &CollectionSession,
        allow_partial: bool,
    ) -> Result<(Vec<CountAccumulator>, Option<PartialCoverage>)> {
        let owners = self.topology.owners(sess.id());
        let unreachable = self.barrier_for_read(&owners, allow_partial)?;
        let mut partitions = Vec::new();
        let mut missing: Vec<(usize, String)> = Vec::new();
        for &owner in &owners {
            if owner == self.topology.self_id() {
                partitions.push(sess.snapshot());
            } else if unreachable.contains(&owner) {
                missing.push((owner, self.peer_addr(owner)));
            } else {
                match self.fetch_partition(owner, sess) {
                    Ok(partition) => partitions.push(partition),
                    Err(e) if allow_partial && is_unreachable(&e) => {
                        missing.push((owner, self.peer_addr(owner)));
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        if partitions.is_empty() {
            return Err(all_owners_down());
        }
        Ok((partitions, coverage(owners.len(), missing)))
    }

    /// The read-side barrier: exact reads flush *every* link (the
    /// historical semantics — any acknowledged forward anywhere must
    /// be visible); partial reads barrier only the owner links and
    /// tolerate unreachable peers, returning the owner ids whose
    /// barrier failed at the transport level so the fan-out can skip
    /// them. An in-band barrier failure (a deferred batch the peer
    /// refused) still aborts even a partial read — that partition is
    /// wrong-by-contract, not missing.
    fn barrier_for_read(&self, owners: &[usize], allow_partial: bool) -> Result<Vec<usize>> {
        if !allow_partial {
            self.barrier_all()?;
            return Ok(Vec::new());
        }
        let mut waits = Vec::new();
        for &owner in owners {
            if owner == self.topology.self_id() {
                continue;
            }
            waits.push((owner, self.link(owner)?.barrier_async()));
        }
        let mut unreachable = Vec::new();
        for (owner, wait) in waits {
            match recv_link(wait).and_then(|r| r) {
                Ok(()) => {}
                Err(e) if is_unreachable(&e) => unreachable.push(owner),
                Err(e) => return Err(e),
            }
        }
        Ok(unreachable)
    }

    /// The wire address of peer `node` (empty for an out-of-range id,
    /// which cannot happen for ids the topology produced).
    fn peer_addr(&self, node: usize) -> String {
        self.topology.peers().get(node).cloned().unwrap_or_default()
    }

    /// Remote owner `peer`'s partition of `sess`, by a `local` `counts`
    /// read: a [`ServiceError::Protocol`] (which fails even a partial
    /// read) unless its grid has the session's domain size and γ.
    fn fetch_partition(&self, peer: usize, sess: &CollectionSession) -> Result<CountAccumulator> {
        let local = vec![("local", true.into())];
        let frame = json_frame(&request_line(Op::Counts, Some(sess.id()), local));
        let grid = self
            .link(peer)?
            .call(|resp| LinkCmd::Counts { frame, resp })?;
        grid.into_partition(sess.schema(), sess.mechanism().gamma())
    }

    /// Fans a close out to every peer (as `local: true`, so nobody
    /// re-federates it) and forgets the session's replication state.
    /// Best-effort: a peer that is down keeps its empty copy until an
    /// operator closes it directly. Returns whether any peer reported
    /// the session closed.
    pub fn close_fanout(&self, session: u64) -> bool {
        self.lock_seqs().remove(&session);
        let local = vec![("local", true.into())];
        let line = request_line(Op::CloseSession, Some(session), local);
        let mut any = false;
        for (link, counters) in self.links.iter().zip(&self.counters) {
            let Some(link) = link else { continue };
            link.forget(session);
            if let Ok(v) = link.sync(&line) {
                any |= v.get("closed").and_then(Value::as_bool).unwrap_or(false);
            } else {
                counters.add(PeerCounter::PeerDown, 1);
            }
        }
        any
    }

    /// The `cluster_status` response payload: topology, replication
    /// factor and per-peer liveness (one live probe per peer).
    pub fn cluster_status_pairs(&self) -> Vec<(&'static str, Value)> {
        let self_id = self.topology.self_id();
        let peers: Vec<Value> = self
            .topology
            .peers()
            .iter()
            .enumerate()
            .map(|(node, addr)| {
                let up = node == self_id
                    || self
                        .links
                        .get(node)
                        .and_then(Option::as_ref)
                        .is_some_and(|link| link.probe());
                // Health is read *after* the probe so the freshly
                // observed outcome (the probe drives the breaker) is
                // what the status reports.
                let health = if node == self_id {
                    PeerHealth::Up
                } else {
                    self.counters
                        .get(node)
                        .map(|c| c.health())
                        .unwrap_or_default()
                };
                object(vec![
                    ("node", node.into()),
                    ("addr", addr.as_str().into()),
                    ("self", (node == self_id).into()),
                    ("up", up.into()),
                    ("health", health.as_str().into()),
                ])
            })
            .collect();
        vec![
            ("federated", true.into()),
            ("self", self_id.into()),
            ("replication", self.topology.replication().into()),
            ("peers", Value::Array(peers)),
        ]
    }
}

/// Builds the replicated create line for a session, with every
/// server-side default resolved so all nodes build identical sessions.
fn create_line(
    id: u64,
    raw_schema: &[(String, u32)],
    mechanism: Mechanism,
    shards: usize,
    seed: u64,
) -> String {
    let mut fields = SessionSpec {
        schema: raw_schema.to_vec(),
        mechanism,
        shards: Some(shards),
        seed: Some(seed),
    }
    .fields();
    fields.push(("session", id.into()));
    request_line(Op::CreateSession, None, fields)
}

/// Per-shard watermarks a peer reports for one origin: what it has
/// applied (in memory) and what it has durably persisted.
#[derive(Default)]
struct PeerMarks {
    /// Highest applied seq per shard; resync resends above these.
    applied: Vec<u64>,
    /// Highest persisted seq per shard; replay history at or below
    /// these can never be needed again, even across a peer restart.
    /// Empty when the peer runs without persistence.
    durable: Vec<u64>,
}

/// The `repl_status` request for `session`'s watermarks from `origin`.
fn repl_status_line(session: u64, origin: u64) -> String {
    request_line(
        Op::ReplStatus,
        Some(session),
        vec![("origin", origin.into())],
    )
}

/// Reads a peer's answer to [`repl_status_line`]. A peer that holds
/// nothing for the session (its create not yet applied there) has,
/// factually, applied and persisted nothing: no marks.
fn parse_repl_status(answer: Result<Value>) -> Result<PeerMarks> {
    let v = match answer {
        Ok(v) => v,
        Err(ServiceError::Remote { message, .. }) if message.contains("unknown session") => {
            return Ok(PeerMarks::default());
        }
        Err(e) => return Err(e),
    };
    let marks = |cells: &[Value], what: &str| {
        cells
            .iter()
            .map(|m| {
                m.as_u64()
                    .ok_or_else(|| ServiceError::Protocol(format!("{what} must be integers")))
            })
            .collect::<Result<Vec<u64>>>()
    };
    let applied = v
        .get("marks")
        .and_then(Value::as_array)
        .ok_or_else(|| ServiceError::Protocol("repl_status response missing `marks`".into()))?;
    // `durable` is optional on the wire: older peers and peers running
    // without a data directory omit it, which disables truncation.
    let durable = v.get("durable").and_then(Value::as_array).unwrap_or(&[]);
    Ok(PeerMarks {
        applied: marks(applied, "watermarks")?,
        durable: marks(durable, "durable watermarks")?,
    })
}

/// Whether per-shard watermarks cover `seq`: the batch lands on shard
/// `seq % marks.len()` and is covered at or below that shard's mark.
/// Empty marks cover nothing.
fn mark_covers(marks: &[u64], seq: u64) -> bool {
    marks
        .get((seq % marks.len().max(1) as u64) as usize)
        .is_some_and(|&mark| seq <= mark)
}

fn peer_down(addr: &str) -> ServiceError {
    ServiceError::Remote {
        message: format!("federation peer {addr} is unreachable"),
        accepted: None,
    }
}

fn all_owners_down() -> ServiceError {
    ServiceError::Remote {
        message: "every replication owner is unreachable; no partition to estimate from".into(),
        accepted: None,
    }
}

/// Whether an error means the peer could not be *reached* (transport
/// failure, dead link thread, open breaker) as opposed to an in-band
/// refusal it computed — the distinction that licenses `allow_partial`
/// reads to skip an owner.
fn is_unreachable(e: &ServiceError) -> bool {
    match e {
        ServiceError::Io(_) | ServiceError::ConnectionClosed => true,
        ServiceError::Remote { message, .. } => {
            message.contains("is unreachable") || message.contains("link thread is gone")
        }
        _ => false,
    }
}

/// `Some(coverage)` when any owner went missing, `None` for an exact
/// (every-owner) answer.
fn coverage(owners_total: usize, missing: Vec<(usize, String)>) -> Option<PartialCoverage> {
    if missing.is_empty() {
        return None;
    }
    Some(PartialCoverage {
        owners_total,
        owners_reachable: owners_total - missing.len(),
        missing,
    })
}

/// FNV-1a, for deriving a per-link deterministic jitter seed from the
/// peer address without OS entropy (tests also pin response bytes by
/// it).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Maps a dead link thread (channel closed) to a peer-down error.
fn recv_link<T>(rx: mpsc::Receiver<T>) -> Result<T> {
    rx.recv().map_err(|_| ServiceError::Remote {
        message: "replication link thread is gone".into(),
        accepted: None,
    })
}

enum LinkCmd {
    /// Remember (and replay on every reconnect) a session's create
    /// line, then try to deliver it now, signalling `resp` once the
    /// attempt completes so the coordinator can promise read-your-
    /// writes through live peers. An unreachable peer signals
    /// vacuously and receives the create during resync.
    Register {
        session: u64,
        line: String,
        resp: mpsc::Sender<()>,
    },
    /// Pipeline one deferred forwarded frame (no round trip).
    Forward {
        session: u64,
        seq: u64,
        records: u64,
        frame: Vec<u8>,
    },
    /// One synchronous request/response frame over the link.
    Sync {
        frame: Vec<u8>,
        resp: mpsc::Sender<Result<Value>>,
    },
    /// A partition read, its answer decoded by [`read_counts_answer`].
    Counts {
        frame: Vec<u8>,
        resp: mpsc::Sender<Result<PerturbedCounts>>,
    },
    /// Flush and confirm every queued forward.
    Barrier {
        resp: mpsc::Sender<Result<()>>,
    },
    /// Single connect-and-ping liveness probe (no retries).
    Probe {
        resp: mpsc::Sender<bool>,
    },
    /// Drop a closed session's replay state.
    Forget {
        session: u64,
    },
    Close,
}

/// Per-link tuning shared by every peer link: socket timeouts, the
/// circuit-breaker knobs and the fault-injection plan.
#[derive(Clone)]
struct LinkTuning {
    connect_timeout: Duration,
    read_timeout: Duration,
    /// `None` = unbounded (config `write_timeout_ms = 0`).
    write_timeout: Option<Duration>,
    breaker_threshold: u32,
    breaker_cooldown: Duration,
    fault: FaultPlan,
}

impl LinkTuning {
    fn from_config(config: &ServiceConfig) -> LinkTuning {
        LinkTuning {
            connect_timeout: Duration::from_millis(config.connect_timeout_ms.max(1)),
            read_timeout: Duration::from_millis(config.read_timeout_ms.max(1)),
            write_timeout: (config.write_timeout_ms > 0)
                .then(|| Duration::from_millis(config.write_timeout_ms)),
            breaker_threshold: config.breaker_threshold.max(1),
            breaker_cooldown: Duration::from_millis(config.breaker_cooldown_ms.max(1)),
            fault: config.fault_plan.clone(),
        }
    }
}

/// A replication link to one peer: a command channel into a background
/// forwarder thread that owns the socket, the per-session replay
/// history and the reconnect/resync logic.
struct PeerLink {
    tx: mpsc::Sender<LinkCmd>,
}

impl PeerLink {
    fn spawn(
        addr: String,
        origin: u64,
        counters: Arc<PeerReplCounters>,
        tuning: LinkTuning,
    ) -> Result<PeerLink> {
        let (tx, rx) = mpsc::channel();
        // Deterministic jitter stream, distinct per link (address ⊕
        // origin ⊕ fault seed) so simultaneous reconnect storms across
        // links de-synchronize without OS entropy.
        let rng = (fnv1a(addr.as_bytes()) ^ origin.rotate_left(32) ^ tuning.fault.seed()).max(1);
        let worker = LinkWorker {
            addr,
            origin,
            client: None,
            creates: HashMap::new(),
            history: HashMap::new(),
            outstanding: 0,
            queued_while_down: 0,
            counters,
            tuning,
            consecutive_failures: 0,
            breaker_opened_at: None,
            rng,
        };
        std::thread::Builder::new()
            .name("frapp-fed-link".into())
            .spawn(move || worker.run(rx))
            .map_err(|e| {
                ServiceError::Protocol(format!("cannot spawn replication link thread: {e}"))
            })?;
        Ok(PeerLink { tx })
    }

    fn register(&self, session: u64, line: String) -> mpsc::Receiver<()> {
        let (resp, rx) = mpsc::channel();
        let _ = self.tx.send(LinkCmd::Register {
            session,
            line,
            resp,
        });
        rx
    }

    fn forward(&self, session: u64, seq: u64, records: u64, frame: Vec<u8>) {
        let _ = self.tx.send(LinkCmd::Forward {
            session,
            seq,
            records,
            frame,
        });
    }

    fn forget(&self, session: u64) {
        let _ = self.tx.send(LinkCmd::Forget { session });
    }

    /// One JSON request line, tunnelled through `OP_JSON`.
    fn sync(&self, line: &str) -> Result<Value> {
        let frame = json_frame(line);
        self.call(|resp| LinkCmd::Sync { frame, resp })
    }

    /// Sends the command `cmd` builds around a reply channel; waits.
    fn call<T>(&self, cmd: impl FnOnce(mpsc::Sender<Result<T>>) -> LinkCmd) -> Result<T> {
        let (resp, rx) = mpsc::channel();
        self.tx
            .send(cmd(resp))
            .map_err(|_| ServiceError::ConnectionClosed)?;
        recv_link(rx)?
    }

    fn barrier_async(&self) -> mpsc::Receiver<Result<()>> {
        let (resp, rx) = mpsc::channel();
        let _ = self.tx.send(LinkCmd::Barrier { resp });
        rx
    }

    fn probe(&self) -> bool {
        let (resp, rx) = mpsc::channel();
        if self.tx.send(LinkCmd::Probe { resp }).is_err() {
            return false;
        }
        rx.recv().unwrap_or(false)
    }
}

impl Drop for PeerLink {
    fn drop(&mut self) {
        // Fire-and-forget: the worker exits on Close (or when the
        // channel drops). Not joined — a worker mid-backoff would
        // stall shutdown for no benefit.
        let _ = self.tx.send(LinkCmd::Close);
    }
}

struct LinkWorker {
    addr: String,
    /// The coordinator's node id — the `origin` every forwarded frame
    /// carries, and the key for the peer's `repl_status` watermarks.
    origin: u64,
    /// Invariant: `Some` implies connected, binary-negotiated *and*
    /// resynced (creates replayed, watermark gaps resent).
    client: Option<Client>,
    /// Session create lines, replayed first on every reconnect.
    creates: HashMap<u64, String>,
    /// Forwarded-batch history per session: `(seq, records, frame)` in
    /// seq order. The resync source of truth.
    history: HashMap<u64, Vec<(u64, u64, Vec<u8>)>>,
    /// Records pipelined since the last confirmed flush.
    outstanding: u64,
    /// Records queued (or send-failed) while disconnected, awaiting
    /// resync delivery. Together with `outstanding == 0` and a live
    /// client this lets a barrier short-circuit: a node that never
    /// forwards anything must not pay reconnect retries toward a down
    /// peer on every flush.
    queued_while_down: u64,
    counters: Arc<PeerReplCounters>,
    tuning: LinkTuning,
    /// Consecutive link-level failures since the last success; drives
    /// the health state machine (`>= 1` → degraded, `>= threshold` →
    /// the breaker opens).
    consecutive_failures: u32,
    /// When the circuit breaker last opened (or re-opened after a
    /// failed half-open probe). While `elapsed < breaker_cooldown`
    /// every connect fails fast without touching the socket.
    breaker_opened_at: Option<Instant>,
    /// xorshift64 state for deterministic backoff jitter.
    rng: u64,
}

impl LinkWorker {
    fn run(mut self, rx: mpsc::Receiver<LinkCmd>) {
        loop {
            match rx.recv() {
                Err(_) => return,
                Ok(LinkCmd::Close) => return,
                Ok(LinkCmd::Forget { session }) => {
                    self.creates.remove(&session);
                    self.history.remove(&session);
                    self.publish_history_gauge();
                }
                Ok(LinkCmd::Register {
                    session,
                    line,
                    resp,
                }) => {
                    self.creates.insert(session, line.clone());
                    if self.client.is_some() {
                        // Deliver now; a failure (stale connection,
                        // peer restarted) gets one reconnect, whose
                        // resync replays the just-registered create.
                        if self.send_create(&line).is_err() {
                            self.drop_client();
                            let _ = self.ensure_connected(1);
                        }
                    } else {
                        // One quick connect (whose resync replays the
                        // just-registered create) so a healthy cluster
                        // sees creates before the coordinator acks
                        // them; a down peer catches up at the next
                        // sync/barrier.
                        let _ = self.ensure_connected(1);
                    }
                    let _ = resp.send(());
                }
                Ok(LinkCmd::Forward {
                    session,
                    seq,
                    records,
                    frame,
                }) => {
                    self.counters.add(PeerCounter::ForwardedBatches, 1);
                    self.counters.add(PeerCounter::ForwardedRecords, records);
                    let sent = !self.peer_send_fault()
                        && match self.client.as_mut() {
                            Some(client) => client.send_frame_nowait(&frame).is_ok(),
                            None => false,
                        };
                    if sent {
                        self.outstanding += records;
                    } else {
                        self.drop_client();
                        self.queued_while_down += records;
                    }
                    // Queued either way; resync resends from the
                    // peer's watermark.
                    self.history
                        .entry(session)
                        .or_default()
                        .push((seq, records, frame));
                    self.maybe_truncate(session);
                    self.publish_history_gauge();
                }
                Ok(LinkCmd::Sync { frame, resp }) => {
                    let answer = self.sync_request(&frame, parse_ok);
                    if let Ok(v) = &answer {
                        self.consume_watermark(v);
                    }
                    let _ = resp.send(answer);
                }
                Ok(LinkCmd::Counts { frame, resp }) => {
                    let answer = self.sync_request(&frame, read_counts_answer);
                    if let Ok((_, members)) = &answer {
                        self.consume_watermark(members);
                    }
                    let _ = resp.send(answer.map(|(grid, _)| grid));
                }
                Ok(LinkCmd::Barrier { resp }) => {
                    let _ = resp.send(self.barrier());
                }
                Ok(LinkCmd::Probe { resp }) => {
                    let up = self.ensure_connected(1).is_ok();
                    let _ = resp.send(up);
                }
            }
        }
    }

    fn drop_client(&mut self) {
        if self.client.take().is_some() {
            self.counters.add(PeerCounter::PeerDown, 1);
        }
    }

    /// Applies a `peer_send` fault to one pipelined forward, returning
    /// whether the send must be treated as failed. `delay` sleeps and
    /// lets the send proceed; every other action tears the link down
    /// so the batch rides the resync path — pretending a dropped batch
    /// was sent would lose it *past* the exactly-once machinery, which
    /// no real TCP failure can do.
    fn peer_send_fault(&mut self) -> bool {
        match self.tuning.fault.decide(FaultSite::PeerSend) {
            None => false,
            Some(FaultAction::Delay(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                false
            }
            Some(_) => {
                self.drop_client();
                self.record_link_failure();
                true
            }
        }
    }

    /// One link-level failure: the first marks the peer degraded;
    /// `breaker_threshold` consecutive ones open (or re-open) the
    /// circuit breaker, after which connects fail fast until the
    /// cooldown licenses a half-open probe.
    fn record_link_failure(&mut self) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.consecutive_failures >= self.tuning.breaker_threshold {
            if !self.breaker_blocks() {
                // A fresh trip (including a re-open after a failed
                // half-open probe), not a failure piling onto an
                // already-open breaker.
                self.counters.add(PeerCounter::BreakerTrips, 1);
            }
            self.breaker_opened_at = Some(Instant::now());
            self.counters.set_health(PeerHealth::Down);
        } else {
            self.counters.set_health(PeerHealth::Degraded);
        }
    }

    /// A link-level success closes the breaker and resets health.
    fn record_link_success(&mut self) {
        self.consecutive_failures = 0;
        self.breaker_opened_at = None;
        self.counters.set_health(PeerHealth::Up);
    }

    /// Whether the breaker currently fails connects fast: open, and
    /// the cooldown has not yet elapsed. Once it elapses the next
    /// connect *is* the half-open probe.
    fn breaker_blocks(&self) -> bool {
        self.breaker_opened_at
            .is_some_and(|at| at.elapsed() < self.tuning.breaker_cooldown)
    }

    /// Deterministic jitter: scales `delay` into `[delay/2, delay)`
    /// off this link's xorshift stream, de-synchronizing concurrent
    /// reconnect storms (the classic thundering-herd fix) while
    /// keeping every schedule reproducible from the seed.
    fn jittered(&mut self, delay: Duration) -> Duration {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let unit = (self.rng >> 11) as f64 / (1u64 << 53) as f64;
        delay / 2 + Duration::from_secs_f64(delay.as_secs_f64() / 2.0 * unit)
    }

    /// Connects (with up to `attempts` tries and jittered exponential
    /// backoff), negotiates the binary framing and resyncs, upholding
    /// the `client.is_some() => resynced` invariant. Fails fast while
    /// the circuit breaker is open; stops retrying the moment a failure
    /// opens it.
    fn ensure_connected(&mut self, attempts: u32) -> Result<()> {
        if self.client.is_some() {
            return Ok(());
        }
        if self.breaker_blocks() {
            return Err(peer_down(&self.addr));
        }
        let mut delay = Duration::from_millis(50);
        for attempt in 0..attempts {
            if attempt > 0 {
                let jittered = self.jittered(delay);
                std::thread::sleep(jittered);
                delay = (delay * 2).min(Duration::from_millis(500));
            }
            if self.tuning.fault.inject_io(FaultSite::PeerConnect).is_err() {
                // An injected connect failure: identical accounting to
                // a real refused connection.
                self.counters.add(PeerCounter::PeerDown, 1);
                self.record_link_failure();
            } else {
                match Client::connect_with_timeouts(
                    &self.addr,
                    Some(self.tuning.connect_timeout),
                    Some(self.tuning.read_timeout),
                    self.tuning.write_timeout,
                ) {
                    Ok(mut client) => {
                        let negotiated = client.negotiate_binary();
                        self.client = Some(client);
                        match negotiated.and_then(|()| self.resync()) {
                            Ok(()) => {
                                self.record_link_success();
                                return Ok(());
                            }
                            Err(_) => {
                                self.drop_client();
                                self.record_link_failure();
                            }
                        }
                    }
                    Err(_) => {
                        self.counters.add(PeerCounter::PeerDown, 1);
                        self.record_link_failure();
                    }
                }
            }
            if self.breaker_blocks() {
                // The breaker opened mid-cycle: stop hammering.
                break;
            }
        }
        Err(peer_down(&self.addr))
    }

    /// Anti-entropy after a (re)connect: replay session creates
    /// (`already exists` confirms the peer kept it), ask the peer
    /// which forwarded seqs each shard has applied, resend exactly the
    /// gap, and confirm with a flush. Leaves `outstanding` at zero on
    /// success — everything queued so far is acknowledged.
    fn resync(&mut self) -> Result<()> {
        let creates: Vec<String> = self.creates.values().cloned().collect();
        for line in creates {
            self.send_create(&line)?;
        }
        self.outstanding = 0;
        self.queued_while_down = 0;
        let sessions: Vec<u64> = self.history.keys().copied().collect();
        for session in sessions {
            let marks = self.fetch_marks(session)?;
            let client = self.client.as_mut().ok_or_else(|| peer_down(&self.addr))?;
            for (seq, records, frame) in self.history.get(&session).into_iter().flatten() {
                if mark_covers(&marks.applied, *seq) {
                    continue;
                }
                self.counters.add(PeerCounter::Retries, 1);
                client.send_frame_nowait(frame)?;
                self.outstanding += records;
            }
            self.truncate_history(session, &marks.durable);
        }
        self.publish_history_gauge();
        self.flush_outstanding()
    }

    /// Drops replay-history batches the peer has durably persisted.
    /// With an empty `durable` (peer has no persistence) this keeps
    /// the full history: only a durable mark survives a peer restart,
    /// so only a durable mark licenses forgetting a batch.
    fn truncate_history(&mut self, session: u64, durable: &[u64]) {
        if durable.is_empty() {
            return;
        }
        if let Some(batches) = self.history.get_mut(&session) {
            batches.retain(|&(seq, _, _)| !mark_covers(durable, seq));
        }
    }

    /// Opportunistic truncation on the forward path: once a session's
    /// replay history reaches a multiple of the threshold (and the
    /// link is up), ask the peer for its durable watermarks and drop
    /// what it has persisted. While disconnected the history *is* the
    /// pending resync payload, so nothing is fetched or dropped.
    fn maybe_truncate(&mut self, session: u64) {
        let backlog = self.history.get(&session).map_or(0, Vec::len);
        if backlog < HISTORY_TRUNCATE_THRESHOLD
            || !backlog.is_multiple_of(HISTORY_TRUNCATE_THRESHOLD)
            || self.client.is_none()
        {
            return;
        }
        match self.fetch_marks(session) {
            Ok(marks) => self.truncate_history(session, &marks.durable),
            // The fetch doubling as a health probe: a failed round
            // trip means the pipelined connection is suspect too.
            Err(_) => self.drop_client(),
        }
    }

    /// Publishes the total queued replay batches across sessions to
    /// the link's metrics gauge.
    fn publish_history_gauge(&self) {
        let total = self.history.values().map(|b| b.len() as u64).sum();
        self.counters.set(PeerCounter::HistoryBatches, total);
    }

    fn send_create(&mut self, line: &str) -> Result<()> {
        let client = self.client.as_mut().ok_or_else(|| peer_down(&self.addr))?;
        match client.request(line) {
            Ok(v) => {
                self.consume_watermark(&v);
                Ok(())
            }
            Err(ServiceError::Remote { message, .. }) if message.contains("already exists") => {
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    fn fetch_marks(&mut self, session: u64) -> Result<PeerMarks> {
        let line = repl_status_line(session, self.origin);
        let client = self.client.as_mut().ok_or_else(|| peer_down(&self.addr))?;
        let answer = client.request(&line);
        if let Ok(v) = &answer {
            self.consume_watermark(v);
        }
        parse_repl_status(answer)
    }

    /// Folds a response's piggybacked deferred watermark (the peer
    /// attaches it to any synchronous reply while deferred submits are
    /// pending) into the outstanding accounting.
    fn consume_watermark(&mut self, v: &Value) {
        if let Some(acked) = v.get("deferred_accepted").and_then(Value::as_u64) {
            self.counters.add(PeerCounter::AckedRecords, acked);
            self.outstanding = self.outstanding.saturating_sub(acked);
        }
        if v.get("deferred_error").is_some() {
            // Some pipelined batch failed on the peer; ground truth
            // lives in its watermarks now. Reconnect-and-resync.
            self.drop_client();
        }
    }

    fn flush_outstanding(&mut self) -> Result<()> {
        if self.outstanding == 0 {
            return Ok(());
        }
        let client = self.client.as_mut().ok_or_else(|| peer_down(&self.addr))?;
        let acked = client.flush()?;
        self.counters.add(PeerCounter::AckedRecords, acked);
        self.outstanding = 0;
        Ok(())
    }

    /// One request frame and its answer, decoded by `read`.
    fn sync_request<T>(&mut self, frame: &[u8], read: fn(&str) -> Result<T>) -> Result<T> {
        for _ in 0..2 {
            self.ensure_connected(CONNECT_ATTEMPTS)?;
            let client = self.client.as_mut().ok_or_else(|| peer_down(&self.addr))?;
            match client.request_frame(frame, read) {
                Ok(answer) => {
                    self.record_link_success();
                    return Ok(answer);
                }
                // An in-band refusal: the request *was* processed;
                // retrying would re-run it for the same answer. The
                // peer is alive, so this is not a link failure.
                Err(e @ ServiceError::Remote { .. }) => return Err(e),
                // An answer that does not read as one: a retry would get
                // the same. The stream may be out of frame, so it goes.
                Err(e @ ServiceError::Protocol(_)) => {
                    self.drop_client();
                    return Err(e);
                }
                // I/O failure: unknown whether it landed. Reconnect
                // and retry once — every link request is idempotent
                // (forwards dedup on (origin, seq), the rest are reads
                // or naturally idempotent creates/closes).
                Err(_) => {
                    self.drop_client();
                    self.record_link_failure();
                }
            }
        }
        Err(peer_down(&self.addr))
    }

    /// Flushes and confirms every queued forward, reconnecting and
    /// resending watermark gaps as needed.
    fn barrier(&mut self) -> Result<()> {
        // Nothing in flight and nothing queued: the barrier holds
        // vacuously. This matters cluster-wide — peers barrier their
        // own links when *they* are flushed, and a node that never
        // forwards must not pay reconnect retries toward a down peer.
        if self.outstanding == 0 && self.queued_while_down == 0 {
            return Ok(());
        }
        let mut last = None;
        for _ in 0..BARRIER_ATTEMPTS {
            let result = self
                .ensure_connected(CONNECT_ATTEMPTS)
                .and_then(|()| self.flush_outstanding());
            match result {
                Ok(()) => return Ok(()),
                Err(e) => {
                    // Whatever failed (I/O or an in-band deferred
                    // error), the peer's watermarks are the ground
                    // truth; reconnect and resync from them.
                    self.drop_client();
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| peer_down(&self.addr)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_lines_resolve_every_default() {
        let line = create_line(
            42,
            &[("age".to_owned(), 8), ("zip".to_owned(), 4)],
            Mechanism::Deterministic { gamma: 19.0 },
            4,
            0xF00D,
        );
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("session").and_then(Value::as_u64), Some(42));
        assert_eq!(v.get("shards").and_then(Value::as_u64), Some(4));
        assert_eq!(v.get("seed").and_then(Value::as_u64), Some(0xF00D));
        assert_eq!(v.get("gamma").and_then(Value::as_f64), Some(19.0));
        assert_eq!(v.get("mechanism").and_then(Value::as_str), Some("det"));
    }

    fn test_worker(
        addr: &str,
        origin: u64,
        fault_spec: &str,
        threshold: u32,
        cooldown: Duration,
    ) -> LinkWorker {
        let tuning = LinkTuning {
            connect_timeout: Duration::from_millis(10),
            read_timeout: Duration::from_millis(10),
            write_timeout: None,
            breaker_threshold: threshold,
            breaker_cooldown: cooldown,
            fault: FaultPlan::parse(fault_spec).unwrap(),
        };
        let rng = (fnv1a(addr.as_bytes()) ^ origin.rotate_left(32) ^ tuning.fault.seed()).max(1);
        LinkWorker {
            addr: addr.to_owned(),
            origin,
            client: None,
            creates: HashMap::new(),
            history: HashMap::new(),
            outstanding: 0,
            queued_while_down: 0,
            counters: Arc::new(PeerReplCounters::new()),
            tuning,
            consecutive_failures: 0,
            breaker_opened_at: None,
            rng,
        }
    }

    #[test]
    fn identical_seeds_reproduce_the_jitter_schedule_exactly() {
        // The deterministic-schedule property: a link's backoff jitter
        // is a pure function of (address, origin, fault seed), so a
        // soak run replays identically under the same seed.
        let sixty = Duration::from_secs(60);
        let base = Duration::from_millis(50);
        let schedule = |w: &mut LinkWorker| (0..64).map(|_| w.jittered(base)).collect::<Vec<_>>();

        // A seed-only spec is the *empty* plan (seed 0), so carry a
        // rule to make the seed actually bite.
        let spec9 = "seed=9,peer_send=drop:0.5";
        let spec10 = "seed=10,peer_send=drop:0.5";
        let a = schedule(&mut test_worker("10.0.0.1:7000", 2, spec9, 3, sixty));
        let b = schedule(&mut test_worker("10.0.0.1:7000", 2, spec9, 3, sixty));
        assert_eq!(
            a, b,
            "same (addr, origin, seed) must replay the same schedule"
        );

        // Every draw stays inside the jitter window [base/2, base).
        for d in &a {
            assert!(*d >= base / 2 && *d < base, "jitter {d:?} out of bounds");
        }

        // Different seed, different origin or different peer address
        // each de-synchronize the stream (the thundering-herd fix).
        assert_ne!(
            a,
            schedule(&mut test_worker("10.0.0.1:7000", 2, spec10, 3, sixty))
        );
        assert_ne!(
            a,
            schedule(&mut test_worker("10.0.0.1:7000", 3, spec9, 3, sixty))
        );
        assert_ne!(
            a,
            schedule(&mut test_worker("10.0.0.2:7000", 2, spec9, 3, sixty))
        );
    }

    #[test]
    fn breaker_state_machine_degrades_trips_cools_down_and_recovers() {
        let mut w = test_worker("10.0.0.1:7000", 0, "seed=1", 3, Duration::from_millis(40));
        assert_eq!(w.counters.health(), PeerHealth::Up);

        // One failure degrades; the breaker stays closed.
        w.record_link_failure();
        assert_eq!(w.counters.health(), PeerHealth::Degraded);
        assert!(!w.breaker_blocks());

        // The threshold-th consecutive failure trips it open.
        w.record_link_failure();
        w.record_link_failure();
        assert_eq!(w.counters.health(), PeerHealth::Down);
        assert!(w.breaker_blocks());
        assert_eq!(w.counters.report(0, "x").get(PeerCounter::BreakerTrips), 1);

        // Failures piling onto an already-open breaker are not fresh
        // trips.
        w.record_link_failure();
        assert_eq!(w.counters.report(0, "x").get(PeerCounter::BreakerTrips), 1);

        // After the cooldown the next connect is the half-open probe;
        // its failure re-opens the breaker and counts a new trip.
        std::thread::sleep(Duration::from_millis(45));
        assert!(!w.breaker_blocks());
        w.record_link_failure();
        assert!(w.breaker_blocks());
        assert_eq!(w.counters.report(0, "x").get(PeerCounter::BreakerTrips), 2);

        // A success closes the breaker and resets health outright.
        w.record_link_success();
        assert!(!w.breaker_blocks());
        assert_eq!(w.counters.health(), PeerHealth::Up);
        assert_eq!(w.consecutive_failures, 0);
    }

    #[test]
    fn open_breaker_fails_connects_fast_without_touching_the_socket() {
        let mut w = test_worker("10.0.0.1:7000", 0, "seed=1", 1, Duration::from_secs(60));
        w.record_link_failure();
        assert!(w.breaker_blocks());
        let err = w.ensure_connected(3).unwrap_err();
        assert!(is_unreachable(&err), "{err}");
        // Fail-fast means the network was never touched: no connect
        // attempt, no backoff sleep, no peer-down increment.
        assert_eq!(w.counters.report(0, "x").get(PeerCounter::PeerDown), 0);
    }

    #[test]
    fn injected_connect_faults_open_the_breaker_and_stop_the_retry_cycle() {
        let mut w = test_worker(
            "203.0.113.1:9",
            0,
            "seed=3,peer_connect=io_error",
            2,
            Duration::from_secs(60),
        );
        assert!(w.ensure_connected(5).is_err());
        assert_eq!(w.counters.health(), PeerHealth::Down);
        assert!(w.breaker_blocks());
        let report = w.counters.report(0, "x");
        assert_eq!(report.get(PeerCounter::BreakerTrips), 1);
        // The cycle stopped the moment the breaker opened: exactly
        // `threshold` attempts were charged, not all five.
        assert_eq!(report.get(PeerCounter::PeerDown), 2);
    }

    #[test]
    fn unreachable_and_coverage_helpers_classify_correctly() {
        assert!(is_unreachable(&peer_down("10.0.0.1:7000")));
        assert!(is_unreachable(&all_owners_down()));
        assert!(is_unreachable(&ServiceError::ConnectionClosed));
        assert!(!is_unreachable(&ServiceError::Remote {
            message: "session 9 not found".into(),
            accepted: None,
        }));

        assert_eq!(coverage(3, Vec::new()), None, "full coverage is exact");
        let partial = coverage(3, vec![(1, "10.0.0.2:7000".into())]).unwrap();
        assert_eq!(partial.owners_total, 3);
        assert_eq!(partial.owners_reachable, 2);
        assert_eq!(partial.missing.len(), 1);
    }

    #[test]
    fn from_config_requires_locatable_self() {
        let plain = ServiceConfig::default();
        assert!(FedState::from_config(&plain).unwrap().is_none());

        let mut cfg = ServiceConfig {
            peers: vec!["10.0.0.1:7000".into(), "10.0.0.2:7000".into()],
            ..ServiceConfig::default()
        };
        assert!(FedState::from_config(&cfg).is_err());

        cfg.node_id = Some(1);
        let fed = FedState::from_config(&cfg).unwrap().unwrap();
        assert_eq!(fed.topology().self_id(), 1);
        assert_eq!(fed.peer_reports().len(), 1);
        assert_eq!(fed.peer_reports()[0].node, 0);
    }

    /// A peer that upgrades each connection to the binary framing and
    /// answers every frame on it with `answer`, one connection at a
    /// time, until it is dropped.
    struct CannedPeer {
        addr: String,
        stop: Arc<std::sync::atomic::AtomicBool>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    impl CannedPeer {
        fn new(answer: &str) -> CannedPeer {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.set_nonblocking(true).unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let frame = json_frame(answer);
            let stopped = Arc::clone(&stop);
            let thread = std::thread::spawn(move || {
                while !stopped.load(Ordering::Relaxed) {
                    match listener.accept() {
                        // The connection ends when the link drops it.
                        Ok((stream, _)) => drop(Self::serve(stream, &frame)),
                        Err(_) => std::thread::sleep(Duration::from_millis(1)),
                    }
                }
            });
            CannedPeer {
                addr,
                stop,
                thread: Some(thread),
            }
        }

        fn serve(stream: std::net::TcpStream, frame: &[u8]) -> std::io::Result<()> {
            use std::io::{BufRead, Read, Write};
            stream.set_nonblocking(false)?;
            stream.set_read_timeout(Some(Duration::from_secs(10)))?;
            let mut reader = std::io::BufReader::new(stream.try_clone()?);
            let mut writer = stream;
            reader.read_line(&mut String::new())?;
            writer.write_all(b"{\"ok\":true,\"framing\":\"binary\"}\n")?;
            loop {
                // Opcode and a one-byte length: every link request
                // here is shorter than 128 bytes.
                let mut header = [0u8; 2];
                reader.read_exact(&mut header)?;
                assert!(header[1] < 0x80, "a one-byte length");
                reader.read_exact(&mut vec![0; usize::from(header[1])])?;
                writer.write_all(frame)?;
            }
        }
    }

    impl Drop for CannedPeer {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::Relaxed);
            if let Some(thread) = self.thread.take() {
                let _ = thread.join();
            }
        }
    }

    /// Answers a peer could give to a partition read of a session of
    /// 6 cells at γ = 19, with the record total a read accepts them
    /// at: a correct grid and grids of counts at 2^53 − 1 (accepted);
    /// a fractional count, a count of 2^53 + 1, a grid one cell short
    /// or long, counts that do not total `n`, and another γ (refused).
    const PEER_ANSWERS: [(&str, Option<u64>); 9] = [
        (
            r#"{"ok":true,"n":3,"gamma":19,"counts":[1,0,2,0,0,0]}"#,
            Some(3),
        ),
        (
            r#"{"ok":true,"n":9007199254740991,"gamma":19,"counts":[9007199254740991,0,0,0,0,0]}"#,
            Some((1 << 53) - 1),
        ),
        (
            r#"{"ok":true,"n":9007199254740991,"gamma":19,"counts":[9007199254740990,1,0,0,0,0]}"#,
            Some((1 << 53) - 1),
        ),
        (
            r#"{"ok":true,"n":3,"gamma":19,"counts":[0.5,0,2.5,0,0,0]}"#,
            None,
        ),
        (
            r#"{"ok":true,"n":9007199254740993,"gamma":19,"counts":[9007199254740993,0,0,0,0,0]}"#,
            None,
        ),
        (r#"{"ok":true,"n":3,"gamma":19,"counts":[1,0,2,0,0]}"#, None),
        (
            r#"{"ok":true,"n":3,"gamma":19,"counts":[1,0,2,0,0,0,0]}"#,
            None,
        ),
        (
            r#"{"ok":true,"n":4,"gamma":19,"counts":[1,0,2,0,0,0]}"#,
            None,
        ),
        (
            r#"{"ok":true,"n":3,"gamma":9,"counts":[1,0,2,0,0,0]}"#,
            None,
        ),
    ];

    /// A federated `counts`, `reconstruct` and `stats`, strict and
    /// partial, on a node whose one peer owner answers its partition
    /// read with each of [`PEER_ANSWERS`]: a refused answer fails every
    /// read with a `Protocol` error (the peer answered, so even a
    /// partial read may not skip it), and an accepted one merges into
    /// each. This node's own partition is empty.
    #[test]
    fn a_lying_peers_partition_fails_every_federated_read() {
        use crate::dispatch::execute;
        use crate::protocol::Request;
        use crate::session::ReconstructionMethod;
        for (answer, accepted) in PEER_ANSWERS {
            let peer = CannedPeer::new(answer);
            let mut config = ServiceConfig::default().with_peers(
                vec!["127.0.0.1:1".into(), peer.addr.clone()],
                0,
                2,
            );
            config.connect_timeout_ms = 2_000;
            config.read_timeout_ms = 5_000;
            let fed = FedState::from_config(&config).unwrap().unwrap();
            let registry = SessionRegistry::new();
            let schema = Schema::new(vec![("a", 3), ("b", 2)]).unwrap();
            let mechanism = Mechanism::Deterministic { gamma: 19.0 };
            registry
                .create(Some(1), schema, mechanism, 2, 7, 4096)
                .unwrap();
            let transport = crate::metrics::TransportMetrics::new();
            for allow_partial in [false, true] {
                let reads = [
                    Request::Counts {
                        session: 1,
                        allow_partial,
                        local: false,
                    },
                    Request::Reconstruct {
                        session: 1,
                        method: ReconstructionMethod::ClosedForm,
                        clamp: true,
                        allow_partial,
                    },
                    Request::Stats {
                        session: 1,
                        allow_partial,
                    },
                ];
                for read in reads {
                    let what = format!("{read:?} of {answer}");
                    let mut out = String::new();
                    let result = execute(
                        &registry,
                        &config,
                        &transport,
                        Some(&fed),
                        None,
                        read,
                        &mut out,
                    );
                    match (result, accepted) {
                        (Ok(_), Some(n)) => {
                            let v = crate::json::parse(&out).unwrap();
                            let total = v.get("n").or_else(|| v.get("total"));
                            assert_eq!(total.and_then(Value::as_u64), Some(n), "{what}");
                        }
                        (Err(ServiceError::Protocol(_)), None) => {}
                        (result, _) => panic!("{what}: {:?}", result.map(|_| out)),
                    }
                }
            }
        }
    }

    /// The bytes of `line`'s answer from the line listener at `addr`.
    fn answer_bytes(addr: &str, line: &str) -> usize {
        use std::io::{BufRead, Write};
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut answer = String::new();
        std::io::BufReader::new(stream)
            .read_line(&mut answer)
            .unwrap();
        answer.trim_end().len()
    }

    /// The stages of a federated read on a 3-node loopback: this node
    /// coordinates and owns a third of the session (replication 3), two
    /// `frapp-serve` nodes own the rest. Fetch is the two remote owners'
    /// partition reads in turn, each a round trip and a decode, as
    /// `owner_partitions` runs them; merge folds the three partitions as
    /// `merge_partitions` does; solve is the closed form and clamp on
    /// the merged counts, as `reconstruct` runs it. Two sessions, both
    /// perturbed on their owners at γ = 19: 2^20 HEALTH records (7 500
    /// cells), and 2^14 records over 1 024 × 1 024 cells.
    #[test]
    #[ignore = "timing table; run in release with --nocapture"]
    fn federated_read_stage_table() {
        use crate::framing::tests::{ns_per_record, print_table};
        use crate::protocol::RecordBatch;
        use crate::session::ReconstructionMethod;
        use std::hint::black_box;

        let us_per_call = |f: &mut dyn FnMut()| ns_per_record(1, f).scaled(1e-3);
        let free = || {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let peers: Vec<String> = (0..3).map(|_| free()).collect();
        let config = |node: usize| {
            ServiceConfig::with_addr(peers[node].clone()).with_peers(peers.clone(), node, 3)
        };
        let servers: Vec<_> = (1..3)
            .map(|node| crate::Server::bind(config(node)).unwrap().spawn().unwrap())
            .collect();
        let fed = FedState::from_config(&config(0)).unwrap().unwrap();
        let registry = SessionRegistry::new();
        let wide: Vec<Vec<u32>> = (0..1u32 << 14)
            .map(|i| vec![i.wrapping_mul(7_919) % 1024, i.wrapping_mul(104_729) % 1024])
            .collect();
        let mut table = Vec::new();
        for (name, schema, records) in [
            (
                "HEALTH, 2^20 records",
                frapp_data::health::schema(),
                frapp_data::health::health_like_n(1 << 20, 1)
                    .records()
                    .to_vec(),
            ),
            (
                "1024 x 1024, 2^14 records",
                Schema::new(vec![("a", 1024), ("b", 1024)]).unwrap(),
                wide,
            ),
        ] {
            let raw: Vec<(String, u32)> = schema
                .attributes()
                .iter()
                .map(|a| (a.name().to_owned(), a.cardinality()))
                .collect();
            let mechanism = Mechanism::Deterministic { gamma: 19.0 };
            let sess = fed
                .create_session(&registry, &raw, schema, mechanism, 2, 7, 1 << 13)
                .unwrap()
                .session;
            for chunk in records.chunks(256) {
                let batch = RecordBatch::from_rows(chunk);
                fed.submit(&registry, sess.id(), &batch, false, true)
                    .unwrap();
            }
            fed.barrier_all().unwrap();
            let remote: Vec<usize> = fed
                .topology()
                .owners(sess.id())
                .into_iter()
                .filter(|&o| o != 0)
                .collect();
            assert_eq!(remote.len(), 2);
            let fetch_all = || -> Vec<CountAccumulator> {
                remote
                    .iter()
                    .map(|&o| fed.fetch_partition(o, &sess).unwrap())
                    .collect()
            };
            let mut partitions = fetch_all();
            partitions.push(sess.snapshot());
            let merge = || {
                let mut merged = CountAccumulator::new(sess.schema().clone());
                for partition in &partitions {
                    merged.merge_checked(partition).unwrap();
                }
                merged
            };
            assert_eq!(merge().n(), records.len() as u64);
            let local = vec![("local", true.into())];
            let bytes = answer_bytes(
                &peers[remote[0]],
                &request_line(Op::Counts, Some(sess.id()), local),
            );

            let fetch = us_per_call(&mut || {
                black_box(fetch_all());
            });
            let merged = us_per_call(&mut || {
                black_box(merge());
            });
            let solved = us_per_call(&mut || {
                let rec = sess.reconstruct_counts(merge(), ReconstructionMethod::ClosedForm, true);
                black_box(rec.unwrap());
            });
            table.push(vec![
                name.to_owned(),
                bytes.to_string(),
                fetch.to_string(),
                merged.to_string(),
                solved.less(merged).to_string(),
            ]);
        }
        println!("us per call: median [p25, p75] of nine rounds");
        print_table(
            &[
                "session",
                "peer answer B",
                "fetch (2 owners)",
                "merge (3)",
                "solve+clamp",
            ],
            &table,
        );
        drop(fed);
        for server in servers {
            server.shutdown().unwrap();
        }
    }
}
