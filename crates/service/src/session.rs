//! Collection sessions and their registry.
//!
//! A [`CollectionSession`] is the server-side embodiment of one FRAPP
//! deployment: a schema, a perturbation mechanism at some privacy
//! level, and the (sharded) perturbed counts collected so far. Clients
//! stream records into it — pre-perturbed, or raw for server-side
//! perturbation — and issue reconstruction queries at any point; the
//! session answers from a snapshot of the merged shard counts using
//! either the O(n) gamma-diagonal closed form or a dense LU
//! factorization that is built once and cached for all later queries.

use crate::error::{Result, ServiceError};
use crate::metrics::{MetricsReport, SessionMetrics};
use crate::shard::{Shard, ShardDelta};
use frapp_core::perturb::{GammaDiagonal, Perturber, RandomizedGammaDiagonal};
use frapp_core::reconstruct::{clamp_counts, GammaDiagonalReconstructor};
use frapp_core::{CountAccumulator, PrivacyRequirement, Schema};
use frapp_linalg::solver::LinearSolver;
use frapp_linalg::LuDecomposition;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::Instant;

/// The perturbation mechanism a session applies server-side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mechanism {
    /// The deterministic gamma-diagonal matrix (paper Section 3).
    Deterministic {
        /// Amplification bound `γ > 1`.
        gamma: f64,
    },
    /// The randomized gamma-diagonal matrix (paper Section 4), with
    /// `α` expressed as a fraction of its natural scale `γx`.
    Randomized {
        /// Amplification bound `γ > 1`.
        gamma: f64,
        /// `α / (γx) ∈ [0, 1]`.
        alpha_fraction: f64,
    },
}

impl Mechanism {
    /// The deterministic mechanism at the `γ` induced by a `(ρ1, ρ2)`
    /// privacy requirement.
    pub fn from_requirement(req: &PrivacyRequirement) -> Self {
        Mechanism::Deterministic { gamma: req.gamma() }
    }

    /// The amplification bound of the (expected) matrix.
    pub fn gamma(&self) -> f64 {
        match self {
            Mechanism::Deterministic { gamma } | Mechanism::Randomized { gamma, .. } => *gamma,
        }
    }
}

/// How a reconstruction query should solve `A X̂ = Y`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconstructionMethod {
    /// The O(n) Sherman–Morrison closed form (the default).
    ClosedForm,
    /// Dense LU, factored on first use and cached for the session's
    /// lifetime; `O(n²)` per query thereafter.
    CachedLu,
}

impl ReconstructionMethod {
    /// Parses the wire name (`closed` / `cached_lu`).
    pub fn from_wire(name: &str) -> Result<Self> {
        match name {
            "closed" => Ok(ReconstructionMethod::ClosedForm),
            "cached_lu" => Ok(ReconstructionMethod::CachedLu),
            other => Err(ServiceError::InvalidRequest(format!(
                "unknown reconstruction method `{other}` (expected closed|cached_lu)"
            ))),
        }
    }

    /// The wire name.
    pub fn wire_name(&self) -> &'static str {
        match self {
            ReconstructionMethod::ClosedForm => "closed",
            ReconstructionMethod::CachedLu => "cached_lu",
        }
    }
}

/// The result of a reconstruction query.
#[derive(Debug, Clone)]
pub struct Reconstruction {
    /// Total records ingested at snapshot time.
    pub n: u64,
    /// The estimated original count vector `X̂`.
    pub estimates: Vec<f64>,
    /// Which solver produced the estimates.
    pub method: ReconstructionMethod,
    /// Whether the cached LU factorization already existed when the
    /// query arrived (always `false` for the other methods).
    pub lu_cache_hit: bool,
}

/// Point-in-time ingest statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionStats {
    /// Total records ingested.
    pub total: u64,
    /// Records ingested per shard.
    pub per_shard: Vec<u64>,
}

/// Persisted per-shard state, produced by
/// [`CollectionSession::dump_shards`] and consumed by
/// [`CollectionSession::recover`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardDump {
    /// Records counted by the shard.
    pub ingested: u64,
    /// RNG draws the shard's perturbation stream has consumed.
    pub rng_draws: u64,
    /// The RNG's native state words.
    pub rng_state: [u64; 4],
    /// The shard's count vector, one entry per domain cell.
    pub counts: Vec<f64>,
    /// Replication watermarks `(origin node, last applied seq)` —
    /// persisted with the counts so recovered dedup state always
    /// matches recovered counts. Empty for pre-federation snapshots.
    pub repl: Vec<(u64, u64)>,
}

/// A one-line summary of a live session, for `list_sessions`.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSummary {
    /// Session id.
    pub id: u64,
    /// Domain size of the session schema.
    pub domain_size: usize,
    /// Ingest shard count.
    pub shards: usize,
    /// Amplification bound of the mechanism.
    pub gamma: f64,
    /// Total records counted (across restarts).
    pub total: u64,
    /// Reconstruction queries answered by this process.
    pub reconstructions: u64,
}

/// Where a submitted batch lands. The decoders build it, every layer
/// down to [`CollectionSession::ingest`] passes it along, and only
/// `ingest` turns it into a shard index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// The next shard in rotation, so concurrent submitters spread
    /// across shard locks.
    RoundRobin,
    /// The shard a client pinned its stream to, which (with the
    /// session seed) makes server-side perturbation bit-reproducible
    /// offline.
    Shard(usize),
    /// A batch forwarded between federation nodes: it lands on shard
    /// `seq % num_shards` and claims the `(origin, seq)` replication
    /// watermark there, so a forwarder retry after a dropped
    /// connection or a peer restart can never double-count.
    Replicated {
        /// The forwarding node's peer index.
        origin: u64,
        /// The forwarder's per-session sequence number for this batch.
        seq: u64,
    },
}

/// What [`CollectionSession::ingest`] did with a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ingested {
    /// The shard the batch landed on.
    pub shard: usize,
    /// `false` when a [`Placement::Replicated`] batch had already been
    /// applied and was skipped, counting nothing.
    pub fresh: bool,
}

/// One schema + mechanism + sharded perturbed counts.
pub struct CollectionSession {
    id: u64,
    schema: Schema,
    mechanism: Mechanism,
    seed: u64,
    perturber: Arc<dyn Perturber>,
    closed_form: GammaDiagonalReconstructor,
    shards: Vec<Mutex<Shard>>,
    next_shard: AtomicUsize,
    lu_cache: OnceLock<Arc<LuDecomposition>>,
    max_dense_domain: usize,
    /// Registry-clock value of the last request that touched this
    /// session; the LRU eviction key.
    last_touched: AtomicU64,
    metrics: SessionMetrics,
    /// Set when the registry retires the session (LRU eviction or an
    /// explicit close). Ingest refuses afterwards, so no record can be
    /// acknowledged after the eviction spill snapshotted the shards —
    /// an acked record is always in the snapshot.
    retired: AtomicBool,
    /// Set on explicit close only: snapshots are forbidden, so an
    /// in-flight periodic save cannot resurrect a closed session's
    /// counts after its file was deleted.
    closed: AtomicBool,
    /// Serializes snapshot writes and close-time file removal for this
    /// session (see [`crate::persist::save_session`]).
    persist_gate: Mutex<()>,
    /// Per-origin *durable* replication watermarks: entry `s` of the
    /// vector is the highest forwarded seq from that origin that shard
    /// `s` has had written to a persisted snapshot or delta. Reported
    /// alongside the live marks by `repl_status`, so forwarders can
    /// truncate replay history that survives even a crash of this
    /// node. Updated by the persistence layer after each successful
    /// write; initialized from the recovered dump (what was read back
    /// IS durable).
    durable_repl: Mutex<HashMap<u64, Vec<u64>>>,
    /// Monotonic full-snapshot sequence number. `0` means no full
    /// (v2) snapshot exists yet for this session; each successful full
    /// save bumps it, and every appended delta line records the base
    /// sequence it applies to, so recovery never replays deltas onto
    /// the wrong base.
    persist_seq: AtomicU64,
    /// Set for recovered sessions (and cleared by each successful full
    /// save): the next persistence flush must write a *full* snapshot,
    /// never a delta. A recovered session's shards have no in-memory
    /// delta baseline, and its on-disk delta file may carry a torn tail
    /// that would silently swallow lines appended after it — the fresh
    /// base (which bumps the sequence and removes the delta file)
    /// re-establishes both invariants.
    pending_full_snapshot: AtomicBool,
}

impl std::fmt::Debug for CollectionSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollectionSession")
            .field("id", &self.id)
            .field("mechanism", &self.mechanism)
            .field("shards", &self.shards.len())
            .field("domain_size", &self.schema.domain_size())
            .finish()
    }
}

impl CollectionSession {
    /// Builds a session. `num_shards` must be at least 1; the expensive
    /// per-mechanism sampler state is built once here and shared across
    /// all shards.
    pub fn new(
        id: u64,
        schema: Schema,
        mechanism: Mechanism,
        num_shards: usize,
        seed: u64,
        max_dense_domain: usize,
    ) -> Result<Self> {
        if num_shards == 0 {
            return Err(ServiceError::InvalidRequest(
                "a session needs at least one shard".into(),
            ));
        }
        let shards = (0..num_shards)
            .map(|i| Mutex::new(Shard::new(schema.clone(), seed, i)))
            .collect();
        Self::assemble(id, schema, mechanism, seed, max_dense_domain, shards)
    }

    /// Rebuilds a session from persisted state. The shard layout, seed
    /// and per-shard RNG positions come from the dump, so deterministic
    /// replay holds across the restart: raw records ingested after
    /// recovery are perturbed with exactly the draws the pre-restart
    /// process would have used. The dumps carry native RNG state words,
    /// so recovery is O(1) in the draws consumed.
    pub fn recover(
        id: u64,
        schema: Schema,
        mechanism: Mechanism,
        seed: u64,
        max_dense_domain: usize,
        dumps: Vec<ShardDump>,
    ) -> Result<Self> {
        if dumps.is_empty() {
            return Err(ServiceError::Snapshot(
                "a session snapshot needs at least one shard".into(),
            ));
        }
        // What was just read back from disk is durable by definition:
        // seed the durable watermarks from the recovered dumps so
        // forwarders can truncate immediately after our restart.
        let recovered_marks: Vec<Vec<(u64, u64)>> = dumps.iter().map(|d| d.repl.clone()).collect();
        let shards = dumps
            .into_iter()
            .enumerate()
            .map(|(i, d)| {
                Shard::recover_from_state(
                    schema.clone(),
                    i,
                    d.counts,
                    d.ingested,
                    d.rng_state,
                    d.rng_draws,
                )
                .map(|mut shard| {
                    shard.set_repl_watermarks(d.repl);
                    Mutex::new(shard)
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let session = Self::assemble(id, schema, mechanism, seed, max_dense_domain, shards)?;
        session.pending_full_snapshot.store(true, Ordering::SeqCst);
        session.record_durable_repl(&recovered_marks);
        Ok(session)
    }

    /// The shared tail of [`Self::new`] and [`Self::recover`]: builds
    /// the per-session sampler state around an existing shard set.
    fn assemble(
        id: u64,
        schema: Schema,
        mechanism: Mechanism,
        seed: u64,
        max_dense_domain: usize,
        shards: Vec<Mutex<Shard>>,
    ) -> Result<Self> {
        let gd = GammaDiagonal::new(&schema, mechanism.gamma())?;
        let closed_form = GammaDiagonalReconstructor::new(&gd);
        let perturber: Arc<dyn Perturber> = match mechanism {
            Mechanism::Deterministic { .. } => Arc::new(gd),
            Mechanism::Randomized {
                gamma,
                alpha_fraction,
            } => Arc::new(RandomizedGammaDiagonal::with_alpha_fraction(
                &schema,
                gamma,
                alpha_fraction,
            )?),
        };
        Ok(CollectionSession {
            id,
            schema,
            mechanism,
            seed,
            perturber,
            closed_form,
            shards,
            next_shard: AtomicUsize::new(0),
            lu_cache: OnceLock::new(),
            max_dense_domain,
            last_touched: AtomicU64::new(0),
            metrics: SessionMetrics::new(),
            retired: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            persist_gate: Mutex::new(()),
            durable_repl: Mutex::new(HashMap::new()),
            persist_seq: AtomicU64::new(0),
            pending_full_snapshot: AtomicBool::new(false),
        })
    }

    /// The sequence number of the last full snapshot written for this
    /// session (`0` = none yet). See [`crate::persist`].
    pub fn persist_seq(&self) -> u64 {
        self.persist_seq.load(Ordering::SeqCst)
    }

    /// Records that a full snapshot with sequence `seq` was committed
    /// (or recovered from disk).
    pub(crate) fn set_persist_seq(&self, seq: u64) {
        self.persist_seq.fetch_max(seq, Ordering::SeqCst);
    }

    /// Whether the next persistence flush must be a full snapshot
    /// (true for recovered sessions until their first successful full
    /// save re-establishes a clean base + delta file).
    pub fn needs_full_snapshot(&self) -> bool {
        self.pending_full_snapshot.load(Ordering::SeqCst)
    }

    /// Clears the full-snapshot requirement after a successful full
    /// save.
    pub(crate) fn clear_needs_full_snapshot(&self) {
        self.pending_full_snapshot.store(false, Ordering::SeqCst);
    }

    /// Forces the next persistence flush to be a full snapshot. Used
    /// when a save failed *after* its rename published a new base: the
    /// session's sequence is now behind the file on disk, so a delta
    /// append would carry a stale sequence the next recovery ignores.
    pub(crate) fn force_full_snapshot(&self) {
        self.pending_full_snapshot.store(true, Ordering::SeqCst);
    }

    /// The session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The schema records must conform to.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The perturbation mechanism.
    pub fn mechanism(&self) -> Mechanism {
        self.mechanism
    }

    /// The session's base RNG seed (shard `i` derives its stream via
    /// [`crate::shard::shard_seed`]).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of ingest shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Live metrics counters.
    pub fn metrics(&self) -> &SessionMetrics {
        &self.metrics
    }

    /// A point-in-time metrics report.
    pub fn metrics_report(&self) -> MetricsReport {
        self.metrics.report()
    }

    /// Marks the session as touched at logical time `seq` (called by
    /// the registry on every lookup).
    pub(crate) fn touch(&self, seq: u64) {
        self.last_touched.fetch_max(seq, Ordering::Relaxed);
    }

    /// The registry-clock value of the most recent touch.
    pub fn last_touched(&self) -> u64 {
        self.last_touched.load(Ordering::Relaxed)
    }

    /// Marks the session retired (evicted or closed): ingest refuses
    /// from here on. Called by the registry *before* the eviction spill
    /// snapshots the shards, so every record a client ever saw
    /// acknowledged is in the spill: an in-flight submit either locked
    /// its shard before the flag was set (the spill's dump then waits
    /// on that lock and captures the batch) or observes the flag under
    /// the lock and errors without acking.
    pub(crate) fn retire(&self) {
        self.retired.store(true, Ordering::SeqCst);
    }

    /// Whether the session has been evicted or closed.
    pub fn is_retired(&self) -> bool {
        self.retired.load(Ordering::SeqCst)
    }

    /// Reverses [`Self::retire`] when an eviction is rolled back (its
    /// spill could not be written). No-op for closed sessions — close
    /// is final.
    pub(crate) fn unretire(&self) {
        if !self.is_closed() {
            self.retired.store(false, Ordering::SeqCst);
        }
    }

    /// Marks the session explicitly closed: retired, *and* snapshots
    /// are forbidden so a racing periodic save cannot resurrect it.
    pub(crate) fn mark_closed(&self) {
        self.retire();
        self.closed.store(true, Ordering::SeqCst);
    }

    /// Whether the session was explicitly closed.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// The lock serializing snapshot writes (and close-time snapshot
    /// removal) for this session. Poisoning is recovered: the guarded
    /// state lives on disk behind atomic renames, not in memory.
    pub(crate) fn persist_gate(&self) -> crate::order::Tracked<MutexGuard<'_, ()>> {
        crate::order::track(
            crate::order::RANK_PERSIST_GATE,
            "session::persist_gate",
            self.persist_gate
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }

    /// A one-line summary for `list_sessions`.
    pub fn summary(&self) -> SessionSummary {
        SessionSummary {
            id: self.id,
            domain_size: self.schema.domain_size(),
            shards: self.shards.len(),
            gamma: self.mechanism.gamma(),
            total: self.stats().total,
            // A single counter read — `list_sessions` summarises every
            // live session, so building the full histogram report here
            // would cost O(sessions × buckets) per listing.
            reconstructions: self.metrics.reconstructions(),
        }
    }

    /// Locks shard `index`, recovering from a poisoned mutex.
    ///
    /// Shard state is per-record consistent — every ingest either
    /// counts a record completely or not at all before any panic can
    /// propagate — so a panic that poisoned the lock left the counts
    /// valid (exactly as if the batch had been cut short, which is the
    /// documented partial-batch contract). Propagating the poison
    /// instead would permanently brick the session: every later ingest,
    /// snapshot or stats call would panic on `.lock().expect(..)`.
    fn lock_shard(&self, index: usize) -> crate::order::Tracked<MutexGuard<'_, Shard>> {
        crate::order::track(
            crate::order::RANK_SHARDS,
            "session::shards",
            // analyze: allow(panic_path): every caller bounds-checks index against the fixed shard count
            self.shards[index]
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }

    /// [`Self::ingest`] of owned rows in rotation; returns the shard
    /// index used.
    pub fn submit_batch(&self, records: &[Vec<u32>], pre_perturbed: bool) -> Result<usize> {
        self.ingest(Placement::RoundRobin, records, pre_perturbed)
            .map(|ingested| ingested.shard)
    }

    /// Ingests a batch on the shard `placement` names: the one way
    /// records enter a session.
    ///
    /// `pre_perturbed` declares whether the records already went
    /// through the mechanism client-side (the paper's deployment
    /// model) or should be perturbed here with the shard's RNG.
    ///
    /// The whole batch is validated and encoded to domain indices
    /// *once, before the shard lock is taken*; under the lock the
    /// per-record work is two RNG draws and a counter increment (the
    /// index-domain fast path), with no allocation and no re-encode.
    ///
    /// If a record mid-batch fails validation, the records *before* it
    /// are counted (exactly as if the client had sent them in a smaller
    /// batch) and the error is a [`ServiceError::PartialBatch`]
    /// reporting how many were accepted, so a retrying client resubmits
    /// only the remainder. Clients that need all-or-nothing batches
    /// should validate against the schema before submitting.
    pub fn ingest<R: AsRef<[u32]>>(
        &self,
        placement: Placement,
        records: impl IntoIterator<Item = R>,
        pre_perturbed: bool,
    ) -> Result<Ingested> {
        let started = Instant::now();
        let shard_index = match placement {
            Placement::RoundRobin => {
                self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len()
            }
            Placement::Shard(index) if index >= self.shards.len() => {
                return Err(ServiceError::InvalidRequest(format!(
                    "shard {index} out of range (session has {})",
                    self.shards.len()
                )));
            }
            Placement::Shard(index) => index,
            // Deterministic rather than round-robin: a retried batch
            // must land on the shard whose watermark saw the original
            // delivery, otherwise dedup state and counts could disagree.
            Placement::Replicated { seq, .. } => (seq % self.shards.len() as u64) as usize,
        };
        // Validate + encode the batch up front, outside the shard lock:
        // validation is paid once per record here instead of twice
        // (perturber + encode) inside the lock, and an invalid record
        // truncates the batch to its valid prefix.
        let records = records.into_iter();
        let mut indices = Vec::with_capacity(records.size_hint().0);
        let mut failure: Option<ServiceError> = None;
        for record in records {
            match self.schema.encode(record.as_ref()) {
                Ok(idx) => indices.push(idx),
                Err(e) => {
                    failure = Some(e.into());
                    break;
                }
            }
        }
        let mut shard = self.lock_shard(shard_index);
        // Checked under the shard lock: a retired (evicted/closed)
        // session must never acknowledge new records, because the
        // eviction spill has already snapshotted — or is about to
        // snapshot — the shards, and an ack after the snapshot would be
        // silent data loss on the next recovery.
        if self.is_retired() {
            return Err(ServiceError::UnknownSession(self.id));
        }
        if let Placement::Replicated { origin, seq } = placement {
            // Claimed under the same lock the ingest holds, so the
            // watermark can never say "applied" for counts that are not
            // there (or vice versa) — including across a crash, because
            // persistence dumps both under this lock too.
            if !shard.repl_claim(origin, seq) {
                return Ok(Ingested {
                    shard: shard_index,
                    fresh: false,
                });
            }
        }
        if pre_perturbed {
            shard.ingest_perturbed_indices(&indices);
        } else {
            shard.ingest_raw_indices(&mut indices, self.perturber.as_ref());
        }
        drop(shard);
        let accepted = indices.len() as u64;
        self.metrics.record_ingest(accepted, started.elapsed());
        match failure {
            Some(source) => Err(ServiceError::PartialBatch {
                accepted,
                source: Box::new(source),
            }),
            None => Ok(Ingested {
                shard: shard_index,
                fresh: true,
            }),
        }
    }

    /// Per-shard replication watermarks for `origin`: entry `s` is the
    /// highest forwarded seq shard `s` has applied from that node (0 =
    /// none). A reconnecting forwarder resends exactly the batches with
    /// `seq > marks[seq % num_shards]`.
    pub fn repl_status(&self, origin: u64) -> Vec<u64> {
        (0..self.shards.len())
            .map(|index| {
                self.lock_shard(index)
                    .repl_watermarks()
                    .get(&origin)
                    .copied()
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Per-shard *durable* replication watermarks for `origin`: like
    /// [`Self::repl_status`], but counting only marks that reached a
    /// persisted snapshot or delta (all-zero for sessions that have
    /// never been persisted). A forwarder may forget replay batches at
    /// or below these — they survive even a crash of this node.
    pub fn durable_repl_status(&self, origin: u64) -> Vec<u64> {
        self.lock_durable_repl()
            .get(&origin)
            .cloned()
            .unwrap_or_else(|| vec![0; self.shards.len()])
    }

    /// Folds freshly persisted per-shard replication marks into the
    /// durable watermarks. `shard_marks[s]` lists the `(origin, seq)`
    /// pairs just written for shard `s`; marks only ever advance, so a
    /// slow full save racing a newer delta cannot regress them.
    pub(crate) fn record_durable_repl(&self, shard_marks: &[Vec<(u64, u64)>]) {
        let mut durable = self.lock_durable_repl();
        for (index, marks) in shard_marks.iter().enumerate().take(self.shards.len()) {
            for &(origin, seq) in marks {
                let slots = durable
                    .entry(origin)
                    .or_insert_with(|| vec![0; self.shards.len()]);
                if let Some(slot) = slots.get_mut(index) {
                    *slot = (*slot).max(seq);
                }
            }
        }
    }

    fn lock_durable_repl(&self) -> crate::order::Tracked<MutexGuard<'_, HashMap<u64, Vec<u64>>>> {
        crate::order::track(
            crate::order::RANK_DURABLE,
            "session::durable_repl",
            self.durable_repl
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }

    /// Merges all shard counts into one snapshot accumulator.
    pub fn snapshot(&self) -> CountAccumulator {
        let mut acc = CountAccumulator::new(self.schema.clone());
        for index in 0..self.shards.len() {
            self.lock_shard(index)
                .merge_into(&mut acc)
                // analyze: allow(panic_path): all shards are built from self.schema in the constructor
                .expect("shards share the session schema");
        }
        acc
    }

    /// Dumps every shard's persisted state (counts, ingested count, RNG
    /// position and native state words) for snapshotting. Pending
    /// per-shard deltas are left untouched.
    pub fn dump_shards(&self) -> Vec<ShardDump> {
        (0..self.shards.len())
            .map(|index| {
                let shard = self.lock_shard(index);
                ShardDump {
                    ingested: shard.ingested(),
                    rng_draws: shard.rng_draws(),
                    rng_state: shard.rng_state(),
                    counts: shard.counts().to_vec(),
                    repl: shard
                        .repl_watermarks()
                        .iter()
                        .map(|(&o, &s)| (o, s))
                        .collect(),
                }
            })
            .collect()
    }

    /// Dumps every shard for a *full* snapshot, atomically draining
    /// each shard's pending delta under its lock (the full dump
    /// includes those increments, so they must not be re-flushed as
    /// deltas on top of the new base) and enabling delta tracking
    /// relative to the dumped state. If the snapshot write then fails,
    /// the caller must hand the drained deltas back via
    /// [`Self::restore_deltas`] so the delta stream over the previous
    /// base stays complete.
    pub fn dump_shards_flushing(&self) -> (Vec<ShardDump>, Vec<ShardDelta>) {
        let mut dumps = Vec::with_capacity(self.shards.len());
        let mut drained = Vec::new();
        for index in 0..self.shards.len() {
            let mut shard = self.lock_shard(index);
            dumps.push(ShardDump {
                ingested: shard.ingested(),
                rng_draws: shard.rng_draws(),
                rng_state: shard.rng_state(),
                counts: shard.counts().to_vec(),
                repl: shard
                    .repl_watermarks()
                    .iter()
                    .map(|(&o, &s)| (o, s))
                    .collect(),
            });
            if let Some(delta) = shard.take_delta(index) {
                drained.push(delta);
            }
            // The dumped state is the base all later deltas are
            // relative to; tracking starts (or restarts, zeroed) here.
            shard.enable_delta_tracking();
        }
        (dumps, drained)
    }

    /// Drains the pending delta of every dirty shard (for an
    /// incremental persistence flush). Shards touched since their last
    /// flush each contribute one [`ShardDelta`]; clean shards
    /// contribute nothing. On a failed write, hand the result back via
    /// [`Self::restore_deltas`].
    pub fn take_dirty_deltas(&self) -> Vec<ShardDelta> {
        (0..self.shards.len())
            .filter_map(|index| self.lock_shard(index).take_delta(index))
            .collect()
    }

    /// Returns drained deltas to their shards after a failed flush
    /// write, so the increments are captured again by the next flush.
    pub fn restore_deltas(&self, deltas: &[ShardDelta]) {
        for delta in deltas {
            self.lock_shard(delta.shard).restore_delta(&delta.cells);
        }
    }

    /// Ingest statistics.
    pub fn stats(&self) -> SessionStats {
        let per_shard: Vec<u64> = (0..self.shards.len())
            .map(|index| self.lock_shard(index).ingested())
            .collect();
        SessionStats {
            total: per_shard.iter().sum(),
            per_shard,
        }
    }

    /// The cached dense LU handle, building it on first use — refused
    /// on domains past the configured dense-LU limit.
    fn cached_lu(&self) -> Result<(Arc<LuDecomposition>, bool)> {
        let hit = self.lu_cache.get().is_some();
        if !hit && self.schema.domain_size() > self.max_dense_domain {
            return Err(ServiceError::InvalidRequest(format!(
                "domain size {} exceeds the dense-LU limit {}; use method `closed`",
                self.schema.domain_size(),
                self.max_dense_domain
            )));
        }
        let lu = self.lu_cache.get_or_init(|| {
            let dense = GammaDiagonal::new(&self.schema, self.mechanism.gamma())
                // analyze: allow(panic_path): the same construction succeeded in Self::assemble
                .expect("validated at session construction")
                .as_uniform_diagonal()
                .to_dense();
            // analyze: allow(panic_path): gamma-diagonal matrices are diagonally dominant, hence invertible
            Arc::new(LuDecomposition::new(&dense).expect("gamma-diagonal matrices are invertible"))
        });
        Ok((Arc::clone(lu), hit))
    }

    /// Answers a reconstruction query from a snapshot of the current
    /// counts. `clamp` applies [`clamp_counts`] (non-negativity +
    /// rescale to `N`) to the estimates.
    pub fn reconstruct(&self, method: ReconstructionMethod, clamp: bool) -> Result<Reconstruction> {
        self.reconstruct_counts(self.snapshot(), method, clamp)
    }

    /// Answers a reconstruction query over an explicitly supplied
    /// perturbed-count snapshot — the federation coordinator's path: it
    /// merges the owners' disjoint partitions into one accumulator and
    /// solves *once* here, reusing this session's cached LU
    /// factorization instead of solving per peer. The snapshot must be
    /// over this session's schema.
    pub fn reconstruct_counts(
        &self,
        snapshot: CountAccumulator,
        method: ReconstructionMethod,
        clamp: bool,
    ) -> Result<Reconstruction> {
        if snapshot.schema() != &self.schema {
            return Err(ServiceError::InvalidRequest(
                "count snapshot schema does not match the session schema".into(),
            ));
        }
        let started = Instant::now();
        let n = snapshot.n();
        let counts = snapshot.into_counts();
        let (mut estimates, lu_cache_hit) = match method {
            ReconstructionMethod::ClosedForm => (self.closed_form.reconstruct(&counts), false),
            ReconstructionMethod::CachedLu => {
                let (lu, hit) = self.cached_lu()?;
                (lu.solve_system(&counts)?, hit)
            }
        };
        if clamp {
            clamp_counts(&mut estimates, n as f64);
        }
        self.metrics.record_reconstruction(started.elapsed());
        Ok(Reconstruction {
            n,
            estimates,
            method,
            lu_cache_hit,
        })
    }
}

/// The result of [`SessionRegistry::create`]: the new session, plus any
/// sessions the LRU policy evicted to make room for it (the caller —
/// typically the server — decides whether to persist them before the
/// last `Arc` drops).
#[derive(Debug)]
pub struct Created {
    /// The newly registered session.
    pub session: Arc<CollectionSession>,
    /// Least-recently-used sessions evicted to stay under the cap,
    /// oldest first. Empty while the registry is under capacity.
    pub evicted: Vec<Arc<CollectionSession>>,
}

/// The server's table of live sessions, bounded by an LRU cap.
///
/// Every lookup stamps the session with a registry-wide logical clock;
/// when `create` would exceed `max_sessions`, the sessions with the
/// oldest stamps are evicted (and handed back to the caller, so a
/// persistence layer can spill them to disk before they drop).
#[derive(Debug)]
pub struct SessionRegistry {
    next_id: AtomicU64,
    clock: AtomicU64,
    max_sessions: usize,
    sessions: RwLock<HashMap<u64, Arc<CollectionSession>>>,
    /// Weak handles to recently evicted sessions. Stale `Arc`s to an
    /// evicted session can outlive its registry entry (e.g. the
    /// periodic persister iterating a snapshot of `all()`), and such a
    /// holder could still write the session's snapshot; `remove` looks
    /// here when the live table misses, so a close can mark the
    /// evicted session closed and no stale writer can resurrect it.
    /// Entries whose sessions have fully dropped are pruned on insert.
    graveyard: Mutex<HashMap<u64, std::sync::Weak<CollectionSession>>>,
}

impl Default for SessionRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionRegistry {
    /// An empty registry with no practical session cap.
    pub fn new() -> Self {
        Self::with_max_sessions(usize::MAX)
    }

    /// An empty registry that holds at most `max_sessions` live
    /// sessions (floored at 1), evicting least-recently-used sessions
    /// beyond that.
    pub fn with_max_sessions(max_sessions: usize) -> Self {
        SessionRegistry {
            next_id: AtomicU64::new(1),
            clock: AtomicU64::new(0),
            max_sessions: max_sessions.max(1),
            sessions: RwLock::new(HashMap::new()),
            graveyard: Mutex::new(HashMap::new()),
        }
    }

    /// Poison recovery as for the session map: the graveyard is a plain
    /// map of weak handles with no cross-entry invariants.
    fn lock_graveyard(
        &self,
    ) -> crate::order::Tracked<MutexGuard<'_, HashMap<u64, std::sync::Weak<CollectionSession>>>>
    {
        crate::order::track(
            crate::order::RANK_GRAVEYARD,
            "session::graveyard",
            self.graveyard
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }

    /// The registry's LRU capacity.
    pub fn max_sessions(&self) -> usize {
        self.max_sessions
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.read_map().len()
    }

    /// Whether the registry holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registry locks guard a plain `HashMap` whose insert/remove never
    /// leave it observable mid-operation, so a poisoned lock (a panic
    /// on some other connection thread) carries no integrity risk and
    /// is recovered rather than propagated.
    fn read_map(
        &self,
    ) -> crate::order::Tracked<std::sync::RwLockReadGuard<'_, HashMap<u64, Arc<CollectionSession>>>>
    {
        crate::order::track(
            crate::order::RANK_SESSIONS,
            "session::sessions",
            self.sessions
                .read()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }

    fn write_map(
        &self,
    ) -> crate::order::Tracked<std::sync::RwLockWriteGuard<'_, HashMap<u64, Arc<CollectionSession>>>>
    {
        crate::order::track(
            crate::order::RANK_SESSIONS,
            "session::sessions",
            self.sessions
                .write()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Creates and registers a session, evicting least-recently-used
    /// sessions if the registry is at capacity. Evicted sessions are
    /// removed from the registry immediately; callers that need to
    /// spill them to disk first should use [`Self::create_deferred`],
    /// whose victims stay registered (so concurrent `close` requests
    /// can still find them) until the spill commits.
    pub fn create(
        &self,
        schema: Schema,
        mechanism: Mechanism,
        num_shards: usize,
        seed: u64,
        max_dense_domain: usize,
    ) -> Result<Created> {
        let created =
            self.create_deferred(schema, mechanism, num_shards, seed, max_dense_domain)?;
        for victim in &created.evicted {
            self.commit_eviction(victim.id());
        }
        Ok(created)
    }

    /// Like [`Self::create`], but eviction is two-phase: victims are
    /// *retired* (ingest refuses, so nothing can be acknowledged after
    /// a spill snapshot) yet stay registered until the caller settles
    /// each one with [`Self::commit_eviction`] (spill done — drop it)
    /// or [`Self::abort_eviction`] (spill failed — keep it live).
    /// Keeping victims visible means a concurrent `close_session` still
    /// finds the session and marks it closed, which an in-flight spill
    /// observes under the persist gate — no snapshot can resurrect a
    /// session whose close was acknowledged.
    pub fn create_deferred(
        &self,
        schema: Schema,
        mechanism: Mechanism,
        num_shards: usize,
        seed: u64,
        max_dense_domain: usize,
    ) -> Result<Created> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.create_deferred_with_id(id, schema, mechanism, num_shards, seed, max_dense_domain)
    }

    /// [`Self::create_deferred`] with a caller-chosen session id — the
    /// federation path, where ids must be cluster-unique and identical
    /// on every owner node, so the coordinator allocates from its
    /// residue class and replicates the id explicitly. Fails if the id
    /// is already live; later auto-allocated ids are bumped past it.
    pub fn create_deferred_with_id(
        &self,
        id: u64,
        schema: Schema,
        mechanism: Mechanism,
        num_shards: usize,
        seed: u64,
        max_dense_domain: usize,
    ) -> Result<Created> {
        self.next_id
            .fetch_max(id.saturating_add(1), Ordering::Relaxed);
        let session = Arc::new(CollectionSession::new(
            id,
            schema,
            mechanism,
            num_shards,
            seed,
            max_dense_domain,
        )?);
        session.touch(self.tick());
        let mut map = self.write_map();
        if map.contains_key(&id) {
            return Err(ServiceError::InvalidRequest(format!(
                "session {id} already exists"
            )));
        }
        let mut evicted = Vec::new();
        // Retired sessions are evictions already in flight (another
        // create's spill); count only settled sessions against the cap
        // and never pick a victim twice.
        let mut live = map.values().filter(|s| !s.is_retired()).count();
        while live >= self.max_sessions {
            let lru = map
                .values()
                .filter(|s| !s.is_retired())
                .min_by_key(|s| (s.last_touched(), s.id()))
                .cloned();
            match lru {
                Some(victim) => {
                    victim.retire();
                    live -= 1;
                    evicted.push(victim);
                }
                None => break,
            }
        }
        map.insert(id, Arc::clone(&session));
        Ok(Created { session, evicted })
    }

    /// Settles a deferred eviction after its spill (or its intentional
    /// discard): drops the session from the registry without marking it
    /// closed, leaving a weak graveyard handle so a later `remove` can
    /// still close it while stale `Arc`s (a persister mid-iteration)
    /// could write its snapshot. Returns whether it was still
    /// registered.
    pub fn commit_eviction(&self, id: u64) -> bool {
        // The graveyard entry is published while the live-map write
        // lock is still held (the same lock `remove` takes first), so
        // there is no instant at which a concurrent close finds the
        // session in neither table — that gap would let a stale
        // persister Arc write a snapshot the close could never veto.
        let mut map = self.write_map();
        let Some(session) = map.get(&id).cloned() else {
            return false;
        };
        {
            let mut graveyard = self.lock_graveyard();
            graveyard.retain(|_, weak| weak.strong_count() > 0);
            graveyard.insert(id, Arc::downgrade(&session));
        }
        map.remove(&id);
        true
    }

    /// Rolls back a deferred eviction whose spill failed: the session
    /// is un-retired and serves again (it never left the registry). A
    /// session closed in the meantime stays closed.
    pub fn abort_eviction(&self, session: &Arc<CollectionSession>) {
        session.unretire();
        session.touch(self.tick());
    }

    /// Ensures freshly created sessions get ids strictly greater than
    /// `id`. `Server::bind` calls this for every snapshot file observed
    /// on disk — including ones it does *not* recover (cap-drained
    /// spills, unreadable files) — so a new session can never collide
    /// with an on-disk id and overwrite (or mis-delete) another
    /// session's snapshot.
    pub fn reserve_ids_through(&self, id: u64) {
        self.next_id
            .fetch_max(id.saturating_add(1), Ordering::Relaxed);
    }

    /// Re-registers a session recovered from a snapshot, preserving its
    /// id. Returns `false` (without inserting) if the registry is
    /// already at capacity or the id is taken.
    pub fn insert_recovered(&self, session: Arc<CollectionSession>) -> bool {
        let id = session.id();
        self.next_id.fetch_max(id + 1, Ordering::Relaxed);
        session.touch(self.tick());
        let mut map = self.write_map();
        if map.len() >= self.max_sessions || map.contains_key(&id) {
            return false;
        }
        map.insert(id, session);
        true
    }

    /// Looks up a session by id, stamping it as recently used.
    pub fn get(&self, id: u64) -> Result<Arc<CollectionSession>> {
        let session = self
            .read_map()
            .get(&id)
            .cloned()
            .ok_or(ServiceError::UnknownSession(id))?;
        session.touch(self.tick());
        Ok(session)
    }

    /// Removes a session, marking it closed (retired + snapshots
    /// forbidden) and returning it if it existed — so the caller can
    /// finish lifecycle work like deleting its snapshot file.
    ///
    /// A session recently evicted from the live table is resolved
    /// through the graveyard: if any stale `Arc` is still alive
    /// (capable of writing a snapshot), the close marks it closed so
    /// that writer refuses, and the handle is returned like a live
    /// removal.
    pub fn remove(&self, id: u64) -> Option<Arc<CollectionSession>> {
        let removed = self.write_map().remove(&id);
        if let Some(session) = &removed {
            session.mark_closed();
            return removed;
        }
        let stale = self.lock_graveyard().remove(&id)?.upgrade();
        if let Some(session) = &stale {
            session.mark_closed();
        }
        stale
    }

    /// Ids of all live sessions, ascending.
    pub fn ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.read_map().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// All live sessions, ascending by id.
    pub fn all(&self) -> Vec<Arc<CollectionSession>> {
        let mut sessions: Vec<_> = self.read_map().values().cloned().collect();
        sessions.sort_unstable_by_key(|s| s.id());
        sessions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![("a", 3), ("b", 2)]).unwrap()
    }

    fn session(shards: usize) -> CollectionSession {
        CollectionSession::new(
            1,
            schema(),
            Mechanism::Deterministic { gamma: 19.0 },
            shards,
            7,
            4096,
        )
        .unwrap()
    }

    #[test]
    fn rejects_zero_shards_and_bad_gamma() {
        assert!(CollectionSession::new(
            1,
            schema(),
            Mechanism::Deterministic { gamma: 19.0 },
            0,
            7,
            4096
        )
        .is_err());
        assert!(CollectionSession::new(
            1,
            schema(),
            Mechanism::Deterministic { gamma: 0.5 },
            1,
            7,
            4096
        )
        .is_err());
    }

    #[test]
    fn every_placement_lands_on_the_shard_it_reports() {
        let s = session(3);
        let batch = [[1, 1], [2, 0]];
        let stamp = |seq| Placement::Replicated { origin: 7, seq };
        let mut expected = vec![0u64; 3];
        for (placement, shard) in [
            (Placement::RoundRobin, 0),
            (Placement::RoundRobin, 1),
            (Placement::RoundRobin, 2),
            (Placement::RoundRobin, 0),
            (Placement::Shard(2), 2),
            (stamp(1), 1),
            (stamp(5), 2),
        ] {
            let fresh = Ingested { shard, fresh: true };
            assert_eq!(s.ingest(placement, batch, true).unwrap(), fresh);
            expected[shard] += 2;
            assert_eq!(s.stats().per_shard, expected, "{placement:?}");
        }
        assert_eq!(s.repl_status(7), vec![0, 1, 5]);
        assert_eq!(s.repl_status(99), vec![0, 0, 0]);

        // A retry of an applied (origin, seq) is skipped and counts nothing.
        let skipped = Ingested {
            shard: 1,
            fresh: false,
        };
        assert_eq!(s.ingest(stamp(1), batch, true).unwrap(), skipped);
        assert_eq!(s.stats().per_shard, expected);

        let err = s.ingest(Placement::Shard(3), batch, true).unwrap_err();
        let text = "invalid request: shard 3 out of range (session has 3)";
        assert_eq!(err.to_string(), text);

        s.retire();
        for placement in [Placement::RoundRobin, Placement::Shard(0), stamp(9)] {
            let refused = s.ingest(placement, batch, true);
            assert!(matches!(refused, Err(ServiceError::UnknownSession(1))));
        }
        assert_eq!(s.stats().per_shard, expected);
    }

    #[test]
    fn pre_perturbed_counts_pass_through_exactly() {
        let s = session(2);
        s.ingest(Placement::Shard(0), [[1, 1], [1, 1]], true)
            .unwrap();
        s.ingest(Placement::Shard(1), [[2, 0]], true).unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.n(), 3);
        assert_eq!(snap.counts()[schema().encode(&[1, 1]).unwrap()], 2.0);
    }

    #[test]
    fn closed_and_cached_lu_reconstructions_agree() {
        let s = session(4);
        let records: Vec<Vec<u32>> = (0..3000)
            .map(|i| vec![i % 3, (i % 7 == 0) as u32])
            .collect();
        s.submit_batch(&records, false).unwrap();
        let closed = s
            .reconstruct(ReconstructionMethod::ClosedForm, false)
            .unwrap();
        let lu = s
            .reconstruct(ReconstructionMethod::CachedLu, false)
            .unwrap();
        assert_eq!(closed.n, 3000);
        for (a, b) in closed.estimates.iter().zip(&lu.estimates) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn lu_cache_is_hit_on_repeat_queries() {
        let s = session(1);
        s.submit_batch(&[vec![0, 0], vec![1, 1]], true).unwrap();
        let first = s
            .reconstruct(ReconstructionMethod::CachedLu, false)
            .unwrap();
        assert!(!first.lu_cache_hit);
        let second = s
            .reconstruct(ReconstructionMethod::CachedLu, false)
            .unwrap();
        assert!(second.lu_cache_hit);
    }

    #[test]
    fn dense_lu_refused_beyond_domain_limit() {
        let s = CollectionSession::new(
            1,
            schema(),
            Mechanism::Deterministic { gamma: 19.0 },
            1,
            7,
            4, // domain size is 6 > 4
        )
        .unwrap();
        assert!(s
            .reconstruct(ReconstructionMethod::CachedLu, false)
            .is_err());
        assert!(s
            .reconstruct(ReconstructionMethod::ClosedForm, false)
            .is_ok());
    }

    #[test]
    fn clamped_reconstruction_is_nonnegative_and_totals_n() {
        let s = session(2);
        let records: Vec<Vec<u32>> = (0..2000).map(|_| vec![0, 0]).collect();
        s.submit_batch(&records, false).unwrap();
        let rec = s
            .reconstruct(ReconstructionMethod::ClosedForm, true)
            .unwrap();
        assert!(rec.estimates.iter().all(|&e| e >= 0.0));
        assert!((rec.estimates.iter().sum::<f64>() - 2000.0).abs() < 1e-6);
    }

    #[test]
    fn randomized_mechanism_sessions_reconstruct_with_expected_matrix() {
        let s = CollectionSession::new(
            1,
            schema(),
            // alpha must stay below (n−1)x on this tiny 6-cell domain,
            // which caps the usable fraction at 5/19.
            Mechanism::Randomized {
                gamma: 19.0,
                alpha_fraction: 0.2,
            },
            2,
            9,
            4096,
        )
        .unwrap();
        let records: Vec<Vec<u32>> = (0..4000).map(|_| vec![2, 1]).collect();
        s.submit_batch(&records, false).unwrap();
        let rec = s
            .reconstruct(ReconstructionMethod::ClosedForm, true)
            .unwrap();
        let hot = schema().encode(&[2, 1]).unwrap();
        assert!(
            rec.estimates[hot] > 3000.0,
            "hot cell estimate {}",
            rec.estimates[hot]
        );
    }

    fn create_in(reg: &SessionRegistry, gamma: f64) -> Created {
        reg.create(schema(), Mechanism::Deterministic { gamma }, 1, 7, 4096)
            .unwrap()
    }

    #[test]
    fn registry_creates_gets_and_removes() {
        let reg = SessionRegistry::new();
        let a = reg
            .create(
                schema(),
                Mechanism::Deterministic { gamma: 19.0 },
                2,
                7,
                4096,
            )
            .unwrap()
            .session;
        let b = create_in(&reg, 9.0).session;
        assert_ne!(a.id(), b.id());
        assert_eq!(reg.ids(), vec![a.id(), b.id()]);
        assert_eq!(reg.get(a.id()).unwrap().num_shards(), 2);
        let removed = reg.remove(a.id()).expect("session was live");
        assert!(removed.is_closed() && removed.is_retired());
        assert!(reg.remove(a.id()).is_none());
        assert!(matches!(
            reg.get(a.id()),
            Err(ServiceError::UnknownSession(_))
        ));
    }

    #[test]
    fn registry_evicts_least_recently_used_at_capacity() {
        let reg = SessionRegistry::with_max_sessions(3);
        let s1 = create_in(&reg, 19.0).session;
        let s2 = create_in(&reg, 19.0).session;
        let s3 = create_in(&reg, 19.0).session;
        assert_eq!(reg.len(), 3);

        // Touch s1 so s2 becomes the LRU session.
        reg.get(s1.id()).unwrap();
        let created = create_in(&reg, 19.0);
        let s4 = created.session;
        assert_eq!(
            created.evicted.iter().map(|s| s.id()).collect::<Vec<_>>(),
            vec![s2.id()]
        );
        assert_eq!(reg.ids(), vec![s1.id(), s3.id(), s4.id()]);
        assert!(matches!(
            reg.get(s2.id()),
            Err(ServiceError::UnknownSession(_))
        ));

        // Without further touches, creation order is LRU order.
        let next = create_in(&reg, 19.0);
        assert_eq!(next.evicted[0].id(), s3.id());
    }

    #[test]
    fn retired_sessions_refuse_ingest_but_still_answer_queries() {
        let reg = SessionRegistry::with_max_sessions(1);
        let first = create_in(&reg, 19.0).session;
        first.submit_batch(&[vec![0, 0]], true).unwrap();
        // Evicting retires the session: a client still holding the Arc
        // (e.g. an in-flight submit) gets an error instead of an ack
        // that the eviction spill would have missed.
        let created = create_in(&reg, 19.0);
        assert_eq!(created.evicted[0].id(), first.id());
        assert!(first.is_retired());
        assert!(!first.is_closed());
        assert!(matches!(
            first.submit_batch(&[vec![1, 1]], true),
            Err(ServiceError::UnknownSession(_))
        ));
        // Reads still serve from the retired Arc.
        assert_eq!(first.stats().total, 1);
        assert!(first
            .reconstruct(ReconstructionMethod::ClosedForm, true)
            .is_ok());
    }

    #[test]
    fn deferred_eviction_keeps_victims_registered_until_settled() {
        let reg = SessionRegistry::with_max_sessions(1);
        let victim = create_in(&reg, 19.0).session;
        let created = reg
            .create_deferred(
                schema(),
                Mechanism::Deterministic { gamma: 19.0 },
                1,
                7,
                4096,
            )
            .unwrap();
        assert_eq!(created.evicted[0].id(), victim.id());
        // Victim: retired (refuses ingest) but still registered, so a
        // concurrent close can find it and mark it closed.
        assert!(victim.is_retired());
        assert!(reg.get(victim.id()).is_ok());
        // Abort (spill failed): victim serves again.
        reg.abort_eviction(&created.evicted[0]);
        assert!(!victim.is_retired());
        victim.submit_batch(&[vec![0, 0]], true).unwrap();
        // Commit (spill landed): victim leaves the registry.
        victim.retire();
        assert!(reg.commit_eviction(victim.id()));
        assert!(!reg.commit_eviction(victim.id()));
        assert!(reg.get(victim.id()).is_err());

        // A victim closed mid-spill stays closed: abort does not revive.
        let created = reg
            .create_deferred(
                schema(),
                Mechanism::Deterministic { gamma: 19.0 },
                1,
                7,
                4096,
            )
            .unwrap();
        let closing = &created.evicted[0];
        let closed = reg.remove(closing.id()).unwrap();
        reg.abort_eviction(closing);
        assert!(closed.is_closed() && closed.is_retired());
    }

    #[test]
    fn reserved_ids_are_never_reallocated() {
        // `Server::bind` reserves the ids of snapshots it does not
        // recover; new sessions must not collide with them (a collision
        // would overwrite the on-disk snapshot of a different session).
        let reg = SessionRegistry::new();
        reg.reserve_ids_through(5);
        assert_eq!(create_in(&reg, 19.0).session.id(), 6);
        // Reserving below the current counter is a no-op.
        reg.reserve_ids_through(2);
        assert_eq!(create_in(&reg, 19.0).session.id(), 7);
        // Saturates instead of wrapping to 0.
        reg.reserve_ids_through(u64::MAX);
    }

    #[test]
    fn closing_an_evicted_session_reaches_stale_arcs_via_the_graveyard() {
        // The persister can hold an Arc captured from `all()` before an
        // eviction; a close arriving after the eviction must still mark
        // the session closed so that stale holder's snapshot write
        // refuses instead of resurrecting an acknowledged close.
        let reg = SessionRegistry::with_max_sessions(1);
        let victim = create_in(&reg, 19.0).session; // stale Arc stand-in
        create_in(&reg, 19.0); // evicts + commits the victim
        assert!(reg.get(victim.id()).is_err(), "victim left the live table");
        assert!(!victim.is_closed());

        let closed = reg.remove(victim.id()).expect("graveyard hit");
        assert_eq!(closed.id(), victim.id());
        assert!(victim.is_closed(), "stale Arc observes the close");
        // Second close finds nothing (graveyard entry consumed).
        assert!(reg.remove(victim.id()).is_none());
    }

    #[test]
    fn registry_recovers_sessions_preserving_ids() {
        let reg = SessionRegistry::with_max_sessions(2);
        let recovered = Arc::new(
            CollectionSession::new(
                41,
                schema(),
                Mechanism::Deterministic { gamma: 19.0 },
                1,
                7,
                4096,
            )
            .unwrap(),
        );
        assert!(reg.insert_recovered(Arc::clone(&recovered)));
        // Duplicate ids are refused.
        assert!(!reg.insert_recovered(recovered));
        // New ids continue past the recovered one.
        let fresh = create_in(&reg, 19.0).session;
        assert_eq!(fresh.id(), 42);
        // At capacity, further recoveries are refused rather than
        // evicting live sessions.
        let extra = Arc::new(
            CollectionSession::new(
                99,
                schema(),
                Mechanism::Deterministic { gamma: 19.0 },
                1,
                7,
                4096,
            )
            .unwrap(),
        );
        assert!(!reg.insert_recovered(extra));
    }

    #[test]
    fn poisoned_shard_recovers_instead_of_bricking_the_session() {
        let s = Arc::new(session(2));
        s.ingest(Placement::Shard(0), [[0, 0], [1, 1]], true)
            .unwrap();
        // Panic on another thread while holding shard 0's lock,
        // poisoning the mutex.
        let poisoner = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let _guard = s.shards[0].lock().unwrap();
                panic!("deliberate poison");
            })
        };
        assert!(poisoner.join().is_err(), "the poisoner must panic");
        assert!(s.shards[0].lock().is_err(), "the mutex must be poisoned");

        // Every later operation still serves: ingest on the poisoned
        // shard, stats, snapshot and reconstruction.
        s.ingest(Placement::Shard(0), [[2, 0]], true).unwrap();
        let stats = s.stats();
        assert_eq!(stats.total, 3);
        assert_eq!(stats.per_shard, vec![3, 0]);
        assert_eq!(s.snapshot().n(), 3);
        assert!(s
            .reconstruct(ReconstructionMethod::ClosedForm, true)
            .is_ok());
    }

    #[test]
    fn partial_batch_failure_reports_accepted_prefix() {
        let s = session(1);
        // Third record is invalid: the two before it stay counted and
        // the error says so.
        let err = s
            .ingest(Placement::Shard(0), [[0, 0], [1, 1], [9, 9], [2, 0]], true)
            .unwrap_err();
        match err {
            ServiceError::PartialBatch { accepted, .. } => assert_eq!(accepted, 2),
            other => panic!("expected PartialBatch, got {other:?}"),
        }
        assert_eq!(s.stats().total, 2);
        // Retrying only the remainder (per the contract) lands exactly
        // the valid records once.
        s.ingest(Placement::Shard(0), [[2, 0]], true).unwrap();
        assert_eq!(s.stats().total, 3);
    }

    #[test]
    fn replicated_submits_dedup_and_survive_dump_recover() {
        let s = session(3);
        let batch = [vec![1, 1], vec![2, 0]];
        let stamp = |seq| Placement::Replicated { origin: 7, seq };
        assert!(s.ingest(stamp(1), &batch, true).unwrap().fresh);
        assert!(s.ingest(stamp(2), &batch, true).unwrap().fresh);

        // Watermarks ride through dump/recover, so a forwarder retry
        // after the peer restarts is still rejected.
        let recovered = CollectionSession::recover(
            s.id(),
            schema(),
            s.mechanism(),
            s.seed(),
            4096,
            s.dump_shards(),
        )
        .unwrap();
        assert!(!recovered.ingest(stamp(2), &batch, true).unwrap().fresh);
        assert!(recovered.ingest(stamp(5), &batch, true).unwrap().fresh);
        assert_eq!(recovered.stats().total, 6);
    }

    #[test]
    fn merged_partition_reconstruction_matches_single_session() {
        // Two "owner" sessions holding disjoint partitions of a stream
        // reconstruct — after a coordinator-side merge — to exactly the
        // single-session estimates: the federated solve-once path.
        let whole = session(2);
        let left = session(2);
        let right = session(2);
        let records: Vec<Vec<u32>> = (0..1000).map(|i| vec![i % 3, i % 2]).collect();
        for (i, r) in records.iter().enumerate() {
            whole.submit_batch(std::slice::from_ref(r), true).unwrap();
            let owner = if i % 2 == 0 { &left } else { &right };
            owner.submit_batch(std::slice::from_ref(r), true).unwrap();
        }
        let mut merged = left.snapshot();
        merged.merge_checked(&right.snapshot()).unwrap();
        let fed = whole
            .reconstruct_counts(merged, ReconstructionMethod::CachedLu, false)
            .unwrap();
        let single = whole
            .reconstruct(ReconstructionMethod::CachedLu, false)
            .unwrap();
        assert_eq!(fed.n, 1000);
        assert_eq!(fed.estimates, single.estimates, "bitwise identical");

        // Schema mismatch is refused.
        let alien = CountAccumulator::new(Schema::new(vec![("z", 4)]).unwrap());
        assert!(whole
            .reconstruct_counts(alien, ReconstructionMethod::ClosedForm, false)
            .is_err());
    }

    #[test]
    fn explicit_id_creation_reserves_and_refuses_duplicates() {
        let reg = SessionRegistry::new();
        let fed = reg
            .create_deferred_with_id(
                42,
                schema(),
                Mechanism::Deterministic { gamma: 19.0 },
                1,
                7,
                4096,
            )
            .unwrap()
            .session;
        assert_eq!(fed.id(), 42);
        assert!(reg
            .create_deferred_with_id(
                42,
                schema(),
                Mechanism::Deterministic { gamma: 19.0 },
                1,
                7,
                4096,
            )
            .is_err());
        // Auto-allocated ids continue past the explicit one.
        assert_eq!(create_in(&reg, 19.0).session.id(), 43);
    }

    #[test]
    fn metrics_track_ingest_and_reconstructions() {
        let s = session(2);
        s.submit_batch(&[vec![0, 0], vec![1, 1]], true).unwrap();
        s.submit_batch(&[vec![2, 0]], true).unwrap();
        s.reconstruct(ReconstructionMethod::ClosedForm, true)
            .unwrap();
        s.reconstruct(ReconstructionMethod::ClosedForm, false)
            .unwrap();
        let report = s.metrics_report();
        assert_eq!(report.records_ingested, 3);
        assert_eq!(report.batches, 2);
        assert_eq!(report.reconstructions, 2);
        assert_eq!(report.query_latency.count, 2);
        let summary = s.summary();
        assert_eq!(summary.total, 3);
        assert_eq!(summary.reconstructions, 2);
        assert_eq!(summary.domain_size, 6);
    }

    #[test]
    fn dump_and_recover_roundtrip_preserves_counts_and_replay() {
        let original = session(2);
        let raw: Vec<Vec<u32>> = (0..500).map(|i| vec![i % 3, i % 2]).collect();
        original.ingest(Placement::Shard(0), &raw, false).unwrap();
        original.ingest(Placement::Shard(1), &raw, false).unwrap();

        let recovered = CollectionSession::recover(
            original.id(),
            schema(),
            original.mechanism(),
            original.seed(),
            4096,
            original.dump_shards(),
        )
        .unwrap();
        assert_eq!(recovered.snapshot().counts(), original.snapshot().counts());

        // Continued raw ingest matches an uninterrupted session.
        let more: Vec<Vec<u32>> = (0..300).map(|i| vec![(i + 2) % 3, i % 2]).collect();
        original.ingest(Placement::Shard(0), &more, false).unwrap();
        recovered.ingest(Placement::Shard(0), &more, false).unwrap();
        assert_eq!(recovered.snapshot().counts(), original.snapshot().counts());
        let a = original
            .reconstruct(ReconstructionMethod::ClosedForm, false)
            .unwrap();
        let b = recovered
            .reconstruct(ReconstructionMethod::ClosedForm, false)
            .unwrap();
        assert_eq!(a.estimates, b.estimates);
    }

    #[test]
    fn wire_method_names_roundtrip() {
        for m in [
            ReconstructionMethod::ClosedForm,
            ReconstructionMethod::CachedLu,
        ] {
            assert_eq!(ReconstructionMethod::from_wire(m.wire_name()).unwrap(), m);
        }
        for gone in ["qr", "fresh_lu"] {
            assert_eq!(
                ReconstructionMethod::from_wire(gone)
                    .unwrap_err()
                    .to_string(),
                format!(
                    "invalid request: unknown reconstruction method `{gone}` \
                     (expected closed|cached_lu)"
                )
            );
        }
    }
}
