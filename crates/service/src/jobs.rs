//! The background-job subsystem: a fixed worker pool that runs
//! expensive mining ops off the transport threads.
//!
//! The paper's headline workloads — association-rule mining and
//! classification over a session's reconstructed distribution — take
//! seconds to minutes at low support thresholds, far beyond what a
//! reactor event loop or offload worker may block on. The `mine_rules`
//! and `classify` ops therefore return immediately with a job id; the
//! [`JobManager`]'s own workers execute the mining run, polling a
//! cooperative cancellation token between Apriori levels / FP-growth
//! recursion steps (see `frapp_mining::hook`). Clients follow up with
//! `job_status` / `job_result` / `job_cancel` / `list_jobs`.
//!
//! Lifecycle: `queued → running → done | failed | cancelled` (a queued
//! job cancels directly to `cancelled`). States never regress; finished
//! jobs are retained for `job_result_ttl_secs` and then purged, after
//! which their ids answer `unknown job`.

use crate::error::{Result, ServiceError};
use crate::fault::{FaultPlan, FaultSite};
use crate::json::{object, Value};
use crate::metrics::TransportMetrics;
use crate::pool::WorkerPool;
use crate::session::{CollectionSession, ReconstructionMethod};
use crate::wire::Counter;
use frapp_core::schema::Schema;
use frapp_mining::apriori::AprioriParams;
use frapp_mining::estimators::GammaDiagonalSupport;
use frapp_mining::hook::MineHook;
use frapp_mining::rules::{generate_rules, Rule};
use frapp_mining::{apriori_with_hook, bayes_classify, fp_growth_from_counts, FrequentItemsets};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A job's lifecycle state. Transitions only move rightward through
/// `queued → running → {done, failed, cancelled}`; `queued →
/// cancelled` is the one shortcut (cancelled before a worker picked it
/// up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished successfully; the result is retained until TTL expiry.
    Done,
    /// Finished with an error (retained, with the message, until TTL
    /// expiry).
    Failed,
    /// Cancelled — either while queued, or cooperatively mid-run.
    Cancelled,
}

impl JobState {
    /// The wire name (`docs/PROTOCOL.md` "Job states" table).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// True for the three states a job can never leave.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// Which miner a `mine_rules` job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MineAlgo {
    /// Level-wise Apriori with per-candidate Equation-28 support
    /// reconstruction over the *perturbed* counts — the paper pipeline.
    #[default]
    Apriori,
    /// FP-growth over the clamped closed-form reconstruction, rounded
    /// to integer cell weights.
    FpGrowth,
}

impl MineAlgo {
    /// Parses the wire name (`apriori` / `fpgrowth`).
    pub fn from_wire(name: &str) -> Result<Self> {
        match name {
            "apriori" => Ok(MineAlgo::Apriori),
            "fpgrowth" => Ok(MineAlgo::FpGrowth),
            other => Err(ServiceError::InvalidRequest(format!(
                "unknown mining algorithm `{other}` (expected apriori|fpgrowth)"
            ))),
        }
    }

    /// The wire name.
    pub fn wire_name(self) -> &'static str {
        match self {
            MineAlgo::Apriori => "apriori",
            MineAlgo::FpGrowth => "fpgrowth",
        }
    }
}

/// Parameters of a `mine_rules` job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MineSpec {
    /// Which miner to run.
    pub algo: MineAlgo,
    /// Minimum (reconstructed) support threshold.
    pub min_support: f64,
    /// Minimum rule confidence.
    pub min_confidence: f64,
    /// Longest itemset to mine (`0` = unbounded; Apriori only —
    /// FP-growth always mines exhaustively).
    pub max_length: usize,
}

impl Default for MineSpec {
    fn default() -> Self {
        MineSpec {
            algo: MineAlgo::Apriori,
            min_support: 0.02,
            min_confidence: 0.5,
            max_length: 0,
        }
    }
}

/// How a job finished, as reported by its work closure.
enum JobOutcome {
    Done(Value),
    Failed(String),
    Cancelled,
}

/// Mutable job state, guarded by one mutex per job.
#[derive(Debug)]
struct JobCore {
    state: JobState,
    result: Option<Value>,
    error: Option<String>,
    /// Wall-clock execution time, set when the job reaches a terminal
    /// state (0 for jobs cancelled while queued).
    wall_ms: f64,
    /// When the job reached a terminal state (drives TTL retention).
    finished: Option<Instant>,
}

/// One tracked job: immutable identity plus lock-free progress counters
/// the mining hook updates from the worker thread.
#[derive(Debug)]
pub struct JobRecord {
    id: u64,
    session: u64,
    op: &'static str,
    cancel: AtomicBool,
    levels: AtomicU64,
    pruned: AtomicU64,
    core: Mutex<JobCore>,
}

impl JobRecord {
    /// The job's id (what the submit ops return on the wire).
    pub fn id(&self) -> u64 {
        self.id
    }

    fn new(id: u64, session: u64, op: &'static str) -> Self {
        JobRecord {
            id,
            session,
            op,
            cancel: AtomicBool::new(false),
            levels: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
            core: Mutex::new(JobCore {
                state: JobState::Queued,
                result: None,
                error: None,
                wall_ms: 0.0,
                finished: None,
            }),
        }
    }

    fn lock_core(&self) -> std::sync::MutexGuard<'_, JobCore> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A point-in-time status snapshot as the wire object.
    fn status_value(&self) -> Value {
        let core = self.lock_core();
        let mut pairs: Vec<(&str, Value)> = vec![
            ("job", self.id.into()),
            ("session", self.session.into()),
            ("op", self.op.into()),
            ("state", core.state.as_str().into()),
            ("levels", self.levels.load(Ordering::Relaxed).into()),
            ("pruned", self.pruned.load(Ordering::Relaxed).into()),
        ];
        if core.state.is_terminal() {
            pairs.push(("wall_ms", core.wall_ms.into()));
        }
        if let Some(err) = &core.error {
            pairs.push(("error", err.as_str().into()));
        }
        object(pairs)
    }
}

/// The per-job cancellation token + progress sink handed to the miners.
struct JobHook<'a> {
    rec: &'a JobRecord,
}

impl MineHook for JobHook<'_> {
    fn keep_going(&self) -> bool {
        !self.rec.cancel.load(Ordering::Relaxed)
    }

    fn progress(&self, levels: usize, pruned: usize) {
        self.rec.levels.store(levels as u64, Ordering::Relaxed);
        self.rec.pruned.store(pruned as u64, Ordering::Relaxed);
    }
}

type JobWork = Box<dyn FnOnce(&JobRecord) -> JobOutcome + Send + 'static>;

struct JobInner {
    /// All known jobs by id (BTreeMap so `list_jobs` is id-ordered).
    jobs: Mutex<BTreeMap<u64, Arc<JobRecord>>>,
    next_id: AtomicU64,
    queue_depth: usize,
    ttl: Duration,
    metrics: Arc<TransportMetrics>,
    fault: FaultPlan,
}

/// The job executor: a worker pool of `frapp-job-{i}` threads with a
/// bound on the jobs waiting in state `queued`. Submission never
/// blocks: past the bound it sheds in-band (`job queue is full`).
/// Dropping the manager cancels every live job cooperatively and joins
/// the workers.
pub struct JobManager {
    inner: Arc<JobInner>,
    pool: WorkerPool,
}

impl JobManager {
    /// Starts `threads.max(1)` workers with the given bound on queued
    /// jobs and finished-job retention TTL. Job counters are recorded
    /// on `metrics`; `fault` supplies the `job_exec` injection site.
    pub fn new(
        threads: usize,
        queue_depth: usize,
        ttl_secs: u64,
        metrics: Arc<TransportMetrics>,
        fault: FaultPlan,
    ) -> Self {
        let inner = Arc::new(JobInner {
            jobs: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            queue_depth: queue_depth.max(1),
            ttl: Duration::from_secs(ttl_secs),
            metrics,
            fault,
        });
        JobManager {
            inner,
            pool: WorkerPool::new("frapp-job", threads),
        }
    }

    /// A manager sized from the config knobs.
    pub fn from_config(
        config: &crate::config::ServiceConfig,
        metrics: Arc<TransportMetrics>,
    ) -> Self {
        JobManager::new(
            config.job_threads,
            config.job_queue_depth,
            config.job_result_ttl_secs,
            metrics,
            config.fault_plan.clone(),
        )
    }

    /// Drops finished jobs whose TTL has elapsed. Called lazily from
    /// every public entry point, so retention needs no timer thread.
    fn purge_expired(&self) {
        let ttl = self.inner.ttl;
        let mut jobs = self
            .inner
            .jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        jobs.retain(|_, rec| {
            let core = rec.lock_core();
            match core.finished {
                Some(at) => at.elapsed() < ttl,
                None => true,
            }
        });
    }

    fn get(&self, id: u64) -> Result<Arc<JobRecord>> {
        self.purge_expired();
        let jobs = self
            .inner
            .jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        jobs.get(&id).cloned().ok_or(ServiceError::UnknownJob(id))
    }

    /// Registers a record and queues its work, shedding when
    /// `queue_depth` jobs are already `queued`. The count and the
    /// insert share one hold of the jobs map, so the bound is exact,
    /// and a job cancelled while queued frees its slot at once.
    fn submit(&self, session: u64, op: &'static str, work: JobWork) -> Result<Arc<JobRecord>> {
        self.purge_expired();
        let record = {
            let mut jobs = self
                .inner
                .jobs
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let queued = jobs
                .values()
                .filter(|rec| rec.lock_core().state == JobState::Queued)
                .count();
            if queued >= self.inner.queue_depth {
                self.inner.metrics.inc(Counter::JobsShed);
                return Err(ServiceError::InvalidRequest(format!(
                    "job queue is full ({queued} queued); retry later"
                )));
            }
            let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
            let record = Arc::new(JobRecord::new(id, session, op));
            jobs.insert(id, Arc::clone(&record));
            record
        };
        self.inner.metrics.inc(Counter::JobsSubmitted);
        let inner = Arc::clone(&self.inner);
        let rec = Arc::clone(&record);
        self.pool.spawn(move || run_entry(&inner, &rec, work));
        Ok(record)
    }

    /// Submits an association-rule mining job over `session`'s
    /// collected distribution. Validates that the session's boolean
    /// item universe fits the miners' `u64` masks.
    pub fn submit_mine_rules(
        &self,
        session: Arc<CollectionSession>,
        spec: MineSpec,
    ) -> Result<Arc<JobRecord>> {
        validate_minable(session.schema())?;
        if !(spec.min_support > 0.0 && spec.min_support <= 1.0) {
            return Err(ServiceError::InvalidRequest(
                "min_support must be in (0, 1]".into(),
            ));
        }
        if !(0.0..=1.0).contains(&spec.min_confidence) {
            return Err(ServiceError::InvalidRequest(
                "min_confidence must be in [0, 1]".into(),
            ));
        }
        let sid = session.id();
        self.submit(
            sid,
            "mine_rules",
            Box::new(move |rec| run_mine_rules(&session, spec, rec)),
        )
    }

    /// Submits a classification job: the Bayes-optimal rule over the
    /// session's reconstructed distribution, with `target` as the class
    /// attribute.
    pub fn submit_classify(
        &self,
        session: Arc<CollectionSession>,
        target: usize,
    ) -> Result<Arc<JobRecord>> {
        if target >= session.schema().num_attributes() {
            return Err(ServiceError::InvalidRequest(format!(
                "target attribute {target} out of range (schema has {} attributes)",
                session.schema().num_attributes()
            )));
        }
        let sid = session.id();
        self.submit(
            sid,
            "classify",
            Box::new(move |rec| run_classify(&session, target, rec)),
        )
    }

    /// The `job_status` payload.
    pub fn status_pairs(&self, id: u64) -> Result<Vec<(&'static str, Value)>> {
        let rec = self.get(id)?;
        Ok(vec![("status", rec.status_value())])
    }

    /// The `job_result` payload. Only `done` jobs carry a result;
    /// non-terminal, failed and cancelled jobs answer in-band errors.
    pub fn result_pairs(&self, id: u64) -> Result<Vec<(&'static str, Value)>> {
        let rec = self.get(id)?;
        let core = rec.lock_core();
        match core.state {
            JobState::Done => {
                let result = core.result.clone().unwrap_or(Value::Null);
                Ok(vec![
                    ("job", id.into()),
                    ("state", core.state.as_str().into()),
                    ("wall_ms", core.wall_ms.into()),
                    ("result", result),
                ])
            }
            JobState::Failed => Err(ServiceError::InvalidRequest(format!(
                "job {id} failed: {}",
                core.error.as_deref().unwrap_or("unknown error")
            ))),
            JobState::Cancelled => Err(ServiceError::InvalidRequest(format!(
                "job {id} was cancelled"
            ))),
            JobState::Queued | JobState::Running => Err(ServiceError::InvalidRequest(format!(
                "job {id} is still {}",
                core.state.as_str()
            ))),
        }
    }

    /// Cancels a job: queued jobs finalize immediately, running jobs
    /// get their cooperative token raised (the miner aborts at its next
    /// checkpoint), terminal jobs are untouched. Returns the
    /// post-cancel status.
    pub fn cancel_pairs(&self, id: u64) -> Result<Vec<(&'static str, Value)>> {
        let rec = self.get(id)?;
        rec.cancel.store(true, Ordering::Relaxed);
        {
            let mut core = rec.lock_core();
            if core.state == JobState::Queued {
                finalize(&self.inner, &mut core, JobOutcome::Cancelled, 0.0);
            }
        }
        Ok(vec![("status", rec.status_value())])
    }

    /// The `list_jobs` payload: every retained job's status, ascending
    /// by id.
    pub fn list_pairs(&self) -> Vec<(&'static str, Value)> {
        self.purge_expired();
        let jobs = self
            .inner
            .jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let statuses: Vec<Value> = jobs.values().map(|rec| rec.status_value()).collect();
        vec![("jobs", Value::Array(statuses))]
    }
}

impl Drop for JobManager {
    fn drop(&mut self) {
        // Raise every live job's token: running miners abort at their
        // next checkpoint, and `run_entry` finalizes the still-queued
        // ones as cancelled without running them. Dropping the `pool`
        // field afterwards drains its queue and joins the workers.
        let jobs = self
            .inner
            .jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for rec in jobs.values() {
            rec.cancel.store(true, Ordering::Relaxed);
        }
    }
}

/// One job's pool task: run the work unless the job was cancelled
/// while it waited.
fn run_entry(inner: &JobInner, rec: &JobRecord, work: JobWork) {
    {
        let mut core = rec.lock_core();
        if core.state != JobState::Queued {
            // Cancelled while queued: already finalized by cancel_pairs.
            return;
        }
        if rec.cancel.load(Ordering::Relaxed) {
            // The token went up while the job waited (the manager is
            // dropping, or a cancel is racing this pop): never start it.
            return finalize(inner, &mut core, JobOutcome::Cancelled, 0.0);
        }
        core.state = JobState::Running;
    }
    let started = Instant::now();
    let outcome = match inner.fault.inject_io(FaultSite::JobExec) {
        Err(e) => JobOutcome::Failed(format!("injected fault: {e}")),
        Ok(()) => work(rec),
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    finalize(inner, &mut rec.lock_core(), outcome, wall_ms);
}

/// Moves a job to its terminal state exactly once and records the
/// matching transport counter. The caller holds the record's core lock.
fn finalize(inner: &JobInner, core: &mut JobCore, outcome: JobOutcome, wall_ms: f64) {
    if core.state.is_terminal() {
        return;
    }
    core.wall_ms = wall_ms;
    core.finished = Some(Instant::now());
    match outcome {
        JobOutcome::Done(v) => {
            core.state = JobState::Done;
            core.result = Some(v);
            inner.metrics.inc(Counter::JobsCompleted);
        }
        JobOutcome::Failed(msg) => {
            core.state = JobState::Failed;
            core.error = Some(msg);
            inner.metrics.inc(Counter::JobsFailed);
        }
        JobOutcome::Cancelled => {
            core.state = JobState::Cancelled;
            inner.metrics.inc(Counter::JobsCancelled);
        }
    }
}

/// The miners' `u64` itemset masks cap the boolean item universe.
fn validate_minable(schema: &Schema) -> Result<()> {
    if schema.boolean_width() > 64 {
        return Err(ServiceError::InvalidRequest(format!(
            "session schema has {} boolean items; mining supports at most 64",
            schema.boolean_width()
        )));
    }
    Ok(())
}

/// The `mine_rules` work body, run on a job worker thread.
fn run_mine_rules(session: &CollectionSession, spec: MineSpec, rec: &JobRecord) -> JobOutcome {
    if session.is_closed() {
        return JobOutcome::Failed(format!("session {} is closed", session.id()));
    }
    let hook = JobHook { rec };
    let schema = session.schema();
    let snapshot = session.snapshot();
    let n = snapshot.n();
    let frequent = match spec.algo {
        MineAlgo::Apriori => {
            // The paper pipeline: count candidate supports on the
            // *perturbed* distribution, reconstruct each with the
            // Equation-28 closed form before the frequency test.
            let est = GammaDiagonalSupport::from_cell_counts(
                schema,
                snapshot.counts(),
                session.mechanism().gamma(),
            );
            apriori_with_hook(
                &est,
                &AprioriParams {
                    min_support: spec.min_support,
                    max_length: spec.max_length,
                    max_candidates: 0,
                },
                &hook,
            )
        }
        MineAlgo::FpGrowth => {
            // Exact mining over the clamped closed-form reconstruction,
            // rounded to integer cell weights.
            let recon = match session.reconstruct(ReconstructionMethod::ClosedForm, true) {
                Ok(r) => r,
                Err(e) => return JobOutcome::Failed(e.to_string()),
            };
            let mut cells: Vec<(u64, usize)> = Vec::new();
            for (index, &est) in recon.estimates.iter().enumerate() {
                let weight = est.round();
                if weight < 1.0 {
                    continue;
                }
                cells.push((cell_mask(schema, index), weight as usize));
            }
            fp_growth_from_counts(&cells, schema.boolean_width(), spec.min_support, &hook)
        }
    };
    let frequent = match frequent {
        Ok(f) => f,
        Err(_) => return JobOutcome::Cancelled,
    };
    // A session closed mid-run snapshot-raced the mining pass; its
    // estimates may be stale. Fail rather than serve them.
    if session.is_closed() {
        return JobOutcome::Failed(format!(
            "session {} was closed while the job ran",
            session.id()
        ));
    }
    let rules = generate_rules(&frequent, spec.min_confidence);
    JobOutcome::Done(mine_result_value(&spec, n, &frequent, &rules))
}

/// Boolean itemset mask of one domain cell.
fn cell_mask(schema: &Schema, index: usize) -> u64 {
    let record = schema.decode(index);
    let mut mask = 0u64;
    for (j, &v) in record.iter().enumerate() {
        mask |= 1 << (schema.boolean_offset(j) + v as usize);
    }
    mask
}

/// The `mine_rules` result object. Field order is fixed so the three
/// framings serialize bit-identically.
fn mine_result_value(
    spec: &MineSpec,
    n: u64,
    frequent: &FrequentItemsets,
    rules: &[Rule],
) -> Value {
    let itemsets: Vec<Value> = frequent
        .iter()
        .map(|(set, support)| {
            object(vec![
                ("items", items_value(&set.to_vec())),
                ("support", support.into()),
            ])
        })
        .collect();
    let rule_values: Vec<Value> = rules
        .iter()
        .map(|r| {
            object(vec![
                ("antecedent", items_value(&r.antecedent.to_vec())),
                ("consequent", items_value(&r.consequent.to_vec())),
                ("support", r.support.into()),
                ("confidence", r.confidence.into()),
                ("lift", r.lift.into()),
            ])
        })
        .collect();
    object(vec![
        ("algo", spec.algo.wire_name().into()),
        ("min_support", spec.min_support.into()),
        ("min_confidence", spec.min_confidence.into()),
        ("n", n.into()),
        (
            "level_profile",
            Value::Array(
                frequent
                    .length_profile()
                    .into_iter()
                    .map(Value::from)
                    .collect(),
            ),
        ),
        ("frequent_itemsets", itemsets.len().into()),
        ("itemsets", Value::Array(itemsets)),
        ("rules", Value::Array(rule_values)),
    ])
}

fn items_value(items: &[usize]) -> Value {
    Value::Array(items.iter().map(|&i| Value::from(i)).collect())
}

/// The `classify` work body, run on a job worker thread.
fn run_classify(session: &CollectionSession, target: usize, rec: &JobRecord) -> JobOutcome {
    if session.is_closed() {
        return JobOutcome::Failed(format!("session {} is closed", session.id()));
    }
    let hook = JobHook { rec };
    if !hook.keep_going() {
        return JobOutcome::Cancelled;
    }
    let schema = session.schema();
    let recon = match session.reconstruct(ReconstructionMethod::ClosedForm, true) {
        Ok(r) => r,
        Err(e) => return JobOutcome::Failed(e.to_string()),
    };
    let report = bayes_classify(schema, &recon.estimates, target);
    hook.progress(1, 0);
    if !hook.keep_going() {
        return JobOutcome::Cancelled;
    }
    if session.is_closed() {
        return JobOutcome::Failed(format!(
            "session {} was closed while the job ran",
            session.id()
        ));
    }
    JobOutcome::Done(object(vec![
        ("target", report.target.into()),
        ("target_name", schema.attribute(report.target).name().into()),
        ("num_classes", report.num_classes.into()),
        (
            "priors",
            Value::Array(report.priors.iter().map(|&p| Value::from(p)).collect()),
        ),
        ("accuracy", report.accuracy.into()),
        ("majority_accuracy", report.majority_accuracy.into()),
        ("feature_cells", report.feature_cells.into()),
        ("total_weight", report.total_weight.into()),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionRegistry;

    fn metrics() -> Arc<TransportMetrics> {
        Arc::new(TransportMetrics::new())
    }

    fn manager(threads: usize, depth: usize, ttl: u64) -> JobManager {
        JobManager::new(threads, depth, ttl, metrics(), FaultPlan::default())
    }

    fn session_with_data(n: usize) -> Arc<CollectionSession> {
        let registry = SessionRegistry::new();
        let created = registry
            .create(
                Schema::new(vec![("a", 3), ("b", 2), ("c", 2)]).unwrap(),
                crate::session::Mechanism::Deterministic { gamma: 19.0 },
                2,
                7,
                4096,
            )
            .unwrap();
        let session = created.session;
        let records: Vec<Vec<u32>> = (0..n)
            .map(|i| match i % 10 {
                0..=4 => vec![0, 0, 0],
                5..=7 => vec![1, 1, 1],
                _ => vec![2, 0, 1],
            })
            .collect();
        session.submit_batch(&records, true).unwrap();
        session
    }

    fn wait_terminal(mgr: &JobManager, id: u64) -> Value {
        for _ in 0..500 {
            let pairs = mgr.status_pairs(id).unwrap();
            let status = pairs[0].1.clone();
            let state = status
                .get("state")
                .and_then(Value::as_str)
                .unwrap()
                .to_owned();
            if ["done", "failed", "cancelled"].contains(&state.as_str()) {
                return status;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("job {id} never reached a terminal state");
    }

    #[test]
    fn states_have_stable_wire_names() {
        let all = [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ];
        let names: Vec<&str> = all.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, ["queued", "running", "done", "failed", "cancelled"]);
        assert!(all.iter().filter(|s| s.is_terminal()).count() == 3);
        assert!(MineAlgo::from_wire("apriori").is_ok());
        assert!(MineAlgo::from_wire("fpgrowth").is_ok());
        assert!(MineAlgo::from_wire("svd").is_err());
    }

    #[test]
    fn mine_rules_job_completes_with_rules() {
        let mgr = manager(1, 8, 600);
        let session = session_with_data(5_000);
        let rec = mgr
            .submit_mine_rules(
                session,
                MineSpec {
                    min_support: 0.15,
                    ..MineSpec::default()
                },
            )
            .unwrap();
        let status = wait_terminal(&mgr, rec.id);
        assert_eq!(status.get("state").and_then(Value::as_str), Some("done"));
        let result = mgr.result_pairs(rec.id).unwrap();
        let payload = &result.iter().find(|(k, _)| *k == "result").unwrap().1;
        let rules = payload.get("rules").and_then(Value::as_array).unwrap();
        assert!(!rules.is_empty(), "expected rules from planted itemsets");
        assert_eq!(payload.get("n").and_then(Value::as_u64), Some(5_000));
    }

    #[test]
    fn both_algorithms_agree_on_planted_itemsets() {
        let mgr = manager(2, 8, 600);
        let session = session_with_data(20_000);
        let spec = MineSpec {
            min_support: 0.15,
            ..MineSpec::default()
        };
        let a = mgr.submit_mine_rules(Arc::clone(&session), spec).unwrap();
        let b = mgr
            .submit_mine_rules(
                session,
                MineSpec {
                    algo: MineAlgo::FpGrowth,
                    ..spec
                },
            )
            .unwrap();
        for rec in [&a, &b] {
            let status = wait_terminal(&mgr, rec.id);
            assert_eq!(status.get("state").and_then(Value::as_str), Some("done"));
        }
        // The two paths estimate supports differently (per-candidate
        // Eq-28 reconstruction vs mining a rounded reconstructed
        // table), so borderline itemsets may differ — but the planted
        // majority triple [0,0,0] (boolean items 0, 3, 5 at 50%
        // support) must be frequent under both, and both must emit
        // rules from it.
        for id in [a.id(), b.id()] {
            let pairs = mgr.result_pairs(id).unwrap();
            let payload = pairs
                .iter()
                .find(|(k, _)| *k == "result")
                .unwrap()
                .1
                .clone();
            let itemsets = payload.get("itemsets").and_then(Value::as_array).unwrap();
            let has_triple = itemsets.iter().any(|s| {
                let items: Vec<u64> = s
                    .get("items")
                    .and_then(Value::as_array)
                    .unwrap()
                    .iter()
                    .filter_map(Value::as_u64)
                    .collect();
                items == [0, 3, 5]
            });
            assert!(has_triple, "planted triple missing from job {id}");
            let rules = payload.get("rules").and_then(Value::as_array).unwrap();
            assert!(!rules.is_empty(), "no rules from job {id}");
        }
    }

    #[test]
    fn job_result_bytes_are_the_parents() {
        // (FNV-1a-64, length) of a `job_result` body per algorithm,
        // recorded at commit `df3a16d`, when every number went through
        // `format!`. The session is server-perturbed from a fixed seed.
        let mgr = manager(1, 8, 600);
        let session = SessionRegistry::new()
            .create(
                frapp_data::health::schema(),
                crate::session::Mechanism::Deterministic { gamma: 19.0 },
                2,
                13,
                4096,
            )
            .unwrap()
            .session;
        let dataset = frapp_data::health::health_like_n(20_000, 3);
        session.submit_batch(dataset.records(), false).unwrap();
        let mut got = Vec::new();
        for algo in [MineAlgo::Apriori, MineAlgo::FpGrowth] {
            let spec = MineSpec {
                algo,
                min_support: 0.02,
                ..MineSpec::default()
            };
            let rec = mgr.submit_mine_rules(Arc::clone(&session), spec).unwrap();
            wait_terminal(&mgr, rec.id());
            let mut pairs = mgr.result_pairs(rec.id()).unwrap();
            // `wall_ms` is a clock reading: pin a fractional stand-in.
            for (key, value) in &mut pairs {
                if *key == "wall_ms" {
                    *value = Value::Number(8.765432109876542);
                }
            }
            let mut out = String::new();
            crate::protocol::write_ok_response(&mut out, pairs);
            got.push((crate::fed::fnv1a(out.as_bytes()), out.len()));
        }
        assert_eq!(
            got,
            [(1312958700409682478, 332979), (89214769826394500, 119288)]
        );
    }

    /// Polls until `id` reports `running` (the worker popped it).
    fn wait_running(mgr: &JobManager, id: u64) {
        for _ in 0..500 {
            let pairs = mgr.status_pairs(id).unwrap();
            if pairs[0].1.get("state").and_then(Value::as_str) == Some("running") {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("job {id} never started running");
    }

    #[test]
    fn queue_full_sheds_in_band() {
        let m = metrics();
        // A job_exec delay holds the single worker at the start of each
        // job, so queue occupancy is deterministic.
        let plan = FaultPlan::parse("seed=1,job_exec=delay(400):1.0").unwrap();
        let mgr = JobManager::new(1, 1, 600, Arc::clone(&m), plan);
        let session = session_with_data(1_000);
        let spec = MineSpec {
            min_support: 0.15,
            ..MineSpec::default()
        };
        let running = mgr.submit_mine_rules(Arc::clone(&session), spec).unwrap();
        wait_running(&mgr, running.id());
        let queued = mgr.submit_mine_rules(Arc::clone(&session), spec).unwrap();
        let shed = mgr.submit_mine_rules(Arc::clone(&session), spec);
        match shed {
            Err(ServiceError::InvalidRequest(msg)) => {
                assert!(msg.contains("queue is full"), "{msg}")
            }
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(m.report().get(Counter::JobsShed), 1);
        // A job cancelled while queued no longer waits, so it frees its
        // slot at once: the next submit is accepted.
        let _ = mgr.cancel_pairs(queued.id());
        let next = mgr
            .submit_mine_rules(Arc::clone(&session), spec)
            .expect("a cancelled queued job must not hold the queue slot");
        assert_eq!(m.report().get(Counter::JobsShed), 1);
        // Cancel everything so Drop does not wait out the delays.
        let _ = mgr.cancel_pairs(running.id());
        let _ = mgr.cancel_pairs(next.id());
    }

    #[test]
    fn dropping_the_manager_cancels_a_queued_job_without_running_it() {
        let m = metrics();
        let plan = FaultPlan::parse("seed=1,job_exec=delay(200):1.0").unwrap();
        let mgr = JobManager::new(1, 8, 600, Arc::clone(&m), plan);
        let session = session_with_data(1_000);
        let spec = MineSpec {
            min_support: 0.15,
            ..MineSpec::default()
        };
        let running = mgr.submit_mine_rules(Arc::clone(&session), spec).unwrap();
        wait_running(&mgr, running.id());
        let queued = mgr.submit_mine_rules(session, spec).unwrap();
        drop(mgr);
        let core = queued.lock_core();
        assert_eq!(core.state, JobState::Cancelled);
        assert_eq!(core.wall_ms, 0.0);
        assert_eq!(queued.levels.load(Ordering::Relaxed), 0, "never ran");
        // The running job aborted at its first checkpoint; both count.
        assert_eq!(running.lock_core().state, JobState::Cancelled);
        assert_eq!(m.report().get(Counter::JobsCancelled), 2);
    }

    #[test]
    fn cancel_while_queued_is_immediate_and_final() {
        let m = metrics();
        // The delay pins the first job in `running` long enough to
        // cancel it mid-run; the second job stays queued behind it.
        let plan = FaultPlan::parse("seed=1,job_exec=delay(1500):1.0").unwrap();
        let mgr = JobManager::new(1, 8, 600, Arc::clone(&m), plan);
        let session = session_with_data(1_000);
        let spec = MineSpec {
            min_support: 0.15,
            ..MineSpec::default()
        };
        let running = mgr.submit_mine_rules(Arc::clone(&session), spec).unwrap();
        wait_running(&mgr, running.id());
        let queued = mgr.submit_mine_rules(Arc::clone(&session), spec).unwrap();
        let pairs = mgr.cancel_pairs(queued.id()).unwrap();
        let status = &pairs[0].1;
        assert_eq!(
            status.get("state").and_then(Value::as_str),
            Some("cancelled")
        );
        // Cancelling a cancelled job is a no-op, not a regression.
        let pairs = mgr.cancel_pairs(queued.id()).unwrap();
        assert_eq!(
            pairs[0].1.get("state").and_then(Value::as_str),
            Some("cancelled")
        );
        // The running job is cancelled while the worker sits in the
        // injected delay; the mining hook observes the flag before the
        // first apriori pass.
        let _ = mgr.cancel_pairs(running.id());
        let status = wait_terminal(&mgr, running.id());
        assert_eq!(
            status.get("state").and_then(Value::as_str),
            Some("cancelled")
        );
        assert!(m.report().get(Counter::JobsCancelled) >= 2);
    }

    #[test]
    fn ttl_purges_finished_jobs() {
        let mgr = manager(1, 8, 1);
        let session = session_with_data(1_000);
        let rec = mgr
            .submit_mine_rules(
                session,
                MineSpec {
                    min_support: 0.2,
                    ..MineSpec::default()
                },
            )
            .unwrap();
        wait_terminal(&mgr, rec.id);
        assert!(mgr.result_pairs(rec.id).is_ok(), "result live before TTL");
        std::thread::sleep(Duration::from_millis(1_200));
        match mgr.status_pairs(rec.id) {
            Err(ServiceError::UnknownJob(id)) => assert_eq!(id, rec.id),
            other => panic!("expected UnknownJob after TTL, got {other:?}"),
        }
    }

    #[test]
    fn closed_session_fails_jobs_cleanly() {
        let mgr = manager(1, 8, 600);
        let registry = SessionRegistry::new();
        let session = registry
            .create(
                Schema::new(vec![("a", 3), ("b", 2)]).unwrap(),
                crate::session::Mechanism::Deterministic { gamma: 19.0 },
                1,
                7,
                4096,
            )
            .unwrap()
            .session;
        session
            .submit_batch(&[vec![0, 0], vec![1, 1]], true)
            .unwrap();
        let rec = mgr
            .submit_mine_rules(Arc::clone(&session), MineSpec::default())
            .unwrap();
        wait_terminal(&mgr, rec.id);
        // Close, then submit again: the new job must fail in-band.
        registry.remove(session.id());
        session.mark_closed();
        let rec = mgr.submit_mine_rules(session, MineSpec::default()).unwrap();
        let status = wait_terminal(&mgr, rec.id);
        assert_eq!(status.get("state").and_then(Value::as_str), Some("failed"));
        assert!(status
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("closed"));
    }

    #[test]
    fn classify_job_reports_bayes_accuracy() {
        let mgr = manager(1, 8, 600);
        let session = session_with_data(10_000);
        // `c` is determined by `a` in the planted mixture, so the Bayes
        // rule over the reconstruction classifies it almost perfectly.
        let rec = mgr.submit_classify(session, 2).unwrap();
        let status = wait_terminal(&mgr, rec.id);
        assert_eq!(status.get("state").and_then(Value::as_str), Some("done"));
        let pairs = mgr.result_pairs(rec.id).unwrap();
        let payload = &pairs.iter().find(|(k, _)| *k == "result").unwrap().1;
        let acc = payload.get("accuracy").and_then(Value::as_f64).unwrap();
        assert!(acc > 0.9, "accuracy {acc}");
        assert_eq!(
            payload.get("target_name").and_then(Value::as_str),
            Some("c")
        );
    }

    #[test]
    fn list_jobs_is_id_ordered_and_consistent_with_status() {
        let mgr = manager(2, 8, 600);
        let session = session_with_data(2_000);
        let spec = MineSpec {
            min_support: 0.2,
            ..MineSpec::default()
        };
        let ids: Vec<u64> = (0..3)
            .map(|_| {
                mgr.submit_mine_rules(Arc::clone(&session), spec)
                    .unwrap()
                    .id
            })
            .collect();
        for &id in &ids {
            wait_terminal(&mgr, id);
        }
        let pairs = mgr.list_pairs();
        let jobs = pairs[0].1.clone();
        let listed: Vec<u64> = match &jobs {
            Value::Array(items) => items
                .iter()
                .map(|j| j.get("job").and_then(Value::as_u64).unwrap())
                .collect(),
            _ => panic!("jobs must be an array"),
        };
        assert_eq!(listed, ids, "list_jobs must be ascending by id");
    }

    #[test]
    fn rejects_unminable_and_invalid_specs() {
        let mgr = manager(1, 8, 600);
        let registry = SessionRegistry::new();
        // 65 boolean items: one attribute of cardinality 65.
        let session = registry
            .create(
                Schema::new(vec![("wide", 65)]).unwrap(),
                crate::session::Mechanism::Deterministic { gamma: 19.0 },
                1,
                7,
                4096,
            )
            .unwrap()
            .session;
        assert!(mgr
            .submit_mine_rules(Arc::clone(&session), MineSpec::default())
            .is_err());
        let ok = session_with_data(100);
        assert!(mgr
            .submit_mine_rules(
                Arc::clone(&ok),
                MineSpec {
                    min_support: 0.0,
                    ..MineSpec::default()
                }
            )
            .is_err());
        assert!(mgr
            .submit_mine_rules(
                Arc::clone(&ok),
                MineSpec {
                    min_confidence: 1.5,
                    ..MineSpec::default()
                }
            )
            .is_err());
        assert!(mgr.submit_classify(ok, 9).is_err());
        assert!(matches!(
            mgr.status_pairs(404),
            Err(ServiceError::UnknownJob(404))
        ));
    }
}
