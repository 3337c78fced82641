//! Per-session operational metrics.
//!
//! Every [`crate::session::CollectionSession`] owns a [`SessionMetrics`]
//! that the hot paths update with plain relaxed atomics — an ingest
//! batch costs a handful of `fetch_add`s, a reconstruction one
//! `fetch_add` plus a histogram bucket increment — so metering never
//! serializes the lock-striped ingest path. The `metrics` protocol op
//! snapshots the counters into a [`MetricsReport`].
//!
//! Three power-of-two histograms ride on the same machinery (bucket `k`
//! counts values in `[2^(k-1), 2^k)`): reconstruction-query latency in
//! microseconds, submit-batch latency in microseconds, and ingest batch
//! *size* in records — the last two make ingest-throughput regressions
//! observable in production without any extra hot-path cost beyond one
//! atomic increment per batch.

use crate::wire::{Counter, PeerCounter, COUNTERS, PEER_COUNTERS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of histogram buckets. The last bucket (`>= 2^30` µs ≈ 18 min)
/// absorbs any overflow.
const LATENCY_BUCKETS: usize = 32;

/// A lock-free power-of-two latency histogram over microseconds.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// The bucket index for a latency of `us` microseconds: 0 for
    /// sub-microsecond, otherwise the bit width of `us` (so bucket `k`
    /// covers `[2^(k-1), 2^k)`), clamped into the last bucket.
    fn bucket_index(us: u64) -> usize {
        if us == 0 {
            0
        } else {
            ((64 - us.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
        }
    }

    /// Records one duration observation (in microseconds).
    pub fn observe(&self, elapsed: Duration) {
        self.observe_value(elapsed.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Records one raw value observation. The histogram machinery is
    /// unit-agnostic — the same buckets meter microseconds of latency
    /// or records per batch; the field name documents the unit.
    pub fn observe_value(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(value, Ordering::Relaxed);
        self.max_us.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self) -> LatencySummary {
        let count = self.count.load(Ordering::Relaxed);
        let sum_us = self.sum_us.load(Ordering::Relaxed);
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(k, c)| {
                let c = c.load(Ordering::Relaxed);
                // Bucket k covers [2^(k-1), 2^k) µs; report the
                // exclusive upper bound. Empty buckets are elided.
                (c > 0).then_some((1u64 << k, c))
            })
            .collect();
        LatencySummary {
            count,
            mean_us: if count > 0 {
                sum_us as f64 / count as f64
            } else {
                0.0
            },
            max_us: self.max_us.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A snapshot of a [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Total observations.
    pub count: u64,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// Largest observed latency in microseconds.
    pub max_us: u64,
    /// Non-empty `(upper_bound_us, count)` buckets, ascending; an
    /// observation lands in the first bucket whose bound exceeds it.
    pub buckets: Vec<(u64, u64)>,
}

/// Live counters for one collection session.
///
/// `records_ingested` / `batches` count work done by *this process*
/// since the session was created or recovered — the total across
/// restarts lives in the persisted counts and is reported by `stats`.
#[derive(Debug)]
pub struct SessionMetrics {
    started: Instant,
    records_ingested: AtomicU64,
    batches: AtomicU64,
    reconstructions: AtomicU64,
    query_latency: LatencyHistogram,
    /// Records per submit batch (power-of-two buckets over counts).
    ingest_batch_size: LatencyHistogram,
    /// Wall-clock per submit batch, µs (validation + encode + ingest).
    submit_latency: LatencyHistogram,
}

impl Default for SessionMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionMetrics {
    /// Fresh counters, with the rate clock starting now.
    pub fn new() -> Self {
        SessionMetrics {
            started: Instant::now(),
            records_ingested: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            reconstructions: AtomicU64::new(0),
            query_latency: LatencyHistogram::new(),
            ingest_batch_size: LatencyHistogram::new(),
            submit_latency: LatencyHistogram::new(),
        }
    }

    /// Counts `records` ingested records in one batch that took
    /// `elapsed` to land. Called with the *accepted* count, so a
    /// partially failed batch is metered by what actually landed.
    pub fn record_ingest(&self, records: u64, elapsed: Duration) {
        self.records_ingested.fetch_add(records, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.ingest_batch_size.observe_value(records);
        self.submit_latency.observe(elapsed);
    }

    /// Counts one reconstruction query and its latency.
    pub fn record_reconstruction(&self, elapsed: Duration) {
        self.reconstructions.fetch_add(1, Ordering::Relaxed);
        self.query_latency.observe(elapsed);
    }

    /// Reconstruction queries answered so far — a single counter read,
    /// for callers (like `list_sessions` summaries) that do not need
    /// the full histogram snapshot of [`Self::report`].
    pub fn reconstructions(&self) -> u64 {
        self.reconstructions.load(Ordering::Relaxed)
    }

    /// A point-in-time report of all counters.
    pub fn report(&self) -> MetricsReport {
        let uptime_secs = self.started.elapsed().as_secs_f64();
        let records_ingested = self.records_ingested.load(Ordering::Relaxed);
        MetricsReport {
            records_ingested,
            batches: self.batches.load(Ordering::Relaxed),
            reconstructions: self.reconstructions.load(Ordering::Relaxed),
            uptime_secs,
            ingest_rate: if uptime_secs > 0.0 {
                records_ingested as f64 / uptime_secs
            } else {
                0.0
            },
            query_latency: self.query_latency.snapshot(),
            ingest_batch_size: self.ingest_batch_size.snapshot(),
            submit_latency: self.submit_latency.snapshot(),
        }
    }
}

/// Server-wide transport counters, shared by every front-end: one
/// relaxed atomic per row of [`COUNTERS`], indexed by [`Counter`].
///
/// One instance lives in the server and is updated by the accept loops,
/// connection handlers, reactor and job pool. Unlike [`SessionMetrics`]
/// these survive session churn — they meter the *transports*, not any
/// one session — and are reported by the session-less `metrics` op.
#[derive(Debug, Default)]
pub struct TransportMetrics {
    values: [AtomicU64; COUNTERS.len()],
}

impl TransportMetrics {
    /// Fresh all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one to `counter`.
    pub fn inc(&self, counter: Counter) {
        self.values[counter as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Takes one off `counter` (gauges only).
    pub fn dec(&self, counter: Counter) {
        self.values[counter as usize].fetch_sub(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn report(&self) -> TransportReport {
        TransportReport(std::array::from_fn(|i| {
            self.values[i].load(Ordering::Relaxed)
        }))
    }
}

/// A snapshot of the server's [`TransportMetrics`].
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportReport([u64; COUNTERS.len()]);

impl TransportReport {
    /// The value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.0[counter as usize]
    }

    /// Sets the value of `counter` (response parsing, tests).
    pub fn set(&mut self, counter: Counter, value: u64) {
        self.0[counter as usize] = value;
    }
}

impl std::fmt::Debug for TransportReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(COUNTERS.iter().map(|row| (row.key, self.get(row.id))))
            .finish()
    }
}

/// A federation peer's health, as driven by its link's circuit
/// breaker: `Up` (requests flow normally), `Degraded` (at least one
/// recent consecutive failure — retries are in flight), `Down` (the
/// breaker is open: consecutive failures reached the threshold and
/// sends fail fast until the cooldown allows a half-open probe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeerHealth {
    /// The link is healthy.
    #[default]
    Up,
    /// Recent failures observed; the link is retrying.
    Degraded,
    /// The circuit breaker is open; sends fail fast.
    Down,
}

impl PeerHealth {
    /// The wire name of this state (`"up"` / `"degraded"` / `"down"`).
    pub fn as_str(self) -> &'static str {
        match self {
            PeerHealth::Up => "up",
            PeerHealth::Degraded => "degraded",
            PeerHealth::Down => "down",
        }
    }

    /// Parses the wire name [`PeerHealth::as_str`] produces. Unknown
    /// names (a newer server) read as `Up` rather than failing — the
    /// field is advisory.
    pub fn from_wire(name: &str) -> PeerHealth {
        match name {
            "degraded" => PeerHealth::Degraded,
            "down" => PeerHealth::Down,
            _ => PeerHealth::Up,
        }
    }

    /// Reads the gauge value [`PeerHealth::as_u64`] produces.
    pub fn from_u64(v: u64) -> PeerHealth {
        match v {
            1 => PeerHealth::Degraded,
            2 => PeerHealth::Down,
            _ => PeerHealth::Up,
        }
    }

    /// The state as the `frapp_peer_health` gauge carries it.
    pub fn as_u64(self) -> u64 {
        match self {
            PeerHealth::Up => 0,
            PeerHealth::Degraded => 1,
            PeerHealth::Down => 2,
        }
    }
}

/// Live replication counters for one federation peer link: one
/// relaxed atomic per row of [`PEER_COUNTERS`], indexed by
/// [`PeerCounter`].
///
/// Owned by the link's background forwarder thread and read by the
/// session-less `metrics` op; relaxed, like every other counter here,
/// because the forwarding hot path must not serialize on metering.
#[derive(Debug, Default)]
pub struct PeerReplCounters {
    values: [AtomicU64; PEER_COUNTERS.len()],
}

impl PeerReplCounters {
    /// Fresh all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to `counter`.
    pub fn add(&self, counter: PeerCounter, n: u64) {
        self.values[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites `counter` (gauges only).
    pub fn set(&self, counter: PeerCounter, value: u64) {
        self.values[counter as usize].store(value, Ordering::Relaxed);
    }

    /// Publishes the peer's health state (driven by the link's circuit
    /// breaker).
    pub fn set_health(&self, health: PeerHealth) {
        self.set(PeerCounter::Health, health.as_u64());
    }

    /// The peer's current health state.
    pub fn health(&self) -> PeerHealth {
        PeerHealth::from_u64(self.values[PeerCounter::Health as usize].load(Ordering::Relaxed))
    }

    /// A point-in-time report for peer `node` at `addr`.
    pub fn report(&self, node: usize, addr: &str) -> PeerReplReport {
        PeerReplReport {
            node,
            addr: addr.to_owned(),
            values: std::array::from_fn(|i| self.values[i].load(Ordering::Relaxed)),
        }
    }
}

/// A snapshot of one peer link's [`PeerReplCounters`], as reported in
/// the `federation` section of the transport metrics response.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PeerReplReport {
    /// The peer's index in the federation peer list.
    pub node: usize,
    /// The peer's address.
    pub addr: String,
    /// One value per row of [`PEER_COUNTERS`].
    pub values: [u64; PEER_COUNTERS.len()],
}

impl PeerReplReport {
    /// The value of `counter`.
    pub fn get(&self, counter: PeerCounter) -> u64 {
        self.values[counter as usize]
    }

    /// The peer's health state.
    pub fn health(&self) -> PeerHealth {
        PeerHealth::from_u64(self.get(PeerCounter::Health))
    }
}

/// A snapshot of one session's [`SessionMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Records ingested by this process since create/recovery.
    pub records_ingested: u64,
    /// Ingest batches handled.
    pub batches: u64,
    /// Reconstruction queries answered.
    pub reconstructions: u64,
    /// Seconds since the session was created or recovered here.
    pub uptime_secs: f64,
    /// `records_ingested / uptime_secs`.
    pub ingest_rate: f64,
    /// Reconstruction-query latency distribution.
    pub query_latency: LatencySummary,
    /// Records-per-batch distribution (bucket bounds are record
    /// counts, not microseconds — the histogram machinery is shared).
    pub ingest_batch_size: LatencySummary,
    /// Submit-batch latency distribution, microseconds.
    pub submit_latency: LatencySummary,
}

/// Renders the transport (and, when federated, per-peer replication)
/// counters in the Prometheus text exposition format, version 0.0.4.
///
/// Served by `GET /metrics` when the request's `Accept` header asks for
/// `text/plain` (JSON stays the default). The values come from the same
/// snapshots as the JSON response, so the two views can never disagree.
pub fn write_prometheus_metrics(
    out: &mut String,
    transport: &TransportReport,
    peers: Option<&[PeerReplReport]>,
) {
    use std::fmt::Write as _;
    for row in &COUNTERS {
        let _ = writeln!(out, "# TYPE {} {}", row.family, row.kind.as_str());
        let _ = writeln!(out, "{} {}", row.family, transport.get(row.id));
    }
    let Some(peers) = peers else {
        return;
    };
    // One TYPE line per family, then one labelled sample per peer.
    // Addresses are host:port strings, so the label values never need
    // escaping.
    for row in &PEER_COUNTERS {
        let _ = writeln!(out, "# TYPE {} {}", row.family, row.kind.as_str());
        for p in peers {
            let _ = writeln!(
                out,
                "{}{{node=\"{}\",peer=\"{}\"}} {}",
                row.family,
                p.node,
                p.addr,
                p.get(row.id)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_power_of_two_log() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 1);
        assert_eq!(LatencyHistogram::bucket_index(2), 2);
        assert_eq!(LatencyHistogram::bucket_index(3), 2);
        assert_eq!(LatencyHistogram::bucket_index(4), 3);
        assert_eq!(LatencyHistogram::bucket_index(1023), 10);
        assert_eq!(LatencyHistogram::bucket_index(1024), 11);
        assert_eq!(
            LatencyHistogram::bucket_index(u64::MAX),
            LATENCY_BUCKETS - 1
        );
    }

    #[test]
    fn histogram_tracks_count_mean_max_and_buckets() {
        let h = LatencyHistogram::new();
        h.observe(Duration::from_micros(3));
        h.observe(Duration::from_micros(5));
        h.observe(Duration::from_micros(100));
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.max_us, 100);
        assert!((s.mean_us - 36.0).abs() < 1e-9);
        // 3 µs → bucket (4, 1); 5 µs → (8, 1); 100 µs → (128, 1).
        assert_eq!(s.buckets, vec![(4, 1), (8, 1), (128, 1)]);
        assert_eq!(s.buckets.iter().map(|(_, c)| c).sum::<u64>(), s.count);
    }

    #[test]
    fn session_metrics_report_accumulates() {
        let m = SessionMetrics::new();
        m.record_ingest(100, Duration::from_micros(40));
        m.record_ingest(50, Duration::from_micros(12));
        m.record_reconstruction(Duration::from_micros(10));
        let r = m.report();
        assert_eq!(r.records_ingested, 150);
        assert_eq!(r.batches, 2);
        assert_eq!(r.reconstructions, 1);
        assert_eq!(r.query_latency.count, 1);
        assert!(r.uptime_secs >= 0.0);
        assert!(r.ingest_rate >= 0.0);
        // Batch sizes land in the shared power-of-two buckets: 100
        // records → bucket (128, 1); 50 → (64, 1).
        assert_eq!(r.ingest_batch_size.count, 2);
        assert_eq!(r.ingest_batch_size.max_us, 100);
        assert_eq!(r.ingest_batch_size.buckets, vec![(64, 1), (128, 1)]);
        // Submit latency metered per batch.
        assert_eq!(r.submit_latency.count, 2);
        assert_eq!(r.submit_latency.max_us, 40);
    }

    #[test]
    fn empty_metrics_report_is_all_zero() {
        let r = SessionMetrics::new().report();
        assert_eq!(r.records_ingested, 0);
        assert_eq!(r.reconstructions, 0);
        assert_eq!(r.query_latency.count, 0);
        assert_eq!(r.query_latency.mean_us, 0.0);
        assert!(r.query_latency.buckets.is_empty());
        assert_eq!(r.ingest_batch_size.count, 0);
        assert_eq!(r.submit_latency.count, 0);
    }

    #[test]
    fn transport_metrics_count_per_transport() {
        let t = TransportMetrics::new();
        t.inc(Counter::TcpConnections);
        t.inc(Counter::TcpRequests);
        t.inc(Counter::TcpRequests);
        t.inc(Counter::HttpConnections);
        t.inc(Counter::HttpRequests);
        t.inc(Counter::BinaryConnections);
        t.inc(Counter::BinaryRequests);
        t.inc(Counter::DeferredBatches);
        t.inc(Counter::Sheds);
        t.inc(Counter::AcceptErrors);
        let r = t.report();
        assert_eq!(r.get(Counter::TcpConnections), 1);
        assert_eq!(r.get(Counter::TcpRequests), 2);
        assert_eq!(r.get(Counter::HttpConnections), 1);
        assert_eq!(r.get(Counter::HttpRequests), 1);
        assert_eq!(r.get(Counter::BinaryConnections), 1);
        assert_eq!(r.get(Counter::BinaryRequests), 1);
        assert_eq!(r.get(Counter::DeferredBatches), 1);
        assert_eq!(r.get(Counter::Sheds), 1);
        assert_eq!(r.get(Counter::AcceptErrors), 1);
        assert_eq!(TransportMetrics::new().report(), TransportReport::default());
    }

    #[test]
    fn reactor_counters_count_and_the_fd_gauge_tracks_registrations() {
        let t = TransportMetrics::new();
        t.inc(Counter::ReactorRegisteredFds);
        t.inc(Counter::ReactorRegisteredFds);
        t.dec(Counter::ReactorRegisteredFds);
        t.inc(Counter::ReactorWakeups);
        t.inc(Counter::ReactorPartialReads);
        t.inc(Counter::ReactorPartialWrites);
        let r = t.report();
        assert_eq!(r.get(Counter::ReactorRegisteredFds), 1);
        assert_eq!(r.get(Counter::ReactorWakeups), 1);
        assert_eq!(r.get(Counter::ReactorPartialReads), 1);
        assert_eq!(r.get(Counter::ReactorPartialWrites), 1);
    }

    #[test]
    fn peer_repl_counters_report_per_peer() {
        let c = PeerReplCounters::new();
        c.add(PeerCounter::ForwardedBatches, 2);
        c.add(PeerCounter::ForwardedRecords, 15);
        c.add(PeerCounter::AckedRecords, 10);
        c.add(PeerCounter::Retries, 1);
        c.add(PeerCounter::PeerDown, 1);
        c.set(PeerCounter::HistoryBatches, 7);
        let r = c.report(2, "127.0.0.1:7002");
        assert_eq!(r.node, 2);
        assert_eq!(r.addr, "127.0.0.1:7002");
        assert_eq!(r.get(PeerCounter::ForwardedBatches), 2);
        assert_eq!(r.get(PeerCounter::ForwardedRecords), 15);
        assert_eq!(r.get(PeerCounter::AckedRecords), 10);
        assert_eq!(r.get(PeerCounter::Retries), 1);
        assert_eq!(r.get(PeerCounter::PeerDown), 1);
        assert_eq!(r.get(PeerCounter::HistoryBatches), 7);
        // A gauge, not a counter: the next publish overwrites.
        c.set(PeerCounter::HistoryBatches, 3);
        assert_eq!(c.report(2, "x").get(PeerCounter::HistoryBatches), 3);
    }

    #[test]
    fn peer_health_state_round_trips_and_defaults_up() {
        let c = PeerReplCounters::new();
        assert_eq!(c.health(), PeerHealth::Up);
        c.set_health(PeerHealth::Degraded);
        assert_eq!(c.health(), PeerHealth::Degraded);
        c.set_health(PeerHealth::Down);
        c.add(PeerCounter::BreakerTrips, 1);
        let r = c.report(0, "a");
        assert_eq!(r.health(), PeerHealth::Down);
        assert_eq!(r.get(PeerCounter::BreakerTrips), 1);
        assert_eq!(PeerHealth::Up.as_str(), "up");
        assert_eq!(PeerHealth::Degraded.as_str(), "degraded");
        assert_eq!(PeerHealth::Down.as_str(), "down");
    }

    #[test]
    fn job_counters_count_and_export() {
        let t = TransportMetrics::new();
        t.inc(Counter::JobsSubmitted);
        t.inc(Counter::JobsSubmitted);
        t.inc(Counter::JobsCompleted);
        t.inc(Counter::JobsFailed);
        t.inc(Counter::JobsCancelled);
        t.inc(Counter::JobsShed);
        let r = t.report();
        assert_eq!(r.get(Counter::JobsSubmitted), 2);
        assert_eq!(r.get(Counter::JobsCompleted), 1);
        assert_eq!(r.get(Counter::JobsFailed), 1);
        assert_eq!(r.get(Counter::JobsCancelled), 1);
        assert_eq!(r.get(Counter::JobsShed), 1);
        let mut out = String::new();
        write_prometheus_metrics(&mut out, &r, None);
        assert!(out.contains("frapp_jobs_submitted_total 2\n"), "{out}");
        assert!(out.contains("frapp_jobs_completed_total 1\n"), "{out}");
        assert!(out.contains("frapp_jobs_failed_total 1\n"), "{out}");
        assert!(out.contains("frapp_jobs_cancelled_total 1\n"), "{out}");
        assert!(out.contains("frapp_jobs_shed_total 1\n"), "{out}");
    }

    #[test]
    fn idle_reaped_counts() {
        let t = TransportMetrics::new();
        t.inc(Counter::IdleReaped);
        t.inc(Counter::IdleReaped);
        assert_eq!(t.report().get(Counter::IdleReaped), 2);
    }

    #[test]
    fn prometheus_exposition_covers_transport_and_peers() {
        let t = TransportMetrics::new();
        t.inc(Counter::TcpConnections);
        t.inc(Counter::BinaryConnections);
        t.inc(Counter::IdleReaped);
        let c = PeerReplCounters::new();
        c.add(PeerCounter::ForwardedRecords, 5);
        c.add(PeerCounter::BreakerTrips, 1);
        c.set_health(PeerHealth::Down);
        let peer = c.report(1, "127.0.0.1:7001");
        let mut out = String::new();
        write_prometheus_metrics(&mut out, &t.report(), Some(&[peer]));
        assert!(out.contains("# TYPE frapp_tcp_connections_total counter\n"));
        assert!(out.contains("frapp_tcp_connections_total 1\n"));
        assert!(out.contains("frapp_binary_connections_total 1\n"));
        assert!(out.contains("frapp_binary_requests_total 0\n"));
        assert!(out.contains("frapp_idle_reaped_total 1\n"));
        assert!(out.contains(
            "frapp_peer_forwarded_records_total{node=\"1\",peer=\"127.0.0.1:7001\"} 5\n"
        ));
        assert!(
            out.contains("frapp_peer_breaker_trips_total{node=\"1\",peer=\"127.0.0.1:7001\"} 1\n")
        );
        assert!(out.contains("frapp_peer_health{node=\"1\",peer=\"127.0.0.1:7001\"} 2\n"));
        // Every line is a comment or a sample; no stray blank lines.
        assert!(out.lines().all(|l| !l.is_empty()));
        // Without federation, no peer families appear at all.
        let mut single = String::new();
        write_prometheus_metrics(&mut single, &t.report(), None);
        assert!(!single.contains("frapp_peer_"));
    }

    #[test]
    fn observe_value_and_observe_share_buckets() {
        let h = LatencyHistogram::new();
        h.observe(Duration::from_micros(5));
        h.observe_value(5);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.buckets, vec![(8, 2)]);
    }
}
