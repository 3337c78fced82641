//! Per-shard ingest state.
//!
//! A [`crate::session::CollectionSession`] splits its count state across
//! `S` shards so concurrent batches never contend on one counter
//! vector: each shard owns an independent [`CountAccumulator`] and an
//! independent deterministically-seeded RNG, and is protected by its own
//! mutex. Merging shards is `O(S·n)` at snapshot time, which the
//! reconstruction path amortizes over the whole ingested stream.
//!
//! Ingest runs in the *index domain*: the session encodes (and thereby
//! validates) a whole batch once, outside the shard lock, and the shard
//! loop is `perturb_index` → `observe_index` — at most two RNG draws and
//! zero allocations per record. Once the periodic persister has written
//! a full base for its session, each shard also tracks the per-cell
//! count increments since the last flush, so later ticks append sparse
//! deltas instead of rewriting the whole count vector (see
//! [`crate::persist`]).

use crate::error::{Result, ServiceError};
use frapp_core::perturb::Perturber;
use frapp_core::{CountAccumulator, Schema};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;

/// Multiplier mixing a shard index into the session seed (SplitMix64's
/// golden-ratio increment). Kept stable and public-in-effect: tests and
/// offline replays rely on shard `i` of a session seeded `s` drawing
/// from `StdRng::seed_from_u64(shard_seed(s, i))`.
const SHARD_SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// The RNG seed used by shard `index` of a session with base seed
/// `session_seed`. Deterministic so any server-side perturbation can be
/// reproduced offline record-for-record.
pub fn shard_seed(session_seed: u64, index: usize) -> u64 {
    session_seed.wrapping_add(SHARD_SEED_MIX.wrapping_mul(index as u64 + 1))
}

/// The shard RNG: the shim's xoshiro generator wrapped in a draw
/// counter.
///
/// The persisted truth is the generator's native state words
/// ([`StdRng::to_state_words`]), which recovery restores in O(1); the
/// draw counter is kept for observability.
#[derive(Debug, Clone)]
struct CountingRng {
    inner: StdRng,
    draws: u64,
}

impl CountingRng {
    fn seeded(seed: u64) -> Self {
        CountingRng {
            inner: StdRng::seed_from_u64(seed),
            draws: 0,
        }
    }

    /// A generator restored from exported state words.
    fn from_state(state: [u64; 4], draws: u64) -> Self {
        CountingRng {
            inner: StdRng::from_state_words(state),
            draws,
        }
    }
}

impl RngCore for CountingRng {
    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

/// The state one persistence flush drains from a shard: the sparse
/// count increments since the previous flush, plus the shard's absolute
/// position (records counted, RNG state) *after* those increments.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardDelta {
    /// Index of the shard within its session.
    pub shard: usize,
    /// Absolute records-counted total after this delta.
    pub ingested: u64,
    /// Absolute RNG draw count after this delta.
    pub rng_draws: u64,
    /// The RNG's native state words after this delta.
    pub rng_state: [u64; 4],
    /// `(cell, increment)` pairs, ascending by cell; only cells touched
    /// since the last flush appear.
    pub cells: Vec<(usize, u64)>,
    /// Full replication-watermark map `(origin, last applied seq)` at
    /// the moment the delta was taken. Carried whole (it is at most one
    /// entry per federation peer) so a recovered shard's dedup state is
    /// always consistent with its recovered counts.
    pub repl: Vec<(u64, u64)>,
}

/// One ingest shard: a count accumulator, its private RNG, and (when
/// delta tracking is enabled) the per-cell increments accumulated
/// since the last persistence flush.
#[derive(Debug)]
pub struct Shard {
    acc: CountAccumulator,
    rng: CountingRng,
    ingested: u64,
    /// Count increments since the last flush, dense over the domain;
    /// empty while delta tracking is off. Only the periodic persister's
    /// full base turns it on ([`Shard::rebase_delta`]), so a shard on a
    /// server without `--persist-interval` never pays the extra array
    /// (which doubles count-storage memory) or the per-record increment,
    /// however often it is snapshotted. A failed flush turns it off
    /// again ([`Shard::drop_delta_tracking`]).
    delta: Vec<u64>,
    /// Whether any record has been counted since the last flush.
    dirty: bool,
    /// Replication watermarks: for each federation origin node that has
    /// forwarded batches into this shard, the highest contiguously
    /// applied sequence number. Advanced under the shard lock in the
    /// same critical section as the counts and persisted alongside
    /// them, so a batch retried after a crash or reconnect is detected
    /// as a duplicate exactly when its counts survived.
    repl: BTreeMap<u64, u64>,
}

impl Shard {
    /// A fresh shard for `schema`, with the RNG derived from the
    /// session seed and this shard's index via [`shard_seed`].
    pub fn new(schema: Schema, session_seed: u64, index: usize) -> Self {
        Shard {
            acc: CountAccumulator::new(schema),
            rng: CountingRng::seeded(shard_seed(session_seed, index)),
            ingested: 0,
            delta: Vec::new(),
            dirty: false,
            repl: BTreeMap::new(),
        }
    }

    /// Rebuilds a shard from persisted state: the count vector plus
    /// the RNG's native state words. O(1) in the draws consumed.
    pub fn recover_from_state(
        schema: Schema,
        index: usize,
        counts: Vec<f64>,
        ingested: u64,
        rng_state: [u64; 4],
        rng_draws: u64,
    ) -> Result<Self> {
        let acc = CountAccumulator::from_counts(schema, counts)?;
        if acc.n() != ingested {
            return Err(ServiceError::Snapshot(format!(
                "shard {index} claims {ingested} ingested records but its \
                 counts total {}",
                acc.n()
            )));
        }
        Ok(Shard {
            acc,
            rng: CountingRng::from_state(rng_state, rng_draws),
            ingested,
            delta: Vec::new(),
            dirty: false,
            repl: BTreeMap::new(),
        })
    }

    /// Number of records this shard has counted.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Number of RNG draws consumed by raw-record perturbation so far.
    pub fn rng_draws(&self) -> u64 {
        self.rng.draws
    }

    /// The RNG's native state words (persisted by snapshot v2).
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.inner.to_state_words()
    }

    /// The shard's current count vector.
    pub fn counts(&self) -> &[f64] {
        self.acc.counts()
    }

    /// Whether any record has been counted since the last
    /// [`Shard::take_delta`].
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// The replication watermarks: `origin node -> last applied seq`.
    pub fn repl_watermarks(&self) -> &BTreeMap<u64, u64> {
        &self.repl
    }

    /// Restores replication watermarks from persisted state (recovery
    /// only — later entries win, matching delta-replay order).
    pub fn set_repl_watermarks(&mut self, marks: impl IntoIterator<Item = (u64, u64)>) {
        for (origin, seq) in marks {
            self.repl.insert(origin, seq);
        }
    }

    /// Claims a forwarded batch `(origin, seq)` for application.
    /// Returns `false` — and changes nothing — when the batch was
    /// already applied (`seq` at or below the origin's watermark), so a
    /// forwarder retrying after a dropped connection can never
    /// double-count. Must be called under the shard lock in the same
    /// critical section as the ingest it guards.
    pub fn repl_claim(&mut self, origin: u64, seq: u64) -> bool {
        let mark = self.repl.entry(origin).or_insert(0);
        if seq <= *mark {
            return false;
        }
        *mark = seq;
        true
    }

    /// Whether per-cell delta tracking is on.
    pub fn is_delta_tracking(&self) -> bool {
        !self.delta.is_empty()
    }

    /// Makes the current state the base later deltas are relative to:
    /// zeroes the pending increments if tracking is on, and turns it on
    /// first when `enable` is set. Called under the shard lock by the
    /// dump a full save writes.
    pub fn rebase_delta(&mut self, enable: bool) {
        if self.delta.is_empty() {
            if !enable {
                return;
            }
            self.delta = vec![0; self.acc.schema().domain_size()];
        } else {
            self.delta.fill(0);
        }
        self.dirty = false;
    }

    /// Turns delta tracking off and frees its array. Called after a
    /// failed flush, when disk may hold more than the last known base.
    pub fn drop_delta_tracking(&mut self) {
        self.delta = Vec::new();
        self.dirty = false;
    }

    /// Drains the per-cell increments accumulated since the last flush,
    /// returning `None` when the shard is clean or untracked (an
    /// untracked shard has no base for a delta to be relative to — the
    /// caller must write a full snapshot instead). The returned delta
    /// carries the shard's absolute position so a persisted delta
    /// stream is self-describing.
    pub fn take_delta(&mut self, shard_index: usize) -> Option<ShardDelta> {
        if !self.dirty || self.delta.is_empty() {
            return None;
        }
        let cells: Vec<(usize, u64)> = self
            .delta
            .iter_mut()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (i, std::mem::take(c)))
            .collect();
        self.dirty = false;
        Some(ShardDelta {
            shard: shard_index,
            ingested: self.ingested,
            rng_draws: self.rng.draws,
            rng_state: self.rng_state(),
            cells,
            repl: self.repl.iter().map(|(&o, &s)| (o, s)).collect(),
        })
    }

    /// Counts a batch of encoded records that clients already
    /// perturbed. Per-batch bookkeeping (record total, dirty flag) is
    /// hoisted out of the per-record loop.
    pub fn ingest_perturbed_indices(&mut self, indices: &[usize]) {
        if indices.is_empty() {
            return;
        }
        self.acc.observe_indices(indices);
        if !self.delta.is_empty() {
            for &index in indices {
                self.delta[index] += 1;
            }
        }
        self.ingested += indices.len() as u64;
        self.dirty = true;
    }

    /// Perturbs a batch of encoded raw records *in place* with this
    /// shard's RNG and counts the perturbed indices. The original
    /// indices are overwritten and never stored — matching the paper's
    /// trust model where the miner only ever retains `V = A(U)`.
    pub fn ingest_raw_indices(&mut self, indices: &mut [usize], perturber: &dyn Perturber) {
        perturber.perturb_indices(indices, &mut self.rng);
        self.ingest_perturbed_indices(indices);
    }

    /// Adds this shard's counts into `target`.
    pub fn merge_into(&self, target: &mut CountAccumulator) -> Result<()> {
        target.merge(&self.acc)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frapp_core::perturb::GammaDiagonal;

    fn schema() -> Schema {
        Schema::new(vec![("a", 3), ("b", 2)]).unwrap()
    }

    fn cell(record: &[u32]) -> usize {
        schema().encode(record).unwrap()
    }

    #[test]
    fn shard_seeds_are_distinct_and_deterministic() {
        let seeds: Vec<u64> = (0..16).map(|i| shard_seed(7, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 16);
        assert_eq!(shard_seed(7, 3), seeds[3]);
    }

    #[test]
    fn perturbed_ingest_counts_exactly() {
        let mut shard = Shard::new(schema(), 0, 0);
        shard.ingest_perturbed_indices(&[cell(&[1, 1])]);
        shard.ingest_perturbed_indices(&[cell(&[1, 1]), cell(&[2, 0])]);
        assert_eq!(shard.ingested(), 3);
        let mut acc = CountAccumulator::new(schema());
        shard.merge_into(&mut acc).unwrap();
        assert_eq!(acc.counts()[cell(&[1, 1])], 2.0);
        assert_eq!(acc.n(), 3);
    }

    #[test]
    fn recovered_shard_continues_the_rng_stream_exactly() {
        let s = schema();
        let gd = GammaDiagonal::new(&s, 19.0).unwrap();
        let first: Vec<Vec<u32>> = (0..400).map(|i| vec![i % 3, i % 2]).collect();
        let second: Vec<Vec<u32>> = (0..300).map(|i| vec![(i + 1) % 3, i % 2]).collect();

        // Uninterrupted reference run.
        let mut reference = Shard::new(s.clone(), 42, 1);
        for r in first.iter().chain(&second) {
            reference.ingest_raw_indices(&mut [cell(r)], &gd);
        }

        // Interrupted run: ingest, "persist", recover, continue.
        let mut before = Shard::new(s.clone(), 42, 1);
        for r in &first {
            before.ingest_raw_indices(&mut [cell(r)], &gd);
        }
        let mut after = Shard::recover_from_state(
            s,
            1,
            before.counts().to_vec(),
            before.ingested(),
            before.rng_state(),
            before.rng_draws(),
        )
        .unwrap();
        for r in &second {
            after.ingest_raw_indices(&mut [cell(r)], &gd);
        }

        assert_eq!(after.ingested(), reference.ingested());
        assert_eq!(after.rng_draws(), reference.rng_draws());
        assert_eq!(after.counts(), reference.counts());
    }

    #[test]
    fn recover_rejects_inconsistent_snapshots() {
        let s = schema();
        let state = [1, 2, 3, 4];
        // Wrong domain size.
        assert!(Shard::recover_from_state(s.clone(), 0, vec![0.0; 3], 0, state, 0).is_err());
        // Ingested count contradicting the count total.
        let counts = vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        assert!(Shard::recover_from_state(s.clone(), 0, counts.clone(), 5, state, 0).is_err());
        assert!(Shard::recover_from_state(s, 0, counts, 1, state, 0).is_ok());
    }

    #[test]
    fn raw_ingest_replays_offline_with_same_seed() {
        let s = schema();
        let gd = GammaDiagonal::new(&s, 19.0).unwrap();
        let records: Vec<Vec<u32>> = (0..500).map(|i| vec![i % 3, i % 2]).collect();

        // One batch on the shard against one draw per record offline:
        // the batch path consumes the identical draw sequence.
        let mut shard = Shard::new(s.clone(), 42, 0);
        let mut indices: Vec<usize> = records.iter().map(|r| cell(r)).collect();
        shard.ingest_raw_indices(&mut indices, &gd);
        let mut via_shard = CountAccumulator::new(s.clone());
        shard.merge_into(&mut via_shard).unwrap();

        // Offline replay: same derived seed, same record order, same
        // index-domain sampler the shard uses.
        let mut rng = StdRng::seed_from_u64(shard_seed(42, 0));
        let mut offline = CountAccumulator::new(s.clone());
        for r in &records {
            let u = s.encode(r).unwrap();
            offline.observe_index(gd.perturb_index(u, &mut rng));
        }
        assert_eq!(via_shard.counts(), offline.counts());
    }

    #[test]
    fn untracked_shards_never_yield_deltas() {
        // Without a base snapshot there is nothing for a delta to be
        // relative to: a dirty but untracked shard must force the
        // caller onto the full-snapshot path (take_delta -> None), and
        // must not pay the dense delta array at all.
        let mut shard = Shard::new(schema(), 0, 0);
        assert!(!shard.is_delta_tracking());
        shard.ingest_perturbed_indices(&[cell(&[1, 1])]);
        assert!(shard.is_dirty());
        assert!(shard.take_delta(0).is_none());
        // A full save that does not ask for tracking leaves it off.
        shard.rebase_delta(false);
        assert!(!shard.is_delta_tracking());
        // The periodic persister's base turns it on and starts the
        // delta stream from the current state.
        shard.rebase_delta(true);
        assert!(shard.is_delta_tracking());
        assert!(!shard.is_dirty());
        shard.ingest_perturbed_indices(&[cell(&[0, 0])]);
        let delta = shard.take_delta(0).unwrap();
        assert_eq!(delta.cells, vec![(0, 1)]);
        assert_eq!(delta.ingested, 2, "absolute position, not delta-relative");
    }

    #[test]
    fn repl_claims_are_exactly_once_and_survive_delta_flushes() {
        let mut shard = Shard::new(schema(), 0, 0);
        assert!(shard.repl_claim(3, 1), "first delivery applies");
        assert!(!shard.repl_claim(3, 1), "retry of the same seq is a no-op");
        assert!(shard.repl_claim(3, 2));
        assert!(!shard.repl_claim(3, 2));
        assert!(shard.repl_claim(9, 1), "watermarks are per origin");
        assert_eq!(shard.repl_watermarks().get(&3), Some(&2));

        // The watermark map rides along with every delta so persisted
        // dedup state always matches persisted counts.
        shard.rebase_delta(true);
        shard.ingest_perturbed_indices(&[cell(&[0, 0])]);
        let delta = shard.take_delta(0).unwrap();
        assert_eq!(delta.repl, vec![(3, 2), (9, 1)]);

        // Recovery restores the marks; stale retries stay rejected.
        let mut recovered = Shard::new(schema(), 0, 0);
        recovered.set_repl_watermarks(delta.repl.clone());
        assert!(!recovered.repl_claim(3, 2));
        assert!(recovered.repl_claim(3, 3));
    }

    #[test]
    fn delta_tracking_drains_rebases_and_drops() {
        let s = schema();
        let mut shard = Shard::new(s.clone(), 0, 2);
        shard.rebase_delta(true);
        assert!(!shard.is_dirty());
        assert!(shard.take_delta(2).is_none());

        shard.ingest_perturbed_indices(&[cell(&[1, 1])]);
        shard.ingest_perturbed_indices(&[cell(&[1, 1])]);
        shard.ingest_perturbed_indices(&[cell(&[0, 0])]);
        assert!(shard.is_dirty());
        let delta = shard.take_delta(2).expect("dirty shard yields a delta");
        assert_eq!(delta.shard, 2);
        assert_eq!(delta.ingested, 3);
        assert_eq!(delta.rng_state, shard.rng_state());
        let hot = s.encode(&[1, 1]).unwrap();
        assert_eq!(delta.cells, vec![(s.encode(&[0, 0]).unwrap(), 1), (hot, 2)]);
        assert!(!shard.is_dirty());
        assert!(shard.take_delta(2).is_none(), "drained shard is clean");

        // Increments since the flush form the next delta.
        shard.ingest_perturbed_indices(&[cell(&[2, 0])]);
        let next = shard.take_delta(2).unwrap();
        assert_eq!(next.cells, vec![(cell(&[2, 0]), 1)]);
        assert_eq!(next.ingested, 4);

        // A rebase (a full save while tracking) zeroes what is pending
        // without turning tracking off, even when not asked to enable.
        shard.ingest_perturbed_indices(&[cell(&[0, 1])]);
        shard.rebase_delta(false);
        assert!(shard.is_delta_tracking());
        assert!(shard.take_delta(2).is_none());

        // A failed flush drops tracking and its array.
        shard.ingest_perturbed_indices(&[cell(&[0, 1])]);
        shard.drop_delta_tracking();
        assert!(!shard.is_delta_tracking() && !shard.is_dirty());
        assert!(shard.take_delta(2).is_none());
    }
}
