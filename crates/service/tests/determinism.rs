//! Concurrent-ingest determinism: because every shard owns a seeded RNG
//! derived from `(session seed, shard index)`, ingesting the same
//! per-shard record partitions concurrently must produce exactly the
//! counts of a single-threaded run — independent of thread scheduling.

use frapp_core::Schema;
use frapp_service::session::{CollectionSession, Mechanism, Placement, ReconstructionMethod};

const SHARDS: usize = 4;
const RECORDS_PER_SHARD: usize = 12_500;

fn schema() -> Schema {
    Schema::new(vec![("a", 4), ("b", 3), ("c", 2)]).unwrap()
}

fn session() -> CollectionSession {
    CollectionSession::new(
        1,
        schema(),
        Mechanism::Deterministic { gamma: 19.0 },
        SHARDS,
        0xDEED,
        4096,
    )
    .unwrap()
}

/// The partition of client records assigned to one shard.
fn partition(shard: usize) -> Vec<Vec<u32>> {
    (0..RECORDS_PER_SHARD)
        .map(|i| {
            let k = shard * RECORDS_PER_SHARD + i;
            vec![(k % 4) as u32, ((k / 4) % 3) as u32, ((k / 12) % 2) as u32]
        })
        .collect()
}

#[test]
fn concurrent_ingest_matches_single_threaded_counts() {
    // Concurrent: four threads, one shard each, batched submissions.
    let concurrent = session();
    std::thread::scope(|scope| {
        for shard in 0..SHARDS {
            let session = &concurrent;
            scope.spawn(move || {
                for batch in partition(shard).chunks(997) {
                    session
                        .ingest(Placement::Shard(shard), batch, false)
                        .unwrap();
                }
            });
        }
    });

    // Sequential: same shard assignment, single thread, different
    // batching (batch boundaries must not matter either).
    let sequential = session();
    for shard in 0..SHARDS {
        for batch in partition(shard).chunks(64) {
            sequential
                .ingest(Placement::Shard(shard), batch, false)
                .unwrap();
        }
    }

    let a = concurrent.snapshot();
    let b = sequential.snapshot();
    assert_eq!(a.n() as usize, SHARDS * RECORDS_PER_SHARD);
    assert_eq!(a.counts(), b.counts(), "scheduling changed the counts");

    // And the reconstructions built on those counts agree bit-for-bit.
    let ra = concurrent
        .reconstruct(ReconstructionMethod::ClosedForm, false)
        .unwrap();
    let rb = sequential
        .reconstruct(ReconstructionMethod::ClosedForm, false)
        .unwrap();
    assert_eq!(ra.estimates, rb.estimates);
}

#[test]
fn pre_perturbed_ingest_is_order_independent_across_shards() {
    // Pre-perturbed records involve no RNG at all, so even *round-robin*
    // submission across racing threads must yield identical merged
    // counts regardless of which shard each batch landed on.
    let records: Vec<Vec<u32>> = (0..20_000)
        .map(|k| vec![(k % 4) as u32, (k % 3) as u32, (k % 2) as u32])
        .collect();

    let racing = session();
    std::thread::scope(|scope| {
        for chunk in records.chunks(2_500) {
            let session = &racing;
            scope.spawn(move || {
                for batch in chunk.chunks(333) {
                    session.submit_batch(batch, true).unwrap();
                }
            });
        }
    });

    let reference = session();
    reference
        .ingest(Placement::Shard(0), &records, true)
        .unwrap();

    assert_eq!(racing.snapshot().counts(), reference.snapshot().counts());
}
