//! Criterion benchmarks for `frapp-service`: sharded ingest throughput
//! and reconstruction-query cost with and without the cached LU
//! factorization.
//!
//! Interpreting the ingest numbers: each iteration splits one batch
//! across `shards` worker threads, one pinned per shard. On a
//! single-core host the 1/4/8-shard timings come out flat — which is
//! itself the interesting datum (lock striping costs nothing) — while
//! multi-core hosts see per-shard wall-clock scaling because no two
//! threads ever touch the same counter vector.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use frapp_core::perturb::{GammaDiagonal, Perturber};
use frapp_core::Schema;
use frapp_service::session::{CollectionSession, Mechanism, ReconstructionMethod};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const GAMMA: f64 = 19.0;

fn schema() -> Schema {
    // 500-cell domain: big enough that reconstruction cost is visible,
    // small enough that the dense-LU comparison stays fair to run.
    Schema::new(vec![("a", 10), ("b", 10), ("c", 5)]).expect("static schema")
}

fn session(shards: usize) -> CollectionSession {
    CollectionSession::new(
        0,
        schema(),
        Mechanism::Deterministic { gamma: GAMMA },
        shards,
        7,
        4096,
    )
    .expect("valid session")
}

fn synthetic_records(n: usize) -> Vec<Vec<u32>> {
    let s = schema();
    let gd = GammaDiagonal::new(&s, GAMMA).expect("gamma > 1");
    let mut rng = StdRng::seed_from_u64(3);
    // Perturb a skewed base so the stream looks like real client
    // submissions.
    (0..n)
        .map(|i| {
            let base = vec![(i % 3) as u32, (i % 7) as u32, (i % 5) as u32];
            gd.perturb_record(&base, &mut rng).expect("valid record")
        })
        .collect()
}

/// Records ingested per timed iteration, split across worker threads.
/// Large enough that per-thread work dominates thread-spawn overhead,
/// so the shard-scaling signal is visible.
const INGEST_BATCH: usize = 65_536;

fn bench_sharded_ingest(c: &mut Criterion) {
    let records = synthetic_records(INGEST_BATCH);
    let mut group = c.benchmark_group("service_ingest");
    group.throughput(Throughput::Elements(INGEST_BATCH as u64));
    for shards in [1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("pre_perturbed", shards),
            &records,
            |b, records| {
                let session = session(shards);
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for (i, chunk) in records.chunks(records.len() / shards).enumerate() {
                            let session = &session;
                            scope.spawn(move || {
                                session
                                    .submit_batch_to_shard(i % shards, chunk, true)
                                    .expect("ingest");
                            });
                        }
                    });
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("server_perturbed", shards),
            &records,
            |b, records| {
                let session = session(shards);
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for (i, chunk) in records.chunks(records.len() / shards).enumerate() {
                            let session = &session;
                            scope.spawn(move || {
                                session
                                    .submit_batch_to_shard(i % shards, chunk, false)
                                    .expect("ingest");
                            });
                        }
                    });
                });
            },
        );
    }
    group.finish();
}

fn bench_reconstruction_queries(c: &mut Criterion) {
    let s = session(4);
    s.submit_batch(&synthetic_records(20_000), true)
        .expect("ingest");
    let mut group = c.benchmark_group("service_reconstruct");
    group.sample_size(10);
    // O(n) closed form: the production path.
    group.bench_function("closed_form", |b| {
        b.iter(|| {
            black_box(
                s.reconstruct(ReconstructionMethod::ClosedForm, true)
                    .unwrap(),
            )
        });
    });
    // Cached LU: the first call factors (O(n^3)), the steady state
    // measured here is O(n^2) solves against the cached factors.
    let warm = s.reconstruct(ReconstructionMethod::CachedLu, true).unwrap();
    assert!(!warm.lu_cache_hit);
    group.bench_function("cached_lu_repeat", |b| {
        b.iter(|| {
            let rec = s.reconstruct(ReconstructionMethod::CachedLu, true).unwrap();
            debug_assert!(rec.lu_cache_hit);
            black_box(rec)
        });
    });
    // Fresh LU: what every query would cost without the session cache.
    group.bench_function("fresh_lu_per_query", |b| {
        b.iter(|| black_box(s.reconstruct(ReconstructionMethod::FreshLu, true).unwrap()));
    });
    group.finish();
}

/// Snapshot persistence cost: what the periodic persister pays to dump
/// a loaded 500-cell, 4-shard session, and what recovery pays to read
/// it back (parse + count validation + RNG state restore).
fn bench_persistence(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("frapp-bench-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let session = session(4);
    // Server-perturbed ingest so the RNG state is not the seed state.
    let base: Vec<Vec<u32>> = (0..20_000)
        .map(|i| vec![(i % 3) as u32, (i % 7) as u32, (i % 5) as u32])
        .collect();
    session.submit_batch(&base, false).expect("ingest");

    let mut group = c.benchmark_group("service_persist");
    group.bench_function("save_snapshot", |b| {
        b.iter(|| black_box(frapp_service::persist::save_session(&dir, &session).unwrap()));
    });
    let path = frapp_service::persist::save_session(&dir, &session).expect("snapshot");
    group.bench_function("load_snapshot", |b| {
        b.iter(|| black_box(frapp_service::persist::load_session(&path, 4096, 1 << 24).unwrap()));
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(
    name = benches;
    config = quick_config();
    targets = bench_sharded_ingest, bench_reconstruction_queries, bench_persistence);
criterion_main!(benches);

/// Short measurement windows, matching the other benches in this crate.
fn quick_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20)
}
