//! End-to-end session lifecycle: LRU eviction under a `max_sessions`
//! cap, snapshot persistence across a full server restart (identical
//! reconstructions before and after), and deterministic continuation of
//! server-side perturbation after recovery.
//!
//! Temp directories honour `FRAPP_PERSIST_TEST_DIR` (set by CI to a
//! `mktemp -d` sandbox) and fall back to the system temp dir.

use frapp_service::client::{Client, SessionSpec};
use frapp_service::session::{Mechanism, ReconstructionMethod};
use frapp_service::{Server, ServiceConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const GAMMA: f64 = 19.0;

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let base = std::env::var_os("FRAPP_PERSIST_TEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let dir = base.join(format!(
        "frapp-lifecycle-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec(shards: usize, seed: u64) -> SessionSpec {
    SessionSpec {
        schema: vec![("a".into(), 4), ("b".into(), 3)],
        mechanism: Mechanism::Deterministic { gamma: GAMMA },
        shards: Some(shards),
        seed: Some(seed),
    }
}

fn records(n: usize, offset: u32) -> Vec<Vec<u32>> {
    (0..n)
        .map(|i| vec![(i as u32 + offset) % 4, (i as u32) % 3])
        .collect()
}

#[test]
fn registry_at_capacity_evicts_in_lru_order() {
    let config = ServiceConfig {
        max_sessions: 3,
        ..ServiceConfig::default()
    };
    let handle = Server::bind(config).unwrap().spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let s1 = client.create_session(&spec(1, 1)).unwrap();
    let s2 = client.create_session(&spec(1, 2)).unwrap();
    let s3 = client.create_session(&spec(1, 3)).unwrap();
    assert_eq!(client.list_sessions().unwrap(), vec![s1, s2, s3]);

    // Touch s1 so s2 becomes least-recently-used, then overflow the cap.
    client.stats(s1).unwrap();
    let s4 = client.create_session(&spec(1, 4)).unwrap();
    assert_eq!(client.list_sessions().unwrap(), vec![s1, s3, s4]);
    let err = client.stats(s2).unwrap_err();
    assert!(
        err.to_string().contains("unknown session"),
        "evicted session must be gone: {err}"
    );

    // With no further touches, creation order is eviction order: the
    // next create evicts s3.
    let s5 = client.create_session(&spec(1, 5)).unwrap();
    assert_eq!(client.list_sessions().unwrap(), vec![s1, s4, s5]);

    handle.shutdown().unwrap();
}

#[test]
fn restarted_server_serves_identical_reconstructions() {
    let dir = temp_dir("restart");
    let config = ServiceConfig::default().with_persist_dir(&dir);

    // First server lifetime: ingest both pre-perturbed and raw records
    // across two shards, snapshot via the persist op, reconstruct.
    let handle = Server::bind(config.clone()).unwrap().spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let session = client.create_session(&spec(2, 0xBEEF)).unwrap();
    client
        .submit_batch_to_shard(session, 0, &records(2_000, 0), false)
        .unwrap();
    client
        .submit_batch_to_shard(session, 1, &records(1_000, 1), true)
        .unwrap();
    assert_eq!(client.persist(Some(session)).unwrap(), vec![session]);
    let before = client
        .reconstruct(session, ReconstructionMethod::ClosedForm, false)
        .unwrap();
    assert_eq!(before.n, 3_000);
    handle.shutdown().unwrap();

    // Second lifetime over the same directory: the session is back
    // under its id with identical state, restored from native RNG
    // state words.
    let handle = Server::bind(config).unwrap().spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.list_sessions().unwrap(), vec![session]);
    let after = client
        .reconstruct(session, ReconstructionMethod::ClosedForm, false)
        .unwrap();
    assert_eq!(after.n, before.n);
    assert_eq!(
        after.estimates, before.estimates,
        "recovered reconstruction must be bit-identical"
    );
    let stats = client.stats(session).unwrap();
    assert_eq!(stats.per_shard, vec![2_000, 1_000]);
    handle.shutdown().unwrap();

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn raw_ingest_after_restart_matches_an_uninterrupted_server() {
    // The deterministic-replay acceptance: a server that restarts
    // mid-stream must perturb the remaining raw records with exactly
    // the RNG draws the uninterrupted server would have used.
    let first_half = records(1_500, 0);
    let second_half = records(1_500, 2);

    // Control: one uninterrupted server ingesting both halves.
    let control_handle = Server::bind(ServiceConfig::default())
        .unwrap()
        .spawn()
        .unwrap();
    let mut control = Client::connect(control_handle.addr()).unwrap();
    let control_session = control.create_session(&spec(1, 0xD1CE)).unwrap();
    control
        .submit_batch_to_shard(control_session, 0, &first_half, false)
        .unwrap();
    control
        .submit_batch_to_shard(control_session, 0, &second_half, false)
        .unwrap();
    let expected = control
        .reconstruct(control_session, ReconstructionMethod::ClosedForm, false)
        .unwrap();
    control_handle.shutdown().unwrap();

    // Interrupted: first half, clean shutdown (which snapshots), then a
    // fresh server over the same directory ingests the second half.
    let dir = temp_dir("replay");
    let config = ServiceConfig::default().with_persist_dir(&dir);
    let handle = Server::bind(config.clone()).unwrap().spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let session = client.create_session(&spec(1, 0xD1CE)).unwrap();
    client
        .submit_batch_to_shard(session, 0, &first_half, false)
        .unwrap();
    handle.shutdown().unwrap();

    let handle = Server::bind(config).unwrap().spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .submit_batch_to_shard(session, 0, &second_half, false)
        .unwrap();
    let actual = client
        .reconstruct(session, ReconstructionMethod::ClosedForm, false)
        .unwrap();
    assert_eq!(actual.n, expected.n);
    assert_eq!(
        actual.estimates, expected.estimates,
        "replayed perturbation must match the uninterrupted stream"
    );
    handle.shutdown().unwrap();

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cap_limited_recovery_keeps_the_newest_snapshots() {
    let dir = temp_dir("cap-recovery");
    let config = ServiceConfig::default().with_persist_dir(&dir);

    // Three sessions persisted with strictly increasing snapshot times.
    let handle = Server::bind(config.clone()).unwrap().spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut ids = Vec::new();
    for seed in 1..=3u64 {
        let id = client.create_session(&spec(1, seed)).unwrap();
        client.submit_batch(id, &records(10, 0), true).unwrap();
        client.persist(Some(id)).unwrap();
        ids.push(id);
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    // Leave only the on-demand snapshots: a blunt shutdown (abandoning
    // the handle would leak the server thread), so instead re-persist
    // the oldest session *first* and shut down — shutdown rewrites all
    // three, so recreate distinct mtimes by rewriting 2 and 3 last.
    handle.shutdown().unwrap();
    // Shutdown snapshotted all three at ~the same instant; force a
    // clear ordering: make session 1's file the oldest again.
    let old = std::time::SystemTime::now() - std::time::Duration::from_secs(60);
    let f = std::fs::File::options()
        .append(true)
        .open(frapp_service::persist::session_path(&dir, ids[0]))
        .unwrap();
    f.set_times(std::fs::FileTimes::new().set_modified(old))
        .unwrap();
    drop(f);

    // Recover under a 2-session cap: the oldest snapshot (session 1)
    // must be the one skipped.
    let config = ServiceConfig {
        max_sessions: 2,
        ..ServiceConfig::default().with_persist_dir(&dir)
    };
    let handle = Server::bind(config).unwrap().spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.list_sessions().unwrap(), vec![ids[1], ids[2]]);
    handle.shutdown().unwrap();

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn partial_batch_error_carries_the_retry_offset_over_the_wire() {
    let handle = Server::bind(ServiceConfig::default())
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let session = client.create_session(&spec(1, 7)).unwrap();

    // Record 2 is out of the schema's domain.
    let batch = vec![vec![0, 0], vec![1, 1], vec![9, 9], vec![2, 2]];
    let err = client.submit_batch(session, &batch, true).unwrap_err();
    match err {
        frapp_service::ServiceError::Remote { accepted, .. } => assert_eq!(accepted, Some(2)),
        other => panic!("expected a remote error with an accepted count, got {other:?}"),
    }
    // Following the contract — resubmit only records[accepted..] with
    // the bad record dropped — lands every valid record exactly once.
    client
        .submit_batch(session, &[batch[3].clone()], true)
        .unwrap();
    assert_eq!(client.stats(session).unwrap().total, 3);
    handle.shutdown().unwrap();
}

#[test]
fn metrics_are_served_over_the_wire() {
    let handle = Server::bind(ServiceConfig::default())
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let session = client.create_session(&spec(2, 7)).unwrap();
    client
        .submit_batch(session, &records(500, 0), true)
        .unwrap();
    client
        .reconstruct(session, ReconstructionMethod::ClosedForm, true)
        .unwrap();

    let (report, total) = client.metrics(session).unwrap();
    assert_eq!(total, 500);
    assert_eq!(report.records_ingested, 500);
    assert_eq!(report.batches, 1);
    assert_eq!(report.reconstructions, 1);
    assert_eq!(report.query_latency.count, 1);
    assert_eq!(
        report
            .query_latency
            .buckets
            .iter()
            .map(|&(_, c)| c)
            .sum::<u64>(),
        1
    );
    assert!(report.ingest_rate > 0.0);

    let detail = client.list_sessions_detail().unwrap();
    assert_eq!(detail.len(), 1);
    assert_eq!(detail[0].total, 500);
    assert_eq!(detail[0].shards, 2);
    handle.shutdown().unwrap();
}
