//! End-to-end conformance suite for the background-job subsystem: the
//! `mine_rules`/`classify`/`job_*` ops over real sockets on all three
//! framings (line-JSON, HTTP, binary) and both front-ends (threaded,
//! reactor), cancellation latency, queue shedding, TTL retention, the
//! ingest staying off the job workers, a chi-squared / itemset-recovery
//! accuracy check against exact mining, and property tests driving
//! random submit/cancel/status/result interleavings against a model
//! state machine.

use frapp_core::dataset::Dataset;
use frapp_core::schema::Schema;
use frapp_mining::apriori::{apriori, AprioriParams};
use frapp_mining::estimators::ExactSupport;
use frapp_service::client::{job_status_is_terminal, Client, HttpClient, SessionSpec};
use frapp_service::json::Value;
use frapp_service::session::Mechanism;
use frapp_service::wire::Counter;
use frapp_service::{FaultPlan, MineAlgo, MineSpec, Server, ServiceConfig, ServiceError};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const GAMMA: f64 = 19.0;

fn mine_spec(seed: u64) -> SessionSpec {
    SessionSpec {
        schema: vec![("a".into(), 3), ("b".into(), 2), ("c".into(), 2)],
        mechanism: Mechanism::Deterministic { gamma: GAMMA },
        shards: Some(2),
        seed: Some(seed),
    }
}

/// The planted mixture the unit suite uses: [0,0,0] at 50%, [1,1,1] at
/// 30%, [2,0,1] at 20% — majority itemsets far from any mining
/// threshold used below.
fn mixture(n: usize) -> Vec<Vec<u32>> {
    (0..n)
        .map(|i| match i % 10 {
            0..=4 => vec![0, 0, 0],
            5..=7 => vec![1, 1, 1],
            _ => vec![2, 0, 1],
        })
        .collect()
}

fn load(client: &mut Client, session: u64, records: &[Vec<u32>], pre_perturbed: bool) {
    for batch in records.chunks(1_000) {
        client.submit_batch(session, batch, pre_perturbed).unwrap();
    }
}

fn wait_state(client: &mut Client, job: u64, state: &str) {
    for _ in 0..500 {
        let status = client.job_status(job).unwrap();
        if status.get("state").and_then(Value::as_str) == Some(state) {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("job {job} never reached state {state}");
}

#[test]
fn mining_results_are_bit_identical_across_framings_and_front_ends() {
    // The same pre-perturbed stream (client-side values, so the server
    // draws no RNG) mined through every framing on both front-ends:
    // all six result payloads per algorithm must be byte-identical.
    let records = mixture(20_000);
    let mut per_front_end: Vec<Vec<String>> = Vec::new();

    for reactor in [false, true] {
        let mut config = ServiceConfig::default().with_http_addr("127.0.0.1:0");
        if reactor {
            config = config.with_reactor(1);
        }
        let handle = Server::bind(config).unwrap().spawn().unwrap();
        let mut line = Client::connect(handle.addr()).unwrap();
        let mut binary = Client::connect(handle.addr()).unwrap();
        binary.negotiate_binary().unwrap();
        let mut http = HttpClient::connect(handle.http_addr().unwrap()).unwrap();

        let session = line.create_session(&mine_spec(7)).unwrap();
        load(&mut line, session, &records, true);

        let mut results = Vec::new();
        for algo in [MineAlgo::Apriori, MineAlgo::FpGrowth] {
            let spec = MineSpec {
                algo,
                min_support: 0.15,
                min_confidence: 0.5,
                max_length: 0,
            };
            let mut framing_results = Vec::new();
            let jobs = [
                line.mine_rules(session, &spec).unwrap(),
                binary.mine_rules(session, &spec).unwrap(),
                http.mine_rules(session, &spec).unwrap(),
            ];
            for job in jobs {
                let status = line.wait_job(job, Duration::from_secs(30)).unwrap();
                assert_eq!(
                    status.get("state").and_then(Value::as_str),
                    Some("done"),
                    "{status:?}"
                );
                framing_results.push(line.job_result(job).unwrap().to_json());
            }
            // A job submitted over one framing is visible over the
            // others (one server-wide job namespace).
            assert_eq!(framing_results[0], framing_results[1], "line vs binary");
            assert_eq!(framing_results[0], framing_results[2], "line vs http");
            assert!(
                framing_results[0].contains("\"rules\":[{"),
                "no rules mined: {}",
                framing_results[0]
            );
            // HTTP sees the same result bytes when it asks itself.
            let via_http = http.job_result(jobs[2]).unwrap().to_json();
            assert_eq!(framing_results[2], via_http);
            results.push(framing_results.remove(0));
        }
        per_front_end.push(results);
        handle.shutdown().unwrap();
    }

    assert_eq!(
        per_front_end[0], per_front_end[1],
        "threaded and reactor front-ends mined different results"
    );
}

#[test]
fn cancelling_a_running_job_is_bounded_and_final() {
    // The injected delay pins the job in `running`; cancellation must
    // land cooperatively within the checkpoint bound, far below the
    // job's natural runtime.
    let config = ServiceConfig {
        fault_plan: FaultPlan::parse("seed=1,job_exec=delay(1500):1.0").unwrap(),
        ..ServiceConfig::default()
    };
    let handle = Server::bind(config).unwrap().spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let session = client.create_session(&mine_spec(7)).unwrap();
    load(&mut client, session, &mixture(2_000), true);

    let job = client.mine_rules(session, &MineSpec::default()).unwrap();
    wait_state(&mut client, job, "running");

    let cancelled_at = Instant::now();
    client.job_cancel(job).unwrap();
    let status = client.wait_job(job, Duration::from_secs(10)).unwrap();
    let latency = cancelled_at.elapsed();
    assert_eq!(
        status.get("state").and_then(Value::as_str),
        Some("cancelled"),
        "{status:?}"
    );
    // Bounded: the injected 1.5 s delay plus one mining checkpoint,
    // with generous CI slack — never the 10 s wait ceiling.
    assert!(latency < Duration::from_secs(5), "cancel took {latency:?}");

    // Terminal means terminal: the cancelled state survives re-cancel
    // and re-status, and the result op refuses in-band.
    let again = client.job_cancel(job).unwrap();
    assert_eq!(
        again.get("state").and_then(Value::as_str),
        Some("cancelled")
    );
    let err = client.job_result(job).unwrap_err();
    assert!(matches!(err, ServiceError::Remote { ref message, .. }
        if message.contains("cancelled")));

    assert!(
        handle
            .transport_metrics()
            .report()
            .get(Counter::JobsCancelled)
            >= 1
    );
    handle.shutdown().unwrap();
}

#[test]
fn full_job_queue_sheds_in_band() {
    // One worker pinned by the delay + a one-slot queue: the third
    // submission must shed with an in-band error, counted in jobs_shed,
    // without disturbing the queued job.
    let config = ServiceConfig {
        job_threads: 1,
        job_queue_depth: 1,
        fault_plan: FaultPlan::parse("seed=1,job_exec=delay(800):1.0").unwrap(),
        ..ServiceConfig::default()
    };
    let handle = Server::bind(config).unwrap().spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let session = client.create_session(&mine_spec(7)).unwrap();
    load(&mut client, session, &mixture(1_000), true);

    let spec = MineSpec::default();
    let running = client.mine_rules(session, &spec).unwrap();
    wait_state(&mut client, running, "running");
    let queued = client.mine_rules(session, &spec).unwrap();

    let err = client.mine_rules(session, &spec).unwrap_err();
    assert!(matches!(err, ServiceError::Remote { ref message, .. }
        if message.contains("job queue is full")));

    let report = client.server_metrics().unwrap();
    assert_eq!(report.get(Counter::JobsShed), 1);
    assert_eq!(
        report.get(Counter::JobsSubmitted),
        2,
        "sheds are not submissions"
    );

    // The shed left the accepted jobs intact; drain them.
    client.job_cancel(running).unwrap();
    client.job_cancel(queued).unwrap();
    for job in [running, queued] {
        let status = client.wait_job(job, Duration::from_secs(10)).unwrap();
        assert!(job_status_is_terminal(&status), "{status:?}");
    }
    handle.shutdown().unwrap();
}

#[test]
fn expired_jobs_answer_unknown_job_on_every_framing() {
    let config = ServiceConfig {
        job_result_ttl_secs: 1,
        ..ServiceConfig::default()
    }
    .with_http_addr("127.0.0.1:0");
    let handle = Server::bind(config).unwrap().spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut http = HttpClient::connect(handle.http_addr().unwrap()).unwrap();
    let session = client.create_session(&mine_spec(7)).unwrap();
    load(&mut client, session, &mixture(1_000), true);

    let job = client.mine_rules(session, &MineSpec::default()).unwrap();
    let status = client.wait_job(job, Duration::from_secs(10)).unwrap();
    assert_eq!(status.get("state").and_then(Value::as_str), Some("done"));
    client.job_result(job).unwrap();

    std::thread::sleep(Duration::from_millis(1_300));

    // Purged: status, result and cancel all answer `unknown job` — on
    // HTTP that is the 404 mapping, same as an id that never existed.
    for err in [
        client.job_status(job).unwrap_err(),
        client.job_result(job).unwrap_err(),
        http.job_status(job).unwrap_err(),
        http.job_cancel(job).unwrap_err(),
    ] {
        assert!(
            matches!(err, ServiceError::Remote { ref message, .. }
            if message.contains("unknown job")),
            "{err:?}"
        );
    }
    assert!(client.list_jobs().unwrap().is_empty());
    handle.shutdown().unwrap();
}

#[test]
fn submit_latency_stays_bounded_while_the_job_pool_is_busy() {
    // Mining never executes on a connection-serving thread, checked by
    // order rather than by a clock: with both job workers pinned by jobs
    // that each sleep 4 s, every one of 200 synchronous submits returns
    // while both jobs still report `running`. The percentile bound is
    // the `bench_ingest --mining` smoke's to measure.
    let config = ServiceConfig {
        job_threads: 2,
        fault_plan: FaultPlan::parse("seed=1,job_exec=delay(4000):1.0").unwrap(),
        ..ServiceConfig::default()
    };
    let handle = Server::bind(config).unwrap().spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let session = client.create_session(&mine_spec(7)).unwrap();
    let records = mixture(15_000);
    load(&mut client, session, &records, true);

    // Occupy the whole pool.
    let spec = MineSpec {
        min_support: 0.001,
        ..MineSpec::default()
    };
    let jobs = [
        client.mine_rules(session, &spec).unwrap(),
        client.mine_rules(session, &spec).unwrap(),
    ];
    for job in jobs {
        wait_state(&mut client, job, "running");
    }

    for batch in records[..10_000].chunks(50) {
        client.submit_batch(session, batch, true).unwrap();
    }
    assert_eq!(client.stats(session).unwrap().total, 25_000);
    for job in jobs {
        let status = client.job_status(job).unwrap();
        assert_eq!(
            status.get("state").and_then(Value::as_str),
            Some("running"),
            "every submit must return while the pool is still busy: {status:?}"
        );
    }

    for job in jobs {
        client.job_cancel(job).unwrap();
        client.wait_job(job, Duration::from_secs(15)).unwrap();
    }
    handle.shutdown().unwrap();
}

#[test]
fn reconstructed_mining_recovers_exact_itemsets_within_tolerance() {
    // The paper's accuracy claim, end to end: mine over the *perturbed
    // and reconstructed* session (server-side DET-GD at gamma 19,
    // seeded) and compare against exact Apriori on the original
    // records. Itemsets whose exact support sits outside the tolerance
    // band around the threshold must agree exactly; only the band may
    // differ. A chi-squared statistic over the reconstructed cell
    // counts guards the distribution itself.
    const MIN_SUPPORT: f64 = 0.10;
    const TOLERANCE: f64 = 0.05; // band half-width around the threshold
    const CHI2_BOUND: f64 = 120.0; // seeded run observes far less; df = 11

    let n = 50_000;
    let records = mixture(n);
    let handle = Server::bind(ServiceConfig::default())
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let session = client.create_session(&mine_spec(11)).unwrap();
    // Raw submission: the server perturbs with its seeded stream.
    load(&mut client, session, &records, false);

    // Chi-squared between the clamped reconstruction and the true
    // distribution.
    let schema = Schema::new(vec![("a", 3), ("b", 2), ("c", 2)]).unwrap();
    let dataset = Dataset::new(schema, records).unwrap();
    let true_counts = dataset.count_vector();
    let rec = client
        .reconstruct(
            session,
            frapp_service::session::ReconstructionMethod::ClosedForm,
            true,
        )
        .unwrap();
    let chi2: f64 = rec
        .estimates
        .iter()
        .zip(&true_counts)
        .filter(|(_, &t)| t > 0.0)
        .map(|(&e, &t)| (e - t) * (e - t) / t)
        .sum();
    assert!(
        chi2 < CHI2_BOUND,
        "chi-squared {chi2} over bound {CHI2_BOUND}"
    );

    // Mined-over-reconstruction vs exact mining on the original data.
    let job = client
        .mine_rules(
            session,
            &MineSpec {
                min_support: MIN_SUPPORT,
                ..MineSpec::default()
            },
        )
        .unwrap();
    let status = client.wait_job(job, Duration::from_secs(30)).unwrap();
    assert_eq!(status.get("state").and_then(Value::as_str), Some("done"));
    let result = client.job_result(job).unwrap();
    let mined: BTreeSet<Vec<u64>> = result
        .get("itemsets")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|s| {
            s.get("items")
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .filter_map(Value::as_u64)
                .collect()
        })
        .collect();

    let exact_estimator = ExactSupport::from_dataset(&dataset);
    let exact = apriori(
        &exact_estimator,
        &AprioriParams {
            min_support: MIN_SUPPORT,
            max_length: 0,
            max_candidates: 0,
        },
    );
    for (set, support) in exact.iter() {
        let items: Vec<u64> = set.to_vec().iter().map(|&i| i as u64).collect();
        if support >= MIN_SUPPORT + TOLERANCE {
            assert!(
                mined.contains(&items),
                "exact itemset {items:?} (support {support:.3}) missed by reconstruction"
            );
        }
    }
    for items in &mined {
        let set = frapp_mining::ItemSet::from_items(
            &items.iter().map(|&i| i as usize).collect::<Vec<_>>(),
        );
        let support = frapp_mining::SupportEstimator::estimate(&exact_estimator, set);
        assert!(
            support >= MIN_SUPPORT - TOLERANCE,
            "mined itemset {items:?} has exact support {support:.3}, a false positive"
        );
    }
    handle.shutdown().unwrap();
}

// ---- property tests: interleavings vs a model state machine ---------

mod interleavings {
    use super::*;
    use frapp_service::jobs::JobManager;
    use frapp_service::metrics::TransportMetrics;
    use frapp_service::session::{CollectionSession, SessionRegistry};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Wire states ordered so that progress is monotone: a later
    /// observation may never map to a smaller rank, and terminal
    /// observations must be identical.
    fn rank(state: &str) -> u32 {
        match state {
            "queued" => 0,
            "running" => 1,
            "done" | "failed" | "cancelled" => 2,
            other => panic!("unknown wire state {other}"),
        }
    }

    fn is_terminal(state: &str) -> bool {
        rank(state) == 2
    }

    fn session() -> Arc<CollectionSession> {
        let registry = SessionRegistry::new();
        let created = registry
            .create(
                Schema::new(vec![("a", 3), ("b", 2), ("c", 2)]).unwrap(),
                Mechanism::Deterministic { gamma: GAMMA },
                2,
                7,
                4096,
            )
            .unwrap();
        created.session.submit_batch(&mixture(500), true).unwrap();
        created.session
    }

    fn state_of(status: &Value) -> String {
        status
            .get("state")
            .and_then(Value::as_str)
            .expect("status has a state")
            .to_owned()
    }

    fn status_of(mgr: &JobManager, id: u64) -> Option<Value> {
        match mgr.status_pairs(id) {
            Ok(pairs) => Some(pairs[0].1.clone()),
            Err(ServiceError::UnknownJob(_)) => None,
            Err(other) => panic!("status: {other}"),
        }
    }

    proptest! {
        /// Random submit/cancel/status/result interleavings against
        /// the live manager: observed states never regress, terminal
        /// states never change, results only exist for `done`, and
        /// after a drain every job is terminal with `list_jobs`
        /// consistent with per-job `job_status`.
        #[test]
        fn interleaved_ops_never_regress_job_state(
            ops in prop::collection::vec(0usize..4 * 8, 1..40),
        ) {
            // A short injected delay keeps jobs alive long enough for
            // cancels and statuses to genuinely race the workers.
            let mgr = JobManager::new(
                2,
                8,
                600,
                Arc::new(TransportMetrics::new()),
                FaultPlan::parse("seed=1,job_exec=delay(20):1.0").unwrap(),
            );
            let session = session();
            let mut ids: Vec<u64> = Vec::new();
            // Model: highest state rank observed + the terminal state
            // string once one is seen.
            let mut observed: Vec<(u32, Option<String>)> = Vec::new();

            let check = |idx: usize, status: &Value, observed: &mut Vec<(u32, Option<String>)>| {
                let state = state_of(status);
                let (seen_rank, seen_terminal) = &mut observed[idx];
                prop_assert!(
                    rank(&state) >= *seen_rank,
                    "job {} regressed from rank {} to {}", idx, seen_rank, state
                );
                *seen_rank = rank(&state);
                if let Some(t) = seen_terminal {
                    prop_assert_eq!(&state, t, "terminal state changed");
                } else if is_terminal(&state) {
                    *seen_terminal = Some(state);
                }
            };

            for op in ops {
                let (kind, target) = (op % 4, op / 4);
                match kind {
                    0 => {
                        // Submit; a full queue shedding in-band is a
                        // legal outcome, not a model transition.
                        if let Ok(rec) =
                            mgr.submit_mine_rules(Arc::clone(&session), MineSpec::default())
                        {
                            ids.push(rec.id());
                            observed.push((0, None));
                        }
                    }
                    1 if !ids.is_empty() => {
                        let idx = target % ids.len();
                        let pairs = mgr.cancel_pairs(ids[idx]).unwrap();
                        check(idx, &pairs[0].1, &mut observed);
                    }
                    2 if !ids.is_empty() => {
                        let idx = target % ids.len();
                        if let Some(status) = status_of(&mgr, ids[idx]) {
                            check(idx, &status, &mut observed);
                        }
                    }
                    3 if !ids.is_empty() => {
                        let idx = target % ids.len();
                        // result is only an Ok for done jobs; any state
                        // may legally answer an in-band error.
                        if let Ok(pairs) = mgr.result_pairs(ids[idx]) {
                            let state = pairs
                                .iter()
                                .find(|(k, _)| *k == "state")
                                .map(|(_, v)| v.as_str().unwrap().to_owned())
                                .unwrap();
                            prop_assert_eq!(state, "done", "result from a non-done job");
                            let (seen_rank, _) = &mut observed[idx];
                            *seen_rank = 2;
                        }
                    }
                    _ => {}
                }
            }

            // Drain: every job must reach exactly one terminal state.
            for (idx, &id) in ids.iter().enumerate() {
                let deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    let status = status_of(&mgr, id).expect("ttl is long");
                    check(idx, &status, &mut observed);
                    if is_terminal(&state_of(&status)) {
                        break;
                    }
                    prop_assert!(Instant::now() < deadline, "job {id} never terminal");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }

            // Quiesced: list_jobs agrees byte-for-byte with per-job
            // status, covers exactly the submitted ids, and results
            // exist precisely for done jobs.
            let listed = mgr.list_pairs();
            let listed = listed[0].1.as_array().unwrap();
            prop_assert_eq!(listed.len(), ids.len());
            for entry in listed {
                let id = entry.get("job").and_then(Value::as_u64).unwrap();
                prop_assert!(ids.contains(&id), "listed unknown job {}", id);
                let status = status_of(&mgr, id).expect("listed implies queryable");
                prop_assert_eq!(entry.to_json(), status.to_json());
                let done = state_of(&status) == "done";
                prop_assert_eq!(mgr.result_pairs(id).is_ok(), done);
            }
        }
    }
}
