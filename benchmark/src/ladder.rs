//! The in-process cost ladder: the same seeded inputs replayed on one
//! thread through public functions only, one rung per layer, so that
//! differences between rungs attribute the out-of-process numbers.
//!
//! The functions called here are the frozen surface listed in the
//! README; renaming one is preceded by a benchmark change.

use crate::inputs::{exact_frequent, Data, Pool, GAMMA, MIN_SUPPORT};
use crate::run::{Metrics, Res, ScratchDir};
use crate::stats::median;
use frapp_core::perturb::{GammaDiagonal, Perturber};
use frapp_core::reconstruct::{clamp_counts, GammaDiagonalReconstructor};
use frapp_core::CountAccumulator;
use frapp_mining::apriori::{apriori, AprioriParams};
use frapp_mining::estimators::GammaDiagonalSupport;
use frapp_mining::rules::generate_rules;
use frapp_mining::{fp_growth_from_counts, NoHook};
use frapp_service::dispatch::{dispatch_into, ConnState};
use frapp_service::framing::encode_submit_frame;
use frapp_service::json::{self, object, Value};
use frapp_service::persist::{load_session, save_session};
use frapp_service::protocol::{
    parse_request, parse_submit_line_fast, write_reconstruction_response,
};
use frapp_service::session::{Mechanism, ReconstructionMethod};
use frapp_service::{
    Client, CollectionSession, HttpClient, ServiceConfig, SessionRegistry, TransportMetrics,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// Median nanoseconds per call of `f` over seven samples that together
/// take about `budget` (three samples of one call each when a single
/// call already exceeds it).
fn time_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let probe = Instant::now();
    f();
    let once = probe.elapsed().max(Duration::from_nanos(50));
    let samples = if once > budget { 3 } else { 7 };
    let per_sample = (budget / samples).as_nanos() / once.as_nanos();
    let iters = per_sample.clamp(1, 1 << 24) as u32;
    let samples: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    median(&samples)
}

/// What a shipped client wrote for one request, captured by a local
/// sink that answers like the server would.
fn capture_request(
    reply: &'static str,
    send: impl FnOnce(std::net::SocketAddr) -> Res<()>,
) -> Res<Vec<u8>> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let sink = std::thread::spawn(move || -> std::io::Result<Vec<u8>> {
        let (mut stream, _) = listener.accept()?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut request = Vec::new();
        // A line-protocol request is one line; an HTTP request is a
        // head, a blank line and Content-Length bytes.
        let mut content_length = None;
        loop {
            let mut line = Vec::new();
            if reader.read_until(b'\n', &mut line)? == 0 {
                break;
            }
            let text = String::from_utf8_lossy(&line).to_ascii_lowercase();
            if let Some(v) = text.strip_prefix("content-length:") {
                content_length = v.trim().parse::<usize>().ok();
            }
            let head_done = line == b"\r\n";
            let is_line_protocol = request.is_empty() && line.starts_with(b"{");
            request.extend_from_slice(&line);
            if is_line_protocol {
                break;
            }
            if head_done {
                let mut body = vec![0; content_length.unwrap_or(0)];
                reader.read_exact(&mut body)?;
                request.extend_from_slice(&body);
                break;
            }
        }
        stream.write_all(reply.as_bytes())?;
        Ok(request)
    });
    send(addr)?;
    Ok(sink.join().expect("sink thread panicked")?)
}

/// Climbs every rung; `budget` is the time each one may take.
pub fn run(seed: u64, budget: Duration) -> Res<Metrics> {
    let mut metrics = Metrics::new();
    let census = Data::Census.schema();
    let health = Data::Health.schema();
    let raw = Pool::generate(Data::Census, seed, 1 << 16, 256, false);
    let b16 = Pool::generate(Data::Census, seed, 1 << 16, 16, true);
    let b256 = Pool::generate(Data::Census, seed, 1 << 16, 256, true);
    let health_pool = Pool::generate(Data::Health, seed, 1 << 17, 256, true);
    let config = ServiceConfig::default();
    let shards = config.default_shards;

    // core
    let gd = GammaDiagonal::new(&census, GAMMA)?;
    let cells: Vec<usize> = raw.raw_cells.concat().iter().map(|&c| c as usize).collect();
    let mut scratch = cells.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let per = |ns: f64, n: usize| ns / n as f64;
    let ns = time_ns(budget, || {
        scratch.copy_from_slice(&cells);
        gd.perturb_indices(black_box(&mut scratch), &mut rng);
    });
    metrics.insert("core.perturb.index_ns_per_record", per(ns, cells.len()));
    let records: Vec<&Vec<u32>> = raw.batches.iter().flatten().collect();
    let ns = time_ns(budget, || {
        for r in &records {
            black_box(census.encode(black_box(r)).expect("pool records are valid"));
        }
    });
    metrics.insert("core.schema.encode_ns_per_record", per(ns, records.len()));
    let mut acc = CountAccumulator::new(census.clone());
    let ns = time_ns(budget, || acc.observe_indices(black_box(&cells)));
    metrics.insert("core.dataset.observe_ns_per_record", per(ns, cells.len()));

    let health_session = CollectionSession::new(
        1,
        health.clone(),
        Mechanism::Deterministic { gamma: GAMMA },
        shards,
        seed,
        config.max_dense_domain,
    )?;
    for batch in &health_pool.batches {
        health_session.submit_batch(batch, true)?;
    }
    let snapshot = health_session.snapshot();
    let mut merged = CountAccumulator::new(health.clone());
    let ns = time_ns(budget, || {
        merged.merge(black_box(&snapshot)).expect("same schema")
    });
    metrics.insert(
        "core.dataset.merge_ns_per_cell",
        per(ns, health.domain_size()),
    );
    let reconstructor = GammaDiagonalReconstructor::new(&GammaDiagonal::new(&health, GAMMA)?);
    let ns = time_ns(budget, || {
        let mut est = reconstructor.reconstruct(black_box(snapshot.counts()));
        clamp_counts(&mut est, snapshot.n() as f64);
        black_box(est);
    });
    metrics.insert(
        "core.reconstruct.closed_form_ns_per_cell",
        per(ns, health.domain_size()),
    );

    // session
    let submit_rung = |pool: &Pool| -> Res<f64> {
        let session = CollectionSession::new(
            1,
            census.clone(),
            Mechanism::Deterministic { gamma: GAMMA },
            shards,
            seed,
            config.max_dense_domain,
        )?;
        let mut b = 0;
        let ns = time_ns(budget, || {
            session
                .submit_batch(&pool.batches[b], pool.pre_perturbed)
                .expect("pool records are valid");
            b = (b + 1) % pool.batches.len();
        });
        Ok(per(ns, pool.batch_size()))
    };
    let raw_submit = submit_rung(&raw)?;
    metrics.insert("session.submit_raw_ns_per_record", raw_submit);
    metrics.insert(
        "session.submit_perturbed_ns_per_record_b16",
        submit_rung(&b16)?,
    );
    metrics.insert(
        "session.submit_perturbed_ns_per_record_b256",
        submit_rung(&b256)?,
    );
    let ns = time_ns(budget, || {
        black_box(health_session.snapshot());
    });
    metrics.insert("session.snapshot_us", ns / 1e3);
    let ns = time_ns(budget, || {
        black_box(
            health_session
                .reconstruct(ReconstructionMethod::ClosedForm, true)
                .expect("closed form"),
        );
    });
    metrics.insert("session.reconstruct_us", ns / 1e3);

    // framing: exact request bytes as the shipped clients write them.
    let mut frame = Vec::new();
    encode_submit_frame(&mut frame, 1, &raw.batches[0], false, None, true, false);
    metrics.insert(
        "framing.binary_bytes_per_record",
        per(frame.len() as f64, 256),
    );
    let ns = time_ns(budget, || {
        frame.clear();
        encode_submit_frame(
            &mut frame,
            1,
            black_box(&raw.batches[0]),
            false,
            None,
            true,
            false,
        );
    });
    metrics.insert("framing.encode_submit_ns_per_record", per(ns, 256));
    let json_request = capture_request("{\"ok\":true,\"shard\":0}\n", |addr| {
        Client::connect(addr)?.submit_batch(1, &b16.batches[0], true)?;
        Ok(())
    })?;
    metrics.insert(
        "framing.json_bytes_per_record",
        per(json_request.len() as f64, 16),
    );
    let http_request = capture_request(
        "HTTP/1.1 200 OK\r\nContent-Length: 21\r\n\r\n{\"ok\":true,\"shard\":0}",
        |addr| {
            HttpClient::connect(addr)?.submit_batch(1, &health_pool.batches[0], true)?;
            Ok(())
        },
    )?;
    metrics.insert(
        "framing.http_bytes_per_record",
        per(http_request.len() as f64, 256),
    );

    // protocol: the sync_json request line exactly as the client sent it.
    let line = String::from_utf8(json_request)?;
    let line = line.trim_end();
    if parse_submit_line_fast(line).is_none() {
        return Err("the shipped client's submit line no longer takes the fast parse path".into());
    }
    let ns = time_ns(budget, || {
        black_box(parse_submit_line_fast(black_box(line)));
    });
    metrics.insert("protocol.parse_submit_fast_ns_per_record", per(ns, 16));
    let ns = time_ns(budget, || {
        black_box(parse_request(black_box(line)).expect("valid line"));
    });
    metrics.insert("protocol.parse_submit_general_ns_per_record", per(ns, 16));
    let reconstruction = health_session.reconstruct(ReconstructionMethod::ClosedForm, true)?;
    let mut out = String::new();
    let ns = time_ns(budget, || {
        out.clear();
        write_reconstruction_response(&mut out, black_box(&reconstruction));
    });
    metrics.insert("protocol.write_reconstruction_us", ns / 1e3);
    let response = out.clone();
    let ns = time_ns(budget, || {
        black_box(json::parse(black_box(&response)).expect("the server's own response"));
    });
    metrics.insert("client.parse_reconstruction_us", ns / 1e3);

    // dispatch: the same line through the transport-agnostic core.
    let registry = SessionRegistry::new();
    let transport = TransportMetrics::new();
    let mut state = ConnState::new();
    let create = object(vec![
        ("op", "create_session".into()),
        (
            "schema",
            Value::Array(
                crate::inputs::schema_pairs(&census)
                    .into_iter()
                    .map(|(n, c)| Value::Array(vec![n.into(), c.into()]))
                    .collect(),
            ),
        ),
        ("gamma", GAMMA.into()),
    ])
    .to_json();
    dispatch_into(
        &registry, &config, &transport, None, None, &mut state, &create, &mut out,
    );
    out.clear();
    dispatch_into(
        &registry, &config, &transport, None, None, &mut state, line, &mut out,
    );
    if !out.contains("\"ok\":true") {
        return Err(format!("in-process dispatch refused the submit line: {out}").into());
    }
    let ns = time_ns(budget, || {
        out.clear();
        dispatch_into(
            &registry,
            &config,
            &transport,
            None,
            None,
            &mut state,
            black_box(line),
            &mut out,
        );
    });
    metrics.insert("dispatch.submit_line_us_b16", ns / 1e3);

    // persist
    let dir = ScratchDir::create("ladder")?;
    let mut path = save_session(&dir.0, &health_session)?;
    let ns = time_ns(budget, || {
        path = save_session(&dir.0, &health_session).expect("snapshot write");
    });
    metrics.insert("persist.save_session_ms", ns / 1e6);
    let bytes = std::fs::metadata(&path)?.len();
    metrics.insert(
        "persist.snapshot_bytes_per_cell",
        bytes as f64 / (health.domain_size() * shards) as f64,
    );
    let ns = time_ns(budget, || {
        black_box(
            load_session(&path, config.max_dense_domain, config.max_session_domain)
                .expect("snapshot read"),
        );
    });
    metrics.insert("persist.load_session_ms", ns / 1e6);

    // mining, as the job worker runs it
    let params = AprioriParams {
        min_support: MIN_SUPPORT,
        max_length: 0,
        max_candidates: 0,
    };
    let estimator = GammaDiagonalSupport::from_cell_counts(&health, snapshot.counts(), GAMMA);
    let mut frequent = apriori(&estimator, &params);
    let ns = time_ns(budget, || {
        frequent = apriori(black_box(&estimator), &params)
    });
    metrics.insert("mining.apriori_ms", ns / 1e6);
    let weighted: Vec<(u64, usize)> = reconstruction
        .estimates
        .iter()
        .enumerate()
        .filter(|(_, e)| e.round() >= 1.0)
        .map(|(cell, e)| (crate::inputs::cell_mask(&health, cell), e.round() as usize))
        .collect();
    let ns = time_ns(budget, || {
        black_box(
            fp_growth_from_counts(
                black_box(&weighted),
                health.boolean_width(),
                MIN_SUPPORT,
                &NoHook,
            )
            .expect("NoHook never cancels"),
        );
    });
    metrics.insert("mining.fpgrowth_ms", ns / 1e6);
    let mut rules = generate_rules(&frequent, 0.5);
    let ns = time_ns(budget, || rules = generate_rules(black_box(&frequent), 0.5));
    metrics.insert("mining.rules_ms", ns / 1e6);
    let truth = health_pool.truth(&vec![1; health_pool.batches.len()]);
    let ns = time_ns(budget, || {
        black_box(exact_frequent(&health, black_box(&truth)));
    });
    metrics.insert("mining.exact_apriori_ms", ns / 1e6);

    // json: the general parser on a job_result-shaped payload at two
    // sizes; linear parsing would cost the same per byte at both.
    let items = |set: frapp_mining::ItemSet| {
        Value::Array(set.to_vec().into_iter().map(Value::from).collect())
    };
    let entries: Vec<Value> = frequent
        .iter()
        .map(|(set, support)| object(vec![("items", items(set)), ("support", support.into())]))
        .chain(rules.iter().map(|r| {
            object(vec![
                ("antecedent", items(r.antecedent)),
                ("consequent", items(r.consequent)),
                ("support", r.support.into()),
                ("confidence", r.confidence.into()),
                ("lift", r.lift.into()),
            ])
        }))
        .collect();
    let payload = |target: usize| -> String {
        let mut picked = Vec::new();
        let mut size = 0;
        for entry in entries.iter().cycle() {
            size += entry.to_json().len() + 1;
            if size > target {
                break;
            }
            picked.push(entry.clone());
        }
        object(vec![
            ("ok", true.into()),
            ("result", object(vec![("itemsets", Value::Array(picked))])),
        ])
        .to_json()
    };
    let mut per_byte = [0.0; 2];
    for (slot, target) in per_byte.iter_mut().zip([4 << 10, 256 << 10]) {
        let text = payload(target);
        let ns = time_ns(budget, || {
            black_box(json::parse(black_box(&text)).expect("payload is valid JSON"));
        });
        *slot = ns / text.len() as f64;
    }
    metrics.insert("json.parse_ns_per_byte_4k", per_byte[0]);
    metrics.insert("json.parse_ns_per_byte_256k", per_byte[1]);
    metrics.insert("json.parse_superlinearity", per_byte[1] / per_byte[0]);
    Ok(metrics)
}
