//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repo
//! root is this table serialised (`frapp-benchmark --print-manifest`);
//! `tests/drift.rs` fails when the two, or the driver's output, drift.

use frapp_service::json::{object, Value};

/// Seconds one run measures (`--seconds` default, `run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// One traffic mix.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const STREAM_BINARY: &str = "stream_binary";
pub const SYNC_JSON: &str = "sync_json";
pub const SYNC_JSON_REACTOR: &str = "sync_json_reactor";
pub const HTTP_READ_WRITE: &str = "http_read_write";
pub const MINE_LIFECYCLE: &str = "mine_lifecycle";

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: STREAM_BINARY,
        why: "Throughput path: pipelined binary OP_SUBMIT of 256 raw CENSUS records; scan+decode+encode+perturb+accumulate dominate, per-request cost is amortised. Only workload perturbing on the server.",
    },
    Workload {
        name: SYNC_JSON,
        why: "Per-request path: synchronous line-JSON submits of 16 pre-perturbed records on the threaded front-end; syscalls, wake-ups, fast-path decode and response encode dominate, perturb is idle.",
    },
    Workload {
        name: SYNC_JSON_REACTOR,
        why: "Identical traffic to sync_json against --async: same dispatch core through reactor + offload pool, so the difference is front-end cost alone (ROADMAP anomaly b).",
    },
    Workload {
        name: HTTP_READ_WRITE,
        why: "Reads beside writes on one 7500-cell HEALTH session over HTTP keep-alive: shard merge+solve+clamp+7500-float response next to 256-record POSTs; only workload on the general json::parse path.",
    },
    Workload {
        name: MINE_LIFECYCLE,
        why: "Analyst/operator path at fixed counts: load 32 HEALTH sessions, persist, SIGKILL+recover, mine_rules apriori+fpgrowth with result transport, accuracy vs exact Apriori; ingest layers idle after load.",
    },
];

/// A metric a user of the served system would see. `bound` is the share
/// of the parent's median by which it may worsen before a change counts
/// as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("records_per_s", "1/s", "higher", 0.25),
    e2e("submit_p50_us", "us", "lower", 0.25),
    e2e("server_cpu_ns_per_record", "ns", "lower", 0.25),
    e2e("server_peak_rss_mb", "MB", "lower", 0.20),
    e2e("reconstruct_p50_us", "us", "lower", 0.25),
];

/// A metric of one layer, measured from outside it. No bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: &[PerLayer] = &[
    // In-process cost ladder (ladder.rs), identical on every workload.
    layer("core.perturb.index_ns_per_record", "ns", "lower"),
    layer("core.schema.encode_ns_per_record", "ns", "lower"),
    layer("core.dataset.observe_ns_per_record", "ns", "lower"),
    layer("core.dataset.merge_ns_per_cell", "ns", "lower"),
    layer("core.reconstruct.closed_form_ns_per_cell", "ns", "lower"),
    layer("session.submit_raw_ns_per_record", "ns", "lower"),
    layer("session.submit_perturbed_ns_per_record_b16", "ns", "lower"),
    layer("session.submit_perturbed_ns_per_record_b256", "ns", "lower"),
    layer("session.snapshot_us", "us", "lower"),
    layer("session.reconstruct_us", "us", "lower"),
    layer("protocol.parse_submit_fast_ns_per_record", "ns", "lower"),
    layer("protocol.parse_submit_general_ns_per_record", "ns", "lower"),
    layer("protocol.write_reconstruction_us", "us", "lower"),
    layer("client.parse_reconstruction_us", "us", "lower"),
    layer("json.parse_ns_per_byte_4k", "ns", "lower"),
    layer("json.parse_ns_per_byte_256k", "ns", "lower"),
    layer("json.parse_superlinearity", "ratio", "lower"),
    layer("dispatch.submit_line_us_b16", "us", "lower"),
    layer("framing.binary_bytes_per_record", "B", "lower"),
    layer("framing.json_bytes_per_record", "B", "lower"),
    layer("framing.http_bytes_per_record", "B", "lower"),
    layer("framing.encode_submit_ns_per_record", "ns", "lower"),
    layer("persist.save_session_ms", "ms", "lower"),
    layer("persist.load_session_ms", "ms", "lower"),
    layer("persist.snapshot_bytes_per_cell", "B", "lower"),
    layer("mining.apriori_ms", "ms", "lower"),
    layer("mining.fpgrowth_ms", "ms", "lower"),
    layer("mining.rules_ms", "ms", "lower"),
    layer("mining.exact_apriori_ms", "ms", "lower"),
    // From the traced out-of-process re-run; 0 where the workload does
    // not exercise the layer.
    layer("frontend.threaded_cpu_us_per_req", "us", "lower"),
    layer("frontend.reactor_cpu_us_per_req", "us", "lower"),
    layer("frontend.threaded_ctx_switches_per_req", "count", "lower"),
    layer("frontend.reactor_ctx_switches_per_req", "count", "lower"),
    layer("frontend.reactor_stream_records_per_s", "1/s", "higher"),
    layer("frontend.reactor_stream_rss_mb", "MB", "lower"),
    layer("wire.stream_overhead_ns_per_record", "ns", "lower"),
    layer("http.submit_p99_us", "us", "lower"),
    layer("http.reconstruct_p99_us", "us", "lower"),
    layer("http.reconstruct_bytes", "B", "lower"),
    layer("jobs.wall_ms", "ms", "lower"),
    layer("jobs.queue_wait_ms", "ms", "lower"),
    layer("jobs.result_bytes", "B", "lower"),
    layer("client.result_parse_ms", "ms", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    // ISSUE 11 end-to-end metrics that cannot carry a bound under the
    // driver's contract on this box (README, "Deviations"): their
    // spread across seeds exceeds 25 %, or they may read 0. Measured
    // on every run all the same; 0 where a workload has no such phase.
    layer("submit_p99_us", "us", "lower"),
    layer("persist_ms", "ms", "lower"),
    layer("recover_ms", "ms", "lower"),
    layer("mine_apriori_ms", "ms", "lower"),
    layer("mine_fpgrowth_ms", "ms", "lower"),
    layer("support_error_pct", "%", "lower"),
    layer("false_positive_pct", "%", "lower"),
    layer("false_negative_pct", "%", "lower"),
];

/// The unit of a metric named in either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the manifest"))
}

/// `BENCHMARK.json`, pretty-printed one entry per line.
pub fn to_json() -> String {
    let strings = |items: &[&str]| -> String {
        items
            .iter()
            .map(|s| Value::from(*s).to_json())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"command\": [{}],\n",
        strings(&["bash", "benchmark/run.sh"])
    ));
    out.push_str(&format!("  \"paths\": [{}],\n", strings(&["benchmark"])));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<Value>| -> String {
        rows.iter()
            .map(|r| format!("    {}", r.to_json()))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| object(vec![("name", w.name.into()), ("why", w.why.into())]))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                object(vec![
                    ("name", m.name.into()),
                    ("unit", m.unit.into()),
                    ("better", m.better.into()),
                    ("bound", m.bound.into()),
                ])
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                object(vec![
                    ("name", m.name.into()),
                    ("unit", m.unit.into()),
                    ("better", m.better.into()),
                ])
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}
