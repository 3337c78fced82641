//! Command line, reports, and the repeatability check.

use crate::envblock::environment;
use crate::manifest::{self, END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::{Metrics, Opts, Res, RunOutput};
use crate::serverproc::server_binary;
use crate::{ladder, trace, workloads};
use frapp_service::json::{object, Value};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--repeat N]
  no --workload   run all five workloads and print every metric
  --trace         also run the in-process cost ladder and a span-recorded re-run (per-layer metrics)
  --quick         1 window x 0.5 s, 2 mined sessions, traced: a smoke run, not a measurement
  --repeat N      run N full sets on this build and compare them against the bounds
  --print-manifest  print BENCHMARK.json as src/manifest.rs defines it";

struct Args {
    workload: Option<String>,
    opts: Opts,
    repeat: usize,
    print_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        opts: Opts {
            seed: 1,
            seconds: manifest::RUN_SECONDS,
            trace: false,
            quick: false,
        },
        repeat: 1,
        print_manifest: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.opts.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?
            }
            "--repeat" => {
                args.repeat = value("--repeat")?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--repeat takes a count of at least 1")?
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                args.opts.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => {
                args.opts.quick = true;
                args.opts.trace = true;
            }
            "--print-manifest" => args.print_manifest = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|k| k.name == w) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    Ok(args)
}

/// One finished run of one workload.
struct Record {
    workload: &'static str,
    out: RunOutput,
}

impl Record {
    fn correct(&self) -> bool {
        self.out.checks.violations.is_empty()
    }

    fn metric_values(&self, names: impl Iterator<Item = &'static str>) -> Value {
        Value::Object(
            names
                .filter_map(|name| {
                    let value = *self.out.metrics.get(name)?;
                    let entry = object(vec![
                        ("value", value.into()),
                        ("unit", manifest::unit_of(name).into()),
                    ]);
                    Some((name.to_owned(), entry))
                })
                .collect(),
        )
    }

    /// The contract's result object: every end-to-end metric untraced,
    /// every per-layer metric traced.
    fn result(&self, trace: bool) -> Value {
        let metrics = if trace {
            self.metric_values(PER_LAYER.iter().map(|m| m.name))
        } else {
            self.metric_values(END_TO_END.iter().map(|m| m.name))
        };
        object(vec![
            ("correct", self.correct().into()),
            ("attempted", self.out.ops.attempted.into()),
            ("failed", self.out.ops.failed.into()),
            ("metrics", metrics),
        ])
    }

    fn report(&self) -> Value {
        object(vec![
            ("workload", self.workload.into()),
            ("correct", self.correct().into()),
            ("attempted", self.out.ops.attempted.into()),
            ("failed", self.out.ops.failed.into()),
            ("failed_ops_pct", self.out.ops.failed_pct().into()),
            ("checks_passed", self.out.checks.passed.into()),
            (
                "violations",
                Value::Array(
                    self.out
                        .checks
                        .violations
                        .iter()
                        .map(|v| v.as_str().into())
                        .collect(),
                ),
            ),
            (
                "metrics",
                self.metric_values(self.out.metrics.keys().copied()),
            ),
        ])
    }

    fn print(&self) {
        for (name, value) in &self.out.metrics {
            println!(
                "{:<18} {:<48} {:>16.4} {}",
                self.workload,
                name,
                value,
                manifest::unit_of(name)
            );
        }
        println!(
            "{:<18} {:<48} {:>16.4} % ({} of {} operations failed; {} checks passed, {} violated)",
            self.workload,
            "failed_ops_pct",
            self.out.ops.failed_pct(),
            self.out.ops.failed,
            self.out.ops.attempted,
            self.out.checks.passed,
            self.out.checks.violations.len(),
        );
        for v in &self.out.checks.violations {
            println!("{:<18} VIOLATION {v}", self.workload);
        }
    }
}

/// Runs one workload; on a traced run adds the ladder's rungs, closes
/// the arithmetic that needs both, and writes the span file.
fn run_one(
    workload: &'static str,
    opts: &Opts,
    binary: &Path,
    ladder: Option<&Metrics>,
) -> Res<Record> {
    let started = Instant::now();
    let mut out = workloads::run(workload, opts, binary, started)?;
    if let Some(ladder) = ladder {
        out.metrics.extend(ladder);
        close_ladder(workload, &mut out.metrics);
        for layer in PER_LAYER {
            // A layer this workload does not exercise did no work.
            out.metrics.entry(layer.name).or_insert(0.0);
        }
        let path = Path::new("benchmark/out").join(format!("trace-{workload}.jsonl"));
        trace::write_jsonl(&path, &out.spans)?;
        eprintln!(
            "{workload}: {} spans in {}",
            out.spans.len(),
            path.display()
        );
    }
    for metric in END_TO_END {
        if !out.metrics.contains_key(metric.name) {
            return Err(format!("{workload} did not measure `{}`", metric.name).into());
        }
    }
    Ok(Record { workload, out })
}

/// The rungs that need an out-of-process number and a ladder number.
fn close_ladder(workload: &str, metrics: &mut Metrics) {
    let get = |m: &Metrics, name: &str| m.get(name).copied().unwrap_or(0.0);
    if workload == manifest::STREAM_BINARY {
        let overhead = get(metrics, "server_cpu_ns_per_record")
            - get(metrics, "session.submit_raw_ns_per_record");
        metrics.insert("wire.stream_overhead_ns_per_record", overhead);
    }
    // Server CPU per request minus the dispatch core's share leaves the
    // front-end's own: by construction the two sum back to the measured
    // CPU per request.
    let dispatch = get(metrics, "dispatch.submit_line_us_b16");
    for name in [
        "frontend.threaded_cpu_us_per_req",
        "frontend.reactor_cpu_us_per_req",
    ] {
        if let Some(cpu) = metrics.get_mut(name) {
            *cpu -= dispatch;
        }
    }
}

fn write_report(opts: &Opts, sets: &[Vec<Record>]) -> Res<()> {
    let report = object(vec![
        ("environment", environment(opts)),
        (
            "sets",
            Value::Array(
                sets.iter()
                    .map(|set| Value::Array(set.iter().map(Record::report).collect()))
                    .collect(),
            ),
        ),
    ]);
    std::fs::write("benchmark/out/report.json", report.to_json() + "\n")?;
    Ok(())
}

fn print_environment(opts: &Opts) {
    if let Value::Object(pairs) = environment(opts) {
        for (key, value) in pairs {
            let text = value
                .as_str()
                .map_or_else(|| value.to_json(), str::to_owned);
            println!("# {key}: {text}");
        }
    }
}

/// Compares two sets: every end-to-end metric on every workload must
/// agree within its bound; accuracy and failures must agree exactly on
/// the fixed-count workload.
fn compare_sets(first: &[Record], second: &[Record]) -> bool {
    let mut ok = true;
    println!(
        "\n{:<18} {:<26} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "set 1", "set 2", "worse", "bound"
    );
    for (a, b) in first.iter().zip(second) {
        for m in END_TO_END {
            let (x, y) = (a.out.metrics[m.name], b.out.metrics[m.name]);
            // How much worse the second set reads, as a share of the first.
            let worse = if m.better == "lower" {
                (y - x) / x
            } else {
                (x - y) / x
            };
            let within = worse.abs() <= m.bound;
            ok &= within;
            println!(
                "{:<18} {:<26} {:>14.4} {:>14.4} {:>+7.1}% {:>5.0}%{}",
                a.workload,
                m.name,
                x,
                y,
                100.0 * worse,
                100.0 * m.bound,
                if within { "" } else { "  EXCEEDED" }
            );
        }
        let mut exact = vec![("failed", a.out.ops.failed as f64, b.out.ops.failed as f64)];
        if a.workload == manifest::MINE_LIFECYCLE {
            for name in [
                "support_error_pct",
                "false_positive_pct",
                "false_negative_pct",
            ] {
                exact.push((name, a.out.metrics[name], b.out.metrics[name]));
            }
        }
        for (name, x, y) in exact {
            let same = x.to_bits() == y.to_bits();
            ok &= same;
            println!(
                "{:<18} {:<26} {:>14.6} {:>14.6} {:>8} {:>6}{}",
                a.workload,
                name,
                x,
                y,
                "",
                "exact",
                if same { "" } else { "  DIFFERS" }
            );
        }
        ok &= a.correct() && b.correct();
    }
    ok
}

fn run(args: &Args) -> Res<bool> {
    let binary = server_binary()?;
    std::fs::create_dir_all("benchmark/out")?;
    print_environment(&args.opts);
    let names: Vec<&'static str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| args.workload.as_deref().is_none_or(|w| w == *n))
        .collect();
    let mut sets = Vec::new();
    for set in 0..args.repeat {
        // The ladder replays seeded inputs in this process; it is the
        // same for every workload, so a set climbs it once.
        let ladder = if args.opts.trace {
            eprintln!("running the in-process ladder (set {})...", set + 1);
            let budget = Duration::from_millis(if args.opts.quick { 10 } else { 60 });
            Some(ladder::run(args.opts.seed, budget)?)
        } else {
            None
        };
        let mut records = Vec::new();
        for &name in &names {
            eprintln!("running {name} (set {})...", set + 1);
            let record = run_one(name, &args.opts, &binary, ladder.as_ref())?;
            record.print();
            records.push(record);
        }
        sets.push(records);
    }
    write_report(&args.opts, &sets)?;
    let mut ok = sets
        .iter()
        .flatten()
        .all(|r| r.correct() && r.out.ops.failed == 0);
    for pair in sets.windows(2) {
        ok &= compare_sets(&pair[0], &pair[1]);
    }
    // Last line: the result object of the (last) run.
    let last = sets
        .last()
        .and_then(|s| s.last())
        .ok_or("nothing was run")?;
    println!("{}", last.result(args.opts.trace).to_json());
    Ok(ok)
}

pub fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("{message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_manifest {
        print!("{}", manifest::to_json());
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: output checks or the repeatability bounds were violated");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
