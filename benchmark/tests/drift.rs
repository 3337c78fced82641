//! Manifest/driver drift self-test: `BENCHMARK.json`, the tables in
//! `manifest.rs` and what the driver actually emits must name the same
//! workloads and metrics.

use frapp_benchmark::manifest::{self, END_TO_END, PER_LAYER, WORKLOADS};
use frapp_service::json::{self, Value};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn names_of(manifest: &Value, section: &str) -> Vec<String> {
    manifest
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}` array"))
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Value::as_str)
                .expect("entry has a name")
                .to_owned()
        })
        .collect()
}

#[test]
fn benchmark_json_is_the_manifest_table() {
    let on_disk = std::fs::read_to_string(package_dir().join("../BENCHMARK.json")).unwrap();
    assert_eq!(
        on_disk,
        manifest::to_json(),
        "BENCHMARK.json drifted from manifest.rs; regenerate it with `benchmark/run.sh --print-manifest > BENCHMARK.json`"
    );
    let parsed = json::parse(&on_disk).unwrap();
    let table = |names: Vec<&str>| names.into_iter().map(str::to_owned).collect::<Vec<_>>();
    assert_eq!(
        names_of(&parsed, "workloads"),
        table(WORKLOADS.iter().map(|w| w.name).collect())
    );
    assert_eq!(
        names_of(&parsed, "end_to_end"),
        table(END_TO_END.iter().map(|m| m.name).collect())
    );
    assert_eq!(
        names_of(&parsed, "per_layer"),
        table(PER_LAYER.iter().map(|m| m.name).collect())
    );
}

#[test]
fn names_units_and_bounds_are_within_the_contract() {
    let well_formed = |s: &str, extra: &str, max: usize| {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    };
    let mut seen = BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(well_formed(name, "_.-", 64), "malformed name `{name}`");
        assert!(
            name.chars().next().unwrap().is_ascii_alphanumeric(),
            "`{name}` must start with a letter or digit"
        );
        assert!(seen.insert(name), "`{name}` is used twice");
    }
    let units = END_TO_END
        .iter()
        .map(|m| (m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.unit, m.better)));
    for (unit, better) in units {
        assert!(well_formed(unit, "_/%.-", 16), "malformed unit `{unit}`");
        assert!(better == "lower" || better == "higher");
    }
    for w in WORKLOADS {
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "`{}` why is too long",
            w.name
        );
    }
    for m in END_TO_END {
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "`{}` bound out of range",
            m.name
        );
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is mandatory");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s carries the largest bound"
    );
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!(manifest::to_json().len() <= 64 << 10);
}

/// Runs `run.sh --quick` (every workload, traced, 1 window x 1 s) and
/// holds its report against the manifest, both ways.
#[test]
fn a_quick_run_emits_exactly_the_manifest() {
    let run_sh = package_dir().join("run.sh");
    // Build first, so the timed run below is only the run.
    let built = Command::new("bash")
        .arg(&run_sh)
        .arg("--print-manifest")
        .output()
        .unwrap();
    assert!(
        built.status.success(),
        "build failed: {}",
        String::from_utf8_lossy(&built.stderr)
    );

    let start = Instant::now();
    let out = Command::new("bash")
        .arg(&run_sh)
        .arg("--quick")
        .output()
        .unwrap();
    let took = start.elapsed();
    assert!(
        out.status.success(),
        "--quick failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(took.as_secs() <= 30, "--quick took {took:?}");

    let report = std::fs::read_to_string(package_dir().join("out/report.json")).unwrap();
    let report = json::parse(&report).unwrap();
    for key in [
        "git_commit",
        "nproc",
        "cpu_model",
        "kernel",
        "rustc",
        "seed",
        "plan",
        "network",
        "persistence",
    ] {
        assert!(
            report.get("environment").and_then(|e| e.get(key)).is_some(),
            "environment lacks `{key}`"
        );
    }
    let sets = report.get("sets").and_then(Value::as_array).unwrap();
    let runs = sets[0].as_array().unwrap();
    let ran: Vec<&str> = runs
        .iter()
        .map(|r| r.get("workload").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(ran, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());

    let expected: BTreeSet<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    for run in runs {
        let workload = run.get("workload").and_then(Value::as_str).unwrap();
        assert_eq!(
            run.get("correct").and_then(Value::as_bool),
            Some(true),
            "{workload} failed its output checks"
        );
        assert_eq!(
            run.get("failed").and_then(Value::as_u64),
            Some(0),
            "{workload} had failed operations"
        );
        let Some(Value::Object(metrics)) = run.get("metrics") else {
            panic!("{workload} reports no metrics");
        };
        let emitted: BTreeSet<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            emitted, expected,
            "{workload}: emitted metrics differ from the manifest"
        );
        for metric in END_TO_END {
            let value = run
                .get("metrics")
                .unwrap()
                .get(metric.name)
                .unwrap()
                .get("value")
                .and_then(Value::as_f64)
                .unwrap();
            assert!(
                value > 0.0 && value.is_finite(),
                "{workload} {} = {value}",
                metric.name
            );
        }
        assert!(package_dir()
            .join(format!("out/trace-{workload}.jsonl"))
            .is_file());
    }

    // The last line of stdout is the contract's result object.
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = json::parse(stdout.trim_end().lines().last().unwrap()).unwrap();
    let Value::Object(pairs) = &last else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
}
