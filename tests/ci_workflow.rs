//! Guards on `.github/workflows/ci.yml`, which nothing else reads
//! before CI does: the file must stay loadable YAML, every ignored test
//! in the workspace must have a CI step that runs it, every step that
//! runs ignored tests by name must still name one, and every example
//! and (through `exp_all`) every `exp_*` binary must be run.
//!
//! There is no YAML parser among the dependencies, so the checks read
//! the workflow line by line. That is enough for the subset of YAML the
//! file uses: block mappings and sequences, plain, quoted and `|`/`>`
//! block scalars, and one-line flow collections.

use std::path::{Path, PathBuf};

const WORKFLOW: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/.github/workflows/ci.yml");

/// Ignored tests that no CI step needs to run, each with its reason.
/// Nothing else may be ignored without a `run:` line that names it.
const TIMING_ONLY: [(&str, &str); 4] = [
    (
        "stream_stage_table",
        "prints per-stage ns/record of binary ingest; asserts nothing a CI box's timing could hold",
    ),
    (
        "reconstruct_stage_table",
        "prints per-stage µs of a reconstruct answer; asserts nothing a CI box's timing could hold",
    ),
    (
        "json_line_stage_table",
        "prints per-stage ns/record of JSON ingest lines; asserts nothing a CI box's timing could hold",
    ),
    (
        "full_save_vs_delta_append_timings",
        "prints full-save against delta-append times; asserts nothing a CI box's timing could hold",
    ),
];

/// One non-comment line of the workflow, split at its mapping key.
struct Line<'a> {
    /// 1-based line number in the file.
    number: usize,
    /// The mapping key this line sets, or, inside a block scalar, the
    /// key the block belongs to.
    key: Option<&'a str>,
    /// The value text: the rest of the line after `key: `, a sequence
    /// item, or one line of a block scalar.
    value: &'a str,
    /// Whether `value` is a line of a `|` or `>` block scalar.
    in_block: bool,
}

/// Splits `item` at a leading `key:` whose key is a plain word.
fn split_key(item: &str) -> (Option<&str>, &str) {
    let end = item
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
        .unwrap_or(item.len());
    let rest = &item[end..];
    if end > 0 && (rest == ":" || rest.starts_with(": ")) {
        (Some(&item[..end]), rest[1..].trim_start())
    } else {
        (None, item)
    }
}

/// The workflow's non-comment lines, each block scalar's lines marked.
fn lines(text: &str) -> Vec<Line<'_>> {
    let mut out = Vec::new();
    // The key and the indentation of the key that opened a block scalar.
    let mut block: Option<(&str, usize)> = None;
    for (i, raw) in text.lines().enumerate() {
        let body = raw.trim();
        let indent = raw.len() - raw.trim_start().len();
        if let Some((key, parent)) = block {
            if body.is_empty() || indent > parent {
                out.push(Line {
                    number: i + 1,
                    key: Some(key),
                    value: body,
                    in_block: true,
                });
                continue;
            }
            block = None;
        }
        if body.is_empty() || body.starts_with('#') {
            continue;
        }
        let item = body.strip_prefix("- ").unwrap_or(body);
        let (key, value) = split_key(item);
        if let (Some(key), Some('|' | '>')) = (key, value.chars().next()) {
            block = Some((key, indent + body.len() - item.len()));
        }
        out.push(Line {
            number: i + 1,
            key,
            value,
            in_block: false,
        });
    }
    out
}

/// The lines whose plain (unquoted, non-block) scalar holds `: `, which
/// YAML reads as a mapping indicator, or ` #`, which starts a comment.
fn plain_scalar_faults(text: &str) -> Vec<String> {
    lines(text)
        .into_iter()
        .filter(|l| !l.in_block)
        .filter(|l| !l.value.starts_with(['"', '\'', '|', '>', '[', '{']))
        .filter(|l| l.value.contains(": ") || l.value.contains(" #"))
        .map(|l| format!("line {}: {}", l.number, l.value))
        .collect()
}

/// Every command line of the workflow's `run:` values.
fn run_lines(text: &str) -> Vec<&str> {
    lines(text)
        .into_iter()
        .filter(|l| l.key == Some("run") && !l.value.starts_with(['|', '>']))
        .map(|l| l.value)
        .collect()
}

/// An `#[ignore]` test: the package it is in, its integration-test
/// target (`None` for a unit test), its fn name and its path as the
/// test harness names it (`json::tests::name`).
struct Ignored {
    file: PathBuf,
    package: String,
    target: Option<String>,
    name: String,
    path: String,
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.map(Result::unwrap) {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && !name.to_string_lossy().starts_with('.') {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The directory of the nearest `Cargo.toml` above `file`, and the
/// package name it declares.
fn package_of(file: &Path) -> (PathBuf, String) {
    let mut dir = file.parent();
    while let Some(d) = dir {
        if let Ok(manifest) = std::fs::read_to_string(d.join("Cargo.toml")) {
            if let Some(name) = manifest.lines().find_map(|l| {
                l.strip_prefix("name = \"")
                    .and_then(|rest| rest.strip_suffix('"'))
            }) {
                return (d.to_path_buf(), name.to_owned());
            }
        }
        dir = d.parent();
    }
    panic!("{} is in no package", file.display());
}

fn ignored_tests() -> Vec<Ignored> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["src", "tests", "examples", "crates", "shims"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut out = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        // The top-level inline module the scan is in (`mod tests {`).
        let mut inline: Option<&str> = None;
        let mut rest = text.lines();
        while let Some(line) = rest.next() {
            let item = line
                .trim_start_matches("pub(crate) ")
                .trim_start_matches("pub ");
            if let Some(name) = item.strip_prefix("mod ").and_then(|m| m.strip_suffix(" {")) {
                inline = Some(name);
                continue;
            }
            if !line.trim_start().starts_with("#[ignore") {
                continue;
            }
            let name = rest
                .by_ref()
                .find_map(|l| l.trim_start().split("fn ").nth(1))
                .and_then(|after| after.split('(').next())
                .unwrap_or_else(|| panic!("no fn after an ignore in {}", file.display()))
                .trim()
                .to_owned();
            let (dir, package) = package_of(&file);
            let target = (file.parent() == Some(&dir.join("tests")))
                .then(|| file.file_stem().unwrap().to_string_lossy().into_owned());
            // The harness path: the file's module path (none for an
            // integration target), the inline module when rustfmt
            // indented the test into one, and the name.
            let mut path: Vec<String> = match file.strip_prefix(dir.join("src")) {
                Ok(rel) if target.is_none() => rel
                    .with_extension("")
                    .iter()
                    .map(|c| c.to_string_lossy().into_owned())
                    .filter(|c| !["lib", "main", "mod"].contains(&c.as_str()))
                    .collect(),
                _ => Vec::new(),
            };
            path.extend(inline.filter(|_| !line.starts_with('#')).map(str::to_owned));
            path.push(name.clone());
            out.push(Ignored {
                file: file.clone(),
                package,
                target,
                name,
                path: path.join("::"),
            });
        }
    }
    out
}

/// Whether `word` occurs in `line` with no identifier character on
/// either side.
fn has_word(line: &str, word: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    line.match_indices(word)
        .any(|(at, _)| !line[..at].ends_with(ident) && !line[at + word.len()..].starts_with(ident))
}

/// Whether a CI command line runs `test`: it runs ignored tests of the
/// test's package and names the test, or its whole integration target.
fn runs(line: &str, test: &Ignored) -> bool {
    let in_package = has_word(line, &format!("-p {}", test.package));
    let named = has_word(line, &test.name)
        || test
            .target
            .as_ref()
            .is_some_and(|t| has_word(line, &format!("--test {t}")));
    line.contains("--ignored") && in_package && named
}

/// The `run:` lines that run ignored tests by a name filter
/// (`-p <package> ... -- --ignored <filter>`) which matches no ignored
/// test of that package and target: a step whose test was deleted or
/// moved runs zero tests and passes.
fn unmatched_filters<'a>(commands: &[&'a str], tests: &[Ignored]) -> Vec<&'a str> {
    commands
        .iter()
        .copied()
        .filter(|line| {
            let words: Vec<&str> = line.split_whitespace().collect();
            let after = |flag: &str| {
                let at = words.iter().position(|w| *w == flag)?;
                words.get(at + 1).copied()
            };
            let Some(filter) = after("--ignored").filter(|f| !f.starts_with('-')) else {
                return false;
            };
            let package = after("-p");
            let target = after("--test");
            let lib = words.contains(&"--lib");
            !tests.iter().any(|t| {
                Some(t.package.as_str()) == package
                    && (!lib || t.target.is_none())
                    && target.is_none_or(|name| t.target.as_deref() == Some(name))
                    && t.path.contains(filter)
            })
        })
        .collect()
}

#[test]
fn no_plain_scalar_holds_a_mapping_or_comment_indicator() {
    let faults = plain_scalar_faults(&std::fs::read_to_string(WORKFLOW).unwrap());
    assert!(
        faults.is_empty(),
        "plain scalars in ci.yml that YAML cuts short or refuses; quote them or use `run: |`:\n{}",
        faults.join("\n")
    );
}

#[test]
fn the_scalar_check_refuses_what_stopped_the_workflow_parsing() {
    // The step that kept the workflow from loading, beside the same
    // command as a block scalar and as a quoted scalar.
    let text = r#"      - name: Mining interference smoke
        # a comment: with a colon
        run: cat out.json && grep -q '"within_bound": true' out.json
      - name: As a block
        run: |
          grep -q '"within_bound": true' out.json
      - name: Quoted
        run: "grep -q '\"within_bound\": true' out.json"
        if: always() # trailing comment
"#;
    assert_eq!(
        plain_scalar_faults(text),
        [
            r#"line 3: cat out.json && grep -q '"within_bound": true' out.json"#,
            "line 9: always() # trailing comment",
        ]
    );
    assert_eq!(
        run_lines(text),
        [
            r#"cat out.json && grep -q '"within_bound": true' out.json"#,
            r#"grep -q '"within_bound": true' out.json"#,
            r#""grep -q '\"within_bound\": true' out.json""#,
        ]
    );
}

#[test]
fn every_ignored_test_is_run_by_ci_or_is_a_timing_table() {
    let workflow = std::fs::read_to_string(WORKFLOW).unwrap();
    let commands = run_lines(&workflow);
    let tests = ignored_tests();
    for (name, _) in TIMING_ONLY {
        assert!(
            tests.iter().any(|t| t.name == name),
            "the timing-only list names {name}, which is not an ignored test"
        );
    }
    let unrun: Vec<String> = tests
        .iter()
        .filter(|t| !TIMING_ONLY.iter().any(|(name, _)| *name == t.name))
        .filter(|t| !commands.iter().any(|line| runs(line, t)))
        .map(|t| format!("{} ({})", t.name, t.file.display()))
        .collect();
    assert!(
        unrun.is_empty(),
        "ignored tests that no ci.yml `run:` line runs with `-p <package> ... --ignored`:\n{}",
        unrun.join("\n")
    );
}

#[test]
fn every_ignored_filter_in_ci_names_an_ignored_test() {
    let workflow = std::fs::read_to_string(WORKFLOW).unwrap();
    let tests = ignored_tests();
    let stale = unmatched_filters(&run_lines(&workflow), &tests);
    assert!(
        stale.is_empty(),
        "ci.yml `run:` lines whose `--ignored <filter>` matches no ignored test \
         of their `-p` package (they run nothing and pass):\n{}",
        stale.join("\n")
    );
    // The step kept after its test was deleted, beside live forms: a
    // module path, a bare name, an integration target, no filter.
    let lines = [
        "cargo test --release -q -p frapp-service --lib -- --ignored \
         json::float::tests::thirty_million_random_values_print_as_format_does",
        "cargo test --release -q -p frapp-service --lib -- --ignored \
         persist::tests::a_hundred_thousand_snapshot_files_load_as_the_tree_does",
        "cargo test --release -q -p frapp-core --lib -- --ignored a_million_records",
        "cargo test --release -q -p frapp-core --lib -- --ignored session::tests::a_million",
        "cargo test --release -q -p frapp-service --test transport -- --ignored a_thousand",
        "cargo test --release -q -p frapp-service --lib -- --ignored a_thousand",
        "cargo test --release -q -p frapp-bench --test seed_spread -- --ignored --nocapture",
    ];
    assert_eq!(
        unmatched_filters(&lines, &tests),
        [lines[0], lines[3], lines[5]]
    );
}

/// Every example of the workspace: its package and its name.
fn examples() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("examples"), &mut files);
    rust_files(&root.join("crates"), &mut files);
    files
        .iter()
        .filter(|f| f.parent().is_some_and(|d| d.ends_with("examples")))
        .map(|f| {
            let (_, package) = package_of(f);
            (
                package,
                f.file_stem().unwrap().to_string_lossy().into_owned(),
            )
        })
        .collect()
}

/// The examples that no command line runs: none names `--example
/// <name>` with the example's package (`-p <package>`, or no `-p` for
/// the root package).
fn unrun_examples(commands: &[&str], examples: &[(String, String)]) -> Vec<String> {
    examples
        .iter()
        .filter(|(package, name)| {
            !commands.iter().any(|line| {
                let in_package = if package == "frapp" {
                    !line.contains(" -p ")
                } else {
                    has_word(line, &format!("-p {package}"))
                };
                in_package && has_word(line, &format!("--example {name}"))
            })
        })
        .map(|(package, name)| format!("{package}: {name}"))
        .collect()
}

#[test]
fn every_example_is_run_by_ci() {
    let workflow = std::fs::read_to_string(WORKFLOW).unwrap();
    let examples = examples();
    assert!(
        examples
            .iter()
            .any(|(p, n)| p == "frapp" && n == "quickstart")
            && examples
                .iter()
                .any(|(p, n)| p == "frapp-data" && n == "profile_probe"),
        "the example scan missed a known example: {examples:?}"
    );
    let unrun = unrun_examples(&run_lines(&workflow), &examples);
    assert!(
        unrun.is_empty(),
        "examples that no ci.yml `run:` line runs with `--example <name>`:\n{}",
        unrun.join("\n")
    );
    // A root example, a crate example without its `-p`, and both run.
    let known = [
        ("frapp".to_owned(), "quickstart".to_owned()),
        ("frapp-data".to_owned(), "profile_probe".to_owned()),
    ];
    assert_eq!(
        unrun_examples(&["cargo run --example profile_probe"], &known),
        ["frapp: quickstart", "frapp-data: profile_probe"]
    );
    assert!(unrun_examples(
        &[
            "cargo run --release -q --example quickstart",
            "cargo run --release -q -p frapp-data --example profile_probe",
        ],
        &known
    )
    .is_empty());
}

#[test]
fn exp_all_runs_every_exp_binary() {
    let bin_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/src/bin");
    let source = std::fs::read_to_string(bin_dir.join("exp_all.rs")).unwrap();
    // The quoted names in `exp_all`'s `bins` list.
    let list = &source[source.find("let bins = [").expect("exp_all lists its bins")..];
    let list = &list[..list.find("];").expect("the bins list closes")];
    let listed: Vec<&str> = list.split('"').skip(1).step_by(2).collect();
    let mut files = Vec::new();
    rust_files(&bin_dir, &mut files);
    let bins: Vec<String> = files
        .iter()
        .map(|f| f.file_stem().unwrap().to_string_lossy().into_owned())
        .filter(|stem| stem.starts_with("exp_") && stem != "exp_all")
        .collect();
    assert!(bins.iter().any(|b| b == "exp_fig1"), "{bins:?}");
    let missing: Vec<&String> = bins
        .iter()
        .filter(|b| !listed.contains(&b.as_str()))
        .collect();
    assert!(
        missing.is_empty(),
        "exp_* binaries that exp_all does not run: {missing:?}"
    );
}
