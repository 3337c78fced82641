//! `frapp-analyze`: a dependency-free static analysis gate for the
//! frapp workspace.
//!
//! The binary lexes every workspace source file with a hand-rolled
//! Rust lexer (no syn, no proc-macro machinery — the container is
//! offline and the gate must build from a cold cache) and enforces
//! three rule families:
//!
//! * **lock_order** — nested `Mutex`/`RwLock` acquisition scopes are
//!   extracted per function and stitched into an inter-procedural lock
//!   graph; cycles and locks held across blocking calls fail the gate,
//!   and the derived total order is printed for the runtime checker to
//!   mirror.
//! * **reactor_blocking** — the call graph reachable from the
//!   `reactor_loop` event loop must not contain blocking operations
//!   (socket connects, synchronous client round trips, file I/O,
//!   channel receives, sleeps).
//! * **panic_path** — `unwrap`/`expect`, panicking macros and
//!   unchecked indexing are banned in the wire-facing modules unless
//!   waived inline with a justification.
//!
//! Findings can be waived inline (`// analyze: allow(rule): reason`)
//! or via the checked-in `analyze-waivers.txt`; every waiver carries a
//! justification that is echoed in the report. See `docs/ANALYSIS.md`
//! for the rule catalog and waiver policy.

#![warn(missing_docs)]

pub mod lexer;
pub mod model;
pub mod report;
pub mod rules;
pub mod waivers;

use model::{SourceFile, Workspace};
use report::Analysis;
use std::fs;
use std::path::{Path, PathBuf};

/// Directory names never scanned: generated output, integration tests
/// and benches (allowed to unwrap/block), fixture corpora, and the
/// vendored dependency shims (external idiom, not service code).
const SKIP_DIRS: &[&str] = &[
    "target", "tests", "benches", "examples", "fixtures", "shims", ".git",
];

/// Collects every `.rs` file under the workspace source roots
/// (`<root>/src` and `<root>/crates/*/src`), sorted by relative path
/// for deterministic reports.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut roots = vec![root.join("src")];
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            let dir = entry?.path().join("src");
            if dir.is_dir() {
                roots.push(dir);
            }
        }
    }
    for r in roots {
        if r.is_dir() {
            walk(&r, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !SKIP_DIRS.contains(&name) {
                walk(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the full gate over the workspace at `root`.
///
/// `waiver_path` overrides the default waiver file location
/// (`<root>/analyze-waivers.txt`); the default is optional, an
/// explicit path must exist. A waiver-file entry that matches no
/// scanned file or function is an error ([`waivers::stale`]).
pub fn analyze(root: &Path, waiver_path: Option<&Path>) -> Result<Analysis, String> {
    let sources = collect_sources(root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
    let mut files = Vec::new();
    for path in &sources {
        let src =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile::parse(path, rel, &src));
    }
    let ws = Workspace::new(files);

    let (mut findings, lock_order) = rules::lock_order::run(&ws);
    findings.extend(rules::blocking::run(&ws));
    findings.extend(rules::panic_path::run(&ws));

    let file_waivers = match waiver_path {
        Some(p) => {
            let text = fs::read_to_string(p)
                .map_err(|e| format!("reading waiver file {}: {e}", p.display()))?;
            waivers::parse_waiver_file(&text)?
        }
        None => {
            let default = root.join("analyze-waivers.txt");
            match fs::read_to_string(&default) {
                Ok(text) => waivers::parse_waiver_file(&text)?,
                Err(_) => Vec::new(),
            }
        }
    };
    let stale = waivers::stale(&file_waivers, &ws.files);
    if !stale.is_empty() {
        return Err(format!(
            "stale waiver-file entries (they match nothing; delete them):\n{}",
            stale.join("\n")
        ));
    }
    let (live, waived) = waivers::apply(findings, &ws.files, &file_waivers);
    Ok(Analysis {
        findings: live,
        waived,
        lock_order,
    })
}
