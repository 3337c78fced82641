//! Integration tests for the `frapp-analyze` gate.
//!
//! Two layers, mirroring how the gate is trusted in CI:
//!
//! 1. **Fixture corpora** (`tests/fixtures/*`): per-rule known-bad
//!    workspaces must fire and known-good twins must stay clean — the
//!    analyzer's own regression suite.
//! 2. **Workspace gate**: the real repository analyzes clean under the
//!    checked-in waiver file, so a red gate in CI is always a new
//!    regression, never pre-existing noise.

use frapp_analyze::analyze;
use frapp_analyze::report::Analysis;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analyze sits two levels below the workspace root")
        .to_path_buf()
}

fn run_fixture(name: &str) -> Analysis {
    analyze(&fixture(name), None).expect("fixture analysis must not error")
}

fn temp_root(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "frapp-analyze-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

// ---- fixture corpora: known-bad fires, known-good passes -------------

#[test]
fn lock_cycle_fixture_reports_exactly_one_cycle() {
    let a = run_fixture("lock_cycle");
    assert_eq!(a.findings.len(), 1, "{}", a.to_text());
    assert_eq!(a.findings[0].rule, "lock_order");
    assert!(
        a.findings[0].message.contains("cycle")
            && a.findings[0].message.contains("state::queue")
            && a.findings[0].message.contains("state::stats"),
        "{}",
        a.findings[0].message
    );
}

#[test]
fn lock_clean_fixture_passes_and_derives_the_order() {
    let a = run_fixture("lock_clean");
    assert!(a.clean(), "{}", a.to_text());
    assert_eq!(a.lock_order, vec!["state::queue", "state::stats"]);
}

#[test]
fn lock_held_across_blocking_call_is_flagged_and_drop_releases() {
    let a = run_fixture("lock_blocking");
    assert_eq!(a.findings.len(), 2, "{}", a.to_text());
    let mut flagged: Vec<&str> = a.findings.iter().map(|f| f.function.as_str()).collect();
    flagged.sort_unstable();
    assert_eq!(flagged, ["drain", "forward"]);
    for f in &a.findings {
        assert_eq!(f.rule, "lock_order");
        assert!(f.message.contains("held across blocking"), "{}", f.message);
    }
}

#[test]
fn reactor_blocking_fixture_reports_the_call_path() {
    let a = run_fixture("reactor_block");
    assert_eq!(a.findings.len(), 1, "{}", a.to_text());
    let f = &a.findings[0];
    assert_eq!(f.rule, "reactor_blocking");
    assert!(f.file.ends_with("link.rs"), "{}", f.file);
    assert!(
        f.message
            .contains("reactor_loop -> dispatch_ready -> forward_batch"),
        "{}",
        f.message
    );
    // The poller wait is inline-waived, with its justification echoed.
    assert_eq!(a.waived.len(), 1, "{}", a.to_text());
    let w = &a.waived[0];
    assert_eq!(w.function, "poll_once");
    assert!(
        w.waived_by
            .as_deref()
            .is_some_and(|by| by.contains("one blocking point")),
        "{w:?}"
    );
}

#[test]
fn reactor_clean_fixture_ignores_unreachable_blocking_code() {
    let a = run_fixture("reactor_clean");
    assert!(a.clean(), "{}", a.to_text());
    assert!(a.waived.is_empty());
}

#[test]
fn panic_path_fixture_flags_all_four_shapes_in_wire_files_only() {
    let a = run_fixture("panic_wire");
    // unwrap, expect, unchecked index, unreachable! — all in `handle`,
    // none in the non-wire mining.rs.
    assert_eq!(a.findings.len(), 4, "{}", a.to_text());
    assert!(a.findings.iter().all(|f| f.rule == "panic_path"));
    assert!(a.findings.iter().all(|f| f.function == "handle"));
    assert!(a.findings.iter().all(|f| f.file.ends_with("dispatch.rs")));
    // The inline-waived unwrap in `guarded` is reported as waived.
    assert_eq!(a.waived.len(), 1);
    assert_eq!(a.waived[0].function, "guarded");
}

#[test]
fn a_waiver_file_entry_suppresses_findings_and_is_echoed() {
    let dir = temp_root("waiver");
    let waiver = dir.join("waivers.txt");
    fs::write(
        &waiver,
        "panic_path dispatch.rs handle fixture: every shape is exercised deliberately\n",
    )
    .unwrap();
    let a = analyze(&fixture("panic_wire"), Some(&waiver)).unwrap();
    assert!(a.clean(), "{}", a.to_text());
    assert_eq!(a.waived.len(), 5, "{}", a.to_text());
    assert!(a
        .waived
        .iter()
        .all(|f| f.waived_by.as_deref().is_some_and(|by| !by.is_empty())));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_waiver_without_a_justification_is_rejected() {
    let dir = temp_root("badwaiver");
    let waiver = dir.join("waivers.txt");
    fs::write(&waiver, "panic_path dispatch.rs handle\n").unwrap();
    let err = analyze(&fixture("panic_wire"), Some(&waiver)).unwrap_err();
    assert!(err.contains("<reason>"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

// ---- the workspace gate itself ---------------------------------------

#[test]
fn the_real_workspace_analyzes_clean_under_the_checked_in_waivers() {
    let a = analyze(&repo_root(), None).unwrap();
    assert!(a.clean(), "{}", a.to_text());
    assert!(
        !a.lock_order.is_empty(),
        "the service locks must yield a derived order"
    );
    assert!(
        !a.waived.is_empty(),
        "the checked-in waivers cover real, deliberate sites"
    );
    assert!(a
        .waived
        .iter()
        .all(|f| f.waived_by.as_deref().is_some_and(|by| !by.is_empty())));
}
