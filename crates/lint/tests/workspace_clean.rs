//! The workspace-at-HEAD gate: the tree this test runs from must lint
//! clean under the committed `lint.allow` — the same check CI runs via
//! `repro lint`, minus the process boundary. Also pins the JSON
//! artifact round-trip through the vendored serde stub.

use std::path::{Path, PathBuf};

use amrm_lint::{report, run_lint, LintReport};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_lints_clean_and_allowlist_has_no_stale_entries() {
    let report = run_lint(&workspace_root()).expect("workspace scan succeeds");
    assert!(
        report.files_scanned > 50,
        "suspiciously few sources scanned: {}",
        report.files_scanned
    );
    // is_clean() covers staleness too: a lint.allow entry that stopped
    // matching surfaces as an AMRM-L008 violation.
    assert!(
        report.is_clean(),
        "workspace must lint clean at HEAD:\n{}",
        report::render(&report)
    );
    // Every suppression carries its justification through to the report.
    assert!(
        !report.allowed.is_empty(),
        "the audited exceptions vanished"
    );
    for s in &report.allowed {
        assert!(
            !s.reason.trim().is_empty(),
            "suppression of {} at {}:{} lost its reason",
            s.code,
            s.file,
            s.line
        );
    }
}

#[test]
fn json_artifact_round_trips_through_the_vendored_stub() {
    let report = run_lint(&workspace_root()).expect("workspace scan succeeds");
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    // Zeros-included: CI greps every rule code out of this artifact.
    for rule in amrm_lint::rules::all() {
        assert!(json.contains(rule.code), "{} missing from JSON", rule.code);
    }
    let back: LintReport = serde_json::from_str(&json).expect("report deserializes");
    assert_eq!(back, report, "JSON round-trip must be lossless");
}
