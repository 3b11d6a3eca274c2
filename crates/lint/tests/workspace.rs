//! End-to-end runs of the linter: the real workspace must be clean, the
//! artifact must be byte-stable, and seeded violations in a scratch
//! workspace must surface (or be waived) exactly as documented.

use std::fs;
use std::path::{Path, PathBuf};

use macgame_lint::rules::{RULE_PANIC, RULE_WALL_CLOCK};
use macgame_lint::waivers::{RULE_INVALID_WAIVER, RULE_STALE_WAIVER};
use macgame_lint::{find_workspace_root, run_workspace, LintReport};

fn real_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

/// The token-pass report of the workspace at `root`.
fn lint_report(root: &Path) -> LintReport {
    run_workspace(root).unwrap().lint
}

#[test]
fn real_workspace_is_lint_clean() {
    let report = lint_report(&real_root());
    let unwaived: Vec<String> =
        report.unwaived().iter().map(|f| format!("{} {}:{}", f.rule, f.path, f.line)).collect();
    assert!(unwaived.is_empty(), "unwaived findings: {unwaived:#?}");
    assert!(report
        .findings
        .iter()
        .all(|f| { !f.waived || f.reason.as_deref().is_some_and(|r| !r.trim().is_empty()) }));
}

#[test]
fn lint_artifact_is_byte_stable_across_runs() {
    let root = real_root();
    let first = lint_report(&root).to_json();
    let second = lint_report(&root).to_json();
    assert_eq!(first, second);
    assert!(first.contains("\"schema\": \"macgame-lint/1\""));
}

#[test]
fn find_workspace_root_walks_up_from_a_crate() {
    let from_crate = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
    assert_eq!(from_crate.canonicalize().unwrap(), real_root());
}

/// Builds a minimal scratch workspace under `CARGO_TARGET_TMPDIR` with one
/// member crate whose `src/lib.rs` is `lib_source`, plus an optional
/// `lint-allow.toml`, and returns its root.
fn scratch_workspace(name: &str, lib_source: &str, waivers: Option<&str>) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        fs::remove_dir_all(&root).unwrap();
    }
    fs::create_dir_all(root.join("crates/demo/src")).unwrap();
    fs::write(
        root.join("Cargo.toml"),
        "[workspace]\n\
         members = [\"crates/demo\"]\n\
         resolver = \"2\"\n\n\
         [workspace.package]\n\
         version = \"0.1.0\"\n\
         edition = \"2021\"\n\
         license = \"MIT\"\n",
    )
    .unwrap();
    fs::write(
        root.join("crates/demo/Cargo.toml"),
        "[package]\n\
         name = \"demo\"\n\
         version.workspace = true\n\
         edition.workspace = true\n\
         license.workspace = true\n",
    )
    .unwrap();
    fs::write(root.join("crates/demo/src/lib.rs"), lib_source).unwrap();
    if let Some(w) = waivers {
        fs::write(root.join("lint-allow.toml"), w).unwrap();
    }
    root
}

const SEEDED: &str = "\
pub fn elapsed() -> u128 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos()
}

pub fn first(v: &[u32]) -> u32 {
    *v.first().unwrap()
}
";

#[test]
fn seeded_violations_surface_with_file_and_line() {
    let root = scratch_workspace("lint-seeded", SEEDED, None);
    let report = lint_report(&root);
    let unwaived = report.unwaived();
    assert_eq!(unwaived.len(), 2, "{unwaived:?}");
    assert!(unwaived
        .iter()
        .any(|f| f.rule == RULE_WALL_CLOCK && f.path == "crates/demo/src/lib.rs" && f.line == 2));
    assert!(unwaived
        .iter()
        .any(|f| f.rule == RULE_PANIC && f.path == "crates/demo/src/lib.rs" && f.line == 7));
    assert!(!report.is_clean());
    // Both locations are visible in the human table and the artifact.
    let rows = report.table_rows();
    assert!(rows.iter().any(|r| r[1] == "crates/demo/src/lib.rs:2"), "{rows:?}");
    assert!(report.to_json().contains("\"line\": 7"));
}

#[test]
fn waivers_with_rationales_make_the_run_clean() {
    let waivers = "\
[[allow]]
rule = \"determinism/wall-clock\"
path = \"crates/demo/src/lib.rs\"
line = 2
reason = \"scratch: measures wall time on purpose\"

[[allow]]
rule = \"panic-policy/unmarked-panic\"
path = \"crates/demo/src/lib.rs\"
reason = \"scratch: whole-file grant\"
";
    let root = scratch_workspace("lint-waived", SEEDED, Some(waivers));
    let report = lint_report(&root);
    assert!(report.is_clean(), "{:?}", report.unwaived());
    assert_eq!(report.findings.iter().filter(|f| f.waived).count(), 2);
    assert!(report
        .findings
        .iter()
        .any(|f| f.reason.as_deref() == Some("scratch: whole-file grant")));
}

#[test]
fn stale_and_reasonless_waivers_are_their_own_findings() {
    let waivers = "\
[[allow]]
rule = \"determinism/wall-clock\"
path = \"crates/demo/src/lib.rs\"
line = 999
reason = \"points at a line with no such finding\"

[[allow]]
rule = \"panic-policy/unmarked-panic\"
path = \"crates/demo/src/lib.rs\"
reason = \"\"
";
    let root = scratch_workspace("lint-stale", SEEDED, Some(waivers));
    let report = lint_report(&root);
    let rules: Vec<&str> = report.unwaived().iter().map(|f| f.rule).collect();
    assert!(rules.contains(&RULE_STALE_WAIVER), "{rules:?}");
    assert!(rules.contains(&RULE_INVALID_WAIVER), "{rules:?}");
    // The reasonless waiver must not suppress the panic finding it names.
    assert!(rules.contains(&RULE_PANIC), "{rules:?}");
    assert!(!report.is_clean());
}
