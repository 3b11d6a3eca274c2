//! Rule-by-rule coverage over the checked-in fixture corpus.
//!
//! The fixtures live under `tests/fixtures/` on purpose: Cargo only
//! compiles direct children of `tests/`, and the workspace linter skips
//! the same subdirectories, so the corpus can contain every forbidden
//! pattern without tripping either the compiler or `repro -- lint`.

use std::path::Path;

use macgame_lint::manifest::{check_manifest, RULE_EXTERNAL_DEP, RULE_WORKSPACE_FIELD};
use macgame_lint::parser::parse;
use macgame_lint::rules::{
    check_source, RULE_EMPTY_MARKER, RULE_ENTROPY, RULE_HASH, RULE_PANIC, RULE_RELAXED,
    RULE_WALL_CLOCK,
};
use macgame_lint::{FileContext, Finding};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lints fixture `name` as if it lived at workspace path `rel_path`.
fn lint_fixture_at(name: &str, rel_path: &str) -> Vec<Finding> {
    check_source(&FileContext { rel_path }, &parse(&fixture(name)))
}

fn lint_fixture(name: &str) -> Vec<Finding> {
    lint_fixture_at(name, &format!("crates/demo/src/{name}"))
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn determinism_rules_fire_on_positive_fixture() {
    let findings = lint_fixture("determinism_positive.rs");
    let rules = rules_of(&findings);
    assert_eq!(rules.iter().filter(|r| **r == RULE_WALL_CLOCK).count(), 2, "{findings:?}");
    assert!(rules.iter().filter(|r| **r == RULE_HASH).count() >= 4, "{findings:?}");
    assert_eq!(rules.iter().filter(|r| **r == RULE_ENTROPY).count(), 2, "{findings:?}");
    let instant = findings.iter().find(|f| f.snippet.contains("Instant")).unwrap();
    assert_eq!(instant.line, 6);
    assert_eq!(instant.path, "crates/demo/src/determinism_positive.rs");
}

#[test]
fn determinism_rules_stay_silent_on_negative_fixture() {
    let findings = lint_fixture("determinism_negative.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn wall_clock_quarantine_allowlists_exact_paths() {
    let findings = lint_fixture_at("determinism_positive.rs", "crates/telemetry/src/global.rs");
    assert!(findings.iter().all(|f| f.rule != RULE_WALL_CLOCK), "{findings:?}");
    // The other determinism rules are unaffected by the quarantine.
    assert!(findings.iter().any(|f| f.rule == RULE_HASH));
    // The quarantine is one exact file, not its directory.
    let sibling = lint_fixture_at("determinism_positive.rs", "crates/telemetry/src/global2.rs");
    assert_eq!(sibling.iter().filter(|f| f.rule == RULE_WALL_CLOCK).count(), 2, "{sibling:?}");
}

#[test]
fn panic_policy_fires_on_every_unmarked_site() {
    let findings = lint_fixture("panic_positive.rs");
    let unmarked: Vec<u32> =
        findings.iter().filter(|f| f.rule == RULE_PANIC).map(|f| f.line).collect();
    assert_eq!(unmarked, vec![3, 4, 5, 6, 8, 11], "{findings:?}");
    let empty: Vec<u32> =
        findings.iter().filter(|f| f.rule == RULE_EMPTY_MARKER).map(|f| f.line).collect();
    assert_eq!(empty, vec![17], "{findings:?}");
}

#[test]
fn panic_policy_accepts_markers_and_test_code() {
    let findings = lint_fixture("panic_negative.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn api_rules_fire_on_positive_fixture() {
    let findings = lint_fixture("api_positive.rs");
    let rules = rules_of(&findings);
    assert_eq!(rules.iter().filter(|r| **r == RULE_RELAXED).count(), 2, "{findings:?}");
}

#[test]
fn api_rules_stay_silent_on_negative_fixture() {
    let findings = lint_fixture("api_negative.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn relaxed_ordering_allowlist_is_a_prefix_match() {
    let findings = lint_fixture_at("api_positive.rs", "crates/telemetry/src/nested/api.rs");
    assert!(findings.iter().all(|f| f.rule != RULE_RELAXED), "{findings:?}");
}

#[test]
fn manifest_rules_fire_on_bad_manifest() {
    let findings =
        check_manifest("crates/demo/Cargo.toml", &fixture("manifest_bad.toml"), false, false);
    let rules = rules_of(&findings);
    assert_eq!(rules.iter().filter(|r| **r == RULE_WORKSPACE_FIELD).count(), 2, "{findings:?}");
    assert_eq!(rules.iter().filter(|r| **r == RULE_EXTERNAL_DEP).count(), 1, "{findings:?}");
}

#[test]
fn manifest_rules_stay_silent_on_good_manifest() {
    let findings =
        check_manifest("crates/demo/Cargo.toml", &fixture("manifest_good.toml"), false, false);
    assert!(findings.is_empty(), "{findings:?}");
}
