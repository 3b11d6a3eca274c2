//! End-to-end runs of the call-graph analyses: fixture mini-workspaces
//! with known clean/dirty graphs, the resolution cases the graph must see
//! (fn-local imports, paths passed as values), the real workspace (which
//! must be analysis-clean with every waiver carrying a rationale),
//! byte-stability of `ANALYSIS.json`, and a proptest that the analyzer's
//! output bytes are invariant under input file order.

use std::fs;
use std::path::{Path, PathBuf};

use macgame_lint::analysis::{
    analyze, AnalysisConfig, RootSpec, RULE_LOCK_ORDER, RULE_TAINT, RULE_TEST_ONLY,
};
use macgame_lint::parser::{parse, ParsedFile};
use macgame_lint::rules::{RULE_HASH, RULE_RELAXED};
use macgame_lint::waivers::parse_waivers;
use macgame_lint::{run_workspace, run_workspace_with, Finding, WAIVER_FILE};
use proptest::prelude::*;

fn real_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// The analysis config every fixture workspace is written against:
/// `emit` fns are artifact roots.
fn fixture_config() -> AnalysisConfig {
    AnalysisConfig { taint_roots: vec![RootSpec::fn_in("crates/", "emit")] }
}

fn fixture_analysis(name: &str) -> macgame_lint::AnalysisReport {
    run_workspace_with(&fixture_root(name), &fixture_config()).unwrap().analysis
}

#[test]
fn clean_fixture_reports_nothing() {
    let report = fixture_analysis("ws_clean");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.stats.taint_roots, 1, "emit must be rooted");
    assert!(report.stats.functions >= 4);
}

#[test]
fn taint_fixture_reports_the_rooted_path_and_only_it() {
    let report = fixture_analysis("ws_taint");
    let taints: Vec<_> = report.findings.iter().filter(|f| f.rule == RULE_TAINT).collect();
    assert_eq!(taints.len(), 1, "island's thread read is unrooted: {:?}", report.findings);
    let f = taints[0];
    assert_eq!((f.path.as_str(), f.line), ("crates/app/src/lib.rs", 15));
    assert_eq!(
        f.witness,
        vec![
            "emit (crates/app/src/lib.rs:6)",
            "mid (crates/app/src/lib.rs:10)",
            "leaf (crates/app/src/lib.rs:14)",
            "thread::current (crates/app/src/lib.rs:15)",
        ],
        "witness must spell out the root → … → sink path"
    );
}

#[test]
fn lock_cycle_fixture_reports_one_cycle_with_both_edges() {
    let report = fixture_analysis("ws_lockcycle");
    let cycles: Vec<_> = report.findings.iter().filter(|f| f.rule == RULE_LOCK_ORDER).collect();
    assert_eq!(cycles.len(), 1, "{:?}", report.findings);
    let f = cycles[0];
    assert!(f.message.contains("Pair::alpha"), "{}", f.message);
    assert!(f.message.contains("Pair::beta"), "{}", f.message);
    assert_eq!(f.witness.len(), 2, "one edge description per direction: {:?}", f.witness);
    assert_eq!(report.stats.lock_sites, 4);
}

#[test]
fn test_only_fixture_flags_exactly_the_fns_only_tests_reach() {
    let report = fixture_analysis("ws_dead");
    let flagged: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == RULE_TEST_ONLY)
        .map(|f| f.witness[0].as_str())
        .collect();
    // Not flagged: fns reached from `src/bin/`, `examples/`, a `Display`
    // impl, a fn-local `use` and a path passed as a value, and the
    // `pub(crate)` fn.
    assert_eq!(
        flagged,
        vec![
            "only_unit_tests (crates/app/src/lib.rs:33)",
            "only_integration_tests (crates/app/src/lib.rs:38)",
        ],
        "{:?}",
        report.findings
    );
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    // emit, the binary's and the example's `main`, and `Label::fmt`.
    assert_eq!(report.stats.production_roots, 4);
}

/// Taint findings when the artifact root `emit` in crate `app` runs
/// `emit_body`, and `other::leaf` reads thread identity. `leaf` lives in
/// another crate, so the same-crate fallback for bare calls cannot find it.
fn taint_through(emit_body: &str) -> Vec<Finding> {
    let files = vec![
        ("crates/app/src/lib.rs".to_string(), parse(&format!("pub fn emit() {{ {emit_body} }}\n"))),
        (
            "crates/other/src/lib.rs".to_string(),
            parse("pub fn leaf(x: u32) -> u32 {\n    let _t = std::thread::current();\n    x\n}\n"),
        ),
    ];
    analyze(&files, &fixture_config())
        .findings
        .into_iter()
        .filter(|f| f.rule == RULE_TAINT)
        .collect()
}

const LEAF_WITNESS: [&str; 3] = [
    "emit (crates/app/src/lib.rs:1)",
    "leaf (crates/other/src/lib.rs:1)",
    "thread::current (crates/other/src/lib.rs:2)",
];

#[test]
fn fn_local_use_resolves_a_bare_call_across_crates() {
    let taints = taint_through("use other::leaf; leaf(1);");
    assert_eq!(taints.len(), 1, "{taints:?}");
    assert_eq!(taints[0].witness, LEAF_WITNESS);
}

#[test]
fn a_path_passed_as_a_value_is_a_call() {
    let taints =
        taint_through("let _v: Vec<u32> = vec![1].into_iter().map(other::leaf).collect();");
    assert_eq!(taints.len(), 1, "{taints:?}");
    assert_eq!(taints[0].witness, LEAF_WITNESS);
}

#[test]
fn real_workspace_is_analysis_clean_with_rationales_and_witnesses() {
    let workspace = run_workspace(&real_root()).unwrap();
    let unwaived: Vec<String> = workspace
        .analysis
        .unwaived()
        .iter()
        .map(|f| format!("{} {}:{}", f.rule, f.path, f.line))
        .collect();
    assert!(unwaived.is_empty(), "unwaived analysis findings: {unwaived:#?}");
    for f in &workspace.analysis.findings {
        assert!(
            f.reason.as_deref().is_some_and(|r| !r.trim().is_empty()),
            "waiver without rationale: {} {}:{}",
            f.rule,
            f.path,
            f.line
        );
        // Every reachability finding carries a root → … → sink witness
        // whose last step names the finding's own site.
        assert!(!f.witness.is_empty(), "{} {}:{} has no witness", f.rule, f.path, f.line);
        if f.rule != RULE_LOCK_ORDER {
            let site = format!("({}:{})", f.path, f.line);
            assert!(
                f.witness.last().is_some_and(|w| w.ends_with(&site)),
                "witness of {}:{} must end at the site: {:?}",
                f.path,
                f.line,
                f.witness
            );
        }
    }
    // `repro`'s artifacts are deterministic by construction, not by
    // waiver: no determinism finding, waived or not, lies in the bench
    // crate.
    let bench_determinism: Vec<String> = workspace
        .lint
        .findings
        .iter()
        .chain(&workspace.analysis.findings)
        .filter(|f| f.rule.starts_with("determinism/") || f.rule == RULE_TAINT)
        .filter(|f| f.path.starts_with("crates/bench/"))
        .map(|f| format!("{} {}:{}", f.rule, f.path, f.line))
        .collect();
    assert!(
        bench_determinism.is_empty(),
        "determinism findings in crates/bench: {bench_determinism:#?}"
    );
    // Waiver budget: the workspace's one cache type, `dcf::cache::Memo`,
    // keeps its maps ordered and its relaxed counters in two helpers, so
    // no hash container is waived and at most two relaxed orderings are,
    // both inside that module.
    let waivers = parse_waivers(&fs::read_to_string(real_root().join(WAIVER_FILE)).unwrap());
    let of_rule = |rule: &str| -> Vec<String> {
        waivers
            .waivers
            .iter()
            .filter(|w| w.rule == rule)
            .map(|w| format!("{}:{:?}", w.path, w.line))
            .collect()
    };
    let hash = of_rule(RULE_HASH);
    assert!(hash.is_empty(), "hash-container waivers: {hash:#?}");
    let relaxed = of_rule(RULE_RELAXED);
    assert!(relaxed.len() <= 2, "relaxed-ordering waivers: {relaxed:#?}");
    assert!(
        relaxed.iter().all(|w| w.starts_with("crates/dcf/src/cache.rs:")),
        "relaxed-ordering waivers outside the memo: {relaxed:#?}"
    );
    // Spawn-site budget: exactly two thread sites reach an artifact, both
    // waived — the telemetry shard's thread-id read and the executor's one
    // `thread::scope`. Any other raw spawn stays an unwaived finding.
    let taint = of_rule(RULE_TAINT);
    assert_eq!(taint.len(), 2, "determinism-taint waivers: {taint:#?}");
    let mut sites: Vec<String> = workspace
        .analysis
        .findings
        .iter()
        .filter(|f| f.rule == RULE_TAINT)
        .map(|f| format!("{} {}", f.path, f.message.split(' ').next().unwrap_or("")))
        .collect();
    sites.sort();
    assert_eq!(
        sites,
        [
            "crates/dcf/src/parallel.rs `thread::scope`",
            "crates/telemetry/src/collect.rs `thread::current`"
        ]
    );
    // The graph actually covered the workspace.
    assert!(workspace.analysis.stats.functions > 500);
    assert!(workspace.analysis.stats.edges > workspace.analysis.stats.functions);
    assert!(workspace.analysis.stats.taint_roots > 10, "repro experiments are roots");
    assert!(workspace.analysis.stats.lock_sites > 10, "sharded caches are audited");
}

#[test]
fn analysis_artifact_is_byte_stable_across_runs() {
    let root = real_root();
    let first = run_workspace(&root).unwrap().analysis.to_json();
    let second = run_workspace(&root).unwrap().analysis.to_json();
    assert_eq!(first, second);
    assert!(first.contains("\"schema\": \"macgame-analysis/3\""));
    assert!(first.contains("\"witness\": ["));
}

/// An `analysis/*` waiver and a token-rule waiver in one workspace must
/// each be applied to its own finding, and neither may be reported stale
/// by the other pass — waivers match over the union.
#[test]
fn analysis_waivers_apply_across_the_union_without_going_stale() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("analysis-union");
    if root.exists() {
        fs::remove_dir_all(&root).unwrap();
    }
    fs::create_dir_all(root.join("crates/app/src")).unwrap();
    fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/app\"]\nresolver = \"2\"\n\n\
         [workspace.package]\nversion = \"0.1.0\"\nedition = \"2021\"\nlicense = \"MIT\"\n",
    )
    .unwrap();
    fs::write(
        root.join("crates/app/Cargo.toml"),
        "[package]\nname = \"app\"\nversion.workspace = true\n\
         edition.workspace = true\nlicense.workspace = true\n",
    )
    .unwrap();
    fs::write(
        root.join("crates/app/src/lib.rs"),
        "pub fn emit() -> String { shard() }\n\
         fn shard() -> String { format!(\"{:?}\", std::thread::current().id()) }\n\
         fn first(v: &[u32]) -> u32 { *v.first().unwrap() }\n",
    )
    .unwrap();
    fs::write(
        root.join("lint-allow.toml"),
        "[[allow]]\nrule = \"analysis/determinism-taint\"\npath = \"crates/app/src/lib.rs\"\n\
         line = 2\nreason = \"fixture: the thread id never reaches the bytes\"\n\n\
         [[allow]]\nrule = \"panic-policy/unmarked-panic\"\npath = \"crates/app/src/lib.rs\"\n\
         line = 3\nreason = \"fixture: callers pass a non-empty slice\"\n",
    )
    .unwrap();
    let workspace = run_workspace_with(&root, &fixture_config()).unwrap();
    assert!(
        workspace.is_clean(),
        "lint: {:?}\nanalysis: {:?}",
        workspace.lint.unwaived(),
        workspace.analysis.unwaived()
    );
    assert!(
        workspace.analysis.findings.iter().any(|f| f.rule == RULE_TAINT && f.waived),
        "the taint finding must exist and be waived: {:?}",
        workspace.analysis.findings
    );
    assert!(
        workspace.lint.findings.iter().any(|f| f.rule == "panic-policy/unmarked-panic" && f.waived),
        "the panic finding must exist and be waived: {:?}",
        workspace.lint.findings
    );
    assert!(
        !workspace.lint.findings.iter().any(|f| f.rule == "waiver/stale"),
        "neither waiver may go stale: {:?}",
        workspace.lint.findings
    );
}

/// All fixture sources combined into one synthetic workspace, with the
/// single-file fixtures remapped so their `app` crates stay distinct.
/// `ws_dead` spans two crates, a binary and an example, so it keeps its
/// own paths; no other fixture is remapped onto them.
fn combined_fixture_sources() -> Vec<(String, ParsedFile)> {
    let mut files = Vec::new();
    for ws in ["ws_clean", "ws_taint", "ws_lockcycle"] {
        let lib = fixture_root(ws).join("crates/app/src/lib.rs");
        let source = fs::read_to_string(&lib).unwrap();
        files.push((format!("crates/{ws}/src/lib.rs"), parse(&source)));
    }
    for rel in [
        "crates/app/src/lib.rs",
        "crates/app/src/bin/tool.rs",
        "crates/util/src/lib.rs",
        "examples/demo.rs",
    ] {
        let source = fs::read_to_string(fixture_root("ws_dead").join(rel)).unwrap();
        files.push((rel.to_string(), parse(&source)));
    }
    files
}

proptest! {
    /// The analyzer's output bytes do not depend on the order files are
    /// handed in — the property CI's double-run `cmp` relies on.
    #[test]
    fn analyzer_bytes_are_input_order_invariant(seed in 0u64..u64::MAX) {
        let config = fixture_config();
        let baseline = analyze(&combined_fixture_sources(), &config).to_json();
        let mut files = combined_fixture_sources();
        // Fisher–Yates driven by the proptest seed.
        let mut state = seed | 1;
        for i in (1..files.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            files.swap(i, (state as usize) % (i + 1));
        }
        let shuffled = analyze(&files, &config).to_json();
        prop_assert_eq!(&baseline, &shuffled);
        // The dirty fixtures stay visible whatever the order.
        prop_assert!(shuffled.contains("analysis/determinism-taint"));
        prop_assert!(shuffled.contains("analysis/lock-order"));
        prop_assert!(shuffled.contains("analysis/test-only-pub"));
    }
}
