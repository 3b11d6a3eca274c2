//! Call-graph reachability analyses over the workspace (`lint` v2).
//!
//! Where [`crate::rules`] checks *sites* (a token stream in one file),
//! this module checks *paths*: it stitches every parsed library file
//! ([`crate::parser`]) into a workspace call graph ([`crate::graph`]) and
//! runs the three analyses whose contract depends on a path, not a site:
//!
//! * [`taint`] — `analysis/determinism-taint`: functions reachable from
//!   the artifact-writing roots (the `repro` experiment driver, serve
//!   reply encoding, conformance claim evaluation) must not read thread
//!   identity or spawn raw threads. Every other nondeterminism source
//!   (wall clocks, entropy RNGs, hash containers) is a site contract the
//!   token rules already enforce everywhere in library code.
//! * [`locks`] — `analysis/lock-order`: zero-argument `.lock()` /
//!   `.read()` / `.write()` acquisitions are labeled by owner and
//!   receiver; an inconsistent acquisition order (a cycle in the
//!   may-precede relation, intra- or inter-procedural) is reported as a
//!   potential deadlock.
//! * [`test_only`] — `analysis/test-only-pub`: a library `pub fn` must be
//!   reachable from a production root (a binary, an example, `macbench`,
//!   a trait impl or an artifact root); one only tests reach is dead API.
//!
//! Panic sites are a site contract too: `panic-policy/unmarked-panic`
//! flags every unmarked one, reachable or not, so no graph pass repeats it.
//!
//! Every finding includes a concrete root → … → sink witness so waivers
//! can be reviewed against an actual path, and the rendered
//! `ANALYSIS.json` is byte-stable: file order, fn ids, BFS order, and
//! every container in between are deterministic (DESIGN.md §18).

pub mod locks;
pub mod taint;
pub mod test_only;

use std::collections::BTreeMap;

use crate::graph::CallGraph;
use crate::parser::ParsedFile;
use crate::report::{Report, Summary};
use crate::rules::Finding;

/// Rule id: thread identity or raw threads reachable from an artifact root.
pub const RULE_TAINT: &str = "analysis/determinism-taint";
/// Rule id: inconsistent lock-acquisition order (potential deadlock).
pub const RULE_LOCK_ORDER: &str = "analysis/lock-order";
/// Rule id: a library `pub fn` that no production root reaches.
pub const RULE_TEST_ONLY: &str = "analysis/test-only-pub";

/// Workspace-relative directories parsed into the call graph only: their
/// fns are production roots of `analysis/test-only-pub`, and no token
/// rule runs on them.
pub const GRAPH_ONLY_DIRS: &[&str] = &["examples/", "macbench/src/"];

/// Selects taint-analysis roots: functions in files with a given prefix,
/// optionally narrowed to one function name.
#[derive(Debug, Clone)]
pub struct RootSpec {
    /// Workspace-relative path prefix (exact file or directory).
    pub file_prefix: String,
    /// Restrict to this function name; `None` roots every non-test fn in
    /// matching files.
    pub fn_name: Option<String>,
}

impl RootSpec {
    /// Roots every non-test fn in files matching `prefix`.
    #[must_use]
    pub fn file(prefix: &str) -> RootSpec {
        RootSpec { file_prefix: prefix.to_string(), fn_name: None }
    }

    /// Roots the fn named `name` in files matching `prefix`.
    #[must_use]
    pub fn fn_in(prefix: &str, name: &str) -> RootSpec {
        RootSpec { file_prefix: prefix.to_string(), fn_name: Some(name.to_string()) }
    }
}

/// Configuration for one analysis run.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Artifact-writing roots for the determinism-taint pass (also
    /// production roots of the test-only-pub pass).
    pub taint_roots: Vec<RootSpec>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            // Every fn in the repro driver writes or formats artifacts;
            // serve's reply encoders and the conformance evaluator are the
            // other two byte-stability contracts (DESIGN.md §10, §15).
            taint_roots: vec![
                RootSpec::file("crates/bench/src/bin/repro.rs"),
                RootSpec::fn_in("crates/serve/src/", "handle_batch"),
                RootSpec::fn_in("crates/serve/src/", "handle_payload"),
                RootSpec::fn_in("crates/conformance/src/", "run_conformance"),
            ],
        }
    }
}

/// Workspace-shape counters surfaced in the `ANALYSIS.json` summary.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisStats {
    /// Files parsed into the graph: library files plus the graph-only
    /// inputs.
    pub files: usize,
    /// Function nodes in the graph.
    pub functions: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// Determinism-taint roots matched by the config.
    pub taint_roots: usize,
    /// Lock-acquisition sites labeled by the lock-order pass.
    pub lock_sites: usize,
    /// Production roots of the test-only-pub pass.
    pub production_roots: usize,
    /// Library `pub fn`s the test-only-pub pass checked.
    pub public_fns: usize,
}

impl Summary for AnalysisStats {
    const SCHEMA: &'static str = "macgame-analysis/3";
    const WITNESS: bool = true;
    fn counters(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("files", self.files),
            ("functions", self.functions),
            ("edges", self.edges),
            ("taint_roots", self.taint_roots),
            ("lock_sites", self.lock_sites),
            ("production_roots", self.production_roots),
            ("public_fns", self.public_fns),
        ]
    }
}

/// The outcome of analyzing a workspace: findings plus graph-shape stats.
pub type AnalysisReport = Report<AnalysisStats>;

/// Shared per-run context handed to every pass.
pub(crate) struct Ctx<'a> {
    pub graph: &'a CallGraph,
    pub config: &'a AnalysisConfig,
    /// path → parsed file, for snippets.
    pub files: BTreeMap<&'a str, &'a ParsedFile>,
}

impl Ctx<'_> {
    /// The non-test fns the config names as determinism-taint roots.
    pub(crate) fn taint_roots(&self) -> Vec<usize> {
        self.graph.select(|n| {
            !n.def.is_test
                && self.config.taint_roots.iter().any(|r| {
                    n.file.starts_with(r.file_prefix.as_str())
                        && r.fn_name.as_deref().map_or(true, |f| f == n.def.name)
                })
        })
    }

    /// Assembles a finding with its witness path.
    pub(crate) fn finding(
        &self,
        rule: &'static str,
        path: &str,
        line: u32,
        message: String,
        witness: Vec<String>,
    ) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message,
            snippet: self.files.get(path).map_or_else(String::new, |f| f.snippet(line)),
            waived: false,
            reason: None,
            witness,
        }
    }
}

/// Runs the three analyses over `(workspace-relative path, parsed file)`
/// pairs.
/// Pure: no filesystem access, and the output — findings, witnesses, JSON
/// bytes — is invariant under the input order.
#[must_use]
pub fn analyze(files: &[(String, ParsedFile)], config: &AnalysisConfig) -> AnalysisReport {
    let graph = CallGraph::build(files);
    let ctx =
        Ctx { graph: &graph, config, files: files.iter().map(|(p, f)| (p.as_str(), f)).collect() };
    let (mut findings, taint_roots) = taint::run(&ctx);
    let (mut cycles, lock_sites) = locks::run(&ctx);
    findings.append(&mut cycles);
    let (mut dead, production_roots, public_fns) = test_only::run(&ctx);
    findings.append(&mut dead);
    let stats = AnalysisStats {
        files: files.len(),
        functions: graph.fns.len(),
        edges: graph.edges,
        taint_roots,
        lock_sites,
        production_roots,
        public_fns,
    };
    Report::new(findings, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn parsed(files: &[(&str, &str)]) -> Vec<(String, ParsedFile)> {
        files.iter().map(|(p, s)| (p.to_string(), parse(s))).collect()
    }

    #[test]
    fn clean_workspace_produces_empty_stable_report() {
        let files = parsed(&[(
            "crates/a/src/lib.rs",
            "pub fn api() -> u32 { helper() }\nfn helper() -> u32 { 1 }\n",
        )]);
        // `api` is an artifact root, so it is reached and not test-only.
        let config = AnalysisConfig { taint_roots: vec![RootSpec::fn_in("crates/a/", "api")] };
        let report = analyze(&files, &config);
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.stats.functions, 2);
        assert_eq!(report.to_json(), report.to_json());
    }

    #[test]
    fn json_bytes_are_input_order_invariant() {
        let a = ("crates/a/src/lib.rs", "pub fn emit() { b_entry(); }\n");
        let b =
            ("crates/a/src/other.rs", "pub fn b_entry() { let _t = std::thread::current(); }\n");
        let config = AnalysisConfig { taint_roots: vec![RootSpec::fn_in("crates/a/", "emit")] };
        let one = analyze(&parsed(&[a, b]), &config).to_json();
        let two = analyze(&parsed(&[b, a]), &config).to_json();
        assert_eq!(one, two);
        assert!(one.contains("analysis/determinism-taint"), "{one}");
    }
}
