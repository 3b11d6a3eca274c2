//! Call-graph reachability analyses over the workspace (`lint` v2).
//!
//! Where [`crate::rules`] checks *sites* (a token stream in one file),
//! this module checks *paths*: it stitches every parsed library file
//! ([`crate::parser`]) into a workspace call graph ([`crate::graph`]) and
//! runs the two analyses whose contract depends on a path, not a site:
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

use std::collections::BTreeMap;

use crate::graph::CallGraph;
use crate::parser::ParsedFile;
use crate::report::{Report, Summary};
use crate::rules::Finding;

/// Rule id: thread identity or raw threads reachable from an artifact root.
pub const RULE_TAINT: &str = "analysis/determinism-taint";
/// Rule id: inconsistent lock-acquisition order (potential deadlock).
pub const RULE_LOCK_ORDER: &str = "analysis/lock-order";

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
    /// Artifact-writing roots for the determinism-taint pass.
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
    /// Library files parsed into the graph.
    pub files: usize,
    /// Function nodes in the graph.
    pub functions: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// Determinism-taint roots matched by the config.
    pub taint_roots: usize,
    /// Lock-acquisition sites labeled by the lock-order pass.
    pub lock_sites: usize,
}

impl Summary for AnalysisStats {
    const SCHEMA: &'static str = "macgame-analysis/2";
    const WITNESS: bool = true;
    fn counters(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("files", self.files),
            ("functions", self.functions),
            ("edges", self.edges),
            ("taint_roots", self.taint_roots),
            ("lock_sites", self.lock_sites),
        ]
    }
}

/// The outcome of analyzing a workspace: findings plus graph-shape stats.
pub type AnalysisReport = Report<AnalysisStats>;

/// Shared per-run context handed to both passes.
pub(crate) struct Ctx<'a> {
    pub graph: &'a CallGraph,
    pub config: &'a AnalysisConfig,
    /// path → parsed file, for snippets.
    pub files: BTreeMap<&'a str, &'a ParsedFile>,
}

impl Ctx<'_> {
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

/// Runs both analyses over `(workspace-relative path, parsed file)` pairs.
/// Pure: no filesystem access, and the output — findings, witnesses, JSON
/// bytes — is invariant under the input order.
#[must_use]
pub fn analyze(files: &[(String, ParsedFile)], config: &AnalysisConfig) -> AnalysisReport {
    let graph = CallGraph::build(files);
    let ctx = Ctx {
        graph: &graph,
        config,
        files: files.iter().map(|(p, f)| (p.as_str(), f)).collect(),
    };
    let (mut findings, taint_roots) = taint::run(&ctx);
    let (mut cycles, lock_sites) = locks::run(&ctx);
    findings.append(&mut cycles);
    let stats = AnalysisStats {
        files: files.len(),
        functions: graph.fns.len(),
        edges: graph.edges,
        taint_roots,
        lock_sites,
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
        let report = analyze(&files, &AnalysisConfig::default());
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
