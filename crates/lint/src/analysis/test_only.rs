//! The test-only-pub pass: public library fns that no production entry
//! point reaches, so only tests can call them.
//!
//! Roots are fixed path conventions, not configuration (DESIGN.md §18):
//!
//! * every non-test fn under a package's `src/bin/`;
//! * every non-test fn in the graph-only inputs [`GRAPH_ONLY_DIRS`]
//!   (`examples/`, `macbench/src/`), which are parsed into the graph but
//!   never token-linted;
//! * every fn in an `impl Trait for Type` block — std, serde and the
//!   operators call those through the trait, which name resolution
//!   cannot see;
//! * the determinism-taint roots of the [`AnalysisConfig`].
//!
//! A non-test `pub fn` in library code (a package's `src/` outside
//! `src/bin/`) that no root reaches is reported with a one-step witness:
//! its own definition. Either it is dead, or it is a reference oracle
//! that a test compares production code against; the latter is waived,
//! with the comparing test named in the reason.
//!
//! Name-based resolution only over-approximates reach ([`crate::graph`]),
//! so every finding is safe to delete. The converse does not hold: a fn
//! kept alive only by an over-resolved method name escapes the pass.
//!
//! [`AnalysisConfig`]: super::AnalysisConfig

use crate::rules::Finding;

use super::{Ctx, GRAPH_ONLY_DIRS, RULE_TEST_ONLY};

/// Whether `path` holds production entry points: a binary target or a
/// graph-only input.
fn is_entry_file(path: &str) -> bool {
    path.starts_with("src/bin/")
        || path.contains("/src/bin/")
        || GRAPH_ONLY_DIRS.iter().any(|d| path.starts_with(d))
}

/// Runs the pass; returns findings, the number of production roots and
/// the number of library `pub fn`s checked.
pub(super) fn run(ctx: &Ctx<'_>) -> (Vec<Finding>, usize, usize) {
    let g = ctx.graph;
    let mut roots = ctx.taint_roots();
    roots.extend(g.select(|n| !n.def.is_test && (n.def.trait_impl || is_entry_file(&n.file))));
    roots.sort_unstable();
    roots.dedup();
    let reached = g.reach(&roots);

    let public = g
        .select(|n| !n.def.is_test && n.def.is_pub && !n.def.trait_impl && !is_entry_file(&n.file));
    let mut findings = Vec::new();
    for &id in &public {
        if reached.contains_key(&id) {
            continue;
        }
        let node = &g.fns[id];
        findings.push(ctx.finding(
            RULE_TEST_ONLY,
            &node.file,
            node.def.line,
            format!(
                "`pub fn {}` is reached by no production root (bins, examples, macbench, \
                 trait impls, artifact roots); only tests can call it",
                node.qualified()
            ),
            vec![node.locate()],
        ));
    }
    (findings, roots.len(), public.len())
}
