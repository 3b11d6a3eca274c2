//! The determinism-taint pass: thread identity and raw threads reachable
//! from artifact-writing roots.
//!
//! Sources (each a path call inside a reachable fn):
//!
//! * `std::thread::current` (thread-identity reads — shard selection or
//!   branching on `ThreadId` makes bytes depend on scheduling);
//! * `std::thread::spawn` / `std::thread::scope` (raw parallelism outside
//!   the order-preserving executor, `macgame_dcf::parallel::map`).
//!
//! Both are legitimate in library code that never reaches an artifact,
//! so unlike the token rules' sources they are only a defect on a path
//! from a root. Two reachable sites are sanctioned by waiver: the
//! telemetry shard's thread-id read and the executor's one
//! `thread::scope`. Wall clocks, entropy RNGs and hash containers are
//! banned at every site by the token rules, which subsume any path to
//! them (DESIGN.md §18).
//!
//! Test fns are never roots and never report sinks; top-level `tests/`
//! and `benches/` files are never read.

use crate::parser::Event;
use crate::rules::Finding;

use super::{Ctx, RULE_TAINT};

/// One classified nondeterminism source.
struct Source {
    /// What the site calls, for the message (`thread::current`).
    what: String,
    /// Why it is nondeterministic.
    why: &'static str,
    /// 1-based site line.
    line: u32,
}

/// Classifies one event as a nondeterminism source, if it is one.
fn classify(ev: &Event) -> Option<Source> {
    let Event::PathCall { segments, line } = ev else {
        return None;
    };
    let [.., prev, last] = segments.as_slice() else {
        return None;
    };
    let why = match (prev.as_str(), last.as_str()) {
        ("thread", "current") => {
            "a thread-identity read; bytes must not depend on which thread runs"
        }
        ("thread", "spawn" | "scope") => {
            "raw parallelism outside the order-preserving executor dcf::parallel::map"
        }
        _ => return None,
    };
    Some(Source { what: format!("thread::{last}"), why, line: *line })
}

/// Runs the pass; returns findings and the number of roots matched.
pub(super) fn run(ctx: &Ctx<'_>) -> (Vec<Finding>, usize) {
    let g = ctx.graph;
    let roots = ctx.taint_roots();
    let root_count = roots.len();
    let parent = g.reach(&roots);

    let mut findings = Vec::new();
    for &id in parent.keys() {
        let node = &g.fns[id];
        if node.def.is_test {
            continue;
        }
        let sources: Vec<Source> = node.def.events.iter().filter_map(classify).collect();
        if sources.is_empty() {
            continue;
        }
        let path = g.witness(&parent, id);
        let root = path.first().and_then(|s| s.split(" (").next()).unwrap_or("?").to_string();
        let depth = path.len().saturating_sub(1);
        for s in sources {
            let mut witness = path.clone();
            witness.push(format!("{} ({}:{})", s.what, node.file, s.line));
            findings.push(ctx.finding(
                RULE_TAINT,
                &node.file,
                s.line,
                format!(
                    "`{}` — {} — is reachable from artifact root `{root}` \
                     ({depth} call(s) deep)",
                    s.what, s.why
                ),
                witness,
            ));
        }
    }
    (findings, root_count)
}

#[cfg(test)]
mod tests {
    use crate::analysis::{analyze, AnalysisConfig, RootSpec, RULE_TAINT};
    use crate::parser::{parse, ParsedFile};

    fn analyze_one(src: &str) -> crate::analysis::AnalysisReport {
        let files: Vec<(String, ParsedFile)> =
            vec![("crates/app/src/lib.rs".to_string(), parse(src))];
        let config =
            AnalysisConfig { taint_roots: vec![RootSpec::fn_in("crates/app/src/", "emit")] };
        analyze(&files, &config)
    }

    #[test]
    fn thread_identity_three_calls_deep_is_found_with_witness() {
        let report = analyze_one(
            "pub fn emit() { mid(); }\nfn mid() { leaf(); }\nfn leaf() { \
             let _ = std::thread::current(); }\n",
        );
        let f = &report.findings[0];
        assert_eq!(f.rule, RULE_TAINT);
        assert_eq!((f.path.as_str(), f.line), ("crates/app/src/lib.rs", 3));
        assert_eq!(
            f.witness,
            vec![
                "emit (crates/app/src/lib.rs:1)",
                "mid (crates/app/src/lib.rs:2)",
                "leaf (crates/app/src/lib.rs:3)",
                "thread::current (crates/app/src/lib.rs:3)",
            ]
        );
        assert!(f.message.contains("artifact root `emit`"), "{}", f.message);
    }

    #[test]
    fn unreachable_sources_stay_silent() {
        let report = analyze_one(
            "pub fn emit() -> u32 { 1 }\nfn island() { let _ = std::thread::current(); }\n",
        );
        assert!(report.is_clean(), "{:?}", report.findings);
    }

    #[test]
    fn raw_threads_are_sources_and_site_contracts_are_not() {
        let report = analyze_one(
            "pub fn emit() {\n\
             std::thread::scope(|_s| {});\n\
             let _h = std::thread::spawn(|| {});\n\
             let _t = std::time::Instant::now();\n\
             let _m = std::collections::HashMap::<u32, u32>::new();\n\
             }\n",
        );
        let sites: Vec<(u32, &str)> =
            report.findings.iter().map(|f| (f.line, f.witness.last().unwrap().as_str())).collect();
        assert_eq!(
            sites,
            vec![
                (2, "thread::scope (crates/app/src/lib.rs:2)"),
                (3, "thread::spawn (crates/app/src/lib.rs:3)"),
            ],
            "{:?}",
            report.findings
        );
    }
}
