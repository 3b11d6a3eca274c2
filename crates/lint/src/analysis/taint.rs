//! The determinism-taint pass: nondeterminism sources reachable from
//! artifact-writing roots.
//!
//! Sources (each a site inside a reachable fn):
//!
//! * `Instant::now` / `SystemTime::now` path calls outside the
//!   `wall_clock_allow` quarantine;
//! * `thread_rng` / `from_entropy` (entropy-seeded RNG);
//! * `std::thread::current` (thread-identity reads — shard selection or
//!   branching on `ThreadId` makes bytes depend on scheduling);
//! * `std::thread::spawn` / `std::thread::scope` (raw parallelism outside
//!   the order-preserving `map_in_order` shim);
//! * hash-container iteration, by co-occurrence: a fn that both mentions
//!   `HashMap`/`HashSet` *and* calls an iteration-family method. This
//!   over-approximates (the iterated collection may be a `Vec`) and
//!   under-approximates (a field typed in another file is invisible);
//!   both directions are documented in DESIGN.md §18.
//!
//! Test fns are never roots and never report sinks; top-level `tests/`,
//! `benches/` and `examples/` files are never read.

use crate::parser::Event;
use crate::rules::Finding;

use super::{Ctx, RULE_TAINT};

/// Iteration-family methods whose call on a hash container leaks memory
/// order.
const ITER_METHODS: &[&str] = &[
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "iter",
    "iter_mut",
    "keys",
    "retain",
    "values",
    "values_mut",
];

/// One classified nondeterminism source.
struct Source {
    /// What the site calls, for the message (`Instant::now`).
    what: String,
    /// Why it is nondeterministic.
    why: &'static str,
    /// 1-based site line.
    line: u32,
}

/// Classifies one event as a nondeterminism source, if it is one.
fn classify(ev: &Event, file: &str, ctx: &Ctx<'_>) -> Option<Source> {
    match ev {
        Event::PathCall { segments, line } => {
            let [.., prev, last] = segments.as_slice() else {
                return None;
            };
            if (prev == "Instant" || prev == "SystemTime") && last == "now" {
                if ctx.config.wall_clock_allow.iter().any(|p| p == file) {
                    return None;
                }
                return Some(Source {
                    what: format!("{prev}::now"),
                    why: "a wall-clock read outside the telemetry timings quarantine",
                    line: *line,
                });
            }
            if last == "thread_rng" || last == "from_entropy" {
                return Some(Source {
                    what: last.clone(),
                    why: "an entropy-seeded RNG; randomness must come from seeded ChaCha8",
                    line: *line,
                });
            }
            if prev == "thread" && last == "current" {
                return Some(Source {
                    what: "thread::current".to_string(),
                    why: "a thread-identity read; bytes must not depend on which thread runs",
                    line: *line,
                });
            }
            if prev == "thread" && (last == "spawn" || last == "scope") {
                return Some(Source {
                    what: format!("thread::{last}"),
                    why: "raw parallelism outside the order-preserving map_in_order shim",
                    line: *line,
                });
            }
            None
        }
        Event::BareCall { name, line } if name == "thread_rng" || name == "from_entropy" => {
            Some(Source {
                what: name.clone(),
                why: "an entropy-seeded RNG; randomness must come from seeded ChaCha8",
                line: *line,
            })
        }
        _ => None,
    }
}

/// Runs the pass; returns findings and the number of roots matched.
pub(super) fn run(ctx: &Ctx<'_>) -> (Vec<Finding>, usize) {
    let g = ctx.graph;
    let roots = g.select(|n| {
        !n.def.is_test
            && ctx.config.taint_roots.iter().any(|r| {
                n.file.starts_with(r.file_prefix.as_str())
                    && r.fn_name.as_deref().map_or(true, |f| f == n.def.name)
            })
    });
    let root_count = roots.len();
    let parent = g.reach(&roots);

    let mut findings = Vec::new();
    for &id in parent.keys() {
        let node = &g.fns[id];
        if node.def.is_test {
            continue;
        }
        let mut sources: Vec<Source> = node
            .def
            .events
            .iter()
            .filter_map(|ev| classify(ev, &node.file, ctx))
            .collect();
        // Hash-iteration co-occurrence heuristic.
        if node.def.mentions.contains("HashMap") || node.def.mentions.contains("HashSet") {
            for ev in &node.def.events {
                if let Event::MethodCall { name, line, .. } = ev {
                    if ITER_METHODS.contains(&name.as_str()) {
                        sources.push(Source {
                            what: format!(".{name}()"),
                            why: "iteration co-located with a hash container; memory order \
                                  can leak into bytes",
                            line: *line,
                        });
                    }
                }
            }
        }
        if sources.is_empty() {
            continue;
        }
        let path = g.witness(&parent, id);
        let root = path
            .first()
            .and_then(|s| s.split(" (").next())
            .unwrap_or("?")
            .to_string();
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

    fn config() -> AnalysisConfig {
        AnalysisConfig {
            taint_roots: vec![RootSpec::fn_in("crates/app/src/", "emit")],
            wall_clock_allow: vec!["crates/app/src/quarantine.rs".to_string()],
            panic_api_prefixes: vec![],
        }
    }

    #[test]
    fn wall_clock_three_calls_deep_is_found_with_witness() {
        let files = vec![
            (
                "crates/app/src/lib.rs".to_string(),
                "pub fn emit() { mid(); }\nfn mid() { leaf(); }\nfn leaf() { \
                 let _ = std::time::Instant::now(); }\n"
                    .to_string(),
            ),
        ];
        let report = analyze(&files, &config());
        let f = &report.findings[0];
        assert_eq!(f.rule, RULE_TAINT);
        assert_eq!((f.path.as_str(), f.line), ("crates/app/src/lib.rs", 3));
        assert_eq!(
            f.witness,
            vec![
                "emit (crates/app/src/lib.rs:1)",
                "mid (crates/app/src/lib.rs:2)",
                "leaf (crates/app/src/lib.rs:3)",
                "Instant::now (crates/app/src/lib.rs:3)",
            ]
        );
        assert!(f.message.contains("artifact root `emit`"), "{}", f.message);
    }

    #[test]
    fn unreachable_and_quarantined_sources_stay_silent() {
        let files = vec![
            (
                "crates/app/src/lib.rs".to_string(),
                "pub fn emit() { crate::quarantine::span(); }\npub fn island() { \
                 let _ = std::time::Instant::now(); }\n"
                    .to_string(),
            ),
            (
                "crates/app/src/quarantine.rs".to_string(),
                "pub fn span() { let _ = std::time::Instant::now(); }\n".to_string(),
            ),
        ];
        let report = analyze(&files, &config());
        assert!(report.is_clean(), "{:?}", report.findings);
    }

    #[test]
    fn hash_iteration_and_thread_identity_are_sources() {
        let files = vec![(
            "crates/app/src/lib.rs".to_string(),
            "pub fn emit() {\n\
             let m: std::collections::HashMap<u32, u32> = make();\n\
             for (_k, _v) in m.iter() {}\n\
             let _t = std::thread::current();\n\
             }\nfn make() -> std::collections::HashMap<u32, u32> { todo()
             }\nfn todo() -> std::collections::HashMap<u32, u32> { loop {} }\n"
                .to_string(),
        )];
        let report = analyze(&files, &config());
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec![RULE_TAINT, RULE_TAINT], "{:?}", report.findings);
        assert!(report.findings.iter().any(|f| f.message.contains("thread::current")));
        assert!(report.findings.iter().any(|f| f.message.contains(".iter()")));
    }
}
