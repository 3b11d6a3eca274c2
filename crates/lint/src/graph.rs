//! The workspace call graph: [`crate::parser`] output from every library
//! file, stitched together by name-based resolution.
//!
//! # Resolution model (documented over-approximation, DESIGN.md §18)
//!
//! Without types or trait dispatch, calls resolve by *name*:
//!
//! * `a::…::T::f(…)` — methods named `f` on impl target `T`; if none, free
//!   fns named `f` defined in a module/crate hinted by the qualifier. A
//!   path passed as a value (`.map(T::f)`, `map_err(E::from)`) resolves
//!   the same way: the fn it names is called by whoever receives it.
//! * `f(…)` (bare) — the enclosing fn's own `use` import for `f`, else
//!   the file's (resolved as a path call), else free fns named `f` in the
//!   *same crate*. A glob import records nothing, so a glob-imported fn
//!   from another crate gets no edge.
//! * `self.m(…)` / `Self::m(…)` — methods named `m` on the enclosing
//!   impl target only.
//! * `recv.m(…)` — **every** workspace method named `m`, whatever the
//!   receiver type. This over-approximates (a `.get(…)` on a `BTreeMap`
//!   edges to every workspace `get` method) and never under-approximates
//!   a direct call; reachability verdicts stay sound for "proves absence"
//!   uses.
//!
//! Unresolved names (std, vendored shims) produce no edge; the analyses
//! instead pattern-match such sites directly (e.g. `thread::current`).
//!
//! Determinism: functions are numbered in sorted-file, source order;
//! callee sets are `BTreeSet`s; BFS visits in id order — so witnesses and
//! report bytes are independent of filesystem enumeration or thread count.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::parser::{Event, FnDef, ParsedFile};

/// A function node in the workspace call graph.
#[derive(Debug)]
pub struct FnNode {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Crate name derived from the path (`crates/dcf/src/…` → `dcf`,
    /// `macbench/src/…` → `macbench`, `src/…` and `examples/…` → the
    /// root package).
    pub krate: String,
    /// The parsed definition.
    pub def: FnDef,
    /// Resolved callee ids, deduplicated, in id order.
    pub callees: BTreeSet<usize>,
}

impl FnNode {
    /// `Target::name` (or bare name) for display.
    #[must_use]
    pub fn qualified(&self) -> String {
        self.def.qualified()
    }

    /// `qualified (file:line)` — the witness-step rendering.
    #[must_use]
    pub fn locate(&self) -> String {
        format!("{} ({}:{})", self.qualified(), self.file, self.def.line)
    }
}

/// The assembled workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// All function nodes; the index is the function id.
    pub fns: Vec<FnNode>,
    /// Total number of resolved call edges.
    pub edges: usize,
    /// fn name → ids, for post-build event resolution.
    name_index: BTreeMap<String, Vec<usize>>,
    /// Per-fn module-name hints, parallel to `fns`.
    hints: Vec<BTreeSet<String>>,
    /// Per-file import maps, keyed by workspace-relative path.
    imports: BTreeMap<String, BTreeMap<String, Vec<String>>>,
}

/// Resolves a ≥ 2-segment path call from `node` to candidate fn ids.
///
/// Leading `crate`/`self`/`super` segments are dropped; `Self` as the
/// qualifier maps to the caller's impl target. The final segment is the
/// name; the segment before it is the qualifier, matched first against
/// impl targets, then against module hints of free fns.
fn resolve_path(
    segments: &[String],
    node: &FnNode,
    fns: &[FnNode],
    name_index: &BTreeMap<String, Vec<usize>>,
    hints: &[BTreeSet<String>],
) -> Vec<usize> {
    let cleaned: Vec<&str> = segments
        .iter()
        .map(String::as_str)
        .filter(|s| !matches!(*s, "crate" | "self" | "super"))
        .collect();
    let Some((&name, quals)) = cleaned.split_last() else {
        return Vec::new();
    };
    let Some(candidates) = name_index.get(name) else {
        return Vec::new();
    };
    if quals.is_empty() {
        // The whole path collapsed to one segment (`crate::f`): free fns
        // in the caller's crate.
        return candidates
            .iter()
            .copied()
            .filter(|&c| fns[c].def.impl_target.is_none() && fns[c].krate == node.krate)
            .collect();
    }
    let Some(&last_qual) = quals.last() else {
        return Vec::new();
    };
    let qual = if last_qual == "Self" {
        match node.def.impl_target.as_deref() {
            Some(t) => t,
            None => return Vec::new(),
        }
    } else {
        last_qual
    };
    // Methods on impl target `qual` win; otherwise free fns whose module
    // hints contain `qual` (crate, directory, file stem, inline mod).
    let methods: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&c| fns[c].def.impl_target.as_deref() == Some(qual))
        .collect();
    if !methods.is_empty() {
        return methods;
    }
    candidates
        .iter()
        .copied()
        .filter(|&c| fns[c].def.impl_target.is_none() && hints[c].contains(qual))
        .collect()
}

/// Derives the crate name from a workspace-relative path.
fn crate_of(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("").to_string()
    } else if let Some(rest) = path.strip_prefix("vendor/") {
        rest.split('/').next().unwrap_or("").to_string()
    } else if path.starts_with("macbench/") {
        "macbench".to_string()
    } else {
        "<root>".to_string()
    }
}

/// Module-name hints a path qualifier may refer to for fns in `path`:
/// the crate name (bare and `macgame_`-prefixed), each directory under
/// `src/`, the file stem, and any inline modules.
fn mod_hints(path: &str, def: &FnDef) -> BTreeSet<String> {
    let mut hints = BTreeSet::new();
    let krate = crate_of(path);
    hints.insert(krate.clone());
    hints.insert(format!("macgame_{krate}"));
    hints.insert(krate.replace('-', "_"));
    if let Some(idx) = path.find("/src/") {
        for part in path[idx + 5..].split('/') {
            let stem = part.strip_suffix(".rs").unwrap_or(part);
            if !stem.is_empty() && stem != "lib" && stem != "main" && stem != "mod" {
                hints.insert(stem.to_string());
            }
        }
    }
    for m in &def.modules {
        hints.insert(m.clone());
    }
    hints
}

impl CallGraph {
    /// Builds the graph from `(workspace-relative path, parsed file)` pairs.
    /// The input is sorted by path internally, so the result — ids, edges,
    /// witnesses — is invariant under input order.
    #[must_use]
    pub fn build(files: &[(String, ParsedFile)]) -> CallGraph {
        let mut order: Vec<usize> = (0..files.len()).collect();
        order.sort_by(|&a, &b| files[a].0.cmp(&files[b].0));

        let mut fns: Vec<FnNode> = Vec::new();
        for &fi in &order {
            let (path, parsed) = &files[fi];
            for def in &parsed.fns {
                fns.push(FnNode {
                    file: path.clone(),
                    krate: crate_of(path),
                    def: def.clone(),
                    callees: BTreeSet::new(),
                });
            }
        }
        let mut name_index: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (id, node) in fns.iter().enumerate() {
            name_index.entry(node.def.name.clone()).or_default().push(id);
        }
        let hints: Vec<BTreeSet<String>> = fns.iter().map(|n| mod_hints(&n.file, &n.def)).collect();

        // Per-file import maps, keyed by path.
        let imports: BTreeMap<String, BTreeMap<String, Vec<String>>> =
            files.iter().map(|(p, f)| (p.clone(), f.imports.clone())).collect();

        let mut graph = CallGraph { fns, edges: 0, name_index, hints, imports };

        // Resolve events.
        let mut resolved: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); graph.fns.len()];
        for (id, out) in resolved.iter_mut().enumerate() {
            for ev in &graph.fns[id].def.events {
                for c in graph.resolve_event(id, ev) {
                    if c != id {
                        out.insert(c);
                    }
                }
            }
        }
        for (id, set) in resolved.into_iter().enumerate() {
            graph.edges += set.len();
            graph.fns[id].callees = set;
        }
        graph
    }

    /// Resolves one call event observed inside fn `id` to candidate callee
    /// ids, using the same rules [`build`] uses for edges. Exposed so the
    /// lock-order pass can attribute *which* event produced an edge.
    ///
    /// [`build`]: Self::build
    #[must_use]
    pub fn resolve_event(&self, id: usize, ev: &Event) -> Vec<usize> {
        let node = &self.fns[id];
        match ev {
            Event::PathCall { segments, .. } => {
                resolve_path(segments, node, &self.fns, &self.name_index, &self.hints)
            }
            Event::BareCall { name, .. } => {
                let via_import = node
                    .def
                    .imports
                    .get(name)
                    .or_else(|| self.imports.get(&node.file).and_then(|m| m.get(name)))
                    .map(|full| resolve_path(full, node, &self.fns, &self.name_index, &self.hints));
                match via_import {
                    Some(ids) if !ids.is_empty() => ids,
                    _ => self
                        .name_index
                        .get(name)
                        .into_iter()
                        .flatten()
                        .copied()
                        .filter(|&c| {
                            self.fns[c].def.impl_target.is_none() && self.fns[c].krate == node.krate
                        })
                        .collect(),
                }
            }
            Event::MethodCall { name, receiver, .. } => {
                let self_recv = receiver.as_deref() == Some("self");
                self.name_index
                    .get(name)
                    .into_iter()
                    .flatten()
                    .copied()
                    .filter(|&c| {
                        let target = self.fns[c].def.impl_target.as_deref();
                        if target.is_none() {
                            return false;
                        }
                        if self_recv {
                            target == node.def.impl_target.as_deref()
                        } else {
                            true
                        }
                    })
                    .collect()
            }
            Event::MacroCall { .. } => Vec::new(),
        }
    }

    /// BFS from `roots` (deduplicated, visited in id order): returns, for
    /// every reachable fn, the id of its BFS predecessor (roots map to
    /// themselves). Deterministic: queue order is seeded by sorted root
    /// ids and callee sets iterate in id order.
    #[must_use]
    pub fn reach(&self, roots: &[usize]) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut sorted_roots: Vec<usize> = roots.to_vec();
        sorted_roots.sort_unstable();
        sorted_roots.dedup();
        for r in sorted_roots {
            if r < self.fns.len() && !parent.contains_key(&r) {
                parent.insert(r, r);
                queue.push_back(r);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in &self.fns[u].callees {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(v) {
                    e.insert(u);
                    queue.push_back(v);
                }
            }
        }
        parent
    }

    /// Reconstructs the root → … → `target` witness path from a [`reach`]
    /// parent map, rendered as `qualified (file:line)` steps.
    ///
    /// [`reach`]: Self::reach
    #[must_use]
    pub fn witness(&self, parent: &BTreeMap<usize, usize>, target: usize) -> Vec<String> {
        let mut path = Vec::new();
        let mut cur = target;
        let mut guard = 0usize;
        while let Some(&p) = parent.get(&cur) {
            path.push(self.fns[cur].locate());
            if p == cur {
                break;
            }
            cur = p;
            guard += 1;
            if guard > self.fns.len() {
                break; // PANIC-POLICY: defensive bound; parent maps from `reach` are acyclic by construction
            }
        }
        path.reverse();
        path
    }

    /// The set of fn ids whose node satisfies `pred`.
    pub fn select(&self, pred: impl Fn(&FnNode) -> bool) -> Vec<usize> {
        (0..self.fns.len()).filter(|&i| pred(&self.fns[i])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let parsed: Vec<(String, ParsedFile)> =
            files.iter().map(|(p, s)| (p.to_string(), parse(s))).collect();
        CallGraph::build(&parsed)
    }

    fn id_of(g: &CallGraph, name: &str) -> usize {
        g.fns.iter().position(|n| n.qualified() == name).unwrap()
    }

    #[test]
    fn bare_calls_resolve_within_crate_and_via_imports() {
        let g = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "use macgame_b::helper;\npub fn entry() { local(); helper(); }\nfn local() {}",
            ),
            ("crates/b/src/lib.rs", "pub fn helper() {}\nfn local() {}"),
        ]);
        let entry = id_of(&g, "entry");
        let callees: Vec<String> =
            g.fns[entry].callees.iter().map(|&c| g.fns[c].locate()).collect();
        assert_eq!(
            callees,
            vec!["local (crates/a/src/lib.rs:3)", "helper (crates/b/src/lib.rs:1)"],
            "same-crate local + imported cross-crate helper"
        );
    }

    #[test]
    fn path_calls_resolve_by_impl_target_or_module_hint() {
        let g = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "pub fn entry() { Cache::get_or_solve(1); fixedpoint::solve(2); }",
            ),
            (
                "crates/b/src/cache.rs",
                "pub struct Cache;\nimpl Cache { pub fn get_or_solve(x: u32) {} }",
            ),
            ("crates/b/src/fixedpoint.rs", "pub fn solve(x: u32) {}\nfn spare() {}"),
        ]);
        let entry = id_of(&g, "entry");
        let callees: BTreeSet<String> =
            g.fns[entry].callees.iter().map(|&c| g.fns[c].qualified()).collect();
        assert!(callees.contains("Cache::get_or_solve"), "{callees:?}");
        assert!(callees.contains("solve"), "{callees:?}");
        assert!(!callees.contains("spare"));
    }

    #[test]
    fn self_method_calls_stay_on_the_impl_target() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "struct A; struct B;\n\
             impl A { pub fn run(&self) { self.step(); } fn step(&self) {} }\n\
             impl B { fn step(&self) {} }",
        )]);
        let run = id_of(&g, "A::run");
        let callees: Vec<String> =
            g.fns[run].callees.iter().map(|&c| g.fns[c].qualified()).collect();
        assert_eq!(callees, vec!["A::step"], "self.step must not edge to B::step");
    }

    #[test]
    fn non_self_method_calls_over_approximate_to_all_same_named_methods() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "struct A; struct B;\n\
             impl A { fn poll(&self) {} }\n\
             impl B { fn poll(&self) {} }\n\
             pub fn entry(x: &A) { x.poll(); }",
        )]);
        let entry = id_of(&g, "entry");
        assert_eq!(g.fns[entry].callees.len(), 2, "both polls are candidates");
    }

    #[test]
    fn reach_and_witness_produce_shortest_paths() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "pub fn root() { mid(); }\n\
             fn mid() { sink(); }\n\
             fn sink() {}\n\
             fn island() { sink(); }",
        )]);
        let root = id_of(&g, "root");
        let sink = id_of(&g, "sink");
        let island = id_of(&g, "island");
        let parent = g.reach(&[root]);
        assert!(parent.contains_key(&sink));
        assert!(!parent.contains_key(&island), "unreached fns stay out");
        let w = g.witness(&parent, sink);
        assert_eq!(
            w,
            vec![
                "root (crates/a/src/lib.rs:1)",
                "mid (crates/a/src/lib.rs:2)",
                "sink (crates/a/src/lib.rs:3)"
            ]
        );
    }

    #[test]
    fn build_is_input_order_invariant() {
        let a = ("crates/a/src/lib.rs", "pub fn f() { g(); }\nfn g() {}");
        let b = ("crates/b/src/lib.rs", "pub fn h() {}");
        let g1 = graph_of(&[a, b]);
        let g2 = graph_of(&[b, a]);
        let names1: Vec<String> = g1.fns.iter().map(FnNode::locate).collect();
        let names2: Vec<String> = g2.fns.iter().map(FnNode::locate).collect();
        assert_eq!(names1, names2);
        assert_eq!(g1.edges, g2.edges);
    }

    #[test]
    fn recursion_does_not_hang_reach() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "pub fn a() { b(); }\nfn b() { a(); c(); }\nfn c() {}",
        )]);
        let parent = g.reach(&[id_of(&g, "a")]);
        assert_eq!(parent.len(), 3);
        let w = g.witness(&parent, id_of(&g, "c"));
        assert_eq!(w.len(), 3);
    }
}
