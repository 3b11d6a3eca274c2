//! The lock-order pass: a static consistent-ordering check over lock
//! acquisitions, so the sharded `dcf::cache::Memo` and the
//! telemetry recorder cannot grow a deadlock unnoticed.
//!
//! An *acquisition* is a zero-argument `.lock()` / `.read()` / `.write()`
//! method call — the signatures of `Mutex::lock` and `RwLock::read` /
//! `write` (`io::Write::write` takes a buffer, so it never matches).
//! Each acquisition is labeled `Owner::receiver`, where `Owner` is the
//! enclosing impl target (or the file stem for free fns) and `receiver`
//! is the parser's best-effort receiver hint; `shard.read()` inside two
//! different types therefore gets two different labels.
//!
//! The pass builds a *may-precede* relation over labels: `A → B` when
//! some fn acquires `A` and later (by line) either acquires `B` itself or
//! calls — directly or transitively — a fn that acquires `B`. Same-label
//! pairs are excluded: shard-then-shard in a loop is the sharding
//! pattern, not an ordering hazard (self-deadlock on one lock is out of
//! scope here). A cycle in the relation means two threads can acquire
//! the involved locks in opposite orders; each distinct cycle is
//! reported once, anchored at the first edge's acquisition site, with
//! every edge of the cycle spelled out in the witness.
//!
//! Unlike the taint pass, lock propagation follows only
//! *precisely resolved* calls: path calls, bare calls, and `self.`
//! method calls. Non-`self` method calls resolve by name to every
//! same-named workspace method, and under that over-approximation every
//! `.len()` inside a guard would "acquire" every lock any `len` method
//! touches — all noise, no signal. The trade-off is explicit
//! (DESIGN.md §18): this pass favors precision over soundness, so a
//! deadlock threaded purely through a trait-object call can escape it.
//!
//! Remaining over-approximation: guards are assumed held until the end
//! of the fn (drops are invisible to the parser), so spurious cycles
//! are still possible — they are waivable with a rationale.
//! Under-approximation: locks acquired through closures passed as
//! arguments are attributed to the defining fn, not the call site, and
//! same-label cycles (self-deadlock on one lock) are out of scope.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::parser::Event;
use crate::rules::Finding;

use super::{Ctx, RULE_LOCK_ORDER};

/// Zero-argument methods that acquire a lock guard.
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// One labeled acquisition site.
struct Acq {
    label: String,
    line: u32,
}

/// Labels every acquisition in one fn, in source order.
fn acquisitions(owner: &str, def_events: &[Event]) -> Vec<Acq> {
    let mut out = Vec::new();
    for ev in def_events {
        if let Event::MethodCall { name, receiver, zero_args: true, line } = ev {
            if LOCK_METHODS.contains(&name.as_str()) {
                let recv = receiver.as_deref().filter(|r| *r != "self").unwrap_or("<expr>");
                out.push(Acq { label: format!("{owner}::{recv}"), line: *line });
            }
        }
    }
    out
}

/// Runs the pass; returns findings and the number of acquisition sites.
pub(super) fn run(ctx: &Ctx<'_>) -> (Vec<Finding>, usize) {
    let g = ctx.graph;
    let owner_of = |id: usize| -> String {
        let node = &g.fns[id];
        match &node.def.impl_target {
            Some(t) => t.clone(),
            None => node
                .file
                .rsplit('/')
                .next()
                .and_then(|f| f.strip_suffix(".rs"))
                .unwrap_or("<file>")
                .to_string(),
        }
    };
    let acqs: Vec<Vec<Acq>> = (0..g.fns.len())
        .map(|id| {
            if g.fns[id].def.is_test {
                Vec::new()
            } else {
                acquisitions(&owner_of(id), &g.fns[id].def.events)
            }
        })
        .collect();
    let site_count: usize = acqs.iter().map(Vec::len).sum();

    // Precisely-resolved call events per fn: `(line, callee)` pairs from
    // path calls, bare calls, and `self.` method calls only (see the
    // module docs for why non-`self` method calls are excluded here).
    let precise = |ev: &Event| -> bool {
        match ev {
            Event::PathCall { .. } | Event::BareCall { .. } => true,
            Event::MethodCall { receiver, .. } => receiver.as_deref() == Some("self"),
            Event::MacroCall { .. } => false,
        }
    };
    let calls: Vec<Vec<(u32, usize)>> = (0..g.fns.len())
        .map(|id| {
            let mut out: Vec<(u32, usize)> = Vec::new();
            for ev in &g.fns[id].def.events {
                if !precise(ev) {
                    continue;
                }
                for c in g.resolve_event(id, ev) {
                    if c != id {
                        out.push((ev.line(), c));
                    }
                }
            }
            out
        })
        .collect();

    // Fixpoint: the set of labels each fn may acquire, transitively.
    let mut owned: Vec<BTreeSet<String>> =
        acqs.iter().map(|list| list.iter().map(|a| a.label.clone()).collect()).collect();
    loop {
        let mut changed = false;
        for id in 0..g.fns.len() {
            let callee_labels: Vec<String> =
                calls[id].iter().flat_map(|&(_, c)| owned[c].iter().cloned()).collect();
            for l in callee_labels {
                changed |= owned[id].insert(l);
            }
        }
        if !changed {
            break;
        }
    }

    // May-precede edges, each with one deterministic witness description
    // (first writer wins; fns visit in id order, events in source order).
    let mut edges: BTreeMap<(String, String), String> = BTreeMap::new();
    let mut add = |from: &str, to: &str, desc: String| {
        edges.entry((from.to_string(), to.to_string())).or_insert(desc);
    };
    for id in 0..g.fns.len() {
        let node = &g.fns[id];
        let list = &acqs[id];
        // Intra-fn: a later acquisition under an earlier, different label.
        for (i, a) in list.iter().enumerate() {
            for b in &list[i + 1..] {
                if a.label != b.label {
                    add(
                        &a.label,
                        &b.label,
                        format!(
                            "{} acquires `{}` at line {} then `{}` at line {}",
                            node.locate(),
                            a.label,
                            a.line,
                            b.label,
                            b.line
                        ),
                    );
                }
            }
        }
        // Inter-procedural: a precisely-resolved call at/after an
        // acquisition reaches a fn that (transitively) acquires another
        // label.
        for a in list {
            for &(call_line, c) in &calls[id] {
                if call_line < a.line {
                    continue;
                }
                for b_label in &owned[c] {
                    if *b_label != a.label {
                        add(
                            &a.label,
                            b_label,
                            format!(
                                "{} holds `{}` (line {}) across a call at line {} \
                                 into {}, which acquires `{}`",
                                node.locate(),
                                a.label,
                                a.line,
                                call_line,
                                g.fns[c].locate(),
                                b_label
                            ),
                        );
                    }
                }
            }
        }
    }

    // Cycle detection over the label digraph: for each edge A → B, BFS
    // from B; a path back to A closes a cycle. Cycles dedup by their
    // canonical rotation (lexicographically-smallest label first).
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().insert(b.as_str());
    }
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut findings = Vec::new();
    for (a, b) in edges.keys() {
        // BFS from b back to a.
        let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
        parent.insert(b.as_str(), b.as_str());
        let mut queue: VecDeque<&str> = VecDeque::new();
        queue.push_back(b.as_str());
        while let Some(u) = queue.pop_front() {
            if u == a {
                break;
            }
            for &v in adj.get(u).into_iter().flatten() {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(v) {
                    e.insert(u);
                    queue.push_back(v);
                }
            }
        }
        if !parent.contains_key(a.as_str()) {
            continue;
        }
        // Reconstruct b → … → a, then close the cycle a → b → … .
        let mut back: Vec<String> = Vec::new();
        let mut cur = a.as_str();
        while cur != b.as_str() {
            back.push(cur.to_string());
            cur = parent[cur];
        }
        back.push(b.clone());
        back.reverse(); // b, …, a
        let mut cycle = vec![a.clone()];
        cycle.extend(back.into_iter().filter(|l| l != a)); // a, b, …
                                                           // Canonical rotation for dedup.
        let min_pos =
            cycle.iter().enumerate().min_by(|(_, x), (_, y)| x.cmp(y)).map_or(0, |(i, _)| i);
        let canonical: Vec<String> =
            cycle.iter().cycle().skip(min_pos).take(cycle.len()).cloned().collect();
        if !seen.insert(canonical.clone()) {
            continue;
        }
        // Witness: one edge description per consecutive pair.
        let mut witness = Vec::new();
        for i in 0..canonical.len() {
            let from = &canonical[i];
            let to = &canonical[(i + 1) % canonical.len()];
            if let Some(desc) = edges.get(&(from.clone(), to.clone())) {
                witness.push(desc.clone());
            }
        }
        // Anchor at the first edge's description site: recover file:line
        // from the first acquisition matching the canonical head label.
        let (anchor_path, anchor_line) = (0..g.fns.len())
            .flat_map(|id| {
                acqs[id]
                    .iter()
                    .filter(|acq| acq.label == canonical[0])
                    .map(move |acq| (g.fns[id].file.clone(), acq.line))
            })
            .min()
            .unwrap_or_else(|| ("<unknown>".to_string(), 0));
        let mut ring = canonical.join("` → `");
        ring.push_str("` → `");
        ring.push_str(&canonical[0]);
        findings.push(ctx.finding(
            RULE_LOCK_ORDER,
            &anchor_path,
            anchor_line,
            format!(
                "inconsistent lock-acquisition order: cycle `{ring}`; two threads \
                 taking these locks in opposite orders can deadlock"
            ),
            witness,
        ));
    }
    (findings, site_count)
}

#[cfg(test)]
mod tests {
    use crate::analysis::{analyze, AnalysisConfig, AnalysisReport, RULE_LOCK_ORDER};
    use crate::parser::parse;

    fn analyze_one(src: &str) -> AnalysisReport {
        let files = vec![("crates/app/src/lib.rs".to_string(), parse(src))];
        analyze(&files, &AnalysisConfig { taint_roots: vec![] })
    }

    #[test]
    fn opposite_intra_fn_orders_cycle() {
        let report = analyze_one(
            "struct S;\n\
             impl S {\n\
             fn ab(&self) { let _a = self.alpha.lock(); let _b = self.beta.lock(); }\n\
             fn ba(&self) { let _b = self.beta.lock(); let _a = self.alpha.lock(); }\n\
             }\n",
        );
        let cycles: Vec<&crate::rules::Finding> =
            report.findings.iter().filter(|f| f.rule == RULE_LOCK_ORDER).collect();
        assert_eq!(cycles.len(), 1, "{:?}", report.findings);
        assert!(cycles[0].message.contains("S::alpha"), "{}", cycles[0].message);
        assert!(cycles[0].message.contains("S::beta"));
        assert_eq!(cycles[0].witness.len(), 2, "one description per edge");
        assert_eq!(report.stats.lock_sites, 4);
    }

    #[test]
    fn consistent_order_and_sharded_same_label_stay_silent() {
        let report = analyze_one(
            "struct S;\n\
             impl S {\n\
             fn ab(&self) { let _a = self.alpha.lock(); let _b = self.beta.lock(); }\n\
             fn ab2(&self) { let _a = self.alpha.lock(); self.tail(); }\n\
             fn tail(&self) { let _b = self.beta.lock(); }\n\
             fn shards(&self) { for s in &self.shard { let _g = s.read(); } \
             let _h = self.shard.read(); }\n\
             }\n",
        );
        assert!(report.is_clean(), "{:?}", report.findings);
    }

    #[test]
    fn interprocedural_opposite_order_is_caught() {
        let report = analyze_one(
            "struct S;\n\
             impl S {\n\
             fn front(&self) { let _a = self.alpha.lock(); self.back_b(); }\n\
             fn back_b(&self) { let _b = self.beta.lock(); }\n\
             fn rev(&self) { let _b = self.beta.lock(); self.back_a(); }\n\
             fn back_a(&self) { let _a = self.alpha.lock(); }\n\
             }\n",
        );
        assert_eq!(
            report.findings.iter().filter(|f| f.rule == RULE_LOCK_ORDER).count(),
            1,
            "{:?}",
            report.findings
        );
        let f = &report.findings[0];
        assert!(
            f.witness.iter().any(|w| w.contains("holds `S::alpha`")),
            "witness must spell out the held-across-call edge: {:?}",
            f.witness
        );
    }
}
