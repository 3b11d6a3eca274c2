//! Exact-repeat checks: the traced run's counts are a pure function of
//! the seed, and a second seed changes the queries but not their mix.
//!
//! Run with `cargo test --release`; the churn case solves ~5k queries.

use std::collections::BTreeMap;
use std::sync::Mutex;

use macbench::plan::{self, Kind, CHURN_MIX};
use macbench::{traced_ops, Workload};

/// The telemetry recorder is process-global, so traced runs in this
/// binary must not overlap.
static RECORDER: Mutex<()> = Mutex::new(());

/// The counts that must repeat: both cache tiers, coalescing, the solver
/// and the slot engine.
const PINNED: [&str; 13] = [
    "serve.cache.hits",
    "serve.cache.misses",
    "serve.cache.evictions",
    "serve.coalesced",
    "dcf.cache.hits",
    "dcf.cache.misses",
    "dcf.cache.evictions",
    "dcf.solver.solves",
    "dcf.solver.iterations",
    "dcf.solver.bisections",
    "sim.engine.slots",
    "sim.engine.collisions",
    "sim.engine.successes",
];

fn counts(workload: Workload, seed: u64, ops: usize) -> BTreeMap<String, u64> {
    let _exclusive = RECORDER
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let report = traced_ops(workload, seed, ops).unwrap();
    assert_eq!(report.failed, 0, "{} seed {seed}", workload.name());
    report.counts
}

fn assert_repeats(workload: Workload, seed: u64, ops: usize, nonzero: &[&str]) {
    let first = counts(workload, seed, ops);
    let second = counts(workload, seed, ops);
    for name in PINNED {
        assert_eq!(
            first.get(name),
            second.get(name),
            "{} count {name}",
            workload.name()
        );
    }
    assert_eq!(first, second, "every counter repeats");
    for name in nonzero {
        assert!(
            first.get(*name).copied().unwrap_or(0) > 0,
            "{name} was never counted"
        );
    }
}

#[test]
fn serve_hot_counts_repeat() {
    assert_repeats(
        Workload::ServeHot,
        11,
        40,
        &["serve.cache.hits", "serve.coalesced"],
    );
}

#[test]
fn serve_churn_counts_repeat() {
    // 100 frames of 64 queries insert past the 4096-entry reply cache.
    assert_repeats(
        Workload::ServeChurn,
        11,
        100,
        &[
            "serve.cache.hits",
            "serve.cache.evictions",
            "dcf.cache.hits",
            "dcf.cache.evictions",
            "dcf.solver.solves",
            "dcf.solver.bisections",
        ],
    );
}

#[test]
fn sim_slots_counts_repeat() {
    assert_repeats(
        Workload::SimSlots,
        11,
        8,
        &["sim.engine.slots", "sim.engine.collisions"],
    );
}

#[test]
fn another_seed_changes_the_stream_but_not_the_kind_mix() {
    const QUERIES: usize = 64 * 100;
    /// Each kind's share may differ from the target by 3 points: about
    /// five standard errors of a 50 % share over 6400 draws.
    const TOLERANCE: f64 = 0.03;
    let a = plan::churn_queries(1, QUERIES);
    let b = plan::churn_queries(2, QUERIES);
    assert_ne!(a, b);
    let share = |stream: &[macgame_core::queries::Query], kind: Kind| {
        stream.iter().filter(|q| Kind::of(q) == kind).count() as f64 / stream.len() as f64
    };
    for (kind, pct) in CHURN_MIX {
        let target = pct as f64 / 100.0;
        for stream in [&a, &b] {
            let got = share(stream, kind);
            assert!(
                (got - target).abs() <= TOLERANCE,
                "{kind:?}: share {got:.3}, target {target}"
            );
        }
    }
}
