//! `dcf.solver.bisections` counts bisections that run: the lone-node
//! shortcut of `solve_symmetric` runs none, and a `SolveCache` hit on a
//! symmetric point runs none either.

use std::sync::{Arc, Mutex};

use macgame_dcf::cache::SolveCache;
use macgame_dcf::fixedpoint::{solve_symmetric, SolveOptions};
use macgame_dcf::optimal::SymmetricSource;
use macgame_dcf::DcfParams;
use macgame_telemetry::{self as telemetry, CollectingRecorder, Snapshot};

/// The telemetry recorder is process-global, so the counting tests in
/// this binary must not overlap.
static RECORDER: Mutex<()> = Mutex::new(());

/// Runs `work` under a fresh recorder and returns what it counted.
fn counted(work: impl FnOnce()) -> Snapshot {
    let _exclusive = RECORDER.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let recorder = Arc::new(CollectingRecorder::new());
    telemetry::set_recorder(recorder.clone());
    work();
    telemetry::clear_recorder();
    recorder.snapshot()
}

#[test]
fn only_a_real_bisection_counts() {
    let params = DcfParams::default();
    let lone = counted(|| {
        solve_symmetric(1, 31, &params).unwrap();
    });
    assert_eq!(lone.counter("dcf.solver.bisections"), 0, "n = 1 takes the closed form");
    let five = counted(|| {
        solve_symmetric(5, 76, &params).unwrap();
    });
    assert_eq!(five.counter("dcf.solver.bisections"), 1);
}

#[test]
fn a_symmetric_memo_hit_runs_no_bisection() {
    let cache = SolveCache::new(DcfParams::default(), SolveOptions::default());
    let miss = counted(|| {
        cache.symmetric(5, 76).unwrap();
    });
    assert_eq!(miss.counter("dcf.solver.bisections"), 1);
    assert_eq!(miss.counter("dcf.cache.symmetric.misses"), 1);
    let hit = counted(|| {
        cache.symmetric(5, 76).unwrap();
    });
    assert_eq!(hit.counter("dcf.solver.bisections"), 0);
    assert_eq!(hit.counter("dcf.cache.symmetric.hits"), 1);
    // The class-solve counters belong to the other memo.
    assert_eq!(hit.counter("dcf.cache.hits") + hit.counter("dcf.cache.misses"), 0);
}
