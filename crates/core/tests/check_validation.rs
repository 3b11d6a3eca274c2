//! A `RobustnessCell` with invalid inputs is rejected before anything is
//! solved: no bisection, no class solve, and no lookup (so no insert) in
//! any `SolveCache` memo.

use std::sync::{Arc, Mutex};

use macgame_core::equilibrium::DEFAULT_NE_EPSILON;
use macgame_core::queries::{evaluate_query, Query, SolveCaches};
use macgame_dcf::AccessMode;
use macgame_telemetry::{self as telemetry, CollectingRecorder};

/// The telemetry recorder is process-global, so the counting tests in
/// this binary must not overlap.
static RECORDER: Mutex<()> = Mutex::new(());

fn cell(players: usize, window: u32, reaction_stages: u32, epsilon: f64) -> Query {
    Query::RobustnessCell { players, mode: AccessMode::Basic, window, reaction_stages, epsilon }
}

#[test]
fn invalid_cells_solve_nothing_and_insert_nothing() {
    let _exclusive = RECORDER.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let caches = SolveCaches::with_capacity(4096).unwrap();
    let invalid = [
        // Out of the default strategy space [1, 4096].
        cell(16, 4097, 1, DEFAULT_NE_EPSILON),
        cell(16, 0, 1, DEFAULT_NE_EPSILON),
        cell(16, 64, 1, -1.0),
        // A zero reaction lag, at W = 1 as at every other window.
        cell(16, 1, 0, DEFAULT_NE_EPSILON),
        cell(16, 64, 0, DEFAULT_NE_EPSILON),
        // A lag past the `i32` exponent of `δ^m`.
        cell(16, 64, 1 << 31, DEFAULT_NE_EPSILON),
        cell(16, 64, u32::MAX, DEFAULT_NE_EPSILON),
    ];
    let recorder = Arc::new(CollectingRecorder::new());
    telemetry::set_recorder(recorder.clone());
    let outcomes: Vec<_> = invalid.iter().map(|query| evaluate_query(query, &caches)).collect();
    telemetry::clear_recorder();
    for (query, outcome) in invalid.iter().zip(&outcomes) {
        assert!(outcome.is_err(), "{query:?} must be rejected");
    }
    let counts = recorder.snapshot();
    for name in [
        "dcf.solver.bisections",
        "dcf.solver.solves",
        "dcf.cache.misses",
        "dcf.cache.symmetric.misses",
        "dcf.cache.deviation.misses",
    ] {
        assert_eq!(counts.counter(name), 0, "{name}");
    }
    // The memos are still cold: a valid cell afterwards misses its whole
    // stage table and its row.
    let recorder = Arc::new(CollectingRecorder::new());
    telemetry::set_recorder(recorder.clone());
    let valid = evaluate_query(&cell(16, 64, 1, DEFAULT_NE_EPSILON), &caches);
    telemetry::clear_recorder();
    assert!(valid.is_ok());
    let counts = recorder.snapshot();
    assert!(counts.counter("dcf.cache.symmetric.misses") >= 64);
    assert_eq!(counts.counter("dcf.cache.deviation.misses"), 1);
}
