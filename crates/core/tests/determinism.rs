//! Regression tests: every parallel fan-out must be bitwise
//! thread-count-invariant, so `threads = 1` runs (and therefore CI on any
//! machine) reproduce parallel results exactly.

use macgame_core::deviation::deviation_sweep;
use macgame_core::equilibrium::{scan_ne_interval, DEFAULT_NE_EPSILON};
use macgame_core::GameConfig;

#[test]
fn ne_interval_scan_is_identical_across_thread_counts() {
    let game = GameConfig::builder(5).build().unwrap();
    let serial = scan_ne_interval(&game, 40, 90, 1, DEFAULT_NE_EPSILON, 1).unwrap();
    assert_eq!(serial.len(), 51);
    for threads in [2, 3, 8] {
        let parallel = scan_ne_interval(&game, 40, 90, 1, DEFAULT_NE_EPSILON, threads).unwrap();
        assert_eq!(serial, parallel, "threads = {threads}");
    }
}

#[test]
fn deviation_sweep_is_identical_across_thread_counts() {
    let game = GameConfig::builder(6).build().unwrap();
    let serial = deviation_sweep(&game, 100, 2, 0.7, 1).unwrap();
    assert_eq!(serial.len(), 100);
    for threads in [2, 5, 16] {
        let parallel = deviation_sweep(&game, 100, 2, 0.7, threads).unwrap();
        assert_eq!(serial, parallel, "threads = {threads}");
    }
}
