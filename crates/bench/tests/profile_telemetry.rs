//! Regression gates for the `repro -- profile` telemetry workload: the
//! collecting recorder must actually see the hot paths (nonzero counters
//! on the Table II `n = 10` scenario), and everything outside the
//! `timings` section must be byte-identical across worker-pool sizes.

use macgame_bench::profile_exp::{run_profile, ProfileSettings};

#[test]
fn profile_reports_nonzero_core_metrics() {
    let snapshot = run_profile(ProfileSettings { quick: true, threads: 2 }).unwrap();
    for name in ["dcf.solver.iterations", "dcf.cache.hits", "sim.engine.slots"] {
        assert!(
            snapshot.counter(name) > 0,
            "expected nonzero {name}, got {}",
            snapshot.counter(name)
        );
    }
    // The workload's own sanity gauges and span timings must be present too.
    assert!(snapshot.gauges.contains_key("profile.scan.windows"));
    assert!(snapshot.timings.contains_key("profile.total"));
    assert!(snapshot.histograms.contains_key("dcf.solver.iterations"));
}

#[test]
fn profile_snapshot_is_thread_count_invariant() {
    // Everything ahead of the wall-clock `timings` section.
    let json_at = |threads: usize| {
        let json = run_profile(ProfileSettings { quick: true, threads }).unwrap().to_json();
        json[..json.find("\"timings\"").unwrap()].to_string()
    };
    let one = json_at(1);
    for threads in [2usize, 8] {
        assert_eq!(
            one,
            json_at(threads),
            "non-timings snapshot bytes diverged at {threads} threads"
        );
    }
}
