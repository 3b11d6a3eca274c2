//! The `repro -- profile` experiment: run a deterministic cross-workspace
//! workload under the telemetry [`CollectingRecorder`] and snapshot every
//! counter, gauge, histogram, and span timing.
//!
//! The workload is anchored on the paper's Table II `n = 10` scenario and
//! exercises every instrumented layer: the `dcf` fixed-point solver and
//! sweep cache, the `core` evaluator/search/tournament machinery, the
//! `sim` slot engine and replica batches, and the `multihop` convergence
//! and spatial simulator paths.
//!
//! # Determinism
//!
//! Everything the workload records outside the `timings` section is
//! thread-count invariant: parallel phases either take the `threads` knob
//! explicitly or fan deterministic per-item work over
//! `dcf::parallel::map`, and
//! the cache phases only present *distinct* canonical profiles to the
//! solve caches, so hit/miss counts cannot race. The regression tests in
//! `crates/bench/tests/profile_telemetry.rs` pin both properties.

use std::sync::{Arc, Mutex};

use macgame_core::equilibrium::{ne_interval, scan_ne_interval, DEFAULT_NE_EPSILON};
use macgame_core::evaluator::{AnalyticalEvaluator, CachingEvaluator, StageEvaluator};
use macgame_core::search::{run_search, AnalyticProbe};
use macgame_core::GameConfig;
use macgame_dcf::cache::SolveCache;
use macgame_dcf::fixedpoint::SolveOptions;
use macgame_dcf::optimal::efficient_cw;
use macgame_dcf::parallel::solve_sweep_cached;
use macgame_dcf::MicroSecs;
use macgame_multihop::convergence::check_multihop_ne;
use macgame_multihop::{
    local_optimal_windows, tft_converge, LocalRule, SpatialConfig, SpatialEngine, Topology,
};
use macgame_sim::{replicate_threads, SimConfig};
use macgame_telemetry::{self as telemetry, CollectingRecorder, Snapshot};

use crate::BenchError;

/// Tuning knobs for the profile workload.
#[derive(Debug, Clone, Copy)]
pub struct ProfileSettings {
    /// Shrink the simulation phases for CI-speed runs.
    pub quick: bool,
    /// Worker-thread knob passed to every phase that accepts one
    /// (`0` = the `MACGAME_THREADS` default).
    pub threads: usize,
}

impl ProfileSettings {
    /// Full-size workload on the default thread pool.
    #[must_use]
    pub fn full() -> Self {
        ProfileSettings { quick: false, threads: 0 }
    }

    /// CI-speed workload on the default thread pool.
    #[must_use]
    pub fn quick() -> Self {
        ProfileSettings { quick: true, threads: 0 }
    }
}

/// Serializes profile runs within one process: the telemetry facade is a
/// process-global, so concurrent runs (e.g. parallel `#[test]`s) would
/// pollute each other's snapshots.
static PROFILE_LOCK: Mutex<()> = Mutex::new(());

/// Runs the instrumented workload under a fresh [`CollectingRecorder`] and
/// returns its snapshot. The recorder is installed on entry and cleared
/// before returning (also on error).
///
/// # Errors
///
/// Propagates failures from any workload phase.
pub fn run_profile(settings: ProfileSettings) -> Result<Snapshot, BenchError> {
    let _guard = PROFILE_LOCK.lock().expect("profile lock poisoned"); // PANIC-POLICY: lock poisoning means a panic is already unwinding; propagating it is correct
    let recorder = Arc::new(CollectingRecorder::new());
    telemetry::set_recorder(recorder.clone());
    let result = run_workload(settings);
    telemetry::clear_recorder();
    result?;
    Ok(recorder.snapshot())
}

fn run_workload(settings: ProfileSettings) -> Result<(), BenchError> {
    let _total = telemetry::span("profile.total");
    let n = 10usize;
    let game = GameConfig::builder(n).build()?;
    let params = *game.params();
    let utility = *game.utility();

    // Phase 1 — solver: the Table II n = 10 NE-interval scan (memoized
    // symmetric stages, warm-chained accelerated deviation sweeps).
    let interval = {
        let _span = telemetry::span("profile.solver_scan");
        let interval = ne_interval(&game)?;
        let checks = scan_ne_interval(
            &game,
            interval.lower,
            interval.upper,
            1,
            DEFAULT_NE_EPSILON,
            settings.threads,
        )?;
        telemetry::gauge("profile.scan.windows", checks.len() as f64);
        telemetry::gauge("profile.scan.ne_count", checks.iter().filter(|c| c.is_ne).count() as f64);
        interval
    };

    // Phase 2 — solve cache: one deviator sweeping its window against an
    // otherwise-fixed W_c* profile. All profiles are distinct multisets, so
    // pass one is all misses and pass two all hits, at any thread count.
    {
        let _span = telemetry::span("profile.cache_sweep");
        let w_star = interval.upper;
        let profiles: Vec<Vec<u32>> = (1..=100u32)
            .map(|w_s| {
                let mut p = vec![w_star; n];
                p[0] = w_s;
                p
            })
            .collect();
        let cache = SolveCache::new(params, SolveOptions::default());
        solve_sweep_cached(&profiles, &cache, settings.threads)?;
        solve_sweep_cached(&profiles, &cache, settings.threads)?;
        telemetry::gauge("profile.cache.entries", cache.memo().len() as f64);
    }

    // Phase 3 — evaluator cache: serial repeated evaluation (driver-side,
    // so hit/miss counts are trivially deterministic).
    {
        let _span = telemetry::span("profile.evaluator");
        let mut evaluator = CachingEvaluator::new(AnalyticalEvaluator::new(game.clone()));
        for w_s in [1u32, 8, 32, interval.upper] {
            let mut profile = vec![interval.upper; n];
            profile[0] = w_s;
            evaluator.evaluate(&profile)?;
            evaluator.evaluate(&profile)?;
        }
    }

    // Phase 4 — slot engine: replicated Table II n = 10 runs at W_c*.
    {
        let _span = telemetry::span("profile.sim_batch");
        let w_star = efficient_cw(n, &params, &utility, game.w_max())?.window;
        let config =
            SimConfig::builder().params(params).windows(vec![w_star; n]).seed(2007).build()?;
        let (slots, replications) = if settings.quick { (20_000, 4) } else { (200_000, 8) };
        let reports = replicate_threads(&config, slots, replications, 2007, settings.threads)?;
        telemetry::gauge("profile.sim.tau_hat_mean", {
            let taus: Vec<f64> = reports.iter().map(|r| r.tau_hat(0)).collect();
            taus.iter().sum::<f64>() / taus.len() as f64
        });
    }

    // Phase 5 — best-response search (Section V.C) and the strategy
    // tournament built on repeated analytic games.
    {
        let _span = telemetry::span("profile.search_tournament");
        let game5 = GameConfig::builder(5).build()?;
        let mut probe = AnalyticProbe::new(game5);
        run_search(&mut probe, &GameConfig::builder(5).build()?, 100, 0.0)?;
        crate::extensions_exp::tournament_ranking(if settings.quick { 5 } else { 25 })?;
    }

    // Phase 6 — multihop: TFT convergence to W_m, local-game solves, the
    // distributed NE check, and the spatial hidden-terminal simulator.
    {
        let _span = telemetry::span("profile.multihop");
        let topology = Topology::grid(4, 4);
        let local = local_optimal_windows(
            &topology,
            &params,
            &utility,
            game.w_max(),
            LocalRule::ExactArgmax,
        )?;
        let initial: Vec<u32> = (0..topology.len()).map(|i| 50 + 17 * i as u32).collect();
        let trace = tft_converge(&topology, &initial)?;
        telemetry::gauge("profile.multihop.rounds_to_wm", trace.rounds_needed as f64);
        check_multihop_ne(&topology, &local, local[0], &game, DEFAULT_NE_EPSILON)?;

        let spatial_seconds = if settings.quick { 1.0 } else { 5.0 };
        let mut spatial =
            SpatialEngine::new(n, &vec![local[0].max(2); n], SpatialConfig::paper(7))?;
        let report = spatial.run_for(MicroSecs::from_seconds(spatial_seconds));
        telemetry::gauge("profile.multihop.p_hn_worst", {
            report.hidden.iter().filter_map(|h| h.p_hn()).fold(1.0f64, f64::min)
        });
    }
    Ok(())
}

/// Rows of the human-readable profile table: every counter and gauge, then
/// each span with derived throughput where the pairing makes sense.
#[must_use]
pub fn profile_table(snapshot: &Snapshot) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for (name, value) in &snapshot.counters {
        rows.push(vec!["counter".into(), name.clone(), value.to_string()]);
    }
    for (name, value) in &snapshot.gauges {
        rows.push(vec!["gauge".into(), name.clone(), format!("{value:.6}")]);
    }
    for (name, h) in &snapshot.histograms {
        rows.push(vec![
            "histogram".into(),
            name.clone(),
            format!("n={} min={:.3e} max={:.3e}", h.count, h.min, h.max),
        ]);
    }
    for (name, t) in &snapshot.timings {
        let mut cell = format!("{:.1} ms over {} span(s)", t.total_ms(), t.count);
        if name == "sim.engine.run" {
            let slots = snapshot.counter("sim.engine.slots");
            if t.total_nanos > 0 {
                cell.push_str(&format!(
                    ", {:.2} Mslots/s",
                    slots as f64 / (t.total_nanos as f64 / 1e9) / 1e6
                ));
            }
        }
        rows.push(vec!["timing".into(), name.clone(), cell]);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use macgame_dcf::{DcfParams, UtilityParams};

    fn dcf_params() -> DcfParams {
        DcfParams::default()
    }

    #[test]
    fn settings_constructors_differ_only_in_quick() {
        let quick = ProfileSettings::quick();
        let full = ProfileSettings::full();
        assert!(quick.quick && !full.quick);
        assert_eq!(quick.threads, full.threads);
        // Smoke-check that the shared workload parameters resolve.
        assert!(efficient_cw(10, &dcf_params(), &UtilityParams::default(), 1024).is_ok());
    }
}
