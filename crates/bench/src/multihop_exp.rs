//! The Section VII.B multi-hop experiment.
//!
//! 100 nodes under random waypoint in 1 km² with 250 m RTS/CTS radios:
//! local games → TFT convergence to `W_m` → quasi-optimality of the
//! converged NE (paper: converged CW 26 in their scenario; each node gets
//! ≥ 96 % of its max local payoff; global payoff within 3 % of optimum),
//! plus the `p_hn`-vs-CW table that justifies the Section VI.A
//! approximation.

use macgame_dcf::MicroSecs;
use macgame_multihop::convergence::tft_converge;
use macgame_multihop::localgame::{analytic_p_hn, local_optimal_windows, local_taus, LocalRule};
use macgame_multihop::metrics::{evaluate_quasi_optimality, QuasiOptimality};
use macgame_multihop::spatialsim::{SpatialConfig, SpatialEngine};
use serde::{Deserialize, Serialize};

use crate::BenchError;

/// Experiment knobs (scaled down by `--quick`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultihopSettings {
    /// Node count (paper: 100).
    pub n: usize,
    /// Placement/mobility seed.
    pub seed: u64,
    /// Measurement duration per sweep point (paper: 1000 s).
    pub duration: MicroSecs,
    /// How many nodes to sample for the local metric.
    pub sample_size: usize,
}

impl MultihopSettings {
    /// The paper-faithful configuration (long; ~minutes of CPU).
    #[must_use]
    pub fn full() -> Self {
        MultihopSettings {
            n: 100,
            seed: 7,
            duration: MicroSecs::from_seconds(1000.0),
            sample_size: 10,
        }
    }

    /// A minutes-to-seconds scale-down for CI and `--quick`.
    #[must_use]
    pub fn quick() -> Self {
        MultihopSettings {
            n: 100,
            seed: 7,
            duration: MicroSecs::from_seconds(60.0),
            sample_size: 6,
        }
    }
}

/// Results of the Section VII.B experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultihopOutcome {
    /// Settings used.
    pub settings: MultihopSettings,
    /// Whether the placement's topology was connected.
    pub connected: bool,
    /// Topology diameter (None when disconnected).
    pub diameter: Option<usize>,
    /// Min/mean/max node degree.
    pub degrees: (usize, f64, usize),
    /// Min/max of the local optimal windows.
    pub local_window_range: (u32, u32),
    /// TFT rounds to convergence.
    pub convergence_rounds: usize,
    /// The converged NE window `W_m` (paper run: 26).
    pub w_m: u32,
    /// Quasi-optimality measurements at `W_m`.
    pub quality: QuasiOptimality,
    /// `(window, measured p_hn, analytic p_hn)` samples validating the
    /// CW-independence approximation and the slotted interference model.
    pub p_hn_by_window: Vec<(u32, f64, f64)>,
}

/// Runs the experiment.
///
/// # Errors
///
/// Propagates model/simulator failures.
pub fn run(settings: MultihopSettings) -> Result<MultihopOutcome, BenchError> {
    let config = SpatialConfig::paper(settings.seed);
    let engine = SpatialEngine::new(settings.n, &vec![64; settings.n], config.clone())?;
    let positions = engine.positions().to_vec();
    let topo = engine.topology().clone();
    let degrees: Vec<usize> = (0..settings.n).map(|i| topo.degree(i)).collect();

    let local = local_optimal_windows(
        &topo,
        &config.params,
        &config.utility,
        2048,
        LocalRule::ExactArgmax,
    )?;
    let trace = tft_converge(&topo, &local)?;
    let w_m = trace.converged_window().unwrap_or_else(|| {
        // Disconnected placements: evaluate the largest component's min.
        let comp = topo.components().into_iter().max_by_key(Vec::len).expect("nonempty"); // PANIC-POLICY: invariant: nonempty
        comp.iter().map(|&i| trace.final_windows[i]).min().expect("nonempty component")
        // PANIC-POLICY: invariant: nonempty component
    });

    let sweep: Vec<u32> =
        [w_m / 4, w_m / 2, w_m, w_m * 2, w_m * 4].into_iter().filter(|&w| w >= 1).collect();
    let sample: Vec<usize> = (0..settings.n)
        .filter(|&i| topo.degree(i) >= 1)
        .step_by((settings.n / settings.sample_size).max(1))
        .take(settings.sample_size)
        .collect();
    // The paper measures on the mobile network over 1000 s; mobility
    // averaging is what makes per-node payoffs quasi-uniform.
    let quality = evaluate_quasi_optimality(
        &positions,
        w_m,
        &sweep,
        &sample,
        &sweep,
        &config,
        settings.duration,
    )?;

    // p_hn per window, on the static snapshot (topology held fixed so the
    // comparison isolates the CW effect).
    let static_config = SpatialConfig { mobility: None, ..config };
    let mut p_hn_by_window = Vec::new();
    let p_hn_duration = MicroSecs::from_seconds((settings.duration.to_seconds() / 10.0).max(5.0));
    for &w in &sweep {
        let mut engine = SpatialEngine::with_positions(
            positions.clone(),
            &vec![w; settings.n],
            static_config.clone(),
        )?;
        let report = engine.run_for(p_hn_duration);
        if let Some(p_hn) = report.network_p_hn() {
            let taus = local_taus(&topo, w, &static_config.params)?;
            let analytic = analytic_p_hn(&topo, &taus)?;
            let analytic_mean = analytic.iter().sum::<f64>() / analytic.len() as f64;
            p_hn_by_window.push((w, p_hn, analytic_mean));
        }
    }

    Ok(MultihopOutcome {
        settings,
        connected: topo.is_connected(),
        diameter: topo.diameter(),
        degrees: (
            degrees.iter().copied().min().expect("nonempty"), // PANIC-POLICY: invariant: nonempty
            degrees.iter().sum::<usize>() as f64 / settings.n as f64,
            degrees.iter().copied().max().expect("nonempty"), // PANIC-POLICY: invariant: nonempty
        ),
        local_window_range: (
            *local.iter().min().expect("nonempty"), // PANIC-POLICY: invariant: nonempty
            *local.iter().max().expect("nonempty"), // PANIC-POLICY: invariant: nonempty
        ),
        convergence_rounds: trace.rounds_needed,
        w_m,
        quality,
        p_hn_by_window,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiment_reproduces_the_shape() {
        let settings = MultihopSettings {
            n: 60,
            seed: 7,
            duration: MicroSecs::from_seconds(20.0),
            sample_size: 4,
        };
        let out = run(settings).unwrap();
        // Converged window is a small two-digit number like the paper's 26.
        assert!((5..=80).contains(&out.w_m), "W_m = {} far from the paper's scale", out.w_m);
        // Convergence within the diameter (when connected).
        if let Some(d) = out.diameter {
            assert!(out.convergence_rounds <= d);
        }
        // Quasi-optimality: the global payoff at W_m is most of the best.
        assert!(
            out.quality.global_fraction > 0.75,
            "global fraction {}",
            out.quality.global_fraction
        );
        // p_hn stays in a credible band and doesn't explode across CWs.
        for &(w, p_hn, analytic) in &out.p_hn_by_window {
            assert!((0.4..=1.0).contains(&p_hn), "W={w}: p_hn={p_hn}");
            assert!((p_hn - analytic).abs() < 0.2, "W={w}: measured {p_hn} vs analytic {analytic}");
        }
    }
}
