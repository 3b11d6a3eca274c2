//! Quasi-optimality metrics for the converged multi-hop NE
//! (paper Section VII.B).
//!
//! The paper reports that at the converged NE `W_m`: (1) each node gets at
//! least 96 % of the best *local* payoff it can reach as the common CW
//! varies (under TFT a CW change propagates, so the sweep moves everyone
//! together); (2) the *global* payoff is within 3 % of the best achievable
//! by any common CW. These functions measure both on the spatial simulator
//! with frozen seeds, so every candidate window faces the same topology
//! and noise. [`unilateral_quality`] additionally quantifies the
//! no-reaction deviation temptation that TFT punishment deters.

use macgame_dcf::MicroSecs;
use serde::{Deserialize, Serialize};

use crate::error::MultihopError;
use crate::geometry::Point;
use crate::spatialsim::{SpatialConfig, SpatialEngine};

/// A `(window, measured global payoff rate)` sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GlobalSample {
    /// The common window applied to all nodes.
    pub window: u32,
    /// Measured network-wide payoff rate (per µs).
    pub payoff: f64,
}

/// Measures the global payoff with every node on the common window `w`.
///
/// The engine is rebuilt per call with the same seed and positions, so
/// sweeps are paired comparisons.
///
/// # Errors
///
/// Propagates engine construction failures.
pub fn global_payoff_at(
    positions: &[Point],
    w: u32,
    config: &SpatialConfig,
    duration: MicroSecs,
) -> Result<f64, MultihopError> {
    let n = positions.len();
    let mut engine =
        SpatialEngine::with_positions(positions.to_vec(), &vec![w; n], config.clone())?;
    let report = engine.run_for(duration);
    Ok(report.global_payoff_rate(&config.utility))
}

/// Sweeps the common window over `windows` and reports the global payoff
/// of each (paper Figures 2–3's multi-hop analogue).
///
/// # Errors
///
/// Propagates engine construction failures.
pub fn sweep_global(
    positions: &[Point],
    windows: &[u32],
    config: &SpatialConfig,
    duration: MicroSecs,
) -> Result<Vec<GlobalSample>, MultihopError> {
    windows
        .iter()
        .map(|&w| {
            Ok(GlobalSample {
                window: w,
                payoff: global_payoff_at(positions, w, config, duration)?,
            })
        })
        .collect()
}

/// One node's local quasi-optimality: its payoff at `W_m` as a fraction of
/// its best payoff over the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalQuality {
    /// The node assessed.
    pub node: usize,
    /// Payoff at the NE window.
    pub payoff_at_ne: f64,
    /// Best payoff over the sweep and the window achieving it.
    pub best: (u32, f64),
    /// `payoff_at_ne / best` (clamped into `[0, 1]` for positive payoffs).
    pub fraction: f64,
}

/// Measures [`LocalQuality`] for each node in `sample_nodes` the way the
/// paper's Section VII.B does: the **common** window sweeps
/// `candidate_windows` (everyone moves together, which is what varying a
/// CW means under TFT — the network follows), and each node's payoff curve
/// over the common window is compared to its value at `w_m`.
///
/// For the *unilateral* temptation (one node deviates, nobody reacts) —
/// which TFT punishment exists to deter, and which is **not** the paper's
/// 96 % metric — see [`unilateral_quality`].
///
/// # Errors
///
/// Returns [`MultihopError::InvalidInput`] if a sampled index is out of
/// range or the sweep is empty; propagates engine failures.
pub fn local_quality(
    positions: &[Point],
    w_m: u32,
    sample_nodes: &[usize],
    candidate_windows: &[u32],
    config: &SpatialConfig,
    duration: MicroSecs,
) -> Result<Vec<LocalQuality>, MultihopError> {
    if candidate_windows.is_empty() {
        return Err(MultihopError::InvalidInput("empty candidate sweep".into()));
    }
    let n = positions.len();
    for &node in sample_nodes {
        if node >= n {
            return Err(MultihopError::InvalidInput(format!("node {node} out of range")));
        }
    }
    // One run per common window serves every sampled node.
    let mut sweep: Vec<(u32, Vec<f64>)> = Vec::with_capacity(candidate_windows.len() + 1);
    let mut windows_to_run: Vec<u32> = candidate_windows.to_vec();
    if !windows_to_run.contains(&w_m) {
        windows_to_run.push(w_m);
    }
    for &w in &windows_to_run {
        let mut engine =
            SpatialEngine::with_positions(positions.to_vec(), &vec![w; n], config.clone())?;
        let report = engine.run_for(duration);
        let payoffs = (0..n).map(|i| report.payoff_rate(i, &config.utility)).collect::<Vec<_>>();
        sweep.push((w, payoffs));
    }
    let mut out = Vec::with_capacity(sample_nodes.len());
    for &node in sample_nodes {
        let payoff_at_ne = sweep
            .iter()
            .find(|(w, _)| *w == w_m)
            .map(|(_, p)| p[node])
            .expect("w_m was added to the sweep"); // PANIC-POLICY: invariant: w_m was added to the sweep
        let best = sweep
            .iter()
            .map(|(w, p)| (*w, p[node]))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("nonempty sweep"); // PANIC-POLICY: invariant: nonempty sweep
        let fraction = if best.1 > 0.0 { (payoff_at_ne / best.1).min(1.0) } else { 1.0 };
        out.push(LocalQuality { node, payoff_at_ne, best, fraction });
    }
    Ok(out)
}

/// The unilateral-deviation temptation: node `i` alone sweeps
/// `candidate_windows` while everyone else stays pinned at `w_m` and *does
/// not react*. The resulting fractions are far below 1 — this is exactly
/// the short-term gain that the TFT punishment of Theorem 3 prices away,
/// quantified on the spatial simulator.
///
/// # Errors
///
/// Same conditions as [`local_quality`].
pub fn unilateral_quality(
    positions: &[Point],
    w_m: u32,
    sample_nodes: &[usize],
    candidate_windows: &[u32],
    config: &SpatialConfig,
    duration: MicroSecs,
) -> Result<Vec<LocalQuality>, MultihopError> {
    if candidate_windows.is_empty() {
        return Err(MultihopError::InvalidInput("empty candidate sweep".into()));
    }
    let n = positions.len();
    let mut out = Vec::with_capacity(sample_nodes.len());
    for &node in sample_nodes {
        if node >= n {
            return Err(MultihopError::InvalidInput(format!("node {node} out of range")));
        }
        let mut payoff_at_ne = None;
        let mut best: Option<(u32, f64)> = None;
        let mut windows_to_run: Vec<u32> = candidate_windows.to_vec();
        if !windows_to_run.contains(&w_m) {
            windows_to_run.push(w_m);
        }
        for &w in &windows_to_run {
            let mut windows = vec![w_m; n];
            windows[node] = w;
            let mut engine =
                SpatialEngine::with_positions(positions.to_vec(), &windows, config.clone())?;
            let report = engine.run_for(duration);
            let payoff = report.payoff_rate(node, &config.utility);
            if w == w_m {
                payoff_at_ne = Some(payoff);
            }
            if best.map_or(true, |(_, b)| payoff > b) {
                best = Some((w, payoff));
            }
        }
        let payoff_at_ne = payoff_at_ne.expect("w_m was added to the sweep"); // PANIC-POLICY: invariant: w_m was added to the sweep
        let best = best.expect("nonempty sweep"); // PANIC-POLICY: invariant: nonempty sweep
        let fraction = if best.1 > 0.0 { (payoff_at_ne / best.1).min(1.0) } else { 1.0 };
        out.push(LocalQuality { node, payoff_at_ne, best, fraction });
    }
    Ok(out)
}

/// Summary of the Section VII.B quasi-optimality evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuasiOptimality {
    /// The converged NE window evaluated.
    pub w_m: u32,
    /// Global payoff at `w_m` divided by the sweep's best global payoff.
    pub global_fraction: f64,
    /// The global sweep samples.
    pub global_sweep: Vec<GlobalSample>,
    /// Per-sampled-node local quality.
    pub local: Vec<LocalQuality>,
}

impl QuasiOptimality {
    /// The worst sampled node's local fraction (the paper's "at least
    /// 96 %" number).
    #[must_use]
    pub fn min_local_fraction(&self) -> f64 {
        self.local.iter().map(|l| l.fraction).fold(f64::INFINITY, f64::min)
    }
}

/// Runs the full quasi-optimality evaluation at `w_m`.
///
/// # Errors
///
/// Propagates failures from [`sweep_global`] and [`local_quality`].
pub fn evaluate_quasi_optimality(
    positions: &[Point],
    w_m: u32,
    global_windows: &[u32],
    sample_nodes: &[usize],
    local_windows: &[u32],
    config: &SpatialConfig,
    duration: MicroSecs,
) -> Result<QuasiOptimality, MultihopError> {
    let global_sweep = sweep_global(positions, global_windows, config, duration)?;
    let at_ne = match global_sweep.iter().find(|s| s.window == w_m) {
        Some(s) => s.payoff,
        None => global_payoff_at(positions, w_m, config, duration)?,
    };
    let best = global_sweep.iter().map(|s| s.payoff).fold(at_ne, f64::max);
    let global_fraction = if best > 0.0 { (at_ne / best).min(1.0) } else { 1.0 };
    let local = local_quality(positions, w_m, sample_nodes, local_windows, config, duration)?;
    Ok(QuasiOptimality { w_m, global_fraction, global_sweep, local })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Arena;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn static_config(seed: u64) -> SpatialConfig {
        SpatialConfig { mobility: None, ..SpatialConfig::paper(seed) }
    }

    fn random_positions(n: usize, seed: u64) -> Vec<Point> {
        let arena = Arena::paper();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n).map(|_| arena.random_point(&mut rng)).collect()
    }

    #[test]
    fn global_sweep_is_unimodal_ish() {
        // Dense cluster (one contention domain of 15 nodes): the pile-up
        // at W = 2 must lose to a window near the cluster's optimum.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let positions: Vec<Point> = (0..15)
            .map(|_| Point {
                x: 500.0 + rng.gen_range(-25.0..25.0),
                y: 500.0 + rng.gen_range(-25.0..25.0),
            })
            .collect();
        let config = static_config(2);
        let dur = MicroSecs::from_seconds(4.0);
        let sweep = sweep_global(&positions, &[2, 48, 1024], &config, dur).unwrap();
        assert_eq!(sweep.len(), 3);
        let p2 = sweep[0].payoff;
        let p48 = sweep[1].payoff;
        let p1024 = sweep[2].payoff;
        assert!(p48 > p2, "W=48 ({p48}) should beat W=2 ({p2})");
        assert!(p48 > p1024, "W=48 ({p48}) should beat W=1024 ({p1024})");
    }

    #[test]
    fn local_quality_fraction_in_unit_range() {
        let positions = random_positions(10, 3);
        let config = static_config(4);
        let dur = MicroSecs::from_seconds(3.0);
        let quality = local_quality(&positions, 16, &[0, 3], &[8, 16, 32], &config, dur).unwrap();
        assert_eq!(quality.len(), 2);
        for q in &quality {
            assert!((0.0..=1.0).contains(&q.fraction), "fraction {}", q.fraction);
        }
    }

    #[test]
    fn quasi_optimality_summary() {
        let positions = random_positions(10, 5);
        let config = static_config(6);
        let dur = MicroSecs::from_seconds(3.0);
        let q = evaluate_quasi_optimality(
            &positions,
            16,
            &[8, 16, 32],
            &[1],
            &[8, 16, 32],
            &config,
            dur,
        )
        .unwrap();
        assert!((0.0..=1.0).contains(&q.global_fraction));
        assert!((0.0..=1.0).contains(&q.min_local_fraction()));
        assert_eq!(q.w_m, 16);
    }

    #[test]
    fn unilateral_temptation_is_real() {
        // A lone deviator against a pinned crowd profits: its fraction at
        // the NE window is visibly below 1 (TFT exists to deter this).
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let positions: Vec<Point> = (0..10)
            .map(|_| Point {
                x: 500.0 + rng.gen_range(-50.0..50.0),
                y: 500.0 + rng.gen_range(-50.0..50.0),
            })
            .collect();
        let config = static_config(3);
        let dur = MicroSecs::from_seconds(4.0);
        let uni = unilateral_quality(&positions, 32, &[0], &[4, 8, 16, 32], &config, dur).unwrap();
        assert!(uni[0].fraction < 0.9, "fraction {}", uni[0].fraction);
        assert!(uni[0].best.0 < 32, "best deviation {}", uni[0].best.0);
    }

    #[test]
    fn validation() {
        let positions = random_positions(4, 7);
        let config = static_config(8);
        let dur = MicroSecs::from_seconds(1.0);
        assert!(local_quality(&positions, 16, &[9], &[8], &config, dur).is_err());
        assert!(local_quality(&positions, 16, &[0], &[], &config, dur).is_err());
    }
}
