//! Figures 2 and 3: normalized global payoff `U/C` versus the common
//! contention window.
//!
//! The paper plots, for several populations, the global discounted payoff
//! normalized by `C = g·T/(σ(1−δ))` as the (converged, common) CW varies —
//! Figure 2 for basic access, Figure 3 for RTS/CTS. The qualitative claims
//! the text makes about these figures are checked by
//! [`FigureSeries::shape`].

use macgame_dcf::fixedpoint::solve_symmetric;
use macgame_dcf::utility::normalized_global_payoff;
use macgame_dcf::{AccessMode, DcfParams, MicroSecs, UtilityParams};
use macgame_sim::{Engine, SimConfig};
use serde::{Deserialize, Serialize};

use crate::BenchError;

/// One `(window, U/C)` point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PayoffPoint {
    /// Common contention window.
    pub window: u32,
    /// Normalized global payoff `U/C = σ·Σ_i u_i / g`.
    pub u_over_c: f64,
}

/// One curve of Figure 2/3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureSeries {
    /// Population `n`.
    pub n: usize,
    /// Access mode (Figure 2 = basic, Figure 3 = RTS/CTS).
    pub mode: AccessMode,
    /// Curve samples in increasing window order.
    pub points: Vec<PayoffPoint>,
}

/// Shape summary used to compare against the paper's qualitative claims.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FigureShape {
    /// The window maximizing `U/C` on the sampled grid.
    pub argmax_window: u32,
    /// Maximum `U/C`.
    pub max_value: f64,
    /// `U/C` at the grid's smallest window.
    pub at_min_window: f64,
    /// `U/C` at the grid's largest window.
    pub at_max_window: f64,
    /// Relative payoff loss within ±20 % of the argmax window (the
    /// "robustness" of the optimum the paper highlights).
    pub flatness_near_optimum: f64,
}

impl FigureSeries {
    /// Computes the shape summary.
    ///
    /// # Panics
    ///
    /// Panics on an empty series.
    #[must_use]
    pub fn shape(&self) -> FigureShape {
        assert!(!self.points.is_empty(), "empty series"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        let best =
            self.points.iter().max_by(|a, b| a.u_over_c.total_cmp(&b.u_over_c)).expect("nonempty"); // PANIC-POLICY: invariant: nonempty
        let lo_w = (f64::from(best.window) * 0.8) as u32;
        let hi_w = (f64::from(best.window) * 1.2) as u32;
        let near_min = self
            .points
            .iter()
            .filter(|p| (lo_w..=hi_w).contains(&p.window))
            .map(|p| p.u_over_c)
            .fold(f64::INFINITY, f64::min);
        FigureShape {
            argmax_window: best.window,
            max_value: best.u_over_c,
            at_min_window: self.points.first().expect("nonempty").u_over_c, // PANIC-POLICY: invariant: nonempty
            at_max_window: self.points.last().expect("nonempty").u_over_c, // PANIC-POLICY: invariant: nonempty
            flatness_near_optimum: if best.u_over_c != 0.0 {
                (best.u_over_c - near_min) / best.u_over_c.abs()
            } else {
                0.0
            },
        }
    }
}

/// The window grid used for the figures: dense near small windows,
/// geometric afterwards, always including `1` and `w_max`.
#[must_use]
pub fn window_grid(w_max: u32) -> Vec<u32> {
    let mut grid = Vec::new();
    let mut w = 1u32;
    while w <= w_max {
        grid.push(w);
        // ~12 % geometric steps with a floor of +1.
        let next = w + (w / 8).max(1);
        w = next;
    }
    // PANIC-POLICY: invariant: nonempty
    if *grid.last().expect("nonempty") != w_max {
        grid.push(w_max);
    }
    grid
}

/// Computes one curve of Figure 2/3 analytically.
///
/// # Errors
///
/// Propagates fixed-point failures.
pub fn figure_series(n: usize, mode: AccessMode, w_max: u32) -> Result<FigureSeries, BenchError> {
    let params = DcfParams::builder().access_mode(mode).build()?;
    let utility = UtilityParams::default();
    let mut points = Vec::new();
    for w in window_grid(w_max) {
        let sym = solve_symmetric(n, w, &params)?;
        let taus = vec![sym.tau; n];
        let ps = vec![sym.collision_prob; n];
        let u_over_c = normalized_global_payoff(&taus, &ps, &params, &utility);
        points.push(PayoffPoint { window: w, u_over_c });
    }
    Ok(FigureSeries { n, mode, points })
}

/// All three curves of one figure (n ∈ {5, 20, 50} as in the paper).
///
/// # Errors
///
/// Propagates fixed-point failures.
pub fn figure(mode: AccessMode, w_max: u32) -> Result<Vec<FigureSeries>, BenchError> {
    [5usize, 20, 50].iter().map(|&n| figure_series(n, mode, w_max)).collect()
}

/// Simulated `U/C` samples overlaying the analytic curve: measure the
/// global payoff rate at a handful of windows on the slot simulator and
/// normalize the same way (`U/C = σ·Σu_i/g`).
///
/// # Errors
///
/// Propagates simulator failures.
pub fn simulated_overlay(
    n: usize,
    mode: AccessMode,
    windows: &[u32],
    duration: MicroSecs,
    seed: u64,
) -> Result<Vec<PayoffPoint>, BenchError> {
    let params = DcfParams::builder().access_mode(mode).build()?;
    let utility = UtilityParams::default();
    let mut out = Vec::with_capacity(windows.len());
    for &w in windows {
        let config = SimConfig::builder()
            .params(params)
            .utility(utility)
            .symmetric(n, w)
            .seed(seed ^ u64::from(w))
            .build()?;
        let mut engine = Engine::new(&config);
        let report = engine.run_for(duration);
        let global_rate: f64 = (0..n).map(|i| report.payoff_rate(i, &utility)).sum();
        out.push(PayoffPoint {
            window: w,
            u_over_c: global_rate * params.sigma().value() / utility.gain,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use macgame_dcf::optimal::efficient_cw;

    #[test]
    fn grid_is_increasing_and_bounded() {
        let grid = window_grid(1024);
        assert_eq!(grid[0], 1);
        assert_eq!(*grid.last().unwrap(), 1024);
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
        assert!(grid.len() < 120, "grid should stay coarse ({} points)", grid.len());
    }

    #[test]
    fn figure2_peaks_at_efficient_window() {
        let series = figure_series(5, AccessMode::Basic, 1024).unwrap();
        let shape = series.shape();
        let w_star =
            efficient_cw(5, &DcfParams::default(), &UtilityParams::default(), 1024).unwrap().window;
        let rel = (f64::from(shape.argmax_window) - f64::from(w_star)).abs() / f64::from(w_star);
        assert!(rel < 0.15, "grid argmax {} vs W_c* {}", shape.argmax_window, w_star);
        // The curve is unimodal-ish: both ends below the peak.
        assert!(shape.at_min_window < shape.max_value);
        assert!(shape.at_max_window < shape.max_value);
    }

    #[test]
    fn optimum_is_flat_per_the_papers_robustness_remark() {
        for mode in AccessMode::ALL {
            let series = figure_series(20, mode, 2048).unwrap();
            let shape = series.shape();
            assert!(
                shape.flatness_near_optimum < 0.05,
                "{mode:?}: ±20% around W* loses {:.1}% payoff",
                100.0 * shape.flatness_near_optimum
            );
        }
    }

    #[test]
    fn rtscts_is_far_less_sensitive_at_small_windows() {
        // The paper's Figure 3 observation: with cheap collisions the
        // payoff varies much less across the whole CW range.
        let basic = figure_series(20, AccessMode::Basic, 2048).unwrap().shape();
        let rtscts = figure_series(20, AccessMode::RtsCts, 2048).unwrap().shape();
        let basic_drop = (basic.max_value - basic.at_min_window) / basic.max_value;
        let rtscts_drop = (rtscts.max_value - rtscts.at_min_window) / rtscts.max_value;
        assert!(
            rtscts_drop < 0.5 * basic_drop,
            "basic drop {basic_drop:.2} vs RTS/CTS drop {rtscts_drop:.2}"
        );
    }

    #[test]
    fn figure_has_three_populations() {
        let fig = figure(AccessMode::RtsCts, 512).unwrap();
        let ns: Vec<usize> = fig.iter().map(|s| s.n).collect();
        assert_eq!(ns, vec![5, 20, 50]);
    }

    #[test]
    fn simulated_overlay_tracks_the_analytic_curve() {
        let n = 5;
        let analytic = figure_series(n, AccessMode::Basic, 1024).unwrap();
        let probe_windows = [20u32, 79, 300];
        let overlay = simulated_overlay(
            n,
            AccessMode::Basic,
            &probe_windows,
            MicroSecs::from_seconds(60.0),
            9,
        )
        .unwrap();
        for point in &overlay {
            // Nearest analytic sample.
            let nearest =
                analytic.points.iter().min_by_key(|p| p.window.abs_diff(point.window)).unwrap();
            let rel = (point.u_over_c - nearest.u_over_c).abs() / nearest.u_over_c;
            assert!(
                rel < 0.12,
                "W={}: simulated {} vs analytic {} ({:.1}% off)",
                point.window,
                point.u_over_c,
                nearest.u_over_c,
                100.0 * rel
            );
        }
    }
}
