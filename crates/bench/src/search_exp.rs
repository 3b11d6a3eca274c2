//! Section V.C (equilibrium search) and TFT-convergence experiments.

use macgame_core::equilibrium::{efficient_ne, ne_interval};
use macgame_core::evaluator::AnalyticalEvaluator;
use macgame_core::search::{run_search, AnalyticProbe, SimulatedProbe};
use macgame_core::strategy::{Strategy, Tft};
use macgame_core::{GameConfig, RepeatedGame};
use macgame_dcf::MicroSecs;
use serde::{Deserialize, Serialize};

use crate::BenchError;

/// Outcome of one search run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchRow {
    /// Starting window `W₀`.
    pub w0: u32,
    /// Window found by the protocol.
    pub w_found: u32,
    /// Ground-truth `W_c*`.
    pub w_star: u32,
    /// Number of payoff measurements.
    pub measurements: usize,
    /// Relative error of the found window.
    pub relative_error: f64,
}

/// Runs the analytic-probe search from several starting points.
///
/// # Errors
///
/// Propagates model failures.
pub fn analytic_search_table(n: usize, starts: &[u32]) -> Result<Vec<SearchRow>, BenchError> {
    let game = GameConfig::builder(n).build()?;
    let w_star = efficient_ne(&game)?.window;
    let mut rows = Vec::new();
    for &w0 in starts {
        let mut probe = AnalyticProbe::new(game.clone());
        let outcome = run_search(&mut probe, &game, w0, 0.0)?;
        rows.push(SearchRow {
            w0,
            w_found: outcome.w_m,
            w_star,
            measurements: outcome.trace.len(),
            relative_error: (f64::from(outcome.w_m) - f64::from(w_star)).abs() / f64::from(w_star),
        });
    }
    Ok(rows)
}

/// Runs the simulated-probe (noisy) search.
///
/// # Errors
///
/// Propagates model/simulator failures.
pub fn simulated_search(
    n: usize,
    w0: u32,
    measure_secs: f64,
    margin: f64,
    seed: u64,
) -> Result<SearchRow, BenchError> {
    let game = GameConfig::builder(n).build()?;
    let w_star = efficient_ne(&game)?.window;
    let mut probe = SimulatedProbe::new(game.clone(), seed, MicroSecs::from_seconds(measure_secs))?;
    let outcome = run_search(&mut probe, &game, w0, margin)?;
    Ok(SearchRow {
        w0,
        w_found: outcome.w_m,
        w_star,
        measurements: outcome.trace.len(),
        relative_error: (f64::from(outcome.w_m) - f64::from(w_star)).abs() / f64::from(w_star),
    })
}

/// Convergence of TFT play from heterogeneous initial windows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceRow {
    /// Initial windows.
    pub initials: Vec<u32>,
    /// Stage at which play became uniform.
    pub converged_at_stage: Option<usize>,
    /// The common window after convergence.
    pub window: Option<u32>,
}

/// Plays TFT from several heterogeneous starts (analytic evaluator) and
/// reports the convergence stage — the paper's "within finite number of
/// stages all players operate on the same CW value".
///
/// # Errors
///
/// Propagates model failures.
pub fn tft_convergence_table(
    initial_profiles: &[Vec<u32>],
) -> Result<Vec<ConvergenceRow>, BenchError> {
    let mut rows = Vec::new();
    for initials in initial_profiles {
        let game = GameConfig::builder(initials.len()).build()?;
        let players: Vec<Box<dyn Strategy>> =
            initials.iter().map(|&w| Box::new(Tft::new(w)) as Box<dyn Strategy>).collect();
        let evaluator = Box::new(AnalyticalEvaluator::new(game.clone()));
        let mut rg = RepeatedGame::new(game, players, evaluator)?;
        let report = rg.play_until_converged(20, 2)?;
        rows.push(ConvergenceRow {
            initials: initials.clone(),
            converged_at_stage: report.stage,
            window: report.window,
        });
    }
    Ok(rows)
}

/// The Theorem 2 NE interval summary for a population.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntervalRow {
    /// Population.
    pub n: usize,
    /// `W_c⁰`.
    pub lower: u32,
    /// `W_c*`.
    pub upper: u32,
    /// Number of symmetric NE.
    pub count: u32,
}

/// NE-interval rows for several populations.
///
/// # Errors
///
/// Propagates model failures.
pub fn interval_table(populations: &[usize]) -> Result<Vec<IntervalRow>, BenchError> {
    let mut rows = Vec::new();
    for &n in populations {
        let game = GameConfig::builder(n).build()?;
        let interval = ne_interval(&game)?;
        rows.push(IntervalRow {
            n,
            lower: interval.lower,
            upper: interval.upper,
            count: interval.count(),
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_search_is_exact_from_anywhere() {
        let rows = analytic_search_table(5, &[5, 40, 79, 120, 300]).unwrap();
        for row in &rows {
            assert_eq!(row.w_found, row.w_star, "from W₀ = {}", row.w0);
            assert_eq!(row.relative_error, 0.0);
        }
    }

    #[test]
    fn simulated_search_lands_near_optimum() {
        let row = simulated_search(5, 60, 30.0, 0.002, 11).unwrap();
        assert!(row.relative_error < 0.35, "found {} vs {}", row.w_found, row.w_star);
    }

    #[test]
    fn tft_convergence_is_one_stage_under_perfect_observation() {
        let rows =
            tft_convergence_table(&[vec![100, 50, 80], vec![30, 30, 30], vec![7, 9, 11, 13]])
                .unwrap();
        assert_eq!(rows[0].converged_at_stage, Some(1));
        assert_eq!(rows[0].window, Some(50));
        assert_eq!(rows[1].converged_at_stage, Some(0));
        assert_eq!(rows[2].window, Some(7));
    }

    #[test]
    fn interval_grows_with_population() {
        let rows = interval_table(&[2, 5, 10]).unwrap();
        assert!(rows.windows(2).all(|p| p[0].upper < p[1].upper));
        for row in &rows {
            assert!(row.lower <= row.upper);
        }
    }
}
