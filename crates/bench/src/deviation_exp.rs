//! Section V.D/V.E ablations: short-sighted and malicious players.

use macgame_core::deviation::{
    malicious_impact, optimal_shortsighted_deviation, shortsighted_deviation,
};
use macgame_core::equilibrium::efficient_ne;
use macgame_core::GameConfig;
use serde::{Deserialize, Serialize};

use crate::BenchError;

/// One row of the short-sighted ablation: the deviator's optimal window
/// and gain as a function of its discount factor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShortsightedRow {
    /// The deviator's discount factor `δ_s`.
    pub delta_s: f64,
    /// Its optimal deviation window `W_s(δ_s)`.
    pub w_s: u32,
    /// Relative gain over compliance (positive ⇒ deviation pays).
    pub relative_gain: f64,
    /// Relative loss inflicted on each compliant player during the episode.
    pub victim_relative_loss: f64,
}

/// The short-sightedness sweep (paper Section V.D): for each `δ_s`, the
/// optimal deviation and its consequences.
///
/// # Errors
///
/// Propagates model failures.
pub fn shortsighted_table(
    n: usize,
    reaction_stages: u32,
    deltas: &[f64],
) -> Result<Vec<ShortsightedRow>, BenchError> {
    let game = GameConfig::builder(n).build()?;
    let w_star = efficient_ne(&game)?.window;
    let mut rows = Vec::new();
    for &delta_s in deltas {
        let best = optimal_shortsighted_deviation(&game, w_star, reaction_stages, delta_s)?;
        rows.push(ShortsightedRow {
            delta_s,
            w_s: best.w_s,
            relative_gain: best.gain() / best.compliant_payoff.abs(),
            victim_relative_loss: (best.compliant_payoff - best.victim_payoff)
                / best.compliant_payoff.abs(),
        });
    }
    Ok(rows)
}

/// One row of the reaction-lag ablation: how the crowd's TFT latency
/// changes the deviation calculus.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReactionRow {
    /// TFT reaction lag in stages.
    pub reaction_stages: u32,
    /// Relative gain of a fixed `W_s = W_c*/2` deviation at `δ_s`.
    pub relative_gain: f64,
}

/// Sweeps the reaction lag for a fixed moderately short-sighted deviator.
///
/// # Errors
///
/// Propagates model failures.
pub fn reaction_table(
    n: usize,
    delta_s: f64,
    lags: &[u32],
) -> Result<Vec<ReactionRow>, BenchError> {
    let game = GameConfig::builder(n).build()?;
    let w_star = efficient_ne(&game)?.window;
    let mut rows = Vec::new();
    for &m in lags {
        let outcome = shortsighted_deviation(&game, w_star, (w_star / 2).max(1), m, delta_s)?;
        rows.push(ReactionRow {
            reaction_stages: m,
            relative_gain: outcome.gain() / outcome.compliant_payoff.abs(),
        });
    }
    Ok(rows)
}

/// One row of the malicious table (Section V.E).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MaliciousRow {
    /// The window the malicious player pins (and TFT spreads).
    pub w_mal: u32,
    /// Fraction of NE welfare remaining after convergence.
    pub remaining_fraction: f64,
    /// Whether welfare went non-positive (paralysis).
    pub collapsed: bool,
}

/// The malicious-degradation sweep.
///
/// # Errors
///
/// Propagates model failures.
pub fn malicious_table(n: usize, windows: &[u32]) -> Result<Vec<MaliciousRow>, BenchError> {
    let game = GameConfig::builder(n).build()?;
    let w_star = efficient_ne(&game)?.window;
    let mut rows = Vec::new();
    for &w_mal in windows {
        let impact = malicious_impact(&game, w_star, w_mal)?;
        rows.push(MaliciousRow {
            w_mal,
            remaining_fraction: impact.remaining_fraction(),
            collapsed: impact.collapsed(),
        });
    }
    Ok(rows)
}

/// One row of the price-of-myopia table (Discussion section VIII).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MyopiaRow {
    /// Population.
    pub n: usize,
    /// Efficient NE window (TFT-sustained).
    pub w_star: u32,
    /// The myopic best-response fixed point's window range (min, max).
    pub myopic_windows: (u32, u32),
    /// Welfare at the myopic fixed point as a fraction of the efficient
    /// NE's welfare.
    pub welfare_ratio: f64,
}

/// Computes the price of myopia over populations: the myopic fixed point
/// and the welfare it forfeits versus the TFT-sustained efficient NE.
///
/// # Errors
///
/// Propagates model failures.
pub fn myopia_table(populations: &[usize]) -> Result<Vec<MyopiaRow>, BenchError> {
    let mut rows = Vec::new();
    for &n in populations {
        let game = GameConfig::builder(n).build()?;
        let w_star = efficient_ne(&game)?.window;
        let out = macgame_core::equilibrium::myopic_dynamics(&game, &vec![w_star; n], 15)?;
        rows.push(MyopiaRow {
            n,
            w_star,
            myopic_windows: (
                *out.profile.iter().min().expect("nonempty"), // PANIC-POLICY: invariant: nonempty
                *out.profile.iter().max().expect("nonempty"), // PANIC-POLICY: invariant: nonempty
            ),
            welfare_ratio: out.welfare_ratio(),
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_decreases_with_farsightedness() {
        let rows = shortsighted_table(5, 1, &[0.0, 0.5, 0.9, 0.999]).unwrap();
        for pair in rows.windows(2) {
            assert!(
                pair[1].relative_gain <= pair[0].relative_gain + 1e-12,
                "gain should fall as δ_s rises: {pair:?}"
            );
        }
        assert!(rows[0].relative_gain > 1.0, "myopic gain should be large");
        assert!(rows[3].relative_gain < 1e-3, "long-sighted gain should vanish");
    }

    #[test]
    fn victims_lose_when_deviation_happens() {
        let rows = shortsighted_table(5, 1, &[0.0]).unwrap();
        assert!(rows[0].victim_relative_loss > 0.0);
    }

    #[test]
    fn slower_reaction_raises_gain() {
        let rows = reaction_table(5, 0.9, &[1, 2, 5, 10]).unwrap();
        for pair in rows.windows(2) {
            assert!(pair[1].relative_gain >= pair[0].relative_gain);
        }
    }

    #[test]
    fn malicious_degradation_is_monotone() {
        let rows = malicious_table(10, &[64, 16, 4, 1]).unwrap();
        for pair in rows.windows(2) {
            assert!(
                pair[1].remaining_fraction <= pair[0].remaining_fraction + 1e-9,
                "smaller W_mal must hurt more: {pair:?}"
            );
        }
    }

    #[test]
    fn myopia_table_shows_degradation() {
        let rows = myopia_table(&[3, 5]).unwrap();
        for row in &rows {
            assert!(row.myopic_windows.1 < row.w_star);
            assert!(row.welfare_ratio < 1.0);
        }
    }
}
