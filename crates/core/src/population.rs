//! Evolutionary population dynamics over strategies.
//!
//! Axelrod's second question: a strategy that wins one tournament may
//! still fail to *invade* or *persist* in a population. This module runs
//! discrete-time replicator dynamics over the pairwise payoff matrix a
//! [`crate::tournament::round_robin`] produces: strategy shares grow in
//! proportion to their payoff against the current population mix,
//!
//! ```text
//! x_i ← x_i · f_i(x) / f̄(x),   f_i(x) = Σ_j x_j·π(i, j)
//! ```
//!
//! Payoffs `π` must be positive for the ratio form; callers with possibly
//! negative payoff matrices can shift them uniformly (a positive affine
//! shift does not change the dynamics' fixed points' stability ordering
//! for the discrete replicator used here, but it does change speeds —
//! [`replicator`] therefore shifts internally and reports it).

use serde::{Deserialize, Serialize};

use crate::error::GameError;
use crate::tournament::TournamentResult;

/// A population state: one share per strategy, summing to 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationState {
    /// Strategy shares.
    pub shares: Vec<f64>,
}

impl PopulationState {
    /// The uniform mix over `k` strategies.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn uniform(k: usize) -> Self {
        assert!(k > 0, "need at least one strategy"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        PopulationState { shares: vec![1.0 / k as f64; k] }
    }

    /// Index of the most common strategy.
    ///
    /// # Panics
    ///
    /// Panics on an empty state (unreachable through constructors).
    #[must_use]
    pub fn dominant(&self) -> usize {
        self.shares
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("nonempty") // PANIC-POLICY: invariant: nonempty
            .0
    }
}

/// Trace of a replicator run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicatorTrace {
    /// Strategy names (from the tournament result).
    pub names: Vec<String>,
    /// Population state per generation, starting with the initial state.
    pub generations: Vec<PopulationState>,
    /// The uniform payoff shift applied to make the matrix positive.
    pub shift: f64,
}

impl ReplicatorTrace {
    /// The final population state.
    ///
    /// # Panics
    ///
    /// Never — the initial state is always recorded.
    #[must_use]
    pub fn final_state(&self) -> &PopulationState {
        self.generations.last().expect("initial state always present") // PANIC-POLICY: invariant: initial state always present
    }

    /// Shares below this threshold count as extinct.
    pub const EXTINCTION: f64 = 1e-3;

    /// Names of strategies that went (effectively) extinct.
    #[must_use]
    pub fn extinct(&self) -> Vec<&str> {
        self.final_state()
            .shares
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s < Self::EXTINCTION)
            .map(|(i, _)| self.names[i].as_str())
            .collect()
    }
}

/// Runs `generations` steps of discrete replicator dynamics from `start`
/// over the tournament's pairwise payoff matrix.
///
/// # Errors
///
/// Returns [`GameError::InvalidConfig`] if `start` does not match the
/// tournament's strategy count, has negative shares, or does not sum to 1
/// (within 1e-9).
pub fn replicator(
    tournament: &TournamentResult,
    start: &PopulationState,
    generations: usize,
) -> Result<ReplicatorTrace, GameError> {
    let k = tournament.names.len();
    if start.shares.len() != k {
        return Err(GameError::InvalidConfig(format!(
            "{} shares for {k} strategies",
            start.shares.len()
        )));
    }
    if start.shares.iter().any(|&s| s < 0.0) {
        return Err(GameError::InvalidConfig("shares must be non-negative".into()));
    }
    let total: f64 = start.shares.iter().sum();
    if (total - 1.0).abs() > 1e-9 {
        return Err(GameError::InvalidConfig(format!("shares must sum to 1 (got {total})")));
    }
    // Shift the payoff matrix positive for the ratio-form replicator.
    let min_payoff = tournament.scores.iter().flatten().copied().fold(f64::INFINITY, f64::min);
    let shift = if min_payoff <= 0.0 { -min_payoff + 1.0 } else { 0.0 };

    let mut state = start.clone();
    let mut trace = vec![state.clone()];
    for _ in 0..generations {
        let fitness: Vec<f64> = (0..k)
            .map(|i| {
                (0..k).map(|j| state.shares[j] * (tournament.scores[i][j] + shift)).sum::<f64>()
            })
            .collect();
        let mean: f64 = (0..k).map(|i| state.shares[i] * fitness[i]).sum::<f64>();
        if mean <= 0.0 {
            break; // degenerate: population has no fitness mass left
        }
        let mut next: Vec<f64> = (0..k).map(|i| state.shares[i] * fitness[i] / mean).collect();
        // Renormalize against floating-point drift.
        let norm: f64 = next.iter().sum();
        next.iter_mut().for_each(|s| *s /= norm);
        state = PopulationState { shares: next };
        trace.push(state.clone());
    }
    Ok(ReplicatorTrace { names: tournament.names.clone(), generations: trace, shift })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::efficient_ne;
    use crate::strategy::{Constant, GenerousTft, Tft};
    use crate::tournament::{round_robin, Entrant};
    use crate::GameConfig;

    fn toy_tournament(scores: Vec<Vec<f64>>) -> TournamentResult {
        let k = scores.len();
        TournamentResult { names: (0..k).map(|i| format!("s{i}")).collect(), scores, stages: 1 }
    }

    #[test]
    fn shares_stay_normalized() {
        let t = toy_tournament(vec![vec![3.0, 0.0], vec![5.0, 1.0]]);
        let trace = replicator(&t, &PopulationState::uniform(2), 50).unwrap();
        for state in &trace.generations {
            let total: f64 = state.shares.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
            assert!(state.shares.iter().all(|&s| s >= 0.0));
        }
    }

    #[test]
    fn prisoners_dilemma_defection_takes_over() {
        // PD payoff matrix (row player): defect strictly dominates.
        let t = toy_tournament(vec![vec![3.0, 0.0], vec![5.0, 1.0]]);
        let trace = replicator(&t, &PopulationState::uniform(2), 200).unwrap();
        assert_eq!(trace.final_state().dominant(), 1);
        assert_eq!(trace.extinct(), vec!["s0"]);
    }

    #[test]
    fn neutral_matrix_is_a_fixed_point() {
        let t = toy_tournament(vec![vec![2.0, 2.0], vec![2.0, 2.0]]);
        let start = PopulationState { shares: vec![0.3, 0.7] };
        let trace = replicator(&t, &start, 20).unwrap();
        for state in &trace.generations {
            assert!((state.shares[0] - 0.3).abs() < 1e-9);
        }
    }

    #[test]
    fn negative_payoffs_are_shifted() {
        let t = toy_tournament(vec![vec![-1.0, -3.0], vec![-0.5, -2.0]]);
        let trace = replicator(&t, &PopulationState::uniform(2), 50).unwrap();
        assert!(trace.shift > 0.0);
        // Row 1 dominates row 0 entrywise; it must take over.
        assert_eq!(trace.final_state().dominant(), 1);
    }

    #[test]
    fn mac_game_population_dynamics() {
        // Evolutionary check on the real MAC-game tournament: the blunt
        // aggressor (dominated in a reciprocal field) must lose ground.
        let template = GameConfig::builder(2).discount(0.999).build().unwrap();
        let two = GameConfig::builder(2).build().unwrap();
        let w_star = efficient_ne(&two).unwrap().window;
        let field: Vec<Entrant> = vec![
            Entrant::new("tft", move || Box::new(Tft::new(w_star))),
            Entrant::new("gtft", move || {
                Box::new(GenerousTft::try_new(w_star, 2, 0.9).expect("valid GTFT parameters"))
            }),
            Entrant::new("aggressor", move || Box::new(Constant::new((w_star / 8).max(1)))),
        ];
        let tournament = round_robin(&field, &template, 25).unwrap();
        let trace = replicator(&tournament, &PopulationState::uniform(3), 500).unwrap();
        let agg_idx = trace.names.iter().position(|n| n == "aggressor").unwrap();
        let final_share = trace.final_state().shares[agg_idx];
        let initial_share = 1.0 / 3.0;
        assert!(final_share < initial_share, "aggressor share grew: {final_share}");
    }

    #[test]
    fn validation() {
        let t = toy_tournament(vec![vec![1.0, 1.0], vec![1.0, 1.0]]);
        let bad_len = PopulationState { shares: vec![1.0] };
        assert!(replicator(&t, &bad_len, 5).is_err());
        let bad_sum = PopulationState { shares: vec![0.3, 0.3] };
        assert!(replicator(&t, &bad_sum, 5).is_err());
        let negative = PopulationState { shares: vec![1.5, -0.5] };
        assert!(replicator(&t, &negative, 5).is_err());
    }
}
