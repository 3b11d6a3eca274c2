//! Numeric verification of the paper's ordering lemmas.
//!
//! * **Lemma 1**: in any stage profile, `W_i > W_j` implies `p_i > p_j`,
//!   `τ_i < τ_j` and `U_i^s < U_j^s` — aggression pays *within* a stage.
//! * **Lemma 4**: if one player deviates from a uniform profile `(W_k, …)`,
//!   downward deviation ranks `U_others < U_sym < U_dev` and upward
//!   deviation ranks `U_dev < U_sym < U_others`.
//!
//! These checkers are reference oracles: no production path calls them.
//! The property tests `lemma1_holds_on_random_profiles` and
//! `lemma4_ordering_on_random_deviations` run the production solver
//! through them on random profiles.

use macgame_dcf::fixedpoint::{solve, SolveOptions};
use macgame_dcf::utility::all_utilities;
use serde::{Deserialize, Serialize};

use crate::deviation::{deviator_stage, symmetric_stage};
use crate::error::GameError;
use crate::game::GameConfig;

/// A violated ordering, with the offending pair and quantities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LemmaViolation {
    /// Which ordered quantity broke (`"p"`, `"tau"` or `"utility"`).
    pub quantity: &'static str,
    /// The two player indices involved.
    pub players: (usize, usize),
    /// The two values that failed to satisfy the strict order.
    pub values: (f64, f64),
}

impl core::fmt::Display for LemmaViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "lemma ordering violated for {} between players {} and {}: {} vs {}",
            self.quantity, self.players.0, self.players.1, self.values.0, self.values.1
        )
    }
}

/// Verifies Lemma 1 on an arbitrary window profile. Returns the first
/// violation found, or `Ok(())`.
///
/// Ties in `W` are skipped (the lemma orders strictly distinct windows);
/// comparisons carry a small tolerance for fixed-point error. The
/// **utility** ordering is only checked between players whose per-attempt
/// margin `(1−p)·g − e` is positive: the paper implicitly assumes the
/// profitable regime — when attempts lose money, transmitting *less* is
/// better and the utility ordering legitimately reverses (while the `p`
/// and `τ` orderings continue to hold).
pub fn verify_lemma1(
    game: &GameConfig,
    windows: &[u32],
) -> Result<Result<(), LemmaViolation>, GameError> {
    let eq = solve(windows, game.params(), SolveOptions::default())?;
    let us = all_utilities(&eq.taus, &eq.collision_probs, game.params(), game.utility());
    const TOL: f64 = 1e-9;
    for i in 0..windows.len() {
        for j in 0..windows.len() {
            if windows[i] <= windows[j] {
                continue;
            }
            // W_i > W_j here.
            if eq.collision_probs[i] <= eq.collision_probs[j] - TOL {
                return Ok(Err(LemmaViolation {
                    quantity: "p",
                    players: (i, j),
                    values: (eq.collision_probs[i], eq.collision_probs[j]),
                }));
            }
            if eq.taus[i] >= eq.taus[j] + TOL {
                return Ok(Err(LemmaViolation {
                    quantity: "tau",
                    players: (i, j),
                    values: (eq.taus[i], eq.taus[j]),
                }));
            }
            let margin_i =
                (1.0 - eq.collision_probs[i]) * game.utility().gain - game.utility().cost;
            let margin_j =
                (1.0 - eq.collision_probs[j]) * game.utility().gain - game.utility().cost;
            if margin_i > 0.0 && margin_j > 0.0 && us[i] >= us[j] + TOL {
                return Ok(Err(LemmaViolation {
                    quantity: "utility",
                    players: (i, j),
                    values: (us[i], us[j]),
                }));
            }
        }
    }
    Ok(Ok(()))
}

/// The three stage utilities Lemma 4 orders.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Lemma4Report {
    /// The deviator's stage utility rate.
    pub deviator: f64,
    /// The uniform-profile stage utility rate (nobody deviates).
    pub symmetric: f64,
    /// A compliant player's stage utility rate under the deviation.
    pub compliant: f64,
}

impl Lemma4Report {
    /// Whether the report satisfies Lemma 4's ordering for the given
    /// deviation direction.
    #[must_use]
    pub fn ordered(&self, w_dev: u32, w_k: u32) -> bool {
        use core::cmp::Ordering;
        match w_dev.cmp(&w_k) {
            Ordering::Less => self.compliant < self.symmetric && self.symmetric < self.deviator,
            Ordering::Greater => self.deviator < self.symmetric && self.symmetric < self.compliant,
            Ordering::Equal => {
                (self.deviator - self.symmetric).abs() < 1e-12
                    && (self.compliant - self.symmetric).abs() < 1e-12
            }
        }
    }
}

/// Computes the Lemma 4 triple for a deviation from `(w_k, …, w_k)` to
/// `w_dev` by one player.
///
/// # Errors
///
/// Propagates solver failures.
pub fn lemma4_report(game: &GameConfig, w_k: u32, w_dev: u32) -> Result<Lemma4Report, GameError> {
    let stage = deviator_stage(game, w_k, w_dev)?;
    let symmetric = symmetric_stage(game, w_k)?;
    Ok(Lemma4Report { deviator: stage.deviator, symmetric, compliant: stage.compliant })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn game(n: usize) -> GameConfig {
        GameConfig::builder(n).build().unwrap()
    }

    #[test]
    fn lemma1_on_assorted_profiles() {
        let g = game(4);
        for windows in [[8u32, 16, 64, 256], [100, 1, 50, 7], [2, 3, 5, 8]] {
            let result = verify_lemma1(&g, &windows).unwrap();
            assert!(result.is_ok(), "violation: {:?}", result.unwrap_err());
        }
    }

    #[test]
    fn lemma1_with_ties_is_fine() {
        let g = game(5);
        let result = verify_lemma1(&g, &[32, 32, 64, 64, 128]).unwrap();
        assert!(result.is_ok());
    }

    #[test]
    fn lemma4_both_directions() {
        let g = game(6);
        for (w_k, w_dev) in [(100u32, 30u32), (100, 300), (50, 49), (50, 51)] {
            let report = lemma4_report(&g, w_k, w_dev).unwrap();
            assert!(report.ordered(w_dev, w_k), "w_k={w_k} w_dev={w_dev}: {report:?} not ordered");
        }
    }

    #[test]
    fn lemma4_no_deviation_degenerates() {
        let g = game(3);
        let report = lemma4_report(&g, 64, 64).unwrap();
        assert!(report.ordered(64, 64));
    }

    #[test]
    fn violation_display() {
        let v = LemmaViolation { quantity: "tau", players: (0, 1), values: (0.5, 0.4) };
        assert!(v.to_string().contains("tau"));
        assert!(v.to_string().contains("players 0 and 1"));
    }
}
