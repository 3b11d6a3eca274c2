//! A small generic finite-game framework.
//!
//! The paper closes by claiming its model "is a general framework that can
//! be extended to model other selfish behaviors such as rate control by
//! redefining the proper utility function". This module is that framework
//! made concrete: an `n`-player game over an arbitrary finite action set
//! with a pluggable utility, plus best-response dynamics and pure-NE
//! checks. [`crate::ratecontrol`] instantiates it for PHY-rate selection.

use core::fmt;

use crate::error::GameError;

/// Boxed utility function: `(player, profile of action indices) → payoff`.
/// `Send + Sync` so payoff tables can be built in parallel.
type UtilityFn = Box<dyn Fn(usize, &[usize]) -> f64 + Send + Sync>;

/// An `n`-player one-shot game over a shared finite action set.
///
/// Profiles are given as action *indices* into [`FiniteGame::actions`].
pub struct FiniteGame<A> {
    players: usize,
    actions: Vec<A>,
    utility: UtilityFn,
}

impl<A: fmt::Debug> fmt::Debug for FiniteGame<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FiniteGame")
            .field("players", &self.players)
            .field("actions", &self.actions)
            .finish_non_exhaustive()
    }
}

/// Outcome of best-response dynamics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrOutcome {
    /// The final profile (action indices).
    pub profile: Vec<usize>,
    /// Whether the dynamics reached a fixed point (a pure NE).
    pub converged: bool,
    /// Full sweeps performed.
    pub rounds: usize,
}

impl<A> FiniteGame<A> {
    /// Creates a game.
    ///
    /// `utility(player, profile)` must be defined for every profile of
    /// action indices.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidConfig`] if there are no players or no
    /// actions.
    pub fn new(
        players: usize,
        actions: Vec<A>,
        utility: impl Fn(usize, &[usize]) -> f64 + Send + Sync + 'static,
    ) -> Result<Self, GameError> {
        if players == 0 {
            return Err(GameError::InvalidConfig("need at least one player".into()));
        }
        if actions.is_empty() {
            return Err(GameError::InvalidConfig("need at least one action".into()));
        }
        Ok(FiniteGame { players, actions, utility: Box::new(utility) })
    }

    /// Number of players.
    #[must_use]
    pub fn player_count(&self) -> usize {
        self.players
    }

    /// The shared action set.
    #[must_use]
    pub fn actions(&self) -> &[A] {
        &self.actions
    }

    fn validate_profile(&self, profile: &[usize]) {
        assert_eq!(profile.len(), self.players, "profile length must equal player count"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        assert!(
            // PANIC-POLICY: documented # Panics contract (programmer-error guard)
            profile.iter().all(|&a| a < self.actions.len()),
            "profile contains an out-of-range action index"
        );
    }

    /// Utility of `player` under `profile`.
    ///
    /// # Panics
    ///
    /// Panics on a malformed profile or player index.
    #[must_use]
    pub fn utility_of(&self, player: usize, profile: &[usize]) -> f64 {
        self.validate_profile(profile);
        assert!(player < self.players, "player index out of range"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        (self.utility)(player, profile)
    }

    /// Sum of all players' utilities under `profile`.
    ///
    /// # Panics
    ///
    /// Panics on a malformed profile.
    #[must_use]
    pub fn social_welfare(&self, profile: &[usize]) -> f64 {
        (0..self.players).map(|i| self.utility_of(i, profile)).sum()
    }

    /// `player`'s best response to the others' actions in `profile`
    /// (its own entry is ignored). Ties break toward the *current* action,
    /// so best-response dynamics cannot oscillate between equal optima.
    ///
    /// # Panics
    ///
    /// Panics on a malformed profile or player index.
    #[must_use]
    pub fn best_response(&self, player: usize, profile: &[usize]) -> usize {
        self.validate_profile(profile);
        let mut work = profile.to_vec();
        let current = profile[player];
        let mut best = current;
        work[player] = current;
        let mut best_u = (self.utility)(player, &work);
        for a in 0..self.actions.len() {
            if a == current {
                continue;
            }
            work[player] = a;
            let u = (self.utility)(player, &work);
            if u > best_u {
                best_u = u;
                best = a;
            }
        }
        best
    }

    /// Whether `profile` is a pure-strategy Nash equilibrium.
    ///
    /// # Panics
    ///
    /// Panics on a malformed profile.
    #[must_use]
    pub fn is_pure_nash(&self, profile: &[usize]) -> bool {
        (0..self.players).all(|i| self.best_response(i, profile) == profile[i])
    }

    /// Runs sequential best-response dynamics from `start` for at most
    /// `max_rounds` full sweeps, stopping at the first fixed point.
    ///
    /// # Panics
    ///
    /// Panics on a malformed starting profile.
    #[must_use]
    pub fn best_response_dynamics(&self, start: &[usize], max_rounds: usize) -> BrOutcome {
        self.validate_profile(start);
        let mut profile = start.to_vec();
        for round in 0..max_rounds {
            let mut changed = false;
            for i in 0..self.players {
                let br = self.best_response(i, &profile);
                if br != profile[i] {
                    profile[i] = br;
                    changed = true;
                }
            }
            if !changed {
                return BrOutcome { profile, converged: true, rounds: round + 1 };
            }
        }
        BrOutcome { profile, converged: false, rounds: max_rounds }
    }

    /// Decodes profile `code` in mixed radix `actions.len()`.
    fn decode(&self, code: usize) -> Vec<usize> {
        let a = self.actions.len();
        let mut profile = vec![0usize; self.players];
        let mut c = code;
        for slot in profile.iter_mut() {
            *slot = c % a;
            c /= a;
        }
        profile
    }

    /// Exhaustively enumerates all pure Nash equilibria. Exponential in the
    /// player count — intended for the small instances of analyses/tests.
    #[must_use]
    pub fn enumerate_pure_nash(&self) -> Vec<Vec<usize>> {
        let total =
            self.actions.len().checked_pow(self.players as u32).expect("profile space too large"); // PANIC-POLICY: documented # Panics contract: profile-space overflow guard
        (0..total)
            .map(|code| self.decode(code))
            .filter(|profile| self.is_pure_nash(profile))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Prisoner's dilemma: action 0 = cooperate, 1 = defect.
    fn prisoners_dilemma() -> FiniteGame<&'static str> {
        FiniteGame::new(2, vec!["cooperate", "defect"], |i, profile| {
            let me = profile[i];
            let other = profile[1 - i];
            match (me, other) {
                (0, 0) => 3.0,
                (0, 1) => 0.0,
                (1, 0) => 5.0,
                (1, 1) => 1.0,
                _ => unreachable!(),
            }
        })
        .unwrap()
    }

    #[test]
    fn pd_has_defect_defect_as_unique_ne() {
        let g = prisoners_dilemma();
        assert!(g.is_pure_nash(&[1, 1]));
        assert!(!g.is_pure_nash(&[0, 0]));
        assert_eq!(g.enumerate_pure_nash(), vec![vec![1, 1]]);
        // And best-response dynamics find it from cooperation.
        let out = g.best_response_dynamics(&[0, 0], 10);
        assert!(out.converged);
        assert_eq!(out.profile, vec![1, 1]);
    }

    #[test]
    fn pd_welfare_is_maximized_off_equilibrium() {
        let g = prisoners_dilemma();
        assert!(g.social_welfare(&[0, 0]) > g.social_welfare(&[1, 1]));
    }

    #[test]
    fn coordination_game_has_two_equilibria() {
        let g = FiniteGame::new(2, vec![0u8, 1], |i, p| {
            if p[0] == p[1] {
                if p[i] == 1 {
                    2.0
                } else {
                    1.0
                }
            } else {
                0.0
            }
        })
        .unwrap();
        let nes = g.enumerate_pure_nash();
        assert_eq!(nes, vec![vec![0, 0], vec![1, 1]]);
    }

    #[test]
    fn tie_breaking_keeps_current_action() {
        // Constant utility: everything is a NE; BR must not churn.
        let g = FiniteGame::new(3, vec![0u8, 1, 2], |_, _| 1.0).unwrap();
        let out = g.best_response_dynamics(&[2, 0, 1], 5);
        assert!(out.converged);
        assert_eq!(out.profile, vec![2, 0, 1]);
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn validation() {
        assert!(FiniteGame::new(0, vec![1u8], |_, _| 0.0).is_err());
        assert!(FiniteGame::<u8>::new(2, vec![], |_, _| 0.0).is_err());
    }

    #[test]
    #[should_panic(expected = "out-of-range action")]
    fn bad_profile_panics() {
        let g = prisoners_dilemma();
        let _ = g.utility_of(0, &[0, 9]);
    }
}
