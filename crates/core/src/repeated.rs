//! The multi-stage (repeated-game) driver.
//!
//! Wires strategies to a stage evaluator: each stage every player submits a
//! window (strategies see the history of *observed* profiles), the
//! evaluator realizes utilities, and the record is appended to the history.

use serde::{Deserialize, Serialize};

use crate::error::GameError;
use crate::evaluator::StageEvaluator;
use crate::game::GameConfig;
use crate::history::{History, StageRecord};
use crate::strategy::Strategy;

/// Outcome of [`RepeatedGame::play_until_converged`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvergenceReport {
    /// Whether play converged to a constant uniform profile.
    pub converged: bool,
    /// Stage index at which the converged regime began.
    pub stage: Option<usize>,
    /// The common window after convergence.
    pub window: Option<u32>,
    /// Total stages played.
    pub stages_played: usize,
}

/// A running instance of the repeated MAC game.
///
/// # Examples
///
/// ```
/// use macgame_core::evaluator::AnalyticalEvaluator;
/// use macgame_core::strategy::Tft;
/// use macgame_core::{GameConfig, RepeatedGame};
///
/// let game = GameConfig::builder(3).build()?;
/// let players = (0..3).map(|i| {
///     Box::new(Tft::new(50 + 40 * i)) as Box<dyn macgame_core::strategy::Strategy>
/// });
/// let evaluator = AnalyticalEvaluator::new(game.clone());
/// let mut rg = RepeatedGame::new(game, players.collect(), Box::new(evaluator))?;
/// let report = rg.play_until_converged(20, 3)?;
/// // TFT pulls everyone to the minimum initial window within one stage.
/// assert!(report.converged);
/// assert_eq!(report.window, Some(50));
/// # Ok::<(), macgame_core::GameError>(())
/// ```
pub struct RepeatedGame {
    game: GameConfig,
    strategies: Vec<Box<dyn Strategy>>,
    evaluator: Box<dyn StageEvaluator>,
    history: History,
}

impl std::fmt::Debug for RepeatedGame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepeatedGame")
            .field("game", &self.game)
            .field("players", &self.strategies.len())
            .field("stages", &self.history.len())
            .finish_non_exhaustive()
    }
}

impl RepeatedGame {
    /// Creates a repeated game with one strategy per player.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidConfig`] if the strategy count does not
    /// match the game's player count.
    pub fn new(
        game: GameConfig,
        strategies: Vec<Box<dyn Strategy>>,
        evaluator: Box<dyn StageEvaluator>,
    ) -> Result<Self, GameError> {
        if strategies.len() != game.player_count() {
            return Err(GameError::InvalidConfig(format!(
                "{} strategies for {} players",
                strategies.len(),
                game.player_count()
            )));
        }
        Ok(RepeatedGame { game, strategies, evaluator, history: History::new() })
    }

    /// The history so far.
    #[must_use]
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Plays one stage and returns its record.
    ///
    /// # Errors
    ///
    /// Propagates strategy or evaluator failures.
    pub fn play_stage(&mut self) -> Result<&StageRecord, GameError> {
        let windows: Vec<u32> = if self.history.is_empty() {
            self.strategies
                .iter()
                .enumerate()
                .map(|(i, s)| s.initial_window(i, &self.game))
                .collect()
        } else {
            let mut ws = Vec::with_capacity(self.strategies.len());
            for (i, s) in self.strategies.iter_mut().enumerate() {
                ws.push(s.next_window(i, &self.game, &self.history)?);
            }
            ws
        };
        let outcome = self.evaluator.evaluate(&windows)?;
        self.history.push(StageRecord {
            windows,
            observed: outcome.observed_windows,
            utilities: outcome.utilities,
        });
        Ok(self.history.last().expect("just pushed")) // PANIC-POLICY: invariant: just pushed
    }

    /// Plays `stages` stages.
    ///
    /// # Errors
    ///
    /// Propagates strategy or evaluator failures.
    pub fn play(&mut self, stages: usize) -> Result<&History, GameError> {
        for _ in 0..stages {
            self.play_stage()?;
        }
        Ok(&self.history)
    }

    /// Plays until the *played* profile has been constant and uniform for
    /// `quiet_stages` consecutive stages, or `max_stages` elapse.
    ///
    /// # Errors
    ///
    /// Propagates strategy or evaluator failures.
    pub fn play_until_converged(
        &mut self,
        max_stages: usize,
        quiet_stages: usize,
    ) -> Result<ConvergenceReport, GameError> {
        let quiet = quiet_stages.max(1);
        while self.history.len() < max_stages {
            self.play_stage()?;
            if let Some(stage) = self.history.convergence_stage() {
                if self.history.len() - stage >= quiet {
                    return Ok(ConvergenceReport {
                        converged: true,
                        stage: Some(stage),
                        window: self.history.converged_window(),
                        stages_played: self.history.len(),
                    });
                }
            }
        }
        Ok(ConvergenceReport {
            converged: false,
            stage: self.history.convergence_stage(),
            window: self.history.converged_window(),
            stages_played: self.history.len(),
        })
    }

    /// Per-player total discounted utilities over the recorded history.
    #[must_use]
    pub fn discounted_payoffs(&self) -> Vec<f64> {
        (0..self.strategies.len())
            .map(|i| self.history.discounted_utility(i, self.game.discount()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::GameError;
    use crate::evaluator::AnalyticalEvaluator;
    use crate::strategy::{BestResponse, Constant, GenerousTft, Tft};

    fn tft_players(initials: &[u32]) -> Vec<Box<dyn Strategy>> {
        initials.iter().map(|&w| Box::new(Tft::new(w)) as Box<dyn Strategy>).collect()
    }

    fn analytic_game(n: usize) -> (GameConfig, Box<dyn StageEvaluator>) {
        let game = GameConfig::builder(n).build().unwrap();
        let eval = Box::new(AnalyticalEvaluator::new(game.clone()));
        (game, eval)
    }

    #[test]
    fn tft_converges_to_min_in_one_step() {
        let (game, eval) = analytic_game(4);
        let mut rg = RepeatedGame::new(game, tft_players(&[100, 60, 150, 90]), eval).unwrap();
        rg.play(3).unwrap();
        // Stage 0: initials; stage 1 onward: everyone at min = 60.
        assert_eq!(rg.history().stages()[1].windows, vec![60; 4]);
        assert_eq!(rg.history().converged_window(), Some(60));
        assert_eq!(rg.history().convergence_stage(), Some(1));
    }

    #[test]
    fn tft_fairness_after_convergence() {
        // Paper Section IV: after convergence all players get equal payoff.
        let (game, eval) = analytic_game(3);
        let mut rg = RepeatedGame::new(game, tft_players(&[80, 120, 200]), eval).unwrap();
        rg.play(4).unwrap();
        let last = rg.history().last().unwrap();
        for u in &last.utilities {
            assert!((u - last.utilities[0]).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_defector_drags_tft_down() {
        let game = GameConfig::builder(3).build().unwrap();
        let eval = Box::new(AnalyticalEvaluator::new(game.clone()));
        let players: Vec<Box<dyn Strategy>> =
            vec![Box::new(Constant::new(10)), Box::new(Tft::new(100)), Box::new(Tft::new(100))];
        let mut rg = RepeatedGame::new(game, players, eval).unwrap();
        let report = rg.play_until_converged(10, 2).unwrap();
        assert!(report.converged);
        assert_eq!(report.window, Some(10));
    }

    #[test]
    fn gtft_ignores_its_own_aggression() {
        // All GTFT at the same initial: nobody undercuts, profile persists.
        let game = GameConfig::builder(3).build().unwrap();
        let eval = Box::new(AnalyticalEvaluator::new(game.clone()));
        let players: Vec<Box<dyn Strategy>> = (0..3)
            .map(|_| Box::new(GenerousTft::try_new(90, 3, 0.9).unwrap()) as Box<dyn Strategy>)
            .collect();
        let mut rg = RepeatedGame::new(game, players, eval).unwrap();
        let report = rg.play_until_converged(10, 3).unwrap();
        assert!(report.converged);
        assert_eq!(report.window, Some(90));
    }

    #[test]
    fn best_response_cascade_is_aggressive() {
        // All myopic best responders starting polite end far below the
        // efficient window — the short-sighted collapse dynamic.
        let game = GameConfig::builder(5).build().unwrap();
        let eval = Box::new(AnalyticalEvaluator::new(game.clone()));
        let players: Vec<Box<dyn Strategy>> =
            (0..5).map(|_| Box::new(BestResponse::new(500)) as Box<dyn Strategy>).collect();
        let mut rg = RepeatedGame::new(game, players, eval).unwrap();
        rg.play(8).unwrap();
        let final_w = rg.history().last().unwrap().windows[0];
        assert!(final_w < 40, "myopic dynamic stopped at W = {final_w}");
    }

    #[test]
    fn discounted_payoffs_positive_at_good_window() {
        let (game, eval) = analytic_game(5);
        let mut rg = RepeatedGame::new(game, tft_players(&[76; 5]), eval).unwrap();
        rg.play(5).unwrap();
        for p in rg.discounted_payoffs() {
            assert!(p > 0.0);
        }
    }

    #[test]
    fn strategy_count_must_match() {
        let (game, eval) = analytic_game(3);
        assert!(RepeatedGame::new(game, tft_players(&[10, 20]), eval).is_err());
    }

    /// Evaluator that fails on a chosen stage — failure injection for the
    /// driver's error path.
    struct FlakyEvaluator {
        inner: AnalyticalEvaluator,
        fail_on_call: usize,
        calls: usize,
    }

    impl StageEvaluator for FlakyEvaluator {
        fn evaluate(
            &mut self,
            windows: &[u32],
        ) -> Result<crate::evaluator::StageOutcome, GameError> {
            self.calls += 1;
            if self.calls == self.fail_on_call {
                return Err(GameError::InvalidConfig("injected failure".into()));
            }
            self.inner.evaluate(windows)
        }
    }

    #[test]
    fn evaluator_failure_propagates_and_preserves_history() {
        let game = GameConfig::builder(3).build().unwrap();
        let flaky = FlakyEvaluator {
            inner: AnalyticalEvaluator::new(game.clone()),
            fail_on_call: 3,
            calls: 0,
        };
        let mut rg = RepeatedGame::new(game, tft_players(&[50, 60, 70]), Box::new(flaky)).unwrap();
        rg.play(2).unwrap();
        assert_eq!(rg.history().len(), 2);
        // The third stage fails; the error surfaces and no partial record
        // is appended.
        let err = rg.play_stage().unwrap_err();
        assert!(matches!(err, GameError::InvalidConfig(_)));
        assert_eq!(rg.history().len(), 2);
        // The driver remains usable afterwards.
        rg.play_stage().unwrap();
        assert_eq!(rg.history().len(), 3);
    }

    #[test]
    fn play_until_converged_surfaces_midway_failure() {
        let game = GameConfig::builder(2).build().unwrap();
        let flaky = FlakyEvaluator {
            inner: AnalyticalEvaluator::new(game.clone()),
            fail_on_call: 2,
            calls: 0,
        };
        let mut rg = RepeatedGame::new(game, tft_players(&[40, 90]), Box::new(flaky)).unwrap();
        assert!(rg.play_until_converged(10, 3).is_err());
        assert_eq!(rg.history().len(), 1);
    }

    #[test]
    fn max_stages_bound_respected() {
        let game = GameConfig::builder(2).build().unwrap();
        let eval = Box::new(AnalyticalEvaluator::new(game.clone()));
        // Two constants at different windows never "converge" to uniform.
        let players: Vec<Box<dyn Strategy>> =
            vec![Box::new(Constant::new(10)), Box::new(Constant::new(90))];
        let mut rg = RepeatedGame::new(game, players, eval).unwrap();
        let report = rg.play_until_converged(6, 2).unwrap();
        assert!(!report.converged);
        assert_eq!(report.stages_played, 6);
    }
}
