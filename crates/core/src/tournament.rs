//! Axelrod-style strategy tournaments on the MAC game.
//!
//! The paper leans on TFT's reputation as "the best strategy in
//! non-cooperative environments". This module makes that claim testable in
//! *this* game: entrants play pairwise repeated MAC games (round robin,
//! self-play included, as in Axelrod's tournaments) or one mixed-population
//! game, and are ranked by total discounted payoff.

use macgame_dcf::parallel;
use macgame_telemetry as telemetry;
use serde::{Deserialize, Serialize};

use crate::error::GameError;
use crate::evaluator::AnalyticalEvaluator;
use crate::game::GameConfig;
use crate::repeated::RepeatedGame;
use crate::strategy::Strategy;

/// A named strategy entrant; the factory builds a fresh (stateless-start)
/// strategy instance per match. `Send + Sync` so tournaments can play
/// matches on worker threads (each match instantiates and uses its
/// strategies on one thread).
pub struct Entrant {
    name: String,
    factory: Box<dyn Fn() -> Box<dyn Strategy> + Send + Sync>,
}

impl Entrant {
    /// Creates an entrant.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        factory: impl Fn() -> Box<dyn Strategy> + Send + Sync + 'static,
    ) -> Self {
        Entrant { name: name.into(), factory: Box::new(factory) }
    }

    /// The entrant's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instantiates a fresh strategy for one match.
    #[must_use]
    pub fn build(&self) -> Box<dyn Strategy> {
        (self.factory)()
    }
}

impl core::fmt::Debug for Entrant {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Entrant").field("name", &self.name).finish_non_exhaustive()
    }
}

/// Results of a round-robin tournament.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TournamentResult {
    /// Entrant names, indexing the score matrix.
    pub names: Vec<String>,
    /// `scores[i][j]`: entrant `i`'s discounted payoff when playing
    /// against entrant `j` (row player's score, including `i == j`
    /// self-play).
    pub scores: Vec<Vec<f64>>,
    /// Stages played per match.
    pub stages: usize,
}

impl TournamentResult {
    /// Total score of entrant `i` across all its matches.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn total(&self, i: usize) -> f64 {
        self.scores[i].iter().sum()
    }

    /// Entrants ranked by total score, best first.
    #[must_use]
    pub fn ranking(&self) -> Vec<(String, f64)> {
        let mut order: Vec<(String, f64)> =
            self.names.iter().enumerate().map(|(i, n)| (n.clone(), self.total(i))).collect();
        order.sort_by(|a, b| b.1.total_cmp(&a.1));
        order
    }
}

/// Runs a pairwise round robin: every ordered pair of entrants (self-play
/// included) plays a 2-player repeated MAC game for `stages` stages on the
/// analytical evaluator.
///
/// Matches are independent, so they are fanned out over the
/// `MACGAME_THREADS` worker pool (each match builds its own strategies,
/// evaluator and engine); scores land in the matrix in pair order, so the
/// result is identical for every thread count.
///
/// # Errors
///
/// Returns [`GameError::InvalidConfig`] for an empty field; propagates
/// engine failures.
pub fn round_robin(
    entrants: &[Entrant],
    template: &GameConfig,
    stages: usize,
) -> Result<TournamentResult, GameError> {
    if entrants.is_empty() {
        return Err(GameError::InvalidConfig("need at least one entrant".into()));
    }
    let game = GameConfig::builder(2)
        .params(*template.params())
        .utility(*template.utility())
        .stage_duration(template.stage_duration())
        .discount(template.discount())
        .w_max(template.w_max())
        .build()?;
    let n = entrants.len();
    let pairs: Vec<(usize, usize)> = (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).collect();
    telemetry::counter("core.tournament.matches", pairs.len() as u64);
    let _span = telemetry::span("core.tournament.round_robin");
    let played: Vec<Result<f64, GameError>> = parallel::map(&pairs, 0, |&(i, j)| {
        let players: Vec<Box<dyn Strategy>> =
            vec![(entrants[i].factory)(), (entrants[j].factory)()];
        let evaluator = Box::new(AnalyticalEvaluator::new(game.clone()));
        let mut rg = RepeatedGame::new(game.clone(), players, evaluator)?;
        rg.play(stages)?;
        Ok(rg.discounted_payoffs()[0])
    });
    let mut scores = vec![vec![0.0; n]; n];
    for (k, score) in played.into_iter().enumerate() {
        scores[k / n][k % n] = score?;
    }
    Ok(TournamentResult {
        names: entrants.iter().map(|e| e.name.clone()).collect(),
        scores,
        stages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::efficient_ne;
    use crate::strategy::{Constant, GenerousTft, Tft};

    fn template() -> GameConfig {
        GameConfig::builder(2).discount(0.999).build().unwrap()
    }

    fn field(w_star: u32) -> Vec<Entrant> {
        vec![
            Entrant::new("tft", move || Box::new(Tft::new(w_star))),
            Entrant::new("gtft", move || {
                Box::new(GenerousTft::try_new(w_star, 2, 0.9).expect("valid GTFT parameters"))
            }),
            Entrant::new("aggressor", move || Box::new(Constant::new((w_star / 4).max(1)))),
            Entrant::new("compliant", move || Box::new(Constant::new(w_star))),
        ]
    }

    #[test]
    fn tft_self_play_beats_aggressor_self_play() {
        let t = template();
        let two = GameConfig::builder(2).build().unwrap();
        let w_star = efficient_ne(&two).unwrap().window;
        let result = round_robin(&field(w_star), &t, 30).unwrap();
        let idx = |name: &str| result.names.iter().position(|n| n == name).unwrap();
        let tft = idx("tft");
        let agg = idx("aggressor");
        assert!(
            result.scores[tft][tft] > result.scores[agg][agg],
            "cooperative self-play must dominate mutual aggression"
        );
    }

    #[test]
    fn reciprocators_win_among_reciprocators() {
        // Axelrod's condition: in a field of *conditional* cooperators,
        // the reciprocal strategies outrank the unconditional aggressor —
        // every exploitation attempt is punished for the rest of the match.
        let t = template();
        let two = GameConfig::builder(2).build().unwrap();
        let w_star = efficient_ne(&two).unwrap().window;
        let field: Vec<Entrant> = vec![
            Entrant::new("tft", move || Box::new(Tft::new(w_star))),
            Entrant::new("gtft", move || {
                Box::new(GenerousTft::try_new(w_star, 2, 0.9).expect("valid GTFT parameters"))
            }),
            Entrant::new("aggressor", move || Box::new(Constant::new((w_star / 8).max(1)))),
        ];
        let result = round_robin(&field, &t, 30).unwrap();
        let ranking = result.ranking();
        let rank_of = |name: &str| ranking.iter().position(|(n, _)| n == name).unwrap();
        assert!(rank_of("tft") < rank_of("aggressor"), "ranking was {ranking:?}");
        assert!(rank_of("gtft") < rank_of("aggressor"), "ranking was {ranking:?}");
    }

    #[test]
    fn a_sucker_in_the_field_can_hand_the_tournament_to_the_aggressor() {
        // The flip side — and a genuine property of this game's flat payoff
        // curve: punishment costs the aggressor little, so one unconditional
        // cooperator to feast on can carry it to the top of the table. TFT
        // protects *its own* payoff, not the ranking.
        let t = template();
        let two = GameConfig::builder(2).build().unwrap();
        let w_star = efficient_ne(&two).unwrap().window;
        let result = round_robin(&field(w_star), &t, 30).unwrap();
        let idx = |name: &str| result.names.iter().position(|n| n == name).unwrap();
        // The aggressor's biggest single score is against the sucker.
        let agg = idx("aggressor");
        let best_prey =
            result.scores[agg].iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        assert_eq!(best_prey, idx("compliant"));
    }

    #[test]
    fn aggressor_exploits_unconditional_compliance() {
        // Head-to-head, the aggressor beats a strategy that never punishes
        // — exactly why reciprocity (not politeness) sustains the NE.
        let t = template();
        let two = GameConfig::builder(2).build().unwrap();
        let w_star = efficient_ne(&two).unwrap().window;
        let result = round_robin(&field(w_star), &t, 30).unwrap();
        let idx = |name: &str| result.names.iter().position(|n| n == name).unwrap();
        let agg = idx("aggressor");
        let comp = idx("compliant");
        assert!(result.scores[agg][comp] > result.scores[comp][agg]);
    }

    #[test]
    fn empty_field_rejected() {
        assert!(round_robin(&[], &template(), 5).is_err());
    }
}
