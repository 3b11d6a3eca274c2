//! The non-cooperative IEEE 802.11 MAC game `G = (P, S, U, δ)`
//! (paper Definition 1).
//!
//! * Players `P = {1, …, n}`: the saturated nodes of a single-hop network.
//! * Strategy space `S = ×_i {1, …, W_max}`: each player picks its initial
//!   contention window each stage.
//! * Utilities `U_i = Σ_k δ^k·U_i^s(W^k)` with stage utility
//!   `U_i^s(W^k) = u_i(W^k)·T`.
//! * Discount factor `δ` close to 1 (long-sighted players).

use macgame_dcf::{DcfParams, MicroSecs, UtilityParams};
use serde::{Deserialize, Serialize};

use crate::error::GameError;

/// Full configuration of the repeated MAC game.
///
/// # Examples
///
/// ```
/// use macgame_core::GameConfig;
///
/// // Table I defaults: n must be chosen; everything else has paper values.
/// let game = GameConfig::builder(5).build()?;
/// assert_eq!(game.player_count(), 5);
/// assert!((game.discount() - 0.9999).abs() < 1e-12);
/// # Ok::<(), macgame_core::GameError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GameConfig {
    players: usize,
    params: DcfParams,
    utility: UtilityParams,
    stage_duration: MicroSecs,
    discount: f64,
    w_max: u32,
}

impl GameConfig {
    /// Starts a builder for a game with `players` players and Table I
    /// parameter defaults (`T = 10 s`, `δ = 0.9999`, `W_max = 4096`).
    #[must_use]
    pub fn builder(players: usize) -> GameConfigBuilder {
        GameConfigBuilder {
            config: GameConfig {
                players,
                params: DcfParams::default(),
                utility: UtilityParams::default(),
                stage_duration: MicroSecs::from_seconds(10.0),
                discount: 0.9999,
                w_max: macgame_dcf::optimal::DEFAULT_W_MAX,
            },
        }
    }

    /// Number of players `n`.
    #[must_use]
    pub fn player_count(&self) -> usize {
        self.players
    }

    /// Protocol parameters.
    #[must_use]
    pub fn params(&self) -> &DcfParams {
        &self.params
    }

    /// Utility (gain/cost) parameters.
    #[must_use]
    pub fn utility(&self) -> &UtilityParams {
        &self.utility
    }

    /// Stage duration `T`.
    #[must_use]
    pub fn stage_duration(&self) -> MicroSecs {
        self.stage_duration
    }

    /// Discount factor `δ`.
    #[must_use]
    pub fn discount(&self) -> f64 {
        self.discount
    }

    /// Upper bound of the strategy space `W = {1, …, W_max}`.
    #[must_use]
    pub fn w_max(&self) -> u32 {
        self.w_max
    }

    /// Stage utility `U_i^s = u_i·T` from a per-microsecond utility.
    #[must_use]
    pub fn stage_utility(&self, per_microsec: f64) -> f64 {
        macgame_dcf::utility::stage_utility(per_microsec, self.stage_duration)
    }
}

/// Builder for [`GameConfig`].
#[derive(Debug, Clone)]
pub struct GameConfigBuilder {
    config: GameConfig,
}

impl GameConfigBuilder {
    /// Sets the protocol parameters.
    pub fn params(&mut self, params: DcfParams) -> &mut Self {
        self.config.params = params;
        self
    }

    /// Sets the utility parameters.
    pub fn utility(&mut self, utility: UtilityParams) -> &mut Self {
        self.config.utility = utility;
        self
    }

    /// Sets the stage duration `T`.
    pub fn stage_duration(&mut self, t: MicroSecs) -> &mut Self {
        self.config.stage_duration = t;
        self
    }

    /// Sets the discount factor `δ`.
    pub fn discount(&mut self, delta: f64) -> &mut Self {
        self.config.discount = delta;
        self
    }

    /// Sets the strategy-space bound `W_max`.
    pub fn w_max(&mut self, w_max: u32) -> &mut Self {
        self.config.w_max = w_max;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidConfig`] if there are no players or more
    /// than `i32::MAX` (the exponent of the model's `(1−τ)^{n−1}`), the
    /// discount factor is outside `[0, 1)`, the strategy space is empty, or
    /// the stage duration is zero.
    pub fn build(&self) -> Result<GameConfig, GameError> {
        let c = &self.config;
        if c.players == 0 {
            return Err(GameError::InvalidConfig("need at least one player".into()));
        }
        if i32::try_from(c.players).is_err() {
            return Err(GameError::InvalidConfig("at most 2147483647 players".into()));
        }
        if !(0.0..1.0).contains(&c.discount) {
            return Err(GameError::InvalidConfig("discount factor must be in [0, 1)".into()));
        }
        if c.w_max == 0 {
            return Err(GameError::InvalidConfig("strategy space must be non-empty".into()));
        }
        if c.stage_duration.value() <= 0.0 {
            return Err(GameError::InvalidConfig("stage duration must be positive".into()));
        }
        Ok(c.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_paper_defaults() {
        let g = GameConfig::builder(20).build().unwrap();
        assert_eq!(g.player_count(), 20);
        assert_eq!(g.stage_duration(), MicroSecs::from_seconds(10.0));
        assert_eq!(g.discount(), 0.9999);
        assert_eq!(g.w_max(), 4096);
    }

    #[test]
    fn stage_utility_helper() {
        let g = GameConfig::builder(5).build().unwrap();
        let u = 1e-5;
        assert!((g.stage_utility(u) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn builder_validation() {
        assert!(GameConfig::builder(0).build().is_err());
        assert!(GameConfig::builder(5).discount(1.0).build().is_err());
        assert!(GameConfig::builder(5).discount(-0.1).build().is_err());
        assert!(GameConfig::builder(5).w_max(0).build().is_err());
        assert!(GameConfig::builder(5).stage_duration(MicroSecs::ZERO).build().is_err());
    }
}
