//! Player strategies for the repeated MAC game.
//!
//! The paper's central strategy is TIT-FOR-TAT (Section IV): cooperate in
//! the first stage, then match the most aggressive observed behaviour,
//! `W_i^k = min_j Ŵ_j^{k−1}`. Its measurement-tolerant variant Generous
//! TFT averages over the last `r₀` stages and only reacts when some player
//! undercuts by more than the tolerance `β`. Constant (compliant, greedy or
//! malicious) and myopic best-response strategies complete the roster used
//! by the experiments.

use macgame_dcf::fixedpoint::{solve, SolveOptions};
use macgame_dcf::utility::node_utility;

use crate::error::GameError;
use crate::game::GameConfig;
use crate::history::History;

/// A (possibly stateful) strategy for one player of the repeated game.
pub trait Strategy {
    /// The window to play in stage 0, before any observation exists.
    fn initial_window(&self, player: usize, game: &GameConfig) -> u32;

    /// The window to play next, given the full history so far
    /// (`history.last()` is stage `k−1`).
    ///
    /// # Errors
    ///
    /// Strategies that consult the analytical model (e.g. best response)
    /// can surface [`GameError`]; pure bookkeeping strategies never fail.
    fn next_window(
        &mut self,
        player: usize,
        game: &GameConfig,
        history: &History,
    ) -> Result<u32, GameError>;

    /// Human-readable strategy name for reports.
    fn name(&self) -> &'static str;
}

/// TIT-FOR-TAT: start from `initial`, then play the minimum observed window
/// of the previous stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tft {
    initial: u32,
}

impl Tft {
    /// TFT starting from the (cooperative) window `initial`.
    #[must_use]
    pub fn new(initial: u32) -> Self {
        Tft { initial }
    }
}

impl Strategy for Tft {
    fn initial_window(&self, _player: usize, game: &GameConfig) -> u32 {
        self.initial.clamp(1, game.w_max())
    }

    fn next_window(
        &mut self,
        _player: usize,
        game: &GameConfig,
        history: &History,
    ) -> Result<u32, GameError> {
        let last = history
            .last()
            .ok_or_else(|| GameError::InvalidConfig("next_window before stage 0".into()))?;
        let min = last.observed.iter().copied().min().unwrap_or(self.initial);
        Ok(min.clamp(1, game.w_max()))
    }

    fn name(&self) -> &'static str {
        "tft"
    }
}

/// Generous TIT-FOR-TAT (paper Section IV): averages observations over the
/// last `r₀` stages and only drops to the minimum when some player's
/// average window undercuts `β`× one's own average.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerousTft {
    initial: u32,
    window_count: usize,
    tolerance: f64,
}

impl GenerousTft {
    /// GTFT with memory `r0 ≥ 1` and tolerance `β ∈ (0, 1]` (β close to 1
    /// is least tolerant; lowering β or raising `r0` forgives more noise).
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidConfig`] if `r0 == 0` or `β` is outside
    /// `(0, 1]`.
    pub fn try_new(initial: u32, r0: usize, beta: f64) -> Result<Self, GameError> {
        if r0 == 0 {
            return Err(GameError::InvalidConfig(
                "GTFT needs at least one stage of memory (r0 ≥ 1)".into(),
            ));
        }
        if !(beta > 0.0 && beta <= 1.0) {
            return Err(GameError::InvalidConfig(format!(
                "tolerance β must be in (0, 1], got {beta}"
            )));
        }
        Ok(GenerousTft { initial, window_count: r0, tolerance: beta })
    }
}

impl Strategy for GenerousTft {
    fn initial_window(&self, _player: usize, game: &GameConfig) -> u32 {
        self.initial.clamp(1, game.w_max())
    }

    fn next_window(
        &mut self,
        player: usize,
        game: &GameConfig,
        history: &History,
    ) -> Result<u32, GameError> {
        let recent = history.recent(self.window_count);
        let last = history
            .last()
            .ok_or_else(|| GameError::InvalidConfig("next_window before stage 0".into()))?;
        let n = last.observed.len();
        let avg = |j: usize| -> f64 {
            recent.iter().map(|s| f64::from(s.observed[j])).sum::<f64>() / recent.len() as f64
        };
        let my_avg = avg(player);
        let someone_undercuts = (0..n).any(|j| j != player && avg(j) < self.tolerance * my_avg);
        let next = if someone_undercuts {
            last.observed.iter().copied().min().unwrap_or(self.initial)
        } else {
            last.windows[player]
        };
        Ok(next.clamp(1, game.w_max()))
    }

    fn name(&self) -> &'static str {
        "generous-tft"
    }
}

/// Plays a fixed window forever. Doubles as the *short-sighted deviator*
/// (a small fixed `W_s`, Section V.D) and the *malicious player*
/// (`W` near 1, Section V.E).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Constant {
    window: u32,
}

impl Constant {
    /// A player pinned at `window`.
    #[must_use]
    pub fn new(window: u32) -> Self {
        Constant { window }
    }
}

impl Strategy for Constant {
    fn initial_window(&self, _player: usize, game: &GameConfig) -> u32 {
        self.window.clamp(1, game.w_max())
    }

    fn next_window(
        &mut self,
        _player: usize,
        game: &GameConfig,
        _history: &History,
    ) -> Result<u32, GameError> {
        Ok(self.window.clamp(1, game.w_max()))
    }

    fn name(&self) -> &'static str {
        "constant"
    }
}

/// Myopic best response: each stage, picks the window maximizing the
/// player's *next-stage* utility against the last observed profile of the
/// others (assuming they repeat it). The classic short-sighted dynamic that
/// drives CSMA/CA games to collapse when unopposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BestResponse {
    initial: u32,
}

impl BestResponse {
    /// Best response starting from `initial` in stage 0.
    #[must_use]
    pub fn new(initial: u32) -> Self {
        BestResponse { initial }
    }
}

impl BestResponse {
    fn utility_against(
        player: usize,
        my_window: u32,
        observed: &[u32],
        game: &GameConfig,
    ) -> Result<f64, GameError> {
        let mut profile = observed.to_vec();
        profile[player] = my_window;
        let eq = solve(&profile, game.params(), SolveOptions::default())?;
        Ok(node_utility(player, &eq.taus, &eq.collision_probs, game.params(), game.utility()))
    }
}

impl Strategy for BestResponse {
    fn initial_window(&self, _player: usize, game: &GameConfig) -> u32 {
        self.initial.clamp(1, game.w_max())
    }

    fn next_window(
        &mut self,
        player: usize,
        game: &GameConfig,
        history: &History,
    ) -> Result<u32, GameError> {
        let last = history
            .last()
            .ok_or_else(|| GameError::InvalidConfig("next_window before stage 0".into()))?;
        // The stage best response is unimodal in W; bracket exponentially,
        // then ternary-search with a local sweep (same shape as the
        // efficient-CW search in macgame_dcf).
        let u_at = |w: u32| Self::utility_against(player, w, &last.observed, game);
        let w_max = game.w_max();
        let mut hi = 2u32;
        let mut prev = u_at(1)?;
        while hi <= w_max {
            let cur = u_at(hi)?;
            if cur < prev {
                break;
            }
            prev = cur;
            hi = hi.saturating_mul(2);
        }
        let (mut lo, mut hi) = (1u32, hi.min(w_max));
        while hi - lo > 8 {
            let m1 = lo + (hi - lo) / 3;
            let m2 = hi - (hi - lo) / 3;
            if u_at(m1)? < u_at(m2)? {
                lo = m1 + 1;
            } else {
                hi = m2 - 1;
            }
        }
        let mut best = (lo, f64::NEG_INFINITY);
        for w in lo.saturating_sub(4).max(1)..=(hi + 4).min(w_max) {
            let u = u_at(w)?;
            if u > best.1 {
                best = (w, u);
            }
        }
        Ok(best.0)
    }

    fn name(&self) -> &'static str {
        "best-response"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::StageRecord;

    fn game(n: usize) -> GameConfig {
        GameConfig::builder(n).build().unwrap()
    }

    fn record(observed: Vec<u32>) -> StageRecord {
        let n = observed.len();
        StageRecord { windows: observed.clone(), observed, utilities: vec![0.0; n] }
    }

    #[test]
    fn tft_matches_minimum() {
        let mut tft = Tft::new(100);
        let g = game(3);
        assert_eq!(tft.initial_window(0, &g), 100);
        let mut h = History::new();
        h.push(record(vec![100, 40, 80]));
        assert_eq!(tft.next_window(0, &g, &h).unwrap(), 40);
    }

    #[test]
    fn tft_errors_without_history() {
        let mut tft = Tft::new(100);
        assert!(tft.next_window(0, &game(2), &History::new()).is_err());
    }

    #[test]
    fn tft_clamps_to_strategy_space() {
        let g = GameConfig::builder(2).w_max(64).build().unwrap();
        let tft = Tft::new(1000);
        assert_eq!(tft.initial_window(0, &g), 64);
    }

    #[test]
    fn gtft_tolerates_small_undercuts() {
        // β = 0.9: an observed 95 against my 100 is within tolerance.
        let mut gtft = GenerousTft::try_new(100, 2, 0.9).unwrap();
        let g = game(2);
        let mut h = History::new();
        h.push(record(vec![100, 95]));
        assert_eq!(gtft.next_window(0, &g, &h).unwrap(), 100);
    }

    #[test]
    fn gtft_reacts_to_large_undercuts() {
        let mut gtft = GenerousTft::try_new(100, 2, 0.9).unwrap();
        let g = game(2);
        let mut h = History::new();
        h.push(record(vec![100, 50]));
        assert_eq!(gtft.next_window(0, &g, &h).unwrap(), 50);
    }

    #[test]
    fn gtft_averages_over_memory() {
        // One noisy stage at 70 averaged with 110 gives 90 ≥ β·100: forgive.
        let mut gtft = GenerousTft::try_new(100, 2, 0.9).unwrap();
        let g = game(2);
        let mut h = History::new();
        h.push(record(vec![100, 110]));
        h.push(record(vec![100, 70]));
        assert_eq!(gtft.next_window(0, &g, &h).unwrap(), 100);
    }

    #[test]
    fn gtft_try_new_rejects_invalid_parameters() {
        assert!(GenerousTft::try_new(100, 0, 0.9).is_err());
        assert!(GenerousTft::try_new(100, 1, 0.0).is_err());
        assert!(GenerousTft::try_new(100, 1, 1.5).is_err());
        assert!(GenerousTft::try_new(100, 1, f64::NAN).is_err());
        assert!(GenerousTft::try_new(100, 1, 1.0).is_ok());
    }

    #[test]
    fn constant_never_moves() {
        let mut c = Constant::new(7);
        let g = game(2);
        let mut h = History::new();
        h.push(record(vec![7, 1]));
        assert_eq!(c.next_window(0, &g, &h).unwrap(), 7);
    }

    #[test]
    fn best_response_exploits_polite_opponents() {
        // Against very polite opponents, the myopic best response is far
        // more aggressive than the efficient NE window.
        let g = game(5);
        let mut br = BestResponse::new(76);
        let mut h = History::new();
        h.push(record(vec![512; 5]));
        let w = br.next_window(0, &g, &h).unwrap();
        assert!(w < 76, "best response {w} should undercut");
    }

    #[test]
    fn best_response_joins_pileup_when_attempts_still_pay() {
        // Against W = 1 opponents, as long as (1−p)·g > e each attempt is
        // still positive in expectation, so the myopic best response piles
        // on — exactly the collapse dynamic of short-sighted play.
        let g = game(5);
        let mut br = BestResponse::new(76);
        let mut h = History::new();
        h.push(record(vec![1; 5]));
        let w = br.next_window(0, &g, &h).unwrap();
        assert!(w <= 2, "best response was {w}");
    }

    #[test]
    fn best_response_backs_off_when_attempts_lose_money() {
        // With a high energy cost, (1−p)·g < e in the pile-up: the myopic
        // best response now avoids the fray by maximizing its window.
        let g = GameConfig::builder(5)
            .utility(macgame_dcf::UtilityParams { gain: 1.0, cost: 0.5 })
            .build()
            .unwrap();
        let mut br = BestResponse::new(76);
        let mut h = History::new();
        h.push(record(vec![1; 5]));
        let w = br.next_window(0, &g, &h).unwrap();
        assert!(w > 100, "best response was {w}");
    }

    #[test]
    fn strategy_names() {
        assert_eq!(Tft::new(1).name(), "tft");
        assert_eq!(GenerousTft::try_new(1, 1, 0.5).unwrap().name(), "generous-tft");
        assert_eq!(Constant::new(1).name(), "constant");
        assert_eq!(BestResponse::new(1).name(), "best-response");
    }
}
