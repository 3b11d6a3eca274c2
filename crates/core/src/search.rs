//! The distributed search algorithm for the efficient NE
//! (paper Section V.C).
//!
//! When players do not know `n`, they cannot compute `W_c*` directly. The
//! paper's protocol: a leader `l` broadcasts `Start-Search` with a starting
//! window `W₀`; it then walks right (incrementing `W`, broadcasting `Ready`
//! so everyone follows, and measuring its own payoff
//! `U_l = (n_s·g − n_e·e)/t_m`) while the payoff improves, or walks left if
//! the very first right step already hurt; finally it broadcasts the best
//! window found. Since all players share the common payoff curve, the
//! leader's hill-climb finds `W_c*` for everyone.
//!
//! [`PayoffProbe`] abstracts the measurement: [`AnalyticProbe`] uses exact
//! model utilities; [`SimulatedProbe`] measures on the slot simulator,
//! giving the noisy regime the optional `min_improvement` margin exists
//! for. The module also prices the Remark's *lying broadcaster* scenarios.

use macgame_dcf::MicroSecs;
use macgame_sim::{Engine, SimConfig};
use macgame_telemetry as telemetry;
use serde::{Deserialize, Serialize};

use crate::deviation::{deviator_stage, discount_split, symmetric_stage};
use crate::error::GameError;
use crate::game::GameConfig;

/// Measures the leader's payoff when the whole network operates on a
/// common window `w`.
pub trait PayoffProbe {
    /// Measured payoff rate (per µs) of the leader at symmetric `w`.
    ///
    /// # Errors
    ///
    /// Implementations surface [`GameError`] on model/simulator failures.
    fn measure(&mut self, w: u32) -> Result<f64, GameError>;
}

/// Exact symmetric utility from the analytical model.
#[derive(Debug, Clone)]
pub struct AnalyticProbe {
    game: GameConfig,
}

impl AnalyticProbe {
    /// Creates a probe for `game`.
    #[must_use]
    pub fn new(game: GameConfig) -> Self {
        AnalyticProbe { game }
    }
}

impl PayoffProbe for AnalyticProbe {
    fn measure(&mut self, w: u32) -> Result<f64, GameError> {
        symmetric_stage(&self.game, w)
    }
}

/// Noisy payoff measurement on the slot-level simulator: sets every node to
/// `w`, runs for `measure_duration` (the paper's `t_m`) and reports the
/// leader's `(n_s·g − n_e·e)/t_m`.
#[derive(Debug)]
pub struct SimulatedProbe {
    game: GameConfig,
    engine: Engine,
    measure_duration: MicroSecs,
}

impl SimulatedProbe {
    /// Creates a probe measuring over `measure_duration` per step.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::Sim`] if the simulator rejects the config.
    pub fn new(
        game: GameConfig,
        seed: u64,
        measure_duration: MicroSecs,
    ) -> Result<Self, GameError> {
        let config = SimConfig::builder()
            .params(*game.params())
            .utility(*game.utility())
            .symmetric(game.player_count(), game.w_max())
            .seed(seed)
            .build()?;
        Ok(SimulatedProbe { game, engine: Engine::new(&config), measure_duration })
    }
}

impl PayoffProbe for SimulatedProbe {
    fn measure(&mut self, w: u32) -> Result<f64, GameError> {
        let n = self.game.player_count();
        self.engine.set_windows(&vec![w; n])?;
        // The paper's short settling period t before measuring.
        let _ = self.engine.run_for(self.measure_duration * 0.1);
        let report = self.engine.run_for(self.measure_duration);
        Ok(report.payoff_rate(0, self.game.utility()))
    }
}

/// Protocol messages of the search (kept in the outcome as a trace).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SearchMessage {
    /// Leader announces the search and the starting window.
    StartSearch {
        /// The starting window `W₀`.
        w0: u32,
    },
    /// Leader instructs everyone to move to `w` for the next measurement.
    Ready {
        /// The window to adopt.
        w: u32,
    },
    /// Leader broadcasts the found efficient window.
    Broadcast {
        /// The window all players should adopt.
        w_m: u32,
    },
}

/// Which direction the hill-climb ended up walking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchDirection {
    /// Payoff improved to the right of `W₀`.
    Right,
    /// The first right step hurt; the search walked left.
    Left,
    /// `W₀` itself was the maximum (neither direction improved).
    Stationary,
}

/// Outcome of a search run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// The window the leader broadcasts as the efficient NE.
    pub w_m: u32,
    /// Direction the search walked.
    pub direction: SearchDirection,
    /// Every `(window, measured payoff)` sample, in measurement order.
    pub trace: Vec<(u32, f64)>,
    /// The message log of the protocol round.
    pub messages: Vec<SearchMessage>,
}

/// Runs the Section V.C search from `w0`.
///
/// `min_improvement` is the relative margin a step must clear to count as
/// "greater than the last measured payoff" — 0 for exact probes; a few
/// percent for noisy simulated probes.
///
/// # Examples
///
/// ```
/// use macgame_core::search::{run_search, AnalyticProbe};
/// use macgame_core::{efficient_ne, GameConfig};
///
/// let game = GameConfig::builder(5).build()?;
/// let mut probe = AnalyticProbe::new(game.clone());
/// let outcome = run_search(&mut probe, &game, 40, 0.0)?;
/// assert_eq!(outcome.w_m, efficient_ne(&game)?.window);
/// # Ok::<(), macgame_core::GameError>(())
/// ```
///
/// # Errors
///
/// Returns [`GameError::InvalidConfig`] if `w0` is outside the strategy
/// space, or probe failures.
pub fn run_search(
    probe: &mut dyn PayoffProbe,
    game: &GameConfig,
    w0: u32,
    min_improvement: f64,
) -> Result<SearchOutcome, GameError> {
    if w0 == 0 || w0 > game.w_max() {
        return Err(GameError::InvalidConfig(format!(
            "starting window {w0} outside strategy space [1, {}]",
            game.w_max()
        )));
    }
    let improves = |new: f64, old: f64| new > old + min_improvement * old.abs();
    let mut messages = vec![SearchMessage::StartSearch { w0 }];
    let mut trace = Vec::new();
    let mut current = w0;
    let mut best_payoff = probe.measure(current)?;
    trace.push((current, best_payoff));

    // Right-Search.
    let mut moved_right = false;
    while current < game.w_max() {
        let w = current + 1;
        messages.push(SearchMessage::Ready { w });
        let payoff = probe.measure(w)?;
        trace.push((w, payoff));
        if improves(payoff, best_payoff) {
            current = w;
            best_payoff = payoff;
            moved_right = true;
        } else {
            break;
        }
    }

    // Left-Search, only if the first right step already decreased.
    let mut moved_left = false;
    if !moved_right {
        while current > 1 {
            let w = current - 1;
            messages.push(SearchMessage::Ready { w });
            let payoff = probe.measure(w)?;
            trace.push((w, payoff));
            if improves(payoff, best_payoff) {
                current = w;
                best_payoff = payoff;
                moved_left = true;
            } else {
                break;
            }
        }
    }

    messages.push(SearchMessage::Broadcast { w_m: current });
    let direction = if moved_right {
        SearchDirection::Right
    } else if moved_left {
        SearchDirection::Left
    } else {
        SearchDirection::Stationary
    };
    telemetry::counter("core.search.runs", 1);
    telemetry::counter("core.search.measurements", trace.len() as u64);
    Ok(SearchOutcome { w_m: current, direction, trace, messages })
}

/// Pricing of the Remark's lying broadcaster: the leader knows `W_c*` but
/// broadcasts `w_lie`, itself operating on `w_self`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LyingOutcome {
    /// The broadcast (followed by everyone else).
    pub w_lie: u32,
    /// What the liar actually plays until TFT convergence.
    pub w_self: u32,
    /// The liar's total discounted payoff.
    pub liar_payoff: f64,
    /// The payoff it would get by broadcasting and playing `W_c*`.
    pub honest_payoff: f64,
}

impl LyingOutcome {
    /// Whether lying pays.
    #[must_use]
    pub fn lying_pays(&self) -> bool {
        self.liar_payoff > self.honest_payoff
    }
}

/// Evaluates the lying-broadcast scenario: others adopt `w_lie`, the liar
/// plays `w_self` for `reaction_stages` stages, after which TFT pulls the
/// whole network to `min(w_lie, w_self)`.
///
/// # Errors
///
/// Returns [`GameError::InvalidConfig`] for a `reaction_stages` above
/// `i32::MAX`; propagates solver failures.
pub fn lying_broadcast(
    game: &GameConfig,
    w_star: u32,
    w_lie: u32,
    w_self: u32,
    reaction_stages: u32,
) -> Result<LyingOutcome, GameError> {
    let t = game.stage_duration().value();
    let delta = game.discount();
    let (head, tail) = discount_split(delta, reaction_stages)?;

    let during = if w_lie == w_self {
        symmetric_stage(game, w_lie)?
    } else {
        deviator_stage(game, w_lie, w_self)?.deviator
    };
    let converged = symmetric_stage(game, w_lie.min(w_self))?;
    let liar_payoff = t * (head * during + tail * converged);
    let honest_payoff = t * symmetric_stage(game, w_star)? / (1.0 - delta);
    Ok(LyingOutcome { w_lie, w_self, liar_payoff, honest_payoff })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::efficient_ne;

    fn game(n: usize) -> GameConfig {
        GameConfig::builder(n).build().unwrap()
    }

    #[test]
    fn analytic_search_finds_w_star_from_below() {
        let g = game(5);
        let target = efficient_ne(&g).unwrap().window;
        let mut probe = AnalyticProbe::new(g.clone());
        let outcome = run_search(&mut probe, &g, 20, 0.0).unwrap();
        assert_eq!(outcome.w_m, target);
        assert_eq!(outcome.direction, SearchDirection::Right);
        assert!(matches!(outcome.messages.first(), Some(SearchMessage::StartSearch { w0: 20 })));
        assert!(matches!(outcome.messages.last(), Some(SearchMessage::Broadcast { .. })));
    }

    #[test]
    fn analytic_search_finds_w_star_from_above() {
        let g = game(5);
        let target = efficient_ne(&g).unwrap().window;
        let mut probe = AnalyticProbe::new(g.clone());
        let outcome = run_search(&mut probe, &g, target + 60, 0.0).unwrap();
        assert_eq!(outcome.w_m, target);
        assert_eq!(outcome.direction, SearchDirection::Left);
    }

    #[test]
    fn search_starting_at_optimum_stays() {
        let g = game(5);
        let target = efficient_ne(&g).unwrap().window;
        let mut probe = AnalyticProbe::new(g.clone());
        let outcome = run_search(&mut probe, &g, target, 0.0).unwrap();
        assert_eq!(outcome.w_m, target);
        assert_eq!(outcome.direction, SearchDirection::Stationary);
    }

    #[test]
    fn message_sequence_is_start_ready_broadcast() {
        let g = game(3);
        let mut probe = AnalyticProbe::new(g.clone());
        let outcome = run_search(&mut probe, &g, 30, 0.0).unwrap();
        assert!(matches!(outcome.messages[0], SearchMessage::StartSearch { .. }));
        for m in &outcome.messages[1..outcome.messages.len() - 1] {
            assert!(matches!(m, SearchMessage::Ready { .. }));
        }
        assert!(matches!(
            outcome.messages[outcome.messages.len() - 1],
            SearchMessage::Broadcast { .. }
        ));
        // One measurement per Ready plus the initial probe at W₀.
        assert_eq!(outcome.trace.len(), outcome.messages.len() - 1);
    }

    #[test]
    fn search_validates_start() {
        let g = game(3);
        let mut probe = AnalyticProbe::new(g.clone());
        assert!(run_search(&mut probe, &g, 0, 0.0).is_err());
        assert!(run_search(&mut probe, &g, g.w_max() + 1, 0.0).is_err());
    }

    #[test]
    fn underbroadcast_lie_does_not_pay() {
        // Broadcasting W_m < W_c* drags everyone (liar included) to a
        // worse symmetric point: strictly unprofitable.
        let g = game(5);
        let w_star = efficient_ne(&g).unwrap().window;
        let lie = lying_broadcast(&g, w_star, w_star / 2, w_star / 2, 1).unwrap();
        assert!(!lie.lying_pays());
    }

    #[test]
    fn overbroadcast_lie_gains_only_transients() {
        // Broadcasting W_m > W_c* while playing W_c*: the liar's gain lives
        // only in the pre-convergence stages and is negligible under
        // δ = 0.9999 (the Remark's conclusion).
        let g = game(5);
        let w_star = efficient_ne(&g).unwrap().window;
        let lie = lying_broadcast(&g, w_star, w_star * 2, w_star, 1).unwrap();
        // Under TFT the network converges to min(w_lie, w_self) = W_c*, so
        // the tail equals the honest payoff; any gain is the single head
        // stage, bounded by a 1e-4 fraction of the total.
        let rel_gain = (lie.liar_payoff - lie.honest_payoff) / lie.honest_payoff;
        assert!(rel_gain.abs() < 5e-4, "relative gain {rel_gain}");
    }
}
