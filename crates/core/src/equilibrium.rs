//! Nash equilibria of the repeated game and their refinement
//! (paper Section V.A–V.B, Theorems 1–2).
//!
//! Theorem 2: every uniform profile `(W_c, …, W_c)` with
//! `W_c⁰ ≤ W_c ≤ W_c*` is a NE of `G` under TFT — upward deviation is
//! immediately unprofitable (Lemma 4), downward deviation triggers the TFT
//! drop whose discounted punishment outweighs the short gain. The
//! refinement (fairness, social-welfare maximization, Pareto optimality)
//! singles out `(W_c*, …, W_c*)`.

use std::sync::Arc;

use macgame_dcf::cache::SolveCache;
use macgame_dcf::optimal::{self, SymmetricSource};
use macgame_dcf::parallel;
use macgame_dcf::DcfParams;
use serde::{Deserialize, Serialize};

use crate::deviation::{
    check_cache_params, deviator_row, discount_split, symmetric_stage, symmetric_stage_table,
    symmetric_stage_table_in, upward_probes,
};
use crate::error::GameError;
use crate::game::GameConfig;

pub use macgame_dcf::optimal::{EfficientNe, NeInterval};

/// The efficient NE `(W_c*, …, W_c*)` of the game: the exact argmax of the
/// symmetric utility over the strategy space.
///
/// # Errors
///
/// Propagates [`GameError::Model`] from the underlying optimizer.
pub fn efficient_ne(game: &GameConfig) -> Result<EfficientNe, GameError> {
    Ok(optimal::efficient_cw(game.player_count(), game.params(), game.utility(), game.w_max())?)
}

/// [`efficient_ne`] read from `cache`'s `W_c*` memo, whose misses search
/// over its `(n, W)` memo: bitwise the same result.
pub(crate) fn efficient_ne_cached(
    game: &GameConfig,
    cache: &SolveCache,
) -> Result<EfficientNe, GameError> {
    check_cache_params(game, cache)?;
    Ok(cache.efficient_cw(game.player_count(), game.utility(), game.w_max())?)
}

/// The Theorem 2 interval `[W_c⁰, W_c*]` of symmetric NE.
///
/// # Errors
///
/// Propagates [`GameError::Model`] from the underlying optimizer.
pub fn ne_interval(game: &GameConfig) -> Result<NeInterval, GameError> {
    Ok(optimal::ne_interval(game.player_count(), game.params(), game.utility(), game.w_max())?)
}

/// [`ne_interval`] with its `W_c*` read from `cache`'s `W_c*` memo and
/// its break-even points from `cache`'s `(n, W)` memo: bitwise the same
/// result.
pub(crate) fn ne_interval_cached(
    game: &GameConfig,
    cache: &SolveCache,
) -> Result<NeInterval, GameError> {
    check_cache_params(game, cache)?;
    Ok(optimal::ne_interval_in(cache, game.player_count(), game.utility(), game.w_max())?)
}

/// Result of checking whether a uniform profile is a NE under TFT.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NeCheck {
    /// The common window checked.
    pub window: u32,
    /// Whether no unilateral deviation is profitable.
    pub is_ne: bool,
    /// The most profitable deviation found, with its discounted gain
    /// (present even when unprofitable, for diagnostics).
    pub best_deviation: Option<(u32, f64)>,
}

/// Default relative tolerance for [`check_symmetric_ne`]: deviations whose
/// gain is below this fraction of the compliant payoff do not disqualify a
/// profile (ε-equilibrium semantics; see below).
pub const DEFAULT_NE_EPSILON: f64 = 1e-5;

/// Checks Theorem 2's NE property for the uniform profile `(w, …, w)` by
/// explicit unilateral-deviation search.
///
/// Downward deviations `w' < w` are priced with the TFT punishment
/// (deviator enjoys `reaction_stages` stages, then everyone sits at `w'`);
/// upward deviations `w' > w` are priced the same way (the deviator is
/// disfavored immediately, Lemma 4, and TFT would pull it back — we charge
/// only the immediate loss, which already suffices).
///
/// `epsilon` makes this an **ε-equilibrium check**: a deviation only
/// disqualifies `w` if its discounted gain exceeds `epsilon` × the
/// compliant payoff. This is necessary because the strategy space is
/// discrete and the paper's own Figures 2–3 observation — "CW values near
/// `W_c*` yield almost the same global and local payoff" — means a
/// one-step deviation from the integer `W_c*` can eke out a vanishing gain
/// that the continuous theory rounds away. Use
/// [`DEFAULT_NE_EPSILON`] unless you study that effect itself.
///
/// # Errors
///
/// Returns [`GameError::InvalidConfig`] for a negative `epsilon`, `w`
/// outside the strategy space or a `reaction_stages` of zero or above
/// `i32::MAX`, in that order and before any solve; propagates solver
/// failures.
pub fn check_symmetric_ne(
    game: &GameConfig,
    w: u32,
    reaction_stages: u32,
    epsilon: f64,
) -> Result<NeCheck, GameError> {
    check_symmetric_ne_in(game, w, reaction_stages, epsilon, game.params())
}

/// [`check_symmetric_ne`] with its stage table read from `cache`'s
/// stage-column memo and its deviator row from `cache`'s row memo:
/// bitwise the same check.
pub(crate) fn check_symmetric_ne_cached(
    game: &GameConfig,
    w: u32,
    reaction_stages: u32,
    epsilon: f64,
    cache: &SolveCache,
) -> Result<NeCheck, GameError> {
    check_cache_params(game, cache)?;
    check_symmetric_ne_in(game, w, reaction_stages, epsilon, cache)
}

/// Where an ε-NE check reads its stage table and its [`deviator_row`]:
/// computed afresh from the game's [`DcfParams`], or memoized in a
/// [`SolveCache`] bound to them. Both give the same bits.
pub(crate) trait CheckSource {
    /// A symmetric stage table of `game` covering at least `1..=w`,
    /// indexed by window (slot 0 never read).
    fn stages(&self, game: &GameConfig, w: u32) -> Result<Arc<[f64]>, GameError>;

    /// The [`deviator_row`] of `game` at the common window `w`.
    fn row(&self, game: &GameConfig, w: u32) -> Result<Arc<[f64]>, GameError>;
}

impl CheckSource for DcfParams {
    fn stages(&self, game: &GameConfig, w: u32) -> Result<Arc<[f64]>, GameError> {
        Ok(symmetric_stage_table_in(game, w, 1, self)?.into())
    }

    fn row(&self, game: &GameConfig, w: u32) -> Result<Arc<[f64]>, GameError> {
        Ok(deviator_row(game, w)?.into())
    }
}

impl CheckSource for SolveCache {
    fn stages(&self, game: &GameConfig, w: u32) -> Result<Arc<[f64]>, GameError> {
        Ok(self.stage_column(game.player_count(), w, game.w_max(), game.utility())?)
    }

    fn row(&self, game: &GameConfig, w: u32) -> Result<Arc<[f64]>, GameError> {
        self.deviator_row(game.player_count(), w, game.w_max(), game.utility(), || {
            deviator_row(game, w)
        })
    }
}

/// Rejects a check's inputs before anything is solved: a negative
/// `epsilon`, then `w` outside the strategy space, then a reaction lag of
/// zero or above `i32::MAX`.
fn validate_check(
    game: &GameConfig,
    w: u32,
    reaction_stages: u32,
    epsilon: f64,
) -> Result<(), GameError> {
    if epsilon < 0.0 {
        return Err(GameError::InvalidConfig("epsilon must be non-negative".into()));
    }
    if w == 0 || w > game.w_max() {
        return Err(GameError::InvalidConfig(format!(
            "window {w} outside strategy space [1, {}]",
            game.w_max()
        )));
    }
    if reaction_stages == 0 {
        return Err(GameError::InvalidConfig("TFT reaction takes at least one stage".into()));
    }
    discount_split(game.discount(), reaction_stages)?;
    Ok(())
}

/// [`check_symmetric_ne`] with its stage table and deviator row drawn
/// from `source`, which is bound to the game's parameters. The inputs are
/// validated first, so a rejected check solves nothing and leaves every
/// memo of `source` untouched.
fn check_symmetric_ne_in<S: CheckSource + ?Sized>(
    game: &GameConfig,
    w: u32,
    reaction_stages: u32,
    epsilon: f64,
    source: &S,
) -> Result<NeCheck, GameError> {
    validate_check(game, w, reaction_stages, epsilon)?;
    let stages = source.stages(game, w)?;
    check_symmetric_ne_staged(game, w, reaction_stages, epsilon, &stages, source)
}

/// [`check_symmetric_ne`] on validated inputs and a stage table covering
/// at least `1..=w`, with its deviator row drawn from `source`.
fn check_symmetric_ne_staged<S: CheckSource + ?Sized>(
    game: &GameConfig,
    w: u32,
    reaction_stages: u32,
    epsilon: f64,
    stages: &[f64],
    source: &S,
) -> Result<NeCheck, GameError> {
    // A NE candidate must first be individually rational (non-negative
    // payoff; Theorem 2 excludes W_c < W_c⁰).
    let at_w = stages[w as usize];
    if at_w < 0.0 {
        return Ok(NeCheck { window: w, is_ne: false, best_deviation: None });
    }
    let t = game.stage_duration().value();
    let delta = game.discount();
    let compliant_total = t * at_w / (1.0 - delta);
    let row = source.row(game, w)?;
    let (downward, upward) = row.split_at(w as usize - 1);

    let mut best: Option<(u32, f64)> = None;
    let mut consider = |w_dev: u32, gain: f64| {
        if best.map_or(true, |(_, g)| gain > g) {
            best = Some((w_dev, gain));
        }
    };
    // Downward deviations w_s ∈ [1, w): full TFT-punishment pricing. The
    // deviator enjoys `reaction_stages` stages at its own window, then
    // everyone sits at w_s (the table's stage).
    let (head, tail) = discount_split(delta, reaction_stages)?;
    for ((w_s, &deviator), &after) in (1..w).zip(downward).zip(&stages[1..]) {
        consider(w_s, t * (head * deviator + tail * after) - compliant_total);
    }
    // Upward deviations: the deviator's stage payoff drops immediately and
    // stays no better after everyone is back at w; price one deviated stage.
    for (w_dev, &deviator) in upward_probes(game, w).zip(upward) {
        consider(w_dev, t * (deviator - at_w));
    }
    let is_ne = best.map_or(true, |(_, g)| g <= epsilon * compliant_total.abs().max(1.0));
    Ok(NeCheck { window: w, is_ne, best_deviation: best })
}

/// Runs [`check_symmetric_ne`] for every window in `lo..=hi` — the
/// explicit-verification scan behind Table II/III style NE intervals —
/// fanning the independent checks over `threads` workers (`0` = auto from
/// `MACGAME_THREADS`). Each check is a pure function of its window, so the
/// returned vector is identical for every thread count.
///
/// # Errors
///
/// Returns [`GameError::InvalidConfig`] for an empty or out-of-space
/// range; propagates the first [`check_symmetric_ne`] error in window
/// order.
pub fn scan_ne_interval(
    game: &GameConfig,
    lo: u32,
    hi: u32,
    reaction_stages: u32,
    epsilon: f64,
    threads: usize,
) -> Result<Vec<NeCheck>, GameError> {
    if lo == 0 || hi < lo || hi > game.w_max() {
        return Err(GameError::InvalidConfig(format!(
            "scan range [{lo}, {hi}] outside strategy space [1, {}]",
            game.w_max()
        )));
    }
    // Every window of the range is in the strategy space, so one
    // validation covers the whole scan.
    validate_check(game, lo, reaction_stages, epsilon)?;
    // One root search per window for the whole scan; every check then reads
    // its compliant and post-punishment stages from the shared table.
    let stages = symmetric_stage_table(game, hi, threads)?;
    let windows: Vec<u32> = (lo..=hi).collect();
    let checks: Vec<Result<NeCheck, GameError>> = parallel::map(&windows, threads, |&w| {
        check_symmetric_ne_staged(game, w, reaction_stages, epsilon, &stages, game.params())
    });
    checks.into_iter().collect()
}

/// Which refinement criteria a symmetric NE satisfies (Section V.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Refinement {
    /// The window assessed.
    pub window: u32,
    /// TFT equalizes payoffs, so every symmetric NE is fair.
    pub fair: bool,
    /// Whether this window maximizes the social welfare among the NE.
    pub social_welfare_maximal: bool,
    /// Whether this window is Pareto-optimal among the NE.
    pub pareto_optimal: bool,
}

/// Applies the Section V.B refinement to every NE in the Theorem 2
/// interval; exactly one (the efficient NE) survives all criteria.
///
/// # Errors
///
/// Propagates solver failures.
pub fn refine(game: &GameConfig, interval: NeInterval) -> Result<Vec<Refinement>, GameError> {
    let mut utilities = Vec::new();
    for w in interval.lower..=interval.upper {
        utilities.push((w, symmetric_stage(game, w)?));
    }
    let best = utilities.iter().map(|&(_, u)| u).fold(f64::NEG_INFINITY, f64::max);
    Ok(utilities
        .into_iter()
        .map(|(window, u)| {
            // In the symmetric game, welfare = n·u, so welfare-maximal and
            // Pareto-optimal coincide: any other uniform NE changes every
            // player's payoff in the same direction.
            let maximal = (u - best).abs() <= f64::EPSILON * best.abs().max(1.0);
            Refinement {
                window,
                fair: true,
                social_welfare_maximal: maximal,
                pareto_optimal: maximal,
            }
        })
        .collect())
}

/// Fixed point of *myopic* best-response dynamics, and its welfare cost.
///
/// The Discussion section reconciles the paper with Cagalj et al.'s
/// "selfish CSMA/CA leads to collapse": short-sighted players play the
/// stage best response instead of TFT, and the resulting equilibrium sits
/// at small windows with degraded welfare. This function computes that
/// fixed point by iterating per-player stage best responses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MyopicOutcome {
    /// The profile the dynamics reached.
    pub profile: Vec<u32>,
    /// Whether it is a fixed point (every player best-responding).
    pub converged: bool,
    /// Rounds of sequential best response performed.
    pub rounds: usize,
    /// Social welfare rate (per µs) at the myopic profile.
    pub myopic_welfare: f64,
    /// Social welfare rate at the TFT-sustained efficient NE.
    pub efficient_welfare: f64,
}

impl MyopicOutcome {
    /// Welfare surviving myopia: `myopic / efficient` (the paper's story
    /// in one number; < 1 whenever myopia hurts).
    #[must_use]
    pub fn welfare_ratio(&self) -> f64 {
        self.myopic_welfare / self.efficient_welfare
    }
}

/// Iterates sequential stage best responses from `start` until a fixed
/// point or `max_rounds` sweeps, then prices the outcome against the
/// efficient NE.
///
/// # Errors
///
/// Returns [`GameError::InvalidConfig`] for an empty or out-of-space
/// start profile; propagates solver failures.
pub fn myopic_dynamics(
    game: &GameConfig,
    start: &[u32],
    max_rounds: usize,
) -> Result<MyopicOutcome, GameError> {
    use macgame_dcf::fixedpoint::{solve, SolveOptions};
    use macgame_dcf::utility::{all_utilities, node_utility};
    let n = game.player_count();
    if start.len() != n {
        return Err(GameError::InvalidConfig(format!("{} windows for {} players", start.len(), n)));
    }
    if start.iter().any(|&w| w == 0 || w > game.w_max()) {
        return Err(GameError::InvalidConfig("start profile outside strategy space".into()));
    }
    let utility_of = |player: usize, profile: &[u32]| -> Result<f64, GameError> {
        let eq = solve(profile, game.params(), SolveOptions::default())?;
        Ok(node_utility(player, &eq.taus, &eq.collision_probs, game.params(), game.utility()))
    };
    // Per-player best response by bracket + local sweep (the utility in
    // own W against a fixed field is unimodal).
    let best_response = |player: usize, profile: &[u32]| -> Result<u32, GameError> {
        let mut work = profile.to_vec();
        let u_at = |w: u32, work: &mut Vec<u32>| -> Result<f64, GameError> {
            work[player] = w;
            utility_of(player, work)
        };
        let w_max = game.w_max();
        let mut hi = 2u32;
        let mut prev = u_at(1, &mut work)?;
        while hi <= w_max {
            let cur = u_at(hi, &mut work)?;
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
            if u_at(m1, &mut work)? < u_at(m2, &mut work)? {
                lo = m1 + 1;
            } else {
                hi = m2 - 1;
            }
        }
        let mut best = (lo, f64::NEG_INFINITY);
        for w in lo.saturating_sub(4).max(1)..=(hi + 4).min(w_max) {
            let u = u_at(w, &mut work)?;
            if u > best.1 {
                best = (w, u);
            }
        }
        Ok(best.0)
    };

    let mut profile = start.to_vec();
    let mut converged = false;
    let mut rounds = 0usize;
    for round in 0..max_rounds {
        rounds = round + 1;
        let mut changed = false;
        for player in 0..n {
            let br = best_response(player, &profile)?;
            if br != profile[player] {
                profile[player] = br;
                changed = true;
            }
        }
        if !changed {
            converged = true;
            break;
        }
    }
    let eq = macgame_dcf::fixedpoint::solve(
        &profile,
        game.params(),
        macgame_dcf::fixedpoint::SolveOptions::default(),
    )?;
    let myopic_welfare: f64 =
        all_utilities(&eq.taus, &eq.collision_probs, game.params(), game.utility()).iter().sum();
    let ne = efficient_ne(game)?;
    let efficient_welfare = n as f64 * ne.utility;
    Ok(MyopicOutcome { profile, converged, rounds, myopic_welfare, efficient_welfare })
}

#[cfg(test)]
mod tests {
    use super::*;
    use macgame_dcf::AccessMode;
    use proptest::prelude::*;

    fn game(n: usize) -> GameConfig {
        GameConfig::builder(n).build().unwrap()
    }

    #[test]
    fn efficient_ne_is_in_interval() {
        let g = game(5);
        let ne = efficient_ne(&g).unwrap();
        let interval = ne_interval(&g).unwrap();
        assert_eq!(interval.upper, ne.window);
        assert!(interval.lower <= interval.upper);
    }

    #[test]
    fn efficient_window_is_ne() {
        let g = game(5);
        let ne = efficient_ne(&g).unwrap();
        let check = check_symmetric_ne(&g, ne.window, 1, DEFAULT_NE_EPSILON).unwrap();
        assert!(check.is_ne, "best deviation: {:?}", check.best_deviation);
    }

    #[test]
    fn interior_interval_windows_are_ne() {
        let g = game(5);
        let interval = ne_interval(&g).unwrap();
        let mid = (interval.lower + interval.upper) / 2;
        let check = check_symmetric_ne(&g, mid, 1, DEFAULT_NE_EPSILON).unwrap();
        assert!(check.is_ne, "W = {mid}, best deviation: {:?}", check.best_deviation);
    }

    #[test]
    fn far_above_efficient_is_not_ne() {
        // Way above W_c*, dropping to W_c* is profitable even with TFT
        // punishment (the punished tail *is* the efficient point).
        let g = game(5);
        let ne = efficient_ne(&g).unwrap();
        let check = check_symmetric_ne(&g, ne.window * 4, 1, DEFAULT_NE_EPSILON).unwrap();
        assert!(!check.is_ne);
        let (w_dev, gain) = check.best_deviation.unwrap();
        assert!(w_dev < ne.window * 4);
        assert!(gain > 0.0);
    }

    #[test]
    fn refinement_selects_unique_efficient_ne() {
        let g = game(5);
        let interval = ne_interval(&g).unwrap();
        let refinements = refine(&g, interval).unwrap();
        let survivors: Vec<_> =
            refinements.iter().filter(|r| r.pareto_optimal && r.social_welfare_maximal).collect();
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].window, interval.upper);
        assert!(refinements.iter().all(|r| r.fair));
    }

    #[test]
    fn tau_star_variant_close_to_exact() {
        let g = game(5);
        let exact = efficient_ne(&g).unwrap().window;
        let variant = optimal::efficient_cw_from_tau_star(g.player_count(), g.params(), g.w_max())
            .unwrap()
            .window;
        assert!(exact.abs_diff(variant) <= 6, "exact {exact} vs τ*-inversion {variant}");
    }

    #[test]
    fn scan_confirms_theorem2_interval_windows() {
        let g = game(5);
        let interval = ne_interval(&g).unwrap();
        let lo = interval.lower.max(1);
        let hi = interval.upper;
        let checks = scan_ne_interval(&g, lo, hi, 1, DEFAULT_NE_EPSILON, 0).unwrap();
        assert_eq!(checks.len(), (hi - lo + 1) as usize);
        for c in &checks {
            assert!(c.is_ne, "W = {} in [W_c⁰, W_c*] must be a NE", c.window);
        }
    }

    #[test]
    fn scan_matches_individual_checks() {
        let g = game(4);
        let checks = scan_ne_interval(&g, 30, 40, 1, DEFAULT_NE_EPSILON, 1).unwrap();
        for c in &checks {
            let single = check_symmetric_ne(&g, c.window, 1, DEFAULT_NE_EPSILON).unwrap();
            assert_eq!(c, &single);
        }
    }

    #[test]
    fn scan_rejects_bad_ranges() {
        let g = game(3);
        assert!(scan_ne_interval(&g, 0, 5, 1, DEFAULT_NE_EPSILON, 0).is_err());
        assert!(scan_ne_interval(&g, 10, 5, 1, DEFAULT_NE_EPSILON, 0).is_err());
        assert!(scan_ne_interval(&g, 1, g.w_max() + 1, 1, DEFAULT_NE_EPSILON, 0).is_err());
    }

    #[test]
    fn check_rejects_out_of_space_window() {
        let g = game(3);
        assert!(check_symmetric_ne(&g, 0, 1, DEFAULT_NE_EPSILON).is_err());
        assert!(check_symmetric_ne(&g, g.w_max() + 1, 1, DEFAULT_NE_EPSILON).is_err());
        assert!(check_symmetric_ne(&g, 8, 1, -0.1).is_err());
    }

    fn config_error(result: Result<NeCheck, GameError>) -> String {
        match result {
            Err(GameError::InvalidConfig(message)) => message,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn zero_reaction_lag_is_rejected_at_every_window() {
        // Including W = 1, which has no downward deviation, and a
        // negative-payoff window, which used to return before the lag
        // was read.
        let costly = GameConfig::builder(20)
            .utility(macgame_dcf::UtilityParams { gain: 1.0, cost: 0.5 })
            .build()
            .unwrap();
        for (g, w) in [(game(3), 1), (game(3), 2), (game(3), 33), (game(3), 1024), (costly, 1)] {
            let message = config_error(check_symmetric_ne(&g, w, 0, DEFAULT_NE_EPSILON));
            assert_eq!(message, "TFT reaction takes at least one stage", "W = {w}");
            let caches = crate::queries::SolveCaches::with_capacity(16).unwrap();
            let cache = caches.for_mode(g.params().access_mode());
            let cached = check_symmetric_ne_cached(&g, w, 0, DEFAULT_NE_EPSILON, cache);
            assert_eq!(config_error(cached), message);
        }
        let g = game(3);
        assert!(scan_ne_interval(&g, 1, 1, 0, DEFAULT_NE_EPSILON, 1).is_err());
    }

    #[test]
    fn validation_keeps_its_order() {
        // ε first, then the window, then the lag.
        let g = game(3);
        let eps = config_error(check_symmetric_ne(&g, 0, 0, -1.0));
        assert_eq!(eps, "epsilon must be non-negative");
        let window = config_error(check_symmetric_ne(&g, 0, 0, 0.0));
        assert_eq!(window, format!("window 0 outside strategy space [1, {}]", g.w_max()));
    }

    /// A game of `players` nodes under `mode` with strategy bound `w_max`.
    fn cell_game(players: usize, rts: bool, w_max: u32) -> GameConfig {
        let mode = if rts { AccessMode::RtsCts } else { AccessMode::Basic };
        let params = DcfParams::builder().access_mode(mode).build().unwrap();
        let mut builder = GameConfig::builder(players);
        builder.params(params).w_max(w_max);
        builder.build().unwrap()
    }

    /// A check as bits: equal vectors mean `to_bits`-equal gains.
    fn check_bits(check: &Result<NeCheck, GameError>) -> Result<Vec<u64>, String> {
        let check = check.as_ref().map_err(ToString::to_string)?;
        let mut bits = vec![check.window.into(), check.is_ne.into()];
        if let Some((w_dev, gain)) = check.best_deviation {
            bits.extend([w_dev.into(), gain.to_bits()]);
        }
        Ok(bits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The deviator-row memo is bit-transparent: a stream of cells
        /// over a few `(n, W, mode)` rows, each asked under several
        /// strategy bounds, lags and tolerances, through one shared
        /// `SolveCaches` at capacities that evict on nearly every insert
        /// (1, 3), often (16) or never (4096), checks exactly like the
        /// uncached [`check_symmetric_ne`].
        #[test]
        fn deviator_row_memo_is_bit_transparent(
            rows in prop::collection::vec((2usize..=16, 1u32..=160, 0u8..2), 1..4),
            stream in prop::collection::vec((0usize..4, 0usize..4, 1u32..=3, 0u8..2), 1..10),
        ) {
            let cells: Vec<_> = stream
                .iter()
                .map(|&(row, bound, reaction_stages, tolerant)| {
                    let (players, window, rts) = rows[row % rows.len()];
                    let w_max = [window, window + 1, 2 * window, 1024][bound];
                    let epsilon = if tolerant == 1 { DEFAULT_NE_EPSILON } else { 0.0 };
                    (cell_game(players, rts == 1, w_max), window, reaction_stages, epsilon)
                })
                .collect();
            let expected: Vec<_> = cells
                .iter()
                .map(|(g, w, r, eps)| check_bits(&check_symmetric_ne(g, *w, *r, *eps)))
                .collect();
            for capacity in [1, 3, 16, 4096] {
                let caches = crate::queries::SolveCaches::with_capacity(capacity).unwrap();
                for ((g, w, r, eps), want) in cells.iter().zip(&expected) {
                    let cache = caches.for_mode(g.params().access_mode());
                    let got = check_bits(&check_symmetric_ne_cached(g, *w, *r, *eps, cache));
                    prop_assert_eq!(
                        &got, want, "capacity {}, W = {}, w_max {}", capacity, w, g.w_max()
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The stage-column memo is bit-transparent: cells over a few
        /// populations (n in 2..=40, either mode) at W in 1..=300, each
        /// under the default utility or one whose smallest windows pay
        /// less than nothing (W < W_c⁰), check through `SolveCaches` of
        /// capacity 0, 1 and 4096 exactly like the uncached
        /// [`check_symmetric_ne`], first in stream order (misses) and then
        /// in reverse (hits where resident).
        #[test]
        fn stage_column_memo_is_bit_transparent(
            populations in prop::collection::vec((2usize..=40, 0u8..2), 1..3),
            cells in prop::collection::vec((0usize..2, 1u32..=300, 0u8..2, 0u32..12), 1..6),
        ) {
            let cells: Vec<_> = cells
                .iter()
                .map(|&(population, window, costly, pricing)| {
                    let (players, rts) = populations[population % populations.len()];
                    let (reaction_stages, tolerance) = (1 + pricing % 4, pricing as usize / 4);
                    let mut game = cell_game(players, rts == 1, optimal::DEFAULT_W_MAX);
                    if costly == 1 {
                        let mut builder = GameConfig::builder(players);
                        builder
                            .params(*game.params())
                            .utility(macgame_dcf::UtilityParams { gain: 1.0, cost: 0.5 });
                        game = builder.build().unwrap();
                    }
                    (game, window, reaction_stages, [0.0, DEFAULT_NE_EPSILON, 1e-2][tolerance])
                })
                .collect();
            let expected: Vec<_> = cells
                .iter()
                .map(|(g, w, r, eps)| check_bits(&check_symmetric_ne(g, *w, *r, *eps)))
                .collect();
            for capacity in [0, 1, 4096] {
                let caches = crate::queries::SolveCaches::with_capacity(capacity).unwrap();
                let order = (0..cells.len()).chain((0..cells.len()).rev());
                for i in order {
                    let (g, w, r, eps) = &cells[i];
                    let cache = caches.for_mode(g.params().access_mode());
                    let got = check_bits(&check_symmetric_ne_cached(g, *w, *r, *eps, cache));
                    prop_assert_eq!(&got, &expected[i], "capacity {}, cell {}", capacity, i);
                }
            }
        }
    }

    #[test]
    fn cached_searches_match_fresh_ones_bitwise() {
        // A `W_c*` memo hit (and the NE interval read through it) is the
        // bits of a fresh search, `tau_star` included, for the lone-node
        // case, both modes, a `w_max` that caps the search and a costly
        // utility, through one cache that holds them all.
        let bits = |ne: &EfficientNe| {
            [f64::from(ne.window), ne.point.tau, ne.point.collision_prob, ne.utility, ne.tau_star]
                .map(f64::to_bits)
        };
        let caches = crate::queries::SolveCaches::with_capacity(4096).unwrap();
        // The last four share n = 50: any key field dropped would mix them.
        let setups = [
            (1, false, 4096, 0.0),
            (5, false, 4096, 0.0),
            (20, true, 4096, 0.0),
            (50, false, 100, 0.0),
            (50, false, 4096, 0.0),
            (50, false, 4096, 0.5),
            (50, false, 100, 0.5),
        ];
        for (players, rts, w_max, cost) in setups {
            let mut g = cell_game(players, rts, w_max);
            if cost > 0.0 {
                let mut builder = GameConfig::builder(players);
                builder
                    .params(*g.params())
                    .w_max(w_max)
                    .utility(macgame_dcf::UtilityParams { gain: 1.0, cost });
                g = builder.build().unwrap();
            }
            let cache = caches.for_mode(g.params().access_mode());
            let fresh = efficient_ne(&g).unwrap();
            let interval = ne_interval(&g);
            for pass in 0..2 {
                let cached = efficient_ne_cached(&g, cache).unwrap();
                assert_eq!(bits(&cached), bits(&fresh), "n = {players}, pass {pass}");
                let cached_interval = ne_interval_cached(&g, cache);
                assert_eq!(
                    cached_interval.as_ref().map_err(ToString::to_string),
                    interval.as_ref().map_err(ToString::to_string),
                    "n = {players}, pass {pass}"
                );
            }
        }
    }

    #[test]
    fn negative_payoff_windows_are_not_ne() {
        // With a big attempt cost, tiny windows yield negative payoff for
        // n = 20 and cannot be equilibria (Theorem 2's lower cut).
        let g = GameConfig::builder(20)
            .utility(macgame_dcf::UtilityParams { gain: 1.0, cost: 0.5 })
            .build()
            .unwrap();
        let check = check_symmetric_ne(&g, 1, 1, DEFAULT_NE_EPSILON).unwrap();
        assert!(!check.is_ne);
    }

    #[test]
    fn myopic_dynamics_collapse_to_small_windows() {
        // The Discussion-section story: stage best responders end far below
        // the efficient window, with visibly degraded welfare.
        let g = game(5);
        let ne = efficient_ne(&g).unwrap();
        let out = myopic_dynamics(&g, &[ne.window; 5], 12).unwrap();
        assert!(out.converged, "dynamics should reach a fixed point");
        assert!(
            out.profile.iter().all(|&w| w < ne.window / 2),
            "myopic profile {:?} vs W* {}",
            out.profile,
            ne.window
        );
        assert!(out.welfare_ratio() < 0.95, "ratio {}", out.welfare_ratio());
        assert!(out.welfare_ratio() > 0.0);
    }

    #[test]
    fn myopic_fixed_point_is_start_independent() {
        let g = game(4);
        let a = myopic_dynamics(&g, &[10; 4], 12).unwrap();
        let b = myopic_dynamics(&g, &[500; 4], 12).unwrap();
        // Same fixed point (up to the flat-top tolerance of the searches).
        for (x, y) in a.profile.iter().zip(&b.profile) {
            assert!(x.abs_diff(*y) <= 2, "{:?} vs {:?}", a.profile, b.profile);
        }
    }

    #[test]
    fn myopic_validation() {
        let g = game(3);
        assert!(myopic_dynamics(&g, &[10, 10], 5).is_err());
        assert!(myopic_dynamics(&g, &[0, 10, 10], 5).is_err());
    }
}
