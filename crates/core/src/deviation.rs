//! Deviation analyses: short-sighted players (paper Section V.D) and
//! malicious players (Section V.E).
//!
//! A deviator `s` plays `W_s < W_c*` while the TFT crowd needs `m ≥ 1`
//! stages to react; afterwards everyone sits at `W_s`. Its total payoff is
//!
//! ```text
//! U_s = (1 − δ_s^m)/(1 − δ_s) · U_s^s(W*, …, W_s, …, W*)
//!     +        δ_s^m/(1 − δ_s) · U_s^s(W_s, …, W_s)
//! ```
//!
//! versus `U_s⁰ = U_s^s(W*, …, W*)/(1 − δ_s)` for compliance. Extremely
//! short-sighted players (`δ_s → 0`) profit from deviation at the crowd's
//! expense; long-sighted ones do not — the crux of why TFT sustains the
//! efficient NE.

use macgame_dcf::cache::SolveCache;
use macgame_dcf::classes::{class_utilities, Classes, OneDeviatorEquilibrium, OneDeviatorProfile};
use macgame_dcf::fixedpoint::{
    solve, solve_one_deviator, solve_one_deviator_classes, SolveOptions,
};
use macgame_dcf::optimal::SymmetricSource;
use macgame_dcf::parallel::{self, one_deviator_sweep};
use macgame_dcf::utility::{all_utilities, one_deviator_utilities};
use serde::{Deserialize, Serialize};

use crate::error::GameError;
use crate::game::GameConfig;

/// Per-stage utilities (per µs) when one deviator plays `w_dev` against
/// `n − 1` players at `w_others`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviatorStage {
    /// The deviator's stage utility rate.
    pub deviator: f64,
    /// Each compliant player's stage utility rate.
    pub compliant: f64,
}

/// Computes the stage utilities with a single deviator (paper Lemma 4's
/// setting).
///
/// # Errors
///
/// Propagates solver failures.
pub fn deviator_stage(
    game: &GameConfig,
    w_others: u32,
    w_dev: u32,
) -> Result<DeviatorStage, GameError> {
    let n = game.player_count();
    if n < 2 {
        return Err(GameError::InvalidConfig("deviation needs at least two players".into()));
    }
    let mut profile = vec![w_others; n];
    profile[0] = w_dev;
    let eq = solve(&profile, game.params(), SolveOptions::default())?;
    let us = all_utilities(&eq.taus, &eq.collision_probs, game.params(), game.utility());
    Ok(DeviatorStage { deviator: us[0], compliant: us[1] })
}

/// Stage utility rate (per µs) when all `n` players sit on `w`.
///
/// # Errors
///
/// Propagates solver failures.
pub fn symmetric_stage(game: &GameConfig, w: u32) -> Result<f64, GameError> {
    Ok(game.params().symmetric(game.player_count(), w)?.utility(game.utility()))
}

/// Guards the cached stage variants: a [`SolveCache`] bound to different
/// DCF parameters would silently answer for the wrong channel.
pub(crate) fn check_cache_params(game: &GameConfig, cache: &SolveCache) -> Result<(), GameError> {
    if cache.params() != game.params() {
        return Err(GameError::InvalidConfig(
            "solve cache is bound to different DCF parameters than the game".into(),
        ));
    }
    Ok(())
}

/// [`deviator_stage`] at class level: the one-deviator profile collapses
/// to at most two classes (one where `w_dev == w_others`, the symmetric
/// stage), solved afresh by [`solve_one_deviator_classes`] and priced by
/// class: the bits [`class_utilities`] gives for the solution a
/// [`SolveCache`] bound to the game's parameters stores for that profile.
/// Agrees with [`deviator_stage`] to solver tolerance (the class path
/// solves and prices at class level, the direct path at node level — the
/// same fixed point either way).
///
/// # Errors
///
/// Returns [`GameError::InvalidConfig`] for fewer than two players;
/// propagates solver failures.
fn class_deviator_stage(
    game: &GameConfig,
    w_others: u32,
    w_dev: u32,
) -> Result<DeviatorStage, GameError> {
    let n = game.player_count();
    if n < 2 {
        return Err(GameError::InvalidConfig("deviation needs at least two players".into()));
    }
    let profile = OneDeviatorProfile::new(n, w_others, w_dev)?;
    let eq = solve_one_deviator_classes(&profile, game.params(), SolveOptions::default(), None)?;
    let [deviator, compliant] = eq.class_utilities(&profile, game.params(), game.utility());
    Ok(DeviatorStage { deviator, compliant })
}

/// [`symmetric_stage`] routed through a shared [`SolveCache`]: the
/// homogeneous profile is a single class, so grid workloads revisiting
/// the same `(n, w)` pay one fixed-point solve total. Deterministic;
/// agrees with [`symmetric_stage`] to solver tolerance.
///
/// # Errors
///
/// Returns [`GameError::InvalidConfig`] on a parameter-mismatched cache;
/// propagates solver failures.
pub fn symmetric_stage_cached(
    game: &GameConfig,
    w: u32,
    cache: &SolveCache,
) -> Result<f64, GameError> {
    check_cache_params(game, cache)?;
    let profile = Classes::new(vec![w], vec![game.player_count()])?;
    let eq = cache.solve_class_profile(&profile)?;
    let us =
        class_utilities(&profile, &eq.taus, &eq.collision_probs, game.params(), game.utility());
    Ok(us[0])
}

/// Stage utility rates for every window in `1..=hi`, indexed by window
/// (slot 0 is `NaN`, never read). [`crate::equilibrium::scan_ne_interval`]
/// threads this table through its checks so each window's root search runs
/// once per scan instead of once per (window, deviation) pair — without
/// it the symmetric stages dominate the scan's cost.
///
/// # Errors
///
/// Propagates solver failures.
pub fn symmetric_stage_table(
    game: &GameConfig,
    hi: u32,
    threads: usize,
) -> Result<Vec<f64>, GameError> {
    symmetric_stage_table_in(game, hi, threads, game.params())
}

/// [`symmetric_stage_table`] with its symmetric points drawn from
/// `source`, which must be bound to the game's parameters: the same
/// table, bitwise, whichever source fills it.
pub(crate) fn symmetric_stage_table_in<S: SymmetricSource + Sync + ?Sized>(
    game: &GameConfig,
    hi: u32,
    threads: usize,
    source: &S,
) -> Result<Vec<f64>, GameError> {
    let n = game.player_count();
    let windows: Vec<u32> = (1..=hi).collect();
    let stages =
        parallel::map(&windows, threads, |&w| Ok(source.symmetric(n, w)?.utility(game.utility())));
    std::iter::once(Ok(f64::NAN)).chain(stages).collect()
}

/// Full accounting of a short-sighted deviation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviationOutcome {
    /// The window the deviator drops to.
    pub w_s: u32,
    /// The deviator's own discount factor `δ_s`.
    pub delta_s: f64,
    /// Stages the TFT crowd needs to react.
    pub reaction_stages: u32,
    /// Deviator's total discounted payoff under the deviation.
    pub deviant_payoff: f64,
    /// Deviator's total discounted payoff if it had complied with `W_c*`.
    pub compliant_payoff: f64,
    /// Each other player's total discounted payoff while the deviation
    /// plays out (evaluated at the *deviator's* discount for comparability).
    pub victim_payoff: f64,
}

impl DeviationOutcome {
    /// Whether deviating strictly beats complying.
    #[must_use]
    pub fn profitable(&self) -> bool {
        self.deviant_payoff > self.compliant_payoff
    }

    /// Net gain (possibly negative) from deviating.
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.deviant_payoff - self.compliant_payoff
    }
}

/// Evaluates a short-sighted deviation to `w_s` from the common window
/// `w_star`, with `reaction_stages ≥ 1` lag and deviator discount
/// `delta_s ∈ [0, 1)`.
///
/// # Examples
///
/// ```
/// use macgame_core::deviation::shortsighted_deviation;
/// use macgame_core::GameConfig;
///
/// let game = GameConfig::builder(5).build()?;
/// // A fully myopic player (δ_s = 0) profits from undercutting W* = 79…
/// let myopic = shortsighted_deviation(&game, 79, 20, 1, 0.0)?;
/// assert!(myopic.profitable());
/// // …a long-sighted one does not.
/// let patient = shortsighted_deviation(&game, 79, 20, 1, 0.999)?;
/// assert!(!patient.profitable());
/// # Ok::<(), macgame_core::GameError>(())
/// ```
///
/// # Errors
///
/// Returns [`GameError::InvalidConfig`] for a reaction lag of zero or
/// above `i32::MAX`, or an out-of-range discount; propagates solver
/// failures.
pub fn shortsighted_deviation(
    game: &GameConfig,
    w_star: u32,
    w_s: u32,
    reaction_stages: u32,
    delta_s: f64,
) -> Result<DeviationOutcome, GameError> {
    if reaction_stages == 0 {
        return Err(GameError::InvalidConfig("TFT reaction takes at least one stage".into()));
    }
    if !(0.0..1.0).contains(&delta_s) {
        return Err(GameError::InvalidConfig("deviator discount must be in [0, 1)".into()));
    }
    let during = deviator_stage(game, w_star, w_s)?;
    let after = symmetric_stage(game, w_s)?;
    let at_star = symmetric_stage(game, w_star)?;
    price_deviation(game, w_s, reaction_stages, delta_s, during, after, at_star)
}

/// The Section V.D split of a discounted payoff at a TFT reaction lag of
/// `m = reaction_stages`: `head = (1 − δ^m)/(1 − δ)` weighs the `m` stages
/// before the reaction and `tail = δ^m/(1 − δ)` every stage after it.
///
/// # Errors
///
/// Returns [`GameError::InvalidConfig`] if the lag exceeds `i32::MAX`, the
/// largest exponent `powi` takes.
pub(crate) fn discount_split(delta: f64, reaction_stages: u32) -> Result<(f64, f64), GameError> {
    let m = i32::try_from(reaction_stages).map_err(|_| {
        GameError::InvalidConfig("TFT reaction lag must be at most 2147483647 stages".into())
    })?;
    Ok(((1.0 - delta.powi(m)) / (1.0 - delta), delta.powi(m) / (1.0 - delta)))
}

/// Discounted-payoff pricing shared by the direct and cache-routed
/// short-sighted evaluations: the Section V.D head/tail split priced from
/// the three stage rates.
fn price_deviation(
    game: &GameConfig,
    w_s: u32,
    reaction_stages: u32,
    delta_s: f64,
    during: DeviatorStage,
    after: f64,
    at_star: f64,
) -> Result<DeviationOutcome, GameError> {
    let t = game.stage_duration().value();
    let (head, tail) = discount_split(delta_s, reaction_stages)?;

    let deviant_payoff = t * (head * during.deviator + tail * after);
    let compliant_payoff = t * at_star / (1.0 - delta_s);
    let victim_payoff = t * (head * during.compliant + tail * after);
    Ok(DeviationOutcome {
        w_s,
        delta_s,
        reaction_stages,
        deviant_payoff,
        compliant_payoff,
        victim_payoff,
    })
}

/// [`shortsighted_deviation`] priced at class level — the serve-layer
/// entry point. Each of its three class profiles (the deviation, the
/// punished tail on `w_s`, compliance on `w_star`) is solved once by
/// [`class_deviator_stage`] under the game's parameters, on the stack;
/// prices rarely repeat a profile, so no memo is consulted. The pricing is
/// identical to the direct path, so results agree with
/// [`shortsighted_deviation`] to solver tolerance and are bitwise
/// reproducible.
///
/// # Errors
///
/// Same conditions as [`shortsighted_deviation`].
pub(crate) fn shortsighted_deviation_classes(
    game: &GameConfig,
    w_star: u32,
    w_s: u32,
    reaction_stages: u32,
    delta_s: f64,
) -> Result<DeviationOutcome, GameError> {
    if reaction_stages == 0 {
        return Err(GameError::InvalidConfig("TFT reaction takes at least one stage".into()));
    }
    if !(0.0..1.0).contains(&delta_s) {
        return Err(GameError::InvalidConfig("deviator discount must be in [0, 1)".into()));
    }
    let during = class_deviator_stage(game, w_star, w_s)?;
    let after = class_deviator_stage(game, w_s, w_s)?.deviator;
    let at_star = class_deviator_stage(game, w_star, w_star)?.deviator;
    price_deviation(game, w_s, reaction_stages, delta_s, during, after, at_star)
}

/// Evaluates every downward deviation `w_s ∈ [1, w_star]` in one batch,
/// returning the outcomes in `w_s` order.
///
/// The one-deviator solves go through
/// [`macgame_dcf::parallel::one_deviator_sweep`]: profiles adjacent in the
/// sweep differ only in the deviator's window, so each solve is
/// warm-started from its neighbor's solution, and fixed-size chunks are
/// fanned out over `threads` workers (`0` = auto from `MACGAME_THREADS`;
/// results are bitwise-identical for every thread count). The symmetric "after" stages
/// ride the guaranteed symmetric root search and are fanned out the same way.
///
/// # Errors
///
/// Same conditions as [`shortsighted_deviation`].
pub fn deviation_sweep(
    game: &GameConfig,
    w_star: u32,
    reaction_stages: u32,
    delta_s: f64,
    threads: usize,
) -> Result<Vec<DeviationOutcome>, GameError> {
    if reaction_stages == 0 {
        return Err(GameError::InvalidConfig("TFT reaction takes at least one stage".into()));
    }
    if !(0.0..1.0).contains(&delta_s) {
        return Err(GameError::InvalidConfig("deviator discount must be in [0, 1)".into()));
    }
    if w_star == 0 {
        return Err(GameError::InvalidConfig("empty deviation space".into()));
    }
    let n = game.player_count();
    if n < 2 {
        return Err(GameError::InvalidConfig("deviation needs at least two players".into()));
    }
    let t = game.stage_duration().value();
    // Compliant and post-punishment stages: everyone on one window
    // (one symmetric root search each, cheap).
    let stages = symmetric_stage_table(game, w_star, threads)?;
    let at_star = stages[w_star as usize];
    let (head, tail) = discount_split(delta_s, reaction_stages)?;
    let compliant_payoff = t * at_star / (1.0 - delta_s);

    // One deviator against the W* crowd, for every w_s: warm-chained.
    let deviators: Vec<u32> = (1..=w_star).collect();
    let eqs =
        one_deviator_sweep(n, w_star, &deviators, game.params(), SolveOptions::default(), threads)?;

    let mut out = Vec::with_capacity(w_star as usize);
    for ((w_s, eq), &after) in (1..=w_star).zip(&eqs).zip(&stages[1..]) {
        let during = chain_stage(game, eq);
        out.push(DeviationOutcome {
            w_s,
            delta_s,
            reaction_stages,
            deviant_payoff: t * (head * during.deviator + tail * after),
            compliant_payoff,
            victim_payoff: t * (head * during.compliant + tail * after),
        });
    }
    Ok(out)
}

/// The stage rates of one solved one-deviator profile, priced bit for bit
/// as `all_utilities` prices nodes 0 and 1 of the node-level profile.
fn chain_stage(game: &GameConfig, eq: &OneDeviatorEquilibrium) -> DeviatorStage {
    let [deviator, compliant] = one_deviator_utilities(
        eq.deviator,
        eq.crowd,
        game.player_count(),
        game.params(),
        game.utility(),
    );
    DeviatorStage { deviator, compliant }
}

/// The upward deviations an ε-NE check of the common window `w` prices:
/// `w + 1`, `2w` and `w_max`, each kept if it lies in `(w, w_max]`, in
/// that order (a repeat is priced twice and changes nothing).
pub(crate) fn upward_probes(game: &GameConfig, w: u32) -> impl Iterator<Item = u32> {
    let w_max = game.w_max();
    [w.saturating_add(1), w.saturating_mul(2), w_max]
        .into_iter()
        .filter(move |&x| x > w && x <= w_max)
}

/// The deviator's stage utility rates behind
/// [`crate::equilibrium::check_symmetric_ne`] at the common window `w`:
/// one entry per downward deviation `w_s ∈ 1..w`, in order, then one per
/// [`upward_probes`] window. A pure function of `(n, w, w_max, utility)`
/// under the game's DCF parameters, which is the key a
/// [`SolveCache::deviator_row`] memo stores it under; the reaction lag and
/// ε only enter the pricing.
///
/// The downward solves run as one serial warm-chained
/// [`one_deviator_sweep`], each seeded from its neighbor's solution within
/// the sweep's fixed chunks; the upward ones are cold
/// [`solve_one_deviator`]s. Both are priced as [`deviator_stage`] prices
/// node 0, bit for bit, without an `n`-entry profile.
///
/// # Errors
///
/// Returns [`GameError::InvalidConfig`] for fewer than two players when
/// the row is not empty; propagates solver failures.
pub(crate) fn deviator_row(game: &GameConfig, w: u32) -> Result<Vec<f64>, GameError> {
    let n = game.player_count();
    if w > 1 && n < 2 {
        return Err(GameError::InvalidConfig("deviation needs at least two players".into()));
    }
    let deviators: Vec<u32> = (1..w).collect();
    let eqs = one_deviator_sweep(n, w, &deviators, game.params(), SolveOptions::default(), 1)?;
    let mut row: Vec<f64> = eqs.iter().map(|eq| chain_stage(game, eq).deviator).collect();
    for w_dev in upward_probes(game, w) {
        let eq = solve_one_deviator(n, w, w_dev, game.params(), SolveOptions::default(), None)?;
        row.push(chain_stage(game, &eq).deviator);
    }
    Ok(row)
}

/// The deviator's optimal window `W_s(δ_s)`: the `w_s ∈ [1, w_star]`
/// maximizing [`shortsighted_deviation`]'s payoff. For `δ_s → 1` this is
/// `w_star` itself (Section V.D's conclusion).
///
/// Runs as a [`deviation_sweep`] under the `MACGAME_THREADS` knob.
///
/// # Errors
///
/// Same conditions as [`shortsighted_deviation`].
pub fn optimal_shortsighted_deviation(
    game: &GameConfig,
    w_star: u32,
    reaction_stages: u32,
    delta_s: f64,
) -> Result<DeviationOutcome, GameError> {
    deviation_sweep(game, w_star, reaction_stages, delta_s, 0)?
        .into_iter()
        .reduce(|best, o| if o.deviant_payoff > best.deviant_payoff { o } else { best })
        .ok_or_else(|| GameError::InvalidConfig("empty deviation space".into()))
}

/// Impact of a malicious player pinned at `w_mal` (Section V.E): TFT drags
/// the whole network to `w_mal`, degrading — or for small `w_mal`
/// destroying — the social welfare.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MaliciousImpact {
    /// The malicious window.
    pub w_mal: u32,
    /// Social welfare rate (per µs) at the efficient NE.
    pub welfare_at_ne: f64,
    /// Social welfare rate once the network has converged to `w_mal`.
    pub welfare_after: f64,
}

impl MaliciousImpact {
    /// Remaining fraction of the NE welfare (negative when collapsed).
    #[must_use]
    pub fn remaining_fraction(&self) -> f64 {
        self.welfare_after / self.welfare_at_ne
    }

    /// Whether the network is paralyzed (non-positive welfare).
    #[must_use]
    pub fn collapsed(&self) -> bool {
        self.welfare_after <= 0.0
    }
}

/// Computes the welfare impact of a malicious player dragging the network
/// from the efficient window `w_star` down to `w_mal`.
///
/// # Errors
///
/// Propagates solver failures.
pub fn malicious_impact(
    game: &GameConfig,
    w_star: u32,
    w_mal: u32,
) -> Result<MaliciousImpact, GameError> {
    let n = game.player_count() as f64;
    let welfare_at_ne = n * symmetric_stage(game, w_star)?;
    let welfare_after = n * symmetric_stage(game, w_mal)?;
    Ok(MaliciousImpact { w_mal, welfare_at_ne, welfare_after })
}

#[cfg(test)]
mod tests {
    use super::*;
    use macgame_dcf::optimal::efficient_cw;

    fn game(n: usize) -> GameConfig {
        GameConfig::builder(n).build().unwrap()
    }

    fn w_star(g: &GameConfig) -> u32 {
        efficient_cw(g.player_count(), g.params(), g.utility(), g.w_max()).unwrap().window
    }

    #[test]
    fn lemma4_downward_deviation_order() {
        // W_i < W_k ⇒ U_others < U_sym < U_dev (stage payoffs).
        let g = game(5);
        let sym = symmetric_stage(&g, 100).unwrap();
        let stage = deviator_stage(&g, 100, 40).unwrap();
        assert!(stage.deviator > sym, "deviator {} vs sym {sym}", stage.deviator);
        assert!(stage.compliant < sym, "compliant {} vs sym {sym}", stage.compliant);
    }

    #[test]
    fn lemma4_upward_deviation_order() {
        // W_i > W_k ⇒ U_dev < U_sym < U_others.
        let g = game(5);
        let sym = symmetric_stage(&g, 100).unwrap();
        let stage = deviator_stage(&g, 100, 300).unwrap();
        assert!(stage.deviator < sym);
        assert!(stage.compliant > sym);
    }

    #[test]
    fn myopic_deviator_profits() {
        // δ_s → 0: only the first stage matters, so undercutting pays.
        let g = game(5);
        let ws = w_star(&g);
        let outcome = shortsighted_deviation(&g, ws, ws / 2, 1, 0.0).unwrap();
        assert!(outcome.profitable(), "gain = {}", outcome.gain());
        assert!(outcome.victim_payoff < outcome.deviant_payoff);
    }

    #[test]
    fn longsighted_deviator_does_not_profit() {
        // δ_s close to 1: the punished tail dominates; compliance wins.
        // The flat top around W_c* (the paper's robustness remark) lets a
        // one-step deviation keep a vanishing gain in the discrete strategy
        // space, so we assert gains are below ε·payoff rather than exactly
        // non-positive.
        let g = game(5);
        let ws = w_star(&g);
        for w_s in [1u32, ws / 4, ws / 2, ws - 1] {
            let outcome = shortsighted_deviation(&g, ws, w_s, 1, 0.9999).unwrap();
            let rel_gain = outcome.gain() / outcome.compliant_payoff;
            assert!(
                rel_gain < 1e-5,
                "W_s = {w_s} profitable for long-sighted player (relative gain {rel_gain})"
            );
        }
    }

    #[test]
    fn longsighted_optimum_is_w_star() {
        // For δ_s → 1 the optimal 'deviation' is (up to the flat top of the
        // discrete payoff curve) not to deviate.
        let g = game(5);
        let ws = w_star(&g);
        let best = optimal_shortsighted_deviation(&g, ws, 1, 0.9999).unwrap();
        assert!(best.w_s.abs_diff(ws) <= 2, "optimum {} vs W* = {ws}", best.w_s);
        let rel = best.gain() / best.compliant_payoff;
        assert!(rel < 1e-5, "relative gain {rel}");
    }

    #[test]
    fn myopic_optimum_is_aggressive() {
        let g = game(5);
        let ws = w_star(&g);
        let best = optimal_shortsighted_deviation(&g, ws, 1, 0.0).unwrap();
        assert!(best.w_s < ws / 2, "myopic optimum W_s = {} vs W* = {ws}", best.w_s);
    }

    #[test]
    fn sweep_matches_individual_deviations() {
        let g = game(5);
        let ws = w_star(&g);
        let sweep = deviation_sweep(&g, ws, 1, 0.5, 1).unwrap();
        assert_eq!(sweep.len(), ws as usize);
        for probe in [1u32, ws / 3, ws / 2, ws] {
            let one = shortsighted_deviation(&g, ws, probe, 1, 0.5).unwrap();
            let batched = &sweep[(probe - 1) as usize];
            assert_eq!(batched.w_s, probe);
            let scale = one.deviant_payoff.abs().max(1.0);
            assert!(
                (batched.deviant_payoff - one.deviant_payoff).abs() < 1e-6 * scale,
                "w_s = {probe}: sweep {} vs direct {}",
                batched.deviant_payoff,
                one.deviant_payoff
            );
            assert!((batched.victim_payoff - one.victim_payoff).abs() < 1e-6 * scale);
            assert!((batched.compliant_payoff - one.compliant_payoff).abs() < 1e-9 * scale);
        }
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let g = game(4);
        let serial = deviation_sweep(&g, 60, 1, 0.3, 1).unwrap();
        for threads in [2, 5] {
            let parallel = deviation_sweep(&g, 60, 1, 0.3, threads).unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn sweep_validation() {
        let g = game(5);
        assert!(deviation_sweep(&g, 0, 1, 0.5, 1).is_err());
        assert!(deviation_sweep(&g, 60, 0, 0.5, 1).is_err());
        assert!(deviation_sweep(&g, 60, 1, 1.0, 1).is_err());
        assert!(deviation_sweep(&game(1), 60, 1, 0.5, 1).is_err());
    }

    #[test]
    fn slower_reaction_makes_deviation_sweeter() {
        let g = game(5);
        let ws = w_star(&g);
        let quick = shortsighted_deviation(&g, ws, ws / 2, 1, 0.5).unwrap();
        let slow = shortsighted_deviation(&g, ws, ws / 2, 5, 0.5).unwrap();
        assert!(slow.deviant_payoff > quick.deviant_payoff);
    }

    #[test]
    fn malicious_player_degrades_welfare() {
        let g = game(5);
        let ws = w_star(&g);
        let impact = malicious_impact(&g, ws, ws / 4).unwrap();
        assert!(impact.remaining_fraction() < 1.0);
        assert!(!impact.collapsed());
    }

    #[test]
    fn malicious_window_one_destroys_most_welfare() {
        // With binary exponential backoff and g/e = 100, W = 1 does not
        // drive the welfare literally negative (backoff escalation keeps
        // p < 0.99), but it wipes out the bulk of it.
        let g = game(20);
        let ws = w_star(&g);
        let impact = malicious_impact(&g, ws, 1).unwrap();
        assert!(
            impact.remaining_fraction() < 0.5,
            "remaining fraction = {}",
            impact.remaining_fraction()
        );
    }

    #[test]
    fn sufficiently_malicious_window_collapses_network() {
        // For a denser network and a realistic energy cost the paralysis of
        // Section V.E is literal: (1−p)·g < e at W = 1 and welfare < 0.
        let g = GameConfig::builder(50)
            .utility(macgame_dcf::UtilityParams { gain: 1.0, cost: 0.1 })
            .build()
            .unwrap();
        let ws = w_star(&g);
        let impact = malicious_impact(&g, ws, 1).unwrap();
        assert!(impact.collapsed(), "welfare after = {}", impact.welfare_after);
    }

    /// The downward part of [`deviator_row`] as it was built before the
    /// chain moved to [`solve_one_deviator`]: `solve_classes_with_guess`
    /// on each deviator's [`Classes`], seeded within fixed
    /// `SWEEP_CHUNK` chunks as the node-level chain seeds. The row's
    /// upward probes were node-level [`deviator_stage`]s.
    fn reference_chain(game: &GameConfig, w: u32) -> Vec<f64> {
        use macgame_dcf::classes::ClassEquilibrium;
        use macgame_dcf::fixedpoint::solve_classes_with_guess;
        use macgame_dcf::parallel::SWEEP_CHUNK;
        let (n, params, utility) = (game.player_count(), game.params(), game.utility());
        let deviators: Vec<u32> = (1..w).collect();
        let mut row = Vec::new();
        for chunk in deviators.chunks(SWEEP_CHUNK) {
            let mut prev: Option<ClassEquilibrium> = None;
            for &w_s in chunk {
                let profile = Classes::new(vec![w_s, w], vec![1, n - 1]).unwrap();
                let seed = prev.as_ref().map(|eq| [eq.taus[0], eq.taus[1]]);
                let eq = solve_classes_with_guess(
                    &profile,
                    params,
                    SolveOptions::default(),
                    seed.as_ref().map(|seed| &seed[..]),
                )
                .unwrap();
                let pricing = one_deviator_utilities(
                    (eq.taus[0], eq.collision_probs[0]),
                    (eq.taus[1], eq.collision_probs[1]),
                    n,
                    params,
                    utility,
                );
                row.push(pricing[0]);
                prev = Some(eq);
            }
        }
        row
    }

    #[test]
    fn rows_are_the_node_level_reference_bit_for_bit() {
        use macgame_dcf::DcfParams;
        let bits = |row: &[f64]| row.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let populations = (2usize..=16).chain([100, 10_000]);
        for mode in [macgame_dcf::AccessMode::Basic, macgame_dcf::AccessMode::RtsCts] {
            let params = DcfParams::builder().access_mode(mode).build().unwrap();
            for n in populations.clone() {
                for w in [1u32, 2, 33, 64, 65, 128, 4095, 4096] {
                    let mut w_maxes = vec![w, w + 1, 2 * w, 4096];
                    w_maxes.sort_unstable();
                    w_maxes.dedup();
                    let mut chain = None;
                    for w_max in w_maxes {
                        let game =
                            GameConfig::builder(n).params(params).w_max(w_max).build().unwrap();
                        let mut expected =
                            chain.get_or_insert_with(|| reference_chain(&game, w)).clone();
                        for w_dev in upward_probes(&game, w) {
                            expected.push(deviator_stage(&game, w, w_dev).unwrap().deviator);
                        }
                        assert_eq!(
                            expected.len(),
                            w as usize - 1 + upward_probes(&game, w).count()
                        );
                        assert_eq!(
                            bits(&deviator_row(&game, w).unwrap()),
                            bits(&expected),
                            "{mode:?} n = {n}, w = {w}, w_max = {w_max}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn class_prices_are_the_class_profile_prices_bit_for_bit() {
        // The price path solves its one-deviator and symmetric profiles on
        // the stack; `solve_classes` on the `Classes` profile and
        // `class_utilities` must give the same rates.
        use macgame_dcf::fixedpoint::solve_classes;
        for n in [2usize, 3, 10, 1_000] {
            let g = game(n);
            let (params, utility) = (g.params(), g.utility());
            for (w_others, w_dev) in [(76u32, 20u32), (76, 76), (76, 300), (1, 4096), (4096, 1)] {
                let profile = Classes::new(vec![w_dev, w_others], vec![1, n - 1]).unwrap();
                let eq = solve_classes(&profile, params, SolveOptions::default()).unwrap();
                let rates =
                    class_utilities(&profile, &eq.taus, &eq.collision_probs, params, utility);
                let dev_class = usize::from(w_dev > w_others);
                let expected = [rates[dev_class], rates[rates.len() - 1 - dev_class]];
                let stage = class_deviator_stage(&g, w_others, w_dev).unwrap();
                assert_eq!(
                    [stage.deviator.to_bits(), stage.compliant.to_bits()],
                    expected.map(f64::to_bits),
                    "n = {n}, w_others = {w_others}, w_dev = {w_dev}"
                );
            }
        }
        assert!(class_deviator_stage(&game(1), 76, 20).is_err());
        assert!(class_deviator_stage(&game(5), 0, 20).is_err());
    }

    #[test]
    fn validation_errors() {
        let g = game(5);
        assert!(shortsighted_deviation(&g, 76, 38, 0, 0.5).is_err());
        assert!(shortsighted_deviation(&g, 76, 38, 1, 1.0).is_err());
        let solo = game(1);
        assert!(deviator_stage(&solo, 76, 38).is_err());
    }
}
