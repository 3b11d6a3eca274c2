//! The stage game lifted to the EDCA product strategy space
//! `(CWmin, m, AIFS, TXOP)` — Banchs-style multi-knob selfishness.
//!
//! The paper's machinery fixes the strategy space to the initial
//! contention window; Banchs et al. (*Thwarting Selfish Behavior in
//! 802.11 WLANs*) show a cheater has four knobs, every one of which buys
//! throughput at the crowd's expense. This module prices that cheating:
//! per-stage utilities with one tuple deviator against a symmetric crowd
//! ([`edca_deviator_stage`]), multiplicative cheating gains per knob
//! ([`edca_axis_sweep`]), best-response search over an explicit tuple
//! lattice ([`edca_best_response`]), and the paper's Section V.D TFT
//! head/tail pricing re-run over the `(CWmin, TXOP)` plane
//! ([`edca_plane_ne`]).
//!
//! Every stage rate routes through one memoized class-level EDCA solve
//! ([`EdcaStageMemo`]): a deviator profile collapses to at most two
//! classes, so lattice and plane scans pay `O(k)` per distinct profile
//! regardless of the player count, and profiles that differ only in
//! burst lengths above 1 share one equilibrium.

use std::sync::Arc;

use macgame_dcf::cache::Memo;
use macgame_dcf::fixedpoint::SolveOptions;
use macgame_dcf::markov::MAX_CW;
use macgame_dcf::{
    edca_utilities, solve_edca, Classes, DcfError, DcfParams, EdcaEquilibrium, EdcaTuple,
};
use serde::{Deserialize, Serialize};

use crate::deviation::{discount_split, DeviatorStage};
use crate::error::GameError;
use crate::game::GameConfig;

/// One knob of the EDCA tuple, for axis-wise sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdcaAxis {
    /// The initial contention window `CWmin` — selfish-ward is *down*.
    CwMin,
    /// The maximum backoff stage `m` — selfish-ward is *down* (a smaller
    /// cap keeps the window small after collisions).
    StageCap,
    /// The arbitration inter-frame space — selfish-ward is *down* (a
    /// smaller AIFS contends in more slots than the crowd).
    Aifs,
    /// The TXOP burst length — selfish-ward is *up* (more frames per won
    /// access).
    Txop,
}

impl EdcaAxis {
    /// `base` with this axis replaced by `value`, other knobs untouched.
    #[must_use]
    pub fn apply(self, base: EdcaTuple, value: u32) -> EdcaTuple {
        let mut tuple = base;
        match self {
            EdcaAxis::CwMin => tuple.cw_min = value,
            EdcaAxis::StageCap => tuple.stage_cap = value,
            EdcaAxis::Aifs => tuple.aifs = value,
            EdcaAxis::Txop => tuple.txop = value,
        }
        tuple
    }

    /// Stable lowercase name, used for artifact keys.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EdcaAxis::CwMin => "cw_min",
            EdcaAxis::StageCap => "stage_cap",
            EdcaAxis::Aifs => "aifs",
            EdcaAxis::Txop => "txop",
        }
    }
}

/// The part of a canonical tuple-keyed [`Classes`] its EDCA iteration reads:
/// each class's `(cw_min, stage_cap, aifs, txop > 1)` in profile order,
/// and the class counts. The burst length enters the iteration only
/// through the degeneracy test (`txop == 1`), so every profile that
/// differs from another only in burst lengths above 1 has the same
/// equilibrium, bit for bit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BurstFreeKey {
    classes: Vec<(u32, u32, u32, bool)>,
    counts: Vec<usize>,
}

impl BurstFreeKey {
    fn of(profile: &Classes<EdcaTuple>) -> Self {
        let classes =
            profile.keys().iter().map(|t| (t.cw_min, t.stage_cap, t.aifs, t.txop > 1)).collect();
        BurstFreeKey { classes, counts: profile.counts().to_vec() }
    }
}

/// Memo of class-level EDCA equilibria under one [`DcfParams`], keyed by
/// the burst-free part of the profile (each class's burst length only
/// as "1 or more"): lattice, plane and `W*` scans revisit the same
/// profiles, and burst lengths above 1 share one solve. It stores
/// equilibria, not utilities, so a hit is priced under the caller's own
/// burst lengths and [`macgame_dcf::UtilityParams`].
#[derive(Debug)]
pub struct EdcaStageMemo {
    params: DcfParams,
    memo: Memo<BurstFreeKey, Arc<EdcaEquilibrium>>,
}

impl EdcaStageMemo {
    /// An empty memo for games under `params`, holding at most `capacity`
    /// equilibria with [`Memo::new`]'s bound semantics (`None`
    /// unbounded), counting on the `core.edca.memo.*` telemetry counters.
    #[must_use]
    pub fn new(params: DcfParams, capacity: Option<usize>) -> Self {
        let memo = Memo::new(
            capacity,
            "core.edca.memo.hits",
            "core.edca.memo.misses",
            "core.edca.memo.evictions",
        );
        EdcaStageMemo { params, memo }
    }
}

/// Per-class stage utility rates (per µs) of `profile`, priced from its
/// memoized equilibrium.
fn class_rates(
    game: &GameConfig,
    profile: &Classes<EdcaTuple>,
    memo: &EdcaStageMemo,
) -> Result<Vec<f64>, GameError> {
    if memo.params != *game.params() {
        return Err(GameError::InvalidConfig(
            "EDCA stage memo is bound to different DCF parameters than the game".into(),
        ));
    }
    let eq = memo.memo.get_or_try_insert_with(&BurstFreeKey::of(profile), || {
        Ok::<_, GameError>(Arc::new(solve_edca(profile, game.params(), SolveOptions::default())?))
    })?;
    Ok(edca_utilities(profile, &eq, game.params(), game.utility()))
}

/// Stage utility rate (per µs) when all `n` players sit on `tuple` — the
/// product-space analog of [`crate::deviation::symmetric_stage`].
///
/// # Errors
///
/// Propagates solver and tuple-validation failures.
pub fn edca_symmetric_stage(
    game: &GameConfig,
    tuple: EdcaTuple,
    memo: &EdcaStageMemo,
) -> Result<f64, GameError> {
    let profile = Classes::new(vec![tuple], vec![game.player_count()])?;
    let rates = class_rates(game, &profile, memo)?;
    Ok(rates[0])
}

/// Stage utilities with one deviator on `dev` against `n − 1` players on
/// `sym` — the product-space analog of [`crate::deviation::deviator_stage`].
///
/// # Errors
///
/// Returns [`GameError::InvalidConfig`] for fewer than two players;
/// propagates solver and tuple-validation failures.
pub fn edca_deviator_stage(
    game: &GameConfig,
    sym: EdcaTuple,
    dev: EdcaTuple,
    memo: &EdcaStageMemo,
) -> Result<DeviatorStage, GameError> {
    let n = game.player_count();
    if n < 2 {
        return Err(GameError::InvalidConfig("deviation needs at least two players".into()));
    }
    if dev == sym {
        let rate = edca_symmetric_stage(game, sym, memo)?;
        return Ok(DeviatorStage { deviator: rate, compliant: rate });
    }
    let profile = Classes::new(vec![dev, sym], vec![1, n - 1])?;
    let rates = class_rates(game, &profile, memo)?;
    // Classes are in canonical tuple order; locate the deviator's class.
    let dev_class =
        profile.keys().iter().position(|t| *t == dev).ok_or_else(|| {
            GameError::InvalidConfig("deviator tuple missing from profile".into())
        })?;
    Ok(DeviatorStage { deviator: rates[dev_class], compliant: rates[1 - dev_class] })
}

/// One row of a per-knob cheating-gain sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdcaGainRow {
    /// The swept knob's value in this row.
    pub value: u32,
    /// The full deviator tuple (baseline with the knob replaced).
    pub deviator: EdcaTuple,
    /// Deviator's stage rate while the crowd still complies.
    pub deviator_rate: f64,
    /// Each compliant player's stage rate during the deviation.
    pub compliant_rate: f64,
    /// Multiplicative cheating gain vs the all-compliant baseline.
    pub gain: f64,
}

/// Sweeps one knob of the deviator's tuple over `values`, holding the
/// crowd at `sym` and the deviator's other knobs at `sym`'s — one slice
/// of the Banchs cheating-gain surface. Each row's gain is the
/// deviator's stage rate divided by its rate when everyone complies.
///
/// # Errors
///
/// Returns [`GameError::InvalidConfig`] if the compliant baseline rate is
/// not strictly positive (the ratio would be meaningless); propagates
/// solver failures.
pub fn edca_axis_sweep(
    game: &GameConfig,
    sym: EdcaTuple,
    axis: EdcaAxis,
    values: &[u32],
    memo: &EdcaStageMemo,
) -> Result<Vec<EdcaGainRow>, GameError> {
    let baseline = edca_symmetric_stage(game, sym, memo)?;
    if baseline <= 0.0 {
        return Err(GameError::InvalidConfig(
            "cheating gain needs a positive compliant baseline".into(),
        ));
    }
    values
        .iter()
        .map(|&value| {
            let deviator = axis.apply(sym, value);
            let during = edca_deviator_stage(game, sym, deviator, memo)?;
            Ok(EdcaGainRow {
                value,
                deviator,
                deviator_rate: during.deviator,
                compliant_rate: during.compliant,
                gain: during.deviator / baseline,
            })
        })
        .collect()
}

/// An explicit finite lattice of candidate tuples: the strategy space a
/// best-response search walks. Axes with a single value pin that knob.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdcaLattice {
    /// Candidate `CWmin` values.
    pub cw_mins: Vec<u32>,
    /// Candidate stage caps.
    pub stage_caps: Vec<u32>,
    /// Candidate AIFS values.
    pub aifs: Vec<u32>,
    /// Candidate TXOP burst lengths.
    pub txops: Vec<u32>,
}

impl EdcaLattice {
    /// All lattice points in deterministic nested order
    /// (`cw_min` outermost, `txop` innermost), validated.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidConfig`] when any axis is empty;
    /// propagates tuple-validation failures for out-of-range values.
    pub fn candidates(&self) -> Result<Vec<EdcaTuple>, GameError> {
        if self.cw_mins.is_empty()
            || self.stage_caps.is_empty()
            || self.aifs.is_empty()
            || self.txops.is_empty()
        {
            return Err(GameError::InvalidConfig("every lattice axis needs a value".into()));
        }
        let mut out =
            Vec::with_capacity(self.cw_mins.len() * self.stage_caps.len() * self.aifs.len());
        for &w in &self.cw_mins {
            for &m in &self.stage_caps {
                for &a in &self.aifs {
                    for &k in &self.txops {
                        out.push(EdcaTuple::new(w, m, a, k)?);
                    }
                }
            }
        }
        Ok(out)
    }
}

/// The best reply found by a lattice search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdcaBestResponse {
    /// The maximizing tuple (first maximizer in lattice order).
    pub tuple: EdcaTuple,
    /// Its stage rate against the compliant crowd.
    pub rate: f64,
    /// Its multiplicative cheating gain vs the all-compliant baseline.
    pub gain: f64,
}

/// Exhaustive best-response search over a tuple lattice: the deviator's
/// stage-rate argmax against a crowd pinned at `sym`. Ties resolve to the
/// first maximizer in lattice order (strict improvement required), so the
/// result is deterministic.
///
/// # Errors
///
/// Same conditions as [`edca_axis_sweep`] plus lattice validation.
pub fn edca_best_response(
    game: &GameConfig,
    sym: EdcaTuple,
    lattice: &EdcaLattice,
    memo: &EdcaStageMemo,
) -> Result<EdcaBestResponse, GameError> {
    let baseline = edca_symmetric_stage(game, sym, memo)?;
    if baseline <= 0.0 {
        return Err(GameError::InvalidConfig(
            "cheating gain needs a positive compliant baseline".into(),
        ));
    }
    let candidates = lattice.candidates()?;
    let mut best: Option<EdcaBestResponse> = None;
    for tuple in candidates {
        let during = edca_deviator_stage(game, sym, tuple, memo)?;
        let better = match &best {
            Some(b) => during.deviator > b.rate,
            None => true,
        };
        if better {
            best = Some(EdcaBestResponse {
                tuple,
                rate: during.deviator,
                gain: during.deviator / baseline,
            });
        }
    }
    // PANIC-POLICY: candidates() rejects empty axes — the search space is non-empty.
    Ok(best.expect("non-empty lattice always has a maximizer"))
}

/// The efficient symmetric window at TXOP burst length `txop` — the
/// product-space analog of [`crate::equilibrium::efficient_ne`], holding
/// AIFS at 0 and the stage cap at the protocol default. Returns the
/// maximizing window and the per-node stage utility rate (per µs) there.
///
/// Uses the same exponential-bracket / ternary-cut / local-sweep search as
/// the scalar optimizer, over the same `1..=min(w_max, MAX_CW)`: the
/// symmetric utility is unimodal in `W` for any fixed burst length (the
/// burst only rescales the success term). As there, an argmax at
/// `MAX_CW` is a boundary of the model, not an answer.
///
/// # Errors
///
/// Returns [`GameError::InvalidConfig`] for an out-of-range burst length
/// (via tuple validation) or a memo bound to other parameters,
/// [`DcfError::WindowCapReached`] if the argmax is `MAX_CW`; propagates
/// solver failures.
pub fn edca_wc_star(
    game: &GameConfig,
    txop: u32,
    memo: &EdcaStageMemo,
) -> Result<(u32, f64), GameError> {
    let m = game.params().max_backoff_stage();
    // No window past MAX_CW has an operating point.
    let w_max = game.w_max().min(MAX_CW);
    let u_at = |w: u32| -> Result<f64, GameError> {
        edca_symmetric_stage(game, EdcaTuple::new(w, m, 0, txop)?, memo)
    };
    if game.player_count() < 2 {
        // A lone node maximizes by transmitting as often as possible.
        let u = u_at(1)?;
        return Ok((1, u));
    }
    // Exponential bracketing: find where the utility stops improving.
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
    let mut hi = hi.min(w_max);
    let mut lo = 1u32;
    while hi - lo > 8 {
        let m1 = lo + (hi - lo) / 3;
        let m2 = hi - (hi - lo) / 3;
        if u_at(m1)? < u_at(m2)? {
            lo = m1 + 1;
        } else {
            hi = m2 - 1;
        }
    }
    // Final local sweep (widened to tolerate near-flat tops).
    let sweep_lo = lo.saturating_sub(8).max(1);
    let sweep_hi = (hi + 8).min(w_max);
    let mut best = (sweep_lo, f64::NEG_INFINITY);
    for w in sweep_lo..=sweep_hi {
        let u = u_at(w)?;
        if u > best.1 {
            best = (w, u);
        }
    }
    if best.0 == MAX_CW {
        let n = game.player_count();
        return Err(DcfError::WindowCapReached { n, cap: MAX_CW }.into());
    }
    Ok(best)
}

/// One cell of the `(CWmin, TXOP)` TFT-priced deviation plane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdcaPlaneCell {
    /// The deviator's `CWmin` in this cell.
    pub cw_min: u32,
    /// The deviator's TXOP burst length in this cell.
    pub txop: u32,
    /// Deviator's total discounted payoff under the deviation.
    pub deviant_payoff: f64,
    /// Deviator's total discounted payoff had it complied with `sym`.
    pub compliant_payoff: f64,
    /// Whether deviating strictly beats complying.
    pub profitable: bool,
}

/// Prices the Section V.D short-sighted deviation over a `(CWmin, TXOP)`
/// grid of deviant tuples: the deviator plays the cell's tuple for
/// `reaction_stages` stages, after which the TFT crowd retaliates by
/// matching it (exactly the scalar model's punishment, lifted to the
/// plane), discounting at `delta_s`:
///
/// ```text
/// U_s = (1 − δ_s^r)/(1 − δ_s) · u_s(dev | crowd at sym)
///     +        δ_s^r/(1 − δ_s) · u_s(dev | crowd at dev)
/// ```
///
/// versus `U_s⁰ = u(sym)/(1 − δ_s)` for compliance. The grid row/column
/// order follows `cw_mins` × `txops`, so the output is deterministic.
///
/// # Errors
///
/// Returns [`GameError::InvalidConfig`] for a reaction lag of zero or
/// above `i32::MAX`, an out-of-range discount, or an empty grid axis;
/// propagates solver and
/// tuple-validation failures.
#[allow(clippy::too_many_arguments)]
pub fn edca_plane_ne(
    game: &GameConfig,
    sym: EdcaTuple,
    cw_mins: &[u32],
    txops: &[u32],
    reaction_stages: u32,
    delta_s: f64,
    memo: &EdcaStageMemo,
) -> Result<Vec<EdcaPlaneCell>, GameError> {
    if reaction_stages == 0 {
        return Err(GameError::InvalidConfig("TFT reaction takes at least one stage".into()));
    }
    if !(0.0..1.0).contains(&delta_s) {
        return Err(GameError::InvalidConfig("deviator discount must be in [0, 1)".into()));
    }
    if cw_mins.is_empty() || txops.is_empty() {
        return Err(GameError::InvalidConfig("the deviation plane needs both axes".into()));
    }
    let t = game.stage_duration().value();
    let (head, tail) = discount_split(delta_s, reaction_stages)?;
    let at_star = edca_symmetric_stage(game, sym, memo)?;
    let compliant_payoff = t * at_star / (1.0 - delta_s);
    let mut cells = Vec::with_capacity(cw_mins.len() * txops.len());
    for &w in cw_mins {
        for &k in txops {
            let dev = EdcaTuple::new(w, sym.stage_cap, sym.aifs, k)?;
            let during = edca_deviator_stage(game, sym, dev, memo)?;
            let after = edca_symmetric_stage(game, dev, memo)?;
            let deviant_payoff = t * (head * during.deviator + tail * after);
            cells.push(EdcaPlaneCell {
                cw_min: w,
                txop: k,
                deviant_payoff,
                compliant_payoff,
                profitable: deviant_payoff > compliant_payoff,
            });
        }
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deviation::{deviator_stage, symmetric_stage};
    use macgame_dcf::AccessMode;
    use proptest::prelude::*;

    fn game(n: usize) -> GameConfig {
        GameConfig::builder(n).build().unwrap()
    }

    fn legacy(w: u32, game: &GameConfig) -> EdcaTuple {
        EdcaTuple::legacy(w, game.params()).unwrap()
    }

    fn rel(a: f64, b: f64) -> f64 {
        (a - b).abs() / b.abs().max(1e-12)
    }

    #[test]
    fn degenerate_stages_match_the_scalar_stage_game() {
        let g = game(5);
        let memo = EdcaStageMemo::new(*g.params(), None);
        let sym = legacy(76, &g);
        let dev = legacy(20, &g);
        let edca_sym = edca_symmetric_stage(&g, sym, &memo).unwrap();
        let scalar_sym = symmetric_stage(&g, 76).unwrap();
        assert!(rel(edca_sym, scalar_sym) < 1e-9, "{edca_sym} vs {scalar_sym}");
        let edca_dev = edca_deviator_stage(&g, sym, dev, &memo).unwrap();
        let scalar_dev = deviator_stage(&g, 76, 20).unwrap();
        assert!(rel(edca_dev.deviator, scalar_dev.deviator) < 1e-9);
        assert!(rel(edca_dev.compliant, scalar_dev.compliant) < 1e-9);
    }

    #[test]
    fn every_knob_pays_selfish_ward() {
        let g = game(5);
        let memo = EdcaStageMemo::new(*g.params(), None);
        let sym = EdcaTuple::new(76, g.params().max_backoff_stage(), 1, 1).unwrap();
        let gain = |axis: EdcaAxis, value: u32| {
            edca_axis_sweep(&g, sym, axis, &[value], &memo).unwrap()[0].gain
        };
        // Lower CWmin, lower AIFS, higher TXOP: each alone must gain.
        let cw = gain(EdcaAxis::CwMin, 16);
        assert!(cw > 1.0, "CWmin gain {cw}");
        let aifs = gain(EdcaAxis::Aifs, 0);
        assert!(aifs > 1.0, "AIFS gain {aifs}");
        let txop = gain(EdcaAxis::Txop, 8);
        assert!(txop > 1.0, "TXOP gain {txop}");
        // And the no-op deviation gains exactly 1.
        let noop = gain(EdcaAxis::CwMin, 76);
        assert!((noop - 1.0).abs() < 1e-12);
    }

    #[test]
    fn axis_sweep_rows_are_consistent() {
        let g = game(5);
        let memo = EdcaStageMemo::new(*g.params(), None);
        let sym = legacy(76, &g);
        let rows = edca_axis_sweep(&g, sym, EdcaAxis::Txop, &[1, 2, 4, 8], &memo).unwrap();
        assert_eq!(rows.len(), 4);
        for pair in rows.windows(2) {
            assert!(
                pair[1].gain >= pair[0].gain - 1e-12,
                "TXOP gain must not fall: {} then {}",
                pair[0].gain,
                pair[1].gain
            );
        }
        assert!((rows[0].gain - 1.0).abs() < 1e-9, "TXOP = 1 is the baseline");
        // The deviator's burst also helps the crowd a little less than it
        // helps the deviator.
        assert!(rows[3].deviator_rate > rows[3].compliant_rate);
    }

    #[test]
    fn memo_deduplicates_profiles() {
        let g = game(5);
        let memo = EdcaStageMemo::new(*g.params(), None);
        let sym = legacy(76, &g);
        let dev = legacy(20, &g);
        edca_deviator_stage(&g, sym, dev, &memo).unwrap();
        let misses = memo.memo.misses();
        edca_deviator_stage(&g, sym, dev, &memo).unwrap();
        edca_axis_sweep(&g, sym, EdcaAxis::CwMin, &[dev.cw_min], &memo).unwrap();
        assert_eq!(memo.memo.misses(), misses + 1, "only the symmetric baseline is new");
        assert!(memo.memo.hits() >= 2);
    }

    #[test]
    fn best_response_picks_the_most_selfish_corner() {
        let g = game(5);
        let memo = EdcaStageMemo::new(*g.params(), None);
        let m = g.params().max_backoff_stage();
        let sym = EdcaTuple::new(76, m, 1, 1).unwrap();
        let lattice = EdcaLattice {
            cw_mins: vec![16, 76],
            stage_caps: vec![m],
            aifs: vec![0, 1],
            txops: vec![1, 4],
        };
        let br = edca_best_response(&g, sym, &lattice, &memo).unwrap();
        assert_eq!(br.tuple, EdcaTuple::new(16, m, 0, 4).unwrap());
        assert!(br.gain > 1.0);
        // Solves are shared across the 8 candidates and the baseline.
        assert!(memo.memo.misses() <= 9);
    }

    #[test]
    fn plane_ne_prices_patience_like_the_scalar_model() {
        let g = game(5);
        let memo = EdcaStageMemo::new(*g.params(), None);
        let sym = legacy(79, &g);
        let cw_mins = [20u32, 79];
        let txops = [1u32, 4];
        // A fully myopic deviator profits somewhere on the plane…
        let myopic = edca_plane_ne(&g, sym, &cw_mins, &txops, 1, 0.0, &memo).unwrap();
        assert_eq!(myopic.len(), 4);
        assert!(myopic.iter().any(|c| c.profitable), "myopic cheating must pay");
        // …a long-sighted one does not (TFT retaliation eats the gain on
        // the CW axis, and matching bursts keep TXOP from strictly
        // helping a patient deviator).
        let patient = edca_plane_ne(&g, sym, &[20], &[1], 1, 0.999, &memo).unwrap();
        assert!(!patient[0].profitable, "patient CW undercut must not pay");
        // The compliant corner (sym itself) never strictly profits.
        let corner = myopic.iter().find(|c| c.cw_min == 79 && c.txop == 1).unwrap();
        assert!(!corner.profitable);
    }

    #[test]
    fn wc_star_search_matches_scalar_and_improves_with_bursts() {
        let g = game(5);
        let memo = EdcaStageMemo::new(*g.params(), None);
        let (w1, u1) = edca_wc_star(&g, 1, &memo).unwrap();
        let scalar = crate::equilibrium::efficient_ne(&g).unwrap();
        // Class-level and dense utilities agree to solver tolerance, so on
        // the near-flat top the argmax can land a step or two away.
        assert!(
            (i64::from(w1) - i64::from(scalar.window)).abs() <= 2,
            "edca {w1} vs scalar {}",
            scalar.window
        );
        assert!(rel(u1, scalar.utility) < 1e-6);
        // Bursts amortize contention overhead: the crowd-optimal utility
        // strictly improves with TXOP.
        let (w4, u4) = edca_wc_star(&g, 4, &memo).unwrap();
        assert!(u4 > u1, "{u4} vs {u1}");
        assert!(w4 >= 1);
        assert!(edca_wc_star(&g, 0, &memo).is_err());
    }

    #[test]
    fn wc_star_search_stops_at_the_largest_window() {
        // As the scalar search: a bound past MAX_CW answers as MAX_CW.
        let at = |w_max: u32| {
            let mut builder = GameConfig::builder(50_000);
            builder.w_max(w_max);
            let g = builder.build().unwrap();
            let (w, u) = edca_wc_star(&g, 2, &EdcaStageMemo::new(*g.params(), None)).unwrap();
            (w, u.to_bits())
        };
        assert_eq!(at(u32::MAX), at(MAX_CW));
    }

    #[test]
    fn bursts_above_one_share_one_equilibrium() {
        let g = game(5);
        let memo = EdcaStageMemo::new(*g.params(), None);
        let m = g.params().max_backoff_stage();
        let at = |txop: u32| {
            edca_symmetric_stage(&g, EdcaTuple::new(76, m, 0, txop).unwrap(), &memo).unwrap()
        };
        let (single, burst) = (at(1), at(2));
        assert_eq!(memo.memo.misses(), 2, "txop 1 is the degenerate model, txop 2 is not");
        let longer = at(16);
        assert_eq!((memo.memo.misses(), memo.memo.hits()), (2, 1), "16 reads 2's solve");
        assert!(longer > burst && burst > single, "{single} < {burst} < {longer}");
    }

    #[test]
    fn memo_is_bound_to_its_parameters() {
        let g = game(5);
        let rtscts = DcfParams::builder().access_mode(AccessMode::RtsCts).build().unwrap();
        let memo = EdcaStageMemo::new(rtscts, None);
        let sym = legacy(76, &g);
        assert!(edca_symmetric_stage(&g, sym, &memo).is_err());
        assert!(edca_wc_star(&g, 4, &memo).is_err());
        assert!(memo.memo.is_empty(), "a rejected game stores nothing");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A memo hit for any profile is the equilibrium a fresh
        /// `solve_edca` of that very profile gives, and so are its rates:
        /// the memo is first primed with a sibling whose every burst above
        /// 1 is another burst above 1.
        #[test]
        fn burst_free_hits_are_fresh_solves(
            classes in prop::collection::vec(
                ((1u32..300, 0u32..=7, 0u32..4), (1u32..=64, 1usize..6, 2u32..=64)),
                1..=3,
            ),
            rtscts in 0u32..2,
        ) {
            let mode = if rtscts == 1 { AccessMode::RtsCts } else { AccessMode::Basic };
            let params = DcfParams::builder().access_mode(mode).build().unwrap();
            let mut builder = GameConfig::builder(5);
            builder.params(params);
            let g = builder.build().unwrap();
            type Class = ((u32, u32, u32), (u32, usize, u32));
            let tuple = |&((w, m, a), (k, _, _)): &Class| EdcaTuple::new(w, m, a, k).unwrap();
            let counts: Vec<usize> = classes.iter().map(|c| c.1 .1).collect();
            let profile =
                Classes::new(classes.iter().map(tuple).collect(), counts.clone()).unwrap();
            let sibling_tuples = classes
                .iter()
                .map(|c| {
                    let mut t = tuple(c);
                    if t.txop > 1 {
                        t.txop = c.1 .2;
                    }
                    t
                })
                .collect();
            let sibling = Classes::new(sibling_tuples, counts).unwrap();
            let memo = EdcaStageMemo::new(params, None);
            let primed = class_rates(&g, &sibling, &memo);
            let hits = memo.memo.hits();
            let got = class_rates(&g, &profile, &memo);
            match solve_edca(&profile, &params, SolveOptions::default()) {
                Ok(fresh) => {
                    let want = edca_utilities(&profile, &fresh, &params, g.utility());
                    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&got.unwrap()), bits(&want));
                    let key = BurstFreeKey::of(&profile);
                    if key == BurstFreeKey::of(&sibling) && primed.is_ok() {
                        prop_assert_eq!(memo.memo.hits(), hits + 1, "the sibling's solve");
                    }
                    let stored = memo.memo.get(&key).unwrap();
                    prop_assert_eq!(&*stored, &fresh);
                }
                Err(_) => prop_assert!(got.is_err()),
            }
        }
    }

    #[test]
    fn wc_star_search_refuses_the_window_cap() {
        for w_max in [MAX_CW, 1 << 21] {
            let mut builder = GameConfig::builder(70_000);
            builder.w_max(w_max);
            let g = builder.build().unwrap();
            let got = edca_wc_star(&g, 2, &EdcaStageMemo::new(*g.params(), None));
            let capped = DcfError::WindowCapReached { n: 70_000, cap: MAX_CW };
            assert_eq!(got, Err(GameError::Model(capped)), "w_max {w_max}");
        }
    }

    #[test]
    fn invalid_inputs_surface_errors() {
        let g = game(5);
        let memo = EdcaStageMemo::new(*g.params(), None);
        let sym = legacy(76, &g);
        assert!(edca_plane_ne(&g, sym, &[20], &[1], 0, 0.0, &memo).is_err());
        assert!(edca_plane_ne(&g, sym, &[20], &[1], 1, 1.0, &memo).is_err());
        assert!(edca_plane_ne(&g, sym, &[], &[1], 1, 0.0, &memo).is_err());
        let empty =
            EdcaLattice { cw_mins: vec![], stage_caps: vec![5], aifs: vec![0], txops: vec![1] };
        assert!(edca_best_response(&g, sym, &empty, &memo).is_err());
        let single = game(1);
        assert!(edca_deviator_stage(&single, sym, sym, &memo).is_err());
    }
}
