//! Typed analytic queries and query → evaluator routing.
//!
//! This is the domain half of the NE-as-a-service stack: `macgame-serve`
//! owns framing, batching, coalescing and transport, while this module
//! owns *what a query means* — each [`Query`] variant names one analytic
//! product of the paper (the efficient NE `W_c*`, the Theorem 2 NE
//! interval, a Section V.D short-sighted deviation payoff, one cell of a
//! robustness grid) and [`evaluate_query`] routes it to the evaluator
//! that computes it.
//!
//! Every route is a pure function of the query (no wall clock, no
//! entropy), so evaluation is deterministic: the same query always yields
//! the same [`QueryResult`], bitwise, which is what lets the serve layer
//! promise byte-identical reply streams under any thread count.
//!
//! Each query evaluates against a per-mode [`SolveCache`]
//! ([`SolveCaches`]) — one capacity-bounded cache per [`AccessMode`],
//! because cached solutions are only valid for the parameter set they
//! were computed under. The `W_c*` and NE-interval searches read its
//! `W_c*` memo, keyed by `(n, w_max, utility)`, whose misses search its
//! `(n, W)` symmetric points; the robustness check's stage table reads
//! its stage columns, keyed by `(n, cover, utility)` with `cover` the
//! window rounded up to a power of two; the check's one-deviator sweep
//! reads its deviator rows, keyed by `(n, W, w_max, utility)`, so cells
//! that differ only in reaction lag or ε share one sweep; and the cell's
//! two welfare stages read its class solutions. Those stages are
//! symmetric, but the `(n, W)` memo's `SymmetricSolution::utility`
//! differs from them in the last bits for most `(n, W)` (9 624 of 12 080
//! probes over both modes), so reading it instead would move the
//! `welfare_fraction` reply bytes. An EDCA query at burst
//! length above 1 reads the mode's [`EdcaStageMemo`], whose key leaves
//! out burst lengths above 1, so every such query at one `n` shares the
//! search's equilibria. All of them are the one sharded cache type,
//! [`macgame_dcf::cache::Memo`]. A deviation price solves its three
//! class profiles afresh: prices seldom repeat one, and a memo probe that
//! misses costs more than it saves.

use macgame_dcf::cache::SolveCache;
use macgame_dcf::fixedpoint::SolveOptions;
use macgame_dcf::{AccessMode, DcfParams, EdcaTuple};
use serde::{Deserialize, Serialize};

use crate::deviation::{shortsighted_deviation_classes, symmetric_stage_cached};
use crate::edca::{edca_wc_star, EdcaStageMemo};
use crate::equilibrium::{check_symmetric_ne_cached, efficient_ne_cached, ne_interval_cached};
use crate::error::GameError;
use crate::game::GameConfig;

/// One typed analytic query, the unit of the serve-layer batch protocol.
///
/// All variants are fully specified — there are no defaulted fields — so
/// a query's fields, with each `f64` taken as its bits, serve as its
/// cache/coalescing key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Query {
    /// The efficient symmetric NE window `W_c*` (paper Section V.B) for
    /// `players` nodes under `mode`, searched over `1..=w_max`.
    WcStar {
        /// Number of contending nodes.
        players: usize,
        /// Basic or RTS/CTS access.
        mode: AccessMode,
        /// Upper bound of the window strategy space.
        w_max: u32,
    },
    /// The efficient symmetric window at TXOP burst length `txop` — the
    /// EDCA tuple-space analog of [`Query::WcStar`] (AIFS 0, protocol
    /// stage cap). `txop = 1` is exactly `WcStar` and routes through the
    /// same scalar optimizer, so its answer is bitwise-identical.
    EdcaWcStar {
        /// Number of contending nodes.
        players: usize,
        /// Basic or RTS/CTS access.
        mode: AccessMode,
        /// TXOP burst length in frames (`1..=64`).
        txop: u32,
        /// Upper bound of the window strategy space.
        w_max: u32,
    },
    /// The Theorem 2 NE interval `[W_c⁰, W_c*]`.
    NeInterval {
        /// Number of contending nodes.
        players: usize,
        /// Basic or RTS/CTS access.
        mode: AccessMode,
        /// Upper bound of the window strategy space.
        w_max: u32,
    },
    /// A Section V.D short-sighted deviation payoff: one deviator drops
    /// from the common `w_star` to `w_dev` against a TFT crowd reacting
    /// after `reaction_stages`, discounting at `delta_s`.
    DeviationPayoff {
        /// Number of contending nodes.
        players: usize,
        /// Basic or RTS/CTS access.
        mode: AccessMode,
        /// The common (equilibrium) window being deviated from.
        w_star: u32,
        /// The deviator's window.
        w_dev: u32,
        /// TFT reaction lag in stages (≥ 1).
        reaction_stages: u32,
        /// The deviator's discount factor in `[0, 1)`.
        delta_s: f64,
    },
    /// One cell of an `(n, W)` robustness grid: is the common window
    /// still an ε-NE, and how much welfare does it retain relative to
    /// the efficient NE `W_c*`?
    RobustnessCell {
        /// Number of contending nodes.
        players: usize,
        /// Basic or RTS/CTS access.
        mode: AccessMode,
        /// The common window under test.
        window: u32,
        /// TFT reaction lag in stages (≥ 1).
        reaction_stages: u32,
        /// Relative NE tolerance (see [`crate::equilibrium::DEFAULT_NE_EPSILON`]).
        epsilon: f64,
    },
}

impl Query {
    /// The access mode this query evaluates under.
    #[must_use]
    pub fn mode(&self) -> AccessMode {
        match *self {
            Query::WcStar { mode, .. }
            | Query::EdcaWcStar { mode, .. }
            | Query::NeInterval { mode, .. }
            | Query::DeviationPayoff { mode, .. }
            | Query::RobustnessCell { mode, .. } => mode,
        }
    }
}

/// The result of evaluating one [`Query`], variant-matched to it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QueryResult {
    /// Answer to [`Query::WcStar`].
    WcStar {
        /// The efficient NE window `W_c*`.
        window: u32,
        /// The per-node stage utility rate at `W_c*` (per µs).
        utility: f64,
    },
    /// Answer to [`Query::EdcaWcStar`].
    EdcaWcStar {
        /// The efficient window at this burst length.
        window: u32,
        /// The per-node stage utility rate there (per µs).
        utility: f64,
        /// The burst length (echoed).
        txop: u32,
    },
    /// Answer to [`Query::NeInterval`].
    NeInterval {
        /// Lower end `W_c⁰` (break-even window).
        lower: u32,
        /// Upper end `W_c*` (efficient NE).
        upper: u32,
        /// Number of windows in the closed interval.
        count: u32,
    },
    /// Answer to [`Query::DeviationPayoff`].
    DeviationPayoff {
        /// The deviator's window (echoed).
        w_s: u32,
        /// Deviator's total discounted payoff under the deviation.
        deviant_payoff: f64,
        /// Deviator's payoff had it complied with `w_star`.
        compliant_payoff: f64,
        /// Each victim's discounted payoff while the deviation plays out.
        victim_payoff: f64,
        /// `deviant_payoff - compliant_payoff`.
        gain: f64,
        /// Whether the deviation strictly profits.
        profitable: bool,
    },
    /// Answer to [`Query::RobustnessCell`].
    RobustnessCell {
        /// The window under test (echoed).
        window: u32,
        /// Whether the window is an ε-NE.
        is_ne: bool,
        /// The most profitable deviation window, if any deviation gains.
        best_deviation_window: Option<u32>,
        /// That deviation's discounted gain, if any.
        best_deviation_gain: Option<f64>,
        /// Per-node stage welfare at `window` relative to `W_c*`.
        welfare_fraction: f64,
    },
}

/// One sharded [`SolveCache`] and one [`EdcaStageMemo`] per
/// [`AccessMode`]: cached solutions are only valid for the DCF parameter
/// set they were computed under, and the query space spans both channel
/// models.
#[derive(Debug)]
pub struct SolveCaches {
    basic: SolveCache,
    rtscts: SolveCache,
    edca_basic: EdcaStageMemo,
    edca_rtscts: EdcaStageMemo,
}

impl SolveCaches {
    /// Builds one bounded cache and one bounded EDCA memo per access mode
    /// (Table I default parameters, default solver options); `capacity`
    /// is the per-mode resident bound of each memo, with `0` the
    /// documented no-op cache — see [`SolveCache::with_capacity`].
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation failures.
    pub fn with_capacity(capacity: usize) -> Result<Self, GameError> {
        let basic = DcfParams::builder().access_mode(AccessMode::Basic).build()?;
        let rtscts = DcfParams::builder().access_mode(AccessMode::RtsCts).build()?;
        Ok(SolveCaches {
            basic: SolveCache::with_capacity(basic, SolveOptions::default(), capacity),
            rtscts: SolveCache::with_capacity(rtscts, SolveOptions::default(), capacity),
            edca_basic: EdcaStageMemo::new(basic, Some(capacity)),
            edca_rtscts: EdcaStageMemo::new(rtscts, Some(capacity)),
        })
    }

    /// The cache bound to `mode`'s parameters.
    #[must_use]
    pub fn for_mode(&self, mode: AccessMode) -> &SolveCache {
        match mode {
            AccessMode::Basic => &self.basic,
            AccessMode::RtsCts => &self.rtscts,
        }
    }

    /// The EDCA equilibrium memo bound to `mode`'s parameters.
    fn edca_for_mode(&self, mode: AccessMode) -> &EdcaStageMemo {
        match mode {
            AccessMode::Basic => &self.edca_basic,
            AccessMode::RtsCts => &self.edca_rtscts,
        }
    }

    /// Aggregate `(hits, misses, evictions)` across both caches.
    #[must_use]
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.basic.memo().hits() + self.rtscts.memo().hits(),
            self.basic.memo().misses() + self.rtscts.memo().misses(),
            self.basic.memo().evictions() + self.rtscts.memo().evictions(),
        )
    }
}

/// Builds the game a query evaluates on. `w_max` is the strategy-space
/// bound for the interval/optimum searches; deviation and robustness
/// queries use the default bound.
fn game_for(players: usize, mode: AccessMode, w_max: Option<u32>) -> Result<GameConfig, GameError> {
    let params = DcfParams::builder().access_mode(mode).build()?;
    let mut builder = GameConfig::builder(players);
    builder.params(params);
    if let Some(w_max) = w_max {
        builder.w_max(w_max);
    }
    builder.build()
}

/// Routes one [`Query`] to its evaluator. Pure and deterministic: the
/// same query yields the same result bitwise, with or without cache hits
/// (a [`SolveCache`] hit shares the solution a fresh solve would have
/// produced).
///
/// # Errors
///
/// Returns [`GameError::InvalidConfig`] for out-of-range query fields;
/// propagates solver failures.
pub fn evaluate_query(query: &Query, caches: &SolveCaches) -> Result<QueryResult, GameError> {
    let cache = caches.for_mode(query.mode());
    match *query {
        Query::WcStar { players, mode, w_max } => {
            let game = game_for(players, mode, Some(w_max))?;
            let ne = efficient_ne_cached(&game, cache)?;
            Ok(QueryResult::WcStar { window: ne.window, utility: ne.utility })
        }
        Query::EdcaWcStar { players, mode, txop, w_max } => {
            let game = game_for(players, mode, Some(w_max))?;
            // Validate the burst length up front so both branches reject
            // out-of-range tuples with a structured error.
            EdcaTuple::new(1, game.params().max_backoff_stage(), 0, txop)?;
            if txop == 1 {
                // Degenerate burst: this *is* WcStar; reuse the scalar
                // optimizer so the two queries agree bitwise.
                let ne = efficient_ne_cached(&game, cache)?;
                return Ok(QueryResult::EdcaWcStar {
                    window: ne.window,
                    utility: ne.utility,
                    txop,
                });
            }
            let (window, utility) = edca_wc_star(&game, txop, caches.edca_for_mode(mode))?;
            Ok(QueryResult::EdcaWcStar { window, utility, txop })
        }
        Query::NeInterval { players, mode, w_max } => {
            let game = game_for(players, mode, Some(w_max))?;
            let interval = ne_interval_cached(&game, cache)?;
            Ok(QueryResult::NeInterval {
                lower: interval.lower,
                upper: interval.upper,
                count: interval.count(),
            })
        }
        Query::DeviationPayoff { players, mode, w_star, w_dev, reaction_stages, delta_s } => {
            let game = game_for(players, mode, None)?;
            let outcome =
                shortsighted_deviation_classes(&game, w_star, w_dev, reaction_stages, delta_s)?;
            Ok(QueryResult::DeviationPayoff {
                w_s: outcome.w_s,
                deviant_payoff: outcome.deviant_payoff,
                compliant_payoff: outcome.compliant_payoff,
                victim_payoff: outcome.victim_payoff,
                gain: outcome.gain(),
                profitable: outcome.profitable(),
            })
        }
        Query::RobustnessCell { players, mode, window, reaction_stages, epsilon } => {
            let game = game_for(players, mode, None)?;
            let check = check_symmetric_ne_cached(&game, window, reaction_stages, epsilon, cache)?;
            let star = efficient_ne_cached(&game, cache)?;
            let at_window = symmetric_stage_cached(&game, window, cache)?;
            let at_star = symmetric_stage_cached(&game, star.window, cache)?;
            Ok(QueryResult::RobustnessCell {
                window,
                is_ne: check.is_ne,
                best_deviation_window: check.best_deviation.map(|(w, _)| w),
                best_deviation_gain: check.best_deviation.map(|(_, g)| g),
                welfare_fraction: at_window / at_star,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deviation::shortsighted_deviation;
    use crate::equilibrium::{efficient_ne, DEFAULT_NE_EPSILON};

    fn caches() -> SolveCaches {
        SolveCaches::with_capacity(1024).unwrap()
    }

    #[test]
    fn wc_star_matches_direct_evaluation() {
        let caches = caches();
        let q = Query::WcStar { players: 10, mode: AccessMode::Basic, w_max: 4096 };
        let QueryResult::WcStar { window, utility } = evaluate_query(&q, &caches).unwrap() else {
            panic!("variant mismatch");
        };
        let game = game_for(10, AccessMode::Basic, Some(4096)).unwrap();
        let direct = efficient_ne(&game).unwrap();
        assert_eq!(window, direct.window);
        assert_eq!(utility, direct.utility);
    }

    #[test]
    fn edca_wc_star_at_unit_burst_is_bitwise_wc_star() {
        let caches = caches();
        for mode in [AccessMode::Basic, AccessMode::RtsCts] {
            let scalar = Query::WcStar { players: 5, mode, w_max: 4096 };
            let QueryResult::WcStar { window, utility } = evaluate_query(&scalar, &caches).unwrap()
            else {
                panic!("variant mismatch");
            };
            let edca = Query::EdcaWcStar { players: 5, mode, txop: 1, w_max: 4096 };
            let QueryResult::EdcaWcStar { window: ew, utility: eu, txop } =
                evaluate_query(&edca, &caches).unwrap()
            else {
                panic!("variant mismatch");
            };
            assert_eq!(txop, 1);
            assert_eq!(ew, window);
            assert_eq!(eu.to_bits(), utility.to_bits(), "bitwise at {mode:?}");
        }
    }

    #[test]
    fn edca_wc_star_bursts_raise_the_optimal_utility() {
        let caches = caches();
        let at = |txop: u32| {
            let q = Query::EdcaWcStar { players: 5, mode: AccessMode::Basic, txop, w_max: 4096 };
            let QueryResult::EdcaWcStar { window, utility, .. } =
                evaluate_query(&q, &caches).unwrap()
            else {
                panic!("variant mismatch");
            };
            (window, utility)
        };
        let (w1, u1) = at(1);
        let (w4, u4) = at(4);
        assert!(u4 > u1, "burst optimum {u4} must beat single-frame {u1}");
        assert!(w1 >= 1 && w4 >= 1);
    }

    #[test]
    fn edca_wc_star_rejects_out_of_range_bursts() {
        let caches = caches();
        for txop in [0u32, 65] {
            let q = Query::EdcaWcStar { players: 5, mode: AccessMode::Basic, txop, w_max: 4096 };
            assert!(evaluate_query(&q, &caches).is_err(), "txop = {txop}");
        }
    }

    #[test]
    fn ne_interval_is_consistent_with_wc_star() {
        let caches = caches();
        let q = Query::NeInterval { players: 5, mode: AccessMode::RtsCts, w_max: 4096 };
        let QueryResult::NeInterval { lower, upper, count } = evaluate_query(&q, &caches).unwrap()
        else {
            panic!("variant mismatch");
        };
        assert!(lower <= upper);
        assert_eq!(count, upper - lower + 1);
        let wc = Query::WcStar { players: 5, mode: AccessMode::RtsCts, w_max: 4096 };
        let QueryResult::WcStar { window, .. } = evaluate_query(&wc, &caches).unwrap() else {
            panic!("variant mismatch");
        };
        assert_eq!(upper, window);
    }

    #[test]
    fn deviation_payoff_agrees_with_uncached_path() {
        let caches = caches();
        let q = Query::DeviationPayoff {
            players: 5,
            mode: AccessMode::Basic,
            w_star: 79,
            w_dev: 20,
            reaction_stages: 1,
            delta_s: 0.0,
        };
        let QueryResult::DeviationPayoff { deviant_payoff, compliant_payoff, profitable, .. } =
            evaluate_query(&q, &caches).unwrap()
        else {
            panic!("variant mismatch");
        };
        let game = game_for(5, AccessMode::Basic, None).unwrap();
        let direct = shortsighted_deviation(&game, 79, 20, 1, 0.0).unwrap();
        // Cached stages solve at class level, direct at node level — the
        // same fixed point, agreeing to solver tolerance.
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-12);
        assert!(rel(deviant_payoff, direct.deviant_payoff) < 1e-6);
        assert!(rel(compliant_payoff, direct.compliant_payoff) < 1e-6);
        assert_eq!(profitable, direct.profitable());
    }

    #[test]
    fn robustness_cell_at_the_efficient_ne_holds() {
        let caches = caches();
        let wc = Query::WcStar { players: 5, mode: AccessMode::Basic, w_max: 4096 };
        let QueryResult::WcStar { window: w_star, .. } = evaluate_query(&wc, &caches).unwrap()
        else {
            panic!("variant mismatch");
        };
        let q = Query::RobustnessCell {
            players: 5,
            mode: AccessMode::Basic,
            window: w_star,
            reaction_stages: 1,
            epsilon: DEFAULT_NE_EPSILON,
        };
        let QueryResult::RobustnessCell { is_ne, welfare_fraction, .. } =
            evaluate_query(&q, &caches).unwrap()
        else {
            panic!("variant mismatch");
        };
        assert!(is_ne, "W_c* must be an ε-NE");
        assert!((welfare_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn evaluation_is_bitwise_reproducible_and_uses_the_cache() {
        let caches = caches();
        let cell = Query::RobustnessCell {
            players: 6,
            mode: AccessMode::RtsCts,
            window: 40,
            reaction_stages: 2,
            epsilon: DEFAULT_NE_EPSILON,
        };
        let first = evaluate_query(&cell, &caches).unwrap();
        let (_, misses_after_first, _) = caches.counters();
        let second = evaluate_query(&cell, &caches).unwrap();
        let (hits, misses, _) = caches.counters();
        assert_eq!(first, second, "same query, same result, bitwise");
        assert_eq!(misses, misses_after_first, "revisit must not re-solve");
        assert!(hits > 0);
        // A price solves its class profiles afresh: repeatable bit for
        // bit, and it leaves the class memo as it found it.
        let price = Query::DeviationPayoff {
            players: 6,
            mode: AccessMode::RtsCts,
            w_star: 100,
            w_dev: 30,
            reaction_stages: 2,
            delta_s: 0.5,
        };
        let before = caches.counters();
        let resident = caches.for_mode(AccessMode::RtsCts).memo().len();
        let first = evaluate_query(&price, &caches).unwrap();
        assert_eq!(first, evaluate_query(&price, &caches).unwrap());
        assert_eq!(caches.counters(), before, "a price never probes the class memo");
        assert_eq!(caches.for_mode(AccessMode::RtsCts).memo().len(), resident);
    }

    #[test]
    fn deviation_price_is_the_bits_of_the_class_memo() {
        // The class memo stores solve_classes' bits, so a price read
        // through it is the price solved afresh.
        let caches = caches();
        let cache = caches.for_mode(AccessMode::Basic);
        let game = game_for(7, AccessMode::Basic, None).unwrap();
        for (w_star, w_dev) in [(90u32, 20u32), (90, 90), (50, 300)] {
            let q = Query::DeviationPayoff {
                players: 7,
                mode: AccessMode::Basic,
                w_star,
                w_dev,
                reaction_stages: 3,
                delta_s: 0.25,
            };
            let QueryResult::DeviationPayoff { deviant_payoff, victim_payoff, .. } =
                evaluate_query(&q, &caches).unwrap()
            else {
                panic!("variant mismatch");
            };
            let rate = |windows: Vec<u32>, counts: Vec<usize>, of: u32| {
                let profile = macgame_dcf::Classes::new(windows, counts).unwrap();
                let eq = cache.solve_class_profile(&profile).unwrap();
                let us = macgame_dcf::class_utilities(
                    &profile,
                    &eq.taus,
                    &eq.collision_probs,
                    game.params(),
                    game.utility(),
                );
                us[profile.keys().iter().position(|&w| w == of).unwrap()]
            };
            let (dev, crowd) = if w_dev == w_star {
                let r = rate(vec![w_star], vec![7], w_star);
                (r, r)
            } else {
                (
                    rate(vec![w_dev, w_star], vec![1, 6], w_dev),
                    rate(vec![w_dev, w_star], vec![1, 6], w_star),
                )
            };
            let after = symmetric_stage_cached(&game, w_dev, cache).unwrap();
            let t = game.stage_duration().value();
            let (head, tail) = crate::deviation::discount_split(0.25, 3).unwrap();
            assert_eq!(deviant_payoff.to_bits(), (t * (head * dev + tail * after)).to_bits());
            assert_eq!(victim_payoff.to_bits(), (t * (head * crowd + tail * after)).to_bits());
        }
    }

    #[test]
    fn invalid_queries_surface_errors_not_panics() {
        let caches = caches();
        let bad = [
            Query::WcStar { players: 0, mode: AccessMode::Basic, w_max: 4096 },
            Query::DeviationPayoff {
                players: 5,
                mode: AccessMode::Basic,
                w_star: 79,
                w_dev: 20,
                reaction_stages: 0,
                delta_s: 0.0,
            },
            Query::DeviationPayoff {
                players: 5,
                mode: AccessMode::Basic,
                w_star: 79,
                w_dev: 20,
                reaction_stages: 1,
                delta_s: 1.5,
            },
            Query::RobustnessCell {
                players: 5,
                mode: AccessMode::Basic,
                window: 0,
                reaction_stages: 1,
                epsilon: DEFAULT_NE_EPSILON,
            },
        ];
        for q in bad {
            assert!(evaluate_query(&q, &caches).is_err(), "{q:?}");
        }
    }

    #[test]
    fn queries_round_trip_through_json() {
        let q = Query::RobustnessCell {
            players: 20,
            mode: AccessMode::RtsCts,
            window: 64,
            reaction_stages: 2,
            epsilon: 1e-5,
        };
        let json = serde_json::to_string(&q).unwrap();
        let back: Query = serde_json::from_str(&json).unwrap();
        assert_eq!(q, back);
    }
}
