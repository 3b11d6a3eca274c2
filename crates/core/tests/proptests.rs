//! Property-based tests of the game layer: the paper's ordering lemmas on
//! random profiles, TFT dynamics, and deviation pricing.

use macgame_core::deviation::shortsighted_deviation;
use macgame_core::edca::{edca_axis_sweep, EdcaAxis, EdcaStageMemo};
use macgame_core::equilibrium::DEFAULT_NE_EPSILON;
use macgame_core::evaluator::AnalyticalEvaluator;
use macgame_core::generalized::FiniteGame;
use macgame_core::history::{History, StageRecord};
use macgame_core::lemmas::{lemma4_report, verify_lemma1};
use macgame_core::population::{replicator, PopulationState};
use macgame_core::queries::{evaluate_query, Query, QueryResult, SolveCaches};
use macgame_core::ratecontrol::{rate_game, rate_set_80211b, RateMbps};
use macgame_core::strategy::{GenerousTft, Strategy, Tft};
use macgame_core::tournament::TournamentResult;
use macgame_core::{GameConfig, RepeatedGame};
use macgame_dcf::AccessMode;
use proptest::prelude::*;

fn game(n: usize) -> GameConfig {
    GameConfig::builder(n).build().unwrap()
}

fn record(observed: Vec<u32>) -> StageRecord {
    let n = observed.len();
    StageRecord { windows: observed.clone(), observed, utilities: vec![0.0; n] }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lemma1_holds_on_random_profiles(
        windows in prop::collection::vec(1u32..1024, 2..7),
    ) {
        let g = game(windows.len());
        let verdict = verify_lemma1(&g, &windows).unwrap();
        prop_assert!(verdict.is_ok(), "violation {:?}", verdict.unwrap_err());
    }

    #[test]
    fn lemma4_ordering_on_random_deviations(
        w_k in 4u32..512,
        frac in 0.1f64..3.0,
        n in 3usize..8,
    ) {
        let w_dev = ((f64::from(w_k) * frac) as u32).max(1);
        let g = game(n);
        let report = lemma4_report(&g, w_k, w_dev).unwrap();
        prop_assert!(report.ordered(w_dev, w_k), "w_k={w_k} w_dev={w_dev}: {report:?}");
    }

    #[test]
    fn tft_matches_min_of_any_observation(
        observed in prop::collection::vec(1u32..4096, 2..8),
    ) {
        let g = game(observed.len());
        let mut tft = Tft::new(64);
        let mut h = History::new();
        let min = *observed.iter().min().unwrap();
        h.push(record(observed));
        prop_assert_eq!(tft.next_window(0, &g, &h).unwrap(), min.clamp(1, g.w_max()));
    }

    #[test]
    fn gtft_never_fires_on_uniform_play(
        w in 1u32..4096,
        r0 in 1usize..6,
        beta in 0.5f64..1.0,
        stages in 1usize..6,
    ) {
        let g = game(3);
        let mut gtft = GenerousTft::try_new(w, r0, beta).unwrap();
        let mut h = History::new();
        for _ in 0..stages {
            h.push(record(vec![w.clamp(1, g.w_max()); 3]));
        }
        prop_assert_eq!(gtft.next_window(0, &g, &h).unwrap(), w.clamp(1, g.w_max()));
    }

    #[test]
    fn tft_play_converges_to_min_initial(
        initials in prop::collection::vec(2u32..512, 2..6),
    ) {
        let g = game(initials.len());
        let players: Vec<Box<dyn Strategy>> =
            initials.iter().map(|&w| Box::new(Tft::new(w)) as Box<dyn Strategy>).collect();
        let evaluator = Box::new(AnalyticalEvaluator::new(g.clone()));
        let mut rg = RepeatedGame::new(g, players, evaluator).unwrap();
        rg.play(3).unwrap();
        let expect = *initials.iter().min().unwrap();
        prop_assert_eq!(rg.history().converged_window(), Some(expect));
        prop_assert!(rg.history().convergence_stage().unwrap() <= 1);
    }

    #[test]
    fn deviation_gain_monotone_in_reaction_lag(
        n in 3usize..8,
        delta in 0.1f64..0.95,
    ) {
        let g = game(n);
        let ne = macgame_core::equilibrium::efficient_ne(&g).unwrap();
        let w_s = (ne.window / 2).max(1);
        let fast = shortsighted_deviation(&g, ne.window, w_s, 1, delta).unwrap();
        let slow = shortsighted_deviation(&g, ne.window, w_s, 4, delta).unwrap();
        prop_assert!(slow.deviant_payoff >= fast.deviant_payoff - 1e-9);
    }

    #[test]
    fn discounted_history_bounded_by_undiscounted(
        utilities in prop::collection::vec(0.0f64..100.0, 1..20),
        delta in 0.0f64..0.999,
    ) {
        let mut h = History::new();
        for &u in &utilities {
            h.push(StageRecord { windows: vec![8], observed: vec![8], utilities: vec![u] });
        }
        let disc = h.discounted_utility(0, delta);
        let plain: f64 = utilities.iter().sum();
        prop_assert!(disc <= plain + 1e-9);
        prop_assert!(disc >= utilities[0] - 1e-9);
    }

    #[test]
    fn br_dynamics_fixed_points_are_nash(
        payoffs in prop::collection::vec(0.0f64..10.0, 16),
        start in prop::collection::vec(0usize..4, 2),
    ) {
        // Random 2-player 4-action game from a shared payoff table.
        let table = payoffs.clone();
        let g = FiniteGame::new(2, vec![0u8, 1, 2, 3], move |i, p| {
            let (me, other) = (p[i], p[1 - i]);
            table[me * 4 + other]
        })
        .unwrap();
        let out = g.best_response_dynamics(&start, 50);
        if out.converged {
            prop_assert!(g.is_pure_nash(&out.profile));
        }
    }

    #[test]
    fn rate_game_fast_is_always_best_response(
        n in 2usize..8,
        w in 8u32..256,
        profile_seed in 0usize..1000,
    ) {
        let params = macgame_dcf::DcfParams::builder()
            .access_mode(macgame_dcf::AccessMode::RtsCts)
            .build()
            .unwrap();
        let g = rate_game(
            n,
            w,
            &params,
            &macgame_dcf::UtilityParams::default(),
            rate_set_80211b(),
        )
        .unwrap();
        let profile: Vec<usize> = (0..n).map(|i| (profile_seed + i) % 4).collect();
        for i in 0..n {
            prop_assert_eq!(g.best_response(i, &profile), 3, "profile {:?}", profile);
        }
    }

    #[test]
    fn rate_utilities_increase_with_any_speedup(
        n in 2usize..6,
        w in 8u32..128,
        who in 0usize..6,
    ) {
        let who = who % n;
        let params = macgame_dcf::DcfParams::builder()
            .access_mode(macgame_dcf::AccessMode::RtsCts)
            .build()
            .unwrap();
        let g = rate_game(
            n,
            w,
            &params,
            &macgame_dcf::UtilityParams::default(),
            vec![RateMbps(1.0), RateMbps(11.0)],
        )
        .unwrap();
        // Upgrading any single node from slow to fast raises *everyone's*
        // utility (pure positive externality).
        let slow = vec![0usize; n];
        let mut upgraded = slow.clone();
        upgraded[who] = 1;
        for i in 0..n {
            prop_assert!(g.utility_of(i, &upgraded) > g.utility_of(i, &slow));
        }
    }

    #[test]
    fn replicator_preserves_the_simplex(
        scores in prop::collection::vec(0.1f64..100.0, 9),
        generations in 1usize..100,
    ) {
        let t = TournamentResult {
            names: vec!["a".into(), "b".into(), "c".into()],
            scores: scores.chunks(3).map(<[f64]>::to_vec).collect(),
            stages: 1,
        };
        let trace = replicator(&t, &PopulationState::uniform(3), generations).unwrap();
        for state in &trace.generations {
            let total: f64 = state.shares.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            prop_assert!(state.shares.iter().all(|&s| (0.0..=1.0 + 1e-12).contains(&s)));
        }
    }

    #[test]
    fn replicator_eliminates_strictly_dominated_strategies(
        base in prop::collection::vec(1.0f64..50.0, 4),
        margin in 0.5f64..10.0,
    ) {
        // Row 1 = row 0 + margin entrywise: strategy 0 is strictly
        // dominated and must shrink.
        let t = TournamentResult {
            names: vec!["dominated".into(), "dominant".into()],
            scores: vec![
                vec![base[0], base[1]],
                vec![base[0] + margin, base[1] + margin],
            ],
            stages: 1,
        };
        let trace = replicator(&t, &PopulationState::uniform(2), 300).unwrap();
        prop_assert!(trace.final_state().shares[0] < 0.5);
        prop_assert_eq!(trace.final_state().dominant(), 1);
    }
}

/// Cheating gain of the deviation that moves `axis` to `value`, the crowd
/// pinned on `sym`.
fn knob_gain(
    g: &GameConfig,
    sym: macgame_dcf::EdcaTuple,
    axis: EdcaAxis,
    value: u32,
    memo: &EdcaStageMemo,
) -> f64 {
    edca_axis_sweep(g, sym, axis, &[value], memo).unwrap()[0].gain
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The Banchs selfishness direction, property-checked: moving any
    // single knob further selfish-ward (lower CWmin, lower AIFS, higher
    // TXOP) never *decreases* the deviator's cheating gain. Domains stay
    // in the paper's moderate-congestion regime (small n, crowd windows
    // well above the efficient scale) where stage rates are positive.

    #[test]
    fn edca_gain_monotone_in_cw_min(
        n in 3usize..7,
        w_sym in 32u32..200,
        lo in 8u32..128,
        step in 1u32..128,
    ) {
        let g = game(n);
        let m = g.params().max_backoff_stage();
        let sym = macgame_dcf::EdcaTuple::new(w_sym, m, 1, 1).unwrap();
        let memo = EdcaStageMemo::new(*g.params(), None);
        let g_lo = knob_gain(&g, sym, EdcaAxis::CwMin, lo, &memo);
        let g_hi = knob_gain(&g, sym, EdcaAxis::CwMin, lo + step, &memo);
        prop_assert!(
            g_lo >= g_hi - 1e-9,
            "CWmin {lo} gains {g_lo} < CWmin {} gains {g_hi}", lo + step
        );
    }

    #[test]
    fn edca_gain_monotone_in_aifs(
        n in 3usize..7,
        w_sym in 32u32..200,
        sym_aifs in 0u32..3,
        a_lo in 0u32..5,
        extra in 1u32..4,
    ) {
        let g = game(n);
        let m = g.params().max_backoff_stage();
        let sym = macgame_dcf::EdcaTuple::new(w_sym, m, sym_aifs, 1).unwrap();
        let memo = EdcaStageMemo::new(*g.params(), None);
        let g_lo = knob_gain(&g, sym, EdcaAxis::Aifs, a_lo, &memo);
        let g_hi = knob_gain(&g, sym, EdcaAxis::Aifs, a_lo + extra, &memo);
        prop_assert!(
            g_lo >= g_hi - 1e-9,
            "AIFS {a_lo} gains {g_lo} < AIFS {} gains {g_hi}", a_lo + extra
        );
    }

    #[test]
    fn edca_gain_monotone_in_txop(
        n in 3usize..7,
        w_sym in 32u32..200,
        k_lo in 1u32..9,
        extra in 1u32..8,
    ) {
        let g = game(n);
        let m = g.params().max_backoff_stage();
        let sym = macgame_dcf::EdcaTuple::new(w_sym, m, 1, 1).unwrap();
        let memo = EdcaStageMemo::new(*g.params(), None);
        let g_lo = knob_gain(&g, sym, EdcaAxis::Txop, k_lo, &memo);
        let g_hi = knob_gain(&g, sym, EdcaAxis::Txop, k_lo + extra, &memo);
        prop_assert!(
            g_hi >= g_lo - 1e-9,
            "TXOP {} gains {g_hi} < TXOP {k_lo} gains {g_lo}", k_lo + extra
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Wrapping any evaluator in a zero-rate observation channel changes
    /// nothing: utilities and observed windows are bitwise identical for
    /// arbitrary profiles.
    #[test]
    fn noop_observation_wrapper_is_identity(
        profile in prop::collection::vec(1u32..1024, 2..6),
    ) {
        use macgame_core::evaluator::{NoisyObservationEvaluator, StageEvaluator};
        use macgame_faults::ObservationFaults;
        let g = game(profile.len());
        let mut bare = AnalyticalEvaluator::new(g.clone());
        let mut wrapped = NoisyObservationEvaluator::new(
            AnalyticalEvaluator::new(g.clone()),
            ObservationFaults::noop(),
            profile.len(),
            g.w_max(),
        );
        let a = bare.evaluate(&profile).unwrap();
        let b = wrapped.evaluate(&profile).unwrap();
        prop_assert_eq!(a, b);
    }
}

/// A query of one of the kinds whose symmetric points come from the
/// mode's `SolveCache` `(n, W)` memo: `WcStar`, `NeInterval`,
/// `EdcaWcStar` at unit burst and `RobustnessCell`.
fn symmetric_query() -> impl proptest::Strategy<Value = Query> {
    // `Strategy` alone names the game's strategy trait in this file.
    proptest::Strategy::prop_map(
        (0u32..8, 2usize..41, 0usize..3, (1u32..129, 1u32..4)),
        |(kind, players, w_max, (window, reaction_stages))| {
            let mode = if kind % 2 == 0 { AccessMode::Basic } else { AccessMode::RtsCts };
            let w_max = [64, 512, 4096][w_max];
            match kind / 2 {
                0 => Query::WcStar { players, mode, w_max },
                1 => Query::NeInterval { players, mode, w_max },
                2 => Query::EdcaWcStar { players, mode, txop: 1, w_max },
                _ => Query::RobustnessCell {
                    players,
                    mode,
                    window,
                    reaction_stages,
                    epsilon: DEFAULT_NE_EPSILON,
                },
            }
        },
    )
}

/// Every field of a result as bits, the variant first: equal vectors
/// mean `to_bits`-equal floats, not merely `==` ones.
fn result_bits(result: &QueryResult) -> Vec<u64> {
    let option = |value: Option<u64>| [u64::from(value.is_some()), value.unwrap_or(0)];
    match *result {
        QueryResult::WcStar { window, utility } => vec![0, window.into(), utility.to_bits()],
        QueryResult::EdcaWcStar { window, utility, txop } => {
            vec![1, window.into(), utility.to_bits(), txop.into()]
        }
        QueryResult::NeInterval { lower, upper, count } => {
            vec![2, lower.into(), upper.into(), count.into()]
        }
        QueryResult::DeviationPayoff {
            w_s,
            deviant_payoff,
            compliant_payoff,
            victim_payoff,
            gain,
            profitable,
        } => vec![
            3,
            w_s.into(),
            deviant_payoff.to_bits(),
            compliant_payoff.to_bits(),
            victim_payoff.to_bits(),
            gain.to_bits(),
            profitable.into(),
        ],
        QueryResult::RobustnessCell {
            window,
            is_ne,
            best_deviation_window,
            best_deviation_gain,
            welfare_fraction,
        } => {
            let mut bits = vec![4, window.into(), is_ne.into()];
            bits.extend(option(best_deviation_window.map(u64::from)));
            bits.extend(option(best_deviation_gain.map(f64::to_bits)));
            bits.push(welfare_fraction.to_bits());
            bits
        }
    }
}

fn evaluated_bits(query: &Query, caches: &SolveCaches) -> Result<Vec<u64>, String> {
    evaluate_query(query, caches).map(|r| result_bits(&r)).map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The `(n, W)` memo is bit-transparent under any eviction pattern: a
    /// stream through one shared `SolveCaches` at capacities that evict
    /// on nearly every insert (1, 3), often (16) or never (4096) answers
    /// every query with the bits of a no-op cache, where each point is
    /// bisected afresh.
    #[test]
    fn symmetric_memo_is_bit_transparent_under_eviction(
        stream in prop::collection::vec(symmetric_query(), 1..24),
    ) {
        let cold = SolveCaches::with_capacity(0).unwrap();
        let expected: Vec<_> = stream.iter().map(|q| evaluated_bits(q, &cold)).collect();
        for capacity in [1, 3, 16, 4096] {
            let shared = SolveCaches::with_capacity(capacity).unwrap();
            for (query, want) in stream.iter().zip(&expected) {
                let got = evaluated_bits(query, &shared);
                prop_assert_eq!(&got, want, "capacity {}: {:?}", capacity, query);
            }
        }
    }
}
