//! End-to-end single-hop pipeline: analytical model ↔ simulator ↔ game,
//! the Table II/III validation loop of paper Section VII.A in miniature.

use macgame::dcf::fixedpoint::solve_symmetric;
use macgame::dcf::optimal::efficient_cw;
use macgame::dcf::{DcfParams, MicroSecs, UtilityParams};
use macgame::game::equilibrium::{check_symmetric_ne, efficient_ne, refine, DEFAULT_NE_EPSILON};
use macgame::game::evaluator::{AnalyticalEvaluator, SimulatedEvaluator, StageEvaluator};
use macgame::game::search::{run_search, SimulatedProbe};
use macgame::game::strategy::{Strategy, Tft};
use macgame::game::{GameConfig, RepeatedGame};
use macgame::sim::{Engine, SimConfig};

/// The headline loop: compute W_c* analytically, play the repeated game on
/// the *simulator* with TFT, and confirm the network operates at (near)
/// the efficient NE with equalized payoffs.
#[test]
fn tft_on_simulator_operates_at_efficient_ne() {
    let game =
        GameConfig::builder(5).stage_duration(MicroSecs::from_seconds(20.0)).build().unwrap();
    let ne = efficient_ne(&game).unwrap();
    let players: Vec<Box<dyn Strategy>> =
        (0..5).map(|_| Box::new(Tft::new(ne.window)) as Box<dyn Strategy>).collect();
    let evaluator =
        Box::new(SimulatedEvaluator::new(game.clone(), 3).unwrap().with_exact_observation(true));
    let mut rg = RepeatedGame::new(game.clone(), players, evaluator).unwrap();
    let report = rg.play_until_converged(8, 3).unwrap();
    assert!(report.converged);
    assert_eq!(report.window, Some(ne.window));
    // Fairness: measured payoffs agree across players within noise.
    let last = rg.history().last().unwrap();
    let mean: f64 = last.utilities.iter().sum::<f64>() / 5.0;
    for u in &last.utilities {
        assert!((u - mean).abs() / mean < 0.25, "payoffs {last:?}");
    }
    // And the measured stage payoff tracks the analytic one.
    let analytic = game.stage_utility(
        macgame::dcf::optimal::symmetric_utility(5, ne.window, game.params(), game.utility())
            .unwrap(),
    );
    assert!((mean - analytic).abs() / analytic < 0.15, "measured {mean} vs analytic {analytic}");
}

/// The simulator's operating point matches the analytical fixed point for
/// every Table II population (τ̂ within a few percent).
#[test]
fn simulator_validates_fixed_point_for_table2_populations() {
    let params = DcfParams::default();
    let utility = UtilityParams::default();
    for n in [5usize, 20] {
        let ne = efficient_cw(n, &params, &utility, 2048).unwrap();
        let sym = solve_symmetric(n, ne.window, &params).unwrap();
        let config = SimConfig::builder().symmetric(n, ne.window).seed(9).build().unwrap();
        let mut engine = Engine::new(&config);
        let report = engine.run_slots(400_000);
        for i in 0..n {
            let rel = (report.tau_hat(i) - sym.tau).abs() / sym.tau;
            assert!(rel < 0.08, "n={n} node {i}: τ̂ {} vs τ {}", report.tau_hat(i), sym.tau);
        }
        let s = report.throughput(&params);
        assert!(s > 0.5 && s <= 1.0, "throughput {s}");
    }
}

/// The refinement pipeline ends at exactly one NE, which survives the
/// unilateral-deviation audit.
#[test]
fn refinement_and_deviation_audit_agree() {
    let game = GameConfig::builder(8).build().unwrap();
    let interval = macgame::game::ne_interval(&game).unwrap();
    let refinements = refine(&game, interval).unwrap();
    let survivors: Vec<u32> =
        refinements.iter().filter(|r| r.pareto_optimal).map(|r| r.window).collect();
    assert_eq!(survivors.len(), 1);
    let check = check_symmetric_ne(&game, survivors[0], 1, DEFAULT_NE_EPSILON).unwrap();
    assert!(check.is_ne);
}

/// Mixed evaluators agree on the ranking of profiles (the simulator is a
/// faithful, noisy realization of the analytical stage game).
#[test]
fn evaluators_agree_on_profile_ranking() {
    let game =
        GameConfig::builder(4).stage_duration(MicroSecs::from_seconds(20.0)).build().unwrap();
    let mut analytic = AnalyticalEvaluator::new(game.clone());
    let mut sim = SimulatedEvaluator::new(game.clone(), 17).unwrap();
    // Compare a polite and an aggressive symmetric profile.
    let w_star = efficient_ne(&game).unwrap().window;
    let polite = vec![w_star; 4];
    let aggressive = vec![(w_star / 8).max(1); 4];
    let a_polite = analytic.evaluate(&polite).unwrap().utilities[0];
    let a_aggr = analytic.evaluate(&aggressive).unwrap().utilities[0];
    let s_polite = sim.evaluate(&polite).unwrap().utilities[0];
    let s_aggr = sim.evaluate(&aggressive).unwrap().utilities[0];
    assert!(a_polite > a_aggr);
    assert!(s_polite > s_aggr, "simulator ranked {s_polite} vs {s_aggr}");
}

/// The Section V.C search run end-to-end on noisy measured payoffs lands
/// in the flat neighborhood of W_c*.
#[test]
fn noisy_search_lands_in_the_flat_neighborhood() {
    let game = GameConfig::builder(5).build().unwrap();
    let w_star = efficient_ne(&game).unwrap().window;
    let mut probe = SimulatedProbe::new(game.clone(), 5, MicroSecs::from_seconds(30.0)).unwrap();
    let outcome = run_search(&mut probe, &game, w_star - 8, 0.002).unwrap();
    // The analytic payoff at the found window is within 2% of the optimum
    // (the paper's robustness of the flat top).
    let u_found =
        macgame::dcf::optimal::symmetric_utility(5, outcome.w_m, game.params(), game.utility())
            .unwrap();
    let u_star =
        macgame::dcf::optimal::symmetric_utility(5, w_star, game.params(), game.utility()).unwrap();
    assert!(
        u_found > 0.98 * u_star,
        "found W = {} with payoff {:.3e} vs optimum {:.3e}",
        outcome.w_m,
        u_found,
        u_star
    );
}
