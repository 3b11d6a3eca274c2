//! End-to-end deviation stories (paper Sections V.D/V.E) played on the
//! packet-level simulator with reacting TFT/GTFT strategies.

use macgame::dcf::MicroSecs;
use macgame::game::deviation::shortsighted_deviation;
use macgame::game::equilibrium::efficient_ne;
use macgame::game::evaluator::SimulatedEvaluator;
use macgame::game::strategy::{Constant, GenerousTft, Strategy, Tft};
use macgame::game::{GameConfig, RepeatedGame};

fn game(n: usize) -> GameConfig {
    GameConfig::builder(n).stage_duration(MicroSecs::from_seconds(15.0)).build().unwrap()
}

/// A defector against TFT: wins exactly one stage, then the whole network
/// (defector included) is dragged to its window; measured per-stage
/// utilities reproduce the Lemma 4 / deviation story.
#[test]
fn defector_gains_one_stage_then_equalizes() {
    let g = game(5);
    let w_star = efficient_ne(&g).unwrap().window;
    let w_dev = (w_star / 3).max(1);
    let mut players: Vec<Box<dyn Strategy>> = vec![Box::new(Constant::new(w_dev))];
    for _ in 1..5 {
        players.push(Box::new(Tft::new(w_star)));
    }
    let evaluator =
        Box::new(SimulatedEvaluator::new(g.clone(), 21).unwrap().with_exact_observation(true));
    let mut rg = RepeatedGame::new(g.clone(), players, evaluator).unwrap();
    rg.play(3).unwrap();
    let stages = rg.history().stages();
    // Stage 0: defector beats the honest players.
    assert!(
        stages[0].utilities[0] > 1.5 * stages[0].utilities[1],
        "stage 0 utilities {:?}",
        stages[0].utilities
    );
    // Stage 1 on: everyone at w_dev, payoffs equal within noise, and the
    // defector is now *worse off* than the honest players were at W_c*.
    assert_eq!(stages[1].windows, vec![w_dev; 5]);
    let defector_after = stages[1].utilities[0];
    let honest_at_star = g.stage_utility(
        macgame::dcf::optimal::symmetric_utility(5, w_star, g.params(), g.utility()).unwrap(),
    );
    assert!(
        defector_after < honest_at_star,
        "punished payoff {defector_after} vs compliant {honest_at_star}"
    );
}

/// The analytic deviation pricing predicts the measured stage payoffs of
/// the simulated episode (within simulation noise).
#[test]
fn analytic_pricing_matches_simulated_episode() {
    let g = game(5);
    let w_star = efficient_ne(&g).unwrap().window;
    let w_dev = (w_star / 2).max(1);
    let outcome = shortsighted_deviation(&g, w_star, w_dev, 1, 0.5).unwrap();

    let mut players: Vec<Box<dyn Strategy>> = vec![Box::new(Constant::new(w_dev))];
    for _ in 1..5 {
        players.push(Box::new(Tft::new(w_star)));
    }
    let evaluator =
        Box::new(SimulatedEvaluator::new(g.clone(), 33).unwrap().with_exact_observation(true));
    let mut rg = RepeatedGame::new(g.clone(), players, evaluator).unwrap();
    rg.play(2).unwrap();
    let stages = rg.history().stages();
    // Head stage: measured deviator payoff ≈ analytic `during` stage value.
    // Derive the analytic per-stage values back from the discounted sums:
    // deviant = head·u_dev + tail·u_after with δ = 0.5, m = 1 ⇒
    // u_dev·T = deviant − tail·(u_after·T); easier: recompute directly.
    let during = macgame::game::deviation::deviator_stage(&g, w_star, w_dev).unwrap();
    let measured_head = stages[0].utilities[0];
    let analytic_head = during.deviator * g.stage_duration().value();
    let rel = (measured_head - analytic_head).abs() / analytic_head;
    assert!(rel < 0.2, "head stage: measured {measured_head} vs analytic {analytic_head}");
    // And the punished tail matches the symmetric stage at w_dev.
    let after = macgame::game::deviation::symmetric_stage(&g, w_dev).unwrap();
    let measured_tail = stages[1].utilities[0];
    let analytic_tail = after * g.stage_duration().value();
    let rel = (measured_tail - analytic_tail).abs() / analytic_tail.abs().max(1e-12);
    assert!(rel < 0.25, "tail stage: measured {measured_tail} vs analytic {analytic_tail}");
    // Consistency of the priced outcome itself.
    assert!(outcome.deviant_payoff.is_finite());
}

/// A malicious station pinned at W = 1 drags a GTFT network down and
/// slashes the measured social welfare.
#[test]
fn malicious_station_slashes_measured_welfare() {
    let g = game(6);
    let w_star = efficient_ne(&g).unwrap().window;

    // Healthy network.
    let honest: Vec<Box<dyn Strategy>> =
        (0..6).map(|_| Box::new(Tft::new(w_star)) as Box<dyn Strategy>).collect();
    let evaluator =
        Box::new(SimulatedEvaluator::new(g.clone(), 4).unwrap().with_exact_observation(true));
    let mut healthy = RepeatedGame::new(g.clone(), honest, evaluator).unwrap();
    healthy.play(3).unwrap();
    let healthy_welfare: f64 = healthy.history().last().unwrap().utilities.iter().sum();

    // Same network with one malicious station.
    let mut players: Vec<Box<dyn Strategy>> = vec![Box::new(Constant::new(1))];
    for _ in 1..6 {
        players.push(Box::new(Tft::new(w_star)));
    }
    let evaluator =
        Box::new(SimulatedEvaluator::new(g.clone(), 4).unwrap().with_exact_observation(true));
    let mut attacked = RepeatedGame::new(g.clone(), players, evaluator).unwrap();
    attacked.play(3).unwrap();
    let attacked_welfare: f64 = attacked.history().last().unwrap().utilities.iter().sum();

    // Analytically, dragging n = 6 from W_c* to W = 1 leaves ~65–75 % of
    // the welfare (BEB tempers the pile-up); assert a solid measured drop.
    assert!(
        attacked_welfare < 0.8 * healthy_welfare,
        "welfare {attacked_welfare} vs healthy {healthy_welfare}"
    );
}

/// GTFT shields the efficient NE against observation noise that makes
/// plain TFT ratchet downward (the measurement-tolerance motivation of
/// Section IV).
#[test]
fn gtft_resists_observation_noise_better_than_tft() {
    let g = game(5);
    let w_star = efficient_ne(&g).unwrap().window;
    let run = |generous: bool| -> u32 {
        let players: Vec<Box<dyn Strategy>> = (0..5)
            .map(|_| {
                if generous {
                    Box::new(GenerousTft::try_new(w_star, 3, 0.8).unwrap()) as Box<dyn Strategy>
                } else {
                    Box::new(Tft::new(w_star)) as Box<dyn Strategy>
                }
            })
            .collect();
        let evaluator = Box::new(SimulatedEvaluator::new(g.clone(), 13).unwrap());
        let mut rg = RepeatedGame::new(g.clone(), players, evaluator).unwrap();
        rg.play(6).unwrap();
        rg.history().last().unwrap().windows[0]
    };
    let tft_final = run(false);
    let gtft_final = run(true);
    assert_eq!(gtft_final, w_star, "GTFT should hold the efficient window");
    assert!(tft_final <= w_star, "plain TFT should have ratcheted down ({tft_final})");
}
