//! End-to-end coverage of the extension features: TFT fairness on the
//! simulator and the rate-control game.

use macgame::dcf::{AccessMode, DcfParams, MicroSecs, UtilityParams};
use macgame::game::equilibrium::efficient_ne;
use macgame::game::evaluator::SimulatedEvaluator;
use macgame::game::ratecontrol::{rate_game, rate_set_80211b};
use macgame::game::strategy::{Strategy, Tft};
use macgame::game::{GameConfig, RepeatedGame};

/// Jain's fairness index `(Σx)² / (n·Σx²)`: 1 for equal shares, `1/n`
/// when one node takes everything.
fn jain_index(allocation: &[f64]) -> f64 {
    let sum: f64 = allocation.iter().sum();
    let sum_sq: f64 = allocation.iter().map(|x| x * x).sum();
    sum * sum / (allocation.len() as f64 * sum_sq)
}

/// Smallest share over largest share: 1 for equal shares.
fn min_max_ratio(allocation: &[f64]) -> f64 {
    let max = allocation.iter().copied().fold(f64::MIN, f64::max);
    let min = allocation.iter().copied().fold(f64::MAX, f64::min);
    min / max
}

/// TFT play on the simulator ends with fair measured payoffs (the paper's
/// fairness claim, quantified with the Jain index).
#[test]
fn tft_play_is_jain_fair() {
    let game =
        GameConfig::builder(5).stage_duration(MicroSecs::from_seconds(30.0)).build().unwrap();
    let w_star = efficient_ne(&game).unwrap().window;
    let players: Vec<Box<dyn Strategy>> =
        (0..5).map(|_| Box::new(Tft::new(w_star)) as Box<dyn Strategy>).collect();
    let evaluator =
        Box::new(SimulatedEvaluator::new(game.clone(), 8).unwrap().with_exact_observation(true));
    let mut rg = RepeatedGame::new(game, players, evaluator).unwrap();
    rg.play(3).unwrap();
    let last = rg.history().last().unwrap();
    let idx = jain_index(&last.utilities);
    assert!(idx > 0.98, "Jain index {idx}");
    assert!(min_max_ratio(&last.utilities) > 0.8);
}

/// The rate-control game composes with the generic framework end-to-end:
/// best-response dynamics from any profile find the all-fast NE.
#[test]
fn rate_game_dynamics_from_mixed_starts() {
    let params = DcfParams::builder().access_mode(AccessMode::RtsCts).build().unwrap();
    let game = rate_game(6, 48, &params, &UtilityParams::default(), rate_set_80211b()).unwrap();
    for start in [[0usize, 1, 2, 3, 0, 1], [3, 3, 3, 3, 3, 3], [2, 0, 2, 0, 2, 0]] {
        let out = game.best_response_dynamics(&start, 10);
        assert!(out.converged);
        assert!(out.profile.iter().all(|&a| a == 3), "from {start:?} got {:?}", out.profile);
    }
}
