//! Quickstart: the paper's headline result in a few calls.
//!
//! Computes the efficient Nash equilibrium of the selfish MAC game for a
//! small saturated network, verifies it is an equilibrium under TFT,
//! and watches heterogeneous TFT players converge to a common window.
//!
//! Run with: `cargo run --example quickstart`

use macgame::game::equilibrium::{
    check_symmetric_ne, efficient_ne, ne_interval, refine, DEFAULT_NE_EPSILON,
};
use macgame::game::evaluator::AnalyticalEvaluator;
use macgame::game::strategy::{Strategy, Tft};
use macgame::game::{GameConfig, RepeatedGame};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Five selfish saturated nodes, IEEE 802.11 basic access, the paper's
    // Table I parameters (1 Mbit/s, 8184-bit payloads, g = 1, e = 0.01).
    let game = GameConfig::builder(5).build()?;

    // ── The efficient NE (Table II's first row) ────────────────────────
    let ne = efficient_ne(&game)?;
    println!("n = {} players, basic access", game.player_count());
    println!("efficient NE window  W_c* = {}", ne.window);
    println!(
        "transmission prob    τ(W_c*) = {:.5}  (continuous τ* = {:.5})",
        ne.point.tau, ne.tau_star
    );
    println!("collision prob       p(W_c*) = {:.5}", ne.point.collision_prob);

    // ── The Theorem 2 equilibrium interval and its refinement ──────────
    let interval = ne_interval(&game)?;
    println!(
        "\nTheorem 2 NE interval: [{}, {}] ({} equilibria)",
        interval.lower,
        interval.upper,
        interval.count()
    );
    let refinements = refine(&game, interval)?;
    let efficient: Vec<_> =
        refinements.iter().filter(|r| r.pareto_optimal).map(|r| r.window).collect();
    println!("after refinement (fairness + welfare + Pareto): {efficient:?}");

    // ── Explicit unilateral-deviation check ────────────────────────────
    let check = check_symmetric_ne(&game, ne.window, 1, DEFAULT_NE_EPSILON)?;
    println!("\nunilateral-deviation check at W_c*: is_ne = {}", check.is_ne);
    if let Some((w_dev, gain)) = check.best_deviation {
        println!("most tempting deviation: W' = {w_dev} with discounted gain {gain:.3e}");
    }

    // ── TFT convergence from heterogeneous starts ──────────────────────
    let initials = [120, 76, 150, 90, 200];
    let players: Vec<Box<dyn Strategy>> =
        initials.iter().map(|&w| Box::new(Tft::new(w)) as Box<dyn Strategy>).collect();
    let evaluator = Box::new(AnalyticalEvaluator::new(game.clone()));
    let mut repeated = RepeatedGame::new(game, players, evaluator)?;
    let report = repeated.play_until_converged(20, 3)?;
    println!("\nTFT play from initial windows {initials:?}:");
    for (k, stage) in repeated.history().stages().iter().enumerate().take(4) {
        println!("  stage {k}: {:?}  (stage utility {:.2})", stage.windows, stage.utilities[0]);
    }
    println!(
        "converged = {} at window {:?} after stage {:?}",
        report.converged, report.window, report.stage
    );
    Ok(())
}
