//! A saturated hotspot with one misbehaving station.
//!
//! The scenario the paper's introduction motivates: a programmable wireless
//! adapter lets one station undercut the contention window everyone else
//! honors. This example prices that temptation end-to-end:
//!
//! 1. how much a *short-sighted* station gains (and its neighbors lose)
//!    as a function of its discount factor δ_s (Section V.D);
//! 2. what a *malicious* station pinned at a tiny window does to the whole
//!    cell (Section V.E);
//! 3. how the same story plays out on the packet-level simulator with TFT
//!    players actually reacting.
//!
//! Run with: `cargo run --release --example selfish_hotspot`

use macgame::dcf::MicroSecs;
use macgame::game::deviation::{
    malicious_impact, optimal_shortsighted_deviation, shortsighted_deviation,
};
use macgame::game::equilibrium::efficient_ne;
use macgame::game::evaluator::SimulatedEvaluator;
use macgame::game::strategy::{Constant, GenerousTft, Strategy, Tft};
use macgame::game::{GameConfig, RepeatedGame};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 8;
    let game = GameConfig::builder(n).stage_duration(MicroSecs::from_seconds(5.0)).build()?;
    let w_star = efficient_ne(&game)?.window;
    println!("hotspot of {n} saturated stations, efficient NE W_c* = {w_star}\n");

    // ── 1. Short-sightedness sweep (Section V.D) ───────────────────────
    println!("optimal deviation of a short-sighted station (TFT reacts in 1 stage):");
    println!("{:>8} {:>8} {:>14} {:>14} {:>10}", "δ_s", "W_s", "deviate", "comply", "gain %");
    for delta_s in [0.0, 0.5, 0.9, 0.99, 0.999, 0.9999] {
        let best = optimal_shortsighted_deviation(&game, w_star, 1, delta_s)?;
        println!(
            "{:>8} {:>8} {:>14.1} {:>14.1} {:>9.2}%",
            delta_s,
            best.w_s,
            best.deviant_payoff,
            best.compliant_payoff,
            100.0 * best.gain() / best.compliant_payoff.abs()
        );
    }
    println!("→ myopic stations undercut hard; long-sighted stations comply.\n");

    // A slow-reacting crowd makes cheating sweeter: the m-stage ablation.
    println!("same station at δ_s = 0.9, varying the crowd's reaction lag m:");
    for m in [1u32, 2, 5, 10] {
        let outcome = shortsighted_deviation(&game, w_star, w_star / 2, m, 0.9)?;
        println!(
            "  m = {m:>2}: deviation gain = {:+.1} ({:+.2}% of compliance)",
            outcome.gain(),
            100.0 * outcome.gain() / outcome.compliant_payoff.abs()
        );
    }

    // ── 2. Malicious station (Section V.E) ─────────────────────────────
    println!("\nmalicious station drags the cell to W_mal (TFT follows):");
    for w_mal in [w_star / 2, w_star / 4, 8, 2, 1] {
        let impact = malicious_impact(&game, w_star, w_mal)?;
        println!(
            "  W_mal = {w_mal:>3}: welfare {:.3e} → {:.3e} ({:.1}% remains){}",
            impact.welfare_at_ne,
            impact.welfare_after,
            100.0 * impact.remaining_fraction(),
            if impact.collapsed() { "  ← collapsed" } else { "" }
        );
    }

    // ── 3. The same story on the packet simulator ──────────────────────
    println!(
        "\npacket-level replay: one constant defector at W = {} vs {} TFT stations",
        w_star / 3,
        n - 1
    );
    let mut players: Vec<Box<dyn Strategy>> = vec![Box::new(Constant::new(w_star / 3))];
    for _ in 1..n {
        players.push(Box::new(Tft::new(w_star)));
    }
    let evaluator =
        Box::new(SimulatedEvaluator::new(game.clone(), 42)?.with_exact_observation(true));
    let mut repeated = RepeatedGame::new(game.clone(), players, evaluator)?;
    repeated.play(4)?;
    for (k, stage) in repeated.history().stages().iter().enumerate() {
        println!(
            "  stage {k}: windows {:?}  defector u = {:>8.2}, honest u = {:>8.2}",
            stage.windows, stage.utilities[0], stage.utilities[1]
        );
    }
    println!("→ the defector's edge lasts exactly one stage; then TFT equalizes everyone.");

    // ── 4. Why Generous TFT exists: noisy CW observation ───────────────
    // With windows *estimated* from overheard traffic instead of known
    // exactly, plain TFT chases its own estimation noise downward; GTFT's
    // averaging memory (r₀) and tolerance (β) absorb it.
    println!("\nnoisy observation, all-honest network starting at W_c*:");
    for (label, generous) in [("plain TFT", false), ("generous TFT (r0=3, β=0.8)", true)] {
        let players: Vec<Box<dyn Strategy>> = (0..n)
            .map(|_| {
                if generous {
                    Box::new(GenerousTft::try_new(w_star, 3, 0.8).expect("valid GTFT parameters"))
                        as Box<dyn Strategy>
                } else {
                    Box::new(Tft::new(w_star)) as Box<dyn Strategy>
                }
            })
            .collect();
        let evaluator = Box::new(SimulatedEvaluator::new(game.clone(), 7)?);
        let mut repeated = RepeatedGame::new(game.clone(), players, evaluator)?;
        repeated.play(6)?;
        let path: Vec<u32> = repeated.history().stages().iter().map(|s| s.windows[0]).collect();
        println!("  {label:<28} window path: {path:?}");
    }
    println!("→ GTFT holds the efficient window under measurement noise.");
    Ok(())
}
