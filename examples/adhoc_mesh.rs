//! A mobile multi-hop mesh of selfish nodes (paper Sections VI–VII.B).
//!
//! Builds the paper's scenario at reduced scale: nodes move under random
//! waypoint in a 1 km² arena with 250 m radios and RTS/CTS access. Each
//! node initializes its contention window to the efficient NE of its
//! *local* game, TFT propagates the minimum across the mesh, and the
//! converged window is evaluated for quasi-optimality.
//!
//! Run with: `cargo run --release --example adhoc_mesh`

use macgame::dcf::MicroSecs;
use macgame::multihop::convergence::tft_converge;
use macgame::multihop::localgame::{local_optimal_windows, LocalRule};
use macgame::multihop::metrics::evaluate_quasi_optimality;
use macgame::multihop::spatialsim::{SpatialConfig, SpatialEngine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 100; // the paper's Section VII.B population
    let config = SpatialConfig::paper(7);

    // Initial placement + topology snapshot.
    let engine = SpatialEngine::new(n, &vec![64; n], config.clone())?;
    let positions = engine.positions().to_vec();
    let topo = engine.topology().clone();
    println!("{n}-node mesh, 250 m range, RTS/CTS");
    println!("connected: {}, diameter: {:?}", topo.is_connected(), topo.diameter());
    let degrees: Vec<usize> = (0..n).map(|i| topo.degree(i)).collect();
    println!(
        "degrees: min {} / avg {:.1} / max {}",
        degrees.iter().min().unwrap(),
        degrees.iter().sum::<usize>() as f64 / n as f64,
        degrees.iter().max().unwrap()
    );

    // ── Local games: every node picks its neighborhood's optimum ───────
    let local = local_optimal_windows(
        &topo,
        &config.params,
        &config.utility,
        2048,
        LocalRule::ExactArgmax,
    )?;
    println!(
        "\nlocal optimal windows: min {} / max {}",
        local.iter().min().unwrap(),
        local.iter().max().unwrap()
    );

    // ── TFT convergence to W_m = min_i W_i (Theorem 3) ────────────────
    let trace = tft_converge(&topo, &local)?;
    println!(
        "TFT convergence: {} rounds (graph diameter {:?}), uniform = {}",
        trace.rounds_needed,
        topo.diameter(),
        trace.uniform()
    );
    let w_m = match trace.converged_window() {
        Some(w) => w,
        None => {
            // Disconnected mesh: evaluate the largest component's minimum.
            let comp = topo.components().into_iter().max_by_key(Vec::len).expect("nonempty graph");
            comp.iter().map(|&i| trace.final_windows[i]).min().unwrap()
        }
    };
    println!("converged NE window W_m = {w_m}");

    // ── Quasi-optimality at W_m (paper: ≥96% local, ≥97% global) ──────
    let sweep: Vec<u32> =
        [w_m / 4, w_m / 2, w_m, w_m * 2, w_m * 4].into_iter().filter(|&w| w >= 1).collect();
    // Sample connected nodes only (isolated nodes have no game to play).
    let sample: Vec<usize> =
        (0..n).filter(|&i| topo.degree(i) >= 1).step_by(n / 8).take(8).collect();
    // The paper measures over a 1000 s *mobile* run, which averages each
    // node over many neighborhoods; we use 120 s here for example runtime
    // (the repro harness runs longer and gets closer to the paper's 96 %).
    let static_config = SpatialConfig { mobility: None, ..config.clone() };
    let quality = evaluate_quasi_optimality(
        &positions,
        w_m,
        &sweep,
        &sample,
        &sweep,
        &config,
        MicroSecs::from_seconds(120.0),
    )?;
    println!("\nglobal payoff by common window:");
    for s in &quality.global_sweep {
        println!("  W = {:>4}: {:.4e} per µs", s.window, s.payoff);
    }
    println!(
        "global fraction at W_m: {:.1}%  (paper: within 3% of optimum)",
        100.0 * quality.global_fraction
    );
    println!(
        "worst sampled node's local fraction: {:.1}%  (paper: ≥ 96%)",
        100.0 * quality.min_local_fraction()
    );

    // The temptation TFT deters: a lone deviator against a *non-reacting*
    // crowd profits handsomely — which is why the punishment matters.
    let temptation = macgame::multihop::unilateral_quality(
        &positions,
        w_m,
        &sample[..2],
        &sweep,
        &static_config,
        MicroSecs::from_seconds(5.0),
    )?;
    for t in &temptation {
        println!(
            "unilateral temptation, node {:>2}: NE payoff is only {:.0}% of a lone \
             deviation to W = {} (TFT reaction is what removes this)",
            t.node,
            100.0 * t.fraction,
            t.best.0
        );
    }

    // ── Hidden terminals: measure p_hn and its CW-independence ─────────
    println!("\nhidden-node degradation p_hn by common window (VI.A approximation):");
    for &w in &sweep {
        let mut engine = SpatialEngine::with_positions(
            positions.clone(),
            &vec![w; n],
            SpatialConfig { mobility: None, ..SpatialConfig::paper(7) },
        )?;
        let report = engine.run_for(MicroSecs::from_seconds(5.0));
        if let Some(p_hn) = report.network_p_hn() {
            println!("  W = {:>4}: p_hn = {:.3}", w, p_hn);
        }
    }
    println!("→ p_hn varies little across windows, as the paper's model assumes.");

    // ── And the mesh keeps moving ───────────────────────────────────────
    let mut engine = SpatialEngine::new(n, &vec![w_m; n], SpatialConfig::paper(7))?;
    let before = engine.topology().clone();
    let report = engine.run_for(MicroSecs::from_seconds(60.0));
    let after = engine.topology().clone();
    println!(
        "\n60 s of mobility at W_m: topology changed = {}, global payoff {:.4e} per µs",
        before != after,
        report.global_payoff_rate(&SpatialConfig::paper(7).utility)
    );
    Ok(())
}
