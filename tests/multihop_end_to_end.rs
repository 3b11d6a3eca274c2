//! End-to-end multi-hop pipeline (paper Sections VI–VII.B) at reduced
//! scale: local games → TFT convergence → Theorem 3 NE → quasi-optimality.

use macgame::dcf::MicroSecs;
use macgame::game::GameConfig;
use macgame::multihop::convergence::{check_multihop_ne, tft_converge};
use macgame::multihop::localgame::{local_optimal_windows, LocalRule};
use macgame::multihop::metrics::{evaluate_quasi_optimality, unilateral_quality};
use macgame::multihop::spatialsim::{SpatialConfig, SpatialEngine};

fn scenario(
    n: usize,
    seed: u64,
) -> (Vec<macgame::multihop::Point>, macgame::multihop::Topology, SpatialConfig) {
    let config = SpatialConfig::paper(seed);
    let engine = SpatialEngine::new(n, &vec![64; n], config.clone()).unwrap();
    (engine.positions().to_vec(), engine.topology().clone(), config)
}

/// The full Section VI pipeline: every node's local optimum, min-spread by
/// TFT within the graph diameter, and the Theorem 3 equilibrium check.
#[test]
fn local_games_converge_to_a_multihop_ne() {
    let (_, topo, config) = scenario(60, 7);
    let local =
        local_optimal_windows(&topo, &config.params, &config.utility, 2048, LocalRule::ExactArgmax)
            .unwrap();
    let trace = tft_converge(&topo, &local).unwrap();
    // Monotone min-propagation, bounded by the diameter when connected.
    if let Some(d) = topo.diameter() {
        assert!(trace.rounds_needed <= d.max(1));
        let w_m = trace.converged_window().expect("connected graph converges uniformly");
        assert_eq!(w_m, *local.iter().min().unwrap());
        // Theorem 3: nobody profits from unilateral deviation at W_m.
        let template = GameConfig::builder(2).params(config.params).build().unwrap();
        let check = check_multihop_ne(&topo, &local, w_m, &template, 1e-4).unwrap();
        assert!(check.is_ne, "worst: {:?}", check.worst);
    }
}

/// Section VII.B quasi-optimality at reduced scale: the converged window
/// captures most of the best global payoff, and mobility averaging keeps
/// per-node payoffs near their best common-window value.
#[test]
fn converged_window_is_quasi_optimal() {
    let (positions, topo, config) = scenario(60, 7);
    let local =
        local_optimal_windows(&topo, &config.params, &config.utility, 2048, LocalRule::ExactArgmax)
            .unwrap();
    let trace = tft_converge(&topo, &local).unwrap();
    let w_m =
        trace.converged_window().unwrap_or_else(|| *trace.final_windows.iter().min().unwrap());
    let sweep: Vec<u32> =
        [w_m / 2, w_m, w_m * 2, w_m * 4].into_iter().filter(|&w| w >= 1).collect();
    let sample: Vec<usize> = (0..topo.len()).filter(|&i| topo.degree(i) >= 2).take(4).collect();
    let quality = evaluate_quasi_optimality(
        &positions,
        w_m,
        &sweep,
        &sample,
        &sweep,
        &config, // mobile measurement, as in the paper
        MicroSecs::from_seconds(60.0),
    )
    .unwrap();
    assert!(quality.global_fraction > 0.8, "global fraction {:.2}", quality.global_fraction);
    assert!(
        quality.min_local_fraction() > 0.4,
        "min local fraction {:.2} (rises toward the paper's 96% with longer runs)",
        quality.min_local_fraction()
    );
}

/// The hidden-node degradation factor stays in a narrow band across CWs
/// (the Section VI.A approximation) and worsens as windows shrink only
/// moderately.
#[test]
fn hidden_node_factor_is_roughly_cw_independent() {
    let (positions, _, config) = scenario(60, 7);
    let static_config = SpatialConfig { mobility: None, ..config };
    let mut samples = Vec::new();
    for w in [8u32, 16, 32, 64] {
        let mut engine = SpatialEngine::with_positions(
            positions.clone(),
            &vec![w; positions.len()],
            static_config.clone(),
        )
        .unwrap();
        let report = engine.run_for(MicroSecs::from_seconds(20.0));
        samples.push(report.network_p_hn().expect("traffic exists"));
    }
    for p_hn in &samples {
        assert!((0.5..=1.0).contains(p_hn), "p_hn = {p_hn}");
    }
    let spread = samples.iter().cloned().fold(f64::MIN, f64::max)
        - samples.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread < 0.3, "p_hn spread {spread} too wide for the approximation");
}

/// The unilateral temptation exists (one node undercutting a pinned crowd
/// profits) — the quantity TFT's punishment must outweigh.
#[test]
fn unilateral_deviation_tempts_without_tft() {
    let (positions, topo, config) = scenario(50, 9);
    let static_config = SpatialConfig { mobility: None, ..config };
    let node = (0..topo.len()).max_by_key(|&i| topo.degree(i)).unwrap();
    let quality = unilateral_quality(
        &positions,
        48,
        &[node],
        &[6, 12, 24, 48],
        &static_config,
        MicroSecs::from_seconds(20.0),
    )
    .unwrap();
    assert!(
        quality[0].fraction < 0.95,
        "densest node saw no temptation (fraction {:.2})",
        quality[0].fraction
    );
    assert!(quality[0].best.0 < 48);
}

/// Mobility + topology refresh keep the spatial engine self-consistent
/// over long horizons (no drift in conservation laws).
#[test]
fn long_mobile_run_remains_consistent() {
    let config = SpatialConfig::paper(11);
    let mut engine = SpatialEngine::new(40, &[32; 40], config).unwrap();
    let report = engine.run_for(MicroSecs::from_seconds(300.0));
    for (i, s) in report.node_stats.iter().enumerate() {
        assert_eq!(s.attempts, s.successes + s.collisions, "node {i}");
    }
    assert!(report.elapsed.value() >= 300.0 * 1e6);
    assert_eq!(report.local_elapsed.len(), 40);
    for t in &report.local_elapsed {
        assert!(t.value() > 0.0);
    }
}
