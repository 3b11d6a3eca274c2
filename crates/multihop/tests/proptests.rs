//! Property-based tests of the multi-hop substrate: mobility containment,
//! topology invariants, and TFT min-propagation.

use macgame_dcf::MicroSecs;
use macgame_multihop::convergence::tft_converge;
use macgame_multihop::geometry::{Arena, Point};
use macgame_multihop::mobility::{Mobility, WaypointConfig};
use macgame_multihop::spatialsim::{SpatialConfig, SpatialEngine};
use macgame_multihop::topology::Topology;
use proptest::prelude::*;

fn arb_positions(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), n)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point { x, y }).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn waypoint_positions_stay_in_arena(
        n in 1usize..30,
        seed in 0u64..200,
        steps in 1usize..8,
        dt_secs in 0.1f64..60.0,
    ) {
        let config = WaypointConfig::paper();
        let mut m = Mobility::new(n, config, seed);
        for _ in 0..steps {
            m.step(MicroSecs::from_seconds(dt_secs));
            for p in m.positions() {
                prop_assert!(Arena::paper().contains(&p), "escaped: {p}");
            }
        }
    }

    #[test]
    fn displacement_bounded_by_speed(
        n in 1usize..20,
        seed in 0u64..100,
        dt_secs in 0.1f64..30.0,
    ) {
        let config = WaypointConfig::paper();
        let mut m = Mobility::new(n, config, seed);
        let before = m.positions();
        m.step(MicroSecs::from_seconds(dt_secs));
        for (a, b) in before.iter().zip(m.positions().iter()) {
            prop_assert!(a.distance_to(b) <= 5.0 * dt_secs + 1e-6);
        }
    }

    #[test]
    fn topology_is_symmetric_and_loopless(
        positions in arb_positions(1..40),
        range in 50.0f64..500.0,
    ) {
        let topo = Topology::from_positions(&positions, range);
        for i in 0..topo.len() {
            prop_assert!(!topo.neighbors(i).contains(&i), "self-loop at {i}");
            for &j in topo.neighbors(i) {
                prop_assert!(topo.neighbors(j).contains(&i), "asymmetric edge {i}-{j}");
                prop_assert!(positions[i].distance_to(&positions[j]) <= range);
            }
        }
    }

    #[test]
    fn components_partition_the_nodes(
        positions in arb_positions(1..40),
        range in 50.0f64..400.0,
    ) {
        let topo = Topology::from_positions(&positions, range);
        let comps = topo.components();
        let mut seen = vec![false; topo.len()];
        for comp in &comps {
            for &i in comp {
                prop_assert!(!seen[i], "node {i} in two components");
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        prop_assert_eq!(comps.len() == 1, topo.is_connected());
    }

    #[test]
    fn hidden_terminals_are_receivers_neighbors_only(
        positions in arb_positions(2..30),
        range in 100.0f64..400.0,
    ) {
        let topo = Topology::from_positions(&positions, range);
        for s in 0..topo.len() {
            for &r in topo.neighbors(s) {
                for h in topo.hidden_terminals(s, r) {
                    prop_assert!(topo.neighbors(r).contains(&h));
                    prop_assert!(!topo.neighbors(s).contains(&h));
                    prop_assert!(h != s);
                }
            }
        }
    }

    #[test]
    fn tft_converges_to_component_minimum_within_diameter(
        positions in arb_positions(2..30),
        range in 100.0f64..600.0,
        seed_windows in prop::collection::vec(1u32..512, 2..30),
    ) {
        let topo = Topology::from_positions(&positions, range);
        let windows: Vec<u32> =
            (0..topo.len()).map(|i| seed_windows[i % seed_windows.len()]).collect();
        let trace = tft_converge(&topo, &windows).unwrap();
        // Every node ends at the minimum of its own component.
        for comp in topo.components() {
            let min = comp.iter().map(|&i| windows[i]).min().unwrap();
            for &i in &comp {
                prop_assert_eq!(trace.final_windows[i], min);
            }
        }
        if let Some(d) = topo.diameter() {
            prop_assert!(trace.rounds_needed <= d.max(1));
        }
    }

    #[test]
    fn min_propagation_is_monotone_per_round(
        positions in arb_positions(2..20),
        range in 100.0f64..600.0,
        seed_windows in prop::collection::vec(1u32..512, 2..20),
    ) {
        let topo = Topology::from_positions(&positions, range);
        let windows: Vec<u32> =
            (0..topo.len()).map(|i| seed_windows[i % seed_windows.len()]).collect();
        let trace = tft_converge(&topo, &windows).unwrap();
        for pair in trace.rounds.windows(2) {
            for (a, b) in pair[0].iter().zip(&pair[1]) {
                prop_assert!(b <= a, "window increased during TFT propagation");
            }
        }
    }

    #[test]
    fn spatial_engine_conservation_on_random_instances(
        positions in arb_positions(2..15),
        w in 4u32..128,
        seed in 0u64..30,
    ) {
        let config = SpatialConfig { mobility: None, ..SpatialConfig::paper(seed) };
        let n = positions.len();
        let mut engine =
            SpatialEngine::with_positions(positions, &vec![w; n], config).unwrap();
        let report = engine.run_for(MicroSecs::from_seconds(2.0));
        for (i, s) in report.node_stats.iter().enumerate() {
            prop_assert_eq!(s.attempts, s.successes + s.collisions, "node {}", i);
            prop_assert!(report.hidden[i].hidden_losses <= report.hidden[i].exposed_attempts);
        }
        prop_assert!(report.elapsed.value() >= 2.0 * 1e6);
        for t in &report.local_elapsed {
            prop_assert!(t.value() > 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A churn trace is a pure function of `(topology, initial, schedule)`:
    /// two runs of the same seeded schedule are identical, round for round
    /// — the dynamics are serial, so this is also thread invariance.
    #[test]
    fn churn_traces_are_seed_deterministic(
        rows in 2usize..5,
        cols in 2usize..5,
        seed in 0u64..300,
        rate in 0.0f64..0.5,
        base in 2u32..200,
    ) {
        use macgame_faults::ChurnSchedule;
        use macgame_multihop::convergence::churn_converge;
        let topology = Topology::grid(rows, cols);
        let n = topology.len();
        let initial: Vec<u32> = (0..n).map(|i| base + i as u32).collect();
        let schedule = ChurnSchedule::random(n, 30, rate, 256, seed).unwrap();
        let a = churn_converge(&topology, &initial, &schedule).unwrap();
        let b = churn_converge(&topology, &initial, &schedule).unwrap();
        prop_assert_eq!(&a.rounds, &b.rounds);
        prop_assert_eq!(&a.final_windows, &b.final_windows);
        prop_assert_eq!(a.settled, b.settled);
        prop_assert_eq!(a.max_reconvergence_rounds(), b.max_reconvergence_rounds());
    }

    /// With an empty churn schedule, the churn dynamics reduce exactly to
    /// plain TFT min-propagation: same fixed point, everyone present.
    #[test]
    fn churn_free_dynamics_match_plain_tft(
        rows in 2usize..5,
        cols in 2usize..5,
        base in 1u32..500,
    ) {
        use macgame_faults::ChurnSchedule;
        use macgame_multihop::convergence::churn_converge;
        let topology = Topology::grid(rows, cols);
        let n = topology.len();
        let initial: Vec<u32> = (0..n).map(|i| base + (i as u32 * 13) % 97).collect();
        let plain = tft_converge(&topology, &initial).unwrap();
        let churned = churn_converge(&topology, &initial, &ChurnSchedule::default()).unwrap();
        prop_assert!(churned.settled);
        prop_assert_eq!(churned.converged_window(), plain.converged_window());
        let present: Vec<u32> = churned.final_windows.iter().map(|w| w.unwrap()).collect();
        prop_assert_eq!(present, plain.final_windows);
    }
}
