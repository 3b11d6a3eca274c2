//! Property-based tests of the analytical model's invariants.

use macgame_dcf::cache::{canonicalize, SolveCache};
use macgame_dcf::delay::mean_access_slots;
use macgame_dcf::fixedpoint::{solve, solve_symmetric, solve_with_guess, SolveOptions};
use macgame_dcf::markov::transmission_probability;
use macgame_dcf::optimal::{ne_interval, q_function};
use macgame_dcf::throughput::{normalized_throughput, slot_stats};
use macgame_dcf::{AccessMode, DcfParams, UtilityParams};
use proptest::prelude::*;

fn params(mode: AccessMode) -> DcfParams {
    DcfParams::builder().access_mode(mode).build().unwrap()
}

fn any_mode() -> impl Strategy<Value = AccessMode> {
    prop_oneof![Just(AccessMode::Basic), Just(AccessMode::RtsCts)]
}

proptest! {
    #[test]
    fn tau_is_a_probability(w in 1u32..5000, p in 0.0f64..=1.0, m in 0u32..8) {
        let tau = transmission_probability(w, p, m).unwrap();
        prop_assert!(tau > 0.0 && tau <= 1.0, "τ = {tau}");
    }

    #[test]
    fn tau_strictly_decreases_in_w(w in 1u32..4000, p in 0.0f64..0.99, m in 0u32..8) {
        let a = transmission_probability(w, p, m).unwrap();
        let b = transmission_probability(w + 1, p, m).unwrap();
        prop_assert!(b < a);
    }

    #[test]
    fn tau_non_increasing_in_p(w in 1u32..4000, p in 0.0f64..0.95, m in 1u32..8) {
        let a = transmission_probability(w, p, m).unwrap();
        let b = transmission_probability(w, p + 0.05, m).unwrap();
        prop_assert!(b <= a + 1e-15);
    }

    #[test]
    fn symmetric_fixed_point_satisfies_equations(
        n in 1usize..40,
        w in 1u32..2000,
        mode in any_mode(),
    ) {
        let p = params(mode);
        let sym = solve_symmetric(n, w, &p).unwrap();
        let expect_p = 1.0 - (1.0 - sym.tau).powi(n as i32 - 1);
        prop_assert!((sym.collision_prob - expect_p).abs() < 1e-10);
        let expect_tau =
            transmission_probability(w, sym.collision_prob, p.max_backoff_stage()).unwrap();
        prop_assert!((sym.tau - expect_tau).abs() < 1e-9);
    }

    #[test]
    fn heterogeneous_fixed_point_residual_small(
        windows in prop::collection::vec(1u32..1024, 2..8),
        mode in any_mode(),
    ) {
        let p = params(mode);
        let eq = solve(&windows, &p, SolveOptions::default()).unwrap();
        prop_assert!(eq.residual(&windows, &p).unwrap() < 1e-7);
    }

    #[test]
    fn lemma1_p_and_tau_orderings(
        windows in prop::collection::vec(1u32..1024, 2..8),
        mode in any_mode(),
    ) {
        let p = params(mode);
        let eq = solve(&windows, &p, SolveOptions::default()).unwrap();
        for i in 0..windows.len() {
            for j in 0..windows.len() {
                if windows[i] > windows[j] {
                    prop_assert!(eq.taus[i] < eq.taus[j] + 1e-9,
                        "W {} > {} but τ {} ≥ {}", windows[i], windows[j], eq.taus[i], eq.taus[j]);
                    prop_assert!(eq.collision_probs[i] > eq.collision_probs[j] - 1e-9);
                }
            }
        }
    }

    #[test]
    fn slot_probabilities_partition(
        taus in prop::collection::vec(0.0f64..1.0, 1..10),
        mode in any_mode(),
    ) {
        let p = params(mode);
        let stats = slot_stats(&taus, &p);
        // Idle, success and collision shares partition the slot.
        prop_assert!((0.0..=1.0).contains(&stats.p_transmit));
        prop_assert!((0.0..=1.0).contains(&stats.p_success));
        prop_assert!(stats.mean_slot.value() >= p.sigma().value() - 1e-9
            || stats.p_transmit > 0.0);
    }

    #[test]
    fn throughput_bounded(
        taus in prop::collection::vec(0.001f64..0.5, 2..8),
        mode in any_mode(),
    ) {
        let p = params(mode);
        let s = normalized_throughput(&taus, &p);
        prop_assert!((0.0..=1.0).contains(&s), "S = {s}");
    }

    #[test]
    fn q_function_strictly_decreasing(n in 2usize..60, mode in any_mode()) {
        let p = params(mode);
        let mut prev = f64::INFINITY;
        for i in 0..=50 {
            let tau = f64::from(i) / 50.0;
            let q = q_function(tau, n, &p);
            prop_assert!(q < prev);
            prev = q;
        }
    }

    #[test]
    fn ne_interval_well_formed(n in 2usize..12, mode in any_mode()) {
        let p = params(mode);
        let interval = ne_interval(n, &p, &UtilityParams::default(), 1024).unwrap();
        prop_assert!(interval.lower >= 1);
        prop_assert!(interval.lower <= interval.upper);
        prop_assert!(interval.upper <= 1024);
        prop_assert_eq!(interval.count(), interval.upper - interval.lower + 1);
    }

    #[test]
    fn warm_start_agrees_with_cold_solve(
        windows in prop::collection::vec(1u32..1024, 2..8),
        perturb in prop::collection::vec(-0.01f64..0.01, 8),
        mode in any_mode(),
    ) {
        // Seeding the iteration from a perturbed copy of the solution (a
        // stand-in for "the neighboring profile's root") must converge to
        // the same fixed point as the cold solve, within tolerance.
        let p = params(mode);
        let options = SolveOptions::default();
        let cold = solve(&windows, &p, options).unwrap();
        let seed: Vec<f64> = cold
            .taus
            .iter()
            .zip(&perturb)
            .map(|(t, d)| (t + d).clamp(0.0, 1.0))
            .collect();
        let warm = solve_with_guess(&windows, &p, options, Some(&seed)).unwrap();
        for i in 0..windows.len() {
            prop_assert!(
                (warm.taus[i] - cold.taus[i]).abs() < 100.0 * options.tolerance,
                "node {i}: warm τ {} vs cold τ {}", warm.taus[i], cold.taus[i]
            );
            prop_assert!(
                (warm.collision_probs[i] - cold.collision_probs[i]).abs()
                    < 100.0 * options.tolerance
            );
        }
    }

    #[test]
    fn cache_hits_bitwise_match_fresh_solves_under_permutation(
        windows in prop::collection::vec(1u32..1024, 2..8),
        rotation in 0usize..8,
    ) {
        // Warm the cache with the profile, then look up a rotation of it:
        // the hit must be bitwise-identical to solving the sorted profile
        // fresh and remapping through the rotation's permutation.
        let p = params(AccessMode::Basic);
        let options = SolveOptions::default();
        let cache = SolveCache::new(p, options);
        cache.solve(&windows).unwrap();
        prop_assert_eq!(cache.memo().misses(), 1);

        let k = rotation % windows.len();
        let rotated: Vec<u32> =
            windows.iter().skip(k).chain(windows.iter().take(k)).copied().collect();
        let hit = cache.solve(&rotated).unwrap();
        prop_assert_eq!(cache.memo().misses(), 1, "a permutation must not re-solve");
        prop_assert_eq!(cache.memo().hits(), 1);

        let (sorted, perm) = canonicalize(&rotated);
        let fresh = solve(&sorted, &p, options).unwrap();
        for (k, &original) in perm.iter().enumerate() {
            prop_assert_eq!(hit.taus[original], fresh.taus[k], "hit must be bitwise-identical");
            prop_assert_eq!(hit.collision_probs[original], fresh.collision_probs[k]);
        }
    }

    #[test]
    fn class_collapse_expand_is_a_permutation_stable_identity(
        picks in prop::collection::vec(0usize..5, 1..=64),
        rotation in 0usize..64,
    ) {
        use macgame_dcf::Classes;
        // Drawing from a 5-window palette bounds the class count at k ≤ 5.
        const PALETTE: [u32; 5] = [8, 16, 64, 128, 300];
        let windows: Vec<u32> = picks.iter().map(|&i| PALETTE[i]).collect();
        // Collapse → expand must reproduce every node's window exactly, and
        // any permutation of the same multiset must collapse to the *same*
        // canonical class profile (multiplicity merge subsumes sorting).
        let (profile, assignment) = Classes::collapse(&windows).unwrap();
        prop_assert!(profile.num_classes() <= 5);
        prop_assert_eq!(profile.total_nodes(), windows.len());
        prop_assert_eq!(assignment.len(), windows.len());
        for (i, &class) in assignment.iter().enumerate() {
            prop_assert_eq!(profile.keys()[class], windows[i]);
        }
        prop_assert!(profile.keys().windows(2).all(|pair| pair[0] < pair[1]));

        let k = rotation % windows.len();
        let rotated: Vec<u32> =
            windows.iter().skip(k).chain(windows.iter().take(k)).copied().collect();
        let (rotated_profile, _) = Classes::collapse(&rotated).unwrap();
        prop_assert_eq!(&rotated_profile, &profile, "canonical profile must be permutation-stable");
    }

    #[test]
    fn class_solver_matches_dense_solver_to_1e12(
        picks in prop::collection::vec(0usize..5, 2..=64),
        mode in any_mode(),
    ) {
        use macgame_dcf::fixedpoint::solve_dense;
        const PALETTE: [u32; 5] = [4, 32, 76, 150, 512];
        let windows: Vec<u32> = picks.iter().map(|&i| PALETTE[i]).collect();
        // The class-aggregated path (the public `solve`) and the dense
        // node-level reference iteration must agree on every node's τ and p
        // to 1e-12 for profiles with n ≤ 64 and k ≤ 5 classes.
        let p = params(mode);
        let options = SolveOptions::default();
        let class = solve(&windows, &p, options).unwrap();
        let dense = solve_dense(&windows, &p, options).unwrap();
        for i in 0..windows.len() {
            prop_assert!(
                (class.taus[i] - dense.taus[i]).abs() < 1e-12,
                "node {i}: class τ {} vs dense τ {}", class.taus[i], dense.taus[i]
            );
            prop_assert!(
                (class.collision_probs[i] - dense.collision_probs[i]).abs() < 1e-12,
                "node {i}: class p {} vs dense p {}",
                class.collision_probs[i], dense.collision_probs[i]
            );
        }
    }

    #[test]
    fn utilities_equal_for_symmetric_nodes(n in 2usize..30, w in 1u32..1500) {
        let p = params(AccessMode::Basic);
        let sym = solve_symmetric(n, w, &p).unwrap();
        let taus = vec![sym.tau; n];
        let ps = vec![sym.collision_prob; n];
        let us = macgame_dcf::utility::all_utilities(&taus, &ps, &p, &UtilityParams::default());
        for u in &us {
            prop_assert!((u - us[0]).abs() < 1e-15);
        }
    }

    #[test]
    fn access_slots_monotone_in_w_and_p(
        w in 1u32..2000,
        p in 0.0f64..0.90,
        m in 0u32..7,
    ) {
        let base = mean_access_slots(w, p, m).unwrap();
        let wider = mean_access_slots(w + 1, p, m).unwrap();
        prop_assert!(wider > base, "E[S] must grow with W");
        let busier = mean_access_slots(w, p + 0.04, m).unwrap();
        prop_assert!(busier >= base - 1e-9, "E[S] must not shrink with p");
        prop_assert!(base >= (f64::from(w) - 1.0) / 2.0 + 1.0 - 1e-9);
    }
}

/// A small palette of EDCA tuples covering all four knobs: drawing nodes
/// from it bounds the class count at k ≤ 5 while exercising AIFS defers,
/// TXOP bursts, and non-ambient stage caps together.
fn edca_palette(m: u32) -> [macgame_dcf::EdcaTuple; 5] {
    use macgame_dcf::EdcaTuple;
    [
        EdcaTuple::new(8, m, 0, 4).unwrap(),
        EdcaTuple::new(32, m, 0, 1).unwrap(),
        EdcaTuple::new(76, 3, 1, 2).unwrap(),
        EdcaTuple::new(150, m, 2, 1).unwrap(),
        EdcaTuple::new(512, m, 3, 8).unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The class-aggregated EDCA solve and the dense per-node reference
    /// iteration must agree on every node's τ, τ̃, and p to 1e-12 for
    /// random tuple profiles with n ≤ 64 and k ≤ 5.
    #[test]
    fn edca_class_matches_dense_to_1e12(
        picks in prop::collection::vec(0usize..5, 2..=64),
        mode in any_mode(),
    ) {
        use macgame_dcf::{solve_edca, solve_edca_dense, Classes};
        let p = params(mode);
        let palette = edca_palette(p.max_backoff_stage());
        let tuples: Vec<_> = picks.iter().map(|&i| palette[i]).collect();
        let options = SolveOptions::default();
        let (profile, assignment) = Classes::collapse(&tuples).unwrap();
        let class = solve_edca(&profile, &p, options).unwrap().expand(&assignment);
        let dense = solve_edca_dense(&tuples, options).unwrap();
        prop_assert!((class.idle_root - dense.idle_root).abs() < 1e-12);
        for i in 0..tuples.len() {
            prop_assert!(
                (class.taus[i] - dense.taus[i]).abs() < 1e-12,
                "node {i}: class τ {} vs dense τ {}", class.taus[i], dense.taus[i]
            );
            prop_assert!(
                (class.thinned_taus[i] - dense.thinned_taus[i]).abs() < 1e-12,
                "node {i}: class τ̃ {} vs dense τ̃ {}",
                class.thinned_taus[i], dense.thinned_taus[i]
            );
            prop_assert!(
                (class.collision_probs[i] - dense.collision_probs[i]).abs() < 1e-12,
                "node {i}: class p {} vs dense p {}",
                class.collision_probs[i], dense.collision_probs[i]
            );
        }
    }

    /// AIFS-thinned slot probabilities are probabilities: τ̃_c, p_c, and
    /// the idle root all stay in [0, 1], τ̃_c never exceeds τ_c, and the
    /// slot-state probabilities partition unity.
    #[test]
    fn edca_thinned_probabilities_stay_in_unit_interval(
        picks in prop::collection::vec(0usize..5, 1..=48),
        mode in any_mode(),
    ) {
        use macgame_dcf::{edca_slot_stats, solve_edca, Classes};
        let p = params(mode);
        let palette = edca_palette(p.max_backoff_stage());
        let tuples: Vec<_> = picks.iter().map(|&i| palette[i]).collect();
        let (profile, _) = Classes::collapse(&tuples).unwrap();
        let eq = solve_edca(&profile, &p, SolveOptions::default()).unwrap();
        prop_assert!((0.0..=1.0).contains(&eq.idle_root), "q = {}", eq.idle_root);
        for c in 0..profile.num_classes() {
            prop_assert!((0.0..=1.0).contains(&eq.taus[c]));
            prop_assert!((0.0..=1.0).contains(&eq.thinned_taus[c]));
            prop_assert!((0.0..=1.0).contains(&eq.collision_probs[c]));
            prop_assert!(eq.thinned_taus[c] <= eq.taus[c] + 1e-15,
                "thinning must not amplify: τ̃ {} > τ {}", eq.thinned_taus[c], eq.taus[c]);
        }
        let stats = edca_slot_stats(&profile, &eq, &p);
        let total = stats.idle_rate + stats.success_rate() + stats.collision_rate;
        prop_assert!((total - 1.0).abs() < 1e-9, "slot states must partition: {total}");
    }

    /// At equal AIFS the thinned process degrades to the baseline: every
    /// τ̃_c equals τ_c exactly, regardless of the common AIFS value, and a
    /// fully degenerate profile (ambient stage cap, unit TXOP) solves
    /// bitwise-identically to the scalar solver.
    #[test]
    fn edca_equal_aifs_degrades_to_baseline(
        picks in prop::collection::vec(0usize..5, 2..=32),
        aifs in 0u32..8,
        mode in any_mode(),
    ) {
        use macgame_dcf::{solve_edca, Classes, EdcaTuple};
        const WINDOWS: [u32; 5] = [4, 32, 76, 150, 512];
        const TXOPS: [u32; 5] = [4, 1, 2, 1, 8];
        let p = params(mode);
        let m = p.max_backoff_stage();
        // Same common AIFS everywhere, mixed TXOP: τ̃ must equal τ exactly.
        let mixed: Vec<EdcaTuple> = picks
            .iter()
            .map(|&i| EdcaTuple::new(WINDOWS[i], m, aifs, TXOPS[i]).unwrap())
            .collect();
        let (profile, _) = Classes::collapse(&mixed).unwrap();
        let eq = solve_edca(&profile, &p, SolveOptions::default()).unwrap();
        prop_assert_eq!(&eq.taus, &eq.thinned_taus, "equal AIFS must not thin");

        // Degenerate tuples (common AIFS, unit TXOP, ambient stage cap)
        // must reproduce the scalar solver bitwise.
        let degenerate: Vec<EdcaTuple> = picks
            .iter()
            .map(|&i| EdcaTuple::new(WINDOWS[i], m, aifs, 1).unwrap())
            .collect();
        let windows: Vec<u32> = picks.iter().map(|&i| WINDOWS[i]).collect();
        let (profile, assignment) = Classes::collapse(&degenerate).unwrap();
        let edca = solve_edca(&profile, &p, SolveOptions::default())
            .unwrap()
            .expand(&assignment);
        let scalar = solve(&windows, &p, SolveOptions::default()).unwrap();
        prop_assert_eq!(&edca.taus, &scalar.taus, "degenerate τ must be bitwise");
        prop_assert_eq!(&edca.thinned_taus, &scalar.taus);
        prop_assert_eq!(&edca.collision_probs, &scalar.collision_probs);
    }
}

/// Degenerate EDCA tuples solve bitwise-identically to the scalar solver
/// on the paper's Table II/III fixture profiles.
#[test]
fn edca_degenerate_bitwise_on_table_fixtures() {
    use macgame_dcf::{solve_edca, Classes, EdcaTuple};
    let fixtures: [(AccessMode, &[&[u32]]); 2] = [
        (AccessMode::Basic, &[&[32; 5], &[76; 5], &[76; 10], &[128; 20], &[16, 48, 96, 192]]),
        (AccessMode::RtsCts, &[&[48; 8], &[8, 48, 48, 256]]),
    ];
    for (mode, profiles) in fixtures {
        let p = params(mode);
        for windows in profiles {
            let tuples: Vec<EdcaTuple> =
                windows.iter().map(|&w| EdcaTuple::legacy(w, &p).unwrap()).collect();
            let (profile, assignment) = Classes::collapse(&tuples).unwrap();
            assert!(profile.is_degenerate(&p));
            let edca =
                solve_edca(&profile, &p, SolveOptions::default()).unwrap().expand(&assignment);
            let scalar = solve(windows, &p, SolveOptions::default()).unwrap();
            assert_eq!(edca.taus, scalar.taus, "{mode:?} {windows:?}");
            assert_eq!(edca.thinned_taus, scalar.taus, "{mode:?} {windows:?}");
            assert_eq!(edca.collision_probs, scalar.collision_probs, "{mode:?} {windows:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Wherever the plain solver converges, the fallback ladder must land
    /// on rung 1 and return a bitwise-identical equilibrium: the robust
    /// path may only ever *add* convergence, never change an answer.
    #[test]
    fn solve_robust_is_transparent_when_plain_solve_converges(
        windows in prop::collection::vec(1u32..1024, 2..8),
        mode in prop_oneof![Just(AccessMode::Basic), Just(AccessMode::RtsCts)],
    ) {
        use macgame_dcf::fixedpoint::solve_robust;
        use macgame_dcf::SolveRung;
        let p = params(mode);
        let options = SolveOptions::default();
        if let Ok(plain) = solve(&windows, &p, options) {
            let robust = solve_robust(&windows, &p, options).unwrap();
            prop_assert_eq!(robust.rung, SolveRung::Accelerated);
            prop_assert!(robust.attempts.is_empty());
            prop_assert_eq!(&plain.taus, &robust.equilibrium.taus);
            prop_assert_eq!(&plain.collision_probs, &robust.equilibrium.collision_probs);
        }
    }

    /// Starving the iterative rungs forces the ladder past rung 1, and the
    /// safe-mode answer still agrees with the plain solver to within the
    /// safe-mode residual gate.
    #[test]
    fn starved_ladder_still_agrees_with_the_plain_solver(
        windows in prop::collection::vec(2u32..512, 2..6),
        mode in prop_oneof![Just(AccessMode::Basic), Just(AccessMode::RtsCts)],
    ) {
        use macgame_dcf::fixedpoint::solve_robust;
        let p = params(mode);
        if let Ok(plain) = solve(&windows, &p, SolveOptions::default()) {
            let starved = SolveOptions { max_iterations: 1, ..SolveOptions::default() };
            let robust = solve_robust(&windows, &p, starved).unwrap();
            for (a, b) in plain.taus.iter().zip(&robust.equilibrium.taus) {
                prop_assert!((a - b).abs() < 1e-6, "τ gap {} vs {}", a, b);
            }
        }
    }
}
