//! Bit-exactness of the analytic kernels against reference copies of the
//! loops they replaced.
//!
//! The production kernels stop their bisections once the bracket reaches
//! its fixed point, take the `Π_{j≠i}(1−τ_j)` product of `slot_stats`
//! once per run of bitwise-equal `τ`, compute the slot statistics of
//! `all_utilities` once per profile, and price a one-deviator profile
//! without building it. Each reference below is the plain
//! fixed-step or all-pairs loop; every comparison is on the raw bits.

use macgame_dcf::fixedpoint::{solve_symmetric, SymmetricPoint};
use macgame_dcf::markov::transmission_probability;
use macgame_dcf::optimal::{efficient_cw, optimal_tau, q_function};
use macgame_dcf::throughput::{slot_stats, SlotStats};
use macgame_dcf::utility::{
    all_utilities, node_utility, one_deviator_utilities, symmetric_node_utility, SymmetricSolution,
};
use macgame_dcf::{AccessMode, DcfError, DcfParams, UtilityParams};

/// The solver corner grid: populations, windows and backoff stages.
const GRID_N: [usize; 7] = [1, 2, 3, 10, 128, 1_000, 1_000_000];
const GRID_W: [u32; 5] = [1, 2, 31, 1024, 1 << 16];
const GRID_M: std::ops::RangeInclusive<u32> = 0..=10;

fn params(mode: AccessMode, m: u32) -> DcfParams {
    DcfParams::builder().access_mode(mode).max_backoff_stage(m).build().unwrap()
}

/// splitmix64 (the vendored `rand::splitmix64`): a fixed stream, so every
/// run sees the same profiles.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        rand::splitmix64(&mut self.0)
    }

    fn below(&mut self, k: usize) -> usize {
        (self.next() % k as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A probability, with the edge values `0.0`, `-0.0` and `1.0` and
    /// small operating-point-like values over-represented.
    fn prob(&mut self) -> f64 {
        match self.below(8) {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0,
            3 | 4 => 0.2 * self.unit(),
            _ => self.unit(),
        }
    }
}

// ---- reference copies of the replaced loops ---------------------------------

fn slot_stats_all_pairs(taus: &[f64], params: &DcfParams) -> SlotStats {
    let all_idle: f64 = taus.iter().map(|&t| 1.0 - t).product();
    let p_transmit = 1.0 - all_idle;
    let single: f64 = taus
        .iter()
        .enumerate()
        .map(|(i, &ti)| {
            ti * taus
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &tj)| 1.0 - tj)
                .product::<f64>()
        })
        .sum();
    let p_success = if p_transmit > 0.0 { (single / p_transmit).clamp(0.0, 1.0) } else { 0.0 };
    let t = params.timings();
    let mean_slot = (1.0 - p_transmit) * params.sigma()
        + p_transmit * p_success * t.success_time
        + p_transmit * (1.0 - p_success) * t.collision_time;
    SlotStats { p_transmit, p_success, mean_slot }
}

/// The per-node utility formula over the all-pairs statistics. The old
/// form recomputed those statistics for every node; they are a pure
/// function of the profile, so computing them once here is the same value.
fn utilities_per_node(
    taus: &[f64],
    ps: &[f64],
    params: &DcfParams,
    utility: &UtilityParams,
) -> Vec<f64> {
    let stats = slot_stats_all_pairs(taus, params);
    (0..taus.len())
        .map(|i| taus[i] * ((1.0 - ps[i]) * utility.gain - utility.cost) / stats.mean_slot.value())
        .collect()
}

fn solve_symmetric_200_steps(
    n: usize,
    w: u32,
    params: &DcfParams,
) -> Result<SymmetricPoint, DcfError> {
    if n == 0 {
        return Err(DcfError::invalid("n", "need at least one node"));
    }
    if w == 0 {
        return Err(DcfError::invalid("windows", "contention windows must be at least 1"));
    }
    let m = params.max_backoff_stage();
    if n == 1 {
        let tau = transmission_probability(w, 0.0, m)?;
        return Ok(SymmetricPoint { n, window: w, tau, collision_prob: 0.0 });
    }
    let f = |tau: f64| -> Result<f64, DcfError> {
        let p = 1.0 - (1.0 - tau).powi(n as i32 - 1);
        Ok(tau - transmission_probability(w, p.clamp(0.0, 1.0), m)?)
    };
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if f(mid)? <= 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let tau = 0.5 * (lo + hi);
    let collision_prob = (1.0 - (1.0 - tau).powi(n as i32 - 1)).clamp(0.0, 1.0);
    Ok(SymmetricPoint { n, window: w, tau, collision_prob })
}

fn optimal_tau_200_steps(n: usize, params: &DcfParams) -> Result<f64, DcfError> {
    if n < 2 {
        return Err(DcfError::invalid("n", "need at least two contenders"));
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if q_function(mid, n, params) >= 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

// ---- profile families --------------------------------------------------------

/// Profiles with runs: homogeneous, one deviator (first or anywhere),
/// sorted class expansions, interleaved runs that revisit earlier values,
/// and free-form profiles; all with `0.0`, `-0.0` and `1.0` in the mix.
fn profile(rng: &mut Rng) -> Vec<f64> {
    let n = 1 + rng.below(300);
    match rng.below(5) {
        0 => vec![rng.prob(); n],
        1 => {
            let mut taus = vec![rng.prob(); n];
            let at = if rng.below(2) == 0 { 0 } else { rng.below(n) };
            taus[at] = rng.prob();
            taus
        }
        2 => {
            let k = 1 + rng.below(6);
            let mut classes: Vec<(f64, usize)> =
                (0..k).map(|_| (rng.prob(), 1 + rng.below(60))).collect();
            classes.sort_by(|a, b| a.0.total_cmp(&b.0));
            classes.iter().flat_map(|&(t, c)| std::iter::repeat(t).take(c)).take(300).collect()
        }
        3 => {
            let values: Vec<f64> = (0..1 + rng.below(4)).map(|_| rng.prob()).collect();
            let mut taus = Vec::with_capacity(n);
            while taus.len() < n {
                let t = values[rng.below(values.len())];
                let run = 1 + rng.below(12);
                taus.extend(std::iter::repeat(t).take(run.min(n - taus.len())));
            }
            taus
        }
        _ => (0..n).map(|_| rng.prob()).collect(),
    }
}

fn assert_stats_bits(got: &SlotStats, want: &SlotStats, taus: &[f64]) {
    assert_eq!(got.p_transmit.to_bits(), want.p_transmit.to_bits(), "p_transmit for {taus:?}");
    assert_eq!(got.p_success.to_bits(), want.p_success.to_bits(), "p_success for {taus:?}");
    assert_eq!(
        got.mean_slot.value().to_bits(),
        want.mean_slot.value().to_bits(),
        "mean_slot for {taus:?}"
    );
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

// ---- tests -------------------------------------------------------------------

#[test]
fn slot_stats_is_bitwise_the_all_pairs_sum() {
    let mut rng = Rng(0x5107);
    for mode in [AccessMode::Basic, AccessMode::RtsCts] {
        let p = params(mode, 5);
        for _ in 0..2_000 {
            let taus = profile(&mut rng);
            assert_stats_bits(&slot_stats(&taus, &p), &slot_stats_all_pairs(&taus, &p), &taus);
        }
    }
}

#[test]
fn slot_stats_is_bitwise_exact_on_the_corner_grid() {
    // Homogeneous and one-deviator profiles at the solver's own roots.
    for m in GRID_M {
        let p = params(AccessMode::Basic, m);
        for n in GRID_N.into_iter().filter(|&n| n <= 1_000) {
            for w in GRID_W {
                let sym = solve_symmetric(n, w, &p).unwrap();
                let mut taus = vec![sym.tau; n];
                assert_stats_bits(&slot_stats(&taus, &p), &slot_stats_all_pairs(&taus, &p), &taus);
                taus[0] = solve_symmetric(n, 1, &p).unwrap().tau;
                assert_stats_bits(&slot_stats(&taus, &p), &slot_stats_all_pairs(&taus, &p), &taus);
            }
        }
    }
}

#[test]
fn all_utilities_is_bitwise_the_per_node_form() {
    let mut rng = Rng(0xA11);
    let utility = UtilityParams::default();
    for mode in [AccessMode::Basic, AccessMode::RtsCts] {
        let p = params(mode, 5);
        for _ in 0..1_000 {
            let taus = profile(&mut rng);
            let ps: Vec<f64> = if rng.below(2) == 0 {
                (0..taus.len()).map(|_| rng.prob()).collect()
            } else {
                // The collision probabilities the fixed point pairs with τ.
                (0..taus.len())
                    .map(|i| {
                        let others: f64 = taus
                            .iter()
                            .enumerate()
                            .filter(|&(j, _)| j != i)
                            .map(|(_, &t)| 1.0 - t)
                            .product();
                        (1.0 - others).clamp(0.0, 1.0)
                    })
                    .collect()
            };
            let want = bits(&utilities_per_node(&taus, &ps, &p, &utility));
            assert_eq!(bits(&all_utilities(&taus, &ps, &p, &utility)), want, "{taus:?}");
            if taus.len() <= 64 {
                let per_node: Vec<f64> =
                    (0..taus.len()).map(|i| node_utility(i, &taus, &ps, &p, &utility)).collect();
                assert_eq!(bits(&per_node), want, "{taus:?}");
            }
        }
    }
}

#[test]
fn all_utilities_keeps_the_per_node_checks() {
    let p = DcfParams::default();
    let u = UtilityParams::default();
    assert!(all_utilities(&[], &[], &p, &u).is_empty());
    let bad_p = std::panic::catch_unwind(|| all_utilities(&[0.1, 0.2], &[0.1, 1.5], &p, &u));
    assert!(bad_p.is_err(), "a collision probability above 1 must panic");
    let bad_len = std::panic::catch_unwind(|| all_utilities(&[0.1, 0.2], &[0.1], &p, &u));
    assert!(bad_len.is_err(), "mismatched profile lengths must panic");
}

#[test]
fn one_deviator_utilities_are_bitwise_those_of_the_node_profile() {
    // The corner grid: the solver's roots at the grid windows, the edge
    // values, a τ whose crowd product underflows, and τ_dev == τ.
    let u = UtilityParams::default();
    let mut rng = Rng(0xDE7);
    for mode in [AccessMode::Basic, AccessMode::RtsCts] {
        let p = params(mode, 5);
        for n in GRID_N.into_iter().filter(|&n| n >= 2) {
            let roots = GRID_W.map(|w| solve_symmetric(n, w, &p).unwrap().tau);
            let taus: Vec<f64> = if n <= 1_000 {
                roots.into_iter().chain([0.0, -0.0, 1.0, 0.5, 1e-3, 5e-324]).collect()
            } else {
                // The node-level reference folds subnormals at full cost:
                // keep the large population to roots whose folds stay
                // normal, and a zero factor.
                vec![roots[3], roots[4], 1.0]
            };
            for &tau_dev in &taus {
                for &tau in &taus {
                    let (p_dev, p_crowd) = (rng.prob(), rng.prob());
                    let mut node_taus = vec![tau; n];
                    node_taus[0] = tau_dev;
                    let mut node_ps = vec![p_crowd; n];
                    node_ps[0] = p_dev;
                    let want = all_utilities(&node_taus, &node_ps, &p, &u);
                    let got = one_deviator_utilities((tau_dev, p_dev), (tau, p_crowd), n, &p, &u);
                    assert_eq!(
                        bits(&got),
                        bits(&want[..2]),
                        "{mode:?} n = {n}, τ_dev = {tau_dev:e}, τ = {tau:e}"
                    );
                    if n <= 128 {
                        let per_node = utilities_per_node(&node_taus, &node_ps, &p, &u);
                        assert_eq!(bits(&got), bits(&per_node[..2]), "all-pairs, n = {n}");
                    }
                }
            }
        }
    }
}

#[test]
fn one_deviator_utilities_keep_the_node_checks() {
    let p = DcfParams::default();
    let u = UtilityParams::default();
    let price = |dev: (f64, f64), crowd: (f64, f64), n: usize| {
        std::panic::catch_unwind(|| one_deviator_utilities(dev, crowd, n, &p, &u))
    };
    assert!(price((0.1, 0.1), (0.2, 0.2), 2).is_ok());
    assert!(price((0.1, 0.1), (0.2, 0.2), 1).is_err(), "a deviator needs a crowd");
    assert!(price((0.1, 1.5), (0.2, 0.2), 3).is_err(), "deviator's p above 1");
    assert!(price((0.1, 0.1), (0.2, -0.5), 3).is_err(), "crowd's p below 0");
    assert!(price((1.5, 0.1), (0.2, 0.2), 3).is_err(), "deviator's τ above 1");
}

#[test]
fn symmetric_node_utility_is_node_zero_of_the_homogeneous_profile() {
    let u = UtilityParams::default();
    for m in [0, 5, 10] {
        let p = params(AccessMode::Basic, m);
        for n in GRID_N.into_iter().filter(|&n| n <= 1_000) {
            for w in GRID_W {
                let sym = solve_symmetric(n, w, &p).unwrap();
                let taus = vec![sym.tau; n];
                let ps = vec![sym.collision_prob; n];
                assert_eq!(
                    symmetric_node_utility(&sym, &p, &u).to_bits(),
                    utilities_per_node(&taus, &ps, &p, &u)[0].to_bits(),
                    "n = {n}, W = {w}, m = {m}"
                );
            }
        }
    }
}

#[test]
fn symmetric_solution_stats_are_bitwise_those_of_the_profile() {
    let p = DcfParams::default();
    for n in GRID_N {
        let roots = [1, 31, 1 << 16].map(|w| solve_symmetric(n, w, &p).unwrap().tau);
        for tau in roots.into_iter().chain([0.0, 1.0, 0.5]) {
            let point = SymmetricPoint { n, window: 1, tau, collision_prob: 0.0 };
            let got = SymmetricSolution::new(point, &p).stats;
            let want = slot_stats(&vec![tau; n], &p);
            assert_stats_bits(&got, &want, &[tau]);
        }
    }
}

#[test]
fn solve_symmetric_is_bitwise_the_200_step_bisection() {
    for m in GRID_M {
        let p = params(AccessMode::Basic, m);
        for n in std::iter::once(0).chain(GRID_N) {
            for w in std::iter::once(0).chain(GRID_W) {
                let got = solve_symmetric(n, w, &p);
                let want = solve_symmetric_200_steps(n, w, &p);
                match (got, want) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.tau.to_bits(), b.tau.to_bits(), "τ at n={n} W={w} m={m}");
                        assert_eq!(
                            a.collision_prob.to_bits(),
                            b.collision_prob.to_bits(),
                            "p at n={n} W={w} m={m}"
                        );
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "n={n} W={w} m={m}"),
                    (a, b) => panic!("n={n} W={w} m={m}: {a:?} vs {b:?}"),
                }
            }
        }
    }
}

#[test]
fn solve_symmetric_is_bitwise_the_200_step_bisection_on_random_cases() {
    let mut rng = Rng(0xF11);
    let params: Vec<DcfParams> = (0..=10).map(|m| params(AccessMode::Basic, m)).collect();
    let mut cases: Vec<(usize, u32, u32)> = Vec::new();
    // Populations just under the `i32` exponent bound, and the constant
    // family W = 1, m = 0, where τ(1, p) = 1 for every p.
    for n in [i32::MAX as usize - 1, i32::MAX as usize] {
        for w in [1, 2, 31, 1 << 16] {
            cases.push((n, w, rng.below(11) as u32));
        }
    }
    for n in [2, 3, 10, 1_000_000] {
        cases.push((n, 1, 0));
    }
    for _ in 0..20_000 {
        let n = match rng.below(4) {
            0 => 2 + rng.below(8),
            1 => 2 + rng.below(3_000),
            2 => 2 + rng.below(1 << 20),
            _ => 2 + rng.below(i32::MAX as usize - 1),
        };
        let w = match rng.below(3) {
            0 => 1 + rng.below(16) as u32,
            1 => 1 + rng.below(1024) as u32,
            _ => 1 + rng.below(1 << 16) as u32,
        };
        cases.push((n, w, rng.below(11) as u32));
    }
    for (n, w, m) in cases {
        let p = &params[m as usize];
        let got = solve_symmetric(n, w, p).unwrap();
        let want = solve_symmetric_200_steps(n, w, p).unwrap();
        assert_eq!(got.tau.to_bits(), want.tau.to_bits(), "τ at n={n} W={w} m={m}");
        assert_eq!(
            got.collision_prob.to_bits(),
            want.collision_prob.to_bits(),
            "p at n={n} W={w} m={m}"
        );
    }
}

#[test]
fn solve_symmetric_rejects_populations_past_the_exponent_bound() {
    let p = DcfParams::default();
    assert!(solve_symmetric(i32::MAX as usize, 32, &p).is_ok());
    for n in [i32::MAX as usize + 1, i32::MAX as usize + 2, usize::MAX] {
        let err = solve_symmetric(n, 32, &p).unwrap_err();
        assert!(matches!(err, DcfError::InvalidParameter { name: "n", .. }), "n={n}: {err:?}");
        let err = optimal_tau(n, &p).unwrap_err();
        assert!(matches!(err, DcfError::InvalidParameter { name: "n", .. }), "n={n}: {err:?}");
    }
}

#[test]
fn optimal_tau_is_bitwise_the_200_step_bisection() {
    for mode in [AccessMode::Basic, AccessMode::RtsCts] {
        for m in GRID_M {
            let p = params(mode, m);
            for n in GRID_N {
                match (optimal_tau(n, &p), optimal_tau_200_steps(n, &p)) {
                    (Ok(a), Ok(b)) => assert_eq!(a.to_bits(), b.to_bits(), "n={n} m={m}"),
                    (Err(a), Err(b)) => assert_eq!(a, b, "n={n} m={m}"),
                    (a, b) => panic!("n={n} m={m}: {a:?} vs {b:?}"),
                }
            }
        }
    }
}

#[test]
fn efficient_cw_pins_large_populations() {
    // Values of the exhaustive-step kernels; the n = 10⁴ search took about
    // 16 s with them and takes milliseconds now.
    let p = DcfParams::default();
    let u = UtilityParams::default();
    let ne = efficient_cw(1_000, &p, &u, 1 << 20).unwrap();
    assert_eq!(ne.window, 17_327);
    assert_eq!(ne.utility.to_bits(), 9.964_804_839_290_472e-8_f64.to_bits());
    let ne = efficient_cw(10_000, &p, &u, 1 << 20).unwrap();
    assert_eq!(ne.window, 173_340);
    assert_eq!(ne.utility.to_bits(), 9.964_350_169_269_757e-9_f64.to_bits());
}
