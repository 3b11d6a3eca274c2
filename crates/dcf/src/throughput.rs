//! Channel slot statistics and normalized throughput (paper Section III).
//!
//! Given the per-node transmission probabilities `τ_i` and frame timings,
//! a randomly chosen slot is empty with probability `1 − P_tr`, carries a
//! success with probability `P_tr·P_s` and a collision otherwise; the mean
//! slot length `T_slot` weights those outcomes by σ, `T_s` and `T_c`.

use serde::{Deserialize, Serialize};

use crate::params::DcfParams;
use crate::units::MicroSecs;

/// Probabilistic description of a random channel slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotStats {
    /// `P_tr`: probability that at least one node transmits.
    pub p_transmit: f64,
    /// `P_s`: probability that a transmission slot is a success
    /// (exactly one transmitter), conditioned on `P_tr`.
    pub p_success: f64,
    /// Mean slot duration `T_slot`.
    pub mean_slot: MicroSecs,
}

impl SlotStats {
    /// Unconditional probability that a random slot carries a success.
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        self.p_transmit * self.p_success
    }
}

/// Computes [`SlotStats`] from a transmission-probability profile.
///
/// # Panics
///
/// Panics if `taus` is empty or contains values outside `[0, 1]`
/// (the profile comes from our own solvers, so this is a programming error,
/// not a recoverable condition).
#[must_use]
pub fn slot_stats(taus: &[f64], params: &DcfParams) -> SlotStats {
    assert!(!taus.is_empty(), "need at least one node"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
    assert!(
        // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        taus.iter().all(|t| (0.0..=1.0).contains(t)),
        "transmission probabilities must be in [0, 1]"
    );
    let all_idle: f64 = taus.iter().map(|&t| 1.0 - t).product();
    // `single = Σ_i τ_i·Π_{j≠i}(1−τ_j)`. Inside a run of bitwise-equal
    // consecutive `τ`, every member's product multiplies the same factor
    // values in the same order, so it is taken once per run; the terms
    // are still added one per node, in node order. Bit-for-bit the
    // all-pairs sum, at O(n·runs) instead of O(n²).
    let single: f64 = bitwise_runs(taus)
        .flat_map(|(start, len)| {
            let others = taus
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != start)
                .map(|(_, &tj)| 1.0 - tj)
                .product::<f64>();
            taus[start..start + len].iter().map(move |&ti| ti * others)
        })
        .sum();
    stats_from(all_idle, single, params)
}

/// [`slot_stats`] of the homogeneous profile of `n` nodes at `tau`,
/// without building it: the same products and sum, folded in the same
/// order over one run of equal `τ`, so bit-for-bit
/// `slot_stats(&vec![tau; n], params)`. Each fold stops once a step leaves
/// its accumulator unchanged ([`repeated_fold`]), so a fold that underflows
/// to zero or stalls on a subnormal costs a block, not `n` steps.
///
/// # Panics
///
/// Panics if `n == 0` or `tau ∉ [0, 1]`, as [`slot_stats`] does.
#[must_use]
pub(crate) fn homogeneous_slot_stats(tau: f64, n: usize, params: &DcfParams) -> SlotStats {
    assert!(n > 0, "need at least one node"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
    assert!(
        // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        (0.0..=1.0).contains(&tau),
        "transmission probabilities must be in [0, 1]"
    );
    let idle = 1.0 - tau;
    let all_idle = repeated_fold(1.0, n, |acc| acc * idle);
    let others = repeated_fold(1.0, n - 1, |acc| acc * idle);
    let term = tau * others;
    let single = repeated_fold(SUM_START, n, |acc| acc + term);
    stats_from(all_idle, single, params)
}

/// [`slot_stats`] of the one-deviator profile `[tau_dev, tau, …, tau]` of
/// `n ≥ 2` nodes, without building it. Bit for bit the node-level fold:
/// when `tau_dev` and `tau` are bitwise equal the profile is one run and
/// this is [`homogeneous_slot_stats`]; otherwise it is two runs, node 0's
/// product over the `n − 1` crowd factors and one product, over node 0's
/// factor then `n − 2` crowd factors, shared by the crowd's `n − 1` terms,
/// each fold taken left to right as `Iterator::product` and
/// `Iterator::sum` take it.
///
/// # Panics
///
/// Panics if `n < 2` or either `τ ∉ [0, 1]`.
#[must_use]
pub(crate) fn one_deviator_slot_stats(
    tau_dev: f64,
    tau: f64,
    n: usize,
    params: &DcfParams,
) -> SlotStats {
    assert!(n >= 2, "a deviator needs a crowd"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
    assert!(
        // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        (0.0..=1.0).contains(&tau_dev) && (0.0..=1.0).contains(&tau),
        "transmission probabilities must be in [0, 1]"
    );
    if tau_dev.to_bits() == tau.to_bits() {
        return homogeneous_slot_stats(tau, n, params);
    }
    let idle = 1.0 - tau;
    // `1.0 · x` is `x` bitwise, so each product that starts on node 0's
    // factor starts from it.
    let all_idle = repeated_fold(1.0 - tau_dev, n - 1, |acc| acc * idle);
    let others_of_dev = repeated_fold(1.0, n - 1, |acc| acc * idle);
    let others_of_crowd = repeated_fold(1.0 - tau_dev, n - 2, |acc| acc * idle);
    let crowd_term = tau * others_of_crowd;
    let single = repeated_fold(SUM_START + tau_dev * others_of_dev, n - 1, |acc| acc + crowd_term);
    stats_from(all_idle, single, params)
}

/// The accumulator `f64`'s `Iterator::sum` starts from (`-0.0`, the
/// additive identity that keeps a sum of `-0.0` terms `-0.0`).
const SUM_START: f64 = -0.0;

/// Steps between two checks of [`repeated_fold`]'s early stop. A check on
/// every step costs more than the steps it saves at `n ≤ 10⁶`.
const FOLD_BLOCK: usize = 1024;

/// `init` folded through `step` `count` times, left to right: the fold of
/// `Iterator::product` or `Iterator::sum` over `count` equal items. After
/// each block of [`FOLD_BLOCK`] steps, a last step that left the
/// accumulator's bits unchanged ends the fold: every later step is the
/// same operation on the same value, so the result is bitwise the full
/// fold's.
fn repeated_fold(init: f64, count: usize, step: impl Fn(f64) -> f64) -> f64 {
    let mut acc = init;
    let mut left = count;
    while left > 0 {
        let block = left.min(FOLD_BLOCK);
        for _ in 1..block {
            acc = step(acc);
        }
        let next = step(acc);
        if next.to_bits() == acc.to_bits() {
            return next;
        }
        acc = next;
        left -= block;
    }
    acc
}

/// The slot statistics from the all-idle probability and the
/// single-transmitter sum `Σ_i τ_i·Π_{j≠i}(1−τ_j)`.
fn stats_from(all_idle: f64, single: f64, params: &DcfParams) -> SlotStats {
    let p_transmit = 1.0 - all_idle;
    let p_success = if p_transmit > 0.0 { (single / p_transmit).clamp(0.0, 1.0) } else { 0.0 };
    let t = params.timings();
    let mean_slot = (1.0 - p_transmit) * params.sigma()
        + p_transmit * p_success * t.success_time
        + p_transmit * (1.0 - p_success) * t.collision_time;
    SlotStats { p_transmit, p_success, mean_slot }
}

/// Maximal runs of bitwise-equal consecutive entries, as `(start, len)`.
fn bitwise_runs(taus: &[f64]) -> impl Iterator<Item = (usize, usize)> + '_ {
    let mut start = 0;
    std::iter::from_fn(move || {
        let bits = taus.get(start)?.to_bits();
        let len = taus[start..].iter().take_while(|t| t.to_bits() == bits).count();
        let run = (start, len);
        start += len;
        Some(run)
    })
}

/// Normalized saturation throughput `S`: the fraction of channel time spent
/// carrying successful payload bits.
///
/// # Panics
///
/// Same conditions as [`slot_stats`].
#[must_use]
pub fn normalized_throughput(taus: &[f64], params: &DcfParams) -> f64 {
    let stats = slot_stats(taus, params);
    stats.success_rate() * (params.payload_time() / stats.mean_slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixedpoint::solve_symmetric;
    use crate::params::AccessMode;

    fn params() -> DcfParams {
        DcfParams::default()
    }

    #[test]
    fn slot_probabilities_partition() {
        let stats = slot_stats(&[0.1, 0.2, 0.05], &params());
        // Idle, success and collision shares partition the slot.
        assert!((0.0..=1.0).contains(&stats.p_transmit));
        assert!((0.0..=1.0).contains(&stats.p_success));
    }

    #[test]
    fn single_node_never_collides() {
        let stats = slot_stats(&[0.3], &params());
        assert!((stats.p_success - 1.0).abs() < 1e-12);
        assert!((stats.p_transmit - 0.3).abs() < 1e-12);
    }

    #[test]
    fn all_silent_gives_idle_slots() {
        let stats = slot_stats(&[0.0, 0.0], &params());
        assert_eq!(stats.p_transmit, 0.0);
        assert_eq!(stats.mean_slot, params().sigma());
        assert_eq!(normalized_throughput(&[0.0, 0.0], &params()), 0.0);
    }

    #[test]
    fn certain_collision() {
        let stats = slot_stats(&[1.0, 1.0], &params());
        assert_eq!(stats.p_transmit, 1.0);
        assert_eq!(stats.p_success, 0.0);
        assert_eq!(stats.mean_slot, params().timings().collision_time);
    }

    #[test]
    fn throughput_in_unit_interval() {
        let p = params();
        for n in [2usize, 5, 20] {
            for w in [8u32, 32, 128, 512] {
                let sym = solve_symmetric(n, w, &p).unwrap();
                let s = normalized_throughput(&vec![sym.tau; n], &p);
                assert!((0.0..=1.0).contains(&s), "S = {s} for n={n}, W={w}");
            }
        }
    }

    #[test]
    fn bianchi_scale_sanity() {
        // At the paper's parameters with a sensible CW, saturation throughput
        // should be high (payload dominates headers at 8184-bit frames).
        let p = params();
        let sym = solve_symmetric(5, 76, &p).unwrap();
        let s = normalized_throughput(&[sym.tau; 5], &p);
        assert!(s > 0.7 && s < 0.95, "S = {s}");
    }

    #[test]
    fn rtscts_beats_basic_at_small_window() {
        // Cheap collisions make RTS/CTS far better when contention is fierce.
        let basic = params();
        let rtscts = DcfParams::builder().access_mode(AccessMode::RtsCts).build().unwrap();
        let n = 20;
        let sym_b = solve_symmetric(n, 2, &basic).unwrap();
        let sym_r = solve_symmetric(n, 2, &rtscts).unwrap();
        let s_basic = normalized_throughput(&vec![sym_b.tau; n], &basic);
        let s_rtscts = normalized_throughput(&vec![sym_r.tau; n], &rtscts);
        assert!(s_rtscts > 1.5 * s_basic, "basic {s_basic} vs rts/cts {s_rtscts}");
    }

    /// The folds `homogeneous_slot_stats` stops early, run to the end.
    fn plain_homogeneous(tau: f64, n: usize, params: &DcfParams) -> SlotStats {
        let all_idle: f64 = std::iter::repeat(1.0 - tau).take(n).product();
        let others: f64 = std::iter::repeat(1.0 - tau).take(n - 1).product();
        let single: f64 = std::iter::repeat(tau * others).take(n).sum();
        stats_from(all_idle, single, params)
    }

    fn stats_bits(s: &SlotStats) -> [u64; 3] {
        [s.p_transmit.to_bits(), s.p_success.to_bits(), s.mean_slot.value().to_bits()]
    }

    /// `τ` values whose folds stay normal (`6.1e-5`, the W = 1024 root
    /// at n = 10⁶; `1e-17`, whose `1 − τ` is 1), run through subnormals
    /// to `0.0` (`1e-3`, `0.5`), reach `0.0` at once (`1.0`) or never
    /// move (`0.0`, `-0.0`).
    const FOLD_TAUS: [f64; 7] = [6.1e-5, 1e-17, 1e-3, 0.5, 1.0, 0.0, -0.0];
    const FOLD_NS: [usize; 6] = [1, 2, 1_023, 1_024, 1_025, 1_000_000];

    #[test]
    fn repeated_fold_is_bitwise_the_plain_fold() {
        for n in FOLD_NS {
            for tau in FOLD_TAUS {
                let x = 1.0 - tau;
                let product: f64 = std::iter::repeat(x).take(n).product();
                let sum: f64 = std::iter::repeat(tau * x).take(n).sum();
                assert_eq!(repeated_fold(1.0, n, |a| a * x).to_bits(), product.to_bits());
                assert_eq!(
                    repeated_fold(SUM_START, n, |a| a + tau * x).to_bits(),
                    sum.to_bits(),
                    "n = {n}, τ = {tau:e}"
                );
            }
        }
        let empty: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(SUM_START.to_bits(), empty.to_bits(), "Sum's starting value");
    }

    #[test]
    fn homogeneous_stats_are_bitwise_the_plain_folds() {
        for params in
            [params(), DcfParams::builder().access_mode(AccessMode::RtsCts).build().unwrap()]
        {
            for n in FOLD_NS {
                for tau in FOLD_TAUS {
                    assert_eq!(
                        stats_bits(&homogeneous_slot_stats(tau, n, &params)),
                        stats_bits(&plain_homogeneous(tau, n, &params)),
                        "n = {n}, τ = {tau:e}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_profile_panics() {
        let _ = slot_stats(&[], &params());
    }
}
