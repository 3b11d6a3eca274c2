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
/// without building it: the same products and sum, over
/// `repeat(·).take(·)` instead of the `n`-entry vector (one run of equal
/// `τ`), so bit-for-bit `slot_stats(&vec![tau; n], params)`.
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
    let all_idle: f64 = std::iter::repeat(1.0 - tau).take(n).product();
    let others: f64 = std::iter::repeat(1.0 - tau).take(n - 1).product();
    let single: f64 = std::iter::repeat(tau * others).take(n).sum();
    stats_from(all_idle, single, params)
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

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_profile_panics() {
        let _ = slot_stats(&[], &params());
    }
}
