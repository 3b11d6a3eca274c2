//! Per-node utility and welfare (paper Section IV).
//!
//! Node `i`'s utility is its expected net gain per unit of channel time,
//!
//! ```text
//! u_i = τ_i·((1 − p_i)·g − e) / T_slot
//! ```
//!
//! where `g` is the gain of a successful packet, `e` the energy cost of an
//! attempt, and `T_slot` the mean slot length. Stage and discounted-total
//! utilities scale `u_i` by the stage duration `T` and the discount factor
//! `δ` of the repeated game.

use serde::{Deserialize, Serialize};

use crate::fixedpoint::SymmetricPoint;
use crate::params::DcfParams;
use crate::throughput::{homogeneous_slot_stats, one_deviator_slot_stats, slot_stats, SlotStats};
use crate::units::MicroSecs;

/// Gain/cost parameters of the utility function.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilityParams {
    /// Gain `g` for a successfully delivered packet.
    pub gain: f64,
    /// Cost `e` of transmitting a packet (energy), paid per attempt.
    pub cost: f64,
}

impl Default for UtilityParams {
    /// Table I values: `g = 1`, `e = 0.01`.
    fn default() -> Self {
        UtilityParams { gain: 1.0, cost: 0.01 }
    }
}

/// Utility of node `i` per microsecond of channel time, given the full
/// transmission/collision probability profile.
///
/// # Panics
///
/// Panics if `node` is out of range, the profiles disagree in length, or
/// any probability is outside `[0, 1]`.
#[must_use]
pub fn node_utility(
    node: usize,
    taus: &[f64],
    collision_probs: &[f64],
    params: &DcfParams,
    utility: &UtilityParams,
) -> f64 {
    assert_eq!(taus.len(), collision_probs.len(), "profile lengths must match"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
    assert!(node < taus.len(), "node index out of range"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
    let stats = slot_stats(taus, params);
    utility_rate(taus[node], collision_probs[node], &stats, utility)
}

/// `u_i` from node `i`'s own `(τ_i, p_i)` and the profile's slot statistics.
pub(crate) fn utility_rate(tau: f64, p: f64, stats: &SlotStats, utility: &UtilityParams) -> f64 {
    assert!((0.0..=1.0).contains(&p), "collision probability must be in [0, 1]"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
    tau * ((1.0 - p) * utility.gain - utility.cost) / stats.mean_slot.value()
}

/// Utility of each node at a symmetric operating point (all `n` nodes on
/// the same window): [`node_utility`] of node 0 on the homogeneous
/// profile.
///
/// # Panics
///
/// Same conditions as [`node_utility`].
#[must_use]
pub fn symmetric_node_utility(
    point: &SymmetricPoint,
    params: &DcfParams,
    utility: &UtilityParams,
) -> f64 {
    SymmetricSolution::new(*point, params).utility(utility)
}

/// A symmetric operating point with the slot statistics of its
/// homogeneous profile: everything [`symmetric_node_utility`] computes
/// before its last step, so [`SymmetricSolution::utility`] is O(1) and
/// bit-identical to it. A pure function of `(n, W)` and the DCF
/// parameters, which is what lets [`crate::cache::SolveCache`] memoize it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SymmetricSolution {
    /// The operating point.
    pub point: SymmetricPoint,
    /// Slot statistics with all `point.n` nodes at `point.tau`.
    pub stats: SlotStats,
}

impl SymmetricSolution {
    /// Pairs `point` with its slot statistics under `params`. They are
    /// bit-for-bit those of the homogeneous profile, computed without
    /// allocating it; the time is still O(n).
    ///
    /// # Panics
    ///
    /// Panics if `point.n == 0` or `point.tau ∉ [0, 1]` (see
    /// [`slot_stats`]).
    #[must_use]
    pub fn new(point: SymmetricPoint, params: &DcfParams) -> Self {
        SymmetricSolution { point, stats: homogeneous_slot_stats(point.tau, point.n, params) }
    }

    /// Each node's utility rate (per µs) at this point.
    ///
    /// # Panics
    ///
    /// Panics if the collision probability is outside `[0, 1]`.
    #[must_use]
    pub fn utility(&self, utility: &UtilityParams) -> f64 {
        utility_rate(self.point.tau, self.point.collision_prob, &self.stats, utility)
    }
}

/// Utilities of every node, as [`node_utility`] per index. The slot
/// statistics do not depend on the node, so they are computed once.
///
/// # Panics
///
/// Same conditions as [`node_utility`].
#[must_use]
pub fn all_utilities(
    taus: &[f64],
    collision_probs: &[f64],
    params: &DcfParams,
    utility: &UtilityParams,
) -> Vec<f64> {
    if taus.is_empty() {
        // No node to evaluate, hence nothing to check.
        return Vec::new();
    }
    assert_eq!(taus.len(), collision_probs.len(), "profile lengths must match"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
    let stats = slot_stats(taus, params);
    taus.iter()
        .zip(collision_probs)
        .map(|(&tau, &p)| utility_rate(tau, p, &stats, utility))
        .collect()
}

/// Node 0's and node 1's utilities on the one-deviator profile of `n ≥ 2`
/// nodes: node 0 at `deviator = (τ, p)`, the other `n − 1` at `crowd`.
/// Bit for bit the first two entries of [`all_utilities`] on
/// `[τ_dev, τ, …, τ]` and `[p_dev, p, …, p]`, without building either
/// vector: the slot statistics fold the profile in `slot_stats`'s order,
/// a single run when the two `τ` are bitwise equal.
///
/// # Panics
///
/// Panics if `n < 2` or a probability is outside `[0, 1]`, as
/// [`all_utilities`] does on the node-level profile.
#[must_use]
pub fn one_deviator_utilities(
    deviator: (f64, f64),
    crowd: (f64, f64),
    n: usize,
    params: &DcfParams,
    utility: &UtilityParams,
) -> [f64; 2] {
    let stats = one_deviator_slot_stats(deviator.0, crowd.0, n, params);
    [
        utility_rate(deviator.0, deviator.1, &stats, utility),
        utility_rate(crowd.0, crowd.1, &stats, utility),
    ]
}

/// Social welfare: the sum of all node utilities (per microsecond).
///
/// # Panics
///
/// Same conditions as [`node_utility`].
#[must_use]
pub fn social_welfare(
    taus: &[f64],
    collision_probs: &[f64],
    params: &DcfParams,
    utility: &UtilityParams,
) -> f64 {
    all_utilities(taus, collision_probs, params, utility).iter().sum()
}

/// Stage utility `U_i^s = u_i · T` for a stage of duration `T`.
#[must_use]
pub fn stage_utility(per_microsec: f64, stage_duration: MicroSecs) -> f64 {
    per_microsec * stage_duration.value()
}

/// The paper's Figure 2/3 normalization: global payoff divided by
/// `C = g·T / (σ·(1−δ))`. Algebraically `U/C = σ·Σ_i u_i / g`, independent
/// of `T` and `δ` — exactly why the paper plots it.
///
/// # Panics
///
/// Same conditions as [`node_utility`].
#[must_use]
pub fn normalized_global_payoff(
    taus: &[f64],
    collision_probs: &[f64],
    params: &DcfParams,
    utility: &UtilityParams,
) -> f64 {
    social_welfare(taus, collision_probs, params, utility) * params.sigma().value() / utility.gain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixedpoint::{solve, solve_symmetric, SolveOptions};

    fn params() -> DcfParams {
        DcfParams::default()
    }

    fn sym_profile(n: usize, w: u32) -> (Vec<f64>, Vec<f64>) {
        let sym = solve_symmetric(n, w, &params()).unwrap();
        (vec![sym.tau; n], vec![sym.collision_prob; n])
    }

    #[test]
    fn utility_positive_at_sane_window() {
        let (taus, ps) = sym_profile(5, 76);
        let u = node_utility(0, &taus, &ps, &params(), &UtilityParams::default());
        assert!(u > 0.0);
    }

    #[test]
    fn utility_negative_when_collisions_dominate() {
        // (1−p)·g < e ⟹ negative utility. Force it with p close to 1.
        let taus = [0.99, 0.99, 0.99];
        let p = 1.0 - (1.0 - 0.99f64).powi(2);
        let ps = [p; 3];
        let u = node_utility(0, &taus, &ps, &params(), &UtilityParams::default());
        assert!(u < 0.0, "u = {u}");
    }

    #[test]
    fn symmetric_nodes_share_equal_utility() {
        let (taus, ps) = sym_profile(8, 128);
        let us = all_utilities(&taus, &ps, &params(), &UtilityParams::default());
        for u in &us {
            assert!((u - us[0]).abs() < 1e-15);
        }
        let welfare = social_welfare(&taus, &ps, &params(), &UtilityParams::default());
        assert!((welfare - 8.0 * us[0]).abs() < 1e-15);
    }

    #[test]
    fn lemma1_utility_ordering() {
        // W_i > W_j ⇒ U_i < U_j (paper Lemma 1).
        let p = params();
        let windows = [32u32, 64, 256];
        let eq = solve(&windows, &p, SolveOptions::default()).unwrap();
        let us = all_utilities(&eq.taus, &eq.collision_probs, &p, &UtilityParams::default());
        assert!(us[0] > us[1] && us[1] > us[2], "utilities {us:?}");
    }

    #[test]
    fn stage_utility_scales_by_duration() {
        let u = 3.0e-5; // per µs
        let t = MicroSecs::from_seconds(10.0);
        assert!((stage_utility(u, t) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn normalization_independent_of_gain_scale() {
        // U/C divides g back out of a g≫e utility: doubling g (with e scaled
        // too) leaves the normalized payoff unchanged.
        let (taus, ps) = sym_profile(5, 100);
        let base = UtilityParams::default();
        let scaled = UtilityParams { gain: 2.0, cost: 0.02 };
        let a = normalized_global_payoff(&taus, &ps, &params(), &base);
        let b = normalized_global_payoff(&taus, &ps, &params(), &scaled);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn zero_cost_utility_is_throughput_shaped() {
        // With e = 0, u_i ∝ per-node success rate per unit time.
        let (taus, ps) = sym_profile(5, 76);
        let free = UtilityParams { gain: 1.0, cost: 0.0 };
        let u = node_utility(0, &taus, &ps, &params(), &free);
        let stats = slot_stats(&taus, &params());
        let success_rate_per_us = taus[0] * (1.0 - ps[0]) / stats.mean_slot.value();
        assert!((u - success_rate_per_us).abs() < 1e-15);
    }
}
