//! Rate-control as a selfish MAC game — the extension the paper's
//! conclusion sketches ("…can be extended to model other selfish behaviors
//! such as rate control by redefining the proper utility function").
//!
//! Setting: all nodes share a fixed contention window (so the backoff
//! fixed point is the symmetric one) and RTS/CTS access (so collisions
//! cost a rate-independent `T_c'`), but each node *selfishly picks its PHY
//! data rate* from a finite set. Control frames and headers stay at the
//! base rate; only the payload rides the chosen rate. A slower payload
//! stretches the slots *everyone* waits through — the well-known 802.11
//! performance-anomaly externality — so the utility
//! `u_i = τ((1−p)g − e)/T_slot` couples all players through `T_slot`.
//!
//! The headline results, mirrored by tests:
//!
//! * picking the fastest rate is a **dominant strategy** — the unique pure
//!   NE is all-fast, and it coincides with the social optimum: another
//!   "selfishness is not a nightmare" instance;
//! * one slow node still damages everyone (the anomaly), quantified by
//!   [`performance_anomaly`].

use macgame_dcf::fixedpoint::solve_symmetric;
use macgame_dcf::{DcfParams, UtilityParams};
use serde::{Deserialize, Serialize};

use crate::error::GameError;
use crate::generalized::FiniteGame;

/// A PHY data rate in Mbit/s.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct RateMbps(pub f64);

impl core::fmt::Display for RateMbps {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} Mbit/s", self.0)
    }
}

/// The classic 802.11b rate set.
#[must_use]
pub fn rate_set_80211b() -> Vec<RateMbps> {
    vec![RateMbps(1.0), RateMbps(2.0), RateMbps(5.5), RateMbps(11.0)]
}

/// Per-profile slot timing for the rate game.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RateTimings {
    /// Rate-independent parts of a successful exchange (RTS/CTS/ACK,
    /// headers, IFSs) in µs.
    fixed_success: f64,
    /// Collision cost `T_c'` in µs (RTS at base rate + DIFS).
    collision: f64,
    /// Payload bits.
    payload_bits: f64,
}

fn rate_timings(params: &DcfParams) -> RateTimings {
    // Control frames and PHY/MAC headers at the base channel rate.
    let phy = params.phy();
    let base = phy.bit_rate.bits_per_microsec();
    let hdr = |bits: u32| f64::from(bits) / base;
    let phy_hdr = f64::from(phy.phy_header.value()) / base;
    let frames = params.frames();
    let rts = phy_hdr + hdr(frames.rts.value());
    let cts = phy_hdr + hdr(frames.cts.value());
    let ack = phy_hdr + hdr(frames.ack.value());
    let mac_hdr = phy_hdr + hdr(frames.mac_header.value());
    let sifs = phy.sifs.value();
    let difs = phy.difs.value();
    RateTimings {
        fixed_success: rts + sifs + cts + mac_hdr + sifs + ack + difs,
        collision: rts + difs,
        payload_bits: f64::from(frames.payload.value()),
    }
}

/// Builds the rate-control game: `n` players on a common contention window
/// `w`, each choosing a payload rate from `rates`.
///
/// # Examples
///
/// ```
/// use macgame_core::ratecontrol::{rate_game, rate_set_80211b};
/// use macgame_dcf::{AccessMode, DcfParams, UtilityParams};
///
/// let params = DcfParams::builder().access_mode(AccessMode::RtsCts).build()?;
/// let game = rate_game(4, 48, &params, &UtilityParams::default(), rate_set_80211b())?;
/// // The fastest rate is the unique pure NE.
/// assert!(game.is_pure_nash(&[3, 3, 3, 3]));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Returns [`GameError::InvalidConfig`] for an empty rate set or
/// non-positive rates; propagates fixed-point failures.
pub fn rate_game(
    n: usize,
    w: u32,
    params: &DcfParams,
    utility: &UtilityParams,
    rates: Vec<RateMbps>,
) -> Result<FiniteGame<RateMbps>, GameError> {
    if rates.is_empty() {
        return Err(GameError::InvalidConfig("need at least one rate".into()));
    }
    if rates.iter().any(|r| r.0 <= 0.0 || !r.0.is_finite()) {
        return Err(GameError::InvalidConfig("rates must be positive and finite".into()));
    }
    let sym = solve_symmetric(n, w, params)?;
    let timings = rate_timings(params);
    let sigma = params.sigma().value();
    let tau = sym.tau;
    let p = sym.collision_prob;
    let gain = utility.gain;
    let cost = utility.cost;
    let rate_values: Vec<f64> = rates.iter().map(|r| r.0).collect();
    let game = FiniteGame::new(n, rates, move |player, profile| {
        // Slot statistics: every node transmits with the same τ (the CW is
        // common); only the busy durations depend on the chosen rates.
        let n = profile.len();
        let idle_all = (1.0 - tau).powi(n as i32);
        let p_tr = 1.0 - idle_all;
        let s_each = tau * (1.0 - tau).powi(n as i32 - 1); // per-node success prob
        let p_coll = p_tr - n as f64 * s_each;
        let mut t_slot = idle_all * sigma + p_coll.max(0.0) * timings.collision;
        for &a in profile {
            let ts = timings.fixed_success + timings.payload_bits / rate_values[a];
            t_slot += s_each * ts;
        }
        let _ = player; // same numerator for everyone; coupling is via T_slot
        tau * ((1.0 - p) * gain - cost) / t_slot
    })?;
    Ok(game)
}

/// Quantifies the performance anomaly: per-node utility when everyone is
/// fast versus when a single node drops to the slowest rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnomalyReport {
    /// Per-node utility with every node at the fastest rate.
    pub all_fast: f64,
    /// Per-node utility after one node drops to the slowest rate
    /// (identical for all nodes — the slow frame stretches shared airtime).
    pub one_slow: f64,
}

impl AnomalyReport {
    /// Fraction of the all-fast utility destroyed by the one slow node.
    #[must_use]
    pub fn damage(&self) -> f64 {
        1.0 - self.one_slow / self.all_fast
    }
}

/// Computes the anomaly report for the given game setting.
///
/// # Errors
///
/// Same conditions as [`rate_game`].
pub fn performance_anomaly(
    n: usize,
    w: u32,
    params: &DcfParams,
    utility: &UtilityParams,
    rates: Vec<RateMbps>,
) -> Result<AnomalyReport, GameError> {
    if n == 0 {
        return Err(GameError::InvalidConfig("need at least one player".into()));
    }
    let game = rate_game(n, w, params, utility, rates)?;
    let fastest = game
        .actions()
        .iter()
        .enumerate()
        .max_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
        .expect("nonempty") // PANIC-POLICY: invariant: nonempty
        .0;
    let slowest = game
        .actions()
        .iter()
        .enumerate()
        .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
        .expect("nonempty") // PANIC-POLICY: invariant: nonempty
        .0;
    let all_fast_profile = vec![fastest; n];
    let mut one_slow_profile = all_fast_profile.clone();
    one_slow_profile[0] = slowest;
    Ok(AnomalyReport {
        all_fast: game.utility_of(0, &all_fast_profile),
        one_slow: game.utility_of(1.min(n - 1), &one_slow_profile),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use macgame_dcf::AccessMode;

    fn params() -> DcfParams {
        DcfParams::builder().access_mode(AccessMode::RtsCts).build().unwrap()
    }

    fn game(n: usize) -> FiniteGame<RateMbps> {
        rate_game(n, 48, &params(), &UtilityParams::default(), rate_set_80211b()).unwrap()
    }

    #[test]
    fn fastest_rate_is_dominant() {
        let g = game(4);
        let fast = g.actions().len() - 1; // 11 Mbit/s
                                          // Against any of a few opponent profiles, 11 Mbit/s is the best
                                          // response.
        for profile in [[0usize; 4], [3; 4], [0, 1, 2, 3], [2, 2, 0, 1]] {
            for i in 0..4 {
                assert_eq!(g.best_response(i, &profile), fast, "profile {profile:?}");
            }
        }
    }

    #[test]
    fn unique_ne_is_all_fast_and_socially_optimal() {
        let g = game(3);
        let fast = g.actions().len() - 1;
        let nes = g.enumerate_pure_nash();
        assert_eq!(nes, vec![vec![fast; 3]]);
        // Social optimum coincides: any deviation lowers welfare.
        let welfare_ne = g.social_welfare(&[fast; 3]);
        for other in [[0usize, 3, 3], [3, 2, 3], [1, 1, 1]] {
            assert!(g.social_welfare(&other) < welfare_ne);
        }
    }

    #[test]
    fn br_dynamics_converge_in_one_round() {
        let g = game(5);
        let out = g.best_response_dynamics(&[0; 5], 10);
        assert!(out.converged);
        // One changing sweep plus the confirming sweep.
        assert_eq!(out.rounds, 2);
        assert!(out.profile.iter().all(|&a| a == g.actions().len() - 1));
    }

    #[test]
    fn anomaly_damage_is_substantial() {
        // One 1 Mbit/s node among 11 Mbit/s nodes costs everyone a large
        // share of their utility (the 802.11 performance anomaly).
        let report =
            performance_anomaly(5, 48, &params(), &UtilityParams::default(), rate_set_80211b())
                .unwrap();
        assert!(report.damage() > 0.3, "damage {:.2}", report.damage());
        assert!(report.damage() < 0.95);
    }

    #[test]
    fn anomaly_fades_with_larger_population_share() {
        // The single slow node's share of successes shrinks as n grows, so
        // the per-node damage decreases.
        let p = params();
        let u = UtilityParams::default();
        let small = performance_anomaly(3, 48, &p, &u, rate_set_80211b()).unwrap().damage();
        let large = performance_anomaly(12, 48, &p, &u, rate_set_80211b()).unwrap().damage();
        assert!(large < small, "small-n damage {small:.2} vs large-n {large:.2}");
    }

    #[test]
    fn validation() {
        let p = params();
        let u = UtilityParams::default();
        assert!(rate_game(3, 48, &p, &u, vec![]).is_err());
        assert!(rate_game(3, 48, &p, &u, vec![RateMbps(-1.0)]).is_err());
        assert!(performance_anomaly(0, 48, &p, &u, rate_set_80211b()).is_err());
    }
}
