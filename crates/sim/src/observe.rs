//! Estimating a peer's contention window from overheard traffic.
//!
//! The TFT strategy requires each player to "measure the CW value of any
//! other player in the last stage" (paper Section IV; the mechanics of such
//! measurement in saturated networks are due to Kyasanur & Vaidya, DSN'03).
//! In promiscuous mode a node sees every attempt on the channel, so it can
//! count each peer's attempts per slot, estimate `τ̂_j`, estimate the
//! channel state `p̂_j` the peer faces, and invert the backoff chain
//! `τ(W, p̂_j)` — strictly decreasing in `W` — to recover `Ŵ_j`.

use macgame_dcf::markov::transmission_probability;
use macgame_dcf::DcfError;
use serde::{Deserialize, Serialize};

use crate::report::StageReport;

/// A peer-window estimate with its inputs, for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowEstimate {
    /// Estimated initial contention window `Ŵ`.
    pub window: u32,
    /// The measured per-slot attempt rate the estimate inverts.
    pub tau_hat: f64,
    /// The collision probability assumed for the peer.
    pub p_hat: f64,
    /// `true` when `tau_hat` fell outside the invertible range
    /// `[τ(w_max, p̂), τ(1, p̂)]` and the estimate was clamped to a
    /// boundary window. A saturated `window == 1` means "at least as
    /// aggressive as W = 1" — detectors must not treat it as an exact
    /// measurement.
    pub saturated: bool,
}

/// Inverts the backoff chain: the window `Ŵ ∈ [1, w_max]` whose
/// `τ(Ŵ, p_hat)` is closest to `tau_hat`.
///
/// # Examples
///
/// ```
/// use macgame_dcf::markov::transmission_probability;
/// use macgame_sim::invert_window;
///
/// // The exact τ of W = 76 inverts back to 76.
/// let tau = transmission_probability(76, 0.1, 5)?;
/// assert_eq!(invert_window(tau, 0.1, 5, 1024)?.window, 76);
/// # Ok::<(), macgame_dcf::DcfError>(())
/// ```
///
/// # Errors
///
/// Returns [`DcfError::InvalidParameter`] if `tau_hat` is not in `(0, 1]`,
/// `p_hat` not in `[0, 1)`, or `w_max == 0`.
pub fn invert_window(
    tau_hat: f64,
    p_hat: f64,
    max_backoff_stage: u32,
    w_max: u32,
) -> Result<WindowEstimate, DcfError> {
    if !(tau_hat > 0.0 && tau_hat <= 1.0) {
        return Err(DcfError::invalid("tau_hat", "attempt rate must be in (0, 1]"));
    }
    if !(0.0..1.0).contains(&p_hat) {
        return Err(DcfError::invalid("p_hat", "collision probability must be in [0, 1)"));
    }
    if w_max == 0 {
        return Err(DcfError::invalid("w_max", "window space must be non-empty"));
    }
    let tau_of = |w: u32| transmission_probability(w, p_hat, max_backoff_stage);
    // τ(W) strictly decreases in W: binary search the crossing. Rates
    // outside [τ(w_max), τ(1)] clamp to the boundary window and are
    // flagged `saturated` — an exact boundary hit is still invertible.
    let tau_top = tau_of(1)?;
    if tau_top <= tau_hat {
        return Ok(WindowEstimate { window: 1, tau_hat, p_hat, saturated: tau_top < tau_hat });
    }
    let tau_bottom = tau_of(w_max)?;
    if tau_bottom >= tau_hat {
        return Ok(WindowEstimate {
            window: w_max,
            tau_hat,
            p_hat,
            saturated: tau_bottom > tau_hat,
        });
    }
    let (mut lo, mut hi) = (1u32, w_max); // τ(lo) > tau_hat > τ(hi)
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if tau_of(mid)? > tau_hat {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let (tl, th) = (tau_of(lo)?, tau_of(hi)?);
    let window = if (tl - tau_hat).abs() <= (th - tau_hat).abs() { lo } else { hi };
    Ok(WindowEstimate { window, tau_hat, p_hat, saturated: false })
}

/// Estimates every peer's window from a stage report, as seen by
/// `observer`: for each peer `j`, `τ̂_j` comes from its attempt count and
/// `p̂_j` from the other nodes' measured attempt rates (the promiscuous
/// observer sees the same channel the peer does). The observer's own
/// entry is its true window (it knows its own configuration). Peers with
/// zero observed attempts yield `None`, so one starved or fully-dropped
/// peer does not destroy every other node's estimate.
///
/// The `p̂_j = 1 − Π_{k≠j}(1 − τ̂_k)` product is well defined for every
/// population size: with a single peer it has one factor, and for `n = 1`
/// (no peers at all) the empty product gives `p̂ = 0`. Zero-attempt nodes
/// contribute `τ̂_k = 0` to the channel estimate, which is exactly what
/// the observer measured for them.
///
/// # Errors
///
/// Returns [`DcfError::InvalidParameter`] only if `observer` is out of
/// range or the window inversion itself rejects its inputs.
pub fn estimate_windows_partial(
    observer: usize,
    report: &StageReport,
    max_backoff_stage: u32,
    w_max: u32,
) -> Result<Vec<Option<WindowEstimate>>, DcfError> {
    let n = report.node_count();
    if observer >= n {
        return Err(DcfError::invalid("observer", "index out of range"));
    }
    let taus: Vec<f64> = (0..n).map(|i| report.tau_hat(i)).collect();
    let mut out = Vec::with_capacity(n);
    for j in 0..n {
        if j == observer {
            out.push(Some(WindowEstimate {
                window: report.windows[j],
                tau_hat: taus[j],
                p_hat: report.p_hat(j),
                saturated: false,
            }));
            continue;
        }
        if report.node_stats[j].attempts == 0 {
            out.push(None);
            continue;
        }
        let p_hat: f64 = 1.0
            - taus
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != j)
                .map(|(_, &t)| 1.0 - t)
                .product::<f64>();
        out.push(Some(invert_window(
            taus[j],
            p_hat.clamp(0.0, 1.0 - 1e-9),
            max_backoff_stage,
            w_max,
        )?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Engine;
    use crate::node::NodeStats;
    use crate::report::ChannelCounts;
    use macgame_dcf::fixedpoint::solve_symmetric;
    use macgame_dcf::{DcfParams, MicroSecs};

    #[test]
    fn inversion_round_trips_exact_tau() {
        let p = DcfParams::default();
        for &w in &[4u32, 16, 76, 300, 1000] {
            let sym = solve_symmetric(5, w, &p).unwrap();
            let est =
                invert_window(sym.tau, sym.collision_prob, p.max_backoff_stage(), 4096).unwrap();
            assert_eq!(est.window, w, "failed to invert W = {w}");
        }
    }

    #[test]
    fn inversion_clamps_at_bounds() {
        // τ(1, 0.1) < 1, so a measured rate of 0.9999 is above the
        // invertible range: clamped to W = 1 and flagged.
        let est = invert_window(0.9999, 0.1, 5, 1024).unwrap();
        assert_eq!(est.window, 1);
        assert!(est.saturated, "above-range rate must be marked saturated");
        let est = invert_window(1e-7, 0.0, 5, 1024).unwrap();
        assert_eq!(est.window, 1024);
        assert!(est.saturated, "below-range rate must be marked saturated");
        // An interior inversion is not saturated.
        let p = DcfParams::default();
        let sym = solve_symmetric(5, 76, &p).unwrap();
        let est = invert_window(sym.tau, sym.collision_prob, p.max_backoff_stage(), 4096).unwrap();
        assert!(!est.saturated);
    }

    #[test]
    fn exact_boundary_hit_is_not_saturated() {
        // τ̂ exactly equal to τ(1, p̂) is invertible: W = 1, no clamping.
        let tau_top = transmission_probability(1, 0.1, 5).unwrap();
        let est = invert_window(tau_top, 0.1, 5, 1024).unwrap();
        assert_eq!(est.window, 1);
        assert!(!est.saturated);
    }

    #[test]
    fn serde_shape_includes_saturation_flag() {
        let est = invert_window(0.9999, 0.1, 5, 1024).unwrap();
        let json = serde_json::to_string(&est).unwrap();
        assert!(json.contains("\"saturated\":true"), "missing saturated key in {json}");
        assert!(json.contains("\"window\":1"), "missing window key in {json}");
        let back: WindowEstimate = serde_json::from_str(&json).unwrap();
        assert_eq!(back, est);
    }

    #[test]
    fn inversion_rejects_bad_inputs() {
        assert!(invert_window(0.0, 0.1, 5, 64).is_err());
        assert!(invert_window(0.5, 1.0, 5, 64).is_err());
        assert!(invert_window(0.5, 0.1, 5, 0).is_err());
    }

    #[test]
    fn estimates_recover_simulated_windows() {
        // Observe a heterogeneous network long enough and the estimated
        // windows should land close to the configured ones.
        let windows = vec![32u32, 128, 64, 32, 256];
        let config = SimConfig::builder().windows(windows.clone()).seed(21).build().unwrap();
        let mut engine = Engine::new(&config);
        let report = engine.run_slots(400_000);
        let estimates: Vec<WindowEstimate> =
            estimate_windows_partial(0, &report, config.params().max_backoff_stage(), 2048)
                .unwrap()
                .into_iter()
                .map(|est| est.expect("every node transmitted"))
                .collect();
        assert_eq!(estimates[0].window, 32); // own window is exact
        for (j, est) in estimates.iter().enumerate().skip(1) {
            let rel = (f64::from(est.window) - f64::from(windows[j])).abs() / f64::from(windows[j]);
            assert!(
                rel < 0.2,
                "node {j}: estimated {} for true {} ({:.0}% off)",
                est.window,
                windows[j],
                rel * 100.0
            );
        }
    }

    #[test]
    fn estimation_needs_observations() {
        // A silent peer degrades only its own entry.
        let config = SimConfig::builder().windows(vec![8, 8]).seed(3).build().unwrap();
        let mut engine = Engine::new(&config);
        let report = engine.run_slots(0);
        let partial = estimate_windows_partial(0, &report, 5, 64).unwrap();
        assert_eq!(partial.len(), 2);
        assert!(partial[0].is_some(), "observer's own entry is always known");
        assert!(partial[1].is_none(), "silent peer yields None, not a batch error");
    }

    #[test]
    fn one_silent_peer_does_not_poison_the_batch() {
        // Three talkative nodes plus one that never transmitted: the
        // partial API keeps the three estimates intact.
        let report = StageReport {
            node_stats: vec![
                NodeStats { attempts: 120, successes: 90, collisions: 30 },
                NodeStats { attempts: 150, successes: 110, collisions: 40 },
                NodeStats { attempts: 0, successes: 0, collisions: 0 },
                NodeStats { attempts: 90, successes: 70, collisions: 20 },
            ],
            channel: ChannelCounts { idle: 700, success: 200, collision: 100 },
            elapsed: MicroSecs::new(1_000_000.0),
            windows: vec![32, 32, 32, 32],
        };
        let partial = estimate_windows_partial(0, &report, 5, 1024).unwrap();
        assert!(partial[0].is_some() && partial[1].is_some() && partial[3].is_some());
        assert!(partial[2].is_none());
        for est in partial.into_iter().flatten() {
            assert!(est.p_hat.is_finite() && est.tau_hat.is_finite());
        }
    }

    #[test]
    fn single_node_report_has_zero_p_hat() {
        // n = 1: no peers, so the vector is just the observer's own
        // entry; nothing divides by zero or produces NaN.
        let report = StageReport {
            node_stats: vec![NodeStats { attempts: 100, successes: 100, collisions: 0 }],
            channel: ChannelCounts { idle: 900, success: 100, collision: 0 },
            elapsed: MicroSecs::new(1_000_000.0),
            windows: vec![16],
        };
        let partial = estimate_windows_partial(0, &report, 5, 1024).unwrap();
        assert_eq!(partial.len(), 1);
        let own = partial[0].unwrap();
        assert_eq!(own.window, 16);
        assert!(own.p_hat.is_finite() && own.tau_hat.is_finite());
        assert_eq!(own.p_hat, 0.0, "a lone node never collides");
    }

    #[test]
    fn single_peer_product_has_one_factor() {
        // n = 2: the peer's p̂ is exactly the observer's measured τ̂ —
        // the Π_{k≠j} product has a single factor, never an empty or
        // NaN-producing one.
        let report = StageReport {
            node_stats: vec![
                NodeStats { attempts: 100, successes: 80, collisions: 20 },
                NodeStats { attempts: 50, successes: 40, collisions: 10 },
            ],
            channel: ChannelCounts { idle: 860, success: 120, collision: 20 },
            elapsed: MicroSecs::new(1_000_000.0),
            windows: vec![32, 64],
        };
        let partial = estimate_windows_partial(0, &report, 5, 1024).unwrap();
        let peer = partial[1].unwrap();
        let observer_tau = report.tau_hat(0);
        assert!((peer.p_hat - observer_tau).abs() < 1e-12);
        assert!(peer.window >= 1 && peer.p_hat.is_finite());
    }

    #[test]
    fn zero_slot_report_yields_no_peer_estimates_and_no_nan() {
        // A zero-slot interval: τ̂ is 0 for everyone (guarded upstream
        // in NodeStats::tau_hat), peers are None, observer entry finite.
        let report = StageReport {
            node_stats: vec![
                NodeStats { attempts: 0, successes: 0, collisions: 0 },
                NodeStats { attempts: 0, successes: 0, collisions: 0 },
            ],
            channel: ChannelCounts { idle: 0, success: 0, collision: 0 },
            elapsed: MicroSecs::new(0.0),
            windows: vec![8, 8],
        };
        let partial = estimate_windows_partial(1, &report, 5, 64).unwrap();
        assert!(partial[0].is_none());
        let own = partial[1].unwrap();
        assert_eq!(own.window, 8);
        assert_eq!(own.tau_hat, 0.0);
        assert_eq!(own.p_hat, 0.0);
    }

    #[test]
    fn observer_index_validated() {
        let config = SimConfig::builder().windows(vec![8, 8]).seed(3).build().unwrap();
        let mut engine = Engine::new(&config);
        let report = engine.run_slots(1000);
        assert!(estimate_windows_partial(5, &report, 5, 64).is_err());
    }
}
