//! Per-node local games (paper Section VI.B).
//!
//! In multi-hop networks no global coordination is possible, so each
//! rational node `i` initializes its window to the efficient NE of the
//! *local* single-hop game played with its neighbors (population
//! `deg(i) + 1`), exploiting the approximations of Section VI.A: the
//! hidden-node degradation `p_hn` is treated as independent of the CW
//! values (so it scales every candidate window's utility equally and drops
//! out of the argmax), and `g ≫ e`.

use std::collections::BTreeMap;

use macgame_dcf::optimal::{efficient_cw, efficient_cw_from_tau_star};
use macgame_dcf::{DcfParams, UtilityParams};
use macgame_telemetry as telemetry;
use serde::{Deserialize, Serialize};

use crate::error::MultihopError;
use crate::topology::Topology;

/// How a node translates its local population into a window.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LocalRule {
    /// Exact integer argmax of the local symmetric utility (including `e`).
    #[default]
    ExactArgmax,
    /// The paper's `g ≫ e` route: invert the continuous `τ_c*`.
    TauStarInversion,
}

/// Computes every node's local optimal window under `rule`.
///
/// Populations repeat heavily across a network, so the local-game argmax
/// is solved once per **distinct** `deg(i) + 1` — and those independent
/// solves are fanned out over the `MACGAME_THREADS` worker pool (each is
/// a full window-space search over symmetric fixed points). Results are
/// assembled per node afterwards, so the output is identical for every
/// thread count.
///
/// A node with no neighbors faces no contention; it gets window 1
/// (transmit whenever it has something to send).
///
/// # Errors
///
/// Propagates optimizer failures as [`MultihopError::Model`].
pub fn local_optimal_windows(
    topology: &Topology,
    params: &DcfParams,
    utility: &UtilityParams,
    w_max: u32,
    rule: LocalRule,
) -> Result<Vec<u32>, MultihopError> {
    local_optimal_windows_threads(topology, params, utility, w_max, rule, 0)
}

/// [`local_optimal_windows`] with an explicit worker-thread count
/// (`0` = the `MACGAME_THREADS` default), for callers that need to pin
/// the pool size without touching the environment — e.g. the
/// thread-invariance determinism tests.
///
/// # Errors
///
/// Propagates optimizer failures as [`MultihopError::Model`].
pub fn local_optimal_windows_threads(
    topology: &Topology,
    params: &DcfParams,
    utility: &UtilityParams,
    w_max: u32,
    rule: LocalRule,
    threads: usize,
) -> Result<Vec<u32>, MultihopError> {
    let populations: Vec<usize> =
        (0..topology.len()).map(|i| topology.local_population(i)).collect();
    let mut distinct: Vec<usize> = populations.clone();
    distinct.sort_unstable();
    distinct.dedup();
    telemetry::counter("multihop.localgame.solves", distinct.len() as u64);
    let solved: Vec<Result<u32, MultihopError>> =
        macgame_dcf::parallel::map(&distinct, threads, |&n_local| {
            if n_local < 2 {
                return Ok(1);
            }
            Ok(match rule {
                LocalRule::ExactArgmax => efficient_cw(n_local, params, utility, w_max)?.window,
                LocalRule::TauStarInversion => {
                    efficient_cw_from_tau_star(n_local, params, w_max)?.window
                }
            })
        });
    let mut cache: BTreeMap<usize, u32> = BTreeMap::new();
    for (n_local, w) in distinct.into_iter().zip(solved) {
        cache.insert(n_local, w?);
    }
    Ok(populations.iter().map(|n| cache[n]).collect())
}

/// Analytic estimate of each node's hidden-node survival factor `p_hn`
/// under the slotted interference model: a transmission from `i` to a
/// (uniformly chosen) neighbor `r` survives the hidden terminals iff none
/// of them transmits in the same slot, so
///
/// ```text
/// p_hn(i) = mean over r ∈ N(i) of Π_{h ∈ hidden(i, r)} (1 − τ_h)
/// ```
///
/// `taus` supplies each node's per-slot transmission probability (e.g.
/// from its local-population symmetric fixed point). Isolated nodes get
/// `p_hn = 1`.
///
/// This is the model-side counterpart of the *measured*
/// [`crate::spatialsim::SpatialReport::network_p_hn`], quantifying the
/// Section VI.A approximation analytically.
///
/// # Errors
///
/// Returns [`MultihopError::InvalidInput`] on a length mismatch or a τ
/// outside `[0, 1]`.
pub fn analytic_p_hn(topology: &Topology, taus: &[f64]) -> Result<Vec<f64>, MultihopError> {
    if taus.len() != topology.len() {
        return Err(MultihopError::InvalidInput(format!(
            "{} taus for {} nodes",
            taus.len(),
            topology.len()
        )));
    }
    if taus.iter().any(|t| !(0.0..=1.0).contains(t)) {
        return Err(MultihopError::InvalidInput("τ must be in [0, 1]".into()));
    }
    let mut out = Vec::with_capacity(topology.len());
    for i in 0..topology.len() {
        let neighbors = topology.neighbors(i);
        if neighbors.is_empty() {
            out.push(1.0);
            continue;
        }
        let mut acc = 0.0;
        for &r in neighbors {
            let survive: f64 =
                topology.hidden_terminals(i, r).iter().map(|&h| 1.0 - taus[h]).product();
            acc += survive;
        }
        out.push(acc / neighbors.len() as f64);
    }
    Ok(out)
}

/// Per-node τ values from each node's local-population symmetric fixed
/// point at a common window `w` — the natural input to
/// [`analytic_p_hn`].
///
/// # Errors
///
/// Propagates solver failures.
pub fn local_taus(
    topology: &Topology,
    w: u32,
    params: &DcfParams,
) -> Result<Vec<f64>, MultihopError> {
    use macgame_dcf::fixedpoint::solve_symmetric;
    let mut cache: BTreeMap<usize, f64> = BTreeMap::new();
    let mut out = Vec::with_capacity(topology.len());
    for i in 0..topology.len() {
        let n_local = topology.local_population(i);
        let tau = match cache.get(&n_local) {
            Some(&t) => t,
            None => {
                let t = solve_symmetric(n_local, w, params)?.tau;
                cache.insert(n_local, t);
                t
            }
        };
        out.push(tau);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use macgame_dcf::AccessMode;

    fn rtscts() -> DcfParams {
        DcfParams::builder().access_mode(AccessMode::RtsCts).build().unwrap()
    }

    #[test]
    fn windows_scale_with_local_density() {
        // Star of 9 leaves: hub sees population 10, leaves see 2.
        let topo = Topology::from_adjacency(vec![
            (1..10).collect::<Vec<_>>(),
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
        ]);
        let ws = local_optimal_windows(
            &topo,
            &rtscts(),
            &UtilityParams::default(),
            2048,
            LocalRule::ExactArgmax,
        )
        .unwrap();
        assert!(ws[0] > ws[1], "hub {} vs leaf {}", ws[0], ws[1]);
        assert!(ws[1..].iter().all(|&w| w == ws[1]));
    }

    #[test]
    fn isolated_node_gets_window_one() {
        let topo = Topology::from_positions(
            &[Point { x: 0.0, y: 0.0 }, Point { x: 900.0, y: 0.0 }],
            250.0,
        );
        let ws = local_optimal_windows(
            &topo,
            &rtscts(),
            &UtilityParams::default(),
            2048,
            LocalRule::ExactArgmax,
        )
        .unwrap();
        assert_eq!(ws, vec![1, 1]);
    }

    #[test]
    fn memoization_consistent_with_direct_computation() {
        let topo = Topology::from_adjacency(vec![vec![1, 2], vec![2], vec![]]);
        // All three nodes have population 3.
        let ws = local_optimal_windows(
            &topo,
            &rtscts(),
            &UtilityParams::default(),
            2048,
            LocalRule::ExactArgmax,
        )
        .unwrap();
        let direct = efficient_cw(3, &rtscts(), &UtilityParams::default(), 2048).unwrap().window;
        assert_eq!(ws, vec![direct; 3]);
    }

    #[test]
    fn tau_star_rule_differs_but_is_same_scale() {
        let topo = Topology::from_adjacency(vec![vec![1, 2, 3, 4], vec![], vec![], vec![], vec![]]);
        let exact = local_optimal_windows(
            &topo,
            &rtscts(),
            &UtilityParams::default(),
            2048,
            LocalRule::ExactArgmax,
        )
        .unwrap();
        let inv = local_optimal_windows(
            &topo,
            &rtscts(),
            &UtilityParams::default(),
            2048,
            LocalRule::TauStarInversion,
        )
        .unwrap();
        let ratio = f64::from(exact[0]) / f64::from(inv[0]);
        assert!((0.3..=3.0).contains(&ratio), "exact {} vs inversion {}", exact[0], inv[0]);
    }

    #[test]
    fn analytic_p_hn_is_one_without_hidden_terminals() {
        // Fully connected triangle: every neighbor of the receiver is also
        // a neighbor of the sender.
        let topo = Topology::from_adjacency(vec![vec![1, 2], vec![2], vec![]]);
        let p_hn = analytic_p_hn(&topo, &[0.1, 0.1, 0.1]).unwrap();
        assert_eq!(p_hn, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn analytic_p_hn_degrades_on_a_chain() {
        // 0-1-2: node 2 is hidden from 0 (and vice versa) w.r.t. receiver 1.
        let topo = Topology::from_adjacency(vec![vec![1], vec![2], vec![]]);
        let tau = 0.2;
        let p_hn = analytic_p_hn(&topo, &[tau, tau, tau]).unwrap();
        // Node 0's only receiver is 1, threatened by hidden node 2.
        assert!((p_hn[0] - (1.0 - tau)).abs() < 1e-12);
        // Node 1's receivers are 0 and 2, neither threatened by the other?
        // Receiver 0 hears only 1; receiver 2 hears only 1: no hidden nodes.
        assert_eq!(p_hn[1], 1.0);
    }

    #[test]
    fn analytic_p_hn_tracks_measured_p_hn() {
        use crate::spatialsim::{SpatialConfig, SpatialEngine};
        use macgame_dcf::MicroSecs;
        // Static random mesh at a common window: the analytic estimate
        // should land near the measured network p_hn.
        let config = SpatialConfig { mobility: None, ..SpatialConfig::paper(7) };
        let n = 50;
        let w = 32;
        let mut engine = SpatialEngine::new(n, &vec![w; n], config.clone()).unwrap();
        let topo = engine.topology().clone();
        let report = engine.run_for(MicroSecs::from_seconds(30.0));
        let measured = report.network_p_hn().expect("traffic exists");
        let taus = local_taus(&topo, w, &config.params).unwrap();
        let analytic = analytic_p_hn(&topo, &taus).unwrap();
        let mean_analytic: f64 = analytic.iter().sum::<f64>() / n as f64;
        assert!(
            (mean_analytic - measured).abs() < 0.12,
            "analytic {mean_analytic:.3} vs measured {measured:.3}"
        );
    }

    #[test]
    fn analytic_p_hn_validation() {
        let topo = Topology::from_adjacency(vec![vec![1], vec![]]);
        assert!(analytic_p_hn(&topo, &[0.1]).is_err());
        assert!(analytic_p_hn(&topo, &[0.1, 1.5]).is_err());
    }
}
