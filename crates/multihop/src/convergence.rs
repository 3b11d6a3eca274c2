//! Network-wide TFT convergence (paper Section VI.B, Theorem 3).
//!
//! Under TFT each node matches the minimum window it *hears*; the smallest
//! window in the network therefore spreads one hop per stage, and on a
//! connected graph every node converges to `W_m = min_i W_i` within
//! `diameter` stages. Theorem 3: the profile `(W_m, …, W_m)` is a NE of
//! the multi-hop game `G'` — Pareto optimal but in general not globally
//! optimal (quasi-optimal in the experiments).

use macgame_faults::{ChurnKind, ChurnSchedule};
use macgame_telemetry as telemetry;
use serde::{Deserialize, Serialize};

use crate::error::MultihopError;
use crate::topology::Topology;

/// Trace of the min-propagation dynamics.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvergenceTrace {
    /// Window profile at each round, starting with the initial profile.
    pub rounds: Vec<Vec<u32>>,
    /// The network-wide converged window (min over the start profile's
    /// connected component mins; equal to the global min when connected).
    pub final_windows: Vec<u32>,
    /// Rounds needed until no window changed.
    pub rounds_needed: usize,
}

impl ConvergenceTrace {
    /// Whether all nodes ended on a single common window.
    #[must_use]
    pub fn uniform(&self) -> bool {
        self.final_windows.windows(2).all(|w| w[0] == w[1])
    }

    /// The common window if [`Self::uniform`].
    #[must_use]
    pub fn converged_window(&self) -> Option<u32> {
        if self.uniform() {
            self.final_windows.first().copied()
        } else {
            None
        }
    }
}

/// Runs the TFT min-propagation dynamic from `initial` until it is stable.
///
/// Each round, every node simultaneously sets its window to the minimum
/// over itself and its neighbors (what it overheard last stage).
///
/// # Examples
///
/// ```
/// use macgame_multihop::convergence::tft_converge;
/// use macgame_multihop::{Point, Topology};
///
/// // A 3-hop chain: the smallest window spreads one hop per round.
/// let positions: Vec<Point> = (0..4).map(|i| Point { x: i as f64, y: 0.0 }).collect();
/// let topo = Topology::from_positions(&positions, 1.0);
/// let trace = tft_converge(&topo, &[40, 30, 20, 10])?;
/// assert_eq!(trace.converged_window(), Some(10));
/// assert_eq!(trace.rounds_needed, 3);
/// # Ok::<(), macgame_multihop::MultihopError>(())
/// ```
///
/// # Errors
///
/// Returns [`MultihopError::InvalidInput`] if `initial` disagrees with the
/// topology size or contains a zero window.
pub fn tft_converge(
    topology: &Topology,
    initial: &[u32],
) -> Result<ConvergenceTrace, MultihopError> {
    if initial.len() != topology.len() {
        return Err(MultihopError::InvalidInput(format!(
            "{} windows for {} nodes",
            initial.len(),
            topology.len()
        )));
    }
    if initial.contains(&0) {
        return Err(MultihopError::InvalidInput("windows must be at least 1".into()));
    }
    let mut rounds = vec![initial.to_vec()];
    let mut current = initial.to_vec();
    loop {
        let next: Vec<u32> = (0..current.len())
            .map(|i| {
                topology
                    .neighbors(i)
                    .iter()
                    .map(|&j| current[j])
                    .chain(std::iter::once(current[i]))
                    .min()
                    .expect("nonempty by construction") // PANIC-POLICY: invariant: nonempty by construction
            })
            .collect();
        let stable = next == current;
        current = next;
        if stable {
            break;
        }
        rounds.push(current.clone());
        // Monotone and bounded below: can never loop, but guard anyway.
        if rounds.len() > topology.len() + 2 {
            return Err(MultihopError::InvalidInput(
                "min-propagation failed to stabilize (impossible for valid graphs)".into(),
            ));
        }
    }
    let rounds_needed = rounds.len() - 1;
    telemetry::counter("multihop.convergence.runs", 1);
    telemetry::counter("multihop.convergence.rounds", rounds_needed as u64);
    Ok(ConvergenceTrace { rounds, final_windows: current, rounds_needed })
}

/// Verdict of the Theorem 3 equilibrium check at the converged profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultihopNeCheck {
    /// The converged common window `W_m`.
    pub window: u32,
    /// Whether no node has a profitable unilateral deviation.
    pub is_ne: bool,
    /// Worst (most tempted) node and its relative gain, for diagnostics.
    pub worst: Option<(usize, f64)>,
}

/// Checks Theorem 3: at `(W_m, …, W_m)` with `W_m = min_i W_i*`, no node
/// gains by deviating, because each node's local-game payoff is
/// monotonically increasing in the common window up to its own local
/// optimum `W_i* ≥ W_m` — so a downward deviation (followed by TFT dragging
/// its whole neighborhood down) lands strictly below `W_m`'s payoff, and an
/// upward deviation is immediately disfavored and pulled back.
///
/// The check prices a downward deviation for node `i` as: the deviator's
/// local game (population `deg(i)+1`) with everyone at `w_dev` forever
/// (post-punishment), versus everyone at `w_m` forever; plus the transient
/// head stage priced with [`macgame_core::deviation`]'s machinery.
///
/// # Errors
///
/// Propagates model failures.
pub fn check_multihop_ne(
    topology: &Topology,
    local_windows: &[u32],
    w_m: u32,
    game_template: &macgame_core::GameConfig,
    epsilon: f64,
) -> Result<MultihopNeCheck, MultihopError> {
    check_multihop_ne_threads(topology, local_windows, w_m, game_template, epsilon, 0)
}

/// [`check_multihop_ne`] with an explicit worker-thread count (`0` = the
/// `MACGAME_THREADS` default), for callers that need to pin the pool size
/// without touching the environment — e.g. the thread-invariance
/// determinism tests.
///
/// # Errors
///
/// Propagates model failures.
pub fn check_multihop_ne_threads(
    topology: &Topology,
    local_windows: &[u32],
    w_m: u32,
    game_template: &macgame_core::GameConfig,
    epsilon: f64,
    threads: usize,
) -> Result<MultihopNeCheck, MultihopError> {
    if local_windows.len() != topology.len() {
        return Err(MultihopError::InvalidInput(format!(
            "{} windows for {} nodes",
            local_windows.len(),
            topology.len()
        )));
    }
    // The check for node `i` depends only on its local population, which
    // repeats heavily across a network: solve each distinct population's
    // local game once, fanned out over the `MACGAME_THREADS` pool, then
    // fold per node in index order — reproducing exactly the verdict (and
    // stop-at-first-violation `worst` accounting) of a serial node loop.
    let populations: Vec<usize> =
        (0..topology.len()).map(|i| topology.local_population(i)).collect();
    let mut distinct: Vec<usize> = populations.iter().copied().filter(|&n| n >= 2).collect();
    distinct.sort_unstable();
    distinct.dedup();
    type LocalVerdict = (macgame_core::equilibrium::NeCheck, f64);
    telemetry::counter("multihop.localgame.ne_checks", distinct.len() as u64);
    let _span = telemetry::span("multihop.ne_check");
    let solved: Vec<Result<LocalVerdict, MultihopError>> =
        macgame_dcf::parallel::map(&distinct, threads, |&n_local| {
            let game = macgame_core::GameConfig::builder(n_local)
                .params(*game_template.params())
                .utility(*game_template.utility())
                .stage_duration(game_template.stage_duration())
                .discount(game_template.discount())
                .w_max(game_template.w_max())
                .build()
                .map_err(|e| MultihopError::InvalidInput(e.to_string()))?;
            let check = macgame_core::equilibrium::check_symmetric_ne(&game, w_m, 1, epsilon)
                .map_err(MultihopError::from)?;
            let compliant = macgame_core::deviation::symmetric_stage(&game, w_m)
                .map_err(MultihopError::from)?
                .abs()
                .max(f64::MIN_POSITIVE);
            let total = game.stage_duration().value() * compliant / (1.0 - game.discount());
            Ok((check, total))
        });
    let mut verdicts: std::collections::BTreeMap<usize, LocalVerdict> =
        std::collections::BTreeMap::new();
    for (n_local, v) in distinct.into_iter().zip(solved) {
        verdicts.insert(n_local, v?);
    }
    let mut worst: Option<(usize, f64)> = None;
    for (i, n_local) in populations.iter().enumerate() {
        if *n_local < 2 {
            continue; // no contention, nothing to deviate over
        }
        let (check, compliant_total) = &verdicts[n_local];
        if let Some((_, gain)) = check.best_deviation {
            let rel = gain / compliant_total;
            if worst.map_or(true, |(_, g)| rel > g) {
                worst = Some((i, rel));
            }
        }
        if !check.is_ne {
            return Ok(MultihopNeCheck { window: w_m, is_ne: false, worst });
        }
    }
    Ok(MultihopNeCheck { window: w_m, is_ne: true, worst })
}

/// Re-convergence bookkeeping for one churn event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconvergenceRecord {
    /// The event that was applied.
    pub event: macgame_faults::ChurnEvent,
    /// Propagation rounds from the event onward that changed the profile
    /// before the network was stable again (`0` = the event didn't
    /// perturb the min-matching dynamics at all, e.g. the departed node's
    /// window had already spread; `None` = the run hit its round guard
    /// before settling).
    pub rounds_to_settle: Option<usize>,
}

/// Trace of TFT min-propagation under a [`ChurnSchedule`].
///
/// Departed nodes are marked `None`: they neither transmit nor are heard,
/// so their neighbors simply stop including them in the min.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnTrace {
    /// Window profile per round (`None` = node currently away), starting
    /// with the initial profile.
    pub rounds: Vec<Vec<Option<u32>>>,
    /// The final profile.
    pub final_windows: Vec<Option<u32>>,
    /// Per-event re-convergence metrics, in application order.
    pub reconvergence: Vec<ReconvergenceRecord>,
    /// Whether the dynamics reached a stable profile after the last
    /// scheduled event (always true within the round guard for valid
    /// inputs, since min-matching is monotone between events).
    pub settled: bool,
}

impl ChurnTrace {
    /// Whether all *present* nodes ended on a single common window.
    #[must_use]
    pub fn active_uniform(&self) -> bool {
        let mut present = self.final_windows.iter().flatten();
        match present.next() {
            Some(first) => present.all(|w| w == first),
            None => true,
        }
    }

    /// The common window of the present nodes if [`Self::active_uniform`].
    #[must_use]
    pub fn converged_window(&self) -> Option<u32> {
        if self.active_uniform() {
            self.final_windows.iter().flatten().next().copied()
        } else {
            None
        }
    }

    /// The slowest re-convergence over all settled events.
    #[must_use]
    pub fn max_reconvergence_rounds(&self) -> Option<usize> {
        self.reconvergence.iter().filter_map(|r| r.rounds_to_settle).max()
    }

    /// Propagation rounds actually run.
    #[must_use]
    pub fn rounds_run(&self) -> usize {
        self.rounds.len() - 1
    }
}

/// Runs TFT min-propagation from `initial` while replaying `schedule`:
/// at the start of each round the events due that round are applied
/// (leave / join / window reset), then every present node simultaneously
/// matches the minimum over itself and its present neighbors.
///
/// The dynamics are fully serial and draw no randomness, so a trace is a
/// pure function of `(topology, initial, schedule)` — identical for every
/// seed-derived schedule replay and every `MACGAME_THREADS` setting.
///
/// Per event, the trace records how many extra propagation rounds the
/// network needed to stabilize again ([`ReconvergenceRecord`]); a `Leave`
/// of the minimum-holder costs nothing (min-matching never raises a
/// window), while a low-window `Join` re-triggers up to a diameter's worth
/// of spreading.
///
/// # Errors
///
/// Returns [`MultihopError::InvalidInput`] for a profile/topology length
/// mismatch, a zero initial window, or an event naming a node outside the
/// topology.
pub fn churn_converge(
    topology: &Topology,
    initial: &[u32],
    schedule: &ChurnSchedule,
) -> Result<ChurnTrace, MultihopError> {
    let n = topology.len();
    if initial.len() != n {
        return Err(MultihopError::InvalidInput(format!(
            "{} windows for {} nodes",
            initial.len(),
            n
        )));
    }
    if initial.contains(&0) {
        return Err(MultihopError::InvalidInput("windows must be at least 1".into()));
    }
    let events = schedule.events();
    if let Some(bad) = events.iter().find(|e| e.node >= n) {
        return Err(MultihopError::InvalidInput(format!(
            "churn event names node {} but the network has {n}",
            bad.node
        )));
    }
    let mut state: Vec<Option<u32>> = initial.iter().map(|&w| Some(w)).collect();
    let mut rounds = vec![state.clone()];
    let mut reconvergence: Vec<ReconvergenceRecord> = Vec::with_capacity(events.len());
    // Events applied but not yet settled: (record index, application round).
    let mut pending: Vec<(usize, usize)> = Vec::new();
    let mut next_event = 0usize;
    // Last round whose *propagation* step moved a window (event
    // applications themselves don't count: a Leave whose window already
    // spread perturbs nothing).
    let mut last_prop_change: Option<usize> = None;
    let mut settled = false;
    // Between consecutive events the dynamics are plain monotone
    // min-matching, so each segment stabilizes within `n` rounds; one
    // extra round detects stability.
    let horizon = schedule.last_round().unwrap_or(0) + n + 2;
    for round in 1..=horizon {
        let mut applied_any = false;
        while next_event < events.len() && events[next_event].round <= round {
            let e = events[next_event];
            match e.kind {
                ChurnKind::Leave => state[e.node] = None,
                ChurnKind::Join { window } | ChurnKind::Reset { window } => {
                    state[e.node] = Some(window);
                }
            }
            reconvergence.push(ReconvergenceRecord { event: e, rounds_to_settle: None });
            pending.push((reconvergence.len() - 1, round));
            applied_any = true;
            next_event += 1;
        }
        let next: Vec<Option<u32>> = (0..n)
            .map(|i| {
                state[i].map(|w| {
                    topology
                        .neighbors(i)
                        .iter()
                        .filter_map(|&j| state[j])
                        .chain(std::iter::once(w))
                        .min()
                        .expect("self always present") // PANIC-POLICY: invariant: self always present
                })
            })
            .collect();
        let changed_prop = next != state;
        state = next;
        rounds.push(state.clone());
        if changed_prop {
            last_prop_change = Some(round);
        }
        if !changed_prop && !applied_any {
            for (idx, at) in pending.drain(..) {
                let settled_in = match last_prop_change {
                    Some(last) if last >= at => last - at + 1,
                    _ => 0,
                };
                reconvergence[idx].rounds_to_settle = Some(settled_in);
            }
            if next_event >= events.len() {
                settled = true;
                break;
            }
        }
    }
    telemetry::counter("multihop.churn.runs", 1);
    telemetry::counter("multihop.churn.events", events.len() as u64);
    telemetry::counter("multihop.churn.rounds", (rounds.len() - 1) as u64);
    Ok(ChurnTrace { rounds, final_windows: state, reconvergence, settled })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> Topology {
        let positions: Vec<crate::geometry::Point> =
            (0..n).map(|i| crate::geometry::Point { x: i as f64, y: 0.0 }).collect();
        Topology::from_positions(&positions, 1.0)
    }

    #[test]
    fn min_spreads_one_hop_per_round() {
        let topo = line(5);
        let trace = tft_converge(&topo, &[50, 40, 30, 20, 10]).unwrap();
        assert!(trace.uniform());
        assert_eq!(trace.converged_window(), Some(10));
        // The min starts at one end of a diameter-4 line: 4 rounds.
        assert_eq!(trace.rounds_needed, 4);
    }

    #[test]
    fn convergence_bounded_by_diameter() {
        let topo = line(8);
        let trace = tft_converge(&topo, &[9, 3, 7, 5, 8, 2, 6, 4]).unwrap();
        assert!(trace.rounds_needed <= topo.diameter().unwrap());
        assert_eq!(trace.converged_window(), Some(2));
    }

    #[test]
    fn already_uniform_needs_zero_rounds() {
        let topo = line(4);
        let trace = tft_converge(&topo, &[26; 4]).unwrap();
        assert_eq!(trace.rounds_needed, 0);
        assert_eq!(trace.converged_window(), Some(26));
    }

    #[test]
    fn disconnected_components_keep_their_own_min() {
        let positions = vec![
            crate::geometry::Point { x: 0.0, y: 0.0 },
            crate::geometry::Point { x: 1.0, y: 0.0 },
            crate::geometry::Point { x: 100.0, y: 0.0 },
            crate::geometry::Point { x: 101.0, y: 0.0 },
        ];
        let topo = Topology::from_positions(&positions, 1.5);
        let trace = tft_converge(&topo, &[30, 20, 50, 40]).unwrap();
        assert!(!trace.uniform());
        assert_eq!(trace.final_windows, vec![20, 20, 40, 40]);
    }

    #[test]
    fn input_validation() {
        let topo = line(3);
        assert!(tft_converge(&topo, &[1, 2]).is_err());
        assert!(tft_converge(&topo, &[1, 0, 2]).is_err());
    }

    #[test]
    fn theorem3_holds_on_a_line_network() {
        use crate::localgame::{local_optimal_windows, LocalRule};
        use macgame_dcf::{AccessMode, DcfParams, UtilityParams};
        let topo = line(6);
        let params = DcfParams::builder().access_mode(AccessMode::RtsCts).build().unwrap();
        let ws = local_optimal_windows(
            &topo,
            &params,
            &UtilityParams::default(),
            2048,
            LocalRule::ExactArgmax,
        )
        .unwrap();
        let trace = tft_converge(&topo, &ws).unwrap();
        let w_m = trace.converged_window().unwrap();
        assert_eq!(ws.iter().copied().min().unwrap(), w_m);
        let template = macgame_core::GameConfig::builder(2).params(params).build().unwrap();
        let check = check_multihop_ne(&topo, &ws, w_m, &template, 1e-4).unwrap();
        assert!(check.is_ne, "worst deviation: {:?}", check.worst);
    }

    #[test]
    fn churn_free_schedule_matches_plain_convergence() {
        let topo = line(5);
        let initial = [50u32, 40, 30, 20, 10];
        let plain = tft_converge(&topo, &initial).unwrap();
        let churned = churn_converge(&topo, &initial, &ChurnSchedule::default()).unwrap();
        assert!(churned.settled);
        assert!(churned.reconvergence.is_empty());
        let finals: Vec<u32> = churned.final_windows.iter().map(|w| w.unwrap()).collect();
        assert_eq!(finals, plain.final_windows);
        assert_eq!(churned.converged_window(), Some(10));
    }

    #[test]
    fn leaving_the_min_holder_costs_no_reconvergence() {
        // Min-matching never raises a window, so once 10 has spread the
        // origin's departure perturbs nothing.
        let topo = line(4);
        let events = vec![macgame_faults::ChurnEvent {
            round: 10,
            node: 3,
            kind: macgame_faults::ChurnKind::Leave,
        }];
        let schedule = ChurnSchedule::new(events, 4).unwrap();
        let trace = churn_converge(&topo, &[40, 30, 20, 10], &schedule).unwrap();
        assert!(trace.settled);
        assert_eq!(trace.final_windows, vec![Some(10), Some(10), Some(10), None]);
        assert_eq!(trace.reconvergence.len(), 1);
        assert_eq!(trace.reconvergence[0].rounds_to_settle, Some(0));
    }

    #[test]
    fn low_window_join_re_spreads_across_the_diameter() {
        // A converged 4-chain at 40; a node rejoins at window 5 on one end
        // and the min takes a diameter's worth of rounds to spread again.
        let topo = line(4);
        let events = vec![
            macgame_faults::ChurnEvent {
                round: 2,
                node: 0,
                kind: macgame_faults::ChurnKind::Leave,
            },
            macgame_faults::ChurnEvent {
                round: 8,
                node: 0,
                kind: macgame_faults::ChurnKind::Join { window: 5 },
            },
        ];
        let schedule = ChurnSchedule::new(events, 4).unwrap();
        let trace = churn_converge(&topo, &[40; 4], &schedule).unwrap();
        assert!(trace.settled);
        assert_eq!(trace.converged_window(), Some(5));
        // The join at one end of a diameter-3 line needs 3 spreading rounds.
        assert_eq!(trace.reconvergence[1].rounds_to_settle, Some(3));
        assert_eq!(trace.max_reconvergence_rounds(), Some(3));
    }

    #[test]
    fn reset_is_pulled_back_down_by_neighbors() {
        let topo = line(3);
        let events = vec![macgame_faults::ChurnEvent {
            round: 5,
            node: 1,
            kind: macgame_faults::ChurnKind::Reset { window: 90 },
        }];
        let schedule = ChurnSchedule::new(events, 3).unwrap();
        let trace = churn_converge(&topo, &[20; 3], &schedule).unwrap();
        assert!(trace.settled);
        assert_eq!(trace.converged_window(), Some(20));
        assert_eq!(trace.reconvergence[0].rounds_to_settle, Some(1));
    }

    #[test]
    fn churn_trace_is_a_pure_function_of_the_schedule_seed() {
        let topo = line(10);
        let initial: Vec<u32> = (1..=10).map(|i| i * 10).collect();
        let sched_a = ChurnSchedule::random(10, 40, 0.3, 128, 42).unwrap();
        let sched_b = ChurnSchedule::random(10, 40, 0.3, 128, 42).unwrap();
        let a = churn_converge(&topo, &initial, &sched_a).unwrap();
        let b = churn_converge(&topo, &initial, &sched_b).unwrap();
        assert_eq!(a, b);
        let sched_c = ChurnSchedule::random(10, 40, 0.3, 128, 43).unwrap();
        let c = churn_converge(&topo, &initial, &sched_c).unwrap();
        assert!(a != c || sched_a == sched_c);
    }

    #[test]
    fn churn_converge_validation() {
        let topo = line(3);
        assert!(churn_converge(&topo, &[1, 2], &ChurnSchedule::default()).is_err());
        assert!(churn_converge(&topo, &[1, 0, 2], &ChurnSchedule::default()).is_err());
        let oversized = ChurnSchedule::new(
            vec![macgame_faults::ChurnEvent {
                round: 1,
                node: 7,
                kind: macgame_faults::ChurnKind::Leave,
            }],
            8,
        )
        .unwrap();
        assert!(churn_converge(&topo, &[1, 2, 3], &oversized).is_err());
    }

    #[test]
    fn all_nodes_leaving_is_vacuously_uniform() {
        let topo = line(2);
        let events = (0..2)
            .map(|node| macgame_faults::ChurnEvent {
                round: 3,
                node,
                kind: macgame_faults::ChurnKind::Leave,
            })
            .collect();
        let schedule = ChurnSchedule::new(events, 2).unwrap();
        let trace = churn_converge(&topo, &[8, 8], &schedule).unwrap();
        assert!(trace.settled);
        assert!(trace.active_uniform());
        assert_eq!(trace.converged_window(), None);
        assert_eq!(trace.final_windows, vec![None, None]);
    }
}
