//! The spatial slot-level simulator: multi-hop contention with hidden
//! terminals and (optionally) node mobility.
//!
//! Extends the single-hop slot abstraction of `macgame_sim` to a plane:
//! a transmission `t → r` (receiver drawn uniformly among `t`'s current
//! neighbors) succeeds iff no *other* transmitter is within range of `r`
//! and no co-transmitter is within range of `t`. Failures caused only by
//! transmitters `r` hears but `t` does not are **hidden-terminal losses**
//! (the `1 − p_hn` of paper Section VI.A); the sender cannot distinguish
//! them from ordinary collisions, so both escalate its backoff.

use macgame_dcf::{DcfParams, MicroSecs, UtilityParams};
use macgame_sim::Node;
use macgame_telemetry as telemetry;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::error::MultihopError;
use crate::geometry::Point;
use crate::mobility::{Mobility, WaypointConfig};
use crate::topology::Topology;

/// Configuration of a spatial simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpatialConfig {
    /// Protocol parameters (the paper's multi-hop scenario uses RTS/CTS).
    pub params: DcfParams,
    /// Utility parameters for payoff accounting.
    pub utility: UtilityParams,
    /// Common transmission range in meters (paper: 250 m).
    pub range: f64,
    /// Mobility model; `None` freezes nodes at their initial placement.
    pub mobility: Option<WaypointConfig>,
    /// How often positions/topology are refreshed during a run.
    pub topology_refresh: MicroSecs,
    /// RNG seed.
    pub seed: u64,
}

impl SpatialConfig {
    /// The paper's Section VII.B scenario (without the node count, which
    /// [`SpatialEngine::new`] takes separately): RTS/CTS, 250 m range,
    /// random waypoint `U[0, 5]` m/s in 1 km², 1 s topology refresh.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        SpatialConfig {
            params: DcfParams::builder()
                .access_mode(macgame_dcf::AccessMode::RtsCts)
                .build()
                .expect("paper parameters are valid"), // PANIC-POLICY: constant parameters are valid by construction
            utility: UtilityParams::default(),
            range: 250.0,
            mobility: Some(WaypointConfig::paper()),
            topology_refresh: MicroSecs::from_seconds(1.0),
            seed,
        }
    }
}

/// Per-node hidden-terminal accounting (on top of the basic
/// attempts/successes/collisions of [`macgame_sim::NodeStats`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HiddenStats {
    /// Attempts with no co-transmitter in the sender's own range
    /// (i.e. attempts "exposed" only to hidden terminals).
    pub exposed_attempts: u64,
    /// Of those, attempts lost to a hidden terminal at the receiver.
    pub hidden_losses: u64,
}

impl HiddenStats {
    /// Estimate of the paper's degradation factor `p_hn`: the fraction of
    /// hidden-exposed attempts that *survive*. `None` with no data.
    #[must_use]
    pub fn p_hn(&self) -> Option<f64> {
        if self.exposed_attempts == 0 {
            None
        } else {
            Some(1.0 - self.hidden_losses as f64 / self.exposed_attempts as f64)
        }
    }
}

/// Measurements from a spatial run interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpatialReport {
    /// Per-node attempt/success/collision counts for the interval.
    pub node_stats: Vec<macgame_sim::NodeStats>,
    /// Per-node hidden-terminal accounting for the interval.
    pub hidden: Vec<HiddenStats>,
    /// Global (scheduler) time elapsed.
    pub elapsed: MicroSecs,
    /// Per-node *locally observed* channel time: each slot costs a node
    /// `T_s`/`T_c`/σ according to what happened in its own neighborhood.
    /// This respects spatial reuse — a quiet region accumulates idle time
    /// while a distant busy one accumulates frame time — and is the
    /// denominator of per-node payoff rates.
    pub local_elapsed: Vec<MicroSecs>,
    /// Slots simulated.
    pub slots: u64,
}

impl SpatialReport {
    /// Node `i`'s measured payoff rate `(n_s·g − n_e·e)/t_i` per µs of its
    /// locally observed channel time.
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty or `node` out of range.
    #[must_use]
    pub fn payoff_rate(&self, node: usize, utility: &UtilityParams) -> f64 {
        let t = self.local_elapsed[node].value();
        assert!(t > 0.0, "empty interval"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        let s = &self.node_stats[node];
        (s.successes as f64 * utility.gain - s.attempts as f64 * utility.cost) / t
    }

    /// Sum of all nodes' payoff rates.
    ///
    /// # Panics
    ///
    /// Panics if the interval is empty.
    #[must_use]
    pub fn global_payoff_rate(&self, utility: &UtilityParams) -> f64 {
        (0..self.node_stats.len()).map(|i| self.payoff_rate(i, utility)).sum()
    }

    /// Network-wide `p_hn` estimate: pooled over all nodes.
    #[must_use]
    pub fn network_p_hn(&self) -> Option<f64> {
        let exposed: u64 = self.hidden.iter().map(|h| h.exposed_attempts).sum();
        let lost: u64 = self.hidden.iter().map(|h| h.hidden_losses).sum();
        if exposed == 0 {
            None
        } else {
            Some(1.0 - lost as f64 / exposed as f64)
        }
    }
}

/// The spatial simulation engine.
#[derive(Debug, Clone)]
pub struct SpatialEngine {
    config: SpatialConfig,
    mobility: Option<Mobility>,
    positions: Vec<Point>,
    topology: Topology,
    nodes: Vec<Node>,
    hidden: Vec<HiddenStats>,
    local_clock: Vec<MicroSecs>,
    rng: ChaCha8Rng,
    clock: MicroSecs,
    slots: u64,
    since_refresh: MicroSecs,
}

impl SpatialEngine {
    /// Creates an engine with `n` nodes on window profile `windows`
    /// (length `n`). Positions come from the mobility model's initial
    /// placement, or uniformly at random in the paper arena when mobility
    /// is disabled.
    ///
    /// # Errors
    ///
    /// Returns [`MultihopError::InvalidInput`] for an empty network, a
    /// window/n mismatch, or a zero window.
    pub fn new(n: usize, windows: &[u32], config: SpatialConfig) -> Result<Self, MultihopError> {
        if n == 0 {
            return Err(MultihopError::InvalidInput("need at least one node".into()));
        }
        if windows.len() != n {
            return Err(MultihopError::InvalidInput(format!(
                "{} windows for {n} nodes",
                windows.len()
            )));
        }
        if windows.contains(&0) {
            return Err(MultihopError::InvalidInput("windows must be at least 1".into()));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let (mobility, positions) = match config.mobility {
            Some(wp) => {
                let m = Mobility::new(n, wp, config.seed.wrapping_add(1));
                let p = m.positions();
                (Some(m), p)
            }
            None => {
                let arena = crate::geometry::Arena::paper();
                (None, (0..n).map(|_| arena.random_point(&mut rng)).collect())
            }
        };
        let topology = Topology::from_positions(&positions, config.range);
        let m = config.params.max_backoff_stage();
        let nodes = windows.iter().map(|&w| Node::new(w, m, &mut rng)).collect();
        Ok(SpatialEngine {
            config,
            mobility,
            positions,
            topology,
            nodes,
            hidden: vec![HiddenStats::default(); n],
            local_clock: vec![MicroSecs::ZERO; n],
            rng,
            clock: MicroSecs::ZERO,
            slots: 0,
            since_refresh: MicroSecs::ZERO,
        })
    }

    /// Creates an engine with explicit (static) positions.
    ///
    /// # Errors
    ///
    /// Same as [`SpatialEngine::new`], plus a positions/windows length
    /// mismatch.
    pub fn with_positions(
        positions: Vec<Point>,
        windows: &[u32],
        config: SpatialConfig,
    ) -> Result<Self, MultihopError> {
        if positions.len() != windows.len() {
            return Err(MultihopError::InvalidInput(format!(
                "{} positions for {} windows",
                positions.len(),
                windows.len()
            )));
        }
        let mut engine = SpatialEngine::new(positions.len(), windows, config)?;
        engine.topology = Topology::from_positions(&positions, engine.config.range);
        engine.positions = positions;
        engine.mobility = None;
        Ok(engine)
    }

    /// The current topology snapshot.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The current positions.
    #[must_use]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Applies a new window profile.
    ///
    /// # Errors
    ///
    /// Returns [`MultihopError::InvalidInput`] on length mismatch or zero
    /// window.
    pub fn set_windows(&mut self, windows: &[u32]) -> Result<(), MultihopError> {
        if windows.len() != self.nodes.len() {
            return Err(MultihopError::InvalidInput(format!(
                "{} windows for {} nodes",
                windows.len(),
                self.nodes.len()
            )));
        }
        if windows.contains(&0) {
            return Err(MultihopError::InvalidInput("windows must be at least 1".into()));
        }
        for (node, &w) in self.nodes.iter_mut().zip(windows) {
            if node.window() != w {
                node.set_window(w, &mut self.rng);
            }
        }
        Ok(())
    }

    /// Sets one node's window.
    ///
    /// # Errors
    ///
    /// Returns [`MultihopError::InvalidInput`] for a bad index or window.
    pub fn set_window(&mut self, node: usize, window: u32) -> Result<(), MultihopError> {
        if node >= self.nodes.len() {
            return Err(MultihopError::InvalidInput(format!("node {node} out of range")));
        }
        if window == 0 {
            return Err(MultihopError::InvalidInput("windows must be at least 1".into()));
        }
        self.nodes[node].set_window(window, &mut self.rng);
        Ok(())
    }

    fn refresh_topology(&mut self) {
        if let Some(mobility) = &mut self.mobility {
            mobility.step(self.since_refresh);
            self.positions = mobility.positions();
            self.topology = Topology::from_positions(&self.positions, self.config.range);
        }
        self.since_refresh = MicroSecs::ZERO;
    }

    /// Simulates one slot.
    fn step(&mut self) {
        let transmitters: Vec<usize> =
            (0..self.nodes.len()).filter(|&i| self.nodes[i].wants_to_transmit()).collect();
        let is_tx = {
            let mut flags = vec![false; self.nodes.len()];
            for &t in &transmitters {
                flags[t] = true;
            }
            flags
        };
        let mut any_success = false;
        let mut succeeded = vec![false; self.nodes.len()];
        // Resolve each transmission.
        for &t in &transmitters {
            let neighbors = self.topology.neighbors(t);
            if neighbors.is_empty() {
                // No receiver in range: trivially "successful" broadcast,
                // keeps isolated nodes' state machines live.
                self.nodes[t].on_success(&mut self.rng);
                succeeded[t] = true;
                any_success = true;
                continue;
            }
            let receiver = neighbors[self.rng.gen_range(0..neighbors.len())];
            let visible = neighbors.iter().any(|&j| is_tx[j]);
            let hidden_hit = !visible
                && self
                    .topology
                    .neighbors(receiver)
                    .iter()
                    .any(|&j| j != t && is_tx[j] && !neighbors.contains(&j));
            if visible {
                self.nodes[t].on_collision(&mut self.rng);
            } else if hidden_hit {
                self.hidden[t].exposed_attempts += 1;
                self.hidden[t].hidden_losses += 1;
                self.nodes[t].on_collision(&mut self.rng);
            } else {
                self.hidden[t].exposed_attempts += 1;
                self.nodes[t].on_success(&mut self.rng);
                succeeded[t] = true;
                any_success = true;
            }
        }
        // Everyone else steps its counter.
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if !is_tx[i] {
                node.observe_slot();
            }
        }
        // Advance the clocks. Each node's *local* channel time reflects its
        // own neighborhood: a slot costs it T_s when it hears a successful
        // frame (or sent one), T_c when it only hears colliding/failed
        // attempts, and σ when its neighborhood is silent — so spatially
        // separated regions account their airtime independently.
        let timings = self.config.params.timings();
        let sigma = self.config.params.sigma();
        for i in 0..self.nodes.len() {
            let hears_tx = is_tx[i] || self.topology.neighbors(i).iter().any(|&j| is_tx[j]);
            let hears_success =
                succeeded[i] || self.topology.neighbors(i).iter().any(|&j| succeeded[j]);
            self.local_clock[i] += if hears_success {
                timings.success_time
            } else if hears_tx {
                timings.collision_time
            } else {
                sigma
            };
        }
        // The global (scheduler) clock keeps the coarse network-wide slot.
        let dt = if transmitters.is_empty() {
            sigma
        } else if any_success {
            timings.success_time
        } else {
            timings.collision_time
        };
        self.clock += dt;
        self.since_refresh += dt;
        self.slots += 1;
        if self.since_refresh >= self.config.topology_refresh {
            self.refresh_topology();
        }
    }

    /// Runs until at least `duration` elapses, reporting the interval.
    #[must_use]
    pub fn run_for(&mut self, duration: MicroSecs) -> SpatialReport {
        let _span = telemetry::span("multihop.spatial.run");
        let stats_base: Vec<_> = self.nodes.iter().map(|n| *n.stats()).collect();
        let hidden_base = self.hidden.clone();
        let local_base = self.local_clock.clone();
        let slots_base = self.slots;
        let clock_base = self.clock;
        let deadline = self.clock + duration;
        while self.clock < deadline {
            self.step();
        }
        let report = SpatialReport {
            node_stats: self
                .nodes
                .iter()
                .zip(&stats_base)
                .map(|(n, b)| n.stats().delta_since(b))
                .collect(),
            hidden: self
                .hidden
                .iter()
                .zip(&hidden_base)
                .map(|(h, b)| HiddenStats {
                    exposed_attempts: h.exposed_attempts - b.exposed_attempts,
                    hidden_losses: h.hidden_losses - b.hidden_losses,
                })
                .collect(),
            elapsed: self.clock - clock_base,
            local_elapsed: self.local_clock.iter().zip(&local_base).map(|(a, b)| *a - *b).collect(),
            slots: self.slots - slots_base,
        };
        telemetry::counter("multihop.spatial.runs", 1);
        telemetry::counter("multihop.spatial.slots", report.slots);
        telemetry::counter(
            "multihop.spatial.hidden_losses",
            report.hidden.iter().map(|h| h.hidden_losses).sum(),
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn static_config(seed: u64) -> SpatialConfig {
        SpatialConfig { mobility: None, ..SpatialConfig::paper(seed) }
    }

    fn line_positions(n: usize, spacing: f64) -> Vec<Point> {
        (0..n).map(|i| Point { x: i as f64 * spacing, y: 500.0 }).collect()
    }

    #[test]
    fn isolated_pair_behaves_like_single_hop() {
        // Two nodes in range of each other and nobody else: no hidden
        // terminals, p_hn = 1.
        let config = static_config(3);
        let engine = SpatialEngine::with_positions(
            vec![Point { x: 0.0, y: 0.0 }, Point { x: 100.0, y: 0.0 }],
            &[32, 32],
            config.clone(),
        );
        let mut engine = engine.unwrap();
        let report = engine.run_for(MicroSecs::from_seconds(20.0));
        assert_eq!(report.network_p_hn(), Some(1.0));
        assert!(report.node_stats[0].successes > 0);
    }

    #[test]
    fn chain_exhibits_hidden_losses() {
        // 0-1-2 line with 200 m spacing and 250 m range: 0 and 2 are
        // mutually hidden; transmissions to the middle node suffer.
        let config = static_config(5);
        let mut engine =
            SpatialEngine::with_positions(line_positions(3, 200.0), &[16, 16, 16], config).unwrap();
        let report = engine.run_for(MicroSecs::from_seconds(50.0));
        let p_hn = report.network_p_hn().expect("plenty of exposed attempts");
        assert!(p_hn < 0.999, "expected hidden losses, p_hn = {p_hn}");
        let lost: u64 = report.hidden.iter().map(|h| h.hidden_losses).sum();
        assert!(lost > 0);
    }

    #[test]
    fn conservation_laws() {
        let config = static_config(9);
        let mut engine =
            SpatialEngine::with_positions(line_positions(4, 150.0), &[32; 4], config).unwrap();
        let report = engine.run_for(MicroSecs::from_seconds(10.0));
        for (i, s) in report.node_stats.iter().enumerate() {
            assert_eq!(s.attempts, s.successes + s.collisions, "node {i}: attempts must partition");
            assert!(report.hidden[i].hidden_losses <= report.hidden[i].exposed_attempts);
        }
        assert!(report.elapsed.value() >= 10.0 * 1e6);
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = |seed| {
            let mut e = SpatialEngine::new(20, &[64; 20], SpatialConfig::paper(seed)).unwrap();
            e.run_for(MicroSecs::from_seconds(3.0))
        };
        assert_eq!(mk(11), mk(11));
        assert_ne!(mk(11), mk(12));
    }

    #[test]
    fn mobility_changes_topology_over_time() {
        let mut engine = SpatialEngine::new(30, &[64; 30], SpatialConfig::paper(4)).unwrap();
        let before = engine.topology().clone();
        let _ = engine.run_for(MicroSecs::from_seconds(120.0));
        let after = engine.topology().clone();
        assert_ne!(before, after, "two minutes at ≤5 m/s must alter the neighbor graph");
    }

    #[test]
    fn aggressive_node_still_wins_locally() {
        // Two contenders near each other: smaller window wins more (the
        // single-hop Lemma 1 survives spatially).
        let config = static_config(8);
        let mut engine = SpatialEngine::with_positions(
            vec![Point { x: 0.0, y: 0.0 }, Point { x: 50.0, y: 0.0 }, Point { x: 100.0, y: 0.0 }],
            &[16, 64, 64],
            config,
        )
        .unwrap();
        let report = engine.run_for(MicroSecs::from_seconds(30.0));
        assert!(report.node_stats[0].successes > report.node_stats[1].successes);
    }

    #[test]
    fn validation_errors() {
        let c = static_config(0);
        assert!(SpatialEngine::new(0, &[], c.clone()).is_err());
        assert!(SpatialEngine::new(2, &[8], c.clone()).is_err());
        assert!(SpatialEngine::new(2, &[8, 0], c.clone()).is_err());
        let mut e = SpatialEngine::new(2, &[8, 8], c.clone()).unwrap();
        assert!(e.set_windows(&[1]).is_err());
        assert!(e.set_windows(&[0, 1]).is_err());
        assert!(e.set_window(5, 4).is_err());
        assert!(e.set_window(0, 0).is_err());
        assert!(SpatialEngine::with_positions(vec![Point { x: 0.0, y: 0.0 }], &[8, 8], c).is_err());
    }
}
