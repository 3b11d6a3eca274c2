//! The single-hop slot-level simulation engine.
//!
//! Implements the slotted contention process that the analytical model
//! abstracts: in each virtual slot, every node whose backoff counter is
//! zero transmits; zero transmitters make an idle slot of length σ, one
//! makes a success of length `T_s`, several make a collision of length
//! `T_c`. Non-transmitting nodes step their counters once per slot, in the
//! Bianchi slot abstraction.
//!
//! The engine persists across game stages: [`Engine::set_windows`] applies
//! a new strategy profile and [`Engine::run_slots`]/[`Engine::run_for`]
//! measure one interval.

use macgame_dcf::MicroSecs;
use macgame_faults::ChannelFaults;
use macgame_telemetry as telemetry;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::config::SimConfig;
use crate::delay::DelayTracker;
use crate::node::Node;
use crate::report::{ChannelCounts, StageReport};
use crate::traffic::TrafficModel;
use crate::SimError;

/// Outcome of one simulated slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SlotOutcome {
    /// Nobody transmitted.
    Idle,
    /// Exactly one node transmitted successfully.
    Success {
        /// The transmitting node.
        node: usize,
    },
    /// Two or more nodes collided.
    Collision {
        /// Number of simultaneous transmitters.
        transmitters: usize,
    },
    /// Fault injection only: a lone transmission was corrupted by channel
    /// noise. The sender backs off as if it had collided; the channel is
    /// occupied for a full success duration.
    ChannelError {
        /// The transmitting node whose frame was lost.
        node: usize,
    },
    /// Fault injection only: a collision was *captured* — one frame was
    /// received despite the overlap. The winner behaves as on success,
    /// every other transmitter backs off as on collision.
    Capture {
        /// The node whose frame survived.
        winner: usize,
        /// Number of simultaneous transmitters (including the winner).
        transmitters: usize,
    },
}

/// Private state of the slot-outcome fault injector: its configuration,
/// its own ChaCha8 stream (never the engine's backoff RNG), and counts of
/// what it has injected so far.
#[derive(Debug, Clone)]
struct FaultState {
    config: ChannelFaults,
    rng: ChaCha8Rng,
    errors: u64,
    captures: u64,
}

/// The single-hop DCF simulation engine.
///
/// # Examples
///
/// ```
/// use macgame_sim::{Engine, SimConfig};
///
/// let config = SimConfig::builder().symmetric(5, 76).seed(1).build()?;
/// let mut engine = Engine::new(&config);
/// let report = engine.run_slots(200_000);
/// // Per-node τ̂ should approximate the analytic fixed point (~0.0226).
/// assert!((report.tau_hat(0) - 0.0226).abs() < 0.004);
/// # Ok::<(), macgame_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    config: SimConfig,
    nodes: Vec<Node>,
    rng: ChaCha8Rng,
    clock: MicroSecs,
    total_slots: u64,
    transmit_buffer: Vec<usize>,
    delay: DelayTracker,
    queues: Vec<u64>,
    arrivals: Vec<u64>,
    last_slot_duration: MicroSecs,
    faults: Option<FaultState>,
    /// Per-node AIFS defer distances `d_i` (slots of consecutive idle
    /// beyond the baseline a node must observe before contending). All
    /// zeros for legacy configs, making the EDCA gate a no-op.
    defers: Vec<u32>,
    /// Per-node TXOP burst lengths in frames. All ones for legacy
    /// configs, making every success a plain `T_s`.
    txop: Vec<u32>,
    /// Consecutive idle slots observed so far (reset by any busy slot):
    /// the shared state the AIFS gate compares `d_i` against.
    idle_streak: u64,
}

impl Engine {
    /// Creates an engine from a configuration; per-node backoff states are
    /// seeded deterministically from `config.seed()`.
    #[must_use]
    pub fn new(config: &SimConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed());
        let m = config.params().max_backoff_stage();
        let nodes = config.windows().iter().map(|&w| Node::new(w, m, &mut rng)).collect();
        let delay = DelayTracker::new(config.node_count());
        let n = config.node_count();
        Engine {
            config: config.clone(),
            nodes,
            rng,
            clock: MicroSecs::ZERO,
            total_slots: 0,
            transmit_buffer: Vec::new(),
            delay,
            queues: vec![0; n],
            arrivals: vec![0; n],
            last_slot_duration: config.params().sigma(),
            faults: None,
            defers: config.aifs_defers(),
            txop: config.txop_bursts(),
            idle_streak: 0,
        }
    }

    /// Creates an engine with slot-outcome fault injection attached.
    ///
    /// The injector draws from its own ChaCha8 stream derived from
    /// `faults.seed` — never from the engine's backoff RNG — so attaching
    /// it cannot perturb the contention process except through the faults
    /// it actually injects. A no-op configuration
    /// ([`ChannelFaults::is_noop`]) attaches nothing at all: the engine is
    /// bitwise identical to [`Engine::new`] with the same config.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if either fault rate is not a
    /// probability.
    pub fn with_faults(config: &SimConfig, faults: ChannelFaults) -> Result<Self, SimError> {
        // Re-validate: the fields are public, so a hand-rolled struct may
        // bypass `ChannelFaults::new`.
        let faults = ChannelFaults::new(faults.error_rate, faults.capture_prob, faults.seed)
            .map_err(|e| SimError::InvalidConfig(e.to_string()))?;
        let mut engine = Engine::new(config);
        if !faults.is_noop() {
            engine.faults = Some(FaultState {
                rng: macgame_faults::rng::stream_rng(faults.seed, "sim.channel", 0),
                config: faults,
                errors: 0,
                captures: 0,
            });
        }
        Ok(engine)
    }

    /// Number of lone transmissions corrupted by injected channel errors
    /// so far (0 without fault injection).
    #[must_use]
    pub fn channel_error_count(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.errors)
    }

    /// Number of collisions resolved by injected capture so far (0
    /// without fault injection).
    #[must_use]
    pub fn capture_count(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.captures)
    }

    /// Current queue length of `node` (always 0 under saturated traffic —
    /// the backlog is conceptually infinite).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn queue_len(&self, node: usize) -> u64 {
        self.queues[node]
    }

    /// Total packet arrivals generated for `node` so far (0 under
    /// saturated traffic).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn total_arrivals(&self, node: usize) -> u64 {
        self.arrivals[node]
    }

    /// Number of simulated nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Current window profile.
    #[must_use]
    pub fn windows(&self) -> Vec<u32> {
        self.nodes.iter().map(Node::window).collect()
    }

    /// Applies a new window profile (one entry per node), e.g. at a game
    /// stage boundary.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the profile length does not
    /// match the node count or contains a zero window.
    pub fn set_windows(&mut self, windows: &[u32]) -> Result<(), SimError> {
        if windows.len() != self.nodes.len() {
            return Err(SimError::InvalidConfig(format!(
                "profile has {} entries for {} nodes",
                windows.len(),
                self.nodes.len()
            )));
        }
        if windows.contains(&0) {
            return Err(SimError::InvalidConfig("contention windows must be at least 1".into()));
        }
        for (node, &w) in self.nodes.iter_mut().zip(windows) {
            if node.window() != w {
                node.set_window(w, &mut self.rng);
            }
        }
        Ok(())
    }

    /// Sets one node's window, leaving the rest untouched.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `node` is out of range or
    /// `window` is zero.
    pub fn set_window(&mut self, node: usize, window: u32) -> Result<(), SimError> {
        if node >= self.nodes.len() {
            return Err(SimError::InvalidConfig(format!("node {node} out of range")));
        }
        if window == 0 {
            return Err(SimError::InvalidConfig("contention windows must be at least 1".into()));
        }
        self.nodes[node].set_window(window, &mut self.rng);
        Ok(())
    }

    /// Simulates one slot and returns its outcome.
    pub fn step(&mut self) -> SlotOutcome {
        // Packet arrivals (Poisson mode): credited at slot boundaries,
        // using the previous slot's duration as the arrival window. A
        // packet reaching an empty queue re-arms the node with a fresh
        // stage-0 backoff (802.11 post-idle behaviour).
        if let model @ TrafficModel::Poisson { .. } = self.config.traffic() {
            let dt = self.last_slot_duration.value();
            for i in 0..self.nodes.len() {
                let arrived = model.sample_arrivals(dt, &mut self.rng);
                if arrived > 0 {
                    let was_empty = self.queues[i] == 0;
                    self.arrivals[i] += arrived;
                    self.queues[i] += arrived;
                    if was_empty {
                        let w = self.nodes[i].window();
                        self.nodes[i].set_window(w, &mut self.rng);
                    }
                }
            }
        }
        self.transmit_buffer.clear();
        for (i, node) in self.nodes.iter().enumerate() {
            // EDCA AIFS gate: a deferring node contends only once it has
            // observed at least `d_i` consecutive idle slots. With all
            // defers zero (legacy DCF) the comparison is always true.
            if self.idle_streak >= u64::from(self.defers[i])
                && node.wants_to_transmit()
                && (self.config.traffic().is_saturated() || self.queues[i] > 0)
            {
                self.transmit_buffer.push(i);
            }
        }
        let timings = self.config.params().timings();
        let mut outcome = match self.transmit_buffer.len() {
            0 => SlotOutcome::Idle,
            1 => SlotOutcome::Success { node: self.transmit_buffer[0] },
            k => SlotOutcome::Collision { transmitters: k },
        };
        // Fault injection rewrites the ideal outcome before anything is
        // resolved. Decision draws are guarded by `rate > 0.0` so each
        // fault stream advances only for the faults it can inject.
        if let Some(faults) = self.faults.as_mut() {
            match outcome {
                SlotOutcome::Success { node }
                    if faults.config.error_rate > 0.0
                        && faults.rng.gen_bool(faults.config.error_rate) =>
                {
                    faults.errors += 1;
                    telemetry::counter("sim.engine.channel_errors", 1);
                    outcome = SlotOutcome::ChannelError { node };
                }
                SlotOutcome::Collision { transmitters }
                    if faults.config.capture_prob > 0.0
                        && faults.rng.gen_bool(faults.config.capture_prob) =>
                {
                    faults.captures += 1;
                    telemetry::counter("sim.engine.captures", 1);
                    let winner = self.transmit_buffer[faults.rng.gen_range(0..transmitters)];
                    outcome = SlotOutcome::Capture { winner, transmitters };
                }
                _ => {}
            }
        }
        // A successful access occupies the channel for its holder's TXOP
        // burst (plain `T_s` at the single-frame default). A corrupted
        // lone frame occupies a plain success duration only: the first
        // frame of the burst is lost, and with it the TXOP.
        let duration = match outcome {
            SlotOutcome::Idle => self.config.params().sigma(),
            SlotOutcome::Success { node } | SlotOutcome::Capture { winner: node, .. } => {
                self.config.params().txop_success_time(self.txop[node])
            }
            SlotOutcome::ChannelError { .. } => timings.success_time,
            SlotOutcome::Collision { .. } => timings.collision_time,
        };
        self.clock += duration;
        // Resolve transmitters first, then step everyone else's counter.
        match outcome {
            SlotOutcome::Idle => {}
            SlotOutcome::Success { node } | SlotOutcome::Capture { winner: node, .. } => {
                self.nodes[node].on_success(&mut self.rng);
                self.delay.record_success(node, self.total_slots);
                if !self.config.traffic().is_saturated() {
                    self.queues[node] -= 1;
                }
                if matches!(outcome, SlotOutcome::Capture { .. }) {
                    for idx in 0..self.transmit_buffer.len() {
                        let i = self.transmit_buffer[idx];
                        if i != node {
                            self.nodes[i].on_collision(&mut self.rng);
                        }
                    }
                }
            }
            SlotOutcome::ChannelError { node } => {
                self.nodes[node].on_collision(&mut self.rng);
            }
            SlotOutcome::Collision { .. } => {
                for idx in 0..self.transmit_buffer.len() {
                    let i = self.transmit_buffer[idx];
                    self.nodes[i].on_collision(&mut self.rng);
                }
            }
        }
        let saturated = self.config.traffic().is_saturated();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let active = saturated || self.queues[i] > 0;
            // The AIFS gate freezes a deferring node's backoff counter
            // too: the countdown only runs in slots the node was
            // eligible to contend in (802.11e AIFS semantics).
            let eligible = self.idle_streak >= u64::from(self.defers[i]);
            if active && eligible && !self.transmit_buffer.contains(&i) && !node.wants_to_transmit()
            {
                node.observe_slot();
            }
        }
        self.idle_streak =
            if matches!(outcome, SlotOutcome::Idle) { self.idle_streak + 1 } else { 0 };
        self.last_slot_duration = duration;
        self.total_slots += 1;
        outcome
    }

    /// Measured mean head-of-line access delay of `node` in channel time:
    /// mean service interval (slots) × mean observed slot length.
    /// `None` until the node has completed at least one interval.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn mean_access_delay(&self, node: usize) -> Option<MicroSecs> {
        let mean_slots = self.delay.mean_slots(node)?;
        if self.total_slots == 0 {
            return None;
        }
        let mean_slot = self.clock.value() / self.total_slots as f64;
        Some(MicroSecs::new(mean_slots * mean_slot))
    }

    /// Runs `slots` slots and reports the interval's measurements.
    #[must_use]
    pub fn run_slots(&mut self, slots: u64) -> StageReport {
        let _span = telemetry::span("sim.engine.run");
        let baseline: Vec<_> = self.nodes.iter().map(|n| *n.stats()).collect();
        let clock_start = self.clock;
        let mut channel = ChannelCounts::default();
        for _ in 0..slots {
            Self::count_outcome(&mut channel, self.step());
        }
        self.finish_report(&baseline, clock_start, channel)
    }

    /// Runs until at least `duration` of channel time elapses and reports
    /// the interval's measurements.
    #[must_use]
    pub fn run_for(&mut self, duration: MicroSecs) -> StageReport {
        let _span = telemetry::span("sim.engine.run");
        let baseline: Vec<_> = self.nodes.iter().map(|n| *n.stats()).collect();
        let clock_start = self.clock;
        let deadline = self.clock + duration;
        let mut channel = ChannelCounts::default();
        while self.clock < deadline {
            Self::count_outcome(&mut channel, self.step());
        }
        self.finish_report(&baseline, clock_start, channel)
    }

    /// Maps an outcome to the channel counters. Injected outcomes fold
    /// into the ideal categories by what the channel delivered: a capture
    /// delivered one frame (success), a channel error delivered none
    /// (collision) — so `ChannelCounts` keeps its shape and goldens.
    fn count_outcome(channel: &mut ChannelCounts, outcome: SlotOutcome) {
        match outcome {
            SlotOutcome::Idle => channel.idle += 1,
            SlotOutcome::Success { .. } | SlotOutcome::Capture { .. } => channel.success += 1,
            SlotOutcome::Collision { .. } | SlotOutcome::ChannelError { .. } => {
                channel.collision += 1
            }
        }
    }

    fn finish_report(
        &self,
        baseline: &[crate::node::NodeStats],
        clock_start: MicroSecs,
        channel: ChannelCounts,
    ) -> StageReport {
        telemetry::counter("sim.engine.runs", 1);
        telemetry::counter("sim.engine.slots", channel.total());
        telemetry::counter("sim.engine.collisions", channel.collision);
        telemetry::counter("sim.engine.successes", channel.success);
        StageReport {
            node_stats: self
                .nodes
                .iter()
                .zip(baseline)
                .map(|(n, b)| n.stats().delta_since(b))
                .collect(),
            channel,
            elapsed: self.clock - clock_start,
            windows: self.windows(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macgame_dcf::fixedpoint::solve_symmetric;
    use macgame_dcf::{AccessMode, DcfParams};

    fn engine(n: usize, w: u32, seed: u64) -> Engine {
        let config = SimConfig::builder().symmetric(n, w).seed(seed).build().unwrap();
        Engine::new(&config)
    }

    #[test]
    fn slots_partition_into_outcomes() {
        let mut e = engine(5, 32, 3);
        let r = e.run_slots(10_000);
        assert_eq!(r.channel.total(), 10_000);
        assert_eq!(e.total_slots, 10_000);
    }

    #[test]
    fn attempts_equal_channel_events() {
        // Each success slot has exactly 1 attempting node; collisions ≥ 2.
        let mut e = engine(4, 16, 9);
        let r = e.run_slots(20_000);
        let successes: u64 = r.node_stats.iter().map(|s| s.successes).sum();
        let attempts: u64 = r.node_stats.iter().map(|s| s.attempts).sum();
        let collisions: u64 = r.node_stats.iter().map(|s| s.collisions).sum();
        assert_eq!(successes, r.channel.success);
        assert_eq!(attempts, successes + collisions);
        assert!(collisions >= 2 * r.channel.collision);
    }

    #[test]
    fn elapsed_matches_outcome_mix() {
        let p = DcfParams::default();
        let mut e = engine(3, 32, 1);
        let r = e.run_slots(5_000);
        let t = p.timings();
        let expect = r.channel.idle as f64 * p.sigma().value()
            + r.channel.success as f64 * t.success_time.value()
            + r.channel.collision as f64 * t.collision_time.value();
        assert!((r.elapsed.value() - expect).abs() < 1e-6);
    }

    #[test]
    fn deterministic_under_seed() {
        let r1 = engine(5, 64, 77).run_slots(5_000);
        let r2 = engine(5, 64, 77).run_slots(5_000);
        assert_eq!(r1, r2);
        let r3 = engine(5, 64, 78).run_slots(5_000);
        assert_ne!(r1, r3);
    }

    #[test]
    fn tau_hat_tracks_analytic_fixed_point() {
        let p = DcfParams::default();
        for &(n, w) in &[(5usize, 76u32), (10, 128), (3, 16)] {
            let sym = solve_symmetric(n, w, &p).unwrap();
            let mut e = engine(n, w, 1234);
            let r = e.run_slots(300_000);
            for i in 0..n {
                let rel = (r.tau_hat(i) - sym.tau).abs() / sym.tau;
                assert!(
                    rel < 0.06,
                    "n={n} W={w} node {i}: τ̂={} vs τ={} ({:.1}% off)",
                    r.tau_hat(i),
                    sym.tau,
                    rel * 100.0
                );
            }
        }
    }

    #[test]
    fn p_hat_tracks_analytic_fixed_point() {
        let p = DcfParams::default();
        let sym = solve_symmetric(5, 76, &p).unwrap();
        let mut e = engine(5, 76, 4321);
        let r = e.run_slots(400_000);
        for i in 0..5 {
            let rel = (r.p_hat(i) - sym.collision_prob).abs() / sym.collision_prob;
            assert!(rel < 0.1, "node {i}: p̂={} vs p={}", r.p_hat(i), sym.collision_prob);
        }
    }

    #[test]
    fn aggressive_node_wins_more() {
        // Lemma 1, operationally: the node with the smaller window gets
        // more successes and sees fewer collisions per attempt.
        let config = SimConfig::builder().windows(vec![16, 128]).seed(5).build().unwrap();
        let mut e = Engine::new(&config);
        let r = e.run_slots(100_000);
        assert!(r.node_stats[0].successes > 2 * r.node_stats[1].successes);
        assert!(r.p_hat(0) < r.p_hat(1));
    }

    #[test]
    fn rtscts_timing_applied() {
        let params = DcfParams::builder().access_mode(AccessMode::RtsCts).build().unwrap();
        let config = SimConfig::builder().params(params).symmetric(5, 16).seed(11).build().unwrap();
        let mut e = Engine::new(&config);
        let r = e.run_slots(10_000);
        let t = params.timings();
        let expect = r.channel.idle as f64 * params.sigma().value()
            + r.channel.success as f64 * t.success_time.value()
            + r.channel.collision as f64 * t.collision_time.value();
        assert!((r.elapsed.value() - expect).abs() < 1e-6);
    }

    #[test]
    fn run_for_respects_duration() {
        let mut e = engine(5, 32, 2);
        let r = e.run_for(MicroSecs::from_seconds(1.0));
        assert!(r.elapsed.value() >= 1e6);
        // Overshoot is bounded by one busy slot.
        assert!(r.elapsed.value() < 1e6 + 10_000.0);
    }

    #[test]
    fn set_windows_switches_profile() {
        let mut e = engine(3, 16, 8);
        e.set_windows(&[256, 256, 256]).unwrap();
        assert_eq!(e.windows(), vec![256, 256, 256]);
        let r = e.run_slots(50_000);
        // Wide windows ⇒ low attempt rate.
        assert!(r.tau_hat(0) < 0.02);
        assert!(e.set_windows(&[1, 2]).is_err());
        assert!(e.set_windows(&[0, 1, 2]).is_err());
        assert!(e.set_window(9, 8).is_err());
        assert!(e.set_window(0, 0).is_err());
    }

    #[test]
    fn single_node_never_collides() {
        let mut e = engine(1, 8, 3);
        let r = e.run_slots(10_000);
        assert_eq!(r.node_stats[0].collisions, 0);
        assert_eq!(r.channel.collision, 0);
    }

    #[test]
    fn default_edca_fields_are_bitwise_identical_to_legacy() {
        // Explicit all-baseline AIFS/TXOP profiles must not perturb the
        // slot process at all: no extra RNG draws, same outcomes, same
        // clock — the legacy engine is the degenerate EDCA engine.
        let plain_config = SimConfig::builder().symmetric(5, 32).seed(21).build().unwrap();
        let edca_config = SimConfig::builder()
            .symmetric(5, 32)
            .aifs(vec![3; 5])
            .txop(vec![1; 5])
            .seed(21)
            .build()
            .unwrap();
        let mut plain = Engine::new(&plain_config);
        let mut edca = Engine::new(&edca_config);
        for _ in 0..5_000 {
            assert_eq!(plain.step(), edca.step());
        }
        assert_eq!(plain.clock, edca.clock);
        let ra = plain.run_slots(20_000);
        let rb = edca.run_slots(20_000);
        assert_eq!(ra, rb);
    }

    #[test]
    fn aifs_defer_thins_the_deferring_node() {
        // Same windows; node 3 defers 2 idle slots. It must attempt less
        // often than its equal-window peers, and strictly less than it
        // would in the equal-AIFS network.
        let base = SimConfig::builder().symmetric(4, 32).seed(9).build().unwrap();
        let cfg =
            SimConfig::builder().symmetric(4, 32).aifs(vec![0, 0, 0, 2]).seed(9).build().unwrap();
        let rb = Engine::new(&base).run_slots(200_000);
        let rd = Engine::new(&cfg).run_slots(200_000);
        assert!(
            rd.tau_hat(3) < 0.8 * rd.tau_hat(0),
            "deferring node τ̂ {} vs peer τ̂ {}",
            rd.tau_hat(3),
            rd.tau_hat(0)
        );
        assert!(rd.tau_hat(3) < rb.tau_hat(3));
        // The favored nodes see less contention than at equal AIFS.
        assert!(rd.p_hat(0) < rb.p_hat(0));
    }

    #[test]
    fn txop_bursts_extend_successful_slots_only() {
        let p = DcfParams::default();
        let cfg =
            SimConfig::builder().symmetric(3, 32).txop(vec![4, 1, 1]).seed(13).build().unwrap();
        let mut e = Engine::new(&cfg);
        let mut expect = 0.0f64;
        let t = p.timings();
        for _ in 0..50_000 {
            let outcome = e.step();
            expect += match outcome {
                SlotOutcome::Idle => p.sigma().value(),
                SlotOutcome::Success { node } | SlotOutcome::Capture { winner: node, .. } => {
                    p.txop_success_time(if node == 0 { 4 } else { 1 }).value()
                }
                SlotOutcome::ChannelError { .. } => t.success_time.value(),
                SlotOutcome::Collision { .. } => t.collision_time.value(),
            };
        }
        assert!((e.clock.value() - expect).abs() < 1e-6);
        // The burst does not change contention: τ̂ is window-driven, so
        // all three equal-window nodes attempt at similar rates.
        let r = Engine::new(&cfg).run_slots(200_000);
        let rel = (r.tau_hat(0) - r.tau_hat(1)).abs() / r.tau_hat(1);
        assert!(rel < 0.1, "τ̂₀ {} vs τ̂₁ {}", r.tau_hat(0), r.tau_hat(1));
    }

    #[test]
    fn noop_faults_are_bitwise_identical_to_no_faults() {
        let config = SimConfig::builder().symmetric(5, 32).seed(21).build().unwrap();
        let mut plain = Engine::new(&config);
        let mut faulted = Engine::with_faults(&config, ChannelFaults::noop()).unwrap();
        assert!(faulted.faults.is_none());
        for _ in 0..5_000 {
            assert_eq!(plain.step(), faulted.step());
        }
        assert_eq!(plain.clock, faulted.clock);
        let ra = plain.run_slots(20_000);
        let rb = faulted.run_slots(20_000);
        assert_eq!(ra, rb);
        assert_eq!(faulted.channel_error_count(), 0);
        assert_eq!(faulted.capture_count(), 0);
    }

    #[test]
    fn fault_injection_is_seed_deterministic() {
        let config = SimConfig::builder().symmetric(4, 16).seed(3).build().unwrap();
        let faults = ChannelFaults::new(0.1, 0.3, 17).unwrap();
        let mut a = Engine::with_faults(&config, faults).unwrap();
        let mut b = Engine::with_faults(&config, faults).unwrap();
        for _ in 0..10_000 {
            assert_eq!(a.step(), b.step());
        }
        assert_eq!(a.channel_error_count(), b.channel_error_count());
        assert_eq!(a.capture_count(), b.capture_count());
        assert!(a.channel_error_count() > 0, "error rate 0.1 must fire in 10k slots");
        assert!(a.capture_count() > 0, "capture prob 0.3 must fire in 10k slots");
    }

    #[test]
    fn certain_channel_error_kills_every_lone_transmission() {
        let config = SimConfig::builder().symmetric(3, 16).seed(6).build().unwrap();
        let faults = ChannelFaults::new(1.0, 0.0, 1).unwrap();
        let mut e = Engine::with_faults(&config, faults).unwrap();
        let r = e.run_slots(20_000);
        // Every would-be success is corrupted: nothing is ever delivered.
        assert_eq!(r.channel.success, 0);
        assert!(e.channel_error_count() > 0);
        assert_eq!(e.capture_count(), 0);
        let delivered: u64 = r.node_stats.iter().map(|s| s.successes).sum();
        assert_eq!(delivered, 0);
    }

    #[test]
    fn certain_capture_turns_collisions_into_deliveries() {
        let config = SimConfig::builder().symmetric(4, 4).seed(10).build().unwrap();
        let faults = ChannelFaults::new(0.0, 1.0, 2).unwrap();
        let mut e = Engine::with_faults(&config, faults).unwrap();
        let mut captures = 0u64;
        let mut winners_deliver = true;
        for _ in 0..20_000 {
            if let SlotOutcome::Capture { winner, transmitters } = e.step() {
                captures += 1;
                winners_deliver &= transmitters >= 2 && winner < 4;
            }
        }
        assert!(captures > 0, "W=4 with 4 nodes must collide, and every collision captures");
        assert!(winners_deliver);
        assert_eq!(e.capture_count(), captures);
    }

    #[test]
    fn with_faults_rejects_invalid_rates() {
        let config = SimConfig::builder().symmetric(2, 8).seed(1).build().unwrap();
        let bad = ChannelFaults { error_rate: 1.5, capture_prob: 0.0, seed: 0 };
        assert!(Engine::with_faults(&config, bad).is_err());
        let nan = ChannelFaults { error_rate: 0.0, capture_prob: f64::NAN, seed: 0 };
        assert!(Engine::with_faults(&config, nan).is_err());
    }

    #[test]
    fn poisson_light_load_delivers_offered_traffic() {
        use crate::traffic::TrafficModel;
        // 3 nodes at 2 packets/s each: offered load is a few percent of
        // the channel — everything should get through with few collisions.
        let config = SimConfig::builder()
            .symmetric(3, 32)
            .traffic(TrafficModel::Poisson { packets_per_second: 2.0 })
            .seed(77)
            .build()
            .unwrap();
        let mut e = Engine::new(&config);
        let r = e.run_for(MicroSecs::from_seconds(100.0));
        let delivered: u64 = r.node_stats.iter().map(|s| s.successes).sum();
        let offered: u64 = (0..3).map(|i| e.total_arrivals(i)).sum();
        let backlog: u64 = (0..3).map(|i| e.queue_len(i)).sum();
        // Conservation: every arrival is delivered or still queued.
        assert_eq!(offered, delivered + backlog);
        // Light load: backlog negligible, delivery ≈ offered ≈ 100 s × 6/s.
        assert!(backlog < 5, "backlog {backlog}");
        assert!((delivered as f64 - 600.0).abs() < 80.0, "delivered {delivered}");
        // And the channel is mostly idle.
        assert!(r.channel.idle > 50 * (r.channel.success + r.channel.collision));
    }

    #[test]
    fn poisson_heavy_load_approaches_saturation() {
        use crate::traffic::TrafficModel;
        // Offered load far beyond capacity: τ̂ should match the saturated
        // run with the same windows.
        let mk = |traffic| {
            let config =
                SimConfig::builder().symmetric(4, 32).traffic(traffic).seed(5).build().unwrap();
            let mut e = Engine::new(&config);
            e.run_slots(200_000)
        };
        let saturated = mk(TrafficModel::Saturated);
        let flooded = mk(TrafficModel::Poisson { packets_per_second: 1000.0 });
        for i in 0..4 {
            let rel = (saturated.tau_hat(i) - flooded.tau_hat(i)).abs() / saturated.tau_hat(i);
            assert!(
                rel < 0.05,
                "node {i}: saturated τ̂ {} vs flooded τ̂ {}",
                saturated.tau_hat(i),
                flooded.tau_hat(i)
            );
        }
    }

    #[test]
    fn poisson_silent_network_stays_idle() {
        use crate::traffic::TrafficModel;
        let config = SimConfig::builder()
            .symmetric(3, 8)
            .traffic(TrafficModel::Poisson { packets_per_second: 0.0 })
            .seed(1)
            .build()
            .unwrap();
        let mut e = Engine::new(&config);
        let r = e.run_slots(5_000);
        assert_eq!(r.channel.success + r.channel.collision, 0);
        assert_eq!(r.channel.idle, 5_000);
    }

    #[test]
    fn measured_service_interval_tracks_analytic_delay() {
        // Mean slots between successes ≈ the chain's predicted mean access
        // slots at the fixed point.
        use macgame_dcf::delay::mean_access_slots;
        let p = DcfParams::default();
        let (n, w) = (5usize, 64u32);
        let sym = solve_symmetric(n, w, &p).unwrap();
        let mut e = engine(n, w, 2024);
        let _ = e.run_slots(400_000);
        let predicted = mean_access_slots(w, sym.collision_prob, p.max_backoff_stage()).unwrap();
        for i in 0..n {
            let measured = e.delay.mean_slots(i).expect("plenty of samples");
            let rel = (measured - predicted).abs() / predicted;
            assert!(
                rel < 0.1,
                "node {i}: measured {measured:.1} slots vs predicted {predicted:.1}"
            );
        }
        // Channel-time delay is the slot count scaled by the mean slot.
        let d = e.mean_access_delay(0).unwrap();
        assert!(d.value() > 0.0);
    }

    #[test]
    fn stage_report_payoff_consistent_with_utility_model() {
        // Measured payoff rate ≈ analytic u_i at the same operating point.
        use macgame_dcf::utility::{node_utility, UtilityParams};
        let p = DcfParams::default();
        let n = 5;
        let w = 76;
        let sym = solve_symmetric(n, w, &p).unwrap();
        let analytic = node_utility(
            0,
            &vec![sym.tau; n],
            &vec![sym.collision_prob; n],
            &p,
            &UtilityParams::default(),
        );
        let mut e = engine(n, w, 99);
        let r = e.run_slots(400_000);
        let measured = r.payoff_rate(0, &UtilityParams::default());
        let rel = (measured - analytic).abs() / analytic;
        assert!(rel < 0.08, "measured {measured} vs analytic {analytic}");
    }
}
