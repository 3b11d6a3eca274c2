//! The per-node binary-exponential-backoff state machine.
//!
//! This is the *operational* counterpart of the analytical Markov chain in
//! `macgame_dcf::markov`: a saturated node holds a backoff stage `j` and a
//! residual counter drawn uniformly from `[0, 2^j·W − 1]`; it transmits when
//! the counter reaches zero, resets to stage 0 on success, and doubles its
//! window (up to stage `m`) on collision.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Lifetime transmission statistics of one node.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeStats {
    /// Slots in which the node transmitted (successes + collisions).
    pub attempts: u64,
    /// Successful transmissions.
    pub successes: u64,
    /// Transmissions that collided.
    pub collisions: u64,
}

impl NodeStats {
    /// Empirical per-slot transmission probability given the observed slot
    /// count, `τ̂ = attempts / slots`.
    #[must_use]
    pub fn tau_hat(&self, slots: u64) -> f64 {
        if slots == 0 {
            0.0
        } else {
            self.attempts as f64 / slots as f64
        }
    }

    /// Empirical conditional collision probability,
    /// `p̂ = collisions / attempts`.
    #[must_use]
    pub fn p_hat(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.collisions as f64 / self.attempts as f64
        }
    }

    /// Component-wise difference (for per-stage deltas).
    #[must_use]
    pub fn delta_since(&self, earlier: &NodeStats) -> NodeStats {
        NodeStats {
            attempts: self.attempts - earlier.attempts,
            successes: self.successes - earlier.successes,
            collisions: self.collisions - earlier.collisions,
        }
    }
}

/// A saturated 802.11 node running binary exponential backoff.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    window: u32,
    max_stage: u32,
    stage: u32,
    counter: u32,
    stats: NodeStats,
}

impl Node {
    /// Creates a node with initial window `window` and maximum backoff
    /// stage `max_stage`, drawing its first backoff from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn new(window: u32, max_stage: u32, rng: &mut impl Rng) -> Self {
        assert!(window >= 1, "contention window must be at least 1"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        let mut node =
            Node { window, max_stage, stage: 0, counter: 0, stats: NodeStats::default() };
        node.counter = node.draw_backoff(rng);
        node
    }

    /// The node's configured initial contention window.
    #[must_use]
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Residual backoff counter.
    #[must_use]
    pub fn counter(&self) -> u32 {
        self.counter
    }

    /// Lifetime statistics.
    #[must_use]
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Contention window at the current stage, `2^j·W`.
    #[must_use]
    pub fn current_window(&self) -> u32 {
        self.window << self.stage
    }

    /// Reconfigures the node's initial window (a strategy move between game
    /// stages). Resets the backoff stage so the new window takes effect
    /// immediately; accumulated statistics are preserved.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn set_window(&mut self, window: u32, rng: &mut impl Rng) {
        assert!(window >= 1, "contention window must be at least 1"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        self.window = window;
        self.stage = 0;
        self.counter = self.draw_backoff(rng);
    }

    fn draw_backoff(&self, rng: &mut impl Rng) -> u32 {
        rng.gen_range(0..self.current_window())
    }

    /// Whether the node transmits in the current slot.
    #[must_use]
    pub fn wants_to_transmit(&self) -> bool {
        self.counter == 0
    }

    /// Advances through an idle-or-foreign-busy slot: the counter
    /// decrements by one (802.11 nodes freeze during busy periods, but in
    /// the Bianchi slot abstraction every channel event is one counter
    /// step).
    ///
    /// # Panics
    ///
    /// Panics if called while the node wants to transmit (counter is 0);
    /// the engine must resolve the transmission instead.
    pub fn observe_slot(&mut self) {
        assert!(self.counter > 0, "transmitting node cannot observe a slot"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        self.counter -= 1;
    }

    /// Records a successful transmission: stats update, stage reset, fresh
    /// stage-0 backoff for the next (immediately available) packet.
    ///
    /// # Panics
    ///
    /// Panics if the node was not due to transmit.
    pub fn on_success(&mut self, rng: &mut impl Rng) {
        assert!(self.wants_to_transmit(), "success without transmission"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        self.stats.attempts += 1;
        self.stats.successes += 1;
        self.stage = 0;
        self.counter = self.draw_backoff(rng);
    }

    /// Records a collided transmission: stats update, stage escalation
    /// (capped at `m`), fresh backoff from the doubled window.
    ///
    /// # Panics
    ///
    /// Panics if the node was not due to transmit.
    pub fn on_collision(&mut self, rng: &mut impl Rng) {
        assert!(self.wants_to_transmit(), "collision without transmission"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        self.stats.attempts += 1;
        self.stats.collisions += 1;
        if self.stage < self.max_stage {
            self.stage += 1;
        }
        self.counter = self.draw_backoff(rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    #[test]
    fn initial_backoff_within_window() {
        let mut r = rng();
        for _ in 0..100 {
            let node = Node::new(16, 5, &mut r);
            assert!(node.counter() < 16);
            assert_eq!(node.stage, 0);
        }
    }

    #[test]
    fn window_one_always_transmits_at_stage_zero() {
        let mut r = rng();
        let node = Node::new(1, 5, &mut r);
        assert!(node.wants_to_transmit());
    }

    #[test]
    fn collision_escalates_and_caps() {
        let mut r = rng();
        let mut node = Node::new(4, 2, &mut r);
        for expect_stage in [1u32, 2, 2, 2] {
            // Force the node to a transmit state, then collide it.
            while !node.wants_to_transmit() {
                node.observe_slot();
            }
            node.on_collision(&mut r);
            assert_eq!(node.stage, expect_stage);
            assert!(node.counter() < node.current_window());
        }
        assert_eq!(node.current_window(), 16);
        assert_eq!(node.stats().collisions, 4);
    }

    #[test]
    fn success_resets_stage() {
        let mut r = rng();
        let mut node = Node::new(4, 3, &mut r);
        while !node.wants_to_transmit() {
            node.observe_slot();
        }
        node.on_collision(&mut r);
        while !node.wants_to_transmit() {
            node.observe_slot();
        }
        node.on_success(&mut r);
        assert_eq!(node.stage, 0);
        assert_eq!(node.stats().successes, 1);
        assert_eq!(node.stats().attempts, 2);
    }

    #[test]
    fn set_window_resets_stage_keeps_stats() {
        let mut r = rng();
        let mut node = Node::new(4, 3, &mut r);
        while !node.wants_to_transmit() {
            node.observe_slot();
        }
        node.on_collision(&mut r);
        node.set_window(64, &mut r);
        assert_eq!(node.window(), 64);
        assert_eq!(node.stage, 0);
        assert!(node.counter() < 64);
        assert_eq!(node.stats().collisions, 1);
    }

    #[test]
    fn stats_estimators() {
        let s = NodeStats { attempts: 10, successes: 7, collisions: 3 };
        assert!((s.tau_hat(100) - 0.1).abs() < 1e-12);
        assert!((s.p_hat() - 0.3).abs() < 1e-12);
        assert_eq!(NodeStats::default().tau_hat(0), 0.0);
        assert_eq!(NodeStats::default().p_hat(), 0.0);
    }

    #[test]
    fn stats_delta() {
        let early = NodeStats { attempts: 5, successes: 4, collisions: 1 };
        let late = NodeStats { attempts: 12, successes: 9, collisions: 3 };
        let d = late.delta_since(&early);
        assert_eq!(d, NodeStats { attempts: 7, successes: 5, collisions: 2 });
    }

    #[test]
    #[should_panic(expected = "transmitting node")]
    fn observe_slot_at_zero_panics() {
        let mut r = rng();
        let mut node = Node::new(8, 5, &mut r);
        while !node.wants_to_transmit() {
            node.observe_slot();
        }
        node.observe_slot();
    }
}
