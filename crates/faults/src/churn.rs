//! Deterministic node-churn schedules for multi-hop dynamics.
//!
//! Section VI of the paper assumes a fixed player set while TFT
//! min-propagation converges. Mobile ad hoc networks do not cooperate:
//! nodes power down, move out of range, rejoin, and reset their MAC
//! state. A [`ChurnSchedule`] is an explicit, validated, seed-derivable
//! list of such events that convergence dynamics can replay
//! deterministically.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::FaultError;

/// What happens to a node at a scheduled round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnKind {
    /// The node leaves the network: it stops playing and becomes
    /// invisible to its neighbors.
    Leave,
    /// The node (re)joins with the given initial window.
    Join {
        /// Window the node starts playing on arrival.
        window: u32,
    },
    /// The node stays but resets its window mid-game (e.g. a MAC-layer
    /// restart), forgetting everything it had converged to.
    Reset {
        /// Window the node restarts from.
        window: u32,
    },
}

/// One scheduled churn event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// Round (0-based) at the start of which the event applies.
    pub round: usize,
    /// Affected node index.
    pub node: usize,
    /// What happens.
    pub kind: ChurnKind,
}

/// A validated, round-ordered list of churn events.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ChurnSchedule {
    events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// Builds a schedule from `events`, sorting by round (stable: events
    /// in the same round keep their given order).
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidParameter`] if any event names a node
    /// `≥ nodes` or carries a zero window.
    pub fn new(mut events: Vec<ChurnEvent>, nodes: usize) -> Result<Self, FaultError> {
        for e in &events {
            if e.node >= nodes {
                return Err(FaultError::invalid(
                    "events",
                    format!("event names node {} but the network has {nodes}", e.node),
                ));
            }
            let window = match e.kind {
                ChurnKind::Join { window } | ChurnKind::Reset { window } => Some(window),
                ChurnKind::Leave => None,
            };
            if window == Some(0) {
                return Err(FaultError::invalid("events", "windows must be at least 1"));
            }
        }
        events.sort_by_key(|e| e.round);
        Ok(ChurnSchedule { events })
    }

    /// A deterministic random schedule: over `rounds` rounds, each round
    /// fires an event with probability `rate`, alternating leave /
    /// rejoin / reset pressure across the `nodes` population. Windows for
    /// joins and resets are drawn from `[1, w_max]`.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidParameter`] for an empty network, a
    /// non-probability `rate`, or `w_max == 0`.
    pub fn random(
        nodes: usize,
        rounds: usize,
        rate: f64,
        w_max: u32,
        seed: u64,
    ) -> Result<Self, FaultError> {
        if nodes == 0 {
            return Err(FaultError::invalid("nodes", "need at least one node"));
        }
        if w_max == 0 {
            return Err(FaultError::invalid("w_max", "must be at least 1"));
        }
        crate::require_probability("rate", rate)?;
        let mut rng = crate::rng::stream_rng(seed, "churn", 0);
        let mut events = Vec::new();
        let mut away: Vec<usize> = Vec::new();
        for round in 1..=rounds {
            if rate == 0.0 || !rng.gen_bool(rate) {
                continue;
            }
            let node = rng.gen_range(0..nodes);
            let kind = match rng.gen_range(0..3u32) {
                // Prefer rejoining someone who is away; otherwise reset.
                0 if !away.is_empty() => {
                    let idx = rng.gen_range(0..away.len());
                    let node = away.swap_remove(idx);
                    let window = rng.gen_range(1..=w_max);
                    events.push(ChurnEvent { round, node, kind: ChurnKind::Join { window } });
                    continue;
                }
                1 if !away.contains(&node) => {
                    away.push(node);
                    ChurnKind::Leave
                }
                _ => ChurnKind::Reset { window: rng.gen_range(1..=w_max) },
            };
            events.push(ChurnEvent { round, node, kind });
        }
        ChurnSchedule::new(events, nodes)
    }

    /// The events, sorted by round.
    #[must_use]
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Whether the schedule is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The last scheduled round, if any event exists.
    #[must_use]
    pub fn last_round(&self) -> Option<usize> {
        self.events.last().map(|e| e.round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_nodes_and_windows() {
        let bad_node = vec![ChurnEvent { round: 1, node: 5, kind: ChurnKind::Leave }];
        assert!(ChurnSchedule::new(bad_node, 3).is_err());
        let bad_window =
            vec![ChurnEvent { round: 1, node: 0, kind: ChurnKind::Join { window: 0 } }];
        assert!(ChurnSchedule::new(bad_window, 3).is_err());
    }

    #[test]
    fn events_are_sorted_by_round() {
        let events = vec![
            ChurnEvent { round: 5, node: 0, kind: ChurnKind::Leave },
            ChurnEvent { round: 2, node: 1, kind: ChurnKind::Reset { window: 8 } },
        ];
        let schedule = ChurnSchedule::new(events, 2).unwrap();
        assert_eq!(schedule.events()[0].round, 2);
        assert_eq!(schedule.last_round(), Some(5));
    }

    #[test]
    fn random_schedule_is_seed_deterministic() {
        let a = ChurnSchedule::random(10, 50, 0.4, 128, 7).unwrap();
        let b = ChurnSchedule::random(10, 50, 0.4, 128, 7).unwrap();
        assert_eq!(a, b);
        let c = ChurnSchedule::random(10, 50, 0.4, 128, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn zero_rate_schedule_is_empty() {
        let s = ChurnSchedule::random(10, 50, 0.0, 128, 7).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn random_schedule_validation() {
        assert!(ChurnSchedule::random(0, 10, 0.5, 64, 1).is_err());
        assert!(ChurnSchedule::random(5, 10, 1.5, 64, 1).is_err());
        assert!(ChurnSchedule::random(5, 10, 0.5, 0, 1).is_err());
    }
}
