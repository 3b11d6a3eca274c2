//! The random waypoint mobility model (paper Section VII.B).
//!
//! Each node picks a uniformly random waypoint in the arena and a speed
//! drawn uniformly from the configured range, walks there in a straight
//! line, optionally pauses, then repeats. The paper's scenario: 100 nodes,
//! 1000 m × 1000 m, speeds `U[0, 5]` m/s, no pause.

use macgame_dcf::MicroSecs;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::geometry::{Arena, Point};

/// Minimum speed floor (m/s) to avoid the well-known random-waypoint decay
/// pathology where a node draws speed ≈ 0 and freezes forever.
const SPEED_FLOOR: f64 = 1e-3;

/// Random-waypoint configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WaypointConfig {
    /// The arena nodes roam in.
    pub arena: Arena,
    /// Minimum speed (m/s).
    pub min_speed: f64,
    /// Maximum speed (m/s).
    pub max_speed: f64,
    /// Pause at each waypoint.
    pub pause: MicroSecs,
}

impl WaypointConfig {
    /// The paper's mobility parameters: 1 km², `U[0, 5]` m/s, no pause.
    #[must_use]
    pub fn paper() -> Self {
        WaypointConfig {
            arena: Arena::paper(),
            min_speed: 0.0,
            max_speed: 5.0,
            pause: MicroSecs::ZERO,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct MobileState {
    position: Point,
    waypoint: Point,
    /// Meters per second.
    speed: f64,
    pause_left: MicroSecs,
}

/// A population of nodes moving under random waypoint.
#[derive(Debug, Clone)]
pub struct Mobility {
    config: WaypointConfig,
    states: Vec<MobileState>,
    rng: ChaCha8Rng,
}

impl Mobility {
    /// Places `n` nodes uniformly at random and draws their first
    /// waypoints, deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the speed range is invalid (negative bounds or
    /// `min > max`).
    #[must_use]
    pub fn new(n: usize, config: WaypointConfig, seed: u64) -> Self {
        assert!(n > 0, "need at least one node"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        assert!(
            // PANIC-POLICY: documented # Panics contract (programmer-error guard)
            config.min_speed >= 0.0 && config.max_speed >= config.min_speed,
            "invalid speed range"
        );
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let states = (0..n)
            .map(|_| {
                let position = config.arena.random_point(&mut rng);
                let waypoint = config.arena.random_point(&mut rng);
                let speed = draw_speed(&config, &mut rng);
                MobileState { position, waypoint, speed, pause_left: MicroSecs::ZERO }
            })
            .collect();
        Mobility { config, states, rng }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the population is empty (never true by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Current positions.
    #[must_use]
    pub fn positions(&self) -> Vec<Point> {
        self.states.iter().map(|s| s.position).collect()
    }

    /// Advances every node by `dt` of simulated time.
    pub fn step(&mut self, dt: MicroSecs) {
        let dt_secs = dt.to_seconds();
        for state in &mut self.states {
            let mut remaining = dt_secs;
            while remaining > 0.0 {
                if state.pause_left.value() > 0.0 {
                    let pause_secs = state.pause_left.to_seconds();
                    if pause_secs >= remaining {
                        state.pause_left = MicroSecs::from_seconds(pause_secs - remaining);
                        remaining = 0.0;
                    } else {
                        state.pause_left = MicroSecs::ZERO;
                        remaining -= pause_secs;
                    }
                    continue;
                }
                let to_waypoint = state.position.distance_to(&state.waypoint);
                let reach_time = to_waypoint / state.speed;
                if reach_time > remaining {
                    state.position =
                        state.position.step_toward(&state.waypoint, state.speed * remaining);
                    remaining = 0.0;
                } else {
                    state.position = state.waypoint;
                    remaining -= reach_time;
                    state.pause_left = self.config.pause;
                    state.waypoint = self.config.arena.random_point(&mut self.rng);
                    state.speed = draw_speed(&self.config, &mut self.rng);
                }
            }
        }
    }
}

fn draw_speed(config: &WaypointConfig, rng: &mut impl Rng) -> f64 {
    rng.gen_range(config.min_speed..=config.max_speed).max(SPEED_FLOOR)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_remain_in_arena() {
        let mut m = Mobility::new(50, WaypointConfig::paper(), 7);
        for _ in 0..100 {
            m.step(MicroSecs::from_seconds(10.0));
            for p in m.positions() {
                assert!(WaypointConfig::paper().arena.contains(&p), "escaped to {p}");
            }
        }
    }

    #[test]
    fn nodes_actually_move() {
        let mut m = Mobility::new(20, WaypointConfig::paper(), 3);
        let before = m.positions();
        m.step(MicroSecs::from_seconds(60.0));
        let after = m.positions();
        let moved = before.iter().zip(&after).filter(|(a, b)| a.distance_to(b) > 1.0).count();
        assert!(moved > 15, "only {moved} nodes moved");
    }

    #[test]
    fn displacement_bounded_by_max_speed() {
        let mut m = Mobility::new(30, WaypointConfig::paper(), 11);
        let before = m.positions();
        m.step(MicroSecs::from_seconds(10.0));
        let after = m.positions();
        for (a, b) in before.iter().zip(&after) {
            // Straight-line displacement cannot exceed max_speed·dt (even
            // across waypoint changes the path length bounds it).
            assert!(a.distance_to(b) <= 5.0 * 10.0 + 1e-9);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Mobility::new(10, WaypointConfig::paper(), 5);
        let mut b = Mobility::new(10, WaypointConfig::paper(), 5);
        a.step(MicroSecs::from_seconds(100.0));
        b.step(MicroSecs::from_seconds(100.0));
        assert_eq!(a.positions(), b.positions());
    }

    #[test]
    fn pause_holds_nodes_at_waypoints() {
        let config = WaypointConfig {
            arena: Arena::new(10.0, 10.0),
            min_speed: 5.0,
            max_speed: 5.0,
            pause: MicroSecs::from_seconds(1_000_000.0),
        };
        let mut m = Mobility::new(5, config, 9);
        // After enough time every node has reached a waypoint and paused
        // (pause far exceeds any travel time in a 10 m arena).
        m.step(MicroSecs::from_seconds(30.0));
        let at_pause = m.positions();
        m.step(MicroSecs::from_seconds(30.0));
        assert_eq!(at_pause, m.positions());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_population_rejected() {
        let _ = Mobility::new(0, WaypointConfig::paper(), 0);
    }
}
