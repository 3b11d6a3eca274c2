//! Planar geometry for node placement.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A point in the simulation plane (meters).
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// X coordinate in meters.
    pub x: f64,
    /// Y coordinate in meters.
    pub y: f64,
}

impl Point {
    /// Euclidean distance to `other`.
    #[must_use]
    pub fn distance_to(&self, other: &Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Moves `step` meters toward `target`, stopping exactly at it if
    /// closer than `step`.
    #[must_use]
    pub fn step_toward(&self, target: &Point, step: f64) -> Point {
        let d = self.distance_to(target);
        if d <= step || d == 0.0 {
            *target
        } else {
            let f = step / d;
            Point { x: self.x + (target.x - self.x) * f, y: self.y + (target.y - self.y) * f }
        }
    }
}

impl core::fmt::Display for Point {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

/// The rectangular simulation arena `[0, width] × [0, height]` (meters).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Arena {
    /// Width in meters.
    pub width: f64,
    /// Height in meters.
    pub height: f64,
}

impl Arena {
    /// Creates an arena.
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are positive and finite.
    #[must_use]
    pub fn new(width: f64, height: f64) -> Self {
        assert!(width > 0.0 && width.is_finite(), "arena width must be positive"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        assert!(height > 0.0 && height.is_finite(), "arena height must be positive"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        Arena { width, height }
    }

    /// The paper's 1000 m × 1000 m area.
    #[must_use]
    pub fn paper() -> Self {
        Arena::new(1000.0, 1000.0)
    }

    /// Whether `p` lies inside the arena (inclusive).
    #[must_use]
    pub fn contains(&self, p: &Point) -> bool {
        (0.0..=self.width).contains(&p.x) && (0.0..=self.height).contains(&p.y)
    }

    /// A uniformly random point inside the arena.
    #[must_use]
    pub fn random_point(&self, rng: &mut impl Rng) -> Point {
        Point { x: rng.gen_range(0.0..=self.width), y: rng.gen_range(0.0..=self.height) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn distance_is_euclidean() {
        let a = Point { x: 0.0, y: 0.0 };
        let b = Point { x: 3.0, y: 4.0 };
        assert!((a.distance_to(&b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance_to(&a), 0.0);
    }

    #[test]
    fn step_toward_moves_proportionally() {
        let a = Point { x: 0.0, y: 0.0 };
        let b = Point { x: 10.0, y: 0.0 };
        let mid = a.step_toward(&b, 4.0);
        assert!((mid.x - 4.0).abs() < 1e-12 && mid.y.abs() < 1e-12);
        // Overshoot clamps at the target.
        let end = a.step_toward(&b, 50.0);
        assert_eq!(end, b);
        // Zero-distance degenerate case.
        assert_eq!(a.step_toward(&a, 1.0), a);
    }

    #[test]
    fn random_points_stay_inside() {
        let arena = Arena::paper();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(arena.contains(&arena.random_point(&mut rng)));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn degenerate_arena_rejected() {
        let _ = Arena::new(0.0, 10.0);
    }
}
