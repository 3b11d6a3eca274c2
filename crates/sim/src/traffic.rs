//! Traffic models: saturated (the paper's assumption) and Poisson
//! arrivals with per-node queues.
//!
//! The paper analyzes the *saturated* regime — every node always has a
//! packet. Relaxing that is the first question any adopter asks, so the
//! simulator also offers Poisson packet arrivals: a node contends only
//! while its queue is non-empty, and draws a fresh stage-0 backoff when a
//! packet arrives to an empty queue.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Per-node traffic generation model.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrafficModel {
    /// Every node always has a packet to send (paper Section III).
    #[default]
    Saturated,
    /// Poisson packet arrivals, independently per node.
    Poisson {
        /// Mean arrivals per second per node.
        packets_per_second: f64,
    },
}

impl TrafficModel {
    /// Whether this model keeps queues permanently backlogged.
    #[must_use]
    pub fn is_saturated(&self) -> bool {
        matches!(self, TrafficModel::Saturated)
    }

    /// Samples the number of arrivals within `dt_us` microseconds.
    ///
    /// Uses Knuth's product method — exact, and fast for the per-slot
    /// means involved here (λ ≤ a few).
    ///
    /// # Panics
    ///
    /// Panics if a Poisson rate is negative or not finite.
    #[must_use]
    pub fn sample_arrivals(&self, dt_us: f64, rng: &mut impl Rng) -> u64 {
        match *self {
            TrafficModel::Saturated => 0,
            TrafficModel::Poisson { packets_per_second } => {
                // PANIC-POLICY: documented # Panics contract (programmer-error guard)
                assert!(
                    packets_per_second.is_finite() && packets_per_second >= 0.0,
                    "arrival rate must be finite and non-negative"
                );
                let lambda = packets_per_second * dt_us * 1e-6;
                if lambda == 0.0 {
                    return 0;
                }
                let threshold = (-lambda).exp();
                let mut k = 0u64;
                let mut product: f64 = 1.0;
                loop {
                    product *= rng.gen::<f64>();
                    if product <= threshold {
                        return k;
                    }
                    k += 1;
                    // λ per slot is tiny; this bound is unreachable in
                    // practice but keeps the loop provably finite.
                    if k > 1_000_000 {
                        return k;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn saturated_generates_nothing() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(TrafficModel::Saturated.sample_arrivals(1e6, &mut rng), 0);
        assert!(TrafficModel::Saturated.is_saturated());
    }

    #[test]
    fn poisson_mean_matches_rate() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let model = TrafficModel::Poisson { packets_per_second: 50.0 };
        let dt = 10_000.0; // 10 ms ⇒ λ = 0.5
        let n = 20_000;
        let total: u64 = (0..n).map(|_| model.sample_arrivals(dt, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn poisson_variance_matches_mean() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let model = TrafficModel::Poisson { packets_per_second: 100.0 };
        let dt = 20_000.0; // λ = 2
        let n = 20_000;
        let samples: Vec<u64> = (0..n).map(|_| model.sample_arrivals(dt, &mut rng)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / n as f64;
        let var = samples.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - mean).abs() / mean < 0.1, "var {var} vs mean {mean}");
    }

    #[test]
    fn zero_rate_is_silent() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let model = TrafficModel::Poisson { packets_per_second: 0.0 };
        assert_eq!(model.sample_arrivals(1e9, &mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "arrival rate")]
    fn negative_rate_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let _ = TrafficModel::Poisson { packets_per_second: -1.0 }.sample_arrivals(1.0, &mut rng);
    }
}
