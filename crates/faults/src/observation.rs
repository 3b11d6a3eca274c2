//! Noisy-observation channel for contention-window estimates.
//!
//! Strategies like TFT and Generous TFT act on *estimates* of their
//! peers' windows, obtained by overhearing traffic. This module models
//! the estimation error explicitly: multiplicative noise (proportional
//! estimation error), additive noise (quantization/offset error), stale
//! reads (a node repeats its previous estimate) and dropped observations
//! (no estimate at all this stage — the previous one, or the prior
//! belief, is carried forward).

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::{require_probability, FaultError};

/// Configuration of the noisy-observation channel.
///
/// All-zero parameters make the channel a no-op ([`Self::is_noop`]): the
/// perturbation path is skipped entirely and no randomness is drawn, so
/// a zero-rate channel is bitwise identical to having no channel at all.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObservationFaults {
    /// Relative multiplicative noise amplitude `a ≥ 0`: a true window `W`
    /// is observed as `W·(1 + ε)` with `ε ~ U[−a, a]`.
    pub multiplicative: f64,
    /// Absolute additive noise amplitude `b ≥ 0` (in window units):
    /// adds `U[−b, b]` after the multiplicative term.
    pub additive: f64,
    /// Probability a stage's observation of a node is *stale*: the
    /// previous stage's estimate is reported again.
    pub stale_prob: f64,
    /// Probability a stage's observation of a node is *dropped*: the
    /// previous estimate (or, if none exists, the true value) is kept.
    pub drop_prob: f64,
    /// Base seed of the channel's private ChaCha8 stream.
    pub seed: u64,
}

impl ObservationFaults {
    /// A validated fault configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidParameter`] when an amplitude is
    /// negative or non-finite, when `stale_prob`/`drop_prob` are not
    /// probabilities, or when `multiplicative ≥ 1` (which could drive
    /// every observation to the `W = 1` floor and make the channel
    /// degenerate).
    pub fn new(
        multiplicative: f64,
        additive: f64,
        stale_prob: f64,
        drop_prob: f64,
        seed: u64,
    ) -> Result<Self, FaultError> {
        if !multiplicative.is_finite() || !(0.0..1.0).contains(&multiplicative) {
            return Err(FaultError::invalid("multiplicative", "must be in [0, 1)"));
        }
        if !additive.is_finite() || additive < 0.0 {
            return Err(FaultError::invalid("additive", "must be finite and non-negative"));
        }
        require_probability("stale_prob", stale_prob)?;
        require_probability("drop_prob", drop_prob)?;
        Ok(ObservationFaults { multiplicative, additive, stale_prob, drop_prob, seed })
    }

    /// A channel that never perturbs anything (and never draws).
    #[must_use]
    pub fn noop() -> Self {
        ObservationFaults {
            multiplicative: 0.0,
            additive: 0.0,
            stale_prob: 0.0,
            drop_prob: 0.0,
            seed: 0,
        }
    }

    /// Pure multiplicative noise of amplitude `a`, the regime the paper's
    /// Generous TFT tolerance `β` is calibrated against.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidParameter`] unless `a ∈ [0, 1)`.
    pub fn noise(a: f64, seed: u64) -> Result<Self, FaultError> {
        Self::new(a, 0.0, 0.0, 0.0, seed)
    }

    /// Whether every fault rate is zero — the channel injects nothing.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.multiplicative == 0.0
            && self.additive == 0.0
            && self.stale_prob == 0.0
            && self.drop_prob == 0.0
    }
}

/// A stateful observation channel: owns the fault stream and the
/// previous-estimate memory needed for stale/dropped reads.
///
/// One channel models the shared promiscuous-mode observation of one
/// game; call [`Self::observe`] once per stage with the true profile.
#[derive(Debug, Clone)]
pub struct ObservationChannel {
    faults: ObservationFaults,
    rng: ChaCha8Rng,
    previous: Vec<Option<u32>>,
}

impl ObservationChannel {
    /// A channel for `nodes` observed nodes under `faults`.
    #[must_use]
    pub fn new(faults: ObservationFaults, nodes: usize) -> Self {
        let rng = crate::rng::stream_rng(faults.seed, "observation", 0);
        ObservationChannel { faults, rng, previous: vec![None; nodes] }
    }

    /// The channel's configuration.
    #[must_use]
    pub fn faults(&self) -> &ObservationFaults {
        &self.faults
    }

    /// Perturbs one stage's true window profile into the estimates the
    /// players actually see, clamped into `[1, w_max]`.
    ///
    /// A no-op configuration returns `true_windows` verbatim without
    /// touching the RNG. Otherwise, per node and in node order: with
    /// `drop_prob` the previous estimate (or the true value, before any
    /// estimate exists) is kept; with `stale_prob` the previous estimate
    /// is repeated; else a fresh noisy read
    /// `W·(1 + U[−a, a]) + U[−b, b]` is taken.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidParameter`] if the profile length
    /// differs from the channel's node count.
    pub fn observe(&mut self, true_windows: &[u32], w_max: u32) -> Result<Vec<u32>, FaultError> {
        if true_windows.len() != self.previous.len() {
            return Err(FaultError::invalid(
                "true_windows",
                format!(
                    "{} entries for {} observed nodes",
                    true_windows.len(),
                    self.previous.len()
                ),
            ));
        }
        if self.faults.is_noop() {
            return Ok(true_windows.to_vec());
        }
        let w_max = w_max.max(1);
        let mut observed = Vec::with_capacity(true_windows.len());
        for (i, &truth) in true_windows.iter().enumerate() {
            // Fixed draw order per node keeps the stream independent of
            // which branch wins: decision draws first, then noise draws
            // only on the fresh-read branch.
            let dropped = self.faults.drop_prob > 0.0 && self.rng.gen_bool(self.faults.drop_prob);
            let stale = self.faults.stale_prob > 0.0 && self.rng.gen_bool(self.faults.stale_prob);
            let estimate = if dropped {
                self.previous[i].unwrap_or(truth)
            } else if stale {
                match self.previous[i] {
                    Some(prev) => prev,
                    None => self.fresh_read(truth, w_max),
                }
            } else {
                self.fresh_read(truth, w_max)
            };
            self.previous[i] = Some(estimate);
            observed.push(estimate);
        }
        macgame_telemetry::counter("faults.observation.stages", 1);
        Ok(observed)
    }

    fn fresh_read(&mut self, truth: u32, w_max: u32) -> u32 {
        let mut value = f64::from(truth);
        if self.faults.multiplicative > 0.0 {
            let a = self.faults.multiplicative;
            value *= 1.0 + self.rng.gen_range(-a..=a);
        }
        if self.faults.additive > 0.0 {
            let b = self.faults.additive;
            value += self.rng.gen_range(-b..=b);
        }
        let rounded = value.round();
        if rounded <= 1.0 {
            1
        } else if rounded >= f64::from(w_max) {
            w_max
        } else {
            rounded as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(ObservationFaults::new(1.0, 0.0, 0.0, 0.0, 0).is_err());
        assert!(ObservationFaults::new(-0.1, 0.0, 0.0, 0.0, 0).is_err());
        assert!(ObservationFaults::new(0.0, -1.0, 0.0, 0.0, 0).is_err());
        assert!(ObservationFaults::new(0.0, 0.0, 1.5, 0.0, 0).is_err());
        assert!(ObservationFaults::new(0.0, 0.0, 0.0, -0.5, 0).is_err());
        assert!(ObservationFaults::new(0.3, 2.0, 0.1, 0.1, 0).is_ok());
    }

    #[test]
    fn noop_channel_is_identity_and_never_draws() {
        let mut channel = ObservationChannel::new(ObservationFaults::noop(), 3);
        let rng_before = channel.rng.clone();
        let out = channel.observe(&[10, 20, 30], 1024).unwrap();
        assert_eq!(out, vec![10, 20, 30]);
        // The RNG state is untouched: bitwise identity with no channel.
        use rand::RngCore;
        assert_eq!(channel.rng.next_u64(), rng_before.clone().next_u64());
    }

    #[test]
    fn noisy_reads_stay_clamped_and_deterministic() {
        let faults = ObservationFaults::noise(0.3, 42).unwrap();
        let mut a = ObservationChannel::new(faults, 2);
        let mut b = ObservationChannel::new(faults, 2);
        for _ in 0..50 {
            let oa = a.observe(&[2, 900], 1000).unwrap();
            let ob = b.observe(&[2, 900], 1000).unwrap();
            assert_eq!(oa, ob);
            assert!(oa.iter().all(|&w| (1..=1000).contains(&w)));
        }
    }

    #[test]
    fn dropped_observation_repeats_the_previous_estimate() {
        let faults = ObservationFaults::new(0.0, 0.0, 0.0, 1.0, 7).unwrap();
        let mut channel = ObservationChannel::new(faults, 1);
        // First stage: nothing to carry forward, the truth is kept.
        assert_eq!(channel.observe(&[50], 1024).unwrap(), vec![50]);
        // The node moves; the channel still reports the old estimate.
        assert_eq!(channel.observe(&[10], 1024).unwrap(), vec![50]);
    }

    #[test]
    fn stale_reads_lag_one_stage() {
        let faults = ObservationFaults::new(0.0, 0.0, 1.0, 0.0, 7).unwrap();
        let mut channel = ObservationChannel::new(faults, 1);
        assert_eq!(channel.observe(&[40], 1024).unwrap(), vec![40]);
        assert_eq!(channel.observe(&[20], 1024).unwrap(), vec![40]);
        assert_eq!(channel.observe(&[20], 1024).unwrap(), vec![40]);
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let mut channel = ObservationChannel::new(ObservationFaults::noop(), 2);
        assert!(channel.observe(&[1, 2, 3], 64).is_err());
    }
}
