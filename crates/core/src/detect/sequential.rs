//! Sequential cheater-detection rules over noisy MAC observations.
//!
//! Two complementary statistics, both emitting typed [`Verdict`]s:
//!
//! * [`CusumDetector`] — a Page-style cumulative-sum accumulator over
//!   per-node attempt counters. Each observed stage contributes the
//!   node's measured rate excess over the honest reference rate (minus a
//!   slack `allowance`), floored at zero; a node whose score crosses the
//!   threshold `h` is flagged. This is the classical sequential test for
//!   a persistent upward shift in transmission rate and works directly
//!   on [`macgame_sim::NodeStats`] counters — no window inversion needed.
//! * [`WindowedDetector`] — a windowed threshold rule over observed
//!   contention windows: keep the last
//!   `memory` observed windows per node and flag when their mean drops
//!   below `threshold × w_ref`. The statistic reported is the ratio
//!   `mean(Ŵ)/w_ref`, so thresholds are scale-free in `(0, 1]`.
//!
//! Threshold semantics are strict on both rules (`>` for CUSUM scores,
//! `<` for window ratios): under exact observation of an honest
//! population the CUSUM score is identically `0` and the window ratio
//! identically `1`, so *no* valid threshold can produce a false
//! positive. ROC sweeps therefore measure the cost of noise, not of the
//! rule itself.

use macgame_sim::NodeStats;
use serde::{Deserialize, Serialize};

use crate::error::GameError;

/// A detection verdict: `node` was flagged because `statistic` crossed
/// `threshold` after observing `slots_observed` channel slots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// The flagged node's index.
    pub node: usize,
    /// The detector statistic at the moment of crossing (CUSUM score, or
    /// windowed mean-window ratio).
    pub statistic: f64,
    /// The threshold the statistic crossed.
    pub threshold: f64,
    /// Total channel slots observed by the detector when it fired. In
    /// the repeated-game plane, where strategies see per-stage
    /// observations rather than slot counters, this counts stages.
    pub slots_observed: u64,
}

/// Page's CUSUM rule over per-node attempt rates.
#[derive(Debug, Clone, PartialEq)]
pub struct CusumDetector {
    tau_ref: f64,
    allowance: f64,
    threshold: f64,
    scores: Vec<f64>,
    slots: u64,
}

impl CusumDetector {
    /// Creates a detector for `nodes` nodes against the honest reference
    /// rate `tau_ref` (the symmetric fixed-point `τ` at the cooperative
    /// window), with slack `allowance` and decision threshold
    /// `threshold`.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidConfig`] if `nodes == 0`, `tau_ref`
    /// is not in `(0, 1)`, `allowance` is negative or non-finite, or
    /// `threshold` is not strictly positive and finite.
    pub fn try_new(
        nodes: usize,
        tau_ref: f64,
        allowance: f64,
        threshold: f64,
    ) -> Result<Self, GameError> {
        if nodes == 0 {
            return Err(GameError::InvalidConfig("need at least one node".into()));
        }
        if !(tau_ref > 0.0 && tau_ref < 1.0) {
            return Err(GameError::InvalidConfig(format!(
                "reference rate must be in (0, 1), got {tau_ref}"
            )));
        }
        if !allowance.is_finite() || allowance < 0.0 {
            return Err(GameError::InvalidConfig(format!(
                "allowance must be finite and non-negative, got {allowance}"
            )));
        }
        if !threshold.is_finite() || threshold <= 0.0 {
            return Err(GameError::InvalidConfig(format!(
                "CUSUM threshold must be finite and positive, got {threshold}"
            )));
        }
        Ok(CusumDetector { tau_ref, allowance, threshold, scores: vec![0.0; nodes], slots: 0 })
    }

    /// Feeds one observed stage of per-node counters measured over
    /// `slots` channel slots; returns the verdicts that fired this
    /// stage (a node already above threshold keeps firing on every
    /// later stage).
    ///
    /// A zero-slot stage carries no information and leaves every score
    /// untouched.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidConfig`] if `stats` does not match
    /// the detector's node count.
    pub fn observe_stage(
        &mut self,
        stats: &[NodeStats],
        slots: u64,
    ) -> Result<Vec<Verdict>, GameError> {
        if stats.len() != self.scores.len() {
            return Err(GameError::InvalidConfig(format!(
                "{} nodes observed, detector tracks {}",
                stats.len(),
                self.scores.len()
            )));
        }
        if slots == 0 {
            return Ok(Vec::new());
        }
        self.slots += slots;
        let mut verdicts = Vec::new();
        for (node, s) in stats.iter().enumerate() {
            let excess = s.tau_hat(slots) - self.tau_ref - self.allowance;
            self.scores[node] = (self.scores[node] + excess).max(0.0);
            if self.scores[node] > self.threshold {
                verdicts.push(Verdict {
                    node,
                    statistic: self.scores[node],
                    threshold: self.threshold,
                    slots_observed: self.slots,
                });
            }
        }
        Ok(verdicts)
    }

    /// The current CUSUM score of `node`, or `None` if out of range.
    #[must_use]
    pub fn statistic(&self, node: usize) -> Option<f64> {
        self.scores.get(node).copied()
    }
}

/// Windowed threshold rule over observed contention windows.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedDetector {
    w_ref: u32,
    memory: usize,
    threshold: f64,
    recent: Vec<Vec<f64>>,
    slots: u64,
}

impl WindowedDetector {
    /// Creates a detector for `nodes` nodes against the cooperative
    /// reference window `w_ref`, averaging the last `memory`
    /// observations and flagging when `mean(Ŵ)/w_ref < threshold`.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidConfig`] if `nodes == 0`,
    /// `w_ref == 0`, `memory == 0`, or `threshold` is outside `(0, 1]`.
    pub fn try_new(
        nodes: usize,
        w_ref: u32,
        memory: usize,
        threshold: f64,
    ) -> Result<Self, GameError> {
        if nodes == 0 {
            return Err(GameError::InvalidConfig("need at least one node".into()));
        }
        if w_ref == 0 {
            return Err(GameError::InvalidConfig("reference window must be positive".into()));
        }
        if memory == 0 {
            return Err(GameError::InvalidConfig("detector memory must be positive".into()));
        }
        if !(threshold.is_finite() && threshold > 0.0 && threshold <= 1.0) {
            return Err(GameError::InvalidConfig(format!(
                "window-ratio threshold must be in (0, 1], got {threshold}"
            )));
        }
        Ok(WindowedDetector { w_ref, memory, threshold, recent: vec![Vec::new(); nodes], slots: 0 })
    }

    /// Feeds one stage of observed windows (one per node, e.g. from an
    /// observation channel) measured over `slots` channel slots.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidConfig`] if `observed` does not match
    /// the detector's node count.
    pub fn observe_windows(
        &mut self,
        observed: &[u32],
        slots: u64,
    ) -> Result<Vec<Verdict>, GameError> {
        if observed.len() != self.recent.len() {
            return Err(GameError::InvalidConfig(format!(
                "{} windows observed, detector tracks {}",
                observed.len(),
                self.recent.len()
            )));
        }
        let values: Vec<Option<f64>> = observed.iter().map(|&w| Some(f64::from(w))).collect();
        Ok(self.ingest(&values, slots))
    }

    fn ingest(&mut self, values: &[Option<f64>], slots: u64) -> Vec<Verdict> {
        self.slots += slots;
        let mut verdicts = Vec::new();
        for (node, value) in values.iter().enumerate() {
            if let Some(w) = *value {
                let ring = &mut self.recent[node];
                ring.push(w);
                if ring.len() > self.memory {
                    ring.remove(0);
                }
            }
            // Decide only on a full memory: the rule is sequential — it
            // waits for `memory` observations before it can fire.
            if self.recent[node].len() == self.memory {
                // Ring is nonempty here (memory >= 1), so the statistic
                // is defined.
                if let Some(stat) = self.statistic(node) {
                    if stat < self.threshold {
                        verdicts.push(Verdict {
                            node,
                            statistic: stat,
                            threshold: self.threshold,
                            slots_observed: self.slots,
                        });
                    }
                }
            }
        }
        verdicts
    }

    /// The current statistic `mean(last memory Ŵ)/w_ref` for `node`, or
    /// `None` if the node is out of range or has no observations yet.
    #[must_use]
    pub fn statistic(&self, node: usize) -> Option<f64> {
        let ring = self.recent.get(node)?;
        if ring.is_empty() {
            return None;
        }
        let mean = ring.iter().sum::<f64>() / ring.len() as f64;
        Some(mean / f64::from(self.w_ref))
    }

    /// The mean observed window of `node` over its ring, or `None` if
    /// out of range or unobserved.
    #[must_use]
    pub fn mean_window(&self, node: usize) -> Option<f64> {
        let ring = self.recent.get(node)?;
        if ring.is_empty() {
            return None;
        }
        Some(ring.iter().sum::<f64>() / ring.len() as f64)
    }

    /// The number of nodes this detector tracks.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.recent.len()
    }

    /// Whether `node`'s ring holds a full `memory` of observations.
    #[must_use]
    pub fn warmed_up(&self, node: usize) -> bool {
        self.recent.get(node).is_some_and(|r| r.len() == self.memory)
    }

    /// Clears every node's observation ring (e.g. when a punishment
    /// phase ends and punishment-era observations would be stale).
    pub fn reset_all(&mut self) {
        for ring in &mut self.recent {
            ring.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(attempts: &[u64]) -> Vec<NodeStats> {
        attempts
            .iter()
            .map(|&a| NodeStats { attempts: a, successes: a / 2, collisions: a - a / 2 })
            .collect()
    }

    #[test]
    fn cusum_stays_silent_on_reference_rate() {
        // Exactly the reference rate: excess is -allowance <= 0, score
        // pinned at 0, no verdict at any positive threshold.
        let mut det = CusumDetector::try_new(3, 0.05, 0.01, 0.001).unwrap();
        for _ in 0..100 {
            let v = det.observe_stage(&stats(&[50, 50, 50]), 1000).unwrap();
            assert!(v.is_empty());
        }
        assert_eq!(det.statistic(0), Some(0.0));
    }

    #[test]
    fn cusum_flags_persistent_excess() {
        let mut det = CusumDetector::try_new(3, 0.05, 0.01, 0.1).unwrap();
        let mut fired = None;
        for stage in 0..100 {
            // Node 1 transmits at rate 0.15: excess 0.09 per stage.
            let v = det.observe_stage(&stats(&[50, 150, 50]), 1000).unwrap();
            if let Some(first) = v.first() {
                fired = Some((stage, *first));
                break;
            }
        }
        let (stage, verdict) = fired.expect("persistent cheater must be flagged");
        assert_eq!(verdict.node, 1);
        assert!(verdict.statistic > verdict.threshold);
        assert_eq!(verdict.slots_observed, (stage as u64 + 1) * 1000);
        // ~0.09 excess per stage crosses 0.1 on the second stage.
        assert_eq!(stage, 1);
    }

    #[test]
    fn cusum_zero_slot_stage_is_inert() {
        let mut det = CusumDetector::try_new(2, 0.05, 0.0, 0.5).unwrap();
        let v = det.observe_stage(&stats(&[0, 0]), 0).unwrap();
        assert!(v.is_empty());
        assert_eq!(det.statistic(0), Some(0.0));
    }

    #[test]
    fn cusum_validation() {
        assert!(CusumDetector::try_new(0, 0.05, 0.0, 0.1).is_err());
        assert!(CusumDetector::try_new(2, 0.0, 0.0, 0.1).is_err());
        assert!(CusumDetector::try_new(2, 1.0, 0.0, 0.1).is_err());
        assert!(CusumDetector::try_new(2, 0.05, -0.1, 0.1).is_err());
        assert!(CusumDetector::try_new(2, 0.05, 0.0, 0.0).is_err());
        let mut det = CusumDetector::try_new(2, 0.05, 0.0, 0.1).unwrap();
        assert!(det.observe_stage(&stats(&[1, 2, 3]), 100).is_err());
    }

    #[test]
    fn windowed_exact_honest_observation_never_fires() {
        // The zero-FP-by-construction invariant: exact observation of
        // the reference window keeps the statistic at exactly 1.0, and
        // 1.0 < θ is false for every θ in (0, 1].
        for &threshold in &[0.1, 0.5, 0.9999, 1.0] {
            let mut det = WindowedDetector::try_new(4, 64, 3, threshold).unwrap();
            for _ in 0..50 {
                let v = det.observe_windows(&[64, 64, 64, 64], 100).unwrap();
                assert!(v.is_empty(), "false positive at threshold {threshold}");
            }
            assert_eq!(det.statistic(0), Some(1.0));
        }
    }

    #[test]
    fn windowed_flags_a_cheater_after_warmup() {
        let mut det = WindowedDetector::try_new(2, 64, 4, 0.5).unwrap();
        for stage in 0..4u64 {
            let v = det.observe_windows(&[16, 64], 100).unwrap();
            if stage < 3 {
                assert!(v.is_empty(), "fired before the memory warmed up");
            } else {
                assert_eq!(v.len(), 1);
                assert_eq!(v[0].node, 0);
                assert!((v[0].statistic - 0.25).abs() < 1e-12);
                assert_eq!(v[0].slots_observed, 400);
            }
        }
    }

    #[test]
    fn windowed_ring_is_bounded_and_recovers() {
        let mut det = WindowedDetector::try_new(1, 64, 2, 0.5).unwrap();
        for _ in 0..5 {
            det.observe_windows(&[8], 10).unwrap();
        }
        assert!(det.statistic(0).unwrap() < 0.5);
        // The cheater reverts; the bounded ring forgets the cheating era.
        for _ in 0..2 {
            det.observe_windows(&[64], 10).unwrap();
        }
        assert_eq!(det.statistic(0), Some(1.0));
    }

    #[test]
    fn windowed_reset_clears_rings() {
        let mut det = WindowedDetector::try_new(2, 64, 1, 0.5).unwrap();
        det.observe_windows(&[8, 8], 10).unwrap();
        det.reset_all();
        assert_eq!(det.statistic(0), None);
        assert_eq!(det.statistic(1), None);
        assert!(!det.warmed_up(0));
    }

    #[test]
    fn windowed_validation() {
        assert!(WindowedDetector::try_new(0, 64, 2, 0.5).is_err());
        assert!(WindowedDetector::try_new(2, 0, 2, 0.5).is_err());
        assert!(WindowedDetector::try_new(2, 64, 0, 0.5).is_err());
        assert!(WindowedDetector::try_new(2, 64, 2, 0.0).is_err());
        assert!(WindowedDetector::try_new(2, 64, 2, 1.5).is_err());
        let mut det = WindowedDetector::try_new(2, 64, 2, 0.5).unwrap();
        assert!(det.observe_windows(&[64], 10).is_err());
    }
}
