//! Detection-gated punishment strategies.
//!
//! The paper's TFT (Section IV) punishes on *any* observed deviation —
//! which under noisy observation means punishing phantom cheaters.
//! These strategies interpose a [`WindowedDetector`]: punishment fires
//! only on a typed [`Verdict`](crate::detect::Verdict), trading a
//! detection delay (the detector memory) for robustness to observation
//! faults.
//!
//! * [`DetectorTft`] — plays the cooperative window until the detector
//!   convicts a peer, then mirrors the minimum observed window (the
//!   paper's punishment) for a fixed number of stages before forgiving
//!   and clearing the detector state.
//! * [`Throttle`] — selective, measured enforcement: while a verdict
//!   stands it matches the *convicted* node's mean observed window
//!   instead of dragging the whole channel to the minimum; when the
//!   cheater reverts, the bounded detector memory clears the verdict
//!   and the throttler returns to cooperation on its own.
//!
//! In the repeated-game plane, strategies see one observation vector
//! per stage, so the detectors are fed with `slots = 1`:
//! `Verdict::slots_observed` counts *stages* here (see
//! [`Verdict`](crate::detect::Verdict) docs).

use crate::detect::sequential::WindowedDetector;
use crate::error::GameError;
use crate::game::GameConfig;
use crate::history::History;
use crate::strategy::Strategy;

/// TFT whose trigger fires only on a detector verdict.
#[derive(Debug, Clone)]
pub struct DetectorTft {
    w_star: u32,
    memory: usize,
    threshold: f64,
    punish_stages: usize,
    detector: Option<WindowedDetector>,
    punishing: usize,
}

impl DetectorTft {
    /// Creates a detection-gated TFT: cooperate at `w_star`, convict on
    /// a windowed detector with the given `memory` and ratio
    /// `threshold`, punish for `punish_stages` stages, then forgive.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidConfig`] if `w_star == 0`,
    /// `memory == 0`, `threshold` is outside `(0, 1]`, or
    /// `punish_stages == 0`.
    pub fn try_new(
        w_star: u32,
        memory: usize,
        threshold: f64,
        punish_stages: usize,
    ) -> Result<Self, GameError> {
        // Validate the detector parameters eagerly (node count comes
        // from the first observed stage).
        WindowedDetector::try_new(1, w_star, memory, threshold)?;
        if punish_stages == 0 {
            return Err(GameError::InvalidConfig("punishment must last at least one stage".into()));
        }
        Ok(DetectorTft { w_star, memory, threshold, punish_stages, detector: None, punishing: 0 })
    }
}

impl Strategy for DetectorTft {
    fn initial_window(&self, _player: usize, game: &GameConfig) -> u32 {
        self.w_star.clamp(1, game.w_max())
    }

    fn next_window(
        &mut self,
        player: usize,
        game: &GameConfig,
        history: &History,
    ) -> Result<u32, GameError> {
        let last = history
            .last()
            .ok_or_else(|| GameError::InvalidConfig("next_window before stage 0".into()))?;
        let n = last.observed.len();
        if !self.detector.as_ref().is_some_and(|d| matches_nodes(d, n)) {
            self.detector =
                Some(WindowedDetector::try_new(n, self.w_star, self.memory, self.threshold)?);
        }
        let detector = self
            .detector
            .as_mut()
            .ok_or_else(|| GameError::InvalidConfig("detector initialization failed".into()))?;
        let verdicts = detector.observe_windows(&last.observed, 1)?;
        let convicted = verdicts.iter().any(|v| v.node != player);

        if self.punishing > 0 {
            self.punishing -= 1;
            if self.punishing == 0 {
                // Forgive: punishment-era observations (everyone low)
                // must not convict anew on the next stage.
                detector.reset_all();
            }
            let min = last.observed.iter().copied().min().unwrap_or(self.w_star);
            return Ok(min.clamp(1, game.w_max()));
        }
        if convicted {
            self.punishing = self.punish_stages - 1;
            let min = last.observed.iter().copied().min().unwrap_or(self.w_star);
            if self.punishing == 0 {
                detector.reset_all();
            }
            return Ok(min.clamp(1, game.w_max()));
        }
        Ok(self.w_star.clamp(1, game.w_max()))
    }

    fn name(&self) -> &'static str {
        "detector-tft"
    }
}

/// Selective throttling: match the convicted cheater, not the channel.
#[derive(Debug, Clone)]
pub struct Throttle {
    w_star: u32,
    memory: usize,
    threshold: f64,
    detector: Option<WindowedDetector>,
}

impl Throttle {
    /// Creates a selective throttler: cooperate at `w_star`; while a
    /// windowed-detector verdict stands, play the convicted node's mean
    /// observed window.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidConfig`] if `w_star == 0`,
    /// `memory == 0`, or `threshold` is outside `(0, 1]`.
    pub fn try_new(w_star: u32, memory: usize, threshold: f64) -> Result<Self, GameError> {
        WindowedDetector::try_new(1, w_star, memory, threshold)?;
        Ok(Throttle { w_star, memory, threshold, detector: None })
    }
}

impl Strategy for Throttle {
    fn initial_window(&self, _player: usize, game: &GameConfig) -> u32 {
        self.w_star.clamp(1, game.w_max())
    }

    fn next_window(
        &mut self,
        player: usize,
        game: &GameConfig,
        history: &History,
    ) -> Result<u32, GameError> {
        let last = history
            .last()
            .ok_or_else(|| GameError::InvalidConfig("next_window before stage 0".into()))?;
        let n = last.observed.len();
        if !self.detector.as_ref().is_some_and(|d| matches_nodes(d, n)) {
            self.detector =
                Some(WindowedDetector::try_new(n, self.w_star, self.memory, self.threshold)?);
        }
        let detector = self
            .detector
            .as_mut()
            .ok_or_else(|| GameError::InvalidConfig("detector initialization failed".into()))?;
        let verdicts = detector.observe_windows(&last.observed, 1)?;
        // The worst standing offender: lowest statistic, ties to the
        // lowest index — a deterministic pick.
        let worst = verdicts
            .iter()
            .filter(|v| v.node != player)
            .min_by(|a, b| a.statistic.total_cmp(&b.statistic).then(a.node.cmp(&b.node)));
        if let Some(verdict) = worst {
            let matched = detector
                .mean_window(verdict.node)
                .map_or(self.w_star, |m| m.round().max(1.0) as u32);
            return Ok(matched.clamp(1, game.w_max()));
        }
        Ok(self.w_star.clamp(1, game.w_max()))
    }

    fn name(&self) -> &'static str {
        "throttle"
    }
}

fn matches_nodes(detector: &WindowedDetector, n: usize) -> bool {
    detector.node_count() == n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::StageRecord;

    fn game(n: usize) -> GameConfig {
        GameConfig::builder(n).build().unwrap()
    }

    fn push(history: &mut History, observed: Vec<u32>) {
        let n = observed.len();
        history.push(StageRecord { windows: observed.clone(), observed, utilities: vec![0.0; n] });
    }

    #[test]
    fn detector_tft_ignores_honest_peers() {
        let g = game(3);
        let mut s = DetectorTft::try_new(64, 2, 0.5, 3).unwrap();
        let mut h = History::new();
        assert_eq!(s.initial_window(0, &g), 64);
        for _ in 0..10 {
            push(&mut h, vec![64, 64, 64]);
            assert_eq!(s.next_window(0, &g, &h).unwrap(), 64);
        }
    }

    #[test]
    fn detector_tft_waits_for_conviction_then_punishes_then_forgives() {
        let g = game(2);
        let mut s = DetectorTft::try_new(64, 2, 0.5, 3).unwrap();
        let mut h = History::new();
        // Stage 1 observation: cheater at 8. Memory 2 → no verdict yet.
        push(&mut h, vec![64, 8]);
        assert_eq!(s.next_window(0, &g, &h).unwrap(), 64, "no verdict before warmup");
        // Second cheating observation convicts: punish at the minimum.
        push(&mut h, vec![64, 8]);
        assert_eq!(s.next_window(0, &g, &h).unwrap(), 8);
        // Punishment persists for punish_stages = 3 stages total.
        push(&mut h, vec![8, 8]);
        assert_eq!(s.next_window(0, &g, &h).unwrap(), 8);
        push(&mut h, vec![8, 8]);
        assert_eq!(s.next_window(0, &g, &h).unwrap(), 8);
        // Forgiveness: detector was reset; an honest stage restores W*.
        push(&mut h, vec![64, 64]);
        assert_eq!(s.next_window(0, &g, &h).unwrap(), 64);
    }

    #[test]
    fn detector_tft_does_not_convict_itself() {
        let g = game(2);
        let mut s = DetectorTft::try_new(64, 1, 0.5, 2).unwrap();
        let mut h = History::new();
        // Player 0's own window reads low (e.g. its own punishment);
        // verdicts against oneself must not trigger punishment.
        push(&mut h, vec![8, 64]);
        assert_eq!(s.next_window(0, &g, &h).unwrap(), 64);
    }

    #[test]
    fn throttle_matches_the_cheater_not_the_channel() {
        let g = game(3);
        let mut s = Throttle::try_new(64, 2, 0.5).unwrap();
        let mut h = History::new();
        push(&mut h, vec![64, 16, 64]);
        assert_eq!(s.next_window(0, &g, &h).unwrap(), 64, "single low stage: no verdict yet");
        push(&mut h, vec![64, 16, 64]);
        // Convicted: mean observed window of node 1 is 16.
        assert_eq!(s.next_window(0, &g, &h).unwrap(), 16);
        // Cheater reverts; ring refills with 64s and the verdict clears.
        push(&mut h, vec![64, 64, 64]);
        push(&mut h, vec![64, 64, 64]);
        assert_eq!(s.next_window(0, &g, &h).unwrap(), 64);
    }

    #[test]
    fn constructors_validate() {
        assert!(DetectorTft::try_new(0, 2, 0.5, 3).is_err());
        assert!(DetectorTft::try_new(64, 0, 0.5, 3).is_err());
        assert!(DetectorTft::try_new(64, 2, 1.5, 3).is_err());
        assert!(DetectorTft::try_new(64, 2, 0.5, 0).is_err());
        assert!(Throttle::try_new(64, 2, 0.0).is_err());
        assert!(Throttle::try_new(0, 2, 0.5).is_err());
    }
}
