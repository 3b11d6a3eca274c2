//! Play history of the repeated game.

use serde::{Deserialize, Serialize};

/// What happened in one stage of the repeated game.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageRecord {
    /// The actual strategy profile `W^k` played.
    pub windows: Vec<u32>,
    /// The profile as *observed* by the players (equal to `windows` under
    /// perfect observation; an estimate under simulated observation).
    pub observed: Vec<u32>,
    /// Per-player stage utilities `U_i^s(W^k)` (already scaled by `T`).
    pub utilities: Vec<f64>,
}

/// The full history of a repeated-game run.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct History {
    stages: Vec<StageRecord>,
}

impl History {
    /// An empty history.
    #[must_use]
    pub fn new() -> Self {
        History::default()
    }

    /// Number of completed stages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether no stage has completed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Appends a completed stage.
    pub fn push(&mut self, record: StageRecord) {
        self.stages.push(record);
    }

    /// The most recent stage, if any.
    #[must_use]
    pub fn last(&self) -> Option<&StageRecord> {
        self.stages.last()
    }

    /// All stages in order.
    #[must_use]
    pub fn stages(&self) -> &[StageRecord] {
        &self.stages
    }

    /// The last `k` stages (fewer if the history is shorter), oldest first.
    #[must_use]
    pub fn recent(&self, k: usize) -> &[StageRecord] {
        let start = self.stages.len().saturating_sub(k);
        &self.stages[start..]
    }

    /// Player `i`'s total discounted utility `Σ_k δ^k·U_i^s(W^k)` over the
    /// recorded stages.
    ///
    /// # Panics
    ///
    /// Panics if `player` is out of range for any recorded stage.
    #[must_use]
    pub fn discounted_utility(&self, player: usize, delta: f64) -> f64 {
        let mut factor = 1.0;
        let mut total = 0.0;
        for stage in &self.stages {
            total += factor * stage.utilities[player];
            factor *= delta;
        }
        total
    }

    /// First stage index from which every stage's profile is constant and
    /// uniform (all players on one window), i.e. the convergence point of
    /// TFT play. `None` if play never converged.
    #[must_use]
    pub fn convergence_stage(&self) -> Option<usize> {
        let last = self.stages.last()?;
        let w = *last.windows.first()?;
        if !last.windows.iter().all(|&x| x == w) {
            return None;
        }
        let mut idx = self.stages.len();
        for (k, stage) in self.stages.iter().enumerate().rev() {
            if stage.windows.iter().all(|&x| x == w) {
                idx = k;
            } else {
                break;
            }
        }
        Some(idx)
    }

    /// The common window after convergence, if play converged.
    #[must_use]
    pub fn converged_window(&self) -> Option<u32> {
        self.convergence_stage().map(|k| self.stages[k].windows[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(windows: Vec<u32>, utility: f64) -> StageRecord {
        let n = windows.len();
        StageRecord { observed: windows.clone(), windows, utilities: vec![utility; n] }
    }

    #[test]
    fn discounting_weights_stages() {
        let mut h = History::new();
        h.push(stage(vec![8, 8], 1.0));
        h.push(stage(vec![8, 8], 1.0));
        h.push(stage(vec![8, 8], 1.0));
        let total = h.discounted_utility(0, 0.5);
        assert!((total - (1.0 + 0.5 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn convergence_detection() {
        let mut h = History::new();
        h.push(stage(vec![16, 64], 1.0));
        h.push(stage(vec![16, 16], 1.0));
        h.push(stage(vec![16, 16], 1.0));
        assert_eq!(h.convergence_stage(), Some(1));
        assert_eq!(h.converged_window(), Some(16));
    }

    #[test]
    fn no_convergence_when_last_stage_mixed() {
        let mut h = History::new();
        h.push(stage(vec![16, 16], 1.0));
        h.push(stage(vec![16, 64], 1.0));
        assert_eq!(h.convergence_stage(), None);
        assert_eq!(h.converged_window(), None);
    }

    #[test]
    fn converged_from_start() {
        let mut h = History::new();
        h.push(stage(vec![32, 32, 32], 1.0));
        assert_eq!(h.convergence_stage(), Some(0));
    }

    #[test]
    fn recent_window() {
        let mut h = History::new();
        for k in 0..5 {
            h.push(stage(vec![k + 1], 0.0));
        }
        let r = h.recent(2);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].windows[0], 4);
        assert_eq!(r[1].windows[0], 5);
        assert_eq!(h.recent(99).len(), 5);
    }

    #[test]
    fn empty_history() {
        let h = History::new();
        assert!(h.is_empty());
        assert_eq!(h.convergence_stage(), None);
        assert_eq!(h.last(), None);
        assert_eq!(h.discounted_utility(0, 0.9), 0.0);
    }
}
