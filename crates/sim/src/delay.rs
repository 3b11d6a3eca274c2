//! Per-node access-delay measurement.
//!
//! Companion to `macgame_dcf::delay`: where the analytical module predicts
//! the expected head-of-line delay, this tracker measures it — the slots
//! (and channel time) between consecutive successful transmissions. For a
//! *saturated* node that interval is exactly the head-of-line service
//! time; under unsaturated traffic it additionally contains queue-empty
//! idle time, i.e. it measures the inter-delivery interval instead.

use serde::{Deserialize, Serialize};

/// Online accumulator of per-node service intervals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayTracker {
    last_success_slot: Vec<Option<u64>>,
    sum_slots: Vec<f64>,
    max_slots: Vec<u64>,
    samples: Vec<u64>,
}

impl DelayTracker {
    /// Creates a tracker for `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        DelayTracker {
            last_success_slot: vec![None; n],
            sum_slots: vec![0.0; n],
            max_slots: vec![0; n],
            samples: vec![0; n],
        }
    }

    /// Number of tracked nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the tracker has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Records that `node` transmitted successfully in slot `slot`.
    ///
    /// The first success only arms the tracker (the preceding interval is
    /// left-censored); every later success contributes one sample.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or slots go backwards.
    pub fn record_success(&mut self, node: usize, slot: u64) {
        if let Some(prev) = self.last_success_slot[node] {
            assert!(slot >= prev, "slots must be monotone"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
            let gap = slot - prev;
            self.sum_slots[node] += gap as f64;
            self.max_slots[node] = self.max_slots[node].max(gap);
            self.samples[node] += 1;
        }
        self.last_success_slot[node] = Some(slot);
    }

    /// Mean service interval of `node`, in slots (`None` with no samples).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn mean_slots(&self, node: usize) -> Option<f64> {
        if self.samples[node] == 0 {
            None
        } else {
            Some(self.sum_slots[node] / self.samples[node] as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_success_is_censored() {
        let mut t = DelayTracker::new(2);
        t.record_success(0, 10);
        assert_eq!(t.samples[0], 0);
        assert_eq!(t.mean_slots(0), None);
    }

    #[test]
    fn intervals_accumulate() {
        let mut t = DelayTracker::new(1);
        t.record_success(0, 10);
        t.record_success(0, 30);
        t.record_success(0, 40);
        assert_eq!(t.samples[0], 2);
        assert_eq!(t.mean_slots(0), Some(15.0));
        assert_eq!(t.max_slots[0], 20);
    }

    #[test]
    fn nodes_are_independent() {
        let mut t = DelayTracker::new(2);
        t.record_success(0, 5);
        t.record_success(1, 7);
        t.record_success(0, 9);
        assert_eq!(t.samples[0], 1);
        assert_eq!(t.samples[1], 0);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn backwards_slots_panic() {
        let mut t = DelayTracker::new(1);
        t.record_success(0, 10);
        t.record_success(0, 5);
    }
}
