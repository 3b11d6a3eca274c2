//! Simulation configuration.

use macgame_dcf::{DcfParams, UtilityParams};
use serde::{Deserialize, Serialize};

use crate::traffic::TrafficModel;

/// Configuration of a single-hop saturated DCF simulation.
///
/// # Examples
///
/// ```
/// use macgame_sim::SimConfig;
///
/// let config = SimConfig::builder()
///     .windows(vec![32, 32, 64])
///     .seed(7)
///     .build()?;
/// assert_eq!(config.node_count(), 3);
/// # Ok::<(), macgame_sim::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    params: DcfParams,
    utility: UtilityParams,
    windows: Vec<u32>,
    seed: u64,
    traffic: TrafficModel,
    /// Per-node AIFS slot counts (EDCA). Empty means "all equal": every
    /// node contends in every slot, exactly the legacy DCF engine.
    aifs: Vec<u32>,
    /// Per-node TXOP burst lengths in frames (EDCA). Empty means "all
    /// single-frame": every success occupies one plain `T_s`.
    txop: Vec<u32>,
}

impl SimConfig {
    /// Starts a builder with Table I parameters, two nodes at `W = 32` and
    /// seed 0.
    #[must_use]
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// Protocol parameters.
    #[must_use]
    pub fn params(&self) -> &DcfParams {
        &self.params
    }

    /// Utility (gain/cost) parameters used for payoff accounting.
    #[must_use]
    pub fn utility(&self) -> &UtilityParams {
        &self.utility
    }

    /// Initial per-node contention windows.
    #[must_use]
    pub fn windows(&self) -> &[u32] {
        &self.windows
    }

    /// RNG seed; equal seeds give bit-identical runs.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of simulated nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.windows.len()
    }

    /// Traffic generation model.
    #[must_use]
    pub fn traffic(&self) -> TrafficModel {
        self.traffic
    }

    /// Raw per-node AIFS slot counts: empty when unset (legacy configs).
    #[must_use]
    pub fn aifs(&self) -> &[u32] {
        &self.aifs
    }

    /// Raw per-node TXOP burst lengths: empty when unset (legacy configs).
    #[must_use]
    pub fn txop(&self) -> &[u32] {
        &self.txop
    }

    /// Per-node AIFS *defer* distances `d_i = AIFS_i − min_j AIFS_j` — the
    /// number of consecutive idle slots a node must observe beyond the
    /// baseline before it may contend. All zeros for legacy configs (or
    /// any equal-AIFS profile).
    #[must_use]
    pub fn aifs_defers(&self) -> Vec<u32> {
        if self.aifs.is_empty() {
            return vec![0; self.windows.len()];
        }
        // PANIC-POLICY: build() validates aifs against the non-empty window count.
        let min = *self.aifs.iter().min().expect("validated non-empty");
        self.aifs.iter().map(|&a| a - min).collect()
    }

    /// Per-node TXOP burst lengths with the single-frame default filled
    /// in: always one entry per node.
    #[must_use]
    pub fn txop_bursts(&self) -> Vec<u32> {
        if self.txop.is_empty() {
            return vec![1; self.windows.len()];
        }
        self.txop.clone()
    }
}

/// Builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    params: DcfParams,
    utility: UtilityParams,
    windows: Vec<u32>,
    seed: u64,
    traffic: TrafficModel,
    aifs: Vec<u32>,
    txop: Vec<u32>,
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        SimConfigBuilder {
            params: DcfParams::default(),
            utility: UtilityParams::default(),
            windows: vec![32, 32],
            seed: 0,
            traffic: TrafficModel::Saturated,
            aifs: Vec::new(),
            txop: Vec::new(),
        }
    }
}

impl SimConfigBuilder {
    /// Sets the protocol parameters.
    pub fn params(&mut self, params: DcfParams) -> &mut Self {
        self.params = params;
        self
    }

    /// Sets the utility parameters.
    pub fn utility(&mut self, utility: UtilityParams) -> &mut Self {
        self.utility = utility;
        self
    }

    /// Sets the per-node contention windows (one entry per node).
    pub fn windows(&mut self, windows: Vec<u32>) -> &mut Self {
        self.windows = windows;
        self
    }

    /// Convenience: `n` nodes all on window `w`.
    pub fn symmetric(&mut self, n: usize, w: u32) -> &mut Self {
        self.windows = vec![w; n];
        self
    }

    /// Sets the RNG seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets the traffic model (default: saturated, as in the paper).
    pub fn traffic(&mut self, traffic: TrafficModel) -> &mut Self {
        self.traffic = traffic;
        self
    }

    /// Sets per-node AIFS slot counts (one entry per node). An empty
    /// vector restores the legacy equal-AIFS behaviour.
    pub fn aifs(&mut self, aifs: Vec<u32>) -> &mut Self {
        self.aifs = aifs;
        self
    }

    /// Sets per-node TXOP burst lengths in frames (one entry per node).
    /// An empty vector restores the legacy single-frame behaviour.
    pub fn txop(&mut self, txop: Vec<u32>) -> &mut Self {
        self.txop = txop;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SimError::InvalidConfig`] if there are no nodes,
    /// any window is zero, a Poisson rate is negative/non-finite, or a
    /// non-empty AIFS/TXOP profile disagrees with the node count or is
    /// out of range (AIFS ≤ 64 slots, TXOP in `1..=64` frames).
    pub fn build(&self) -> Result<SimConfig, crate::SimError> {
        if self.windows.is_empty() {
            return Err(crate::SimError::InvalidConfig("need at least one node".into()));
        }
        if self.windows.contains(&0) {
            return Err(crate::SimError::InvalidConfig(
                "contention windows must be at least 1".into(),
            ));
        }
        if let TrafficModel::Poisson { packets_per_second } = self.traffic {
            if !(packets_per_second.is_finite() && packets_per_second >= 0.0) {
                return Err(crate::SimError::InvalidConfig(
                    "arrival rate must be finite and non-negative".into(),
                ));
            }
        }
        if !self.aifs.is_empty() {
            if self.aifs.len() != self.windows.len() {
                return Err(crate::SimError::InvalidConfig(format!(
                    "AIFS profile has {} entries for {} nodes",
                    self.aifs.len(),
                    self.windows.len()
                )));
            }
            if self.aifs.iter().any(|&a| a > 64) {
                return Err(crate::SimError::InvalidConfig("AIFS must be at most 64 slots".into()));
            }
        }
        if !self.txop.is_empty() {
            if self.txop.len() != self.windows.len() {
                return Err(crate::SimError::InvalidConfig(format!(
                    "TXOP profile has {} entries for {} nodes",
                    self.txop.len(),
                    self.windows.len()
                )));
            }
            if self.txop.iter().any(|&k| k == 0 || k > 64) {
                return Err(crate::SimError::InvalidConfig(
                    "TXOP burst lengths must be in 1..=64 frames".into(),
                ));
            }
        }
        Ok(SimConfig {
            params: self.params,
            utility: self.utility,
            windows: self.windows.clone(),
            seed: self.seed,
            traffic: self.traffic,
            aifs: self.aifs.clone(),
            txop: self.txop.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let c = SimConfig::builder().build().unwrap();
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.seed(), 0);
    }

    #[test]
    fn symmetric_helper() {
        let c = SimConfig::builder().symmetric(5, 76).build().unwrap();
        assert_eq!(c.windows(), &[76; 5]);
    }

    #[test]
    fn rejects_empty_and_zero_windows() {
        assert!(SimConfig::builder().windows(vec![]).build().is_err());
        assert!(SimConfig::builder().windows(vec![8, 0]).build().is_err());
    }

    #[test]
    fn edca_defaults_fill_in() {
        let c = SimConfig::builder().symmetric(3, 32).build().unwrap();
        assert!(c.aifs().is_empty());
        assert!(c.txop().is_empty());
        assert_eq!(c.aifs_defers(), vec![0; 3]);
        assert_eq!(c.txop_bursts(), vec![1; 3]);
    }

    #[test]
    fn edca_defers_are_relative_to_the_minimum() {
        let c = SimConfig::builder()
            .symmetric(3, 32)
            .aifs(vec![2, 2, 5])
            .txop(vec![1, 4, 1])
            .build()
            .unwrap();
        assert_eq!(c.aifs_defers(), vec![0, 0, 3]);
        assert_eq!(c.txop_bursts(), vec![1, 4, 1]);
    }

    #[test]
    fn edca_fields_round_trip() {
        let plain = SimConfig::builder().symmetric(2, 32).build().unwrap();
        let json = serde_json::to_string(&plain).unwrap();
        assert_eq!(serde_json::from_str::<SimConfig>(&json).unwrap(), plain);

        let edca = SimConfig::builder()
            .symmetric(2, 32)
            .aifs(vec![0, 2])
            .txop(vec![4, 1])
            .build()
            .unwrap();
        let json = serde_json::to_string(&edca).unwrap();
        assert_eq!(serde_json::from_str::<SimConfig>(&json).unwrap(), edca);
    }

    #[test]
    fn rejects_malformed_edca_profiles() {
        assert!(SimConfig::builder().symmetric(3, 32).aifs(vec![1, 2]).build().is_err());
        assert!(SimConfig::builder().symmetric(3, 32).aifs(vec![1, 2, 65]).build().is_err());
        assert!(SimConfig::builder().symmetric(3, 32).txop(vec![1]).build().is_err());
        assert!(SimConfig::builder().symmetric(3, 32).txop(vec![1, 0, 1]).build().is_err());
        assert!(SimConfig::builder().symmetric(3, 32).txop(vec![1, 65, 1]).build().is_err());
    }
}
