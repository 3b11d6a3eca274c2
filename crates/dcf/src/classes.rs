//! Class-based aggregation of window profiles.
//!
//! Every quantity in the coupled `(τ, p)` system of paper Eqs. (2)–(3)
//! depends on the window profile only through the *multiset* of windows:
//! nodes sharing a window are exchangeable, so a profile with `k` distinct
//! windows has at most `k` distinct `(τ_c, p_c)` pairs. [`ClassProfile`]
//! stores that compressed form — `k` distinct windows with per-class
//! multiplicities — and the class solver in [`crate::fixedpoint`] iterates
//! `k` unknowns instead of `2n`, with the collision coupling computed from
//! class multiplicities via log-domain products:
//!
//! ```text
//! p_c = 1 − Π_j (1 − τ_j)^{n_j} / (1 − τ_c)
//!     = 1 − exp(Σ_j n_j·ln(1 − τ_j) − ln(1 − τ_c))
//! ```
//!
//! This is **exact** for any profile (no mean-field approximation): the
//! map is the node-level sweep restricted to the class-constant subspace,
//! which is invariant under the iteration and contains the unique fixed
//! point. Node-level [`Equilibrium`] values are reconstructed by expansion
//! through a node → class assignment. The per-sweep cost drops from O(n)
//! to O(k), making population-scale workloads (`n = 10^6`, `k ≤ 3`)
//! as cheap as the paper's `n = 10` tables.
//!
//! The module also hosts class-level slot/utility helpers that keep
//! payoff evaluation O(k) as well.

use serde::{Deserialize, Serialize};

use crate::error::DcfError;
use crate::fixedpoint::Equilibrium;
use crate::markov::transmission_probability;
use crate::params::DcfParams;
use crate::throughput::SlotStats;
use crate::utility::{utility_rate, UtilityParams};

/// A window profile in class form: `k` strictly increasing distinct
/// windows with their multiplicities. This is the canonical representation
/// of a window *multiset* — two node-level profiles collapse to the same
/// `ClassProfile` iff they are permutations of each other, so it doubles
/// as the cache key that subsumes permutation canonicalization.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClassProfile {
    /// Distinct windows, strictly increasing.
    windows: Vec<u32>,
    /// Multiplicity of each window, ≥ 1.
    counts: Vec<usize>,
}

impl ClassProfile {
    /// Builds a profile directly from class windows and multiplicities.
    /// Classes are sorted by window and duplicate windows are merged (their
    /// multiplicities add), so the result is always canonical. This is the
    /// constructor for synthetic large-`n` populations where a node-level
    /// `Vec<u32>` would be wasteful.
    ///
    /// # Errors
    ///
    /// Returns [`DcfError::InvalidParameter`] for an empty profile, a zero
    /// window, a zero multiplicity, or mismatched lengths.
    pub fn new(windows: Vec<u32>, counts: Vec<usize>) -> Result<Self, DcfError> {
        if windows.len() != counts.len() {
            return Err(DcfError::invalid("counts", "need one multiplicity per class"));
        }
        if windows.is_empty() {
            return Err(DcfError::invalid("windows", "need at least one class"));
        }
        if windows.contains(&0) {
            return Err(DcfError::invalid("windows", "contention windows must be at least 1"));
        }
        if counts.contains(&0) {
            return Err(DcfError::invalid("counts", "class multiplicities must be at least 1"));
        }
        let mut classes: Vec<(u32, usize)> = windows.into_iter().zip(counts).collect();
        classes.sort_by_key(|&(w, _)| w);
        let mut merged_windows = Vec::with_capacity(classes.len());
        let mut merged_counts: Vec<usize> = Vec::with_capacity(classes.len());
        for (w, c) in classes {
            if merged_windows.last() == Some(&w) {
                let last = merged_counts.len() - 1;
                merged_counts[last] += c;
            } else {
                merged_windows.push(w);
                merged_counts.push(c);
            }
        }
        Ok(ClassProfile { windows: merged_windows, counts: merged_counts })
    }

    /// Collapses a node-level profile (any order) into its class form,
    /// returning the profile together with the node → class assignment
    /// (`assignment[i]` is the class index of node `i`) used to expand
    /// class-level solutions back onto the original player order.
    ///
    /// # Errors
    ///
    /// Returns [`DcfError::InvalidParameter`] for an empty profile or a
    /// zero window.
    pub fn from_windows(windows: &[u32]) -> Result<(Self, Vec<usize>), DcfError> {
        if windows.is_empty() {
            return Err(DcfError::invalid("windows", "need at least one node"));
        }
        if windows.contains(&0) {
            return Err(DcfError::invalid("windows", "contention windows must be at least 1"));
        }
        if windows.windows(2).all(|pair| pair[0] <= pair[1]) {
            // Sorted input: run-length encode in one pass.
            let profile = Self::from_sorted(windows)?;
            let mut assignment = Vec::with_capacity(windows.len());
            let mut class = 0usize;
            for (i, &w) in windows.iter().enumerate() {
                if i > 0 && w != windows[i - 1] {
                    class += 1;
                }
                assignment.push(class);
            }
            return Ok((profile, assignment));
        }
        let mut distinct = windows.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let mut counts = vec![0usize; distinct.len()];
        let mut assignment = Vec::with_capacity(windows.len());
        for &w in windows {
            let class = distinct
                .binary_search(&w)
                .expect("every window is present in the distinct set built above"); // PANIC-POLICY: unreachable by construction (programmer-error guard)
            counts[class] += 1;
            assignment.push(class);
        }
        Ok((ClassProfile { windows: distinct, counts }, assignment))
    }

    /// Collapses an already-sorted node-level profile without computing an
    /// assignment — the fast path for canonical cache lookups (expansion
    /// in class order *is* node order for sorted input).
    ///
    /// # Errors
    ///
    /// Returns [`DcfError::InvalidParameter`] for an empty profile, a zero
    /// window, or an unsorted input.
    pub fn from_sorted(windows: &[u32]) -> Result<Self, DcfError> {
        if windows.is_empty() {
            return Err(DcfError::invalid("windows", "need at least one node"));
        }
        if windows.contains(&0) {
            return Err(DcfError::invalid("windows", "contention windows must be at least 1"));
        }
        if windows.windows(2).any(|pair| pair[0] > pair[1]) {
            return Err(DcfError::invalid("windows", "profile must be sorted ascending"));
        }
        let mut distinct = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        for &w in windows {
            if distinct.last() == Some(&w) {
                let last = counts.len() - 1;
                counts[last] += 1;
            } else {
                distinct.push(w);
                counts.push(1);
            }
        }
        Ok(ClassProfile { windows: distinct, counts })
    }

    /// Number of classes `k`.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.windows.len()
    }

    /// Total number of nodes `n = Σ_c n_c`.
    #[must_use]
    pub fn total_nodes(&self) -> usize {
        self.counts.iter().sum()
    }

    /// The distinct windows, strictly increasing.
    #[must_use]
    pub fn windows(&self) -> &[u32] {
        &self.windows
    }

    /// Per-class multiplicities, aligned with [`Self::windows`].
    #[must_use]
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }
}

/// Solution of the coupled system in class form: one `(τ_c, p_c)` pair per
/// class of a [`ClassProfile`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassEquilibrium {
    /// Per-class transmission probabilities, aligned with
    /// [`ClassProfile::windows`].
    pub taus: Vec<f64>,
    /// Per-class conditional collision probabilities.
    pub collision_probs: Vec<f64>,
    /// Sweeps used by the iterative solver (always at least 1).
    pub iterations: usize,
}

impl ClassEquilibrium {
    /// Number of classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.taus.len()
    }

    /// Expands onto the original player order through a node → class
    /// assignment (as returned by [`ClassProfile::from_windows`]).
    ///
    /// # Panics
    ///
    /// Panics if an assignment entry is not a valid class index
    /// (programmer error: assignments come from `from_windows`).
    #[must_use]
    pub fn expand(&self, assignment: &[usize]) -> Equilibrium {
        let taus = assignment.iter().map(|&c| self.taus[c]).collect();
        let collision_probs = assignment.iter().map(|&c| self.collision_probs[c]).collect();
        Equilibrium { taus, collision_probs, iterations: self.iterations }
    }

    /// Expands in class order (each class repeated by its multiplicity) —
    /// the node order of the *sorted* profile.
    #[must_use]
    pub fn expand_sorted(&self, profile: &ClassProfile) -> Equilibrium {
        let n = profile.total_nodes();
        let mut taus = Vec::with_capacity(n);
        let mut collision_probs = Vec::with_capacity(n);
        for (c, &count) in profile.counts().iter().enumerate() {
            taus.extend(std::iter::repeat(self.taus[c]).take(count));
            collision_probs.extend(std::iter::repeat(self.collision_probs[c]).take(count));
        }
        Equilibrium { taus, collision_probs, iterations: self.iterations }
    }

    /// Max residual of Eqs. (2)–(3) at the class-level solution — the O(k)
    /// counterpart of [`Equilibrium::residual`].
    ///
    /// # Errors
    ///
    /// Returns [`DcfError::InvalidParameter`] if `profile` disagrees in
    /// class count with the solution.
    pub fn residual(&self, profile: &ClassProfile, params: &DcfParams) -> Result<f64, DcfError> {
        if profile.num_classes() != self.taus.len() {
            return Err(DcfError::invalid("profile", "class count must match solution"));
        }
        let m = params.max_backoff_stage();
        let total_log: f64 = self
            .taus
            .iter()
            .zip(profile.counts())
            .map(|(&t, &c)| (c as f64) * (1.0 - t).max(f64::MIN_POSITIVE).ln())
            .sum();
        let mut worst = 0.0f64;
        for ((&w, &tau), &p_stored) in
            profile.windows().iter().zip(&self.taus).zip(&self.collision_probs)
        {
            let others = (total_log - (1.0 - tau).max(f64::MIN_POSITIVE).ln()).exp();
            let p_c = (1.0 - others).clamp(0.0, 1.0);
            let tau_c = transmission_probability(w, p_c, m)?;
            worst = worst.max((p_c - p_stored).abs());
            worst = worst.max((tau_c - tau).abs());
        }
        Ok(worst)
    }
}

/// The one-deviator profile of `n ≥ 2` nodes — node 0 on `w_dev`, the
/// other `n − 1` on `w` — in class form, held inline: the [`ClassProfile`]
/// of `[w_dev ×1, w ×(n−1)]` without its two `Vec`s. It has one class when
/// `w_dev == w` and two otherwise, in [`ClassProfile`]'s ascending window
/// order, so its class solve
/// ([`crate::fixedpoint::solve_one_deviator_classes`]) runs the same float
/// operations as [`crate::fixedpoint::solve_classes`] on that profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OneDeviatorProfile {
    n: usize,
    w: u32,
    w_dev: u32,
}

impl OneDeviatorProfile {
    /// Builds the profile of `n` nodes with node 0 on `w_dev` and the rest
    /// on `w`.
    ///
    /// # Errors
    ///
    /// Returns [`DcfError::InvalidParameter`] for a zero window (with
    /// [`ClassProfile::new`]'s message) or for `n < 2`.
    pub fn new(n: usize, w: u32, w_dev: u32) -> Result<Self, DcfError> {
        if w == 0 || w_dev == 0 {
            return Err(DcfError::invalid("windows", "contention windows must be at least 1"));
        }
        if n < 2 {
            return Err(DcfError::invalid("n", "a deviator needs at least one other node"));
        }
        Ok(OneDeviatorProfile { n, w, w_dev })
    }

    /// Number of classes: 1 when the deviator plays the crowd's window,
    /// else 2.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        if self.w_dev == self.w {
            1
        } else {
            2
        }
    }

    /// The class windows and multiplicities in ascending window order; only
    /// the first [`Self::num_classes`] entries are classes.
    pub(crate) fn classes(&self) -> ([u32; 2], [usize; 2]) {
        let (n, w, w_dev) = (self.n, self.w, self.w_dev);
        match w_dev.cmp(&w) {
            std::cmp::Ordering::Less => ([w_dev, w], [1, n - 1]),
            std::cmp::Ordering::Equal => ([w, w], [n, 0]),
            std::cmp::Ordering::Greater => ([w, w_dev], [n - 1, 1]),
        }
    }

    /// The class indices of node 0 and of the crowd (both 0 for one
    /// class).
    pub(crate) fn class_of(&self) -> (usize, usize) {
        match self.w_dev.cmp(&self.w) {
            std::cmp::Ordering::Less => (0, 1),
            std::cmp::Ordering::Equal => (0, 0),
            std::cmp::Ordering::Greater => (1, 0),
        }
    }

    /// Per-class values from node 0's value and the crowd's, in class
    /// order. With one class node 0's wins: it is the class's first node in
    /// player order, the node [`crate::fixedpoint::solve_with_guess`]
    /// seeds a class from.
    pub(crate) fn by_class(&self, deviator: f64, crowd: f64) -> [f64; 2] {
        let (dev, rest) = self.class_of();
        let mut values = [0.0; 2];
        values[rest] = crowd;
        values[dev] = deviator;
        values
    }
}

/// Solution of a [`OneDeviatorProfile`]: node 0's `(τ, p)` and every other
/// node's, bitwise equal when the profile has one class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OneDeviatorEquilibrium {
    /// Node 0's transmission and collision probabilities.
    pub deviator: (f64, f64),
    /// Each crowd node's transmission and collision probabilities.
    pub crowd: (f64, f64),
    /// Sweeps used by the iterative solver (always at least 1).
    pub iterations: usize,
}

impl OneDeviatorEquilibrium {
    /// The deviator's and each crowd node's utility rates, priced at class
    /// level: bit for bit what [`class_utilities`] returns for the
    /// deviator's and the crowd's classes of `profile`.
    ///
    /// # Panics
    ///
    /// Panics if a probability is outside `[0, 1]`, as [`class_utilities`]
    /// does.
    #[must_use]
    pub fn class_utilities(
        &self,
        profile: &OneDeviatorProfile,
        params: &DcfParams,
        utility: &UtilityParams,
    ) -> [f64; 2] {
        let k = profile.num_classes();
        let (_, counts) = profile.classes();
        let taus = profile.by_class(self.deviator.0, self.crowd.0);
        let stats = slot_stats_of_classes(&counts[..k], &taus[..k], params);
        [
            utility_rate(self.deviator.0, self.deviator.1, &stats, utility),
            utility_rate(self.crowd.0, self.crowd.1, &stats, utility),
        ]
    }
}

/// [`crate::throughput::slot_stats`] computed from class data in O(k):
/// `Π_i (1−τ_i)` becomes `exp(Σ_c n_c·ln(1−τ_c))` and the single-success
/// probability weights each class's contribution by its multiplicity.
/// Agrees with the node-level computation to floating-point rounding.
///
/// # Panics
///
/// Panics if `taus` does not have one entry per class or contains values
/// outside `[0, 1]` (the profile comes from our own solvers, so this is a
/// programming error, not a recoverable condition).
#[must_use]
pub fn class_slot_stats(profile: &ClassProfile, taus: &[f64], params: &DcfParams) -> SlotStats {
    assert_eq!(taus.len(), profile.num_classes(), "need one τ per class"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
    slot_stats_of_classes(profile.counts(), taus, params)
}

/// [`class_slot_stats`] over class multiplicities `counts` aligned with
/// `taus`, as a [`ClassProfile`] or a [`OneDeviatorProfile`] orders them.
///
/// # Panics
///
/// Panics if a `τ` is outside `[0, 1]`.
fn slot_stats_of_classes(counts: &[usize], taus: &[f64], params: &DcfParams) -> SlotStats {
    // PANIC-POLICY: documented # Panics contract (programmer-error guard)
    assert!(
        taus.iter().all(|t| (0.0..=1.0).contains(t)),
        "transmission probabilities must be in [0, 1]"
    );
    let total_log: f64 = taus
        .iter()
        .zip(counts)
        .map(|(&t, &c)| (c as f64) * (1.0 - t).max(f64::MIN_POSITIVE).ln())
        .sum();
    let all_idle = total_log.exp();
    let p_transmit = 1.0 - all_idle;
    let single: f64 = taus
        .iter()
        .zip(counts)
        .map(|(&t, &c)| {
            let others = (total_log - (1.0 - t).max(f64::MIN_POSITIVE).ln()).exp();
            (c as f64) * t * others
        })
        .sum();
    let p_success = if p_transmit > 0.0 { (single / p_transmit).clamp(0.0, 1.0) } else { 0.0 };
    let t = params.timings();
    let mean_slot = (1.0 - p_transmit) * params.sigma()
        + p_transmit * p_success * t.success_time
        + p_transmit * (1.0 - p_success) * t.collision_time;
    SlotStats { p_transmit, p_success, mean_slot }
}

/// Per-class utilities `u_c = τ_c·((1−p_c)·g − e)/T_slot` — the O(k)
/// counterpart of [`crate::utility::all_utilities`] (every node of a class
/// earns its class's utility).
///
/// # Panics
///
/// Same conditions as [`class_slot_stats`], plus `collision_probs` must
/// have one entry per class in `[0, 1]`.
#[must_use]
pub fn class_utilities(
    profile: &ClassProfile,
    taus: &[f64],
    collision_probs: &[f64],
    params: &DcfParams,
    utility: &UtilityParams,
) -> Vec<f64> {
    assert_eq!(collision_probs.len(), profile.num_classes(), "need one p per class"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
    assert!(
        // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        collision_probs.iter().all(|p| (0.0..=1.0).contains(p)),
        "collision probabilities must be in [0, 1]"
    );
    let stats = class_slot_stats(profile, taus, params);
    taus.iter().zip(collision_probs).map(|(&t, &p)| utility_rate(t, p, &stats, utility)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::throughput::slot_stats;
    use crate::utility::all_utilities;

    #[test]
    fn from_windows_collapses_and_assigns() {
        let (profile, assignment) = ClassProfile::from_windows(&[64, 16, 64, 16, 128]).unwrap();
        assert_eq!(profile.windows(), &[16, 64, 128]);
        assert_eq!(profile.counts(), &[2, 2, 1]);
        assert_eq!(assignment, vec![1, 0, 1, 0, 2]);
        assert_eq!(profile.total_nodes(), 5);
        assert_eq!(profile.num_classes(), 3);
    }

    #[test]
    fn sorted_input_takes_the_rle_fast_path() {
        let (profile, assignment) = ClassProfile::from_windows(&[8, 8, 32, 32, 32]).unwrap();
        assert_eq!(profile, ClassProfile::from_sorted(&[8, 8, 32, 32, 32]).unwrap());
        assert_eq!(assignment, vec![0, 0, 1, 1, 1]);
    }

    #[test]
    fn new_sorts_and_merges_duplicate_classes() {
        let profile = ClassProfile::new(vec![64, 16, 64], vec![3, 2, 4]).unwrap();
        assert_eq!(profile.windows(), &[16, 64]);
        assert_eq!(profile.counts(), &[2, 7]);
        assert_eq!(profile.total_nodes(), 9);
    }

    #[test]
    fn permutations_collapse_to_the_same_profile() {
        let (a, _) = ClassProfile::from_windows(&[16, 64, 256, 64]).unwrap();
        let (b, _) = ClassProfile::from_windows(&[256, 64, 16, 64]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(ClassProfile::from_windows(&[]).is_err());
        assert!(ClassProfile::from_windows(&[0, 4]).is_err());
        assert!(ClassProfile::from_sorted(&[4, 2]).is_err());
        assert!(ClassProfile::new(vec![4], vec![]).is_err());
        assert!(ClassProfile::new(vec![4], vec![0]).is_err());
        assert!(ClassProfile::new(vec![0], vec![1]).is_err());
        assert!(ClassProfile::new(vec![], vec![]).is_err());
    }

    #[test]
    fn expansion_routes_class_values_to_nodes() {
        let (profile, assignment) = ClassProfile::from_windows(&[64, 16, 64]).unwrap();
        let ceq = ClassEquilibrium {
            taus: vec![0.5, 0.25],
            collision_probs: vec![0.1, 0.2],
            iterations: 3,
        };
        let eq = ceq.expand(&assignment);
        assert_eq!(eq.taus, vec![0.25, 0.5, 0.25]);
        assert_eq!(eq.collision_probs, vec![0.2, 0.1, 0.2]);
        assert_eq!(eq.iterations, 3);
        let sorted = ceq.expand_sorted(&profile);
        assert_eq!(sorted.taus, vec![0.5, 0.25, 0.25]);
    }

    #[test]
    fn class_slot_stats_match_node_level() {
        let params = DcfParams::default();
        let windows = [16u32, 16, 64, 64, 64, 256];
        let (profile, assignment) = ClassProfile::from_windows(&windows).unwrap();
        let class_taus = vec![0.11, 0.034, 0.0085];
        let node_taus: Vec<f64> = assignment.iter().map(|&c| class_taus[c]).collect();
        let class_stats = class_slot_stats(&profile, &class_taus, &params);
        let node_stats = slot_stats(&node_taus, &params);
        assert!((class_stats.p_transmit - node_stats.p_transmit).abs() < 1e-14);
        assert!((class_stats.p_success - node_stats.p_success).abs() < 1e-14);
        assert!(
            (class_stats.mean_slot.value() - node_stats.mean_slot.value()).abs()
                < 1e-10 * node_stats.mean_slot.value()
        );
    }

    #[test]
    fn class_utilities_match_node_level() {
        let params = DcfParams::default();
        let utility = UtilityParams::default();
        let windows = [16u32, 16, 64, 256, 256];
        let (profile, assignment) = ClassProfile::from_windows(&windows).unwrap();
        let class_taus = vec![0.11, 0.034, 0.0085];
        let class_ps = vec![0.06, 0.13, 0.15];
        let node_taus: Vec<f64> = assignment.iter().map(|&c| class_taus[c]).collect();
        let node_ps: Vec<f64> = assignment.iter().map(|&c| class_ps[c]).collect();
        let per_class = class_utilities(&profile, &class_taus, &class_ps, &params, &utility);
        let per_node = all_utilities(&node_taus, &node_ps, &params, &utility);
        for (i, &c) in assignment.iter().enumerate() {
            assert!(
                (per_class[c] - per_node[i]).abs() < 1e-12 * per_node[i].abs().max(1.0),
                "node {i} class {c}: {} vs {}",
                per_class[c],
                per_node[i]
            );
        }
    }
}
