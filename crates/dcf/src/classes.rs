//! Class-based aggregation of node profiles.
//!
//! Every quantity in the coupled `(τ, p)` system of paper Eqs. (2)–(3)
//! depends on the window profile only through the *multiset* of windows:
//! nodes sharing a window are exchangeable, so a profile with `k` distinct
//! windows has at most `k` distinct `(τ_c, p_c)` pairs. [`Classes`]
//! stores that compressed form — `k` distinct keys with per-class
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
//! A class key is a contention window (`Classes<u32>`, the paper's
//! strategy) or a full EDCA strategy tuple (`Classes<EdcaTuple>`, see
//! [`crate::edca`]); a window is the degenerate tuple, and both key types
//! share one canonical sort-and-merge, one collapse and one expansion.
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

pub(crate) use key::ClassKey;

mod key {
    use crate::error::DcfError;

    /// A class key: a contention window or an EDCA tuple. The module is
    /// private, so no key type outside this crate can implement it.
    pub trait ClassKey: Copy + Ord {
        /// The parameter an error about the key list as a whole names.
        const FIELD: &'static str;

        /// Checks one key.
        ///
        /// # Errors
        ///
        /// Returns [`DcfError::InvalidParameter`] for a key outside its
        /// domain.
        fn check(&self) -> Result<(), DcfError>;
    }
}

impl ClassKey for u32 {
    const FIELD: &'static str = "windows";

    fn check(&self) -> Result<(), DcfError> {
        if *self == 0 {
            return Err(DcfError::invalid("windows", "contention windows must be at least 1"));
        }
        Ok(())
    }
}

/// Checks a node-level key list: non-empty, every key valid.
pub(crate) fn check_nodes<K: ClassKey>(keys: &[K]) -> Result<(), DcfError> {
    if keys.is_empty() {
        return Err(DcfError::invalid(K::FIELD, "need at least one node"));
    }
    keys.iter().try_for_each(ClassKey::check)
}

/// A profile in class form: `k` strictly increasing distinct keys with
/// their multiplicities, keyed by contention window (`Classes<u32>`) or by
/// [`EdcaTuple`] (`Classes<EdcaTuple>`). This is the canonical
/// representation of a key *multiset* — two node-level profiles collapse
/// to the same `Classes` iff they are permutations of each other, so it
/// doubles as the cache key that subsumes permutation canonicalization.
///
/// [`EdcaTuple`]: crate::edca::EdcaTuple
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Classes<K> {
    /// Distinct keys, strictly increasing.
    keys: Vec<K>,
    /// Multiplicity of each key, ≥ 1; their sum fits in a `usize`.
    counts: Vec<usize>,
}

impl<K: ClassKey> Classes<K> {
    /// Builds a profile directly from class keys and multiplicities.
    /// Classes are sorted by key and duplicate keys are merged (their
    /// multiplicities add), so the result is always canonical. This is the
    /// constructor for synthetic large-`n` populations where a node-level
    /// key list would be wasteful.
    ///
    /// # Errors
    ///
    /// Returns [`DcfError::InvalidParameter`], checked in this order, for
    /// an empty profile, mismatched lengths, an invalid key (a zero
    /// window, or a tuple [`crate::edca::EdcaTuple::validate`] rejects), a
    /// zero multiplicity, or multiplicities whose sum overflows `usize`.
    pub fn new(keys: Vec<K>, counts: Vec<usize>) -> Result<Self, DcfError> {
        if keys.is_empty() {
            return Err(DcfError::invalid(K::FIELD, "need at least one class"));
        }
        if keys.len() != counts.len() {
            return Err(DcfError::invalid("counts", "need one multiplicity per class"));
        }
        keys.iter().try_for_each(ClassKey::check)?;
        if counts.contains(&0) {
            return Err(DcfError::invalid("counts", "class multiplicities must be at least 1"));
        }
        let mut classes: Vec<(K, usize)> = keys.into_iter().zip(counts).collect();
        classes.sort_unstable_by_key(|&(key, _)| key);
        let capacity = classes.len();
        Self::merge(classes, capacity)
    }

    /// Collapses a node-level profile (any order) into its class form,
    /// returning the profile together with the node → class assignment
    /// (`assignment[i]` is the class index of node `i`) used to expand
    /// class-level solutions back onto the original player order. Sorted
    /// input is run-length encoded in one pass.
    ///
    /// # Errors
    ///
    /// Returns [`DcfError::InvalidParameter`] for an empty profile or an
    /// invalid key.
    pub fn collapse(keys: &[K]) -> Result<(Self, Vec<usize>), DcfError> {
        check_nodes(keys)?;
        if keys.windows(2).all(|pair| pair[0] <= pair[1]) {
            let profile = Self::merge(keys.iter().map(|&key| (key, 1)), 0)?;
            let assignment = profile.expand(0..profile.num_classes());
            return Ok((profile, assignment));
        }
        Ok(Self::collapse_unsorted(keys))
    }

    /// [`Self::collapse`]'s general path, for checked keys in any order:
    /// sort and dedup a copy, then look every node's class up.
    fn collapse_unsorted(keys: &[K]) -> (Self, Vec<usize>) {
        let mut distinct = keys.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let mut counts = vec![0usize; distinct.len()];
        let mut assignment = Vec::with_capacity(keys.len());
        for key in keys {
            let class = distinct
                .binary_search(key)
                .expect("every key is present in the distinct set built above"); // PANIC-POLICY: unreachable by construction (programmer-error guard)
            counts[class] += 1;
            assignment.push(class);
        }
        (Classes { keys: distinct, counts }, assignment)
    }

    /// Collapses an already-sorted node-level profile without computing an
    /// assignment — the fast path for canonical cache lookups (expansion
    /// in class order *is* node order for sorted input).
    ///
    /// # Errors
    ///
    /// Returns [`DcfError::InvalidParameter`] for an empty profile, an
    /// invalid key, or an unsorted input.
    pub fn from_sorted(keys: &[K]) -> Result<Self, DcfError> {
        check_nodes(keys)?;
        if keys.windows(2).any(|pair| pair[0] > pair[1]) {
            return Err(DcfError::invalid(K::FIELD, "profile must be sorted ascending"));
        }
        Self::merge(keys.iter().map(|&key| (key, 1)), 0)
    }

    /// Merges key-sorted `(key, count)` classes, adding the counts of
    /// equal keys. Every merged count is at most the running total, so
    /// checking that sum checks every merge too.
    fn merge(
        classes: impl IntoIterator<Item = (K, usize)>,
        capacity: usize,
    ) -> Result<Self, DcfError> {
        let mut keys: Vec<K> = Vec::with_capacity(capacity);
        let mut counts: Vec<usize> = Vec::with_capacity(capacity);
        let mut total = 0usize;
        for (key, count) in classes {
            total = total.checked_add(count).ok_or_else(|| {
                DcfError::invalid("counts", "class multiplicities must sum to at most usize::MAX")
            })?;
            match counts.last_mut() {
                Some(last) if keys.last() == Some(&key) => *last += count,
                _ => {
                    keys.push(key);
                    counts.push(count);
                }
            }
        }
        Ok(Classes { keys, counts })
    }
}

impl<K> Classes<K> {
    /// Number of classes `k`.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.keys.len()
    }

    /// Total number of nodes `n = Σ_c n_c`.
    #[must_use]
    pub fn total_nodes(&self) -> usize {
        self.counts.iter().sum()
    }

    /// The distinct keys, strictly increasing.
    #[must_use]
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Per-class multiplicities, aligned with [`Self::keys`].
    #[must_use]
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Node-level values in class order: each class's value (one per
    /// class, in key order) repeated by its multiplicity — the node order
    /// of the *sorted* profile.
    #[must_use]
    pub fn expand<T: Clone>(&self, per_class: impl IntoIterator<Item = T>) -> Vec<T> {
        let mut nodes = Vec::with_capacity(self.total_nodes());
        for (value, &count) in per_class.into_iter().zip(&self.counts) {
            nodes.extend(std::iter::repeat(value).take(count));
        }
        nodes
    }
}

/// Node-level values in player order: node `i` gets the value of its class
/// `assignment[i]` (as [`Classes::collapse`] returns it).
///
/// # Panics
///
/// Panics if an assignment entry is not a valid class index (programmer
/// error: assignments come from [`Classes::collapse`]).
pub(crate) fn gather<T: Copy>(per_class: &[T], assignment: &[usize]) -> Vec<T> {
    assignment.iter().map(|&c| per_class[c]).collect()
}

/// Solution of the coupled system in class form: one `(τ_c, p_c)` pair per
/// class of a window profile [`Classes`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassEquilibrium {
    /// Per-class transmission probabilities, aligned with
    /// [`Classes::keys`].
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
    /// assignment (as returned by [`Classes::collapse`]).
    ///
    /// # Panics
    ///
    /// Panics if an assignment entry is not a valid class index
    /// (programmer error: assignments come from `collapse`).
    #[must_use]
    pub fn expand(&self, assignment: &[usize]) -> Equilibrium {
        Equilibrium {
            taus: gather(&self.taus, assignment),
            collision_probs: gather(&self.collision_probs, assignment),
            iterations: self.iterations,
        }
    }

    /// Expands in class order (each class repeated by its multiplicity) —
    /// the node order of the *sorted* profile.
    #[must_use]
    pub fn expand_sorted(&self, profile: &Classes<u32>) -> Equilibrium {
        Equilibrium {
            taus: profile.expand(self.taus.iter().copied()),
            collision_probs: profile.expand(self.collision_probs.iter().copied()),
            iterations: self.iterations,
        }
    }

    /// Max residual of Eqs. (2)–(3) at the class-level solution — the O(k)
    /// counterpart of [`Equilibrium::residual`].
    ///
    /// # Errors
    ///
    /// Returns [`DcfError::InvalidParameter`] if `profile` disagrees in
    /// class count with the solution.
    pub fn residual(&self, profile: &Classes<u32>, params: &DcfParams) -> Result<f64, DcfError> {
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
            profile.keys().iter().zip(&self.taus).zip(&self.collision_probs)
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
/// other `n − 1` on `w` — in class form, held inline: the [`Classes`]
/// of `[w_dev ×1, w ×(n−1)]` without its two `Vec`s. It has one class when
/// `w_dev == w` and two otherwise, in [`Classes`]'s ascending window
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
    /// [`Classes::new`]'s message) or for `n < 2`.
    pub fn new(n: usize, w: u32, w_dev: u32) -> Result<Self, DcfError> {
        w.check()?;
        w_dev.check()?;
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
pub fn class_slot_stats(profile: &Classes<u32>, taus: &[f64], params: &DcfParams) -> SlotStats {
    assert_eq!(taus.len(), profile.num_classes(), "need one τ per class"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
    slot_stats_of_classes(profile.counts(), taus, params)
}

/// [`class_slot_stats`] over class multiplicities `counts` aligned with
/// `taus`, as a [`Classes`] or a [`OneDeviatorProfile`] orders them.
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
    profile: &Classes<u32>,
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
    use crate::edca::EdcaTuple;
    use crate::throughput::slot_stats;
    use crate::utility::all_utilities;

    fn tuple(cw_min: u32, aifs: u32) -> EdcaTuple {
        EdcaTuple::new(cw_min, 5, aifs, 1).unwrap()
    }

    /// The parameter name and reason of an `InvalidParameter` error.
    fn rejection<T: std::fmt::Debug>(result: Result<T, DcfError>) -> (&'static str, String) {
        match result {
            Err(DcfError::InvalidParameter { name, reason }) => (name, reason),
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn collapse_sorts_merges_and_assigns() {
        let (profile, assignment) = Classes::collapse(&[64u32, 16, 64, 16, 128]).unwrap();
        assert_eq!(profile.keys(), &[16, 64, 128]);
        assert_eq!(profile.counts(), &[2, 2, 1]);
        assert_eq!(assignment, vec![1, 0, 1, 0, 2]);
        assert_eq!(profile.total_nodes(), 5);
        assert_eq!(profile.num_classes(), 3);
        let (a, b) = (tuple(64, 0), tuple(16, 2));
        let (profile, assignment) = Classes::collapse(&[a, b, a, b, a]).unwrap();
        assert_eq!(profile.keys(), &[b, a]);
        assert_eq!(profile.counts(), &[2, 3]);
        assert_eq!(assignment, vec![1, 0, 1, 0, 1]);
        assert_eq!(profile.expand(profile.keys().iter().copied()), vec![b, b, a, a, a]);
    }

    /// On sorted input the run-length fast path and the general path give
    /// the same profile and assignment, and a shuffle of the same nodes
    /// collapses to the same profile with each node on its key's class.
    fn fast_path_is_the_general_path<K: ClassKey + std::fmt::Debug>(
        sorted: &[K],
        next: &mut impl FnMut() -> u64,
    ) {
        let fast = Classes::collapse(sorted).unwrap();
        assert_eq!(fast, Classes::collapse_unsorted(sorted), "{sorted:?}");
        assert_eq!(fast.0, Classes::from_sorted(sorted).unwrap());
        let mut shuffled = sorted.to_vec();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let (profile, assignment) = Classes::collapse(&shuffled).unwrap();
        assert_eq!(profile, fast.0, "{shuffled:?}");
        for (key, &class) in shuffled.iter().zip(&assignment) {
            assert_eq!(profile.keys()[class], *key);
        }
    }

    #[test]
    fn sorted_input_takes_the_rle_fast_path() {
        let (profile, assignment) = Classes::collapse(&[8u32, 8, 32, 32, 32]).unwrap();
        assert_eq!(profile, Classes::from_sorted(&[8, 8, 32, 32, 32]).unwrap());
        assert_eq!(assignment, vec![0, 0, 1, 1, 1]);
        let mut state = 0xC1A5_5E55u64;
        let mut next = move || rand::splitmix64(&mut state);
        for _ in 0..500 {
            let n = 1 + (next() % 40) as usize;
            let mut windows: Vec<u32> = (0..n).map(|_| 1 + (next() % 6) as u32).collect();
            windows.sort_unstable();
            fast_path_is_the_general_path(&windows, &mut next);
            let mut tuples: Vec<EdcaTuple> = (0..n)
                .map(|_| {
                    let (w, m, aifs, txop) = (next() % 3, next() % 2, next() % 3, next() % 2);
                    EdcaTuple::new(16 << w, m as u32, aifs as u32, 1 + txop as u32).unwrap()
                })
                .collect();
            tuples.sort_unstable();
            fast_path_is_the_general_path(&tuples, &mut next);
        }
    }

    #[test]
    fn new_sorts_and_merges_duplicate_classes() {
        let profile = Classes::new(vec![64u32, 16, 64], vec![3, 2, 4]).unwrap();
        assert_eq!(profile.keys(), &[16, 64]);
        assert_eq!(profile.counts(), &[2, 7]);
        assert_eq!(profile.total_nodes(), 9);
        let (a, b) = (tuple(32, 1), tuple(32, 0));
        let profile = Classes::new(vec![a, b, a], vec![2, 1, 3]).unwrap();
        assert_eq!(profile.keys(), &[b, a]);
        assert_eq!(profile.counts(), &[1, 5]);
    }

    #[test]
    fn permutations_collapse_to_the_same_profile() {
        let (a, _) = Classes::collapse(&[16u32, 64, 256, 64]).unwrap();
        let (b, _) = Classes::collapse(&[256u32, 64, 16, 64]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_invalid_inputs_by_field_and_reason() {
        let empty = "need at least one class";
        let no_nodes = "need at least one node";
        let mismatch = "need one multiplicity per class";
        let zero_window = "contention windows must be at least 1";
        let zero_count = "class multiplicities must be at least 1";
        let overflow = "class multiplicities must sum to at most usize::MAX";
        let unsorted = "profile must be sorted ascending";
        let max = usize::MAX;
        // An invalid tuple reports `EdcaTuple::validate`'s reason.
        let (ok, bad) = (tuple(16, 0), EdcaTuple { cw_min: 16, stage_cap: 5, aifs: 0, txop: 0 });
        let (ok_low, bad_txop) = (tuple(8, 0), rejection(bad.validate()).1);
        let bad_txop = bad_txop.as_str();
        let cases = [
            (rejection(Classes::<u32>::new(vec![], vec![])), ("windows", empty)),
            (rejection(Classes::new(vec![4u32], vec![])), ("counts", mismatch)),
            (rejection(Classes::new(vec![4u32, 0], vec![1, 0])), ("windows", zero_window)),
            (rejection(Classes::new(vec![4u32], vec![0])), ("counts", zero_count)),
            (rejection(Classes::new(vec![4u32, 4], vec![max, 1])), ("counts", overflow)),
            (rejection(Classes::new(vec![4u32, 8], vec![max, 1])), ("counts", overflow)),
            (rejection(Classes::<u32>::collapse(&[])), ("windows", no_nodes)),
            (rejection(Classes::collapse(&[4u32, 0])), ("windows", zero_window)),
            (rejection(Classes::<u32>::from_sorted(&[])), ("windows", no_nodes)),
            (rejection(Classes::from_sorted(&[0u32, 4])), ("windows", zero_window)),
            (rejection(Classes::from_sorted(&[4u32, 2])), ("windows", unsorted)),
            (rejection(OneDeviatorProfile::new(3, 4, 0)), ("windows", zero_window)),
            (rejection(Classes::<EdcaTuple>::new(vec![], vec![])), ("tuples", empty)),
            (rejection(Classes::new(vec![ok], vec![1, 2])), ("counts", mismatch)),
            (rejection(Classes::new(vec![ok, bad], vec![0, 1])), ("txop", bad_txop)),
            (rejection(Classes::new(vec![ok], vec![0])), ("counts", zero_count)),
            (rejection(Classes::new(vec![ok, ok], vec![max, 1])), ("counts", overflow)),
            (rejection(Classes::new(vec![ok, ok_low], vec![1, max])), ("counts", overflow)),
            (rejection(Classes::<EdcaTuple>::collapse(&[])), ("tuples", no_nodes)),
            (rejection(Classes::collapse(&[ok, bad])), ("txop", bad_txop)),
            (rejection(Classes::<EdcaTuple>::from_sorted(&[])), ("tuples", no_nodes)),
            (rejection(Classes::from_sorted(&[bad, ok])), ("txop", bad_txop)),
            (rejection(Classes::from_sorted(&[ok, ok_low])), ("tuples", unsorted)),
        ];
        for (i, ((name, reason), expected)) in cases.into_iter().enumerate() {
            assert_eq!((name, reason.as_str()), expected, "case {i}");
        }
    }

    #[test]
    fn multiplicities_up_to_usize_max_are_kept() {
        let profile = Classes::new(vec![8u32, 4], vec![usize::MAX - 1, 1]).unwrap();
        assert_eq!(profile.counts(), &[1, usize::MAX - 1]);
        assert_eq!(profile.total_nodes(), usize::MAX);
        let profile = Classes::new(vec![4u32, 4], vec![usize::MAX - 1, 1]).unwrap();
        assert_eq!(profile.counts(), &[usize::MAX]);
    }

    #[test]
    fn expansion_routes_class_values_to_nodes() {
        let (profile, assignment) = Classes::collapse(&[64u32, 16, 64]).unwrap();
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
        let (profile, assignment) = Classes::collapse(&windows).unwrap();
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
        let (profile, assignment) = Classes::collapse(&windows).unwrap();
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
