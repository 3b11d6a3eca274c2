//! EDCA strategy tuples `(CWmin, m, AIFS, TXOP)` and the generalized
//! fixed point (802.11e-style selfishness, per Banchs et al.).
//!
//! The paper fixes the selfish strategy space to the initial contention
//! window; this module lifts the stage game to the full EDCA knob set:
//!
//! * `CWmin` — the initial contention window `W`, exactly as before;
//! * `m` — the per-class maximum backoff stage (CWmax = `2^m·W`);
//! * `AIFS` — the arbitration inter-frame space, modeled as a per-class
//!   *defer count* `d_c = AIFS_c − min_j AIFS_j`: a class only contends in
//!   slots preceded by at least `d_c` consecutive idle slots, which thins
//!   its effective attempt rate to `τ̃_c = τ_c·q^{d_c}` where `q` is the
//!   idle-slot probability (see DESIGN.md §16 for the derivation);
//! * `TXOP` — the burst length `K_c`: a successful access delivers `K_c`
//!   frames back-to-back under one transmission opportunity, occupying
//!   the channel for [`DcfParams::txop_success_time`].
//!
//! The idle root `q` is the unique solution of the scalar consistency
//! equation `q = Π_c (1 − τ_c·q^{d_c})^{n_c}` (LHS strictly increasing,
//! RHS non-increasing on `[0, 1]`), found by bisection that runs until the
//! bracket stops moving (at most 64 steps) — a pure function of the `τ`
//! vector, deterministic to the bit.
//!
//! Everything degenerates exactly: a profile with equal AIFS, unit TXOP
//! and the ambient maximum backoff stage is routed to the scalar class
//! solver ([`crate::fixedpoint::solve_classes`]), so degenerate solves are
//! **bitwise identical** to the paper's CW-only model. A dense per-node
//! reference iteration ([`solve_edca_dense`]) is kept for differential
//! testing of the class-aggregated path, mirroring
//! [`crate::fixedpoint::solve_dense`].

use macgame_telemetry as telemetry;
use serde::{Deserialize, Serialize};

use crate::classes::{check_nodes, gather, ClassKey, Classes};
use crate::error::DcfError;
use crate::fixedpoint::{
    couple, iterate_sweeps, solve_classes_in, ClassBuf, SolveOptions, SweepTelemetry,
};
use crate::markov::transmission_probability;
use crate::params::DcfParams;
use crate::units::MicroSecs;
use crate::utility::UtilityParams;

/// Largest accepted maximum backoff stage, matching the
/// [`crate::params::DcfParamsBuilder`] bound.
pub const MAX_STAGE_CAP: u32 = 16;

/// Largest accepted AIFS defer distance. `q^{d}` underflows to an
/// effectively silent class long before this; the bound only rejects
/// nonsensical inputs.
pub const MAX_AIFS: u32 = 64;

/// Largest accepted TXOP burst length (frames per opportunity).
pub const MAX_TXOP: u32 = 64;

/// Cap on the bisection steps for the idle-root `q`. A bracket that
/// settles earlier stops there, with the same root.
const IDLE_ROOT_BISECTIONS: u32 = 64;

/// One EDCA strategy: the four knobs a selfish 802.11e node can turn.
///
/// The derived lexicographic order (`cw_min`, then `stage_cap`, `aifs`,
/// `txop`) is the canonical class order of a tuple-keyed [`Classes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdcaTuple {
    /// Initial contention window `W` (CWmin), at least 1.
    pub cw_min: u32,
    /// Maximum backoff stage `m` (CW doubles up to `2^m·W`), at most
    /// [`MAX_STAGE_CAP`].
    pub stage_cap: u32,
    /// AIFS slot count. Only differences matter: the class with the
    /// smallest AIFS defines the slot process and defers zero slots.
    pub aifs: u32,
    /// TXOP burst length `K` in frames per successful access, in
    /// `1..=`[`MAX_TXOP`].
    pub txop: u32,
}

impl EdcaTuple {
    /// Builds a validated tuple.
    ///
    /// # Errors
    ///
    /// Returns [`DcfError::InvalidParameter`] when `cw_min` is zero,
    /// `stage_cap > `[`MAX_STAGE_CAP`], `aifs > `[`MAX_AIFS`], or `txop`
    /// is outside `1..=`[`MAX_TXOP`].
    pub fn new(cw_min: u32, stage_cap: u32, aifs: u32, txop: u32) -> Result<Self, DcfError> {
        let tuple = EdcaTuple { cw_min, stage_cap, aifs, txop };
        tuple.validate()?;
        Ok(tuple)
    }

    /// The paper's CW-only strategy lifted into the tuple space: window
    /// `w`, the ambient maximum backoff stage, baseline AIFS, single-frame
    /// TXOP. Solving a profile of legacy tuples is bitwise identical to
    /// the scalar solver.
    ///
    /// # Errors
    ///
    /// Returns [`DcfError::InvalidParameter`] when `w` is zero.
    pub fn legacy(w: u32, params: &DcfParams) -> Result<Self, DcfError> {
        EdcaTuple::new(w, params.max_backoff_stage(), 0, 1)
    }

    /// Re-checks the field invariants (the fields are public, so a
    /// hand-rolled struct may bypass [`EdcaTuple::new`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`EdcaTuple::new`].
    pub fn validate(&self) -> Result<(), DcfError> {
        if self.cw_min == 0 {
            return Err(DcfError::invalid("cw_min", "contention window must be at least 1"));
        }
        if self.stage_cap > MAX_STAGE_CAP {
            return Err(DcfError::invalid("stage_cap", "must be at most 16"));
        }
        if self.aifs > MAX_AIFS {
            return Err(DcfError::invalid("aifs", "must be at most 64"));
        }
        if self.txop == 0 || self.txop > MAX_TXOP {
            return Err(DcfError::invalid("txop", "burst length must be in 1..=64"));
        }
        Ok(())
    }
}

impl ClassKey for EdcaTuple {
    const FIELD: &'static str = "tuples";

    fn check(&self) -> Result<(), DcfError> {
        self.validate()
    }
}

/// The EDCA view of a tuple-keyed profile. Two node populations that are
/// permutations of each other collapse to the same profile, which is what
/// keys million-node solves at O(k).
impl Classes<EdcaTuple> {
    /// The smallest AIFS in the profile — the class that defines the slot
    /// process.
    #[must_use]
    pub fn min_aifs(&self) -> u32 {
        // PANIC-POLICY: constructors reject empty profiles — the minimum exists.
        self.keys().iter().map(|t| t.aifs).min().expect("profile is never empty")
    }

    /// Per-class AIFS defer distances `d_c = AIFS_c − min_j AIFS_j`.
    #[must_use]
    pub fn aifs_defers(&self) -> Vec<u32> {
        let min = self.min_aifs();
        self.keys().iter().map(|t| t.aifs - min).collect()
    }

    /// Whether the profile degenerates to the paper's CW-only model under
    /// `params`: equal AIFS everywhere, single-frame TXOP everywhere, and
    /// the ambient maximum backoff stage everywhere. Degenerate profiles
    /// are solved by delegation to the scalar class solver, bitwise.
    #[must_use]
    pub fn is_degenerate(&self, params: &DcfParams) -> bool {
        let aifs = self.keys()[0].aifs;
        self.keys()
            .iter()
            .all(|t| t.aifs == aifs && t.txop == 1 && t.stage_cap == params.max_backoff_stage())
    }
}

/// Class-level solution of the EDCA fixed point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdcaEquilibrium {
    /// Per-class chain transmission probabilities `τ_c` (the Bianchi
    /// attempt rate of a class's backoff chain, before AIFS thinning).
    pub taus: Vec<f64>,
    /// Per-class AIFS-thinned attempt rates `τ̃_c = τ_c·q^{d_c}` — what a
    /// slot-level observer measures as attempts per slot.
    pub thinned_taus: Vec<f64>,
    /// Per-class conditional collision probabilities `p_c` over the
    /// thinned slot process.
    pub collision_probs: Vec<f64>,
    /// The idle-root `q`: the probability a random slot is idle,
    /// self-consistent with the thinned attempt rates. Exactly the
    /// all-idle product when every defer is zero.
    pub idle_root: f64,
    /// Sweeps used by the iterative solver (delegated degenerate solves
    /// report the scalar solver's count).
    pub iterations: usize,
}

impl EdcaEquilibrium {
    /// Number of classes (or nodes, for dense solutions).
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.taus.len()
    }

    /// Routes class-level values back to node level through an
    /// `assignment` produced by [`Classes::collapse`].
    ///
    /// # Panics
    ///
    /// Panics if the assignment references a class this equilibrium does
    /// not have (a programming error: assignment and equilibrium must
    /// come from the same profile).
    #[must_use]
    pub fn expand(&self, assignment: &[usize]) -> EdcaEquilibrium {
        EdcaEquilibrium {
            taus: gather(&self.taus, assignment),
            thinned_taus: gather(&self.thinned_taus, assignment),
            collision_probs: gather(&self.collision_probs, assignment),
            idle_root: self.idle_root,
            iterations: self.iterations,
        }
    }
}

/// Solves the idle-root consistency equation
/// `q = Π_c (1 − τ_c·q^{d_c})^{n_c}` by bisection on `[0, 1]`. The
/// right-hand side is non-increasing in `q` and the left strictly
/// increasing, so the root is unique. The loop stops at the first step
/// whose midpoint rounds onto an endpoint: that step's update leaves the
/// bracket unchanged or collapses it, so every later step of the 64-step
/// cap would repeat it and the root is bitwise the same as running them.
/// With every defer zero the equation is not really in `q`;
/// [`edca_coupling`] takes the all-idle product directly instead.
fn idle_root(taus: &[f64], defers: &[u32], counts: &[usize]) -> f64 {
    let rhs = |q: f64| -> f64 {
        let log: f64 = taus
            .iter()
            .zip(defers)
            .zip(counts)
            .map(|((&t, &d), &c)| {
                let thinned = t * q.powi(d as i32);
                (c as f64) * (1.0 - thinned).max(f64::MIN_POSITIVE).ln()
            })
            .sum();
        log.exp()
    };
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    for _ in 0..IDLE_ROOT_BISECTIONS {
        let mid = 0.5 * (lo + hi);
        let settled = mid == lo || mid == hi;
        if rhs(mid) >= mid {
            lo = mid;
        } else {
            hi = mid;
        }
        if settled {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// One evaluation of the coupled EDCA map at a `τ` vector: returns the
/// idle root and fills `thinned` with the thinned rates and
/// `collision_probs` with the per-class conditional collision
/// probabilities over the thinned slot process (`logs` is scratch).
fn edca_coupling(
    taus: &[f64],
    defers: &[u32],
    counts: &[usize],
    thinned: &mut [f64],
    logs: &mut [f64],
    collision_probs: &mut [f64],
) -> f64 {
    if defers.iter().all(|&d| d == 0) {
        // The equation is not really in `q`: every `τ_c·q⁰` is `τ_c`, and
        // `q` is the all-idle product, whose log `couple` sums over the
        // thinned rates (which makes the degenerate idle root bitwise the
        // scalar model's). The iterates are never negative, so clamping
        // them changes no `ln(1−τ_c)` term (a `τ_c ≥ 1` gives the same
        // floor either way).
        for (out, &t) in thinned.iter_mut().zip(taus) {
            *out = t.clamp(0.0, 1.0);
        }
        return couple(thinned, counts, logs, collision_probs).exp();
    }
    let q = idle_root(taus, defers, counts);
    for ((out, &t), &d) in thinned.iter_mut().zip(taus).zip(defers) {
        *out = (t * q.powi(d as i32)).clamp(0.0, 1.0);
    }
    couple(thinned, counts, logs, collision_probs);
    q
}

const EDCA_SWEEPS: SweepTelemetry = SweepTelemetry {
    iterations: "dcf.edca.iterations",
    damped: "dcf.edca.sweeps.damped",
    accelerated: "dcf.edca.sweeps.accelerated",
    failures: "dcf.edca.failures",
    residual: None,
};

/// The EDCA class iteration in `S` storage: one [`iterate_sweeps`] run
/// over the map `τ_c ← τ(W_c, p_c, m_c)`, with the idle-root/thinning
/// coupling evaluated inside every sweep. It starts cold, from the
/// zero-collision attempt rate `2/(W+1)` per class, the same heuristic
/// the scalar solver uses for heterogeneous cold starts.
fn iterate_edca<S: ClassBuf>(
    tuples: &[EdcaTuple],
    counts: &[usize],
    options: SolveOptions,
) -> Result<EdcaEquilibrium, DcfError> {
    let k = tuples.len();
    // PANIC-POLICY: internal callers always pass a tuple per count.
    assert_eq!(counts.len(), k, "need one count per class");
    let min_aifs = tuples.iter().map(|t| t.aifs).min().unwrap_or(0);
    let defers: Vec<u32> = tuples.iter().map(|t| t.aifs - min_aifs).collect();
    let mut taus = S::zeros(k);
    for (tau, tuple) in taus.as_mut().iter_mut().zip(tuples) {
        *tau = 2.0 / (f64::from(tuple.cw_min) + 1.0);
    }
    let mut thinned = S::zeros(k);
    let mut logs = S::zeros(k);
    let mut collision_probs = S::zeros(k);
    let (taus, iterations) = iterate_sweeps(counts, options, taus, &EDCA_SWEEPS, |taus, sweep| {
        edca_coupling(
            taus,
            &defers,
            counts,
            thinned.as_mut(),
            logs.as_mut(),
            collision_probs.as_mut(),
        );
        for ((tau_new, tuple), &p) in sweep.iter_mut().zip(tuples).zip(collision_probs.as_ref()) {
            *tau_new = transmission_probability(tuple.cw_min, p, tuple.stage_cap)?;
        }
        Ok(())
    })?;
    let idle_root = edca_coupling(
        taus.as_ref(),
        &defers,
        counts,
        thinned.as_mut(),
        logs.as_mut(),
        collision_probs.as_mut(),
    );
    Ok(EdcaEquilibrium {
        taus: taus.into_vec(),
        thinned_taus: thinned.into_vec(),
        collision_probs: collision_probs.into_vec(),
        idle_root,
        iterations,
    })
}

/// Solves the EDCA fixed point at class level — `k` coupled `(τ_c, p_c)`
/// pairs plus the scalar idle root, independent of the population size.
///
/// Degenerate profiles ([`Classes::is_degenerate`]) are delegated to
/// the scalar class solver, so their solutions are **bitwise identical**
/// to [`crate::fixedpoint::solve_classes`] on the collapsed windows.
///
/// # Errors
///
/// Returns [`DcfError::InvalidParameter`] for a damping factor outside
/// `(0, 1]` and [`DcfError::SolveDidNotConverge`] if the iteration
/// exhausts its budget.
pub fn solve_edca(
    profile: &Classes<EdcaTuple>,
    params: &DcfParams,
    options: SolveOptions,
) -> Result<EdcaEquilibrium, DcfError> {
    match profile.num_classes() {
        1 => solve_edca_in::<[f64; 1]>(profile, params, options),
        2 => solve_edca_in::<[f64; 2]>(profile, params, options),
        _ => solve_edca_in::<Vec<f64>>(profile, params, options),
    }
}

/// [`solve_edca`] with every per-class value of its solve in `S` storage.
pub(crate) fn solve_edca_in<S: ClassBuf>(
    profile: &Classes<EdcaTuple>,
    params: &DcfParams,
    options: SolveOptions,
) -> Result<EdcaEquilibrium, DcfError> {
    if !(options.damping > 0.0 && options.damping <= 1.0) {
        return Err(DcfError::invalid("damping", "must be in (0, 1]"));
    }
    telemetry::counter("dcf.edca.solves", 1);
    if profile.is_degenerate(params) {
        telemetry::counter("dcf.edca.degenerate_delegations", 1);
        // Distinct degenerate tuples differ only in cw_min, so the
        // windows are already sorted and distinct in class order.
        let windows: Vec<u32> = profile.keys().iter().map(|t| t.cw_min).collect();
        let (taus, collision_probs, iterations) =
            solve_classes_in::<S>(&windows, profile.counts(), params, options, None)?;
        let k = profile.num_classes();
        let total_log =
            couple(taus.as_ref(), profile.counts(), S::zeros(k).as_mut(), S::zeros(k).as_mut());
        let taus = taus.into_vec();
        return Ok(EdcaEquilibrium {
            thinned_taus: taus.clone(),
            taus,
            collision_probs: collision_probs.into_vec(),
            idle_root: total_log.exp(),
            iterations,
        });
    }
    iterate_edca::<S>(profile.keys(), profile.counts(), options)
}

/// Dense per-node reference solve: every node is its own class (all
/// counts 1), iterated with the same two-phase map and **no** degenerate
/// delegation — the differential-testing twin of [`solve_edca`],
/// mirroring [`crate::fixedpoint::solve_dense`].
///
/// # Errors
///
/// Same conditions as [`solve_edca`], plus an empty tuple list is
/// rejected.
pub fn solve_edca_dense(
    tuples: &[EdcaTuple],
    options: SolveOptions,
) -> Result<EdcaEquilibrium, DcfError> {
    check_nodes(tuples)?;
    if !(options.damping > 0.0 && options.damping <= 1.0) {
        return Err(DcfError::invalid("damping", "must be in (0, 1]"));
    }
    let counts = vec![1usize; tuples.len()];
    iterate_edca::<Vec<f64>>(tuples, &counts, options)
}

/// Probabilistic description of a random slot of the EDCA-thinned
/// process, with TXOP-weighted busy times.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdcaSlotStats {
    /// Probability a random slot is idle (the equilibrium idle root).
    pub idle_rate: f64,
    /// Per-class unconditional success rate: the probability a random
    /// slot carries a successful access by some node of class `c`.
    pub success_rates: Vec<f64>,
    /// Probability a random slot carries a collision.
    pub collision_rate: f64,
    /// Mean slot duration, weighting each class's successes by its TXOP
    /// burst time [`DcfParams::txop_success_time`].
    pub mean_slot: MicroSecs,
}

impl EdcaSlotStats {
    /// Total unconditional success rate over all classes.
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        self.success_rates.iter().sum()
    }
}

/// Computes [`EdcaSlotStats`] for a solved profile.
///
/// # Panics
///
/// Panics if the equilibrium's class count disagrees with the profile or
/// a thinned rate is outside `[0, 1]` (solutions come from our own
/// solvers, so this is a programmer-error guard).
#[must_use]
pub fn edca_slot_stats(
    profile: &Classes<EdcaTuple>,
    eq: &EdcaEquilibrium,
    params: &DcfParams,
) -> EdcaSlotStats {
    let k = profile.num_classes();
    assert_eq!(eq.num_classes(), k, "need one class solution per class"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
    assert!(
        // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        eq.thinned_taus.iter().all(|t| (0.0..=1.0).contains(t)),
        "thinned attempt rates must be in [0, 1]"
    );
    let counts = profile.counts();
    let total_log: f64 = eq
        .thinned_taus
        .iter()
        .zip(counts)
        .map(|(&t, &c)| (c as f64) * (1.0 - t).max(f64::MIN_POSITIVE).ln())
        .sum();
    let idle_rate = total_log.exp();
    let success_rates: Vec<f64> = eq
        .thinned_taus
        .iter()
        .zip(counts)
        .map(|(&t, &c)| {
            let others = (total_log - (1.0 - t).max(f64::MIN_POSITIVE).ln()).exp();
            (c as f64) * t * others
        })
        .collect();
    let success_total: f64 = success_rates.iter().sum();
    let collision_rate = (1.0 - idle_rate - success_total).max(0.0);
    let collision_time = params.timings().collision_time;
    let mut mean_slot = idle_rate * params.sigma() + collision_rate * collision_time;
    for (rate, tuple) in success_rates.iter().zip(profile.keys()) {
        mean_slot += *rate * params.txop_success_time(tuple.txop);
    }
    EdcaSlotStats { idle_rate, success_rates, collision_rate, mean_slot }
}

/// Normalized saturation throughput of the EDCA slot process: the
/// fraction of channel time carrying successful payload bits, counting
/// every frame of a TXOP burst.
///
/// # Panics
///
/// Same conditions as [`edca_slot_stats`].
#[must_use]
pub fn edca_throughput(
    profile: &Classes<EdcaTuple>,
    eq: &EdcaEquilibrium,
    params: &DcfParams,
) -> f64 {
    let stats = edca_slot_stats(profile, eq, params);
    let frames: f64 = stats
        .success_rates
        .iter()
        .zip(profile.keys())
        .map(|(rate, tuple)| rate * f64::from(tuple.txop))
        .sum();
    frames * (params.payload_time() / stats.mean_slot)
}

/// Per-class utilities over the thinned slot process,
/// `u_c = τ̃_c·((1 − p_c)·g·K_c − e)/T_slot`: a successful access earns
/// the gain `g` per delivered frame (`K_c` of them), an attempt pays the
/// energy cost `e` once per transmission opportunity. With `K = 1` and
/// zero defers this is exactly the paper's utility.
///
/// # Panics
///
/// Same conditions as [`edca_slot_stats`], plus the collision
/// probabilities must be in `[0, 1]`.
#[must_use]
pub fn edca_utilities(
    profile: &Classes<EdcaTuple>,
    eq: &EdcaEquilibrium,
    params: &DcfParams,
    utility: &UtilityParams,
) -> Vec<f64> {
    // PANIC-POLICY: documented # Panics contract (programmer-error guard)
    assert!(
        eq.collision_probs.iter().all(|p| (0.0..=1.0).contains(p)),
        "collision probabilities must be in [0, 1]"
    );
    let stats = edca_slot_stats(profile, eq, params);
    eq.thinned_taus
        .iter()
        .zip(&eq.collision_probs)
        .zip(profile.keys())
        .map(|((&t, &p), tuple)| {
            t * ((1.0 - p) * utility.gain * f64::from(tuple.txop) - utility.cost)
                / stats.mean_slot.value()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::class_utilities;
    use crate::fixedpoint::solve;

    fn params() -> DcfParams {
        DcfParams::default()
    }

    fn tuple(w: u32, m: u32, aifs: u32, txop: u32) -> EdcaTuple {
        EdcaTuple::new(w, m, aifs, txop).unwrap()
    }

    #[test]
    fn tuple_validation() {
        assert!(EdcaTuple::new(0, 5, 0, 1).is_err());
        assert!(EdcaTuple::new(32, 17, 0, 1).is_err());
        assert!(EdcaTuple::new(32, 5, 65, 1).is_err());
        assert!(EdcaTuple::new(32, 5, 0, 0).is_err());
        assert!(EdcaTuple::new(32, 5, 0, 65).is_err());
        assert!(EdcaTuple::new(32, 5, 64, 64).is_ok());
        let hand_rolled = EdcaTuple { cw_min: 8, stage_cap: 3, aifs: 2, txop: 4 };
        assert!(hand_rolled.validate().is_ok());
    }

    #[test]
    fn degeneracy_detection() {
        let p = params();
        let m = p.max_backoff_stage();
        let deg = Classes::collapse(&[tuple(16, m, 3, 1), tuple(64, m, 3, 1)]).unwrap().0;
        assert!(deg.is_degenerate(&p));
        assert_eq!(deg.aifs_defers(), vec![0, 0]);
        let aifs = Classes::collapse(&[tuple(16, m, 0, 1), tuple(64, m, 1, 1)]).unwrap().0;
        assert!(!aifs.is_degenerate(&p));
        assert_eq!(aifs.aifs_defers(), vec![0, 1]);
        let txop = Classes::collapse(&[tuple(16, m, 0, 2)]).unwrap().0;
        assert!(!txop.is_degenerate(&p));
        let stage = Classes::collapse(&[tuple(16, m - 1, 0, 1)]).unwrap().0;
        assert!(!stage.is_degenerate(&p));
    }

    #[test]
    fn degenerate_solve_is_bitwise_the_scalar_solve() {
        let p = params();
        let windows = [16u32, 48, 48, 96, 192];
        let tuples: Vec<EdcaTuple> =
            windows.iter().map(|&w| EdcaTuple::legacy(w, &p).unwrap()).collect();
        let (profile, assignment) = Classes::collapse(&tuples).unwrap();
        let edca = solve_edca(&profile, &p, SolveOptions::default()).unwrap().expand(&assignment);
        let scalar = solve(&windows, &p, SolveOptions::default()).unwrap();
        assert_eq!(edca.taus, scalar.taus);
        assert_eq!(edca.thinned_taus, scalar.taus);
        assert_eq!(edca.collision_probs, scalar.collision_probs);
    }

    #[test]
    fn class_agrees_with_dense_reference() {
        let p = params();
        let m = p.max_backoff_stage();
        let tuples = [
            tuple(16, m, 0, 1),
            tuple(16, m, 0, 1),
            tuple(32, m, 1, 2),
            tuple(32, m, 1, 2),
            tuple(128, 3, 2, 4),
        ];
        let (profile, assignment) = Classes::collapse(&tuples).unwrap();
        let class = solve_edca(&profile, &p, SolveOptions::default()).unwrap().expand(&assignment);
        let dense = solve_edca_dense(&tuples, SolveOptions::default()).unwrap();
        for i in 0..tuples.len() {
            assert!((class.taus[i] - dense.taus[i]).abs() <= 1e-12);
            assert!((class.thinned_taus[i] - dense.thinned_taus[i]).abs() <= 1e-12);
            assert!((class.collision_probs[i] - dense.collision_probs[i]).abs() <= 1e-12);
        }
        assert!((class.idle_root - dense.idle_root).abs() <= 1e-12);
    }

    #[test]
    fn aifs_thins_the_deferring_class() {
        let p = params();
        let m = p.max_backoff_stage();
        let (profile, _) = Classes::collapse(&[
            tuple(32, m, 0, 1),
            tuple(32, m, 0, 1),
            tuple(32, m, 0, 1),
            tuple(32, m, 2, 1),
        ])
        .unwrap();
        let eq = solve_edca(&profile, &p, SolveOptions::default()).unwrap();
        assert!(eq.idle_root > 0.0 && eq.idle_root < 1.0);
        // The deferring class (same window) attempts strictly less often.
        assert!(eq.thinned_taus[1] < eq.thinned_taus[0]);
        assert!((eq.thinned_taus[1] - eq.taus[1] * eq.idle_root.powi(2)).abs() < 1e-15);
        // The favored class sees fewer competing attempts than in the
        // equal-AIFS network.
        let (equal, _) = Classes::collapse(&[tuple(32, m, 0, 1); 4]).unwrap();
        let eq_equal = solve_edca(&equal, &p, SolveOptions::default()).unwrap();
        assert!(eq.collision_probs[0] < eq_equal.collision_probs[0]);
    }

    #[test]
    fn idle_root_consistency() {
        // q must satisfy q = Π_c (1 − τ_c·q^{d_c})^{n_c} at the solution.
        let p = params();
        let m = p.max_backoff_stage();
        let (profile, _) =
            Classes::collapse(&[tuple(16, m, 0, 1), tuple(64, m, 1, 2), tuple(64, m, 3, 1)])
                .unwrap();
        let eq = solve_edca(&profile, &p, SolveOptions::default()).unwrap();
        let defers = profile.aifs_defers();
        let product: f64 = eq
            .taus
            .iter()
            .zip(&defers)
            .zip(profile.counts())
            .map(|((&t, &d), &c)| (1.0 - t * eq.idle_root.powi(d as i32)).powi(c as i32))
            .product();
        assert!((product - eq.idle_root).abs() < 1e-12, "q = {}, Π = {product}", eq.idle_root);
    }

    #[test]
    fn slot_stats_partition_and_degenerate_identity() {
        let p = params();
        let m = p.max_backoff_stage();
        let (profile, _) = Classes::collapse(&[tuple(16, m, 0, 2), tuple(64, m, 1, 1)]).unwrap();
        let eq = solve_edca(&profile, &p, SolveOptions::default()).unwrap();
        let stats = edca_slot_stats(&profile, &eq, &p);
        let total = stats.idle_rate + stats.success_rate() + stats.collision_rate;
        assert!((total - 1.0).abs() < 1e-12);
        assert!(stats.mean_slot.value() > 0.0);

        // Degenerate profiles reproduce the scalar slot statistics.
        let windows = [16u32, 64, 64];
        let tuples: Vec<EdcaTuple> =
            windows.iter().map(|&w| EdcaTuple::legacy(w, &p).unwrap()).collect();
        let (deg, _) = Classes::collapse(&tuples).unwrap();
        let deg_eq = solve_edca(&deg, &p, SolveOptions::default()).unwrap();
        let deg_stats = edca_slot_stats(&deg, &deg_eq, &p);
        let classes = Classes::collapse(&windows).unwrap().0;
        let scalar = crate::classes::class_slot_stats(&classes, &deg_eq.taus, &p);
        assert!((deg_stats.idle_rate - (1.0 - scalar.p_transmit)).abs() < 1e-15);
        assert!((deg_stats.success_rate() - scalar.success_rate()).abs() < 1e-15);
        assert!(
            (deg_stats.mean_slot.value() - scalar.mean_slot.value()).abs()
                < 1e-9 * scalar.mean_slot.value()
        );
    }

    #[test]
    fn utilities_degenerate_to_class_utilities() {
        let p = params();
        let windows = [32u32, 76, 76, 128];
        let tuples: Vec<EdcaTuple> =
            windows.iter().map(|&w| EdcaTuple::legacy(w, &p).unwrap()).collect();
        let (profile, _) = Classes::collapse(&tuples).unwrap();
        let eq = solve_edca(&profile, &p, SolveOptions::default()).unwrap();
        let u = UtilityParams::default();
        let edca_u = edca_utilities(&profile, &eq, &p, &u);
        let classes = Classes::collapse(&windows).unwrap().0;
        let class_u = class_utilities(&classes, &eq.taus, &eq.collision_probs, &p, &u);
        for (a, b) in edca_u.iter().zip(&class_u) {
            assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn txop_bursts_raise_throughput_and_utility() {
        let p = params();
        let m = p.max_backoff_stage();
        let u = UtilityParams::default();
        let single = Classes::collapse(&[tuple(76, m, 0, 1); 5]).unwrap().0;
        let burst = Classes::collapse(&[tuple(76, m, 0, 4); 5]).unwrap().0;
        let eq_single = solve_edca(&single, &p, SolveOptions::default()).unwrap();
        let eq_burst = solve_edca(&burst, &p, SolveOptions::default()).unwrap();
        // τ is a chain property: same window ⇒ same τ (the two solves
        // take different paths — degenerate delegation vs the generic
        // iteration — so agreement is to solver tolerance, not bitwise).
        assert!((eq_single.taus[0] - eq_burst.taus[0]).abs() <= 1e-12);
        let s1 = edca_throughput(&single, &eq_single, &p);
        let s4 = edca_throughput(&burst, &eq_burst, &p);
        assert!(s4 > s1, "burst throughput {s4} vs single {s1}");
        let u1 = edca_utilities(&single, &eq_single, &p, &u)[0];
        let u4 = edca_utilities(&burst, &eq_burst, &p, &u)[0];
        assert!(u4 > u1);
    }

    #[test]
    fn solver_rejects_bad_options() {
        let p = params();
        let (profile, _) = Classes::collapse(&[tuple(32, 5, 0, 1)]).unwrap();
        let options = SolveOptions { damping: 0.0, ..SolveOptions::default() };
        assert!(solve_edca(&profile, &p, options).is_err());
        assert!(solve_edca_dense(&[], SolveOptions::default()).is_err());
    }

    /// The fixed 64-step bisection that `idle_root` cuts short at the
    /// bracket's fixed point.
    fn idle_root_64_steps(taus: &[f64], defers: &[u32], counts: &[usize]) -> f64 {
        let rhs = |q: f64| -> f64 {
            let log: f64 = taus
                .iter()
                .zip(defers)
                .zip(counts)
                .map(|((&t, &d), &c)| {
                    let thinned = t * q.powi(d as i32);
                    (c as f64) * (1.0 - thinned).max(f64::MIN_POSITIVE).ln()
                })
                .sum();
            log.exp()
        };
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if rhs(mid) >= mid {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    #[test]
    fn idle_root_is_bitwise_the_64_step_bisection() {
        let check = |taus: &[f64], defers: &[u32], counts: &[usize]| {
            assert_eq!(
                idle_root(taus, defers, counts).to_bits(),
                idle_root_64_steps(taus, defers, counts).to_bits(),
                "τ {taus:?}, defers {defers:?}, counts {counts:?}"
            );
        };
        // The solver corner grid: symmetric roots, alone and against the
        // most aggressive window, at AIFS defers up to the cap.
        for m in 0..=10 {
            let p = DcfParams::builder().max_backoff_stage(m).build().unwrap();
            for n in [1usize, 2, 3, 10, 128, 1_000, 1_000_000] {
                let aggressive = crate::fixedpoint::solve_symmetric(n, 1, &p).unwrap().tau;
                for w in [1u32, 2, 31, 1024, 1 << 16] {
                    let tau = crate::fixedpoint::solve_symmetric(n, w, &p).unwrap().tau;
                    for d in [0u32, 1, 2, 7, MAX_AIFS] {
                        check(&[tau], &[d], &[n]);
                        check(&[aggressive, tau], &[0, d], &[1, n]);
                        check(&[tau, aggressive], &[0, d], &[n, 1]);
                    }
                }
            }
        }
        // Seeded random class profiles, edge probabilities included.
        let mut state = 0x1D1Eu64;
        let mut next = move || rand::splitmix64(&mut state);
        for _ in 0..5_000 {
            let k = 1 + (next() % 5) as usize;
            let mut taus = Vec::with_capacity(k);
            let mut defers = Vec::with_capacity(k);
            let mut counts = Vec::with_capacity(k);
            for _ in 0..k {
                taus.push(match next() % 6 {
                    0 => 0.0,
                    1 => 1.0,
                    2 => 1e-6 * (next() >> 11) as f64 / (1u64 << 53) as f64,
                    _ => (next() >> 11) as f64 / (1u64 << 53) as f64,
                });
                defers.push((next() % u64::from(MAX_AIFS + 1)) as u32 * u32::from(next() % 3 != 0));
                counts.push([1usize, 2, 3, 10, 128, 1_000, 1_000_000][(next() % 7) as usize]);
            }
            check(&taus, &defers, &counts);
        }
    }
}
