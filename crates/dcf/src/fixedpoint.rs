//! Coupled fixed point for heterogeneous contention windows.
//!
//! Combining paper Eqs. (2) and (3) for all nodes gives `2n` equations in
//! the unknowns `τ_1…τ_n, p_1…p_n`:
//!
//! ```text
//! τ_i = τ(W_i, p_i)                  (per-node backoff chain)
//! p_i = 1 − Π_{j≠i} (1 − τ_j)        (collision coupling)
//! ```
//!
//! [`solve`] handles arbitrary window profiles by damped fixed-point
//! iteration; [`solve_symmetric`] exploits the homogeneous case (all nodes
//! on the same `W`), where the scalar map is monotone and a bracketing
//! root search gives a guaranteed, fast solution — this is the path the
//! equilibrium machinery hammers.
//!
//! Since every `τ_i` depends only on node `i`'s window (nodes sharing a
//! window are exchangeable), [`solve`] internally collapses the profile to
//! its [`Classes`] — `k` distinct windows with multiplicities — and
//! iterates `k` class-level pairs via [`solve_classes`], expanding back to
//! a node-level [`Equilibrium`] at the end. The collapse is exact (the
//! class-constant subspace is invariant under the sweep map and contains
//! the fixed point), and makes the per-sweep cost O(k) instead of O(n).
//! [`solve_dense`] keeps the original 2n-dimensional iteration as a
//! reference/ablation baseline.

use macgame_telemetry as telemetry;
use serde::{Deserialize, Serialize};

use crate::classes::{
    check_nodes, ClassEquilibrium, ClassKey, Classes, OneDeviatorEquilibrium, OneDeviatorProfile,
};
use crate::error::{DcfError, SolveAttempt, SolveRung};
use crate::markov::transmission_probability;
use crate::params::DcfParams;

/// Options controlling the heterogeneous fixed-point iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolveOptions {
    /// Maximum number of sweeps before giving up.
    pub max_iterations: usize,
    /// Convergence threshold on the max |Δτ_i| between sweeps.
    pub tolerance: f64,
    /// Damping factor in `(0, 1]`: `τ ← (1−d)·τ + d·τ_new`.
    pub damping: f64,
    /// Whether to switch to Anderson-accelerated undamped sweeps near the
    /// fixed point. `false` reproduces the plain damped iteration —
    /// useful as a baseline for benchmarks and ablations.
    pub accelerate: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions { max_iterations: 20_000, tolerance: 1e-12, damping: 0.5, accelerate: true }
    }
}

/// Solution of the coupled system for a window profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Equilibrium {
    /// Per-node transmission probabilities `τ_i`.
    pub taus: Vec<f64>,
    /// Per-node conditional collision probabilities `p_i`.
    pub collision_probs: Vec<f64>,
    /// Sweeps used by the iterative solver. Always at least 1: homogeneous
    /// profiles are seeded from the symmetric root and verified with one
    /// sweep, so the count stays an honest cost/diagnostic signal.
    pub iterations: usize,
}

impl Equilibrium {
    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.taus.len()
    }

    /// Whether the profile is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.taus.is_empty()
    }

    /// Max residual of Eqs. (2)–(3) at the solution — a direct certificate
    /// of solution quality, independent of the solver path.
    ///
    /// # Errors
    ///
    /// Returns [`DcfError::InvalidParameter`] if `windows` disagrees in
    /// length with the solution.
    pub fn residual(&self, windows: &[u32], params: &DcfParams) -> Result<f64, DcfError> {
        if windows.len() != self.taus.len() {
            return Err(DcfError::invalid("windows", "length must match solution"));
        }
        let m = params.max_backoff_stage();
        let mut worst = 0.0f64;
        for (i, &w) in windows.iter().enumerate() {
            let p_i: f64 = 1.0
                - self
                    .taus
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &t)| 1.0 - t)
                    .product::<f64>();
            let tau_i = transmission_probability(w, p_i, m)?;
            worst = worst.max((p_i - self.collision_probs[i]).abs());
            worst = worst.max((tau_i - self.taus[i]).abs());
        }
        Ok(worst)
    }
}

/// Solves the coupled `(τ, p)` system for an arbitrary window profile.
///
/// Uses damped fixed-point iteration. Without a warm start, homogeneous
/// profiles are seeded from the [`solve_symmetric`] root (one
/// verification sweep confirms it) and heterogeneous profiles start from
/// the collision-free guess `τ_i = 2/(W_i + 1)`. See [`solve_with_guess`]
/// to seed the iteration from a nearby solution.
///
/// # Errors
///
/// * [`DcfError::InvalidParameter`] for an empty profile or a zero window;
/// * [`DcfError::SolveDidNotConverge`] if the sweep residual stays above
///   `options.tolerance`.
///
/// # Examples
///
/// ```
/// use macgame_dcf::fixedpoint::{solve, SolveOptions};
/// use macgame_dcf::params::DcfParams;
///
/// let params = DcfParams::default();
/// let eq = solve(&[32, 32, 64], &params, SolveOptions::default())?;
/// // The aggressive nodes transmit more and see fewer collisions (Lemma 1).
/// assert!(eq.taus[0] > eq.taus[2]);
/// assert!(eq.collision_probs[0] < eq.collision_probs[2]);
/// # Ok::<(), macgame_dcf::DcfError>(())
/// ```
pub fn solve(
    windows: &[u32],
    params: &DcfParams,
    options: SolveOptions,
) -> Result<Equilibrium, DcfError> {
    solve_with_guess(windows, params, options, None)
}

/// Like [`solve`], but optionally seeds the iteration with an initial `τ`
/// guess — typically the solution of a neighboring profile in a scan. A
/// seed inside the accelerated region skips the damped approach phase
/// entirely, and an (almost) exact seed — a cache hit re-verified, or a
/// re-solve of the same profile — converges in one or two sweeps.
///
/// The guess must have one entry per node; entries are clamped into
/// `[0, 1]`. Because the iteration runs in class space, nodes sharing a
/// window are seeded from the guess entry of the first such node in
/// player order. The converged solution does not depend on the guess (the
/// damped map contracts to the same fixed point), only the iteration
/// count does — `iterations` always reports the true number of sweeps
/// (at least 1), including on homogeneous profiles.
///
/// # Errors
///
/// * [`DcfError::InvalidParameter`] for an empty profile, a zero window,
///   a non-finite guess entry, or a guess of the wrong length;
/// * [`DcfError::SolveDidNotConverge`] if the sweep residual stays above
///   `options.tolerance`.
pub fn solve_with_guess(
    windows: &[u32],
    params: &DcfParams,
    options: SolveOptions,
    guess: Option<&[f64]>,
) -> Result<Equilibrium, DcfError> {
    let (profile, assignment) = Classes::collapse(windows)?;
    let n = windows.len();
    if let Some(seed) = guess {
        if seed.len() != n {
            return Err(DcfError::invalid("guess", "length must match windows"));
        }
        if seed.iter().any(|t| !t.is_finite()) {
            return Err(DcfError::invalid("guess", "entries must be finite"));
        }
    }
    let k = profile.num_classes();
    telemetry::counter("dcf.solver.class_collapsed", (n - k) as u64);
    // One guess entry per class: the first node of each class (in player
    // order) seeds it. Duplicated entries for the same window can only
    // disagree transiently, so this changes iteration counts at most.
    let class_guess: Option<Vec<f64>> = guess.map(|seed| {
        let mut cg = vec![f64::NAN; k];
        for (&c, &t) in assignment.iter().zip(seed) {
            if cg[c].is_nan() {
                cg[c] = t;
            }
        }
        cg
    });
    let ceq = solve_classes_with_guess(&profile, params, options, class_guess.as_deref())?;
    Ok(ceq.expand(&assignment))
}

/// Solves the coupled system for a window profile in [`Classes`] form,
/// iterating one `(τ_c, p_c)` pair per class. The per-sweep cost is O(k) regardless of
/// the population size, which is what makes `n = 10^6` populations with a
/// handful of distinct windows as cheap as the paper's `n = 10` tables.
///
/// # Errors
///
/// * [`DcfError::InvalidParameter`] for invalid damping;
/// * [`DcfError::SolveDidNotConverge`] if the sweep residual stays above
///   `options.tolerance`.
pub fn solve_classes(
    profile: &Classes<u32>,
    params: &DcfParams,
    options: SolveOptions,
) -> Result<ClassEquilibrium, DcfError> {
    solve_classes_with_guess(profile, params, options, None)
}

/// Like [`solve_classes`], seeded with one `τ` guess entry per class
/// (clamped into `[0, 1]`) — typically the solution of a neighboring
/// profile with the same class structure.
///
/// # Errors
///
/// Same conditions as [`solve_classes`], plus a guess of the wrong length
/// or with non-finite entries.
pub fn solve_classes_with_guess(
    profile: &Classes<u32>,
    params: &DcfParams,
    options: SolveOptions,
    guess: Option<&[f64]>,
) -> Result<ClassEquilibrium, DcfError> {
    let (windows, counts) = (profile.keys(), profile.counts());
    match windows.len() {
        1 => solve_classes_in::<[f64; 1]>(windows, counts, params, options, guess)
            .map(class_equilibrium),
        2 => solve_classes_in::<[f64; 2]>(windows, counts, params, options, guess)
            .map(class_equilibrium),
        _ => solve_classes_in::<Vec<f64>>(windows, counts, params, options, guess)
            .map(class_equilibrium),
    }
}

/// Moves a [`solve_classes_in`] result into the public solution type.
pub(crate) fn class_equilibrium<S: ClassBuf>(
    (taus, collision_probs, iterations): (S, S, usize),
) -> ClassEquilibrium {
    ClassEquilibrium {
        taus: taus.into_vec(),
        collision_probs: collision_probs.into_vec(),
        iterations,
    }
}

/// [`solve_classes_with_guess`] on the classes `windows` with
/// multiplicities `counts`, as a [`Classes`] stores them, with every
/// per-class value of the solve in `S` storage. Returns
/// `(taus, collision_probs, iterations)`.
pub(crate) fn solve_classes_in<S: ClassBuf>(
    windows: &[u32],
    counts: &[usize],
    params: &DcfParams,
    options: SolveOptions,
    guess: Option<&[f64]>,
) -> Result<(S, S, usize), DcfError> {
    if !(0.0..=1.0).contains(&options.damping) || options.damping == 0.0 {
        return Err(DcfError::invalid("damping", "must be in (0, 1]"));
    }
    let k = windows.len();
    let mut taus = S::zeros(k);
    match guess {
        Some(seed) => {
            if seed.len() != k {
                return Err(DcfError::invalid("guess", "need one entry per class"));
            }
            if seed.iter().any(|t| !t.is_finite()) {
                return Err(DcfError::invalid("guess", "entries must be finite"));
            }
            for (tau, t) in taus.as_mut().iter_mut().zip(seed) {
                *tau = t.clamp(0.0, 1.0);
            }
        }
        None if k == 1 => {
            // Homogeneous: the symmetric root is the fixed point; seeding
            // from it lets the damped iteration confirm convergence in a
            // single sweep while keeping `iterations` an honest count.
            taus.as_mut()[0] = solve_symmetric(counts[0], windows[0], params)?.tau;
        }
        None => {
            for (tau, &w) in taus.as_mut().iter_mut().zip(windows) {
                *tau = 2.0 / (f64::from(w) + 1.0);
            }
        }
    }
    telemetry::counter("dcf.solver.solves", 1);
    if guess.is_some() {
        telemetry::counter("dcf.solver.warm_starts", 1);
    }
    telemetry::histogram("dcf.solver.classes", k as f64);
    iterate_fixed_point(windows, counts, params, options, taus)
}

/// [`solve_with_guess`] on the `n`-entry window vector
/// `[w_dev, w, …, w]`, without building it: the class solve it runs, bit
/// for bit and counter for counter, seeded as it seeds that vector from
/// `guess`'s node-level solution (node 0's `τ` for node 0's class, node
/// 1's for the crowd's). Warm chains over one-deviator profiles
/// ([`crate::parallel::one_deviator_sweep`]) and the upward deviations of
/// an ε-NE row run on it.
///
/// # Errors
///
/// Returns [`DcfError::InvalidParameter`] for a zero window or `n < 2`
/// ([`OneDeviatorProfile::new`]); otherwise as [`solve_with_guess`].
pub fn solve_one_deviator(
    n: usize,
    w: u32,
    w_dev: u32,
    params: &DcfParams,
    options: SolveOptions,
    guess: Option<&OneDeviatorEquilibrium>,
) -> Result<OneDeviatorEquilibrium, DcfError> {
    let profile = OneDeviatorProfile::new(n, w, w_dev)?;
    telemetry::counter("dcf.solver.class_collapsed", (n - profile.num_classes()) as u64);
    solve_one_deviator_classes(&profile, params, options, guess)
}

/// [`solve_classes_with_guess`] on `profile`'s class form, bit for bit
/// and counter for counter, with every per-class value on the stack. A
/// guess seeds node 0's class from its deviator and the crowd's class from
/// its crowd (node 0's alone for one class).
///
/// # Errors
///
/// Same conditions as [`solve_classes_with_guess`].
pub fn solve_one_deviator_classes(
    profile: &OneDeviatorProfile,
    params: &DcfParams,
    options: SolveOptions,
    guess: Option<&OneDeviatorEquilibrium>,
) -> Result<OneDeviatorEquilibrium, DcfError> {
    let k = profile.num_classes();
    let (windows, counts) = profile.classes();
    let seed = guess.map(|prev| profile.by_class(prev.deviator.0, prev.crowd.0));
    let seed = seed.as_ref().map(|seed| &seed[..k]);
    let (taus, collision_probs, iterations) = if k == 1 {
        let (taus, collision_probs, iterations) =
            solve_classes_in::<[f64; 1]>(&windows[..1], &counts[..1], params, options, seed)?;
        ([taus[0]; 2], [collision_probs[0]; 2], iterations)
    } else {
        solve_classes_in::<[f64; 2]>(&windows, &counts, params, options, seed)?
    };
    let (dev, crowd) = profile.class_of();
    Ok(OneDeviatorEquilibrium {
        deviator: (taus[dev], collision_probs[dev]),
        crowd: (taus[crowd], collision_probs[crowd]),
        iterations,
    })
}

/// The original 2n-dimensional node-level iteration, kept as the
/// reference/ablation baseline the class solver is validated against
/// (property tests, the gated conformance agreement claim, and the
/// n-scaling bench). Production callers should use [`solve`], which runs
/// the same two-phase sweep in class space.
///
/// # Errors
///
/// Same conditions as [`solve`].
pub fn solve_dense(
    windows: &[u32],
    params: &DcfParams,
    options: SolveOptions,
) -> Result<Equilibrium, DcfError> {
    check_nodes(windows)?;
    if !(0.0..=1.0).contains(&options.damping) || options.damping == 0.0 {
        return Err(DcfError::invalid("damping", "must be in (0, 1]"));
    }
    let n = windows.len();
    let taus: Vec<f64> = if windows.iter().all(|&w| w == windows[0]) {
        let sym = solve_symmetric(n, windows[0], params)?;
        vec![sym.tau; n]
    } else {
        windows.iter().map(|&w| 2.0 / (f64::from(w) + 1.0)).collect()
    };
    let counts = vec![1usize; n];
    let (taus, collision_probs, iterations) =
        iterate_fixed_point(windows, &counts, params, options, taus)?;
    Ok(Equilibrium { taus, collision_probs, iterations })
}

/// The class iteration of paper Eqs. (2)–(3), shared by the class solver
/// and the dense reference: one [`iterate_sweeps`] run over the map
/// `τ_c ← τ(W_c, p_c)` with `p_c` from [`couple`]. `counts[c]` is the
/// multiplicity of `windows[c]`; the dense path passes all-ones counts,
/// for which every weight multiplies by exactly `1.0`, bitwise-identical
/// to the unweighted sweep.
///
/// Returns `(taus, collision_probs, iterations)` on convergence.
fn iterate_fixed_point<S: ClassBuf>(
    windows: &[u32],
    counts: &[usize],
    params: &DcfParams,
    options: SolveOptions,
    taus: S,
) -> Result<(S, S, usize), DcfError> {
    let m = params.max_backoff_stage();
    let mut logs = S::zeros(windows.len());
    let mut collision_probs = S::zeros(windows.len());
    let (taus, iterations) = iterate_sweeps(counts, options, taus, &DCF_SWEEPS, |taus, sweep| {
        couple(taus, counts, logs.as_mut(), collision_probs.as_mut());
        for ((tau_new, &w), &p) in sweep.iter_mut().zip(windows).zip(collision_probs.as_ref()) {
            *tau_new = transmission_probability(w, p, m)?;
        }
        Ok(())
    })?;
    couple(taus.as_ref(), counts, logs.as_mut(), collision_probs.as_mut());
    Ok((taus, collision_probs, iterations))
}

/// The collision coupling `p_c = 1 − Π_j (1−τ_j)^{n_j} / (1−τ_c)` in log
/// space: `logs[c]` receives `ln(1−τ_c)` (one `ln` per class, not per
/// node) and `collision_probs[c]` receives `p_c`. Returns the total log
/// `Σ_j n_j·ln(1−τ_j)`, the log of the all-idle probability.
pub(crate) fn couple(
    taus: &[f64],
    counts: &[usize],
    logs: &mut [f64],
    collision_probs: &mut [f64],
) -> f64 {
    for (log, &t) in logs.iter_mut().zip(taus) {
        *log = (1.0 - t).max(f64::MIN_POSITIVE).ln();
    }
    let total_log: f64 = logs.iter().zip(counts).map(|(&log, &c)| (c as f64) * log).sum();
    for (p, &log) in collision_probs.iter_mut().zip(logs.iter()) {
        *p = (1.0 - (total_log - log).exp()).clamp(0.0, 1.0);
    }
    total_log
}

/// Per-class `f64` storage of one class solve: `[f64; 1]` and `[f64; 2]`
/// keep the one- and two-class profiles that served queries solve most
/// (symmetric and one-deviator profiles) on the stack, and a `Vec` holds
/// any larger profile. [`iterate_sweeps`] and its clients are generic over
/// it, so every class count runs the one sweep body with the same float
/// operations in the same order; only where the values live changes.
pub(crate) trait ClassBuf: AsRef<[f64]> + AsMut<[f64]> {
    /// `k` zeros; a fixed size must be `k`.
    fn zeros(k: usize) -> Self;

    /// The values as a `Vec`, for the public solution types.
    fn into_vec(self) -> Vec<f64>;
}

impl<const K: usize> ClassBuf for [f64; K] {
    fn zeros(k: usize) -> Self {
        debug_assert_eq!(k, K, "fixed-size class storage of the wrong length");
        [0.0; K]
    }

    fn into_vec(self) -> Vec<f64> {
        self.to_vec()
    }
}

impl ClassBuf for Vec<f64> {
    fn zeros(k: usize) -> Self {
        vec![0.0; k]
    }

    fn into_vec(self) -> Vec<f64> {
        self
    }
}

/// Telemetry names of one [`iterate_sweeps`] client.
pub(crate) struct SweepTelemetry {
    /// Counter (and, with `residual`, histogram) of sweeps per solve.
    pub(crate) iterations: &'static str,
    pub(crate) damped: &'static str,
    pub(crate) accelerated: &'static str,
    pub(crate) failures: &'static str,
    /// Histogram of the converged residual; also turns on the
    /// `iterations` histogram.
    pub(crate) residual: Option<&'static str>,
}

const DCF_SWEEPS: SweepTelemetry = SweepTelemetry {
    iterations: "dcf.solver.iterations",
    damped: "dcf.solver.sweeps.damped",
    accelerated: "dcf.solver.sweeps.accelerated",
    failures: "dcf.solver.failures",
    residual: Some("dcf.solver.residual"),
};

/// Sweep-to-sweep change below which [`iterate_sweeps`] hands the undamped
/// map to Anderson extrapolation.
const ACCEL_THRESHOLD: f64 = 1e-3;

/// The two-phase damped/Anderson(1) iteration behind both class solvers:
/// `map(taus, sweep)` fills `sweep` with the map's image of `taus` (the
/// DCF map, or the EDCA map with its idle root and AIFS thinning).
/// `counts[c]` weights class `c` in the Anderson secant, so the
/// extrapolation matches what the expanded node-level iteration would
/// compute. The buffers live across sweeps in `S` storage: nothing is
/// allocated per sweep, and nothing at all for one or two classes.
///
/// Far from the fixed point the damped map is needed for stability, but
/// its `(1−d)`-dominated linear rate makes the final approach expensive no
/// matter how good the seed was. Once the raw sweep-to-sweep change drops
/// below [`ACCEL_THRESHOLD`] the iteration switches to the undamped map
/// with depth-1 Anderson (secant) extrapolation, which kills the dominant
/// error mode and converges superlinearly — so the total count is
/// dominated by the approach phase, which warm starts skip. If the raw
/// residual ever grows while accelerated, it falls back to plain damping
/// for good (worst case: the plain damped iteration).
///
/// Returns the converged `taus` and the number of sweeps.
pub(crate) fn iterate_sweeps<S: ClassBuf>(
    counts: &[usize],
    options: SolveOptions,
    mut taus: S,
    names: &SweepTelemetry,
    mut map: impl FnMut(&[f64], &mut [f64]) -> Result<(), DcfError>,
) -> Result<(S, usize), DcfError> {
    let k = taus.as_ref().len();
    let mut sweep = S::zeros(k);
    let mut next = S::zeros(k);
    // Anderson history: the previous iterate and its raw sweep image.
    let mut prev_x = S::zeros(k);
    let mut prev_g = S::zeros(k);
    let mut has_hist = false;
    let mut damped_sweeps: u64 = 0;
    let mut accel_sweeps: u64 = 0;
    let mut residual = f64::INFINITY;
    let mut allow_accel = options.accelerate;
    let mut accel = false;
    let mut prev_raw = f64::INFINITY;
    for iter in 0..options.max_iterations {
        map(taus.as_ref(), sweep.as_mut())?;
        let (x, g) = (taus.as_ref(), sweep.as_ref());
        let raw = x.iter().zip(g).fold(0.0f64, |r, (&t, &g)| r.max((g - t).abs()));
        if accel && raw > prev_raw {
            allow_accel = false;
            accel = false;
            has_hist = false;
        } else if allow_accel && raw < ACCEL_THRESHOLD {
            accel = true;
        }
        prev_raw = raw;
        if accel {
            accel_sweeps += 1;
            // Anderson(1): with f_k = G(x_k) − x_k, pick β minimizing the
            // linearized residual of β·f_{k−1} + (1−β)·f_k and combine the
            // images accordingly. The plain undamped step stands in on the
            // first accelerated sweep or a degenerate secant.
            let (next, prev_x, prev_g) = (next.as_mut(), prev_x.as_mut(), prev_g.as_mut());
            let mut stepped = false;
            if has_hist {
                let mut num = 0.0f64;
                let mut den = 0.0f64;
                for i in 0..k {
                    let wc = counts[i] as f64;
                    let f = g[i] - x[i];
                    let df = f - (prev_g[i] - prev_x[i]);
                    num += wc * f * df;
                    den += wc * df * df;
                }
                let beta = if den > 0.0 { num / den } else { 0.0 };
                if beta.is_finite() && beta.abs() <= 5.0 {
                    for i in 0..k {
                        next[i] = (g[i] - beta * (g[i] - prev_g[i])).clamp(0.0, 1.0);
                    }
                    stepped = true;
                }
            }
            if !stepped {
                next.copy_from_slice(g);
            }
            prev_x.copy_from_slice(x);
            prev_g.copy_from_slice(g);
            has_hist = true;
        } else {
            damped_sweeps += 1;
            has_hist = false;
            for ((next, &tau), &tau_new) in next.as_mut().iter_mut().zip(x).zip(g) {
                *next = (1.0 - options.damping) * tau + options.damping * tau_new;
            }
        }
        residual = next
            .as_ref()
            .iter()
            .zip(taus.as_ref())
            .fold(0.0f64, |r, (new, old)| r.max((new - old).abs()));
        std::mem::swap(&mut taus, &mut next);
        // `raw` is the true fixed-point residual |G(x) − x| at the previous
        // iterate; accepting it as a stop certificate keeps Anderson's
        // larger extrapolation steps from masking convergence.
        if residual < options.tolerance || raw < options.tolerance {
            telemetry::counter(names.iterations, iter as u64 + 1);
            telemetry::counter(names.damped, damped_sweeps);
            telemetry::counter(names.accelerated, accel_sweeps);
            if let Some(name) = names.residual {
                telemetry::histogram(names.iterations, (iter + 1) as f64);
                telemetry::histogram(name, raw.min(residual));
            }
            return Ok((taus, iter + 1));
        }
    }
    telemetry::counter(names.failures, 1);
    Err(DcfError::did_not_converge(options.max_iterations, residual))
}

/// Result of the [`solve_robust`] fallback ladder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustSolve {
    /// The converged solution.
    pub equilibrium: Equilibrium,
    /// The rung that produced it. [`SolveRung::Accelerated`] means the
    /// primary solver succeeded and the result is bitwise identical to a
    /// plain [`solve`] with the same options.
    pub rung: SolveRung,
    /// Diagnostics of the rungs that failed before `rung` succeeded
    /// (empty when the primary solver converged).
    pub attempts: Vec<SolveAttempt>,
}

/// Residual bound accepted from the safe mode. The enclosure brackets the
/// fixed point rigorously, but the composed per-equation residual
/// accumulates rounding over `n` nodes, so the certificate is looser than
/// the iterative solver's tolerance.
const SAFE_MODE_RESIDUAL: f64 = 1e-8;

/// Solves the coupled `(τ, p)` system through a fallback ladder, so that
/// [`DcfError::SolveDidNotConverge`] becomes a last resort carrying the
/// full diagnostic trail:
///
/// 1. **Primary** — [`solve`] exactly as configured by `options`. On
///    success the result is bitwise identical to calling [`solve`]
///    directly (nothing about the ladder perturbs the primary path).
/// 2. **Damped retry** — acceleration disabled, damping tightened to
///    `0.6×` the configured value, iteration budget doubled. Catches
///    profiles where Anderson extrapolation oscillates.
/// 3. **Bounded bisection safe mode** — guaranteed bracketing with its
///    own fixed budgets, independent of how starved `options` was.
///    Homogeneous profiles go straight to the monotone scalar root search
///    of [`solve_symmetric`]. Heterogeneous profiles use the interval
///    enclosure of the anti-monotone sweep map `G` (each `τ_i` is
///    decreasing in every other `τ_j`, so `G∘G` is monotone and the pair
///    iteration `l ← G(u), u ← G(l)` from `l = 0, u = G(0)` brackets
///    every fixed point between monotone bounds). When the bracket
///    collapses the midpoint **is** the solution; when it stalls on a
///    two-cycle, a heavily-damped continuation finishes from the bracket
///    midpoint — far inside the basin the enclosure certified.
///
/// # Errors
///
/// * [`DcfError::InvalidParameter`] for an empty profile, a zero window,
///   or invalid damping — input validation is not retried;
/// * [`DcfError::SolveDidNotConverge`] only if all three rungs fail; the
///   `attempts` field then records each rung's iterations and residual.
pub fn solve_robust(
    windows: &[u32],
    params: &DcfParams,
    options: SolveOptions,
) -> Result<RobustSolve, DcfError> {
    telemetry::counter("dcf.solver.robust.solves", 1);
    let mut attempts = Vec::new();
    match solve(windows, params, options) {
        Ok(equilibrium) => {
            return Ok(RobustSolve { equilibrium, rung: SolveRung::Accelerated, attempts })
        }
        Err(DcfError::SolveDidNotConverge { iterations, residual, .. }) => {
            attempts.push(SolveAttempt { rung: SolveRung::Accelerated, iterations, residual });
        }
        Err(other) => return Err(other),
    }
    telemetry::counter("dcf.solver.robust.retries", 1);
    let retry = SolveOptions {
        accelerate: false,
        damping: options.damping * 0.6,
        max_iterations: options.max_iterations.saturating_mul(2).max(1),
        tolerance: options.tolerance,
    };
    match solve(windows, params, retry) {
        Ok(equilibrium) => {
            return Ok(RobustSolve { equilibrium, rung: SolveRung::Damped, attempts })
        }
        Err(DcfError::SolveDidNotConverge { iterations, residual, .. }) => {
            attempts.push(SolveAttempt { rung: SolveRung::Damped, iterations, residual });
        }
        Err(other) => return Err(other),
    }
    telemetry::counter("dcf.solver.robust.safe_mode", 1);
    let ladder_error = |mut attempts: Vec<SolveAttempt>, iterations, residual| {
        attempts.push(SolveAttempt { rung: SolveRung::Bisection, iterations, residual });
        telemetry::counter("dcf.solver.robust.failures", 1);
        DcfError::SolveDidNotConverge {
            iterations: attempts.iter().map(|a| a.iterations).sum(),
            residual,
            attempts,
        }
    };
    match solve_bisection_safe(windows, params, options.tolerance) {
        Ok(equilibrium) => {
            let residual = equilibrium.residual(windows, params)?;
            if residual <= SAFE_MODE_RESIDUAL.max(options.tolerance) {
                Ok(RobustSolve { equilibrium, rung: SolveRung::Bisection, attempts })
            } else {
                let iterations = equilibrium.iterations;
                Err(ladder_error(attempts, iterations, residual))
            }
        }
        Err(DcfError::SolveDidNotConverge { iterations, residual, .. }) => {
            Err(ladder_error(attempts, iterations, residual))
        }
        Err(other) => Err(other),
    }
}

/// The bounded safe mode behind [`solve_robust`]'s last rung. Has its own
/// fixed iteration budgets so that it stays reliable even when the caller
/// starved `SolveOptions::max_iterations`.
fn solve_bisection_safe(
    windows: &[u32],
    params: &DcfParams,
    tolerance: f64,
) -> Result<Equilibrium, DcfError> {
    check_nodes(windows)?;
    let n = windows.len();
    // Homogeneous: the scalar root search is monotone and guaranteed.
    if windows.iter().all(|&w| w == windows[0]) {
        let sym = solve_symmetric(n, windows[0], params)?;
        return Ok(Equilibrium {
            taus: vec![sym.tau; n],
            collision_probs: vec![sym.collision_prob; n],
            iterations: 1,
        });
    }
    let m = params.max_backoff_stage();
    let ones = vec![1usize; n];
    let coupled = |taus: &[f64]| {
        let mut collision_probs = vec![0.0; n];
        couple(taus, &ones, &mut vec![0.0; n], &mut collision_probs);
        collision_probs
    };
    // The undamped sweep map. G_i does not depend on τ_i and is
    // decreasing in every τ_j (j ≠ i): more competition ⇒ more
    // collisions ⇒ slower transmission.
    let sweep = |taus: &[f64]| -> Result<Vec<f64>, DcfError> {
        windows.iter().zip(coupled(taus)).map(|(&w, p)| transmission_probability(w, p, m)).collect()
    };
    // Interval enclosure: anti-monotone G makes G∘G monotone, so from the
    // trivial bracket [0, G(0)] the pair iteration produces lower bounds
    // that only rise and upper bounds that only fall, with every fixed
    // point in between. Either the bracket collapses (solved, with a
    // rigorous certificate) or it stalls on a two-cycle of G.
    let mut lo = vec![0.0f64; n];
    let mut hi = sweep(&lo)?;
    let mut sweeps = 2usize;
    for _ in 0..500 {
        let new_lo = sweep(&hi)?;
        let new_hi = sweep(&lo)?;
        sweeps += 2;
        let moved = new_lo
            .iter()
            .zip(&lo)
            .chain(new_hi.iter().zip(&hi))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        lo = new_lo;
        hi = new_hi;
        let gap = hi.iter().zip(&lo).map(|(h, l)| h - l).fold(0.0f64, f64::max);
        if gap < tolerance.max(1e-14) {
            let taus: Vec<f64> = lo.iter().zip(&hi).map(|(l, h)| 0.5 * (l + h)).collect();
            let collision_probs = coupled(&taus);
            return Ok(Equilibrium { taus, collision_probs, iterations: sweeps });
        }
        if moved < 1e-15 {
            break;
        }
    }
    // Stalled enclosure: finish with a heavily-damped continuation from
    // the bracket midpoint, dropping the damping until one converges.
    let midpoint: Vec<f64> = lo.iter().zip(&hi).map(|(l, h)| 0.5 * (l + h)).collect();
    let mut last = DcfError::did_not_converge(sweeps, f64::INFINITY);
    for damping in [0.25, 0.1, 0.04] {
        let opts = SolveOptions { max_iterations: 60_000, tolerance, damping, accelerate: false };
        match solve_with_guess(windows, params, opts, Some(&midpoint)) {
            Ok(mut eq) => {
                eq.iterations += sweeps;
                return Ok(eq);
            }
            Err(err @ DcfError::SolveDidNotConverge { .. }) => last = err,
            Err(other) => return Err(other),
        }
    }
    Err(last)
}

/// Symmetric operating point: every node on window `w`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SymmetricPoint {
    /// Number of nodes.
    pub n: usize,
    /// Common contention window.
    pub window: u32,
    /// Common transmission probability `τ_c`.
    pub tau: f64,
    /// Common collision probability `p_c = 1 − (1−τ_c)^{n−1}`.
    pub collision_prob: f64,
}

/// Solves the homogeneous fixed point (all `n` nodes on window `w`): the
/// root of `f(τ) = τ − τ(W, 1 − (1−τ)^{n−1})`, which is strictly
/// increasing, so the root is unique — the uniqueness result Bianchi proved
/// for the homogeneous case.
///
/// The root is the midpoint of the final bracket of a bisection on
/// `[0, 1]` that keeps `f(lo) ≤ 0 < f(hi)` until `lo` and `hi` are adjacent
/// floats. That bracket is found directly, by a flip-point search: every
/// operation in the computed `f` is monotone under round-to-nearest, so
/// the predicate `f(τ) ≤ 0` holds on an initial run of the floats in
/// `[0, 1)` and fails after it, and the bracket is the last float of that
/// run and its successor (DESIGN.md §10).
///
/// # Examples
///
/// ```
/// use macgame_dcf::fixedpoint::solve_symmetric;
/// use macgame_dcf::DcfParams;
///
/// // Five nodes at the paper's Table II operating point.
/// let sym = solve_symmetric(5, 76, &DcfParams::default())?;
/// assert!((sym.tau - 0.0226).abs() < 1e-3);
/// assert!((sym.collision_prob - 0.088).abs() < 5e-3);
/// # Ok::<(), macgame_dcf::DcfError>(())
/// ```
///
/// # Errors
///
/// Returns [`DcfError::InvalidParameter`] if `n == 0`, `n > i32::MAX` (the
/// exponent of `(1−τ)^{n−1}` is an `i32`) or `w == 0`.
pub fn solve_symmetric(n: usize, w: u32, params: &DcfParams) -> Result<SymmetricPoint, DcfError> {
    if n == 0 {
        return Err(DcfError::invalid("n", "need at least one node"));
    }
    let others = node_exponent(n)? - 1;
    w.check()?;
    let m = params.max_backoff_stage();
    if n == 1 {
        let tau = transmission_probability(w, 0.0, m)?;
        return Ok(SymmetricPoint { n, window: w, tau, collision_prob: 0.0 });
    }
    telemetry::counter("dcf.solver.bisections", 1);
    let f = |tau: f64| -> Result<f64, DcfError> {
        let p = 1.0 - (1.0 - tau).powi(others);
        Ok(tau - transmission_probability(w, p.clamp(0.0, 1.0), m)?)
    };
    // T(0) = τ(W, 0): the collision-free rate, an upper bound on the root.
    let tau_free = transmission_probability(w, 0.0, m)?;
    let (lo, hi) = flip_bracket(f, tau_free)?;
    let tau = 0.5 * (lo + hi);
    let collision_prob = (1.0 - (1.0 - tau).powi(others)).clamp(0.0, 1.0);
    Ok(SymmetricPoint { n, window: w, tau, collision_prob })
}

/// `n` as the `i32` exponent that `powi` takes.
///
/// # Errors
///
/// Returns [`DcfError::InvalidParameter`] if `n > i32::MAX`.
pub(crate) fn node_exponent(n: usize) -> Result<i32, DcfError> {
    i32::try_from(n).map_err(|_| DcfError::invalid("n", "at most 2147483647 nodes"))
}

/// Regula falsi steps before [`flip_bracket`] hands over to bisection in
/// bit space (which needs at most 62 steps on `[0, 1]`, whose floats have
/// fewer than 2^62 bit patterns). Over n ≤ 128 and W ≤ 256 the whole
/// search takes 13 evaluations of `f` on average, against about 60 for
/// the bisection.
const FLIP_SECANT_STEPS: u32 = 40;

/// Bracket span, in floats, below which [`flip_bracket`] bisects the bit
/// patterns instead of taking secant steps.
const FLIP_BIT_SPAN: u64 = 64;

/// The final bracket `(lo, hi)` of the bisection of `f` on `[0, 1]` that
/// keeps `f(lo) ≤ 0 < f(hi)`: `lo` is the last float in `[0, 1)` with
/// `f(lo) ≤ 0` and `hi` the float after it. `f(τ) = τ − T(τ)` with a
/// computed `T` that is non-increasing in `τ`, so the predicate
/// `f(τ) ≤ 0` is monotone on the floats (true up to a point, false after
/// it) and any search that finds the flip returns that bisection's bits.
/// `tau_free = T(0) > 0`, so `f(0) = −tau_free`.
///
/// The search runs Illinois regula falsi until the bracket spans at most
/// [`FLIP_BIT_SPAN`] floats, then bisects the `u64` bit patterns (ordered
/// like the non-negative floats they encode) until the ends are adjacent.
fn flip_bracket(
    f: impl Fn(f64) -> Result<f64, DcfError>,
    tau_free: f64,
) -> Result<(f64, f64), DcfError> {
    let adjacent = |lo: f64| Ok((lo, f64::from_bits(lo.to_bits() + 1)));
    let (mut lo, mut f_lo) = (0.0f64, -tau_free);
    let (mut hi, mut f_hi) = (1.0f64, f64::NAN);
    if tau_free < 1.0 {
        let f_free = f(tau_free)?;
        if f_free > 0.0 {
            (hi, f_hi) = (tau_free, f_free);
        } else if f_free == 0.0 {
            // `T(x) = x` at `x = tau_free`, so `T(τ) ≤ x < τ` above it.
            return adjacent(tau_free);
        } else {
            (lo, f_lo) = (tau_free, f_free);
        }
    }
    if hi == 1.0 {
        f_hi = f(1.0)?;
        if f_hi <= 0.0 {
            // The predicate holds at 1, so at every float below it.
            return adjacent(f64::from_bits(1.0f64.to_bits() - 1));
        }
    }
    // Illinois: which end the previous step moved (`Some(true)` for `lo`).
    let mut moved_lo: Option<bool> = None;
    for _ in 0..FLIP_SECANT_STEPS {
        let (lo_bits, hi_bits) = (lo.to_bits(), hi.to_bits());
        if hi_bits - lo_bits <= FLIP_BIT_SPAN {
            break;
        }
        let secant = (lo * f_hi - hi * f_lo) / (f_hi - f_lo);
        let x = if secant > lo && secant < hi {
            secant
        } else {
            f64::from_bits(lo_bits + (hi_bits - lo_bits) / 2)
        };
        let fx = f(x)?;
        if fx == 0.0 {
            // `T(x) = x`, so `T(τ) ≤ x < τ` for every τ above `x`.
            return adjacent(x);
        }
        if fx < 0.0 {
            (lo, f_lo) = (x, fx);
            if moved_lo == Some(true) {
                f_hi *= 0.5;
            }
            moved_lo = Some(true);
        } else {
            (hi, f_hi) = (x, fx);
            if moved_lo == Some(false) {
                f_lo *= 0.5;
            }
            moved_lo = Some(false);
        }
    }
    let (mut lo_bits, mut hi_bits) = (lo.to_bits(), hi.to_bits());
    while hi_bits - lo_bits > 1 {
        let mid = lo_bits + (hi_bits - lo_bits) / 2;
        if f(f64::from_bits(mid))? <= 0.0 {
            lo_bits = mid;
        } else {
            hi_bits = mid;
        }
    }
    Ok((f64::from_bits(lo_bits), f64::from_bits(hi_bits)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> DcfParams {
        DcfParams::default()
    }

    #[test]
    fn symmetric_satisfies_equations() {
        let p = params();
        for &(n, w) in &[(2usize, 16u32), (5, 32), (10, 64), (50, 879), (5, 1)] {
            let sym = solve_symmetric(n, w, &p).unwrap();
            let expect_p = 1.0 - (1.0 - sym.tau).powi(n as i32 - 1);
            assert!((sym.collision_prob - expect_p).abs() < 1e-12);
            let expect_tau =
                transmission_probability(w, sym.collision_prob, p.max_backoff_stage()).unwrap();
            assert!(
                (sym.tau - expect_tau).abs() < 1e-10,
                "n={n} w={w}: τ={} expected {}",
                sym.tau,
                expect_tau
            );
        }
    }

    #[test]
    fn single_node_never_collides() {
        let sym = solve_symmetric(1, 31, &params()).unwrap();
        assert_eq!(sym.collision_prob, 0.0);
        assert!((sym.tau - 2.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_matches_symmetric_on_equal_profile() {
        let p = params();
        let eq = solve(&[32; 7], &p, SolveOptions::default()).unwrap();
        let sym = solve_symmetric(7, 32, &p).unwrap();
        for i in 0..7 {
            assert!((eq.taus[i] - sym.tau).abs() < 1e-10);
            assert!((eq.collision_probs[i] - sym.collision_prob).abs() < 1e-10);
        }
    }

    #[test]
    fn heterogeneous_residual_is_tiny() {
        let p = params();
        let windows = [8u32, 16, 32, 64, 128, 256];
        let eq = solve(&windows, &p, SolveOptions::default()).unwrap();
        assert!(eq.residual(&windows, &p).unwrap() < 1e-9);
    }

    #[test]
    fn lemma1_ordering_holds() {
        // W_i > W_j ⇒ p_i > p_j and τ_i < τ_j (paper Lemma 1).
        let p = params();
        let windows = [16u32, 64, 256];
        let eq = solve(&windows, &p, SolveOptions::default()).unwrap();
        assert!(eq.taus[0] > eq.taus[1] && eq.taus[1] > eq.taus[2]);
        assert!(
            eq.collision_probs[0] < eq.collision_probs[1]
                && eq.collision_probs[1] < eq.collision_probs[2]
        );
    }

    #[test]
    fn tau_decreases_as_population_grows() {
        let p = params();
        let mut prev = f64::INFINITY;
        for n in 2..30 {
            let sym = solve_symmetric(n, 32, &p).unwrap();
            assert!(sym.tau < prev);
            prev = sym.tau;
        }
    }

    #[test]
    fn aggressive_windows_converge_too() {
        // W = 1 for everyone: extremely congested but still solvable.
        let p = params();
        let eq = solve(&[1, 1, 1, 1], &p, SolveOptions::default()).unwrap();
        assert!(eq.residual(&[1, 1, 1, 1], &p).unwrap() < 1e-9);
        // Exponential backoff tempers even W = 1: p settles near 0.63.
        assert!(eq.collision_probs[0] > 0.5, "p = {}", eq.collision_probs[0]);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let p = params();
        assert!(solve(&[], &p, SolveOptions::default()).is_err());
        assert!(solve(&[0, 4], &p, SolveOptions::default()).is_err());
        assert!(solve_symmetric(0, 4, &p).is_err());
        let bad = SolveOptions { damping: 0.0, ..SolveOptions::default() };
        assert!(solve(&[2, 4], &p, bad).is_err());
    }

    #[test]
    fn mixed_extreme_profile_converges() {
        let p = params();
        let windows = [1u32, 1024, 1, 1024, 512];
        let eq = solve(&windows, &p, SolveOptions::default()).unwrap();
        assert!(eq.residual(&windows, &p).unwrap() < 1e-8);
    }

    #[test]
    fn homogeneous_iteration_count_is_honest() {
        let p = params();
        let eq = solve(&[64; 5], &p, SolveOptions::default()).unwrap();
        assert!(eq.iterations >= 1, "seeded verification must still sweep");
        // The symmetric root is the fixed point: one confirming sweep.
        assert!(eq.iterations <= 3, "iterations = {}", eq.iterations);
    }

    #[test]
    fn warm_start_cuts_iterations_and_agrees_with_cold() {
        let p = params();
        let options = SolveOptions::default();
        let windows_a = [16u32, 32, 64, 128, 256];
        let windows_b = [16u32, 32, 76, 128, 256];
        let cold_a = solve(&windows_a, &p, options).unwrap();
        let cold_b = solve(&windows_b, &p, options).unwrap();
        let warm_b = solve_with_guess(&windows_b, &p, options, Some(&cold_a.taus)).unwrap();
        assert!(
            warm_b.iterations < cold_b.iterations,
            "warm {} vs cold {}",
            warm_b.iterations,
            cold_b.iterations
        );
        for i in 0..windows_b.len() {
            assert!((warm_b.taus[i] - cold_b.taus[i]).abs() < 10.0 * options.tolerance);
            assert!(
                (warm_b.collision_probs[i] - cold_b.collision_probs[i]).abs()
                    < 10.0 * options.tolerance
            );
        }
    }

    #[test]
    fn warm_start_from_exact_solution_verifies_in_one_sweep() {
        let p = params();
        let options = SolveOptions::default();
        let windows = [8u32, 16, 32, 64];
        let first = solve(&windows, &p, options).unwrap();
        let again = solve_with_guess(&windows, &p, options, Some(&first.taus)).unwrap();
        assert!(again.iterations <= 2, "iterations = {}", again.iterations);
        assert!(again.residual(&windows, &p).unwrap() < 1e-9);
    }

    #[test]
    fn robust_matches_plain_solve_bitwise_on_success() {
        let p = params();
        let options = SolveOptions::default();
        for windows in [vec![32u32; 5], vec![8, 16, 32, 64, 128], vec![1, 1024, 1, 512]] {
            let plain = solve(&windows, &p, options).unwrap();
            let robust = solve_robust(&windows, &p, options).unwrap();
            assert_eq!(robust.rung, SolveRung::Accelerated);
            assert!(robust.attempts.is_empty());
            assert_eq!(robust.equilibrium, plain, "windows {windows:?}");
        }
    }

    #[test]
    fn bisection_safe_mode_agrees_with_plain_solve() {
        let p = params();
        for windows in [vec![32u32; 5], vec![8, 16, 32, 64, 128], vec![1, 1024, 1, 512]] {
            let plain = solve(&windows, &p, SolveOptions::default()).unwrap();
            let safe = solve_bisection_safe(&windows, &p, 1e-12).unwrap();
            assert!(safe.residual(&windows, &p).unwrap() < 1e-9, "windows {windows:?}");
            for i in 0..windows.len() {
                assert!(
                    (safe.taus[i] - plain.taus[i]).abs() < 1e-8,
                    "windows {windows:?} node {i}: {} vs {}",
                    safe.taus[i],
                    plain.taus[i]
                );
            }
        }
    }

    #[test]
    fn ladder_falls_through_to_bisection_with_diagnostics() {
        let p = params();
        // One sweep is never enough for the iterative rungs; the ladder
        // must land on the guaranteed safe mode, carrying both attempts.
        let starved = SolveOptions { max_iterations: 1, ..SolveOptions::default() };
        let robust = solve_robust(&[16, 64, 256], &p, starved).unwrap();
        assert_eq!(robust.rung, SolveRung::Bisection);
        assert_eq!(
            robust.attempts.iter().map(|a| a.rung).collect::<Vec<_>>(),
            vec![SolveRung::Accelerated, SolveRung::Damped]
        );
        assert!(robust.equilibrium.residual(&[16, 64, 256], &p).unwrap() < 1e-8);
    }

    #[test]
    fn robust_propagates_invalid_input_without_retrying() {
        let p = params();
        let err = solve_robust(&[0, 4], &p, SolveOptions::default()).unwrap_err();
        assert!(matches!(err, DcfError::InvalidParameter { .. }));
    }

    #[test]
    fn class_solver_agrees_with_dense_reference() {
        let p = params();
        let options = SolveOptions::default();
        for windows in [
            vec![32u32; 5],
            vec![8, 16, 32, 64, 128],
            vec![76, 76, 1, 76, 512],
            vec![1, 1024, 1, 512],
        ] {
            let class = solve(&windows, &p, options).unwrap();
            let dense = solve_dense(&windows, &p, options).unwrap();
            for i in 0..windows.len() {
                assert!(
                    (class.taus[i] - dense.taus[i]).abs() < 1e-12,
                    "windows {windows:?} node {i}: τ {} vs {}",
                    class.taus[i],
                    dense.taus[i]
                );
                assert!(
                    (class.collision_probs[i] - dense.collision_probs[i]).abs() < 1e-12,
                    "windows {windows:?} node {i}: p {} vs {}",
                    class.collision_probs[i],
                    dense.collision_probs[i]
                );
            }
            assert!(class.residual(&windows, &p).unwrap() < 1e-9);
        }
    }

    #[test]
    fn solve_is_class_collapse_expand_bitwise() {
        // The public node-level path *is* collapse → class solve → expand,
        // so doing those steps by hand must reproduce it exactly.
        let p = params();
        let options = SolveOptions::default();
        for windows in [vec![32u32; 5], vec![16, 48, 96, 192], vec![64, 16, 64, 8]] {
            let eq = solve(&windows, &p, options).unwrap();
            let (profile, assignment) = Classes::collapse(&windows).unwrap();
            let ceq = solve_classes(&profile, &p, options).unwrap();
            assert_eq!(ceq.expand(&assignment), eq, "windows {windows:?}");
        }
    }

    #[test]
    fn rejects_bad_guesses() {
        let p = params();
        let options = SolveOptions::default();
        assert!(solve_with_guess(&[8, 16], &p, options, Some(&[0.1])).is_err());
        assert!(solve_with_guess(&[8, 16], &p, options, Some(&[0.1, f64::NAN])).is_err());
        // An empty profile or a zero window is reported before the guess.
        for windows in [&[][..], &[8, 0]] {
            let invalid = Classes::collapse(windows).unwrap_err();
            assert_eq!(solve_with_guess(windows, &p, options, Some(&[f64::NAN])), Err(invalid));
        }
        // Out-of-range entries are clamped, not rejected.
        let eq = solve_with_guess(&[8, 16], &p, options, Some(&[-0.5, 2.0])).unwrap();
        assert!(eq.residual(&[8, 16], &p).unwrap() < 1e-9);
    }
}
