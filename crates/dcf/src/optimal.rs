//! Symmetric optimum: the efficient operating point `(τ_c*, W_c*)` and the
//! Nash-equilibrium interval `[W_c⁰, W_c*]` (paper Section V, Lemma 3,
//! Theorem 2).
//!
//! Along the symmetric diagonal (all nodes at the same `τ_c`), the utility
//! `U_i(Γ_c)` is unimodal with a unique maximizer `τ_c*` characterized (for
//! `g ≫ e`) by the root of
//!
//! ```text
//! Q(τ) = (1−τ)^n·σ − [n·τ + (1−τ)^n − 1]·T_c
//! ```
//!
//! which is strictly decreasing with `Q(0) = σ > 0` and
//! `Q(1) = −(n−1)·T_c < 0`. (The paper's printed `Q` is typographically
//! corrupt; this form is re-derived from `∂U_i/∂τ_c = 0` — the `T_s − T_c`
//! terms cancel exactly — and matches all the sign/monotonicity claims of
//! the Lemma 3 proof.)
//!
//! `W_c*` itself is found exactly, as the integer argmax of the *full*
//! utility (including the attempt cost `e`) over the strategy space.

use serde::{Deserialize, Serialize};

use crate::error::DcfError;
use crate::fixedpoint::{node_exponent, solve_symmetric, SymmetricPoint};
use crate::markov::MAX_CW;
use crate::params::DcfParams;
use crate::utility::{symmetric_node_utility, SymmetricSolution, UtilityParams};

/// Default upper bound of the contention-window strategy space
/// `W = {1, …, W_max}`.
pub const DEFAULT_W_MAX: u32 = 4096;

/// The optimality indicator `Q(τ)` for `n` symmetric nodes (see module docs).
///
/// Positive while `U_i(Γ_c)` is increasing in `τ_c`, negative once it is
/// decreasing; its unique root is `τ_c*`.
///
/// # Panics
///
/// Panics if `n < 2`, `n > i32::MAX` or `τ ∉ [0, 1]`.
#[must_use]
pub fn q_function(tau: f64, n: usize, params: &DcfParams) -> f64 {
    assert!(n >= 2, "the symmetric optimum needs at least two contenders"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
    assert!(i32::try_from(n).is_ok(), "n must fit the i32 exponent"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
    assert!((0.0..=1.0).contains(&tau), "τ must be in [0, 1]"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
    let sigma = params.sigma().value();
    let tc = params.timings().collision_time.value();
    let idle = (1.0 - tau).powi(n as i32);
    idle * sigma - (n as f64 * tau + idle - 1.0) * tc
}

/// The optimal symmetric transmission probability `τ_c*` (root of `Q`).
///
/// # Examples
///
/// ```
/// use macgame_dcf::optimal::{optimal_tau, q_function};
/// use macgame_dcf::DcfParams;
///
/// let params = DcfParams::default();
/// let tau_star = optimal_tau(5, &params)?;
/// // τ* is exactly where the optimality indicator crosses zero.
/// assert!(q_function(tau_star, 5, &params).abs() < 1e-6);
/// # Ok::<(), macgame_dcf::DcfError>(())
/// ```
///
/// # Errors
///
/// Returns [`DcfError::InvalidParameter`] if `n < 2` or `n > i32::MAX`
/// (the exponent of `(1−τ)^n` is an `i32`).
pub fn optimal_tau(n: usize, params: &DcfParams) -> Result<f64, DcfError> {
    if n < 2 {
        return Err(DcfError::invalid("n", "need at least two contenders"));
    }
    node_exponent(n)?;
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    // Stops at the bracket's fixed point: once `mid` rounds onto an
    // endpoint, every later step repeats this one. `Q` cancels in
    // `n·τ + idle − 1`, so its computed sign is not provably monotone and
    // the flip-point search of `solve_symmetric` does not apply.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let settled = mid == lo || mid == hi;
        if q_function(mid, n, params) >= 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
        if settled {
            break;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Utility of each node when all `n` nodes operate on window `w`
/// (solves the symmetric fixed point, then evaluates the full utility).
///
/// # Errors
///
/// Propagates [`DcfError`] from the fixed-point solver.
pub fn symmetric_utility(
    n: usize,
    w: u32,
    params: &DcfParams,
    utility: &UtilityParams,
) -> Result<f64, DcfError> {
    Ok(params.symmetric(n, w)?.utility(utility))
}

/// The efficient Nash equilibrium of the symmetric game: the window
/// maximizing each node's (and hence the global) payoff.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EfficientNe {
    /// `W_c*`: the payoff-maximizing common contention window.
    pub window: u32,
    /// The symmetric operating point at `W_c*`.
    pub point: SymmetricPoint,
    /// Per-node utility (per µs) at `W_c*`.
    pub utility: f64,
    /// `τ_c*`: the continuous optimum from the `Q`-root, for reference.
    pub tau_star: f64,
}

/// Where the searches in this module get their symmetric `(n, W)`
/// operating points: the DCF parameters themselves, which bisect afresh
/// through [`solve_symmetric`], or a [`crate::cache::SolveCache`] bound to
/// them, which memoizes that bisection. Both return the same bits for the
/// same point, so a search answers bitwise the same from either.
pub trait SymmetricSource {
    /// The DCF parameters every point is solved under.
    fn params(&self) -> &DcfParams;

    /// The operating point of `n` nodes on window `w`, with its slot
    /// statistics.
    ///
    /// # Errors
    ///
    /// As [`solve_symmetric`].
    fn symmetric(&self, n: usize, w: u32) -> Result<SymmetricSolution, DcfError>;

    /// [`efficient_cw`] of `n` nodes under `utility` over `1..=w_max`,
    /// searched over this source's symmetric points. A source may memoize
    /// the whole answer; it must return the search's bits.
    ///
    /// # Errors
    ///
    /// As [`efficient_cw`].
    fn efficient_cw(
        &self,
        n: usize,
        utility: &UtilityParams,
        w_max: u32,
    ) -> Result<EfficientNe, DcfError> {
        search_efficient_cw(self, n, utility, w_max)
    }
}

impl SymmetricSource for DcfParams {
    fn params(&self) -> &DcfParams {
        self
    }

    fn symmetric(&self, n: usize, w: u32) -> Result<SymmetricSolution, DcfError> {
        Ok(SymmetricSolution::new(solve_symmetric(n, w, self)?, self))
    }
}

/// Finds `W_c*` by exponential bracketing plus ternary search, exploiting
/// the unimodality of the symmetric utility in `W` (paper Section V.A),
/// with a local exhaustive sweep at the end to absorb numerical plateaus.
/// Tests check it against the exhaustive scan
/// [`crate::reference::efficient_cw_scan`].
///
/// The search runs over `1..=min(w_max, MAX_CW)`: no window past
/// [`MAX_CW`] has an operating point, so a larger bound answers as
/// `MAX_CW` does. An argmax at a bound `w_max < MAX_CW` is the answer
/// within the strategy space; one at `MAX_CW` is not an optimum at all.
///
/// # Errors
///
/// Returns [`DcfError::InvalidParameter`] if `w_max == 0` and
/// [`DcfError::WindowCapReached`] if the argmax is `MAX_CW`; propagates
/// solver errors.
pub fn efficient_cw(
    n: usize,
    params: &DcfParams,
    utility: &UtilityParams,
    w_max: u32,
) -> Result<EfficientNe, DcfError> {
    search_efficient_cw(params, n, utility, w_max)
}

/// The search behind [`efficient_cw`], with its symmetric points drawn
/// from `source`; [`SymmetricSource::efficient_cw`] runs it by default.
pub(crate) fn search_efficient_cw<S: SymmetricSource + ?Sized>(
    source: &S,
    n: usize,
    utility: &UtilityParams,
    w_max: u32,
) -> Result<EfficientNe, DcfError> {
    if w_max == 0 {
        return Err(DcfError::invalid("w_max", "strategy space must be non-empty"));
    }
    let w_max = w_max.min(MAX_CW);
    if n < 2 {
        // A lone node maximizes by transmitting as often as possible.
        let u = source.symmetric(1, 1)?.utility(utility);
        return finish_efficient(source, 1.max(n), 1, u);
    }
    let u_at = |w: u32| -> Result<f64, DcfError> { Ok(source.symmetric(n, w)?.utility(utility)) };
    // Exponential bracketing: find w where utility stops improving.
    let mut hi = 2u32;
    let mut prev = u_at(1)?;
    while hi <= w_max {
        let cur = u_at(hi)?;
        if cur < prev {
            break;
        }
        prev = cur;
        hi = hi.saturating_mul(2);
    }
    let hi = hi.min(w_max);
    let mut lo = 1u32;
    let mut hi = hi;
    while hi - lo > 8 {
        let m1 = lo + (hi - lo) / 3;
        let m2 = hi - (hi - lo) / 3;
        if u_at(m1)? < u_at(m2)? {
            lo = m1 + 1;
        } else {
            hi = m2 - 1;
        }
    }
    // Final local sweep (widened to tolerate near-flat tops).
    let sweep_lo = lo.saturating_sub(8).max(1);
    let sweep_hi = (hi + 8).min(w_max);
    let mut best_w = sweep_lo;
    let mut best_u = f64::NEG_INFINITY;
    for w in sweep_lo..=sweep_hi {
        let u = u_at(w)?;
        if u > best_u {
            best_u = u;
            best_w = w;
        }
    }
    if best_w == MAX_CW {
        return Err(DcfError::WindowCapReached { n, cap: MAX_CW });
    }
    finish_efficient(source, n, best_w, best_u)
}

pub(crate) fn finish_efficient<S: SymmetricSource + ?Sized>(
    source: &S,
    n: usize,
    window: u32,
    utility: f64,
) -> Result<EfficientNe, DcfError> {
    let point = source.symmetric(n, window)?.point;
    let tau_star = if n >= 2 { optimal_tau(n, source.params())? } else { point.tau };
    Ok(EfficientNe { window, point, utility, tau_star })
}

/// Finds `W_c*` the way the paper's Section V development does: compute the
/// continuous optimum `τ_c*` under the `g ≫ e` simplification (the `Q`
/// root of Lemma 3) and map it back into the discrete strategy space with
/// [`cw_for_tau`].
///
/// This differs slightly from the exact argmax of [`efficient_cw`] because
/// the attempt cost `e` flattens and shifts the utility's maximum; the
/// paper's Table II/III values track this variant for RTS/CTS (where the
/// optimum is flat) and both variants agree to a few units in basic mode.
///
/// # Errors
///
/// Propagates [`DcfError`] from [`optimal_tau`] and [`cw_for_tau`].
pub fn efficient_cw_from_tau_star(
    n: usize,
    params: &DcfParams,
    w_max: u32,
) -> Result<EfficientNe, DcfError> {
    let tau_star = optimal_tau(n, params)?;
    let window = cw_for_tau(tau_star, n, params, w_max)?;
    let point = solve_symmetric(n, window, params)?;
    let utility = symmetric_node_utility(&point, params, &UtilityParams::default());
    Ok(EfficientNe { window, point, utility, tau_star })
}

/// The break-even window `W_c⁰`: the smallest `W` at which the symmetric
/// utility is non-negative, i.e. `U_i(W_c⁰, …) ≥ 0` while one step lower is
/// negative (paper Theorem 2). Returns 1 if even `W = 1` is profitable.
/// Like [`efficient_cw`], it searches `1..=min(w_max, MAX_CW)`.
fn break_even_cw_in<S: SymmetricSource + ?Sized>(
    source: &S,
    n: usize,
    utility: &UtilityParams,
    w_max: u32,
) -> Result<u32, DcfError> {
    let w_max = w_max.min(MAX_CW);
    let positive =
        |w: u32| -> Result<bool, DcfError> { Ok(source.symmetric(n, w)?.utility(utility) >= 0.0) };
    if positive(1)? {
        return Ok(1);
    }
    if !positive(w_max)? {
        return Err(DcfError::invalid(
            "w_max",
            format!("no window in [1, {w_max}] yields non-negative utility for n = {n}"),
        ));
    }
    let (mut lo, mut hi) = (1u32, w_max); // utility(lo) < 0 ≤ utility(hi)
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if positive(mid)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(hi)
}

/// The interval of symmetric Nash equilibria `[W_c⁰, W_c*]` (Theorem 2):
/// every common window in this range is a NE of the repeated game under
/// TFT; only the upper endpoint is efficient.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NeInterval {
    /// `W_c⁰`: smallest window whose symmetric payoff is non-negative.
    pub lower: u32,
    /// `W_c*`: the efficient (payoff-maximizing) window.
    pub upper: u32,
}

impl NeInterval {
    /// Number of symmetric NE, `W_c* − W_c⁰ + 1`.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.upper - self.lower + 1
    }

    /// Whether a common window `w` is one of the symmetric NE.
    #[must_use]
    pub fn contains(&self, w: u32) -> bool {
        (self.lower..=self.upper).contains(&w)
    }
}

/// Computes the NE interval `[W_c⁰, W_c*]` for `n` players: `W_c*` by
/// [`efficient_cw`], `W_c⁰` by a binary search for the smallest window
/// whose symmetric utility is non-negative (the utility's sign flips once,
/// because `p_c` falls monotonically in `W`), capped at `W_c*`.
///
/// # Errors
///
/// Returns [`DcfError::InvalidParameter`] if `w_max == 0` or no window in
/// `{1, …, w_max}` yields a non-negative utility; propagates solver
/// errors.
pub fn ne_interval(
    n: usize,
    params: &DcfParams,
    utility: &UtilityParams,
    w_max: u32,
) -> Result<NeInterval, DcfError> {
    ne_interval_in(params, n, utility, w_max)
}

/// [`ne_interval`] with its symmetric points drawn from `source`.
///
/// # Errors
///
/// As [`ne_interval`].
pub fn ne_interval_in<S: SymmetricSource + ?Sized>(
    source: &S,
    n: usize,
    utility: &UtilityParams,
    w_max: u32,
) -> Result<NeInterval, DcfError> {
    let upper = source.efficient_cw(n, utility, w_max)?.window;
    let lower = break_even_cw_in(source, n, utility, w_max)?.min(upper);
    Ok(NeInterval { lower, upper })
}

/// The window whose symmetric fixed-point `τ` is closest to `target_tau`
/// (used to translate the continuous `τ_c*` into the discrete strategy
/// space). Like [`efficient_cw`], it searches `1..=min(w_max, MAX_CW)`.
///
/// # Errors
///
/// Returns [`DcfError::InvalidParameter`] for an empty strategy space;
/// propagates solver errors.
pub fn cw_for_tau(
    target_tau: f64,
    n: usize,
    params: &DcfParams,
    w_max: u32,
) -> Result<u32, DcfError> {
    if w_max == 0 {
        return Err(DcfError::invalid("w_max", "strategy space must be non-empty"));
    }
    let w_max = w_max.min(MAX_CW);
    // τ(W) is strictly decreasing in W: binary search for the crossing.
    let tau_of = |w: u32| -> Result<f64, DcfError> { Ok(solve_symmetric(n, w, params)?.tau) };
    if tau_of(1)? <= target_tau {
        return Ok(1);
    }
    if tau_of(w_max)? >= target_tau {
        return Ok(w_max);
    }
    let (mut lo, mut hi) = (1u32, w_max); // τ(lo) > target ≥ τ(hi)
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if tau_of(mid)? > target_tau {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // Pick the closer endpoint.
    let (tl, th) = (tau_of(lo)?, tau_of(hi)?);
    Ok(if (tl - target_tau).abs() <= (th - target_tau).abs() { lo } else { hi })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::AccessMode;

    fn basic() -> DcfParams {
        DcfParams::default()
    }

    fn rtscts() -> DcfParams {
        DcfParams::builder().access_mode(AccessMode::RtsCts).build().unwrap()
    }

    #[test]
    fn q_signs_and_monotonicity() {
        let p = basic();
        for n in [2usize, 5, 20, 50] {
            assert!(q_function(0.0, n, &p) > 0.0);
            assert!(q_function(1.0, n, &p) < 0.0);
            let mut prev = f64::INFINITY;
            for i in 0..=100 {
                let tau = f64::from(i) / 100.0;
                let q = q_function(tau, n, &p);
                assert!(q < prev, "Q must strictly decrease (n={n}, τ={tau})");
                prev = q;
            }
        }
    }

    #[test]
    fn optimal_tau_is_q_root() {
        let p = basic();
        for n in [2usize, 5, 20, 50] {
            let tau = optimal_tau(n, &p).unwrap();
            assert!(q_function(tau, n, &p).abs() < 1e-6, "n = {n}");
            assert!(tau > 0.0 && tau < 1.0);
        }
    }

    #[test]
    fn optimal_tau_shrinks_with_population() {
        let p = basic();
        let t5 = optimal_tau(5, &p).unwrap();
        let t20 = optimal_tau(20, &p).unwrap();
        let t50 = optimal_tau(50, &p).unwrap();
        assert!(t5 > t20 && t20 > t50);
    }

    #[test]
    fn rtscts_tolerates_higher_tau() {
        // Cheap collisions ⇒ the optimum is far more aggressive.
        let t_basic = optimal_tau(5, &basic()).unwrap();
        let t_rtscts = optimal_tau(5, &rtscts()).unwrap();
        assert!(t_rtscts > 3.0 * t_basic, "basic {t_basic}, rts/cts {t_rtscts}");
    }

    #[test]
    fn table2_basic_n5_reproduced() {
        // Paper Table II: n = 5 basic ⇒ W_c* = 76. Exact m is unspecified;
        // with m = 5 our exact argmax lands within a few units.
        let ne = efficient_cw(5, &basic(), &UtilityParams::default(), 1024).unwrap();
        assert!(
            (70..=85).contains(&ne.window),
            "W_c* = {} should be near the paper's 76",
            ne.window
        );
    }

    #[test]
    fn efficient_window_grows_with_population() {
        let p = basic();
        let u = UtilityParams::default();
        let w5 = efficient_cw(5, &p, &u, 2048).unwrap().window;
        let w20 = efficient_cw(20, &p, &u, 2048).unwrap().window;
        assert!(w20 > 3 * w5, "w5 = {w5}, w20 = {w20}");
    }

    #[test]
    fn efficient_tau_close_to_q_root() {
        // The discrete argmax should sit near the continuous optimum.
        let ne = efficient_cw(5, &basic(), &UtilityParams::default(), 1024).unwrap();
        let rel = (ne.point.tau - ne.tau_star).abs() / ne.tau_star;
        assert!(rel < 0.15, "τ(W_c*) = {} vs τ* = {}", ne.point.tau, ne.tau_star);
    }

    #[test]
    fn break_even_below_efficient() {
        let p = basic();
        let u = UtilityParams::default();
        let interval = ne_interval(5, &p, &u, 1024).unwrap();
        assert!(interval.lower <= interval.upper);
        assert!(interval.count() >= 1);
        assert!(interval.contains(interval.lower) && interval.contains(interval.upper));
        // Below W_c⁰ the payoff must be negative (when W_c⁰ > 1).
        if interval.lower > 1 {
            let below = symmetric_utility(5, interval.lower - 1, &p, &u).unwrap();
            assert!(below < 0.0);
            let at = symmetric_utility(5, interval.lower, &p, &u).unwrap();
            assert!(at >= 0.0);
        }
    }

    #[test]
    fn break_even_is_one_for_cheap_attempts() {
        // With e = 0 every window is profitable.
        let free = UtilityParams { gain: 1.0, cost: 0.0 };
        assert_eq!(break_even_cw_in(&basic(), 5, &free, 1024).unwrap(), 1);
    }

    #[test]
    fn expensive_attempts_raise_break_even() {
        // A huge attempt cost makes small windows lose money for n = 20.
        let pricey = UtilityParams { gain: 1.0, cost: 0.5 };
        let w0 = break_even_cw_in(&basic(), 20, &pricey, 4096).unwrap();
        assert!(w0 > 1, "W_c⁰ = {w0}");
        let u_at = symmetric_utility(20, w0, &basic(), &pricey).unwrap();
        let u_below = symmetric_utility(20, w0 - 1, &basic(), &pricey).unwrap();
        assert!(u_at >= 0.0 && u_below < 0.0);
    }

    #[test]
    fn cw_for_tau_inverts_the_map() {
        let p = basic();
        let sym = solve_symmetric(5, 76, &p).unwrap();
        let w = cw_for_tau(sym.tau, 5, &p, 1024).unwrap();
        assert_eq!(w, 76);
    }

    #[test]
    fn cw_for_tau_clamps_to_bounds() {
        let p = basic();
        assert_eq!(cw_for_tau(0.99, 5, &p, 1024).unwrap(), 1);
        assert_eq!(cw_for_tau(1e-9, 5, &p, 1024).unwrap(), 1024);
    }

    #[test]
    fn unimodality_around_optimum() {
        // Utility increases strictly up to W_c* and decreases after
        // (sampled on a coarse grid — the paper's monotonicity claim).
        let p = basic();
        let u = UtilityParams::default();
        let ne = efficient_cw(5, &p, &u, 1024).unwrap();
        let mut prev = f64::NEG_INFINITY;
        for w in (1..ne.window).step_by(8) {
            let cur = symmetric_utility(5, w, &p, &u).unwrap();
            assert!(cur > prev, "utility should rise before W_c* (W = {w})");
            prev = cur;
        }
        let mut prev = symmetric_utility(5, ne.window, &p, &u).unwrap();
        for w in (ne.window + 8..1024).step_by(32) {
            let cur = symmetric_utility(5, w, &p, &u).unwrap();
            assert!(cur < prev, "utility should fall after W_c* (W = {w})");
            prev = cur;
        }
    }

    #[test]
    fn tau_star_inversion_reproduces_rtscts_table3() {
        // Paper Table III (RTS/CTS): n = 20 ⇒ 48, n = 50 ⇒ 116. The
        // g ≫ e inversion lands on 48 and ~122 with m = 5.
        let p = rtscts();
        let w20 = efficient_cw_from_tau_star(20, &p, 4096).unwrap().window;
        let w50 = efficient_cw_from_tau_star(50, &p, 4096).unwrap().window;
        assert!((45..=52).contains(&w20), "n=20: W = {w20}");
        assert!((110..=130).contains(&w50), "n=50: W = {w50}");
    }

    #[test]
    fn tau_star_inversion_close_to_exact_argmax_basic() {
        let p = basic();
        let inv = efficient_cw_from_tau_star(5, &p, 1024).unwrap().window;
        let exact = efficient_cw(5, &p, &UtilityParams::default(), 1024).unwrap().window;
        assert!(inv.abs_diff(exact) <= 5, "inversion {inv} vs exact {exact}");
    }

    #[test]
    fn searches_stop_at_the_largest_window() {
        // W* ≈ 17.3·n: at n = 5·10⁴ the doubling bracket reaches 2²⁰ and
        // would probe 2²¹ under a larger bound, and the break-even search
        // starts by probing the bound itself. Any bound past MAX_CW
        // answers as MAX_CW does.
        let (p, u) = (basic(), UtilityParams::default());
        let at_cap = efficient_cw(50_000, &p, &u, MAX_CW).unwrap();
        assert_eq!(at_cap.window, 866_724);
        let interval = ne_interval(50_000, &p, &u, MAX_CW).unwrap();
        assert_eq!((interval.lower, interval.upper), (707, 866_724));
        for w_max in [MAX_CW + 1, 1 << 21, u32::MAX] {
            let wide = efficient_cw(50_000, &p, &u, w_max).unwrap();
            assert_eq!(
                (wide.window, wide.utility.to_bits()),
                (at_cap.window, at_cap.utility.to_bits()),
                "w_max {w_max}"
            );
        }
        assert_eq!(ne_interval(50_000, &p, &u, u32::MAX).unwrap(), interval);
    }

    #[test]
    fn an_argmax_at_the_window_cap_is_an_error() {
        // W* ≈ 17.3·n passes MAX_CW near n = 6·10⁴: at n = 7·10⁴ the
        // search's argmax is the cap itself, which is no maximum.
        let (p, u) = (basic(), UtilityParams::default());
        let capped = DcfError::WindowCapReached { n: 70_000, cap: MAX_CW };
        for w_max in [MAX_CW, 1 << 21] {
            assert_eq!(efficient_cw(70_000, &p, &u, w_max), Err(capped.clone()), "w_max {w_max}");
            assert_eq!(ne_interval(70_000, &p, &u, w_max), Err(capped.clone()), "w_max {w_max}");
        }
        assert!(capped.to_string().contains("n = 70000") && capped.to_string().contains("1048576"));
        // A bound below the cap is the strategy space: its argmax stands.
        let bounded = efficient_cw(70_000, &p, &u, MAX_CW - 1).unwrap();
        assert_eq!(bounded.window, MAX_CW - 1);
    }

    #[test]
    fn the_window_cap_band_starts_where_pinned() {
        // Near MAX_CW the utility is flat to float resolution, so answers
        // just past the first capped n still alternate between a window
        // within a few of the cap and the error: the edge is a band. Its
        // first error is pinned, with the answer one node before it.
        let u = UtilityParams::default();
        for (p, last, window) in [(basic(), 60_496, 1_048_575), (rtscts(), 308_713, 1_048_573)] {
            assert_eq!(efficient_cw(last, &p, &u, MAX_CW).unwrap().window, window, "n = {last}");
            let capped = DcfError::WindowCapReached { n: last + 1, cap: MAX_CW };
            assert_eq!(efficient_cw(last + 1, &p, &u, MAX_CW), Err(capped), "n = {}", last + 1);
        }
    }

    #[test]
    fn w_star_meets_the_default_bound_at_its_edge() {
        // W* ≈ c*·n hits DEFAULT_W_MAX first at n = ⌈4096/c*⌉: 237 for
        // basic access (c* ≈ 17.33), 1 206 for RTS/CTS (c* ≈ 3.40). From
        // there on the answer is the bound, and the NE interval ends on it.
        let u = UtilityParams::default();
        for (p, edge, below, lower) in [(basic(), 237, 4083, 4), (rtscts(), 1_206, 4093, 18)] {
            let w_star = |n| efficient_cw(n, &p, &u, DEFAULT_W_MAX).unwrap().window;
            assert_eq!(w_star(edge - 1), below, "n = {}", edge - 1);
            for n in [edge, edge + 1, 2 * edge] {
                assert_eq!(w_star(n), DEFAULT_W_MAX, "n = {n}");
            }
            let interval = ne_interval(edge, &p, &u, DEFAULT_W_MAX).unwrap();
            assert_eq!((interval.lower, interval.upper), (lower, DEFAULT_W_MAX), "n = {edge}");
        }
    }

    #[test]
    fn tau_star_inversion_stops_at_the_largest_window() {
        // The τ* inversion probes its bound first; past MAX_CW there is
        // no operating point, so a larger bound answers as MAX_CW does.
        let p = basic();
        let bits = |ne: EfficientNe| (ne.window, ne.utility.to_bits(), ne.tau_star.to_bits());
        let at_cap = bits(efficient_cw_from_tau_star(5, &p, MAX_CW).unwrap());
        assert_eq!(at_cap.0, 78);
        assert_eq!(bits(efficient_cw_from_tau_star(5, &p, u32::MAX).unwrap()), at_cap);
        assert_eq!(cw_for_tau(1e-12, 5, &p, u32::MAX).unwrap(), MAX_CW);
    }

    #[test]
    fn errors_on_degenerate_inputs() {
        let p = basic();
        let u = UtilityParams::default();
        assert!(optimal_tau(1, &p).is_err());
        assert!(efficient_cw(5, &p, &u, 0).is_err());
        assert!(cw_for_tau(0.5, 5, &p, 0).is_err());
    }
}
