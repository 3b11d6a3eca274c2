//! Reference oracles: slow, independent implementations that tests check
//! the production model against.
//!
//! * [`ExplicitChain`] — the raw backoff chain as an explicit sparse
//!   transition structure, solved by power iteration; its `τ` must match
//!   the closed form [`transmission_probability`].
//! * [`efficient_cw_scan`] — `W_c*` by exhaustive scan over the whole
//!   strategy space; the bracketed search [`efficient_cw`] must find the
//!   same window.
//! * [`solve_classes_on_heap`] and [`solve_edca_on_heap`] — the class and
//!   EDCA solves with their per-class values in `Vec`s whatever the class
//!   count; the stack storage that [`solve_classes_with_guess`] and
//!   [`solve_edca`] use for one and two classes must give the same bits
//!   and counters.
//!
//! No production path calls these: they are kept only so the fast paths
//! have a ground truth to disagree with.
//!
//! [`transmission_probability`]: crate::markov::transmission_probability
//! [`efficient_cw`]: crate::optimal::efficient_cw
//! [`solve_classes_with_guess`]: crate::fixedpoint::solve_classes_with_guess
//! [`solve_edca`]: crate::edca::solve_edca

use crate::classes::{ClassEquilibrium, Classes};
use crate::edca::{solve_edca_in, EdcaEquilibrium, EdcaTuple};
use crate::error::DcfError;
use crate::fixedpoint::{class_equilibrium, solve_classes_in, SolveOptions};
use crate::markov::validate;
use crate::optimal::{finish_efficient, symmetric_utility, EfficientNe};
use crate::params::DcfParams;
use crate::utility::UtilityParams;

/// The raw backoff chain as an explicit sparse transition structure,
/// solved by power iteration. State indexing is row-major by stage: all of
/// stage 0's `W` states, then stage 1's `2W`, etc.
#[derive(Debug, Clone)]
pub struct ExplicitChain {
    w: u32,
    p: f64,
    m: u32,
    stage_offsets: Vec<usize>,
    n_states: usize,
}

impl ExplicitChain {
    /// Builds the explicit chain for initial window `w`, collision
    /// probability `p` and maximum backoff stage `m`.
    ///
    /// # Errors
    ///
    /// Returns [`DcfError::InvalidParameter`] if `w` is zero or exceeds
    /// [`crate::markov::MAX_CW`], if `p` is outside `[0, 1)` (at `p = 1`
    /// no stationary distribution with positive `q(0,0)` exists), or if
    /// the chain has more than 2^22 states.
    pub fn new(w: u32, p: f64, m: u32) -> Result<Self, DcfError> {
        validate(w, p)?;
        if p >= 1.0 {
            return Err(DcfError::invalid("p", "must be strictly below 1 for a stationary chain"));
        }
        let mut stage_offsets = Vec::with_capacity(m as usize + 2);
        let mut total = 0usize;
        for j in 0..=m {
            stage_offsets.push(total);
            total += (w as usize) << j;
        }
        stage_offsets.push(total);
        if total > 1 << 22 {
            return Err(DcfError::invalid("w", "explicit chain too large; use the closed form"));
        }
        Ok(ExplicitChain { w, p, m, stage_offsets, n_states: total })
    }

    fn index(&self, stage: u32, k: u32) -> usize {
        self.stage_offsets[stage as usize] + k as usize
    }

    /// One application of the transposed transition operator:
    /// `out[s'] = Σ_s in[s]·P(s → s')`.
    fn step(&self, x: &[f64], out: &mut [f64]) {
        out.iter_mut().for_each(|v| *v = 0.0);
        for j in 0..=self.m {
            let wj = self.w << j;
            // Countdown: (j, k) → (j, k−1).
            for k in 1..wj {
                out[self.index(j, k - 1)] += x[self.index(j, k)];
            }
            // Transmission from (j, 0).
            let mass = x[self.index(j, 0)];
            if mass == 0.0 {
                continue;
            }
            // Success: uniform over stage 0.
            let succ_share = mass * (1.0 - self.p) / f64::from(self.w);
            for k in 0..self.w {
                out[self.index(0, k)] += succ_share;
            }
            // Collision: uniform over the next stage (stage m retries at m).
            let next = if j < self.m { j + 1 } else { self.m };
            let wn = self.w << next;
            let coll_share = mass * self.p / f64::from(wn);
            for k in 0..wn {
                out[self.index(next, k)] += coll_share;
            }
        }
    }

    /// Stationary distribution by power iteration.
    fn stationary_distribution(&self, max_iters: usize, tol: f64) -> Result<Vec<f64>, DcfError> {
        let mut x = vec![1.0 / self.n_states as f64; self.n_states];
        let mut next = vec![0.0; self.n_states];
        for _ in 0..max_iters {
            self.step(&x, &mut next);
            let diff: f64 = x.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut x, &mut next);
            if diff < tol {
                let norm: f64 = x.iter().sum();
                x.iter_mut().for_each(|v| *v /= norm);
                return Ok(x);
            }
        }
        let diff: f64 = x.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        Err(DcfError::did_not_converge(max_iters, diff))
    }

    /// `τ` computed from the explicit stationary distribution: total mass of
    /// the `(j, 0)` states.
    ///
    /// # Errors
    ///
    /// Returns [`DcfError::SolveDidNotConverge`] if the L1 change between
    /// power-iteration sweeps is still above `tol` after `max_iters` sweeps.
    pub fn tau(&self, max_iters: usize, tol: f64) -> Result<f64, DcfError> {
        let dist = self.stationary_distribution(max_iters, tol)?;
        Ok((0..=self.m).map(|j| dist[self.index(j, 0)]).sum())
    }
}

/// Finds `W_c*` by exhaustive scan over `{1, …, w_max}`, at `w_max`
/// symmetric solves.
///
/// # Errors
///
/// Returns [`DcfError::InvalidParameter`] if `w_max == 0`; propagates
/// solver errors.
pub fn efficient_cw_scan(
    n: usize,
    params: &DcfParams,
    utility: &UtilityParams,
    w_max: u32,
) -> Result<EfficientNe, DcfError> {
    if w_max == 0 {
        return Err(DcfError::invalid("w_max", "strategy space must be non-empty"));
    }
    let mut best_w = 1;
    let mut best_u = f64::NEG_INFINITY;
    for w in 1..=w_max {
        let u = symmetric_utility(n, w, params, utility)?;
        if u > best_u {
            best_u = u;
            best_w = w;
        }
    }
    finish_efficient(params, n, best_w, best_u)
}

/// [`crate::fixedpoint::solve_classes_with_guess`] with every per-class
/// value of the solve in a `Vec`, for any class count.
///
/// # Errors
///
/// Same conditions as [`crate::fixedpoint::solve_classes_with_guess`].
pub fn solve_classes_on_heap(
    profile: &Classes<u32>,
    params: &DcfParams,
    options: SolveOptions,
    guess: Option<&[f64]>,
) -> Result<ClassEquilibrium, DcfError> {
    solve_classes_in::<Vec<f64>>(profile.keys(), profile.counts(), params, options, guess)
        .map(class_equilibrium)
}

/// [`crate::edca::solve_edca`] with every per-class value of the solve in
/// a `Vec`, for any class count.
///
/// # Errors
///
/// Same conditions as [`crate::edca::solve_edca`].
pub fn solve_edca_on_heap(
    profile: &Classes<EdcaTuple>,
    params: &DcfParams,
    options: SolveOptions,
) -> Result<EdcaEquilibrium, DcfError> {
    solve_edca_in::<Vec<f64>>(profile, params, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markov::transmission_probability;
    use crate::optimal::efficient_cw;

    #[test]
    fn explicit_chain_matches_closed_form() {
        for &(w, p, m) in &[(4u32, 0.25, 3u32), (8, 0.5, 2), (2, 0.7, 4), (16, 0.1, 3)] {
            let explicit = ExplicitChain::new(w, p, m).unwrap();
            let tau_explicit = explicit.tau(200_000, 1e-13).unwrap();
            let tau_closed = transmission_probability(w, p, m).unwrap();
            assert!(
                (tau_explicit - tau_closed).abs() < 1e-8,
                "w={w} p={p} m={m}: explicit {tau_explicit} vs closed {tau_closed}"
            );
        }
    }

    #[test]
    fn explicit_chain_rejects_bad_inputs() {
        assert!(ExplicitChain::new(8, 1.0, 5).is_err());
        assert!(ExplicitChain::new(0, 0.1, 5).is_err());
    }

    #[test]
    fn efficient_cw_matches_exhaustive_scan() {
        let p = DcfParams::default();
        let u = UtilityParams::default();
        for n in [2usize, 5, 8] {
            let fast = efficient_cw(n, &p, &u, 512).unwrap();
            let slow = efficient_cw_scan(n, &p, &u, 512).unwrap();
            assert_eq!(fast.window, slow.window, "n = {n}");
        }
    }
}
