//! The per-node backoff Markov chain (paper Section III, Figure 1).
//!
//! Each saturated node `i` is modeled by a two-dimensional discrete-time
//! chain over states `(j, k)`: backoff stage `j ∈ [0, m]` and residual
//! backoff counter `k ∈ [0, 2^j·W_i − 1]`, where `W_i` is the node's
//! (selfishly chosen) initial contention window. Conditioned on a constant
//! per-attempt collision probability `p_i`, the chain's stationary
//! distribution yields the node's per-slot transmission probability `τ_i`
//! (paper Eq. (2)).
//!
//! [`transmission_probability`] is the closed form; the raw transition
//! structure it is checked against lives in [`crate::reference`].

use crate::error::DcfError;

/// Largest admissible contention window value.
///
/// The strategy space of the game is `W ∈ {1, …, W_max}`; this constant only
/// bounds what the *model* accepts so that `2^m · W` cannot overflow.
pub const MAX_CW: u32 = 1 << 20;

pub(crate) fn validate(w: u32, p: f64) -> Result<(), DcfError> {
    if w == 0 || w > MAX_CW {
        return Err(DcfError::invalid("w", format!("contention window must be in [1, {MAX_CW}]")));
    }
    if !(0.0..=1.0).contains(&p) || !p.is_finite() {
        return Err(DcfError::invalid("p", "collision probability must be in [0, 1]"));
    }
    Ok(())
}

/// Per-slot transmission probability `τ(W, p)` of a saturated node
/// (paper Eq. (2)):
///
/// ```text
/// τ = 2 / (1 + W + p·W·Σ_{j=0}^{m−1} (2p)^j)
/// ```
///
/// The geometric-sum form is used instead of Bianchi's rational form so the
/// removable singularity at `p = 1/2` needs no special-casing.
///
/// # Errors
///
/// Returns [`DcfError::InvalidParameter`] if `w` is zero or exceeds
/// [`MAX_CW`], or if `p` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use macgame_dcf::markov::transmission_probability;
///
/// // With no collisions a node transmits every (W+1)/2 slots on average.
/// let tau = transmission_probability(31, 0.0, 5)?;
/// assert!((tau - 2.0 / 32.0).abs() < 1e-12);
/// # Ok::<(), macgame_dcf::DcfError>(())
/// ```
pub fn transmission_probability(w: u32, p: f64, m: u32) -> Result<f64, DcfError> {
    validate(w, p)?;
    let w = f64::from(w);
    let mut geom = 0.0;
    let mut term = 1.0;
    for _ in 0..m {
        geom += term;
        term *= 2.0 * p;
    }
    Ok(2.0 / (1.0 + w + p * w * geom))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau_no_collisions() {
        // p = 0: node never leaves stage 0, τ = 2/(W+1).
        for &w in &[1u32, 7, 31, 255] {
            let tau = transmission_probability(w, 0.0, 5).unwrap();
            assert!((tau - 2.0 / (f64::from(w) + 1.0)).abs() < 1e-14);
        }
    }

    #[test]
    fn tau_decreases_in_w_and_p() {
        let m = 5;
        let mut prev = f64::INFINITY;
        for w in 1..200u32 {
            let tau = transmission_probability(w, 0.2, m).unwrap();
            assert!(tau < prev, "τ must strictly decrease in W");
            prev = tau;
        }
        let mut prev = f64::INFINITY;
        for i in 0..=20 {
            let p = f64::from(i) / 20.0;
            let tau = transmission_probability(16, p, m).unwrap();
            assert!(tau <= prev, "τ must be non-increasing in p");
            prev = tau;
        }
    }

    #[test]
    fn tau_handles_p_half_smoothly() {
        // The rational Bianchi form is 0/0 at p = 1/2; ours must be smooth.
        let below = transmission_probability(32, 0.5 - 1e-9, 5).unwrap();
        let at = transmission_probability(32, 0.5, 5).unwrap();
        let above = transmission_probability(32, 0.5 + 1e-9, 5).unwrap();
        assert!((below - at).abs() < 1e-9);
        assert!((above - at).abs() < 1e-9);
    }

    #[test]
    fn chain_rejects_bad_inputs() {
        assert!(transmission_probability(0, 0.1, 5).is_err());
        assert!(transmission_probability(8, -0.1, 5).is_err());
        assert!(transmission_probability(8, 1.5, 5).is_err());
    }

    #[test]
    fn m_zero_means_constant_window() {
        // m = 0: no exponential growth; τ = 2/(W+1) regardless of p.
        for &p in &[0.0, 0.3, 0.9] {
            let tau = transmission_probability(9, p, 0).unwrap();
            assert!((tau - 0.2).abs() < 1e-12);
        }
    }
}
