//! Error types for the analytical model.

use core::fmt;

use serde::{Deserialize, Serialize};

/// Which rung of the solver fallback ladder produced a result or attempt
/// (see [`crate::fixedpoint::solve_robust`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SolveRung {
    /// The primary solver exactly as configured (Anderson-accelerated by
    /// default).
    Accelerated,
    /// The damped retry: acceleration disabled, tighter damping, larger
    /// iteration budget.
    Damped,
    /// The bounded-bisection safe mode: guaranteed monotone convergence,
    /// used as the last resort.
    Bisection,
}

impl fmt::Display for SolveRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SolveRung::Accelerated => "accelerated",
            SolveRung::Damped => "damped",
            SolveRung::Bisection => "bisection",
        })
    }
}

/// Diagnostic record of one exhausted rung of the fallback ladder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolveAttempt {
    /// The solver configuration that was tried.
    pub rung: SolveRung,
    /// Iterations spent before the rung gave up.
    pub iterations: usize,
    /// Residual (max update magnitude) when the rung gave up.
    pub residual: f64,
}

/// Errors produced by the analytical DCF model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DcfError {
    /// An iterative solver failed to reach the requested tolerance.
    SolveDidNotConverge {
        /// Number of iterations performed before giving up.
        iterations: usize,
        /// Residual (max update magnitude) at the last iteration.
        residual: f64,
        /// What the fallback ladder tried before giving up, in order.
        /// Empty when the failure came from a single-configuration solve
        /// (no ladder was involved).
        attempts: Vec<SolveAttempt>,
    },
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// The offending parameter.
        name: &'static str,
        /// Human-readable constraint description.
        reason: String,
    },
    /// A `W_c*` search's argmax landed on the window cap: the largest
    /// window with an operating point bounds the search, so the answer
    /// is a boundary of the model, not a maximum of the utility.
    WindowCapReached {
        /// The population the search ran for.
        n: usize,
        /// The cap, [`crate::markov::MAX_CW`].
        cap: u32,
    },
}

impl DcfError {
    /// Convenience constructor for [`DcfError::InvalidParameter`].
    pub fn invalid(name: &'static str, reason: impl Into<String>) -> Self {
        DcfError::InvalidParameter { name, reason: reason.into() }
    }

    /// Convenience constructor for a single-configuration
    /// [`DcfError::SolveDidNotConverge`] (no ladder diagnostics).
    #[must_use]
    pub fn did_not_converge(iterations: usize, residual: f64) -> Self {
        DcfError::SolveDidNotConverge { iterations, residual, attempts: Vec::new() }
    }
}

impl fmt::Display for DcfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DcfError::SolveDidNotConverge { iterations, residual, attempts } => {
                write!(
                    f,
                    "fixed-point solver did not converge after {iterations} iterations \
                     (residual {residual:.3e})"
                )?;
                if !attempts.is_empty() {
                    write!(f, "; ladder:")?;
                    for a in attempts {
                        write!(f, " [{} ×{} → {:.3e}]", a.rung, a.iterations, a.residual)?;
                    }
                }
                Ok(())
            }
            DcfError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            DcfError::WindowCapReached { n, cap } => {
                write!(f, "the efficient window for n = {n} reaches the window cap {cap}")
            }
        }
    }
}

impl std::error::Error for DcfError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let e = DcfError::did_not_converge(10, 1e-3);
        let msg = e.to_string();
        assert!(msg.contains("10 iterations"));
        let e = DcfError::invalid("w", "must be at least 1");
        assert_eq!(e.to_string(), "invalid parameter `w`: must be at least 1");
    }

    #[test]
    fn display_lists_ladder_attempts() {
        let e = DcfError::SolveDidNotConverge {
            iterations: 40,
            residual: 2e-2,
            attempts: vec![
                SolveAttempt { rung: SolveRung::Accelerated, iterations: 10, residual: 0.5 },
                SolveAttempt { rung: SolveRung::Damped, iterations: 20, residual: 0.1 },
                SolveAttempt { rung: SolveRung::Bisection, iterations: 10, residual: 2e-2 },
            ],
        };
        let msg = e.to_string();
        assert!(msg.contains("ladder:"), "{msg}");
        assert!(msg.contains("accelerated"), "{msg}");
        assert!(msg.contains("damped"), "{msg}");
        assert!(msg.contains("bisection"), "{msg}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<DcfError>();
    }
}
