//! Analytical model of IEEE 802.11 DCF with *selfish* (heterogeneous
//! contention-window) nodes.
//!
//! This crate is the analytical substrate of the `macgame` workspace, a
//! reproduction of *"Selfishness, Not Always A Nightmare: Modeling Selfish
//! MAC Behaviors in Wireless Mobile Ad Hoc Networks"* (Chen & Leneutre,
//! ICDCS 2007). It extends Bianchi's saturation model to nodes that each
//! pick their own initial contention window `W_i`:
//!
//! * [`markov`] — the per-node backoff Markov chain in closed form (`τ_i`
//!   as a function of `W_i` and the conditional collision probability
//!   `p_i`, paper Eq. (2));
//! * [`fixedpoint`] — the coupled `2n`-equation system linking all nodes
//!   (paper Eq. (3)), with a guaranteed bracketing root search for
//!   symmetric profiles, a damped, warm-startable iteration for arbitrary ones, and
//!   a fallback ladder ([`solve_robust`]) that degrades from the
//!   accelerated solver through a damped retry to a guaranteed bisection
//!   safe mode before ever reporting non-convergence;
//! * [`classes`] — class-based aggregation: a profile with `k` distinct
//!   windows collapses to its [`Classes`] and the solver iterates `k`
//!   class-level `(τ_c, p_c)` pairs instead of `2n` node-level ones
//!   (exactly — nodes sharing a window are exchangeable), making the
//!   per-sweep cost independent of the population size; one `Classes`
//!   type, keyed by window or by EDCA tuple, serves both solvers;
//! * [`edca`] — EDCA strategy tuples `(CWmin, m, AIFS, TXOP)` and the
//!   generalized fixed point over tuple-keyed class profiles;
//! * [`cache`] — the workspace's one cache container, the sharded FIFO
//!   [`Memo`], and the permutation-canonicalizing memoization of
//!   fixed-point solutions keyed by canonical class profiles built on it
//!   (a hit is bitwise-identical to a fresh solve);
//! * [`parallel`] — warm-chained, chunk-parallel profile sweeps and the
//!   workspace-wide `threads` knob (`0` = auto via `MACGAME_THREADS`);
//! * [`throughput`] — slot statistics and normalized saturation throughput;
//! * [`utility`] — the selfish utility `u_i = τ_i((1−p_i)g − e)/T_slot`,
//!   stage/discounted sums and the Figure-2/3 `U/C` normalization;
//! * [`delay`] — head-of-line access-delay analysis and the delay-aware
//!   utility extension the paper's Discussion calls for;
//! * [`optimal`] — the symmetric optimum: the `Q(τ)` characterization of
//!   `τ_c*` (Lemma 3), the efficient window `W_c*`, the break-even window
//!   `W_c⁰` and the Nash-equilibrium interval of Theorem 2;
//! * [`params`] / [`units`] — IEEE 802.11 timing with the paper's Table I
//!   defaults, in unit-safe newtypes;
//! * [`reference`](mod@reference) — slow reference oracles (the explicit backoff chain,
//!   the exhaustive `W_c*` scan) that tests check the fast paths against.
//!
//! # Quick start
//!
//! ```
//! use macgame_dcf::{DcfParams, UtilityParams};
//! use macgame_dcf::optimal::efficient_cw;
//!
//! // Five saturated selfish nodes, basic access, Table I parameters.
//! let params = DcfParams::default();
//! let ne = efficient_cw(5, &params, &UtilityParams::default(), 1024)?;
//! // The efficient NE of the paper's Table II is W_c* = 76; the exact
//! // integer depends on the (unpublished) maximum backoff stage m.
//! assert!((70..=85).contains(&ne.window));
//! # Ok::<(), macgame_dcf::DcfError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod classes;
pub mod delay;
pub mod edca;
pub mod error;
pub mod fixedpoint;
pub mod markov;
pub mod optimal;
pub mod parallel;
pub mod params;
pub mod record;
pub mod reference;
pub mod throughput;
pub mod units;
pub mod utility;

pub use cache::{Memo, SolveCache};
pub use classes::{
    class_slot_stats, class_utilities, ClassEquilibrium, Classes, OneDeviatorEquilibrium,
    OneDeviatorProfile,
};
pub use edca::{
    edca_slot_stats, edca_throughput, edca_utilities, solve_edca, solve_edca_dense,
    EdcaEquilibrium, EdcaSlotStats, EdcaTuple,
};
pub use error::{DcfError, SolveAttempt, SolveRung};
pub use fixedpoint::{
    solve, solve_classes, solve_classes_with_guess, solve_dense, solve_one_deviator,
    solve_one_deviator_classes, solve_robust, solve_symmetric, solve_with_guess, Equilibrium,
    RobustSolve, SolveOptions, SymmetricPoint,
};
pub use optimal::{efficient_cw, ne_interval, optimal_tau, EfficientNe, NeInterval};
pub use parallel::{one_deviator_sweep, resolve_threads, solve_sweep_cached};
pub use params::{AccessMode, DcfParams, DcfParamsBuilder, FrameParams, FrameTimings, PhyParams};
pub use record::SolutionRecord;
pub use units::{BitRate, Bits, MicroSecs};
pub use utility::UtilityParams;
