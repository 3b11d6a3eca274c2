//! The non-cooperative repeated MAC game over IEEE 802.11 contention
//! windows — the primary contribution of Chen & Leneutre's *"Selfishness,
//! Not Always A Nightmare"* (ICDCS 2007), reimplemented as a library.
//!
//! Selfish saturated nodes each pick a contention window every stage to
//! maximize their discounted utility. Under TIT-FOR-TAT play by
//! long-sighted players, the game admits a continuum of symmetric Nash
//! equilibria `[W_c⁰, W_c*]`, of which refinement keeps the unique
//! efficient NE `(W_c*, …, W_c*)` — selfishness does *not* collapse the
//! network; it drives it to the social optimum.
//!
//! * [`game`] — the game definition `G = (P, S, U, δ)` (Definition 1);
//! * [`strategy`] — TFT, Generous TFT, constant/malicious and myopic
//!   best-response strategies;
//! * [`evaluator`] — stage evaluation on the analytical model (exact) or
//!   the slot simulator (noisy measurement + estimated observation);
//! * [`repeated`] — the multi-stage driver with convergence detection;
//! * [`equilibrium`] — efficient NE, the Theorem 2 interval, explicit
//!   unilateral-deviation checks and the Section V.B refinement;
//! * [`search`] — the distributed Section V.C algorithm for finding
//!   `W_c*` without knowing `n`, plus the lying-broadcaster analysis;
//! * [`protocol`] — the same algorithm as message-passing node actors
//!   over a lossy broadcast bus, quantifying desync under message loss;
//! * [`deviation`] — short-sighted (V.D) and malicious (V.E) players;
//! * [`edca`] — the stage game lifted to the `(CWmin, m, AIFS, TXOP)`
//!   product space: per-knob cheating gains, tuple-lattice best response
//!   and TFT pricing over the `(CWmin, TXOP)` plane;
//! * [`lemmas`] — numeric verification of the ordering Lemmas 1 and 4;
//! * [`generalized`] / [`ratecontrol`] — the conclusion's claim made
//!   concrete: the same framework re-instantiated for selfish PHY-rate
//!   selection (where all-fast is the dominant-strategy NE and the
//!   802.11 performance anomaly is the externality);
//! * [`tournament`] / [`population`] — Axelrod-style round robins and
//!   replicator population dynamics that test TFT's "best strategy"
//!   reputation inside this game;
//! * [`detect`] — the detection-and-enforcement plane: sequential
//!   cheater detection (CUSUM + windowed threshold) over noisy
//!   observations, ROC sweeps under fault grids, detection-gated
//!   punishment strategies and adversarial tournaments.
//!
//! # Quick start
//!
//! ```
//! use macgame_core::equilibrium::{check_symmetric_ne, efficient_ne, DEFAULT_NE_EPSILON};
//! use macgame_core::GameConfig;
//!
//! let game = GameConfig::builder(5).build()?;
//! let ne = efficient_ne(&game)?;
//! // The efficient window is a Nash equilibrium under TFT…
//! assert!(check_symmetric_ne(&game, ne.window, 1, DEFAULT_NE_EPSILON)?.is_ne);
//! // …near the paper's Table II value of 76 for n = 5.
//! assert!((70..=85).contains(&ne.window));
//! # Ok::<(), macgame_core::GameError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod detect;
pub mod deviation;
pub mod edca;
pub mod equilibrium;
pub mod error;
pub mod evaluator;
pub mod game;
pub mod generalized;
pub mod history;
pub mod lemmas;
pub mod population;
pub mod protocol;
pub mod queries;
pub mod ratecontrol;
pub mod repeated;
pub mod search;
pub mod strategy;
pub mod tournament;

pub use edca::{
    edca_axis_sweep, edca_best_response, edca_deviator_stage, edca_plane_ne, edca_symmetric_stage,
    edca_wc_star, EdcaAxis, EdcaBestResponse, EdcaGainRow, EdcaLattice, EdcaPlaneCell,
    EdcaStageMemo,
};
pub use equilibrium::{check_symmetric_ne, efficient_ne, ne_interval, NeCheck, DEFAULT_NE_EPSILON};
pub use error::GameError;
pub use evaluator::{
    AnalyticalEvaluator, CachingEvaluator, NoisyObservationEvaluator, SimulatedEvaluator,
    StageEvaluator, StageOutcome,
};
pub use game::{GameConfig, GameConfigBuilder};
pub use history::{History, StageRecord};
pub use queries::{evaluate_query, Query, QueryResult, SolveCaches};
pub use repeated::{ConvergenceReport, RepeatedGame};
pub use search::{run_search, AnalyticProbe, SearchOutcome, SimulatedProbe};
pub use strategy::{BestResponse, Constant, GenerousTft, Strategy, Tft};
