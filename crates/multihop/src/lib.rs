//! Multi-hop extension of the selfish MAC game (paper Section VI–VII.B):
//! mobile nodes, neighbor topologies, hidden terminals, local games and
//! network-wide TFT convergence.
//!
//! * [`geometry`] / [`mobility`] — the plane and the random waypoint
//!   model (paper scenario: 100 nodes, 1 km², speeds `U[0, 5]` m/s);
//! * [`topology`] — unit-disk neighbor graphs, connectivity, diameter,
//!   hidden-terminal sets;
//! * [`localgame`] — each node's local single-hop game (population
//!   `deg + 1`) and its efficient window; the `p_hn` hidden-node utility
//!   of Section VI.A;
//! * [`convergence`] — TFT min-propagation to `W_m = min_i W_i` and the
//!   Theorem 3 equilibrium check;
//! * [`spatialsim`] — the spatial slot simulator with hidden-terminal
//!   losses and mobility (the NS-2 stand-in for Section VII.B);
//! * [`metrics`] — the quasi-optimality measurements (local ≥ 96 %,
//!   global within 3 % in the paper's run).
//!
//! # Quick start
//!
//! ```
//! use macgame_dcf::{AccessMode, DcfParams, UtilityParams};
//! use macgame_multihop::convergence::tft_converge;
//! use macgame_multihop::localgame::{local_optimal_windows, LocalRule};
//! use macgame_multihop::topology::Topology;
//! use macgame_multihop::geometry::Point;
//!
//! // A 4-node chain, 200 m apart, 250 m radios (RTS/CTS).
//! let positions: Vec<Point> = (0..4).map(|i| Point { x: 200.0 * i as f64, y: 0.0 }).collect();
//! let topo = Topology::from_positions(&positions, 250.0);
//! let params = DcfParams::builder().access_mode(AccessMode::RtsCts).build()?;
//! let local = local_optimal_windows(&topo, &params, &UtilityParams::default(), 2048,
//!                                   LocalRule::ExactArgmax)?;
//! let trace = tft_converge(&topo, &local)?;
//! // The network converges to the smallest local optimum.
//! assert_eq!(trace.converged_window(), local.iter().copied().min());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod convergence;
pub mod error;
pub mod geometry;
pub mod localgame;
pub mod metrics;
pub mod mobility;
pub mod spatialsim;
pub mod topology;

pub use convergence::{
    check_multihop_ne, check_multihop_ne_threads, churn_converge, tft_converge, ChurnTrace,
    ConvergenceTrace, MultihopNeCheck, ReconvergenceRecord,
};
pub use error::MultihopError;
pub use geometry::{Arena, Point};
pub use localgame::{
    analytic_p_hn, local_optimal_windows, local_optimal_windows_threads, local_taus, LocalRule,
};
pub use metrics::{evaluate_quasi_optimality, unilateral_quality, QuasiOptimality};
pub use mobility::{Mobility, WaypointConfig};
pub use spatialsim::{SpatialConfig, SpatialEngine, SpatialReport};
pub use topology::Topology;
