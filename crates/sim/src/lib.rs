//! Slot-level discrete-event simulator of saturated IEEE 802.11 DCF with
//! per-node contention windows.
//!
//! This crate is the *measurement substrate* of the `macgame` workspace —
//! the stand-in for the NS-2 simulations in Section VII of Chen &
//! Leneutre's ICDCS 2007 paper. It simulates the exact slotted contention
//! process the analytical model (`macgame_dcf`) abstracts:
//!
//! * [`node`] — per-node binary exponential backoff state machines;
//! * [`engine`] — the slot loop: idle / success / collision outcomes, with
//!   channel-time accounting for basic and RTS/CTS access;
//! * [`report`] — per-stage measurements: `τ̂`, `p̂`, throughput, and the
//!   payoff measurement `(n_s·g − n_e·e)/t_m` used by the paper's
//!   equilibrium-search algorithm;
//! * [`observe`] — peer contention-window estimation from overheard
//!   traffic, the measurement primitive TFT relies on;
//! * [`delay`] — measured head-of-line access delays (service intervals),
//!   the operational counterpart of `macgame_dcf::delay`;
//! * [`traffic`] — saturated (the paper's regime) or Poisson arrivals
//!   with per-node queues, for unsaturated what-ifs;
//! * [`validation`] — packaged model-vs-measurement comparison (the
//!   Section VII.A methodology).
//!
//! Simulations are deterministic per seed (ChaCha8 streams).
//!
//! # Quick start
//!
//! ```
//! use macgame_sim::{Engine, SimConfig};
//!
//! let config = SimConfig::builder().symmetric(5, 76).seed(42).build()?;
//! let mut engine = Engine::new(&config);
//! let report = engine.run_slots(100_000);
//! assert!(report.throughput(config.params()) > 0.5);
//! # Ok::<(), macgame_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod config;
pub mod delay;
pub mod engine;
pub mod error;
pub mod node;
pub mod observe;
pub mod report;
pub mod traffic;
pub mod validation;

pub use batch::{replicate_threads, Summary};
pub use config::{SimConfig, SimConfigBuilder};
pub use delay::DelayTracker;
pub use engine::{Engine, SlotOutcome};
pub use error::SimError;
pub use node::{Node, NodeStats};
pub use observe::{estimate_windows_partial, invert_window, WindowEstimate};
pub use report::{ChannelCounts, StageReport};
pub use traffic::TrafficModel;
pub use validation::{
    relative_error, validate_edca_sweep, validate_fixed_point, validate_fixed_point_sweep,
    QuantitySweep, SweepReport, ValidationReport, ValidationRow,
};
