//! Experiment harness: the code behind every table and figure of the
//! paper, driven by the `repro` binary.
//!
//! Run `cargo run --release -p macgame-bench --bin repro -- all` to
//! regenerate everything (add `--quick` for a fast pass); each experiment
//! prints the paper-value comparison and writes a JSON artifact under
//! `artifacts/`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod detect_exp;
pub mod deviation_exp;
pub mod edca_exp;
pub mod extensions_exp;
pub mod figures;
pub mod multihop_exp;
pub mod profile_exp;
pub mod render;
pub mod robustness_exp;
pub mod search_exp;
pub mod tables;

use core::fmt;

/// Errors surfaced by the harness.
#[derive(Debug)]
#[non_exhaustive]
pub enum BenchError {
    /// Analytical-model error.
    Model(macgame_dcf::DcfError),
    /// Simulator error.
    Sim(macgame_sim::SimError),
    /// Game-layer error.
    Game(macgame_core::GameError),
    /// Multi-hop layer error.
    Multihop(macgame_multihop::MultihopError),
    /// Filesystem error while writing artifacts.
    Io(std::io::Error),
    /// Artifact serialization error.
    Json(serde_json::Error),
    /// Conformance-gate error (failing claims or fixture trouble).
    Conformance(macgame_conformance::ConformanceError),
    /// Fault-injection configuration error.
    Faults(macgame_faults::FaultError),
    /// Static-analysis harness error (I/O or workspace-shape trouble).
    Lint(macgame_lint::LintError),
    /// The workspace lint pass found unwaived violations.
    LintFindings(usize),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Model(e) => write!(f, "model error: {e}"),
            BenchError::Sim(e) => write!(f, "simulation error: {e}"),
            BenchError::Game(e) => write!(f, "game error: {e}"),
            BenchError::Multihop(e) => write!(f, "multihop error: {e}"),
            BenchError::Io(e) => write!(f, "io error: {e}"),
            BenchError::Json(e) => write!(f, "serialization error: {e}"),
            BenchError::Conformance(e) => write!(f, "conformance error: {e}"),
            BenchError::Faults(e) => write!(f, "fault-injection error: {e}"),
            BenchError::Lint(e) => write!(f, "lint error: {e}"),
            BenchError::LintFindings(n) => {
                write!(f, "lint: {n} unwaived finding(s); fix or waive in lint-allow.toml")
            }
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Model(e) => Some(e),
            BenchError::Sim(e) => Some(e),
            BenchError::Game(e) => Some(e),
            BenchError::Multihop(e) => Some(e),
            BenchError::Io(e) => Some(e),
            BenchError::Json(e) => Some(e),
            BenchError::Conformance(e) => Some(e),
            BenchError::Faults(e) => Some(e),
            BenchError::Lint(e) => Some(e),
            BenchError::LintFindings(_) => None,
        }
    }
}

impl From<macgame_dcf::DcfError> for BenchError {
    fn from(e: macgame_dcf::DcfError) -> Self {
        BenchError::Model(e)
    }
}

impl From<macgame_sim::SimError> for BenchError {
    fn from(e: macgame_sim::SimError) -> Self {
        BenchError::Sim(e)
    }
}

impl From<macgame_core::GameError> for BenchError {
    fn from(e: macgame_core::GameError) -> Self {
        BenchError::Game(e)
    }
}

impl From<macgame_multihop::MultihopError> for BenchError {
    fn from(e: macgame_multihop::MultihopError) -> Self {
        BenchError::Multihop(e)
    }
}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError::Io(e)
    }
}

impl From<serde_json::Error> for BenchError {
    fn from(e: serde_json::Error) -> Self {
        BenchError::Json(e)
    }
}

impl From<macgame_conformance::ConformanceError> for BenchError {
    fn from(e: macgame_conformance::ConformanceError) -> Self {
        BenchError::Conformance(e)
    }
}

impl From<macgame_faults::FaultError> for BenchError {
    fn from(e: macgame_faults::FaultError) -> Self {
        BenchError::Faults(e)
    }
}

impl From<macgame_lint::LintError> for BenchError {
    fn from(e: macgame_lint::LintError) -> Self {
        BenchError::Lint(e)
    }
}
