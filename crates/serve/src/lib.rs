//! NE-as-a-service: a long-running batch-query engine over the memoized
//! class solver.
//!
//! The analytic core answers any single query in microseconds (PR 6's
//! class aggregation), but consumers had to link the workspace and call
//! Rust APIs in-process. This crate turns the solver into a *service*:
//! length-prefix-framed JSON batches arrive on stdin/stdout or a TCP
//! socket, duplicate queries coalesce, results flow through sharded
//! caches in two tiers (query → result here, one cache per query kind;
//! class profile → solution, `(n, W)` → symmetric point, deviator rows,
//! `W_c*` answers and stage columns in `dcf`), and replies stream back **in
//! request order with bytes
//! invariant under `MACGAME_THREADS`** — so the conformance harness
//! gates the service path like every other layer.
//!
//! # Layer map
//!
//! * [`frame`] — `[u32 BE length][payload]` codec, 1 MiB cap, resync
//!   after oversized declarations.
//! * [`protocol`] — request/reply envelopes over
//!   [`macgame_core::queries::Query`] / `QueryResult`.
//! * [`engine`] — coalescing, the query → result reply caches (one
//!   `dcf::cache::Memo` per query kind, keyed by the query's typed
//!   fields, all on the `serve.cache.*` telemetry), routing,
//!   deterministic reply assembly.
//! * [`transport`] — connection loops: any `Read + Write`, stdio, TCP.
//! * [`harness`] — the in-process `ServeHarness` client every test,
//!   conformance claim, and benchmark drives the engine through.
//!
//! # Error policy
//!
//! Nothing on the wire can panic the engine (the DESIGN.md §12 policy
//! extended to the transport): garbage bytes, truncated frames,
//! oversized prefixes and malformed JSON each produce a structured
//! [`protocol::ErrorReply`], and the connection keeps serving wherever
//! the stream can resynchronize.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use core::fmt;

pub mod engine;
pub mod frame;
pub mod harness;
pub mod protocol;
pub mod transport;

pub use engine::{Engine, EngineConfig};
pub use harness::ServeHarness;
pub use protocol::{BatchRequest, ErrorKind, ErrorReply, Reply, Request};
pub use transport::{serve_stdio, serve_stream, serve_tcp};

/// Errors surfaced by the serve layer. Protocol-level garbage is *not*
/// an error — it becomes an in-band [`protocol::ErrorReply`]; these are
/// the out-of-band failures (transport I/O, engine construction).
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// Game-layer error (engine construction, query evaluation).
    Game(macgame_core::GameError),
    /// Transport-level I/O failure.
    Io(std::io::Error),
    /// Frame-codec failure surfaced out-of-band (harness decoding).
    Frame(frame::FrameError),
    /// Serialization failure.
    Json(serde_json::Error),
    /// Malformed data where the engine's own output was expected.
    Protocol(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Game(e) => write!(f, "game error: {e}"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Frame(e) => write!(f, "frame error: {e}"),
            ServeError::Json(e) => write!(f, "serialization error: {e}"),
            ServeError::Protocol(detail) => write!(f, "protocol error: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Game(e) => Some(e),
            ServeError::Io(e) => Some(e),
            ServeError::Frame(e) => Some(e),
            ServeError::Json(e) => Some(e),
            ServeError::Protocol(_) => None,
        }
    }
}

impl From<macgame_core::GameError> for ServeError {
    fn from(e: macgame_core::GameError) -> Self {
        ServeError::Game(e)
    }
}

impl From<frame::FrameError> for ServeError {
    fn from(e: frame::FrameError) -> Self {
        ServeError::Frame(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<serde_json::Error> for ServeError {
    fn from(e: serde_json::Error) -> Self {
        ServeError::Json(e)
    }
}
