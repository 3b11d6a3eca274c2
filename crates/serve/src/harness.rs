//! `ServeHarness` — the in-process protocol client every serve test (and
//! the conformance/bench layers) drives the engine through.
//!
//! The harness exercises the *full wire path*: queries are framed and
//! serialized exactly as a remote client would send them, pushed through
//! [`serve_stream`] over in-memory buffers, and the reply byte stream is
//! captured verbatim. That makes byte-level assertions (thread
//! invariance, coalescing equivalence) first-class: compare
//! [`ServeHarness::reply_bytes`] outputs directly.

use std::io::Cursor;

use macgame_core::queries::Query;

use crate::engine::{Engine, EngineConfig};
use crate::frame::{read_frame, write_frame};
use crate::protocol::{BatchRequest, Reply, Request};
use crate::transport::serve_stream;
use crate::ServeError;

/// An in-process client wrapping one [`Engine`].
#[derive(Debug)]
pub struct ServeHarness {
    engine: Engine,
}

impl ServeHarness {
    /// A harness over a default-configured engine.
    ///
    /// # Errors
    ///
    /// Propagates engine-construction failures.
    pub fn new() -> Result<Self, ServeError> {
        Self::with_config(EngineConfig::default())
    }

    /// A harness over an engine tuned by `config`.
    ///
    /// # Errors
    ///
    /// Propagates engine-construction failures.
    pub fn with_config(config: EngineConfig) -> Result<Self, ServeError> {
        Ok(ServeHarness { engine: Engine::new(config)? })
    }

    /// The wrapped engine, for counter assertions.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Builds the wire bytes of one batch frame, assigning ids
    /// `1..=queries.len()` in order.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures.
    pub fn encode_batch(queries: &[Query]) -> Result<Vec<u8>, ServeError> {
        let batch = BatchRequest {
            requests: queries
                .iter()
                .enumerate()
                .map(|(i, query)| Request { id: i as u64 + 1, query: query.clone() })
                .collect(),
        };
        let payload = serde_json::to_string(&batch)?;
        let mut wire = Vec::new();
        write_frame(&mut wire, payload.as_bytes())?;
        Ok(wire)
    }

    /// Pushes raw wire bytes through the full connection loop and
    /// returns the verbatim reply byte stream — the primitive behind
    /// every protocol-robustness test: arbitrary garbage in, structured
    /// frames (never a panic) out.
    ///
    /// # Errors
    ///
    /// Propagates transport-level failures (none occur on in-memory
    /// buffers).
    pub fn roundtrip_raw(&self, wire: &[u8]) -> Result<Vec<u8>, ServeError> {
        let mut reader = Cursor::new(wire.to_vec());
        let mut replies = Vec::new();
        serve_stream(&self.engine, &mut reader, &mut replies)?;
        Ok(replies)
    }

    /// The raw reply byte stream for one well-formed batch — the
    /// byte-comparison primitive for determinism tests.
    ///
    /// # Errors
    ///
    /// Propagates encoding or transport failures.
    pub fn reply_bytes(&self, queries: &[Query]) -> Result<Vec<u8>, ServeError> {
        self.roundtrip_raw(&Self::encode_batch(queries)?)
    }

    /// Parses a reply byte stream back into typed replies.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on an unparseable stream (a serve bug —
    /// the engine only emits well-formed frames).
    pub fn decode_replies(wire: &[u8]) -> Result<Vec<Reply>, ServeError> {
        let mut reader = Cursor::new(wire.to_vec());
        let mut replies = Vec::new();
        while let Some(payload) = read_frame(&mut reader).map_err(ServeError::Frame)? {
            let text =
                std::str::from_utf8(&payload).map_err(|e| ServeError::Protocol(e.to_string()))?;
            replies.push(serde_json::from_str(text)?);
        }
        Ok(replies)
    }

    /// Sends one batch and returns the typed replies, in request order.
    ///
    /// # Errors
    ///
    /// Propagates encoding, transport, or decoding failures.
    pub fn query_batch(&self, queries: &[Query]) -> Result<Vec<Reply>, ServeError> {
        Self::decode_replies(&self.reply_bytes(queries)?)
    }
}
