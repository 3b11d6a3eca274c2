//! Wire schema: request/reply envelopes carried inside frames.
//!
//! A client→server frame holds one [`BatchRequest`] — a JSON object with
//! a `requests` array of `{id, query}` pairs. The server answers with one
//! frame *per request*, in request order, each holding a [`Reply`]:
//! `{"Ok": {"id", "result"}}` on success, `{"Error": {"id", "error"}}`
//! otherwise. Frame-level failures (payload not valid JSON, oversized or
//! truncated frames) produce a single `Error` reply with `"id": null`,
//! since no request id could be recovered.
//!
//! Query and result schemas are [`macgame_core::queries::Query`] /
//! [`macgame_core::queries::QueryResult`], serialized externally tagged
//! (`{"WcStar": {...}}`). Two requests are duplicates iff their queries'
//! fields are equal, each `f64` compared by its bits: iff their canonical
//! JSON (modulo `id`) is equal, except that `+∞` and `−∞`, both written
//! `null`, stay apart.

use macgame_core::queries::{Query, QueryResult};
use serde::{Deserialize, Serialize};

/// One query tagged with a client-chosen correlation id. Ids are echoed
/// verbatim in replies and carry no server-side meaning; duplicates are
/// legal (each occurrence gets its own reply).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client correlation id, echoed in the reply.
    pub id: u64,
    /// The query to evaluate.
    pub query: Query,
}

/// The payload of one client→server frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchRequest {
    /// Requests in client order; replies stream back in this order.
    pub requests: Vec<Request>,
}

/// Machine-readable classification of a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The frame payload was not valid UTF-8 JSON for the batch schema.
    MalformedJson,
    /// The frame's length prefix exceeded the 1 MiB limit.
    FrameTooLarge,
    /// The stream ended mid-frame.
    TruncatedFrame,
    /// The query was well-formed but its parameters were rejected or the
    /// solver failed.
    Evaluation,
}

/// A structured error reply: the connection stays usable after every one
/// of these — the DESIGN.md §12 panic policy extended to the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorReply {
    /// What went wrong, coarsely.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

/// The payload of one server→client frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Reply {
    /// Successful evaluation of the request with this `id`.
    Ok {
        /// The request's correlation id.
        id: u64,
        /// The query's result.
        result: QueryResult,
    },
    /// A failed request (`id` echoed) or a frame-level failure
    /// (`id: null` — no request id could be recovered).
    Error {
        /// The request's correlation id, if one was recovered.
        id: Option<u64>,
        /// The failure.
        error: ErrorReply,
    },
}

impl Reply {
    /// The correlation id this reply answers, if any.
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        match *self {
            Reply::Ok { id, .. } => Some(id),
            Reply::Error { id, .. } => id,
        }
    }

    /// Whether this is a successful reply.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, Reply::Ok { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macgame_dcf::AccessMode;

    #[test]
    fn request_batches_round_trip_through_json() {
        let batch = BatchRequest {
            requests: vec![
                Request {
                    id: 7,
                    query: Query::WcStar { players: 10, mode: AccessMode::Basic, w_max: 4096 },
                },
                Request {
                    id: 8,
                    query: Query::NeInterval { players: 5, mode: AccessMode::RtsCts, w_max: 512 },
                },
            ],
        };
        let json = serde_json::to_string(&batch).unwrap();
        let back: BatchRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(batch, back);
    }

    #[test]
    fn replies_round_trip_including_null_ids() {
        let replies = vec![
            Reply::Ok { id: 1, result: QueryResult::NeInterval { lower: 8, upper: 80, count: 73 } },
            Reply::Error {
                id: None,
                error: ErrorReply { kind: ErrorKind::MalformedJson, message: "bad".into() },
            },
            Reply::Error {
                id: Some(9),
                error: ErrorReply { kind: ErrorKind::Evaluation, message: "players".into() },
            },
        ];
        for reply in replies {
            let json = serde_json::to_string(&reply).unwrap();
            let back: Reply = serde_json::from_str(&json).unwrap();
            assert_eq!(reply, back);
        }
    }
}
