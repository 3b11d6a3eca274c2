//! The batch-query engine: coalescing, tiered caching, deterministic
//! fan-out, reply assembly.
//!
//! # Pipeline (one batch)
//!
//! 1. **Key** every request by its query's canonical JSON.
//! 2. **Coalesce**: duplicate keys collapse to one unit of work in
//!    first-appearance order; every occurrence still gets its own reply.
//! 3. **Route**: each unique key checks its query kind's reply cache,
//!    one [`Memo`] per [`Query`] variant, all counting on the same
//!    `serve.cache.*` telemetry counters; misses are evaluated through
//!    [`macgame_core::queries::evaluate_query`] (class solves, symmetric
//!    points and deviator rows go through the per-mode sharded
//!    `SolveCache`) with the fixed-chunk executor, then inserted into the
//!    reply caches *sequentially in miss order* so eviction order is
//!    deterministic.
//! 4. **Assemble** replies in request order.
//!
//! # Reply-cache tiers
//!
//! The kinds' key spaces differ by orders of magnitude: a `DeviationPayoff`
//! price is keyed by six fields and rarely recurs, while the `W_c*`,
//! NE-interval and EDCA grids are small and costly to recompute. In
//! one shared FIFO the one-shot prices would flush the grids, so each kind
//! evicts only its own entries. [`EngineConfig::reply_cache_capacity`] is
//! split evenly: each kind holds at most `max(1, c / 5)` replies for a
//! capacity `c > 0`, `5 · max(1, c / 5)` in total — at most `c` for
//! `c ≥ 5`, and 5 for `c` in `1..=4`, so no kind is ever a no-op cache
//! unless `c = 0`.
//!
//! # Determinism
//!
//! Every step is a deterministic function of the batch: keys and
//! coalescing don't depend on timing, the executor's chunk boundaries
//! depend only on the miss count, joins preserve order, and cache hits
//! share the exact value a fresh evaluation produced. Hence the reply
//! byte stream is invariant under `MACGAME_THREADS` and under duplicate
//! coalescing — the property the conformance claims gate.

use std::collections::BTreeMap;
use std::sync::Arc;

use macgame_core::queries::{evaluate_query, Query, QueryResult, SolveCaches};
use macgame_core::GameError;
use macgame_dcf::cache::Memo;
use macgame_telemetry as telemetry;

use crate::executor::map_chunked;
use crate::protocol::{BatchRequest, ErrorKind, ErrorReply, Reply, Request};
use crate::ServeError;

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads for batch fan-out (`0` = auto from
    /// `MACGAME_THREADS`). Reply bytes do not depend on this.
    pub threads: usize,
    /// Capacity of the query → result reply cache, split evenly across
    /// the five query kinds (`max(1, c / 5)` each; see the module docs;
    /// `0` = no-op cache).
    pub reply_cache_capacity: usize,
    /// Per-mode capacity of each of the `SolveCache`'s three memos: class
    /// solutions, `(n, W)` symmetric points and deviator rows (`0` =
    /// no-op cache).
    pub solve_cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { threads: 0, reply_cache_capacity: 4096, solve_cache_capacity: 4096 }
    }
}

/// Number of query kinds, one reply cache each.
const KINDS: usize = 5;

/// The reply cache a query's answer lives in: one per [`Query`] variant.
fn kind(query: &Query) -> usize {
    match query {
        Query::WcStar { .. } => 0,
        Query::EdcaWcStar { .. } => 1,
        Query::NeInterval { .. } => 2,
        Query::DeviationPayoff { .. } => 3,
        Query::RobustnessCell { .. } => 4,
    }
}

/// A long-running query engine. Share one behind an [`Arc`] across all
/// connections; all methods take `&self`.
#[derive(Debug)]
pub struct Engine {
    threads: usize,
    solve_caches: SolveCaches,
    replies: [Memo<String, Arc<QueryResult>>; KINDS],
}

impl Engine {
    /// Builds an engine from `config`.
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation failures from cache construction.
    pub fn new(config: EngineConfig) -> Result<Self, ServeError> {
        let per_kind = match config.reply_cache_capacity {
            0 => 0,
            total => (total / KINDS).max(1),
        };
        Ok(Engine {
            threads: config.threads,
            solve_caches: SolveCaches::with_capacity(config.solve_cache_capacity)?,
            replies: std::array::from_fn(|_| {
                Memo::new(
                    Some(per_kind),
                    "serve.cache.hits",
                    "serve.cache.misses",
                    "serve.cache.evictions",
                )
            }),
        })
    }

    /// Aggregate `(hits, misses, evictions)` of the reply caches across
    /// all query kinds: the totals of the `serve.cache.*` counters.
    #[must_use]
    pub fn reply_counters(&self) -> (u64, u64, u64) {
        self.replies.iter().fold((0, 0, 0), |(h, m, e), memo| {
            (h + memo.hits(), m + memo.misses(), e + memo.evictions())
        })
    }

    /// Evaluates one batch, returning one reply per request in request
    /// order. Duplicate queries are coalesced into a single evaluation;
    /// their replies are bitwise-identical to fresh evaluations.
    #[must_use]
    pub fn handle_batch(&self, requests: &[Request]) -> Vec<Reply> {
        telemetry::counter("serve.batches", 1);
        telemetry::counter("serve.queries", requests.len() as u64);

        // Coalesce: canonical key → index into `unique`, first appearance
        // fixes the order.
        let mut key_to_unique: BTreeMap<String, usize> = BTreeMap::new();
        let mut unique: Vec<(String, &Query)> = Vec::new();
        let mut request_slots: Vec<Result<usize, ServeError>> = Vec::with_capacity(requests.len());
        for request in requests {
            match serde_json::to_string(&request.query) {
                Ok(key) => {
                    let slot = *key_to_unique.entry(key.clone()).or_insert_with(|| {
                        unique.push((key, &request.query));
                        unique.len() - 1
                    });
                    request_slots.push(Ok(slot));
                }
                Err(e) => request_slots.push(Err(ServeError::Json(e))),
            }
        }
        let coalesced = requests.len() - unique.len();
        telemetry::counter("serve.coalesced", coalesced as u64);

        // Route uniques through the reply cache; evaluate the misses with
        // the fixed-chunk executor.
        let mut resolved: Vec<Option<Result<Arc<QueryResult>, GameError>>> = unique
            .iter()
            .map(|(key, query)| self.replies[kind(query)].get(key).map(Ok))
            .collect();
        let miss_indices: Vec<usize> =
            (0..unique.len()).filter(|&i| resolved[i].is_none()).collect();
        let evaluated: Vec<Result<QueryResult, GameError>> =
            map_chunked(miss_indices.clone(), self.threads, |&i| {
                evaluate_query(unique[i].1, &self.solve_caches)
            });
        // Insert sequentially in miss order: deterministic eviction.
        for (&i, outcome) in miss_indices.iter().zip(evaluated) {
            let outcome = outcome.map(Arc::new);
            if let Ok(value) = &outcome {
                let (key, query) = &unique[i];
                self.replies[kind(query)].insert(key.clone(), Arc::clone(value));
            }
            resolved[i] = Some(outcome);
        }

        // Assemble in request order.
        requests
            .iter()
            .zip(request_slots)
            .map(|(request, slot)| match slot {
                Ok(i) => match resolved[i].as_ref().expect("every unique slot resolved above") { // PANIC-POLICY: slot invariant established two loops up (programmer-error guard)
                    Ok(result) => Reply::Ok { id: request.id, result: (**result).clone() },
                    Err(e) => {
                        telemetry::counter("serve.errors", 1);
                        Reply::Error {
                            id: Some(request.id),
                            error: ErrorReply {
                                kind: ErrorKind::Evaluation,
                                message: e.to_string(),
                            },
                        }
                    }
                },
                Err(e) => {
                    telemetry::counter("serve.errors", 1);
                    Reply::Error {
                        id: Some(request.id),
                        error: ErrorReply { kind: ErrorKind::Evaluation, message: e.to_string() },
                    }
                }
            })
            .collect()
    }

    /// Decodes one frame payload and evaluates it, returning the
    /// serialized reply payloads to frame back, in request order. A
    /// payload that is not a valid [`BatchRequest`] yields exactly one
    /// [`ErrorKind::MalformedJson`] reply with `id: null`.
    #[must_use]
    pub fn handle_payload(&self, payload: &[u8]) -> Vec<Vec<u8>> {
        let parsed: Result<BatchRequest, String> = match std::str::from_utf8(payload) {
            Ok(text) => serde_json::from_str(text).map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        };
        let replies = match parsed {
            Ok(batch) => self.handle_batch(&batch.requests),
            Err(message) => {
                telemetry::counter("serve.errors", 1);
                vec![Reply::Error {
                    id: None,
                    error: ErrorReply { kind: ErrorKind::MalformedJson, message },
                }]
            }
        };
        replies.iter().map(Self::encode_reply).collect()
    }

    /// Serializes one reply payload. Infallible by construction: every
    /// reply type serializes through the vendored writer, which cannot fail.
    fn encode_reply(reply: &Reply) -> Vec<u8> {
        serde_json::to_string(reply)
            .expect("replies contain no unserializable values") // PANIC-POLICY: Reply is a closed type whose fields all serialize (programmer-error guard)
            .into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macgame_dcf::AccessMode;

    fn engine() -> Engine {
        Engine::new(EngineConfig::default()).unwrap()
    }

    fn wc(players: usize) -> Query {
        Query::WcStar { players, mode: AccessMode::Basic, w_max: 4096 }
    }

    #[test]
    fn replies_come_back_in_request_order_with_echoed_ids() {
        let e = engine();
        let requests: Vec<Request> = [wc(5), wc(10), wc(5)]
            .into_iter()
            .enumerate()
            .map(|(i, query)| Request { id: 100 + i as u64, query })
            .collect();
        let replies = e.handle_batch(&requests);
        assert_eq!(replies.len(), 3);
        for (i, reply) in replies.iter().enumerate() {
            assert_eq!(reply.id(), Some(100 + i as u64));
            assert!(reply.is_ok());
        }
    }

    #[test]
    fn duplicates_coalesce_to_one_evaluation_with_identical_replies() {
        let e = engine();
        let query = Query::DeviationPayoff {
            players: 5,
            mode: AccessMode::Basic,
            w_star: 79,
            w_dev: 20,
            reaction_stages: 1,
            delta_s: 0.0,
        };
        let requests: Vec<Request> =
            (0..8).map(|i| Request { id: i, query: query.clone() }).collect();
        let replies = e.handle_batch(&requests);
        let (_, misses, _) = e.solve_caches.counters();
        // All eight requests collapse to one unit of work; the reply
        // cache saw one miss for the unique key, and the class solves
        // behind it went through the sharded solve cache.
        assert_eq!(e.reply_counters().1, 1);
        assert!(misses > 0);
        let Reply::Ok { result: first, .. } = &replies[0] else { panic!("expected Ok") };
        for reply in &replies[1..] {
            let Reply::Ok { result, .. } = reply else { panic!("expected Ok") };
            assert_eq!(result, first);
        }
    }

    #[test]
    fn evaluation_errors_are_structured_not_fatal() {
        let e = engine();
        let requests = vec![
            Request { id: 1, query: wc(0) }, // invalid: zero players
            Request { id: 2, query: wc(5) },
        ];
        let replies = e.handle_batch(&requests);
        assert!(matches!(
            &replies[0],
            Reply::Error { id: Some(1), error } if error.kind == ErrorKind::Evaluation
        ));
        assert!(replies[1].is_ok(), "a bad request must not poison its batch neighbors");
    }

    #[test]
    fn malformed_payload_yields_one_null_id_error_reply() {
        let e = engine();
        for payload in [&b"not json"[..], &[0xFF, 0xFE][..], b"{\"requests\": 3}"] {
            let replies = e.handle_payload(payload);
            assert_eq!(replies.len(), 1, "payload {payload:?}");
            let reply: Reply =
                serde_json::from_str(std::str::from_utf8(&replies[0]).unwrap()).unwrap();
            assert!(matches!(
                reply,
                Reply::Error { id: None, ref error } if error.kind == ErrorKind::MalformedJson
            ));
        }
    }

    #[test]
    fn hot_batch_hits_the_reply_cache() {
        let e = engine();
        let requests: Vec<Request> =
            (0..4).map(|i| Request { id: i, query: wc(5 + i as usize) }).collect();
        let cold = e.handle_batch(&requests);
        let (_, misses_after_cold, _) = e.reply_counters();
        let hot = e.handle_batch(&requests);
        let (hits, misses, _) = e.reply_counters();
        assert_eq!(misses, misses_after_cold, "hot batch must not miss");
        assert_eq!(hits, 4);
        assert_eq!(cold, hot, "hits are bitwise-identical to fresh evaluations");
    }
}
