//! The batch-query engine: coalescing, tiered caching, deterministic
//! fan-out, reply assembly.
//!
//! # Pipeline (one batch)
//!
//! 1. **Key** every request by its query's typed fields: a private
//!    `QueryKey` with each variant's fields, its `f64`s as their bits.
//!    Decoded JSON holds no NaN, and the writer prints `-0.0` and `0.0`
//!    apart, so two queries share a key exactly when their canonical
//!    JSON matches, except that `+∞` and `−∞` (both written `null`)
//!    stay apart.
//! 2. **Coalesce**: duplicate keys collapse to one unit of work in
//!    first-appearance order; every occurrence still gets its own reply.
//! 3. **Route**: each unique key checks its query kind's reply cache,
//!    one [`Memo`] per [`Query`] variant, all counting on the same
//!    `serve.cache.*` telemetry counters; misses are evaluated through
//!    [`macgame_core::queries::evaluate_query`] (class solves, symmetric
//!    points, deviator rows, `W_c*` answers and stage columns go through
//!    the per-mode sharded `SolveCache`) with `dcf::parallel::map`,
//!    then inserted into the reply caches *sequentially in miss order* so
//!    eviction order is deterministic.
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
//! coalescing don't depend on timing, the executor returns the misses'
//! results in miss order whatever the worker count, and cache hits
//! share the exact value a fresh evaluation produced. Hence the reply
//! byte stream is invariant under `MACGAME_THREADS` and under duplicate
//! coalescing — the property the conformance claims gate.

use std::collections::BTreeMap;
use std::sync::Arc;

use macgame_core::queries::{evaluate_query, Query, QueryResult, SolveCaches};
use macgame_core::GameError;
use macgame_dcf::cache::Memo;
use macgame_dcf::parallel;
use macgame_dcf::AccessMode;
use macgame_telemetry as telemetry;

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
    /// Per-mode capacity of each of six memos: the `SolveCache`'s five
    /// (class solutions, `(n, W)` symmetric points, deviator rows, `W_c*`
    /// answers and stage columns) and the EDCA equilibrium memo (`0` =
    /// no-op cache, which also re-solves an `EdcaWcStar` query's repeated
    /// probes).
    pub solve_cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { threads: 0, reply_cache_capacity: 4096, solve_cache_capacity: 4096 }
    }
}

/// Number of query kinds, one reply cache each.
const KINDS: usize = 5;

/// The coalescing and reply-cache key of a [`Query`]: its fields, with
/// each `f64` as its bits (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum QueryKey {
    WcStar {
        players: usize,
        mode: AccessMode,
        w_max: u32,
    },
    EdcaWcStar {
        players: usize,
        mode: AccessMode,
        txop: u32,
        w_max: u32,
    },
    NeInterval {
        players: usize,
        mode: AccessMode,
        w_max: u32,
    },
    DeviationPayoff {
        players: usize,
        mode: AccessMode,
        w_star: u32,
        w_dev: u32,
        reaction_stages: u32,
        delta_s: u64,
    },
    RobustnessCell {
        players: usize,
        mode: AccessMode,
        window: u32,
        reaction_stages: u32,
        epsilon: u64,
    },
}

impl QueryKey {
    fn new(query: &Query) -> Self {
        match *query {
            Query::WcStar { players, mode, w_max } => QueryKey::WcStar { players, mode, w_max },
            Query::EdcaWcStar { players, mode, txop, w_max } => {
                QueryKey::EdcaWcStar { players, mode, txop, w_max }
            }
            Query::NeInterval { players, mode, w_max } => {
                QueryKey::NeInterval { players, mode, w_max }
            }
            Query::DeviationPayoff { players, mode, w_star, w_dev, reaction_stages, delta_s } => {
                QueryKey::DeviationPayoff {
                    players,
                    mode,
                    w_star,
                    w_dev,
                    reaction_stages,
                    delta_s: delta_s.to_bits(),
                }
            }
            Query::RobustnessCell { players, mode, window, reaction_stages, epsilon } => {
                QueryKey::RobustnessCell {
                    players,
                    mode,
                    window,
                    reaction_stages,
                    epsilon: epsilon.to_bits(),
                }
            }
        }
    }

    /// The reply cache this key's answer lives in: one per [`Query`]
    /// variant.
    fn kind(&self) -> usize {
        match self {
            QueryKey::WcStar { .. } => 0,
            QueryKey::EdcaWcStar { .. } => 1,
            QueryKey::NeInterval { .. } => 2,
            QueryKey::DeviationPayoff { .. } => 3,
            QueryKey::RobustnessCell { .. } => 4,
        }
    }
}

/// A long-running query engine. Share one behind an [`Arc`] across all
/// connections; all methods take `&self`.
#[derive(Debug)]
pub struct Engine {
    threads: usize,
    solve_caches: SolveCaches,
    replies: [Memo<QueryKey, Arc<QueryResult>>; KINDS],
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

        // Coalesce: key → index into `unique`, first appearance fixes the
        // order.
        let mut key_to_unique: BTreeMap<QueryKey, usize> = BTreeMap::new();
        let mut unique: Vec<(QueryKey, &Query)> = Vec::new();
        let request_slots: Vec<usize> = requests
            .iter()
            .map(|request| {
                let key = QueryKey::new(&request.query);
                *key_to_unique.entry(key.clone()).or_insert_with(|| {
                    unique.push((key, &request.query));
                    unique.len() - 1
                })
            })
            .collect();
        let coalesced = requests.len() - unique.len();
        telemetry::counter("serve.coalesced", coalesced as u64);

        // Route uniques through the reply cache; evaluate the misses with
        // the workspace executor.
        let mut resolved: Vec<Option<Result<Arc<QueryResult>, GameError>>> =
            unique.iter().map(|(key, _)| self.replies[key.kind()].get(key).map(Ok)).collect();
        let miss_indices: Vec<usize> =
            (0..unique.len()).filter(|&i| resolved[i].is_none()).collect();
        let evaluated: Vec<Result<QueryResult, GameError>> =
            parallel::map(&miss_indices, self.threads, |&i| {
                evaluate_query(unique[i].1, &self.solve_caches)
            });
        // Insert sequentially in miss order: deterministic eviction.
        for (&i, outcome) in miss_indices.iter().zip(evaluated) {
            let outcome = outcome.map(Arc::new);
            if let Ok(value) = &outcome {
                let key = &unique[i].0;
                self.replies[key.kind()].insert(key.clone(), Arc::clone(value));
            }
            resolved[i] = Some(outcome);
        }

        // Assemble in request order.
        requests
            .iter()
            .zip(request_slots)
            .map(|(request, i)| {
                // PANIC-POLICY: slot invariant established two loops up (programmer-error guard)
                match resolved[i].as_ref().expect("every unique slot resolved above") {
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
        let query = Query::RobustnessCell {
            players: 5,
            mode: AccessMode::Basic,
            window: 40,
            reaction_stages: 1,
            epsilon: 1e-5,
        };
        let requests: Vec<Request> =
            (0..8).map(|i| Request { id: i, query: query.clone() }).collect();
        let replies = e.handle_batch(&requests);
        let (_, misses, _) = e.solve_caches.counters();
        // All eight requests collapse to one unit of work; the reply
        // cache saw one miss for the unique key, and the cell's welfare
        // stages went through the sharded solve cache.
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
    fn typed_keys_coalesce_exactly_as_canonical_json() {
        // All five kinds, each asked twice, plus ±0.0 in both float
        // fields, which print apart and so are distinct keys.
        let price = |delta_s: f64| Query::DeviationPayoff {
            players: 5,
            mode: AccessMode::Basic,
            w_star: 79,
            w_dev: 20,
            reaction_stages: 1,
            delta_s,
        };
        let cell = |epsilon: f64| Query::RobustnessCell {
            players: 4,
            mode: AccessMode::RtsCts,
            window: 40,
            reaction_stages: 2,
            epsilon,
        };
        let distinct = [
            wc(5),
            wc(6),
            Query::WcStar { players: 5, mode: AccessMode::RtsCts, w_max: 4096 },
            Query::EdcaWcStar { players: 5, mode: AccessMode::Basic, txop: 2, w_max: 1024 },
            Query::NeInterval { players: 5, mode: AccessMode::Basic, w_max: 4096 },
            price(0.0),
            price(-0.0),
            price(0.5),
            cell(0.0),
            cell(-0.0),
            cell(1e-5),
        ];
        let queries: Vec<Query> = distinct.iter().chain(distinct.iter().rev()).cloned().collect();
        let json: Vec<String> = queries.iter().map(|q| serde_json::to_string(q).unwrap()).collect();
        for (a, json_a) in queries.iter().zip(&json) {
            for (b, json_b) in queries.iter().zip(&json) {
                assert_eq!(QueryKey::new(a) == QueryKey::new(b), json_a == json_b, "{a:?} {b:?}");
            }
        }
        let requests: Vec<Request> = queries
            .into_iter()
            .enumerate()
            .map(|(i, query)| Request { id: i as u64, query })
            .collect();
        let e = engine();
        let replies = e.handle_batch(&requests);
        assert_eq!(e.reply_counters(), (0, distinct.len() as u64, 0), "one lookup per key");
        for (request, reply) in requests.iter().zip(&replies) {
            let alone = engine().handle_batch(std::slice::from_ref(request));
            assert_eq!(Engine::encode_reply(reply), Engine::encode_reply(&alone[0]));
        }
        assert_eq!(e.handle_batch(&requests), replies, "the second batch replies from cache");
        assert_eq!(e.reply_counters(), (distinct.len() as u64, distinct.len() as u64, 0));
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
