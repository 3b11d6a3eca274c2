//! The serve workloads: `serve-hot` and `serve-churn`.
//!
//! Both drive one single-threaded [`Engine`] from one closed-loop
//! client: an op is one pre-encoded request frame pushed through the
//! public [`serve_stream`] on in-memory buffers, timed from the first
//! byte read to the last reply byte written.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use macgame_core::queries::{evaluate_query, Query, QueryResult, SolveCaches};
use macgame_serve::frame::{read_frame, write_frame};
use macgame_serve::{serve_stream, BatchRequest, Engine, EngineConfig, Reply};
use macgame_telemetry::{self as telemetry, CollectingRecorder};

use crate::plan::{self, Frame, Kind, Rng, CHURN_FRAME};
use crate::stats::{median, ratio, us_since, Timed};
use crate::TraceReport;

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Repeated frames over a warm 64-query pool: every lookup hits.
    Hot,
    /// A seeded stream of mostly fresh queries: the solver and the cache
    /// write path do the work.
    Churn,
}

impl Mix {
    /// Queries per frame.
    #[must_use]
    pub fn frame_queries(self) -> usize {
        match self {
            Mix::Hot => plan::HOT_FRAME,
            Mix::Churn => CHURN_FRAME,
        }
    }
}

/// Churn frames planned per second of run, a third above the ≈ 45 frames
/// per second a run completes (checks included) on the host described in
/// `README.md`. A run that exhausts its plan ends early.
const CHURN_FRAMES_PER_S: f64 = 60.0;
/// Traced op pairs per second of run (each pair is one untraced and
/// one traced op on the same frame).
const HOT_TRACED_PER_S: f64 = 200.0;
const CHURN_TRACED_PER_S: f64 = 10.0;
/// Unique queries per kind replayed cold for `queries.cold_us.*`.
const COLD_REPLAY_PER_KIND: usize = 64;

/// One set-up: an engine and the frames the run sends it.
#[derive(Debug)]
pub struct Setup {
    engine: Engine,
    frames: Vec<Frame>,
}

fn new_engine() -> Result<Engine, String> {
    Engine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    })
    .map_err(|e| e.to_string())
}

/// Builds the engine and the frames. `serve-hot` also makes its warm
/// pass, after which every lookup of the run is a reply-cache hit.
///
/// # Errors
///
/// Engine construction or the warm pass failed.
pub fn setup(mix: Mix, seed: u64, churn_frames: usize) -> Result<Setup, String> {
    let engine = new_engine()?;
    match mix {
        Mix::Hot => {
            let pool = plan::hot_pool(seed);
            let frames: Vec<Frame> = plan::hot_frames(seed, &pool)
                .into_iter()
                .map(|queries| plan::encode_frame(queries, 1))
                .collect();
            let mut sink = Vec::new();
            serve_stream(&engine, &mut frames[0].wire.as_slice(), &mut sink)
                .map_err(|e| e.to_string())?;
            Ok(Setup { engine, frames })
        }
        Mix::Churn => {
            let queries = plan::churn_queries(seed, churn_frames * CHURN_FRAME);
            let frames = queries
                .chunks(CHURN_FRAME)
                .enumerate()
                .map(|(i, chunk)| plan::encode_frame(chunk.to_vec(), (i * CHURN_FRAME) as u64 + 1))
                .collect();
            Ok(Setup { engine, frames })
        }
    }
}

/// Frames a churn run of `seconds` plans for.
#[must_use]
pub fn churn_frames(seconds: f64) -> usize {
    (seconds * CHURN_FRAMES_PER_S).ceil() as usize
}

/// Op pairs a traced run of `seconds` makes.
#[must_use]
pub fn traced_ops(mix: Mix, seconds: f64) -> usize {
    let rate = match mix {
        Mix::Hot => HOT_TRACED_PER_S,
        Mix::Churn => CHURN_TRACED_PER_S,
    };
    ((seconds * rate).ceil() as usize).max(1)
}

/// The engine-free answer to one request: `evaluate_query` on fresh
/// `SolveCaches`, wrapped in `Reply::Ok`, serialized and framed.
fn oracle_reply(id: u64, query: &Query) -> Result<Vec<u8>, String> {
    let result = evaluate_fresh(query)?;
    oracle_frame(id, result)
}

fn fresh_caches() -> Result<SolveCaches, String> {
    SolveCaches::with_capacity(EngineConfig::default().solve_cache_capacity)
        .map_err(|e| e.to_string())
}

fn evaluate_fresh(query: &Query) -> Result<QueryResult, String> {
    evaluate_query(query, &fresh_caches()?).map_err(|e| format!("{query:?}: {e}"))
}

fn oracle_frame(id: u64, result: QueryResult) -> Result<Vec<u8>, String> {
    let payload = serde_json::to_string(&Reply::Ok { id, result }).map_err(|e| e.to_string())?;
    let mut wire = Vec::with_capacity(payload.len() + 4);
    write_frame(&mut wire, payload.as_bytes()).map_err(|e| e.to_string())?;
    Ok(wire)
}

/// Splits a reply stream into whole frames (prefix included).
fn split_frames(stream: &[u8]) -> Option<Vec<&[u8]>> {
    let mut frames = Vec::new();
    let mut rest = stream;
    while !rest.is_empty() {
        let prefix: [u8; 4] = rest.get(..4)?.try_into().ok()?;
        let end = 4 + u32::from_be_bytes(prefix) as usize;
        frames.push(rest.get(..end)?);
        rest = &rest[end..];
    }
    Some(frames)
}

/// Checks an op's reply stream outside every timed region.
#[derive(Debug)]
pub enum Checker {
    /// `serve-hot`: the whole stream of every op must equal the oracle's.
    Hot {
        /// Oracle reply stream per hot frame.
        expected: Vec<Vec<u8>>,
    },
    /// `serve-churn`: ids in request order, no error replies, and one
    /// seeded reply per op byte-equal to the oracle's.
    Churn {
        /// Seed of the reply sample.
        seed: u64,
    },
}

impl Checker {
    /// The checker for `setup`'s frames.
    ///
    /// # Errors
    ///
    /// The oracle failed to evaluate a pool query.
    pub fn new(mix: Mix, seed: u64, setup: &Setup) -> Result<Self, String> {
        match mix {
            Mix::Churn => Ok(Checker::Churn { seed }),
            Mix::Hot => {
                let mut results: BTreeMap<String, QueryResult> = BTreeMap::new();
                for query in &setup.frames[0].queries {
                    if let Entry::Vacant(slot) = results.entry(plan::canonical(query)) {
                        slot.insert(evaluate_fresh(query)?);
                    }
                }
                let expected = setup
                    .frames
                    .iter()
                    .map(|frame| {
                        let mut stream = Vec::new();
                        for (j, query) in frame.queries.iter().enumerate() {
                            let result = results[&plan::canonical(query)].clone();
                            stream.extend(oracle_frame(frame.first_id + j as u64, result)?);
                        }
                        Ok(stream)
                    })
                    .collect::<Result<_, String>>()?;
                Ok(Checker::Hot { expected })
            }
        }
    }

    /// Whether op `op`'s reply stream `out` for `frame` is correct.
    #[must_use]
    pub fn check(&self, op: usize, frame: &Frame, out: &[u8]) -> bool {
        match self {
            Checker::Hot { expected } => out == expected[op % expected.len()].as_slice(),
            Checker::Churn { seed } => {
                let Some(replies) = split_frames(out) else {
                    return false;
                };
                if replies.len() != frame.queries.len() {
                    return false;
                }
                let in_order = replies.iter().enumerate().all(|(j, reply)| {
                    let prefix = format!("{{\"Ok\":{{\"id\":{},", frame.first_id + j as u64);
                    reply[4..].starts_with(prefix.as_bytes())
                });
                let j = Rng::new(*seed, 1_000_000 + op as u64).below(replies.len() as u64) as usize;
                in_order
                    && oracle_reply(frame.first_id + j as u64, &frame.queries[j])
                        .is_ok_and(|wire| wire == replies[j])
            }
        }
    }
}

/// The untraced loop: ops from `*op` on until `seconds` pass (or the
/// churn plan runs out), each timed around `serve_stream` alone.
pub fn run_timed(
    setup: &Setup,
    checker: &Checker,
    mix: Mix,
    seconds: f64,
    timed: &mut Timed,
    op: &mut usize,
) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out = Vec::new();
    while Instant::now() < deadline && (mix == Mix::Hot || *op < setup.frames.len()) {
        let frame = &setup.frames[*op % setup.frames.len()];
        out.clear();
        let start = Instant::now();
        let served = serve_stream(&setup.engine, &mut frame.wire.as_slice(), &mut out);
        timed.record(start);
        if served.is_err() || !checker.check(*op, frame, &out) {
            timed.failed += 1;
        }
        *op += 1;
    }
}

/// Summed stage times (µs) and bytes of the traced ops.
#[derive(Debug, Default)]
struct Stages {
    read: f64,
    decode: f64,
    handle: f64,
    encode: f64,
    write: f64,
    op: f64,
    bytes_in: f64,
    bytes_out: f64,
}

/// One op through the same public pieces `serve_stream` composes
/// (`read_frame` → JSON decode → `handle_batch` → JSON encode →
/// `write_frame`), timing each stage.
fn staged_op(
    engine: &Engine,
    frame: &Frame,
    out: &mut Vec<u8>,
    stages: &mut Stages,
) -> Result<(), String> {
    let outer = Instant::now();
    let mut reader = frame.wire.as_slice();
    let t = Instant::now();
    let payload = read_frame(&mut reader)
        .map_err(|e| e.to_string())?
        .ok_or("empty request stream")?;
    stages.read += us_since(t);
    let t = Instant::now();
    let text = std::str::from_utf8(&payload).map_err(|e| e.to_string())?;
    let batch: BatchRequest = serde_json::from_str(text).map_err(|e| e.to_string())?;
    stages.decode += us_since(t);
    let t = Instant::now();
    let replies = engine.handle_batch(&batch.requests);
    stages.handle += us_since(t);
    let t = Instant::now();
    let encoded = replies
        .iter()
        .map(|reply| serde_json::to_string(reply).map(String::into_bytes))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    stages.encode += us_since(t);
    let t = Instant::now();
    for reply in &encoded {
        write_frame(out, reply).map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;
    stages.write += us_since(t);
    stages.op += us_since(outer);
    stages.bytes_in += frame.wire.len() as f64;
    stages.bytes_out += out.len() as f64;
    Ok(())
}

/// The traced run: `ops` pairs, each the same frame sent untraced to
/// one engine and traced (stage timers plus a `CollectingRecorder`) to
/// an identically set-up twin. The twin sees exactly the untraced
/// run's inputs and cache states, so its counts repeat exactly.
///
/// # Errors
///
/// Set-up or the oracle failed.
pub fn run_traced(mix: Mix, seed: u64, ops: usize) -> Result<TraceReport, String> {
    let plain = setup(mix, seed, ops)?;
    let twin = setup(mix, seed, ops)?;
    let checker = Checker::new(mix, seed, &plain)?;
    let recorder = Arc::new(CollectingRecorder::new());
    let mut stages = Stages::default();
    let (mut untraced_us, mut failed) = (0.0, 0);
    let (mut out, mut traced_out) = (Vec::new(), Vec::new());
    for op in 0..ops {
        let frame = &plain.frames[op % plain.frames.len()];
        out.clear();
        let start = Instant::now();
        let served = serve_stream(&plain.engine, &mut frame.wire.as_slice(), &mut out);
        untraced_us += us_since(start);

        traced_out.clear();
        telemetry::set_recorder(recorder.clone());
        let staged = staged_op(&twin.engine, frame, &mut traced_out, &mut stages);
        telemetry::clear_recorder();

        let ok =
            served.is_ok() && staged.is_ok() && checker.check(op, frame, &out) && traced_out == out;
        if !ok {
            failed += 1;
        }
    }
    let snapshot = recorder.snapshot();
    let count = |name: &str| snapshot.counter(name) as f64;
    let per_op = |sum: f64| sum / ops as f64;

    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |name: &str, value: f64| {
        layers.insert(name.to_owned(), value);
    };
    set("frame.read_us", per_op(stages.read));
    set("frame.write_us", per_op(stages.write));
    set("frame.bytes_in", per_op(stages.bytes_in));
    set("frame.bytes_out", per_op(stages.bytes_out));
    set("protocol.decode_us", per_op(stages.decode));
    set("protocol.encode_us", per_op(stages.encode));
    set("engine.handle_batch_us", per_op(stages.handle));
    set(
        "engine.coalesced_frac",
        ratio(count("serve.coalesced"), count("serve.queries")),
    );
    let reply_hits = count("serve.cache.hits");
    set(
        "reply_cache.hit_ratio",
        ratio(reply_hits, reply_hits + count("serve.cache.misses")),
    );
    set("reply_cache.evictions", count("serve.cache.evictions"));
    set("queries.evaluated", count("serve.cache.misses"));
    let solve_hits = count("dcf.cache.hits");
    set(
        "solve_cache.hit_ratio",
        ratio(solve_hits, solve_hits + count("dcf.cache.misses")),
    );
    set("solve_cache.evictions", count("dcf.cache.evictions"));
    set("solver.solves", count("dcf.solver.solves"));
    set(
        "solver.iterations_per_solve",
        ratio(count("dcf.solver.iterations"), count("dcf.solver.solves")),
    );
    set("solver.bisections", count("dcf.solver.bisections"));
    set("edca.solves", count("dcf.edca.solves"));
    let staged_sum = stages.read + stages.decode + stages.handle + stages.encode + stages.write;
    set("trace.stage_coverage", ratio(staged_sum, stages.op));
    set("trace.overhead_frac", ratio(stages.op, untraced_us) - 1.0);
    for (kind, us) in cold_replay(&plain.frames[..ops.min(plain.frames.len())])? {
        set(&format!("queries.cold_us.{}", kind.name()), us);
    }
    Ok(TraceReport {
        layers,
        counts: snapshot.counters,
        attempted: 2 * ops as u64,
        failed,
    })
}

/// Median cold cost per kind: each kind's first unique queries in the
/// traced frames, evaluated one by one on fresh `SolveCaches`.
fn cold_replay(frames: &[Frame]) -> Result<Vec<(Kind, f64)>, String> {
    let mut uniques: BTreeMap<Kind, Vec<&Query>> = BTreeMap::new();
    let mut seen = BTreeSet::new();
    for query in frames.iter().flat_map(|frame| &frame.queries) {
        let bucket = uniques.entry(Kind::of(query)).or_default();
        if bucket.len() < COLD_REPLAY_PER_KIND && seen.insert(plan::canonical(query)) {
            bucket.push(query);
        }
    }
    let mut medians = Vec::new();
    for (kind, queries) in uniques {
        let mut times = Vec::with_capacity(queries.len());
        for query in queries {
            let caches = fresh_caches()?;
            let start = Instant::now();
            let result = evaluate_query(query, &caches);
            times.push(us_since(start));
            result.map_err(|e| format!("{query:?}: {e}"))?;
        }
        medians.push((kind, median(&times)));
    }
    Ok(medians)
}
