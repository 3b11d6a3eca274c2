//! Determinism regressions for the serve path: the reply **byte stream**
//! (not just the decoded values) must be a pure function of the batch
//! contents — invariant under worker-thread count, intra-batch order
//! (modulo the induced reply order), and duplicate coalescing.
//!
//! Thread-count invariance is exercised through `EngineConfig::threads`,
//! the same knob `MACGAME_THREADS` feeds via `resolve_threads(0)`;
//! setting the env var itself would race with the parallel test runner.
//!
//! One test counts solver work through the process-global telemetry
//! recorder, so every test here takes [`exclusive`] first: no other
//! test's solves may land in that count.

use std::sync::{Arc, Mutex, MutexGuard};

use macgame_core::equilibrium::DEFAULT_NE_EPSILON;
use macgame_core::queries::Query;
use macgame_dcf::AccessMode;
use macgame_serve::{EngineConfig, Reply, ServeHarness};
use macgame_telemetry::{self as telemetry, CollectingRecorder};

static RECORDER: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    RECORDER.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn harness_with_threads(threads: usize) -> ServeHarness {
    ServeHarness::with_config(EngineConfig { threads, ..EngineConfig::default() }).unwrap()
}

/// A mixed batch large enough to split over several workers, covering
/// all four query types.
fn mixed_batch() -> Vec<Query> {
    let mut queries = Vec::new();
    for w_dev in 1..=60 {
        queries.push(Query::DeviationPayoff {
            players: 5,
            mode: if w_dev % 2 == 0 { AccessMode::Basic } else { AccessMode::RtsCts },
            w_star: 79,
            w_dev,
            reaction_stages: 1,
            delta_s: 0.5,
        });
    }
    for players in 2..=6 {
        queries.push(Query::WcStar { players, mode: AccessMode::Basic, w_max: 512 });
        queries.push(Query::NeInterval { players, mode: AccessMode::RtsCts, w_max: 512 });
    }
    queries.push(Query::RobustnessCell {
        players: 4,
        mode: AccessMode::Basic,
        window: 32,
        reaction_stages: 2,
        epsilon: 1e-9,
    });
    queries
}

#[test]
fn reply_bytes_are_invariant_under_thread_count() {
    let _exclusive = exclusive();
    let queries = mixed_batch();
    let baseline = harness_with_threads(1).reply_bytes(&queries).unwrap();
    assert!(!baseline.is_empty());
    for threads in [2, 8] {
        let h = harness_with_threads(threads);
        let cold = h.reply_bytes(&queries).unwrap();
        assert_eq!(cold, baseline, "cold replies diverged at threads={threads}");
        // A hot pass serves from the reply cache; bytes must not change.
        let hot = h.reply_bytes(&queries).unwrap();
        assert_eq!(hot, baseline, "hot replies diverged at threads={threads}");
    }
}

#[test]
fn shuffled_batches_get_request_ordered_replies() {
    let _exclusive = exclusive();
    let queries = mixed_batch();
    // Per-query ground truth: each query evaluated alone on a fresh
    // engine, keyed by its canonical JSON.
    let solo = ServeHarness::new().unwrap();
    let expected: Vec<String> = queries
        .iter()
        .map(|query| {
            let replies = solo.query_batch(std::slice::from_ref(query)).unwrap();
            serde_json::to_string(&replies[0]).unwrap()
        })
        .collect();

    // A deterministic non-trivial permutation (stride walk).
    let n = queries.len();
    let stride = 17; // coprime with the batch length
    assert_eq!(gcd(stride, n), 1, "stride must generate the full cycle");
    let order: Vec<usize> = (0..n).map(|i| (i * stride) % n).collect();
    let shuffled: Vec<Query> = order.iter().map(|&i| queries[i].clone()).collect();

    let h = ServeHarness::new().unwrap();
    let replies = h.query_batch(&shuffled).unwrap();
    assert_eq!(replies.len(), n);
    for (slot, &source) in order.iter().enumerate() {
        let Reply::Ok { id, result } = &replies[slot] else {
            panic!("query {source} failed in shuffled batch");
        };
        // Ids are batch-positional (1-based); results must match the
        // solo evaluation of the query now sitting at this slot.
        assert_eq!(*id, slot as u64 + 1);
        let got = serde_json::to_string(&Reply::Ok { id: 1, result: result.clone() }).unwrap();
        assert_eq!(got, expected[source], "slot {slot} (query {source}) diverged under shuffle");
    }
}

#[test]
fn coalesced_replies_are_bitwise_equal_to_fresh_solves() {
    let _exclusive = exclusive();
    let unique = mixed_batch();
    // Each query repeated three times, interleaved.
    let mut duplicated = Vec::new();
    for _ in 0..3 {
        duplicated.extend(unique.iter().cloned());
    }

    let coalescing = ServeHarness::new().unwrap();
    let replies = coalescing.query_batch(&duplicated).unwrap();
    assert_eq!(coalescing.engine().reply_counters().1, unique.len() as u64);

    let fresh = ServeHarness::new().unwrap();
    let reference = fresh.query_batch(&unique).unwrap();
    for (i, reply) in replies.iter().enumerate() {
        let Reply::Ok { result, .. } = reply else { panic!("request {i} failed") };
        let Reply::Ok { result: expected, .. } = &reference[i % unique.len()] else {
            panic!("reference {i} failed")
        };
        assert_eq!(result, expected, "coalesced reply {i} diverged from a fresh solve");
    }
}

/// SplitMix64 (the vendored `rand::splitmix64`): a seeded stream for
/// query generation.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        rand::splitmix64(&mut self.0)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next() % u64::from(hi - lo + 1)) as u32
    }
}

/// `count` seeded queries cycling through all five kinds.
fn seeded_stream(seed: u64, count: usize) -> Vec<Query> {
    let mut rng = SplitMix(seed);
    (0..count)
        .map(|i| {
            let mode = if rng.next() % 2 == 0 { AccessMode::Basic } else { AccessMode::RtsCts };
            let players = rng.range(2, 24) as usize;
            let w_max = [64, 512, 4096][rng.range(0, 2) as usize];
            match i % 5 {
                0 => Query::WcStar { players, mode, w_max },
                1 => Query::NeInterval { players, mode, w_max },
                2 => Query::EdcaWcStar { players, mode, txop: rng.range(1, 3), w_max: 256 },
                3 => Query::DeviationPayoff {
                    players,
                    mode,
                    w_star: rng.range(16, 128),
                    w_dev: rng.range(1, 128),
                    reaction_stages: rng.range(1, 3),
                    delta_s: 0.5,
                },
                _ => Query::RobustnessCell {
                    players,
                    mode,
                    window: rng.range(2, 96),
                    reaction_stages: rng.range(1, 3),
                    epsilon: DEFAULT_NE_EPSILON,
                },
            }
        })
        .collect()
}

#[test]
fn evicting_solve_caches_leave_reply_bytes_unchanged() {
    let _exclusive = exclusive();
    let stream = seeded_stream(21, 256);
    let mut wire = Vec::new();
    for frame in stream.chunks(64) {
        wire.extend(ServeHarness::encode_batch(frame).unwrap());
    }
    let replies = |solve_cache_capacity: usize| {
        let config = EngineConfig { solve_cache_capacity, ..EngineConfig::default() };
        ServeHarness::with_config(config).unwrap().roundtrip_raw(&wire).unwrap()
    };
    // Capacity 4 evicts on nearly every insert of both memos; capacity 0
    // solves every point afresh.
    let evicting = replies(4);
    let decoded = ServeHarness::decode_replies(&evicting).unwrap();
    assert_eq!(decoded.len(), 256);
    assert!(decoded.iter().all(|reply| matches!(reply, Reply::Ok { .. })));
    assert_eq!(evicting, replies(0));
}

#[test]
fn warm_symmetric_memo_serves_searches_without_bisecting() {
    let _exclusive = exclusive();
    // Windows ≤ 32 keep each cell's one-deviator sweep in one
    // warm-started chunk: a chunk that starts on the homogeneous profile
    // seeds the class solver with one bisection of its own.
    let mut frame = Vec::new();
    for players in [5usize, 13] {
        for mode in [AccessMode::Basic, AccessMode::RtsCts] {
            frame.push(Query::WcStar { players, mode, w_max: 1024 });
            frame.push(Query::NeInterval { players, mode, w_max: 512 });
        }
    }
    for (players, window) in [(3usize, 8u32), (4, 16), (6, 24), (9, 31)] {
        for mode in [AccessMode::Basic, AccessMode::RtsCts] {
            frame.push(Query::RobustnessCell {
                players,
                mode,
                window,
                reaction_stages: 1,
                epsilon: DEFAULT_NE_EPSILON,
            });
        }
    }
    assert_eq!(frame.len(), 16);
    // No reply cache: the replay re-evaluates every query.
    let config = EngineConfig { reply_cache_capacity: 0, ..EngineConfig::default() };
    let harness = ServeHarness::with_config(config).unwrap();
    let first = harness.reply_bytes(&frame).unwrap();

    let recorder = Arc::new(CollectingRecorder::new());
    telemetry::set_recorder(recorder.clone());
    let replay = harness.reply_bytes(&frame);
    telemetry::clear_recorder();
    assert_eq!(replay.unwrap(), first);
    let counts = recorder.snapshot();
    assert_eq!(counts.counter("serve.cache.hits"), 0);
    assert_eq!(counts.counter("dcf.solver.bisections"), 0);
    assert_eq!(counts.counter("dcf.cache.symmetric.misses"), 0);
    assert!(counts.counter("dcf.cache.symmetric.hits") > 0);
}

#[test]
fn reply_bytes_do_not_depend_on_the_reply_cache_capacity() {
    let _exclusive = exclusive();
    // 2000 queries of all five kinds; every fifth re-asks an earlier one,
    // so hits, per-kind evictions and re-evaluations all occur.
    let mut fresh = seeded_stream(33, 1600).into_iter();
    let mut stream: Vec<Query> = Vec::with_capacity(2000);
    for i in 0..2000 {
        let query = if i % 5 == 4 { stream[(i * 7919) % i].clone() } else { fresh.next().unwrap() };
        stream.push(query);
    }
    let mut wire = Vec::new();
    for frame in stream.chunks(64) {
        wire.extend(ServeHarness::encode_batch(frame).unwrap());
    }
    let replies = |reply_cache_capacity: usize| {
        let config = EngineConfig { reply_cache_capacity, ..EngineConfig::default() };
        let harness = ServeHarness::with_config(config).unwrap();
        let bytes = harness.roundtrip_raw(&wire).unwrap();
        (bytes, harness.engine().reply_counters())
    };
    let (uncached, (hits, _, _)) = replies(0);
    assert_eq!(hits, 0, "capacity 0 is the no-op cache");
    let decoded = ServeHarness::decode_replies(&uncached).unwrap();
    assert_eq!(decoded.len(), stream.len());
    assert!(decoded.iter().all(|reply| matches!(reply, Reply::Ok { .. })));
    // Capacities 1 and 5 give every kind one slot and evict on nearly
    // every insert; 4096 splits into 819 per kind.
    for capacity in [1, 5, 4096] {
        let (bytes, (hits, _, evictions)) = replies(capacity);
        assert!(hits > 0, "capacity {capacity}: the re-asks must hit");
        if capacity < 4096 {
            assert!(evictions > 0, "capacity {capacity} must evict");
        }
        assert!(bytes == uncached, "reply bytes diverged at capacity {capacity}");
    }
}

#[test]
fn one_shot_prices_do_not_flush_the_wc_star_replies() {
    let _exclusive = exclusive();
    let harness = ServeHarness::new().unwrap();
    let frame: Vec<Query> = (2..18)
        .map(|players| Query::WcStar { players, mode: AccessMode::Basic, w_max: 512 })
        .collect();
    let first = harness.reply_bytes(&frame).unwrap();
    // More distinct deviation prices than the whole reply-cache bound.
    let prices: Vec<Query> = [0.0, 0.25, 0.5, 0.75, 0.9]
        .into_iter()
        .flat_map(|delta_s| {
            (1..1000).map(move |w_dev| Query::DeviationPayoff {
                players: 5,
                mode: AccessMode::Basic,
                w_star: 1000,
                w_dev,
                reaction_stages: 1,
                delta_s,
            })
        })
        .collect();
    assert!(prices.len() > EngineConfig::default().reply_cache_capacity);
    for batch in prices.chunks(256) {
        harness.reply_bytes(batch).unwrap();
    }
    let (_, misses_before, _) = harness.engine().reply_counters();
    let replay = harness.reply_bytes(&frame).unwrap();
    let (_, misses_after, _) = harness.engine().reply_counters();
    assert_eq!(misses_after - misses_before, 0, "the WcStar replies were evicted");
    assert_eq!(replay, first);
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}
