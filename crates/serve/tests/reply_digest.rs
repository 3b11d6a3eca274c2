//! The served reply bytes of a seeded churn-like stream, pinned as a byte
//! count and an FNV-1a digest: a change that means to keep every reply
//! byte (a cache, a kernel, a solver restructuring) must pass this test
//! unedited.
//!
//! The stream runs through one `Engine` via `serve_stream`: 200 frames
//! of 64 queries over all five kinds, in the ranges of the `serve-churn`
//! benchmark — populations up to 128 (16 for robustness cells), both
//! access modes, EDCA bursts 1 to 16, prices at `w_dev == w_star` — with
//! a quarter of the queries re-asking one of the last 512.

use macgame_core::queries::Query;
use macgame_core::DEFAULT_NE_EPSILON;
use macgame_dcf::AccessMode;
use macgame_serve::{serve_stream, Engine, EngineConfig, ServeHarness};

/// Frames in the stream.
const FRAMES: usize = 200;
/// Queries per frame.
const FRAME: usize = 64;
/// Reply bytes of the stream.
const REPLY_BYTES: usize = 2_192_766;
/// FNV-1a of the reply bytes.
const REPLY_DIGEST: u64 = 0x43ad_27b4_09a7_42f7;

/// splitmix64: a fixed, dependency-free stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next() % u64::from(hi - lo + 1)) as u32
    }

    fn mode(&mut self) -> AccessMode {
        if self.next() % 2 == 0 {
            AccessMode::Basic
        } else {
            AccessMode::RtsCts
        }
    }
}

/// A fresh query: 60 % prices, 12 % `W*`, 10 % NE intervals, 10 %
/// robustness cells, 8 % EDCA optima.
fn fresh(rng: &mut Rng) -> Query {
    let players = |rng: &mut Rng, hi: u32| rng.range(2, hi) as usize;
    match rng.range(0, 99) {
        0..=59 => {
            let w_star = rng.range(16, 1024);
            // One price in eight does not deviate at all.
            let w_dev = if rng.range(0, 7) == 0 { w_star } else { rng.range(1, w_star - 1) };
            Query::DeviationPayoff {
                players: players(rng, 128),
                mode: rng.mode(),
                w_star,
                w_dev,
                reaction_stages: rng.range(1, 4),
                delta_s: f64::from(rng.range(0, 18)) / 20.0,
            }
        }
        60..=71 => Query::WcStar {
            players: players(rng, 128),
            mode: rng.mode(),
            w_max: [1024, 2048, 4096][rng.range(0, 2) as usize],
        },
        72..=81 => Query::NeInterval {
            players: players(rng, 128),
            mode: rng.mode(),
            w_max: [1024, 2048, 4096][rng.range(0, 2) as usize],
        },
        82..=91 => Query::RobustnessCell {
            players: players(rng, 16),
            mode: rng.mode(),
            window: rng.range(2, 128),
            reaction_stages: rng.range(1, 3),
            epsilon: DEFAULT_NE_EPSILON,
        },
        _ => Query::EdcaWcStar {
            players: players(rng, 40),
            mode: rng.mode(),
            txop: rng.range(1, 16),
            w_max: 1024,
        },
    }
}

/// The seeded stream: each query fresh, or with probability 1/4 a
/// re-ask of one of the last 512.
fn stream(seed: u64) -> Vec<Query> {
    let mut rng = Rng(seed);
    let mut queries: Vec<Query> = Vec::with_capacity(FRAMES * FRAME);
    for _ in 0..FRAMES * FRAME {
        let query = if !queries.is_empty() && rng.range(0, 3) == 0 {
            let recent = queries.len().min(512) as u32;
            queries[queries.len() - 1 - rng.range(0, recent - 1) as usize].clone()
        } else {
            fresh(&mut rng)
        };
        queries.push(query);
    }
    queries
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn served_reply_bytes_are_pinned() {
    let queries = stream(29);
    let mut wire = Vec::new();
    for frame in queries.chunks(FRAME) {
        wire.extend_from_slice(&ServeHarness::encode_batch(frame).unwrap());
    }
    let engine = Engine::new(EngineConfig::default()).unwrap();
    let mut replies = Vec::new();
    serve_stream(&engine, &mut wire.as_slice(), &mut replies).unwrap();
    let ok = ServeHarness::decode_replies(&replies).unwrap().iter().filter(|r| r.is_ok()).count();
    assert_eq!(ok, FRAMES * FRAME, "every query in the churn ranges is answered");
    assert_eq!(
        (replies.len(), fnv1a(&replies)),
        (REPLY_BYTES, REPLY_DIGEST),
        "reply bytes moved: {} bytes, digest {:#018x}",
        replies.len(),
        fnv1a(&replies)
    );
}
