//! Seeded inputs: the query pools, the churn stream and the encoded
//! request frames. Everything here is a pure function of the seed.

use std::collections::BTreeSet;

use macgame_core::queries::Query;
use macgame_core::DEFAULT_NE_EPSILON;
use macgame_dcf::AccessMode;
use macgame_serve::frame::write_frame;
use macgame_serve::{BatchRequest, Request};

/// SplitMix64: tiny, seedable, and identical on every platform and
/// release, so a seed names the same inputs forever.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ 0x6a09_e667_f3bc_c908);
        rng.0 ^= rng
            .next_u64()
            .wrapping_add(stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2^-40 here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below(u64::from(hi - lo) + 1) as u32
    }

    fn mode(&mut self) -> AccessMode {
        if self.below(2) == 0 {
            AccessMode::Basic
        } else {
            AccessMode::RtsCts
        }
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// The five query kinds of the serve protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `Query::WcStar`.
    WcStar,
    /// `Query::NeInterval`.
    NeInterval,
    /// `Query::DeviationPayoff`.
    DeviationPayoff,
    /// `Query::RobustnessCell`.
    RobustnessCell,
    /// `Query::EdcaWcStar`.
    EdcaWcStar,
}

impl Kind {
    /// Every kind, in metric order.
    pub const ALL: [Kind; 5] = [
        Kind::WcStar,
        Kind::NeInterval,
        Kind::DeviationPayoff,
        Kind::RobustnessCell,
        Kind::EdcaWcStar,
    ];

    /// The kind of `query`.
    #[must_use]
    pub fn of(query: &Query) -> Kind {
        match query {
            Query::WcStar { .. } => Kind::WcStar,
            Query::NeInterval { .. } => Kind::NeInterval,
            Query::DeviationPayoff { .. } => Kind::DeviationPayoff,
            Query::RobustnessCell { .. } => Kind::RobustnessCell,
            Query::EdcaWcStar { .. } => Kind::EdcaWcStar,
        }
    }

    /// The metric-name suffix of this kind.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::WcStar => "wc_star",
            Kind::NeInterval => "ne_interval",
            Kind::DeviationPayoff => "deviation_payoff",
            Kind::RobustnessCell => "robustness_cell",
            Kind::EdcaWcStar => "edca_wc_star",
        }
    }
}

/// A fresh query of `kind`. `max_players` bounds the population of every
/// kind but `RobustnessCell`, which stays at n ≤ 16 and W ≤ 128: larger
/// cells cost seconds each (see the notes beside this benchmark).
pub fn fresh_query(kind: Kind, rng: &mut Rng, max_players: u32) -> Query {
    let players = |rng: &mut Rng| rng.range(2, max_players) as usize;
    match kind {
        Kind::WcStar => Query::WcStar {
            players: players(rng),
            mode: rng.mode(),
            w_max: rng.pick(&[1024, 2048, 4096]),
        },
        Kind::NeInterval => Query::NeInterval {
            players: players(rng),
            mode: rng.mode(),
            w_max: rng.pick(&[1024, 2048, 4096]),
        },
        Kind::DeviationPayoff => {
            let w_star = rng.range(16, 1024);
            Query::DeviationPayoff {
                players: players(rng),
                mode: rng.mode(),
                w_star,
                w_dev: rng.range(1, w_star - 1),
                reaction_stages: rng.range(1, 4),
                delta_s: f64::from(rng.range(0, 18)) / 20.0,
            }
        }
        Kind::RobustnessCell => Query::RobustnessCell {
            players: rng.range(2, 16) as usize,
            mode: rng.mode(),
            window: rng.range(2, 128),
            reaction_stages: rng.range(1, 3),
            epsilon: DEFAULT_NE_EPSILON,
        },
        Kind::EdcaWcStar => Query::EdcaWcStar {
            players: rng.range(2, max_players.min(40)) as usize,
            mode: rng.mode(),
            txop: rng.range(2, 16),
            w_max: 1024,
        },
    }
}

/// Unique queries in the `serve-hot` pool.
pub const HOT_POOL: usize = 64;
/// Queries per `serve-hot` frame (the pool four times over).
pub const HOT_FRAME: usize = 256;
/// Distinct pre-encoded `serve-hot` frames, cycled by the run.
pub const HOT_FRAMES: usize = 8;
/// Queries per `serve-churn` frame.
pub const CHURN_FRAME: usize = 64;
/// Share of churn queries, in percent, that re-ask a recent query.
pub const CHURN_REPEAT_PCT: u64 = 25;
/// How far back a churn re-ask may reach.
pub const CHURN_RECENT: usize = 512;

/// The `serve-hot` pool: 64 distinct queries over all five kinds
/// (20 deviation prices and 11 of each other kind), n ≤ 40.
#[must_use]
pub fn hot_pool(seed: u64) -> Vec<Query> {
    let mut rng = Rng::new(seed, 1);
    let quota = [
        (Kind::DeviationPayoff, 20),
        (Kind::WcStar, 11),
        (Kind::NeInterval, 11),
        (Kind::RobustnessCell, 11),
        (Kind::EdcaWcStar, 11),
    ];
    let mut seen = BTreeSet::new();
    let mut pool = Vec::with_capacity(HOT_POOL);
    for (kind, count) in quota {
        let mut taken = 0;
        while taken < count {
            let query = fresh_query(kind, &mut rng, 40);
            if seen.insert(canonical(&query)) {
                pool.push(query);
                taken += 1;
            }
        }
    }
    pool
}

/// The `serve-hot` frames: each holds the pool four times in its own
/// seeded order.
#[must_use]
pub fn hot_frames(seed: u64, pool: &[Query]) -> Vec<Vec<Query>> {
    let mut rng = Rng::new(seed, 2);
    (0..HOT_FRAMES)
        .map(|_| {
            let mut frame: Vec<Query> = (0..HOT_FRAME)
                .map(|i| pool[i % pool.len()].clone())
                .collect();
            for i in (1..frame.len()).rev() {
                frame.swap(i, rng.below(i as u64 + 1) as usize);
            }
            frame
        })
        .collect()
}

/// The churn kind mix, in percent: half deviation prices, then robustness
/// cells, `W_c*`, NE intervals and EDCA optima.
pub const CHURN_MIX: [(Kind, u64); 5] = [
    (Kind::DeviationPayoff, 50),
    (Kind::RobustnessCell, 20),
    (Kind::WcStar, 15),
    (Kind::NeInterval, 10),
    (Kind::EdcaWcStar, 5),
];

/// The first `count` queries of the seeded churn stream: fresh queries
/// drawn by [`CHURN_MIX`] (n ≤ 128), a quarter of them replaced by a
/// re-ask of one of the last 512 queries.
#[must_use]
pub fn churn_queries(seed: u64, count: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed, 3);
    let mut stream: Vec<Query> = Vec::with_capacity(count);
    for _ in 0..count {
        let query = if !stream.is_empty() && rng.below(100) < CHURN_REPEAT_PCT {
            let recent = stream.len().min(CHURN_RECENT);
            stream[stream.len() - 1 - rng.below(recent as u64) as usize].clone()
        } else {
            let mut roll = rng.below(100);
            let kind = CHURN_MIX
                .iter()
                .find(|&&(_, pct)| {
                    let hit = roll < pct;
                    roll = roll.saturating_sub(pct);
                    hit
                })
                .map_or(Kind::DeviationPayoff, |&(kind, _)| kind);
            fresh_query(kind, &mut rng, 128)
        };
        stream.push(query);
    }
    stream
}

/// A query's canonical JSON: the serve engine's coalescing and cache key.
#[must_use]
pub fn canonical(query: &Query) -> String {
    serde_json::to_string(query).expect("queries serialize")
}

/// One pre-encoded request frame and what it asks.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The wire bytes: `[u32 BE length][BatchRequest JSON]`.
    pub wire: Vec<u8>,
    /// The requests, in order; ids are consecutive from `first_id`.
    pub queries: Vec<Query>,
    /// Id of the first request.
    pub first_id: u64,
}

/// Encodes `queries` as one frame with ids `first_id..`.
#[must_use]
pub fn encode_frame(queries: Vec<Query>, first_id: u64) -> Frame {
    let batch = BatchRequest {
        requests: queries
            .iter()
            .enumerate()
            .map(|(i, query)| Request {
                id: first_id + i as u64,
                query: query.clone(),
            })
            .collect(),
    };
    let payload = serde_json::to_string(&batch).expect("batches serialize");
    let mut wire = Vec::with_capacity(payload.len() + 4);
    write_frame(&mut wire, payload.as_bytes()).expect("in-memory frame fits the limit");
    Frame {
        wire,
        queries,
        first_id,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_pool_is_unique_and_covers_every_kind() {
        let pool = hot_pool(5);
        let keys: BTreeSet<String> = pool.iter().map(canonical).collect();
        assert_eq!(keys.len(), HOT_POOL);
        for kind in Kind::ALL {
            assert!(pool.iter().any(|q| Kind::of(q) == kind), "{kind:?}");
        }
    }

    #[test]
    fn streams_are_pure_functions_of_the_seed() {
        assert_eq!(churn_queries(9, 500), churn_queries(9, 500));
        assert_ne!(churn_queries(9, 500), churn_queries(10, 500));
        assert_eq!(hot_frames(4, &hot_pool(4)), hot_frames(4, &hot_pool(4)));
    }
}
