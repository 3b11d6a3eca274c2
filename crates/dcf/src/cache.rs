//! Thread-safe memoization: the generic sharded FIFO [`Memo`] and the
//! permutation-canonicalizing [`SolveCache`] of fixed-point solutions
//! built on it.
//!
//! # The memo
//!
//! [`Memo`] is the one cache container in the workspace. The store is
//! split into up to 16 independently locked shards, so concurrent
//! lookups from a batch-serving front end contend on a sixteenth of the
//! key space instead of one global lock. Each shard is an `RwLock` over
//! its resident entries in insertion order, which is the FIFO eviction
//! order, plus an index from key hash to position: every key is stored
//! once, however long it is. A key's hash is FNV-1a over its `Hash`
//! output: deterministic across runs on one platform (unlike `std`'s
//! seeded hasher), so shard assignment, and therefore per-shard eviction
//! order, is reproducible. The first insert
//! of a key wins, so every caller observes one value per key; values are
//! pure functions of their keys, so a hit is the value a fresh
//! computation would return.
//!
//! # The solve cache
//!
//! The coupled `(τ, p)` system is symmetric under player relabeling: if
//! `σ` permutes the window profile, the solution permutes the same way.
//! Scans, payoff-table builds and tournaments therefore revisit the same
//! *multiset* of windows under many orderings. [`SolveCache`] keys on the
//! canonical [`Classes`] of that multiset and stores the class-level
//! solution, expanding it onto the caller's player order on every lookup.
//!
//! Hit and miss both expand the **same** stored class solution, and the
//! class solve is exactly what [`crate::fixedpoint::solve`] runs
//! internally, so a cache lookup is bitwise-identical to a fresh
//! [`crate::fixedpoint::solve`] of the same profile. The same holds across
//! eviction: an evicted key re-solves through the identical deterministic
//! path. Profiles that arrive already sorted (the common case in scans)
//! skip the clone-and-argsort canonicalization and collapse by run-length
//! encoding in one pass.
//!
//! A second memo keys the homogeneous point of `n` nodes on window `W` by
//! `(n, W)`: the [`SymmetricSolution`] that
//! [`crate::fixedpoint::solve_symmetric`]'s root search and the slot
//! statistics give. Through [`SymmetricSource`], the `W_c*`, break-even
//! and NE-interval searches of [`crate::optimal`] read it instead of
//! bisecting each probed window afresh; a hit is the exact bits of that
//! fresh computation.
//!
//! A third memo holds *deviator rows*: for `n` nodes sharing window `W`
//! under a strategy bound `w_max` and a [`UtilityParams`], the deviator's
//! stage utility for every unilateral deviation an ε-NE check prices.
//! The caller supplies the computation ([`SolveCache::deviator_row`]); the
//! memo only guarantees that a key is computed once while it stays
//! resident, so a hit is again the exact bits of a fresh row.
//!
//! Two more memos hold whole answers read off the symmetric points. The
//! `W_c*` memo keys [`SymmetricSource::efficient_cw`] by
//! `(n, w_max, utility)`, so a `W_c*` or NE-interval search runs once per
//! key. The stage-column memo ([`SolveCache::stage_column`]) keys the
//! symmetric stage utilities of windows `1..=cover` by
//! `(n, cover, utility)`, where `cover` rounds the requested window up to
//! a power of two: every ε-NE check at a window up to `cover` reads the
//! same column. Each entry is the search's or the points' own bits.

use std::collections::{BTreeSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use macgame_telemetry as telemetry;

use crate::classes::{ClassEquilibrium, Classes};
use crate::error::DcfError;
use crate::fixedpoint::{solve_classes, Equilibrium, SolveOptions};
use crate::optimal::{search_efficient_cw, EfficientNe, SymmetricSource};
use crate::params::DcfParams;
use crate::utility::{SymmetricSolution, UtilityParams};

/// Maximum number of independently locked shards in a [`Memo`]. Bounded
/// memos with fewer than `MAX_SHARDS` entries use one shard per entry so
/// the configured capacity is exact.
const MAX_SHARDS: usize = 16;

/// Indices of the three counters in `Memo::counts` and `Memo::names`.
const HITS: usize = 0;
const MISSES: usize = 1;
const EVICTIONS: usize = 2;

/// FNV-1a as a [`Hasher`]: seedless, so a key hashes the same in every
/// run and shard placement is reproducible.
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// FNV-1a of `key`'s `Hash` output.
fn fnv1a<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut hasher = Fnv1a(0xcbf2_9ce4_8422_2325);
    key.hash(&mut hasher);
    hasher.finish()
}

/// One lock's worth of a [`Memo`]. Entry `i` of `entries` has sequence
/// number `first + i`; `index` holds `(hash, sequence number)` of every
/// entry, so a lookup scans only the entries whose hash matches.
#[derive(Debug)]
struct Shard<K, V> {
    /// Resident `(hash, key, value)` in insertion order, oldest first.
    entries: VecDeque<(u64, K, V)>,
    first: u64,
    index: BTreeSet<(u64, u64)>,
}

impl<K: Eq, V> Shard<K, V> {
    /// The position in `entries` of `key`, whose hash is `hash`.
    fn find(&self, hash: u64, key: &K) -> Option<usize> {
        self.index
            .range((hash, 0)..=(hash, u64::MAX))
            .map(|&(_, seq)| (seq - self.first) as usize)
            .find(|&i| self.entries[i].1 == *key)
    }
}

/// A thread-safe, sharded key → value cache with an optional FIFO
/// capacity bound and hit/miss/eviction counters mirrored to telemetry.
/// Share by reference or [`Arc`]; all methods take `&self`.
#[derive(Debug)]
pub struct Memo<K, V> {
    shards: Vec<RwLock<Shard<K, V>>>,
    /// `None`: unbounded. `Some(k)` with `k > 0`: at most `k` entries per
    /// shard. `Some(0)`: the no-op cache, nothing is ever stored.
    per_shard: Option<usize>,
    /// Telemetry counter names for hits, misses and evictions.
    names: [&'static str; 3],
    counts: [AtomicU64; 3],
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    /// Creates an empty memo holding at most `capacity` entries, counting
    /// on the telemetry counters `hits`, `misses` and `evictions`.
    ///
    /// `None` is unbounded: entries are never evicted. `Some(c)` enforces
    /// the bound per shard in FIFO insertion order, with the shard count
    /// chosen so the total never exceeds `c`; a hot shard may evict while
    /// colder shards still have room, so the resident count can sit below
    /// `c`, never above it. `Some(0)` is the documented **no-op cache**:
    /// every lookup misses, nothing is stored and nothing is evicted.
    #[must_use]
    pub fn new(
        capacity: Option<usize>,
        hits: &'static str,
        misses: &'static str,
        evictions: &'static str,
    ) -> Self {
        // Bounded memos smaller than MAX_SHARDS get one single-entry shard
        // per slot so the capacity is exact; larger ones split it evenly,
        // rounding down so the total never exceeds the request.
        let (shard_count, per_shard) = match capacity {
            None => (MAX_SHARDS, None),
            Some(0) => (1, Some(0)),
            Some(c) if c < MAX_SHARDS => (c, Some(1)),
            Some(c) => (MAX_SHARDS, Some(c / MAX_SHARDS)),
        };
        let shards = (0..shard_count)
            .map(|_| {
                RwLock::new(Shard { entries: VecDeque::new(), first: 0, index: BTreeSet::new() })
            })
            .collect();
        Memo {
            shards,
            per_shard,
            names: [hits, misses, evictions],
            counts: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    fn shard(&self, hash: u64) -> &RwLock<Shard<K, V>> {
        &self.shards[(hash % self.shards.len() as u64) as usize]
    }

    /// Looks `key` up, counting one hit or one miss.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<V> {
        let found = if self.per_shard == Some(0) {
            None
        } else {
            let hash = fnv1a(key);
            let shard = self.shard(hash).read().expect("memo lock poisoned"); // PANIC-POLICY: lock poisoning means a panic is already unwinding; propagating it is correct
            shard.find(hash, key).map(|i| shard.entries[i].2.clone())
        };
        self.bump(if found.is_some() { HITS } else { MISSES });
        found
    }

    /// Stores `value` under `key` unless the key is already resident, and
    /// returns the resident value: the first insert wins. Evicts the
    /// shard's oldest entry when the insert overflows its bound.
    pub fn insert(&self, key: K, value: V) -> V {
        if self.per_shard == Some(0) {
            return value;
        }
        let hash = fnv1a(&key);
        let mut guard = self.shard(hash).write().expect("memo lock poisoned"); // PANIC-POLICY: lock poisoning means a panic is already unwinding; propagating it is correct
        let shard = &mut *guard;
        if let Some(i) = shard.find(hash, &key) {
            return shard.entries[i].2.clone();
        }
        shard.index.insert((hash, shard.first + shard.entries.len() as u64));
        shard.entries.push_back((hash, key, value.clone()));
        // One insert overflows the bound by at most one entry: the oldest
        // leaves.
        if self.per_shard.is_some_and(|bound| shard.entries.len() > bound) {
            if let Some((victim, _, _)) = shard.entries.pop_front() {
                shard.index.remove(&(victim, shard.first));
                shard.first += 1;
                self.bump(EVICTIONS);
            }
        }
        value
    }

    /// [`Memo::get`], and on a miss `make()` inserted through
    /// [`Memo::insert`]. `make` runs outside every lock: racing misses on
    /// one key may each compute (and each count a miss), but all of them
    /// return the first value inserted.
    ///
    /// # Errors
    ///
    /// Propagates `make`'s error; nothing is stored then.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: &K,
        make: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        if let Some(hit) = self.get(key) {
            return Ok(hit);
        }
        Ok(self.insert(key.clone(), make()?))
    }

    /// Lookups served from the memo.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.read(HITS)
    }

    /// Lookups that found nothing.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.read(MISSES)
    }

    /// Entries dropped to stay under the capacity bound. Always zero for
    /// unbounded and no-op memos.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.read(EVICTIONS)
    }

    /// Entries currently resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("memo lock poisoned").entries.len()) // PANIC-POLICY: lock poisoning means a panic is already unwinding; propagating it is correct
            .sum()
    }

    /// Whether no entry is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The counters are monotonic diagnostics: they order no other memory
    /// access, so these two helpers are the only relaxed atomics.
    fn bump(&self, counter: usize) {
        self.counts[counter].fetch_add(1, Ordering::Relaxed);
        telemetry::counter(self.names[counter], 1);
    }

    fn read(&self, counter: usize) -> u64 {
        self.counts[counter].load(Ordering::Relaxed)
    }
}

/// Stable argsort of a window profile: returns the sorted profile and the
/// permutation `perm` with `sorted[k] == windows[perm[k]]`.
#[must_use]
pub fn canonicalize(windows: &[u32]) -> (Vec<u32>, Vec<usize>) {
    let mut perm: Vec<usize> = (0..windows.len()).collect();
    perm.sort_by_key(|&i| windows[i]);
    let sorted = perm.iter().map(|&i| windows[i]).collect();
    (sorted, perm)
}

/// Key of a deviator row: `(n, W, w_max, [gain, cost] bits)`.
type RowKey = (usize, u32, u32, [u64; 2]);

/// Key of a `W_c*` answer `(n, w_max, [gain, cost] bits)`, or of a stage
/// column `(n, cover, [gain, cost] bits)`.
type WindowKey = (usize, u32, [u64; 2]);

/// The memo key of a [`UtilityParams`]: its fields' bits.
fn utility_bits(utility: &UtilityParams) -> [u64; 2] {
    [utility.gain.to_bits(), utility.cost.to_bits()]
}

/// Shared profile → class-solution cache for one `(params, options)`
/// pair, counting on the `dcf.cache.*` telemetry counters, plus the
/// `(n, W)` → [`SymmetricSolution`] memo behind its [`SymmetricSource`]
/// impl, counting on `dcf.cache.symmetric.*`, the deviator-row memo of
/// [`SolveCache::deviator_row`], counting on `dcf.cache.deviation.*`, the
/// `W_c*` memo behind [`SymmetricSource::efficient_cw`], counting on
/// `dcf.cache.efficient.*`, and the column memo of
/// [`SolveCache::stage_column`], counting on `dcf.cache.stages.*`.
/// Wrap in an [`Arc`] to share across threads; all methods take `&self`.
#[derive(Debug)]
pub struct SolveCache {
    params: DcfParams,
    options: SolveOptions,
    memo: Memo<Classes<u32>, Arc<ClassEquilibrium>>,
    symmetric: Memo<(usize, u32), SymmetricSolution>,
    rows: Memo<RowKey, Arc<[f64]>>,
    efficient: Memo<WindowKey, EfficientNe>,
    columns: Memo<WindowKey, Arc<[f64]>>,
}

impl SolveCache {
    /// Creates an empty, **unbounded** cache bound to `params` and
    /// `options`: entries are never evicted.
    #[must_use]
    pub fn new(params: DcfParams, options: SolveOptions) -> Self {
        Self::build(params, options, None)
    }

    /// Creates a cache whose five memos (class solutions, symmetric
    /// points, deviator rows, `W_c*` answers and stage columns) each hold
    /// at most `capacity` entries, with the bound
    /// semantics of [`Memo::new`]: `with_capacity(0)` is the no-op cache,
    /// where every lookup solves afresh. It measures the cold path while
    /// keeping the canonicalization and telemetry of the cache API.
    #[must_use]
    pub fn with_capacity(params: DcfParams, options: SolveOptions, capacity: usize) -> Self {
        Self::build(params, options, Some(capacity))
    }

    fn build(params: DcfParams, options: SolveOptions, capacity: Option<usize>) -> Self {
        let memo = Memo::new(capacity, "dcf.cache.hits", "dcf.cache.misses", "dcf.cache.evictions");
        let symmetric = Memo::new(
            capacity,
            "dcf.cache.symmetric.hits",
            "dcf.cache.symmetric.misses",
            "dcf.cache.symmetric.evictions",
        );
        let rows = Memo::new(
            capacity,
            "dcf.cache.deviation.hits",
            "dcf.cache.deviation.misses",
            "dcf.cache.deviation.evictions",
        );
        let efficient = Memo::new(
            capacity,
            "dcf.cache.efficient.hits",
            "dcf.cache.efficient.misses",
            "dcf.cache.efficient.evictions",
        );
        let columns = Memo::new(
            capacity,
            "dcf.cache.stages.hits",
            "dcf.cache.stages.misses",
            "dcf.cache.stages.evictions",
        );
        SolveCache { params, options, memo, symmetric, rows, efficient, columns }
    }

    /// The DCF parameters every cached solution was computed under.
    #[must_use]
    pub fn params(&self) -> &DcfParams {
        &self.params
    }

    /// The underlying store, for its counters and occupancy.
    #[must_use]
    pub fn memo(&self) -> &Memo<Classes<u32>, Arc<ClassEquilibrium>> {
        &self.memo
    }

    /// Solves `windows`, serving permutations (and multiplicity
    /// re-orderings) of previously-seen profiles from the cache. The
    /// result is bitwise-identical to [`crate::fixedpoint::solve`] on the
    /// same profile, whether it was a hit, a miss, or a re-solve of an
    /// evicted key.
    ///
    /// # Errors
    ///
    /// Propagates solver errors (invalid profile, non-convergence).
    pub fn solve(&self, windows: &[u32]) -> Result<Equilibrium, DcfError> {
        if windows.windows(2).all(|pair| pair[0] <= pair[1]) && !windows.is_empty() {
            telemetry::counter("dcf.cache.sorted_fast_path", 1);
            let profile = Classes::from_sorted(windows)?;
            let solved = self.solve_class_profile(&profile)?;
            return Ok(solved.expand_sorted(&profile));
        }
        let (profile, assignment) = Classes::collapse(windows)?;
        let solved = self.solve_class_profile(&profile)?;
        Ok(solved.expand(&assignment))
    }

    /// Solves a window profile in [`Classes`] form through the cache, sharing the stored
    /// [`Arc`] — the O(k) entry point for population-scale callers that
    /// never materialize node-level vectors.
    ///
    /// # Errors
    ///
    /// Propagates solver errors (non-convergence, invalid damping).
    pub fn solve_class_profile(
        &self,
        profile: &Classes<u32>,
    ) -> Result<Arc<ClassEquilibrium>, DcfError> {
        self.memo.get_or_try_insert_with(profile, || {
            solve_classes(profile, &self.params, self.options).map(Arc::new)
        })
    }

    /// The deviator row of `n` nodes on window `w` under strategy bound
    /// `w_max` and `utility`, from the memo or, on a miss, from `make`.
    /// `make` must compute that row under this cache's parameters and
    /// nothing else: the key is `(n, w, w_max, utility)` and a hit
    /// returns whatever the first resident `make` produced.
    ///
    /// # Errors
    ///
    /// Propagates `make`'s error; nothing is stored then.
    pub fn deviator_row<E>(
        &self,
        n: usize,
        w: u32,
        w_max: u32,
        utility: &UtilityParams,
        make: impl FnOnce() -> Result<Vec<f64>, E>,
    ) -> Result<Arc<[f64]>, E> {
        let key = (n, w, w_max, utility_bits(utility));
        self.rows.get_or_try_insert_with(&key, || make().map(Arc::from))
    }

    /// The symmetric stage utility of `n` nodes under `utility` at every
    /// window `1..=cover`, indexed by window (slot 0 is `NaN`, never
    /// read), where `cover` is `w` rounded up to a power of two, at least
    /// 16, capped at `w_max` and never below `w`. Entry `v` is the bits of
    /// [`SymmetricSource::symmetric`]`(n, v).utility(utility)`, so a
    /// column that covers `w` reads as a fresh table of `1..=w`. Rounding
    /// lets the checks at every window up to `cover` share one column;
    /// the cap keeps it inside the strategy space.
    ///
    /// # Errors
    ///
    /// Propagates the first failing point's error; nothing is stored then.
    pub fn stage_column(
        &self,
        n: usize,
        w: u32,
        w_max: u32,
        utility: &UtilityParams,
    ) -> Result<Arc<[f64]>, DcfError> {
        let rounded = w.max(16).checked_next_power_of_two().unwrap_or(u32::MAX);
        let cover = rounded.min(w_max).max(w);
        self.columns.get_or_try_insert_with(&(n, cover, utility_bits(utility)), || {
            std::iter::once(Ok(f64::NAN))
                .chain((1..=cover).map(|v| Ok(self.symmetric(n, v)?.utility(utility))))
                .collect()
        })
    }
}

impl SymmetricSource for SolveCache {
    fn params(&self) -> &DcfParams {
        &self.params
    }

    /// The memoized `(n, w)` point: a hit returns the bits the parameters'
    /// own [`SymmetricSource::symmetric`] computes on a miss.
    fn symmetric(&self, n: usize, w: u32) -> Result<SymmetricSolution, DcfError> {
        self.symmetric.get_or_try_insert_with(&(n, w), || self.params.symmetric(n, w))
    }

    /// The memoized `W_c*` answer: a hit returns the bits of the search
    /// over this cache's points, `tau_star` included.
    fn efficient_cw(
        &self,
        n: usize,
        utility: &UtilityParams,
        w_max: u32,
    ) -> Result<EfficientNe, DcfError> {
        self.efficient.get_or_try_insert_with(&(n, w_max, utility_bits(utility)), || {
            search_efficient_cw(self, n, utility, w_max)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixedpoint::solve;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn cache() -> SolveCache {
        SolveCache::new(DcfParams::default(), SolveOptions::default())
    }

    fn bounded(capacity: usize) -> SolveCache {
        SolveCache::with_capacity(DcfParams::default(), SolveOptions::default(), capacity)
    }

    fn memo(capacity: Option<usize>) -> Memo<u32, u32> {
        Memo::new(capacity, "test.memo.hits", "test.memo.misses", "test.memo.evictions")
    }

    /// Capacities covering every shard layout: unbounded, no-op, one
    /// shard, fewer entries than shards, exactly 16 one-entry shards,
    /// 16 one-entry shards under a capacity of 17, and multi-entry shards.
    const CAPACITIES: [Option<usize>; 7] =
        [None, Some(0), Some(1), Some(3), Some(16), Some(17), Some(64)];

    proptest! {
        #[test]
        fn memo_counters_and_bound_hold_under_random_traffic(
            capacity in 0usize..CAPACITIES.len(),
            ops in prop::collection::vec((0u32..2, 0u32..48), 0..300),
        ) {
            let capacity = CAPACITIES[capacity];
            let m = memo(capacity);
            // Residency model: each shard a FIFO queue of at most
            // `per_shard` keys, the shard picked by the key's hash.
            let mut model: Vec<VecDeque<u32>> = vec![VecDeque::new(); m.shards.len()];
            let shard_of = |key: &u32| (fnv1a(key) % m.shards.len() as u64) as usize;
            // The value each key got when it was last newly stored:
            // every insert offers a fresh value (its op index), so an
            // insert that returns its own value is exactly a new store.
            let mut stored: BTreeMap<u32, u32> = BTreeMap::new();
            let (mut gets, mut new_stores) = (0u64, 0u64);
            for (i, &(op, key)) in ops.iter().enumerate() {
                let value = i as u32;
                let queue = &mut model[shard_of(&key)];
                let modelled = queue.contains(&key);
                if op == 0 {
                    gets += 1;
                    let hit = m.get(&key);
                    prop_assert_eq!(hit.is_some(), modelled, "residency is per-shard FIFO");
                    if let Some(hit) = hit {
                        prop_assert_eq!(Some(&hit), stored.get(&key), "hit is the first insert");
                    }
                } else {
                    let resident = m.insert(key, value);
                    if capacity != Some(0) && !modelled {
                        queue.push_back(key);
                        if m.per_shard.is_some_and(|bound| queue.len() > bound) {
                            queue.pop_front();
                        }
                    }
                    if capacity == Some(0) {
                        prop_assert_eq!(resident, value);
                    } else if resident == value {
                        prop_assert!(!modelled, "a resident key was stored again");
                        new_stores += 1;
                        stored.insert(key, value);
                    } else {
                        prop_assert_eq!(Some(&resident), stored.get(&key), "first insert wins");
                    }
                }
                if let Some(c) = capacity {
                    prop_assert!(m.len() <= c, "len {} > capacity {c}", m.len());
                }
            }
            prop_assert_eq!(m.hits() + m.misses(), gets);
            prop_assert_eq!(m.evictions(), new_stores - m.len() as u64);
            if capacity.is_none() {
                prop_assert_eq!(m.evictions(), 0);
            }
        }
    }

    #[test]
    fn bounded_cache_evicts_past_capacity() {
        let m = memo(Some(4));
        for key in 0..12 {
            m.insert(key, key);
        }
        assert!(m.len() <= 4 && !m.is_empty(), "resident {}", m.len());
        // Per-shard FIFO: the aggregate eviction count is exactly the
        // overflow past the resident set.
        assert_eq!(m.evictions(), 12 - m.len() as u64);
        // One shard is a strict global FIFO: the oldest key leaves first.
        let single = memo(Some(1));
        single.insert(1, 10);
        single.insert(2, 20);
        assert_eq!((single.get(&1), single.get(&2)), (None, Some(20)));
    }

    #[test]
    fn zero_capacity_is_a_noop_cache() {
        let m = memo(Some(0));
        assert_eq!(m.insert(7, 1), 1);
        assert_eq!(m.get(&7), None);
        let made: Result<u32, ()> = m.get_or_try_insert_with(&7, || Ok(2));
        assert_eq!(made, Ok(2));
        // Every lookup misses; nothing is stored, nothing is evicted.
        assert_eq!((m.hits(), m.misses(), m.evictions()), (0, 2, 0));
        assert!(m.is_empty());
    }

    #[test]
    fn first_insert_wins_on_duplicate_keys() {
        let m = memo(Some(8));
        assert_eq!(m.insert(3, 1), 1);
        assert_eq!(m.insert(3, 2), 1, "the resident value comes back");
        let made: Result<u32, ()> = m.get_or_try_insert_with(&3, || Ok(9));
        assert_eq!(made, Ok(1));
        assert_eq!(m.len(), 1);
        // A failed computation stores nothing.
        assert_eq!(m.get_or_try_insert_with(&4, || Err("boom")), Err("boom"));
        assert_eq!(m.get(&4), None);
    }

    #[test]
    fn shared_across_threads() {
        let m = Arc::new(memo(None));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = Arc::clone(&m);
                scope.spawn(move || {
                    for key in 0..64u32 {
                        let v: Result<u32, ()> = m.get_or_try_insert_with(&key, || Ok(key * 2));
                        assert_eq!(v, Ok(key * 2));
                    }
                });
            }
        });
        assert_eq!(m.len(), 64);
        assert_eq!(m.hits() + m.misses(), 4 * 64);
        assert!(m.misses() >= 64, "every key missed at least once");
    }

    #[test]
    fn canonicalize_is_a_stable_sort() {
        let (sorted, perm) = canonicalize(&[64, 16, 64, 8]);
        assert_eq!(sorted, vec![8, 16, 64, 64]);
        // Stable: the two 64s keep their original relative order.
        assert_eq!(perm, vec![3, 1, 0, 2]);
    }

    #[test]
    fn hit_is_bitwise_identical_to_fresh_solve() {
        let c = cache();
        let profile = [256u32, 16, 64, 16];
        let fresh = c.solve(&profile).unwrap();
        assert_eq!(c.memo().misses(), 1);
        let hit = c.solve(&profile).unwrap();
        assert_eq!(c.memo().hits(), 1);
        assert_eq!(fresh.taus, hit.taus);
        assert_eq!(fresh.collision_probs, hit.collision_probs);
    }

    #[test]
    fn permutations_share_one_entry_and_remap_correctly() {
        let c = cache();
        let a = c.solve(&[16, 64, 256]).unwrap();
        let b = c.solve(&[256, 16, 64]).unwrap();
        assert_eq!((c.memo().hits(), c.memo().misses(), c.memo().len()), (1, 1, 1));
        // Player with window 16 gets the same τ in both orderings — and
        // bitwise so, because both paths remap the same canonical solve.
        assert_eq!(a.taus[0], b.taus[1]);
        assert_eq!(a.taus[1], b.taus[2]);
        assert_eq!(a.taus[2], b.taus[0]);
        assert_eq!(a.collision_probs[2], b.collision_probs[0]);
    }

    #[test]
    fn matches_direct_solver_bitwise() {
        // Sorted (fast path) and unsorted lookups, through a retaining
        // and through the no-op cache, all reproduce the public solver
        // exactly — it runs the same collapse internally.
        for c in [cache(), bounded(0)] {
            for profile in [vec![128u32, 8, 32], vec![8u32, 32, 128], vec![76u32; 5]] {
                let cached = c.solve(&profile).unwrap();
                let direct =
                    solve(&profile, &DcfParams::default(), SolveOptions::default()).unwrap();
                assert_eq!(cached, direct, "profile {profile:?}");
            }
        }
    }

    #[test]
    fn sorted_fast_path_hit_is_bitwise_identical() {
        // Micro-regression for the no-allocation sorted path: a sorted
        // lookup, a repeated sorted lookup (hit), and a permuted lookup of
        // the same multiset must all agree bitwise on each player's values.
        let c = cache();
        let counts = |c: &SolveCache| (c.memo().hits(), c.memo().misses());
        let sorted = [16u32, 16, 64, 256];
        let first = c.solve(&sorted).unwrap();
        assert_eq!(counts(&c), (0, 1));
        let hit = c.solve(&sorted).unwrap();
        assert_eq!(counts(&c), (1, 1));
        assert_eq!(first, hit);
        let permuted = c.solve(&[256u32, 16, 64, 16]).unwrap();
        assert_eq!(counts(&c), (2, 1));
        assert_eq!(permuted.taus[0], first.taus[3]);
        assert_eq!(permuted.taus[1], first.taus[0]);
        assert_eq!(permuted.taus[2], first.taus[2]);
        assert_eq!(permuted.taus[3], first.taus[1]);
        assert_eq!(c.memo().len(), 1);
    }

    #[test]
    fn class_profile_lookups_share_entries_with_node_lookups() {
        let c = cache();
        let profile = Classes::new(vec![16, 64], vec![2, 3]).unwrap();
        let class_solved = c.solve_class_profile(&profile).unwrap();
        assert_eq!(c.memo().misses(), 1);
        let node_solved = c.solve(&[16, 16, 64, 64, 64]).unwrap();
        assert_eq!(c.memo().hits(), 1);
        assert_eq!(class_solved.expand_sorted(&profile), node_solved);
    }

    #[test]
    fn propagates_solver_errors() {
        let c = cache();
        assert!(c.solve(&[]).is_err());
        assert!(c.solve(&[0, 4]).is_err());
        assert_eq!(c.memo().misses(), 0);
    }

    #[test]
    fn evicted_key_resolves_bitwise_identical() {
        // capacity 1 → a single one-entry shard → strict global FIFO.
        let c = bounded(1);
        let first = Classes::new(vec![16, 64], vec![2, 3]).unwrap();
        let second = Classes::new(vec![32, 128], vec![1, 4]).unwrap();
        let original = c.solve_class_profile(&first).unwrap();
        c.solve_class_profile(&second).unwrap(); // evicts `first`
        assert_eq!((c.memo().evictions(), c.memo().len()), (1, 1));
        let resolved = c.solve_class_profile(&first).unwrap();
        assert_eq!(c.memo().misses(), 3, "evicted key must re-solve, not hit");
        // The re-solve runs the same deterministic class solver, so the
        // replacement entry is bitwise-identical to the evicted one.
        assert_eq!(*original, *resolved);
    }
}
