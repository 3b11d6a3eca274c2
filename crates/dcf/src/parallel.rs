//! The workspace's one executor, its threading knob, and the
//! warm-chained fixed-point sweeps built on it.
//!
//! # Threading knob
//!
//! Every parallel API in the workspace takes a `threads: usize` argument
//! where `0` means "auto": resolve from the `MACGAME_THREADS` environment
//! variable, then the machine's available parallelism
//! ([`resolve_threads`]). Passing `1` always forces the serial path.
//!
//! # Executor
//!
//! [`map`] is a per-item map; [`map_chunks`] maps fixed-size chunks and
//! exists for warm chains only. Both split their input into at most
//! `threads` contiguous blocks, map each block on a scoped worker and
//! concatenate the blocks in input order, so for a function of its
//! argument alone the output equals the serial map for every thread
//! count. Its `thread::scope` is the one spawn an artifact may reach.
//!
//! # Determinism
//!
//! [`one_deviator_sweep`] splits its deviator windows into **fixed-size**
//! chunks ([`SWEEP_CHUNK`]) whose boundaries do not depend on the thread
//! count. Within a chunk, each solve is warm-started from the previous
//! solution (profiles adjacent in a sweep differ by one window, so the
//! previous root is an excellent seed); the first profile of each chunk
//! starts cold. Chunks are distributed over worker threads, and because
//! warm chains never cross a chunk boundary, the result vector is
//! bitwise-identical for every `threads` value.

use macgame_telemetry as telemetry;

use crate::cache::SolveCache;
use crate::classes::OneDeviatorEquilibrium;
use crate::error::DcfError;
use crate::fixedpoint::{solve_one_deviator, Equilibrium, SolveOptions};
use crate::params::DcfParams;

/// Number of profiles per warm-chained chunk in [`one_deviator_sweep`].
///
/// A constant (rather than `len / threads`) so chunk boundaries — and
/// therefore warm-start seeds and results — are independent of the
/// thread count.
pub const SWEEP_CHUNK: usize = 32;

/// Resolves the workspace threading knob: `0` = auto (`MACGAME_THREADS`
/// if it parses to at least 1, else the available parallelism), anything
/// else is taken literally.
#[must_use]
pub fn resolve_threads(threads: usize) -> usize {
    if threads != 0 {
        return threads;
    }
    std::env::var("MACGAME_THREADS")
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Maps `f` over `items` on up to `threads` scoped workers (`0` = auto)
/// and returns the results in input order: the serial
/// `items.iter().map(f)` for every thread count.
pub fn map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = resolve_threads(threads).min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let workers: Vec<_> = items
            .chunks(items.len().div_ceil(threads))
            .map(|block| scope.spawn(move || block.iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for worker in workers {
            // A worker's panic is re-raised on the caller with its payload.
            out.extend(worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        out
    })
}

/// Maps `f` over the `chunk`-item slices of `items` (the last may be
/// shorter) on up to `threads` workers: the serial
/// `items.chunks(chunk).map(f)` for every thread count. Chunk boundaries
/// depend on `chunk` alone, so a warm chain that `f` runs inside one
/// chunk starts from the same seed whatever `threads` is; use [`map`]
/// for anything else.
///
/// # Panics
///
/// Panics if `chunk` is 0.
pub fn map_chunks<T, R, F>(items: &[T], chunk: usize, threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    let chunks: Vec<&[T]> = items.chunks(chunk).collect();
    map(&chunks, threads, |chunk| f(chunk))
}

/// Solves the one-deviator profile `[w_s ×1, w ×(n−1)]` of every `w_s` in
/// `deviators` at class level, warm-chained within fixed chunks spread
/// over `threads` workers. Entry `i` solves `deviators[i]`'s profile (the
/// one class `[w ×n]` where `deviators[i] == w`).
///
/// Each solve is a [`solve_one_deviator`] seeded from the previous entry,
/// so every entry is bitwise the solution a chain of
/// [`crate::fixedpoint::solve_with_guess`] calls over the `n`-entry window
/// vectors would compute, without building them or any per-solve buffer.
/// Results are bitwise-identical for every `threads` value (including 1);
/// see the module docs for why.
///
/// # Errors
///
/// Returns [`DcfError::InvalidParameter`] for a non-empty sweep with
/// `n < 2`, or a deviator window of 0 or above `w`; otherwise the first
/// solver error in deviator order.
pub fn one_deviator_sweep(
    n: usize,
    w: u32,
    deviators: &[u32],
    params: &DcfParams,
    options: SolveOptions,
    threads: usize,
) -> Result<Vec<OneDeviatorEquilibrium>, DcfError> {
    telemetry::counter("dcf.sweep.profiles", deviators.len() as u64);
    let _span = telemetry::span("dcf.sweep.solve");
    telemetry::counter("dcf.sweep.chunks", deviators.len().div_ceil(SWEEP_CHUNK) as u64);
    if !deviators.is_empty() && n < 2 {
        return Err(DcfError::invalid("n", "a deviator needs at least one other node"));
    }
    let solved: Vec<Result<Vec<OneDeviatorEquilibrium>, DcfError>> =
        map_chunks(deviators, SWEEP_CHUNK, threads, |chunk| {
            let mut out: Vec<OneDeviatorEquilibrium> = Vec::with_capacity(chunk.len());
            for &w_s in chunk {
                if w_s > w {
                    return Err(DcfError::invalid(
                        "deviators",
                        "must not exceed the common window",
                    ));
                }
                out.push(solve_one_deviator(n, w, w_s, params, options, out.last())?);
            }
            Ok(out)
        });
    let mut all = Vec::with_capacity(deviators.len());
    for chunk in solved {
        all.extend(chunk?);
    }
    Ok(all)
}

/// Solves every profile in `profiles` through `cache`, in fixed
/// [`SWEEP_CHUNK`] chunks over `threads` workers: each solve consults
/// `cache` first and stores a fresh solution into it. Canonicalization makes permutations of
/// previously-seen profiles hits, and a hit is bitwise-identical to the
/// fresh solve, so results still do not depend on the thread count — only
/// on which profiles the cache has already seen (a cold cache reproduces
/// [`SolveCache::solve`] output exactly, which itself matches cold
/// [`crate::fixedpoint::solve`] for canonical profiles).
///
/// # Errors
///
/// Returns the first solver error in profile order.
pub fn solve_sweep_cached(
    profiles: &[Vec<u32>],
    cache: &SolveCache,
    threads: usize,
) -> Result<Vec<Equilibrium>, DcfError> {
    telemetry::counter("dcf.sweep.profiles", profiles.len() as u64);
    let _span = telemetry::span("dcf.sweep.solve_cached");
    telemetry::counter("dcf.sweep.chunks", profiles.len().div_ceil(SWEEP_CHUNK) as u64);
    let solved: Vec<Result<Vec<Equilibrium>, DcfError>> =
        map_chunks(profiles, SWEEP_CHUNK, threads, |chunk| {
            chunk.iter().map(|profile| cache.solve(profile)).collect()
        });
    let mut all = Vec::with_capacity(profiles.len());
    for chunk in solved {
        all.extend(chunk?);
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixedpoint::solve;
    use proptest::prelude::*;

    /// An order-sensitive fold: any reordering or regrouping of the
    /// items it sees changes its value.
    fn fold(indices: &[usize]) -> u64 {
        indices.iter().fold(17u64, |acc, &i| acc.wrapping_mul(31).wrapping_add(i as u64 + 1))
    }

    proptest! {
        #[test]
        fn executor_matches_the_serial_map_for_every_thread_count(
            threads in 1usize..9,
            len in 0usize..201,
            chunk in 1usize..41,
        ) {
            // Each case also runs a length below the thread count.
            for len in [len, len % threads] {
                let items: Vec<usize> = (0..len).collect();
                let per_item = |&i: &usize| (i, fold(&items[..=i]));
                let serial: Vec<_> = items.iter().map(per_item).collect();
                prop_assert_eq!(map(&items, threads, per_item), serial);
                let per_chunk = |c: &[usize]| (c.to_vec(), fold(c));
                let serial: Vec<_> = items.chunks(chunk).map(per_chunk).collect();
                prop_assert_eq!(map_chunks(&items, chunk, threads, per_chunk), serial);
            }
        }
    }

    fn deviation_profiles() -> Vec<Vec<u32>> {
        // One deviator sweeping its window under an otherwise-fixed
        // profile: the shape deviation analyses hammer.
        (1u32..=100)
            .map(|w| {
                let mut p = vec![76u32; 6];
                p[0] = w;
                p
            })
            .collect()
    }

    /// The node-level chain the class chain replaced: each `n`-entry
    /// one-deviator profile solved by `solve_with_guess`, seeded with the
    /// previous solution within fixed `SWEEP_CHUNK` chunks.
    fn node_level_chain(
        n: usize,
        w: u32,
        deviators: &[u32],
        params: &DcfParams,
    ) -> Vec<Equilibrium> {
        let mut out = Vec::new();
        for chunk in deviators.chunks(SWEEP_CHUNK) {
            let mut seed: Option<Vec<f64>> = None;
            for &w_s in chunk {
                let mut profile = vec![w; n];
                profile[0] = w_s;
                let eq = crate::fixedpoint::solve_with_guess(
                    &profile,
                    params,
                    SolveOptions::default(),
                    seed.as_deref(),
                )
                .unwrap();
                seed = Some(eq.taus.clone());
                out.push(eq);
            }
        }
        out
    }

    #[test]
    fn sweep_is_bitwise_the_node_level_chain() {
        for mode in [crate::AccessMode::Basic, crate::AccessMode::RtsCts] {
            let params = DcfParams::builder().access_mode(mode).build().unwrap();
            for (n, w) in [(2usize, 1u32), (2, 40), (6, 76), (37, 100), (1_000, 70)] {
                // Up to and including the homogeneous end, across chunks.
                let deviators: Vec<u32> = (1..=w).collect();
                let chain =
                    one_deviator_sweep(n, w, &deviators, &params, SolveOptions::default(), 1)
                        .unwrap();
                let nodes = node_level_chain(n, w, &deviators, &params);
                for ((&w_s, class), node) in deviators.iter().zip(&chain).zip(&nodes) {
                    for (node_i, (tau, p)) in [(0, class.deviator), (n - 1, class.crowd)] {
                        assert_eq!(
                            node.taus[node_i].to_bits(),
                            tau.to_bits(),
                            "{mode:?} n = {n}, w = {w}, w_s = {w_s}"
                        );
                        assert_eq!(node.collision_probs[node_i].to_bits(), p.to_bits());
                    }
                    assert_eq!(node.iterations, class.iterations);
                }
            }
        }
    }

    #[test]
    fn sweep_matches_cold_solves() {
        let params = DcfParams::default();
        let options = SolveOptions::default();
        let deviators: Vec<u32> = (1..=76).collect();
        let swept = one_deviator_sweep(6, 76, &deviators, &params, options, 1).unwrap();
        for (&w_s, eq) in deviators.iter().zip(&swept) {
            let mut profile = vec![76u32; 6];
            profile[0] = w_s;
            let cold = solve(&profile, &params, options).unwrap();
            assert!((eq.deviator.0 - cold.taus[0]).abs() < 10.0 * options.tolerance, "w_s {w_s}");
            assert!((eq.crowd.0 - cold.taus[5]).abs() < 10.0 * options.tolerance);
        }
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let params = DcfParams::default();
        let options = SolveOptions::default();
        let deviators: Vec<u32> = (1..=100).map(|w_s: u32| w_s.min(76)).collect();
        let serial = one_deviator_sweep(6, 76, &deviators, &params, options, 1).unwrap();
        for threads in [2, 3, 7] {
            let parallel =
                one_deviator_sweep(6, 76, &deviators, &params, options, threads).unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn warm_chaining_reduces_total_iterations() {
        let params = DcfParams::default();
        let options = SolveOptions::default();
        // One deviator below a crowd on 100, up to the homogeneous end.
        let deviators: Vec<u32> = (1..=100).collect();
        let swept = one_deviator_sweep(6, 100, &deviators, &params, options, 1).unwrap();
        let warm_total: usize = swept.iter().map(|e| e.iterations).sum();
        let cold_total: usize = deviators
            .iter()
            .map(|&w_s| {
                let mut profile = vec![100u32; 6];
                profile[0] = w_s;
                solve(&profile, &params, options).unwrap().iterations
            })
            .sum();
        // The accelerated solver converges superlinearly once near the
        // root, so a neighbor seed buys a consistent but modest margin
        // (the order-of-magnitude wins are exact seeds and cache hits —
        // see `warm_start_from_exact_solution_verifies_in_one_sweep` and
        // the cache tests). Still, chaining must never cost sweeps, and on
        // this canonical deviation sweep it strictly saves them.
        assert!(
            warm_total < cold_total,
            "warm {warm_total} vs cold {cold_total}: chaining should save sweeps"
        );
        // Guard the solver's overall cost: the pre-acceleration iteration
        // needed ~10 sweeps per profile on this sweep (~1000+ total); keep
        // the whole chained sweep well under that.
        assert!(
            warm_total < deviators.len() * 10,
            "warm {warm_total}: accelerated chained sweep regressed"
        );
    }

    #[test]
    fn sweep_rejects_malformed_profiles() {
        let params = DcfParams::default();
        let options = SolveOptions::default();
        let sweep = |n: usize, w: u32, deviators: &[u32]| {
            one_deviator_sweep(n, w, deviators, &params, options, 1)
        };
        assert_eq!(sweep(1, 8, &[]), Ok(Vec::new()), "an empty sweep solves nothing");
        assert!(sweep(1, 8, &[4]).is_err(), "no crowd");
        assert!(sweep(0, 8, &[4]).is_err(), "no nodes");
        assert!(sweep(5, 8, &[9]).is_err(), "deviator above the crowd");
        assert!(sweep(5, 8, &[0]).is_err(), "zero window");
    }

    #[test]
    fn cached_sweep_is_thread_count_invariant_and_hits() {
        let params = DcfParams::default();
        let options = SolveOptions::default();
        // Duplicated + permuted profiles: the cache should collapse them.
        let mut profiles = deviation_profiles();
        let mut permuted: Vec<Vec<u32>> = profiles
            .iter()
            .map(|p| {
                let mut q = p.clone();
                q.reverse();
                q
            })
            .collect();
        profiles.append(&mut permuted);

        let serial_cache = SolveCache::new(params, options);
        let serial = solve_sweep_cached(&profiles, &serial_cache, 1).unwrap();
        assert!(serial_cache.memo().hits() >= profiles.len() as u64 / 2);

        for threads in [2, 5] {
            let cache = SolveCache::new(params, options);
            let parallel = solve_sweep_cached(&profiles, &cache, threads).unwrap();
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.taus, b.taus, "threads = {threads}");
            }
        }
    }

    #[test]
    fn resolve_threads_passthrough() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }
}
