//! Parallel, warm-chained fixed-point sweeps and the workspace threading
//! knob.
//!
//! # Threading knob
//!
//! Every parallel API in the workspace takes a `threads: usize` argument
//! where `0` means "auto": resolve from the `MACGAME_THREADS` environment
//! variable (then `RAYON_NUM_THREADS`, then the machine's available
//! parallelism). Passing `1` always forces the serial path.
//!
//! # Determinism
//!
//! [`solve_sweep`] splits the profile list into **fixed-size** chunks
//! ([`SWEEP_CHUNK`]) whose boundaries do not depend on the thread count.
//! Within a chunk, each solve is warm-started from the previous solution
//! (profiles adjacent in a sweep differ by one window, so the previous
//! root is an excellent seed); the first profile of each chunk starts
//! cold. Chunks are distributed over worker threads, and because warm
//! chains never cross a chunk boundary, the result vector is
//! bitwise-identical for every `threads` value.

use macgame_telemetry as telemetry;

use crate::cache::SolveCache;
use crate::error::DcfError;
use crate::fixedpoint::{solve_with_guess, Equilibrium, SolveOptions};
use crate::params::DcfParams;

/// Number of profiles per warm-chained chunk in [`solve_sweep`].
///
/// A constant (rather than `len / threads`) so chunk boundaries — and
/// therefore warm-start seeds and results — are independent of the
/// thread count.
pub const SWEEP_CHUNK: usize = 32;

/// Resolves the workspace threading knob: `0` = auto (environment, then
/// hardware), anything else is taken literally.
#[must_use]
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        rayon::current_num_threads()
    } else {
        threads
    }
}

/// Solves every profile in `profiles` with warm-chained, chunk-parallel
/// iteration. Results are bitwise-identical for every `threads` value
/// (including 1); see the module docs for why.
///
/// # Errors
///
/// Returns the first solver error in profile order.
pub fn solve_sweep(
    profiles: &[Vec<u32>],
    params: &DcfParams,
    options: SolveOptions,
    threads: usize,
) -> Result<Vec<Equilibrium>, DcfError> {
    let threads = resolve_threads(threads);
    telemetry::counter("dcf.sweep.profiles", profiles.len() as u64);
    let _span = telemetry::span("dcf.sweep.solve");
    let chunks: Vec<&[Vec<u32>]> = profiles.chunks(SWEEP_CHUNK).collect();
    telemetry::counter("dcf.sweep.chunks", chunks.len() as u64);
    let solved: Vec<Result<Vec<Equilibrium>, DcfError>> =
        rayon::map_in_order(chunks, threads, |chunk| {
            let mut out = Vec::with_capacity(chunk.len());
            let mut seed: Option<Vec<f64>> = None;
            for profile in chunk {
                // Warm-start only when the profile length matches the
                // previous solution (sweeps normally keep n fixed).
                let guess = seed.as_deref().filter(|s| s.len() == profile.len());
                let eq = solve_with_guess(profile, params, options, guess)?;
                seed = Some(eq.taus.clone());
                out.push(eq);
            }
            Ok(out)
        });
    let mut all = Vec::with_capacity(profiles.len());
    for chunk in solved {
        all.extend(chunk?);
    }
    Ok(all)
}

/// Like [`solve_sweep`], but consults `cache` before solving and stores
/// fresh solutions into it. Canonicalization makes permutations of
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
    let threads = resolve_threads(threads);
    telemetry::counter("dcf.sweep.profiles", profiles.len() as u64);
    let _span = telemetry::span("dcf.sweep.solve_cached");
    let chunks: Vec<&[Vec<u32>]> = profiles.chunks(SWEEP_CHUNK).collect();
    telemetry::counter("dcf.sweep.chunks", chunks.len() as u64);
    let solved: Vec<Result<Vec<Equilibrium>, DcfError>> =
        rayon::map_in_order(chunks, threads, |chunk| {
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

    #[test]
    fn sweep_matches_cold_solves() {
        let params = DcfParams::default();
        let options = SolveOptions::default();
        let profiles = deviation_profiles();
        let swept = solve_sweep(&profiles, &params, options, 1).unwrap();
        for (profile, eq) in profiles.iter().zip(&swept) {
            let cold = solve(profile, &params, options).unwrap();
            for i in 0..profile.len() {
                assert!(
                    (eq.taus[i] - cold.taus[i]).abs() < 10.0 * options.tolerance,
                    "profile {profile:?} node {i}"
                );
            }
        }
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let params = DcfParams::default();
        let options = SolveOptions::default();
        let profiles = deviation_profiles();
        let serial = solve_sweep(&profiles, &params, options, 1).unwrap();
        for threads in [2, 3, 7] {
            let parallel = solve_sweep(&profiles, &params, options, threads).unwrap();
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.taus, b.taus, "threads = {threads}");
                assert_eq!(a.collision_probs, b.collision_probs);
                assert_eq!(a.iterations, b.iterations);
            }
        }
    }

    #[test]
    fn warm_chaining_reduces_total_iterations() {
        let params = DcfParams::default();
        let options = SolveOptions::default();
        let profiles = deviation_profiles();
        let swept = solve_sweep(&profiles, &params, options, 1).unwrap();
        let warm_total: usize = swept.iter().map(|e| e.iterations).sum();
        let cold_total: usize = profiles
            .iter()
            .map(|p| solve(p, &params, options).unwrap().iterations)
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
            warm_total < profiles.len() * 10,
            "warm {warm_total}: accelerated chained sweep regressed"
        );
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
