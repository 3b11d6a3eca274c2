//! One- and two-class solves keep their per-class values on the stack
//! (`[f64; 1]`, `[f64; 2]`), larger profiles in `Vec`s, and both run one
//! sweep body. So for every profile the stack solve must give the heap
//! solve's bits (`reference::solve_classes_on_heap`,
//! `reference::solve_edca_on_heap`): τ, p, the sweep count, the error and
//! its residual, and every counter and histogram it records.

use std::sync::{Arc, Mutex};

use macgame_dcf::edca::{solve_edca, EdcaEquilibrium, EdcaTuple};
use macgame_dcf::fixedpoint::{solve_classes_with_guess, SolveOptions};
use macgame_dcf::markov::MAX_CW;
use macgame_dcf::reference::{solve_classes_on_heap, solve_edca_on_heap};
use macgame_dcf::{AccessMode, ClassEquilibrium, Classes, DcfError, DcfParams};
use macgame_telemetry::{self as telemetry, CollectingRecorder, HistogramSnapshot};
use proptest::prelude::*;

/// The telemetry recorder is process-global, so the recording solves in
/// this binary must not overlap.
static RECORDER: Mutex<()> = Mutex::new(());

/// What a solve records, apart from wall-clock span timings.
type Recorded = (Vec<(String, u64)>, Vec<(String, HistogramSnapshot)>);

/// Runs `work` under a fresh recorder; returns its result and what it
/// recorded.
fn recorded<R>(work: impl FnOnce() -> R) -> (R, Recorded) {
    let _exclusive = RECORDER.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let recorder = Arc::new(CollectingRecorder::new());
    telemetry::set_recorder(recorder.clone());
    let out = work();
    telemetry::clear_recorder();
    let snapshot = recorder.snapshot();
    (out, (snapshot.counters.into_iter().collect(), snapshot.histograms.into_iter().collect()))
}

/// A solve's output as bits: the per-class vectors and the sweep count,
/// or the error (its `Debug` form spells every float exactly).
type Bits = Result<(Vec<Vec<u64>>, u64), String>;

fn error_bits(err: &DcfError) -> String {
    format!("{err:?}")
}

fn floats(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn class_bits(solved: &Result<ClassEquilibrium, DcfError>) -> Bits {
    match solved {
        Ok(eq) => Ok((vec![floats(&eq.taus), floats(&eq.collision_probs)], eq.iterations as u64)),
        Err(err) => Err(error_bits(err)),
    }
}

fn edca_bits(solved: &Result<EdcaEquilibrium, DcfError>) -> Bits {
    match solved {
        Ok(eq) => Ok((
            vec![
                floats(&eq.taus),
                floats(&eq.thinned_taus),
                floats(&eq.collision_probs),
                floats(&[eq.idle_root]),
            ],
            eq.iterations as u64,
        )),
        Err(err) => Err(error_bits(err)),
    }
}

fn params(mode: AccessMode) -> DcfParams {
    DcfParams::builder().access_mode(mode).build().unwrap()
}

/// Solves `profile` on the stack and on the heap; both must agree bit for
/// bit and record the same telemetry. Returns the stack solve.
fn same_class_solve(
    profile: &Classes<u32>,
    params: &DcfParams,
    options: SolveOptions,
    guess: Option<&[f64]>,
) -> Result<ClassEquilibrium, DcfError> {
    let (stack, stack_recorded) =
        recorded(|| solve_classes_with_guess(profile, params, options, guess));
    let (heap, heap_recorded) = recorded(|| solve_classes_on_heap(profile, params, options, guess));
    let context = format!("{profile:?} {options:?} guess {guess:?}");
    assert_eq!(class_bits(&stack), class_bits(&heap), "{context}");
    assert_eq!(stack_recorded, heap_recorded, "{context}");
    assert!(stack_recorded.0.iter().any(|(name, _)| name == "dcf.solver.solves"), "{context}");
    stack
}

fn same_edca_solve(profile: &Classes<EdcaTuple>, params: &DcfParams, options: SolveOptions) {
    let (stack, stack_recorded) = recorded(|| solve_edca(profile, params, options));
    let (heap, heap_recorded) = recorded(|| solve_edca_on_heap(profile, params, options));
    let context = format!("{profile:?} {options:?}");
    assert_eq!(edca_bits(&stack), edca_bits(&heap), "{context}");
    assert_eq!(stack_recorded, heap_recorded, "{context}");
    assert!(stack_recorded.0.iter().any(|(name, _)| name == "dcf.edca.solves"), "{context}");
}

/// Default options, the plain damped iteration, and two budgets too small
/// to converge (which must fail with the same residual).
fn option_set() -> [SolveOptions; 4] {
    let default = SolveOptions::default();
    [
        default,
        SolveOptions { accelerate: false, ..default },
        SolveOptions { max_iterations: 1, ..default },
        SolveOptions { max_iterations: 3, accelerate: false, ..default },
    ]
}

const WINDOWS: [u32; 7] = [1, 2, 16, 33, 1024, 4096, MAX_CW];
const NODES: [usize; 5] = [2, 3, 10, 1_000, 1_000_000];

/// Every one- and two-class profile of the grid: `n` nodes on one window,
/// or split `1 | n−1`, `n−1 | 1` and `⌊n/2⌋ | ⌈n/2⌉` over two.
fn grid_profiles() -> Vec<Classes<u32>> {
    let mut profiles = Vec::new();
    for n in NODES {
        for (i, &low) in WINDOWS.iter().enumerate() {
            profiles.push(Classes::new(vec![low], vec![n]).unwrap());
            for &high in &WINDOWS[i + 1..] {
                let mut splits = vec![(1, n - 1), (n - 1, 1), (n / 2, n - n / 2)];
                splits.dedup();
                for (a, b) in splits {
                    profiles.push(Classes::new(vec![low, high], vec![a, b]).unwrap());
                }
            }
        }
    }
    profiles
}

#[test]
fn class_solves_on_the_stack_are_the_heap_solves_bit_for_bit() {
    for mode in [AccessMode::Basic, AccessMode::RtsCts] {
        let params = params(mode);
        for profile in grid_profiles() {
            let k = profile.num_classes();
            let cold = same_class_solve(&profile, &params, SolveOptions::default(), None).unwrap();
            let near: Vec<f64> = cold.taus.iter().map(|t| t * (1.0 + 1e-3)).collect();
            let outside: Vec<f64> = [-0.5, 2.0][..k].to_vec();
            let mid: Vec<f64> = [0.3, 0.05][..k].to_vec();
            let guesses = [None, Some(&cold.taus[..]), Some(&near[..]), Some(&outside), Some(&mid)];
            for options in option_set() {
                for guess in guesses {
                    let _ = same_class_solve(&profile, &params, options, guess);
                }
            }
        }
    }
}

#[test]
fn starved_solves_fail_alike() {
    // A budget too small to converge must give the same typed error and
    // residual on either storage, warm or cold.
    let params = DcfParams::default();
    for (profile, guess) in [
        (Classes::new(vec![16, 1024], vec![1, 9]).unwrap(), None),
        (Classes::new(vec![16, 1024], vec![1, 9]).unwrap(), Some(vec![0.9, -3.0])),
        (Classes::new(vec![2], vec![1_000_000]).unwrap(), Some(vec![0.5])),
    ] {
        for max_iterations in [0, 1, 2, 5] {
            let options = SolveOptions { max_iterations, ..SolveOptions::default() };
            let solved = same_class_solve(&profile, &params, options, guess.as_deref());
            assert!(
                matches!(solved, Err(DcfError::SolveDidNotConverge { .. })),
                "{profile:?} at {max_iterations} sweeps: {solved:?}"
            );
        }
    }
}

/// EDCA tuples across the knobs: legacy (degenerate) ones, and ones that
/// differ in the backoff cap, AIFS and TXOP.
fn edca_tuples(params: &DcfParams) -> Vec<EdcaTuple> {
    let m = params.max_backoff_stage();
    vec![
        EdcaTuple::new(1, m, 0, 1).unwrap(),
        EdcaTuple::new(16, m, 0, 1).unwrap(),
        EdcaTuple::new(32, 3, 2, 1).unwrap(),
        EdcaTuple::new(1024, m, 7, 3).unwrap(),
        EdcaTuple::new(16, 0, 0, 4).unwrap(),
        EdcaTuple::new(MAX_CW, 16, 64, 64).unwrap(),
    ]
}

#[test]
fn edca_solves_on_the_stack_are_the_heap_solves_bit_for_bit() {
    for mode in [AccessMode::Basic, AccessMode::RtsCts] {
        let params = params(mode);
        let tuples = edca_tuples(&params);
        for n in [2usize, 10, 1_000_000] {
            let mut profiles = Vec::new();
            for (i, &a) in tuples.iter().enumerate() {
                profiles.push(Classes::new(vec![a], vec![n]).unwrap());
                for &b in &tuples[i + 1..] {
                    for (x, y) in [(1, n - 1), (n - 1, 1)] {
                        profiles.push(Classes::new(vec![a, b], vec![x, y]).unwrap());
                    }
                }
            }
            for profile in &profiles {
                for options in option_set() {
                    same_edca_solve(profile, &params, options);
                }
            }
        }
    }
}

/// A window, mostly small, sometimes up to `MAX_CW`.
fn window() -> impl Strategy<Value = u32> {
    prop_oneof![1u32..=64, 1u32..=64, 1u32..=4096, 1u32..=MAX_CW]
}

/// A class multiplicity, mostly small, sometimes a large population.
fn count() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..=16, 1usize..=16, 1usize..=1_000_000]
}

/// Acceleration on or off, and mostly the default budget, sometimes one
/// too small to converge.
fn options() -> impl Strategy<Value = SolveOptions> {
    (0u8..2, prop_oneof![Just(20_000usize), Just(20_000usize), 0usize..6]).prop_map(
        |(accelerate, max_iterations)| SolveOptions {
            accelerate: accelerate == 1,
            max_iterations,
            ..SolveOptions::default()
        },
    )
}

/// No guess, or one per class (entries outside `[0, 1]` included).
fn guess() -> impl Strategy<Value = Option<Vec<f64>>> {
    prop_oneof![Just(None), prop::collection::vec(-1.0f64..2.0, 2).prop_map(Some)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_class_solves_agree(
        classes in prop::collection::vec((window(), count()), 1..=2),
        guess in guess(),
        options in options(),
        rts in 0u8..2,
    ) {
        let (windows, counts): (Vec<u32>, Vec<usize>) = classes.into_iter().unzip();
        let profile = Classes::new(windows, counts).unwrap();
        let guess = guess.map(|g| g[..profile.num_classes()].to_vec());
        let mode = if rts == 1 { AccessMode::RtsCts } else { AccessMode::Basic };
        let _ = same_class_solve(&profile, &params(mode), options, guess.as_deref());
    }

    #[test]
    fn random_edca_solves_agree(
        classes in prop::collection::vec(
            ((window(), 0u32..=16, 0u32..=64, 1u32..=64), count()),
            1..=2,
        ),
        options in options(),
    ) {
        let (tuples, counts): (Vec<EdcaTuple>, Vec<usize>) = classes
            .into_iter()
            .map(|((w, m, aifs, txop), c)| (EdcaTuple::new(w, m, aifs, txop).unwrap(), c))
            .unzip();
        let profile = Classes::new(tuples, counts).unwrap();
        same_edca_solve(&profile, &DcfParams::default(), options);
    }
}
