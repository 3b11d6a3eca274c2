//! Stage evaluation: mapping a strategy profile `W^k` to realized stage
//! utilities and observations.
//!
//! Two evaluators are provided:
//!
//! * [`AnalyticalEvaluator`] — solves the heterogeneous fixed point of
//!   `macgame_dcf` and returns exact expected utilities with perfect
//!   observation (the regime of the paper's Sections IV–V);
//! * [`SimulatedEvaluator`] — plays the stage on the slot-level simulator
//!   and returns *measured* payoffs and *estimated* peer windows, i.e. the
//!   noisy regime the GTFT tolerance parameters exist for (Section VII).

use std::sync::Arc;

use macgame_dcf::cache::{canonicalize, Memo};
use macgame_dcf::fixedpoint::{solve_robust, SolveOptions};
use macgame_dcf::utility::all_utilities;
use macgame_faults::{ObservationChannel, ObservationFaults};
use macgame_sim::{estimate_windows_partial, Engine, SimConfig};

use crate::error::GameError;
use crate::game::GameConfig;

/// Outcome of evaluating one stage under a strategy profile.
#[derive(Debug, Clone, PartialEq)]
pub struct StageOutcome {
    /// Per-player stage utilities `U_i^s = u_i·T`.
    pub utilities: Vec<f64>,
    /// The window profile as observable by the players (exact or
    /// estimated, depending on the evaluator).
    pub observed_windows: Vec<u32>,
}

/// Evaluates a strategy profile for one stage of the repeated game.
///
/// Object-safe so drivers can hold `Box<dyn StageEvaluator>`.
pub trait StageEvaluator {
    /// Plays one stage under `windows` and reports utilities/observations.
    ///
    /// # Errors
    ///
    /// Implementations return [`GameError`] when the underlying model or
    /// simulator rejects the profile.
    fn evaluate(&mut self, windows: &[u32]) -> Result<StageOutcome, GameError>;
}

/// Exact expected utilities from the analytical fixed point, with perfect
/// observation of the played profile.
#[derive(Debug, Clone)]
pub struct AnalyticalEvaluator {
    game: GameConfig,
    options: SolveOptions,
}

impl AnalyticalEvaluator {
    /// Creates an evaluator for `game`.
    #[must_use]
    pub fn new(game: GameConfig) -> Self {
        AnalyticalEvaluator { game, options: SolveOptions::default() }
    }
}

impl StageEvaluator for AnalyticalEvaluator {
    fn evaluate(&mut self, windows: &[u32]) -> Result<StageOutcome, GameError> {
        // The robust ladder returns the plain solve bitwise-identically when
        // the accelerated pass converges; the fallback rungs only engage on
        // profiles the plain solver would have rejected outright.
        let robust = solve_robust(windows, self.game.params(), self.options)?;
        let eq = robust.equilibrium;
        let per_us =
            all_utilities(&eq.taus, &eq.collision_probs, self.game.params(), self.game.utility());
        let utilities = per_us.into_iter().map(|u| self.game.stage_utility(u)).collect();
        Ok(StageOutcome { utilities, observed_windows: windows.to_vec() })
    }
}

/// Measured utilities from a persistent slot-level simulation; peer windows
/// are estimated from overheard traffic (promiscuous-mode observation).
#[derive(Debug)]
pub struct SimulatedEvaluator {
    game: GameConfig,
    engine: Engine,
    /// Fall back to the true profile when estimation fails (too few
    /// observations in a stage).
    observe_exactly: bool,
}

impl SimulatedEvaluator {
    /// Creates a simulated evaluator for `game`, seeding the engine with
    /// `seed`. All players start on window `W_max` (maximally polite) until
    /// the first profile is applied.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::Sim`] if the simulator rejects the
    /// configuration.
    pub fn new(game: GameConfig, seed: u64) -> Result<Self, GameError> {
        let config = SimConfig::builder()
            .params(*game.params())
            .utility(*game.utility())
            .symmetric(game.player_count(), game.w_max())
            .seed(seed)
            .build()?;
        Ok(SimulatedEvaluator { game, engine: Engine::new(&config), observe_exactly: false })
    }

    /// Makes observation exact (players see the true profile) while
    /// utilities stay measured. Useful to isolate payoff noise from
    /// observation noise in experiments.
    #[must_use]
    pub fn with_exact_observation(mut self, exact: bool) -> Self {
        self.observe_exactly = exact;
        self
    }

    /// Access to the underlying engine (e.g. for clock inspection).
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl StageEvaluator for SimulatedEvaluator {
    fn evaluate(&mut self, windows: &[u32]) -> Result<StageOutcome, GameError> {
        self.engine.set_windows(windows)?;
        let report = self.engine.run_for(self.game.stage_duration());
        let utilities = (0..windows.len())
            .map(|i| {
                report.payoff_rate(i, self.game.utility()) * self.game.stage_duration().value()
            })
            .collect();
        let observed_windows = if self.observe_exactly {
            windows.to_vec()
        } else {
            match estimate_windows_partial(
                0,
                &report,
                self.game.params().max_backoff_stage(),
                self.game.w_max(),
            ) {
                Ok(estimates) => {
                    // Per-node degradation: a silent node this stage falls
                    // back to its true window, without poisoning the other
                    // nodes' estimates.
                    let mut observed: Vec<u32> = estimates
                        .iter()
                        .zip(windows)
                        .map(|(est, &true_w)| est.map_or(true_w, |e| e.window))
                        .collect();
                    // Each player knows its own window exactly; entry 0 was
                    // the observer's. For the shared-observation abstraction
                    // we overwrite nothing else.
                    observed[0] = windows[0];
                    observed
                }
                // Estimation itself rejected the report: fall back to the
                // true profile rather than fabricating estimates.
                Err(_) => windows.to_vec(),
            }
        };
        Ok(StageOutcome { utilities, observed_windows })
    }
}

/// Wraps any evaluator with a seeded [`ObservationChannel`]: utilities are
/// passed through untouched, but the observed windows the strategies react
/// to are perturbed by multiplicative/additive noise, stale reads and
/// dropped observations.
///
/// This is the fault-injection hook the robustness experiments use to map
/// which GTFT `(r₀, β)` parameterizations still converge to `W_c*` when the
/// promiscuous-mode estimates are unreliable. A no-op fault configuration
/// returns the inner outcome verbatim without drawing randomness, so a
/// zero-rate wrapper is bitwise identical to the bare evaluator.
#[derive(Debug, Clone)]
pub struct NoisyObservationEvaluator<E> {
    inner: E,
    channel: ObservationChannel,
    w_max: u32,
}

impl<E: StageEvaluator> NoisyObservationEvaluator<E> {
    /// Wraps `inner` for a game of `nodes` players whose observations are
    /// clamped into `[1, w_max]`.
    #[must_use]
    pub fn new(inner: E, faults: ObservationFaults, nodes: usize, w_max: u32) -> Self {
        NoisyObservationEvaluator { inner, channel: ObservationChannel::new(faults, nodes), w_max }
    }

    /// The wrapped fault configuration.
    #[must_use]
    pub fn faults(&self) -> &ObservationFaults {
        self.channel.faults()
    }
}

impl<E: StageEvaluator> StageEvaluator for NoisyObservationEvaluator<E> {
    fn evaluate(&mut self, windows: &[u32]) -> Result<StageOutcome, GameError> {
        let outcome = self.inner.evaluate(windows)?;
        let observed_windows = self
            .channel
            .observe(&outcome.observed_windows, self.w_max)
            .map_err(|e| GameError::InvalidConfig(e.to_string()))?;
        Ok(StageOutcome { utilities: outcome.utilities, observed_windows })
    }
}

/// Memoizing wrapper around any deterministic evaluator: repeated games,
/// tournaments and best-response dynamics revisit the same profiles
/// constantly, and the analytic outcome of a profile never changes.
///
/// The cache is an unbounded [`Memo`] counting on the
/// `core.evaluator.*` telemetry counters. It is **shared and
/// thread-safe**: cloning a `CachingEvaluator` yields a handle onto the
/// same store and counters, so parallel drivers can hand each worker its
/// own clone and every worker benefits from profiles the others already
/// evaluated.
///
/// Lookups are **permutation-canonicalizing**: the profile is sorted, the
/// inner evaluator runs on the sorted profile, and the outcome is remapped
/// through the inverse permutation. Both the hit and the miss path remap
/// the same stored canonical outcome, so a hit is bitwise-identical to a
/// fresh evaluation of the same profile. This requires the inner
/// evaluator to be *permutation-equivariant* (relabeling players relabels
/// the outcome the same way) — true of [`AnalyticalEvaluator`], whose
/// utilities depend only on each player's own window and the multiset of
/// others.
///
/// Do **not** wrap [`SimulatedEvaluator`]: its outcomes are noisy samples
/// and its engine state advances per call — caching would freeze one
/// sample forever.
#[derive(Debug)]
pub struct CachingEvaluator<E> {
    inner: E,
    cache: Arc<Memo<Vec<u32>, Arc<StageOutcome>>>,
}

impl<E: Clone> Clone for CachingEvaluator<E> {
    /// Clones the inner evaluator but **shares** the cache and counters.
    fn clone(&self) -> Self {
        CachingEvaluator { inner: self.inner.clone(), cache: Arc::clone(&self.cache) }
    }
}

impl<E: StageEvaluator> CachingEvaluator<E> {
    /// Wraps `inner` with an empty cache.
    #[must_use]
    pub fn new(inner: E) -> Self {
        let cache = Memo::new(
            None,
            "core.evaluator.hits",
            "core.evaluator.misses",
            "core.evaluator.evictions",
        );
        CachingEvaluator { inner, cache: Arc::new(cache) }
    }

    /// The shared store, for its counters and occupancy.
    #[must_use]
    pub fn memo(&self) -> &Memo<Vec<u32>, Arc<StageOutcome>> {
        &self.cache
    }

    /// Remaps an outcome of the canonical (sorted) profile back onto the
    /// original player order: output index `perm[k]` receives canonical
    /// index `k`.
    fn remap(canonical: &StageOutcome, perm: &[usize]) -> StageOutcome {
        let n = perm.len();
        let mut utilities = vec![0.0; n];
        let mut observed_windows = vec![0; n];
        for (k, &original) in perm.iter().enumerate() {
            utilities[original] = canonical.utilities[k];
            observed_windows[original] = canonical.observed_windows[k];
        }
        StageOutcome { utilities, observed_windows }
    }
}

impl<E: StageEvaluator> StageEvaluator for CachingEvaluator<E> {
    fn evaluate(&mut self, windows: &[u32]) -> Result<StageOutcome, GameError> {
        let (key, perm) = canonicalize(windows);
        let inner = &mut self.inner;
        let stored =
            self.cache.get_or_try_insert_with(&key, || inner.evaluate(&key).map(Arc::new))?;
        Ok(Self::remap(&stored, &perm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macgame_dcf::MicroSecs;

    fn game(n: usize) -> GameConfig {
        GameConfig::builder(n).build().unwrap()
    }

    #[test]
    fn analytical_matches_symmetric_model() {
        let g = game(5);
        let mut eval = AnalyticalEvaluator::new(g.clone());
        let out = eval.evaluate(&[76; 5]).unwrap();
        assert_eq!(out.observed_windows, vec![76; 5]);
        let expect = macgame_dcf::optimal::symmetric_utility(5, 76, g.params(), g.utility())
            .unwrap()
            * g.stage_duration().value();
        for u in &out.utilities {
            assert!((u - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn analytical_ranks_heterogeneous_profiles() {
        let mut eval = AnalyticalEvaluator::new(game(3));
        let out = eval.evaluate(&[16, 64, 256]).unwrap();
        assert!(out.utilities[0] > out.utilities[1]);
        assert!(out.utilities[1] > out.utilities[2]);
    }

    #[test]
    fn simulated_tracks_analytical_within_noise() {
        let g =
            GameConfig::builder(5).stage_duration(MicroSecs::from_seconds(30.0)).build().unwrap();
        let mut analytic = AnalyticalEvaluator::new(g.clone());
        let mut sim = SimulatedEvaluator::new(g, 7).unwrap();
        let windows = [76u32; 5];
        let a = analytic.evaluate(&windows).unwrap();
        let s = sim.evaluate(&windows).unwrap();
        for i in 0..5 {
            let rel = (a.utilities[i] - s.utilities[i]).abs() / a.utilities[i];
            assert!(
                rel < 0.15,
                "player {i}: analytic {} vs sim {}",
                a.utilities[i],
                s.utilities[i]
            );
        }
    }

    #[test]
    fn simulated_estimates_windows_roughly() {
        let g =
            GameConfig::builder(4).stage_duration(MicroSecs::from_seconds(50.0)).build().unwrap();
        let mut sim = SimulatedEvaluator::new(g, 3).unwrap();
        let windows = [32u32, 64, 32, 128];
        let out = sim.evaluate(&windows).unwrap();
        for (i, (&est, &truth)) in out.observed_windows.iter().zip(&windows).enumerate() {
            let rel = (f64::from(est) - f64::from(truth)).abs() / f64::from(truth);
            assert!(rel < 0.35, "node {i}: estimated {est} for true {truth}");
        }
    }

    #[test]
    fn exact_observation_mode() {
        let g = game(3);
        let mut sim = SimulatedEvaluator::new(g, 3).unwrap().with_exact_observation(true);
        let out = sim.evaluate(&[16, 64, 256]).unwrap();
        assert_eq!(out.observed_windows, vec![16, 64, 256]);
    }

    #[test]
    fn noop_noisy_wrapper_is_bitwise_identical() {
        let g = game(3);
        let mut bare = AnalyticalEvaluator::new(g.clone());
        let mut wrapped = NoisyObservationEvaluator::new(
            AnalyticalEvaluator::new(g.clone()),
            ObservationFaults::noop(),
            3,
            g.w_max(),
        );
        for profile in [[16u32, 64, 256], [76, 76, 76], [1, 32, 1024]] {
            let a = bare.evaluate(&profile).unwrap();
            let b = wrapped.evaluate(&profile).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn noisy_wrapper_perturbs_observations_but_not_utilities() {
        let g = game(3);
        let faults = ObservationFaults::noise(0.4, 11).unwrap();
        let mut bare = AnalyticalEvaluator::new(g.clone());
        let mut wrapped = NoisyObservationEvaluator::new(
            AnalyticalEvaluator::new(g.clone()),
            faults,
            3,
            g.w_max(),
        );
        let mut any_moved = false;
        for _ in 0..20 {
            let a = bare.evaluate(&[16, 64, 256]).unwrap();
            let b = wrapped.evaluate(&[16, 64, 256]).unwrap();
            assert_eq!(a.utilities, b.utilities);
            assert!(b.observed_windows.iter().all(|&w| (1..=g.w_max()).contains(&w)));
            any_moved |= b.observed_windows != a.observed_windows;
        }
        assert!(any_moved, "40% multiplicative noise never moved an estimate");
    }

    #[test]
    fn noisy_wrapper_is_seed_deterministic() {
        let g = game(4);
        let faults = ObservationFaults::new(0.2, 3.0, 0.1, 0.1, 99).unwrap();
        let mut a = NoisyObservationEvaluator::new(
            AnalyticalEvaluator::new(g.clone()),
            faults,
            4,
            g.w_max(),
        );
        let mut b = NoisyObservationEvaluator::new(
            AnalyticalEvaluator::new(g.clone()),
            faults,
            4,
            g.w_max(),
        );
        for _ in 0..15 {
            let oa = a.evaluate(&[32, 64, 128, 256]).unwrap();
            let ob = b.evaluate(&[32, 64, 128, 256]).unwrap();
            assert_eq!(oa, ob);
        }
    }

    #[test]
    fn caching_evaluator_serves_repeats_from_cache() {
        let g = game(3);
        let mut cached = CachingEvaluator::new(AnalyticalEvaluator::new(g.clone()));
        let a = cached.evaluate(&[76, 76, 76]).unwrap();
        let b = cached.evaluate(&[76, 76, 76]).unwrap();
        assert_eq!(a, b);
        assert_eq!(cached.memo().hits(), 1);
        assert_eq!(cached.memo().misses(), 1);
        let _ = cached.evaluate(&[10, 76, 76]).unwrap();
        assert_eq!(cached.memo().misses(), 2);
    }

    #[test]
    fn caching_evaluator_hit_is_bitwise_identical() {
        let g = game(4);
        let mut cached = CachingEvaluator::new(AnalyticalEvaluator::new(g));
        let profile = [256u32, 16, 64, 16];
        let fresh = cached.evaluate(&profile).unwrap();
        let hit = cached.evaluate(&profile).unwrap();
        assert_eq!(cached.memo().hits(), 1);
        assert_eq!(fresh.utilities, hit.utilities);
        assert_eq!(fresh.observed_windows, hit.observed_windows);
    }

    #[test]
    fn caching_evaluator_canonicalizes_permutations() {
        let g = game(3);
        let mut cached = CachingEvaluator::new(AnalyticalEvaluator::new(g.clone()));
        let a = cached.evaluate(&[16, 64, 256]).unwrap();
        let b = cached.evaluate(&[256, 16, 64]).unwrap();
        assert_eq!(cached.memo().misses(), 1);
        assert_eq!(cached.memo().hits(), 1);
        // The player on window 16 gets the same utility in both orderings,
        // bitwise, because both paths remap the same canonical outcome.
        assert_eq!(a.utilities[0], b.utilities[1]);
        assert_eq!(a.utilities[1], b.utilities[2]);
        assert_eq!(a.utilities[2], b.utilities[0]);
        assert_eq!(a.observed_windows, vec![16, 64, 256]);
        assert_eq!(b.observed_windows, vec![256, 16, 64]);
        // And the outcome matches an uncached evaluation in player order.
        let direct = AnalyticalEvaluator::new(g).evaluate(&[256, 16, 64]).unwrap();
        for i in 0..3 {
            assert!((b.utilities[i] - direct.utilities[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn caching_evaluator_clones_share_one_cache() {
        let g = game(3);
        let base = CachingEvaluator::new(AnalyticalEvaluator::new(g));
        let expect = base.clone().evaluate(&[16, 64, 256]).unwrap();
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let mut worker = base.clone();
                    scope.spawn(move || {
                        // Every worker hammers a permutation of one profile.
                        let p = match i % 3 {
                            0 => [16u32, 64, 256],
                            1 => [64, 256, 16],
                            _ => [256, 16, 64],
                        };
                        (i, worker.evaluate(&p).unwrap())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        for (i, out) in &results {
            // Player on window 16 sits at a different index per permutation
            // but always receives the identical canonical utility.
            let idx16 = match i % 3 {
                0 => 0,
                1 => 2,
                _ => 1,
            };
            assert_eq!(out.utilities[idx16], expect.utilities[0]);
        }
        assert_eq!(base.memo().hits() + base.memo().misses(), 9);
        // All three permutations share one canonical entry, so at most a
        // few racing first-misses ever ran the inner evaluator.
        assert!(base.memo().misses() <= 3, "misses {}", base.memo().misses());
    }

    #[test]
    fn caching_evaluator_drives_a_repeated_game() {
        use crate::repeated::RepeatedGame;
        use crate::strategy::{Strategy, Tft};
        let g = game(3);
        let players: Vec<Box<dyn Strategy>> =
            (0..3).map(|_| Box::new(Tft::new(60)) as Box<dyn Strategy>).collect();
        let evaluator = Box::new(CachingEvaluator::new(AnalyticalEvaluator::new(g.clone())));
        let mut rg = RepeatedGame::new(g, players, evaluator).unwrap();
        rg.play(6).unwrap();
        // Six stages, one distinct profile: the cache did its job.
        assert_eq!(rg.history().len(), 6);
    }
}
