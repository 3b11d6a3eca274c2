//! Adversarial round-robin tournaments under imperfect detection.
//!
//! [`crate::tournament::round_robin`] plays each ordered pair once on a
//! noiseless analytical evaluator. This arena stress-tests the
//! detection-gated strategies where they actually live: every match is
//! played through a seeded [`macgame_faults::ObservationChannel`], the
//! fault grid × repetition plan fans out thousands of matches over
//! `dcf::parallel::map`, and the averaged payoff matrix feeds replicator
//! dynamics plus an ESS-style stability check — answering the ROADMAP
//! question: which strategy mixes are stable when detection is
//! imperfect?

use macgame_dcf::parallel;
use macgame_faults::rng::derive_seed;
use macgame_telemetry as telemetry;
use serde::{Deserialize, Serialize};

use crate::detect::roc::FaultCell;
use crate::error::GameError;
use crate::evaluator::{AnalyticalEvaluator, NoisyObservationEvaluator};
use crate::game::GameConfig;
use crate::population::{replicator, PopulationState, ReplicatorTrace};
use crate::repeated::RepeatedGame;
use crate::strategy::Strategy;
use crate::tournament::{Entrant, TournamentResult};

/// Arena sweep configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArenaSettings {
    /// Stages per match.
    pub stages: usize,
    /// Repetitions per (pair, cell) with distinct derived seeds.
    pub repetitions: usize,
    /// Observation-fault cells every pair plays under.
    pub cells: Vec<FaultCell>,
    /// Base seed; per-match seeds are derived from it.
    pub base_seed: u64,
    /// Replicator generations for the equilibrium-mix summary.
    pub generations: usize,
    /// Worker threads (0 = honor `MACGAME_THREADS`). Never affects the
    /// result bytes.
    pub threads: usize,
}

/// Equilibrium-mix summary of the averaged payoff matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixSummary {
    /// Strategy names, indexing the vectors below.
    pub names: Vec<String>,
    /// Final replicator shares from a uniform start.
    pub final_shares: Vec<f64>,
    /// The most common strategy in the final mix.
    pub dominant: String,
    /// Strategies whose final share fell below the extinction cutoff.
    pub extinct: Vec<String>,
    /// `stable[i]`: no pure strategy scores better against `i` than `i`
    /// scores against itself (the finite-matrix ESS-style first
    /// condition, up to a 1e-9 tolerance).
    pub stable: Vec<bool>,
}

/// Everything the arena produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArenaReport {
    /// Payoff matrix averaged over the cell × repetition plan
    /// (`scores[i][j]` is row entrant `i`'s mean discounted payoff
    /// against `j`).
    pub tournament: TournamentResult,
    /// Total matches played.
    pub matches: usize,
    /// Replicator trace of the averaged matrix from a uniform start.
    pub trace: ReplicatorTrace,
    /// The headline stability summary.
    pub mix: MixSummary,
}

/// Runs the adversarial round robin: every ordered entrant pair plays
/// `repetitions` seeded matches under every fault cell, two players per
/// match on a noisy-observation analytical evaluator.
///
/// Scores land in the matrix in plan order, so the result is bitwise
/// identical for every thread count.
///
/// # Errors
///
/// Returns [`GameError::InvalidConfig`] for an empty field, an empty
/// fault grid, zero stages/repetitions, or a fault cell the faults
/// crate rejects; propagates engine failures.
pub fn adversarial_round_robin(
    entrants: &[Entrant],
    template: &GameConfig,
    settings: &ArenaSettings,
) -> Result<ArenaReport, GameError> {
    if entrants.is_empty() {
        return Err(GameError::InvalidConfig("need at least one entrant".into()));
    }
    if settings.cells.is_empty() {
        return Err(GameError::InvalidConfig("need at least one fault cell".into()));
    }
    if settings.stages == 0 || settings.repetitions == 0 {
        return Err(GameError::InvalidConfig("need at least one stage and one repetition".into()));
    }
    let game = GameConfig::builder(2)
        .params(*template.params())
        .utility(*template.utility())
        .stage_duration(template.stage_duration())
        .discount(template.discount())
        .w_max(template.w_max())
        .build()?;
    let k = entrants.len();
    // Match plan: (row, col, cell, repetition) in a fixed global order.
    let mut plan: Vec<(usize, usize, usize, usize)> = Vec::new();
    for i in 0..k {
        for j in 0..k {
            for c in 0..settings.cells.len() {
                for r in 0..settings.repetitions {
                    plan.push((i, j, c, r));
                }
            }
        }
    }
    let matches = plan.len();
    telemetry::counter("core.detect.arena_matches", matches as u64);
    let _span = telemetry::span("core.detect.arena");

    let per_pair = settings.cells.len() * settings.repetitions;
    let play =
        |&(index, (i, j, c, _r)): &(usize, (usize, usize, usize, usize))| -> Result<f64, GameError> {
            let seed = derive_seed(settings.base_seed, "detect-arena", index as u64);
            let cell = &settings.cells[c];
            let faults = macgame_faults::ObservationFaults::new(
                cell.multiplicative,
                cell.additive,
                cell.stale_prob,
                cell.drop_prob,
                seed,
            )
            .map_err(|e| GameError::InvalidConfig(format!("fault cell rejected: {e}")))?;
            let players: Vec<Box<dyn Strategy>> = vec![entrants[i].build(), entrants[j].build()];
            let evaluator = Box::new(NoisyObservationEvaluator::new(
                AnalyticalEvaluator::new(game.clone()),
                faults,
                2,
                game.w_max(),
            ));
            let mut rg = RepeatedGame::new(game.clone(), players, evaluator)?;
            rg.play(settings.stages)?;
            Ok(rg.discounted_payoffs()[0])
        };

    let plan: Vec<_> = plan.into_iter().enumerate().collect();
    let played = parallel::map(&plan, settings.threads, play);

    // Aggregate in plan order: mean over the per-pair cell × rep block.
    let mut scores = vec![vec![0.0f64; k]; k];
    for (index, outcome) in played.into_iter().enumerate() {
        let pair = index / per_pair;
        scores[pair / k][pair % k] += outcome? / per_pair as f64;
    }
    let tournament = TournamentResult {
        names: entrants.iter().map(|e| e.name().to_string()).collect(),
        scores,
        stages: settings.stages,
    };

    let trace = replicator(&tournament, &PopulationState::uniform(k), settings.generations)?;
    let final_state = trace.final_state().clone();
    let stable = (0..k)
        .map(|i| (0..k).all(|j| tournament.scores[j][i] <= tournament.scores[i][i] + 1e-9))
        .collect();
    let mix = MixSummary {
        names: tournament.names.clone(),
        final_shares: final_state.shares.clone(),
        dominant: tournament.names[final_state.dominant()].clone(),
        extinct: trace.extinct().iter().map(|s| (*s).to_string()).collect(),
        stable,
    };
    Ok(ArenaReport { tournament, matches, trace, mix })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::gated::{DetectorTft, Throttle};
    use crate::equilibrium::efficient_ne;
    use crate::strategy::Constant;

    fn field(w_star: u32) -> Vec<Entrant> {
        vec![
            Entrant::new("honest", move || Box::new(Constant::new(w_star))),
            Entrant::new("selfish", move || Box::new(Constant::new((w_star / 4).max(1)))),
            Entrant::new("detector-tft", move || {
                Box::new(DetectorTft::try_new(w_star, 3, 0.6, 4).expect("valid detector TFT"))
            }),
            Entrant::new("throttle", move || {
                Box::new(Throttle::try_new(w_star, 3, 0.6).expect("valid throttle"))
            }),
        ]
    }

    fn settings() -> ArenaSettings {
        ArenaSettings {
            stages: 12,
            repetitions: 2,
            cells: vec![
                FaultCell::ZERO,
                FaultCell { multiplicative: 0.2, additive: 1.0, stale_prob: 0.05, drop_prob: 0.05 },
            ],
            base_seed: 2024,
            generations: 100,
            threads: 1,
        }
    }

    #[test]
    fn arena_reports_the_full_matrix() {
        let template = GameConfig::builder(2).discount(0.995).build().unwrap();
        let w_star = efficient_ne(&template).unwrap().window;
        let report = adversarial_round_robin(&field(w_star), &template, &settings()).unwrap();
        assert_eq!(report.tournament.names.len(), 4);
        assert_eq!(report.matches, 4 * 4 * 2 * 2);
        assert_eq!(report.mix.final_shares.len(), 4);
        assert!((report.mix.final_shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for row in &report.tournament.scores {
            assert!(row.iter().all(|s| s.is_finite()));
        }
    }

    #[test]
    fn detector_tft_resists_the_cheater_better_than_honesty() {
        // The point of detection-gated punishment: against the selfish
        // entrant, the detector strategies must not do worse than the
        // never-punishing honest baseline (which the cheater freely
        // exploits) — and the cheater must extract less from them.
        let template = GameConfig::builder(2).discount(0.995).build().unwrap();
        let w_star = efficient_ne(&template).unwrap().window;
        let report = adversarial_round_robin(&field(w_star), &template, &settings()).unwrap();
        let idx = |name: &str| report.tournament.names.iter().position(|n| n == name).unwrap();
        let (selfish, detector) = (idx("selfish"), idx("detector-tft"));
        let vs_detector = report.tournament.scores[selfish][detector];
        let vs_honest = report.tournament.scores[selfish][idx("honest")];
        assert!(
            vs_detector < vs_honest,
            "cheater extracted more from the punisher ({vs_detector}) than \
             from the pushover ({vs_honest})"
        );
    }

    #[test]
    fn arena_is_thread_invariant() {
        let template = GameConfig::builder(2).discount(0.995).build().unwrap();
        let w_star = efficient_ne(&template).unwrap().window;
        let base = adversarial_round_robin(&field(w_star), &template, &settings()).unwrap();
        for threads in [2usize, 8] {
            let pinned = ArenaSettings { threads, ..settings() };
            let other = adversarial_round_robin(&field(w_star), &template, &pinned).unwrap();
            assert_eq!(other, base, "arena drift at {threads} threads");
        }
    }

    #[test]
    fn arena_validation() {
        let template = GameConfig::builder(2).build().unwrap();
        assert!(adversarial_round_robin(&[], &template, &settings()).is_err());
        let mut s = settings();
        s.cells.clear();
        assert!(adversarial_round_robin(&field(64), &template, &s).is_err());
        let mut s = settings();
        s.repetitions = 0;
        assert!(adversarial_round_robin(&field(64), &template, &s).is_err());
    }
}
