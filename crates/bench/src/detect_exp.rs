//! The detection-plane experiment behind `repro -- detect`: ROC sweeps
//! of the sequential detectors under observation-fault grids, and the
//! adversarial tournament of detection-gated strategies, condensed into
//! `artifacts/DETECT.json`.
//!
//! Everything in the payload is a pure function of the settings: ROC
//! trials and arena matches are self-contained units of work with
//! per-index derived seeds, fanned out with `dcf::parallel::map` and
//! aggregated in plan order —
//! `artifacts/DETECT.json` is byte-identical at every `MACGAME_THREADS`
//! setting, and CI compares the bytes at 1 and 2 workers.

use macgame_core::detect::{
    adversarial_round_robin, cusum_roc, windowed_roc, ArenaReport, ArenaSettings, CusumRocSettings,
    DetectorTft, FaultCell, RocCurve, Throttle, WindowedRocSettings,
};
use macgame_core::equilibrium::efficient_ne;
use macgame_core::strategy::{BestResponse, Constant};
use macgame_core::tournament::Entrant;
use macgame_core::GameConfig;
use serde::{Deserialize, Serialize};

use crate::BenchError;

/// Workload knobs for the detection experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectSettings {
    /// Population observed by the detectors in the ROC sweeps.
    pub n: usize,
    /// Observed stages per ROC trial.
    pub stages: usize,
    /// Windowed-detector memory (observations averaged per node).
    pub memory: usize,
    /// Channel slots per observed stage.
    pub slots_per_stage: u64,
    /// Window-ratio thresholds for the windowed sweep, each in `(0, 1]`.
    pub thresholds: Vec<f64>,
    /// Score thresholds for the CUSUM sweep, each > 0.
    pub cusum_thresholds: Vec<f64>,
    /// CUSUM slack per observed stage.
    pub cusum_allowance: f64,
    /// Honest + selfish trials per ROC cell.
    pub replications: usize,
    /// Stages per arena match.
    pub arena_stages: usize,
    /// Arena repetitions per (pair, cell).
    pub arena_repetitions: usize,
    /// Replicator generations for the equilibrium-mix summary.
    pub generations: usize,
    /// Base RNG seed.
    pub base_seed: u64,
    /// Worker threads (`0` = the `MACGAME_THREADS` default). Never
    /// affects payload bytes.
    pub threads: usize,
}

impl DetectSettings {
    /// Fast CI workload.
    #[must_use]
    pub fn quick() -> Self {
        DetectSettings {
            n: 5,
            stages: 24,
            memory: 4,
            slots_per_stage: 2_000,
            thresholds: vec![0.2, 0.4, 0.6, 0.8, 0.95],
            cusum_thresholds: vec![0.002, 0.005, 0.015, 0.04, 0.12],
            cusum_allowance: 0.003,
            replications: 8,
            arena_stages: 16,
            arena_repetitions: 4,
            generations: 200,
            base_seed: 2007,
            threads: 0,
        }
    }

    /// Paper-strength workload: thousands of arena matches.
    #[must_use]
    pub fn full() -> Self {
        DetectSettings {
            n: 5,
            stages: 48,
            memory: 4,
            slots_per_stage: 8_000,
            thresholds: vec![0.2, 0.4, 0.6, 0.8, 0.95],
            cusum_thresholds: vec![0.001, 0.003, 0.008, 0.02, 0.08],
            cusum_allowance: 0.001,
            replications: 32,
            arena_stages: 40,
            arena_repetitions: 20,
            generations: 500,
            base_seed: 2007,
            threads: 0,
        }
    }

    /// The observation-fault grid both the ROC sweep and the arena use.
    #[must_use]
    pub fn fault_grid() -> Vec<FaultCell> {
        vec![
            FaultCell::ZERO,
            FaultCell { multiplicative: 0.1, additive: 1.0, stale_prob: 0.0, drop_prob: 0.0 },
            FaultCell { multiplicative: 0.25, additive: 2.0, stale_prob: 0.1, drop_prob: 0.1 },
            FaultCell { multiplicative: 0.4, additive: 4.0, stale_prob: 0.2, drop_prob: 0.25 },
        ]
    }
}

/// The full `artifacts/DETECT.json` payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectPayload {
    /// The workload that produced this payload.
    pub settings: DetectSettings,
    /// The cooperative reference window `W_c*` the detectors defend.
    pub w_star: u32,
    /// The cheater's window in selfish ROC trials.
    pub w_selfish: u32,
    /// Windowed-detector ROC curves, one per fault cell.
    pub windowed_roc: Vec<RocCurve>,
    /// CUSUM ROC curve against finite-sample counter noise.
    pub cusum_roc: RocCurve,
    /// The adversarial tournament + equilibrium-mix summary.
    pub arena: ArenaReport,
}

/// Builds the five-population arena field: honest constant play, a
/// selfish undercutter, a short-sighted best responder, and the two
/// detection-gated punishers.
///
/// # Panics
///
/// The detector factories panic on parameters `WindowedDetector`
/// rejects: `w_star == 0`, `memory == 0`, or `threshold ∉ (0, 1]`.
#[must_use]
pub fn arena_field(w_star: u32, memory: usize, threshold: f64) -> Vec<Entrant> {
    let w_selfish = (w_star / 4).max(1);
    vec![
        Entrant::new("honest", move || Box::new(Constant::new(w_star))),
        Entrant::new("selfish", move || Box::new(Constant::new(w_selfish))),
        Entrant::new("short-sighted", move || Box::new(BestResponse::new(w_star))),
        Entrant::new("detector-tft", move || {
            Box::new(
                DetectorTft::try_new(w_star, memory, threshold, 4).expect("valid detector TFT"), // PANIC-POLICY: documented # Panics contract (programmer-error guard)
            )
        }),
        Entrant::new("throttle", move || {
            // PANIC-POLICY: documented # Panics contract (programmer-error guard)
            Box::new(Throttle::try_new(w_star, memory, threshold).expect("valid throttle"))
        }),
    ]
}

/// Runs the detection experiment.
///
/// # Errors
///
/// Propagates model, game, and simulator failures.
pub fn run_detect(settings: &DetectSettings) -> Result<DetectPayload, BenchError> {
    let game = GameConfig::builder(settings.n).discount(0.995).build()?;
    let w_star = efficient_ne(&game)?.window;
    let w_selfish = (w_star / 4).max(1);
    let cells = DetectSettings::fault_grid();

    // ── Windowed-detector ROC over the fault grid ──────────────────────
    let windowed = windowed_roc(&WindowedRocSettings {
        n: settings.n,
        w_ref: w_star,
        w_selfish,
        w_max: game.w_max(),
        stages: settings.stages,
        memory: settings.memory,
        slots_per_stage: settings.slots_per_stage,
        thresholds: settings.thresholds.clone(),
        cells: cells.clone(),
        replications: settings.replications,
        base_seed: settings.base_seed,
        threads: settings.threads,
    })?;

    // ── CUSUM ROC against finite-sample counter noise ──────────────────
    let cusum = cusum_roc(
        game.params(),
        &CusumRocSettings {
            n: settings.n,
            w_ref: w_star,
            w_selfish,
            stages: settings.stages,
            slots_per_stage: settings.slots_per_stage,
            allowance: settings.cusum_allowance,
            thresholds: settings.cusum_thresholds.clone(),
            replications: settings.replications,
            base_seed: settings.base_seed,
            threads: settings.threads,
        },
    )?;

    // ── The adversarial tournament ─────────────────────────────────────
    // The detector threshold sits mid-sweep: tight enough to convict the
    // W*/4 undercutter (ratio 0.25), loose enough to survive the noisy
    // cells.
    let arena = adversarial_round_robin(
        &arena_field(w_star, settings.memory, 0.6),
        &game,
        &ArenaSettings {
            stages: settings.arena_stages,
            repetitions: settings.arena_repetitions,
            cells,
            base_seed: settings.base_seed,
            generations: settings.generations,
            threads: settings.threads,
        },
    )?;

    Ok(DetectPayload {
        settings: settings.clone(),
        w_star,
        w_selfish,
        windowed_roc: windowed,
        cusum_roc: cusum,
        arena,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DetectSettings {
        DetectSettings {
            stages: 10,
            memory: 3,
            slots_per_stage: 500,
            replications: 3,
            arena_stages: 8,
            arena_repetitions: 2,
            generations: 50,
            ..DetectSettings::quick()
        }
    }

    #[test]
    fn payload_is_internally_consistent() {
        let p = run_detect(&small()).unwrap();
        // ≥ 3 fault grids × ≥ 5 thresholds.
        assert!(p.windowed_roc.len() >= 3);
        for curve in &p.windowed_roc {
            assert!(curve.points.len() >= 5);
        }
        // The zero-fault all-honest cell has FP rate exactly 0.
        let zero = p.windowed_roc.iter().find(|c| c.cell.is_zero()).unwrap();
        for point in &zero.points {
            assert_eq!(point.false_positives, 0, "{point:?}");
            assert_eq!(point.fp_rate, 0.0);
        }
        // ≥ 4 strategy populations in the payoff matrix.
        assert!(p.arena.tournament.names.len() >= 4);
        assert_eq!(p.arena.matches, 5 * 5 * 4 * small().arena_repetitions);
        assert!((p.arena.mix.final_shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn payload_bytes_are_reproducible_and_thread_invariant() {
        let settings = small();
        let base = serde_json::to_string(&run_detect(&settings).unwrap()).unwrap();
        for threads in [1usize, 2, 8] {
            let pinned = DetectSettings { threads, ..settings.clone() };
            let mut other = run_detect(&pinned).unwrap();
            // The thread knob is workload metadata, not a result; pin it
            // back so the byte comparison covers every computed section.
            other.settings.threads = settings.threads;
            let bytes = serde_json::to_string(&other).unwrap();
            assert_eq!(bytes, base, "payload bytes changed at threads = {threads}");
        }
    }
}
