//! ROC machinery: false-positive/false-negative curves for the
//! sequential detectors under seeded observation-fault grids.
//!
//! Each trial runs the detector *threshold-free*: it records the
//! extremal statistic the trial ever produced (minimum window ratio for
//! [`WindowedDetector`]-style rules, maximum CUSUM score for
//! [`CusumDetector`]), then every threshold in the sweep is applied
//! post hoc to the recorded extremes. One pass over the trials yields
//! the whole curve, and the curve is monotone in the threshold by
//! construction.
//!
//! Determinism discipline: trials are self-contained (each derives its
//! own seed via [`macgame_faults::rng::derive_seed`] from the trial
//! index), fanned out with `dcf::parallel::map`, and aggregated in
//! trial order — so the output bytes are invariant under
//! `MACGAME_THREADS`.

use macgame_dcf::fixedpoint::solve_symmetric;
use macgame_dcf::parallel;
use macgame_dcf::DcfParams;
use macgame_faults::rng::derive_seed;
use macgame_faults::{ObservationChannel, ObservationFaults};
use macgame_sim::{Engine, SimConfig};
use macgame_telemetry as telemetry;
use serde::{Deserialize, Serialize};

use crate::detect::sequential::{CusumDetector, WindowedDetector};
use crate::error::GameError;

/// One cell of the observation-fault grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultCell {
    /// Multiplicative noise amplitude, in `[0, 1)`.
    pub multiplicative: f64,
    /// Additive noise amplitude (windows), non-negative.
    pub additive: f64,
    /// Probability an observation is stale (previous stage's value).
    pub stale_prob: f64,
    /// Probability an observation is dropped entirely.
    pub drop_prob: f64,
}

impl FaultCell {
    /// The zero-fault cell: observations pass through exactly.
    pub const ZERO: FaultCell =
        FaultCell { multiplicative: 0.0, additive: 0.0, stale_prob: 0.0, drop_prob: 0.0 };

    /// Whether every fault rate is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.multiplicative == 0.0
            && self.additive == 0.0
            && self.stale_prob == 0.0
            && self.drop_prob == 0.0
    }

    /// A short human-readable label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "noise={:.2}+{:.1} stale={:.2} drop={:.2}",
            self.multiplicative, self.additive, self.stale_prob, self.drop_prob
        )
    }

    fn faults(&self, seed: u64) -> Result<ObservationFaults, GameError> {
        ObservationFaults::new(
            self.multiplicative,
            self.additive,
            self.stale_prob,
            self.drop_prob,
            seed,
        )
        .map_err(|e| GameError::InvalidConfig(format!("fault cell rejected: {e}")))
    }
}

/// Sweep configuration for [`windowed_roc`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowedRocSettings {
    /// Population size (≥ 2: one potential cheater plus honest peers).
    pub n: usize,
    /// The cooperative reference window everyone should play.
    pub w_ref: u32,
    /// The cheater's window in selfish trials (must undercut `w_ref`).
    pub w_selfish: u32,
    /// Clamp ceiling for observed windows.
    pub w_max: u32,
    /// Stages observed per trial (must be ≥ `memory`).
    pub stages: usize,
    /// Detector memory (observations averaged per node).
    pub memory: usize,
    /// Channel slots represented by each observed stage (bookkeeping
    /// for `Verdict::slots_observed`; the windowed rule itself works on
    /// per-stage window observations).
    pub slots_per_stage: u64,
    /// Window-ratio thresholds to sweep, each in `(0, 1]`.
    pub thresholds: Vec<f64>,
    /// The observation-fault grid.
    pub cells: Vec<FaultCell>,
    /// Honest and selfish trials per cell.
    pub replications: usize,
    /// Base seed; per-trial seeds are derived from it.
    pub base_seed: u64,
    /// Worker threads (0 = honor `MACGAME_THREADS`). Never affects the
    /// result bytes.
    pub threads: usize,
}

/// Sweep configuration for [`cusum_roc`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CusumRocSettings {
    /// Population size (≥ 2).
    pub n: usize,
    /// The cooperative reference window everyone should play.
    pub w_ref: u32,
    /// The cheater's window in selfish trials.
    pub w_selfish: u32,
    /// Observed stages per trial.
    pub stages: usize,
    /// Channel slots simulated per observed stage.
    pub slots_per_stage: u64,
    /// CUSUM slack subtracted from the measured rate excess each stage.
    pub allowance: f64,
    /// CUSUM score thresholds to sweep, each > 0.
    pub thresholds: Vec<f64>,
    /// Honest and selfish trials (one grid cell: the noise source is
    /// the finite-sample counter variance itself).
    pub replications: usize,
    /// Base seed; per-trial seeds are derived from it.
    pub base_seed: u64,
    /// Worker threads (0 = honor `MACGAME_THREADS`). Never affects the
    /// result bytes.
    pub threads: usize,
}

/// One point of an ROC curve: error rates at a single threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RocPoint {
    /// The detector threshold this point evaluates.
    pub threshold: f64,
    /// All-honest trials in which some node was (wrongly) flagged.
    pub false_positives: usize,
    /// Total all-honest trials.
    pub honest_trials: usize,
    /// Cheater trials in which the cheater escaped detection.
    pub false_negatives: usize,
    /// Total cheater trials.
    pub selfish_trials: usize,
    /// `false_positives / honest_trials`.
    pub fp_rate: f64,
    /// `false_negatives / selfish_trials`.
    pub fn_rate: f64,
}

/// An ROC curve for one fault cell (or one detector family).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RocCurve {
    /// Human-readable curve label.
    pub label: String,
    /// The observation-fault cell the curve was swept under.
    pub cell: FaultCell,
    /// One point per threshold, in sweep order.
    pub points: Vec<RocPoint>,
}

/// Extremal statistics of one threshold-free trial.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TrialExtreme {
    /// For honest trials: the minimum statistic any node ever showed
    /// (windowed) / maximum score (CUSUM). For selfish trials: the
    /// cheater's extreme.
    value: f64,
    honest: bool,
}

fn sweep_points(
    thresholds: &[f64],
    trials: &[TrialExtreme],
    flagged: impl Fn(f64, f64) -> bool,
) -> Vec<RocPoint> {
    thresholds
        .iter()
        .map(|&threshold| {
            let mut fp = 0usize;
            let mut honest = 0usize;
            let mut fneg = 0usize;
            let mut selfish = 0usize;
            for t in trials {
                if t.honest {
                    honest += 1;
                    if flagged(t.value, threshold) {
                        fp += 1;
                    }
                } else {
                    selfish += 1;
                    if !flagged(t.value, threshold) {
                        fneg += 1;
                    }
                }
            }
            RocPoint {
                threshold,
                false_positives: fp,
                honest_trials: honest,
                false_negatives: fneg,
                selfish_trials: selfish,
                fp_rate: if honest == 0 { 0.0 } else { fp as f64 / honest as f64 },
                fn_rate: if selfish == 0 { 0.0 } else { fneg as f64 / selfish as f64 },
            }
        })
        .collect()
}

fn validate_common(
    n: usize,
    w_ref: u32,
    w_selfish: u32,
    stages: usize,
    replications: usize,
    thresholds: &[f64],
) -> Result<(), GameError> {
    if n < 2 {
        return Err(GameError::InvalidConfig("need at least two nodes".into()));
    }
    if w_ref == 0 || w_selfish == 0 {
        return Err(GameError::InvalidConfig("windows must be positive".into()));
    }
    if w_selfish >= w_ref {
        return Err(GameError::InvalidConfig(format!(
            "selfish window {w_selfish} must undercut the reference {w_ref}"
        )));
    }
    if stages == 0 {
        return Err(GameError::InvalidConfig("need at least one stage".into()));
    }
    if replications == 0 {
        return Err(GameError::InvalidConfig("need at least one replication".into()));
    }
    if thresholds.is_empty() {
        return Err(GameError::InvalidConfig("need at least one threshold".into()));
    }
    Ok(())
}

/// Sweeps the windowed threshold detector over an observation-fault
/// grid: for each cell, `replications` all-honest and `replications`
/// single-cheater trials are observed through a seeded
/// [`ObservationChannel`], and every threshold is evaluated against the
/// recorded extremal statistics.
///
/// Under the zero-fault cell the honest statistic is exactly `1.0`
/// every stage, so the false-positive rate is `0` at *every* valid
/// threshold — the structural invariant the conformance suite gates.
///
/// # Errors
///
/// Returns [`GameError::InvalidConfig`] for an invalid sweep
/// configuration (empty grid, thresholds outside `(0, 1]`,
/// `memory > stages`, a selfish window that does not undercut the
/// reference, or a fault cell the faults crate rejects).
pub fn windowed_roc(settings: &WindowedRocSettings) -> Result<Vec<RocCurve>, GameError> {
    validate_common(
        settings.n,
        settings.w_ref,
        settings.w_selfish,
        settings.stages,
        settings.replications,
        &settings.thresholds,
    )?;
    if settings.cells.is_empty() {
        return Err(GameError::InvalidConfig("need at least one fault cell".into()));
    }
    if settings.memory == 0 || settings.memory > settings.stages {
        return Err(GameError::InvalidConfig(format!(
            "memory {} must be in [1, stages = {}]",
            settings.memory, settings.stages
        )));
    }
    if settings.thresholds.iter().any(|t| !(t.is_finite() && *t > 0.0 && *t <= 1.0)) {
        return Err(GameError::InvalidConfig("thresholds must be in (0, 1]".into()));
    }
    let _span = telemetry::span("core.detect.windowed_roc");

    // Trial plan: (cell, replication, honest?) in a fixed global order.
    let mut plan: Vec<(usize, usize, bool)> = Vec::new();
    for cell in 0..settings.cells.len() {
        for rep in 0..settings.replications {
            plan.push((cell, rep, true));
            plan.push((cell, rep, false));
        }
    }
    telemetry::counter("core.detect.roc_trials", plan.len() as u64);

    let run_trial = |&(trial_index, (cell_index, _rep, honest)): &(usize, (usize, usize, bool))|
     -> Result<(usize, TrialExtreme), GameError> {
        let cell = &settings.cells[cell_index];
        let seed = derive_seed(settings.base_seed, "detect-windowed-roc", trial_index as u64);
        let faults = cell.faults(seed)?;
        let mut channel = ObservationChannel::new(faults, settings.n);
        // Cheater (if any) sits at node 0; the detector watches everyone.
        let mut true_windows = vec![settings.w_ref; settings.n];
        if !honest {
            true_windows[0] = settings.w_selfish;
        }
        // Threshold-free run: θ = 1 is the loosest valid threshold; we
        // ignore its verdicts and track raw statistics instead.
        let mut detector = WindowedDetector::try_new(settings.n, settings.w_ref, settings.memory, 1.0)?;
        let mut extreme = f64::INFINITY;
        for _ in 0..settings.stages {
            let observed = channel
                .observe(&true_windows, settings.w_max)
                .map_err(|e| GameError::InvalidConfig(format!("observation failed: {e}")))?;
            detector.observe_windows(&observed, settings.slots_per_stage)?;
            // Honest trials: any false flag counts, so watch everyone.
            // Selfish trials: only the cheater's statistic matters.
            let nodes: Vec<usize> = if honest { (0..settings.n).collect() } else { vec![0] };
            for node in nodes {
                if detector.warmed_up(node) {
                    if let Some(stat) = detector.statistic(node) {
                        extreme = extreme.min(stat);
                    }
                }
            }
        }
        Ok((cell_index, TrialExtreme { value: extreme, honest }))
    };

    let plan: Vec<_> = plan.into_iter().enumerate().collect();
    let outcomes = parallel::map(&plan, settings.threads, run_trial);
    let mut per_cell: Vec<Vec<TrialExtreme>> = vec![Vec::new(); settings.cells.len()];
    for outcome in outcomes {
        let (cell_index, trial) = outcome?;
        per_cell[cell_index].push(trial);
    }

    // A trial that never warmed up keeps +inf, which no threshold in
    // (0, 1] exceeds — it counts as "not flagged" on both sides.
    let flagged = |value: f64, threshold: f64| value < threshold;
    Ok(settings
        .cells
        .iter()
        .zip(per_cell)
        .map(|(cell, trials)| RocCurve {
            label: format!("windowed {}", cell.label()),
            cell: *cell,
            points: sweep_points(&settings.thresholds, &trials, flagged),
        })
        .collect())
}

/// Sweeps the CUSUM detector against finite-sample counter noise: each
/// trial simulates `stages × slots_per_stage` slots of the seeded DCF
/// engine (all-honest or with node 0 undercutting), feeds the per-stage
/// counters to a threshold-free CUSUM, and records the maximum score.
///
/// The honest reference rate `τ_ref` is the symmetric fixed point at
/// `w_ref`; the noise the ROC measures is the binomial variance of the
/// measured rates themselves.
///
/// # Errors
///
/// Returns [`GameError::InvalidConfig`] for invalid settings and
/// propagates solver/simulator failures.
pub fn cusum_roc(params: &DcfParams, settings: &CusumRocSettings) -> Result<RocCurve, GameError> {
    validate_common(
        settings.n,
        settings.w_ref,
        settings.w_selfish,
        settings.stages,
        settings.replications,
        &settings.thresholds,
    )?;
    if settings.slots_per_stage == 0 {
        return Err(GameError::InvalidConfig("need at least one slot per stage".into()));
    }
    if settings.thresholds.iter().any(|t| !t.is_finite() || *t <= 0.0) {
        return Err(GameError::InvalidConfig("CUSUM thresholds must be positive".into()));
    }
    let _span = telemetry::span("core.detect.cusum_roc");
    let tau_ref = solve_symmetric(settings.n, settings.w_ref, params)?.tau;

    let mut plan: Vec<(usize, bool)> = Vec::new();
    for rep in 0..settings.replications {
        plan.push((rep, true));
        plan.push((rep, false));
    }
    telemetry::counter("core.detect.roc_trials", plan.len() as u64);

    let run_trial =
        |&(trial_index, (_rep, honest)): &(usize, (usize, bool))| -> Result<TrialExtreme, GameError> {
            let seed = derive_seed(settings.base_seed, "detect-cusum-roc", trial_index as u64);
            let mut windows = vec![settings.w_ref; settings.n];
            if !honest {
                windows[0] = settings.w_selfish;
            }
            let config =
                SimConfig::builder().params(*params).windows(windows).seed(seed).build()?;
            let mut engine = Engine::new(&config);
            // Threshold-free: use the largest sweep threshold so the
            // detector never needs to fire; we track raw scores.
            let loose = settings.thresholds.iter().copied().fold(f64::MIN, f64::max) + 1.0;
            let mut detector =
                CusumDetector::try_new(settings.n, tau_ref, settings.allowance, loose)?;
            let mut extreme = 0.0f64;
            for _ in 0..settings.stages {
                let report = engine.run_slots(settings.slots_per_stage);
                detector.observe_stage(&report.node_stats, settings.slots_per_stage)?;
                let nodes: Vec<usize> = if honest { (0..settings.n).collect() } else { vec![0] };
                for node in nodes {
                    if let Some(score) = detector.statistic(node) {
                        extreme = extreme.max(score);
                    }
                }
            }
            Ok(TrialExtreme { value: extreme, honest })
        };

    let plan: Vec<_> = plan.into_iter().enumerate().collect();
    let outcomes = parallel::map(&plan, settings.threads, run_trial);
    let trials: Vec<TrialExtreme> = outcomes.into_iter().collect::<Result<_, _>>()?;
    let flagged = |value: f64, threshold: f64| value > threshold;
    Ok(RocCurve {
        label: "cusum finite-sample".into(),
        cell: FaultCell::ZERO,
        points: sweep_points(&settings.thresholds, &trials, flagged),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windowed_settings() -> WindowedRocSettings {
        WindowedRocSettings {
            n: 4,
            w_ref: 64,
            w_selfish: 8,
            w_max: 256,
            stages: 10,
            memory: 3,
            slots_per_stage: 500,
            thresholds: vec![0.2, 0.5, 0.8, 1.0],
            cells: vec![
                FaultCell::ZERO,
                FaultCell { multiplicative: 0.2, additive: 2.0, stale_prob: 0.1, drop_prob: 0.1 },
            ],
            replications: 4,
            base_seed: 99,
            threads: 1,
        }
    }

    #[test]
    fn zero_fault_cell_has_no_false_positives_and_no_misses() {
        let curves = windowed_roc(&windowed_settings()).unwrap();
        let zero = curves.iter().find(|c| c.cell.is_zero()).unwrap();
        for point in &zero.points {
            assert_eq!(point.false_positives, 0, "FP under exact observation at {point:?}");
            assert_eq!(point.fp_rate, 0.0);
            // 8/64 = 0.125 < every threshold in the sweep: always caught.
            assert_eq!(point.false_negatives, 0);
        }
    }

    #[test]
    fn noisy_cell_error_rates_are_monotone_in_the_threshold() {
        let curves = windowed_roc(&windowed_settings()).unwrap();
        for curve in &curves {
            for pair in curve.points.windows(2) {
                assert!(pair[0].threshold < pair[1].threshold);
                // Raising θ can only add flags: FP grows, FN shrinks.
                assert!(pair[0].false_positives <= pair[1].false_positives);
                assert!(pair[0].false_negatives >= pair[1].false_negatives);
            }
        }
    }

    #[test]
    fn windowed_roc_is_thread_invariant() {
        let base = windowed_roc(&windowed_settings()).unwrap();
        for threads in [2usize, 8] {
            let settings = WindowedRocSettings { threads, ..windowed_settings() };
            assert_eq!(windowed_roc(&settings).unwrap(), base, "drift at {threads} threads");
        }
    }

    #[test]
    fn cusum_roc_catches_a_blatant_cheater() {
        let params = DcfParams::default();
        let settings = CusumRocSettings {
            n: 4,
            w_ref: 64,
            w_selfish: 4,
            stages: 12,
            slots_per_stage: 2000,
            allowance: 0.01,
            thresholds: vec![0.01, 0.05, 0.2],
            replications: 3,
            base_seed: 7,
            threads: 1,
        };
        let curve = cusum_roc(&params, &settings).unwrap();
        // A W=4 cheater among W=64 honest nodes quadruples its rate;
        // at the small thresholds it is always caught.
        let tightest = &curve.points[0];
        assert_eq!(tightest.false_negatives, 0, "{tightest:?}");
        // And the error counts stay monotone along the sweep.
        for pair in curve.points.windows(2) {
            assert!(pair[0].false_positives >= pair[1].false_positives);
            assert!(pair[0].false_negatives <= pair[1].false_negatives);
        }
    }

    #[test]
    fn cusum_roc_is_thread_invariant() {
        let params = DcfParams::default();
        let settings = CusumRocSettings {
            n: 3,
            w_ref: 32,
            w_selfish: 4,
            stages: 6,
            slots_per_stage: 800,
            allowance: 0.01,
            thresholds: vec![0.05, 0.2],
            replications: 2,
            base_seed: 3,
            threads: 1,
        };
        let base = cusum_roc(&params, &settings).unwrap();
        for threads in [2usize, 8] {
            let pinned = CusumRocSettings { threads, ..settings.clone() };
            assert_eq!(cusum_roc(&params, &pinned).unwrap(), base);
        }
    }

    #[test]
    fn sweep_validation() {
        let mut s = windowed_settings();
        s.thresholds = vec![1.5];
        assert!(windowed_roc(&s).is_err());
        let mut s = windowed_settings();
        s.w_selfish = 64;
        assert!(windowed_roc(&s).is_err());
        let mut s = windowed_settings();
        s.memory = 99;
        assert!(windowed_roc(&s).is_err());
        let mut s = windowed_settings();
        s.cells.clear();
        assert!(windowed_roc(&s).is_err());
    }
}
