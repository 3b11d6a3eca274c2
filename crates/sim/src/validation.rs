//! Side-by-side validation of the analytical model against the simulator
//! — the Section VII.A methodology packaged as a library call.
//!
//! [`validate_fixed_point`] runs the slot engine on a window profile and
//! compares every node's measured `τ̂`, `p̂` (and the network throughput)
//! to the fixed-point predictions of `macgame_dcf`.

use macgame_dcf::fixedpoint::{solve, SolveOptions};
use macgame_dcf::throughput::normalized_throughput;
use macgame_dcf::{edca_throughput, solve_edca, Classes, DcfParams, EdcaTuple, UtilityParams};
use serde::{Deserialize, Serialize};

use crate::batch::{replicate_threads, Summary};
use crate::config::SimConfig;
use crate::engine::Engine;
use crate::SimError;

/// Per-node prediction-vs-measurement comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ValidationRow {
    /// Node index.
    pub node: usize,
    /// Configured contention window.
    pub window: u32,
    /// Predicted transmission probability.
    pub tau_predicted: f64,
    /// Measured transmission probability.
    pub tau_measured: f64,
    /// Predicted conditional collision probability.
    pub p_predicted: f64,
    /// Measured conditional collision probability.
    pub p_measured: f64,
}

/// `|measured − predicted| / |predicted|`, degrading to the absolute
/// error when the prediction is zero (a zero prediction with a nonzero
/// measurement would otherwise read as an infinite error).
#[must_use]
pub fn relative_error(measured: f64, predicted: f64) -> f64 {
    if predicted == 0.0 {
        measured.abs()
    } else {
        (measured - predicted).abs() / predicted.abs()
    }
}

impl ValidationRow {
    /// Relative error of the measured `τ̂` (absolute when the predicted
    /// `τ` is zero).
    #[must_use]
    pub fn tau_relative_error(&self) -> f64 {
        relative_error(self.tau_measured, self.tau_predicted)
    }

    /// Relative error of the measured `p̂` (absolute when the predicted
    /// `p` is zero, e.g. a single-node network).
    #[must_use]
    pub fn p_relative_error(&self) -> f64 {
        relative_error(self.p_measured, self.p_predicted)
    }
}

/// Full validation report for one profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// One comparison per node.
    pub rows: Vec<ValidationRow>,
    /// Predicted normalized throughput.
    pub throughput_predicted: f64,
    /// Measured normalized throughput.
    pub throughput_measured: f64,
    /// Slots simulated.
    pub slots: u64,
}

impl ValidationReport {
    /// Worst per-node relative `τ` error.
    #[must_use]
    pub fn max_tau_error(&self) -> f64 {
        self.rows.iter().map(ValidationRow::tau_relative_error).fold(0.0, f64::max)
    }

    /// Worst per-node relative `p` error.
    #[must_use]
    pub fn max_p_error(&self) -> f64 {
        self.rows.iter().map(ValidationRow::p_relative_error).fold(0.0, f64::max)
    }

    /// Relative throughput error (absolute when the predicted throughput
    /// is zero).
    #[must_use]
    pub fn throughput_relative_error(&self) -> f64 {
        relative_error(self.throughput_measured, self.throughput_predicted)
    }
}

/// Simulates `slots` slots on `windows` and compares against the
/// analytical fixed point.
///
/// # Examples
///
/// ```
/// use macgame_dcf::DcfParams;
/// use macgame_sim::validate_fixed_point;
///
/// let report = validate_fixed_point(&[76; 5], &DcfParams::default(), 100_000, 1)?;
/// assert!(report.max_tau_error() < 0.1);
/// # Ok::<(), macgame_sim::SimError>(())
/// ```
///
/// # Errors
///
/// Propagates configuration and solver failures.
pub fn validate_fixed_point(
    windows: &[u32],
    params: &DcfParams,
    slots: u64,
    seed: u64,
) -> Result<ValidationReport, SimError> {
    let eq = solve(windows, params, SolveOptions::default())?;
    let config = SimConfig::builder()
        .params(*params)
        .utility(UtilityParams::default())
        .windows(windows.to_vec())
        .seed(seed)
        .build()?;
    let mut engine = Engine::new(&config);
    let report = engine.run_slots(slots);
    let rows = (0..windows.len())
        .map(|i| ValidationRow {
            node: i,
            window: windows[i],
            tau_predicted: eq.taus[i],
            tau_measured: report.tau_hat(i),
            p_predicted: eq.collision_probs[i],
            p_measured: report.p_hat(i),
        })
        .collect();
    Ok(ValidationReport {
        rows,
        throughput_predicted: normalized_throughput(&eq.taus, params),
        throughput_measured: report.throughput(params),
        slots,
    })
}

/// One analytically predicted quantity with its replicated estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantitySweep {
    /// Fixed-point prediction.
    pub predicted: f64,
    /// Mean / dispersion / CI of the per-replica measurements.
    pub estimate: Summary,
}

impl QuantitySweep {
    /// Relative error of the replica mean against the prediction
    /// (absolute when the prediction is zero).
    #[must_use]
    pub fn relative_error(&self) -> f64 {
        relative_error(self.estimate.mean, self.predicted)
    }
}

/// Replicated analytics-vs-simulation comparison for one window profile:
/// the Section VII.A methodology with K independently seeded replicas
/// instead of a single run, so every claim carries a confidence interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// The validated window profile.
    pub windows: Vec<u32>,
    /// Slots per replica.
    pub slots: u64,
    /// Number of independently seeded replicas.
    pub replications: usize,
    /// Per-node `τ` prediction vs replicated `τ̂`.
    pub taus: Vec<QuantitySweep>,
    /// Per-node `p` prediction vs replicated `p̂`.
    pub collision_probs: Vec<QuantitySweep>,
    /// Normalized network throughput prediction vs replicated `Ŝ`.
    pub throughput: QuantitySweep,
}

impl SweepReport {
    /// Worst per-node relative error of the mean `τ̂`.
    #[must_use]
    pub fn max_tau_error(&self) -> f64 {
        self.taus.iter().map(QuantitySweep::relative_error).fold(0.0, f64::max)
    }

    /// Worst per-node relative error of the mean `p̂`.
    #[must_use]
    pub fn max_p_error(&self) -> f64 {
        self.collision_probs.iter().map(QuantitySweep::relative_error).fold(0.0, f64::max)
    }

    /// Relative error of the mean `Ŝ`.
    #[must_use]
    pub fn throughput_relative_error(&self) -> f64 {
        self.throughput.relative_error()
    }

    /// Widest per-node 95 % CI half-width among the `τ̂` estimates.
    #[must_use]
    pub fn max_tau_ci_half_width(&self) -> f64 {
        self.taus.iter().map(|q| q.estimate.ci95_half_width).fold(0.0, f64::max)
    }

    /// Widest per-node 95 % CI half-width among the `p̂` estimates.
    #[must_use]
    pub fn max_p_ci_half_width(&self) -> f64 {
        self.collision_probs.iter().map(|q| q.estimate.ci95_half_width).fold(0.0, f64::max)
    }
}

/// Runs `replications` independently seeded replicas of `slots` slots on
/// `windows` (seeds `base_seed, base_seed+1, …`, fanned out over
/// `threads` workers; `0` = the `MACGAME_THREADS` default) and compares
/// the replicated `τ̂`, `p̂`, `Ŝ` estimates against the fixed point.
///
/// The report does not depend on `threads` — replicas own their engines
/// and RNG streams, so the fan-out is bitwise thread-count invariant.
///
/// # Errors
///
/// Propagates configuration and solver failures.
pub fn validate_fixed_point_sweep(
    windows: &[u32],
    params: &DcfParams,
    slots: u64,
    replications: usize,
    base_seed: u64,
    threads: usize,
) -> Result<SweepReport, SimError> {
    let eq = solve(windows, params, SolveOptions::default())?;
    let config = SimConfig::builder()
        .params(*params)
        .utility(UtilityParams::default())
        .windows(windows.to_vec())
        .seed(base_seed)
        .build()?;
    let reports = replicate_threads(&config, slots, replications, base_seed, threads)?;
    let per_node = |f: &dyn Fn(&crate::report::StageReport, usize) -> f64, predicted: &[f64]| {
        (0..windows.len())
            .map(|i| QuantitySweep {
                predicted: predicted[i],
                estimate: Summary::of(&reports.iter().map(|r| f(r, i)).collect::<Vec<f64>>()),
            })
            .collect::<Vec<QuantitySweep>>()
    };
    let taus = per_node(&|r, i| r.tau_hat(i), &eq.taus);
    let collision_probs = per_node(&|r, i| r.p_hat(i), &eq.collision_probs);
    let throughput = QuantitySweep {
        predicted: normalized_throughput(&eq.taus, params),
        estimate: Summary::of(&reports.iter().map(|r| r.throughput(params)).collect::<Vec<f64>>()),
    };
    Ok(SweepReport {
        windows: windows.to_vec(),
        slots,
        replications,
        taus,
        collision_probs,
        throughput,
    })
}

/// Replicated analytics-vs-simulation comparison for an EDCA tuple
/// profile: the EDCA analog of [`validate_fixed_point_sweep`], comparing
/// the slot engine's measured `τ̂`, `p̂`, and TXOP-weighted `Ŝ` against
/// the AIFS-thinned fixed point of [`macgame_dcf::solve_edca`].
///
/// Predictions are the *thinned* attempt rates `τ̃_c = τ_c·q^{d_c}` —
/// exactly what a per-slot attempt counter measures for a deferring node
/// — and the measured throughput credits every frame of a TXOP burst:
/// `Ŝ = Σ_i n_{s,i}·K_i·T_P / t`.
///
/// Seeding and fan-out go through [`replicate_threads`], so the report is
/// bitwise thread-count invariant.
///
/// # Errors
///
/// Propagates configuration and solver failures. The slot engine draws
/// every node's backoff chain from the ambient
/// [`DcfParams::max_backoff_stage`], so tuples with any other
/// `stage_cap` are rejected as invalid configs.
pub fn validate_edca_sweep(
    tuples: &[EdcaTuple],
    params: &DcfParams,
    slots: u64,
    replications: usize,
    base_seed: u64,
    threads: usize,
) -> Result<SweepReport, SimError> {
    if tuples.iter().any(|t| t.stage_cap != params.max_backoff_stage()) {
        return Err(SimError::InvalidConfig(format!(
            "the slot engine uses the ambient stage cap m = {}; per-tuple caps are analytic-only",
            params.max_backoff_stage()
        )));
    }
    let (profile, assignment) = Classes::collapse(tuples)?;
    let class_eq = solve_edca(&profile, params, SolveOptions::default())?;
    let throughput_predicted = edca_throughput(&profile, &class_eq, params);
    let eq = class_eq.expand(&assignment);
    let windows: Vec<u32> = tuples.iter().map(|t| t.cw_min).collect();
    let bursts: Vec<u32> = tuples.iter().map(|t| t.txop).collect();
    let config = SimConfig::builder()
        .params(*params)
        .utility(UtilityParams::default())
        .windows(windows.clone())
        .aifs(tuples.iter().map(|t| t.aifs).collect())
        .txop(bursts.clone())
        .seed(base_seed)
        .build()?;
    let reports = replicate_threads(&config, slots, replications, base_seed, threads)?;
    let per_node = |f: &dyn Fn(&crate::report::StageReport, usize) -> f64, predicted: &[f64]| {
        (0..tuples.len())
            .map(|i| QuantitySweep {
                predicted: predicted[i],
                estimate: Summary::of(&reports.iter().map(|r| f(r, i)).collect::<Vec<f64>>()),
            })
            .collect::<Vec<QuantitySweep>>()
    };
    let taus = per_node(&|r, i| r.tau_hat(i), &eq.thinned_taus);
    let collision_probs = per_node(&|r, i| r.p_hat(i), &eq.collision_probs);
    let payload = params.payload_time().value();
    let measured_s = |r: &crate::report::StageReport| -> f64 {
        let frames: f64 =
            r.node_stats.iter().zip(&bursts).map(|(s, &k)| s.successes as f64 * f64::from(k)).sum();
        frames * payload / r.elapsed.value()
    };
    let throughput = QuantitySweep {
        predicted: throughput_predicted,
        estimate: Summary::of(&reports.iter().map(measured_s).collect::<Vec<f64>>()),
    };
    Ok(SweepReport { windows, slots, replications, taus, collision_probs, throughput })
}

#[cfg(test)]
mod tests {
    use super::*;
    use macgame_dcf::AccessMode;

    #[test]
    fn symmetric_profile_validates_tightly() {
        let report = validate_fixed_point(&[76; 5], &DcfParams::default(), 400_000, 11).unwrap();
        assert!(report.max_tau_error() < 0.05, "τ error {}", report.max_tau_error());
        assert!(report.max_p_error() < 0.10, "p error {}", report.max_p_error());
        assert!(
            report.throughput_relative_error() < 0.03,
            "S error {}",
            report.throughput_relative_error()
        );
    }

    #[test]
    fn heterogeneous_profile_validates() {
        let windows = [16u32, 48, 96, 192];
        let report = validate_fixed_point(&windows, &DcfParams::default(), 400_000, 5).unwrap();
        assert!(report.max_tau_error() < 0.08, "τ error {}", report.max_tau_error());
        for row in &report.rows {
            assert_eq!(row.window, windows[row.node]);
        }
    }

    #[test]
    fn rtscts_profile_validates() {
        let params = DcfParams::builder().access_mode(AccessMode::RtsCts).build().unwrap();
        let report = validate_fixed_point(&[48; 8], &params, 400_000, 7).unwrap();
        assert!(report.max_tau_error() < 0.05, "τ error {}", report.max_tau_error());
        assert!(report.throughput_predicted > 0.5);
    }

    #[test]
    fn rejects_bad_profiles() {
        assert!(validate_fixed_point(&[], &DcfParams::default(), 100, 0).is_err());
        assert!(validate_fixed_point(&[0, 4], &DcfParams::default(), 100, 0).is_err());
    }

    fn row(tau_pred: f64, tau_meas: f64, p_pred: f64, p_meas: f64) -> ValidationRow {
        ValidationRow {
            node: 0,
            window: 32,
            tau_predicted: tau_pred,
            tau_measured: tau_meas,
            p_predicted: p_pred,
            p_measured: p_meas,
        }
    }

    #[test]
    fn tau_relative_error_on_hand_built_rows() {
        assert!((row(0.10, 0.11, 0.5, 0.5).tau_relative_error() - 0.1).abs() < 1e-12);
        assert!((row(0.10, 0.09, 0.5, 0.5).tau_relative_error() - 0.1).abs() < 1e-12);
        assert_eq!(row(0.10, 0.10, 0.5, 0.5).tau_relative_error(), 0.0);
    }

    #[test]
    fn tau_relative_error_zero_denominator_degrades_to_absolute() {
        // A zero prediction must not divide: the error is the measurement.
        let r = row(0.0, 0.02, 0.5, 0.5);
        assert_eq!(r.tau_relative_error(), 0.02);
        assert!(r.tau_relative_error().is_finite());
        assert_eq!(row(0.0, 0.0, 0.5, 0.5).tau_relative_error(), 0.0);
    }

    #[test]
    fn p_relative_error_on_hand_built_rows() {
        assert!((row(0.2, 0.2, 0.40, 0.50).p_relative_error() - 0.25).abs() < 1e-12);
        // Single-node networks predict p = 0; degrade to absolute error.
        assert_eq!(row(0.2, 0.2, 0.0, 0.03).p_relative_error(), 0.03);
        assert_eq!(row(0.2, 0.2, 0.0, 0.0).p_relative_error(), 0.0);
    }

    #[test]
    fn throughput_relative_error_on_hand_built_reports() {
        let base = ValidationReport {
            rows: vec![],
            throughput_predicted: 0.8,
            throughput_measured: 0.72,
            slots: 1,
        };
        assert!((base.throughput_relative_error() - 0.1).abs() < 1e-12);
        let zero_pred = ValidationReport { throughput_predicted: 0.0, ..base.clone() };
        assert_eq!(zero_pred.throughput_relative_error(), 0.72);
        let exact = ValidationReport { throughput_measured: 0.8, ..base };
        assert_eq!(exact.throughput_relative_error(), 0.0);
    }

    #[test]
    fn max_errors_pick_the_worst_row() {
        let report = ValidationReport {
            rows: vec![row(0.10, 0.11, 0.5, 0.5), row(0.10, 0.13, 0.5, 0.6)],
            throughput_predicted: 1.0,
            throughput_measured: 1.0,
            slots: 1,
        };
        assert!((report.max_tau_error() - 0.3).abs() < 1e-12);
        assert!((report.max_p_error() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn sweep_validates_and_is_thread_count_invariant() {
        let params = DcfParams::default();
        let a = validate_fixed_point_sweep(&[76; 5], &params, 60_000, 4, 11, 1).unwrap();
        let b = validate_fixed_point_sweep(&[76; 5], &params, 60_000, 4, 11, 4).unwrap();
        assert_eq!(a, b, "sweep must not depend on the worker count");
        assert_eq!(a.taus.len(), 5);
        assert_eq!(a.replications, 4);
        assert!(a.max_tau_error() < 0.08, "τ error {}", a.max_tau_error());
        assert!(a.throughput_relative_error() < 0.05);
        assert!(a.max_tau_ci_half_width() > 0.0);
        assert!(a.max_p_ci_half_width() > 0.0);
        for q in &a.taus {
            assert_eq!(q.estimate.n, 4);
        }
    }

    #[test]
    fn sweep_rejects_bad_input() {
        let params = DcfParams::default();
        assert!(validate_fixed_point_sweep(&[], &params, 100, 2, 0, 1).is_err());
        assert!(validate_fixed_point_sweep(&[32; 2], &params, 100, 0, 0, 1).is_err());
    }

    fn legacy_tuples(windows: &[u32], params: &DcfParams) -> Vec<EdcaTuple> {
        windows.iter().map(|&w| EdcaTuple::legacy(w, params).unwrap()).collect()
    }

    #[test]
    fn edca_sweep_with_heterogeneous_aifs_tracks_analytics() {
        let params = DcfParams::default();
        let mut tuples = legacy_tuples(&[76; 5], &params);
        tuples[4].aifs = 1;
        let report = validate_edca_sweep(&tuples, &params, 120_000, 4, 31, 0).unwrap();
        assert!(report.max_tau_error() < 0.10, "τ error {}", report.max_tau_error());
        assert!(report.max_p_error() < 0.20, "p error {}", report.max_p_error());
        assert!(
            report.throughput_relative_error() < 0.10,
            "S error {}",
            report.throughput_relative_error()
        );
        // The deferring node's predicted (thinned) rate is below its
        // peers', and the measurement resolves the gap.
        assert!(report.taus[4].predicted < report.taus[0].predicted);
        assert!(report.taus[4].estimate.mean < report.taus[0].estimate.mean);
    }

    #[test]
    fn edca_sweep_with_txop_bursts_tracks_analytics() {
        let params = DcfParams::default();
        let mut tuples = legacy_tuples(&[76; 5], &params);
        for t in &mut tuples {
            t.txop = 4;
        }
        let report = validate_edca_sweep(&tuples, &params, 120_000, 4, 37, 0).unwrap();
        assert!(report.max_tau_error() < 0.10, "τ error {}", report.max_tau_error());
        assert!(
            report.throughput_relative_error() < 0.10,
            "S error {}",
            report.throughput_relative_error()
        );
        // Four-frame bursts amortize contention overhead (idle slots,
        // collisions, per-access headers) over more payload, pushing
        // efficiency measurably above the single-frame ceiling.
        let single = validate_fixed_point_sweep(&[76; 5], &params, 60_000, 2, 37, 0).unwrap();
        assert!(
            report.throughput.predicted > 1.05 * single.throughput.predicted,
            "burst S {} vs single S {}",
            report.throughput.predicted,
            single.throughput.predicted
        );
    }

    #[test]
    fn edca_sweep_is_thread_count_invariant() {
        let params = DcfParams::default();
        let mut tuples = legacy_tuples(&[64; 4], &params);
        tuples[0].txop = 2;
        tuples[3].aifs = 1;
        let a = validate_edca_sweep(&tuples, &params, 30_000, 4, 11, 1).unwrap();
        let b = validate_edca_sweep(&tuples, &params, 30_000, 4, 11, 4).unwrap();
        assert_eq!(a, b, "EDCA sweep must not depend on the worker count");
    }

    #[test]
    fn edca_sweep_rejects_per_tuple_stage_caps() {
        let params = DcfParams::default();
        let mut tuples = legacy_tuples(&[64; 3], &params);
        tuples[1].stage_cap = 2;
        assert!(validate_edca_sweep(&tuples, &params, 100, 2, 0, 1).is_err());
        assert!(validate_edca_sweep(&[], &params, 100, 2, 0, 1).is_err());
    }
}
