//! Statistical analytics-vs-simulation differential testing (the paper's
//! Section VII.A methodology with honest error bars).
//!
//! For each scenario the fixed point is solved analytically, then `K`
//! independently seeded slot-engine replicas are run through the parallel
//! shim and summarized into per-quantity means and 95% confidence
//! intervals ([`macgame_sim::validate_fixed_point_sweep`]). A claim
//! passes when the worst relative error over nodes stays inside its
//! per-quantity tolerance budget.

use macgame_dcf::params::AccessMode;
use macgame_dcf::DcfParams;
use macgame_sim::validate_fixed_point_sweep;
use serde::{Deserialize, Serialize};

use crate::report::ConformanceSettings;
use crate::ConformanceError;

/// Per-quantity relative-error budgets gating analytics-vs-sim agreement.
///
/// Budgets are set at roughly twice the worst deterministic error observed
/// at the `quick` settings, so they catch genuine model/simulator drift
/// without flaking on Monte-Carlo noise.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ToleranceBudget {
    /// Budget for the transmission probabilities `τ_i`.
    pub tau: f64,
    /// Budget for the conditional collision probabilities `p_i`. The
    /// loosest budget: `p̂` is a ratio of two counted rates and inherits
    /// both variances.
    pub p: f64,
    /// Budget for the normalized throughput `S`.
    pub throughput: f64,
}

impl ToleranceBudget {
    /// The budgets the conformance gate runs with.
    #[must_use]
    pub fn paper() -> Self {
        ToleranceBudget { tau: 0.10, p: 0.20, throughput: 0.10 }
    }
}

/// One gated quantity of one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatisticalClaim {
    /// `"{scenario}/{quantity}"`.
    pub name: String,
    /// Worst relative error over nodes (mean estimate vs prediction).
    pub worst_relative_error: f64,
    /// The budget this claim is gated on.
    pub tolerance: f64,
    /// Widest 95% CI half-width over nodes — reported so a "pass" with
    /// huge error bars is visible for what it is.
    pub max_ci_half_width: f64,
    /// `worst_relative_error <= tolerance`.
    pub pass: bool,
}

struct Scenario {
    name: &'static str,
    windows: Vec<u32>,
    params: DcfParams,
    seed_offset: u64,
}

fn scenarios() -> Result<Vec<Scenario>, ConformanceError> {
    let basic = DcfParams::default();
    let rtscts = DcfParams::builder().access_mode(AccessMode::RtsCts).build()?;
    Ok(vec![
        Scenario {
            name: "symmetric-basic-n5-w76",
            windows: vec![76; 5],
            params: basic,
            seed_offset: 0,
        },
        Scenario {
            name: "heterogeneous-basic",
            windows: vec![16, 48, 96, 192],
            params: basic,
            seed_offset: 1_000,
        },
        Scenario {
            name: "symmetric-rtscts-n8-w48",
            windows: vec![48; 8],
            params: rtscts,
            seed_offset: 2_000,
        },
    ])
}

fn claim(name: String, worst: f64, tolerance: f64, ci: f64) -> StatisticalClaim {
    StatisticalClaim {
        name,
        worst_relative_error: worst,
        tolerance,
        max_ci_half_width: ci,
        pass: worst <= tolerance,
    }
}

/// Runs every scenario's seed sweep and gates `τ̂`, `p̂`, `Ŝ` against
/// `budget` — three claims per scenario.
///
/// The result depends on `settings.slots`, `settings.replications`, and
/// `settings.base_seed` but **not** on `settings.threads` (the replica
/// fan-out is bitwise thread-count invariant).
///
/// # Errors
///
/// Propagates solver and simulator failures.
pub fn statistical_claims(
    settings: &ConformanceSettings,
    budget: &ToleranceBudget,
) -> Result<Vec<StatisticalClaim>, ConformanceError> {
    let mut claims = Vec::new();
    for scenario in scenarios()? {
        let report = validate_fixed_point_sweep(
            &scenario.windows,
            &scenario.params,
            settings.slots,
            settings.replications,
            settings.base_seed.wrapping_add(scenario.seed_offset),
            settings.threads,
        )?;
        claims.push(claim(
            format!("{}/tau", scenario.name),
            report.max_tau_error(),
            budget.tau,
            report.max_tau_ci_half_width(),
        ));
        claims.push(claim(
            format!("{}/p", scenario.name),
            report.max_p_error(),
            budget.p,
            report.max_p_ci_half_width(),
        ));
        claims.push(claim(
            format!("{}/throughput", scenario.name),
            report.throughput_relative_error(),
            budget.throughput,
            report.throughput.estimate.ci95_half_width,
        ));
    }
    Ok(claims)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_are_sane() {
        let b = ToleranceBudget::paper();
        assert!(b.tau > 0.0 && b.tau < 1.0);
        assert!(b.p >= b.tau, "p inherits two variances; it cannot be the tightest budget");
        assert!(b.throughput > 0.0 && b.throughput < 1.0);
    }

    #[test]
    fn claims_pass_exactly_on_budget() {
        let c = claim("x/tau".into(), 0.05, 0.05, 0.01);
        assert!(c.pass);
        let c = claim("x/tau".into(), 0.0501, 0.05, 0.01);
        assert!(!c.pass);
    }

    #[test]
    fn tiny_sweep_produces_three_claims_per_scenario() {
        // Deliberately tiny: this only checks plumbing, not tolerances.
        let settings =
            ConformanceSettings { slots: 2_000, replications: 2, base_seed: 7, threads: 1 };
        let claims = statistical_claims(&settings, &ToleranceBudget::paper()).unwrap();
        assert_eq!(claims.len(), 9);
        assert!(claims.iter().all(|c| c.worst_relative_error.is_finite()));
        assert!(claims[0].name.starts_with("symmetric-basic-n5-w76/"));
    }
}
