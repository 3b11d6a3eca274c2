//! Independent replications and summary statistics.
//!
//! Simulation point estimates (τ̂, payoff rates, throughput) carry
//! sampling noise; the honest way to report them is mean ± confidence
//! interval over independent replications. [`replicate_threads`] runs the same
//! configuration under distinct seeds and [`Summary`] reports
//! mean / standard deviation / normal-approximation 95 % CI.

use macgame_dcf::parallel;
use macgame_telemetry as telemetry;
use serde::{Deserialize, Serialize};

use crate::config::SimConfig;
use crate::engine::Engine;
use crate::report::StageReport;
use crate::SimError;

/// Mean, dispersion and 95 % confidence half-width of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator).
    pub std_dev: f64,
    /// Half-width of the normal-approximation 95 % CI for the mean.
    pub ci95_half_width: f64,
}

impl Summary {
    /// Summarizes a sample.
    ///
    /// # Examples
    ///
    /// ```
    /// use macgame_sim::Summary;
    ///
    /// let s = Summary::of(&[1.0, 2.0, 3.0]);
    /// assert_eq!(s.mean, 2.0);
    /// assert!((2.5 - s.mean).abs() <= s.ci95_half_width);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or non-finite values.
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "need at least one sample"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        assert!(samples.iter().all(|x| x.is_finite()), "samples must be finite"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let std_dev = if n < 2 {
            0.0
        } else {
            (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0)).sqrt()
        };
        let ci95_half_width =
            if n < 2 { f64::INFINITY } else { 1.96 * std_dev / (n as f64).sqrt() };
        Summary { n, mean, std_dev, ci95_half_width }
    }
}

/// Runs `replications` independent simulations of `slots` slots each
/// (seeds `base_seed, base_seed+1, …`) and returns the per-run reports in
/// seed order.
///
/// Replicas are fanned out over `threads` workers (`0` = the
/// `MACGAME_THREADS` default). Each replica owns its engine and a
/// seed-derived RNG, so the reports do not depend on `threads`; the knob
/// exists so determinism tests can pin the pool size without mutating the
/// process environment.
///
/// # Errors
///
/// Propagates configuration failures.
pub fn replicate_threads(
    config: &SimConfig,
    slots: u64,
    replications: usize,
    base_seed: u64,
    threads: usize,
) -> Result<Vec<StageReport>, SimError> {
    if replications == 0 {
        return Err(SimError::InvalidConfig("need at least one replication".into()));
    }
    telemetry::counter("sim.batch.replicas", replications as u64);
    let _span = telemetry::span("sim.batch.replicate");
    let seeds: Vec<u64> = (0..replications).map(|r| base_seed.wrapping_add(r as u64)).collect();
    let reports: Vec<Result<StageReport, SimError>> = parallel::map(&seeds, threads, |&seed| {
        let rc = SimConfig::builder()
            .params(*config.params())
            .utility(*config.utility())
            .windows(config.windows().to_vec())
            .traffic(config.traffic())
            .aifs(config.aifs().to_vec())
            .txop(config.txop().to_vec())
            .seed(seed)
            .build()?;
        Ok(Engine::new(&rc).run_slots(slots))
    });
    reports.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use macgame_dcf::fixedpoint::solve_symmetric;
    use macgame_dcf::DcfParams;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - (20.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!(s.ci95_half_width > 0.0);
        assert!((5.0 - s.mean).abs() <= s.ci95_half_width);
    }

    #[test]
    fn single_sample_has_infinite_ci() {
        let s = Summary::of(&[3.0]);
        assert_eq!(s.std_dev, 0.0);
        assert!(s.ci95_half_width.is_infinite());
    }

    #[test]
    fn replications_are_independent_and_distinct() {
        let config = SimConfig::builder().symmetric(4, 32).build().unwrap();
        let reports = replicate_threads(&config, 5_000, 4, 100, 0).unwrap();
        assert_eq!(reports.len(), 4);
        // Different seeds ⇒ different realizations.
        assert!(reports.windows(2).any(|p| p[0] != p[1]));
    }

    #[test]
    fn replicate_matches_serial_construction() {
        // The parallel fan-out must reproduce exactly what a serial loop
        // over seed-derived engines produces, replica by replica.
        let config = SimConfig::builder().symmetric(3, 16).build().unwrap();
        let reports = replicate_threads(&config, 2_000, 3, 42, 0).unwrap();
        for (r, report) in reports.iter().enumerate() {
            let rc = SimConfig::builder()
                .params(*config.params())
                .utility(*config.utility())
                .windows(config.windows().to_vec())
                .traffic(config.traffic())
                .seed(42 + r as u64)
                .build()
                .unwrap();
            let direct = Engine::new(&rc).run_slots(2_000);
            assert_eq!(report, &direct, "replica {r}");
        }
    }

    #[test]
    fn ci_covers_the_analytic_tau() {
        let params = DcfParams::default();
        let config = SimConfig::builder().symmetric(5, 76).build().unwrap();
        let sym = solve_symmetric(5, 76, &params).unwrap();
        let reports = replicate_threads(&config, 150_000, 8, 7, 0).unwrap();
        let estimate = Summary::of(&reports.iter().map(|r| r.tau_hat(0)).collect::<Vec<_>>());
        // Allow 2× the CI to keep the test robust to the normal approx.
        assert!(
            (estimate.mean - sym.tau).abs() <= 2.0 * estimate.ci95_half_width,
            "mean {} ± {} vs analytic {}",
            estimate.mean,
            estimate.ci95_half_width,
            sym.tau
        );
    }

    #[test]
    fn zero_replications_rejected() {
        let config = SimConfig::builder().symmetric(2, 8).build().unwrap();
        assert!(replicate_threads(&config, 100, 0, 0, 0).is_err());
    }

    #[test]
    fn replicate_is_thread_count_invariant() {
        let config = SimConfig::builder().symmetric(4, 24).build().unwrap();
        let one = replicate_threads(&config, 3_000, 5, 9, 1).unwrap();
        let two = replicate_threads(&config, 3_000, 5, 9, 2).unwrap();
        let eight = replicate_threads(&config, 3_000, 5, 9, 8).unwrap();
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_summary_panics() {
        let _ = Summary::of(&[]);
    }
}
