//! Extension experiments beyond the paper's evaluation section: the
//! delay-aware NE (Discussion section), the rate-control game
//! (Conclusion), and the strategy tournament (the TFT pedigree).

use macgame_core::equilibrium::efficient_ne;
use macgame_core::population::{replicator, PopulationState};
use macgame_core::ratecontrol::{performance_anomaly, rate_game, rate_set_80211b};
use macgame_core::strategy::{BestResponse, Constant, GenerousTft, Tft};
use macgame_core::tournament::{round_robin, Entrant};
use macgame_core::GameConfig;
use macgame_dcf::delay::efficient_cw_delay_aware;
use macgame_dcf::{DcfParams, UtilityParams};
use serde::{Deserialize, Serialize};

use crate::BenchError;

/// One row of the delay-aware ablation: how the efficient window shrinks
/// with the delay sensitivity λ.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelayRow {
    /// Delay penalty weight λ (per µs²; the utility is per µs).
    pub lambda: f64,
    /// The delay-aware efficient window.
    pub window: u32,
    /// Mean head-of-line delay at that window, in ms.
    pub delay_ms: f64,
    /// Classic utility at that window (per µs).
    pub utility: f64,
}

/// The delay ablation table: λ sweep at fixed `n`.
///
/// In basic mode the shift is small — collisions dominate both delay and
/// throughput, so the two optima nearly coincide. Under RTS/CTS collisions
/// are cheap, small windows genuinely cut delay, and the delay-aware
/// optimum undercuts `W_c*` visibly.
///
/// # Errors
///
/// Propagates model failures.
pub fn delay_table(
    n: usize,
    mode: macgame_dcf::AccessMode,
    lambdas: &[f64],
) -> Result<Vec<DelayRow>, BenchError> {
    let params = DcfParams::builder().access_mode(mode).build()?;
    let utility = UtilityParams::default();
    let mut rows = Vec::new();
    for &lambda in lambdas {
        let point = efficient_cw_delay_aware(n, &params, &utility, lambda, 512)?;
        rows.push(DelayRow {
            lambda,
            window: point.window,
            delay_ms: point.delay.value() / 1000.0,
            utility: point.utility,
        });
    }
    Ok(rows)
}

/// One row of the rate-control experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateRow {
    /// Population.
    pub n: usize,
    /// The unique pure NE (all players' rate, Mbit/s) — all-fast.
    pub ne_rate_mbps: f64,
    /// Whether all-fast is also the welfare maximum among probed profiles.
    pub ne_is_social_optimum: bool,
    /// Performance-anomaly damage of one slow node (fraction of utility).
    pub anomaly_damage: f64,
}

/// The rate-control table over populations.
///
/// # Errors
///
/// Propagates model failures.
pub fn rate_table(populations: &[usize], w: u32) -> Result<Vec<RateRow>, BenchError> {
    let params = DcfParams::builder().access_mode(macgame_dcf::AccessMode::RtsCts).build()?;
    let utility = UtilityParams::default();
    let mut rows = Vec::new();
    for &n in populations {
        let game = rate_game(n, w, &params, &utility, rate_set_80211b())?;
        let fast = game.actions().len() - 1;
        let all_fast = vec![fast; n];
        let is_ne = game.is_pure_nash(&all_fast);
        // Probe welfare against a handful of degraded profiles.
        let welfare_ne = game.social_welfare(&all_fast);
        let mut optimal = is_ne;
        for k in 0..fast {
            let mut probe = all_fast.clone();
            probe[0] = k;
            if game.social_welfare(&probe) > welfare_ne {
                optimal = false;
            }
        }
        let anomaly = performance_anomaly(n, w, &params, &utility, rate_set_80211b())?;
        rows.push(RateRow {
            n,
            ne_rate_mbps: game.actions()[fast].0,
            ne_is_social_optimum: optimal,
            anomaly_damage: anomaly.damage(),
        });
    }
    Ok(rows)
}

/// Tournament standing: entrant name and total discounted payoff.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Standing {
    /// Entrant name.
    pub name: String,
    /// Total round-robin score.
    pub total: f64,
}

/// Runs the standard tournament field and returns the ranking.
///
/// # Errors
///
/// Propagates game failures.
pub fn tournament_ranking(stages: usize) -> Result<Vec<Standing>, BenchError> {
    let template = GameConfig::builder(2).discount(0.999).build()?;
    let two = GameConfig::builder(2).build()?;
    let w_star = efficient_ne(&two)?.window;
    let field: Vec<Entrant> = vec![
        Entrant::new("tft", move || Box::new(Tft::new(w_star))),
        Entrant::new("generous-tft", move || {
            // PANIC-POLICY: constant parameters are valid by construction
            Box::new(GenerousTft::try_new(w_star, 2, 0.9).expect("valid GTFT parameters"))
        }),
        Entrant::new("aggressor", move || Box::new(Constant::new((w_star / 8).max(1)))),
        Entrant::new("best-response", move || Box::new(BestResponse::new(w_star))),
    ];
    let result = round_robin(&field, &template, stages)?;
    Ok(result.ranking().into_iter().map(|(name, total)| Standing { name, total }).collect())
}

/// Runs the tournament and then replicator population dynamics over its
/// payoff matrix, returning each strategy's final population share.
///
/// # Errors
///
/// Propagates game failures.
pub fn evolutionary_shares(
    stages: usize,
    generations: usize,
) -> Result<Vec<(String, f64)>, BenchError> {
    let template = GameConfig::builder(2).discount(0.999).build()?;
    let two = GameConfig::builder(2).build()?;
    let w_star = efficient_ne(&two)?.window;
    let field: Vec<Entrant> = vec![
        Entrant::new("tft", move || Box::new(Tft::new(w_star))),
        Entrant::new("generous-tft", move || {
            // PANIC-POLICY: constant parameters are valid by construction
            Box::new(GenerousTft::try_new(w_star, 2, 0.9).expect("valid GTFT parameters"))
        }),
        Entrant::new("aggressor", move || Box::new(Constant::new((w_star / 8).max(1)))),
        Entrant::new("best-response", move || Box::new(BestResponse::new(w_star))),
    ];
    let tournament = round_robin(&field, &template, stages)?;
    let trace = replicator(&tournament, &PopulationState::uniform(field.len()), generations)?;
    Ok(trace.names.iter().cloned().zip(trace.final_state().shares.iter().copied()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_table_is_monotone_in_lambda() {
        let rows =
            delay_table(5, macgame_dcf::AccessMode::RtsCts, &[0.0, 1e-12, 1e-11, 1e-10]).unwrap();
        for pair in rows.windows(2) {
            assert!(pair[1].window <= pair[0].window, "{pair:?}");
            assert!(pair[1].delay_ms <= pair[0].delay_ms + 1e-9);
        }
    }

    #[test]
    fn delay_penalty_bites_under_rtscts() {
        // Cheap collisions make small windows genuinely low-latency: a
        // strong λ must pull the optimum clearly below W_c*.
        let rows = delay_table(5, macgame_dcf::AccessMode::RtsCts, &[0.0, 1e-9]).unwrap();
        assert!(rows[1].window < rows[0].window, "{rows:?}");
        assert!(rows[1].delay_ms < rows[0].delay_ms);
    }

    #[test]
    fn rate_table_ne_is_always_fast_and_optimal() {
        let rows = rate_table(&[3, 6], 48).unwrap();
        for row in &rows {
            assert_eq!(row.ne_rate_mbps, 11.0);
            assert!(row.ne_is_social_optimum);
            assert!(row.anomaly_damage > 0.0);
        }
    }

    #[test]
    fn evolutionary_shares_sum_to_one() {
        let shares = evolutionary_shares(15, 100).unwrap();
        assert_eq!(shares.len(), 4);
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tournament_produces_full_ranking() {
        let standings = tournament_ranking(25).unwrap();
        assert_eq!(standings.len(), 4);
        assert!(standings.windows(2).all(|p| p[0].total >= p[1].total));
    }
}
