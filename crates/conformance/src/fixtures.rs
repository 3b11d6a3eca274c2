//! Deterministic builders for the golden fixtures.
//!
//! Each `*_golden()` function re-derives one fixture value from the
//! analytical model and seeded generators alone — no entropy, no
//! environment, no thread-count sensitivity — so its serialization is
//! reproducible bit-for-bit on every machine. The corresponding files
//! live under `tests/golden/` and are refreshed with `scripts/bless.sh`
//! (`UPDATE_GOLDEN=1`).

use macgame_core::detect::{
    adversarial_round_robin, cusum_roc, windowed_roc, ArenaReport, ArenaSettings, CusumRocSettings,
    DetectorTft, FaultCell, RocCurve, WindowedRocSettings,
};
use macgame_core::deviation::{
    malicious_impact, optimal_shortsighted_deviation, shortsighted_deviation, DeviationOutcome,
    MaliciousImpact,
};
use macgame_core::edca::{edca_axis_sweep, EdcaAxis, EdcaGainRow, EdcaStageMemo};
use macgame_core::search::{run_search, AnalyticProbe, SearchOutcome};
use macgame_core::strategy::Constant;
use macgame_core::tournament::Entrant;
use macgame_core::{efficient_ne, GameConfig};
use macgame_dcf::fixedpoint::{solve, SolveOptions};
use macgame_dcf::optimal::{efficient_cw_from_tau_star, ne_interval, DEFAULT_W_MAX};
use macgame_dcf::params::AccessMode;
use macgame_dcf::{
    edca_slot_stats, solve_edca, Classes, DcfParams, EdcaEquilibrium, EdcaSlotStats, EdcaTuple,
    SolutionRecord, UtilityParams,
};
use macgame_multihop::convergence::{tft_converge, ConvergenceTrace};
use macgame_multihop::Topology;
use serde::{Deserialize, Serialize};

use crate::ConformanceError;

/// TFT reaction delay used by all deviation fixtures (the deviator enjoys
/// this many stages before the neighbors' windows drop).
pub const REACTION_STAGES: u32 = 2;

/// Short-sighted discount factor `δ_s` of the Section V.D fixtures.
pub const SHORTSIGHTED_DELTA: f64 = 0.9;

/// Names of every golden fixture, in check order.
pub const FIXTURE_NAMES: [&str; 7] =
    ["fixed_point", "ne_intervals", "search", "deviation", "multihop", "edca", "detect"];

fn basic_params() -> DcfParams {
    DcfParams::default()
}

fn rtscts_params() -> Result<DcfParams, ConformanceError> {
    Ok(DcfParams::builder().access_mode(AccessMode::RtsCts).build()?)
}

fn paper_game(players: usize) -> Result<GameConfig, ConformanceError> {
    Ok(GameConfig::builder(players).build()?)
}

/// Fixed-point solutions pinned by the `fixed_point` fixture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FixedPointGolden {
    /// Basic-access profiles (homogeneous and heterogeneous).
    pub basic: Vec<SolutionRecord>,
    /// RTS/CTS profiles.
    pub rtscts: Vec<SolutionRecord>,
}

fn solve_records(
    profiles: &[Vec<u32>],
    params: &DcfParams,
) -> Result<Vec<SolutionRecord>, ConformanceError> {
    profiles
        .iter()
        .map(|windows| {
            let eq = solve(windows, params, SolveOptions::default())?;
            Ok(SolutionRecord::new(windows, &eq, params)?)
        })
        .collect()
}

/// Builds the `fixed_point` fixture: per-profile `(τ, p, S)` plus the
/// residual certificate, for the profiles the paper's Section VII sweeps
/// revolve around.
///
/// # Errors
///
/// Propagates solver failures.
pub fn fixed_point_golden() -> Result<FixedPointGolden, ConformanceError> {
    let basic_profiles: Vec<Vec<u32>> =
        vec![vec![32; 5], vec![76; 5], vec![76; 10], vec![128; 20], vec![16, 48, 96, 192]];
    let rtscts_profiles: Vec<Vec<u32>> = vec![vec![48; 8], vec![8, 48, 48, 256]];
    Ok(FixedPointGolden {
        basic: solve_records(&basic_profiles, &basic_params())?,
        rtscts: solve_records(&rtscts_profiles, &rtscts_params()?)?,
    })
}

/// One Theorem 2 interval row of the `ne_intervals` fixture.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NeIntervalRow {
    /// Number of contenders.
    pub n: usize,
    /// Access mode ("basic" or "RTS/CTS").
    pub mode: String,
    /// `W_c⁰`: break-even window.
    pub lower: u32,
    /// `W_c*`: efficient window (exact argmax).
    pub upper: u32,
    /// Interval cardinality `W_c* − W_c⁰ + 1`.
    pub count: u32,
    /// The paper's `W_c*` variant inverted from the continuous `τ_c*`
    /// (the Table II/III derivation path).
    pub w_star_tau_inversion: u32,
}

/// The `ne_intervals` fixture: Table II (basic) and Table III (RTS/CTS)
/// interval endpoints.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NeIntervalGolden {
    /// One row per `(n, mode)` pair.
    pub rows: Vec<NeIntervalRow>,
}

/// Builds the `ne_intervals` fixture.
///
/// # Errors
///
/// Propagates optimizer failures.
pub fn ne_intervals_golden() -> Result<NeIntervalGolden, ConformanceError> {
    let utility = UtilityParams::default();
    let mut rows = Vec::new();
    for (params, mode, populations) in [
        (basic_params(), "basic", &[5usize, 10, 20][..]),
        (rtscts_params()?, "RTS/CTS", &[5usize, 20][..]),
    ] {
        for &n in populations {
            let interval = ne_interval(n, &params, &utility, DEFAULT_W_MAX)?;
            let inverted = efficient_cw_from_tau_star(n, &params, DEFAULT_W_MAX)?;
            rows.push(NeIntervalRow {
                n,
                mode: mode.to_string(),
                lower: interval.lower,
                upper: interval.upper,
                count: interval.count(),
                w_star_tau_inversion: inverted.window,
            });
        }
    }
    Ok(NeIntervalGolden { rows })
}

/// One Section V.C search run of the `search` fixture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchCase {
    /// Case label.
    pub name: String,
    /// Starting window `W₀`.
    pub w0: u32,
    /// The full hill-climb outcome: `W_m`, direction, `(w, payoff)`
    /// trace, and message log.
    pub outcome: SearchOutcome,
}

/// The `search` fixture: the distributed `W_c*` search trajectory from
/// starts below, above, and at the optimum (`n = 5`, basic access,
/// analytic probe).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchGolden {
    /// The three pinned runs.
    pub cases: Vec<SearchCase>,
}

/// Builds the `search` fixture.
///
/// # Errors
///
/// Propagates game-layer failures.
pub fn search_golden() -> Result<SearchGolden, ConformanceError> {
    let game = paper_game(5)?;
    let w_star = efficient_ne(&game)?.window;
    let mut cases = Vec::new();
    for (name, w0) in [
        ("from-below".to_string(), 40),
        ("from-above".to_string(), 200),
        ("at-optimum".to_string(), w_star),
    ] {
        let mut probe = AnalyticProbe::new(game.clone());
        let outcome = run_search(&mut probe, &game, w0, 0.0)?;
        cases.push(SearchCase { name, w0, outcome });
    }
    Ok(SearchGolden { cases })
}

/// The `deviation` fixture: Section V.D short-sighted deviation payoffs
/// and Section V.E malicious-node welfare impact, all priced at the
/// efficient NE of the 5-player basic game.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviationGolden {
    /// The common window everything deviates from (`W_c*`).
    pub w_star: u32,
    /// Hand-picked short-sighted deviations (Section V.D).
    pub shortsighted: Vec<DeviationOutcome>,
    /// The best short-sighted deviation over the whole strategy space.
    pub optimal: DeviationOutcome,
    /// Malicious windows and the welfare they destroy (Section V.E).
    pub malicious: Vec<MaliciousImpact>,
}

/// Builds the `deviation` fixture.
///
/// # Errors
///
/// Propagates game-layer failures.
pub fn deviation_golden() -> Result<DeviationGolden, ConformanceError> {
    let game = paper_game(5)?;
    let w_star = efficient_ne(&game)?.window;
    let shortsighted = [w_star / 2, w_star / 4, 1]
        .into_iter()
        .map(|w_s| {
            Ok(shortsighted_deviation(&game, w_star, w_s, REACTION_STAGES, SHORTSIGHTED_DELTA)?)
        })
        .collect::<Result<Vec<_>, ConformanceError>>()?;
    let optimal =
        optimal_shortsighted_deviation(&game, w_star, REACTION_STAGES, SHORTSIGHTED_DELTA)?;
    let malicious = [1, 2, 8]
        .into_iter()
        .map(|w_mal| Ok(malicious_impact(&game, w_star, w_mal)?))
        .collect::<Result<Vec<_>, ConformanceError>>()?;
    Ok(DeviationGolden { w_star, shortsighted, optimal, malicious })
}

/// One TFT min-propagation run of the `multihop` fixture.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvergenceCase {
    /// Case label (topology + start profile).
    pub name: String,
    /// Initial window profile.
    pub initial: Vec<u32>,
    /// The full round-by-round trace.
    pub trace: ConvergenceTrace,
}

/// The `multihop` fixture: Theorem 3 convergence traces on a line, a
/// grid, a star, and a disconnected graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultihopGolden {
    /// The pinned runs.
    pub cases: Vec<ConvergenceCase>,
}

/// Builds the `multihop` fixture.
///
/// # Errors
///
/// Propagates multihop-layer failures.
pub fn multihop_golden() -> Result<MultihopGolden, ConformanceError> {
    let star = Topology::from_adjacency(vec![vec![1, 2, 3, 4], vec![], vec![], vec![], vec![]]);
    let two_islands = Topology::from_adjacency(vec![vec![1], vec![], vec![3], vec![]]);
    let runs: Vec<(&str, Topology, Vec<u32>)> = vec![
        ("line-6", Topology::line(6), vec![64, 48, 32, 80, 96, 16]),
        ("grid-3x3", Topology::grid(3, 3), vec![90, 80, 70, 60, 50, 40, 30, 20, 10]),
        ("star-5", star, vec![100, 40, 60, 80, 20]),
        ("disconnected-2x2", two_islands, vec![32, 64, 16, 128]),
    ];
    let mut cases = Vec::new();
    for (name, topology, initial) in runs {
        let trace = tft_converge(&topology, &initial)?;
        cases.push(ConvergenceCase { name: name.to_string(), initial, trace });
    }
    Ok(MultihopGolden { cases })
}

/// One solved EDCA profile of the `edca` fixture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdcaCase {
    /// Case label (what the profile exercises).
    pub name: String,
    /// Distinct class tuples, canonical order.
    pub tuples: Vec<EdcaTuple>,
    /// Node count per class.
    pub counts: Vec<usize>,
    /// Whether the profile delegates to the scalar class solver.
    pub degenerate: bool,
    /// The AIFS-thinned class-level fixed point.
    pub equilibrium: EdcaEquilibrium,
    /// Slot-process statistics (idle root, success rates, mean slot).
    pub stats: EdcaSlotStats,
}

/// One per-knob cheating-gain sweep of the `edca` fixture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdcaGainCase {
    /// The swept knob ("cw_min", "aifs", or "txop").
    pub axis: String,
    /// The sweep rows (value, deviator tuple, rates, gain).
    pub rows: Vec<EdcaGainRow>,
}

/// The `edca` fixture: EDCA product-space fixed points (degenerate,
/// heterogeneous-AIFS, TXOP-burst) with their slot statistics, plus the
/// per-knob cheating-gain surface at the 5-player efficient NE.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdcaGolden {
    /// `W_c*` of the 5-player basic game everything is anchored at.
    pub w_star: u32,
    /// The pinned profile solves.
    pub cases: Vec<EdcaCase>,
    /// The pinned gain sweeps.
    pub gains: Vec<EdcaGainCase>,
}

/// Builds the `edca` fixture.
///
/// # Errors
///
/// Propagates solver and game-layer failures.
pub fn edca_golden() -> Result<EdcaGolden, ConformanceError> {
    let params = basic_params();
    let m = params.max_backoff_stage();
    let game = paper_game(5)?;
    let w_star = efficient_ne(&game)?.window;

    let profiles: Vec<(&str, Vec<EdcaTuple>, Vec<usize>)> = vec![
        ("degenerate-n5", vec![EdcaTuple::legacy(w_star, &params)?], vec![5]),
        (
            "hetero-aifs",
            vec![EdcaTuple::new(w_star, m, 0, 1)?, EdcaTuple::new(w_star, m, 2, 1)?],
            vec![3, 2],
        ),
        (
            "txop-burst",
            vec![EdcaTuple::new(w_star, m, 0, 1)?, EdcaTuple::new(w_star, m, 0, 8)?],
            vec![3, 2],
        ),
    ];
    let mut cases = Vec::new();
    for (name, tuples, counts) in profiles {
        let profile = Classes::new(tuples, counts)?;
        let equilibrium = solve_edca(&profile, &params, SolveOptions::default())?;
        let stats = edca_slot_stats(&profile, &equilibrium, &params);
        cases.push(EdcaCase {
            name: name.to_string(),
            tuples: profile.keys().to_vec(),
            counts: profile.counts().to_vec(),
            degenerate: profile.is_degenerate(&params),
            equilibrium,
            stats,
        });
    }

    let sym = EdcaTuple::new(w_star, m, 1, 1)?;
    let memo = EdcaStageMemo::new(*game.params(), None);
    let sweeps = [
        (EdcaAxis::CwMin, vec![w_star / 4, w_star / 2, w_star]),
        (EdcaAxis::Aifs, vec![0, 1, 2]),
        (EdcaAxis::Txop, vec![1, 4, 8]),
    ];
    let mut gains = Vec::new();
    for (axis, values) in sweeps {
        let rows = edca_axis_sweep(&game, sym, axis, &values, &memo)?;
        gains.push(EdcaGainCase { axis: axis.name().to_string(), rows });
    }
    Ok(EdcaGolden { w_star, cases, gains })
}

/// The `detect` fixture: a pinned slice of the detection plane — small
/// windowed/CUSUM ROC sweeps over two fault cells and a three-population
/// adversarial arena — all seeded and thread-invariant, so the bytes pin
/// detector semantics (strict comparisons, warm-up, zero-fault zero-FP)
/// and the trial/match plans at once.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectGolden {
    /// `W_c*` of the 5-player basic game the detectors defend.
    pub w_star: u32,
    /// The undercutting window cheaters play in selfish trials.
    pub w_selfish: u32,
    /// Windowed-detector ROC curves (zero-fault and one noisy cell).
    pub windowed: Vec<RocCurve>,
    /// CUSUM ROC curve against finite-sample counter noise.
    pub cusum: RocCurve,
    /// The adversarial round robin + equilibrium-mix summary.
    pub arena: ArenaReport,
}

/// Builds the `detect` fixture. Deliberately tiny: the workload exists to
/// pin bytes, not to estimate error rates — `repro -- detect` owns the
/// real sweeps.
///
/// # Errors
///
/// Propagates solver, simulator, and game-layer failures.
pub fn detect_golden() -> Result<DetectGolden, ConformanceError> {
    let params = basic_params();
    let game = paper_game(5)?;
    let w_star = efficient_ne(&game)?.window;
    let w_selfish = (w_star / 4).max(1);
    let cells = vec![
        FaultCell::ZERO,
        FaultCell { multiplicative: 0.25, additive: 2.0, stale_prob: 0.1, drop_prob: 0.1 },
    ];

    let windowed = windowed_roc(&WindowedRocSettings {
        n: 5,
        w_ref: w_star,
        w_selfish,
        w_max: game.w_max(),
        stages: 8,
        memory: 3,
        slots_per_stage: 400,
        thresholds: vec![0.3, 0.6, 0.9],
        cells: cells.clone(),
        replications: 2,
        base_seed: 2007,
        threads: 0,
    })?;

    let cusum = cusum_roc(
        &params,
        &CusumRocSettings {
            n: 5,
            w_ref: w_star,
            w_selfish,
            stages: 8,
            slots_per_stage: 400,
            allowance: 0.005,
            thresholds: vec![0.01, 0.05],
            replications: 2,
            base_seed: 2007,
            threads: 0,
        },
    )?;

    // Validate the detector parameters once, so the factory's re-build
    // below cannot fail.
    DetectorTft::try_new(w_star, 3, 0.6, 4)?;
    let entrants = vec![
        Entrant::new("honest", move || Box::new(Constant::new(w_star))),
        Entrant::new("selfish", move || Box::new(Constant::new(w_selfish))),
        Entrant::new("detector-tft", move || {
            // PANIC-POLICY: parameters validated before the factory is built
            Box::new(DetectorTft::try_new(w_star, 3, 0.6, 4).expect("validated above"))
        }),
    ];
    let arena = adversarial_round_robin(
        &entrants,
        &game,
        &ArenaSettings {
            stages: 6,
            repetitions: 2,
            cells,
            base_seed: 2007,
            generations: 50,
            threads: 0,
        },
    )?;

    Ok(DetectGolden { w_star, w_selfish, windowed, cusum, arena })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_point_fixture_is_deterministic_and_certified() {
        let a = fixed_point_golden().unwrap();
        let b = fixed_point_golden().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.basic.len(), 5);
        assert_eq!(a.rtscts.len(), 2);
        for record in a.basic.iter().chain(&a.rtscts) {
            assert!(record.residual < 1e-9, "residual {}", record.residual);
        }
    }

    #[test]
    fn ne_intervals_fixture_lands_on_paper_values() {
        let golden = ne_intervals_golden().unwrap();
        assert_eq!(golden.rows.len(), 5);
        let basic5 = &golden.rows[0];
        assert_eq!(basic5.n, 5);
        // Table II: n = 5, basic access ⇒ W_c* ≈ 76.
        assert!(
            (70..=85).contains(&basic5.upper),
            "basic n=5 W_c* = {} out of the paper's ballpark",
            basic5.upper
        );
        assert!(basic5.lower <= basic5.upper);
        let rtscts20 = golden.rows.iter().find(|r| r.mode == "RTS/CTS" && r.n == 20).unwrap();
        // Table III: n = 20, RTS/CTS ⇒ W_c* ≈ 48 via the τ* inversion.
        assert!(
            (45..=52).contains(&rtscts20.w_star_tau_inversion),
            "rts/cts n=20 W_c* = {}",
            rtscts20.w_star_tau_inversion
        );
    }

    #[test]
    fn search_fixture_recovers_w_star_from_both_sides() {
        let golden = search_golden().unwrap();
        assert_eq!(golden.cases.len(), 3);
        let w_m = golden.cases[0].outcome.w_m;
        assert!(golden.cases.iter().all(|c| c.outcome.w_m == w_m));
        assert_eq!(golden.cases[2].w0, w_m);
    }

    #[test]
    fn deviation_fixture_shows_profitable_shortsighted_deviation() {
        let golden = deviation_golden().unwrap();
        assert!(golden.optimal.profitable(), "Section V.D: deviation must pay short-term");
        assert!(golden.optimal.w_s < golden.w_star);
        for impact in &golden.malicious {
            assert!(impact.welfare_after < impact.welfare_at_ne);
        }
    }

    #[test]
    fn edca_fixture_is_deterministic_and_shows_knob_gains() {
        let a = edca_golden().unwrap();
        let b = edca_golden().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.cases.len(), 3);
        assert!(a.cases[0].degenerate);
        assert!(a.cases[1..].iter().all(|c| !c.degenerate));
        assert_eq!(a.gains.len(), 3);
        for case in &a.gains {
            // Every sweep contains the no-op row (gain exactly 1) and a
            // row that strictly pays the selfish ward.
            assert!(case.rows.iter().any(|r| (r.gain - 1.0).abs() < 1e-12), "{}", case.axis);
            assert!(case.rows.iter().any(|r| r.gain > 1.0), "{}", case.axis);
        }
    }

    #[test]
    fn detect_fixture_is_deterministic_and_zero_fault_is_clean() {
        let a = detect_golden().unwrap();
        let b = detect_golden().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.windowed.len(), 2);
        let zero = a.windowed.iter().find(|c| c.cell.is_zero()).unwrap();
        for point in &zero.points {
            // Exact observation of honest play can never trip the
            // windowed rule — the structural invariant the plane rests on.
            assert_eq!(point.false_positives, 0, "{point:?}");
            assert_eq!(point.false_negatives, 0, "{point:?}");
        }
        assert_eq!(a.arena.tournament.names.len(), 3);
        assert!((a.arena.mix.final_shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multihop_fixture_converges_within_diameter() {
        let golden = multihop_golden().unwrap();
        let line = &golden.cases[0];
        assert_eq!(line.trace.converged_window(), Some(16));
        assert!(line.trace.rounds_needed <= 5);
        let islands = &golden.cases[3];
        assert_eq!(islands.trace.final_windows, vec![32, 32, 16, 16]);
    }
}
