//! The `repro -- robustness` experiment: deterministic fault injection
//! across the workspace, answering "how much imperfection can the paper's
//! equilibria absorb?".
//!
//! Four sections, all seed-deterministic and fully serial (so the
//! artifact bytes are identical at every `MACGAME_THREADS` setting):
//!
//! * **GTFT grid** — Generous TFT players at `W_c*` behind a noisy
//!   observation channel: which `(r₀, β)` parameterizations still hold
//!   the efficient window as the estimation noise grows (the paper's
//!   Section IV motivation, quantified)?
//! * **Channel sweep** — the slot engine under injected channel errors
//!   and capture effects, including the zero-rate bitwise-identity gate.
//! * **Churn** — TFT min-propagation over a mesh while nodes leave, join
//!   and reset, with per-event re-convergence metrics.
//! * **Solver ladder** — `solve_robust` on benign and adversarial
//!   profiles, checking the fallback rungs agree with the plain solver
//!   wherever it converges.

use std::sync::{Arc, Mutex};

use macgame_core::evaluator::{AnalyticalEvaluator, NoisyObservationEvaluator, StageEvaluator};
use macgame_core::strategy::{GenerousTft, Strategy};
use macgame_core::{GameConfig, RepeatedGame};
use macgame_dcf::fixedpoint::{solve, solve_robust, SolveOptions};
use macgame_dcf::optimal::efficient_cw;
use macgame_faults::{ChannelFaults, ChurnSchedule, ObservationFaults};
use macgame_multihop::{churn_converge, Topology};
use macgame_sim::{Engine, SimConfig};
use macgame_telemetry::{self as telemetry, CollectingRecorder};
use serde::Serialize;

use crate::BenchError;

/// Tuning knobs for the robustness workload.
#[derive(Debug, Clone, Copy)]
pub struct RobustnessSettings {
    /// Shrink the grids and slot counts for CI-speed runs.
    pub quick: bool,
}

impl RobustnessSettings {
    /// Full-size workload.
    #[must_use]
    pub fn full() -> Self {
        RobustnessSettings { quick: false }
    }

    /// CI-speed workload.
    #[must_use]
    pub fn quick() -> Self {
        RobustnessSettings { quick: true }
    }
}

/// Serializes robustness runs within one process: the telemetry facade is
/// a process-global, so concurrent runs (e.g. parallel `#[test]`s) would
/// pollute each other's counters.
static ROBUSTNESS_LOCK: Mutex<()> = Mutex::new(());

/// One cell of the GTFT `(r₀, β) × noise` convergence map.
#[derive(Debug, Clone, Serialize)]
pub struct GtftCell {
    /// GTFT averaging memory `r₀`.
    pub r0: usize,
    /// GTFT tolerance `β`.
    pub beta: f64,
    /// Multiplicative observation-noise amplitude.
    pub noise: f64,
    /// Whether every player still played `W_c*` at the final stage.
    pub held: bool,
    /// Smallest window played at the final stage.
    pub final_min: u32,
    /// Stages simulated.
    pub stages: usize,
}

/// One operating point of the channel-fault sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ChannelPoint {
    /// Injected per-success channel-error probability.
    pub error_rate: f64,
    /// Injected per-collision capture probability.
    pub capture_prob: f64,
    /// Slots delivered (captures included).
    pub success: u64,
    /// Slots lost to collision (channel errors included).
    pub collision: u64,
    /// Idle slots.
    pub idle: u64,
    /// Lone transmissions corrupted by the fault plane.
    pub injected_errors: u64,
    /// Collisions resolved by capture.
    pub injected_captures: u64,
}

/// One seeded churn run over the mesh.
#[derive(Debug, Clone, Serialize)]
pub struct ChurnRun {
    /// Schedule seed.
    pub seed: u64,
    /// Events the schedule fired.
    pub events: usize,
    /// Propagation rounds run.
    pub rounds_run: usize,
    /// Whether the dynamics settled after the last event.
    pub settled: bool,
    /// Slowest per-event re-convergence, in rounds.
    pub max_reconvergence_rounds: Option<usize>,
    /// Common window of the surviving nodes, if uniform.
    pub converged_window: Option<u32>,
}

/// One profile through the solver fallback ladder.
#[derive(Debug, Clone, Serialize)]
pub struct LadderPoint {
    /// The window profile solved.
    pub profile: Vec<u32>,
    /// Iteration budget used (`"default"` or `"starved"`).
    pub budget: String,
    /// Rung that produced the equilibrium.
    pub rung: String,
    /// Exhausted-rung diagnostics carried on the result.
    pub retries: usize,
    /// Whether the plain solver also converged on this profile.
    pub plain_converged: bool,
    /// Largest per-node |τ| gap versus the plain solve, when available.
    pub max_tau_gap: Option<f64>,
}

/// Everything `repro -- robustness` measures, serialized to
/// `artifacts/ROBUSTNESS.json`.
#[derive(Debug, Clone, Serialize)]
pub struct RobustnessReport {
    /// Whether the quick grids were used.
    pub quick: bool,
    /// The efficient window the GTFT section defends.
    pub w_star: u32,
    /// Fault-rate-0 engine runs are bitwise identical to the no-fault
    /// engine (the zero-cost guarantee of the fault plane).
    pub zero_rate_bitwise_identical: bool,
    /// A no-op observation channel returns the bare evaluator's outcome
    /// verbatim.
    pub noop_observation_identical: bool,
    /// The GTFT `(r₀, β) × noise` convergence map.
    pub gtft_grid: Vec<GtftCell>,
    /// The channel error/capture sweep.
    pub channel_sweep: Vec<ChannelPoint>,
    /// The churn re-convergence runs.
    pub churn: Vec<ChurnRun>,
    /// The solver-ladder agreement checks.
    pub ladder: Vec<LadderPoint>,
    /// Every telemetry counter the workload recorded, sorted by name
    /// (deterministic; wall-clock timings are deliberately excluded).
    pub telemetry_counters: Vec<(String, u64)>,
}

/// Runs the full robustness workload and returns its report.
///
/// # Errors
///
/// Propagates failures from any section.
pub fn run_robustness(settings: RobustnessSettings) -> Result<RobustnessReport, BenchError> {
    let _guard = ROBUSTNESS_LOCK.lock().expect("robustness lock poisoned"); // PANIC-POLICY: lock poisoning means a panic is already unwinding; propagating it is correct
    let recorder = Arc::new(CollectingRecorder::new());
    telemetry::set_recorder(recorder.clone());
    let result = run_sections(settings);
    telemetry::clear_recorder();
    let mut report = result?;
    report.telemetry_counters = recorder.snapshot().counters.into_iter().collect();
    Ok(report)
}

fn run_sections(settings: RobustnessSettings) -> Result<RobustnessReport, BenchError> {
    let n = 5usize;
    let game = GameConfig::builder(n).build()?;
    let w_star = efficient_cw(n, game.params(), game.utility(), game.w_max())?.window;

    let noop_observation_identical = noop_observation_check(&game)?;
    let gtft_grid = gtft_grid(&game, w_star, settings.quick)?;
    let (channel_sweep, zero_rate_bitwise_identical) =
        channel_sweep(&game, w_star, settings.quick)?;
    let churn = churn_runs(settings.quick)?;
    let ladder = ladder_points(&game)?;

    Ok(RobustnessReport {
        quick: settings.quick,
        w_star,
        zero_rate_bitwise_identical,
        noop_observation_identical,
        gtft_grid,
        channel_sweep,
        churn,
        ladder,
        telemetry_counters: Vec::new(),
    })
}

/// Section gate: a no-op observation channel must be invisible, bitwise.
fn noop_observation_check(game: &GameConfig) -> Result<bool, BenchError> {
    let n = game.player_count();
    let mut bare = AnalyticalEvaluator::new(game.clone());
    let mut wrapped = NoisyObservationEvaluator::new(
        AnalyticalEvaluator::new(game.clone()),
        ObservationFaults::noop(),
        n,
        game.w_max(),
    );
    let mut identical = true;
    for profile in [vec![76u32; n], vec![16, 64, 256, 128, 32]] {
        identical &= bare.evaluate(&profile)? == wrapped.evaluate(&profile)?;
    }
    Ok(identical)
}

/// Section A: map which GTFT parameterizations hold `W_c*` under noise.
fn gtft_grid(game: &GameConfig, w_star: u32, quick: bool) -> Result<Vec<GtftCell>, BenchError> {
    let n = game.player_count();
    let (r0s, betas, noises, stages): (Vec<usize>, Vec<f64>, Vec<f64>, usize) = if quick {
        (vec![1, 3], vec![0.7, 0.9], vec![0.1, 0.3], 12)
    } else {
        (vec![1, 2, 4], vec![0.6, 0.75, 0.9, 0.98], vec![0.05, 0.1, 0.2, 0.3], 25)
    };
    let mut cells = Vec::new();
    for &r0 in &r0s {
        for &beta in &betas {
            for (k, &noise) in noises.iter().enumerate() {
                let faults =
                    ObservationFaults::noise(noise, 40 + k as u64).map_err(BenchError::from)?;
                let evaluator = NoisyObservationEvaluator::new(
                    AnalyticalEvaluator::new(game.clone()),
                    faults,
                    n,
                    game.w_max(),
                );
                let players: Vec<Box<dyn Strategy>> = (0..n)
                    .map(|_| {
                        GenerousTft::try_new(w_star, r0, beta)
                            .map(|s| Box::new(s) as Box<dyn Strategy>)
                    })
                    .collect::<Result<_, _>>()?;
                let mut rg = RepeatedGame::new(game.clone(), players, Box::new(evaluator))?;
                rg.play(stages)?;
                let last = rg.history().last().expect("stages played"); // PANIC-POLICY: invariant: stages played
                cells.push(GtftCell {
                    r0,
                    beta,
                    noise,
                    held: last.windows.iter().all(|&w| w == w_star),
                    final_min: *last.windows.iter().min().expect("nonempty profile"), // PANIC-POLICY: invariant: nonempty profile
                    stages,
                });
            }
        }
    }
    Ok(cells)
}

/// Section B: the slot engine under channel-error/capture injection, plus
/// the zero-rate identity gate.
fn channel_sweep(
    game: &GameConfig,
    w_star: u32,
    quick: bool,
) -> Result<(Vec<ChannelPoint>, bool), BenchError> {
    let n = game.player_count();
    let slots = if quick { 20_000 } else { 200_000 };
    let config = SimConfig::builder()
        .params(*game.params())
        .utility(*game.utility())
        .symmetric(n, w_star)
        .seed(2007)
        .build()?;

    // Zero-rate gate: a noop fault config must be bitwise invisible.
    let identity_slots = slots / 4;
    let plain_report = Engine::new(&config).run_slots(identity_slots);
    let noop_report =
        Engine::with_faults(&config, ChannelFaults::noop())?.run_slots(identity_slots);
    let zero_rate_identical = plain_report == noop_report;

    let grid = [(0.0, 0.0), (0.05, 0.0), (0.2, 0.0), (0.0, 0.5), (0.1, 0.25)];
    let mut points = Vec::new();
    for &(error_rate, capture_prob) in &grid {
        let faults = ChannelFaults::new(error_rate, capture_prob, 9).map_err(BenchError::from)?;
        let mut engine = Engine::with_faults(&config, faults)?;
        let report = engine.run_slots(slots);
        points.push(ChannelPoint {
            error_rate,
            capture_prob,
            success: report.channel.success,
            collision: report.channel.collision,
            idle: report.channel.idle,
            injected_errors: engine.channel_error_count(),
            injected_captures: engine.capture_count(),
        });
    }
    Ok((points, zero_rate_identical))
}

/// Section C: churn over a 4×4 mesh with seeded random schedules.
fn churn_runs(quick: bool) -> Result<Vec<ChurnRun>, BenchError> {
    let topology = Topology::grid(4, 4);
    let nodes = topology.len();
    let initial: Vec<u32> = (0..nodes).map(|i| 20 + 7 * i as u32).collect();
    let seeds: Vec<u64> = if quick { vec![1, 2] } else { vec![1, 2, 3, 4, 5] };
    let mut runs = Vec::new();
    for &seed in &seeds {
        let schedule =
            ChurnSchedule::random(nodes, 40, 0.25, 128, seed).map_err(BenchError::from)?;
        let trace = churn_converge(&topology, &initial, &schedule)?;
        runs.push(ChurnRun {
            seed,
            events: schedule.events().len(),
            rounds_run: trace.rounds_run(),
            settled: trace.settled,
            max_reconvergence_rounds: trace.max_reconvergence_rounds(),
            converged_window: trace.converged_window(),
        });
    }
    Ok(runs)
}

/// Section D: the solver fallback ladder versus the plain solver.
fn ladder_points(game: &GameConfig) -> Result<Vec<LadderPoint>, BenchError> {
    let params = game.params();
    let profiles: Vec<Vec<u32>> = vec![
        vec![76; 5],
        vec![16, 64, 256],
        vec![8, 16, 32, 64, 128],
        vec![1, 1024, 1, 512],
        vec![2; 10],
    ];
    let mut points = Vec::new();
    for profile in &profiles {
        points.push(ladder_point(profile, params, SolveOptions::default(), "default")?);
    }
    // Starve the iterative rungs so the bisection safe mode must carry a
    // profile the plain solver handles easily — the diagnostics path.
    let starved = SolveOptions { max_iterations: 1, ..SolveOptions::default() };
    points.push(ladder_point(&[16, 64, 256], params, starved, "starved")?);
    Ok(points)
}

fn ladder_point(
    profile: &[u32],
    params: &macgame_dcf::DcfParams,
    options: SolveOptions,
    budget: &str,
) -> Result<LadderPoint, BenchError> {
    let robust = solve_robust(profile, params, options)?;
    let plain = solve(profile, params, SolveOptions::default());
    let (plain_converged, max_tau_gap) = match plain {
        Ok(eq) => {
            let gap = eq
                .taus
                .iter()
                .zip(&robust.equilibrium.taus)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            (true, Some(gap))
        }
        Err(_) => (false, None),
    };
    Ok(LadderPoint {
        profile: profile.to_vec(),
        budget: budget.to_string(),
        rung: robust.rung.to_string(),
        retries: robust.attempts.len(),
        plain_converged,
        max_tau_gap,
    })
}

/// Rows of the human-readable robustness summary.
#[must_use]
pub fn robustness_table(report: &RobustnessReport) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    rows.push(vec![
        "gate".into(),
        "zero-rate engine bitwise identity".into(),
        report.zero_rate_bitwise_identical.to_string(),
    ]);
    rows.push(vec![
        "gate".into(),
        "noop observation identity".into(),
        report.noop_observation_identical.to_string(),
    ]);
    let held = report.gtft_grid.iter().filter(|c| c.held).count();
    rows.push(vec![
        "gtft".into(),
        format!("cells holding W_c* = {}", report.w_star),
        format!("{held}/{}", report.gtft_grid.len()),
    ]);
    for p in &report.channel_sweep {
        rows.push(vec![
            "channel".into(),
            format!("err={:.2} cap={:.2}", p.error_rate, p.capture_prob),
            format!(
                "S={} C={} injected {}E/{}C",
                p.success, p.collision, p.injected_errors, p.injected_captures
            ),
        ]);
    }
    for r in &report.churn {
        rows.push(vec![
            "churn".into(),
            format!("seed {}", r.seed),
            format!(
                "{} events, {} rounds, settled={}, worst reconvergence {:?}",
                r.events, r.rounds_run, r.settled, r.max_reconvergence_rounds
            ),
        ]);
    }
    for l in &report.ladder {
        rows.push(vec![
            "ladder".into(),
            format!("{:?} ({})", l.profile, l.budget),
            format!("rung={} retries={} gap={:?}", l.rung, l.retries, l.max_tau_gap),
        ]);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_constructors_differ_only_in_quick() {
        assert!(RobustnessSettings::quick().quick);
        assert!(!RobustnessSettings::full().quick);
    }
}
