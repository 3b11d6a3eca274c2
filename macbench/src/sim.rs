//! The `sim-slots` workload: the slot engine on four configurations that
//! cover the saturated, AIFS/TXOP and Poisson branches of `Engine::step`.
//!
//! One op builds a fresh [`Engine`] per configuration, each seeded by
//! the op index, and runs it for [`SLOTS_PER_RUN`] slots.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use macgame_dcf::fixedpoint::solve_symmetric;
use macgame_dcf::optimal::DEFAULT_W_MAX;
use macgame_dcf::{efficient_cw, DcfParams, UtilityParams};
use macgame_sim::{Engine, SimConfig, SimConfigBuilder, StageReport, TrafficModel};
use macgame_telemetry::{self as telemetry, CollectingRecorder};

use crate::plan::Rng;
use crate::stats::{ratio, us_since, Timed};
use crate::TraceReport;

/// Slots each configuration runs per op: short enough that a run's
/// fastest windows hold the 1000 ops a p99 needs.
pub const SLOTS_PER_RUN: u64 = 5_000;
/// Allowed relative distance between the homogeneous configuration's
/// mean τ̂ and the analytic fixed point `solve_symmetric(10, W*)`. At
/// 5k slots τ̂ rests on ~540 attempts (W* = 166, τ = 0.0108). Over
/// 20 000 seeds its relative error had mean −0.15 %, standard deviation
/// 3.2 % and worst case 14.5 %; 25 % is about eight standard deviations.
pub const TAU_TOLERANCE: f64 = 0.25;
/// Traced op pairs per second of run.
const TRACED_PER_S: f64 = 200.0;

/// The four configurations, in metric order.
pub const CONFIGS: [&str; 4] = ["saturated", "deviant", "edca", "poisson"];

/// Set-up: the configurations, with their windows at the efficient NE.
#[derive(Debug)]
pub struct Setup {
    builders: Vec<SimConfigBuilder>,
    seed: u64,
}

/// Computes `W*` for n = 10 and n = 20 and builds the four
/// configurations:
/// * `saturated`: 10 saturated nodes at `W*(10)`;
/// * `deviant`: one node at W = 8 among 19 at `W*(20)`;
/// * `edca`: 10 nodes at `W*(10)`, half with AIFS +2 slots and 4-frame TXOP;
/// * `poisson`: 10 nodes at `W*(10)` with 4 packets/s Poisson arrivals
///   each (about 40 % of the channel).
///
/// # Errors
///
/// The analytic optimum or a configuration was rejected.
pub fn setup(seed: u64) -> Result<Setup, String> {
    let params = DcfParams::default();
    let utility = UtilityParams::default();
    let w_star = |n: usize| {
        efficient_cw(n, &params, &utility, DEFAULT_W_MAX)
            .map(|ne| ne.window)
            .map_err(|e| e.to_string())
    };
    let (w10, w20) = (w_star(10)?, w_star(20)?);

    let mut saturated = SimConfig::builder();
    saturated.params(params).utility(utility).symmetric(10, w10);
    let mut deviant = saturated.clone();
    deviant.windows(
        std::iter::once(8)
            .chain(std::iter::repeat(w20).take(19))
            .collect(),
    );
    let mut edca = saturated.clone();
    edca.aifs([0, 2].repeat(5)).txop([1, 4].repeat(5));
    let mut poisson = saturated.clone();
    poisson.traffic(TrafficModel::Poisson {
        packets_per_second: 4.0,
    });
    let builders = vec![saturated, deviant, edca, poisson];
    for builder in &builders {
        builder.build().map_err(|e| e.to_string())?;
    }
    Ok(Setup { builders, seed })
}

impl Setup {
    /// Configuration `k` of op `op`, seeded by the op index.
    fn config(&self, op: usize, k: usize) -> SimConfig {
        let seed = Rng::new(self.seed, (op * CONFIGS.len() + k) as u64).next_u64();
        self.builders[k]
            .clone()
            .seed(seed)
            .build()
            .expect("validated in setup")
    }
}

/// Checks every run of an op outside the timed region.
#[derive(Debug)]
pub struct Checker {
    tau: f64,
}

impl Checker {
    /// The checker for `setup`: the analytic τ of the homogeneous
    /// configuration.
    ///
    /// # Errors
    ///
    /// The fixed point was rejected.
    pub fn new(setup: &Setup) -> Result<Self, String> {
        let config = setup.config(0, 0);
        let point = solve_symmetric(config.node_count(), config.windows()[0], config.params())
            .map_err(|e| e.to_string())?;
        Ok(Checker { tau: point.tau })
    }

    /// Whether the four reports of one op hold their invariants: every
    /// slot is idle, a success or a collision; successes match the
    /// nodes' own counts; and the homogeneous τ̂ is near the fixed point.
    #[must_use]
    pub fn check(&self, reports: &[StageReport]) -> bool {
        let slots_ok = reports.iter().all(|r| {
            let c = r.channel;
            c.idle + c.success + c.collision == SLOTS_PER_RUN
                && r.node_stats.iter().map(|s| s.successes).sum::<u64>() == c.success
        });
        let saturated = &reports[0];
        let tau_hat = (0..saturated.node_count())
            .map(|i| saturated.tau_hat(i))
            .sum::<f64>()
            / saturated.node_count() as f64;
        slots_ok && ((tau_hat - self.tau) / self.tau).abs() <= TAU_TOLERANCE
    }
}

/// Per-stage sums (µs) of traced ops.
#[derive(Debug, Default)]
struct Stages {
    engine_new: f64,
    engines: u64,
    run: [f64; 4],
    op: f64,
}

/// One op; with `stages`, times `Engine::new` and each `run_slots`.
fn op(setup: &Setup, op: usize, mut stages: Option<&mut Stages>) -> Vec<StageReport> {
    let outer = Instant::now();
    let mut reports = Vec::with_capacity(CONFIGS.len());
    for k in 0..CONFIGS.len() {
        let config = setup.config(op, k);
        let t = Instant::now();
        let mut engine = Engine::new(&config);
        let built = us_since(t);
        let t = Instant::now();
        reports.push(engine.run_slots(SLOTS_PER_RUN));
        if let Some(stages) = stages.as_deref_mut() {
            stages.engine_new += built;
            stages.engines += 1;
            stages.run[k] += us_since(t);
        }
    }
    if let Some(stages) = stages {
        stages.op += us_since(outer);
    }
    reports
}

/// The untraced loop: ops from `*index` on until `seconds` pass.
pub fn run_timed(
    setup: &Setup,
    checker: &Checker,
    seconds: f64,
    timed: &mut Timed,
    index: &mut usize,
) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let start = Instant::now();
        let reports = op(setup, *index, None);
        timed.record(start);
        if !checker.check(&reports) {
            timed.failed += 1;
        }
        *index += 1;
    }
}

/// Op pairs a traced run of `seconds` makes.
#[must_use]
pub fn traced_ops(seconds: f64) -> usize {
    ((seconds * TRACED_PER_S).ceil() as usize).max(1)
}

/// The traced run: `ops` pairs, each op run once untraced and once with
/// stage timers and a `CollectingRecorder` installed.
///
/// # Errors
///
/// Set-up or the checker's fixed point failed.
pub fn run_traced(seed: u64, ops: usize) -> Result<TraceReport, String> {
    let setup = setup(seed)?;
    let checker = Checker::new(&setup)?;
    let recorder = Arc::new(CollectingRecorder::new());
    let mut stages = Stages::default();
    let (mut untraced_us, mut failed) = (0.0, 0);
    for index in 0..ops {
        let start = Instant::now();
        let plain = op(&setup, index, None);
        untraced_us += us_since(start);

        telemetry::set_recorder(recorder.clone());
        let traced = op(&setup, index, Some(&mut stages));
        telemetry::clear_recorder();

        if !(checker.check(&plain) && plain == traced) {
            failed += 1;
        }
    }
    let snapshot = recorder.snapshot();
    let slots = snapshot.counter("sim.engine.slots") as f64;
    let mut layers = BTreeMap::new();
    layers.insert(
        "sim.engine_new_us".to_owned(),
        ratio(stages.engine_new, stages.engines as f64),
    );
    let runs_per_config = ops as f64 * SLOTS_PER_RUN as f64;
    for (name, run_us) in CONFIGS.iter().zip(stages.run) {
        layers.insert(
            format!("sim.ns_per_slot.{name}"),
            ratio(run_us * 1e3, runs_per_config),
        );
    }
    layers.insert(
        "sim.collision_frac".to_owned(),
        ratio(snapshot.counter("sim.engine.collisions") as f64, slots),
    );
    layers.insert(
        "sim.success_frac".to_owned(),
        ratio(snapshot.counter("sim.engine.successes") as f64, slots),
    );
    let staged = stages.engine_new + stages.run.iter().sum::<f64>();
    layers.insert("trace.stage_coverage".to_owned(), ratio(staged, stages.op));
    layers.insert(
        "trace.overhead_frac".to_owned(),
        ratio(stages.op, untraced_us) - 1.0,
    );
    Ok(TraceReport {
        layers,
        counts: snapshot.counters,
        attempted: 2 * ops as u64,
        failed,
    })
}
