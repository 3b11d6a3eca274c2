//! The macgame benchmark: end-to-end and per-layer measurements of the
//! serve engine (`serve-hot`, `serve-churn`) and the slot simulator
//! (`sim-slots`), single-threaded, from one closed-loop client.
//!
//! An untraced run (`trace = false`) reports the end-to-end metrics
//! ([`stats::end_to_end`]); a traced run reports the per-layer metrics
//! ([`LAYERS`]). See `README.md` beside this crate for the workloads,
//! the metric table and how to read the numbers.

use std::collections::BTreeMap;
use std::time::Instant;

pub mod plan;
pub mod serve;
pub mod sim;
pub mod stats;

use stats::{Metric, Timed};

/// Set-ups made per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;
/// A traced run fails when its stage timers cover less than this share
/// of the traced op time: the per-layer breakdown would hide a stage.
pub const MIN_STAGE_COVERAGE: f64 = 0.9;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm 64-query pool in 256-query frames: the wire path only.
    ServeHot,
    /// Seeded stream of mostly fresh queries in 64-query frames.
    ServeChurn,
    /// Fresh slot engines on four configurations.
    SimSlots,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 3] = [Workload::ServeHot, Workload::ServeChurn, Workload::SimSlots];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeChurn => "serve-churn",
            Workload::SimSlots => "sim-slots",
        }
    }

    /// The workload named `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn mix(self) -> Option<serve::Mix> {
        match self {
            Workload::ServeHot => Some(serve::Mix::Hot),
            Workload::ServeChurn => Some(serve::Mix::Churn),
            Workload::SimSlots => None,
        }
    }
}

/// Every per-layer metric and its unit, in report order. A traced run
/// of any workload reports all of them; a layer the workload does not
/// exercise reads 0.
pub const LAYERS: [(&str, &str); 31] = [
    ("frame.read_us", "us"),
    ("frame.write_us", "us"),
    ("frame.bytes_in", "bytes"),
    ("frame.bytes_out", "bytes"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("engine.handle_batch_us", "us"),
    ("engine.coalesced_frac", "frac"),
    ("reply_cache.hit_ratio", "frac"),
    ("reply_cache.evictions", "count"),
    ("queries.evaluated", "count"),
    ("queries.cold_us.wc_star", "us"),
    ("queries.cold_us.ne_interval", "us"),
    ("queries.cold_us.deviation_payoff", "us"),
    ("queries.cold_us.robustness_cell", "us"),
    ("queries.cold_us.edca_wc_star", "us"),
    ("solve_cache.hit_ratio", "frac"),
    ("solve_cache.evictions", "count"),
    ("solver.solves", "count"),
    ("solver.iterations_per_solve", "count"),
    ("solver.bisections", "count"),
    ("edca.solves", "count"),
    ("sim.engine_new_us", "us"),
    ("sim.ns_per_slot.saturated", "ns"),
    ("sim.ns_per_slot.deviant", "ns"),
    ("sim.ns_per_slot.edca", "ns"),
    ("sim.ns_per_slot.poisson", "ns"),
    ("sim.collision_frac", "frac"),
    ("sim.success_frac", "frac"),
    ("trace.stage_coverage", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// What a traced run measured.
#[derive(Debug)]
pub struct TraceReport {
    /// Per-layer values by metric name (a subset of [`LAYERS`]).
    pub layers: BTreeMap<String, f64>,
    /// Every telemetry counter the traced ops raised.
    pub counts: BTreeMap<String, u64>,
    /// Ops run (untraced and traced).
    pub attempted: u64,
    /// Ops whose output failed a check.
    pub failed: u64,
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output failed a correctness check.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The one-line JSON result: `correct`, `attempted`, `failed`,
    /// `metrics`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `workload` for about `seconds`, traced or not.
///
/// # Errors
///
/// Set-up failed, or a traced run's stage coverage fell below
/// [`MIN_STAGE_COVERAGE`].
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    if trace {
        let report = traced(workload, seed, seconds)?;
        let coverage = report
            .layers
            .get("trace.stage_coverage")
            .copied()
            .unwrap_or(0.0);
        if coverage < MIN_STAGE_COVERAGE {
            return Err(format!(
                "stage timers cover {coverage:.3} of the traced op time, below {MIN_STAGE_COVERAGE}"
            ));
        }
        let metrics = LAYERS
            .iter()
            .map(|&(name, unit)| {
                Metric::new(name, report.layers.get(name).copied().unwrap_or(0.0), unit)
            })
            .collect();
        return Ok(Outcome {
            attempted: report.attempted,
            failed: report.failed,
            metrics,
        });
    }
    let (setup_s, timed) = untraced(workload, seed, seconds)?;
    Ok(Outcome {
        attempted: timed.ops.len() as u64,
        failed: timed.failed,
        metrics: stats::end_to_end(&setup_s, &timed),
    })
}

/// A traced run of `ops` op pairs: the per-layer values and every
/// counter. Equal arguments give equal counts.
///
/// # Errors
///
/// Set-up or an oracle failed.
pub fn traced_ops(workload: Workload, seed: u64, ops: usize) -> Result<TraceReport, String> {
    match workload.mix() {
        Some(mix) => serve::run_traced(mix, seed, ops),
        None => sim::run_traced(seed, ops),
    }
}

fn traced(workload: Workload, seed: u64, seconds: f64) -> Result<TraceReport, String> {
    let ops = match workload.mix() {
        Some(mix) => serve::traced_ops(mix, seconds),
        None => sim::traced_ops(seconds),
    };
    traced_ops(workload, seed, ops)
}

/// The untraced run: the set-up durations and the timed ops.
fn untraced(workload: Workload, seed: u64, seconds: f64) -> Result<(Vec<f64>, Timed), String> {
    match workload.mix() {
        Some(mix) => {
            let mut timed = Timed::new(mix.frame_queries() as u64);
            let frames = serve::churn_frames(seconds);
            let setup_s = in_slices(
                || serve::setup(mix, seed, frames),
                |setup| serve::Checker::new(mix, seed, setup),
                |setup, checker, op| {
                    serve::run_timed(
                        setup,
                        checker,
                        mix,
                        seconds / SETUP_REPEATS as f64,
                        &mut timed,
                        op,
                    );
                },
            )?;
            Ok((setup_s, timed))
        }
        None => {
            let mut timed = Timed::new(sim::SLOTS_PER_RUN * sim::CONFIGS.len() as u64);
            let setup_s = in_slices(
                || sim::setup(seed),
                sim::Checker::new,
                |setup, checker, op| {
                    sim::run_timed(
                        setup,
                        checker,
                        seconds / SETUP_REPEATS as f64,
                        &mut timed,
                        op,
                    )
                },
            )?;
            Ok((setup_s, timed))
        }
    }
}

/// Runs the timed loop in [`SETUP_REPEATS`] slices on one set-up from
/// `make`, returning the set-up durations. Before each later slice a
/// throw-away set-up is timed too, so the set-up samples spread over the
/// run like the ops.
fn in_slices<S, C>(
    make: impl Fn() -> Result<S, String>,
    checker: impl FnOnce(&S) -> Result<C, String>,
    mut slice: impl FnMut(&S, &C, &mut usize),
) -> Result<Vec<f64>, String> {
    let timed_make = || {
        let start = Instant::now();
        make().map(|setup| (setup, start.elapsed().as_secs_f64()))
    };
    let (setup, first_s) = timed_make()?;
    let checker = checker(&setup)?;
    let mut setup_s = vec![first_s];
    let mut op = 0;
    for index in 0..SETUP_REPEATS {
        if index > 0 {
            setup_s.push(timed_make()?.1);
        }
        slice(&setup, &checker, &mut op);
    }
    Ok(setup_s)
}
