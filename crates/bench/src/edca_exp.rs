//! The EDCA product-space experiment behind `repro -- edca`: the Banchs
//! per-knob cheating-gain surface, Table II degenerate-tuple consistency,
//! the `(CWmin, TXOP)` TFT deviation plane, a tuple-lattice best response,
//! and replicated simulator agreement on two genuinely-EDCA scenarios.
//!
//! Everything in the payload is a pure function of the settings — the
//! analytic sections are serial and exact, and the simulated sections fan
//! replicas out through `replicate_threads`, whose merge is bitwise
//! thread-count invariant. `artifacts/EDCA.json` is therefore byte-
//! identical at every `MACGAME_THREADS` setting; CI compares the bytes at
//! 1 and 2 workers.

use macgame_core::edca::{
    edca_axis_sweep, edca_best_response, edca_plane_ne, EdcaAxis, EdcaBestResponse, EdcaGainRow,
    EdcaLattice, EdcaPlaneCell, EdcaStageMemo,
};
use macgame_core::equilibrium::efficient_ne;
use macgame_core::queries::{evaluate_query, Query, QueryResult, SolveCaches};
use macgame_core::GameConfig;
use macgame_dcf::fixedpoint::{solve_classes, SolveOptions};
use macgame_dcf::{solve_edca, AccessMode, Classes, EdcaTuple};
use macgame_sim::{validate_edca_sweep, SweepReport};
use serde::{Deserialize, Serialize};

use crate::BenchError;

/// Workload knobs for the EDCA experiment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdcaSettings {
    /// Population for the gain surface, plane, and simulated scenarios.
    pub n: usize,
    /// Populations for the degenerate Table II consistency scan.
    pub populations: Vec<usize>,
    /// Slots per simulated replica.
    pub slots: u64,
    /// Independently seeded replicas per scenario.
    pub replications: usize,
    /// Base RNG seed.
    pub base_seed: u64,
    /// Worker threads for replica fan-out (`0` = the `MACGAME_THREADS`
    /// default). Never affects payload bytes.
    pub threads: usize,
}

impl EdcaSettings {
    /// Fast CI workload.
    #[must_use]
    pub fn quick() -> Self {
        EdcaSettings {
            n: 5,
            populations: vec![5, 10, 20],
            slots: 60_000,
            replications: 4,
            base_seed: 2007,
            threads: 0,
        }
    }

    /// Paper-strength workload.
    #[must_use]
    pub fn full() -> Self {
        EdcaSettings {
            n: 5,
            populations: vec![5, 10, 20, 50],
            slots: 240_000,
            replications: 8,
            base_seed: 2007,
            threads: 0,
        }
    }
}

/// One knob's slice of the cheating-gain surface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisSurface {
    /// The swept knob.
    pub axis: String,
    /// Gain rows in sweep order.
    pub rows: Vec<EdcaGainRow>,
}

/// One population's degenerate-tuple consistency row: the EDCA machinery
/// pinned to `(W, m, 0, 1)` must reproduce the scalar Table II scan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegenerateRow {
    /// Population.
    pub n: usize,
    /// `W_c*` from the scalar optimizer.
    pub w_star_scalar: u32,
    /// `W_c*` from the `EdcaWcStar` query at `txop = 1`.
    pub w_star_edca: u32,
    /// Per-node utility rate from the scalar optimizer.
    pub utility_scalar: f64,
    /// Per-node utility rate from the EDCA query.
    pub utility_edca: f64,
    /// Whether the two windows agree exactly.
    pub window_equal: bool,
    /// Whether the two utilities agree bitwise.
    pub utility_bitwise: bool,
    /// Whether `solve_edca` on the degenerate profile reproduces the
    /// class solver's `τ` vector bitwise at `W_c*`.
    pub tau_bitwise: bool,
}

/// One discount setting's `(CWmin, TXOP)` TFT-priced deviation plane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlaneSection {
    /// The deviator's discount factor.
    pub delta_s: f64,
    /// TFT reaction lag in stages.
    pub reaction_stages: u32,
    /// Grid cells in `cw_mins × txops` order.
    pub cells: Vec<EdcaPlaneCell>,
    /// Number of cells where deviating strictly profits.
    pub profitable_cells: usize,
}

/// One replicated simulator-agreement scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimScenario {
    /// Scenario label.
    pub name: String,
    /// The simulated tuple profile.
    pub tuples: Vec<EdcaTuple>,
    /// The replicated model-vs-measurement comparison.
    pub report: SweepReport,
    /// Worst per-node relative `τ̂` error of the replica mean.
    pub max_tau_error: f64,
    /// Worst per-node relative `p̂` error of the replica mean.
    pub max_p_error: f64,
    /// Relative error of the mean `Ŝ`.
    pub throughput_error: f64,
}

/// The full `artifacts/EDCA.json` payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdcaPayload {
    /// The workload that produced this payload.
    pub settings: EdcaSettings,
    /// The compliant crowd's tuple for the gain surface and lattice
    /// search (`AIFS = 1` so the AIFS knob has a selfish direction).
    pub baseline: EdcaTuple,
    /// Per-knob cheating-gain slices at the baseline.
    pub gain_surface: Vec<AxisSurface>,
    /// The stage-rate argmax over the candidate tuple lattice.
    pub best_response: EdcaBestResponse,
    /// Degenerate-tuple consistency against the scalar Table II scan.
    pub degenerate: Vec<DegenerateRow>,
    /// TFT-priced `(CWmin, TXOP)` planes at a myopic and a patient
    /// discount.
    pub plane: Vec<PlaneSection>,
    /// Replicated simulator agreement on heterogeneous-AIFS and
    /// TXOP-burst scenarios.
    pub sim: Vec<SimScenario>,
}

/// Runs the EDCA experiment.
///
/// # Errors
///
/// Propagates model, game, and simulator failures.
pub fn run_edca(settings: &EdcaSettings) -> Result<EdcaPayload, BenchError> {
    let game = GameConfig::builder(settings.n).build()?;
    let params = *game.params();
    let m = params.max_backoff_stage();
    let w_star = efficient_ne(&game)?.window;
    let memo = EdcaStageMemo::new(*game.params(), None);

    // ── Per-knob cheating-gain surface (Banchs-style) ──────────────────
    let baseline = EdcaTuple::new(w_star, m, 1, 1)?;
    let quarter = (w_star / 4).max(1);
    let half = (w_star / 2).max(1);
    let axes: [(EdcaAxis, Vec<u32>); 4] = [
        (EdcaAxis::CwMin, vec![quarter, half, w_star, w_star * 2]),
        (EdcaAxis::StageCap, vec![0, 1, 3, m]),
        (EdcaAxis::Aifs, vec![0, 1, 2, 4]),
        (EdcaAxis::Txop, vec![1, 2, 4, 8, 16]),
    ];
    let mut gain_surface = Vec::with_capacity(axes.len());
    for (axis, values) in &axes {
        gain_surface.push(AxisSurface {
            axis: axis.name().to_string(),
            rows: edca_axis_sweep(&game, baseline, *axis, values, &memo)?,
        });
    }

    // ── Tuple-lattice best response against the compliant crowd ────────
    let lattice = EdcaLattice {
        cw_mins: vec![quarter, half, w_star],
        stage_caps: vec![1, m],
        aifs: vec![0, 1],
        txops: vec![1, 4, 8],
    };
    let best_response = edca_best_response(&game, baseline, &lattice, &memo)?;

    // ── Degenerate tuples must reproduce the scalar Table II scan ──────
    let caches = SolveCaches::with_capacity(1024)?;
    let mut degenerate = Vec::with_capacity(settings.populations.len());
    for &n in &settings.populations {
        let g = GameConfig::builder(n).build()?;
        let scalar = efficient_ne(&g)?;
        let query =
            Query::EdcaWcStar { players: n, mode: AccessMode::Basic, txop: 1, w_max: g.w_max() };
        let QueryResult::EdcaWcStar { window, utility, .. } = evaluate_query(&query, &caches)?
        else {
            return Err(BenchError::Game(macgame_core::GameError::InvalidConfig(
                "EdcaWcStar query answered with a foreign variant".into(),
            )));
        };
        let profile = Classes::new(vec![EdcaTuple::legacy(scalar.window, &params)?], vec![n])?;
        let edca_eq = solve_edca(&profile, &params, SolveOptions::default())?;
        let class_eq = solve_classes(
            &Classes::new(vec![scalar.window], vec![n])?,
            &params,
            SolveOptions::default(),
        )?;
        degenerate.push(DegenerateRow {
            n,
            w_star_scalar: scalar.window,
            w_star_edca: window,
            utility_scalar: scalar.utility,
            utility_edca: utility,
            window_equal: window == scalar.window,
            utility_bitwise: utility.to_bits() == scalar.utility.to_bits(),
            tau_bitwise: edca_eq
                .taus
                .iter()
                .zip(&class_eq.taus)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
        });
    }

    // ── The (CWmin, TXOP) TFT deviation plane ───────────────────────────
    let sym = EdcaTuple::legacy(w_star, &params)?;
    let cw_mins = [quarter, half, w_star, w_star * 2];
    let txops = [1u32, 2, 4, 8];
    let mut plane = Vec::new();
    for &(delta_s, reaction_stages) in &[(0.0f64, 1u32), (0.99, 1)] {
        let cells = edca_plane_ne(&game, sym, &cw_mins, &txops, reaction_stages, delta_s, &memo)?;
        let profitable_cells = cells.iter().filter(|c| c.profitable).count();
        plane.push(PlaneSection { delta_s, reaction_stages, cells, profitable_cells });
    }

    // ── Replicated simulator agreement on two EDCA scenarios ───────────
    // The slot engine draws backoff chains from the ambient stage cap, so
    // both scenarios keep `stage_cap = m`.
    let mut hetero_aifs = vec![EdcaTuple::legacy(w_star, &params)?; settings.n];
    if let Some(last) = hetero_aifs.last_mut() {
        last.aifs = 1;
    }
    let burst = vec![EdcaTuple::new(w_star, m, 0, 4)?; settings.n];
    let mut sim = Vec::new();
    for (name, tuples) in [("hetero-aifs", hetero_aifs), ("txop-burst", burst)] {
        let report = validate_edca_sweep(
            &tuples,
            &params,
            settings.slots,
            settings.replications,
            settings.base_seed,
            settings.threads,
        )?;
        sim.push(SimScenario {
            name: name.to_string(),
            tuples,
            max_tau_error: report.max_tau_error(),
            max_p_error: report.max_p_error(),
            throughput_error: report.throughput_relative_error(),
            report,
        });
    }

    Ok(EdcaPayload {
        settings: settings.clone(),
        baseline,
        gain_surface,
        best_response,
        degenerate,
        plane,
        sim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload() -> EdcaPayload {
        let settings = EdcaSettings { slots: 20_000, replications: 2, ..EdcaSettings::quick() };
        run_edca(&settings).unwrap()
    }

    #[test]
    fn payload_is_internally_consistent() {
        let p = payload();
        assert_eq!(p.gain_surface.len(), 4);
        for surface in &p.gain_surface {
            assert!(!surface.rows.is_empty(), "{} slice is empty", surface.axis);
            for row in &surface.rows {
                assert!(row.gain.is_finite() && row.gain > 0.0);
            }
        }
        // Every degenerate row reproduces the scalar scan exactly.
        for row in &p.degenerate {
            assert!(row.window_equal, "n = {}: {row:?}", row.n);
            assert!(row.utility_bitwise, "n = {}: {row:?}", row.n);
            assert!(row.tau_bitwise, "n = {}: {row:?}", row.n);
        }
        // The lattice's most selfish corner wins with a real gain.
        assert!(p.best_response.gain > 1.0);
        // Myopic cheating profits somewhere; a patient deviator holds.
        assert!(p.plane[0].profitable_cells > 0);
        assert!(p.plane[1].profitable_cells <= p.plane[0].profitable_cells);
    }

    #[test]
    fn payload_bytes_are_reproducible_and_thread_invariant() {
        let settings = EdcaSettings { slots: 20_000, replications: 2, ..EdcaSettings::quick() };
        let base = serde_json::to_string(&run_edca(&settings).unwrap()).unwrap();
        for threads in [1usize, 2, 8] {
            let pinned = EdcaSettings { threads, ..settings.clone() };
            let mut other = run_edca(&pinned).unwrap();
            // The thread knob is workload metadata, not a result; pin it
            // back so the byte comparison covers every computed section.
            other.settings.threads = settings.threads;
            let bytes = serde_json::to_string(&other).unwrap();
            assert_eq!(bytes, base, "payload bytes changed at threads = {threads}");
        }
    }
}
