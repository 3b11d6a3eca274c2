//! Tables I–III of the paper.
//!
//! * Table I — the network parameters (rendered from the defaults so the
//!   code, not prose, is the source of truth).
//! * Tables II/III — the efficient NE `W_c*` per population and access
//!   mode, from three routes: the exact analytic argmax, the paper's
//!   `τ_c*`-inversion, and a simulated per-node payoff argmax (mean and
//!   variance across nodes), mirroring the paper's NS-2 columns.

use macgame_core::GameConfig;
use macgame_dcf::optimal::{efficient_cw, efficient_cw_from_tau_star};
use macgame_dcf::{AccessMode, DcfParams, MicroSecs, UtilityParams};
use macgame_sim::{Engine, SimConfig};
use serde::{Deserialize, Serialize};

use crate::BenchError;

/// One rendered parameter row of Table I.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamRow {
    /// Parameter name as printed in the paper.
    pub name: &'static str,
    /// Value with unit.
    pub value: String,
}

/// Renders Table I from the library defaults.
#[must_use]
pub fn table1() -> Vec<ParamRow> {
    let p = DcfParams::default();
    let u = UtilityParams::default();
    let g = GameConfig::builder(2).build().expect("defaults are valid"); // PANIC-POLICY: constant parameters are valid by construction
    let row = |name, value: String| ParamRow { name, value };
    vec![
        row("Packet size", format!("{}", p.frames().payload)),
        row("MAC header", format!("{}", p.frames().mac_header)),
        row("PHY header", format!("{}", p.phy().phy_header)),
        row("ACK", format!("{} + PHY header", p.frames().ack)),
        row("RTS", format!("{} + PHY header", p.frames().rts)),
        row("CTS", format!("{} + PHY header", p.frames().cts)),
        row("Channel bit rate", format!("{}", p.phy().bit_rate)),
        row("Slot time σ", format!("{}", p.phy().slot)),
        row("SIFS", format!("{}", p.phy().sifs)),
        row("DIFS", format!("{}", p.phy().difs)),
        row("g", format!("{}", u.gain)),
        row("e", format!("{}", u.cost)),
        row("T", format!("{} s", g.stage_duration().to_seconds())),
        row("δ", format!("{}", g.discount())),
    ]
}

/// One row of Table II/III.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeRow {
    /// Population `n`.
    pub n: usize,
    /// Paper's published `W_c*` for this row.
    pub paper_w_star: u32,
    /// Exact analytic argmax of the symmetric utility.
    pub analytic_w_star: u32,
    /// The paper's `g ≫ e` route: `τ_c*` inverted through the chain.
    pub tau_inversion_w_star: u32,
    /// Mean over nodes of the simulated per-node payoff-maximizing common
    /// window (the paper's `Ŵ_c*` column).
    pub sim_mean: f64,
    /// Variance across nodes (the paper's `Var(W_c*)` column).
    pub sim_var: f64,
}

/// Paper values for Tables II and III.
#[must_use]
pub fn paper_ne_values(mode: AccessMode) -> [(usize, u32); 3] {
    match mode {
        AccessMode::Basic => [(5, 76), (20, 336), (50, 879)],
        AccessMode::RtsCts => [(5, 22), (20, 48), (50, 116)],
    }
}

/// Simulated per-node payoff argmax: sweep the common window over
/// `[center − half_width, center + half_width]`, measure every node's
/// payoff at each window over `duration`, take each node's argmax, and
/// report mean/variance across nodes.
///
/// # Errors
///
/// Propagates simulator configuration failures.
#[allow(clippy::too_many_arguments)]
pub fn simulated_ne(
    n: usize,
    center: u32,
    half_width: u32,
    step: u32,
    params: &DcfParams,
    utility: &UtilityParams,
    duration: MicroSecs,
    seed: u64,
) -> Result<(f64, f64), BenchError> {
    let lo = center.saturating_sub(half_width).max(1);
    let hi = center + half_width;
    let mut best_w = vec![lo; n];
    let mut best_u = vec![f64::NEG_INFINITY; n];
    let mut w = lo;
    while w <= hi {
        let config = SimConfig::builder()
            .params(*params)
            .utility(*utility)
            .symmetric(n, w)
            .seed(seed ^ u64::from(w))
            .build()?;
        let mut engine = Engine::new(&config);
        let report = engine.run_for(duration);
        for i in 0..n {
            let u = report.payoff_rate(i, utility);
            if u > best_u[i] {
                best_u[i] = u;
                best_w[i] = w;
            }
        }
        w += step;
    }
    let mean = best_w.iter().map(|&w| f64::from(w)).sum::<f64>() / n as f64;
    let var = best_w.iter().map(|&w| (f64::from(w) - mean).powi(2)).sum::<f64>() / n as f64;
    Ok((mean, var))
}

/// Computes Table II (`mode = Basic`) or Table III (`mode = RtsCts`).
///
/// `sim_duration` is per sweep point; the paper simulated 1000 s, which
/// the `repro` binary’s full mode approaches while `--quick` shrinks it.
///
/// # Errors
///
/// Propagates model/simulator failures.
pub fn ne_table(
    mode: AccessMode,
    w_max: u32,
    sim_duration: MicroSecs,
    seed: u64,
) -> Result<Vec<NeRow>, BenchError> {
    let params = DcfParams::builder().access_mode(mode).build()?;
    let utility = UtilityParams::default();
    let mut rows = Vec::new();
    for (n, paper_w_star) in paper_ne_values(mode) {
        let analytic = efficient_cw(n, &params, &utility, w_max)?;
        let inversion = efficient_cw_from_tau_star(n, &params, w_max)?;
        // Sweep around the analytic optimum, wide enough to cover both
        // derivations.
        let center = analytic.window;
        let half = (center / 4).max(8);
        let step = (half / 8).max(1);
        let (sim_mean, sim_var) =
            simulated_ne(n, center, half, step, &params, &utility, sim_duration, seed)?;
        rows.push(NeRow {
            n,
            paper_w_star,
            analytic_w_star: analytic.window,
            tau_inversion_w_star: inversion.window,
            sim_mean,
            sim_var,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_all_paper_rows() {
        let rows = table1();
        assert_eq!(rows.len(), 14);
        assert!(rows.iter().any(|r| r.name == "Packet size" && r.value == "8184 bits"));
        assert!(rows.iter().any(|r| r.name == "δ" && r.value == "0.9999"));
    }

    #[test]
    fn basic_ne_table_matches_paper_scale() {
        let rows = ne_table(AccessMode::Basic, 2048, MicroSecs::from_seconds(5.0), 42).unwrap();
        for row in &rows {
            let rel = (f64::from(row.analytic_w_star) - f64::from(row.paper_w_star)).abs()
                / f64::from(row.paper_w_star);
            assert!(
                rel < 0.06,
                "n = {}: analytic {} vs paper {}",
                row.n,
                row.analytic_w_star,
                row.paper_w_star
            );
            // Simulated argmax lands near the analytic one.
            let sim_rel = (row.sim_mean - f64::from(row.analytic_w_star)).abs()
                / f64::from(row.analytic_w_star);
            assert!(
                sim_rel < 0.25,
                "n = {}: sim mean {} analytic {}",
                row.n,
                row.sim_mean,
                row.analytic_w_star
            );
        }
    }

    #[test]
    fn paper_values_are_the_published_ones() {
        assert_eq!(paper_ne_values(AccessMode::Basic)[2], (50, 879));
        assert_eq!(paper_ne_values(AccessMode::RtsCts)[0], (5, 22));
    }
}
