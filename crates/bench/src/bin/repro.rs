//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p macgame-bench --bin repro -- all [--quick]
//! cargo run --release -p macgame-bench --bin repro -- table2
//! ```
//!
//! Each experiment prints its paper-vs-measured comparison and writes a
//! JSON artifact under `artifacts/`.

use macgame_bench::render::{text_table, write_artifact, write_raw_artifact};
use macgame_bench::{
    detect_exp, deviation_exp, edca_exp, extensions_exp, figures, multihop_exp, profile_exp,
    robustness_exp, search_exp, tables, BenchError,
};
use macgame_conformance::{run_conformance, ConformanceSettings};
use macgame_dcf::{AccessMode, MicroSecs};

/// An experiment driver; its argument is whether `--quick` was given.
type Driver = fn(bool) -> Result<(), BenchError>;

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[(&str, Driver)] = &[
    ("table1", |_| table1()),
    ("table2", |quick| ne_table(AccessMode::Basic, quick)),
    ("table3", |quick| ne_table(AccessMode::RtsCts, quick)),
    ("fig2", |_| figure(AccessMode::Basic)),
    ("fig3", |_| figure(AccessMode::RtsCts)),
    ("multihop", multihop),
    ("shortsighted", |_| shortsighted()),
    ("malicious", |_| malicious()),
    ("search", search),
    ("ne-interval", |_| ne_interval()),
    ("convergence", |_| convergence()),
    ("delay", |_| delay()),
    ("edca", edca),
    ("detect", detect),
    ("ratecontrol", |_| ratecontrol()),
    ("tournament", |_| tournament()),
    ("validate", validate),
    ("myopia", |_| myopia()),
    ("conformance", conformance),
    ("profile", profile),
    ("robustness", robustness),
    ("lint", |_| lint()),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every argument is validated before anything runs, so a typo fails
    // fast instead of silently widening the run.
    let known = |a: &str| a == "all" || a == "--quick" || EXPERIMENTS.iter().any(|(n, _)| *n == a);
    if let Some(bad) = args.iter().find(|a| !known(a)) {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        eprintln!("unknown argument `{bad}`; available: all {names:?} [--quick]");
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let picked: Vec<&str> = args.iter().map(String::as_str).filter(|a| *a != "--quick").collect();
    let run_all = picked.is_empty() || picked.contains(&"all");

    let mut failures = 0;
    for (name, run) in EXPERIMENTS {
        if !run_all && !picked.contains(name) {
            continue;
        }
        println!("\n════════ {name} ════════");
        if let Err(e) = run(quick) {
            eprintln!("experiment {name} failed: {e}");
            failures += 1;
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

fn table1() -> Result<(), BenchError> {
    let rows = tables::table1();
    let body: Vec<Vec<String>> =
        rows.iter().map(|r| vec![r.name.to_string(), r.value.clone()]).collect();
    println!("{}", text_table(&["parameter", "value"], &body));
    let path = write_artifact("table1", &rows)?;
    println!("artifact: {}", path.display());
    Ok(())
}

fn ne_table(mode: AccessMode, quick: bool) -> Result<(), BenchError> {
    let (duration, label) = if quick {
        (MicroSecs::from_seconds(10.0), "10 s/point (--quick)")
    } else {
        (MicroSecs::from_seconds(120.0), "120 s/point")
    };
    println!("efficient NE by population, {mode} access (sim: {label})");
    let rows = tables::ne_table(mode, 4096, duration, 42)?;
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.paper_w_star.to_string(),
                r.analytic_w_star.to_string(),
                r.tau_inversion_w_star.to_string(),
                format!("{:.1}", r.sim_mean),
                format!("{:.2}", r.sim_var),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &["n", "paper W_c*", "exact argmax", "τ*-inversion", "sim Ŵ (mean)", "sim Var"],
            &body
        )
    );
    let name = if mode == AccessMode::Basic { "table2" } else { "table3" };
    let path = write_artifact(name, &rows)?;
    println!("artifact: {}", path.display());
    Ok(())
}

fn figure(mode: AccessMode) -> Result<(), BenchError> {
    let fig_name = if mode == AccessMode::Basic { "fig2" } else { "fig3" };
    println!("global payoff U/C vs common CW, {mode} access (n = 5, 20, 50)");
    let series = figures::figure(mode, 2048)?;
    let mut body = Vec::new();
    for s in &series {
        let shape = s.shape();
        body.push(vec![
            s.n.to_string(),
            shape.argmax_window.to_string(),
            format!("{:.4}", shape.max_value),
            format!("{:.4}", shape.at_min_window),
            format!("{:.4}", shape.at_max_window),
            format!("{:.2}%", 100.0 * shape.flatness_near_optimum),
        ]);
    }
    println!(
        "{}",
        text_table(
            &["n", "argmax W", "max U/C", "U/C @ W=1", "U/C @ W_max", "loss ±20% of W*"],
            &body
        )
    );
    // Simulated overlay: measured U/C at three probe windows per curve.
    for s_ in &series {
        let shape = s_.shape();
        let probes =
            [(shape.argmax_window / 4).max(1), shape.argmax_window, shape.argmax_window * 3];
        let overlay =
            figures::simulated_overlay(s_.n, mode, &probes, MicroSecs::from_seconds(30.0), 7)?;
        let rendered: Vec<String> =
            overlay.iter().map(|p| format!("W={} → {:.4}", p.window, p.u_over_c)).collect();
        println!("  n = {:>2} simulated U/C: {}", s_.n, rendered.join(", "));
    }
    // A coarse ASCII rendering of the n = 20 curve, for eyeballing.
    if let Some(s) = series.iter().find(|s| s.n == 20) {
        let max = s.points.iter().map(|p| p.u_over_c).fold(f64::MIN, f64::max);
        println!("n = 20 curve (each ▪ ≈ 2% of peak):");
        for p in s.points.iter().step_by((s.points.len() / 18).max(1)) {
            let bars = ((p.u_over_c / max) * 50.0).max(0.0) as usize;
            println!("  W = {:>5}: {}", p.window, "▪".repeat(bars));
        }
    }
    let path = write_artifact(fig_name, &series)?;
    println!("artifact: {}", path.display());
    Ok(())
}

fn multihop(quick: bool) -> Result<(), BenchError> {
    let settings = if quick {
        multihop_exp::MultihopSettings::quick()
    } else {
        multihop_exp::MultihopSettings::full()
    };
    println!(
        "multi-hop scenario: {} nodes, random waypoint, RTS/CTS, {} s/point",
        settings.n,
        settings.duration.to_seconds()
    );
    let out = multihop_exp::run(settings)?;
    println!(
        "topology: connected = {}, diameter = {:?}, degree min/avg/max = {}/{:.1}/{}",
        out.connected, out.diameter, out.degrees.0, out.degrees.1, out.degrees.2
    );
    println!(
        "local windows in [{}, {}]; TFT converged to W_m = {} in {} rounds (paper run: 26)",
        out.local_window_range.0, out.local_window_range.1, out.w_m, out.convergence_rounds
    );
    let body: Vec<Vec<String>> = out
        .quality
        .global_sweep
        .iter()
        .map(|s| vec![s.window.to_string(), format!("{:.4e}", s.payoff)])
        .collect();
    println!("{}", text_table(&["common W", "global payoff /µs"], &body));
    println!(
        "global fraction at W_m: {:.1}%   (paper: ≥ 97%)",
        100.0 * out.quality.global_fraction
    );
    println!(
        "min sampled local fraction: {:.1}%   (paper: ≥ 96%; rises with measurement length)",
        100.0 * out.quality.min_local_fraction()
    );
    let body: Vec<Vec<String>> = out
        .p_hn_by_window
        .iter()
        .map(|(w, p, a)| vec![w.to_string(), format!("{p:.3}"), format!("{a:.3}")])
        .collect();
    println!("{}", text_table(&["common W", "p_hn (measured)", "p_hn (analytic)"], &body));
    let path = write_artifact("multihop", &out)?;
    println!("artifact: {}", path.display());
    Ok(())
}

fn shortsighted() -> Result<(), BenchError> {
    println!("optimal deviation of a short-sighted player, n = 5, 1-stage TFT reaction");
    let rows = deviation_exp::shortsighted_table(5, 1, &[0.0, 0.5, 0.9, 0.99, 0.999, 0.9999])?;
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.delta_s),
                r.w_s.to_string(),
                format!("{:+.2}%", 100.0 * r.relative_gain),
                format!("{:+.2}%", 100.0 * r.victim_relative_loss),
            ]
        })
        .collect();
    println!("{}", text_table(&["δ_s", "W_s(δ_s)", "deviator gain", "victim loss"], &body));
    println!("reaction-lag ablation at δ_s = 0.9:");
    let lag_rows = deviation_exp::reaction_table(5, 0.9, &[1, 2, 5, 10])?;
    let body: Vec<Vec<String>> = lag_rows
        .iter()
        .map(|r| vec![r.reaction_stages.to_string(), format!("{:+.2}%", 100.0 * r.relative_gain)])
        .collect();
    println!("{}", text_table(&["reaction m", "deviator gain"], &body));
    let path = write_artifact("shortsighted", &(rows, lag_rows))?;
    println!("artifact: {}", path.display());
    Ok(())
}

fn malicious() -> Result<(), BenchError> {
    println!("malicious player pins W_mal; TFT drags the network down (n = 20)");
    let rows = deviation_exp::malicious_table(20, &[128, 64, 16, 4, 1])?;
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.w_mal.to_string(),
                format!("{:.1}%", 100.0 * r.remaining_fraction),
                if r.collapsed { "yes".into() } else { "no".into() },
            ]
        })
        .collect();
    println!("{}", text_table(&["W_mal", "welfare remaining", "collapsed"], &body));
    let path = write_artifact("malicious", &rows)?;
    println!("artifact: {}", path.display());
    Ok(())
}

fn search(quick: bool) -> Result<(), BenchError> {
    println!("Section V.C distributed search, n = 5");
    let rows = search_exp::analytic_search_table(5, &[10, 40, 79, 150, 400])?;
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.w0.to_string(),
                r.w_found.to_string(),
                r.w_star.to_string(),
                r.measurements.to_string(),
            ]
        })
        .collect();
    println!("{}", text_table(&["W₀", "found", "W_c*", "measurements"], &body));
    let measure = if quick { 10.0 } else { 60.0 };
    let sim = search_exp::simulated_search(5, 60, measure, 0.002, 11)?;
    println!(
        "noisy (simulated, t_m = {measure} s): from W₀ = {} found {} (true {}, error {:.1}%)",
        sim.w0,
        sim.w_found,
        sim.w_star,
        100.0 * sim.relative_error
    );
    let path = write_artifact("search", &(rows, sim))?;
    println!("artifact: {}", path.display());
    Ok(())
}

fn ne_interval() -> Result<(), BenchError> {
    println!("Theorem 2 symmetric-NE intervals [W_c⁰, W_c*]");
    let rows = search_exp::interval_table(&[2, 5, 10, 20, 50])?;
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![r.n.to_string(), r.lower.to_string(), r.upper.to_string(), r.count.to_string()]
        })
        .collect();
    println!("{}", text_table(&["n", "W_c⁰", "W_c*", "# NE"], &body));
    let path = write_artifact("ne_interval", &rows)?;
    println!("artifact: {}", path.display());
    Ok(())
}

fn convergence() -> Result<(), BenchError> {
    println!("TFT convergence from heterogeneous starts (analytic stage evaluation)");
    let rows = search_exp::tft_convergence_table(&[
        vec![100, 60, 150, 90],
        vec![500, 20, 300, 80, 76],
        vec![76; 5],
        vec![13, 11, 9, 7, 5, 3],
    ])?;
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:?}", r.initials),
                format!("{:?}", r.converged_at_stage),
                format!("{:?}", r.window),
            ]
        })
        .collect();
    println!("{}", text_table(&["initial windows", "converged at", "window"], &body));
    let path = write_artifact("convergence", &rows)?;
    println!("artifact: {}", path.display());
    Ok(())
}

fn delay() -> Result<(), BenchError> {
    println!("extension: delay-aware efficient NE (paper Discussion), n = 5");
    let lambdas = [0.0, 1e-11, 1e-10, 3e-10, 1e-9, 3e-9];
    let mut artifacts = Vec::new();
    for mode in AccessMode::ALL {
        let rows = extensions_exp::delay_table(5, mode, &lambdas)?;
        println!("{mode} access:");
        let body: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.0e}", r.lambda),
                    r.window.to_string(),
                    format!("{:.1}", r.delay_ms),
                    format!("{:.3e}", r.utility),
                ]
            })
            .collect();
        println!("{}", text_table(&["λ", "W*(λ)", "delay (ms)", "utility /µs"], &body));
        artifacts.push((mode, rows));
    }
    println!("→ basic: collisions dominate both metrics, optima coincide;");
    println!("  RTS/CTS: cheap collisions let delay-sensitive nodes go aggressive.");
    let path = write_artifact("delay", &artifacts)?;
    println!("artifact: {}", path.display());
    Ok(())
}

fn edca(quick: bool) -> Result<(), BenchError> {
    let settings =
        if quick { edca_exp::EdcaSettings::quick() } else { edca_exp::EdcaSettings::full() };
    println!(
        "EDCA strategy space (CWmin, m, AIFS, TXOP): cheating gains, Table II \
         degeneracy, TFT plane, sim agreement ({} slots × {} replicas)",
        settings.slots, settings.replications
    );
    let payload = edca_exp::run_edca(&settings)?;

    println!("per-knob cheating gains at baseline {:?}:", payload.baseline);
    let mut body = Vec::new();
    for surface in &payload.gain_surface {
        for row in &surface.rows {
            body.push(vec![
                surface.axis.clone(),
                row.value.to_string(),
                format!("{:.4}", row.gain),
                format!("{:.3e}", row.deviator_rate),
                format!("{:.3e}", row.compliant_rate),
            ]);
        }
    }
    println!("{}", text_table(&["knob", "value", "gain", "deviator /µs", "compliant /µs"], &body));
    println!(
        "lattice best response: {:?} (gain {:.3})",
        payload.best_response.tuple, payload.best_response.gain
    );

    println!("degenerate tuples vs the scalar Table II scan:");
    let body: Vec<Vec<String>> = payload
        .degenerate
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.w_star_scalar.to_string(),
                r.w_star_edca.to_string(),
                if r.window_equal && r.utility_bitwise && r.tau_bitwise {
                    "bitwise".into()
                } else {
                    "DIVERGED".into()
                },
            ]
        })
        .collect();
    println!("{}", text_table(&["n", "scalar W_c*", "EDCA W_c*", "agreement"], &body));

    println!("(CWmin, TXOP) TFT deviation plane:");
    for section in &payload.plane {
        println!(
            "  δ_s = {:<5} reaction = {}: {}/{} cells profitable",
            section.delta_s,
            section.reaction_stages,
            section.profitable_cells,
            section.cells.len()
        );
    }

    let body: Vec<Vec<String>> = payload
        .sim
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                format!("{:.2}%", 100.0 * s.max_tau_error),
                format!("{:.2}%", 100.0 * s.max_p_error),
                format!("{:.2}%", 100.0 * s.throughput_error),
            ]
        })
        .collect();
    println!("{}", text_table(&["sim scenario", "max τ̂ err", "max p̂ err", "Ŝ err"], &body));

    let path = write_artifact("EDCA", &payload)?;
    println!("artifact: {}", path.display());
    println!("note: the artifact is byte-identical across MACGAME_THREADS settings");
    let consistent =
        payload.degenerate.iter().all(|r| r.window_equal && r.utility_bitwise && r.tau_bitwise);
    if !consistent {
        return Err(BenchError::Game(macgame_core::GameError::InvalidConfig(
            "EDCA degenerate tuples diverged from the scalar Table II scan".into(),
        )));
    }
    Ok(())
}

fn detect(quick: bool) -> Result<(), BenchError> {
    let settings = if quick {
        detect_exp::DetectSettings::quick()
    } else {
        detect_exp::DetectSettings::full()
    };
    println!(
        "detection plane: ROC sweeps under observation faults + adversarial \
         tournament ({} ROC trials/cell, {} arena reps/pair)",
        2 * settings.replications,
        settings.arena_repetitions
    );
    let payload = detect_exp::run_detect(&settings)?;
    println!(
        "defending W_c* = {} against a W = {} undercutter (n = {})",
        payload.w_star, payload.w_selfish, payload.settings.n
    );

    println!("windowed-detector ROC over the fault grid:");
    let mut body = Vec::new();
    for curve in &payload.windowed_roc {
        for point in &curve.points {
            body.push(vec![
                curve.cell.label(),
                format!("{:.2}", point.threshold),
                format!("{:.3}", point.fp_rate),
                format!("{:.3}", point.fn_rate),
            ]);
        }
    }
    println!("{}", text_table(&["fault cell", "θ", "FP rate", "FN rate"], &body));

    println!("CUSUM ROC (finite-sample counter noise):");
    let body: Vec<Vec<String>> = payload
        .cusum_roc
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{:.3}", p.threshold),
                format!("{:.3}", p.fp_rate),
                format!("{:.3}", p.fn_rate),
            ]
        })
        .collect();
    println!("{}", text_table(&["h", "FP rate", "FN rate"], &body));

    println!(
        "adversarial tournament: {} matches over {} fault cells",
        payload.arena.matches,
        detect_exp::DetectSettings::fault_grid().len()
    );
    let names = &payload.arena.tournament.names;
    let mut body = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let mut row = vec![name.clone()];
        for j in 0..names.len() {
            row.push(format!("{:.1}", payload.arena.tournament.scores[i][j]));
        }
        row.push(format!("{:.3}", payload.arena.mix.final_shares[i]));
        row.push(if payload.arena.mix.stable[i] { "yes".into() } else { "no".into() });
        body.push(row);
    }
    let mut header: Vec<String> = vec!["payoff vs →".into()];
    header.extend(names.iter().cloned());
    header.push("final share".into());
    header.push("stable".into());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    println!("{}", text_table(&header_refs, &body));
    println!(
        "equilibrium mix: dominant = {}, extinct = {:?}",
        payload.arena.mix.dominant, payload.arena.mix.extinct
    );

    let path = write_artifact("DETECT", &payload)?;
    println!("artifact: {}", path.display());
    println!("note: the artifact is byte-identical across MACGAME_THREADS settings");

    // Structural gate: the zero-fault all-honest cell must be FP-free at
    // every threshold in the sweep.
    let zero_clean = payload
        .windowed_roc
        .iter()
        .filter(|c| c.cell.is_zero())
        .all(|c| c.points.iter().all(|p| p.false_positives == 0));
    if !zero_clean {
        return Err(BenchError::Game(macgame_core::GameError::InvalidConfig(
            "zero-fault all-honest trials produced false positives".into(),
        )));
    }
    Ok(())
}

fn ratecontrol() -> Result<(), BenchError> {
    println!("extension: selfish PHY-rate game (paper Conclusion), common CW = 48, RTS/CTS");
    let rows = extensions_exp::rate_table(&[3, 5, 10, 20], 48)?;
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                format!("{} Mbit/s", r.ne_rate_mbps),
                r.ne_is_social_optimum.to_string(),
                format!("{:.1}%", 100.0 * r.anomaly_damage),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(&["n", "NE rate", "NE = social optimum", "1-slow-node damage"], &body)
    );
    let path = write_artifact("ratecontrol", &rows)?;
    println!("artifact: {}", path.display());
    Ok(())
}

fn tournament() -> Result<(), BenchError> {
    println!("extension: Axelrod-style round robin on the MAC game (2-player matches)");
    let standings = extensions_exp::tournament_ranking(25)?;
    let body: Vec<Vec<String>> = standings
        .iter()
        .enumerate()
        .map(|(i, s)| vec![(i + 1).to_string(), s.name.clone(), format!("{:.0}", s.total)])
        .collect();
    println!("{}", text_table(&["rank", "strategy", "total payoff"], &body));
    println!("replicator population dynamics over the same payoff matrix (500 gens):");
    let shares = extensions_exp::evolutionary_shares(25, 500)?;
    let body: Vec<Vec<String>> = shares
        .iter()
        .map(|(name, share)| vec![name.clone(), format!("{:.1}%", 100.0 * share)])
        .collect();
    println!("{}", text_table(&["strategy", "final population share"], &body));
    let path = write_artifact("tournament", &(standings, shares))?;
    println!("artifact: {}", path.display());
    Ok(())
}

fn validate(quick: bool) -> Result<(), BenchError> {
    use macgame_dcf::DcfParams;
    use macgame_sim::validate_fixed_point;
    let slots = if quick { 200_000 } else { 1_000_000 };
    println!("model-vs-simulator validation at the efficient NE ({slots} slots/run)");
    let mut rows_out = Vec::new();
    let mut body = Vec::new();
    for mode in AccessMode::ALL {
        let params = DcfParams::builder().access_mode(mode).build()?;
        for n in [5usize, 20, 50] {
            let ne = macgame_dcf::optimal::efficient_cw(
                n,
                &params,
                &macgame_dcf::UtilityParams::default(),
                4096,
            )?;
            let report = validate_fixed_point(&vec![ne.window; n], &params, slots, 42)?;
            body.push(vec![
                mode.to_string(),
                n.to_string(),
                ne.window.to_string(),
                format!("{:.2}%", 100.0 * report.max_tau_error()),
                format!("{:.2}%", 100.0 * report.max_p_error()),
                format!("{:.2}%", 100.0 * report.throughput_relative_error()),
            ]);
            rows_out.push((mode, n, report));
        }
    }
    println!("{}", text_table(&["mode", "n", "W_c*", "max τ̂ err", "max p̂ err", "S err"], &body));
    let path = write_artifact("validate", &rows_out)?;
    println!("artifact: {}", path.display());
    Ok(())
}

fn myopia() -> Result<(), BenchError> {
    println!("price of myopia (Discussion §VIII): stage best responders vs TFT");
    let rows = deviation_exp::myopia_table(&[3, 5, 10, 20])?;
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.w_star.to_string(),
                format!("[{}, {}]", r.myopic_windows.0, r.myopic_windows.1),
                format!("{:.1}%", 100.0 * r.welfare_ratio),
            ]
        })
        .collect();
    println!("{}", text_table(&["n", "TFT W_c*", "myopic windows", "welfare remaining"], &body));
    let path = write_artifact("myopia", &rows)?;
    println!("artifact: {}", path.display());
    Ok(())
}

fn conformance(quick: bool) -> Result<(), BenchError> {
    let settings = if quick { ConformanceSettings::quick() } else { ConformanceSettings::full() };
    println!(
        "paper-conformance gate: analytic claims, golden snapshots, and \
         {}-replica seed sweeps at {} slots (seed {})",
        settings.replications, settings.slots, settings.base_seed
    );
    let report = run_conformance(&settings)?;
    let body: Vec<Vec<String>> = report
        .claims
        .iter()
        .map(|c| {
            let mut detail: String = c.detail.lines().next().unwrap_or("").to_string();
            if detail.chars().count() > 56 {
                detail = detail.chars().take(53).collect::<String>() + "...";
            }
            vec![
                c.name.clone(),
                if c.pass { "pass".into() } else { "FAIL".into() },
                format!("{:.4}", c.worst_relative_error),
                format!("{:.4}", c.tolerance),
                detail,
            ]
        })
        .collect();
    println!("{}", text_table(&["claim", "verdict", "worst rel err", "budget", "detail"], &body));
    let path = write_artifact("CONFORMANCE", &report)?;
    println!("artifact: {}", path.display());
    println!(
        "{}/{} claims pass",
        report.claims.iter().filter(|c| c.pass).count(),
        report.claims.len()
    );
    report.require_pass().map_err(BenchError::from)
}

fn profile(quick: bool) -> Result<(), BenchError> {
    let settings = if quick {
        profile_exp::ProfileSettings::quick()
    } else {
        profile_exp::ProfileSettings::full()
    };
    println!(
        "deterministic telemetry profile of the instrumented workspace \
         ({} workload)",
        if quick { "quick" } else { "full" }
    );
    let snapshot = profile_exp::run_profile(settings)?;
    let rows = profile_exp::profile_table(&snapshot);
    println!("{}", text_table(&["kind", "metric", "value"], &rows));
    let path = write_raw_artifact("TELEMETRY", &snapshot.to_json())?;
    println!("artifact: {}", path.display());
    println!(
        "note: every section except \"timings\" is byte-identical across \
         MACGAME_THREADS settings"
    );
    Ok(())
}

fn robustness(quick: bool) -> Result<(), BenchError> {
    let settings = if quick {
        robustness_exp::RobustnessSettings::quick()
    } else {
        robustness_exp::RobustnessSettings::full()
    };
    println!(
        "deterministic fault injection: noisy observations, channel \
         errors/capture, churn, solver ladder ({} workload)",
        if quick { "quick" } else { "full" }
    );
    let report = robustness_exp::run_robustness(settings)?;
    let rows = robustness_exp::robustness_table(&report);
    println!("{}", text_table(&["section", "case", "result"], &rows));
    let path = write_artifact("ROBUSTNESS", &report)?;
    println!("artifact: {}", path.display());
    println!(
        "note: the workload is fully serial and seeded — the artifact is \
         byte-identical across runs and MACGAME_THREADS settings"
    );
    if !report.zero_rate_bitwise_identical || !report.noop_observation_identical {
        return Err(BenchError::Faults(macgame_faults::FaultError::invalid(
            "zero_rate_identity",
            "fault-rate-0 runs were not bitwise identical to the fault-free path",
        )));
    }
    Ok(())
}

fn lint() -> Result<(), BenchError> {
    let cwd = std::env::current_dir().map_err(BenchError::Io)?;
    let root = macgame_lint::find_workspace_root(&cwd)
        .ok_or_else(|| macgame_lint::LintError::NotAWorkspace(cwd.clone()))?;
    println!(
        "workspace invariant checks: determinism (hash containers, wall \
         clocks, entropy RNGs), panic policy, API discipline, manifests, \
         plus call-graph analyses (thread identity and raw threads reachable \
         from artifact roots, lock order, library pub fns no production root \
         reaches)"
    );
    let workspace = macgame_lint::run_workspace(&root)?;
    let report = &workspace.lint;
    let rows = report.table_rows();
    if !rows.is_empty() {
        println!("{}", text_table(&["rule", "location", "status", "detail"], &rows));
    }
    let path = write_raw_artifact("LINT", &report.to_json())?;
    println!("artifact: {}", path.display());
    let waived = report.findings.len() - report.unwaived().len();
    println!(
        "{} file(s), {} manifest(s) scanned: {} finding(s), {} waived, {} unwaived",
        report.stats.files_scanned,
        report.stats.manifests_checked,
        report.findings.len(),
        waived,
        report.unwaived().len()
    );

    let analysis = &workspace.analysis;
    println!(
        "\ncall graph: {} fn(s), {} edge(s); {} taint root(s), {} lock site(s)",
        analysis.stats.functions,
        analysis.stats.edges,
        analysis.stats.taint_roots,
        analysis.stats.lock_sites,
    );
    let (test_only, waived) = analysis
        .rule_counts()
        .get(macgame_lint::analysis::RULE_TEST_ONLY)
        .copied()
        .unwrap_or_default();
    println!(
        "test-only pub: {} library pub fn(s) checked from {} production root(s): \
         {test_only} reached only by tests ({waived} of them waived as reference oracles)",
        analysis.stats.public_fns, analysis.stats.production_roots,
    );
    let rows = analysis.table_rows();
    if !rows.is_empty() {
        println!("{}", text_table(&["rule", "location", "status", "detail"], &rows));
    }
    for finding in analysis.unwaived() {
        println!("witness for {}:{}", finding.path, finding.line);
        for step in &finding.witness {
            println!("  -> {step}");
        }
    }
    let path = write_raw_artifact("ANALYSIS", &analysis.to_json())?;
    println!("artifact: {}", path.display());
    println!(
        "{} analysis finding(s), {} waived, {} unwaived",
        analysis.findings.len(),
        analysis.findings.len() - analysis.unwaived().len(),
        analysis.unwaived().len()
    );
    if workspace.is_clean() {
        Ok(())
    } else {
        Err(BenchError::LintFindings(workspace.unwaived_count()))
    }
}
