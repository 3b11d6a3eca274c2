//! `macgame` — command-line front end to the library.
//!
//! ```text
//! macgame ne       --n 5 [--rtscts] [--max-stage 5]
//! macgame simulate --n 5 --w 76 --seconds 10 [--rtscts] [--seed 42]
//! macgame sweep    --n 20 [--rtscts] [--w-max 2048]     # U/C curve as CSV
//! macgame search   --n 6 --start 40 [--simulated]
//! macgame delay    --n 5 --w 76 [--rtscts]
//! ```

use std::process::ExitCode;

use macgame::dcf::delay::{delay_aware_symmetric_utility, mean_access_slots};
use macgame::dcf::fixedpoint::solve_symmetric;
use macgame::dcf::optimal::{efficient_cw, ne_interval, symmetric_utility};
use macgame::dcf::throughput::normalized_throughput;
use macgame::dcf::{AccessMode, DcfParams, MicroSecs, UtilityParams};
use macgame::game::search::{run_search, AnalyticProbe, SimulatedProbe};
use macgame::game::GameConfig;
use macgame::sim::validate_fixed_point;

/// Parsed command-line options (flat; every subcommand picks what it
/// needs).
#[derive(Debug, Clone, PartialEq)]
struct Options {
    command: String,
    n: usize,
    w: u32,
    w_max: u32,
    seconds: f64,
    seed: u64,
    start: u32,
    max_stage: u32,
    rtscts: bool,
    simulated: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            command: String::new(),
            n: 5,
            w: 0,
            w_max: 2048,
            seconds: 10.0,
            seed: 42,
            start: 16,
            max_stage: 5,
            rtscts: false,
            simulated: false,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut it = args.iter();
    options.command = it.next().ok_or("missing subcommand")?.clone();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--n" => options.n = take("--n")?.parse().map_err(|e| format!("--n: {e}"))?,
            "--w" => options.w = take("--w")?.parse().map_err(|e| format!("--w: {e}"))?,
            "--w-max" => {
                options.w_max = take("--w-max")?.parse().map_err(|e| format!("--w-max: {e}"))?;
            }
            "--seconds" => {
                options.seconds =
                    take("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--seed" => {
                options.seed = take("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--start" => {
                options.start = take("--start")?.parse().map_err(|e| format!("--start: {e}"))?;
            }
            "--max-stage" => {
                options.max_stage =
                    take("--max-stage")?.parse().map_err(|e| format!("--max-stage: {e}"))?;
            }
            "--rtscts" => options.rtscts = true,
            "--simulated" => options.simulated = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(options)
}

fn params_of(options: &Options) -> Result<DcfParams, String> {
    DcfParams::builder()
        .access_mode(if options.rtscts { AccessMode::RtsCts } else { AccessMode::Basic })
        .max_backoff_stage(options.max_stage)
        .build()
        .map_err(|e| e.to_string())
}

fn cmd_ne(options: &Options) -> Result<(), String> {
    let params = params_of(options)?;
    let utility = UtilityParams::default();
    let ne =
        efficient_cw(options.n, &params, &utility, options.w_max).map_err(|e| e.to_string())?;
    let interval =
        ne_interval(options.n, &params, &utility, options.w_max).map_err(|e| e.to_string())?;
    let taus = vec![ne.point.tau; options.n];
    let s = normalized_throughput(&taus, &params);
    println!("n = {}, {} access, m = {}", options.n, params.access_mode(), options.max_stage);
    println!("efficient NE window  W_c* = {}", ne.window);
    println!(
        "NE interval          [{}, {}] ({} equilibria)",
        interval.lower,
        interval.upper,
        interval.count()
    );
    println!("transmission prob    τ = {:.5}  (continuous τ* = {:.5})", ne.point.tau, ne.tau_star);
    println!("collision prob       p = {:.5}", ne.point.collision_prob);
    println!("per-node utility     u = {:.4e} /µs", ne.utility);
    println!("saturation throughput S = {:.4}", s);
    Ok(())
}

fn cmd_simulate(options: &Options) -> Result<(), String> {
    if options.w == 0 {
        return Err("simulate needs --w <window>".into());
    }
    let params = params_of(options)?;
    // Convert seconds into slots via the predicted mean slot length.
    let sym = solve_symmetric(options.n, options.w, &params).map_err(|e| e.to_string())?;
    let stats = macgame::dcf::throughput::slot_stats(&vec![sym.tau; options.n], &params);
    let slots = ((options.seconds * 1e6) / stats.mean_slot.value()).ceil() as u64;
    let report = validate_fixed_point(&vec![options.w; options.n], &params, slots, options.seed)
        .map_err(|e| e.to_string())?;
    println!(
        "n = {}, W = {}, {} access: {} slots (~{} s)",
        options.n,
        options.w,
        params.access_mode(),
        report.slots,
        options.seconds
    );
    println!("{:>6} {:>10} {:>10} {:>10} {:>10}", "node", "τ pred", "τ̂ meas", "p pred", "p̂ meas");
    for row in &report.rows {
        println!(
            "{:>6} {:>10.5} {:>10.5} {:>10.5} {:>10.5}",
            row.node, row.tau_predicted, row.tau_measured, row.p_predicted, row.p_measured
        );
    }
    println!(
        "throughput: predicted {:.4}, measured {:.4} ({:.2}% off)",
        report.throughput_predicted,
        report.throughput_measured,
        100.0 * report.throughput_relative_error()
    );
    Ok(())
}

fn cmd_sweep(options: &Options) -> Result<(), String> {
    let params = params_of(options)?;
    let utility = UtilityParams::default();
    println!("w,u_per_node,u_over_c");
    let mut w = 1u32;
    while w <= options.w_max {
        let u = symmetric_utility(options.n, w, &params, &utility).map_err(|e| e.to_string())?;
        let u_over_c = u * options.n as f64 * params.sigma().value() / utility.gain;
        println!("{w},{u:.6e},{u_over_c:.6}");
        w += (w / 8).max(1);
    }
    Ok(())
}

fn cmd_search(options: &Options) -> Result<(), String> {
    let game = GameConfig::builder(options.n)
        .params(params_of(options)?)
        .w_max(options.w_max)
        .build()
        .map_err(|e| e.to_string())?;
    let outcome = if options.simulated {
        let mut probe = SimulatedProbe::new(
            game.clone(),
            options.seed,
            MicroSecs::from_seconds(options.seconds),
        )
        .map_err(|e| e.to_string())?;
        run_search(&mut probe, &game, options.start, 0.002).map_err(|e| e.to_string())?
    } else {
        let mut probe = AnalyticProbe::new(game.clone());
        run_search(&mut probe, &game, options.start, 0.0).map_err(|e| e.to_string())?
    };
    println!(
        "search from W₀ = {}: found W_m = {} after {} measurements ({:?} walk)",
        options.start,
        outcome.w_m,
        outcome.trace.len(),
        outcome.direction
    );
    Ok(())
}

fn cmd_delay(options: &Options) -> Result<(), String> {
    if options.w == 0 {
        return Err("delay needs --w <window>".into());
    }
    let params = params_of(options)?;
    let sym = solve_symmetric(options.n, options.w, &params).map_err(|e| e.to_string())?;
    let slots = mean_access_slots(options.w, sym.collision_prob, params.max_backoff_stage())
        .map_err(|e| e.to_string())?;
    let point = delay_aware_symmetric_utility(
        options.n,
        options.w,
        &params,
        &UtilityParams::default(),
        0.0,
    )
    .map_err(|e| e.to_string())?;
    println!("n = {}, W = {}, {} access", options.n, options.w, params.access_mode());
    println!("mean access slots   E[S] = {slots:.1}");
    println!("mean access delay   D = {:.2} ms", point.delay.value() / 1000.0);
    println!("per-node utility    u = {:.4e} /µs", point.utility);
    Ok(())
}

const USAGE: &str = "usage: macgame <ne|simulate|sweep|search|delay> [flags]
  ne       --n 5 [--rtscts] [--max-stage 5] [--w-max 2048]
  simulate --n 5 --w 76 [--seconds 10] [--rtscts] [--seed 42]
  sweep    --n 20 [--rtscts] [--w-max 2048]   (CSV to stdout)
  search   --n 6 [--start 16] [--simulated] [--seconds 10]
  delay    --n 5 --w 76 [--rtscts]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match options.command.as_str() {
        "ne" => cmd_ne(&options),
        "simulate" => cmd_simulate(&options),
        "sweep" => cmd_sweep(&options),
        "search" => cmd_search(&options),
        "delay" => cmd_delay(&options),
        other => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Options, String> {
        parse_args(&words.iter().map(|s| (*s).to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_defaults_and_flags() {
        let o = parse(&["ne"]).unwrap();
        assert_eq!(o.command, "ne");
        assert_eq!(o.n, 5);
        assert!(!o.rtscts);
        let o = parse(&["simulate", "--n", "20", "--w", "339", "--rtscts", "--seed", "7"]).unwrap();
        assert_eq!(o.n, 20);
        assert_eq!(o.w, 339);
        assert!(o.rtscts);
        assert_eq!(o.seed, 7);
    }

    #[test]
    fn rejects_unknown_and_missing() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["ne", "--bogus"]).is_err());
        assert!(parse(&["ne", "--n"]).is_err());
        assert!(parse(&["ne", "--n", "abc"]).is_err());
    }

    #[test]
    fn commands_run_on_small_instances() {
        let mut o = parse(&["ne", "--n", "3", "--w-max", "256"]).unwrap();
        cmd_ne(&o).unwrap();
        o.w = 40;
        o.seconds = 1.0;
        cmd_simulate(&o).unwrap();
        cmd_delay(&o).unwrap();
        o.start = 30;
        cmd_search(&o).unwrap();
        assert!(cmd_simulate(&parse(&["simulate"]).unwrap()).is_err());
        assert!(cmd_delay(&parse(&["delay"]).unwrap()).is_err());
    }
}
