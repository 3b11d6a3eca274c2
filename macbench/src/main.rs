//! Command-line entry point of the macgame benchmark.
//!
//! ```text
//! macbench --workload <serve-hot|serve-churn|sim-slots|all> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable summary on stderr and, as the last line of
//! stdout, one JSON object per workload run:
//! `{"correct", "attempted", "failed", "metrics"}`.

use std::process::ExitCode;

use macbench::Workload;

const USAGE: &str = "usage: macbench --workload <serve-hot|serve-churn|sim-slots|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workloads, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                workloads = Some(vec![
                    Workload::parse(&value).ok_or(format!("unknown workload {value}"))?
                ]);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workloads = workloads.ok_or("--workload is required")?;
    Ok(Args {
        workloads,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    // Every timed path runs single-threaded: the vendored rayon shim
    // spawns scoped threads per call, which would measure the scheduler.
    std::env::set_var("MACGAME_THREADS", "1");
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for workload in args.workloads {
        let outcome = match macbench::run(workload, args.seed, args.seconds, args.trace) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("{}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "workload {} seed {} trace {}: attempted {} failed {}",
            workload.name(),
            args.seed,
            u8::from(args.trace),
            outcome.attempted,
            outcome.failed
        );
        for metric in &outcome.metrics {
            eprintln!(
                "  {:<34} {:>16.4} {}",
                metric.name, metric.value, metric.unit
            );
        }
        println!("{}", outcome.to_json());
    }
    ExitCode::SUCCESS
}
