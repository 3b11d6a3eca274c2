//! `served` — the NE-as-a-service front end.
//!
//! ```text
//! served                      # framed JSON on stdin/stdout
//! served --tcp 127.0.0.1:7411 # framed JSON over TCP, thread per connection
//! ```
//!
//! Options: `--threads N` (0 = auto from `MACGAME_THREADS`),
//! `--reply-cache N` (replies, split evenly across the five query kinds:
//! `max(1, N / 5)` each), `--solve-cache N` (entries in each of the six
//! solve-cache memos per access mode); 0 = no-op cache.

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

use macgame_serve::{serve_stdio, serve_tcp, Engine, EngineConfig};

const USAGE: &str = "usage: served [--tcp ADDR] [--threads N] [--reply-cache N] [--solve-cache N]
  (no --tcp: serve framed JSON on stdin/stdout)
  --reply-cache N: replies kept, split evenly across the five query kinds
                   (max(1, N/5) each; default 4096, 0 = no reply cache)
  --solve-cache N: entries in each of the six solve-cache memos
                   (class solutions, symmetric points, deviator rows,
                   W* answers, stage columns, EDCA equilibria) per
                   access mode (default 4096, 0 = solve every point
                   afresh)";

struct Args {
    tcp: Option<String>,
    config: EngineConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { tcp: None, config: EngineConfig::default() };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value =
            |name: &str| iter.next().ok_or_else(|| format!("{name} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--tcp" => args.tcp = Some(value("--tcp")?),
            "--threads" => {
                args.config.threads =
                    value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?;
            }
            "--reply-cache" => {
                args.config.reply_cache_capacity =
                    value("--reply-cache")?.parse().map_err(|e| format!("--reply-cache: {e}"))?;
            }
            "--solve-cache" => {
                args.config.solve_cache_capacity =
                    value("--solve-cache")?.parse().map_err(|e| format!("--solve-cache: {e}"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let engine = Engine::new(args.config).map_err(|e| e.to_string())?;
    match args.tcp {
        Some(addr) => {
            let listener = TcpListener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
            eprintln!("served: listening on {}", listener.local_addr().map_err(|e| e.to_string())?);
            serve_tcp(&Arc::new(engine), &listener).map_err(|e| e.to_string())
        }
        None => serve_stdio(&engine).map_err(|e| e.to_string()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
