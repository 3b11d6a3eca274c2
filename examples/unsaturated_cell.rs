//! Beyond saturation: Poisson traffic through a selfishly-tuned cell.
//!
//! The paper's analysis is for saturated sources. This example uses the
//! simulator's Poisson traffic model to ask what the efficient saturated
//! NE window costs when the network is *not* saturated — and when
//! saturation actually kicks in.
//!
//! Run with: `cargo run --release --example unsaturated_cell`

use macgame::dcf::MicroSecs;
use macgame::game::equilibrium::efficient_ne;
use macgame::game::GameConfig;
use macgame::sim::{Engine, SimConfig, TrafficModel};

fn run_cell(n: usize, w: u32, rate: f64, secs: f64) -> (f64, f64, u64, f64) {
    let config = SimConfig::builder()
        .symmetric(n, w)
        .traffic(TrafficModel::Poisson { packets_per_second: rate })
        .seed(42)
        .build()
        .expect("valid config");
    let mut engine = Engine::new(&config);
    let report = engine.run_for(MicroSecs::from_seconds(secs));
    let offered: u64 = (0..n).map(|i| engine.total_arrivals(i)).sum();
    let delivered: u64 = report.node_stats.iter().map(|s| s.successes).sum();
    let backlog: u64 = (0..n).map(|i| engine.queue_len(i)).sum();
    let mean_delay_ms =
        (0..n).filter_map(|i| engine.mean_access_delay(i)).map(|d| d.value() / 1000.0).sum::<f64>()
            / n as f64;
    (
        delivered as f64 / offered.max(1) as f64,
        report.throughput(config.params()),
        backlog,
        mean_delay_ms,
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 5;
    let game = GameConfig::builder(n).build()?;
    let w_star = efficient_ne(&game)?.window;
    println!("cell of {n} stations, saturated-NE window W_c* = {w_star}\n");

    // Channel fits ~111 packets/s total (8980 µs per success, basic mode).
    println!("offered load sweep at W = W_c* (60 s runs):");
    println!(
        "{:>14} {:>12} {:>12} {:>10} {:>16}",
        "pkt/s per node", "delivered", "throughput", "backlog", "inter-delivery ms"
    );
    for rate in [2.0, 10.0, 20.0, 25.0, 40.0] {
        let (delivery, s, backlog, delay) = run_cell(n, w_star, rate, 60.0);
        println!(
            "{rate:>14} {:>11.1}% {:>12.3} {:>10} {:>16.1}",
            100.0 * delivery,
            s,
            backlog,
            delay
        );
    }
    println!("→ under light load the saturated-NE window delivers everything (inter-");
    println!("  delivery time ≈ 1/arrival-rate, i.e. the channel idles between packets);");
    println!("  as offered load crosses capacity, queues blow up and the cell behaves");
    println!("  exactly like the saturated model the paper analyzes.\n");

    // Is the saturated W_c* the right window under light load? Sweep W.
    println!("light load (5 pkt/s per node), sweeping the common window:");
    println!("{:>8} {:>12} {:>18}", "W", "delivered", "inter-delivery ms");
    for w in [4u32, 16, w_star, w_star * 4] {
        let (delivery, _, _, delay) = run_cell(n, w, 5.0, 60.0);
        println!("{w:>8} {:>11.1}% {:>16.1}", 100.0 * delivery, delay);
    }
    println!("→ away from saturation the window barely matters — contention is rare, so");
    println!("  even aggressive windows are harmless. The game the paper studies is");
    println!("  precisely the regime where it does matter.");
    Ok(())
}
