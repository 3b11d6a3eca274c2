//! Measurement helpers: the metric record, percentiles, peak memory and
//! the end-to-end metric set every workload reports.

use std::collections::BTreeMap;
use std::time::Instant;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric record.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Nearest-rank percentile `q ∈ (0, 1]` of ascending `sorted`.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values` (mean of the middle two for an even count).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Microseconds elapsed since `start`.
#[must_use]
pub fn us_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One timed op, stored in 8 bytes so that the records barely move the
/// process's peak memory.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// When the op started, in seconds since the run began.
    pub start_s: f32,
    /// Its latency, in µs.
    pub us: f32,
}

/// What a timed run measured: every op, and the ops whose output failed
/// a correctness check.
#[derive(Debug)]
pub struct Timed {
    origin: Instant,
    /// Work units (queries or slots) each op completes.
    pub units_per_op: u64,
    /// Every op, in run order.
    pub ops: Vec<Op>,
    /// Ops whose output failed a correctness check.
    pub failed: u64,
}

/// Op records reserved up front. Pages of the reservation count towards
/// peak memory only once written, and without it the vector's doubling
/// would make peak memory jump with the op count.
const RESERVED_OPS: usize = 1 << 18;

impl Timed {
    /// An empty record of ops that each complete `units_per_op`.
    #[must_use]
    pub fn new(units_per_op: u64) -> Self {
        Timed {
            origin: Instant::now(),
            units_per_op,
            ops: Vec::with_capacity(RESERVED_OPS),
            failed: 0,
        }
    }

    /// Records an op that started at `start` and ends now.
    pub fn record(&mut self, start: Instant) {
        let us = us_since(start) as f32;
        let start_s = start.duration_since(self.origin).as_secs_f64() as f32;
        self.ops.push(Op { start_s, us });
    }
}

/// Length of the windows a run is cut into to find its quiet part.
pub const WINDOW_S: f64 = 0.25;
/// Share of a run's windows, the fastest by mean op latency, that make
/// its quiet part.
pub const QUIET_SHARE: f64 = 0.05;

/// Latencies (µs) of the run's quiet part, ascending: the ops of its
/// [`QUIET_SHARE`] of [`WINDOW_S`] windows with the lowest mean op
/// latency.
///
/// The host this benchmark was built on runs the same code in a fast and
/// a slow mode, up to 1.8× apart, switching every second to half a
/// minute; a run's blended figures follow the share of time it happened
/// to spend in each. Its fastest windows are mostly in the fast mode, so
/// their median repeats from run to run (their mean does not: a run with
/// little fast time mixes slow ops into them).
fn quiet_latencies(ops: &[Op]) -> Vec<f64> {
    let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for op in ops {
        windows
            .entry((f64::from(op.start_s) / WINDOW_S) as u64)
            .or_default()
            .push(f64::from(op.us));
    }
    let mut windows: Vec<Vec<f64>> = windows.into_values().collect();
    let mean = |w: &Vec<f64>| w.iter().sum::<f64>() / w.len() as f64;
    windows.sort_by(|a, b| mean(a).total_cmp(&mean(b)));
    let keep = ((windows.len() as f64 * QUIET_SHARE).ceil() as usize).max(1);
    let mut us: Vec<f64> = windows.into_iter().take(keep).flatten().collect();
    us.sort_by(f64::total_cmp);
    us
}

/// The end-to-end metrics: the median set-up time; the median op latency
/// of the run's quiet part ([`quiet_latencies`]) and the throughput of
/// one client at that op time; the p99 op latency over every op, slow
/// mode included; and peak memory.
#[must_use]
pub fn end_to_end(setup_s: &[f64], timed: &Timed) -> Vec<Metric> {
    let p50_us = percentile(&quiet_latencies(&timed.ops), 0.50);
    let mut all_us: Vec<f64> = timed.ops.iter().map(|op| f64::from(op.us)).collect();
    all_us.sort_by(f64::total_cmp);
    vec![
        Metric::new("setup_s", median(setup_s), "s"),
        Metric::new(
            "throughput_per_s",
            ratio(timed.units_per_op as f64 * 1e6, p50_us),
            "1/s",
        ),
        Metric::new("op_p50_us", p50_us, "us"),
        Metric::new("op_p99_us", percentile(&all_us, 0.99), "us"),
        Metric::new("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

/// `num / den`, or 0 when nothing was counted.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_part_is_the_fastest_windows() {
        // 40 windows of 10 ops: one at 100 µs, the rest at 180 µs with a
        // stall; the quiet part (2 windows) keeps the fast one's median.
        let mut timed = Timed::new(1);
        for w in 0..40 {
            for i in 0..10 {
                let us = if w == 7 {
                    100.0
                } else if i == 0 {
                    900.0
                } else {
                    180.0
                };
                timed.ops.push(Op {
                    start_s: (w as f64 * WINDOW_S + i as f64 * 0.01) as f32,
                    us,
                });
            }
        }
        let quiet = quiet_latencies(&timed.ops);
        assert_eq!(quiet.len(), 20);
        assert_eq!(percentile(&quiet, 0.5), 100.0);
        let metrics = end_to_end(&[1.0], &timed);
        assert_eq!(metrics[1].value, 1e6 / 100.0);
        assert_eq!(metrics[3].value, 900.0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
