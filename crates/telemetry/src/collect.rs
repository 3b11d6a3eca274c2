//! Thread-aware collecting recorder and its deterministic JSON snapshot.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use crate::recorder::Recorder;

/// Number of internal shards. Counters and histograms are sharded by a hash
/// of the recording thread's id to keep hot-path contention low; shards are
/// merged with integer addition (and exact `min`/`max`) at snapshot time, so
/// the merged result does not depend on which thread recorded what.
const SHARDS: usize = 16;

/// Fixed histogram bucket bounds: a 1–2–5 series per decade covering
/// `1e-15 ..= 1e9`. Chosen to span both solver residuals (down to the
/// `1e-12` tolerance) and iteration/slot counts (up to hundreds of
/// millions) with ~3 buckets per decade.
fn bucket_bounds() -> Vec<f64> {
    let mut bounds = Vec::with_capacity(75);
    for decade in -15i32..=9 {
        for mantissa in [1.0f64, 2.0, 5.0] {
            bounds.push(mantissa * 10f64.powi(decade));
        }
    }
    bounds
}

/// Per-shard mutable state. Metric names key `BTreeMap`s so iteration (and
/// therefore every snapshot) is in stable sorted order.
#[derive(Debug, Default)]
struct Shard {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, HistogramData>,
}

#[derive(Debug)]
struct HistogramData {
    /// `counts[i]` counts observations in `(bounds[i-1], bounds[i]]`;
    /// the final slot is the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    min: f64,
    max: f64,
}

impl HistogramData {
    fn new(n_bounds: usize) -> Self {
        Self { counts: vec![0; n_bounds + 1], count: 0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    fn record(&mut self, bounds: &[f64], value: f64) {
        let idx = bounds.iter().position(|&b| value <= b).unwrap_or(bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn merge_from(&mut self, other: &HistogramData) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct TimingData {
    count: u64,
    total_nanos: u64,
    max_nanos: u64,
}

/// A thread-aware [`Recorder`] that aggregates metrics in memory.
///
/// Counter and histogram updates go to one of `SHARDS` internal shards
/// selected by hashing the calling thread's id; gauges and span timings
/// (both low-rate, driver-side) share single mutexes. Gauges merge by
/// `max` at record time, and [`Self::snapshot`] merges the shards with
/// order-independent operations (integer sums, exact `min`/`max`), so
/// deterministic workloads produce bitwise-identical snapshots regardless
/// of `MACGAME_THREADS`.
pub struct CollectingRecorder {
    bounds: Vec<f64>,
    shards: Vec<Mutex<Shard>>,
    gauges: Mutex<BTreeMap<&'static str, f64>>,
    timings: Mutex<BTreeMap<&'static str, TimingData>>,
}

impl std::fmt::Debug for CollectingRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollectingRecorder").field("shards", &SHARDS).finish()
    }
}

impl Default for CollectingRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl CollectingRecorder {
    /// Create an empty recorder.
    pub fn new() -> Self {
        Self {
            bounds: bucket_bounds(),
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            gauges: Mutex::new(BTreeMap::new()),
            timings: Mutex::new(BTreeMap::new()),
        }
    }

    fn shard(&self) -> &Mutex<Shard> {
        let mut hasher = DefaultHasher::new();
        std::thread::current().id().hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    /// Merge all shards into an immutable, deterministic [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut histograms: BTreeMap<String, HistogramData> = BTreeMap::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap(); // PANIC-POLICY: lock poisoning means a panic is already unwinding; propagating it is correct
            for (&name, &delta) in &shard.counters {
                *counters.entry(name.to_owned()).or_insert(0) += delta;
            }
            for (&name, data) in &shard.histograms {
                histograms
                    .entry(name.to_owned())
                    .or_insert_with(|| HistogramData::new(self.bounds.len()))
                    .merge_from(data);
            }
        }
        let gauges = self
            .gauges
            .lock()
            .unwrap() // PANIC-POLICY: lock poisoning means a panic is already unwinding; propagating it is correct
            .iter()
            .map(|(&name, &value)| (name.to_owned(), value))
            .collect();
        let timings = self
            .timings
            .lock()
            .unwrap() // PANIC-POLICY: lock poisoning means a panic is already unwinding; propagating it is correct
            .iter()
            .map(|(&name, &data)| {
                (
                    name.to_owned(),
                    TimingSnapshot {
                        count: data.count,
                        total_nanos: data.total_nanos,
                        max_nanos: data.max_nanos,
                    },
                )
            })
            .collect();
        let histograms = histograms
            .into_iter()
            .map(|(name, data)| {
                let buckets = self
                    .bounds
                    .iter()
                    .map(|&b| format_f64(b))
                    .chain(std::iter::once("+Inf".to_owned()))
                    .zip(data.counts.iter().copied())
                    .filter(|&(_, count)| count > 0)
                    .collect();
                (
                    name,
                    HistogramSnapshot { count: data.count, min: data.min, max: data.max, buckets },
                )
            })
            .collect();
        Snapshot { counters, gauges, histograms, timings }
    }
}

impl Recorder for CollectingRecorder {
    fn counter_add(&self, name: &'static str, delta: u64) {
        let mut shard = self.shard().lock().unwrap(); // PANIC-POLICY: lock poisoning means a panic is already unwinding; propagating it is correct
        *shard.counters.entry(name).or_insert(0) += delta;
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        if !value.is_finite() {
            return;
        }
        // Merge-by-max: the retained value is the maximum ever set, which
        // is independent of the order concurrent writers arrive in —
        // last-write-wins would leak thread scheduling into the snapshot.
        self.gauges
            .lock()
            .unwrap() // PANIC-POLICY: lock poisoning means a panic is already unwinding; propagating it is correct
            .entry(name)
            .and_modify(|v| *v = v.max(value))
            .or_insert(value);
    }

    fn histogram_record(&self, name: &'static str, value: f64) {
        if !value.is_finite() {
            return;
        }
        let n_bounds = self.bounds.len();
        let mut shard = self.shard().lock().unwrap(); // PANIC-POLICY: lock poisoning means a panic is already unwinding; propagating it is correct
        let data = shard.histograms.entry(name).or_insert_with(|| HistogramData::new(n_bounds));
        data.record(&self.bounds, value);
    }

    fn timing_record(&self, name: &'static str, nanos: u64) {
        let mut timings = self.timings.lock().unwrap(); // PANIC-POLICY: lock poisoning means a panic is already unwinding; propagating it is correct
        let data = timings.entry(name).or_default();
        data.count += 1;
        data.total_nanos += nanos;
        data.max_nanos = data.max_nanos.max(nanos);
    }
}

/// Aggregated view of one fixed-bucket histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total number of observations.
    pub count: u64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Non-empty buckets as `(upper bound label, count)`; the label is the
    /// decimal rendering of the bound, or `"+Inf"` for the overflow bucket.
    pub buckets: Vec<(String, u64)>,
}

/// Aggregated wall-clock timings for one span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingSnapshot {
    /// Number of completed spans.
    pub count: u64,
    /// Sum of span durations in nanoseconds.
    pub total_nanos: u64,
    /// Longest single span in nanoseconds.
    pub max_nanos: u64,
}

impl TimingSnapshot {
    /// Total wall-clock time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_nanos as f64 / 1e6
    }
}

/// An immutable, merged view of everything a [`CollectingRecorder`]
/// accumulated, with deterministic (sorted) iteration and JSON rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Monotonic counters, merged across shards by integer addition.
    pub counters: BTreeMap<String, u64>,
    /// Gauges, merged by `max` over every value ever set (order- and
    /// thread-independent).
    pub gauges: BTreeMap<String, f64>,
    /// Fixed-bucket histograms, merged across shards by integer addition.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Wall-clock span timings — nondeterministic by nature, quarantined in
    /// the `timings` section of the JSON rendering.
    pub timings: BTreeMap<String, TimingSnapshot>,
}

impl Snapshot {
    /// Value of counter `name`, or 0 if it was never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Render the full snapshot as pretty-printed JSON with stable key
    /// order. Wall-clock data appears only under the final `"timings"` key;
    /// every byte before it is deterministic for a deterministic workload.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        self.render_deterministic_sections(&mut out);
        out.push_str("  \"timings\": {");
        let mut first = true;
        for (name, t) in &self.timings {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    {}: {{ \"count\": {}, \"total_nanos\": {}, \"max_nanos\": {} }}",
                json_string(name),
                t.count,
                t.total_nanos,
                t.max_nanos
            ));
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    fn render_deterministic_sections(&self, out: &mut String) {
        out.push_str("  \"counters\": {");
        let mut first = true;
        for (name, value) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    {}: {}", json_string(name), value));
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("},\n");

        out.push_str("  \"gauges\": {");
        let mut first = true;
        for (name, value) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    {}: {}", json_string(name), format_f64(*value)));
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("},\n");

        out.push_str("  \"histograms\": {");
        let mut first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    {}: {{\n      \"count\": {},\n      \"min\": {},\n      \"max\": {},\n      \"buckets\": [",
                json_string(name),
                h.count,
                format_f64(h.min),
                format_f64(h.max)
            ));
            let mut first_bucket = true;
            for (le, count) in &h.buckets {
                if !first_bucket {
                    out.push(',');
                }
                first_bucket = false;
                out.push_str(&format!(
                    "\n        {{ \"le\": {}, \"count\": {} }}",
                    json_string(le),
                    count
                ));
            }
            if !first_bucket {
                out.push_str("\n      ");
            }
            out.push_str("]\n    }");
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("},\n");
    }
}

/// Render a finite `f64` as a JSON number via Rust's shortest round-trip
/// `Debug` formatting (deterministic for a given value).
fn format_f64(value: f64) -> String {
    debug_assert!(value.is_finite());
    format!("{value:?}")
}

/// Quote and escape a metric name as a JSON string.
fn json_string(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 2);
    out.push('"');
    for ch in name.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The snapshot's JSON up to its nondeterministic `timings` section.
    fn deterministic_json(snapshot: &Snapshot) -> String {
        let json = snapshot.to_json();
        json[..json.find("\"timings\"").unwrap()].to_string()
    }

    #[test]
    fn counters_merge_across_threads() {
        let recorder = CollectingRecorder::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        recorder.counter_add("test.events", 2);
                    }
                });
            }
        });
        assert_eq!(recorder.snapshot().counter("test.events"), 1600);
    }

    #[test]
    fn histogram_buckets_and_extremes() {
        let recorder = CollectingRecorder::new();
        for v in [1.0, 1.5, 2.0, 100.0, 1e12] {
            recorder.histogram_record("test.hist", v);
        }
        let snapshot = recorder.snapshot();
        let h = snapshot.histograms.get("test.hist").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 1e12);
        // 1.0 -> le 1.0; 1.5 and 2.0 -> le 2.0; 100.0 -> le 100.0; 1e12 -> +Inf.
        let total: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 5);
        assert_eq!(h.buckets.last().unwrap(), &("+Inf".to_owned(), 1));
        assert!(h.buckets.iter().any(|(le, c)| le == "2.0" && *c == 2));
    }

    #[test]
    fn snapshot_is_thread_layout_invariant() {
        // The same multiset of events recorded serially and from many
        // threads must merge to identical snapshots (and identical bytes).
        let serial = CollectingRecorder::new();
        for i in 0..400u64 {
            serial.counter_add("inv.count", i % 7);
            serial.histogram_record("inv.hist", (i % 13) as f64);
        }
        let threaded = CollectingRecorder::new();
        std::thread::scope(|scope| {
            for chunk in 0..8u64 {
                let threaded = &threaded;
                scope.spawn(move || {
                    for i in (chunk * 50)..((chunk + 1) * 50) {
                        threaded.counter_add("inv.count", i % 7);
                        threaded.histogram_record("inv.hist", (i % 13) as f64);
                    }
                });
            }
        });
        assert_eq!(
            deterministic_json(&serial.snapshot()),
            deterministic_json(&threaded.snapshot())
        );
    }

    #[test]
    fn gauges_ignore_non_finite() {
        let recorder = CollectingRecorder::new();
        recorder.gauge_set("test.gauge", f64::NAN);
        recorder.gauge_set("test.gauge2", 1.25);
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.gauges.get("test.gauge").copied(), None);
        assert_eq!(snapshot.gauges.get("test.gauge2").copied(), Some(1.25));
    }

    #[test]
    fn gauges_merge_by_max() {
        let recorder = CollectingRecorder::new();
        recorder.gauge_set("test.gauge", 3.0);
        recorder.gauge_set("test.gauge", 1.0);
        recorder.gauge_set("test.gauge", 2.0);
        assert_eq!(recorder.snapshot().gauges.get("test.gauge").copied(), Some(3.0));
        recorder.gauge_set("test.neg", -5.0);
        recorder.gauge_set("test.neg", -9.0);
        assert_eq!(recorder.snapshot().gauges.get("test.neg").copied(), Some(-5.0));
    }

    #[test]
    fn gauge_bytes_are_thread_layout_invariant() {
        // The same multiset of gauge writes, delivered serially and from
        // racing threads in arbitrary order, must render identical bytes.
        let serial = CollectingRecorder::new();
        for i in 0..64u64 {
            serial.gauge_set("inv.gauge", (i % 17) as f64);
            serial.gauge_set("inv.other", -((i % 5) as f64));
        }
        let expected = deterministic_json(&serial.snapshot());
        for threads in [1usize, 2, 8] {
            let racing = CollectingRecorder::new();
            std::thread::scope(|scope| {
                let chunk = 64 / threads as u64;
                for t in 0..threads as u64 {
                    let racing = &racing;
                    scope.spawn(move || {
                        for i in (t * chunk)..((t + 1) * chunk) {
                            racing.gauge_set("inv.gauge", (i % 17) as f64);
                            racing.gauge_set("inv.other", -((i % 5) as f64));
                        }
                    });
                }
            });
            assert_eq!(
                deterministic_json(&racing.snapshot()),
                expected,
                "gauge bytes diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn json_sections_ordered_and_timings_last() {
        let recorder = CollectingRecorder::new();
        recorder.counter_add("b.second", 2);
        recorder.counter_add("a.first", 1);
        recorder.timing_record("t.span", 1_000);
        let snapshot = recorder.snapshot();
        let json = snapshot.to_json();
        let a = json.find("\"a.first\"").unwrap();
        let b = json.find("\"b.second\"").unwrap();
        let t = json.find("\"timings\"").unwrap();
        assert!(a < b && b < t);
    }

    #[test]
    fn empty_snapshot_renders_valid_sections() {
        let snapshot = CollectingRecorder::new().snapshot();
        let json = snapshot.to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"timings\": {}"));
    }
}
