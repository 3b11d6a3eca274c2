//! Process-global recorder facade used by instrumented code.
//!
//! The facade keeps the uninstrumented path essentially free: every entry
//! point first checks a relaxed [`AtomicBool`] and returns immediately when
//! no recorder is installed, so permanent instrumentation in hot loops does
//! not perturb benchmarks or artifact bytes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use crate::recorder::Recorder;

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

/// Install `recorder` as the process-global telemetry sink.
///
/// Replaces any previously installed recorder. Callers that need exclusive
/// snapshots (e.g. tests) should serialize install/run/clear sequences
/// themselves — the facade is a single global.
pub fn set_recorder(recorder: Arc<dyn Recorder>) {
    *RECORDER.write().unwrap() = Some(recorder); // PANIC-POLICY: lock poisoning means a panic is already unwinding; propagating it is correct
    ENABLED.store(true, Ordering::Release);
}

/// Remove the global recorder, restoring the zero-cost no-op behaviour.
pub fn clear_recorder() {
    ENABLED.store(false, Ordering::Release);
    *RECORDER.write().unwrap() = None; // PANIC-POLICY: lock poisoning means a panic is already unwinding; propagating it is correct
}

fn with_recorder(f: impl FnOnce(&dyn Recorder)) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    // PANIC-POLICY: lock poisoning means a panic is already unwinding; propagating it is correct
    if let Some(recorder) = RECORDER.read().unwrap().as_deref() {
        f(recorder);
    }
}

/// Add `delta` to the global counter `name` (no-op when uninstrumented).
pub fn counter(name: &'static str, delta: u64) {
    with_recorder(|r| r.counter_add(name, delta));
}

/// Set the global gauge `name` (no-op when uninstrumented).
///
/// Per the determinism policy, only call this from serial driver code.
pub fn gauge(name: &'static str, value: f64) {
    with_recorder(|r| r.gauge_set(name, value));
}

/// Record `value` into the global histogram `name` (no-op when
/// uninstrumented).
pub fn histogram(name: &'static str, value: f64) {
    with_recorder(|r| r.histogram_record(name, value));
}

/// Record a wall-clock duration of `nanos` nanoseconds for span `name`
/// (no-op when uninstrumented). Usually called via [`span`]'s RAII guard.
pub fn timing(name: &'static str, nanos: u64) {
    with_recorder(|r| r.timing_record(name, nanos));
}

/// Start a scoped wall-clock span; the elapsed time is recorded under
/// `name` when the returned guard drops.
///
/// When no recorder is installed the guard holds no timestamp and its drop
/// is a no-op, so spans are as cheap as the other facade calls.
#[must_use = "a span records its duration when dropped"]
pub fn span(name: &'static str) -> Span {
    let start = if ENABLED.load(Ordering::Relaxed) { Some(Instant::now()) } else { None };
    Span { name, start }
}

/// RAII guard returned by [`span`]; records the elapsed wall-clock time on
/// drop.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            timing(self.name, nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::CollectingRecorder;

    #[test]
    fn facade_routes_to_installed_recorder_and_no_ops_after_clear() {
        let recorder = Arc::new(CollectingRecorder::new());
        set_recorder(recorder.clone());
        assert!(ENABLED.load(Ordering::Relaxed));
        counter("global.count", 5);
        gauge("global.gauge", 2.5);
        histogram("global.hist", 10.0);
        {
            let _span = span("global.span");
        }
        clear_recorder();
        assert!(!ENABLED.load(Ordering::Relaxed));
        counter("global.count", 99);

        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter("global.count"), 5);
        assert_eq!(snapshot.gauges.get("global.gauge").copied(), Some(2.5));
        assert_eq!(snapshot.histograms.get("global.hist").unwrap().count, 1);
        assert_eq!(snapshot.timings.get("global.span").unwrap().count, 1);
    }
}
