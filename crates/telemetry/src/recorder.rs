//! The [`Recorder`] sink trait and its zero-cost no-op implementation.

/// A sink for telemetry events.
///
/// All methods take `&self` and must be safe to call from any thread;
/// instrumented hot paths fan out over `macgame_dcf::parallel`. Metric
/// names are `&'static str` so recording never allocates on the hot path.
pub trait Recorder: Send + Sync {
    /// Add `delta` to the monotonic counter `name`.
    fn counter_add(&self, name: &'static str, delta: u64);

    /// Set the gauge `name` to `value`.
    ///
    /// Deterministic recorders retain the **maximum** value ever set, so
    /// the outcome does not depend on the order concurrent writers arrive
    /// in — see the crate-level determinism policy.
    fn gauge_set(&self, name: &'static str, value: f64);

    /// Record one observation of `value` into the fixed-bucket histogram
    /// `name`.
    fn histogram_record(&self, name: &'static str, value: f64);

    /// Record one wall-clock duration of `nanos` nanoseconds for the span
    /// `name`. Timings are quarantined in the snapshot's `timings` section.
    fn timing_record(&self, name: &'static str, nanos: u64);
}

/// A recorder that discards everything.
///
/// This is what instrumented code effectively talks to when no recorder is
/// installed; the global facade short-circuits before even reaching it, so
/// the no-op path costs one relaxed atomic load.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn counter_add(&self, _name: &'static str, _delta: u64) {}
    fn gauge_set(&self, _name: &'static str, _value: f64) {}
    fn histogram_record(&self, _name: &'static str, _value: f64) {}
    fn timing_record(&self, _name: &'static str, _nanos: u64) {}
}
