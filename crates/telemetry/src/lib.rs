//! Deterministic workspace telemetry for the macgame crates.
//!
//! This crate provides the measurement layer used by `repro -- profile`:
//! counters, gauges, fixed-bucket histograms, and scoped span timers behind
//! a [`Recorder`] trait. It is intentionally dependency-free (it sits below
//! `macgame-dcf` in the workspace graph) and renders its own JSON.
//!
//! # Architecture
//!
//! Instrumented code calls the free functions in this crate
//! ([`counter`], [`gauge`], [`histogram`], [`span`]). Those forward to a
//! process-global recorder:
//!
//! * By default no recorder is installed and every call is a single relaxed
//!   atomic load plus a branch — effectively free, so instrumentation can
//!   live permanently in hot paths without perturbing benchmarks or any
//!   artifact bytes.
//! * `repro -- profile` (and tests) install a [`CollectingRecorder`] via
//!   [`set_recorder`], run a workload, then take a [`Snapshot`].
//!
//! # Determinism policy
//!
//! Snapshots separate metrics by reproducibility, mirroring how solver
//! iteration counts are excluded from the golden conformance fixtures:
//!
//! * **Counters** and **histograms** merge across threads with integer
//!   addition only, so for a deterministic workload their values are
//!   bitwise identical no matter how many worker threads ran it.
//! * **Gauges** merge by `max` over every value ever set: concurrent
//!   writers from a parallel region converge on the same retained value
//!   regardless of scheduling (a last-write-wins rule would leak thread
//!   timing into the snapshot bytes).
//! * **Span timings** are wall-clock and inherently nondeterministic; they
//!   are quarantined in a separate `timings` section of the JSON snapshot
//!   so that everything outside that section is byte-stable across runs
//!   and across `MACGAME_THREADS` settings.
//!
//! # Namespaces
//!
//! Metric names are dot-separated and prefixed by the emitting crate:
//! `dcf.*` (solver, sweep, and solve-cache internals), `core.*`
//! (evaluator, search, tournaments), `multihop.*`, `faults.*`,
//! `serve.*` (the batch-query engine: `serve.queries`, `serve.batches`,
//! `serve.coalesced`, `serve.connections`, `serve.errors`,
//! `serve.frame_errors`, and the reply-cache `serve.cache.{hits,misses,
//! evictions}` alongside the lower-tier `dcf.cache.*`), `conformance.*`,
//! and `profile.*` for the top-level `repro -- profile` workloads.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use macgame_telemetry::{self as telemetry, CollectingRecorder};
//!
//! let recorder = Arc::new(CollectingRecorder::new());
//! telemetry::set_recorder(recorder.clone());
//! {
//!     let _span = telemetry::span("example.work");
//!     telemetry::counter("example.items", 3);
//!     telemetry::histogram("example.size", 42.0);
//! }
//! telemetry::clear_recorder();
//! let snapshot = recorder.snapshot();
//! assert_eq!(snapshot.counter("example.items"), 3);
//! assert!(snapshot.to_json().contains("\"timings\""));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod collect;
mod global;
mod recorder;

pub use collect::{CollectingRecorder, HistogramSnapshot, Snapshot, TimingSnapshot};
pub use global::{clear_recorder, counter, gauge, histogram, set_recorder, span, timing, Span};
pub use recorder::{NoopRecorder, Recorder};
