//! Dependency-free observability for the FLAMES stack.
//!
//! Three layers, all free of external crates:
//!
//! * **Counters** ([`Counter`], [`Gauge`]) — relaxed atomics behind the
//!   `enabled` feature. With the feature off both types are zero-sized
//!   and every method is an empty `#[inline]` body, so instrumented hot
//!   paths compile to exactly the uninstrumented code (checked by a
//!   compile-time size assertion).
//! * **Registry** ([`metrics`], [`MetricsSnapshot`]) — a fixed global
//!   table of named counters covering the ATMS kernel, the propagation
//!   engine, the serving layer and the circuit substrate. Snapshots are
//!   cheap value captures; [`MetricsSnapshot::delta_since`] turns two of
//!   them into per-phase counts for benches and tests.
//! * **Traces** ([`Trace`], [`TraceEvent`]) — span/instant events on a
//!   deterministic *logical* clock, exportable as Chrome `trace_event`
//!   JSON for `about:tracing`. Always compiled (recording is runtime
//!   opt-in and never sits on a hot path); [`json`] holds a minimal
//!   parser used to validate exported traces in tests.

pub mod counter;
pub mod json;
pub mod registry;
pub mod trace;

pub use counter::{Counter, Gauge};
pub use registry::{metrics, MetricsSnapshot, METRIC_NAMES};
pub use trace::{ArgValue, Trace, TraceEvent};

/// Whether the `enabled` feature (live counters) is compiled in.
#[must_use]
pub const fn enabled() -> bool {
    cfg!(feature = "enabled")
}
