//! Dependency-free observability for the FLAMES stack.
//!
//! Four layers, all free of external crates:
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
//!   opt-in and never sits on a hot path).
//! * **JSON** ([`json`]) — the workspace's one JSON grammar, a byte
//!   cursor that the service's request parser walks directly and that
//!   [`json::parse`] uses to build value trees, plus the buffer writers
//!   ([`json::push_f64`], [`json::push_escaped`]) every exporter and
//!   the service's responses render through.

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
