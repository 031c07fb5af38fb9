//! FLAMES — a fuzzy-logic ATMS and model-based expert system for analog
//! diagnosis.
//!
//! This umbrella crate re-exports the whole workspace so examples and
//! downstream users can depend on a single name:
//!
//! * [`fuzzy`] — trapezoidal fuzzy intervals, LR arithmetic, degrees of
//!   consistency, linguistic terms, fuzzy entropy;
//! * [`atms`] — classic and fuzzy assumption-based truth maintenance,
//!   minimal hitting sets;
//! * [`circuit`] — netlists, fault injection, the DC solver standing in
//!   for the measurement bench, model extraction, the paper's circuits;
//! * [`core`] — the FLAMES diagnosis engine (propagation, conflict
//!   recognition, candidates, fault models, learning, best-test
//!   strategies);
//! * [`crisp`] — the DIANA-style crisp-interval baseline;
//! * [`obs`] — dependency-free observability: kernel counters,
//!   [`obs::MetricsSnapshot`] deltas, Chrome-trace diagnosis traces
//!   (feature `obs`, on by default; off compiles to no-ops);
//! * [`serve`] — the network-facing diagnosis service: a std-only
//!   HTTP/1.1 server that coalesces concurrent `POST /diagnose`
//!   requests into deduplicated waves, with bounded-backlog admission
//!   control and metrics/trace endpoints.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the paper-vs-measured record. The runnable
//! examples live in `examples/`:
//!
//! ```bash
//! cargo run --example quickstart
//! cargo run --example three_stage_amplifier
//! cargo run --example diode_network
//! cargo run --example best_test_probing
//! cargo run --example learning_session
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use flames_atms as atms;
pub use flames_circuit as circuit;
pub use flames_core as core;
pub use flames_crisp as crisp;
pub use flames_fuzzy as fuzzy;
pub use flames_obs as obs;
pub use flames_serve as serve;
