//! Diagnosis traces: a [`Session`]'s belief history as a deterministic
//! [`flames_obs::Trace`].
//!
//! # Schema
//!
//! One trace per session, on flames-obs's logical clock (timestamps are
//! derivation order, not wall time — identical work yields a
//! byte-identical export, which is what lets the cold/compiled/pooled
//! serving paths be cross-checked at the trace level).
//!
//! | event | ph | cat | args |
//! |---|---|---|---|
//! | `wave N` | `X` | `core` | `steps`, `coincidences`, `nogoods` (totals after the wave) |
//! | `corroboration` / `split` / `partial_conflict` / `total_conflict` | `i` | `core` | `quantity`, `dc`, `direction`, `env` |
//! | `nogood` | `i` | `atms` | `env`, `degree` (final store, strongest first) |
//! | `candidate` | `i` | `rank` | `members`, `degree` (minimal hitting sets, rank order) |
//! | `refined` | `i` | `rank` | `members`, `degree` (single-fault refinement, rank order) |
//!
//! Coincidence instants are nested inside the wave span that recorded
//! them (the propagator's coincidence log is append-only, so the
//! per-wave cumulative counts slice it exactly). Nogood instants come
//! after all waves: the graded store is Pareto-minimized in place, so
//! a per-wave attribution would show entries that later dominance
//! sweeps removed.
//!
//! Export with [`flames_obs::Trace::to_chrome_json`] and load the
//! result in `about:tracing` or Perfetto.

use crate::engine::Session;
use crate::propagation::CoincidenceKind;
use flames_obs::{ArgValue, Trace};

/// One [`Session::propagate`] call: the work it did and the cumulative
/// state it left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveRecord {
    /// Constraint applications performed by this wave.
    pub steps: usize,
    /// Total coincidences recorded after this wave (the coincidence log
    /// is append-only, so consecutive totals delimit each wave's slice).
    pub coincidences_total: usize,
    /// Total graded nogoods in the store after this wave (the store is
    /// Pareto-minimal, so this can shrink between waves).
    pub nogoods_total: usize,
}

/// Builds the diagnosis trace of a session (see the module docs for the
/// event schema). Pure read: the session is not mutated, and calling it
/// twice yields equal traces.
#[must_use]
pub fn diagnosis_trace(session: &Session<'_>) -> Trace {
    let mut trace = Trace::new();
    let prop = session.propagator();
    let pool = prop.schedule().pool();
    let network = session.diagnoser().network();
    let coincidences = prop.coincidences();
    let mut seen = 0usize;
    for (i, wave) in session.waves().iter().enumerate() {
        let start = trace.now();
        for record in &coincidences[seen..wave.coincidences_total.min(coincidences.len())] {
            let name = match record.kind {
                CoincidenceKind::Corroboration => "corroboration",
                CoincidenceKind::Split => "split",
                CoincidenceKind::PartialConflict => "partial_conflict",
                CoincidenceKind::TotalConflict => "total_conflict",
            };
            trace.instant(
                name,
                "core",
                vec![
                    (
                        "quantity".into(),
                        network.quantity_name(record.quantity).into(),
                    ),
                    ("dc".into(), record.consistency.degree().into()),
                    (
                        "direction".into(),
                        record.consistency.direction().to_string().into(),
                    ),
                    ("env".into(), pool.render(record.env.iter()).into()),
                ],
            );
        }
        seen = wave.coincidences_total.min(coincidences.len());
        trace.complete(
            format!("wave {i}"),
            "core",
            start,
            vec![
                ("steps".into(), ArgValue::U64(wave.steps as u64)),
                (
                    "coincidences".into(),
                    ArgValue::U64(wave.coincidences_total as u64),
                ),
                ("nogoods".into(), ArgValue::U64(wave.nogoods_total as u64)),
            ],
        );
    }
    for nogood in prop.atms().sorted_nogoods() {
        trace.instant(
            "nogood",
            "atms",
            vec![
                ("env".into(), pool.render(nogood.env.iter()).into()),
                ("degree".into(), nogood.degree.into()),
            ],
        );
    }
    // Candidate ranking, mirroring Session::report's cuts.
    for candidate in session.candidates(3, 64) {
        trace.instant(
            "candidate",
            "rank",
            vec![
                ("members".into(), candidate.members.join(", ").into()),
                ("degree".into(), candidate.degree.into()),
            ],
        );
    }
    for candidate in session.refined_candidates(16, 0.5) {
        trace.instant(
            "refined",
            "rank",
            vec![
                ("members".into(), candidate.members.join(", ").into()),
                ("degree".into(), candidate.degree.into()),
            ],
        );
    }
    trace
}
