//! The FLAMES diagnosis engine — the paper's primary contribution.
//!
//! FLAMES ("A Fuzzy Logic ATMS and Model-based Expert System", Mohamed,
//! Marzouki, Touati — ED&TC 1996) diagnoses faulty analog devices,
//! especially *soft* (parametric) faults, by combining:
//!
//! * **fuzzy interval propagation** with assumption tracking
//!   ([`propagation`], §6.1.1 of the paper);
//! * the **degree of consistency** `Dc` grading every coincidence between
//!   predicted and measured values (§6.1.2);
//! * a **fuzzy ATMS** collecting graded nogoods and ranking candidate
//!   sets (§6.1.3, kernel in `flames-atms`);
//! * **fault models** — common fault modes as fuzzy sets over parameter
//!   deviation ([`fault_model`], §7);
//! * **learning from experience** — symptom→failure rules with certainty
//!   degrees ([`learning`], §7);
//! * **best-test strategies** driven by fuzzy entropy ([`strategy`], §8).
//!
//! The [`Diagnoser`] ties everything to a circuit: build it from a
//! netlist, open a [`Session`], feed measurements, and read ranked
//! [`Candidate`]s.
//!
//! # Example
//!
//! ```
//! use flames_circuit::{predict::TestPoint, Net, Netlist};
//! use flames_core::{Diagnoser, DiagnoserConfig};
//! use flames_fuzzy::FuzzyInterval;
//!
//! # fn main() -> Result<(), flames_core::CoreError> {
//! let mut nl = Netlist::new();
//! let vin = nl.add_net("vin");
//! let mid = nl.add_net("mid");
//! nl.add_voltage_source("V", vin, Net::GROUND, 10.0)?;
//! let r1 = nl.add_resistor("R1", vin, mid, 1000.0, 0.05)?;
//! let r2 = nl.add_resistor("R2", mid, Net::GROUND, 1000.0, 0.05)?;
//! let points = vec![TestPoint::new(mid, "Vmid", vec![r1, r2])];
//! let diagnoser = Diagnoser::from_netlist(&nl, points, DiagnoserConfig::default())?;
//! let mut session = diagnoser.session();
//! // The board reads 6.2 V where ~5 V is expected: R2 high or R1 low.
//! session.measure("Vmid", FuzzyInterval::crisp(6.2).widened(0.05)?)?;
//! session.propagate();
//! let candidates = session.candidates(2, 32);
//! assert!(!candidates.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod flames;

pub mod dynamic;
pub mod fault_model;
pub mod learning;
pub mod propagation;
pub mod rule_store;
pub mod rules;
pub mod shard;
pub mod strategy;
pub mod trace;

pub use engine::{
    diagnose_batch_lanes, Board, Candidate, CompiledModel, Diagnoser, DiagnoserConfig, PointReport,
    Report, Session, SessionPool,
};
pub use error::CoreError;
pub use flames::{DiagnosisOutcome, Flames, FlamesConfig};
pub use rule_store::{
    board_symptoms, diagnose_batch_lanes_cached, rule_hit_report, CacheConfig, CacheDecision,
    CachedReport, GradedBoard, RuleProvenance, RuleSnapshot, RuleStore,
};
pub use shard::{ShardReport, ShardedModel, ShardedSession};

/// Convenient result alias for fallible engine operations.
pub type Result<T, E = CoreError> = std::result::Result<T, E>;
