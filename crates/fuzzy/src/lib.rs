//! Fuzzy-logic substrate of the FLAMES analog-diagnosis system.
//!
//! This crate implements the mathematical kernel described in sections 3, 4,
//! 6.1.2 and 8 of *"FLAMES: A Fuzzy Logic ATMS and Model-based Expert System
//! for Analog Diagnosis"* (Mohamed, Marzouki, Touati — ED&TC 1996):
//!
//! * [`FuzzyInterval`] — trapezoidal possibility distributions
//!   `[m1, m2, α, β]` (the paper's Fig. 1) that uniformly represent crisp
//!   numbers, crisp intervals, fuzzy numbers and fuzzy intervals;
//! * [`arith`] — the LR (Bonissone & Decker style) fuzzy arithmetic the
//!   paper propagates circuit values with;
//! * [`Pwl`] — exact piecewise-linear membership functions used for
//!   intersections, unions and areas;
//! * [`Consistency`] — the *degree of consistency*
//!   `Dc = area(Vm ⊓ Vn) / area(Vm)` with a deviation direction, the paper's
//!   fault-grading primitive (§6.1.2);
//! * [`LinguisticTerm`] / [`TermSet`] — linguistic decompositions of `[0,1]`
//!   used for faultiness estimations (§8.1);
//! * [`entropy`] — fuzzy Shannon entropy over fuzzy estimations (§8.2);
//! * [`qualitative`] — order-of-magnitude operators defined by fuzzy sets
//!   (the paper's §4.2 discussion and its ref \[10\]).
//!
//! # Example
//!
//! Reproducing the first row of the paper's Fig. 2 propagation table:
//!
//! ```
//! use flames_fuzzy::FuzzyInterval;
//!
//! # fn main() -> Result<(), flames_fuzzy::FuzzyError> {
//! let va = FuzzyInterval::crisp_interval(2.95, 3.05)?; // input, crisp case
//! let amp1 = FuzzyInterval::new(1.0, 1.0, 0.05, 0.05)?; // gain with tolerance
//! let vb = va.mul(&amp1)?;
//! assert!((vb.spread_left() - 0.15).abs() < 5e-3);
//! assert!((vb.spread_right() - 0.15).abs() < 5e-3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod consistency;
mod error;
mod linguistic;
mod pwl;
mod trapezoid;

pub mod arith;
pub mod entropy;
pub mod qualitative;
pub mod simd;

pub use consistency::{Consistency, Direction};
pub use error::FuzzyError;
pub use linguistic::{LinguisticTerm, TermSet};
pub use pwl::Pwl;
pub use trapezoid::FuzzyInterval;

/// Convenient result alias for fallible fuzzy-calculus operations.
pub type Result<T, E = FuzzyError> = std::result::Result<T, E>;
