//! Assumption-based truth maintenance for the FLAMES analog-diagnosis
//! system.
//!
//! Two engines live here:
//!
//! * [`Atms`] — a classic de Kleer ATMS (the paper's ref \[14\]): nodes carry
//!   *labels* (minimal sets of assumption [`Env`]ironments under which they
//!   hold), justifications propagate environments, and environments derived
//!   for the contradiction node become *nogoods* that prune every label.
//!   The crisp interval baseline runs on it.
//! * [`FuzzyAtms`] — the graded nogood store of the paper's §6 fuzzy
//!   ATMS. Nogoods are *graded* — a partial conflict (degree < 1) does
//!   not erase an environment, it lowers its plausibility — and ranked
//!   candidates come out of the conflicts. This is what lets FLAMES rank
//!   candidate sets instead of drowning in them. The §6 labels (fuzzy
//!   values with the environment and degree of their derivation) live in
//!   the propagation engine of `flames-core`, which feeds every conflict
//!   it recognizes into this store.
//!
//! Diagnosis candidates are minimal hitting sets of the nogood collection
//! ([`hitting::minimal_hitting_sets`]), ranked by the suspicion degrees the
//! graded nogoods induce ([`FuzzyAtms::ranked_diagnoses`]).
//!
//! # Example
//!
//! The paper's Fig. 5 nogoods and candidates:
//!
//! ```
//! use flames_atms::{hitting::minimal_hitting_sets, Env};
//!
//! // Nogood {r1, d1} and nogood {r2, d1} (assumption ids 0 = d1, 1 = r1, 2 = r2).
//! let nogoods = vec![Env::from_ids([1, 0]), Env::from_ids([2, 0])];
//! let mut candidates = minimal_hitting_sets(&nogoods, usize::MAX, 64);
//! candidates.sort_by_key(Env::len);
//! assert_eq!(candidates, vec![Env::from_ids([0]), Env::from_ids([1, 2])]);
//! // "CANDIDATES: [d1] or [r1, r2]".
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assumptions;
mod atms;
mod candidates;
mod env;
mod error;
mod fuzzy_atms;
mod interner;
mod shard;

pub mod hitting;

pub use assumptions::{Assumption, AssumptionPool};
pub use atms::{Atms, JustificationId, NodeId};
pub use candidates::CandidateSet;
pub use env::{minimize, Env, EnvIter};
pub use error::AtmsError;
pub use fuzzy_atms::{FuzzyAtms, Nogood, RankedDiagnosis, TNorm};
pub use interner::{EnvId, EnvTable, SubsetStats};
pub use shard::ShardMap;

/// Convenient result alias for fallible ATMS operations.
pub type Result<T, E = AtmsError> = std::result::Result<T, E>;

// ---------------------------------------------------------------------
// Static thread-safety audit: the compile-once/serve-many split shares
// one compiled model (and thus the interned environment vocabulary)
// across worker threads, so every per-model type must be `Send + Sync`.
// All crates forbid `unsafe`, so these hold by construction; the
// assertions turn an accidental `Rc`/`RefCell` regression into a compile
// error instead of a distant build break in `flames-core`.
// ---------------------------------------------------------------------

const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<Env>();
    assert_send_sync::<EnvTable>();
    assert_send_sync::<Assumption>();
    assert_send_sync::<AssumptionPool>();
    assert_send_sync::<Atms>();
    assert_send_sync::<FuzzyAtms>();
    assert_send_sync::<Nogood>();
    assert_send_sync::<RankedDiagnosis>();
    assert_send_sync::<CandidateSet>();
    assert_send_sync::<ShardMap>();
};
