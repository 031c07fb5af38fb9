//! Cross-shard translation and merging for the region-sharded engine.
//!
//! The sharded diagnoser (flames-core's `shard` module) runs one
//! [`crate::FuzzyAtms`] per board region group. Each shard interns only
//! the assumptions its own constraints mention, so its [`Env`] bitsets
//! stay narrow — the point of sharding on a single core is that every
//! env operation touches a fraction of the global vocabulary.
//!
//! [`ShardMap`] is the glue that makes the per-shard stores compose into
//! one global diagnosis: a bidirectional local↔global assumption
//! renaming. Boundary environments are *globalized* through the source
//! shard's map and *localized* through the target's, lazily extending
//! the target vocabulary the first time a foreign assumption crosses the
//! cut (classic rename-on-import, as in distributed ATMS labelings). The
//! globalized nogoods of every shard are merged into one plain
//! [`crate::FuzzyAtms`]; its Pareto-minimal store depends only on the
//! *set* of graded nogoods, so the merged store — and hence the ranked
//! candidates — do not depend on how the board was sharded.

use crate::assumptions::Assumption;
use crate::env::Env;

const UNBOUND: u32 = u32::MAX;

/// A bidirectional renaming between one shard's local assumption ids and
/// the global assumption vocabulary.
///
/// The map is per-session mutable (localizing a foreign boundary env may
/// extend it); sessions clone a base map captured at model build time and
/// restore it by `clone_from`, mirroring how propagator state snapshots
/// work.
#[derive(Debug, Clone, Default)]
pub struct ShardMap {
    to_global: Vec<u32>,
    to_local: Vec<u32>,
}

impl ShardMap {
    /// An empty map over a global vocabulary of `global_len` assumptions.
    #[must_use]
    pub fn new(global_len: usize) -> Self {
        Self {
            to_global: Vec::new(),
            to_local: vec![UNBOUND; global_len],
        }
    }

    /// Number of bound local assumptions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.to_global.len()
    }

    /// Whether no local assumption is bound yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.to_global.is_empty()
    }

    /// Binds `local ↔ global`. Local ids must be bound densely in order
    /// (the shard's interner hands them out that way).
    ///
    /// # Panics
    ///
    /// Panics if `local` is not the next unbound local id, if `global`
    /// is outside the global vocabulary, or if `global` is already
    /// bound.
    pub fn bind(&mut self, local: Assumption, global: Assumption) {
        assert_eq!(
            local.index(),
            self.to_global.len(),
            "local assumptions bind densely"
        );
        assert!(
            self.to_local[global.index()] == UNBOUND,
            "global assumption bound twice"
        );
        self.to_global.push(global.0);
        self.to_local[global.index()] = local.0;
    }

    /// The global assumption a local one renames, if bound.
    #[must_use]
    pub fn global_of(&self, local: Assumption) -> Option<Assumption> {
        self.to_global.get(local.index()).map(|&g| Assumption(g))
    }

    /// The local rename of a global assumption, if this shard knows it.
    #[must_use]
    pub fn local_of(&self, global: Assumption) -> Option<Assumption> {
        match self.to_local.get(global.index()) {
            Some(&l) if l != UNBOUND => Some(Assumption(l)),
            _ => None,
        }
    }

    /// Renames a local environment into the global vocabulary.
    ///
    /// # Panics
    ///
    /// Panics if the environment mentions an unbound local assumption —
    /// shard engines only derive envs over assumptions they interned, so
    /// that would be a wiring bug.
    #[must_use]
    pub fn globalize(&self, env: &Env) -> Env {
        Env::from_ids(env.iter().map(|a| {
            *self
                .to_global
                .get(a.index())
                .expect("local assumption is bound")
        }))
    }

    /// Renames a global environment into this shard's vocabulary,
    /// calling `register` to intern any assumption the shard has not
    /// seen yet (the callback returns the fresh local id, which is bound
    /// here).
    pub fn localize(
        &mut self,
        env: &Env,
        mut register: impl FnMut(Assumption) -> Assumption,
    ) -> Env {
        Env::from_ids(env.iter().map(|global| match self.local_of(global) {
            Some(local) => local.0,
            None => {
                let local = register(global);
                self.bind(local, global);
                local.0
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips_envs() {
        let mut map = ShardMap::new(10);
        map.bind(Assumption(0), Assumption(7));
        map.bind(Assumption(1), Assumption(3));
        let local = Env::from_ids([0, 1]);
        let global = map.globalize(&local);
        assert_eq!(global, Env::from_ids([3, 7]));
        let mut next = 2;
        let back = map.localize(&global, |_| {
            panic!("no registration needed: {next}");
        });
        assert_eq!(back, local);
        // A foreign global id triggers lazy registration.
        let foreign = Env::from_ids([5]);
        let localized = map.localize(&foreign, |g| {
            assert_eq!(g, Assumption(5));
            let l = Assumption(next);
            next += 1;
            l
        });
        assert_eq!(localized, Env::from_ids([2]));
        assert_eq!(map.global_of(Assumption(2)), Some(Assumption(5)));
        assert_eq!(map.local_of(Assumption(5)), Some(Assumption(2)));
    }
}
