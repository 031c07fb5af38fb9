//! Hash-consed environment interning — the [`EnvTable`].
//!
//! The ATMS engines test the same few environments against each other over
//! and over: every label merge, nogood installation and consistency check
//! is a stream of subset tests. Interning gives each distinct [`Env`] a
//! dense [`EnvId`] so that
//!
//! * equality is a single integer compare,
//! * the per-environment **subsumption-index metadata** — cardinality and
//!   64-bit word signature — is computed once and reused by every query
//!   (`A ⊆ B` requires `|A| ≤ |B|` and `sig(A) & !sig(B) == 0`, both
//!   constant-time), and
//! * node labels and nogood stores shrink to flat `(EnvId, degree)` pairs.

use crate::env::Env;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::collections::VecDeque;

/// Identifier of an interned environment in an [`EnvTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EnvId(u32);

impl EnvId {
    /// The raw table index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct EnvMeta {
    env: Env,
    /// Cached cardinality (the length half of the subsumption index).
    len: u32,
    /// Cached word signature (the signature half of the subsumption index).
    sig: u64,
}

/// Subsumption-test accounting accumulated in plain (non-atomic)
/// fields. Hot loops keep one on the stack and [`SubsetStats::flush`]
/// it to the global counters once per loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubsetStats {
    /// Subset tests performed (id-equal fast hits excluded).
    pub checks: u64,
    /// Tests answered `false` by the length/signature prefilter alone.
    pub prefilter_rejects: u64,
}

impl SubsetStats {
    /// Adds the accumulated counts to the global metrics (one atomic
    /// add per field, no-op when observability is compiled out).
    pub fn flush(&self) {
        let m = flames_obs::metrics();
        m.subsumption_checks.add(self.checks);
        m.prefilter_rejects.add(self.prefilter_rejects);
    }
}

/// A hash-consing table mapping environments to dense [`EnvId`]s, with the
/// per-environment subsumption-index metadata cached at intern time.
///
/// # Example
///
/// ```
/// use flames_atms::{Env, EnvTable};
///
/// let mut table = EnvTable::new();
/// let ab = table.intern(&Env::from_ids([0, 1]));
/// let ab2 = table.intern(&Env::from_ids([1, 0]));
/// assert_eq!(ab, ab2); // hash-consed: equal sets share an id
/// let abc = table.intern(&Env::from_ids([0, 1, 2]));
/// assert!(table.is_subset(ab, abc));
/// assert!(!table.is_subset(abc, ab));
/// ```
#[derive(Debug, Clone, Default)]
pub struct EnvTable {
    envs: Vec<EnvMeta>,
    index: HashMap<Env, EnvId>,
}

impl EnvTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct environments interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.envs.len()
    }

    /// True when nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.envs.is_empty()
    }

    /// Interns an environment, returning its dense id (existing ids are
    /// reused — the clone happens only on first sight).
    pub fn intern(&mut self, env: &Env) -> EnvId {
        if let Some(&id) = self.index.get(env) {
            flames_obs::metrics().env_intern_hits.incr();
            return id;
        }
        flames_obs::metrics().env_intern_misses.incr();
        let id = EnvId(u32::try_from(self.envs.len()).expect("< 2^32 environments"));
        self.envs.push(EnvMeta {
            env: env.clone(),
            len: u32::try_from(env.len()).expect("fits"),
            sig: env.signature(),
        });
        self.index.insert(env.clone(), id);
        id
    }

    /// Interns an owned environment without cloning on first sight.
    pub fn intern_owned(&mut self, env: Env) -> EnvId {
        match self.index.entry(env) {
            Entry::Occupied(o) => {
                flames_obs::metrics().env_intern_hits.incr();
                *o.get()
            }
            Entry::Vacant(v) => {
                flames_obs::metrics().env_intern_misses.incr();
                let id = EnvId(u32::try_from(self.envs.len()).expect("< 2^32 environments"));
                self.envs.push(EnvMeta {
                    env: v.key().clone(),
                    len: u32::try_from(v.key().len()).expect("fits"),
                    sig: v.key().signature(),
                });
                v.insert(id);
                id
            }
        }
    }

    /// The environment an id stands for.
    ///
    /// # Panics
    ///
    /// Panics for an id from a different table.
    #[must_use]
    pub fn env(&self, id: EnvId) -> &Env {
        &self.envs[id.index()].env
    }

    /// Cached cardinality of an interned environment.
    #[must_use]
    pub fn card(&self, id: EnvId) -> usize {
        self.envs[id.index()].len as usize
    }

    /// Cached word signature of an interned environment.
    #[must_use]
    pub fn sig(&self, id: EnvId) -> u64 {
        self.envs[id.index()].sig
    }

    /// Subset test between interned environments: id equality, then the
    /// length/signature prefilter, then the exact word-wise test.
    #[must_use]
    pub fn is_subset(&self, a: EnvId, b: EnvId) -> bool {
        let mut stats = SubsetStats::default();
        let result = self.is_subset_counted(a, b, &mut stats);
        stats.flush();
        result
    }

    /// [`EnvTable::is_subset`] with check/prefilter accounting
    /// accumulated into plain locals. Hot loops pass one `stats` for the
    /// whole loop and flush it to the global counters once — an atomic
    /// increment per *subset test* costs the kernel double-digit
    /// percents on the bench workloads.
    #[must_use]
    pub fn is_subset_counted(&self, a: EnvId, b: EnvId, stats: &mut SubsetStats) -> bool {
        if a == b {
            return true;
        }
        stats.checks += 1;
        let (ma, mb) = (&self.envs[a.index()], &self.envs[b.index()]);
        if ma.len > mb.len || ma.sig & !mb.sig != 0 {
            stats.prefilter_rejects += 1;
            return false;
        }
        ma.env.is_subset_of(&mb.env)
    }

    /// Prefiltered subset test of an interned environment against a raw
    /// candidate with a precomputed signature.
    #[must_use]
    pub fn is_subset_of_raw(&self, a: EnvId, env: &Env, sig: u64) -> bool {
        let ma = &self.envs[a.index()];
        ma.sig & !sig == 0 && ma.env.is_subset_of(env)
    }

    /// [`EnvTable::is_subset_counted`] with a raw right-hand side of
    /// precomputed cardinality and signature: the same verdict and the
    /// same accounting as interning `env` first, since an equal
    /// environment is exactly what would have shared `a`'s id.
    pub(crate) fn is_subset_of_raw_counted(
        &self,
        a: EnvId,
        env: &Env,
        len: usize,
        sig: u64,
        stats: &mut SubsetStats,
    ) -> bool {
        let ma = &self.envs[a.index()];
        if ma.len as usize == len && ma.sig == sig && ma.env == *env {
            return true;
        }
        stats.checks += 1;
        if ma.len as usize > len || ma.sig & !sig != 0 {
            stats.prefilter_rejects += 1;
            return false;
        }
        ma.env.is_subset_of(env)
    }
}

/// A FIFO work queue over dense `u32` ids with a word-packed membership
/// mask, replacing `O(n)` `VecDeque::contains` scans with one bit probe.
#[derive(Debug, Clone, Default)]
pub(crate) struct DirtyQueue {
    queue: VecDeque<u32>,
    member: Vec<u64>,
}

impl DirtyQueue {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Enqueues `id` unless it is already pending.
    pub(crate) fn push(&mut self, id: u32) {
        let (word, bit) = ((id / 64) as usize, id % 64);
        if self.member.len() <= word {
            self.member.resize(word + 1, 0);
        }
        if self.member[word] & (1u64 << bit) == 0 {
            self.member[word] |= 1u64 << bit;
            self.queue.push_back(id);
        }
    }

    /// Pops the oldest pending id (which may immediately be re-queued by
    /// further label changes, as in the original scan-based queue).
    pub(crate) fn pop(&mut self) -> Option<u32> {
        let id = self.queue.pop_front()?;
        let (word, bit) = ((id / 64) as usize, id % 64);
        self.member[word] &= !(1u64 << bit);
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut t = EnvTable::new();
        let a = t.intern(&Env::from_ids([1, 2]));
        let b = t.intern(&Env::from_ids([2, 1]));
        let c = t.intern(&Env::from_ids([3]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.len(), 2);
        assert_eq!(t.env(a), &Env::from_ids([1, 2]));
        assert_eq!(t.card(a), 2);
        assert_eq!(t.card(c), 1);
        let d = t.intern_owned(Env::from_ids([1, 2]));
        assert_eq!(d, a);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn subset_queries_use_metadata() {
        let mut t = EnvTable::new();
        let ab = t.intern(&Env::from_ids([0, 1]));
        let abc = t.intern(&Env::from_ids([0, 1, 2]));
        let cd = t.intern(&Env::from_ids([2, 3]));
        assert!(t.is_subset(ab, ab));
        assert!(t.is_subset(ab, abc));
        assert!(!t.is_subset(abc, ab));
        assert!(!t.is_subset(cd, abc));
        let probe = Env::from_ids([0, 1, 2, 3]);
        let sig = probe.signature();
        assert!(t.is_subset_of_raw(cd, &probe, sig));
        assert!(t.is_subset_of_raw(ab, &probe, sig));
    }

    #[test]
    fn dirty_queue_deduplicates_while_pending() {
        let mut q = DirtyQueue::new();
        q.push(3);
        q.push(100);
        q.push(3); // duplicate while pending: ignored
        assert_eq!(q.pop(), Some(3));
        q.push(3); // no longer pending: accepted again
        assert_eq!(q.pop(), Some(100));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }
}
