use crate::assumptions::Assumption;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Number of `u64` words stored inline (no heap allocation) — enough for
/// 128 assumptions, which covers every circuit in the paper and then some.
const INLINE_WORDS: usize = 2;

/// Bits representable without spilling to the heap.
const INLINE_BITS: u32 = (INLINE_WORDS as u32) * 64;

/// An *environment*: a set of assumptions, stored as an inline bitset.
///
/// Environments are the currency of the ATMS — node labels are sets of
/// environments, conflicts are environments (nogoods), and diagnoses are
/// environments (hitting sets of the nogoods). They are small in practice
/// (a handful of component-correctness assumptions with dense ids), so the
/// representation is a fixed pair of `u64` words held inline — subset,
/// union and intersection tests are two word-wise bit operations, and
/// cloning never allocates. Sets touching assumption ids ≥ 128 spill to a
/// heap vector transparently.
///
/// The observable semantics (construction, iteration order, subset and
/// ordering relations) are identical to the earlier sorted-`Vec<u32>`
/// representation; only the cost model changed.
///
/// # Example
///
/// ```
/// use flames_atms::Env;
///
/// let ab = Env::from_ids([0, 1]);
/// let abc = Env::from_ids([2, 1, 0]); // order and duplicates are normalized
/// assert!(ab.is_subset_of(&abc));
/// assert_eq!(ab.union(&abc), abc);
/// ```
#[derive(Clone)]
enum Repr {
    /// All member ids < 128: two words, no allocation.
    Inline([u64; INLINE_WORDS]),
    /// Some member id ≥ 128. Invariant: `len() > INLINE_WORDS` and the
    /// last word is non-zero, so every set has exactly one representation.
    Spill(Vec<u64>),
}

/// A set of assumptions backed by an inline bitset (see the module-level
/// invariants on its private `Repr`).
#[derive(Clone)]
pub struct Env {
    repr: Repr,
}

impl Default for Env {
    fn default() -> Self {
        Self {
            repr: Repr::Inline([0; INLINE_WORDS]),
        }
    }
}

impl Env {
    /// The empty environment (holds universally).
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// A singleton environment.
    #[must_use]
    pub fn singleton(a: Assumption) -> Self {
        let mut env = Self::empty();
        env.insert(a);
        env
    }

    /// Builds an environment from raw assumption ids (order and duplicates
    /// are irrelevant).
    #[must_use]
    pub fn from_ids(ids: impl IntoIterator<Item = u32>) -> Self {
        let mut env = Self::empty();
        for id in ids {
            env.insert(Assumption(id));
        }
        env
    }

    /// Builds an environment from assumptions.
    #[must_use]
    pub fn from_assumptions(assumptions: impl IntoIterator<Item = Assumption>) -> Self {
        let mut env = Self::empty();
        for a in assumptions {
            env.insert(a);
        }
        env
    }

    /// The backing words (canonical: inline reprs are exactly
    /// `INLINE_WORDS` long, spills are longer with a non-zero last word).
    #[inline]
    fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(w) => w,
            Repr::Spill(v) => v,
        }
    }

    /// A one-word *pedigree signature*: the OR of the backing bitset
    /// words. `a.word_signature() & !b.word_signature() != 0` proves
    /// `a ⊄ b` without touching the words again — the struct-of-arrays
    /// value stores in `flames-core` keep this per entry and prefilter
    /// their subset-based dominance tests with it. (The converse does not
    /// hold: equal signatures say nothing, so a hit still runs
    /// [`Env::is_subset_of`].)
    #[must_use]
    pub fn word_signature(&self) -> u64 {
        self.words().iter().fold(0, |acc, w| acc | w)
    }

    /// Re-establishes the canonical representation after a mutation that
    /// may have cleared high bits.
    fn normalize(&mut self) {
        if let Repr::Spill(v) = &mut self.repr {
            while v.len() > INLINE_WORDS && *v.last().expect("non-empty") == 0 {
                v.pop();
            }
            if v.len() <= INLINE_WORDS {
                let mut w = [0u64; INLINE_WORDS];
                w[..v.len()].copy_from_slice(v);
                self.repr = Repr::Inline(w);
            }
        }
    }

    /// Number of assumptions in the environment.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True for the empty environment.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// True if the environment contains `a`.
    #[must_use]
    pub fn contains(&self, a: Assumption) -> bool {
        let (word, bit) = (a.0 / 64, a.0 % 64);
        self.words()
            .get(word as usize)
            .is_some_and(|w| w & (1u64 << bit) != 0)
    }

    /// Adds assumption `a` in place; returns whether the set changed.
    pub fn insert(&mut self, a: Assumption) -> bool {
        let (word, bit) = ((a.0 / 64) as usize, a.0 % 64);
        if a.0 >= INLINE_BITS {
            if let Repr::Inline(w) = &self.repr {
                let mut v = vec![0u64; word + 1];
                v[..INLINE_WORDS].copy_from_slice(w);
                self.repr = Repr::Spill(v);
            }
        }
        match &mut self.repr {
            Repr::Inline(w) => {
                let had = w[word] & (1u64 << bit) != 0;
                w[word] |= 1u64 << bit;
                !had
            }
            Repr::Spill(v) => {
                if v.len() <= word {
                    v.resize(word + 1, 0);
                }
                let had = v[word] & (1u64 << bit) != 0;
                v[word] |= 1u64 << bit;
                !had
            }
        }
    }

    /// Iterates over the assumptions in ascending id order.
    #[must_use]
    pub fn iter(&self) -> EnvIter<'_> {
        EnvIter {
            words: self.words(),
            word_idx: 0,
            current: self.words().first().copied().unwrap_or(0),
        }
    }

    /// The smallest assumption in the environment, if any.
    #[must_use]
    pub fn first(&self) -> Option<Assumption> {
        for (i, &w) in self.words().iter().enumerate() {
            if w != 0 {
                return Some(Assumption(i as u32 * 64 + w.trailing_zeros()));
            }
        }
        None
    }

    /// Set union (the environment of a conjunction of antecedents).
    #[must_use]
    pub fn union(&self, other: &Self) -> Self {
        let (a, b) = (self.words(), other.words());
        if a.len() <= INLINE_WORDS && b.len() <= INLINE_WORDS {
            let mut w = [0u64; INLINE_WORDS];
            for (i, slot) in w.iter_mut().enumerate() {
                *slot = a.get(i).copied().unwrap_or(0) | b.get(i).copied().unwrap_or(0);
            }
            return Self {
                repr: Repr::Inline(w),
            };
        }
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut v = long.to_vec();
        for (slot, &w) in v.iter_mut().zip(short) {
            *slot |= w;
        }
        // Canonical: `long`'s last word was non-zero, so no trim is needed.
        Self {
            repr: Repr::Spill(v),
        }
    }

    /// In-place union; returns whether `self` gained any assumption.
    pub fn union_with(&mut self, other: &Self) -> bool {
        let b = other.words();
        if b.len() > self.words().len() {
            // Delegate to the allocating path for the rare spill growth.
            let merged = self.union(other);
            let changed = merged != *self;
            *self = merged;
            return changed;
        }
        let mut changed = false;
        match &mut self.repr {
            Repr::Inline(w) => {
                for (slot, &bw) in w.iter_mut().zip(b) {
                    changed |= bw & !*slot != 0;
                    *slot |= bw;
                }
            }
            Repr::Spill(v) => {
                for (slot, &bw) in v.iter_mut().zip(b) {
                    changed |= bw & !*slot != 0;
                    *slot |= bw;
                }
            }
        }
        changed
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(&self, other: &Self) -> Self {
        let (a, b) = (self.words(), other.words());
        let mut w = [0u64; INLINE_WORDS];
        if a.len() <= INLINE_WORDS || b.len() <= INLINE_WORDS {
            for (i, slot) in w.iter_mut().enumerate() {
                *slot = a.get(i).copied().unwrap_or(0) & b.get(i).copied().unwrap_or(0);
            }
            return Self {
                repr: Repr::Inline(w),
            };
        }
        let mut v: Vec<u64> = a.iter().zip(b).map(|(&x, &y)| x & y).collect();
        let mut env = Self {
            repr: Repr::Spill(std::mem::take(&mut v)),
        };
        env.normalize();
        env
    }

    /// Subset test (`self ⊆ other`): word-wise `self & !other == 0`.
    #[must_use]
    pub fn is_subset_of(&self, other: &Self) -> bool {
        let (a, b) = (self.words(), other.words());
        if a.len() > b.len() {
            // Canonical spill ⇒ `a` has a set bit beyond `b`'s words.
            // (Inline vs inline is always equal-length.)
            if a[b.len()..].iter().any(|&w| w != 0) {
                return false;
            }
        }
        a.iter().zip(b).all(|(&x, &y)| x & !y == 0)
    }

    /// True when the two environments share at least one assumption — i.e.
    /// `self` *hits* the conflict set `other`.
    #[must_use]
    pub fn intersects(&self, other: &Self) -> bool {
        self.words()
            .iter()
            .zip(other.words())
            .any(|(&x, &y)| x & y != 0)
    }

    /// Returns `self` with assumption `a` added.
    #[must_use]
    pub fn with(&self, a: Assumption) -> Self {
        let mut env = self.clone();
        env.insert(a);
        env
    }

    /// Returns `self` with assumption `a` removed (if present).
    #[must_use]
    pub fn without(&self, a: Assumption) -> Self {
        let mut env = self.clone();
        let (word, bit) = ((a.0 / 64) as usize, a.0 % 64);
        match &mut env.repr {
            Repr::Inline(w) => {
                if word < INLINE_WORDS {
                    w[word] &= !(1u64 << bit);
                }
            }
            Repr::Spill(v) => {
                if word < v.len() {
                    v[word] &= !(1u64 << bit);
                }
            }
        }
        env.normalize();
        env
    }

    /// A 64-bit summary with the property `A ⊆ B ⇒ sig(A) & !sig(B) == 0`
    /// (each member id sets bit `id % 64`). Used as a constant-time
    /// prefilter in front of exact subset tests — the word-signature half
    /// of the subsumption index.
    #[must_use]
    pub fn signature(&self) -> u64 {
        self.words().iter().fold(0, |acc, &w| acc | w)
    }
}

impl PartialEq for Env {
    fn eq(&self, other: &Self) -> bool {
        // Canonical representations make word-slice equality exact.
        self.words() == other.words()
    }
}

impl Eq for Env {}

impl Hash for Env {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.words().hash(state);
    }
}

impl PartialOrd for Env {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Env {
    /// Lexicographic over the ascending member-id sequences — the same
    /// total order the sorted-vector representation derived, preserved so
    /// sorted outputs (diagnosis lists, test expectations) are unchanged.
    fn cmp(&self, other: &Self) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

impl fmt::Debug for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Env{self}")
    }
}

impl FromIterator<Assumption> for Env {
    fn from_iter<I: IntoIterator<Item = Assumption>>(iter: I) -> Self {
        Self::from_assumptions(iter)
    }
}

/// Iterator over the assumptions of an [`Env`] in ascending id order.
#[derive(Debug, Clone)]
pub struct EnvIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for EnvIter<'_> {
    type Item = Assumption;

    fn next(&mut self) -> Option<Assumption> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1; // clear lowest set bit
        Some(Assumption(self.word_idx as u32 * 64 + bit))
    }
}

impl<'a> IntoIterator for &'a Env {
    type Item = Assumption;
    type IntoIter = EnvIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Display for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, a) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "A{}", a.0)?;
        }
        write!(f, "}}")
    }
}

/// Removes every environment that is a proper superset of another in the
/// list (and exact duplicates), leaving the ⊆-minimal antichain.
///
/// Sorting by cardinality means every potential subsumer precedes its
/// victims; the signature prefilter rejects most candidate pairs in one
/// AND-NOT before the exact word-wise test runs.
///
/// Used for label minimization and nogood-set maintenance.
#[must_use]
pub fn minimize(mut envs: Vec<Env>) -> Vec<Env> {
    envs.sort_by_key(Env::len);
    let mut keep: Vec<Env> = Vec::with_capacity(envs.len());
    let mut keep_sigs: Vec<u64> = Vec::with_capacity(envs.len());
    for e in envs {
        let sig = e.signature();
        let dominated = keep
            .iter()
            .zip(&keep_sigs)
            .any(|(k, &ks)| ks & !sig == 0 && k.is_subset_of(&e));
        if !dominated {
            keep.push(e);
            keep_sigs.push(sig);
        }
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(ids: &[u32]) -> Env {
        Env::from_ids(ids.iter().copied())
    }

    #[test]
    fn construction_normalizes() {
        assert_eq!(env(&[3, 1, 2, 1]), env(&[1, 2, 3]));
        assert_eq!(Env::empty().len(), 0);
        assert!(Env::empty().is_empty());
        assert_eq!(Env::singleton(Assumption(5)), env(&[5]));
    }

    #[test]
    fn union_merges_sorted() {
        assert_eq!(env(&[1, 3]).union(&env(&[2, 3, 4])), env(&[1, 2, 3, 4]));
        assert_eq!(Env::empty().union(&env(&[7])), env(&[7]));
        assert_eq!(env(&[7]).union(&Env::empty()), env(&[7]));
    }

    #[test]
    fn subset_tests() {
        assert!(Env::empty().is_subset_of(&env(&[1])));
        assert!(env(&[1, 3]).is_subset_of(&env(&[1, 2, 3])));
        assert!(!env(&[1, 4]).is_subset_of(&env(&[1, 2, 3])));
        assert!(!env(&[1, 2, 3]).is_subset_of(&env(&[1, 2])));
        assert!(env(&[2]).is_subset_of(&env(&[2])));
    }

    #[test]
    fn intersects_detects_hits() {
        assert!(env(&[1, 5]).intersects(&env(&[5, 9])));
        assert!(!env(&[1, 5]).intersects(&env(&[2, 9])));
        assert!(!Env::empty().intersects(&env(&[1])));
    }

    #[test]
    fn with_and_without() {
        let e = env(&[1, 3]);
        assert_eq!(e.with(Assumption(2)), env(&[1, 2, 3]));
        assert_eq!(e.with(Assumption(3)), e);
        assert_eq!(e.without(Assumption(3)), env(&[1]));
        assert_eq!(e.without(Assumption(9)), e);
    }

    #[test]
    fn contains_and_iter() {
        let e = env(&[2, 4]);
        assert!(e.contains(Assumption(2)));
        assert!(!e.contains(Assumption(3)));
        let ids: Vec<u32> = e.iter().map(|a| a.0).collect();
        assert_eq!(ids, vec![2, 4]);
        let collected: Env = e.iter().collect();
        assert_eq!(collected, e);
    }

    #[test]
    fn minimize_keeps_antichain() {
        let out = minimize(vec![
            env(&[1, 2, 3]),
            env(&[1, 2]),
            env(&[4]),
            env(&[1, 2]),
            env(&[4, 5]),
        ]);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&env(&[1, 2])));
        assert!(out.contains(&env(&[4])));
    }

    #[test]
    fn minimize_empty_env_dominates_all() {
        let out = minimize(vec![env(&[1]), Env::empty(), env(&[2, 3])]);
        assert_eq!(out, vec![Env::empty()]);
    }

    #[test]
    fn display_renders_ids() {
        assert_eq!(format!("{}", env(&[1, 2])), "{A1, A2}");
        assert_eq!(format!("{}", Env::empty()), "{}");
    }

    // ----- bitset-specific coverage -----------------------------------

    #[test]
    fn spill_roundtrip_beyond_inline_capacity() {
        // Ids straddling the 128-bit inline boundary.
        let ids = [0u32, 63, 64, 127, 128, 200, 300];
        let e = env(&ids);
        assert_eq!(e.len(), ids.len());
        let back: Vec<u32> = e.iter().map(|a| a.0).collect();
        assert_eq!(back, ids.to_vec());
        for &id in &ids {
            assert!(e.contains(Assumption(id)));
        }
        assert!(!e.contains(Assumption(129)));
        assert!(!e.contains(Assumption(1000)));
    }

    #[test]
    fn spill_normalizes_back_to_inline() {
        // Removing the only high bit must restore the inline representation
        // so equality and hashing stay canonical.
        let e = env(&[1, 200]).without(Assumption(200));
        assert_eq!(e, env(&[1]));
        let mut h1 = std::collections::hash_map::DefaultHasher::new();
        let mut h2 = std::collections::hash_map::DefaultHasher::new();
        e.hash(&mut h1);
        env(&[1]).hash(&mut h2);
        assert_eq!(
            std::hash::Hasher::finish(&h1),
            std::hash::Hasher::finish(&h2)
        );
    }

    #[test]
    fn mixed_inline_spill_set_ops() {
        let small = env(&[1, 5]);
        let big = env(&[1, 5, 130]);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(small.intersects(&big));
        assert_eq!(small.union(&big), big);
        assert_eq!(big.union(&small), big);
        assert_eq!(small.intersection(&big), small);
        assert_eq!(big.without(Assumption(130)), small);
        assert!(!env(&[200]).is_subset_of(&env(&[1])));
        assert!(!env(&[200]).intersects(&env(&[1])));
    }

    #[test]
    fn ordering_matches_sorted_sequence_semantics() {
        // The derived order of the old sorted-vec representation:
        // lexicographic over ascending id sequences, prefix-first.
        let mut envs = vec![
            env(&[1, 2]),
            env(&[0, 5]),
            env(&[1]),
            Env::empty(),
            env(&[0]),
            env(&[0, 1, 2]),
        ];
        envs.sort();
        assert_eq!(
            envs,
            vec![
                Env::empty(),
                env(&[0]),
                env(&[0, 1, 2]),
                env(&[0, 5]),
                env(&[1]),
                env(&[1, 2]),
            ]
        );
    }

    #[test]
    fn union_with_reports_change() {
        let mut e = env(&[1]);
        assert!(e.union_with(&env(&[2])));
        assert!(!e.union_with(&env(&[1, 2])));
        assert_eq!(e, env(&[1, 2]));
        assert!(e.union_with(&env(&[300])));
        assert_eq!(e, env(&[1, 2, 300]));
    }

    #[test]
    fn first_and_signature() {
        assert_eq!(Env::empty().first(), None);
        assert_eq!(env(&[7, 3]).first(), Some(Assumption(3)));
        assert_eq!(env(&[130]).first(), Some(Assumption(130)));
        // Signature is a sound subset prefilter.
        let (a, b) = (env(&[1, 3]), env(&[1, 2, 3]));
        assert_eq!(a.signature() & !b.signature(), 0);
    }
}
