//! Randomized property suites for the ATMS engines: observational
//! equivalence of the bitset [`Env`] against a sorted-set reference
//! model, classic label invariants (soundness, minimality, consistency),
//! hitting-set correctness, and the grading laws of the graded nogood
//! store.
//!
//! Dependency-free: cases are generated with an inline SplitMix64 and
//! checked with plain `assert!`. Gated behind `--features proptest`
//! (the historical feature name) because the suites are slow, not
//! because they need the external crate.

use flames_atms::hitting::{is_hitting_set, minimal_hitting_sets};
use flames_atms::{minimize, Assumption, Atms, CandidateSet, Env, FuzzyAtms};
use std::collections::BTreeSet;

/// SplitMix64 — the same mixer as `flames_bench::rng`, inlined because
/// integration tests cannot depend on the bench crate.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// A random id set of up to `max_len` ids below `universe`.
fn rand_ids(r: &mut Rng, universe: u32, max_len: usize) -> BTreeSet<u32> {
    let n = r.below(max_len as u64 + 1) as usize;
    (0..n)
        .map(|_| r.below(u64::from(universe)) as u32)
        .collect()
}

fn rand_env(r: &mut Rng, universe: u32, max_len: usize) -> Env {
    Env::from_ids(rand_ids(r, universe, max_len))
}

const CASES: usize = 300;

// ----- bitset Env vs sorted-set model ----------------------------------

/// The reference model: every Env operation restated over `BTreeSet<u32>`.
/// The bitset must agree observationally on every probe — including
/// across the inline→spill boundary (ids up to 300 force spilled words).
#[test]
fn env_is_observationally_a_sorted_set() {
    let mut r = Rng(0xE75);
    for case in 0..CASES {
        // Mix small and large universes so both inline and spilled
        // representations (and their interactions) are exercised.
        let universe = if case % 3 == 0 { 300 } else { 100 };
        let ma = rand_ids(&mut r, universe, 8);
        let mb = rand_ids(&mut r, universe, 8);
        let a = Env::from_ids(ma.iter().copied());
        let b = Env::from_ids(mb.iter().copied());

        // Cardinality, emptiness, membership.
        assert_eq!(a.len(), ma.len());
        assert_eq!(a.is_empty(), ma.is_empty());
        for id in 0..universe {
            assert_eq!(
                a.contains(Assumption(id)),
                ma.contains(&id),
                "contains {id}"
            );
        }

        // Iteration yields the sorted id sequence; `first` is its head.
        let ids: Vec<u32> = a.iter().map(|x| x.index() as u32).collect();
        let model_ids: Vec<u32> = ma.iter().copied().collect();
        assert_eq!(ids, model_ids);
        assert_eq!(a.first().map(|x| x.index() as u32), ma.first().copied());

        // Set algebra.
        let union: BTreeSet<u32> = ma.union(&mb).copied().collect();
        let inter: BTreeSet<u32> = ma.intersection(&mb).copied().collect();
        assert_eq!(a.union(&b), Env::from_ids(union.iter().copied()));
        assert_eq!(a.intersection(&b), Env::from_ids(inter.iter().copied()));
        assert_eq!(a.is_subset_of(&b), ma.is_subset(&mb));
        assert_eq!(a.intersects(&b), !inter.is_empty());

        // In-place union agrees with the pure one.
        let mut acc = a.clone();
        acc.union_with(&b);
        assert_eq!(acc, a.union(&b));

        // Ordering matches lexicographic comparison of sorted id vectors
        // (the old sorted-`Vec<u32>` derive order).
        let model_b: Vec<u32> = mb.iter().copied().collect();
        assert_eq!(a.cmp(&b), model_ids.cmp(&model_b));

        // Equality and hashing are structural.
        let a2 = Env::from_ids(model_ids.iter().rev().copied());
        assert_eq!(a, a2);
        let mut set = std::collections::HashSet::new();
        set.insert(a.clone());
        assert!(set.contains(&a2));

        // insert / with / without against model insert/remove.
        if let Some(&pick) = model_b.first() {
            let mut mi = ma.clone();
            mi.insert(pick);
            assert_eq!(a.with(Assumption(pick)), Env::from_ids(mi.iter().copied()));
            let mut mo = ma.clone();
            mo.remove(&pick);
            assert_eq!(
                a.without(Assumption(pick)),
                Env::from_ids(mo.iter().copied())
            );
        }

        // Signature prefilter soundness: subset ⇒ sig(a) ⊆ sig(b).
        if a.is_subset_of(&b) {
            assert_eq!(a.signature() & !b.signature(), 0);
        }
    }
}

#[test]
fn union_is_commutative_associative() {
    let mut r = Rng(1);
    for _ in 0..CASES {
        let a = rand_env(&mut r, 12, 5);
        let b = rand_env(&mut r, 12, 5);
        let c = rand_env(&mut r, 12, 5);
        assert_eq!(a.union(&b), b.union(&a));
        assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        assert_eq!(a.union(&a), a.clone());
    }
}

#[test]
fn subset_iff_union_absorbs() {
    let mut r = Rng(2);
    for _ in 0..CASES {
        let a = rand_env(&mut r, 12, 5);
        let b = rand_env(&mut r, 12, 5);
        assert_eq!(a.is_subset_of(&b), a.union(&b) == b);
    }
}

#[test]
fn minimize_yields_antichain() {
    let mut r = Rng(3);
    for _ in 0..CASES {
        let envs: Vec<Env> = (0..r.below(12)).map(|_| rand_env(&mut r, 10, 5)).collect();
        let min = minimize(envs.clone());
        // Pairwise incomparable.
        for (i, p) in min.iter().enumerate() {
            for (j, q) in min.iter().enumerate() {
                if i != j {
                    assert!(!p.is_subset_of(q));
                }
            }
        }
        // Every input is covered by some kept element.
        for e in &envs {
            assert!(min.iter().any(|m| m.is_subset_of(e)));
        }
    }
}

fn rand_conflicts(r: &mut Rng, universe: u32, n: u64) -> Vec<Env> {
    (0..r.below(n))
        .map(|_| {
            let mut ids = rand_ids(r, universe, 3);
            ids.insert(r.below(u64::from(universe)) as u32); // non-empty
            Env::from_ids(ids)
        })
        .collect()
}

#[test]
fn hitting_sets_hit_and_are_minimal() {
    let mut r = Rng(4);
    for _ in 0..CASES {
        let conflicts = rand_conflicts(&mut r, 8, 6);
        let hs = minimal_hitting_sets(&conflicts, usize::MAX, 10_000);
        assert!(!hs.is_empty() || conflicts.iter().any(|c| !c.is_empty()));
        for s in &hs {
            assert!(is_hitting_set(s, &conflicts));
            for a in s.iter() {
                assert!(!is_hitting_set(&s.without(a), &conflicts));
            }
        }
        // Antichain.
        for (i, p) in hs.iter().enumerate() {
            for (j, q) in hs.iter().enumerate() {
                if i != j {
                    assert!(!p.is_subset_of(q));
                }
            }
        }
    }
}

#[test]
fn hitting_sets_complete_for_small_universes() {
    let mut r = Rng(5);
    for _ in 0..CASES {
        let conflicts = rand_conflicts(&mut r, 5, 4);
        // Brute-force all subsets of the universe and compare.
        let hs = minimal_hitting_sets(&conflicts, usize::MAX, 100_000);
        let live: Vec<&Env> = conflicts.iter().filter(|c| !c.is_empty()).collect();
        for mask in 0u32..32 {
            let candidate = Env::from_ids((0..5).filter(|b| mask & (1 << b) != 0));
            let hits = live.iter().all(|c| candidate.intersects(c));
            if hits {
                // Some returned minimal set must be inside it.
                assert!(
                    hs.iter().any(|m| m.is_subset_of(&candidate)),
                    "missing cover for {candidate}"
                );
            }
        }
    }
}

/// De Kleer's candidate-update step against the batch HS-tree oracle:
/// on seeded random conflict streams, the incrementally maintained
/// [`CandidateSet`] must equal `minimal_hitting_sets` over the prefix
/// after *every single install*, for every cardinality bound — and the
/// final candidates must not depend on installation order. Well over
/// 10k installs total, each one cross-checked.
#[test]
fn candidate_set_matches_batch_oracle_on_shuffled_streams() {
    fn check(cs: &CandidateSet, conflicts: &[Env], max_size: usize) -> Vec<Env> {
        let mut got = cs.sets().to_vec();
        got.sort();
        let mut want = minimal_hitting_sets(conflicts, max_size, usize::MAX);
        want.sort();
        assert_eq!(
            got,
            want,
            "divergence at {} conflicts, max_size {max_size}",
            conflicts.len()
        );
        got
    }

    let mut r = Rng(14);
    let mut installs = 0usize;
    for max_size in [1, 2, 3, usize::MAX] {
        for _ in 0..45 {
            let stream: Vec<Env> = (0..60)
                .map(|_| {
                    let mut ids = rand_ids(&mut r, 10, 3);
                    ids.insert(r.below(10) as u32); // non-empty
                    Env::from_ids(ids)
                })
                .collect();

            // Forward pass: oracle equality after every install.
            let mut cs = CandidateSet::new(max_size);
            let mut prefix = Vec::new();
            let mut last = Vec::new();
            for c in &stream {
                cs.install(c);
                prefix.push(c.clone());
                installs += 1;
                last = check(&cs, &prefix, max_size);
            }

            // Shuffled replay (Fisher–Yates): same per-step oracle
            // equality, and the same final antichain as the forward
            // pass — installation order must not matter.
            let mut shuffled = stream.clone();
            for i in (1..shuffled.len()).rev() {
                let j = r.below(i as u64 + 1) as usize;
                shuffled.swap(i, j);
            }
            let mut cs2 = CandidateSet::new(max_size);
            let mut prefix2 = Vec::new();
            let mut last2 = Vec::new();
            for c in &shuffled {
                cs2.install(c);
                prefix2.push(c.clone());
                installs += 1;
                last2 = check(&cs2, &prefix2, max_size);
            }
            assert_eq!(last, last2, "final candidates depend on install order");
        }
    }
    assert!(installs >= 10_000, "only {installs} installs exercised");
}

#[test]
fn atms_labels_stay_consistent_and_minimal() {
    let mut r = Rng(6);
    for _ in 0..CASES {
        let just_pairs: Vec<(u32, u32)> = (0..1 + r.below(7))
            .map(|_| (r.below(6) as u32, r.below(6) as u32))
            .collect();
        let mut nogood = rand_ids(&mut r, 6, 2);
        nogood.insert(r.below(6) as u32);

        let mut atms = Atms::new();
        let assumptions: Vec<_> = (0..6)
            .map(|i| atms.add_assumption(format!("a{i}")))
            .collect();
        let goal = atms.add_node("goal");
        let bottom = atms.add_contradiction("⊥");
        for (x, y) in &just_pairs {
            let nx = atms.assumption_node(assumptions[*x as usize]);
            let ny = atms.assumption_node(assumptions[*y as usize]);
            if nx == ny {
                atms.justify([nx], goal, "single").unwrap();
            } else {
                atms.justify([nx, ny], goal, "pair").unwrap();
            }
        }
        let ng: Vec<_> = nogood.iter().map(|&i| assumptions[i as usize]).collect();
        let ng_nodes: Vec<_> = ng.iter().map(|&a| atms.assumption_node(a)).collect();
        atms.justify(ng_nodes, bottom, "conflict").unwrap();

        let label = atms.label(goal).unwrap();
        // Consistency: no label environment contains a nogood.
        for e in &label {
            assert!(atms.is_consistent(e));
        }
        // Minimality: antichain.
        for (i, p) in label.iter().enumerate() {
            for (j, q) in label.iter().enumerate() {
                if i != j {
                    assert!(!p.is_subset_of(q));
                }
            }
        }
    }
}

#[test]
fn plausibility_is_monotone_in_nogoods() {
    let mut r = Rng(8);
    for _ in 0..CASES {
        let mut base = rand_ids(&mut r, 6, 3);
        base.insert(r.below(6) as u32);
        let d1 = r.range(0.1, 1.0);
        let d2 = r.range(0.1, 1.0);
        let mut atms = FuzzyAtms::new();
        for _ in 0..6 {
            atms.add_assumption();
        }
        let env = Env::from_ids(base.iter().copied());
        let before = atms.plausibility(&env);
        assert_eq!(before, 1.0);
        atms.add_nogood(&env, d1);
        let mid = atms.plausibility(&env);
        atms.add_nogood(&env, d2);
        let after = atms.plausibility(&env);
        // More/stronger conflicts never raise plausibility.
        assert!(mid <= before + 1e-12);
        assert!(after <= mid + 1e-12);
        assert!((after - (1.0 - d1.max(d2))).abs() < 1e-12);
    }
}

#[test]
fn ranked_diagnoses_are_hitting_sets() {
    let mut r = Rng(9);
    for _ in 0..CASES {
        let conflict_data: Vec<(BTreeSet<u32>, f64)> = (0..1 + r.below(4))
            .map(|_| {
                let mut ids = rand_ids(&mut r, 6, 3);
                ids.insert(r.below(6) as u32);
                (ids, r.range(0.1, 1.0))
            })
            .collect();
        let mut atms = FuzzyAtms::new();
        for _ in 0..6 {
            atms.add_assumption();
        }
        for (ids, d) in &conflict_data {
            atms.add_nogood(&Env::from_ids(ids.iter().copied()), *d);
        }
        let diags = atms.ranked_diagnoses(usize::MAX, 10_000);
        // Diagnoses hit all *retained* nogoods; the store is Pareto-minimal
        // so hitting the store hits every reported conflict.
        let store: Vec<Env> = atms.nogoods().iter().map(|n| n.env.clone()).collect();
        for d in &diags {
            assert!(is_hitting_set(&d.env, &store));
            assert!((0.0..=1.0).contains(&d.degree));
        }
        // Sorted by decreasing degree.
        for w in diags.windows(2) {
            assert!(w[0].degree >= w[1].degree - 1e-12);
        }
    }
}

#[test]
fn interpretations_complement_diagnoses() {
    let mut r = Rng(13);
    for _ in 0..CASES {
        let nogood_sets: Vec<BTreeSet<u32>> = (0..r.below(4))
            .map(|_| {
                let mut ids = rand_ids(&mut r, 5, 2);
                ids.insert(r.below(5) as u32);
                ids
            })
            .collect();
        let mut atms = Atms::new();
        let assumptions: Vec<_> = (0..5)
            .map(|k| atms.add_assumption(format!("a{k}")))
            .collect();
        for ids in &nogood_sets {
            atms.add_nogood(Env::from_assumptions(
                ids.iter().map(|&i| assumptions[i as usize]),
            ));
        }
        for interp in atms.interpretations(10_000) {
            assert!(atms.is_consistent(&interp));
            for &a in &assumptions {
                if !interp.contains(a) {
                    assert!(
                        !atms.is_consistent(&interp.with(a)),
                        "interpretation {interp} is not maximal (missing {a})"
                    );
                }
            }
        }
    }
}
