//! Tier-1 invariant suite for the graded nogood store ([`FuzzyAtms`]):
//! store minimality, monotonicity of plausibility under nogood
//! strengthening, and invariance of every observable — the store,
//! suspicion, plausibility and the ranked candidates — under the order
//! in which the same graded nogoods arrive.
//!
//! Unlike `props.rs` (the large randomized suite gated behind
//! `--features proptest`), these checks run on every `cargo test`: they
//! are the contracts the propagation engine, the shard merge and the
//! serving layer lean on, so regressions here must surface in tier-1.

use flames_atms::{Assumption, Env, FuzzyAtms};

/// SplitMix64 — the same mixer as `flames_bench::rng`, inlined because
/// integration tests cannot depend on the bench crate (it depends on
/// this one).
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

/// A generated `add_nogood` stream over an assumption universe: graded
/// conflicts of 1–3 members, half of them total (degree 1), with
/// repeats and sub/supersets likely enough to exercise subsumption.
struct Stream {
    assumptions: Vec<Assumption>,
    nogoods: Vec<(Env, f64)>,
}

fn random_stream(rng: &mut Rng) -> Stream {
    let mut atms = FuzzyAtms::new();
    let n_assumptions = 4 + rng.below(5) as usize;
    let assumptions: Vec<Assumption> = (0..n_assumptions).map(|_| atms.add_assumption()).collect();
    let n_nogoods = 2 + rng.below(10) as usize;
    let nogoods = (0..n_nogoods)
        .map(|_| {
            let len = 1 + rng.below(3) as usize;
            let env = Env::from_assumptions(
                (0..len).map(|_| assumptions[rng.below(n_assumptions as u64) as usize]),
            );
            let degree = if rng.below(2) == 0 {
                1.0
            } else {
                rng.range(0.05, 0.95)
            };
            (env, degree)
        })
        .collect();
    Stream {
        assumptions,
        nogoods,
    }
}

/// Installs the stream's nogoods in the given index order into a fresh
/// store over the same assumption universe.
fn build(stream: &Stream, order: &[usize]) -> FuzzyAtms {
    let mut atms = FuzzyAtms::new();
    for &a in &stream.assumptions {
        assert_eq!(atms.add_assumption(), a);
    }
    for &i in order {
        let (env, degree) = &stream.nogoods[i];
        atms.add_nogood(env.clone(), *degree);
    }
    atms
}

fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

fn probes(rng: &mut Rng, assumptions: &[Assumption]) -> Vec<Env> {
    (0..12)
        .map(|_| {
            let len = rng.below(5) as usize;
            Env::from_assumptions(
                (0..len).map(|_| assumptions[rng.below(assumptions.len() as u64) as usize]),
            )
        })
        .collect()
}

const CASES: usize = 200;

/// The nogood store is Pareto-minimal: no recorded conflict has a
/// subset conflict that is at least as strong, and every installed
/// conflict stays entailed (`1 − plausibility(env) ≥ degree`).
#[test]
fn nogood_store_is_an_antichain() {
    let mut rng = Rng(0x1A75_0002);
    for case in 0..CASES {
        let stream = random_stream(&mut rng);
        let atms = build(&stream, &shuffled(&mut rng, stream.nogoods.len()));
        let nogoods = atms.nogoods();
        for (i, a) in nogoods.iter().enumerate() {
            for (j, b) in nogoods.iter().enumerate() {
                if i != j {
                    assert!(
                        !(b.env.is_subset_of(&a.env) && b.degree >= a.degree),
                        "case {case}: nogood ({}, {}) dominated by ({}, {})",
                        a.env,
                        a.degree,
                        b.env,
                        b.degree
                    );
                }
            }
        }
        for (env, degree) in &stream.nogoods {
            assert!(
                1.0 - atms.plausibility(env) >= degree - 1e-12,
                "case {case}: nogood ({env}, {degree}) not entailed by the store"
            );
        }
    }
}

/// Strengthening the nogood store — new conflicts, or higher degrees on
/// existing ones — can only lower plausibility, and every previously
/// recorded conflict stays entailed. (Raw `suspicion` is deliberately
/// *not* claimed monotone: a fresh `{a}`-nogood at degree 1 subsumes a
/// weaker `{a, b}` out of the Pareto-minimal store, correctly dropping
/// b's suspicion — the conflict is explained by `a` alone, so `b` stops
/// being a suspect.)
#[test]
fn plausibility_is_monotone_under_nogood_strengthening() {
    let mut rng = Rng(0x1A75_0003);
    for case in 0..CASES {
        let stream = random_stream(&mut rng);
        let order: Vec<usize> = (0..stream.nogoods.len()).collect();
        let mut atms = build(&stream, &order);

        let probes = probes(&mut rng, &stream.assumptions);
        let plaus_before: Vec<f64> = probes.iter().map(|e| atms.plausibility(e)).collect();
        let nogoods_before: Vec<(Env, f64)> = atms
            .nogoods()
            .iter()
            .map(|n| (n.env.clone(), n.degree))
            .collect();

        // Strengthen: re-install existing nogoods with higher degrees
        // and add a few fresh ones.
        for (env, degree) in nogoods_before.clone() {
            atms.add_nogood(env, (degree + rng.range(0.0, 0.5)).min(1.0));
        }
        for _ in 0..3 {
            let len = 1 + rng.below(3) as usize;
            let env =
                Env::from_assumptions((0..len).map(|_| {
                    stream.assumptions[rng.below(stream.assumptions.len() as u64) as usize]
                }));
            atms.add_nogood(env, rng.range(0.5, 1.0));
        }

        for (probe, before) in probes.iter().zip(&plaus_before) {
            assert!(
                atms.plausibility(probe) <= before + 1e-12,
                "case {case}: plausibility increased under strengthening"
            );
        }
        for (env, degree) in &nogoods_before {
            // `1 − plausibility(env)` is the strongest conflict the
            // current store entails over `env` — strengthening (plus
            // Pareto re-minimization) must never forget a conflict.
            assert!(
                1.0 - atms.plausibility(env) >= degree - 1e-12,
                "case {case}: nogood ({env}, {degree}) no longer entailed"
            );
        }
    }
}

/// Every observable — the sorted nogood store, suspicion, plausibility
/// over probe environments and the ranked candidates — is independent
/// of the order in which the same graded nogoods were installed. The
/// shard merge rests on this: it installs each shard's nogoods in shard
/// order, and the report must not depend on how the board was cut.
#[test]
fn observables_are_invariant_under_install_order() {
    let mut rng = Rng(0x1A75_0004);
    for case in 0..CASES {
        let stream = random_stream(&mut rng);
        let forward: Vec<usize> = (0..stream.nogoods.len()).collect();
        let a = build(&stream, &forward);
        let b = build(&stream, &shuffled(&mut rng, stream.nogoods.len()));

        assert_eq!(
            a.sorted_nogoods(),
            b.sorted_nogoods(),
            "case {case}: nogood stores diverge"
        );
        for &x in &stream.assumptions {
            assert_eq!(
                a.suspicion(x).to_bits(),
                b.suspicion(x).to_bits(),
                "case {case}: suspicion of {x} diverges"
            );
        }
        for probe in probes(&mut rng, &stream.assumptions) {
            assert_eq!(
                a.plausibility(&probe).to_bits(),
                b.plausibility(&probe).to_bits(),
                "case {case}: plausibility diverges on {probe}"
            );
        }
        for max_size in [1, 2, 3, usize::MAX] {
            let ranked = a.ranked_diagnoses(max_size, 64);
            assert_eq!(
                ranked,
                b.ranked_diagnoses(max_size, 64),
                "case {case}: ranked candidates diverge at max_size {max_size}"
            );
            assert_eq!(
                ranked,
                a.ranked_diagnoses_oracle(max_size, usize::MAX)
                    .into_iter()
                    .take(64)
                    .collect::<Vec<_>>(),
                "case {case}: incremental candidates diverge from the oracle"
            );
        }
    }
}
