//! Differential suite for the 4-wide kernels against their scalar
//! references, which live on as the test oracles: the coincidence and
//! constraint-apply kernels the propagation engine runs (`included4`,
//! `possibility4`, `width4`, `ne4`, `add4`, `scale4`, `mul4`, `div4`)
//! against the
//! [`FuzzyInterval`] methods they mirror, **bit for bit**, on a
//! corner-mix corpus (random shapes, zero-spread flanks, crisp
//! intervals and points, shifted near-copies) — grouped lanes and the
//! 1–3-entry tails alike.
//!
//! Always on (tier-1): the corpus here is a few thousand pairs, small
//! enough for every `cargo test` run.

use flames_fuzzy::simd::{
    add4, div4, included4, mul4, ne4, possibility4, scale4, width4, Traps4, M4, W4,
};
use flames_fuzzy::FuzzyInterval;

/// SplitMix64, same mixer as the bench crate (tests cannot depend on it).
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

fn trapezoid(r: &mut Rng) -> FuzzyInterval {
    let m1 = r.range(-50.0, 50.0);
    let width = r.range(0.0, 20.0);
    let a = r.range(0.0, 5.0);
    let b = r.range(0.0, 5.0);
    FuzzyInterval::new(m1, m1 + width, a, b).unwrap()
}

/// The corner-heavy mix of `tests/props.rs`: random shapes, zero-spread
/// flanks, crisp intervals and points, shifted near-copies.
fn corner_trapezoid(r: &mut Rng, base: FuzzyInterval) -> FuzzyInterval {
    match r.below(6) {
        0 => trapezoid(r),
        1 => {
            let t = trapezoid(r);
            FuzzyInterval::new(t.core_lo(), t.core_hi(), 0.0, t.spread_right()).unwrap()
        }
        2 => {
            let t = trapezoid(r);
            FuzzyInterval::new(t.core_lo(), t.core_hi(), t.spread_left(), 0.0).unwrap()
        }
        3 => {
            let lo = r.range(-50.0, 50.0);
            FuzzyInterval::crisp_interval(lo, lo + r.range(0.0, 10.0)).unwrap()
        }
        4 => FuzzyInterval::crisp(r.range(-50.0, 50.0)),
        _ => {
            let shift = r.range(-2.0, 2.0);
            FuzzyInterval::new(
                base.core_lo() + shift,
                base.core_hi() + shift,
                base.spread_left(),
                base.spread_right(),
            )
            .unwrap()
        }
    }
}

fn corner_corpus(seed: u64, n: usize) -> (Vec<FuzzyInterval>, Vec<FuzzyInterval>) {
    let mut r = Rng(seed);
    let mut vms = Vec::with_capacity(n);
    let mut vns = Vec::with_capacity(n);
    for _ in 0..n {
        let base = trapezoid(&mut r);
        let vm = corner_trapezoid(&mut r, base);
        let vn = corner_trapezoid(&mut r, vm);
        vms.push(vm);
        vns.push(vn);
    }
    (vms, vns)
}

// ----- engine kernels vs their scalar FuzzyInterval oracles ----------

/// One lane of the layout the engine streams a label in: pairs
/// `[4g, 4g + 4)` loaded as full groups from struct-of-arrays columns,
/// the remaining 1–3 pairs splatted one at a time into lane 0.
struct Lane {
    a: Traps4,
    b: Traps4,
    lane: usize,
    pair: usize,
}

/// The `[m1, m2, α, β]` columns of a run of trapezoids.
fn columns(vs: &[FuzzyInterval]) -> [Vec<f64>; 4] {
    [
        vs.iter().map(FuzzyInterval::core_lo).collect(),
        vs.iter().map(FuzzyInterval::core_hi).collect(),
        vs.iter().map(FuzzyInterval::spread_left).collect(),
        vs.iter().map(FuzzyInterval::spread_right).collect(),
    ]
}

fn lanes(vms: &[FuzzyInterval], vns: &[FuzzyInterval]) -> Vec<Lane> {
    let ([m1, m2, ma, mb], [n1, n2, na, nb]) = (columns(vms), columns(vns));
    let mut out = Vec::with_capacity(vms.len());
    let mut i = 0;
    while i + 4 <= vms.len() {
        let a = Traps4::load(&m1, &m2, &ma, &mb, i);
        let b = Traps4::load(&n1, &n2, &na, &nb, i);
        out.extend((0..4).map(|lane| Lane {
            a,
            b,
            lane,
            pair: i + lane,
        }));
        i += 4;
    }
    out.extend((i..vms.len()).map(|pair| Lane {
        a: Traps4::splat(&vms[pair]),
        b: Traps4::splat(&vns[pair]),
        lane: 0,
        pair,
    }));
    out
}

/// The corner corpus at a size with a 3-entry tail, plus the bare 1-,
/// 2- and 3-entry runs (all tail, no full group).
fn kernel_corpora() -> Vec<(Vec<FuzzyInterval>, Vec<FuzzyInterval>)> {
    let mut corpora = vec![corner_corpus(0x5CA1_2026, 2_051)];
    for n in 1..=3 {
        corpora.push(corner_corpus(0x7A11_0000 + n as u64, n));
    }
    corpora
}

fn bits(v: &FuzzyInterval) -> [u64; 4] {
    [
        v.core_lo().to_bits(),
        v.core_hi().to_bits(),
        v.spread_left().to_bits(),
        v.spread_right().to_bits(),
    ]
}

#[test]
fn included4_matches_is_included_in() {
    for (vms, vns) in kernel_corpora() {
        for l in lanes(&vms, &vns) {
            let (vm, vn) = (&vms[l.pair], &vns[l.pair]);
            assert_eq!(
                included4(&l.a, &l.b).lane(l.lane),
                vm.is_included_in(vn),
                "pair {}: {vm:?} in {vn:?}",
                l.pair
            );
            assert_eq!(
                included4(&l.b, &l.a).lane(l.lane),
                vn.is_included_in(vm),
                "pair {}: {vn:?} in {vm:?}",
                l.pair
            );
        }
    }
}

#[test]
fn possibility4_matches_possibility_of() {
    for (vms, vns) in kernel_corpora() {
        for l in lanes(&vms, &vns) {
            let (vm, vn) = (&vms[l.pair], &vns[l.pair]);
            // Both operand orders: the engine relies on the scalar
            // method's bitwise symmetry.
            for (wide, scalar) in [
                (possibility4(&l.a, &l.b), vm.possibility_of(vn)),
                (possibility4(&l.b, &l.a), vm.possibility_of(vn)),
            ] {
                assert_eq!(
                    wide.lane(l.lane).to_bits(),
                    scalar.to_bits(),
                    "pair {}: {vm:?} vs {vn:?}",
                    l.pair
                );
            }
        }
    }
}

#[test]
fn width4_matches_support_width() {
    for (vms, vns) in kernel_corpora() {
        for l in lanes(&vms, &vns) {
            assert_eq!(
                width4(&l.a).lane(l.lane).to_bits(),
                vms[l.pair].support_width().to_bits(),
                "pair {}",
                l.pair
            );
        }
    }
}

#[test]
fn ne4_matches_partial_eq() {
    for (vms, mut vns) in kernel_corpora() {
        // Exact twins (and a signed-zero twin) so `==` lanes occur.
        for (k, vn) in vns.iter_mut().enumerate().step_by(5) {
            *vn = vms[k];
        }
        vns[0] = FuzzyInterval::crisp(-0.0);
        let mut vms = vms;
        vms[0] = FuzzyInterval::crisp(0.0);
        let mut equal = 0;
        for l in lanes(&vms, &vns) {
            let (vm, vn) = (&vms[l.pair], &vns[l.pair]);
            equal += usize::from(vm == vn);
            assert_eq!(
                ne4(&l.a, &l.b).lane(l.lane),
                vm != vn,
                "pair {}: {vm:?} vs {vn:?}",
                l.pair
            );
        }
        assert!(equal > 0, "the corpus must exercise equal pairs");
    }
}

#[test]
fn add4_matches_add() {
    for (vms, vns) in kernel_corpora() {
        for l in lanes(&vms, &vns) {
            let (vm, vn) = (vms[l.pair], vns[l.pair]);
            assert_eq!(
                bits(&add4(&l.a, &l.b).lane(l.lane)),
                bits(&(vm + vn)),
                "pair {}: {vm:?} + {vn:?}",
                l.pair
            );
        }
    }
}

#[test]
fn scale4_matches_scaled_for_both_signs() {
    let mut r = Rng(0x5CA1_E000);
    for (vms, vns) in kernel_corpora() {
        for l in lanes(&vms, &vns) {
            // One coefficient per lane group, as in a constraint
            // direction: positive, negative, zero and unit cases.
            for k in [r.range(0.0, 4.0), -r.range(0.0, 4.0), 0.0, 1.0, -1.0, -0.5] {
                assert_eq!(
                    bits(&scale4(&l.a, k).lane(l.lane)),
                    bits(&vms[l.pair].scaled(k)),
                    "pair {}: {:?} scaled by {k}",
                    l.pair,
                    vms[l.pair]
                );
            }
            // The constraint-apply chain `(p + v·c)·(−1/c')`.
            let c = -r.range(0.1, 3.0);
            let inv = -1.0 / r.range(0.1, 3.0);
            assert_eq!(
                bits(&scale4(&add4(&l.b, &scale4(&l.a, c)), inv).lane(l.lane)),
                bits(&(vns[l.pair] + vms[l.pair].scaled(c)).scaled(inv)),
                "pair {}: apply chain",
                l.pair
            );
        }
    }
}

#[test]
fn m4_bits_puts_lane_i_in_bit_i() {
    for pattern in 0u32..16 {
        let lanes: [u64; 4] =
            std::array::from_fn(|i| if pattern & (1 << i) != 0 { u64::MAX } else { 0 });
        let m = M4(lanes);
        assert_eq!(m.bits(), pattern);
        for i in 0..4 {
            assert_eq!(m.bits() & (1 << i) != 0, m.lane(i), "pattern {pattern:04b}");
        }
    }
    // Straight from a comparison: lanes 0 and 2 hold the smaller value.
    let m = W4([0.0, 5.0, 1.0, 7.0]).lt(W4::splat(2.0));
    assert_eq!(m.bits(), 0b0101);
    assert_eq!(m.not().bits(), 0b1010);
}

/// The Product operands: the corner corpus (mixed signs, crisp points
/// and intervals) plus every pairing of a set of edge operands — signed
/// zeros, supports that touch or span zero, and magnitudes whose
/// products or quotients overflow to ±∞ — shuffled so that `Err` lanes
/// land inside full groups.
fn product_corpora() -> Vec<(Vec<FuzzyInterval>, Vec<FuzzyInterval>)> {
    let t = |m1: f64, m2: f64, a: f64, b: f64| FuzzyInterval::new(m1, m2, a, b).unwrap();
    let edges = [
        FuzzyInterval::crisp(0.0),
        FuzzyInterval::crisp(-0.0),
        t(-0.0, 0.0, 0.0, 0.0),
        t(1.0, 2.0, 1.0, 0.0),
        t(-2.0, -1.0, 0.0, 1.0),
        t(-1.0, 1.0, 0.5, 0.5),
        t(0.5, 1.0, 0.25, 0.25),
        t(-3.0, -2.0, 0.5, 0.5),
        FuzzyInterval::crisp(-2.0),
        t(1e200, 2e200, 1e199, 1e199),
        t(-3e200, -1e200, 0.0, 1e199),
        FuzzyInterval::crisp(1e-300),
        FuzzyInterval::crisp(-1e-300),
        // A finite core under a support that overflows on one side
        // only: one spread turns infinite.
        t(1.0, 1.0, 1e300, 0.0),
        t(1.0, 1.0, 0.0, 1e300),
        FuzzyInterval::crisp(1e10),
    ];
    let mut pairs: Vec<(FuzzyInterval, FuzzyInterval)> = edges
        .iter()
        .flat_map(|&a| edges.iter().map(move |&b| (a, b)))
        .collect();
    let mut r = Rng(0x0DD5_2026);
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, r.below(i as u64 + 1) as usize);
    }
    let mut corpora = kernel_corpora();
    corpora.push(pairs.into_iter().unzip());
    corpora
}

/// Holds a wide Product kernel to its scalar method on every lane: the
/// same `Ok` verdict, and the same bits on every `Ok` lane. Returns the
/// number of `Err` lanes seen.
fn assert_product_kernel(
    name: &str,
    wide: fn(&Traps4, &Traps4) -> (Traps4, M4),
    scalar: fn(&FuzzyInterval, &FuzzyInterval) -> flames_fuzzy::Result<FuzzyInterval>,
) -> usize {
    let mut errs = 0;
    for (vms, vns) in product_corpora() {
        for l in lanes(&vms, &vns) {
            let (vm, vn) = (&vms[l.pair], &vns[l.pair]);
            let (r, ok) = wide(&l.a, &l.b);
            let want = scalar(vm, vn);
            assert_eq!(
                ok.lane(l.lane),
                want.is_ok(),
                "{name} pair {}: {vm:?}, {vn:?} -> {want:?}",
                l.pair
            );
            match want {
                Ok(v) => assert_eq!(
                    bits(&r.lane(l.lane)),
                    bits(&v),
                    "{name} pair {}: {vm:?}, {vn:?}",
                    l.pair
                ),
                Err(_) => errs += 1,
            }
        }
    }
    errs
}

#[test]
fn mul4_matches_mul() {
    let errs = assert_product_kernel("mul4", mul4, FuzzyInterval::mul);
    assert!(errs > 0, "overflowing products must give Err lanes");
}

#[test]
fn div4_matches_div() {
    let errs = assert_product_kernel("div4", div4, FuzzyInterval::div);
    assert!(
        errs > 100,
        "zero-spanning and overflowing divisors must give Err lanes"
    );
}
