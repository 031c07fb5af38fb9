//! Randomized property tests for the fuzzy calculus: algebraic laws,
//! inclusion monotonicity, soundness of the vertex-method arithmetic and
//! of the degree of consistency.
//!
//! Dependency-free: cases are generated with an inline SplitMix64 and
//! checked with plain `assert!`. Gated behind `--features proptest`
//! (the historical feature name) because the suites are slow, not
//! because they need the external crate.

use flames_fuzzy::entropy::{fuzzy_entropy, fuzzy_point_entropy, point_entropy};
use flames_fuzzy::{Consistency, Direction, FuzzyInterval};

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

/// Arbitrary valid trapezoid with moderate magnitudes.
fn trapezoid(r: &mut Rng) -> FuzzyInterval {
    let m1 = r.range(-50.0, 50.0);
    let width = r.range(0.0, 20.0);
    let a = r.range(0.0, 5.0);
    let b = r.range(0.0, 5.0);
    FuzzyInterval::new(m1, m1 + width, a, b).unwrap()
}

/// Arbitrary trapezoid whose support stays strictly positive (divisor-safe).
fn positive_trapezoid(r: &mut Rng) -> FuzzyInterval {
    let m1 = r.range(0.5, 50.0);
    let width = r.range(0.0, 10.0);
    let a = r.range(0.0, 0.4);
    let b = r.range(0.0, 5.0);
    // Keep support_lo = m1 - a >= 0.1.
    let a = a.min(m1 - 0.1);
    FuzzyInterval::new(m1, m1 + width, a.max(0.0), b).unwrap()
}

/// Arbitrary estimation inside the unit interval.
fn estimation(r: &mut Rng) -> FuzzyInterval {
    let lo = r.f64();
    let w = r.f64();
    let a = r.f64();
    let b = r.f64();
    let m1 = lo;
    let m2 = (lo + w * (1.0 - lo)).min(1.0);
    let alpha = a * m1;
    let beta = b * (1.0 - m2);
    FuzzyInterval::new(m1, m2, alpha, beta).unwrap()
}

const CASES: usize = 300;

#[test]
fn membership_is_in_unit_interval() {
    let mut r = Rng(1);
    for _ in 0..CASES {
        let t = trapezoid(&mut r);
        let x = r.range(-100.0, 100.0);
        let mu = t.membership(x);
        assert!((0.0..=1.0).contains(&mu));
    }
}

#[test]
fn membership_is_one_exactly_on_core() {
    let mut r = Rng(2);
    for _ in 0..CASES {
        let t = trapezoid(&mut r);
        let x = r.range(-100.0, 100.0);
        let mu = t.membership(x);
        if x >= t.core_lo() && x <= t.core_hi() {
            assert_eq!(mu, 1.0);
        }
        if mu > 0.0 {
            assert!(x >= t.support_lo() - 1e-9 && x <= t.support_hi() + 1e-9);
        }
    }
}

#[test]
fn alpha_cuts_are_nested() {
    let mut r = Rng(3);
    for _ in 0..CASES {
        let t = trapezoid(&mut r);
        let l1 = r.f64();
        let l2 = r.f64();
        let (lo_level, hi_level) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
        let outer = t.alpha_cut(lo_level);
        let inner = t.alpha_cut(hi_level);
        assert!(inner.0 >= outer.0 - 1e-12);
        assert!(inner.1 <= outer.1 + 1e-12);
    }
}

#[test]
fn addition_commutes() {
    let mut r = Rng(4);
    for _ in 0..CASES {
        let a = trapezoid(&mut r);
        let b = trapezoid(&mut r);
        assert_eq!(a + b, b + a);
    }
}

#[test]
fn addition_is_associative_up_to_rounding() {
    let mut r = Rng(5);
    for _ in 0..CASES {
        let a = trapezoid(&mut r);
        let b = trapezoid(&mut r);
        let c = trapezoid(&mut r);
        let l = (a + b) + c;
        let rr = a + (b + c);
        assert!((l.core_lo() - rr.core_lo()).abs() < 1e-9);
        assert!((l.core_hi() - rr.core_hi()).abs() < 1e-9);
        assert!((l.spread_left() - rr.spread_left()).abs() < 1e-9);
        assert!((l.spread_right() - rr.spread_right()).abs() < 1e-9);
    }
}

#[test]
fn zero_is_additive_identity() {
    let mut r = Rng(6);
    for _ in 0..CASES {
        let a = trapezoid(&mut r);
        let z = FuzzyInterval::crisp(0.0);
        assert_eq!(a + z, a);
    }
}

#[test]
fn subtraction_widens_round_trip() {
    let mut r = Rng(7);
    for _ in 0..CASES {
        let a = trapezoid(&mut r);
        let b = trapezoid(&mut r);
        let rt = (a + b) - b;
        assert!(a.is_included_in(&rt));
    }
}

#[test]
fn negation_is_involutive() {
    let mut r = Rng(8);
    for _ in 0..CASES {
        let a = trapezoid(&mut r);
        assert_eq!(a.negated().negated(), a);
    }
}

#[test]
fn multiplication_commutes() {
    let mut r = Rng(9);
    for _ in 0..CASES {
        let a = trapezoid(&mut r);
        let b = trapezoid(&mut r);
        let ab = a.mul(&b).unwrap();
        let ba = b.mul(&a).unwrap();
        assert!((ab.core_lo() - ba.core_lo()).abs() < 1e-9);
        assert!((ab.support_hi() - ba.support_hi()).abs() < 1e-9);
    }
}

#[test]
fn mul_is_inclusion_monotone() {
    let mut r = Rng(10);
    for _ in 0..CASES {
        let a = trapezoid(&mut r);
        let b = trapezoid(&mut r);
        let extra = r.range(0.0, 2.0);
        let wider = FuzzyInterval::new(
            a.core_lo(),
            a.core_hi(),
            a.spread_left() + extra,
            a.spread_right() + extra,
        )
        .unwrap();
        let tight = a.mul(&b).unwrap();
        let wide = wider.mul(&b).unwrap();
        assert!(tight.is_included_in(&wide));
    }
}

#[test]
fn mul_interval_products_inside_result() {
    let mut r = Rng(11);
    for _ in 0..CASES {
        let a = trapezoid(&mut r);
        let b = trapezoid(&mut r);
        let ta = r.f64();
        let tb = r.f64();
        // Any product of support points lies in the support of the product.
        let xa = a.support_lo() + ta * a.support_width();
        let xb = b.support_lo() + tb * b.support_width();
        let p = a.mul(&b).unwrap();
        assert!(xa * xb >= p.support_lo() - 1e-9);
        assert!(xa * xb <= p.support_hi() + 1e-9);
    }
}

#[test]
fn div_then_mul_round_trip_includes() {
    let mut r = Rng(12);
    for _ in 0..CASES {
        let a = positive_trapezoid(&mut r);
        let b = positive_trapezoid(&mut r);
        let rt = a.div(&b).unwrap().mul(&b).unwrap();
        assert!(a.core_lo() >= rt.core_lo() - 1e-9);
        assert!(a.core_hi() <= rt.core_hi() + 1e-9);
    }
}

#[test]
fn scaling_distributes_over_addition() {
    let mut r = Rng(13);
    for _ in 0..CASES {
        let a = trapezoid(&mut r);
        let b = trapezoid(&mut r);
        let k = r.range(-5.0, 5.0);
        let l = (a + b).scaled(k);
        let rr = a.scaled(k) + b.scaled(k);
        assert!((l.core_lo() - rr.core_lo()).abs() < 1e-9);
        assert!((l.spread_left() - rr.spread_left()).abs() < 1e-9);
    }
}

#[test]
fn hull_contains_operands() {
    let mut r = Rng(14);
    for _ in 0..CASES {
        let a = trapezoid(&mut r);
        let b = trapezoid(&mut r);
        let h = a.hull(&b);
        assert!(a.is_included_in(&h));
        assert!(b.is_included_in(&h));
    }
}

#[test]
fn pwl_round_trip_matches_membership() {
    let mut r = Rng(15);
    for _ in 0..CASES {
        let t = trapezoid(&mut r);
        let x = r.range(-100.0, 100.0);
        assert!((t.to_pwl().eval(x) - t.membership(x)).abs() < 1e-9);
    }
}

#[test]
fn pwl_area_matches_formula() {
    let mut r = Rng(16);
    for _ in 0..CASES {
        let t = trapezoid(&mut r);
        assert!((t.to_pwl().area() - t.area()).abs() < 1e-9);
    }
}

#[test]
fn intersection_area_bounded_by_min_area() {
    let mut r = Rng(17);
    for _ in 0..CASES {
        let a = trapezoid(&mut r);
        let b = trapezoid(&mut r);
        let i = a.to_pwl().intersection(&b.to_pwl());
        assert!(i.area() <= a.area().min(b.area()) + 1e-9);
        assert!(i.area() >= -1e-12);
    }
}

#[test]
fn union_area_at_least_max_area() {
    let mut r = Rng(18);
    for _ in 0..CASES {
        let a = trapezoid(&mut r);
        let b = trapezoid(&mut r);
        let u = a.to_pwl().union(&b.to_pwl());
        assert!(u.area() >= a.area().max(b.area()) - 1e-9);
        assert!(u.area() <= a.area() + b.area() + 1e-9);
    }
}

#[test]
fn dc_is_in_unit_interval() {
    let mut r = Rng(19);
    for _ in 0..CASES {
        let vm = trapezoid(&mut r);
        let vn = trapezoid(&mut r);
        let dc = Consistency::between(&vm, &vn);
        assert!((0.0..=1.0).contains(&dc.degree()));
    }
}

#[test]
fn dc_of_self_is_one() {
    let mut r = Rng(20);
    for _ in 0..CASES {
        let vm = trapezoid(&mut r);
        let dc = Consistency::between(&vm, &vm);
        assert_eq!(dc.degree(), 1.0);
        assert_eq!(dc.direction(), Direction::Within);
    }
}

#[test]
fn dc_one_iff_pointwise_included() {
    let mut r = Rng(21);
    for _ in 0..CASES {
        let vm = trapezoid(&mut r);
        let vn = trapezoid(&mut r);
        let dc = Consistency::between(&vm, &vn);
        if vm.is_included_in(&vn) {
            assert_eq!(dc.degree(), 1.0);
        }
        if dc.degree() == 0.0 && vm.area() > 0.0 {
            // No overlap mass: the supports overlap at most at a point.
            let overlap =
                vm.support_hi().min(vn.support_hi()) - vm.support_lo().max(vn.support_lo());
            assert!(overlap <= 1e-6 || vn.area() == 0.0);
        }
    }
}

#[test]
fn dc_shift_monotone() {
    let mut r = Rng(22);
    for _ in 0..CASES {
        let vm = trapezoid(&mut r);
        let shift = r.range(0.0, 10.0);
        // Moving the measurement away from the nominal can only lower Dc.
        let vn = vm;
        let near = FuzzyInterval::new(
            vm.core_lo() + shift * 0.1,
            vm.core_hi() + shift * 0.1,
            vm.spread_left(),
            vm.spread_right(),
        )
        .unwrap();
        let far = FuzzyInterval::new(
            vm.core_lo() + shift * 0.1 + 1.0,
            vm.core_hi() + shift * 0.1 + 1.0,
            vm.spread_left(),
            vm.spread_right(),
        )
        .unwrap();
        let dc_near = Consistency::between(&near, &vn).degree();
        let dc_far = Consistency::between(&far, &vn).degree();
        assert!(dc_far <= dc_near + 1e-9);
    }
}

/// A trapezoid drawn from a corner-heavy distribution: plain random
/// shapes mixed with zero-spread flanks, crisp intervals, crisp points,
/// and near-copies of a base value (the overlap-rich regime where the
/// closed-form breakpoint enumeration earns its keep).
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
            // Shifted near-copy of the base: dense ramp–ramp crossings.
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

/// The tentpole's exactness contract: on 10 000 corner-heavy random
/// pairs the closed-form trapezoid `Dc` and the PWL fallback must agree
/// to 1e-12 in degree and exactly in direction — they integrate the
/// same piecewise-linear pointwise minimum, so any real divergence is a
/// kernel bug, not rounding.
#[test]
fn closed_form_dc_matches_pwl_on_10k_pairs() {
    let mut r = Rng(0xDC_2026);
    for case in 0..10_000 {
        let base = trapezoid(&mut r);
        let vm = corner_trapezoid(&mut r, base);
        let vn = corner_trapezoid(&mut r, vm);
        let fast = Consistency::between(&vm, &vn);
        let slow = Consistency::between_pwl(&vm.to_pwl(), &vn.to_pwl());
        assert!(
            (fast.degree() - slow.degree()).abs() <= 1e-12,
            "case {case}: closed-form {} != pwl {} for {vm:?} vs {vn:?}",
            fast.degree(),
            slow.degree()
        );
        assert_eq!(
            fast.direction(),
            slow.direction(),
            "case {case}: direction diverges for {vm:?} vs {vn:?}"
        );
    }
}

#[test]
fn entropy_image_is_bounded() {
    let mut r = Rng(23);
    for _ in 0..CASES {
        let e = estimation(&mut r);
        let h = fuzzy_point_entropy(&e).unwrap();
        let peak = point_entropy(std::f64::consts::E.recip());
        assert!(h.support_lo() >= -1e-9);
        assert!(h.support_hi() <= peak + 1e-9);
    }
}

#[test]
fn entropy_of_system_additive_bound() {
    let mut r = Rng(24);
    for _ in 0..CASES {
        let es: Vec<FuzzyInterval> = (0..r.below(6)).map(|_| estimation(&mut r)).collect();
        let h = fuzzy_entropy(&es).unwrap();
        let peak = point_entropy(std::f64::consts::E.recip());
        assert!(h.support_hi() <= peak * es.len() as f64 + 1e-9);
        assert!(h.support_lo() >= -1e-9);
    }
}

#[test]
fn entropy_point_values_inside_fuzzy_image() {
    let mut r = Rng(25);
    for _ in 0..CASES {
        let e = estimation(&mut r);
        let t = r.f64();
        // h(x) for any x in the support must fall inside the fuzzy image's support.
        let x = e.support_lo() + t * e.support_width();
        let h = fuzzy_point_entropy(&e).unwrap();
        let hx = point_entropy(x.clamp(0.0, 1.0));
        assert!(hx >= h.support_lo() - 1e-9);
        assert!(hx <= h.support_hi() + 1e-9);
    }
}

#[test]
fn satisfaction_matches_membership_for_points() {
    let mut r = Rng(26);
    for _ in 0..CASES {
        let x = r.range(-10.0, 120.0);
        let cond = FuzzyInterval::new(-1.0, 100.0, 0.0, 10.0).unwrap();
        let v = FuzzyInterval::crisp(x);
        assert_eq!(v.satisfaction_of(&cond), cond.membership(x));
    }
}
