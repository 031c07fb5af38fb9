//! Hand-rolled 4-wide (`[f64; 4]`) kernels for the fuzzy hot loops.
//!
//! This crate forbids `unsafe`, so instead of raw `core::arch`
//! intrinsics the wide paths are built from [`W4`], a `[f64; 4]` value
//! type whose every operation is four independent, identical scalar
//! lane expressions. LLVM's SLP vectorizer can lower these to packed
//! SSE2/AVX instructions — provided callers read the resulting masks
//! through [`M4::bits`] rather than branching per lane inside a group
//! loop, which sends it back to scalar compares. Because no operation
//! mixes lanes, a value computed in lane `i` of a 4-wide call is
//! **bit-for-bit** the value the same code computes for that pair
//! alone (e.g. splatted across all four lanes). That lane independence
//! is what lets a short run's tail (fewer than four entries, evaluated
//! one splatted lane at a time) reproduce the grouped results exactly —
//! both run the same per-lane expression DAG.
//!
//! The kernels are the ones the propagation engine runs per label
//! entry: coincidence classification ([`included4`], [`possibility4`],
//! [`width4`], [`ne4`]) and the constraint-apply arithmetic ([`add4`],
//! [`scale4`] for Linear relations, [`mul4`] and [`div4`] for Product
//! relations). Each is held **bit for bit** to the [`FuzzyInterval`]
//! method it mirrors by the differential suite
//! (`crates/fuzzy/tests/simd_diff.rs`).

use crate::trapezoid::FuzzyInterval;

/// Four `f64` lanes. Every method is four independent scalar lane
/// expressions — no operation mixes lanes, so per-lane results never
/// depend on what the other lanes hold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct W4(pub [f64; 4]);

/// Four boolean lanes — the result of a [`W4`] comparison, consumed by
/// [`W4::select`]. Each lane is an all-ones (`u64::MAX`) or all-zeros
/// bit mask, the hardware compare-result representation: branchless
/// bitwise blends keep the whole kernel straight-line code, which is
/// what lets the SLP vectorizer lower it to packed compares and blends
/// (per-lane `bool`s tempt LLVM into compare-and-branch scalar code).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct M4(pub [u64; 4]);

// The arithmetic methods deliberately share names with the `std::ops`
// operator traits: the kernels read as lane math, and inherent methods
// keep call sites free of trait imports while composing with the
// mask-returning comparisons (which the operator traits could not
// express anyway).
#[allow(clippy::should_implement_trait)]
impl W4 {
    /// All four lanes set to `x`.
    #[must_use]
    #[inline(always)]
    pub const fn splat(x: f64) -> Self {
        Self([x; 4])
    }

    /// Lanes loaded from `s[i..i + 4]` — via a fixed-size window, so
    /// the four loads carry one bounds check and fuse into a single
    /// unaligned packed load instead of four scalar loads stitched
    /// together with shuffles.
    #[must_use]
    #[inline(always)]
    pub fn load(s: &[f64], i: usize) -> Self {
        let w: &[f64; 4] = s[i..i + 4].try_into().expect("4-lane window");
        Self(*w)
    }

    /// One lane.
    #[must_use]
    #[inline(always)]
    pub fn lane(self, i: usize) -> f64 {
        self.0[i]
    }

    /// Lane-wise addition.
    #[must_use]
    #[inline(always)]
    pub fn add(self, o: Self) -> Self {
        let (a, b) = (self.0, o.0);
        Self([a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]])
    }

    /// Lane-wise subtraction.
    #[must_use]
    #[inline(always)]
    pub fn sub(self, o: Self) -> Self {
        let (a, b) = (self.0, o.0);
        Self([a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]])
    }

    /// Lane-wise multiplication.
    #[must_use]
    #[inline(always)]
    pub fn mul(self, o: Self) -> Self {
        let (a, b) = (self.0, o.0);
        Self([a[0] * b[0], a[1] * b[1], a[2] * b[2], a[3] * b[3]])
    }

    /// Lane-wise division.
    #[must_use]
    #[inline(always)]
    pub fn div(self, o: Self) -> Self {
        let (a, b) = (self.0, o.0);
        Self([a[0] / b[0], a[1] / b[1], a[2] / b[2], a[3] / b[3]])
    }

    /// Lane-wise `self < o`.
    #[must_use]
    #[inline(always)]
    pub fn lt(self, o: Self) -> M4 {
        let m = |a: f64, b: f64| u64::from(a < b).wrapping_neg();
        let (a, b) = (self.0, o.0);
        M4([m(a[0], b[0]), m(a[1], b[1]), m(a[2], b[2]), m(a[3], b[3])])
    }

    /// Lane-wise `self > o`.
    #[must_use]
    #[inline(always)]
    pub fn gt(self, o: Self) -> M4 {
        let m = |a: f64, b: f64| u64::from(a > b).wrapping_neg();
        let (a, b) = (self.0, o.0);
        M4([m(a[0], b[0]), m(a[1], b[1]), m(a[2], b[2]), m(a[3], b[3])])
    }

    /// Lane-wise `self <= o`.
    #[must_use]
    #[inline(always)]
    pub fn le(self, o: Self) -> M4 {
        let m = |a: f64, b: f64| u64::from(a <= b).wrapping_neg();
        let (a, b) = (self.0, o.0);
        M4([m(a[0], b[0]), m(a[1], b[1]), m(a[2], b[2]), m(a[3], b[3])])
    }

    /// Lane-wise `self >= o`.
    #[must_use]
    #[inline(always)]
    pub fn ge(self, o: Self) -> M4 {
        let m = |a: f64, b: f64| u64::from(a >= b).wrapping_neg();
        let (a, b) = (self.0, o.0);
        M4([m(a[0], b[0]), m(a[1], b[1]), m(a[2], b[2]), m(a[3], b[3])])
    }

    /// Lane-wise `self == o`.
    #[must_use]
    #[inline(always)]
    pub fn eq_mask(self, o: Self) -> M4 {
        let m = |a: f64, b: f64| u64::from(a == b).wrapping_neg();
        let (a, b) = (self.0, o.0);
        M4([m(a[0], b[0]), m(a[1], b[1]), m(a[2], b[2]), m(a[3], b[3])])
    }

    /// Lane-wise blend: `a` where the mask is set, `b` elsewhere. Both
    /// operands are fully evaluated (as in a hardware blend), so NaN or
    /// infinity in a *discarded* lane is harmless by construction.
    #[must_use]
    #[inline(always)]
    pub fn select(m: M4, a: Self, b: Self) -> Self {
        let blend = |a: f64, b: f64, m: u64| f64::from_bits((a.to_bits() & m) | (b.to_bits() & !m));
        let (a, b, m) = (a.0, b.0, m.0);
        Self([
            blend(a[0], b[0], m[0]),
            blend(a[1], b[1], m[1]),
            blend(a[2], b[2], m[2]),
            blend(a[3], b[3], m[3]),
        ])
    }

    /// Lane-wise [`f64::min`] (NaN-ignoring, as the scalar method).
    #[must_use]
    #[inline(always)]
    pub fn min(self, o: Self) -> Self {
        let (a, b) = (self.0, o.0);
        Self([
            a[0].min(b[0]),
            a[1].min(b[1]),
            a[2].min(b[2]),
            a[3].min(b[3]),
        ])
    }

    /// Lane-wise [`f64::max`] (NaN-ignoring, as the scalar method).
    #[must_use]
    #[inline(always)]
    pub fn max(self, o: Self) -> Self {
        let (a, b) = (self.0, o.0);
        Self([
            a[0].max(b[0]),
            a[1].max(b[1]),
            a[2].max(b[2]),
            a[3].max(b[3]),
        ])
    }

    /// Lane-wise [`f64::is_finite`].
    #[must_use]
    #[inline(always)]
    pub fn is_finite(self) -> M4 {
        let m = |a: f64| u64::from(a.is_finite()).wrapping_neg();
        let a = self.0;
        M4([m(a[0]), m(a[1]), m(a[2]), m(a[3])])
    }

    /// Lane-wise `x.clamp(0.0, 1.0)` with exactly `f64::clamp`'s
    /// comparison structure (below-min first, then above-max).
    #[must_use]
    #[inline(always)]
    pub fn clamp01(self) -> Self {
        let zero = Self::splat(0.0);
        let one = Self::splat(1.0);
        Self::select(self.lt(zero), zero, Self::select(self.gt(one), one, self))
    }
}

// `not` shares its name with `std::ops::Not` for the same reason the
// `W4` arithmetic shares names with the operator traits — see above.
#[allow(clippy::should_implement_trait)]
impl M4 {
    /// Lane-wise conjunction.
    #[must_use]
    #[inline(always)]
    pub fn and(self, o: Self) -> Self {
        let (a, b) = (self.0, o.0);
        Self([a[0] & b[0], a[1] & b[1], a[2] & b[2], a[3] & b[3]])
    }

    /// Lane-wise disjunction.
    #[must_use]
    #[inline(always)]
    pub fn or(self, o: Self) -> Self {
        let (a, b) = (self.0, o.0);
        Self([a[0] | b[0], a[1] | b[1], a[2] | b[2], a[3] | b[3]])
    }

    /// Lane-wise negation.
    #[must_use]
    #[inline(always)]
    pub fn not(self) -> Self {
        let a = self.0;
        Self([!a[0], !a[1], !a[2], !a[3]])
    }

    /// True when any lane is set.
    #[must_use]
    #[inline(always)]
    pub fn any(self) -> bool {
        (self.0[0] | self.0[1] | self.0[2] | self.0[3]) != 0
    }

    /// True when every lane is set.
    #[must_use]
    #[inline(always)]
    pub fn all(self) -> bool {
        (self.0[0] & self.0[1] & self.0[2] & self.0[3]) != 0
    }

    /// One lane.
    #[must_use]
    #[inline(always)]
    pub fn lane(self, i: usize) -> bool {
        self.0[i] != 0
    }

    /// The four lanes as a bitmask, lane `i` in bit `i` (the packed
    /// `movmskpd` form). Kernels consume masks through this — counting
    /// set bits, or walking them in ascending lane order — rather than
    /// branching on [`M4::lane`] inside a group loop, which makes LLVM
    /// fall back to scalar compares for the whole group.
    #[must_use]
    #[inline(always)]
    pub fn bits(self) -> u32 {
        let a = self.0;
        let b = |i: usize| ((a[i] >> 63) as u32) << i;
        b(0) | b(1) | b(2) | b(3)
    }
}

/// Columnar view of four trapezoids: one [`W4`] per `[m1, m2, α, β]`
/// column, loaded straight from struct-of-arrays stores.
#[derive(Debug, Clone, Copy)]
pub struct Traps4 {
    /// Core lower bounds.
    pub m1: W4,
    /// Core upper bounds.
    pub m2: W4,
    /// Left spreads.
    pub alpha: W4,
    /// Right spreads.
    pub beta: W4,
}

impl Traps4 {
    /// Loads lanes `i..i + 4` of four parallel columns.
    #[must_use]
    #[inline(always)]
    pub fn load(m1: &[f64], m2: &[f64], alpha: &[f64], beta: &[f64], i: usize) -> Self {
        Self {
            m1: W4::load(m1, i),
            m2: W4::load(m2, i),
            alpha: W4::load(alpha, i),
            beta: W4::load(beta, i),
        }
    }

    /// One trapezoid splatted across all four lanes.
    #[must_use]
    #[inline(always)]
    pub fn splat(v: &FuzzyInterval) -> Self {
        Self {
            m1: W4::splat(v.core_lo()),
            m2: W4::splat(v.core_hi()),
            alpha: W4::splat(v.spread_left()),
            beta: W4::splat(v.spread_right()),
        }
    }

    /// Reassembles lane `i` as a [`FuzzyInterval`].
    #[must_use]
    #[inline(always)]
    pub fn lane(&self, i: usize) -> FuzzyInterval {
        FuzzyInterval::from_columns(
            self.m1.lane(i),
            self.m2.lane(i),
            self.alpha.lane(i),
            self.beta.lane(i),
        )
    }
}

/// Lane-wise [`FuzzyInterval::is_included_in`]: support and core of `a`
/// inside those of `b`, each bound compared with the scalar method's
/// exact `m1 − α` / `m2 + β` expressions.
#[must_use]
#[inline(always)]
pub fn included4(a: &Traps4, b: &Traps4) -> M4 {
    let sup =
        a.m1.sub(a.alpha)
            .ge(b.m1.sub(b.alpha))
            .and(a.m2.add(a.beta).le(b.m2.add(b.beta)));
    sup.and(a.m1.ge(b.m1)).and(a.m2.le(b.m2))
}

/// Lane-wise [`FuzzyInterval::possibility_of`] — `sup min(μa, μb)`.
/// The scalar method is bitwise symmetric in its arguments (both
/// orientations of the facing-ramp case evaluate the same
/// `(total − gap)/total` on the same operands in the same order), so
/// the caller may pass the operands either way. The division runs on
/// every lane; its value is select-discarded exactly where the scalar
/// code would not have divided (meeting cores, dead ramps), so a ±∞ or
/// NaN there is never observable.
#[must_use]
#[inline(always)]
pub fn possibility4(a: &Traps4, b: &Traps4) -> W4 {
    let zero = W4::splat(0.0);
    let one = W4::splat(1.0);
    let cores_meet = a.m1.le(b.m2).and(b.m1.le(a.m2));
    // Facing ramps: the left value's right ramp against the right
    // value's left ramp.
    let a_left = a.m2.lt(b.m1);
    let hi_core = W4::select(a_left, a.m2, b.m2);
    let hi_beta = W4::select(a_left, a.beta, b.beta);
    let lo_core = W4::select(a_left, b.m1, a.m1);
    let lo_alpha = W4::select(a_left, b.alpha, a.alpha);
    let gap = lo_core.sub(hi_core);
    let total = lo_alpha.add(hi_beta);
    let dead = total.eq_mask(zero).or(gap.ge(total));
    let crossing = total.sub(gap).div(total).clamp01();
    W4::select(cores_meet, one, W4::select(dead, zero, crossing))
}

/// Lane-wise fuzzy addition `M ⊕ N = [m1+n1, m2+n2, α+γ, β+δ]` — the
/// exact field adds of the scalar `Add` impl, four trapezoids at once.
#[must_use]
#[inline(always)]
pub fn add4(a: &Traps4, b: &Traps4) -> Traps4 {
    Traps4 {
        m1: a.m1.add(b.m1),
        m2: a.m2.add(b.m2),
        alpha: a.alpha.add(b.alpha),
        beta: a.beta.add(b.beta),
    }
}

/// Lane-wise [`FuzzyInterval::scaled`] by one crisp scalar. The sign
/// branch is uniform across lanes (`k` is a constraint coefficient, the
/// same for all four), and the negative case uses the identity
/// `(−k)·(−x) ≡ k·x` — bit-exact in IEEE 754 (sign xor, identical
/// magnitude rounding) — to fold the scalar path's negate-then-scale
/// into one multiply per field, with the spreads swapped exactly as
/// [`FuzzyInterval::negated`] swaps them.
#[must_use]
#[inline(always)]
pub fn scale4(t: &Traps4, k: f64) -> Traps4 {
    let kw = W4::splat(k);
    if k >= 0.0 {
        Traps4 {
            m1: t.m1.mul(kw),
            m2: t.m2.mul(kw),
            alpha: t.alpha.mul(kw),
            beta: t.beta.mul(kw),
        }
    } else {
        let nk = W4::splat(-k);
        Traps4 {
            m1: t.m2.mul(kw),
            m2: t.m1.mul(kw),
            alpha: t.beta.mul(nk),
            beta: t.alpha.mul(nk),
        }
    }
}

/// Lane-wise support width, the exact `(m2 + β) − (m1 − α)` expression
/// of the columnar store and [`FuzzyInterval::support_width`].
#[must_use]
#[inline(always)]
pub fn width4(t: &Traps4) -> W4 {
    t.m2.add(t.beta).sub(t.m1.sub(t.alpha))
}

/// Lane-wise `a != b` over all four trapezoid fields — the negation of
/// the derived `PartialEq` (IEEE `==` per field, so `-0.0 == 0.0` just
/// like the scalar comparison).
#[must_use]
#[inline(always)]
pub fn ne4(a: &Traps4, b: &Traps4) -> M4 {
    a.m1.eq_mask(b.m1)
        .and(a.m2.eq_mask(b.m2))
        .and(a.alpha.eq_mask(b.alpha))
        .and(a.beta.eq_mask(b.beta))
        .not()
}

/// Lane-wise `(min, max)` of four vertex values, folded in the order of
/// the scalar `minmax_products` / `minmax_quotients` loops.
#[inline(always)]
fn minmax4(v: [W4; 4]) -> (W4, W4) {
    let (mut lo, mut hi) = (v[0], v[0]);
    for &x in &v[1..] {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    (lo, hi)
}

/// Lane-wise `trapezoid_from_levels`: the `max(0.0)`-guarded spreads,
/// and the [`FuzzyInterval::new`] validation (all four fields finite,
/// `m1 ≤ m2`, spreads non-negative) as the `Ok` mask.
#[inline(always)]
fn from_levels4(core_lo: W4, core_hi: W4, supp_lo: W4, supp_hi: W4) -> (Traps4, M4) {
    let zero = W4::splat(0.0);
    let alpha = core_lo.sub(supp_lo).max(zero);
    let beta = supp_hi.sub(core_hi).max(zero);
    let ok = core_lo
        .is_finite()
        .and(core_hi.is_finite())
        .and(alpha.is_finite())
        .and(beta.is_finite())
        .and(core_lo.gt(core_hi).not())
        .and(alpha.lt(zero).not())
        .and(beta.lt(zero).not());
    let t = Traps4 {
        m1: core_lo,
        m2: core_hi,
        alpha,
        beta,
    };
    (t, ok)
}

/// Lane-wise [`FuzzyInterval::mul`] by the vertex method: the four
/// core and four support products per lane, folded with `f64::min` /
/// `f64::max` in the scalar order. Returns the result columns and the
/// lanes where the scalar method returns `Ok`; the columns of the
/// other lanes are unspecified and must not be read.
#[must_use]
#[inline(always)]
pub fn mul4(a: &Traps4, b: &Traps4) -> (Traps4, M4) {
    let (core_lo, core_hi) = minmax4([
        a.m1.mul(b.m1),
        a.m1.mul(b.m2),
        a.m2.mul(b.m1),
        a.m2.mul(b.m2),
    ]);
    let (a_lo, a_hi) = (a.m1.sub(a.alpha), a.m2.add(a.beta));
    let (b_lo, b_hi) = (b.m1.sub(b.alpha), b.m2.add(b.beta));
    let (supp_lo, supp_hi) = minmax4([
        a_lo.mul(b_lo),
        a_lo.mul(b_hi),
        a_hi.mul(b_lo),
        a_hi.mul(b_hi),
    ]);
    from_levels4(core_lo, core_hi, supp_lo, supp_hi)
}

/// Lane-wise [`FuzzyInterval::div`] (`a ⊘ b`) by the vertex method, with
/// `mul4`'s contract. A lane whose divisor support touches or spans
/// zero — the scalar method's `DivisorSpansZero` error — is cleared
/// from the `Ok` mask; its quotients are computed anyway and discarded.
#[must_use]
#[inline(always)]
pub fn div4(a: &Traps4, b: &Traps4) -> (Traps4, M4) {
    let zero = W4::splat(0.0);
    let (b_lo, b_hi) = (b.m1.sub(b.alpha), b.m2.add(b.beta));
    let spans_zero = b_lo.le(zero).and(b_hi.ge(zero));
    let (core_lo, core_hi) = minmax4([
        a.m1.div(b.m1),
        a.m1.div(b.m2),
        a.m2.div(b.m1),
        a.m2.div(b.m2),
    ]);
    let (a_lo, a_hi) = (a.m1.sub(a.alpha), a.m2.add(a.beta));
    let (supp_lo, supp_hi) = minmax4([
        a_lo.div(b_lo),
        a_lo.div(b_hi),
        a_hi.div(b_lo),
        a_hi.div(b_hi),
    ]);
    let (t, ok) = from_levels4(core_lo, core_hi, supp_lo, supp_hi);
    (t, ok.and(spans_zero.not()))
}
