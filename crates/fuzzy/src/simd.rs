//! Hand-rolled 4-wide (`[f64; 4]`) kernels for the fuzzy hot loops.
//!
//! This crate forbids `unsafe`, so instead of raw `core::arch`
//! intrinsics the wide paths are built from [`W4`], a `[f64; 4]` value
//! type whose every operation is four independent, identical scalar
//! lane expressions. LLVM's SLP vectorizer lowers these to packed
//! SSE2/AVX instructions; because no operation mixes lanes, a value
//! computed in lane `i` of a 4-wide call is **bit-for-bit** the value
//! the same code computes for that pair alone (e.g. splatted across all
//! four lanes). That lane independence is what lets a short run's tail
//! (fewer than four entries, evaluated one splatted lane at a time)
//! reproduce the grouped results exactly — both run the same per-lane
//! expression DAG.
//!
//! The centerpiece is [`dc4`], a branch-free batch evaluation of the
//! paper's degree of consistency `Dc = area(Vm ⊓ Vn) / area(Vm)` over
//! four trapezoid pairs at once. Where the scalar closed form
//! ([`FuzzyInterval::intersection_area`]) integrates *vertically* —
//! membership breakpoints on the x-axis, whose count is data-dependent
//! — the batch kernel integrates the same region *horizontally* over
//! α-cuts: at height `y` the cut of a trapezoid is the interval
//! `[sl + y·α, sh − y·β]`, so by Fubini
//!
//! ```text
//! area(Vm ⊓ Vn) = ∫₀¹ max(0, g(y)) dy,
//! g(y) = min(ash − y·βm, bsh − y·βn) − max(asl + y·αm, bsl + y·αn)
//! ```
//!
//! `g` is decreasing, concave and piecewise affine with at most two
//! interior breakpoints (where the `min` pair and the `max` pair switch
//! sides) — a *fixed* three-cell layout with no sorting and no
//! membership evaluations, ideal for lane-wise evaluation. Control flow
//! (dead ramps, disjoint supports, crisp measurements) becomes select
//! masks. The kernel is held to ≤ 1e-12 agreement and direction
//! equality against the scalar oracle [`crate::Consistency::between`]
//! by the differential suites.

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

    /// Lane-wise minimum (both operands are ordinary numbers on every
    /// kernel path — no lane is ever NaN when a `min`/`max` sees it).
    #[must_use]
    #[inline(always)]
    pub fn min(self, o: Self) -> Self {
        Self::select(self.lt(o), self, o)
    }

    /// Lane-wise maximum.
    #[must_use]
    #[inline(always)]
    pub fn max(self, o: Self) -> Self {
        Self::select(self.gt(o), self, o)
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

    /// Lane-wise `x.clamp(0.0, 1.0)` with exactly `f64::clamp`'s
    /// comparison structure (below-min first, then above-max).
    #[must_use]
    #[inline(always)]
    pub fn clamp01(self) -> Self {
        let zero = Self::splat(0.0);
        let one = Self::splat(1.0);
        Self::select(self.lt(zero), zero, Self::select(self.gt(one), one, self))
    }

    /// Lane-wise absolute value.
    #[must_use]
    #[inline(always)]
    pub fn abs(self) -> Self {
        let a = |x: f64| f64::from_bits(x.to_bits() & (u64::MAX >> 1));
        let v = self.0;
        Self([a(v[0]), a(v[1]), a(v[2]), a(v[3])])
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

/// Lane-wise defuzzified-center ordering: `centroid(vm) < centroid(vn)`
/// per lane, the comparison direction grading needs — computed without
/// a single division by cross-multiplying the centroid fractions.
///
/// The trapezoid centroid is `s / a` with moment sum
/// `s = ½α(m1 − α/3) + ½(m2 − m1)(m1 + m2) + ½β(m2 + β/3)` and area
/// `a`; scaling by 6 clears the fractions:
/// `6s = 3α·m1 − α² + 3(m2² − m1²) + 3β·m2 + β²`. Since areas are
/// positive, `s_m/a_m < s_n/a_n  ⇔  6s_m·6a_n < 6s_n·6a_m` — two
/// multiplications instead of the six lane divisions two full centroid
/// evaluations would cost. Zero-area lanes substitute the scalar
/// fallback center `(m1 + m2)/2` as the fraction `(m1 + m2) / 2`; the
/// area-zero test compares the same `(m2 − m1) + ½(α + β)` expression
/// the scalar path evaluates, so the fallback triggers on exactly the
/// same lanes.
///
/// This is the *exact* real-arithmetic ordering of the two centers; it
/// can disagree with comparing the two *rounded* scalar quotients only
/// when the true centers are within a few ulp of each other —
/// direction equality with the scalar oracle is differential-tested
/// over the 10k corner-mix corpus, and grouped lanes and splatted tail
/// lanes share this code, so their results stay bit-identical
/// structurally.
#[must_use]
#[inline(always)]
pub fn center_lt4(vm: &Traps4, vn: &Traps4) -> M4 {
    let half = W4::splat(0.5);
    let three = W4::splat(3.0);
    let fraction = |t: &Traps4| {
        let a = t.m2.sub(t.m1).add(half.mul(t.alpha.add(t.beta)));
        // 6s = 3·(α·m1 + (m2² − m1²) + β·m2) − α² + β²
        let moments = t
            .alpha
            .mul(t.m1)
            .add(t.m2.mul(t.m2).sub(t.m1.mul(t.m1)))
            .add(t.beta.mul(t.m2));
        let six_s = three
            .mul(moments)
            .sub(t.alpha.mul(t.alpha))
            .add(t.beta.mul(t.beta));
        let crisp = a.eq_mask(W4::splat(0.0));
        let num = W4::select(crisp, t.m1.add(t.m2), six_s);
        let den = W4::select(crisp, W4::splat(2.0), W4::splat(6.0).mul(a));
        (num, den)
    };
    let (num_m, den_m) = fraction(vm);
    let (num_n, den_n) = fraction(vn);
    num_m.mul(den_n).lt(num_n.mul(den_m))
}

/// Branch-free batch degree of consistency: `Dc(vm_i, vn_i)` for four
/// trapezoid pairs at once, agreeing with the scalar closed form
/// [`crate::Consistency::between`] to ≤ 1e-12 (property-tested) by
/// integrating the same region horizontally over α-cuts (see the
/// module docs):
///
/// 1. the cut length `g(y) = right(y) − left(y)` is assembled from the
///    support corners and spreads — multiplications only, so crisp
///    edges (zero spreads) are just vertical cut bounds, with no
///    special cases;
/// 2. the two candidate breakpoints — where the `min` pair of the
///    right bounds and the `max` pair of the left bounds switch — are
///    one division each, clamped into `[0, 1]` (a parallel pair, zero
///    denominator, has no switch and collapses to a zero-width cell);
/// 3. `∫ max(0, g)` is summed over the three cells: a cell with one
///    sign change contributes the exact crossing triangle
///    `w·(p² + q²) / (2·|gu − gv|)` (`p`, `q` the clamped-positive
///    endpoint values), a same-sign cell the plain trapezoid rule
///    `w·max(gu + gv, 0)/2` — both exact, `g` being affine per cell;
/// 4. the degree is `area / area(vm)` clamped to `[0, 1]`, or — for a
///    crisp (zero-area) measurement — the membership of `vm`'s core
///    midpoint in `vn`, the same limit the scalar path takes.
///
/// Directions are graded by the caller ([`center_lt4`], evaluated only
/// when some lane is not fully consistent), so the kernel returns only
/// the graded-degree inputs.
#[must_use]
#[inline]
pub fn dc4(vm: &Traps4, vn: &Traps4) -> W4 {
    let one = W4::splat(1.0);
    let zero = W4::splat(0.0);
    let half = W4::splat(0.5);

    // Support corners: the cut of vm at height y is
    // [asl + y·αm, ash − y·βm], and likewise for vn.
    let asl = vm.m1.sub(vm.alpha);
    let ash = vm.m2.add(vm.beta);
    let bsl = vn.m1.sub(vn.alpha);
    let bsh = vn.m2.add(vn.beta);

    // Candidate breakpoints of g: the right bounds cross at
    // y = (ash − bsh)/(βm − βn), the left bounds at
    // y = (bsl − asl)/(αm − αn). Equal spreads mean parallel bounds —
    // no switch — so the (∞ or NaN) quotient is replaced by 0, which
    // only pads the layout with a zero-width cell. Out-of-range
    // crossings clamp onto the integration bounds the same way.
    let switch_at = |num: W4, den: W4| W4::select(den.eq_mask(zero), zero, num.div(den).clamp01());
    let y_right = switch_at(ash.sub(bsh), vm.beta.sub(vn.beta));
    let y_left = switch_at(bsl.sub(asl), vm.alpha.sub(vn.alpha));
    let ya = y_right.min(y_left);
    let yb = y_right.max(y_left);

    // g at the four cell boundaries 0 ≤ ya ≤ yb ≤ 1. g(0) and g(1)
    // shortcut to the support/core overlaps.
    let g_at = |y: W4| {
        let right = ash.sub(y.mul(vm.beta)).min(bsh.sub(y.mul(vn.beta)));
        let left = asl.add(y.mul(vm.alpha)).max(bsl.add(y.mul(vn.alpha)));
        right.sub(left)
    };
    let g0 = ash.min(bsh).sub(asl.max(bsl));
    let ga = g_at(ya);
    let gb = g_at(yb);
    let g1 = vm.m2.min(vn.m2).sub(vm.m1.max(vn.m1));

    // ∫ max(0, g) per cell, as a fraction `num/den` so the three cell
    // divisions fold into one. g is affine on each cell, so a
    // same-sign cell is the exact trapezoid rule over 1 (zero if
    // g ≤ 0 throughout — which also covers disjoint supports, g being
    // decreasing) and a sign-changing cell the exact crossing triangle
    // `w·(p² + q²)` over `2·|gu − gv|` (positive: the endpoints differ
    // in sign). `area = Σ numᵢ/denᵢ` becomes `N/D` by clearing to the
    // common denominator `D = d₁·d₂·d₃ > 0`; the handful of extra
    // multiplications rounds the result within a few ulp, far inside
    // the 1e-12 differential contract, and costs a fraction of the
    // two divisions it replaces.
    let cell = |gu: W4, gv: W4, w: W4| {
        let trap = half.mul(gu.add(gv).max(zero));
        let p = gu.max(zero);
        let q = gv.max(zero);
        let cross = gu.mul(gv).lt(zero);
        let num = w.mul(W4::select(cross, p.mul(p).add(q.mul(q)), trap));
        let den = W4::select(cross, gu.sub(gv).abs().mul(W4::splat(2.0)), one);
        (num, den)
    };
    let (n1, d1) = cell(g0, ga, ya);
    let (n2, d2) = cell(ga, gb, yb.sub(ya));
    let (n3, d3) = cell(gb, g1, one.sub(yb));
    let d12 = d1.mul(d2);
    let area_num = n1.mul(d2.mul(d3)).add(n2.mul(d1.mul(d3))).add(n3.mul(d12));
    let area_den = d12.mul(d3);

    // Degree: area quotient `N / (D·area(vm))`, or — for a crisp
    // (zero-area) measurement — the membership of the core midpoint in
    // vn. At most one ramp of vn is on the midpoint's side, so the
    // membership is a single fraction too: the active ramp's rise over
    // its spread, 1/1 when the point sits inside the core. Both
    // candidates are selected *as fractions* before the one shared
    // division (a zero-spread flank divides a strictly negative rise
    // by +0 — a clean −∞ that clamps to 0, never NaN).
    let area_m = vm.m2.sub(vm.m1).add(half.mul(vm.alpha.add(vm.beta)));
    let point = half.mul(vm.m1.add(vm.m2));
    let below = point.lt(vn.m1);
    let inside = below.not().and(point.le(vn.m2));
    let ramp_num = W4::select(below, point.sub(bsl), bsh.sub(point));
    let ramp_den = W4::select(below, vn.alpha, vn.beta);
    let mem_num = W4::select(inside, one, ramp_num);
    let mem_den = W4::select(inside, one, ramp_den);
    let crisp = area_m.eq_mask(zero);
    let num = W4::select(crisp, mem_num, area_num);
    let den = W4::select(crisp, mem_den, area_den.mul(area_m));
    num.div(den).clamp01()
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The α-cut integral against the scalar vertical integration on a
    /// grid of hand-picked shapes (the differential suites cover the
    /// random corpora).
    #[test]
    fn dc4_area_matches_scalar_intersection_area() {
        let fi = |m1: f64, m2: f64, a: f64, b: f64| FuzzyInterval::new(m1, m2, a, b).unwrap();
        let shapes = [
            fi(1.0, 2.0, 0.5, 0.5),
            fi(1.5, 2.5, 0.25, 1.0),
            fi(0.0, 0.0, 0.0, 2.0),
            fi(-1.0, 1.0, 0.0, 0.0),
            fi(5.0, 6.0, 2.0, 0.0),
            fi(0.0, 4.0, 1.0, 3.0),
        ];
        for vm in &shapes {
            for vn in &shapes {
                let wide = dc4(&Traps4::splat(vm), &Traps4::splat(vn)).lane(0);
                let scalar = (vm.intersection_area(vn) / vm.area()).clamp(0.0, 1.0);
                assert!(
                    (wide - scalar).abs() <= 1e-12,
                    "{vm:?} vs {vn:?}: {wide} != {scalar}"
                );
            }
        }
    }

    #[test]
    fn dc4_lanes_are_independent_of_their_neighbors() {
        let pairs = [
            (
                FuzzyInterval::new(1.0, 2.0, 0.5, 0.5).unwrap(),
                FuzzyInterval::new(1.5, 2.5, 0.25, 1.0).unwrap(),
            ),
            (
                FuzzyInterval::crisp(3.0),
                FuzzyInterval::new(2.0, 4.0, 1.0, 1.0).unwrap(),
            ),
            (
                FuzzyInterval::new(0.0, 0.0, 0.0, 2.0).unwrap(),
                FuzzyInterval::new(5.0, 6.0, 1.0, 0.0).unwrap(),
            ),
            (
                FuzzyInterval::new(-1.0, 1.0, 0.0, 0.0).unwrap(),
                FuzzyInterval::new(0.0, 0.5, 0.1, 0.1).unwrap(),
            ),
        ];
        let col = |f: fn(&FuzzyInterval) -> f64, side: usize| -> Vec<f64> {
            pairs
                .iter()
                .map(|p| f(if side == 0 { &p.0 } else { &p.1 }))
                .collect()
        };
        let load = |side| {
            Traps4::load(
                &col(FuzzyInterval::core_lo, side),
                &col(FuzzyInterval::core_hi, side),
                &col(FuzzyInterval::spread_left, side),
                &col(FuzzyInterval::spread_right, side),
                0,
            )
        };
        let wide = dc4(&load(0), &load(1));
        for (i, (vm, vn)) in pairs.iter().enumerate() {
            let solo = dc4(&Traps4::splat(vm), &Traps4::splat(vn));
            assert_eq!(
                wide.lane(i).to_bits(),
                solo.lane(0).to_bits(),
                "lane {i} differs between batched and splatted evaluation"
            );
        }
    }
}
