use crate::error::FuzzyError;
use crate::pwl::Pwl;
use crate::Result;
use std::fmt;

/// A trapezoidal fuzzy interval `[m1, m2, α, β]` (the paper's Fig. 1).
///
/// The *core* — the set of fully possible values — is `[m1, m2]`; the
/// membership ramps linearly from `0` at `m1 − α` up to `1` at `m1`, stays at
/// `1` across the core, and ramps back down to `0` at `m2 + β`:
///
/// ```text
/// μ(x) = (x − m1 + α)/α   for x ∈ [m1 − α, m1]
/// μ(x) = 1                for x ∈ [m1, m2]
/// μ(x) = (m2 + β − x)/β   for x ∈ [m2, m2 + β]
/// ```
///
/// The representation uniformly covers the four kinds of value the paper
/// needs (§3.2):
///
/// * a crisp number `m` is `[m, m, 0, 0]` — see [`FuzzyInterval::crisp`];
/// * a crisp interval `[a, b]` is `[a, b, 0, 0]` —
///   see [`FuzzyInterval::crisp_interval`];
/// * a fuzzy number `M` is `[m, m, α, β]` —
///   see [`FuzzyInterval::fuzzy_number`];
/// * the general case is a fuzzy interval.
///
/// # Example
///
/// ```
/// use flames_fuzzy::FuzzyInterval;
///
/// # fn main() -> Result<(), flames_fuzzy::FuzzyError> {
/// // The paper's Fig. 5 fuzzy tolerance condition "Id ≤ 100 µA": [-1, 100, 0, 10].
/// let cond = FuzzyInterval::new(-1.0, 100.0, 0.0, 10.0)?;
/// assert_eq!(cond.membership(50.0), 1.0);
/// assert_eq!(cond.membership(105.0), 0.5); // the paper's degree for Ir1 = 105 µA
/// assert_eq!(cond.membership(200.0), 0.0); // and for Ir2 = 200 µA
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuzzyInterval {
    m1: f64,
    m2: f64,
    alpha: f64,
    beta: f64,
}

impl FuzzyInterval {
    /// Creates a trapezoidal fuzzy interval with core `[m1, m2]`, left
    /// spread `alpha` and right spread `beta`.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::InvalidInterval`] if `m1 > m2`, a spread is
    /// negative, or any parameter is non-finite.
    pub fn new(m1: f64, m2: f64, alpha: f64, beta: f64) -> Result<Self> {
        let finite = m1.is_finite() && m2.is_finite() && alpha.is_finite() && beta.is_finite();
        if !finite || m1 > m2 || alpha < 0.0 || beta < 0.0 {
            return Err(FuzzyError::InvalidInterval {
                m1,
                m2,
                alpha,
                beta,
            });
        }
        Ok(Self {
            m1,
            m2,
            alpha,
            beta,
        })
    }

    /// Creates the crisp number `m` = `[m, m, 0, 0]`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not finite.
    #[must_use]
    pub fn crisp(m: f64) -> Self {
        Self::new(m, m, 0.0, 0.0).expect("crisp number must be finite")
    }

    /// Reassembles an interval from the four columns of a valid interval
    /// (`core_lo`/`core_hi`/`spread_left`/`spread_right`) without
    /// re-validating — the struct-of-arrays label stores in `flames-core`
    /// round-trip every entry through parallel `f64` columns on each
    /// access, and the invariants were established when the entry was
    /// first constructed.
    #[must_use]
    pub fn from_columns(m1: f64, m2: f64, alpha: f64, beta: f64) -> Self {
        debug_assert!(
            m1.is_finite() && m2.is_finite() && m1 <= m2 && alpha >= 0.0 && beta >= 0.0,
            "columns must come from a valid interval"
        );
        Self {
            m1,
            m2,
            alpha,
            beta,
        }
    }

    /// Creates the crisp interval `[a, b]` = `[a, b, 0, 0]`.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::InvalidInterval`] if `a > b` or a bound is
    /// non-finite.
    pub fn crisp_interval(a: f64, b: f64) -> Result<Self> {
        Self::new(a, b, 0.0, 0.0)
    }

    /// Creates the fuzzy number `M` = `[m, m, α, β]`.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::InvalidInterval`] on negative or non-finite
    /// spreads.
    pub fn fuzzy_number(m: f64, alpha: f64, beta: f64) -> Result<Self> {
        Self::new(m, m, alpha, beta)
    }

    /// Creates a symmetric fuzzy number `[m, m, s, s]`.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::InvalidInterval`] if `s < 0` or a parameter is
    /// non-finite.
    pub fn symmetric(m: f64, s: f64) -> Result<Self> {
        Self::new(m, m, s, s)
    }

    /// Creates a fuzzy number around `m` whose spreads are `rel · |m|` —
    /// the natural encoding of a component tolerance ("±5%").
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::InvalidInterval`] if `rel < 0` or a parameter
    /// is non-finite.
    pub fn with_tolerance(m: f64, rel: f64) -> Result<Self> {
        let s = rel * m.abs();
        Self::new(m, m, s, s)
    }

    /// Lower bound of the core (`m1`).
    #[must_use]
    pub fn core_lo(&self) -> f64 {
        self.m1
    }

    /// Upper bound of the core (`m2`).
    #[must_use]
    pub fn core_hi(&self) -> f64 {
        self.m2
    }

    /// Left spread `α`.
    #[must_use]
    pub fn spread_left(&self) -> f64 {
        self.alpha
    }

    /// Right spread `β`.
    #[must_use]
    pub fn spread_right(&self) -> f64 {
        self.beta
    }

    /// Lower end of the support, `m1 − α`.
    #[must_use]
    pub fn support_lo(&self) -> f64 {
        self.m1 - self.alpha
    }

    /// Upper end of the support, `m2 + β`.
    #[must_use]
    pub fn support_hi(&self) -> f64 {
        self.m2 + self.beta
    }

    /// The support as a pair `(m1 − α, m2 + β)` — every value with a
    /// membership degree greater than zero (§3.1).
    #[must_use]
    pub fn support(&self) -> (f64, f64) {
        (self.support_lo(), self.support_hi())
    }

    /// The core as a pair `(m1, m2)` — every value with membership one.
    #[must_use]
    pub fn core(&self) -> (f64, f64) {
        (self.m1, self.m2)
    }

    /// Width of the support.
    #[must_use]
    pub fn support_width(&self) -> f64 {
        self.support_hi() - self.support_lo()
    }

    /// True if the value is crisp: zero spreads (a number or an interval).
    #[must_use]
    pub fn is_crisp(&self) -> bool {
        self.alpha == 0.0 && self.beta == 0.0
    }

    /// True if the value is a single crisp point.
    #[must_use]
    pub fn is_point(&self) -> bool {
        self.is_crisp() && self.m1 == self.m2
    }

    /// Membership degree `μ(x) ∈ [0, 1]` of `x` (§3.1).
    #[must_use]
    pub fn membership(&self, x: f64) -> f64 {
        if x >= self.m1 && x <= self.m2 {
            1.0
        } else if x < self.m1 {
            if self.alpha == 0.0 {
                0.0
            } else {
                ((x - (self.m1 - self.alpha)) / self.alpha).clamp(0.0, 1.0)
            }
        } else if self.beta == 0.0 {
            0.0
        } else {
            (((self.m2 + self.beta) - x) / self.beta).clamp(0.0, 1.0)
        }
    }

    /// The α-cut `{x | μ(x) ≥ level}` as `(lo, hi)`.
    ///
    /// `level` is clamped to `(0, 1]`; the 0-cut is taken as the (closure
    /// of the) support.
    #[must_use]
    pub fn alpha_cut(&self, level: f64) -> (f64, f64) {
        let level = level.clamp(0.0, 1.0);
        (
            self.m1 - (1.0 - level) * self.alpha,
            self.m2 + (1.0 - level) * self.beta,
        )
    }

    /// Area under the membership function:
    /// `(m2 − m1) + (α + β)/2` for a trapezoid.
    ///
    /// This is the denominator of the paper's degree of consistency
    /// (§6.1.2). A crisp point has zero area.
    #[must_use]
    pub fn area(&self) -> f64 {
        (self.m2 - self.m1) + 0.5 * (self.alpha + self.beta)
    }

    /// Centroid (center of gravity) of the membership function — the usual
    /// defuzzification of the value. Falls back to the core midpoint for a
    /// crisp point.
    #[must_use]
    pub fn centroid(&self) -> f64 {
        let a = self.area();
        if a == 0.0 {
            return 0.5 * (self.m1 + self.m2);
        }
        // Moment of the left ramp triangle, the core rectangle, the right ramp.
        let left = 0.5 * self.alpha * (self.m1 - self.alpha / 3.0);
        let core = (self.m2 - self.m1) * 0.5 * (self.m1 + self.m2);
        let right = 0.5 * self.beta * (self.m2 + self.beta / 3.0);
        (left + core + right) / a
    }

    /// Midpoint of the core.
    #[must_use]
    pub fn core_midpoint(&self) -> f64 {
        0.5 * (self.m1 + self.m2)
    }

    /// Mean-of-maxima defuzzification: the midpoint of the core (the set
    /// of fully possible values). Coincides with [`Self::core_midpoint`]
    /// for trapezoids; kept as a named defuzzifier alongside
    /// [`Self::centroid`].
    #[must_use]
    pub fn mean_of_maxima(&self) -> f64 {
        self.core_midpoint()
    }

    /// Normalized Hamming distance between two fuzzy intervals:
    /// `∫ |μ_self − μ_other| dx`, computed exactly from the piecewise
    /// linear memberships (`area(A⊔B) − area(A⊓B)`). Zero iff the sets
    /// are equal almost everywhere.
    #[must_use]
    pub fn hamming_distance(&self, other: &Self) -> f64 {
        let a = self.to_pwl();
        let b = other.to_pwl();
        (a.union(&b).area() - a.intersection(&b).area()).max(0.0)
    }

    /// Translates the interval by `dx` (exact).
    #[must_use]
    pub fn translated(&self, dx: f64) -> Self {
        Self::new(self.m1 + dx, self.m2 + dx, self.alpha, self.beta)
            .expect("translation by finite dx preserves validity")
    }

    /// True if the support of `self` is entirely contained in the support
    /// of `other` *and* the core of `self` lies inside the core-to-support
    /// envelope of `other` at every level (trapezoids: equivalent to
    /// support and core inclusion).
    #[must_use]
    pub fn is_included_in(&self, other: &Self) -> bool {
        self.support_lo() >= other.support_lo()
            && self.support_hi() <= other.support_hi()
            && self.m1 >= other.m1
            && self.m2 <= other.m2
    }

    /// Possibility of overlap: `sup_x min(μ_self(x), μ_other(x))`.
    ///
    /// Equals 1 when the cores intersect, 0 when the supports are disjoint,
    /// and the height of the crossing point of the facing ramps otherwise.
    #[must_use]
    pub fn possibility_of(&self, other: &Self) -> f64 {
        // Cores intersect => full possibility.
        if self.m1 <= other.m2 && other.m1 <= self.m2 {
            return 1.0;
        }
        if self.m2 < other.m1 {
            // self is to the left: self's right ramp meets other's left ramp.
            ramp_crossing(self.m2, self.beta, other.m1, other.alpha)
        } else {
            ramp_crossing(other.m2, other.beta, self.m1, self.alpha)
        }
    }

    /// Converts the trapezoid into an explicit piecewise-linear membership
    /// function (used for exact intersections and areas).
    #[must_use]
    pub fn to_pwl(&self) -> Pwl {
        Pwl::from_trapezoid(self)
    }

    /// Area of the pointwise minimum `area(self ⊓ other)` — the numerator
    /// of the paper's degree of consistency (§6.1.2) — computed in closed
    /// form from the two `[m1, m2, α, β]` tuples, entirely on the stack.
    ///
    /// The minimum of two trapezoidal memberships is piecewise linear with
    /// a bounded kink set: the eight trapezoid corners plus at most four
    /// ramp–ramp line crossings. On each cell of that partition both
    /// memberships are linear and do not cross, so two interior probes at
    /// `u + w/3` and `u + 2w/3` integrate the cell exactly — the same
    /// probe scheme `Pwl::combine` uses internally, which keeps this
    /// fast path and the heap-allocating PWL fallback in agreement to
    /// floating-point noise (≪ 1e-12; the `proptest` suite checks 10 000
    /// random pairs).
    ///
    /// Degenerate shapes need no special casing: a zero spread (α = 0 or
    /// β = 0) simply contributes no ramp line, and the vertical edge is
    /// handled by the interior probes never landing on it.
    #[must_use]
    pub fn intersection_area(&self, other: &Self) -> f64 {
        let lo = self.support_lo().max(other.support_lo());
        let hi = self.support_hi().min(other.support_hi());
        if lo >= hi {
            // Disjoint (or point-touching) supports: the minimum is zero
            // almost everywhere.
            return 0.0;
        }
        // Ramp lines as `y = s·(x − x0)`: ascending from the support foot,
        // descending from the support head. A zero spread has no ramp.
        let ramps_a = [
            (self.alpha > 0.0).then(|| (1.0 / self.alpha, self.support_lo())),
            (self.beta > 0.0).then(|| (-1.0 / self.beta, self.support_hi())),
        ];
        let ramps_b = [
            (other.alpha > 0.0).then(|| (1.0 / other.alpha, other.support_lo())),
            (other.beta > 0.0).then(|| (-1.0 / other.beta, other.support_hi())),
        ];
        // Breakpoints of min(μa, μb) inside (lo, hi): corners first…
        let mut xs = [0.0_f64; 10];
        xs[0] = lo;
        let mut n = 1;
        for x in [self.m1, self.m2, other.m1, other.m2] {
            if x > lo && x < hi {
                xs[n] = x;
                n += 1;
            }
        }
        // …then the crossings of the extended ramp lines. A crossing
        // outside the ramps' live domains is a harmless extra breakpoint
        // (it splits a cell on which the minimum is linear anyway).
        for (s1, x01) in ramps_a.into_iter().flatten() {
            for (s2, x02) in ramps_b.into_iter().flatten() {
                if s1 == s2 {
                    continue; // parallel lines never kink the minimum
                }
                let x = (s1 * x01 - s2 * x02) / (s1 - s2);
                if x > lo && x < hi {
                    xs[n] = x;
                    n += 1;
                }
            }
        }
        xs[n] = hi;
        n += 1;
        xs[..n].sort_unstable_by(f64::total_cmp);
        let mut area = 0.0;
        for k in 0..n - 1 {
            let (u, v) = (xs[k], xs[k + 1]);
            let width = v - u;
            if width <= 0.0 {
                continue;
            }
            let p = u + width / 3.0;
            let q = u + 2.0 * width / 3.0;
            let fp = self.membership(p).min(other.membership(p));
            let fq = self.membership(q).min(other.membership(q));
            area += 0.5 * (fp + fq) * width;
        }
        area
    }

    /// Widens the interval by adding `extra` to both spreads — how the
    /// paper layers measurement-equipment imprecision on top of a reading.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::InvalidInterval`] if `extra` is negative or
    /// non-finite.
    pub fn widened(&self, extra: f64) -> Result<Self> {
        Self::new(self.m1, self.m2, self.alpha + extra, self.beta + extra)
    }

    /// Degree to which this value satisfies a fuzzy condition set `cond`
    /// (e.g. the Fig. 5 "`Id ≤ 100 µA`" set `[-1, 100, 0, 10]`).
    ///
    /// For a crisp point this is just the membership of the point; in
    /// general it is the *necessity-like* degree
    /// `inf_{x ∈ core(self)} μ_cond(x)` softened by the possibility of the
    /// supports — we take the conservative `min` of the two core-endpoint
    /// memberships, the natural trapezoid evaluation.
    #[must_use]
    pub fn satisfaction_of(&self, cond: &Self) -> f64 {
        cond.membership(self.m1).min(cond.membership(self.m2))
    }
}

/// Height at which a descending ramp ending at `hi_core + beta` (from
/// `hi_core`) crosses an ascending ramp starting at `lo_core − alpha`
/// (up to `lo_core`), where `hi_core < lo_core`.
fn ramp_crossing(hi_core: f64, beta: f64, lo_core: f64, alpha: f64) -> f64 {
    let gap = lo_core - hi_core;
    debug_assert!(gap >= 0.0);
    let total = alpha + beta;
    if total == 0.0 || gap >= total {
        return 0.0;
    }
    // Descending: y = (hi_core + beta − x)/beta; ascending: y = (x − lo_core + alpha)/alpha.
    // Solve for equal y in [0,1].
    ((total - gap) / total).clamp(0.0, 1.0)
}

impl Default for FuzzyInterval {
    /// The crisp number zero.
    fn default() -> Self {
        Self::crisp(0.0)
    }
}

impl fmt::Display for FuzzyInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = f.precision().unwrap_or(3);
        write!(
            f,
            "[{:.p$}, {:.p$}, {:.p$}, {:.p$}]",
            self.m1,
            self.m2,
            self.alpha,
            self.beta,
            p = p
        )
    }
}

impl From<f64> for FuzzyInterval {
    /// Wraps a finite `f64` as a crisp number.
    ///
    /// # Panics
    ///
    /// Panics if the value is not finite.
    fn from(m: f64) -> Self {
        Self::crisp(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fi(m1: f64, m2: f64, a: f64, b: f64) -> FuzzyInterval {
        FuzzyInterval::new(m1, m2, a, b).unwrap()
    }

    #[test]
    fn rejects_inverted_core() {
        assert!(matches!(
            FuzzyInterval::new(2.0, 1.0, 0.0, 0.0),
            Err(FuzzyError::InvalidInterval { .. })
        ));
    }

    #[test]
    fn rejects_negative_spread() {
        assert!(FuzzyInterval::new(0.0, 1.0, -0.1, 0.0).is_err());
        assert!(FuzzyInterval::new(0.0, 1.0, 0.0, -0.1).is_err());
    }

    #[test]
    fn rejects_non_finite() {
        assert!(FuzzyInterval::new(f64::NAN, 1.0, 0.0, 0.0).is_err());
        assert!(FuzzyInterval::new(0.0, f64::INFINITY, 0.0, 0.0).is_err());
    }

    #[test]
    fn membership_shape_matches_fig1() {
        let m = fi(1.0, 2.0, 0.5, 1.0);
        assert_eq!(m.membership(1.0), 1.0);
        assert_eq!(m.membership(2.0), 1.0);
        assert_eq!(m.membership(1.5), 1.0);
        assert_eq!(m.membership(0.75), 0.5);
        assert_eq!(m.membership(2.5), 0.5);
        assert_eq!(m.membership(0.5), 0.0);
        assert_eq!(m.membership(3.0), 0.0);
        assert_eq!(m.membership(-10.0), 0.0);
        assert_eq!(m.membership(10.0), 0.0);
    }

    #[test]
    fn crisp_number_has_spike_membership() {
        let m = FuzzyInterval::crisp(5.0);
        assert_eq!(m.membership(5.0), 1.0);
        assert_eq!(m.membership(5.0 + 1e-12), 0.0);
        assert!(m.is_point());
        assert_eq!(m.area(), 0.0);
    }

    #[test]
    fn fig5_condition_memberships() {
        let cond = fi(-1.0, 100.0, 0.0, 10.0);
        assert_eq!(cond.membership(105.0), 0.5);
        assert_eq!(cond.membership(200.0), 0.0);
        assert_eq!(cond.membership(100.0), 1.0);
        assert_eq!(cond.membership(110.0), 0.0);
    }

    #[test]
    fn alpha_cut_interpolates() {
        let m = fi(1.0, 2.0, 0.5, 1.0);
        assert_eq!(m.alpha_cut(1.0), (1.0, 2.0));
        assert_eq!(m.alpha_cut(0.0), (0.5, 3.0));
        let (lo, hi) = m.alpha_cut(0.5);
        assert!((lo - 0.75).abs() < 1e-12);
        assert!((hi - 2.5).abs() < 1e-12);
    }

    #[test]
    fn area_of_trapezoid() {
        let m = fi(1.0, 3.0, 1.0, 1.0);
        assert!((m.area() - 3.0).abs() < 1e-12);
        let tri = fi(1.0, 1.0, 1.0, 1.0);
        assert!((tri.area() - 1.0).abs() < 1e-12);
        let crisp = FuzzyInterval::crisp_interval(1.0, 4.0).unwrap();
        assert!((crisp.area() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn centroid_symmetric_is_midpoint() {
        let m = fi(1.0, 3.0, 0.5, 0.5);
        assert!((m.centroid() - 2.0).abs() < 1e-12);
        let point = FuzzyInterval::crisp(7.0);
        assert_eq!(point.centroid(), 7.0);
    }

    #[test]
    fn centroid_skews_toward_larger_spread() {
        let m = fi(0.0, 0.0, 0.0, 3.0); // right triangle
        assert!((m.centroid() - 1.0).abs() < 1e-12); // centroid of triangle at b/3
        let m = fi(0.0, 0.0, 3.0, 0.0);
        assert!((m.centroid() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn inclusion() {
        let wide = fi(0.0, 10.0, 2.0, 2.0);
        let narrow = fi(2.0, 8.0, 1.0, 1.0);
        assert!(narrow.is_included_in(&wide));
        assert!(!wide.is_included_in(&narrow));
        assert!(wide.is_included_in(&wide));
    }

    #[test]
    fn possibility_overlapping_cores_is_one() {
        let a = fi(0.0, 2.0, 1.0, 1.0);
        let b = fi(1.5, 3.0, 1.0, 1.0);
        assert_eq!(a.possibility_of(&b), 1.0);
        assert_eq!(b.possibility_of(&a), 1.0);
    }

    #[test]
    fn possibility_disjoint_supports_is_zero() {
        let a = fi(0.0, 1.0, 0.5, 0.5);
        let b = fi(5.0, 6.0, 0.5, 0.5);
        assert_eq!(a.possibility_of(&b), 0.0);
        assert_eq!(b.possibility_of(&a), 0.0);
    }

    #[test]
    fn possibility_ramp_crossing_midway() {
        // Right ramp of a: 1 at 1.0 -> 0 at 2.0; left ramp of b: 0 at 1.0 -> 1 at 2.0.
        // They cross at height 0.5.
        let a = fi(0.0, 1.0, 0.0, 1.0);
        let b = fi(2.0, 3.0, 1.0, 0.0);
        assert!((a.possibility_of(&b) - 0.5).abs() < 1e-12);
        assert!((b.possibility_of(&a) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn with_tolerance_spreads_relative() {
        let r = FuzzyInterval::with_tolerance(10_000.0, 0.05).unwrap();
        assert_eq!(r.spread_left(), 500.0);
        assert_eq!(r.spread_right(), 500.0);
        assert_eq!(r.core(), (10_000.0, 10_000.0));
        // Negative nominal keeps spreads positive.
        let n = FuzzyInterval::with_tolerance(-10.0, 0.1).unwrap();
        assert_eq!(n.spread_left(), 1.0);
    }

    #[test]
    fn satisfaction_against_fuzzy_condition() {
        let cond = fi(-1.0, 100.0, 0.0, 10.0);
        assert_eq!(FuzzyInterval::crisp(105.0).satisfaction_of(&cond), 0.5);
        assert_eq!(FuzzyInterval::crisp(99.0).satisfaction_of(&cond), 1.0);
        assert_eq!(FuzzyInterval::crisp(200.0).satisfaction_of(&cond), 0.0);
        // An interval straddling the soft edge takes the worst core value.
        let v = fi(98.0, 108.0, 0.0, 0.0);
        assert!((v.satisfaction_of(&cond) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn widened_adds_measurement_imprecision() {
        let v = FuzzyInterval::crisp(5.6).widened(0.05).unwrap();
        assert_eq!(v.spread_left(), 0.05);
        assert_eq!(v.spread_right(), 0.05);
        assert!(v.widened(-0.1).is_err());
    }

    #[test]
    fn mean_of_maxima_is_core_midpoint() {
        let m = fi(1.0, 3.0, 0.5, 2.5);
        assert_eq!(m.mean_of_maxima(), 2.0);
        // Unlike the centroid, it ignores the skewed spreads.
        assert!(m.centroid() > m.mean_of_maxima());
    }

    #[test]
    fn hamming_distance_properties() {
        let a = fi(1.0, 2.0, 0.5, 0.5);
        assert_eq!(a.hamming_distance(&a), 0.0);
        let b = fi(1.5, 2.5, 0.5, 0.5);
        let d_ab = a.hamming_distance(&b);
        assert!(d_ab > 0.0);
        assert!((d_ab - b.hamming_distance(&a)).abs() < 1e-9);
        // Disjoint sets: distance = sum of areas.
        let far = fi(10.0, 11.0, 0.5, 0.5);
        assert!((a.hamming_distance(&far) - (a.area() + far.area())).abs() < 1e-9);
    }

    /// Reference for [`FuzzyInterval::intersection_area`]: the exact PWL
    /// materialization the closed form replaces.
    fn pwl_area(a: &FuzzyInterval, b: &FuzzyInterval) -> f64 {
        a.to_pwl().intersection(&b.to_pwl()).area()
    }

    #[test]
    fn intersection_area_matches_pwl_on_generic_overlap() {
        let a = fi(0.0, 2.0, 1.0, 1.0);
        let b = fi(1.5, 3.5, 1.0, 1.0);
        assert!((a.intersection_area(&b) - pwl_area(&a, &b)).abs() < 1e-12);
        assert!((b.intersection_area(&a) - a.intersection_area(&b)).abs() < 1e-12);
    }

    #[test]
    fn intersection_area_disjoint_and_touching() {
        let a = fi(0.0, 1.0, 0.2, 0.2);
        let far = fi(5.0, 6.0, 0.2, 0.2);
        assert_eq!(a.intersection_area(&far), 0.0);
        // Supports touching in exactly one point: zero area, no NaN.
        let touch = fi(1.2, 2.0, 0.0, 0.0);
        assert_eq!(a.intersection_area(&touch), 0.0);
    }

    #[test]
    fn intersection_area_inclusion_gives_inner_area() {
        let narrow = fi(1.4, 1.6, 0.1, 0.1);
        let wide = fi(1.0, 2.0, 0.5, 0.5);
        assert!((narrow.intersection_area(&wide) - narrow.area()).abs() < 1e-12);
        assert!((wide.intersection_area(&narrow) - narrow.area()).abs() < 1e-12);
    }

    #[test]
    fn intersection_area_crossing_ramps_exact_tent() {
        // Descending 1→0 over [1,2] against ascending 0→1 over [1,2]:
        // the minimum is a tent of height 0.5 and area 0.25.
        let a = fi(0.0, 1.0, 0.0, 1.0);
        let b = fi(2.0, 3.0, 1.0, 0.0);
        assert!((a.intersection_area(&b) - 0.25).abs() < 1e-12);
        assert!((a.intersection_area(&b) - pwl_area(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn intersection_area_zero_spread_vertical_edges() {
        // Crisp rectangle against a trapezoid: the α=0/β=0 edges are
        // jumps, not ramps — no ramp crossing exists on those sides.
        let rect = FuzzyInterval::crisp_interval(5.4, 5.6).unwrap();
        let trap = fi(5.0, 5.5, 0.2, 0.2);
        assert!((rect.intersection_area(&trap) - 0.175).abs() < 1e-12);
        assert!((rect.intersection_area(&trap) - pwl_area(&rect, &trap)).abs() < 1e-12);
        // One-sided degenerate ramps on both operands.
        let left_only = fi(1.0, 2.0, 0.5, 0.0);
        let right_only = fi(0.5, 1.2, 0.0, 0.8);
        let got = left_only.intersection_area(&right_only);
        assert!((got - pwl_area(&left_only, &right_only)).abs() < 1e-12);
        assert!(got > 0.0);
    }

    #[test]
    fn intersection_area_with_point_is_zero() {
        let a = fi(0.0, 2.0, 1.0, 1.0);
        let p = FuzzyInterval::crisp(1.0);
        assert_eq!(a.intersection_area(&p), 0.0);
        assert_eq!(p.intersection_area(&a), 0.0);
        assert_eq!(p.intersection_area(&p), 0.0);
    }

    #[test]
    fn intersection_area_of_nan_breakpoints_does_not_panic() {
        let nan = FuzzyInterval {
            m1: f64::NAN,
            m2: f64::NAN,
            ..fi(0.0, 0.0, 1.0, 1.0)
        };
        assert!(nan.intersection_area(&nan).is_nan());
    }

    #[test]
    fn intersection_area_parallel_ramps() {
        // Equal spreads → the facing ramp lines are parallel; the kink
        // set degenerates but the area stays exact.
        let a = fi(0.0, 1.0, 1.0, 1.0);
        let b = fi(0.5, 1.5, 1.0, 1.0);
        assert!((a.intersection_area(&b) - pwl_area(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn translation_shifts_everything() {
        let m = fi(1.0, 2.0, 0.25, 0.5);
        let t = m.translated(3.0);
        assert_eq!(t.core(), (4.0, 5.0));
        assert_eq!(t.spread_left(), 0.25);
        assert_eq!(t.spread_right(), 0.5);
        assert_eq!(m.translated(0.0), m);
        assert_eq!(m.translated(3.0).translated(-3.0), m);
    }

    #[test]
    fn display_formats_as_4_tuple() {
        let m = fi(1.0, 2.0, 0.5, 0.25);
        assert_eq!(format!("{m:.2}"), "[1.00, 2.00, 0.50, 0.25]");
    }

    #[test]
    fn default_is_crisp_zero() {
        assert!(FuzzyInterval::default().is_point());
        assert_eq!(FuzzyInterval::default().core_midpoint(), 0.0);
    }
}
