use crate::pwl::Pwl;
use crate::trapezoid::FuzzyInterval;
use std::fmt;

/// Which side of the nominal value a measurement deviates toward.
///
/// The paper's Fig. 7 table annotates a fully-inconsistent coincidence with
/// a *signed* degree (`Dc(V1m, V1n) = −1`, read "V1 deviates low"), and the
/// open-R3 diagnosis explicitly relies on that direction ("R2 is very low
/// **or** R3 is very high"). We factor the sign out into this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// The measured value sits below the nominal one.
    Low,
    /// The measured value is consistent with (inside) the nominal one.
    Within,
    /// The measured value sits above the nominal one.
    High,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Low => write!(f, "low"),
            Direction::Within => write!(f, "within"),
            Direction::High => write!(f, "high"),
        }
    }
}

/// The paper's **degree of consistency** between a measured value `Vm` and
/// a nominal (predicted) value `Vn` (§6.1.2):
///
/// ```text
/// Dc = area(Vm ⊓ Vn) / area(Vm)
/// ```
///
/// * `Dc = 1` when `Vm ⊆ Vn` (the proposition `X ∈ Vn` is necessarily
///   true),
/// * `Dc = 0` when the supports are disjoint (a frank conflict),
/// * `0 < Dc < 1` for a **partial conflict** — the graded information that
///   lets FLAMES rank nogoods and catch *slightly soft* faults.
///
/// A crisp point measurement (zero area) falls back to the membership of
/// the point in `Vn`, which is the natural limit of the formula.
///
/// # Example
///
/// ```
/// use flames_fuzzy::{Consistency, Direction, FuzzyInterval};
///
/// # fn main() -> Result<(), flames_fuzzy::FuzzyError> {
/// let nominal = FuzzyInterval::new(6.0, 6.0, 0.5, 0.5)?;
/// let measured = FuzzyInterval::new(6.1, 6.1, 0.1, 0.1)?;
/// let dc = Consistency::between(&measured, &nominal);
/// assert!(dc.degree() > 0.9); // slightly off but mostly consistent
/// let way_off = FuzzyInterval::new(9.0, 9.0, 0.1, 0.1)?;
/// let dc = Consistency::between(&way_off, &nominal);
/// assert_eq!(dc.degree(), 0.0);
/// assert_eq!(dc.direction(), Direction::High);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Consistency {
    degree: f64,
    direction: Direction,
}

/// Degrees within this distance of 1 are reported as fully consistent
/// (`Direction::Within`); guards against floating-point crumbs from the
/// exact PWL intersection.
const FULL_CONSISTENCY_EPS: f64 = 1e-9;

impl Consistency {
    /// Snaps near-1 degrees to exactly 1 and derives the deviation
    /// direction from the defuzzified centers — shared by every
    /// constructor so the fast path and the PWL fallback grade
    /// identically.
    fn grade(degree: f64, vm_center: f64, vn_center: f64) -> Self {
        let within = degree >= 1.0 - FULL_CONSISTENCY_EPS;
        let direction = if within {
            Direction::Within
        } else if vm_center < vn_center {
            Direction::Low
        } else {
            Direction::High
        };
        Self {
            degree: if within { 1.0 } else { degree },
            direction,
        }
    }

    /// Computes the degree of consistency of a measured value `vm` against
    /// a nominal/predicted value `vn`.
    ///
    /// This is the allocation-free fast path: the intersection area comes
    /// from the closed-form trapezoid kernel
    /// ([`FuzzyInterval::intersection_area`]) instead of materializing
    /// both operands as heap [`Pwl`] curves. Genuinely piecewise-linear
    /// (non-trapezoidal) values go through [`Consistency::between_pwl`];
    /// the two agree to within 1e-12 on trapezoids (property-tested).
    /// It is the one trapezoid `Dc` of the library: report points,
    /// rule-store symptoms and exoneration all grade through it, so a
    /// point's degree is the same number wherever it is read.
    ///
    /// A crisp point measurement (zero area) falls back to the membership
    /// of the point in `vn`, the natural limit of the area quotient —
    /// this also guards the division.
    #[must_use]
    pub fn between(vm: &FuzzyInterval, vn: &FuzzyInterval) -> Self {
        flames_obs::metrics().dc_fast_path.incr();
        let area_m = vm.area();
        let degree = if area_m == 0.0 {
            // Point (or degenerate) measurement: the formula's limit is the
            // membership of the point in Vn.
            vn.membership(vm.core_midpoint())
        } else {
            (vm.intersection_area(vn) / area_m).clamp(0.0, 1.0)
        };
        Self::grade(degree, vm.centroid(), vn.centroid())
    }

    /// The PWL fallback of [`Consistency::between`], for membership
    /// functions that are not trapezoidal (e.g. [`Pwl`] values built from
    /// α-cut arithmetic): materializes the pointwise minimum exactly and
    /// integrates it. On trapezoids (`to_pwl()` of both operands) it
    /// agrees with the closed-form fast path to within 1e-12 — `exp_dc`
    /// and the `proptest` suite differential-test the two.
    #[must_use]
    pub fn between_pwl(vm: &Pwl, vn: &Pwl) -> Self {
        flames_obs::metrics().dc_pwl_fallback.incr();
        let area_m = vm.area();
        let degree = if area_m == 0.0 {
            // Zero-area measurement (a spike): membership of its peak in
            // vn — mirrors the crisp-point limit of the fast path.
            vm.peak_midpoint().map_or(0.0, |x| vn.eval(x))
        } else {
            (vm.intersection(vn).area() / area_m).clamp(0.0, 1.0)
        };
        let center = |p: &Pwl| p.centroid().or_else(|| p.peak_midpoint()).unwrap_or(0.0);
        Self::grade(degree, center(vm), center(vn))
    }

    /// The *symmetric* variant `area(Vm ⊓ Vn) / min(area(Vm), area(Vn))`
    /// — an ablation of the paper's asymmetric normalization (`DESIGN.md`
    /// §5): it does not privilege the measurement side, so a narrow
    /// value inside a wide one scores 1 in both argument orders. Shares
    /// the closed-form kernel with [`Consistency::between`].
    #[must_use]
    pub fn symmetric_between(vm: &FuzzyInterval, vn: &FuzzyInterval) -> Self {
        flames_obs::metrics().dc_fast_path.incr();
        let denom = vm.area().min(vn.area());
        let degree = if denom == 0.0 {
            // At least one point value: grade by membership of the
            // narrower core in the other set.
            if vm.area() == 0.0 {
                vn.membership(vm.core_midpoint())
            } else {
                vm.membership(vn.core_midpoint())
            }
        } else {
            (vm.intersection_area(vn) / denom).clamp(0.0, 1.0)
        };
        Self::grade(degree, vm.centroid(), vn.centroid())
    }

    /// Builds a consistency value directly (used by engines that grade
    /// conflicts from rule satisfaction rather than interval overlap).
    ///
    /// `degree` is clamped to `[0, 1]`.
    #[must_use]
    pub fn from_parts(degree: f64, direction: Direction) -> Self {
        Self {
            degree: degree.clamp(0.0, 1.0),
            direction,
        }
    }

    /// The consistency degree `Dc ∈ [0, 1]`.
    #[must_use]
    pub fn degree(&self) -> f64 {
        self.degree
    }

    /// The deviation direction.
    #[must_use]
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Degree of *conflict* `1 − Dc` — the membership degree the paper
    /// attaches to the nogood raised by this coincidence.
    #[must_use]
    pub fn conflict_degree(&self) -> f64 {
        1.0 - self.degree
    }

    /// True when the coincidence is a corroboration (no conflict at all).
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.degree >= 1.0
    }

    /// True when the coincidence is a total conflict (`Dc = 0`).
    #[must_use]
    pub fn is_total_conflict(&self) -> bool {
        self.degree <= 0.0
    }

    /// The paper's signed rendering: `+Dc` for deviation high or within,
    /// `−Dc`-style negative for deviation low. A total conflict deviating
    /// low prints as `-0.00`, matching the spirit of the paper's `Dc = −1`
    /// annotation (full conflict, low side).
    #[must_use]
    pub fn signed(&self) -> f64 {
        match self.direction {
            Direction::Low => -self.degree,
            _ => self.degree,
        }
    }
}

impl fmt::Display for Consistency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.direction {
            Direction::Within => write!(f, "{:.2}", self.degree),
            Direction::Low => write!(f, "{:.2}↓", self.degree),
            Direction::High => write!(f, "{:.2}↑", self.degree),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fi(m1: f64, m2: f64, a: f64, b: f64) -> FuzzyInterval {
        FuzzyInterval::new(m1, m2, a, b).unwrap()
    }

    #[test]
    fn inclusion_gives_dc_one() {
        let vn = fi(5.0, 7.0, 1.0, 1.0);
        let vm = fi(5.5, 6.5, 0.2, 0.2);
        let dc = Consistency::between(&vm, &vn);
        assert_eq!(dc.degree(), 1.0);
        assert_eq!(dc.direction(), Direction::Within);
        assert!(dc.is_consistent());
        assert_eq!(dc.conflict_degree(), 0.0);
    }

    #[test]
    fn disjoint_gives_dc_zero_with_direction() {
        let vn = fi(5.0, 5.0, 0.5, 0.5);
        let low = fi(2.0, 2.0, 0.2, 0.2);
        let dc = Consistency::between(&low, &vn);
        assert!(dc.is_total_conflict());
        assert_eq!(dc.direction(), Direction::Low);
        assert_eq!(dc.signed(), -0.0);

        let high = fi(9.0, 9.0, 0.2, 0.2);
        let dc = Consistency::between(&high, &vn);
        assert!(dc.is_total_conflict());
        assert_eq!(dc.direction(), Direction::High);
    }

    #[test]
    fn partial_overlap_is_graded() {
        let vn = fi(5.0, 5.0, 1.0, 1.0);
        let vm = fi(5.5, 5.5, 1.0, 1.0);
        let dc = Consistency::between(&vm, &vn);
        assert!(dc.degree() > 0.0);
        assert!(dc.degree() < 1.0);
        assert_eq!(dc.direction(), Direction::High);
        assert!((dc.conflict_degree() + dc.degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn point_measurement_uses_membership() {
        let vn = fi(5.0, 5.0, 1.0, 1.0);
        let dc = Consistency::between(&FuzzyInterval::crisp(5.5), &vn);
        assert!((dc.degree() - 0.5).abs() < 1e-12);
        assert_eq!(dc.direction(), Direction::High);

        let dc = Consistency::between(&FuzzyInterval::crisp(5.0), &vn);
        assert_eq!(dc.degree(), 1.0);
    }

    #[test]
    fn asymmetry_of_the_definition() {
        // Dc is normalized by the *measured* area: a narrow measurement
        // inside a wide nominal is fully consistent, but a wide measurement
        // around a narrow nominal is not.
        let wide = fi(5.0, 5.0, 2.0, 2.0);
        let narrow = fi(5.0, 5.0, 0.2, 0.2);
        assert_eq!(Consistency::between(&narrow, &wide).degree(), 1.0);
        let dc = Consistency::between(&wide, &narrow);
        assert!(dc.degree() < 0.2);
    }

    #[test]
    fn signed_rendering() {
        let vn = fi(5.0, 5.0, 1.0, 1.0);
        let dc = Consistency::between(&fi(4.5, 4.5, 1.0, 1.0), &vn);
        assert!(dc.signed() < 0.0);
        let dc = Consistency::between(&fi(5.5, 5.5, 1.0, 1.0), &vn);
        assert!(dc.signed() > 0.0);
    }

    #[test]
    fn display_shows_direction() {
        let vn = fi(5.0, 5.0, 1.0, 1.0);
        let dc = Consistency::between(&fi(5.5, 5.5, 1.0, 1.0), &vn);
        assert!(format!("{dc}").contains('↑'));
        let dc = Consistency::between(&fi(5.0, 5.0, 0.5, 0.5), &vn);
        assert_eq!(format!("{dc}"), "1.00");
    }

    #[test]
    fn symmetric_variant_ignores_argument_order() {
        let wide = fi(5.0, 5.0, 2.0, 2.0);
        let narrow = fi(5.0, 5.0, 0.2, 0.2);
        // The paper's asymmetric Dc differs by argument order…
        assert!(Consistency::between(&wide, &narrow).degree() < 0.2);
        assert_eq!(Consistency::between(&narrow, &wide).degree(), 1.0);
        // …the symmetric variant does not.
        let s1 = Consistency::symmetric_between(&wide, &narrow).degree();
        let s2 = Consistency::symmetric_between(&narrow, &wide).degree();
        assert_eq!(s1, 1.0);
        assert_eq!(s2, 1.0);
        // Disjoint sets still score 0 with direction.
        let far = fi(9.0, 9.0, 0.3, 0.3);
        let dc = Consistency::symmetric_between(&far, &narrow);
        assert!(dc.is_total_conflict());
        assert_eq!(dc.direction(), Direction::High);
        // Point values fall back to membership.
        let point = FuzzyInterval::crisp(5.5);
        let dc = Consistency::symmetric_between(&point, &fi(5.0, 5.0, 1.0, 1.0));
        assert!((dc.degree() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_parts_clamps() {
        let dc = Consistency::from_parts(1.7, Direction::High);
        assert_eq!(dc.degree(), 1.0);
        let dc = Consistency::from_parts(-0.3, Direction::Low);
        assert_eq!(dc.degree(), 0.0);
    }

    #[test]
    fn pwl_fallback_agrees_with_closed_form() {
        // The PWL fallback and the closed-form kernel must grade
        // trapezoid pairs identically (degree AND direction).
        let cases = [
            (fi(5.0, 5.0, 1.0, 1.0), fi(5.5, 5.5, 1.0, 1.0)),
            (fi(5.5, 6.5, 0.2, 0.2), fi(5.0, 7.0, 1.0, 1.0)),
            (fi(2.0, 2.0, 0.2, 0.2), fi(5.0, 5.0, 0.5, 0.5)),
            (fi(5.0, 5.5, 0.0, 0.2), fi(5.2, 5.2, 0.3, 0.0)),
            (
                FuzzyInterval::crisp_interval(5.4, 5.6).unwrap(),
                fi(5.0, 5.5, 0.2, 0.2),
            ),
        ];
        for (vm, vn) in cases {
            let fast = Consistency::between(&vm, &vn);
            let slow = Consistency::between_pwl(&vm.to_pwl(), &vn.to_pwl());
            assert!(
                (fast.degree() - slow.degree()).abs() < 1e-12,
                "degree mismatch for {vm:?} vs {vn:?}: {} vs {}",
                fast.degree(),
                slow.degree()
            );
            assert_eq!(fast.direction(), slow.direction(), "{vm:?} vs {vn:?}");
        }
    }

    #[test]
    fn pwl_fallback_point_measurement() {
        // Zero-area spike through the PWL path: membership of the peak.
        let vm = FuzzyInterval::crisp(5.5).to_pwl();
        let vn = fi(5.0, 5.0, 1.0, 1.0).to_pwl();
        let dc = Consistency::between_pwl(&vm, &vn);
        assert!((dc.degree() - 0.5).abs() < 1e-12);
        assert_eq!(dc.direction(), Direction::High);
    }

    #[test]
    fn zero_spread_degenerate_trapezoids() {
        // α = 0: vertical left edge. Vm = [5.0, 5.4, 0, 0.2] against
        // Vn = [5.2, 6.0, 0.1, 0.1]. Closed-form must match the exact
        // PWL integral on these vertical-edge shapes.
        let vm = fi(5.0, 5.4, 0.0, 0.2);
        let vn = fi(5.2, 6.0, 0.1, 0.1);
        let fast = Consistency::between(&vm, &vn);
        let slow = Consistency::between_pwl(&vm.to_pwl(), &vn.to_pwl());
        assert!((fast.degree() - slow.degree()).abs() < 1e-12);
        assert!(fast.degree() > 0.0 && fast.degree() < 1.0);

        // β = 0 on the nominal side too.
        let vn = fi(4.0, 5.1, 0.5, 0.0);
        let fast = Consistency::between(&vm, &vn);
        let slow = Consistency::between_pwl(&vm.to_pwl(), &vn.to_pwl());
        assert!((fast.degree() - slow.degree()).abs() < 1e-12);
    }

    #[test]
    fn crisp_vm_division_guard() {
        // Both a crisp point and a crisp *interval vs point nominal*
        // exercise the zero-denominator guards; neither may NaN.
        let point = FuzzyInterval::crisp(7.0);
        let vn = fi(5.0, 6.0, 0.0, 0.0);
        let dc = Consistency::between(&point, &vn);
        assert_eq!(dc.degree(), 0.0);
        assert_eq!(dc.direction(), Direction::High);
        // Point-vs-point, same location: limit is membership 1.
        let dc = Consistency::between(&FuzzyInterval::crisp(5.0), &FuzzyInterval::crisp(5.0));
        assert_eq!(dc.degree(), 1.0);
        assert_eq!(dc.direction(), Direction::Within);
        // Point-vs-point, different location: total conflict.
        let dc = Consistency::between(&FuzzyInterval::crisp(5.0), &FuzzyInterval::crisp(6.0));
        assert!(dc.is_total_conflict());
        assert_eq!(dc.direction(), Direction::Low);
    }

    #[test]
    fn paper_fig5_open_ended_condition() {
        // Fig. 5's rule conditions are one-sided trapezoids like
        // "voltage high" = [m1, m2, α, β] with a long ramp: a crisp
        // reading halfway down the ramp grades 0.5.
        let cond = fi(-1.0, 100.0, 0.0, 10.0);
        let dc = Consistency::between(&FuzzyInterval::crisp(105.0), &cond);
        assert!((dc.degree() - 0.5).abs() < 1e-12);
        assert_eq!(dc.direction(), Direction::High);
        // Inside the core: fully consistent.
        let dc = Consistency::between(&FuzzyInterval::crisp(50.0), &cond);
        assert_eq!(dc.degree(), 1.0);
        // Past the ramp foot: total conflict.
        let dc = Consistency::between(&FuzzyInterval::crisp(111.0), &cond);
        assert!(dc.is_total_conflict());
    }

    #[test]
    fn paper_fig7_signed_total_conflict_low() {
        // Fig. 7 annotates a full conflict on the low side as Dc = −1
        // (i.e. degree 0, direction low — signed() renders the sign).
        let vn = fi(5.0, 5.0, 0.5, 0.5);
        let vm = fi(1.0, 1.2, 0.1, 0.1);
        let dc = Consistency::between(&vm, &vn);
        assert!(dc.is_total_conflict());
        assert_eq!(dc.direction(), Direction::Low);
        assert!(dc.signed().is_sign_negative());
        assert_eq!(format!("{dc}"), "0.00↓");
    }

    #[test]
    fn crisp_interval_measurement() {
        // Vm = [5.4, 5.6] crisp, Vn = [5.0, 5.5, 0.2, 0.2]:
        // overlap on [5.4, 5.5] fully (area 0.1) plus ramp from 5.5 to 5.6
        // (descends 1 -> 0.5: area 0.075). Dc = 0.175 / 0.2 = 0.875.
        let vm = FuzzyInterval::crisp_interval(5.4, 5.6).unwrap();
        let vn = fi(5.0, 5.5, 0.2, 0.2);
        let dc = Consistency::between(&vm, &vn);
        assert!((dc.degree() - 0.875).abs() < 1e-9);
        assert_eq!(dc.direction(), Direction::High);
    }
}
