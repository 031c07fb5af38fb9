use crate::trapezoid::FuzzyInterval;

/// An exact piecewise-linear membership function on the real line.
///
/// A `Pwl` is a finite sequence of linear segments; the function is zero
/// outside them and *upper semicontinuous* at jump points (a crisp
/// interval's vertical edge evaluates to the higher value). This is the
/// representation used for exact intersections, unions and areas of
/// trapezoidal values — in particular for the paper's degree of consistency
/// `Dc = area(Vm ⊓ Vn) / area(Vm)` (§6.1.2).
///
/// For trapezoidal inputs every operation here is **exact**: the partition
/// used for `min`/`max` contains all segment endpoints and all pairwise
/// segment crossings, so each cell is genuinely linear.
///
/// # Example
///
/// ```
/// use flames_fuzzy::{FuzzyInterval, Pwl};
///
/// # fn main() -> Result<(), flames_fuzzy::FuzzyError> {
/// let a = FuzzyInterval::new(0.0, 2.0, 1.0, 1.0)?;
/// let b = FuzzyInterval::new(1.0, 3.0, 1.0, 1.0)?;
/// let inter = a.to_pwl().intersection(&b.to_pwl());
/// assert!(inter.area() > 0.0);
/// assert_eq!(inter.height(), 1.0); // the cores overlap
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pwl {
    /// Segments sorted by `x0`, non-overlapping except possibly sharing
    /// endpoints (where a jump is allowed).
    segments: Vec<Segment>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Segment {
    x0: f64,
    x1: f64,
    y0: f64,
    y1: f64,
}

impl Segment {
    fn eval(&self, x: f64) -> f64 {
        if self.x1 == self.x0 {
            self.y0.max(self.y1)
        } else {
            self.y0 + (self.y1 - self.y0) * (x - self.x0) / (self.x1 - self.x0)
        }
    }

    fn area(&self) -> f64 {
        0.5 * (self.y0 + self.y1) * (self.x1 - self.x0)
    }
}

impl Pwl {
    /// The everywhere-zero function.
    #[must_use]
    pub fn zero() -> Self {
        Self {
            segments: Vec::new(),
        }
    }

    /// Builds a membership function from nested α-cuts
    /// `(level, lo, hi)` — levels must be strictly increasing with
    /// shrinking intervals (the natural output of α-cut arithmetic). The
    /// membership is linear between consecutive levels.
    ///
    /// Returns [`Pwl::zero`] for an empty list.
    #[must_use]
    pub fn from_alpha_cuts(cuts: &[(f64, f64, f64)]) -> Self {
        if cuts.is_empty() {
            return Self::zero();
        }
        let mut segments = Vec::with_capacity(2 * cuts.len());
        // Ascending left flank (left to right, membership rising).
        let mut prev: Option<(f64, f64)> = None; // (x, level)
        for &(level, lo, _) in cuts {
            if let Some((px, plevel)) = prev {
                if lo < px {
                    // Degenerate (non-nested) input: clamp to a jump.
                    segments.push(Segment {
                        x0: px,
                        x1: px,
                        y0: plevel,
                        y1: level,
                    });
                } else {
                    segments.push(Segment {
                        x0: px,
                        x1: lo,
                        y0: plevel,
                        y1: level,
                    });
                }
            }
            prev = Some((lo, level));
        }
        // Top plateau.
        let &(top_level, top_lo, top_hi) = cuts.last().expect("non-empty");
        segments.push(Segment {
            x0: top_lo,
            x1: top_hi,
            y0: top_level,
            y1: top_level,
        });
        // Descending right flank.
        let mut prev: Option<(f64, f64)> = Some((top_hi, top_level));
        for &(level, _, hi) in cuts.iter().rev().skip(1) {
            if let Some((px, plevel)) = prev {
                if hi < px {
                    segments.push(Segment {
                        x0: px,
                        x1: px,
                        y0: plevel,
                        y1: level,
                    });
                } else {
                    segments.push(Segment {
                        x0: px,
                        x1: hi,
                        y0: plevel,
                        y1: level,
                    });
                }
            }
            prev = Some((hi, level));
        }
        Self { segments }
    }

    /// Builds the membership function of a trapezoidal fuzzy interval.
    #[must_use]
    pub fn from_trapezoid(t: &FuzzyInterval) -> Self {
        let mut segments = Vec::with_capacity(3);
        if t.spread_left() > 0.0 {
            segments.push(Segment {
                x0: t.support_lo(),
                x1: t.core_lo(),
                y0: 0.0,
                y1: 1.0,
            });
        }
        segments.push(Segment {
            x0: t.core_lo(),
            x1: t.core_hi(),
            y0: 1.0,
            y1: 1.0,
        });
        if t.spread_right() > 0.0 {
            segments.push(Segment {
                x0: t.core_hi(),
                x1: t.support_hi(),
                y0: 1.0,
                y1: 0.0,
            });
        }
        Self { segments }
    }

    /// Evaluates the membership at `x` (upper semicontinuous at jumps,
    /// zero outside all segments).
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        let mut best = 0.0_f64;
        for s in &self.segments {
            if x >= s.x0 && x <= s.x1 {
                best = best.max(s.eval(x));
            }
        }
        best
    }

    /// Area under the function (exact).
    #[must_use]
    pub fn area(&self) -> f64 {
        self.segments.iter().map(Segment::area).sum()
    }

    /// Maximum membership value (the *height*; 1 for a normalized set,
    /// 0 for the empty set).
    #[must_use]
    pub fn height(&self) -> f64 {
        self.segments
            .iter()
            .map(|s| s.y0.max(s.y1))
            .fold(0.0, f64::max)
    }

    /// True if the function is identically zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.height() == 0.0
    }

    /// Midpoint of the peak plateau — the x-range on which the function
    /// attains its height; `None` for the zero function. For a
    /// trapezoid's membership this is the core midpoint, which is what
    /// lets [`crate::Consistency::between_pwl`] mirror the closed-form
    /// path's zero-area (crisp point) fallback.
    #[must_use]
    pub fn peak_midpoint(&self) -> Option<f64> {
        let h = self.height();
        if h <= 0.0 {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for s in &self.segments {
            for (x, y) in [(s.x0, s.y0), (s.x1, s.y1)] {
                if y >= h - 1e-12 {
                    lo = lo.min(x);
                    hi = hi.max(x);
                }
            }
        }
        Some(0.5 * (lo + hi))
    }

    /// Centroid of the area under the function; `None` when the area is
    /// zero.
    #[must_use]
    pub fn centroid(&self) -> Option<f64> {
        let area = self.area();
        if area <= 0.0 {
            return None;
        }
        let moment: f64 = self
            .segments
            .iter()
            .map(|s| {
                let w = s.x1 - s.x0;
                // ∫ x·y dx over the segment with y linear in x.
                w * (s.x0 * (2.0 * s.y0 + s.y1) + s.x1 * (s.y0 + 2.0 * s.y1)) / 6.0
            })
            .sum();
        Some(moment / area)
    }

    /// Pointwise minimum (fuzzy intersection with the min t-norm). Exact
    /// for piecewise-linear operands.
    #[must_use]
    pub fn intersection(&self, other: &Self) -> Self {
        self.combine(other, f64::min)
    }

    /// Pointwise maximum (fuzzy union with the max s-norm). Exact for
    /// piecewise-linear operands.
    #[must_use]
    pub fn union(&self, other: &Self) -> Self {
        self.combine(other, f64::max)
    }

    /// X-coordinates partitioning the real line into cells on which both
    /// operands are linear and do not cross.
    fn partition_with(&self, other: &Self, op_needs_crossings: bool) -> Vec<f64> {
        let mut xs: Vec<f64> = Vec::new();
        for s in self.segments.iter().chain(&other.segments) {
            xs.push(s.x0);
            xs.push(s.x1);
        }
        if op_needs_crossings {
            for a in &self.segments {
                for b in &other.segments {
                    if let Some(x) = segment_crossing(a, b) {
                        xs.push(x);
                    }
                }
            }
        }
        xs.retain(|x| x.is_finite());
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|p, q| (*p - *q).abs() < 1e-12);
        xs
    }

    fn combine(&self, other: &Self, op: fn(f64, f64) -> f64) -> Self {
        let xs = self.partition_with(other, true);
        let mut segments = Vec::new();
        for w in xs.windows(2) {
            let (u, v) = (w[0], w[1]);
            let width = v - u;
            if width <= 0.0 {
                continue;
            }
            // Two interior probes determine the (linear) combined function
            // on the open cell; extrapolate to the cell endpoints.
            let p = u + width / 3.0;
            let q = u + 2.0 * width / 3.0;
            let fp = op(self.eval(p), other.eval(p));
            let fq = op(self.eval(q), other.eval(q));
            let slope = (fq - fp) / (q - p);
            let y0 = fp + slope * (u - p);
            let y1 = fp + slope * (v - p);
            let (y0, y1) = (y0.clamp(0.0, 1.0), y1.clamp(0.0, 1.0));
            if y0 > 0.0 || y1 > 0.0 {
                segments.push(Segment {
                    x0: u,
                    x1: v,
                    y0,
                    y1,
                });
            }
        }
        Self { segments }
    }
}

/// X-coordinate where two segments (viewed as lines over their overlapping
/// x-range) cross, if it lies inside both.
fn segment_crossing(a: &Segment, b: &Segment) -> Option<f64> {
    let lo = a.x0.max(b.x0);
    let hi = a.x1.min(b.x1);
    if lo >= hi {
        return None;
    }
    let wa = a.x1 - a.x0;
    let wb = b.x1 - b.x0;
    if wa == 0.0 || wb == 0.0 {
        return None;
    }
    let sa = (a.y1 - a.y0) / wa;
    let sb = (b.y1 - b.y0) / wb;
    if (sa - sb).abs() < 1e-15 {
        return None;
    }
    // a.y0 + sa (x - a.x0) = b.y0 + sb (x - b.x0)
    let x = (b.y0 - a.y0 + sa * a.x0 - sb * b.x0) / (sa - sb);
    (x > lo && x < hi).then_some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fi(m1: f64, m2: f64, a: f64, b: f64) -> FuzzyInterval {
        FuzzyInterval::new(m1, m2, a, b).unwrap()
    }

    #[test]
    fn trapezoid_round_trip_eval() {
        let t = fi(1.0, 2.0, 0.5, 1.0);
        let p = t.to_pwl();
        for &x in &[0.4, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.1] {
            assert!(
                (p.eval(x) - t.membership(x)).abs() < 1e-12,
                "mismatch at {x}"
            );
        }
    }

    #[test]
    fn area_matches_trapezoid_formula() {
        let t = fi(1.0, 3.0, 1.0, 2.0);
        assert!((t.to_pwl().area() - t.area()).abs() < 1e-12);
    }

    #[test]
    fn crisp_interval_pwl() {
        let t = FuzzyInterval::crisp_interval(1.0, 2.0).unwrap();
        let p = t.to_pwl();
        assert_eq!(p.eval(1.5), 1.0);
        assert_eq!(p.eval(0.99), 0.0);
        assert!((p.area() - 1.0).abs() < 1e-12);
        assert_eq!(p.height(), 1.0);
    }

    #[test]
    fn intersection_identical_is_identity_area() {
        let t = fi(1.0, 2.0, 0.5, 0.5);
        let p = t.to_pwl();
        let i = p.intersection(&p);
        assert!((i.area() - p.area()).abs() < 1e-9);
        assert_eq!(i.height(), 1.0);
    }

    #[test]
    fn intersection_disjoint_is_zero() {
        let a = fi(0.0, 1.0, 0.2, 0.2).to_pwl();
        let b = fi(5.0, 6.0, 0.2, 0.2).to_pwl();
        let i = a.intersection(&b);
        assert!(i.is_zero());
        assert_eq!(i.area(), 0.0);
    }

    #[test]
    fn intersection_of_overlapping_ramps_exact() {
        // a: descending ramp 1→0 over [1,2]; b: ascending ramp 0→1 over [1,2].
        // min is a tent peaking at 0.5 in the middle: area = 2 * (0.5*1*0.5)/...
        // piecewise: rises 0→0.5 over [1,1.5], falls 0.5→0 over [1.5,2] → area 0.25.
        let a = fi(0.0, 1.0, 0.0, 1.0).to_pwl();
        let b = fi(2.0, 3.0, 1.0, 0.0).to_pwl();
        let i = a.intersection(&b);
        assert!((i.area() - 0.25).abs() < 1e-9);
        assert!((i.height() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn nan_segments_combine_without_panicking() {
        let nan = Pwl {
            segments: vec![Segment {
                x0: f64::NAN,
                x1: 1.0,
                y0: f64::NAN,
                y1: 1.0,
            }],
        };
        let tent = fi(0.0, 0.0, 1.0, 1.0).to_pwl();
        let _ = nan.intersection(&tent);
        let _ = tent.union(&nan);
    }

    #[test]
    fn union_contains_both() {
        let a = fi(0.0, 1.0, 0.5, 0.5);
        let b = fi(0.5, 2.0, 0.5, 0.5);
        let u = a.to_pwl().union(&b.to_pwl());
        for &x in &[-0.4, 0.0, 0.5, 1.0, 1.2, 2.0, 2.4] {
            let expect = a.membership(x).max(b.membership(x));
            assert!((u.eval(x) - expect).abs() < 1e-9, "at {x}");
        }
    }

    #[test]
    fn inclusion_gives_full_relative_area() {
        let narrow = fi(1.4, 1.6, 0.1, 0.1);
        let wide = fi(1.0, 2.0, 0.5, 0.5);
        let i = narrow.to_pwl().intersection(&wide.to_pwl());
        // narrow ⊆ wide pointwise, so min = narrow.
        assert!((i.area() - narrow.area()).abs() < 1e-9);
    }

    #[test]
    fn centroid_of_symmetric_tent() {
        let t = fi(1.0, 1.0, 1.0, 1.0).to_pwl();
        assert!((t.centroid().unwrap() - 1.0).abs() < 1e-9);
        assert!(Pwl::zero().centroid().is_none());
    }

    #[test]
    fn peak_midpoint_is_core_midpoint() {
        let t = fi(1.0, 3.0, 0.5, 2.0);
        assert!((t.to_pwl().peak_midpoint().unwrap() - 2.0).abs() < 1e-12);
        // A crisp point's spike still has a peak.
        let p = FuzzyInterval::crisp(7.0).to_pwl();
        assert!((p.peak_midpoint().unwrap() - 7.0).abs() < 1e-12);
        assert!(Pwl::zero().peak_midpoint().is_none());
    }

    #[test]
    fn zero_function_properties() {
        let z = Pwl::zero();
        assert!(z.is_zero());
        assert_eq!(z.area(), 0.0);
        assert_eq!(z.eval(0.0), 0.0);
        assert_eq!(z.height(), 0.0);
    }

    #[test]
    fn alpha_cut_reconstruction_of_a_trapezoid() {
        // Sampling a trapezoid's α-cuts and rebuilding must reproduce it.
        let t = fi(1.0, 2.0, 0.5, 1.0);
        let cuts: Vec<(f64, f64, f64)> = (0..5)
            .map(|k| {
                let level = k as f64 / 4.0;
                let (lo, hi) = t.alpha_cut(level);
                (level, lo, hi)
            })
            .collect();
        let rebuilt = Pwl::from_alpha_cuts(&cuts);
        for &x in &[0.4, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.1] {
            assert!(
                (rebuilt.eval(x) - t.membership(x)).abs() < 1e-9,
                "mismatch at {x}: {} vs {}",
                rebuilt.eval(x),
                t.membership(x)
            );
        }
        assert!((rebuilt.area() - t.area()).abs() < 1e-9);
    }

    #[test]
    fn alpha_cut_builder_edge_cases() {
        assert!(Pwl::from_alpha_cuts(&[]).is_zero());
        // A single cut is a plateau at its level.
        let one = Pwl::from_alpha_cuts(&[(1.0, 2.0, 3.0)]);
        assert_eq!(one.eval(2.5), 1.0);
        assert_eq!(one.eval(1.9), 0.0);
        assert!((one.area() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap_area_is_between() {
        let a = fi(0.0, 2.0, 1.0, 1.0);
        let b = fi(1.5, 3.5, 1.0, 1.0);
        let i = a.to_pwl().intersection(&b.to_pwl());
        assert!(i.area() > 0.0);
        assert!(i.area() < a.area().min(b.area()));
        assert_eq!(i.height(), 1.0); // cores overlap on [1.5, 2]
    }
}
