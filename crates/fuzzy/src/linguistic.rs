use crate::error::FuzzyError;
use crate::trapezoid::FuzzyInterval;
use crate::Result;
use std::fmt;

/// A named fuzzy subset of the unit interval — one linguistic *term* of a
/// faultiness vocabulary (§8.1 of the paper).
///
/// The paper's examples: `Correct = [0, 0.05, 0, 0.05]`,
/// `Likely correct = [0.18, 0.34, 0.02, 0.06]`, …
#[derive(Debug, Clone, PartialEq)]
pub struct LinguisticTerm {
    name: String,
    set: FuzzyInterval,
}

impl LinguisticTerm {
    /// Creates a term; the set must live inside `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::EstimationOutOfRange`] if the support leaves
    /// the unit interval.
    pub fn new(name: impl Into<String>, set: FuzzyInterval) -> Result<Self> {
        let (lo, hi) = set.support();
        if lo < -1e-9 || hi > 1.0 + 1e-9 {
            let value = if lo < 0.0 { lo } else { hi };
            return Err(FuzzyError::EstimationOutOfRange { value });
        }
        Ok(Self {
            name: name.into(),
            set,
        })
    }

    /// The term's name (e.g. `"likely correct"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fuzzy set the term denotes.
    #[must_use]
    pub fn set(&self) -> &FuzzyInterval {
        &self.set
    }

    /// Membership of a crisp faultiness value in this term.
    #[must_use]
    pub fn membership(&self, x: f64) -> f64 {
        self.set.membership(x)
    }

    /// Jaccard-style similarity between this term's set and an arbitrary
    /// fuzzy estimation: `area(A ⊓ B) / area(A ⊔ B)`; `1` for identical
    /// sets, `0` for disjoint supports. Degenerate zero-area pairs compare
    /// by core-point membership.
    #[must_use]
    pub fn similarity(&self, estimation: &FuzzyInterval) -> f64 {
        let a = self.set.to_pwl();
        let b = estimation.to_pwl();
        let union_area = a.union(&b).area();
        if union_area == 0.0 {
            return self.set.membership(estimation.core_midpoint());
        }
        (a.intersection(&b).area() / union_area).clamp(0.0, 1.0)
    }
}

impl fmt::Display for LinguisticTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.set)
    }
}

/// An ordered vocabulary of linguistic terms partitioning `[0, 1]`,
/// from "certainly correct" up to "certainly faulty".
///
/// "The degree of granularity of this decomposition depends on the
/// application and on what the expert assumes suitable" (§8.1) — build a
/// custom set with [`TermSet::new`], take the paper-flavoured default with
/// [`TermSet::standard_faultiness`], or generate a uniform `n`-term
/// decomposition with [`TermSet::uniform`].
///
/// # Example
///
/// ```
/// use flames_fuzzy::{FuzzyInterval, TermSet};
///
/// # fn main() -> Result<(), flames_fuzzy::FuzzyError> {
/// let vocab = TermSet::standard_faultiness();
/// let estimation = FuzzyInterval::new(0.9, 1.0, 0.1, 0.0)?;
/// assert_eq!(vocab.best_match(&estimation)?.name(), "faulty");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TermSet {
    terms: Vec<LinguisticTerm>,
}

impl TermSet {
    /// Creates a term set from an ordered list of terms.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::EmptyTermSet`] for an empty list.
    pub fn new(terms: Vec<LinguisticTerm>) -> Result<Self> {
        if terms.is_empty() {
            return Err(FuzzyError::EmptyTermSet);
        }
        Ok(Self { terms })
    }

    /// The paper-flavoured six-term faultiness vocabulary. The first two
    /// sets are verbatim from §8.1; the rest complete the partition in the
    /// same style.
    #[must_use]
    pub fn standard_faultiness() -> Self {
        let t = |name: &str, m1: f64, m2: f64, a: f64, b: f64| {
            LinguisticTerm::new(name, FuzzyInterval::new(m1, m2, a, b).expect("static"))
                .expect("static term inside unit interval")
        };
        Self {
            terms: vec![
                t("correct", 0.0, 0.05, 0.0, 0.05),
                t("likely correct", 0.18, 0.34, 0.02, 0.06),
                t("unknown", 0.45, 0.55, 0.08, 0.08),
                t("suspect", 0.62, 0.72, 0.06, 0.06),
                t("likely faulty", 0.78, 0.88, 0.06, 0.06),
                t("faulty", 0.95, 1.0, 0.05, 0.0),
            ],
        }
    }

    /// A uniform decomposition of `[0, 1]` into `n ≥ 1` triangular terms
    /// named `"t0" … "t{n-1}"` — the generic granularity knob.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::EmptyTermSet`] when `n == 0`.
    pub fn uniform(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(FuzzyError::EmptyTermSet);
        }
        if n == 1 {
            let set = FuzzyInterval::crisp_interval(0.0, 1.0).expect("static");
            return Self::new(vec![LinguisticTerm::new("t0", set)?]);
        }
        let step = 1.0 / (n - 1) as f64;
        let mut terms = Vec::with_capacity(n);
        for i in 0..n {
            let c = i as f64 * step;
            let alpha = if i == 0 { 0.0 } else { step };
            let beta = if i == n - 1 { 0.0 } else { step };
            let set = FuzzyInterval::new(c, c, alpha, beta).expect("uniform term");
            terms.push(LinguisticTerm::new(format!("t{i}"), set)?);
        }
        Self::new(terms)
    }

    /// Number of terms (the granularity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if the vocabulary has no terms (cannot be constructed through
    /// the public API, but required by convention alongside `len`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over the terms in order.
    pub fn iter(&self) -> std::slice::Iter<'_, LinguisticTerm> {
        self.terms.iter()
    }

    /// Looks a term up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&LinguisticTerm> {
        self.terms.iter().find(|t| t.name() == name)
    }

    /// The term with maximal membership for a crisp faultiness value
    /// (fuzzification). Ties resolve to the earlier (more-correct) term.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::EmptyTermSet`] if the set is empty.
    pub fn fuzzify(&self, x: f64) -> Result<&LinguisticTerm> {
        self.terms
            .iter()
            .max_by(|p, q| p.membership(x).total_cmp(&q.membership(x)))
            .ok_or(FuzzyError::EmptyTermSet)
    }

    /// The term most similar to an arbitrary fuzzy estimation — the
    /// linguistic summary FLAMES reports to the expert.
    ///
    /// # Errors
    ///
    /// Returns [`FuzzyError::EmptyTermSet`] if the set is empty.
    pub fn best_match(&self, estimation: &FuzzyInterval) -> Result<&LinguisticTerm> {
        self.terms
            .iter()
            .max_by(|p, q| {
                p.similarity(estimation)
                    .total_cmp(&q.similarity(estimation))
            })
            .ok_or(FuzzyError::EmptyTermSet)
    }
}

impl<'a> IntoIterator for &'a TermSet {
    type Item = &'a LinguisticTerm;
    type IntoIter = std::slice::Iter<'a, LinguisticTerm>;
    fn into_iter(self) -> Self::IntoIter {
        self.terms.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_rejects_out_of_unit_sets() {
        let set = FuzzyInterval::new(0.9, 1.2, 0.0, 0.0).unwrap();
        assert!(matches!(
            LinguisticTerm::new("bad", set),
            Err(FuzzyError::EstimationOutOfRange { .. })
        ));
        let set = FuzzyInterval::new(0.1, 0.2, 0.3, 0.0).unwrap(); // support dips below 0
        assert!(LinguisticTerm::new("bad", set).is_err());
    }

    #[test]
    fn standard_vocabulary_matches_paper_examples() {
        let v = TermSet::standard_faultiness();
        let correct = v.get("correct").unwrap();
        assert_eq!(correct.set().core(), (0.0, 0.05));
        assert_eq!(correct.set().spread_right(), 0.05);
        let lc = v.get("likely correct").unwrap();
        assert_eq!(lc.set().core(), (0.18, 0.34));
        assert_eq!(lc.set().spread_left(), 0.02);
        assert_eq!(lc.set().spread_right(), 0.06);
        assert_eq!(v.len(), 6);
        assert!(!v.is_empty());
    }

    #[test]
    fn fuzzify_picks_highest_membership() {
        let v = TermSet::standard_faultiness();
        assert_eq!(v.fuzzify(0.02).unwrap().name(), "correct");
        assert_eq!(v.fuzzify(0.25).unwrap().name(), "likely correct");
        assert_eq!(v.fuzzify(0.97).unwrap().name(), "faulty");
    }

    #[test]
    fn nan_memberships_and_extreme_similarities_do_not_panic() {
        let v = TermSet::standard_faultiness();
        assert!(v.iter().any(|t| t.membership(f64::NAN).is_nan()));
        assert!(v.fuzzify(f64::NAN).is_ok());
        // Similarities clamp finite areas, so a valid estimation cannot
        // make one NaN; a spread of f64::MAX gives subnormals and -0.0.
        let huge = FuzzyInterval::new(0.5, 0.5, f64::MAX, 0.0).unwrap();
        assert!(v
            .iter()
            .any(|t| t.similarity(&huge).to_bits() == (-0.0_f64).to_bits()));
        assert!(v.best_match(&huge).is_ok());
    }

    #[test]
    fn best_match_on_fuzzy_estimation() {
        let v = TermSet::standard_faultiness();
        let near_faulty = FuzzyInterval::new(0.93, 1.0, 0.05, 0.0).unwrap();
        assert_eq!(v.best_match(&near_faulty).unwrap().name(), "faulty");
        let near_correct = FuzzyInterval::new(0.0, 0.06, 0.0, 0.04).unwrap();
        assert_eq!(v.best_match(&near_correct).unwrap().name(), "correct");
    }

    #[test]
    fn similarity_bounds() {
        let v = TermSet::standard_faultiness();
        let correct = v.get("correct").unwrap();
        assert!((correct.similarity(correct.set()) - 1.0).abs() < 1e-9);
        let far = FuzzyInterval::new(0.8, 0.9, 0.0, 0.0).unwrap();
        assert_eq!(correct.similarity(&far), 0.0);
    }

    #[test]
    fn uniform_partition() {
        let v = TermSet::uniform(5).unwrap();
        assert_eq!(v.len(), 5);
        // Centers at 0, .25, .5, .75, 1.
        assert_eq!(v.fuzzify(0.0).unwrap().name(), "t0");
        assert_eq!(v.fuzzify(0.5).unwrap().name(), "t2");
        assert_eq!(v.fuzzify(1.0).unwrap().name(), "t4");
        assert!(TermSet::uniform(0).is_err());
        assert_eq!(TermSet::uniform(1).unwrap().len(), 1);
    }

    #[test]
    fn iteration_order_is_correct_to_faulty() {
        let v = TermSet::standard_faultiness();
        let names: Vec<_> = v.iter().map(LinguisticTerm::name).collect();
        assert_eq!(names.first().copied(), Some("correct"));
        assert_eq!(names.last().copied(), Some("faulty"));
        let collected: Vec<_> = (&v).into_iter().collect();
        assert_eq!(collected.len(), 6);
    }

    #[test]
    fn crisp_point_terms_compare_by_membership() {
        // Degenerate term (zero area) — similarity falls back to membership.
        let point = LinguisticTerm::new("pt", FuzzyInterval::crisp(0.5)).unwrap();
        let est = FuzzyInterval::crisp(0.5);
        assert_eq!(point.similarity(&est), 1.0);
    }
}
