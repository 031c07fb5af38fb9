//! Learning from experience (§7 of the paper).
//!
//! "When the system succeeds to locate a faulty component, a
//! symptom-failure rule which summarizes the work would be formed … This
//! rule is given with a degree of certainty … In future diagnosis, FLAMES
//! will give the expert the rules which are attached to some candidates to
//! help him in making his decision."
//!
//! A [`Symptom`] is a discretized observation at a test point (deviation
//! direction + severity bucket of the `Dc`); a [`SymptomRule`] maps a
//! symptom set to a culprit (and optionally its fault mode) with a
//! certainty degree that grows as the rule is re-confirmed.

use crate::engine::{PointReport, Report};
use flames_fuzzy::{Consistency, Direction};
use std::fmt;

/// Severity bucket of a degree of consistency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// `Dc = 1`: the point corroborates the model.
    Consistent,
    /// `0.5 ≤ Dc < 1`: a slight (soft-fault) deviation.
    Slight,
    /// `0 < Dc < 0.5`: a strong deviation.
    Strong,
    /// `Dc = 0`: a total conflict.
    Total,
}

impl Severity {
    /// Buckets a degree of consistency.
    #[must_use]
    pub fn from_consistency(dc: &Consistency) -> Self {
        let d = dc.degree();
        if d >= 1.0 {
            Severity::Consistent
        } else if d >= 0.5 {
            Severity::Slight
        } else if d > 0.0 {
            Severity::Strong
        } else {
            Severity::Total
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Consistent => write!(f, "consistent"),
            Severity::Slight => write!(f, "slight"),
            Severity::Strong => write!(f, "strong"),
            Severity::Total => write!(f, "total"),
        }
    }
}

/// A discretized observation at one test point.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symptom {
    /// Test-point name.
    pub point: String,
    /// Deviation direction.
    pub direction: Direction,
    /// Severity bucket.
    pub severity: Severity,
}

impl fmt::Display for Symptom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} ({})", self.point, self.direction, self.severity)
    }
}

/// Extracts the symptom set of a diagnosis [`Report`] (probed points
/// only, consistent points included — they are discriminating evidence).
#[must_use]
pub fn symptoms_of(report: &Report) -> Vec<Symptom> {
    point_symptoms(&report.points)
}

/// The sorted symptom set of graded report points (probed points only).
pub(crate) fn point_symptoms(points: &[PointReport]) -> Vec<Symptom> {
    let mut out: Vec<Symptom> = points
        .iter()
        .filter_map(|p| {
            let dc = p.consistency?;
            Some(Symptom {
                point: p.name.clone(),
                direction: dc.direction(),
                severity: Severity::from_consistency(&dc),
            })
        })
        .collect();
    out.sort();
    out
}

/// A learned symptom→failure rule with a certainty degree.
#[derive(Debug, Clone, PartialEq)]
pub struct SymptomRule {
    /// The symptom set (sorted).
    pub symptoms: Vec<Symptom>,
    /// The culprit component's name.
    pub culprit: String,
    /// The fault mode, when the refinement step identified one.
    pub mode: Option<String>,
    /// Certainty degree in `(0, 1)` — grows with confirmations.
    pub certainty: f64,
    /// How many confirmed diagnoses support the rule.
    pub confirmations: u32,
}

impl fmt::Display for SymptomRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let syms: Vec<String> = self.symptoms.iter().map(Symptom::to_string).collect();
        write!(
            f,
            "if {} then {}{} @ {:.2} (×{})",
            syms.join(" & "),
            self.culprit,
            self.mode
                .as_deref()
                .map(|m| format!(" {m}"))
                .unwrap_or_default(),
            self.certainty,
            self.confirmations
        )
    }
}

/// Certainty of a rule after its first confirmation.
const INITIAL_CERTAINTY: f64 = 0.5;
/// Fraction of the remaining doubt removed per re-confirmation.
const REINFORCEMENT: f64 = 0.3;

/// A ranked suggestion produced by [`KnowledgeBase::suggest`].
#[derive(Debug, Clone, PartialEq)]
pub struct Suggestion {
    /// The suspected culprit.
    pub culprit: String,
    /// Its fault mode, if the rule recorded one.
    pub mode: Option<String>,
    /// Suggestion score: rule certainty × symptom-match fraction.
    pub score: f64,
}

/// The knowledge base of learned symptom→failure rules.
#[derive(Debug, Clone, Default)]
pub struct KnowledgeBase {
    rules: Vec<SymptomRule>,
}

impl KnowledgeBase {
    /// Creates an empty knowledge base.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rule has been learned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Iterates over the rules.
    pub fn iter(&self) -> std::slice::Iter<'_, SymptomRule> {
        self.rules.iter()
    }

    /// Records a confirmed diagnosis: creates a new rule at
    /// `INITIAL_CERTAINTY` (0.5), or reinforces an existing rule with the
    /// same symptoms and culprit (each confirmation removes
    /// `REINFORCEMENT` (30 %) of the remaining doubt).
    pub fn learn(
        &mut self,
        mut symptoms: Vec<Symptom>,
        culprit: impl Into<String>,
        mode: Option<String>,
    ) {
        symptoms.sort();
        let culprit = culprit.into();
        if let Some(rule) = self
            .rules
            .iter_mut()
            .find(|r| r.symptoms == symptoms && r.culprit == culprit)
        {
            rule.confirmations += 1;
            rule.certainty += (1.0 - rule.certainty) * REINFORCEMENT;
            if mode.is_some() {
                rule.mode = mode;
            }
            return;
        }
        self.rules.push(SymptomRule {
            symptoms,
            culprit,
            mode,
            certainty: INITIAL_CERTAINTY,
            confirmations: 1,
        });
    }

    /// The expert disconfirms a rule (the suspected culprit turned out
    /// healthy for these symptoms): the matching rule loses
    /// `REINFORCEMENT` (30 %) of its certainty and is dropped entirely once it
    /// falls below half of `INITIAL_CERTAINTY` (0.5).
    pub fn disconfirm(&mut self, symptoms: &[Symptom], culprit: &str) {
        let mut sorted = symptoms.to_vec();
        sorted.sort();
        if let Some(rule) = self
            .rules
            .iter_mut()
            .find(|r| r.symptoms == sorted && r.culprit == culprit)
        {
            rule.certainty *= 1.0 - REINFORCEMENT;
        }
        self.rules
            .retain(|r| r.certainty >= INITIAL_CERTAINTY * 0.5);
    }

    /// Suggests culprits for an observed symptom set, ranked by score
    /// (rule certainty × fraction of the rule's symptoms present in the
    /// observation). Rules with no symptom overlap are skipped, and each
    /// `(culprit, mode)` pair appears once, at its best score — two rules
    /// naming the same failure (say a broad and a specific symptom set)
    /// collapse onto the stronger match.
    #[must_use]
    pub fn suggest(&self, observed: &[Symptom]) -> Vec<Suggestion> {
        let mut sorted = observed.to_vec();
        sorted.sort();
        let mut out: Vec<Suggestion> = self
            .rules
            .iter()
            .filter_map(|rule| {
                if rule.symptoms.is_empty() {
                    return None;
                }
                let matched = rule
                    .symptoms
                    .iter()
                    .filter(|s| sorted.binary_search(s).is_ok())
                    .count();
                if matched == 0 {
                    return None;
                }
                let fraction = matched as f64 / rule.symptoms.len() as f64;
                Some(Suggestion {
                    culprit: rule.culprit.clone(),
                    mode: rule.mode.clone(),
                    score: rule.certainty * fraction,
                })
            })
            .collect();
        dedup_suggestions(&mut out);
        out
    }

    /// Appends an already-validated rule verbatim (deserialization
    /// path — [`learn`](Self::learn) would reset its certainty).
    pub(crate) fn push_rule(&mut self, rule: SymptomRule) {
        self.rules.push(rule);
    }

    /// Removes and returns the weakest rule: lowest certainty, then
    /// fewest confirmations, then oldest. This is the eviction victim
    /// when a bounded store ([`crate::rule_store::RuleStore`]) overflows.
    pub fn evict_weakest(&mut self) -> Option<SymptomRule> {
        let victim = self
            .rules
            .iter()
            .enumerate()
            .min_by(|(ai, a), (bi, b)| {
                a.certainty
                    .total_cmp(&b.certainty)
                    .then(a.confirmations.cmp(&b.confirmations))
                    .then(ai.cmp(bi))
            })
            .map(|(i, _)| i)?;
        Some(self.rules.remove(victim))
    }
}

/// Sorts suggestions by score (descending; stable, so equal scores keep
/// rule order) and keeps only the best-scoring entry per
/// `(culprit, mode)`. A plain adjacent `dedup_by` after the score sort
/// would let the same failure reappear at a lower score whenever another
/// culprit sorted between its two rules.
pub(crate) fn dedup_suggestions(out: &mut Vec<Suggestion>) {
    out.sort_by(|a, b| b.score.total_cmp(&a.score));
    let mut seen: Vec<(String, Option<String>)> = Vec::with_capacity(out.len());
    out.retain(|s| {
        let key = (s.culprit.clone(), s.mode.clone());
        if seen.contains(&key) {
            false
        } else {
            seen.push(key);
            true
        }
    });
}

impl<'a> IntoIterator for &'a KnowledgeBase {
    type Item = &'a SymptomRule;
    type IntoIter = std::slice::Iter<'a, SymptomRule>;
    fn into_iter(self) -> Self::IntoIter {
        self.rules.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(point: &str, dir: Direction, sev: Severity) -> Symptom {
        Symptom {
            point: point.to_owned(),
            direction: dir,
            severity: sev,
        }
    }

    #[test]
    fn eviction_orders_nan_certainty_without_panicking() {
        let mut kb = KnowledgeBase::new();
        for (culprit, certainty) in [("R1", 0.7), ("R2", f64::NAN), ("R3", 0.4)] {
            kb.push_rule(SymptomRule {
                symptoms: vec![sym("V1", Direction::Low, Severity::Total)],
                culprit: culprit.to_owned(),
                mode: None,
                certainty,
                confirmations: 1,
            });
        }
        // NaN orders above every number, so the weakest is still R3.
        assert_eq!(kb.evict_weakest().map(|r| r.culprit), Some("R3".into()));
        assert_eq!(kb.len(), 2);
    }

    #[test]
    fn suggestion_dedup_orders_nan_scores_without_panicking() {
        let suggestion = |culprit: &str, score: f64| Suggestion {
            culprit: culprit.to_owned(),
            mode: None,
            score,
        };
        let mut out = vec![
            suggestion("R1", 0.4),
            suggestion("R2", f64::NAN),
            suggestion("R1", 0.9),
        ];
        dedup_suggestions(&mut out);
        let culprits: Vec<&str> = out.iter().map(|s| s.culprit.as_str()).collect();
        assert_eq!(culprits, ["R2", "R1"]);
        assert_eq!(out[1].score, 0.9);
    }

    #[test]
    fn severity_bucketing() {
        let mk = |d: f64| Consistency::from_parts(d, Direction::High);
        assert_eq!(Severity::from_consistency(&mk(1.0)), Severity::Consistent);
        assert_eq!(Severity::from_consistency(&mk(0.89)), Severity::Slight);
        assert_eq!(Severity::from_consistency(&mk(0.3)), Severity::Strong);
        assert_eq!(Severity::from_consistency(&mk(0.0)), Severity::Total);
    }

    #[test]
    fn learning_creates_then_reinforces() {
        let mut kb = KnowledgeBase::new();
        let syms = vec![sym("V1", Direction::Low, Severity::Total)];
        kb.learn(syms.clone(), "R3", Some("open".to_owned()));
        assert_eq!(kb.len(), 1);
        let c1 = kb.iter().next().unwrap().certainty;
        assert!((c1 - 0.5).abs() < 1e-12);
        kb.learn(syms.clone(), "R3", None);
        assert_eq!(kb.len(), 1, "same rule reinforced, not duplicated");
        let rule = kb.iter().next().unwrap();
        assert!(rule.certainty > c1);
        assert_eq!(rule.confirmations, 2);
        assert_eq!(rule.mode.as_deref(), Some("open"), "mode survives");
        // Different culprit with same symptoms is a separate rule.
        kb.learn(syms, "R2", Some("short".to_owned()));
        assert_eq!(kb.len(), 2);
    }

    #[test]
    fn certainty_saturates_below_one() {
        let mut kb = KnowledgeBase::new();
        let syms = vec![sym("Vs", Direction::High, Severity::Slight)];
        for _ in 0..50 {
            kb.learn(syms.clone(), "T2", None);
        }
        let c = kb.iter().next().unwrap().certainty;
        assert!(c > 0.99);
        assert!(c < 1.0);
    }

    #[test]
    fn suggestions_ranked_by_certainty_and_match() {
        let mut kb = KnowledgeBase::new();
        let full = vec![
            sym("V1", Direction::Low, Severity::Total),
            sym("V2", Direction::High, Severity::Slight),
        ];
        kb.learn(full.clone(), "R3", Some("open".to_owned()));
        kb.learn(full.clone(), "R3", None);
        kb.learn(
            vec![sym("V2", Direction::High, Severity::Slight)],
            "T2",
            None,
        );
        // Observation matches both rules fully / partially.
        let suggestions = kb.suggest(&full);
        assert_eq!(suggestions[0].culprit, "R3");
        assert!(suggestions[0].score > suggestions.last().unwrap().score);
        // Observation with only the V2 symptom: R3 rule half-matches.
        let partial = vec![sym("V2", Direction::High, Severity::Slight)];
        let s2 = kb.suggest(&partial);
        assert!(s2.iter().any(|s| s.culprit == "T2"));
        let r3 = s2.iter().find(|s| s.culprit == "R3").unwrap();
        let r3_full = suggestions.iter().find(|s| s.culprit == "R3").unwrap();
        assert!(r3.score < r3_full.score);
        // Disjoint observation: nothing suggested.
        assert!(kb
            .suggest(&[sym("Vx", Direction::Low, Severity::Total)])
            .is_empty());
    }

    #[test]
    fn disconfirmation_decays_and_eventually_drops() {
        let mut kb = KnowledgeBase::new();
        let syms = vec![sym("V1", Direction::Low, Severity::Total)];
        kb.learn(syms.clone(), "R3", None);
        kb.learn(syms.clone(), "R3", None);
        let before = kb.iter().next().unwrap().certainty;
        kb.disconfirm(&syms, "R3");
        let after = kb.iter().next().unwrap().certainty;
        assert!(after < before);
        // Disconfirming an unknown rule is a no-op.
        kb.disconfirm(&syms, "T1");
        assert_eq!(kb.len(), 1);
        // Repeated disconfirmation removes the rule.
        for _ in 0..10 {
            kb.disconfirm(&syms, "R3");
        }
        assert!(kb.is_empty());
    }

    /// Regression: the old `dedup_by` after the score sort only removed
    /// *adjacent* duplicates, so the same `(culprit, mode)` surfaced
    /// twice at different scores whenever another culprit's score sorted
    /// between them.
    #[test]
    fn suggest_keeps_only_the_best_score_per_culprit_and_mode() {
        let mut kb = KnowledgeBase::new();
        let a = sym("V1", Direction::Low, Severity::Total);
        let b = sym("V2", Direction::High, Severity::Slight);
        // Rule 1: R3 over {a, b} — half-matches the observation below.
        kb.learn(vec![a.clone(), b.clone()], "R3", None);
        // Rule 2: T2 over {a}, reinforced once — full match, middle score.
        kb.learn(vec![a.clone()], "T2", None);
        kb.learn(vec![a.clone()], "T2", None);
        // Rule 3: R3 over {a}, reinforced to the top score — full match.
        for _ in 0..4 {
            kb.learn(vec![a.clone()], "R3", None);
        }
        let suggestions = kb.suggest(std::slice::from_ref(&a));
        // Scores: R3/{a} ≈ 0.83 > T2/{a} = 0.65 > R3/{a,b} = 0.25 — the
        // two R3 rules are not adjacent after the sort.
        let r3: Vec<&Suggestion> = suggestions.iter().filter(|s| s.culprit == "R3").collect();
        assert_eq!(r3.len(), 1, "one R3 entry only: {suggestions:?}");
        assert!(
            r3[0].score > 0.8,
            "the surviving R3 entry carries the max score: {suggestions:?}"
        );
        assert_eq!(suggestions.len(), 2);
        // Same culprit under different modes stays distinct.
        let mut kb = KnowledgeBase::new();
        kb.learn(vec![a.clone()], "R3", Some("open".to_owned()));
        kb.learn(vec![b.clone()], "R3", Some("short".to_owned()));
        assert_eq!(kb.suggest(&[a, b]).len(), 2);
    }

    #[test]
    fn evict_weakest_removes_lowest_certainty_first() {
        let mut kb = KnowledgeBase::new();
        let a = sym("V1", Direction::Low, Severity::Total);
        let b = sym("V2", Direction::High, Severity::Slight);
        kb.learn(vec![a.clone()], "R1", None);
        kb.learn(vec![a], "R1", None); // certainty 0.65
        kb.learn(vec![b.clone()], "R2", None); // certainty 0.5
        let victim = kb.evict_weakest().expect("non-empty");
        assert_eq!(victim.culprit, "R2");
        assert_eq!(kb.len(), 1);
        assert!(kb.evict_weakest().is_some());
        assert!(kb.evict_weakest().is_none());
    }

    #[test]
    fn display_renders_rule() {
        let mut kb = KnowledgeBase::new();
        kb.learn(
            vec![sym("V1", Direction::Low, Severity::Total)],
            "R3",
            Some("open".to_owned()),
        );
        let text = kb.iter().next().unwrap().to_string();
        assert!(text.contains("V1"));
        assert!(text.contains("R3 open"));
        assert!((&kb).into_iter().count() == 1);
    }
}
