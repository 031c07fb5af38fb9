//! Fuzzy qualitative rules and model-validity checking (§5 and §6.2 of
//! the paper).
//!
//! The knowledge-base unit holds "fuzzy qualitative rules" the expert
//! writes against test-point readings — *"If the transistor T is correct
//! and Vbe(T) ≥ 0.4, then it should be in an O state. Since the operation
//! is fuzzy … O(T) will be defined as a fuzzy set"*. Two kinds of
//! conclusion are supported:
//!
//! * [`RuleTarget::Estimation`] — adjust a component's a priori
//!   faultiness estimation (feeds the §8 strategy);
//! * [`RuleTarget::ModelInvalid`] — declare a component's *model* out of
//!   its validity region (e.g. a transistor pushed out of the linear
//!   region by an upstream fault). The engine then re-runs the session
//!   with that model withdrawn ([`diagnose_with_region_check`]), so
//!   secondary conflicts raised by the invalid model do not pollute the
//!   candidate space.
//!
//! Built-in region rules for every transistor are generated by
//! [`bjt_region_rules`]: the linear model asserted during extraction
//! (`Vbe` clamp + `Ic = β·Ib`) is only valid while the device is
//! forward-active; the rules grade that validity from the *measured*
//! test-point values (using `V(collector) − V(base)` differences when the
//! emitter is not directly probed).

use crate::engine::{Diagnoser, Session};
use crate::Result;
use flames_circuit::{CompId, ComponentKind, Net};
use flames_fuzzy::FuzzyInterval;
use std::fmt;

/// What a fired rule concludes.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleTarget {
    /// Set/boost the a priori faultiness estimation of a component to a
    /// fuzzy set over `[0, 1]`.
    Estimation {
        /// The component's name.
        component: String,
        /// The concluded estimation.
        estimation: FuzzyInterval,
    },
    /// Declare the component's behavioural model invalid under the
    /// current operating conditions.
    ModelInvalid {
        /// The component's name.
        component: String,
    },
}

impl fmt::Display for RuleTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleTarget::Estimation {
                component,
                estimation,
            } => {
                write!(f, "estimation({component}) := {estimation:.2}")
            }
            RuleTarget::ModelInvalid { component } => write!(f, "model-invalid({component})"),
        }
    }
}

/// The observable a fuzzy condition constrains.
#[derive(Debug, Clone, PartialEq)]
pub enum PointExpr {
    /// The reading of one test point.
    Point(String),
    /// The difference `V(a) − V(b)` of two test-point readings (fuzzy
    /// subtraction of the measured values).
    Diff(String, String),
}

impl fmt::Display for PointExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointExpr::Point(p) => write!(f, "{p}"),
            PointExpr::Diff(a, b) => write!(f, "{a}−{b}"),
        }
    }
}

/// A fuzzy condition: the measured expression's satisfaction of `set`
/// grades the condition.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    /// The constrained observable.
    pub expr: PointExpr,
    /// The fuzzy admissible region for the observable.
    pub set: FuzzyInterval,
}

/// A fuzzy qualitative rule: `if ⋀ conditions then target @ certainty`.
#[derive(Debug, Clone, PartialEq)]
pub struct QualitativeRule {
    /// Rule name for reports.
    pub name: String,
    /// Conjunctive fuzzy conditions over probed test points.
    pub conditions: Vec<Condition>,
    /// The conclusion.
    pub target: RuleTarget,
    /// The expert's certainty in the rule, in `(0, 1]`.
    pub certainty: f64,
}

/// A rule that fired against a session, with its firing degree.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleFiring {
    /// The rule's name.
    pub rule: String,
    /// Firing degree: `min(certainty, condition satisfactions)`.
    pub degree: f64,
    /// The rule's conclusion.
    pub target: RuleTarget,
}

impl fmt::Display for RuleFiring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {:.2}: {}", self.rule, self.degree, self.target)
    }
}

/// An ordered collection of qualitative rules.
#[derive(Debug, Clone, Default)]
pub struct RuleBase {
    rules: Vec<QualitativeRule>,
}

impl RuleBase {
    /// Creates an empty rule base.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a base from a rule list.
    #[must_use]
    pub fn from_rules(rules: Vec<QualitativeRule>) -> Self {
        Self { rules }
    }

    /// Adds a rule.
    pub fn add(&mut self, rule: QualitativeRule) {
        self.rules.push(rule);
    }

    /// Number of rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rule has been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Iterates over the rules.
    pub fn iter(&self) -> std::slice::Iter<'_, QualitativeRule> {
        self.rules.iter()
    }

    /// Evaluates every rule against the session's *measured* test-point
    /// values; returns the firings with degree > 0, strongest first.
    /// Rules whose conditions mention unprobed points do not fire.
    #[must_use]
    pub fn evaluate(&self, session: &Session<'_>) -> Vec<RuleFiring> {
        let report = session.report();
        let measured: Vec<(&str, FuzzyInterval)> = report
            .points
            .iter()
            .filter_map(|p| p.measured.map(|m| (p.name.as_str(), m)))
            .collect();
        let value_of = |name: &str| -> Option<FuzzyInterval> {
            measured.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
        };
        let mut out: Vec<RuleFiring> = self
            .rules
            .iter()
            .filter_map(|rule| {
                let mut degree = rule.certainty;
                for cond in &rule.conditions {
                    let value = match &cond.expr {
                        PointExpr::Point(p) => value_of(p)?,
                        PointExpr::Diff(a, b) => value_of(a)? - value_of(b)?,
                    };
                    degree = degree.min(value.satisfaction_of(&cond.set));
                }
                (degree > 0.0).then(|| RuleFiring {
                    rule: rule.name.clone(),
                    degree,
                    target: rule.target.clone(),
                })
            })
            .collect();
        out.sort_by(|a, b| b.degree.total_cmp(&a.degree));
        out
    }
}

impl<'a> IntoIterator for &'a RuleBase {
    type Item = &'a QualitativeRule;
    type IntoIter = std::slice::Iter<'a, QualitativeRule>;
    fn into_iter(self) -> Self::IntoIter {
        self.rules.iter()
    }
}

/// Collector-emitter voltage at the saturation boundary of the linear
/// BJT model.
const VCE_SAT: f64 = 0.2;
/// Fuzzy shoulder width of the region boundary.
const VCE_SHOULDER: f64 = 0.2;
/// Far bound standing in for ±∞ in one-sided fuzzy sets.
const FAR: f64 = 1e4;

/// How a BJT terminal's voltage can be observed.
enum Level {
    /// The terminal is grounded or tied to a trusted source: a constant.
    Const(f64),
    /// The terminal is a declared test point.
    Probed(String),
    /// Not observable.
    Unknown,
}

/// Generates the built-in linear-region validity rules for every
/// transistor whose saturation can be judged from probed or constant
/// node voltages:
///
/// * probed collector vs constant emitter: `V(c) ≤ Ve + Vce_sat`;
/// * constant collector vs probed emitter: `V(e) ≥ Vc − Vce_sat`;
/// * probed collector vs probed **base** (emitter unprobed): the `Vbe`
///   clamp gives `Ve ≈ V(b) − Vbe`, so saturation reads
///   `V(c) − V(b) ≤ Vce_sat − Vbe`.
///
/// Each rule concludes [`RuleTarget::ModelInvalid`] for its device, with
/// a fuzzy shoulder of `VCE_SHOULDER` (0.2 V) volts on the boundary.
#[must_use]
pub fn bjt_region_rules(diagnoser: &Diagnoser) -> Vec<QualitativeRule> {
    let netlist = diagnoser.netlist();
    let level_of = |net: Net| -> Level {
        if net.is_ground() {
            return Level::Const(0.0);
        }
        if let Some(tp) = diagnoser.test_points().iter().find(|tp| tp.net == net) {
            return Level::Probed(tp.name.clone());
        }
        // A net pinned by a voltage source against ground is a constant.
        for (_, comp) in netlist.components() {
            if let ComponentKind::VoltageSource { plus, minus, volts } = *comp.kind() {
                if plus == net && minus.is_ground() {
                    return Level::Const(volts);
                }
                if minus == net && plus.is_ground() {
                    return Level::Const(-volts);
                }
            }
        }
        Level::Unknown
    };
    let saturated_below = |upper: f64| -> FuzzyInterval {
        FuzzyInterval::new(-FAR, upper, 0.0, VCE_SHOULDER).expect("static envelope")
    };
    let saturated_above = |lower: f64| -> FuzzyInterval {
        FuzzyInterval::new(lower, FAR, VCE_SHOULDER, 0.0).expect("static envelope")
    };

    let mut rules = Vec::new();
    for (_, comp) in netlist.components() {
        let ComponentKind::Npn {
            collector,
            base,
            emitter,
            vbe,
            ..
        } = *comp.kind()
        else {
            continue;
        };
        let rule = |conditions: Vec<Condition>| QualitativeRule {
            name: format!("linear-region({})", comp.name()),
            conditions,
            target: RuleTarget::ModelInvalid {
                component: comp.name().to_owned(),
            },
            certainty: 1.0,
        };
        match (level_of(collector), level_of(emitter)) {
            (Level::Probed(c), Level::Const(ve)) => {
                rules.push(rule(vec![Condition {
                    expr: PointExpr::Point(c),
                    set: saturated_below(ve + VCE_SAT),
                }]));
            }
            (Level::Const(vc), Level::Probed(e)) => {
                rules.push(rule(vec![Condition {
                    expr: PointExpr::Point(e),
                    set: saturated_above(vc - VCE_SAT),
                }]));
            }
            (Level::Probed(c), Level::Probed(e)) => {
                rules.push(rule(vec![Condition {
                    expr: PointExpr::Diff(c, e),
                    set: saturated_below(VCE_SAT),
                }]));
            }
            (Level::Probed(c), Level::Unknown) => {
                // Estimate the emitter through the device's own Vbe clamp.
                if let Level::Probed(b) = level_of(base) {
                    rules.push(rule(vec![Condition {
                        expr: PointExpr::Diff(c, b),
                        set: saturated_below(VCE_SAT - vbe),
                    }]));
                }
            }
            _ => {}
        }
    }
    rules
}

/// Runs a full diagnosis with model-validity revalidation: measure,
/// propagate, evaluate the region rules, and — if any model is declared
/// invalid with degree ≥ 0.5 — re-run the session with those components'
/// models withdrawn (their constraints and parameter seeds skipped).
///
/// Returns the final session and the names of the excused components.
///
/// # Errors
///
/// Propagates measurement errors (unknown point names).
pub fn diagnose_with_region_check<'d>(
    diagnoser: &'d Diagnoser,
    measurements: &[(String, FuzzyInterval)],
) -> Result<(Session<'d>, Vec<String>)> {
    let mut session = diagnoser.session();
    for (point, value) in measurements {
        session.measure(point, *value)?;
    }
    session.propagate();

    let rules = RuleBase::from_rules(bjt_region_rules(diagnoser));
    let excused: Vec<String> = rules
        .evaluate(&session)
        .into_iter()
        .filter(|f| f.degree >= 0.5)
        .filter_map(|f| match f.target {
            RuleTarget::ModelInvalid { component } => Some(component),
            RuleTarget::Estimation { .. } => None,
        })
        .collect();
    if excused.is_empty() {
        return Ok((session, excused));
    }
    let ids: Vec<CompId> = excused
        .iter()
        .filter_map(|name| diagnoser.netlist().component_by_name(name))
        .collect();
    let mut session = diagnoser.session_excusing(&ids);
    for (point, value) in measurements {
        session.measure(point, *value)?;
    }
    session.propagate();
    Ok((session, excused))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DiagnoserConfig;
    use flames_circuit::circuits::three_stage;
    use flames_circuit::fault::inject_faults;
    use flames_circuit::predict::measure_all;
    use flames_circuit::Fault;

    fn measurements_for(
        ts: &flames_circuit::circuits::ThreeStage,
        board: &flames_circuit::Netlist,
    ) -> Vec<(String, FuzzyInterval)> {
        let readings = measure_all(board, &[ts.vs, ts.v1, ts.v2], 0.05).unwrap();
        vec![
            ("Vs".to_owned(), readings[0]),
            ("V1".to_owned(), readings[1]),
            ("V2".to_owned(), readings[2]),
        ]
    }

    #[test]
    fn rule_base_evaluation_grades_conditions() {
        let ts = three_stage(0.02);
        let d = Diagnoser::from_netlist(
            &ts.netlist,
            ts.test_points.clone(),
            DiagnoserConfig::default(),
        )
        .unwrap();
        let mut session = d.session();
        session
            .measure("V1", FuzzyInterval::crisp(7.1).widened(0.05).unwrap())
            .unwrap();
        session
            .measure("V2", FuzzyInterval::crisp(9.2).widened(0.05).unwrap())
            .unwrap();
        let mut rules = RuleBase::new();
        rules.add(QualitativeRule {
            name: "v1-healthy-band".to_owned(),
            conditions: vec![Condition {
                expr: PointExpr::Point("V1".to_owned()),
                set: FuzzyInterval::new(6.5, 7.5, 0.5, 0.5).unwrap(),
            }],
            target: RuleTarget::Estimation {
                component: "R2".to_owned(),
                estimation: FuzzyInterval::new(0.0, 0.05, 0.0, 0.05).unwrap(),
            },
            certainty: 0.9,
        });
        rules.add(QualitativeRule {
            name: "stage2-swing".to_owned(),
            conditions: vec![Condition {
                expr: PointExpr::Diff("V2".to_owned(), "V1".to_owned()),
                set: FuzzyInterval::new(1.0, 3.0, 0.5, 0.5).unwrap(),
            }],
            target: RuleTarget::Estimation {
                component: "T2".to_owned(),
                estimation: FuzzyInterval::new(0.0, 0.05, 0.0, 0.05).unwrap(),
            },
            certainty: 1.0,
        });
        // A rule on an unprobed point must not fire.
        rules.add(QualitativeRule {
            name: "vs-unprobed".to_owned(),
            conditions: vec![Condition {
                expr: PointExpr::Point("Vs".to_owned()),
                set: FuzzyInterval::new(0.0, 20.0, 0.0, 0.0).unwrap(),
            }],
            target: RuleTarget::ModelInvalid {
                component: "T3".to_owned(),
            },
            certainty: 1.0,
        });
        let firings = rules.evaluate(&session);
        assert_eq!(firings.len(), 2, "{firings:?}");
        assert_eq!(firings[0].rule, "stage2-swing");
        assert!((firings[1].degree - 0.9).abs() < 1e-9);
        assert_eq!(rules.len(), 3);
        assert!(!rules.is_empty());
        assert_eq!((&rules).into_iter().count(), 3);
        assert!(format!("{}", firings[1]).contains("estimation(R2)"));
        assert_eq!(
            format!("{}", PointExpr::Diff("a".into(), "b".into())),
            "a−b"
        );
    }

    #[test]
    fn evaluation_tolerates_nan_certainties() {
        let ts = three_stage(0.02);
        let d = Diagnoser::from_netlist(
            &ts.netlist,
            ts.test_points.clone(),
            DiagnoserConfig::default(),
        )
        .unwrap();
        let mut session = d.session();
        session
            .measure("V1", FuzzyInterval::crisp(7.0).widened(0.05).unwrap())
            .unwrap();
        let rule = |name: &str, conditions: Vec<Condition>| QualitativeRule {
            name: name.to_owned(),
            conditions,
            target: RuleTarget::ModelInvalid {
                component: "T2".to_owned(),
            },
            certainty: f64::NAN,
        };
        let mut rules = RuleBase::new();
        rules.add(rule("unconditional", Vec::new()));
        rules.add(rule(
            "v1-band",
            vec![Condition {
                expr: PointExpr::Point("V1".to_owned()),
                set: FuzzyInterval::new(6.5, 7.5, 0.5, 0.5).unwrap(),
            }],
        ));
        // `min` skips a NaN certainty, so the conditioned rule fires on
        // its condition alone; a NaN degree never passes `> 0`.
        let firings = rules.evaluate(&session);
        assert_eq!(firings.len(), 1, "{firings:?}");
        assert_eq!(firings[0].rule, "v1-band");
        assert_eq!(firings[0].degree, 1.0);
    }

    #[test]
    fn region_rules_cover_all_three_transistors() {
        let ts = three_stage(0.02);
        let d = Diagnoser::from_netlist(
            &ts.netlist,
            ts.test_points.clone(),
            DiagnoserConfig::default(),
        )
        .unwrap();
        let rules = bjt_region_rules(&d);
        let names: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
        // T1: probed collector (V1) vs grounded emitter.
        assert!(names.contains(&"linear-region(T1)"), "{names:?}");
        // T2: probed collector (V2), unprobed emitter, probed base (V1).
        assert!(names.contains(&"linear-region(T2)"), "{names:?}");
        // T3: constant collector (vcc), probed emitter (Vs).
        assert!(names.contains(&"linear-region(T3)"), "{names:?}");
    }

    #[test]
    fn healthy_board_excuses_nothing() {
        let ts = three_stage(0.02);
        let d = Diagnoser::from_netlist(
            &ts.netlist,
            ts.test_points.clone(),
            DiagnoserConfig::default(),
        )
        .unwrap();
        let ms = measurements_for(&ts, &ts.netlist);
        let (session, excused) = diagnose_with_region_check(&d, &ms).unwrap();
        assert!(excused.is_empty(), "{excused:?}");
        assert!(session.candidates(2, 16).is_empty());
    }

    #[test]
    fn short_r2_excuses_saturated_t2_and_cleans_candidates() {
        // A shorted R2 slams V1 to the rail; T2 saturates (V2 − V1 reads
        // −0.5 V, right at Vce_sat − Vbe). After revalidation the
        // secondary stage-2/3 conflicts disappear and the candidate
        // lattice is driven by the stage-1 conflict alone.
        let ts = three_stage(0.02);
        let d = Diagnoser::from_netlist(
            &ts.netlist,
            ts.test_points.clone(),
            DiagnoserConfig::default(),
        )
        .unwrap();
        let board = inject_faults(&ts.netlist, &[(ts.r2, Fault::Short)]).unwrap();
        let ms = measurements_for(&ts, &board);
        let (session, excused) = diagnose_with_region_check(&d, &ms).unwrap();
        assert!(
            excused.contains(&"T2".to_owned()),
            "T2 must be recognized as out of region: {excused:?}"
        );
        // Single-fault candidates now exist (the stage-1 nogood dominates).
        let cands = session.candidates(1, 32);
        assert!(
            cands.iter().any(|c| c.members.contains(&"R2".to_owned())),
            "{cands:?}"
        );
    }
}
