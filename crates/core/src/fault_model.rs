//! Component fault models as fuzzy sets (§7 of the paper).
//!
//! "Common fault modes (such as open, short, high, or low for resistors)
//! in our approach are defined as fuzzy sets. This will avoid us to use
//! special heuristics to find slight deviations."
//!
//! A [`FaultMode`] is a fuzzy set over the **parameter ratio**
//! `actual / nominal`: `short` concentrates near 0, `open` near +∞
//! (represented on a log₁₀ scale so both ends are finite), `low`/`high`
//! cover moderate deviations, and `nominal` the in-tolerance band.
//!
//! The unit also implements the refinement step the paper sketches in
//! §6.3: for a single-fault candidate, *infer* the component's parameter
//! from the measurements (treat it as unknown, propagate, read the derived
//! value), convert to a fuzzy ratio, and match it against the mode
//! vocabulary — "considering the fault modes of the diode … drives us to
//! strongly suspect the resistance r2 which has to be very low".

use crate::engine::Diagnoser;
use crate::propagation::{Propagator, PropagatorConfig};
use crate::Result;
use flames_circuit::constraint::QuantityKind;
use flames_circuit::CompId;
use flames_fuzzy::FuzzyInterval;
use std::fmt;

/// A named fault mode: a fuzzy set over `log10(actual / nominal)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMode {
    name: String,
    /// Membership over the decimal log of the parameter ratio.
    log_ratio_set: FuzzyInterval,
}

impl FaultMode {
    /// Creates a fault mode from a fuzzy set over `log10(ratio)`.
    #[must_use]
    pub fn new(name: impl Into<String>, log_ratio_set: FuzzyInterval) -> Self {
        Self {
            name: name.into(),
            log_ratio_set,
        }
    }

    /// The mode's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Membership of a crisp parameter ratio in this mode.
    #[must_use]
    pub fn membership(&self, ratio: f64) -> f64 {
        if ratio <= 0.0 {
            // Ratio 0 is the extreme short: evaluate at the set's far left.
            return self
                .log_ratio_set
                .membership(self.log_ratio_set.support_lo());
        }
        self.log_ratio_set.membership(ratio.log10())
    }

    /// Matching degree of a fuzzy ratio estimate against this mode:
    /// the possibility of agreement between the estimate (mapped to log
    /// scale through its core and support) and the mode's set.
    #[must_use]
    pub fn match_degree(&self, ratio: &FuzzyInterval) -> f64 {
        let (slo, shi) = ratio.support();
        if shi <= 0.0 {
            return self.membership(0.0);
        }
        let to_log = |x: f64| x.max(1e-6).log10();
        let log_est = FuzzyInterval::new(
            to_log(ratio.core_lo()),
            to_log(ratio.core_hi()),
            (to_log(ratio.core_lo()) - to_log(slo)).max(0.0),
            (to_log(shi) - to_log(ratio.core_hi())).max(0.0),
        )
        .expect("log mapping of positive ratio is valid");
        log_est.possibility_of(&self.log_ratio_set)
    }
}

impl fmt::Display for FaultMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.log_ratio_set)
    }
}

/// The standard five-mode vocabulary of §7: short / low / nominal /
/// high / open, as fuzzy sets over `log10(ratio)`.
///
/// * `short`: ratio ≲ 10⁻³;
/// * `low`: moderately under nominal (down to ratio ≈ 0.3);
/// * `nominal`: the in-tolerance band around ratio 1;
/// * `high`: moderately over nominal (up to ratio ≈ 3);
/// * `open`: ratio ≳ 10³.
#[must_use]
pub fn standard_modes(tolerance: f64) -> Vec<FaultMode> {
    let t = tolerance.clamp(1e-4, 0.5);
    // Log half-width of the nominal band, with soft shoulders.
    let hw = (1.0 + t).log10();
    let set = |m1: f64, m2: f64, a: f64, b: f64| FuzzyInterval::new(m1, m2, a, b).expect("static");
    vec![
        FaultMode::new("short", set(-6.0, -3.0, 0.0, 1.0)),
        FaultMode::new("low", set(-0.5, -2.0 * hw, 0.5, hw)),
        FaultMode::new("nominal", set(-hw, hw, hw, hw)),
        FaultMode::new("high", set(2.0 * hw, 0.5, hw, 0.5)),
        FaultMode::new("open", set(3.0, 6.0, 1.0, 0.0)),
    ]
}

/// The result of fault-mode refinement for one candidate component.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeDiagnosis {
    /// The candidate component.
    pub component: CompId,
    /// The inferred fuzzy parameter ratio `actual / nominal`, if the
    /// measurements pinned the parameter down.
    pub ratio: Option<FuzzyInterval>,
    /// Per-mode matching degrees `(mode name, degree)`, best first.
    pub modes: Vec<(String, f64)>,
}

impl ModeDiagnosis {
    /// The best-matching mode, if any.
    #[must_use]
    pub fn best(&self) -> Option<(&str, f64)> {
        self.modes.first().map(|(n, d)| (n.as_str(), *d))
    }
}

/// Infers the parameter of a single-fault candidate from measurements and
/// matches it against a fault-mode vocabulary.
///
/// The component's parameter seed is withheld, the given measurements are
/// propagated, and the derived value of the parameter quantity (if any) is
/// compared — as a fuzzy ratio to nominal — against `modes`.
///
/// # Errors
///
/// Returns [`crate::CoreError::UnknownName`] for an unknown test-point
/// name; returns `Ok` with `ratio: None` when the measurements do not
/// determine the parameter.
pub fn infer_fault_mode(
    diagnoser: &Diagnoser,
    measurements: &[(String, FuzzyInterval)],
    component: CompId,
    modes: &[FaultMode],
    config: PropagatorConfig,
) -> Result<ModeDiagnosis> {
    let network = diagnoser.network();
    let Some(param_q) = network.find(QuantityKind::Param(component)) else {
        return Ok(ModeDiagnosis {
            component,
            ratio: None,
            modes: Vec::new(),
        });
    };
    let nominal = diagnoser.netlist().component(component).primary_param();

    // A propagator on the model's schedule in which the component's
    // parameter is unknown.
    let mut prop = Propagator::with_schedule_filtered(
        network,
        diagnoser.model().schedule(),
        config,
        &[component],
        &[],
    );
    for (point, value) in measurements {
        let tp = diagnoser
            .test_points()
            .iter()
            .find(|tp| &tp.name == point)
            .ok_or_else(|| crate::CoreError::UnknownName {
                name: point.clone(),
            })?;
        prop.observe(network.voltage_quantity(tp.net), *value)?;
    }
    prop.run();
    let ratio = prop.best_value(param_q).and_then(|entry| {
        if nominal == 0.0 {
            return None;
        }
        Some(entry.value.scaled(1.0 / nominal))
    });
    let mut mode_matches: Vec<(String, f64)> = match &ratio {
        Some(r) => modes
            .iter()
            .map(|m| (m.name().to_owned(), m.match_degree(r)))
            .collect(),
        None => Vec::new(),
    };
    rank_modes(&mut mode_matches);
    Ok(ModeDiagnosis {
        component,
        ratio,
        modes: mode_matches,
    })
}

/// Orders `(mode, degree)` matches by decreasing degree (a NaN degree
/// first, never a panic).
fn rank_modes(matches: &mut [(String, f64)]) {
    matches.sort_by(|a, b| b.1.total_cmp(&a.1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DiagnoserConfig;
    use flames_circuit::predict::TestPoint;
    use flames_circuit::{Fault, Net, Netlist};

    #[test]
    fn standard_mode_memberships() {
        let modes = standard_modes(0.05);
        let by = |n: &str| modes.iter().find(|m| m.name() == n).unwrap();
        assert_eq!(by("nominal").membership(1.0), 1.0);
        assert_eq!(by("nominal").membership(2.0), 0.0);
        assert!(by("high").membership(1.5) > 0.5);
        assert!(by("low").membership(0.5) > 0.5);
        assert_eq!(by("short").membership(0.0), 1.0);
        assert_eq!(by("short").membership(1e-4), 1.0);
        assert_eq!(by("open").membership(1e4), 1.0);
        assert_eq!(by("open").membership(1.0), 0.0);
        // Slight deviations get graded membership in high/nominal.
        assert!(
            by("high").membership(1.12) > 0.0,
            "1.12 should touch 'high'"
        );
    }

    #[test]
    fn mode_match_on_fuzzy_ratio() {
        let modes = standard_modes(0.05);
        let high = modes.iter().find(|m| m.name() == "high").unwrap();
        let est = FuzzyInterval::new(1.4, 1.6, 0.1, 0.1).unwrap();
        assert!(high.match_degree(&est) > 0.9);
        let nominal_est = FuzzyInterval::new(0.99, 1.01, 0.02, 0.02).unwrap();
        assert!(high.match_degree(&nominal_est) < 0.2);
        // Zero/negative ratios collapse to the short end.
        let zero = FuzzyInterval::crisp(0.0);
        let short = modes.iter().find(|m| m.name() == "short").unwrap();
        assert_eq!(short.match_degree(&zero), 1.0);
    }

    #[test]
    fn infers_resistor_ratio_from_measurements() {
        // Divider with R1 actually 40 % high; measuring vin and mid pins
        // R1's value via Ohm + KCL.
        let mut nl = Netlist::new();
        let vin = nl.add_net("vin");
        let mid = nl.add_net("mid");
        nl.add_voltage_source("V", vin, Net::GROUND, 10.0).unwrap();
        let r1 = nl.add_resistor("R1", vin, mid, 1000.0, 0.05).unwrap();
        let r2 = nl
            .add_resistor("R2", mid, Net::GROUND, 1000.0, 0.05)
            .unwrap();
        let points = vec![
            TestPoint::new(mid, "Vmid", vec![r1, r2]),
            TestPoint::new(vin, "Vin", vec![]),
        ];
        let d = Diagnoser::from_netlist(&nl, points, DiagnoserConfig::default()).unwrap();

        let bad =
            flames_circuit::fault::inject_faults(&nl, &[(r1, Fault::ParamFactor(1.4))]).unwrap();
        let readings = flames_circuit::predict::measure_all(&bad, &[mid, vin], 0.01).unwrap();
        let measurements = vec![
            ("Vmid".to_owned(), readings[0]),
            ("Vin".to_owned(), readings[1]),
        ];
        let modes = standard_modes(0.05);
        let md =
            infer_fault_mode(&d, &measurements, r1, &modes, PropagatorConfig::default()).unwrap();
        let ratio = md.ratio.expect("parameter should be inferable");
        assert!(
            (ratio.core_midpoint() - 1.4).abs() < 0.1,
            "inferred ratio {ratio}"
        );
        let (best, degree) = md.best().expect("modes ranked");
        assert_eq!(best, "high", "degree {degree}");
        assert!(degree > 0.5);

        // Inferring the *other* resistor instead explains the same
        // readings as "R2 low" — the classic divider ambiguity (only the
        // ratio is observable from these probes). Both single-fault
        // explanations are produced; the expert (or a further probe)
        // disambiguates.
        let md2 =
            infer_fault_mode(&d, &measurements, r2, &modes, PropagatorConfig::default()).unwrap();
        let ratio2 = md2.ratio.expect("parameter should be inferable");
        assert!(
            (ratio2.core_midpoint() - 1.0 / 1.4).abs() < 0.05,
            "{ratio2}"
        );
        assert_eq!(md2.best().unwrap().0, "low");
    }

    #[test]
    fn mode_ranking_orders_nan_degrees_without_panicking() {
        let mut matches = vec![
            ("low".to_owned(), 0.25),
            ("nan".to_owned(), f64::NAN),
            ("high".to_owned(), 0.75),
        ];
        rank_modes(&mut matches);
        let names: Vec<&str> = matches.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["nan", "high", "low"]);
    }

    #[test]
    fn unknown_point_name_is_reported() {
        let mut nl = Netlist::new();
        let a = nl.add_net("a");
        nl.add_voltage_source("V", a, Net::GROUND, 1.0).unwrap();
        let r = nl.add_resistor("R", a, Net::GROUND, 100.0, 0.05).unwrap();
        let d = Diagnoser::from_netlist(&nl, vec![], DiagnoserConfig::default()).unwrap();
        let res = infer_fault_mode(
            &d,
            &[("nope".to_owned(), FuzzyInterval::crisp(0.0))],
            r,
            &standard_modes(0.05),
            PropagatorConfig::default(),
        );
        assert!(res.is_err());
    }
}
