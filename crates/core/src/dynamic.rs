//! Dynamic-mode diagnosis — the paper's §9 "tried on different kinds and
//! sizes of circuits, **either in dynamic mode or in static one**".
//!
//! In dynamic mode the observables are small-signal **amplitudes** at
//! `(test point, frequency)` pairs. Reactive faults (a shifted pole, a
//! cracked coupling capacitor) are invisible at DC but move the frequency
//! response; the same FLAMES machinery applies:
//!
//! * fuzzy predictions per probe come from tolerance-corner AC analyses
//!   (the dynamic analog of [`flames_circuit::predict::nominal_predictions`]);
//! * a measured amplitude is compared with its prediction through the
//!   asymmetric degree of consistency `Dc`;
//! * conflicts become graded nogoods over the probe's dependency cone in
//!   a fuzzy ATMS, and candidates come out ranked.
//!
//! Dynamic mode reasons at the stage level (prediction vs measurement per
//! probe); value propagation *through* reactive constraint models would
//! require complex-valued fuzzy arithmetic, which the paper does not
//! describe either.

use crate::engine::{rank_refined, Candidate};
use crate::Result;
use flames_atms::{Assumption, AssumptionPool, Env, FuzzyAtms, RankedDiagnosis};
use flames_circuit::ac::solve_ac;
use flames_circuit::fault::inject_faults;
use flames_circuit::{CompId, Fault, Net, Netlist};
use flames_fuzzy::{Consistency, FuzzyInterval};
use std::fmt;

/// What an AC probe reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AcObservable {
    /// The magnitude of the node phasor (volts), the default.
    #[default]
    Amplitude,
    /// The phase of the node phasor in degrees. Phase probes discriminate
    /// pole shifts even where the magnitude barely moves (a single-pole
    /// corner moves the phase by 45°). Values are taken in (−180°, 180°];
    /// responses wrapping across ±180° within the tolerance corners are
    /// not handled and should be probed at a different frequency.
    PhaseDegrees,
}

/// An AC probe: an amplitude or phase measurement at one net and one
/// frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct AcProbe {
    /// Display name (`"out@10kHz"`).
    pub name: String,
    /// The probed net.
    pub net: Net,
    /// The stimulus frequency in hertz.
    pub freq_hz: f64,
    /// What is read at the probe.
    pub observable: AcObservable,
    /// Components whose correctness the predicted value rests on.
    pub support: Vec<CompId>,
    /// Relative probing cost.
    pub cost: f64,
}

impl AcProbe {
    /// Creates an amplitude probe with unit cost.
    #[must_use]
    pub fn new(net: Net, freq_hz: f64, name: impl Into<String>, support: Vec<CompId>) -> Self {
        Self {
            name: name.into(),
            net,
            freq_hz,
            observable: AcObservable::Amplitude,
            support,
            cost: 1.0,
        }
    }

    /// Creates a phase probe (degrees) with unit cost.
    #[must_use]
    pub fn phase(net: Net, freq_hz: f64, name: impl Into<String>, support: Vec<CompId>) -> Self {
        Self {
            name: name.into(),
            net,
            freq_hz,
            observable: AcObservable::PhaseDegrees,
            support,
            cost: 1.0,
        }
    }
}

/// The dynamic-mode diagnoser: fuzzy amplitude predictions for a set of
/// AC probes on one circuit.
#[derive(Debug, Clone)]
pub struct AcDiagnoser {
    netlist: Netlist,
    input: CompId,
    amplitude: f64,
    probes: Vec<AcProbe>,
    predictions: Vec<FuzzyInterval>,
}

impl AcDiagnoser {
    /// Builds the diagnoser: for every probe, the nominal AC solve gives
    /// the prediction core and one-at-a-time tolerance corners give the
    /// (conservatively summed) spreads.
    ///
    /// # Errors
    ///
    /// Propagates AC-solver failures from the nominal or corner solves.
    pub fn new(
        netlist: &Netlist,
        input: CompId,
        amplitude: f64,
        probes: Vec<AcProbe>,
    ) -> Result<Self> {
        let mut lo = vec![0.0f64; probes.len()];
        let mut hi = vec![0.0f64; probes.len()];
        let observe = |sol: &flames_circuit::ac::AcSolution, probe: &AcProbe| match probe.observable
        {
            AcObservable::Amplitude => sol.amplitude(probe.net),
            AcObservable::PhaseDegrees => sol.phase(probe.net).to_degrees(),
        };
        let mut nominal = Vec::with_capacity(probes.len());
        for probe in &probes {
            let sol = solve_ac(netlist, input, amplitude, probe.freq_hz)?;
            nominal.push(observe(&sol, probe));
        }
        for (id, comp) in netlist.components() {
            let tol = comp.tolerance();
            if tol <= 0.0 {
                continue;
            }
            let plus = inject_faults(netlist, &[(id, Fault::ParamFactor(1.0 + tol))])?;
            let minus = inject_faults(netlist, &[(id, Fault::ParamFactor(1.0 - tol))])?;
            for (k, probe) in probes.iter().enumerate() {
                let sol_plus = solve_ac(&plus, input, amplitude, probe.freq_hz)?;
                let sol_minus = solve_ac(&minus, input, amplitude, probe.freq_hz)?;
                let d1 = observe(&sol_plus, probe) - nominal[k];
                let d2 = observe(&sol_minus, probe) - nominal[k];
                hi[k] += d1.max(d2).max(0.0);
                lo[k] += (-d1).max(-d2).max(0.0);
            }
        }
        let predictions = probes
            .iter()
            .enumerate()
            .map(|(k, _)| {
                FuzzyInterval::new(nominal[k], nominal[k], lo[k], hi[k])
                    .expect("corner spreads are non-negative")
            })
            .collect();
        Ok(Self {
            netlist: netlist.clone(),
            input,
            amplitude,
            probes,
            predictions,
        })
    }

    /// The declared probes.
    #[must_use]
    pub fn probes(&self) -> &[AcProbe] {
        &self.probes
    }

    /// The fuzzy amplitude prediction of a probe (by index).
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range index.
    #[must_use]
    pub fn prediction(&self, probe: usize) -> &FuzzyInterval {
        &self.predictions[probe]
    }

    /// Reads a probe on a (possibly faulty) board and wraps it in an
    /// instrument imprecision: for amplitude probes
    /// `rel_imprecision × |reading|`, for phase probes
    /// `rel_imprecision × 180°`.
    ///
    /// # Errors
    ///
    /// Propagates AC-solver failures.
    pub fn read_probe(
        &self,
        board: &Netlist,
        probe: usize,
        rel_imprecision: f64,
    ) -> Result<FuzzyInterval> {
        let p = &self.probes[probe];
        let sol = solve_ac(board, self.input, self.amplitude, p.freq_hz)?;
        let (value, scale) = match p.observable {
            AcObservable::Amplitude => {
                let amp = sol.amplitude(p.net);
                (amp, amp.abs().max(1e-12))
            }
            AcObservable::PhaseDegrees => (sol.phase(p.net).to_degrees(), 180.0),
        };
        Ok(FuzzyInterval::crisp(value)
            .widened(rel_imprecision * scale)
            .expect("non-negative imprecision"))
    }

    /// Opens a fresh dynamic-mode session.
    #[must_use]
    pub fn session(&self) -> AcSession<'_> {
        let mut atms = FuzzyAtms::new();
        let mut pool = AssumptionPool::new();
        let mut comp_assumptions = Vec::with_capacity(self.netlist.component_count());
        for (_, comp) in self.netlist.components() {
            let a = atms.add_assumption();
            // The intern must run in release builds too — the pool is what
            // names every env in reports.
            let interned = pool.intern(comp.name());
            debug_assert_eq!(a, interned);
            comp_assumptions.push(a);
        }
        AcSession {
            diagnoser: self,
            atms,
            pool,
            comp_assumptions,
            measured: vec![None; self.probes.len()],
        }
    }
}

/// One dynamic-mode diagnosis run.
#[derive(Debug, Clone)]
pub struct AcSession<'d> {
    diagnoser: &'d AcDiagnoser,
    atms: FuzzyAtms,
    pool: AssumptionPool,
    comp_assumptions: Vec<Assumption>,
    measured: Vec<Option<FuzzyInterval>>,
}

impl AcSession<'_> {
    /// Records a measured amplitude at a probe (by name): computes
    /// `Dc(measured, predicted)` and, on conflict, installs a graded
    /// nogood over the probe's cone.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::UnknownName`] for an unknown probe.
    pub fn measure(&mut self, probe: &str, value: FuzzyInterval) -> Result<()> {
        let idx = self
            .diagnoser
            .probes
            .iter()
            .position(|p| p.name == probe)
            .ok_or_else(|| crate::CoreError::UnknownName {
                name: probe.to_owned(),
            })?;
        self.measured[idx] = Some(value);
        let dc = Consistency::between(&value, &self.diagnoser.predictions[idx]);
        let conflict = dc.conflict_degree();
        if conflict > 0.0 {
            let env = Env::from_assumptions(
                self.diagnoser.probes[idx]
                    .support
                    .iter()
                    .map(|c| self.comp_assumptions[c.index()]),
            );
            self.atms.add_nogood(&env, conflict);
        }
        Ok(())
    }

    /// `Dc(measured, predicted)` of a probed point.
    #[must_use]
    pub fn consistency(&self, probe: &str) -> Option<Consistency> {
        let idx = self.diagnoser.probes.iter().position(|p| p.name == probe)?;
        let measured = self.measured[idx]?;
        Some(Consistency::between(
            &measured,
            &self.diagnoser.predictions[idx],
        ))
    }

    /// Ranked candidates over the graded nogoods.
    #[must_use]
    pub fn candidates(&self, max_size: usize, max_count: usize) -> Vec<Candidate> {
        self.atms
            .ranked_diagnoses(max_size, max_count)
            .into_iter()
            .map(|RankedDiagnosis { env, degree }| Candidate {
                members: env
                    .iter()
                    .map(|a| self.pool.name(a).unwrap_or("?").to_owned())
                    .collect(),
                env,
                degree,
            })
            .collect()
    }

    /// Refined single-fault candidates, mirroring the static engine's
    /// scheme: nogoods below `rho × max_degree` are filtered, the members
    /// of the most specific strong conflicts are scored by suspicion
    /// discounted with the `Dc` of the most specific consistent probe
    /// covering them.
    #[must_use]
    pub fn refined_candidates(&self, max_count: usize, rho: f64) -> Vec<Candidate> {
        let nogoods = self.atms.nogoods();
        let max_degree = nogoods.iter().map(|n| n.degree).fold(0.0, f64::max);
        if max_degree <= 0.0 {
            return Vec::new();
        }
        let cut = rho.clamp(0.0, 1.0) * max_degree;
        let strong: Vec<&flames_atms::Nogood> =
            nogoods.iter().filter(|n| n.degree >= cut).collect();
        let min_size = strong.iter().map(|n| n.env.len()).min().unwrap_or(0);
        let mut members: Vec<Assumption> = strong
            .iter()
            .filter(|n| n.env.len() == min_size)
            .flat_map(|n| n.env.iter())
            .collect();
        members.sort();
        members.dedup();
        let mut out: Vec<Candidate> = members
            .into_iter()
            .map(|a| {
                let degree = self.atms.suspicion(a) * (1.0 - self.exoneration(a));
                Candidate {
                    members: vec![self.pool.name(a).unwrap_or("?").to_owned()],
                    env: Env::singleton(a),
                    degree,
                }
            })
            .collect();
        rank_refined(&mut out);
        out.truncate(max_count);
        out
    }

    /// Dc-based exoneration: the consistency of the most specific probed
    /// probe whose cone covers the assumption (best overall Dc when no
    /// cone does).
    fn exoneration(&self, a: Assumption) -> f64 {
        let mut best: Option<(usize, f64)> = None;
        let mut any_dc: f64 = 0.0;
        for (idx, probe) in self.diagnoser.probes.iter().enumerate() {
            let Some(measured) = self.measured[idx] else {
                continue;
            };
            let dc = Consistency::between(&measured, &self.diagnoser.predictions[idx]).degree();
            any_dc = any_dc.max(dc);
            let covers = probe
                .support
                .iter()
                .any(|c| self.comp_assumptions[c.index()] == a);
            if covers {
                let cone = probe.support.len();
                if best.is_none_or(|(sz, _)| cone < sz) {
                    best = Some((cone, dc));
                }
            }
        }
        best.map_or(any_dc, |(_, dc)| dc)
    }

    /// The underlying fuzzy ATMS.
    #[must_use]
    pub fn atms(&self) -> &FuzzyAtms {
        &self.atms
    }

    /// Which probes have been taken so far (by index).
    #[must_use]
    pub fn probed(&self) -> Vec<bool> {
        self.measured.iter().map(Option::is_some).collect()
    }

    /// Fuzzy faultiness estimations per component (suspicion-based, with
    /// Dc exoneration), mirroring the static engine's §8.1 estimations.
    #[must_use]
    pub fn estimations(&self) -> Vec<FuzzyInterval> {
        self.comp_assumptions
            .iter()
            .map(|&a| {
                let s = self.atms.suspicion(a);
                if s > 0.0 {
                    let lo = (s - 0.1).max(0.0);
                    let hi = (s + 0.05).min(1.0);
                    FuzzyInterval::new(lo, hi, lo.min(0.05), (1.0 - hi).min(0.05))
                        .expect("estimation inside unit interval")
                } else if self.exoneration(a) >= 1.0 {
                    FuzzyInterval::new(0.0, 0.05, 0.0, 0.05).expect("static")
                } else {
                    FuzzyInterval::new(0.3, 0.5, 0.1, 0.1).expect("static")
                }
            })
            .collect()
    }

    /// Recommends the next best AC probe by expected fuzzy entropy (§8),
    /// ranked best first (a NaN score last, never a panic);
    /// `lambda_cost` weighs the probing cost in. Probed points are
    /// skipped.
    #[must_use]
    pub fn recommend(&self, lambda_cost: f64) -> Vec<(usize, f64)> {
        use flames_fuzzy::entropy::{expected_entropy, fuzzy_entropy};
        let estimations = self.estimations();
        let exonerated = FuzzyInterval::new(0.0, 0.05, 0.0, 0.05).expect("static");
        let suspect = FuzzyInterval::new(0.6, 0.8, 0.1, 0.1).expect("static");
        let mut out = Vec::new();
        for (idx, probe) in self.diagnoser.probes.iter().enumerate() {
            if self.measured[idx].is_some() {
                continue;
            }
            let in_cone: Vec<bool> = self
                .comp_assumptions
                .iter()
                .enumerate()
                .map(|(k, _)| probe.support.iter().any(|c| c.index() == k))
                .collect();
            let post_cons: Vec<FuzzyInterval> = estimations
                .iter()
                .enumerate()
                .map(|(k, e)| if in_cone[k] { exonerated } else { *e })
                .collect();
            let post_dev: Vec<FuzzyInterval> = estimations
                .iter()
                .enumerate()
                .map(|(k, e)| if in_cone[k] { e.max_ext(&suspect) } else { *e })
                .collect();
            let ent_cons = fuzzy_entropy(&post_cons).unwrap_or_else(|_| FuzzyInterval::crisp(0.0));
            let ent_dev = fuzzy_entropy(&post_dev).unwrap_or_else(|_| FuzzyInterval::crisp(0.0));
            let total_mass: f64 = estimations.iter().map(FuzzyInterval::centroid).sum();
            let cone_mass: f64 = estimations
                .iter()
                .enumerate()
                .filter(|(k, _)| in_cone[*k])
                .map(|(_, e)| e.centroid())
                .sum();
            let w_dev = if total_mass > 0.0 {
                (cone_mass / total_mass).clamp(0.05, 0.95)
            } else {
                0.5
            };
            let expected = expected_entropy(&[(1.0 - w_dev, ent_cons), (w_dev, ent_dev)]);
            out.push((idx, expected.centroid() + lambda_cost * probe.cost));
        }
        out.sort_by(|a, b| a.1.total_cmp(&b.1));
        out
    }
}

impl fmt::Display for AcSession<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "probes:")?;
        for (idx, probe) in self.diagnoser.probes.iter().enumerate() {
            match self.measured[idx] {
                Some(m) => {
                    let dc = Consistency::between(&m, &self.diagnoser.predictions[idx]);
                    writeln!(
                        f,
                        "  {:<12} predicted {:.3}  measured {:.3}  Dc = {dc}",
                        probe.name, self.diagnoser.predictions[idx], m
                    )?;
                }
                None => writeln!(
                    f,
                    "  {:<12} predicted {:.3}  (not probed)",
                    probe.name, self.diagnoser.predictions[idx]
                )?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flames_circuit::circuits::bandpass;

    fn probes_for(bp: &flames_circuit::circuits::Bandpass) -> Vec<AcProbe> {
        let hp = vec![bp.c1, bp.r1];
        let mut all = hp.clone();
        all.extend([bp.amp, bp.r2, bp.c2]);
        vec![
            AcProbe::new(bp.n1, 1e3, "n1@1k", hp.clone()),
            AcProbe::new(bp.out, 3e3, "out@3k", all.clone()),
            AcProbe::new(bp.out, 10e3, "out@10k", all),
        ]
    }

    #[test]
    fn healthy_board_is_consistent_at_all_probes() {
        let bp = bandpass(0.05);
        let d = AcDiagnoser::new(&bp.netlist, bp.input, 1.0, probes_for(&bp)).unwrap();
        let mut s = d.session();
        for (k, probe) in d.probes().iter().enumerate() {
            let reading = d.read_probe(&bp.netlist, k, 0.01).unwrap();
            s.measure(&probe.name.clone(), reading).unwrap();
        }
        assert!(s.atms().nogoods().is_empty(), "{s}");
        assert!(s.candidates(2, 16).is_empty());
    }

    #[test]
    fn pole_shift_is_caught_and_localized() {
        // C2 at 3× its value pulls the upper corner from 10 kHz to ~3 kHz:
        // out@10k collapses, n1@1k (the high-pass side) stays healthy.
        let bp = bandpass(0.05);
        let d = AcDiagnoser::new(&bp.netlist, bp.input, 1.0, probes_for(&bp)).unwrap();
        let bad = inject_faults(&bp.netlist, &[(bp.c2, Fault::ParamFactor(3.0))]).unwrap();
        let mut s = d.session();
        for (k, probe) in d.probes().iter().enumerate() {
            let reading = d.read_probe(&bad, k, 0.01).unwrap();
            s.measure(&probe.name.clone(), reading).unwrap();
        }
        let dc_hp = s.consistency("n1@1k").unwrap();
        let dc_10k = s.consistency("out@10k").unwrap();
        assert!(dc_hp.is_consistent(), "{s}");
        assert!(dc_10k.degree() < 0.5, "{s}");
        // The refinement implicates the low-pass cone; the consistent
        // high-pass probe exonerates C1/R1.
        let refined = s.refined_candidates(16, 0.5);
        assert!(!refined.is_empty());
        let top: Vec<&str> = refined
            .iter()
            .take(3)
            .flat_map(|c| c.members.iter().map(String::as_str))
            .collect();
        assert!(
            top.contains(&"C2") || top.contains(&"R2") || top.contains(&"A"),
            "{refined:?}"
        );
        let c1 = refined.iter().find(|c| c.members[0] == "C1").unwrap();
        let c2 = refined.iter().find(|c| c.members[0] == "C2").unwrap();
        assert!(c2.degree > c1.degree, "{refined:?}");
    }

    #[test]
    fn open_coupling_cap_kills_everything() {
        let bp = bandpass(0.05);
        let d = AcDiagnoser::new(&bp.netlist, bp.input, 1.0, probes_for(&bp)).unwrap();
        let bad = inject_faults(&bp.netlist, &[(bp.c1, Fault::Open)]).unwrap();
        let mut s = d.session();
        for (k, probe) in d.probes().iter().enumerate() {
            let reading = d.read_probe(&bad, k, 0.01).unwrap();
            s.measure(&probe.name.clone(), reading).unwrap();
        }
        // Every probe conflicts totally; the common cone {C1, R1} wins.
        let cands = s.candidates(1, 16);
        let names: Vec<&str> = cands
            .iter()
            .flat_map(|c| c.members.iter().map(String::as_str))
            .collect();
        assert!(names.contains(&"C1"), "{names:?}");
        assert!(names.contains(&"R1"), "{names:?}");
        assert_eq!(cands[0].degree, 1.0);
    }

    #[test]
    fn recommendation_skips_probed_points_and_ranks() {
        let bp = bandpass(0.05);
        let d = AcDiagnoser::new(&bp.netlist, bp.input, 1.0, probes_for(&bp)).unwrap();
        let mut s = d.session();
        let all = s.recommend(0.0);
        assert_eq!(all.len(), 3);
        // Scores ascend.
        for w in all.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-12);
        }
        let first = all[0].0;
        let name = d.probes()[first].name.clone();
        let reading = d.read_probe(&bp.netlist, first, 0.01).unwrap();
        s.measure(&name, reading).unwrap();
        let rest = s.recommend(0.0);
        assert_eq!(rest.len(), 2);
        assert!(rest.iter().all(|(idx, _)| *idx != first));
        assert_eq!(s.probed().iter().filter(|p| **p).count(), 1);
    }

    #[test]
    fn recommend_orders_nan_scores_without_panicking() {
        let bp = bandpass(0.05);
        let mut probes = probes_for(&bp);
        probes[1].cost = f64::NAN;
        let d = AcDiagnoser::new(&bp.netlist, bp.input, 1.0, probes).unwrap();
        let ranked = d.session().recommend(1.0);
        assert_eq!(ranked[2].0, 1, "a NaN score ranks last: {ranked:?}");
        assert!(ranked[2].1.is_nan());
    }

    #[test]
    fn unknown_probe_is_an_error() {
        let bp = bandpass(0.05);
        let d = AcDiagnoser::new(&bp.netlist, bp.input, 1.0, probes_for(&bp)).unwrap();
        let mut s = d.session();
        assert!(s.measure("nope", FuzzyInterval::crisp(0.0)).is_err());
        assert!(s.consistency("nope").is_none());
        assert_eq!(d.prediction(0).core_midpoint(), d.prediction(0).core_lo());
    }

    #[test]
    fn phase_probes_see_the_pole_shift() {
        // At the nominal upper corner the low-pass contributes −45°; with
        // C2 tripled the corner sits a third lower and the phase at 10 kHz
        // swings well past −70°, while a far-below-corner phase probe
        // stays consistent.
        let bp = bandpass(0.05);
        let lp_cone = vec![bp.c1, bp.r1, bp.amp, bp.r2, bp.c2];
        let probes = vec![
            AcProbe::phase(bp.out, 10e3, "ph(out)@10k", lp_cone.clone()),
            AcProbe::phase(bp.n1, 10e3, "ph(n1)@10k", vec![bp.c1, bp.r1]),
        ];
        let d = AcDiagnoser::new(&bp.netlist, bp.input, 1.0, probes).unwrap();
        let bad = inject_faults(&bp.netlist, &[(bp.c2, Fault::ParamFactor(3.0))]).unwrap();
        let mut s = d.session();
        for (k, probe) in d.probes().iter().enumerate() {
            // A phase meter good to ±0.36° — narrower than the tolerance
            // band, as the asymmetric Dc requires of its measurement side.
            let reading = d.read_probe(&bad, k, 0.002).unwrap();
            s.measure(&probe.name.clone(), reading).unwrap();
        }
        let dc_out = s.consistency("ph(out)@10k").unwrap();
        let dc_n1 = s.consistency("ph(n1)@10k").unwrap();
        assert!(dc_out.degree() < 0.5, "{s}");
        assert!(dc_n1.is_consistent(), "{s}");
        let cands = s.candidates(1, 16);
        let names: Vec<&str> = cands
            .iter()
            .flat_map(|c| c.members.iter().map(String::as_str))
            .collect();
        assert!(names.contains(&"C2"), "{names:?}");
    }

    #[test]
    fn session_display_renders() {
        let bp = bandpass(0.05);
        let d = AcDiagnoser::new(&bp.netlist, bp.input, 1.0, probes_for(&bp)).unwrap();
        let mut s = d.session();
        let reading = d.read_probe(&bp.netlist, 0, 0.01).unwrap();
        s.measure("n1@1k", reading).unwrap();
        let text = format!("{s}");
        assert!(text.contains("n1@1k"));
        assert!(text.contains("not probed"));
    }
}
