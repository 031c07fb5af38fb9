//! Differential fuzzy-vs-crisp harness.
//!
//! On *rectangular* inputs — component tolerances extracted as crisp
//! interval width (`ExtractOptions::interval_tolerance`), rectangular
//! predictions, and crisp-interval measurements — the fuzzy engine's
//! possibility degrees collapse to {0, 1}: every coincidence is either
//! fully consistent or a total conflict, exactly the boolean
//! empty-intersection test the DIANA-style crisp engine runs. Since
//! both engines execute the same [`flames::circuit::constraint`]
//! schedule with the same caps, their nogood stores and candidate
//! lattices must then be *identical* — any divergence is a bug in one
//! of the mirrored propagators.
//!
//! Real (nonzero) tolerances matter here: with exact point seeds,
//! different floating-point derivation paths of the same nominal value
//! differ at the last ulp and raise *spurious* hairline conflicts whose
//! cap-eviction tie-breaking legitimately differs between the engines.
//! Interval widths of a few percent swamp that noise.
//!
//! The harness generates seeded random resistor/diode ladders
//! (SplitMix64), injects parametric drifts and shorts, measures every
//! internal node on the (faulted) board, and cross-checks the two
//! engines on ≥ 200 boards. Every 10th board additionally cross-checks
//! the compiled serving path against [`Diagnoser::cold_session`] and a
//! pooled session, down to byte-identical diagnosis traces.

use flames::circuit::constraint::{extract, ExtractOptions, QuantityId};
use flames::circuit::fault::inject_faults;
use flames::circuit::predict::{nominal_predictions, TestPoint};
use flames::circuit::solve::solve_dc;
use flames::circuit::{CompId, Fault, Net, Netlist};
use flames::core::{diagnose_batch_lanes, Board, Diagnoser, DiagnoserConfig, SessionPool};
use flames::crisp::{CrispConfig, CrispPropagator, Interval};
use flames::fuzzy::FuzzyInterval;
use flames_bench::rng::SplitMix64;

const MEASURE_IMPRECISION: f64 = 0.05;

/// A generated circuit: netlist, test points, and the components that
/// may be faulted.
struct Generated {
    netlist: Netlist,
    test_points: Vec<TestPoint>,
    fault_sites: Vec<CompId>,
}

/// A random 2–4 section ladder with 2–8 % resistor tolerances. Each
/// section is `prev —Rs— node` with a shunt to ground that is either a
/// plain resistor or (one section in three) a diode-plus-resistor
/// branch, so the generator exercises both the linear and the piecewise
/// solver paths.
fn random_ladder(rng: &mut SplitMix64) -> Generated {
    let sections = 2 + rng.below(3) as usize;
    let mut nl = Netlist::new();
    let vin = nl.add_net("vin");
    nl.add_voltage_source("Vin", vin, Net::GROUND, rng.range_f64(6.0, 12.0))
        .expect("fresh name");
    let mut prev = vin;
    let mut cone: Vec<CompId> = Vec::new();
    let mut fault_sites = Vec::new();
    let mut test_points = Vec::new();
    for k in 1..=sections {
        let node = nl.add_net(format!("n{k}"));
        let rs = nl
            .add_resistor(
                format!("Rs{k}"),
                prev,
                node,
                rng.range_f64(500.0, 4000.0),
                rng.range_f64(0.02, 0.08),
            )
            .expect("fresh name");
        cone.push(rs);
        fault_sites.push(rs);
        if rng.below(3) == 0 {
            // Diode branch: node —D— mid —Rp— gnd.
            let mid = nl.add_net(format!("m{k}"));
            let d = nl
                .add_diode(format!("D{k}"), node, mid, rng.range_f64(0.2, 0.7), 0.0)
                .expect("fresh name");
            let rp = nl
                .add_resistor(
                    format!("Rp{k}"),
                    mid,
                    Net::GROUND,
                    rng.range_f64(1000.0, 8000.0),
                    rng.range_f64(0.02, 0.08),
                )
                .expect("fresh name");
            cone.push(d);
            cone.push(rp);
            fault_sites.push(rp);
        } else {
            let rp = nl
                .add_resistor(
                    format!("Rp{k}"),
                    node,
                    Net::GROUND,
                    rng.range_f64(1000.0, 8000.0),
                    rng.range_f64(0.02, 0.08),
                )
                .expect("fresh name");
            cone.push(rp);
            fault_sites.push(rp);
        }
        test_points.push(TestPoint::new(node, format!("V{k}"), cone.clone()));
        prev = node;
    }
    Generated {
        netlist: nl,
        test_points,
        fault_sites,
    }
}

/// A board variant: healthy, drifted, or shorted.
fn random_board(g: &Generated, rng: &mut SplitMix64, i: usize) -> Option<Netlist> {
    if i == 0 {
        return Some(g.netlist.clone());
    }
    let site = g.fault_sites[rng.below(g.fault_sites.len() as u64) as usize];
    let fault = match rng.below(4) {
        0 => Fault::Short,
        1 => Fault::ParamFactor(rng.range_f64(0.2, 0.7)),
        _ => Fault::ParamFactor(rng.range_f64(1.4, 4.0)),
    };
    inject_faults(&g.netlist, &[(site, fault)]).ok()
}

/// Sorted, rendered nogood environments of the fuzzy engine — also
/// asserts that on rectangular inputs every graded nogood is total
/// (degree 1).
fn fuzzy_nogoods(session: &flames::core::Session<'_>) -> Vec<String> {
    let prop = session.propagator();
    let mut out: Vec<String> = prop
        .atms()
        .nogoods()
        .iter()
        .map(|n| {
            assert!(
                (n.degree - 1.0).abs() < 1e-12,
                "rectangular inputs admit only total conflicts, got degree {}",
                n.degree
            );
            prop.pool().render(n.env.iter())
        })
        .collect();
    out.sort();
    out
}

fn fuzzy_candidates(session: &flames::core::Session<'_>) -> Vec<String> {
    let prop = session.propagator();
    let mut out: Vec<String> = session
        .candidates(3, 4096)
        .iter()
        .map(|c| prop.pool().render(c.env.iter()))
        .collect();
    out.sort();
    out
}

fn crisp_nogoods(crisp: &CrispPropagator<'_>) -> Vec<String> {
    let mut out: Vec<String> = crisp
        .atms()
        .nogoods()
        .iter()
        .map(|env| crisp.pool().render(env.iter()))
        .collect();
    out.sort();
    out
}

fn crisp_candidates(crisp: &CrispPropagator<'_>) -> Vec<String> {
    let mut out: Vec<String> = crisp
        .candidates(3, 4096)
        .iter()
        .map(|env| crisp.pool().render(env.iter()))
        .collect();
    out.sort();
    out
}

#[test]
fn fuzzy_equals_crisp_on_200_rectangular_boards() {
    let mut rng = SplitMix64::new(0xD1FF_2026);
    let mut boards_checked = 0usize;
    let mut conflicting_boards = 0usize;
    let mut circuit_idx = 0usize;
    while boards_checked < 200 {
        circuit_idx += 1;
        let g = random_ladder(&mut rng);
        // Rectangular model: tolerances become crisp interval width, and
        // the corner-analysis prediction spreads are flattened onto
        // their supports, so the whole model is width-only.
        let opts = ExtractOptions {
            interval_tolerance: true,
            ..ExtractOptions::default()
        };
        let nets: Vec<Net> = g.test_points.iter().map(|tp| tp.net).collect();
        let predictions: Vec<FuzzyInterval> = nominal_predictions(&g.netlist, &nets)
            .expect("nominal ladder solves")
            .iter()
            .map(|p| {
                let (lo, hi) = p.support();
                FuzzyInterval::crisp_interval(lo, hi).expect("finite prediction")
            })
            .collect();
        let diagnoser = Diagnoser::from_network(
            &g.netlist,
            extract(&g.netlist, opts),
            g.test_points.clone(),
            predictions,
            DiagnoserConfig {
                extract: opts,
                ..DiagnoserConfig::default()
            },
        );
        let network = diagnoser.network();
        let point_quantities: Vec<QuantityId> = g
            .test_points
            .iter()
            .map(|tp| network.voltage_quantity(tp.net))
            .collect();
        let mut pool = SessionPool::new(&diagnoser);
        let mut batch_boards: Vec<Board> = Vec::new();
        for i in 0..5 {
            let Some(board) = random_board(&g, &mut rng, i) else {
                continue;
            };
            // Rectangular readings: a crisp interval ±imprecision
            // around the board's DC solution. (`measure`'s `widened`
            // would add *fuzzy spreads* instead, which is exactly what
            // this harness must exclude.)
            let Ok(op) = solve_dc(&board) else {
                continue; // faulted board does not solve
            };
            let readings: Vec<FuzzyInterval> = g
                .test_points
                .iter()
                .map(|tp| {
                    let v = op.voltage(tp.net);
                    FuzzyInterval::crisp_interval(v - MEASURE_IMPRECISION, v + MEASURE_IMPRECISION)
                        .expect("finite reading")
                })
                .collect();

            // Fuzzy: compiled serving path.
            let mut session = diagnoser.session();
            for (idx, r) in readings.iter().enumerate() {
                session.measure_point(idx, *r).expect("valid point");
            }
            session.propagate();

            // Crisp: same Network instance, same phase order as the
            // fuzzy path (predictions to fixpoint, then observations).
            let mut crisp = CrispPropagator::new(&g.netlist, network, CrispConfig::default());
            for (idx, tp) in g.test_points.iter().enumerate() {
                crisp.predict(
                    point_quantities[idx],
                    Interval::from(*diagnoser.prediction(idx)),
                    &tp.support,
                );
            }
            crisp.run();
            for (idx, r) in readings.iter().enumerate() {
                crisp.observe(point_quantities[idx], Interval::from(*r));
            }
            crisp.run();

            // Classification parity: no graded (partial) conflict may
            // appear on rectangular inputs.
            use flames::core::propagation::CoincidenceKind;
            assert!(
                session
                    .coincidences()
                    .iter()
                    .all(|c| c.kind != CoincidenceKind::PartialConflict),
                "circuit {circuit_idx} board {i}: partial conflict on rectangular inputs"
            );

            let fn_ = fuzzy_nogoods(&session);
            let cn = crisp_nogoods(&crisp);
            assert_eq!(
                fn_, cn,
                "circuit {circuit_idx} board {i}: nogood sets diverge"
            );
            let fc = fuzzy_candidates(&session);
            let cc = crisp_candidates(&crisp);
            assert_eq!(
                fc, cc,
                "circuit {circuit_idx} board {i}: candidate sets diverge"
            );
            if !fn_.is_empty() {
                conflicting_boards += 1;
            }

            // Serving-path cross-check on a sample of boards: the cold
            // (legacy rebuild) and pooled paths must match the compiled
            // session down to the exported diagnosis trace bytes.
            if boards_checked.is_multiple_of(10) {
                fn run<'d>(
                    readings: &[FuzzyInterval],
                    mut s: flames::core::Session<'d>,
                ) -> (String, String, flames::core::Session<'d>) {
                    for (idx, r) in readings.iter().enumerate() {
                        s.measure_point(idx, *r).expect("valid point");
                    }
                    s.propagate();
                    (format!("{:?}", s.report()), s.trace().to_chrome_json(), s)
                }
                let reference = (
                    format!("{:?}", session.report()),
                    session.trace().to_chrome_json(),
                );
                let (cold_report, cold_trace, _) = run(&readings, diagnoser.cold_session());
                assert_eq!(cold_report, reference.0, "cold report diverges");
                assert_eq!(cold_trace, reference.1, "cold trace diverges");
                let (warm_report, warm_trace, warm) = run(&readings, pool.acquire());
                assert_eq!(warm_report, reference.0, "pooled report diverges");
                assert_eq!(warm_trace, reference.1, "pooled trace diverges");
                pool.release(warm);
            }
            batch_boards.push(readings.iter().copied().enumerate().collect());
            boards_checked += 1;
        }
        // Batch serving on this circuit's random fleet: spreading the
        // boards over worker threads must stay byte-identical to one
        // worker, for any thread count.
        if !batch_boards.is_empty() {
            let reference = format!(
                "{:?}",
                diagnose_batch_lanes(&diagnoser, &batch_boards, 1).expect("batch runs")
            );
            for threads in [2, 3, 8] {
                let batch =
                    diagnose_batch_lanes(&diagnoser, &batch_boards, threads).expect("batch runs");
                assert_eq!(
                    format!("{batch:?}"),
                    reference,
                    "circuit {circuit_idx}: {threads}-thread batch diverges from one thread"
                );
            }
        }
    }
    assert!(boards_checked >= 200);
    // The workload must actually exercise the conflict machinery, not
    // just healthy boards.
    assert!(
        conflicting_boards >= 40,
        "only {conflicting_boards} of {boards_checked} boards raised conflicts"
    );
}
