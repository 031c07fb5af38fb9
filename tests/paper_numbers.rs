//! Cross-crate checks of the numbers printed in the paper (Fig. 2, §4.2,
//! Fig. 5): the same scenarios exercised through the circuit substrate,
//! the fuzzy calculus and the ATMS together.

use flames::atms::hitting::minimal_hitting_sets;
use flames::atms::{Env, FuzzyAtms};
use flames::circuit::circuits::{amp_branch, diode_current_spec_micro_amps};
use flames::circuit::solve::solve_dc;
use flames::crisp::Interval;
use flames::fuzzy::FuzzyInterval;

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

#[test]
fn fig2_circuit_solver_agrees_with_fuzzy_cores() {
    // The DC solver's nominal voltages are the cores of the fuzzy values.
    let ab = amp_branch();
    let op = solve_dc(&ab.netlist).unwrap();
    assert!(close(op.voltage(ab.b), 3.0, 1e-6));
    assert!(close(op.voltage(ab.c), 6.0, 1e-6));
    assert!(close(op.voltage(ab.d), 9.0, 1e-6));
}

#[test]
fn fig2_fuzzy_rows_to_paper_precision() {
    let amp1 = FuzzyInterval::new(1.0, 1.0, 0.05, 0.05).unwrap();
    let amp2 = FuzzyInterval::new(2.0, 2.0, 0.05, 0.05).unwrap();
    let amp3 = FuzzyInterval::new(3.0, 3.0, 0.05, 0.05).unwrap();
    // Case (2), fuzzy input.
    let va = FuzzyInterval::new(3.0, 3.0, 0.05, 0.05).unwrap();
    let vb = va.mul(&amp1).unwrap();
    let vc = vb.mul(&amp2).unwrap();
    let vd = vb.mul(&amp3).unwrap();
    for (value, (alpha, beta)) in [(vb, (0.20, 0.20)), (vc, (0.54, 0.57)), (vd, (0.73, 0.77))] {
        assert!(close(value.spread_left(), alpha, 0.01), "{value}");
        assert!(close(value.spread_right(), beta, 0.01), "{value}");
    }
}

#[test]
fn sec42_crisp_masks_fuzzy_flags() {
    // Crisp back-propagation: Va = [2.96, 3.27] overlaps [2.95, 3.05].
    let va_crisp = Interval::point(5.6)
        .div(Interval::point(1.8))
        .unwrap()
        .div(Interval::new(0.95, 1.05))
        .unwrap();
    assert!(close(va_crisp.lo(), 2.96, 0.01));
    assert!(close(va_crisp.hi(), 3.27, 0.01));
    assert!(va_crisp.intersect(Interval::new(2.95, 3.05)).is_some());

    // Fuzzy: the nominal core has membership well below 1.
    let va_fuzzy = FuzzyInterval::crisp(5.6)
        .widened(0.05)
        .unwrap()
        .div(&FuzzyInterval::crisp(1.8))
        .unwrap()
        .div(&FuzzyInterval::new(1.0, 1.0, 0.05, 0.05).unwrap())
        .unwrap();
    let mu = va_fuzzy.membership(3.0);
    assert!(mu > 0.0 && mu < 0.6, "graded flag expected, got {mu}");
}

#[test]
fn fig5_degrees_and_candidates() {
    let spec = diode_current_spec_micro_amps();
    assert!(close(spec.membership(105.0), 0.5, 1e-9));
    assert!(close(spec.membership(200.0), 0.0, 1e-9));

    let mut atms = FuzzyAtms::new();
    let d1 = atms.add_assumption();
    let r1 = atms.add_assumption();
    let r2 = atms.add_assumption();
    atms.add_nogood(Env::from_assumptions([r1, d1]), 0.5);
    atms.add_nogood(Env::from_assumptions([r2, d1]), 1.0);

    // Classic candidate set: [d1] or [r1, r2].
    let envs: Vec<Env> = atms.nogoods().iter().map(|n| n.env.clone()).collect();
    let mut hs = minimal_hitting_sets(&envs, usize::MAX, 100);
    hs.sort_by_key(Env::len);
    assert_eq!(hs.len(), 2);
    assert_eq!(hs[0], Env::singleton(d1));
    assert_eq!(hs[1], Env::from_assumptions([r1, r2]));

    // Fuzzy ranking: [d1] @ 1 ahead of [r1, r2] @ 0.5.
    let ranked = atms.ranked_diagnoses(usize::MAX, 100);
    assert_eq!(ranked[0].env, Env::singleton(d1));
    assert!(close(ranked[0].degree, 1.0, 1e-9));
    assert!(close(ranked[1].degree, 0.5, 1e-9));
}

#[test]
fn fig1_uniform_representation() {
    // "This representation allows a crisp number, a crisp interval, a
    // fuzzy number, and a fuzzy interval to be uniformly described."
    let crisp_number = FuzzyInterval::crisp(3.0);
    let crisp_interval = FuzzyInterval::crisp_interval(2.95, 3.05).unwrap();
    let fuzzy_number = FuzzyInterval::fuzzy_number(3.0, 0.05, 0.05).unwrap();
    let fuzzy_interval = FuzzyInterval::new(2.95, 3.05, 0.05, 0.05).unwrap();
    assert!(crisp_number.is_point());
    assert!(crisp_interval.is_crisp() && !crisp_interval.is_point());
    assert!(!fuzzy_number.is_crisp());
    assert!(fuzzy_number.is_included_in(&fuzzy_interval));
    assert!(crisp_number.is_included_in(&fuzzy_number));
}
