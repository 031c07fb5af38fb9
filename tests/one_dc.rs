//! One degree of consistency: every place a board's measured points are
//! graded — the session report, `Session::consistency`, the rule-hit
//! report, the sharded report and the rule store's symptom discretizer —
//! must return **bit for bit** the closed form `Consistency::between`
//! (paper §6.1.2), on readings chosen to sit where two algorithms for
//! the same area quotient would round apart: crisp points, zero-spread
//! flanks, near-copies of the prediction and extreme finite magnitudes.

use flames::circuit::circuits::three_stage;
use flames::circuit::constraint::{extract, ExtractOptions};
use flames::core::learning::symptoms_of;
use flames::core::propagation::PropagatorConfig;
use flames::core::{
    board_symptoms, rule_hit_report, Board, Diagnoser, DiagnoserConfig, PointReport,
    RuleProvenance, ShardedModel,
};
use flames::fuzzy::{Consistency, FuzzyInterval};
use flames_bench::rng::SplitMix64;

/// Boards in the seeded corpus (three measured points each).
const BOARDS: usize = 400;

/// One corner-mix reading around the prediction `p`.
fn corner_reading(rng: &mut SplitMix64, p: &FuzzyInterval) -> FuzzyInterval {
    let mid = p.core_midpoint();
    let scale = p.support_width().max(1e-3);
    let shift = rng.range_f64(-1.5, 1.5) * scale;
    let spread = |rng: &mut SplitMix64| rng.range_f64(0.0, 0.5) * scale;
    let fi = |m1: f64, m2: f64, a: f64, b: f64| FuzzyInterval::new(m1, m2, a, b).unwrap();
    match rng.next_u64() % 7 {
        // A crisp point on or near the prediction's ramps.
        0 => FuzzyInterval::crisp(mid + shift),
        // Zero-spread flanks: one vertical edge.
        1 => fi(mid + shift, mid + shift + spread(rng), 0.0, spread(rng)),
        2 => fi(mid + shift, mid + shift + spread(rng), spread(rng), 0.0),
        // A crisp interval.
        3 => FuzzyInterval::crisp_interval(mid + shift, mid + shift + spread(rng)).unwrap(),
        // A near-copy of the prediction, shifted by a little.
        4 => {
            let d = rng.range_f64(-0.2, 0.2) * scale;
            fi(
                p.core_lo() + d,
                p.core_hi() + d,
                p.spread_left(),
                p.spread_right(),
            )
        }
        // Extreme finite magnitudes, huge or tiny, either sign.
        5 => {
            let sign = [1.0, -1.0][(rng.next_u64() % 2) as usize];
            let m: f64 = sign * [1e300, 1e-300, 1e150][(rng.next_u64() % 3) as usize];
            let s = m.abs() * rng.range_f64(0.0, 0.5);
            fi(m, m + s, s, rng.range_f64(0.0, 1.0) * m.abs())
        }
        // A random trapezoid near the prediction.
        _ => fi(
            mid + shift,
            mid + shift + spread(rng),
            spread(rng),
            spread(rng),
        ),
    }
}

fn assert_same(what: &str, board: usize, got: &Consistency, want: &Consistency) {
    assert!(
        got.degree().to_bits() == want.degree().to_bits() && got.direction() == want.direction(),
        "board {board}: {what} graded {got:?}, closed form {want:?}"
    );
}

fn grades(points: &[PointReport]) -> Vec<Consistency> {
    points.iter().filter_map(|p| p.consistency).collect()
}

#[test]
fn every_report_path_grades_with_the_closed_form() {
    let ts = three_stage(0.05);
    let diagnoser = Diagnoser::from_netlist(
        &ts.netlist,
        ts.test_points.clone(),
        DiagnoserConfig::default(),
    )
    .expect("three-stage model compiles");
    let predictions: Vec<FuzzyInterval> = (0..ts.test_points.len())
        .map(|i| *diagnoser.prediction(i))
        .collect();
    let sharded = ShardedModel::new(
        ts.netlist.clone(),
        extract(&ts.netlist, ExtractOptions::default()),
        ts.test_points.clone(),
        predictions.clone(),
        &vec![0; ts.netlist.component_count()],
        1,
        1,
        PropagatorConfig::default(),
    );
    let hit = RuleProvenance {
        culprit: "R2".to_owned(),
        mode: None,
        score: 0.9,
        certainty: 0.9,
        confirmations: 1,
        matched: 3,
        rule_size: 3,
        epoch: 1,
    };

    let mut rng = SplitMix64::new(0x0DC_2026);
    for b in 0..BOARDS {
        let board: Board = predictions
            .iter()
            .enumerate()
            .map(|(idx, p)| (idx, corner_reading(&mut rng, p)))
            .collect();
        let closed: Vec<Consistency> = board
            .iter()
            .map(|(idx, m)| Consistency::between(m, &predictions[*idx]))
            .collect();

        let mut session = diagnoser.session();
        let mut shard_session = sharded.session();
        for &(idx, m) in &board {
            session.measure_point(idx, m).expect("in-range point");
            shard_session.measure_point(idx, m).expect("in-range point");
        }
        let report = session.report();
        let paths = [
            ("Session::report", grades(&report.points)),
            (
                "rule_hit_report",
                grades(&rule_hit_report(&diagnoser, &board, &hit).points),
            ),
            (
                "ShardedSession::report",
                grades(&shard_session.report().points),
            ),
        ];
        for (i, want) in closed.iter().enumerate() {
            assert!(want.degree().is_finite(), "board {b}: {want:?}");
            for (what, got) in &paths {
                assert_same(what, b, &got[i], want);
            }
            let by_name = session
                .consistency(&ts.test_points[i].name)
                .expect("probed point");
            assert_same("Session::consistency", b, &by_name, want);
        }
        assert_eq!(
            board_symptoms(&diagnoser, &board).expect("in-range board"),
            symptoms_of(&report),
            "board {b}: rule-store symptoms differ from the report's"
        );
    }
}
