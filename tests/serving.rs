//! Serving-path determinism: the compile-once/serve-many refactor must
//! never change a diagnosis. Batch runs (any thread count), warm
//! reused sessions, and cold sessions (live seed fixpoint) all have to
//! produce reports byte-identical to a fresh sequential session per
//! board — on the paper's Fig. 6 three-stage amplifier and Fig. 5 diode
//! network.

use flames::circuit::circuits::{diode_net, three_stage};
use flames::circuit::constraint::Network;
use flames::circuit::fault::inject_faults;
use flames::circuit::predict::{measure, nominal_predictions, TestPoint};
use flames::circuit::{Fault, Netlist};
use flames::core::{
    diagnose_batch_lanes, diagnose_batch_lanes_cached, Board, CacheConfig, CompiledModel,
    Diagnoser, DiagnoserConfig, Report, RuleStore, Session,
};

// The compiled model and its inputs must be shareable across threads —
// checked at compile time, not at run time.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<CompiledModel>();
const _: () = assert_send_sync::<Netlist>();
const _: () = assert_send_sync::<Network>();

/// The Fig. 6 amplifier with a small fleet of boards: one healthy, three
/// with a single drifted resistor each. Every board probes V1, V2, Vs.
fn three_stage_fleet() -> (Diagnoser, Vec<Board>) {
    let ts = three_stage(0.05);
    let diagnoser = Diagnoser::from_netlist(
        &ts.netlist,
        ts.test_points.clone(),
        DiagnoserConfig::default(),
    )
    .expect("three-stage model compiles");
    let variants = [
        None,
        Some((ts.r2, 1.3)),
        Some((ts.r4, 0.8)),
        Some((ts.r5, 1.25)),
    ];
    let boards = variants
        .iter()
        .map(|fault| {
            let netlist = match fault {
                Some((comp, factor)) => {
                    inject_faults(&ts.netlist, &[(*comp, Fault::ParamFactor(*factor))])
                        .expect("drift injection")
                }
                None => ts.netlist.clone(),
            };
            ts.test_points
                .iter()
                .enumerate()
                .map(|(idx, tp)| (idx, measure(&netlist, tp.net, 0.02).expect("board solves")))
                .collect()
        })
        .collect();
    (diagnoser, boards)
}

/// The Fig. 5 diode network (spec installed): a healthy board and one
/// with r2 low enough to push the diode past its 100 µA rating.
fn diode_fleet() -> (Diagnoser, Vec<Board>) {
    let dn = diode_net();
    let points = vec![
        TestPoint::new(dn.n1, "Vn1", vec![dn.r1, dn.d1]),
        TestPoint::new(dn.n2, "Vn2", vec![dn.r1, dn.d1, dn.r2]),
    ];
    let predictions =
        nominal_predictions(&dn.netlist, &[dn.n1, dn.n2]).expect("nominal predictions");
    let diagnoser = Diagnoser::from_network(
        &dn.netlist,
        dn.network.clone(),
        points,
        predictions,
        DiagnoserConfig::default(),
    );
    let nets = [dn.n1, dn.n2];
    let boards = [None, Some((dn.r2, 0.2))]
        .iter()
        .map(|fault| {
            let netlist = match fault {
                Some((comp, factor)) => {
                    inject_faults(&dn.netlist, &[(*comp, Fault::ParamFactor(*factor))])
                        .expect("fault injection")
                }
                None => dn.netlist.clone(),
            };
            nets.iter()
                .enumerate()
                .map(|(idx, net)| (idx, measure(&netlist, *net, 0.01).expect("board solves")))
                .collect()
        })
        .collect();
    (diagnoser, boards)
}

/// Ground truth: a fresh session per board, sequentially.
fn sequential(diagnoser: &Diagnoser, boards: &[Board]) -> Vec<Report> {
    boards
        .iter()
        .map(|board| {
            let mut session = diagnoser.session();
            for &(idx, value) in board {
                session.measure_point(idx, value).expect("valid point");
            }
            session.propagate();
            session.report()
        })
        .collect()
}

fn assert_warm_reuse_matches(diagnoser: &Diagnoser, boards: &[Board]) {
    let reference = sequential(diagnoser, boards);
    let mut session = diagnoser.session();
    for (board, expected) in boards.iter().zip(&reference) {
        for &(idx, value) in board {
            session.measure_point(idx, value).expect("valid point");
        }
        session.propagate();
        let report = session.report();
        assert_eq!(
            format!("{report:?}"),
            format!("{expected:?}"),
            "a warm reused session must match a fresh one"
        );
        session.reset();
    }
}

fn assert_batch_matches(diagnoser: &Diagnoser, boards: &[Board]) {
    let reference = format!("{:?}", sequential(diagnoser, boards));
    for threads in [1, 2, 3, 8] {
        let batch = diagnose_batch_lanes(diagnoser, boards, threads).expect("batch runs");
        assert_eq!(
            format!("{batch:?}"),
            reference,
            "{threads}-thread batch must be byte-identical to sequential"
        );
    }
}

/// The lane entry points that outlived the board-lane agenda —
/// [`Session::propagate_lane`] over groups of warm sessions, and the
/// cached batch's lane-width argument over a cold store — must still
/// give reports byte-identical to sequential sessions at every width.
fn assert_lanes_match(diagnoser: &Diagnoser, boards: &[Board], lane_widths: &[usize]) {
    let reference = format!("{:?}", sequential(diagnoser, boards));
    let store = RuleStore::new();
    let cold = CacheConfig {
        learn: false,
        ..CacheConfig::default()
    };
    for &lane_width in lane_widths {
        let mut reports = Vec::new();
        for lane in boards.chunks(lane_width) {
            let mut sessions: Vec<Session<'_>> = lane
                .iter()
                .map(|board| {
                    let mut session = diagnoser.session();
                    for &(idx, value) in board {
                        session.measure_point(idx, value).expect("valid point");
                    }
                    session
                })
                .collect();
            let mut refs: Vec<&mut Session<'_>> = sessions.iter_mut().collect();
            let steps = Session::propagate_lane(&mut refs);
            assert_eq!(steps.len(), lane.len(), "one step count per session");
            reports.extend(sessions.iter().map(Session::report));
        }
        assert_eq!(
            format!("{reports:?}"),
            reference,
            "lane-{lane_width} propagation must be byte-identical to sequential"
        );
        for threads in [1, 2, 3, 8] {
            let cached =
                diagnose_batch_lanes_cached(diagnoser, &store, &cold, boards, threads, lane_width)
                    .expect("cached batch runs");
            assert!(
                cached.iter().all(|c| c.provenance.is_none()),
                "a cold store cannot hit"
            );
            let cached: Vec<Report> = cached.into_iter().map(|c| c.report).collect();
            assert_eq!(
                format!("{cached:?}"),
                reference,
                "{threads}-thread lane-{lane_width} cached batch must be byte-identical to sequential"
            );
        }
    }
}

#[test]
fn batch_is_deterministic_on_three_stage() {
    let (diagnoser, boards) = three_stage_fleet();
    let reports = sequential(&diagnoser, &boards);
    assert!(
        reports.iter().skip(1).all(|r| !r.nogoods.is_empty()),
        "drifted boards must raise conflicts"
    );
    assert_batch_matches(&diagnoser, &boards);
}

#[test]
fn batch_is_deterministic_on_diode_net() {
    let (diagnoser, boards) = diode_fleet();
    let reports = sequential(&diagnoser, &boards);
    assert!(
        !reports[1].nogoods.is_empty(),
        "the overcurrent board must raise conflicts"
    );
    assert_batch_matches(&diagnoser, &boards);
}

#[test]
fn warm_reuse_is_deterministic_on_three_stage() {
    let (diagnoser, boards) = three_stage_fleet();
    assert_warm_reuse_matches(&diagnoser, &boards);
}

#[test]
fn warm_reuse_is_deterministic_on_diode_net() {
    let (diagnoser, boards) = diode_fleet();
    assert_warm_reuse_matches(&diagnoser, &boards);
}

#[test]
fn lane_batches_are_deterministic_on_three_stage() {
    let (diagnoser, boards) = three_stage_fleet();
    assert_lanes_match(&diagnoser, &boards, &[2, 3, 64]);
}

#[test]
fn lane_batches_are_deterministic_on_diode_net() {
    let (diagnoser, boards) = diode_fleet();
    assert_lanes_match(&diagnoser, &boards, &[2, 3, 64]);
}

#[test]
fn cold_sessions_match_compiled_sessions() {
    let (diagnoser, boards) = three_stage_fleet();
    let reference = sequential(&diagnoser, &boards);
    let cold: Vec<Report> = boards
        .iter()
        .map(|board| {
            let mut session = diagnoser.cold_session();
            for &(idx, value) in board {
                session.measure_point(idx, value).expect("valid point");
            }
            session.propagate();
            session.report()
        })
        .collect();
    assert_eq!(
        format!("{cold:?}"),
        format!("{reference:?}"),
        "the live seed fixpoint must match the snapshot restore"
    );
}

/// The serving paths must agree beyond the `Report`: the exported
/// diagnosis trace — every propagation wave, coincidence, nogood and
/// candidate, in order — has to be byte-identical whether a board was
/// diagnosed on a fresh compiled session, a cold (live seed fixpoint)
/// session, or a pooled warm session. The trace clock is logical
/// (derivation order), which is what makes byte equality meaningful.
#[test]
fn diagnosis_traces_agree_across_serving_paths() {
    let (diagnoser, boards) = three_stage_fleet();
    let mut pool = flames::core::SessionPool::new(&diagnoser);
    fn drive<'d>(
        board: &Board,
        mut session: flames::core::Session<'d>,
    ) -> (String, flames::core::Session<'d>) {
        for &(idx, value) in board {
            session.measure_point(idx, value).expect("valid point");
        }
        session.propagate();
        (session.trace().to_chrome_json(), session)
    }
    for (b, board) in boards.iter().enumerate() {
        let (reference, _) = drive(board, diagnoser.session());
        let (cold, _) = drive(board, diagnoser.cold_session());
        assert_eq!(cold, reference, "board {b}: cold trace diverges");
        let (warm, session) = drive(board, pool.acquire());
        assert_eq!(warm, reference, "board {b}: pooled trace diverges");
        pool.release(session);
    }
}
