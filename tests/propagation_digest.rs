//! Fixpoint digests: what propagation leaves behind on a fixed set of
//! boards — every quantity's label, the nogood store and the coincidence
//! list — hashed bit for bit and pinned to constants.
//!
//! The identity suites (`serving.rs`, `differential.rs`,
//! `sharded_boards.rs`, ...) compare two paths of one build against each
//! other; a change that moves both paths the same way passes them all.
//! These constants were captured from the engine before the full-label
//! conflict-only insert route existed, so they pin a performance change
//! to the fixpoint the engine computed without it. A deliberate change
//! of the fixpoint (new classification rule, new dominance rule) must
//! recapture them and say so.
//!
//! The capped and private-schedule digests also pin the agenda order:
//! each board runs a seed run and a measured incremental run on a bare
//! [`Propagator`] at step caps of 1 and 7, where the order the agenda
//! pops constraints decides which applications fit under the cap, and
//! once more on a private schedule built for that board alone. The step
//! counts of both runs are hashed with the fixpoint. These constants
//! were captured while the agenda still carried per-board lane masks,
//! and pin the one-board FIFO that replaced it to the same order.

use flames::atms::Env;
use flames::circuit::circuits::{hierarchy, three_stage, Hierarchy, HierarchySpec, ThreeStage};
use flames::circuit::constraint::{extract, ExtractOptions, Network, QuantityId};
use flames::circuit::fault::inject_faults;
use flames::circuit::predict::{measure, TestPoint};
use flames::circuit::{CompId, Fault, Netlist};
use flames::core::propagation::{CoincidenceKind, CompiledSchedule, Propagator, PropagatorConfig};
use flames::core::{Diagnoser, DiagnoserConfig};
use flames::fuzzy::{Direction, FuzzyInterval};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn env(&mut self, env: &Env) {
        self.word(env.len() as u64);
        for a in env.iter() {
            self.word(u64::from(a.0));
        }
    }
}

/// Digest of one propagated board: the step counts `steps` (none for a
/// session digest), labels of every quantity in id order, then the
/// nogoods, then the coincidence records.
fn digest(prop: &Propagator<'_>, quantities: usize, steps: &[usize]) -> u64 {
    let mut h = Fnv::new();
    for &n in steps {
        h.word(n as u64);
    }
    for q in 0..quantities {
        let entries = prop
            .entries(QuantityId::from_raw(q))
            .expect("quantity in range");
        h.word(entries.len() as u64);
        for e in &entries {
            h.f64(e.value.core_lo());
            h.f64(e.value.core_hi());
            h.f64(e.value.spread_left());
            h.f64(e.value.spread_right());
            h.env(&e.env);
            h.f64(e.degree);
            h.word(u64::from(e.measured));
        }
    }
    let nogoods = prop.atms().nogoods();
    h.word(nogoods.len() as u64);
    for n in nogoods {
        h.env(&n.env);
        h.f64(n.degree);
    }
    let records = prop.coincidences();
    h.word(records.len() as u64);
    for r in records {
        h.word(r.quantity.index() as u64);
        h.word(match r.kind {
            CoincidenceKind::Corroboration => 0,
            CoincidenceKind::Split => 1,
            CoincidenceKind::PartialConflict => 2,
            CoincidenceKind::TotalConflict => 3,
        });
        h.f64(r.consistency.degree());
        h.word(match r.consistency.direction() {
            Direction::Low => 0,
            Direction::Within => 1,
            Direction::High => 2,
        });
        h.env(&r.env);
    }
    h.0
}

/// One board under test: a name and its `(test-point index, reading)`
/// pairs.
type Readings = Vec<(usize, FuzzyInterval)>;

/// Measures a board's readings on a fresh session, propagates and
/// digests it.
fn run_board(diagnoser: &Diagnoser, readings: &Readings) -> u64 {
    let mut session = diagnoser.session();
    for &(idx, value) in readings {
        session.measure_point(idx, value).expect("valid point");
    }
    session.propagate();
    digest(
        session.propagator(),
        diagnoser.network().quantity_count(),
        &[],
    )
}

/// Runs a bare propagator twice — a seed run, then an incremental run
/// after observing the board's readings — and digests both step counts
/// with the fixpoint.
fn run_two_stage(
    mut prop: Propagator<'_>,
    network: &Network,
    test_points: &[TestPoint],
    readings: &Readings,
) -> u64 {
    let seeded = prop.run();
    for &(idx, value) in readings {
        let q = network.voltage_quantity(test_points[idx].net);
        prop.observe(q, value).expect("valid quantity");
    }
    let measured = prop.run();
    digest(&prop, network.quantity_count(), &[seeded, measured])
}

/// Every board through [`run_two_stage`] on a shared schedule at step
/// caps 1 and 7, then on a private schedule (one built for that board
/// alone) under `config`.
fn two_stage_digests(
    netlist: &Netlist,
    network: &Network,
    test_points: &[TestPoint],
    config: PropagatorConfig,
    boards: &[(String, Readings)],
) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for max_steps in [1, 7] {
        let capped = PropagatorConfig {
            max_steps,
            ..config
        };
        let schedule = CompiledSchedule::build(netlist, network, capped);
        for (name, readings) in boards {
            let prop = Propagator::with_schedule(network, &schedule, capped);
            out.push((
                format!("cap{max_steps} {name}"),
                run_two_stage(prop, network, test_points, readings),
            ));
        }
    }
    for (name, readings) in boards {
        let schedule = CompiledSchedule::build(netlist, network, config);
        let prop = Propagator::with_schedule(network, &schedule, config);
        out.push((
            format!("private {name}"),
            run_two_stage(prop, network, test_points, readings),
        ));
    }
    out
}

/// The three-stage amplifier's boards: healthy, each resistor drifted,
/// and one partial board.
fn three_stage_boards(ts: &ThreeStage) -> Vec<(String, Readings)> {
    let read = |drift: Option<(CompId, f64)>, points: &[usize]| {
        let netlist = match drift {
            Some((comp, factor)) => {
                inject_faults(&ts.netlist, &[(comp, Fault::ParamFactor(factor))])
                    .expect("drift injection")
            }
            None => ts.netlist.clone(),
        };
        points
            .iter()
            .map(|&idx| {
                let net = ts.test_points[idx].net;
                (idx, measure(&netlist, net, 0.02).expect("board solves"))
            })
            .collect::<Readings>()
    };
    let all = [0, 1, 2];
    let mut out = vec![("healthy".to_owned(), read(None, &all))];
    let resistors = [
        ("R1", ts.r1, 1.3),
        ("R2", ts.r2, 1.3),
        ("R3", ts.r3, 0.75),
        ("R4", ts.r4, 0.8),
        ("R5", ts.r5, 1.25),
        ("R6", ts.r6, 0.7),
    ];
    for (name, comp, factor) in resistors {
        out.push((format!("{name}x{factor}"), read(Some((comp, factor)), &all)));
    }
    // A partial board: V2 never probed.
    out.push((
        "R2x1.3 partial".to_owned(),
        read(Some((ts.r2, 1.3)), &[0, 2]),
    ));
    out
}

/// The small hierarchy's boards: three single drifts.
fn hierarchy_boards(h: &Hierarchy) -> Vec<(String, Readings)> {
    let drifts = [
        ("shunt1x1.15", h.backbone_shunt[1], 1.15),
        ("block2.2x1.25", h.blocks[2][2], 1.25),
        ("block0.1x0.8", h.blocks[0][1], 0.8),
    ];
    drifts
        .iter()
        .map(|&(name, comp, factor)| {
            let board = inject_faults(&h.netlist, &[(comp, Fault::ParamFactor(factor))])
                .expect("drift injection");
            let readings = h
                .readings(&board, 0.02)
                .expect("board solves")
                .into_iter()
                .enumerate()
                .collect();
            (name.to_owned(), readings)
        })
        .collect()
}

/// The hierarchy needs more than the default step budget to reach its
/// seed fixpoint.
fn hierarchy_config() -> PropagatorConfig {
    PropagatorConfig {
        max_steps: 5_000_000,
        ..PropagatorConfig::default()
    }
}

fn three_stage_digests() -> Vec<(String, u64)> {
    let ts = three_stage(0.05);
    let diagnoser = Diagnoser::from_netlist(
        &ts.netlist,
        ts.test_points.clone(),
        DiagnoserConfig::default(),
    )
    .expect("three-stage model compiles");
    three_stage_boards(&ts)
        .iter()
        .map(|(name, readings)| (name.clone(), run_board(&diagnoser, readings)))
        .collect()
}

fn hierarchy_digests() -> Vec<(String, u64)> {
    let h = hierarchy(HierarchySpec::small(7));
    let network = extract(&h.netlist, ExtractOptions::default());
    let diagnoser = Diagnoser::from_network(
        &h.netlist,
        network,
        h.test_points.clone(),
        h.predictions().expect("nominal predictions"),
        DiagnoserConfig {
            propagator: hierarchy_config(),
            ..DiagnoserConfig::default()
        },
    );
    hierarchy_boards(&h)
        .iter()
        .map(|(name, readings)| (name.clone(), run_board(&diagnoser, readings)))
        .collect()
}

fn assert_digests(got: &[(String, u64)], want: &[(&str, u64)]) {
    let got: Vec<(&str, u64)> = got.iter().map(|(n, d)| (n.as_str(), *d)).collect();
    assert_eq!(got, want, "propagation fixpoint moved; got {got:#018x?}");
}

#[test]
fn three_stage_fixpoints_match_the_captured_digests() {
    assert_digests(
        &three_stage_digests(),
        &[
            ("healthy", 0xc9f3_2447_f22a_d123),
            ("R1x1.3", 0xa9aa_8955_0773_9977),
            ("R2x1.3", 0x92d0_7501_4367_a7aa),
            ("R3x0.75", 0x3bed_b710_b23d_ea8f),
            ("R4x0.8", 0x769b_7d77_f8b8_f9e2),
            ("R5x1.25", 0x6d90_435e_ba37_1b58),
            ("R6x0.7", 0xc114_dff7_5545_6594),
            ("R2x1.3 partial", 0x85e3_d4e2_f7a9_d5d8),
        ],
    );
}

#[test]
fn hierarchy_fixpoints_match_the_captured_digests() {
    assert_digests(
        &hierarchy_digests(),
        &[
            ("shunt1x1.15", 0x50c7_cddd_54b6_4fbf),
            ("block2.2x1.25", 0x6f06_2db7_0b5f_012b),
            ("block0.1x0.8", 0xd9fa_1502_385c_255c),
        ],
    );
}

#[test]
fn three_stage_capped_and_private_runs_match_the_captured_digests() {
    let ts = three_stage(0.05);
    let network = extract(&ts.netlist, ExtractOptions::default());
    let got = two_stage_digests(
        &ts.netlist,
        &network,
        &ts.test_points,
        PropagatorConfig::default(),
        &three_stage_boards(&ts),
    );
    assert_digests(
        &got,
        &[
            ("cap1 healthy", 0xb8a0_5e2a_55b3_96b7),
            ("cap1 R1x1.3", 0xde9e_4fb7_374e_b98f),
            ("cap1 R2x1.3", 0x55d4_7c0a_5ff0_868f),
            ("cap1 R3x0.75", 0x8cf1_128a_0b3a_29b3),
            ("cap1 R4x0.8", 0xf5b4_b642_9d84_9193),
            ("cap1 R5x1.25", 0x29bc_cb64_b7c0_16ef),
            ("cap1 R6x0.7", 0x21cc_846a_9fbb_78db),
            ("cap1 R2x1.3 partial", 0x790e_1a4b_7f19_06d2),
            ("cap7 healthy", 0x780c_08d2_2cec_5a6d),
            ("cap7 R1x1.3", 0x78fd_7fc3_d09e_e7c5),
            ("cap7 R2x1.3", 0x9e55_accd_67ac_f772),
            ("cap7 R3x0.75", 0x1bb7_253e_e121_a7a1),
            ("cap7 R4x0.8", 0x7e1f_5420_47a0_a5e2),
            ("cap7 R5x1.25", 0xd13f_4104_8d9b_89a6),
            ("cap7 R6x0.7", 0xfa22_950c_2575_f2a9),
            ("cap7 R2x1.3 partial", 0xf155_e54d_9ca5_6fab),
            ("private healthy", 0xc737_c67f_5d0d_20f2),
            ("private R1x1.3", 0x75fe_24e7_2d32_7ac4),
            ("private R2x1.3", 0x3843_a28a_ca07_02d1),
            ("private R3x0.75", 0x7538_8755_ce6f_1a7a),
            ("private R4x0.8", 0x6008_e8f7_1246_41b2),
            ("private R5x1.25", 0x80f9_919c_56a0_129b),
            ("private R6x0.7", 0xd36d_54f7_d7dd_129b),
            ("private R2x1.3 partial", 0x4060_2e0b_214f_4f10),
        ],
    );
}

#[test]
fn hierarchy_capped_and_private_runs_match_the_captured_digests() {
    let h = hierarchy(HierarchySpec::small(7));
    let network = extract(&h.netlist, ExtractOptions::default());
    let got = two_stage_digests(
        &h.netlist,
        &network,
        &h.test_points,
        hierarchy_config(),
        &hierarchy_boards(&h),
    );
    assert_digests(
        &got,
        &[
            ("cap1 shunt1x1.15", 0xab03_cd6f_f8ff_8350),
            ("cap1 block2.2x1.25", 0x0367_98ed_923d_f450),
            ("cap1 block0.1x0.8", 0xc2a8_f895_a033_53d8),
            ("cap7 shunt1x1.15", 0x2d63_ee79_e783_e268),
            ("cap7 block2.2x1.25", 0xf75b_b3c0_d485_3d80),
            ("cap7 block0.1x0.8", 0x83b1_3f00_9b7f_1b08),
            ("private shunt1x1.15", 0x5379_6368_0176_2a54),
            ("private block2.2x1.25", 0x4d6b_484b_aea9_4a0d),
            ("private block0.1x0.8", 0x6d13_851c_d42d_99b2),
        ],
    );
}
