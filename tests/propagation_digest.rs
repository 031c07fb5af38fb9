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

use flames::atms::Env;
use flames::circuit::circuits::{hierarchy, three_stage, HierarchySpec};
use flames::circuit::constraint::{extract, ExtractOptions, QuantityId};
use flames::circuit::fault::inject_faults;
use flames::circuit::predict::measure;
use flames::circuit::{CompId, Fault};
use flames::core::propagation::{CoincidenceKind, PropagatorConfig};
use flames::core::{Diagnoser, DiagnoserConfig, Session};
use flames::fuzzy::Direction;

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

/// Digest of one propagated session: labels of every quantity in id
/// order, then the nogoods, then the coincidence records.
fn digest(session: &Session<'_>, quantities: usize) -> u64 {
    let prop = session.propagator();
    let mut h = Fnv::new();
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

/// Measures `points` of the (possibly drifted) board, propagates a fresh
/// session and digests it.
fn run_board(diagnoser: &Diagnoser, readings: &[(usize, flames::fuzzy::FuzzyInterval)]) -> u64 {
    let mut session = diagnoser.session();
    for &(idx, value) in readings {
        session.measure_point(idx, value).expect("valid point");
    }
    session.propagate();
    digest(&session, diagnoser.network().quantity_count())
}

fn three_stage_digests() -> Vec<(String, u64)> {
    let ts = three_stage(0.05);
    let diagnoser = Diagnoser::from_netlist(
        &ts.netlist,
        ts.test_points.clone(),
        DiagnoserConfig::default(),
    )
    .expect("three-stage model compiles");
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
            .collect::<Vec<_>>()
    };
    let all = [0, 1, 2];
    let mut out = vec![(
        "healthy".to_owned(),
        run_board(&diagnoser, &read(None, &all)),
    )];
    let resistors = [
        ("R1", ts.r1, 1.3),
        ("R2", ts.r2, 1.3),
        ("R3", ts.r3, 0.75),
        ("R4", ts.r4, 0.8),
        ("R5", ts.r5, 1.25),
        ("R6", ts.r6, 0.7),
    ];
    for (name, comp, factor) in resistors {
        let readings = read(Some((comp, factor)), &all);
        out.push((format!("{name}x{factor}"), run_board(&diagnoser, &readings)));
    }
    // A partial board: V2 never probed.
    let readings = read(Some((ts.r2, 1.3)), &[0, 2]);
    out.push((
        "R2x1.3 partial".to_owned(),
        run_board(&diagnoser, &readings),
    ));
    out
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
            propagator: PropagatorConfig {
                max_steps: 5_000_000,
                ..PropagatorConfig::default()
            },
            ..DiagnoserConfig::default()
        },
    );
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
            let readings: Vec<_> = h
                .readings(&board, 0.02)
                .expect("board solves")
                .into_iter()
                .enumerate()
                .collect();
            (name.to_owned(), run_board(&diagnoser, &readings))
        })
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
