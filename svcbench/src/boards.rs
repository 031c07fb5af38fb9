//! Seeded inputs: the boards each workload sends, generated from the
//! command-line seed so the same seed always gives the same inputs.
//!
//! The model-path pools (`serve_novel`, `build_large`) have fixed
//! contents, drawn once from [`CONTENT_SEED`], and the seed orders
//! them. The engine's cost on a board jumps with microvolt changes to
//! its readings: one `build_large` drift took 6 ms under one draw and
//! 160 ms under another, and a partial board on `serve_novel` moved by
//! 6x. Seeded contents made a pool's cost a draw of the seed rather
//! than a property of the program. The rule-hit trays of
//! `serve_recurring` cost the same whatever their jitter, so there the
//! seed jitters the readings as well as ordering them.

use flames_circuit::circuits::{Hierarchy, ThreeStage};
use flames_circuit::fault::inject_faults;
use flames_circuit::predict::measure;
use flames_circuit::{CompId, Fault, Netlist};
use flames_core::{Board, Candidate};
use std::fmt::Write as _;

/// Instrument imprecision of the simulated readings (volts).
pub const IMPRECISION: f64 = 0.02;

/// The seed the model-path pools' contents are drawn from.
const CONTENT_SEED: u64 = 0x00F1_A3E5;

/// SplitMix64: the workspace's deterministic generator, inlined so the
/// benchmark depends on the library crates only.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// A generated board and the component whose drift produced it
/// (`None` for a healthy board).
#[derive(Debug, Clone)]
pub struct Labeled {
    pub board: Board,
    pub culprit: Option<String>,
}

impl Labeled {
    /// Whether the injected component is a member of the top-ranked
    /// candidate (the `top1_accuracy` hit). Healthy boards never count.
    pub fn top1(&self, candidates: &[Candidate]) -> bool {
        self.culprit.as_ref().is_some_and(|c| {
            candidates
                .first()
                .is_some_and(|top| top.members.contains(c))
        })
    }
}

/// Shifts every reading by its own seeded offset of at most `amount`
/// volts: the readings stay inside the instrument imprecision, and no
/// two boards share their bits.
pub fn jittered(board: &Board, rng: &mut Rng, amount: f64) -> Board {
    board
        .iter()
        .map(|&(idx, v)| (idx, v.translated(rng.range(-amount, amount))))
        .collect()
}

fn drifted(netlist: &Netlist, drift: Option<(CompId, f64)>) -> Netlist {
    match drift {
        Some((comp, factor)) => {
            inject_faults(netlist, &[(comp, Fault::ParamFactor(factor))]).expect("drift injection")
        }
        None => netlist.clone(),
    }
}

fn three_stage_board(ts: &ThreeStage, drift: Option<(CompId, f64)>, points: &[usize]) -> Board {
    let netlist = drifted(&ts.netlist, drift);
    points
        .iter()
        .map(|&idx| {
            let net = ts.test_points[idx].net;
            (
                idx,
                measure(&netlist, net, IMPRECISION).expect("board solves"),
            )
        })
        .collect()
}

fn name_of(netlist: &Netlist, comp: CompId) -> String {
    netlist.component(comp).name().to_owned()
}

/// `serve_novel`'s pool of distinct `three_stage(0.05)` boards:
/// 12 healthy, 48 fully measured single-resistor drifts (each of the
/// six resistors at eight drift levels) and 36 partial drift boards
/// (each resistor with each one- and two-point subset measured). Each
/// drift level is moved by up to 1 % and each reading by up to 1 % of
/// the instrument imprecision, so every board is distinct.
///
/// The seed orders the boards within each kind. The kinds interleave in
/// a fixed pattern, 12 groups of one healthy, four full and three
/// partial boards, so every stretch of the stream has the same mix and
/// the 64 traces the server retains, and with them the peak resident
/// set, do not depend on the order.
pub fn novel_pool(ts: &ThreeStage, order: &mut Rng) -> Vec<Labeled> {
    const LEVELS: [f64; 8] = [0.6, 0.7, 0.8, 0.85, 1.2, 1.3, 1.4, 1.6];
    const SUBSETS: [&[usize]; 6] = [&[0], &[1], &[2], &[0, 1], &[0, 2], &[1, 2]];
    let resistors = [ts.r1, ts.r2, ts.r3, ts.r4, ts.r5, ts.r6];
    let mut rng = Rng::new(CONTENT_SEED);
    let mut board = |drift: Option<(CompId, f64)>, points: &[usize]| {
        let drift = drift.map(|(comp, level)| (comp, level * rng.range(0.99, 1.01)));
        Labeled {
            board: jittered(
                &three_stage_board(ts, drift, points),
                &mut rng,
                IMPRECISION / 100.0,
            ),
            culprit: drift.map(|(comp, _)| name_of(&ts.netlist, comp)),
        }
    };
    let mut healthy: Vec<Labeled> = (0..12).map(|_| board(None, &[0, 1, 2])).collect();
    let mut full = Vec::new();
    for level in LEVELS {
        for &r in &resistors {
            full.push(board(Some((r, level)), &[0, 1, 2]));
        }
    }
    let mut partial = Vec::new();
    for (k, points) in SUBSETS.iter().enumerate() {
        for &r in &resistors {
            partial.push(board(Some((r, LEVELS[(k * 3 + 1) % LEVELS.len()])), points));
        }
    }
    order.shuffle(&mut healthy);
    order.shuffle(&mut full);
    order.shuffle(&mut partial);
    let mut pool = Vec::with_capacity(96);
    let (mut h, mut f, mut p) = (healthy.into_iter(), full.into_iter(), partial.into_iter());
    for _ in 0..12 {
        for slot in "HFFPPFFP".chars() {
            let next = match slot {
                'H' => h.next(),
                'F' => f.next(),
                _ => p.next(),
            };
            pool.push(next.expect("group slots match the pool's composition"));
        }
    }
    pool
}

/// The learned-rule experiment's eight recurring modes: healthy first,
/// then seven single-resistor drifts whose factors discretize to
/// distinct symptom vectors.
pub fn recurring_modes(ts: &ThreeStage) -> Vec<Labeled> {
    let variants = [
        None,
        Some((ts.r2, 1.3)),
        Some((ts.r4, 0.8)),
        Some((ts.r5, 1.25)),
        Some((ts.r1, 1.4)),
        Some((ts.r3, 1.3)),
        Some((ts.r6, 0.7)),
        Some((ts.r6, 1.2)),
    ];
    variants
        .iter()
        .map(|&drift| Labeled {
            board: three_stage_board(ts, drift, &[0, 1, 2]),
            culprit: drift.map(|(comp, _)| name_of(&ts.netlist, comp)),
        })
        .collect()
}

/// Copies of each faulty mode per `serve_recurring` tray: 7 × 8 = 56
/// boards. A tray of hits costs well under a millisecond in-process, so
/// smaller trays left the round trip to thread hand-offs on a 2-core
/// host, and their p50 and throughput moved by a fifth between runs.
const TRAY_COPIES: usize = 8;

/// `serve_recurring`'s trays: every tray holds each of the seven faulty
/// modes [`TRAY_COPIES`] times, each reading jittered by at most a
/// millionth of the instrument imprecision, in seeded order. That keeps
/// every board distinct without moving its symptoms: the `r6 x0.7` mode
/// sits within a few microvolts of a severity boundary.
pub fn recurring_trays(modes: &[Labeled], trays: usize, rng: &mut Rng) -> Vec<Vec<Labeled>> {
    let faulty: Vec<&Labeled> = modes.iter().filter(|m| m.culprit.is_some()).collect();
    (0..trays)
        .map(|_| {
            let mut tray: Vec<Labeled> = (0..TRAY_COPIES)
                .flat_map(|_| &faulty)
                .map(|mode| Labeled {
                    board: jittered(&mode.board, rng, IMPRECISION * 1e-6),
                    culprit: mode.culprit.clone(),
                })
                .collect();
            rng.shuffle(&mut tray);
            tray
        })
        .collect()
}

/// The fixed probe set of `build_large`: the first, middle and last
/// backbone taps and the outputs of blocks 1, middle and last.
pub fn large_probes(h: &Hierarchy) -> Vec<usize> {
    let taps = h.spec.backbone_sections;
    vec![
        0,
        taps / 2,
        taps - 1,
        taps + 1,
        taps + taps / 2,
        2 * taps - 1,
    ]
}

/// Boards per drift in `build_large`'s pool.
const LARGE_VARIANTS: usize = 4;

/// `build_large`'s pool: [`LARGE_VARIANTS`] boards for each drift on a
/// fixed list of backbone and observed-block components, each drift
/// level moved by up to 1 % and every reading jittered by up to a tenth
/// of the instrument imprecision, in seeded order.
pub fn large_pool(h: &Hierarchy, order: &mut Rng) -> Vec<Labeled> {
    let mut rng = Rng::new(CONTENT_SEED);
    let taps = h.spec.backbone_sections;
    let drifts = [
        (h.backbone_series[0], 1.25),
        (h.backbone_series[0], 0.8),
        (h.backbone_series[2], 1.25),
        (h.backbone_shunt[1], 1.25),
        (h.backbone_shunt[taps / 2], 0.8),
        (h.blocks[1][2], 1.25),
        (h.blocks[1][10], 0.8),
        (h.blocks[taps / 2][4], 1.25),
        (h.blocks[taps / 2][14], 0.8),
        (h.blocks[taps - 1][2], 1.25),
        (h.blocks[taps - 1][8], 1.25),
        (h.blocks[taps - 1][12], 0.8),
    ];
    let mut pool: Vec<Labeled> = drifts
        .iter()
        .flat_map(|&drift| std::iter::repeat_n(drift, LARGE_VARIANTS))
        .map(|(comp, level)| {
            let netlist = drifted(&h.netlist, Some((comp, level * rng.range(0.99, 1.01))));
            let readings = h.readings(&netlist, IMPRECISION).expect("replica solves");
            let board: Board = readings.into_iter().enumerate().collect();
            Labeled {
                board: jittered(&board, &mut rng, IMPRECISION / 10.0),
                culprit: Some(name_of(&h.netlist, comp)),
            }
        })
        .collect();
    order.shuffle(&mut pool);
    pool
}

/// Renders boards as a `POST /diagnose` body. `{}` prints the shortest
/// string that parses back to the same `f64`, so the server sees the
/// generated bits exactly.
pub fn request_body(boards: &[&Board]) -> String {
    let mut out = String::from("{\"boards\":[");
    for (i, board) in boards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, (idx, v)) in board.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"point\":{idx},\"value\":{{\"m1\":{},\"m2\":{},\"alpha\":{},\"beta\":{}}}}}",
                v.core_lo(),
                v.core_hi(),
                v.spread_left(),
                v.spread_right()
            );
        }
        out.push(']');
    }
    out.push_str("],\"next_probe\":true}");
    out
}
