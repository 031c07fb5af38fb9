//! Conflict-recognition experiment: the allocation-free closed-form
//! trapezoid `Dc` kernel and board-lane propagation, measured against
//! the paths they replace.
//!
//! Two sections:
//!
//! * **kernel** — `Consistency::between` (closed-form, stack-only)
//!   versus the retained PWL fallback (`to_pwl`, polyline intersection
//!   and area — the pre-refactor cost per comparison), on a fixed fleet
//!   of random trapezoid pairs. The closed form is the one `Dc` the
//!   engine's reports and the rule store grade with. Gate: closed-form
//!   ≥ 3× PWL.
//! * **lanes** — `diagnose_batch_lanes` (one schedule traversal per
//!   wave amortised over up to 64 warm sessions) versus the same call
//!   at lane width 1 (each board propagated alone) on the paper's
//!   Fig. 6 three-stage amplifier, one thread each. Both paths run the same 4-wide classify/apply
//!   kernels, so the lane contract is *byte-identical reports, no
//!   slower*: the gate is the no-regression bound (≥ 0.9×) that applies
//!   whenever both sides do the same kernel work. See DESIGN.md §10 and
//!   §14.
//!
//! Before any timing, the gates assert the fast paths are byte-exact:
//! every kernel pair must agree with the PWL fallback to 1e-12 and in
//! direction, and the lane batch must reproduce the per-board reports
//! byte-identically. The gated speedups are measured with [`Harness::bench_pair`] —
//! interleaved rounds whose per-round ratios cancel host-noise drift —
//! because on a busy or thermally-throttling host two back-to-back
//! absolute measurements would absorb the drift into the ratio. Writes
//! `BENCH_dc.json` in the current directory and exits non-zero if a
//! gate fails.

use flames_bench::harness::Harness;
use flames_bench::rng::SplitMix64;
use flames_circuit::circuits::{three_stage, ThreeStage};
use flames_circuit::fault::inject_faults;
use flames_circuit::predict::measure;
use flames_circuit::{CompId, Fault};
use flames_core::{diagnose_batch_lanes, Board, Diagnoser, DiagnoserConfig};
use flames_fuzzy::{Consistency, FuzzyInterval};
use std::hint::black_box;
use std::time::Duration;

const PAIRS: usize = 256;
const BOARDS: usize = 48;
const LANE_WIDTH: usize = 64;
const MEASURE_IMPRECISION: f64 = 0.02;

/// Random overlap-rich trapezoid pairs: plain shapes, zero-spread
/// flanks, crisp intervals and points, shifted near-copies — the same
/// corner mix as the property suite, so the timed workload covers every
/// kernel branch.
fn make_pairs(n: usize) -> Vec<(FuzzyInterval, FuzzyInterval)> {
    let mut rng = SplitMix64::new(0xDCBE_2026);
    let random = |rng: &mut SplitMix64| {
        let m1 = rng.range_f64(-50.0, 50.0);
        let m2 = m1 + rng.range_f64(0.0, 20.0);
        FuzzyInterval::new(m1, m2, rng.range_f64(0.0, 5.0), rng.range_f64(0.0, 5.0))
            .expect("valid trapezoid")
    };
    (0..n)
        .map(|i| {
            let vm = match i % 4 {
                0 => FuzzyInterval::crisp(SplitMix64::new(i as u64).range_f64(-50.0, 50.0)),
                1 => {
                    let t = random(&mut rng);
                    FuzzyInterval::new(t.core_lo(), t.core_hi(), 0.0, t.spread_right())
                        .expect("valid trapezoid")
                }
                _ => random(&mut rng),
            };
            let vn = if i % 3 == 0 {
                // Shifted near-copy: dense ramp–ramp crossings.
                let shift = rng.range_f64(-3.0, 3.0);
                FuzzyInterval::new(
                    vm.core_lo() + shift,
                    vm.core_hi() + shift,
                    vm.spread_left() + 0.5,
                    vm.spread_right() + 0.5,
                )
                .expect("valid trapezoid")
            } else {
                random(&mut rng)
            };
            (vm, vn)
        })
        .collect()
}

/// A mostly-healthy fleet (every twelfth board has one drifted
/// resistor) probing all three of the paper's test points — the
/// steady-state production-test regime board lanes are built for.
/// Healthy readings get a small per-board jitter inside the measurement
/// imprecision, so boards are realistic near-copies rather than byte
/// duplicates.
fn make_boards(ts: &ThreeStage, n: usize) -> Vec<Board> {
    let drift_sites: [CompId; 4] = [ts.r2, ts.r4, ts.r5, ts.r6];
    let mut rng = SplitMix64::new(0xB0A2D5);
    (0..n)
        .map(|i| {
            let board_netlist = if i % 12 == 0 {
                let comp = drift_sites[(i / 12) % drift_sites.len()];
                let factor = rng.range_f64(0.75, 1.35);
                inject_faults(&ts.netlist, &[(comp, Fault::ParamFactor(factor))])
                    .expect("drift injection")
            } else {
                ts.netlist.clone()
            };
            ts.test_points
                .iter()
                .enumerate()
                .map(|(idx, tp)| {
                    let jitter =
                        FuzzyInterval::crisp(rng.range_f64(-0.2, 0.2) * MEASURE_IMPRECISION);
                    let reading = measure(&board_netlist, tp.net, MEASURE_IMPRECISION)
                        .expect("board solves")
                        + jitter;
                    (idx, reading)
                })
                .collect()
        })
        .collect()
}

fn main() {
    // ----- kernel: closed-form vs PWL --------------------------------
    let pairs = make_pairs(PAIRS);

    // Exactness gate before timing: the two paths integrate the same
    // piecewise-linear minimum, so they must agree to FP noise.
    for (i, (vm, vn)) in pairs.iter().enumerate() {
        let fast = Consistency::between(vm, vn);
        let slow = Consistency::between_pwl(&vm.to_pwl(), &vn.to_pwl());
        assert!(
            (fast.degree() - slow.degree()).abs() <= 1e-12,
            "pair {i}: closed-form {} != pwl {}",
            fast.degree(),
            slow.degree()
        );
        assert_eq!(fast.direction(), slow.direction(), "pair {i}: direction");
    }
    println!("exactness gate passed: {PAIRS} pairs agree to 1e-12\n");

    let h = Harness::new("exp_dc").with_budget(Duration::from_millis(500));
    let kernel = h.bench_pair(
        "dc_pwl_fallback",
        "dc_closed_form",
        || {
            let mut acc = 0.0;
            for (vm, vn) in &pairs {
                let (vm, vn) = (black_box(vm), black_box(vn));
                acc += Consistency::between_pwl(&vm.to_pwl(), &vn.to_pwl()).degree();
            }
            black_box(acc)
        },
        || {
            let mut acc = 0.0;
            for (vm, vn) in &pairs {
                acc += Consistency::between(black_box(vm), black_box(vn)).degree();
            }
            black_box(acc)
        },
    );
    let pwl_ns = kernel.a_ns / PAIRS as f64;
    let closed_ns = kernel.b_ns / PAIRS as f64;
    let kernel_speedup = kernel.a_over_b;

    // ----- lanes: joint vs per-board propagation ---------------------
    let ts = three_stage(0.05);
    let diagnoser = Diagnoser::from_netlist(
        &ts.netlist,
        ts.test_points.clone(),
        DiagnoserConfig::default(),
    )
    .expect("three-stage model compiles");
    let boards = make_boards(&ts, BOARDS);

    let per_board = diagnose_batch_lanes(&diagnoser, &boards, 1, 1).expect("batch runs");
    assert!(
        per_board.iter().any(|r| !r.nogoods.is_empty()),
        "workload must exercise faulty boards"
    );
    let reference = format!("{per_board:?}");
    for lane_width in [7, LANE_WIDTH] {
        let laned = diagnose_batch_lanes(&diagnoser, &boards, 1, lane_width).expect("lanes run");
        assert_eq!(
            format!("{laned:?}"),
            reference,
            "lane-{lane_width} batch must be byte-identical to per-board"
        );
    }
    println!("lane determinism gate passed: lanes(7,{LANE_WIDTH}) == per-board\n");

    let hl = Harness::new("exp_dc").with_budget(Duration::from_secs(3));
    let lanes = hl.bench_pair(
        "batch_per_board",
        "batch_lanes",
        || black_box(diagnose_batch_lanes(&diagnoser, &boards, 1, 1).expect("batch runs")),
        || black_box(diagnose_batch_lanes(&diagnoser, &boards, 1, LANE_WIDTH).expect("lanes run")),
    );
    let per_board_ns = lanes.a_ns / BOARDS as f64;
    let lane_ns = lanes.b_ns / BOARDS as f64;
    let lane_speedup = lanes.a_over_b;

    // Counter deltas over one untimed lane pass (zeros without `obs`):
    // the kernel counters prove the fast path actually served the run.
    let before = flames_obs::MetricsSnapshot::capture();
    black_box(diagnose_batch_lanes(&diagnoser, &boards, 1, LANE_WIDTH).expect("lanes run"));
    let counters = flames_obs::MetricsSnapshot::capture().delta_since(&before);

    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"exp_dc\",\n",
            "  \"kernel\": {{\n",
            "    \"pairs\": {pairs},\n",
            "    \"closed_form_ns_per_op\": {closed:.1},\n",
            "    \"pwl_ns_per_op\": {pwl:.1},\n",
            "    \"speedup\": {kspeed:.2}\n",
            "  }},\n",
            "  \"lanes\": {{\n",
            "    \"circuit\": \"three_stage(0.05)\",\n",
            "    \"boards\": {boards},\n",
            "    \"lane_width\": {width},\n",
            "    \"byte_identical\": true,\n",
            "    \"per_board_ns_per_board\": {pb:.0},\n",
            "    \"lane_ns_per_board\": {ln:.0},\n",
            "    \"lane_boards_per_sec\": {rate:.1},\n",
            "    \"speedup\": {lspeed:.2}\n",
            "  }},\n",
            "  \"counters\": {counters}\n",
            "}}\n"
        ),
        pairs = PAIRS,
        closed = closed_ns,
        pwl = pwl_ns,
        kspeed = kernel_speedup,
        boards = BOARDS,
        width = LANE_WIDTH,
        pb = per_board_ns,
        ln = lane_ns,
        rate = 1e9 / lane_ns,
        lspeed = lane_speedup,
        counters = counters.to_json(1),
    );
    std::fs::write("BENCH_dc.json", &json).expect("write BENCH_dc.json");
    println!("\n{json}");

    assert!(
        kernel_speedup >= 3.0,
        "closed-form Dc must be at least 3x the PWL fallback, measured {kernel_speedup:.2}x"
    );
    assert!(
        lane_speedup >= 0.9,
        "lane batches must not regress per-board throughput, measured {lane_speedup:.2}x"
    );
}
