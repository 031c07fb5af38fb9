//! Batch-serving experiment: the compile-once/serve-many split measured
//! end to end on the paper's Fig. 6 three-stage amplifier.
//!
//! A fleet of boards (healthy plus injected parametric drifts) is
//! diagnosed three ways against one shared [`flames_core::CompiledModel`]:
//!
//! * **cold, 1 thread** — a [`Diagnoser::cold_session`] per board: each
//!   session runs the board-independent seed fixpoint live instead of
//!   restoring the model's snapshot of it;
//! * **warm pool, 1 thread** — a [`flames_core::SessionPool`] recycling
//!   reset sessions, so steady-state boards pay no rebuild;
//! * **N threads** — [`flames_core::diagnose_batch_lanes`] over
//!   `std::thread::scope` workers, one pool per worker.
//!
//! Before any timing, the gate asserts the three paths produce
//! byte-identical reports (warm/batch determinism is the refactor's core
//! invariant). The gated warm-versus-cold ratio is timed with
//! [`Harness::bench_pair`] (interleaved rounds), and so is the
//! reported N-thread-versus-warm scaling, in a pair of its own. Writes
//! `BENCH_batch.json` in the current directory and exits non-zero if
//! warm-pool throughput fails the ≥ 1.5× gate.

use flames_bench::harness::Harness;
use flames_bench::rng::SplitMix64;
use flames_circuit::circuits::{three_stage, ThreeStage};
use flames_circuit::fault::inject_faults;
use flames_circuit::predict::measure;
use flames_circuit::{CompId, Fault};
use flames_core::{diagnose_batch_lanes, Board, Diagnoser, DiagnoserConfig, Report, SessionPool};
use std::hint::black_box;
use std::time::Duration;

const BOARDS: usize = 24;
const MEASURE_IMPRECISION: f64 = 0.02;

/// A batch of boards: mostly healthy, every fourth with one resistor
/// drifted by a deterministic pseudo-random factor. Each board probes
/// all three of the paper's test points (V1, V2, Vs).
fn make_boards(ts: &ThreeStage, n: usize) -> Vec<Board> {
    let drift_sites: [CompId; 4] = [ts.r2, ts.r4, ts.r5, ts.r6];
    let mut rng = SplitMix64::new(0xB0A2D5);
    (0..n)
        .map(|i| {
            let board_netlist = if i % 4 == 0 {
                let comp = drift_sites[(i / 4) % drift_sites.len()];
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
                    (
                        idx,
                        measure(&board_netlist, tp.net, MEASURE_IMPRECISION).expect("board solves"),
                    )
                })
                .collect()
        })
        .collect()
}

fn run_cold(diagnoser: &Diagnoser, boards: &[Board]) -> Vec<Report> {
    boards
        .iter()
        .map(|board| {
            let mut session = diagnoser.cold_session();
            for &(idx, value) in board {
                session.measure_point(idx, value).expect("valid point");
            }
            session.propagate();
            session.report()
        })
        .collect()
}

fn run_warm(pool: &mut SessionPool<'_>, boards: &[Board]) -> Vec<Report> {
    boards
        .iter()
        .map(|board| {
            let mut session = pool.acquire();
            for &(idx, value) in board {
                session.measure_point(idx, value).expect("valid point");
            }
            session.propagate();
            let report = session.report();
            pool.release(session);
            report
        })
        .collect()
}

struct Row {
    name: &'static str,
    threads: usize,
    ns_per_batch: f64,
}

impl Row {
    fn boards_per_sec(&self) -> f64 {
        BOARDS as f64 * 1e9 / self.ns_per_batch
    }
}

fn main() {
    let ts = three_stage(0.05);
    let diagnoser = Diagnoser::from_netlist(
        &ts.netlist,
        ts.test_points.clone(),
        DiagnoserConfig::default(),
    )
    .expect("three-stage model compiles");
    let boards = make_boards(&ts, BOARDS);
    let threads = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);

    // ----- determinism gates (before any timing is trusted) ----------
    // Ground truth: one fresh compiled session per board.
    let sequential: Vec<Report> = boards
        .iter()
        .map(|board| {
            let mut session = diagnoser.session();
            for &(idx, value) in board {
                session.measure_point(idx, value).expect("valid point");
            }
            session.propagate();
            session.report()
        })
        .collect();
    let reference = format!("{sequential:?}");
    assert!(
        sequential.iter().any(|r| !r.nogoods.is_empty()),
        "workload must exercise faulty boards"
    );
    assert_eq!(
        format!("{:?}", run_cold(&diagnoser, &boards)),
        reference,
        "the live seed fixpoint must match the snapshot restore"
    );
    let mut pool = SessionPool::new(&diagnoser);
    assert_eq!(
        format!("{:?}", run_warm(&mut pool, &boards)),
        reference,
        "warm pooled sessions must match fresh sessions"
    );
    for t in [1, 2, threads] {
        assert_eq!(
            format!(
                "{:?}",
                diagnose_batch_lanes(&diagnoser, &boards, t).expect("batch runs")
            ),
            reference,
            "{t}-thread batch must be byte-identical to sequential"
        );
    }
    println!("determinism gates passed: cold == warm == batch(1,2,{threads}) == sequential\n");

    // ----- timing ----------------------------------------------------
    let h = Harness::new("exp_batch").with_budget(Duration::from_millis(500));
    // Cold and warm are timed in interleaved rounds, so host drift
    // between two separate timing windows cannot decide the gated
    // ratio. The pool persists across iterations: steady-state warm
    // serving.
    let mut pool = SessionPool::new(&diagnoser);
    pool.warm(1);
    let pair = h.bench_pair(
        "cold_1_thread",
        "warm_pool_1_thread",
        || black_box(run_cold(&diagnoser, &boards)),
        || black_box(run_warm(&mut pool, &boards)),
    );
    let cold = Row {
        name: "cold_1_thread",
        threads: 1,
        ns_per_batch: pair.a_ns,
    };
    let warm = Row {
        name: "warm_pool_1_thread",
        threads: 1,
        ns_per_batch: pair.b_ns,
    };
    // The thread fan-out is timed against the same warm pool in its own
    // interleaved pair: dividing it by the row above, which shares its
    // rounds with cold runs, let the ratio swing with whatever the host
    // did between the two timing windows.
    let batch_pair = h.bench_pair(
        "warm_pool_1_thread",
        "batch_n_threads",
        || black_box(run_warm(&mut pool, &boards)),
        || black_box(diagnose_batch_lanes(&diagnoser, &boards, threads).expect("batch runs")),
    );
    let batch = Row {
        name: "batch_n_threads",
        threads,
        ns_per_batch: batch_pair.b_ns,
    };

    let rows = [cold, warm, batch];
    let entries: Vec<String> = rows
        .iter()
        .map(|row| {
            format!(
                concat!(
                    "    \"{name}\": {{\n",
                    "      \"threads\": {threads},\n",
                    "      \"ns_per_board\": {ns_board:.0},\n",
                    "      \"boards_per_sec\": {rate:.1}\n",
                    "    }}"
                ),
                name = row.name,
                threads = row.threads,
                ns_board = row.ns_per_batch / BOARDS as f64,
                rate = row.boards_per_sec(),
            )
        })
        .collect();
    let warm_speedup = pair.a_over_b;
    let parallel_scaling = batch_pair.a_over_b;

    // Counter deltas over one untimed warm-pool pass of the fleet — the
    // live-observability column (all zeros when built without `obs`).
    let mut pool = SessionPool::new(&diagnoser);
    pool.warm(1);
    let before = flames_obs::MetricsSnapshot::capture();
    black_box(run_warm(&mut pool, &boards));
    let counters = flames_obs::MetricsSnapshot::capture().delta_since(&before);

    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"exp_batch\",\n",
            "  \"circuit\": \"three_stage(0.05)\",\n",
            "  \"boards\": {boards},\n",
            "  \"byte_identical\": true,\n",
            "  \"rows\": {{\n{rows}\n  }},\n",
            "  \"counters\": {counters},\n",
            "  \"warm_vs_cold_speedup\": {warm:.2},\n",
            "  \"parallel_vs_warm_scaling\": {par:.2}\n",
            "}}\n"
        ),
        boards = BOARDS,
        rows = entries.join(",\n"),
        counters = counters.to_json(2),
        warm = warm_speedup,
        par = parallel_scaling,
    );
    std::fs::write("BENCH_batch.json", &json).expect("write BENCH_batch.json");
    println!("\n{json}");

    assert!(
        warm_speedup >= 1.5,
        "warm-pool serving must be at least 1.5x cold sessions, measured {warm_speedup:.2}x"
    );
}
