//! Probe-planning experiment: incremental candidate maintenance and the
//! memoized parallel planner, measured against the recompute paths they
//! replace.
//!
//! Four sections:
//!
//! * **candidates** — the incrementally maintained
//!   [`flames_atms::CandidateSet`] behind `ranked_diagnoses` (de Kleer's
//!   candidate-update step: replay only the conflicts installed since
//!   the previous query) versus `ranked_diagnoses_oracle` (re-enumerate
//!   the HS-tree from the full nogood store on every query) on seeded
//!   random nogood ladders, querying after every install. Gate:
//!   incremental ≥ 3× rebuild.
//! * **probe loop** — `probe_until_isolated` (entropy-term memo,
//!   epoch-tagged candidate cache) versus `probe_until_isolated_oracle`
//!   (the pre-optimization planner, retained verbatim) on the paper's
//!   three-stage amplifier with graded probe costs, on seeded single-
//!   and double-fault gain cascades, and on a wide probing ladder,
//!   under both the fuzzy-entropy and the probabilistic policy. The
//!   loop's wall clock is dominated by wave propagation, which is
//!   *identical work on both paths* (DESIGN.md §10–11), so the
//!   full-loop gates are no-regression bounds.
//! * **planning** — the component the fast path actually replaces,
//!   isolated from the shared propagation: every session state the
//!   probe loops above pass through is captured (cloned), and the
//!   planning step (recommend + the isolation-check candidate query) is
//!   timed over the whole trajectory, fast versus oracle. Gate:
//!   fast ≥ 3× oracle.
//! * **parallel** — `probe_batch_lanes` over the ladder fleet, 4 worker threads versus 1. The planner's contract is
//!   *byte-identical runs at no throughput cost* regardless of
//!   placement, so the gate is a no-regression bound (on a single-core
//!   host the merge discipline, not the speedup, is what is pinned).
//!
//! Before any timing, the gates assert the fast paths are byte-exact:
//! the incremental candidate sets must match the batch oracle after
//! every single install, every fast probe run must reproduce the oracle
//! run byte-for-byte, and `recommend` / `probe_batch_lanes` must be
//! byte-identical across 1/2/4/8 threads. The probe-loop and planning
//! pairs are timed interleaved (`Harness::bench_pair`). Writes
//! `BENCH_strategy.json` in the current directory and exits non-zero
//! if a gate fails.

use flames_atms::{Env, FuzzyAtms};
use flames_bench::harness::Harness;
use flames_bench::rng::SplitMix64;
use flames_circuit::circuits::{cascade, three_stage};
use flames_circuit::fault::inject_faults;
use flames_circuit::predict::{measure_all, TestPoint};
use flames_circuit::{Fault, Net, Netlist};
use flames_core::strategy::{
    probe_batch_lanes, probe_until_isolated_oracle, probe_until_isolated_with, recommend_oracle,
    recommend_with, recommend_with_memo, Policy, ProbeRun, CANDIDATE_BUDGET,
};
use flames_core::{Candidate, Diagnoser, DiagnoserConfig, Session};
use flames_fuzzy::entropy::EntropyMemo;
use flames_fuzzy::FuzzyInterval;
use std::hint::black_box;
use std::time::Duration;

const LADDERS: usize = 6;
const INSTALLS_PER_LADDER: usize = 60;
const LADDER_ASSUMPTIONS: usize = 32;
const CASCADE_STAGES: usize = 16;
const LADDER_BRANCHES: usize = 32;
const LADDER_BOARDS: usize = 3;
const STATES_PER_TRAJECTORY: usize = 16;
const MEAS_IMPRECISION: f64 = 0.02;
const THREADS: usize = 4;

/// Seeded random nogood ladders: the conflict streams a long diagnosis
/// session feeds the ATMS, degrees spread over the whole unit interval,
/// conflict sizes 1–4 over a 32-assumption vocabulary.
fn make_ladders() -> Vec<Vec<(Env, f64)>> {
    let mut rng = SplitMix64::new(0x57A7_E610);
    (0..LADDERS)
        .map(|_| {
            (0..INSTALLS_PER_LADDER)
                .map(|_| {
                    let len = 1 + rng.below(4) as usize;
                    let ids: Vec<u32> = (0..len)
                        .map(|_| rng.below(LADDER_ASSUMPTIONS as u64) as u32)
                        .collect();
                    (Env::from_ids(ids), rng.range_f64(0.05, 1.0))
                })
                .collect()
        })
        .collect()
}

fn ladder_engine() -> FuzzyAtms {
    let mut atms = FuzzyAtms::new();
    for _ in 0..LADDER_ASSUMPTIONS {
        atms.add_assumption();
    }
    atms
}

/// Replays a ladder querying the *incremental* path after every install.
fn run_ladder_incremental(atms: &mut FuzzyAtms, ladder: &[(Env, f64)]) -> usize {
    atms.reset();
    let mut total = 0;
    for (env, degree) in ladder {
        atms.add_nogood(env, *degree);
        total += atms.ranked_diagnoses(2, 64).len();
    }
    total
}

/// Replays a ladder re-enumerating the HS-tree after every install.
fn run_ladder_rebuild(atms: &mut FuzzyAtms, ladder: &[(Env, f64)]) -> usize {
    atms.reset();
    let mut total = 0;
    for (env, degree) in ladder {
        atms.add_nogood(env, *degree);
        total += atms.ranked_diagnoses_oracle(2, 64).len();
    }
    total
}

/// One probing workload: a compiled model plus faulty-board readings.
struct Workload {
    label: &'static str,
    diagnoser: Diagnoser,
    boards: Vec<Vec<FuzzyInterval>>,
}

/// The paper's three-stage amplifier with graded probe costs (deep
/// internal nodes need the probe station, the output connector is
/// cheap) and its three §8 defect boards.
fn amp_workload() -> Workload {
    let mut ts = three_stage(0.02);
    ts.test_points[0].cost = 3.0; // V1: deep internal node
    ts.test_points[1].cost = 2.0; // V2
    ts.test_points[2].cost = 1.0; // Vs: the output connector
    let diagnoser = Diagnoser::from_netlist(
        &ts.netlist,
        ts.test_points.clone(),
        DiagnoserConfig::default(),
    )
    .expect("amplifier solves");
    let nets = [ts.v1, ts.v2, ts.vs];
    let faulty: Vec<Netlist> = vec![
        inject_faults(&ts.netlist, &[(ts.r2, Fault::Short)]).expect("fault injects"),
        inject_faults(&ts.netlist, &[(ts.t2, Fault::Param(40.0))]).expect("fault injects"),
        inject_faults(&ts.netlist, &[(ts.r3, Fault::Open)]).expect("fault injects"),
    ];
    let boards = faulty
        .iter()
        .map(|board| measure_all(board, &nets, MEAS_IMPRECISION).expect("board solves"))
        .collect();
    Workload {
        label: "three_stage",
        diagnoser,
        boards,
    }
}

/// A 16-stage gain cascade with seeded single- and double-fault boards:
/// long probe sequences over many test points, so every run exercises
/// the planner over a wide, slowly shrinking frontier.
fn cascade_workload() -> Workload {
    let c = cascade(CASCADE_STAGES, 1.2, 0.03);
    let diagnoser = Diagnoser::from_netlist(
        &c.netlist,
        c.test_points.clone(),
        DiagnoserConfig::default(),
    )
    .expect("cascade solves");
    let mut rng = SplitMix64::new(0xCA5C_ADE5);
    let mut boards = Vec::new();
    for i in 0..4 {
        let a = rng.below(CASCADE_STAGES as u64) as usize;
        let mut faults = vec![(c.amps[a], Fault::ParamFactor(rng.range_f64(0.5, 0.7)))];
        if i % 2 == 1 {
            // Every other board carries a second weak stage: these never
            // isolate to a single component, so the loop probes the full
            // ladder — the worst-case planning load.
            let b = (a + 1 + rng.below((CASCADE_STAGES - 1) as u64) as usize) % CASCADE_STAGES;
            faults.push((c.amps[b], Fault::ParamFactor(rng.range_f64(1.4, 1.8))));
        }
        let board = inject_faults(&c.netlist, &faults).expect("fault injects");
        boards.push(measure_all(&board, &c.stages, MEAS_IMPRECISION).expect("board solves"));
    }
    Workload {
        label: "cascade16",
        diagnoser,
        boards,
    }
}

/// A wide probing ladder: many independent divider branches off one
/// source, one test point per branch. Every iteration re-scores every
/// unprobed point against every component — the widest planning
/// frontier of the three workloads, the regime the entropy memo, the
/// epoch-tagged candidate cache, and incremental maintenance are built
/// for. Faulty branches are seeded per board; the two suspects inside
/// a branch tie, so runs sweep the full ladder.
fn ladder_fleet() -> Workload {
    let mut nl = Netlist::new();
    let vin = nl.add_net("vin");
    nl.add_voltage_source("V", vin, Net::GROUND, 10.0)
        .expect("source adds");
    let mut points = Vec::new();
    let mut nets = Vec::new();
    let mut top = Vec::new();
    for i in 0..LADDER_BRANCHES {
        let mid = nl.add_net(format!("n{i}"));
        let ra = nl
            .add_resistor(format!("Ra{i}"), vin, mid, 1e3, 0.05)
            .expect("resistor adds");
        let rb = nl
            .add_resistor(format!("Rb{i}"), mid, Net::GROUND, 1e3, 0.05)
            .expect("resistor adds");
        points.push(TestPoint::new(mid, format!("P{i}"), vec![ra, rb]));
        nets.push(mid);
        top.push(ra);
    }
    let diagnoser =
        Diagnoser::from_netlist(&nl, points, DiagnoserConfig::default()).expect("ladder solves");
    let mut rng = SplitMix64::new(0x01AD_DE12);
    let boards = (0..LADDER_BOARDS)
        .map(|_| {
            let branch = rng.below(LADDER_BRANCHES as u64) as usize;
            let factor = rng.range_f64(1.8, 2.6);
            let board = inject_faults(&nl, &[(top[branch], Fault::ParamFactor(factor))])
                .expect("fault injects");
            measure_all(&board, &nets, MEAS_IMPRECISION).expect("board solves")
        })
        .collect();
    Workload {
        label: "ladder32",
        diagnoser,
        boards,
    }
}

/// Replicates the private isolation criterion of the probe loop on an
/// already fetched candidate list (public data only).
fn isolated_in(cands: &[Candidate]) -> bool {
    match cands {
        [] => false,
        [only] => only.members.len() == 1,
        [first, second, ..] => first.members.len() == 1 && first.degree > second.degree + 1e-9,
    }
}

/// Captures the session states a fast probe run actually passes
/// through: one clone per planning step (capped per trajectory to bound
/// memory). Timing `recommend` plus the isolation-check candidate query
/// over these states measures exactly the work the fast path replaces,
/// with the wave propagation — identical on both paths — factored out.
fn planning_trajectories(w: &Workload) -> Vec<(Policy, Vec<Session<'_>>)> {
    let mut out = Vec::new();
    for readings in &w.boards {
        for policy in [Policy::FuzzyEntropy, Policy::Probabilistic] {
            let mut session = w.diagnoser.session();
            let mut memo = EntropyMemo::new();
            let mut states = Vec::new();
            loop {
                if states.len() < STATES_PER_TRAJECTORY {
                    states.push(session.clone());
                }
                let choices = recommend_with_memo(&session, policy, 0.05, 1, &mut memo);
                let Some(choice) = choices.first().cloned() else {
                    break;
                };
                session
                    .measure_point(choice.point, readings[choice.point])
                    .expect("measurement lands");
                session.propagate();
                let cands =
                    session.candidates(CANDIDATE_BUDGET.max_size, CANDIDATE_BUDGET.max_count);
                if isolated_in(&cands) {
                    break;
                }
            }
            out.push((policy, states));
        }
    }
    out
}

/// One pass of fast planning over captured trajectories: a fresh memo
/// per trajectory (as `probe_until_isolated` holds one per run), then
/// `recommend_with_memo` plus the cached isolation-check query on every
/// state.
fn plan_fast(trajectories: &[(Policy, Vec<Session<'_>>)]) -> usize {
    let mut total = 0usize;
    for (policy, states) in trajectories {
        let mut memo = EntropyMemo::new();
        for session in states {
            total += recommend_with_memo(session, *policy, 0.05, 1, &mut memo).len();
            total += session
                .candidates(CANDIDATE_BUDGET.max_size, CANDIDATE_BUDGET.max_count)
                .len();
        }
    }
    total
}

/// One pass of oracle planning over the same trajectories:
/// `recommend_oracle` plus the uncached, re-enumerated isolation-check
/// query on every state — the pre-optimization per-iteration work.
fn plan_oracle(trajectories: &[(Policy, Vec<Session<'_>>)]) -> usize {
    let mut total = 0usize;
    for (policy, states) in trajectories {
        for session in states {
            total += recommend_oracle(session, *policy, 0.05).len();
            total += session
                .candidates_uncached(CANDIDATE_BUDGET.max_size, CANDIDATE_BUDGET.max_count)
                .len();
        }
    }
    total
}

/// Runs every (board, policy) probe loop of a workload on the fast path.
fn run_fast(w: &Workload, threads: usize) -> Vec<ProbeRun> {
    let mut out = Vec::new();
    for readings in &w.boards {
        for policy in [Policy::FuzzyEntropy, Policy::Probabilistic] {
            let mut session = w.diagnoser.session();
            out.push(
                probe_until_isolated_with(&mut session, policy, 0.05, &|i| readings[i], threads)
                    .expect("probing succeeds"),
            );
        }
    }
    out
}

/// Runs every (board, policy) probe loop on the retained oracle path.
fn run_oracle(w: &Workload) -> Vec<ProbeRun> {
    let mut out = Vec::new();
    for readings in &w.boards {
        for policy in [Policy::FuzzyEntropy, Policy::Probabilistic] {
            let mut session = w.diagnoser.session();
            out.push(
                probe_until_isolated_oracle(&mut session, policy, 0.05, &|i| readings[i])
                    .expect("probing succeeds"),
            );
        }
    }
    out
}

fn main() {
    // ----- gate 1: incremental candidates == batch oracle, every step --
    let ladders = make_ladders();
    let mut atms = ladder_engine();
    let mut checked = 0usize;
    for ladder in &ladders {
        atms.reset();
        for (env, degree) in ladder {
            atms.add_nogood(env, *degree);
            // A max_count neither path can saturate, so both return the
            // full ranked antichain of size ≤ 2.
            let incremental = atms.ranked_diagnoses(2, 4096);
            let oracle = atms.ranked_diagnoses_oracle(2, 4096);
            assert_eq!(
                format!("{incremental:?}"),
                format!("{oracle:?}"),
                "candidate divergence after install {checked}"
            );
            checked += 1;
        }
    }
    println!("candidate gate passed: {checked} installs, incremental == rebuild at every step");

    // ----- gate 2: fast probe runs == oracle probe runs ----------------
    let amp = amp_workload();
    let casc = cascade_workload();
    let ladder = ladder_fleet();
    let mut any_isolated = false;
    for w in [&amp, &casc, &ladder] {
        let fast = run_fast(w, 1);
        let oracle = run_oracle(w);
        assert_eq!(
            format!("{fast:?}"),
            format!("{oracle:?}"),
            "{}: fast probe loop diverged from oracle",
            w.label
        );
        any_isolated |= fast.iter().any(|r| r.isolated);
    }
    assert!(any_isolated, "workloads must isolate some boards");
    println!("probe-run gate passed: fast == oracle on three_stage, cascade16, ladder32");

    // ----- gate 3: thread-count byte-identity --------------------------
    // recommend() on a mid-run session, and whole runs through
    // probe_batch_lanes.
    {
        let readings = &casc.boards[1];
        let mut session = casc.diagnoser.session();
        for idx in [0usize, 5] {
            session
                .measure_point(idx, readings[idx])
                .expect("measurement lands");
            session.propagate();
        }
        for policy in [Policy::FuzzyEntropy, Policy::Probabilistic] {
            let solo = recommend_with(&session, policy, 0.05, 1);
            for threads in [2, 4, 8] {
                let multi = recommend_with(&session, policy, 0.05, threads);
                assert_eq!(
                    format!("{solo:?}"),
                    format!("{multi:?}"),
                    "recommend diverged at {threads} threads ({policy})"
                );
            }
        }
        let serial =
            probe_batch_lanes(&casc.diagnoser, &casc.boards, Policy::FuzzyEntropy, 0.05, 1)
                .expect("batch probes");
        for threads in [2, 4, 8] {
            let parallel = probe_batch_lanes(
                &casc.diagnoser,
                &casc.boards,
                Policy::FuzzyEntropy,
                0.05,
                threads,
            )
            .expect("batch probes");
            assert_eq!(
                format!("{serial:?}"),
                format!("{parallel:?}"),
                "probe_batch_lanes diverged at {threads} threads"
            );
        }
    }
    println!(
        "determinism gate passed: recommend/probe_batch_lanes byte-identical across 1/2/4/8 threads\n"
    );

    // ----- timing: candidate maintenance -------------------------------
    let h = Harness::new("exp_strategy").with_budget(Duration::from_millis(500));
    let queries = (LADDERS * INSTALLS_PER_LADDER) as f64;
    let mut inc_atms = ladder_engine();
    let incremental_ns = h.bench("candidates/incremental", || {
        let mut total = 0;
        for ladder in &ladders {
            total += run_ladder_incremental(&mut inc_atms, ladder);
        }
        black_box(total)
    }) / queries;
    let mut reb_atms = ladder_engine();
    let rebuild_ns = h.bench("candidates/rebuild", || {
        let mut total = 0;
        for ladder in &ladders {
            total += run_ladder_rebuild(&mut reb_atms, ladder);
        }
        black_box(total)
    }) / queries;
    let candidate_speedup = rebuild_ns / incremental_ns;

    // ----- timing: the full probe-until-isolated loop ------------------
    // End-to-end wall clock is dominated by wave propagation through the
    // constraint network, identical work on both paths (DESIGN.md
    // §10–11), so these rows are no-regression bounds; the ≥3× claim is
    // gated on the planning component below, where the two paths
    // actually differ. Both are timed interleaved (`bench_pair`): the
    // ratio of two near-equal back-to-back timings is mostly host
    // drift, which the per-round ratios cancel.
    let hp = Harness::new("exp_strategy").with_budget(Duration::from_secs(2));
    let mut rows = Vec::new();
    for w in [&amp, &casc, &ladder] {
        let runs = (w.boards.len() * 2) as f64;
        let t = hp.bench_pair(
            &format!("probe_loop/{}/oracle", w.label),
            &format!("probe_loop/{}/fast", w.label),
            || black_box(run_oracle(w)),
            || black_box(run_fast(w, 1)),
        );
        rows.push((w.label, runs, t.b_ns / runs, t.a_ns / runs, t.a_over_b));
    }

    // ----- timing: the planning component of those same loops ----------
    // Every state each probe run passes through, with the shared
    // propagation factored out (see `planning_trajectories`).
    let trajectories: Vec<(Policy, Vec<Session<'_>>)> = [&amp, &casc, &ladder]
        .into_iter()
        .flat_map(planning_trajectories)
        .collect();
    let states: usize = trajectories.iter().map(|(_, s)| s.len()).sum();
    let planning = hp.bench_pair(
        "planning/oracle",
        "planning/fast",
        || black_box(plan_oracle(&trajectories)),
        || black_box(plan_fast(&trajectories)),
    );
    let plan_fast_ns = planning.b_ns / states as f64;
    let plan_oracle_ns = planning.a_ns / states as f64;
    let planning_speedup = planning.a_over_b;

    // ----- timing: parallel fleet probing ------------------------------
    let boards = ladder.boards.len() as f64;
    let serial_ns = hp.bench("probe_batch/serial", || {
        black_box(
            probe_batch_lanes(
                &ladder.diagnoser,
                &ladder.boards,
                Policy::FuzzyEntropy,
                0.05,
                1,
            )
            .expect("batch probes"),
        )
    }) / boards;
    let parallel_ns = hp.bench("probe_batch/parallel", || {
        black_box(
            probe_batch_lanes(
                &ladder.diagnoser,
                &ladder.boards,
                Policy::FuzzyEntropy,
                0.05,
                THREADS,
            )
            .expect("batch probes"),
        )
    }) / boards;
    let parallel_speedup = serial_ns / parallel_ns;

    // Counter deltas over one untimed fast pass (zeros without `obs`):
    // the planner counters prove the fast paths actually served the run.
    let before = flames_obs::MetricsSnapshot::capture();
    black_box(run_fast(&amp, 1));
    black_box(run_fast(&casc, 1));
    black_box(run_fast(&ladder, 1));
    let counters = flames_obs::MetricsSnapshot::capture().delta_since(&before);

    let probe_rows: Vec<String> = rows
        .iter()
        .map(|(label, runs, fast, oracle, speedup)| {
            format!(
                concat!(
                    "    \"{label}\": {{\n",
                    "      \"runs\": {runs},\n",
                    "      \"fast_ns_per_run\": {fast:.0},\n",
                    "      \"oracle_ns_per_run\": {oracle:.0},\n",
                    "      \"speedup\": {speedup:.2}\n",
                    "    }}"
                ),
                label = label,
                runs = runs,
                fast = fast,
                oracle = oracle,
                speedup = speedup,
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"exp_strategy\",\n",
            "  \"candidates\": {{\n",
            "    \"ladders\": {ladders},\n",
            "    \"installs_per_ladder\": {installs},\n",
            "    \"assumptions\": {assumptions},\n",
            "    \"incremental_ns_per_query\": {inc:.0},\n",
            "    \"rebuild_ns_per_query\": {reb:.0},\n",
            "    \"speedup\": {cspeed:.2}\n",
            "  }},\n",
            "  \"probe_loop\": {{\n",
            "    \"circuits\": \"three_stage(0.02), cascade({stages}, 1.2, 0.03), \
             ladder({branches})\",\n",
            "    \"policies\": \"fuzzy-entropy, probabilistic\",\n",
            "    \"byte_identical\": true,\n",
            "{probe_rows}\n",
            "  }},\n",
            "  \"planning\": {{\n",
            "    \"states\": {states},\n",
            "    \"fast_ns_per_state\": {pfast:.0},\n",
            "    \"oracle_ns_per_state\": {poracle:.0},\n",
            "    \"speedup\": {pspeed:.2}\n",
            "  }},\n",
            "  \"parallel\": {{\n",
            "    \"threads\": {threads},\n",
            "    \"boards\": {boards},\n",
            "    \"serial_ns_per_board\": {serial:.0},\n",
            "    \"parallel_ns_per_board\": {parallel:.0},\n",
            "    \"speedup\": {tspeed:.2}\n",
            "  }},\n",
            "  \"counters\": {counters}\n",
            "}}\n"
        ),
        ladders = LADDERS,
        installs = INSTALLS_PER_LADDER,
        assumptions = LADDER_ASSUMPTIONS,
        inc = incremental_ns,
        reb = rebuild_ns,
        cspeed = candidate_speedup,
        stages = CASCADE_STAGES,
        branches = LADDER_BRANCHES,
        probe_rows = probe_rows.join(",\n"),
        states = states,
        pfast = plan_fast_ns,
        poracle = plan_oracle_ns,
        pspeed = planning_speedup,
        threads = THREADS,
        boards = ladder.boards.len(),
        serial = serial_ns,
        parallel = parallel_ns,
        tspeed = parallel_speedup,
        counters = counters.to_json(1),
    );
    std::fs::write("BENCH_strategy.json", &json).expect("write BENCH_strategy.json");
    println!("{json}");

    assert!(
        candidate_speedup >= 3.0,
        "incremental candidate maintenance must be at least 3x the rebuild path, \
         measured {candidate_speedup:.2}x"
    );
    assert!(
        planning_speedup >= 3.0,
        "fast planning must be at least 3x oracle planning over the probe-loop \
         trajectories, measured {planning_speedup:.2}x"
    );
    for (label, _, _, _, speedup) in &rows {
        assert!(
            *speedup >= 0.9,
            "{label}: the fast probe loop must not regress the propagation-bound \
             full loop, measured {speedup:.2}x"
        );
    }
    assert!(
        parallel_speedup >= 0.8,
        "parallel fleet probing must not regress serial throughput, \
         measured {parallel_speedup:.2}x"
    );
}
