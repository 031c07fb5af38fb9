//! Learned-rule cache experiment: the rule-first fast path measured
//! over a seeded stream of recurring faults on the paper's Fig. 6
//! three-stage amplifier.
//!
//! A SplitMix64-seeded stream draws boards from eight fixed modes — one
//! healthy, seven distinct single-resistor drifts — the way a repair
//! bench sees the same few fault modes over and over (§7 of the paper:
//! learned symptom→fault rules answer recurring cases without firing
//! the model-based engine). Three correctness pre-gates run before any
//! timing is trusted:
//!
//! * **byte identity** — a cold store produces reports identical to
//!   [`flames_core::diagnose_batch_lanes`], and on the warm pass every
//!   *miss* report is still identical;
//! * **reader determinism** — suggestions computed on a pinned snapshot
//!   are identical across 1/2/4/8 reader threads while a writer hammers
//!   the store;
//! * **persistence** — a JSON round trip of the trained store suggests
//!   identically on every mode signature.
//!
//! Then the timed phases (learning frozen so both sides do fixed work):
//! warm store vs model-only on the same stream, gated at ≥ 2×, and an
//! empty store vs model-only, gated at ≥ 0.9× (the all-miss path may
//! not cost more than discretizing symptoms). The warm pass must serve
//! at least half the stream from rules. Writes `BENCH_learn.json` and
//! exits non-zero if any gate fails.

use flames_bench::harness::Harness;
use flames_bench::rng::SplitMix64;
use flames_circuit::circuits::{three_stage, ThreeStage};
use flames_circuit::fault::inject_faults;
use flames_circuit::predict::measure;
use flames_circuit::Fault;
use flames_core::learning::Symptom;
use flames_core::{
    board_symptoms, diagnose_batch_lanes, diagnose_batch_lanes_cached, Board, CacheConfig,
    Diagnoser, DiagnoserConfig, RuleStore,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0x5EED_F1A3;
const STREAM_LEN: usize = 48;
const TRAINING_PASSES: usize = 2;
const MEASURE_IMPRECISION: f64 = 0.02;
const WARM_SPEEDUP_GATE: f64 = 2.0;
const COLD_FLOOR_GATE: f64 = 0.9;
const HIT_RATE_GATE: f64 = 0.5;

/// The eight recurring modes: healthy plus seven drifts whose factors
/// are chosen so every mode discretizes to a *distinct* symptom vector
/// (asserted in `main` — e.g. r3 × 0.7 would collide with r1 × 1.4).
fn make_modes(ts: &ThreeStage) -> (Vec<&'static str>, Vec<Board>) {
    let variants = [
        ("healthy", None),
        ("r2 x1.3", Some((ts.r2, 1.3))),
        ("r4 x0.8", Some((ts.r4, 0.8))),
        ("r5 x1.25", Some((ts.r5, 1.25))),
        ("r1 x1.4", Some((ts.r1, 1.4))),
        ("r3 x1.3", Some((ts.r3, 1.3))),
        ("r6 x0.7", Some((ts.r6, 0.7))),
        ("r6 x1.2", Some((ts.r6, 1.2))),
    ];
    let boards = variants
        .iter()
        .map(|(_, fault)| {
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
                .map(|(idx, tp)| {
                    (
                        idx,
                        measure(&netlist, tp.net, MEASURE_IMPRECISION).expect("board solves"),
                    )
                })
                .collect()
        })
        .collect();
    (variants.iter().map(|(name, _)| *name).collect(), boards)
}

/// Asserts that reports agree pairwise (Debug form covers every field).
fn assert_reports_identical(
    label: &str,
    got: &[flames_core::CachedReport],
    want: &[flames_core::Report],
) {
    assert_eq!(got.len(), want.len());
    for (i, (c, e)) in got.iter().zip(want).enumerate() {
        assert!(
            c.provenance.is_none(),
            "{label}: board {i} unexpectedly served from a rule"
        );
        assert_eq!(
            format!("{:?}", c.report),
            format!("{e:?}"),
            "{label}: board {i} report drifted from the engine"
        );
    }
}

/// Pins one snapshot, hammers the store from a writer thread, and
/// checks that 1/2/4/8 concurrent readers all compute the suggestions
/// the pinned snapshot gave a single thread.
fn assert_reader_determinism(store: &Arc<RuleStore>, observations: &[Vec<Symptom>]) {
    let snapshot = store.snapshot();
    let expected: Vec<String> = observations
        .iter()
        .map(|obs| format!("{:?}", snapshot.suggest(obs)))
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let store = Arc::clone(store);
        let stop = Arc::clone(&stop);
        let seed: Vec<Symptom> = observations[0].clone();
        std::thread::spawn(move || {
            let mut k = 0u32;
            while !stop.load(Ordering::Relaxed) {
                store.learn(seed.clone(), format!("W{}", k % 5), None);
                store.disconfirm(&seed, &format!("W{}", (k + 2) % 5));
                k = k.wrapping_add(1);
            }
        })
    };
    for threads in [1usize, 2, 4, 8] {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let snapshot = Arc::clone(&snapshot);
                    scope.spawn(move || {
                        observations
                            .iter()
                            .map(|obs| format!("{:?}", snapshot.suggest(obs)))
                            .collect::<Vec<String>>()
                    })
                })
                .collect();
            for (t, h) in handles.into_iter().enumerate() {
                assert_eq!(
                    h.join().expect("reader thread"),
                    expected,
                    "reader {t} of {threads} diverged under live writes"
                );
            }
        });
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().expect("writer thread");
    assert!(
        store.epoch() > snapshot.epoch(),
        "the writer actually published new snapshots"
    );
}

#[allow(clippy::too_many_lines)]
fn main() {
    let ts = three_stage(0.05);
    let diagnoser = Diagnoser::from_netlist(
        &ts.netlist,
        ts.test_points.clone(),
        DiagnoserConfig::default(),
    )
    .expect("three-stage model compiles");
    let (mode_names, modes) = make_modes(&ts);
    let signatures: Vec<Vec<Symptom>> = modes
        .iter()
        .map(|b| board_symptoms(&diagnoser, b).expect("valid board"))
        .collect();
    for i in 0..signatures.len() {
        for j in i + 1..signatures.len() {
            assert_ne!(
                signatures[i], signatures[j],
                "modes {} and {} share a symptom signature",
                mode_names[i], mode_names[j]
            );
        }
    }

    // The seeded fault stream: uniform over the modes, so ~1/8 healthy
    // boards (which the cache never serves) and 7/8 recurring faults.
    let mut rng = SplitMix64::new(SEED);
    let mode_stream: Vec<usize> = (0..STREAM_LEN)
        .map(|_| rng.below(modes.len() as u64) as usize)
        .collect();
    let stream: Vec<Board> = mode_stream.iter().map(|&m| modes[m].clone()).collect();
    let healthy = mode_stream.iter().filter(|&&m| m == 0).count();

    let engine = diagnose_batch_lanes(&diagnoser, &stream, 1).expect("engine reference");
    let frozen = CacheConfig {
        learn: false,
        ..CacheConfig::default()
    };

    // ----- byte-identity pre-gates (before any timing is trusted) ----
    let empty = RuleStore::new();
    let cold =
        diagnose_batch_lanes_cached(&diagnoser, &empty, &frozen, &stream, 1, 64).expect("cold");
    assert_reports_identical("cold store", &cold, &engine);

    let store = Arc::new(RuleStore::new());
    let learning = CacheConfig::default();
    for _ in 0..TRAINING_PASSES {
        let _ = diagnose_batch_lanes_cached(&diagnoser, &store, &learning, &stream, 1, 64)
            .expect("training pass");
    }
    assert!(!store.is_empty(), "training populated the store");
    println!(
        "byte-identity gate passed: cold-store reports == engine for {} boards",
        stream.len()
    );

    // ----- hit rate + miss-path identity on the warm pass, counters --
    let before = flames_obs::MetricsSnapshot::capture();
    let warm = diagnose_batch_lanes_cached(&diagnoser, &store, &frozen, &stream, 1, 64)
        .expect("warm pass");
    let counters = flames_obs::MetricsSnapshot::capture().delta_since(&before);
    let mut hits = 0usize;
    for (i, c) in warm.iter().enumerate() {
        match &c.provenance {
            Some(p) => {
                hits += 1;
                assert!(p.score >= frozen.min_score, "board {i} hit below threshold");
                assert!(
                    mode_stream[i] != 0,
                    "board {i} is healthy yet served from a rule"
                );
            }
            None => assert_eq!(
                format!("{:?}", c.report),
                format!("{:?}", engine[i]),
                "board {i}: miss-path report drifted from the engine"
            ),
        }
    }
    let hit_rate = hits as f64 / stream.len() as f64;
    println!(
        "warm pass: {hits}/{} boards served from rules (hit rate {hit_rate:.2}, {healthy} healthy boards always solve)",
        stream.len()
    );

    // ----- reader determinism + persistence round trip --------------
    assert_reader_determinism(&store, &signatures);
    println!("reader-determinism gate passed: pinned-snapshot suggestions identical at 1/2/4/8 threads under live writes");
    let reloaded =
        RuleStore::from_json(&store.to_json(), store.max_rules()).expect("round trip parses");
    let live = store.snapshot();
    let back = reloaded.snapshot();
    for (sig, name) in signatures.iter().zip(&mode_names) {
        assert_eq!(
            live.suggest(sig),
            back.suggest(sig),
            "persistence round trip drifted on mode {name}"
        );
    }
    println!("persistence gate passed: JSON round trip suggests identically on every mode\n");

    // ----- timed phases (learning frozen: fixed work on both sides) --
    let h = Harness::new("exp_learn").with_budget(Duration::from_millis(1500));
    let warm_pair = h.bench_pair(
        "model_only",
        "rule_first_warm",
        || diagnose_batch_lanes(&diagnoser, &stream, 1).expect("engine"),
        || {
            diagnose_batch_lanes_cached(&diagnoser, &store, &frozen, &stream, 1, 64)
                .expect("warm cached")
        },
    );
    let cold_pair = h.bench_pair(
        "model_only",
        "rule_first_cold",
        || diagnose_batch_lanes(&diagnoser, &stream, 1).expect("engine"),
        || {
            diagnose_batch_lanes_cached(&diagnoser, &empty, &frozen, &stream, 1, 64)
                .expect("cold cached")
        },
    );
    let warm_speedup = warm_pair.a_over_b;
    let cold_ratio = cold_pair.a_over_b;

    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"exp_learn\",\n",
            "  \"circuit\": \"three_stage(0.05)\",\n",
            "  \"modes\": {modes},\n",
            "  \"stream_len\": {stream_len},\n",
            "  \"healthy_boards\": {healthy},\n",
            "  \"training_passes\": {passes},\n",
            "  \"rules_learned\": {rules},\n",
            "  \"byte_identical\": true,\n",
            "  \"reader_determinism\": true,\n",
            "  \"persistence_round_trip\": true,\n",
            "  \"hit_rate\": {hit_rate:.3},\n",
            "  \"rows\": {{\n",
            "    \"model_only_ns\": {model:.0},\n",
            "    \"rule_first_warm_ns\": {warm:.0},\n",
            "    \"rule_first_cold_ns\": {cold:.0}\n",
            "  }},\n",
            "  \"counters\": {counters},\n",
            "  \"warm_speedup\": {warm_speedup:.2},\n",
            "  \"cold_ratio\": {cold_ratio:.2}\n",
            "}}\n"
        ),
        modes = modes.len(),
        stream_len = STREAM_LEN,
        healthy = healthy,
        passes = TRAINING_PASSES,
        rules = store.len(),
        hit_rate = hit_rate,
        model = warm_pair.a_ns,
        warm = warm_pair.b_ns,
        cold = cold_pair.b_ns,
        counters = counters.to_json(2),
        warm_speedup = warm_speedup,
        cold_ratio = cold_ratio,
    );
    std::fs::write("BENCH_learn.json", &json).expect("write BENCH_learn.json");
    println!("\n{json}");

    assert!(
        hit_rate >= HIT_RATE_GATE,
        "warm hit rate must be at least {HIT_RATE_GATE}, measured {hit_rate:.2}"
    );
    assert!(
        warm_speedup >= WARM_SPEEDUP_GATE,
        "warm rule-first serving must be at least {WARM_SPEEDUP_GATE}x model-only, measured {warm_speedup:.2}x"
    );
    assert!(
        cold_ratio >= COLD_FLOOR_GATE,
        "an all-miss stream must stay within {COLD_FLOOR_GATE}x of model-only, measured {cold_ratio:.2}x"
    );
}
