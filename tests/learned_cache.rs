//! The learned-rule cache tier, end to end: the rule-first fast path
//! must be *invisible* wherever it does not fire — an empty store, a
//! disabled cache, and every miss-path board produce reports (and
//! served bytes) identical to the model-based engine — and *provenant*
//! where it does: a confident hit short-circuits propagation and says
//! which rule answered. Snapshot reads must also be deterministic under
//! concurrency: suggestions computed on a pinned snapshot are identical
//! across 1/2/4/8 reader threads while a writer hammers the store.

use flames::circuit::circuits::three_stage;
use flames::circuit::fault::inject_faults;
use flames::circuit::predict::measure;
use flames::circuit::Fault;
use flames::core::learning::{Severity, Symptom};
use flames::core::{
    board_symptoms, diagnose_batch_lanes, diagnose_batch_lanes_cached, Board, CacheConfig,
    Diagnoser, DiagnoserConfig, RuleStore,
};
use flames::fuzzy::Direction;
use flames::serve::protocol::render_response;
use flames::serve::{diagnose_boards, diagnose_boards_cached};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The three-stage board set: one healthy board plus five recurring
/// soft-fault modes, every test point probed.
fn fixture() -> (Diagnoser, Vec<Board>) {
    let ts = three_stage(0.05);
    let diagnoser = Diagnoser::from_netlist(
        &ts.netlist,
        ts.test_points.clone(),
        DiagnoserConfig::default(),
    )
    .expect("three-stage model compiles");
    // Factors chosen so the six boards discretize to six *distinct*
    // symptom vectors (asserted below — e.g. r3 × 0.7 would collide
    // with r1 × 1.4).
    let variants = [
        None,
        Some((ts.r2, 1.3)),
        Some((ts.r4, 0.8)),
        Some((ts.r5, 1.25)),
        Some((ts.r1, 1.4)),
        Some((ts.r3, 1.3)),
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

#[test]
fn empty_store_and_disabled_cache_match_the_engine_exactly() {
    let (diagnoser, boards) = fixture();
    let expected = diagnose_batch_lanes(&diagnoser, &boards, 1).expect("batch");

    // A cold store never hits, so every report rides the model path.
    let store = RuleStore::new();
    let config = CacheConfig {
        learn: false,
        ..CacheConfig::default()
    };
    let cold =
        diagnose_batch_lanes_cached(&diagnoser, &store, &config, &boards, 1, 64).expect("cached");
    for (c, e) in cold.iter().zip(&expected) {
        assert!(c.provenance.is_none(), "cold store cannot hit");
        assert_eq!(format!("{:?}", c.report), format!("{e:?}"));
    }

    // A disabled cache is a pass-through even over a trained store.
    let trained = RuleStore::new();
    let learning = CacheConfig::default();
    for _ in 0..3 {
        let _ = diagnose_batch_lanes_cached(&diagnoser, &trained, &learning, &boards, 1, 64)
            .expect("training pass");
    }
    assert!(!trained.is_empty(), "training populated the store");
    let disabled = CacheConfig {
        enabled: false,
        ..CacheConfig::default()
    };
    let off = diagnose_batch_lanes_cached(&diagnoser, &trained, &disabled, &boards, 1, 64)
        .expect("cached");
    for (c, e) in off.iter().zip(&expected) {
        assert!(c.provenance.is_none());
        assert_eq!(format!("{:?}", c.report), format!("{e:?}"));
    }
}

#[test]
fn recurring_faults_hit_after_training_and_carry_provenance() {
    let (diagnoser, boards) = fixture();
    // The six boards must discretize to six distinct symptom vectors —
    // otherwise two fault modes are indistinguishable to any
    // symptom-level cache and the fixture needs different factors.
    let signatures: Vec<_> = boards
        .iter()
        .map(|b| board_symptoms(&diagnoser, b).expect("valid board"))
        .collect();
    for i in 0..signatures.len() {
        for j in i + 1..signatures.len() {
            assert_ne!(
                signatures[i], signatures[j],
                "boards {i} and {j} share a symptom signature"
            );
        }
    }

    let store = RuleStore::new();
    let config = CacheConfig::default();
    // Two training passes: a rule needs two confirmations (0.5 → 0.65)
    // to clear the default 0.6 hit threshold.
    for _ in 0..2 {
        let out = diagnose_batch_lanes_cached(&diagnoser, &store, &config, &boards, 1, 64)
            .expect("training pass");
        assert!(out.iter().all(|c| c.provenance.is_none()));
    }
    let expected = diagnose_batch_lanes(&diagnoser, &boards, 1).expect("batch");
    let warm = diagnose_batch_lanes_cached(&diagnoser, &store, &config, &boards, 1, 64)
        .expect("warm pass");
    // The healthy board (index 0) is never served from the cache; every
    // recurring fault now is.
    assert!(warm[0].provenance.is_none(), "healthy boards always solve");
    assert_eq!(
        format!("{:?}", warm[0].report),
        format!("{:?}", expected[0])
    );
    for (i, c) in warm.iter().enumerate().skip(1) {
        let p = c.provenance.as_ref().unwrap_or_else(|| {
            panic!(
                "board {i} missed after training: {:?}",
                store.suggest(&signatures[i])
            )
        });
        assert!(p.score >= config.min_score);
        assert!(p.confirmations >= 2);
        // The hit never ran propagation: no nogoods, the rule's culprit
        // as the single candidate, and the culprit agrees with the full
        // engine's refined verdict.
        assert!(c.report.nogoods.is_empty());
        assert_eq!(c.report.candidates.len(), 1);
        assert_eq!(c.report.candidates[0].members, vec![p.culprit.clone()]);
        let engine_top = expected[i]
            .refined
            .first()
            .or_else(|| expected[i].candidates.first())
            .expect("faulty board has candidates");
        assert_eq!(
            engine_top.members.first(),
            Some(&p.culprit),
            "board {i}: cache and engine disagree on the culprit"
        );
        // The graded points are exactly the engine's.
        assert_eq!(
            format!("{:?}", c.report.points),
            format!("{:?}", expected[i].points)
        );
    }
}

#[test]
fn served_miss_bytes_are_unchanged_and_hits_render_provenance() {
    let (diagnoser, boards) = fixture();
    let baseline = render_response(&diagnose_boards(&diagnoser, &boards, true).expect("wave"));

    // Cold store, learning off: served bytes are byte-identical to the
    // cache-less wave.
    let store = RuleStore::new();
    let frozen = CacheConfig {
        learn: false,
        ..CacheConfig::default()
    };
    let cold = render_response(
        &diagnose_boards_cached(&diagnoser, &boards, true, &store, &frozen).expect("wave"),
    );
    assert_eq!(cold, baseline, "cold-cache bytes drifted");

    // Train through the serving path, then a warm wave: fault boards
    // gain a rule_provenance member, the healthy board's bytes stay.
    let config = CacheConfig::default();
    for _ in 0..2 {
        let _ = diagnose_boards_cached(&diagnoser, &boards, true, &store, &config).expect("wave");
    }
    let warm = diagnose_boards_cached(&diagnoser, &boards, true, &store, &config).expect("wave");
    let body = render_response(&warm);
    let parsed = flames::obs::json::parse(&body).expect("valid JSON");
    let rendered_boards = parsed.member("boards").unwrap().as_array().unwrap();
    assert_eq!(rendered_boards.len(), boards.len());
    assert!(
        rendered_boards[0].member("rule_provenance").is_none(),
        "healthy board must not carry provenance"
    );
    for (i, b) in rendered_boards.iter().enumerate().skip(1) {
        let p = b
            .member("rule_provenance")
            .unwrap_or_else(|| panic!("board {i} served without provenance"));
        assert!(p.member("culprit").unwrap().as_str().is_some());
        assert!(p.member("score").unwrap().as_f64().unwrap() >= config.min_score);
        // Hits skip the planner: the rule already names the culprit.
        assert_eq!(
            b.member("next_probe").unwrap(),
            &flames::obs::json::Value::Null
        );
    }
}

#[test]
fn pinned_snapshot_suggestions_are_identical_across_reader_thread_counts() {
    let sym = |point: &str, dir: Direction, sev: Severity| Symptom {
        point: point.to_owned(),
        direction: dir,
        severity: sev,
    };
    let store = Arc::new(RuleStore::new());
    let dirs = [Direction::Low, Direction::High, Direction::Within];
    let sevs = [
        Severity::Total,
        Severity::Strong,
        Severity::Slight,
        Severity::Consistent,
    ];
    for k in 0..24 {
        store.learn(
            vec![
                sym(&format!("V{}", k % 5), dirs[k % 3], sevs[k % 4]),
                sym(
                    &format!("V{}", (k + 2) % 5),
                    dirs[(k + 1) % 3],
                    sevs[(k + 1) % 4],
                ),
            ],
            format!("R{}", k % 7),
            (k % 2 == 0).then(|| "open".to_owned()),
        );
    }
    let observations: Vec<Vec<Symptom>> = (0..12)
        .map(|k| {
            vec![
                sym(&format!("V{}", k % 5), dirs[k % 3], sevs[k % 4]),
                sym(&format!("V{}", (k + 1) % 5), dirs[(k + 2) % 3], sevs[k % 4]),
            ]
        })
        .collect();

    // Pin one snapshot, then keep a writer mutating the store the whole
    // time: pinned reads must neither block nor waver.
    let snapshot = store.snapshot();
    let expected: Vec<String> = observations
        .iter()
        .map(|obs| format!("{:?}", snapshot.suggest(obs)))
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut k = 0usize;
            while !stop.load(Ordering::Relaxed) {
                store.learn(
                    vec![sym(&format!("V{}", k % 5), dirs[k % 3], sevs[k % 4])],
                    format!("W{}", k % 11),
                    None,
                );
                store.disconfirm(
                    &[sym(&format!("V{}", k % 5), dirs[k % 3], sevs[k % 4])],
                    &format!("W{}", (k + 3) % 11),
                );
                k += 1;
            }
        })
    };
    for threads in [1usize, 2, 4, 8] {
        let mut results: Vec<Vec<String>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let snapshot = Arc::clone(&snapshot);
                    let observations = &observations;
                    scope.spawn(move || {
                        observations
                            .iter()
                            .map(|obs| format!("{:?}", snapshot.suggest(obs)))
                            .collect::<Vec<String>>()
                    })
                })
                .collect();
            for h in handles {
                results.push(h.join().expect("reader thread"));
            }
        });
        for (t, r) in results.iter().enumerate() {
            assert_eq!(
                r, &expected,
                "reader {t} of {threads} diverged under live writes"
            );
        }
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().expect("writer thread");
    assert!(
        store.epoch() > snapshot.epoch(),
        "the writer actually published new snapshots"
    );

    // The live store and a JSON round-trip of it still agree with the
    // linear-scan semantics on every observation.
    let reloaded =
        RuleStore::from_json(&store.to_json(), store.max_rules()).expect("round trip parses");
    let now = store.snapshot();
    let back = reloaded.snapshot();
    for obs in &observations {
        assert_eq!(now.suggest(obs), back.suggest(obs));
    }
}
