//! Serving determinism at the *metrics* level: the kernel-side counter
//! deltas of a batch diagnosis (`atms.*` and `core.*` prefixes) must
//! not depend on how many worker threads `diagnose_batch_lanes` uses. The
//! pool-side `serve.*` counters legitimately do — a 4-thread run opens
//! four pooled sessions where a sequential run reuses one — which is
//! exactly why [`MetricsSnapshot::with_prefixes`] exists. The same
//! process also pins the probe-planning counters: the fast probe loop
//! must be served incrementally (memo + candidate updates, zero
//! rebuilds), and the retained oracle loop must count its rebuilds.
//! Last, a `GET /trace/:id` replay must leave the admission, wave and
//! learned-rule counters alone: it rebuilds a trace, it serves no board.
//!
//! This file deliberately holds a single `#[test]` and is its own
//! integration-test binary: the counters are process-global atomics, so
//! any other test running in a sibling thread of the same process would
//! perturb the deltas. A separate binary gets a separate process.
//!
//! [`MetricsSnapshot::with_prefixes`]: flames::obs::MetricsSnapshot::with_prefixes

use flames::circuit::circuits::three_stage;
use flames::circuit::fault::inject_faults;
use flames::circuit::predict::measure;
use flames::circuit::Fault;
use flames::core::strategy::{probe_until_isolated, probe_until_isolated_oracle, Policy};
use flames::core::{diagnose_batch_lanes, Board, Diagnoser, DiagnoserConfig};
use flames::obs::MetricsSnapshot;

#[test]
fn kernel_counter_deltas_are_thread_count_invariant() {
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
        Some((ts.r1, 1.4)),
        Some((ts.r3, 0.7)),
    ];
    let boards: Vec<Board> = variants
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

    let kernel = ["atms.", "core."];
    let mut deltas = Vec::new();
    let mut reports = Vec::new();
    for threads in [1, 2, 4] {
        let before = MetricsSnapshot::capture();
        let out = diagnose_batch_lanes(&diagnoser, &boards, threads).expect("batch diagnoses");
        deltas.push(MetricsSnapshot::capture().delta_since(&before));
        reports.push(format!("{out:?}"));
    }
    assert_eq!(reports[0], reports[1], "reports diverge at 2 threads");
    assert_eq!(reports[0], reports[2], "reports diverge at 4 threads");
    let rows: Vec<Vec<(&str, u64)>> = deltas
        .iter()
        .map(|d| d.with_prefixes(&kernel).collect())
        .collect();
    assert_eq!(rows[0], rows[1], "kernel counters diverge at 2 threads");
    assert_eq!(rows[0], rows[2], "kernel counters diverge at 4 threads");

    // With observability compiled in, the batch must actually have
    // moved the kernel counters; compiled out, every delta reads zero.
    let moved = rows[0].iter().any(|&(_, v)| v > 0);
    assert_eq!(moved, flames::obs::enabled());
    if flames::obs::enabled() {
        for name in [
            "atms.env_intern_hits",
            "atms.nogood_installs",
            "core.waves",
            "core.constraint_apps",
            "core.coincidence_total_conflicts",
        ] {
            assert!(
                deltas[0].get(name) > 0,
                "{name} did not move over a conflicting batch"
            );
        }
    }

    // Probe planning: a guided probe-until-isolated loop must be served
    // entirely by the incremental planner — candidate updates replayed
    // from the install log, entropy terms from the memo, never the
    // oracle rebuild path.
    let readings = &boards[1]; // the r2-drift board: conflicts guaranteed
    let before = MetricsSnapshot::capture();
    let mut session = diagnoser.session();
    probe_until_isolated(&mut session, Policy::FuzzyEntropy, 0.05, &|i| readings[i].1)
        .expect("probe loop runs");
    let plan = MetricsSnapshot::capture().delta_since(&before);
    if flames::obs::enabled() {
        for name in [
            "strategy.probe_evals",
            "fuzzy.entropy_memo_hit",
            "fuzzy.entropy_memo_miss",
            "atms.candidates_incremental",
        ] {
            assert!(plan.get(name) > 0, "{name} did not move over a probe loop");
        }
        assert_eq!(
            plan.get("atms.candidates_rebuilt"),
            0,
            "the fast probe loop fell back to the oracle rebuild path"
        );
    } else {
        for name in [
            "strategy.probe_evals",
            "fuzzy.entropy_memo_hit",
            "fuzzy.entropy_memo_miss",
            "atms.candidates_incremental",
            "atms.candidates_rebuilt",
        ] {
            assert_eq!(plan.get(name), 0, "{name} moved with obs compiled out");
        }
    }

    // The retained oracle loop is the one path allowed to rebuild.
    let before = MetricsSnapshot::capture();
    let mut session = diagnoser.session();
    probe_until_isolated_oracle(&mut session, Policy::FuzzyEntropy, 0.05, &|i| readings[i].1)
        .expect("oracle probe loop runs");
    let oracle = MetricsSnapshot::capture().delta_since(&before);
    assert_eq!(
        oracle.get("atms.candidates_rebuilt") > 0,
        flames::obs::enabled(),
        "the oracle loop must re-enumerate candidates (and count it)"
    );

    // Region-sharded engine: a multi-shard diagnosis must exchange
    // boundary environments, deliver cross-shard nogoods, and count its
    // per-shard waves; a 1-shard run has nothing to exchange. (Same
    // process, same single #[test] — the shard.* counters are the same
    // process-global atomics.)
    use flames::circuit::circuits::{hierarchy, HierarchySpec};
    use flames::circuit::constraint::{extract, ExtractOptions};
    use flames::core::propagation::PropagatorConfig;
    use flames::core::ShardedModel;
    let h = hierarchy(HierarchySpec::small(7));
    let (regions, count) = h.sparse_regions();
    let config = PropagatorConfig {
        max_steps: 5_000_000,
        ..PropagatorConfig::default()
    };
    // Two soft drifts: a backbone shunt (conflicts at the shared taps)
    // and a block divider resistor (a conflict interior to one block
    // shard whose environment spans the cut — it must be delivered).
    let board = inject_faults(
        &h.netlist,
        &[
            (h.backbone_shunt[1], Fault::ParamFactor(1.15)),
            (h.blocks[2][2], Fault::ParamFactor(1.25)),
        ],
    )
    .expect("drift injection");
    let shard_readings = h.readings(&board, 0.02).expect("replica solves");
    let run_sharded = |shards: usize| {
        let before = MetricsSnapshot::capture();
        let model = ShardedModel::new(
            h.netlist.clone(),
            extract(&h.netlist, ExtractOptions::default()),
            h.test_points.clone(),
            h.predictions().expect("replica solves"),
            &regions,
            count,
            shards,
            config,
        );
        let mut session = model.session();
        for (idx, r) in shard_readings.iter().enumerate() {
            session.measure_point(idx, *r).expect("point exists");
        }
        session.propagate();
        assert!(!session.report().nogoods.is_empty());
        MetricsSnapshot::capture().delta_since(&before)
    };
    let solo = run_sharded(1);
    let quad = run_sharded(4);
    if flames::obs::enabled() {
        assert!(quad.get("shard.waves") > 0, "shard.waves did not move");
        assert!(
            quad.get("shard.boundary_envs") > 0,
            "a 4-shard run must exchange boundary environments"
        );
        assert!(
            quad.get("shard.cross_nogoods") > 0,
            "the backbone fault's conflict must cross the cut"
        );
        assert_eq!(
            solo.get("shard.boundary_envs"),
            0,
            "a 1-shard run has no boundary to exchange"
        );
        assert_eq!(solo.get("shard.cross_nogoods"), 0);
    } else {
        for (name, delta) in [
            ("shard.waves", &quad),
            ("shard.boundary_envs", &quad),
            ("shard.cross_nogoods", &quad),
        ] {
            assert_eq!(delta.get(name), 0, "{name} moved with obs compiled out");
        }
    }

    // Learned-rule cache: a cold→train→warm cycle over the recurring
    // boards must count its misses (cold store), fallbacks (rules known
    // but still below the hit threshold), and hits (trained rules), and
    // an overflowing bounded store must count evictions. The cache
    // itself works with observability compiled out — hits still carry
    // provenance — but every `learn.*` counter then stays zero.
    use flames::core::learning::{Severity, Symptom};
    use flames::core::{diagnose_batch_lanes_cached, CacheConfig, RuleStore};
    use flames::fuzzy::Direction;
    let store = RuleStore::new();
    let cache = CacheConfig::default();
    let before = MetricsSnapshot::capture();
    for _ in 0..2 {
        diagnose_batch_lanes_cached(&diagnoser, &store, &cache, &boards, 1, 64)
            .expect("training pass");
    }
    let warm =
        diagnose_batch_lanes_cached(&diagnoser, &store, &cache, &boards, 1, 64).expect("warm pass");
    let hits = warm.iter().filter(|c| c.provenance.is_some()).count() as u64;
    assert!(hits > 0, "no recurring board hit after training");
    // Overflow a store bounded at one rule: the second distinct rule
    // evicts the first.
    let tiny = RuleStore::with_capacity(1);
    let tiny_sym = |point: &str| Symptom {
        point: point.to_owned(),
        direction: Direction::Low,
        severity: Severity::Total,
    };
    tiny.learn(vec![tiny_sym("V1")], "R1", None);
    tiny.learn(vec![tiny_sym("V2")], "R2", None);
    assert_eq!(tiny.len(), 1);
    let learn_delta = MetricsSnapshot::capture().delta_since(&before);
    if flames::obs::enabled() {
        assert!(
            learn_delta.get("learn.miss") > 0,
            "cold-store boards must count as misses"
        );
        assert!(
            learn_delta.get("learn.fallback") > 0,
            "half-trained rules must count as fallbacks"
        );
        assert!(
            learn_delta.get("learn.hit") >= hits,
            "every provenance-carrying report counts as a hit"
        );
        assert_eq!(
            learn_delta.get("learn.evicted"),
            1,
            "the bounded store evicted exactly one rule"
        );
    } else {
        for name in ["learn.hit", "learn.miss", "learn.fallback", "learn.evicted"] {
            assert_eq!(
                learn_delta.get(name),
                0,
                "{name} moved with obs compiled out"
            );
        }
    }

    // A trace replay is not a served board. `GET /trace/:id` rebuilds
    // the request's traces on a session of its own, so it moves the
    // session and kernel counters but none of the admission, wave or
    // learned-rule counters — even on a server whose store learns
    // (the default `CacheConfig`).
    use flames::serve::{serve, Client, ServeConfig};
    use std::sync::Arc;
    let handle = serve(
        "127.0.0.1:0",
        diagnoser.clone(),
        ServeConfig {
            rule_store: Some(Arc::new(RuleStore::new())),
            ..ServeConfig::default()
        },
    )
    .expect("server binds");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    let body = format!(
        "{{\"boards\": [[{{\"point\": 0, \"value\": {}}}]]}}",
        boards[1][0].1.core_lo()
    );
    let served = client.diagnose(&body).expect("request served");
    assert_eq!(served.status, 200, "{}", served.body);
    let id = served
        .header("x-request-id")
        .expect("request id")
        .to_owned();
    let before = MetricsSnapshot::capture();
    let trace = client
        .request("GET", &format!("/trace/{id}"), None)
        .expect("trace served");
    assert_eq!(trace.status, 200, "{}", trace.body);
    let replay = MetricsSnapshot::capture().delta_since(&before);
    handle.shutdown();
    for name in [
        "serve.accepted",
        "serve.coalesced",
        "serve.boards_diagnosed",
        "serve.deduped_boards",
    ] {
        assert_eq!(replay.get(name), 0, "a trace replay moved {name}");
    }
    for (name, delta) in replay.with_prefixes(&["learn."]) {
        assert_eq!(delta, 0, "a trace replay moved {name}");
    }
    if flames::obs::enabled() {
        assert_eq!(replay.get("serve.sessions_opened"), 1);
        for name in ["core.waves", "core.constraint_apps"] {
            assert!(replay.get(name) > 0, "{name} did not move over a replay");
        }
    }
}
