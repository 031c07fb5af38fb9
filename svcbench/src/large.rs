//! `build_large`: the region-sharded engine on a mid-size hierarchical
//! board, in-process.
//!
//! Set-up extracts the model, computes the compositional predictions
//! and builds a 2-shard [`ShardedModel`] over the boundary-sparse
//! partition, then serves one healthy warm-up board. The timed phase
//! diagnoses the seeded drifted boards one after another through a
//! [`ShardedSession`] on a fixed probe set. Every repeat of a board must
//! reproduce its first candidates, and on a fixed subset the sharded
//! candidates must equal the flat [`Diagnoser`]'s.

use crate::boards::{self, Labeled, Rng};
use crate::spans::Recorder;
use crate::stats::{self, HostProbe};
use crate::Outcome;
use flames_circuit::circuits::{hierarchy, Hierarchy, HierarchySpec};
use flames_circuit::constraint::{extract, ExtractOptions};
use flames_core::propagation::PropagatorConfig;
use flames_core::{Candidate, Diagnoser, DiagnoserConfig, ShardedModel, ShardedSession};
use flames_obs::MetricsSnapshot;
use std::time::{Duration, Instant};

/// 6 taps × 6-section blocks = 127 components: a build of most of a
/// second, so set-up dominates, with boards cheap enough (~80 ms) for
/// a run to time a hundred or more of them.
const SPEC: HierarchySpec = HierarchySpec {
    backbone_sections: 6,
    block_sections: 6,
    tolerance: 0.01,
    seed: 7,
};
const SHARDS: usize = 2;
/// Set-ups per run, before and after the timed phase; `setup_s` is the
/// median of all of them.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 4;
/// Pool boards whose sharded candidates are checked against the flat
/// engine on every run.
const FLAT_CHECKED: usize = 3;
/// Whole passes over the pool the timed phase makes at least, however
/// long they take, so every board is timed several times.
const MIN_PASSES: usize = 3;

fn config() -> PropagatorConfig {
    // The sharded suites' uniform step cap: every shard count and the
    // flat reference must run the same config.
    PropagatorConfig {
        max_steps: 5_000_000,
        ..PropagatorConfig::default()
    }
}

fn set_up(h: &Hierarchy, regions: &[u32], count: usize, rec: &mut Recorder) -> ShardedModel {
    let network = rec.leaf("extract", 0, || {
        extract(&h.netlist, ExtractOptions::default())
    });
    let predictions = rec.leaf("Hierarchy::predictions", 0, || {
        h.predictions().expect("replica solves")
    });
    rec.leaf("ShardedModel::new", 0, || {
        ShardedModel::new(
            h.netlist.clone(),
            network,
            h.test_points.clone(),
            predictions,
            regions,
            count,
            SHARDS,
            config(),
        )
    })
}

/// Diagnoses one board's probe readings on `session`, one span per call.
fn diagnose(
    session: &mut ShardedSession<'_>,
    board: &Labeled,
    probes: &[usize],
    id: u64,
    rec: &mut Recorder,
) -> Vec<Candidate> {
    let span = rec.enter("board", id);
    rec.leaf("ShardedSession::reset+measure_point", id, || {
        session.reset();
        for &p in probes {
            session
                .measure_point(p, board.board[p].1)
                .expect("probe point exists");
        }
    });
    rec.leaf("ShardedSession::propagate", id, || session.propagate());
    let report = rec.leaf("ShardedSession::report", id, || session.report());
    rec.exit(span);
    report.candidates
}

#[allow(clippy::too_many_lines)] // one workload, phase by phase
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let origin = Instant::now();
    let mut out = Outcome::default();
    let mut rec = Recorder::new(origin, trace);

    // ----- inputs ---------------------------------------------------
    let h = hierarchy(SPEC);
    let (regions, count) = h.sparse_regions();
    let mut rng = Rng::new(seed);
    let pool = boards::large_pool(&h, &mut rng);
    let probes = boards::large_probes(&h);
    let healthy: Labeled = Labeled {
        board: h
            .readings(&h.netlist, boards::IMPRECISION)
            .expect("replica solves")
            .into_iter()
            .enumerate()
            .collect(),
        culprit: None,
    };

    // ----- set-up, repeated -----------------------------------------
    let host = HostProbe::new();
    let mut setup_times = Vec::with_capacity(SETUPS_BEFORE + SETUPS_AFTER);
    let mut timed_setup = |rec: &mut Recorder| {
        let scale = host.scale();
        let start = Instant::now();
        let built = set_up(&h, &regions, count, rec);
        let mut session = built.session();
        rec.leaf("warmup", 0, || {
            diagnose(
                &mut session,
                &healthy,
                &probes,
                0,
                &mut Recorder::new(origin, false),
            )
        });
        drop(session);
        setup_times.push(start.elapsed().as_secs_f64() * scale);
        built
    };
    let mut model = None;
    for _ in 0..SETUPS_BEFORE {
        drop(model.take());
        model = Some(timed_setup(&mut rec));
    }
    let model = model.expect("at least one set-up");

    // ----- flat references on a fixed subset ------------------------
    let flat_from = rec.spans().len();
    let network = extract(&h.netlist, ExtractOptions::default());
    let flat = rec.leaf("Diagnoser::from_network", 0, || {
        Diagnoser::from_network(
            &h.netlist,
            network.clone(),
            h.test_points.clone(),
            h.predictions().expect("replica solves"),
            DiagnoserConfig {
                propagator: config(),
                ..DiagnoserConfig::default()
            },
        )
    });
    let flat_expected: Vec<Vec<Candidate>> = pool[..FLAT_CHECKED]
        .iter()
        .enumerate()
        .map(|(i, board)| {
            let id = i as u64;
            let mut session = rec.leaf("Session::measure_point", id, || {
                let mut s = flat.session();
                for &p in &probes {
                    s.measure_point(p, board.board[p].1).expect("probe point");
                }
                s
            });
            rec.leaf("Session::propagate", id, || session.propagate());
            rec.leaf("Session::report", id, || session.report())
                .candidates
        })
        .collect();

    // ----- the timed phase ------------------------------------------
    let mut session = model.session();
    let mut first: Vec<Option<Vec<Candidate>>> = vec![None; pool.len()];
    let mut latencies = Vec::new();
    let mut first_pass = None;
    let before = MetricsSnapshot::capture();
    let timed_from = rec.spans().len();
    let begin = origin.elapsed().as_secs_f64();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut k = 0usize;
    while Instant::now() < deadline || k < MIN_PASSES * pool.len() {
        let scale = host.scale();
        let i = k % pool.len();
        let start = origin.elapsed().as_secs_f64();
        let got = diagnose(&mut session, &pool[i], &probes, k as u64, &mut rec);
        let end = origin.elapsed().as_secs_f64();
        k += 1;
        out.attempted += 1;
        let ok = match &first[i] {
            Some(want) => *want == got,
            None => {
                first[i] = Some(got);
                true
            }
        };
        if ok {
            latencies.push((i, (end - start) * 1e3, scale));
        } else {
            out.failed += 1;
        }
        if k == pool.len() {
            first_pass = Some(MetricsSnapshot::capture().delta_since(&before));
        }
    }
    let phase_s = origin.elapsed().as_secs_f64() - begin;
    let timed_to = rec.spans().len();
    let first: Vec<Vec<Candidate>> = first
        .into_iter()
        .map(|c| c.expect("every board ran at least once"))
        .collect();
    let flat_mismatch = (0..FLAT_CHECKED)
        .filter(|&i| first[i] != flat_expected[i])
        .count();
    out.check(flat_mismatch == 0, || {
        format!("{flat_mismatch} sharded boards differ from the flat engine")
    });
    let faulty = pool.iter().filter(|b| b.culprit.is_some()).count();
    let top1 = pool.iter().zip(&first).filter(|(b, c)| b.top1(c)).count();
    out.set("top1_accuracy", top1 as f64 / faulty.max(1) as f64);
    let Some(by_board) = stats::per_request(
        latencies.iter().map(|&(i, ms, scale)| (i, ms * scale)),
        pool.len(),
    ) else {
        out.check(false, || "a pool board never passed its check".to_owned());
        return out;
    };
    // Each board's typical time; p50, tail and throughput are taken over
    // the pool, so every board weighs the same.
    let costs: Vec<f64> = by_board.iter().map(|t| stats::median(t)).collect();
    let (tail_ms, tail_p) = stats::tail(&costs);
    out.set(
        "throughput_boards_per_s",
        pool.len() as f64 / (costs.iter().sum::<f64>() / 1e3),
    );
    out.set("latency_p50_ms", stats::median(&costs));
    out.set("latency_tail_ms", tail_ms);
    out.set("peak_rss_mb", stats::peak_rss_mb());
    out.set("ok_share", latencies.len() as f64 / out.attempted as f64);
    for _ in 0..SETUPS_AFTER {
        drop(timed_setup(&mut rec));
    }
    out.set("setup_s", stats::median(&setup_times));
    out.note("tail_percentile", crate::num(tail_p));
    out.note("boards_timed", latencies.len().to_string());
    let unscaled: Vec<f64> = latencies.iter().map(|&(_, ms, _)| ms).collect();
    let scales: Vec<f64> = latencies.iter().map(|&(_, _, scale)| scale).collect();
    out.note(
        "unscaled",
        format!(
            "{{\"p50_ms\":{},\"boards_per_s\":{},\"probe_scale_p50\":{}}}",
            crate::num(stats::median(&unscaled)),
            crate::num(unscaled.len() as f64 / phase_s),
            crate::num(stats::median(&scales))
        ),
    );
    out.note(
        "failed_share",
        crate::num(out.failed as f64 / out.attempted as f64),
    );
    out.note(
        "load",
        format!(
            "{{\"shape\":\"one in-process thread, boards back to back\",\"components\":{},\"shards\":{SHARDS},\"probes\":{},\"boards_in_pool\":{},\"flat_checked\":{FLAT_CHECKED},\"mix\":\"3 backbone-series, 2 backbone-shunt, 7 observed-block drifts, 4 boards each\"}}",
            SPEC.component_count(),
            probes.len(),
            pool.len()
        ),
    );
    out.note(
        "top1",
        format!("{{\"heads\":{top1},\"faulty_boards\":{faulty}}}"),
    );
    if !trace {
        return out;
    }

    // ----- traced run: layer split ----------------------------------
    out.set(
        "traced.throughput_boards_per_s",
        out.metrics["throughput_boards_per_s"],
    );
    let setup_self = rec.self_seconds(0..rec.spans().len());
    let per_setup = |name: &str| {
        setup_self.get(name).copied().unwrap_or(0.0) / (SETUPS_BEFORE + SETUPS_AFTER) as f64
    };
    out.set("circuit.extract_ms", per_setup("extract") * 1e3);
    out.set(
        "circuit.predictions_ms",
        per_setup("Hierarchy::predictions") * 1e3,
    );
    out.set("shard.build_s", per_setup("ShardedModel::new"));
    let flat_self = rec.self_seconds(flat_from..timed_from);
    let flat_s = |name: &str| flat_self.get(name).copied().unwrap_or(0.0);
    out.set("model.flat_build_s", flat_s("Diagnoser::from_network"));
    let per_flat = |name: &str| flat_s(name) * 1e3 / FLAT_CHECKED as f64;
    out.set("engine.measure_ms", per_flat("Session::measure_point"));
    out.set("engine.propagate_ms", per_flat("Session::propagate"));
    out.set("engine.report_ms", per_flat("Session::report"));
    let schedule_ms = crate::time_schedule_build(&h.netlist, &network, config(), &mut rec);
    out.set("schedule.build_ms", schedule_ms);

    let timed_self = rec.self_seconds(timed_from..timed_to);
    let boards_timed = k.max(1) as f64;
    let timed = |name: &str| timed_self.get(name).copied().unwrap_or(0.0) * 1e3 / boards_timed;
    out.set(
        "shard.measure_ms",
        timed("ShardedSession::reset+measure_point"),
    );
    out.set("shard.propagate_ms", timed("ShardedSession::propagate"));
    out.set("shard.report_ms", timed("ShardedSession::report"));
    let wall: f64 = rec.durations("board", timed_from).iter().sum();
    let attributed: f64 = timed_self
        .iter()
        .filter(|(name, _)| **name != "board")
        .map(|(_, s)| s)
        .sum();
    let unattributed = (wall - attributed) / wall;
    out.set("replay.unattributed_share", unattributed);
    out.check(unattributed.abs() <= 0.10, || {
        format!("layer self times leave {unattributed} of the timed wall time unattributed")
    });

    if let Some(delta) = &first_pass {
        let n = pool.len();
        let per = |name: &str| delta.get(name) as f64 / n as f64;
        crate::set_kernel_counters(&mut out, delta, n);
        out.set("shard.waves_per_board", per("shard.waves"));
        out.set("shard.boundary_envs_per_board", per("shard.boundary_envs"));
        out.set("shard.cross_nogoods_per_board", per("shard.cross_nogoods"));
        out.note(
            "counters_per_board",
            crate::counters_per_board(delta, &["core.", "prop.", "atms.", "fuzzy.", "shard."], n),
        );
    } else {
        out.check(false, || {
            "the timed phase did not finish one pass of the pool".to_owned()
        });
    }
    out.note(
        "spans",
        crate::json_str(&crate::write_spans(&rec, "build_large", seed)),
    );
    out
}
