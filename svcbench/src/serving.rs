//! `serve_novel` and `serve_recurring`: the real `flames_serve::serve`
//! started in-process, driven over loopback HTTP by a closed-loop client
//! that waits for each verdict before sending the next request.
//!
//! * `serve_novel` sends one distinct `three_stage(0.05)` board per
//!   request with no rule store, so every board takes the model path.
//! * `serve_recurring` attaches a frozen [`RuleStore`] trained on the
//!   eight recurring modes and sends trays of jittered recurring boards,
//!   every one of which is a rule hit.
//!
//! Every response is checked byte for byte against the in-process
//! reference, `run_wave_cached` on the request's boards. The traced run
//! also replays each request in-process through the public calls the
//! batcher makes, with a span around each, and checks that the replay
//! renders the same bytes.

use crate::boards::{self, Labeled, Rng};
use crate::spans::Recorder;
use crate::stats::{self, HostProbe};
use crate::Outcome;
use flames_circuit::circuits::{three_stage, ThreeStage};
use flames_circuit::constraint::extract;
use flames_circuit::predict::nominal_predictions;
use flames_core::strategy::{recommend, Policy};
use flames_core::{
    board_symptoms, diagnose_batch_lanes_cached, rule_hit_report, Board, CacheConfig,
    CacheDecision, Diagnoser, DiagnoserConfig, RuleStore, Session, SessionPool,
};
use flames_obs::MetricsSnapshot;
use flames_serve::protocol::{parse_diagnose, render_board, render_response};
use flames_serve::wave::run_wave_cached;
use flames_serve::{serve, Client, NextProbe, ServeConfig, ServerHandle};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Novel,
    Recurring,
}

/// Client connections; the server runs as many HTTP workers. With one,
/// every wave holds one request and a round trip is that request's own
/// cost. With two on a 2-vCPU host, a request's time also depended on
/// whether it shared its wave, and the client, worker and batcher
/// threads outnumbered the cores.
const CLIENTS: usize = 1;
/// Set-ups per run, before and after the timed phase; `setup_s` is the
/// median of all of them, so one slow stretch of the host cannot move
/// it on its own.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 4;
/// Warm-up requests sent during set-up.
const WARMUP_REQUESTS: usize = 4;
/// Trays in the `serve_recurring` pool.
const RECURRING_TRAYS: usize = 128;
/// Training: the eight modes repeated this often per pass...
const TRAINING_REPEATS: usize = 3;
/// ...over this many passes with learning on, then the store freezes.
const TRAINING_PASSES: usize = 2;
/// Whole passes over the pool the timed phase makes at least, however
/// long they take, so every request is timed several times.
const MIN_PASSES: usize = 3;
/// Least in-process replay time per traced run; short passes repeat.
const MIN_REPLAY: Duration = Duration::from_millis(1500);

fn frozen() -> CacheConfig {
    CacheConfig {
        learn: false,
        ..CacheConfig::default()
    }
}

/// One request of the pool: its boards (with the injected culprits),
/// wire body and expected response body.
struct Request {
    boards: Vec<Labeled>,
    body: String,
    expected: String,
}

/// A set-up system: the compiled model, the frozen store on
/// `serve_recurring`, and the running server.
struct System {
    diagnoser: Diagnoser,
    store: Option<Arc<RuleStore>>,
    cache: CacheConfig,
    handle: ServerHandle,
}

impl System {
    /// The rule-first cache exactly as the server consults it.
    fn cache(&self) -> Option<(&RuleStore, &CacheConfig)> {
        self.store.as_deref().map(|s| (s, &self.cache))
    }
}

/// Trains a store on the recurring modes the way `exp_learn` does:
/// learning passes over a stream of the modes, so every faulty mode's
/// culprit is confirmed often enough to clear the hit threshold.
fn train(diagnoser: &Diagnoser, modes: &[Labeled]) -> Arc<RuleStore> {
    let store = Arc::new(RuleStore::new());
    let stream: Vec<Board> = (0..TRAINING_REPEATS)
        .flat_map(|_| modes.iter().map(|m| m.board.clone()))
        .collect();
    for _ in 0..TRAINING_PASSES {
        diagnose_batch_lanes_cached(diagnoser, &store, &CacheConfig::default(), &stream, 1, 64)
            .expect("training pass");
    }
    store
}

/// Compiles the model, trains the store on `serve_recurring`, binds the
/// server and sends the warm-up requests.
fn set_up(
    kind: Kind,
    ts: &ThreeStage,
    modes: &[Labeled],
    warmup: &[String],
    rec: &mut Recorder,
) -> System {
    let config = DiagnoserConfig::default();
    let network = rec.leaf("extract", 0, || extract(&ts.netlist, config.extract));
    let nets: Vec<_> = ts.test_points.iter().map(|tp| tp.net).collect();
    let predictions = rec.leaf("nominal_predictions", 0, || {
        nominal_predictions(&ts.netlist, &nets).expect("predictions solve")
    });
    let diagnoser = rec.leaf("Diagnoser::from_network", 0, || {
        Diagnoser::from_network(
            &ts.netlist,
            network,
            ts.test_points.clone(),
            predictions,
            config,
        )
    });
    let store = (kind == Kind::Recurring)
        .then(|| rec.leaf("RuleStore::train", 0, || train(&diagnoser, modes)));
    let handle = rec.leaf("serve", 0, || {
        serve(
            "127.0.0.1:0",
            diagnoser.clone(),
            ServeConfig {
                workers: CLIENTS,
                batchers: 1,
                rule_store: store.clone(),
                cache: frozen(),
                ..ServeConfig::default()
            },
        )
        .expect("server binds")
    });
    let span = rec.enter("warmup", 0);
    let mut client = Client::connect(handle.addr()).expect("warm-up client connects");
    for body in warmup {
        let r = client.diagnose(body).expect("warm-up request");
        assert_eq!(r.status, 200, "warm-up request failed: {}", r.body);
    }
    rec.exit(span);
    System {
        diagnoser,
        store,
        cache: frozen(),
        handle,
    }
}

/// One timed request as the client saw it; times in seconds since the
/// run's origin.
struct Sample {
    /// Index of the request in the pool.
    request: usize,
    start: f64,
    end: f64,
    /// The host probe's scale factor read just before the request.
    scale: f64,
    boards: usize,
    ok: bool,
}

impl Sample {
    /// The round trip at the probe's reference speed, in milliseconds.
    fn scaled_ms(&self) -> f64 {
        (self.end - self.start) * 1e3 * self.scale
    }
}

/// The closed-loop load phase: one keep-alive connection cycling
/// through the pool in order for `seconds`, and for at least
/// [`MIN_PASSES`] whole passes. Returns the samples in completion order
/// and the phase start.
fn closed_loop(
    addr: SocketAddr,
    requests: &[Request],
    seconds: f64,
    origin: Instant,
    host: &HostProbe,
    rec: &mut Recorder,
) -> (Vec<Sample>, f64) {
    let mut client = Client::connect(addr).expect("client connects");
    let mut samples = Vec::new();
    let begin = origin.elapsed().as_secs_f64();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut k = 0usize;
    while Instant::now() < deadline || k < MIN_PASSES * requests.len() {
        let request = k % requests.len();
        k += 1;
        let req = &requests[request];
        let scale = host.scale();
        let span = rec.enter("http.diagnose", 0);
        let start = origin.elapsed().as_secs_f64();
        let response = client.diagnose(&req.body);
        let end = origin.elapsed().as_secs_f64();
        rec.exit(span);
        let ok = match response {
            Ok(r) => {
                if let Some(id) = r.header("x-request-id") {
                    rec.tag(span, id.parse().unwrap_or(0));
                }
                r.status == 200 && r.body == req.expected
            }
            Err(_) => {
                // A broken connection fails this request only; the
                // station reconnects.
                if let Ok(fresh) = Client::connect(addr) {
                    client = fresh;
                }
                false
            }
        };
        samples.push(Sample {
            request,
            start,
            end,
            scale,
            boards: req.boards.len(),
            ok,
        });
    }
    (samples, begin)
}

/// Replays one request in-process through the public calls the batcher
/// makes, one span per call, and returns the rendered body. The model
/// path is `parse_diagnose` → `SessionPool::acquire`/`measure_point` →
/// `Session::propagate_lane` → `report` → `recommend` → `trace` →
/// `render_board`; the hit path is `parse_diagnose` → `board_symptoms`
/// → `RuleSnapshot::decide` → `rule_hit_report` → `render_board`.
/// Returns `None` if a board on the hit path misses.
fn replay(
    sys: &System,
    pool: &mut SessionPool<'_>,
    body: &str,
    id: u64,
    rec: &mut Recorder,
    events: &mut usize,
) -> Option<String> {
    let d = &sys.diagnoser;
    let wave = rec.enter("wave", id);
    let parsed = rec.leaf("parse_diagnose", id, || {
        parse_diagnose(body, d).expect("the pool's bodies parse")
    });
    let mut out = String::from("{\"boards\":[");
    let mut ok = true;
    if let Some((store, config)) = sys.cache() {
        let snapshot = rec.leaf("RuleStore::snapshot", id, || store.snapshot());
        for (i, board) in parsed.boards.iter().enumerate() {
            let symptoms = rec.leaf("board_symptoms", id, || {
                board_symptoms(d, board).expect("validated board")
            });
            let CacheDecision::Hit(hit) = rec.leaf("RuleSnapshot::decide", id, || {
                snapshot.decide(&symptoms, config)
            }) else {
                ok = false;
                continue;
            };
            let report = rec.leaf("rule_hit_report", id, || rule_hit_report(d, board, &hit));
            rec.leaf("render_board", id, || {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&render_board(&report, None, Some(&hit)));
            });
        }
    } else {
        let span = rec.enter("SessionPool::acquire+measure_point", id);
        let mut sessions: Vec<Session<'_>> = parsed
            .boards
            .iter()
            .map(|board| {
                let mut session = pool.acquire();
                for &(idx, value) in board {
                    session.measure_point(idx, value).expect("validated point");
                }
                session
            })
            .collect();
        rec.exit(span);
        rec.leaf("Session::propagate_lane", id, || {
            let mut refs: Vec<&mut Session<'_>> = sessions.iter_mut().collect();
            Session::propagate_lane(&mut refs);
        });
        for (i, session) in sessions.iter().enumerate() {
            let report = rec.leaf("Session::report", id, || session.report());
            let next_probe = rec.leaf("recommend", id, || {
                parsed
                    .next_probe
                    .then(|| recommend(session, Policy::FuzzyEntropy, 0.0))
                    .and_then(|choices| choices.into_iter().next())
                    .map(|c| NextProbe {
                        point: c.point,
                        name: c.name,
                        score: c.score,
                    })
            });
            let trace = rec.leaf("Session::trace", id, || session.trace());
            *events += trace.events().len();
            rec.leaf("render_board", id, || {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&render_board(&report, next_probe.as_ref(), None));
            });
            // The server frees each trace when its ring of recent
            // requests evicts it; the replay frees it here.
            rec.leaf("drop(Trace)", id, || drop(trace));
        }
        rec.leaf("SessionPool::release", id, || {
            for session in sessions {
                pool.release(session);
            }
        });
    }
    out.push_str("]}");
    rec.exit(wave);
    ok.then_some(out)
}

/// Span name → per-layer metric and scale (seconds → the metric's unit).
const LAYERS: &[(&str, &str, f64)] = &[
    ("parse_diagnose", "protocol.parse_us", 1e6),
    ("render_board", "protocol.render_us", 1e6),
    ("board_symptoms", "rule_store.symptoms_us", 1e6),
    ("RuleStore::snapshot", "rule_store.decide_us", 1e6),
    ("RuleSnapshot::decide", "rule_store.decide_us", 1e6),
    ("rule_hit_report", "rule_store.hit_report_us", 1e6),
    (
        "SessionPool::acquire+measure_point",
        "engine.measure_ms",
        1e3,
    ),
    ("SessionPool::release", "engine.measure_ms", 1e3),
    ("Session::propagate_lane", "engine.propagate_ms", 1e3),
    ("Session::report", "engine.report_ms", 1e3),
    ("Session::trace", "engine.trace_ms", 1e3),
    ("drop(Trace)", "engine.trace_ms", 1e3),
    ("recommend", "strategy.recommend_ms", 1e3),
];

#[allow(clippy::too_many_lines)] // one workload, phase by phase
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let origin = Instant::now();
    let mut out = Outcome::default();
    let mut rec = Recorder::new(origin, trace);
    let workload = match kind {
        Kind::Novel => "serve_novel",
        Kind::Recurring => "serve_recurring",
    };

    // ----- inputs, from the seed ------------------------------------
    let ts = three_stage(0.05);
    let mut rng = Rng::new(seed);
    let modes = boards::recurring_modes(&ts);
    let groups: Vec<Vec<Labeled>> = match kind {
        Kind::Novel => boards::novel_pool(&ts, &mut rng)
            .into_iter()
            .map(|b| vec![b])
            .collect(),
        Kind::Recurring => boards::recurring_trays(&modes, RECURRING_TRAYS, &mut rng),
    };
    let mut requests: Vec<Request> = groups
        .into_iter()
        .map(|boards| {
            let refs: Vec<&Board> = boards.iter().map(|l| &l.board).collect();
            let body = boards::request_body(&refs);
            Request {
                boards,
                body,
                expected: String::new(),
            }
        })
        .collect();
    // Warm-up requests are the same for every seed: the unjittered
    // recurring modes, one board per request on `serve_novel` and the
    // seven faulty modes as one tray on `serve_recurring`.
    let warmup: Vec<String> = (0..WARMUP_REQUESTS)
        .map(|i| match kind {
            Kind::Novel => boards::request_body(&[&modes[i].board]),
            Kind::Recurring => {
                let tray: Vec<&Board> = modes[1..].iter().map(|m| &m.board).collect();
                boards::request_body(&tray)
            }
        })
        .collect();

    // ----- set-up, repeated; the last system serves -----------------
    let setup_from = rec.spans().len();
    let host = HostProbe::new();
    let mut setup_times = Vec::with_capacity(SETUPS_BEFORE + SETUPS_AFTER);
    let mut timed_setup = |rec: &mut Recorder| {
        let scale = host.scale();
        let start = Instant::now();
        let sys = set_up(kind, &ts, &modes, &warmup, rec);
        setup_times.push(start.elapsed().as_secs_f64() * scale);
        sys
    };
    let mut live: Option<System> = None;
    for _ in 0..SETUPS_BEFORE {
        if let Some(old) = live.take() {
            old.handle.shutdown();
        }
        live = Some(timed_setup(&mut rec));
    }
    let sys = live.expect("at least one set-up");

    // ----- references: run_wave_cached per request ------------------
    let mut top1 = (0usize, 0usize);
    let mut misses = 0usize;
    {
        let mut pool = SessionPool::new(&sys.diagnoser);
        for req in &mut requests {
            let wave: Vec<Board> = req.boards.iter().map(|l| l.board.clone()).collect();
            let outcomes = run_wave_cached(&mut pool, &wave, &vec![true; wave.len()], sys.cache())
                .expect("reference wave");
            for (o, l) in outcomes.iter().zip(&req.boards) {
                if sys.store.is_some() && o.provenance.is_none() {
                    misses += 1;
                }
                top1.0 += usize::from(l.top1(&o.report.candidates));
                top1.1 += usize::from(l.culprit.is_some());
            }
            req.expected = render_response(&outcomes);
        }
    }
    out.check(misses == 0, || {
        format!("{misses} recurring boards are not rule hits")
    });
    out.set("top1_accuracy", top1.0 as f64 / top1.1.max(1) as f64);

    // ----- the timed phase ------------------------------------------
    let before = MetricsSnapshot::capture();
    let (samples, begin) = closed_loop(
        sys.handle.addr(),
        &requests,
        seconds,
        origin,
        &host,
        &mut rec,
    );
    let delta = MetricsSnapshot::capture().delta_since(&before);
    out.attempted = samples.len() as u64;
    out.failed = samples.iter().filter(|s| !s.ok).count() as u64;
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    let Some(by_request) = stats::per_request(
        ok.iter().map(|s| (s.request, s.scaled_ms())),
        requests.len(),
    ) else {
        out.check(false, || "a pool request never succeeded".to_owned());
        return out;
    };
    // Each request's typical round trip; p50, tail and throughput are
    // taken over the pool, so every request weighs the same.
    let costs: Vec<f64> = by_request.iter().map(|t| stats::median(t)).collect();
    let pool_boards: usize = requests.iter().map(|r| r.boards.len()).sum();
    let throughput = pool_boards as f64 / (costs.iter().sum::<f64>() / 1e3);
    let (tail_ms, tail_p) = stats::tail(&costs);
    let p50 = stats::median(&costs);
    out.set("throughput_boards_per_s", throughput);
    out.set("latency_p50_ms", p50);
    out.set("latency_tail_ms", tail_ms);
    out.set("peak_rss_mb", stats::peak_rss_mb());
    out.set("ok_share", ok.len() as f64 / samples.len() as f64);
    for _ in 0..SETUPS_AFTER {
        timed_setup(&mut rec).handle.shutdown();
    }
    out.set("setup_s", stats::median(&setup_times));
    out.note("tail_percentile", crate::num(tail_p));
    out.note("requests_in_pool", requests.len().to_string());
    out.note("round_trips", ok.len().to_string());
    let unscaled: Vec<f64> = ok.iter().map(|s| (s.end - s.start) * 1e3).collect();
    let scales: Vec<f64> = samples.iter().map(|s| s.scale).collect();
    let boards_served: usize = samples.iter().map(|s| s.boards).sum();
    let end = samples.last().map_or(begin, |s| s.end);
    out.note(
        "unscaled",
        format!(
            "{{\"p50_ms\":{},\"p99_ms\":{},\"boards_per_s\":{},\"probe_scale_p50\":{}}}",
            crate::num(stats::median(&unscaled)),
            crate::num(stats::percentile(&unscaled, 99.0).0),
            crate::num(boards_served as f64 / (end - begin)),
            crate::num(stats::median(&scales))
        ),
    );
    out.note(
        "failed_share",
        crate::num(out.failed as f64 / samples.len() as f64),
    );
    out.note(
        "load",
        format!(
            "{{\"shape\":\"closed loop\",\"clients\":{CLIENTS},\"server_workers\":{CLIENTS},\"batchers\":1,\"requests_in_pool\":{},\"boards_per_request\":{},\"mix\":{}}}",
            requests.len(),
            requests[0].boards.len(),
            crate::json_str(match kind {
                Kind::Novel => "12 healthy, 48 full single-resistor drifts, 36 partial drifts (1 or 2 of 3 points)",
                Kind::Recurring => "each of the 7 faulty recurring modes 8 times per tray, jittered",
            })
        ),
    );
    out.note(
        "top1",
        format!("{{\"heads\":{},\"faulty_boards\":{}}}", top1.0, top1.1),
    );
    if !trace {
        sys.handle.shutdown();
        return out;
    }

    // ----- traced run: layer split ----------------------------------
    // With one connection every wave is one accepted request.
    let waves = delta.get("serve.accepted") as f64;
    out.set("traced.throughput_boards_per_s", throughput);
    out.set(
        "serve.boards_per_wave",
        boards_served as f64 / waves.max(1.0),
    );
    out.set(
        "serve.dedup_share",
        delta.get("serve.deduped_boards") as f64 / boards_served.max(1) as f64,
    );
    let lookups = delta.get("learn.hit") + delta.get("learn.miss") + delta.get("learn.fallback");
    if sys.store.is_some() {
        let share = delta.get("learn.hit") as f64 / lookups.max(1) as f64;
        out.set("learn.hit_share", share);
        out.check(share == 1.0, || {
            format!("learn.hit_share is {share}, not 1.0")
        });
    }
    let serve_counters = crate::counters_per_board(&delta, &["serve.", "learn."], boards_served);

    // Model build layers, per set-up.
    let setup_self = rec.self_seconds(setup_from..rec.spans().len());
    let per_setup = |name: &str| {
        setup_self.get(name).copied().unwrap_or(0.0) / (SETUPS_BEFORE + SETUPS_AFTER) as f64
    };
    out.set("circuit.extract_ms", per_setup("extract") * 1e3);
    out.set(
        "circuit.predictions_ms",
        per_setup("nominal_predictions") * 1e3,
    );
    out.set("model.flat_build_s", per_setup("Diagnoser::from_network"));
    let network = extract(&ts.netlist, DiagnoserConfig::default().extract);
    let schedule_ms = crate::time_schedule_build(
        &ts.netlist,
        &network,
        DiagnoserConfig::default().propagator,
        &mut rec,
    );
    out.set("schedule.build_ms", schedule_ms);

    // Staged replay of the pool, in-process.
    let replay_from = rec.spans().len();
    let mut pool = SessionPool::new(&sys.diagnoser);
    let mut events = 0usize;
    let mut replayed_boards = 0usize;
    let mut mismatches = 0usize;
    let mut first_pass = None;
    let before = MetricsSnapshot::capture();
    let replay_start = Instant::now();
    let mut passes = 0usize;
    while passes == 0 || replay_start.elapsed() < MIN_REPLAY {
        for (i, req) in requests.iter().enumerate() {
            let id = (passes * requests.len() + i) as u64;
            let rendered = replay(&sys, &mut pool, &req.body, id, &mut rec, &mut events);
            if rendered.as_deref() != Some(req.expected.as_str()) {
                mismatches += 1;
            }
            replayed_boards += req.boards.len();
        }
        passes += 1;
        if first_pass.is_none() {
            first_pass = Some((MetricsSnapshot::capture().delta_since(&before), events));
        }
    }
    out.check(mismatches == 0, || {
        format!("{mismatches} staged replays differ from run_wave_cached")
    });
    let (kernel, first_events) = first_pass.expect("one replay pass");
    let pass_boards: usize = requests.iter().map(|r| r.boards.len()).sum();
    crate::set_kernel_counters(&mut out, &kernel, pass_boards);
    if kind == Kind::Novel {
        out.set(
            "strategy.probe_evals_per_board",
            kernel.get("strategy.probe_evals") as f64 / pass_boards as f64,
        );
        out.set(
            "trace.events_per_board",
            first_events as f64 / pass_boards as f64,
        );
    }
    let self_s = rec.self_seconds(replay_from..rec.spans().len());
    for (span, metric, scale) in LAYERS {
        if let Some(s) = self_s.get(span) {
            let v = out.metrics.get(metric).copied().unwrap_or(0.0);
            out.set(metric, v + s * scale / replayed_boards as f64);
        }
    }
    let wall: f64 = rec.durations("wave", replay_from).iter().sum();
    let attributed: f64 = self_s
        .iter()
        .filter(|(name, _)| **name != "wave")
        .map(|(_, s)| s)
        .sum();
    let unattributed = (wall - attributed) / wall;
    out.set("replay.unattributed_share", unattributed);
    out.check(unattributed.abs() <= 0.10, || {
        format!("layer self times leave {unattributed} of the replay wall time unattributed")
    });
    // Each request's typical replay, as its round trip above; the
    // replay is not scaled, so the round trips are unscaled here too.
    let typical = |timings: Option<Vec<Vec<f64>>>| -> Vec<f64> {
        timings
            .expect("every request timed")
            .iter()
            .map(|t| stats::median(t))
            .collect()
    };
    let round_trips = typical(stats::per_request(
        ok.iter().map(|s| (s.request, (s.end - s.start) * 1e3)),
        requests.len(),
    ));
    let replays = typical(stats::per_request(
        rec.durations("wave", replay_from)
            .iter()
            .enumerate()
            .map(|(j, s)| (j % requests.len(), s * 1e3)),
        requests.len(),
    ));
    out.set(
        "serve.overhead_ms",
        stats::median(&round_trips) - stats::median(&replays),
    );

    out.note(
        "replay",
        format!(
            "{{\"passes\":{passes},\"boards\":{replayed_boards},\"wall_s\":{},\"unattributed_s\":{},\"identical_to_run_wave_cached\":{}}}",
            crate::num(wall),
            crate::num(wall - attributed),
            mismatches == 0
        ),
    );
    out.note(
        "counters_per_board",
        format!(
            "{{\"http_phase\":{serve_counters},\"replay_pass\":{}}}",
            crate::counters_per_board(
                &kernel,
                match kind {
                    Kind::Novel => &["core.", "prop.", "atms.", "fuzzy.", "strategy.", "serve."],
                    Kind::Recurring => &["fuzzy.", "learn."],
                },
                pass_boards
            )
        ),
    );
    out.note(
        "spans",
        crate::json_str(&crate::write_spans(&rec, workload, seed)),
    );
    sys.handle.shutdown();
    out
}
