//! End-to-end contract of the HTTP diagnosis service: a board served
//! over the socket must produce bytes identical to the same board
//! diagnosed in process — across worker counts, with coalescing on or
//! off, over keep-alive connections — and the side endpoints
//! (`/metrics`, `/trace/:id`) must stream well-formed documents. A
//! trace is rebuilt from the stored boards when `/trace/:id` asks, and
//! must equal, byte for byte, the trace the serving wave's own sessions
//! would have exported.

use flames::circuit::circuits::three_stage;
use flames::circuit::fault::inject_faults;
use flames::circuit::predict::{measure, TestPoint};
use flames::circuit::{Fault, Net, Netlist};
use flames::core::strategy::{recommend, Policy};
use flames::core::{
    diagnose_batch_lanes, Board, CacheConfig, Diagnoser, DiagnoserConfig, RuleStore, Session,
    SessionPool,
};
use flames::fuzzy::FuzzyInterval;
use flames::obs::Trace;
use flames::serve::protocol::render_response;
use flames::serve::wave::traces_to_chrome_json;
use flames::serve::{diagnose_boards, serve, Client, ServeConfig};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// A two-point voltage divider: small enough that every server spin-up
/// in this suite stays cheap, rich enough to produce candidates and a
/// next-probe recommendation.
fn divider() -> Diagnoser {
    let mut nl = Netlist::new();
    let vin = nl.add_net("vin");
    let mid = nl.add_net("mid");
    nl.add_voltage_source("V", vin, Net::GROUND, 10.0).unwrap();
    let r1 = nl.add_resistor("R1", vin, mid, 1000.0, 0.05).unwrap();
    let r2 = nl
        .add_resistor("R2", mid, Net::GROUND, 1000.0, 0.05)
        .unwrap();
    let points = vec![
        TestPoint::new(mid, "Vmid", vec![r1, r2]),
        TestPoint::new(vin, "Vin", vec![]),
    ];
    Diagnoser::from_netlist(&nl, points, DiagnoserConfig::default()).unwrap()
}

fn board(v: f64) -> Board {
    vec![(0, FuzzyInterval::crisp(v).widened(0.05).unwrap())]
}

/// Renders boards as a `/diagnose` request body (indices + full
/// trapezoid objects, shortest-round-trip floats).
fn request_body(boards: &[Board], next_probe: bool) -> String {
    let mut out = String::from("{\"boards\": [");
    for (i, b) in boards.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('[');
        for (j, (idx, v)) in b.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"point\": {idx}, \"value\": {{\"m1\": {}, \"m2\": {}, \"alpha\": {}, \"beta\": {}}}}}",
                v.core_lo(),
                v.core_hi(),
                v.spread_left(),
                v.spread_right()
            );
        }
        out.push(']');
    }
    let _ = write!(out, "], \"next_probe\": {next_probe}}}");
    out
}

/// What the server must answer, computed in process through the exact
/// batcher path (dedup + per-board propagation + recommendation).
fn expected_body(diagnoser: &Diagnoser, boards: &[Board], next_probe: bool) -> String {
    render_response(&diagnose_boards(diagnoser, boards, next_probe).unwrap())
}

#[test]
fn responses_are_byte_identical_to_in_process_diagnosis() {
    let diagnoser = divider();
    // Board 2 duplicates board 0 bit-for-bit: the wave dedups them onto
    // one session, and the bytes must not show it.
    let requests: Vec<(Vec<Board>, bool)> = vec![
        (vec![board(6.1)], true),
        (vec![board(6.1), board(4.2), board(6.1)], true),
        (vec![board(5.0)], false),
    ];
    for workers in [1, 3] {
        for coalesce in [true, false] {
            let handle = serve(
                "127.0.0.1:0",
                diagnoser.clone(),
                ServeConfig {
                    workers,
                    coalesce,
                    ..ServeConfig::default()
                },
            )
            .unwrap();
            let mut client = Client::connect(handle.addr()).unwrap();
            for (boards, next_probe) in &requests {
                let response = client.diagnose(&request_body(boards, *next_probe)).unwrap();
                assert_eq!(response.status, 200, "{}", response.body);
                assert_eq!(
                    response.body,
                    expected_body(&diagnoser, boards, *next_probe),
                    "workers={workers} coalesce={coalesce}"
                );
                assert!(response.header("x-request-id").is_some());
            }
            handle.shutdown();
        }
    }
}

#[test]
fn server_path_matches_the_lane_batch_reference() {
    // The in-process reference the previous test pins against must
    // itself agree with `diagnose_batch_lanes`, closing the chain from
    // socket bytes back to the engine's batch driver.
    let diagnoser = divider();
    let boards = vec![board(6.1), board(4.2), board(5.0), board(6.1)];
    let outcomes = diagnose_boards(&diagnoser, &boards, false).unwrap();
    let reference = diagnose_batch_lanes(&diagnoser, &boards, 1).unwrap();
    for (o, r) in outcomes.iter().zip(&reference) {
        assert_eq!(format!("{:?}", o.report), format!("{r:?}"));
    }
}

#[test]
fn keep_alive_serves_many_requests_per_connection() {
    let diagnoser = divider();
    let handle = serve("127.0.0.1:0", diagnoser.clone(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut ids = Vec::new();
    for v in [6.1, 4.2, 5.0] {
        let boards = vec![board(v)];
        let response = client.diagnose(&request_body(&boards, true)).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, expected_body(&diagnoser, &boards, true));
        ids.push(response.header("x-request-id").unwrap().to_string());
    }
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), 3, "request ids are distinct");
    handle.shutdown();
}

#[test]
fn metrics_endpoint_dumps_the_registry() {
    let handle = serve("127.0.0.1:0", divider(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let response = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(response.status, 200);
    let v = flames::obs::json::parse(&response.body).expect("metrics is valid JSON");
    let obj = v.as_object().expect("metrics is an object");
    for name in ["serve.accepted", "serve.coalesced", "serve.shed"] {
        assert!(obj.iter().any(|(k, _)| k == name), "missing {name}");
    }
    handle.shutdown();
}

#[test]
fn trace_endpoint_streams_a_chrome_document() {
    let diagnoser = divider();
    let handle = serve("127.0.0.1:0", diagnoser, ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let boards = vec![board(6.1), board(4.2)];
    let response = client.diagnose(&request_body(&boards, false)).unwrap();
    assert_eq!(response.status, 200);
    let id = response.header("x-request-id").unwrap().to_string();

    let trace = client
        .request("GET", &format!("/trace/{id}"), None)
        .unwrap();
    assert_eq!(trace.status, 200);
    let v = flames::obs::json::parse(&trace.body).expect("trace is valid JSON");
    let events = v.member("traceEvents").unwrap().as_array().unwrap();
    if flames::obs::enabled() {
        assert!(!events.is_empty(), "obs build records diagnosis events");
        // Both boards contribute, on distinct tids.
        let tids: std::collections::BTreeSet<u64> = events
            .iter()
            .map(|e| e.member("tid").unwrap().as_f64().unwrap() as u64)
            .collect();
        assert_eq!(tids.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    let missing = client.request("GET", "/trace/999999", None).unwrap();
    assert_eq!(missing.status, 404);
    handle.shutdown();
}

/// The paper's Fig. 6 three-stage amplifier and five boards, one per
/// drifted resistor, every test point probed: a propagation-heavy model
/// whose traces run to thousands of events.
fn three_stage_fixture() -> (Diagnoser, Vec<Board>) {
    let ts = three_stage(0.05);
    let diagnoser = Diagnoser::from_netlist(
        &ts.netlist,
        ts.test_points.clone(),
        DiagnoserConfig::default(),
    )
    .expect("three-stage model compiles");
    let drifts = [
        (ts.r2, 1.3),
        (ts.r4, 0.8),
        (ts.r5, 1.25),
        (ts.r1, 1.4),
        (ts.r3, 1.3),
    ];
    let boards = drifts
        .iter()
        .map(|&(comp, factor)| {
            let netlist = inject_faults(&ts.netlist, &[(comp, Fault::ParamFactor(factor))])
                .expect("drift injection");
            ts.test_points
                .iter()
                .enumerate()
                .map(|(idx, tp)| (idx, measure(&netlist, tp.net, 0.02).expect("board solves")))
                .collect()
        })
        .collect();
    (diagnoser, boards)
}

/// The traces a batcher built eagerly, before traces were replayed on
/// request: dedup the wave's model-path boards, propagate each, then
/// report, recommendation (if any duplicate asked) and
/// `Session::trace` per unique board. A rule-hit board propagated
/// nothing and gets an empty trace. Returns one trace per wave board.
fn eager_traces(
    diagnoser: &Diagnoser,
    wave: &[Board],
    want_probe: &[bool],
    hit: &[bool],
) -> Vec<Trace> {
    let mut unique: Vec<usize> = Vec::new();
    let slot_of: Vec<Option<usize>> = wave
        .iter()
        .zip(hit)
        .enumerate()
        .map(|(i, (board, &hit))| {
            (!hit).then(|| {
                unique
                    .iter()
                    .position(|&u| wave[u] == *board)
                    .unwrap_or_else(|| {
                        unique.push(i);
                        unique.len() - 1
                    })
            })
        })
        .collect();
    let mut pool = SessionPool::new(diagnoser);
    let mut sessions: Vec<Session<'_>> = unique
        .iter()
        .map(|&u| {
            let mut session = pool.acquire();
            for &(idx, value) in &wave[u] {
                session.measure_point(idx, value).unwrap();
            }
            session
        })
        .collect();
    for session in &mut sessions {
        session.propagate();
    }
    let traces: Vec<Trace> = sessions
        .iter()
        .enumerate()
        .map(|(slot, session)| {
            let _report = session.report();
            if (0..wave.len()).any(|i| slot_of[i] == Some(slot) && want_probe[i]) {
                let _choices = recommend(session, Policy::FuzzyEntropy, 0.0);
            }
            session.trace()
        })
        .collect();
    slot_of
        .iter()
        .map(|slot| slot.map_or_else(Trace::new, |slot| traces[slot].clone()))
        .collect()
}

/// Per-board rule-hit flags of a rendered response: a board the
/// learned-rule fast path answered carries `rule_provenance`.
fn rule_hits(body: &str) -> Vec<bool> {
    let v = flames::obs::json::parse(body).expect("response is valid JSON");
    v.member("boards")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|b| b.member("rule_provenance").is_some())
        .collect()
}

/// `GET /trace/:id` for a request id taken from a response.
fn get_trace(client: &mut Client, id: &str) -> String {
    let response = client
        .request("GET", &format!("/trace/{id}"), None)
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    response.body
}

#[test]
fn trace_replay_equals_the_eager_trace_of_the_served_wave() {
    let (diagnoser, boards) = three_stage_fixture();
    let partial: Board = boards[0][..1].to_vec();
    let handle = serve(
        "127.0.0.1:0",
        diagnoser.clone(),
        ServeConfig {
            workers: 4,
            batchers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();

    // A single-board request, with and without a recommendation.
    for (board, next_probe) in [(&boards[0], true), (&partial, false)] {
        let request = vec![board.clone()];
        let response = client
            .diagnose(&request_body(&request, next_probe))
            .unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let expected = eager_traces(&diagnoser, &request, &[next_probe], &[false]);
        if flames::obs::enabled() {
            assert!(!expected[0].events().is_empty());
        }
        assert_eq!(
            get_trace(&mut client, response.header("x-request-id").unwrap()),
            traces_to_chrome_json(&expected),
            "single board, next_probe={next_probe}"
        );
    }

    // Two requests queued behind a busy batcher ride one wave together:
    // a multi-board request with a deduped duplicate and no
    // recommendation, and a single-board request that asks for one.
    // Lane propagation equals solo propagation, so the replay must match
    // the coalesced wave's traces whichever wave the server formed: the
    // sleep only gives the blocker a head start into the batcher, and
    // no assertion depends on it.
    let blocker = {
        let body = request_body(&boards[2..], false);
        std::thread::spawn(move || {
            let response = Client::connect(addr).unwrap().diagnose(&body).unwrap();
            assert_eq!(response.status, 200, "{}", response.body);
        })
    };
    std::thread::sleep(Duration::from_millis(20));
    let first = vec![boards[1].clone(), partial.clone(), boards[1].clone()];
    let second = vec![boards[3].clone()];
    let senders: Vec<_> = [(first.clone(), false), (second.clone(), true)]
        .into_iter()
        .map(|(request, next_probe)| {
            std::thread::spawn(move || {
                let response = Client::connect(addr)
                    .unwrap()
                    .diagnose(&request_body(&request, next_probe))
                    .unwrap();
                assert_eq!(response.status, 200, "{}", response.body);
                response.header("x-request-id").unwrap().to_string()
            })
        })
        .collect();
    let ids: Vec<String> = senders.into_iter().map(|t| t.join().unwrap()).collect();
    blocker.join().unwrap();
    let wave: Vec<Board> = first.iter().chain(&second).cloned().collect();
    let expected = eager_traces(&diagnoser, &wave, &[false, false, false, true], &[false; 4]);
    assert_eq!(
        expected[0], expected[2],
        "a deduped duplicate shares its trace"
    );
    assert_eq!(
        get_trace(&mut client, &ids[0]),
        traces_to_chrome_json(&expected[..3]),
        "multi-board request with a duplicate"
    );
    assert_eq!(
        get_trace(&mut client, &ids[1]),
        traces_to_chrome_json(&expected[3..]),
        "coalesced single-board request"
    );
    handle.shutdown();
}

#[test]
fn trace_replay_stays_on_the_model_path_while_the_store_learns() {
    let (diagnoser, boards) = three_stage_fixture();
    let handle = serve(
        "127.0.0.1:0",
        diagnoser.clone(),
        ServeConfig {
            rule_store: Some(Arc::new(RuleStore::new())),
            cache: CacheConfig {
                learn: true,
                ..CacheConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let recurring = vec![boards[0].clone()];

    // Cold store: the first request takes the model path and teaches
    // the store; repeats of the same board soon hit the learned rule.
    let first = client.diagnose(&request_body(&recurring, true)).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(rule_hits(&first.body), vec![false]);
    let first_id = first.header("x-request-id").unwrap().to_string();
    let mut hit_id = None;
    for _ in 0..8 {
        let response = client.diagnose(&request_body(&recurring, true)).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        if rule_hits(&response.body) == [true] {
            hit_id = Some(response.header("x-request-id").unwrap().to_string());
            break;
        }
    }
    let hit_id = hit_id.expect("the recurring board hits its learned rule");

    // The first request's board is a hit now, yet its replay is still
    // the model-path trace it was served with.
    let model_path = eager_traces(&diagnoser, &recurring, &[true], &[false]);
    if flames::obs::enabled() {
        assert!(!model_path[0].events().is_empty());
    }
    assert_eq!(
        get_trace(&mut client, &first_id),
        traces_to_chrome_json(&model_path)
    );
    // A hit propagated nothing: its trace is empty.
    assert_eq!(get_trace(&mut client, &hit_id), "{\"traceEvents\":[]}");

    // A request mixing the hit with a board the store has never seen.
    let mixed = vec![boards[0].clone(), boards[3].clone()];
    let response = client.diagnose(&request_body(&mixed, false)).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let hits = rule_hits(&response.body);
    assert_eq!(hits, vec![true, false]);
    assert_eq!(
        get_trace(&mut client, response.header("x-request-id").unwrap()),
        traces_to_chrome_json(&eager_traces(&diagnoser, &mixed, &[false, false], &hits))
    );
    handle.shutdown();
}
