//! Network-serving experiment: request coalescing measured end to end
//! over the HTTP service on the paper's Fig. 6 three-stage amplifier.
//!
//! A set of closed-loop loopback clients — each re-sending as soon as
//! its previous response lands, as a monitoring fleet would — drives two
//! servers that differ in exactly one bit of configuration:
//!
//! * **coalesced** — the admission queue drains every queued request
//!   into one board-lane wave (up to the 64-session cap) and collapses
//!   bit-identical boards onto one warm session;
//! * **one_request_per_wave** — the same server with coalescing off:
//!   every request pays its own full propagation.
//!
//! The clients share [`SCENARIOS`] distinct measurement sets (several
//! monitors watching the same few boards), so under closed-loop load the
//! coalesced server executes a fraction of the propagations — the
//! single-core speedup this experiment gates on. Both servers run one
//! batcher thread draining the admission queue. Before any timing, a
//! byte-identity pre-gate pins every scenario's served bytes against the
//! in-process [`flames_serve::diagnose_boards`] reference at one batcher
//! and at two — the response must not depend on the drain topology. Writes
//! `BENCH_serve.json` (p50/p99 latency and sustained RPS per mode) and
//! exits non-zero if coalesced throughput fails the ≥ 1.5× gate.

use flames_circuit::circuits::{three_stage, ThreeStage};
use flames_circuit::fault::inject_faults;
use flames_circuit::predict::measure;
use flames_circuit::Fault;
use flames_core::{Board, Diagnoser, DiagnoserConfig};
use flames_serve::protocol::render_response;
use flames_serve::{diagnose_boards, serve, Client, ServeConfig};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
const MAX_BATCHERS: usize = 2;
/// Batcher threads for the timed phases. Two batchers split each drain
/// between them, so waves coalesce fewer requests and the speedup this
/// experiment gates on becomes scheduler luck (on a 2-vCPU host the
/// coalesced phase read 1.04–1.16× with two). One batcher is also what
/// the service benchmark's serving workloads run. The byte-identity
/// pre-gate still covers 1 and `MAX_BATCHERS`, because correctness must
/// not depend on drain topology.
const TIMED_BATCHERS: usize = 1;
const SCENARIOS: usize = 4;
const WARMUP_PER_CLIENT: usize = 2;
const REQUESTS_PER_CLIENT: usize = 25;
const MEASURE_IMPRECISION: f64 = 0.02;

/// The distinct measurement sets the client fleet shares: one healthy
/// board and three with a single drifted resistor, probing all three of
/// the paper's test points.
fn make_scenarios(ts: &ThreeStage) -> Vec<Board> {
    let variants = [
        None,
        Some((ts.r2, 1.3)),
        Some((ts.r4, 0.8)),
        Some((ts.r5, 1.25)),
    ];
    variants[..SCENARIOS]
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
                .map(|(idx, tp)| {
                    (
                        idx,
                        measure(&netlist, tp.net, MEASURE_IMPRECISION).expect("board solves"),
                    )
                })
                .collect()
        })
        .collect()
}

/// Renders one scenario as a `/diagnose` request body.
fn request_body(board: &Board) -> String {
    let mut out = String::from("{\"boards\": [[");
    for (j, (idx, v)) in board.iter().enumerate() {
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
    out.push_str("]], \"next_probe\": true}");
    out
}

struct ModeResult {
    p50_us: f64,
    p99_us: f64,
    rps: f64,
}

/// Runs one closed-loop load phase against a fresh server and returns
/// the latency/throughput summary.
fn run_mode(
    diagnoser: &Diagnoser,
    bodies: &[String],
    expected: &[String],
    coalesce: bool,
) -> ModeResult {
    let handle = serve(
        "127.0.0.1:0",
        diagnoser.clone(),
        ServeConfig {
            workers: CLIENTS,
            batchers: TIMED_BATCHERS,
            coalesce,
            ..ServeConfig::default()
        },
    )
    .expect("server binds");
    let addr: SocketAddr = handle.addr();
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            let body = bodies[c % SCENARIOS].clone();
            let expect = expected[c % SCENARIOS].clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                for _ in 0..WARMUP_PER_CLIENT {
                    let r = client.diagnose(&body).expect("warmup request");
                    assert_eq!(r.status, 200, "{}", r.body);
                }
                barrier.wait();
                let mut latencies = Vec::with_capacity(REQUESTS_PER_CLIENT);
                for _ in 0..REQUESTS_PER_CLIENT {
                    let start = Instant::now();
                    let r = client.diagnose(&body).expect("timed request");
                    latencies.push(start.elapsed());
                    assert_eq!(r.status, 200, "{}", r.body);
                    assert_eq!(r.body, expect, "served bytes drifted under load");
                }
                latencies
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    let mut latencies: Vec<Duration> = Vec::with_capacity(CLIENTS * REQUESTS_PER_CLIENT);
    for t in threads {
        latencies.extend(t.join().expect("client thread"));
    }
    let wall = start.elapsed();
    handle.shutdown();

    latencies.sort();
    let micros = |d: Duration| d.as_secs_f64() * 1e6;
    ModeResult {
        p50_us: micros(latencies[latencies.len() / 2]),
        p99_us: micros(latencies[latencies.len() * 99 / 100]),
        rps: latencies.len() as f64 / wall.as_secs_f64(),
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
    let scenarios = make_scenarios(&ts);
    let bodies: Vec<String> = scenarios.iter().map(request_body).collect();
    let expected: Vec<String> = scenarios
        .iter()
        .map(|b| {
            render_response(
                &diagnose_boards(&diagnoser, std::slice::from_ref(b), true)
                    .expect("in-process reference"),
            )
        })
        .collect();

    // ----- byte-identity pre-gate (before any timing is trusted) -----
    // Run it at every batcher count the experiment touches: the served
    // bytes must not depend on how many batcher threads drain the queue.
    for batchers in [1, MAX_BATCHERS] {
        let handle = serve(
            "127.0.0.1:0",
            diagnoser.clone(),
            ServeConfig {
                batchers,
                ..ServeConfig::default()
            },
        )
        .expect("server binds");
        let mut client = Client::connect(handle.addr()).expect("client connects");
        for (body, expect) in bodies.iter().zip(&expected) {
            let r = client.diagnose(body).expect("pre-gate request");
            assert_eq!(r.status, 200, "{}", r.body);
            assert_eq!(
                r.body, *expect,
                "served bytes must equal the in-process wave reference ({batchers} batchers)"
            );
        }
        handle.shutdown();
    }
    println!("byte-identity gate passed: served == in-process wave reference for {SCENARIOS} scenarios at 1 and {MAX_BATCHERS} batchers\n");

    // ----- closed-loop load, counters over the coalesced phase -------
    let baseline = run_mode(&diagnoser, &bodies, &expected, false);
    let before = flames_obs::MetricsSnapshot::capture();
    let coalesced = run_mode(&diagnoser, &bodies, &expected, true);
    let counters = flames_obs::MetricsSnapshot::capture().delta_since(&before);

    let speedup = coalesced.rps / baseline.rps;
    let row = |m: &ModeResult| {
        format!(
            concat!(
                "{{\n",
                "      \"p50_us\": {p50:.0},\n",
                "      \"p99_us\": {p99:.0},\n",
                "      \"requests_per_sec\": {rps:.1}\n",
                "    }}"
            ),
            p50 = m.p50_us,
            p99 = m.p99_us,
            rps = m.rps,
        )
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"exp_serve\",\n",
            "  \"circuit\": \"three_stage(0.05)\",\n",
            "  \"clients\": {clients},\n",
            "  \"batchers\": {batchers},\n",
            "  \"scenarios\": {scenarios},\n",
            "  \"requests_per_client\": {reqs},\n",
            "  \"byte_identical\": true,\n",
            "  \"rows\": {{\n",
            "    \"one_request_per_wave\": {base},\n",
            "    \"coalesced\": {coal}\n",
            "  }},\n",
            "  \"counters\": {counters},\n",
            "  \"coalesced_speedup\": {speedup:.2}\n",
            "}}\n"
        ),
        clients = CLIENTS,
        batchers = TIMED_BATCHERS,
        scenarios = SCENARIOS,
        reqs = REQUESTS_PER_CLIENT,
        base = row(&baseline),
        coal = row(&coalesced),
        counters = counters.to_json(2),
        speedup = speedup,
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("{json}");

    assert!(
        speedup >= 1.5,
        "coalesced serving must be at least 1.5x one-request-per-wave at {CLIENTS} clients, measured {speedup:.2}x"
    );
}
