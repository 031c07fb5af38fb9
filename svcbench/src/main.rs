//! The FLAMES service benchmark.
//!
//! ```text
//! cargo run --release --manifest-path svcbench/Cargo.toml -- \
//!     --workload <serve_novel|serve_recurring|build_large> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from the seed, sets the system up
//! several times (the median is `setup_s`), measures for the given
//! number of seconds, checks every output and prints, as the last line
//! of standard output, one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones a caller sees; with `--trace 1` they are the
//! per-layer split, taken from spans around public calls and from
//! counter deltas, and the spans are written to `svcbench/out/`. The
//! line before it carries the run's details: host, load shape, tail
//! percentile, counters per board.

mod boards;
mod large;
mod serving;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// End-to-end metrics with their units, reported by every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_boards_per_s", "boards/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
    ("top1_accuracy", "share"),
];

/// Per-layer metrics with their units. A layer a workload does not run
/// reads 0 there (the details line lists which ones).
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.overhead_ms", "ms"),
    ("serve.boards_per_wave", "boards"),
    ("serve.dedup_share", "share"),
    ("protocol.parse_us", "us"),
    ("protocol.render_us", "us"),
    ("rule_store.symptoms_us", "us"),
    ("rule_store.decide_us", "us"),
    ("rule_store.hit_report_us", "us"),
    ("learn.hit_share", "share"),
    ("engine.measure_ms", "ms"),
    ("engine.propagate_ms", "ms"),
    ("engine.report_ms", "ms"),
    ("engine.trace_ms", "ms"),
    ("trace.events_per_board", "count"),
    ("prop.constraint_apps_per_board", "count"),
    ("prop.corroborations_per_board", "count"),
    ("atms.nogood_attempts_per_board", "count"),
    ("atms.nogood_useful_ratio", "ratio"),
    ("atms.env_intern_hits_per_board", "count"),
    ("fuzzy.dc_batch_per_board", "count"),
    ("strategy.recommend_ms", "ms"),
    ("strategy.probe_evals_per_board", "count"),
    ("circuit.extract_ms", "ms"),
    ("circuit.predictions_ms", "ms"),
    ("schedule.build_ms", "ms"),
    ("shard.build_s", "s"),
    ("model.flat_build_s", "s"),
    ("shard.measure_ms", "ms"),
    ("shard.propagate_ms", "ms"),
    ("shard.report_ms", "ms"),
    ("shard.waves_per_board", "count"),
    ("shard.boundary_envs_per_board", "count"),
    ("shard.cross_nogoods_per_board", "count"),
    ("traced.throughput_boards_per_s", "boards/s"),
    ("replay.unattributed_share", "share"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests (boards on `build_large`) attempted in the timed phase.
    pub attempted: u64,
    /// Attempted requests that failed: a non-200 status, a transport
    /// error or an output that differs from the reference.
    pub failed: u64,
    /// Failed checks beyond single requests.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra `"key": value` members for the details line.
    pub detail: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &str, json_value: String) {
        self.detail.push((key.to_owned(), json_value));
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// Counter deltas per board, keeping only the given name prefixes.
pub fn counters_per_board(
    delta: &flames_obs::MetricsSnapshot,
    prefixes: &[&str],
    boards: usize,
) -> String {
    let entries: Vec<String> = delta
        .with_prefixes(prefixes)
        .map(|(name, v)| format!("\"{name}\":{}", v as f64 / boards.max(1) as f64))
        .collect();
    format!("{{{}}}", entries.join(","))
}

/// Per-board means of the counters behind the propagation, ATMS and
/// fuzzy-kernel layer metrics.
pub fn set_kernel_counters(out: &mut Outcome, delta: &flames_obs::MetricsSnapshot, boards: usize) {
    let per = |name: &str| delta.get(name) as f64 / boards.max(1) as f64;
    let installs = delta.get("atms.nogood_installs") as f64;
    let subsumed = delta.get("atms.nogood_subsumed") as f64;
    out.set(
        "prop.constraint_apps_per_board",
        per("core.constraint_apps"),
    );
    out.set(
        "prop.corroborations_per_board",
        per("core.coincidence_corroborations"),
    );
    out.set(
        "atms.nogood_attempts_per_board",
        (installs + subsumed) / boards.max(1) as f64,
    );
    if installs + subsumed > 0.0 {
        out.set("atms.nogood_useful_ratio", installs / (installs + subsumed));
    }
    out.set(
        "atms.env_intern_hits_per_board",
        per("atms.env_intern_hits"),
    );
    out.set("fuzzy.dc_batch_per_board", per("fuzzy.dc_simd_batch"));
}

/// Times one standalone `CompiledSchedule::build` (the schedule every
/// model compiles), in milliseconds, as a span of its own.
pub fn time_schedule_build(
    netlist: &flames_circuit::Netlist,
    network: &flames_circuit::constraint::Network,
    config: flames_core::propagation::PropagatorConfig,
    rec: &mut spans::Recorder,
) -> f64 {
    let start = std::time::Instant::now();
    let schedule = rec.leaf("CompiledSchedule::build", 0, || {
        flames_core::propagation::CompiledSchedule::build(netlist, network, config)
    });
    let ms = start.elapsed().as_secs_f64() * 1e3;
    drop(schedule);
    ms
}

/// Renders a finite `f64` with every digit (shortest round trip).
pub fn num(v: f64) -> String {
    format!("{v}")
}

pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Spans of one name written to the span file; the metrics use all.
const WRITTEN_PER_NAME: usize = 5000;

/// Writes the recorded spans to `svcbench/out/spans-<workload>-<seed>.json`
/// and returns the path.
pub fn write_spans(rec: &spans::Recorder, workload: &str, seed: u64) -> String {
    let dir = std::path::Path::new("svcbench").join("out");
    let path = dir.join(format!("spans-{workload}-{seed}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, rec.to_chrome_json(WRITTEN_PER_NAME)));
    match written {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("not written: {e}"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    stats::pin_to_current_cpu();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svcbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "serve_novel" => serving::run(serving::Kind::Novel, args.seed, args.seconds, args.trace),
        "serve_recurring" => serving::run(
            serving::Kind::Recurring,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "build_large" => large::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("svcbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let absent: Vec<String> = catalogue
        .iter()
        .filter(|(name, _)| !outcome.metrics.contains_key(name))
        .map(|(name, _)| json_str(name))
        .collect();
    let mut metrics = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            outcome.problems.push(format!("{name} is not finite"));
        }
        if i > 0 {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            num(if value.is_finite() { value } else { 0.0 })
        );
    }
    for p in &outcome.problems {
        eprintln!("svcbench: check failed: {p}");
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty();

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut detail = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"absent_layers\":[{}],\"problems\":[{}]",
        json_str(&args.workload),
        args.seed,
        num(args.seconds),
        args.trace,
        json_str(&cpu_model()),
        json_str(env!("SVCBENCH_RUSTC")),
        absent.join(","),
        outcome
            .problems
            .iter()
            .map(|p| json_str(p))
            .collect::<Vec<_>>()
            .join(","),
    );
    for (k, v) in &outcome.detail {
        let _ = write!(detail, ",{}:{v}", json_str(k));
    }
    detail.push('}');
    println!("{detail}");
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    ExitCode::SUCCESS
}
