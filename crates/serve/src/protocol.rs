//! The wire protocol of the diagnosis service.
//!
//! Requests and responses are JSON; parsing reuses the zero-dep
//! [`flames_obs::json`] parser and rendering is hand-written so the
//! bytes are a *pure function* of the diagnosis content. That purity is
//! what the end-to-end suite pins: a board served over the socket must
//! render byte-identically to the same board diagnosed in process.
//!
//! `POST /diagnose` accepts
//!
//! ```json
//! {
//!   "boards": [
//!     [ {"point": "V1", "value": {"m1": 4.9, "m2": 5.1, "alpha": 0.1, "beta": 0.1}},
//!       {"point": 2,    "value": 5.0} ]
//!   ],
//!   "deadline_ms": 2000,
//!   "next_probe": true
//! }
//! ```
//!
//! where a `point` is a test-point name or index, a `value` is a
//! trapezoidal fuzzy interval (a bare number means crisp), `deadline_ms`
//! bounds queue wait (optional; the server default applies otherwise)
//! and `next_probe` asks for a best-next-test recommendation (default
//! `true`). The 200 response is one object per board:
//!
//! ```json
//! {"boards": [ {"points": [...], "nogoods": [...], "candidates": [...],
//!               "refined": [...], "next_probe": {...} | null} ]}
//! ```

use crate::error::ServeError;
use crate::wave::{BoardOutcome, NextProbe};
use flames_core::{Board, Candidate, Diagnoser, Report, RuleProvenance};
use flames_fuzzy::{Direction, FuzzyInterval};
use flames_obs::json::{parse, Value};
use flames_obs::trace::escape_json;
use std::fmt::Write as _;

/// Most boards accepted in one request — one request must fit one
/// wave, and the queue bounds a wave at this many boards so the work a
/// batcher does per wave, and the latency of the requests riding it,
/// stays bounded.
pub const MAX_BOARDS_PER_REQUEST: usize = 64;

/// A parsed `/diagnose` request.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnoseRequest {
    /// The measurement sets, resolved to test-point indices.
    pub boards: Vec<Board>,
    /// Queue-wait budget override, if the client sent one.
    pub deadline_ms: Option<u64>,
    /// Whether to compute the recommended next probe per board.
    pub next_probe: bool,
}

/// Parses and validates a `/diagnose` body against a diagnoser's
/// test-point table.
///
/// # Errors
///
/// Returns a 400 [`ServeError`] naming the first malformed field —
/// clients get the byte offset for syntax errors and the offending
/// member for schema errors.
pub fn parse_diagnose(body: &str, diagnoser: &Diagnoser) -> Result<DiagnoseRequest, ServeError> {
    let root = parse(body).map_err(|e| ServeError::bad_request(format!("malformed JSON: {e}")))?;
    let boards_v = root
        .member("boards")
        .ok_or_else(|| ServeError::bad_request("missing \"boards\" member"))?
        .as_array()
        .ok_or_else(|| ServeError::bad_request("\"boards\" must be an array"))?;
    if boards_v.is_empty() {
        return Err(ServeError::bad_request("\"boards\" must not be empty"));
    }
    if boards_v.len() > MAX_BOARDS_PER_REQUEST {
        return Err(ServeError::bad_request(format!(
            "at most {MAX_BOARDS_PER_REQUEST} boards per request, got {}",
            boards_v.len()
        )));
    }
    let mut boards = Vec::with_capacity(boards_v.len());
    for (bi, board_v) in boards_v.iter().enumerate() {
        let measurements = board_v
            .as_array()
            .ok_or_else(|| ServeError::bad_request(format!("board {bi} must be an array")))?;
        let mut board: Board = Vec::with_capacity(measurements.len());
        for (mi, m) in measurements.iter().enumerate() {
            board.push(parse_measurement(m, diagnoser).map_err(|e| {
                ServeError::bad_request(format!("board {bi}, measurement {mi}: {}", e.message))
            })?);
        }
        boards.push(board);
    }
    let deadline_ms = match root.member("deadline_ms") {
        None => None,
        Some(v) => Some(
            v.as_f64()
                .filter(|d| d.is_finite() && *d >= 0.0)
                .map(|d| d as u64)
                .ok_or_else(|| {
                    ServeError::bad_request("\"deadline_ms\" must be a non-negative number")
                })?,
        ),
    };
    let next_probe = match root.member("next_probe") {
        None => true,
        Some(Value::Bool(b)) => *b,
        Some(_) => return Err(ServeError::bad_request("\"next_probe\" must be a boolean")),
    };
    Ok(DiagnoseRequest {
        boards,
        deadline_ms,
        next_probe,
    })
}

/// One `{"point": ..., "value": ...}` measurement.
fn parse_measurement(
    m: &Value,
    diagnoser: &Diagnoser,
) -> Result<(usize, FuzzyInterval), ServeError> {
    let point_v = m
        .member("point")
        .ok_or_else(|| ServeError::bad_request("missing \"point\""))?;
    let idx = match point_v {
        Value::Number(n) => {
            let idx = *n as usize;
            if n.fract() != 0.0 || *n < 0.0 || idx >= diagnoser.test_points().len() {
                return Err(ServeError::bad_request(format!(
                    "test-point index {n} out of range"
                )));
            }
            idx
        }
        Value::String(name) => diagnoser
            .test_points()
            .iter()
            .position(|tp| tp.name == *name)
            .ok_or_else(|| ServeError::bad_request(format!("unknown test point {name:?}")))?,
        _ => {
            return Err(ServeError::bad_request(
                "\"point\" must be a name or an index",
            ))
        }
    };
    let value_v = m
        .member("value")
        .ok_or_else(|| ServeError::bad_request("missing \"value\""))?;
    let value = parse_fuzzy(value_v)?;
    Ok((idx, value))
}

/// A fuzzy interval: `{"m1":..,"m2":..,"alpha":..,"beta":..}` (alpha
/// and beta optional, default 0) or a bare number (crisp).
fn parse_fuzzy(v: &Value) -> Result<FuzzyInterval, ServeError> {
    match v {
        Value::Number(n) if n.is_finite() => Ok(FuzzyInterval::crisp(*n)),
        Value::Object(_) => {
            let field = |name: &str, default: Option<f64>| -> Result<f64, ServeError> {
                match v.member(name) {
                    Some(Value::Number(n)) if n.is_finite() => Ok(*n),
                    None => default.ok_or_else(|| {
                        ServeError::bad_request(format!("\"value\" missing \"{name}\""))
                    }),
                    Some(_) => Err(ServeError::bad_request(format!(
                        "\"value\".\"{name}\" must be a finite number"
                    ))),
                }
            };
            let m1 = field("m1", None)?;
            let m2 = field("m2", None)?;
            let alpha = field("alpha", Some(0.0))?;
            let beta = field("beta", Some(0.0))?;
            FuzzyInterval::new(m1, m2, alpha, beta)
                .map_err(|e| ServeError::bad_request(format!("invalid fuzzy interval: {e}")))
        }
        _ => Err(ServeError::bad_request(
            "\"value\" must be a number or a fuzzy-interval object",
        )),
    }
}

/// Renders an `f64` deterministically: shortest round-trip `{}` with a
/// `.0` appended to integral values, so the output stays visibly a
/// float (same convention as the trace exporter).
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let start = out.len();
        let _ = write!(out, "{v}");
        if !out[start..].contains('.') && !out[start..].contains('e') {
            out.push_str(".0");
        }
    } else {
        let _ = write!(out, "\"{v}\"");
    }
}

fn push_interval(out: &mut String, v: &FuzzyInterval) {
    out.push_str("{\"m1\":");
    push_f64(out, v.core_lo());
    out.push_str(",\"m2\":");
    push_f64(out, v.core_hi());
    out.push_str(",\"alpha\":");
    push_f64(out, v.spread_left());
    out.push_str(",\"beta\":");
    push_f64(out, v.spread_right());
    out.push('}');
}

fn direction_str(d: Direction) -> &'static str {
    match d {
        Direction::Low => "low",
        Direction::Within => "within",
        Direction::High => "high",
    }
}

fn push_candidates(out: &mut String, candidates: &[Candidate]) {
    out.push('[');
    for (i, c) in candidates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"members\":[");
        for (j, m) in c.members.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&escape_json(m));
        }
        out.push_str("],\"degree\":");
        push_f64(out, c.degree);
        out.push('}');
    }
    out.push(']');
}

/// Renders one board's diagnosis — the [`Report`] plus the recommended
/// next probe — as a JSON object. Shared by the server and the
/// in-process parity tests: equality of these bytes *is* the service's
/// determinism contract. A `"rule_provenance"` member is appended
/// *only* for boards served by the learned-rule fast path, so
/// model-path responses are byte-for-byte what a cache-less server
/// sends.
#[must_use]
pub fn render_board(
    report: &Report,
    next_probe: Option<&NextProbe>,
    provenance: Option<&RuleProvenance>,
) -> String {
    let mut out = String::with_capacity(512);
    out.push_str("{\"points\":[");
    for (i, p) in report.points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        out.push_str(&escape_json(&p.name));
        out.push_str(",\"predicted\":");
        push_interval(&mut out, &p.predicted);
        if let Some(m) = &p.measured {
            out.push_str(",\"measured\":");
            push_interval(&mut out, m);
        }
        if let Some(dc) = &p.consistency {
            out.push_str(",\"dc\":");
            push_f64(&mut out, dc.degree());
            out.push_str(",\"direction\":\"");
            out.push_str(direction_str(dc.direction()));
            out.push('"');
        }
        out.push('}');
    }
    out.push_str("],\"nogoods\":[");
    for (i, (set, degree)) in report.nogoods.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"set\":");
        out.push_str(&escape_json(set));
        out.push_str(",\"degree\":");
        push_f64(&mut out, *degree);
        out.push('}');
    }
    out.push_str("],\"candidates\":");
    push_candidates(&mut out, &report.candidates);
    out.push_str(",\"refined\":");
    push_candidates(&mut out, &report.refined);
    out.push_str(",\"next_probe\":");
    match next_probe {
        Some(np) => {
            out.push_str("{\"point\":");
            let _ = write!(out, "{}", np.point);
            out.push_str(",\"name\":");
            out.push_str(&escape_json(&np.name));
            out.push_str(",\"score\":");
            push_f64(&mut out, np.score);
            out.push('}');
        }
        None => out.push_str("null"),
    }
    if let Some(p) = provenance {
        out.push_str(",\"rule_provenance\":{\"culprit\":");
        out.push_str(&escape_json(&p.culprit));
        out.push_str(",\"mode\":");
        match &p.mode {
            Some(m) => out.push_str(&escape_json(m)),
            None => out.push_str("null"),
        }
        out.push_str(",\"score\":");
        push_f64(&mut out, p.score);
        out.push_str(",\"certainty\":");
        push_f64(&mut out, p.certainty);
        let _ = write!(
            out,
            ",\"confirmations\":{},\"matched\":{},\"rule_size\":{},\"epoch\":{}}}",
            p.confirmations, p.matched, p.rule_size, p.epoch
        );
    }
    out.push('}');
    out
}

/// Renders the full 200 body for a request's board outcomes.
#[must_use]
pub fn render_response(outcomes: &[BoardOutcome]) -> String {
    let mut out = String::from("{\"boards\":[");
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&render_board(
            &o.report,
            o.next_probe.as_ref(),
            o.provenance.as_ref(),
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flames_circuit::predict::TestPoint;
    use flames_circuit::{Net, Netlist};
    use flames_core::DiagnoserConfig;

    fn divider() -> Diagnoser {
        let mut nl = Netlist::new();
        let vin = nl.add_net("vin");
        let mid = nl.add_net("mid");
        nl.add_voltage_source("V", vin, Net::GROUND, 10.0).unwrap();
        let r1 = nl.add_resistor("R1", vin, mid, 1000.0, 0.05).unwrap();
        let r2 = nl
            .add_resistor("R2", mid, Net::GROUND, 1000.0, 0.05)
            .unwrap();
        Diagnoser::from_netlist(
            &nl,
            vec![TestPoint::new(mid, "Vmid", vec![r1, r2])],
            DiagnoserConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn parses_names_indices_and_value_forms() {
        let d = divider();
        let req = parse_diagnose(
            "{\"boards\": [[{\"point\": \"Vmid\", \"value\": 5.0}], \
             [{\"point\": 0, \"value\": {\"m1\": 4.9, \"m2\": 5.1, \"alpha\": 0.1}}]], \
             \"deadline_ms\": 250, \"next_probe\": false}",
            &d,
        )
        .unwrap();
        assert_eq!(req.boards.len(), 2);
        assert_eq!(req.boards[0][0].0, 0);
        assert!(req.boards[0][0].1.is_crisp());
        assert_eq!(req.boards[1][0].1.core(), (4.9, 5.1));
        assert_eq!(req.deadline_ms, Some(250));
        assert!(!req.next_probe);
    }

    #[test]
    fn schema_errors_are_bad_requests_with_detail() {
        let d = divider();
        for (body, needle) in [
            ("{", "malformed JSON"),
            ("{\"boards\": []}", "must not be empty"),
            ("{\"boards\": 1}", "must be an array"),
            ("{\"no\": 1}", "missing \"boards\""),
            ("{\"boards\": [[{\"value\": 1}]]}", "missing \"point\""),
            (
                "{\"boards\": [[{\"point\": \"nope\", \"value\": 1}]]}",
                "unknown test point",
            ),
            (
                "{\"boards\": [[{\"point\": 7, \"value\": 1}]]}",
                "out of range",
            ),
            (
                "{\"boards\": [[{\"point\": 0, \"value\": {\"m1\": 2, \"m2\": 1}}]]}",
                "invalid fuzzy interval",
            ),
            (
                "{\"boards\": [[{\"point\": 0, \"value\": true}]]}",
                "\"value\" must be",
            ),
            (
                "{\"boards\": [[{\"point\": 0, \"value\": 1}]], \"deadline_ms\": -3}",
                "deadline_ms",
            ),
            (
                "{\"boards\": [[{\"point\": 0, \"value\": 1}]], \"next_probe\": 1}",
                "next_probe",
            ),
        ] {
            let err = parse_diagnose(body, &d).unwrap_err();
            assert_eq!(err.status, 400, "{body}");
            assert!(err.message.contains(needle), "{body} -> {}", err.message);
        }
        // Too many boards.
        let many = format!(
            "{{\"boards\": [{}]}}",
            vec!["[{\"point\": 0, \"value\": 1}]"; 65].join(",")
        );
        let err = parse_diagnose(&many, &d).unwrap_err();
        assert!(err.message.contains("at most"));
    }

    #[test]
    fn rendered_bodies_parse_back() {
        let d = divider();
        let mut s = d.session();
        s.measure("Vmid", FuzzyInterval::crisp(6.2).widened(0.05).unwrap())
            .unwrap();
        s.propagate();
        let report = s.report();
        let body = render_response(&[BoardOutcome {
            report,
            next_probe: Some(NextProbe {
                point: 0,
                name: "Vmid".into(),
                score: 0.25,
            }),
            provenance: None,
        }]);
        let v = parse(&body).expect("valid JSON");
        let boards = v.member("boards").unwrap().as_array().unwrap();
        assert_eq!(boards.len(), 1);
        let b = &boards[0];
        assert!(!b
            .member("candidates")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
        assert_eq!(
            b.member("next_probe")
                .unwrap()
                .member("name")
                .unwrap()
                .as_str(),
            Some("Vmid")
        );
        let p0 = &b.member("points").unwrap().as_array().unwrap()[0];
        assert_eq!(p0.member("direction").unwrap().as_str(), Some("high"));
    }
}
