//! The wire protocol of the diagnosis service.
//!
//! Requests and responses are JSON. Parsing walks the body once with
//! the zero-dep [`flames_obs::json::Cursor`], collecting boards without
//! building a value tree; rendering is hand-written, into one buffer
//! per response, so the bytes are a *pure function* of the diagnosis
//! content. That purity is what the end-to-end suite pins: a board
//! served over the socket must render byte-identically to the same
//! board diagnosed in process.
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
#[cfg(test)]
use flames_obs::json::parse;
use flames_obs::json::{push_escaped, push_f64, push_u64, Cursor};
use std::borrow::Cow;

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
/// One [`Cursor`] walk over the body collects the boards, resolved
/// test-point indices and fuzzy intervals directly; no value tree is
/// built. The walk visits every byte, so a syntax error anywhere wins,
/// as it would in a full parse. Schema errors are held back until the
/// walk ends and then reported in a fixed order: the `boards` member
/// (present, an array, non-empty, at most [`MAX_BOARDS_PER_REQUEST`]),
/// then each board and measurement in document order, then
/// `deadline_ms`, then `next_probe`. A key that appears twice counts at
/// its first occurrence; keys and names compare by their decoded text.
///
/// # Errors
///
/// Returns a 400 [`ServeError`] naming the first malformed field —
/// clients get the byte offset for syntax errors and the offending
/// member for schema errors.
pub fn parse_diagnose(body: &str, diagnoser: &Diagnoser) -> Result<DiagnoseRequest, ServeError> {
    let mut cur = Cursor::new(body);
    let walk = walk_request(&mut cur, diagnoser)
        .and_then(|walk| cur.finish().map(|()| walk))
        .map_err(|e| ServeError::bad_request(format!("malformed JSON: {e}")))?;
    let BoardsWalk {
        boards,
        count,
        error,
    } = match walk.boards {
        None => return Err(ServeError::bad_request("missing \"boards\" member")),
        Some(None) => return Err(ServeError::bad_request("\"boards\" must be an array")),
        Some(Some(boards)) => boards,
    };
    if count == 0 {
        return Err(ServeError::bad_request("\"boards\" must not be empty"));
    }
    if count > MAX_BOARDS_PER_REQUEST {
        return Err(ServeError::bad_request(format!(
            "at most {MAX_BOARDS_PER_REQUEST} boards per request, got {count}"
        )));
    }
    if let Some(e) = error {
        return Err(e);
    }
    let deadline_ms = match walk.deadline_ms {
        None => None,
        Some(v) => Some(
            v.filter(|d| d.is_finite() && *d >= 0.0)
                .map(|d| d as u64)
                .ok_or_else(|| {
                    ServeError::bad_request("\"deadline_ms\" must be a non-negative number")
                })?,
        ),
    };
    let next_probe = match walk.next_probe {
        None => true,
        Some(Some(b)) => b,
        Some(None) => return Err(ServeError::bad_request("\"next_probe\" must be a boolean")),
    };
    Ok(DiagnoseRequest {
        boards,
        deadline_ms,
        next_probe,
    })
}

/// What one walk over a request body found. `None` is an absent
/// member; an inner `None` is a member of the wrong type.
struct RequestWalk {
    boards: Option<Option<BoardsWalk>>,
    deadline_ms: Option<Option<f64>>,
    next_probe: Option<Option<bool>>,
}

/// What the walk found in the `boards` array.
struct BoardsWalk {
    /// The boards read, up to the first schema error.
    boards: Vec<Board>,
    /// The element count.
    count: usize,
    /// The first schema error of a board or measurement.
    error: Option<ServeError>,
}

/// The outer `Result` of the walkers is the syntax verdict (a cursor
/// message); the inner one carries a schema error.
type Walked<T> = Result<T, String>;

fn walk_request(cur: &mut Cursor<'_>, diagnoser: &Diagnoser) -> Walked<RequestWalk> {
    let mut walk = RequestWalk {
        boards: None,
        deadline_ms: None,
        next_probe: None,
    };
    if cur.peek() != Some(b'{') {
        // Not an object: it has no "boards" member.
        cur.skip_value()?;
        return Ok(walk);
    }
    cur.begin_object()?;
    let mut first = true;
    while let Some(key) = cur.next_key(&mut first)? {
        match &*key {
            "boards" if walk.boards.is_none() => {
                walk.boards = Some(walk_boards(cur, diagnoser)?);
            }
            "deadline_ms" if walk.deadline_ms.is_none() => {
                walk.deadline_ms = Some(cur.number_or_skip()?);
            }
            "next_probe" if walk.next_probe.is_none() => {
                walk.next_probe = Some(cur.bool_or_skip()?);
            }
            _ => cur.skip_value()?,
        }
    }
    Ok(walk)
}

/// The `boards` array. Boards past the request limit are only checked
/// for syntax: the count alone already rejects the request.
fn walk_boards(cur: &mut Cursor<'_>, diagnoser: &Diagnoser) -> Walked<Option<BoardsWalk>> {
    if cur.peek() != Some(b'[') {
        cur.skip_value()?;
        return Ok(None);
    }
    cur.begin_array()?;
    let mut boards = Vec::new();
    let mut count = 0;
    let mut error = None;
    let mut first = true;
    while cur.next_element(&mut first)? {
        if error.is_none() && count < MAX_BOARDS_PER_REQUEST {
            match walk_board(cur, diagnoser, count)? {
                Ok(board) => boards.push(board),
                Err(e) => error = Some(e),
            }
        } else {
            cur.skip_value()?;
        }
        count += 1;
    }
    Ok(Some(BoardsWalk {
        boards,
        count,
        error,
    }))
}

fn walk_board(
    cur: &mut Cursor<'_>,
    diagnoser: &Diagnoser,
    bi: usize,
) -> Walked<Result<Board, ServeError>> {
    if cur.peek() != Some(b'[') {
        cur.skip_value()?;
        return Ok(Err(ServeError::bad_request(format!(
            "board {bi} must be an array"
        ))));
    }
    cur.begin_array()?;
    let mut board: Board = Vec::new();
    let mut error = None;
    let mut first = true;
    let mut mi = 0;
    while cur.next_element(&mut first)? {
        if error.is_none() {
            match walk_measurement(cur, diagnoser)? {
                Ok(m) => board.push(m),
                Err(e) => {
                    error = Some(ServeError::bad_request(format!(
                        "board {bi}, measurement {mi}: {}",
                        e.message
                    )));
                }
            }
        } else {
            cur.skip_value()?;
        }
        mi += 1;
    }
    Ok(error.map_or(Ok(board), Err))
}

/// A measurement's `point` member.
enum PointArg<'a> {
    Index(f64),
    Name(Cow<'a, str>),
    Other,
}

/// A measurement's `value` member: a bare number, or the four
/// trapezoid members of an object (each absent, a number, or `None`
/// for a non-number).
enum ValueArg {
    Number(f64),
    Object([Option<Option<f64>>; 4]),
    Other,
}

/// The members of a fuzzy-interval object, in the order they are
/// checked, with their defaults.
const FUZZY_FIELDS: [(&str, Option<f64>); 4] = [
    ("m1", None),
    ("m2", None),
    ("alpha", Some(0.0)),
    ("beta", Some(0.0)),
];

/// One `{"point": ..., "value": ...}` measurement.
fn walk_measurement(
    cur: &mut Cursor<'_>,
    diagnoser: &Diagnoser,
) -> Walked<Result<(usize, FuzzyInterval), ServeError>> {
    let mut point = None;
    let mut value = None;
    if cur.peek() == Some(b'{') {
        cur.begin_object()?;
        let mut first = true;
        while let Some(key) = cur.next_key(&mut first)? {
            match &*key {
                "point" if point.is_none() => {
                    point = Some(match cur.peek() {
                        Some(b'"') => PointArg::Name(cur.string()?),
                        Some(b) if Cursor::starts_number(b) => PointArg::Index(cur.number()?),
                        _ => {
                            cur.skip_value()?;
                            PointArg::Other
                        }
                    });
                }
                "value" if value.is_none() => value = Some(walk_value(cur)?),
                _ => cur.skip_value()?,
            }
        }
    } else {
        cur.skip_value()?;
    }
    Ok(resolve_measurement(point, value, diagnoser))
}

fn walk_value(cur: &mut Cursor<'_>) -> Walked<ValueArg> {
    match cur.peek() {
        Some(b) if Cursor::starts_number(b) => Ok(ValueArg::Number(cur.number()?)),
        Some(b'{') => {
            cur.begin_object()?;
            let mut fields = [None; 4];
            let mut first = true;
            while let Some(key) = cur.next_key(&mut first)? {
                match FUZZY_FIELDS.iter().position(|(name, _)| *name == key) {
                    Some(f) if fields[f].is_none() => fields[f] = Some(cur.number_or_skip()?),
                    _ => cur.skip_value()?,
                }
            }
            Ok(ValueArg::Object(fields))
        }
        _ => {
            cur.skip_value()?;
            Ok(ValueArg::Other)
        }
    }
}

/// The schema checks of one measurement, in their fixed order: the
/// point, then the value.
fn resolve_measurement(
    point: Option<PointArg<'_>>,
    value: Option<ValueArg>,
    diagnoser: &Diagnoser,
) -> Result<(usize, FuzzyInterval), ServeError> {
    let idx = match point.ok_or_else(|| ServeError::bad_request("missing \"point\""))? {
        PointArg::Index(n) => {
            let idx = n as usize;
            if n.fract() != 0.0 || n < 0.0 || idx >= diagnoser.test_points().len() {
                return Err(ServeError::bad_request(format!(
                    "test-point index {n} out of range"
                )));
            }
            idx
        }
        PointArg::Name(name) => diagnoser
            .test_points()
            .iter()
            .position(|tp| tp.name == *name)
            .ok_or_else(|| ServeError::bad_request(format!("unknown test point {:?}", &*name)))?,
        PointArg::Other => {
            return Err(ServeError::bad_request(
                "\"point\" must be a name or an index",
            ))
        }
    };
    let value = match value.ok_or_else(|| ServeError::bad_request("missing \"value\""))? {
        ValueArg::Number(n) if n.is_finite() => FuzzyInterval::crisp(n),
        ValueArg::Object(fields) => {
            let mut v = [0.0; 4];
            for (slot, (field, (name, default))) in
                v.iter_mut().zip(fields.iter().zip(FUZZY_FIELDS))
            {
                *slot = match *field {
                    Some(Some(n)) if n.is_finite() => n,
                    None => default.ok_or_else(|| {
                        ServeError::bad_request(format!("\"value\" missing \"{name}\""))
                    })?,
                    Some(_) => {
                        return Err(ServeError::bad_request(format!(
                            "\"value\".\"{name}\" must be a finite number"
                        )))
                    }
                };
            }
            FuzzyInterval::new(v[0], v[1], v[2], v[3])
                .map_err(|e| ServeError::bad_request(format!("invalid fuzzy interval: {e}")))?
        }
        _ => {
            return Err(ServeError::bad_request(
                "\"value\" must be a number or a fuzzy-interval object",
            ))
        }
    };
    Ok((idx, value))
}

/// Renders a trapezoid. A crisp core (`m1 == m2`) and a symmetric
/// spread (`alpha == beta`) are common, so a column equal to the one
/// before it copies that column's text instead of formatting it again.
fn push_interval(out: &mut String, v: &FuzzyInterval) {
    out.push_str("{\"m1\":");
    push_column_pair(out, v.core_lo(), ",\"m2\":", v.core_hi());
    out.push_str(",\"alpha\":");
    push_column_pair(out, v.spread_left(), ",\"beta\":", v.spread_right());
    out.push('}');
}

/// `first`, the `between` text, then `second`.
fn push_column_pair(out: &mut String, first: f64, between: &str, second: f64) {
    let start = out.len();
    push_f64(out, first);
    let end = out.len();
    out.push_str(between);
    if first.to_bits() == second.to_bits() {
        out.extend_from_within(start..end);
    } else {
        push_f64(out, second);
    }
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
            push_escaped(out, m);
        }
        out.push_str("],\"degree\":");
        push_f64(out, c.degree);
        out.push('}');
    }
    out.push(']');
}

/// Renders one board's diagnosis — the [`Report`] plus the recommended
/// next probe — as a JSON object. The server renders through
/// [`render_board_into`], the in-process parity tests through this:
/// equality of these bytes *is* the service's determinism contract. A
/// `"rule_provenance"` member is appended *only* for boards served by
/// the learned-rule fast path, so model-path responses are
/// byte-for-byte what a cache-less server sends.
#[must_use]
pub fn render_board(
    report: &Report,
    next_probe: Option<&NextProbe>,
    provenance: Option<&RuleProvenance>,
) -> String {
    let mut out = String::with_capacity(BOARD_BYTES_HINT);
    render_board_into(&mut out, report, next_probe, provenance);
    out
}

/// Bytes reserved per board when a buffer is sized up front: a rule-hit
/// board of the three-stage amplifier renders to about 1050.
pub(crate) const BOARD_BYTES_HINT: usize = 1152;

/// [`render_board`] appending to `out`, so a whole response renders
/// into one buffer: numbers through [`push_f64`] and [`push_u64`],
/// strings escaped in place.
pub fn render_board_into(
    out: &mut String,
    report: &Report,
    next_probe: Option<&NextProbe>,
    provenance: Option<&RuleProvenance>,
) {
    out.push_str("{\"points\":[");
    for (i, p) in report.points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_escaped(out, &p.name);
        out.push_str(",\"predicted\":");
        push_interval(out, &p.predicted);
        if let Some(m) = &p.measured {
            out.push_str(",\"measured\":");
            push_interval(out, m);
        }
        if let Some(dc) = &p.consistency {
            out.push_str(",\"dc\":");
            push_f64(out, dc.degree());
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
        push_escaped(out, set);
        out.push_str(",\"degree\":");
        push_f64(out, *degree);
        out.push('}');
    }
    out.push_str("],\"candidates\":");
    push_candidates(out, &report.candidates);
    out.push_str(",\"refined\":");
    push_candidates(out, &report.refined);
    out.push_str(",\"next_probe\":");
    match next_probe {
        Some(np) => {
            out.push_str("{\"point\":");
            push_u64(out, np.point as u64);
            out.push_str(",\"name\":");
            push_escaped(out, &np.name);
            out.push_str(",\"score\":");
            push_f64(out, np.score);
            out.push('}');
        }
        None => out.push_str("null"),
    }
    if let Some(p) = provenance {
        out.push_str(",\"rule_provenance\":{\"culprit\":");
        push_escaped(out, &p.culprit);
        out.push_str(",\"mode\":");
        match &p.mode {
            Some(m) => push_escaped(out, m),
            None => out.push_str("null"),
        }
        out.push_str(",\"score\":");
        push_f64(out, p.score);
        out.push_str(",\"certainty\":");
        push_f64(out, p.certainty);
        for (name, v) in [
            (",\"confirmations\":", u64::from(p.confirmations)),
            (",\"matched\":", u64::from(p.matched)),
            (",\"rule_size\":", u64::from(p.rule_size)),
            (",\"epoch\":", p.epoch),
        ] {
            out.push_str(name);
            push_u64(out, v);
        }
        out.push('}');
    }
    out.push('}');
}

/// Renders the full 200 body for a request's board outcomes.
#[must_use]
pub fn render_response(outcomes: &[BoardOutcome]) -> String {
    let mut out = String::with_capacity(16 + outcomes.len() * BOARD_BYTES_HINT);
    out.push_str("{\"boards\":[");
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render_board_into(
            &mut out,
            &o.report,
            o.next_probe.as_ref(),
            o.provenance.as_ref(),
        );
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
