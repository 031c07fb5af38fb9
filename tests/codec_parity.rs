//! Differential checks of the service codec against the code it
//! replaced.
//!
//! * `push_f64` (shortest round-trip digits, made in-crate) against
//!   `format!("{v}")` with the `.0` rule and the quoted non-finite form
//!   that the service has always rendered: on a million random bit
//!   patterns and on the edge classes where shortest-digit algorithms
//!   go wrong. A 10⁸-sample run is `#[ignore]`d here and run in release
//!   by `scripts/verify.sh`.
//! * The streaming `parse_diagnose` (and the cursor-driven
//!   `json::parse`) against the recursive-descent JSON parser and the
//!   tree-based request parser they replaced, kept below verbatim: on
//!   SplitMix64-mutated request bodies, both must accept and reject
//!   the same bodies, with byte-equal error messages and equal
//!   requests.

use flames::circuit::circuits::three_stage;
use flames::core::{Diagnoser, DiagnoserConfig};
use flames::obs::json::{self, push_f64, Value};
use flames::serve::protocol::{parse_diagnose, DiagnoseRequest, MAX_BOARDS_PER_REQUEST};
use flames::serve::ServeError;
use flames_bench::rng::SplitMix64;

/// The formatter the service used before `push_f64`: `{}` with `.0`
/// appended to integral values, and non-finite values quoted.
fn std_f64(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        if !s.contains('.') && !s.contains('e') {
            s.push_str(".0");
        }
        s
    } else {
        format!("\"{v}\"")
    }
}

fn ours(v: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, v);
    out
}

fn assert_same(v: f64) {
    let (got, want) = (ours(v), std_f64(v));
    assert_eq!(got, want, "bits {:#018x}", v.to_bits());
}

/// `n` uniformly random bit patterns (every class of double, NaNs
/// included) through both formatters.
fn random_bits_agree(seed: u64, n: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut ours_buf = String::new();
    for _ in 0..n {
        let v = f64::from_bits(rng.next_u64());
        ours_buf.clear();
        push_f64(&mut ours_buf, v);
        if ours_buf != std_f64(v) {
            assert_same(v);
        }
    }
}

#[test]
fn push_f64_matches_display_on_a_million_random_bit_patterns() {
    random_bits_agree(0x5EED_0F64, 1_000_000);
}

#[test]
#[ignore = "10^8 samples; run in release by scripts/verify.sh"]
fn push_f64_matches_display_on_a_hundred_million_random_bit_patterns() {
    random_bits_agree(0xF64_F64, 100_000_000);
}

#[test]
fn push_f64_matches_display_on_the_edge_classes() {
    // Zeros, the subnormal range, the normal extremes, the non-finite
    // values.
    for v in [
        0.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::EPSILON,
        1.0,
        0.1,
        f64::INFINITY,
        f64::NAN,
    ] {
        assert_same(v);
        assert_same(-v);
    }
    let largest_subnormal = f64::from_bits(f64::MIN_POSITIVE.to_bits() - 1);
    for v in [f64::from_bits(1), f64::from_bits(2), largest_subnormal] {
        assert_same(v);
        assert_same(-v);
    }
    let mut rng = SplitMix64::new(0x5B0B);
    for _ in 0..10_000 {
        assert_same(f64::from_bits(rng.next_u64() & ((1 << 52) - 1)));
    }
    // Every power of two, and its neighbours (the lower rounding bound
    // is closer at a power of two).
    for k in -1074i32..=1023 {
        let v = if k < -1022 {
            f64::from_bits(1 << (k + 1074))
        } else {
            f64::from_bits(((k + 1023) as u64) << 52)
        };
        assert_eq!(v.log2(), f64::from(k));
        for w in [
            v,
            f64::from_bits(v.to_bits() - 1),
            f64::from_bits(v.to_bits() + 1),
        ] {
            assert_same(w);
        }
    }
    // Powers of ten, and their neighbours.
    for k in -30..=30 {
        let v: f64 = format!("1e{k}").parse().expect("a power of ten");
        for w in [
            v,
            f64::from_bits(v.to_bits() - 1),
            f64::from_bits(v.to_bits() + 1),
        ] {
            assert_same(w);
        }
    }
    assert_same(1e23);
    assert_same(9007199254740993e7);
    // Integers around 2^53, and quarter steps near 2^50, where the
    // exact value (…x.25) sits halfway between the two shortest
    // candidates (…x.2 and …x.3): std rounds such ties up.
    let two53 = 2f64.powi(53);
    for d in -2000..=2000 {
        assert_same(two53 + f64::from(d));
        assert_same(2f64.powi(50) + f64::from(d) * 0.25);
        assert_same(2f64.powi(52) + f64::from(d) * 0.5);
    }
    assert_eq!(ours(2f64.powi(50) + 0.25), "1125899906842624.3");
    // Shortest forms of 15, 16 and 17 significant digits.
    let mut by_len = [0usize; 18];
    let mut rng = SplitMix64::new(0xD161_0075);
    while by_len[15..=17].iter().any(|&n| n < 2000) {
        let digits = 15 + (rng.next_u64() % 3) as usize;
        let mantissa: String = (0..digits)
            .map(|i| {
                let d = rng.next_u64() % 10;
                char::from(b'0' + if i == 0 { d.max(1) } else { d } as u8)
            })
            .collect();
        let exp = (rng.next_u64() % 40) as i32 - 20;
        let v: f64 = format!("{mantissa}e{exp}").parse().expect("a decimal");
        let shortest = format!("{v:e}");
        let len = shortest
            .split('e')
            .next()
            .expect("a mantissa")
            .chars()
            .filter(char::is_ascii_digit)
            .count();
        if (15..=17).contains(&len) {
            by_len[len] += 1;
            assert_same(v);
        }
    }
}

/// The recursive-descent parser `flames_obs::json::parse` used to be.
mod old_json {
    use flames::obs::json::Value;

    pub fn parse(input: &str) -> Result<Value, String> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
        if *pos < bytes.len() && bytes[*pos] == b {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, *pos))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b'{') => parse_object(bytes, pos),
            Some(b'[') => parse_array(bytes, pos),
            Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
            Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
            _ => Err(format!("unexpected input at byte {}", *pos)),
        }
    }

    fn parse_literal(
        bytes: &[u8],
        pos: &mut usize,
        lit: &str,
        value: Value,
    ) -> Result<Value, String> {
        if bytes[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", *pos))
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        if bytes.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < bytes.len()
            && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        {
            *pos += 1;
        }
        let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            // Surrogate pairs are not needed for our own
                            // exports; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Copy the maximal chunk up to the next quote or escape
                    // in one go — validating the whole remaining input per
                    // character would make parsing quadratic, which matters
                    // for multi-megabyte traces.
                    let start = *pos;
                    while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                        *pos += 1;
                    }
                    let chunk =
                        std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
            }
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'{')?;
        let mut members = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            skip_ws(bytes, pos);
            expect(bytes, pos, b':')?;
            let value = parse_value(bytes, pos)?;
            members.push((key, value));
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
            }
        }
    }
}

/// The tree-based request parser `parse_diagnose` used to be.
mod old_protocol {
    use super::old_json::parse;
    use flames::core::{Board, Diagnoser};
    use flames::fuzzy::FuzzyInterval;
    use flames::obs::json::Value;
    use flames::serve::protocol::{DiagnoseRequest, MAX_BOARDS_PER_REQUEST};
    use flames::serve::ServeError;

    pub fn parse_diagnose(
        body: &str,
        diagnoser: &Diagnoser,
    ) -> Result<DiagnoseRequest, ServeError> {
        let root =
            parse(body).map_err(|e| ServeError::bad_request(format!("malformed JSON: {e}")))?;
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
}

fn diagnoser() -> Diagnoser {
    let ts = three_stage(0.05);
    Diagnoser::from_netlist(&ts.netlist, ts.test_points, DiagnoserConfig::default())
        .expect("three-stage model compiles")
}

fn boards_body(n: usize) -> String {
    let board = "[{\"point\":0,\"value\":{\"m1\":4.9,\"m2\":5.1,\"alpha\":0.1,\"beta\":0.1}}]";
    format!("{{\"boards\":[{}]}}", vec![board; n].join(","))
}

/// Request bodies the mutations start from: valid ones, and ones with
/// escaped and duplicate keys, unknown nested members, every value
/// form and every schema error.
fn seeds() -> Vec<String> {
    let mut seeds: Vec<String> = [
        r#"{"boards": [[{"point": "V1", "value": {"m1": 4.9, "m2": 5.1, "alpha": 0.1, "beta": 0.2}}, {"point": 2, "value": 5.0}], [{"point": "Vs", "value": -0}]], "deadline_ms": 250, "next_probe": false}"#,
        r#"{"deadline_ms": 9, "next_probe": true, "boards": [[{"value": {"m2": 1e-3, "m1": -0}, "point": 1}]]}"#,
        r#"{"bo\u0061rds": [[{"poi\u006et": "V\u0031", "v\u0061lue": {"m\u0031": 1, "m2": 2}}]], "boards": 3}"#,
        r#"{"boards": [[{"point": 0, "point": "nope", "value": 1, "value": true}]], "boards": [], "deadline_ms": -1, "deadline_ms": 5}"#,
        r#"{"extra": {"a": [1, {"b": null}], "c": "\"\\\/\b\f\n\r\t"}, "boards": [[{"x": [[]], "point": 0, "value": {"m1": 1, "m2": 1, "alpha": 0, "beta": 0, "gamma": {"d": [true, false]}}}]]}"#,
        r#"{"boards": [[{"point": 0, "value": 1e400}], [{"point": 1.5, "value": 1}], {"point": 0}]}"#,
        r#"{"boards": [[{"point": 0, "value": {"m1": 2, "m2": 1}}], [{"point": -1, "value": 1}]], "next_probe": 1}"#,
        r#"{"boards": [[{"point": 0, "value": {"m1": 1.5.3, "m2": 2}}]]}"#,
        r#"{"boards": [[{"point": 7, "value": {"m1": 1, "m2": "x", "alpha": 1e400}}], 4, [{"value": 1}]]}"#,
        r#"{"boards": [[], [{"point": "V2", "value": {"m1": 1, "m2": 2, "alpha": null}}]], "deadline_ms": "soon"}"#,
        r#"[{"boards": [[{"point": 0, "value": 1}]]}]"#,
        r#"{"boards": {"0": [[{"point": 0, "value": 1}]]}}"#,
        r#"{"boards": [[{"point": "V\u00e9", "value": 1}], [{"point": "Vé", "value": 1}]]}"#,
        r#" { "boards" : [ [ { "point" : 0 , "value" : 5 } ] ] , "next_probe" : null } "#,
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    for n in [0, 1, MAX_BOARDS_PER_REQUEST, MAX_BOARDS_PER_REQUEST + 1] {
        seeds.push(boards_body(n));
    }
    seeds
}

/// Tokens the mutations splice in.
const TOKENS: &[&str] = &[
    "-0",
    "1e400",
    "1.5.3",
    "-",
    "0",
    "64",
    "1.5",
    "\"V1\"",
    "\"\\u0041\"",
    "\"\\u12\"",
    "\"\\q\"",
    "null",
    "true",
    "tru",
    "{}",
    "[]",
    "[",
    "{",
    "]",
    "}",
    ",",
    ":",
    "\"",
    "\\",
    " ",
    "\"boards\":",
    "\"point\":",
    "\"value\":",
    "\"m1\":",
    "\"deadline_ms\":",
    "\"next_probe\":",
    "{\"point\":0,\"value\":1}",
];

/// Values and keys the syntax-preserving mutations swap in.
const VALUES: &[&str] = &[
    "-0",
    "1e400",
    "0",
    "2",
    "7",
    "1.5",
    "-3",
    "64",
    "\"V1\"",
    "\"V\\u0032\"",
    "\"nope\"",
    "null",
    "true",
    "false",
    "{}",
    "[]",
    "{\"m1\":1,\"m2\":2}",
    "[{\"point\":0,\"value\":1}]",
    "[[]]",
];
const KEYS: &[&str] = &[
    "\"boards\"",
    "\"point\"",
    "\"value\"",
    "\"m1\"",
    "\"m2\"",
    "\"alpha\"",
    "\"beta\"",
    "\"deadline_ms\"",
    "\"next_probe\"",
    "\"bo\\u0061rds\"",
    "\"x\"",
];

/// The scalar tokens of a JSON text: `(start, end, is_key)`, strings
/// followed by `:` being keys.
fn scalar_tokens(text: &[u8]) -> Vec<(usize, usize, bool)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < text.len() {
        let start = i;
        match text[i] {
            b'"' => {
                i += 1;
                while i < text.len() && text[i] != b'"' {
                    i += if text[i] == b'\\' { 2 } else { 1 };
                }
                i = (i + 1).min(text.len());
                let next = text[i..].iter().find(|b| !b.is_ascii_whitespace());
                out.push((start, i, next == Some(&b':')));
            }
            b'-' | b'0'..=b'9' | b't' | b'f' | b'n' => {
                while i < text.len() && !b",]} \n".contains(&text[i]) {
                    i += 1;
                }
                out.push((start, i, false));
            }
            _ => i += 1,
        }
    }
    out
}

fn pick<'a>(rng: &mut SplitMix64, items: &[&'a str]) -> &'a str {
    items[(rng.next_u64() % items.len() as u64) as usize]
}

fn mutate(seed: &str, rng: &mut SplitMix64) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    let rounds = 1 + rng.next_u64() % 3;
    for _ in 0..rounds {
        let len = bytes.len();
        let at = if len == 0 {
            0
        } else {
            (rng.next_u64() % len as u64) as usize
        };
        match rng.next_u64() % 8 {
            0 => bytes.truncate(at),
            1 if len > 0 => bytes[at] = pick(rng, TOKENS).as_bytes()[0],
            2 => {
                let token = pick(rng, TOKENS);
                bytes.splice(at..at, token.bytes());
            }
            3 => {
                let end = (at + 1 + (rng.next_u64() % 12) as usize).min(len);
                bytes.drain(at..end);
            }
            4 => {
                let end = (at + 1 + (rng.next_u64() % 40) as usize).min(len);
                let copy = bytes[at..end].to_vec();
                bytes.splice(at..at, copy);
            }
            _ => {
                // Swap one whole key or scalar value: the syntax stays
                // valid, the schema may not.
                let tokens = scalar_tokens(&bytes);
                if tokens.is_empty() {
                    continue;
                }
                let (start, end, is_key) = tokens[(rng.next_u64() % tokens.len() as u64) as usize];
                let with = pick(rng, if is_key { KEYS } else { VALUES });
                bytes.splice(start..end, with.bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn outcome(r: &Result<DiagnoseRequest, ServeError>) -> String {
    match r {
        Ok(req) => format!("ok {req:?}"),
        Err(e) => format!("err {} {:?}: {}", e.status, e.kind, e.message),
    }
}

#[test]
fn streaming_parser_matches_the_tree_parser_on_mutated_bodies() {
    let d = diagnoser();
    let seeds = seeds();
    let mut rng = SplitMix64::new(0xB0D1E5);
    let mut bodies: Vec<String> = seeds.clone();
    while bodies.len() < 12_000 {
        let seed = &seeds[(rng.next_u64() % seeds.len() as u64) as usize];
        bodies.push(mutate(seed, &mut rng));
    }
    let (mut accepted, mut malformed, mut schema) = (0, 0, 0);
    for body in &bodies {
        let new = parse_diagnose(body, &d);
        let old = old_protocol::parse_diagnose(body, &d);
        assert_eq!(outcome(&new), outcome(&old), "body {body:?}");
        match &new {
            Ok(_) => accepted += 1,
            Err(e) if e.message.starts_with("malformed JSON") => malformed += 1,
            Err(_) => schema += 1,
        }
        let new_tree: Result<Value, String> = json::parse(body);
        let old_tree = old_json::parse(body);
        assert_eq!(
            format!("{new_tree:?}"),
            format!("{old_tree:?}"),
            "body {body:?}"
        );
    }
    // The mutations reach every verdict, not just syntax errors.
    assert!(
        accepted > 300 && malformed > 2000 && schema > 1000,
        "{accepted}/{malformed}/{schema}"
    );
}

#[test]
fn streaming_parser_matches_the_tree_parser_on_the_seeds() {
    let d = diagnoser();
    let mut verdicts = Vec::new();
    for body in seeds() {
        let new = parse_diagnose(&body, &d);
        assert_eq!(
            outcome(&new),
            outcome(&old_protocol::parse_diagnose(&body, &d))
        );
        verdicts.push(outcome(&new));
    }
    // The first seed is accepted with its first-occurrence members and
    // a negative zero kept as such.
    assert!(verdicts[0].starts_with("ok"), "{}", verdicts[0]);
    assert!(verdicts[0].contains("-0.0"), "{}", verdicts[0]);
    for needle in [
        "at most 64 boards per request, got 65",
        "must not be empty",
        "\"boards\" must be an array",
        "missing \"boards\"",
        "invalid number \"1.5.3\"",
        "unknown test point",
    ] {
        assert!(
            verdicts.iter().any(|v| v.contains(needle)),
            "no seed yields {needle:?}: {verdicts:#?}"
        );
    }
}
