//! Span-based diagnosis traces on a deterministic logical clock.
//!
//! A [`Trace`] is an append-only list of [`TraceEvent`]s — complete
//! spans (`ph: "X"`) and instants (`ph: "i"`) — timestamped by a
//! *logical* microsecond counter rather than wall clock, so the trace
//! of a diagnosis is a pure function of the work performed: two
//! sessions doing identical work produce byte-identical traces, which
//! is what lets cold/compiled/pooled paths be cross-checked at the
//! trace level.
//!
//! [`Trace::to_chrome_json`] renders the Chrome `trace_event` format
//! (the `{"traceEvents": [...]}` object form) accepted by
//! `about:tracing` and Perfetto.

use crate::json::{push_escaped, push_f64, push_u64};

/// A typed event argument (rendered into the `args` object).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer.
    U64(u64),
    /// A float (rendered with enough digits to round-trip).
    F64(f64),
    /// A string (JSON-escaped on export).
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        Self::U64(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        Self::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        Self::Str(v.to_owned())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        Self::Str(v)
    }
}

/// One Chrome `trace_event` record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (shown on the timeline slice).
    pub name: String,
    /// Category, used by about:tracing filters (e.g. `"atms"`).
    pub cat: &'static str,
    /// Phase: `'X'` complete span, `'i'` instant.
    pub ph: char,
    /// Logical timestamp in microseconds.
    pub ts: u64,
    /// Span duration (complete spans only; 0 for instants).
    pub dur: u64,
    /// Key/value payload.
    pub args: Vec<(String, ArgValue)>,
}

/// An append-only event log with a logical clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    events: Vec<TraceEvent>,
    clock: u64,
}

impl Trace {
    /// An empty trace at logical time 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current logical time (microseconds).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Advances the logical clock by one tick and returns the new time.
    pub fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Records an instant event at the current logical time.
    pub fn instant(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        args: Vec<(String, ArgValue)>,
    ) {
        let ts = self.tick();
        self.events.push(TraceEvent {
            name: name.into(),
            cat,
            ph: 'i',
            ts,
            dur: 0,
            args,
        });
    }

    /// Records a complete span from `start_ts` (a value previously
    /// returned by [`Trace::now`] or [`Trace::tick`]) to the current
    /// logical time.
    pub fn complete(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        start_ts: u64,
        args: Vec<(String, ArgValue)>,
    ) {
        let end = self.tick();
        self.events.push(TraceEvent {
            name: name.into(),
            cat,
            ph: 'X',
            ts: start_ts,
            dur: end.saturating_sub(start_ts),
            args,
        });
    }

    /// The recorded events, in append order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Renders the Chrome `trace_event` object form, every event on
    /// `tid` 1.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_chrome_event(&mut out, ev, 1);
        }
        out.push_str("]}");
        out
    }
}

/// Appends one event as a Chrome `trace_event` object on thread `tid`
/// (process 1). Floats in `args` go through [`push_f64`], so an
/// integral value keeps a visible `.0` for trace viewers.
pub fn push_chrome_event(out: &mut String, ev: &TraceEvent, tid: u64) {
    out.push_str("{\"name\":");
    push_escaped(out, &ev.name);
    out.push_str(",\"cat\":\"");
    out.push_str(ev.cat);
    out.push_str("\",\"ph\":\"");
    out.push(ev.ph);
    out.push_str("\",\"pid\":1,\"tid\":");
    push_u64(out, tid);
    out.push_str(",\"ts\":");
    push_u64(out, ev.ts);
    if ev.ph == 'X' {
        out.push_str(",\"dur\":");
        push_u64(out, ev.dur);
    }
    out.push_str(",\"args\":{");
    for (j, (key, value)) in ev.args.iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        push_escaped(out, key);
        out.push(':');
        match value {
            ArgValue::U64(v) => push_u64(out, *v),
            ArgValue::F64(v) => push_f64(out, *v),
            ArgValue::Str(v) => push_escaped(out, v),
        }
    }
    out.push_str("}}");
}

/// JSON-escapes a string, including the surrounding quotes (see
/// [`push_escaped`], which appends to a buffer instead).
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_escaped(&mut out, s);
    out
}

/// Validates that `json` is a loadable Chrome `trace_event` document:
/// a top-level object with a `traceEvents` array whose elements carry
/// `name`/`ph`/`ts`/`pid`/`tid` of the right types. Returns the event
/// count.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let value = crate::json::parse(json)?;
    let obj = value.as_object().ok_or("top level is not an object")?;
    let events = obj
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .ok_or("missing traceEvents key")?;
    let events = events.as_array().ok_or("traceEvents is not an array")?;
    for (i, ev) in events.iter().enumerate() {
        let ev = ev
            .as_object()
            .ok_or(format!("event {i} is not an object"))?;
        let field = |key: &str| {
            ev.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or(format!("event {i} missing {key:?}"))
        };
        field("name")?
            .as_str()
            .ok_or(format!("event {i}: name is not a string"))?;
        let ph = field("ph")?
            .as_str()
            .ok_or(format!("event {i}: ph is not a string"))?;
        if ph.chars().count() != 1 {
            return Err(format!("event {i}: ph {ph:?} is not a single character"));
        }
        field("ts")?
            .as_f64()
            .ok_or(format!("event {i}: ts is not a number"))?;
        field("pid")?
            .as_f64()
            .ok_or(format!("event {i}: pid is not a number"))?;
        field("tid")?
            .as_f64()
            .ok_or(format!("event {i}: tid is not a number"))?;
        if ph == "X" {
            field("dur")?
                .as_f64()
                .ok_or(format!("event {i}: dur is not a number"))?;
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_clock_is_deterministic() {
        let build = || {
            let mut t = Trace::new();
            let start = t.now();
            t.instant("coincidence", "core", vec![("dc".into(), 0.25.into())]);
            t.complete("wave", "core", start, vec![("steps".into(), 12u64.into())]);
            t
        };
        assert_eq!(build(), build());
        assert_eq!(build().to_chrome_json(), build().to_chrome_json());
    }

    #[test]
    fn chrome_export_validates() {
        let mut t = Trace::new();
        let start = t.now();
        t.instant(
            "nogood",
            "atms",
            vec![
                ("env".into(), "{R1, R2}".into()),
                ("degree".into(), 1.0.into()),
            ],
        );
        t.complete("propagate", "core", start, vec![]);
        let json = t.to_chrome_json();
        assert_eq!(validate_chrome_trace(&json), Ok(2));
    }

    #[test]
    fn escaping_survives_hostile_names() {
        let mut t = Trace::new();
        t.instant("we\"ird\\name\n", "test", vec![]);
        let json = t.to_chrome_json();
        assert_eq!(validate_chrome_trace(&json), Ok(1));
    }

    #[test]
    fn empty_trace_is_valid() {
        assert_eq!(validate_chrome_trace(&Trace::new().to_chrome_json()), Ok(0));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": 3}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": [{\"ph\": \"X\"}]}").is_err());
        assert!(validate_chrome_trace("not json").is_err());
    }
}
