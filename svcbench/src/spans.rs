//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a public function: its name, start,
//! end, parent span and request id. Spans stay in memory while the run
//! measures and are written out once at the end as a Chrome
//! `trace_event` document (a bounded sample per span name). A layer's
//! time is the *self* time of its spans: duration minus the durations
//! of their direct children.
//!
//! A disabled recorder (the timed runs) keeps nothing and reads no
//! clock, so the timed and traced runs execute the same code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (ignored by a disabled recorder).
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

impl Recorder {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        Open(id)
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn exit(&mut self, span: Open) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        debug_assert_eq!(
            self.open.last(),
            Some(&span.0),
            "spans close innermost first"
        );
        self.open.pop();
        self.spans[span.0].end_ns = end;
    }

    /// Sets the request id of a recorded span.
    pub fn tag(&mut self, span: Open, request: u64) {
        if let Some(s) = self.spans.get_mut(span.0) {
            s.request = request;
        }
    }

    /// Times `f` as one span with no children.
    pub fn leaf<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name, request);
        let out = f();
        self.exit(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in seconds, over the spans in
    /// `range` (children outside the range do not count).
    pub fn self_seconds(&self, range: std::ops::Range<usize>) -> BTreeMap<&'static str, f64> {
        let spans = &self.spans[range.clone()];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.and_then(|p| p.checked_sub(range.start)) {
                if p < spans.len() {
                    child_ns[p] += s.end_ns - s.start_ns;
                }
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Durations in seconds of the spans named `name`, from index `from`.
    pub fn durations(&self, name: &str, from: usize) -> Vec<f64> {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// The spans as a Chrome `trace_event` document (complete events,
    /// microsecond timestamps; id, parent and request id as arguments),
    /// keeping the first `per_name` spans of each name so a long run's
    /// file stays a sample of every layer rather than megabytes of one.
    pub fn to_chrome_json(&self, per_name: usize) -> String {
        let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate() {
            let count = seen.entry(s.name).or_insert(0);
            *count += 1;
            if *count > per_name {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"request\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string()),
                s.request
            );
        }
        out.push_str("]}");
        out
    }
}
