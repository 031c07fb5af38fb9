//! The blocking HTTP diagnosis server.
//!
//! A fixed worker set accepts connections on a shared listener (the
//! pre-forked blocking-accept model — no async runtime, no external
//! crates), parses requests against the compiled model, and hands
//! `/diagnose` jobs to the admission queue; batcher threads drain the
//! queue in coalesced waves, execute them on warm session pools, and
//! reply rendered bodies through per-job channels. Routes:
//!
//! * `POST /diagnose` — measurement batches in, ranked candidates +
//!   next probe out (`X-Request-Id` names the trace);
//! * `GET /metrics` — the full [`flames_obs::MetricsSnapshot`];
//! * `GET /trace/:id` — the Chrome `trace_event` document of a
//!   completed request, rebuilt on the GET by replaying its boards.

use crate::error::ServeError;
use crate::http::{read_request, write_response, ReadLimits, ReadOutcome, Request};
use crate::protocol::{parse_diagnose, render_board_into, BOARD_BYTES_HINT};
use crate::queue::{Job, JobQueue};
use crate::wave::{replay_traces, run_wave_cached, traces_to_chrome_json};
use flames_core::{Board, CacheConfig, Diagnoser, RuleStore, SessionPool};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs. The defaults serve; tests and benches shrink
/// the limits to provoke shedding and deadlines deterministically.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Connection-handling threads (each blocks in `accept`).
    pub workers: usize,
    /// Wave-executing threads, each with its own warm session pool.
    pub batchers: usize,
    /// Coalesce queued requests into shared waves (`false` = the
    /// one-request-per-wave baseline).
    pub coalesce: bool,
    /// Admission-queue bound, in boards.
    pub max_backlog_boards: usize,
    /// Queue-wait budget for requests that do not send `deadline_ms`.
    pub default_deadline: Duration,
    /// Overall per-request read deadline (slow-loris bound).
    pub read_timeout: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Completed requests kept for `GET /trace/:id`. The server keeps
    /// each request's boards and rebuilds their traces on the GET.
    pub trace_capacity: usize,
    /// The learned-rule store serving the rule-first fast path, shared
    /// across batchers (and with whoever persists it). `None` — the
    /// default — serves every board on the model-based path, with
    /// byte-identical responses to a build without the cache.
    pub rule_store: Option<Arc<RuleStore>>,
    /// Hit threshold / margin / feedback knobs of the fast path
    /// (ignored without a `rule_store`).
    pub cache: CacheConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            batchers: 1,
            coalesce: true,
            max_backlog_boards: 256,
            default_deadline: Duration::from_secs(10),
            read_timeout: Duration::from_secs(5),
            max_body_bytes: 1 << 20,
            trace_capacity: 64,
            rule_store: None,
            cache: CacheConfig::default(),
        }
    }
}

/// What `GET /trace/:id` needs to rebuild a completed request's
/// traces: its parsed boards and, per board, whether the learned-rule
/// fast path answered it (a hit propagated nothing, so its trace is
/// empty).
#[derive(Debug)]
struct ServedRequest {
    boards: Vec<Board>,
    rule_hits: Vec<bool>,
}

/// Bounded ring of completed requests, keyed by request id. It keeps
/// the boards, not their traces: served bytes are a pure function of
/// board content, so `GET /trace/:id` replays the boards
/// ([`replay_traces`]) and the serving path never builds a trace.
#[derive(Debug)]
struct TraceStore {
    ring: Mutex<VecDeque<(u64, Arc<ServedRequest>)>>,
    capacity: usize,
}

impl TraceStore {
    fn new(capacity: usize) -> Self {
        Self {
            ring: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    fn insert(&self, id: u64, request: ServedRequest) {
        let request = Arc::new(request);
        let mut ring = self.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back((id, request));
    }

    fn get(&self, id: u64) -> Option<Arc<ServedRequest>> {
        self.lock()
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, r)| Arc::clone(r))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<(u64, Arc<ServedRequest>)>> {
        self.ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// State shared by every worker and batcher.
#[derive(Debug)]
struct Shared {
    diagnoser: Diagnoser,
    queue: JobQueue,
    traces: TraceStore,
    config: ServeConfig,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    /// Live client connections, so shutdown can cut a worker loose from
    /// a keep-alive read instead of waiting out its read deadline.
    conns: Mutex<std::collections::HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
}

impl Shared {
    fn lock_conns(&self) -> std::sync::MutexGuard<'_, std::collections::HashMap<u64, TcpStream>> {
        self.conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A running server. Dropping the handle shuts the server down and
/// joins every thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (port resolved when binding `:0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the queue, and joins all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.queue.close();
        // Cut workers loose from in-flight keep-alive reads...
        for conn in self.shared.lock_conns().values() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        // ...and wake every worker blocked in accept() with a throwaway
        // connection; workers re-check the flag after each accept.
        for _ in 0..self.shared.config.workers {
            let _ = TcpStream::connect(self.addr);
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds and starts a diagnosis server for one compiled model.
///
/// # Errors
///
/// Propagates listener binding failures.
pub fn serve(
    addr: impl ToSocketAddrs,
    diagnoser: Diagnoser,
    config: ServeConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        diagnoser,
        queue: JobQueue::new(config.max_backlog_boards, config.coalesce),
        traces: TraceStore::new(config.trace_capacity),
        config: config.clone(),
        next_id: AtomicU64::new(1),
        shutdown: AtomicBool::new(false),
        conns: Mutex::new(std::collections::HashMap::new()),
        next_conn: AtomicU64::new(0),
    });
    let mut threads = Vec::new();
    for worker in 0..config.workers.max(1) {
        let listener = listener.try_clone()?;
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("serve-http-{worker}"))
                .spawn(move || worker_loop(&listener, &shared))
                .expect("spawn http worker"),
        );
    }
    for batcher in 0..config.batchers.max(1) {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("serve-batch-{batcher}"))
                .spawn(move || batcher_loop(&shared))
                .expect("spawn batcher"),
        );
    }
    Ok(ServerHandle {
        addr,
        shared,
        threads,
    })
}

/// Accept loop of one HTTP worker.
fn worker_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let Ok((stream, _peer)) = listener.accept() else {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared.lock_conns().insert(conn_id, clone);
        }
        handle_connection(stream, shared);
        shared.lock_conns().remove(&conn_id);
    }
}

/// Serves one keep-alive connection until close, error, or shutdown.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let limits = ReadLimits {
        read_timeout: shared.config.read_timeout,
        max_body_bytes: shared.config.max_body_bytes,
    };
    let mut carry = Vec::new();
    loop {
        match read_request(&mut stream, &mut carry, limits) {
            Ok(ReadOutcome::Closed) => return,
            Ok(ReadOutcome::Request(request)) => {
                let keep_alive = request.keep_alive && !shared.shutdown.load(Ordering::SeqCst);
                match dispatch(&request, shared) {
                    Ok((body, extra)) => {
                        let headers: Vec<(&str, String)> =
                            extra.iter().map(|(n, v)| (*n, v.clone())).collect();
                        if write_response(&mut stream, 200, &headers, &body, keep_alive).is_err() {
                            return;
                        }
                    }
                    Err(e) => {
                        // Errors close the connection: framing state
                        // past a failed request is untrustworthy.
                        let headers: Vec<(&str, String)> =
                            e.headers.iter().map(|(n, v)| (*n, v.clone())).collect();
                        let _ =
                            write_response(&mut stream, e.status, &headers, &e.to_json(), false);
                        return;
                    }
                }
                if !keep_alive {
                    return;
                }
            }
            Err(e) => {
                // Framing failure (malformed, truncated, slow-loris):
                // answer with the taxonomy error and drop the line.
                let headers: Vec<(&str, String)> =
                    e.headers.iter().map(|(n, v)| (*n, v.clone())).collect();
                let _ = write_response(&mut stream, e.status, &headers, &e.to_json(), false);
                return;
            }
        }
    }
}

type RouteResult = Result<(String, Vec<(&'static str, String)>), ServeError>;

/// Routes one parsed request.
fn dispatch(request: &Request, shared: &Shared) -> RouteResult {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/diagnose") => diagnose(request, shared),
        ("GET", "/metrics") => Ok((
            format!("{}\n", flames_obs::MetricsSnapshot::capture().to_json(0)),
            Vec::new(),
        )),
        ("GET", path) if path.starts_with("/trace/") => {
            let id: u64 = path["/trace/".len()..]
                .parse()
                .map_err(|_| ServeError::bad_request("trace id must be an integer"))?;
            let request = shared.traces.get(id).ok_or_else(|| {
                ServeError::with_status(
                    crate::error::ErrorKind::BadRequest,
                    404,
                    format!("no completed request {id} in the trace window"),
                )
            })?;
            // The ring lock is already released: the replay runs on a
            // session of this worker's own, off the batchers' pools.
            let traces = replay_traces(&shared.diagnoser, &request.boards, &request.rule_hits)
                .map_err(|e| ServeError::internal(format!("trace replay failed: {e}")))?;
            Ok((traces_to_chrome_json(&traces), Vec::new()))
        }
        (_, path) if path == "/diagnose" || path == "/metrics" || path.starts_with("/trace/") => {
            Err(ServeError::with_status(
                crate::error::ErrorKind::BadRequest,
                405,
                format!("{} not allowed on {}", request.method, request.path),
            ))
        }
        _ => Err(ServeError::with_status(
            crate::error::ErrorKind::BadRequest,
            404,
            format!("unknown route {}", request.path),
        )),
    }
}

/// `POST /diagnose`: parse, admit, wait for the wave, relay the body.
fn diagnose(request: &Request, shared: &Shared) -> RouteResult {
    let body = std::str::from_utf8(&request.body)
        .map_err(|_| ServeError::bad_request("body is not UTF-8"))?;
    let parsed = parse_diagnose(body, &shared.diagnoser)?;
    let deadline = Instant::now()
        + parsed
            .deadline_ms
            .map_or(shared.config.default_deadline, Duration::from_millis);
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let (reply, result) = channel();
    shared.queue.submit(Job {
        id,
        boards: parsed.boards,
        next_probe: parsed.next_probe,
        deadline,
        reply,
    })?;
    let body = result
        .recv()
        .map_err(|_| ServeError::internal("batcher dropped the reply channel"))??;
    Ok((body, vec![("X-Request-Id", id.to_string())]))
}

/// Wave loop of one batcher thread: drain → expire → execute → reply.
fn batcher_loop(shared: &Shared) {
    let diagnoser = shared.diagnoser.clone();
    let mut pool = SessionPool::new(&diagnoser);
    while let Some(jobs) = shared.queue.next_wave() {
        let now = Instant::now();
        let mut live = Vec::with_capacity(jobs.len());
        for job in jobs {
            if job.deadline < now {
                flames_obs::metrics().serve_deadline_missed.incr();
                let _ = job.reply.send(Err(ServeError::deadline_missed()));
            } else {
                live.push(job);
            }
        }
        if live.is_empty() {
            continue;
        }
        let mut boards = Vec::new();
        let mut want_probe = Vec::new();
        for job in &live {
            boards.extend(job.boards.iter().cloned());
            want_probe.extend(std::iter::repeat_n(job.next_probe, job.boards.len()));
        }
        let cache = shared
            .config
            .rule_store
            .as_deref()
            .map(|store| (store, &shared.config.cache));
        match run_wave_cached(&mut pool, &boards, &want_probe, cache) {
            Ok(outcomes) => {
                let mut offset = 0;
                for job in live {
                    let slice = &outcomes[offset..offset + job.boards.len()];
                    offset += job.boards.len();
                    // A request that declined recommendations renders
                    // its boards without them, even when a coalesced
                    // duplicate asked (the report bytes are shared).
                    let mut rendered = String::with_capacity(16 + slice.len() * BOARD_BYTES_HINT);
                    rendered.push_str("{\"boards\":[");
                    for (i, o) in slice.iter().enumerate() {
                        if i > 0 {
                            rendered.push(',');
                        }
                        let probe = if job.next_probe {
                            o.next_probe.as_ref()
                        } else {
                            None
                        };
                        render_board_into(&mut rendered, &o.report, probe, o.provenance.as_ref());
                    }
                    rendered.push_str("]}");
                    // Into the ring before the reply, so a client that
                    // asks for the trace right after its response
                    // finds it.
                    shared.traces.insert(
                        job.id,
                        ServedRequest {
                            boards: job.boards,
                            rule_hits: slice.iter().map(|o| o.provenance.is_some()).collect(),
                        },
                    );
                    let _ = job.reply.send(Ok(rendered));
                }
            }
            Err(e) => {
                // Indices were validated at parse time; reaching this
                // arm is a server bug, not a client error.
                for job in live {
                    let _ = job
                        .reply
                        .send(Err(ServeError::internal(format!("wave failed: {e}"))));
                }
            }
        }
    }
}
