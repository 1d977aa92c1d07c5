//! The listener core that both the worker ([`crate::Server`]) and the
//! shard front ([`crate::shard::Front`]) run: accept, admit or shed,
//! read, route, answer, and drain.
//!
//! ## Queueing model
//!
//! One acceptor thread owns the listener. Each accepted connection is
//! admitted against a single bound — `queue` — counting every request
//! that has been accepted but not yet finished (queued *and* executing).
//! Admitted connections are handed to a work-stealing pool reused from
//! [`hls_core::par`]; over the bound, the acceptor sheds the connection
//! with `503 Service Unavailable` + `Retry-After` from a short-lived
//! helper thread so the accept loop itself never blocks on a slow peer.
//!
//! ## Routing and errors
//!
//! There is one route table, `/v1/*`, and one error shape, the envelope
//! `{"error":{"code","message",…}}`, on every error: a request head that
//! does not parse (400) or is too large (413), an unknown path (404), a
//! wrong method (405), a shed (503) and whatever the endpoints answer.
//! A panic anywhere in a handler costs that request one 500, not a pool
//! worker.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] flips the shutdown flag and pokes the
//! listener with a loopback connection so the blocking `accept` wakes
//! immediately. The acceptor stops admitting, waits until the in-flight
//! count drains to zero, joins the pool, and returns. The `hls-serve`
//! binary wires this handle to a SIGTERM/SIGINT self-pipe (see
//! [`crate::signal`]), so a terminating service finishes every admitted
//! request before exiting.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use hls_core::par::{lock, ThreadPool};
use hls_core::CancelToken;

use crate::api::{self, ApiError};
use crate::http::{finish_chunked, read_request, write_chunk, ReadError, Request, Response};
use crate::json::{self, Json};
use crate::metrics::Metrics;

/// The endpoints a listener dispatches to. The core itself answers
/// `GET /v1/metrics`, unknown paths and wrong methods.
pub(crate) trait Service: Send + Sync + 'static {
    /// `GET /v1/healthz`.
    fn healthz(&self) -> Response;
    /// `POST /v1/synthesize`.
    fn synthesize(&self, req: &Request) -> Response;
    /// `POST /v1/explore`.
    fn explore(&self, req: &Request) -> Response;
    /// `POST /v1/batch`: streams its own response onto `stream` and
    /// returns the status for the metrics label (499 = client gone).
    fn batch(&self, req: &Request, stream: &mut TcpStream) -> u16;
}

/// Admission, shutdown and drain state, shared by the acceptor, every
/// admitted connection and every [`ServerHandle`].
struct Core {
    metrics: Arc<Metrics>,
    /// Max accepted-but-unfinished requests before load shedding.
    queue: usize,
    /// Backoff suggested on a shed, in milliseconds.
    retry_after_ms: u64,
    /// Accepted-but-unfinished requests (queued + executing).
    inflight: AtomicUsize,
    shutdown: AtomicBool,
    /// Parking spot for the drain wait.
    idle: Mutex<()>,
    idle_cv: Condvar,
}

impl Core {
    fn request_done(&self) {
        let before = self.inflight.fetch_sub(1, Ordering::SeqCst);
        self.metrics.queue_left(before.saturating_sub(1));
        if before == 1 {
            let _guard = lock(&self.idle);
            self.idle_cv.notify_all();
        }
    }

    fn wait_idle(&self) {
        let mut guard = lock(&self.idle);
        while self.inflight.load(Ordering::SeqCst) > 0 {
            guard = self
                .idle_cv
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A cloneable handle for shutting a worker or a front down and reading
/// its metrics.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    core: Arc<Core>,
}

impl ServerHandle {
    /// The address the listener is bound to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The listener's metrics registry.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.core.metrics)
    }

    /// Requests a graceful shutdown: stop accepting, drain in-flight
    /// requests, then return from `run`. Idempotent. A front's workers
    /// are not stopped here — the caller owns their lifecycle (see
    /// [`crate::shard::SpawnedWorker`]).
    pub fn shutdown(&self) {
        if !self.core.shutdown.swap(true, Ordering::SeqCst) {
            // Poke the blocking accept() so it observes the flag now.
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// A bound listener and its connection pool.
pub(crate) struct Listener {
    listener: TcpListener,
    addr: SocketAddr,
    core: Arc<Core>,
    pool: ThreadPool,
}

impl Listener {
    /// Binds `addr` and spins up `threads` connection workers.
    pub(crate) fn bind(
        addr: &str,
        threads: usize,
        queue: usize,
        retry_after_ms: u64,
        metrics: Arc<Metrics>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let core = Arc::new(Core {
            metrics,
            queue,
            retry_after_ms,
            inflight: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            idle: Mutex::new(()),
            idle_cv: Condvar::new(),
        });
        Ok(Listener {
            listener,
            addr,
            core,
            pool: ThreadPool::new(threads),
        })
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub(crate) fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            core: Arc::clone(&self.core),
        }
    }

    /// Runs the accept loop until [`ServerHandle::shutdown`], then
    /// drains every admitted request and joins the pool.
    pub(crate) fn run<S: Service>(self, service: Arc<S>) -> io::Result<()> {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if self.core.shutdown.load(Ordering::SeqCst) {
                drop(stream);
                break;
            }
            let depth = self.core.inflight.fetch_add(1, Ordering::SeqCst) + 1;
            self.core.metrics.queue_entered(depth);
            let core = Arc::clone(&self.core);
            if depth > self.core.queue {
                self.core.metrics.shed();
                // A helper thread absorbs a slow peer; shed responses are
                // bounded by the accept rate, not by synthesis time.
                std::thread::spawn(move || {
                    shed(stream, &core);
                    core.request_done();
                });
                continue;
            }
            let service = Arc::clone(&service);
            self.pool.execute(move || {
                // Outer firewall: even a panic outside the handlers
                // (request parsing, response writing) must not leak the
                // in-flight slot, or shutdown would wait on it forever.
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    serve_connection(stream, &*service, &core);
                }));
                if caught.is_err() {
                    core.metrics.panic();
                }
                core.request_done();
            });
        }
        self.core.wait_idle();
        // Dropping the pool joins every (now idle) worker.
        drop(self.pool);
        Ok(())
    }
}

/// Answers one over-capacity connection with the 503 envelope.
fn shed(mut stream: TcpStream, core: &Core) {
    let started = Instant::now();
    let _ = stream.set_read_timeout(Some(Duration::from_millis(1000)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(1000)));
    // Read (and discard) the request so the client reliably sees the
    // response instead of a reset; ignore unreadable requests.
    let endpoint = match read_request(&mut stream) {
        Ok(req) => parse_route(&req),
        Err(_) => "unknown",
    };
    let _ = overloaded("server overloaded", core.retry_after_ms).write_to(&mut stream);
    core.metrics
        .observe_request(endpoint, 503, started.elapsed());
}

/// A 503 with the backoff rendered three ways: the standard
/// `Retry-After` header in whole seconds (rounded up, never zero — the
/// header cannot express sub-second backoff), the exact `Retry-After-Ms`
/// header, and `retry_after_ms` in the envelope.
pub(crate) fn overloaded(message: &str, retry_after_ms: u64) -> Response {
    let body = api::error_envelope("overloaded", message, None, Some(retry_after_ms));
    let secs = retry_after_ms.div_ceil(1000).max(1);
    Response::json(503, body.render().into_bytes())
        .with_header("Retry-After", secs.to_string())
        .with_header("Retry-After-Ms", retry_after_ms.to_string())
}

/// Reads, routes, answers, and records one admitted connection.
fn serve_connection<S: Service>(mut stream: TcpStream, service: &S, core: &Core) {
    let started = Instant::now();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(5000)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(5000)));
    let (endpoint, status) = match read_request(&mut stream) {
        Ok(req) => {
            let endpoint = parse_route(&req);
            (
                endpoint,
                dispatch(service, core, &req, endpoint, &mut stream),
            )
        }
        Err(ReadError::Closed | ReadError::Io(_)) => return,
        Err(ReadError::TooLarge) => (
            "unknown",
            write_error(&mut stream, 413, "request too large"),
        ),
        Err(ReadError::Malformed(why)) => ("unknown", write_error(&mut stream, 400, why)),
    };
    core.metrics
        .observe_request(endpoint, status, started.elapsed());
}

/// Resolves a request path to its endpoint label; anything outside the
/// route table is `"unknown"`.
fn parse_route(req: &Request) -> &'static str {
    match req.path.split('?').next().unwrap_or("") {
        "/v1/healthz" => "healthz",
        "/v1/metrics" => "metrics",
        "/v1/synthesize" => "synthesize",
        "/v1/explore" => "explore",
        "/v1/batch" => "batch",
        _ => "unknown",
    }
}

/// Answers one parsed request behind the panic firewall and returns the
/// status it was answered with.
fn dispatch<S: Service>(
    service: &S,
    core: &Core,
    req: &Request,
    endpoint: &'static str,
    stream: &mut TcpStream,
) -> u16 {
    // A bug anywhere in a handler must cost one 500, not a pool worker.
    // AssertUnwindSafe is sound here because the services only hold
    // lock-guarded or atomic state that stays consistent if a request
    // dies mid-flight (a poisoned metrics lock would itself panic on the
    // *next* request, so no handler panics while holding one).
    let firewall = |payload: Box<dyn std::any::Any + Send>| {
        core.metrics.panic();
        let msg = panic_message(payload.as_ref()).to_string();
        eprintln!("panic in /v1/{endpoint} handler: {msg}");
        msg
    };
    if endpoint == "batch" && req.method == "POST" {
        // The batch handler streams its own chunked response (and owns
        // the error paths before the stream starts), so it bypasses the
        // buffered write below.
        return std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            service.batch(req, stream)
        }))
        .unwrap_or_else(|payload| {
            firewall(payload);
            500
        });
    }
    let resp = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        match (endpoint, req.method.as_str()) {
            ("healthz", "GET") => service.healthz(),
            ("metrics", "GET") => Response::text(200, core.metrics.render().into_bytes()),
            ("synthesize", "POST") => service.synthesize(req),
            ("explore", "POST") => service.explore(req),
            ("unknown", _) => error_response(404, "no such endpoint"),
            _ => error_response(405, "method not allowed"),
        }
    }))
    .unwrap_or_else(|payload| {
        error_response(500, &format!("internal error: {}", firewall(payload)))
    });
    let _ = resp.write_to(stream);
    resp.status
}

/// A printable panic payload (panics carry `&str` or `String` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "unknown panic"
    }
}

/// The machine-readable error code for an HTTP status.
fn error_code(status: u16) -> &'static str {
    match status {
        400 => "bad_request",
        404 => "not_found",
        405 => "method_not_allowed",
        413 => "payload_too_large",
        422 => "unprocessable",
        503 => "overloaded",
        504 => "deadline_exceeded",
        _ => "internal",
    }
}

/// An error response carrying the `{"error":{"code","message"}}`
/// envelope.
pub(crate) fn error_response(status: u16, msg: &str) -> Response {
    let body = api::error_envelope(error_code(status), msg, None, None);
    Response::json(status, body.render().into_bytes())
}

/// Writes [`error_response`] and returns its status.
pub(crate) fn write_error(stream: &mut TcpStream, status: u16, msg: &str) -> u16 {
    let _ = error_response(status, msg).write_to(stream);
    status
}

/// Decodes a request body into a typed request: `(400, why)` when the
/// body is not UTF-8 JSON, `(422, why)` when `from_json` rejects it.
pub(crate) fn parse_body<T>(
    req: &Request,
    from_json: fn(&Json) -> Result<T, ApiError>,
) -> Result<T, (u16, String)> {
    let body = std::str::from_utf8(&req.body)
        .map_err(|_| "body is not utf-8".to_string())
        .and_then(|text| json::parse(text).map_err(|e| e.to_string()))
        .map_err(|msg| (400, msg))?;
    from_json(&body).map_err(|e| (422, e.0))
}

/// Writes NDJSON records onto a chunked response strictly in position
/// order (0, 1, 2, …), whatever order they complete in, so a batch
/// stream is a deterministic function of its request whenever every
/// record is. A failed write marks the client gone and cancels `cancel`,
/// so work still in flight for the batch stops early.
pub(crate) struct NdjsonEmitter {
    inner: Mutex<EmitterInner>,
    cancel: CancelToken,
}

struct EmitterInner {
    stream: TcpStream,
    /// Next position to write.
    next: usize,
    /// Completed records waiting for their turn, by position.
    pending: BTreeMap<usize, Vec<u8>>,
    failed: bool,
}

impl NdjsonEmitter {
    pub(crate) fn new(stream: TcpStream, cancel: CancelToken) -> Self {
        NdjsonEmitter {
            inner: Mutex::new(EmitterInner {
                stream,
                next: 0,
                pending: BTreeMap::new(),
                failed: false,
            }),
            cancel,
        }
    }

    /// Queues the record at `pos` and flushes every now-contiguous one.
    pub(crate) fn push(&self, pos: usize, mut line: Vec<u8>) {
        line.push(b'\n');
        let mut g = lock(&self.inner);
        if g.failed {
            return;
        }
        g.pending.insert(pos, line);
        loop {
            let next = g.next;
            let Some(line) = g.pending.remove(&next) else {
                break;
            };
            if write_chunk(&mut g.stream, &line).is_err() {
                // Mid-stream disconnect: drop the backlog and cancel the
                // token so in-flight points stop at the next check.
                g.failed = true;
                g.pending.clear();
                self.cancel.cancel();
                return;
            }
            g.next += 1;
        }
    }

    /// Writes the terminal line and the chunked terminator; `false` if
    /// the client disconnected at any point.
    pub(crate) fn finish(&self, terminal: &[u8]) -> bool {
        let mut g = lock(&self.inner);
        if g.failed {
            return false;
        }
        let mut line = terminal.to_vec();
        line.push(b'\n');
        if write_chunk(&mut g.stream, &line).is_err() || finish_chunked(&mut g.stream).is_err() {
            g.failed = true;
            return false;
        }
        true
    }

    pub(crate) fn has_failed(&self) -> bool {
        lock(&self.inner).failed
    }
}
