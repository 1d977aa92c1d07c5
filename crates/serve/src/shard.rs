//! The shard front: consistent-hash routing over worker processes.
//!
//! A front process (`hls-serve --front --workers N`) owns the public
//! listener and fans requests out to N single-process workers. Requests
//! are routed by consistent-hashing the same cdfg×config fingerprint
//! pair the workers use for their response and memo caches, so a given
//! behavior+configuration always lands on the same worker and cache
//! affinity falls out of the routing for free.
//!
//! - **Single requests** (`/v1/synthesize`, `/v1/explore`) are
//!   proxied verbatim: one upstream connection per request, the worker's
//!   response forwarded unchanged. A worker that fails mid-proxy is
//!   marked dead and the request re-hashes to the next live worker on
//!   the ring; with no live worker left the front sheds with 503.
//! - **Batches** (`POST /v1/batch`) are expanded front-side: every grid
//!   point gets a global `seq`, points are grouped by their routed
//!   worker, and per-worker sub-batches stream back concurrently. The
//!   front re-emits records to the client in *seq order* (a reorder
//!   buffer), so a batch response body is a deterministic function of
//!   the request even across differently-paced workers. Points stranded
//!   by a worker death are re-hashed onto the survivors; points no live
//!   worker can take become `upstream_unavailable` error records.
//! - `/v1/healthz` probes every worker and aggregates liveness;
//!   `/v1/metrics` exposes the front's own registry, including
//!   `hls_serve_shard_requests_total{worker=…}`.
//!
//! Everything else — admission, shedding, routing, the error envelope,
//! the panic firewall and the drain — is the listener core the worker
//! runs too; this module keeps only the ring, liveness, the proxy, the
//! batch fan-out and worker spawning.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hls_core::{cdfg_fingerprint, CancelToken, DesignPoint, GridPoint, Synthesizer};
use hls_sched::Algorithm;

use crate::api;
use crate::http::{start_chunked, ChunkedLineReader, ClientResponse, Request, Response};
use crate::json::{self, Json};
use crate::listener::{
    overloaded, parse_body, write_error, Listener, NdjsonEmitter, ServerHandle, Service,
};
use crate::metrics::{BatchOutcome, Metrics};
use crate::ServerConfig;

/// Virtual nodes per worker on the hash ring: enough that removing one
/// worker spreads its keyspace evenly over the survivors.
const VNODES: usize = 64;

/// FNV-1a over a pair of fingerprints: the shard routing key.
pub fn shard_key(behavior_fp: u64, config_fp: u64) -> u64 {
    let mut w = hls_testkit::FnvWriter::new();
    w.update(&behavior_fp.to_le_bytes());
    w.update(&config_fp.to_le_bytes());
    w.finish()
}

/// The per-point routing key of one batch grid point: the same
/// cdfg×config pair a worker's exploration memo cache folds, so
/// repeating a batch re-routes every point to the worker that already
/// holds it.
pub fn point_key(behavior_fp: u64, base: &Synthesizer, p: &GridPoint) -> u64 {
    let mut cfg = base.clone();
    cfg.set_universal_fus(p.fus);
    cfg.set_algorithm(p.algorithm);
    cfg.set_control(p.control);
    shard_key(behavior_fp, cfg.fingerprint())
}

/// A consistent-hash ring over worker indices.
///
/// Each worker contributes [`VNODES`] points; a key routes to the first
/// vnode at or after its hash (wrapping), skipping workers the liveness
/// predicate rejects — which *is* the re-hash on worker death.
pub struct Ring {
    /// Sorted `(hash, worker)` vnode points.
    points: Vec<(u64, usize)>,
    workers: usize,
}

impl Ring {
    /// A ring over `workers` indices.
    pub fn new(workers: usize) -> Self {
        let mut points = Vec::with_capacity(workers * VNODES);
        for w in 0..workers {
            for v in 0..VNODES {
                let mut h = hls_testkit::FnvWriter::new();
                h.update(format!("worker-{w}-vnode-{v}").as_bytes());
                points.push((h.finish(), w));
            }
        }
        points.sort_unstable();
        Ring { points, workers }
    }

    /// The first live worker at or after `key` on the ring, or `None`
    /// when every worker is dead.
    pub fn route(&self, key: u64, alive: impl Fn(usize) -> bool) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let start = self.points.partition_point(|&(h, _)| h < key);
        let mut seen = vec![false; self.workers];
        let mut checked = 0;
        for i in 0..self.points.len() {
            let (_, w) = self.points[(start + i) % self.points.len()];
            if seen[w] {
                continue;
            }
            seen[w] = true;
            if alive(w) {
                return Some(w);
            }
            checked += 1;
            if checked == self.workers {
                break;
            }
        }
        None
    }
}

/// Front configuration: the server knobs plus the worker addresses.
#[derive(Clone, Debug)]
pub struct FrontConfig {
    /// Listen address.
    pub addr: String,
    /// Worker `host:port` addresses, index = shard id.
    pub workers: Vec<String>,
    /// Front pool threads (request concurrency).
    pub threads: usize,
    /// Admission bound, as in [`ServerConfig::queue`].
    pub queue: usize,
    /// Upstream read deadline headroom over the per-request deadline.
    pub deadline: Duration,
    /// 503 backoff, milliseconds (rendered like the worker's).
    pub retry_after_ms: u64,
}

impl FrontConfig {
    /// Derives a front configuration from the worker-level knobs.
    pub fn from_server(cfg: &ServerConfig, workers: Vec<String>) -> Self {
        FrontConfig {
            addr: cfg.addr.clone(),
            workers,
            threads: cfg.threads,
            queue: cfg.queue,
            deadline: cfg.deadline,
            retry_after_ms: cfg.retry_after_ms,
        }
    }
}

/// Shared front state.
struct FrontCtx {
    config: FrontConfig,
    ring: Ring,
    /// Last-known liveness per worker; proxy failures clear a flag,
    /// `/v1/healthz` probes refresh all of them.
    alive: Vec<AtomicBool>,
    metrics: Arc<Metrics>,
}

impl FrontCtx {
    fn is_alive(&self, w: usize) -> bool {
        self.alive[w].load(Ordering::SeqCst)
    }

    fn mark_dead(&self, w: usize) {
        self.alive[w].store(false, Ordering::SeqCst);
    }
}

/// The front process, bound to its listener.
pub struct Front {
    listener: Listener,
    ctx: Arc<FrontCtx>,
}

impl Front {
    /// Binds the front listener.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound or no workers were given.
    pub fn bind(config: FrontConfig) -> io::Result<Self> {
        if config.workers.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "front needs at least one worker",
            ));
        }
        let metrics = Arc::new(Metrics::new());
        let listener = Listener::bind(
            &config.addr,
            config.threads,
            config.queue,
            config.retry_after_ms,
            Arc::clone(&metrics),
        )?;
        let ctx = Arc::new(FrontCtx {
            ring: Ring::new(config.workers.len()),
            alive: config
                .workers
                .iter()
                .map(|_| AtomicBool::new(true))
                .collect(),
            metrics,
            config,
        });
        Ok(Front { listener, ctx })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// A handle for shutdown and metrics. Shutting the front down does
    /// not stop its workers; the caller owns their lifecycle (see
    /// [`SpawnedWorker`]).
    pub fn handle(&self) -> ServerHandle {
        self.listener.handle()
    }

    /// Runs the accept loop until [`ServerHandle::shutdown`], then drains.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors.
    pub fn run(self) -> io::Result<()> {
        self.listener.run(self.ctx)
    }
}

impl Service for FrontCtx {
    fn healthz(&self) -> Response {
        healthz(self)
    }

    fn synthesize(&self, req: &Request) -> Response {
        proxy(req, self)
    }

    fn explore(&self, req: &Request) -> Response {
        proxy(req, self)
    }

    fn batch(&self, req: &Request, stream: &mut TcpStream) -> u16 {
        front_batch(req, stream, self)
    }
}

/// `GET /v1/healthz`: probes every worker, refreshes the liveness flags,
/// and aggregates. All alive → `ok`, some → `degraded` (both 200), none
/// → `down` with 503.
fn healthz(ctx: &FrontCtx) -> Response {
    let mut workers = Vec::with_capacity(ctx.config.workers.len());
    let mut up = 0usize;
    for (i, addr) in ctx.config.workers.iter().enumerate() {
        let ok = probe_worker(addr);
        ctx.alive[i].store(ok, Ordering::SeqCst);
        up += usize::from(ok);
        workers.push(Json::Obj(vec![
            ("worker".into(), Json::Num(i as f64)),
            ("alive".into(), Json::Bool(ok)),
        ]));
    }
    let (status, word) = if up == ctx.config.workers.len() {
        (200, "ok")
    } else if up > 0 {
        (200, "degraded")
    } else {
        (503, "down")
    };
    let body = Json::Obj(vec![
        ("status".into(), Json::Str(word.into())),
        ("workers".into(), Json::Arr(workers)),
    ]);
    Response::json(status, body.render().into_bytes())
}

/// One liveness probe: `GET /v1/healthz` with short timeouts.
fn probe_worker(addr: &str) -> bool {
    let Ok(sock) = addr.parse::<SocketAddr>() else {
        return false;
    };
    let Ok(mut s) = TcpStream::connect_timeout(&sock, Duration::from_millis(500)) else {
        return false;
    };
    let _ = s.set_read_timeout(Some(Duration::from_millis(1000)));
    let _ = s.set_write_timeout(Some(Duration::from_millis(1000)));
    let head = format!("GET /v1/healthz HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    if s.write_all(head.as_bytes()).is_err() {
        return false;
    }
    matches!(crate::http::read_response(&mut s), Ok(r) if r.status == 200)
}

/// Opens one upstream connection and writes a request; the caller reads
/// the response (buffered or streaming).
fn send_upstream(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    read_timeout: Duration,
) -> io::Result<TcpStream> {
    let sock: SocketAddr = addr
        .parse()
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "bad worker address"))?;
    let mut s = TcpStream::connect_timeout(&sock, Duration::from_millis(1000))?;
    let _ = s.set_nodelay(true);
    s.set_read_timeout(Some(read_timeout))?;
    s.set_write_timeout(Some(Duration::from_millis(5000)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes())?;
    s.write_all(body)?;
    s.flush()?;
    Ok(s)
}

/// The routing key for a single synthesize/explore request: the same
/// cdfg×config fingerprints the workers key their caches on. Bodies the
/// front cannot interpret still route deterministically (by raw-body
/// hash) and let the owning worker produce the authoritative error.
fn request_key(req: &Request) -> u64 {
    let fallback = || {
        let mut w = hls_testkit::FnvWriter::new();
        w.update(&req.body);
        w.finish()
    };
    let Ok(parsed) = parse_body(req, api::SynthesizeRequest::from_json) else {
        return fallback();
    };
    let behavior_fp = if hls_lang::is_system_source(&parsed.source) {
        match hls_lang::compile_system(&parsed.source) {
            Ok(sys) => api::system_fingerprint(&sys),
            Err(_) => return fallback(),
        }
    } else {
        match hls_lang::compile(&parsed.source) {
            Ok(cdfg) => cdfg_fingerprint(&cdfg),
            Err(_) => return fallback(),
        }
    };
    shard_key(behavior_fp, parsed.synthesizer.fingerprint())
}

/// Proxies one single-shot request to its routed worker, re-hashing past
/// dead workers; 503 once the ring is empty.
fn proxy(req: &Request, ctx: &FrontCtx) -> Response {
    let key = request_key(req);
    let read_timeout = ctx.config.deadline + Duration::from_millis(5000);
    for _ in 0..ctx.config.workers.len() {
        let Some(w) = ctx.ring.route(key, |i| ctx.is_alive(i)) else {
            break;
        };
        match forward(req, &ctx.config.workers[w], read_timeout) {
            Ok(resp) => {
                ctx.metrics.shard_request(&w.to_string());
                return resp;
            }
            Err(_) => ctx.mark_dead(w),
        }
    }
    overloaded("no live worker", ctx.config.retry_after_ms)
}

/// One proxy attempt: send, read the whole response, rebuild it for the
/// client (minus the per-connection headers `write_to` re-adds).
fn forward(req: &Request, addr: &str, read_timeout: Duration) -> io::Result<Response> {
    let mut s = send_upstream(addr, &req.method, &req.path, &req.body, read_timeout)?;
    let upstream: ClientResponse = crate::http::read_response(&mut s)?;
    let headers = upstream
        .headers
        .iter()
        .filter(|(k, _)| k != "content-length" && k != "connection" && k != "transfer-encoding")
        .cloned()
        .collect();
    Ok(Response {
        status: upstream.status,
        headers,
        body: upstream.body,
    })
}

/// A worker batch record the front parsed off a sub-batch stream.
struct ParsedRecord {
    seq: u64,
    outcome: RecordOutcome,
}

/// How one worker batch record resolved.
enum RecordOutcome {
    /// A completed point plus its cache-hit flag.
    Point(DesignPoint, bool),
    /// Skipped by the worker's estimator pre-pass (pruned batches only).
    Pruned,
    /// An error record.
    Error,
}

/// Parses one worker NDJSON line; `None` for summary/terminal lines
/// (absorbed by the front, which emits its own aggregate summary).
fn parse_record(line: &str) -> Option<ParsedRecord> {
    let v = json::parse(line).ok()?;
    let seq = v.get("seq").and_then(Json::as_u64)?;
    if v.get("error").is_some() {
        return Some(ParsedRecord {
            seq,
            outcome: RecordOutcome::Error,
        });
    }
    if v.get("pruned").and_then(Json::as_bool) == Some(true) {
        return Some(ParsedRecord {
            seq,
            outcome: RecordOutcome::Pruned,
        });
    }
    let p = v.get("point")?;
    let r = v.get("result")?;
    let hit = v.get("cache_hit").and_then(Json::as_bool)?;
    let point = DesignPoint {
        fus: p.get("fus")?.as_u64()? as usize,
        algorithm: Algorithm::parse(p.get("algorithm")?.as_str()?).ok()?,
        control: api::parse_control(p.get("control")?.as_str()?).ok()?,
        latency: r.get("latency")?.as_u64()?,
        area: r.get("area")?.as_f64()?,
        registers: r.get("registers")?.as_u64()? as usize,
        mux_inputs: r.get("mux_inputs")?.as_u64()? as usize,
    };
    Some(ParsedRecord {
        seq,
        outcome: RecordOutcome::Point(point, hit),
    })
}

/// Renders the sub-batch request body for one worker's points.
fn sub_batch_body(req: &api::BatchRequest, pts: &[(u64, GridPoint)]) -> Vec<u8> {
    let mut members = vec![("source".into(), Json::Str(req.source.clone()))];
    if let Some(cfg) = &req.config {
        members.push(("config".into(), cfg.clone()));
    }
    members.push((
        "points".into(),
        Json::Arr(
            pts.iter()
                .map(|(seq, p)| {
                    Json::Obj(vec![
                        ("seq".into(), Json::Num(*seq as f64)),
                        ("fus".into(), Json::Num(p.fus as f64)),
                        ("algorithm".into(), Json::Str(p.algorithm.spec())),
                        ("control".into(), Json::Str(api::control_str(p.control))),
                    ])
                })
                .collect(),
        ),
    ));
    if req.prune {
        members.push(("prune".into(), Json::Bool(true)));
    }
    if let Some(ms) = req.deadline_ms {
        members.push(("deadline_ms".into(), Json::Num(ms as f64)));
    }
    if req.test_delay_ms > 0 {
        members.push(("test_delay_ms".into(), Json::Num(req.test_delay_ms as f64)));
    }
    Json::Obj(members).render().into_bytes()
}

/// Shared accumulator for one front batch.
struct BatchProgress {
    /// Completed `(seq, point, cache_hit)` records, any order.
    completed: Mutex<Vec<(u64, DesignPoint, bool)>>,
    /// Count of pruned records forwarded (pruned batches only).
    pruned: AtomicUsize,
}

/// Streams one worker sub-batch, forwarding records to the client
/// emitter; returns the points that were *not* delivered (for
/// re-dispatch after a worker death).
///
/// A record counts only when its seq belongs to this sub-batch and has
/// not been delivered yet: a worker that streams back a foreign or a
/// repeated seq cannot put a record on the client stream that the front
/// never asked for, nor count one point twice.
#[allow(clippy::too_many_arguments)]
fn dispatch_sub_batch(
    ctx: &FrontCtx,
    worker: usize,
    req: &api::BatchRequest,
    pts: Vec<(u64, GridPoint)>,
    emitter: &NdjsonEmitter,
    progress: &BatchProgress,
    rank: &BTreeMap<u64, usize>,
    read_timeout: Duration,
) -> Vec<(u64, GridPoint)> {
    ctx.metrics.shard_request(&worker.to_string());
    let body = sub_batch_body(req, &pts);
    let addr = &ctx.config.workers[worker];
    let reader = send_upstream(addr, "POST", "/v1/batch", &body, read_timeout)
        .and_then(ChunkedLineReader::start);
    let mut reader = match reader {
        Ok(r) => r,
        Err(_) => {
            ctx.mark_dead(worker);
            return pts;
        }
    };
    // Undelivered seqs of this sub-batch, with their client-stream rank.
    let mut pending: BTreeMap<u64, usize> = pts
        .iter()
        .filter_map(|(seq, _)| Some((*seq, *rank.get(seq)?)))
        .collect();
    if reader.head.0 != 200 {
        // The worker rejected a sub-batch the front already validated:
        // a front/worker version skew, not a dead worker. Surface it as
        // error records rather than retrying forever.
        for (seq, at) in pending {
            ctx.metrics.batch_point(BatchOutcome::Error);
            let line = api::batch_error_record(
                seq,
                "internal",
                &format!("worker answered {}", reader.head.0),
                None,
            );
            emitter.push(at, line.render().into_bytes());
        }
        return Vec::new();
    }
    loop {
        match reader.next_line() {
            Ok(Some(line)) => {
                let Some(record) = parse_record(&line) else {
                    continue; // worker summary / terminal line: absorbed
                };
                let Some(at) = pending.remove(&record.seq) else {
                    continue; // foreign or already delivered: ignored
                };
                match record.outcome {
                    RecordOutcome::Point(dp, hit) => {
                        ctx.metrics.batch_point(if hit {
                            BatchOutcome::Hit
                        } else {
                            BatchOutcome::Miss
                        });
                        progress
                            .completed
                            .lock()
                            .expect("progress lock")
                            .push((record.seq, dp, hit));
                    }
                    RecordOutcome::Pruned => {
                        ctx.metrics.points_pruned(1);
                        progress.pruned.fetch_add(1, Ordering::SeqCst);
                    }
                    RecordOutcome::Error => ctx.metrics.batch_point(BatchOutcome::Error),
                }
                emitter.push(at, line.into_bytes());
                if emitter.has_failed() {
                    // Client gone: dropping the reader closes the worker
                    // connection, which cancels the worker-side batch.
                    return Vec::new();
                }
            }
            Ok(None) => break,
            Err(_) => {
                // Worker died mid-stream: whatever it did not deliver
                // re-hashes onto the survivors.
                ctx.mark_dead(worker);
                break;
            }
        }
    }
    // After a clean end-of-stream every point should have a record;
    // anything missing is re-dispatched as if the worker had died.
    pts.into_iter()
        .filter(|(seq, _)| pending.contains_key(seq))
        .collect()
}

/// `POST /v1/batch` on the front: expand, assign, fan out, merge.
/// Returns the status for the metrics label (499 = client gone).
fn front_batch(req: &Request, stream: &mut TcpStream, ctx: &FrontCtx) -> u16 {
    let parsed = match parse_body(req, api::BatchRequest::from_json) {
        Ok(p) => p,
        Err((status, msg)) => return write_error(stream, status, &msg),
    };
    if hls_lang::is_system_source(&parsed.source) {
        return write_error(stream, 422, "batch does not accept system sources");
    }
    let behavior_fp = match hls_lang::compile(&parsed.source) {
        Ok(cdfg) => cdfg_fingerprint(&cdfg),
        Err(e) => return write_error(stream, 422, &format!("parse: {e}")),
    };
    let Ok(out) = stream.try_clone() else {
        return write_error(stream, 500, "connection unavailable");
    };
    if start_chunked(stream, 200, "application/x-ndjson", &[]).is_err() {
        return 499;
    }
    let n = parsed.points.len();
    // Rank = position of a seq in the sorted seq list; the emitter
    // releases lines in rank order.
    let rank: BTreeMap<u64, usize> = {
        let mut seqs: Vec<u64> = parsed.points.iter().map(|(s, _)| *s).collect();
        seqs.sort_unstable();
        seqs.into_iter().enumerate().map(|(i, s)| (s, i)).collect()
    };
    let emitter = NdjsonEmitter::new(out, CancelToken::new());
    let progress = BatchProgress {
        completed: Mutex::new(Vec::new()),
        pruned: AtomicUsize::new(0),
    };
    let read_timeout = parsed
        .deadline_ms
        .map(Duration::from_millis)
        .unwrap_or(ctx.config.deadline)
        + Duration::from_millis(10_000);
    let mut todo: Vec<(u64, GridPoint)> = parsed.points.clone();
    // Dispatch rounds: one per worker death at worst, plus the first.
    for _ in 0..=ctx.config.workers.len() {
        if todo.is_empty() || emitter.has_failed() {
            break;
        }
        let mut groups: BTreeMap<usize, Vec<(u64, GridPoint)>> = BTreeMap::new();
        let mut unroutable = Vec::new();
        for (seq, p) in todo.drain(..) {
            match ctx
                .ring
                .route(point_key(behavior_fp, &parsed.synthesizer, &p), |i| {
                    ctx.is_alive(i)
                }) {
                Some(w) => groups.entry(w).or_default().push((seq, p)),
                None => unroutable.push((seq, p)),
            }
        }
        if groups.is_empty() {
            todo = unroutable;
            break;
        }
        let undelivered: Vec<Vec<(u64, GridPoint)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .into_iter()
                .map(|(w, pts)| {
                    let emitter = &emitter;
                    let progress = &progress;
                    let rank = &rank;
                    let parsed = &parsed;
                    scope.spawn(move || {
                        dispatch_sub_batch(
                            ctx,
                            w,
                            parsed,
                            pts,
                            emitter,
                            progress,
                            rank,
                            read_timeout,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_default())
                .collect()
        });
        todo = unroutable;
        todo.extend(undelivered.into_iter().flatten());
    }
    // Whatever no live worker could take becomes an error record, so
    // every seq is accounted for and the stream stays well-formed.
    for (seq, _) in &todo {
        ctx.metrics.batch_point(BatchOutcome::Error);
        let line = api::batch_error_record(*seq, "upstream_unavailable", "no live worker", None);
        emitter.push(rank[seq], line.render().into_bytes());
    }
    if emitter.has_failed() {
        ctx.metrics.batch_cancelled();
        return 499;
    }
    let completed = progress.completed.into_inner().expect("progress lock");
    let pruned = parsed.prune.then(|| progress.pruned.load(Ordering::SeqCst));
    let summary = api::batch_summary(n, completed, pruned)
        .render()
        .into_bytes();
    if !emitter.finish(&summary) {
        ctx.metrics.batch_cancelled();
        return 499;
    }
    200
}

/// A worker child process spawned by the front (or a test harness).
///
/// Holds the child's piped stdin: dropping the handle closes it, which
/// the worker treats as a graceful-drain signal; [`Drop`] then waits
/// briefly before escalating to a kill.
pub struct SpawnedWorker {
    /// The worker's bound `host:port` (parsed from its startup line).
    pub addr: String,
    child: Child,
    stdin: Option<ChildStdin>,
}

impl SpawnedWorker {
    /// Kills the worker immediately (simulating a crash).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for SpawnedWorker {
    fn drop(&mut self) {
        // Close stdin → the worker drains and exits on its own.
        drop(self.stdin.take());
        for _ in 0..50 {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns one worker process on an ephemeral port and waits for its
/// "listening on" line. `extra_env` overrides `HLS_SERVE_*` knobs.
///
/// # Errors
///
/// Fails when the process cannot start or exits before binding.
pub fn spawn_worker(exe: &Path, extra_env: &[(String, String)]) -> io::Result<SpawnedWorker> {
    let mut cmd = Command::new(exe);
    cmd.arg("127.0.0.1:0")
        .env("HLS_SERVE_ADDR", "127.0.0.1:0")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn()?;
    let stdin = child.stdin.take();
    let stderr = child.stderr.take().expect("piped stderr");
    let mut reader = BufReader::new(stderr);
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "worker exited before binding",
            ));
        }
        if let Some(rest) = line.split("listening on ").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .unwrap_or("")
                .trim_end_matches(|c: char| !c.is_ascii_alphanumeric())
                .to_string();
        }
    };
    // Keep draining the worker's stderr so it never blocks on a full
    // pipe; its diagnostics pass through to ours.
    std::thread::spawn(move || {
        let mut sink = [0u8; 4096];
        loop {
            match reader.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    let _ = std::io::stderr().write_all(&sink[..n]);
                }
            }
        }
    });
    Ok(SpawnedWorker { addr, child, stdin })
}

/// Spawns `n` workers (see [`spawn_worker`]).
///
/// # Errors
///
/// Fails when any worker cannot start; already-started workers are
/// dropped (drained) on the way out.
pub fn spawn_workers(
    exe: &Path,
    n: usize,
    extra_env: &[(String, String)],
) -> io::Result<Vec<SpawnedWorker>> {
    let mut workers = Vec::with_capacity(n);
    for _ in 0..n {
        workers.push(spawn_worker(exe, extra_env)?);
    }
    Ok(workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_core::ControlStyle;
    use hls_ctrl::EncodingStyle;
    use hls_sched::Algorithm;

    #[test]
    fn ring_routes_deterministically_and_covers_all_workers() {
        let ring = Ring::new(4);
        let mut hit = [0usize; 4];
        for key in 0..1000u64 {
            let w = ring
                .route(key.wrapping_mul(0x9E3779B97F4A7C15), |_| true)
                .unwrap();
            hit[w] += 1;
            // Same key, same worker.
            assert_eq!(
                ring.route(key.wrapping_mul(0x9E3779B97F4A7C15), |_| true),
                Some(w)
            );
        }
        assert!(
            hit.iter().all(|&c| c > 0),
            "every worker takes load: {hit:?}"
        );
    }

    #[test]
    fn ring_rehashes_past_dead_workers_only_as_needed() {
        let ring = Ring::new(3);
        let key = 0xDEAD_BEEF_u64;
        let primary = ring.route(key, |_| true).unwrap();
        // Killing a different worker must not move this key.
        let other = (primary + 1) % 3;
        assert_eq!(ring.route(key, |w| w != other), Some(primary));
        // Killing the primary moves it to a live worker.
        let fallback = ring.route(key, |w| w != primary).unwrap();
        assert_ne!(fallback, primary);
        // No live workers: no route.
        assert_eq!(ring.route(key, |_| false), None);
    }

    #[test]
    fn point_key_matches_repeat_routing() {
        let base = Synthesizer::new();
        let cdfg = hls_lang::compile(hls_workloads::sources::SQRT).unwrap();
        let fp = cdfg_fingerprint(&cdfg);
        let p = GridPoint {
            fus: 2,
            algorithm: Algorithm::Asap,
            control: ControlStyle::Hardwired(EncodingStyle::Binary),
        };
        assert_eq!(point_key(fp, &base, &p), point_key(fp, &base, &p));
        let q = GridPoint { fus: 3, ..p };
        assert_ne!(point_key(fp, &base, &p), point_key(fp, &base, &q));
    }

    #[test]
    fn worker_batch_records_parse_back() {
        let line = r#"{"seq":5,"cache_hit":true,"point":{"fus":2,"algorithm":"asap","control":"hardwired/binary"},"result":{"latency":10,"area":950.5,"registers":7,"mux_inputs":12}}"#;
        let rec = parse_record(line).unwrap();
        assert_eq!(rec.seq, 5);
        let RecordOutcome::Point(dp, hit) = rec.outcome else {
            panic!("expected a completed point");
        };
        assert!(hit);
        assert_eq!(dp.fus, 2);
        assert_eq!(dp.latency, 10);
        assert_eq!(dp.area, 950.5);

        let err = parse_record(r#"{"seq":3,"error":{"code":"internal","message":"x"}}"#).unwrap();
        assert_eq!(err.seq, 3);
        assert!(matches!(err.outcome, RecordOutcome::Error));

        // A pruned record counts as delivered — otherwise the front
        // would re-dispatch its seq forever.
        let pruned = parse_record(
            r#"{"seq":8,"pruned":true,"point":{"fus":1,"algorithm":"asap","control":"microcode"}}"#,
        )
        .unwrap();
        assert_eq!(pruned.seq, 8);
        assert!(matches!(pruned.outcome, RecordOutcome::Pruned));

        assert!(parse_record(r#"{"summary":{"points":2}}"#).is_none());
    }

    #[test]
    fn sub_batch_bodies_reparse_to_the_same_points() {
        let body = json::parse(
            r#"{"source":"x","config":{"optimize":false},"grid":{"fus":[1,2]},"deadline_ms":5000}"#,
        )
        .unwrap();
        let req = api::BatchRequest::from_json(&body).unwrap();
        let rendered = sub_batch_body(&req, &req.points);
        let reparsed = api::BatchRequest::from_json(
            &json::parse(std::str::from_utf8(&rendered).unwrap()).unwrap(),
        )
        .unwrap();
        assert_eq!(reparsed.points, req.points);
        assert_eq!(reparsed.deadline_ms, Some(5000));
        assert_eq!(
            reparsed.synthesizer.fingerprint(),
            req.synthesizer.fingerprint()
        );
        assert!(!reparsed.prune);
    }

    #[test]
    fn sub_batch_bodies_carry_the_prune_flag() {
        let body = json::parse(r#"{"source":"x","grid":{"fus":[1,2]},"prune":true}"#).unwrap();
        let req = api::BatchRequest::from_json(&body).unwrap();
        let rendered = sub_batch_body(&req, &req.points);
        let reparsed = api::BatchRequest::from_json(
            &json::parse(std::str::from_utf8(&rendered).unwrap()).unwrap(),
        )
        .unwrap();
        assert!(reparsed.prune, "workers must see the front's prune flag");
    }
}
