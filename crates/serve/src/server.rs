//! The synthesis worker: the `/v1` endpoints over the whole flow,
//! behind the shared listener core (see `listener.rs` for admission,
//! routing, shedding and drain).
//!
//! ## Deadlines
//!
//! Every request gets a [`CancelToken`] carrying the server deadline
//! (or the request's own `deadline_ms`, whichever is sooner). The token
//! is checked between pipeline stages; an expired request answers
//! `504 Gateway Timeout` naming the last completed stage.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hls_core::par::{default_threads, lock};
use hls_core::{
    cdfg_fingerprint, CancelToken, DesignPoint, Explorer, GridPoint, StreamedPoint, SynthesisError,
};

use crate::api;
use crate::cache::{response_key, ResponseCache};
use crate::http::{start_chunked, Request, Response};
use crate::json::Json;
use crate::listener::{
    error_response, parse_body, write_error, Listener, NdjsonEmitter, ServerHandle, Service,
};
use crate::metrics::{BatchOutcome, Metrics};

/// Server configuration; every knob has an environment variable.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address (`HLS_SERVE_ADDR`, default `127.0.0.1:7878`;
    /// use port 0 for an ephemeral port).
    pub addr: String,
    /// Worker threads (`HLS_SERVE_THREADS`, default: available cores).
    pub threads: usize,
    /// Max accepted-but-unfinished requests before load shedding
    /// (`HLS_SERVE_QUEUE`, default 64).
    pub queue: usize,
    /// Per-request deadline (`HLS_SERVE_DEADLINE_MS`, default 10000).
    pub deadline: Duration,
    /// Response-cache capacity in entries (`HLS_SERVE_CACHE`, default
    /// 1024; 0 disables the cache).
    pub cache_capacity: usize,
    /// Backoff suggested on a 503, in milliseconds. Rendered twice: the
    /// standard `Retry-After` header carries it rounded **up** to whole
    /// seconds (the header's unit), and `Retry-After-Ms` carries it
    /// verbatim for clients (like `hls-loadgen`) that back off in ms.
    pub retry_after_ms: u64,
    /// Honor the `test_delay_ms` request field (integration tests only;
    /// `HLS_SERVE_ALLOW_TEST_DELAY=1` for spawned worker processes).
    pub allow_test_delay: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".into(),
            threads: default_threads(),
            queue: 64,
            deadline: Duration::from_millis(10_000),
            cache_capacity: 1024,
            retry_after_ms: 1000,
            allow_test_delay: false,
        }
    }
}

/// Reads a non-negative integer environment variable, warning (not
/// silently ignoring) invalid values.
fn env_number(name: &str, fallback: u64, min: u64) -> u64 {
    match std::env::var(name) {
        Err(_) => fallback,
        Ok(raw) => match raw.trim().parse::<u64>() {
            Ok(n) if n >= min => n,
            _ => {
                eprintln!(
                    "warning: ignoring {name}={raw:?} (expected an integer >= {min}); \
                     falling back to {fallback}"
                );
                fallback
            }
        },
    }
}

impl ServerConfig {
    /// Configuration from the `HLS_SERVE_*` environment variables.
    pub fn from_env() -> Self {
        let defaults = ServerConfig::default();
        ServerConfig {
            addr: std::env::var("HLS_SERVE_ADDR").unwrap_or(defaults.addr),
            threads: env_number("HLS_SERVE_THREADS", defaults.threads as u64, 1) as usize,
            queue: env_number("HLS_SERVE_QUEUE", defaults.queue as u64, 1) as usize,
            deadline: Duration::from_millis(env_number(
                "HLS_SERVE_DEADLINE_MS",
                defaults.deadline.as_millis() as u64,
                1,
            )),
            cache_capacity: env_number("HLS_SERVE_CACHE", defaults.cache_capacity as u64, 0)
                as usize,
            retry_after_ms: env_number("HLS_SERVE_RETRY_AFTER_MS", defaults.retry_after_ms, 1),
            allow_test_delay: std::env::var("HLS_SERVE_ALLOW_TEST_DELAY")
                .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
                .unwrap_or(defaults.allow_test_delay),
        }
    }
}

/// Worker state, shared by every connection.
struct Ctx {
    config: ServerConfig,
    metrics: Arc<Metrics>,
    cache: ResponseCache,
    /// The shared exploration engine; its memo cache persists across
    /// requests, so repeated or overlapping grids are answered from it.
    explorer: Explorer,
}

/// A synthesis worker bound to its listener.
pub struct Server {
    listener: Listener,
    ctx: Arc<Ctx>,
}

impl Server {
    /// Binds the listener and spins up the worker pool.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound.
    pub fn bind(config: ServerConfig) -> io::Result<Self> {
        let metrics = Arc::new(Metrics::new());
        let listener = Listener::bind(
            &config.addr,
            config.threads,
            config.queue,
            config.retry_after_ms,
            Arc::clone(&metrics),
        )?;
        let ctx = Arc::new(Ctx {
            metrics,
            cache: ResponseCache::new(config.cache_capacity),
            explorer: Explorer::with_threads(config.threads),
            config,
        });
        Ok(Server { listener, ctx })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// A handle for shutdown and metrics.
    pub fn handle(&self) -> ServerHandle {
        self.listener.handle()
    }

    /// Runs the accept loop until [`ServerHandle::shutdown`], then
    /// drains every admitted request and joins the workers.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors.
    pub fn run(self) -> io::Result<()> {
        self.listener.run(self.ctx)
    }
}

impl Service for Ctx {
    fn healthz(&self) -> Response {
        Response::json(200, br#"{"status":"ok"}"#.to_vec())
    }

    fn synthesize(&self, req: &Request) -> Response {
        synthesize(req, self)
    }

    fn explore(&self, req: &Request) -> Response {
        explore(req, self)
    }

    fn batch(&self, req: &Request, stream: &mut TcpStream) -> u16 {
        batch(req, stream, self)
    }
}

/// The request's effective deadline token.
fn deadline_token(ctx: &Ctx, requested_ms: Option<u64>) -> CancelToken {
    let server = ctx.config.deadline;
    let effective = match requested_ms {
        Some(ms) => server.min(Duration::from_millis(ms)),
        None => server,
    };
    CancelToken::with_timeout(effective)
}

/// Maps a synthesis failure onto an HTTP response. A 504 carries the
/// last completed stage inside the envelope (`error.stage`).
fn synthesis_error_response(e: &SynthesisError, ctx: &Ctx) -> Response {
    match e {
        SynthesisError::Parse(_) => error_response(422, &e.to_string()),
        SynthesisError::Cancelled { completed } => {
            ctx.metrics.deadline_cancelled();
            let body = api::error_envelope(
                "deadline_exceeded",
                "deadline exceeded",
                Some(completed),
                None,
            );
            Response::json(504, body.render().into_bytes())
        }
        other => error_response(500, &other.to_string()),
    }
}

/// Serves `key` from the response cache, or renders it with `render`
/// and caches the result; either way the body gets its `cache_hit` flag.
fn cached(ctx: &Ctx, key: u64, render: impl FnOnce() -> Result<Vec<u8>, Response>) -> Response {
    if ctx.config.cache_capacity > 0 {
        if let Some(cached) = ctx.cache.get(key) {
            ctx.metrics.cache_hit();
            return Response::json(200, api::with_cache_hit(&cached, true));
        }
        ctx.metrics.cache_miss();
    }
    let rendered = match render() {
        Ok(r) => Arc::new(r),
        Err(resp) => return resp,
    };
    if ctx.config.cache_capacity > 0 {
        ctx.cache.insert(key, Arc::clone(&rendered));
    }
    Response::json(200, api::with_cache_hit(&rendered, false))
}

/// `POST /v1/synthesize`.
fn synthesize(req: &Request, ctx: &Ctx) -> Response {
    let parsed = match parse_body(req, api::SynthesizeRequest::from_json) {
        Ok(p) => p,
        Err((status, msg)) => return error_response(status, &msg),
    };
    let cancel = deadline_token(ctx, parsed.deadline_ms);
    // Test-only hold: occupies this worker (for saturation tests) while
    // the deadline clock, already started above, keeps running (for
    // deterministic 504 tests).
    if ctx.config.allow_test_delay && parsed.test_delay_ms > 0 {
        std::thread::sleep(Duration::from_millis(parsed.test_delay_ms));
    }
    // Test-only injected panic: stands in for an unexpected bug deep in
    // the pipeline so tests can prove the firewall answers 500 and the
    // worker survives.
    if ctx.config.allow_test_delay && parsed.test_panic {
        panic!("test-injected panic in synthesize stage");
    }
    if hls_lang::is_system_source(&parsed.source) {
        return synthesize_system(&parsed, ctx);
    }
    let cdfg = match hls_lang::compile(&parsed.source) {
        Ok(c) => c,
        Err(e) => return error_response(422, &format!("parse: {e}")),
    };
    let behavior_fp = cdfg_fingerprint(&cdfg);
    let key = response_key(
        "synthesize",
        behavior_fp,
        parsed.synthesizer.fingerprint(),
        u64::from(parsed.verilog),
    );
    cached(ctx, key, || {
        let result = parsed
            .synthesizer
            .synthesize_cancellable(cdfg, &cancel)
            .map_err(|e| synthesis_error_response(&e, ctx))?;
        ctx.metrics.observe_stages(result.stage_nanos);
        Ok(api::synthesize_response(&parsed, behavior_fp, &result)
            .render()
            .into_bytes())
    })
}

/// `POST /v1/synthesize` for a multi-process `system` source: every
/// process runs the full per-behavior pipeline and the response carries
/// per-process metrics plus (on request) the elaborated top-level
/// Verilog with the handshake interconnect. System synthesis has no
/// between-stage cancel points yet, so the deadline is not enforced
/// mid-flight here.
fn synthesize_system(parsed: &api::SynthesizeRequest, ctx: &Ctx) -> Response {
    let sys = match hls_lang::compile_system(&parsed.source) {
        Ok(s) => s,
        Err(e) => return error_response(422, &format!("parse: {e}")),
    };
    let behavior_fp = api::system_fingerprint(&sys);
    let key = response_key(
        "synthesize-system",
        behavior_fp,
        parsed.synthesizer.fingerprint(),
        u64::from(parsed.verilog),
    );
    cached(ctx, key, || {
        let result = parsed
            .synthesizer
            .synthesize_system(sys)
            .map_err(|e| synthesis_error_response(&e, ctx))?;
        for p in &result.processes {
            ctx.metrics.observe_stages(p.result.stage_nanos);
        }
        Ok(api::system_response(parsed, behavior_fp, &result)
            .render()
            .into_bytes())
    })
}

/// `POST /v1/explore`.
fn explore(req: &Request, ctx: &Ctx) -> Response {
    let parsed = match parse_body(req, api::ExploreRequest::from_json) {
        Ok(p) => p,
        Err((status, msg)) => return error_response(status, &msg),
    };
    let cancel = deadline_token(ctx, parsed.deadline_ms);
    if hls_lang::is_system_source(&parsed.source) {
        return error_response(422, "explore does not accept system sources");
    }
    let cdfg = match hls_lang::compile(&parsed.source) {
        Ok(c) => c,
        Err(e) => return error_response(422, &format!("parse: {e}")),
    };
    let behavior_fp = cdfg_fingerprint(&cdfg);
    let config_fp = parsed.synthesizer.fingerprint();
    let spec_fp = {
        use std::fmt::Write as _;
        let mut w = hls_testkit::FnvWriter::new();
        let _ = write!(w, "{:?}", parsed.spec);
        if parsed.prune {
            // A pruned response body carries extra members, so it must
            // not share a cache slot with the exhaustive rendering.
            w.update(b"/pruned");
        }
        w.finish()
    };
    let key = response_key("explore", behavior_fp, config_fp, spec_fp);
    cached(ctx, key, || {
        let fail = |e: SynthesisError| synthesis_error_response(&e, ctx);
        let (points, stats) = if parsed.prune {
            let sweep = ctx
                .explorer
                .sweep_grid_cdfg_pruned_cancellable(
                    &parsed.synthesizer,
                    &cdfg,
                    &parsed.spec,
                    &cancel,
                )
                .map_err(fail)?;
            ctx.metrics.points_pruned(sweep.stats.pruned as u64);
            (sweep.points, Some(sweep.stats))
        } else {
            let points = ctx
                .explorer
                .sweep_grid_cdfg_cancellable(&parsed.synthesizer, &cdfg, &parsed.spec, &cancel)
                .map_err(fail)?;
            (points, None)
        };
        Ok(
            api::explore_response(&points, stats.as_ref(), behavior_fp, config_fp)
                .render()
                .into_bytes(),
        )
    })
}

/// Renders one failed grid point as its NDJSON error record.
fn batch_error_line(seq: u64, e: &SynthesisError) -> Json {
    match e {
        SynthesisError::Cancelled { completed } => api::batch_error_record(
            seq,
            "deadline_exceeded",
            "deadline exceeded",
            Some(completed),
        ),
        other => {
            let code = match other {
                SynthesisError::Parse(_) => "unprocessable",
                _ => "internal",
            };
            api::batch_error_record(seq, code, &other.to_string(), None)
        }
    }
}

/// `POST /v1/batch`: streams one NDJSON record per grid point, in
/// request order, over a chunked response, then a terminal summary line.
/// Returns the status for the metrics label (499 = client disconnected
/// mid-stream).
fn batch(req: &Request, stream: &mut TcpStream, ctx: &Ctx) -> u16 {
    let parsed = match parse_body(req, api::BatchRequest::from_json) {
        Ok(p) => p,
        Err((status, msg)) => return write_error(stream, status, &msg),
    };
    if hls_lang::is_system_source(&parsed.source) {
        return write_error(stream, 422, "batch does not accept system sources");
    }
    let cdfg = match hls_lang::compile(&parsed.source) {
        Ok(c) => c,
        Err(e) => return write_error(stream, 422, &format!("parse: {e}")),
    };
    let cancel = deadline_token(ctx, parsed.deadline_ms);
    let Ok(out) = stream.try_clone() else {
        return write_error(stream, 500, "connection unavailable");
    };
    if start_chunked(stream, 200, "application/x-ndjson", &[]).is_err() {
        return 499;
    }
    let n = parsed.points.len();
    let points: Vec<GridPoint> = parsed.points.iter().map(|(_, p)| *p).collect();
    let emitter = Arc::new(NdjsonEmitter::new(out, cancel.clone()));
    let completed: Arc<Mutex<Vec<(u64, DesignPoint, bool)>>> = Arc::default();
    let delay = if ctx.config.allow_test_delay {
        parsed.test_delay_ms
    } else {
        0
    };
    // Test-only: hold once after the deadline clock starts, so a tiny
    // deadline is deterministically blown before any point runs —
    // mirroring where the single-shot path injects its hold.
    if delay > 0 {
        std::thread::sleep(Duration::from_millis(delay));
    }
    // One record per grid point, by local index.
    let record = {
        let emitter = Arc::clone(&emitter);
        let completed = Arc::clone(&completed);
        let seqs: Vec<u64> = parsed.points.iter().map(|(s, _)| *s).collect();
        let points = points.clone();
        let metrics = Arc::clone(&ctx.metrics);
        move |idx: usize, res: Result<StreamedPoint, SynthesisError>| {
            // Test-only pacing: holds this pool worker per point so
            // tests can observe mid-batch state deterministically.
            if delay > 0 {
                std::thread::sleep(Duration::from_millis(delay));
            }
            let seq = seqs[idx];
            let line = match res {
                Ok(StreamedPoint::Pruned) => {
                    metrics.points_pruned(1);
                    api::batch_pruned_record(seq, &points[idx])
                }
                Ok(StreamedPoint::Synthesized { point, cache_hit }) => {
                    metrics.batch_point(if cache_hit {
                        BatchOutcome::Hit
                    } else {
                        BatchOutcome::Miss
                    });
                    let line = api::batch_point_record(seq, cache_hit, &points[idx], &point);
                    lock(&completed).push((seq, point, cache_hit));
                    line
                }
                Err(e) => {
                    metrics.batch_point(BatchOutcome::Error);
                    batch_error_line(seq, &e)
                }
            };
            emitter.push(idx, line.render().into_bytes());
        }
    };
    let stats = match ctx.explorer.sweep_points_cdfg_streaming(
        &parsed.synthesizer,
        &cdfg,
        points,
        parsed.prune,
        &cancel,
        record,
    ) {
        Ok(stats) => stats,
        Err(e) => {
            // Shared preparation failed before any point ran: the chunked
            // head is already on the wire, so the error goes out as the
            // terminal line.
            let line = api::error_envelope("internal", &e.to_string(), None, None)
                .render()
                .into_bytes();
            emitter.finish(&line);
            return 200;
        }
    };
    let pruned = parsed.prune.then_some(stats.pruned);
    let completed = std::mem::take(&mut *lock(&completed));
    let summary = api::batch_summary(n, completed, pruned)
        .render()
        .into_bytes();
    if emitter.has_failed() {
        ctx.metrics.batch_cancelled();
        return 499;
    }
    if cancel.is_cancelled() {
        // Deadline expiry mid-batch: the summary still goes out (late
        // points became error records), but record the cancellation.
        ctx.metrics.deadline_cancelled();
    }
    if !emitter.finish(&summary) {
        ctx.metrics.batch_cancelled();
        return 499;
    }
    200
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_from_env_warns_and_falls_back() {
        // Invalid values fall back to defaults (with a stderr warning).
        std::env::set_var("HLS_SERVE_QUEUE", "not-a-number");
        std::env::set_var("HLS_SERVE_THREADS", "0");
        let cfg = ServerConfig::from_env();
        assert_eq!(cfg.queue, ServerConfig::default().queue);
        assert_eq!(cfg.threads, ServerConfig::default().threads);
        std::env::remove_var("HLS_SERVE_QUEUE");
        std::env::remove_var("HLS_SERVE_THREADS");
    }

    #[test]
    fn deadline_token_takes_the_sooner() {
        let ctx_cfg = ServerConfig {
            deadline: Duration::from_millis(50),
            ..ServerConfig::default()
        };
        // A request asking for longer than the server allows is clamped:
        // both tokens expire within the server deadline.
        let server = CancelToken::with_timeout(ctx_cfg.deadline);
        assert!(!server.is_cancelled());
        std::thread::sleep(Duration::from_millis(60));
        assert!(server.is_cancelled());
    }
}
