//! `serve-mixed`: an in-process `hls_serve::Server` on loopback with two
//! workers, driven by a closed loop over two connections. Every request
//! is `POST /v1/synthesize` with `"verilog":true` on a small program: the
//! paper's SQRT, GCD, DIFFEQ, FIR4 and SUMSQ, then seeded programs. A
//! seeded coin decides per request whether it repeats a body this
//! connection already had answered (a response-cache read) or carries a
//! program not seen before in the run (a cache write).

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hls_core::{cdfg_fingerprint, CancelToken, SynthesisResult};
use hls_serve::api::{self, SynthesizeRequest};
use hls_serve::cache::{response_key, ResponseCache};
use hls_serve::http::{read_response, ClientResponse};
use hls_serve::json::{self, Json};
use hls_serve::{Server, ServerConfig, ServerHandle};
use hls_testkit::SplitMix64;
use hls_workloads::sources;

use crate::replay::{self, Qor};
use crate::stats;
use crate::trace::Tracer;
use crate::{cosim, program, Opts, Report, Sizes, WARMUP_SEED};
use hls_testkit::fnv1a as fnv;

pub const WHY: &str = "HTTP, JSON, the response cache and the admission queue do most of the \
work here and none elsewhere; a cache hit still re-parses, recompiles and re-fingerprints the \
source before the lookup, so reads and writes use lang and core differently";

const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;
/// Share of requests that repeat an answered body. Below one half, so the
/// median request is a cache write: at exactly one half the median would
/// sit in the gap between the fast reads and the slow writes and jump
/// between them from run to run.
const REPEAT_SHARE: f64 = 0.4;
const WINDOW: usize = 8;
/// Response-cache capacity the server runs with (its default). Repeats
/// are drawn from each connection's last `serve_recent` answers, far
/// fewer inserts than this, so a repeat is always a cache read.
const CACHE_CAPACITY: usize = 1024;

/// The paper programs each connection sends first.
fn paper(conn: usize) -> &'static [&'static str] {
    match conn {
        0 => &[sources::SQRT, sources::GCD, sources::DIFFEQ],
        _ => &[sources::FIR4, sources::SUMSQ],
    }
}

/// The `j`-th new program of connection `conn`.
fn fresh(seed: u64, sz: &Sizes, conn: usize, j: usize) -> String {
    let p = paper(conn);
    if j < p.len() {
        return p[j].to_string();
    }
    let k = ((conn as u64) << 32) | j as u64;
    let (lo, hi) = sz.serve_stmts;
    let stmts = SplitMix64::new(seed ^ k).usize_in(lo, hi + 1);
    program(seed ^ 0x5E57E, k, stmts, WINDOW)
}

fn request_body(src: &str) -> String {
    Json::Obj(vec![
        ("source".into(), Json::Str(src.into())),
        ("verilog".into(), Json::Bool(true)),
    ])
    .render()
}

fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<ClientResponse> {
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body.as_bytes());
    s.write_all(&req)?;
    read_response(&mut s)
}

/// Splits the served `cache_hit` flag off a v1 body: the inverse of
/// `api::with_cache_hit`.
fn strip_cache_hit(body: &[u8]) -> Option<(bool, Vec<u8>)> {
    for (prefix, hit) in [
        (&b"{\"cache_hit\":true"[..], true),
        (&b"{\"cache_hit\":false"[..], false),
    ] {
        if let Some(rest) = body.strip_prefix(prefix) {
            let rest = rest.strip_prefix(b",").unwrap_or(rest);
            let mut out = b"{".to_vec();
            out.extend_from_slice(rest);
            return Some((hit, out));
        }
    }
    None
}

/// The server's `/v1/synthesize` handler, replayed stage by stage
/// against this run's own response cache. Returns the full body.
fn replay_request(t: &mut Tracer, body: &str, cache: &ResponseCache) -> Result<Vec<u8>, String> {
    let parsed = t
        .span("serve.json_parse", |_| json::parse(body))
        .map_err(|e| e.to_string())?;
    let req = t
        .span("serve.request_decode", |_| {
            SynthesizeRequest::from_json(&parsed)
                .map(|r| (hls_lang::is_system_source(&r.source), r))
        })
        .map_err(|e| e.0)?
        .1;
    let mut cdfg = replay::compile(t, &req.source)?;
    let (fp, key) = t.span("core.fingerprint", |_| {
        let fp = cdfg_fingerprint(&cdfg);
        let key = response_key(
            "synthesize",
            fp,
            req.synthesizer.fingerprint(),
            u64::from(req.verilog),
        );
        (fp, key)
    });
    if let Some(cached) = t.span("serve.cache", |_| cache.get(key)) {
        return Ok(t.span("serve.response_encode", |_| {
            api::with_cache_hit(&cached, true)
        }));
    }
    replay::optimize(t, &mut cdfg);
    let bounds = replay::bounds(t, &cdfg)?;
    let r = replay::back(
        t,
        &cdfg,
        &bounds,
        replay::DEFAULT_FUS,
        replay::DEFAULT_ALGORITHM,
        replay::DEFAULT_CONTROL,
    )?;
    let rendered = Arc::new(t.span("serve.response_encode", |_| {
        api::synthesize_response(&req, fp, &r).render().into_bytes()
    }));
    t.span("serve.cache", |_| cache.insert(key, Arc::clone(&rendered)));
    Ok(t.span("serve.response_encode", |_| {
        api::with_cache_hit(&rendered, false)
    }))
}

/// The handler's work on a cache write, in process and without spans: the
/// rendered body (without `cache_hit`) and the design.
fn handle_miss(body: &str) -> Result<(String, SynthesisResult), String> {
    let parsed = json::parse(body).map_err(|e| e.to_string())?;
    let req = SynthesizeRequest::from_json(&parsed).map_err(|e| e.0)?;
    let (fp, r) = api::run_synthesize(&req, &CancelToken::new()).map_err(|e| e.to_string())?;
    Ok((api::synthesize_response(&req, fp, &r).render(), r))
}

#[derive(Default)]
struct Client {
    /// (latency seconds, was a repeat).
    lat: Vec<(f64, bool)>,
    /// New program index → (body hash, requests that carried it).
    answered: BTreeMap<usize, (u64, u64)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    overhead: Vec<f64>,
    http_us: Vec<f64>,
    tracer: Option<Tracer>,
}

struct Shared<'a> {
    addr: SocketAddr,
    seed: u64,
    sz: &'a Sizes,
    deadline: Instant,
    trace: bool,
    cache: ResponseCache,
    epoch: Instant,
}

fn client(sh: &Shared, conn: usize) -> Client {
    let mut c = Client::default();
    let mut t = Tracer::new(sh.epoch);
    let mut rng = SplitMix64::new(sh.seed ^ (0xC11E_u64 << conn));
    let mut recent: VecDeque<(usize, String)> = VecDeque::new();
    let mut next = 0usize;
    let mut op = (conn as u64) << 40;
    while Instant::now() < sh.deadline {
        let repeat = !recent.is_empty() && rng.bool_with(REPEAT_SHARE);
        let (j, body) = if repeat {
            recent[rng.usize_in(0, recent.len())].clone()
        } else {
            next += 1;
            (
                next - 1,
                request_body(&fresh(sh.seed, sh.sz, conn, next - 1)),
            )
        };
        c.attempted += 1;
        op += 1;
        let t0 = Instant::now();
        let resp = send(sh.addr, "POST", "/v1/synthesize", &body);
        let dt = t0.elapsed().as_secs_f64();
        c.lat.push((dt, repeat));
        let resp = match resp {
            Ok(r) if r.status == 200 => r,
            Ok(r) => {
                c.failed += 1;
                c.errors
                    .push(format!("program {conn}/{j}: HTTP {}", r.status));
                continue;
            }
            Err(e) => {
                c.failed += 1;
                c.errors.push(format!("program {conn}/{j}: {e}"));
                continue;
            }
        };
        let Some((hit, stripped)) = strip_cache_hit(&resp.body) else {
            c.failed += 1;
            c.errors
                .push(format!("program {conn}/{j}: body without cache_hit"));
            continue;
        };
        let h = fnv(&stripped);
        let entry = c.answered.entry(j).or_insert((h, 0));
        entry.1 += 1;
        if hit != repeat || entry.0 != h {
            c.failed += 1;
            c.errors.push(format!(
                "program {conn}/{j}: cache_hit={hit} on a {} request, body {}",
                if repeat { "repeated" } else { "new" },
                if entry.0 == h { "as before" } else { "changed" }
            ));
        }
        if !repeat {
            recent.push_back((j, body.clone()));
            if recent.len() > sh.sz.serve_recent {
                recent.pop_front();
            }
        }
        if sh.trace {
            let direct = (!repeat).then(|| {
                let t1 = Instant::now();
                let b = handle_miss(&body).map(|(b, _)| api::with_cache_hit(b.as_bytes(), false));
                (b, t1.elapsed().as_secs_f64())
            });
            let (replayed, wall_s) = t.op(op, |t| replay_request(t, &body, &sh.cache));
            if repeat {
                c.http_us.push((dt - wall_s) * 1e6);
            }
            if let Some((b, direct_s)) = direct {
                c.overhead.push(wall_s / direct_s - 1.0);
                if b.as_deref() != Ok(&resp.body[..]) {
                    c.failed += 1;
                    c.errors
                        .push(format!("program {conn}/{j}: direct call differs"));
                }
            }
            if replayed.as_deref() != Ok(&resp.body[..]) {
                c.failed += 1;
                c.errors.push(format!(
                    "program {conn}/{j}: replay differs from the response"
                ));
            }
        }
    }
    if sh.trace {
        c.tracer = Some(t);
    }
    c
}

/// Starts a server on an ephemeral loopback port, waits until it answers
/// a health check, and sends one warm-up request on a fixed program that
/// no connection sends later.
fn start(sz: &Sizes) -> io::Result<(ServerHandle, JoinHandle<io::Result<()>>)> {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: WORKERS,
        cache_capacity: CACHE_CAPACITY,
        ..ServerConfig::default()
    })?;
    let handle = server.handle();
    let join = thread::spawn(move || server.run());
    let warm = request_body(&program(WARMUP_SEED, 0, sz.serve_stmts.1, WINDOW));
    let health = send(handle.addr(), "GET", "/v1/healthz", "")
        .and_then(|h| Ok((h, send(handle.addr(), "POST", "/v1/synthesize", &warm)?)));
    match health {
        Ok((h, w)) if h.status == 200 && w.status == 200 => Ok((handle, join)),
        other => {
            stop(handle, join);
            Err(io::Error::other(format!("health check failed: {other:?}")))
        }
    }
}

fn stop(handle: ServerHandle, join: JoinHandle<io::Result<()>>) {
    handle.shutdown();
    match join.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => eprintln!("server stopped with an error: {e}"),
        Err(_) => eprintln!("server thread panicked"),
    }
}

pub fn run(o: &Opts, sz: &Sizes) -> Report {
    let mut rep = Report::default();
    let mut times = Vec::new();
    let mut server = None;
    for rep_i in 0..sz.setup_reps.max(1) {
        let t0 = Instant::now();
        let started = start(sz);
        times.push(t0.elapsed().as_secs_f64());
        match started {
            Ok((h, j)) if rep_i + 1 == sz.setup_reps.max(1) => server = Some((h, j)),
            Ok((h, j)) => stop(h, j),
            Err(e) => {
                rep.attempted += 1;
                rep.failed += 1;
                rep.error(format!("server did not start: {e}"));
                return rep;
            }
        }
    }
    rep.setup(&times);
    let Some((handle, join)) = server else {
        rep.error("no server".into());
        return rep;
    };

    let start_t = Instant::now();
    let sh = Shared {
        addr: handle.addr(),
        seed: o.seed,
        sz,
        deadline: start_t + Duration::from_secs_f64(o.seconds),
        trace: o.trace,
        cache: ResponseCache::new(CACHE_CAPACITY),
        epoch: start_t,
    };
    let clients: Vec<Client> = thread::scope(|s| {
        let hs: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let sh = &sh;
                s.spawn(move || client(sh, c))
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start_t.elapsed().as_secs_f64();
    let lat: Vec<f64> = clients
        .iter()
        .flat_map(|c| c.lat.iter().map(|l| l.0))
        .collect();
    let requests = lat.len() as f64;
    if !o.trace {
        rep.timing(&lat, requests / wall);
    }
    let m = handle.metrics();
    let (hits, misses) = m.cache_totals();
    let high_water = m.queue_high_water();
    let shed = m.shed_total();
    stop(handle, join);

    let mut ops_on: BTreeMap<(usize, usize), (Option<u64>, u64)> = BTreeMap::new();
    for (conn, c) in clients.iter().enumerate() {
        rep.attempted += c.attempted;
        rep.failed += c.failed;
        for e in &c.errors {
            rep.error(e.clone());
        }
        for (&j, &(h, n)) in &c.answered {
            ops_on.insert((conn, j), (Some(h), n));
        }
    }
    // The design metrics sum over a fixed set, the paper programs plus
    // the first `serve_quality` seeded programs of each connection, so
    // they repeat exactly for a seed however many requests a run made.
    for conn in 0..CONNECTIONS {
        for j in 0..paper(conn).len() + sz.serve_quality {
            ops_on.entry((conn, j)).or_insert((None, 0));
        }
    }
    let work: Vec<_> = ops_on.into_iter().collect();
    let chunk = work.len().div_ceil(WORKERS).max(1);
    let checked: Vec<(Vec<String>, u64, [f64; 3])> = thread::scope(|s| {
        let hs: Vec<_> = work
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut errs = Vec::new();
                    let mut failed = 0;
                    let mut sums = [0.0; 3];
                    for &((conn, j), (served, n)) in part {
                        let src = fresh(o.seed, sz, conn, j);
                        let expected = handle_miss(&request_body(&src)).and_then(|(b, r)| {
                            cosim(&r, &src)?;
                            Ok((fnv(b.as_bytes()), Qor::of(&r)))
                        });
                        match expected {
                            Ok((h, q)) => {
                                if served.is_some_and(|s| s != h) {
                                    failed += n;
                                    errs.push(format!("program {conn}/{j}: served body differs"));
                                }
                                if j < paper(conn).len() + sz.serve_quality {
                                    sums[0] += q.latency as f64;
                                    sums[1] += q.area;
                                    sums[2] += q.literals as f64;
                                }
                            }
                            Err(e) => {
                                failed += n;
                                errs.push(format!("program {conn}/{j}: {e}"));
                            }
                        }
                    }
                    (errs, failed, sums)
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    let mut sums = [0.0; 3];
    for (errs, failed, s) in checked {
        rep.failed += failed;
        for e in errs {
            rep.error(e);
        }
        for k in 0..3 {
            sums[k] += s[k];
        }
    }
    rep.set("design_latency_steps", sums[0]);
    rep.set("design_area_ge", sums[1]);
    rep.set("control_literals", sums[2]);
    rep.notes.push(format!(
        "{} requests, {} distinct programs, {hits} cache reads, {misses} cache writes",
        requests,
        work.len()
    ));

    if o.trace {
        let by_kind = |repeat: bool| -> Vec<f64> {
            clients
                .iter()
                .flat_map(|c| c.lat.iter().filter(|l| l.1 == repeat).map(|l| l.0 * 1e3))
                .collect()
        };
        rep.set("serve.hit_latency_p50_ms", stats::median(&by_kind(true)));
        rep.set("serve.miss_latency_p50_ms", stats::median(&by_kind(false)));
        let total = (hits + misses).max(1) as f64;
        rep.set("serve.cache_hit_pct", 100.0 * hits as f64 / total);
        rep.set("serve.queue_high_water", high_water as f64);
        rep.set("serve.shed_pct", 100.0 * shed as f64 / requests.max(1.0));
        let http: Vec<f64> = clients.iter().flat_map(|c| c.http_us.clone()).collect();
        rep.set("serve.http_us", stats::median(&http));
        let overhead: Vec<f64> = clients.iter().flat_map(|c| c.overhead.clone()).collect();
        rep.set("trace.overhead_pct", 100.0 * stats::median(&overhead));
        let mut tracer = Tracer::new(start_t);
        for c in clients {
            if let Some(t) = c.tracer {
                tracer.absorb(t);
            }
        }
        rep.layers(&tracer, "serve-mixed", o.seed);
    }
    rep
}
