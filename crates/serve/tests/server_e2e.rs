//! End-to-end tests for `hls-serve`: a real listener on an ephemeral
//! port, real TCP clients, and the full synthesis pipeline behind it.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use hls_serve::{Server, ServerConfig, ServerHandle};

/// A running test server plus the thread driving its accept loop.
struct TestServer {
    addr: SocketAddr,
    handle: ServerHandle,
    runner: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    fn start(mut config: ServerConfig) -> Self {
        config.addr = "127.0.0.1:0".into();
        let server = Server::bind(config).expect("bind ephemeral port");
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            handle,
            runner: Some(runner),
        }
    }

    /// Shuts down and asserts the accept loop exited cleanly.
    fn stop(mut self) {
        self.handle.shutdown();
        self.runner
            .take()
            .expect("runner present")
            .join()
            .expect("server thread")
            .expect("server run");
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        if let Some(runner) = self.runner.take() {
            self.handle.shutdown();
            let _ = runner.join();
        }
    }
}

struct Reply {
    status: u16,
    headers: BTreeMap<String, String>,
    body: String,
}

fn roundtrip(addr: SocketAddr, raw_request: &str) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    stream
        .write_all(raw_request.as_bytes())
        .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header terminator");
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Reply {
        status,
        headers,
        body: body.to_string(),
    }
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Reply {
    roundtrip(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn get(addr: SocketAddr, path: &str) -> Reply {
    roundtrip(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

/// Repeats a request while the server sheds it (503), as a client
/// honoring `Retry-After` would; gives up after a few seconds.
fn retry_until_ok(mut req: impl FnMut() -> Reply) -> Reply {
    for _ in 0..50 {
        let reply = req();
        if reply.status != 503 {
            return reply;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    panic!("server kept shedding for 5 seconds");
}

fn synthesize_body(source: &str, fus: u32) -> String {
    format!(r#"{{"source":{source:?},"config":{{"fus":{fus},"algorithm":"list/path"}}}}"#)
}

/// The served `cache_hit` flag: `Some(hit)` when the body leads with it.
fn cache_hit(reply: &Reply) -> Option<bool> {
    if reply.body.starts_with("{\"cache_hit\":true,") {
        Some(true)
    } else if reply.body.starts_with("{\"cache_hit\":false,") {
        Some(false)
    } else {
        None
    }
}

/// Strips the volatile `cache_hit` flag so warm/cold bodies compare.
fn mask_cache_hit(s: &str) -> String {
    s.replace("\"cache_hit\":true", "\"cache_hit\":_")
        .replace("\"cache_hit\":false", "\"cache_hit\":_")
}

#[test]
fn golden_synthesize_with_cache_roundtrip() {
    let server = TestServer::start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let body = synthesize_body(hls_workloads::sources::SQRT, 2);

    let first = post(server.addr, "/v1/synthesize", &body);
    assert_eq!(first.status, 200, "body: {}", first.body);
    assert_eq!(cache_hit(&first), Some(false), "{}", first.body);
    // The paper's optimized SQRT schedule: 10 control steps on 2 FUs.
    assert!(
        first.body.contains("\"latency\":10"),
        "expected 10 control steps, got: {}",
        first.body
    );
    assert!(first.body.contains("\"fingerprints\":"), "{}", first.body);

    let second = post(server.addr, "/v1/synthesize", &body);
    assert_eq!(second.status, 200);
    assert_eq!(cache_hit(&second), Some(true), "{}", second.body);
    assert_eq!(
        mask_cache_hit(&first.body),
        mask_cache_hit(&second.body),
        "cache must serve byte-exact repeats"
    );

    // The miss ran the real pipeline, so every stage counter is nonzero;
    // timings live only in /v1/metrics, never in response bodies.
    let metrics = get(server.addr, "/v1/metrics");
    for stage in ["schedule", "alloc", "control", "rtl"] {
        let needle = format!("hls_serve_stage_seconds_total{{stage=\"{stage}\"}} ");
        let seconds: f64 = metrics
            .body
            .lines()
            .find_map(|l| l.strip_prefix(&needle))
            .unwrap_or_else(|| panic!("missing {needle} in: {}", metrics.body))
            .trim()
            .parse()
            .expect("stage counter value");
        assert!(seconds > 0.0, "stage {stage} counter stayed zero");
    }
    assert!(!first.body.contains("stage"), "timings leaked into body");
    server.stop();
}

#[test]
fn concurrent_clients_get_byte_identical_responses() {
    // Cache off: every response is freshly synthesized, so identical
    // bytes here prove pipeline determinism, not cache behavior.
    let server = TestServer::start(ServerConfig {
        threads: 4,
        cache_capacity: 0,
        ..ServerConfig::default()
    });
    let body = synthesize_body(hls_workloads::sources::DIFFEQ, 2);
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let addr = server.addr;
            let body = body.clone();
            std::thread::spawn(move || post(addr, "/v1/synthesize", &body))
        })
        .collect();
    let replies: Vec<Reply> = clients
        .into_iter()
        .map(|c| c.join().expect("client"))
        .collect();
    for reply in &replies {
        assert_eq!(reply.status, 200, "body: {}", reply.body);
        assert_eq!(cache_hit(reply), Some(false), "{}", reply.body);
        assert_eq!(
            reply.body, replies[0].body,
            "all clients must agree byte-for-byte"
        );
    }
    server.stop();
}

#[test]
fn explore_sweeps_the_grid_and_caches() {
    let server = TestServer::start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let body = format!(
        r#"{{"source":{:?},"grid":{{"fus":[1,2],"algorithms":["asap","list/path"]}}}}"#,
        hls_workloads::sources::SQRT
    );
    let first = post(server.addr, "/v1/explore", &body);
    assert_eq!(first.status, 200, "body: {}", first.body);
    assert_eq!(cache_hit(&first), Some(false), "{}", first.body);
    assert!(first.body.contains("\"points\":"), "{}", first.body);
    assert!(first.body.contains("\"pareto\":"), "{}", first.body);
    let second = post(server.addr, "/v1/explore", &body);
    assert_eq!(cache_hit(&second), Some(true), "{}", second.body);
    assert_eq!(mask_cache_hit(&first.body), mask_cache_hit(&second.body));
    server.stop();
}

#[test]
fn saturated_queue_sheds_with_503_and_retry_after() {
    // One worker, admission bound 1: while the slow request executes,
    // every further connection must be shed, not queued.
    let server = TestServer::start(ServerConfig {
        threads: 1,
        queue: 1,
        allow_test_delay: true,
        ..ServerConfig::default()
    });
    let slow_body = format!(
        r#"{{"source":{:?},"config":{{"fus":2}},"test_delay_ms":600}}"#,
        hls_workloads::sources::SQRT
    );
    let addr = server.addr;
    let slow = std::thread::spawn(move || post(addr, "/v1/synthesize", &slow_body));
    // Give the slow request time to be admitted.
    std::thread::sleep(Duration::from_millis(150));

    let shed = post(
        server.addr,
        "/v1/synthesize",
        &synthesize_body(hls_workloads::sources::GCD, 2),
    );
    assert_eq!(
        shed.status, 503,
        "expected load shedding, got: {}",
        shed.body
    );
    assert_eq!(
        shed.headers.get("retry-after").map(String::as_str),
        Some("1")
    );
    assert!(
        shed.body.starts_with(r#"{"error":{"code":"overloaded""#),
        "{}",
        shed.body
    );

    let slow_reply = slow.join().expect("slow client");
    assert_eq!(slow_reply.status, 200, "admitted request must still finish");

    // Capacity returns once the slow request's slot is released; the
    // release happens shortly *after* its client sees the response, so
    // honor Retry-After like a well-behaved client would.
    let retry = retry_until_ok(|| {
        post(
            server.addr,
            "/v1/synthesize",
            &synthesize_body(hls_workloads::sources::GCD, 2),
        )
    });
    assert_eq!(retry.status, 200, "body: {}", retry.body);

    let metrics = retry_until_ok(|| get(server.addr, "/v1/metrics"));
    let shed_count: u64 = metrics
        .body
        .lines()
        .find_map(|l| l.strip_prefix("hls_requests_shed_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("shed counter present");
    assert!(shed_count >= 1, "metrics: {}", metrics.body);
    server.stop();
}

#[test]
fn shutdown_drains_inflight_requests() {
    let server = TestServer::start(ServerConfig {
        threads: 1,
        allow_test_delay: true,
        ..ServerConfig::default()
    });
    let body = format!(
        r#"{{"source":{:?},"config":{{"fus":2}},"test_delay_ms":400}}"#,
        hls_workloads::sources::DIFFEQ
    );
    let addr = server.addr;
    let inflight = std::thread::spawn(move || post(addr, "/v1/synthesize", &body));
    std::thread::sleep(Duration::from_millis(100));

    // stop() returns only after run() does, and run() returns only after
    // the drain; the in-flight request must have completed with 200.
    server.stop();
    let reply = inflight.join().expect("inflight client");
    assert_eq!(
        reply.status, 200,
        "drain must finish admitted work: {}",
        reply.body
    );
}

#[test]
fn injected_panic_yields_500_and_server_survives() {
    // One worker so the panicking request and the follow-up request run
    // on the *same* thread: if the panic killed the worker, the second
    // request would hang or be reset rather than answer 200.
    let server = TestServer::start(ServerConfig {
        threads: 1,
        cache_capacity: 0,
        allow_test_delay: true,
        ..ServerConfig::default()
    });
    let body = format!(
        r#"{{"source":{:?},"config":{{"fus":2}},"test_panic":true}}"#,
        hls_workloads::sources::SQRT
    );
    let reply = post(server.addr, "/v1/synthesize", &body);
    assert_eq!(reply.status, 500, "body: {}", reply.body);
    assert!(
        reply.body.starts_with(r#"{"error":{"code":"internal""#),
        "{}",
        reply.body
    );
    assert!(reply.body.contains("internal error"), "{}", reply.body);
    assert!(reply.body.contains("test-injected"), "{}", reply.body);

    // The worker is alive and the in-flight slot was released.
    let after = post(
        server.addr,
        "/v1/synthesize",
        &synthesize_body(hls_workloads::sources::GCD, 2),
    );
    assert_eq!(
        after.status, 200,
        "server must keep serving after a panic: {}",
        after.body
    );

    let metrics = get(server.addr, "/v1/metrics");
    let panics: u64 = metrics
        .body
        .lines()
        .find_map(|l| l.strip_prefix("hls_serve_panics_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("panic counter present");
    assert_eq!(panics, 1, "metrics: {}", metrics.body);
    assert_eq!(server.handle.metrics().panics_total(), 1);

    // Without allow_test_delay the field is parsed but ignored.
    server.stop();
    let hardened = TestServer::start(ServerConfig {
        threads: 1,
        cache_capacity: 0,
        ..ServerConfig::default()
    });
    let reply = post(hardened.addr, "/v1/synthesize", &body);
    assert_eq!(
        reply.status, 200,
        "test_panic must be inert in production config: {}",
        reply.body
    );
    hardened.stop();
}

#[test]
fn system_source_synthesizes_processes_and_interconnect() {
    let server = TestServer::start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let body = format!(
        r#"{{"source":{:?},"verilog":true}}"#,
        hls_workloads::sources::PIPE3
    );

    let first = post(server.addr, "/v1/synthesize", &body);
    assert_eq!(first.status, 200, "body: {}", first.body);
    assert_eq!(cache_hit(&first), Some(false), "{}", first.body);
    assert!(first.body.contains(r#""system":"pipe3""#), "{}", first.body);
    // One metrics block per process, plus the elaborated top module and
    // its rendezvous interconnect in the returned Verilog.
    assert_eq!(first.body.matches(r#""fsm_states""#).count(), 3);
    assert!(first.body.contains("module pipe3"), "{}", first.body);
    assert!(first.body.contains("hs_channel"), "{}", first.body);

    let second = post(server.addr, "/v1/synthesize", &body);
    assert_eq!(second.status, 200);
    assert_eq!(cache_hit(&second), Some(true), "{}", second.body);
    assert_eq!(
        mask_cache_hit(&first.body),
        mask_cache_hit(&second.body),
        "cached body must be byte-identical"
    );

    let explore = post(
        server.addr,
        "/v1/explore",
        &format!(
            r#"{{"source":{:?},"grid":{{}}}}"#,
            hls_workloads::sources::PIPE3
        ),
    );
    assert_eq!(explore.status, 422, "{}", explore.body);
    assert!(
        explore
            .body
            .starts_with(r#"{"error":{"code":"unprocessable""#),
        "{}",
        explore.body
    );
    server.stop();
}

#[test]
fn system_cache_distinguishes_channel_depth_and_reports_deadlock_verdict() {
    let server = TestServer::start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let src = |chan_decl: &str| {
        format!(
            "system s; input X; output Y; {chan_decl}
             process a; begin send c, X + 1; end;
             process b; var v; begin recv c, v; Y := v; end;
             end."
        )
    };
    let body = |chan_decl: &str| format!(r#"{{"source":{:?}}}"#, src(chan_decl));

    let rendezvous = post(server.addr, "/v1/synthesize", &body("chan c;"));
    assert_eq!(rendezvous.status, 200, "body: {}", rendezvous.body);
    assert_eq!(cache_hit(&rendezvous), Some(false), "{}", rendezvous.body);
    // The acyclic two-stage pipeline is statically proven live.
    assert!(
        rendezvous.body.contains(r#""deadlock":{"verdict":"free"}"#),
        "{}",
        rendezvous.body
    );

    // Same system, but the channel is now a depth-2 FIFO. The response
    // must be freshly synthesized, not served from the rendezvous entry.
    let buffered = post(server.addr, "/v1/synthesize", &body("chan c : fix[2];"));
    assert_eq!(buffered.status, 200, "body: {}", buffered.body);
    assert_eq!(
        cache_hit(&buffered),
        Some(false),
        "depth-2 FIFO system must not hit the rendezvous cache entry: {}",
        buffered.body
    );

    // And the original still hits its own entry afterwards.
    let again = post(server.addr, "/v1/synthesize", &body("chan c;"));
    assert_eq!(cache_hit(&again), Some(true), "{}", again.body);
    assert_eq!(
        mask_cache_hit(&rendezvous.body),
        mask_cache_hit(&again.body)
    );
    server.stop();
}

// ---------------------------------------------------------------------------
// v1 API surface
// ---------------------------------------------------------------------------

/// POSTs to a streaming endpoint and collects the NDJSON lines.
fn post_ndjson(
    addr: SocketAddr,
    path: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, Vec<String>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
        .write_all(
            format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("write request");
    let mut reader = hls_serve::http::ChunkedLineReader::start(stream).expect("response head");
    let (status, headers) = reader.head.clone();
    let mut lines = Vec::new();
    while let Some(line) = reader.next_line().expect("stream line") {
        lines.push(line);
    }
    (status, headers, lines)
}

fn batch_body(source: &str) -> String {
    format!(r#"{{"source":{source:?},"grid":{{"fus":[1,2],"algorithms":["asap","list/path"]}}}}"#)
}

#[test]
fn v1_synthesize_carries_cache_hit_and_no_deprecation() {
    let server = TestServer::start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let body = synthesize_body(hls_workloads::sources::SQRT, 2);

    let v1 = post(server.addr, "/v1/synthesize", &body);
    assert_eq!(v1.status, 200, "body: {}", v1.body);
    assert!(
        v1.body.starts_with("{\"cache_hit\":false,"),
        "v1 body leads with the hit flag: {}",
        v1.body
    );
    // The body is the only cache-hit surface: the head carries just the
    // content type and the framing headers.
    let names: Vec<&str> = v1.headers.keys().map(String::as_str).collect();
    assert_eq!(names, ["connection", "content-length", "content-type"]);

    // Golden byte-identity: two warm repeats agree exactly.
    let warm = post(server.addr, "/v1/synthesize", &body);
    assert!(
        warm.body.starts_with("{\"cache_hit\":true,"),
        "{}",
        warm.body
    );
    let again = post(server.addr, "/v1/synthesize", &body);
    assert_eq!(again.body, warm.body);
    assert_eq!(again.headers, warm.headers);
    server.stop();
}

#[test]
fn v1_errors_use_the_envelope() {
    let server = TestServer::start(ServerConfig {
        threads: 1,
        cache_capacity: 0,
        allow_test_delay: true,
        ..ServerConfig::default()
    });
    let bad = post(server.addr, "/v1/synthesize", "{not json");
    assert_eq!(bad.status, 400);
    assert!(
        bad.body.starts_with(r#"{"error":{"code":"bad_request""#),
        "{}",
        bad.body
    );

    let missing = post(server.addr, "/v1/synthesize", r#"{"config":{}}"#);
    assert_eq!(missing.status, 422);
    assert!(
        missing
            .body
            .starts_with(r#"{"error":{"code":"unprocessable""#),
        "{}",
        missing.body
    );

    let unknown_key = post(
        server.addr,
        "/v1/synthesize",
        r#"{"source":"x = 1;","config":{"fus":2,"wat":true}}"#,
    );
    assert_eq!(unknown_key.status, 422, "unknown config keys are rejected");
    assert!(
        unknown_key
            .body
            .starts_with(r#"{"error":{"code":"unprocessable""#),
        "{}",
        unknown_key.body
    );

    let nowhere = get(server.addr, "/v1/nowhere");
    assert_eq!(nowhere.status, 404);
    assert!(
        nowhere.body.starts_with(r#"{"error":{"code":"not_found""#),
        "{}",
        nowhere.body
    );
    // Unversioned paths are not routes.
    for path in ["/synthesize", "/explore", "/batch"] {
        let reply = post(server.addr, path, "{}");
        assert_eq!(reply.status, 404, "POST {path}: {}", reply.body);
        assert!(
            reply.body.starts_with(r#"{"error":{"code":"not_found""#),
            "POST {path}: {}",
            reply.body
        );
    }
    for path in ["/healthz", "/metrics"] {
        let reply = get(server.addr, path);
        assert_eq!(reply.status, 404, "GET {path}: {}", reply.body);
        assert!(
            reply.body.starts_with(r#"{"error":{"code":"not_found""#),
            "GET {path}: {}",
            reply.body
        );
    }
    assert_eq!(get(server.addr, "/v1/healthz").status, 200);

    let wrong_method = get(server.addr, "/v1/synthesize");
    assert_eq!(wrong_method.status, 405);
    assert!(
        wrong_method
            .body
            .starts_with(r#"{"error":{"code":"method_not_allowed""#),
        "{}",
        wrong_method.body
    );

    // 504 carries the partial-progress stage inside the envelope.
    let late = post(
        server.addr,
        "/v1/synthesize",
        &format!(
            r#"{{"source":{:?},"config":{{"fus":2}},"deadline_ms":1,"test_delay_ms":50}}"#,
            hls_workloads::sources::SQRT
        ),
    );
    assert_eq!(late.status, 504, "body: {}", late.body);
    assert!(
        late.body
            .starts_with(r#"{"error":{"code":"deadline_exceeded""#),
        "{}",
        late.body
    );
    assert!(late.body.contains(r#""stage":"#), "{}", late.body);

    // Errors before routing use the envelope too.
    let too_large = roundtrip(
        server.addr,
        "POST /v1/synthesize HTTP/1.1\r\nHost: t\r\nContent-Length: 2000000\r\n\r\n",
    );
    assert_eq!(too_large.status, 413, "body: {}", too_large.body);
    assert!(
        too_large
            .body
            .starts_with(r#"{"error":{"code":"payload_too_large""#),
        "{}",
        too_large.body
    );
    let bad_version = roundtrip(server.addr, "GET /v1/healthz HTTP/2.0\r\nHost: t\r\n\r\n");
    assert_eq!(bad_version.status, 400, "body: {}", bad_version.body);
    assert!(
        bad_version
            .body
            .starts_with(r#"{"error":{"code":"bad_request""#),
        "{}",
        bad_version.body
    );

    let metrics = get(server.addr, "/v1/metrics");
    assert_eq!(metrics.status, 200);
    for needle in [
        "hls_requests_total{endpoint=\"healthz\",status=\"200\"}",
        "hls_requests_total{endpoint=\"unknown\",status=\"404\"}",
        "hls_requests_total{endpoint=\"unknown\",status=\"413\"}",
        "hls_request_duration_seconds_bucket",
        "hls_queue_depth_high_water",
    ] {
        assert!(
            metrics.body.contains(needle),
            "missing {needle} in: {}",
            metrics.body
        );
    }
    server.stop();
}

#[test]
fn v1_shed_reports_retry_after_in_both_units() {
    let server = TestServer::start(ServerConfig {
        threads: 1,
        queue: 1,
        retry_after_ms: 2500,
        allow_test_delay: true,
        ..ServerConfig::default()
    });
    let slow_body = format!(
        r#"{{"source":{:?},"config":{{"fus":2}},"test_delay_ms":600}}"#,
        hls_workloads::sources::SQRT
    );
    let addr = server.addr;
    let slow = std::thread::spawn(move || post(addr, "/v1/synthesize", &slow_body));
    std::thread::sleep(Duration::from_millis(150));

    let shed = post(
        server.addr,
        "/v1/synthesize",
        &synthesize_body(hls_workloads::sources::GCD, 2),
    );
    assert_eq!(shed.status, 503, "body: {}", shed.body);
    // Seconds header is the ceiling of the millisecond value — the two
    // must agree in *unit*, not just both exist.
    assert_eq!(
        shed.headers.get("retry-after").map(String::as_str),
        Some("3")
    );
    assert_eq!(
        shed.headers.get("retry-after-ms").map(String::as_str),
        Some("2500")
    );
    assert!(
        shed.body.contains(r#""retry_after_ms":2500"#),
        "{}",
        shed.body
    );
    assert!(
        shed.body.starts_with(r#"{"error":{"code":"overloaded""#),
        "{}",
        shed.body
    );
    slow.join().expect("slow client");
    server.stop();
}

#[test]
fn batch_streams_records_in_seq_order_with_summary() {
    let server = TestServer::start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let body = batch_body(hls_workloads::sources::SQRT);

    let (status, headers, lines) = post_ndjson(server.addr, "/v1/batch", &body);
    assert_eq!(status, 200, "lines: {lines:?}");
    assert!(
        headers
            .iter()
            .any(|(k, v)| k == "content-type" && v == "application/x-ndjson"),
        "headers: {headers:?}"
    );
    assert_eq!(lines.len(), 5, "4 grid points + summary: {lines:?}");
    for (i, line) in lines[..4].iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"seq\":{i},\"cache_hit\":")),
            "record {i} out of order: {line}"
        );
        assert!(line.contains(r#""point":"#), "{line}");
        assert!(line.contains(r#""result":"#), "{line}");
        assert!(line.contains(r#""latency":"#), "{line}");
    }
    let summary = &lines[4];
    assert!(
        summary.starts_with(r#"{"summary":{"points":4,"ok":4,"errors":0,"cache_hits":0"#),
        "{summary}"
    );
    assert!(summary.contains(r#""pareto":"#), "{summary}");

    // A repeat of the same batch is all cache hits and otherwise
    // byte-identical, line for line.
    let (_, _, warm) = post_ndjson(server.addr, "/v1/batch", &body);
    assert_eq!(warm.len(), 5);
    for (cold_line, warm_line) in lines[..4].iter().zip(&warm[..4]) {
        assert!(
            warm_line.contains("\"cache_hit\":true"),
            "repeat batch must hit: {warm_line}"
        );
        assert_eq!(mask_cache_hit(cold_line), mask_cache_hit(warm_line));
    }
    assert!(
        warm[4].starts_with(r#"{"summary":{"points":4,"ok":4,"errors":0,"cache_hits":4"#),
        "{}",
        warm[4]
    );

    // And a second warm run is byte-identical to the first, whole-stream.
    let (_, _, warm2) = post_ndjson(server.addr, "/v1/batch", &body);
    assert_eq!(warm, warm2, "warm batch streams must be byte-stable");
    server.stop();
}

#[test]
fn batch_with_blown_deadline_yields_error_records() {
    let server = TestServer::start(ServerConfig {
        threads: 1,
        cache_capacity: 0,
        allow_test_delay: true,
        ..ServerConfig::default()
    });
    let body = format!(
        r#"{{"source":{:?},"grid":{{"fus":[1,2]}},"deadline_ms":1,"test_delay_ms":50}}"#,
        hls_workloads::sources::SQRT
    );
    let (status, _, lines) = post_ndjson(server.addr, "/v1/batch", &body);
    assert_eq!(status, 200, "stream already started: {lines:?}");
    assert_eq!(lines.len(), 3, "{lines:?}");
    for line in &lines[..2] {
        assert!(
            line.contains(r#""error":{"code":"deadline_exceeded""#),
            "{line}"
        );
    }
    assert!(
        lines[2].starts_with(r#"{"summary":{"points":2,"ok":0,"errors":2"#),
        "{}",
        lines[2]
    );
    server.stop();
}

#[test]
fn batch_survives_a_slow_reader() {
    let server = TestServer::start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let body = batch_body(hls_workloads::sources::DIFFEQ);
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
        .write_all(
            format!(
                "POST /v1/batch HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("write request");
    let mut reader = hls_serve::http::ChunkedLineReader::start(stream).expect("head");
    assert_eq!(reader.head.0, 200);
    let mut lines = Vec::new();
    while let Some(line) = reader.next_line().expect("line") {
        lines.push(line);
        // Dawdle between reads: the server must keep the stream alive
        // and deliver every record regardless of client pacing.
        std::thread::sleep(Duration::from_millis(100));
    }
    assert_eq!(lines.len(), 5, "{lines:?}");
    assert!(lines[4].contains("\"summary\""), "{}", lines[4]);
    server.stop();
}

#[test]
fn batch_client_disconnect_cancels_the_batch() {
    let server = TestServer::start(ServerConfig {
        threads: 2,
        cache_capacity: 0,
        allow_test_delay: true,
        ..ServerConfig::default()
    });
    let body = format!(
        r#"{{"source":{:?},"grid":{{"fus":[1,2,3],"algorithms":["asap","list/path"]}},"test_delay_ms":200}}"#,
        hls_workloads::sources::SQRT
    );
    {
        let mut stream = TcpStream::connect(server.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        stream
            .write_all(
                format!(
                    "POST /v1/batch HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .expect("write request");
        let mut reader = hls_serve::http::ChunkedLineReader::start(stream).expect("head");
        assert_eq!(reader.head.0, 200);
        // Read one record, then vanish mid-stream.
        let first = reader.next_line().expect("first line");
        assert!(first.is_some());
    } // drop = disconnect (unread data pending → RST on next write)

    // The server notices on its next emit, cancels the remaining points,
    // and counts the cancellation.
    let mut cancelled = 0u64;
    for _ in 0..100 {
        let metrics = get(server.addr, "/v1/metrics");
        cancelled = metrics
            .body
            .lines()
            .find_map(|l| l.strip_prefix("hls_serve_batch_cancelled_total "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        if cancelled >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    assert_eq!(cancelled, 1, "disconnect must cancel the batch");

    // The server still serves normally afterwards.
    let after = post(
        server.addr,
        "/v1/synthesize",
        &synthesize_body(hls_workloads::sources::GCD, 2),
    );
    assert_eq!(after.status, 200, "{}", after.body);
    server.stop();
}

#[test]
fn batch_rejects_bad_requests_before_streaming() {
    let server = TestServer::start(ServerConfig::default());
    let no_points = post(
        server.addr,
        "/v1/batch",
        r#"{"source":"x = 1;","points":[]}"#,
    );
    assert_eq!(no_points.status, 422, "{}", no_points.body);
    assert!(
        no_points
            .body
            .starts_with(r#"{"error":{"code":"unprocessable""#),
        "{}",
        no_points.body
    );

    let dup = post(
        server.addr,
        "/v1/batch",
        r#"{"source":"x = 1;","points":[{"seq":1,"fus":2},{"seq":1,"fus":3}]}"#,
    );
    assert_eq!(dup.status, 422, "duplicate seqs: {}", dup.body);

    let unversioned = post(server.addr, "/batch", r#"{}"#);
    assert_eq!(unversioned.status, 404, "{}", unversioned.body);
    server.stop();
}

/// `/v1/explore` with `"prune":true`: the pruned sweep's pareto front is
/// byte-identical to the exhaustive sweep's, the response carries
/// `prune_stats` with full agreement, and the pruned-point counter moves.
#[test]
fn pruned_explore_matches_exhaustive_pareto_and_reports_stats() {
    let server = TestServer::start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let grid = r#"{"fus":[1,2,3,4],"algorithms":["asap","list/path","list/urgency"],"controls":["hardwired/binary","microcode"]}"#;
    let exhaustive = post(
        server.addr,
        "/v1/explore",
        &format!(
            r#"{{"source":{:?},"grid":{grid}}}"#,
            hls_workloads::sources::SQRT
        ),
    );
    assert_eq!(exhaustive.status, 200, "{}", exhaustive.body);
    let pruned = post(
        server.addr,
        "/v1/explore",
        &format!(
            r#"{{"source":{:?},"grid":{grid},"prune":true}}"#,
            hls_workloads::sources::SQRT
        ),
    );
    assert_eq!(pruned.status, 200, "{}", pruned.body);

    // Both bodies render the front under the same `"pareto":[…]` key.
    let front = |body: &str| {
        let start = body.find("\"pareto\":[").expect("pareto member");
        let rest = &body[start..];
        let end = rest.find("],").expect("pareto end");
        rest[..=end].to_string()
    };
    assert_eq!(
        front(&exhaustive.body),
        front(&pruned.body),
        "pruned front must equal the exhaustive front byte-for-byte"
    );
    assert!(
        pruned.body.contains("\"prune_stats\":{\"estimated\":24,"),
        "{}",
        pruned.body
    );
    assert!(
        pruned.body.contains("\"agreement\":1"),
        "estimator self-check must hold: {}",
        pruned.body
    );
    assert!(
        !exhaustive.body.contains("prune_stats"),
        "exhaustive body shape must not change: {}",
        exhaustive.body
    );

    // Pruned and exhaustive responses cache under different keys.
    let again = post(
        server.addr,
        "/v1/explore",
        &format!(
            r#"{{"source":{:?},"grid":{grid},"prune":true}}"#,
            hls_workloads::sources::SQRT
        ),
    );
    assert!(
        again.body.starts_with("{\"cache_hit\":true,"),
        "{}",
        again.body
    );
    assert_eq!(
        mask_cache_hit(&again.body),
        mask_cache_hit(&pruned.body),
        "warm pruned response must be byte-stable"
    );

    let metrics = get(server.addr, "/v1/metrics");
    let total: u64 = metrics
        .body
        .lines()
        .find_map(|l| l.strip_prefix("hls_serve_points_pruned_total "))
        .expect("pruned counter")
        .trim()
        .parse()
        .expect("counter value");
    assert!(total > 0, "control-collapsed grid must prune: {total}");
    server.stop();
}

/// `/v1/batch` with `"prune":true`: pruned seqs stream back as
/// `{"seq":k,"pruned":true,…}` records, the summary carries the pruned
/// count, and every seq is accounted for exactly once.
#[test]
fn pruned_batch_streams_pruned_records_and_summary() {
    let server = TestServer::start(ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    });
    let body = format!(
        r#"{{"source":{:?},"grid":{{"fus":[1,2],"algorithms":["asap","list/path"],"controls":["hardwired/binary","microcode"]}},"prune":true}}"#,
        hls_workloads::sources::SQRT
    );
    let (status, _, lines) = post_ndjson(server.addr, "/v1/batch", &body);
    assert_eq!(status, 200);
    assert_eq!(lines.len(), 9, "8 records + summary: {lines:?}");
    let pruned = lines
        .iter()
        .filter(|l| l.contains("\"pruned\":true"))
        .count();
    let ok = lines.iter().filter(|l| l.contains("\"result\":")).count();
    assert!(pruned > 0, "control-collapsed grid must prune: {lines:?}");
    assert_eq!(ok + pruned, 8, "every seq resolves once: {lines:?}");
    let summary = lines.last().expect("summary line");
    assert!(
        summary.contains(&format!(
            "\"ok\":{ok},\"errors\":0,\"cache_hits\":0,\"pruned\":{pruned}"
        )),
        "{summary}"
    );
    assert!(summary.contains("\"pareto\":["), "{summary}");

    // Same grid without pruning: the summary pareto front is identical.
    let exhaustive_body = format!(
        r#"{{"source":{:?},"grid":{{"fus":[1,2],"algorithms":["asap","list/path"],"controls":["hardwired/binary","microcode"]}}}}"#,
        hls_workloads::sources::SQRT
    );
    let (_, _, exhaustive) = post_ndjson(server.addr, "/v1/batch", &exhaustive_body);
    let pareto = |line: &str| {
        let start = line.find("\"pareto\":[").expect("pareto member");
        line[start..].to_string()
    };
    assert_eq!(
        pareto(summary),
        pareto(exhaustive.last().expect("summary")),
        "pruned batch front must equal the exhaustive front"
    );
    server.stop();
}
