//! End-to-end tests for the shard front: a real front listener over
//! real workers — in-process [`hls_serve::Server`] instances for the
//! routing/affinity tests, actual `hls-serve` child processes for the
//! worker-kill test (only a killed *process* exercises the dead-worker
//! re-hash the way production does), and scripted fake workers for
//! malformed sub-batch streams.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::time::Duration;

use hls_serve::shard::{self, Front, FrontConfig};
use hls_serve::{Server, ServerConfig, ServerHandle};

/// A front over in-process workers, all driven by test threads.
struct Cluster {
    front_addr: SocketAddr,
    front: ServerHandle,
    workers: Vec<ServerHandle>,
    runners: Vec<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Cluster {
    fn start(n: usize, worker_config: ServerConfig) -> Self {
        let mut workers = Vec::new();
        let mut runners = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..n {
            let mut config = worker_config.clone();
            config.addr = "127.0.0.1:0".into();
            let server = Server::bind(config).expect("bind worker");
            addrs.push(server.local_addr().to_string());
            workers.push(server.handle());
            runners.push(std::thread::spawn(move || server.run()));
        }
        let front = Front::bind(FrontConfig {
            addr: "127.0.0.1:0".into(),
            workers: addrs,
            threads: 2,
            queue: 32,
            deadline: Duration::from_secs(30),
            retry_after_ms: 1000,
        })
        .expect("bind front");
        let front_addr = front.local_addr();
        let handle = front.handle();
        runners.push(std::thread::spawn(move || front.run()));
        Cluster {
            front_addr,
            front: handle,
            workers,
            runners,
        }
    }

    fn stop(mut self) {
        self.front.shutdown();
        for w in &self.workers {
            w.shutdown();
        }
        for r in self.runners.drain(..) {
            r.join().expect("runner thread").expect("runner result");
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
        .set_read_timeout(Some(Duration::from_secs(30)))
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

/// Streams a `/v1/batch` POST through the front, returning the lines.
fn post_ndjson(addr: SocketAddr, body: &str) -> (u16, Vec<String>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
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
    let status = reader.head.0;
    let mut lines = Vec::new();
    while let Some(line) = reader.next_line().expect("line") {
        lines.push(line);
    }
    (status, lines)
}

fn synthesize_body(source: &str, fus: u32) -> String {
    format!(r#"{{"source":{source:?},"config":{{"fus":{fus},"algorithm":"list/path"}}}}"#)
}

#[test]
fn front_proxies_routes_and_aggregates_health() {
    let cluster = Cluster::start(2, ServerConfig::default());

    // A synthesize request proxied through the front behaves exactly
    // like one against a worker.
    let body = synthesize_body(hls_workloads::sources::SQRT, 2);
    let v1 = post(cluster.front_addr, "/v1/synthesize", &body);
    assert_eq!(v1.status, 200, "body: {}", v1.body);
    assert!(v1.body.starts_with("{\"cache_hit\":false,"), "{}", v1.body);
    let names: Vec<&str> = v1.headers.keys().map(String::as_str).collect();
    assert_eq!(names, ["connection", "content-length", "content-type"]);

    // Cache affinity: the repeat routes to the same worker and hits.
    let again = post(cluster.front_addr, "/v1/synthesize", &body);
    assert!(
        again.body.starts_with("{\"cache_hit\":true,"),
        "repeat must hit the owning worker's cache: {}",
        again.body
    );

    // Health aggregation across both workers.
    let health = get(cluster.front_addr, "/v1/healthz");
    assert_eq!(health.status, 200, "{}", health.body);
    assert!(health.body.contains(r#""status":"ok""#), "{}", health.body);
    assert_eq!(health.body.matches(r#""alive":true"#).count(), 2);

    // The front's own metrics carry the per-worker routing counter.
    let metrics = get(cluster.front_addr, "/v1/metrics");
    assert_eq!(metrics.status, 200);
    assert!(
        metrics
            .body
            .contains("hls_serve_shard_requests_total{worker="),
        "metrics: {}",
        metrics.body
    );
    let routed: u64 = metrics
        .body
        .lines()
        .filter_map(|l| l.strip_prefix("hls_serve_shard_requests_total{worker="))
        .filter_map(|l| l.split("} ").nth(1))
        .filter_map(|v| v.trim().parse::<u64>().ok())
        .sum();
    assert_eq!(routed, 2, "two proxied requests: {}", metrics.body);

    // One route table and one error envelope, as on a worker.
    let not_found = |reply: &Reply, what: &str| {
        assert_eq!(reply.status, 404, "{what}: {}", reply.body);
        assert!(
            reply.body.starts_with(r#"{"error":{"code":"not_found""#),
            "{what}: {}",
            reply.body
        );
    };
    not_found(&get(cluster.front_addr, "/v1/nowhere"), "GET /v1/nowhere");
    for path in ["/synthesize", "/explore", "/batch"] {
        not_found(&post(cluster.front_addr, path, &body), path);
    }
    for path in ["/healthz", "/metrics"] {
        not_found(&get(cluster.front_addr, path), path);
    }
    let too_large = roundtrip(
        cluster.front_addr,
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
    let bad_version = roundtrip(
        cluster.front_addr,
        "GET /v1/healthz HTTP/2.0\r\nHost: t\r\n\r\n",
    );
    assert_eq!(bad_version.status, 400, "body: {}", bad_version.body);
    assert!(
        bad_version
            .body
            .starts_with(r#"{"error":{"code":"bad_request""#),
        "{}",
        bad_version.body
    );
    cluster.stop();
}

#[test]
fn front_batch_has_cache_affinity_and_no_duplicate_synthesis() {
    let cluster = Cluster::start(2, ServerConfig::default());
    let body = format!(
        r#"{{"source":{:?},"grid":{{"fus":[1,2,3,4],"algorithms":["asap","list/path"]}}}}"#,
        hls_workloads::sources::SQRT
    );

    // Cold batch: 8 points, all misses, records in seq order.
    let (status, cold) = post_ndjson(cluster.front_addr, &body);
    assert_eq!(status, 200, "{cold:?}");
    assert_eq!(cold.len(), 9, "8 records + summary: {cold:?}");
    for (i, line) in cold[..8].iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"seq\":{i},\"cache_hit\":false,")),
            "cold record {i}: {line}"
        );
    }
    assert!(
        cold[8].starts_with(r#"{"summary":{"points":8,"ok":8,"errors":0,"cache_hits":0"#),
        "{}",
        cold[8]
    );

    // Every point was synthesized exactly once *across the cluster*:
    // per-worker miss counters sum to 8 — no cross-worker duplicates —
    // and both workers did some of the work.
    let mut misses = Vec::new();
    for w in &cluster.workers {
        let (_, miss, _) = w.metrics().batch_point_totals();
        misses.push(miss);
    }
    assert_eq!(
        misses.iter().sum::<u64>(),
        8,
        "per-worker misses {misses:?}"
    );
    assert!(
        misses.iter().all(|&m| m > 0),
        "both workers must take part of the grid: {misses:?}"
    );

    // Warm batch: same grid, every point hits the cache of the worker
    // that owns it (affinity), zero fresh synthesis anywhere.
    let (_, warm) = post_ndjson(cluster.front_addr, &body);
    assert_eq!(warm.len(), 9);
    for line in &warm[..8] {
        assert!(
            line.contains("\"cache_hit\":true"),
            "warm batch must be all hits: {line}"
        );
    }
    assert!(
        warm[8].starts_with(r#"{"summary":{"points":8,"ok":8,"errors":0,"cache_hits":8"#),
        "{}",
        warm[8]
    );
    let after: u64 = cluster
        .workers
        .iter()
        .map(|w| w.metrics().batch_point_totals().1)
        .sum();
    assert_eq!(after, 8, "warm batch must not re-synthesize anywhere");

    // Two warm runs are byte-identical, line for line.
    let (_, warm2) = post_ndjson(cluster.front_addr, &body);
    assert_eq!(warm, warm2, "front batch streams must be byte-stable");
    cluster.stop();
}

#[test]
fn front_batch_accepts_explicit_points_and_rejects_junk() {
    let cluster = Cluster::start(2, ServerConfig::default());
    let body = format!(
        r#"{{"source":{:?},"points":[{{"seq":7,"fus":2}},{{"seq":3,"fus":1}}]}}"#,
        hls_workloads::sources::GCD
    );
    let (status, lines) = post_ndjson(cluster.front_addr, &body);
    assert_eq!(status, 200, "{lines:?}");
    assert_eq!(lines.len(), 3, "{lines:?}");
    // Explicit seqs stream in ascending seq order regardless of the
    // order they were given or which worker computed them.
    assert!(lines[0].starts_with("{\"seq\":3,"), "{}", lines[0]);
    assert!(lines[1].starts_with("{\"seq\":7,"), "{}", lines[1]);
    assert!(lines[2].contains("\"summary\""), "{}", lines[2]);

    let bad = post(cluster.front_addr, "/v1/batch", r#"{"source":"x = 1;"}"#);
    assert_eq!(bad.status, 422, "{}", bad.body);
    assert!(
        bad.body.starts_with(r#"{"error":{"code":"unprocessable""#),
        "{}",
        bad.body
    );
    cluster.stop();
}

/// Spawns real `hls-serve` worker processes for the kill test.
fn spawn_real_workers(n: usize) -> Vec<shard::SpawnedWorker> {
    let exe = Path::new(env!("CARGO_BIN_EXE_hls-serve"));
    shard::spawn_workers(exe, n, &[("HLS_SERVE_ALLOW_TEST_DELAY".into(), "1".into())])
        .expect("spawn workers")
}

#[test]
fn front_rehashes_batch_when_a_worker_dies_midstream() {
    let mut workers = spawn_real_workers(2);
    let addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    let front = Front::bind(FrontConfig {
        addr: "127.0.0.1:0".into(),
        workers: addrs,
        threads: 2,
        queue: 32,
        deadline: Duration::from_secs(60),
        retry_after_ms: 1000,
    })
    .expect("bind front");
    let front_addr = front.local_addr();
    let handle = front.handle();
    let runner = std::thread::spawn(move || front.run());

    // A 12-point batch paced at 150 ms/point: slow enough that killing a
    // worker half a second in strands points mid-flight.
    let body = format!(
        r#"{{"source":{:?},"grid":{{"fus":[1,2,3],"algorithms":["asap","list/path"],"controls":["hardwired/binary","microcode"]}},"test_delay_ms":150}}"#,
        hls_workloads::sources::SQRT
    );
    let killer = {
        let mut victim = workers.remove(0);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(500));
            victim.kill();
        })
    };
    let (status, lines) = post_ndjson(front_addr, &body);
    killer.join().expect("killer thread");
    assert_eq!(status, 200, "{lines:?}");
    assert_eq!(lines.len(), 13, "12 records + summary: {lines:?}");
    // Every seq is accounted for, in order, and none was abandoned as
    // upstream_unavailable — the survivor absorbed the stranded points.
    for (i, line) in lines[..12].iter().enumerate() {
        assert!(line.starts_with(&format!("{{\"seq\":{i},")), "{line}");
        assert!(
            !line.contains("upstream_unavailable"),
            "point {i} must re-hash to the survivor, not be dropped: {line}"
        );
    }
    assert!(
        lines[12].contains(r#""errors":0"#),
        "all points must complete on the survivor: {}",
        lines[12]
    );

    // Health now reports the dead worker.
    let health = get(front_addr, "/v1/healthz");
    assert!(
        health.body.contains(r#""status":"degraded""#),
        "{}",
        health.body
    );
    assert_eq!(health.body.matches(r#""alive":false"#).count(), 1);

    // Kill the survivor too: single requests now shed with 503.
    for w in &mut workers {
        w.kill();
    }
    let down = post(
        front_addr,
        "/v1/synthesize",
        &synthesize_body(hls_workloads::sources::GCD, 2),
    );
    assert_eq!(down.status, 503, "{}", down.body);
    assert!(
        down.body.starts_with(r#"{"error":{"code":"overloaded""#),
        "{}",
        down.body
    );
    assert!(down.body.contains("retry_after_ms"), "{}", down.body);

    handle.shutdown();
    runner.join().expect("front thread").expect("front run");
}

/// A pruned batch through the front: the prune flag reaches the workers,
/// pruned records stream back in seq order and count as delivered (no
/// re-dispatch), and the front summary carries the pruned count.
#[test]
fn front_batch_passes_the_prune_flag_through() {
    let cluster = Cluster::start(2, ServerConfig::default());
    let body = format!(
        r#"{{"source":{:?},"grid":{{"fus":[1,2],"algorithms":["asap","list/path"],"controls":["hardwired/binary","microcode"]}},"prune":true}}"#,
        hls_workloads::sources::SQRT
    );
    let (status, lines) = post_ndjson(cluster.front_addr, &body);
    assert_eq!(status, 200, "{lines:?}");
    assert_eq!(lines.len(), 9, "8 records + summary: {lines:?}");
    let pruned = lines
        .iter()
        .filter(|l| l.contains("\"pruned\":true"))
        .count();
    let ok = lines.iter().filter(|l| l.contains("\"result\":")).count();
    assert!(pruned > 0, "control-collapsed grid must prune: {lines:?}");
    assert_eq!(ok + pruned, 8, "every seq resolves once: {lines:?}");
    for (i, line) in lines[..8].iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"seq\":{i},")),
            "records stream in seq order: {line}"
        );
    }
    assert!(
        lines[8].contains(&format!(
            "\"errors\":0,\"cache_hits\":0,\"pruned\":{pruned}"
        )),
        "{}",
        lines[8]
    );
    cluster.stop();
}

/// Sends a two-point batch (seqs 0 and 1) through a front whose only
/// worker is a scripted stand-in that answers every sub-batch with the
/// same NDJSON `script`, and checks that every requested seq comes back
/// exactly once and that the summary counts add up.
fn two_point_batch_through(script: &'static [&'static str]) -> (Vec<String>, String) {
    let fake = TcpListener::bind("127.0.0.1:0").expect("bind fake worker");
    let worker = fake.local_addr().expect("fake worker addr");
    // Serves until a connection closes without sending a request.
    let fake = std::thread::spawn(move || {
        for stream in fake.incoming() {
            let Ok(mut stream) = stream else { return };
            if hls_serve::http::read_request(&mut stream).is_err() {
                return;
            }
            let _ = hls_serve::http::start_chunked(&mut stream, 200, "application/x-ndjson", &[]);
            for line in script {
                let _ = hls_serve::http::write_chunk(&mut stream, format!("{line}\n").as_bytes());
            }
            let _ = hls_serve::http::finish_chunked(&mut stream);
        }
    });
    let front = Front::bind(FrontConfig {
        addr: "127.0.0.1:0".into(),
        workers: vec![worker.to_string()],
        threads: 2,
        queue: 32,
        deadline: Duration::from_secs(30),
        retry_after_ms: 1000,
    })
    .expect("bind front");
    let front_addr = front.local_addr();
    let handle = front.handle();
    let runner = std::thread::spawn(move || front.run());
    let body = format!(
        r#"{{"source":{:?},"points":[{{"seq":0,"fus":1}},{{"seq":1,"fus":2}}]}}"#,
        hls_workloads::sources::SQRT
    );
    let (status, mut lines) = post_ndjson(front_addr, &body);
    handle.shutdown();
    runner.join().expect("front thread").expect("front run");
    drop(TcpStream::connect(worker));
    fake.join().expect("fake worker thread");
    assert_eq!(status, 200, "{lines:?}");
    let summary = lines.pop().expect("summary line");
    for seq in [0, 1] {
        let prefix = format!("{{\"seq\":{seq},");
        assert_eq!(
            lines.iter().filter(|l| l.starts_with(&prefix)).count(),
            1,
            "seq {seq} must appear exactly once: {lines:?}"
        );
    }
    assert_eq!(lines.len(), 2, "{lines:?}");
    let count = |key: &str| -> u64 {
        let at = summary
            .find(&format!("\"{key}\":"))
            .unwrap_or_else(|| panic!("no {key} in {summary}"))
            + key.len()
            + 3;
        summary[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("count")
    };
    assert_eq!(count("points"), 2, "{summary}");
    assert_eq!(count("ok") + count("errors"), 2, "{summary}");
    (lines, summary)
}

const POINT_0: &str = r#"{"seq":0,"cache_hit":false,"point":{"fus":1,"algorithm":"list/path","control":"hardwired/binary"},"result":{"latency":23,"area":100,"registers":3,"mux_inputs":4}}"#;
const POINT_1: &str = r#"{"seq":1,"cache_hit":false,"point":{"fus":2,"algorithm":"list/path","control":"hardwired/binary"},"result":{"latency":10,"area":200,"registers":3,"mux_inputs":4}}"#;

#[test]
fn front_ignores_a_seq_it_never_sent() {
    let (lines, summary) = two_point_batch_through(&[
        r#"{"seq":99,"cache_hit":false,"point":{"fus":1,"algorithm":"asap","control":"hardwired/binary"},"result":{"latency":5,"area":1,"registers":1,"mux_inputs":1}}"#,
        r#"{"summary":{"points":1,"ok":1,"errors":0,"cache_hits":0,"pareto":[]}}"#,
    ]);
    // The worker never answered either point the front sent it, so both
    // end as error records once the dispatch rounds run out.
    for line in &lines {
        assert!(line.contains("\"error\":"), "{line}");
    }
    assert!(summary.contains("\"ok\":0,\"errors\":2"), "{summary}");
}

#[test]
fn front_counts_a_repeated_record_once() {
    let (lines, summary) = two_point_batch_through(&[
        POINT_0,
        POINT_0,
        POINT_1,
        r#"{"summary":{"points":2,"ok":3,"errors":0,"cache_hits":0,"pareto":[]}}"#,
    ]);
    assert_eq!(lines, [POINT_0, POINT_1]);
    assert!(summary.contains("\"ok\":2,\"errors\":0"), "{summary}");
}
