//! The `hls-loadgen` binary: a concurrent closed-loop client for
//! `hls-serve`.
//!
//! ```text
//! hls-loadgen ADDR [REQUESTS] [CLIENTS] [--batch-smoke]
//! ```
//!
//! `CLIENTS` workers each run a closed loop: take the next request index
//! from a shared counter, fire it, wait for the full response, repeat.
//! Requests rotate deterministically through a fixed template mix
//! (`/v1/synthesize` on three workloads × several configurations, plus
//! `/v1/explore` grids), so every template repeats many times across the
//! run — and because the service contract says responses are pure
//! functions of requests, the tool fingerprints every response body per
//! template (minus its `cache_hit` flag) and fails loudly when two
//! repeats ever disagree (whether they were served from cache or
//! freshly synthesized).
//!
//! A `503` answer is back-off-and-retry, honoring `Retry-After-Ms`
//! when present (exact milliseconds), the envelope's `retry_after_ms`,
//! or falling back to `Retry-After` seconds. Sheds are reported
//! separately from hard errors. Exit status is nonzero when any hard
//! error or byte mismatch occurred.
//!
//! `--batch-smoke` runs a different check instead of the closed loop:
//! it POSTs one `/v1/batch` sweep twice, verifies the NDJSON stream is
//! well-formed (every seq present exactly once, ascending, summary
//! last) and that the two response bodies are byte-identical.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hls_serve::http::{read_response, ClientResponse};

/// One request template: an endpoint path and a fixed JSON body.
struct Template {
    path: &'static str,
    body: String,
    label: String,
}

fn templates() -> Vec<Template> {
    let sqrt = hls_workloads::sources::SQRT;
    let diffeq = hls_workloads::sources::DIFFEQ;
    let gcd = hls_workloads::sources::GCD;
    let mut out = Vec::new();
    for (name, source, fus, algorithm) in [
        ("sqrt/1fu", sqrt, 1, "list/path"),
        ("sqrt/2fu", sqrt, 2, "list/path"),
        ("sqrt/asap", sqrt, 2, "asap"),
        ("diffeq/2fu", diffeq, 2, "list/path"),
        ("diffeq/3fu", diffeq, 3, "list/urgency"),
        ("gcd/2fu", gcd, 2, "list/path"),
    ] {
        out.push(Template {
            path: "/v1/synthesize",
            body: format!(
                r#"{{"source":{source:?},"config":{{"fus":{fus},"algorithm":{algorithm:?}}}}}"#
            ),
            label: format!("synthesize:{name}"),
        });
    }
    for (name, source, max_fus) in [("sqrt", sqrt, 3), ("diffeq", diffeq, 2)] {
        let fus: Vec<String> = (1..=max_fus).map(|n| n.to_string()).collect();
        out.push(Template {
            path: "/v1/explore",
            body: format!(
                r#"{{"source":{source:?},"grid":{{"fus":[{}],"algorithms":["asap","list/path"]}}}}"#,
                fus.join(",")
            ),
            label: format!("explore:{name}"),
        });
    }
    out
}

/// The backoff to sleep after a 503, in milliseconds. Prefers the exact
/// `Retry-After-Ms` header (or the envelope's `retry_after_ms`, passed
/// in by the caller), falls back to `Retry-After` seconds, and scales
/// down so a loadgen run doesn't stall: the server's hint is for polite
/// clients, a load generator only needs to desynchronize.
fn backoff_ms(retry_after_ms: Option<u64>, retry_after_secs: Option<u64>) -> u64 {
    let hinted = retry_after_ms
        .or(retry_after_secs.map(|s| s * 1000))
        .unwrap_or(1000);
    // 1/20th of the hint, clamped to [10ms, 2s]: same shape the old
    // seconds-based sleep had (50ms per hinted second).
    (hinted / 20).clamp(10, 2000)
}

/// Pulls `retry_after_ms` out of an error envelope body, if present.
fn envelope_retry_after_ms(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let key = "\"retry_after_ms\":";
    let at = text.find(key)? + key.len();
    let rest = &text[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The backoff hint of a 503 reply, in milliseconds.
fn reply_backoff_ms(r: &ClientResponse) -> u64 {
    let header = |name: &str| r.header(name).and_then(|v| v.parse().ok());
    backoff_ms(
        header("retry-after-ms").or(envelope_retry_after_ms(&r.body)),
        header("retry-after"),
    )
}

/// Fires one request and reads the whole close-delimited response.
fn fire(addr: &str, path: &str, body: &str) -> Result<ClientResponse, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: hls\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    read_response(&mut stream).map_err(|e| format!("read: {e}"))
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut w = hls_testkit::FnvWriter::new();
    w.update(bytes);
    w.finish()
}

/// Shared run statistics.
#[derive(Default)]
struct Stats {
    ok: AtomicU64,
    hard_errors: AtomicU64,
    sheds: AtomicU64,
    cache_hits: AtomicU64,
    mismatches: AtomicU64,
    /// Per-template digest of the first 200 response; later repeats must
    /// match it byte-for-byte.
    digests: Mutex<Vec<Option<u64>>>,
    /// Latencies in nanoseconds (collected per completed request).
    latencies: Mutex<Vec<u64>>,
}

fn percentile(sorted: &[u64], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    Duration::from_nanos(sorted[idx])
}

/// `--batch-smoke`: one `/v1/batch` sweep, POSTed twice; checks NDJSON
/// shape and byte-identity of the two streams. Returns process exit
/// status.
fn batch_smoke(addr: &str) -> i32 {
    let source = hls_workloads::sources::SQRT;
    let body = format!(
        r#"{{"source":{source:?},"grid":{{"fus":[1,2,3,4],"algorithms":["asap","list/path"]}}}}"#
    );
    // Warm the worker caches first: the compared runs must both be
    // warm, since `cache_hit` flips between a cold and a warm run.
    if let Err(e) = fire(addr, "/v1/batch", &body) {
        eprintln!("batch-smoke (warmup): {e}");
        return 1;
    }
    let mut first: Option<Vec<u8>> = None;
    for round in 0..2 {
        let reply = match fire(addr, "/v1/batch", &body) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("batch-smoke: {e}");
                return 1;
            }
        };
        if reply.status != 200 {
            eprintln!(
                "batch-smoke: HTTP {} ({})",
                reply.status,
                String::from_utf8_lossy(&reply.body)
            );
            return 1;
        }
        let text = String::from_utf8_lossy(&reply.body).into_owned();
        let lines: Vec<&str> = text.lines().collect();
        let (records, summary) = match lines.split_last() {
            Some((last, init)) if last.contains("\"summary\"") => (init, *last),
            _ => {
                eprintln!("batch-smoke: stream does not end with a summary line");
                return 1;
            }
        };
        let mut seqs = Vec::new();
        for line in records {
            let Some(rest) = line.strip_prefix("{\"seq\":") else {
                eprintln!("batch-smoke: bad record line {line:?}");
                return 1;
            };
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            match digits.parse::<u64>() {
                Ok(s) => seqs.push(s),
                Err(_) => {
                    eprintln!("batch-smoke: bad seq in {line:?}");
                    return 1;
                }
            }
        }
        let expect: Vec<u64> = (0..seqs.len() as u64).collect();
        if seqs != expect {
            eprintln!("batch-smoke: seqs {seqs:?} not 0..{}", seqs.len());
            return 1;
        }
        eprintln!(
            "batch-smoke round {round}: {} records in seq order, summary {summary}",
            seqs.len()
        );
        match &first {
            None => first = Some(reply.body),
            Some(prev) if *prev != reply.body => {
                eprintln!("batch-smoke: second stream differs byte-wise from the first");
                return 1;
            }
            Some(_) => eprintln!("batch-smoke: streams byte-identical across runs"),
        }
    }
    0
}

const USAGE: &str = "usage: hls-loadgen ADDR [REQUESTS] [CLIENTS] [--batch-smoke]";

fn main() {
    let mut addr = None;
    let mut positional: Vec<String> = Vec::new();
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "-h" | "--help" => {
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
            "--batch-smoke" => smoke = true,
            other if addr.is_none() => addr = Some(other.to_string()),
            other => positional.push(other.to_string()),
        }
    }
    let Some(addr) = addr else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    if smoke {
        std::process::exit(batch_smoke(&addr));
    }
    let total: usize = positional
        .first()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let clients: usize = positional.get(1).and_then(|v| v.parse().ok()).unwrap_or(8);

    let templates = Arc::new(templates());
    let stats = Arc::new(Stats {
        digests: Mutex::new(vec![None; templates.len()]),
        ..Stats::default()
    });
    let next = Arc::new(AtomicUsize::new(0));

    eprintln!(
        "hls-loadgen: {total} requests, {clients} clients, {} templates, target {addr}",
        templates.len()
    );
    let started = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|_| {
            let templates = Arc::clone(&templates);
            let stats = Arc::clone(&stats);
            let next = Arc::clone(&next);
            let addr = addr.clone();
            std::thread::spawn(move || loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= total {
                    return;
                }
                let t = &templates[i % templates.len()];
                let req_started = Instant::now();
                let mut attempts = 0;
                let reply = loop {
                    match fire(&addr, t.path, &t.body) {
                        Ok(r) if r.status == 503 && attempts < 10 => {
                            attempts += 1;
                            stats.sheds.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(reply_backoff_ms(&r)));
                        }
                        other => break other,
                    }
                };
                match reply {
                    Ok(r) if r.status == 200 => {
                        stats.ok.fetch_add(1, Ordering::Relaxed);
                        if r.body.starts_with(b"{\"cache_hit\":true") {
                            stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                        }
                        // The cache_hit field flips between first hit and
                        // later repeats; mask it out of the digest so the
                        // identity check sees only the payload.
                        let canon = String::from_utf8_lossy(&r.body)
                            .replace("\"cache_hit\":true", "\"cache_hit\":_")
                            .replace("\"cache_hit\":false", "\"cache_hit\":_");
                        let digest = fnv(canon.as_bytes());
                        let mut digests = stats.digests.lock().unwrap();
                        match digests[i % templates.len()] {
                            None => digests[i % templates.len()] = Some(digest),
                            Some(expect) if expect != digest => {
                                drop(digests);
                                stats.mismatches.fetch_add(1, Ordering::Relaxed);
                                eprintln!("BYTE MISMATCH on template {}", t.label);
                            }
                            Some(_) => {}
                        }
                        stats
                            .latencies
                            .lock()
                            .unwrap()
                            .push(req_started.elapsed().as_nanos() as u64);
                    }
                    Ok(r) => {
                        stats.hard_errors.fetch_add(1, Ordering::Relaxed);
                        eprintln!(
                            "ERROR: {} -> HTTP {} ({})",
                            t.label,
                            r.status,
                            String::from_utf8_lossy(&r.body)
                        );
                    }
                    Err(e) => {
                        stats.hard_errors.fetch_add(1, Ordering::Relaxed);
                        eprintln!("ERROR: {} -> {e}", t.label);
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    let elapsed = started.elapsed();

    let ok = stats.ok.load(Ordering::Relaxed);
    let errors = stats.hard_errors.load(Ordering::Relaxed);
    let sheds = stats.sheds.load(Ordering::Relaxed);
    let hits = stats.cache_hits.load(Ordering::Relaxed);
    let mismatches = stats.mismatches.load(Ordering::Relaxed);
    let mut lat = stats.latencies.lock().unwrap().clone();
    lat.sort_unstable();
    println!("requests    {ok} ok, {errors} errors, {sheds} 503-retries, {hits} cache hits");
    println!(
        "throughput  {:.0} req/s ({} in {:.2?})",
        ok as f64 / elapsed.as_secs_f64(),
        ok,
        elapsed
    );
    println!(
        "latency     p50 {:?}  p95 {:?}  p99 {:?}  max {:?}",
        percentile(&lat, 0.50),
        percentile(&lat, 0.95),
        percentile(&lat, 0.99),
        percentile(&lat, 1.0),
    );
    println!(
        "byte-identity  {} templates, {mismatches} mismatches",
        templates.len()
    );
    if errors > 0 || mismatches > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_prefers_exact_ms_over_seconds() {
        // Retry-After-Ms wins; Retry-After seconds is the fallback.
        assert_eq!(backoff_ms(Some(1000), Some(7)), 50);
        assert_eq!(backoff_ms(None, Some(1)), 50);
        // The old bug: treating seconds as milliseconds would give a
        // 1000× shorter sleep. Seconds scale through ×1000 first.
        assert_eq!(backoff_ms(None, Some(2)), 100);
        assert_eq!(backoff_ms(Some(2), None), 10); // clamped floor
        assert_eq!(backoff_ms(Some(600_000), None), 2000); // clamped ceiling
        assert_eq!(backoff_ms(None, None), 50); // default 1s hint
    }

    #[test]
    fn envelope_retry_after_ms_parses_v1_errors() {
        let body = br#"{"error":{"code":"overloaded","message":"x","retry_after_ms":1500}}"#;
        assert_eq!(envelope_retry_after_ms(body), Some(1500));
        assert_eq!(envelope_retry_after_ms(b"{}"), None);
    }
}
