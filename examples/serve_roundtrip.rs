//! Round trip through the synthesis service, in one process.
//!
//! Starts `hls-serve` on an ephemeral port, submits the paper's DIFFEQ
//! benchmark twice (unoptimized single-ALU, then optimized two-FU), and
//! prints the resulting control-step counts — the same numbers the
//! command-line pipeline produces, now arriving over HTTP.
//!
//! Run with `cargo run --example serve_roundtrip`.

use std::io::{Read, Write};
use std::net::TcpStream;

use hls_serve::{Server, ServerConfig};

/// Fires one POST and returns (status, body).
fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: hls\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, payload) = raw.split_once("\r\n\r\n").expect("header terminator");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, payload.to_string())
}

/// Pulls `"key":<integer>` out of a flat JSON response body.
fn field_u64(body: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle).expect("field present") + needle.len();
    body[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("integer field")
}

fn main() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());

    let source = hls_workloads::sources::DIFFEQ;
    let naive = format!(
        r#"{{"source":{source:?},"config":{{"fus":1,"algorithm":"asap","optimize":false}}}}"#
    );
    let tuned = format!(r#"{{"source":{source:?},"config":{{"fus":2,"algorithm":"list/path"}}}}"#);

    let (status, body) = post(addr, "/v1/synthesize", &naive);
    assert_eq!(status, 200, "naive synthesis failed: {body}");
    println!(
        "diffeq, 1 FU, unoptimized: {} control steps",
        field_u64(&body, "latency")
    );

    let (status, body) = post(addr, "/v1/synthesize", &tuned);
    assert_eq!(status, 200, "tuned synthesis failed: {body}");
    println!(
        "diffeq, 2 FUs, optimized:  {} control steps, {} FSM states",
        field_u64(&body, "latency"),
        field_u64(&body, "fsm_states")
    );

    handle.shutdown();
    runner.join().expect("server thread").expect("server run");
    println!("server drained cleanly");
}
