//! The `hls-serve` binary: synthesis as a service.
//!
//! ```text
//! hls-serve [ADDR]                          # single-process worker
//! hls-serve --front --workers N [ADDR]      # front + N spawned workers
//! hls-serve --front --worker-addrs A,B [ADDR]  # front over existing workers
//! ```
//!
//! Configuration comes from environment variables (see
//! [`hls_serve::ServerConfig::from_env`]): `HLS_SERVE_ADDR`,
//! `HLS_SERVE_THREADS`, `HLS_SERVE_QUEUE`, `HLS_SERVE_DEADLINE_MS`,
//! `HLS_SERVE_CACHE`, `HLS_SERVE_RETRY_AFTER_MS`. A positional `ADDR`
//! argument overrides `HLS_SERVE_ADDR`.
//!
//! In `--front` mode the process owns the public listener and routes
//! requests over the workers by consistent-hashing the cdfg×config
//! fingerprint (see [`hls_serve::shard`]). `--workers N` spawns N
//! worker children of this same binary on ephemeral ports;
//! `--worker-addrs` points at externally managed workers instead.
//!
//! Shutdown paths, all of them draining in-flight requests first:
//! SIGTERM or SIGINT (via the self-pipe in `hls_serve::signal`), or
//! end-of-file on stdin (portable fallback, also handy under a
//! supervisor that closes the child's stdin to stop it). A front that
//! spawned its own workers drains them the same way on exit.

use std::io::Read;

use hls_serve::shard::{self, Front, FrontConfig};
use hls_serve::{signal, Server, ServerConfig};

fn usage() {
    eprintln!("usage: hls-serve [--front (--workers N | --worker-addrs A,B,...)] [ADDR]");
    eprintln!("env: HLS_SERVE_ADDR HLS_SERVE_THREADS HLS_SERVE_QUEUE");
    eprintln!("     HLS_SERVE_DEADLINE_MS HLS_SERVE_CACHE HLS_SERVE_RETRY_AFTER_MS");
}

struct Args {
    front: bool,
    workers: usize,
    worker_addrs: Vec<String>,
    addr: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        front: false,
        workers: 0,
        worker_addrs: Vec::new(),
        addr: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                usage();
                std::process::exit(0);
            }
            "--front" => args.front = true,
            "--workers" => {
                let n = it.next().ok_or("--workers needs a count")?;
                args.workers = n.parse().map_err(|_| format!("bad worker count {n:?}"))?;
            }
            "--worker-addrs" => {
                let list = it.next().ok_or("--worker-addrs needs a list")?;
                args.worker_addrs = list
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
            }
            other if !other.starts_with('-') && args.addr.is_none() => {
                args.addr = Some(other.to_string());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.front && args.workers == 0 && args.worker_addrs.is_empty() {
        return Err("--front needs --workers N or --worker-addrs".into());
    }
    if !args.front && (args.workers > 0 || !args.worker_addrs.is_empty()) {
        return Err("--workers/--worker-addrs only make sense with --front".into());
    }
    Ok(args)
}

/// Blocks the calling thread until stdin hits EOF, then shuts down.
fn shutdown_on_stdin_eof(shutdown: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .name("hls-serve-stdin".into())
        .spawn(move || {
            let mut sink = [0u8; 256];
            let mut stdin = std::io::stdin();
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
            shutdown();
        })
        .expect("spawn stdin watcher");
}

fn run_front(args: Args, config: ServerConfig) -> std::io::Result<()> {
    // Workers inherit the env-derived knobs; spawned ones get their own
    // ephemeral ports via HLS_SERVE_ADDR set by `spawn_worker`.
    let mut spawned = Vec::new();
    let worker_addrs = if args.worker_addrs.is_empty() {
        let exe = std::env::current_exe()?;
        spawned = shard::spawn_workers(&exe, args.workers, &[])?;
        spawned.iter().map(|w| w.addr.clone()).collect()
    } else {
        args.worker_addrs
    };
    let front = Front::bind(FrontConfig::from_server(&config, worker_addrs.clone()))?;
    eprintln!(
        "hls-serve front listening on {} ({} shard workers: {})",
        front.local_addr(),
        worker_addrs.len(),
        worker_addrs.join(", "),
    );
    let handle = front.handle();
    if signal::drain_on_termination(handle.clone()) {
        eprintln!("hls-serve front: SIGTERM/SIGINT will drain and exit");
    }
    shutdown_on_stdin_eof(move || handle.shutdown());
    front.run()?;
    // Dropping the spawned workers closes their stdin → they drain too.
    drop(spawned);
    eprintln!("hls-serve front: drained, bye");
    Ok(())
}

fn run_worker(config: ServerConfig) -> std::io::Result<()> {
    let server = Server::bind(config.clone())?;
    eprintln!(
        "hls-serve listening on {} ({} workers, queue {}, deadline {:?}, cache {})",
        server.local_addr(),
        config.threads,
        config.queue,
        config.deadline,
        config.cache_capacity,
    );
    let handle = server.handle();
    if signal::drain_on_termination(handle.clone()) {
        eprintln!("hls-serve: SIGTERM/SIGINT will drain and exit");
    }
    shutdown_on_stdin_eof(move || handle.shutdown());
    server.run()?;
    eprintln!("hls-serve: drained, bye");
    Ok(())
}

fn main() -> std::io::Result<()> {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("hls-serve: {msg}");
            usage();
            std::process::exit(2);
        }
    };
    let mut config = ServerConfig::from_env();
    if let Some(addr) = &args.addr {
        config.addr = addr.clone();
    }
    if args.front {
        run_front(args, config)
    } else {
        run_worker(config)
    }
}
