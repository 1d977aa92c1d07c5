//! # hls-serve — synthesis as a service
//!
//! The first system layer of the reproduction: an HTTP/1.1 server,
//! built entirely on `std::net`, that puts the whole DAC'88 flow
//! (BSL → CDFG → schedule → allocate → control → RTL) behind a
//! programmatic request interface.
//!
//! | Endpoint               | Meaning                                          |
//! |------------------------|--------------------------------------------------|
//! | `POST /v1/synthesize`  | BSL source + config → design summary (+ Verilog) |
//! | `POST /v1/explore`     | grid sweep over FU count × algorithm × control   |
//! | `POST /v1/batch`       | sweep grid → NDJSON stream, one line per point   |
//! | `GET /v1/healthz`      | liveness probe                                   |
//! | `GET /v1/metrics`      | Prometheus text metrics                          |
//!
//! Any other path answers 404. The API uses snake_case throughout, a
//! single error envelope `{"error":{"code","message","stage"?}}` on
//! every error, and a `cache_hit` body field that says whether a 200
//! came from the response cache (see `DESIGN.md` §10).
//!
//! For scale-out, the [`shard`] module adds a front process
//! (`hls-serve --front --workers N`) that consistent-hashes requests
//! over single-process workers — routing on the same cdfg×config
//! fingerprints the workers key their caches on, so cache affinity
//! falls out of the routing.
//!
//! The serving model is deliberately boring, and the worker and the
//! front share all of it: a bounded admission count in front of a
//! work-stealing pool (reused from [`hls_core::par`]), load shedding
//! with `503` + `Retry-After` once the bound is hit, per-request
//! deadlines enforced by [`hls_core::CancelToken`] between pipeline
//! stages, and a graceful drain on shutdown. Responses are
//! deterministic functions of requests, so a content-addressed cache
//! (keyed on behavior × configuration fingerprints) serves byte-exact
//! repeats.
//!
//! ```no_run
//! use hls_serve::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..ServerConfig::default()
//! })?;
//! println!("listening on {}", server.local_addr());
//! let handle = server.handle(); // call handle.shutdown() to drain
//! server.run()?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)] // one exception: the SIGTERM self-pipe in `signal`

pub mod api;
pub mod cache;
pub mod http;
pub mod json;
mod listener;
pub mod metrics;
mod server;
pub mod shard;
pub mod signal;

pub use listener::ServerHandle;
pub use server::{Server, ServerConfig};
