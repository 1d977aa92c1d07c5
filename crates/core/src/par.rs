//! Re-export of the shared work-stealing pool.
//!
//! The pool originally lived here; it moved to the `hls-par` crate when
//! the hierarchical force-directed scheduler (`hls-sched`, which
//! `hls-core` depends on) needed to fan independent dependence
//! components across the same workers. This module keeps the historical
//! `hls_core::par` path working for existing callers (`hls-serve`, the
//! explorer, examples).

pub use hls_par::{default_threads, lock, shared, ThreadPool};
