//! The service metrics registry and its Prometheus text rendering.
//!
//! Counters are plain atomics; the per-(endpoint, status) request counts
//! live behind one mutex because the label set is open-ended. Latency is
//! a fixed-bucket cumulative histogram per endpoint (the Prometheus
//! `le`-labelled form), so `GET /metrics` renders without touching any
//! per-request state.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Histogram bucket upper bounds, in seconds.
const BUCKETS: [f64; 11] = [
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
];

/// Latency histogram for one endpoint: cumulative counts per bucket plus
/// a +Inf bucket, a sum, and a count.
#[derive(Debug, Default)]
struct Histogram {
    /// One counter per entry of [`BUCKETS`], plus the +Inf bucket last.
    buckets: [AtomicU64; BUCKETS.len() + 1],
    /// Total observed time in nanoseconds.
    sum_nanos: AtomicU64,
}

impl Histogram {
    fn observe(&self, d: Duration) {
        let secs = d.as_secs_f64();
        let idx = BUCKETS
            .iter()
            .position(|&le| secs <= le)
            .unwrap_or(BUCKETS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos
            .fetch_add(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    }
}

/// How one batch grid point resolved, for the
/// `hls_serve_batch_points_total` counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchOutcome {
    /// Served from the exploration memo cache.
    Hit,
    /// Synthesized fresh.
    Miss,
    /// Failed (or was cancelled) and streamed as an error record.
    Error,
}

/// The server-wide metrics registry.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests finished, by (endpoint, status).
    requests: Mutex<BTreeMap<(String, u16), u64>>,
    /// Latency histograms for the synthesis endpoints.
    synthesize_latency: Histogram,
    explore_latency: Histogram,
    batch_latency: Histogram,
    /// Requests routed to each shard worker (front process only).
    shard_requests: Mutex<BTreeMap<String, u64>>,
    /// Batch grid points streamed, by outcome (`hit`/`miss`/`error`).
    batch_points_hit: AtomicU64,
    batch_points_miss: AtomicU64,
    batch_points_error: AtomicU64,
    /// Batches cancelled before the summary line (disconnect/deadline).
    batch_cancelled: AtomicU64,
    /// Exploration grid points skipped by the estimator's dominance
    /// pre-pass (never synthesized).
    points_pruned: AtomicU64,
    /// Response-cache outcomes.
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Requests shed with 503 at the accept queue.
    shed: AtomicU64,
    /// Panics caught by the request firewall (answered with 500).
    panics: AtomicU64,
    /// Requests cancelled by their deadline (504).
    deadline_cancelled: AtomicU64,
    /// Current queued + in-flight requests, and its high-water mark.
    queue_depth: AtomicUsize,
    queue_high_water: AtomicUsize,
    /// Cumulative wall-clock time inside each synthesis pipeline stage,
    /// in nanoseconds (schedule, allocate, control, rtl).
    stage_schedule_nanos: AtomicU64,
    stage_alloc_nanos: AtomicU64,
    stage_control_nanos: AtomicU64,
    stage_rtl_nanos: AtomicU64,
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one finished request.
    pub fn observe_request(&self, endpoint: &str, status: u16, elapsed: Duration) {
        *self
            .requests
            .lock()
            .expect("metrics lock")
            .entry((endpoint.to_string(), status))
            .or_insert(0) += 1;
        match endpoint {
            "synthesize" => self.synthesize_latency.observe(elapsed),
            "explore" => self.explore_latency.observe(elapsed),
            "batch" => self.batch_latency.observe(elapsed),
            _ => {}
        }
    }

    /// Records a request the front routed to `worker` (shard index or
    /// address label).
    pub fn shard_request(&self, worker: &str) {
        *self
            .shard_requests
            .lock()
            .expect("metrics lock")
            .entry(worker.to_string())
            .or_insert(0) += 1;
    }

    /// Records one streamed batch point by outcome.
    pub fn batch_point(&self, outcome: BatchOutcome) {
        let c = match outcome {
            BatchOutcome::Hit => &self.batch_points_hit,
            BatchOutcome::Miss => &self.batch_points_miss,
            BatchOutcome::Error => &self.batch_points_error,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a batch aborted before its summary line.
    pub fn batch_cancelled(&self) {
        self.batch_cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` exploration points skipped by the dominance pre-pass.
    pub fn points_pruned(&self, n: u64) {
        self.points_pruned.fetch_add(n, Ordering::Relaxed);
    }

    /// Pruned-point total so far (used by tests).
    pub fn points_pruned_total(&self) -> u64 {
        self.points_pruned.load(Ordering::Relaxed)
    }

    /// Batch point totals so far as (hit, miss, error) (used by tests).
    pub fn batch_point_totals(&self) -> (u64, u64, u64) {
        (
            self.batch_points_hit.load(Ordering::Relaxed),
            self.batch_points_miss.load(Ordering::Relaxed),
            self.batch_points_error.load(Ordering::Relaxed),
        )
    }

    /// Records a response-cache hit.
    pub fn cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a response-cache miss.
    pub fn cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a load-shed (503) decision.
    pub fn shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a deadline cancellation (504).
    pub fn deadline_cancelled(&self) {
        self.deadline_cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a panic caught by the request firewall.
    pub fn panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Accumulates the per-stage pipeline timings of one synthesis run.
    pub fn observe_stages(&self, stages: hls_core::StageNanos) {
        self.stage_schedule_nanos
            .fetch_add(stages.schedule, Ordering::Relaxed);
        self.stage_alloc_nanos
            .fetch_add(stages.allocate, Ordering::Relaxed);
        self.stage_control_nanos
            .fetch_add(stages.control, Ordering::Relaxed);
        self.stage_rtl_nanos
            .fetch_add(stages.rtl, Ordering::Relaxed);
    }

    /// Cumulative time in seconds per stage label, in pipeline order.
    pub fn stage_seconds(&self) -> [(&'static str, f64); 4] {
        [
            ("schedule", &self.stage_schedule_nanos),
            ("alloc", &self.stage_alloc_nanos),
            ("control", &self.stage_control_nanos),
            ("rtl", &self.stage_rtl_nanos),
        ]
        .map(|(stage, nanos)| (stage, nanos.load(Ordering::Relaxed) as f64 / 1e9))
    }

    /// Number of caught panics so far (used by tests).
    pub fn panics_total(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Tracks the accept-queue depth after a request entered the queue,
    /// updating the high-water mark.
    pub fn queue_entered(&self, depth: usize) {
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.queue_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// Tracks the accept-queue depth after a request left the queue.
    pub fn queue_left(&self, depth: usize) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Number of 503-shed requests so far (used by tests).
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Cache (hits, misses) so far.
    pub fn cache_totals(&self) -> (u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
        )
    }

    /// The queue-depth high-water mark so far.
    pub fn queue_high_water(&self) -> usize {
        self.queue_high_water.load(Ordering::Relaxed)
    }

    /// Renders the registry in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("# HELP hls_requests_total Finished requests by endpoint and status.\n");
        out.push_str("# TYPE hls_requests_total counter\n");
        for ((endpoint, status), count) in self.requests.lock().expect("metrics lock").iter() {
            let _ = writeln!(
                out,
                "hls_requests_total{{endpoint=\"{endpoint}\",status=\"{status}\"}} {count}"
            );
        }
        out.push_str(
            "# HELP hls_request_duration_seconds Request latency by endpoint.\n\
             # TYPE hls_request_duration_seconds histogram\n",
        );
        for (endpoint, hist) in [
            ("synthesize", &self.synthesize_latency),
            ("explore", &self.explore_latency),
            ("batch", &self.batch_latency),
        ] {
            let mut cumulative = 0u64;
            for (i, le) in BUCKETS.iter().enumerate() {
                cumulative += hist.buckets[i].load(Ordering::Relaxed);
                let _ = writeln!(
                    out,
                    "hls_request_duration_seconds_bucket{{endpoint=\"{endpoint}\",le=\"{le}\"}} {cumulative}"
                );
            }
            cumulative += hist.buckets[BUCKETS.len()].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "hls_request_duration_seconds_bucket{{endpoint=\"{endpoint}\",le=\"+Inf\"}} {cumulative}"
            );
            let sum = hist.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9;
            let _ = writeln!(
                out,
                "hls_request_duration_seconds_sum{{endpoint=\"{endpoint}\"}} {sum}"
            );
            let _ = writeln!(
                out,
                "hls_request_duration_seconds_count{{endpoint=\"{endpoint}\"}} {cumulative}"
            );
        }
        let (hits, misses) = self.cache_totals();
        let _ = writeln!(
            out,
            "# HELP hls_response_cache_total Response cache lookups by outcome.\n\
             # TYPE hls_response_cache_total counter\n\
             hls_response_cache_total{{outcome=\"hit\"}} {hits}\n\
             hls_response_cache_total{{outcome=\"miss\"}} {misses}"
        );
        let _ = writeln!(
            out,
            "# HELP hls_requests_shed_total Requests rejected with 503 at the accept queue.\n\
             # TYPE hls_requests_shed_total counter\n\
             hls_requests_shed_total {}",
            self.shed_total()
        );
        let _ = writeln!(
            out,
            "# HELP hls_serve_panics_total Panics caught by the request firewall.\n\
             # TYPE hls_serve_panics_total counter\n\
             hls_serve_panics_total {}",
            self.panics_total()
        );
        let _ = writeln!(
            out,
            "# HELP hls_requests_deadline_cancelled_total Requests cancelled by their deadline.\n\
             # TYPE hls_requests_deadline_cancelled_total counter\n\
             hls_requests_deadline_cancelled_total {}",
            self.deadline_cancelled.load(Ordering::Relaxed)
        );
        out.push_str(
            "# HELP hls_serve_stage_seconds_total Wall-clock time inside each synthesis pipeline stage.\n\
             # TYPE hls_serve_stage_seconds_total counter\n",
        );
        for (stage, seconds) in self.stage_seconds() {
            let _ = writeln!(
                out,
                "hls_serve_stage_seconds_total{{stage=\"{stage}\"}} {seconds}"
            );
        }
        {
            let shard = self.shard_requests.lock().expect("metrics lock");
            if !shard.is_empty() {
                out.push_str(
                    "# HELP hls_serve_shard_requests_total Requests routed to each shard worker.\n\
                     # TYPE hls_serve_shard_requests_total counter\n",
                );
                for (worker, count) in shard.iter() {
                    let _ = writeln!(
                        out,
                        "hls_serve_shard_requests_total{{worker=\"{worker}\"}} {count}"
                    );
                }
            }
        }
        let (bhit, bmiss, berr) = self.batch_point_totals();
        let _ = writeln!(
            out,
            "# HELP hls_serve_batch_points_total Batch grid points streamed, by outcome.\n\
             # TYPE hls_serve_batch_points_total counter\n\
             hls_serve_batch_points_total{{outcome=\"hit\"}} {bhit}\n\
             hls_serve_batch_points_total{{outcome=\"miss\"}} {bmiss}\n\
             hls_serve_batch_points_total{{outcome=\"error\"}} {berr}"
        );
        let _ = writeln!(
            out,
            "# HELP hls_serve_batch_cancelled_total Batches aborted before their summary line.\n\
             # TYPE hls_serve_batch_cancelled_total counter\n\
             hls_serve_batch_cancelled_total {}",
            self.batch_cancelled.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# HELP hls_serve_points_pruned_total Exploration points skipped by the estimator's dominance pre-pass.\n\
             # TYPE hls_serve_points_pruned_total counter\n\
             hls_serve_points_pruned_total {}",
            self.points_pruned_total()
        );
        let _ = writeln!(
            out,
            "# HELP hls_queue_depth Queued plus in-flight requests.\n\
             # TYPE hls_queue_depth gauge\n\
             hls_queue_depth {}",
            self.queue_depth.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# HELP hls_queue_depth_high_water Highest queue depth observed.\n\
             # TYPE hls_queue_depth_high_water gauge\n\
             hls_queue_depth_high_water {}",
            self.queue_high_water()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_and_histogram_render() {
        let m = Metrics::new();
        m.observe_request("synthesize", 200, Duration::from_millis(3));
        m.observe_request("synthesize", 200, Duration::from_millis(40));
        m.observe_request("explore", 422, Duration::from_millis(1));
        let text = m.render();
        assert!(text.contains(r#"hls_requests_total{endpoint="synthesize",status="200"} 2"#));
        assert!(text.contains(r#"hls_requests_total{endpoint="explore",status="422"} 1"#));
        // 3ms lands in le=0.005; cumulative buckets keep growing.
        assert!(text.contains(
            r#"hls_request_duration_seconds_bucket{endpoint="synthesize",le="0.005"} 1"#
        ));
        assert!(text
            .contains(r#"hls_request_duration_seconds_bucket{endpoint="synthesize",le="+Inf"} 2"#));
        assert!(text.contains(r#"hls_request_duration_seconds_count{endpoint="synthesize"} 2"#));
    }

    #[test]
    fn queue_high_water_is_monotone() {
        let m = Metrics::new();
        m.queue_entered(3);
        m.queue_entered(7);
        m.queue_left(1);
        m.queue_entered(2);
        assert_eq!(m.queue_high_water(), 7);
        let text = m.render();
        assert!(text.contains("hls_queue_depth 2"));
        assert!(text.contains("hls_queue_depth_high_water 7"));
    }

    #[test]
    fn cache_and_shed_counters() {
        let m = Metrics::new();
        m.cache_hit();
        m.cache_hit();
        m.cache_miss();
        m.shed();
        m.deadline_cancelled();
        m.panic();
        let text = m.render();
        assert!(text.contains(r#"hls_response_cache_total{outcome="hit"} 2"#));
        assert!(text.contains(r#"hls_response_cache_total{outcome="miss"} 1"#));
        assert!(text.contains("hls_requests_shed_total 1"));
        assert!(text.contains("hls_requests_deadline_cancelled_total 1"));
        assert!(text.contains("hls_serve_panics_total 1"));
        assert_eq!(m.panics_total(), 1);
    }

    #[test]
    fn stage_counters_accumulate_and_render() {
        let m = Metrics::new();
        m.observe_stages(hls_core::StageNanos {
            schedule: 2_000_000_000,
            allocate: 500_000_000,
            control: 1_500_000_000,
            rtl: 250_000_000,
        });
        m.observe_stages(hls_core::StageNanos {
            schedule: 1_000_000_000,
            allocate: 0,
            control: 250_000_000,
            rtl: 250_000_000,
        });
        assert_eq!(
            m.stage_seconds(),
            [
                ("schedule", 3.0),
                ("alloc", 0.5),
                ("control", 1.75),
                ("rtl", 0.5)
            ]
        );
        let text = m.render();
        assert!(text.contains(r#"hls_serve_stage_seconds_total{stage="schedule"} 3"#));
        assert!(text.contains(r#"hls_serve_stage_seconds_total{stage="alloc"} 0.5"#));
        assert!(text.contains(r#"hls_serve_stage_seconds_total{stage="control"} 1.75"#));
        assert!(text.contains(r#"hls_serve_stage_seconds_total{stage="rtl"} 0.5"#));
    }

    #[test]
    fn shard_and_batch_counters_render() {
        let m = Metrics::new();
        m.shard_request("0");
        m.shard_request("1");
        m.shard_request("1");
        m.batch_point(BatchOutcome::Hit);
        m.batch_point(BatchOutcome::Miss);
        m.batch_point(BatchOutcome::Miss);
        m.batch_point(BatchOutcome::Error);
        m.batch_cancelled();
        m.points_pruned(3);
        m.points_pruned(2);
        m.observe_request("batch", 200, Duration::from_millis(3));
        let text = m.render();
        assert!(text.contains(r#"hls_serve_shard_requests_total{worker="0"} 1"#));
        assert!(text.contains(r#"hls_serve_shard_requests_total{worker="1"} 2"#));
        assert!(text.contains(r#"hls_serve_batch_points_total{outcome="hit"} 1"#));
        assert!(text.contains(r#"hls_serve_batch_points_total{outcome="miss"} 2"#));
        assert!(text.contains(r#"hls_serve_batch_points_total{outcome="error"} 1"#));
        assert!(text.contains("hls_serve_batch_cancelled_total 1"));
        assert!(text.contains("hls_serve_points_pruned_total 5"));
        assert!(text.contains(r#"hls_request_duration_seconds_count{endpoint="batch"} 1"#));
        assert_eq!(m.batch_point_totals(), (1, 2, 1));
        assert_eq!(m.points_pruned_total(), 5);
    }

    #[test]
    fn shard_section_absent_on_plain_workers() {
        let m = Metrics::new();
        assert!(!m.render().contains("hls_serve_shard_requests_total"));
    }

    #[test]
    fn overflow_bucket_catches_slow_requests() {
        let m = Metrics::new();
        m.observe_request("explore", 200, Duration::from_secs(10));
        let text = m.render();
        assert!(
            text.contains(r#"hls_request_duration_seconds_bucket{endpoint="explore",le="2.5"} 0"#)
        );
        assert!(
            text.contains(r#"hls_request_duration_seconds_bucket{endpoint="explore",le="+Inf"} 1"#)
        );
    }
}
