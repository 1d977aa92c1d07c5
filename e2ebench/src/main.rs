//! End-to-end benchmark of the HLS flow.
//!
//! ```text
//! hls-e2ebench --workload <synth-hardwired|explore-sweep|serve-mixed>
//!              --seed <n> --seconds <s> --trace <0|1>
//! hls-e2ebench --smoke
//! ```
//!
//! One process runs one workload. With `--trace 0` it measures the
//! end-to-end metrics of `BENCHMARK.json` with no tracing at all; with
//! `--trace 1` it pairs every operation with a stage-by-stage replay
//! through each crate's public functions and reports the per-layer
//! metrics instead. The last line of standard output is one JSON object
//! `{"correct","attempted","failed","metrics"}`; the lines before it
//! (prefixed `#`) name the host, the tail percentile and the within-run
//! spread. `--smoke` runs all three workloads, both modes, at tiny sizes.
//!
//! Inputs come only from the in-repo seeded generators
//! (`hls_fuzz::gen::generate_bsl`, `hls_workloads::sources`), so the same
//! seed gives the same inputs.

mod explore;
mod replay;
mod serve;
mod stats;
mod synth;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use hls_core::Synthesizer;
use hls_fuzz::corpus::{Case, Mode};
use hls_workloads::sources;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("design_latency_steps", "steps"),
    ("design_area_ge", "GE"),
    ("control_literals", "count"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload never
/// calls reads 0 there (for example `ctrl.microcode_ms` on
/// `synth-hardwired`, or every `serve.*` metric off `serve-mixed`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.compile_ms", "ms"),
    ("lang.cdfg_ops", "count"),
    ("opt.optimize_ms", "ms"),
    ("opt.ops_removed", "count"),
    ("sched.bounds_ms", "ms"),
    ("sched.schedule_ms", "ms"),
    ("alloc.datapath_ms", "ms"),
    ("alloc.netlist_ms", "ms"),
    ("alloc.registers", "count"),
    ("alloc.mux_inputs", "count"),
    ("ctrl.fsm_ms", "ms"),
    ("ctrl.logic_ms", "ms"),
    ("ctrl.microcode_ms", "ms"),
    ("ctrl.states", "count"),
    ("ctrl.terms", "count"),
    ("rtl.area_ms", "ms"),
    ("rtl.verilog_ms", "ms"),
    ("rtl.verilog_kb", "KiB"),
    ("core.result_ms", "ms"),
    ("core.fingerprint_ms", "ms"),
    ("core.estimate_ms", "ms"),
    ("core.sweep_ms", "ms"),
    ("core.points_synthesized", "count"),
    ("core.points_pruned_pct", "%"),
    ("core.pool_efficiency_pct", "%"),
    ("serve.json_parse_us", "us"),
    ("serve.request_decode_us", "us"),
    ("serve.response_encode_us", "us"),
    ("serve.cache_us", "us"),
    ("serve.http_us", "us"),
    ("serve.hit_latency_p50_ms", "ms"),
    ("serve.miss_latency_p50_ms", "ms"),
    ("serve.cache_hit_pct", "%"),
    ("serve.queue_high_water", "count"),
    ("serve.shed_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

/// Span name → per-layer metric and the factor from seconds to its unit.
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    ("lang.compile", "lang.compile_ms", 1e3),
    ("opt.optimize", "opt.optimize_ms", 1e3),
    ("sched.bounds", "sched.bounds_ms", 1e3),
    ("sched.schedule", "sched.schedule_ms", 1e3),
    ("alloc.datapath", "alloc.datapath_ms", 1e3),
    ("alloc.netlist", "alloc.netlist_ms", 1e3),
    ("ctrl.fsm", "ctrl.fsm_ms", 1e3),
    ("ctrl.logic", "ctrl.logic_ms", 1e3),
    ("ctrl.microcode", "ctrl.microcode_ms", 1e3),
    ("rtl.area", "rtl.area_ms", 1e3),
    ("rtl.verilog", "rtl.verilog_ms", 1e3),
    ("core.result", "core.result_ms", 1e3),
    ("core.fingerprint", "core.fingerprint_ms", 1e3),
    ("core.estimate", "core.estimate_ms", 1e3),
    ("serve.json_parse", "serve.json_parse_us", 1e6),
    ("serve.request_decode", "serve.request_decode_us", 1e6),
    ("serve.response_encode", "serve.response_encode_us", 1e6),
    ("serve.cache", "serve.cache_us", 1e6),
];

/// Per-operation counters reported as their median over operations.
const COUNT_METRICS: &[&str] = &[
    "lang.cdfg_ops",
    "opt.ops_removed",
    "alloc.registers",
    "alloc.mux_inputs",
    "ctrl.states",
    "ctrl.terms",
    "rtl.verilog_kb",
    "core.points_synthesized",
    "core.points_pruned_pct",
];

pub const WORKLOADS: &[&str] = &["synth-hardwired", "explore-sweep", "serve-mixed"];

/// Input sizes; `FULL` is what the benchmark measures, `SMOKE` only
/// proves in seconds that every path runs and every check passes.
pub struct Sizes {
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
    pub synth_programs: usize,
    pub synth_stmts: usize,
    pub explore_programs: usize,
    pub explore_stmts: usize,
    /// Statement range of the seeded `serve-mixed` programs.
    pub serve_stmts: (usize, usize),
    /// Seeded programs per connection whose results the design metrics sum.
    pub serve_quality: usize,
    /// Answered programs per connection that repeats are drawn from.
    pub serve_recent: usize,
}

pub const FULL: Sizes = Sizes {
    setup_reps: 15,
    synth_programs: 24,
    synth_stmts: 512,
    explore_programs: 64,
    explore_stmts: 128,
    serve_stmts: (16, 48),
    serve_quality: 64,
    serve_recent: 128,
};

pub const SMOKE: Sizes = Sizes {
    setup_reps: 3,
    synth_programs: 3,
    synth_stmts: 48,
    explore_programs: 2,
    explore_stmts: 24,
    serve_stmts: (8, 16),
    serve_quality: 4,
    serve_recent: 16,
};

/// One run's settings.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back for printing.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failures that belong to no single operation (paper numbers, trace
    /// coverage).
    pub errors: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 20 {
            eprintln!("check failed: {msg}");
        }
        self.errors.push(msg);
    }

    /// Records `setup_s`, the median of the set-up repetitions' times.
    pub fn setup(&mut self, times: &[f64]) {
        self.set("setup_s", stats::median(times));
        self.notes.push(format!(
            "setup_s over {} repetitions: min {:.6} s, max {:.6} s",
            times.len(),
            stats::percentile(times, 0.0),
            stats::percentile(times, 100.0)
        ));
    }

    /// Records the latency, throughput and memory metrics of a timed phase.
    pub fn timing(&mut self, lat_s: &[f64], throughput: f64) {
        let ms: Vec<f64> = lat_s.iter().map(|s| s * 1e3).collect();
        let (p, tail, n) = stats::tail(&ms);
        self.set("latency_p50_ms", stats::median(&ms));
        self.set("latency_tail_ms", tail);
        self.set("throughput_ops_s", throughput);
        self.set("peak_rss_mb", stats::peak_rss_mb());
        self.notes.push(format!(
            "latency_tail_ms is p{p} of {n} samples; within-run IQR/median of latency {:.4}",
            stats::rel_iqr(&ms)
        ));
    }

    /// Records the per-layer metrics of a trace: self times, counters,
    /// coverage and the recorded spans' file.
    pub fn layers(&mut self, t: &trace::Tracer, workload: &str, seed: u64) {
        let s = t.summarize();
        for &(span, metric, scale) in SPAN_METRICS {
            self.set(metric, s.self_median(span) * scale);
        }
        for &c in COUNT_METRICS {
            self.set(c, s.count_median(c));
        }
        self.set("trace.coverage_pct", s.coverage * 100.0);
        if s.coverage < 0.9 {
            self.error(format!(
                "spans cover only {:.1}% of traced operation time",
                s.coverage * 100.0
            ));
        }
        let totals = s.totals();
        let all: f64 = totals.values().sum();
        let mut shares: Vec<(&str, f64)> = totals.into_iter().collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        let top: Vec<String> = shares
            .iter()
            .take(6)
            .map(|(k, v)| format!("{k} {:.1}%", 100.0 * v / all.max(f64::MIN_POSITIVE)))
            .collect();
        self.notes
            .push(format!("self-time shares: {}", top.join(", ")));
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
        match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, t.to_jsonl())) {
            Ok(()) => self
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => self.notes.push(format!("spans not written: {e}")),
        }
    }
}

/// Runs the set-up `f` `reps` times and returns the last result with
/// every repetition's wall time in seconds.
pub fn setup_times<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), times)
}
/// Seed of the fixed warm-up input every set-up ends with. It does not
/// depend on `--seed`, so set-up time measures the same work in every run.
pub const WARMUP_SEED: u64 = 0x5EED_0000_0000;

/// The seeded straight-line BSL program `k` of a workload.
pub fn program(seed: u64, k: u64, stmts: usize, window: usize) -> String {
    let mut rng = hls_testkit::SplitMix64::new(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let case = Case::new(Mode::Bsl, rng.next_u64(), stmts, 4, window);
    hls_fuzz::gen::generate_bsl(&case)
}

/// Input range for co-simulating a named paper program, or the range
/// the fuzzer uses for generated programs.
pub fn cosim_range(src: &str) -> (f64, f64) {
    match src {
        s if s == sources::SQRT => (0.05, 1.0),
        s if s == sources::GCD => (1.0, 64.0),
        s if s == sources::DIFFEQ => (0.1, 0.9),
        s if s == sources::FIR4 => (-2.0, 2.0),
        s if s == sources::SUMSQ => (1.0, 15.0),
        _ => (1.0, 8.0),
    }
}

/// Co-simulates a design against the behavioral interpreter.
pub fn cosim(r: &hls_core::SynthesisResult, src: &str) -> Result<(), String> {
    let eq = r
        .verify(3, cosim_range(src))
        .map_err(|e| format!("co-simulation error: {e}"))?;
    if eq.equivalent {
        Ok(())
    } else {
        Err(format!("co-simulation mismatch: {:?}", eq.mismatch))
    }
}

/// The paper's hand-written step counts for SQRT: 10 with the default
/// flow, 23 unoptimized on one FU.
pub fn paper_numbers(rep: &mut Report) {
    let check = || -> Result<(), String> {
        let r = Synthesizer::new()
            .synthesize_source(sources::SQRT)
            .map_err(|e| e.to_string())?;
        if r.latency != 10 {
            return Err(format!(
                "SQRT default flow: {} steps, paper says 10",
                r.latency
            ));
        }
        cosim(&r, sources::SQRT)?;
        let r = Synthesizer::new()
            .without_optimization()
            .universal_fus(1)
            .synthesize_source(sources::SQRT)
            .map_err(|e| e.to_string())?;
        if r.latency != 23 {
            return Err(format!(
                "SQRT unoptimized on 1 FU: {} steps, paper says 23",
                r.latency
            ));
        }
        Ok(())
    };
    if let Err(e) = check() {
        rep.error(e);
    }
}

fn run(workload: &str, o: &Opts, sz: &Sizes) -> Report {
    let mut rep = match workload {
        "synth-hardwired" => synth::run(o, sz),
        "explore-sweep" => explore::run(o, sz),
        "serve-mixed" => serve::run(o, sz),
        other => unreachable!("workload {other} was validated"),
    };
    paper_numbers(&mut rep);
    rep
}

/// Prints a report; returns whether it passed every check.
fn print(workload: &str, o: &Opts, rep: &Report) -> bool {
    println!(
        "# workload={workload} seed={} seconds={} trace={}",
        o.seed, o.seconds, o.trace as u8
    );
    println!("# host {}", stats::host());
    println!("# why: {}", why(workload));
    for n in &rep.notes {
        println!("# {n}");
    }
    let table = if o.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let v = rep.values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    let correct = rep.errors.is_empty() && rep.failed == 0 && rep.attempted > 0;
    let attempted = rep.attempted.max(1);
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{},\"metrics\":{{{}}}}}",
        rep.failed.min(attempted),
        metrics.join(",")
    );
    correct
}

/// Why each workload is in the benchmark and which layers it loads.
pub fn why(workload: &str) -> &'static str {
    match workload {
        "synth-hardwired" => synth::WHY,
        "explore-sweep" => explore::WHY,
        "serve-mixed" => serve::WHY,
        _ => "",
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: hls-e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       hls-e2ebench --smoke",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        let mut ok = true;
        for w in WORKLOADS {
            for trace in [false, true] {
                let o = Opts {
                    seed: 1,
                    seconds: 0.5,
                    trace,
                };
                let rep = run(w, &o, &SMOKE);
                ok &= print(w, &o, &rep);
            }
        }
        return exit_code(ok);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage();
    }
    let o = Opts {
        seed,
        seconds,
        trace,
    };
    let rep = run(&workload, &o, &FULL);
    exit_code(print(&workload, &o, &rep))
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
