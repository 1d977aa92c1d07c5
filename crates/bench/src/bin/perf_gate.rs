//! The benchmark-regression gate: runs the fixed suite from
//! [`hls_bench::suite`] and records or checks a machine-readable
//! baseline (`BENCH_5.json` at the repository root).
//!
//! * `perf_gate --write <path>` — run the suite and (re)write the baseline.
//!   An existing file's `reference` entries are carried over, so recorded
//!   historical numbers survive regeneration.
//! * `perf_gate --check <path>` — run the suite, print a before/after
//!   table, and exit non-zero when any benchmark regressed more than the
//!   baseline's threshold (calibration-rescaled; see `hls_bench::gate`).
//!   It prints the baseline's and this host's `nproc` and warns when
//!   they differ.
//!
//! Both modes first enforce the scaling checks
//! (`hls_bench::suite::scaling_checks`): the hierarchical scheduler and
//! the microcode field encoder must stay sub-quadratic across their 4×
//! op step, so a baseline can never launder a quadratic regression.
//!
//! Sample counts come from the usual harness knobs (`HLS_BENCH_SAMPLES`,
//! `HLS_BENCH_WARMUP`), so CI can run a short gate while local tuning
//! runs use more samples. Each benchmark records its *median* sample
//! (robust on contended 1-CPU hosts; see `hls_bench::suite::run_suite`),
//! and `HLS_BENCH_TOLERANCE=<pct>` grants extra slack over the
//! baseline's threshold at `--check` time for hosts whose noise survives
//! the calibration rescale.

use std::process::ExitCode;
use std::time::Instant;

use hls_bench::gate::{compare_with, env_tolerance_pct, format_nanos, GateReport};
use hls_bench::suite::{check_scaling, gate_sizes, run_suite, scaling_checks};

fn usage() -> ExitCode {
    eprintln!("usage: perf_gate --write <path> | --check <path>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (mode, path) = match (args.get(1).map(String::as_str), args.get(2)) {
        (Some(mode @ ("--write" | "--check")), Some(path)) if args.len() == 3 => (mode, path),
        _ => return usage(),
    };
    let sizes = gate_sizes();
    let started = Instant::now();
    let mut report = run_suite(&sizes);
    println!(
        "\nsuite finished in {} ({} benchmarks)",
        format_nanos(started.elapsed().as_nanos() as u64),
        report.benchmarks.len()
    );
    // The asymptotic claims are absolute, not baseline-relative: check
    // them before either mode publishes anything.
    let mut scaling_failed = false;
    for (tier, small, large, limit) in scaling_checks(&sizes) {
        match check_scaling(&report, tier, small, large, limit) {
            Ok(ratio) => {
                println!("{tier} scaling {ratio:.2}x from {small} to {large} ops (limit {limit}x)")
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                scaling_failed = true;
            }
        }
    }
    if scaling_failed {
        return ExitCode::FAILURE;
    }
    match mode {
        "--write" => {
            // Keep recorded historical numbers across regenerations.
            if let Ok(old) = std::fs::read_to_string(path) {
                match GateReport::parse(&old) {
                    Ok(old) => report.reference = old.reference,
                    Err(e) => eprintln!("warning: ignoring unparsable {path}: {e}"),
                }
            }
            if let Err(e) = std::fs::write(path, report.to_json()) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("baseline written to {path}");
            ExitCode::SUCCESS
        }
        "--check" => {
            let baseline = match std::fs::read_to_string(path) {
                Ok(text) => match GateReport::parse(&text) {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("error: cannot parse baseline {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                Err(e) => {
                    eprintln!("error: cannot read baseline {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let show = |n: Option<usize>| n.map_or("unrecorded".to_string(), |n| n.to_string());
            println!(
                "nproc: baseline {}, this host {}",
                show(baseline.nproc),
                show(report.nproc)
            );
            if baseline.nproc != report.nproc {
                eprintln!(
                    "warning: the baseline was recorded with a different nproc; \
                     multi-threaded entries are not comparable"
                );
            }
            let tolerance = env_tolerance_pct();
            let outcome = compare_with(&baseline, &report, tolerance);
            println!(
                "\nbenchmark gate vs {path} (threshold {}%{}, calibration {} -> {}):\n",
                baseline.threshold_pct,
                if tolerance > 0.0 {
                    format!(" + {tolerance}% tolerance")
                } else {
                    String::new()
                },
                format_nanos(baseline.calibration_nanos),
                format_nanos(report.calibration_nanos),
            );
            print!("{}", outcome.render_table());
            if outcome.passed() {
                println!("\nbench gate PASSED");
                ExitCode::SUCCESS
            } else {
                println!("\nbench gate FAILED:");
                for f in &outcome.failures {
                    println!("  {f}");
                }
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}
