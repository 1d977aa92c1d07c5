//! Replays every minimized case in `tests/corpus/` (repo root) under
//! `cargo test`, so each bug the fuzzer ever found stays fixed.

use std::path::PathBuf;

use hls_fuzz::corpus::Case;
use hls_fuzz::{quiet_panics, run_case};

fn corpus_dir() -> PathBuf {
    // crates/fuzz -> repo root -> tests/corpus
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/corpus")
        .canonicalize()
        .expect("tests/corpus exists at the repo root")
}

#[test]
fn corpus_replays_clean() {
    let _quiet = quiet_panics();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("read corpus dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    entries.sort();
    assert!(
        !entries.is_empty(),
        "corpus is empty — every fuzzer-found bug should leave a .case file"
    );
    let mut failures = Vec::new();
    for path in &entries {
        let case = Case::load(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let violations = run_case(&case);
        if !violations.is_empty() {
            failures.push(format!(
                "{}: {}",
                path.display(),
                violations
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "regressed corpus cases:\n{}",
        failures.join("\n")
    );
}

#[test]
fn corpus_files_are_canonical() {
    // Each committed case must round-trip through the parser, so a hand
    // edit that breaks replayability is caught here, not at triage time.
    for path in std::fs::read_dir(corpus_dir())
        .expect("read corpus dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
    {
        let case = Case::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let reparsed = Case::parse(&case.render()).expect("render/parse roundtrip");
        assert_eq!(
            case,
            reparsed,
            "{}: not canonical under render/parse",
            path.display()
        );
    }
}

/// Strength reduction rewrites `A0 * 4` into a `<<` whose id is higher
/// than the `>>` that reads it. Branch-and-bound must resolve the two
/// free shifts in topological order, not id order (it used to panic on
/// the missing `<<` step).
#[test]
fn bb_resolves_free_shifts_in_topological_order() {
    use hls_core::Synthesizer;
    use hls_sched::{Algorithm, Priority, ResourceLimits};

    let src = "program m;
input A0;
output Y;
var T2;
begin
  T2 := A0 * 4;
  Y := (T2 >> 2) + A0;
end.";
    let bb = Synthesizer::new()
        .algorithm(Algorithm::BranchAndBound {
            node_budget: 2_000_000,
        })
        .synthesize_source(src)
        .expect("branch-and-bound synthesizes");
    let limits = ResourceLimits::universal(2);
    for block in bb.cdfg.block_order() {
        let schedule = bb.schedule.block(block).expect("every block scheduled");
        schedule
            .validate(&bb.cdfg.block(block).dfg, &bb.classifier, &limits)
            .expect("valid schedule");
    }
    let list = Synthesizer::new()
        .algorithm(Algorithm::List(Priority::PathLength))
        .synthesize_source(src)
        .expect("list scheduling synthesizes");
    assert!(
        bb.latency <= list.latency,
        "bb {} vs list {}",
        bb.latency,
        list.latency
    );
}
