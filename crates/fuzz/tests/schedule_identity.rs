//! Schedule-identity battery: one FNV digest over every scheduler's
//! output on a fixed graph set, pinned so that a refactor of the
//! scheduling layer cannot move a single op by a single step unnoticed.
//!
//! The digest covers, per (graph, classifier, limits, algorithm) combo,
//! the `(op index, step)` pairs in op order plus the step count, or the
//! `ScheduleError` variant on failure. Transformational scheduling also
//! contributes its serialization moves, sorted by (step, op): that pins
//! which ops were deferred where, but not the interleaving of same-step
//! moves across FU classes, which nothing downstream observes. Chained
//! scheduling contributes the bit patterns of its intra-step start times.
//!
//! Graphs: the classic benchmarks, the tutorial's Figs. 3/5/6, every
//! optimized block of SQRT/GCD/DIFFEQ/FIR4, 32 generated BSL programs
//! (optimized, so strength reduction leaves wired constants and chained
//! free shifts behind) and 32 random DAGs.

use std::fmt::Write as _;

use hls_cdfg::{Cdfg, DataFlowGraph};
use hls_fuzz::corpus::{Case, Mode};
use hls_sched::{
    chained_schedule, schedule_cdfg, schedule_cdfg_cached, transformational_schedule, Algorithm,
    CdfgBoundsCache, DelayModel, FuClass, OpClassifier, Priority, ResourceLimits, Schedule,
    ScheduleError,
};
use hls_testkit::FnvWriter;
use hls_workloads::benchmarks::to_cdfg;
use hls_workloads::random::{random_dag, RandomDagConfig};

/// The digest of the whole battery.
const DIGEST: u64 = 0x6f7a_c9b2_0448_d49a;

/// Branch-and-bound node budget: small enough to keep the battery fast,
/// large enough that most small blocks finish their search.
const BB_BUDGET: u64 = 500;

/// Generated-program (seed, classifier, limits) combos on which
/// branch-and-bound used to panic (a chained-free predecessor resolved
/// before its own chained-free predecessor), left out of the digest;
/// [`bb_no_longer_panics_on_the_skipped_combos`] covers them.
const BB_PANICKED: &[(u64, &str, &str)] = &[
    (0, "free-shifts", "1fu"),
    (0, "typed", "1-per-class"),
    (1, "free-shifts", "1fu"),
    (2, "free-shifts", "1fu"),
    (2, "free-shifts", "2fu"),
    (2, "typed", "1-per-class"),
    (3, "free-shifts", "1fu"),
    (3, "free-shifts", "2fu"),
    (3, "typed", "1-per-class"),
    (5, "free-shifts", "1fu"),
    (5, "free-shifts", "2fu"),
    (5, "typed", "1-per-class"),
    (13, "free-shifts", "1fu"),
    (13, "typed", "1-per-class"),
    (15, "free-shifts", "1fu"),
    (15, "free-shifts", "2fu"),
    (15, "typed", "1-per-class"),
    (17, "free-shifts", "1fu"),
    (17, "free-shifts", "2fu"),
    (17, "typed", "1-per-class"),
    (20, "free-shifts", "1fu"),
    (22, "free-shifts", "1fu"),
    (22, "typed", "1-per-class"),
    (23, "free-shifts", "1fu"),
    (23, "free-shifts", "2fu"),
    (23, "typed", "1-per-class"),
    (29, "free-shifts", "1fu"),
    (29, "free-shifts", "2fu"),
    (29, "typed", "1-per-class"),
    (31, "free-shifts", "1fu"),
    (31, "free-shifts", "2fu"),
    (31, "typed", "1-per-class"),
];

fn classifiers() -> [(&'static str, OpClassifier); 3] {
    [
        ("universal", OpClassifier::universal()),
        ("free-shifts", OpClassifier::universal_free_shifts()),
        ("typed", OpClassifier::typed()),
    ]
}

fn limit_sets() -> [(&'static str, ResourceLimits); 3] {
    let per_class = FuClass::ALL
        .iter()
        .filter(|&&c| c != FuClass::Universal)
        .fold(ResourceLimits::unlimited(), |l, &c| l.with(c, 1));
    [
        ("1fu", ResourceLimits::universal(1)),
        ("2fu", ResourceLimits::universal(2)),
        ("1-per-class", per_class),
    ]
}

/// Algorithms that obey resource limits.
fn resource_constrained() -> Vec<Algorithm> {
    vec![
        Algorithm::Asap,
        Algorithm::Alap { slack: 0 },
        Algorithm::Alap { slack: 2 },
        Algorithm::List(Priority::PathLength),
        Algorithm::List(Priority::Urgency),
        Algorithm::List(Priority::Mobility),
        Algorithm::BranchAndBound {
            node_budget: BB_BUDGET,
        },
        Algorithm::Transformational,
    ]
}

/// Time-constrained algorithms: the FU count is an output, so they run
/// once per classifier.
fn time_constrained() -> Vec<Algorithm> {
    vec![
        Algorithm::ForceDirected { slack: 0 },
        Algorithm::ForceDirected { slack: 2 },
        Algorithm::HierForce {
            slack: 1,
            window: 4,
        },
        Algorithm::FreedomBased { slack: 0 },
        Algorithm::FreedomBased { slack: 2 },
    ]
}

fn bsl_case(seed: u64) -> Case {
    let mut case = Case::new(Mode::Bsl, seed, 48, 3, 6);
    case.shift_pct = 30;
    case
}

fn optimized(src: &str) -> Cdfg {
    let mut cdfg = hls_lang::compile(src).expect("source compiles");
    hls_opt::optimize(&mut cdfg);
    cdfg
}

/// The graph set, each with a label and (for generated programs) the
/// seed `BB_PANICKED` is keyed on.
fn graphs() -> Vec<(String, Option<u64>, Cdfg)> {
    let mut out = Vec::new();
    for (name, g) in hls_workloads::all_benchmarks() {
        out.push((name.to_string(), None, to_cdfg(name, g)));
    }
    let figs = [
        ("fig3", hls_workloads::figures::fig3_graph().0),
        ("fig5", hls_workloads::figures::fig5_graph().0),
        ("fig6", hls_workloads::figures::fig6_graph().0),
    ];
    for (name, g) in figs {
        out.push((name.to_string(), None, to_cdfg(name, g)));
    }
    use hls_workloads::sources::{DIFFEQ, FIR4, GCD, SQRT};
    for (name, src) in [
        ("sqrt", SQRT),
        ("gcd", GCD),
        ("diffeq-src", DIFFEQ),
        ("fir4", FIR4),
    ] {
        out.push((name.to_string(), None, optimized(src)));
    }
    for seed in 0..32u64 {
        let src = hls_fuzz::gen::generate_bsl(&bsl_case(seed));
        out.push((format!("bsl{seed}"), Some(seed), optimized(&src)));
    }
    for seed in 0..32u64 {
        let g = random_dag(&RandomDagConfig {
            ops: 6 + (seed as usize * 7) % 30,
            inputs: 1 + (seed as usize) % 5,
            window: 1 + (seed as usize) % 9,
            mul_ratio: 0.3,
            seed,
        });
        out.push((format!("dag{seed}"), None, to_cdfg("dag", g)));
    }
    out
}

fn record_schedule(w: &mut FnvWriter, dfg: &DataFlowGraph, s: &Schedule) {
    for op in dfg.op_ids() {
        match s.step(op) {
            Some(t) => write!(w, "{}:{t};", op.index()),
            None => write!(w, "{}:-;", op.index()),
        }
        .expect("hashing never fails");
    }
    write!(w, "len{} steps{}|", s.len(), s.num_steps()).expect("hashing never fails");
}

fn record_error(w: &mut FnvWriter, e: &ScheduleError) {
    let debug = format!("{e:?}");
    let variant: String = debug
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric())
        .collect();
    write!(w, "err {variant}|").expect("hashing never fails");
}

fn record_cdfg(
    w: &mut FnvWriter,
    cdfg: &Cdfg,
    result: Result<hls_sched::CdfgSchedule, ScheduleError>,
) {
    match result {
        Ok(s) => {
            for block in cdfg.block_order() {
                match s.block(block) {
                    Some(bs) => record_schedule(w, &cdfg.block(block).dfg, bs),
                    None => w.update(b"missing|"),
                }
            }
        }
        Err(e) => record_error(w, &e),
    }
}

/// Per-combo digests, labelled, in battery order.
fn battery() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let delays = DelayModel::standard();
    for (name, seed, cdfg) in graphs() {
        for (cname, cls) in classifiers() {
            let cache = CdfgBoundsCache::build(&cdfg, &cls).expect("acyclic");
            for (lname, limits) in limit_sets() {
                for alg in resource_constrained() {
                    let bb = matches!(alg, Algorithm::BranchAndBound { .. });
                    if bb && seed.is_some_and(|s| BB_PANICKED.contains(&(s, cname, lname))) {
                        continue;
                    }
                    let mut w = FnvWriter::new();
                    let result = schedule_cdfg_cached(&cdfg, &cls, &limits, alg, &cache);
                    record_cdfg(&mut w, &cdfg, result);
                    out.push((format!("{name}/{cname}/{lname}/{alg:?}"), w.finish()));
                }
                for block in cdfg.block_order() {
                    let dfg = &cdfg.block(block).dfg;
                    let mut w = FnvWriter::new();
                    match transformational_schedule(dfg, &cls, &limits) {
                        Ok((s, moves)) => {
                            record_schedule(&mut w, dfg, &s);
                            let mut moves: Vec<(u32, usize, u32)> =
                                moves.iter().map(|m| (m.from, m.op.index(), m.to)).collect();
                            moves.sort_unstable();
                            for (from, op, to) in moves {
                                write!(w, "{op}:{from}>{to};").expect("hashing never fails");
                            }
                        }
                        Err(e) => record_error(&mut w, &e),
                    }
                    out.push((
                        format!("{name}/{cname}/{lname}/{block:?}/moves"),
                        w.finish(),
                    ));

                    let mut w = FnvWriter::new();
                    match chained_schedule(dfg, &cls, &limits, &delays, 50.0) {
                        Ok(cs) => {
                            record_schedule(&mut w, dfg, &cs.schedule);
                            for op in dfg.op_ids() {
                                let ns = cs.start_ns.get(op).copied().unwrap_or(f64::NAN);
                                write!(w, "{:x};", ns.to_bits()).expect("hashing never fails");
                            }
                            write!(w, "{:x}|", cs.critical_ns.to_bits())
                                .expect("hashing never fails");
                        }
                        Err(e) => record_error(&mut w, &e),
                    }
                    out.push((
                        format!("{name}/{cname}/{lname}/{block:?}/chain"),
                        w.finish(),
                    ));
                }
            }
            let unlimited = ResourceLimits::unlimited();
            for alg in time_constrained() {
                let mut w = FnvWriter::new();
                let result = schedule_cdfg_cached(&cdfg, &cls, &unlimited, alg, &cache);
                record_cdfg(&mut w, &cdfg, result);
                out.push((format!("{name}/{cname}/{alg:?}"), w.finish()));
            }
        }
    }
    out
}

#[test]
fn every_scheduler_is_step_identical() {
    let combos = battery();
    let mut total = FnvWriter::new();
    for (label, digest) in &combos {
        writeln!(total, "{label}={digest:x}").expect("hashing never fails");
    }
    let digest = total.finish();
    if digest != DIGEST {
        for (label, d) in &combos {
            println!("{label} {d:016x}");
        }
        panic!(
            "schedule digest moved: {digest:#018x} (pinned {DIGEST:#018x}) over {} combos",
            combos.len()
        );
    }
}

/// The combos left out of the digest no longer panic: branch-and-bound
/// returns a valid schedule no longer than list scheduling's, or reports
/// that it ran out of nodes.
#[test]
fn bb_no_longer_panics_on_the_skipped_combos() {
    for &(seed, cname, lname) in BB_PANICKED {
        let cdfg = optimized(&hls_fuzz::gen::generate_bsl(&bsl_case(seed)));
        let (_, cls) = classifiers()
            .into_iter()
            .find(|&(n, _)| n == cname)
            .expect("known classifier");
        let (_, limits) = limit_sets()
            .into_iter()
            .find(|(n, _)| *n == lname)
            .expect("known limit set");
        let bb = Algorithm::BranchAndBound {
            node_budget: BB_BUDGET,
        };
        match schedule_cdfg(&cdfg, &cls, &limits, bb) {
            Ok(s) => {
                for block in cdfg.block_order() {
                    let bs = s.block(block).expect("every block scheduled");
                    bs.validate(&cdfg.block(block).dfg, &cls, &limits)
                        .unwrap_or_else(|e| panic!("bsl{seed}/{cname}/{lname}: {e}"));
                }
                let list = Algorithm::List(Priority::PathLength);
                let list = schedule_cdfg(&cdfg, &cls, &limits, list).expect("list schedules");
                assert!(s.total_latency(&cdfg) <= list.total_latency(&cdfg));
            }
            Err(ScheduleError::SearchBudgetExhausted) => {}
            Err(e) => panic!("bsl{seed}/{cname}/{lname}: {e}"),
        }
    }
}
