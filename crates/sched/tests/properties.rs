//! Property tests for the scheduler invariants, driven by seeded random
//! DAGs (`hls_testkit::forall` + `hls_workloads::random_dag`).
//!
//! Invariants checked across schedulers:
//!
//! * **ASAP lower bound** — no schedule places an op before its
//!   dependence-only ASAP step.
//! * **ALAP upper bound** — within a schedule of length `L`, no op sits
//!   after its dependence-only ALAP step against deadline `L`.
//! * **Precedence + resource feasibility** — `Schedule::validate` holds
//!   under the limits each scheduler was given (unlimited for the
//!   time-constrained ones, whose FU count is an output).

use hls_sched::{
    alap_schedule, asap_schedule, force_directed_schedule, freedom_based_schedule,
    hier_force_schedule, list_schedule, ForceScheduler, HierForceScheduler, OpClassifier, Priority,
    ResourceLimits, SchedGraph, Schedule, ScheduleError,
};
use hls_testkit::{forall, Config, SplitMix64};
use hls_workloads::random::{random_dag, RandomDagConfig};

/// A generated instance: the DAG config (replayable) plus FU count.
#[derive(Debug)]
struct Instance {
    dag: RandomDagConfig,
    fus: usize,
}

fn gen_instance(rng: &mut SplitMix64) -> Instance {
    Instance {
        dag: RandomDagConfig {
            ops: rng.usize_in(1, 25),
            inputs: rng.usize_in(1, 6),
            window: rng.usize_in(1, 10),
            mul_ratio: (rng.u32_in(0, 60) as f64) / 100.0,
            seed: rng.next_u64(),
        },
        fus: rng.usize_in(1, 4),
    }
}

/// Asserts the two step-bound invariants for one schedule.
fn assert_bounds(
    s: &Schedule,
    dfg: &hls_cdfg::DataFlowGraph,
    classifier: &OpClassifier,
    label: &str,
) {
    let sg = SchedGraph::build(dfg, classifier).expect("acyclic");
    let (asap, _) = sg.asap();
    let deadline = s.num_steps().max(1);
    let alap = sg.alap(deadline);
    for (op, step) in s.iter() {
        let i = sg.graph().index_of(op);
        if let Some(lo) = i.map(|i| asap[i]) {
            assert!(
                step >= lo,
                "{label}: op {op:?} at step {step} before its ASAP bound {lo}"
            );
        }
        if classifier.classify(dfg, op).is_some() {
            if let Some(hi) = i.map(|i| alap[i]) {
                assert!(
                    step <= hi,
                    "{label}: op {op:?} at step {step} past its ALAP bound {hi} \
                     (schedule length {deadline})"
                );
            }
        }
    }
}

#[test]
fn resource_constrained_schedulers_respect_bounds_and_limits() {
    forall(&Config::cases(64), gen_instance, |inst| {
        let dfg = random_dag(&inst.dag);
        let classifier = OpClassifier::universal();
        let limits = ResourceLimits::universal(inst.fus);

        let asap = asap_schedule(&dfg, &classifier, &limits).expect("asap");
        asap.validate(&dfg, &classifier, &limits).expect("asap");
        assert_bounds(&asap, &dfg, &classifier, "asap");

        for p in [Priority::PathLength, Priority::Urgency, Priority::Mobility] {
            let s = list_schedule(&dfg, &classifier, &limits, p).expect("list");
            s.validate(&dfg, &classifier, &limits)
                .unwrap_or_else(|e| panic!("list/{}: {e}", p.name()));
            assert_bounds(&s, &dfg, &classifier, p.name());
            // List scheduling never beats the dependence-only critical
            // path and never loses to fully serial execution.
            let (_, cp) = SchedGraph::build(&dfg, &classifier)
                .expect("acyclic")
                .asap();
            assert!(s.num_steps() >= cp);
            assert!(s.num_steps() <= inst.dag.ops as u32);
        }
    });
}

#[test]
fn alap_packs_backward_without_breaking_precedence() {
    forall(&Config::cases(64), gen_instance, |inst| {
        let dfg = random_dag(&inst.dag);
        let classifier = OpClassifier::universal();
        let limits = ResourceLimits::universal(inst.fus);
        // A deadline the resource-constrained ASAP provably meets.
        let deadline = asap_schedule(&dfg, &classifier, &limits)
            .expect("asap")
            .num_steps()
            .max(1);
        match alap_schedule(&dfg, &classifier, &limits, deadline) {
            Ok(s) => {
                s.validate(&dfg, &classifier, &limits).expect("alap valid");
                assert!(s.num_steps() <= deadline, "alap overran its deadline");
                assert_bounds(&s, &dfg, &classifier, "alap");
            }
            // Backward packing may wedge on a feasible-but-tight deadline
            // (an op spilled to step 0); the typed error is the contract,
            // a panic or silent precedence violation is the bug.
            Err(ScheduleError::SearchBudgetExhausted) => {}
            Err(e) => panic!("alap: unexpected error {e}"),
        }
    });
}

#[test]
fn time_constrained_schedulers_meet_the_deadline() {
    forall(&Config::cases(48), gen_instance, |inst| {
        let dfg = random_dag(&inst.dag);
        for classifier in [OpClassifier::universal(), OpClassifier::typed()] {
            let (_, cp) = SchedGraph::build(&dfg, &classifier)
                .expect("acyclic")
                .asap();
            let slack = (inst.fus as u32) % 3; // deterministic 0..=2
            let deadline = (cp + slack).max(1);
            let unlimited = ResourceLimits::unlimited();

            let fd = force_directed_schedule(&dfg, &classifier, deadline).expect("force");
            fd.validate(&dfg, &classifier, &unlimited).expect("force");
            assert!(fd.num_steps() <= deadline);
            assert_bounds(&fd, &dfg, &classifier, "force");

            let fb = freedom_based_schedule(&dfg, &classifier, deadline).expect("freedom");
            fb.validate(&dfg, &classifier, &unlimited).expect("freedom");
            assert!(fb.num_steps() <= deadline);
            assert_bounds(&fb, &dfg, &classifier, "freedom");
        }
    });
}

/// The distribution graphs the force-directed engine maintains
/// incrementally (window-delta updates on every placement) must agree
/// with a from-scratch recomputation — uniform `1/(hi-lo+1)` mass over
/// every classified op's current window — after *each* placement, not
/// just at the end. A stale or double-applied delta shows up here long
/// before it changes a schedule.
#[test]
fn incremental_distribution_graphs_match_from_scratch() {
    forall(&Config::cases(128), gen_instance, |inst| {
        let dfg = random_dag(&inst.dag);
        for classifier in [
            OpClassifier::universal(),
            OpClassifier::typed(),
            OpClassifier::universal_free_shifts(),
        ] {
            let sg = SchedGraph::build(&dfg, &classifier).expect("acyclic");
            let (_, cp) = sg.asap();
            let deadline = cp.max(1) + (inst.fus as u32) % 3;
            let mut eng = ForceScheduler::new(&dfg, &classifier, deadline).expect("engine");
            loop {
                let dg = eng.graphs();
                // From-scratch reference off the engine's current windows.
                let mut reference = dg.clone();
                for v in reference.values_mut() {
                    v.iter_mut().for_each(|x| *x = 0.0);
                }
                for i in 0..sg.len() {
                    let Some(class) = sg.class(i) else { continue };
                    let (lo, hi) = eng.window(sg.op(i)).expect("classified op has a window");
                    let mass = 1.0 / f64::from(hi - lo + 1);
                    let row = reference.get_mut(&class).expect("class present in DG");
                    for t in lo..=hi {
                        row[t as usize] += mass;
                    }
                }
                for (class, row) in &reference {
                    let got = &dg[class];
                    assert_eq!(got.len(), row.len());
                    for (t, (g, r)) in got.iter().zip(row).enumerate() {
                        assert!(
                            (g - r).abs() <= 1e-9,
                            "DG({class:?})[{t}]: incremental {g} vs from-scratch {r}"
                        );
                    }
                }
                match eng.place_next().expect("feasible placement") {
                    Some(_) => {}
                    None => break,
                }
            }
        }
    });
}

/// The degenerate-hierarchy differential: with a window at least as
/// large as the op count there is exactly one window, and the
/// hierarchical scheduler must be *step-identical* to the flat
/// force-directed scheduler — same ops, same steps, same length — not
/// merely equivalent in quality. 128 seeded DAGs across two classifier
/// policies hold the shared-code claim honest.
#[test]
fn hier_force_with_covering_window_is_step_identical_to_force() {
    forall(&Config::cases(128), gen_instance, |inst| {
        let dfg = random_dag(&inst.dag);
        for classifier in [OpClassifier::universal(), OpClassifier::typed()] {
            let (_, cp) = SchedGraph::build(&dfg, &classifier)
                .expect("acyclic")
                .asap();
            let slack = (inst.fus as u32) % 3; // deterministic 0..=2
            let deadline = (cp + slack).max(1);
            let flat = force_directed_schedule(&dfg, &classifier, deadline).expect("force");
            let hier = hier_force_schedule(&dfg, &classifier, deadline, inst.dag.ops.max(1))
                .expect("hforce");
            assert_eq!(flat.num_steps(), hier.num_steps());
            for (op, step) in flat.iter() {
                assert_eq!(
                    hier.step(op),
                    Some(step),
                    "op {op:?}: flat placed it at {step}"
                );
            }
        }
    });
}

/// Small windows force many seams; the result must still be a valid
/// schedule that meets the deadline, and at zero slack (deadline =
/// critical path) it is never longer than a single-FU list schedule.
/// The serial and pool paths must also agree exactly: the schedule is a
/// function of the input, never of the worker count.
#[test]
fn hier_force_small_windows_stay_valid_and_deterministic() {
    forall(&Config::cases(128), gen_instance, |inst| {
        let dfg = random_dag(&inst.dag);
        let classifier = OpClassifier::universal();
        let (_, cp) = SchedGraph::build(&dfg, &classifier)
            .expect("acyclic")
            .asap();
        let deadline = cp.max(1); // zero slack: latency is the critical path
        let window = 1 + inst.fus % 3; // deterministic 1..=3
        let s = hier_force_schedule(&dfg, &classifier, deadline, window).expect("hforce");
        s.validate(&dfg, &classifier, &ResourceLimits::unlimited())
            .expect("hforce schedule valid");
        assert!(s.num_steps() <= deadline);
        assert_bounds(&s, &dfg, &classifier, "hforce");
        let list = list_schedule(
            &dfg,
            &classifier,
            &ResourceLimits::universal(1),
            Priority::PathLength,
        )
        .expect("list");
        assert!(
            s.num_steps() <= list.num_steps(),
            "hforce {} steps vs serial list {} steps",
            s.num_steps(),
            list.num_steps()
        );
        let serial = HierForceScheduler::new(&dfg, &classifier, deadline, window)
            .expect("engine")
            .finish()
            .expect("serial hforce");
        for (op, step) in s.iter() {
            assert_eq!(serial.step(op), Some(step), "serial/pool divergence");
        }
    });
}

/// On medium graphs with real window pressure (hundreds of ops, window
/// 32), the hierarchical schedule must match the flat scheduler's
/// latency exactly (both are deadline-pinned) and stay within 2× of its
/// total FU allocation — windowing trades a bounded amount of balancing
/// quality for asymptotic speed, not correctness.
#[test]
fn hier_force_matches_flat_quality_on_medium_graphs() {
    for seed in 0..3 {
        let dfg = random_dag(&RandomDagConfig {
            ops: 384,
            inputs: 8,
            window: 12,
            mul_ratio: 0.4,
            seed,
        });
        let cls = OpClassifier::typed();
        let (_, cp) = SchedGraph::build(&dfg, &cls).expect("acyclic").asap();
        let deadline = cp + 4;
        let flat = force_directed_schedule(&dfg, &cls, deadline).expect("force");
        let hier = hier_force_schedule(&dfg, &cls, deadline, 32).expect("hforce");
        hier.validate(&dfg, &cls, &ResourceLimits::unlimited())
            .expect("valid");
        assert_eq!(hier.num_steps(), flat.num_steps(), "seed {seed}: latency");
        let flat_fus: usize = flat.fu_usage(&dfg, &cls).values().sum();
        let hier_fus: usize = hier.fu_usage(&dfg, &cls).values().sum();
        assert!(
            hier_fus <= flat_fus.max(1) * 2,
            "seed {seed}: hforce needs {hier_fus} FUs, flat needs {flat_fus}"
        );
    }
}

#[test]
fn too_short_deadlines_error_instead_of_clamping() {
    forall(&Config::cases(32), gen_instance, |inst| {
        let dfg = random_dag(&inst.dag);
        let classifier = OpClassifier::universal();
        let (_, cp) = SchedGraph::build(&dfg, &classifier)
            .expect("acyclic")
            .asap();
        if cp < 2 {
            return; // no deadline strictly below the critical path exists
        }
        let short = cp - 1;
        for (name, result) in [
            (
                "force",
                force_directed_schedule(&dfg, &classifier, short).map(|_| ()),
            ),
            (
                "freedom",
                freedom_based_schedule(&dfg, &classifier, short).map(|_| ()),
            ),
            (
                "alap",
                alap_schedule(&dfg, &classifier, &ResourceLimits::unlimited(), short).map(|_| ()),
            ),
        ] {
            assert!(
                matches!(result, Err(ScheduleError::DeadlineTooShort { .. })),
                "{name}: expected DeadlineTooShort below the critical path, got {result:?}"
            );
        }
    });
}
