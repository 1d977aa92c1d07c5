//! Failure injection: corrupt each synthesis artifact and check that the
//! corresponding validator — or, for silent data corruption, the
//! behavioral/RTL equivalence check — catches it. This is what makes the
//! §4 "design verification" instrument trustworthy: it must fail loudly on
//! designs that are actually wrong.

use std::collections::BTreeMap;

use hls::alloc::{left_edge, value_intervals, Interval, RegKind};
use hls::cdfg::{Fx, OpKind};
use hls::sched::{
    asap_schedule, list_schedule, OpClassifier, Priority, ResourceLimits, Schedule, ScheduleError,
};
use hls::Synthesizer;
use hls_workloads::figures::fig3_graph;

/// A schedule with a consumer moved onto its producer's step is rejected.
#[test]
fn corrupted_schedule_precedence_is_caught() {
    let (g, ops) = fig3_graph();
    let cls = OpClassifier::universal();
    let limits = ResourceLimits::universal(2);
    let good = list_schedule(&g, &cls, &limits, Priority::PathLength).unwrap();
    good.validate(&g, &cls, &limits).unwrap();

    let mut bad = Schedule::new();
    for (op, step) in good.iter() {
        bad.assign(op, step);
    }
    // op4 consumes op2's result; force it into op2's step.
    bad.assign(ops[3], good.step(ops[1]).unwrap());
    assert!(matches!(
        bad.validate(&g, &cls, &limits),
        Err(ScheduleError::PrecedenceViolated { .. })
    ));
}

/// A schedule that over-subscribes a functional-unit class is rejected.
#[test]
fn corrupted_schedule_resources_are_caught() {
    let (g, ids) = fig3_graph();
    let cls = OpClassifier::universal();
    let limits = ResourceLimits::universal(2);
    // Keep precedence intact: the four independent adds share step 0
    // (4 > 2 units), the chain continues in steps 1 and 2.
    let mut bad = Schedule::new();
    for op in [ids[0], ids[1], ids[2], ids[4]] {
        bad.assign(op, 0);
    }
    bad.assign(ids[3], 1);
    bad.assign(ids[5], 2);
    assert!(matches!(
        bad.validate(&g, &cls, &limits),
        Err(ScheduleError::ResourceExceeded { .. })
    ));
}

/// An incomplete schedule is rejected.
#[test]
fn missing_op_is_caught() {
    let (g, ops) = fig3_graph();
    let cls = OpClassifier::universal();
    let good = asap_schedule(&g, &cls, &ResourceLimits::unlimited()).unwrap();
    let mut bad = Schedule::new();
    for (op, step) in good.iter() {
        if op != ops[5] {
            bad.assign(op, step);
        }
    }
    bad.set_num_steps(good.num_steps());
    assert!(matches!(
        bad.validate(&g, &cls, &ResourceLimits::unlimited()),
        Err(ScheduleError::Unscheduled { .. })
    ));
}

/// Aliasing two overlapping lifetimes into one register is structurally
/// invalid.
#[test]
fn corrupted_register_sharing_is_caught_structurally() {
    let (g, _) = fig3_graph();
    let cls = OpClassifier::universal();
    let s = list_schedule(
        &g,
        &cls,
        &ResourceLimits::universal(2),
        Priority::PathLength,
    )
    .unwrap();
    let ivs = value_intervals(&g, &s);
    let mut alloc = left_edge(&ivs);
    assert!(alloc.is_valid(&ivs));
    // Find two overlapping intervals and force them into one register.
    let (a, b) = find_overlapping(&ivs).expect("fig3 has concurrent values");
    let shared = alloc.assignment[&a];
    alloc.assignment.insert(b, shared);
    assert!(
        !alloc.is_valid(&ivs),
        "aliased overlapping lifetimes must be invalid"
    );
}

fn find_overlapping(ivs: &[Interval]) -> Option<(hls::cdfg::ValueId, hls::cdfg::ValueId)> {
    for (i, a) in ivs.iter().enumerate() {
        for b in &ivs[i + 1..] {
            if a.overlaps(b) {
                return Some((a.value, b.value));
            }
        }
    }
    None
}

/// Silent register clobbering — the kind a structural check could miss —
/// is caught by RTL-vs-behavioral co-simulation: merging two temp
/// registers of a working sqrt datapath changes its outputs.
#[test]
fn clobbered_datapath_fails_equivalence() {
    let design = Synthesizer::new()
        .synthesize_source(hls_workloads::sources::SQRT)
        .unwrap();
    let eq = design.verify(8, (0.1, 1.0)).unwrap();
    assert!(eq.equivalent, "baseline must verify");

    // Corrupt: redirect every use of the highest temp register to temp 0.
    let mut corrupted = design.datapath.clone();
    let temps: Vec<usize> = corrupted
        .regs
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r.kind, RegKind::Temp(_)))
        .map(|(i, _)| i)
        .collect();
    assert!(temps.len() >= 2, "sqrt uses at least two temps");
    let (lo, hi) = (temps[0], *temps.last().unwrap());
    for binding in corrupted.blocks.values_mut() {
        for reg in binding.value_reg.values_mut() {
            if *reg == hi {
                *reg = lo;
            }
        }
    }
    // The corruption is caught either as an output mismatch or as a
    // runaway loop (if the clobbered value feeds the exit test).
    match hls::sim::check_random_vectors(
        &design.cdfg,
        &design.schedule,
        &corrupted,
        8,
        (0.1, 1.0),
        99,
    ) {
        Ok(eq) => {
            assert!(
                !eq.equivalent,
                "merging live temp registers must corrupt results"
            );
            assert!(eq.mismatch.is_some());
        }
        Err(hls::sim::SimError::Nonterminating) => { /* also caught */ }
        Err(other) => panic!("unexpected error: {other}"),
    }
}

/// A controller with a dangling transition is rejected by FSM validation.
#[test]
fn corrupted_fsm_is_caught() {
    let design = Synthesizer::new()
        .synthesize_source(hls_workloads::sources::SQRT)
        .unwrap();
    let mut fsm = design.fsm.clone();
    fsm.validate().unwrap();
    let n = fsm.states.len();
    fsm.states[0].transitions[0].to = n + 10;
    assert!(fsm.validate().is_err());
    // And a state with no way out (other than done) is also malformed.
    let mut fsm = design.fsm.clone();
    fsm.states[0].transitions.clear();
    assert!(fsm.validate().is_err());
}

/// A netlist with a duplicated instance name is rejected.
#[test]
fn corrupted_netlist_is_caught() {
    use hls::rtl::{Netlist, PortDir};
    let mut n = Netlist::new("bad");
    let a = n.add_port("a", PortDir::In, 8);
    n.add_instance("u0", "reg_dff", 8, vec![("d".into(), a)]);
    n.add_instance("u0", "reg_dff", 8, vec![("d".into(), a)]);
    assert!(n.validate().is_err());
}

/// Behavioral mutation sanity: flipping one operator in the CDFG flips the
/// outputs (the equivalence check is sensitive to single-op changes).
#[test]
fn single_op_mutation_changes_behavior() {
    let design = Synthesizer::new()
        .synthesize_source(hls_workloads::sources::SQRT)
        .unwrap();
    // Mutate the golden model: turn the body's Add into a Sub.
    let mut mutated = design.cdfg.clone();
    let blocks = mutated.block_order();
    let body = blocks[1];
    let add = mutated
        .block(body)
        .dfg
        .op_ids()
        .find(|&i| mutated.block(body).dfg.op(i).kind == OpKind::Add)
        .expect("body has the Y + X/Y add");
    mutated.block_mut(body).dfg.op_mut(add).kind = OpKind::Sub;

    let inputs = BTreeMap::from([("X".to_string(), Fx::from_f64(0.5))]);
    let golden = hls::sim::interpret(&design.cdfg, &inputs).unwrap();
    let broken = hls::sim::interpret(&mutated, &inputs).unwrap();
    assert_ne!(golden.outputs["Y"], broken.outputs["Y"]);
}
