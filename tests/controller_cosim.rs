//! Controller co-simulation: replay the synthesized FSM against the
//! flag values recorded by the RTL datapath trace, and check that it
//! walks through exactly one state per datapath cycle and lands in `done`.
//!
//! This closes the §2 loop: the FSM "drives the data paths so as to
//! produce the required behavior" — here we check the drive sequence
//! matches the datapath's actual execution, cycle for cycle.

use std::collections::BTreeMap;

use hls::alloc::Datapath;
use hls::cdfg::Fx;
use hls::ctrl::{Cond, Fsm};
use hls::sim::RtlResult;
use hls::Synthesizer;

/// Replays `fsm` using the per-cycle register snapshots of `run`.
/// Returns the number of non-done states visited before reaching `done`.
fn replay(fsm: &Fsm, datapath: &Datapath, run: &RtlResult) -> Result<u64, String> {
    let flag_of = |name: &str, regs: &[Fx]| -> Result<bool, String> {
        let r = datapath
            .vars
            .register(name)
            .ok_or_else(|| format!("flag `{name}` has no register"))?;
        Ok(!regs[r].is_zero())
    };
    let mut state = fsm.initial;
    let mut visited = 0u64;
    for (cycle, regs) in &run.trace {
        if state == fsm.done {
            return Err(format!("controller finished early at cycle {cycle}"));
        }
        visited += 1;
        // Flags are tested Mealy-style against the values registered at
        // this cycle's edge — exactly the snapshot in the trace.
        let mut next = None;
        for t in &fsm.states[state].transitions {
            let take = match &t.cond {
                Cond::Always => true,
                Cond::IsTrue(v) => flag_of(v, regs)?,
                Cond::IsFalse(v) => !flag_of(v, regs)?,
            };
            if take {
                next = Some(t.to);
                break;
            }
        }
        state = next.ok_or_else(|| {
            format!(
                "state `{}` has no matching transition",
                fsm.states[state].name
            )
        })?;
    }
    if state != fsm.done {
        return Err(format!(
            "controller stopped in `{}` instead of `done`",
            fsm.states[state].name
        ));
    }
    Ok(visited)
}

fn cosim(src: &str, inputs: BTreeMap<String, Fx>) {
    let design = Synthesizer::new().synthesize_source(src).unwrap();
    let run = hls::sim::simulate(
        &design.cdfg,
        &design.schedule,
        &design.datapath,
        &inputs,
        true,
    )
    .unwrap();
    let visited = replay(&design.fsm, &design.datapath, &run)
        .unwrap_or_else(|e| panic!("{}: {e}", design.cdfg.name()));
    assert_eq!(
        visited,
        run.cycles,
        "{}: one FSM state per datapath cycle",
        design.cdfg.name()
    );
}

#[test]
fn sqrt_controller_tracks_datapath() {
    for x in [0.1, 0.42, 0.9] {
        cosim(
            hls_workloads::sources::SQRT,
            BTreeMap::from([("X".to_string(), Fx::from_f64(x))]),
        );
    }
}

#[test]
fn gcd_controller_tracks_datapath_through_branches() {
    for (a, b) in [(12, 18), (35, 14), (9, 9), (1, 64)] {
        cosim(
            hls_workloads::sources::GCD,
            BTreeMap::from([
                ("A".to_string(), Fx::from_i64(a)),
                ("B".to_string(), Fx::from_i64(b)),
            ]),
        );
    }
}

#[test]
fn diffeq_controller_tracks_datapath() {
    cosim(
        hls_workloads::sources::DIFFEQ,
        BTreeMap::from([
            ("X0".to_string(), Fx::from_f64(0.0)),
            ("Y0".to_string(), Fx::from_f64(1.0)),
            ("U0".to_string(), Fx::from_f64(0.0)),
            ("DX".to_string(), Fx::from_f64(0.25)),
            ("A".to_string(), Fx::from_f64(1.0)),
        ]),
    );
}

#[test]
fn sumsq_controller_tracks_datapath_with_memory() {
    for n in [0i64, 3, 9] {
        cosim(
            hls_workloads::sources::SUMSQ,
            BTreeMap::from([("N".to_string(), Fx::from_i64(n))]),
        );
    }
}

#[test]
fn minimized_controller_still_tracks() {
    let design = Synthesizer::new()
        .synthesize_source(hls_workloads::sources::SQRT)
        .unwrap();
    let reduced = hls::ctrl::minimize_states(&design.fsm);
    let run = hls::sim::simulate(
        &design.cdfg,
        &design.schedule,
        &design.datapath,
        &BTreeMap::from([("X".to_string(), Fx::from_f64(0.6))]),
        true,
    )
    .unwrap();
    let visited = replay(&reduced.fsm, &design.datapath, &run).unwrap();
    assert_eq!(visited, run.cycles, "state minimization preserves the walk");
}
