//! Equivalence battery for the prepared variable table.
//!
//! `Synthesizer::prepare` builds one `VariableTable` per behavior, and
//! every datapath built from the prepared behavior shares it. This
//! battery holds that shared path to standalone `build_datapath`, which
//! builds a table of its own: on the same prepared CDFG and schedule the
//! two datapaths have the same registers, mux count, DOT bytes, netlist
//! Verilog and per-state signal record (the one the back-half digest
//! writes), and every point's datapath holds the prepared table itself,
//! not a copy. It also holds one prepared behavior reused by synthesizers
//! with another library or binder to fresh preparation, and pins the
//! estimator's identity rule: the fingerprint of a grid point is equal
//! exactly when its effective configuration is.
//!
//! Programs: the five paper programs (SUMSQ's array gives a memory), GCD
//! if-converted, a hand-built block that passes its input out under
//! another variable's name, and 16 generated BSL programs.
//! Configurations: 1–4 universal FUs × {asap, list/path, list/urgency,
//! force/1} × {greedy aware, greedy blind, clique/Tseng}.

use std::sync::Arc;

use hls_alloc::{build_datapath, CliqueMethod, Datapath, FuStrategy, Signal, Source};
use hls_cdfg::{Cdfg, DataFlowGraph, Region};
use hls_core::{
    ControlStyle, Estimator, GridPoint, PreparedBehavior, SynthesisResult, Synthesizer,
};
use hls_ctrl::{build_fsm, EncodingStyle};
use hls_fuzz::corpus::{Case, Mode};
use hls_rtl::{CellClass, CellSpec, Library};
use hls_sched::{Algorithm, Priority};
use hls_workloads::sources;

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Asap,
    Algorithm::List(Priority::PathLength),
    Algorithm::List(Priority::Urgency),
    Algorithm::ForceDirected { slack: 1 },
];

const STRATEGIES: [FuStrategy; 3] = [
    FuStrategy::GreedyAware,
    FuStrategy::GreedyBlind,
    FuStrategy::Clique(CliqueMethod::Tseng),
];

/// A block that passes `Y`'s input out as `X`: its input value carries
/// another variable's name, which the lowering never emits.
fn renamed_input() -> Cdfg {
    let mut dfg = DataFlowGraph::new();
    let input = dfg.add_input("Y", 32);
    dfg.value_mut(input).name = "X".into();
    dfg.set_output("X", input);
    let mut cdfg = Cdfg::new("renamed");
    cdfg.declare_input("Y", 32);
    cdfg.declare_output("X");
    let block = cdfg.add_block("entry", dfg);
    cdfg.set_body(Region::Block(block));
    cdfg
}

/// Each program with the base synthesizer that prepares it.
fn programs() -> Vec<(String, Synthesizer, Cdfg)> {
    let compile = |src: &str| hls_lang::compile(src).unwrap();
    let named = [
        ("sqrt", sources::SQRT),
        ("gcd", sources::GCD),
        ("diffeq", sources::DIFFEQ),
        ("fir4", sources::FIR4),
        ("sumsq", sources::SUMSQ),
    ];
    let mut out: Vec<(String, Synthesizer, Cdfg)> = named
        .iter()
        .map(|&(name, src)| (name.to_string(), Synthesizer::new(), compile(src)))
        .collect();
    let if_converted = Synthesizer::new().with_if_conversion();
    out.push(("gcd-ifconv".into(), if_converted, compile(sources::GCD)));
    out.push(("renamed".into(), Synthesizer::new(), renamed_input()));
    for seed in 0..16u64 {
        let src = hls_fuzz::gen::generate_bsl(&Case::new(Mode::Bsl, seed, 24, 3, 6));
        out.push((format!("bsl{seed}"), Synthesizer::new(), compile(&src)));
    }
    out
}

/// Each controller state's name and its control signals in name order,
/// one state per line, as the back-half digest records them.
fn state_record(cdfg: &Cdfg, result: &SynthesisResult, datapath: &Datapath) -> String {
    let fsm = build_fsm(cdfg, &result.schedule, datapath, &result.classifier).unwrap();
    let mut out = String::new();
    for state in &fsm.states {
        let mut names: Vec<String> = state
            .signals
            .iter()
            .map(|&i| fsm.signals[i].to_string())
            .collect();
        names.sort();
        out.push_str(&format!("{}:{}\n", state.name, names.join(";")));
    }
    out
}

/// What the battery compares of a datapath: registers, mux count, DOT,
/// netlist Verilog and the controller's per-state signals.
fn view(
    cdfg: &Cdfg,
    result: &SynthesisResult,
    dp: &Datapath,
    lib: &Library,
) -> (usize, usize, String, String, String) {
    let verilog = hls_rtl::to_verilog(&dp.to_netlist(cdfg, lib).unwrap());
    let states = state_record(cdfg, result, dp);
    (
        dp.reg_count(),
        dp.mux_inputs,
        dp.to_dot(cdfg),
        verilog,
        states,
    )
}

/// Synthesizes `prepared` under `base` at one grid coordinate.
fn synthesize(
    base: &Synthesizer,
    prepared: &PreparedBehavior,
    fus: usize,
    alg: Algorithm,
) -> SynthesisResult {
    let syn = base.clone().universal_fus(fus).algorithm(alg);
    syn.synthesize_prepared(prepared).unwrap()
}

#[test]
fn shared_table_datapaths_equal_standalone_ones() {
    let lib = Library::standard();
    let (mut points, mut memories, mut renamed_loads) = (0usize, false, 0usize);
    for (name, base, cdfg) in programs() {
        let prepared = base.prepare(cdfg).unwrap();
        let cdfg = prepared.cdfg();
        let table = Arc::clone(
            &synthesize(&base, &prepared, 1, Algorithm::Asap)
                .datapath
                .vars,
        );
        for strategy in STRATEGIES {
            let base = base.clone().fu_strategy(strategy);
            for fus in 1..=4 {
                for alg in ALGORITHMS {
                    let r = synthesize(&base, &prepared, fus, alg);
                    let cls = &r.classifier;
                    let alone = build_datapath(cdfg, &r.schedule, cls, &lib, strategy).unwrap();
                    let label = format!("{name} {strategy:?} {fus} {alg:?}");
                    assert!(Arc::ptr_eq(&r.datapath.vars, &table), "{label}");
                    assert_eq!(r.datapath.regs, alone.regs, "{label}");
                    assert_eq!(r.datapath.signals, alone.signals, "{label}");
                    let shared = view(cdfg, &r, &r.datapath, &lib);
                    assert_eq!(shared, view(cdfg, &r, &alone, &lib), "{label}");
                    assert_eq!(r.to_verilog(), shared.3, "{label}");
                    memories |= !r.datapath.vars.memories().is_empty();
                    if name == "renamed" {
                        let vars = &r.datapath.vars;
                        let reg = vars.register("X").unwrap();
                        let src = Source::Reg(vars.register("Y").unwrap());
                        let load = Signal::Load { reg, src };
                        renamed_loads += usize::from(r.datapath.signals.contains(&load));
                    }
                    points += 1;
                }
            }
        }
    }
    assert_eq!(points, 23 * 3 * 4 * 4);
    assert!(memories, "SUMSQ's array is in the table");
    assert!(
        renamed_loads > 0,
        "the renamed input is read from Y's register"
    );
}

/// A library with a cheaper universal cell that the FUs bind instead.
fn lean_library() -> Library {
    Library::standard().with_cell(CellSpec {
        name: "fu_lean",
        class: CellClass::Universal,
        area_base: 90.0,
        area_per_bit: 120.0,
        delay_base: 40.0,
        delay_per_bit: 4.0,
    })
}

#[test]
fn a_prepared_behavior_serves_other_libraries_and_binders() {
    let lean = lean_library();
    for (name, base, cdfg) in programs() {
        let shared = base.prepare(cdfg.clone()).unwrap();
        let others = [
            (base.clone().library(lean.clone()), lean.clone()),
            (
                base.clone()
                    .fu_strategy(FuStrategy::Clique(CliqueMethod::Tseng)),
                Library::standard(),
            ),
        ];
        for (syn, lib) in others {
            let fresh = syn.prepare(cdfg.clone()).unwrap();
            for fus in 1..=4 {
                for alg in ALGORITHMS {
                    let a = synthesize(&syn, &shared, fus, alg);
                    let b = synthesize(&syn, &fresh, fus, alg);
                    let label = format!("{name} {fus} {alg:?}");
                    let (fa, fb) = (a.area.total().to_bits(), b.area.total().to_bits());
                    assert_eq!((a.latency, fa), (b.latency, fb), "{label}");
                    let va = view(&a.cdfg, &a, &a.datapath, &lib);
                    assert_eq!(va, view(&b.cdfg, &b, &b.datapath, &lib), "{label}");
                }
            }
        }
    }
}

/// The estimator's identity rule on SQRT and DIFFEQ: equal across
/// control styles and across saturated limits; different across
/// algorithms, across limits that bind, and across bases that differ in
/// library or binder.
#[test]
fn estimator_fingerprints_follow_the_effective_configuration() {
    let point = |fus, algorithm, control| GridPoint {
        fus,
        algorithm,
        control,
    };
    let hardwired = ControlStyle::Hardwired(EncodingStyle::Binary);
    let list = Algorithm::List(Priority::PathLength);
    for src in [sources::SQRT, sources::DIFFEQ] {
        let base = Synthesizer::new();
        let prepared = base.prepare(hls_lang::compile(src).unwrap()).unwrap();
        let fp = |syn: &Synthesizer, p: GridPoint| {
            Estimator::new(syn, &prepared).estimate(&p).fingerprint
        };
        let micro = ControlStyle::Microcode;
        assert_eq!(
            fp(&base, point(2, list, hardwired)),
            fp(&base, point(2, list, micro))
        );
        assert_eq!(
            fp(&base, point(16, list, micro)),
            fp(&base, point(32, list, micro))
        );
        assert_eq!(
            fp(&base, point(16, Algorithm::Asap, micro)),
            fp(&base, point(32, Algorithm::Asap, micro))
        );
        let force = Algorithm::ForceDirected { slack: 1 };
        assert_eq!(
            fp(&base, point(1, force, micro)),
            fp(&base, point(4, force, hardwired))
        );
        assert_ne!(
            fp(&base, point(1, list, micro)),
            fp(&base, point(2, list, micro))
        );
        assert_ne!(
            fp(&base, point(2, list, micro)),
            fp(&base, point(2, Algorithm::Asap, micro))
        );
        assert_ne!(
            fp(&base, point(16, list, micro)),
            fp(&base, point(16, Algorithm::Asap, micro))
        );
        assert_ne!(
            fp(&base, point(2, list, micro)),
            fp(&base, point(2, force, micro))
        );
        let lean = base.clone().library(lean_library());
        let clique = base
            .clone()
            .fu_strategy(FuStrategy::Clique(CliqueMethod::Tseng));
        for other in [lean, clique] {
            assert_ne!(
                fp(&base, point(2, list, micro)),
                fp(&other, point(2, list, micro))
            );
            assert_ne!(
                fp(&base, point(16, list, micro)),
                fp(&other, point(16, list, micro))
            );
        }
    }
}
