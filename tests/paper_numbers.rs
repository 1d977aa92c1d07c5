//! One-stop reproduction of every number and figure the tutorial states —
//! the integration-level counterpart of EXPERIMENTS.md.

use hls::alloc::{
    clique_allocation, greedy_allocation, left_edge, max_clique, partition_max_clique,
    value_intervals, CliqueMethod, CompatGraph,
};
use hls::sched::{
    asap_schedule, distribution_graphs, force_directed_schedule, list_schedule, FuClass,
    OpClassifier, Priority, ResourceLimits,
};
use hls::Synthesizer;
use hls_workloads::figures::{fig3_graph, fig5_graph, fig6_graph};
use hls_workloads::sources::SQRT;

/// §2: "the computation takes 3 + 4·5 = 23 control steps".
#[test]
fn e2_serial_sqrt_takes_23_steps() {
    let design = Synthesizer::new()
        .without_optimization()
        .universal_fus(1)
        .synthesize_source(SQRT)
        .unwrap();
    assert_eq!(design.latency, 23);
}

/// §2/Fig. 2: "with two functional units the operations can now be
/// scheduled in 2 + 4·2 = 10 control steps" (shift free after strength
/// reduction; `I > 3` becomes a 2-bit `I = 0`).
#[test]
fn e2_optimized_sqrt_takes_10_steps() {
    let design = Synthesizer::new()
        .universal_fus(2)
        .synthesize_source(SQRT)
        .unwrap();
    assert_eq!(design.latency, 10);
    // The narrowed counter really is a 2-bit register.
    let i_reg = &design.datapath.regs[design.datapath.vars.register("I").unwrap()];
    assert_eq!(i_reg.width, 2);
}

/// Fig. 3: resource-constrained ASAP blocks the critical path.
#[test]
fn e3_asap_pathology() {
    let (g, ops) = fig3_graph();
    let cls = OpClassifier::universal();
    let limits = ResourceLimits::universal(2);
    let s = asap_schedule(&g, &cls, &limits).unwrap();
    assert_eq!(s.step(ops[1]), Some(1), "critical op 2 delayed");
    assert_eq!(s.num_steps(), 4);
}

/// Fig. 4: list scheduling with the path-length priority is optimal on
/// the same graph.
#[test]
fn e4_list_schedule_recovers_optimum() {
    let (g, ops) = fig3_graph();
    let cls = OpClassifier::universal();
    let limits = ResourceLimits::universal(2);
    let s = list_schedule(&g, &cls, &limits, Priority::PathLength).unwrap();
    assert_eq!(s.step(ops[1]), Some(0), "critical op 2 first");
    assert_eq!(s.num_steps(), 3);
}

/// Fig. 5: the distribution graph is [1, 1.5, 0.5] and force-directed
/// scheduling balances a3 into step 3.
#[test]
fn e5_distribution_graph_and_balancing() {
    let (g, (a1, a2, a3, _)) = fig5_graph();
    let cls = OpClassifier::typed();
    let dg = distribution_graphs(&g, &cls, 3).unwrap();
    let adds = &dg[&FuClass::Alu];
    assert!((adds[0] - 1.0).abs() < 1e-9);
    assert!((adds[1] - 1.5).abs() < 1e-9);
    assert!((adds[2] - 0.5).abs() < 1e-9);
    let s = force_directed_schedule(&g, &cls, 3).unwrap();
    assert_eq!(s.step(a1), Some(0));
    assert_eq!(s.step(a2), Some(1));
    assert_eq!(s.step(a3), Some(2));
}

/// Fig. 6: greedy interconnect-aware allocation puts a2 on adder 2 and
/// brings a4 back to adder 1 over an existing register connection.
#[test]
fn e6_greedy_allocation_choices() {
    let (g, (a1, a2, _, a4, _, _)) = fig6_graph();
    let cls = OpClassifier::typed();
    let s = asap_schedule(&g, &cls, &ResourceLimits::unlimited()).unwrap();
    let regs = left_edge(&value_intervals(&g, &s));
    let alloc = greedy_allocation(&g, &cls, &s, &regs, true).unwrap();
    assert_ne!(alloc.binding[&a1], alloc.binding[&a2]);
    assert_eq!(alloc.binding[&a4], alloc.binding[&a1]);
}

/// Fig. 7: the compatibility-graph clique {a1, a3, a4} shares one adder.
#[test]
fn e7_clique_formulation() {
    // The abstract graph of the figure.
    let mut g = CompatGraph::new(4);
    g.add_edge(0, 2);
    g.add_edge(0, 3);
    g.add_edge(2, 3);
    g.add_edge(1, 2);
    g.add_edge(1, 3);
    assert_eq!(max_clique(&g).len(), 3);
    assert_eq!(partition_max_clique(&g).len(), 2);

    // And the same conclusion from the Fig. 6 schedule itself.
    let (dfg, _) = fig6_graph();
    let cls = OpClassifier::typed();
    let s = asap_schedule(&dfg, &cls, &ResourceLimits::unlimited()).unwrap();
    let alloc = clique_allocation(&dfg, &cls, &s, CliqueMethod::ExactMaxClique);
    let adder_sizes: Vec<usize> = alloc
        .fus
        .iter()
        .filter(|f| f.class == FuClass::Alu)
        .map(|f| f.ops.len())
        .collect();
    assert!(adder_sizes.contains(&3), "{adder_sizes:?}");
    assert_eq!(adder_sizes.len(), 2, "two adders, as in the greedy example");
}

/// E13 (table-ctrl): flip-flops, product terms and literals of the
/// minimized hardwired controller under each state encoding, and the
/// microprogram's word count and horizontal and field-encoded widths.
/// Locks the EXPERIMENTS.md table, so a change to state encoding,
/// two-level minimization or microcode field encoding that moves a
/// literal count or a ROM size fails here.
#[test]
fn e13_controller_literals_per_encoding() {
    use hls::core::ControlStyle;
    use hls::ctrl::{compare_encodings, microcode};
    // (program, FUs, [(encoding, FFs, terms, literals)], (words,
    // horizontal bits/word, horizontal ROM bits, encoded bits/word,
    // encoded ROM bits))
    let expected = [
        (
            SQRT,
            2,
            [
                ("binary", 3, 34, 89),
                ("gray", 3, 37, 106),
                ("one-hot", 5, 37, 211),
            ],
            (5, 30, 150, 25, 125),
        ),
        (
            hls_workloads::sources::DIFFEQ,
            2,
            [
                ("binary", 4, 78, 302),
                ("gray", 4, 73, 274),
                ("one-hot", 12, 99, 1287),
            ],
            (12, 57, 684, 33, 396),
        ),
        (
            hls_workloads::sources::GCD,
            1,
            [
                ("binary", 3, 34, 143),
                ("gray", 3, 37, 155),
                ("one-hot", 8, 42, 410),
            ],
            (8, 24, 192, 20, 160),
        ),
    ];
    for (src, fus, rows, rom) in expected {
        let design = Synthesizer::new()
            .universal_fus(fus)
            .control(ControlStyle::Microcode)
            .synthesize_source(src)
            .unwrap();
        let reports = compare_encodings(&design.fsm).unwrap();
        assert_eq!(reports.len(), rows.len());
        for (style, ffs, terms, literals) in rows {
            let r = &reports[style];
            assert_eq!(
                (r.state_bits, r.terms, r.literals),
                (ffs, terms, literals),
                "{style} on a {}-state controller",
                design.fsm.len()
            );
        }
        let mp = microcode(&design.fsm);
        assert_eq!(
            (
                mp.rom.len(),
                mp.horizontal_width(),
                mp.horizontal_rom_bits(),
                mp.encoded_width(),
                mp.encoded_rom_bits()
            ),
            rom,
            "microcode of a {}-state controller",
            design.fsm.len()
        );
    }
}

/// The two sqrt designs execute correctly on real hardware structure:
/// exactly 23 and 10 cycles, with correct square roots out.
#[test]
fn e14_designs_execute_and_verify() {
    use std::collections::BTreeMap;
    for (fus, optimize, cycles) in [(1usize, false, 23u64), (2, true, 10)] {
        let mut s = Synthesizer::new().universal_fus(fus);
        if !optimize {
            s = s.without_optimization();
        }
        let design = s.synthesize_source(SQRT).unwrap();
        let run = design
            .run(&BTreeMap::from([(
                "X".to_string(),
                hls::Fx::from_f64(0.64),
            )]))
            .unwrap();
        assert_eq!(run.cycles, cycles);
        assert!((run.outputs["Y"].to_f64() - 0.8).abs() < 2e-3);
        let eq = design.verify(16, (0.05, 1.0)).unwrap();
        assert!(eq.equivalent, "{:?}", eq.mismatch);
    }
}

/// E21 (table-fifo): one slot of channel buffering strictly reduces the
/// PIPE3 makespan vs rendezvous, and every variant is statically proven
/// deadlock-free. Locks the EXPERIMENTS.md table (18 → 16 cycles).
#[test]
fn e21_fifo_depth_strictly_reduces_pipe3_makespan() {
    use std::collections::BTreeMap;
    let syn = Synthesizer::new();
    let inputs = BTreeMap::from([("X".to_string(), hls::Fx::from_i64(3))]);
    let run = |depth: u32| {
        let sys = syn
            .synthesize_system_source(&hls_workloads::sources::pipe3_with_depth(depth))
            .unwrap();
        assert!(
            sys.deadlock.is_free(),
            "depth {depth}: expected a free verdict, got {}",
            sys.deadlock
        );
        let r = sys.run(&inputs).unwrap();
        assert_eq!(r.outputs["Y"], hls::Fx::from_i64(24), "depth {depth}");
        r
    };
    let rendezvous = run(0);
    assert_eq!(rendezvous.cycles, 18);
    for depth in [1u32, 2, 4] {
        let buffered = run(depth);
        assert!(
            buffered.cycles < rendezvous.cycles,
            "depth {depth}: {} !< {} cycles",
            buffered.cycles,
            rendezvous.cycles
        );
        assert_eq!(buffered.cycles, 16, "depth {depth}");
        // The producer no longer waits for the consumer chain: it drains
        // its three sends into the FIFO and retires early.
        assert!(
            buffered.process_cycles[0] < rendezvous.process_cycles[0],
            "depth {depth}: producer not decoupled"
        );
    }
}
