//! Cross-crate integration: every workload through every configuration of
//! the flow, with RTL-vs-behavioral verification at the end.

use hls::alloc::{CliqueMethod, FuStrategy};
use hls::sched::{Algorithm, FuClass, Priority, ResourceLimits};
use hls::{ControlStyle, Synthesizer};

const SOURCES: [(&str, &str, (f64, f64)); 5] = [
    ("sqrt", hls_workloads::sources::SQRT, (0.05, 1.0)),
    ("gcd", hls_workloads::sources::GCD, (1.0, 64.0)),
    ("diffeq", hls_workloads::sources::DIFFEQ, (0.1, 0.9)),
    ("fir4", hls_workloads::sources::FIR4, (-2.0, 2.0)),
    ("sumsq", hls_workloads::sources::SUMSQ, (1.0, 15.0)),
];

#[test]
fn every_source_flows_under_defaults() {
    for (name, src, range) in SOURCES {
        let design = Synthesizer::new()
            .synthesize_source(src)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(design.latency > 0, "{name}");
        assert!(design.datapath.reg_count() > 0, "{name}");
        assert!(design.fsm.len() > 1, "{name}");
        let eq = design
            .verify(10, range)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(eq.equivalent, "{name}: {:?}", eq.mismatch);
    }
}

/// A call that returns its argument hands the assignment a value that
/// already belongs to another variable; the lowering copies it, so both
/// variables keep their own values and the design co-simulates.
#[test]
fn passthrough_call_cosimulates() {
    let src = "program t; input Y; output X;
               function id(a) = a;
               begin X := id(Y); end";
    for optimize in [true, false] {
        let mut synth = Synthesizer::new();
        if !optimize {
            synth = synth.without_optimization();
        }
        let design = synth.synthesize_source(src).unwrap();
        let eq = design.verify(6, (1.0, 8.0)).unwrap();
        assert!(eq.equivalent, "optimize {optimize}: {:?}", eq.mismatch);
    }
}

#[test]
fn fu_strategies_preserve_behavior() {
    for strategy in [
        FuStrategy::GreedyAware,
        FuStrategy::GreedyBlind,
        FuStrategy::Clique(CliqueMethod::ExactMaxClique),
        FuStrategy::Clique(CliqueMethod::Tseng),
    ] {
        for (name, src, range) in SOURCES {
            let design = Synthesizer::new()
                .fu_strategy(strategy)
                .synthesize_source(src)
                .unwrap_or_else(|e| panic!("{name}/{strategy:?}: {e}"));
            let eq = design.verify(6, range).unwrap();
            assert!(eq.equivalent, "{name}/{strategy:?}: {:?}", eq.mismatch);
        }
    }
}

#[test]
fn schedulers_preserve_behavior() {
    for alg in [
        Algorithm::Asap,
        Algorithm::List(Priority::PathLength),
        Algorithm::List(Priority::Urgency),
        Algorithm::List(Priority::Mobility),
        Algorithm::ForceDirected { slack: 1 },
        Algorithm::FreedomBased { slack: 1 },
        Algorithm::Transformational,
        Algorithm::BranchAndBound {
            node_budget: 2_000_000,
        },
    ] {
        for (name, src, range) in SOURCES {
            let design = Synthesizer::new()
                .algorithm(alg)
                .synthesize_source(src)
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", alg.name()));
            let eq = design.verify(5, range).unwrap();
            assert!(eq.equivalent, "{name}/{}: {:?}", alg.name(), eq.mismatch);
        }
    }
}

#[test]
fn typed_resources_flow() {
    let limits = ResourceLimits::unlimited()
        .with(FuClass::Multiplier, 2)
        .with(FuClass::Alu, 2)
        .with(FuClass::Divider, 1)
        .with(FuClass::Comparator, 1);
    for (name, src, range) in SOURCES {
        let design = Synthesizer::new()
            .typed_fus(limits.clone())
            .synthesize_source(src)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let eq = design.verify(6, range).unwrap();
        assert!(eq.equivalent, "{name}: {:?}", eq.mismatch);
    }
}

#[test]
fn control_styles_and_encodings() {
    use hls::ctrl::EncodingStyle;
    for control in [
        ControlStyle::Hardwired(EncodingStyle::Binary),
        ControlStyle::Hardwired(EncodingStyle::OneHot),
        ControlStyle::Hardwired(EncodingStyle::Gray),
        ControlStyle::Microcode,
    ] {
        let design = Synthesizer::new()
            .control(control)
            .synthesize_source(hls_workloads::sources::SQRT)
            .unwrap();
        assert_eq!(design.latency, 10, "{control:?}");
    }
}

#[test]
fn verilog_is_emitted_for_every_source() {
    for (name, src, _) in SOURCES {
        let design = Synthesizer::new().synthesize_source(src).unwrap();
        let v = design.to_verilog();
        assert!(v.contains(&format!("module {name}")), "{name}");
        assert!(v.contains("endmodule"), "{name}");
    }
}

#[test]
fn vcd_export_of_a_full_run() {
    use std::collections::BTreeMap;
    let design = Synthesizer::new()
        .synthesize_source(hls_workloads::sources::SQRT)
        .unwrap();
    let r = hls::sim::simulate(
        &design.cdfg,
        &design.schedule,
        &design.datapath,
        &BTreeMap::from([("X".to_string(), hls::Fx::from_f64(0.36))]),
        true,
    )
    .unwrap();
    let vcd = hls::sim::to_vcd(&design.datapath, &r);
    assert!(vcd.contains("$enddefinitions"));
    let timestamps = vcd.lines().filter(|l| l.starts_with('#')).count();
    assert_eq!(timestamps, 10, "ten cycles dumped");
}

#[test]
fn netlists_validate_and_have_area() {
    for (name, src, _) in SOURCES {
        let design = Synthesizer::new().synthesize_source(src).unwrap();
        design
            .netlist
            .validate()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(design.area.total() > 0.0, "{name}");
        assert!(design.area.clock_ns > 0.0, "{name}");
    }
}

#[test]
fn benchmark_dfgs_schedule_under_all_algorithms() {
    use hls::sched::{list_schedule, OpClassifier};
    let cls = OpClassifier::typed();
    for (name, g) in hls_workloads::all_benchmarks() {
        let limits = ResourceLimits::unlimited()
            .with(FuClass::Multiplier, 2)
            .with(FuClass::Alu, 2);
        let s = list_schedule(&g, &cls, &limits, Priority::PathLength)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        s.validate(&g, &cls, &limits)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}
