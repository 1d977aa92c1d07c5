//! Allocation runtime: register allocators and FU binders over DAG sizes.
//! Runs on the in-repo `std::time` harness.

use hls_alloc::{
    clique_allocation, color_registers, greedy_allocation, left_edge, value_intervals, CliqueMethod,
};
use hls_bench::harness::Group;
use hls_sched::{list_schedule, OpClassifier, Priority, ResourceLimits};
use hls_workloads::random::{random_dag, RandomDagConfig};

fn registers() {
    let cls = OpClassifier::universal();
    let limits = ResourceLimits::universal(4);
    let group = Group::new("register_allocation");
    for ops in [30usize, 100, 300] {
        let g = random_dag(&RandomDagConfig {
            ops,
            ..Default::default()
        });
        let s = list_schedule(&g, &cls, &limits, Priority::PathLength).expect("schedules");
        let ivs = value_intervals(&g, &s);
        group.bench("left_edge", ops, || left_edge(&ivs));
        group.bench("coloring", ops, || color_registers(&ivs));
    }
}

fn fu_binding() {
    let cls = OpClassifier::typed();
    let group = Group::new("fu_binding");
    for ops in [30usize, 100] {
        let g = random_dag(&RandomDagConfig {
            ops,
            ..Default::default()
        });
        let s = list_schedule(
            &g,
            &cls,
            &ResourceLimits::unlimited()
                .with(hls_sched::FuClass::Alu, 3)
                .with(hls_sched::FuClass::Multiplier, 3),
            Priority::PathLength,
        )
        .expect("schedules");
        let regs = left_edge(&value_intervals(&g, &s));
        group.bench("greedy_aware", ops, || {
            greedy_allocation(&g, &cls, &s, &regs, true).expect("binds")
        });
        group.bench("greedy_blind", ops, || {
            greedy_allocation(&g, &cls, &s, &regs, false).expect("binds")
        });
        group.bench("clique_tseng", ops, || {
            clique_allocation(&g, &cls, &s, CliqueMethod::Tseng)
        });
        if ops <= 30 {
            group.bench("clique_exact", ops, || {
                clique_allocation(&g, &cls, &s, CliqueMethod::ExactMaxClique)
            });
        }
    }
}

fn main() {
    registers();
    fu_binding();
}
