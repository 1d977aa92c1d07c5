//! Scheduling-algorithm runtime scaling over random DAG sizes, plus the
//! benchmark graphs. Runs on the in-repo `std::time` harness.

use hls_bench::harness::Group;
use hls_sched::{
    asap_schedule, force_directed_schedule, list_schedule, transformational_schedule, OpClassifier,
    Priority, ResourceLimits,
};
use hls_workloads::random::{random_dag, RandomDagConfig};

fn scaling() {
    let cls = OpClassifier::universal();
    let limits = ResourceLimits::universal(3);
    let group = Group::new("sched_scaling");
    for ops in [20usize, 60, 150, 400] {
        let g = random_dag(&RandomDagConfig {
            ops,
            ..Default::default()
        });
        group.bench("asap", ops, || {
            asap_schedule(&g, &cls, &limits).expect("schedules")
        });
        group.bench("list_path", ops, || {
            list_schedule(&g, &cls, &limits, Priority::PathLength).expect("schedules")
        });
        group.bench("transform", ops, || {
            transformational_schedule(&g, &cls, &limits).expect("schedules")
        });
        if ops <= 150 {
            let (_, cp) = hls_sched::SchedGraph::build(&g, &cls)
                .expect("acyclic")
                .asap();
            group.bench("force_directed", ops, || {
                force_directed_schedule(&g, &cls, cp + 2).expect("schedules")
            });
        }
    }
}

fn benchmarks() {
    let cls = OpClassifier::typed();
    let limits = ResourceLimits::unlimited()
        .with(hls_sched::FuClass::Alu, 2)
        .with(hls_sched::FuClass::Multiplier, 2);
    let group = Group::new("sched_benchmarks");
    for (name, g) in hls_workloads::all_benchmarks() {
        group.bench("list_path", name, || {
            list_schedule(&g, &cls, &limits, Priority::PathLength).expect("schedules")
        });
    }
}

fn main() {
    scaling();
    benchmarks();
}
