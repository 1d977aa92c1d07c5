//! Controller-logic benchmarks: Quine–McCluskey minimization and FSM
//! construction/encoding. Runs on the in-repo `std::time` harness.

use hls_bench::harness::{bench, Group};
use hls_ctrl::logic::DontCares;
use hls_ctrl::{build_fsm, compare_encodings, minimize_states};

fn qm() {
    let group = Group::new("quine_mccluskey");
    for vars in [4u32, 6, 8, 10] {
        // A structured on-set: every third minterm.
        let on: Vec<u64> = (0..(1u64 << vars)).step_by(3).collect();
        group.bench("every_third", vars, || {
            DontCares::new(vars, &[])
                .minimize(&on)
                .expect("within the limit")
        });
    }
}

fn controller() {
    let mut cdfg = hls_lang::compile(hls_workloads::sources::GCD).expect("compiles");
    hls_opt::optimize(&mut cdfg);
    let cls = hls_sched::OpClassifier::universal();
    let sched = hls_sched::schedule_cdfg(
        &cdfg,
        &cls,
        &hls_sched::ResourceLimits::universal(1),
        hls_sched::Algorithm::List(hls_sched::Priority::PathLength),
    )
    .expect("schedules");
    let dp = hls_alloc::build_datapath(
        &cdfg,
        &sched,
        &cls,
        &hls_rtl::Library::standard(),
        hls_alloc::FuStrategy::GreedyAware,
    )
    .expect("allocates");

    bench("fsm_build_gcd", || {
        build_fsm(&cdfg, &sched, &dp, &cls).expect("builds")
    });
    let fsm = build_fsm(&cdfg, &sched, &dp, &cls).expect("builds");
    bench("fsm_encode_all_styles", || {
        compare_encodings(&fsm).expect("encodes")
    });
    bench("fsm_minimize", || minimize_states(&fsm));
}

fn main() {
    qm();
    controller();
}
