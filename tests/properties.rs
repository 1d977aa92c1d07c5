//! Property-based integration tests over random data-flow graphs and
//! random programs, on the in-repo `hls-testkit` runner.

use hls::sched::{
    asap_schedule, branch_and_bound_schedule, force_directed_schedule, list_schedule,
    transformational_schedule, OpClassifier, Priority, ResourceLimits,
};
use hls::Synthesizer;
use hls_testkit::{forall, Config};
use hls_workloads::random::{random_dag, RandomDagConfig};

fn cfg(ops: usize, window: usize, seed: u64) -> RandomDagConfig {
    RandomDagConfig {
        ops,
        window,
        seed,
        ..Default::default()
    }
}

/// Every resource-constrained scheduler yields a valid schedule on
/// arbitrary DAGs, and list scheduling never loses to ASAP.
#[test]
fn schedulers_valid_on_random_dags() {
    forall(
        &Config::cases(24),
        |rng| {
            (
                rng.usize_in(1, 60),
                rng.usize_in(2, 20),
                rng.u64_in(0, 1000),
                rng.usize_in(1, 4),
            )
        },
        |&(ops, window, seed, fus)| {
            let g = random_dag(&cfg(ops, window, seed));
            let cls = OpClassifier::universal();
            let limits = ResourceLimits::universal(fus);
            let asap = asap_schedule(&g, &cls, &limits).unwrap();
            asap.validate(&g, &cls, &limits).unwrap();
            let list = list_schedule(&g, &cls, &limits, Priority::PathLength).unwrap();
            list.validate(&g, &cls, &limits).unwrap();
            let (tr, _) = transformational_schedule(&g, &cls, &limits).unwrap();
            tr.validate(&g, &cls, &limits).unwrap();
            // Serial lower bound: ceil(ops / fus); dependence bound via ASAP
            // with unlimited resources.
            let lb = ops.div_ceil(fus) as u32;
            assert!(list.num_steps() >= lb.min(list.num_steps()));
            assert!(list.num_steps() <= asap.num_steps() + ops as u32);
        },
    );
}

/// Branch-and-bound is never worse than list scheduling (and both are
/// bounded below by the trivial bounds).
#[test]
fn bb_at_least_as_good_as_list() {
    forall(
        &Config::cases(24),
        |rng| (rng.usize_in(1, 12), rng.u64_in(0, 200)),
        |&(ops, seed)| {
            let g = random_dag(&cfg(ops, 4, seed));
            let cls = OpClassifier::universal();
            let limits = ResourceLimits::universal(2);
            let list = list_schedule(&g, &cls, &limits, Priority::PathLength).unwrap();
            let bb = branch_and_bound_schedule(&g, &cls, &limits, 3_000_000).unwrap();
            bb.validate(&g, &cls, &limits).unwrap();
            assert!(bb.num_steps() <= list.num_steps());
            let serial_lb = (ops as u32).div_ceil(2);
            assert!(bb.num_steps() >= serial_lb);
        },
    );
}

/// Force-directed scheduling meets its deadline and respects
/// dependences on arbitrary DAGs.
#[test]
fn fds_meets_deadline() {
    forall(
        &Config::cases(24),
        |rng| (rng.usize_in(1, 40), rng.u64_in(0, 200), rng.u32_in(0, 4)),
        |&(ops, seed, slack)| {
            let g = random_dag(&cfg(ops, 6, seed));
            let cls = OpClassifier::universal();
            let (_, cp) = hls::sched::SchedGraph::build(&g, &cls).unwrap().asap();
            let s = force_directed_schedule(&g, &cls, cp + slack).unwrap();
            s.validate(&g, &cls, &ResourceLimits::unlimited()).unwrap();
            assert!(s.num_steps() <= cp + slack);
        },
    );
}

/// Register allocation on scheduled random DAGs hits the max-live
/// lower bound and never aliases overlapping lifetimes.
#[test]
fn register_allocation_optimal_on_random_dags() {
    forall(
        &Config::cases(24),
        |rng| (rng.usize_in(1, 50), rng.u64_in(0, 300), rng.usize_in(1, 4)),
        |&(ops, seed, fus)| {
            use hls::alloc::{left_edge, minimum_registers, value_intervals};
            let g = random_dag(&cfg(ops, 8, seed));
            let cls = OpClassifier::universal();
            let s = list_schedule(
                &g,
                &cls,
                &ResourceLimits::universal(fus),
                Priority::PathLength,
            )
            .unwrap();
            let ivs = value_intervals(&g, &s);
            let alloc = left_edge(&ivs);
            assert!(alloc.is_valid(&ivs));
            assert_eq!(alloc.count, minimum_registers(&ivs));
        },
    );
}

/// Greedy FU allocation is always valid and hits the per-step
/// concurrency lower bound on random DAGs.
#[test]
fn fu_allocation_valid_on_random_dags() {
    forall(
        &Config::cases(24),
        |rng| (rng.usize_in(1, 50), rng.u64_in(0, 300)),
        |&(ops, seed)| {
            use hls::alloc::{fu_lower_bound, greedy_allocation, left_edge, value_intervals};
            let g = random_dag(&cfg(ops, 8, seed));
            let cls = OpClassifier::typed();
            let s = list_schedule(&g, &cls, &ResourceLimits::unlimited(), Priority::PathLength)
                .unwrap();
            let regs = left_edge(&value_intervals(&g, &s));
            let alloc = greedy_allocation(&g, &cls, &s, &regs, true);
            assert!(alloc.is_valid(&g, &cls, &s));
            for (class, bound) in fu_lower_bound(&g, &cls, &s) {
                assert_eq!(alloc.count_of(class), bound);
            }
        },
    );
}

/// End to end on random straight-line programs: synthesized RTL
/// matches the behavioral model.
#[test]
fn random_expressions_synthesize_correctly() {
    forall(
        &Config::cases(24),
        |rng| (rng.u64_in(0, 40), rng.usize_in(1, 4)),
        |&(seed, fus)| {
            use std::fmt::Write as _;
            // Generate a random expression program deterministically.
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move |n: u64| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                state.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
            };
            let mut src =
                String::from("program rand; input a, b, c; output y, z; var t0, t1, t2;\nbegin\n");
            let mut names = vec!["a", "b", "c"];
            for (i, t) in ["t0", "t1", "t2"].iter().enumerate() {
                let l = names[next(names.len() as u64) as usize];
                let r = names[next(names.len() as u64) as usize];
                let op = ["+", "-", "*"][next(3) as usize];
                let _ = writeln!(src, "  {t} := {l} {op} {r};");
                let _ = i;
                names.push(t);
            }
            let _ = writeln!(src, "  y := t2 + t0;\n  z := t1 * 2;\nend.");
            let design = Synthesizer::new()
                .universal_fus(fus)
                .synthesize_source(&src)
                .unwrap();
            let eq = design.verify(8, (-3.0, 3.0)).unwrap();
            assert!(eq.equivalent, "{:?}\n{}", eq.mismatch, src);
        },
    );
}
