//! Dependence depths of the bundled workloads, measured with the
//! scheduling layer's own bounds ([`SchedGraph`] under the universal
//! classifier: constants are wired, every other op takes one step).

use hls_cdfg::DataFlowGraph;
use hls_sched::{OpClassifier, SchedGraph};
use hls_workloads::figures::{fig3_graph, fig5_graph, fig6_graph};
use hls_workloads::random::{random_dag, RandomDagConfig};

fn bounds(g: &DataFlowGraph) -> SchedGraph {
    SchedGraph::build(g, &OpClassifier::universal()).expect("acyclic")
}

fn critical_path(g: &DataFlowGraph) -> u32 {
    bounds(g).asap().1
}

#[test]
fn benchmark_critical_paths() {
    use hls_workloads::benchmarks::{diffeq, ewf, fir16};
    assert_eq!(critical_path(&diffeq()), 4);
    let ewf_cp = critical_path(&ewf());
    assert!(ewf_cp >= 12, "deep addition chains, cp = {ewf_cp}");
    assert_eq!(critical_path(&fir16()), 16, "serial accumulation chain");
}

#[test]
fn fig3_and_fig6_are_three_steps_deep() {
    assert_eq!(critical_path(&fig3_graph().0), 3);
    assert_eq!(critical_path(&fig6_graph().0), 3);
}

/// "Addition a1 must be scheduled in step 1 ... a2 ... in step 2 ...
/// a3 could be scheduled in either step 2 or step 3."
#[test]
fn fig5_windows_match_paper() {
    let (g, (a1, a2, a3, _)) = fig5_graph();
    let sg = bounds(&g);
    let w = sg.windows(3).expect("deadline 3 fits");
    let window = |op| {
        let i = sg.graph().index_of(op).expect("live op");
        w.lo[i]..=w.hi[i]
    };
    assert_eq!(window(a1), 0..=0, "a1 fixed in step 1");
    assert_eq!(window(a2), 1..=1, "a2 fixed in step 2");
    assert_eq!(window(a3), 1..=2, "a3 may go in step 2 or 3");
}

#[test]
fn narrow_window_makes_deep_random_dags() {
    let deep = random_dag(&RandomDagConfig {
        ops: 60,
        window: 2,
        ..Default::default()
    });
    let wide = random_dag(&RandomDagConfig {
        ops: 60,
        window: 60,
        ..Default::default()
    });
    let (cp_deep, cp_wide) = (critical_path(&deep), critical_path(&wide));
    assert!(cp_deep > cp_wide, "{cp_deep} vs {cp_wide}");
}

#[test]
fn unrolled_sqrt_critical_path_shorter_than_serial() {
    let mut cdfg = hls_lang::compile(hls_workloads::sources::SQRT).expect("compiles");
    hls_opt::unroll_counted_loops(&mut cdfg);
    hls_opt::eliminate_dead_code(&mut cdfg);
    let merged = cdfg.block_order()[1];
    let cp = critical_path(&cdfg.block(merged).dfg);
    // Serial loop: 4 iterations x 5 steps = 20. Unrolled critical path
    // (div+add+mul chained through Y) is shorter — the I-increments run
    // in parallel with the Y chain.
    assert!(cp < 20, "cp = {cp}");
}
