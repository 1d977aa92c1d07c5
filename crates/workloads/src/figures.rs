//! The tutorial's figure graphs, reconstructed.

use hls_cdfg::{DataFlowGraph, OpId, OpKind};

/// The Fig. 3/4 graph: six additions on a 2-adder datapath.
///
/// `op1` and `op3` are independent, non-critical ops that come first in
/// textual order; `op2` heads the three-long critical chain
/// `op2 → op4 → op6`; `op5` is another filler. ASAP (topological/textual
/// order) grants step 0 to `op1` and `op3`, pushing the critical `op2` to
/// step 1 — a 4-step schedule where 3 is optimal. List scheduling with the
/// path-length priority recovers the optimum.
///
/// The figure itself is only partially legible in the source text; this is
/// a minimal reconstruction exhibiting exactly the stated phenomenon (see
/// DESIGN.md §2).
///
/// Returns the graph and `[op1..op6]` in figure numbering.
pub fn fig3_graph() -> (DataFlowGraph, Vec<OpId>) {
    let mut g = DataFlowGraph::new();
    let ins: Vec<_> = (0..8).map(|i| g.add_input(&format!("x{i}"), 32)).collect();
    let op1 = g.add_op(OpKind::Add, vec![ins[0], ins[1]]);
    let op3 = g.add_op(OpKind::Add, vec![ins[2], ins[3]]);
    let op2 = g.add_op(OpKind::Add, vec![ins[4], ins[5]]);
    let op5 = g.add_op(OpKind::Add, vec![ins[6], ins[7]]);
    let op4 = g.add_op(OpKind::Add, vec![g.result(op2).unwrap(), ins[6]]);
    let op6 = g.add_op(OpKind::Add, vec![g.result(op4).unwrap(), ins[7]]);
    g.label(op1, "1");
    g.label(op2, "2");
    g.label(op3, "3");
    g.label(op4, "4");
    g.label(op5, "5");
    g.label(op6, "6");
    for (i, o) in [op1, op3, op5, op6].iter().enumerate() {
        g.set_output(&format!("o{i}"), g.result(*o).unwrap());
    }
    (g, vec![op1, op2, op3, op4, op5, op6])
}

/// The Fig. 5 graph: three additions under a 3-step time constraint.
///
/// `a1` feeds `a2` (fixing them to steps 1 and 2); `a3` hangs beneath a
/// multiply and can go in step 2 or 3. The distribution graph for the
/// addition class is therefore `[1, 1.5, 0.5]`, and force-directed
/// scheduling places `a3` in step 3, balancing it to `[1, 1, 1]`.
///
/// Returns the graph and `(a1, a2, a3, m)`.
pub fn fig5_graph() -> (DataFlowGraph, (OpId, OpId, OpId, OpId)) {
    let mut g = DataFlowGraph::new();
    let ins: Vec<_> = (0..6).map(|i| g.add_input(&format!("x{i}"), 32)).collect();
    let a1 = g.add_op(OpKind::Add, vec![ins[0], ins[1]]);
    let a2 = g.add_op(OpKind::Add, vec![g.result(a1).unwrap(), ins[2]]);
    // A trailing comparison pins the a1→a2 chain to steps 1 and 2 (it is
    // not an addition, so it stays out of the adder distribution graph).
    let s = g.add_op(OpKind::Lt, vec![g.result(a2).unwrap(), ins[0]]);
    let m = g.add_op(OpKind::Mul, vec![ins[3], ins[4]]);
    let a3 = g.add_op(OpKind::Add, vec![g.result(m).unwrap(), ins[5]]);
    g.label(a1, "a1");
    g.label(a2, "a2");
    g.label(a3, "a3");
    g.label(m, "m1");
    g.label(s, "c1");
    g.set_output("p", g.result(s).unwrap());
    g.set_output("q", g.result(a3).unwrap());
    (g, (a1, a2, a3, m))
}

/// The Fig. 6 graph: four additions and two multiplications over three
/// control steps, used for the greedy data-path allocation example.
///
/// Schedule (fixed by the figure): step 1 holds `a1, a2`, step 2 holds
/// `m1, m2, a3`, step 3 holds `a4`. With two adders, greedy
/// interconnect-aware allocation assigns `a2` to adder 2 (zero added mux
/// cost) and `a4` to adder 1 (reusing an existing register connection).
///
/// Returns the graph and `(a1, a2, a3, a4, m1, m2)`.
pub fn fig6_graph() -> (DataFlowGraph, (OpId, OpId, OpId, OpId, OpId, OpId)) {
    let mut g = DataFlowGraph::new();
    let ins: Vec<_> = (0..7).map(|i| g.add_input(&format!("v{i}"), 32)).collect();
    let a1 = g.add_op(OpKind::Add, vec![ins[0], ins[1]]);
    let a2 = g.add_op(OpKind::Add, vec![ins[2], ins[3]]);
    let m1 = g.add_op(OpKind::Mul, vec![g.result(a1).unwrap(), ins[4]]);
    let m2 = g.add_op(OpKind::Mul, vec![g.result(a2).unwrap(), ins[5]]);
    let a3 = g.add_op(OpKind::Add, vec![g.result(a1).unwrap(), ins[6]]);
    let a4 = g.add_op(
        OpKind::Add,
        vec![g.result(m1).unwrap(), g.result(m2).unwrap()],
    );
    g.label(a1, "a1");
    g.label(a2, "a2");
    g.label(a3, "a3");
    g.label(a4, "a4");
    g.label(m1, "m1");
    g.label(m2, "m2");
    g.set_output("r", g.result(a3).unwrap());
    g.set_output("s", g.result(a4).unwrap());
    (g, (a1, a2, a3, a4, m1, m2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_validate() {
        let (g3, _) = fig3_graph();
        g3.validate().unwrap();
        assert_eq!(g3.live_op_count(), 6);
        fig5_graph().0.validate().unwrap();
        fig6_graph().0.validate().unwrap();
    }
}
