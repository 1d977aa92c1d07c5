//! Loop unrolling.
//!
//! "Loop unrolling can also be done in this case since the number of
//! iterations is fixed and small" (tutorial §2). Full unrolling merges all
//! iterations of a counted loop into a single basic block, letting the
//! scheduler overlap operations from different iterations.

use std::collections::HashMap;

use hls_cdfg::{Cdfg, DataFlowGraph, OpId, Region, ValueId};

/// Maximum total operations an unrolled block may contain; bigger loops are
/// left rolled to avoid code explosion.
pub const UNROLL_OP_BUDGET: usize = 4096;

/// Fully unrolls every counted loop whose body is a single block and whose
/// unrolled size stays within [`UNROLL_OP_BUDGET`]. Returns the number of
/// loops unrolled.
pub fn unroll_counted_loops(cdfg: &mut Cdfg) -> usize {
    let body = cdfg.body().clone();
    let mut count = 0;
    let new_body = unroll_region(cdfg, body, &mut count);
    cdfg.set_body(new_body);
    count
}

fn unroll_region(cdfg: &mut Cdfg, region: Region, count: &mut usize) -> Region {
    match region {
        Region::Block(b) => Region::Block(b),
        Region::Seq(rs) => Region::Seq(
            rs.into_iter()
                .map(|r| unroll_region(cdfg, r, count))
                .collect(),
        ),
        Region::If(mut i) => {
            i.then_region = Box::new(unroll_region(cdfg, *i.then_region, count));
            i.else_region = i
                .else_region
                .map(|e| Box::new(unroll_region(cdfg, *e, count)));
            Region::If(i)
        }
        Region::Loop(mut l) => {
            let inner = unroll_region(cdfg, *l.body, count);
            l.body = Box::new(inner);
            let Some(n) = l.trip_hint else {
                return Region::Loop(l);
            };
            let Region::Block(b) = *l.body else {
                return Region::Loop(l);
            };
            let body_ops = cdfg.block(b).dfg.live_op_count();
            if n == 0 || body_ops.saturating_mul(n as usize) > UNROLL_OP_BUDGET {
                return Region::Loop(l);
            }
            let Some(merged) = merge_iterations(&cdfg.block(b).dfg, n as usize, &l.exit_var) else {
                return Region::Loop(l);
            };
            let name = format!("{}_x{}", cdfg.block(b).name, n);
            let nb = cdfg.add_block(&name, merged);
            *count += 1;
            Region::Block(nb)
        }
    }
}

/// Builds one DFG equivalent to `n` sequential executions of `body`, or
/// `None` when the body is not schedulable (cyclic) and must stay rolled.
///
/// Live-outs of iteration *k* feed the matching live-ins of iteration
/// *k+1*; the loop-exit computation is dropped (the trip count is static).
fn merge_iterations(body: &DataFlowGraph, n: usize, exit_var: &str) -> Option<DataFlowGraph> {
    let order = body.topological_order().ok()?;
    let mut out = DataFlowGraph::new();
    // Current value of each variable in the merged block.
    let mut env: HashMap<String, ValueId> = HashMap::new();
    for _iter in 0..n {
        let mut vmap: HashMap<ValueId, ValueId> = HashMap::new();
        for &iv in body.inputs() {
            let v = body.value(iv);
            let merged_v = *env
                .entry(v.name.clone())
                .or_insert_with(|| out.add_input(&v.name, v.width));
            vmap.insert(iv, merged_v);
        }
        for &id in &order {
            let op = body.op(id);
            let operands: Vec<ValueId> = op.operands.iter().map(|v| vmap[v]).collect();
            let nid: OpId = out.add_op(op.kind, operands);
            out.op_mut(nid).constant = op.constant;
            out.op_mut(nid).memory = op.memory.clone();
            out.op_mut(nid).label = op.label.clone();
            if let (Some(old_r), Some(new_r)) = (op.result, out.result(nid)) {
                out.value_mut(new_r).width = body.value(old_r).width;
                out.value_mut(new_r).name = body.value(old_r).name.clone();
                vmap.insert(old_r, new_r);
            }
        }
        for (name, v) in body.outputs() {
            if name != exit_var {
                env.insert(name.clone(), vmap[v]);
            }
        }
    }
    for (name, v) in env {
        out.set_output(&name, v);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_cdfg::OpKind;

    const SQRT: &str = "
        program sqrt;
        input X; output Y; var I : int<4>;
        begin
          Y := 0.222222 + 0.888889 * X;
          I := 0;
          do
            Y := 0.5 * (Y + X / Y);
            I := I + 1;
          until I > 3;
        end.
    ";

    #[test]
    fn sqrt_loop_unrolls_four_times() {
        let mut cdfg = hls_lang::compile(SQRT).unwrap();
        assert_eq!(unroll_counted_loops(&mut cdfg), 1);
        cdfg.validate().unwrap();
        let blocks = cdfg.block_order();
        assert_eq!(blocks.len(), 2, "entry + unrolled body");
        let merged = &cdfg.block(blocks[1]).dfg;
        // 4 iterations x (div, add, mul, add(I+1)) step ops, plus 4 copies
        // of consts and 4 exit-test Gt ops (dead until DCE).
        let divs = merged
            .op_ids()
            .filter(|&i| merged.op(i).kind == OpKind::Div)
            .count();
        assert_eq!(divs, 4);
        // Iterations chain: Y of iter k feeds iter k+1, so only one X and
        // one Y input exist.
        let names: Vec<&str> = merged
            .inputs()
            .iter()
            .map(|&v| merged.value(v).name.as_str())
            .collect();
        assert!(names.contains(&"X") && names.contains(&"Y"));
        assert_eq!(names.len(), 3, "X, Y, I");
    }

    #[test]
    fn exit_tests_become_dead_after_unroll() {
        let mut cdfg = hls_lang::compile(SQRT).unwrap();
        unroll_counted_loops(&mut cdfg);
        let removed = crate::dce::eliminate_dead_code(&mut cdfg);
        // The four Gt tests and their bound constants die.
        assert!(removed >= 4, "removed {removed}");
        cdfg.validate().unwrap();
    }

    #[test]
    fn unknown_trip_count_left_rolled() {
        let mut cdfg = hls_lang::compile(
            "program t; input x; output y; var d : bit; begin
               y := x;
               do
                 y := y >> 1;
                 d := y < 1;
               until d = 1;
             end",
        )
        .unwrap();
        assert_eq!(unroll_counted_loops(&mut cdfg), 0);
        assert!(matches!(cdfg.body(), Region::Seq(_)));
    }
}
