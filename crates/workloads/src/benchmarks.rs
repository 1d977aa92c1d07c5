//! Classic high-level-synthesis benchmark data-flow graphs.
//!
//! These are the workloads the systems surveyed by the tutorial were
//! evaluated on in the late-1980s literature. `diffeq` follows the HAL
//! paper's operation mix exactly; `ewf` and `ar_lattice` are structural
//! reconstructions with the canonical operation counts (see DESIGN.md §2).

use hls_cdfg::{Cdfg, DataFlowGraph, Fx, OpKind, Region, ValueId};

/// Wraps a straight-line benchmark graph into a single-block behavior so
/// the end-to-end pipeline (and the design-space explorer) can consume it
/// like a compiled program: every DFG input becomes a behavior input,
/// every DFG output a behavior output.
pub fn to_cdfg(name: &str, dfg: DataFlowGraph) -> Cdfg {
    let mut cdfg = Cdfg::new(name);
    for &v in dfg.inputs() {
        let val = dfg.value(v);
        cdfg.declare_input(&val.name, val.width);
    }
    for (out, _) in dfg.outputs() {
        cdfg.declare_output(out);
    }
    let block = cdfg.add_block("entry", dfg);
    cdfg.set_body(Region::Block(block));
    cdfg
}

/// The HAL differential-equation benchmark (Paulin & Knight, DAC'87 —
/// tutorial reference \[22\]): one Euler step of `y'' + 3xy' + 3y = 0`.
///
/// 11 operations: 6 multiplies, 2 adds, 2 subtracts, 1 comparison.
/// Critical path: 4 steps (unit latency).
pub fn diffeq() -> DataFlowGraph {
    let mut g = DataFlowGraph::new();
    let x = g.add_input("x", 32);
    let y = g.add_input("y", 32);
    let u = g.add_input("u", 32);
    let dx = g.add_input("dx", 32);
    let a = g.add_input("a", 32);
    let three = g.add_const_value(Fx::from_i64(3));

    let m1 = g.add_op(OpKind::Mul, vec![three, x]); // 3x
    let m2 = g.add_op(OpKind::Mul, vec![u, dx]); // u·dx
    let m3 = g.add_op(
        OpKind::Mul,
        vec![g.result(m1).unwrap(), g.result(m2).unwrap()],
    );
    let m4 = g.add_op(OpKind::Mul, vec![three, y]); // 3y
    let m5 = g.add_op(OpKind::Mul, vec![g.result(m4).unwrap(), dx]);
    let m6 = g.add_op(OpKind::Mul, vec![u, dx]); // u·dx for the y update
    let s1 = g.add_op(OpKind::Sub, vec![u, g.result(m3).unwrap()]);
    let s2 = g.add_op(
        OpKind::Sub,
        vec![g.result(s1).unwrap(), g.result(m5).unwrap()],
    );
    let a1 = g.add_op(OpKind::Add, vec![x, dx]); // x1
    let a2 = g.add_op(OpKind::Add, vec![y, g.result(m6).unwrap()]); // y1
    let c = g.add_op(OpKind::Lt, vec![g.result(a1).unwrap(), a]);

    for (op, label) in [
        (m1, "m1"),
        (m2, "m2"),
        (m3, "m3"),
        (m4, "m4"),
        (m5, "m5"),
        (m6, "m6"),
        (s1, "s1"),
        (s2, "s2"),
        (a1, "a1"),
        (a2, "a2"),
        (c, "c"),
    ] {
        g.label(op, label);
    }
    g.set_output("x", g.result(a1).unwrap());
    g.set_output("y", g.result(a2).unwrap());
    g.set_output("u", g.result(s2).unwrap());
    g.set_output("going", g.result(c).unwrap());
    g
}

/// A fifth-order elliptic wave filter in the style of the classic EWF
/// benchmark: 34 operations (26 additions, 8 multiplications), three
/// parallel second-order sections feeding an output ladder.
///
/// Structural reconstruction — the canonical operation mix, moderate
/// parallelism (≈3 sections wide), long add chains with multiplier
/// side-branches (see DESIGN.md §2).
pub fn ewf() -> DataFlowGraph {
    let mut g = DataFlowGraph::new();
    let inp = g.add_input("in", 32);
    let states: Vec<ValueId> = (0..7).map(|i| g.add_input(&format!("s{i}"), 32)).collect();

    let mut adds = 0usize;
    let mut muls = 0usize;
    let mut add = |g: &mut DataFlowGraph, a: ValueId, b: ValueId| {
        let id = g.add_op(OpKind::Add, vec![a, b]);
        adds += 1;
        let label = format!("a{adds}");
        g.label(id, &label);
        g.result(id).unwrap()
    };
    let mut mul = |g: &mut DataFlowGraph, a: ValueId, b: ValueId| {
        let id = g.add_op(OpKind::Mul, vec![a, b]);
        muls += 1;
        let label = format!("m{muls}");
        g.label(id, &label);
        g.result(id).unwrap()
    };

    // Three parallel second-order sections (6 adds + 2 muls each).
    let mut section_out = Vec::new();
    let mut section_mid = Vec::new();
    for k in 0..3 {
        let sa = states[2 * k];
        let sb = states[2 * k + 1];
        let c1 = states[(2 * k + 2) % 7];
        let c2 = states[(2 * k + 3) % 7];
        let u1 = add(&mut g, inp, sa);
        let u2 = add(&mut g, u1, sb);
        let p1 = mul(&mut g, u2, c1);
        let u3 = add(&mut g, p1, sa);
        let u4 = add(&mut g, u3, u2);
        let p2 = mul(&mut g, u4, c2);
        let u5 = add(&mut g, p2, u3);
        let u6 = add(&mut g, u5, sb);
        section_out.push(u6);
        section_mid.push(u4);
    }

    // Output ladder (8 adds + 2 muls).
    let v1 = add(&mut g, section_out[0], section_out[1]);
    let v2 = add(&mut g, v1, section_out[2]);
    let q1 = mul(&mut g, v2, states[6]);
    let v3 = add(&mut g, q1, section_out[0]);
    let v4 = add(&mut g, v3, v2);
    let q2 = mul(&mut g, v4, states[0]);
    let v5 = add(&mut g, q2, v3);
    let v6 = add(&mut g, v5, section_mid[0]);
    let v7 = add(&mut g, v6, section_mid[1]);
    let v8 = add(&mut g, v7, section_mid[2]);

    g.set_output("out", v8);
    g.set_output("s0", section_out[0]);
    g.set_output("s1", section_out[1]);
    g.set_output("s2", section_out[2]);
    g.set_output("s3", v4);
    g
}

/// A 16-tap FIR filter with a serial accumulation chain: 16 multiplies and
/// 15 adds. The accumulation chain makes it the canonical loop-pipelining
/// workload.
pub fn fir16() -> DataFlowGraph {
    fir(16)
}

/// An `n`-tap FIR filter (serial accumulation).
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn fir(n: usize) -> DataFlowGraph {
    assert!(n >= 2, "FIR needs at least 2 taps");
    let mut g = DataFlowGraph::new();
    let xs: Vec<ValueId> = (0..n).map(|i| g.add_input(&format!("x{i}"), 32)).collect();
    let cs: Vec<ValueId> = (0..n).map(|i| g.add_input(&format!("c{i}"), 32)).collect();
    let mut acc: Option<ValueId> = None;
    for i in 0..n {
        let m = g.add_op(OpKind::Mul, vec![xs[i], cs[i]]);
        g.label(m, &format!("m{i}"));
        let mv = g.result(m).unwrap();
        acc = Some(match acc {
            None => mv,
            Some(prev) => {
                let a = g.add_op(OpKind::Add, vec![prev, mv]);
                g.label(a, &format!("a{i}"));
                g.result(a).unwrap()
            }
        });
    }
    g.set_output("y", acc.expect("n >= 2"));
    g
}

/// A two-stage auto-regressive lattice filter in the style of the classic
/// AR benchmark: 28 operations (16 multiplies, 12 adds), reconstruction
/// with the canonical op mix.
pub fn ar_lattice() -> DataFlowGraph {
    let mut g = DataFlowGraph::new();
    let mut f = g.add_input("f", 32);
    let mut b = g.add_input("b", 32);
    let ks: Vec<ValueId> = (0..8).map(|i| g.add_input(&format!("k{i}"), 32)).collect();
    let mut extra_muls = Vec::new();
    for stage in 0..4 {
        let k = ks[stage];
        let kq = ks[stage + 4];
        let m1 = g.add_op(OpKind::Mul, vec![k, b]);
        let m2 = g.add_op(OpKind::Mul, vec![kq, f]);
        let a1 = g.add_op(OpKind::Add, vec![f, g.result(m1).unwrap()]);
        let a2 = g.add_op(OpKind::Add, vec![b, g.result(m2).unwrap()]);
        g.label(m1, &format!("m{}a", stage));
        g.label(m2, &format!("m{}b", stage));
        g.label(a1, &format!("a{}a", stage));
        g.label(a2, &format!("a{}b", stage));
        f = g.result(a1).unwrap();
        b = g.result(a2).unwrap();
        // Energy side-products keep the multiplier pool busy, as in the
        // original benchmark's 16-multiply mix.
        let e1 = g.add_op(OpKind::Mul, vec![f, f]);
        let e2 = g.add_op(OpKind::Mul, vec![b, b]);
        extra_muls.push((e1, e2));
    }
    for (i, (e1, e2)) in extra_muls.iter().enumerate() {
        let s = g.add_op(
            OpKind::Add,
            vec![g.result(*e1).unwrap(), g.result(*e2).unwrap()],
        );
        g.label(s, &format!("e{i}"));
        g.set_output(&format!("energy{i}"), g.result(s).unwrap());
    }
    g.set_output("f", f);
    g.set_output("b", b);
    g
}

/// A radix-2 FFT butterfly on interleaved real/imaginary parts:
/// 4 multiplies, 3 adds, 3 subtracts.
pub fn fft_butterfly() -> DataFlowGraph {
    let mut g = DataFlowGraph::new();
    let ar = g.add_input("ar", 32);
    let ai = g.add_input("ai", 32);
    let br = g.add_input("br", 32);
    let bi = g.add_input("bi", 32);
    let wr = g.add_input("wr", 32);
    let wi = g.add_input("wi", 32);
    // t = w * b (complex)
    let m1 = g.add_op(OpKind::Mul, vec![br, wr]);
    let m2 = g.add_op(OpKind::Mul, vec![bi, wi]);
    let m3 = g.add_op(OpKind::Mul, vec![br, wi]);
    let m4 = g.add_op(OpKind::Mul, vec![bi, wr]);
    let tr = g.add_op(
        OpKind::Sub,
        vec![g.result(m1).unwrap(), g.result(m2).unwrap()],
    );
    let ti = g.add_op(
        OpKind::Add,
        vec![g.result(m3).unwrap(), g.result(m4).unwrap()],
    );
    // out0 = a + t, out1 = a - t
    let or0 = g.add_op(OpKind::Add, vec![ar, g.result(tr).unwrap()]);
    let oi0 = g.add_op(OpKind::Add, vec![ai, g.result(ti).unwrap()]);
    let or1 = g.add_op(OpKind::Sub, vec![ar, g.result(tr).unwrap()]);
    let oi1 = g.add_op(OpKind::Sub, vec![ai, g.result(ti).unwrap()]);
    g.set_output("or0", g.result(or0).unwrap());
    g.set_output("oi0", g.result(oi0).unwrap());
    g.set_output("or1", g.result(or1).unwrap());
    g.set_output("oi1", g.result(oi1).unwrap());
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(g: &DataFlowGraph, k: OpKind) -> usize {
        g.op_ids().filter(|&i| g.op(i).kind == k).count()
    }

    #[test]
    fn to_cdfg_wraps_and_validates() {
        let c = to_cdfg("ewf", ewf());
        c.validate().unwrap();
        assert_eq!(c.name(), "ewf");
        assert_eq!(c.inputs().len(), 8, "in + 7 states");
        assert_eq!(c.outputs().len(), 5);
        assert_eq!(c.total_ops(), 34);
    }

    #[test]
    fn diffeq_has_canonical_mix() {
        let g = diffeq();
        g.validate().unwrap();
        assert_eq!(count(&g, OpKind::Mul), 6);
        assert_eq!(count(&g, OpKind::Add), 2);
        assert_eq!(count(&g, OpKind::Sub), 2);
        assert_eq!(count(&g, OpKind::Lt), 1);
    }

    #[test]
    fn ewf_has_canonical_mix() {
        let g = ewf();
        g.validate().unwrap();
        assert_eq!(count(&g, OpKind::Add), 26);
        assert_eq!(count(&g, OpKind::Mul), 8);
        assert_eq!(g.live_op_count(), 34);
    }

    #[test]
    fn fir16_mix() {
        let g = fir16();
        g.validate().unwrap();
        assert_eq!(count(&g, OpKind::Mul), 16);
        assert_eq!(count(&g, OpKind::Add), 15);
    }

    #[test]
    fn ar_lattice_mix() {
        let g = ar_lattice();
        g.validate().unwrap();
        assert_eq!(count(&g, OpKind::Mul), 16);
        assert_eq!(count(&g, OpKind::Add), 12);
        assert_eq!(g.live_op_count(), 28);
    }

    #[test]
    fn butterfly_mix() {
        let g = fft_butterfly();
        g.validate().unwrap();
        assert_eq!(count(&g, OpKind::Mul), 4);
        assert_eq!(count(&g, OpKind::Add), 3);
        assert_eq!(count(&g, OpKind::Sub), 3);
    }

    #[test]
    fn fir_panics_below_two_taps() {
        assert!(std::panic::catch_unwind(|| fir(1)).is_err());
    }
}
