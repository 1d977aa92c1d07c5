//! Property-based tests for the IR: construction invariants, topological
//! order, compaction, timing bounds, and fixed-point arithmetic.
//! Runs on the in-repo `hls-testkit` runner (no external proptest).

use hls_cdfg::{DataFlowGraph, Fx, OpKind, ValueId};
use hls_testkit::{forall, Config, SplitMix64};

/// Builds an arbitrary acyclic DFG from a recipe: each entry picks an
/// operator and two back-references into the values created so far.
fn build(recipe: &[(u8, u16, u16)], inputs: usize) -> DataFlowGraph {
    let mut g = DataFlowGraph::new();
    let mut values: Vec<ValueId> = (0..inputs.max(1))
        .map(|i| g.add_input(&format!("x{i}"), 32))
        .collect();
    for &(kind, a, b) in recipe {
        let kind = match kind % 6 {
            0 => OpKind::Add,
            1 => OpKind::Sub,
            2 => OpKind::Mul,
            3 => OpKind::And,
            4 => OpKind::Lt,
            _ => OpKind::Xor,
        };
        let a = values[a as usize % values.len()];
        let b = values[b as usize % values.len()];
        let op = g.add_op(kind, vec![a, b]);
        values.push(g.result(op).expect("binary op has a result"));
    }
    // Expose unused values so DCE-style reasoning never applies.
    let unused: Vec<ValueId> = g
        .value_ids()
        .filter(|&v| {
            g.value(v).uses.is_empty() && matches!(g.value(v).def, hls_cdfg::ValueDef::Op(_))
        })
        .collect();
    for (i, v) in unused.into_iter().enumerate() {
        g.set_output(&format!("y{i}"), v);
    }
    g
}

fn gen_recipe(rng: &mut SplitMix64, min: usize, max: usize) -> Vec<(u8, u16, u16)> {
    rng.vec(min, max, |r| {
        (r.next_u32() as u8, r.next_u32() as u16, r.next_u32() as u16)
    })
}

/// Topological order visits every live op exactly once, producers
/// before consumers.
#[test]
fn topological_order_is_sound() {
    forall(
        &Config::cases(64),
        |rng| (gen_recipe(rng, 0, 80), rng.usize_in(1, 6)),
        |(recipe, inputs)| {
            let g = build(recipe, *inputs);
            g.validate().unwrap();
            let order = g.topological_order().unwrap();
            assert_eq!(order.len(), g.live_op_count());
            let pos: std::collections::HashMap<_, _> =
                order.iter().enumerate().map(|(i, &o)| (o, i)).collect();
            for op in g.op_ids() {
                for p in g.preds(op) {
                    assert!(pos[&p] < pos[&op]);
                }
            }
        },
    );
}

/// Compaction preserves live op count, edge count, and outputs.
#[test]
fn compaction_preserves_structure() {
    forall(
        &Config::cases(64),
        |rng| gen_recipe(rng, 0, 60),
        |recipe| {
            let g = build(recipe, 3);
            let ops = g.live_op_count();
            let edges = g.edge_count();
            let outs = g.outputs().len();
            let g2 = g.into_compacted();
            g2.validate().unwrap();
            assert_eq!(g2.live_op_count(), ops);
            assert_eq!(g2.edge_count(), edges);
            assert_eq!(g2.outputs().len(), outs);
        },
    );
}

/// Killing an op never corrupts use lists (validate still passes once
/// its dependents are gone too).
#[test]
fn kill_op_is_consistent() {
    forall(
        &Config::cases(64),
        |rng| (gen_recipe(rng, 1, 40), rng.next_u32() as u16),
        |(recipe, victim)| {
            let mut g = build(recipe, 2);
            let ops: Vec<_> = g.op_ids().collect();
            let v = ops[*victim as usize % ops.len()];
            // Kill the victim and everything downstream of it (and any output
            // records pointing into the killed cone).
            let mut cone = vec![v];
            let mut i = 0;
            while i < cone.len() {
                for s in g.succs(cone[i]) {
                    if !cone.contains(&s) {
                        cone.push(s);
                    }
                }
                i += 1;
            }
            let results: Vec<_> = cone.iter().filter_map(|&o| g.result(o)).collect();
            for op in &cone {
                g.kill_op(*op);
            }
            // Outputs referencing dead ops make validation fail (the documented
            // contract); with no such output the graph stays valid.
            if g.outputs().iter().any(|(_, v)| results.contains(v)) {
                assert!(g.validate().is_err());
            } else {
                assert!(g.validate().is_ok());
            }
            // Use lists never point at dead ops after a kill.
            for v in g.value_ids() {
                for &u in &g.value(v).uses {
                    assert!(!g.op(u).dead, "use list holds a dead op");
                }
            }
        },
    );
}

/// Fixed-point algebra: commutativity, associativity of add, shift =
/// scale, and division inverse (within representation error).
#[test]
fn fx_arithmetic_properties() {
    forall(
        &Config::cases(64),
        |rng| {
            (
                rng.i64_in(-1000, 1000),
                rng.i64_in(-1000, 1000),
                rng.i64_in(1, 500),
            )
        },
        |&(a, b, c)| {
            let (fa, fb, fc) = (Fx::from_i64(a), Fx::from_i64(b), Fx::from_i64(c));
            assert_eq!(fa + fb, fb + fa);
            assert_eq!(fa * fb, fb * fa);
            assert_eq!((fa + fb) + fc, fa + (fb + fc));
            assert_eq!(fa * Fx::from_i64(2), fa << 1);
            // (a / c) * c ≈ a within one LSB per magnitude bit.
            let round_trip = (fa / fc) * fc;
            let err = (round_trip - fa).abs().to_f64().abs();
            assert!(err <= c as f64 / 65536.0 + 1e-9, "err = {err}");
        },
    );
}

/// Integer wrap matches modular arithmetic.
#[test]
fn wrap_int_bits_is_modular() {
    forall(
        &Config::cases(64),
        |rng| (rng.i64_in(0, 100_000), rng.u32_in(1, 20) as u8),
        |&(v, w)| {
            let wrapped = Fx::from_i64(v).wrap_int_bits(w);
            assert_eq!(wrapped.to_i64(), v % (1i64 << w));
        },
    );
}
