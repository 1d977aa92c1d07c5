//! Seeded random data-flow-graph generation for scaling benchmarks.
//!
//! Generation runs on the in-repo [`SplitMix64`] PRNG rather than the
//! external `rand` crate, so the workspace builds offline and — unlike
//! `StdRng`, whose stream is not stability-guaranteed — a given seed
//! produces the same graph on every platform and Rust version forever
//! (see the golden-fingerprint test below).

use hls_cdfg::{DataFlowGraph, OpKind, ValueId};
use hls_testkit::SplitMix64;

/// Configuration for [`random_dag`].
#[derive(Clone, Debug, PartialEq)]
pub struct RandomDagConfig {
    /// Number of operations.
    pub ops: usize,
    /// Number of primary inputs.
    pub inputs: usize,
    /// How far back (in ops) an operand may reach; smaller values make
    /// deeper graphs.
    pub window: usize,
    /// Fraction (0..=1) of multiplies among generated ops; the rest are
    /// adds/subs.
    pub mul_ratio: f64,
    /// RNG seed (results are fully deterministic for a given config).
    pub seed: u64,
}

impl Default for RandomDagConfig {
    fn default() -> Self {
        RandomDagConfig {
            ops: 50,
            inputs: 8,
            window: 12,
            mul_ratio: 0.3,
            seed: 0xD1F0,
        }
    }
}

/// Generates a connected, acyclic random data-flow graph with the given
/// configuration. Every op result that ends up unused becomes a block
/// output, so dead-code elimination never shrinks the graph.
///
/// # Panics
///
/// Panics if `ops == 0` or `inputs == 0`.
pub fn random_dag(config: &RandomDagConfig) -> DataFlowGraph {
    assert!(
        config.ops > 0 && config.inputs > 0,
        "need at least one op and input"
    );
    let mut rng = SplitMix64::new(config.seed);
    let mut g = DataFlowGraph::new();
    let inputs: Vec<ValueId> = (0..config.inputs)
        .map(|i| g.add_input(&format!("x{i}"), 32))
        .collect();
    let mut values: Vec<ValueId> = inputs;
    for i in 0..config.ops {
        let kind = if rng.bool_with(config.mul_ratio.clamp(0.0, 1.0)) {
            OpKind::Mul
        } else if rng.bool_with(0.5) {
            OpKind::Add
        } else {
            OpKind::Sub
        };
        let lo = values.len().saturating_sub(config.window.max(1));
        let a = values[rng.usize_in(lo, values.len())];
        let b = values[rng.usize_in(lo, values.len())];
        let op = g.add_op(kind, vec![a, b]);
        g.label(op, &format!("op{i}"));
        values.push(g.result(op).expect("arith op has a result"));
    }
    // Expose every unused value as an output.
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

/// A stable 64-bit content fingerprint of a generated graph (FNV-1a over
/// its canonical `Debug` rendering). The golden-fingerprint test pins the
/// seed-0 graph, so any change to the generator or PRNG that alters
/// generated workloads is caught explicitly.
pub fn dag_fingerprint(g: &DataFlowGraph) -> u64 {
    use std::fmt::Write as _;
    let mut w = hls_testkit::FnvWriter::new();
    write!(w, "{g:?}").expect("FnvWriter never fails");
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let cfg = RandomDagConfig::default();
        let a = random_dag(&cfg);
        let b = random_dag(&cfg);
        assert_eq!(a.live_op_count(), b.live_op_count());
        assert_eq!(a.edge_count(), b.edge_count());
        let ka: Vec<OpKind> = a.op_ids().map(|i| a.op(i).kind).collect();
        let kb: Vec<OpKind> = b.op_ids().map(|i| b.op(i).kind).collect();
        assert_eq!(ka, kb);
    }

    #[test]
    fn golden_fingerprint_for_seed_zero() {
        // Pins the exact seed-0 graph. If this fails, the generator or
        // the PRNG stream changed: that silently invalidates every
        // benchmark baseline, so bump the constant only on purpose.
        let g = random_dag(&RandomDagConfig {
            seed: 0,
            ..Default::default()
        });
        assert_eq!(
            dag_fingerprint(&g),
            GOLDEN_SEED0,
            "{:#x}",
            dag_fingerprint(&g)
        );
    }

    const GOLDEN_SEED0: u64 = 0x5066_3B9F_3447_8B66;

    #[test]
    fn different_seeds_differ() {
        let a = random_dag(&RandomDagConfig {
            seed: 1,
            ..Default::default()
        });
        let b = random_dag(&RandomDagConfig {
            seed: 2,
            ..Default::default()
        });
        let ka: Vec<OpKind> = a.op_ids().map(|i| a.op(i).kind).collect();
        let kb: Vec<OpKind> = b.op_ids().map(|i| b.op(i).kind).collect();
        assert_ne!(ka, kb);
    }

    #[test]
    fn generated_graph_is_valid_and_full_size() {
        for ops in [1, 10, 100, 400] {
            let g = random_dag(&RandomDagConfig {
                ops,
                ..Default::default()
            });
            g.validate().unwrap();
            assert_eq!(g.live_op_count(), ops);
            assert!(!g.outputs().is_empty());
        }
    }
}
