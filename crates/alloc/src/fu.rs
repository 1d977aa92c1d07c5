//! Functional-unit allocation and binding: greedy interconnect-aware
//! assignment (Fig. 6) and clique partitioning (Fig. 7).

use std::collections::{BTreeSet, HashMap, HashSet};

use hls_cdfg::{DataFlowGraph, DenseMap, OpId, ValueId};
use hls_sched::{FuClass, OpClassifier, Schedule};

use crate::clique::{partition_max_clique, partition_tseng, CompatGraph};
use crate::datapath::Resolver;
use crate::error::AllocError;
use crate::interconnect::{Connections, Sink};
use crate::registers::RegisterAllocation;
use crate::signal::Source;

/// One allocated functional unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuInstance {
    /// The unit's class.
    pub class: FuClass,
    /// Operations bound to it, in binding order.
    pub ops: Vec<OpId>,
    /// Input port count (the max arity among bound ops).
    pub ports: usize,
}

/// A complete FU allocation for one block.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FuAllocation {
    /// The allocated units.
    pub fus: Vec<FuInstance>,
    /// Unit index per operation.
    pub binding: DenseMap<OpId, usize>,
    /// Ops whose (commutative) operands were swapped to share port wiring.
    pub swapped: HashSet<OpId>,
}

impl FuAllocation {
    /// Number of units.
    pub fn count(&self) -> usize {
        self.fus.len()
    }

    /// Number of units of `class`.
    pub fn count_of(&self, class: FuClass) -> usize {
        self.fus.iter().filter(|f| f.class == class).count()
    }

    /// The operand order feeding the unit's ports (commutative swaps
    /// applied).
    pub fn port_order(&self, dfg: &DataFlowGraph, op: OpId) -> Vec<ValueId> {
        let mut operands = dfg.op(op).operands.clone();
        if self.swapped.contains(&op) && operands.len() == 2 {
            operands.swap(0, 1);
        }
        operands
    }

    /// Checks that each unit runs at most one op per step and only ops of
    /// its class.
    pub fn is_valid(
        &self,
        dfg: &DataFlowGraph,
        classifier: &OpClassifier,
        schedule: &Schedule,
    ) -> bool {
        for (idx, fu) in self.fus.iter().enumerate() {
            let mut steps = BTreeSet::new();
            for &op in &fu.ops {
                if self.binding.get(op) != Some(&idx) {
                    return false;
                }
                if classifier.classify(dfg, op) != Some(fu.class) {
                    return false;
                }
                match schedule.step(op) {
                    Some(s) if steps.insert(s) => {}
                    _ => return false,
                }
            }
        }
        // Every step-taking op bound exactly once.
        dfg.op_ids()
            .filter(|&op| classifier.classify(dfg, op).is_some())
            .all(|op| self.binding.get(op).is_some())
    }
}

/// Greedy, constructive FU allocation in control-step order (Fig. 6).
///
/// With `interconnect_aware` set, each op goes to the compatible free unit
/// whose existing connections make the assignment cheapest (new mux inputs
/// on input ports and the result register's input; operands beyond the
/// unit's current ports are not priced); ties break toward the lowest
/// unit index. Without it, the op takes the first free unit — the
/// figure's "without checking for interconnection costs" strawman.
///
/// # Errors
///
/// [`AllocError::UnboundValue`] for an operand read after its own step
/// without a register; [`AllocError::UnboundOp`] for a same-step
/// producer not yet bound.
pub fn greedy_allocation(
    dfg: &DataFlowGraph,
    classifier: &OpClassifier,
    schedule: &Schedule,
    regs: &RegisterAllocation,
    interconnect_aware: bool,
) -> Result<FuAllocation, AllocError> {
    let mut alloc = FuAllocation {
        binding: DenseMap::with_len(dfg.op_capacity()),
        ..FuAllocation::default()
    };
    let mut conn = Connections::default();
    // The last step each unit is busy in: steps only ascend, so a unit is
    // taken in `step` exactly when its last busy step is `step`.
    let mut last_busy: Vec<u32> = Vec::new();
    let mut sources: Vec<Source> = Vec::new();
    let by_step = schedule.by_step();

    for step in 0..schedule.num_steps() {
        for op in by_step.ops_in(step) {
            let Some(class) = classifier.classify(dfg, op) else {
                continue;
            };
            let arity = dfg.op(op).kind.arity();
            let commutative = dfg.op(op).kind.is_commutative();
            let resolver =
                Resolver::new(dfg, classifier, schedule, &alloc.binding, &regs.assignment);
            sources.clear();
            for &v in &dfg.op(op).operands {
                sources.push(resolver.source(v, step)?);
            }
            let dest = dfg.result(op).and_then(|r| regs.register_of(r));

            let mut best: Option<(usize, usize, bool)> = None; // (cost, fu, swap)
            for (f, fu) in alloc.fus.iter().enumerate() {
                if fu.class != class || last_busy[f] == step {
                    continue;
                }
                for swap in [false, true] {
                    if swap && !commutative {
                        continue;
                    }
                    let mut cost: usize = ordered(&sources, swap)
                        .take(fu.ports)
                        .enumerate()
                        .map(|(port, src)| conn.cost(Sink::Port { fu: f, port }, src))
                        .sum();
                    if let Some(r) = dest {
                        cost += conn.cost(Sink::Reg(r), &Source::Fu(f));
                    }
                    let better = match best {
                        None => true,
                        Some((bc, bf, _)) => {
                            if interconnect_aware {
                                cost < bc || (cost == bc && f < bf)
                            } else {
                                f < bf
                            }
                        }
                    };
                    if better {
                        best = Some((cost, f, swap));
                    }
                }
            }

            let (f, swap) = match best {
                Some((_, f, swap)) => (f, swap),
                None => {
                    alloc.fus.push(FuInstance {
                        class,
                        ops: Vec::new(),
                        ports: arity,
                    });
                    last_busy.push(step);
                    (alloc.fus.len() - 1, false)
                }
            };
            // Commit.
            alloc.binding.insert(op, f);
            alloc.fus[f].ops.push(op);
            alloc.fus[f].ports = alloc.fus[f].ports.max(arity);
            last_busy[f] = step;
            if swap {
                alloc.swapped.insert(op);
            }
            for (port, src) in ordered(&sources, swap).enumerate() {
                conn.connect(Sink::Port { fu: f, port }, src);
            }
            if let Some(r) = dest {
                conn.connect(Sink::Reg(r), &Source::Fu(f));
            }
        }
    }
    Ok(alloc)
}

/// The sources in port order, a commutative pair swapped on request.
fn ordered(sources: &[Source], swap: bool) -> impl Iterator<Item = &Source> {
    let swap = swap && sources.len() == 2;
    (0..sources.len()).map(move |i| &sources[if swap { 1 - i } else { i }])
}

/// Which clique-partitioning heuristic to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CliqueMethod {
    /// Repeated exact maximum cliques (Bron–Kerbosch).
    ExactMaxClique,
    /// Tseng/Siewiorek pairwise merging.
    Tseng,
}

/// Clique-partitioning FU allocation (Fig. 7): ops of the same class are
/// compatible when scheduled in different steps; each clique of the
/// compatibility graph shares one unit.
pub fn clique_allocation(
    dfg: &DataFlowGraph,
    classifier: &OpClassifier,
    schedule: &Schedule,
    method: CliqueMethod,
) -> FuAllocation {
    let mut alloc = FuAllocation {
        binding: DenseMap::with_len(dfg.op_capacity()),
        ..FuAllocation::default()
    };
    let mut classes: Vec<FuClass> = dfg
        .op_ids()
        .filter_map(|op| classifier.classify(dfg, op))
        .collect();
    classes.sort();
    classes.dedup();
    for class in classes {
        let ops: Vec<OpId> = dfg
            .op_ids()
            .filter(|&op| classifier.classify(dfg, op) == Some(class))
            .collect();
        let mut g = CompatGraph::new(ops.len());
        for i in 0..ops.len() {
            for j in i + 1..ops.len() {
                if schedule.step(ops[i]) != schedule.step(ops[j]) {
                    g.add_edge(i, j);
                }
            }
        }
        let groups = match method {
            CliqueMethod::ExactMaxClique => partition_max_clique(&g),
            CliqueMethod::Tseng => partition_tseng(&g),
        };
        for group in groups {
            let members: Vec<OpId> = group.iter().map(|&i| ops[i]).collect();
            let ports = members
                .iter()
                .map(|&o| dfg.op(o).kind.arity())
                .max()
                .unwrap_or(2);
            let idx = alloc.fus.len();
            for &m in &members {
                alloc.binding.insert(m, idx);
            }
            alloc.fus.push(FuInstance {
                class,
                ops: members,
                ports,
            });
        }
    }
    alloc
}

/// The lower bound on units of each class: the peak per-step concurrency.
pub fn fu_lower_bound(
    dfg: &DataFlowGraph,
    classifier: &OpClassifier,
    schedule: &Schedule,
) -> HashMap<FuClass, usize> {
    schedule.fu_usage(dfg, classifier).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime::value_intervals;
    use crate::registers::left_edge;
    use hls_sched::{asap_schedule, ResourceLimits};
    use hls_workloads::figures::fig6_graph;

    fn fig6_setup() -> (DataFlowGraph, Schedule, OpClassifier, RegisterAllocation) {
        let (g, _) = fig6_graph();
        let cls = OpClassifier::typed();
        let s = asap_schedule(&g, &cls, &ResourceLimits::unlimited()).unwrap();
        let regs = left_edge(&value_intervals(&g, &s));
        (g, s, cls, regs)
    }

    /// The Fig. 6 narrative: a2 lands on adder 2 (a1 holds adder 1 in the
    /// same step), and a4 goes back to adder 1 because the register holding
    /// its operand already feeds that adder.
    #[test]
    fn fig6_greedy_matches_paper() {
        let (g, s, cls, regs) = fig6_setup();
        let (_, ids) = fig6_graph();
        let (a1, a2, _a3, a4, m1, m2) = ids;
        let alloc = greedy_allocation(&g, &cls, &s, &regs, true).unwrap();
        assert!(alloc.is_valid(&g, &cls, &s));
        assert_eq!(alloc.count_of(FuClass::Alu), 2, "two adders");
        assert_eq!(alloc.count_of(FuClass::Multiplier), 2, "two multipliers");
        assert_ne!(alloc.binding[&a1], alloc.binding[&a2], "same step");
        assert_ne!(alloc.binding[&m1], alloc.binding[&m2], "same step");
        assert_eq!(
            alloc.binding[&a4], alloc.binding[&a1],
            "a4 reuses adder 1's register connection"
        );
    }

    #[test]
    fn fig6_aware_beats_blind_on_mux_cost() {
        let (g, s, cls, regs) = fig6_setup();
        let aware = greedy_allocation(&g, &cls, &s, &regs, true).unwrap();
        let blind = greedy_allocation(&g, &cls, &s, &regs, false).unwrap();
        let aware_cost = crate::interconnect::connections(&g, &cls, &s, &regs, &aware)
            .unwrap()
            .mux_inputs();
        let blind_cost = crate::interconnect::connections(&g, &cls, &s, &regs, &blind)
            .unwrap()
            .mux_inputs();
        assert!(
            aware_cost <= blind_cost,
            "aware {aware_cost} vs blind {blind_cost}"
        );
    }

    #[test]
    fn clique_allocation_matches_greedy_unit_count_on_fig6() {
        let (g, s, cls, _) = fig6_setup();
        for method in [CliqueMethod::ExactMaxClique, CliqueMethod::Tseng] {
            let alloc = clique_allocation(&g, &cls, &s, method);
            assert!(alloc.is_valid(&g, &cls, &s), "{method:?}");
            assert_eq!(alloc.count_of(FuClass::Alu), 2, "{method:?}");
            assert_eq!(alloc.count_of(FuClass::Multiplier), 2, "{method:?}");
            // The 3-op adder clique of Fig. 7.
            let adder_sizes: Vec<usize> = alloc
                .fus
                .iter()
                .filter(|f| f.class == FuClass::Alu)
                .map(|f| f.ops.len())
                .collect();
            assert!(adder_sizes.contains(&3), "{method:?}: {adder_sizes:?}");
        }
    }

    #[test]
    fn greedy_hits_lower_bound_on_benchmarks() {
        let cls = OpClassifier::typed();
        for (name, g) in hls_workloads::all_benchmarks() {
            let s = asap_schedule(&g, &cls, &ResourceLimits::unlimited()).unwrap();
            let regs = left_edge(&value_intervals(&g, &s));
            let alloc = greedy_allocation(&g, &cls, &s, &regs, true).unwrap();
            assert!(alloc.is_valid(&g, &cls, &s), "{name}");
            for (class, bound) in fu_lower_bound(&g, &cls, &s) {
                assert_eq!(
                    alloc.count_of(class),
                    bound,
                    "{name}: greedy adds units only when all are busy"
                );
            }
        }
    }

    #[test]
    fn commutative_swap_reuses_port_wiring() {
        // Two adds in different steps with mirrored operands: with swapping,
        // one adder and no new port sources.
        let mut g = DataFlowGraph::new();
        let x = g.add_input("x", 32);
        let y = g.add_input("y", 32);
        let a1 = g.add_op(hls_cdfg::OpKind::Add, vec![x, y]);
        let z = g.add_op(hls_cdfg::OpKind::Neg, vec![g.result(a1).unwrap()]);
        let a2 = g.add_op(hls_cdfg::OpKind::Add, vec![y, x]);
        g.set_output("p", g.result(z).unwrap());
        g.set_output("q", g.result(a2).unwrap());
        let cls = OpClassifier::typed();
        let s =
            asap_schedule(&g, &cls, &ResourceLimits::unlimited().with(FuClass::Alu, 1)).unwrap();
        let regs = left_edge(&value_intervals(&g, &s));
        let alloc = greedy_allocation(&g, &cls, &s, &regs, true).unwrap();
        let conn = crate::interconnect::connections(&g, &cls, &s, &regs, &alloc).unwrap();
        // a2's operands reuse a1's port wiring via the swap.
        if alloc.binding[&a2] == alloc.binding[&a1] {
            assert!(alloc.swapped.contains(&a2) || conn.mux_inputs() == 0);
        }
    }
}
