//! Exhaustive optimal binding ("mathematical programming" — Hafer,
//! tutorial reference [9]).
//!
//! "Formulation of allocation as a mathematical programming problem
//! involves creating a variable for each possible assignment of an
//! operation ... Finding an optimal solution requires exhaustive search,
//! which is very expensive" (§3.2.2). This module does exactly that — a
//! branch-and-bound over op→unit assignments minimizing a weighted sum of
//! unit count and multiplexer inputs — and serves as the ground truth the
//! greedy and clique heuristics are measured against (experiment E11).

use std::collections::BTreeSet;

use hls_cdfg::{DataFlowGraph, DenseMap, OpId};
use hls_sched::{FuClass, OpClassifier, Schedule};

use crate::datapath::Resolver;
use crate::error::AllocError;
use crate::fu::{FuAllocation, FuInstance};
use crate::interconnect::{connections, Connections, Sink};
use crate::registers::RegisterAllocation;
use crate::signal::Source;

/// Cost of one functional unit, in multiplexer-input equivalents.
pub const FU_WEIGHT: usize = 10;

/// An optimal (or best-found) binding.
#[derive(Clone, Debug)]
pub struct OptimalBinding {
    /// The binding.
    pub alloc: FuAllocation,
    /// Its cost: `FU_WEIGHT · units + mux_inputs`.
    pub cost: usize,
    /// `true` when the search completed within budget (provably optimal
    /// under this cost model).
    pub optimal: bool,
    /// Search nodes explored.
    pub nodes: u64,
}

/// Scores an existing allocation under the same cost model.
///
/// # Errors
///
/// As [`connections`].
pub fn binding_cost(
    dfg: &DataFlowGraph,
    classifier: &OpClassifier,
    schedule: &Schedule,
    regs: &RegisterAllocation,
    alloc: &FuAllocation,
) -> Result<usize, AllocError> {
    let conn = connections(dfg, classifier, schedule, regs, alloc)?;
    Ok(FU_WEIGHT * alloc.count() + conn.mux_inputs())
}

/// Exhaustively finds the minimum-cost binding, class by class.
///
/// Each class is independent under this cost model, so the search is run
/// per class and the results concatenated. `node_budget` bounds the total
/// nodes; when exceeded the best binding found so far is returned with
/// `optimal == false`.
///
/// # Errors
///
/// [`AllocError::UnboundValue`] for an operand read after its own step
/// without a register; [`AllocError::UnboundOp`] for an operand chained
/// from a same-step unit, which this search does not model.
pub fn exhaustive_binding(
    dfg: &DataFlowGraph,
    classifier: &OpClassifier,
    schedule: &Schedule,
    regs: &RegisterAllocation,
    node_budget: u64,
) -> Result<OptimalBinding, AllocError> {
    let mut classes: Vec<FuClass> = dfg
        .op_ids()
        .filter_map(|op| classifier.classify(dfg, op))
        .collect();
    classes.sort();
    classes.dedup();

    let no_units = DenseMap::default();
    let resolver = Resolver::new(dfg, classifier, schedule, &no_units, &regs.assignment);
    let mut alloc = FuAllocation::default();
    let mut total_cost = 0;
    let mut optimal = true;
    let mut nodes_used = 0u64;
    for class in classes {
        let ops: Vec<OpId> = {
            let mut v: Vec<OpId> = dfg
                .op_ids()
                .filter(|&op| classifier.classify(dfg, op) == Some(class))
                .collect();
            v.sort_by_key(|&op| (schedule.step(op), op));
            v
        };
        // Each op's operand sources, resolved once for the whole search.
        let sources = ops
            .iter()
            .map(|&op| {
                let step = schedule.step(op).unwrap_or(0);
                dfg.op(op)
                    .operands
                    .iter()
                    .map(|&v| resolver.source(v, step))
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut search = Search {
            dfg,
            schedule,
            ops: &ops,
            sources: &sources,
            conn: Connections::default(),
            best: None,
            best_cost: usize::MAX,
            nodes: 0,
            // Guarantee at least one complete depth-first descent per class
            // so a (possibly non-optimal) binding always exists.
            budget: node_budget
                .saturating_sub(nodes_used)
                .max(ops.len() as u64 + 2),
        };
        let mut units: Vec<Unit> = Vec::new();
        search.dfs(0, &mut units);
        nodes_used += search.nodes;
        optimal &= search.nodes < search.budget;
        total_cost += search.best_cost;
        // The budget floor above guarantees one full descent, so `best`
        // is populated; fall back to one-unit-per-op rather than rely on
        // that invariant with a panic.
        let best = search.best.unwrap_or_else(|| {
            ops.iter()
                .map(|&op| Unit {
                    ops: vec![op],
                    steps: schedule.step(op).into_iter().collect(),
                    ports: 0,
                })
                .collect()
        });
        let base = alloc.fus.len();
        for (i, unit) in best.iter().enumerate() {
            for &op in &unit.ops {
                alloc.binding.insert(op, base + i);
            }
            alloc.fus.push(FuInstance {
                class,
                ops: unit.ops.clone(),
                ports: unit
                    .ops
                    .iter()
                    .map(|&o| dfg.op(o).kind.arity())
                    .max()
                    .unwrap_or(2),
            });
        }
    }
    Ok(OptimalBinding {
        alloc,
        cost: total_cost,
        optimal,
        nodes: nodes_used,
    })
}

#[derive(Clone, Debug)]
struct Unit {
    ops: Vec<OpId>,
    steps: BTreeSet<u32>,
    /// Input ports, fixed by the op that opened the unit.
    ports: usize,
}

struct Search<'a> {
    dfg: &'a DataFlowGraph,
    schedule: &'a Schedule,
    ops: &'a [OpId],
    /// Per op (as `ops`), its operand sources.
    sources: &'a [Vec<Source>],
    /// The wiring of the units placed so far, by unit index.
    conn: Connections,
    best: Option<Vec<Unit>>,
    best_cost: usize,
    nodes: u64,
    budget: u64,
}

impl Search<'_> {
    fn dfs(&mut self, idx: usize, units: &mut Vec<Unit>) {
        if self.nodes >= self.budget {
            return;
        }
        self.nodes += 1;
        let cost = FU_WEIGHT * units.len() + self.conn.mux_inputs();
        if cost >= self.best_cost {
            return;
        }
        if idx == self.ops.len() {
            self.best_cost = cost;
            self.best = Some(units.clone());
            return;
        }
        let op = self.ops[idx];
        let step = self.schedule.step(op).unwrap_or(0);
        for u in 0..units.len() {
            if units[u].steps.contains(&step) {
                continue;
            }
            units[u].ops.push(op);
            units[u].steps.insert(step);
            let wired = self.wire(idx, u, units[u].ports);
            self.dfs(idx + 1, units);
            self.unwire(idx, u, &wired);
            units[u].steps.remove(&step);
            units[u].ops.pop();
        }

        // New unit (symmetry-broken: only ever append one new unit).
        let ports = self.dfg.op(op).kind.arity().max(1);
        units.push(Unit {
            ops: vec![op],
            steps: BTreeSet::from([step]),
            ports,
        });
        let wired = self.wire(idx, units.len() - 1, ports);
        self.dfs(idx + 1, units);
        self.unwire(idx, units.len() - 1, &wired);
        units.pop();
    }

    /// Wires op `idx`'s sources into the first `ports` ports of unit `u`;
    /// returns which wires are new.
    fn wire(&mut self, idx: usize, u: usize, ports: usize) -> Vec<bool> {
        self.sources[idx]
            .iter()
            .take(ports)
            .enumerate()
            .map(|(port, src)| self.conn.connect(Sink::Port { fu: u, port }, src))
            .collect()
    }

    /// Takes back the new wires of [`Search::wire`].
    fn unwire(&mut self, idx: usize, u: usize, wired: &[bool]) {
        let sources = self.sources;
        for ((port, src), &new) in sources[idx].iter().enumerate().zip(wired) {
            if new {
                self.conn.disconnect(Sink::Port { fu: u, port }, src);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fu::greedy_allocation;
    use crate::lifetime::value_intervals;
    use crate::registers::left_edge;
    use hls_sched::{asap_schedule, ResourceLimits};
    use hls_workloads::figures::fig6_graph;

    #[test]
    fn optimal_never_worse_than_greedy_on_fig6() {
        let (g, _) = fig6_graph();
        let cls = OpClassifier::typed();
        let s = asap_schedule(&g, &cls, &ResourceLimits::unlimited()).unwrap();
        let regs = left_edge(&value_intervals(&g, &s));
        let opt = exhaustive_binding(&g, &cls, &s, &regs, 5_000_000).unwrap();
        assert!(opt.optimal);
        assert!(opt.alloc.is_valid(&g, &cls, &s));
        let greedy = greedy_allocation(&g, &cls, &s, &regs, true).unwrap();
        let greedy_cost = binding_cost(&g, &cls, &s, &regs, &greedy).unwrap();
        assert!(opt.cost <= greedy_cost, "{} vs {greedy_cost}", opt.cost);
        // Greedy is near-optimal on Fig. 6: same unit count, within a couple
        // of mux inputs of the exhaustive optimum.
        assert_eq!(opt.alloc.count(), greedy.count());
        assert!(greedy_cost - opt.cost <= 2, "{} vs {greedy_cost}", opt.cost);
    }

    #[test]
    fn optimal_on_diffeq_within_budget() {
        let g = hls_workloads::benchmarks::diffeq();
        let cls = OpClassifier::typed();
        let s = asap_schedule(
            &g,
            &cls,
            &ResourceLimits::unlimited().with(FuClass::Multiplier, 2),
        )
        .unwrap();
        let regs = left_edge(&value_intervals(&g, &s));
        let opt = exhaustive_binding(&g, &cls, &s, &regs, 5_000_000).unwrap();
        assert!(opt.alloc.is_valid(&g, &cls, &s));
        let greedy = greedy_allocation(&g, &cls, &s, &regs, true).unwrap();
        assert!(opt.cost <= binding_cost(&g, &cls, &s, &regs, &greedy).unwrap());
    }

    #[test]
    fn budget_exhaustion_reports_non_optimal() {
        let g = hls_workloads::benchmarks::ewf();
        let cls = OpClassifier::typed();
        let s = asap_schedule(&g, &cls, &ResourceLimits::unlimited()).unwrap();
        let regs = left_edge(&value_intervals(&g, &s));
        let opt = exhaustive_binding(&g, &cls, &s, &regs, 500).unwrap();
        assert!(!opt.optimal);
        // Still returns a usable binding.
        assert!(opt.alloc.is_valid(&g, &cls, &s));
    }
}
