//! Exhaustive branch-and-bound scheduling (EXPL — tutorial reference [1]).
//!
//! "Exhaustive search ... looks through all possible designs, but of
//! course it is computationally very expensive and not practical for
//! sizable designs. [It] can be improved somewhat by using
//! branch-and-bound techniques, which cut off the search along any path
//! that can be recognized to be suboptimal" (§3.1.2).
//!
//! This scheduler finds a provably latency-optimal resource-constrained
//! schedule for small graphs, and serves as the ground truth against which
//! the heuristic schedulers are measured (experiment E8).

use hls_cdfg::DataFlowGraph;

use crate::bounds::SchedGraph;
use crate::list::{list_schedule_graph, Priority};
use crate::resource::{OpClassifier, ResourceLimits, StepUsage};
use crate::schedule::Schedule;
use crate::ScheduleError;

/// Default search-node budget.
pub const DEFAULT_NODE_BUDGET: u64 = 2_000_000;

/// Finds a latency-optimal schedule under `limits` by branch-and-bound,
/// seeded with a list-scheduling upper bound.
///
/// # Errors
///
/// Returns [`ScheduleError::SearchBudgetExhausted`] when more than
/// `node_budget` search nodes would be explored (the optimum is unknown),
/// plus the usual cycle/zero-resource errors.
pub fn branch_and_bound_schedule(
    dfg: &DataFlowGraph,
    classifier: &OpClassifier,
    limits: &ResourceLimits,
    node_budget: u64,
) -> Result<Schedule, ScheduleError> {
    branch_and_bound_schedule_graph(&SchedGraph::build(dfg, classifier)?, limits, node_budget)
}

/// [`branch_and_bound_schedule`] on an already-built (possibly cached)
/// [`SchedGraph`].
pub(crate) fn branch_and_bound_schedule_graph(
    sg: &SchedGraph,
    limits: &ResourceLimits,
    node_budget: u64,
) -> Result<Schedule, ScheduleError> {
    // Upper bound from list scheduling (also catches zero resources).
    let seed = list_schedule_graph(sg, limits, Priority::PathLength)?;
    let best_len = seed.num_steps();
    if best_len == 0 {
        return Ok(seed);
    }
    // Step-taking ops in topological order; wired and chained-free ops
    // are resolved, not searched.
    let (classes, class_idx) = sg.dense_classes();
    let order = sg
        .graph()
        .topo()
        .iter()
        .enumerate()
        .filter_map(|(pos, &i)| {
            let ci = class_idx[i as usize]?;
            Some(Slot {
                op: i as usize,
                ci,
                limit: limits.limit(classes[ci]),
                pos,
            })
        })
        .collect();
    let mut search = Search {
        sg,
        order,
        // Remaining path length below each op, in step-taking ops.
        tail: sg.path_weights(|i| u32::from(sg.class(i).is_some())),
        steps: vec![0; sg.len()],
        usage: StepUsage::new(classes.len()),
        best_len,
        best: seed,
        nodes: 0,
        budget: node_budget,
    };
    if search.dfs(0, 0) {
        return Err(ScheduleError::SearchBudgetExhausted);
    }
    Ok(search.best)
}

/// A step-taking op of the search order.
#[derive(Clone, Copy)]
struct Slot {
    /// Dense op index.
    op: usize,
    /// Dense class index.
    ci: usize,
    /// Units of that class.
    limit: usize,
    /// Position in the topological order.
    pos: usize,
}

struct Search<'a> {
    sg: &'a SchedGraph,
    order: Vec<Slot>,
    tail: Vec<u32>,
    /// Current step per dense op: placed step-taking ops, and the free
    /// ops resolved from them.
    steps: Vec<u32>,
    usage: StepUsage,
    best_len: u32,
    best: Schedule,
    nodes: u64,
    budget: u64,
}

impl Search<'_> {
    /// Places `order[idx..]`; returns `true` when the node budget ran out.
    fn dfs(&mut self, idx: usize, makespan: u32) -> bool {
        if self.nodes >= self.budget {
            return true;
        }
        self.nodes += 1;
        // Resolve the wired and chained-free ops between the previous
        // step-taking op and this one, in topological order: every
        // producer they read is placed or resolved before them.
        let from = idx.checked_sub(1).map_or(0, |p| self.order[p].pos + 1);
        let to = self.order.get(idx).map_or(self.sg.len(), |slot| slot.pos);
        for &f in &self.sg.graph().topo()[from..to] {
            let f = f as usize;
            self.steps[f] = self.sg.earliest_start(&self.steps, f);
        }
        let Some(&slot) = self.order.get(idx) else {
            if makespan < self.best_len {
                self.best_len = makespan;
                let mut s = Schedule::new();
                for i in 0..self.sg.len() {
                    let t = if self.sg.is_wired(i) {
                        0
                    } else {
                        self.steps[i]
                    };
                    s.assign(self.sg.op(i), t);
                }
                self.best = s;
            }
            return false;
        };
        let ready = self.sg.earliest_start(&self.steps, slot.op);
        // Prune: op at step t forces completion no earlier than
        // t + tail[op], so the latest start that can still *improve* on
        // best_len is best_len - 1 - tail[op].
        let horizon = self
            .best_len
            .saturating_sub(1)
            .saturating_sub(self.tail[slot.op]);
        for t in ready..=horizon {
            if self.usage.get(slot.ci, t) < slot.limit {
                self.usage.add(slot.ci, t);
                self.steps[slot.op] = t;
                if self.dfs(idx + 1, makespan.max(t + 1)) {
                    return true;
                }
                self.usage.remove(slot.ci, t);
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::list_schedule;
    use crate::resource::FuClass;
    use hls_workloads::figures::fig3_graph;

    #[test]
    fn finds_three_step_optimum_on_fig3() {
        let (g, _) = fig3_graph();
        let cls = OpClassifier::universal();
        let limits = ResourceLimits::universal(2);
        let s = branch_and_bound_schedule(&g, &cls, &limits, DEFAULT_NODE_BUDGET).unwrap();
        s.validate(&g, &cls, &limits).unwrap();
        assert_eq!(s.num_steps(), 3);
    }

    #[test]
    fn matches_serial_bound_with_one_fu() {
        let (g, _) = fig3_graph();
        let cls = OpClassifier::universal();
        let limits = ResourceLimits::single_universal();
        let s = branch_and_bound_schedule(&g, &cls, &limits, DEFAULT_NODE_BUDGET).unwrap();
        assert_eq!(s.num_steps(), 6);
    }

    #[test]
    fn optimal_on_diffeq_with_limited_multipliers() {
        let g = hls_workloads::benchmarks::diffeq();
        let cls = OpClassifier::typed();
        let limits = ResourceLimits::unlimited()
            .with(FuClass::Multiplier, 2)
            .with(FuClass::Alu, 2)
            .with(FuClass::Comparator, 1);
        let s = branch_and_bound_schedule(&g, &cls, &limits, DEFAULT_NODE_BUDGET).unwrap();
        s.validate(&g, &cls, &limits).unwrap();
        // Known optimum for HAL diffeq with 2 multipliers: 4 steps.
        assert_eq!(s.num_steps(), 4);
    }

    #[test]
    fn never_worse_than_list_scheduling() {
        let cls = OpClassifier::typed();
        for (name, g) in hls_workloads::all_benchmarks() {
            if g.live_op_count() > 16 {
                continue; // keep the exact search fast in unit tests
            }
            let limits = ResourceLimits::unlimited()
                .with(FuClass::Multiplier, 2)
                .with(FuClass::Alu, 1);
            let opt = branch_and_bound_schedule(&g, &cls, &limits, DEFAULT_NODE_BUDGET)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let heur = list_schedule(&g, &cls, &limits, Priority::PathLength).unwrap();
            assert!(opt.num_steps() <= heur.num_steps(), "{name}");
        }
    }

    #[test]
    fn tiny_budget_errors() {
        let (g, _) = fig3_graph();
        let cls = OpClassifier::universal();
        let limits = ResourceLimits::universal(2);
        assert_eq!(
            branch_and_bound_schedule(&g, &cls, &limits, 1),
            Err(ScheduleError::SearchBudgetExhausted)
        );
    }
}
