//! Schedule types and validation.

use std::collections::{BTreeMap, HashMap};

use hls_cdfg::{BlockId, Cdfg, DataFlowGraph, LoopKind, OpId, OpKind, Region};

use crate::error::ScheduleError;
use crate::resource::{FuClass, OpClassifier, ResourceLimits};

/// A schedule of one basic block: a control step (0-based) for every live,
/// step-taking operation, plus the step at which free ops logically occur.
///
/// Steps are stored densely, one slot per arena ordinal
/// ([`OpId::index`](hls_cdfg::Id::index)), so lookups never hash and
/// iteration runs in ascending id order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Schedule {
    steps: Vec<Option<u32>>,
    len: usize,
    num_steps: u32,
}

impl Schedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns `op` to `step`, growing the step count as needed.
    pub fn assign(&mut self, op: OpId, step: u32) {
        let i = op.index();
        if self.steps.len() <= i {
            self.steps.resize(i + 1, None);
        }
        if self.steps[i].replace(step).is_none() {
            self.len += 1;
        }
        self.num_steps = self.num_steps.max(step + 1);
    }

    /// The step of `op`, if scheduled.
    pub fn step(&self, op: OpId) -> Option<u32> {
        self.steps.get(op.index()).copied().flatten()
    }

    /// Total number of control steps. Empty blocks take zero steps.
    pub fn num_steps(&self) -> u32 {
        self.num_steps
    }

    /// Raises the step count to at least `n` (used when trailing steps
    /// are reserved, e.g. up to a deadline); never lowers it.
    pub fn set_num_steps(&mut self, n: u32) {
        self.num_steps = self.num_steps.max(n);
    }

    /// Number of scheduled operations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates `(op, step)` pairs in ascending op-id order.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, u32)> + '_ {
        self.steps
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|s| (OpId::from_raw(i as u32), s)))
    }

    /// The scheduled ops sorted by step, then id: a walk over every step
    /// reads each op once instead of scanning them all per step.
    pub fn by_step(&self) -> StepOps {
        let mut ops: Vec<(u32, OpId)> = self.iter().map(|(op, step)| (step, op)).collect();
        ops.sort_unstable();
        StepOps(ops)
    }

    /// Per-class FU usage of each step, and the implied FU allocation
    /// (the per-step maximum — HAL's "the number of functional units
    /// allocated is the maximum number required in any control step").
    pub fn fu_usage(
        &self,
        dfg: &DataFlowGraph,
        classifier: &OpClassifier,
    ) -> BTreeMap<FuClass, usize> {
        let mut per_step: HashMap<(FuClass, u32), usize> = HashMap::new();
        for (op, step) in self.iter() {
            if let Some(class) = classifier.classify(dfg, op) {
                *per_step.entry((class, step)).or_insert(0) += 1;
            }
        }
        let mut max: BTreeMap<FuClass, usize> = BTreeMap::new();
        for ((class, _), n) in per_step {
            let e = max.entry(class).or_insert(0);
            *e = (*e).max(n);
        }
        max
    }

    /// Checks that the schedule is complete, respects data dependencies
    /// (free ops may share their consumers' step; step-taking producers
    /// must finish strictly before consumers start), and never exceeds
    /// `limits`.
    ///
    /// # Errors
    ///
    /// Returns the first violation.
    pub fn validate(
        &self,
        dfg: &DataFlowGraph,
        classifier: &OpClassifier,
        limits: &ResourceLimits,
    ) -> Result<(), ScheduleError> {
        for op in dfg.op_ids() {
            let Some(step) = self.step(op) else {
                return Err(ScheduleError::Unscheduled {
                    op: format!("{op:?}"),
                });
            };
            if is_wired(dfg, op) {
                continue; // constants have no timing constraints
            }
            let op_free = classifier.is_free(dfg, op);
            for pred in dfg.preds(op) {
                if is_wired(dfg, pred) {
                    continue;
                }
                let ps = self.step(pred).ok_or_else(|| ScheduleError::Unscheduled {
                    op: format!("{pred:?}"),
                })?;
                // A chained free consumer (e.g. the Fig. 2 free shift) may
                // share its producer's step; a step-taking consumer must
                // start after the producer's value registers.
                let ok = if op_free { ps <= step } else { ps < step };
                if !ok {
                    return Err(ScheduleError::PrecedenceViolated {
                        pred: format!("{pred:?}"),
                        succ: format!("{op:?}"),
                    });
                }
            }
        }
        let mut per_step: HashMap<(FuClass, u32), usize> = HashMap::new();
        for (op, step) in self.iter() {
            if dfg.op(op).dead {
                continue;
            }
            if let Some(class) = classifier.classify(dfg, op) {
                let n = per_step.entry((class, step)).or_insert(0);
                *n += 1;
                if *n > limits.limit(class) {
                    return Err(ScheduleError::ResourceExceeded {
                        class,
                        step,
                        used: *n,
                        limit: limits.limit(class),
                    });
                }
            }
        }
        Ok(())
    }

    /// Renders the schedule as a compact step table for reports.
    pub fn render(&self, dfg: &DataFlowGraph) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let by_step = self.by_step();
        for step in 0..self.num_steps {
            let labels: Vec<String> = by_step
                .ops_in(step)
                .map(|o| {
                    let op = dfg.op(o);
                    if op.label.is_empty() {
                        format!("{}", op.kind)
                    } else {
                        op.label.clone()
                    }
                })
                .collect();
            let _ = writeln!(s, "  step {:>2}: {}", step + 1, labels.join(", "));
        }
        s
    }
}

/// A schedule's ops sorted by (step, id) ([`Schedule::by_step`]).
#[derive(Clone, Debug)]
pub struct StepOps(Vec<(u32, OpId)>);

impl StepOps {
    /// The ops of `step`, in ascending id order.
    pub fn ops_in(&self, step: u32) -> impl Iterator<Item = OpId> + '_ {
        let start = self.0.partition_point(|&(s, _)| s < step);
        let run = self.0[start..].iter().take_while(move |&&(s, _)| s == step);
        run.map(|&(_, op)| op)
    }
}

/// `true` for operations with no timing footprint at all: constants,
/// whose value is always available.
pub(crate) fn is_wired(dfg: &DataFlowGraph, op: OpId) -> bool {
    dfg.op(op).kind == OpKind::Const
}

/// A schedule for a whole behavior: one [`Schedule`] per block.
#[derive(Clone, Debug, Default)]
pub struct CdfgSchedule {
    per_block: HashMap<BlockId, Schedule>,
}

impl CdfgSchedule {
    /// Creates an empty whole-behavior schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts the schedule of `block`.
    pub fn insert(&mut self, block: BlockId, schedule: Schedule) {
        self.per_block.insert(block, schedule);
    }

    /// The schedule of `block`, if present.
    pub fn block(&self, block: BlockId) -> Option<&Schedule> {
        self.per_block.get(&block)
    }

    /// Total latency in control steps of one complete execution, expanding
    /// counted loops by their trip hints.
    ///
    /// Loops without a trip hint count as a single iteration (a lower
    /// bound); [`CdfgSchedule::latency_with_default_trip`] lets callers pick
    /// another assumption.
    pub fn total_latency(&self, cdfg: &Cdfg) -> u64 {
        self.latency_with_default_trip(cdfg, 1)
    }

    /// Total latency, assuming `default_trip` iterations for loops without
    /// a static trip count.
    pub fn latency_with_default_trip(&self, cdfg: &Cdfg, default_trip: u64) -> u64 {
        self.region_latency(cdfg.body(), default_trip)
    }

    fn region_latency(&self, region: &Region, default_trip: u64) -> u64 {
        match region {
            Region::Block(b) => self
                .per_block
                .get(b)
                .map(|s| s.num_steps() as u64)
                .unwrap_or(0),
            Region::Seq(rs) => rs
                .iter()
                .map(|r| self.region_latency(r, default_trip))
                .sum(),
            Region::Loop(l) => {
                let body = self.region_latency(&l.body, default_trip);
                let cond = match (l.kind, l.cond_block) {
                    (LoopKind::While, Some(c)) => self
                        .per_block
                        .get(&c)
                        .map(|s| s.num_steps() as u64)
                        .unwrap_or(0),
                    _ => 0,
                };
                let trips = l.trip_hint.unwrap_or(default_trip);
                match l.kind {
                    // A while loop evaluates its condition trips+1 times.
                    LoopKind::While => trips * body + (trips + 1) * cond,
                    LoopKind::DoUntil => trips * body,
                }
            }
            Region::If(i) => {
                let cond = self
                    .per_block
                    .get(&i.cond_block)
                    .map(|s| s.num_steps() as u64)
                    .unwrap_or(0);
                let t = self.region_latency(&i.then_region, default_trip);
                let e = i
                    .else_region
                    .as_ref()
                    .map(|r| self.region_latency(r, default_trip))
                    .unwrap_or(0);
                cond + t.max(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_cdfg::{Fx, OpKind};

    fn two_op_block() -> (DataFlowGraph, OpId, OpId) {
        let mut g = DataFlowGraph::new();
        let x = g.add_input("x", 32);
        let a = g.add_op(OpKind::Inc, vec![x]);
        let b = g.add_op(OpKind::Neg, vec![g.result(a).unwrap()]);
        g.set_output("y", g.result(b).unwrap());
        (g, a, b)
    }

    #[test]
    fn assign_and_query() {
        let (g, a, b) = two_op_block();
        let mut s = Schedule::new();
        s.assign(a, 0);
        s.assign(b, 1);
        assert_eq!(s.num_steps(), 2);
        assert_eq!(s.step(a), Some(0));
        let by_step = s.by_step();
        assert_eq!(by_step.ops_in(1).collect::<Vec<_>>(), vec![b]);
        assert_eq!(by_step.ops_in(2).count(), 0);
        s.validate(&g, &OpClassifier::universal(), &ResourceLimits::unlimited())
            .unwrap();
    }

    #[test]
    fn precedence_violation_detected() {
        let (g, a, b) = two_op_block();
        let mut s = Schedule::new();
        s.assign(a, 1);
        s.assign(b, 1);
        let err = s
            .validate(&g, &OpClassifier::universal(), &ResourceLimits::unlimited())
            .unwrap_err();
        assert!(matches!(err, ScheduleError::PrecedenceViolated { .. }));
    }

    #[test]
    fn resource_violation_detected() {
        let mut g = DataFlowGraph::new();
        let x = g.add_input("x", 32);
        let a = g.add_op(OpKind::Inc, vec![x]);
        let b = g.add_op(OpKind::Neg, vec![x]);
        g.set_output("p", g.result(a).unwrap());
        g.set_output("q", g.result(b).unwrap());
        let mut s = Schedule::new();
        s.assign(a, 0);
        s.assign(b, 0);
        let err = s
            .validate(
                &g,
                &OpClassifier::universal(),
                &ResourceLimits::single_universal(),
            )
            .unwrap_err();
        assert!(matches!(err, ScheduleError::ResourceExceeded { .. }));
        s.validate(
            &g,
            &OpClassifier::universal(),
            &ResourceLimits::universal(2),
        )
        .unwrap();
    }

    #[test]
    fn free_ops_share_steps() {
        let mut g = DataFlowGraph::new();
        let x = g.add_input("x", 32);
        let one = g.add_const_value(Fx::ONE);
        let a = g.add_op(OpKind::Add, vec![x, x]);
        let sh = g.add_op(OpKind::Shr, vec![g.result(a).unwrap(), one]);
        g.set_output("y", g.result(sh).unwrap());
        let cls = OpClassifier::universal_free_shifts();
        let mut s = Schedule::new();
        // const & shift free; shift shares the adder's step.
        let const_op = g.op_ids().find(|&i| g.op(i).kind == OpKind::Const).unwrap();
        s.assign(const_op, 0);
        s.assign(a, 0);
        s.assign(sh, 0);
        s.validate(&g, &cls, &ResourceLimits::single_universal())
            .unwrap();
        assert_eq!(s.fu_usage(&g, &cls).get(&FuClass::Universal), Some(&1));
    }

    #[test]
    fn unscheduled_op_detected() {
        let (g, a, _) = two_op_block();
        let mut s = Schedule::new();
        s.assign(a, 0);
        let err = s
            .validate(&g, &OpClassifier::universal(), &ResourceLimits::unlimited())
            .unwrap_err();
        assert!(matches!(err, ScheduleError::Unscheduled { .. }));
    }

    #[test]
    fn fu_usage_reports_per_step_maximum() {
        let mut g = DataFlowGraph::new();
        let x = g.add_input("x", 32);
        let ops: Vec<OpId> = (0..3).map(|_| g.add_op(OpKind::Inc, vec![x])).collect();
        for (i, o) in ops.iter().enumerate() {
            g.set_output(&format!("o{i}"), g.result(*o).unwrap());
        }
        let mut s = Schedule::new();
        s.assign(ops[0], 0);
        s.assign(ops[1], 0);
        s.assign(ops[2], 1);
        let usage = s.fu_usage(&g, &OpClassifier::universal());
        assert_eq!(usage.get(&FuClass::Universal), Some(&2));
    }
}
