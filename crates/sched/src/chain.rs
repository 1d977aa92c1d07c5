//! Operator chaining under a cycle-time budget.
//!
//! The tutorial notes that "finding the most efficient possible schedule
//! for the real hardware requires knowing the delays for the different
//! operations" (§3.1.1). This scheduler uses per-operator propagation
//! delays and packs several dependent operations into one control step as
//! long as the combinational path fits in the clock cycle.

use std::collections::HashMap;

use hls_cdfg::{DataFlowGraph, DenseMap, OpId, OpKind};

use crate::bounds::SchedGraph;
use crate::resource::{OpClassifier, ResourceLimits, StepUsage};
use crate::schedule::{is_wired, Schedule};
use crate::ScheduleError;

/// Per-operator propagation delays in nanoseconds.
#[derive(Clone, Debug, PartialEq)]
pub struct DelayModel {
    delays: HashMap<OpKind, f64>,
    /// Delay of operators not listed explicitly.
    pub default_ns: f64,
}

impl DelayModel {
    /// A representative 1988-era 32-bit datapath: ripple-carry adds ~20 ns,
    /// array multiply ~80 ns, iterative divide ~160 ns, mux/logic a few ns.
    pub fn standard() -> Self {
        let mut delays = HashMap::new();
        for (k, d) in [
            (OpKind::Add, 20.0),
            (OpKind::Sub, 20.0),
            (OpKind::Inc, 12.0),
            (OpKind::Dec, 12.0),
            (OpKind::Neg, 12.0),
            (OpKind::Copy, 2.0),
            (OpKind::Mul, 80.0),
            (OpKind::Div, 160.0),
            (OpKind::Mod, 160.0),
            (OpKind::Shl, 4.0),
            (OpKind::Shr, 4.0),
            (OpKind::And, 2.0),
            (OpKind::Or, 2.0),
            (OpKind::Xor, 3.0),
            (OpKind::Not, 1.5),
            (OpKind::Eq, 10.0),
            (OpKind::Ne, 10.0),
            (OpKind::Lt, 14.0),
            (OpKind::Le, 14.0),
            (OpKind::Gt, 14.0),
            (OpKind::Ge, 14.0),
            (OpKind::Mux, 3.0),
            (OpKind::Const, 0.0),
            (OpKind::Load, 40.0),
            (OpKind::Store, 40.0),
        ] {
            delays.insert(k, d);
        }
        DelayModel {
            delays,
            default_ns: 20.0,
        }
    }

    /// Delay of `kind` in nanoseconds.
    pub fn delay(&self, kind: OpKind) -> f64 {
        self.delays.get(&kind).copied().unwrap_or(self.default_ns)
    }

    /// Overrides the delay of `kind` (builder style).
    pub fn with(mut self, kind: OpKind, ns: f64) -> Self {
        self.delays.insert(kind, ns);
        self
    }
}

impl Default for DelayModel {
    fn default() -> Self {
        Self::standard()
    }
}

/// A schedule annotated with intra-step start times (for chained ops).
#[derive(Clone, Debug)]
pub struct ChainedSchedule {
    /// The control-step schedule.
    pub schedule: Schedule,
    /// Nanosecond offset of each op within its step (0 for wired ops).
    pub start_ns: DenseMap<OpId, f64>,
    /// The longest combinational path in any step — the minimum feasible
    /// clock period for this schedule.
    pub critical_ns: f64,
}

impl ChainedSchedule {
    /// Checks chaining-aware precedence (a consumer in the same step must
    /// start no earlier than its producer finishes; across steps, strictly
    /// later) and resource limits.
    ///
    /// Note that [`Schedule::validate`] uses unit-latency rules and will
    /// reject chained schedules; use this method instead.
    ///
    /// # Errors
    ///
    /// Returns the first violation.
    pub fn verify(
        &self,
        dfg: &DataFlowGraph,
        classifier: &OpClassifier,
        limits: &ResourceLimits,
        delays: &DelayModel,
    ) -> Result<(), ScheduleError> {
        let mut usage: HashMap<(crate::FuClass, u32), usize> = HashMap::new();
        for op in dfg.op_ids() {
            let step = self
                .schedule
                .step(op)
                .ok_or_else(|| ScheduleError::Unscheduled {
                    op: format!("{op:?}"),
                })?;
            if is_wired(dfg, op) {
                continue;
            }
            let start = self.start_ns.get(op).copied().unwrap_or(0.0);
            for pred in dfg.preds(op) {
                if is_wired(dfg, pred) {
                    continue;
                }
                let ps = self.schedule.step(pred).unwrap_or(0);
                let pf = self.start_ns.get(pred).copied().unwrap_or(0.0)
                    + delays.delay(dfg.op(pred).kind);
                let ok = ps < step || (ps == step && start + 1e-9 >= pf);
                if !ok {
                    return Err(ScheduleError::PrecedenceViolated {
                        pred: format!("{pred:?}"),
                        succ: format!("{op:?}"),
                    });
                }
            }
            if let Some(class) = classifier.classify(dfg, op) {
                let u = usage.entry((class, step)).or_insert(0);
                *u += 1;
                if *u > limits.limit(class) {
                    return Err(ScheduleError::ResourceExceeded {
                        class,
                        step,
                        used: *u,
                        limit: limits.limit(class),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Schedules `dfg` with operator chaining: dependent ops share a control
/// step while their summed delay fits within `cycle_ns`.
///
/// Operators slower than the cycle time get a step to themselves (their
/// delay sets [`ChainedSchedule::critical_ns`] — the clock must stretch).
///
/// # Errors
///
/// Returns the usual cycle/zero-resource errors.
pub fn chained_schedule(
    dfg: &DataFlowGraph,
    classifier: &OpClassifier,
    limits: &ResourceLimits,
    delays: &DelayModel,
    cycle_ns: f64,
) -> Result<ChainedSchedule, ScheduleError> {
    let sg = SchedGraph::build(dfg, classifier)?;
    let (classes, class_idx) = sg.dense_classes();
    let mut schedule = Schedule::new();
    let mut start_ns = DenseMap::filled(dfg.op_capacity(), 0.0);
    // Per dense op: (step, ns at end). Wired ops finish at (0, 0 ns).
    let mut finish = vec![(0u32, 0.0f64); sg.len()];
    let mut usage = StepUsage::new(classes.len());
    let mut critical: f64 = 0.0;

    for &i in sg.graph().topo() {
        let i = i as usize;
        let op = sg.op(i);
        if sg.is_wired(i) {
            schedule.assign(op, 0);
            continue;
        }
        let d = delays.delay(dfg.op(op).kind);
        let preds: Vec<(u32, f64)> = sg
            .graph()
            .preds(i)
            .iter()
            .map(|&p| p as usize)
            .filter(|&p| !sg.is_wired(p))
            .map(|p| finish[p])
            .collect();
        // Earliest feasible step from predecessors: chain into a pred's
        // step if the path still fits.
        let mut step = preds
            .iter()
            .map(|&(ps, pf)| if pf + d <= cycle_ns { ps } else { ps + 1 })
            .max()
            .unwrap_or(0);
        loop {
            // Intra-step arrival time from chained predecessors.
            let arrive = preds
                .iter()
                .map(|&(ps, pf)| if ps == step { pf } else { 0.0 })
                .fold(0.0f64, f64::max);
            if arrive + d > cycle_ns && arrive > 0.0 {
                step += 1;
                continue;
            }
            // Resource check (free ops skip it).
            if let Some(ci) = class_idx[i] {
                if usage.get(ci, step) >= limits.nonzero(classes[ci])? {
                    step += 1;
                    continue;
                }
                usage.add(ci, step);
            }
            let end = arrive + d;
            schedule.assign(op, step);
            start_ns.insert(op, arrive);
            finish[i] = (step, end);
            critical = critical.max(end);
            break;
        }
    }
    Ok(ChainedSchedule {
        schedule,
        start_ns,
        critical_ns: critical.max(cycle_ns.min(critical)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_cdfg::OpId;

    /// add -> add -> add chain plus a mul.
    fn chain_graph() -> (DataFlowGraph, Vec<OpId>) {
        let mut g = DataFlowGraph::new();
        let x = g.add_input("x", 32);
        let y = g.add_input("y", 32);
        let a1 = g.add_op(OpKind::Add, vec![x, y]);
        let a2 = g.add_op(OpKind::Add, vec![g.result(a1).unwrap(), y]);
        let a3 = g.add_op(OpKind::Add, vec![g.result(a2).unwrap(), x]);
        let m = g.add_op(OpKind::Mul, vec![x, y]);
        g.set_output("p", g.result(a3).unwrap());
        g.set_output("q", g.result(m).unwrap());
        (g, vec![a1, a2, a3, m])
    }

    #[test]
    fn three_adds_chain_into_one_step_with_generous_clock() {
        let (g, ops) = chain_graph();
        let cls = OpClassifier::typed();
        let cs = chained_schedule(
            &g,
            &cls,
            &ResourceLimits::unlimited(),
            &DelayModel::standard(),
            100.0,
        )
        .unwrap();
        assert_eq!(cs.schedule.step(ops[0]), Some(0));
        assert_eq!(cs.schedule.step(ops[1]), Some(0));
        assert_eq!(cs.schedule.step(ops[2]), Some(0));
        assert_eq!(cs.start_ns[&ops[2]], 40.0);
        assert_eq!(cs.schedule.num_steps(), 1);
    }

    #[test]
    fn tight_clock_breaks_the_chain() {
        let (g, ops) = chain_graph();
        let cls = OpClassifier::typed();
        // 25 ns: one 20 ns add per step; the 80 ns mul overhangs (clock
        // stretch reported via critical_ns).
        let cs = chained_schedule(
            &g,
            &cls,
            &ResourceLimits::unlimited(),
            &DelayModel::standard(),
            25.0,
        )
        .unwrap();
        assert_eq!(cs.schedule.step(ops[0]), Some(0));
        assert_eq!(cs.schedule.step(ops[1]), Some(1));
        assert_eq!(cs.schedule.step(ops[2]), Some(2));
        assert!(cs.critical_ns >= 80.0, "mul stretches the clock");
    }

    #[test]
    fn chaining_shortens_schedules() {
        let (g, _) = chain_graph();
        let cls = OpClassifier::typed();
        let fast = chained_schedule(
            &g,
            &cls,
            &ResourceLimits::unlimited(),
            &DelayModel::standard(),
            60.0,
        )
        .unwrap();
        let slow = chained_schedule(
            &g,
            &cls,
            &ResourceLimits::unlimited(),
            &DelayModel::standard(),
            20.0,
        )
        .unwrap();
        assert!(fast.schedule.num_steps() < slow.schedule.num_steps());
    }

    #[test]
    fn respects_resource_limits_while_chaining() {
        let (g, _) = chain_graph();
        let cls = OpClassifier::typed();
        let limits = ResourceLimits::unlimited().with(crate::FuClass::Alu, 1);
        let cs = chained_schedule(&g, &cls, &limits, &DelayModel::standard(), 100.0).unwrap();
        cs.verify(&g, &cls, &limits, &DelayModel::standard())
            .unwrap();
        // With one ALU the adds cannot chain: three separate steps.
        assert!(cs.schedule.num_steps() >= 3);
    }

    #[test]
    fn verify_accepts_chained_and_rejects_broken() {
        let (g, ops) = chain_graph();
        let cls = OpClassifier::typed();
        let limits = ResourceLimits::unlimited();
        let dm = DelayModel::standard();
        let mut cs = chained_schedule(&g, &cls, &limits, &dm, 100.0).unwrap();
        cs.verify(&g, &cls, &limits, &dm).unwrap();
        // Break it: pretend a2 starts before a1 finishes.
        cs.start_ns.insert(ops[1], 0.0);
        assert!(cs.verify(&g, &cls, &limits, &dm).is_err());
    }
}
