//! As-soon-as-possible (ASAP) scheduling — resource-constrained, purely
//! local (Fig. 3).
//!
//! "Operations are taken from the list in [topological] order and each is
//! put into the earliest control step possible, given its dependence on
//! other operations and the limits on resource usage" (§3.1.2). Because the
//! order gives no priority to the critical path, a less critical op can
//! grab a limited unit first and push critical ops later — the Fig. 3
//! pathology, demonstrated in this module's tests and in experiment E3.

use hls_cdfg::DataFlowGraph;

use crate::bounds::SchedGraph;
use crate::resource::{OpClassifier, ResourceLimits, StepUsage};
use crate::schedule::Schedule;
use crate::ScheduleError;

/// Schedules `dfg` with the ASAP algorithm (CMUDA/MIMOLA/Flamel style).
///
/// # Errors
///
/// Returns [`ScheduleError::Cycle`] on cyclic graphs and
/// [`ScheduleError::ZeroResource`] when a required class has zero units.
pub fn asap_schedule(
    dfg: &DataFlowGraph,
    classifier: &OpClassifier,
    limits: &ResourceLimits,
) -> Result<Schedule, ScheduleError> {
    asap_schedule_graph(&SchedGraph::build(dfg, classifier)?, limits)
}

/// [`asap_schedule`] on an already-built (possibly cached) [`SchedGraph`].
pub(crate) fn asap_schedule_graph(
    sg: &SchedGraph,
    limits: &ResourceLimits,
) -> Result<Schedule, ScheduleError> {
    let (classes, class_idx) = sg.dense_classes();
    let mut usage = StepUsage::new(classes.len());
    let mut steps = vec![0u32; sg.len()];
    let mut schedule = Schedule::new();
    for &i in sg.graph().topo() {
        let i = i as usize;
        let mut step = sg.earliest_start(&steps, i);
        // Wired and chained-free ops need no unit.
        if let Some(ci) = class_idx[i] {
            let limit = limits.nonzero(classes[ci])?;
            while usage.get(ci, step) >= limit {
                step += 1;
            }
            usage.add(ci, step);
        }
        steps[i] = step;
        schedule.assign(sg.op(i), step);
    }
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::FuClass;
    use hls_cdfg::OpKind;
    use hls_workloads::figures::fig3_graph;

    #[test]
    fn fig3_asap_blocks_critical_path() {
        let (g, ops) = fig3_graph();
        let cls = OpClassifier::universal();
        let limits = ResourceLimits::universal(2);
        let s = asap_schedule(&g, &cls, &limits).unwrap();
        s.validate(&g, &cls, &limits).unwrap();
        // op1 and op3 grabbed both adders in step 0.
        assert_eq!(s.step(ops[0]), Some(0));
        assert_eq!(s.step(ops[2]), Some(0));
        // The critical chain starts late: 4-step schedule.
        assert_eq!(s.step(ops[1]), Some(1), "critical op2 was blocked");
        assert_eq!(s.num_steps(), 4, "one step longer than optimal");
    }

    #[test]
    fn unlimited_resources_give_critical_path_length() {
        let (g, _) = fig3_graph();
        let cls = OpClassifier::universal();
        let s = asap_schedule(&g, &cls, &ResourceLimits::unlimited()).unwrap();
        assert_eq!(s.num_steps(), 3);
    }

    #[test]
    fn single_fu_serializes_everything() {
        let (g, _) = fig3_graph();
        let cls = OpClassifier::universal();
        let limits = ResourceLimits::single_universal();
        let s = asap_schedule(&g, &cls, &limits).unwrap();
        s.validate(&g, &cls, &limits).unwrap();
        assert_eq!(s.num_steps(), 6, "six ops, one FU");
    }

    #[test]
    fn zero_resource_is_an_error() {
        let (g, _) = fig3_graph();
        let cls = OpClassifier::universal();
        let limits = ResourceLimits::universal(0);
        assert_eq!(
            asap_schedule(&g, &cls, &limits),
            Err(ScheduleError::ZeroResource {
                class: FuClass::Universal
            })
        );
    }

    #[test]
    fn typed_resources_respected() {
        let mut g = DataFlowGraph::new();
        let x = g.add_input("x", 32);
        let y = g.add_input("y", 32);
        let m1 = g.add_op(OpKind::Mul, vec![x, y]);
        let m2 = g.add_op(OpKind::Mul, vec![x, x]);
        let a = g.add_op(
            OpKind::Add,
            vec![g.result(m1).unwrap(), g.result(m2).unwrap()],
        );
        g.set_output("z", g.result(a).unwrap());
        let cls = OpClassifier::typed();
        let limits = ResourceLimits::unlimited().with(FuClass::Multiplier, 1);
        let s = asap_schedule(&g, &cls, &limits).unwrap();
        s.validate(&g, &cls, &limits).unwrap();
        assert_eq!(s.num_steps(), 3, "serialized muls, then the add");
    }
}
