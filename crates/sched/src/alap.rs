//! As-late-as-possible (ALAP) scheduling.
//!
//! The mirror of ASAP: every operation is pushed to the latest step that
//! still meets the deadline. Not a good scheduler on its own (it crowds
//! the final steps), but the source of the "latest start" half of every
//! mobility/freedom computation (§3.1.2), and a useful baseline.

use hls_cdfg::DataFlowGraph;

use crate::bounds::SchedGraph;
use crate::resource::{OpClassifier, ResourceLimits, StepUsage};
use crate::schedule::Schedule;
use crate::ScheduleError;

/// Schedules `dfg` as late as possible against `deadline` total steps,
/// packing ops backwards under `limits` (a step's over-subscribed ops
/// spill to *earlier* steps, the reverse of ASAP).
///
/// # Errors
///
/// Returns [`ScheduleError::DeadlineTooShort`] when the critical path does
/// not fit, [`ScheduleError::ZeroResource`] for required-but-absent
/// classes, and [`ScheduleError::SearchBudgetExhausted`] when resource
/// pressure pushes an op before step 0 (deadline infeasible under these
/// limits).
pub fn alap_schedule(
    dfg: &DataFlowGraph,
    classifier: &OpClassifier,
    limits: &ResourceLimits,
    deadline: u32,
) -> Result<Schedule, ScheduleError> {
    alap_schedule_graph(&SchedGraph::build(dfg, classifier)?, limits, deadline)
}

/// [`alap_schedule`] on an already-built (possibly cached) [`SchedGraph`].
pub(crate) fn alap_schedule_graph(
    sg: &SchedGraph,
    limits: &ResourceLimits,
    deadline: u32,
) -> Result<Schedule, ScheduleError> {
    let (_, cp) = sg.asap();
    if deadline < cp {
        return Err(ScheduleError::DeadlineTooShort {
            deadline,
            critical_path: cp,
        });
    }
    let unconstrained = sg.alap(deadline);
    let (classes, class_idx) = sg.dense_classes();
    let mut usage = StepUsage::new(classes.len());
    // Wired ops stay at step 0; every other slot is written before any
    // of its producers reads it (reverse topological order).
    let mut steps = vec![0u32; sg.len()];
    let mut schedule = Schedule::new();
    for &i in sg.graph().topo().iter().rev() {
        let i = i as usize;
        if sg.is_wired(i) {
            schedule.assign(sg.op(i), 0);
            continue;
        }
        // Latest step permitted by already-placed successors. A
        // step-taking successor that resource pressure spilled all the
        // way to step 0 leaves no room for its producers: the deadline
        // is infeasible under these limits, and saying so (rather than
        // clamping to step 0) is what keeps the output precedence-clean.
        let mut latest = unconstrained[i];
        for &s in sg.graph().succs(i) {
            let s = s as usize;
            if sg.is_wired(s) {
                continue;
            }
            let bound = if sg.is_free(s) {
                steps[s]
            } else {
                steps[s]
                    .checked_sub(1)
                    .ok_or(ScheduleError::SearchBudgetExhausted)?
            };
            latest = latest.min(bound);
        }
        if let Some(ci) = class_idx[i] {
            let limit = limits.nonzero(classes[ci])?;
            while usage.get(ci, latest) >= limit {
                latest = latest
                    .checked_sub(1)
                    .ok_or(ScheduleError::SearchBudgetExhausted)?;
            }
            usage.add(ci, latest);
        }
        steps[i] = latest;
        schedule.assign(sg.op(i), latest);
    }
    schedule.set_num_steps(deadline);
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_workloads::figures::fig3_graph;

    #[test]
    fn mirrors_asap_on_fig3() {
        let (g, ops) = fig3_graph();
        let cls = OpClassifier::universal();
        let s = alap_schedule(&g, &cls, &ResourceLimits::unlimited(), 3).unwrap();
        s.validate(&g, &cls, &ResourceLimits::unlimited()).unwrap();
        // The critical chain is pinned; fillers crowd the last step.
        assert_eq!(s.step(ops[1]), Some(0));
        assert_eq!(s.step(ops[3]), Some(1));
        assert_eq!(s.step(ops[5]), Some(2));
        assert_eq!(s.step(ops[0]), Some(2), "non-critical op pushed late");
    }

    #[test]
    fn resource_limits_spill_backwards() {
        let (g, _) = fig3_graph();
        let cls = OpClassifier::universal();
        let limits = ResourceLimits::universal(2);
        let s = alap_schedule(&g, &cls, &limits, 3).unwrap();
        s.validate(&g, &cls, &limits).unwrap();
        assert_eq!(s.num_steps(), 3);
    }

    #[test]
    fn infeasible_deadline_rejected() {
        let (g, _) = fig3_graph();
        let cls = OpClassifier::universal();
        assert!(matches!(
            alap_schedule(&g, &cls, &ResourceLimits::unlimited(), 2),
            Err(ScheduleError::DeadlineTooShort { .. })
        ));
        // 6 ops on 1 FU cannot fit 3 steps: pressure spills past step 0.
        assert!(alap_schedule(&g, &cls, &ResourceLimits::single_universal(), 3).is_err());
    }

    #[test]
    fn alap_complements_asap_for_mobility() {
        use crate::asap::asap_schedule;
        let (g, _) = fig3_graph();
        let cls = OpClassifier::universal();
        let asap = asap_schedule(&g, &cls, &ResourceLimits::unlimited()).unwrap();
        let alap = alap_schedule(&g, &cls, &ResourceLimits::unlimited(), 3).unwrap();
        for op in g.op_ids() {
            assert!(asap.step(op).unwrap() <= alap.step(op).unwrap(), "{op:?}");
        }
    }
}
