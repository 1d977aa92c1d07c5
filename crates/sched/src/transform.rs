//! Transformational scheduling (Yorktown Silicon Compiler style — tutorial
//! reference [4]).
//!
//! "A transformational type of algorithm begins with a default schedule,
//! usually either maximally serial or maximally parallel, and applies
//! transformations to it ... The transformations move serial operations in
//! parallel and parallel operations in series" (§3.1.2). Like the YSC we
//! start maximally parallel (unconstrained ASAP) and repeatedly *serialize*
//! — defer one op out of an over-subscribed step — until every resource
//! limit is met.

use std::cmp::Reverse;

use hls_cdfg::{DataFlowGraph, OpId};

use crate::bounds::SchedGraph;
use crate::resource::{OpClassifier, ResourceLimits, StepUsage};
use crate::schedule::Schedule;
use crate::ScheduleError;

/// A single serialization move, for trajectory reporting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Move {
    /// The deferred op.
    pub op: OpId,
    /// Its step before the move.
    pub from: u32,
    /// Its step after the move.
    pub to: u32,
}

/// Schedules `dfg` by iterative serialization from the maximally parallel
/// schedule. Returns the schedule and the move trajectory.
///
/// # Errors
///
/// Returns the usual cycle/zero-resource errors.
pub fn transformational_schedule(
    dfg: &DataFlowGraph,
    classifier: &OpClassifier,
    limits: &ResourceLimits,
) -> Result<(Schedule, Vec<Move>), ScheduleError> {
    transformational_schedule_graph(&SchedGraph::build(dfg, classifier)?, limits)
}

/// [`transformational_schedule`] on an already-built (possibly cached)
/// [`SchedGraph`].
pub(crate) fn transformational_schedule_graph(
    sg: &SchedGraph,
    limits: &ResourceLimits,
) -> Result<(Schedule, Vec<Move>), ScheduleError> {
    let n = sg.len();
    let (classes, class_idx) = sg.dense_classes();
    let limit = classes
        .iter()
        .map(|&class| limits.nonzero(class))
        .collect::<Result<Vec<_>, _>>()?;
    // Maximally parallel start.
    let (mut steps, _) = sg.asap();
    let priority = sg.path_weights(|_| 1);
    let mut moves = Vec::new();

    // Defensive bound: each move strictly increases the sum of steps, which
    // is bounded by ops * serial_length.
    let max_moves = (n as u64) * (n as u64) + 256;

    loop {
        let mut usage = StepUsage::new(classes.len());
        for (i, ci) in class_idx.iter().enumerate() {
            if let Some(ci) = *ci {
                usage.add(ci, steps[i]);
            }
        }
        // The earliest over-subscribed (step, class); ties between classes
        // go to the lowest class.
        let Some((step, ci)) = usage.first_over(|ci| limit[ci]) else {
            break;
        };
        // Serialize: among this step's ops of the violating class, defer
        // the one with the least downstream weight (ties to the highest id).
        let Some(victim) = (0..n)
            .filter(|&i| steps[i] == step && class_idx[i] == Some(ci))
            .min_by_key(|&i| (priority[i], Reverse(i)))
        else {
            break;
        };
        let to = step + 1;
        moves.push(Move {
            op: sg.op(victim),
            from: step,
            to,
        });
        steps[victim] = to;
        ripple_forward(sg, &mut steps, victim);
        if moves.len() as u64 > max_moves {
            return Err(ScheduleError::SearchBudgetExhausted);
        }
    }

    let mut schedule = Schedule::new();
    for (i, &s) in steps.iter().enumerate() {
        schedule.assign(sg.op(i), if sg.is_wired(i) { 0 } else { s });
    }
    Ok((schedule, moves))
}

/// Re-establishes precedence after `moved` slid later: every transitive
/// successor shifts to its new earliest start if needed.
fn ripple_forward(sg: &SchedGraph, steps: &mut [u32], moved: usize) {
    let mut work = vec![moved];
    while let Some(op) = work.pop() {
        for &succ in sg.graph().succs(op) {
            let succ = succ as usize;
            let min = sg.earliest_start(steps, succ);
            if steps[succ] < min {
                steps[succ] = min;
                work.push(succ);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::FuClass;
    use hls_workloads::figures::fig3_graph;

    #[test]
    fn meets_resource_limits_on_fig3() {
        let (g, _) = fig3_graph();
        let cls = OpClassifier::universal();
        let limits = ResourceLimits::universal(2);
        let (s, moves) = transformational_schedule(&g, &cls, &limits).unwrap();
        s.validate(&g, &cls, &limits).unwrap();
        assert!(!moves.is_empty(), "starting point violates the 2-FU limit");
        assert!(s.num_steps() <= 4);
    }

    #[test]
    fn no_moves_when_unconstrained() {
        let (g, _) = fig3_graph();
        let cls = OpClassifier::universal();
        let (s, moves) = transformational_schedule(&g, &cls, &ResourceLimits::unlimited()).unwrap();
        assert!(moves.is_empty());
        assert_eq!(s.num_steps(), 3, "stays maximally parallel");
    }

    #[test]
    fn serializes_fully_with_one_fu() {
        let (g, _) = fig3_graph();
        let cls = OpClassifier::universal();
        let limits = ResourceLimits::single_universal();
        let (s, _) = transformational_schedule(&g, &cls, &limits).unwrap();
        s.validate(&g, &cls, &limits).unwrap();
        assert_eq!(s.num_steps(), 6);
    }

    #[test]
    fn valid_on_benchmarks_with_tight_limits() {
        let cls = OpClassifier::typed();
        for (name, g) in hls_workloads::all_benchmarks() {
            let limits = ResourceLimits::unlimited()
                .with(FuClass::Multiplier, 1)
                .with(FuClass::Alu, 1)
                .with(FuClass::Comparator, 1);
            let (s, _) = transformational_schedule(&g, &cls, &limits)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            s.validate(&g, &cls, &limits)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
