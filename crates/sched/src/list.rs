//! List scheduling with pluggable priority functions (Fig. 4).
//!
//! "For each control step to be scheduled, the operations that are
//! available to be scheduled into that control step ... are kept in a list,
//! ordered by some priority function. Each operation on the list is taken
//! in turn and is scheduled if the resources it needs are still free in
//! that step; otherwise it is deferred to the next step" (§3.1.2).
//!
//! The ready set is maintained incrementally over the dense [`SchedGraph`]:
//! each op tracks its count of unscheduled (non-wired) producers and its
//! earliest feasible step, both updated in O(1) per dependence edge as
//! producers land — no per-step re-derivation of readiness from hash maps.

use hls_cdfg::DataFlowGraph;

use crate::bounds::SchedGraph;
use crate::resource::{OpClassifier, ResourceLimits};
use crate::schedule::Schedule;
use crate::ScheduleError;

/// The priority function ordering the ready list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Length of the longest dependence path from the op to the end of the
    /// block — BUD's priority; higher goes first.
    PathLength,
    /// Urgency (Elf, ISYN): distance to the nearest deadline, i.e. the
    /// ALAP step against the critical-path deadline; lower ALAP goes first.
    Urgency,
    /// Mobility (ALAP − ASAP); lower mobility goes first.
    Mobility,
}

impl Priority {
    /// Display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Priority::PathLength => "path-length",
            Priority::Urgency => "urgency",
            Priority::Mobility => "mobility",
        }
    }
}

/// Schedules `dfg` by list scheduling under `limits` with the given
/// priority.
///
/// # Errors
///
/// Returns [`ScheduleError::Cycle`] on cyclic graphs and
/// [`ScheduleError::ZeroResource`] when a required class has zero units.
pub fn list_schedule(
    dfg: &DataFlowGraph,
    classifier: &OpClassifier,
    limits: &ResourceLimits,
    priority: Priority,
) -> Result<Schedule, ScheduleError> {
    list_schedule_graph(&SchedGraph::build(dfg, classifier)?, limits, priority)
}

/// [`list_schedule`] on an already-built (possibly cached) [`SchedGraph`].
pub(crate) fn list_schedule_graph(
    sg: &SchedGraph,
    limits: &ResourceLimits,
    priority: Priority,
) -> Result<Schedule, ScheduleError> {
    let n = sg.len();
    let rank = compute_rank(sg, priority);
    let (classes, class_idx) = sg.dense_classes();
    let mut schedule = Schedule::new();
    let mut scheduled = vec![false; n];
    let mut remaining = n;
    // Incremental readiness: producers left to land, and the earliest step
    // permitted by the producers that have.
    let mut pending_preds = vec![0u32; n];
    let mut est = vec![0u32; n];
    for (i, pending) in pending_preds.iter_mut().enumerate() {
        *pending = sg
            .graph()
            .preds(i)
            .iter()
            .filter(|&&p| !sg.is_wired(p as usize))
            .count() as u32;
    }
    // steps[i] is meaningful once scheduled[i]; it feeds successor `est`s.
    let mut steps = vec![0u32; n];

    // Lands op `i` at step `t` and refreshes successor readiness. Wired
    // producers constrain nothing (their value is always available), so
    // their landing leaves `est`/`pending_preds` untouched.
    macro_rules! land {
        ($i:expr, $t:expr, $free_ready:expr) => {{
            let (i, t) = ($i, $t);
            steps[i] = t;
            scheduled[i] = true;
            remaining -= 1;
            schedule.assign(sg.op(i), t);
            if !sg.is_wired(i) {
                for &s in sg.graph().succs(i) {
                    let s = s as usize;
                    let min = if sg.is_free(s) { t } else { t + 1 };
                    est[s] = est[s].max(min);
                    pending_preds[s] -= 1;
                    if pending_preds[s] == 0 && sg.is_free(s) {
                        $free_ready.push(s);
                    }
                }
            }
        }};
    }

    // Free ops bind as soon as their predecessors are placed; seed with
    // the source free ops (constants included — they are free with no
    // producers).
    let mut free_ready: Vec<usize> = (0..n)
        .filter(|&i| sg.is_free(i) && pending_preds[i] == 0)
        .collect();

    let mut cs = 0u32;
    let mut guard = 0usize;
    let mut ready: Vec<usize> = Vec::new();
    // Per-class occupancy of the current step only; cheaper than a map
    // keyed by (class, step) and equivalent because `cs` only advances.
    let mut used_now = vec![0usize; classes.len()];
    while remaining > 0 {
        guard += 1;
        if guard > 4 * n + 64 {
            // Every iteration of the outer loop either schedules an op or
            // advances the step past an op's ready time, so this cannot
            // trigger on valid inputs; it guards against zero limits that
            // slipped through classification changes.
            if let Some(class) = (0..n).find(|&i| !scheduled[i]).and_then(|i| sg.class(i)) {
                limits.nonzero(class)?;
            }
            return Err(ScheduleError::SearchBudgetExhausted);
        }
        // Drain chains of free ops (each landing may ready more).
        while let Some(i) = free_ready.pop() {
            if scheduled[i] {
                continue;
            }
            land!(i, est[i], free_ready);
        }
        if remaining == 0 {
            break;
        }
        // Ready list for this control step, highest priority first. Free
        // ops were chained above, so everything ready here is classified.
        ready.clear();
        ready.extend((0..n).filter(|&i| !scheduled[i] && pending_preds[i] == 0 && est[i] <= cs));
        ready.sort_unstable_by_key(|&i| (std::cmp::Reverse(rank[i]), i));
        used_now.iter_mut().for_each(|u| *u = 0);
        for &i in &ready {
            let Some(ci) = class_idx[i] else {
                continue;
            };
            if used_now[ci] < limits.nonzero(classes[ci])? {
                used_now[ci] += 1;
                land!(i, cs, free_ready);
            } // else deferred to the next step
        }
        cs += 1;
    }
    Ok(schedule)
}

/// Higher rank = scheduled earlier, as a dense vector.
fn compute_rank(sg: &SchedGraph, priority: Priority) -> Vec<i64> {
    match priority {
        Priority::PathLength => sg.path_weights(|_| 1).into_iter().map(i64::from).collect(),
        Priority::Urgency => {
            let (_, cp) = sg.asap();
            sg.alap(cp).iter().map(|&a| -(a as i64)).collect()
        }
        Priority::Mobility => {
            let (asap, cp) = sg.asap();
            let alap = sg.alap(cp);
            (0..sg.len())
                .map(|i| -((alap[i] - asap[i].min(alap[i])) as i64))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asap::asap_schedule;
    use hls_workloads::figures::fig3_graph;

    #[test]
    fn fig4_list_schedule_recovers_optimum() {
        // "Since operation 2 has a higher priority than operation 1, it is
        // scheduled first, giving an optimal schedule for this case."
        let (g, ops) = fig3_graph();
        let cls = OpClassifier::universal();
        let limits = ResourceLimits::universal(2);
        let s = list_schedule(&g, &cls, &limits, Priority::PathLength).unwrap();
        s.validate(&g, &cls, &limits).unwrap();
        assert_eq!(s.step(ops[1]), Some(0), "critical op2 goes first");
        assert_eq!(s.num_steps(), 3, "optimal");
        // And strictly better than ASAP on the same instance (Fig. 3 vs 4).
        let asap = asap_schedule(&g, &cls, &limits).unwrap();
        assert!(s.num_steps() < asap.num_steps());
    }

    #[test]
    fn all_priorities_valid_on_fig3() {
        let (g, _) = fig3_graph();
        let cls = OpClassifier::universal();
        let limits = ResourceLimits::universal(2);
        for p in [Priority::PathLength, Priority::Urgency, Priority::Mobility] {
            let s = list_schedule(&g, &cls, &limits, p).unwrap();
            s.validate(&g, &cls, &limits).unwrap();
            assert_eq!(s.num_steps(), 3, "{}", p.name());
        }
    }

    #[test]
    fn single_fu_serial_schedule() {
        let (g, _) = fig3_graph();
        let cls = OpClassifier::universal();
        let limits = ResourceLimits::single_universal();
        let s = list_schedule(&g, &cls, &limits, Priority::PathLength).unwrap();
        s.validate(&g, &cls, &limits).unwrap();
        assert_eq!(s.num_steps(), 6);
    }

    #[test]
    fn zero_limit_errors() {
        let (g, _) = fig3_graph();
        let cls = OpClassifier::universal();
        let limits = ResourceLimits::universal(0);
        assert!(list_schedule(&g, &cls, &limits, Priority::PathLength).is_err());
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = DataFlowGraph::new();
        let s = list_schedule(
            &g,
            &OpClassifier::universal(),
            &ResourceLimits::single_universal(),
            Priority::PathLength,
        )
        .unwrap();
        assert!(s.is_empty());
        assert_eq!(s.num_steps(), 0);
    }
}
