//! Freedom-based scheduling (MAHA — tutorial reference [21]).
//!
//! "The operations on the critical path are scheduled first and assigned
//! to functional units. Then the other operations are scheduled and
//! assigned one at a time. At each step the unscheduled operation with the
//! least freedom ... is chosen, so that operations that might present more
//! difficult scheduling problems are taken care of first, before they
//! become blocked" (§3.1.2).
//!
//! Runs on the dense [`SchedGraph`] analysis: windows, per-step FU usage,
//! and the selection scan are flat vectors indexed by dense op index, and
//! window propagation is shared with the force-directed scheduler
//! ([`SchedGraph::pin_and_propagate`]).

use hls_cdfg::DataFlowGraph;

use crate::bounds::SchedGraph;
use crate::resource::OpClassifier;
use crate::schedule::Schedule;
use crate::ScheduleError;

/// Schedules `dfg` against `deadline` steps, choosing the least-freedom
/// operation first and the step that adds the fewest functional units.
///
/// Like force-directed scheduling this is time-constrained: the FU count
/// is an output (read it with [`Schedule::fu_usage`]).
///
/// # Errors
///
/// Returns [`ScheduleError::DeadlineTooShort`] or [`ScheduleError::Cycle`].
pub fn freedom_based_schedule(
    dfg: &DataFlowGraph,
    classifier: &OpClassifier,
    deadline: u32,
) -> Result<Schedule, ScheduleError> {
    freedom_based_schedule_graph(&SchedGraph::build(dfg, classifier)?, deadline)
}

/// [`freedom_based_schedule`] on an already-built (possibly cached)
/// [`SchedGraph`].
pub(crate) fn freedom_based_schedule_graph(
    sg: &SchedGraph,
    deadline: u32,
) -> Result<Schedule, ScheduleError> {
    let windows = sg.windows(deadline)?;
    let (mut lo, mut hi) = (windows.lo, windows.hi);
    let n = sg.len();
    let (classes, class_idx) = sg.dense_classes();

    let mut schedule = Schedule::new();
    let mut placed = vec![false; n];
    // usage[ci * deadline + step] counts FU occupancy; the unit count per
    // class is the running maximum, and we prefer steps that do not raise
    // it.
    let mut usage = vec![0usize; classes.len() * deadline as usize];
    let mut unit_count = vec![0usize; classes.len()];
    let mut place =
        |i: usize, t: u32, placed: &mut [bool], usage: &mut [usize], unit_count: &mut [usize]| {
            placed[i] = true;
            schedule.assign(sg.op(i), t);
            if let Some(ci) = class_idx[i] {
                let u = &mut usage[ci * deadline as usize + t as usize];
                *u += 1;
                unit_count[ci] = unit_count[ci].max(*u);
            }
        };

    // Phase 1: the critical path (zero-freedom ops), in ASAP order.
    let mut critical: Vec<usize> = (0..n)
        .filter(|&i| !sg.is_wired(i) && lo[i] == hi[i])
        .collect();
    critical.sort_unstable_by_key(|&i| (lo[i], i));
    for i in critical {
        let t = lo[i];
        place(i, t, &mut placed, &mut usage, &mut unit_count);
        sg.pin_and_propagate(&mut lo, &mut hi, i, t, deadline, |_, _, _, _, _| {})?;
    }
    // Wired constants: step 0.
    for i in 0..n {
        if sg.is_wired(i) && !placed[i] {
            place(i, 0, &mut placed, &mut usage, &mut unit_count);
        }
    }

    // Phase 2: least freedom first.
    loop {
        // The unplaced classified op with the smallest window (ties to the
        // lowest op id, which dense index order preserves).
        let mut pick: Option<(u32, usize, usize)> = None;
        for i in 0..n {
            if placed[i] {
                continue;
            }
            let Some(ci) = class_idx[i] else { continue };
            let slack = hi[i].saturating_sub(lo[i]);
            if pick.is_none_or(|(ps, pi, _)| (slack, i) < (ps, pi)) {
                pick = Some((slack, i, ci));
            }
        }
        let Some((_, i, ci)) = pick else { break };
        if hi[i] < lo[i] {
            return Err(sg.infeasible(i, lo[i], hi[i], deadline));
        }
        // Least added cost: a step where current usage is below the unit
        // count; otherwise the least-used step (adding a unit).
        let current_units = unit_count[ci];
        let mut best: Option<(usize, usize, u32)> = None;
        for t in lo[i]..=hi[i] {
            let u = usage[ci * deadline as usize + t as usize];
            let adds_unit = usize::from(u + 1 > current_units);
            let key = (adds_unit, u, t);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        // The window check above guarantees at least one candidate step.
        let Some((_, _, t)) = best else {
            return Err(sg.infeasible(i, lo[i], hi[i], deadline));
        };
        place(i, t, &mut placed, &mut usage, &mut unit_count);
        sg.pin_and_propagate(&mut lo, &mut hi, i, t, deadline, |_, _, _, _, _| {})?;
    }

    // Chained-free ops at their earliest start (placed windows are pinned,
    // so `lo` doubles as the final step vector).
    for &i in sg.graph().topo() {
        let i = i as usize;
        if placed[i] {
            continue;
        }
        lo[i] = sg.earliest_start(&lo, i);
        schedule.assign(sg.op(i), lo[i]);
    }
    schedule.set_num_steps(deadline);
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::{FuClass, ResourceLimits};

    #[test]
    fn critical_path_scheduled_at_asap() {
        let (g, ops) = hls_workloads::figures::fig3_graph();
        let cls = OpClassifier::universal();
        let s = freedom_based_schedule(&g, &cls, 3).unwrap();
        s.validate(&g, &cls, &ResourceLimits::unlimited()).unwrap();
        // The chain op2 -> op4 -> op6 sits at steps 0, 1, 2.
        assert_eq!(s.step(ops[1]), Some(0));
        assert_eq!(s.step(ops[3]), Some(1));
        assert_eq!(s.step(ops[5]), Some(2));
        assert_eq!(s.num_steps(), 3);
    }

    #[test]
    fn freedom_spreads_fill_ops() {
        let (g, _) = hls_workloads::figures::fig3_graph();
        let cls = OpClassifier::universal();
        let s = freedom_based_schedule(&g, &cls, 3).unwrap();
        // 6 ops over 3 steps with a 3-op chain: 2 FUs suffice if the three
        // fillers spread across steps.
        assert_eq!(s.fu_usage(&g, &cls)[&FuClass::Universal], 2);
    }

    #[test]
    fn deadline_too_short_rejected() {
        let (g, _) = hls_workloads::figures::fig3_graph();
        let cls = OpClassifier::universal();
        assert!(matches!(
            freedom_based_schedule(&g, &cls, 2),
            Err(ScheduleError::DeadlineTooShort { .. })
        ));
    }

    #[test]
    fn valid_on_all_benchmarks() {
        let cls = OpClassifier::typed();
        for (name, g) in hls_workloads::all_benchmarks() {
            let (_, cp) = SchedGraph::build(&g, &cls).unwrap().asap();
            let s = freedom_based_schedule(&g, &cls, cp + 2).unwrap();
            s.validate(&g, &cls, &ResourceLimits::unlimited())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
