//! Value lifetime analysis.
//!
//! "In memory allocation, values that are generated in one control step
//! and used in another must be assigned to storage. Values may be assigned
//! to the same register when their lifetimes do not overlap" (§2).

use hls_cdfg::{DataFlowGraph, OpKind, ValueDef, ValueId};
use hls_sched::Schedule;

/// The storage interval of a value, in control-step boundaries: the value
/// occupies a register from the start of step `start` through the end of
/// step `end` (inclusive).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// The stored value.
    pub value: ValueId,
    /// First step needing the register.
    pub start: u32,
    /// Last step needing the register.
    pub end: u32,
}

impl Interval {
    /// `true` when two intervals overlap (cannot share a register).
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// Interval length in steps (intervals are never empty).
    pub fn steps(&self) -> u32 {
        self.end - self.start + 1
    }
}

/// Computes the register intervals of a scheduled block.
///
/// * Block inputs are live from step 0 until their last use (they arrive
///   in a register from the previous block).
/// * An op result produced at step `d` is registered at the `d → d+1`
///   boundary and lives until its last consuming step; a value consumed
///   only by chained ops in its own step needs no register.
/// * Block outputs stay live through the end of the block
///   (`schedule.num_steps() - 1`), where the inter-block transfer happens.
/// * Constants are wired, never stored.
///
/// Values with no storage need are omitted.
pub fn value_intervals(dfg: &DataFlowGraph, schedule: &Schedule) -> Vec<Interval> {
    let last_step = schedule.num_steps().saturating_sub(1);
    let mut is_output = vec![false; dfg.value_capacity()];
    for &(_, v) in dfg.outputs() {
        is_output[v.index()] = true;
    }
    let mut out = Vec::new();
    for v in dfg.value_ids() {
        let val = dfg.value(v);
        let start = match val.def {
            ValueDef::BlockInput(_) => 0,
            ValueDef::Op(p) => {
                if dfg.op(p).dead || dfg.op(p).kind == OpKind::Const {
                    continue;
                }
                match schedule.step(p) {
                    Some(s) => s + 1,
                    None => continue,
                }
            }
        };
        let mut end: Option<u32> = None;
        for &user in &val.uses {
            if dfg.op(user).dead {
                continue;
            }
            if let Some(us) = schedule.step(user) {
                // A chained consumer in the producer's own step reads the
                // combinational output, not a register.
                if us >= start {
                    end = Some(end.map_or(us, |e: u32| e.max(us)));
                }
            }
        }
        if is_output[v.index()] {
            end = Some(end.map_or(last_step.max(start), |e: u32| e.max(last_step).max(start)));
        }
        if let Some(end) = end {
            out.push(Interval {
                value: v,
                start,
                end,
            });
        }
    }
    out.sort_by_key(|i| (i.start, i.end, i.value));
    out
}

/// Renders the intervals as an ASCII Gantt chart (one row per value, one
/// column per control step) — the classic lifetime diagram of register
/// allocation papers.
pub fn render_gantt(dfg: &DataFlowGraph, intervals: &[Interval]) -> String {
    use std::fmt::Write as _;
    let Some(max_step) = intervals.iter().map(|i| i.end).max() else {
        return String::from("(no stored values)\n");
    };
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {}",
        "value",
        (0..=max_step)
            .map(|t| format!("{:>2}", t + 1))
            .collect::<String>()
    );
    for iv in intervals {
        let v = dfg.value(iv.value);
        let name = if v.name.is_empty() {
            format!("v{}", iv.value.index())
        } else {
            v.name.clone()
        };
        let mut row = String::new();
        for t in 0..=max_step {
            row.push(' ');
            row.push(if t >= iv.start && t <= iv.end {
                '#'
            } else {
                '.'
            });
        }
        let _ = writeln!(s, "{name:<12}{row}");
    }
    s
}

/// The maximum number of simultaneously live values — the lower bound on
/// register count that left-edge allocation provably achieves.
///
/// Sorted-endpoint sweep: O(n log n) in the number of intervals,
/// independent of the schedule length.
pub fn max_live(intervals: &[Interval]) -> usize {
    // +1 at each interval start, -1 one past each (inclusive) end. At the
    // same step the -1 sorts first: an interval ending at `s` is disjoint
    // from one starting at `s + 1`, so the release applies before the
    // acquire.
    let mut events: Vec<(u32, i32)> = Vec::with_capacity(2 * intervals.len());
    for iv in intervals {
        events.push((iv.start, 1));
        events.push((iv.end + 1, -1));
    }
    events.sort_unstable_by_key(|&(step, delta)| (step, delta));
    let mut live = 0i32;
    let mut peak = 0i32;
    for (_, delta) in events {
        live += delta;
        peak = peak.max(live);
    }
    peak as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_cdfg::{DataFlowGraph, Fx, OpKind};
    use hls_sched::{asap_schedule, OpClassifier, ResourceLimits};

    /// x -> inc -> neg -> out, plus x used late by `add`.
    fn block() -> (DataFlowGraph, Schedule, OpClassifier) {
        let mut g = DataFlowGraph::new();
        let x = g.add_input("x", 32);
        let inc = g.add_op(OpKind::Inc, vec![x]);
        let neg = g.add_op(OpKind::Neg, vec![g.result(inc).unwrap()]);
        let add = g.add_op(OpKind::Add, vec![g.result(neg).unwrap(), x]);
        g.set_output("y", g.result(add).unwrap());
        let cls = OpClassifier::universal();
        let s = asap_schedule(&g, &cls, &ResourceLimits::single_universal()).unwrap();
        (g, s, cls)
    }

    #[test]
    fn input_lives_until_last_use() {
        let (g, s, _) = block();
        let iv = value_intervals(&g, &s);
        let x = g.inputs()[0];
        let xi = iv.iter().find(|i| i.value == x).unwrap();
        assert_eq!(xi.start, 0);
        assert_eq!(xi.end, 2, "x read by add in step 2");
    }

    #[test]
    fn output_lives_to_block_end() {
        let (g, s, _) = block();
        let iv = value_intervals(&g, &s);
        let (_, out) = &g.outputs()[0];
        let oi = iv.iter().find(|i| i.value == *out).unwrap();
        assert_eq!(oi.start, 3, "add runs in step 2, registers at 2→3");
        assert_eq!(oi.end, 3);
    }

    #[test]
    fn constants_never_stored() {
        let mut g = DataFlowGraph::new();
        let x = g.add_input("x", 32);
        let c = g.add_const_value(Fx::ONE);
        let a = g.add_op(OpKind::Add, vec![x, c]);
        g.set_output("y", g.result(a).unwrap());
        let cls = OpClassifier::universal();
        let s = asap_schedule(&g, &cls, &ResourceLimits::unlimited()).unwrap();
        let iv = value_intervals(&g, &s);
        assert!(iv.iter().all(|i| i.value != c));
    }

    #[test]
    fn chained_consumer_needs_no_register() {
        // add -> shr (free, same step) -> output: the add result has no
        // interval; the shifted value does.
        let mut g = DataFlowGraph::new();
        let x = g.add_input("x", 32);
        let one = g.add_const_value(Fx::ONE);
        let a = g.add_op(OpKind::Add, vec![x, x]);
        let sh = g.add_op(OpKind::Shr, vec![g.result(a).unwrap(), one]);
        g.set_output("y", g.result(sh).unwrap());
        let cls = OpClassifier::universal_free_shifts();
        let s = asap_schedule(&g, &cls, &ResourceLimits::unlimited()).unwrap();
        let iv = value_intervals(&g, &s);
        assert!(iv.iter().all(|i| i.value != g.result(a).unwrap()));
        assert!(iv.iter().any(|i| i.value == g.result(sh).unwrap()));
    }

    #[test]
    fn gantt_renders_rows_and_bars() {
        let (g, s, _) = block();
        let iv = value_intervals(&g, &s);
        let chart = render_gantt(&g, &iv);
        assert!(chart.contains("value"));
        assert!(chart.contains('#'));
        assert_eq!(chart.lines().count(), iv.len() + 1);
        assert_eq!(render_gantt(&g, &[]), "(no stored values)\n");
    }

    #[test]
    fn max_live_counts_peak() {
        let iv = vec![
            Interval {
                value: hls_cdfg::Id::from_raw(0),
                start: 0,
                end: 2,
            },
            Interval {
                value: hls_cdfg::Id::from_raw(1),
                start: 1,
                end: 3,
            },
            Interval {
                value: hls_cdfg::Id::from_raw(2),
                start: 2,
                end: 2,
            },
            Interval {
                value: hls_cdfg::Id::from_raw(3),
                start: 4,
                end: 5,
            },
        ];
        assert_eq!(max_live(&iv), 3, "steps 2 has three live values");
        assert_eq!(max_live(&[]), 0);
    }

    #[test]
    fn overlap_predicate() {
        let a = Interval {
            value: hls_cdfg::Id::from_raw(0),
            start: 0,
            end: 2,
        };
        let b = Interval {
            value: hls_cdfg::Id::from_raw(1),
            start: 2,
            end: 4,
        };
        let c = Interval {
            value: hls_cdfg::Id::from_raw(2),
            start: 3,
            end: 4,
        };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }
}
