//! Dense dependence/bound analysis shared by every scheduler.
//!
//! [`SchedGraph`] snapshots a block once — CSR predecessor/successor
//! lists, a cached topological order, and the per-op wired/free/class
//! facts — so the scheduling inner loops run on flat `Vec`s indexed by
//! *dense* op indices instead of hashing [`OpId`]s, and so ASAP/ALAP
//! bounds are computed once per (block, classifier) instead of once per
//! scheduler invocation. Dense index order equals id (allocation) order,
//! which is the deterministic tie-break documented across the schedulers.
//!
//! Three kinds of operations exist under the control-step model:
//!
//! * **wired** — constants: no hardware, no step constraint; their value
//!   is always available.
//! * **chained free** — constant-amount shifts (under the "free shift"
//!   policy) and muxes: combinational wiring that evaluates *within* the
//!   step of its producers (it may share their step); its result is
//!   registered at the end of its step.
//! * **step-taking** — everything else: occupies a functional unit for
//!   one control step; its result is available from the next step on.

use hls_cdfg::dense::DepGraph;
use hls_cdfg::{DataFlowGraph, OpId, OpKind};

use crate::resource::{FuClass, OpClassifier};
use crate::ScheduleError;

/// A block's dependence graph plus the classifier facts every scheduler
/// asks for per op.
#[derive(Clone, Debug)]
pub struct SchedGraph {
    graph: DepGraph,
    wired: Vec<bool>,
    free: Vec<bool>,
    class: Vec<Option<FuClass>>,
}

impl SchedGraph {
    /// Snapshots `dfg` under `classifier`.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Cycle`] on cyclic graphs.
    pub fn build(dfg: &DataFlowGraph, classifier: &OpClassifier) -> Result<Self, ScheduleError> {
        let graph = DepGraph::build(dfg)?;
        let n = graph.len();
        let mut wired = Vec::with_capacity(n);
        let mut free = Vec::with_capacity(n);
        let mut class = Vec::with_capacity(n);
        for i in 0..n {
            let op = graph.op(i);
            wired.push(dfg.op(op).kind == OpKind::Const);
            free.push(classifier.is_free(dfg, op));
            class.push(classifier.classify(dfg, op));
        }
        Ok(SchedGraph {
            graph,
            wired,
            free,
            class,
        })
    }

    /// The underlying CSR dependence graph.
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// Number of live ops.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// `true` when the block has no live ops.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// The op at `dense` index.
    pub fn op(&self, dense: usize) -> OpId {
        self.graph.op(dense)
    }

    /// `true` for constants (no hardware, no step constraint).
    pub fn is_wired(&self, dense: usize) -> bool {
        self.wired[dense]
    }

    /// `true` for chained-free ops (share their producers' step).
    pub fn is_free(&self, dense: usize) -> bool {
        self.free[dense]
    }

    /// The FU class of the op, `None` for wired/chained ops.
    pub fn class(&self, dense: usize) -> Option<FuClass> {
        self.class[dense]
    }

    /// The earliest step the op at `dense` may occupy, given `steps` of
    /// every non-wired predecessor: a chained-free op may share its
    /// producers' step, a step-taking op starts after they register.
    pub(crate) fn earliest_start(&self, steps: &[u32], dense: usize) -> u32 {
        let free = self.free[dense];
        self.graph
            .preds(dense)
            .iter()
            .map(|&p| p as usize)
            .filter(|&p| !self.wired[p])
            .map(|p| if free { steps[p] } else { steps[p] + 1 })
            .max()
            .unwrap_or(0)
    }

    /// Dependence-only ASAP steps and the critical path, as dense vectors.
    pub fn asap(&self) -> (Vec<u32>, u32) {
        let mut steps = vec![0u32; self.len()];
        let mut total = 0;
        for &i in self.graph.topo() {
            let i = i as usize;
            steps[i] = self.earliest_start(&steps, i);
            if !self.wired[i] {
                total = total.max(steps[i] + 1);
            }
        }
        (steps, total)
    }

    /// Per op, the summed `weight` of the heaviest dependence chain from
    /// it to any sink, itself included. With unit weights this is BUD's
    /// list-scheduling priority, "the length of the path from the
    /// operation to the end of the block".
    pub(crate) fn path_weights(&self, weight: impl Fn(usize) -> u32) -> Vec<u32> {
        let mut below = vec![0u32; self.len()];
        for &i in self.graph.topo().iter().rev() {
            let i = i as usize;
            let tail = self
                .graph
                .succs(i)
                .iter()
                .map(|&s| below[s as usize])
                .max()
                .unwrap_or(0);
            below[i] = tail + weight(i);
        }
        below
    }

    /// Dependence-only ALAP steps against `deadline`, as a dense vector.
    pub fn alap(&self, deadline: u32) -> Vec<u32> {
        let mut steps = vec![0u32; self.len()];
        for &i in self.graph.topo().iter().rev() {
            let i = i as usize;
            if self.wired[i] {
                steps[i] = 0;
                continue;
            }
            let mut latest = deadline.saturating_sub(1);
            for &s in self.graph.succs(i) {
                let s = s as usize;
                if self.wired[s] {
                    continue;
                }
                let max_for_succ = if self.free[s] {
                    steps[s]
                } else {
                    steps[s].saturating_sub(1)
                };
                latest = latest.min(max_for_succ);
            }
            steps[i] = latest;
        }
        steps
    }

    /// Arc-consistent feasible windows (`asap..=alap`) against `deadline`.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::DeadlineTooShort`] when the deadline is below the
    /// critical path, and [`ScheduleError::InfeasibleWindow`] when an op's
    /// window comes out inverted (ASAP past ALAP) — raising the bound to
    /// mask it would smuggle the op past the deadline.
    pub fn windows(&self, deadline: u32) -> Result<Windows, ScheduleError> {
        let (lo, critical_path) = self.asap();
        if deadline < critical_path {
            return Err(ScheduleError::DeadlineTooShort {
                deadline,
                critical_path,
            });
        }
        let hi = self.alap(deadline);
        for i in 0..self.len() {
            if hi[i] < lo[i] {
                return Err(self.infeasible(i, lo[i], hi[i], deadline));
            }
        }
        Ok(Windows {
            lo,
            hi,
            critical_path,
        })
    }

    /// The standard infeasible-window error for the op at `dense`.
    pub(crate) fn infeasible(
        &self,
        dense: usize,
        lo: u32,
        hi: u32,
        deadline: u32,
    ) -> ScheduleError {
        ScheduleError::InfeasibleWindow {
            op: format!("{:?}", self.op(dense)),
            lo,
            hi,
            deadline,
        }
    }

    /// The FU classes present (sorted) and, per dense op index, the op's
    /// position in that list (`None` for wired/chained-free ops). The
    /// shared dense class-index space of the time-constrained schedulers.
    pub fn dense_classes(&self) -> (Vec<FuClass>, Vec<Option<usize>>) {
        let mut classes: Vec<FuClass> = self.class.iter().flatten().copied().collect();
        classes.sort_unstable();
        classes.dedup();
        let idx = self
            .class
            .iter()
            .map(|c| c.and_then(|c| classes.binary_search(&c).ok()))
            .collect();
        (classes, idx)
    }

    /// Pins the op at dense index `start` to `step` and tightens neighbor
    /// windows transitively (the propagation shared by the force-directed
    /// and freedom-based schedulers). `on_change(i, old_lo, old_hi,
    /// new_lo, new_hi)` fires before each window update so callers can
    /// maintain derived state (e.g. distribution graphs) incrementally.
    ///
    /// # Errors
    ///
    /// A tightening that would empty a window (or push it past the
    /// deadline) is an infeasibility the initial arc-consistent windows
    /// rule out; if it happens anyway, it is reported as
    /// [`ScheduleError::InfeasibleWindow`] instead of clamping the window
    /// into a lie that downstream step math then trips over.
    pub fn pin_and_propagate(
        &self,
        lo: &mut [u32],
        hi: &mut [u32],
        start: usize,
        step: u32,
        deadline: u32,
        mut on_change: impl FnMut(usize, u32, u32, u32, u32),
    ) -> Result<(), ScheduleError> {
        on_change(start, lo[start], hi[start], step, step);
        lo[start] = step;
        hi[start] = step;
        let mut work = vec![start];
        while let Some(o) = work.pop() {
            let (olo, ohi) = (lo[o], hi[o]);
            for &s in self.graph.succs(o) {
                let s = s as usize;
                if self.wired[s] {
                    continue;
                }
                let min_start = olo + if self.free[s] { 0 } else { 1 };
                if lo[s] < min_start {
                    if min_start > hi[s] || min_start >= deadline {
                        return Err(self.infeasible(s, min_start, hi[s], deadline));
                    }
                    on_change(s, lo[s], hi[s], min_start, hi[s]);
                    lo[s] = min_start;
                    work.push(s);
                }
            }
            for &p in self.graph.preds(o) {
                let p = p as usize;
                if self.wired[p] {
                    continue;
                }
                let max_end = if self.free[o] {
                    ohi
                } else if ohi == 0 {
                    // A step-taking op at step 0 leaves no step for a
                    // non-wired producer.
                    return Err(self.infeasible(p, lo[p], 0, deadline));
                } else {
                    ohi - 1
                };
                if hi[p] > max_end {
                    if max_end < lo[p] {
                        return Err(self.infeasible(p, lo[p], max_end, deadline));
                    }
                    on_change(p, lo[p], hi[p], lo[p], max_end);
                    hi[p] = max_end;
                    work.push(p);
                }
            }
        }
        Ok(())
    }
}

/// Distribution statistics of one FU class in one block: how many ops
/// the class must execute and how tightly the dependence structure packs
/// them. The QoR estimator (`hls-core::estimate`) derives latency and
/// FU-count bounds from these without running a scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassStats {
    /// The FU class.
    pub class: FuClass,
    /// Step-taking ops of this class (free and wired ops excluded).
    pub ops: usize,
    /// Peak per-step occupancy of the class under dependence-only ASAP —
    /// the concurrency the dependence structure alone produces. A
    /// resource limit at or above this peak (for every class of the
    /// block) cannot bind: greedy resource-constrained schedulers then
    /// degenerate to dependence ASAP exactly.
    pub asap_peak: usize,
}

impl SchedGraph {
    /// Per-class distribution statistics (sorted by class): step-taking
    /// op counts and dependence-ASAP peak occupancies.
    pub fn class_stats(&self) -> Vec<ClassStats> {
        let (asap, _) = self.asap();
        let (classes, idx) = self.dense_classes();
        let mut ops = vec![0usize; classes.len()];
        let mut per_step: Vec<std::collections::BTreeMap<u32, usize>> =
            vec![std::collections::BTreeMap::new(); classes.len()];
        for i in 0..self.len() {
            if let Some(c) = idx[i] {
                ops[c] += 1;
                *per_step[c].entry(asap[i]).or_insert(0) += 1;
            }
        }
        classes
            .into_iter()
            .enumerate()
            .map(|(c, class)| ClassStats {
                class,
                ops: ops[c],
                asap_peak: per_step[c].values().copied().max().unwrap_or(0),
            })
            .collect()
    }

    /// Per-class peak *window support* against `deadline`: the largest
    /// number of same-class ops whose feasible `[asap, alap]` windows
    /// share one step. No schedule that fits the deadline can exceed this
    /// concurrency, so it upper-bounds the FU demand of every
    /// time-constrained scheduler at that deadline.
    ///
    /// # Errors
    ///
    /// Propagates [`SchedGraph::windows`] errors (deadline below the
    /// critical path, infeasible op window).
    pub fn window_peaks(&self, deadline: u32) -> Result<Vec<(FuClass, usize)>, ScheduleError> {
        let w = self.windows(deadline)?;
        let (classes, idx) = self.dense_classes();
        let steps = deadline.max(1) as usize;
        // Difference array per class: +1 at lo, -1 past hi.
        let mut diff = vec![vec![0isize; steps + 1]; classes.len()];
        for (i, ci) in idx.iter().enumerate().take(self.len()) {
            if let Some(c) = *ci {
                let lo = (w.lo[i] as usize).min(steps);
                let hi = ((w.hi[i] as usize) + 1).min(steps);
                diff[c][lo] += 1;
                diff[c][hi] -= 1;
            }
        }
        Ok(classes
            .into_iter()
            .enumerate()
            .map(|(c, class)| {
                let mut peak = 0isize;
                let mut cur = 0isize;
                for &d in &diff[c] {
                    cur += d;
                    peak = peak.max(cur);
                }
                (class, peak.max(0) as usize)
            })
            .collect())
    }
}

/// Feasible step windows for every op, indexed densely.
#[derive(Clone, Debug)]
pub struct Windows {
    /// Earliest feasible step (ASAP) per dense op index.
    pub lo: Vec<u32>,
    /// Latest feasible step (ALAP) per dense op index.
    pub hi: Vec<u32>,
    /// The dependence-only critical path of the block.
    pub critical_path: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_cdfg::{DataFlowGraph, Fx, OpKind};
    use hls_workloads::random::{random_dag, RandomDagConfig};

    /// div -> add -> shr(free) with inc independent: the Fig. 2 loop body.
    /// Returns the graph and the dense indices of div, add, shr, inc.
    fn fig2_body(cls: &OpClassifier) -> (SchedGraph, [usize; 4]) {
        let mut g = DataFlowGraph::new();
        let y = g.add_input("y", 32);
        let x = g.add_input("x", 32);
        let i = g.add_input("i", 2);
        let div = g.add_op(OpKind::Div, vec![x, y]);
        let add = g.add_op(OpKind::Add, vec![y, g.result(div).unwrap()]);
        let one = g.add_const_value(Fx::ONE);
        let shr = g.add_op(OpKind::Shr, vec![g.result(add).unwrap(), one]);
        let inc = g.add_op(OpKind::Inc, vec![i]);
        g.set_output("y", g.result(shr).unwrap());
        g.set_output("i", g.result(inc).unwrap());
        let sg = SchedGraph::build(&g, cls).unwrap();
        let dense = [div, add, shr, inc].map(|op| sg.graph().index_of(op).unwrap());
        (sg, dense)
    }

    #[test]
    fn free_shift_chains_into_the_adder_step() {
        let (sg, [div, add, shr, inc]) = fig2_body(&OpClassifier::universal_free_shifts());
        let (asap, cp) = sg.asap();
        assert_eq!((asap[div], asap[add], asap[shr], asap[inc]), (0, 1, 1, 0));
        assert_eq!(cp, 2, "the paper's 2-step loop body");
        let alap = sg.alap(2);
        assert_eq!((alap[div], alap[add], alap[shr]), (0, 1, 1));
        assert_eq!(alap[inc], 1, "inc can slide to the last step");

        let (sg, [_, _, shr, _]) = fig2_body(&OpClassifier::universal());
        let (asap, cp) = sg.asap();
        assert_eq!((asap[shr], cp), (2, 3), "a step-taking shift adds a step");
    }

    #[test]
    fn earliest_start_skips_wired_preds() {
        let mut g = DataFlowGraph::new();
        let c = g.add_const_value(Fx::ONE);
        let x = g.add_input("x", 32);
        let add = g.add_op(OpKind::Add, vec![x, c]);
        g.set_output("y", g.result(add).unwrap());
        let sg = SchedGraph::build(&g, &OpClassifier::universal()).unwrap();
        let add = sg.graph().index_of(add).unwrap();
        // The constant's slot holds garbage on purpose: it must be ignored.
        let steps = vec![7; sg.len()];
        assert_eq!(sg.earliest_start(&steps, add), 0);
    }

    /// BUD's priority counts every op on the longest chain to a sink,
    /// itself included; branch-and-bound's tail counts step-taking ops.
    #[test]
    fn path_weights_count_the_chain_below() {
        let mut g = DataFlowGraph::new();
        let x = g.add_input("x", 32);
        let c = g.add_const_value(Fx::from_i64(3));
        let m = g.add_op(OpKind::Mul, vec![x, c]);
        let a = g.add_op(OpKind::Add, vec![g.result(m).unwrap(), x]);
        let s = g.add_op(OpKind::Shr, vec![g.result(a).unwrap(), c]);
        let i = g.add_op(OpKind::Inc, vec![x]);
        g.set_output("y", g.result(s).unwrap());
        g.set_output("i", g.result(i).unwrap());
        let sg = SchedGraph::build(&g, &OpClassifier::universal_free_shifts()).unwrap();
        let idx = |op| sg.graph().index_of(op).unwrap();
        let len = sg.path_weights(|_| 1);
        let lens = [m, a, s, i].map(|op| len[idx(op)]);
        assert_eq!(lens, [3, 2, 1, 1]);
        let tail = sg.path_weights(|i| u32::from(sg.class(i).is_some()));
        let tails = [m, a, s, i].map(|op| tail[idx(op)]);
        assert_eq!(tails, [2, 1, 0, 1], "the free shift adds nothing");
    }

    #[test]
    fn windows_reject_short_deadlines() {
        let g = hls_workloads::benchmarks::diffeq();
        let cls = OpClassifier::typed();
        let sg = SchedGraph::build(&g, &cls).unwrap();
        let (_, cp) = sg.asap();
        assert!(matches!(
            sg.windows(cp - 1),
            Err(ScheduleError::DeadlineTooShort { .. })
        ));
        let w = sg.windows(cp).unwrap();
        assert_eq!(w.critical_path, cp);
        assert!((0..sg.len()).all(|i| w.lo[i] <= w.hi[i]));
    }

    /// Diamond a → {b, c} → d, hand-computed against deadline 4:
    /// ASAP = a:0, b:1, c:1, d:2; ALAP = a:1, b:2, c:2, d:3.
    #[test]
    fn diamond_bounds_by_hand() {
        let mut g = DataFlowGraph::new();
        let x = g.add_input("x", 32);
        let a = g.add_op(OpKind::Inc, vec![x]);
        let ra = g.result(a).unwrap();
        let b = g.add_op(OpKind::Neg, vec![ra]);
        let c = g.add_op(OpKind::Inc, vec![ra]);
        let d = g.add_op(
            OpKind::Add,
            vec![g.result(b).unwrap(), g.result(c).unwrap()],
        );
        g.set_output("y", g.result(d).unwrap());
        let cls = OpClassifier::universal();
        let sg = SchedGraph::build(&g, &cls).unwrap();
        let (asap, cp) = sg.asap();
        assert_eq!(cp, 3, "a, the arms, d");
        let w = sg.windows(4).unwrap();
        let dense = |op| sg.graph().index_of(op).unwrap();
        for (op, lo, hi) in [(a, 0, 1), (b, 1, 2), (c, 1, 2), (d, 2, 3)] {
            let i = dense(op);
            assert_eq!(asap[i], lo, "{op:?} asap");
            assert_eq!((w.lo[i], w.hi[i]), (lo, hi), "{op:?} window");
        }
    }

    /// Two disconnected chains of different depths, hand-computed: the
    /// critical path comes from the longer chain, and the shorter chain's
    /// ops absorb all the slack.
    #[test]
    fn disconnected_chains_bounds_by_hand() {
        let mut g = DataFlowGraph::new();
        let x = g.add_input("x", 32);
        let w0 = g.add_input("w", 32);
        let a = g.add_op(OpKind::Inc, vec![x]);
        let b = g.add_op(OpKind::Neg, vec![g.result(a).unwrap()]);
        let c = g.add_op(OpKind::Inc, vec![g.result(b).unwrap()]);
        let d = g.add_op(OpKind::Neg, vec![w0]);
        g.set_output("y", g.result(c).unwrap());
        g.set_output("z", g.result(d).unwrap());
        let cls = OpClassifier::universal();
        let sg = SchedGraph::build(&g, &cls).unwrap();
        let (asap, cp) = sg.asap();
        assert_eq!(cp, 3, "the a-b-c chain");
        let w = sg.windows(3).unwrap();
        let dense = |op| sg.graph().index_of(op).unwrap();
        for (op, lo, hi) in [(a, 0, 0), (b, 1, 1), (c, 2, 2), (d, 0, 2)] {
            let i = dense(op);
            assert_eq!(asap[i], lo, "{op:?} asap");
            assert_eq!((w.lo[i], w.hi[i]), (lo, hi), "{op:?} window");
        }
    }

    /// Empty and single-op blocks go through the dense analyses without
    /// special-casing.
    #[test]
    fn degenerate_blocks_have_sane_bounds() {
        let cls = OpClassifier::universal();

        let empty = DataFlowGraph::new();
        let sg = SchedGraph::build(&empty, &cls).unwrap();
        assert!(sg.is_empty());
        let (asap, cp) = sg.asap();
        assert!(asap.is_empty());
        assert_eq!(cp, 0);
        let w = sg.windows(0).unwrap();
        assert!(w.lo.is_empty() && w.hi.is_empty());

        let mut single = DataFlowGraph::new();
        let x = single.add_input("x", 32);
        let a = single.add_op(OpKind::Inc, vec![x]);
        single.set_output("y", single.result(a).unwrap());
        let sg = SchedGraph::build(&single, &cls).unwrap();
        let (asap, cp) = sg.asap();
        assert_eq!((asap, cp), (vec![0], 1));
        let w = sg.windows(3).unwrap();
        assert_eq!((w.lo[0], w.hi[0]), (0, 2), "all the slack is its own");
    }

    #[test]
    fn windows_hold_on_random_dags() {
        for seed in 0..20 {
            let g = random_dag(&RandomDagConfig {
                ops: 60,
                seed,
                ..Default::default()
            });
            let cls = OpClassifier::typed();
            let sg = SchedGraph::build(&g, &cls).unwrap();
            let (asap, cp) = sg.asap();
            let w = sg.windows(cp + 4).unwrap();
            for i in 0..sg.len() {
                assert!(w.lo[i] <= w.hi[i]);
                if !sg.is_wired(i) {
                    assert!(w.hi[i] < cp + 4);
                }
            }
            let max_finish = (0..sg.len())
                .filter(|&i| !sg.is_wired(i))
                .map(|i| asap[i] + 1)
                .max()
                .unwrap_or(0);
            assert_eq!(cp, max_finish, "critical path = latest ASAP finish");
        }
    }
}
