//! Force-directed scheduling (HAL, Paulin & Knight — tutorial reference
//! [22]) and distribution graphs (Fig. 5).
//!
//! Time-constrained: given a deadline, balance the expected number of
//! concurrent operations of each FU class across control steps, so that
//! the per-step maximum — and hence the number of functional units — is
//! minimized.
//!
//! The inner loops run over dense op indices ([`SchedGraph`]) and the
//! distribution graphs are maintained *incrementally*: placing an op
//! subtracts its spread-out probability mass and adds a unit spike, and a
//! range tightening touches only the slots that left the window —
//! O(range) per update instead of a full O(ops · steps) rebuild per
//! placement. Range averages come from per-iteration prefix sums, making
//! each force evaluation O(degree) instead of O(degree · range).
//!
//! Determinism: candidates are evaluated in ascending `(op, step)` order
//! (dense index order equals op-id order) and ties within `1e-12` resolve
//! to the smallest `(step, op)`. Because prefix-summed averages round
//! differently than per-element sums, forces may differ from a from-scratch
//! evaluation by a few ULPs; the tie epsilon absorbs this.

use std::collections::BTreeMap;

use hls_cdfg::{DataFlowGraph, OpId};

use crate::bounds::SchedGraph;
use crate::resource::{FuClass, OpClassifier};
use crate::schedule::Schedule;
use crate::ScheduleError;

/// A per-class distribution graph: expected FU usage per control step,
/// assuming each unplaced op is equally likely anywhere in its range.
pub type DistributionGraphs = BTreeMap<FuClass, Vec<f64>>;

/// Computes the distribution graphs of `dfg` against `deadline` steps
/// (the Fig. 5 artifact).
///
/// # Errors
///
/// Returns [`ScheduleError::DeadlineTooShort`] when the deadline cannot
/// accommodate the critical path, or [`ScheduleError::Cycle`].
pub fn distribution_graphs(
    dfg: &DataFlowGraph,
    classifier: &OpClassifier,
    deadline: u32,
) -> Result<DistributionGraphs, ScheduleError> {
    Ok(ForceScheduler::new(dfg, classifier, deadline)?.graphs())
}

/// Schedules `dfg` against `deadline` steps by force-directed scheduling.
///
/// The returned schedule respects all dependences and the deadline; the
/// implied FU allocation is the per-step maximum usage
/// ([`Schedule::fu_usage`]) — "the number of functional units allocated is
/// then the maximum number required in any control step".
///
/// # Errors
///
/// Returns [`ScheduleError::DeadlineTooShort`] or [`ScheduleError::Cycle`].
pub fn force_directed_schedule(
    dfg: &DataFlowGraph,
    classifier: &OpClassifier,
    deadline: u32,
) -> Result<Schedule, ScheduleError> {
    ForceScheduler::new(dfg, classifier, deadline)?.finish()
}

/// The force-directed scheduling engine, stepped one placement at a time.
///
/// [`force_directed_schedule`] drives it to completion; it is public so
/// differential tests can compare the incrementally-maintained
/// distribution graphs ([`ForceScheduler::graphs`]) against a from-scratch
/// computation after every single placement.
#[derive(Clone, Debug)]
pub struct ForceScheduler {
    pub(crate) sg: SchedGraph,
    pub(crate) deadline: u32,
    /// Current feasible window per dense op index (wired ops pinned 0..=0).
    pub(crate) lo: Vec<u32>,
    pub(crate) hi: Vec<u32>,
    /// FU classes present, sorted — the dense class index space.
    classes: Vec<FuClass>,
    /// Dense class index per op (`None` for wired/chained-free ops).
    pub(crate) class_idx: Vec<Option<usize>>,
    /// Distribution graph per class, maintained incrementally.
    dg: Vec<Vec<f64>>,
    /// Per-class prefix sums of `dg`, refreshed once per placement round.
    prefix: Vec<Vec<f64>>,
    pub(crate) placed: Vec<bool>,
    pub(crate) unplaced_classified: usize,
    pub(crate) schedule: Schedule,
}

impl ForceScheduler {
    /// Builds the engine: arc-consistent windows, wired ops pinned at
    /// step 0, and initial distribution graphs.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::DeadlineTooShort`], [`ScheduleError::Cycle`],
    /// or [`ScheduleError::InfeasibleWindow`].
    pub fn new(
        dfg: &DataFlowGraph,
        classifier: &OpClassifier,
        deadline: u32,
    ) -> Result<Self, ScheduleError> {
        Self::with_graph(SchedGraph::build(dfg, classifier)?, deadline)
    }

    /// Like [`new`](Self::new) from an already-built (possibly cached)
    /// [`SchedGraph`].
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new), minus [`ScheduleError::Cycle`].
    pub fn with_graph(sg: SchedGraph, deadline: u32) -> Result<Self, ScheduleError> {
        let windows = sg.windows(deadline)?;
        let (mut lo, mut hi) = (windows.lo, windows.hi);
        let n = sg.len();

        let mut schedule = Schedule::new();
        let mut placed = vec![false; n];
        // Wired constants carry no force: pin them at step 0 immediately.
        for i in 0..n {
            if sg.is_wired(i) {
                lo[i] = 0;
                hi[i] = 0;
                placed[i] = true;
                schedule.assign(sg.op(i), 0);
            }
        }

        let (classes, class_idx) = sg.dense_classes();

        let mut dg = vec![vec![0.0; deadline as usize]; classes.len()];
        let mut unplaced_classified = 0;
        for i in 0..n {
            let Some(ci) = class_idx[i] else { continue };
            unplaced_classified += 1;
            let p = 1.0 / (hi[i] - lo[i] + 1) as f64;
            for s in lo[i]..=hi[i] {
                dg[ci][s as usize] += p;
            }
        }
        let prefix = vec![vec![0.0; deadline as usize + 1]; classes.len()];

        Ok(ForceScheduler {
            sg,
            deadline,
            lo,
            hi,
            classes,
            class_idx,
            dg,
            prefix,
            placed,
            unplaced_classified,
            schedule,
        })
    }

    /// A snapshot of the current distribution graphs (placed ops appear as
    /// unit spikes at their step).
    pub fn graphs(&self) -> DistributionGraphs {
        self.classes
            .iter()
            .zip(&self.dg)
            .map(|(&c, g)| (c, g.clone()))
            .collect()
    }

    /// The current feasible window of `op`, or `None` for dead ids.
    pub fn window(&self, op: OpId) -> Option<(u32, u32)> {
        let i = self.sg.graph().index_of(op)?;
        Some((self.lo[i], self.hi[i]))
    }

    /// Places the lowest-force `(op, step)` candidate among the remaining
    /// classified ops and tightens neighbor windows transitively. Returns
    /// the placement, or `None` once every classified op is placed.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::InfeasibleWindow`] when a tightening
    /// empties a window (a scheduler invariant breach — the initial
    /// windows are arc-consistent and tightening preserves that).
    pub fn place_next(&mut self) -> Result<Option<(OpId, u32)>, ScheduleError> {
        if self.unplaced_classified == 0 {
            return Ok(None);
        }
        self.refresh_prefix_band(0, self.deadline as usize - 1);
        let n = self.sg.len();
        self.select_and_commit(0..n, u32::MAX)
    }

    /// [`place_next`](Self::place_next) restricted to the candidate set
    /// `members` (dense indices; already-placed and unclassified entries
    /// are skipped), with candidate *steps* capped at `step_cap`: a
    /// member is only evaluated at `lo..=min(hi, max(step_cap, lo))`, so
    /// its current earliest step always stays a candidate and the window
    /// never empties. Returns `Ok(None)` once no member is pending, even
    /// if ops outside the set remain — the hierarchical scheduler drains
    /// one (op-set × step-band) window at a time this way.
    ///
    /// The distribution graphs still span *all* classified ops, and the
    /// prefix sums are refreshed only over the step band the members and
    /// their direct neighbors can touch, so one placement's scan costs
    /// O(band + |members| · capped-range · degree) — the cap is what
    /// keeps a wide-window op (e.g. a sink with the whole axis of slack)
    /// from costing O(deadline) per evaluation.
    ///
    /// # Errors
    ///
    /// As [`place_next`](Self::place_next).
    pub(crate) fn place_next_among(
        &mut self,
        members: &[usize],
        step_cap: u32,
    ) -> Result<Option<(OpId, u32)>, ScheduleError> {
        if self.unplaced_classified == 0 {
            return Ok(None);
        }
        // The step band every force evaluation this round can read: the
        // members' own windows plus their classified neighbors' windows
        // (`total_force` averages over exactly those ranges).
        let (mut a, mut b) = (u32::MAX, 0u32);
        for &i in members {
            if self.placed[i] || self.class_idx[i].is_none() {
                continue;
            }
            a = a.min(self.lo[i]);
            b = b.max(self.hi[i]);
            for &nb in self
                .sg
                .graph()
                .preds(i)
                .iter()
                .chain(self.sg.graph().succs(i))
            {
                let nb = nb as usize;
                if self.class_idx[nb].is_some() {
                    a = a.min(self.lo[nb]);
                    b = b.max(self.hi[nb]);
                }
            }
        }
        if a == u32::MAX {
            // No pending classified member left in this set.
            return Ok(None);
        }
        self.refresh_prefix_band(a as usize, b as usize);
        self.select_and_commit(members.iter().copied(), step_cap)
    }

    /// Clamps every unplaced op's mobility to at most `cap` steps
    /// (`hi <= lo + cap`) and restores backward arc-consistency with one
    /// reverse-topological pass, re-shaping the distribution graphs as
    /// windows shrink. The forward (`lo`) side is untouched, so the
    /// windows stay arc-consistent and every pin inside a clamped window
    /// still extends to a full schedule.
    ///
    /// The hierarchical scheduler calls this once before windowed
    /// placement: without it a wide-slack op (a sink whose ALAP sits at
    /// the deadline) keeps an O(deadline) window, and every prefix
    /// refresh or propagation delta that touches it costs O(deadline) —
    /// quadratic overall on large graphs.
    pub(crate) fn clamp_mobility(&mut self, cap: u32) {
        let order: Vec<u32> = self.sg.graph().topo().to_vec();
        for &i in order.iter().rev() {
            let i = i as usize;
            if self.placed[i] || self.sg.is_wired(i) {
                continue;
            }
            let mut nh = self.hi[i].min(self.lo[i].saturating_add(cap));
            for &s in self.sg.graph().succs(i) {
                let s = s as usize;
                if self.sg.is_wired(s) {
                    continue;
                }
                let gap = if self.sg.is_free(s) { 0 } else { 1 };
                nh = nh.min(self.hi[s].saturating_sub(gap));
            }
            // Backward consistency keeps `hi[s] - gap >= lo[i]` for every
            // succ, so the clamp can never invert a feasible window; the
            // max is belt and braces against that invariant breaking.
            nh = nh.max(self.lo[i]);
            if nh < self.hi[i] {
                if let Some(ci) = self.class_idx[i] {
                    let g = &mut self.dg[ci];
                    let old_p = 1.0 / (self.hi[i] - self.lo[i] + 1) as f64;
                    for s in self.lo[i]..=self.hi[i] {
                        g[s as usize] -= old_p;
                    }
                    let new_p = 1.0 / (nh - self.lo[i] + 1) as f64;
                    for s in self.lo[i]..=nh {
                        g[s as usize] += new_p;
                    }
                }
                self.hi[i] = nh;
            }
        }
    }

    /// Shared selection/commit core: scans `cands` (must be ascending for
    /// the documented tie-break order), picks the lowest-force `(op, step)`
    /// with candidate steps clipped to `max(step_cap, lo)`, commits it.
    /// The caller has refreshed the prefix sums over a band covering
    /// every range the scan will average.
    fn select_and_commit(
        &mut self,
        cands: impl Iterator<Item = usize>,
        step_cap: u32,
    ) -> Result<Option<(OpId, u32)>, ScheduleError> {
        let mut best: Option<(f64, usize, u32)> = None;
        for i in cands {
            if self.placed[i] {
                continue;
            }
            let Some(ci) = self.class_idx[i] else {
                continue;
            };
            let (lo, hi) = (self.lo[i], self.hi[i]);
            if lo > hi {
                return Err(self.sg.infeasible(i, lo, hi, self.deadline));
            }
            for t in lo..=hi.min(step_cap.max(lo)) {
                let force = self.total_force(i, ci, t);
                let better = match &best {
                    None => true,
                    Some((bf, bi, bt)) => {
                        force < bf - 1e-12 || ((force - bf).abs() <= 1e-12 && (t, i) < (*bt, *bi))
                    }
                };
                if better {
                    best = Some((force, i, t));
                }
            }
        }
        // No pending candidate in the scanned set: done with this set.
        let Some((_, i, t)) = best else {
            return Ok(None);
        };
        self.commit(i, t)?;
        Ok(Some((self.sg.op(i), t)))
    }

    /// Commits the placement of dense index `i` at step `t`: records the
    /// assignment, pins the window, and propagates the tightening while
    /// re-shaping the distribution graphs incrementally.
    fn commit(&mut self, i: usize, t: u32) -> Result<(), ScheduleError> {
        self.placed[i] = true;
        self.unplaced_classified -= 1;
        self.schedule.assign(self.sg.op(i), t);
        // Pin + transitive tightening, re-shaping distribution graphs
        // incrementally as each window shrinks.
        let ForceScheduler {
            sg,
            deadline,
            lo,
            hi,
            class_idx,
            dg,
            ..
        } = self;
        sg.pin_and_propagate(lo, hi, i, t, *deadline, |j, ol, oh, nl, nh| {
            if let Some(ci) = class_idx[j] {
                let g = &mut dg[ci];
                let old_p = 1.0 / (oh - ol + 1) as f64;
                for s in ol..=oh {
                    g[s as usize] -= old_p;
                }
                let new_p = 1.0 / (nh - nl + 1) as f64;
                for s in nl..=nh {
                    g[s as usize] += new_p;
                }
            }
        })
    }

    /// Adopts a placement decided on another engine clone (the
    /// hierarchical scheduler merges per-component results this way):
    /// records the assignment and pins the window, without propagation or
    /// distribution-graph maintenance — [`finish`](Self::finish) reads
    /// only `lo`/`placed` once every classified op is placed.
    pub(crate) fn adopt(&mut self, i: usize, t: u32) {
        if !self.placed[i] {
            self.placed[i] = true;
            self.unplaced_classified -= 1;
        }
        self.lo[i] = t;
        self.hi[i] = t;
        self.schedule.assign(self.sg.op(i), t);
    }

    /// Runs the engine to completion: all classified ops force-placed,
    /// then chained-free ops at their earliest start from the final
    /// placement.
    ///
    /// # Errors
    ///
    /// Propagates any [`place_next`](Self::place_next) error.
    pub fn finish(mut self) -> Result<Schedule, ScheduleError> {
        while self.place_next()?.is_some() {}
        // Chained-free ops last: earliest start from final placement.
        let mut steps: Vec<u32> = self.lo.clone();
        for &i in self.sg.graph().topo() {
            let i = i as usize;
            if self.placed[i] {
                continue;
            }
            steps[i] = self.sg.earliest_start(&steps, i);
            self.schedule.assign(self.sg.op(i), steps[i]);
        }
        self.schedule.set_num_steps(self.deadline);
        Ok(self.schedule)
    }

    /// Recomputes per-class prefix sums over the step band `a..=b`, with a
    /// zero baseline at `a`, so `range_avg` is O(1) for ranges inside the
    /// band for the duration of one selection round. `range_avg` takes
    /// differences only, so the baseline shift is invisible; the full-axis
    /// call (`a = 0`) reproduces the historical whole-graph refresh
    /// bit-for-bit.
    fn refresh_prefix_band(&mut self, a: usize, b: usize) {
        for (ci, g) in self.dg.iter().enumerate() {
            let p = &mut self.prefix[ci];
            let mut acc = 0.0;
            p[a] = 0.0;
            for s in a..=b {
                acc += g[s];
                p[s + 1] = acc;
            }
        }
    }

    /// Average distribution-graph height over `lo..=hi` (0 on an empty
    /// range, matching the classic formulation).
    fn range_avg(&self, ci: usize, lo: u32, hi: u32) -> f64 {
        if lo > hi {
            return 0.0;
        }
        let p = &self.prefix[ci];
        (p[hi as usize + 1] - p[lo as usize]) / (hi - lo + 1) as f64
    }

    /// Self force plus predecessor/successor forces of placing the op at
    /// dense index `i` (class index `ci`) at step `t`. Classified ops are
    /// never chained-free, so a neighbor constraint is always one full
    /// step (`t - 1` for producers, `t + 1` for consumers).
    fn total_force(&self, i: usize, ci: usize, t: u32) -> f64 {
        let mut force = self.dg[ci][t as usize] - self.range_avg(ci, self.lo[i], self.hi[i]);
        // Implicit forces: placing the op at t shrinks neighbors' ranges.
        for &p in self.sg.graph().preds(i) {
            let p = p as usize;
            let Some(pc) = self.class_idx[p] else {
                continue;
            };
            let (lo, hi) = (self.lo[p], self.hi[p]);
            let new_hi = t.saturating_sub(1).min(hi);
            if new_hi < hi {
                force += self.range_avg(pc, lo, new_hi.max(lo)) - self.range_avg(pc, lo, hi);
            }
        }
        for &s in self.sg.graph().succs(i) {
            let s = s as usize;
            let Some(sc) = self.class_idx[s] else {
                continue;
            };
            let (lo, hi) = (self.lo[s], self.hi[s]);
            let new_lo = (t + 1).max(lo);
            if new_lo > lo {
                force += self.range_avg(sc, new_lo.min(hi), hi) - self.range_avg(sc, lo, hi);
            }
        }
        force
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::ResourceLimits;
    use hls_workloads::figures::fig5_graph;

    #[test]
    fn fig5_distribution_graph_matches_paper() {
        // "Addition a1 must be scheduled in step 1, so it contributes 1 to
        // that step. Similarly addition a2 adds 1 to control step 2.
        // Addition a3 could be scheduled in either step 2 or step 3, so it
        // contributes 1/2 to each."
        let (g, _) = fig5_graph();
        let cls = OpClassifier::typed();
        let dg = distribution_graphs(&g, &cls, 3).unwrap();
        let adds = &dg[&FuClass::Alu];
        assert_eq!(adds.len(), 3);
        assert!((adds[0] - 1.0).abs() < 1e-9, "{adds:?}");
        assert!((adds[1] - 1.5).abs() < 1e-9, "{adds:?}");
        assert!((adds[2] - 0.5).abs() < 1e-9, "{adds:?}");
    }

    #[test]
    fn fig5_fds_balances_a3_into_step3() {
        // "a3 would first be scheduled into step 3, since that would have
        // the greatest effect in balancing the graph."
        let (g, (a1, a2, a3, _)) = fig5_graph();
        let cls = OpClassifier::typed();
        let s = force_directed_schedule(&g, &cls, 3).unwrap();
        s.validate(&g, &cls, &ResourceLimits::unlimited()).unwrap();
        assert_eq!(s.step(a1), Some(0));
        assert_eq!(s.step(a2), Some(1));
        assert_eq!(s.step(a3), Some(2), "a3 balanced into the last step");
        // One adder suffices after balancing.
        assert_eq!(s.fu_usage(&g, &cls)[&FuClass::Alu], 1);
    }

    #[test]
    fn deadline_too_short_is_an_error() {
        let (g, _) = fig5_graph();
        let cls = OpClassifier::typed();
        assert!(matches!(
            force_directed_schedule(&g, &cls, 2),
            Err(ScheduleError::DeadlineTooShort { .. })
        ));
    }

    #[test]
    fn fds_minimizes_multipliers_on_diffeq() {
        // The HAL paper's flagship result: diffeq in 4 steps needs only 2
        // multipliers when force-balanced (6 multiplies spread 3+3... over
        // limited steps, a naive ASAP placement uses 4 in step 0).
        let g = hls_workloads::benchmarks::diffeq();
        let cls = OpClassifier::typed();
        let s = force_directed_schedule(&g, &cls, 4).unwrap();
        s.validate(&g, &cls, &ResourceLimits::unlimited()).unwrap();
        let mults = s.fu_usage(&g, &cls)[&FuClass::Multiplier];
        assert!(mults <= 3, "FDS should balance multiplies, got {mults}");
        // ASAP crams 4 multiplies into step 0.
        let asap = crate::asap::asap_schedule(&g, &cls, &ResourceLimits::unlimited()).unwrap();
        let asap_mults = asap.fu_usage(&g, &cls)[&FuClass::Multiplier];
        assert!(asap_mults >= mults);
    }

    #[test]
    fn longer_deadline_never_needs_more_fus() {
        let g = hls_workloads::benchmarks::ewf();
        let cls = OpClassifier::typed();
        let mut prev: Option<usize> = None;
        let (_, cp) = SchedGraph::build(&g, &cls).unwrap().asap();
        for extra in [0, 2, 4] {
            let s = force_directed_schedule(&g, &cls, cp + extra).unwrap();
            s.validate(&g, &cls, &ResourceLimits::unlimited()).unwrap();
            let total: usize = s.fu_usage(&g, &cls).values().sum();
            if let Some(p) = prev {
                assert!(
                    total <= p + 1,
                    "deadline {} jumped {} -> {}",
                    cp + extra,
                    p,
                    total
                );
            }
            prev = Some(total);
        }
    }

    #[test]
    fn stepped_engine_matches_one_shot_schedule() {
        let g = hls_workloads::benchmarks::diffeq();
        let cls = OpClassifier::typed();
        let mut eng = ForceScheduler::new(&g, &cls, 5).unwrap();
        let mut placements = Vec::new();
        while let Some(p) = eng.place_next().unwrap() {
            placements.push(p);
        }
        let stepped = eng.finish().unwrap();
        let oneshot = force_directed_schedule(&g, &cls, 5).unwrap();
        for (op, s) in stepped.iter() {
            assert_eq!(oneshot.step(op), Some(s));
        }
        assert!(!placements.is_empty());
    }
}
