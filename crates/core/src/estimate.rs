//! Fast QoR estimation for design-space pruning.
//!
//! The paper's exploration loop synthesizes every candidate design in
//! full. This module predicts, per [`GridPoint`], a *sound interval* for
//! the quantities the Pareto front is computed from — total latency and
//! estimated area (plus FU and register cost components) — using only
//! the per-block ASAP/ALAP bound analyses already cached in
//! [`PreparedBehavior`]: no scheduler runs, no datapath is bound, no RTL
//! is emitted.
//!
//! Soundness is the contract: for every point whose estimate reports
//! `bounded`, the real pipeline's latency and area are guaranteed to lie
//! inside the predicted `[lo, hi]` intervals. That turns dominance
//! checks between intervals into *proofs* that a point cannot appear on
//! the exhaustive Pareto front, which is what lets
//! `Explorer::sweep_grid_cdfg_pruned` skip it without changing the
//! front (see [`prune_mask`] for the exact rule and argument).
//!
//! ## Latency model (per block, aggregated over the control tree)
//!
//! With `cp` the dependence-only critical path, `N_c` the number of
//! step-taking ops of FU class `c`, `N = Σ N_c`, `k_c` the resource
//! limit, and `H_c` the peak per-step occupancy of class `c` under
//! dependence-only ASAP ([`ClassStats::asap_peak`]):
//!
//! * Any valid schedule needs at least `max(cp, max_c ⌈N_c / k_c⌉)`
//!   steps (dependences and serialization are both binding).
//! * Greedy forward schedulers (ASAP, list) run at most `cp + N` steps:
//!   every control step either executes a step-taking op (at most `N`
//!   such steps) or holds only dependence-blocked work and chained-free
//!   ops, advancing the blocked chain (at most `cp` such steps along
//!   any path). Steps occupied purely by chained-free source ops — a
//!   graph whose every step-taking op consumes a shifted/wired value —
//!   fall in the second class, which is why the naive `≤ N` ceiling is
//!   unsound.
//! * **Saturation**: when `k_c ≥ H_c` for *every* class of *every*
//!   block, no limit can ever bind a greedy forward scheduler, and the
//!   schedule degenerates to dependence-only ASAP exactly — latency and
//!   per-class FU peaks become point predictions, not intervals.
//! * Time-constrained algorithms (force-directed, hierarchical FDS,
//!   freedom-based) schedule against deadline `max(cp,1) + slack` and
//!   ignore limits: latency lies in `[cp, deadline]`, exact at zero
//!   slack; FU peaks are bounded by the per-class *window support*
//!   ([`SchedGraph::window_peaks`]).
//! * Resource-constrained ALAP retries backward packing on horizons up
//!   to `4 × (ASAP length + slack)`, bounding its length by
//!   `4 × (cp + max(N,1) + slack)` (ASAP length is itself at most
//!   `cp + N`).
//! * Transformational scheduling is search-based with no useful a
//!   priori upper bound: its estimate is marked unbounded and is only
//!   ever pruned through configuration-identity (equal fingerprints).
//!
//! Per-block intervals aggregate over the control tree exactly like
//! `CdfgSchedule::total_latency` (sequences add, loops multiply by trip
//! hints, conditionals take the max branch) — every combinator is
//! monotone, so interval endpoints aggregate soundly.
//!
//! ## Area model
//!
//! Mirrors `hls_alloc::build_datapath` + `hls_rtl::estimate`: variable
//! registers and memories are *schedule-independent* and priced exactly;
//! FU cost is the per-class peak interval priced at the bound cell;
//! temporary registers and mux inputs get `[0, structural upper bound]`
//! intervals (counts of storable values and operand references — a
//! datapath can never use more). Everything scales by the same wiring
//! factor the real estimator applies. Pricing assumes cells whose area
//! is non-decreasing in width (true of `Library::standard`).

use std::collections::{BTreeMap, HashMap, HashSet};

use hls_cdfg::{BlockId, LoopKind, Region, ValueDef};
use hls_rtl::WIRING_FACTOR;
use hls_sched::{Algorithm, ClassStats, FuClass, ResourceLimits, SchedGraph};

use crate::explore::GridPoint;
use crate::pipeline::{debug_fingerprint, PreparedBehavior, Synthesizer};

/// A sound QoR interval prediction for one grid point.
///
/// When [`QorEstimate::bounded`] is `true`, the real pipeline's result
/// for this point is guaranteed to satisfy `latency.0 ≤ latency ≤
/// latency.1` and `area.0 ≤ area ≤ area.1` (and likewise for the cost
/// components). When `false`, the intervals are best-effort and must
/// not be used for dominance pruning.
#[derive(Clone, Debug, PartialEq)]
pub struct QorEstimate {
    /// Total latency interval in control steps (loop-aware, trip hints
    /// honored like `CdfgSchedule::total_latency`).
    pub latency: (u64, u64),
    /// Functional-unit area interval in gate equivalents (cells only,
    /// before wiring).
    pub fu_cost: (f64, f64),
    /// Register area interval in gate equivalents (variable registers
    /// exact + temporary-register upper bound, before wiring).
    pub register_cost: (f64, f64),
    /// Total area interval in gate equivalents (wiring included) —
    /// comparable to `SynthesisResult::area.total()`.
    pub area: (f64, f64),
    /// Fingerprint of the point's *effective* configuration: control
    /// style erased (it never enters latency or area), limits dropped
    /// for time-constrained algorithms, limits canonicalized to the
    /// dependence-ASAP peaks when saturation makes them unbinding.
    /// Equal fingerprints ⟹ provably identical synthesis outcomes.
    pub fingerprint: u64,
    /// `true` when the intervals above are sound bounds on the real
    /// pipeline; `false` for configurations the model cannot bound
    /// (transformational scheduling, zero limits, missing cells).
    pub bounded: bool,
}

impl QorEstimate {
    /// `true` when an actual `(latency, area)` outcome lies inside the
    /// predicted intervals (with a tiny relative tolerance on the float
    /// area axis).
    pub fn contains(&self, latency: u64, area: f64) -> bool {
        let eps = 1e-9 * self.area.1.abs().max(1.0);
        latency >= self.latency.0
            && latency <= self.latency.1
            && area >= self.area.0 - eps
            && area <= self.area.1 + eps
    }
}

/// Statistics the estimator precomputes once per block (shared by every
/// grid point of a sweep).
struct BlockFacts {
    block: BlockId,
    cp: u32,
    ops: usize,
    stats: Vec<ClassStats>,
    /// Op-defined values: upper bound on stored temporaries.
    op_values: usize,
    /// Total operand references of step-taking ops (mux upper bound).
    operand_refs: usize,
    classed_ops: usize,
    outputs: usize,
}

/// Per-block latency interval and per-class FU-peak intervals for one
/// algorithm choice.
struct BlockBounds {
    lat: (u64, u64),
    fu: BTreeMap<FuClass, (usize, usize)>,
    bounded: bool,
}

/// The reusable estimation context of one sweep: per-block facts plus
/// the schedule-independent exact area components, computed once from a
/// [`PreparedBehavior`] and then queried per [`GridPoint`].
pub struct Estimator<'a> {
    base: &'a Synthesizer,
    /// The base configuration's fingerprint, which every point's
    /// effective fingerprint extends.
    base_fingerprint: u64,
    /// The limits every saturated point behaves as: the per-class
    /// dependence-ASAP peaks.
    saturated_limits: ResourceLimits,
    prepared: &'a PreparedBehavior,
    blocks: Vec<BlockFacts>,
    var_area: f64,
    mem_area: f64,
    reg_area_wmax: f64,
    mux_unit_area: f64,
    temp_hi: usize,
    mux_hi: usize,
}

impl<'a> Estimator<'a> {
    /// Builds the context. `prepared` must come from `base.prepare(..)`
    /// (same classifier), exactly like `synthesize_prepared`.
    pub fn new(base: &'a Synthesizer, prepared: &'a PreparedBehavior) -> Self {
        let cdfg = prepared.cdfg();
        let classifier = prepared.classifier();
        let library = base.library_ref();
        let mut blocks = Vec::new();
        let mut seen: HashSet<BlockId> = HashSet::new();
        let mut max_value_width_global = 1u8;
        for (block, sg) in prepared.bounds().blocks() {
            if !seen.insert(block) {
                continue; // blocks may repeat in shared regions
            }
            let dfg = &cdfg.block(block).dfg;
            let (_, cp) = sg.asap();
            let stats = sg.class_stats();
            let mut op_values = 0usize;
            let mut max_value_width = 1u8;
            for v in dfg.value_ids() {
                if matches!(dfg.value(v).def, ValueDef::Op(_)) {
                    op_values += 1;
                    max_value_width = max_value_width.max(dfg.value(v).width);
                }
            }
            max_value_width_global = max_value_width_global.max(max_value_width);
            let mut operand_refs = 0usize;
            let mut classed_ops = 0usize;
            for op in dfg.op_ids() {
                if classifier.classify(dfg, op).is_some() {
                    classed_ops += 1;
                    operand_refs += dfg.op(op).operands.len();
                }
            }
            blocks.push(BlockFacts {
                block,
                cp,
                ops: sg.len(),
                stats,
                op_values,
                operand_refs,
                classed_ops,
                outputs: dfg.outputs().len(),
            });
        }
        // Exact, schedule-independent area components from the prepared
        // variable table (pricing mirrors Datapath::to_netlist +
        // hls_rtl::estimate, where instances of unknown cells are charged
        // zero).
        let price = |name: &str, width: u8| library.cell(name).map_or(0.0, |c| c.area(width));
        let var_area: f64 = prepared.vars.widths().map(|w| price("reg_dff", w)).sum();
        let mem_area = prepared.vars.memories().len() as f64 * price("mem_1rw", 32);
        let temp_hi = blocks.iter().map(|b| b.op_values).max().unwrap_or(0);
        let mux_hi = blocks
            .iter()
            .map(|b| b.operand_refs + b.classed_ops + b.outputs)
            .sum();
        let mut peaks: BTreeMap<FuClass, usize> = BTreeMap::new();
        for s in blocks.iter().flat_map(|b| &b.stats).filter(|s| s.ops > 0) {
            let e = peaks.entry(s.class).or_insert(0);
            *e = (*e).max(s.asap_peak);
        }
        let saturated_limits = peaks
            .into_iter()
            .fold(ResourceLimits::unlimited(), |l, (c, p)| l.with(c, p.max(1)));
        Estimator {
            base,
            base_fingerprint: base.fingerprint(),
            saturated_limits,
            prepared,
            blocks,
            var_area,
            mem_area,
            reg_area_wmax: price("reg_dff", max_value_width_global),
            mux_unit_area: price("mux2", 32),
            temp_hi,
            mux_hi,
        }
    }

    /// Estimates one grid point. Never runs a scheduler; cost is linear
    /// in the number of ops (and only for time-constrained algorithms,
    /// which need per-deadline window supports).
    pub fn estimate(&self, point: &GridPoint) -> QorEstimate {
        // The limits `configure` gives the point.
        let limits = ResourceLimits::universal(point.fus);
        let library = self.base.library_ref();
        let mut bounded = true;

        // Per-block latency + FU-peak intervals.
        let mut lat_by_block: HashMap<BlockId, (u64, u64)> = HashMap::new();
        let mut fu_global: BTreeMap<FuClass, (usize, usize)> = BTreeMap::new();
        for facts in &self.blocks {
            let bb = match self.prepared.bounds().graph(facts.block) {
                Some(sg) => block_bounds(facts, sg, &limits, point.algorithm),
                None => BlockBounds {
                    lat: (0, u64::MAX),
                    fu: BTreeMap::new(),
                    bounded: false,
                },
            };
            bounded &= bb.bounded;
            lat_by_block.insert(facts.block, bb.lat);
            for (class, (lo, hi)) in bb.fu {
                let e = fu_global.entry(class).or_insert((0, 0));
                e.0 = e.0.max(lo);
                e.1 = e.1.max(hi);
            }
        }
        let latency = region_interval(self.prepared.cdfg().body(), &lat_by_block);

        // FU pricing at the cells build_datapath would bind.
        let mut fu_lo = 0.0f64;
        let mut fu_hi = 0.0f64;
        for (&class, &(lo, hi)) in &fu_global {
            match library.bind(hls_alloc::cell_class_for(class), 32, None) {
                Some(cell) => {
                    let a = cell.area(32);
                    fu_lo += lo as f64 * a;
                    fu_hi += hi as f64 * a;
                }
                // build_datapath would fail with MissingCell; the point
                // cannot be bounded (and will surface the real error if
                // synthesized).
                None => bounded = false,
            }
        }

        let temp_hi_area = self.temp_hi as f64 * self.reg_area_wmax;
        let register_cost = (self.var_area, self.var_area + temp_hi_area);
        let fixed = self.var_area + self.mem_area;
        let wiring = 1.0 + WIRING_FACTOR;
        let area = (
            (fixed + fu_lo) * wiring,
            (fixed + fu_hi + temp_hi_area + self.mux_hi as f64 * self.mux_unit_area) * wiring,
        );

        QorEstimate {
            latency,
            fu_cost: (fu_lo, fu_hi),
            register_cost,
            area,
            fingerprint: self.canonical_fingerprint(&limits, point.algorithm),
            bounded,
        }
    }

    /// Estimates every point of a grid, in grid order.
    pub fn estimate_points(&self, points: &[GridPoint]) -> Vec<QorEstimate> {
        points.iter().map(|p| self.estimate(p)).collect()
    }

    /// `true` when no resource limit can ever bind a greedy forward
    /// scheduler on this behavior: every class of every block has its
    /// dependence-ASAP peak within the limit.
    fn saturated(&self, limits: &ResourceLimits) -> bool {
        self.blocks.iter().all(|b| {
            b.stats
                .iter()
                .all(|s| s.ops == 0 || limits.limit(s.class) >= s.asap_peak)
        })
    }

    /// Fingerprint of the *effective* configuration — see
    /// [`QorEstimate::fingerprint`]: the base configuration's fingerprint,
    /// then the point's canonical limits and its algorithm. A grid point
    /// differs from the base only in limits, algorithm and control style,
    /// and the control style never enters the schedule or the datapath,
    /// so it is left out.
    fn canonical_fingerprint(&self, limits: &ResourceLimits, algorithm: Algorithm) -> u64 {
        let unlimited = ResourceLimits::unlimited();
        let limits = match algorithm {
            // Time-constrained schedulers never read limits.
            Algorithm::ForceDirected { .. }
            | Algorithm::HierForce { .. }
            | Algorithm::FreedomBased { .. } => &unlimited,
            // All saturated limit choices behave identically.
            Algorithm::Asap | Algorithm::List(_) if self.saturated(limits) => {
                &self.saturated_limits
            }
            _ => limits,
        };
        debug_fingerprint(&(self.base_fingerprint, limits, algorithm))
    }
}

/// Latency and FU-peak intervals of one block under one algorithm.
fn block_bounds(
    facts: &BlockFacts,
    sg: &SchedGraph,
    limits: &ResourceLimits,
    algorithm: Algorithm,
) -> BlockBounds {
    let cp = facts.cp as u64;
    // Every live op (wired constants included) is assigned a step, so a
    // block with any ops takes at least one step.
    let floor = if facts.ops == 0 { 0 } else { cp.max(1) };
    let n: usize = facts.stats.iter().map(|s| s.ops).sum();
    let n_classes = facts.stats.iter().filter(|s| s.ops > 0).count();
    if facts.ops == 0 {
        return BlockBounds {
            lat: (0, 0),
            fu: BTreeMap::new(),
            bounded: true,
        };
    }
    // Lower bound on any valid schedule under `limits`.
    let mut serial_lo = floor;
    let mut feasible = true;
    for s in &facts.stats {
        if s.ops == 0 {
            continue;
        }
        let k = limits.limit(s.class);
        if k == 0 {
            feasible = false; // synthesis will error; cannot bound
        } else {
            serial_lo = serial_lo.max(s.ops.div_ceil(k) as u64);
        }
    }
    // Greedy upper bound: every step either executes a step-taking op
    // (≤ n of those) or advances a dependence-blocked chain (≤ cp of
    // those along any path) — steps holding only chained-free ops are
    // chain-advance steps, so `n` alone is NOT a sound ceiling.
    let n_hi = (n as u64).saturating_add(cp).max(floor);
    let saturated = facts
        .stats
        .iter()
        .all(|s| s.ops == 0 || limits.limit(s.class) >= s.asap_peak);

    let mut fu = BTreeMap::new();
    let (lat, bounded) = match algorithm {
        Algorithm::Asap | Algorithm::List(_) => {
            let lat = if saturated && feasible {
                // Greedy forward scheduling degenerates to
                // dependence-only ASAP: exact.
                (floor, floor)
            } else {
                (serial_lo, n_hi)
            };
            for s in &facts.stats {
                if s.ops == 0 {
                    continue;
                }
                let k = limits.limit(s.class);
                let hi = if saturated {
                    s.asap_peak
                } else if n_classes <= 1 {
                    // Single class: the greedy peak can never exceed
                    // the dependence-ASAP peak (no cross-class backlog
                    // can re-bunch ops).
                    k.min(s.asap_peak)
                } else {
                    k.min(s.ops)
                };
                let lo = if saturated {
                    s.asap_peak
                } else {
                    div_ceil_u64(s.ops as u64, lat.1.max(1)) as usize
                };
                fu.insert(s.class, (lo.min(hi), hi));
            }
            (lat, feasible)
        }
        Algorithm::Alap { slack } => {
            let hi = 4u64
                .saturating_mul(
                    cp.saturating_add((n as u64).max(1))
                        .saturating_add(slack as u64),
                )
                .max(floor);
            for s in &facts.stats {
                if s.ops > 0 {
                    fu.insert(s.class, (0, limits.limit(s.class).min(s.ops)));
                }
            }
            ((serial_lo, hi), feasible)
        }
        Algorithm::BranchAndBound { .. } => {
            for s in &facts.stats {
                if s.ops > 0 {
                    let lo = div_ceil_u64(s.ops as u64, n_hi.max(1)) as usize;
                    let hi = limits.limit(s.class).min(s.ops);
                    fu.insert(s.class, (lo.min(hi), hi));
                }
            }
            ((serial_lo, n_hi), feasible)
        }
        Algorithm::ForceDirected { slack }
        | Algorithm::HierForce { slack, .. }
        | Algorithm::FreedomBased { slack } => {
            let deadline = facts.cp.max(1).saturating_add(slack);
            match sg.window_peaks(deadline) {
                Ok(peaks) => {
                    for (class, peak) in peaks {
                        let ops = facts
                            .stats
                            .iter()
                            .find(|s| s.class == class)
                            .map_or(0, |s| s.ops);
                        if ops > 0 {
                            let lo = div_ceil_u64(ops as u64, deadline as u64) as usize;
                            fu.insert(class, (lo.min(peak), peak));
                        }
                    }
                    ((floor, deadline as u64), true)
                }
                Err(_) => ((floor, deadline as u64), false),
            }
        }
        Algorithm::Transformational => {
            // Search-based serialization: no useful a-priori upper
            // bound. The peak can still never exceed min(k, N_c).
            for s in &facts.stats {
                if s.ops > 0 {
                    fu.insert(s.class, (0, limits.limit(s.class).min(s.ops)));
                }
            }
            ((serial_lo, u64::MAX), false)
        }
    };
    BlockBounds { lat, fu, bounded }
}

fn div_ceil_u64(a: u64, b: u64) -> u64 {
    a.div_ceil(b.max(1))
}

/// Aggregates per-block latency intervals over the control tree, exactly
/// mirroring `CdfgSchedule::total_latency` (default trip = 1). Every
/// combinator is monotone in its block latencies, so applying it to
/// interval endpoints is sound. Saturating arithmetic keeps unbounded
/// (`u64::MAX`) components from wrapping.
fn region_interval(region: &Region, lat: &HashMap<BlockId, (u64, u64)>) -> (u64, u64) {
    match region {
        Region::Block(b) => lat.get(b).copied().unwrap_or((0, 0)),
        Region::Seq(rs) => rs.iter().fold((0, 0), |acc, r| {
            let (lo, hi) = region_interval(r, lat);
            (acc.0.saturating_add(lo), acc.1.saturating_add(hi))
        }),
        Region::Loop(l) => {
            let body = region_interval(&l.body, lat);
            let cond = match (l.kind, l.cond_block) {
                (LoopKind::While, Some(c)) => lat.get(&c).copied().unwrap_or((0, 0)),
                _ => (0, 0),
            };
            let trips = l.trip_hint.unwrap_or(1);
            match l.kind {
                LoopKind::While => (
                    trips
                        .saturating_mul(body.0)
                        .saturating_add((trips + 1).saturating_mul(cond.0)),
                    trips
                        .saturating_mul(body.1)
                        .saturating_add((trips + 1).saturating_mul(cond.1)),
                ),
                LoopKind::DoUntil => (trips.saturating_mul(body.0), trips.saturating_mul(body.1)),
            }
        }
        Region::If(i) => {
            let cond = lat.get(&i.cond_block).copied().unwrap_or((0, 0));
            let t = region_interval(&i.then_region, lat);
            let e = i
                .else_region
                .as_ref()
                .map(|r| region_interval(r, lat))
                .unwrap_or((0, 0));
            (
                cond.0.saturating_add(t.0.max(e.0)),
                cond.1.saturating_add(t.1.max(e.1)),
            )
        }
    }
}

/// Decides which grid points a pruned sweep may skip. `mask[i] == true`
/// means point `i` is *provably absent* from the exhaustive Pareto
/// front and need not be synthesized.
///
/// Point `p` is pruned exactly when one of:
///
/// 1. **Identity**: an earlier point has the same effective-configuration
///    fingerprint. The earlier twin produces a byte-identical
///    `(latency, area)` outcome, and `pareto_front`'s stable
///    `(latency, area)` sort keeps the earlier of two exact ties — the
///    later twin can never enter the front.
/// 2. **Strict interval dominance**: some bounded point `q` (anywhere in
///    the grid) has `q.hi < p.lo` strictly on both axes. Then
///    `q.actual < p.actual` strictly on both axes, so `p` is strictly
///    dominated and off the front.
/// 3. **Weak dominance by an earlier point**: some bounded `q` before
///    `p` in grid order has `q.hi ≤ p.lo` on both axes. Then
///    `q.actual ≤ p.actual` componentwise; wherever the sweep would
///    have admitted `p`, `q` (sorted no later, or stable-earlier on an
///    exact tie) already blocks it.
///
/// Witnesses may themselves be pruned: chasing a pruned witness's own
/// witness strictly decreases (actuals, grid index) lexicographically,
/// so a *surviving* witness always exists — pruning is closed under
/// composition and the surviving set's front equals the exhaustive
/// front exactly.
pub fn prune_mask(estimates: &[QorEstimate]) -> Vec<bool> {
    let n = estimates.len();
    let mut mask = vec![false; n];
    // Rule 1: identity with an earlier point.
    let mut seen: HashSet<u64> = HashSet::new();
    for (i, e) in estimates.iter().enumerate() {
        if !seen.insert(e.fingerprint) {
            mask[i] = true;
        }
    }
    // Rules 2 and 3: interval dominance.
    for i in 0..n {
        if mask[i] || !estimates[i].bounded {
            continue;
        }
        let p = &estimates[i];
        for (j, q) in estimates.iter().enumerate() {
            if i == j || !q.bounded {
                continue;
            }
            let strict = q.latency.1 < p.latency.0 && q.area.1 < p.area.0;
            let weak = j < i && q.latency.1 <= p.latency.0 && q.area.1 <= p.area.0;
            if strict || weak {
                mask[i] = true;
                break;
            }
        }
    }
    mask
}

/// Outcome counters of one pruned sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PruneStats {
    /// Grid points estimated (the full expanded grid).
    pub estimated: usize,
    /// Points skipped by the dominance pre-pass.
    pub pruned: usize,
    /// Points that were synthesized to their summary (or hit the memo
    /// cache).
    pub synthesized: usize,
    /// Fraction of synthesized, bounded points whose actual
    /// `(latency, area)` landed inside the predicted interval — a
    /// self-check that should always read `1.0`; anything lower means
    /// an estimator bound is wrong.
    pub agreement: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{configure, GridSpec};
    use crate::ControlStyle;
    use hls_sched::Priority;

    fn grid(fus: Vec<usize>, algorithms: Vec<Algorithm>) -> Vec<GridPoint> {
        GridSpec {
            fus,
            algorithms,
            controls: vec![
                ControlStyle::Hardwired(hls_ctrl::EncodingStyle::Binary),
                ControlStyle::Microcode,
            ],
        }
        .expand()
    }

    fn all_algorithms() -> Vec<Algorithm> {
        vec![
            Algorithm::Asap,
            Algorithm::Alap { slack: 1 },
            Algorithm::List(Priority::PathLength),
            Algorithm::List(Priority::Urgency),
            Algorithm::ForceDirected { slack: 0 },
            Algorithm::ForceDirected { slack: 2 },
            Algorithm::HierForce {
                slack: 1,
                window: 8,
            },
            Algorithm::FreedomBased { slack: 0 },
            Algorithm::BranchAndBound {
                node_budget: 200_000,
            },
        ]
    }

    /// The soundness contract on a real workload: every bounded
    /// estimate contains the real pipeline's outcome.
    #[test]
    fn estimates_bound_the_real_pipeline_on_sqrt_and_gcd() {
        for src in [hls_workloads::sources::SQRT, hls_workloads::sources::GCD] {
            let base = Synthesizer::new();
            let cdfg = hls_lang::compile(src).unwrap();
            let prepared = base.prepare(cdfg).unwrap();
            let est = Estimator::new(&base, &prepared);
            for point in grid(vec![1, 2, 3], all_algorithms()) {
                let e = est.estimate(&point);
                let syn = configure(&base, &point);
                let r = syn.synthesize_prepared(&prepared).unwrap();
                assert!(e.latency.0 <= e.latency.1);
                assert!(e.area.0 <= e.area.1);
                if e.bounded {
                    assert!(
                        e.contains(r.latency, r.area.total()),
                        "{point:?}: actual ({}, {}) outside {:?}/{:?}",
                        r.latency,
                        r.area.total(),
                        e.latency,
                        e.area,
                    );
                }
            }
        }
    }

    /// Control style never enters latency or area: the two control
    /// variants of a point share one effective fingerprint.
    #[test]
    fn control_styles_share_a_fingerprint() {
        let base = Synthesizer::new();
        let cdfg = hls_lang::compile(hls_workloads::sources::SQRT).unwrap();
        let prepared = base.prepare(cdfg).unwrap();
        let est = Estimator::new(&base, &prepared);
        let points = grid(vec![2], vec![Algorithm::Asap]);
        assert_eq!(points.len(), 2);
        let a = est.estimate(&points[0]);
        let b = est.estimate(&points[1]);
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    /// Past the saturation point, extra FUs change nothing: the
    /// fingerprints collapse. Time-constrained algorithms ignore FUs
    /// entirely.
    #[test]
    fn saturated_and_time_constrained_fingerprints_collapse() {
        let base = Synthesizer::new();
        let cdfg = hls_lang::compile(hls_workloads::sources::SQRT).unwrap();
        let prepared = base.prepare(cdfg).unwrap();
        let est = Estimator::new(&base, &prepared);
        for alg in [Algorithm::Asap, Algorithm::ForceDirected { slack: 1 }] {
            let mk = |fus| {
                est.estimate(&GridPoint {
                    fus,
                    algorithm: alg,
                    control: ControlStyle::Microcode,
                })
            };
            assert_eq!(mk(8).fingerprint, mk(16).fingerprint, "{alg:?}");
        }
        // Below saturation the fingerprints must differ.
        let one = est.estimate(&GridPoint {
            fus: 1,
            algorithm: Algorithm::Asap,
            control: ControlStyle::Microcode,
        });
        let many = est.estimate(&GridPoint {
            fus: 16,
            algorithm: Algorithm::Asap,
            control: ControlStyle::Microcode,
        });
        assert_ne!(one.fingerprint, many.fingerprint);
    }

    fn fixture(lo: u64, hi: u64, alo: f64, ahi: f64, fp: u64) -> QorEstimate {
        QorEstimate {
            latency: (lo, hi),
            fu_cost: (0.0, 0.0),
            register_cost: (0.0, 0.0),
            area: (alo, ahi),
            fingerprint: fp,
            bounded: true,
        }
    }

    #[test]
    fn prune_mask_rules() {
        // 0 dominates 2 strictly (rule 2, even though 2 precedes
        // nothing), 1 is an identity twin of 0 (rule 1), 3 is weakly
        // dominated by the earlier 0 (rule 3), 4 overlaps and survives,
        // 5 is unbounded and survives.
        let mut e5 = fixture(1, 1, 1.0, 1.0, 105);
        e5.bounded = false;
        let es = vec![
            fixture(10, 12, 100.0, 110.0, 100),
            fixture(10, 12, 100.0, 110.0, 100),
            fixture(20, 30, 200.0, 300.0, 102),
            fixture(12, 30, 110.0, 300.0, 103),
            fixture(8, 30, 90.0, 300.0, 104),
            e5,
        ];
        assert_eq!(prune_mask(&es), vec![false, true, true, true, false, false]);
    }

    #[test]
    fn unbounded_estimates_never_witness() {
        let mut q = fixture(1, 1, 1.0, 1.0, 1);
        q.bounded = false;
        let p = fixture(10, 20, 100.0, 200.0, 2);
        assert_eq!(prune_mask(&[q, p]), vec![false, false]);
    }

    #[test]
    fn mutual_weak_dominance_keeps_the_earlier_point() {
        // Identical intervals, distinct fingerprints: only the later
        // one may be pruned (rule 3 requires an earlier witness).
        let a = fixture(5, 5, 50.0, 50.0, 1);
        let b = fixture(5, 5, 50.0, 50.0, 2);
        assert_eq!(prune_mask(&[a, b]), vec![false, true]);
    }
}
