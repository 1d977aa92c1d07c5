//! Design-space exploration.
//!
//! "A good synthesis system can produce several designs for the same
//! specification in a reasonable amount of time. This allows the developer
//! to explore different trade-offs between cost, speed, power and so on"
//! (§1.2). This module sweeps resource limits, scheduling algorithms, and
//! control styles over a behavior — serially via [`sweep_fus`]/[`sweep_grid`]
//! or across every core via [`Explorer`] — and extracts the area–latency
//! Pareto front.
//!
//! The parallel engine is the system's first genuinely concurrent hot
//! path: grid points fan out over a work-stealing pool ([`crate::par`]),
//! and a content-addressed memo cache (fingerprint of the lowered CDFG +
//! the fully configured synthesizer → result summary) collapses repeated
//! points so each distinct configuration is synthesized once. Result
//! order is fixed by the grid, never by thread interleaving, so parallel
//! sweeps are byte-identical to serial ones.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use hls_cdfg::Cdfg;
use hls_sched::Algorithm;

use crate::estimate::{prune_mask, Estimator, PruneStats};
use crate::par::{default_threads, ThreadPool};
use crate::pipeline::{cdfg_fingerprint, ControlStyle, PreparedBehavior, Synthesizer};
use crate::SynthesisError;

/// One explored design point.
#[derive(Clone, Debug, PartialEq)]
pub struct DesignPoint {
    /// Functional units used.
    pub fus: usize,
    /// Scheduling algorithm that produced the point.
    pub algorithm: Algorithm,
    /// Controller style of the point.
    pub control: ControlStyle,
    /// Latency in control steps.
    pub latency: u64,
    /// Estimated area in gate equivalents.
    pub area: f64,
    /// Registers used.
    pub registers: usize,
    /// Multiplexer inputs.
    pub mux_inputs: usize,
}

impl DesignPoint {
    fn new(cfg: &GridPoint, s: PointSummary) -> Self {
        DesignPoint {
            fus: cfg.fus,
            algorithm: cfg.algorithm,
            control: cfg.control,
            latency: s.latency,
            area: s.area,
            registers: s.registers,
            mux_inputs: s.mux_inputs,
        }
    }

    /// `true` when `self` dominates `other` (no worse on both axes,
    /// strictly better on one).
    pub fn dominates(&self, other: &DesignPoint) -> bool {
        (self.latency <= other.latency && self.area <= other.area)
            && (self.latency < other.latency || self.area < other.area)
    }
}

/// The numeric summary a sweep keeps per point, and what the memo cache
/// stores. [`Synthesizer::summarize_prepared`] computes it without the
/// parts of a [`SynthesisResult`] it does not read (control logic or
/// ROM, netlist, behavior copy).
///
/// [`SynthesisResult`]: crate::SynthesisResult
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct PointSummary {
    pub(crate) latency: u64,
    pub(crate) area: f64,
    pub(crate) registers: usize,
    pub(crate) mux_inputs: usize,
}

/// One grid coordinate: the overrides applied to the base synthesizer.
///
/// Public so callers that need *explicit* point lists — the batch
/// endpoint of `hls-serve` routes individual grid points to shard
/// workers — can name coordinates outside a cartesian [`GridSpec`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GridPoint {
    /// Universal-FU count override.
    pub fus: usize,
    /// Scheduling algorithm override.
    pub algorithm: Algorithm,
    /// Control style override.
    pub control: ControlStyle,
}

/// A multi-dimensional sweep specification: the cartesian product
/// FU count × scheduling algorithm × control style, explored in exactly
/// that nesting order (`fus` outermost, `controls` innermost).
#[derive(Clone, Debug)]
pub struct GridSpec {
    /// Universal-FU counts to explore.
    pub fus: Vec<usize>,
    /// Scheduling algorithms to explore.
    pub algorithms: Vec<Algorithm>,
    /// Control styles to explore.
    pub controls: Vec<ControlStyle>,
}

impl GridSpec {
    /// A pure FU sweep (`1..=max_fus`) under `base`'s configured
    /// algorithm and control style.
    pub fn fu_sweep(base: &Synthesizer, max_fus: usize) -> Self {
        GridSpec {
            fus: (1..=max_fus).collect(),
            algorithms: vec![base.configured_algorithm()],
            controls: vec![base.configured_control()],
        }
    }

    /// Number of grid points (duplicates included).
    pub fn len(&self) -> usize {
        self.fus.len() * self.algorithms.len() * self.controls.len()
    }

    /// `true` when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the cartesian grid into explicit coordinates, in grid
    /// order (`fus` outermost, `controls` innermost).
    pub fn expand(&self) -> Vec<GridPoint> {
        let mut out = Vec::with_capacity(self.len());
        for &fus in &self.fus {
            for &algorithm in &self.algorithms {
                for &control in &self.controls {
                    out.push(GridPoint {
                        fus,
                        algorithm,
                        control,
                    });
                }
            }
        }
        out
    }

    /// Expands the grid and collapses duplicate coordinates (an axis may
    /// repeat a value), keeping first-occurrence order. Parallel sweeps
    /// dispatch exactly these points; positions of
    /// [`GridSpec::expand`]-order duplicates are filled by copying their
    /// representative's result, so a spec-repeated point is synthesized
    /// (and memo-cached) once, not once per repetition.
    pub fn expand_unique(&self) -> Vec<GridPoint> {
        dedup_points(&self.expand()).0
    }

    fn points(&self) -> Vec<GridPoint> {
        self.expand()
    }
}

/// Collapses duplicate coordinates: the unique points in first-occurrence
/// order, plus one representative index per original position.
fn dedup_points(points: &[GridPoint]) -> (Vec<GridPoint>, Vec<usize>) {
    let mut uniq: Vec<GridPoint> = Vec::new();
    let mut index: HashMap<GridPoint, usize> = HashMap::new();
    let mut slot = Vec::with_capacity(points.len());
    for p in points {
        let next = uniq.len();
        let s = *index.entry(*p).or_insert_with(|| {
            uniq.push(*p);
            next
        });
        slot.push(s);
    }
    (uniq, slot)
}

/// The outcome of a pruned grid sweep
/// ([`Explorer::sweep_grid_cdfg_pruned`]).
#[derive(Clone, Debug)]
pub struct PrunedSweep {
    /// The synthesized (surviving) design points, in grid order.
    pub points: Vec<DesignPoint>,
    /// One flag per expanded-grid position: `true` when the point was
    /// skipped by the dominance pre-pass. `points` holds exactly the
    /// `false` positions, in order.
    pub pruned: Vec<bool>,
    /// Estimator and pruning counters.
    pub stats: PruneStats,
}

/// One record of a pruned streaming sweep
/// ([`Explorer::sweep_points_cdfg_streaming_pruned`]).
#[derive(Clone, Debug)]
pub enum StreamedPoint {
    /// Skipped by the estimator's dominance pre-pass — provably absent
    /// from the exhaustive Pareto front, never synthesized.
    Pruned,
    /// Synthesized to its summary (or answered from the memo cache).
    Synthesized {
        /// The synthesized design point.
        point: DesignPoint,
        /// `true` when the point was served from the memo cache.
        cache_hit: bool,
    },
}

/// Cache hit/miss counters of an [`Explorer`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Grid points answered from the memo cache (including waits on a
    /// point another worker was already synthesizing).
    pub hits: u64,
    /// Grid points this explorer synthesized to their summary.
    pub misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Content-addressed memo cache with in-flight deduplication: the first
/// worker to claim a key synthesizes it; concurrent lookups of the same
/// key park on a condvar and reuse the summary instead of repeating the
/// work.
struct MemoCache {
    map: Mutex<HashMap<u64, Arc<CacheCell>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

struct CacheCell {
    state: Mutex<CellState>,
    ready: Condvar,
}

enum CellState {
    Pending,
    Done(PointSummary),
    Failed(String),
}

impl MemoCache {
    fn new() -> Self {
        MemoCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
        }
    }

    /// Returns the summary plus `true` when it was served from the cache
    /// (including waits on a point another worker was synthesizing) or
    /// `false` when this call ran the computation itself.
    ///
    /// A computation that unwinds leaves its cell failed, not pending:
    /// the pool survives a panicking job, and a key that stayed pending
    /// would park every later lookup of it.
    fn get_or_compute(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<PointSummary, SynthesisError>,
    ) -> Result<(PointSummary, bool), SynthesisError> {
        let (cell, owner) = match lock(&self.map).entry(key) {
            Entry::Occupied(e) => (Arc::clone(e.get()), false),
            Entry::Vacant(v) => {
                let cell = Arc::new(CacheCell {
                    state: Mutex::new(CellState::Pending),
                    ready: Condvar::new(),
                });
                v.insert(Arc::clone(&cell));
                (cell, true)
            }
        };
        if owner {
            self.misses.fetch_add(1, Ordering::SeqCst);
            let mut claim = Claim {
                cell: &cell,
                outcome: None,
            };
            let result = compute();
            claim.outcome = Some(match &result {
                Ok(s) => CellState::Done(*s),
                Err(e) => CellState::Failed(e.to_string()),
            });
            drop(claim);
            result.map(|s| (s, false))
        } else {
            self.hits.fetch_add(1, Ordering::SeqCst);
            let mut state = lock(&cell.state);
            loop {
                match &*state {
                    CellState::Pending => {
                        state = cell
                            .ready
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    CellState::Done(s) => return Ok((*s, true)),
                    CellState::Failed(msg) => return Err(SynthesisError::Explore(msg.clone())),
                }
            }
        }
    }
}

/// The owner's hold on a pending cell. Dropping it publishes the
/// outcome and wakes the waiters; an owner whose computation unwound
/// never set one, and the cell fails instead of staying pending.
struct Claim<'a> {
    cell: &'a CacheCell,
    outcome: Option<CellState>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let outcome = self
            .outcome
            .take()
            .unwrap_or_else(|| CellState::Failed("design point synthesis panicked".to_string()));
        *lock(&self.cell.state) = outcome;
        self.cell.ready.notify_all();
    }
}

/// Locks `m`, recovering the guard if a holder panicked. Every lock in
/// this module guards state that each update leaves valid (one insert
/// into the memo map, one cell state assignment, one push of an actual),
/// so a poisoned lock still holds a consistent value.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Applies a grid coordinate to the base synthesizer.
pub(crate) fn configure(base: &Synthesizer, cfg: &GridPoint) -> Synthesizer {
    base.clone()
        .universal_fus(cfg.fus)
        .algorithm(cfg.algorithm)
        .control(cfg.control)
}

/// Summarizes one point from a prepared behavior.
///
/// The grid only perturbs FU count, algorithm, and control style — none
/// of which affect the transformation passes or the dependence/bound
/// analysis — so every point of a sweep shares one [`PreparedBehavior`]
/// instead of re-optimizing and re-analyzing the behavior per point.
/// The point runs only the stages its [`DesignPoint`] reads
/// ([`Synthesizer::summarize_prepared`]), and reports what full
/// synthesis of it would.
fn run_point(
    syn: &Synthesizer,
    prepared: &PreparedBehavior,
) -> Result<PointSummary, SynthesisError> {
    syn.summarize_prepared(prepared)
}

/// Sweeps universal-FU counts `1..=max_fus` over `source`, returning all
/// design points in sweep order. Serial reference path; see
/// [`Explorer::sweep_fus`] for the parallel, cached equivalent.
///
/// # Errors
///
/// Propagates the first synthesis failure (in grid order).
pub fn sweep_fus(
    base: &Synthesizer,
    source: &str,
    max_fus: usize,
) -> Result<Vec<DesignPoint>, SynthesisError> {
    sweep_grid(base, source, &GridSpec::fu_sweep(base, max_fus))
}

/// Serially sweeps the full cartesian grid over BSL `source`, returning
/// points in grid order.
///
/// # Errors
///
/// Propagates parse errors and the first synthesis failure (in grid
/// order).
pub fn sweep_grid(
    base: &Synthesizer,
    source: &str,
    spec: &GridSpec,
) -> Result<Vec<DesignPoint>, SynthesisError> {
    let cdfg = hls_lang::compile(source)?;
    sweep_grid_cdfg(base, &cdfg, spec)
}

/// Serially sweeps the grid over an already-compiled behavior.
///
/// # Errors
///
/// Propagates the first synthesis failure (in grid order).
pub fn sweep_grid_cdfg(
    base: &Synthesizer,
    cdfg: &Cdfg,
    spec: &GridSpec,
) -> Result<Vec<DesignPoint>, SynthesisError> {
    let prepared = base.prepare(cdfg.clone())?;
    spec.points()
        .iter()
        .map(|cfg| run_point(&configure(base, cfg), &prepared).map(|s| DesignPoint::new(cfg, s)))
        .collect()
}

/// The parallel, cached exploration engine.
///
/// Owns a work-stealing thread pool and a content-addressed memo cache;
/// both live across sweeps, so re-exploring a behavior (or overlapping
/// grids) is answered from the cache. Sizing: [`Explorer::new`] uses one
/// worker per available core, overridable with the `HLS_EXPLORE_THREADS`
/// environment variable or [`Explorer::with_threads`].
///
/// The pool is a [`ThreadPool::recycled`] one: an explorer built per
/// sweep takes the parked workers of one dropped before it instead of
/// spawning and joining its own. The memo cache is never shared.
///
/// # Examples
///
/// ```
/// use hls_core::{Explorer, Synthesizer};
///
/// let explorer = Explorer::with_threads(2);
/// let base = Synthesizer::new();
/// let points = explorer.sweep_fus(&base, hls_workloads::sources::SQRT, 3)?;
/// assert_eq!(points.len(), 3);
/// // Identical to the serial reference sweep, in the same order.
/// assert_eq!(points, hls_core::sweep_fus(&base, hls_workloads::sources::SQRT, 3)?);
/// # Ok::<(), hls_core::SynthesisError>(())
/// ```
#[derive(Debug)]
pub struct Explorer {
    pool: ThreadPool,
    cache: Arc<MemoCache>,
}

impl std::fmt::Debug for MemoCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Explorer {
    /// An explorer with [`default_threads`] workers.
    pub fn new() -> Self {
        Self::with_threads(default_threads())
    }

    /// An explorer with exactly `threads` workers (min 1).
    pub fn with_threads(threads: usize) -> Self {
        Explorer {
            pool: ThreadPool::recycled(threads),
            cache: Arc::new(MemoCache::new()),
        }
    }

    /// Number of pool workers.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Cumulative cache counters across every sweep this explorer ran.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Parallel, cached FU sweep; same results and order as [`sweep_fus`].
    ///
    /// # Errors
    ///
    /// Propagates parse errors and the first synthesis failure (in grid
    /// order).
    pub fn sweep_fus(
        &self,
        base: &Synthesizer,
        source: &str,
        max_fus: usize,
    ) -> Result<Vec<DesignPoint>, SynthesisError> {
        self.sweep_grid(base, source, &GridSpec::fu_sweep(base, max_fus))
    }

    /// Parallel, cached grid sweep over BSL `source`; same results and
    /// order as [`sweep_grid`].
    ///
    /// # Errors
    ///
    /// Propagates parse errors and the first synthesis failure (in grid
    /// order).
    pub fn sweep_grid(
        &self,
        base: &Synthesizer,
        source: &str,
        spec: &GridSpec,
    ) -> Result<Vec<DesignPoint>, SynthesisError> {
        let cdfg = hls_lang::compile(source)?;
        self.sweep_grid_cdfg(base, &cdfg, spec)
    }

    /// Parallel, cached grid sweep over an already-compiled behavior;
    /// same results and order as [`sweep_grid_cdfg`].
    ///
    /// # Errors
    ///
    /// Propagates the first synthesis failure (in grid order).
    pub fn sweep_grid_cdfg(
        &self,
        base: &Synthesizer,
        cdfg: &Cdfg,
        spec: &GridSpec,
    ) -> Result<Vec<DesignPoint>, SynthesisError> {
        self.sweep_grid_cdfg_cancellable(base, cdfg, spec, &crate::CancelToken::new())
    }

    /// Parallel, cached grid sweep under a cancellation token, checked
    /// before each grid point. A point that has started synthesizing
    /// runs to completion (so the memo cache is never poisoned with a
    /// cancellation); once the token fires, every unstarted point
    /// reports [`SynthesisError::Cancelled`] instead of synthesizing.
    ///
    /// # Errors
    ///
    /// Propagates the first synthesis failure or cancellation (in grid
    /// order).
    ///
    /// [`SynthesisError::Cancelled`]: crate::SynthesisError::Cancelled
    pub fn sweep_grid_cdfg_cancellable(
        &self,
        base: &Synthesizer,
        cdfg: &Cdfg,
        spec: &GridSpec,
        cancel: &crate::CancelToken,
    ) -> Result<Vec<DesignPoint>, SynthesisError> {
        let behavior_fp = cdfg_fingerprint(cdfg);
        let base = Arc::new(base.clone());
        // Passes and bound analyses run once per sweep; every grid point
        // (and worker) shares the prepared behavior.
        let prepared = Arc::new(base.prepare(cdfg.clone())?);
        let cache = Arc::clone(&self.cache);
        let cancel = cancel.clone();
        // A spec axis may repeat a value; dispatch each distinct
        // coordinate once and fan its result back out to every
        // duplicate position, so repeats never even consult the cache.
        let (uniq, slot) = dedup_points(&spec.points());
        let results = self.pool.map(uniq, move |_, cfg| {
            if cancel.is_cancelled() {
                return Err(SynthesisError::Cancelled {
                    completed: "explore-point",
                });
            }
            let syn = configure(&base, &cfg);
            let key = memo_key(behavior_fp, syn.fingerprint());
            cache
                .get_or_compute(key, || run_point(&syn, &prepared))
                .map(|(s, _)| DesignPoint::new(&cfg, s))
        });
        // First error in grid order, independent of completion order.
        let mut results: Vec<Option<Result<DesignPoint, SynthesisError>>> =
            results.into_iter().map(Some).collect();
        let mut out = Vec::with_capacity(slot.len());
        for &s in &slot {
            match results[s].take() {
                Some(Ok(p)) => {
                    results[s] = Some(Ok(p.clone()));
                    out.push(p);
                }
                Some(Err(e)) => return Err(e),
                None => {
                    return Err(SynthesisError::Explore(
                        "duplicate grid slot resolved twice".into(),
                    ))
                }
            }
        }
        Ok(out)
    }

    /// [`Explorer::sweep_grid_cdfg`] behind the QoR-estimator pruning
    /// pre-pass; see [`Explorer::sweep_grid_cdfg_pruned_cancellable`].
    ///
    /// # Errors
    ///
    /// Propagates the first synthesis failure among *synthesized* points
    /// (in grid order).
    pub fn sweep_grid_cdfg_pruned(
        &self,
        base: &Synthesizer,
        cdfg: &Cdfg,
        spec: &GridSpec,
    ) -> Result<PrunedSweep, SynthesisError> {
        self.sweep_grid_cdfg_pruned_cancellable(base, cdfg, spec, &crate::CancelToken::new())
    }

    /// Grid sweep with estimator-driven dominance pruning: every grid
    /// point is first *estimated* (sound latency/area intervals from the
    /// prepared bound analyses — no scheduling), and a point provably
    /// absent from the exhaustive Pareto front
    /// ([`crate::estimate::prune_mask`]) is skipped instead of
    /// synthesized. The surviving points' [`pareto_front`] is
    /// byte-identical to the exhaustive sweep's.
    ///
    /// Caveat on *errors*: pruning decisions ignore control style (it
    /// never affects latency or area), but hardwired controller
    /// generation can fail where microcode cannot — a pruned point that
    /// would have errored in the exhaustive sweep errors here only if a
    /// surviving point shares the failure.
    ///
    /// # Errors
    ///
    /// Propagates the first synthesis failure among *synthesized* points
    /// (in grid order).
    pub fn sweep_grid_cdfg_pruned_cancellable(
        &self,
        base: &Synthesizer,
        cdfg: &Cdfg,
        spec: &GridSpec,
        cancel: &crate::CancelToken,
    ) -> Result<PrunedSweep, SynthesisError> {
        let behavior_fp = cdfg_fingerprint(cdfg);
        let prepared = Arc::new(base.prepare(cdfg.clone())?);
        let all = spec.points();
        let estimates = Estimator::new(base, &prepared).estimate_points(&all);
        let mask = prune_mask(&estimates);
        let survivors: Vec<(usize, GridPoint)> = all
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| !mask[*i])
            .collect();

        let base = Arc::new(base.clone());
        let cache = Arc::clone(&self.cache);
        let cancel = cancel.clone();
        let results = {
            let prepared = Arc::clone(&prepared);
            self.pool.map(survivors.clone(), move |_, (_, cfg)| {
                if cancel.is_cancelled() {
                    return Err(SynthesisError::Cancelled {
                        completed: "explore-point",
                    });
                }
                let syn = configure(&base, &cfg);
                let key = memo_key(behavior_fp, syn.fingerprint());
                cache
                    .get_or_compute(key, || run_point(&syn, &prepared))
                    .map(|(s, _)| DesignPoint::new(&cfg, s))
            })
        };
        let points: Vec<DesignPoint> = results.into_iter().collect::<Result<_, _>>()?;

        // Self-check: did every bounded estimate contain its actual?
        let mut checked = 0usize;
        let mut inside = 0usize;
        for ((i, _), p) in survivors.iter().zip(&points) {
            let e = &estimates[*i];
            if e.bounded {
                checked += 1;
                if e.contains(p.latency, p.area) {
                    inside += 1;
                }
            }
        }
        let stats = PruneStats {
            estimated: all.len(),
            pruned: mask.iter().filter(|&&m| m).count(),
            synthesized: survivors.len(),
            agreement: if checked == 0 {
                1.0
            } else {
                inside as f64 / checked as f64
            },
        };
        Ok(PrunedSweep {
            points,
            pruned: mask,
            stats,
        })
    }

    /// Parallel, cached sweep over an *explicit* point list, invoking
    /// `on_point` from worker threads as each point completes (in
    /// completion order, not list order). This is the progress hook the
    /// batch-streaming endpoint of `hls-serve` is built on: each
    /// callback carries the point's index into `points`, and on success
    /// the [`DesignPoint`] plus whether it was served from the memo
    /// cache (`true`) or freshly synthesized (`false`).
    ///
    /// Cancellation follows [`Explorer::sweep_grid_cdfg_cancellable`]:
    /// started points run to completion, unstarted points report
    /// [`SynthesisError::Cancelled`] through the callback.
    ///
    /// # Errors
    ///
    /// Returns an error only when the behavior fails to *prepare*
    /// (before any point runs); per-point failures are delivered through
    /// `on_point` instead so one bad point cannot hide the others.
    ///
    /// [`SynthesisError::Cancelled`]: crate::SynthesisError::Cancelled
    pub fn sweep_points_cdfg_streaming<F>(
        &self,
        base: &Synthesizer,
        cdfg: &Cdfg,
        points: Vec<GridPoint>,
        cancel: &crate::CancelToken,
        on_point: F,
    ) -> Result<(), SynthesisError>
    where
        F: Fn(usize, Result<(DesignPoint, bool), SynthesisError>) + Send + Sync + 'static,
    {
        let behavior_fp = cdfg_fingerprint(cdfg);
        let base = Arc::new(base.clone());
        let prepared = Arc::new(base.prepare(cdfg.clone())?);
        let cache = Arc::clone(&self.cache);
        let cancel = cancel.clone();
        // map() blocks until every point has called back *and* every
        // worker has released its clone of the closure, so the caller
        // can finalize its stream (and reclaim anything `on_point`
        // captured) right after this returns.
        let _ = self.pool.map(points, move |seq, cfg| {
            if cancel.is_cancelled() {
                on_point(
                    seq,
                    Err(SynthesisError::Cancelled {
                        completed: "explore-point",
                    }),
                );
                return;
            }
            let syn = configure(&base, &cfg);
            let key = memo_key(behavior_fp, syn.fingerprint());
            let out = cache
                .get_or_compute(key, || run_point(&syn, &prepared))
                .map(|(s, hit)| (DesignPoint::new(&cfg, s), hit));
            on_point(seq, out);
        });
        Ok(())
    }

    /// [`Explorer::sweep_points_cdfg_streaming`] behind the
    /// QoR-estimator pruning pre-pass. Pruned positions call back
    /// immediately (from the caller's thread, in list order) with
    /// [`StreamedPoint::Pruned`]; surviving positions synthesize on the
    /// pool and call back in completion order with
    /// [`StreamedPoint::Synthesized`]. Every index of `points` calls
    /// back exactly once.
    ///
    /// # Errors
    ///
    /// Returns an error only when the behavior fails to *prepare*;
    /// per-point failures are delivered through `on_point`.
    pub fn sweep_points_cdfg_streaming_pruned<F>(
        &self,
        base: &Synthesizer,
        cdfg: &Cdfg,
        points: Vec<GridPoint>,
        cancel: &crate::CancelToken,
        on_point: F,
    ) -> Result<PruneStats, SynthesisError>
    where
        F: Fn(usize, Result<StreamedPoint, SynthesisError>) + Send + Sync + 'static,
    {
        let behavior_fp = cdfg_fingerprint(cdfg);
        let prepared = Arc::new(base.prepare(cdfg.clone())?);
        let estimates = Estimator::new(base, &prepared).estimate_points(&points);
        let mask = prune_mask(&estimates);
        let mut survivors = Vec::new();
        for (i, (p, pruned)) in points.iter().zip(&mask).enumerate() {
            if *pruned {
                on_point(i, Ok(StreamedPoint::Pruned));
            } else {
                survivors.push((i, *p));
            }
        }
        let synthesized = survivors.len();

        let base = Arc::new(base.clone());
        let cache = Arc::clone(&self.cache);
        let cancel = cancel.clone();
        // Actual (latency, area) per surviving list index, for the
        // agreement self-check once the pool drains.
        let actuals: Arc<Mutex<Vec<(usize, u64, f64)>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let prepared = Arc::clone(&prepared);
            let sink = Arc::clone(&actuals);
            let _ = self.pool.map(survivors, move |_, (seq, cfg)| {
                if cancel.is_cancelled() {
                    on_point(
                        seq,
                        Err(SynthesisError::Cancelled {
                            completed: "explore-point",
                        }),
                    );
                    return;
                }
                let syn = configure(&base, &cfg);
                let key = memo_key(behavior_fp, syn.fingerprint());
                match cache.get_or_compute(key, || run_point(&syn, &prepared)) {
                    Ok((s, hit)) => {
                        let point = DesignPoint::new(&cfg, s);
                        lock(&sink).push((seq, point.latency, point.area));
                        on_point(
                            seq,
                            Ok(StreamedPoint::Synthesized {
                                point,
                                cache_hit: hit,
                            }),
                        );
                    }
                    Err(e) => on_point(seq, Err(e)),
                }
            });
        }

        let actuals = lock(&actuals);
        let mut checked = 0usize;
        let mut inside = 0usize;
        for &(i, latency, area) in actuals.iter() {
            if estimates[i].bounded {
                checked += 1;
                if estimates[i].contains(latency, area) {
                    inside += 1;
                }
            }
        }
        Ok(PruneStats {
            estimated: points.len(),
            pruned: mask.iter().filter(|&&m| m).count(),
            synthesized,
            agreement: if checked == 0 {
                1.0
            } else {
                inside as f64 / checked as f64
            },
        })
    }
}

impl Default for Explorer {
    fn default() -> Self {
        Self::new()
    }
}

/// Combines the behavior and configuration fingerprints into one cache
/// key (FNV-1a over both digests).
fn memo_key(behavior_fp: u64, config_fp: u64) -> u64 {
    let mut w = hls_testkit::FnvWriter::new();
    w.update(&behavior_fp.to_le_bytes());
    w.update(&config_fp.to_le_bytes());
    w.finish()
}

/// Filters `points` down to the area–latency Pareto front, sorted by
/// latency.
///
/// Single sort + sweep (`O(n log n)`): after sorting by (latency, area),
/// a point is on the front iff its area is strictly below every area
/// seen so far. Duplicate (latency, area) pairs collapse to one point.
pub fn pareto_front(points: &[DesignPoint]) -> Vec<DesignPoint> {
    let mut sorted: Vec<&DesignPoint> = points.iter().collect();
    // total_cmp keeps the sort a strict weak ordering even if an area
    // comes back NaN (partial_cmp would collapse NaN pairs to Equal,
    // which is not transitive and can panic sort_by in debug builds);
    // NaN orders after +inf, so such points also lose the `<` sweep
    // below and never pollute the front.
    sorted.sort_by(|a, b| a.latency.cmp(&b.latency).then(a.area.total_cmp(&b.area)));
    let mut front = Vec::new();
    let mut best_area = f64::INFINITY;
    for p in sorted {
        if p.area < best_area {
            best_area = p.area;
            front.push(p.clone());
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_sched::Priority;

    fn point(latency: u64, area: f64) -> DesignPoint {
        DesignPoint {
            fus: 1,
            algorithm: Algorithm::List(Priority::PathLength),
            control: ControlStyle::Hardwired(hls_ctrl::EncodingStyle::Binary),
            latency,
            area,
            registers: 3,
            mux_inputs: 2,
        }
    }

    #[test]
    fn sweep_trades_area_for_speed() {
        let points = sweep_fus(&Synthesizer::new(), hls_workloads::sources::SQRT, 4).unwrap();
        assert_eq!(points.len(), 4);
        // Latency never increases with more FUs.
        for w in points.windows(2) {
            assert!(w[1].latency <= w[0].latency, "{points:?}");
        }
        // The single-FU point is the slowest.
        assert!(points[0].latency > points.last().unwrap().latency);
    }

    #[test]
    fn pareto_front_is_non_dominated() {
        let points = sweep_fus(&Synthesizer::new(), hls_workloads::sources::SQRT, 4).unwrap();
        let front = pareto_front(&points);
        assert!(!front.is_empty());
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                if i != j {
                    assert!(!a.dominates(b), "front contains dominated points");
                }
            }
        }
        // Front is sorted by latency.
        assert!(front.windows(2).all(|w| w[0].latency <= w[1].latency));
    }

    #[test]
    fn pareto_front_minimal_on_fixture() {
        // Hand-built: b dominated by a, d dominated by c, e a duplicate
        // of c, f on the front (slower but smaller than everything).
        let a = point(10, 100.0);
        let b = point(12, 120.0);
        let c = point(8, 130.0);
        let d = point(9, 135.0);
        let e = point(8, 130.0);
        let f = point(14, 90.0);
        let front = pareto_front(&[a.clone(), b, c.clone(), d, e, f.clone()]);
        assert_eq!(front, vec![c, a, f]);
    }

    #[test]
    fn pareto_front_survives_nan_area() {
        // A NaN area must neither panic the sort (total_cmp keeps the
        // comparator a total order) nor land on the front (NaN sorts
        // after +inf and fails the strict `<` sweep).
        let good = point(10, 100.0);
        let bad = point(8, f64::NAN);
        let also_bad = point(12, f64::NAN);
        let front = pareto_front(&[bad.clone(), good.clone(), also_bad, bad]);
        assert_eq!(front, vec![good]);
    }

    #[test]
    fn dominance_semantics() {
        let a = point(10, 100.0);
        let b = point(12, 120.0);
        let c = point(8, 130.0);
        assert!(a.dominates(&b));
        assert!(!a.dominates(&c));
        assert!(!c.dominates(&a));
        assert!(!a.dominates(&a), "no self-domination");
    }

    #[test]
    fn streaming_sweep_matches_grid_sweep_and_reports_hits() {
        use std::sync::Mutex;

        let explorer = Explorer::with_threads(2);
        let base = Synthesizer::new();
        let cdfg = hls_lang::compile(hls_workloads::sources::SQRT).unwrap();
        let spec = GridSpec {
            fus: vec![1, 2],
            algorithms: vec![Algorithm::Asap, Algorithm::List(Priority::PathLength)],
            controls: vec![ControlStyle::Hardwired(hls_ctrl::EncodingStyle::Binary)],
        };
        let reference = explorer
            .sweep_grid_cdfg(&base, &cdfg, &spec)
            .expect("reference sweep");

        let run = |expect_hits: bool| {
            let seen: Arc<Mutex<Vec<(usize, DesignPoint, bool)>>> =
                Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&seen);
            explorer
                .sweep_points_cdfg_streaming(
                    &base,
                    &cdfg,
                    spec.expand(),
                    &crate::CancelToken::new(),
                    move |seq, out| {
                        let (p, hit) = out.expect("point synthesizes");
                        sink.lock().unwrap().push((seq, p, hit));
                    },
                )
                .expect("streaming sweep");
            let mut seen = Arc::try_unwrap(seen).unwrap().into_inner().unwrap();
            seen.sort_by_key(|(seq, _, _)| *seq);
            assert_eq!(seen.len(), spec.len(), "every point calls back once");
            for (i, (seq, p, hit)) in seen.iter().enumerate() {
                assert_eq!(*seq, i);
                assert_eq!(p, &reference[i], "streamed point {i} disagrees");
                if expect_hits {
                    assert!(*hit, "point {i} should hit the warm memo cache");
                }
            }
        };
        // First streaming run may mix hits (the reference sweep warmed
        // the cache) — the second must be all hits.
        run(true);
        run(true);
    }

    #[test]
    fn streaming_sweep_cancellation_reaches_callback() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let explorer = Explorer::with_threads(2);
        let base = Synthesizer::new();
        let cdfg = hls_lang::compile(hls_workloads::sources::SQRT).unwrap();
        let cancel = crate::CancelToken::new();
        cancel.cancel();
        let cancelled = Arc::new(AtomicUsize::new(0));
        let sink = Arc::clone(&cancelled);
        explorer
            .sweep_points_cdfg_streaming(
                &base,
                &cdfg,
                GridSpec::fu_sweep(&base, 3).expand(),
                &cancel,
                move |_, out| {
                    if matches!(out, Err(SynthesisError::Cancelled { .. })) {
                        sink.fetch_add(1, Ordering::SeqCst);
                    }
                },
            )
            .expect("prepare still succeeds");
        assert_eq!(cancelled.load(Ordering::SeqCst), 3, "all points cancelled");
    }

    #[test]
    fn expand_unique_collapses_duplicates_in_first_occurrence_order() {
        let spec = GridSpec {
            fus: vec![2, 1, 2, 2],
            algorithms: vec![Algorithm::Asap],
            controls: vec![ControlStyle::Microcode],
        };
        assert_eq!(spec.len(), 4, "expand keeps duplicates");
        assert_eq!(spec.expand().len(), 4);
        let uniq = spec.expand_unique();
        assert_eq!(uniq.len(), 2);
        assert_eq!(uniq[0].fus, 2, "first occurrence wins the slot");
        assert_eq!(uniq[1].fus, 1);
    }

    #[test]
    fn duplicate_grid_points_synthesize_once_and_fan_out() {
        let explorer = Explorer::with_threads(2);
        let base = Synthesizer::new();
        let cdfg = hls_lang::compile(hls_workloads::sources::SQRT).unwrap();
        let spec = GridSpec {
            fus: vec![2, 1, 2],
            algorithms: vec![Algorithm::Asap],
            controls: vec![ControlStyle::Microcode],
        };
        let points = explorer.sweep_grid_cdfg(&base, &cdfg, &spec).unwrap();
        assert_eq!(points.len(), 3, "output shape keeps the duplicate");
        assert_eq!(points[0], points[2]);
        // The duplicate never reached the memo cache: two misses, no hits.
        let stats = explorer.cache_stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn pruned_sweep_preserves_the_pareto_front_exactly() {
        let explorer = Explorer::with_threads(2);
        let base = Synthesizer::new();
        let cdfg = hls_lang::compile(hls_workloads::sources::SQRT).unwrap();
        let spec = GridSpec {
            fus: vec![1, 2, 3, 4],
            algorithms: vec![
                Algorithm::Asap,
                Algorithm::List(Priority::PathLength),
                Algorithm::ForceDirected { slack: 1 },
            ],
            controls: vec![
                ControlStyle::Hardwired(hls_ctrl::EncodingStyle::Binary),
                ControlStyle::Microcode,
            ],
        };
        let exhaustive = explorer.sweep_grid_cdfg(&base, &cdfg, &spec).unwrap();
        let pruned = explorer
            .sweep_grid_cdfg_pruned(&base, &cdfg, &spec)
            .unwrap();
        assert_eq!(
            pareto_front(&pruned.points),
            pareto_front(&exhaustive),
            "pruning must not change the front"
        );
        assert_eq!(pruned.stats.estimated, spec.len());
        assert_eq!(
            pruned.stats.pruned + pruned.stats.synthesized,
            pruned.stats.estimated
        );
        assert!(
            pruned.stats.pruned > 0,
            "control-duplicate points alone guarantee pruning here"
        );
        assert_eq!(pruned.stats.agreement, 1.0, "{:?}", pruned.stats);
        assert_eq!(pruned.pruned.len(), spec.len());
        assert_eq!(
            pruned.pruned.iter().filter(|&&m| !m).count(),
            pruned.points.len()
        );
    }

    #[test]
    fn streaming_pruned_sweep_matches_the_batch_variant() {
        use std::sync::Mutex;

        let explorer = Explorer::with_threads(2);
        let base = Synthesizer::new();
        let cdfg = hls_lang::compile(hls_workloads::sources::SQRT).unwrap();
        let spec = GridSpec {
            fus: vec![1, 2, 3],
            algorithms: vec![Algorithm::Asap, Algorithm::List(Priority::PathLength)],
            controls: vec![
                ControlStyle::Hardwired(hls_ctrl::EncodingStyle::Binary),
                ControlStyle::Microcode,
            ],
        };
        let reference = explorer
            .sweep_grid_cdfg_pruned(&base, &cdfg, &spec)
            .unwrap();

        type SeenLog = Vec<(usize, Option<DesignPoint>)>;
        let seen: Arc<Mutex<SeenLog>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let stats = explorer
            .sweep_points_cdfg_streaming_pruned(
                &base,
                &cdfg,
                spec.expand(),
                &crate::CancelToken::new(),
                move |seq, out| {
                    let p = match out.expect("point synthesizes") {
                        StreamedPoint::Pruned => None,
                        StreamedPoint::Synthesized { point, .. } => Some(point),
                    };
                    sink.lock().unwrap().push((seq, p));
                },
            )
            .unwrap();
        let mut seen = Arc::try_unwrap(seen).unwrap().into_inner().unwrap();
        seen.sort_by_key(|(seq, _)| *seq);
        assert_eq!(seen.len(), spec.len(), "every position calls back once");
        let streamed: Vec<DesignPoint> = seen.iter().filter_map(|(_, p)| p.clone()).collect();
        assert_eq!(streamed, reference.points);
        for (i, (_, p)) in seen.iter().enumerate() {
            assert_eq!(p.is_none(), reference.pruned[i], "position {i}");
        }
        assert_eq!(stats.estimated, reference.stats.estimated);
        assert_eq!(stats.pruned, reference.stats.pruned);
        assert_eq!(stats.synthesized, reference.stats.synthesized);
        assert_eq!(stats.agreement, 1.0);
    }

    /// A computation that panics fails its cell: a later lookup of the
    /// same key returns an error instead of parking forever.
    #[test]
    fn panicking_point_fails_its_cell_instead_of_wedging_it() {
        use std::sync::mpsc;
        use std::time::Duration;

        let cache = Arc::new(MemoCache::new());
        let owner = Arc::clone(&cache);
        let unwound = std::thread::spawn(move || {
            owner.get_or_compute(7, || panic!("injected point failure"))
        })
        .join();
        assert!(unwound.is_err(), "the owner's computation panicked");

        let (tx, rx) = mpsc::channel();
        let waiter = Arc::clone(&cache);
        let lookup = std::thread::spawn(move || {
            let out = waiter.get_or_compute(7, || {
                Err(SynthesisError::Explore("recomputed a failed key".into()))
            });
            let _ = tx.send(out);
        });
        let out = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the lookup parked on the unwound cell");
        lookup.join().unwrap();
        match out {
            Err(SynthesisError::Explore(msg)) => assert!(msg.contains("panicked"), "{msg}"),
            other => panic!("expected the cell's failure, got {other:?}"),
        }
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn grid_spec_order_and_len() {
        let base = Synthesizer::new();
        let spec = GridSpec {
            fus: vec![1, 2],
            algorithms: vec![Algorithm::Asap, Algorithm::List(Priority::Urgency)],
            controls: vec![ControlStyle::Microcode],
        };
        assert_eq!(spec.len(), 4);
        assert!(!spec.is_empty());
        let pts = spec.points();
        assert_eq!(pts[0].fus, 1);
        assert_eq!(pts[0].algorithm, Algorithm::Asap);
        assert_eq!(pts[1].algorithm, Algorithm::List(Priority::Urgency));
        assert_eq!(pts[2].fus, 2);
        let _ = &base;
    }
}
