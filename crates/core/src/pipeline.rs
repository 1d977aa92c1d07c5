//! The end-to-end synthesis pipeline.
//!
//! Ties together the whole flow of §2: compile → optimize → schedule →
//! allocate → generate control → emit structure.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hls_alloc::{build_datapath_with, Datapath, FuStrategy, VariableTable};
use hls_cdfg::{Cdfg, Fx};
use hls_ctrl::{build_fsm, hardwired_logic, microcode, EncodingStyle, Fsm, HardwiredReport};
use hls_opt::PassStats;
use hls_rtl::{AreaReport, Library, Netlist};
use hls_sched::{
    schedule_cdfg_cached, Algorithm, CdfgBoundsCache, CdfgSchedule, OpClassifier, Priority,
    ResourceLimits,
};

use crate::explore::PointSummary;
use crate::SynthesisError;

/// Controller implementation style.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ControlStyle {
    /// Hardwired FSM with the given state encoding.
    Hardwired(EncodingStyle),
    /// Microprogrammed control.
    Microcode,
}

/// A cooperative cancellation token checked between pipeline stages.
///
/// Clones share the same cancellation flag, so a server can hand a clone
/// to a worker and cancel it from the accept loop. A token may also carry
/// a deadline; [`CancelToken::is_cancelled`] fires once the deadline has
/// passed, which gives per-request timeouts without a watchdog thread.
///
/// Cancellation is *between stages*: a stage that has started runs to
/// completion, and [`SynthesisError::Cancelled`] names the last stage
/// that finished (the partial result the caller can still report).
///
/// [`SynthesisError::Cancelled`]: crate::SynthesisError::Cancelled
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that auto-cancels `timeout` from now (and can still be
    /// cancelled explicitly before that).
    pub fn with_timeout(timeout: Duration) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Instant::now().checked_add(timeout),
        }
    }

    /// Requests cancellation; every clone of this token observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// `true` once [`CancelToken::cancel`] ran or the deadline passed.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Returns `Err(SynthesisError::Cancelled { completed })` when the
    /// token has fired; `completed` should name the stage that just ran.
    fn check(&self, completed: &'static str) -> Result<(), SynthesisError> {
        if self.is_cancelled() {
            Err(SynthesisError::Cancelled { completed })
        } else {
            Ok(())
        }
    }
}

/// The configurable synthesis front end (builder).
///
/// # Examples
///
/// ```
/// use hls_core::Synthesizer;
///
/// let result = Synthesizer::new()
///     .universal_fus(2)
///     .synthesize_source(hls_workloads::sources::SQRT)?;
/// assert_eq!(result.latency, 10); // the paper's optimized schedule
/// # Ok::<(), hls_core::SynthesisError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Synthesizer {
    optimize: bool,
    unroll: bool,
    if_convert: bool,
    classifier: OpClassifier,
    limits: ResourceLimits,
    algorithm: Algorithm,
    fu_strategy: FuStrategy,
    control: ControlStyle,
    library: Library,
}

impl Synthesizer {
    /// Default flow: standard optimizations, free constant shifts, two
    /// universal FUs, list scheduling (path-length priority), greedy
    /// interconnect-aware binding, hardwired binary-encoded control.
    pub fn new() -> Self {
        Synthesizer {
            optimize: true,
            unroll: false,
            if_convert: false,
            classifier: OpClassifier::universal_free_shifts(),
            limits: ResourceLimits::universal(2),
            algorithm: Algorithm::List(Priority::PathLength),
            fu_strategy: FuStrategy::GreedyAware,
            control: ControlStyle::Hardwired(EncodingStyle::Binary),
            library: Library::standard(),
        }
    }

    /// Disables the high-level transformation passes.
    pub fn without_optimization(mut self) -> Self {
        self.optimize = false;
        self.classifier = OpClassifier::universal();
        self
    }

    /// Fully unrolls counted loops before scheduling.
    pub fn with_unrolling(mut self) -> Self {
        self.unroll = true;
        self
    }

    /// If-converts small conditionals into mux dataflow before scheduling
    /// (trades controller states for datapath muxes).
    pub fn with_if_conversion(mut self) -> Self {
        self.if_convert = true;
        self
    }

    /// Uses `n` universal functional units.
    pub fn universal_fus(mut self, n: usize) -> Self {
        self.limits = ResourceLimits::universal(n);
        self
    }

    /// Uses typed functional units with the given limits.
    pub fn typed_fus(mut self, limits: ResourceLimits) -> Self {
        self.classifier = OpClassifier::typed();
        self.limits = limits;
        self
    }

    /// Overrides the op classifier.
    pub fn classifier(mut self, classifier: OpClassifier) -> Self {
        self.classifier = classifier;
        self
    }

    /// Overrides the scheduling algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Overrides the FU binding strategy.
    pub fn fu_strategy(mut self, strategy: FuStrategy) -> Self {
        self.fu_strategy = strategy;
        self
    }

    /// Overrides the control style.
    pub fn control(mut self, control: ControlStyle) -> Self {
        self.control = control;
        self
    }

    /// Overrides the component library.
    pub fn library(mut self, library: Library) -> Self {
        self.library = library;
        self
    }

    // ---- borrowed setters ------------------------------------------------
    //
    // The consuming `self` builders above read well in a literal chain,
    // but a server assembling a configuration field-by-field from a
    // parsed request holds the synthesizer in a variable — these `&mut`
    // twins avoid the move-reassign dance there.

    /// Enables or disables the high-level transformation passes
    /// (borrowed twin of [`Synthesizer::without_optimization`]).
    pub fn set_optimize(&mut self, optimize: bool) -> &mut Self {
        self.optimize = optimize;
        self.classifier = if optimize {
            OpClassifier::universal_free_shifts()
        } else {
            OpClassifier::universal()
        };
        self
    }

    /// Enables or disables full loop unrolling.
    pub fn set_unrolling(&mut self, unroll: bool) -> &mut Self {
        self.unroll = unroll;
        self
    }

    /// Enables or disables if-conversion.
    pub fn set_if_conversion(&mut self, if_convert: bool) -> &mut Self {
        self.if_convert = if_convert;
        self
    }

    /// Sets `n` universal functional units (borrowed twin of
    /// [`Synthesizer::universal_fus`]).
    pub fn set_universal_fus(&mut self, n: usize) -> &mut Self {
        self.limits = ResourceLimits::universal(n);
        self
    }

    /// Sets the scheduling algorithm (borrowed twin of
    /// [`Synthesizer::algorithm`]).
    pub fn set_algorithm(&mut self, algorithm: Algorithm) -> &mut Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the control style (borrowed twin of [`Synthesizer::control`]).
    pub fn set_control(&mut self, control: ControlStyle) -> &mut Self {
        self.control = control;
        self
    }

    /// The currently configured scheduling algorithm.
    pub fn configured_algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The currently configured component library.
    pub(crate) fn library_ref(&self) -> &Library {
        &self.library
    }

    /// The currently configured control style.
    pub fn configured_control(&self) -> ControlStyle {
        self.control
    }

    /// A content fingerprint of the full configuration (64-bit FNV-1a
    /// over the canonical `Debug` rendering). Equal configurations hash
    /// equal across runs and platforms; the exploration memo cache keys
    /// on this together with [`cdfg_fingerprint`].
    pub fn fingerprint(&self) -> u64 {
        debug_fingerprint(self)
    }

    /// Synthesizes BSL source text.
    ///
    /// # Errors
    ///
    /// Propagates parse, scheduling, allocation, and control errors.
    pub fn synthesize_source(&self, src: &str) -> Result<SynthesisResult, SynthesisError> {
        let cdfg = hls_lang::compile(src)?;
        self.synthesize(cdfg)
    }

    /// Synthesizes an already-compiled behavior.
    ///
    /// # Errors
    ///
    /// Propagates scheduling, allocation, and control errors.
    pub fn synthesize(&self, cdfg: Cdfg) -> Result<SynthesisResult, SynthesisError> {
        self.synthesize_cancellable(cdfg, &CancelToken::new())
    }

    /// Synthesizes an already-compiled behavior, checking `cancel`
    /// between pipeline stages (optimize → schedule → allocate →
    /// control → netlist). A fired token aborts before the next stage
    /// and reports the last stage that completed.
    ///
    /// # Errors
    ///
    /// Propagates scheduling, allocation, and control errors, and
    /// [`SynthesisError::Cancelled`] when `cancel` fires between stages.
    ///
    /// [`SynthesisError::Cancelled`]: crate::SynthesisError::Cancelled
    pub fn synthesize_cancellable(
        &self,
        cdfg: Cdfg,
        cancel: &CancelToken,
    ) -> Result<SynthesisResult, SynthesisError> {
        let prepared = self.prepare(cdfg)?;
        cancel.check("optimize")?;
        self.synthesize_prepared_cancellable(&prepared, cancel)
    }

    /// Runs the front-of-pipeline transformations (if-conversion,
    /// unrolling, optimization), the per-block dependence/bound analysis
    /// and the variable table once, producing a [`PreparedBehavior`] that
    /// [`Synthesizer::synthesize_prepared`] can consume repeatedly.
    ///
    /// A design-space sweep prepares a behavior once and then synthesizes
    /// it at many (FU, algorithm, control) grid points: the passes, the
    /// topological/ASAP/ALAP analyses and the variable registers depend
    /// only on the behavior and the classifier, not on the per-point
    /// overrides, so they drop out of the per-point cost.
    ///
    /// # Errors
    ///
    /// Returns a scheduling error if any block's dataflow graph is cyclic.
    pub fn prepare(&self, mut cdfg: Cdfg) -> Result<PreparedBehavior, SynthesisError> {
        let mut pass_stats = Vec::new();
        if self.if_convert {
            hls_opt::run_pass(&mut cdfg, hls_opt::PassKind::IfConvert);
        }
        if self.unroll {
            hls_opt::run_pass(&mut cdfg, hls_opt::PassKind::Unroll);
        }
        if self.optimize {
            pass_stats = hls_opt::optimize(&mut cdfg);
        }
        let bounds = CdfgBoundsCache::build(&cdfg, &self.classifier)?;
        let vars = Arc::new(VariableTable::new(&cdfg));
        Ok(PreparedBehavior {
            cdfg,
            pass_stats,
            classifier: self.classifier,
            bounds,
            vars,
        })
    }

    /// Synthesizes a [`PreparedBehavior`] (back half of the pipeline:
    /// schedule → allocate → control → netlist).
    ///
    /// `prepared` must come from a synthesizer with the same pass and
    /// classifier configuration — its recorded classifier is used
    /// throughout, so the two cannot disagree silently.
    ///
    /// # Errors
    ///
    /// Propagates scheduling, allocation, and control errors.
    pub fn synthesize_prepared(
        &self,
        prepared: &PreparedBehavior,
    ) -> Result<SynthesisResult, SynthesisError> {
        self.synthesize_prepared_cancellable(prepared, &CancelToken::new())
    }

    /// [`Synthesizer::synthesize_prepared`] under a cancellation token,
    /// checked between stages.
    ///
    /// # Errors
    ///
    /// Propagates scheduling, allocation, and control errors, and
    /// [`SynthesisError::Cancelled`] when `cancel` fires between stages.
    ///
    /// [`SynthesisError::Cancelled`]: crate::SynthesisError::Cancelled
    pub fn synthesize_prepared_cancellable(
        &self,
        prepared: &PreparedBehavior,
        cancel: &CancelToken,
    ) -> Result<SynthesisResult, SynthesisError> {
        let BackHalf {
            schedule,
            latency,
            datapath,
            fsm,
            mut stage_nanos,
        } = self.back_half(prepared, cancel)?;
        let t0 = Instant::now();
        let control_report = match self.control {
            ControlStyle::Hardwired(style) => {
                ControlReport::Hardwired(hardwired_logic(&fsm, style)?)
            }
            ControlStyle::Microcode => {
                let mp = microcode(&fsm);
                ControlReport::Microcode {
                    words: mp.rom.len(),
                    horizontal_bits: mp.horizontal_rom_bits(),
                    encoded_bits: mp.encoded_rom_bits(),
                }
            }
        };
        stage_nanos.control += elapsed_nanos(t0);
        cancel.check("control")?;
        let t0 = Instant::now();
        let netlist = datapath.to_netlist(&prepared.cdfg, &self.library)?;
        let area = datapath.area(&self.library)?;
        stage_nanos.rtl = elapsed_nanos(t0);
        Ok(SynthesisResult {
            cdfg: prepared.cdfg.clone(),
            schedule,
            datapath,
            fsm,
            control_report,
            netlist,
            area,
            latency,
            pass_stats: prepared.pass_stats.clone(),
            classifier: prepared.classifier,
            stage_nanos,
        })
    }

    /// What a design-space sweep keeps of one point, computed without
    /// the rest of [`Synthesizer::synthesize_prepared`]: the same stages
    /// up to the FSM, then the area priced from the datapath. No control
    /// logic or ROM, netlist, behavior copy or [`SynthesisResult`] is
    /// built. The summary equals the full result's, and the same points
    /// fail with the same errors: hardwired logic checks only the FSM
    /// validation `build_fsm` already ran, microcode cannot fail, and
    /// the area reports the netlist's missing-cell error.
    pub(crate) fn summarize_prepared(
        &self,
        prepared: &PreparedBehavior,
    ) -> Result<PointSummary, SynthesisError> {
        let back = self.back_half(prepared, &CancelToken::new())?;
        let area = back.datapath.area(&self.library)?;
        Ok(PointSummary {
            latency: back.latency,
            area: area.total(),
            registers: back.datapath.reg_count(),
            mux_inputs: back.datapath.mux_inputs,
        })
    }

    /// The stages both finishes share: schedule → latency → datapath →
    /// FSM, checking `cancel` after scheduling and after allocation. The
    /// FSM's build time opens the control stage's timing.
    fn back_half(
        &self,
        prepared: &PreparedBehavior,
        cancel: &CancelToken,
    ) -> Result<BackHalf, SynthesisError> {
        let cdfg = &prepared.cdfg;
        let classifier = &prepared.classifier;
        let mut stage_nanos = StageNanos::default();
        let t0 = Instant::now();
        let schedule = schedule_cdfg_cached(
            cdfg,
            classifier,
            &self.limits,
            self.algorithm,
            &prepared.bounds,
        )?;
        let latency = schedule.total_latency(cdfg);
        stage_nanos.schedule = elapsed_nanos(t0);
        cancel.check("schedule")?;
        let t0 = Instant::now();
        let datapath = build_datapath_with(
            &prepared.vars,
            cdfg,
            &schedule,
            classifier,
            &self.library,
            self.fu_strategy,
        )?;
        stage_nanos.allocate = elapsed_nanos(t0);
        cancel.check("allocate")?;
        let t0 = Instant::now();
        let fsm = build_fsm(cdfg, &schedule, &datapath, classifier)?;
        stage_nanos.control = elapsed_nanos(t0);
        Ok(BackHalf {
            schedule,
            latency,
            datapath,
            fsm,
            stage_nanos,
        })
    }
}

/// The products of [`Synthesizer::back_half`].
struct BackHalf {
    schedule: CdfgSchedule,
    latency: u64,
    datapath: Datapath,
    fsm: Fsm,
    stage_nanos: StageNanos,
}

fn elapsed_nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// A behavior with the configuration-independent front half of the
/// pipeline already run: transformation passes applied, per-block
/// dependence/bound analyses built, and the variable table (variable
/// registers, block crossings, memories) that every datapath built from
/// it shares. Produced by [`Synthesizer::prepare`], consumed by
/// [`Synthesizer::synthesize_prepared`] and the QoR estimator.
#[derive(Clone, Debug)]
pub struct PreparedBehavior {
    cdfg: Cdfg,
    pass_stats: Vec<PassStats>,
    classifier: OpClassifier,
    bounds: CdfgBoundsCache,
    pub(crate) vars: Arc<VariableTable>,
}

impl PreparedBehavior {
    /// The transformed behavior.
    pub fn cdfg(&self) -> &Cdfg {
        &self.cdfg
    }

    /// Statistics of the optimization passes that ran during preparation.
    pub fn pass_stats(&self) -> &[PassStats] {
        &self.pass_stats
    }

    /// The per-block dependence/bound analyses built during preparation.
    pub fn bounds(&self) -> &CdfgBoundsCache {
        &self.bounds
    }

    /// The classifier the preparation ran under.
    pub fn classifier(&self) -> &OpClassifier {
        &self.classifier
    }
}

/// Wall-clock time spent in each back-half pipeline stage, in
/// nanoseconds. Timings ride along on [`SynthesisResult`] for
/// observability (e.g. the server's per-stage counters); they are never
/// part of response bodies or fingerprints, which stay deterministic.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageNanos {
    /// Scheduling (including latency accounting).
    pub schedule: u64,
    /// Data-path allocation and binding.
    pub allocate: u64,
    /// Controller synthesis: FSM construction plus hardwired logic or
    /// microcode.
    pub control: u64,
    /// Netlist emission and area estimation.
    pub rtl: u64,
}

impl Default for Synthesizer {
    fn default() -> Self {
        Self::new()
    }
}

/// A cheap content fingerprint of a lowered behavior: 64-bit FNV-1a over
/// its canonical `Debug` rendering (blocks, ops, values, control tree).
/// Structurally identical CDFGs hash equal across runs and platforms;
/// this is the behavior half of the exploration memo-cache key.
pub fn cdfg_fingerprint(cdfg: &Cdfg) -> u64 {
    debug_fingerprint(cdfg)
}

/// Streams `value`'s `Debug` rendering through an FNV-1a hasher without
/// materializing the string.
pub(crate) fn debug_fingerprint(value: &impl std::fmt::Debug) -> u64 {
    use std::fmt::Write as _;
    let mut w = hls_testkit::FnvWriter::new();
    // Writing into the hasher cannot fail.
    let _ = write!(w, "{value:?}");
    w.finish()
}

/// Controller cost summary.
#[derive(Clone, Debug)]
pub enum ControlReport {
    /// Hardwired FSM logic sizes.
    Hardwired(HardwiredReport),
    /// Microcode ROM sizes.
    Microcode {
        /// Microinstruction count.
        words: usize,
        /// ROM bits with a horizontal word.
        horizontal_bits: u64,
        /// ROM bits with field-encoded word.
        encoded_bits: u64,
    },
}

/// Everything the flow produces.
#[derive(Clone, Debug)]
pub struct SynthesisResult {
    /// The (optimized) behavior.
    pub cdfg: Cdfg,
    /// Per-block schedules.
    pub schedule: CdfgSchedule,
    /// The bound datapath.
    pub datapath: Datapath,
    /// The controller FSM.
    pub fsm: Fsm,
    /// Controller cost summary.
    pub control_report: ControlReport,
    /// The RT-level netlist.
    pub netlist: Netlist,
    /// Area/clock estimate.
    pub area: AreaReport,
    /// Total latency in control steps (loop-aware).
    pub latency: u64,
    /// Optimizer statistics.
    pub pass_stats: Vec<PassStats>,
    /// The classifier the flow scheduled under.
    pub classifier: OpClassifier,
    /// Wall-clock time spent per pipeline stage (observability only —
    /// never rendered into response bodies or fingerprints).
    pub stage_nanos: StageNanos,
}

impl SynthesisResult {
    /// Runs the design on one input vector through the RTL model.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn run(&self, inputs: &BTreeMap<String, Fx>) -> Result<hls_sim::RtlResult, SynthesisError> {
        Ok(hls_sim::simulate(
            &self.cdfg,
            &self.schedule,
            &self.datapath,
            inputs,
            false,
        )?)
    }

    /// Verifies the structure against the behavioral model on `n` random
    /// vectors in `range`.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors; a mismatch is reported in the
    /// returned [`hls_sim::Equivalence`], not as an error.
    pub fn verify(
        &self,
        n: usize,
        range: (f64, f64),
    ) -> Result<hls_sim::Equivalence, SynthesisError> {
        Ok(hls_sim::check_random_vectors(
            &self.cdfg,
            &self.schedule,
            &self.datapath,
            n,
            range,
            0xD5EA_D5EA,
        )?)
    }

    /// Emits the datapath netlist as Verilog.
    pub fn to_verilog(&self) -> String {
        hls_rtl::to_verilog(&self.netlist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sqrt_cdfg() -> Cdfg {
        hls_lang::compile(hls_workloads::sources::SQRT).unwrap()
    }

    #[test]
    fn default_flow_reproduces_the_10_step_sqrt() {
        let r = Synthesizer::new()
            .synthesize_source(hls_workloads::sources::SQRT)
            .unwrap();
        assert_eq!(r.latency, 10);
        assert_eq!(r.datapath.fu_count(), 2);
        let eq = r.verify(8, (0.1, 1.0)).unwrap();
        assert!(eq.equivalent, "{:?}", eq.mismatch);
    }

    #[test]
    fn unoptimized_single_fu_flow_reproduces_23_steps() {
        let r = Synthesizer::new()
            .without_optimization()
            .universal_fus(1)
            .synthesize_source(hls_workloads::sources::SQRT)
            .unwrap();
        assert_eq!(r.latency, 23);
    }

    #[test]
    fn microcode_control_style() {
        let r = Synthesizer::new()
            .control(ControlStyle::Microcode)
            .synthesize_source(hls_workloads::sources::SQRT)
            .unwrap();
        match r.control_report {
            ControlReport::Microcode {
                words,
                horizontal_bits,
                encoded_bits,
            } => {
                assert_eq!(words, 5);
                assert!(encoded_bits < horizontal_bits);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unrolled_flow_is_no_slower_and_still_correct() {
        let rolled = Synthesizer::new()
            .universal_fus(3)
            .synthesize_source(hls_workloads::sources::SQRT)
            .unwrap();
        let unrolled = Synthesizer::new()
            .universal_fus(3)
            .with_unrolling()
            .synthesize_source(hls_workloads::sources::SQRT)
            .unwrap();
        // Newton's recurrence serializes the Y chain, so unrolling cannot
        // shorten the sqrt latency — but it must not lengthen it, it
        // collapses the control tree to straight-line code, and it must
        // stay functionally correct.
        assert!(unrolled.latency <= rolled.latency);
        assert_eq!(unrolled.fsm.flags.len(), 0, "no loop left, no flags");
        let eq = unrolled.verify(6, (0.1, 1.0)).unwrap();
        assert!(eq.equivalent, "{:?}", eq.mismatch);
    }

    #[test]
    fn if_conversion_shrinks_the_controller_and_stays_correct() {
        let plain = Synthesizer::new()
            .universal_fus(2)
            .synthesize_source(hls_workloads::sources::GCD)
            .unwrap();
        let conv = Synthesizer::new()
            .universal_fus(2)
            .with_if_conversion()
            .synthesize_source(hls_workloads::sources::GCD)
            .unwrap();
        assert!(
            conv.fsm.len() < plain.fsm.len(),
            "{} vs {}",
            conv.fsm.len(),
            plain.fsm.len()
        );
        assert!(conv.fsm.flags.len() < plain.fsm.flags.len());
        let eq = conv.verify(10, (1.0, 64.0)).unwrap();
        assert!(eq.equivalent, "{:?}", eq.mismatch);
    }

    #[test]
    fn area_and_verilog_available() {
        let r = Synthesizer::new()
            .synthesize_source(hls_workloads::sources::SQRT)
            .unwrap();
        assert!(r.area.total() > 0.0);
        assert!(r.to_verilog().contains("module sqrt"));
    }

    #[test]
    fn cancelled_token_stops_between_stages() {
        let tok = CancelToken::new();
        tok.cancel();
        let err = Synthesizer::new()
            .synthesize_cancellable(sqrt_cdfg(), &tok)
            .unwrap_err();
        match err {
            crate::SynthesisError::Cancelled { completed } => assert_eq!(completed, "optimize"),
            other => panic!("expected Cancelled, got {other}"),
        }
    }

    #[test]
    fn expired_deadline_reports_last_completed_stage() {
        let tok = CancelToken::with_timeout(Duration::ZERO);
        assert!(tok.is_cancelled());
        let err = Synthesizer::new()
            .synthesize_cancellable(sqrt_cdfg(), &tok)
            .unwrap_err();
        assert!(err.to_string().contains("cancelled"), "{err}");
    }

    #[test]
    fn unfired_token_changes_nothing() {
        let tok = CancelToken::with_timeout(Duration::from_secs(3600));
        let r = Synthesizer::new()
            .synthesize_cancellable(sqrt_cdfg(), &tok)
            .unwrap();
        assert_eq!(r.latency, 10);
    }

    #[test]
    fn token_clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn borrowed_setters_match_consuming_builders() {
        let chained = Synthesizer::new()
            .universal_fus(1)
            .algorithm(Algorithm::Asap)
            .control(ControlStyle::Microcode)
            .without_optimization();
        let mut stepped = Synthesizer::default();
        stepped
            .set_universal_fus(1)
            .set_algorithm(Algorithm::Asap)
            .set_control(ControlStyle::Microcode)
            .set_optimize(false);
        assert_eq!(chained.fingerprint(), stepped.fingerprint());
        let r = stepped
            .synthesize_source(hls_workloads::sources::SQRT)
            .unwrap();
        assert_eq!(r.latency, 23);
    }

    #[test]
    fn parse_errors_propagate() {
        let err = Synthesizer::new()
            .synthesize_source("program ; begin end")
            .unwrap_err();
        assert!(err.to_string().contains("identifier"));
    }
}
