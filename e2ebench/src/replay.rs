//! Stage-by-stage replay of one synthesis through each crate's public
//! functions, in pipeline order, with a span around every call.
//!
//! The replay spells out the default flow of `hls_core::Synthesizer::new()`
//! (standard optimizations, free constant shifts, list scheduling with
//! path-length priority, greedy interconnect-aware binding, the standard
//! library). Every traced operation is compared with the untraced call on
//! the same input, so a replay that drifts from the real flow shows up as
//! a failed operation rather than as wrong layer numbers.

use hls_alloc::{build_datapath, FuStrategy};
use hls_cdfg::Cdfg;
use hls_core::{ControlReport, ControlStyle, StageNanos, SynthesisResult};
use hls_ctrl::{build_fsm, hardwired_logic, microcode, EncodingStyle};
use hls_rtl::Library;
use hls_sched::{
    schedule_cdfg_cached, Algorithm, CdfgBoundsCache, OpClassifier, Priority, ResourceLimits,
};

use crate::trace::Tracer;

pub const DEFAULT_FUS: usize = 2;
pub const DEFAULT_ALGORITHM: Algorithm = Algorithm::List(Priority::PathLength);
pub const DEFAULT_CONTROL: ControlStyle = ControlStyle::Hardwired(EncodingStyle::Binary);

pub fn classifier() -> OpClassifier {
    OpClassifier::universal_free_shifts()
}

/// Output quality of one design: what the checks compare between the
/// untraced call and its replay, and what the design metrics sum.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Qor {
    pub latency: u64,
    pub area: f64,
    /// Hardwired literal count; 0 for microcode.
    pub literals: u64,
    pub registers: usize,
    pub mux_inputs: usize,
}

impl Qor {
    pub fn of(r: &SynthesisResult) -> Self {
        Qor {
            latency: r.latency,
            area: r.area.total(),
            literals: match &r.control_report {
                ControlReport::Hardwired(h) => h.literals,
                ControlReport::Microcode { .. } => 0,
            },
            registers: r.datapath.reg_count(),
            mux_inputs: r.datapath.mux_inputs,
        }
    }
}

/// `lang`: compiles `src`, counting the ops of the lowered behavior.
pub fn compile(t: &mut Tracer, src: &str) -> Result<Cdfg, String> {
    let cdfg = t
        .span("lang.compile", |_| hls_lang::compile(src))
        .map_err(|e| format!("parse: {e}"))?;
    t.count("lang.cdfg_ops", cdfg.total_ops() as f64);
    Ok(cdfg)
}

/// `opt`: the standard pass pipeline, counting the ops it removed.
pub fn optimize(t: &mut Tracer, cdfg: &mut Cdfg) {
    let before = cdfg.total_ops();
    t.span("opt.optimize", |_| hls_opt::optimize(cdfg));
    t.count(
        "opt.ops_removed",
        before.saturating_sub(cdfg.total_ops()) as f64,
    );
}

/// `sched`: per-block dependence and bound analyses.
pub fn bounds(t: &mut Tracer, cdfg: &Cdfg) -> Result<CdfgBoundsCache, String> {
    t.span("sched.bounds", |_| {
        CdfgBoundsCache::build(cdfg, &classifier())
    })
    .map_err(|e| format!("schedule: {e}"))
}

/// The back half of the pipeline for one configuration: schedule →
/// datapath → FSM → control logic → netlist → area, then the result the
/// real flow returns (which clones the behavior into it).
pub fn back(
    t: &mut Tracer,
    cdfg: &Cdfg,
    bounds: &CdfgBoundsCache,
    fus: usize,
    algorithm: Algorithm,
    control: ControlStyle,
) -> Result<SynthesisResult, String> {
    let cls = classifier();
    let library = Library::standard();
    let limits = ResourceLimits::universal(fus);
    let (schedule, latency) = t
        .span("sched.schedule", |_| {
            schedule_cdfg_cached(cdfg, &cls, &limits, algorithm, bounds).map(|s| {
                let latency = s.total_latency(cdfg);
                (s, latency)
            })
        })
        .map_err(|e| format!("schedule: {e}"))?;
    let datapath = t
        .span("alloc.datapath", |_| {
            build_datapath(cdfg, &schedule, &cls, &library, FuStrategy::GreedyAware)
        })
        .map_err(|e| format!("allocate: {e}"))?;
    let fsm = t
        .span("ctrl.fsm", |_| build_fsm(cdfg, &schedule, &datapath, &cls))
        .map_err(|e| format!("control: {e}"))?;
    let control_report = match control {
        ControlStyle::Hardwired(style) => {
            let h = t
                .span("ctrl.logic", |_| hardwired_logic(&fsm, style))
                .map_err(|e| format!("control: {e}"))?;
            t.count("ctrl.terms", h.terms as f64);
            ControlReport::Hardwired(h)
        }
        ControlStyle::Microcode => t.span("ctrl.microcode", |_| {
            let mp = microcode(&fsm);
            ControlReport::Microcode {
                words: mp.rom.len(),
                horizontal_bits: mp.horizontal_rom_bits(),
                encoded_bits: mp.encoded_rom_bits(),
            }
        }),
    };
    t.count("ctrl.states", fsm.len() as f64);
    t.count("alloc.registers", datapath.reg_count() as f64);
    t.count("alloc.mux_inputs", datapath.mux_inputs as f64);
    let netlist = t
        .span("alloc.netlist", |_| datapath.to_netlist(cdfg, &library))
        .map_err(|e| format!("netlist: {e}"))?;
    let area = t.span("rtl.area", |_| hls_rtl::estimate(&netlist, &library));
    Ok(t.span("core.result", |_| SynthesisResult {
        cdfg: cdfg.clone(),
        schedule,
        datapath,
        fsm,
        control_report,
        netlist,
        area,
        latency,
        pass_stats: Vec::new(),
        classifier: cls,
        stage_nanos: StageNanos::default(),
    }))
}

/// `rtl`: prints the netlist, recording its size.
pub fn verilog(t: &mut Tracer, r: &SynthesisResult) -> String {
    let v = t.span("rtl.verilog", |_| r.to_verilog());
    t.count("rtl.verilog_kb", v.len() as f64 / 1024.0);
    v
}

/// The whole default flow from source to Verilog.
pub fn synthesize_source(t: &mut Tracer, src: &str) -> Result<(SynthesisResult, String), String> {
    let mut cdfg = compile(t, src)?;
    optimize(t, &mut cdfg);
    let b = bounds(t, &cdfg)?;
    let r = back(
        t,
        &cdfg,
        &b,
        DEFAULT_FUS,
        DEFAULT_ALGORITHM,
        DEFAULT_CONTROL,
    )?;
    let v = verilog(t, &r);
    Ok((r, v))
}
