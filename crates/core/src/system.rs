//! System synthesis: a multi-process behavior becomes one FSMD per
//! process plus handshake interconnect.
//!
//! Each process runs through the ordinary single-behavior pipeline
//! (transform → schedule → allocate → control) with loop unrolling and
//! if-conversion forced off — those passes restructure the control tree
//! and would break the block-boundary placement of sync blocks. The
//! per-process results are then *elaborated* into one top-level Verilog
//! module: process datapaths and controllers wired through `hs_channel`
//! rendezvous cells (`hs_fifo` for channels declared with a depth) and,
//! for `shared` variables, `hs_arbiter` mutex arbiters (see `hls-rtl`);
//! the controllers' `req`/`grant` ports come from their FSMs'
//! [`sync states`](hls_ctrl::Fsm::sync_states).
//!
//! Verification is lockstep co-simulation: the behavioral interpreter
//! runs the *unoptimized* system while the RTL model executes every
//! process on its bound datapath, both under the same deterministic
//! rendezvous scheduler (`hls-sim`).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use hls_cdfg::{sanitize, Fx, SyncOp, SystemCdfg};
use hls_ctrl::controller_verilog;
use hls_sim::{
    analyze_deadlock, interpret_system, simulate_system, DeadlockVerdict, ProcessRtl, SimError,
    SystemBehavResult, SystemRtlResult,
};

use crate::pipeline::{SynthesisResult, Synthesizer};
use crate::SynthesisError;

/// One synthesized process: the name it was declared with plus the full
/// single-behavior synthesis result (schedule, datapath, FSM, netlist,
/// area) for its behavior.
#[derive(Clone, Debug)]
pub struct ProcessSynthesis {
    /// Process name as declared (the behavior itself is named
    /// `<system>_<process>`).
    pub name: String,
    /// The per-process pipeline output.
    pub result: SynthesisResult,
}

/// Everything system synthesis produces.
#[derive(Clone, Debug)]
pub struct SystemSynthesisResult {
    /// The system as lowered, before any optimization — the behavioral
    /// golden model for co-simulation.
    pub golden: SystemCdfg,
    /// The system with each process's behavior replaced by its optimized
    /// form (what the schedules and datapaths were built against).
    pub system: SystemCdfg,
    /// Per-process synthesis results, in declaration order.
    pub processes: Vec<ProcessSynthesis>,
    /// Static deadlock analysis verdict over the golden model (see
    /// [`hls_sim::analyze_deadlock`]): proven free, proven deadlocked
    /// with a witness, or conservatively unknown.
    pub deadlock: DeadlockVerdict,
}

/// The verdict of a system-level co-simulation run.
#[derive(Clone, Debug)]
pub struct SystemEquivalence {
    /// `true` when every output matched on every checked vector.
    pub equivalent: bool,
    /// Vectors checked (after skipping arithmetic-error vectors).
    pub vectors: usize,
    /// Human-readable description of the first mismatch, if any.
    pub mismatch: Option<String>,
    /// Total RTL makespan cycles across all vectors.
    pub total_cycles: u64,
    /// Total channel rendezvous granted across all RTL runs.
    pub rendezvous: u64,
}

impl Synthesizer {
    /// Parses and synthesizes a multi-process `system` source.
    ///
    /// # Errors
    ///
    /// Propagates front-end and per-process pipeline errors.
    ///
    /// ```
    /// use hls_core::Synthesizer;
    ///
    /// let sys = Synthesizer::new()
    ///     .synthesize_system_source(hls_workloads::sources::PIPE3)?;
    /// assert_eq!(sys.processes.len(), 3);
    /// # Ok::<(), hls_core::SynthesisError>(())
    /// ```
    pub fn synthesize_system_source(
        &self,
        src: &str,
    ) -> Result<SystemSynthesisResult, SynthesisError> {
        let sys = hls_lang::compile_system(src)?;
        self.synthesize_system(sys)
    }

    /// Synthesizes every process of `sys` through the single-behavior
    /// pipeline (with unrolling and if-conversion disabled — they
    /// restructure regions and would move sync blocks).
    ///
    /// # Errors
    ///
    /// Propagates per-process pipeline errors.
    pub fn synthesize_system(
        &self,
        sys: SystemCdfg,
    ) -> Result<SystemSynthesisResult, SynthesisError> {
        let golden = sys.clone();
        let mut per_process = self.clone();
        per_process.set_unrolling(false);
        per_process.set_if_conversion(false);
        let mut system = sys;
        let mut processes = Vec::with_capacity(system.processes.len());
        for p in &mut system.processes {
            let result = per_process.synthesize(p.cdfg.clone())?;
            p.cdfg = result.cdfg.clone();
            processes.push(ProcessSynthesis {
                name: p.name.clone(),
                result,
            });
        }
        let deadlock = analyze_deadlock(&golden);
        Ok(SystemSynthesisResult {
            golden,
            system,
            processes,
            deadlock,
        })
    }
}

impl SystemSynthesisResult {
    fn process_rtl(&self) -> Vec<ProcessRtl<'_>> {
        self.processes
            .iter()
            .map(|p| ProcessRtl {
                schedule: &p.result.schedule,
                datapath: &p.result.datapath,
            })
            .collect()
    }

    /// Runs the behavioral golden model on one input vector.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors (including structured deadlocks).
    pub fn interpret(
        &self,
        inputs: &BTreeMap<String, Fx>,
    ) -> Result<SystemBehavResult, SynthesisError> {
        Ok(interpret_system(&self.golden, inputs)?)
    }

    /// Runs the lockstep RTL co-simulation on one input vector: every
    /// process executes on its bound datapath under the shared
    /// rendezvous scheduler.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors (including structured deadlocks).
    pub fn run(&self, inputs: &BTreeMap<String, Fx>) -> Result<SystemRtlResult, SynthesisError> {
        Ok(simulate_system(&self.system, &self.process_rtl(), inputs)?)
    }

    /// Co-simulates `n` seeded pseudo-random input vectors drawn from
    /// `range` and compares every system output. Vectors where the golden
    /// model hits an arithmetic error are skipped; a deadlock counts as
    /// equivalent only when *both* models deadlock with the *same*
    /// blocked set — wedging in different places is a divergence.
    ///
    /// # Errors
    ///
    /// Propagates RTL-side errors other than deadlock; mismatches are
    /// reported in the returned [`SystemEquivalence`], not as errors.
    pub fn verify(
        &self,
        n: usize,
        range: (f64, f64),
        seed: u64,
    ) -> Result<SystemEquivalence, SynthesisError> {
        let mut state = seed | 1;
        let mut next = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let u = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            (u >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut eq = SystemEquivalence {
            equivalent: true,
            vectors: 0,
            mismatch: None,
            total_cycles: 0,
            rendezvous: 0,
        };
        for _ in 0..n {
            let inputs: BTreeMap<String, Fx> = self
                .golden
                .inputs
                .iter()
                .map(|(name, _)| {
                    let x = range.0 + (range.1 - range.0) * next();
                    (name.clone(), Fx::from_f64(x))
                })
                .collect();
            let golden = match interpret_system(&self.golden, &inputs) {
                Err(SimError::DivideByZero) | Err(SimError::Nonterminating) => continue,
                other => other,
            };
            let rtl = simulate_system(&self.system, &self.process_rtl(), &inputs);
            match (golden, rtl) {
                (
                    Err(SimError::Deadlock { blocked: gb }),
                    Err(SimError::Deadlock { blocked: rb }),
                ) => {
                    eq.vectors += 1;
                    if let Some(detail) = deadlock_mismatch(&gb, &rb) {
                        eq.equivalent = false;
                        eq.mismatch = Some(format!("{detail} on {inputs:?}"));
                        return Ok(eq);
                    }
                }
                (Err(SimError::Deadlock { blocked }), Ok(_)) => {
                    eq.equivalent = false;
                    eq.vectors += 1;
                    eq.mismatch = Some(format!(
                        "behavioral model deadlocks ({blocked:?}) but RTL completes on {inputs:?}"
                    ));
                    return Ok(eq);
                }
                (Ok(_), Err(SimError::Deadlock { blocked })) => {
                    eq.equivalent = false;
                    eq.vectors += 1;
                    eq.mismatch = Some(format!(
                        "RTL deadlocks ({blocked:?}) but behavioral model completes on {inputs:?}"
                    ));
                    return Ok(eq);
                }
                (Err(e), _) | (_, Err(e)) => return Err(SynthesisError::Sim(e)),
                (Ok(b), Ok(r)) => {
                    eq.vectors += 1;
                    eq.total_cycles += r.cycles;
                    eq.rendezvous += r.rendezvous;
                    for (name, &expected) in &b.outputs {
                        let got = r.outputs.get(name).copied().unwrap_or(Fx::ZERO);
                        if got != expected {
                            eq.equivalent = false;
                            eq.mismatch = Some(format!(
                                "output `{name}`: behavioral {expected:?} vs rtl {got:?} on {inputs:?}"
                            ));
                            return Ok(eq);
                        }
                    }
                }
            }
        }
        Ok(eq)
    }

    /// Elaborates the whole system as self-contained Verilog: a top-level
    /// module instantiating every process datapath and controller, one
    /// `hs_channel` rendezvous cell per depth-0 channel (`hs_fifo` with
    /// the declared `DEPTH` otherwise), one `hs_arbiter` per shared
    /// variable, followed by all referenced module definitions
    /// (deduplicated).
    pub fn to_verilog(&self) -> String {
        let sys = &self.system;
        let mut s = String::new();
        let _ = writeln!(s, "// Generated by hls-core — system elaboration");
        let _ = writeln!(s, "module {} (", sanitize(&sys.name));
        let mut ports = vec!["  input clk".to_string(), "  input rst".to_string()];
        for (name, width) in &sys.inputs {
            let w = (*width).max(1) as usize;
            ports.push(format!("  input [{}:0] {}", w - 1, sanitize(name)));
        }
        for (name, _) in &sys.outputs {
            ports.push(format!("  output [31:0] {}", sanitize(name)));
        }
        ports.push("  output done".to_string());
        let _ = writeln!(s, "{}\n);", ports.join(",\n"));

        // Per-channel handshake wires. Rendezvous channels pass data
        // straight through, so one data wire serves both ends; FIFOs
        // have distinct enqueue/dequeue data.
        for c in &sys.channels {
            let cn = sanitize(&c.name);
            let _ = writeln!(s, "  wire [31:0] ch_{cn}_data;");
            if c.depth > 0 {
                let _ = writeln!(s, "  wire [31:0] ch_{cn}_rx_data;");
            }
            let _ = writeln!(
                s,
                "  wire ch_{cn}_tx_valid, ch_{cn}_tx_ready, ch_{cn}_rx_valid, ch_{cn}_rx_ready;"
            );
        }
        // Shared-variable registers.
        for v in &sys.shared {
            let _ = writeln!(s, "  reg [31:0] shared_{}_q;", sanitize(&v.name));
        }
        // Per-process wires: done, flags (driven by the datapath's
        // comparison registers; left symbolic here), req/grant.
        let syncs: Vec<&BTreeMap<usize, SyncOp>> = self
            .processes
            .iter()
            .map(|p| &p.result.fsm.sync_states)
            .collect();
        for (pi, p) in self.processes.iter().enumerate() {
            let pn = sanitize(&p.name);
            let _ = writeln!(s, "  wire done_{pn};");
            for f in &p.result.fsm.flags {
                let _ = writeln!(s, "  wire flag_{pn}_{};", sanitize(f));
            }
            for sid in syncs[pi].keys() {
                let _ = writeln!(s, "  wire req_{pn}_{sid}, grant_{pn}_{sid};");
            }
        }
        let _ = writeln!(s);

        // Channel valid/ready aggregation and grant fan-out.
        for c in &sys.channels {
            let cn = sanitize(&c.name);
            // The sender drives valid and listens on ready; the receiver
            // drives ready and listens on valid. Try ops wire identically
            // to their blocking forms: the non-blocking part lives in the
            // controller, which asserts its request for one cycle and
            // advances regardless of the grant (see
            // `hls_ctrl::controller_verilog`); the datapath latches the
            // channel's local readiness — equal to the grant while the
            // request is high — as the success flag during that cycle.
            for (end, drive, listen, sends) in [
                (c.sender, "tx_valid", "tx_ready", true),
                (c.receiver, "rx_ready", "rx_valid", false),
            ] {
                let on_this_end = |op: &SyncOp| match op {
                    SyncOp::Send { chan } | SyncOp::TrySend { chan } => sends && *chan == c.name,
                    SyncOp::Recv { chan } | SyncOp::TryRecv { chan } => !sends && *chan == c.name,
                    SyncOp::Shared { .. } => false,
                };
                match end {
                    None => {
                        let _ = writeln!(s, "  assign ch_{cn}_{drive} = 1'b0; // unconnected");
                    }
                    Some(pi) => {
                        let pn = sanitize(&self.processes[pi].name);
                        let sids: Vec<usize> = syncs[pi]
                            .iter()
                            .filter(|(_, op)| on_this_end(op))
                            .map(|(&sid, _)| sid)
                            .collect();
                        if sids.is_empty() {
                            let _ = writeln!(s, "  assign ch_{cn}_{drive} = 1'b0;");
                        } else {
                            let reqs: Vec<String> =
                                sids.iter().map(|sid| format!("req_{pn}_{sid}")).collect();
                            let _ = writeln!(s, "  assign ch_{cn}_{drive} = {};", reqs.join(" | "));
                            for sid in sids {
                                let _ = writeln!(
                                    s,
                                    "  assign grant_{pn}_{sid} = ch_{cn}_{listen} & req_{pn}_{sid};"
                                );
                            }
                        }
                    }
                }
            }
            if c.depth > 0 {
                let _ = writeln!(
                    s,
                    "  hs_fifo #(.WIDTH(32), .DEPTH({})) chan_{cn} (.clk(clk), .rst(rst), \
                     .tx_data(ch_{cn}_data), .tx_valid(ch_{cn}_tx_valid), .tx_ready(ch_{cn}_tx_ready), \
                     .rx_data(ch_{cn}_rx_data), .rx_valid(ch_{cn}_rx_valid), .rx_ready(ch_{cn}_rx_ready));",
                    c.depth
                );
            } else {
                let _ = writeln!(
                    s,
                    "  hs_channel #(.WIDTH(32)) chan_{cn} (.clk(clk), .rst(rst), \
                     .tx_data(ch_{cn}_data), .tx_valid(ch_{cn}_tx_valid), .tx_ready(ch_{cn}_tx_ready), \
                     .rx_data(), .rx_valid(ch_{cn}_rx_valid), .rx_ready(ch_{cn}_rx_ready));"
                );
            }
        }

        // Mutex arbiters: one per shared variable, fixed priority in
        // process-declaration order (matching the simulator).
        for v in &sys.shared {
            let vn = sanitize(&v.name);
            let mut accessors: Vec<(usize, usize)> = Vec::new(); // (process, state)
            for (pi, states) in syncs.iter().enumerate() {
                for (&sid, op) in *states {
                    if matches!(op, SyncOp::Shared { var, .. } if *var == v.name) {
                        accessors.push((pi, sid));
                    }
                }
            }
            if accessors.is_empty() {
                continue;
            }
            let k = accessors.len();
            let concat: Vec<String> = accessors
                .iter()
                .rev() // MSB first so bit 0 = first accessor
                .map(|(pi, sid)| format!("req_{}_{sid}", sanitize(&self.processes[*pi].name)))
                .collect();
            let _ = writeln!(s, "  wire [{}:0] arb_{vn}_grant;", k - 1);
            let _ = writeln!(
                s,
                "  hs_arbiter #(.N({k})) arb_{vn} (.clk(clk), .rst(rst), \
                 .req({{{}}}), .grant(arb_{vn}_grant));",
                concat.join(", ")
            );
            for (i, (pi, sid)) in accessors.iter().enumerate() {
                let pn = sanitize(&self.processes[*pi].name);
                let _ = writeln!(s, "  assign grant_{pn}_{sid} = arb_{vn}_grant[{i}];");
            }
            // Commit the store port of whichever accessor holds the grant.
            let _ = writeln!(s, "  always @(posedge clk) begin");
            for (i, (pi, sid)) in accessors.iter().enumerate() {
                let pn = sanitize(&self.processes[*pi].name);
                let st = format!("{}__st", v.name);
                let has_st = self.processes[*pi]
                    .result
                    .netlist
                    .ports()
                    .iter()
                    .any(|p| p.name == format!("out_{st}"));
                if has_st {
                    let kw = if i == 0 { "if" } else { "else if" };
                    let _ = writeln!(
                        s,
                        "    {kw} (grant_{pn}_{sid}) shared_{vn}_q <= {pn}_{};",
                        sanitize(&st)
                    );
                }
            }
            let _ = writeln!(s, "  end");
        }
        let _ = writeln!(s);

        // Process instances: datapath + controller.
        for (pi, p) in self.processes.iter().enumerate() {
            let pn = sanitize(&p.name);
            let module = sanitize(p.result.netlist.name());
            // Store-port wires feeding the shared registers.
            for port in p.result.netlist.ports() {
                if let Some(base) = port.name.strip_prefix("out_") {
                    if base.ends_with("__st") {
                        let _ = writeln!(s, "  wire [31:0] {pn}_{};", sanitize(base));
                    }
                }
            }
            let mut pins: Vec<String> = Vec::new();
            for port in p.result.netlist.ports() {
                let pin = sanitize(&port.name);
                if let Some(base) = port.name.strip_prefix("in_") {
                    let conn = if let Some(chan) = base.strip_suffix("__rx") {
                        // FIFOs present dequeue data on a separate wire,
                        // gated by rx_valid: a failed try_recv must latch
                        // zero into the destination (both simulators write
                        // "var zeroed, flag low"), not the stale
                        // mem[rd_ptr] contents. Blocking recv is
                        // unaffected — it only commits on a cycle where
                        // rx_valid is high, so the gate is transparent.
                        match sys.channel(chan) {
                            Some(c) if c.depth > 0 => {
                                let cn = sanitize(chan);
                                format!("ch_{cn}_rx_valid ? ch_{cn}_rx_data : 32'd0")
                            }
                            _ => format!("ch_{}_data", sanitize(chan)),
                        }
                    } else if let Some(chan) = base.strip_suffix("__ok") {
                        // Try-op success flag: the channel's local
                        // readiness as seen from this process's side.
                        match sys.channel(chan) {
                            Some(c) if c.sender == Some(pi) => {
                                format!("ch_{}_tx_ready", sanitize(chan))
                            }
                            Some(c) if c.receiver == Some(pi) => {
                                format!("ch_{}_rx_valid", sanitize(chan))
                            }
                            _ => "1'b0".to_string(),
                        }
                    } else if let Some(var) = base.strip_suffix("__ld") {
                        format!("shared_{}_q", sanitize(var))
                    } else {
                        sanitize(base)
                    };
                    pins.push(format!(".{pin}({conn})"));
                } else if let Some(base) = port.name.strip_prefix("out_") {
                    let conn = if let Some(chan) = base.strip_suffix("__tx") {
                        format!("ch_{}_data", sanitize(chan))
                    } else if base.ends_with("__st") {
                        format!("{pn}_{}", sanitize(base))
                    } else {
                        sanitize(base)
                    };
                    pins.push(format!(".{pin}({conn})"));
                }
            }
            let _ = writeln!(s, "  {module} dp_{pn} ({});", pins.join(", "));
            let mut cpins = vec![".clk(clk)".to_string(), ".rst(rst)".to_string()];
            for f in &p.result.fsm.flags {
                let fn_ = sanitize(f);
                cpins.push(format!(".flag_{fn_}(flag_{pn}_{fn_})"));
            }
            for sid in syncs[pi].keys() {
                cpins.push(format!(".req_{sid}(req_{pn}_{sid})"));
                cpins.push(format!(".grant_{sid}(grant_{pn}_{sid})"));
            }
            cpins.push(format!(".done(done_{pn})"));
            let _ = writeln!(s, "  {module}_ctrl ctl_{pn} ({});", cpins.join(", "));
        }
        let dones: Vec<String> = self
            .processes
            .iter()
            .map(|p| format!("done_{}", sanitize(&p.name)))
            .collect();
        let _ = writeln!(s, "  assign done = {};", dones.join(" & "));
        let _ = writeln!(s, "endmodule\n");

        // Controller modules.
        for p in &self.processes {
            let name = format!("{}_ctrl", sanitize(p.result.netlist.name()));
            s.push_str(&controller_verilog(&name, &p.result.fsm));
            s.push('\n');
        }
        // Interconnect cells, only the kinds actually instantiated.
        if sys.channels.iter().any(|c| c.depth == 0) {
            s.push_str(hls_rtl::channel_cell_verilog());
            s.push('\n');
        }
        if sys.channels.iter().any(|c| c.depth > 0) {
            s.push_str(hls_rtl::fifo_cell_verilog());
            s.push('\n');
        }
        if !sys.shared.is_empty() {
            s.push_str(hls_rtl::arbiter_verilog());
            s.push('\n');
        }
        // Process datapath netlists (cell definitions deduplicated).
        for p in &self.processes {
            s.push_str(&p.result.to_verilog());
        }
        dedupe_modules(&s)
    }
}

/// Compares the blocked sets of two deadlocked models. Both deadlocking
/// is only equivalence when they wedge at the *same* `(process, op)`
/// pairs — e.g. a controller bug that skips one rendezvous can leave the
/// RTL stuck one channel further down the pipeline, which this catches.
fn deadlock_mismatch(golden: &[(String, String)], rtl: &[(String, String)]) -> Option<String> {
    (golden != rtl).then(|| {
        format!("both models deadlock but with different blocked sets: behavioral {golden:?} vs rtl {rtl:?}")
    })
}

/// Drops repeated definitions of the same module name, keeping the first
/// (per-process netlists each carry behavioral cell definitions).
fn dedupe_modules(src: &str) -> String {
    let mut out = String::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut skipping = false;
    for line in src.lines() {
        let t = line.trim_start();
        if !skipping {
            if let Some(rest) = t.strip_prefix("module ") {
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !seen.insert(name) {
                    skipping = true;
                }
            }
        }
        let ends_here = t.starts_with("endmodule");
        if !skipping {
            out.push_str(line);
            out.push('\n');
        }
        if ends_here {
            skipping = false;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipe3() -> SystemSynthesisResult {
        Synthesizer::new()
            .synthesize_system_source(hls_workloads::sources::PIPE3)
            .unwrap()
    }

    #[test]
    fn pipe3_synthesizes_three_fsmds_that_cosimulate() {
        let sys = pipe3();
        assert_eq!(sys.processes.len(), 3);
        // prod sends X+0, X+1, X+2; xform doubles; cons accumulates:
        // Y = 2*(3X + 3) = 6X + 6.
        let inputs = BTreeMap::from([("X".to_string(), Fx::from_i64(2))]);
        let b = sys.interpret(&inputs).unwrap();
        assert_eq!(b.outputs["Y"], Fx::from_i64(18));
        let r = sys.run(&inputs).unwrap();
        assert_eq!(r.outputs["Y"], Fx::from_i64(18));
        // Two channels × three transfers each.
        assert_eq!(r.rendezvous, 6);
        assert!(r.cycles > 0);
        assert_eq!(r.process_cycles.len(), 3);
    }

    #[test]
    fn pipe3_lockstep_cosim_is_equivalent_on_random_vectors() {
        let sys = pipe3();
        let eq = sys.verify(16, (-4.0, 4.0), 0xD5EA_D5EA).unwrap();
        assert!(eq.equivalent, "{:?}", eq.mismatch);
        assert_eq!(eq.vectors, 16);
        assert_eq!(eq.rendezvous, 16 * 6);
    }

    #[test]
    fn pipe3_elaborates_to_balanced_verilog_with_interconnect() {
        let v = pipe3().to_verilog();
        assert!(v.contains("module pipe3 ("), "top module present");
        assert!(v.contains("module hs_channel"), "channel cell emitted");
        assert!(v.contains("hs_channel #(.WIDTH(32)) chan_c1"), "{v}");
        assert!(v.contains("hs_channel #(.WIDTH(32)) chan_c2"));
        for p in ["prod", "xform", "cons"] {
            assert!(v.contains(&format!("dp_{p}")), "datapath instance {p}");
            assert!(v.contains(&format!("ctl_{p}")), "controller instance {p}");
        }
        assert_eq!(
            v.matches("module ").count(),
            v.matches("endmodule").count(),
            "balanced module/endmodule"
        );
        // Cell definitions appear exactly once despite three netlists.
        assert_eq!(v.matches("module reg_dff").count(), 1, "deduplicated cells");
    }

    #[test]
    fn deadlock_equivalence_requires_matching_blocked_sets() {
        let stuck_a = vec![("a".to_string(), "send c".to_string())];
        let stuck_b = vec![("b".to_string(), "recv d".to_string())];
        assert!(deadlock_mismatch(&stuck_a, &stuck_a).is_none());
        let detail = deadlock_mismatch(&stuck_a, &stuck_b).expect("different sets must mismatch");
        assert!(detail.contains("different blocked sets"), "{detail}");
    }

    #[test]
    fn crossed_sends_deadlock_consistently_and_are_predicted() {
        // Both processes send first: a guaranteed rendezvous deadlock.
        let sys = Synthesizer::new()
            .synthesize_system_source(
                "system cross; output Y; chan ab; chan ba;
                 process a; var v; begin send ab, 1; recv ba, v; Y := v; end;
                 process b; var w; begin send ba, 2; recv ab, w; end;
                 end.",
            )
            .unwrap();
        // The static analysis calls it before any simulation runs.
        assert!(
            matches!(sys.deadlock, DeadlockVerdict::Deadlock { .. }),
            "{:?}",
            sys.deadlock
        );
        // Both models wedge with the same blocked set on every vector,
        // so verification still reports equivalence.
        let eq = sys.verify(4, (0.0, 4.0), 11).unwrap();
        assert!(eq.equivalent, "{:?}", eq.mismatch);
        assert_eq!(eq.vectors, 4);
    }

    #[test]
    fn buffered_pipeline_synthesizes_fifo_and_stays_equivalent() {
        let sys = Synthesizer::new()
            .synthesize_system_source(
                "system bufpipe; input X; output Y; chan c : fix[2];
                 process prod; var i : int<4>; begin
                   i := 0;
                   do send c, X + i; i := i + 1; until i > 2;
                 end;
                 process cons; var v, acc, j : int<4>; begin
                   acc := 0; j := 0;
                   do recv c, v; acc := acc + v; j := j + 1; until j > 2;
                   Y := acc;
                 end;
                 end.",
            )
            .unwrap();
        assert_eq!(sys.deadlock, DeadlockVerdict::Free, "{:?}", sys.deadlock);
        let eq = sys.verify(8, (-4.0, 4.0), 0xF1F0).unwrap();
        assert!(eq.equivalent, "{:?}", eq.mismatch);
        let v = sys.to_verilog();
        assert!(v.contains("hs_fifo #(.WIDTH(32), .DEPTH(2)) chan_c"), "{v}");
        assert!(v.contains("module hs_fifo"), "{v}");
        // No rendezvous channels left, so the rendezvous cell is absent.
        assert!(!v.contains("module hs_channel"), "{v}");
        // The consumer reads the FIFO's dequeue side, not the tx wire.
        assert!(v.contains("ch_c_rx_data"), "{v}");
        // Blocking send/recv states still hold for their grant (only
        // try-op states advance ungated).
        assert!(v.contains("if (grant_"), "{v}");
        assert_eq!(v.matches("module ").count(), v.matches("endmodule").count());
    }

    #[test]
    fn try_ops_cosimulate_and_wire_the_success_flag() {
        // The consumer polls with try_recv in a loop; success flag gates
        // the accumulation. Spin-waiting works because the producer keeps
        // its own clock — the scheduler never blocks a try op.
        let sys = Synthesizer::new()
            .synthesize_system_source(
                "system trysys; input X; output Y; chan c : fix[1];
                 process prod; var f : bit; begin
                   try_send c, X + 1, f;
                   Y := f;
                 end;
                 process cons; var v : int<8>; var g : bit; begin
                   do try_recv c, v, g; until g = 1;
                 end;
                 end.",
            )
            .unwrap();
        // Try ops make occupancy data-dependent: conservatively unknown.
        assert!(
            matches!(sys.deadlock, DeadlockVerdict::Unknown { .. }),
            "{:?}",
            sys.deadlock
        );
        let eq = sys.verify(8, (0.0, 8.0), 0x7A11).unwrap();
        assert!(eq.equivalent, "{:?}", eq.mismatch);
        let v = sys.to_verilog();
        // The success flag input samples the FIFO's local readiness.
        assert!(v.contains(".in_c__ok(ch_c_tx_ready)"), "{v}");
        assert!(v.contains(".in_c__ok(ch_c_rx_valid)"), "{v}");
        // Co-sim never executes the emitted controllers, so lint the
        // Verilog: both processes only sync through try ops, whose states
        // must pulse req and advance unconditionally — a grant gate would
        // wedge the FSM on a full/empty FIFO and latch ok=1 forever,
        // diverging from both simulators (ok=0, advance).
        assert!(v.contains("assign req_"), "{v}");
        assert!(!v.contains("if (grant_"), "try states must not hold: {v}");
        // A failed try_recv latches zero, not stale FIFO memory: the
        // dequeue data is gated by rx_valid at the datapath input.
        assert!(
            v.contains(".in_c__rx(ch_c_rx_valid ? ch_c_rx_data : 32'd0)"),
            "{v}"
        );
    }

    #[test]
    fn shared_variable_system_elaborates_an_arbiter() {
        let sys = Synthesizer::new()
            .synthesize_system_source(
                "system s; input X; output Y; shared acc;
                 process a; begin acc := acc + X; end;
                 process b; var t; begin t := acc; Y := t + 1; end;
                 end.",
            )
            .unwrap();
        let v = sys.to_verilog();
        assert!(v.contains("module hs_arbiter"), "{v}");
        assert!(v.contains("hs_arbiter #(.N(2)) arb_acc"), "{v}");
        assert!(v.contains("shared_acc_q"), "{v}");
        let eq = sys.verify(8, (0.0, 8.0), 7).unwrap();
        assert!(eq.equivalent, "{:?}", eq.mismatch);
    }
}
