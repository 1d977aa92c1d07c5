//! Cycle-accurate simulation of the synthesized RT-level structure.
//!
//! Executes the bound datapath step by step: operands are read from the
//! *physical* registers chosen by allocation (not from SSA values), so a
//! register-sharing bug, a clobbered live value, or a broken inter-block
//! transfer shows up as a wrong output — this is the §4 "design
//! verification" instrument.

use std::collections::{BTreeMap, HashMap};

use hls_alloc::{BlockBinding, Datapath};
use hls_cdfg::{BlockId, Cdfg, Fx, LoopKind, OpKind, Region, ValueDef, ValueId};
use hls_sched::{CdfgSchedule, Schedule};

use crate::behav::{apply_width, eval_op, MAX_ITERATIONS};
use crate::SimError;

/// The result of an RTL run.
#[derive(Clone, Debug, PartialEq)]
pub struct RtlResult {
    /// Final values of the declared program outputs (read from variable
    /// registers).
    pub outputs: BTreeMap<String, Fx>,
    /// Clock cycles consumed (one per control step).
    pub cycles: u64,
    /// Register-file snapshots per cycle, for VCD export: `(cycle, regs)`.
    pub trace: Vec<(u64, Vec<Fx>)>,
}

/// Simulates the synthesized structure on the given inputs.
///
/// # Errors
///
/// Returns [`SimError::MissingInput`], [`SimError::UnboundValue`] when
/// allocation left a needed value without storage, arithmetic errors, and
/// [`SimError::Nonterminating`] for runaway loops.
pub fn simulate(
    cdfg: &Cdfg,
    schedule: &CdfgSchedule,
    datapath: &Datapath,
    inputs: &BTreeMap<String, Fx>,
    record_trace: bool,
) -> Result<RtlResult, SimError> {
    let mut sim = Sim::new(cdfg, schedule, datapath, record_trace);
    for (name, width) in cdfg.inputs() {
        let v = inputs
            .get(name)
            .copied()
            .ok_or_else(|| SimError::MissingInput { name: name.clone() })?;
        sim.poke_var(name, apply_width(v, *width))?;
    }
    sim.run_region(cdfg.body())?;
    let mut outputs = BTreeMap::new();
    for name in cdfg.outputs() {
        outputs.insert(name.clone(), sim.peek_var(name)?);
    }
    Ok(RtlResult {
        outputs,
        cycles: sim.cycles,
        trace: sim.trace,
    })
}

/// The RT-level machine for one synthesized behavior: physical registers,
/// memories, and a cycle counter over a bound datapath. Also driven
/// block-by-block by the multi-process system simulator.
pub(crate) struct Sim<'a> {
    cdfg: &'a Cdfg,
    schedule: &'a CdfgSchedule,
    datapath: &'a Datapath,
    regs: Vec<Fx>,
    memories: HashMap<String, HashMap<i64, Fx>>,
    pub(crate) cycles: u64,
    trace: Vec<(u64, Vec<Fx>)>,
    record_trace: bool,
}

impl<'a> Sim<'a> {
    pub(crate) fn new(
        cdfg: &'a Cdfg,
        schedule: &'a CdfgSchedule,
        datapath: &'a Datapath,
        record_trace: bool,
    ) -> Self {
        Sim {
            cdfg,
            schedule,
            datapath,
            regs: vec![Fx::ZERO; datapath.regs.len()],
            memories: HashMap::new(),
            cycles: 0,
            trace: Vec::new(),
            record_trace,
        }
    }

    /// Writes the register allocated to variable `name`.
    pub(crate) fn poke_var(&mut self, name: &str, v: Fx) -> Result<(), SimError> {
        let r = self.var_reg(name)?;
        self.regs[r] = v;
        Ok(())
    }

    /// Reads the register allocated to variable `name`.
    pub(crate) fn peek_var(&self, name: &str) -> Result<Fx, SimError> {
        self.flag(name)
    }

    /// The register of variable `name`.
    fn var_reg(&self, name: &str) -> Result<usize, SimError> {
        let vars = &self.datapath.vars;
        vars.register(name).ok_or_else(|| SimError::UnboundValue {
            detail: format!("no register for `{name}`"),
        })
    }

    fn run_region(&mut self, region: &Region) -> Result<(), SimError> {
        match region {
            Region::Block(b) => self.run_block(*b),
            Region::Seq(rs) => {
                for r in rs {
                    self.run_region(r)?;
                }
                Ok(())
            }
            Region::Loop(l) => {
                let mut iters = 0u64;
                loop {
                    iters += 1;
                    if iters > MAX_ITERATIONS {
                        return Err(SimError::Nonterminating);
                    }
                    match l.kind {
                        LoopKind::DoUntil => {
                            self.run_region(&l.body)?;
                            if !self.flag(&l.exit_var)?.is_zero() {
                                return Ok(());
                            }
                        }
                        LoopKind::While => {
                            if let Some(cb) = l.cond_block {
                                self.run_block(cb)?;
                            }
                            if self.flag(&l.exit_var)?.is_zero() {
                                return Ok(());
                            }
                            self.run_region(&l.body)?;
                        }
                    }
                }
            }
            Region::If(i) => {
                self.run_block(i.cond_block)?;
                if !self.flag(&i.cond_var)?.is_zero() {
                    self.run_region(&i.then_region)
                } else if let Some(e) = &i.else_region {
                    self.run_region(e)
                } else {
                    Ok(())
                }
            }
        }
    }

    fn flag(&self, var: &str) -> Result<Fx, SimError> {
        Ok(self.regs[self.var_reg(var)?])
    }

    pub(crate) fn run_block(&mut self, block: BlockId) -> Result<(), SimError> {
        let dfg = &self.cdfg.block(block).dfg;
        let sched = self
            .schedule
            .block(block)
            .ok_or_else(|| SimError::UnboundValue {
                detail: format!("no schedule for block `{}`", self.cdfg.block(block).name),
            })?;
        let binding = self
            .datapath
            .blocks
            .get(&block)
            .ok_or_else(|| SimError::UnboundValue {
                detail: format!("no binding for block `{}`", self.cdfg.block(block).name),
            })?;
        let writes = self.datapath.vars.writes(block);
        let steps = sched.num_steps();
        // Each step evaluates its ops in topological order (chained free
        // ops may depend on step ops in the same cycle).
        let order = dfg.topological_order().map_err(|e| SimError::BadGraph {
            detail: e.to_string(),
        })?;
        // Combinational values computed this step, before the clock edge.
        let mut computed: HashMap<ValueId, Fx> = HashMap::new();
        for step in 0..steps {
            computed.clear();
            for &op in &order {
                if sched.step(op) != Some(step) {
                    continue;
                }
                let kind = dfg.op(op).kind;
                let result = match kind {
                    OpKind::Const => dfg.op(op).constant.unwrap_or_default(),
                    OpKind::Load => {
                        let mem = dfg.op(op).memory.clone().unwrap_or_default();
                        let addr = self
                            .read(dfg, sched, binding, &computed, dfg.op(op).operands[0], step)?
                            .to_i64();
                        self.memories
                            .get(&mem)
                            .and_then(|m| m.get(&addr))
                            .copied()
                            .unwrap_or(Fx::ZERO)
                    }
                    OpKind::Store => {
                        let mem = dfg.op(op).memory.clone().unwrap_or_default();
                        let addr = self
                            .read(dfg, sched, binding, &computed, dfg.op(op).operands[0], step)?
                            .to_i64();
                        let data = self.read(
                            dfg,
                            sched,
                            binding,
                            &computed,
                            dfg.op(op).operands[1],
                            step,
                        )?;
                        self.memories.entry(mem).or_default().insert(addr, data);
                        Fx::ZERO // the next memory-state token
                    }
                    _ => {
                        let args: Vec<Fx> = dfg
                            .op(op)
                            .operands
                            .iter()
                            .map(|&v| self.read(dfg, sched, binding, &computed, v, step))
                            .collect::<Result<_, _>>()?;
                        eval_op(kind, &args)?
                    }
                };
                if let Some(res) = dfg.result(op) {
                    computed.insert(res, apply_width(result, dfg.value(res).width));
                }
            }
            // End-of-block variable writes share the final clock edge with
            // the temp commits, so they are *resolved* against pre-edge
            // register state (values produced this very cycle arrive
            // combinationally via `computed`).
            let mut pending_writes: Vec<(usize, Fx)> = Vec::new();
            if step + 1 == steps {
                pending_writes = writes
                    .iter()
                    .map(|w| {
                        self.read(dfg, sched, binding, &computed, w.value, step)
                            .map(|x| (w.reg, x))
                    })
                    .collect::<Result<_, _>>()?;
            }
            // Clock edge: commit computed values to their registers.
            for (&v, &x) in &computed {
                if let Some(&r) = binding.value_reg.get(v) {
                    self.regs[r] = x;
                }
            }
            for (r, x) in pending_writes {
                self.regs[r] = x;
            }
            self.cycles += 1;
            if self.record_trace {
                self.trace.push((self.cycles, self.regs.clone()));
            }
        }
        // Blocks with zero steps still transfer pass-through outputs.
        if steps == 0 && !writes.is_empty() {
            let writes: Vec<(usize, Fx)> = writes
                .iter()
                .map(|w| {
                    self.read(dfg, sched, binding, &HashMap::new(), w.value, 0)
                        .map(|x| (w.reg, x))
                })
                .collect::<Result<_, _>>()?;
            for (r, x) in writes {
                self.regs[r] = x;
            }
        }
        Ok(())
    }

    /// Reads the physical source of `value` when consumed at `step`:
    /// variable register, temp register, wired constant, or this cycle's
    /// combinational result.
    fn read(
        &self,
        dfg: &hls_cdfg::DataFlowGraph,
        sched: &Schedule,
        binding: &BlockBinding,
        computed: &HashMap<ValueId, Fx>,
        value: ValueId,
        step: u32,
    ) -> Result<Fx, SimError> {
        if let ValueDef::Op(p) = dfg.value(value).def {
            if dfg.op(p).kind == OpKind::Const {
                return Ok(dfg.op(p).constant.unwrap_or_default());
            }
            if sched.step(p).unwrap_or(0) >= step {
                // Same cycle: combinational (chained free op or the
                // producing FU's output before the edge).
                let unbound = || SimError::UnboundValue {
                    detail: format!("value v{} read before computed", value.index()),
                };
                return computed.get(&value).copied().ok_or_else(unbound);
            }
        }
        // A block input in its variable register, or a value registered
        // in an earlier step in its temp register.
        let unbound = || SimError::UnboundValue {
            detail: format!("value v{} crosses steps without a register", value.index()),
        };
        Ok(self.regs[*binding.value_reg.get(value).ok_or_else(unbound)?])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_alloc::{build_datapath, FuStrategy};
    use hls_rtl::Library;
    use hls_sched::{schedule_cdfg, Algorithm, OpClassifier, Priority, ResourceLimits};

    fn synthesize(src: &str, fus: usize, optimize: bool) -> (Cdfg, CdfgSchedule, Datapath) {
        let mut cdfg = hls_lang::compile(src).unwrap();
        if optimize {
            hls_opt::optimize(&mut cdfg);
        }
        let cls = if optimize {
            OpClassifier::universal_free_shifts()
        } else {
            OpClassifier::universal()
        };
        let limits = ResourceLimits::universal(fus);
        let sched =
            schedule_cdfg(&cdfg, &cls, &limits, Algorithm::List(Priority::PathLength)).unwrap();
        let dp = build_datapath(
            &cdfg,
            &sched,
            &cls,
            &Library::standard(),
            FuStrategy::GreedyAware,
        )
        .unwrap();
        (cdfg, sched, dp)
    }

    #[test]
    fn sqrt_rtl_matches_math_and_cycle_count() {
        let (cdfg, sched, dp) = synthesize(hls_workloads::sources::SQRT, 2, true);
        let r = simulate(
            &cdfg,
            &sched,
            &dp,
            &BTreeMap::from([("X".to_string(), Fx::from_f64(0.7))]),
            false,
        )
        .unwrap();
        assert!((r.outputs["Y"].to_f64() - 0.7f64.sqrt()).abs() < 2e-3);
        assert_eq!(r.cycles, 10, "the paper's 10-step schedule, in cycles");
    }

    #[test]
    fn sqrt_serial_rtl_takes_23_cycles() {
        let (cdfg, sched, dp) = synthesize(hls_workloads::sources::SQRT, 1, false);
        let r = simulate(
            &cdfg,
            &sched,
            &dp,
            &BTreeMap::from([("X".to_string(), Fx::from_f64(0.5))]),
            false,
        )
        .unwrap();
        assert_eq!(r.cycles, 23, "the paper's 23-step schedule, in cycles");
        assert!((r.outputs["Y"].to_f64() - 0.5f64.sqrt()).abs() < 2e-3);
    }

    #[test]
    fn gcd_rtl_control_flow() {
        let (cdfg, sched, dp) = synthesize(hls_workloads::sources::GCD, 1, false);
        for (a, b, g) in [(12, 18, 6), (35, 14, 7), (9, 9, 9)] {
            let r = simulate(
                &cdfg,
                &sched,
                &dp,
                &BTreeMap::from([
                    ("A".to_string(), Fx::from_i64(a)),
                    ("B".to_string(), Fx::from_i64(b)),
                ]),
                false,
            )
            .unwrap();
            assert_eq!(r.outputs["G"], Fx::from_i64(g), "gcd({a},{b})");
        }
    }

    #[test]
    fn trace_records_every_cycle() {
        let (cdfg, sched, dp) = synthesize(hls_workloads::sources::SQRT, 2, true);
        let r = simulate(
            &cdfg,
            &sched,
            &dp,
            &BTreeMap::from([("X".to_string(), Fx::from_f64(0.3))]),
            true,
        )
        .unwrap();
        assert_eq!(r.trace.len() as u64, r.cycles);
        assert_eq!(r.trace[0].1.len(), dp.regs.len());
    }
}
