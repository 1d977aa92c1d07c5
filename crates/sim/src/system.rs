//! Multi-process system simulation: concurrent process execution with
//! blocking channel rendezvous, mutex-guarded shared variables, and
//! structural deadlock detection.
//!
//! Two models share one round-robin scheduler:
//!
//! * [`interpret_system`] — the behavioral golden model, executing each
//!   process CDFG directly.
//! * [`simulate_system`] — lockstep RT-level co-simulation: each process
//!   runs on its own bound datapath, and rendezvous synchronize the
//!   processes' virtual clocks the way the ready/valid handshake ports do
//!   in the elaborated hardware. The reported cycle count is the parallel
//!   makespan (the slowest process's clock), not the sum.
//!
//! Processes pause only at *sync blocks* (see [`hls_cdfg::SyncOp`]); the
//! scheduler grants mutex blocks in process order and channel operations
//! in channel-declaration order, which makes every run deterministic. A
//! state where no unfinished process can be granted anything is reported
//! as [`SimError::Deadlock`] rather than hanging.
//!
//! Channels come in two flavors. Depth-0 channels are rendezvous: a
//! transfer needs sender and receiver blocked simultaneously. Buffered
//! channels (`depth ≥ 1`) hold a FIFO of in-flight values inside the
//! driver; the sender is granted whenever the queue has room (at its own
//! local clock — this is what lets a buffered pipeline overlap stages)
//! and the receiver whenever the queue is nonempty, observing each value
//! no earlier than the virtual time it was enqueued. Crucially, every
//! grant decision depends only on queue occupancy and the pending sync
//! ops — never on process clocks — so the behavioral model (all clocks
//! pinned at 0) and the RT-level model take identical grant sequences
//! and remain lockstep-comparable.

use std::collections::{BTreeMap, HashMap, VecDeque};

use hls_alloc::Datapath;
use hls_cdfg::system::{chan_ok_port, chan_rx_port, chan_tx_port, shared_ld_port, shared_st_port};
use hls_cdfg::{BlockId, Cdfg, Fx, LoopKind, Region, SyncOp, SystemCdfg};
use hls_sched::CdfgSchedule;

use crate::behav::{apply_width, run_block, MAX_ITERATIONS};
use crate::rtl::Sim;
use crate::SimError;

/// The result of a behavioral system run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SystemBehavResult {
    /// Final values of the declared system outputs.
    pub outputs: BTreeMap<String, Fx>,
    /// Total operations executed across all processes.
    pub ops_executed: u64,
    /// Channel rendezvous granted.
    pub rendezvous: u64,
}

/// The result of a lockstep RT-level system run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SystemRtlResult {
    /// Final values of the declared system outputs (read from the owning
    /// process's variable registers).
    pub outputs: BTreeMap<String, Fx>,
    /// Parallel makespan in cycles: the maximum process clock at the end,
    /// with rendezvous synchronizing clocks pairwise.
    pub cycles: u64,
    /// Per-process final clocks, in process order.
    pub process_cycles: Vec<u64>,
    /// Channel rendezvous granted.
    pub rendezvous: u64,
}

/// Synthesized artifacts for one process, borrowed by
/// [`simulate_system`]. Produced per process by the system synthesizer.
#[derive(Clone, Copy)]
pub struct ProcessRtl<'a> {
    /// The process's block schedule.
    pub schedule: &'a CdfgSchedule,
    /// The process's bound datapath.
    pub datapath: &'a Datapath,
}

/// A flattened, resumable control program for one process: the region
/// tree linearized so execution can pause at sync blocks and resume.
/// Shared with the static deadlock analysis in [`crate::deadlock`].
#[derive(Clone, Debug)]
pub(crate) enum Ctl {
    /// Execute the basic block.
    Block(BlockId),
    /// Jump to `target` when the flag is zero (`when_zero`) / nonzero.
    CondJump {
        var: String,
        when_zero: bool,
        target: usize,
    },
    /// Unconditional jump.
    Jump(usize),
}

pub(crate) fn flatten(cdfg: &Cdfg) -> Vec<Ctl> {
    let mut out = Vec::new();
    flatten_region(cdfg.body(), &mut out);
    out
}

fn flatten_region(region: &Region, out: &mut Vec<Ctl>) {
    match region {
        Region::Block(b) => out.push(Ctl::Block(*b)),
        Region::Seq(rs) => {
            for r in rs {
                flatten_region(r, out);
            }
        }
        Region::Loop(l) => match l.kind {
            LoopKind::DoUntil => {
                let start = out.len();
                flatten_region(&l.body, out);
                // Loop back while the exit flag is zero.
                out.push(Ctl::CondJump {
                    var: l.exit_var.clone(),
                    when_zero: true,
                    target: start,
                });
            }
            LoopKind::While => {
                let start = out.len();
                if let Some(cb) = l.cond_block {
                    out.push(Ctl::Block(cb));
                }
                let exit_ix = out.len();
                out.push(Ctl::CondJump {
                    var: l.exit_var.clone(),
                    when_zero: true,
                    target: usize::MAX, // patched below
                });
                flatten_region(&l.body, out);
                out.push(Ctl::Jump(start));
                let end = out.len();
                if let Ctl::CondJump { target, .. } = &mut out[exit_ix] {
                    *target = end;
                }
            }
        },
        Region::If(i) => {
            out.push(Ctl::Block(i.cond_block));
            let branch_ix = out.len();
            out.push(Ctl::CondJump {
                var: i.cond_var.clone(),
                when_zero: true,
                target: usize::MAX, // patched below
            });
            flatten_region(&i.then_region, out);
            let else_target = match &i.else_region {
                Some(e) => {
                    let skip_ix = out.len();
                    out.push(Ctl::Jump(usize::MAX));
                    let else_start = out.len();
                    flatten_region(e, out);
                    let end = out.len();
                    if let Ctl::Jump(t) = &mut out[skip_ix] {
                        *t = end;
                    }
                    else_start
                }
                None => out.len(),
            };
            if let Ctl::CondJump { target, .. } = &mut out[branch_ix] {
                *target = else_target;
            }
        }
    }
}

/// The execution substrate for one process: block execution plus named
/// variable access. Implemented by the behavioral interpreter and the
/// RT-level machine; the round-robin scheduler is shared.
trait ProcExec {
    fn exec_block(&mut self, block: BlockId) -> Result<(), SimError>;
    /// Reads a control flag / variable (missing behaves as zero only in
    /// the behavioral model; the RTL machine errors on unbound names).
    fn flag(&self, var: &str) -> Result<Fx, SimError>;
    /// Reads a port/output variable; an unset name is an error.
    fn read(&self, var: &str) -> Result<Fx, SimError>;
    /// Writes a port variable before a granted sync block runs.
    fn write(&mut self, var: &str, v: Fx) -> Result<(), SimError>;
    /// The process's local clock (always 0 for the behavioral model).
    fn clock(&self) -> u64 {
        0
    }
    /// Advances the local clock to `t` (stalling while blocked).
    fn set_clock(&mut self, _t: u64) {}
}

/// Behavioral process state.
struct BehavProc<'a> {
    cdfg: &'a Cdfg,
    env: HashMap<String, Fx>,
    memories: HashMap<String, HashMap<i64, Fx>>,
    ops: u64,
}

impl ProcExec for BehavProc<'_> {
    fn exec_block(&mut self, block: BlockId) -> Result<(), SimError> {
        run_block(
            &self.cdfg.block(block).dfg,
            &mut self.env,
            &mut self.memories,
            &mut self.ops,
        )
    }

    fn flag(&self, var: &str) -> Result<Fx, SimError> {
        Ok(self.env.get(var).copied().unwrap_or(Fx::ZERO))
    }

    fn read(&self, var: &str) -> Result<Fx, SimError> {
        self.env
            .get(var)
            .copied()
            .ok_or_else(|| SimError::UnsetOutput {
                name: var.to_string(),
            })
    }

    fn write(&mut self, var: &str, v: Fx) -> Result<(), SimError> {
        self.env.insert(var.to_string(), v);
        Ok(())
    }
}

/// RT-level process state: the single-FSMD machine plus a virtual clock.
struct RtlProc<'a> {
    sim: Sim<'a>,
}

impl ProcExec for RtlProc<'_> {
    fn exec_block(&mut self, block: BlockId) -> Result<(), SimError> {
        self.sim.run_block(block)
    }

    fn flag(&self, var: &str) -> Result<Fx, SimError> {
        self.sim.peek_var(var)
    }

    fn read(&self, var: &str) -> Result<Fx, SimError> {
        self.sim.peek_var(var)
    }

    fn write(&mut self, var: &str, v: Fx) -> Result<(), SimError> {
        self.sim.poke_var(var, v)
    }

    fn clock(&self) -> u64 {
        self.sim.cycles
    }

    fn set_clock(&mut self, t: u64) {
        self.sim.cycles = t;
    }
}

/// What a paused process is waiting for.
#[derive(Clone, Debug)]
struct Pending {
    sync: SyncOp,
    block: BlockId,
}

/// The shared round-robin scheduler over any [`ProcExec`] substrate.
struct Driver<'a, E> {
    sys: &'a SystemCdfg,
    ctls: Vec<Vec<Ctl>>,
    execs: Vec<E>,
    pcs: Vec<usize>,
    steps: Vec<u64>,
    shared_vals: HashMap<String, Fx>,
    /// Virtual time at which each shared variable's mutex frees up.
    mutex_free: HashMap<String, u64>,
    /// In-flight values of each buffered (depth ≥ 1) channel, paired with
    /// the virtual time the sender enqueued them: a receiver can pop a
    /// value only at or after that time.
    fifos: HashMap<String, VecDeque<(Fx, u64)>>,
    rendezvous: u64,
}

impl<'a, E: ProcExec> Driver<'a, E> {
    fn new(sys: &'a SystemCdfg, execs: Vec<E>) -> Self {
        let n = sys.processes.len();
        Driver {
            sys,
            ctls: sys.processes.iter().map(|p| flatten(&p.cdfg)).collect(),
            execs,
            pcs: vec![0; n],
            steps: vec![0; n],
            shared_vals: sys
                .shared
                .iter()
                .map(|s| (s.name.clone(), Fx::ZERO))
                .collect(),
            mutex_free: sys.shared.iter().map(|s| (s.name.clone(), 0)).collect(),
            fifos: sys
                .channels
                .iter()
                .filter(|c| c.depth > 0)
                .map(|c| (c.name.clone(), VecDeque::new()))
                .collect(),
            rendezvous: 0,
        }
    }

    fn done(&self, pi: usize) -> bool {
        self.pcs[pi] >= self.ctls[pi].len()
    }

    /// The sync block process `pi` is paused at, if any.
    fn pending(&self, pi: usize) -> Option<Pending> {
        if self.done(pi) {
            return None;
        }
        if let Ctl::Block(b) = self.ctls[pi][self.pcs[pi]] {
            if let Some(sync) = &self.sys.processes[pi].cdfg.block(b).sync {
                return Some(Pending {
                    sync: sync.clone(),
                    block: b,
                });
            }
        }
        None
    }

    /// Runs process `pi` until it finishes or pauses at a sync block.
    fn advance(&mut self, pi: usize) -> Result<(), SimError> {
        loop {
            if self.done(pi) || self.pending(pi).is_some() {
                return Ok(());
            }
            match self.ctls[pi][self.pcs[pi]].clone() {
                Ctl::Block(b) => {
                    self.execs[pi].exec_block(b)?;
                    self.pcs[pi] += 1;
                }
                Ctl::CondJump {
                    var,
                    when_zero,
                    target,
                } => {
                    let flag = self.execs[pi].flag(&var)?;
                    if flag.is_zero() == when_zero {
                        self.pcs[pi] = target;
                    } else {
                        self.pcs[pi] += 1;
                    }
                }
                Ctl::Jump(t) => self.pcs[pi] = t,
            }
            self.steps[pi] += 1;
            if self.steps[pi] > MAX_ITERATIONS {
                return Err(SimError::Nonterminating);
            }
        }
    }

    /// Executes a granted sync block, charging at least one cycle (the
    /// handshake state the FSM always holds for a sync block).
    fn exec_sync(&mut self, pi: usize, block: BlockId) -> Result<(), SimError> {
        let before = self.execs[pi].clock();
        self.execs[pi].exec_block(block)?;
        if self.execs[pi].clock() == before {
            self.execs[pi].set_clock(before + 1);
        }
        self.pcs[pi] += 1;
        Ok(())
    }

    fn queue_len(&self, chan: &str) -> usize {
        self.fifos.get(chan).map_or(0, VecDeque::len)
    }

    /// Reads the just-executed sender block's `tx` port and enqueues the
    /// value at the sender's local clock. Counts as a transfer.
    fn push_fifo(&mut self, chan: &hls_cdfg::ChannelSpec, s: usize) -> Result<(), SimError> {
        let v = apply_width(self.execs[s].read(&chan_tx_port(&chan.name))?, chan.width);
        let ts = self.execs[s].clock();
        self.fifos
            .entry(chan.name.clone())
            .or_default()
            .push_back((v, ts));
        self.rendezvous += 1;
        Ok(())
    }

    fn pop_fifo(&mut self, chan: &str) -> Option<(Fx, u64)> {
        self.fifos.get_mut(chan).and_then(VecDeque::pop_front)
    }

    fn run(&mut self) -> Result<(), SimError> {
        let n = self.sys.processes.len();
        loop {
            for pi in 0..n {
                self.advance(pi)?;
            }
            if (0..n).all(|pi| self.done(pi)) {
                return Ok(());
            }
            let mut granted = false;
            // Mutex grants first, in process order: a shared-variable
            // block is always grantable (the mutex is never held across
            // blocks), so these never deadlock.
            for pi in 0..n {
                let Some(p) = self.pending(pi) else { continue };
                let SyncOp::Shared { var, read, write } = p.sync else {
                    continue;
                };
                let width = self
                    .sys
                    .shared
                    .iter()
                    .find(|s| s.name == var)
                    .map(|s| s.width)
                    .ok_or_else(|| SimError::BadGraph {
                        detail: format!("sync block references undeclared shared `{var}`"),
                    })?;
                // Serialize on the mutex in virtual time.
                let t0 = self.execs[pi]
                    .clock()
                    .max(self.mutex_free.get(&var).copied().unwrap_or(0));
                self.execs[pi].set_clock(t0);
                if read {
                    let v =
                        self.shared_vals
                            .get(&var)
                            .copied()
                            .ok_or_else(|| SimError::BadGraph {
                                detail: format!("shared `{var}` has no value"),
                            })?;
                    self.execs[pi].write(&shared_ld_port(&var), v)?;
                }
                self.exec_sync(pi, p.block)?;
                if write {
                    let v = self.execs[pi].read(&shared_st_port(&var))?;
                    self.shared_vals.insert(var.clone(), apply_width(v, width));
                }
                self.mutex_free.insert(var, self.execs[pi].clock());
                granted = true;
            }
            // Channel grants next, in channel-declaration order. A
            // rendezvous (depth 0) needs both endpoints waiting; a
            // buffered channel grants each endpoint independently on
            // queue occupancy, sender side first — so a receiver can pop
            // a value pushed in the same sweep.
            for ci in 0..self.sys.channels.len() {
                let chan = self.sys.channels[ci].clone();
                if chan.depth == 0 {
                    let (Some(s), Some(r)) = (chan.sender, chan.receiver) else {
                        continue;
                    };
                    let (Some(ps), Some(pr)) = (self.pending(s), self.pending(r)) else {
                        continue;
                    };
                    let (name, width) = (chan.name.clone(), chan.width);
                    if !matches!(&ps.sync, SyncOp::Send { chan: c } if *c == name) {
                        continue;
                    }
                    if !matches!(&pr.sync, SyncOp::Recv { chan: c } if *c == name) {
                        continue;
                    }
                    // Rendezvous: both parties wait for the later one, the
                    // sender's block commits the value, the receiver latches
                    // it and runs its block.
                    let t0 = self.execs[s].clock().max(self.execs[r].clock());
                    self.execs[s].set_clock(t0);
                    self.exec_sync(s, ps.block)?;
                    let v = apply_width(self.execs[s].read(&chan_tx_port(&name))?, width);
                    let ts = self.execs[s].clock();
                    self.execs[r].set_clock(ts);
                    self.execs[r].write(&chan_rx_port(&name), v)?;
                    self.exec_sync(r, pr.block)?;
                    self.rendezvous += 1;
                    granted = true;
                    continue;
                }
                // Buffered channel: sender side.
                if let Some(s) = chan.sender {
                    match self.pending(s).map(|p| (p.sync.clone(), p.block)) {
                        Some((SyncOp::Send { chan: c }, block))
                            if c == chan.name
                                && self.queue_len(&chan.name) < chan.depth as usize =>
                        {
                            self.exec_sync(s, block)?;
                            self.push_fifo(&chan, s)?;
                            granted = true;
                        }
                        Some((SyncOp::TrySend { chan: c }, block)) if c == chan.name => {
                            // Never blocks: the ok port tells the block
                            // whether the value made it into the queue.
                            let ok = self.queue_len(&chan.name) < chan.depth as usize;
                            self.execs[s].write(&chan_ok_port(&chan.name), bit(ok))?;
                            self.exec_sync(s, block)?;
                            if ok {
                                self.push_fifo(&chan, s)?;
                            }
                            granted = true;
                        }
                        _ => {}
                    }
                }
                // Buffered channel: receiver side.
                if let Some(r) = chan.receiver {
                    match self.pending(r).map(|p| (p.sync.clone(), p.block)) {
                        Some((SyncOp::Recv { chan: c }, block)) if c == chan.name => {
                            if let Some((v, ts)) = self.pop_fifo(&chan.name) {
                                let t0 = self.execs[r].clock().max(ts);
                                self.execs[r].set_clock(t0);
                                self.execs[r].write(&chan_rx_port(&chan.name), v)?;
                                self.exec_sync(r, block)?;
                                granted = true;
                            }
                        }
                        Some((SyncOp::TryRecv { chan: c }, block)) if c == chan.name => {
                            match self.pop_fifo(&chan.name) {
                                Some((v, ts)) => {
                                    let t0 = self.execs[r].clock().max(ts);
                                    self.execs[r].set_clock(t0);
                                    self.execs[r].write(&chan_rx_port(&chan.name), v)?;
                                    self.execs[r].write(&chan_ok_port(&chan.name), bit(true))?;
                                }
                                None => {
                                    // Empty FIFO: destination zeroed,
                                    // flag low, no blocking.
                                    self.execs[r].write(&chan_rx_port(&chan.name), Fx::ZERO)?;
                                    self.execs[r].write(&chan_ok_port(&chan.name), bit(false))?;
                                }
                            }
                            self.exec_sync(r, block)?;
                            granted = true;
                        }
                        _ => {}
                    }
                }
            }
            if !granted {
                let blocked = (0..n)
                    .filter_map(|pi| {
                        self.pending(pi).map(|p| {
                            let what = match &p.sync {
                                SyncOp::Send { chan } => format!("send {chan}"),
                                SyncOp::Recv { chan } => format!("recv {chan}"),
                                // Try-ops are always grantable, so they
                                // can never appear in a blocked set; the
                                // labels exist for exhaustiveness.
                                SyncOp::TrySend { chan } => format!("try_send {chan}"),
                                SyncOp::TryRecv { chan } => format!("try_recv {chan}"),
                                SyncOp::Shared { var, .. } => format!("shared {var}"),
                            };
                            (self.sys.processes[pi].name.clone(), what)
                        })
                    })
                    .collect();
                return Err(SimError::Deadlock { blocked });
            }
        }
    }

    /// Reads the declared system outputs from their owning processes.
    fn outputs(&self) -> Result<BTreeMap<String, Fx>, SimError> {
        let mut out = BTreeMap::new();
        for (name, owner) in &self.sys.outputs {
            out.insert(name.clone(), self.execs[*owner].read(name)?);
        }
        Ok(out)
    }
}

/// Interprets a system behaviorally: the golden model for multi-process
/// co-simulation.
///
/// # Errors
///
/// Returns [`SimError::MissingInput`] for absent system inputs,
/// [`SimError::Deadlock`] when no unfinished process can make progress,
/// [`SimError::Nonterminating`] for runaway processes, and any evaluation
/// error.
pub fn interpret_system(
    sys: &SystemCdfg,
    inputs: &BTreeMap<String, Fx>,
) -> Result<SystemBehavResult, SimError> {
    let mut execs = Vec::new();
    for p in &sys.processes {
        let mut env = HashMap::new();
        for (name, width) in p.cdfg.inputs() {
            // Only system inputs are bound up front; channel/shared ports
            // are poked at each rendezvous.
            if let Some(v) = inputs.get(name) {
                env.insert(name.clone(), apply_width(*v, *width));
            } else if !is_port_var(name) {
                return Err(SimError::MissingInput { name: name.clone() });
            }
        }
        execs.push(BehavProc {
            cdfg: &p.cdfg,
            env,
            memories: HashMap::new(),
            ops: 0,
        });
    }
    let mut driver = Driver::new(sys, execs);
    driver.run()?;
    Ok(SystemBehavResult {
        outputs: driver.outputs()?,
        ops_executed: driver.execs.iter().map(|e| e.ops).sum(),
        rendezvous: driver.rendezvous,
    })
}

/// Lockstep RT-level co-simulation of a synthesized system: one bound
/// datapath per process, rendezvous synchronizing the process clocks.
///
/// `procs` must be in process order and the same length as
/// `sys.processes`.
///
/// # Errors
///
/// As [`interpret_system`], plus [`SimError::UnboundValue`] when a
/// process's allocation lacks storage for a needed port or variable.
pub fn simulate_system(
    sys: &SystemCdfg,
    procs: &[ProcessRtl<'_>],
    inputs: &BTreeMap<String, Fx>,
) -> Result<SystemRtlResult, SimError> {
    if procs.len() != sys.processes.len() {
        return Err(SimError::BadGraph {
            detail: format!(
                "system has {} processes but {} RTL artifacts were supplied",
                sys.processes.len(),
                procs.len()
            ),
        });
    }
    let mut execs = Vec::new();
    for (p, art) in sys.processes.iter().zip(procs) {
        let mut sim = Sim::new(&p.cdfg, art.schedule, art.datapath, false);
        for (name, width) in p.cdfg.inputs() {
            if let Some(v) = inputs.get(name) {
                sim.poke_var(name, apply_width(*v, *width))?;
            } else if !is_port_var(name) {
                return Err(SimError::MissingInput { name: name.clone() });
            }
        }
        execs.push(RtlProc { sim });
    }
    let mut driver = Driver::new(sys, execs);
    driver.run()?;
    let outputs = driver.outputs()?;
    let process_cycles: Vec<u64> = driver.execs.iter().map(|e| e.sim.cycles).collect();
    Ok(SystemRtlResult {
        outputs,
        cycles: process_cycles.iter().copied().max().unwrap_or(0),
        process_cycles,
        rendezvous: driver.rendezvous,
    })
}

/// `true` for the reserved rendezvous port variables (`{chan}__rx`,
/// `{var}__ld`, ...), which are bound at sync time, not at start.
fn is_port_var(name: &str) -> bool {
    name.contains("__")
}

/// A 1-bit flag value.
fn bit(b: bool) -> Fx {
    if b {
        Fx::from_i64(1)
    } else {
        Fx::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PIPE: &str = "
        system pipe;
        input X;
        output Y;
        chan c : fix;
        process prod;
        var i : int<4>;
        begin
          i := 0;
          do
            send c, X + i;
            i := i + 1;
          until i > 2;
        end;
        process cons;
        var v, acc;
        var j : int<4>;
        begin
          acc := 0;
          j := 0;
          do
            recv c, v;
            acc := acc + v;
            j := j + 1;
          until j > 2;
          Y := acc;
        end;
        end.
    ";

    fn fx(v: f64) -> Fx {
        Fx::from_f64(v)
    }

    #[test]
    fn producer_consumer_pipeline() {
        let sys = hls_lang::compile_system(PIPE).unwrap();
        let r = interpret_system(&sys, &BTreeMap::from([("X".to_string(), fx(2.0))])).unwrap();
        // Y = (X+0) + (X+1) + (X+2) = 3X + 3
        assert_eq!(r.outputs["Y"], fx(9.0));
        assert_eq!(r.rendezvous, 3);
    }

    #[test]
    fn shared_variable_mutex_is_atomic_and_ordered() {
        // Both processes bump the same shared accumulator; grants are in
        // process order, so the final value is deterministic.
        let sys = hls_lang::compile_system(
            "system s; output Y; shared acc;
             process a; var i : int<4>; begin
               i := 0;
               do acc := acc + 1; i := i + 1; until i > 3;
             end;
             process b; var t; begin
               t := acc;
               Y := t;
             end;
             end.",
        )
        .unwrap();
        let r = interpret_system(&sys, &BTreeMap::new()).unwrap();
        // Process order: a's first increment is granted before b's read.
        assert_eq!(r.outputs["Y"], Fx::from_i64(1));
    }

    #[test]
    fn send_without_receiver_deadlocks() {
        let sys = hls_lang::compile_system(
            "system s; output Y; chan c;
             process a; begin send c, 1; Y := 0; end;
             end.",
        )
        .unwrap();
        let err = interpret_system(&sys, &BTreeMap::new()).unwrap_err();
        let SimError::Deadlock { blocked } = err else {
            panic!("expected deadlock, got {err}");
        };
        assert_eq!(blocked, vec![("a".to_string(), "send c".to_string())]);
    }

    #[test]
    fn mismatched_rendezvous_counts_deadlock() {
        // Producer sends twice, consumer receives three times.
        let sys = hls_lang::compile_system(
            "system s; output Y; chan c;
             process a; var i : int<4>; begin
               i := 0;
               do send c, i; i := i + 1; until i > 1;
             end;
             process b; var v, j : int<4>; begin
               j := 0;
               do recv c, v; j := j + 1; until j > 2;
               Y := v;
             end;
             end.",
        )
        .unwrap();
        let err = interpret_system(&sys, &BTreeMap::new()).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
        assert!(err.to_string().contains("recv c"), "{err}");
    }

    #[test]
    fn flatten_covers_control_shapes() {
        let cdfg = hls_lang::compile(
            "program t; input x; output y; var i : int<4>; begin
               y := 0;
               i := 0;
               while i < 3 do
                 if x > 0 then y := y + x; else y := y - x; end;
                 i := i + 1;
               end;
               do y := y + 1; until y > 10;
             end",
        )
        .unwrap();
        let ctl = flatten(&cdfg);
        assert!(ctl.len() > 5);
        // Jump targets stay in range (usize::MAX placeholders all patched).
        for c in &ctl {
            match c {
                Ctl::Jump(t) | Ctl::CondJump { target: t, .. } => assert!(*t <= ctl.len()),
                Ctl::Block(_) => {}
            }
        }
    }
}
