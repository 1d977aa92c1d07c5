//! Static deadlock analysis over per-process sync sequences.
//!
//! [`analyze_deadlock`] decides, at compile time, whether a
//! [`SystemCdfg`] can reach a state where unfinished processes block on
//! channel operations forever. It works in two phases:
//!
//! 1. **Trace extraction.** Each process's flattened control program is
//!    abstractly interpreted over `Option<Fx>` (`None` = unknown: system
//!    inputs, channel/shared port values, memory loads). If every branch
//!    the process takes has a statically known flag, the exact sequence
//!    of blocking channel operations it will perform falls out — the
//!    *sync trace*. Mutex (`shared`) blocks are excluded: the arbiter
//!    always grants them, so they can never contribute to a deadlock.
//! 2. **Replay.** The traces are replayed under the exact grant
//!    discipline of the runtime scheduler (rendezvous needs both ends
//!    waiting; buffered sends need queue room, receives need a nonempty
//!    queue — pure counting, no data). Replay either drains every trace
//!    or wedges, and because the runtime scheduler's grant decisions
//!    depend only on the same occupancy/pending state, the replay
//!    verdict transfers to both the behavioral and the RT-level
//!    simulation.
//!
//! The analysis is *conservative*: anything it cannot trace exactly — an
//! input-dependent branch, a non-blocking `try_send`/`try_recv` (whose
//! success depends on queue occupancy at run time), a process exceeding
//! the step cap — yields [`DeadlockVerdict::Unknown`] with the reason,
//! never a guess. A [`DeadlockVerdict::Free`] therefore proves the
//! common acyclic pipelines and producer/consumer rings deadlock-free at
//! compile time, and a [`DeadlockVerdict::Deadlock`] comes with the
//! blocked set and, when one exists, the wait-for cycle as a witness.

use std::collections::HashMap;

use hls_cdfg::{Cdfg, DataFlowGraph, Fx, OpKind, SyncOp, SystemCdfg, ValueId};

use crate::behav::{apply_width, eval_op};
use crate::system::{flatten, Ctl};

/// Step cap per process during trace extraction; traces longer than this
/// are reported as [`DeadlockVerdict::Unknown`] rather than unrolled.
const TRACE_STEP_CAP: u64 = 1 << 16;

/// The outcome of the static deadlock analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeadlockVerdict {
    /// Every process's sync trace drains under the scheduler's grant
    /// discipline: the system cannot deadlock, on any input.
    Free,
    /// Replay wedged: the listed processes block forever.
    Deadlock {
        /// `(process, operation)` pairs in process order, e.g.
        /// `("prod", "send c")` — the same labels the runtime
        /// [`crate::SimError::Deadlock`] reports.
        blocked: Vec<(String, String)>,
        /// A wait-for cycle among the blocked processes (each waits on
        /// the next, the last on the first), when one exists. Empty for
        /// pure starvation (e.g. a send whose partner already finished).
        cycle: Vec<String>,
    },
    /// The analysis could not extract exact traces; the runtime verdict
    /// is data-dependent. `reason` names the first obstruction.
    Unknown {
        /// Why the analysis gave up (conservative, logged upstream).
        reason: String,
    },
}

impl DeadlockVerdict {
    /// `true` only for a proven [`DeadlockVerdict::Free`].
    pub fn is_free(&self) -> bool {
        matches!(self, DeadlockVerdict::Free)
    }
}

impl std::fmt::Display for DeadlockVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeadlockVerdict::Free => f.write_str("deadlock-free"),
            DeadlockVerdict::Deadlock { blocked, cycle } => {
                write!(f, "deadlock: ")?;
                for (i, (p, op)) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "`{p}` blocked on {op}")?;
                }
                if !cycle.is_empty() {
                    write!(f, " (cycle: {})", cycle.join(" -> "))?;
                }
                Ok(())
            }
            DeadlockVerdict::Unknown { reason } => write!(f, "unknown ({reason})"),
        }
    }
}

/// Statically analyzes `sys` for deadlock. See the module docs for the
/// method and the soundness argument.
pub fn analyze_deadlock(sys: &SystemCdfg) -> DeadlockVerdict {
    let mut traces = Vec::with_capacity(sys.processes.len());
    for p in &sys.processes {
        match extract_trace(&p.cdfg) {
            Ok(t) => traces.push(t),
            Err(reason) => {
                return DeadlockVerdict::Unknown {
                    reason: format!("process `{}`: {reason}", p.name),
                }
            }
        }
    }
    replay(sys, &traces)
}

/// One blocking channel operation of a process's sync trace.
#[derive(Clone, Debug, PartialEq, Eq)]
enum TraceOp {
    Send(String),
    Recv(String),
}

impl TraceOp {
    fn label(&self) -> String {
        match self {
            TraceOp::Send(c) => format!("send {c}"),
            TraceOp::Recv(c) => format!("recv {c}"),
        }
    }

    fn chan(&self) -> &str {
        match self {
            TraceOp::Send(c) | TraceOp::Recv(c) => c,
        }
    }
}

/// Abstractly executes one process, returning its exact sequence of
/// blocking channel operations, or the reason it cannot be determined.
fn extract_trace(cdfg: &Cdfg) -> Result<Vec<TraceOp>, String> {
    let ctl = flatten(cdfg);
    // All names start unknown: system inputs, ports, everything. Known
    // values enter only through constants inside blocks.
    let mut env: HashMap<String, Option<Fx>> = HashMap::new();
    let mut trace = Vec::new();
    let mut pc = 0usize;
    let mut steps = 0u64;
    while pc < ctl.len() {
        steps += 1;
        if steps > TRACE_STEP_CAP {
            return Err("control trace exceeds the analysis step cap".to_string());
        }
        match &ctl[pc] {
            Ctl::Block(b) => {
                let block = cdfg.block(*b);
                match &block.sync {
                    Some(SyncOp::Send { chan }) => trace.push(TraceOp::Send(chan.clone())),
                    Some(SyncOp::Recv { chan }) => trace.push(TraceOp::Recv(chan.clone())),
                    Some(SyncOp::TrySend { chan } | SyncOp::TryRecv { chan }) => {
                        return Err(format!(
                            "non-blocking try op on `{chan}` makes queue occupancy \
                             data-dependent"
                        ));
                    }
                    // Mutex blocks are always granted; not part of the
                    // trace. Their loaded value stays unknown.
                    Some(SyncOp::Shared { .. }) | None => {}
                }
                abs_block(&block.dfg, &mut env);
                pc += 1;
            }
            Ctl::CondJump {
                var,
                when_zero,
                target,
            } => {
                let Some(Some(flag)) = env.get(var.as_str()).copied() else {
                    return Err(format!("branch on `{var}` is input-dependent"));
                };
                if flag.is_zero() == *when_zero {
                    pc = *target;
                } else {
                    pc += 1;
                }
            }
            Ctl::Jump(t) => pc = *t,
        }
    }
    Ok(trace)
}

/// Abstract interpretation of one basic block over `Option<Fx>`: known
/// operands evaluate exactly, anything touching an unknown (or a memory,
/// or a faulting evaluation) produces unknown.
fn abs_block(dfg: &DataFlowGraph, env: &mut HashMap<String, Option<Fx>>) {
    let mut values: HashMap<ValueId, Option<Fx>> = HashMap::new();
    for &iv in dfg.inputs() {
        let name = &dfg.value(iv).name;
        values.insert(iv, env.get(name).copied().flatten());
    }
    let Ok(order) = dfg.topological_order() else {
        // A malformed block cannot be traced; poison all its outputs.
        for (name, _) in dfg.outputs() {
            env.insert(name.clone(), None);
        }
        return;
    };
    for id in order {
        let op = dfg.op(id);
        let result: Option<Fx> = match op.kind {
            OpKind::Const => Some(op.constant.unwrap_or_default()),
            // Memory contents are not tracked: loads are unknown, store
            // tokens are concrete (they only thread ordering).
            OpKind::Load => None,
            OpKind::Store => Some(Fx::ZERO),
            kind => {
                let args: Option<Vec<Fx>> = op.operands.iter().map(|v| *values.get(v)?).collect();
                args.and_then(|a| eval_op(kind, &a).ok())
            }
        };
        if let Some(res) = op.result {
            let width = dfg.value(res).width;
            values.insert(res, result.map(|v| apply_width(v, width)));
        }
    }
    for (name, v) in dfg.outputs() {
        env.insert(name.clone(), values.get(v).copied().flatten());
    }
}

/// Replays the traces under the scheduler's grant discipline.
fn replay(sys: &SystemCdfg, traces: &[Vec<TraceOp>]) -> DeadlockVerdict {
    let n = traces.len();
    let mut pcs = vec![0usize; n];
    let mut queues: HashMap<&str, u32> = sys
        .channels
        .iter()
        .filter(|c| c.depth > 0)
        .map(|c| (c.name.as_str(), 0u32))
        .collect();
    let at = |pcs: &[usize], pi: usize, traces: &[Vec<TraceOp>]| -> Option<TraceOp> {
        traces[pi].get(pcs[pi]).cloned()
    };
    loop {
        if (0..n).all(|pi| pcs[pi] >= traces[pi].len()) {
            return DeadlockVerdict::Free;
        }
        let mut granted = false;
        for chan in &sys.channels {
            if chan.depth == 0 {
                let (Some(s), Some(r)) = (chan.sender, chan.receiver) else {
                    continue;
                };
                let send_ready =
                    matches!(at(&pcs, s, traces), Some(TraceOp::Send(c)) if c == chan.name);
                let recv_ready =
                    matches!(at(&pcs, r, traces), Some(TraceOp::Recv(c)) if c == chan.name);
                if send_ready && recv_ready {
                    pcs[s] += 1;
                    pcs[r] += 1;
                    granted = true;
                }
                continue;
            }
            // Every buffered channel's queue is seeded above.
            let Some(queue) = queues.get_mut(chan.name.as_str()) else {
                return DeadlockVerdict::Unknown {
                    reason: format!("channel `{}` has no queue", chan.name),
                };
            };
            if let Some(s) = chan.sender {
                if matches!(at(&pcs, s, traces), Some(TraceOp::Send(c)) if c == chan.name)
                    && *queue < chan.depth
                {
                    pcs[s] += 1;
                    *queue += 1;
                    granted = true;
                }
            }
            if let Some(r) = chan.receiver {
                if matches!(at(&pcs, r, traces), Some(TraceOp::Recv(c)) if c == chan.name)
                    && *queue > 0
                {
                    pcs[r] += 1;
                    *queue -= 1;
                    granted = true;
                }
            }
        }
        if !granted {
            return wedge_verdict(sys, traces, &pcs);
        }
    }
}

/// Builds the [`DeadlockVerdict::Deadlock`] witness from a wedged replay
/// state: the blocked set plus a wait-for cycle, if one exists.
fn wedge_verdict(sys: &SystemCdfg, traces: &[Vec<TraceOp>], pcs: &[usize]) -> DeadlockVerdict {
    let n = traces.len();
    let stuck: Vec<usize> = (0..n).filter(|&pi| pcs[pi] < traces[pi].len()).collect();
    let blocked: Vec<(String, String)> = stuck
        .iter()
        .map(|&pi| {
            let op = &traces[pi][pcs[pi]];
            (sys.processes[pi].name.clone(), op.label())
        })
        .collect();
    // Wait-for edges: a blocked sender waits on the channel's receiver,
    // a blocked receiver on the sender. Each process has at most one
    // outstanding op, so each node has at most one successor — a cycle,
    // if any, is found by walking successors.
    let waits_on = |pi: usize| -> Option<usize> {
        let op = &traces[pi][pcs[pi]];
        let chan = sys.channel(op.chan())?;
        let partner = match op {
            TraceOp::Send(_) => chan.receiver,
            TraceOp::Recv(_) => chan.sender,
        }?;
        stuck.contains(&partner).then_some(partner)
    };
    for &start in &stuck {
        let mut path = vec![start];
        let mut cur = start;
        while let Some(next) = waits_on(cur) {
            if let Some(pos) = path.iter().position(|&p| p == next) {
                let cycle = path[pos..]
                    .iter()
                    .map(|&pi| sys.processes[pi].name.clone())
                    .collect();
                return DeadlockVerdict::Deadlock { blocked, cycle };
            }
            path.push(next);
            cur = next;
        }
    }
    DeadlockVerdict::Deadlock {
        blocked,
        cycle: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(src: &str) -> DeadlockVerdict {
        let sys = hls_lang::compile_system(src).unwrap();
        analyze_deadlock(&sys)
    }

    #[test]
    fn acyclic_pipeline_is_proven_free() {
        let v = verdict(
            "system pipe; input X; output Y; chan c;
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
        );
        assert_eq!(v, DeadlockVerdict::Free);
    }

    #[test]
    fn producer_consumer_ring_is_proven_free() {
        // a -> b -> a: a classic request/response ring. With matched
        // counts and a send-first process, this never deadlocks.
        let v = verdict(
            "system ring; output Y; chan req; chan rsp;
             process a; var i : int<4>; var v; begin
               i := 0;
               do send req, i; recv rsp, v; i := i + 1; until i > 2;
               Y := v;
             end;
             process b; var r; begin
               recv req, r; send rsp, r + 1;
               recv req, r; send rsp, r + 1;
               recv req, r; send rsp, r + 1;
             end;
             end.",
        );
        assert_eq!(v, DeadlockVerdict::Free);
    }

    #[test]
    fn crossed_rendezvous_reports_cycle_witness() {
        // Both processes send first: each waits for the other's recv.
        let v = verdict(
            "system cross; output Y; chan ab; chan ba;
             process a; var v; begin
               send ab, 1; recv ba, v; Y := v;
             end;
             process b; var w; begin
               send ba, 2; recv ab, w;
             end;
             end.",
        );
        let DeadlockVerdict::Deadlock { blocked, cycle } = v else {
            panic!("expected deadlock, got {v}");
        };
        assert_eq!(
            blocked,
            vec![
                ("a".to_string(), "send ab".to_string()),
                ("b".to_string(), "send ba".to_string()),
            ]
        );
        assert_eq!(cycle.len(), 2, "a waits on b waits on a: {cycle:?}");
    }

    #[test]
    fn buffering_resolves_the_crossed_sends() {
        // The same crossed shape, but one channel buffered: the send on
        // `ab` completes immediately, breaking the cycle.
        let v = verdict(
            "system cross; output Y; chan ab : fix[1]; chan ba;
             process a; var v; begin
               send ab, 1; recv ba, v; Y := v;
             end;
             process b; var w; begin
               send ba, 2; recv ab, w;
             end;
             end.",
        );
        assert_eq!(v, DeadlockVerdict::Free);
    }

    #[test]
    fn mismatched_counts_deadlock_without_cycle() {
        let v = verdict(
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
        );
        let DeadlockVerdict::Deadlock { blocked, cycle } = v else {
            panic!("expected deadlock, got {v}");
        };
        assert_eq!(blocked, vec![("b".to_string(), "recv c".to_string())]);
        assert!(cycle.is_empty(), "starvation, not a cycle: {cycle:?}");
    }

    #[test]
    fn overfilled_buffer_deadlocks() {
        // Three sends into a depth-2 FIFO nobody drains.
        let v = verdict(
            "system s; output Y; chan c : fix[2];
             process a; var i : int<4>; begin
               i := 0;
               do send c, i; i := i + 1; until i > 2;
               Y := i;
             end;
             process b; var unused; begin
               unused := 0;
             end;
             end.",
        );
        let DeadlockVerdict::Deadlock { blocked, .. } = v else {
            panic!("expected deadlock, got {v}");
        };
        assert_eq!(blocked, vec![("a".to_string(), "send c".to_string())]);
    }

    #[test]
    fn input_dependent_branch_is_unknown() {
        let v = verdict(
            "system s; input X; output Y; chan c;
             process a; begin
               if X > 0 then Y := 1; else Y := 2; end;
               send c, X;
             end;
             process b; var v; begin recv c, v; end;
             end.",
        );
        let DeadlockVerdict::Unknown { reason } = v else {
            panic!("expected unknown, got {v}");
        };
        assert!(reason.contains("input-dependent"), "{reason}");
    }

    #[test]
    fn try_ops_are_conservatively_unknown() {
        let v = verdict(
            "system s; output Y; chan c : fix[2];
             process a; var f : bit; begin
               try_send c, 7, f;
               Y := f;
             end;
             process b; var v, g : bit; begin
               try_recv c, v, g;
             end;
             end.",
        );
        assert!(matches!(v, DeadlockVerdict::Unknown { .. }), "{v}");
    }

    #[test]
    fn verdict_agrees_with_simulation_on_the_crossed_case() {
        let sys = hls_lang::compile_system(
            "system cross; output Y; chan ab; chan ba;
             process a; var v; begin send ab, 1; recv ba, v; Y := v; end;
             process b; var w; begin send ba, 2; recv ab, w; end;
             end.",
        )
        .unwrap();
        let DeadlockVerdict::Deadlock { blocked, .. } = analyze_deadlock(&sys) else {
            panic!("analysis missed the deadlock");
        };
        let err = crate::interpret_system(&sys, &Default::default()).unwrap_err();
        let crate::SimError::Deadlock {
            blocked: sim_blocked,
        } = err
        else {
            panic!("simulation missed the deadlock: {err}");
        };
        assert_eq!(blocked, sim_blocked);
    }
}
