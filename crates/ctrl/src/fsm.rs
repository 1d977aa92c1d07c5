//! Controller synthesis: from schedule + datapath binding to a finite
//! state machine.
//!
//! "If hardwired control is chosen, a control step corresponds to a state
//! in the controlling finite state machine. Once the inputs and outputs to
//! the FSM — the interface to the data part — have been determined as part
//! of the allocation, the FSM can be synthesized using known methods" (§2).

use std::collections::{BTreeMap, BTreeSet};

use hls_alloc::{Datapath, Signal};
use hls_cdfg::{BlockId, Cdfg, LoopKind, Region, SyncOp};
use hls_sched::{CdfgSchedule, OpClassifier};

use crate::CtrlError;

/// Index of a state within its [`Fsm`].
pub type StateId = usize;

/// A transition guard: a 1-bit datapath flag (named after the variable
/// holding the comparison result), tested Mealy-style at the step
/// boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Cond {
    /// Unconditional.
    Always,
    /// Taken when the flag is one.
    IsTrue(String),
    /// Taken when the flag is zero.
    IsFalse(String),
}

/// A guarded transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transition {
    /// Guard.
    pub cond: Cond,
    /// Destination state.
    pub to: StateId,
}

/// One controller state (= one control step of one block).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct State {
    /// Diagnostic name, e.g. `blk1.s0`.
    pub name: String,
    /// Asserted control signals (FU operations, mux selects, register
    /// loads): ascending indices into [`Fsm::signals`].
    pub signals: Vec<usize>,
    /// Outgoing transitions, tested in order; the first matching guard
    /// wins.
    pub transitions: Vec<Transition>,
}

/// The controller FSM.
#[derive(Clone, Debug, Default)]
pub struct Fsm {
    /// States; index = [`StateId`].
    pub states: Vec<State>,
    /// Initial state.
    pub initial: StateId,
    /// The terminal `done` state (self-loop).
    pub done: StateId,
    /// Condition flags read from the datapath.
    pub flags: BTreeSet<String>,
    /// Every distinct control signal the states assert, in first-seen
    /// order.
    pub signals: Vec<Signal>,
    /// Synchronization states: the *commit* state of every sync block
    /// (channel send/recv or mutexed shared access), keyed by state id
    /// with the block's [`SyncOp`]. For blocking ops the controller holds
    /// in the state until its external grant is asserted; for
    /// `TrySend`/`TryRecv` it asserts its request for exactly one cycle
    /// and advances regardless of the grant, which the datapath samples
    /// as the success flag (see
    /// [`controller_verilog`](crate::controller_verilog)).
    pub sync_states: BTreeMap<StateId, SyncOp>,
}

impl Fsm {
    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` when the FSM has no states (never produced by `build_fsm`).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Checks that every transition target exists, every guard tests a
    /// flag in [`Fsm::flags`], every state (except `done`) has at least
    /// one transition, and every state's signal indices ascend within
    /// [`Fsm::signals`].
    ///
    /// # Errors
    ///
    /// Returns [`CtrlError::MalformedFsm`] on the first violation.
    pub fn validate(&self) -> Result<(), CtrlError> {
        for (i, s) in self.states.iter().enumerate() {
            let ascending = s.signals.windows(2).all(|w| w[0] < w[1]);
            if !ascending || s.signals.last().is_some_and(|&x| x >= self.signals.len()) {
                return Err(CtrlError::MalformedFsm {
                    detail: format!("state `{}` has a malformed signal set", s.name),
                });
            }
            if s.transitions.is_empty() && i != self.done {
                return Err(CtrlError::MalformedFsm {
                    detail: format!("state `{}` has no transitions", s.name),
                });
            }
            for t in &s.transitions {
                if t.to >= self.states.len() {
                    return Err(CtrlError::MalformedFsm {
                        detail: format!("state `{}` jumps out of range", s.name),
                    });
                }
                if let Cond::IsTrue(f) | Cond::IsFalse(f) = &t.cond {
                    if !self.flags.contains(f) {
                        return Err(unknown_flag(s, f));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The error for a guard on a flag missing from [`Fsm::flags`].
pub(crate) fn unknown_flag(state: &State, flag: &str) -> CtrlError {
    CtrlError::MalformedFsm {
        detail: format!("state `{}` tests unknown flag `{flag}`", state.name),
    }
}

/// Builds the controller for a scheduled, bound behavior: each state
/// asserts the signals allocation recorded for its control step.
///
/// `classifier` is unused — allocation already resolved every source —
/// and stays in the signature for existing callers.
///
/// # Errors
///
/// Returns [`CtrlError::MissingBinding`] when `datapath` lacks a block the
/// control tree references.
pub fn build_fsm(
    cdfg: &Cdfg,
    schedule: &CdfgSchedule,
    datapath: &Datapath,
    _classifier: &OpClassifier,
) -> Result<Fsm, CtrlError> {
    let mut b = Builder {
        cdfg,
        schedule,
        datapath,
        index: vec![None; datapath.signals.len()],
        fsm: Fsm::default(),
    };
    let (entry, exits) = b.emit_region(cdfg.body())?;
    // Terminal state.
    let done = b.fsm.states.len();
    b.fsm.states.push(State {
        name: "done".to_string(),
        signals: Vec::new(),
        transitions: vec![Transition {
            cond: Cond::Always,
            to: done,
        }],
    });
    for (state, cond) in exits {
        b.fsm.states[state]
            .transitions
            .push(Transition { cond, to: done });
    }
    b.fsm.initial = entry.unwrap_or(done);
    b.fsm.done = done;
    let fsm = b.fsm;
    fsm.validate()?;
    Ok(fsm)
}

/// A condition block is emitted with a forced state, so it always has one.
fn no_condition_state() -> CtrlError {
    CtrlError::MalformedFsm {
        detail: "condition block emitted no state".to_string(),
    }
}

struct Builder<'a> {
    cdfg: &'a Cdfg,
    schedule: &'a CdfgSchedule,
    datapath: &'a Datapath,
    /// Per entry of the datapath's signal table, its position in
    /// `fsm.signals` once a state asserts it.
    index: Vec<Option<usize>>,
    fsm: Fsm,
}

type Exits = Vec<(StateId, Cond)>;

impl Builder<'_> {
    /// Emits states for a region; returns its entry state and the dangling
    /// exits to patch into whatever follows.
    fn emit_region(&mut self, region: &Region) -> Result<(Option<StateId>, Exits), CtrlError> {
        match region {
            // Sync blocks always materialize at least one state: the
            // controller needs somewhere to park while it waits for the
            // rendezvous or mutex grant.
            Region::Block(b) => self.emit_block(*b, self.cdfg.block(*b).sync.is_some()),
            Region::Seq(rs) => {
                let mut entry = None;
                let mut exits: Exits = Vec::new();
                for r in rs {
                    let (e, x) = self.emit_region(r)?;
                    if let Some(e) = e {
                        for (state, cond) in exits.drain(..) {
                            self.fsm.states[state]
                                .transitions
                                .push(Transition { cond, to: e });
                        }
                        if entry.is_none() {
                            entry = Some(e);
                        }
                        exits = x;
                    } else {
                        // Empty piece: keep the previous exits dangling.
                        debug_assert!(x.is_empty());
                    }
                }
                Ok((entry, exits))
            }
            Region::Loop(l) => match (l.kind, l.cond_block) {
                (LoopKind::DoUntil, _) => {
                    let (entry, body_exits) = self.emit_region(&l.body)?;
                    let Some(entry) = entry else {
                        return Ok((None, Vec::new()));
                    };
                    let mut exits = Vec::new();
                    for (state, _) in body_exits {
                        self.fsm.states[state].transitions.push(Transition {
                            cond: Cond::IsFalse(l.exit_var.clone()),
                            to: entry,
                        });
                        exits.push((state, Cond::IsTrue(l.exit_var.clone())));
                    }
                    self.fsm.flags.insert(l.exit_var.clone());
                    Ok((Some(entry), exits))
                }
                (LoopKind::While, cond_block) => {
                    let cb = cond_block.ok_or_else(|| CtrlError::MalformedFsm {
                        detail: "while loop without a condition block".to_string(),
                    })?;
                    let (centry, cexits) = self.emit_block(cb, true)?;
                    let centry = centry.ok_or_else(no_condition_state)?;
                    let (bentry, bexits) = self.emit_region(&l.body)?;
                    let btarget = bentry.unwrap_or(centry);
                    let mut exits = Vec::new();
                    for (state, _) in cexits {
                        self.fsm.states[state].transitions.push(Transition {
                            cond: Cond::IsTrue(l.exit_var.clone()),
                            to: btarget,
                        });
                        exits.push((state, Cond::IsFalse(l.exit_var.clone())));
                    }
                    for (state, cond) in bexits {
                        self.fsm.states[state]
                            .transitions
                            .push(Transition { cond, to: centry });
                    }
                    self.fsm.flags.insert(l.exit_var.clone());
                    Ok((Some(centry), exits))
                }
            },
            Region::If(i) => {
                let (centry, cexits) = self.emit_block(i.cond_block, true)?;
                let centry = centry.ok_or_else(no_condition_state)?;
                let (tentry, mut texits) = self.emit_region(&i.then_region)?;
                let (eentry, eexits) = match &i.else_region {
                    Some(e) => self.emit_region(e)?,
                    None => (None, Vec::new()),
                };
                self.fsm.flags.insert(i.cond_var.clone());
                let mut exits: Exits = Vec::new();
                for (state, _) in cexits {
                    match tentry {
                        Some(t) => self.fsm.states[state].transitions.push(Transition {
                            cond: Cond::IsTrue(i.cond_var.clone()),
                            to: t,
                        }),
                        None => exits.push((state, Cond::IsTrue(i.cond_var.clone()))),
                    }
                    match eentry {
                        Some(e) => self.fsm.states[state].transitions.push(Transition {
                            cond: Cond::IsFalse(i.cond_var.clone()),
                            to: e,
                        }),
                        None => exits.push((state, Cond::IsFalse(i.cond_var.clone()))),
                    }
                }
                exits.append(&mut texits);
                exits.extend(eexits);
                Ok((Some(centry), exits))
            }
        }
    }

    /// Emits the chain of states for one block. `force_state` materializes
    /// an idle state even when the block schedules zero steps (condition
    /// blocks must branch from somewhere).
    fn emit_block(
        &mut self,
        block: BlockId,
        force_state: bool,
    ) -> Result<(Option<StateId>, Exits), CtrlError> {
        let cdfg = self.cdfg;
        let name = &cdfg.block(block).name;
        let missing = || CtrlError::MissingBinding {
            block: name.clone(),
        };
        let steps = self.schedule.block(block).ok_or_else(missing)?.num_steps();
        let binding = self.datapath.blocks.get(&block).ok_or_else(missing)?;
        if steps == 0 && !force_state {
            return Ok((None, Vec::new()));
        }
        let first = self.fsm.states.len();
        for step in 0..steps.max(1) {
            let recorded: &[usize] = binding
                .signals
                .get(step as usize)
                .map_or(&[], Vec::as_slice);
            let mut signals = Vec::with_capacity(recorded.len());
            for &entry in recorded {
                let (Some(slot), Some(signal)) =
                    (self.index.get_mut(entry), self.datapath.signals.get(entry))
                else {
                    return Err(missing());
                };
                signals.push(*slot.get_or_insert_with(|| {
                    self.fsm.signals.push(signal.clone());
                    self.fsm.signals.len() - 1
                }));
            }
            signals.sort_unstable();
            signals.dedup();
            let id = self.fsm.states.len();
            self.fsm.states.push(State {
                name: format!("{name}.s{step}"),
                signals,
                transitions: Vec::new(),
            });
            if id > first {
                self.fsm.states[id - 1].transitions.push(Transition {
                    cond: Cond::Always,
                    to: id,
                });
            }
        }
        let last = self.fsm.states.len() - 1;
        if let Some(sync) = &cdfg.block(block).sync {
            self.fsm.sync_states.insert(last, sync.clone());
        }
        Ok((Some(first), vec![(last, Cond::Always)]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_alloc::{build_datapath, FuStrategy};
    use hls_rtl::Library;
    use hls_sched::{schedule_cdfg, Algorithm, Priority, ResourceLimits};

    fn sqrt_fsm() -> Fsm {
        let mut cdfg = hls_lang::compile(hls_workloads::sources::SQRT).unwrap();
        hls_opt::optimize(&mut cdfg);
        let cls = OpClassifier::universal_free_shifts();
        let limits = ResourceLimits::universal(2);
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
        build_fsm(&cdfg, &sched, &dp, &cls).unwrap()
    }

    #[test]
    fn sqrt_controller_has_one_state_per_step_plus_done() {
        let fsm = sqrt_fsm();
        // Optimized sqrt: entry 2 steps + body 2 steps + done.
        assert_eq!(fsm.len(), 5);
        fsm.validate().unwrap();
        assert!(fsm.flags.iter().any(|f| f.starts_with("%exit")));
    }

    #[test]
    fn loop_back_edge_present() {
        let fsm = sqrt_fsm();
        // Some state branches back to an earlier state on the exit flag.
        let has_backedge = fsm.states.iter().enumerate().any(|(i, s)| {
            s.transitions
                .iter()
                .any(|t| t.to < i && matches!(t.cond, Cond::IsFalse(_)))
        });
        assert!(has_backedge, "{:#?}", fsm.states);
    }

    #[test]
    fn done_state_self_loops() {
        let fsm = sqrt_fsm();
        let done = &fsm.states[fsm.done];
        assert_eq!(
            done.transitions,
            vec![Transition {
                cond: Cond::Always,
                to: fsm.done
            }]
        );
    }

    #[test]
    fn signals_cover_fu_ops_and_reg_loads() {
        let fsm = sqrt_fsm();
        let sigs = &fsm.signals;
        assert!(
            sigs.iter().any(|s| matches!(
                s,
                Signal::FuOp {
                    kind: hls_cdfg::OpKind::Div,
                    ..
                }
            )),
            "a divide signal: {sigs:?}"
        );
        assert!(
            sigs.iter().any(|s| matches!(s, Signal::Load { .. })),
            "register loads: {sigs:?}"
        );
        // The table holds exactly the signals some state asserts.
        let asserted: BTreeSet<usize> = fsm.states.iter().flat_map(|s| s.signals.clone()).collect();
        assert_eq!(asserted, (0..sigs.len()).collect());
    }

    #[test]
    fn malformed_signal_sets_are_rejected() {
        for bad in [vec![1, 0], vec![0, 0], vec![usize::MAX]] {
            let mut fsm = sqrt_fsm();
            fsm.states[0].signals = bad;
            let err = fsm.validate().unwrap_err();
            assert!(
                matches!(&err, CtrlError::MalformedFsm { detail } if detail.contains("malformed signal set")),
                "{err}"
            );
        }
    }

    #[test]
    fn guard_on_unknown_flag_is_malformed() {
        let mut fsm = sqrt_fsm();
        let guarded = fsm
            .states
            .iter_mut()
            .flat_map(|s| s.transitions.iter_mut())
            .find(|t| t.cond != Cond::Always)
            .expect("sqrt loops on a flag");
        guarded.cond = Cond::IsTrue("%nowhere".to_string());
        let err = fsm.validate().unwrap_err();
        assert!(
            matches!(&err, CtrlError::MalformedFsm { detail } if detail.contains("unknown flag `%nowhere`")),
            "{err}"
        );
        assert_eq!(
            crate::hardwired_logic(&fsm, crate::EncodingStyle::Binary).unwrap_err(),
            err
        );
    }

    #[test]
    fn gcd_controller_branches() {
        let cdfg = hls_lang::compile(hls_workloads::sources::GCD).unwrap();
        let cls = OpClassifier::universal();
        let limits = ResourceLimits::universal(1);
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
        let fsm = build_fsm(&cdfg, &sched, &dp, &cls).unwrap();
        fsm.validate().unwrap();
        // While + if: at least two distinct flags.
        assert!(fsm.flags.len() >= 2, "{:?}", fsm.flags);
        // Some state has both a true- and a false-guarded transition.
        assert!(fsm.states.iter().any(|s| {
            s.transitions
                .iter()
                .any(|t| matches!(t.cond, Cond::IsTrue(_)))
                && s.transitions
                    .iter()
                    .any(|t| matches!(t.cond, Cond::IsFalse(_)))
        }));
    }
}
