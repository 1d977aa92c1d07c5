//! FSM state minimization by partition refinement.

use std::collections::{BTreeMap, HashMap};

use crate::fsm::{Cond, Fsm, State, Transition};

/// The result of state minimization.
#[derive(Clone, Debug)]
pub struct MinimizedFsm {
    /// The reduced machine.
    pub fsm: Fsm,
    /// Old state → new state.
    pub mapping: Vec<usize>,
    /// States removed.
    pub removed: usize,
}

/// Merges equivalent states: two states are equivalent when they assert
/// the same signals and, under every condition, transition to equivalent
/// states (Moore-machine partition refinement).
pub fn minimize_states(fsm: &Fsm) -> MinimizedFsm {
    // Initial partition key: (asserted signals, transition guard
    // structure, sync op).
    type InitKey<'a> = (&'a [usize], Vec<String>, Option<&'a hls_cdfg::SyncOp>);
    let n = fsm.states.len();
    let mut class: Vec<usize> = vec![0; n];
    {
        let mut key_to_class: HashMap<InitKey, usize> = HashMap::new();
        for (i, s) in fsm.states.iter().enumerate() {
            let guards: Vec<String> = s.transitions.iter().map(|t| cond_key(&t.cond)).collect();
            // A sync (handshake) state may only merge with a state that
            // performs the same handshake.
            let sync = fsm.sync_states.get(&i);
            let next = key_to_class.len();
            let c = *key_to_class
                .entry((&s.signals, guards, sync))
                .or_insert(next);
            class[i] = c;
        }
    }
    // Refine until stable.
    loop {
        let mut key_to_class: HashMap<(usize, Vec<(String, usize)>), usize> = HashMap::new();
        let mut next_class: Vec<usize> = vec![0; n];
        for (i, s) in fsm.states.iter().enumerate() {
            let sig: Vec<(String, usize)> = s
                .transitions
                .iter()
                .map(|t| (cond_key(&t.cond), class[t.to]))
                .collect();
            let fresh = key_to_class.len();
            let c = *key_to_class.entry((class[i], sig)).or_insert(fresh);
            next_class[i] = c;
        }
        if next_class == class {
            break;
        }
        class = next_class;
    }

    // Renumber classes by first occurrence, build the reduced machine.
    let mut repr: BTreeMap<usize, usize> = BTreeMap::new(); // class -> new id
    let mut mapping = vec![0usize; n];
    let mut new_states: Vec<State> = Vec::new();
    for (i, s) in fsm.states.iter().enumerate() {
        let new_id = *repr.entry(class[i]).or_insert_with(|| {
            new_states.push(State {
                name: s.name.clone(),
                signals: s.signals.clone(),
                transitions: Vec::new(),
            });
            new_states.len() - 1
        });
        mapping[i] = new_id;
    }
    for (i, s) in fsm.states.iter().enumerate() {
        let new_id = mapping[i];
        if new_states[new_id].transitions.is_empty() {
            new_states[new_id].transitions = s
                .transitions
                .iter()
                .map(|t| Transition {
                    cond: t.cond.clone(),
                    to: mapping[t.to],
                })
                .collect();
        }
    }
    let removed = n - new_states.len();
    let sync_states = fsm
        .sync_states
        .iter()
        .map(|(&s, op)| (mapping[s], op.clone()))
        .collect();
    MinimizedFsm {
        fsm: Fsm {
            states: new_states,
            initial: mapping[fsm.initial],
            done: mapping[fsm.done],
            flags: fsm.flags.clone(),
            signals: fsm.signals.clone(),
            sync_states,
        },
        mapping,
        removed,
    }
}

fn cond_key(c: &Cond) -> String {
    match c {
        Cond::Always => "1".to_string(),
        Cond::IsTrue(v) => format!("+{v}"),
        Cond::IsFalse(v) => format!("-{v}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_alloc::Signal;
    use hls_cdfg::OpKind;
    use std::collections::BTreeSet;

    fn state(name: &str, signals: &[usize], trans: Vec<Transition>) -> State {
        State {
            name: name.to_string(),
            signals: signals.to_vec(),
            transitions: trans,
        }
    }

    /// A signal table of `n` distinct FU operations.
    fn table(n: usize) -> Vec<Signal> {
        (0..n)
            .map(|fu| Signal::FuOp {
                fu,
                kind: OpKind::Add,
            })
            .collect()
    }

    #[test]
    fn merges_identical_tail_states() {
        // s1 and s2 are identical (same signals, both go to done).
        let fsm = Fsm {
            states: vec![
                state(
                    "s0",
                    &[0],
                    vec![
                        Transition {
                            cond: Cond::IsTrue("f".into()),
                            to: 1,
                        },
                        Transition {
                            cond: Cond::IsFalse("f".into()),
                            to: 2,
                        },
                    ],
                ),
                state(
                    "s1",
                    &[1],
                    vec![Transition {
                        cond: Cond::Always,
                        to: 3,
                    }],
                ),
                state(
                    "s2",
                    &[1],
                    vec![Transition {
                        cond: Cond::Always,
                        to: 3,
                    }],
                ),
                state(
                    "done",
                    &[],
                    vec![Transition {
                        cond: Cond::Always,
                        to: 3,
                    }],
                ),
            ],
            initial: 0,
            done: 3,
            flags: BTreeSet::from(["f".to_string()]),
            signals: table(2),
            sync_states: Default::default(),
        };
        let m = minimize_states(&fsm);
        assert_eq!(m.removed, 1);
        assert_eq!(m.fsm.len(), 3);
        assert_eq!(m.mapping[1], m.mapping[2]);
        m.fsm.validate().unwrap();
    }

    #[test]
    fn distinguishes_by_successor() {
        // Same signals but different successors: not merged.
        let fsm = Fsm {
            states: vec![
                state(
                    "s0",
                    &[0],
                    vec![Transition {
                        cond: Cond::Always,
                        to: 1,
                    }],
                ),
                state(
                    "s1",
                    &[0],
                    vec![Transition {
                        cond: Cond::Always,
                        to: 2,
                    }],
                ),
                state(
                    "s2",
                    &[1],
                    vec![Transition {
                        cond: Cond::Always,
                        to: 3,
                    }],
                ),
                state(
                    "done",
                    &[],
                    vec![Transition {
                        cond: Cond::Always,
                        to: 3,
                    }],
                ),
            ],
            initial: 0,
            done: 3,
            flags: BTreeSet::new(),
            signals: table(2),
            sync_states: Default::default(),
        };
        let m = minimize_states(&fsm);
        assert_eq!(m.removed, 0);
    }

    #[test]
    fn idempotent() {
        let fsm = Fsm {
            states: vec![
                state(
                    "s0",
                    &[],
                    vec![Transition {
                        cond: Cond::Always,
                        to: 1,
                    }],
                ),
                state(
                    "s1",
                    &[],
                    vec![Transition {
                        cond: Cond::Always,
                        to: 1,
                    }],
                ),
            ],
            initial: 0,
            done: 1,
            flags: BTreeSet::new(),
            signals: Vec::new(),
            sync_states: Default::default(),
        };
        let once = minimize_states(&fsm);
        let twice = minimize_states(&once.fsm);
        assert_eq!(twice.removed, 0);
    }

    #[test]
    fn real_controller_minimization_is_safe() {
        let cdfg = hls_lang::compile(hls_workloads::sources::GCD).unwrap();
        let cls = hls_sched::OpClassifier::universal();
        let limits = hls_sched::ResourceLimits::universal(1);
        let sched = hls_sched::schedule_cdfg(
            &cdfg,
            &cls,
            &limits,
            hls_sched::Algorithm::List(hls_sched::Priority::PathLength),
        )
        .unwrap();
        let dp = hls_alloc::build_datapath(
            &cdfg,
            &sched,
            &cls,
            &hls_rtl::Library::standard(),
            hls_alloc::FuStrategy::GreedyAware,
        )
        .unwrap();
        let fsm = crate::build_fsm(&cdfg, &sched, &dp, &cls).unwrap();
        let m = minimize_states(&fsm);
        m.fsm.validate().unwrap();
        assert!(m.fsm.len() <= fsm.len());
        assert!(m.fsm.len() >= 2);
    }
}
