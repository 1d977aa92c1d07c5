//! State encoding and hardwired control-logic estimation.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::fsm::{unknown_flag, Cond, Fsm};
use crate::logic::{DontCares, MAX_INPUTS};
use crate::CtrlError;

/// The state-encoding style.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EncodingStyle {
    /// Dense binary (`ceil(log2 n)` flip-flops).
    Binary,
    /// One flip-flop per state.
    OneHot,
    /// Gray code (single-bit transitions along the main sequence).
    Gray,
}

impl EncodingStyle {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EncodingStyle::Binary => "binary",
            EncodingStyle::OneHot => "one-hot",
            EncodingStyle::Gray => "gray",
        }
    }
}

/// A state assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Encoding {
    /// Style used.
    pub style: EncodingStyle,
    /// State-register width in flip-flops.
    pub bits: u32,
    /// Code per state.
    pub codes: Vec<u64>,
}

/// Encodes the states of `fsm`.
pub fn encode_states(fsm: &Fsm, style: EncodingStyle) -> Encoding {
    let n = fsm.len().max(1);
    match style {
        EncodingStyle::Binary => {
            let bits = (usize::BITS - (n - 1).leading_zeros()).max(1);
            Encoding {
                style,
                bits,
                codes: (0..n as u64).collect(),
            }
        }
        EncodingStyle::OneHot => Encoding {
            style,
            bits: n as u32,
            codes: (0..n as u32).map(|i| 1u64.wrapping_shl(i)).collect(),
        },
        EncodingStyle::Gray => {
            let bits = (usize::BITS - (n - 1).leading_zeros()).max(1);
            Encoding {
                style,
                bits,
                codes: (0..n as u64).map(|i| i ^ (i >> 1)).collect(),
            }
        }
    }
}

/// Size estimate of a hardwired controller after two-level minimization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HardwiredReport {
    /// Encoding used.
    pub style: EncodingStyle,
    /// State flip-flops.
    pub state_bits: u32,
    /// Distinct control outputs.
    pub outputs: usize,
    /// Total product terms across all output/next-state functions.
    pub terms: usize,
    /// Total literals — the AND-plane area proxy.
    pub literals: u64,
}

/// Maximum care+don't-care minterms handed to Quine–McCluskey per output;
/// larger functions fall back to an unminimized estimate, as do
/// functions of more than [`MAX_INPUTS`] state and flag bits.
const EXACT_MINTERM_LIMIT: usize = 600;

/// Synthesizes the hardwired control logic: next-state and output
/// functions of the encoded FSM, each minimized with Quine–McCluskey.
///
/// Inputs to every function are the state bits plus the condition flags.
/// Every on-set is built in one pass over the states, indexed by the
/// FSM's signal table; flags are interned to indices. All functions
/// share one [`DontCares`] lattice (the unused state codes), and
/// functions with the same on-set are minimized once.
///
/// # Errors
///
/// Returns [`CtrlError::MalformedFsm`] if the FSM fails validation.
pub fn hardwired_logic(fsm: &Fsm, style: EncodingStyle) -> Result<HardwiredReport, CtrlError> {
    fsm.validate()?;
    let enc = encode_states(fsm, style);
    let inputs = enc.bits + fsm.flags.len() as u32;
    let flag_index: BTreeMap<&str, u32> = fsm
        .flags
        .iter()
        .zip(0..)
        .map(|(f, i)| (f.as_str(), i))
        .collect();
    // On-sets of the next-state bits and the outputs. A truth row's input
    // vector is the state code with the flags above it; a state has one
    // row per value of the flags its own guards test, and reads the other
    // flags as 0.
    let mut next_on: Vec<Vec<u64>> = vec![Vec::new(); enc.bits as usize];
    // One output per signal-table entry, in table order; the totals do
    // not depend on the order.
    let mut out_on: Vec<Vec<u64>> = vec![Vec::new(); fsm.signals.len()];
    // The shifts wrap: the one-hot codes of more than 64 states do not
    // fit a `u64`. Such controllers are past `MAX_INPUTS`, so only their
    // on-set sizes count, and the wrapping keeps them from panicking.
    for (s, state) in fsm.states.iter().enumerate() {
        // Guards as (flag, required value), `None` for always.
        let mut guards = Vec::with_capacity(state.transitions.len());
        for t in &state.transitions {
            let guard = match &t.cond {
                Cond::Always => None,
                Cond::IsTrue(f) | Cond::IsFalse(f) => {
                    let i = flag_index
                        .get(f.as_str())
                        .copied()
                        .ok_or_else(|| unknown_flag(state, f))?;
                    Some((i, matches!(t.cond, Cond::IsTrue(_))))
                }
            };
            guards.push((guard, t.to));
        }
        let tested: BTreeSet<u32> = guards.iter().filter_map(|(g, _)| g.map(|g| g.0)).collect();
        for combo in 0..1u64 << tested.len() {
            let flag_bits = tested
                .iter()
                .enumerate()
                .filter(|&(k, _)| combo >> k & 1 == 1)
                .fold(0u64, |bits, (_, &f)| bits | 1u64.wrapping_shl(f));
            let next = guards
                .iter()
                .find(|(g, _)| g.is_none_or(|(f, v)| (flag_bits.wrapping_shr(f) & 1 == 1) == v))
                .map_or(s, |&(_, to)| to);
            let input = enc.codes[s] | flag_bits.wrapping_shl(enc.bits);
            let next_code = enc.codes[next];
            for (bit, on) in (0..).zip(next_on.iter_mut()) {
                if next_code.wrapping_shr(bit) & 1 == 1 {
                    on.push(input);
                }
            }
            for &i in &state.signals {
                out_on[i].push(input);
            }
        }
    }

    // A table entry no state asserts is no output.
    out_on.retain(|on| !on.is_empty());

    // Don't-care set: unused state codes (all flag combinations).
    let mut dc = Vec::new();
    if inputs <= MAX_INPUTS && (1u64 << enc.bits) <= 4 * enc.codes.len() as u64 {
        let used: BTreeSet<u64> = enc.codes.iter().copied().collect();
        for code in (0..1u64 << enc.bits).filter(|c| !used.contains(c)) {
            for fb in 0..1u64 << fsm.flags.len() {
                dc.push(code | fb << enc.bits);
            }
        }
    }
    let mut dont_cares = DontCares::new(inputs, &dc);

    // Rows are visited in one fixed order, so equal on-sets are equal
    // slices and the memo needs no canonicalization.
    let mut memo: HashMap<&[u64], Option<(usize, u64)>> = HashMap::new();
    let (mut terms, mut literals) = (0usize, 0u64);
    for on in next_on.iter().chain(&out_on) {
        let exact = if on.len() + dc.len() <= EXACT_MINTERM_LIMIT {
            *memo.entry(on).or_insert_with(|| {
                dont_cares
                    .minimize(on)
                    .map(|c| (c.terms(), u64::from(c.literals())))
            })
        } else {
            None
        };
        // Unminimized sum-of-minterms estimate.
        let (t, l) = exact.unwrap_or((on.len(), on.len() as u64 * u64::from(inputs)));
        terms += t;
        literals += l;
    }

    Ok(HardwiredReport {
        style,
        state_bits: enc.bits,
        outputs: out_on.len(),
        terms,
        literals,
    })
}

/// Compares encodings on the same FSM, for experiment E13.
pub fn compare_encodings(fsm: &Fsm) -> Result<BTreeMap<&'static str, HardwiredReport>, CtrlError> {
    let mut out = BTreeMap::new();
    for style in [
        EncodingStyle::Binary,
        EncodingStyle::OneHot,
        EncodingStyle::Gray,
    ] {
        out.insert(style.name(), hardwired_logic(fsm, style)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsm::{State, Transition};
    use hls_alloc::{Signal, Source};
    use hls_cdfg::OpKind;

    /// A 4-state counter FSM with one looping guard, asserting three
    /// signals: load r0 (0), add on fu0 (1) and load r1 (2).
    fn small_fsm() -> Fsm {
        let mk = |name: &str, signals: &[usize], trans: Vec<Transition>| State {
            name: name.to_string(),
            signals: signals.to_vec(),
            transitions: trans,
        };
        let load = |reg| Signal::Load {
            reg,
            src: Source::Fu(0),
        };
        let add = Signal::FuOp {
            fu: 0,
            kind: OpKind::Add,
        };
        Fsm {
            states: vec![
                mk(
                    "s0",
                    &[0],
                    vec![Transition {
                        cond: Cond::Always,
                        to: 1,
                    }],
                ),
                mk(
                    "s1",
                    &[1, 2],
                    vec![Transition {
                        cond: Cond::Always,
                        to: 2,
                    }],
                ),
                mk(
                    "s2",
                    &[1],
                    vec![
                        Transition {
                            cond: Cond::IsFalse("done".into()),
                            to: 0,
                        },
                        Transition {
                            cond: Cond::IsTrue("done".into()),
                            to: 3,
                        },
                    ],
                ),
                mk(
                    "s3",
                    &[],
                    vec![Transition {
                        cond: Cond::Always,
                        to: 3,
                    }],
                ),
            ],
            initial: 0,
            done: 3,
            flags: BTreeSet::from(["done".to_string()]),
            signals: vec![load(0), add, load(1)],
            sync_states: Default::default(),
        }
    }

    #[test]
    fn encoding_widths() {
        let fsm = small_fsm();
        assert_eq!(encode_states(&fsm, EncodingStyle::Binary).bits, 2);
        assert_eq!(encode_states(&fsm, EncodingStyle::OneHot).bits, 4);
        let gray = encode_states(&fsm, EncodingStyle::Gray);
        assert_eq!(gray.bits, 2);
        assert_eq!(gray.codes, vec![0b00, 0b01, 0b11, 0b10]);
    }

    #[test]
    fn one_hot_codes_are_distinct_powers() {
        let enc = encode_states(&small_fsm(), EncodingStyle::OneHot);
        for (i, c) in enc.codes.iter().enumerate() {
            assert_eq!(*c, 1 << i);
        }
    }

    #[test]
    fn hardwired_reports_positive_sizes() {
        let fsm = small_fsm();
        let r = hardwired_logic(&fsm, EncodingStyle::Binary).unwrap();
        assert_eq!(r.state_bits, 2);
        assert_eq!(r.outputs, 3, "two loads and an add");
        assert!(r.terms > 0);
        assert!(r.literals > 0);
    }

    #[test]
    fn unasserted_table_entries_are_no_outputs() {
        let mut fsm = small_fsm();
        let before = hardwired_logic(&fsm, EncodingStyle::Binary).unwrap();
        fsm.signals.push(Signal::FuOp {
            fu: 1,
            kind: OpKind::Mul,
        });
        assert_eq!(
            hardwired_logic(&fsm, EncodingStyle::Binary).unwrap(),
            before
        );
    }

    #[test]
    fn compare_encodings_covers_all_styles() {
        let fsm = small_fsm();
        let map = compare_encodings(&fsm).unwrap();
        assert_eq!(map.len(), 3);
        // One-hot spends more flip-flops.
        assert!(map["one-hot"].state_bits > map["binary"].state_bits);
    }

    #[test]
    fn real_sqrt_controller_encodes() {
        let mut cdfg = hls_lang::compile(hls_workloads::sources::SQRT).unwrap();
        hls_opt::optimize(&mut cdfg);
        let cls = hls_sched::OpClassifier::universal_free_shifts();
        let limits = hls_sched::ResourceLimits::universal(2);
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
        let map = compare_encodings(&fsm).unwrap();
        for (style, r) in &map {
            assert!(r.literals > 0, "{style}");
        }
    }
}
