//! Microcoded control.
//!
//! "If microcoded control is chosen instead, a control step corresponds to
//! a microprogram step and the microprogram can be optimized using
//! encoding techniques for the microcontrol word" (§2). We generate a
//! microprogram from the FSM and report both the *horizontal* (one bit per
//! signal) and *field-encoded* word formats, where mutually exclusive
//! signals share an encoded field — a greedy first-fit coloring of the
//! asserted-together conflict graph.
//!
//! The conflict graph is never built: it has a clique per state, so a
//! state asserting `k` signals would contribute `k²/2` edges. Signals are
//! visited in name order (each FSM signal rendered once, all into one
//! buffer whose slices are sorted), and each state
//! keeps a bitset of the fields its signals already use. A field is closed to a signal exactly when a
//! state asserting the signal uses it, so the first field missing from
//! the union of those bitsets is the first field in which no earlier
//! member conflicts — the field the all-pairs first-fit scan picks.

use std::fmt::Write as _;

use crate::fsm::{Cond, Fsm, State};

/// One microinstruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MicroInstruction {
    /// Source state name.
    pub name: String,
    /// Asserted signals: ascending indices into [`Microprogram::signals`],
    /// so in name order.
    pub signals: Vec<usize>,
    /// Branch: `(flag, target-if-true, target-if-false)`; `None` flag
    /// means an unconditional jump to the first target.
    pub branch: (Option<String>, usize, usize),
}

/// A complete microprogram with format statistics.
#[derive(Clone, Debug)]
pub struct Microprogram {
    /// The instructions, one per FSM state.
    pub rom: Vec<MicroInstruction>,
    /// The names of all distinct asserted signals, in name order (the
    /// order first-fit visits them).
    pub signals: Vec<String>,
    /// Encoded fields: groups of mutually exclusive signals, as indices
    /// into [`Microprogram::signals`].
    pub fields: Vec<Vec<usize>>,
    /// Address width in bits.
    pub addr_bits: u32,
}

impl Microprogram {
    /// Horizontal control-word width: one bit per signal plus the branch
    /// section (flag select + two addresses).
    pub fn horizontal_width(&self) -> u32 {
        self.signals.len() as u32 + self.branch_bits()
    }

    /// Field-encoded width: `ceil(log2(|field|+1))` bits per field (the
    /// +1 encodes "none asserted") plus the branch section.
    pub fn encoded_width(&self) -> u32 {
        let field_bits: u32 = self
            .fields
            .iter()
            .map(|f| {
                let options = f.len() as u64 + 1;
                (64 - (options - 1).leading_zeros()).max(1)
            })
            .sum();
        field_bits + self.branch_bits()
    }

    fn branch_bits(&self) -> u32 {
        // Flag select (log2 of flags+1) + two target addresses.
        let mut flags: Vec<&str> = self
            .rom
            .iter()
            .filter_map(|m| m.branch.0.as_deref())
            .collect();
        flags.sort_unstable();
        flags.dedup();
        let flag_bits = (64 - (flags.len() as u64).leading_zeros()).max(1);
        flag_bits + 2 * self.addr_bits
    }

    /// Total ROM bits under the horizontal format.
    pub fn horizontal_rom_bits(&self) -> u64 {
        self.rom.len() as u64 * self.horizontal_width() as u64
    }

    /// Total ROM bits under the field-encoded format.
    pub fn encoded_rom_bits(&self) -> u64 {
        self.rom.len() as u64 * self.encoded_width() as u64
    }
}

/// Generates the microprogram for `fsm`.
///
/// FSM states with more than one guarded transition map onto conditional
/// branch microinstructions; the first two transitions are used (the
/// structured control tree never produces more than a two-way decision
/// plus the fall-through).
///
/// # Panics
///
/// When a state asserts a signal index outside [`Fsm::signals`], which
/// [`Fsm::validate`] rejects.
pub fn microcode(fsm: &Fsm) -> Microprogram {
    let n = fsm.len().max(1);
    let addr_bits = (usize::BITS - (n - 1).leading_zeros()).max(1);
    let (signals, fields, rank) = encode_fields(fsm);
    let rom: Vec<MicroInstruction> = fsm
        .states
        .iter()
        .map(|s| {
            let mut signals: Vec<usize> = s.signals.iter().map(|&i| rank[i]).collect();
            signals.sort_unstable();
            MicroInstruction {
                name: s.name.clone(),
                signals,
                branch: branch_of(s),
            }
        })
        .collect();
    Microprogram {
        rom,
        signals,
        fields,
        addr_bits,
    }
}

/// Every distinct asserted signal's name in name order; the fields
/// first-fit packs them into (each signal joins the lowest field holding
/// no signal it is asserted together with, or opens a new one); and each
/// FSM signal's position in the name order.
fn encode_fields(fsm: &Fsm) -> (Vec<String>, Vec<Vec<usize>>, Vec<usize>) {
    let n = fsm.signals.len();
    // The states asserting each signal, ascending (a counting sort):
    // signal `id`'s are `in_states[first[id]..first[id + 1]]`.
    let mut first = vec![0usize; n + 1];
    for &id in fsm.states.iter().flat_map(|s| &s.signals) {
        first[id + 1] += 1;
    }
    for id in 0..n {
        first[id + 1] += first[id];
    }
    let mut next = first.clone();
    let mut in_states = vec![0; first[n]];
    for (state, s) in fsm.states.iter().enumerate() {
        for &id in &s.signals {
            in_states[next[id]] = state;
            next[id] += 1;
        }
    }
    let asserted_in = |id: usize| in_states[first[id]..first[id + 1]].iter().copied();
    // Every signal's name, rendered once into one buffer.
    let mut text = String::new();
    let mut ends = Vec::with_capacity(n);
    for signal in &fsm.signals {
        let _ = write!(text, "{signal}");
        ends.push(text.len());
    }
    let name = |id: usize| &text[if id == 0 { 0 } else { ends[id - 1] }..ends[id]];
    let mut order: Vec<usize> = (0..n).filter(|&id| first[id] < first[id + 1]).collect();
    order.sort_unstable_by(|&a, &b| name(a).cmp(name(b)));
    let mut rank = vec![0; n];
    for (pos, &id) in order.iter().enumerate() {
        rank[id] = pos;
    }

    // `used[state]` has bit `f` set when a signal the state asserts is in
    // field `f`; `closed` is their union over one signal's states.
    let mut used: Vec<Vec<u64>> = vec![Vec::new(); fsm.states.len()];
    let mut closed: Vec<u64> = Vec::new();
    let mut fields: Vec<Vec<usize>> = Vec::new();
    for (pos, &id) in order.iter().enumerate() {
        closed.clear();
        closed.resize(fields.len().div_ceil(64), 0);
        for state in asserted_in(id) {
            for (c, w) in closed.iter_mut().zip(&used[state]) {
                *c |= w;
            }
        }
        // Only fields below `fields.len()` are ever set, so the first
        // open bit is an existing field or the next new one.
        let field = closed
            .iter()
            .position(|&w| w != u64::MAX)
            .map_or(closed.len() * 64, |i| {
                i * 64 + closed[i].trailing_ones() as usize
            });
        if field == fields.len() {
            fields.push(Vec::new());
        }
        fields[field].push(pos);
        let (word, bit) = (field / 64, 1u64 << (field % 64));
        for state in asserted_in(id) {
            let words = &mut used[state];
            if words.len() <= word {
                words.resize(word + 1, 0);
            }
            words[word] |= bit;
        }
    }
    let signals = order.iter().map(|&id| name(id).to_string()).collect();
    (signals, fields, rank)
}

fn branch_of(state: &State) -> (Option<String>, usize, usize) {
    let mut flag = None;
    let mut if_true = None;
    let mut if_false = None;
    let mut fallthrough = None;
    for t in &state.transitions {
        match &t.cond {
            Cond::Always => fallthrough = fallthrough.or(Some(t.to)),
            Cond::IsTrue(v) => {
                flag = Some(v.clone());
                if_true = if_true.or(Some(t.to));
            }
            Cond::IsFalse(v) => {
                flag = Some(v.clone());
                if_false = if_false.or(Some(t.to));
            }
        }
    }
    let default = fallthrough.unwrap_or(0);
    match flag {
        Some(f) => (
            Some(f),
            if_true.unwrap_or(default),
            if_false.unwrap_or(default),
        ),
        None => (None, default, default),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet, HashSet};

    use hls_alloc::{Signal, Source};
    use hls_cdfg::{Cdfg, Fx, OpKind, Region};
    use hls_fuzz::corpus::{Case, Mode};
    use hls_sched::{Algorithm, OpClassifier, Priority, ResourceLimits};
    use hls_testkit::SplitMix64;
    use hls_workloads::random::{random_dag, RandomDagConfig};

    use crate::fsm::Transition;

    const LIST: Algorithm = Algorithm::List(Priority::PathLength);

    /// `src` compiled and optimized, as the default flow prepares it.
    fn optimized(src: &str) -> Cdfg {
        let mut cdfg = hls_lang::compile(src).unwrap();
        hls_opt::optimize(&mut cdfg);
        cdfg
    }

    /// The controller the default flow builds for a prepared `cdfg`
    /// (free constant shifts, GreedyAware binding) on `fus` universal FUs.
    fn fsm_of(cdfg: &Cdfg, fus: usize, algorithm: Algorithm) -> Fsm {
        let cls = OpClassifier::universal_free_shifts();
        let limits = ResourceLimits::universal(fus);
        let sched = hls_sched::schedule_cdfg(cdfg, &cls, &limits, algorithm).unwrap();
        let dp = hls_alloc::build_datapath(
            cdfg,
            &sched,
            &cls,
            &hls_rtl::Library::standard(),
            hls_alloc::FuStrategy::GreedyAware,
        )
        .unwrap();
        crate::build_fsm(cdfg, &sched, &dp, &cls).unwrap()
    }

    fn sqrt_microprogram() -> Microprogram {
        microcode(&fsm_of(&optimized(hls_workloads::sources::SQRT), 2, LIST))
    }

    /// The all-pairs encoder this module used to run, kept as the oracle
    /// for the used-field bitsets: it renders every state's signals to
    /// names, builds the whole conflict graph, then scans every member of
    /// every field for each signal in name order.
    fn reference_microcode(fsm: &Fsm) -> Microprogram {
        let state_names: Vec<BTreeSet<String>> = fsm
            .states
            .iter()
            .map(|s| {
                s.signals
                    .iter()
                    .map(|&i| fsm.signals[i].to_string())
                    .collect()
            })
            .collect();
        let signals: Vec<String> = state_names
            .iter()
            .flatten()
            .cloned()
            .collect::<BTreeSet<String>>()
            .into_iter()
            .collect();
        let position = |name: &String| signals.binary_search(name).unwrap();
        let n = fsm.len().max(1);
        let addr_bits = (usize::BITS - (n - 1).leading_zeros()).max(1);
        let rom: Vec<MicroInstruction> = fsm
            .states
            .iter()
            .zip(&state_names)
            .map(|(s, names)| MicroInstruction {
                name: s.name.clone(),
                signals: names.iter().map(position).collect(),
                branch: branch_of(s),
            })
            .collect();
        let mut conflicts: BTreeMap<&String, BTreeSet<&String>> = BTreeMap::new();
        for names in &state_names {
            let list: Vec<&String> = names.iter().collect();
            for (i, a) in list.iter().enumerate() {
                for b in &list[i + 1..] {
                    conflicts.entry(a).or_default().insert(b);
                    conflicts.entry(b).or_default().insert(a);
                }
            }
        }
        let mut fields: Vec<Vec<&String>> = Vec::new();
        for sig in &signals {
            let empty = BTreeSet::new();
            let conf = conflicts.get(sig).unwrap_or(&empty);
            match fields
                .iter_mut()
                .find(|f| f.iter().all(|other| !conf.contains(other)))
            {
                Some(f) => f.push(sig),
                None => fields.push(vec![sig]),
            }
        }
        let fields = fields
            .iter()
            .map(|f| f.iter().map(|&name| position(name)).collect())
            .collect();
        Microprogram {
            rom,
            signals,
            fields,
            addr_bits,
        }
    }

    /// Every part of the microprogram equals the reference's.
    fn assert_matches_reference(fsm: &Fsm, what: &str) {
        let got = microcode(fsm);
        let want = reference_microcode(fsm);
        assert_eq!(got.signals, want.signals, "{what}: signals");
        assert_eq!(got.fields, want.fields, "{what}: fields");
        assert_eq!(got.rom, want.rom, "{what}: rom");
        assert_eq!(got.addr_bits, want.addr_bits, "{what}: addr_bits");
        assert_eq!(
            got.horizontal_width(),
            want.horizontal_width(),
            "{what}: horizontal width"
        );
        assert_eq!(
            got.encoded_width(),
            want.encoded_width(),
            "{what}: encoded width"
        );
    }

    /// A random operand source: a register, a constant, an FU output or a
    /// wired shift of one.
    fn random_source(rng: &mut SplitMix64) -> Source {
        let root = match rng.u32_in(0, 3) {
            0 => Source::Reg(rng.usize_in(0, 1000)),
            1 => Source::Const(Fx::from_i64(rng.u64_in(0, 1000) as i64)),
            _ => Source::Fu(rng.usize_in(0, 1000)),
        };
        match rng.u32_in(0, 4) {
            0 => Source::Free(OpKind::Shr, Box::new(root)),
            _ => root,
        }
    }

    /// A hand-built FSM over a shared pool of up to 300 signals, so
    /// signals recur across states. Most states assert up to 20 signals;
    /// one in twenty asserts up to 200, which takes the fields past the
    /// first two 64-bit words. Indices are random, so name order (where
    /// `fu10…` sorts before `fu2…`) differs from the table's first-seen
    /// order.
    fn random_fsm(rng: &mut SplitMix64) -> Fsm {
        let pool: Vec<Signal> = (0..rng.usize_in(1, 301))
            .map(|_| {
                let fu = rng.usize_in(0, 1000);
                match rng.u32_in(0, 3) {
                    0 => Signal::FuOp {
                        fu,
                        kind: *rng.choose(&[OpKind::Add, OpKind::Mul, OpKind::Shr]),
                    },
                    1 => Signal::PortSel {
                        fu,
                        port: rng.usize_in(0, 2),
                        src: random_source(rng),
                    },
                    _ => Signal::Load {
                        reg: rng.usize_in(0, 1000),
                        src: random_source(rng),
                    },
                }
            })
            .collect();
        let flags = ["f0", "f1", "f2"];
        let n = rng.usize_in(1, 9);
        let mut table: Vec<Signal> = Vec::new();
        let states = (0..n)
            .map(|i| {
                let widest = if rng.bool_with(0.05) { 200 } else { 20 };
                let mut signals: Vec<usize> = (0..rng.usize_in(0, widest + 1))
                    .map(|_| {
                        let signal = rng.choose(&pool);
                        table.iter().position(|s| s == signal).unwrap_or_else(|| {
                            table.push(signal.clone());
                            table.len() - 1
                        })
                    })
                    .collect();
                signals.sort_unstable();
                signals.dedup();
                let to = |rng: &mut SplitMix64| rng.usize_in(0, n);
                let flag = rng.choose(&flags).to_string();
                let transitions = match rng.u32_in(0, 4) {
                    0 => Vec::new(),
                    1 => vec![Transition {
                        cond: Cond::Always,
                        to: to(rng),
                    }],
                    2 => vec![
                        Transition {
                            cond: Cond::IsTrue(flag),
                            to: to(rng),
                        },
                        Transition {
                            cond: Cond::Always,
                            to: to(rng),
                        },
                    ],
                    _ => vec![
                        Transition {
                            cond: Cond::IsFalse(flag.clone()),
                            to: to(rng),
                        },
                        Transition {
                            cond: Cond::IsTrue(flag),
                            to: to(rng),
                        },
                    ],
                };
                State {
                    name: format!("st{i}"),
                    signals,
                    transitions,
                }
            })
            .collect();
        Fsm {
            states,
            signals: table,
            ..Fsm::default()
        }
    }

    /// Differential battery: the used-field encoder returns the same
    /// microprogram as the all-pairs reference on the table-ctrl designs,
    /// generated programs under several flows, the 512-op gate DAG and
    /// random hand-built FSMs.
    #[test]
    fn used_fields_match_all_pairs_reference() {
        for (name, src, fus) in [
            ("sqrt", hls_workloads::sources::SQRT, 2),
            ("diffeq", hls_workloads::sources::DIFFEQ, 2),
            ("gcd", hls_workloads::sources::GCD, 1),
        ] {
            assert_matches_reference(&fsm_of(&optimized(src), fus, LIST), name);
        }
        for seed in 0..32u64 {
            let src = hls_fuzz::gen::generate_bsl(&Case::new(Mode::Bsl, seed, 32, 3, 6));
            let cdfg = optimized(&src);
            for fus in [1, 2, 4] {
                for algorithm in [Algorithm::Asap, LIST] {
                    let fsm = fsm_of(&cdfg, fus, algorithm);
                    assert_matches_reference(&fsm, &format!("bsl{seed}/{fus}fu/{algorithm:?}"));
                }
            }
        }
        let mut synth = Cdfg::new("synth");
        let body = synth.add_block(
            "body",
            random_dag(&RandomDagConfig {
                ops: 512,
                inputs: 16,
                window: 24,
                ..Default::default()
            }),
        );
        synth.set_body(Region::Block(body));
        hls_opt::optimize(&mut synth);
        assert_matches_reference(&fsm_of(&synth, 2, LIST), "synth-512");
        let mut rng = SplitMix64::new(0x00F1_E1D5);
        let (mut widest, mut reordered) = (0, 0);
        let mut drawn: HashSet<Signal> = HashSet::new();
        for case in 0..200 {
            let fsm = random_fsm(&mut rng);
            assert_matches_reference(&fsm, &format!("random fsm {case}"));
            widest = widest.max(microcode(&fsm).fields.len());
            let names: Vec<String> = fsm.signals.iter().map(ToString::to_string).collect();
            reordered += usize::from(!names.is_sorted());
            drawn.extend(fsm.signals);
        }
        assert!(widest > 128, "no random FSM crossed two field words");
        assert!(drawn.len() >= 300, "{} distinct signals", drawn.len());
        assert!(reordered >= 100, "name order matched first-seen order");
    }

    #[test]
    fn one_word_per_state() {
        let mp = sqrt_microprogram();
        assert_eq!(mp.rom.len(), 5);
        assert_eq!(mp.addr_bits, 3);
    }

    #[test]
    fn encoding_narrows_the_word() {
        // The paper's point about "encoding techniques for the
        // microcontrol word": mutually exclusive signals share fields.
        let mp = sqrt_microprogram();
        assert!(
            mp.encoded_width() < mp.horizontal_width(),
            "encoded {} vs horizontal {}",
            mp.encoded_width(),
            mp.horizontal_width()
        );
        assert!(mp.encoded_rom_bits() < mp.horizontal_rom_bits());
    }

    #[test]
    fn fields_are_conflict_free() {
        let mp = sqrt_microprogram();
        // No two signals of a field appear together in any instruction.
        for field in &mp.fields {
            for m in &mp.rom {
                let count = field.iter().filter(|s| m.signals.contains(*s)).count();
                assert!(count <= 1, "field {field:?} clashes in {}", m.name);
            }
        }
        // All signals covered exactly once.
        let covered: usize = mp.fields.iter().map(Vec::len).sum();
        assert_eq!(covered, mp.signals.len());
    }

    #[test]
    fn branches_follow_fsm() {
        let mp = sqrt_microprogram();
        let conditional = mp.rom.iter().filter(|m| m.branch.0.is_some()).count();
        assert_eq!(conditional, 1, "one loop-test branch");
    }

    /// A signal index outside the table is a malformed FSM, never a
    /// silently smaller microprogram.
    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_table_signals_panic() {
        let mut fsm = fsm_of(&optimized(hls_workloads::sources::SQRT), 2, LIST);
        fsm.states[0].signals.push(fsm.signals.len());
        assert!(fsm.validate().is_err());
        microcode(&fsm);
    }
}
