//! Two-level logic minimization (Quine–McCluskey with a greedy cover).
//!
//! "The FSM can be synthesized using known methods, including state
//! encoding and optimization of the combinational logic" (§2). This is the
//! combinational-logic half: single-output minimization over small input
//! spaces, used to estimate the hardwired controller's AND-plane.
//!
//! A controller minimizes hundreds of functions that share one
//! don't-care set (its unused state codes), so the don't-cares are
//! expanded once into a [`DontCares`] lattice holding every cube they
//! contain, and each function then grows only the cubes that touch its
//! own on-set. A cube is numbered in base 3, one digit per input: 0 or 1
//! for a literal, 2 for a free input. Whether a cube is an implicant is
//! then one bit lookup in a dense set of `3^inputs` bits, with no sorting
//! or deduplication of implicant lists.

/// Largest input count minimized exactly. The cube sets hold `3^inputs`
/// bits (59049 at 10 inputs); past it [`DontCares::minimize`] returns
/// `None` and callers estimate instead.
pub const MAX_INPUTS: u32 = 10;

/// `3^i` for every input position.
const POW3: [usize; MAX_INPUTS as usize + 1] = {
    let mut p = [1usize; MAX_INPUTS as usize + 1];
    let mut i = 1;
    while i < p.len() {
        p[i] = p[i - 1] * 3;
        i += 1;
    }
    p
};

/// A product term over `n` inputs: `value` gives the required bits on the
/// positions selected by `mask`; unselected positions are don't-cares.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Implicant {
    /// Cared-about input positions.
    pub mask: u64,
    /// Required values on the cared positions.
    pub value: u64,
}

impl Implicant {
    /// `true` when the implicant covers `minterm`.
    pub fn covers(&self, minterm: u64) -> bool {
        minterm & self.mask == self.value
    }

    /// Number of literals in the product term.
    pub fn literals(&self) -> u32 {
        self.mask.count_ones()
    }
}

/// The minimized cover of one output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cover {
    /// Chosen prime implicants.
    pub implicants: Vec<Implicant>,
    /// Input count.
    pub inputs: u32,
}

impl Cover {
    /// Total literal count — the classic area proxy for two-level logic.
    pub fn literals(&self) -> u32 {
        self.implicants.iter().map(Implicant::literals).sum()
    }

    /// Product-term count (AND-plane rows).
    pub fn terms(&self) -> usize {
        self.implicants.len()
    }

    /// Evaluates the cover on an input vector.
    pub fn eval(&self, input: u64) -> bool {
        self.implicants.iter().any(|i| i.covers(input))
    }
}

/// The don't-care set shared by a family of functions over the same
/// inputs, expanded once into every cube it contains.
///
/// Build it once with [`DontCares::new`], then call
/// [`DontCares::minimize`] for each function's on-set.
#[derive(Clone, Debug)]
pub struct DontCares {
    inputs: u32,
    /// Every implicant of the don't-care set; `None` past [`MAX_INPUTS`].
    cubes: Option<CubeSet>,
    /// The cubes grown from the on-set being minimized, kept between
    /// calls so no call allocates or zeroes `3^inputs` bits. Each level
    /// is removed once the next one is grown, so it is empty between
    /// calls.
    grown: CubeSet,
}

impl DontCares {
    /// Expands the don't-care minterms `dc` over `inputs` variables into
    /// their lattice of implicants. Nothing is built past [`MAX_INPUTS`].
    pub fn new(inputs: u32, dc: &[u64]) -> Self {
        if inputs > MAX_INPUTS {
            return DontCares {
                inputs,
                cubes: None,
                grown: CubeSet(Vec::new()),
            };
        }
        let full = full_mask(inputs);
        let mut cubes = CubeSet::new(inputs);
        let mut level: Vec<Cube> = dc
            .iter()
            .map(|&m| Cube::minterm(m & full, full))
            .filter(|c| cubes.insert(c.index))
            .collect();
        while !level.is_empty() {
            let mut next = Vec::new();
            for c in &level {
                // Each pair merges once, from the side with a 0 literal.
                for i in ones(c.imp.mask & !c.imp.value) {
                    if cubes.contains(c.partner(i)) {
                        let merged = c.merge(i);
                        if cubes.insert(merged.index) {
                            next.push(merged);
                        }
                    }
                }
            }
            level = next;
        }
        DontCares {
            inputs,
            cubes: Some(cubes),
            grown: CubeSet::new(inputs),
        }
    }

    /// Minimizes the function whose on-set minterms are `on_set`, with
    /// this don't-care set. Returns `None` past [`MAX_INPUTS`].
    ///
    /// Only cubes that touch the on-set are grown. A cube merges across
    /// input `i` when its partner (the cube with literal `i` negated) is
    /// an implicant: either grown from the on-set at the same level, or a
    /// don't-care cube in the lattice. A cube without such a partner is
    /// prime. Primes made only of don't-cares are never grown: they cover
    /// no on-set minterm, so the cover could never pick them.
    pub fn minimize(&mut self, on_set: &[u64]) -> Option<Cover> {
        let dc = self.cubes.as_ref()?;
        let grown = &mut self.grown;
        let full = full_mask(self.inputs);
        let mut on: Vec<u64> = on_set.iter().map(|&m| m & full).collect();
        on.sort_unstable();
        on.dedup();

        let mut level: Vec<Cube> = on.iter().map(|&m| Cube::minterm(m, full)).collect();
        for c in &level {
            grown.insert(c.index);
        }
        let mut primes = Vec::new();
        while !level.is_empty() {
            let mut next = Vec::new();
            for c in &level {
                let mut prime = true;
                for i in ones(c.imp.mask) {
                    let partner = c.partner(i);
                    if grown.contains(partner) || dc.contains(partner) {
                        prime = false;
                        let merged = c.merge(i);
                        if grown.insert(merged.index) {
                            next.push(merged);
                        }
                    }
                }
                if prime {
                    primes.push(c.imp);
                }
            }
            // Partners are looked up within one level only.
            for c in &level {
                grown.remove(c.index);
            }
            level = next;
        }
        primes.sort_unstable();
        Some(Cover {
            implicants: select_cover(self.inputs, &on, &primes),
            inputs: self.inputs,
        })
    }
}

/// Chooses the cover of the sorted on-set `on` from the sorted prime
/// implicants `primes`.
///
/// Essential primes come first, taken in ascending order of the minterm
/// only they cover. Then, until every minterm is covered, the prime
/// covering the most uncovered minterms is taken; ties go to fewer
/// literals, then to the later prime. Returns the chosen primes sorted.
fn select_cover(inputs: u32, on: &[u64], primes: &[Implicant]) -> Vec<Implicant> {
    let full = full_mask(inputs);
    let mut minterms_of: Vec<Vec<usize>> = vec![Vec::new(); primes.len()];
    let mut primes_of: Vec<Vec<usize>> = vec![Vec::new(); on.len()];
    for (j, p) in primes.iter().enumerate() {
        let free = full & !p.mask;
        let mut s = free;
        loop {
            if let Ok(k) = on.binary_search(&(p.value | s)) {
                minterms_of[j].push(k);
                primes_of[k].push(j);
            }
            if s == 0 {
                break;
            }
            s = (s - 1) & free;
        }
    }
    let mut covering = Covering {
        primes,
        gain: minterms_of.iter().map(Vec::len).collect(),
        minterms_of,
        primes_of,
        covered: vec![false; on.len()],
        uncovered: on.len(),
        chosen: Vec::new(),
    };
    // A minterm's count of covering primes never changes while it is
    // uncovered (a taken prime only covers minterms it just covered), so
    // one ascending pass finds the essential primes.
    for k in 0..on.len() {
        if let [j] = covering.primes_of[k][..] {
            if !covering.covered[k] {
                covering.take(j);
            }
        }
    }
    while covering.uncovered > 0 {
        let Some(j) = covering.best() else { break };
        covering.take(j);
    }
    covering.chosen.sort_unstable();
    covering.chosen
}

/// The state of [`select_cover`].
struct Covering<'a> {
    primes: &'a [Implicant],
    /// The on-set minterms (by position) each prime covers.
    minterms_of: Vec<Vec<usize>>,
    /// The primes covering each on-set minterm.
    primes_of: Vec<Vec<usize>>,
    /// Uncovered minterms each prime covers; 0 once it is taken.
    gain: Vec<usize>,
    covered: Vec<bool>,
    uncovered: usize,
    chosen: Vec<Implicant>,
}

impl Covering<'_> {
    fn take(&mut self, j: usize) {
        self.chosen.push(self.primes[j]);
        for &k in &self.minterms_of[j] {
            if !self.covered[k] {
                self.covered[k] = true;
                self.uncovered -= 1;
                for &q in &self.primes_of[k] {
                    self.gain[q] -= 1;
                }
            }
        }
    }

    /// The prime covering the most uncovered minterms; ties go to fewer
    /// literals, then to the later prime.
    fn best(&self) -> Option<usize> {
        (0..self.primes.len())
            .filter(|&j| self.gain[j] > 0)
            .max_by_key(|&j| (self.gain[j], std::cmp::Reverse(self.primes[j].literals())))
    }
}

/// The mask of all `inputs` input positions.
fn full_mask(inputs: u32) -> u64 {
    (1u64 << inputs) - 1
}

/// Positions of the one bits of `x`, ascending.
fn ones(mut x: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (x != 0).then(|| {
            let i = x.trailing_zeros() as usize;
            x &= x - 1;
            i
        })
    })
}

/// A cube and its base-3 index.
#[derive(Clone, Copy)]
struct Cube {
    index: usize,
    imp: Implicant,
}

impl Cube {
    fn minterm(m: u64, full: u64) -> Cube {
        Cube {
            index: ones(m).map(|i| POW3[i]).sum(),
            imp: Implicant {
                mask: full,
                value: m,
            },
        }
    }

    /// Index of the cube with the literal on input `i` negated.
    fn partner(&self, i: usize) -> usize {
        if self.imp.value >> i & 1 == 0 {
            self.index + POW3[i]
        } else {
            self.index - POW3[i]
        }
    }

    /// The cube with input `i` freed: this cube joined with its partner.
    fn merge(&self, i: usize) -> Cube {
        let bit = 1u64 << i;
        let step = if self.imp.value & bit == 0 { 2 } else { 1 };
        Cube {
            index: self.index + step * POW3[i],
            imp: Implicant {
                mask: self.imp.mask & !bit,
                value: self.imp.value & !bit,
            },
        }
    }
}

/// A dense set of base-3 cube indices.
#[derive(Clone, Debug)]
struct CubeSet(Vec<u64>);

impl CubeSet {
    fn new(inputs: u32) -> Self {
        CubeSet(vec![0; POW3[inputs as usize].div_ceil(64)])
    }

    fn contains(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    /// Inserts `i`; `true` when it was absent.
    fn insert(&mut self, i: usize) -> bool {
        let (word, bit) = (&mut self.0[i / 64], 1u64 << (i % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    fn remove(&mut self, i: usize) {
        self.0[i / 64] &= !(1u64 << (i % 64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn minimize(inputs: u32, on: &[u64], dc: &[u64]) -> Cover {
        DontCares::new(inputs, dc).minimize(on).unwrap()
    }

    /// The all-pairs Quine–McCluskey this module used to run for every
    /// function, kept as the oracle for the lattice: it merges every
    /// pair of same-mask implicants of on ∪ dc, level by level, and
    /// covers the on-set from all the primes that result.
    fn reference_minimize(inputs: u32, on_set: &[u64], dc_set: &[u64]) -> Cover {
        let full_mask = full_mask(inputs);
        let on: BTreeSet<u64> = on_set.iter().map(|m| m & full_mask).collect();
        if on.is_empty() {
            return Cover {
                implicants: Vec::new(),
                inputs,
            };
        }
        let dc: BTreeSet<u64> = dc_set.iter().map(|m| m & full_mask).collect();

        // Generate prime implicants by iterative pairwise combination.
        let mut current: BTreeSet<Implicant> = on
            .iter()
            .chain(dc.iter())
            .map(|&m| Implicant {
                mask: full_mask,
                value: m,
            })
            .collect();
        let mut primes: BTreeSet<Implicant> = BTreeSet::new();
        while !current.is_empty() {
            let mut next: BTreeSet<Implicant> = BTreeSet::new();
            let mut combined: BTreeSet<Implicant> = BTreeSet::new();
            let v: Vec<Implicant> = current.iter().copied().collect();
            for (i, a) in v.iter().enumerate() {
                for b in &v[i + 1..] {
                    if a.mask != b.mask {
                        continue;
                    }
                    let diff = a.value ^ b.value;
                    if diff.count_ones() == 1 {
                        next.insert(Implicant {
                            mask: a.mask & !diff,
                            value: a.value & !diff,
                        });
                        combined.insert(*a);
                        combined.insert(*b);
                    }
                }
            }
            for imp in v {
                if !combined.contains(&imp) {
                    primes.insert(imp);
                }
            }
            current = next;
        }

        // Greedy cover of the on-set (Petrick's method approximated).
        let mut uncovered: BTreeSet<u64> = on.clone();
        let mut chosen = Vec::new();
        // Essential primes first.
        loop {
            let mut essential: Option<Implicant> = None;
            'outer: for &m in &uncovered {
                let covering: Vec<&Implicant> = primes.iter().filter(|p| p.covers(m)).collect();
                if covering.len() == 1 {
                    essential = Some(*covering[0]);
                    break 'outer;
                }
            }
            match essential {
                Some(p) => {
                    uncovered.retain(|&m| !p.covers(m));
                    chosen.push(p);
                    primes.remove(&p);
                }
                None => break,
            }
        }
        while !uncovered.is_empty() {
            let best = primes
                .iter()
                .max_by_key(|p| {
                    (
                        uncovered.iter().filter(|&&m| p.covers(m)).count(),
                        std::cmp::Reverse(p.literals()),
                    )
                })
                .copied()
                .expect("primes cover every on-set minterm");
            uncovered.retain(|&m| !best.covers(m));
            chosen.push(best);
            primes.remove(&best);
        }
        chosen.sort();
        Cover {
            implicants: chosen,
            inputs,
        }
    }

    fn check_exact(cover: &Cover, inputs: u32, on: &[u64], dc: &[u64]) {
        for m in 0..(1u64 << inputs) {
            let expected = on.contains(&m);
            let is_dc = dc.contains(&m);
            if !is_dc {
                assert_eq!(cover.eval(m), expected, "minterm {m:b}");
            }
        }
    }

    #[test]
    fn classic_four_variable_example() {
        // f = Σ(4,8,10,11,12,15), dc = {9,14}: the textbook QM example.
        let on = [4, 8, 10, 11, 12, 15];
        let dc = [9, 14];
        let c = minimize(4, &on, &dc);
        check_exact(&c, 4, &on, &dc);
        assert!(c.terms() <= 4, "{:?}", c.implicants);
        assert!(c.literals() <= 9, "{}", c.literals());
    }

    #[test]
    fn tautology_reduces_to_zero_literals() {
        let on: Vec<u64> = (0..8).collect();
        let c = minimize(3, &on, &[]);
        assert_eq!(c.terms(), 1);
        assert_eq!(c.literals(), 0, "single always-true implicant");
        check_exact(&c, 3, &on, &[]);
    }

    #[test]
    fn single_minterm() {
        let c = minimize(3, &[5], &[]);
        assert_eq!(c.terms(), 1);
        assert_eq!(c.literals(), 3);
        check_exact(&c, 3, &[5], &[]);
    }

    #[test]
    fn empty_on_set() {
        let c = minimize(4, &[], &[1, 2]);
        assert_eq!(c.terms(), 0);
        assert!(!c.eval(1));
    }

    #[test]
    fn xor_does_not_simplify() {
        // a ^ b has no pairwise merges: 2 terms, 4 literals.
        let c = minimize(2, &[1, 2], &[]);
        assert_eq!(c.terms(), 2);
        assert_eq!(c.literals(), 4);
        check_exact(&c, 2, &[1, 2], &[]);
    }

    #[test]
    fn dont_cares_enable_merging() {
        // on = {0b00}, dc = {0b01}: merges to a single 1-literal term.
        let c = minimize(2, &[0], &[1]);
        assert_eq!(c.terms(), 1);
        assert_eq!(c.literals(), 1);
    }

    #[test]
    fn zero_inputs_is_a_constant() {
        let c = minimize(0, &[0], &[]);
        assert_eq!(c.implicants, vec![Implicant { mask: 0, value: 0 }]);
    }

    #[test]
    fn past_the_input_limit_there_is_no_cover() {
        assert_eq!(DontCares::new(MAX_INPUTS + 1, &[1]).minimize(&[0]), None);
        assert!(DontCares::new(MAX_INPUTS, &[1]).minimize(&[0]).is_some());
    }

    /// The cover is always exact on the care set.
    #[test]
    fn cover_is_exact() {
        hls_testkit::forall(
            &hls_testkit::Config::default(),
            |rng| {
                let on: std::collections::BTreeSet<u64> =
                    rng.vec(0, 20, |r| r.u64_in(0, 32)).into_iter().collect();
                let dc: std::collections::BTreeSet<u64> =
                    rng.vec(0, 8, |r| r.u64_in(0, 32)).into_iter().collect();
                (on, dc)
            },
            |(on, dc)| {
                let on: Vec<u64> = on.iter().copied().collect();
                let dc: Vec<u64> = dc.iter().copied().filter(|m| !on.contains(m)).collect();
                let c = minimize(5, &on, &dc);
                for m in 0..32u64 {
                    if dc.contains(&m) {
                        continue;
                    }
                    assert_eq!(c.eval(m), on.contains(&m), "minterm {}", m);
                }
            },
        );
    }

    /// Random minterms plus the minterms of a few random cubes, so large
    /// input counts still see wide merges.
    fn random_set(rng: &mut hls_testkit::SplitMix64, inputs: u32) -> Vec<u64> {
        let space = 1u64 << inputs;
        let mut set = rng.vec(0, 24, |r| r.u64_in(0, space));
        for _ in 0..rng.usize_in(0, 4) {
            let mut free = rng.u64_in(0, space);
            if rng.bool_with(0.5) {
                free &= rng.u64_in(0, space);
            }
            let value = rng.u64_in(0, space) & !free;
            let mut s = free;
            loop {
                set.push(value | s);
                if s == 0 {
                    break;
                }
                s = (s - 1) & free;
            }
        }
        set
    }

    /// Differential battery: the lattice finds the same whole cover —
    /// the same implicants, not only the same counts — as the all-pairs
    /// reference, over 1–10 inputs with overlapping on and dc sets.
    #[test]
    fn lattice_matches_all_pairs_reference() {
        hls_testkit::forall(
            &hls_testkit::Config::cases(256),
            |rng| {
                let inputs = rng.u32_in(1, MAX_INPUTS + 1);
                let on = random_set(rng, inputs);
                let other = random_set(rng, inputs);
                let mut dc = random_set(rng, inputs);
                // Overlap: some on-set minterms are don't-cares as well.
                dc.extend(on.iter().copied().filter(|_| rng.bool_with(0.2)));
                (inputs, on, other, dc)
            },
            |(inputs, on, other, dc)| {
                let want = reference_minimize(*inputs, on, dc);
                assert_eq!(minimize(*inputs, on, dc), want);
                // One lattice serves any number of on-sets, in any order.
                let mut lattice = DontCares::new(*inputs, dc);
                let want_other = reference_minimize(*inputs, other, dc);
                assert_eq!(lattice.minimize(other), Some(want_other));
                assert_eq!(lattice.minimize(on), Some(want));
                assert_eq!(lattice.minimize(&[]).map(|c| c.terms()), Some(0));
            },
        );
    }
}
