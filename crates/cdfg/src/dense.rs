//! Dense, index-based companions to the arena IR: bitsets and flat maps
//! keyed by an op's arena ordinal, plus a CSR dependence graph with a
//! cached topological order.
//!
//! The schedulers and allocators spend their inner loops asking "which
//! step range / which set / which count for this op". Keying those lookups
//! through a hash map on op ids costs a hash and a probe per access and can
//! panic on a missing key; arena ordinals are already dense (ops are never
//! removed, only marked dead — see [`crate::Arena`]), so a `Vec` indexed
//! by [`Id::index`](crate::Id::index) answers the same queries in one
//! bounds-checked load. [`BitSet`] packs membership into `u64` words so
//! set algebra (intersection, union, subset tests) runs word-parallel.

use crate::dfg::DataFlowGraph;
use crate::error::CdfgError;
use crate::ids::Id;
use crate::op::OpId;

/// A fixed-universe set of small integers packed into `u64` words.
///
/// All operations stay within the universe size given at construction;
/// indices at or beyond it are rejected with an assertion (they would
/// silently alias other members otherwise).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    universe: usize,
}

impl BitSet {
    /// An empty set over `0..universe`.
    pub fn new(universe: usize) -> Self {
        BitSet {
            words: vec![0; universe.div_ceil(64)],
            universe,
        }
    }

    /// A set containing every index in `0..universe`.
    pub fn full(universe: usize) -> Self {
        let mut s = BitSet::new(universe);
        for (i, w) in s.words.iter_mut().enumerate() {
            let bits = universe - i * 64;
            *w = if bits >= 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
        }
        s
    }

    /// The universe size (not the member count).
    pub fn universe(&self) -> usize {
        self.universe
    }

    fn check(&self, i: usize) {
        assert!(
            i < self.universe,
            "index {i} outside universe {}",
            self.universe
        );
    }

    /// Adds `i`; returns `true` when it was absent.
    pub fn insert(&mut self, i: usize) -> bool {
        self.check(i);
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let was = self.words[w] & b == 0;
        self.words[w] |= b;
        was
    }

    /// Removes `i`; returns `true` when it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        self.check(i);
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let was = self.words[w] & b != 0;
        self.words[w] &= !b;
        was
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        i < self.universe && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The smallest member, if any.
    pub fn first(&self) -> Option<usize> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(i * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Intersects in place (`self &= other`).
    ///
    /// # Panics
    ///
    /// Panics when the universes differ.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Unions in place (`self |= other`).
    ///
    /// # Panics
    ///
    /// Panics when the universes differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Word-parallel `|self ∩ other|`.
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `true` when every member of `self` is in `other`.
    pub fn is_subset_of(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            std::iter::successors((word != 0).then_some(word), |w| {
                let w = w & (w - 1); // clear lowest set bit
                (w != 0).then_some(w)
            })
            .map(move |w| i * 64 + w.trailing_zeros() as usize)
        })
    }
}

/// A [`BitSet`] of operations, keyed by arena ordinal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpSet {
    bits: BitSet,
}

impl OpSet {
    /// An empty set sized for every op ever allocated in `dfg` (dead ops
    /// included, so any [`OpId`] of the graph is a valid key).
    pub fn for_graph(dfg: &DataFlowGraph) -> Self {
        OpSet {
            bits: BitSet::new(dfg.op_capacity()),
        }
    }

    /// Adds `op`; returns `true` when it was absent.
    pub fn insert(&mut self, op: OpId) -> bool {
        self.bits.insert(op.index())
    }

    /// Removes `op`; returns `true` when it was present.
    pub fn remove(&mut self, op: OpId) -> bool {
        self.bits.remove(op.index())
    }

    /// Membership test.
    pub fn contains(&self, op: OpId) -> bool {
        self.bits.contains(op.index())
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.bits.count()
    }

    /// `true` when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Iterates members in id order.
    pub fn iter(&self) -> impl Iterator<Item = OpId> + '_ {
        self.bits.iter().map(|i| Id::from_raw(i as u32))
    }
}

/// A flat map from [`OpId`] to `T`, one slot per arena ordinal.
///
/// Construction fills every slot, so lookups are total: no entry can be
/// missing, which removes the `map[&op]` panic class by construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DenseOpMap<T> {
    slots: Vec<T>,
}

impl<T: Clone> DenseOpMap<T> {
    /// A map over every op of `dfg` (dead ops included), all slots
    /// holding `fill`.
    pub fn for_graph(dfg: &DataFlowGraph, fill: T) -> Self {
        DenseOpMap {
            slots: vec![fill; dfg.op_capacity()],
        }
    }
}

impl<T> DenseOpMap<T> {
    /// The slot of `op`, or `None` for ids outside the map (e.g. of a
    /// larger graph).
    pub fn get(&self, op: OpId) -> Option<&T> {
        self.slots.get(op.index())
    }

    /// Number of slots (the arena capacity, not a live-op count).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when the underlying graph had no ops at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl<T> std::ops::Index<OpId> for DenseOpMap<T> {
    type Output = T;
    fn index(&self, op: OpId) -> &T {
        &self.slots[op.index()]
    }
}

impl<T> std::ops::IndexMut<OpId> for DenseOpMap<T> {
    fn index_mut(&mut self, op: OpId) -> &mut T {
        &mut self.slots[op.index()]
    }
}

/// The dependence structure of a block's live ops in compressed sparse
/// rows, with a cached topological order.
///
/// Building one `DepGraph` per block turns every later `preds`/`succs`
/// query from a `Vec` allocation into a slice borrow, and lets all
/// schedulers share one topological sort instead of re-deriving it. Dense
/// indices (`0..len`) number the live ops in ascending id order; the
/// id order *is* the deterministic tie-break used everywhere downstream.
#[derive(Clone, Debug)]
pub struct DepGraph {
    ops: Vec<OpId>,
    /// Arena ordinal → dense index (`u32::MAX` marks dead slots).
    ord: Vec<u32>,
    pred_off: Vec<u32>,
    pred_dat: Vec<u32>,
    succ_off: Vec<u32>,
    succ_dat: Vec<u32>,
    topo: Vec<u32>,
}

const NO_INDEX: u32 = u32::MAX;

impl DepGraph {
    /// Builds the CSR graph and its topological order.
    ///
    /// # Errors
    ///
    /// Returns [`CdfgError::Cycle`] on cyclic graphs.
    pub fn build(dfg: &DataFlowGraph) -> Result<Self, CdfgError> {
        let ops: Vec<OpId> = dfg.op_ids().collect();
        let mut ord = vec![NO_INDEX; dfg.op_capacity()];
        for (i, &op) in ops.iter().enumerate() {
            ord[op.index()] = i as u32;
        }
        let mut pred_off = Vec::with_capacity(ops.len() + 1);
        let mut pred_dat = Vec::new();
        let mut succ_off = Vec::with_capacity(ops.len() + 1);
        let mut succ_dat = Vec::new();
        pred_off.push(0);
        succ_off.push(0);
        for &op in &ops {
            // `DataFlowGraph::{preds,succs}` dedup while preserving first
            // occurrence; keep that exact order — the schedulers sum
            // floating-point forces in it.
            pred_dat.extend(dfg.preds(op).into_iter().map(|p| ord[p.index()]));
            pred_off.push(pred_dat.len() as u32);
            succ_dat.extend(dfg.succs(op).into_iter().map(|s| ord[s.index()]));
            succ_off.push(succ_dat.len() as u32);
        }
        let mut g = DepGraph {
            ops,
            ord,
            pred_off,
            pred_dat,
            succ_off,
            succ_dat,
            topo: Vec::new(),
        };
        g.topo = g.compute_topo()?;
        Ok(g)
    }

    /// The one topological sort of the workspace (behind
    /// [`DataFlowGraph::topological_order`] too): a cursor queue seeded
    /// with the sorted sources, each newly-ready batch sorted before being
    /// appended.
    fn compute_topo(&self) -> Result<Vec<u32>, CdfgError> {
        let n = self.len();
        let mut indeg: Vec<u32> = (0..n).map(|i| self.preds(i).len() as u32).collect();
        let mut ready: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        let mut cursor = 0;
        while cursor < ready.len() {
            let i = ready[cursor];
            cursor += 1;
            let mut newly: Vec<u32> = Vec::new();
            for &s in self.succs(i as usize) {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    newly.push(s);
                }
            }
            newly.sort_unstable();
            ready.extend(newly);
        }
        if ready.len() != n {
            return Err(CdfgError::Cycle);
        }
        Ok(ready)
    }

    /// Number of live ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the block has no live ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The op at `dense` index.
    pub fn op(&self, dense: usize) -> OpId {
        self.ops[dense]
    }

    /// All live ops in ascending id order (dense order).
    pub fn ops(&self) -> &[OpId] {
        &self.ops
    }

    /// The dense index of `op`, or `None` for dead/unknown ops.
    pub fn index_of(&self, op: OpId) -> Option<usize> {
        match self.ord.get(op.index()) {
            Some(&i) if i != NO_INDEX => Some(i as usize),
            _ => None,
        }
    }

    /// Dense indices of the data predecessors of `dense`.
    pub fn preds(&self, dense: usize) -> &[u32] {
        &self.pred_dat[self.pred_off[dense] as usize..self.pred_off[dense + 1] as usize]
    }

    /// Dense indices of the data successors of `dense`.
    pub fn succs(&self, dense: usize) -> &[u32] {
        &self.succ_dat[self.succ_off[dense] as usize..self.succ_off[dense + 1] as usize]
    }

    /// The cached topological order, as dense indices.
    pub fn topo(&self) -> &[u32] {
        &self.topo
    }

    /// Weakly-connected components of the subgraph induced on the dense
    /// indices where `include` is true (edges through excluded ops do
    /// not connect — e.g. constants, whose consumers share no timing
    /// constraint). Components are returned with members ascending,
    /// ordered by smallest member, so the grouping is deterministic.
    ///
    /// # Panics
    ///
    /// Panics when `include.len()` differs from [`len`](Self::len).
    pub fn components_where(&self, include: &[bool]) -> Vec<Vec<u32>> {
        assert_eq!(include.len(), self.len(), "mask length mismatch");
        let mut seen = vec![false; self.len()];
        let mut out = Vec::new();
        let mut frontier = Vec::new();
        for start in 0..self.len() {
            if seen[start] || !include[start] {
                continue;
            }
            seen[start] = true;
            frontier.push(start as u32);
            let mut members = Vec::new();
            while let Some(i) = frontier.pop() {
                members.push(i);
                let i = i as usize;
                for &n in self.preds(i).iter().chain(self.succs(i)) {
                    let ni = n as usize;
                    if include[ni] && !seen[ni] {
                        seen[ni] = true;
                        frontier.push(n);
                    }
                }
            }
            members.sort_unstable();
            out.push(members);
        }
        out
    }

    /// [`components_where`](Self::components_where) over every live op.
    pub fn components(&self) -> Vec<Vec<u32>> {
        self.components_where(&vec![true; self.len()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::DataFlowGraph;
    use crate::op::OpKind;

    #[test]
    fn bitset_basics() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129), "second insert reports presence");
        assert!(s.contains(0) && s.contains(129) && !s.contains(64));
        assert_eq!(s.count(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 129]);
        assert_eq!(s.first(), Some(0));
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.first(), Some(129));
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(200), "out-of-universe contains is false");
    }

    #[test]
    fn bitset_full_and_algebra() {
        let full = BitSet::full(70);
        assert_eq!(full.count(), 70);
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        for i in [1usize, 3, 64, 69] {
            a.insert(i);
        }
        for i in [3usize, 64, 68] {
            b.insert(i);
        }
        assert_eq!(a.intersection_count(&b), 2);
        assert!(!a.is_subset_of(&b));
        assert!(b.is_subset_of(&full));
        let mut c = a.clone();
        c.intersect_with(&b);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![3, 64]);
        a.union_with(&b);
        assert_eq!(a.count(), 5);
        assert!(c.is_subset_of(&a));
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn bitset_insert_out_of_range_panics() {
        BitSet::new(8).insert(8);
    }

    fn chain() -> (DataFlowGraph, Vec<OpId>) {
        let mut g = DataFlowGraph::new();
        let x = g.add_input("x", 32);
        let a = g.add_op(OpKind::Inc, vec![x]);
        let b = g.add_op(OpKind::Neg, vec![g.result(a).unwrap()]);
        let c = g.add_op(OpKind::Add, vec![g.result(b).unwrap(), x]);
        g.set_output("y", g.result(c).unwrap());
        (g, vec![a, b, c])
    }

    #[test]
    fn opset_and_dense_map() {
        let (g, ops) = chain();
        let mut set = OpSet::for_graph(&g);
        assert!(set.insert(ops[1]));
        assert!(set.contains(ops[1]) && !set.contains(ops[0]));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![ops[1]]);
        assert_eq!(set.len(), 1);
        set.remove(ops[1]);
        assert!(set.is_empty());

        let mut m = DenseOpMap::for_graph(&g, 0u32);
        m[ops[2]] = 7;
        assert_eq!(m[ops[2]], 7);
        assert_eq!(m[ops[0]], 0);
        assert_eq!(m.len(), g.op_capacity());
    }

    #[test]
    fn depgraph_matches_vec_api() {
        let (g, ops) = chain();
        let dg = DepGraph::build(&g).unwrap();
        assert_eq!(dg.len(), 3);
        for (i, &op) in ops.iter().enumerate() {
            assert_eq!(dg.op(dg.index_of(op).unwrap()), op);
            let preds: Vec<OpId> = dg
                .preds(dg.index_of(op).unwrap())
                .iter()
                .map(|&p| dg.op(p as usize))
                .collect();
            assert_eq!(preds, g.preds(op), "op {i}");
            let succs: Vec<OpId> = dg
                .succs(dg.index_of(op).unwrap())
                .iter()
                .map(|&s| dg.op(s as usize))
                .collect();
            assert_eq!(succs, g.succs(op), "op {i}");
        }
    }

    #[test]
    fn depgraph_skips_dead_ops() {
        let (mut g, ops) = chain();
        // Kill the tail op so only a,b stay live.
        g.kill_op(ops[2]);
        let dg = DepGraph::build(&g).unwrap();
        assert_eq!(dg.len(), 2);
        assert_eq!(dg.index_of(ops[2]), None);
        let b = dg.index_of(ops[1]).unwrap();
        assert!(dg.succs(b).is_empty(), "edge to dead op dropped");
    }

    #[test]
    fn depgraph_empty_graph() {
        let g = DataFlowGraph::new();
        let dg = DepGraph::build(&g).unwrap();
        assert_eq!(dg.len(), 0);
        assert!(dg.topo().is_empty());
        assert!(dg.components().is_empty());
        assert!(dg.components_where(&[]).is_empty());
    }

    #[test]
    fn depgraph_single_op() {
        let mut g = DataFlowGraph::new();
        let x = g.add_input("x", 32);
        let a = g.add_op(OpKind::Inc, vec![x]);
        g.set_output("y", g.result(a).unwrap());
        let dg = DepGraph::build(&g).unwrap();
        assert_eq!(dg.len(), 1);
        assert!(dg.preds(0).is_empty() && dg.succs(0).is_empty());
        assert_eq!(dg.topo(), &[0]);
        assert_eq!(dg.components(), vec![vec![0]]);
        assert!(dg.components_where(&[false]).is_empty(), "masked out");
    }

    /// Two independent chains: two components; masking a middle op splits
    /// its chain in two.
    #[test]
    fn components_of_disconnected_chains() {
        let mut g = DataFlowGraph::new();
        let x = g.add_input("x", 32);
        let w = g.add_input("w", 32);
        let a = g.add_op(OpKind::Inc, vec![x]);
        let b = g.add_op(OpKind::Neg, vec![g.result(a).unwrap()]);
        let c = g.add_op(OpKind::Inc, vec![g.result(b).unwrap()]);
        let d = g.add_op(OpKind::Neg, vec![w]);
        g.set_output("y", g.result(c).unwrap());
        g.set_output("z", g.result(d).unwrap());
        let dg = DepGraph::build(&g).unwrap();
        let ia = dg.index_of(a).unwrap() as u32;
        let ib = dg.index_of(b).unwrap() as u32;
        let ic = dg.index_of(c).unwrap() as u32;
        let id = dg.index_of(d).unwrap() as u32;
        assert_eq!(dg.components(), vec![vec![ia, ib, ic], vec![id]]);
        // Excluding b cuts a–b–c into {a} and {c}.
        let mut include = vec![true; dg.len()];
        include[ib as usize] = false;
        assert_eq!(
            dg.components_where(&include),
            vec![vec![ia], vec![ic], vec![id]]
        );
    }

    /// A diamond (a → b, a → c, b+c → d) is one component and every topo
    /// order keeps a first and d last.
    #[test]
    fn diamond_is_one_component_with_valid_topo() {
        let mut g = DataFlowGraph::new();
        let x = g.add_input("x", 32);
        let a = g.add_op(OpKind::Inc, vec![x]);
        let ra = g.result(a).unwrap();
        let b = g.add_op(OpKind::Neg, vec![ra]);
        let c = g.add_op(OpKind::Inc, vec![ra]);
        let d = g.add_op(
            OpKind::Add,
            vec![g.result(b).unwrap(), g.result(c).unwrap()],
        );
        g.set_output("y", g.result(d).unwrap());
        let dg = DepGraph::build(&g).unwrap();
        let (ia, id) = (dg.index_of(a).unwrap(), dg.index_of(d).unwrap());
        assert_eq!(dg.preds(id).len(), 2, "join sees both arms");
        assert_eq!(dg.succs(ia).len(), 2, "fork feeds both arms");
        assert_eq!(dg.components().len(), 1);
        let topo = dg.topo();
        assert_eq!(topo.first(), Some(&(ia as u32)));
        assert_eq!(topo.last(), Some(&(id as u32)));
    }

    #[test]
    #[should_panic(expected = "mask length mismatch")]
    fn components_where_rejects_wrong_mask_length() {
        let (g, _) = chain();
        DepGraph::build(&g).unwrap().components_where(&[true]);
    }

    #[test]
    fn depgraph_detects_cycles() {
        let mut g = DataFlowGraph::new();
        let x = g.add_input("x", 32);
        let a = g.add_op(OpKind::Inc, vec![x]);
        let b = g.add_op(OpKind::Inc, vec![g.result(a).unwrap()]);
        // Feed b's result back into a: a cycle.
        let rb = g.result(b).unwrap();
        g.op_mut(a).operands[0] = rb;
        g.value_mut(rb).uses.push(a);
        assert!(matches!(DepGraph::build(&g), Err(CdfgError::Cycle)));
    }
}
