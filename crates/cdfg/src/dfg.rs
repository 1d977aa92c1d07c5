//! The data-flow graph of a basic block.

use std::collections::HashMap;

use crate::dense::DepGraph;
use crate::error::CdfgError;
use crate::fixed::Fx;
use crate::ids::Arena;
use crate::op::{OpId, OpKind, Operation, Value, ValueDef, ValueId};

/// The data-flow graph (DFG) of one basic block.
///
/// Nodes are [`Operation`]s; arcs are [`Value`]s. The DFG captures "the
/// essential ordering of operations imposed by the data relations in the
/// specification" (tutorial §2): an op may execute as soon as all its
/// operand values exist.
///
/// # Examples
///
/// ```
/// use hls_cdfg::{DataFlowGraph, OpKind};
///
/// let mut dfg = DataFlowGraph::new();
/// let x = dfg.add_input("x", 32);
/// let y = dfg.add_input("y", 32);
/// let sum = dfg.add_op(OpKind::Add, vec![x, y]);
/// dfg.set_output("s", dfg.result(sum).unwrap());
/// assert_eq!(dfg.live_op_count(), 1);
/// dfg.validate().unwrap();
/// ```
#[derive(Clone, Debug, Default)]
pub struct DataFlowGraph {
    ops: Arena<Operation>,
    values: Arena<Value>,
    inputs: Vec<ValueId>,
    outputs: Vec<(String, ValueId)>,
}

impl DataFlowGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a live-in value named `name` of `width` bits.
    pub fn add_input(&mut self, name: &str, width: u8) -> ValueId {
        let mut v = Value::new(ValueDef::BlockInput(name.to_string()));
        v.width = width;
        v.name = name.to_string();
        let id = self.values.alloc(v);
        self.inputs.push(id);
        id
    }

    /// Adds an operation and (unless it is a `Store`) its result value.
    ///
    /// # Panics
    ///
    /// Panics if `operands.len()` does not match [`OpKind::arity`]; this is
    /// a programming error at graph-construction time, caught immediately.
    pub fn add_op(&mut self, kind: OpKind, operands: Vec<ValueId>) -> OpId {
        assert_eq!(
            operands.len(),
            kind.arity(),
            "{kind} expects {} operands, got {}",
            kind.arity(),
            operands.len()
        );
        let op = Operation::new(kind, operands.clone());
        let id = self.ops.alloc(op);
        for v in operands {
            self.values[v].uses.push(id);
        }
        if kind.has_result() {
            let mut val = Value::new(ValueDef::Op(id));
            // Comparisons produce one bit; everything else produces a full
            // datapath word. Narrow widths are applied only where declared:
            // at variable assignments (front end) and by the counter
            // narrowing pass — a product of 5-bit values must NOT wrap at
            // 5 bits.
            if kind.is_comparison() {
                val.width = 1;
            }
            let vid = self.values.alloc(val);
            self.ops[id].result = Some(vid);
        }
        id
    }

    /// Adds a constant-producing operation.
    pub fn add_const(&mut self, c: Fx) -> OpId {
        let id = self.add_op(OpKind::Const, vec![]);
        self.ops[id].constant = Some(c);
        id
    }

    /// Convenience: adds a constant and returns its *value*.
    pub fn add_const_value(&mut self, c: Fx) -> ValueId {
        let op = self.add_const(c);
        self.result(op).expect("const has a result")
    }

    /// Sets the diagram label of `op` (e.g. `"a1"`), returning `op` for
    /// chaining.
    pub fn label(&mut self, op: OpId, label: &str) -> OpId {
        self.ops[op].label = label.to_string();
        op
    }

    /// Declares that variable `name` leaves the block carrying `value`.
    ///
    /// A later `set_output` for the same name replaces the earlier one (the
    /// variable was reassigned).
    pub fn set_output(&mut self, name: &str, value: ValueId) {
        if let Some(slot) = self.outputs.iter_mut().find(|(n, _)| n == name) {
            slot.1 = value;
        } else {
            self.outputs.push((name.to_string(), value));
        }
    }

    /// The block's live-in values, in declaration order.
    pub fn inputs(&self) -> &[ValueId] {
        &self.inputs
    }

    /// The block's live-out `(variable, value)` pairs.
    pub fn outputs(&self) -> &[(String, ValueId)] {
        &self.outputs
    }

    /// Immutable operation access.
    pub fn op(&self, id: OpId) -> &Operation {
        &self.ops[id]
    }

    /// Mutable operation access.
    pub fn op_mut(&mut self, id: OpId) -> &mut Operation {
        &mut self.ops[id]
    }

    /// Immutable value access.
    pub fn value(&self, id: ValueId) -> &Value {
        &self.values[id]
    }

    /// Mutable value access.
    pub fn value_mut(&mut self, id: ValueId) -> &mut Value {
        &mut self.values[id]
    }

    /// The result value of `id`, if any.
    pub fn result(&self, id: OpId) -> Option<ValueId> {
        self.ops[id].result
    }

    /// Iterates live (non-dead) operation ids in allocation order.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        self.ops.iter().filter(|(_, o)| !o.dead).map(|(id, _)| id)
    }

    /// Iterates all value ids.
    pub fn value_ids(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.values.ids()
    }

    /// Number of live operations.
    pub fn live_op_count(&self) -> usize {
        self.op_ids().count()
    }

    /// Number of op slots ever allocated, dead ones included — the size a
    /// dense per-op table needs so that every [`OpId`] of this graph is a
    /// valid index (see [`crate::dense`]).
    pub fn op_capacity(&self) -> usize {
        self.ops.len()
    }

    /// Number of data arcs between live operations.
    pub fn edge_count(&self) -> usize {
        self.op_ids()
            .map(|id| {
                self.ops[id]
                    .operands
                    .iter()
                    .filter(
                        |&&v| matches!(self.values[v].def, ValueDef::Op(p) if !self.ops[p].dead),
                    )
                    .count()
            })
            .sum()
    }

    /// The operations whose results feed `id` (data predecessors).
    pub fn preds(&self, id: OpId) -> Vec<OpId> {
        let mut out = Vec::new();
        for &v in &self.ops[id].operands {
            if let ValueDef::Op(p) = self.values[v].def {
                if !self.ops[p].dead && !out.contains(&p) {
                    out.push(p);
                }
            }
        }
        out
    }

    /// The operations consuming the result of `id` (data successors).
    pub fn succs(&self, id: OpId) -> Vec<OpId> {
        let mut out = Vec::new();
        if let Some(r) = self.ops[id].result {
            for &u in &self.values[r].uses {
                if !self.ops[u].dead && !out.contains(&u) {
                    out.push(u);
                }
            }
        }
        out
    }

    /// Live operations with no live data predecessors.
    pub fn sources(&self) -> Vec<OpId> {
        self.op_ids()
            .filter(|&id| self.preds(id).is_empty())
            .collect()
    }

    /// Live operations whose result feeds no live op.
    pub fn sinks(&self) -> Vec<OpId> {
        self.op_ids()
            .filter(|&id| self.succs(id).is_empty())
            .collect()
    }

    /// A topological order of the live operations: the order
    /// [`DepGraph::topo`] caches, as op ids.
    ///
    /// Ties are broken by allocation order, which for graphs built from a
    /// specification corresponds to textual order — exactly the order the
    /// tutorial's ASAP scheduler consumes operations in.
    ///
    /// # Errors
    ///
    /// Returns [`CdfgError::Cycle`] if the graph has a data cycle.
    pub fn topological_order(&self) -> Result<Vec<OpId>, CdfgError> {
        let deps = DepGraph::build(self)?;
        Ok(deps.topo().iter().map(|&i| deps.op(i as usize)).collect())
    }

    /// Redirects every use of value `old` to value `new`.
    pub fn replace_value_uses(&mut self, old: ValueId, new: ValueId) {
        if old == new {
            return;
        }
        let users = std::mem::take(&mut self.values[old].uses);
        for &u in &users {
            for slot in &mut self.ops[u].operands {
                if *slot == old {
                    *slot = new;
                }
            }
        }
        let new_val = &mut self.values[new];
        new_val.uses.extend(users);
        for out in &mut self.outputs {
            if out.1 == old {
                out.1 = new;
            }
        }
    }

    /// Marks `id` dead and unhooks it from its operand values' use lists.
    pub fn kill_op(&mut self, id: OpId) {
        if self.ops[id].dead {
            return;
        }
        self.ops[id].dead = true;
        let operands = self.ops[id].operands.clone();
        for v in operands {
            let uses = &mut self.values[v].uses;
            if let Some(pos) = uses.iter().position(|&u| u == id) {
                uses.remove(pos);
            }
        }
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: dangling operands, arity
    /// mismatches, inconsistent use lists, cycles, constants without
    /// payloads, memory ops without a memory name, or outputs defined by
    /// dead ops.
    pub fn validate(&self) -> Result<(), CdfgError> {
        for id in self.op_ids() {
            let op = &self.ops[id];
            if op.operands.len() != op.kind.arity() {
                return Err(CdfgError::Arity {
                    op: format!("{}", op.kind),
                });
            }
            if op.kind == OpKind::Const && op.constant.is_none() {
                return Err(CdfgError::MissingConstant);
            }
            if matches!(op.kind, OpKind::Load | OpKind::Store) && op.memory.is_none() {
                return Err(CdfgError::MissingMemory);
            }
            for &v in &op.operands {
                if v.index() >= self.values.len() {
                    return Err(CdfgError::DanglingValue);
                }
                if !self.values[v].uses.contains(&id) {
                    return Err(CdfgError::UseListInconsistent);
                }
                if let ValueDef::Op(p) = self.values[v].def {
                    if self.ops[p].dead {
                        return Err(CdfgError::UseOfDeadOp);
                    }
                }
            }
            if let Some(r) = op.result {
                if self.values[r].def != ValueDef::Op(id) {
                    return Err(CdfgError::UseListInconsistent);
                }
            }
        }
        for (name, v) in &self.outputs {
            if let ValueDef::Op(p) = self.values[*v].def {
                if self.ops[p].dead {
                    return Err(CdfgError::DeadOutput { name: name.clone() });
                }
            }
        }
        self.topological_order().map(|_| ())
    }

    /// Removes dead operations and unused values, renumbering everything.
    ///
    /// Returns the compacted graph; `self` is consumed because every
    /// outstanding id is invalidated.
    pub fn into_compacted(self) -> DataFlowGraph {
        let mut out = DataFlowGraph::new();
        let mut vmap: HashMap<ValueId, ValueId> = HashMap::new();
        // Inputs keep their identity.
        for &iv in &self.inputs {
            let v = &self.values[iv];
            let nv = out.add_input(&v.name, v.width);
            vmap.insert(iv, nv);
        }
        let order = self
            .topological_order()
            .expect("compaction requires an acyclic graph");
        for id in order {
            let op = &self.ops[id];
            let operands: Vec<ValueId> = op.operands.iter().map(|v| vmap[v]).collect();
            let nid = out.add_op(op.kind, operands);
            out.ops[nid].constant = op.constant;
            out.ops[nid].memory = op.memory.clone();
            out.ops[nid].label = op.label.clone();
            if let (Some(old_r), Some(new_r)) = (op.result, out.ops[nid].result) {
                out.values[new_r].width = self.values[old_r].width;
                out.values[new_r].name = self.values[old_r].name.clone();
                vmap.insert(old_r, new_r);
            }
        }
        for (name, v) in &self.outputs {
            out.set_output(name, vmap[v]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DataFlowGraph, OpId, OpId, OpId, OpId) {
        // x --> a --> c
        //   \-> b --/
        let mut g = DataFlowGraph::new();
        let x = g.add_input("x", 32);
        let a = g.add_op(OpKind::Inc, vec![x]);
        let b = g.add_op(OpKind::Neg, vec![x]);
        let ra = g.result(a).unwrap();
        let rb = g.result(b).unwrap();
        let c = g.add_op(OpKind::Add, vec![ra, rb]);
        let d = g.add_op(OpKind::Dec, vec![g.result(c).unwrap()]);
        g.set_output("y", g.result(d).unwrap());
        (g, a, b, c, d)
    }

    #[test]
    fn preds_and_succs() {
        let (g, a, b, c, d) = diamond();
        assert_eq!(g.preds(c), vec![a, b]);
        assert_eq!(g.succs(a), vec![c]);
        assert_eq!(g.succs(c), vec![d]);
        assert!(g.preds(a).is_empty());
        assert!(g.succs(d).is_empty());
        assert_eq!(g.sources(), vec![a, b]);
        assert_eq!(g.sinks(), vec![d]);
    }

    #[test]
    fn topological_order_respects_deps() {
        let (g, _, _, c, d) = diamond();
        let order = g.topological_order().unwrap();
        assert_eq!(order.len(), 4);
        let pos = |id| order.iter().position(|&o| o == id).unwrap();
        assert!(pos(c) < pos(d));
        for p in g.preds(c) {
            assert!(pos(p) < pos(c));
        }
        g.validate().unwrap();
    }

    #[test]
    fn kill_and_dce_semantics() {
        let (mut g, a, _, c, d) = diamond();
        g.kill_op(d);
        assert_eq!(g.live_op_count(), 3);
        assert!(g.succs(c).is_empty());
        // a's result still used by c.
        assert_eq!(g.succs(a), vec![c]);
    }

    #[test]
    fn replace_uses_rewires() {
        let mut g = DataFlowGraph::new();
        let x = g.add_input("x", 32);
        let y = g.add_input("y", 32);
        let add = g.add_op(OpKind::Add, vec![x, x]);
        g.set_output("o", x);
        g.replace_value_uses(x, y);
        assert_eq!(g.op(add).operands, vec![y, y]);
        assert!(g.value(x).uses.is_empty());
        assert_eq!(g.value(y).uses, vec![add, add]);
        assert_eq!(g.outputs()[0].1, y);
    }

    #[test]
    fn validate_catches_missing_const() {
        let mut g = DataFlowGraph::new();
        let id = g.add_op(OpKind::Const, vec![]);
        assert!(g.validate().is_err());
        g.op_mut(id).constant = Some(Fx::ONE);
        g.validate().unwrap();
    }

    #[test]
    fn compaction_drops_dead_ops() {
        let (mut g, a, b, c, d) = diamond();
        // Kill the whole chain above the output: d, then c becomes a sink.
        let _ = (a, b);
        g.kill_op(d);
        g.kill_op(c);
        // Output still points at d's (dead) value, so drop it first.
        g.outputs.clear();
        let g2 = g.into_compacted();
        assert_eq!(g2.live_op_count(), 2);
        g2.validate().unwrap();
    }

    #[test]
    fn edge_count_counts_op_to_op_arcs() {
        let (g, ..) = diamond();
        // a->c, b->c, c->d : 3 arcs (input arcs don't count).
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn comparison_result_is_one_bit() {
        let mut g = DataFlowGraph::new();
        let x = g.add_input("x", 32);
        let y = g.add_input("y", 32);
        let lt = g.add_op(OpKind::Lt, vec![x, y]);
        assert_eq!(g.value(g.result(lt).unwrap()).width, 1);
    }

    #[test]
    #[should_panic(expected = "expects 2 operands")]
    fn arity_checked_at_build_time() {
        let mut g = DataFlowGraph::new();
        let x = g.add_input("x", 32);
        let _ = g.add_op(OpKind::Add, vec![x]);
    }
}
