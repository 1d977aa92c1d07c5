//! The control/data-flow graph: basic blocks plus a structured control
//! region tree.
//!
//! The tutorial (Fig. 1) keeps control flow and data flow as two linked
//! graphs. We use the structured form that the procedural specification
//! languages of the era (Pascal, ISPS) guarantee anyway: a tree of regions
//! — sequences, counted/conditional loops and if/else — whose leaves are
//! basic blocks, each holding a pure [`DataFlowGraph`].

use crate::dfg::DataFlowGraph;
use crate::error::CdfgError;
use crate::ids::{Arena, Id};

/// Id of a [`Block`] within a [`Cdfg`].
pub type BlockId = Id<Block>;

/// A basic block: straight-line code with a single data-flow graph.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Human-readable name (`entry`, `loop_body`, ...).
    pub name: String,
    /// The block's data-flow graph.
    pub dfg: DataFlowGraph,
    /// Synchronization performed at this block's boundary, if any.
    ///
    /// Sync blocks carry the channel / shared-variable operations of
    /// concurrent processes: the block's dataflow moves the data (a copy
    /// from or to the channel port variable), while the *blocking* is a
    /// property of the block itself — the process FSM holds in this
    /// block's first state until the handshake partner is ready.
    /// Optimization passes may simplify the ops inside a sync block, but
    /// the block (and therefore the synchronization point) persists.
    pub sync: Option<SyncOp>,
}

/// A blocking synchronization operation attached to a [`Block`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SyncOp {
    /// Blocking send on a named channel: the block computes the channel's
    /// `tx` port variable; the FSM holds until the receiver is ready
    /// (two-phase ready/valid rendezvous).
    Send {
        /// Channel name.
        chan: String,
    },
    /// Blocking receive from a named channel: the block copies the
    /// channel's `rx` port variable into a process variable once the
    /// sender's data is valid.
    Recv {
        /// Channel name.
        chan: String,
    },
    /// Non-blocking send on a buffered channel: the block computes the
    /// `tx` port and samples the channel's `ok` port into a flag variable.
    /// The FSM never holds — if the FIFO is full the flag reads 0 and the
    /// value is dropped. Only valid on channels with depth ≥ 1.
    TrySend {
        /// Channel name.
        chan: String,
    },
    /// Non-blocking receive from a buffered channel: the block copies the
    /// `rx` port (zero when the FIFO is empty) and the `ok` port into a
    /// flag variable. The FSM never holds. Only valid on depth ≥ 1.
    TryRecv {
        /// Channel name.
        chan: String,
    },
    /// An atomic access to a mutex-guarded shared variable: the whole
    /// block executes under the variable's mutex (load via the `ld` port,
    /// store via the `st` port).
    Shared {
        /// Shared variable name.
        var: String,
        /// The block reads the shared variable.
        read: bool,
        /// The block writes the shared variable.
        write: bool,
    },
}

/// Whether a loop tests its exit condition before or after the body.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LoopKind {
    /// Post-test loop (`DO ... UNTIL cond LOOP` in the paper): the body runs
    /// at least once; the loop exits when the exit variable becomes true.
    DoUntil,
    /// Pre-test loop (`WHILE cond DO`): the loop exits when the condition
    /// variable (computed by a condition block) becomes false.
    While,
}

/// A loop region.
#[derive(Clone, Debug)]
pub struct LoopRegion {
    /// The loop body.
    pub body: Box<Region>,
    /// Pre- or post-test.
    pub kind: LoopKind,
    /// For [`LoopKind::While`], the block computing the condition each
    /// iteration; unused for `DoUntil`.
    pub cond_block: Option<BlockId>,
    /// Name of the 1-bit variable controlling exit. For `DoUntil` the loop
    /// exits when it is true; for `While` it continues while true.
    pub exit_var: String,
    /// Statically known trip count, when a counted-loop pattern was
    /// recognized (e.g. the sqrt example's 4 iterations).
    pub trip_hint: Option<u64>,
}

/// A two-way conditional region.
#[derive(Clone, Debug)]
pub struct IfRegion {
    /// Block computing the condition variable.
    pub cond_block: BlockId,
    /// Name of the 1-bit condition variable (a live-out of `cond_block`).
    pub cond_var: String,
    /// Taken when the condition is true.
    pub then_region: Box<Region>,
    /// Taken when the condition is false, if present.
    pub else_region: Option<Box<Region>>,
}

/// A node of the structured control tree.
#[derive(Clone, Debug)]
pub enum Region {
    /// A single basic block.
    Block(BlockId),
    /// Sequential composition.
    Seq(Vec<Region>),
    /// A loop.
    Loop(LoopRegion),
    /// An if/else.
    If(IfRegion),
}

impl Region {
    /// Visits every block id in execution order (loop bodies once).
    pub fn for_each_block(&self, f: &mut impl FnMut(BlockId)) {
        match self {
            Region::Block(b) => f(*b),
            Region::Seq(rs) => {
                for r in rs {
                    r.for_each_block(f);
                }
            }
            Region::Loop(l) => {
                if let Some(c) = l.cond_block {
                    f(c);
                }
                l.body.for_each_block(f);
            }
            Region::If(i) => {
                f(i.cond_block);
                i.then_region.for_each_block(f);
                if let Some(e) = &i.else_region {
                    e.for_each_block(f);
                }
            }
        }
    }

    /// Collects every block id in execution order.
    pub fn blocks(&self) -> Vec<BlockId> {
        let mut out = Vec::new();
        self.for_each_block(&mut |b| out.push(b));
        out
    }
}

/// A whole behavior: program inputs/outputs, blocks, and the control tree.
///
/// # Examples
///
/// ```
/// use hls_cdfg::{Cdfg, DataFlowGraph, OpKind, Region};
///
/// let mut dfg = DataFlowGraph::new();
/// let a = dfg.add_input("a", 32);
/// let b = dfg.add_input("b", 32);
/// let s = dfg.add_op(OpKind::Add, vec![a, b]);
/// dfg.set_output("sum", dfg.result(s).unwrap());
///
/// let mut cdfg = Cdfg::new("adder");
/// cdfg.declare_input("a", 32);
/// cdfg.declare_input("b", 32);
/// cdfg.declare_output("sum");
/// let blk = cdfg.add_block("entry", dfg);
/// cdfg.set_body(Region::Block(blk));
/// cdfg.validate().unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct Cdfg {
    name: String,
    blocks: Arena<Block>,
    body: Region,
    inputs: Vec<(String, u8)>,
    outputs: Vec<String>,
}

impl Cdfg {
    /// Creates an empty behavior named `name`.
    pub fn new(name: &str) -> Self {
        Cdfg {
            name: name.to_string(),
            blocks: Arena::new(),
            body: Region::Seq(Vec::new()),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The behavior's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a program input variable.
    pub fn declare_input(&mut self, name: &str, width: u8) {
        self.inputs.push((name.to_string(), width));
    }

    /// Declares a program output variable.
    pub fn declare_output(&mut self, name: &str) {
        self.outputs.push(name.to_string());
    }

    /// Program inputs as `(name, width)` pairs.
    pub fn inputs(&self) -> &[(String, u8)] {
        &self.inputs
    }

    /// Program output variable names.
    pub fn outputs(&self) -> &[String] {
        &self.outputs
    }

    /// Adds a block and returns its id.
    pub fn add_block(&mut self, name: &str, dfg: DataFlowGraph) -> BlockId {
        self.blocks.alloc(Block {
            name: name.to_string(),
            dfg,
            sync: None,
        })
    }

    /// Adds a synchronization block (channel send/recv or shared-variable
    /// access) and returns its id.
    pub fn add_sync_block(&mut self, name: &str, dfg: DataFlowGraph, sync: SyncOp) -> BlockId {
        self.blocks.alloc(Block {
            name: name.to_string(),
            dfg,
            sync: Some(sync),
        })
    }

    /// Sets the control tree.
    pub fn set_body(&mut self, body: Region) {
        self.body = body;
    }

    /// The control tree.
    pub fn body(&self) -> &Region {
        &self.body
    }

    /// Mutable control tree access (for restructuring passes such as loop
    /// unrolling).
    pub fn body_mut(&mut self) -> &mut Region {
        &mut self.body
    }

    /// Immutable block access.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id]
    }

    /// Mutable block access.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id]
    }

    /// Iterates `(id, &block)` in allocation order.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks.iter()
    }

    /// Block ids in control-tree execution order.
    pub fn block_order(&self) -> Vec<BlockId> {
        self.body.blocks()
    }

    /// Total live operations over all blocks reachable from the body.
    pub fn total_ops(&self) -> usize {
        self.block_order()
            .iter()
            .map(|&b| self.blocks[b].dfg.live_op_count())
            .sum()
    }

    /// Checks structural invariants of the whole CDFG.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: an invalid block DFG, a region
    /// referring to a nonexistent block, or a loop whose exit variable is
    /// not produced inside it.
    pub fn validate(&self) -> Result<(), CdfgError> {
        for (_, b) in self.blocks.iter() {
            b.dfg.validate()?;
        }
        self.validate_region(&self.body)
    }

    fn validate_region(&self, r: &Region) -> Result<(), CdfgError> {
        match r {
            Region::Block(b) => {
                if b.index() >= self.blocks.len() {
                    return Err(CdfgError::UnknownBlock);
                }
                Ok(())
            }
            Region::Seq(rs) => {
                for r in rs {
                    self.validate_region(r)?;
                }
                Ok(())
            }
            Region::Loop(l) => {
                self.validate_region(&l.body)?;
                let holder: Vec<BlockId> = match (l.kind, l.cond_block) {
                    (LoopKind::While, Some(c)) => vec![c],
                    _ => l.body.blocks(),
                };
                let produced = holder.iter().any(|&b| {
                    self.blocks[b]
                        .dfg
                        .outputs()
                        .iter()
                        .any(|(n, _)| *n == l.exit_var)
                });
                if !produced {
                    return Err(CdfgError::MissingExitVar {
                        name: l.exit_var.clone(),
                    });
                }
                Ok(())
            }
            Region::If(i) => {
                if i.cond_block.index() >= self.blocks.len() {
                    return Err(CdfgError::UnknownBlock);
                }
                let produced = self.blocks[i.cond_block]
                    .dfg
                    .outputs()
                    .iter()
                    .any(|(n, _)| *n == i.cond_var);
                if !produced {
                    return Err(CdfgError::MissingExitVar {
                        name: i.cond_var.clone(),
                    });
                }
                self.validate_region(&i.then_region)?;
                if let Some(e) = &i.else_region {
                    self.validate_region(e)?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    fn one_block_cdfg() -> Cdfg {
        let mut dfg = DataFlowGraph::new();
        let a = dfg.add_input("a", 32);
        let inc = dfg.add_op(OpKind::Inc, vec![a]);
        dfg.set_output("a", dfg.result(inc).unwrap());
        let mut c = Cdfg::new("t");
        c.declare_input("a", 32);
        c.declare_output("a");
        let b = c.add_block("entry", dfg);
        c.set_body(Region::Block(b));
        c
    }

    #[test]
    fn single_block_validates() {
        let c = one_block_cdfg();
        c.validate().unwrap();
        assert_eq!(c.total_ops(), 1);
        assert_eq!(c.block_order().len(), 1);
    }

    #[test]
    fn loop_requires_exit_var() {
        let mut dfg = DataFlowGraph::new();
        let i = dfg.add_input("i", 32);
        let inc = dfg.add_op(OpKind::Inc, vec![i]);
        dfg.set_output("i", dfg.result(inc).unwrap());
        let mut c = Cdfg::new("loop");
        let b = c.add_block("body", dfg);
        c.set_body(Region::Loop(LoopRegion {
            body: Box::new(Region::Block(b)),
            kind: LoopKind::DoUntil,
            cond_block: None,
            exit_var: "done".to_string(),
            trip_hint: Some(4),
        }));
        assert_eq!(
            c.validate(),
            Err(CdfgError::MissingExitVar {
                name: "done".into()
            })
        );
    }

    #[test]
    fn loop_with_exit_var_validates() {
        let mut dfg = DataFlowGraph::new();
        let i = dfg.add_input("i", 32);
        let inc = dfg.add_op(OpKind::Inc, vec![i]);
        let three = dfg.add_const_value(crate::Fx::from_i64(3));
        let gt = dfg.add_op(OpKind::Gt, vec![dfg.result(inc).unwrap(), three]);
        dfg.set_output("i", dfg.result(inc).unwrap());
        dfg.set_output("done", dfg.result(gt).unwrap());
        let mut c = Cdfg::new("loop");
        let b = c.add_block("body", dfg);
        c.set_body(Region::Loop(LoopRegion {
            body: Box::new(Region::Block(b)),
            kind: LoopKind::DoUntil,
            cond_block: None,
            exit_var: "done".to_string(),
            trip_hint: Some(4),
        }));
        c.validate().unwrap();
    }

    #[test]
    fn region_block_iteration_order() {
        let mut c = Cdfg::new("seq");
        let b1 = c.add_block("b1", DataFlowGraph::new());
        let b2 = c.add_block("b2", DataFlowGraph::new());
        let b3 = c.add_block("b3", DataFlowGraph::new());
        c.set_body(Region::Seq(vec![
            Region::Block(b1),
            Region::Loop(LoopRegion {
                body: Box::new(Region::Block(b2)),
                kind: LoopKind::DoUntil,
                cond_block: None,
                exit_var: String::new(),
                trip_hint: None,
            }),
            Region::Block(b3),
        ]));
        assert_eq!(c.block_order(), vec![b1, b2, b3]);
    }

    #[test]
    fn if_region_validates_cond_var() {
        let mut cond = DataFlowGraph::new();
        let a = cond.add_input("a", 32);
        let z = cond.add_const_value(crate::Fx::ZERO);
        let lt = cond.add_op(OpKind::Lt, vec![a, z]);
        cond.set_output("neg", cond.result(lt).unwrap());

        let mut c = Cdfg::new("iftest");
        let cb = c.add_block("cond", cond);
        let tb = c.add_block("then", DataFlowGraph::new());
        c.set_body(Region::If(IfRegion {
            cond_block: cb,
            cond_var: "neg".to_string(),
            then_region: Box::new(Region::Block(tb)),
            else_region: None,
        }));
        c.validate().unwrap();
        assert_eq!(c.block_order(), vec![cb, tb]);
    }
}
