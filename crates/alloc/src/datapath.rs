//! Whole-behavior datapath assembly.
//!
//! Merges per-block register and functional-unit allocations into one
//! shared datapath — "a network of registers, functional units,
//! multiplexers and buses" (§1.1) — plus the binding information the
//! controller generator and the RTL simulator consume. Each operand's
//! source is resolved here, once, into the control [`Signal`]s of its
//! step; the controller, the mux count and the DOT view read those.
//!
//! Storage model:
//!
//! * One **variable register** per named variable crossing a block
//!   boundary (program inputs included). Blocks read their live-ins from
//!   variable registers; all writes happen at the block's final step
//!   boundary, so a block never clobbers a variable another of its ops
//!   still reads.
//! * **Temporary registers** hold intra-block values (left-edge allocated
//!   per block and shared by index across blocks: block A's temp 0 and
//!   block B's temp 0 are the same physical register — they are never
//!   live simultaneously because blocks execute sequentially).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt::{self, Write as _};
use std::sync::Arc;

use hls_cdfg::{BlockId, Cdfg, DataFlowGraph, DenseMap, OpId, OpKind, ValueDef, ValueId};
use hls_rtl::{AreaReport, AreaTally, CellClass, CellSpec, Library, Netlist, PortDir};
use hls_sched::{CdfgSchedule, FuClass, OpClassifier, Schedule};

use crate::error::AllocError;
use crate::fu::{clique_allocation, greedy_allocation, CliqueMethod};
use crate::interconnect::{grown, price, PerSink, Sink};
use crate::lifetime::value_intervals;
use crate::registers::{left_edge, RegisterAllocation};
use crate::signal::{Signal, Source};

/// How functional units are allocated per block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuStrategy {
    /// Greedy, interconnect-aware (Fig. 6).
    GreedyAware,
    /// Greedy, first-free-unit (interconnect-blind).
    GreedyBlind,
    /// Clique partitioning (Fig. 7).
    Clique(CliqueMethod),
}

/// What a register stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegKind {
    /// Variable `i` of the datapath's [`VariableTable`], live across
    /// blocks.
    Var(usize),
    /// A shared intra-block temporary.
    Temp(usize),
}

/// A physical register; [`Datapath::reg_name`] renders its name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegDesc {
    /// Width in bits.
    pub width: u8,
    /// Role.
    pub kind: RegKind,
}

/// A physical functional unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuDesc {
    /// Instance name.
    pub name: String,
    /// Class.
    pub class: FuClass,
    /// Bound library cell.
    pub cell: String,
    /// Width in bits.
    pub width: u8,
    /// Input ports.
    pub ports: usize,
}

/// An end-of-block write of `value` into variable register `reg`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutputWrite {
    /// Destination variable register.
    pub reg: usize,
    /// The written value.
    pub value: ValueId,
}

/// The schedule-independent storage of one behavior, built once from its
/// CDFG and shared by every datapath built from it: one variable
/// register per named variable crossing a block boundary (program inputs
/// included) at the widest crossing, each block's inputs and end-of-block
/// writes against those registers, and the named memories.
#[derive(Clone, Debug, Default)]
pub struct VariableTable {
    /// Variable names, sorted, with their widths: variable `i` lives in
    /// register `i`.
    vars: Vec<(String, u8)>,
    blocks: DenseMap<BlockId, BlockVars>,
    memories: Vec<String>,
}

/// One block's crossings, against the variable registers.
#[derive(Clone, Debug)]
struct BlockVars {
    /// Each block input and the register of the variable it reads (an
    /// assignment may rename the value itself).
    inputs: Vec<(ValueId, usize)>,
    writes: Vec<OutputWrite>,
}

impl VariableTable {
    /// Walks `cdfg` once for its variables, block crossings and memories.
    pub fn new(cdfg: &Cdfg) -> Self {
        let mut widths: BTreeMap<&str, u8> = BTreeMap::new();
        for (name, width) in cdfg.inputs() {
            widths.insert(name, *width);
        }
        let order = cdfg.block_order();
        for &block in &order {
            let dfg = &cdfg.block(block).dfg;
            let inputs = dfg.inputs().iter().map(|&v| (&dfg.value(v).name, v));
            for (name, v) in inputs.chain(dfg.outputs().iter().map(|(name, v)| (name, *v))) {
                let width = dfg.value(v).width;
                let w = widths.entry(name).or_insert(width);
                *w = (*w).max(width);
            }
        }
        let mut table = VariableTable {
            vars: widths
                .into_iter()
                .map(|(n, w)| (n.to_string(), w))
                .collect(),
            ..Self::default()
        };
        let mut memories: Vec<&str> = Vec::new();
        for &block in &order {
            let dfg = &cdfg.block(block).dfg;
            let inputs = dfg
                .inputs()
                .iter()
                .filter_map(|&v| match &dfg.value(v).def {
                    ValueDef::BlockInput(name) => Some((v, table.register(name)?)),
                    ValueDef::Op(_) => None,
                });
            let writes = dfg.outputs().iter().filter_map(|(name, v)| {
                let reg = table.register(name)?;
                Some(OutputWrite { reg, value: *v })
            });
            let (inputs, writes) = (inputs.collect(), writes.collect());
            table.blocks.insert(block, BlockVars { inputs, writes });
            memories.extend(dfg.op_ids().filter_map(|op| dfg.op(op).memory.as_deref()));
        }
        memories.sort_unstable();
        memories.dedup();
        table.memories = memories.into_iter().map(str::to_string).collect();
        table
    }

    /// Number of variables, and so of variable registers.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// The register of variable `name`.
    pub fn register(&self, name: &str) -> Option<usize> {
        self.vars
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
    }

    /// Variable `var`'s name (empty outside the table).
    pub fn name(&self, var: usize) -> &str {
        self.vars.get(var).map_or("", |(n, _)| n)
    }

    /// Each variable register's width, in register order.
    pub fn widths(&self) -> impl Iterator<Item = u8> + '_ {
        self.vars.iter().map(|&(_, w)| w)
    }

    /// The end-of-block writes of `block` (none outside the table).
    pub fn writes(&self, block: BlockId) -> &[OutputWrite] {
        self.blocks.get(block).map_or(&[], |b| &b.writes)
    }

    /// The named memories the behavior accesses (sorted, deduplicated),
    /// one single-port RAM each.
    pub fn memories(&self) -> &[String] {
        &self.memories
    }
}

/// Per-block binding details.
#[derive(Clone, Debug, Default)]
pub struct BlockBinding {
    /// Global FU index per step-taking op.
    pub op_fu: DenseMap<OpId, usize>,
    /// Global register index per value the block reads from a register:
    /// block inputs in their variable registers, stored intra-block
    /// values in temporaries.
    pub value_reg: DenseMap<ValueId, usize>,
    /// The control signals asserted in each control step (one entry per
    /// step, and one for a block of zero steps), as indices into
    /// [`Datapath::signals`]. The last entry also loads the block's
    /// end-of-block writes ([`VariableTable::writes`]).
    pub signals: Vec<Vec<usize>>,
}

/// The assembled datapath.
///
/// Its variable registers, the block crossings and the memories come from
/// the behavior's [`VariableTable`], which every datapath built from one
/// prepared behavior shares; a datapath adds only what its schedule
/// decides: the units, the temporaries, the bindings and the signals.
#[derive(Clone, Debug)]
pub struct Datapath {
    /// Functional units.
    pub fus: Vec<FuDesc>,
    /// Registers (variables first, in [`VariableTable`] order, then temps).
    pub regs: Vec<RegDesc>,
    /// The behavior's variable registers, block crossings and memories.
    pub vars: Arc<VariableTable>,
    /// Per-block bindings.
    pub blocks: HashMap<BlockId, BlockBinding>,
    /// Every distinct control signal the blocks record, once each, in
    /// the order first recorded.
    pub signals: Vec<Signal>,
    /// Aggregated multiplexer-input estimate across all blocks.
    pub mux_inputs: usize,
}

impl Datapath {
    /// Number of registers.
    pub fn reg_count(&self) -> usize {
        self.regs.len()
    }

    /// Number of functional units.
    pub fn fu_count(&self) -> usize {
        self.fus.len()
    }

    /// A register's instance name, rendered where it is printed: `rv_`
    /// and the variable's name (non-alphanumerics as `_`) for a variable,
    /// `rt{t}` for temporary `t`.
    pub fn reg_name(&self, kind: RegKind) -> impl fmt::Display + '_ {
        fmt::from_fn(move |f| match kind {
            RegKind::Var(v) => write!(f, "{}", sanitized("rv_", self.vars.name(v))),
            RegKind::Temp(t) => write!(f, "rt{t}"),
        })
    }

    /// Renders the datapath structure as a Graphviz DOT digraph: registers
    /// as boxes, functional units as circles, memories as 3-D boxes, with
    /// one edge per distinct source→sink connection (fan-in above one
    /// implies a multiplexer at the sink). The edges are the recorded
    /// operand selects from registers and FUs (a chain of wired shifts
    /// drawn from its root) and the FU→register result loads.
    pub fn to_dot(&self, cdfg: &Cdfg) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "digraph \"{}_datapath\" {{", cdfg.name());
        let _ = writeln!(s, "  rankdir=LR;");
        for (i, reg) in self.regs.iter().enumerate() {
            let name = self.reg_name(reg.kind);
            let _ = writeln!(s, "  r{i} [label=\"{name} [{}]\", shape=box];", reg.width);
        }
        for (i, fu) in self.fus.iter().enumerate() {
            let _ = writeln!(s, "  fu{i} [label=\"{}\", shape=circle];", fu.name);
        }
        for (i, mem) in self.vars.memories().iter().enumerate() {
            let _ = writeln!(s, "  mem{i} [label=\"{mem}\", shape=box3d];");
        }
        let mut edges: BTreeSet<(String, String)> = BTreeSet::new();
        for signal in &self.signals {
            match signal {
                Signal::PortSel { fu, src, .. } => {
                    let mut root = src;
                    while let Source::Free(_, inner) = root {
                        root = inner;
                    }
                    if !matches!(root, Source::Const(_)) {
                        edges.insert((root.to_string(), format!("fu{fu}")));
                    }
                }
                // A result load into a temporary (variables come first).
                Signal::Load {
                    reg,
                    src: Source::Fu(fu),
                } if *reg >= self.vars.var_count() => {
                    edges.insert((format!("fu{fu}"), format!("r{reg}")));
                }
                _ => {}
            }
        }
        for (from, to) in edges {
            let _ = writeln!(s, "  {from} -> {to};");
        }
        s.push_str("}\n");
        s
    }

    /// Renders the datapath as an RT-level netlist (FUs, registers, and
    /// the muxes implied by the interconnect estimate).
    pub fn to_netlist(&self, cdfg: &Cdfg, library: &Library) -> Result<Netlist, AllocError> {
        let mut n = Netlist::new(cdfg.name());
        for (name, width) in cdfg.inputs() {
            n.add_port(format!("in_{name}"), PortDir::In, *width);
        }
        for name in cdfg.outputs() {
            n.add_port(format!("out_{name}"), PortDir::Out, 32);
        }
        self.for_each_cell(library, |part, cell, _, width| {
            let (name, pins) = match part {
                Part::Reg(i, reg) => {
                    let d = n.add_net(format!("r{i}_d"), width);
                    let q = n.add_net(format!("r{i}_q"), width);
                    let name = self.reg_name(reg.kind).to_string();
                    (name, vec![("d".into(), d), ("q".into(), q)])
                }
                Part::Fu(i, fu) => {
                    let ports = fu.ports.max(1);
                    let mut pins = Vec::with_capacity(ports + 1);
                    for p in 0..ports {
                        let net = n.add_net(format!("fu{i}_p{p}"), width);
                        pins.push((format!("p{p}").into(), net));
                    }
                    let y = n.add_net(format!("fu{i}_y"), width);
                    pins.push(("y".into(), y));
                    (fu.name.clone(), pins)
                }
                Part::Memory(i, mem) => {
                    let addr = n.add_net(format!("mem{i}_addr"), width);
                    let q = n.add_net(format!("mem{i}_q"), width);
                    let pins = vec![("addr".into(), addr), ("q".into(), q)];
                    (sanitized("mem_", mem).to_string(), pins)
                }
                Part::Mux(m) => {
                    let a = n.add_net(format!("mux{m}_a"), width);
                    let y = n.add_net(format!("mux{m}_y"), width);
                    (format!("mux{m}"), vec![("a".into(), a), ("y".into(), y)])
                }
            };
            n.add_instance(name, cell, width, pins);
        })?;
        Ok(n)
    }

    /// The area and clock of the cells [`Datapath::to_netlist`]
    /// instantiates, priced without building the netlist: bit for bit
    /// what [`hls_rtl::estimate`] reports for that netlist.
    ///
    /// # Errors
    ///
    /// [`AllocError::MissingCell`] when the library lacks a functional
    /// unit's bound cell, as from [`Datapath::to_netlist`].
    pub fn area(&self, library: &Library) -> Result<AreaReport, AllocError> {
        let mut tally = AreaTally::default();
        self.for_each_cell(library, |_, _, spec, width| {
            if let Some(cell) = spec {
                tally.add(cell, width);
            }
        })?;
        Ok(tally.finish())
    }

    /// Visits every cell instance of the datapath in netlist order: the
    /// registers, the functional units, the memories, then one 2-way mux
    /// per counted mux input (an n-way mux is n-1 of them). Each visit
    /// carries the library cell's name, its spec (`None` when the library
    /// lacks it, which prices at zero) and the instance width. Each cell
    /// kind is looked up once, not once per instance.
    fn for_each_cell<'a>(
        &'a self,
        library: &'a Library,
        mut visit: impl FnMut(Part<'a>, &'static str, Option<&'a CellSpec>, u8),
    ) -> Result<(), AllocError> {
        let reg = library.cell(REG_CELL);
        for (i, r) in self.regs.iter().enumerate() {
            visit(Part::Reg(i, r), REG_CELL, reg, r.width);
        }
        // The units are class-major, so a class's units share one lookup.
        let mut last: Option<&CellSpec> = None;
        for (i, fu) in self.fus.iter().enumerate() {
            let cell = match last {
                Some(c) if c.name == fu.cell => c,
                _ => library
                    .cell(&fu.cell)
                    .ok_or_else(|| AllocError::MissingCell {
                        class: fu.cell.clone(),
                    })?,
            };
            last = Some(cell);
            visit(Part::Fu(i, fu), cell.name, Some(cell), fu.width);
        }
        let mem = library.cell(MEM_CELL);
        for (i, name) in self.vars.memories().iter().enumerate() {
            visit(Part::Memory(i, name), MEM_CELL, mem, 32);
        }
        let mux = library.cell(MUX_CELL);
        for m in 0..self.mux_inputs {
            visit(Part::Mux(m), MUX_CELL, mux, 32);
        }
        Ok(())
    }
}

// The library cells every datapath register, memory and mux instantiates.
const REG_CELL: &str = "reg_dff";
const MEM_CELL: &str = "mem_1rw";
const MUX_CELL: &str = "mux2";

/// One cell instance of a [`Datapath`], as [`Datapath::for_each_cell`]
/// visits it.
enum Part<'a> {
    /// The `i`-th register.
    Reg(usize, &'a RegDesc),
    /// The `i`-th functional unit.
    Fu(usize, &'a FuDesc),
    /// The `i`-th memory, by name.
    Memory(usize, &'a str),
    /// The `m`-th 2-way mux.
    Mux(usize),
}

/// Builds the shared datapath for a scheduled behavior, with a
/// [`VariableTable`] of its own. A caller that builds many datapaths of
/// one behavior builds the table once and calls [`build_datapath_with`].
///
/// # Errors
///
/// Returns [`AllocError::MissingSchedule`] when a block lacks a schedule.
pub fn build_datapath(
    cdfg: &Cdfg,
    schedule: &CdfgSchedule,
    classifier: &OpClassifier,
    library: &Library,
    strategy: FuStrategy,
) -> Result<Datapath, AllocError> {
    let vars = Arc::new(VariableTable::new(cdfg));
    build_datapath_with(&vars, cdfg, schedule, classifier, library, strategy)
}

/// [`build_datapath`] against `vars`, which must be the table of `cdfg`;
/// the datapath shares it.
///
/// # Errors
///
/// As [`build_datapath`].
pub fn build_datapath_with(
    vars: &Arc<VariableTable>,
    cdfg: &Cdfg,
    schedule: &CdfgSchedule,
    classifier: &OpClassifier,
    library: &Library,
    strategy: FuStrategy,
) -> Result<Datapath, AllocError> {
    let n_vars = vars.var_count();

    // Pass 1: per block, the register map and the FU binding.
    let order = cdfg.block_order();
    let mut temp_widths: Vec<u8> = Vec::new();
    let mut fu_slots: BTreeMap<FuClass, usize> = BTreeMap::new(); // max per class
    let mut seen: HashSet<BlockId> = HashSet::with_capacity(order.len());
    let mut bound = Vec::with_capacity(order.len());
    for &block in &order {
        if !seen.insert(block) {
            continue; // blocks may repeat in the order (shared in regions)
        }
        let dfg = &cdfg.block(block).dfg;
        let sched = schedule
            .block(block)
            .ok_or_else(|| AllocError::MissingSchedule {
                block: cdfg.block(block).name.clone(),
            })?;
        // The block's one register map, read by the binder and by the
        // signal record: block inputs in their variable registers, temps
        // (left-edge over the op results) after the variables.
        let mut value_reg = DenseMap::with_len(dfg.value_capacity());
        for &(v, r) in vars.blocks.get(block).map_or(&[][..], |b| &b.inputs) {
            value_reg.insert(v, r);
        }
        let mut intervals = value_intervals(dfg, sched);
        intervals.retain(|iv| matches!(dfg.value(iv.value).def, ValueDef::Op(_)));
        let local_regs = left_edge(&intervals);
        for iv in &intervals {
            let t =
                *local_regs
                    .assignment
                    .get(iv.value)
                    .ok_or_else(|| AllocError::UnboundValue {
                        value: format!("{:?}", iv.value),
                    })?;
            if t >= temp_widths.len() {
                temp_widths.resize(t + 1, 1);
            }
            temp_widths[t] = temp_widths[t].max(dfg.value(iv.value).width);
            value_reg.insert(iv.value, n_vars + t);
        }
        let regs = RegisterAllocation {
            assignment: value_reg,
            count: n_vars + local_regs.count,
        };
        let fu_alloc = match strategy {
            FuStrategy::GreedyAware => greedy_allocation(dfg, classifier, sched, &regs, true)?,
            FuStrategy::GreedyBlind => greedy_allocation(dfg, classifier, sched, &regs, false)?,
            FuStrategy::Clique(m) => clique_allocation(dfg, classifier, sched, m),
        };
        // Per-class local indices.
        let mut class_counts: BTreeMap<FuClass, usize> = BTreeMap::new();
        for fu in &fu_alloc.fus {
            *class_counts.entry(fu.class).or_insert(0) += 1;
        }
        for (class, count) in class_counts {
            let e = fu_slots.entry(class).or_insert(0);
            *e = (*e).max(count);
        }
        bound.push((block, dfg, sched, fu_alloc, regs.assignment));
    }

    // Global FU table: class-major, slot-minor.
    let mut fus: Vec<FuDesc> = Vec::new();
    let mut fu_base: BTreeMap<FuClass, usize> = BTreeMap::new();
    for (&class, &count) in &fu_slots {
        fu_base.insert(class, fus.len());
        for slot in 0..count {
            let cell_class = cell_class_for(class);
            let cell =
                library
                    .bind(cell_class, 32, None)
                    .ok_or_else(|| AllocError::MissingCell {
                        class: class.to_string(),
                    })?;
            fus.push(FuDesc {
                name: format!("{}{}", class.name(), slot),
                class,
                cell: cell.name.to_string(),
                width: 32,
                ports: 2,
            });
        }
    }

    // Pass 2: rebind per block onto the global tables, recording each
    // step's signals into the one table.
    let mut blocks: HashMap<BlockId, BlockBinding> = HashMap::with_capacity(bound.len());
    let mut table = SignalTable::default();
    let mut mux_inputs = 0usize;
    let mut local_to_global: Vec<usize> = Vec::new();
    for (b, (block, dfg, sched, fu_alloc, value_reg)) in bound.into_iter().enumerate() {
        // Local unit -> global: i-th unit of class c maps to base(c) + rank.
        let mut class_rank: BTreeMap<FuClass, usize> = BTreeMap::new();
        local_to_global.clear();
        for fu in &fu_alloc.fus {
            let rank = class_rank.entry(fu.class).or_insert(0);
            let base = fu_base
                .get(&fu.class)
                .ok_or_else(|| AllocError::MissingCell {
                    class: fu.class.to_string(),
                })?;
            let g = base + *rank;
            *rank += 1;
            local_to_global.push(g);
            fus[g].ports = fus[g].ports.max(fu.ports);
        }
        let mut op_fu = fu_alloc.binding;
        for f in op_fu.values_mut() {
            *f = local_to_global[*f];
        }
        let signals = Resolver::new(dfg, classifier, sched, &op_fu, &value_reg)
            .signals(vars.writes(block), &mut table)?;
        // Each FU port's and register's distinct sources over the block.
        // Loads of chained free ops into temporaries (`r5<=r2>>`) are left
        // out: counting them would move `mux_inputs` and every area built
        // on it, so they wait for mux trees wired per sink.
        for &i in signals.iter().flatten() {
            let free_temp = matches!(table.signals[i],
                Signal::Load { reg, src: Source::Free(..) } if reg >= n_vars);
            if !free_temp {
                mux_inputs += table.wire(i, b + 1);
            }
        }
        let binding = BlockBinding {
            op_fu,
            value_reg,
            signals,
        };
        blocks.insert(block, binding);
    }

    let var_regs = (0..).zip(vars.widths()).map(|(v, w)| (w, RegKind::Var(v)));
    let temps = (0..).zip(&temp_widths).map(|(t, &w)| (w, RegKind::Temp(t)));
    let reg = |(width, kind)| RegDesc { width, kind };

    Ok(Datapath {
        fus,
        regs: var_regs.chain(temps).map(reg).collect(),
        vars: Arc::clone(vars),
        blocks,
        signals: table.signals,
        mux_inputs,
    })
}

/// The datapath's signal table under construction: every distinct
/// signal once, found again without hashing along a chain threaded
/// through the table, one chain per FU (operation selects) and one per
/// sink (operand selects and loads).
#[derive(Default)]
struct SignalTable {
    signals: Vec<Signal>,
    /// Per signal: the next signal of its chain, and the last block
    /// (counted from 1) that [`SignalTable::wire`] wired it in.
    links: Vec<(Option<usize>, usize)>,
    /// The head of each FU's chain.
    ops: Vec<Option<usize>>,
    sinks: PerSink<Wiring>,
}

/// A sink's chain head, and the sources the latest block wired into it.
#[derive(Clone, Copy, Default)]
struct Wiring {
    head: Option<usize>,
    block: usize,
    sources: usize,
}

impl SignalTable {
    /// The table index of `signal`, added when new.
    fn intern(&mut self, signal: Signal) -> usize {
        let head = match signal {
            Signal::FuOp { fu, .. } => grown(&mut self.ops, fu),
            Signal::PortSel { fu, port, .. } => &mut self.sinks.slot(Sink::Port { fu, port }).head,
            Signal::Load { reg, .. } => &mut self.sinks.slot(Sink::Reg(reg)).head,
        };
        let mut at = *head;
        while let Some(i) = at {
            if self.signals[i] == signal {
                return i;
            }
            at = self.links[i].0;
        }
        let i = self.signals.len();
        self.links.push((head.replace(i), 0));
        self.signals.push(signal);
        i
    }

    /// The mux inputs that wiring signal `i` in `block` (counted from 1)
    /// adds: an operand select or a load wires its source into its sink,
    /// at the one interconnect [`price`] of a source new to the sink in
    /// this block.
    fn wire(&mut self, i: usize, block: usize) -> usize {
        let sink = match self.signals[i] {
            Signal::PortSel { fu, port, .. } => Sink::Port { fu, port },
            Signal::Load { reg, .. } => Sink::Reg(reg),
            Signal::FuOp { .. } => return 0,
        };
        let new = std::mem::replace(&mut self.links[i].1, block) != block;
        let wiring = self.sinks.slot(sink);
        if wiring.block != block {
            (wiring.block, wiring.sources) = (block, 0);
        }
        let cost = price(new, wiring.sources);
        wiring.sources += usize::from(new);
        cost
    }
}

/// The binding tables of one block, against which allocation resolves
/// every operand's source: the binders price placements with it, the
/// interconnect views count with it, and [`build_datapath`] records the
/// block's control signals with it.
pub(crate) struct Resolver<'a> {
    dfg: &'a DataFlowGraph,
    classifier: &'a OpClassifier,
    sched: &'a Schedule,
    /// FU per step-taking op (partial while a binder is still placing).
    op_fu: &'a DenseMap<OpId, usize>,
    /// Register per value read from one, block inputs included.
    value_reg: &'a DenseMap<ValueId, usize>,
}

impl<'a> Resolver<'a> {
    pub(crate) fn new(
        dfg: &'a DataFlowGraph,
        classifier: &'a OpClassifier,
        sched: &'a Schedule,
        op_fu: &'a DenseMap<OpId, usize>,
        value_reg: &'a DenseMap<ValueId, usize>,
    ) -> Self {
        Resolver {
            dfg,
            classifier,
            sched,
            op_fu,
            value_reg,
        }
    }

    /// The source feeding `value` when read at `step`: its register when
    /// it is a block input or was stored before `step`, a wired
    /// constant, or the same-step combinational path from the producing
    /// FU through any chained free ops.
    ///
    /// # Errors
    ///
    /// [`AllocError::UnboundValue`] for a value read from a register it
    /// lacks; [`AllocError::UnboundOp`] for a same-step producer without
    /// an FU.
    pub(crate) fn source(&self, value: ValueId, step: u32) -> Result<Source, AllocError> {
        let stored = || {
            self.value_reg
                .get(value)
                .map(|&r| Source::Reg(r))
                .ok_or_else(|| AllocError::UnboundValue {
                    value: format!("{value:?}"),
                })
        };
        let ValueDef::Op(p) = self.dfg.value(value).def else {
            return stored();
        };
        let op = self.dfg.op(p);
        if op.kind == OpKind::Const {
            Ok(Source::Const(op.constant.unwrap_or_default()))
        } else if self.sched.step(p).unwrap_or(0) < step {
            stored()
        } else if self.classifier.is_free(self.dfg, p) {
            let inner = self.source(op.operands[0], step)?;
            Ok(Source::Free(op.kind, Box::new(inner)))
        } else {
            self.op_fu
                .get(p)
                .map(|&f| Source::Fu(f))
                .ok_or_else(|| AllocError::UnboundOp {
                    op: format!("{p:?}"),
                })
        }
    }

    /// The control signals of each step of the block, as indices into
    /// `table`: per step-taking op its FU operation, operand selects and
    /// result load; per stored chained free op its load from the wire
    /// through it; and in the last step the end-of-block writes into the
    /// variable registers.
    fn signals(
        &self,
        writes: &[OutputWrite],
        table: &mut SignalTable,
    ) -> Result<Vec<Vec<usize>>, AllocError> {
        let steps = self.sched.num_steps().max(1);
        let by_step = self.sched.by_step();
        let mut out = Vec::with_capacity(steps as usize);
        for step in 0..steps {
            let mut signals = Vec::new();
            for id in by_step.ops_in(step) {
                let op = self.dfg.op(id);
                let result = self.dfg.result(id);
                let stored = result.and_then(|v| self.value_reg.get(v).copied());
                match (self.op_fu.get(id), stored, result) {
                    (Some(&fu), ..) => {
                        signals.push(table.intern(Signal::FuOp { fu, kind: op.kind }));
                        for (port, &v) in op.operands.iter().enumerate() {
                            let src = self.source(v, step)?;
                            signals.push(table.intern(Signal::PortSel { fu, port, src }));
                        }
                        if let Some(reg) = stored {
                            let src = Source::Fu(fu);
                            signals.push(table.intern(Signal::Load { reg, src }));
                        }
                    }
                    (None, Some(reg), Some(v))
                        if op.kind != OpKind::Const && self.classifier.is_free(self.dfg, id) =>
                    {
                        let src = self.source(v, step)?;
                        signals.push(table.intern(Signal::Load { reg, src }));
                    }
                    _ => {}
                }
            }
            if step + 1 == steps {
                for w in writes {
                    let src = self.source(w.value, steps)?;
                    signals.push(table.intern(Signal::Load { reg: w.reg, src }));
                }
            }
            out.push(signals);
        }
        Ok(out)
    }
}

/// The library cell class implementing an FU class — the binding
/// [`build_datapath`] uses when it instantiates functional units.
pub fn cell_class_for(class: FuClass) -> CellClass {
    match class {
        FuClass::Universal => CellClass::Universal,
        FuClass::Alu => CellClass::Alu,
        FuClass::Multiplier => CellClass::Multiplier,
        FuClass::Divider => CellClass::Divider,
        FuClass::Shifter => CellClass::Shifter,
        FuClass::Comparator => CellClass::Comparator,
        FuClass::Logic => CellClass::Logic,
        FuClass::MemPort => CellClass::Memory,
    }
}

/// `prefix` then `name` with every non-alphanumeric character as `_`.
fn sanitized<'a>(prefix: &'a str, name: &'a str) -> impl fmt::Display + 'a {
    fmt::from_fn(move |f| {
        f.write_str(prefix)?;
        let mut chars = name.chars();
        chars.try_for_each(|c| f.write_char(if c.is_alphanumeric() { c } else { '_' }))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_sched::{schedule_cdfg, Algorithm, OpClassifier, Priority, ResourceLimits};

    fn sqrt_datapath(strategy: FuStrategy) -> (Cdfg, Datapath) {
        let mut cdfg = hls_lang::compile(hls_workloads::sources::SQRT).unwrap();
        hls_opt::optimize(&mut cdfg);
        let cls = OpClassifier::universal_free_shifts();
        let limits = ResourceLimits::universal(2);
        let sched =
            schedule_cdfg(&cdfg, &cls, &limits, Algorithm::List(Priority::PathLength)).unwrap();
        let dp = build_datapath(&cdfg, &sched, &cls, &Library::standard(), strategy).unwrap();
        (cdfg, dp)
    }

    #[test]
    fn sqrt_datapath_shape() {
        let (cdfg, dp) = sqrt_datapath(FuStrategy::GreedyAware);
        // 2 universal FUs (the paper's 2-FU design).
        assert_eq!(dp.fu_count(), 2);
        assert!(dp.fus.iter().all(|f| f.class == FuClass::Universal));
        // Variable registers for X, Y, I plus the loop-exit flag.
        assert!(dp.vars.register("X").is_some());
        assert!(dp.vars.register("Y").is_some());
        assert!(dp.vars.register("I").is_some());
        // The narrowed counter register is 2 bits wide.
        let i_reg = &dp.regs[dp.vars.register("I").unwrap()];
        assert_eq!(i_reg.width, 2);
        assert!(dp.mux_inputs > 0);
        assert_eq!(dp.blocks.len(), cdfg.block_order().len());
    }

    #[test]
    fn all_strategies_build_sqrt() {
        for strategy in [
            FuStrategy::GreedyAware,
            FuStrategy::GreedyBlind,
            FuStrategy::Clique(CliqueMethod::ExactMaxClique),
            FuStrategy::Clique(CliqueMethod::Tseng),
        ] {
            let (_, dp) = sqrt_datapath(strategy);
            assert_eq!(dp.fu_count(), 2, "{strategy:?}");
            assert!(dp.reg_count() >= 4, "{strategy:?}");
        }
    }

    #[test]
    fn dot_lists_components_and_edges() {
        let mut cdfg = hls_lang::compile(hls_workloads::sources::SQRT).unwrap();
        hls_opt::optimize(&mut cdfg);
        let cls = OpClassifier::universal_free_shifts();
        let sched = hls_sched::schedule_cdfg(
            &cdfg,
            &cls,
            &hls_sched::ResourceLimits::universal(2),
            hls_sched::Algorithm::List(hls_sched::Priority::PathLength),
        )
        .unwrap();
        let dp = build_datapath(
            &cdfg,
            &sched,
            &cls,
            &Library::standard(),
            FuStrategy::GreedyAware,
        )
        .unwrap();
        let dot = dp.to_dot(&cdfg);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("shape=circle"));
        assert!(dot.contains("->"));
        assert!(dot.contains("rv_Y"));
    }

    #[test]
    fn netlist_roundtrip_and_area() {
        let (cdfg, dp) = sqrt_datapath(FuStrategy::GreedyAware);
        let lib = Library::standard();
        let netlist = dp.to_netlist(&cdfg, &lib).unwrap();
        netlist.validate().unwrap();
        let report = hls_rtl::estimate(&netlist, &lib);
        assert!(report.total() > 0.0);
        let v = hls_rtl::to_verilog(&netlist);
        assert!(v.contains("module sqrt"));
    }

    /// `Datapath::area` prices the cells `to_netlist` instantiates, so
    /// it equals `estimate` of that netlist bit for bit: registers, FUs,
    /// a memory (SUMSQ's array) and the muxes, under the standard
    /// library and one whose cheaper universal cell the FUs bind.
    #[test]
    fn area_equals_the_netlist_estimate_bit_for_bit() {
        fn bits(r: &AreaReport) -> (u64, u64, u64, Vec<(&'static str, u64)>) {
            let by_class = r.by_class.iter().map(|(&c, a)| (c, a.to_bits())).collect();
            let totals = (r.cell_area.to_bits(), r.wiring_area.to_bits());
            (totals.0, totals.1, r.clock_ns.to_bits(), by_class)
        }
        let lean = Library::standard().with_cell(CellSpec {
            name: "fu_lean",
            class: CellClass::Universal,
            area_base: 90.0,
            area_per_bit: 120.0,
            delay_base: 40.0,
            delay_per_bit: 4.0,
        });
        let cls = OpClassifier::universal_free_shifts();
        let mut memories = 0;
        for src in [hls_workloads::sources::SQRT, hls_workloads::sources::SUMSQ] {
            let mut cdfg = hls_lang::compile(src).unwrap();
            hls_opt::optimize(&mut cdfg);
            for fus in 1..=3 {
                let limits = ResourceLimits::universal(fus);
                let algorithm = Algorithm::List(Priority::PathLength);
                let sched = schedule_cdfg(&cdfg, &cls, &limits, algorithm).unwrap();
                for lib in [Library::standard(), lean.clone()] {
                    for strategy in [
                        FuStrategy::GreedyAware,
                        FuStrategy::GreedyBlind,
                        FuStrategy::Clique(CliqueMethod::Tseng),
                    ] {
                        let dp = build_datapath(&cdfg, &sched, &cls, &lib, strategy).unwrap();
                        let netlist = dp.to_netlist(&cdfg, &lib).unwrap();
                        let priced = dp.area(&lib).unwrap();
                        assert_eq!(bits(&priced), bits(&hls_rtl::estimate(&netlist, &lib)));
                        memories += dp.vars.memories().len();
                    }
                }
            }
        }
        assert!(memories > 0, "SUMSQ's array is priced as a memory");
    }

    /// A library without a unit's bound cell fails both views alike.
    #[test]
    fn area_and_netlist_report_the_same_missing_cell() {
        let (cdfg, mut dp) = sqrt_datapath(FuStrategy::GreedyAware);
        dp.fus[1].cell = "fu_gone".into();
        let lib = Library::standard();
        let missing = AllocError::MissingCell {
            class: "fu_gone".into(),
        };
        assert_eq!(dp.area(&lib), Err(missing.clone()));
        assert_eq!(dp.to_netlist(&cdfg, &lib).map(|_| ()), Err(missing));
    }

    /// A missing register or FU binding is an error, never a
    /// plausible-looking source.
    #[test]
    fn resolver_reports_missing_bindings() {
        let mut cdfg = hls_lang::compile(hls_workloads::sources::SQRT).unwrap();
        hls_opt::optimize(&mut cdfg);
        let cls = OpClassifier::universal_free_shifts();
        let limits = ResourceLimits::universal(2);
        let schedule =
            schedule_cdfg(&cdfg, &cls, &limits, Algorithm::List(Priority::PathLength)).unwrap();
        let lib = Library::standard();
        let dp = build_datapath(&cdfg, &schedule, &cls, &lib, FuStrategy::GreedyAware).unwrap();
        // The loop body: X / Y feeds an add one step later.
        let block = cdfg.block_order()[1];
        let dfg = &cdfg.block(block).dfg;
        let sched = schedule.block(block).unwrap();
        let binding = &dp.blocks[&block];
        let (mut op_fu, mut value_reg) = (binding.op_fu.clone(), binding.value_reg.clone());
        let (op, &fu) = binding
            .op_fu
            .iter()
            .find(|&(op, _)| dfg.result(op).and_then(|v| value_reg.get(v)).is_some())
            .unwrap();
        let (value, step) = (dfg.result(op).unwrap(), sched.step(op).unwrap());
        let input = dfg.inputs()[0];
        let ValueDef::BlockInput(var) = &dfg.value(input).def else {
            panic!("block inputs are defined as such");
        };
        let resolve =
            |op_fu: &DenseMap<OpId, usize>, value_reg: &DenseMap<ValueId, usize>, value, step| {
                Resolver::new(dfg, &cls, sched, op_fu, value_reg).source(value, step)
            };
        // Bound: the FU output in its own step, the register after it,
        // and a block input's variable register, from the same map.
        assert_eq!(resolve(&op_fu, &value_reg, value, step), Ok(Source::Fu(fu)));
        assert_eq!(
            resolve(&op_fu, &value_reg, value, step + 1),
            Ok(Source::Reg(value_reg[&value]))
        );
        assert_eq!(value_reg[&input], dp.vars.register(var).unwrap());
        assert_eq!(
            resolve(&op_fu, &value_reg, input, 0),
            Ok(Source::Reg(dp.vars.register(var).unwrap()))
        );
        op_fu.remove(op);
        value_reg.remove(value);
        value_reg.remove(input);
        assert!(matches!(
            resolve(&op_fu, &value_reg, value, step),
            Err(AllocError::UnboundOp { .. })
        ));
        assert!(matches!(
            resolve(&op_fu, &value_reg, value, step + 1),
            Err(AllocError::UnboundValue { .. })
        ));
        assert!(matches!(
            resolve(&op_fu, &value_reg, input, 0),
            Err(AllocError::UnboundValue { .. })
        ));
    }

    /// A block input lives in the register of the variable it reads,
    /// even when its value carries another variable's name: a block that
    /// passes `Y`'s input out as `X` copies `Y`'s register into `X`'s.
    /// The lowering copies such a value instead, so the block is built
    /// by hand.
    #[test]
    fn renamed_block_input_reads_its_own_variable() {
        let mut dfg = DataFlowGraph::new();
        let input = dfg.add_input("Y", 32);
        dfg.value_mut(input).name = "X".into();
        dfg.set_output("X", input);
        let mut cdfg = Cdfg::new("t");
        cdfg.declare_input("Y", 32);
        cdfg.declare_output("X");
        let block = cdfg.add_block("entry", dfg);
        cdfg.set_body(hls_cdfg::Region::Block(block));
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
        let binding = &dp.blocks[&block];
        let load = Signal::Load {
            reg: dp.vars.register("X").unwrap(),
            src: Source::Reg(dp.vars.register("Y").unwrap()),
        };
        let last = binding.signals.last().unwrap();
        assert!(last.iter().any(|&i| dp.signals[i] == load));
    }

    /// The mux count and the DOT edges are views of the recorded
    /// signals: every FU-bound op contributes an operation, one select
    /// per operand and, when its result is stored, a load.
    #[test]
    fn recorded_signals_cover_every_bound_op() {
        let (cdfg, dp) = sqrt_datapath(FuStrategy::GreedyAware);
        for block in cdfg.block_order() {
            let dfg = &cdfg.block(block).dfg;
            let binding = &dp.blocks[&block];
            let recorded: Vec<&Signal> = binding
                .signals
                .iter()
                .flatten()
                .map(|&i| &dp.signals[i])
                .collect();
            for (op, &fu) in binding.op_fu.iter() {
                let kind = dfg.op(op).kind;
                assert!(recorded.contains(&&Signal::FuOp { fu, kind }));
                let selects = recorded
                    .iter()
                    .filter(|s| matches!(s, Signal::PortSel { fu: f, .. } if *f == fu))
                    .count();
                assert!(selects >= dfg.op(op).operands.len());
            }
        }
    }

    #[test]
    fn temps_shared_across_blocks() {
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
        let temps = dp
            .regs
            .iter()
            .filter(|r| matches!(r.kind, RegKind::Temp(_)))
            .count();
        // Several blocks, but temps are pooled: far fewer than one per value.
        let total_values: usize = cdfg
            .block_order()
            .iter()
            .map(|&b| cdfg.block(b).dfg.value_ids().count())
            .sum();
        assert!(
            temps < total_values / 2,
            "temps = {temps}, values = {total_values}"
        );
    }
}
