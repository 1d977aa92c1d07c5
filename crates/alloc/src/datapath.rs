//! Whole-behavior datapath assembly.
//!
//! Merges per-block register and functional-unit allocations into one
//! shared datapath — "a network of registers, functional units,
//! multiplexers and buses" (§1.1) — plus the binding information the
//! controller generator and the RTL simulator consume.
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

use std::collections::{BTreeMap, BTreeSet, HashMap};

use hls_cdfg::{BlockId, Cdfg, OpId, OpKind, ValueDef, ValueId};
use hls_rtl::{CellClass, Library, Netlist, PortDir};
use hls_sched::{CdfgSchedule, FuClass, OpClassifier};

use crate::error::AllocError;
use crate::fu::{clique_allocation, greedy_allocation, CliqueMethod, FuAllocation};
use crate::lifetime::value_intervals;
use crate::registers::left_edge;

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
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegKind {
    /// A named program variable, live across blocks.
    Var(String),
    /// A shared intra-block temporary.
    Temp(usize),
}

/// A physical register.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegDesc {
    /// Instance name.
    pub name: String,
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

/// An end-of-block write of `value` into the variable register of `var`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputWrite {
    /// Destination variable.
    pub var: String,
    /// The written value.
    pub value: ValueId,
}

/// Per-block binding details.
#[derive(Clone, Debug, Default)]
pub struct BlockBinding {
    /// Global FU index per step-taking op.
    pub op_fu: HashMap<OpId, usize>,
    /// Global register index per stored intra-block value.
    pub value_reg: HashMap<ValueId, usize>,
    /// End-of-block variable writes.
    pub writes: Vec<OutputWrite>,
    /// The per-block FU allocation (for interconnect reports).
    pub fu_alloc: FuAllocation,
}

/// The assembled datapath.
#[derive(Clone, Debug)]
pub struct Datapath {
    /// Functional units.
    pub fus: Vec<FuDesc>,
    /// Registers (variables first, then temps).
    pub regs: Vec<RegDesc>,
    /// Variable name → register index.
    pub var_reg: BTreeMap<String, usize>,
    /// Per-block bindings.
    pub blocks: HashMap<BlockId, BlockBinding>,
    /// Named memories accessed by the behavior (one single-port RAM each).
    pub memories: Vec<String>,
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

    /// Renders the datapath structure as a Graphviz DOT digraph: registers
    /// as boxes, functional units as circles, memories as 3-D boxes, with
    /// one edge per distinct source→sink connection (fan-in above one
    /// implies a multiplexer at the sink).
    pub fn to_dot(
        &self,
        cdfg: &Cdfg,
        schedule: &CdfgSchedule,
        classifier: &OpClassifier,
    ) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "digraph \"{}_datapath\" {{", cdfg.name());
        let _ = writeln!(s, "  rankdir=LR;");
        for (i, reg) in self.regs.iter().enumerate() {
            let _ = writeln!(
                s,
                "  r{i} [label=\"{} [{}]\", shape=box];",
                reg.name, reg.width
            );
        }
        for (i, fu) in self.fus.iter().enumerate() {
            let _ = writeln!(s, "  fu{i} [label=\"{}\", shape=circle];", fu.name);
        }
        for (i, mem) in self.memories.iter().enumerate() {
            let _ = writeln!(s, "  mem{i} [label=\"{mem}\", shape=box3d];");
        }
        let mut edges: BTreeSet<(String, String)> = BTreeSet::new();
        for block in cdfg.block_order() {
            let Some(binding) = self.blocks.get(&block) else {
                continue;
            };
            let Some(sched) = schedule.block(block) else {
                continue;
            };
            let dfg = &cdfg.block(block).dfg;
            for op in dfg.op_ids() {
                let Some(&f) = binding.op_fu.get(&op) else {
                    continue;
                };
                let step = sched.step(op).unwrap_or(0);
                for &v in &dfg.op(op).operands {
                    let src = global_source(
                        dfg,
                        classifier,
                        sched,
                        &binding.op_fu,
                        &binding.value_reg,
                        &self.var_reg,
                        v,
                        step,
                    );
                    if !src.starts_with('#') {
                        edges.insert((dot_node(&src), format!("fu{f}")));
                    }
                }
                if let Some(res) = dfg.result(op) {
                    if let Some(&r) = binding.value_reg.get(&res) {
                        edges.insert((format!("fu{f}"), format!("r{r}")));
                    }
                }
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
        for fu in &self.fus {
            if library.cell(&fu.cell).is_none() {
                return Err(AllocError::MissingCell {
                    class: fu.cell.clone(),
                });
            }
        }
        let mut n = Netlist::new(cdfg.name());
        for (name, width) in cdfg.inputs() {
            n.add_port(&format!("in_{name}"), PortDir::In, *width);
        }
        for name in cdfg.outputs() {
            n.add_port(&format!("out_{name}"), PortDir::Out, 32);
        }
        for (i, reg) in self.regs.iter().enumerate() {
            let d = n.add_net(&format!("r{i}_d"), reg.width);
            let q = n.add_net(&format!("r{i}_q"), reg.width);
            n.add_instance(
                &reg.name,
                "reg_dff",
                reg.width,
                vec![("d".into(), d), ("q".into(), q)],
            );
        }
        for (i, fu) in self.fus.iter().enumerate() {
            let mut pins = Vec::new();
            for p in 0..fu.ports.max(1) {
                let net = n.add_net(&format!("fu{i}_p{p}"), fu.width);
                pins.push((format!("p{p}"), net));
            }
            let y = n.add_net(&format!("fu{i}_y"), fu.width);
            pins.push(("y".to_string(), y));
            n.add_instance(&fu.name, &fu.cell, fu.width, pins);
        }
        for (i, mem) in self.memories.iter().enumerate() {
            let addr = n.add_net(&format!("mem{i}_addr"), 32);
            let q = n.add_net(&format!("mem{i}_q"), 32);
            n.add_instance(
                &format!("mem_{}", sanitize(mem)),
                "mem_1rw",
                32,
                vec![("addr".into(), addr), ("q".into(), q)],
            );
        }
        // One 2-way mux instance per extra source (n-way = n-1 two-way).
        for m in 0..self.mux_inputs {
            let a = n.add_net(&format!("mux{m}_a"), 32);
            let y = n.add_net(&format!("mux{m}_y"), 32);
            n.add_instance(
                &format!("mux{m}"),
                "mux2",
                32,
                vec![("a".into(), a), ("y".into(), y)],
            );
        }
        Ok(n)
    }
}

/// Builds the shared datapath for a scheduled behavior.
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
    // Pass 1: variable registers from every block boundary crossing.
    let var_widths = variable_widths(cdfg);
    let mut regs: Vec<RegDesc> = Vec::new();
    let mut var_reg: BTreeMap<String, usize> = BTreeMap::new();
    for (name, width) in &var_widths {
        var_reg.insert(name.clone(), regs.len());
        regs.push(RegDesc {
            name: format!("rv_{}", sanitize(name)),
            width: *width,
            kind: RegKind::Var(name.clone()),
        });
    }
    let n_vars = regs.len();

    // Pass 2: per-block temp allocation + FU allocation; merge.
    let mut temp_widths: Vec<u8> = Vec::new();
    let mut fu_slots: BTreeMap<FuClass, usize> = BTreeMap::new(); // max per class
    let mut blocks: HashMap<BlockId, BlockBinding> = HashMap::new();
    let mut per_block_local: HashMap<
        BlockId,
        (FuAllocation, crate::registers::RegisterAllocation),
    > = HashMap::new();

    for block in cdfg.block_order() {
        if blocks.contains_key(&block) {
            continue; // blocks may repeat in the order (shared in regions)
        }
        let dfg = &cdfg.block(block).dfg;
        let sched = schedule
            .block(block)
            .ok_or_else(|| AllocError::MissingSchedule {
                block: cdfg.block(block).name.clone(),
            })?;
        // Temps: intervals excluding block inputs (those live in var regs).
        let intervals: Vec<_> = value_intervals(dfg, sched)
            .into_iter()
            .filter(|iv| matches!(dfg.value(iv.value).def, ValueDef::Op(_)))
            .collect();
        let local_regs = left_edge(&intervals);
        for iv in &intervals {
            let t =
                *local_regs
                    .assignment
                    .get(&iv.value)
                    .ok_or_else(|| AllocError::UnboundValue {
                        value: format!("{:?}", iv.value),
                    })?;
            if t >= temp_widths.len() {
                temp_widths.resize(t + 1, 1);
            }
            temp_widths[t] = temp_widths[t].max(dfg.value(iv.value).width);
        }
        let fu_alloc = match strategy {
            FuStrategy::GreedyAware => greedy_allocation(dfg, classifier, sched, &local_regs, true),
            FuStrategy::GreedyBlind => {
                greedy_allocation(dfg, classifier, sched, &local_regs, false)
            }
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
        per_block_local.insert(block, (fu_alloc, local_regs));
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

    // Pass 3: rebind per block onto the global tables.
    let mut mux_inputs = 0usize;
    for block in cdfg.block_order() {
        if blocks.contains_key(&block) {
            continue;
        }
        let dfg = &cdfg.block(block).dfg;
        let sched = schedule
            .block(block)
            .ok_or_else(|| AllocError::MissingSchedule {
                block: cdfg.block(block).name.clone(),
            })?;
        let (fu_alloc, local_regs) =
            per_block_local
                .remove(&block)
                .ok_or_else(|| AllocError::MissingSchedule {
                    block: cdfg.block(block).name.clone(),
                })?;
        // Local unit -> global: i-th unit of class c maps to base(c) + rank.
        let mut class_rank: BTreeMap<FuClass, usize> = BTreeMap::new();
        let mut local_to_global: Vec<usize> = Vec::with_capacity(fu_alloc.fus.len());
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
        let op_fu: HashMap<OpId, usize> = fu_alloc
            .binding
            .iter()
            .map(|(&op, &f)| (op, local_to_global[f]))
            .collect();
        let value_reg: HashMap<ValueId, usize> = local_regs
            .assignment
            .iter()
            .map(|(&v, &t)| (v, n_vars + t))
            .collect();
        let writes: Vec<OutputWrite> = dfg
            .outputs()
            .iter()
            .map(|(name, v)| OutputWrite {
                var: name.clone(),
                value: *v,
            })
            .collect();
        // Interconnect estimate on the global indices.
        mux_inputs += block_mux_inputs(dfg, classifier, sched, &op_fu, &value_reg, &var_reg);
        blocks.insert(
            block,
            BlockBinding {
                op_fu,
                value_reg,
                writes,
                fu_alloc,
            },
        );
    }

    for (t, &width) in temp_widths.iter().enumerate() {
        regs.push(RegDesc {
            name: format!("rt{t}"),
            width,
            kind: RegKind::Temp(t),
        });
    }

    let memories = memory_names(cdfg);

    Ok(Datapath {
        fus,
        regs,
        var_reg,
        blocks,
        memories,
        mux_inputs,
    })
}

/// Canonical description of the datapath source feeding `value` when read
/// at `step`, against the global register/FU tables: `rN` for registers,
/// `#c` for wired constants, `fuN` (possibly with a free-op suffix) for
/// same-step combinational paths. Used for interconnect counting, control
/// signal naming, and RTL simulation.
// Every argument is one of the binding tables the lookup genuinely
// needs; bundling them into a struct would just move the eight names one
// level down at three call sites.
#[allow(clippy::too_many_arguments)]
pub fn global_source(
    dfg: &hls_cdfg::DataFlowGraph,
    classifier: &OpClassifier,
    sched: &hls_sched::Schedule,
    op_fu: &HashMap<OpId, usize>,
    value_reg: &HashMap<ValueId, usize>,
    var_reg: &BTreeMap<String, usize>,
    value: ValueId,
    step: u32,
) -> String {
    match dfg.value(value).def {
        ValueDef::BlockInput(ref name) => format!("r{}", var_reg.get(name).copied().unwrap_or(0)),
        ValueDef::Op(p) => {
            if dfg.op(p).kind == OpKind::Const {
                return format!("#{}", dfg.op(p).constant.unwrap_or_default());
            }
            let def_step = sched.step(p).unwrap_or(0);
            if def_step < step {
                match value_reg.get(&value) {
                    Some(r) => format!("r{r}"),
                    None => format!("v{}", value.index()),
                }
            } else if classifier.is_free(dfg, p) {
                let inner = global_source(
                    dfg,
                    classifier,
                    sched,
                    op_fu,
                    value_reg,
                    var_reg,
                    dfg.op(p).operands[0],
                    step,
                );
                format!("{inner}{}", dfg.op(p).kind.symbol())
            } else {
                format!("fu{}", op_fu.get(&p).copied().unwrap_or(usize::MAX))
            }
        }
    }
}

/// Counts mux inputs of one block against the global binding.
fn block_mux_inputs(
    dfg: &hls_cdfg::DataFlowGraph,
    classifier: &OpClassifier,
    sched: &hls_sched::Schedule,
    op_fu: &HashMap<OpId, usize>,
    value_reg: &HashMap<ValueId, usize>,
    var_reg: &BTreeMap<String, usize>,
) -> usize {
    let mut fu_ports: HashMap<(usize, usize), BTreeSet<String>> = HashMap::new();
    let mut reg_in: HashMap<usize, BTreeSet<String>> = HashMap::new();
    for op in dfg.op_ids() {
        let Some(&f) = op_fu.get(&op) else { continue };
        let step = sched.step(op).unwrap_or(0);
        for (port, &v) in dfg.op(op).operands.iter().enumerate() {
            let src = global_source(dfg, classifier, sched, op_fu, value_reg, var_reg, v, step);
            fu_ports.entry((f, port)).or_default().insert(src);
        }
        if let Some(res) = dfg.result(op) {
            if let Some(&r) = value_reg.get(&res) {
                reg_in.entry(r).or_default().insert(format!("fu{f}"));
            }
        }
    }
    // End-of-block variable writes.
    for (name, v) in dfg.outputs() {
        if let Some(&r) = var_reg.get(name) {
            let last = sched.num_steps().saturating_sub(1);
            let src = global_source(
                dfg,
                classifier,
                sched,
                op_fu,
                value_reg,
                var_reg,
                *v,
                last + 1,
            );
            reg_in.entry(r).or_default().insert(src);
        }
    }
    fu_ports
        .values()
        .map(|s| s.len().saturating_sub(1))
        .sum::<usize>()
        + reg_in
            .values()
            .map(|s| s.len().saturating_sub(1))
            .sum::<usize>()
}

/// The variable registers a behavior needs, independent of any schedule:
/// one per named variable crossing a block boundary (program inputs
/// included), at the maximum width seen across crossings. This is
/// exactly pass 1 of [`build_datapath`]; the QoR estimator calls it to
/// price variable registers without allocating.
pub fn variable_widths(cdfg: &Cdfg) -> BTreeMap<String, u8> {
    let mut var_widths: BTreeMap<String, u8> = BTreeMap::new();
    for (name, width) in cdfg.inputs() {
        var_widths.insert(name.clone(), *width);
    }
    for block in cdfg.block_order() {
        let dfg = &cdfg.block(block).dfg;
        for &iv in dfg.inputs() {
            let v = dfg.value(iv);
            let w = var_widths.entry(v.name.clone()).or_insert(v.width);
            *w = (*w).max(v.width);
        }
        for (name, v) in dfg.outputs() {
            let width = dfg.value(*v).width;
            let w = var_widths.entry(name.clone()).or_insert(width);
            *w = (*w).max(width);
        }
    }
    var_widths
}

/// The named memories a behavior accesses (sorted, deduplicated) —
/// schedule-independent; each becomes one single-port RAM instance.
pub fn memory_names(cdfg: &Cdfg) -> Vec<String> {
    let mut memories: Vec<String> = cdfg
        .block_order()
        .iter()
        .flat_map(|&b| {
            let dfg = &cdfg.block(b).dfg;
            dfg.op_ids()
                .filter_map(|op| dfg.op(op).memory.clone())
                .collect::<Vec<_>>()
        })
        .collect();
    memories.sort();
    memories.dedup();
    memories
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

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect()
}

/// Maps a canonical source description onto a DOT node id; combinational
/// chains collapse onto their originating node.
fn dot_node(src: &str) -> String {
    let head: String = src
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if head.is_empty() {
        format!("\"{src}\"")
    } else {
        head
    }
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
        assert!(dp.var_reg.contains_key("X"));
        assert!(dp.var_reg.contains_key("Y"));
        assert!(dp.var_reg.contains_key("I"));
        // The narrowed counter register is 2 bits wide.
        let i_reg = &dp.regs[dp.var_reg["I"]];
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
        let dot = dp.to_dot(&cdfg, &sched, &cls);
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
