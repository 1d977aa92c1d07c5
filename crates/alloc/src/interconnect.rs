//! Interconnect modeling: sources, multiplexer cost, and bus allocation.
//!
//! "Communication paths, including buses and multiplexers, must be chosen
//! so that the functional units and registers are connected as necessary
//! ... The most simple type of communication path allocation is based only
//! on multiplexers. Buses, which can be seen as distributed multiplexers,
//! offer the advantage of requiring less wiring, but they may be slower"
//! (§2).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use hls_cdfg::{DataFlowGraph, OpId, OpKind, ValueDef, ValueId};
use hls_sched::{OpClassifier, Schedule};

use crate::fu::FuAllocation;
use crate::registers::RegisterAllocation;

/// Where a datapath operand comes from. Two equal sources share a wire;
/// distinct sources into the same port need a multiplexer input each.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Source {
    /// A wired constant (raw Q16.16 bits).
    Const(i64),
    /// A register.
    Reg(usize),
    /// A combinational path, canonically described (e.g. the output of FU
    /// 2 through a wired right-shift): `"fu2>>1"`.
    Wire(String),
}

impl std::fmt::Display for Source {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Source::Const(c) => write!(f, "#{}", hls_cdfg::Fx::from_raw(*c)),
            Source::Reg(r) => write!(f, "r{r}"),
            Source::Wire(w) => f.write_str(w),
        }
    }
}

/// Resolves the source feeding `value` when read by an op in `step`.
///
/// Values stored in registers read from their register; values produced in
/// the same step arrive combinationally from the producing FU (through any
/// wired free ops).
pub fn source_of(
    dfg: &DataFlowGraph,
    classifier: &OpClassifier,
    schedule: &Schedule,
    regs: &RegisterAllocation,
    fu_of: &HashMap<OpId, usize>,
    value: ValueId,
    step: u32,
) -> Source {
    match dfg.value(value).def {
        ValueDef::BlockInput(ref name) => match regs.register_of(value) {
            Some(r) => Source::Reg(r),
            None => Source::Wire(format!("in:{name}")),
        },
        ValueDef::Op(p) => {
            if dfg.op(p).kind == OpKind::Const {
                return Source::Const(dfg.op(p).constant.unwrap_or_default().raw());
            }
            let def_step = schedule.step(p).unwrap_or(0);
            if def_step < step {
                // Registered at the def boundary; read from the register.
                match regs.register_of(value) {
                    Some(r) => Source::Reg(r),
                    None => Source::Wire(format!("v{}", value.index())),
                }
            } else if classifier.is_free(dfg, p) {
                // Chained free op: describe the path through it.
                let inner = source_of(
                    dfg,
                    classifier,
                    schedule,
                    regs,
                    fu_of,
                    dfg.op(p).operands[0],
                    step,
                );
                let suffix = match dfg.op(p).kind {
                    OpKind::Shr => ">>",
                    OpKind::Shl => "<<",
                    k => k.symbol(),
                };
                let amount = dfg
                    .op(p)
                    .operands
                    .get(1)
                    .and_then(|&a| match dfg.value(a).def {
                        ValueDef::Op(c) if dfg.op(c).kind == OpKind::Const => {
                            dfg.op(c).constant.map(|f| f.to_i64())
                        }
                        _ => None,
                    })
                    .unwrap_or(0);
                Source::Wire(format!("{inner}{suffix}{amount}"))
            } else {
                // Same-step step-taking producer: its FU output.
                match fu_of.get(&p) {
                    Some(f) => Source::Wire(format!("fu{f}")),
                    None => Source::Wire(format!("op{}", p.index())),
                }
            }
        }
    }
}

/// The full connection map of a bound datapath block.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Connections {
    /// Per FU, per input port: the set of distinct sources.
    pub fu_ports: Vec<Vec<BTreeSet<Source>>>,
    /// Per register: the set of distinct sources driving its input.
    pub reg_inputs: BTreeMap<usize, BTreeSet<Source>>,
}

impl Connections {
    /// Total multiplexer inputs: each port/register with `k > 1` sources
    /// needs a `k`-way mux, costed as `k - 1` two-way muxes.
    pub fn mux_inputs(&self) -> usize {
        let fu: usize = self
            .fu_ports
            .iter()
            .flat_map(|ports| ports.iter())
            .map(|s| s.len().saturating_sub(1))
            .sum();
        let regs: usize = self
            .reg_inputs
            .values()
            .map(|s| s.len().saturating_sub(1))
            .sum();
        fu + regs
    }

    /// Total point-to-point connections (wire count for mux-based
    /// interconnect).
    pub fn wire_count(&self) -> usize {
        let fu: usize = self
            .fu_ports
            .iter()
            .flat_map(|p| p.iter())
            .map(BTreeSet::len)
            .sum();
        let regs: usize = self.reg_inputs.values().map(BTreeSet::len).sum();
        fu + regs
    }
}

/// Computes the connections implied by a schedule, register allocation,
/// and FU binding.
pub fn connections(
    dfg: &DataFlowGraph,
    classifier: &OpClassifier,
    schedule: &Schedule,
    regs: &RegisterAllocation,
    fus: &FuAllocation,
) -> Connections {
    let mut conn = Connections {
        fu_ports: fus
            .fus
            .iter()
            .map(|f| vec![BTreeSet::new(); f.ports])
            .collect(),
        reg_inputs: BTreeMap::new(),
    };
    for op in dfg.op_ids() {
        let Some(&f) = fus.binding.get(&op) else {
            continue;
        };
        let step = schedule.step(op).unwrap_or(0);
        let operands = fus.port_order(dfg, op);
        for (port, v) in operands.iter().enumerate() {
            let src = source_of(dfg, classifier, schedule, regs, &fus.binding, *v, step);
            if port < conn.fu_ports[f].len() {
                conn.fu_ports[f][port].insert(src);
            }
        }
        // Result into its register, if stored.
        if let Some(res) = dfg.result(op) {
            if let Some(r) = regs.register_of(res) {
                conn.reg_inputs
                    .entry(r)
                    .or_default()
                    .insert(Source::Wire(format!("fu{f}")));
            }
        }
    }
    // Registered results of chained free ops: driven by the combinational
    // path from their producer's FU.
    for op in dfg.op_ids() {
        if !classifier.is_free(dfg, op) || dfg.op(op).kind == OpKind::Const {
            continue;
        }
        if let Some(res) = dfg.result(op) {
            if let Some(r) = regs.register_of(res) {
                let step = schedule.step(op).unwrap_or(0);
                // Describe the combinational path driving the register.
                let drive = source_of(
                    dfg,
                    classifier,
                    schedule,
                    regs,
                    &fus.binding,
                    dfg.op(op).operands[0],
                    step,
                );
                let suffix = dfg.op(op).kind.symbol();
                conn.reg_inputs
                    .entry(r)
                    .or_default()
                    .insert(Source::Wire(format!("{drive}{suffix}")));
            }
        }
    }
    conn
}

/// A bus-based interconnect estimate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BusReport {
    /// Number of buses: the peak number of simultaneous transfers in any
    /// control step.
    pub buses: usize,
    /// Tri-state drivers: one per distinct source that must reach a bus.
    pub drivers: usize,
    /// Receiver taps: one per distinct sink.
    pub taps: usize,
}

impl BusReport {
    /// Wire-count analogue for comparing against
    /// [`Connections::wire_count`]: each bus is one shared wire plus its
    /// drivers and taps.
    pub fn wire_count(&self) -> usize {
        self.buses + self.drivers + self.taps
    }
}

/// Allocates buses for the given binding: the bus count is the maximum
/// number of simultaneous register/FU transfers in any step.
pub fn bus_allocation(
    dfg: &DataFlowGraph,
    classifier: &OpClassifier,
    schedule: &Schedule,
    regs: &RegisterAllocation,
    fus: &FuAllocation,
) -> BusReport {
    let mut per_step: HashMap<u32, BTreeSet<Source>> = HashMap::new();
    let mut sources: BTreeSet<Source> = BTreeSet::new();
    let mut sinks: BTreeSet<String> = BTreeSet::new();
    for op in dfg.op_ids() {
        let Some(&f) = fus.binding.get(&op) else {
            continue;
        };
        let step = schedule.step(op).unwrap_or(0);
        for (port, v) in fus.port_order(dfg, op).iter().enumerate() {
            let src = source_of(dfg, classifier, schedule, regs, &fus.binding, *v, step);
            if matches!(src, Source::Const(_)) {
                continue; // constants are wired, not bused
            }
            per_step.entry(step).or_default().insert(src.clone());
            sources.insert(src);
            sinks.insert(format!("fu{f}.p{port}"));
        }
        if let Some(res) = dfg.result(op) {
            if let Some(r) = regs.register_of(res) {
                let src = Source::Wire(format!("fu{f}"));
                per_step.entry(step).or_default().insert(src.clone());
                sources.insert(src);
                sinks.insert(format!("r{r}"));
            }
        }
    }
    BusReport {
        buses: per_step.values().map(BTreeSet::len).max().unwrap_or(0),
        drivers: sources.len(),
        taps: sinks.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fu::greedy_allocation;
    use crate::lifetime::value_intervals;
    use crate::registers::left_edge;
    use hls_sched::{asap_schedule, OpClassifier, ResourceLimits};
    use hls_workloads::figures::fig6_graph;

    fn setup() -> (
        DataFlowGraph,
        Schedule,
        OpClassifier,
        RegisterAllocation,
        FuAllocation,
    ) {
        let (g, _) = fig6_graph();
        let cls = OpClassifier::typed();
        let s = asap_schedule(&g, &cls, &ResourceLimits::unlimited()).unwrap();
        let regs = left_edge(&value_intervals(&g, &s));
        let fus = greedy_allocation(&g, &cls, &s, &regs, true);
        (g, s, cls, regs, fus)
    }

    #[test]
    fn connections_count_mux_inputs() {
        let (g, s, cls, regs, fus) = setup();
        let conn = connections(&g, &cls, &s, &regs, &fus);
        assert!(conn.wire_count() > 0);
        assert!(conn.mux_inputs() <= conn.wire_count());
    }

    #[test]
    fn bus_count_is_peak_transfers() {
        let (g, s, cls, regs, fus) = setup();
        let bus = bus_allocation(&g, &cls, &s, &regs, &fus);
        // Step 2 runs m1, m2, a3 simultaneously: at least 6 operand reads
        // plus 3 result writes, some shared.
        assert!(bus.buses >= 4, "{bus:?}");
        assert!(bus.drivers > 0 && bus.taps > 0);
    }

    #[test]
    fn buses_use_fewer_wires_than_point_to_point() {
        // The paper's claim: "buses ... offer the advantage of requiring
        // less wiring".
        let (g, s, cls, regs, fus) = setup();
        let conn = connections(&g, &cls, &s, &regs, &fus);
        let bus = bus_allocation(&g, &cls, &s, &regs, &fus);
        assert!(
            bus.buses < conn.wire_count(),
            "shared buses ({}) vs point-to-point wires ({})",
            bus.buses,
            conn.wire_count()
        );
    }
}
