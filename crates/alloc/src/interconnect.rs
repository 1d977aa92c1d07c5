//! Interconnect modeling: multiplexer cost and bus allocation.
//!
//! "Communication paths, including buses and multiplexers, must be chosen
//! so that the functional units and registers are connected as necessary
//! ... The most simple type of communication path allocation is based only
//! on multiplexers. Buses, which can be seen as distributed multiplexers,
//! offer the advantage of requiring less wiring, but they may be slower"
//! (§2).

use std::collections::{HashMap, HashSet};

use hls_cdfg::{DataFlowGraph, OpKind};
use hls_sched::{OpClassifier, Schedule};

use crate::datapath::Resolver;
use crate::error::AllocError;
use crate::fu::FuAllocation;
use crate::registers::RegisterAllocation;
use crate::signal::Source;

/// Where a wire ends: a functional unit's input port or a register's
/// input.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Sink {
    /// Input `port` of unit `fu`.
    Port { fu: usize, port: usize },
    /// The input of register `reg`.
    Reg(usize),
}

/// One `T` per sink, indexed by FU and port or by register and grown on
/// demand.
#[derive(Clone, Debug, Default)]
pub(crate) struct PerSink<T> {
    ports: Vec<Vec<T>>,
    regs: Vec<T>,
}

impl<T: Default> PerSink<T> {
    /// The slot of `sink`, if it was ever touched.
    fn get(&self, sink: Sink) -> Option<&T> {
        match sink {
            Sink::Port { fu, port } => self.ports.get(fu)?.get(port),
            Sink::Reg(reg) => self.regs.get(reg),
        }
    }

    /// The slot of `sink`, created empty on first use.
    pub(crate) fn slot(&mut self, sink: Sink) -> &mut T {
        match sink {
            Sink::Port { fu, port } => grown(grown(&mut self.ports, fu), port),
            Sink::Reg(reg) => grown(&mut self.regs, reg),
        }
    }
}

/// Element `i` of `v`, which grows with defaults to hold it.
pub(crate) fn grown<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if i >= v.len() {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

/// The distinct sources wired into each sink. A sink with `k > 1`
/// sources needs a `k`-way mux, costed as `k - 1` two-way muxes. Each
/// sink keeps a short list of its sources, compared by equality.
#[derive(Clone, Debug, Default)]
pub struct Connections {
    sinks: PerSink<Vec<Source>>,
    mux_inputs: usize,
}

impl Connections {
    /// Total multiplexer inputs.
    pub fn mux_inputs(&self) -> usize {
        self.mux_inputs
    }

    /// Total point-to-point connections (wire count for mux-based
    /// interconnect).
    pub fn wire_count(&self) -> usize {
        let PerSink { ports, regs } = &self.sinks;
        ports.iter().flatten().chain(regs).map(Vec::len).sum()
    }

    /// The mux inputs that wiring `src` into `sink` adds (see
    /// [`price`]): the binders compare placements with it.
    pub(crate) fn cost(&self, sink: Sink, src: &Source) -> usize {
        self.sinks
            .get(sink)
            .map_or(0, |list| price(!list.contains(src), list.len()))
    }

    /// Wires `src` into `sink`, adding its [`price`] to the mux count;
    /// `true` when the wire is new.
    pub(crate) fn connect(&mut self, sink: Sink, src: &Source) -> bool {
        let list = self.sinks.slot(sink);
        let others = list.len();
        let new = !list.contains(src);
        if new {
            list.push(src.clone());
        }
        self.mux_inputs += price(new, others);
        new
    }

    /// Takes back a wire [`Connections::connect`] reported new, with its
    /// [`price`] (backtracking search).
    pub(crate) fn disconnect(&mut self, sink: Sink, src: &Source) {
        let list = self.sinks.slot(sink);
        if let Some(i) = list.iter().position(|s| s == src) {
            list.swap_remove(i);
            self.mux_inputs -= price(true, list.len());
        }
    }
}

/// The one interconnect price: a source `new` to a sink adds a mux input
/// unless it is the sink's first (`others` sources already drive it).
/// Taking the wire back refunds the same. [`Connections`] and the
/// datapath's mux count both price with it.
pub(crate) fn price(new: bool, others: usize) -> usize {
    usize::from(new && others > 0)
}

/// Computes the connections implied by a schedule, register allocation,
/// and FU binding. Operands beyond a unit's port count are not wired.
///
/// # Errors
///
/// [`AllocError::UnboundValue`] for an operand read after its own step
/// without a register; [`AllocError::UnboundOp`] for a same-step
/// producer without a unit.
pub fn connections(
    dfg: &DataFlowGraph,
    classifier: &OpClassifier,
    schedule: &Schedule,
    regs: &RegisterAllocation,
    fus: &FuAllocation,
) -> Result<Connections, AllocError> {
    let resolver = Resolver::new(dfg, classifier, schedule, &fus.binding, &regs.assignment);
    let mut conn = Connections::default();
    for op in dfg.op_ids() {
        let step = schedule.step(op).unwrap_or(0);
        let stored = dfg
            .result(op)
            .and_then(|v| regs.register_of(v).map(|r| (v, r)));
        if let Some(&f) = fus.binding.get(op) {
            let ports = fus.fus.get(f).map_or(0, |u| u.ports);
            for (port, &v) in fus.port_order(dfg, op).iter().enumerate().take(ports) {
                conn.connect(Sink::Port { fu: f, port }, &resolver.source(v, step)?);
            }
            if let Some((_, r)) = stored {
                conn.connect(Sink::Reg(r), &Source::Fu(f));
            }
        }
        // A registered chained free op loads the wire through it.
        if let Some((v, r)) = stored {
            if classifier.is_free(dfg, op) && dfg.op(op).kind != OpKind::Const {
                conn.connect(Sink::Reg(r), &resolver.source(v, step)?);
            }
        }
    }
    Ok(conn)
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
///
/// # Errors
///
/// As [`connections`].
pub fn bus_allocation(
    dfg: &DataFlowGraph,
    classifier: &OpClassifier,
    schedule: &Schedule,
    regs: &RegisterAllocation,
    fus: &FuAllocation,
) -> Result<BusReport, AllocError> {
    let resolver = Resolver::new(dfg, classifier, schedule, &fus.binding, &regs.assignment);
    let mut per_step: HashMap<u32, HashSet<Source>> = HashMap::new();
    let mut sources: HashSet<Source> = HashSet::new();
    let mut sinks: HashSet<Sink> = HashSet::new();
    for op in dfg.op_ids() {
        let Some(&f) = fus.binding.get(op) else {
            continue;
        };
        let step = schedule.step(op).unwrap_or(0);
        let mut transfer = |sink: Sink, src: Source| {
            per_step.entry(step).or_default().insert(src.clone());
            sources.insert(src);
            sinks.insert(sink);
        };
        for (port, &v) in fus.port_order(dfg, op).iter().enumerate() {
            let src = resolver.source(v, step)?;
            if !matches!(src, Source::Const(_)) {
                // constants are wired, not bused
                transfer(Sink::Port { fu: f, port }, src);
            }
        }
        if let Some(r) = dfg.result(op).and_then(|v| regs.register_of(v)) {
            transfer(Sink::Reg(r), Source::Fu(f));
        }
    }
    Ok(BusReport {
        buses: per_step.values().map(HashSet::len).max().unwrap_or(0),
        drivers: sources.len(),
        taps: sinks.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fu::greedy_allocation;
    use crate::ilp::{binding_cost, exhaustive_binding};
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
        let fus = greedy_allocation(&g, &cls, &s, &regs, true).unwrap();
        (g, s, cls, regs, fus)
    }

    #[test]
    fn connections_report_mux_inputs() {
        let (g, s, cls, regs, fus) = setup();
        let conn = connections(&g, &cls, &s, &regs, &fus).unwrap();
        assert!(conn.wire_count() > 0);
        assert!(conn.mux_inputs() <= conn.wire_count());
    }

    /// The one wiring price: a sink takes its first source and any
    /// source it already has for free, and each further source costs a
    /// mux input, which the count gives back when the wire is taken back.
    #[test]
    fn mux_count_follows_connect_and_disconnect() {
        let mut conn = Connections::default();
        let port = Sink::Port { fu: 0, port: 1 };
        assert_eq!(conn.cost(port, &Source::Reg(0)), 0);
        assert!(conn.connect(port, &Source::Reg(0)));
        assert_eq!(conn.cost(port, &Source::Reg(0)), 0);
        assert_eq!(conn.cost(port, &Source::Fu(1)), 1);
        assert!(conn.connect(port, &Source::Fu(1)));
        assert!(!conn.connect(port, &Source::Fu(1)));
        assert!(conn.connect(Sink::Reg(0), &Source::Fu(1)));
        assert_eq!((conn.mux_inputs(), conn.wire_count()), (1, 3));
        conn.disconnect(port, &Source::Fu(1));
        assert_eq!((conn.mux_inputs(), conn.wire_count()), (0, 2));
        conn.disconnect(port, &Source::Reg(0));
        assert_eq!(conn.cost(port, &Source::Fu(1)), 0);
    }

    #[test]
    fn bus_count_is_peak_transfers() {
        let (g, s, cls, regs, fus) = setup();
        let bus = bus_allocation(&g, &cls, &s, &regs, &fus).unwrap();
        // Step 2 runs m1, m2, a3 simultaneously: at least 6 operand reads
        // plus 3 result writes, some shared.
        assert!(bus.buses >= 4, "{bus:?}");
        assert!(bus.drivers > 0 && bus.taps > 0);
    }

    /// A register allocation that lacks a value read in a later step is
    /// an error in every binder and view, never a made-up source.
    #[test]
    fn binders_and_views_report_missing_bindings() {
        let (g, s, cls, mut regs, fus) = setup();
        let value = g
            .op_ids()
            .filter_map(|op| g.result(op).map(|v| (op, v)))
            .find(|&(op, v)| g.value(v).uses.iter().any(|&u| s.step(u) > s.step(op)))
            .map(|(_, v)| v)
            .unwrap();
        regs.assignment.remove(value);
        let unbound = |e: AllocError| matches!(e, AllocError::UnboundValue { .. });
        assert!(greedy_allocation(&g, &cls, &s, &regs, true).is_err_and(unbound));
        assert!(exhaustive_binding(&g, &cls, &s, &regs, 1_000).is_err_and(unbound));
        assert!(binding_cost(&g, &cls, &s, &regs, &fus).is_err_and(unbound));
        assert!(connections(&g, &cls, &s, &regs, &fus).is_err_and(unbound));
        assert!(bus_allocation(&g, &cls, &s, &regs, &fus).is_err_and(unbound));
    }

    #[test]
    fn buses_use_fewer_wires_than_point_to_point() {
        // The paper's claim: "buses ... offer the advantage of requiring
        // less wiring".
        let (g, s, cls, regs, fus) = setup();
        let conn = connections(&g, &cls, &s, &regs, &fus).unwrap();
        let bus = bus_allocation(&g, &cls, &s, &regs, &fus).unwrap();
        assert!(
            bus.buses < conn.wire_count(),
            "shared buses ({}) vs point-to-point wires ({})",
            bus.buses,
            conn.wire_count()
        );
    }
}
