//! # hls-alloc — data-path allocation
//!
//! Every allocation technique of §3.2 of the DAC'88 tutorial:
//!
//! * [`value_intervals`] / [`max_live`] — value lifetime analysis.
//! * [`left_edge`] (REAL) and [`color_registers`] — register allocation.
//! * [`greedy_allocation`] — iterative/constructive, interconnect-aware FU
//!   binding (Fig. 6).
//! * [`clique_allocation`] over [`CompatGraph`]s with exact Bron–Kerbosch
//!   ([`max_clique`]) or Tseng/Siewiorek merging (Fig. 7).
//! * [`exhaustive_binding`] — Hafer-style optimal search (ground truth).
//! * [`connections`] / [`bus_allocation`] — multiplexer vs bus
//!   interconnect.
//! * [`build_datapath`] — whole-behavior datapath assembly: each operand
//!   resolved once to a [`Source`], each step's control [`Signal`]s
//!   recorded for the controller, the RTL simulator and netlist export,
//!   against a [`VariableTable`] a prepared behavior builds once.
//!   [`Datapath::area`] prices the cells the netlist would instantiate.
//!
//! The binders, the interconnect views and [`build_datapath`] share one
//! operand-source model: one resolver turns an operand into a [`Source`],
//! and one wiring price (a source new to a sink that other sources
//! already drive costs one mux input) prices every mux input. A value read
//! without its register, or a same-step producer without a unit, is an
//! [`AllocError`], so every binder and view but clique partitioning
//! returns a `Result`.
//!
//! The data is index-typed: bindings are dense id maps
//! ([`hls_cdfg::DenseMap`]), [`Connections`] keeps a short source list
//! per FU port and register for the binders, and the [`Datapath`] owns
//! one table of the distinct [`Signal`]s its blocks record, chained per
//! sink, which each step lists by index. Nothing on the back-half path
//! hashes a source or a signal.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod clique;
mod datapath;
mod error;
mod fu;
mod ilp;
mod interconnect;
mod lifetime;
mod registers;
mod signal;

pub use clique::{max_clique, partition_max_clique, partition_tseng, CompatGraph};
pub use datapath::{
    build_datapath, build_datapath_with, cell_class_for, BlockBinding, Datapath, FuDesc,
    FuStrategy, OutputWrite, RegDesc, RegKind, VariableTable,
};
pub use error::AllocError;
pub use fu::{
    clique_allocation, fu_lower_bound, greedy_allocation, CliqueMethod, FuAllocation, FuInstance,
};
pub use ilp::{binding_cost, exhaustive_binding, OptimalBinding, FU_WEIGHT};
pub use interconnect::{bus_allocation, connections, BusReport, Connections};
pub use lifetime::{max_live, render_gantt, value_intervals, Interval};
pub use registers::{color_registers, left_edge, minimum_registers, RegisterAllocation};
pub use signal::{Signal, Source};
